//! Closed-loop quality governor: the control law.
//!
//! The paper's annotations are open-loop offline hints — the quality
//! level is fixed at negotiation time. This module closes the loop: a
//! deterministic per-scene controller that folds live device state
//! (remaining joule budget, battery charge, thermal throttling) into the
//! quality-knob selection, StEP/DEPO-style — search the knob monotonely
//! until the projected remaining-session energy fits the remaining
//! budget, with hysteresis so the picture quality never oscillates.
//!
//! The module is deliberately *power-model agnostic*: callers project
//! per-knob energies (joules for the remainder of the session at each
//! quality level, monotone non-increasing in the knob index) and the
//! governor picks the knob. The session wiring — plan ladders, battery
//! drain, the upstream feedback channel — lives in `annolight-stream`'s
//! `governor` module; the decision itself ships upstream as a
//! [`GovernorFeedback`] packet over the same hint channel the
//! [`AnnotationDelta`](crate::delta::AnnotationDelta)s ride.
//!
//! Invariants the property tier pins:
//!
//! * the knob search probes at most `⌈log₂ K⌉ + 1` projections;
//! * a feasible budget is **never overshot**: the chosen knob's
//!   projection fits the remaining budget whenever any knob's does;
//! * the governor is **idempotent once converged**: constant inputs
//!   reproduce the same knob with [`GovernorAction::Hold`] forever.

use crate::error::CoreError;
use crate::quality::QualityLevel;

/// Wire magic for a governor feedback packet (`ALG1`: AnnoLight
/// Governor v1).
pub const GOVERNOR_MAGIC: &[u8; 4] = b"ALG1";

/// FNV-1a offset basis (the digest the trace fold starts from).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut hash: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

// ---------------------------------------------------------------------------
// Knob search.
// ---------------------------------------------------------------------------

/// The outcome of one [`fit_knob`] search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobSearch {
    /// The least aggressive knob whose projection fits the budget — or
    /// the most aggressive knob when nothing fits.
    pub knob: usize,
    /// Projections examined by the search (≤ `⌈log₂ K⌉ + 1`).
    pub probes: u32,
    /// Whether the chosen knob's projection fits the budget.
    pub fits: bool,
}

/// Binary-searches the quality ladder for the least aggressive knob
/// whose projected energy fits `budget_j`.
///
/// `projections[k]` is the projected energy at knob `k`; knob indices
/// run from least aggressive (full quality, most energy) to most
/// aggressive (deepest clipping, least energy), so the slice must be
/// monotone non-increasing — that monotonicity is what makes the
/// partition-point search exact. When no knob fits, the most aggressive
/// one is returned with `fits == false` (best effort).
///
/// # Panics
///
/// Panics when `projections` is empty.
#[must_use]
pub fn fit_knob(projections: &[f64], budget_j: f64) -> KnobSearch {
    assert!(!projections.is_empty(), "knob search needs at least one level");
    debug_assert!(
        projections.windows(2).all(|w| w[0] >= w[1]),
        "projections must be monotone non-increasing in the knob index"
    );
    let mut lo = 0usize;
    let mut hi = projections.len();
    let mut probes = 0u32;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        if projections[mid] <= budget_j {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    if lo < projections.len() {
        KnobSearch { knob: lo, probes, fits: true }
    } else {
        KnobSearch { knob: projections.len() - 1, probes, fits: false }
    }
}

// ---------------------------------------------------------------------------
// Thermal model.
// ---------------------------------------------------------------------------

/// First-order lumped thermal model of a passively cooled handheld: the
/// case heats in proportion to dissipated power and cools toward
/// ambient, and a Schmitt trigger with separate throttle/release
/// thresholds models the firmware's thermal governor (hysteresis — no
/// chatter at the threshold).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    /// Ambient temperature, °C.
    pub ambient_c: f64,
    /// Heating rate per watt of dissipation, °C/s/W.
    pub c_per_w: f64,
    /// Newtonian cooling coefficient, 1/s.
    pub cool_per_s: f64,
    /// Case temperature that engages throttling, °C.
    pub throttle_c: f64,
    /// Case temperature that releases throttling, °C (below
    /// `throttle_c`).
    pub release_c: f64,
}

annolight_support::impl_json!(struct ThermalModel { ambient_c, c_per_w, cool_per_s, throttle_c, release_c });

impl ThermalModel {
    /// A passively cooled iPAQ-class handheld at room temperature:
    /// ~3 W of streaming dissipation settles around 55 °C, so sustained
    /// playback eventually throttles at 45 °C and releases at 41 °C.
    #[must_use]
    pub fn ipaq_passive() -> Self {
        Self { ambient_c: 25.0, c_per_w: 0.5, cool_per_s: 0.05, throttle_c: 45.0, release_c: 41.0 }
    }

    /// The initial state: case at ambient, not throttled.
    #[must_use]
    pub fn start(&self) -> ThermalState {
        ThermalState { temp_c: self.ambient_c, throttled: false }
    }
}

/// The live thermal state the governor reads each scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalState {
    /// Case temperature, °C.
    pub temp_c: f64,
    /// Whether the thermal governor is currently throttling.
    pub throttled: bool,
}

annolight_support::impl_json!(struct ThermalState { temp_c, throttled });

impl ThermalState {
    /// Integrates `dt_s` seconds at a constant `power_w` dissipation and
    /// updates the Schmitt trigger.
    pub fn step(&mut self, model: &ThermalModel, power_w: f64, dt_s: f64) {
        let heat = model.c_per_w * power_w;
        let cool = model.cool_per_s * (self.temp_c - model.ambient_c);
        self.temp_c = (self.temp_c + dt_s * (heat - cool)).max(model.ambient_c);
        if self.throttled {
            if self.temp_c <= model.release_c {
                self.throttled = false;
            }
        } else if self.temp_c >= model.throttle_c {
            self.throttled = true;
        }
    }
}

// ---------------------------------------------------------------------------
// The governor.
// ---------------------------------------------------------------------------

/// Control-law parameters: the quality ladder and the hysteresis that
/// keeps the knob from oscillating.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorControl {
    /// The quality ladder, least → most aggressive (more clipping →
    /// dimmer backlight → less energy).
    pub levels: Vec<QualityLevel>,
    /// Fractional budget margin required before *improving* quality: a
    /// down-step is only taken when the improved knob's projection fits
    /// `remaining × (1 − headroom)`. Degradations ignore it (budget
    /// safety is immediate).
    pub headroom: f64,
    /// Scenes the knob must dwell unchanged before an improvement is
    /// considered.
    pub dwell_scenes: u32,
}

impl Default for GovernorControl {
    /// The paper's five-level ladder with 5 % improvement headroom and a
    /// two-scene dwell.
    fn default() -> Self {
        Self { levels: QualityLevel::PAPER_LEVELS.to_vec(), headroom: 0.05, dwell_scenes: 2 }
    }
}

impl GovernorControl {
    /// Panics unless the ladder is non-empty and `headroom ∈ [0, 1)`.
    pub fn validate(&self) {
        assert!(!self.levels.is_empty(), "governor needs a non-empty quality ladder");
        assert!(
            (0.0..1.0).contains(&self.headroom),
            "headroom {} outside [0, 1)",
            self.headroom
        );
    }
}

/// What the governor did this scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorAction {
    /// Knob unchanged.
    Hold,
    /// Stepped toward a more aggressive (cheaper) knob — immediate, for
    /// budget or thermal safety.
    Degrade,
    /// Stepped one knob toward better quality — dwell and headroom
    /// gated.
    Improve,
    /// No knob fits the remaining budget; pinned at the most aggressive
    /// level (best effort).
    BestEffort,
}

annolight_support::impl_json!(enum GovernorAction { Hold, Degrade, Improve, BestEffort });

/// One scene's decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorDecision {
    /// Knob before the decision.
    pub knob_before: usize,
    /// Knob after the decision (the actuated value).
    pub knob: usize,
    /// What happened.
    pub action: GovernorAction,
    /// Whether the chosen knob's projection fits the remaining budget.
    pub fits: bool,
    /// Projections the knob search examined.
    pub probes: u32,
    /// Projected remaining-session energy at the chosen knob, joules.
    pub projected_j: f64,
}

/// The deterministic per-scene quality governor.
///
/// Degradations (toward the aggressive end) are taken immediately — the
/// budget is a hard constraint. Improvements are hysteresis-gated: the
/// knob must have dwelt [`GovernorControl::dwell_scenes`] scenes, the
/// improved projection must fit the remaining budget with
/// [`GovernorControl::headroom`] to spare, and at most one step is taken
/// per scene — so a borderline budget cannot make the backlight pump.
/// While the device is thermally throttled the governor never improves
/// quality and prefers one extra aggressive step (shed heat).
#[derive(Debug, Clone)]
pub struct QualityGovernor {
    control: GovernorControl,
    knob: usize,
    scenes_since_change: u32,
}

impl QualityGovernor {
    /// A governor starting at the least aggressive knob.
    ///
    /// # Panics
    ///
    /// Panics when `control` fails [`GovernorControl::validate`].
    #[must_use]
    pub fn new(control: GovernorControl) -> Self {
        control.validate();
        Self { control, knob: 0, scenes_since_change: 0 }
    }

    /// Sets the starting knob (e.g. the negotiated quality level).
    ///
    /// # Panics
    ///
    /// Panics when `knob` is outside the ladder.
    #[must_use]
    pub fn with_knob(mut self, knob: usize) -> Self {
        assert!(knob < self.control.levels.len(), "start knob {knob} outside ladder");
        self.knob = knob;
        self
    }

    /// The current knob index.
    #[must_use]
    pub fn knob(&self) -> usize {
        self.knob
    }

    /// The quality level at the current knob.
    #[must_use]
    pub fn quality(&self) -> QualityLevel {
        self.control.levels[self.knob]
    }

    /// The control parameters.
    #[must_use]
    pub fn control(&self) -> &GovernorControl {
        &self.control
    }

    /// Decides the knob for the next scene given the remaining joule
    /// budget, the per-knob projections of everything still to play
    /// (monotone non-increasing, one entry per ladder level), and the
    /// thermal throttle flag.
    ///
    /// # Panics
    ///
    /// Panics when `projections` does not match the ladder length.
    pub fn decide(
        &mut self,
        remaining_j: f64,
        projections: &[f64],
        throttled: bool,
    ) -> GovernorDecision {
        assert_eq!(
            projections.len(),
            self.control.levels.len(),
            "one projection per ladder level"
        );
        let knob_before = self.knob;
        let last = projections.len() - 1;
        let search = fit_knob(projections, remaining_j);
        let mut target = search.knob;
        if throttled {
            // Thermal pressure: at least one step more aggressive than
            // the current knob (monotone projections keep this within
            // budget whenever the search's knob was).
            target = target.max((self.knob + 1).min(last));
        }
        let (knob, action) = if !search.fits {
            (last, GovernorAction::BestEffort)
        } else if target > self.knob {
            // Budget/thermal safety: jump straight to the target.
            (target, GovernorAction::Degrade)
        } else if target < self.knob {
            // Improvement: dwell- and headroom-gated, one step at a time.
            let next = self.knob - 1;
            if !throttled
                && self.scenes_since_change >= self.control.dwell_scenes
                && projections[next] <= remaining_j * (1.0 - self.control.headroom)
            {
                (next, GovernorAction::Improve)
            } else {
                (self.knob, GovernorAction::Hold)
            }
        } else {
            (self.knob, GovernorAction::Hold)
        };
        if knob == self.knob {
            self.scenes_since_change = self.scenes_since_change.saturating_add(1);
        } else {
            self.scenes_since_change = 0;
        }
        self.knob = knob;
        GovernorDecision {
            knob_before,
            knob,
            action,
            fits: search.fits,
            probes: search.probes,
            projected_j: projections[knob],
        }
    }
}

// ---------------------------------------------------------------------------
// Trace events.
// ---------------------------------------------------------------------------

/// One scene of the governor trace — the deterministic artefact the
/// budget tier double-runs and the reactor parity tier compares across
/// hosts.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorEvent {
    /// Scene index.
    pub scene: u32,
    /// First frame of the scene.
    pub start_frame: u32,
    /// Knob actuated for this scene.
    pub knob: u32,
    /// Quality level at that knob.
    pub quality: QualityLevel,
    /// What the governor did.
    pub action: GovernorAction,
    /// Whether the chosen knob's projection fit the remaining budget.
    pub fits: bool,
    /// Projections examined by the knob search.
    pub probes: u32,
    /// Projected remaining-session energy at the chosen knob, joules.
    pub projected_j: f64,
    /// Energy this scene actually cost, joules.
    pub scene_j: f64,
    /// Budget remaining at decision time, joules.
    pub remaining_j: f64,
    /// Battery charge remaining at decision time, joules.
    pub battery_j: f64,
    /// Case temperature at decision time, °C.
    pub temp_c: f64,
    /// Whether the thermal governor was throttling.
    pub throttled: bool,
    /// Ambient light at decision time, lux.
    pub ambient_lux: f64,
    /// Whether this scene's annotation hint had not arrived (plays at
    /// full backlight regardless of the knob).
    pub hint_missing: bool,
}

annolight_support::impl_json!(struct GovernorEvent { scene, start_frame, knob, quality, action, fits, probes, projected_j, scene_j, remaining_j, battery_j, temp_c, throttled, ambient_lux, hint_missing });

/// FNV-1a digest of a governor trace: every numeric field of every
/// event folds in, so two traces share a digest iff they are
/// bit-identical.
#[must_use]
pub fn trace_digest(events: &[GovernorEvent]) -> u64 {
    let mut hash = FNV_OFFSET;
    for e in events {
        hash = fnv_fold(hash, u64::from(e.scene));
        hash = fnv_fold(hash, u64::from(e.start_frame));
        hash = fnv_fold(hash, u64::from(e.knob));
        hash = fnv_fold(hash, e.quality.clip_fraction().to_bits());
        hash = fnv_fold(hash, e.action as u64);
        hash = fnv_fold(hash, u64::from(e.fits) | (u64::from(e.throttled) << 1) | (u64::from(e.hint_missing) << 2));
        hash = fnv_fold(hash, u64::from(e.probes));
        hash = fnv_fold(hash, e.projected_j.to_bits());
        hash = fnv_fold(hash, e.scene_j.to_bits());
        hash = fnv_fold(hash, e.remaining_j.to_bits());
        hash = fnv_fold(hash, e.battery_j.to_bits());
        hash = fnv_fold(hash, e.temp_c.to_bits());
        hash = fnv_fold(hash, e.ambient_lux.to_bits());
    }
    hash
}

// ---------------------------------------------------------------------------
// Upstream feedback wire format.
// ---------------------------------------------------------------------------

/// The governor's decision as it ships upstream over the hint channel —
/// the same sequence-numbered packet stream the
/// [`AnnotationDelta`](crate::delta::AnnotationDelta)s ride, so the
/// server/proxy can re-plan the remainder of the session mid-stream.
/// Distinguished from delta payloads by the [`GOVERNOR_MAGIC`] tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GovernorFeedback {
    /// The scene this decision takes effect from.
    pub scene: u32,
    /// The actuated knob index.
    pub knob: u8,
    /// Bit 0: thermally throttled; bit 1: best-effort (budget
    /// infeasible).
    pub flags: u8,
    /// Remaining budget at decision time, millijoules (telemetry;
    /// saturating).
    pub remaining_mj: u64,
}

impl GovernorFeedback {
    /// Flag bit: the device was thermally throttled.
    pub const FLAG_THROTTLED: u8 = 0b01;
    /// Flag bit: no knob fit the budget (best effort).
    pub const FLAG_BEST_EFFORT: u8 = 0b10;

    /// Serialises to the compact wire form (18 bytes).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(18);
        out.extend_from_slice(GOVERNOR_MAGIC);
        out.extend_from_slice(&self.scene.to_le_bytes());
        out.push(self.knob);
        out.push(self.flags);
        out.extend_from_slice(&self.remaining_mj.to_le_bytes());
        out
    }

    /// Parses the wire form produced by [`GovernorFeedback::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MalformedTrack`] for truncated or mistagged
    /// input — a corrupt feedback packet is dropped like a lost one,
    /// never trusted.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        if bytes.len() < 18 {
            return Err(CoreError::MalformedTrack {
                reason: "governor feedback packet truncated".into(),
            });
        }
        if &bytes[0..4] != GOVERNOR_MAGIC {
            return Err(CoreError::MalformedTrack { reason: "bad governor feedback magic".into() });
        }
        let scene = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let knob = bytes[8];
        let flags = bytes[9];
        let remaining_mj = u64::from_le_bytes([
            bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15], bytes[16],
            bytes[17],
        ]);
        Ok(Self { scene, knob, flags, remaining_mj })
    }

    /// Whether `bytes` starts with the governor feedback magic.
    #[must_use]
    pub fn is_governor_payload(bytes: &[u8]) -> bool {
        bytes.len() >= 4 && &bytes[0..4] == GOVERNOR_MAGIC
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> Vec<f64> {
        // Monotone non-increasing, like a real plan ladder.
        vec![100.0, 92.0, 85.0, 80.0, 76.0]
    }

    #[test]
    fn fit_knob_picks_least_aggressive_fitting_level() {
        let p = ladder();
        assert_eq!(fit_knob(&p, 200.0).knob, 0);
        assert_eq!(fit_knob(&p, 92.0).knob, 1);
        assert_eq!(fit_knob(&p, 91.0).knob, 2);
        assert_eq!(fit_knob(&p, 80.0).knob, 3);
        assert_eq!(fit_knob(&p, 76.0).knob, 4);
        assert!(fit_knob(&p, 76.0).fits);
    }

    #[test]
    fn fit_knob_best_effort_when_nothing_fits() {
        let s = fit_knob(&ladder(), 10.0);
        assert_eq!(s.knob, 4);
        assert!(!s.fits);
    }

    #[test]
    fn fit_knob_probe_bound_is_logarithmic() {
        for len in 1usize..=64 {
            let p: Vec<f64> = (0..len).map(|i| (len - i) as f64).collect();
            let bound = (usize::BITS - (len - 1).max(1).leading_zeros()) + 1;
            for budget in [-1.0, 0.5, 1.0, len as f64 / 2.0, len as f64 + 1.0] {
                let s = fit_knob(&p, budget);
                assert!(
                    s.probes <= bound,
                    "len {len} budget {budget}: {} probes > bound {bound}",
                    s.probes
                );
            }
        }
    }

    #[test]
    fn degrade_is_immediate_improve_is_dwell_gated() {
        let control = GovernorControl { dwell_scenes: 2, headroom: 0.0, ..Default::default() };
        let mut g = QualityGovernor::new(control);
        // Tight budget: immediate jump to the fitting knob.
        let d = g.decide(80.0, &ladder(), false);
        assert_eq!((d.knob, d.action), (3, GovernorAction::Degrade));
        // Budget recovers: improvement waits out the dwell...
        let d = g.decide(1000.0, &ladder(), false);
        assert_eq!((d.knob, d.action), (3, GovernorAction::Hold));
        let d = g.decide(1000.0, &ladder(), false);
        assert_eq!((d.knob, d.action), (3, GovernorAction::Hold));
        // ...then steps one knob per scene, not straight to 0.
        let d = g.decide(1000.0, &ladder(), false);
        assert_eq!((d.knob, d.action), (2, GovernorAction::Improve));
    }

    #[test]
    fn throttling_blocks_improvement_and_forces_a_step_down() {
        let mut g = QualityGovernor::new(GovernorControl::default()).with_knob(1);
        let d = g.decide(1000.0, &ladder(), true);
        assert_eq!((d.knob, d.action), (2, GovernorAction::Degrade));
        // Still throttled: holds (already one past the search target).
        let d = g.decide(1000.0, &ladder(), true);
        assert_eq!((d.knob, d.action), (3, GovernorAction::Degrade));
        let d = g.decide(1000.0, &ladder(), true);
        assert_eq!((d.knob, d.action), (4, GovernorAction::Degrade));
        // Pinned at the floor while throttled.
        let d = g.decide(1000.0, &ladder(), true);
        assert_eq!((d.knob, d.action), (4, GovernorAction::Hold));
    }

    #[test]
    fn converged_governor_is_idempotent() {
        let mut g = QualityGovernor::new(GovernorControl::default());
        let p = ladder();
        for _ in 0..16 {
            g.decide(85.0, &p, false);
        }
        let knob = g.knob();
        for _ in 0..8 {
            let d = g.decide(85.0, &p, false);
            assert_eq!((d.knob, d.action), (knob, GovernorAction::Hold));
        }
    }

    #[test]
    fn thermal_schmitt_trigger_has_hysteresis() {
        let m = ThermalModel::ipaq_passive();
        let mut s = m.start();
        // Heat at 3.2 W until throttled.
        let mut heated = 0.0;
        while !s.throttled {
            s.step(&m, 3.2, 1.0);
            heated += 1.0;
            assert!(heated < 600.0, "never throttled");
        }
        assert!(s.temp_c >= m.throttle_c);
        // One cool second is not enough to release (hysteresis gap).
        s.step(&m, 0.0, 1.0);
        assert!(s.throttled, "released inside the hysteresis band");
        // Cooling to the release threshold does release.
        while s.throttled {
            s.step(&m, 0.0, 1.0);
        }
        assert!(s.temp_c <= m.release_c);
        // And temperature never falls below ambient.
        for _ in 0..10_000 {
            s.step(&m, 0.0, 1.0);
        }
        assert!(s.temp_c >= m.ambient_c - 1e-12);
    }

    #[test]
    fn feedback_wire_roundtrip() {
        let fb = GovernorFeedback {
            scene: 42,
            knob: 3,
            flags: GovernorFeedback::FLAG_THROTTLED,
            remaining_mj: 123_456_789,
        };
        let bytes = fb.to_bytes();
        assert!(GovernorFeedback::is_governor_payload(&bytes));
        assert_eq!(GovernorFeedback::from_bytes(&bytes).unwrap(), fb);
        // Truncated and mistagged packets are typed failures.
        assert!(GovernorFeedback::from_bytes(&bytes[..17]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(GovernorFeedback::from_bytes(&bad).is_err());
        // Delta payloads are not governor payloads.
        assert!(!GovernorFeedback::is_governor_payload(b"ALD1rest"));
    }

    #[test]
    fn trace_digest_separates_traces() {
        let e = GovernorEvent {
            scene: 0,
            start_frame: 0,
            knob: 2,
            quality: QualityLevel::Q10,
            action: GovernorAction::Hold,
            fits: true,
            probes: 3,
            projected_j: 10.0,
            scene_j: 1.0,
            remaining_j: 12.0,
            battery_j: 15_000.0,
            temp_c: 25.0,
            throttled: false,
            ambient_lux: 300.0,
            hint_missing: false,
        };
        let mut e2 = e.clone();
        e2.scene_j = 1.0 + 1e-12;
        assert_ne!(trace_digest(std::slice::from_ref(&e)), trace_digest(&[e2]));
        assert_eq!(trace_digest(std::slice::from_ref(&e)), trace_digest(&[e]));
    }
}
