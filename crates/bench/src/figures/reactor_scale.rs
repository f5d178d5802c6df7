//! Reactor scalability benchmark: one process, 10⁵⁺ concurrent playback
//! sessions as [`ScaleSession`] state machines on the deterministic
//! reactor, at 1k / 10k / 100k fleet sizes.
//!
//! Each point reports throughput (sessions/sec, wall-clock — excluded
//! from the deterministic log) alongside the schedule's trace digest and
//! the fleet's aggregate fault/degradation totals (deterministic per
//! seed — the CI guard double-runs and `cmp`s them). Peak resident
//! memory is read from `/proc/self/status` `VmHWM` where available.

use crate::table::Table;
use annolight_core::QualityLevel;
use annolight_stream::machine::{ScaleOutcome, ScaleSession, ScaleSpec};
use annolight_stream::session::SessionConfig;
use annolight_stream::FaultConfig;
use annolight_support::channel;
use annolight_support::reactor::Reactor;
use annolight_video::ClipLibrary;
use std::sync::Arc;
use std::time::Instant;

/// Canonical seed of the exported benchmark.
pub const BASELINE_SEED: u64 = 0x5CA1E;

/// Schema version of the exported report (bump on field changes).
pub const SCHEMA_VERSION: u64 = 1;

/// One fleet size's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Concurrent sessions hosted by the reactor.
    pub sessions: u64,
    /// Wall-clock for the whole fleet, milliseconds (not deterministic).
    pub wall_ms: f64,
    /// Completed sessions per wall-clock second (not deterministic).
    pub sessions_per_sec: f64,
    /// Peak resident set size (`VmHWM`), bytes; `0` when unavailable
    /// (not deterministic).
    pub peak_rss_bytes: u64,
    /// Scheduler rounds the reactor ran.
    pub rounds: u64,
    /// Task steps executed.
    pub steps: u64,
    /// The reactor's schedule trace digest (hex).
    pub schedule_digest: String,
    /// FNV fold of every session's outcome digest, in session order (hex).
    pub fleet_digest: String,
    /// First transmissions lost across the fleet.
    pub dropped: u64,
    /// Link-layer retransmissions across the fleet.
    pub retransmits: u64,
    /// Frames played degraded across the fleet.
    pub degraded_frames: u64,
    /// Picture packets that exhausted the reliable retry budget.
    pub undeliverable: u64,
}

annolight_support::impl_json!(struct ScalePoint {
    sessions, wall_ms, sessions_per_sec, peak_rss_bytes, rounds, steps,
    schedule_digest, fleet_digest, dropped, retransmits, degraded_frames,
    undeliverable
});

/// The exported scalability benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReactor {
    /// Report schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Master seed every fleet was scheduled from.
    pub seed: u64,
    /// One point per fleet size, ascending.
    pub points: Vec<ScalePoint>,
}

annolight_support::impl_json!(struct BenchReactor { schema_version, seed, points });

impl BenchReactor {
    /// Pretty JSON for `BENCH_reactor.json`.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        annolight_support::json::to_string_pretty(self)
    }

    /// Parses a baseline back (regression tooling).
    ///
    /// # Errors
    ///
    /// Returns the JSON error message for malformed input.
    pub fn from_json_string(json: &str) -> Result<Self, String> {
        annolight_support::json::from_str(json).map_err(|e| e.to_string())
    }
}

/// The mixed fleet's fault profile for session `i`: alternating lossy /
/// bursty links (every session exercises the degradation path; the
/// bursty half also exercises Gilbert–Elliott loss trains).
fn fleet_faults(seed: u64, i: usize) -> FaultConfig {
    let s = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if i.is_multiple_of(2) {
        FaultConfig::lossy(s, 0.12)
    } else {
        FaultConfig::bursty(s)
    }
}

/// Builds the shared packet plan every session in the fleet drives: the
/// paper clip's 2 s preview, negotiated and served once.
///
/// # Errors
///
/// Propagates catalogue/pipeline errors as strings.
pub fn fleet_spec() -> Result<Arc<ScaleSpec>, String> {
    let clip = ClipLibrary::paper_clip("themovie")
        .ok_or_else(|| "paper clip \"themovie\" missing from the library".to_owned())?
        .preview(2.0);
    let config = SessionConfig::new(clip, QualityLevel::Q10);
    ScaleSpec::negotiate(config).map(Arc::new).map_err(|e| e.to_string())
}

fn fnv_fold(mut hash: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Peak resident set size of this process in bytes (`VmHWM`), or `None`
/// off Linux.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib * 1024)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Runs one fleet of `sessions` mixed faulty/degraded sessions on one
/// reactor and measures it.
///
/// # Panics
///
/// Panics if any session fails to report (a reactor bug).
#[must_use]
pub fn run_point(spec: &Arc<ScaleSpec>, seed: u64, sessions: usize) -> ScalePoint {
    let (tx, rx) = channel::unbounded();
    let mut reactor = Reactor::new(seed);
    for i in 0..sessions {
        reactor.spawn(Box::new(ScaleSession::new(
            Arc::clone(spec),
            fleet_faults(seed, i),
            i,
            tx.clone(),
        )));
    }
    drop(tx);
    let started = Instant::now();
    let report = reactor.run();
    let wall = started.elapsed();

    let mut outcomes: Vec<Option<ScaleOutcome>> = vec![None; sessions];
    for (i, outcome) in rx.iter() {
        outcomes[i] = Some(outcome);
    }
    let mut fleet_digest = 0xcbf2_9ce4_8422_2325u64;
    let (mut dropped, mut retransmits, mut degraded, mut undeliverable) = (0u64, 0u64, 0u64, 0u64);
    for (i, slot) in outcomes.iter().enumerate() {
        let o = slot.as_ref().unwrap_or_else(|| panic!("session {i} never reported"));
        fleet_digest = fnv_fold(fleet_digest, o.digest);
        dropped += o.dropped;
        retransmits += o.retransmits;
        degraded += u64::from(o.degraded_frames);
        undeliverable += u64::from(o.undeliverable);
    }
    let wall_s = wall.as_secs_f64().max(f64::MIN_POSITIVE);
    ScalePoint {
        sessions: sessions as u64,
        wall_ms: wall_s * 1e3,
        sessions_per_sec: sessions as f64 / wall_s,
        peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
        rounds: report.rounds,
        steps: report.steps,
        schedule_digest: report.digest.to_hex(),
        fleet_digest: format!("{fleet_digest:016x}"),
        dropped,
        retransmits,
        degraded_frames: degraded,
        undeliverable,
    }
}

fn run_points(seed: u64, sizes: &[usize]) -> BenchReactor {
    let spec = fleet_spec().expect("fleet spec builds from the paper clip");
    let points = sizes.iter().map(|&n| run_point(&spec, seed, n)).collect();
    BenchReactor { schema_version: SCHEMA_VERSION, seed, points }
}

/// The full 1k / 10k / 100k sweep.
#[must_use]
pub fn run(seed: u64) -> BenchReactor {
    run_points(seed, &[1_000, 10_000, 100_000])
}

/// The CI smoke sweep: small warm-up point plus the full 100k fleet
/// (the acceptance gate is "one process, ≥100k concurrent sessions").
#[must_use]
pub fn run_small(seed: u64) -> BenchReactor {
    run_points(seed, &[1_000, 100_000])
}

/// The deterministic projections — everything except wall-clock and
/// RSS — serialised for the CI double-run `cmp` guard.
#[must_use]
pub fn deterministic_log(bench: &BenchReactor) -> String {
    let mut s = format!("seed {:#x} schema {}\n", bench.seed, bench.schema_version);
    for p in &bench.points {
        s.push_str(&format!(
            "sessions {} rounds {} steps {} schedule {} fleet {} dropped {} \
             retransmits {} degraded {} undeliverable {}\n",
            p.sessions,
            p.rounds,
            p.steps,
            p.schedule_digest,
            p.fleet_digest,
            p.dropped,
            p.retransmits,
            p.degraded_frames,
            p.undeliverable,
        ));
    }
    s
}

/// The printable scalability table.
#[must_use]
pub fn render(bench: &BenchReactor) -> String {
    let mut t = Table::new([
        "sessions",
        "wall ms",
        "sessions/s",
        "peak RSS MiB",
        "rounds",
        "steps",
        "dropped",
        "retx",
        "degraded",
        "fleet digest",
    ]);
    for p in &bench.points {
        t.row([
            p.sessions.to_string(),
            format!("{:.1}", p.wall_ms),
            format!("{:.0}", p.sessions_per_sec),
            if p.peak_rss_bytes == 0 {
                "n/a".into()
            } else {
                format!("{:.1}", p.peak_rss_bytes as f64 / (1024.0 * 1024.0))
            },
            p.rounds.to_string(),
            p.steps.to_string(),
            p.dropped.to_string(),
            p.retransmits.to_string(),
            p.degraded_frames.to_string(),
            p.fleet_digest.clone(),
        ]);
    }
    let mut out =
        String::from("Reactor scalability (mixed lossy/bursty sessions, one process)\n");
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_is_deterministic_and_json_roundtrips() {
        let spec = fleet_spec().unwrap();
        let a = run_point(&spec, 9, 128);
        let b = run_point(&spec, 9, 128);
        assert_eq!(a.schedule_digest, b.schedule_digest);
        assert_eq!(a.fleet_digest, b.fleet_digest);
        assert_eq!((a.dropped, a.retransmits, a.degraded_frames), (
            b.dropped,
            b.retransmits,
            b.degraded_frames
        ));
        assert!(a.dropped > 0, "a lossy fleet must drop packets");
        let bench =
            BenchReactor { schema_version: SCHEMA_VERSION, seed: 9, points: vec![a] };
        let back = BenchReactor::from_json_string(&bench.to_json_string()).unwrap();
        assert_eq!(back, bench);
    }

    #[test]
    fn different_seeds_schedule_differently() {
        let spec = fleet_spec().unwrap();
        let a = run_point(&spec, 1, 64);
        let b = run_point(&spec, 2, 64);
        assert_ne!(a.schedule_digest, b.schedule_digest);
    }
}
