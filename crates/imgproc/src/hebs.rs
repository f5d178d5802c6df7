//! HEBS — histogram-equalization backlight scaling (after Iranli, Fatemi
//! and Pedram).
//!
//! Where the paper's peak-clipping policy derives the pixel
//! transformation from a single scalar (the effective maximum
//! luminance), HEBS derives it from the **full luminance histogram**: the
//! darker a scene's mass sits, the more aggressively midtones can be
//! brightened, which lets the backlight drop further than the pure
//! contrast stretch allows while the perceived image stays comparable.
//!
//! The transformation built here is a monotone 256-entry remap
//! ([`HebsLut`]), the pointwise **maximum** of two monotone curves:
//!
//! * the **contrast stretch** `v ↦ min(255, v·255/eff)` — the same
//!   clipping-budget bound the peak-clip policy applies, evaluated in
//!   the crate's 16.16 fixed-point discipline
//!   ([`scale_channel_fixed`](crate::compensate::scale_channel_fixed)
//!   rounding, exact integer arithmetic); and
//! * the **histogram equalization** curve `v ↦ round(255·F(v))` with
//!   `F` the *mid-distribution* CDF (mass strictly below `v` plus half
//!   the mass at `v`) of the histogram restricted to values at or below
//!   the effective maximum — the midpoint convention both keeps a
//!   sparsely-populated black level near 0 **and** lifts a dominant
//!   dark bin to its mass midpoint, which is where the backlight gain
//!   comes from.
//!
//! Taking the max keeps the two invariants the conformance tier pins
//! down: the remap is monotone (max of two monotone curves), and it is
//! **never darker than the clipping bound** — HEBS only ever brightens
//! relative to peak-clip compensation, so its backlight level can only
//! be lower. Everything above the effective maximum maps to full scale,
//! exactly like the clipped lane of the peak policy.
//!
//! Like [`CompensationLut`](crate::compensate::CompensationLut), the
//! table is pure integer arithmetic built once per scene;
//! [`hebs_remap_scalar`] recomputes any single entry from first
//! principles and is the 0-ULP oracle the property tests compare the
//! table against.

use crate::compensate::ClipStats;
use crate::compensate::{COMPENSATION_FIXED_ONE, COMPENSATION_FIXED_SHIFT};
use crate::frame::Frame;
use crate::histogram::Histogram;

/// The 16.16 fixed-point contrast-stretch factor `255/eff`, rounded to
/// nearest.
///
/// # Panics
///
/// Panics if `effective_max` is zero (a black scene has no stretch).
#[must_use]
pub fn hebs_stretch_fixed(effective_max: u8) -> u64 {
    assert!(effective_max > 0, "black scene has no contrast stretch");
    let e = u64::from(effective_max);
    ((255u64 << COMPENSATION_FIXED_SHIFT) + e / 2) / e
}

/// The contrast-stretch value for channel input `v` at `effective_max`:
/// `min(255, round_fixed(v·255/eff))`, the clipping-bound lower envelope
/// of the HEBS remap. Exact integer arithmetic.
#[must_use]
pub fn hebs_stretch_value(effective_max: u8, v: u8) -> u8 {
    if effective_max == 0 {
        return v; // black scene: identity, consistent with the remap
    }
    let raw = u64::from(v) * hebs_stretch_fixed(effective_max);
    if raw > 255 * COMPENSATION_FIXED_ONE {
        255
    } else {
        ((raw + COMPENSATION_FIXED_ONE / 2) >> COMPENSATION_FIXED_SHIFT) as u8
    }
}

/// Recomputes one HEBS remap entry from first principles — the scalar
/// oracle the table-driven [`HebsLut`] is property-tested against
/// (exact equality, not approximate).
///
/// For `v ≥ eff` the entry is 255 (the clipped lane). Below, it is the
/// max of [`hebs_stretch_value`] and the equalization curve
/// `round(255·(mass_below(v) + mass_at(v)/2) / mass_at_or_below(eff))`
/// (mid-distribution CDF, integer rounding to nearest). An empty
/// histogram (or `eff == 0`) degenerates to the identity remap.
#[must_use]
pub fn hebs_remap_scalar(hist: &Histogram, effective_max: u8, v: u8) -> u8 {
    if effective_max == 0 {
        return v;
    }
    if v >= effective_max {
        return 255;
    }
    let total: u64 = (0..=effective_max).map(|u| hist.bin(u)).sum();
    let stretch = hebs_stretch_value(effective_max, v);
    if total == 0 {
        return stretch;
    }
    let below: u64 = (0..v).map(|u| hist.bin(u)).sum();
    let eq = (((2 * below + hist.bin(v)) * 255 + total) / (2 * total)) as u8;
    stretch.max(eq)
}

/// A per-scene 256-entry HEBS remap table.
///
/// Built once per scene from the scene's merged luminance histogram and
/// the quality level's effective maximum (the same `clip_level` the
/// peak-clip policy uses, so both policies spend the identical clipping
/// budget). Applied per channel as pure table look-ups — bit-for-bit
/// deterministic across chunkings, worker counts and platforms.
///
/// # Example
///
/// ```
/// use annolight_imgproc::{HebsLut, Histogram};
/// let mut h = Histogram::new();
/// for v in [10u8, 10, 20, 40, 40, 40, 200] {
///     h.add(v);
/// }
/// let lut = HebsLut::from_histogram(&h, 40);
/// assert_eq!(lut.value(40), 255); // effective max stretches to full scale
/// assert_eq!(lut.value(200), 255); // clipped lane
/// assert!(lut.value(20) >= lut.value(10)); // monotone
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HebsLut {
    pub(crate) effective_max: u8,
    pub(crate) remap: [u8; 256],
}

impl HebsLut {
    /// Builds the remap for `hist` at the given effective maximum.
    #[must_use]
    pub fn from_histogram(hist: &Histogram, effective_max: u8) -> Self {
        let mut remap = [0u8; 256];
        if effective_max == 0 {
            for (v, slot) in remap.iter_mut().enumerate() {
                *slot = v as u8;
            }
            return Self { effective_max, remap };
        }
        let total: u64 = (0..=effective_max).map(|u| hist.bin(u)).sum();
        let mut below = 0u64;
        for (v, slot) in remap.iter_mut().enumerate() {
            let vu = v as u8;
            *slot = if vu >= effective_max {
                255
            } else {
                let stretch = hebs_stretch_value(effective_max, vu);
                if total == 0 {
                    stretch
                } else {
                    let eq = (((2 * below + hist.bin(vu)) * 255 + total) / (2 * total)) as u8;
                    stretch.max(eq)
                }
            };
            if vu <= effective_max {
                below += hist.bin(vu);
            }
        }
        Self { effective_max, remap }
    }

    /// The effective maximum luminance the table was built for.
    #[must_use]
    pub fn effective_max(&self) -> u8 {
        self.effective_max
    }

    /// The remapped value for channel input `v`.
    #[must_use]
    pub fn value(&self, v: u8) -> u8 {
        self.remap[v as usize]
    }

    /// The full 256-entry table.
    #[must_use]
    pub fn table(&self) -> &[u8; 256] {
        &self.remap
    }

    /// The clipping-bound lower envelope at `v` (what peak-clip
    /// compensation at the full stretch would produce).
    #[must_use]
    pub fn stretch_value(&self, v: u8) -> u8 {
        hebs_stretch_value(self.effective_max, v)
    }

    /// Whether channel input `v` lies in the clipped lane (strictly
    /// above the effective maximum — the quality budget spent).
    #[must_use]
    pub fn is_clipped(&self, v: u8) -> bool {
        self.effective_max > 0 && v > self.effective_max
    }

    /// Applies the remap to every channel of every pixel, in place,
    /// reporting clipping statistics (a pixel counts as clipped when any
    /// channel sat strictly above the effective maximum — the same
    /// budget the quality level bounds).
    ///
    /// Dispatches to the widest SIMD kernel the host supports (see
    /// [`crate::simd::kernel_tier`]); every tier is byte-identical to
    /// [`Self::apply_scalar`], stats included.
    pub fn apply(&self, frame: &mut Frame) -> ClipStats {
        crate::simd::hebs_apply(self, frame, crate::simd::kernel_tier())
    }

    /// [`Self::apply`] at an explicit [`KernelTier`](crate::simd::KernelTier)
    /// (clamped to host capability) — the hook the differential
    /// conformance tier sweeps.
    pub fn apply_with(&self, frame: &mut Frame, tier: crate::simd::KernelTier) -> ClipStats {
        crate::simd::hebs_apply(self, frame, tier)
    }

    /// The retained scalar reference kernel — the 0-ULP oracle every
    /// SIMD tier is tested against.
    pub fn apply_scalar(&self, frame: &mut Frame) -> ClipStats {
        let mut stats =
            ClipStats { total_pixels: frame.pixel_count() as u64, ..Default::default() };
        for px in frame.as_bytes_mut().chunks_exact_mut(3) {
            let mut clipped = false;
            for ch in px.iter_mut() {
                if self.is_clipped(*ch) {
                    clipped = true;
                    let over = f32::from(*ch) - f32::from(self.effective_max);
                    if over > stats.max_overshoot {
                        stats.max_overshoot = over;
                    }
                }
                *ch = self.remap[*ch as usize];
            }
            if clipped {
                stats.clipped_pixels += 1;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Rgb8;
    use annolight_support::rng::SmallRng;

    fn random_hist(rng: &mut SmallRng) -> Histogram {
        let mut h = Histogram::new();
        let n = 50 + (rng.next_u64() % 2000) as usize;
        for _ in 0..n {
            h.add((rng.next_u64() % 256) as u8);
        }
        h
    }

    #[test]
    fn table_matches_scalar_oracle_exactly() {
        let mut rng = SmallRng::seed_from_u64(0x4EB5);
        for _ in 0..32 {
            let h = random_hist(&mut rng);
            for eff in [0u8, 1, 17, 40, 128, 200, 254, 255] {
                let lut = HebsLut::from_histogram(&h, eff);
                for v in 0..=255u8 {
                    assert_eq!(
                        lut.value(v),
                        hebs_remap_scalar(&h, eff, v),
                        "eff={eff} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn remap_is_monotone_and_never_below_stretch() {
        let mut rng = SmallRng::seed_from_u64(0x4EB6);
        for _ in 0..32 {
            let h = random_hist(&mut rng);
            for eff in [1u8, 40, 128, 255] {
                let lut = HebsLut::from_histogram(&h, eff);
                for v in 0..=255u8 {
                    assert!(lut.value(v) >= lut.stretch_value(v), "eff={eff} v={v}");
                    if v > 0 {
                        assert!(lut.value(v) >= lut.value(v - 1), "eff={eff} v={v}");
                    }
                }
                assert_eq!(lut.value(eff), 255, "effective max reaches full scale");
            }
        }
    }

    #[test]
    fn dark_mass_brightens_midtones_beyond_stretch() {
        // All mass at 10–20, effective max 200: equalization lifts the
        // midtones far above the gentle 255/200 stretch.
        let mut h = Histogram::new();
        for _ in 0..500 {
            h.add(10);
        }
        for _ in 0..500 {
            h.add(20);
        }
        let lut = HebsLut::from_histogram(&h, 200);
        assert!(
            lut.value(30) > lut.stretch_value(30) + 50,
            "equalized {} vs stretch {}",
            lut.value(30),
            lut.stretch_value(30)
        );
    }

    #[test]
    fn black_scene_is_identity() {
        let h = Histogram::new();
        let lut = HebsLut::from_histogram(&h, 0);
        for v in 0..=255u8 {
            assert_eq!(lut.value(v), v);
        }
        assert!(!lut.is_clipped(255));
    }

    #[test]
    fn empty_histogram_degenerates_to_stretch() {
        let h = Histogram::new();
        let lut = HebsLut::from_histogram(&h, 100);
        for v in 0..=255u8 {
            assert_eq!(lut.value(v), lut.stretch_value(v).max(if v >= 100 { 255 } else { 0 }));
        }
    }

    #[test]
    fn apply_counts_budget_pixels_once() {
        let mut h = Histogram::new();
        for v in [40u8, 40, 40, 250] {
            h.add(v);
        }
        let lut = HebsLut::from_histogram(&h, 40);
        let mut f = Frame::filled(2, 2, Rgb8::gray(40));
        f.set_pixel(0, 0, Rgb8::new(250, 250, 250));
        let stats = lut.apply(&mut f);
        assert_eq!(stats.clipped_pixels, 1);
        assert_eq!(stats.total_pixels, 4);
        assert_eq!(f.pixel(0, 0), Rgb8::gray(255));
        assert_eq!(f.pixel(1, 1), Rgb8::gray(255), "effective max stretches to full scale");
        assert!((stats.max_overshoot - 210.0).abs() < 1e-6);
    }

    #[test]
    fn gray_stays_gray() {
        let mut h = Histogram::new();
        for v in 0..=255u8 {
            h.add(v);
        }
        let lut = HebsLut::from_histogram(&h, 180);
        let mut f = Frame::filled(2, 2, Rgb8::gray(90));
        lut.apply(&mut f);
        let p = f.pixel(0, 0);
        assert!(p.r == p.g && p.g == p.b);
    }
}
