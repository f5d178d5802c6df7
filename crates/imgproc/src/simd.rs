//! Runtime-dispatched SIMD kernels for the per-pixel hot path.
//!
//! PR 5 vectorised the codec's SAD/half-pel inner loops; this module
//! extends the same **exact-or-reference** discipline to the imgproc
//! layer: histogram accumulation, [`CompensationLut`] application and
//! the [`HebsLut`] remap each get an SSE2 baseline and an AVX2
//! lane-widened variant, selected at runtime, and BT.601 colour
//! conversion in both directions gets a vectorised body. Every kernel computes the
//! *identical* integer arithmetic as its retained scalar reference —
//! byte-for-byte, stats included — so tier selection can never change
//! output bytes (the `pipeline_identity` conformance tier and the
//! `simd_props` check! properties pin this down across tiers, worker
//! counts and ragged frame geometries).
//!
//! # Dispatch
//!
//! [`kernel_tier`] picks the widest tier the host supports, overridable
//! with `ANNOLIGHT_KERNEL_TIER=scalar|sse2|avx2` (clamped to what the
//! CPU actually has — asking for AVX2 on an SSE2-only host falls back).
//! Every public entry point also has an explicit `*_with(tier)` form on
//! the owning type so differential tests can pin a tier.
//!
//! # Exactness arguments (checked by the property tiers)
//!
//! * **Luma histogram** — the scalar kernel computes
//!   `y = WR·r + WG·g + WB·b; luma = (y + 32768) >> 16` in `u32`. The
//!   vector form evaluates `pmaddwd` with weights `[WR, WG − 65536, WB, 0]`
//!   (WG alone exceeds `i16::MAX`) and repairs the signed trick by adding
//!   `g·65536` back — the same `y` in `i32`, exactly, since every partial
//!   product fits. Lane counts land in per-lane partial histograms that
//!   are reduced by unsigned addition ([`Histogram::add_bin_counts`] /
//!   [`Histogram::merged`] semantics), which is order-independent.
//! * **Compensation LUT** — `value(c) = (c·k + 32768) >> 16` with `k` in
//!   16.16 fixed point splits as `k = kh·65536 + kl`, giving
//!   `value(c) = c·kh + ((c·kl + 32768) >> 16)` where the inner term is
//!   `mulhi_epu16(c, kl) + (mullo_epi16(c, kl) >> 15)` (the carry of
//!   `+32768` is exactly bit 15 of the low half). For `kh ≤ 127` every
//!   intermediate fits a positive `i16` lane and `packus` saturation
//!   reproduces the scalar's clip-to-255 lane exactly; larger factors
//!   (k ≥ 128, far beyond any real backlight ratio) fall back to the
//!   scalar reference so dispatch stays exact for *all* inputs.
//! * **Clip statistics** — `clipped[c]` is upward-closed in `c` (the raw
//!   product is monotone), so the clipped set is `c ≥ c_min` — one
//!   unsigned byte compare per lane. A pixel clips when *any* of its 3
//!   channels clip: three 16-byte masks concatenate to a 48-bit mask and
//!   `popcount((M | M≫1 | M≫2) & 0x2492_4924_9249)` counts pixel
//!   starts. `max_overshoot` is the overshoot of the *largest* clipped
//!   channel value (the overshoot table is monotone on the clipped
//!   range), tracked as a running `max_epu8`.
//! * **HEBS remap** — a 256-entry table gather. The SSE2 tier vectorises
//!   the clip statistics and keeps the scalar gather; the AVX2 tier
//!   remaps 32 bytes at a time through 16 nibble-indexed `vpshufb` row
//!   lookups (exact: each byte selects its table row by high nibble and
//!   its entry by low nibble).
//! * **BT.601 colour conversion** ([`rgb_to_yuv420`], [`yuv420_to_rgb`])
//!   — the scalar reference is [`Rgb8::to_yuv`](crate::Rgb8::to_yuv) /
//!   [`Yuv8::to_rgb`](crate::Yuv8::to_rgb) per pixel. Every step of
//!   those formulas is one IEEE binary32 `mul`/`add`/`sub`/`div` in
//!   source order, and Rust never contracts them into FMAs, so a vector
//!   lane computes the identical unrounded value (both share
//!   `color::yuv_f32` / `color::rgb_f32`). The reference rounds with
//!   `f32::round` (half away from zero), an out-of-line call on the
//!   SSE2 baseline that blocks vectorisation; the kernels emulate it as
//!   `t = trunc(v); t + (v − t ≥ 0.5)`, which is exact because
//!   `|v| < 2²³` makes both the truncation and the fraction exact, then
//!   clamp to `0..=255` (negative values reach 0 either way). The
//!   RGB→4:2:0 kernel is one pass: each pixel's Y/U/V is computed once,
//!   Y is stored, and the rounded U/V enter the 2×2 box sums exactly as
//!   the reference's second per-pixel pass does. The body works on
//!   fixed 16-pixel chunks so the compiler vectorises it on the SSE2
//!   baseline; a row's ragged tail runs the same body on a zero-padded
//!   chunk. The SSE2 and AVX2 tiers run that one body: compiled for
//!   AVX2 it ran 1.2–1.7× faster again in isolation, but the colour
//!   kernels are then only a few percent of a proxy transcode, so no
//!   second, `unsafe` `#[target_feature]` copy is kept. Exhaustive tests
//!   cover all 2²⁴ inputs in each direction.

use crate::compensate::{ClipStats, CompensationLut};
use crate::error::ImageError;
use crate::frame::{Frame, Yuv420Frame};
use crate::hebs::HebsLut;
use crate::histogram::Histogram;
use std::sync::OnceLock;

/// A SIMD capability tier for the per-pixel kernels.
///
/// Tiers are totally ordered: every tier computes byte-identical results,
/// wider tiers are only faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// The retained scalar reference kernels (every platform).
    Scalar,
    /// 128-bit SSE2 kernels (baseline on x86-64).
    Sse2,
    /// 256-bit AVX2 lane-widened kernels (runtime-detected).
    Avx2,
}

impl KernelTier {
    /// All tiers, narrowest first (the order conformance tests sweep).
    pub const ALL: [KernelTier; 3] = [KernelTier::Scalar, KernelTier::Sse2, KernelTier::Avx2];

    /// Whether this tier's kernels can run on the current host.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            KernelTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 => true, // SSE2 is part of the x86-64 baseline ISA
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest tier the host supports.
    #[must_use]
    pub fn detect() -> KernelTier {
        if KernelTier::Avx2.is_available() {
            KernelTier::Avx2
        } else if KernelTier::Sse2.is_available() {
            KernelTier::Sse2
        } else {
            KernelTier::Scalar
        }
    }

    /// Clamps a requested tier to what the host supports (requesting
    /// AVX2 on an SSE2-only machine degrades to SSE2, never errors —
    /// results are identical by construction).
    #[must_use]
    pub fn clamped(self) -> KernelTier {
        if self.is_available() {
            self
        } else if self >= KernelTier::Sse2 && KernelTier::Sse2.is_available() {
            KernelTier::Sse2
        } else {
            KernelTier::Scalar
        }
    }

    /// Parses a tier name (`scalar`, `sse2`, `avx2`), case-insensitive.
    #[must_use]
    pub fn parse(name: &str) -> Option<KernelTier> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelTier::Scalar),
            "sse2" => Some(KernelTier::Sse2),
            "avx2" => Some(KernelTier::Avx2),
            _ => None,
        }
    }

    /// The tier's lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
        }
    }
}

/// The process-wide default kernel tier: the widest the host supports,
/// unless `ANNOLIGHT_KERNEL_TIER=scalar|sse2|avx2` pins one (still
/// clamped to host capability). Cached after the first call.
pub fn kernel_tier() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        match std::env::var("ANNOLIGHT_KERNEL_TIER") {
            Ok(name) => KernelTier::parse(name.trim())
                .unwrap_or_else(|| {
                    panic!("ANNOLIGHT_KERNEL_TIER={name:?} is not scalar|sse2|avx2")
                })
                .clamped(),
            Err(_) => KernelTier::detect(),
        }
    })
}

// ---------------------------------------------------------------------------
// Luma histogram accumulation
// ---------------------------------------------------------------------------

/// Accumulates the luma histogram of interleaved RGB bytes into `counts`
/// (one `u32` per luminance bin) at the requested tier. `rgb.len()` must
/// be a multiple of 3; counts are *added*, not reset.
pub(crate) fn luma_counts(rgb: &[u8], counts: &mut [u32; 256], tier: KernelTier) {
    debug_assert!(rgb.len().is_multiple_of(3));
    match tier.clamped() {
        KernelTier::Scalar => luma_counts_scalar(rgb, counts),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Sse2 => luma_counts_sse2(rgb, counts),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => luma_counts_avx2(rgb, counts),
        #[cfg(not(target_arch = "x86_64"))]
        _ => luma_counts_scalar(rgb, counts),
    }
}

/// The scalar reference accumulator (`luma_u8_lut` per pixel — exactly
/// the pre-SIMD histogram kernel).
fn luma_counts_scalar(rgb: &[u8], counts: &mut [u32; 256]) {
    for px in rgb.chunks_exact(3) {
        counts[crate::color::luma_u8_lut(px[0], px[1], px[2]) as usize] += 1;
    }
}

/// Folds four per-lane partial histograms into `counts` — the
/// [`Histogram::merged`]-style unsigned reduction, order-independent.
#[cfg(target_arch = "x86_64")]
fn fold_partials(counts: &mut [u32; 256], parts: &[[u32; 256]; 4]) {
    for v in 0..256 {
        counts[v] += parts[0][v] + parts[1][v] + parts[2][v] + parts[3][v];
    }
}

/// `pmaddwd` weight vector `[WR, WG − 65536, WB, 0]` as `i16` lanes, and
/// the post-hoc `g·65536` repair mask — see the module docs.
#[cfg(target_arch = "x86_64")]
const W_GP: i16 = (crate::color::WG as i64 - 65536) as i16;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn luma_counts_sse2(rgb: &[u8], counts: &mut [u32; 256]) {
    use std::arch::x86_64::*;
    let len = rgb.len();
    let n_px = len / 3;
    let mut parts = [[0u32; 256]; 4];
    let mut i = 0usize;
    // SAFETY: all vector loads are assembled from bounds-checked `u32`
    // reads (the `3i + 13 <= len` guard keeps the 4-byte read at offset
    // `3i + 9` in range); stores go to a stack array; SSE2 is baseline
    // on x86-64.
    unsafe {
        let w = _mm_set_epi16(
            0,
            crate::color::WB as i16,
            W_GP,
            crate::color::WR as i16,
            0,
            crate::color::WB as i16,
            W_GP,
            crate::color::WR as i16,
        );
        let g_mask = _mm_set1_epi32(0x0000_FF00);
        let half = _mm_set1_epi32(32768);
        let zero = _mm_setzero_si128();
        while i + 4 <= n_px && 3 * i + 13 <= len {
            let b = 3 * i;
            let px = |o: usize| -> i32 {
                i32::from_le_bytes(rgb[b + o..b + o + 4].try_into().expect("4-byte read"))
            };
            // Lanes [p0, p1, p2, p3], each `r | g<<8 | b<<16 | junk<<24`;
            // the junk byte multiplies the zero weight lane.
            let x = _mm_set_epi32(px(9), px(6), px(3), px(0));
            let lo16 = _mm_unpacklo_epi8(x, zero); // p0, p1 as u16 lanes
            let hi16 = _mm_unpackhi_epi8(x, zero); // p2, p3
            let mlo = _mm_madd_epi16(lo16, w); // [p0a, p0b, p1a, p1b]
            let mhi = _mm_madd_epi16(hi16, w);
            // Pair-add to per-pixel sums in lanes 0 and 2, then gather.
            let slo = _mm_add_epi32(mlo, _mm_srli_si128(mlo, 4));
            let shi = _mm_add_epi32(mhi, _mm_srli_si128(mhi, 4));
            let y_sums = _mm_unpacklo_epi64(
                _mm_shuffle_epi32(slo, 0b10_00_10_00),
                _mm_shuffle_epi32(shi, 0b10_00_10_00),
            );
            // Repair the signed-WG trick (+ g·65536), round, shift.
            let corr = _mm_slli_epi32(_mm_and_si128(x, g_mask), 8);
            let lum = _mm_srli_epi32(_mm_add_epi32(_mm_add_epi32(y_sums, corr), half), 16);
            let mut lanes = [0u32; 4];
            _mm_storeu_si128(lanes.as_mut_ptr().cast(), lum);
            parts[0][lanes[0] as usize] += 1;
            parts[1][lanes[1] as usize] += 1;
            parts[2][lanes[2] as usize] += 1;
            parts[3][lanes[3] as usize] += 1;
            i += 4;
        }
    }
    // Ragged tail: scalar reference into partial 0.
    for px in rgb[3 * i..].chunks_exact(3) {
        parts[0][crate::color::luma_u8_lut(px[0], px[1], px[2]) as usize] += 1;
    }
    fold_partials(counts, &parts);
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn luma_counts_avx2(rgb: &[u8], counts: &mut [u32; 256]) {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return luma_counts_sse2(rgb, counts);
    }
    // SAFETY: AVX2 availability checked immediately above.
    unsafe { luma_counts_avx2_inner(rgb, counts) }
}

/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn luma_counts_avx2_inner(rgb: &[u8], counts: &mut [u32; 256]) {
    use std::arch::x86_64::*;
    let len = rgb.len();
    let n_px = len / 3;
    let mut parts = [[0u32; 256]; 4];
    let mut i = 0usize;
    // SAFETY: vector lanes are assembled from bounds-checked `u32` reads
    // (the `3i + 25 <= len` guard keeps the last 4-byte read, at offset
    // `3i + 21`, in range); stores go to a stack array.
    unsafe {
        let w = _mm256_set1_epi64x(
            (u64::from(crate::color::WR as u16)
                | (u64::from(W_GP as u16) << 16)
                | (u64::from(crate::color::WB as u16) << 32)) as i64,
        );
        let g_mask = _mm256_set1_epi32(0x0000_FF00);
        let half = _mm256_set1_epi32(32768);
        let zero = _mm256_setzero_si256();
        while i + 8 <= n_px && 3 * i + 25 <= len {
            let b = 3 * i;
            let px = |o: usize| -> i32 {
                i32::from_le_bytes(rgb[b + o..b + o + 4].try_into().expect("4-byte read"))
            };
            let x = _mm256_set_epi32(px(21), px(18), px(15), px(12), px(9), px(6), px(3), px(0));
            // In-lane unpack permutes pixel order across the two 128-bit
            // halves — harmless: histogram accumulation is
            // order-independent.
            let lo16 = _mm256_unpacklo_epi8(x, zero);
            let hi16 = _mm256_unpackhi_epi8(x, zero);
            let mlo = _mm256_madd_epi16(lo16, w);
            let mhi = _mm256_madd_epi16(hi16, w);
            let slo = _mm256_add_epi32(mlo, _mm256_srli_si256(mlo, 4));
            let shi = _mm256_add_epi32(mhi, _mm256_srli_si256(mhi, 4));
            let y_sums = _mm256_unpacklo_epi64(
                _mm256_shuffle_epi32(slo, 0b10_00_10_00),
                _mm256_shuffle_epi32(shi, 0b10_00_10_00),
            );
            // The in-lane unpack/pair-add/gather path puts pixel sums
            // back in original lane order per 128-bit half, so the same
            // g-repair mask as the SSE2 kernel applies lane-for-lane.
            let corr = _mm256_slli_epi32(_mm256_and_si256(x, g_mask), 8);
            let lum =
                _mm256_srli_epi32(_mm256_add_epi32(_mm256_add_epi32(y_sums, corr), half), 16);
            let mut lanes = [0u32; 8];
            _mm256_storeu_si256(lanes.as_mut_ptr().cast(), lum);
            parts[0][lanes[0] as usize] += 1;
            parts[1][lanes[1] as usize] += 1;
            parts[2][lanes[2] as usize] += 1;
            parts[3][lanes[3] as usize] += 1;
            parts[0][lanes[4] as usize] += 1;
            parts[1][lanes[5] as usize] += 1;
            parts[2][lanes[6] as usize] += 1;
            parts[3][lanes[7] as usize] += 1;
            i += 8;
        }
    }
    for px in rgb[3 * i..].chunks_exact(3) {
        parts[0][crate::color::luma_u8_lut(px[0], px[1], px[2]) as usize] += 1;
    }
    fold_partials(counts, &parts);
}

/// Builds the luma histogram of `frame` at `tier` (always byte-identical
/// to the scalar reference; see [`Frame::luma_histogram_with`]).
pub fn luma_histogram(frame: &Frame, tier: KernelTier) -> Histogram {
    let mut h = Histogram::new();
    luma_histogram_into(frame, &mut h, tier);
    h
}

/// Resets `out` and accumulates `frame`'s luma histogram into it —
/// the allocation-free form (both the histogram bins and the kernel's
/// partials are inline/stack storage).
pub fn luma_histogram_into(frame: &Frame, out: &mut Histogram, tier: KernelTier) {
    out.reset();
    let mut counts = [0u32; 256];
    luma_counts(frame.as_bytes(), &mut counts, tier);
    out.add_bin_counts(&counts);
}

// ---------------------------------------------------------------------------
// Clip-mask pixel counting (shared by the compensation and HEBS kernels)
// ---------------------------------------------------------------------------

/// Bits 0, 3, 6, … 45 — the pixel-start positions inside a 48-bit
/// (16-pixel) channel mask.
#[cfg(target_arch = "x86_64")]
const PX_BITS_48: u64 = 0x2492_4924_9249;

/// Counts pixels with *any* set channel bit in a 48-bit channel mask.
#[cfg(target_arch = "x86_64")]
#[inline]
fn count_clipped_pixels_48(m: u64) -> u64 {
    u64::from(((m | (m >> 1) | (m >> 2)) & PX_BITS_48).count_ones())
}

// ---------------------------------------------------------------------------
// Compensation LUT application
// ---------------------------------------------------------------------------

/// Applies `lut` to `frame` in place at `tier`, returning clip stats
/// byte-identical to the scalar reference.
pub fn compensation_apply(lut: &CompensationLut, frame: &mut Frame, tier: KernelTier) -> ClipStats {
    // k >= 128 would overflow the positive-i16 lane argument; no real
    // backlight ratio gets near it. The scalar reference is exact for
    // every factor.
    let vector_ok = lut.k_fixed < (128u64 << 16);
    match tier.clamped() {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Sse2 if vector_ok => compensation_apply_sse2(lut, frame),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 if vector_ok => compensation_apply_avx2(lut, frame),
        _ => lut.apply_scalar(frame),
    }
}

/// The smallest channel value that clips under `lut`, if any. The
/// clipped set is upward-closed (`raw = c·k` is monotone in `c`), so a
/// single unsigned `>=` compare per lane classifies every byte.
#[cfg(target_arch = "x86_64")]
fn clip_threshold(lut: &CompensationLut) -> Option<u8> {
    lut.clipped.iter().position(|&c| c).map(|i| i as u8)
}

/// Scalar per-channel update for the ragged tail of the vector kernels:
/// tracks the max *clipped channel value* instead of the overshoot so
/// the final overshoot lookup matches the vector path bit-for-bit.
#[cfg(target_arch = "x86_64")]
#[inline]
fn comp_tail(lut: &CompensationLut, tail: &mut [u8], clipped_px: &mut u64, max_c: &mut u8, any: &mut bool) {
    for px in tail.chunks_exact_mut(3) {
        let mut clipped = false;
        for ch in px.iter_mut() {
            let i = *ch as usize;
            if lut.clipped[i] {
                clipped = true;
                *any = true;
                if *ch > *max_c {
                    *max_c = *ch;
                }
            }
            *ch = lut.values[i];
        }
        if clipped {
            *clipped_px += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn compensation_apply_sse2(lut: &CompensationLut, frame: &mut Frame) -> ClipStats {
    use std::arch::x86_64::*;
    let total_pixels = frame.pixel_count() as u64;
    let kh = (lut.k_fixed >> 16) as u16;
    let kl = (lut.k_fixed & 0xFFFF) as u16;
    let threshold = clip_threshold(lut);
    let data = frame.as_bytes_mut();
    let blocks = data.len() / 48;
    let mut clipped_px = 0u64;
    let mut max_c = 0u8;
    let mut any = false;
    // SAFETY: every load/store covers a bounds-checked 16-byte subslice
    // of the frame buffer (the block loop stops at `48·blocks <= len`);
    // all accesses are explicitly unaligned; SSE2 is baseline on x86-64.
    unsafe {
        let khv = _mm_set1_epi16(kh as i16);
        let klv = _mm_set1_epi16(kl as i16);
        let zero = _mm_setzero_si128();
        let thr = threshold.map(|t| _mm_set1_epi8(t as i8));
        let mut maxv = _mm_setzero_si128();
        for blk in 0..blocks {
            let base = blk * 48;
            let mut mask48 = 0u64;
            for part in 0..3 {
                let off = base + part * 16;
                let v = _mm_loadu_si128(data[off..off + 16].as_ptr().cast());
                // value(c) = c·kh + mulhi_u16(c, kl) + (mullo(c, kl) >> 15)
                // — exactly (c·k + 32768) >> 16 for kh <= 127.
                let lo = _mm_unpacklo_epi8(v, zero);
                let hi = _mm_unpackhi_epi8(v, zero);
                let val_lo = _mm_add_epi16(
                    _mm_mullo_epi16(lo, khv),
                    _mm_add_epi16(
                        _mm_mulhi_epu16(lo, klv),
                        _mm_srli_epi16(_mm_mullo_epi16(lo, klv), 15),
                    ),
                );
                let val_hi = _mm_add_epi16(
                    _mm_mullo_epi16(hi, khv),
                    _mm_add_epi16(
                        _mm_mulhi_epu16(hi, klv),
                        _mm_srli_epi16(_mm_mullo_epi16(hi, klv), 15),
                    ),
                );
                // Clipped lanes exceed 255 and saturate — the scalar
                // clip-to-255 lane, exactly.
                let out = _mm_packus_epi16(val_lo, val_hi);
                _mm_storeu_si128(data[off..off + 16].as_mut_ptr().cast(), out);
                if let Some(t) = thr {
                    // v >= threshold, unsigned: max(v, t) == v.
                    let ge = _mm_cmpeq_epi8(_mm_max_epu8(v, t), v);
                    maxv = _mm_max_epu8(maxv, _mm_and_si128(v, ge));
                    let bits = _mm_movemask_epi8(ge) as u32 as u64;
                    mask48 |= bits << (16 * part);
                }
            }
            if mask48 != 0 {
                any = true;
                clipped_px += count_clipped_pixels_48(mask48);
            }
        }
        if any {
            let mut bytes = [0u8; 16];
            _mm_storeu_si128(bytes.as_mut_ptr().cast(), maxv);
            max_c = bytes.iter().copied().max().expect("non-empty");
        }
    }
    comp_tail(lut, &mut data[blocks * 48..], &mut clipped_px, &mut max_c, &mut any);
    ClipStats {
        clipped_pixels: clipped_px,
        total_pixels,
        max_overshoot: if any { lut.overshoot[max_c as usize] } else { 0.0 },
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn compensation_apply_avx2(lut: &CompensationLut, frame: &mut Frame) -> ClipStats {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return compensation_apply_sse2(lut, frame);
    }
    // SAFETY: AVX2 availability checked immediately above.
    unsafe { compensation_apply_avx2_inner(lut, frame) }
}

/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn compensation_apply_avx2_inner(lut: &CompensationLut, frame: &mut Frame) -> ClipStats {
    use std::arch::x86_64::*;
    let total_pixels = frame.pixel_count() as u64;
    let kh = (lut.k_fixed >> 16) as u16;
    let kl = (lut.k_fixed & 0xFFFF) as u16;
    let threshold = clip_threshold(lut);
    let data = frame.as_bytes_mut();
    let blocks = data.len() / 96; // 32 pixels per block
    let mut clipped_px = 0u64;
    let mut max_c = 0u8;
    let mut any = false;
    // SAFETY: every load/store covers a bounds-checked 32-byte subslice;
    // all accesses are explicitly unaligned.
    unsafe {
        let khv = _mm256_set1_epi16(kh as i16);
        let klv = _mm256_set1_epi16(kl as i16);
        let zero = _mm256_setzero_si256();
        let thr = threshold.map(|t| _mm256_set1_epi8(t as i8));
        let mut maxv = _mm256_setzero_si256();
        for blk in 0..blocks {
            let base = blk * 96;
            let mut mask96 = 0u128;
            for part in 0..3 {
                let off = base + part * 32;
                let v = _mm256_loadu_si256(data[off..off + 32].as_ptr().cast());
                let lo = _mm256_unpacklo_epi8(v, zero);
                let hi = _mm256_unpackhi_epi8(v, zero);
                let val_lo = _mm256_add_epi16(
                    _mm256_mullo_epi16(lo, khv),
                    _mm256_add_epi16(
                        _mm256_mulhi_epu16(lo, klv),
                        _mm256_srli_epi16(_mm256_mullo_epi16(lo, klv), 15),
                    ),
                );
                let val_hi = _mm256_add_epi16(
                    _mm256_mullo_epi16(hi, khv),
                    _mm256_add_epi16(
                        _mm256_mulhi_epu16(hi, klv),
                        _mm256_srli_epi16(_mm256_mullo_epi16(hi, klv), 15),
                    ),
                );
                // packus is in-lane and unpack lo/hi are in-lane, so the
                // byte order round-trips exactly.
                let out = _mm256_packus_epi16(val_lo, val_hi);
                _mm256_storeu_si256(data[off..off + 32].as_mut_ptr().cast(), out);
                if let Some(t) = thr {
                    let ge = _mm256_cmpeq_epi8(_mm256_max_epu8(v, t), v);
                    maxv = _mm256_max_epu8(maxv, _mm256_and_si256(v, ge));
                    let bits = _mm256_movemask_epi8(ge) as u32 as u128;
                    mask96 |= bits << (32 * part);
                }
            }
            if mask96 != 0 {
                any = true;
                // Same pixel-start trick as the 48-bit form, widened to
                // 96 bits (32 pixels).
                const PX_BITS_96: u128 = 0x0024_9249_2492_4924_9249_2492_4924_9249;
                clipped_px += u128::count_ones(
                    (mask96 | (mask96 >> 1) | (mask96 >> 2)) & PX_BITS_96,
                ) as u64;
            }
        }
        if any {
            let mut bytes = [0u8; 32];
            _mm256_storeu_si256(bytes.as_mut_ptr().cast(), maxv);
            max_c = bytes.iter().copied().max().expect("non-empty");
        }
    }
    comp_tail(lut, &mut data[blocks * 96..], &mut clipped_px, &mut max_c, &mut any);
    ClipStats {
        clipped_pixels: clipped_px,
        total_pixels,
        max_overshoot: if any { lut.overshoot[max_c as usize] } else { 0.0 },
    }
}

// ---------------------------------------------------------------------------
// HEBS remap application
// ---------------------------------------------------------------------------

/// Applies the HEBS remap to `frame` in place at `tier`, returning clip
/// stats byte-identical to the scalar reference.
pub fn hebs_apply(lut: &HebsLut, frame: &mut Frame, tier: KernelTier) -> ClipStats {
    match tier.clamped() {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Sse2 => hebs_apply_sse2(lut, frame),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => hebs_apply_avx2(lut, frame),
        _ => lut.apply_scalar(frame),
    }
}

/// HEBS clipping threshold: channels strictly above the effective max
/// clip, i.e. `c >= eff + 1`; `None` when nothing can clip (`eff` is 0
/// or 255).
#[cfg(target_arch = "x86_64")]
fn hebs_threshold(lut: &HebsLut) -> Option<u8> {
    if lut.effective_max == 0 || lut.effective_max == 255 {
        None
    } else {
        Some(lut.effective_max + 1)
    }
}

/// Scalar tail for the HEBS vector kernels (same max-clipped-channel
/// tracking as [`comp_tail`]).
#[cfg(target_arch = "x86_64")]
#[inline]
fn hebs_tail(lut: &HebsLut, tail: &mut [u8], clipped_px: &mut u64, max_c: &mut u8, any: &mut bool) {
    for px in tail.chunks_exact_mut(3) {
        let mut clipped = false;
        for ch in px.iter_mut() {
            if lut.is_clipped(*ch) {
                clipped = true;
                *any = true;
                if *ch > *max_c {
                    *max_c = *ch;
                }
            }
            *ch = lut.remap[*ch as usize];
        }
        if clipped {
            *clipped_px += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn hebs_stats_to_clipstats(lut: &HebsLut, clipped_px: u64, max_c: u8, any: bool, total: u64) -> ClipStats {
    ClipStats {
        clipped_pixels: clipped_px,
        total_pixels: total,
        // The scalar kernel's overshoot is `c − eff` of the largest
        // clipped channel (monotone in `c`), as exact `f32` arithmetic
        // on small integers.
        max_overshoot: if any {
            f32::from(max_c) - f32::from(lut.effective_max)
        } else {
            0.0
        },
    }
}

/// SSE2 tier: vectorised clip statistics, unrolled scalar table gather
/// (SSE2 has no byte gather; the stats masks are where the scalar loop
/// spends its branches).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn hebs_apply_sse2(lut: &HebsLut, frame: &mut Frame) -> ClipStats {
    use std::arch::x86_64::*;
    let total_pixels = frame.pixel_count() as u64;
    let threshold = hebs_threshold(lut);
    let data = frame.as_bytes_mut();
    let blocks = data.len() / 48;
    let mut clipped_px = 0u64;
    let mut max_c = 0u8;
    let mut any = false;
    // SAFETY: loads cover bounds-checked 16-byte subslices; SSE2 is
    // baseline on x86-64.
    unsafe {
        let thr = threshold.map(|t| _mm_set1_epi8(t as i8));
        let mut maxv = _mm_setzero_si128();
        for blk in 0..blocks {
            let base = blk * 48;
            if let Some(t) = thr {
                let mut mask48 = 0u64;
                for part in 0..3 {
                    let off = base + part * 16;
                    let v = _mm_loadu_si128(data[off..off + 16].as_ptr().cast());
                    let ge = _mm_cmpeq_epi8(_mm_max_epu8(v, t), v);
                    maxv = _mm_max_epu8(maxv, _mm_and_si128(v, ge));
                    let bits = _mm_movemask_epi8(ge) as u32 as u64;
                    mask48 |= bits << (16 * part);
                }
                if mask48 != 0 {
                    any = true;
                    clipped_px += count_clipped_pixels_48(mask48);
                }
            }
            // Table gather, unrolled over the block.
            for byte in &mut data[base..base + 48] {
                *byte = lut.remap[*byte as usize];
            }
        }
        if any {
            let mut bytes = [0u8; 16];
            _mm_storeu_si128(bytes.as_mut_ptr().cast(), maxv);
            max_c = bytes.iter().copied().max().expect("non-empty");
        }
    }
    hebs_tail(lut, &mut data[blocks * 48..], &mut clipped_px, &mut max_c, &mut any);
    hebs_stats_to_clipstats(lut, clipped_px, max_c, any, total_pixels)
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn hebs_apply_avx2(lut: &HebsLut, frame: &mut Frame) -> ClipStats {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return hebs_apply_sse2(lut, frame);
    }
    // SAFETY: AVX2 availability checked immediately above.
    unsafe { hebs_apply_avx2_inner(lut, frame) }
}

/// AVX2 tier: full-vector remap. Each 32-byte vector is remapped through
/// 16 nibble-row `vpshufb` lookups — byte `c` selects table row
/// `c >> 4` (a `cmpeq` mask against the row index) and entry `c & 15`
/// (the shuffle index), which is exactly `remap[c]`.
///
/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn hebs_apply_avx2_inner(lut: &HebsLut, frame: &mut Frame) -> ClipStats {
    use std::arch::x86_64::*;
    let total_pixels = frame.pixel_count() as u64;
    let threshold = hebs_threshold(lut);
    let data = frame.as_bytes_mut();
    let blocks = data.len() / 96;
    let mut clipped_px = 0u64;
    let mut max_c = 0u8;
    let mut any = false;
    // SAFETY: loads/stores cover bounds-checked 32-byte subslices; the
    // row loads cover 16-byte subslices of the 256-entry table.
    unsafe {
        // The 16 table rows, each broadcast to both 128-bit lanes.
        let mut rows = [_mm256_setzero_si256(); 16];
        for (r, row) in rows.iter_mut().enumerate() {
            *row = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                lut.remap[r * 16..r * 16 + 16].as_ptr().cast(),
            ));
        }
        let low_nib = _mm256_set1_epi8(0x0F);
        let thr = threshold.map(|t| _mm256_set1_epi8(t as i8));
        let mut maxv = _mm256_setzero_si256();
        for blk in 0..blocks {
            let base = blk * 96;
            let mut mask96 = 0u128;
            for part in 0..3 {
                let off = base + part * 32;
                let v = _mm256_loadu_si256(data[off..off + 32].as_ptr().cast());
                if let Some(t) = thr {
                    let ge = _mm256_cmpeq_epi8(_mm256_max_epu8(v, t), v);
                    maxv = _mm256_max_epu8(maxv, _mm256_and_si256(v, ge));
                    let bits = _mm256_movemask_epi8(ge) as u32 as u128;
                    mask96 |= bits << (32 * part);
                }
                let lo = _mm256_and_si256(v, low_nib);
                let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_nib);
                let mut out = _mm256_setzero_si256();
                for (r, row) in rows.iter().enumerate() {
                    let sel = _mm256_cmpeq_epi8(hi, _mm256_set1_epi8(r as i8));
                    out = _mm256_or_si256(out, _mm256_and_si256(_mm256_shuffle_epi8(*row, lo), sel));
                }
                _mm256_storeu_si256(data[off..off + 32].as_mut_ptr().cast(), out);
            }
            if mask96 != 0 {
                any = true;
                const PX_BITS_96: u128 = 0x0024_9249_2492_4924_9249_2492_4924_9249;
                clipped_px += u128::count_ones(
                    (mask96 | (mask96 >> 1) | (mask96 >> 2)) & PX_BITS_96,
                ) as u64;
            }
        }
        if any {
            let mut bytes = [0u8; 32];
            _mm256_storeu_si256(bytes.as_mut_ptr().cast(), maxv);
            max_c = bytes.iter().copied().max().expect("non-empty");
        }
    }
    hebs_tail(lut, &mut data[blocks * 96..], &mut clipped_px, &mut max_c, &mut any);
    hebs_stats_to_clipstats(lut, clipped_px, max_c, any, total_pixels)
}

// ---------------------------------------------------------------------------
// BT.601 colour conversion
// ---------------------------------------------------------------------------

/// Pixels per colour-kernel chunk. A fixed width lets the compiler unroll
/// the lane loops and vectorise them on the SSE2 baseline.
const COLOUR_LANES: usize = 16;

/// Interleaved RGB bytes of one colour-kernel chunk.
type RgbLanes = [u8; 3 * COLOUR_LANES];

/// Converts `frame` to planar 4:2:0 YUV in `out` at `tier` — the kernel
/// behind [`Yuv420Frame::from_rgb_into`]. Every tier is byte-identical to
/// the scalar reference (see the module docs).
///
/// # Errors
///
/// Returns [`ImageError::OddDimensions`] when either dimension of `frame`
/// is odd and [`ImageError::BufferSizeMismatch`] when a plane of `out`
/// does not match `frame`'s geometry.
pub fn rgb_to_yuv420(frame: &Frame, out: &mut Yuv420Frame, tier: KernelTier) -> Result<(), ImageError> {
    out.adopt_geometry(frame.width(), frame.height())?;
    let w = frame.width() as usize;
    let (y, u, v) = out.planes_mut();
    match tier.clamped() {
        KernelTier::Scalar => rgb_to_yuv420_scalar(frame, y, u, v),
        _ => rgb_to_yuv420_lanes(frame.as_bytes(), w, y, u, v),
    }
    Ok(())
}

/// Converts `yuv` to interleaved RGB in `out` at `tier`, replicating each
/// chroma sample over its 2×2 block — the kernel behind
/// [`Yuv420Frame::to_rgb_into`]. Every tier is byte-identical to the
/// scalar reference.
///
/// # Errors
///
/// Returns [`ImageError::BufferSizeMismatch`] when `out`'s buffer does
/// not match `yuv`'s geometry.
pub fn yuv420_to_rgb(yuv: &Yuv420Frame, out: &mut Frame, tier: KernelTier) -> Result<(), ImageError> {
    out.adopt_geometry(yuv.width(), yuv.height())?;
    let w = yuv.width() as usize;
    let (y, u, v) = (yuv.y_plane(), yuv.u_plane(), yuv.v_plane());
    match tier.clamped() {
        KernelTier::Scalar => yuv420_to_rgb_scalar(y, u, v, w, out.as_bytes_mut()),
        _ => yuv420_to_rgb_lanes(y, u, v, w, out.as_bytes_mut()),
    }
    Ok(())
}

/// The scalar reference RGB→4:2:0 kernel: [`Rgb8::to_yuv`](crate::Rgb8::to_yuv)
/// per pixel for luma, and again per pixel of each 2×2 block for the
/// rounded box-averaged chroma.
fn rgb_to_yuv420_scalar(frame: &Frame, yp: &mut [u8], up: &mut [u8], vp: &mut [u8]) {
    let (w, h) = (frame.width(), frame.height());
    for y in 0..h {
        for x in 0..w {
            yp[y as usize * w as usize + x as usize] = frame.pixel(x, y).to_yuv().y;
        }
    }
    let cw = (w / 2) as usize;
    for cy in 0..(h / 2) {
        for cx in 0..(w / 2) {
            let mut su = 0u32;
            let mut sv = 0u32;
            for dy in 0..2 {
                for dx in 0..2 {
                    let p = frame.pixel(cx * 2 + dx, cy * 2 + dy).to_yuv();
                    su += u32::from(p.u);
                    sv += u32::from(p.v);
                }
            }
            let o = cy as usize * cw + cx as usize;
            up[o] = ((su + 2) / 4) as u8;
            vp[o] = ((sv + 2) / 4) as u8;
        }
    }
}

/// The scalar reference 4:2:0→RGB kernel: [`Yuv8::to_rgb`](crate::Yuv8::to_rgb)
/// per pixel.
fn yuv420_to_rgb_scalar(yp: &[u8], up: &[u8], vp: &[u8], w: usize, out: &mut [u8]) {
    let cw = w / 2;
    for (y, (row, yrow)) in out.chunks_exact_mut(3 * w).zip(yp.chunks_exact(w)).enumerate() {
        let crow = (y / 2) * cw;
        for (x, px) in row.chunks_exact_mut(3).enumerate() {
            let co = crow + x / 2;
            let p = crate::color::Yuv8::new(yrow[x], up[co], vp[co]).to_rgb();
            px[0] = p.r;
            px[1] = p.g;
            px[2] = p.b;
        }
    }
}

/// `clamp_u8` of the scalar reference — round half away from zero, then
/// clamp to `0..=255` — in a form the compiler vectorises (`f32::round`
/// is an out-of-line call on the SSE2 baseline).
#[inline(always)]
#[allow(unsafe_code)]
fn round_clamp(v: f32) -> u8 {
    // `max`/`min` return the non-NaN operand, so `v` is finite and in
    // [-1, 256]. Clamping first changes no result: every value below 0
    // rounds to at most 0 and every value at or above 255.5 to 255.
    #[allow(clippy::manual_clamp)] // `f32::clamp` would keep a NaN
    let v = v.max(-1.0).min(256.0);
    // SAFETY: `v` is finite and within [-1, 256], so its truncation is
    // representable in `i32`, which is what `to_int_unchecked` requires.
    let t = unsafe { v.to_int_unchecked::<i32>() };
    // `t` is `v` truncated toward zero and `v − t` is exact, so this is
    // round-half-away for v ≥ 0; for v < 0 it gives t ≤ 0, like `round`.
    (t + i32::from(v - t as f32 >= 0.5)).clamp(0, 255) as u8
}

/// Rounded Y, U and V of one chunk of interleaved RGB pixels, each equal
/// to [`Rgb8::to_yuv`](crate::Rgb8::to_yuv) of its pixel. Splitting the
/// channels into planes first lets the compiler vectorise the
/// deinterleave separately from the arithmetic, which measured faster
/// than converting straight from the interleaved bytes.
#[inline(always)]
fn yuv_lanes(px: &RgbLanes) -> [[u8; COLOUR_LANES]; 3] {
    let mut planes = [[0u8; COLOUR_LANES]; 3];
    for (i, p) in px.chunks_exact(3).enumerate() {
        planes[0][i] = p[0];
        planes[1][i] = p[1];
        planes[2][i] = p[2];
    }
    let mut out = [[0u8; COLOUR_LANES]; 3];
    for i in 0..COLOUR_LANES {
        let [y, u, v] = crate::color::yuv_f32(f32::from(planes[0][i]), f32::from(planes[1][i]), f32::from(planes[2][i]));
        out[0][i] = round_clamp(y);
        out[1][i] = round_clamp(u);
        out[2][i] = round_clamp(v);
    }
    out
}

/// Interleaved RGB of one chunk of luma samples and the half as many
/// chroma samples that cover them, each pixel equal to
/// [`Yuv8::to_rgb`](crate::Yuv8::to_rgb).
#[inline(always)]
fn rgb_lanes(y: &[u8; COLOUR_LANES], u: &[u8; COLOUR_LANES / 2], v: &[u8; COLOUR_LANES / 2]) -> RgbLanes {
    let mut out = [0u8; 3 * COLOUR_LANES];
    for (i, px) in out.chunks_exact_mut(3).enumerate() {
        let [r, g, b] =
            crate::color::rgb_f32(f32::from(y[i]), f32::from(u[i / 2]), f32::from(v[i / 2]));
        px[0] = round_clamp(r);
        px[1] = round_clamp(g);
        px[2] = round_clamp(b);
    }
    out
}

/// Y of the two rows of one chunk of a row pair.
type Yuv420Lanes = [[u8; COLOUR_LANES]; 2];
/// U or V of one chunk of a row pair.
type ChromaLanes = [u8; COLOUR_LANES / 2];

/// RGB→4:2:0 of one chunk of a row pair: each pixel's Y/U/V computed
/// once, and the rounded U/V of each 2×2 block averaged as
/// `(sum + 2) / 4`, like the scalar reference.
#[inline(always)]
fn yuv420_lanes(top: &RgbLanes, bottom: &RgbLanes) -> (Yuv420Lanes, ChromaLanes, ChromaLanes) {
    let [ty, tu, tv] = yuv_lanes(top);
    let [by, bu, bv] = yuv_lanes(bottom);
    let box_avg = |t: &[u8; COLOUR_LANES], b: &[u8; COLOUR_LANES]| {
        let mut out = [0u8; COLOUR_LANES / 2];
        for (i, o) in out.iter_mut().enumerate() {
            let s = u16::from(t[2 * i]) + u16::from(t[2 * i + 1]) + u16::from(b[2 * i]) + u16::from(b[2 * i + 1]);
            *o = ((s + 2) / 4) as u8;
        }
        out
    };
    ([ty, by], box_avg(&tu, &bu), box_avg(&tv, &bv))
}

/// Copies a ragged tail into a zero-padded full chunk.
fn padded<const N: usize>(src: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out[..src.len()].copy_from_slice(src);
    out
}

/// The vector RGB→4:2:0 kernel: one pass over each row pair in chunks of
/// `COLOUR_LANES` pixels. A row's ragged tail runs the same lane code on
/// a zero-padded copy.
fn rgb_to_yuv420_lanes(rgb: &[u8], w: usize, yp: &mut [u8], up: &mut [u8], vp: &mut [u8]) {
    let cw = w / 2;
    let full = w - w % COLOUR_LANES;
    let rows = rgb
        .chunks_exact(6 * w)
        .zip(yp.chunks_exact_mut(2 * w))
        .zip(up.chunks_exact_mut(cw).zip(vp.chunks_exact_mut(cw)));
    for ((rgb_pair, y_pair), (u_row, v_row)) in rows {
        let (top, bottom) = rgb_pair.split_at(3 * w);
        let (y_top, y_bottom) = y_pair.split_at_mut(w);
        let mut store = |x: usize, n: usize, ([ty, by], u, v): (Yuv420Lanes, ChromaLanes, ChromaLanes)| {
            y_top[x..x + n].copy_from_slice(&ty[..n]);
            y_bottom[x..x + n].copy_from_slice(&by[..n]);
            u_row[x / 2..(x + n) / 2].copy_from_slice(&u[..n / 2]);
            v_row[x / 2..(x + n) / 2].copy_from_slice(&v[..n / 2]);
        };
        for (x, (t, b)) in top[..3 * full]
            .chunks_exact(3 * COLOUR_LANES)
            .zip(bottom[..3 * full].chunks_exact(3 * COLOUR_LANES))
            .enumerate()
        {
            let lanes = |c: &[u8]| -> RgbLanes { c.try_into().expect("chunks_exact yields full chunks") };
            store(x * COLOUR_LANES, COLOUR_LANES, yuv420_lanes(&lanes(t), &lanes(b)));
        }
        if full < w {
            let out = yuv420_lanes(&padded(&top[3 * full..]), &padded(&bottom[3 * full..]));
            store(full, w - full, out);
        }
    }
}

/// The vector 4:2:0→RGB kernel: each row in chunks of `COLOUR_LANES`
/// pixels, chroma read from the row pair's chroma row. A row's ragged
/// tail runs the same lane code on zero-padded copies.
fn yuv420_to_rgb_lanes(yp: &[u8], up: &[u8], vp: &[u8], w: usize, out: &mut [u8]) {
    let cw = w / 2;
    let full = w - w % COLOUR_LANES;
    for (row, (out_row, y_row)) in out.chunks_exact_mut(3 * w).zip(yp.chunks_exact(w)).enumerate() {
        let c = (row / 2) * cw;
        let (u_row, v_row) = (&up[c..c + cw], &vp[c..c + cw]);
        let chunks = out_row[..3 * full]
            .chunks_exact_mut(3 * COLOUR_LANES)
            .zip(y_row[..full].chunks_exact(COLOUR_LANES))
            .zip(u_row[..full / 2].chunks_exact(COLOUR_LANES / 2).zip(v_row[..full / 2].chunks_exact(COLOUR_LANES / 2)));
        for ((px, y), (u, v)) in chunks {
            let full_chunk = "chunks_exact yields full chunks";
            px.copy_from_slice(&rgb_lanes(
                y.try_into().expect(full_chunk),
                u.try_into().expect(full_chunk),
                v.try_into().expect(full_chunk),
            ));
        }
        if full < w {
            let px = rgb_lanes(&padded(&y_row[full..]), &padded(&u_row[full / 2..]), &padded(&v_row[full / 2..]));
            out_row[3 * full..].copy_from_slice(&px[..3 * (w - full)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annolight_support::rng::SmallRng;

    fn random_frame(rng: &mut SmallRng, w: u32, h: u32) -> Frame {
        Frame::from_fn(w, h, |_, _| {
            [
                (rng.next_u64() % 256) as u8,
                (rng.next_u64() % 256) as u8,
                (rng.next_u64() % 256) as u8,
            ]
        })
    }

    /// Geometries that exercise every vector-width boundary: below one
    /// SSE2 block, exactly one block, ragged tails on both sides of the
    /// AVX2 width, and a larger frame.
    const GEOMETRIES: [(u32, u32); 8] =
        [(1, 1), (3, 1), (4, 4), (5, 3), (16, 1), (17, 3), (31, 2), (64, 33)];

    #[test]
    fn tier_parsing_and_clamping() {
        assert_eq!(KernelTier::parse("scalar"), Some(KernelTier::Scalar));
        assert_eq!(KernelTier::parse("SSE2"), Some(KernelTier::Sse2));
        assert_eq!(KernelTier::parse("Avx2"), Some(KernelTier::Avx2));
        assert_eq!(KernelTier::parse("neon"), None);
        assert!(KernelTier::Scalar.is_available());
        // The clamped tier is always available.
        for t in KernelTier::ALL {
            assert!(t.clamped().is_available(), "{t:?}");
        }
        assert!(kernel_tier().is_available());
    }

    fn random_yuv(rng: &mut SmallRng, w: u32, h: u32) -> Yuv420Frame {
        let mut f = Yuv420Frame::new(w, h).expect("even dimensions");
        let (y, u, v) = f.planes_mut();
        for b in y.iter_mut().chain(u.iter_mut()).chain(v.iter_mut()) {
            *b = (rng.next_u64() % 256) as u8;
        }
        f
    }

    /// The tiers the exhaustive tests hold against the scalar oracle
    /// (both clamp to it on a host without them).
    const VECTOR_TIERS: [KernelTier; 2] = [KernelTier::Sse2, KernelTier::Avx2];

    /// Every RGB input, each replicated over a 2×2 block so that the box
    /// average returns its own U/V: every tier's Y/U/V must equal
    /// `Rgb8::to_yuv` for all 2²⁴ colours.
    #[test]
    fn rgb_to_yuv_equals_scalar_oracle_exhaustively() {
        const COLOURS: u32 = 4096; // colours per frame: 2²⁴ / 4096 frames
        let mut out = Yuv420Frame::new(2 * COLOURS, 2).expect("even dimensions");
        for block in 0..(1u32 << 24) / COLOURS {
            let colour = |x: u32| {
                let c = block * COLOURS + x / 2;
                [(c >> 16) as u8, (c >> 8) as u8, c as u8]
            };
            let frame = Frame::from_fn(2 * COLOURS, 2, |x, _| colour(x));
            for tier in VECTOR_TIERS {
                rgb_to_yuv420(&frame, &mut out, tier).expect("geometry matches");
                for x in 0..COLOURS {
                    let [r, g, b] = colour(2 * x);
                    let want = crate::Rgb8::new(r, g, b).to_yuv();
                    let i = x as usize;
                    let got = [out.y_plane()[2 * i], out.u_plane()[i], out.v_plane()[i]];
                    assert_eq!(got, [want.y, want.u, want.v], "rgb {r},{g},{b} tier={tier:?}");
                }
            }
        }
    }

    /// Every YUV input: each frame holds all 256 U values for one V, and
    /// the four luma samples under each chroma sample walk Y, so every
    /// tier's RGB must equal `Yuv8::to_rgb` for all 2²⁴ triples.
    #[test]
    fn yuv_to_rgb_equals_scalar_oracle_exhaustively() {
        let mut frame = Yuv420Frame::new(512, 2).expect("even dimensions");
        let mut out = Frame::new(512, 2);
        for v in 0..=255u8 {
            for y_group in 0..64u32 {
                let luma = |x: usize, row: usize| (y_group * 4 + (row * 2 + x % 2) as u32) as u8;
                {
                    let (yp, up, vp) = frame.planes_mut();
                    for (i, s) in yp.iter_mut().enumerate() {
                        *s = luma(i % 512, i / 512);
                    }
                    for (u, s) in up.iter_mut().enumerate() {
                        *s = u as u8;
                    }
                    vp.fill(v);
                }
                for tier in VECTOR_TIERS {
                    yuv420_to_rgb(&frame, &mut out, tier).expect("geometry matches");
                    for (i, px) in out.as_bytes().chunks_exact(3).enumerate() {
                        let (x, row) = (i % 512, i / 512);
                        let want = crate::Yuv8::new(luma(x, row), (x / 2) as u8, v).to_rgb();
                        assert_eq!(px, want.to_array(), "yuv {:?} tier={tier:?}", (luma(x, row), x / 2, v));
                    }
                }
            }
        }
    }

    /// Every even width 2..=66 (every chunk tail, on both sides of one
    /// and two chunks) and even height 2..=8, random content, both
    /// directions, every tier against the scalar reference.
    #[test]
    fn colour_kernels_match_scalar_on_ragged_geometries() {
        let mut rng = SmallRng::seed_from_u64(0x51D3);
        for w in (2..=66u32).step_by(2) {
            for h in (2..=8u32).step_by(2) {
                let rgb = random_frame(&mut rng, w, h);
                let yuv = random_yuv(&mut rng, w, h);
                let mut want_yuv = Yuv420Frame::new(w, h).expect("even dimensions");
                rgb_to_yuv420(&rgb, &mut want_yuv, KernelTier::Scalar).expect("geometry matches");
                let mut want_rgb = Frame::new(w, h);
                yuv420_to_rgb(&yuv, &mut want_rgb, KernelTier::Scalar).expect("geometry matches");
                for tier in KernelTier::ALL {
                    let mut got_yuv = Yuv420Frame::new(w, h).expect("even dimensions");
                    rgb_to_yuv420(&rgb, &mut got_yuv, tier).expect("geometry matches");
                    assert_eq!(got_yuv, want_yuv, "rgb->yuv {w}x{h} tier={tier:?}");
                    let mut got_rgb = Frame::new(w, h);
                    yuv420_to_rgb(&yuv, &mut got_rgb, tier).expect("geometry matches");
                    assert_eq!(got_rgb, want_rgb, "yuv->rgb {w}x{h} tier={tier:?}");
                }
            }
        }
    }

    #[test]
    fn luma_histogram_matches_scalar_on_all_tiers() {
        let mut rng = SmallRng::seed_from_u64(0x51D0);
        for (w, h) in GEOMETRIES {
            let f = random_frame(&mut rng, w, h);
            let reference = luma_histogram(&f, KernelTier::Scalar);
            for tier in KernelTier::ALL {
                let got = luma_histogram(&f, tier);
                assert_eq!(reference, got, "{w}x{h} tier={tier:?}");
            }
        }
    }

    #[test]
    fn compensation_matches_scalar_on_all_tiers() {
        let mut rng = SmallRng::seed_from_u64(0x51D1);
        for (w, h) in GEOMETRIES {
            for k in [0.0f32, 0.5, 1.0, 1.2, 1.7, 2.5, 6.375, 127.9, 200.0] {
                let lut = CompensationLut::new(k);
                let orig = random_frame(&mut rng, w, h);
                let mut want = orig.clone();
                let want_stats = lut.apply_scalar(&mut want);
                for tier in KernelTier::ALL {
                    let mut got = orig.clone();
                    let got_stats = compensation_apply(&lut, &mut got, tier);
                    assert_eq!(want, got, "{w}x{h} k={k} tier={tier:?}");
                    assert_eq!(want_stats, got_stats, "{w}x{h} k={k} tier={tier:?}");
                }
            }
        }
    }

    #[test]
    fn hebs_matches_scalar_on_all_tiers() {
        let mut rng = SmallRng::seed_from_u64(0x51D2);
        for (w, h) in GEOMETRIES {
            let sample = random_frame(&mut rng, 16, 16);
            let hist = sample.luma_histogram();
            for eff in [0u8, 1, 40, 128, 200, 254, 255] {
                let lut = HebsLut::from_histogram(&hist, eff);
                let orig = random_frame(&mut rng, w, h);
                let mut want = orig.clone();
                let want_stats = lut.apply_scalar(&mut want);
                for tier in KernelTier::ALL {
                    let mut got = orig.clone();
                    let got_stats = hebs_apply(&lut, &mut got, tier);
                    assert_eq!(want, got, "{w}x{h} eff={eff} tier={tier:?}");
                    assert_eq!(want_stats, got_stats, "{w}x{h} eff={eff} tier={tier:?}");
                }
            }
        }
    }
}
