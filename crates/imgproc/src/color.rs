//! Pixel color types and luminance conversion.
//!
//! The paper computes pixel luminance from RGB through
//! `Y = r·R + g·G + b·B` with "known constants" `r`, `g`, `b` (§4.1).
//! We use the ITU-R BT.601 coefficients (`0.299`, `0.587`, `0.114`), the
//! standard choice for the MPEG-1-era material the paper evaluates.


/// BT.601 red luminance weight.
pub const LUMA_R: f32 = 0.299;
/// BT.601 green luminance weight.
pub const LUMA_G: f32 = 0.587;
/// BT.601 blue luminance weight.
pub const LUMA_B: f32 = 0.114;

/// An 8-bit RGB pixel.
///
/// # Example
///
/// ```
/// use annolight_imgproc::Rgb8;
/// let white = Rgb8::new(255, 255, 255);
/// assert_eq!(white.luma(), 255);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rgb8 {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

annolight_support::impl_json!(struct Rgb8 { r, g, b });

impl Rgb8 {
    /// Creates a pixel from its three channels.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Self { r, g, b }
    }

    /// Creates a gray pixel with all channels equal to `v`.
    pub const fn gray(v: u8) -> Self {
        Self { r: v, g: v, b: v }
    }

    /// BT.601 luminance of the pixel, rounded to the nearest 8-bit value.
    pub fn luma(self) -> u8 {
        luma_u8(self.r, self.g, self.b)
    }

    /// Luminance normalised to `[0, 1]`.
    pub fn luma_norm(self) -> f32 {
        f32::from(self.luma()) / 255.0
    }

    /// Converts to BT.601 YUV (full-range, i.e. Y ∈ [0, 255], U/V offset
    /// by 128).
    pub fn to_yuv(self) -> Yuv8 {
        let [y, u, v] = yuv_f32(f32::from(self.r), f32::from(self.g), f32::from(self.b));
        Yuv8 {
            y: clamp_u8(y),
            u: clamp_u8(u),
            v: clamp_u8(v),
        }
    }

    /// Per-channel saturating scale by `k ≥ 0`; this is the paper's
    /// contrast-enhancement operator applied to one pixel.
    pub fn scale(self, k: f32) -> Self {
        Self {
            r: scale_channel(self.r, k),
            g: scale_channel(self.g, k),
            b: scale_channel(self.b, k),
        }
    }

    /// Per-channel saturating add of `delta`; the paper's brightness
    /// compensation operator applied to one pixel.
    pub fn offset(self, delta: u8) -> Self {
        Self {
            r: self.r.saturating_add(delta),
            g: self.g.saturating_add(delta),
            b: self.b.saturating_add(delta),
        }
    }

    /// Returns the channel array `[r, g, b]`.
    pub const fn to_array(self) -> [u8; 3] {
        [self.r, self.g, self.b]
    }
}

impl From<[u8; 3]> for Rgb8 {
    fn from(a: [u8; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }
}

impl From<Rgb8> for [u8; 3] {
    fn from(p: Rgb8) -> Self {
        p.to_array()
    }
}

/// A full-range BT.601 YUV pixel (Y luminance plus offset-binary chroma).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Yuv8 {
    /// Luminance.
    pub y: u8,
    /// Blue-difference chroma, offset by 128.
    pub u: u8,
    /// Red-difference chroma, offset by 128.
    pub v: u8,
}

annolight_support::impl_json!(struct Yuv8 { y, u, v });

impl Yuv8 {
    /// Creates a YUV pixel from its three components.
    pub const fn new(y: u8, u: u8, v: u8) -> Self {
        Self { y, u, v }
    }

    /// Converts back to RGB (inverse of [`Rgb8::to_yuv`], within
    /// quantisation error).
    pub fn to_rgb(self) -> Rgb8 {
        let [r, g, b] = rgb_f32(f32::from(self.y), f32::from(self.u), f32::from(self.v));
        Rgb8 {
            r: clamp_u8(r),
            g: clamp_u8(g),
            b: clamp_u8(b),
        }
    }
}

/// BT.601 full-range `[Y, U, V]` of an RGB triple, before rounding.
///
/// [`Rgb8::to_yuv`] and the vector kernels in [`crate::simd`] both
/// evaluate exactly these binary32 operations in this order (Rust never
/// fuses them into FMAs), so their unrounded values agree bit for bit.
#[inline(always)]
pub(crate) fn yuv_f32(r: f32, g: f32, b: f32) -> [f32; 3] {
    let y = LUMA_R * r + LUMA_G * g + LUMA_B * b;
    let u = 0.492 * (b - y) + 128.0;
    let v = 0.877 * (r - y) + 128.0;
    [y, u, v]
}

/// RGB `[R, G, B]` of a full-range BT.601 YUV triple, before rounding —
/// the inverse formulas shared by [`Yuv8::to_rgb`] and the vector
/// kernels, like [`yuv_f32`].
#[inline(always)]
pub(crate) fn rgb_f32(y: f32, u: f32, v: f32) -> [f32; 3] {
    let u = u - 128.0;
    let v = v - 128.0;
    let r = y + v / 0.877;
    let b = y + u / 0.492;
    let g = (y - LUMA_R * r - LUMA_B * b) / LUMA_G;
    [r, g, b]
}

// Fixed-point luminance weights, scaled by 2^16 and rounded. The SIMD
// luma kernels (`crate::simd`) use the same weights, so they are
// crate-visible.
pub(crate) const WR: u32 = (LUMA_R * 65536.0) as u32; // 19595
pub(crate) const WG: u32 = (LUMA_G * 65536.0) as u32; // 38469
pub(crate) const WB: u32 = 65536 - WR - WG; // ensures white maps to exactly 255

/// BT.601 luminance of an `(r, g, b)` triple, rounded to `u8`.
///
/// ```
/// use annolight_imgproc::luma_u8;
/// assert_eq!(luma_u8(0, 0, 0), 0);
/// assert_eq!(luma_u8(255, 255, 255), 255);
/// assert!(luma_u8(0, 255, 0) > luma_u8(255, 0, 0));
/// ```
pub fn luma_u8(r: u8, g: u8, b: u8) -> u8 {
    let y = WR * u32::from(r) + WG * u32::from(g) + WB * u32::from(b);
    ((y + 32768) >> 16) as u8
}

/// `w·c` for every 8-bit channel value, evaluated at compile time.
const fn weight_table(w: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut c = 0usize;
    while c < 256 {
        t[c] = w * c as u32;
        c += 1;
    }
    t
}

/// Per-channel products `WR·c`, `WG·c`, `WB·c` — the histogram kernel's
/// look-up tables, built at compile time.
static LUMA_TABLE_R: [u32; 256] = weight_table(WR);
static LUMA_TABLE_G: [u32; 256] = weight_table(WG);
static LUMA_TABLE_B: [u32; 256] = weight_table(WB);

/// Table-driven form of [`luma_u8`]: the three per-channel fixed-point
/// products come from compile-time 256-entry tables instead of
/// multiplies. Exactly equal to [`luma_u8`] for every input (same
/// integer arithmetic — the histogram property tests assert this
/// exhaustively), and measurably faster in the per-frame histogram
/// loop, which is the profiling stage's inner kernel.
pub fn luma_u8_lut(r: u8, g: u8, b: u8) -> u8 {
    let y = LUMA_TABLE_R[r as usize] + LUMA_TABLE_G[g as usize] + LUMA_TABLE_B[b as usize];
    ((y + 32768) >> 16) as u8
}

fn clamp_u8(v: f32) -> u8 {
    v.round().clamp(0.0, 255.0) as u8
}

fn scale_channel(c: u8, k: f32) -> u8 {
    clamp_u8(f32::from(c) * k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luma_extremes() {
        assert_eq!(luma_u8(0, 0, 0), 0);
        assert_eq!(luma_u8(255, 255, 255), 255);
        assert_eq!(luma_u8_lut(0, 0, 0), 0);
        assert_eq!(luma_u8_lut(255, 255, 255), 255);
    }

    #[test]
    fn luma_lut_equals_scalar_exhaustively() {
        // 256^3 inputs: the table kernel must agree with the multiply
        // kernel on every one — they are the same integer arithmetic.
        for r in 0..=255u8 {
            for g in 0..=255u8 {
                for b in 0..=255u8 {
                    debug_assert_eq!(luma_u8_lut(r, g, b), luma_u8(r, g, b));
                    // debug_assert keeps the release-mode loop cheap; in
                    // test builds (debug assertions on) this is exhaustive.
                }
            }
            // Always-on spot checks so the test bites even with
            // debug-assertions off.
            assert_eq!(luma_u8_lut(r, r ^ 0x5a, r.wrapping_mul(3)), luma_u8(r, r ^ 0x5a, r.wrapping_mul(3)));
        }
    }

    #[test]
    fn luma_gray_is_identity() {
        for v in 0..=255u8 {
            assert_eq!(luma_u8(v, v, v), v, "gray {v}");
        }
    }

    #[test]
    fn luma_channel_ordering() {
        // Green dominates, then red, then blue (BT.601 weights).
        let g = luma_u8(0, 255, 0);
        let r = luma_u8(255, 0, 0);
        let b = luma_u8(0, 0, 255);
        assert!(g > r && r > b);
    }

    #[test]
    fn luma_monotone_in_each_channel() {
        for v in 0..255u8 {
            assert!(luma_u8(v + 1, 10, 10) >= luma_u8(v, 10, 10));
            assert!(luma_u8(10, v + 1, 10) >= luma_u8(10, v, 10));
            assert!(luma_u8(10, 10, v + 1) >= luma_u8(10, 10, v));
        }
    }

    #[test]
    fn yuv_roundtrip_close() {
        for &(r, g, b) in &[(0u8, 0u8, 0u8), (255, 255, 255), (200, 30, 90), (12, 250, 3)] {
            let p = Rgb8::new(r, g, b);
            let q = p.to_yuv().to_rgb();
            assert!((i16::from(p.r) - i16::from(q.r)).abs() <= 2, "{p:?} vs {q:?}");
            assert!((i16::from(p.g) - i16::from(q.g)).abs() <= 2, "{p:?} vs {q:?}");
            assert!((i16::from(p.b) - i16::from(q.b)).abs() <= 2, "{p:?} vs {q:?}");
        }
    }

    #[test]
    fn scale_saturates() {
        let p = Rgb8::new(200, 100, 10);
        let s = p.scale(2.0);
        assert_eq!(s, Rgb8::new(255, 200, 20));
    }

    #[test]
    fn scale_by_one_is_identity() {
        let p = Rgb8::new(17, 201, 99);
        assert_eq!(p.scale(1.0), p);
    }

    #[test]
    fn offset_saturates() {
        let p = Rgb8::new(250, 0, 128);
        assert_eq!(p.offset(10), Rgb8::new(255, 10, 138));
    }

    #[test]
    fn gray_constructor() {
        assert_eq!(Rgb8::gray(77), Rgb8::new(77, 77, 77));
    }

    #[test]
    fn array_conversions() {
        let p = Rgb8::from([1, 2, 3]);
        assert_eq!(<[u8; 3]>::from(p), [1, 2, 3]);
    }
}
