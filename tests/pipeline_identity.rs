//! Differential byte-identity suite for the SIMD + batched frame hot
//! path (issue 10's conformance tier).
//!
//! Four guarantees, each checked against its serial/scalar oracle:
//!
//! * **kernel tiers** — `luma_histogram`, `CompensationLut` application
//!   and the HEBS remap produce byte-identical frames, stats and
//!   histograms at every [`KernelTier`] (unavailable tiers clamp to the
//!   best available one, so the suite is meaningful on any host);
//! * **batched scheduling** — `Proxy::transcode_batch` returns streams
//!   byte-identical to per-clip `Proxy::transcode` at every worker
//!   count, and the batched core profiling/compensation dispatchers
//!   match their per-job serial references;
//! * **proxy transcode** — a whole `Proxy::transcode`, whose colour
//!   conversions run at the process-wide tier, writes the same bytes
//!   under every `ANNOLIGHT_KERNEL_TIER`;
//! * **ragged geometries** — a seeded `check!` property extends the
//!   fixed matrix to random frame sizes (including widths that do not
//!   fill a single SIMD lane group), random compensation factors
//!   (including the `k ≥ 128` scalar-fallback region) and random HEBS
//!   effective maxima.
//!
//! When `ANNOLIGHT_PIPELINE_LOG` names a file, each configuration
//! appends a digest line to it; CI runs the suite twice with a fixed
//! seed and `cmp`s the two logs to prove the tier is deterministic end
//! to end (see `scripts/ci.sh`).

use annolight::core::digest::Digester;
use annolight::core::parallel::ParallelConfig;
use annolight::core::track::AnnotationMode;
use annolight::core::QualityLevel;
use annolight::display::DeviceProfile;
use annolight::imgproc::simd;
use annolight::imgproc::{ClipStats, CompensationLut, Frame, HebsLut, KernelTier};
use annolight::stream::{Proxy, TranscodeRequest};
use annolight::video::ClipLibrary;
use annolight_codec::{Encoder, EncoderConfig};
use annolight_support::json::to_string;

/// Worker counts for the batched-scheduling matrix: 0 is the serial
/// reference.
const WORKER_COUNTS: [usize; 5] = [0, 1, 2, 4, 7];

/// Every tier under test; tiers the host lacks clamp to the best
/// available one inside the kernels, which must still be
/// byte-identical.
const TIERS: [KernelTier; 3] = [KernelTier::Scalar, KernelTier::Sse2, KernelTier::Avx2];

/// Appends one digest line to `$ANNOLIGHT_PIPELINE_LOG`, if set. CI
/// diffs two runs' logs to pin end-to-end determinism.
fn log_digest(what: &str, digest: u64) {
    if let Ok(path) = std::env::var("ANNOLIGHT_PIPELINE_LOG") {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("pipeline log path is writable");
        writeln!(f, "{what} {digest:#018x}").expect("pipeline log write");
    }
}

/// Digest over a compensated frame plus its clip stats.
fn digest_frame_stats(frame: &Frame, stats: &ClipStats) -> u64 {
    let mut d = Digester::new();
    d.write(frame.as_bytes())
        .write_u64(stats.clipped_pixels)
        .write_u64(stats.total_pixels)
        .write_f64(f64::from(stats.max_overshoot));
    d.finish()
}

/// A deterministic synthetic frame with gradients crossing every lane
/// boundary.
fn test_frame(w: u32, h: u32, seed: u32) -> Frame {
    Frame::from_fn(w, h, |x, y| {
        let v = x.wrapping_mul(7).wrapping_add(y.wrapping_mul(13)).wrapping_add(seed);
        [(v % 251) as u8, (v.wrapping_mul(3) % 241) as u8, (v.wrapping_mul(5) % 256) as u8]
    })
}

/// Fixed matrix: histogram + compensation + HEBS at every tier on real
/// paper-clip frames, byte-compared against the scalar oracle.
#[test]
fn kernel_tiers_match_scalar_oracle_on_paper_clips() {
    let clip = ClipLibrary::paper_clip("themovie")
        .expect("library names are all known")
        .preview(1.0);
    let frames: Vec<Frame> = clip.frames().collect();
    for k in [0.9_f32, 1.31, 2.4] {
        let lut = CompensationLut::new(k);
        for (i, frame) in frames.iter().enumerate() {
            let ref_hist = simd::luma_histogram(frame, KernelTier::Scalar);
            let mut ref_frame = frame.clone();
            let ref_stats = lut.apply_scalar(&mut ref_frame);
            let hebs = HebsLut::from_histogram(&ref_hist, ref_hist.max_nonzero().unwrap_or(0));
            let mut ref_hebs_frame = frame.clone();
            let ref_hebs_stats = hebs.apply_scalar(&mut ref_hebs_frame);
            for tier in TIERS {
                let hist = simd::luma_histogram(frame, tier);
                assert_eq!(hist, ref_hist, "histogram tier={tier:?} frame={i} k={k}");
                let mut got = frame.clone();
                let stats = simd::compensation_apply(&lut, &mut got, tier);
                assert_eq!(got.as_bytes(), ref_frame.as_bytes(), "lut tier={tier:?} frame={i} k={k}");
                assert_eq!(stats, ref_stats, "lut stats tier={tier:?} frame={i} k={k}");
                let mut got_hebs = frame.clone();
                let hebs_stats = simd::hebs_apply(&hebs, &mut got_hebs, tier);
                assert_eq!(
                    got_hebs.as_bytes(),
                    ref_hebs_frame.as_bytes(),
                    "hebs tier={tier:?} frame={i}"
                );
                assert_eq!(hebs_stats, ref_hebs_stats, "hebs stats tier={tier:?} frame={i}");
                log_digest(
                    &format!("kernels clip=themovie frame={i} k={k} tier={}", tier.name()),
                    digest_frame_stats(&got, &stats) ^ digest_frame_stats(&got_hebs, &hebs_stats),
                );
            }
        }
    }
}

/// Ragged geometries that do not fill one SSE (16-byte) or AVX
/// (32-byte) lane group — the tails must route through the same scalar
/// epilogue bytes.
#[test]
fn kernel_tiers_match_on_ragged_geometries() {
    let lut = CompensationLut::new(1.47);
    for (w, h) in [(1, 1), (2, 3), (5, 1), (7, 2), (9, 3), (11, 5), (15, 4), (17, 1), (33, 2)] {
        let frame = test_frame(w, h, 3 * w + h);
        let ref_hist = simd::luma_histogram(&frame, KernelTier::Scalar);
        let mut ref_frame = frame.clone();
        let ref_stats = lut.apply_scalar(&mut ref_frame);
        for tier in TIERS {
            assert_eq!(
                simd::luma_histogram(&frame, tier),
                ref_hist,
                "histogram tier={tier:?} {w}x{h}"
            );
            let mut got = frame.clone();
            let stats = simd::compensation_apply(&lut, &mut got, tier);
            assert_eq!(got.as_bytes(), ref_frame.as_bytes(), "lut tier={tier:?} {w}x{h}");
            assert_eq!(stats, ref_stats, "lut stats tier={tier:?} {w}x{h}");
            log_digest(
                &format!("ragged {w}x{h} tier={}", tier.name()),
                digest_frame_stats(&got, &stats),
            );
        }
    }
}

/// The batched proxy scheduler inherits the guarantee: transcode_batch
/// output is byte-identical to per-clip transcode for every pool size.
#[test]
fn transcode_batch_matches_per_clip_transcode() {
    let clip = ClipLibrary::paper_clip("themovie")
        .expect("library names are all known")
        .preview(1.5);
    let (w, h) = clip.dimensions();
    let mut enc = Encoder::new(EncoderConfig {
        width: w,
        height: h,
        fps: clip.fps(),
        ..EncoderConfig::default()
    })
    .expect("library clip dimensions are codec-valid");
    for f in clip.frames() {
        enc.push_frame(&f).expect("frames match encoder geometry");
    }
    let input = enc.finish();
    let requests = [
        TranscodeRequest {
            input: &input,
            device: &DeviceProfile::ipaq_5555(),
            quality: QualityLevel::Q10,
            mode: AnnotationMode::PerScene,
        },
        TranscodeRequest {
            input: &input,
            device: &DeviceProfile::zaurus_sl5600(),
            quality: QualityLevel::Q5,
            mode: AnnotationMode::PerScene,
        },
    ];
    let serial = Proxy::new(EncoderConfig::default());
    let reference: Vec<_> = requests
        .iter()
        .map(|r| {
            serial
                .transcode(r.input, r.device, r.quality, r.mode)
                .expect("serial transcode succeeds")
        })
        .collect();
    for workers in WORKER_COUNTS {
        let proxy = Proxy::new(EncoderConfig::default())
            .with_parallelism(ParallelConfig::with_workers(workers));
        let got = proxy.transcode_batch(&requests).expect("batched transcode succeeds");
        let mut d = Digester::new();
        for (g, r) in got.iter().zip(&reference) {
            assert_eq!(
                g.as_bytes(),
                r.as_bytes(),
                "transcode_batch workers={workers} diverged from per-clip transcode"
            );
            d.write(g.as_bytes());
        }
        log_digest(&format!("transcode_batch workers={workers}"), d.finish());
    }
}

/// Set in the child processes of
/// [`proxy_transcode_bytes_are_identical_under_every_tier`].
const TIER_CHILD: &str = "ANNOLIGHT_TIER_CHILD";

/// Digest of a proxy transcode of a *themovie* preview: decode, YUV→RGB,
/// profile, plan, compensate, RGB→YUV and re-encode, all at the process's
/// kernel tier.
fn proxy_transcode_digest() -> u64 {
    let clip = ClipLibrary::paper_clip("themovie")
        .expect("library names are all known")
        .preview(1.0);
    let (w, h) = clip.dimensions();
    let mut enc = Encoder::new(EncoderConfig {
        width: w,
        height: h,
        fps: clip.fps(),
        ..EncoderConfig::default()
    })
    .expect("library clip dimensions are codec-valid");
    for f in clip.frames() {
        enc.push_frame(&f).expect("frames match encoder geometry");
    }
    let input = enc.finish();
    let out = Proxy::new(EncoderConfig::default())
        .transcode(&input, &DeviceProfile::ipaq_5555(), QualityLevel::Q10, AnnotationMode::PerScene)
        .expect("transcode succeeds");
    let mut d = Digester::new();
    d.write(input.as_bytes()).write(out.as_bytes());
    d.finish()
}

/// A proxy transcode's bytes do not depend on the kernel tier. The tier
/// is fixed once per process, so each tier runs in a child copy of this
/// test binary pinned with `ANNOLIGHT_KERNEL_TIER`, which prints its
/// digest for the parent to compare.
#[test]
fn proxy_transcode_bytes_are_identical_under_every_tier() {
    let digest = format!("{:#018x}", proxy_transcode_digest());
    if std::env::var_os(TIER_CHILD).is_some() {
        println!("transcode-digest {digest}");
        return;
    }
    for tier in TIERS {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
            .args([
                "proxy_transcode_bytes_are_identical_under_every_tier",
                "--exact",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("ANNOLIGHT_KERNEL_TIER", tier.name())
            .env(TIER_CHILD, "1")
            .env_remove("ANNOLIGHT_PIPELINE_LOG")
            .output()
            .expect("test binary re-runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "tier={tier:?} child failed:\n{stdout}");
        // The harness prints the test's name on the same line.
        let got = stdout
            .split("transcode-digest ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("tier={tier:?} child printed no digest:\n{stdout}"));
        assert_eq!(got, digest, "proxy transcode bytes differ at tier={tier:?}");
    }
    log_digest("proxy transcode every tier", u64::from_str_radix(&digest[2..], 16).expect("hex digest"));
}

annolight_support::check! {
    /// Randomized kernel-tier property: random geometry (including
    /// single-pixel and lane-straddling widths), random content, random
    /// compensation factor — including the `k >= 128` region where the
    /// vector kernels must fall back to the scalar path — and a random
    /// HEBS effective maximum. Every tier must match the scalar oracle
    /// byte for byte.
    fn randomized_kernels_match_scalar_oracle(g) {
        let w = g.draw(1..48u32);
        let h = g.draw(1..32u32);
        let seed: u32 = g.any::<u32>();
        let frame = test_frame(w, h, seed);
        let k = if g.draw(0..8u32) == 0 {
            g.draw(128.0f32..300.0) // vector kernels must take the scalar fallback
        } else {
            g.draw(0.1f32..8.0)
        };
        let lut = CompensationLut::new(k);
        let ref_hist = simd::luma_histogram(&frame, KernelTier::Scalar);
        let mut ref_frame = frame.clone();
        let ref_stats = lut.apply_scalar(&mut ref_frame);
        let eff = g.draw(0..=255u8);
        let hebs = HebsLut::from_histogram(&ref_hist, eff);
        let mut ref_hebs_frame = frame.clone();
        let ref_hebs_stats = hebs.apply_scalar(&mut ref_hebs_frame);
        for tier in TIERS {
            let hist = simd::luma_histogram(&frame, tier);
            assert_eq!(hist, ref_hist, "histogram {w}x{h} seed={seed} tier={tier:?}");
            let mut got = frame.clone();
            let stats = simd::compensation_apply(&lut, &mut got, tier);
            assert_eq!(
                got.as_bytes(),
                ref_frame.as_bytes(),
                "lut {w}x{h} seed={seed} k={k} tier={tier:?}"
            );
            assert_eq!(stats, ref_stats, "lut stats {w}x{h} seed={seed} k={k} tier={tier:?}");
            let mut got_hebs = frame.clone();
            let hebs_stats = simd::hebs_apply(&hebs, &mut got_hebs, tier);
            assert_eq!(
                got_hebs.as_bytes(),
                ref_hebs_frame.as_bytes(),
                "hebs {w}x{h} seed={seed} eff={eff} tier={tier:?}"
            );
            assert_eq!(
                hebs_stats, ref_hebs_stats,
                "hebs stats {w}x{h} seed={seed} eff={eff} tier={tier:?}"
            );
        }
        // One digest per draw covering the scalar-oracle outputs: the
        // tier loop above proved every tier equals it.
        let mut d = Digester::new();
        d.write(to_string(&ref_hist).as_bytes())
            .write_u64(digest_frame_stats(&ref_frame, &ref_stats))
            .write_u64(digest_frame_stats(&ref_hebs_frame, &ref_hebs_stats));
        log_digest(&format!("prop {w}x{h} seed={seed}"), d.finish());
    }
}
