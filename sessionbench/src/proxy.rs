//! `proxy_transcode`: closed-loop proxy-site sessions, one at a time.
//!
//! The end-to-end run times whole sessions through
//! [`annolight_stream::session::run_session`]. The traced run rebuilds
//! each session from the crates' public calls (render, compensate,
//! RGB→YUV, encode, decode, YUV→RGB, profile, annotate, client play)
//! with a span around each, and checks the composition reproduces
//! `run_session`'s report — and, on a sample, the proxy's exact bytes.

use crate::trace::Tracer;
use crate::{alloc, should_stop, stats, Options, Report, Scale};
use annolight_codec::{Decoder, EncodedStream, Encoder, EncoderConfig};
use annolight_core::apply::compensate_frame;
use annolight_core::digest::Digester;
use annolight_core::parallel::{self, ParallelConfig};
use annolight_core::{HebsRemapSet, PolicyKind, QualityLevel};
use annolight_display::DeviceProfile;
use annolight_imgproc::{downscale_2x, Frame, Yuv420Frame};
use annolight_power::EnergyMeter;
use annolight_serve::{AnnotationService, ServiceConfig};
use annolight_stream::message::{grant_quality, ClientHello};
use annolight_stream::session::{run_session, AnnotationSite, SessionConfig, SessionReport};
use annolight_stream::{spatial_decision, MediaServer, PlaybackClient, Proxy, ServeRequest};
use annolight_support::channel;
use annolight_support::rng::SmallRng;
use annolight_video::ClipLibrary;
use std::time::Instant;

/// Quality levels a session may request.
pub const QUALITIES: [QualityLevel; 4] = [
    QualityLevel::Q5,
    QualityLevel::Q10,
    QualityLevel::Q15,
    QualityLevel::Q20,
];

/// Annotation policies a session may request.
pub const POLICIES: [PolicyKind; 3] = [
    PolicyKind::PeakClip,
    PolicyKind::Hebs,
    PolicyKind::SpatialScale,
];

/// Every n-th traced session is also checked byte for byte against
/// `MediaServer::serve` + `Proxy::transcode`.
const BYTE_CHECK_EVERY: usize = 8;

/// One session of the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    /// Index into the paper clip library.
    pub clip: usize,
    /// Index into [`POLICIES`].
    pub policy: usize,
    /// Index into [`QUALITIES`].
    pub quality: usize,
    /// Index into `DeviceProfile::paper_devices()`.
    pub device: usize,
}

/// The session cycle for `seed`: every clip × policy × quality once
/// (a balanced design, so seeds change the device assignment and the
/// order but not the mix), plus its digest.
#[must_use]
pub fn plan(seed: u64, scale: &Scale) -> (Vec<Case>, u64) {
    let mut rng = SmallRng::stream(seed, 0x9E0C);
    let mut cases = Vec::new();
    for clip in 0..scale.clips {
        for policy in 0..POLICIES.len() {
            // Each (clip, policy) walks the devices from a seeded offset.
            let offset = rng.gen_range(0..3usize);
            for quality in 0..scale.qualities {
                cases.push(Case {
                    clip,
                    policy,
                    quality,
                    device: (offset + quality) % 3,
                });
            }
        }
    }
    for i in (1..cases.len()).rev() {
        let j = rng.gen_range(0..=i);
        cases.swap(i, j);
    }
    let mut d = Digester::new();
    for c in &cases {
        d.write(&[
            c.clip as u8,
            c.policy as u8,
            c.quality as u8,
            c.device as u8,
        ]);
    }
    (cases, d.finish())
}

/// The session configurations of `cases`.
#[must_use]
pub fn configs(cases: &[Case], scale: &Scale) -> Vec<SessionConfig> {
    let clips: Vec<_> = ClipLibrary::paper_clips()
        .iter()
        .map(|c| c.preview(scale.preview_s))
        .collect();
    let devices = DeviceProfile::paper_devices();
    cases
        .iter()
        .map(|c| {
            let mut cfg = SessionConfig::new(clips[c.clip].clone(), QUALITIES[c.quality])
                .with_policy(POLICIES[c.policy]);
            cfg.site = AnnotationSite::Proxy;
            cfg.device = devices[c.device].clone();
            cfg
        })
        .collect()
}

/// The warm-up sessions: the first clip at Q10 on the first device, once
/// per policy.
fn warm_up_configs(scale: &Scale) -> Vec<SessionConfig> {
    let cases: Vec<Case> = (0..POLICIES.len())
        .map(|policy| Case {
            clip: 0,
            policy,
            quality: 1,
            device: 0,
        })
        .collect();
    configs(&cases, scale)
}

fn report_json(r: &SessionReport) -> String {
    annolight_support::json::to_string(r)
}

/// Times one `run_session` call.
fn timed_session(cfg: &SessionConfig) -> (f64, Result<SessionReport, String>) {
    let cfg = cfg.clone();
    let started = Instant::now();
    let out = run_session(cfg).map_err(|e| e.to_string());
    (started.elapsed().as_secs_f64(), out)
}

/// Checks one session's report against its config and, when given, the
/// report the same config produced before.
fn check_session(
    report: &mut Report,
    i: usize,
    cfg: &SessionConfig,
    rep: &SessionReport,
    first: Option<&String>,
) {
    report.check(rep.playback.frames == cfg.clip.frame_count(), || {
        format!(
            "session {i}: played {} of {} frames",
            rep.playback.frames,
            cfg.clip.frame_count()
        )
    });
    report.check(rep.playback.annotated, || {
        format!("session {i}: stream carried no annotations")
    });
    if let Some(first) = first {
        report.check(*first == report_json(rep), || {
            format!("session {i}: report differs between repetitions")
        });
    }
}

/// The session cycle and its digest, ready to measure.
type Cycle = (Vec<SessionConfig>, u64);

/// Runs the workload.
#[must_use]
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    let warm_up = warm_up_configs(&opts.scale);
    // One set-up: plan the cycle, build its configs, and run the warm-up
    // (one session per policy, the same for every seed, so timing starts
    // with warm caches).
    let set_up = |report: &mut Report| -> (Cycle, f64) {
        let started = Instant::now();
        let (cases, digest) = plan(opts.seed, &opts.scale);
        let cfgs = configs(&cases, &opts.scale);
        for cfg in &warm_up {
            report.attempted += 1;
            if let (_, Err(e)) = timed_session(cfg) {
                report.fail(format!("warm-up session: {e}"));
            }
        }
        ((cfgs, digest), started.elapsed().as_secs_f64())
    };
    let mut setup = Vec::new();
    let mut cycle = None;
    for _ in 0..opts.scale.setups.max(1) {
        let (c, t) = set_up(&mut report);
        setup.push(t);
        cycle = Some(c);
    }
    let (cfgs, digest) = cycle.expect("at least one set-up");
    report.det("plan_digest", format!("{digest:016x}"));
    report.det("sessions_per_cycle", cfgs.len());
    if opts.trace {
        traced(&cfgs, &mut report);
    } else {
        measured(opts, &cfgs, digest, &mut report, setup, set_up);
    }
    report
}

/// Repeats the cycle until `--seconds` of session time is used up. Every
/// cycle after the first is set up again first, so the `setup_s` samples
/// spread over the run.
fn measured(
    opts: &Options,
    cfgs: &[SessionConfig],
    digest: u64,
    report: &mut Report,
    mut setup: Vec<f64>,
    set_up: impl Fn(&mut Report) -> (Cycle, f64),
) {
    let n = cfgs.len();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut firsts: Vec<Option<(String, SessionReport)>> = vec![None; n];
    let mut measured = 0.0;
    let mut cycles = 0;
    loop {
        if cycles > 0 {
            let ((again, d), t) = set_up(report);
            setup.push(t);
            report.check(d == digest && again.len() == n, || {
                "the plan differs between set-ups".to_owned()
            });
        }
        for (i, cfg) in cfgs.iter().enumerate() {
            let (t, out) = timed_session(cfg);
            measured += t;
            report.attempted += 1;
            match out {
                Ok(rep) => {
                    times[i].push(t);
                    check_session(report, i, cfg, &rep, firsts[i].as_ref().map(|f| &f.0));
                    if firsts[i].is_none() {
                        firsts[i] = Some((report_json(&rep), rep));
                    }
                }
                Err(e) => report.fail(format!("session {i}: {e}")),
            }
        }
        cycles += 1;
        if should_stop(cycles, measured, opts.seconds) {
            break;
        }
    }
    report.set("setup_s", stats::median(&setup));
    // One figure per session config: the minimum over cycles.
    let mut best = Vec::new();
    let (mut frames, mut busy, mut energy, mut baseline) = (0u64, 0.0, 0.0, 0.0);
    for (t, first) in times.iter().zip(&firsts) {
        let Some((_, rep)) = first else { continue };
        let m = stats::min(t);
        best.push(m * 1e3);
        busy += m;
        frames += u64::from(rep.playback.frames);
        energy += rep.playback.energy_j;
        baseline += rep.playback.baseline_energy_j;
    }
    if best.is_empty() {
        return;
    }
    let p50 = stats::median(&best);
    let (pct, tail) = stats::tail(&best);
    let saved = 1.0 - energy / baseline;
    report.set("throughput_per_s", frames as f64 / busy);
    report.set("latency_p50_ms", p50);
    report.set("latency_tail_ms", tail);
    report.set("outcome_share", saved);
    report.det("energy_saved", format!("{saved:?}"));
    report.det("frames_per_cycle", frames);
    report.note(format!(
        "frames_per_s = {:.1} (throughput_per_s), over {n} session configs x {cycles} cycles",
        frames as f64 / busy
    ));
    report.note(format!("session_p50_ms = {p50:.3} (latency_p50_ms)"));
    report.note(format!(
        "session_tail_ms = {tail:.3} (latency_tail_ms) = p{pct} of {} per-config minima",
        best.len()
    ));
    report.note(format!("energy_saved = {saved:.6} (outcome_share)"));
}

/// The negotiated session parameters (`negotiate_and_serve`'s
/// arithmetic, from public calls).
struct Negotiated {
    granted: QualityLevel,
    device: DeviceProfile,
    policy: PolicyKind,
    downscale: bool,
}

fn negotiate(cfg: &SessionConfig) -> Result<Negotiated, String> {
    let hello = ClientHello::new(cfg.clip.name(), cfg.device.clone(), cfg.quality, cfg.mode)
        .with_policy(cfg.policy);
    let hello = ClientHello::from_wire(&hello.to_wire())?;
    let (w, h) = cfg.clip.dimensions();
    let downscale = hello.policy == PolicyKind::SpatialScale
        && spatial_decision(
            hello.policy,
            w,
            h,
            cfg.clip.frame_count(),
            cfg.clip.fps(),
            &cfg.channel,
            &cfg.system,
        )
        .use_half;
    Ok(Negotiated {
        granted: grant_quality(&QualityLevel::PAPER_LEVELS, hello.quality),
        device: hello.device,
        policy: hello.policy,
        downscale,
    })
}

/// A composed session: its report, the proxy's output stream, and the
/// proxy-side compensation's clipping.
struct Composed {
    /// What `run_session` would report.
    report: SessionReport,
    /// The annotated stream the proxy emitted.
    stream: EncodedStream,
    /// Pixels the proxy's compensation clipped.
    clipped: u64,
    /// Pixels the proxy's compensation processed.
    pixels: u64,
}

/// Rebuilds one proxy-site session from public calls, with a span around
/// each call inside a `stream.session` root span. Errors come back as
/// text.
fn compose(cfg: &SessionConfig, tr: &mut Tracer) -> Result<Composed, String> {
    let root = tr.enter("stream.session");
    let out = compose_inner(cfg, tr);
    tr.exit(root);
    out
}

#[allow(clippy::too_many_lines)]
fn compose_inner(cfg: &SessionConfig, tr: &mut Tracer) -> Result<Composed, String> {
    if cfg.site != AnnotationSite::Proxy || cfg.dvfs || cfg.burst_prefetch {
        return Err("only plain proxy-site sessions are composed".to_owned());
    }
    let serial = ParallelConfig::serial();
    let clip = &cfg.clip;
    let (w, h) = clip.dimensions();

    // Server catalogue: register and profile the clip eagerly.
    let server = AnnotationService::new(ServiceConfig::default());
    let clip_digest = server.register_clip(clip.clone());
    let rendered: Vec<Frame> = tr.span("video.render", || clip.frames().collect());
    let profile = tr
        .span("core.profile", || {
            parallel::profile_frames(clip.fps(), &rendered, &serial)
        })
        .map_err(|e| e.to_string())?;
    drop(rendered);
    let neg = negotiate(cfg)?;

    // Legacy server: a plain Q0 stream, compensated for the peak-clip
    // Q0 track.
    let plain_track = tr
        .span("serve.annotate", || {
            server.annotate_profile(
                clip_digest,
                &profile,
                &neg.device,
                QualityLevel::Q0,
                cfg.mode,
                PolicyKind::PeakClip,
            )
        })
        .map_err(|e| e.to_string())?
        .track;
    let mut enc = Encoder::new(EncoderConfig {
        width: w,
        height: h,
        fps: clip.fps(),
        ..cfg.encoder
    })
    .map_err(|e| e.to_string())?;
    enc.push_user_data(&plain_track.to_rle_bytes());
    let mut yuv: Vec<Yuv420Frame> = Vec::with_capacity(clip.frame_count() as usize);
    for i in 0..clip.frame_count() {
        let mut frame = tr.span("video.render", || clip.frame(i));
        tr.span("core.compensate", || {
            compensate_frame(&mut frame, &plain_track, i)
        })
        .map_err(|e| e.to_string())?;
        yuv.push(
            tr.span("imgproc.rgb_to_yuv", || frame.to_yuv420())
                .map_err(|e| e.to_string())?,
        );
    }
    tr.span("codec.encode", || enc.push_yuv_frames(&yuv))
        .map_err(|e| e.to_string())?;
    let plain = tr.span("codec.encode", || enc.finish());

    // Proxy: decode, profile, annotate, compensate, re-encode.
    let proxy = AnnotationService::new(ServiceConfig::default());
    let decoded = tr
        .span("codec.decode", || {
            Decoder::new(&plain).and_then(|d| {
                let mut d = d.with_parallelism(serial);
                d.decode_all_yuv()
            })
        })
        .map_err(|e| e.to_string())?;
    let mut frames: Vec<Frame> = Vec::with_capacity(decoded.len());
    for y in &decoded {
        frames.push(tr.span("imgproc.yuv_to_rgb", || y.to_rgb()));
    }
    drop(decoded);
    let (ow, oh) = if neg.downscale {
        let mut small = Vec::with_capacity(frames.len());
        for f in &frames {
            small.push(
                tr.span("imgproc.downscale", || downscale_2x(f))
                    .map_err(|e| e.to_string())?,
            );
        }
        frames = small;
        (w / 2, h / 2)
    } else {
        (w, h)
    };
    let profile = tr
        .span("core.profile", || {
            parallel::profile_frames(plain.fps(), &frames, &serial)
        })
        .map_err(|e| e.to_string())?;
    let mut d = Digester::new();
    d.write(plain.as_bytes())
        .write_u32(u32::from(neg.downscale));
    let content = d.finish();
    let track = tr
        .span("serve.annotate", || {
            proxy.annotate_profile(
                content,
                &profile,
                &neg.device,
                neg.granted,
                cfg.mode,
                neg.policy,
            )
        })
        .map_err(|e| e.to_string())?
        .track;
    let mut enc = Encoder::new(EncoderConfig {
        width: ow,
        height: oh,
        fps: plain.fps(),
        ..cfg.encoder
    })
    .map_err(|e| e.to_string())?
    .with_parallelism(serial);
    enc.push_user_data(&track.to_rle_bytes());
    let clip_stats = if neg.policy == PolicyKind::Hebs {
        tr.span("core.compensate", || {
            let set = HebsRemapSet::new(&profile, cfg.mode, neg.granted);
            frames
                .iter_mut()
                .enumerate()
                .map(|(i, f)| set.apply_frame(f, i as u32))
                .collect()
        })
    } else {
        tr.span("core.compensate", || {
            parallel::compensate_frames(&mut frames, &track, &serial)
        })
        .map_err(|e| e.to_string())?
    };
    let mut yuv = Vec::with_capacity(frames.len());
    for f in &frames {
        yuv.push(
            tr.span("imgproc.rgb_to_yuv", || f.to_yuv420())
                .map_err(|e| e.to_string())?,
        );
    }
    drop(frames);
    tr.span("codec.encode", || enc.push_yuv_frames(&yuv))
        .map_err(|e| e.to_string())?;
    let stream = tr.span("codec.encode", || enc.finish());
    let annotation_bytes = tr
        .span("codec.decode", || {
            Decoder::new(&stream).map(|d| d.user_data().first().map_or(0, |b| b.len()))
        })
        .map_err(|e| e.to_string())?;

    // Delivery over the session layer's sender/receiver thread pair
    // (untraced), then client playback.
    let (received, packets) = deliver(stream.as_bytes(), cfg.channel.mtu)?;
    let total = received.len();
    let delivered = EncodedStream::from_bytes(received).map_err(|e| e.to_string())?;
    let transfer_time = cfg.channel.transfer_time_s(total);
    let meter = EnergyMeter::new();
    let client = PlaybackClient::new(neg.device, cfg.system);
    let playback = tr
        .span("stream.client_play", || {
            client.play(&delivered, Some(&meter))
        })
        .map_err(|e| e.to_string())?;
    Ok(Composed {
        report: SessionReport {
            granted_quality: neg.granted,
            stream_bytes: total,
            annotation_bytes,
            packets,
            transfer_time_s: transfer_time,
            real_time: transfer_time <= playback.duration_s,
            playback,
            energy_breakdown: meter.breakdown(),
        },
        stream,
        clipped: clip_stats.iter().map(|s| s.clipped_pixels).sum(),
        pixels: clip_stats.iter().map(|s| s.total_pixels).sum(),
    })
}

/// MTU-chunked delivery through a bounded channel between a sender and
/// a receiver thread; returns the reassembled bytes and packet count.
fn deliver(bytes: &[u8], mtu: usize) -> Result<(Vec<u8>, usize), String> {
    let bytes = bytes.to_vec();
    let total = bytes.len();
    let (tx, rx) = channel::bounded::<Vec<u8>>(64);
    let sender = std::thread::spawn(move || {
        for chunk in bytes.chunks(mtu) {
            if tx.send(chunk.to_vec()).is_err() {
                return;
            }
        }
    });
    let receiver = std::thread::spawn(move || {
        let mut buf = Vec::with_capacity(total);
        let mut packets = 0usize;
        for chunk in rx.iter() {
            packets += 1;
            buf.extend_from_slice(&chunk);
        }
        (buf, packets)
    });
    sender
        .join()
        .map_err(|_| "sender thread panicked".to_owned())?;
    receiver
        .join()
        .map_err(|_| "receiver thread panicked".to_owned())
}

/// The proxy's output for `cfg` through `MediaServer::serve` and
/// `Proxy::transcode` (or `transcode_downscaled`).
fn reference_stream(cfg: &SessionConfig) -> Result<EncodedStream, String> {
    let neg = negotiate(cfg)?;
    let mut server = MediaServer::new(cfg.encoder);
    server.add_clip(cfg.clip.clone());
    let plain = server
        .serve(&ServeRequest {
            clip_name: cfg.clip.name().to_owned(),
            device: neg.device.clone(),
            quality: QualityLevel::Q0,
            mode: cfg.mode,
            dvfs: false,
            policy: PolicyKind::PeakClip,
        })
        .map_err(|e| e.to_string())?;
    let proxy = Proxy::new(cfg.encoder).with_policy(neg.policy);
    let out = if neg.downscale {
        proxy.transcode_downscaled(&plain.stream, &neg.device, neg.granted, cfg.mode)
    } else {
        proxy.transcode(&plain.stream, &neg.device, neg.granted, cfg.mode)
    };
    out.map_err(|e| e.to_string())
}

fn traced(cfgs: &[SessionConfig], report: &mut Report) {
    let n = cfgs.len();
    // Untraced reference cycle.
    let mut plain = Vec::with_capacity(n);
    let mut plain_s = 0.0;
    for (i, cfg) in cfgs.iter().enumerate() {
        let (t, out) = timed_session(cfg);
        report.attempted += 1;
        match out {
            Ok(rep) => {
                check_session(report, i, cfg, &rep, None);
                plain_s += t;
                plain.push(Some(rep));
            }
            Err(e) => {
                report.fail(format!("session {i}: {e}"));
                plain.push(None);
            }
        }
    }
    // Traced cycle: same configs, composed from public calls.
    let mut tr = Tracer::new();
    let (mut traced_s, mut frames, mut bytes, mut clipped, mut pixels) =
        (0.0, 0u64, 0u64, 0u64, 0u64);
    let mut sessions = 0u64;
    alloc::set_counting(true);
    for (i, cfg) in cfgs.iter().enumerate() {
        tr.set_group(i as u32);
        let started = Instant::now();
        let out = compose(cfg, &mut tr);
        let t = started.elapsed().as_secs_f64();
        match (out, &plain[i]) {
            (Ok(c), Some(reference)) => {
                report.check(report_json(&c.report) == report_json(reference), || {
                    format!("session {i}: composed report differs from run_session's")
                });
                traced_s += t;
                sessions += 1;
                frames += u64::from(c.report.playback.frames);
                bytes += c.stream.len() as u64;
                clipped += c.clipped;
                pixels += c.pixels;
                if i % BYTE_CHECK_EVERY == 0 {
                    alloc::set_counting(false);
                    match reference_stream(cfg) {
                        Ok(r) => report.check(r.as_bytes() == c.stream.as_bytes(), || {
                            format!(
                                "session {i}: composed stream bytes differ from Proxy::transcode's"
                            )
                        }),
                        Err(e) => report.fail(format!("session {i}: reference transcode: {e}")),
                    }
                    alloc::set_counting(true);
                }
            }
            (Err(e), _) => report.fail(format!("session {i}: composed: {e}")),
            (Ok(_), None) => {}
        }
    }
    alloc::set_counting(false);
    if frames == 0 {
        return;
    }
    let totals = tr.self_totals();
    let fr = frames as f64;
    let per_frame_us = |name: &str| totals.get(name).map_or(0.0, |t| t.ns as f64 / 1e3 / fr);
    let allocs = |names: &[&str]| {
        names
            .iter()
            .map(|n| totals.get(n).map_or(0, |t| t.allocs))
            .sum::<u64>() as f64
            / fr
    };
    for (metric, span) in [
        ("video.render_us_per_frame", "video.render"),
        ("imgproc.rgb_to_yuv_us_per_frame", "imgproc.rgb_to_yuv"),
        ("imgproc.yuv_to_rgb_us_per_frame", "imgproc.yuv_to_rgb"),
        ("imgproc.downscale_us_per_frame", "imgproc.downscale"),
        ("codec.encode_us_per_frame", "codec.encode"),
        ("codec.decode_us_per_frame", "codec.decode"),
        ("core.profile_us_per_frame", "core.profile"),
        ("core.compensate_us_per_frame", "core.compensate"),
        ("stream.client_play_us_per_frame", "stream.client_play"),
        ("stream.untraced_us_per_frame", "stream.session"),
    ] {
        report.set(metric, per_frame_us(span));
    }
    report.set(
        "serve.annotate_us_per_session",
        totals
            .get("serve.annotate")
            .map_or(0.0, |t| t.ns as f64 / 1e3 / sessions as f64),
    );
    report.set("codec.decode_allocs_per_frame", allocs(&["codec.decode"]));
    report.set("codec.encode_allocs_per_frame", allocs(&["codec.encode"]));
    report.set(
        "imgproc.colour_allocs_per_frame",
        allocs(&["imgproc.rgb_to_yuv", "imgproc.yuv_to_rgb"]),
    );
    report.set(
        "core.compensate_allocs_per_frame",
        allocs(&["core.compensate"]),
    );
    report.set(
        "stream.client_allocs_per_frame",
        allocs(&["stream.client_play"]),
    );
    report.set("codec.bytes_per_frame", bytes as f64 / fr);
    report.set(
        "imgproc.clipped_share",
        clipped as f64 / pixels.max(1) as f64,
    );
    report.set("trace.overhead_share", traced_s / plain_s - 1.0);
    report.det("proxy_stream_bytes", bytes);
    report.det("proxy_clipped_pixels", clipped);
    report.note(format!(
        "traced {sessions} sessions ({frames} frames): {:.3} ms/frame traced vs {:.3} untraced",
        traced_s * 1e3 / fr,
        plain_s * 1e3 / fr
    ));
    report.trace_json = Some(tr.to_json(20_000));
}
