//! `serve_fleet`: the annotation service's control plane.
//!
//! A flash-crowd trace (`generate_trace`, scaled to a longer day than the
//! SLO preset) is replayed tick by tick against an inline
//! (`workers: 0`) `AnnotationService`, as `replay_trace` does: each tick
//! submits all its arrivals, then drains. The cache budget sits below the
//! working set, so evictions run beside hits, and tenant queues overflow
//! in the spikes. No codec or pixel pipeline runs: a miss profiles a
//! 32×16 synthetic clip and plans its track.

use crate::trace::Tracer;
use crate::{should_stop, stats, Options, Report, Scale};
use annolight_core::track::{AnnotationMode, AnnotationTrack};
use annolight_core::{Annotator, PolicyKind};
use annolight_display::DeviceProfile;
use annolight_serve::workload::{
    generate_trace, ScenarioKind, SyntheticCorpus, WorkloadConfig, WorkloadTrace,
};
use annolight_serve::{
    AnnotationRequest, AnnotationService, CountersReport, ServeError, ServiceConfig, Ticket,
};
use annolight_support::rng::SmallRng;
use std::sync::Arc;
use std::time::Instant;

/// Annotation-cache byte budget: below the trace's working set, so
/// evictions run beside hits.
pub const CACHE_BYTES: usize = 512 << 10;

/// Per-tenant queue depth (the flash crowds overflow it).
pub const TENANT_QUEUE_DEPTH: usize = 8;

/// Requests whose tracks are checked against a fresh `Annotator`.
const SAMPLED_TRACKS: usize = 16;

/// The trace configuration for `seed`.
#[must_use]
pub fn workload_config(seed: u64, scale: &Scale) -> WorkloadConfig {
    WorkloadConfig {
        ticks: scale.serve_ticks,
        corpus_clips: scale.serve_corpus,
        ..WorkloadConfig::scenario(ScenarioKind::FlashCrowd, seed)
    }
}

/// A fresh service with the corpus registered.
fn service(corpus: &SyntheticCorpus) -> Arc<AnnotationService> {
    let svc = AnnotationService::new(ServiceConfig {
        workers: 0,
        cache_shards: 4,
        cache_bytes: CACHE_BYTES,
        tenant_queue_depth: TENANT_QUEUE_DEPTH,
        intra_workers: 0,
        latency_reservoir: 0,
    });
    corpus.register_all(&svc);
    svc
}

/// What one replay observed.
struct Replay {
    /// Wall time of each tick (submit all arrivals, then drain), seconds.
    tick_s: Vec<f64>,
    /// The service's counters afterwards.
    counters: CountersReport,
    /// `Overloaded` refusals seen by the replay loop.
    rejected: u64,
    /// Deepest admitted-but-undispatched backlog after a tick's submits.
    queue_max: usize,
    /// Tracks answered to the sampled requests.
    sampled: Vec<(usize, Arc<AnnotationTrack>)>,
    /// Non-backpressure errors.
    errors: Vec<String>,
}

fn request_of(
    req: &annolight_serve::workload::TraceRequest,
    corpus: &SyntheticCorpus,
    devices: &[DeviceProfile],
) -> AnnotationRequest {
    AnnotationRequest {
        tenant: req.tenant_name(),
        clip: corpus.name(req.clip_rank),
        device: devices[req.device].clone(),
        quality: req.quality,
        mode: if req.per_frame {
            AnnotationMode::PerFrame
        } else {
            AnnotationMode::PerScene
        },
        policy: PolicyKind::PeakClip,
    }
}

/// Replays `trace` tick by tick; with a tracer, wraps each submit in a
/// `serve.submit` span and each drain in a `serve.drain` span, under one
/// `serve.tick` span per tick.
fn replay(
    svc: &Arc<AnnotationService>,
    corpus: &SyntheticCorpus,
    trace: &WorkloadTrace,
    sample: &[usize],
    mut tr: Option<&mut Tracer>,
) -> Replay {
    let devices = DeviceProfile::paper_devices();
    let mut out = Replay {
        tick_s: Vec::new(),
        counters: svc.report(),
        rejected: 0,
        queue_max: 0,
        sampled: Vec::new(),
        errors: Vec::new(),
    };
    let reqs = &trace.requests;
    let mut pending: Vec<(usize, Ticket)> = Vec::new();
    let mut start = 0;
    while start < reqs.len() {
        let tick = reqs[start].tick;
        let end = start + reqs[start..].iter().take_while(|r| r.tick == tick).count();
        let began = Instant::now();
        let root = tr.as_deref_mut().map(|t| {
            t.set_group(tick);
            t.enter("serve.tick")
        });
        for (idx, req) in reqs.iter().enumerate().take(end).skip(start) {
            let request = request_of(req, corpus, &devices);
            let submitted = match tr.as_deref_mut() {
                Some(t) => t.span("serve.submit", || svc.submit(request)),
                None => svc.submit(request),
            };
            match submitted {
                Ok(Ticket::Ready(Ok(resp))) => {
                    if sample.binary_search(&idx).is_ok() {
                        out.sampled.push((idx, resp.track));
                    }
                }
                Ok(Ticket::Ready(Err(e))) => out.errors.push(format!("request {idx}: {e}")),
                Ok(ticket) => pending.push((idx, ticket)),
                Err(ServeError::Overloaded { .. }) => out.rejected += 1,
                Err(e) => out.errors.push(format!("request {idx}: {e}")),
            }
        }
        out.queue_max = out.queue_max.max(svc.queue_depth());
        let drain = tr.as_deref_mut().map(|t| t.enter("serve.drain"));
        svc.run_until_idle();
        for (idx, ticket) in pending.drain(..) {
            match ticket.wait() {
                Ok(resp) => {
                    if sample.binary_search(&idx).is_ok() {
                        out.sampled.push((idx, resp.track));
                    }
                }
                Err(e) => out.errors.push(format!("request {idx}: {e}")),
            }
        }
        if let (Some(t), Some(d)) = (tr.as_deref_mut(), drain) {
            t.exit(d);
        }
        if let (Some(t), Some(r)) = (tr.as_deref_mut(), root) {
            t.exit(r);
        }
        out.tick_s.push(began.elapsed().as_secs_f64());
        start = end;
    }
    out.counters = svc.report();
    out
}

/// The counters a same-seed replay must reproduce exactly.
fn counter_key(c: &CountersReport) -> [u64; 6] {
    [
        c.hits,
        c.misses,
        c.overloaded,
        c.evictions,
        c.clip_profiles,
        c.resident_bytes as u64,
    ]
}

/// Output checks on one replay.
fn check_replay(
    report: &mut Report,
    r: &Replay,
    trace: &WorkloadTrace,
    corpus: &SyntheticCorpus,
    reference: Option<&[u64; 6]>,
) {
    for e in &r.errors {
        report.fail(e.clone());
    }
    let c = &r.counters;
    let n = trace.requests.len() as u64;
    report.check(c.hits + c.misses + c.overloaded == n, || {
        format!(
            "hits {} + misses {} + overloaded {} != {n} requests",
            c.hits, c.misses, c.overloaded
        )
    });
    report.check(c.overloaded == r.rejected, || {
        format!(
            "service counted {} refusals, the replay loop saw {}",
            c.overloaded, r.rejected
        )
    });
    report.check(c.clip_profiles <= trace.distinct_clips, || {
        format!(
            "{} profiles for {} distinct clips",
            c.clip_profiles, trace.distinct_clips
        )
    });
    if let Some(reference) = reference {
        report.check(counter_key(c) == *reference, || {
            "counters differ between replays".to_owned()
        });
    }
    let devices = DeviceProfile::paper_devices();
    for (idx, track) in &r.sampled {
        let req = &trace.requests[*idx];
        let mode = if req.per_frame {
            AnnotationMode::PerFrame
        } else {
            AnnotationMode::PerScene
        };
        let fresh = Annotator::new(devices[req.device].clone(), req.quality)
            .with_mode(mode)
            .annotate_clip(&corpus.clip(req.clip_rank));
        match fresh {
            Ok(a) => report.check(a.track() == track.as_ref(), || {
                format!("request {idx}: served track differs from a fresh Annotator's")
            }),
            Err(e) => report.fail(format!("request {idx}: fresh Annotator: {e}")),
        }
    }
}

/// A seeded sample of request indices, sorted.
fn sample_of(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = SmallRng::stream(seed, 0x5A4D);
    let mut s: Vec<usize> = (0..SAMPLED_TRACKS.min(n))
        .map(|_| rng.gen_range(0..n))
        .collect();
    s.sort_unstable();
    s.dedup();
    s
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    let cfg = workload_config(opts.seed, &opts.scale);
    let corpus = SyntheticCorpus::new(cfg.corpus_clips);
    // One set-up: generate the trace, build the service, register the
    // corpus. Repeated before every replay (each replay starts cold).
    let set_up = || {
        let started = Instant::now();
        let trace = generate_trace(&cfg);
        let svc = service(&corpus);
        (trace, svc, started.elapsed().as_secs_f64())
    };
    // Timed set-ups; the last one is kept for the warm-up.
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..opts.scale.setups.max(1) {
        drop(prepared.take());
        let (trace, svc, t) = set_up();
        setup.push(t);
        prepared = Some((trace, svc));
    }
    let (trace, svc) = prepared.expect("at least one set-up");
    let sample = sample_of(opts.seed, trace.requests.len());
    report.det("trace_digest", format!("{:016x}", trace.digest));
    report.det("requests", trace.requests.len());
    report.det("distinct_clips", trace.distinct_clips);
    let n = trace.requests.len();
    let digest = trace.digest;

    // Warm-up: one checked replay, untimed.
    let warm = replay(&svc, &corpus, &trace, &sample, None);
    drop(svc);
    report.attempted += n as u64;
    check_replay(&mut report, &warm, &trace, &corpus, None);
    let key = counter_key(&warm.counters);
    if opts.trace {
        // Untraced replay, then the traced one, each on a fresh service.
        let (trace, svc, _) = set_up();
        let plain = replay(&svc, &corpus, &trace, &[], None);
        report.attempted += n as u64;
        check_replay(&mut report, &plain, &trace, &corpus, Some(&key));
        drop(svc);
        let (trace, svc, _) = set_up();
        let mut tr = Tracer::new();
        let traced = replay(&svc, &corpus, &trace, &sample, Some(&mut tr));
        report.attempted += n as u64;
        check_replay(&mut report, &traced, &trace, &corpus, Some(&key));
        layers(&mut report, &tr, &plain, &traced, n);
        report.trace_json = Some(tr.to_json(20_000));
        return report;
    }
    // Measured replays: each is set up outside the measured time, and
    // only the replay's ticks count against `--seconds`.
    let mut ticks: Vec<Vec<f64>> = Vec::new();
    let mut measured = 0.0;
    let mut replays = 0;
    let last = loop {
        let (trace, svc, t) = set_up();
        setup.push(t);
        report.check(trace.digest == digest, || {
            "trace digest differs between set-ups".to_owned()
        });
        let r = replay(&svc, &corpus, &trace, &[], None);
        drop(svc);
        report.attempted += n as u64;
        check_replay(&mut report, &r, &trace, &corpus, Some(&key));
        if ticks.is_empty() {
            ticks = vec![Vec::new(); r.tick_s.len()];
        }
        if r.tick_s.len() == ticks.len() {
            for (acc, t) in ticks.iter_mut().zip(&r.tick_s) {
                acc.push(*t);
            }
        } else {
            report.fail("tick count differs between replays");
        }
        replays += 1;
        measured += r.tick_s.iter().sum::<f64>();
        if should_stop(replays, measured, opts.seconds) {
            break r;
        }
    };
    // One figure per tick: the minimum over replays.
    let best: Vec<f64> = ticks.iter().map(|t| stats::min(t) * 1e3).collect();
    let busy_s: f64 = best.iter().sum::<f64>() / 1e3;
    let p50 = stats::median(&best);
    let (pct, tail) = stats::tail(&best);
    let c = &last.counters;
    let hit_ratio = c.hit_rate();
    let reject_share = c.overloaded as f64 / n as f64;
    report.set("setup_s", stats::median(&setup));
    report.set("throughput_per_s", n as f64 / busy_s);
    report.set("latency_p50_ms", p50);
    report.set("latency_tail_ms", tail);
    report.set("outcome_share", hit_ratio);
    report.det("counters", format!("{:?}", counter_key(c)));
    report.note(format!(
        "requests_per_s = {:.1} (throughput_per_s), {n} requests x {replays} replays",
        n as f64 / busy_s
    ));
    report.note(format!("tick_p50_ms = {p50:.4} (latency_p50_ms)"));
    report.note(format!(
        "tick_tail_ms = {tail:.4} (latency_tail_ms) = p{pct} of {} per-tick minima",
        best.len()
    ));
    report.note(format!("hit_ratio = {hit_ratio:.6} (outcome_share)"));
    report.note(format!(
        "reject_share = {reject_share:.6}, evictions = {}, queue_depth_max = {}",
        c.evictions, last.queue_max
    ));
    report
}

fn layers(report: &mut Report, tr: &Tracer, plain: &Replay, traced: &Replay, n: usize) {
    let totals = tr.self_totals();
    let c = &traced.counters;
    let ns = |name: &str| totals.get(name).map_or(0, |t| t.ns) as f64;
    report.set("serve.submit_ns_per_request", ns("serve.submit") / n as f64);
    report.set(
        "serve.drain_us_per_miss",
        ns("serve.drain") / 1e3 / c.misses.max(1) as f64,
    );
    report.set("serve.hits", c.hits as f64);
    report.set("serve.misses", c.misses as f64);
    report.set("serve.evictions", c.evictions as f64);
    report.set("serve.clip_profiles", c.clip_profiles as f64);
    report.set("serve.resident_bytes", c.resident_bytes as f64);
    report.set("serve.overloaded", c.overloaded as f64);
    report.set("serve.queue_depth_max", traced.queue_max as f64);
    report.set("serve.reject_share", c.overloaded as f64 / n as f64);
    let plain_s: f64 = plain.tick_s.iter().sum();
    let traced_s: f64 = traced.tick_s.iter().sum();
    report.set("trace.overhead_share", traced_s / plain_s - 1.0);
    report.det("counters", format!("{:?}", counter_key(c)));
    report.det("queue_depth_max", traced.queue_max);
}
