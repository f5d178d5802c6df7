//! `reactor_fleet`: concurrent playback sessions on one reactor.
//!
//! Every session is a `ScaleSession` sharing one `ScaleSpec` (the codec
//! runs in set-up only); links alternate between lossy and
//! Gilbert–Elliott bursty faults, as `reactor_scale` runs them. The
//! reactor has one worker. One scale fleet of 100k concurrent sessions
//! runs once, untimed: its outcomes are checked, and it sets the peak RSS
//! and `outcome_share`. The timings come from repeated fleets of 2 000
//! concurrent sessions, whose working set (about 1 MB) fits the core's
//! own L2 cache, away from the shared L3 and DRAM that made the 100k
//! fleet's speed follow the host's neighbours (see the README). Each session is wrapped so the benchmark can stamp
//! the wall-clock time it finished — a session's latency is the time from
//! its fleet's start until it completes.

use crate::trace::Tracer;
use crate::{alloc, should_stop, stats, Options, Report};
use annolight_core::QualityLevel;
use annolight_stream::machine::{ScaleOutcome, ScaleSession, ScaleSpec};
use annolight_stream::session::SessionConfig;
use annolight_stream::FaultConfig;
use annolight_support::channel::{self, Receiver};
use annolight_support::reactor::{Context, Reactor, ReactorConfig, Step, Task};
use annolight_video::ClipLibrary;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Seconds of the paper clip every session streams.
const PREVIEW_S: f64 = 2.0;

/// Negotiates and serves the shared stream once; returns the packet plan
/// and the frames each session plays.
fn shared_spec() -> Result<(Arc<ScaleSpec>, u32), String> {
    let clip = ClipLibrary::paper_clip("themovie")
        .ok_or_else(|| "paper clip \"themovie\" is missing".to_owned())?
        .preview(PREVIEW_S);
    let frames = clip.frame_count();
    let spec = ScaleSpec::negotiate(SessionConfig::new(clip, QualityLevel::Q10))
        .map_err(|e| e.to_string())?;
    Ok((Arc::new(spec), frames))
}

/// Session `i`'s link: even sessions lossy, odd ones bursty.
fn faults(seed: u64, i: usize) -> FaultConfig {
    let s = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if i.is_multiple_of(2) {
        FaultConfig::lossy(s, 0.12)
    } else {
        FaultConfig::bursty(s)
    }
}

/// Completion stamps shared by a fleet's wrappers.
struct Stamps {
    origin: Instant,
    done_ns: Vec<AtomicU64>,
    /// Time inside `ScaleSession::step`, summed (traced fleets only).
    timing: AtomicBool,
    step_ns: AtomicU64,
}

/// A `ScaleSession` that stamps when it finishes.
struct Timed {
    inner: ScaleSession,
    index: usize,
    stamps: Arc<Stamps>,
}

impl Task for Timed {
    fn step(&mut self, cx: &Context) -> Step {
        let step = if self.stamps.timing.load(Relaxed) {
            let started = Instant::now();
            let step = self.inner.step(cx);
            self.stamps
                .step_ns
                .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
            step
        } else {
            self.inner.step(cx)
        };
        if matches!(step, Step::Done) {
            self.stamps.done_ns[self.index]
                .store(self.stamps.origin.elapsed().as_nanos() as u64, Relaxed);
        }
        step
    }
}

/// A spawned, not yet run fleet.
struct Fleet {
    reactor: Reactor,
    stamps: Arc<Stamps>,
    outcomes: Receiver<(usize, ScaleOutcome)>,
    sessions: usize,
}

fn spawn(spec: &Arc<ScaleSpec>, seed: u64, sessions: usize) -> Fleet {
    let stamps = Arc::new(Stamps {
        origin: Instant::now(),
        done_ns: (0..sessions).map(|_| AtomicU64::new(0)).collect(),
        timing: AtomicBool::new(false),
        step_ns: AtomicU64::new(0),
    });
    let (tx, outcomes) = channel::unbounded();
    let mut reactor = Reactor::with_config(ReactorConfig {
        seed,
        workers: 1,
        ..ReactorConfig::default()
    });
    for i in 0..sessions {
        let inner = ScaleSession::new(Arc::clone(spec), faults(seed, i), i, tx.clone());
        reactor.spawn(Box::new(Timed {
            inner,
            index: i,
            stamps: Arc::clone(&stamps),
        }));
    }
    Fleet {
        reactor,
        stamps,
        outcomes,
        sessions,
    }
}

/// What one fleet run observed.
struct Run {
    wall_s: f64,
    /// Completion latency per session, milliseconds.
    latency_ms: Vec<f64>,
    rounds: u64,
    steps: u64,
    schedule: u64,
    fleet_digest: u64,
    dropped: u64,
    retransmits: u64,
    degraded: u64,
    undeliverable: u64,
    reported: usize,
    step_ns: u64,
}

fn fnv_fold(mut hash: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn run_fleet(mut fleet: Fleet) -> Run {
    let start_ns = fleet.stamps.origin.elapsed().as_nanos() as u64;
    let started = Instant::now();
    let rep = fleet.reactor.run();
    let wall_s = started.elapsed().as_secs_f64();
    drop(fleet.reactor);
    let mut slots: Vec<Option<ScaleOutcome>> = vec![None; fleet.sessions];
    for (i, o) in fleet.outcomes.iter() {
        slots[i] = Some(o);
    }
    let mut run = Run {
        wall_s,
        latency_ms: Vec::with_capacity(fleet.sessions),
        rounds: rep.rounds,
        steps: rep.steps,
        schedule: rep.digest.value(),
        fleet_digest: 0xcbf2_9ce4_8422_2325,
        dropped: 0,
        retransmits: 0,
        degraded: 0,
        undeliverable: 0,
        reported: 0,
        step_ns: fleet.stamps.step_ns.load(Relaxed),
    };
    for (slot, done) in slots.iter().zip(&fleet.stamps.done_ns) {
        let Some(o) = slot else { continue };
        run.reported += 1;
        run.fleet_digest = fnv_fold(run.fleet_digest, o.digest);
        run.dropped += o.dropped;
        run.retransmits += o.retransmits;
        run.degraded += u64::from(o.degraded_frames);
        run.undeliverable += u64::from(o.undeliverable);
        run.latency_ms
            .push(done.load(Relaxed).saturating_sub(start_ns) as f64 / 1e6);
    }
    run
}

/// The values a same-seed fleet must reproduce exactly.
fn fleet_key(r: &Run) -> [u64; 8] {
    [
        r.rounds,
        r.steps,
        r.schedule,
        r.fleet_digest,
        r.dropped,
        r.retransmits,
        r.degraded,
        r.undeliverable,
    ]
}

fn check_fleet(report: &mut Report, r: &Run, sessions: usize, reference: Option<&[u64; 8]>) {
    report.attempted += sessions as u64;
    let missing = sessions - r.reported;
    for _ in 0..missing {
        report.fail("a session never reported");
    }
    for _ in 0..r.undeliverable {
        report.fail("a picture packet was undeliverable");
    }
    if let Some(reference) = reference {
        report.check(fleet_key(r) == *reference, || {
            "fleet digest differs between runs".to_owned()
        });
    }
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    let n = opts.scale.fleet_sessions;
    if opts.trace {
        traced(opts, &mut report);
        return report;
    }
    let Ok((spec, frames)) = shared_spec() else {
        report.fail("fleet set-up failed");
        return report;
    };
    // The scale fleet: `n` concurrent sessions, run once, untimed. Its
    // outcomes are checked and give `outcome_share`; it sets the peak RSS.
    let scale = run_fleet(spawn(&spec, opts.seed, n));
    check_fleet(&mut report, &scale, n, None);
    let degraded_share = scale.degraded as f64 / (scale.reported.max(1) as f64 * f64::from(frames));
    report.det("scale_fleet", format!("{:?}", fleet_key(&scale)));
    drop(scale);

    // Timed set-ups of a timed fleet: serve the shared stream, spawn the
    // fleet. The last one is run untimed as the warm-up and the reference.
    let m = opts.scale.timed_sessions;
    let mut setup = Vec::new();
    let mut prepared = None;
    for _ in 0..opts.scale.setups.max(1) {
        drop(prepared.take());
        let started = Instant::now();
        let Ok((spec, _)) = shared_spec() else {
            report.fail("fleet set-up failed");
            return report;
        };
        let fleet = spawn(&spec, opts.seed, m);
        setup.push(started.elapsed().as_secs_f64());
        prepared = Some(fleet);
    }
    let Some(fleet) = prepared else {
        return report;
    };
    let warm = run_fleet(fleet);
    check_fleet(&mut report, &warm, m, None);
    let reference = fleet_key(&warm);
    drop(warm);

    // Measured fleets: each is spawned outside the measured time, and
    // only `Reactor::run` counts against `--seconds`. Every fleet repeats
    // the same schedule, so each session's completion time and the
    // fleet's wall time are timed on every repetition; each keeps its
    // minimum over the fleets.
    let mut done_ms = vec![f64::INFINITY; m];
    let mut wall = f64::INFINITY;
    let (mut measured, mut fleets) = (0.0, 0);
    loop {
        // Every `SETUP_EVERY`th fleet is set up from scratch and timed, so
        // the `setup_s` samples spread over the run.
        let fleet = if fleets % SETUP_EVERY == 0 {
            let started = Instant::now();
            let Ok((spec, _)) = shared_spec() else {
                report.fail("fleet set-up failed");
                return report;
            };
            let fleet = spawn(&spec, opts.seed, m);
            setup.push(started.elapsed().as_secs_f64());
            fleet
        } else {
            spawn(&spec, opts.seed, m)
        };
        let r = run_fleet(fleet);
        check_fleet(&mut report, &r, m, Some(&reference));
        if r.latency_ms.len() == m {
            for (best, t) in done_ms.iter_mut().zip(&r.latency_ms) {
                *best = best.min(*t);
            }
            wall = wall.min(r.wall_s);
        }
        measured += r.wall_s;
        fleets += 1;
        if should_stop(fleets, measured, opts.seconds) {
            break;
        }
    }
    if !wall.is_finite() {
        return report;
    }
    let p50 = stats::median(&done_ms);
    let (tail_pct, tail) = stats::tail(&done_ms);
    report.set("setup_s", stats::median(&setup));
    report.set("throughput_per_s", m as f64 / wall);
    report.set("latency_p50_ms", p50);
    report.set("latency_tail_ms", tail);
    report.set("outcome_share", 1.0 - degraded_share);
    report.det("fleet", format!("{:?}", reference));
    report.note(format!(
        "sessions_per_s = {:.1} (throughput_per_s), fastest of {fleets} fleets of {m} sessions",
        m as f64 / wall
    ));
    report.note(format!(
        "session completion p50 = {p50:.3} ms, p{tail_pct} = {tail:.3} ms of {m} per-session \
         minima over fleets (latency_p50_ms, latency_tail_ms)"
    ));
    report.note(format!(
        "scale fleet: {n} concurrent sessions, degraded_share = {degraded_share:.6} \
         (outcome_share = 1 - degraded_share)"
    ));
    report
}

/// Measured fleets per timed set-up.
const SETUP_EVERY: usize = 32;

/// Traced fleets, each paired with an untraced one.
const TRACED_FLEETS: usize = 40;

/// The traced run, on timed-size fleets: [`TRACED_FLEETS`] pairs of an
/// untraced fleet and a traced one.
fn traced(opts: &Options, report: &mut Report) {
    let m = opts.scale.timed_sessions;
    let mut tr = Tracer::new();
    let Ok((spec, frames)) = tr.span("stream.serve_once", shared_spec) else {
        report.fail("fleet set-up failed");
        return;
    };
    let warm = run_fleet(spawn(&spec, opts.seed, m));
    check_fleet(report, &warm, m, None);
    let reference = fleet_key(&warm);
    let (mut plain_s, mut traced_s, mut step_ns) = (0.0, 0.0, 0u64);
    for i in 0..TRACED_FLEETS {
        let plain = run_fleet(spawn(&spec, opts.seed, m));
        check_fleet(report, &plain, m, Some(&reference));
        plain_s += plain.wall_s;
        tr.set_group(i as u32);
        // Allocations are counted while a fleet spawns only: per-packet
        // allocations in the run would otherwise pay for the counting.
        alloc::set_counting(true);
        let fleet = tr.span("machine.spawn", || spawn(&spec, opts.seed, m));
        alloc::set_counting(false);
        fleet.stamps.timing.store(true, Relaxed);
        let traced = tr.span("reactor.run", || run_fleet(fleet));
        check_fleet(report, &traced, m, Some(&reference));
        traced_s += traced.wall_s;
        step_ns += traced.step_ns;
    }
    let totals = tr.self_totals();
    let spawn_t = totals.get("machine.spawn").copied().unwrap_or_default();
    let fleets = TRACED_FLEETS as f64;
    let steps = (warm.steps as f64 * fleets).max(1.0);
    let sessions = m as f64 * fleets;
    let run_ns = traced_s * 1e9;
    report.set("reactor.ns_per_step", run_ns / steps);
    report.set("machine.step_ns_per_step", step_ns as f64 / steps);
    report.set(
        "reactor.sched_ns_per_step",
        (run_ns - step_ns as f64) / steps,
    );
    report.set("reactor.rounds", warm.rounds as f64);
    report.set("reactor.steps", warm.steps as f64);
    report.set("machine.bytes_per_session", spawn_t.bytes as f64 / sessions);
    report.set(
        "machine.spawn_us_per_session",
        spawn_t.ns as f64 / 1e3 / sessions,
    );
    report.set("faults.dropped", warm.dropped as f64);
    report.set("faults.retransmits", warm.retransmits as f64);
    report.set("faults.undeliverable", warm.undeliverable as f64);
    report.set(
        "faults.degraded_share",
        warm.degraded as f64 / (warm.reported.max(1) as f64 * f64::from(frames)),
    );
    report.set("trace.overhead_share", traced_s / plain_s - 1.0);
    report.det("fleet", format!("{reference:?}"));
    report.trace_json = Some(tr.to_json(1_000));
}
