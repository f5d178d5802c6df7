//! Whole-session benchmark for the annolight workspace.
//!
//! Three workloads, each running only its own traffic:
//!
//! * [`proxy`] — closed-loop proxy-site sessions through `run_session`;
//! * [`serve`] — a flash-crowd trace replayed tick by tick against an
//!   inline `AnnotationService`;
//! * [`reactor`] — 100k concurrent `ScaleSession`s on one single-worker
//!   `Reactor`.
//!
//! The untraced run reports the [`metrics::END_TO_END`] set; a separate
//! traced run (`--trace 1`) wraps spans around the public calls into each
//! crate and reports [`metrics::PER_LAYER`]. See `README.md`.

pub mod alloc;
pub mod host;
pub mod metrics;
pub mod proxy;
pub mod reactor;
pub mod serve;
pub mod stats;
pub mod trace;

use annolight_support::json::Json;
use annolight_support::json_obj;
use std::collections::BTreeMap;
use std::fmt;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Proxy-site sessions: every data-plane layer in order.
    ProxyTranscode,
    /// The annotation service's control plane.
    ServeFleet,
    /// The reactor, timer wheel, channels and fault replay.
    ReactorFleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ProxyTranscode,
        Workload::ServeFleet,
        Workload::ReactorFleet,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProxyTranscode => "proxy_transcode",
            Workload::ServeFleet => "serve_fleet",
            Workload::ReactorFleet => "reactor_fleet",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Input sizes. [`Scale::full`] is what the benchmark command runs;
/// [`Scale::tiny`] keeps the benchmark's own tests quick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Seconds of each paper clip a proxy session streams.
    pub preview_s: f64,
    /// Paper clips in the proxy cycle (of ten).
    pub clips: usize,
    /// Quality levels in the proxy cycle (of Q5, Q10, Q15, Q20).
    pub qualities: usize,
    /// Ticks in the serve trace.
    pub serve_ticks: u32,
    /// Clips in the serve corpus.
    pub serve_corpus: usize,
    /// Concurrent sessions in the reactor's scale fleet.
    pub fleet_sessions: usize,
    /// Concurrent sessions in each timed reactor fleet.
    pub timed_sessions: usize,
    /// Set-ups timed before measuring (their median is `setup_s`).
    pub setups: usize,
}

impl Scale {
    /// The benchmark's sizes.
    #[must_use]
    pub fn full() -> Self {
        Self {
            preview_s: 1.0,
            clips: 10,
            qualities: 4,
            serve_ticks: 2400,
            serve_corpus: 1_000,
            fleet_sessions: 100_000,
            timed_sessions: 2_000,
            setups: 3,
        }
    }

    /// Small sizes for tests: every code path, a fraction of the work.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            preview_s: 0.5,
            clips: 2,
            qualities: 2,
            serve_ticks: 40,
            serve_corpus: 300,
            fleet_sessions: 2_000,
            timed_sessions: 200,
            setups: 2,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// What a run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (sessions, requests or fleet sessions).
    pub attempted: u64,
    /// Errors plus failed output checks.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines naming each figure in the workload's own
    /// terms (frames/s, tick latency, ...), printed before the result.
    pub notes: Vec<String>,
    /// Seed-determined digests and counts: equal for equal seeds.
    pub deterministic: BTreeMap<String, String>,
    /// The traced run's spans (traced runs only).
    pub trace_json: Option<Json>,
}

impl Report {
    /// Records one failed operation or check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(msg.into());
        }
    }

    /// Records a check; `msg` is built only when it fails.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(msg());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a deterministic value.
    pub fn det(&mut self, key: &str, value: impl fmt::Display) {
        self.deterministic.insert(key.to_owned(), value.to_string());
    }

    /// The metric set the run must print.
    #[must_use]
    pub fn expected(trace: bool) -> &'static [metrics::MetricDef] {
        if trace {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        }
    }

    /// Whether every check passed and every expected metric is a finite
    /// number.
    #[must_use]
    pub fn correct(&self, trace: bool) -> bool {
        self.failed == 0
            && self.attempted > 0
            && Self::expected(trace)
                .iter()
                .all(|d| self.metrics.get(d.name).is_some_and(|v| v.is_finite()))
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn result_json(&self, trace: bool) -> Json {
        let metrics = Self::expected(trace)
            .iter()
            .map(|d| {
                let value = self.metrics.get(d.name).copied().unwrap_or(f64::NAN);
                (
                    d.name.to_owned(),
                    json_obj!({ "value": value, "unit": d.unit }),
                )
            })
            .collect();
        json_obj!({
            "correct": self.correct(trace),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Json::Obj(metrics),
        })
    }
}

/// Runs `workload` and returns what it measured.
#[must_use]
pub fn run(workload: Workload, opts: &Options) -> Report {
    let mut report = match workload {
        Workload::ProxyTranscode => proxy::run(opts),
        Workload::ServeFleet => serve::run(opts),
        Workload::ReactorFleet => reactor::run(opts),
    };
    if opts.trace {
        // Layers this workload's traffic never reaches read 0.
        for d in metrics::PER_LAYER {
            report.metrics.entry(d.name).or_insert(0.0);
        }
    } else {
        let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
        report.set("ok_share", ok.max(0.0));
        report.set("peak_rss_mib", host::peak_rss_mib().unwrap_or(f64::NAN));
    }
    report
}

/// Fewest measured repetitions of a cycle, replay or fleet.
pub const MIN_REPEATS: usize = 2;

/// Whether a measuring loop that has run `done` repetitions in `elapsed`
/// seconds should stop: once [`MIN_REPEATS`] is met, it stops at the
/// repetition count that ends closest to the `target` seconds.
#[must_use]
pub fn should_stop(done: usize, elapsed: f64, target: f64) -> bool {
    if done < MIN_REPEATS {
        return false;
    }
    let per = elapsed / done as f64;
    elapsed + per / 2.0 >= target
}
