//! The benchmark's own tests: determinism per seed, seed sensitivity,
//! and agreement between the printed metric names and `BENCHMARK.json`.

use annolight_support::json::Json;
use sessionbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use sessionbench::{run, Options, Report, Scale, Workload};
use std::path::Path;

fn opts(seed: u64, trace: bool) -> Options {
    Options {
        seed,
        seconds: 0.01,
        trace,
        scale: Scale::tiny(),
    }
}

/// The seed-determined part of a report: its digests and counts, plus
/// the metrics that are counts or ratios of counts.
fn deterministic(r: &Report) -> Vec<(String, String)> {
    const EXACT: [&str; 18] = [
        "outcome_share",
        "codec.bytes_per_frame",
        "imgproc.clipped_share",
        "serve.hits",
        "serve.misses",
        "serve.evictions",
        "serve.clip_profiles",
        "serve.resident_bytes",
        "serve.overloaded",
        "serve.queue_depth_max",
        "serve.reject_share",
        "reactor.rounds",
        "reactor.steps",
        "faults.dropped",
        "faults.retransmits",
        "faults.undeliverable",
        "faults.degraded_share",
        "ok_share",
    ];
    let mut out: Vec<(String, String)> = r
        .deterministic
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    for name in EXACT {
        if let Some(v) = r.metrics.get(name) {
            out.push((name.to_owned(), format!("{v:?}")));
        }
    }
    out.push(("attempted".to_owned(), r.attempted.to_string()));
    out
}

fn checked(workload: Workload, o: &Options) -> Report {
    let r = run(workload, o);
    assert!(
        r.correct(o.trace),
        "{workload} (trace {}) failed: {:?}",
        o.trace,
        r.failures
    );
    r
}

#[test]
fn same_seed_repeats_deterministic_metrics_and_counts() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let a = checked(workload, &opts(7, trace));
            let b = checked(workload, &opts(7, trace));
            let (da, db) = (deterministic(&a), deterministic(&b));
            assert!(da.len() > 2, "{workload}: too little to compare: {da:?}");
            if trace {
                assert_eq!(da, db, "{workload}: traced counts differ for one seed");
            } else {
                // The number of measured repetitions follows the clock;
                // everything else must repeat.
                let strip = |d: Vec<(String, String)>| -> Vec<(String, String)> {
                    d.into_iter().filter(|(k, _)| k != "attempted").collect()
                };
                assert_eq!(
                    strip(da),
                    strip(db),
                    "{workload}: metrics differ for one seed"
                );
            }
        }
    }
}

#[test]
fn a_different_seed_changes_the_input_digest() {
    for (workload, key) in [
        (Workload::ProxyTranscode, "plan_digest"),
        (Workload::ServeFleet, "trace_digest"),
        (Workload::ReactorFleet, "fleet"),
    ] {
        let a = checked(workload, &opts(7, false));
        let b = checked(workload, &opts(8, false));
        assert_ne!(
            a.deterministic.get(key),
            b.deterministic.get(key),
            "{workload}: seeds 7 and 8 gave the same {key}"
        );
    }
}

fn declared(doc: &Json, key: &str) -> Vec<MetricDef> {
    let list = doc
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} missing"));
    list.iter()
        .map(|m| {
            let s = |f: &str| -> &'static str {
                let v = m
                    .get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{f} missing"));
                Box::leak(v.to_owned().into_boxed_str())
            };
            MetricDef {
                name: s("name"),
                unit: s("unit"),
                better: s("better"),
            }
        })
        .collect()
}

fn printed_names(line: &str) -> Vec<String> {
    let doc = Json::parse(line).expect("the result line is JSON");
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object")
    };
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn printed_metric_names_equal_benchmark_json() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(declared(&doc, "end_to_end"), END_TO_END);
    assert_eq!(declared(&doc, "per_layer"), PER_LAYER);
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    for workload in Workload::ALL {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let r = checked(workload, &opts(3, trace));
            let names = printed_names(&r.result_json(trace).to_string());
            let want: Vec<String> = defs.iter().map(|d| d.name.to_owned()).collect();
            assert_eq!(names, want, "{workload} trace {trace}");
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in Workload::ALL {
        let r = checked(workload, &opts(4, false));
        for d in END_TO_END {
            let v = r.metrics[d.name];
            assert!(v > 0.0, "{workload}: {} = {v}", d.name);
        }
    }
}
