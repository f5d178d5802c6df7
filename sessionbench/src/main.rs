//! `sessionbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint, human-readable figures, and as its last
//! line one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Traced runs also write their spans to `out/` beside this package.

use annolight_support::json;
use annolight_support::json_obj;
use sessionbench::alloc::CountingAlloc;
use sessionbench::host::Fingerprint;
use sessionbench::{run, Options, Scale, Workload};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn parse(args: &[String]) -> Result<(Workload, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 30.0,
        trace: false,
        scale: Scale::full(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sessionbench: {e}");
            eprintln!("usage: sessionbench --workload <proxy_transcode|serve_fleet|reactor_fleet> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let host = Fingerprint::read();
    println!("host {}", json::to_string(&host));
    if host.tier_pinned {
        println!(
            "note: ANNOLIGHT_KERNEL_TIER pins the kernel tier; not comparable with unpinned runs"
        );
    }
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let report = run(workload, &opts);
    for line in &report.notes {
        println!("  {line}");
    }
    for (k, v) in &report.deterministic {
        println!("  det {k} = {v}");
    }
    for f in &report.failures {
        println!("  FAILED: {f}");
    }
    if let Some(trace) = &report.trace_json {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{workload}-{}.json", opts.seed));
        let body = json_obj!({
            "host": host,
            "workload": workload.name(),
            "seed": opts.seed,
            "trace": trace,
        })
        .to_string();
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => println!("  could not write spans to {}: {e}", path.display()),
        }
    }
    println!("{}", report.result_json(opts.trace));
    ExitCode::SUCCESS
}
