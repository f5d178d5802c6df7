//! Times the profile→plan→compensate pipeline: legacy float serial
//! baseline and scalar-LUT reference vs. the dispatched SIMD pipeline
//! at several worker counts plus the batched multi-clip scheduler.
//! Also times BT.601 colour conversion in both directions, the scalar
//! reference against the active kernel tier. Pass `--test` for a
//! sub-second smoke run (used by CI); in smoke mode the best SIMD row
//! must clear a 2x speedup floor over the scalar LUT pipeline, and every
//! colour row a 3x floor over the scalar reference. Pass `--out PATH` to
//! persist the table, with its host fingerprint, as JSON (the committed
//! `BENCH_pipeline.json` trajectory).
use annolight_bench::figures::pipeline_throughput;
use annolight_support::json::to_string_pretty;

/// Issue-10 floor: the SIMD/batched pipeline must be at least this much
/// faster than the scalar fixed-point LUT pipeline on wide cores.
const SPEEDUP_FLOOR_VS_LUT: f64 = 2.0;

/// The vector colour kernels must be at least this much faster than the
/// per-pixel scalar reference.
const COLOUR_SPEEDUP_FLOOR: f64 = 3.0;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--test");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let t = if smoke {
        pipeline_throughput::run(0.6, 1)
    } else {
        pipeline_throughput::run(8.0, 3)
    };
    print!("{}", pipeline_throughput::render(&t));
    if let Some(path) = out_path {
        let mut doc = to_string_pretty(&t);
        doc.push('\n');
        std::fs::write(&path, doc).expect("bench output path is writable");
        println!("\nwrote {path}");
    }
    if smoke {
        assert_eq!(
            t.rows.len(),
            2 + pipeline_throughput::WORKER_COUNTS.len()
                + pipeline_throughput::BATCHED_WORKER_COUNTS.len(),
            "smoke mode expects every configured row"
        );
        let best = t
            .rows
            .iter()
            .filter(|r| r.label.contains("SIMD"))
            .max_by(|a, b| a.speedup_vs_lut.total_cmp(&b.speedup_vs_lut))
            .expect("SIMD rows present");
        assert!(
            best.speedup_vs_lut >= SPEEDUP_FLOOR_VS_LUT,
            "best SIMD pipeline row `{}` is {:.2}x vs the scalar LUT pipeline, \
             below the {SPEEDUP_FLOOR_VS_LUT}x floor",
            best.label,
            best.speedup_vs_lut
        );
        // A host without a vector tier (or a run pinned to `scalar`)
        // times the reference against itself; there is no floor to hold.
        if t.tier != "scalar" {
            for r in &t.colour {
                assert!(
                    r.speedup >= COLOUR_SPEEDUP_FLOOR,
                    "{} at {}x{} is {:.2}x vs the scalar reference, below the \
                     {COLOUR_SPEEDUP_FLOOR}x floor",
                    r.direction,
                    r.width,
                    r.height,
                    r.speedup
                );
            }
        }
        let slowest = t.colour.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
        println!(
            "\npipeline_throughput --test: ok ({} rows, best `{}` {:.2}x vs LUT, floor {SPEEDUP_FLOOR_VS_LUT}x; \
             slowest colour row {slowest:.2}x vs scalar, floor {COLOUR_SPEEDUP_FLOOR}x)",
            t.rows.len(),
            best.label,
            best.speedup_vs_lut
        );
    }
}
