//! Command-line harness regenerating the paper's experiments.
//!
//! ```bash
//! cargo run --release -p fdb-bench --bin experiments -- all --quick
//! cargo run --release -p fdb-bench --bin experiments -- exp1
//! cargo run --release -p fdb-bench --bin experiments -- exp3 --quick
//! ```
//!
//! Every experiment prints a plain-text table whose rows correspond to the
//! series of the paper's figures.

use fdb_bench::{exp1, exp2, exp3, exp4, pr1, pr10, pr4, pr6, pr7, pr8, pr9, report, Scale};
use std::time::Instant;

/// Shared driver of the PR 2+ benchmarks: run at the requested scale, print
/// the table, write the JSON report (`--scale smoke` skips the file).
fn run_bench<R>(
    label: &str,
    path: &str,
    smoke: bool,
    run: impl FnOnce(bool) -> R,
    table: impl FnOnce(&R) -> String,
    json: impl FnOnce(&R) -> String,
) {
    let start = Instant::now();
    let report = run(smoke);
    print!("{}", table(&report));
    report::write_bench_file(path, &json(&report), smoke);
    println!("({label} finished in {:?})\n", start.elapsed());
}

/// Runs the PR 1 enumeration benchmark and writes its machine-readable
/// output.  With `--baseline`, writes `BENCH_BASELINE.json` (raw rows) for a
/// later run to compare against; otherwise writes `BENCH_PR1.json`, merging
/// `BENCH_BASELINE.json` (if present in the working directory) and reporting
/// per-workload and geometric-mean speedups.  At `--scale smoke` only the
/// grocery workload runs and nothing is written — a CI bit-rot canary.
fn run_bench_pr1(baseline_mode: bool, smoke: bool) {
    let start = Instant::now();
    let rows = if smoke { pr1::run_smoke() } else { pr1::run() };
    for row in &rows {
        println!(
            "{:<26} {:>12} tuples  {:>12.0} tuples/s  (reps {}, materialize {:.4}s)",
            row.name, row.tuples, row.tuples_per_sec, row.reps, row.materialize_seconds
        );
    }
    if smoke {
        println!("\n(smoke scale: no file written)");
    } else if baseline_mode {
        std::fs::write("BENCH_BASELINE.json", pr1::render_json(&rows))
            .expect("writing BENCH_BASELINE.json");
        println!("\nwrote BENCH_BASELINE.json");
    } else {
        let baseline_rows = std::fs::read_to_string("BENCH_BASELINE.json")
            .ok()
            .map(|text| pr1::parse_json(&text));
        let output = pr1::render_comparison_json(&rows, baseline_rows.as_deref());
        std::fs::write("BENCH_PR1.json", &output).expect("writing BENCH_PR1.json");
        println!("\nwrote BENCH_PR1.json");
        if baseline_rows.is_none() {
            println!("(no BENCH_BASELINE.json found — emitted fresh rows only)");
        }
    }
    println!("(bench-pr1 finished in {:?})\n", start.elapsed());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    // `--scale smoke` shrinks the PR benchmarks to a CI-friendly canary run;
    // `--scale full` (the default) runs the committed measurement sizes.
    // The scale value is consumed here so it never leaks into the
    // experiment-selector list below.
    let mut scale_value: Option<&str> = None;
    if let Some(pos) = args.iter().position(|a| a == "--scale") {
        match args.get(pos + 1).map(String::as_str) {
            Some(v @ ("smoke" | "full")) => scale_value = Some(v),
            Some(v) => {
                eprintln!("error: unknown --scale value {v:?} (expected \"smoke\" or \"full\")");
                std::process::exit(2);
            }
            None => {
                eprintln!("error: --scale requires a value (\"smoke\" or \"full\")");
                std::process::exit(2);
            }
        }
    }
    let smoke = scale_value == Some("smoke");
    let which: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with('-') && Some(*a) != scale_value)
        .collect();
    let run_all = which.is_empty() || which.contains(&"all");

    if which.contains(&"bench-pr1") {
        run_bench_pr1(args.iter().any(|a| a == "--baseline"), smoke);
        return;
    }
    if which.contains(&"bench-pr4") {
        // Factorised aggregation vs materialise-then-aggregate, and the
        // arena pass vs the fused overlay pass.
        run_bench(
            "bench-pr4",
            "BENCH_PR4.json",
            smoke,
            |smoke| {
                pr4::run(if smoke {
                    pr4::Pr4Scale::Smoke
                } else {
                    pr4::Pr4Scale::Full
                })
            },
            pr4::render_table,
            pr4::render_json,
        );
        return;
    }
    if which.contains(&"bench-pr7") {
        // Governance overhead: armed-but-never-tripping limits vs the
        // ungoverned APIs across every governed code path.
        run_bench(
            "bench-pr7",
            "BENCH_PR7.json",
            smoke,
            |smoke| {
                pr7::run(if smoke {
                    pr7::Pr7Scale::Smoke
                } else {
                    pr7::Pr7Scale::Full
                })
            },
            pr7::render_table,
            pr7::render_json,
        );
        return;
    }
    if which.contains(&"bench-pr8") {
        // Durability and hot swap: snapshot save/load throughput, the
        // structural-verification overhead of the loader, swap latency
        // under concurrent serving, and targeted cache invalidation.
        run_bench(
            "bench-pr8",
            "BENCH_PR8.json",
            smoke,
            |smoke| {
                pr8::run(if smoke {
                    pr8::Pr8Scale::Smoke
                } else {
                    pr8::Pr8Scale::Full
                })
            },
            pr8::render_table,
            pr8::render_json,
        );
        return;
    }
    if which.contains(&"bench-pr9") {
        // Analytics heads: ordered enumeration via costed restructuring vs
        // materialise-then-sort (including the honest refused-lift row),
        // and grouped aggregation vs plain-iterator grouping.
        run_bench(
            "bench-pr9",
            "BENCH_PR9.json",
            smoke,
            |smoke| {
                pr9::run(if smoke {
                    pr9::Pr9Scale::Smoke
                } else {
                    pr9::Pr9Scale::Full
                })
            },
            pr9::render_table,
            pr9::render_json,
        );
        return;
    }
    if which.contains(&"bench-pr10") {
        // SoA entry layout + vectorised scan kernels: the interleaved PR 9
        // record baseline vs the scalar kernels over the split value array
        // vs the dispatched (AVX2 with `--features simd`) kernels.
        run_bench(
            "bench-pr10",
            "BENCH_PR10.json",
            smoke,
            |smoke| {
                pr10::run(if smoke {
                    pr10::Pr10Scale::Smoke
                } else {
                    pr10::Pr10Scale::Full
                })
            },
            pr10::render_table,
            pr10::render_json,
        );
        return;
    }
    if which.contains(&"bench-pr6") {
        // Concurrent serving: stall-model and pure-CPU queries/second under
        // a Zipf-skewed query mix, plus parallel enumeration.
        run_bench(
            "bench-pr6",
            "BENCH_PR6.json",
            smoke,
            |smoke| {
                pr6::run(if smoke {
                    pr6::Pr6Scale::Smoke
                } else {
                    pr6::Pr6Scale::Full
                })
            },
            pr6::render_table,
            pr6::render_json,
        );
        return;
    }

    println!(
        "FDB experiment harness — scale: {:?} (use --quick for a fast run)\n",
        scale
    );

    if run_all || which.contains(&"exp1") {
        let start = Instant::now();
        // The paper sweeps R = 1..8, K = 1..9; the quick scale trims the
        // largest settings to keep the run short.
        let (max_r, max_k) = match scale {
            Scale::Quick => (6, 6),
            Scale::Full => (8, 9),
        };
        let rows = exp1::run(scale, max_r, max_k);
        println!("{}", report::render_exp1(&rows));
        println!("(exp1 finished in {:?})\n", start.elapsed());
    }

    if run_all || which.contains(&"exp2") {
        let start = Instant::now();
        let (max_k, max_l) = match scale {
            Scale::Quick => (6, 4),
            Scale::Full => (8, 6),
        };
        let rows = exp2::run(scale, max_k, max_l);
        println!("{}", report::render_exp2(&rows));
        println!("(exp2 finished in {:?})\n", start.elapsed());
    }

    if run_all || which.contains(&"exp3") {
        let start = Instant::now();
        let rows = exp3::run(scale);
        println!("{}", report::render_exp3(&rows));
        println!("(exp3 finished in {:?})\n", start.elapsed());
    }

    if run_all || which.contains(&"exp4") {
        let start = Instant::now();
        let rows = exp4::run(scale);
        println!("{}", report::render_exp4(&rows));
        println!("(exp4 finished in {:?})\n", start.elapsed());
    }
}
