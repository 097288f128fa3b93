//! Command line of the end-to-end benchmark:
//!
//! ```text
//! fdb-e2ebench --workload <flat-join|factorised-followup|serve-mix>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host record and diagnostics first and, as the last line of
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`.  Exits non-zero, printing no result, when the
//! arguments are invalid or the workload cannot run.

use fdb_e2ebench::{host_json, run, Config, Scale, WORKLOADS};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => config.workload = value.clone(),
            "--seed" => config.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => config.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&config.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {WORKLOADS:?}",
            config.workload
        ));
    }
    if !config.seconds.is_finite() || config.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fdb-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", host_json());
    match run(&config) {
        Ok(report) => {
            println!(
                "failed_ratio {}",
                report.failed as f64 / report.attempted.max(1) as f64
            );
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fdb-e2ebench: {} failed: {e}", config.workload);
            ExitCode::FAILURE
        }
    }
}
