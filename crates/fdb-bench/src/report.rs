//! Plain-text table rendering of experiment results.
//!
//! The `experiments` binary prints these tables; `EXPERIMENTS.md` embeds
//! them next to the corresponding figures of the paper.

use crate::exp1::Exp1Row;
use crate::exp2::Exp2Row;
use crate::exp3::{Exp3Row, Measurement};
use crate::exp4::Exp4Row;
use std::fmt::Write as _;
use std::time::Duration;

/// Line-oriented JSON builder shared by the per-PR bench reports
/// (`BENCH_PR1.json`..`BENCH_PR6.json` all have the same shape: a
/// `benchmark` name, arrays of one-line row objects, trailing scalar
/// summaries).  Each `render_json` keeps only its row formatting; the
/// brace/comma/indent plumbing lives here once.
pub struct BenchJson {
    out: String,
}

impl BenchJson {
    /// Starts a report: `{"benchmark": <name>, "host": {...}, ...`.
    ///
    /// Every report opens with a `host` object (CPU model, core count,
    /// `FDB_THREADS`, compiled feature flags) so that committed
    /// `BENCH_*.json` files are comparable across machines: a regression
    /// that is really a hardware or configuration difference is visible in
    /// the report itself instead of needing provenance archaeology.
    pub fn new(benchmark: &str) -> Self {
        let mut out = format!("{{\n  \"benchmark\": \"{benchmark}\"");
        let _ = write!(out, ",\n  \"host\": {}", host_json());
        BenchJson { out }
    }

    /// Appends an array field; `render_row` produces one row object
    /// (braces included, no indentation, no trailing comma).
    pub fn array<T>(mut self, key: &str, rows: &[T], render_row: impl Fn(&T) -> String) -> Self {
        let _ = write!(self.out, ",\n  \"{key}\": [\n");
        for (i, row) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(self.out, "    {}{}", render_row(row), comma);
        }
        self.out.push_str("  ]");
        self
    }

    /// Appends a scalar field; `value` is inserted verbatim (pre-format
    /// numbers with the precision the report wants).
    pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        let _ = write!(self.out, ",\n  \"{key}\": {value}");
        self
    }

    /// Closes the report.
    pub fn finish(mut self) -> String {
        self.out.push_str("\n}\n");
        self.out
    }
}

/// CPU model name from `/proc/cpuinfo`, or `"unknown"` anywhere the file is
/// missing or shaped differently.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The `host` metadata object embedded in every report (see
/// [`BenchJson::new`]): CPU model, logical core count, the `FDB_THREADS`
/// override if set, and the cargo features that change measured code paths.
fn host_json() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let fdb_threads = match std::env::var("FDB_THREADS") {
        Ok(v) => format!("\"{}\"", v.escape_default()),
        Err(_) => "null".into(),
    };
    let mut features: Vec<&str> = Vec::new();
    if cfg!(feature = "simd") {
        features.push("\"simd\"");
    }
    format!(
        "{{\"cpu\": \"{}\", \"cores\": {}, \"fdb_threads\": {}, \"features\": [{}]}}",
        cpu_model().escape_default(),
        cores,
        fdb_threads,
        features.join(", ")
    )
}

/// Writes a benchmark's JSON report (or reports the smoke-scale skip) — the
/// shared tail of every `bench-prN` subcommand.
pub fn write_bench_file(path: &str, json: &str, smoke: bool) {
    if smoke {
        println!("\n(smoke scale: no file written)");
    } else {
        std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\nwrote {path}");
    }
}

fn fmt_duration(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2} s", d.as_secs_f64())
    } else if d.as_secs_f64() >= 1e-3 {
        format!("{:.2} ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1} µs", d.as_secs_f64() * 1e6)
    }
}

fn fmt_measurement(m: &Measurement) -> (String, String) {
    match m {
        Measurement::Finished { time, size, .. } => (size.to_string(), fmt_duration(*time)),
        Measurement::TimedOut => ("—".into(), "timeout".into()),
    }
}

/// Renders the Experiment 1 table (Figure 5).
pub fn render_exp1(rows: &[Exp1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Experiment 1 — query optimisation on flat data (Figure 5)"
    );
    let _ = writeln!(
        out,
        "{:>3} {:>3} {:>14} {:>10}",
        "R", "K", "opt time", "s(T)"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:>3} {:>3} {:>14} {:>10.2}",
            row.relations,
            row.equalities,
            fmt_duration(row.optimisation_time),
            row.cost
        );
    }
    out
}

/// Renders the Experiment 2 tables (Figures 6 and 9).
pub fn render_exp2(rows: &[Exp2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Experiment 2 — query optimisation on factorised data (Figures 6 and 9)"
    );
    let _ = writeln!(
        out,
        "{:>3} {:>3} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "K",
        "L",
        "full s(f)",
        "full s(T)",
        "greedy s(f)",
        "greedy s(T)",
        "full time",
        "greedy time"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:>3} {:>3} {:>10.2} {:>10.2} {:>12.2} {:>12.2} {:>12} {:>12}",
            row.input_equalities,
            row.query_equalities,
            row.full_plan_cost,
            row.full_result_cost,
            row.greedy_plan_cost,
            row.greedy_result_cost,
            fmt_duration(row.full_time),
            fmt_duration(row.greedy_time),
        );
    }
    out
}

/// Renders the Experiment 3 table (Figure 7).
pub fn render_exp3(rows: &[Exp3Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Experiment 3 — query evaluation on flat data (Figure 7)"
    );
    let _ = writeln!(
        out,
        "{:>16} {:>7} {:>3} {:>14} {:>16} {:>12} {:>12}",
        "workload", "N", "K", "FDB singles", "RDB elements", "FDB time", "RDB time"
    );
    for row in rows {
        let (fdb_size, fdb_time) = fmt_measurement(&row.fdb);
        let (rdb_size, rdb_time) = fmt_measurement(&row.rdb);
        let _ = writeln!(
            out,
            "{:>16} {:>7} {:>3} {:>14} {:>16} {:>12} {:>12}",
            row.workload, row.n, row.equalities, fdb_size, rdb_size, fdb_time, rdb_time,
        );
    }
    out
}

/// Renders the Experiment 4 table (Figure 8).
pub fn render_exp4(rows: &[Exp4Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Experiment 4 — query evaluation on factorised data (Figure 8)"
    );
    let _ = writeln!(
        out,
        "{:>3} {:>3} {:>14} {:>16} {:>14} {:>16} {:>12} {:>12}",
        "K",
        "L",
        "input singles",
        "input elements",
        "FDB singles",
        "RDB elements",
        "FDB time",
        "RDB time"
    );
    for row in rows {
        let (fdb_size, fdb_time) = fmt_measurement(&row.fdb);
        let (rdb_size, rdb_time) = fmt_measurement(&row.rdb);
        let _ = writeln!(
            out,
            "{:>3} {:>3} {:>14} {:>16} {:>14} {:>16} {:>12} {:>12}",
            row.input_equalities,
            row.query_equalities,
            row.input_singletons,
            if row.input_data_elements == 0 {
                "—".into()
            } else {
                row.input_data_elements.to_string()
            },
            fdb_size,
            rdb_size,
            fdb_time,
            rdb_time,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_open_with_host_metadata() {
        let json = BenchJson::new("bench-test")
            .field("elapsed_ms", 12)
            .finish();
        assert!(json.starts_with("{\n  \"benchmark\": \"bench-test\""));
        assert!(json.contains("\"host\": {\"cpu\": \""));
        assert!(json.contains("\"cores\": "));
        assert!(json.contains("\"fdb_threads\": "));
        assert!(json.contains("\"features\": ["));
    }

    #[test]
    fn duration_formatting_picks_sensible_units() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7.0 µs");
    }

    #[test]
    fn tables_contain_headers_and_rows() {
        let rows = vec![Exp1Row {
            relations: 3,
            equalities: 2,
            optimisation_time: Duration::from_millis(1),
            cost: 1.5,
            repetitions: 5,
        }];
        let table = render_exp1(&rows);
        assert!(table.contains("s(T)"));
        assert!(table.contains("1.50"));
    }

    #[test]
    fn timeouts_are_rendered_as_dashes() {
        let rows = vec![Exp3Row {
            workload: "uniform".into(),
            n: 1000,
            equalities: 2,
            fdb: Measurement::Finished {
                time: Duration::from_millis(3),
                size: 42,
                tuples: 10,
            },
            rdb: Measurement::TimedOut,
        }];
        let table = render_exp3(&rows);
        assert!(table.contains("timeout"));
        assert!(table.contains("42"));
    }
}
