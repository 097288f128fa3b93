//! End-to-end benchmark of the FDB engine.
//!
//! One command runs one of three workloads, checks every answer against an
//! oracle, and prints each metric by name and unit:
//!
//! | workload | entry point | paper |
//! |---|---|---|
//! | [`flat_join`] | `FdbEngine::evaluate_flat` | Experiment 3 |
//! | [`followup`] | `FdbEngine::evaluate_factorised` | Experiment 4 |
//! | [`serve_mix`] | `FdbServer::serve_batch`, `FdbServer::replace`, `fdb_core::load_rep` | aggregation and ordering heads of the 2013 follow-up paper |
//!
//! Every workload is a single-process closed loop.  The end-to-end run
//! (`trace = false`) times only the public entry points, and reports
//! those times in reference time ([`measure::HostSpeed`]), which takes out
//! the host's own changes of speed.  The traced run
//! (`trace = true`) spends the first half of its time in the same loop,
//! untraced, and the second half calling each layer's own public functions
//! from this crate, each call wrapped in a span ([`measure::Trace`]); it
//! reports the per-layer split and the tracing overhead.  `LAYERS.md` lists
//! which end-to-end metric each layer metric should move, and on which
//! workload.

#![warn(missing_docs)]

pub mod flat_join;
pub mod followup;
pub mod measure;
pub mod oracle;
pub mod serve_mix;

use measure::{geomean, median, quantile, Trace};
use std::time::{Duration, Instant};

/// The workload names the command accepts.
pub const WORKLOADS: [&str; 3] = ["flat-join", "factorised-followup", "serve-mix"];

/// Time between two host-speed calibrations of a measured loop.
pub const CALIBRATION_INTERVAL: Duration = Duration::from_millis(500);

/// How many times a run sets its workload up at least; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 7;

/// Input sizes of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined with.
    Full,
    /// Small inputs for the self-test.
    Smoke,
}

impl Scale {
    /// Set-up time a run spends at least on its repeated set-ups.
    pub fn setup_budget(self) -> Duration {
        match self {
            Scale::Full => Duration::from_secs(1),
            Scale::Smoke => Duration::ZERO,
        }
    }
}

/// One run of the benchmark.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: f64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Requests attempted in the measured loop (traced run: both halves).
    pub attempted: u64,
    /// Requests that failed: errors, `Overloaded` refusals and wrong
    /// answers.  `failed / attempted` is the run's failure ratio.
    pub failed: u64,
    /// Metrics: the end-to-end set, or the per-layer set when traced.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Whether every answer was checked and found right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result as the one-line JSON object the command prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The host record of `fdb-bench`'s report header (CPU, core count,
/// `FDB_THREADS`, compiled features), as a JSON object.
pub fn host_json() -> String {
    let header = fdb_bench::report::BenchJson::new("e2ebench").finish();
    header
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"host\": "))
        .map(|h| h.trim_end_matches(',').to_string())
        .unwrap_or_else(|| "{}".into())
}

/// Runs one configuration.
pub fn run(config: &Config) -> Result<Report, String> {
    match config.workload.as_str() {
        "flat-join" => flat_join::run(config),
        "factorised-followup" => followup::run(config),
        "serve-mix" => serve_mix::run(config),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Sets a workload up at least [`SETUP_REPEATS`] times and until `budget`
/// is spent, and keeps the last state.  Returns it with the median set-up
/// time and the median input-generation time, both in reference seconds
/// ([`measure::HostSpeed`]; every set-up is one calibration segment).
/// `setup` returns its state and the time it spent generating inputs.
pub fn repeat_setup<T>(
    budget: Duration,
    mut setup: impl FnMut() -> Result<(T, Duration), String>,
) -> Result<(T, f64, f64), String> {
    let mut host = measure::HostSpeed::default();
    let mut totals = Vec::new();
    let mut datagen = Vec::new();
    let mut last: Option<T> = None;
    let started = Instant::now();
    while totals.len() < SETUP_REPEATS || started.elapsed() < budget {
        // Drop the previous state first so set-ups do not overlap in memory.
        drop(last.take());
        host.calibrate();
        let start = Instant::now();
        let (state, gen) = setup()?;
        totals.push(start.elapsed().as_secs_f64());
        datagen.push(gen.as_secs_f64());
        last = Some(state);
    }
    host.calibrate();
    let state = last.expect("at least one set-up");
    let segments: Vec<usize> = (0..totals.len()).collect();
    let reference = |times: &[f64]| median(&host.to_reference(times, &segments));
    eprintln!(
        "{} set-ups, median {:.4} s measured, {:.4} s reference",
        totals.len(),
        median(&totals),
        reference(&totals)
    );
    Ok((state, reference(&totals), reference(&datagen)))
}

/// Latencies of a closed loop over a fixed query set, in reference
/// milliseconds ([`measure::HostSpeed`]).
#[derive(Clone, Debug, Default)]
pub struct LoopStats {
    /// Per query of the set, the reference latency of each of its calls.
    pub per_query: Vec<Vec<f64>>,
    /// Per query of the set, the measured latency of each of its calls.
    pub raw_per_query: Vec<Vec<f64>>,
    /// Per query of the set, its calls that failed or answered wrongly.
    pub failed: Vec<u64>,
    /// Total reference time inside the timed calls, in ms.
    pub busy_ms: f64,
    /// The host's speed over the loop.
    pub host: measure::HostSpeed,
}

impl LoopStats {
    /// Calls attempted.
    pub fn attempted(&self) -> u64 {
        self.per_query.iter().map(|s| s.len() as u64).sum()
    }

    /// Requests completed per reference second spent in the timed calls.
    pub fn queries_per_s(&self) -> f64 {
        self.attempted() as f64 / (self.busy_ms / 1e3).max(1e-9)
    }

    fn all(&self) -> Vec<f64> {
        self.per_query.iter().flatten().copied().collect()
    }
}

/// One client calling `call(i)` for every query `i` of a fixed set, pass
/// after pass, until `budget` is spent (always at least one full pass, and
/// only full passes, so every query weighs the same), calibrating the
/// host's speed between calls every [`CALIBRATION_INTERVAL`].  `call`
/// returns the time of the entry-point call alone and whether the answer
/// checked out; its checking happens outside that time.
pub fn closed_loop(
    queries: usize,
    budget: Duration,
    mut call: impl FnMut(usize) -> (Duration, bool),
) -> LoopStats {
    let mut stats = LoopStats {
        per_query: vec![Vec::new(); queries],
        raw_per_query: vec![Vec::new(); queries],
        failed: vec![0; queries],
        ..LoopStats::default()
    };
    let mut segments = vec![Vec::new(); queries];
    let start = Instant::now();
    let mut calibrated = start;
    stats.host.calibrate();
    loop {
        for (i, query_segments) in segments.iter_mut().enumerate() {
            if calibrated.elapsed() >= CALIBRATION_INTERVAL {
                stats.host.calibrate();
                calibrated = Instant::now();
            }
            let (time, ok) = call(i);
            stats.raw_per_query[i].push(measure::ms(time));
            query_segments.push(stats.host.segment());
            stats.failed[i] += u64::from(!ok);
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    stats.host.calibrate();
    for ((reference, raw), segments) in stats
        .per_query
        .iter_mut()
        .zip(&stats.raw_per_query)
        .zip(&segments)
    {
        *reference = stats.host.to_reference(raw, segments);
    }
    stats.busy_ms = stats.all().iter().sum();
    stats
}

/// A fixed-query-set workload, set up and ready to measure.
pub struct QuerySet {
    /// Query labels, for the per-query diagnostics.
    pub names: Vec<String>,
    /// Each query's answer from one untimed call after set-up; every timed
    /// answer must equal it, and the oracle checks it after the loop.
    pub references: Vec<oracle::Answer>,
    /// Singletons of those answers' results.
    pub singletons: f64,
    /// Median set-up time in reference seconds.
    pub setup_s: f64,
    /// Median input-generation time in reference seconds.
    pub datagen_s: f64,
}

/// Measures a fixed-query-set workload and checks it.
///
/// * `call(i)` times query `i` through the public entry point and returns
///   the time and the answer (reduced outside the timed call);
/// * `traced(i, trace)` does the same through the layer functions, with
///   spans;
/// * `oracle(i)` is query `i`'s expected answer.
///
/// The oracle runs after the metrics are taken, so `peak_rss_mb` excludes
/// the oracle's memory.  A reference answer the oracle refutes fails every
/// call of that query.
pub fn run_query_set(
    config: &Config,
    set: &QuerySet,
    mut call: impl FnMut(usize) -> (Duration, Option<oracle::Answer>),
    mut traced: impl FnMut(usize, &mut Trace) -> (Duration, Option<oracle::Answer>),
    oracle: impl Fn(usize) -> Result<oracle::Answer, String>,
) -> Result<Report, String> {
    let n = set.references.len();
    let budget = Duration::from_secs_f64(config.seconds);
    let matches = |i: usize, answer: Option<oracle::Answer>| answer == Some(set.references[i]);
    let mut plain_call = |i: usize| {
        let (time, answer) = call(i);
        (time, matches(i, answer))
    };
    let (metrics, loops) = if config.trace {
        let plain = closed_loop(n, budget / 2, &mut plain_call);
        let mut trace = Trace::default();
        let mut wall = Duration::ZERO;
        let spanned = closed_loop(n, budget / 2, |i| {
            let (time, answer) = traced(i, &mut trace);
            wall += time;
            (time, matches(i, answer))
        });
        let run = TracedRun {
            untraced_qps: plain.queries_per_s(),
            traced_qps: spanned.queries_per_s(),
            trace,
            wall,
            datagen_s: set.datagen_s,
        };
        (run.metrics(), vec![plain, spanned])
    } else {
        let stats = closed_loop(n, budget, &mut plain_call);
        eprintln!(
            "calibration kernel: median {:.3} ms, reference {} ms",
            stats.host.median_ms(),
            measure::REFERENCE_MS
        );
        for ((name, samples), raw) in set
            .names
            .iter()
            .zip(&stats.per_query)
            .zip(&stats.raw_per_query)
        {
            eprintln!(
                "{name:<28} median {:>10.3} reference ms {:>10.3} measured ms",
                median(samples),
                median(raw)
            );
        }
        let e2e = EndToEnd::from_loop(set.setup_s, &stats, set.singletons);
        (e2e.metrics(), vec![stats])
    };

    let mut attempted = 0;
    let mut failed = 0;
    for i in 0..n {
        let calls: u64 = loops.iter().map(|l| l.per_query[i].len() as u64).sum();
        let wrong = oracle(i)? != set.references[i];
        if wrong {
            eprintln!("{}: the answer disagrees with the oracle", set.names[i]);
        }
        attempted += calls;
        failed += if wrong {
            calls
        } else {
            loops.iter().map(|l| l.failed[i]).sum()
        };
    }
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

/// The end-to-end metrics every workload reports.  Latencies and
/// throughput, like the set-up time, are in reference time
/// ([`measure::HostSpeed`]).
pub struct EndToEnd {
    /// Median set-up time in reference seconds.
    pub setup_s: f64,
    /// Requests per reference second of time in the entry-point calls.
    pub queries_per_s: f64,
    /// Reference latency of every call in ms.
    pub latencies_ms: Vec<f64>,
    /// Per query of the set (or every batch), its median reference
    /// latency in ms; their geometric mean is `latency_ms_geomean`.
    pub per_query_medians_ms: Vec<f64>,
    /// Singletons of one pass's results.
    pub result_singletons: f64,
}

impl EndToEnd {
    /// From a closed loop over a fixed query set.
    pub fn from_loop(setup_s: f64, stats: &LoopStats, result_singletons: f64) -> Self {
        EndToEnd {
            setup_s,
            queries_per_s: stats.queries_per_s(),
            latencies_ms: stats.all(),
            per_query_medians_ms: stats.per_query.iter().map(|s| median(s)).collect(),
            result_singletons,
        }
    }

    /// The metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("queries_per_s", self.queries_per_s, "1/s"),
            metric("latency_ms_p50", median(&self.latencies_ms), "ms"),
            metric("latency_ms_p95", quantile(&self.latencies_ms, 0.95), "ms"),
            metric(
                "latency_ms_geomean",
                geomean(&self.per_query_medians_ms),
                "ms",
            ),
            metric("result_singletons", self.result_singletons, "count"),
            metric("peak_rss_mb", measure::peak_rss_mb(), "MB"),
        ]
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the traced run measured, beyond its spans.
pub struct TracedRun {
    /// The spans, counters and samples of the traced half.
    pub trace: Trace,
    /// Wall time the traced calls took (for the server: batch wall time ×
    /// workers), the denominator of every share.
    pub wall: Duration,
    /// Throughput of the untraced half.
    pub untraced_qps: f64,
    /// Throughput of the traced half.
    pub traced_qps: f64,
    /// Median input-generation time of the set-ups, in reference seconds.
    pub datagen_s: f64,
}

impl TracedRun {
    /// The per-layer metrics, in `BENCHMARK.json` order.  Layer names:
    /// `plan`, `cost`, `build`, `exec`, `consume.count`, `consume.group`,
    /// `consume.ordered`, `serve.cache` (plan-cache lookups that hit),
    /// `snapshot.load`; the snapshot layer runs beside the timed calls and
    /// is kept out of the coverage.
    pub fn metrics(&self) -> Vec<Metric> {
        let t = &self.trace;
        let wall = measure::ms(self.wall);
        let share = |layer: &str| ratio(t.layer(layer).total_ms(), wall);
        let qerrors = t.samples("cost.qerror");
        let swaps = t.samples("snapshot.swap_ms");
        let load = t.layer("snapshot.load");
        let hits = t.counter("serve.hits");
        vec![
            metric("plan.optimise_ms", t.layer("plan").mean_ms(), "ms"),
            metric("plan.optimise_share", share("plan"), "ratio"),
            metric(
                "plan.explored_states",
                ratio(
                    t.counter("plan.explored_states"),
                    t.layer("plan").calls as f64,
                ),
                "count",
            ),
            metric("cost.size_qerror_p50", median(qerrors), "ratio"),
            metric("cost.size_qerror_max", quantile(qerrors, 1.0), "ratio"),
            metric("build.ms", t.layer("build").mean_ms(), "ms"),
            metric("build.share", share("build"), "ratio"),
            metric(
                "build.singletons_per_ms",
                ratio(t.counter("build.singletons"), t.layer("build").total_ms()),
                "1/ms",
            ),
            metric(
                "build.empty_result_ms",
                geomean(t.samples("build.empty_result_ms")),
                "ms",
            ),
            metric("exec.ms", t.layer("exec").mean_ms(), "ms"),
            metric("exec.share", share("exec"), "ratio"),
            metric(
                "exec.singletons_per_ms",
                ratio(t.counter("exec.singletons"), t.layer("exec").total_ms()),
                "1/ms",
            ),
            metric(
                "exec.fused_share",
                ratio(t.counter("exec.fused"), t.counter("exec.plans")),
                "ratio",
            ),
            metric("consume.count_ms", t.layer("consume.count").mean_ms(), "ms"),
            metric("consume.group_ms", t.layer("consume.group").mean_ms(), "ms"),
            metric(
                "consume.ordered_ms",
                t.layer("consume.ordered").mean_ms(),
                "ms",
            ),
            metric(
                "consume.chain_head_share",
                ratio(t.counter("consume.chain_heads"), t.counter("consume.heads")),
                "ratio",
            ),
            metric(
                "serve.cache_hit_ratio",
                ratio(hits, hits + t.counter("serve.misses")),
                "ratio",
            ),
            metric(
                "serve.cache_invalidations",
                t.counter("serve.invalidations"),
                "count",
            ),
            metric("serve.shed", t.counter("serve.shed"), "count"),
            metric(
                "serve.worker_busy_share",
                ratio(t.counter("serve.busy_ms"), wall),
                "ratio",
            ),
            metric("snapshot.load_ms", load.mean_ms(), "ms"),
            metric(
                "snapshot.load_mb_per_s",
                ratio(t.counter("snapshot.bytes") / 1e6, load.time.as_secs_f64()),
                "MB/s",
            ),
            metric(
                "snapshot.verify_overhead",
                median(t.samples("snapshot.verify_overhead")),
                "ratio",
            ),
            metric("snapshot.swap_ms_p50", median(swaps), "ms"),
            metric("snapshot.swap_ms_p95", quantile(swaps, 0.95), "ms"),
            metric("setup.datagen_s", self.datagen_s, "s"),
            metric(
                "trace.overhead",
                ratio(self.untraced_qps, self.traced_qps) - 1.0,
                "ratio",
            ),
            metric(
                "trace.unaccounted_share",
                1.0 - ratio(measure::ms(t.covered_except("snapshot")), wall),
                "ratio",
            ),
        ]
    }
}

/// The q-error of a size estimate: `max(est/actual, actual/est)`, both
/// clamped to at least one singleton.
pub fn qerror(estimate: f64, actual: f64) -> f64 {
    let (e, a) = (estimate.max(1.0), actual.max(1.0));
    (e / a).max(a / e)
}
