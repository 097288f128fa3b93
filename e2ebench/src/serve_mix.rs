//! `serve-mix`: an `FdbServer` with one worker per core serves factorised
//! results held in a `SharedDatabase`.
//!
//! * **Reads.** One client thread sends fixed-size `serve_batch` calls, no
//!   larger than the server's admission bound.  Requests follow a
//!   Zipf(1.0) mix over templates with different heads: COUNT, SUM grouped
//!   on a root and on a non-root attribute, rows, projected rows, ORDER BY
//!   over a projection, and a follow-up equality.
//! * **Writes.** A second thread, at a fixed interval, reloads one
//!   representation from its snapshot with `load_rep` and hot-swaps it in
//!   with `FdbServer::replace`, which drops that representation's cached
//!   plans.
//!
//! The representations are the results of the K = 2 chain, K = 3 cycle and
//! many-to-many joins of `flat-join` over uniform relations of 1000 tuples;
//! the seed draws their data and the request sequence.
//!
//! Why: the plan cache lets hits bypass the optimiser, so the workload
//! exercises plan execution, consumption, serving and snapshot loading —
//! the layers the other two workloads barely touch.  Every head's flat
//! output is bounded (projections, and grouping only where the engine lifts
//! the group attribute onto a root path).
//!
//! A call here is one `serve_batch`: the latency metrics are batch
//! latencies, and `queries_per_s` counts requests.

use crate::flat_join::{scaling_catalog, scaling_queries};
use crate::followup::combined_query;
use crate::measure::{self, Trace};
use crate::oracle::{self, Answer};
use crate::{repeat_setup, Config, EndToEnd, Report, Scale, TracedRun, CALIBRATION_INTERVAL};
use fdb_common::{AggregateFunc, AggregateHead, AttrId, Query};
use fdb_core::{
    load_rep, save_rep, FactorisedQuery, FdbEngine, FdbServer, RepId, ServeOutcome, ServeRequest,
    SharedDatabase,
};
use fdb_datagen::{populate, random_followup_equalities, ValueDistribution};
use fdb_frep::{AggregateResult, FRep};
use fdb_relation::{Database, Relation};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per `serve_batch` call.
pub const BATCH: usize = 64;

// A batch never exceeds the admission bound of even a one-worker server,
// so an `Overloaded` refusal is a failure of the server, not of the client.
const _: () = assert!(BATCH <= fdb_core::serving::DEFAULT_IN_FLIGHT_PER_THREAD);

/// Pause between two hot swaps of the writer thread.  Each swap makes the
/// swapped representation's templates miss the plan cache a few batches
/// later; at the full-scale interval those batches stay well under 5% of
/// all, so `latency_ms_p95` measures the serving path, not the swap rate.
fn swap_interval(scale: Scale) -> Duration {
    match scale {
        Scale::Full => Duration::from_secs(2),
        Scale::Smoke => Duration::from_millis(50),
    }
}

/// Seed of the follow-up equalities, fixed so every data seed serves the
/// same templates.
const TEMPLATE_SEED: u64 = 0x5E7E;

/// The head of a request template.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Head {
    /// `COUNT(*)`.
    Count,
    /// `SUM` grouped on a root attribute.
    SumByRoot,
    /// `SUM` grouped on a non-root attribute.
    SumByNonRoot,
    /// All rows.
    Rows,
    /// Rows projected onto two attributes.
    ProjectedRows,
    /// Projected rows in `ORDER BY` order.
    Ordered,
    /// Rows under a follow-up equality.
    Followup,
}

/// One request template.
pub struct Template {
    /// Index into [`Workload::reps`] of the representation it reads.
    pub rep: usize,
    /// The head.
    pub head: Head,
    /// The request.
    pub request: ServeRequest,
}

/// A served outcome reduced to what the check compares.
#[derive(Clone, Debug, PartialEq)]
pub enum Expected {
    /// A result representation with this answer.
    Rep(Answer),
    /// This aggregate value.
    Aggregate(AggregateResult),
    /// Exactly these ordered rows.
    Ordered(Relation),
}

/// One served representation.
pub struct Served {
    /// Label of the query it is the result of.
    pub name: &'static str,
    /// Its id in the server's database.
    pub id: RepId,
    /// Its snapshot file.
    pub path: PathBuf,
    /// The flat query it is the result of.
    pub query: Query,
}

/// The served representations, their snapshots and the request templates.
pub struct Workload {
    /// The server.
    pub server: Arc<FdbServer>,
    /// The database the representations were computed from.
    pub db: Database,
    /// The served representations.
    pub reps: Vec<Served>,
    /// The templates, hottest first.
    pub templates: Vec<Template>,
    /// Pause between two hot swaps.
    pub swap_interval: Duration,
    /// Directory holding the snapshots (removed on drop).
    dir: PathBuf,
}

impl Drop for Workload {
    fn drop(&mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Labels of the `flat-join` queries whose results are served.
const SERVED_QUERIES: [&str; 3] = ["k2-chain", "k3-cycle", "many-to-many"];

/// Tuples per relation at each scale.
fn relation_size(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1_000,
        Scale::Smoke => 200,
    }
}

impl Expected {
    /// The reduction of a served outcome of `template`.
    pub fn of(template: &Template, outcome: &ServeOutcome) -> Option<Expected> {
        Some(match outcome {
            ServeOutcome::Rep(out) => {
                let projected = template.request.query.projection.is_some();
                Expected::Rep(oracle::answer_of(&out.result, projected).ok()?)
            }
            ServeOutcome::Aggregate(out) => Expected::Aggregate(out.result.clone()),
            ServeOutcome::Ordered(out) => Expected::Ordered(out.rows.clone()),
        })
    }
}

/// The oracle's verdict on a template's reference outcome (see
/// [`oracle::expected_answer`] and [`oracle::expected_rows`]).  Aggregates
/// are compared by value; ordered rows must hold the oracle's rows and
/// equal materialise-then-sort of the served result.
fn oracle_agrees(
    workload: &Workload,
    template: &Template,
    reference: &Expected,
) -> Result<bool, String> {
    let request = &template.request;
    let served = &workload.reps[template.rep];
    let mut flat = combined_query(&served.query, &request.query.equalities);
    flat.projection = request.query.projection.clone();
    let db = &workload.db;
    Ok(match reference {
        Expected::Rep(answer) => {
            *answer == oracle::expected_answer(db, &flat).map_err(|e| e.to_string())?
        }
        Expected::Aggregate(result) => {
            let head = request
                .aggregate
                .as_ref()
                .ok_or("aggregate without a head")?;
            let rows = oracle::expected_rows(db, &flat).map_err(|e| e.to_string())?;
            *result == group_flat(&rows, head)
        }
        Expected::Ordered(ordered) => {
            let rows = oracle::expected_rows(db, &flat).map_err(|e| e.to_string())?;
            let input = workload
                .server
                .db()
                .get(served.id)
                .ok_or("served representation vanished")?;
            let body = FdbEngine::new()
                .evaluate_factorised(&input, &request.query)
                .map_err(|e| e.to_string())?
                .result;
            let sorted = fdb_frep::materialize_then_sort(&body, &request.order_by)
                .map_err(|e| e.to_string())?;
            oracle::relation_answer(ordered) == oracle::relation_answer(&rows) && *ordered == sorted
        }
    })
}

/// `COUNT(*)` or `SUM(a)`, grouped or not, over flat rows — the flat
/// reference the served aggregates must equal.
fn group_flat(rows: &Relation, head: &AggregateHead) -> AggregateResult {
    use fdb_frep::AggregateValue;
    let col = |a: AttrId| rows.col_index(a).expect("attribute in the result");
    let group_cols: Vec<usize> = head.group_by.iter().map(|&a| col(a)).collect();
    let sum_col = head.attr.map(col);
    let mut groups: BTreeMap<Vec<fdb_common::Value>, u128> = BTreeMap::new();
    for row in rows.rows() {
        let key = group_cols.iter().map(|&c| row[c]).collect();
        let add = sum_col.map_or(1, |c| u128::from(row[c].0));
        let acc = groups.entry(key).or_default();
        *acc = acc.wrapping_add(add);
    }
    let value = |v: u128| match head.func {
        AggregateFunc::Sum => AggregateValue::Sum(v),
        _ => AggregateValue::Count(v),
    };
    if head.group_by.is_empty() {
        AggregateResult::Scalar(value(groups.values().copied().sum()))
    } else {
        AggregateResult::Groups(groups.into_iter().map(|(k, v)| (k, value(v))).collect())
    }
}

/// The templates over one representation.  Grouping on a non-root
/// attribute uses the first non-root attribute whose lift onto a root path
/// the engine accepts; a representation with no such attribute gets no
/// such template, so no head falls back to flat grouping of the whole
/// result.
fn templates_for(
    rep_index: usize,
    served: &Served,
    rep: &FRep,
    db: &Database,
    structure: &mut StdRng,
) -> Result<Vec<Template>, String> {
    let id = served.id;
    let engine = FdbEngine::new();
    let tree = rep.tree();
    let root = tree.roots()[0];
    let root_attr = *tree.class(root).iter().next().expect("non-empty class");
    let non_root: Vec<AttrId> = tree
        .node_ids()
        .into_iter()
        .filter(|&n| tree.parent(n).is_some())
        .flat_map(|n| tree.class(n).iter().copied().collect::<Vec<_>>())
        .collect();
    let sum_attr = *non_root.last().unwrap_or(&root_attr);
    let lifted = non_root.iter().copied().find(|&a| {
        let head = AggregateHead::over(AggregateFunc::Sum, sum_attr).grouped_by(a);
        engine
            .evaluate_factorised_aggregate(rep, &FactorisedQuery::default(), &head)
            .is_ok_and(|out| out.stats.chain_heads == 1)
    });
    // ORDER BY a non-root attribute of a projection fails on a tree that
    // refuses every lift (`swap: nX is a root`, a defect of projection
    // plus chain planning); there the ordered template sorts by the root
    // attribute instead.
    let (pair, order_attr) = match lifted {
        Some(group) => (vec![root_attr, group], group),
        None => (vec![root_attr, sum_attr], root_attr),
    };
    let followup = random_followup_equalities(structure, db.catalog(), &served.query, 1);

    let mut shapes: Vec<(Head, ServeRequest)> = vec![
        (
            Head::Count,
            ServeRequest::new(id, FactorisedQuery::default(), Some(AggregateHead::count())),
        ),
        (
            Head::SumByRoot,
            ServeRequest::new(
                id,
                FactorisedQuery::default(),
                Some(AggregateHead::over(AggregateFunc::Sum, sum_attr).grouped_by(root_attr)),
            ),
        ),
        (
            Head::ProjectedRows,
            ServeRequest::new(
                id,
                FactorisedQuery::default().with_projection(pair.clone()),
                None,
            ),
        ),
        (
            Head::Followup,
            ServeRequest::new(id, FactorisedQuery::equalities(followup), None),
        ),
        (
            Head::Ordered,
            ServeRequest::new(id, FactorisedQuery::default().with_projection(pair), None)
                .with_order_by(vec![order_attr]),
        ),
        (
            Head::Rows,
            ServeRequest::new(id, FactorisedQuery::default(), None),
        ),
    ];
    if let Some(group) = lifted {
        let head = AggregateHead::over(AggregateFunc::Sum, sum_attr).grouped_by(group);
        shapes.insert(
            4,
            (
                Head::SumByNonRoot,
                ServeRequest::new(id, FactorisedQuery::default(), Some(head)),
            ),
        );
    }
    Ok(shapes
        .into_iter()
        .map(|(head, request)| Template {
            rep: rep_index,
            head,
            request,
        })
        .collect())
}

/// A fresh directory for this process's snapshots, inside the working
/// directory.
fn snapshot_dir() -> PathBuf {
    Path::new(".e2ebench-tmp").join(format!("serve-mix-{}", std::process::id()))
}

/// Generates the data for `seed`, builds and snapshots the representations,
/// starts the server and warms its plan cache with every template once.
/// Returns the workload, the warm-up outcomes (the reference answers) and
/// the time spent generating data.
pub fn setup(seed: u64, scale: Scale) -> Result<((Workload, Vec<ServeOutcome>), Duration), String> {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = scaling_catalog();
    let db = populate(
        &mut rng,
        &catalog,
        relation_size(scale),
        100,
        ValueDistribution::Uniform,
    );
    let generated = start.elapsed();

    let dir = snapshot_dir();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let engine = FdbEngine::new();
    let mut shared = SharedDatabase::new();
    let mut reps = Vec::new();
    let mut built = Vec::new();
    let served = scaling_queries(&catalog)
        .into_iter()
        .filter(|(name, _)| SERVED_QUERIES.contains(name));
    for (name, query) in served {
        let rep = engine
            .evaluate_flat(&db, &query)
            .map_err(|e| format!("building the {name} representation: {e}"))?
            .result;
        let path = dir.join(format!("{name}.fdbs"));
        save_rep(&rep, &path).map_err(|e| format!("saving {}: {e}", path.display()))?;
        let id = shared
            .insert(name, rep.clone())
            .map_err(|e| e.to_string())?;
        reps.push(Served {
            name,
            id,
            path,
            query,
        });
        built.push(rep);
    }

    let mut structure = StdRng::seed_from_u64(TEMPLATE_SEED);
    let mut per_rep = Vec::new();
    for (i, (served, rep)) in reps.iter().zip(&built).enumerate() {
        per_rep.push(templates_for(i, served, rep, &db, &mut structure)?);
    }
    // Interleave so that the hottest templates span every representation.
    let mut templates = Vec::new();
    let mut iters: Vec<_> = per_rep.into_iter().map(Vec::into_iter).collect();
    loop {
        let before = templates.len();
        for it in &mut iters {
            templates.extend(it.next());
        }
        if templates.len() == before {
            break;
        }
    }

    let threads = fdb_core::default_threads();
    let server = Arc::new(FdbServer::new(engine, Arc::new(shared), threads));
    let workload = Workload {
        server,
        db,
        reps,
        templates,
        swap_interval: swap_interval(scale),
        dir,
    };
    let mut warm = Vec::new();
    for chunk in workload.templates.chunks(BATCH) {
        let batch = chunk.iter().map(|t| t.request.clone()).collect();
        for (template, outcome) in chunk.iter().zip(workload.server.serve_batch(batch)) {
            warm.push(outcome.map_err(|e| {
                format!(
                    "warm-up {:?} request on {} failed: {e} (body {:?}, order by {:?})",
                    template.head,
                    workload.reps[template.rep].name,
                    template.request.query,
                    template.request.order_by
                )
            })?);
        }
    }
    Ok(((workload, warm), generated))
}

/// Zipf(1.0) sampler over template ranks.
struct Mix {
    cumulative: Vec<f64>,
}

impl Mix {
    fn new(n: usize) -> Self {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        Mix { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("at least one template");
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// What the reader measured in one phase.
#[derive(Default)]
struct Phase {
    /// Batch latencies in reference ms ([`measure::HostSpeed`]).
    batch_ms: Vec<f64>,
    /// Batch latencies as measured, in ms.
    raw_batch_ms: Vec<f64>,
    host: measure::HostSpeed,
    /// Per template: requests sent, and requests failed or answered wrongly.
    calls: Vec<u64>,
    failed: Vec<u64>,
    /// Hot swaps done, and those that failed.
    swaps: u64,
    failed_swaps: u64,
    trace: Trace,
    wall: Duration,
}

impl Phase {
    fn attempted(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Requests completed per reference second spent in `serve_batch`.
    fn queries_per_s(&self) -> f64 {
        let busy_ms: f64 = self.batch_ms.iter().sum();
        self.attempted() as f64 / (busy_ms / 1e3).max(1e-9)
    }
}

/// Records the engine-reported split of one served request: plan
/// resolution (a cache hit is serving work, a miss runs the optimiser) and
/// execution, attributed by head — plan execution for representation
/// results, consumption for aggregate and ordered heads, whose fold or
/// ordered enumeration runs fused with the plan.
fn record_outcome(trace: &mut Trace, template: &Template, outcome: &ServeOutcome) {
    let stats = outcome.stats();
    if stats.plan_cache_hits > 0 {
        trace.record("serve.cache", stats.optimisation_time);
        trace.count("serve.hits", 1.0);
    } else {
        trace.record("plan", stats.optimisation_time);
        trace.count("plan.explored_states", stats.explored_states as f64);
        trace.count("serve.misses", 1.0);
    }
    let layer = match template.head {
        Head::Count => "consume.count",
        Head::SumByRoot | Head::SumByNonRoot => "consume.group",
        Head::Ordered => "consume.ordered",
        Head::Rows | Head::ProjectedRows | Head::Followup => "exec",
    };
    trace.record(layer, stats.execution_time);
    if layer == "exec" {
        trace.count("exec.plans", 1.0);
        trace.count("exec.fused", stats.fused_segments as f64);
        trace.count("exec.singletons", stats.result_size as f64);
    }
    if matches!(
        template.head,
        Head::SumByRoot | Head::SumByNonRoot | Head::Ordered
    ) {
        trace.count("consume.heads", 1.0);
        trace.count("consume.chain_heads", stats.chain_heads as f64);
    }
    trace.count(
        "serve.busy_ms",
        measure::ms(stats.optimisation_time + stats.execution_time),
    );
}

/// The reader: batches of Zipf-mixed requests until `budget` is spent,
/// calibrating the host's speed between batches every
/// [`CALIBRATION_INTERVAL`].
fn read_phase(
    workload: &Workload,
    references: &[Expected],
    rng: &mut StdRng,
    budget: Duration,
    traced: bool,
) -> Phase {
    let n = workload.templates.len();
    let mix = Mix::new(n);
    let threads = workload.server.threads() as u32;
    let mut phase = Phase {
        calls: vec![0; n],
        failed: vec![0; n],
        ..Phase::default()
    };
    let mut segments = Vec::new();
    let start = Instant::now();
    let mut calibrated = start;
    phase.host.calibrate();
    while phase.raw_batch_ms.is_empty() || start.elapsed() < budget {
        if calibrated.elapsed() >= CALIBRATION_INTERVAL {
            phase.host.calibrate();
            calibrated = Instant::now();
        }
        let picks: Vec<usize> = (0..BATCH).map(|_| mix.sample(rng)).collect();
        let batch = picks
            .iter()
            .map(|&i| workload.templates[i].request.clone())
            .collect();
        let t0 = Instant::now();
        let outcomes = workload.server.serve_batch(batch);
        let time = t0.elapsed();
        phase.raw_batch_ms.push(measure::ms(time));
        segments.push(phase.host.segment());
        phase.wall += time * threads;
        for (&i, outcome) in picks.iter().zip(&outcomes) {
            let template = &workload.templates[i];
            phase.calls[i] += 1;
            let ok = match outcome {
                Ok(out) => {
                    if traced {
                        record_outcome(&mut phase.trace, template, out);
                    }
                    Expected::of(template, out).as_ref() == Some(&references[i])
                }
                // Errors, `Overloaded` refusals included, count as failed.
                Err(_) => false,
            };
            phase.failed[i] += u64::from(!ok);
        }
    }
    phase.host.calibrate();
    phase.batch_ms = phase.host.to_reference(&phase.raw_batch_ms, &segments);
    phase
}

/// What the writer measured.
#[derive(Default)]
struct Swaps {
    trace: Trace,
    attempted: u64,
    failed: u64,
}

/// The writer: every `interval` reloads the next representation from its
/// snapshot and hot-swaps it in, until `stop` is signalled or dropped.
fn write_loop(workload: &Workload, interval: Duration, stop: mpsc::Receiver<()>) -> Swaps {
    let mut swaps = Swaps::default();
    let mut next = 0;
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(interval) {
        let served = &workload.reps[next % workload.reps.len()];
        next += 1;
        let start = Instant::now();
        let ok = swaps
            .trace
            .span("snapshot.load", || load_rep(&served.path))
            .and_then(|rep| workload.server.replace(served.id, rep));
        swaps
            .trace
            .sample("snapshot.swap_ms", measure::ms(start.elapsed()));
        let bytes = std::fs::metadata(&served.path).map_or(0, |m| m.len());
        swaps.trace.count("snapshot.bytes", bytes as f64);
        swaps.attempted += 1;
        swaps.failed += u64::from(ok.is_err());
    }
    swaps
}

/// Runs the reader for `budget` with the writer beside it.
fn mixed_phase(
    workload: &Workload,
    references: &[Expected],
    rng: &mut StdRng,
    budget: Duration,
    traced: bool,
) -> Phase {
    let before = workload.server.stats();
    let (mut phase, swaps) = std::thread::scope(|scope| {
        let (stop, stopped) = mpsc::channel();
        let writer = scope.spawn(move || write_loop(workload, workload.swap_interval, stopped));
        let phase = read_phase(workload, references, rng, budget, traced);
        drop(stop);
        (phase, writer.join().expect("writer thread"))
    });
    let after = workload.server.stats();
    phase.swaps = swaps.attempted;
    phase.failed_swaps = swaps.failed;
    phase.trace.merge(&swaps.trace);
    phase.trace.count(
        "serve.invalidations",
        (after.plan_cache_invalidations - before.plan_cache_invalidations) as f64,
    );
    phase.trace.count(
        "serve.shed",
        (after.requests_shed - before.requests_shed) as f64,
    );
    phase
}

/// Verified-over-unverified decode time of every snapshot, minus one.
fn verify_overhead(workload: &Workload, trace: &mut Trace) {
    for served in &workload.reps {
        let Ok(bytes) = std::fs::read(&served.path) else {
            continue;
        };
        let time = |f: &dyn Fn(&[u8]) -> fdb_common::Result<FRep>| {
            let samples: Vec<f64> = (0..5)
                .map(|_| {
                    let start = Instant::now();
                    let _ = f(&bytes);
                    measure::ms(start.elapsed())
                })
                .collect();
            measure::median(&samples)
        };
        let verified = time(&|b| fdb_frep::decode_frep(b));
        let unverified = time(&|b| fdb_frep::snapshot::decode_frep_unverified(b));
        trace.sample(
            "snapshot.verify_overhead",
            verified / unverified.max(1e-9) - 1.0,
        );
    }
}

/// Runs the workload.
pub fn run(config: &Config) -> Result<Report, String> {
    let ((workload, warm), setup_s, datagen_s) = repeat_setup(config.scale.setup_budget(), || {
        setup(config.seed, config.scale)
    })?;
    let references: Vec<Expected> = workload
        .templates
        .iter()
        .zip(&warm)
        .map(|(t, out)| Expected::of(t, out).ok_or("a warm-up answer cannot be reduced"))
        .collect::<Result<_, _>>()?;
    let singletons: usize = warm
        .iter()
        .filter_map(|out| match out {
            ServeOutcome::Rep(o) => Some(o.stats.result_size),
            _ => None,
        })
        .sum();
    drop(warm);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5EED);
    let budget = Duration::from_secs_f64(config.seconds);

    let (metrics, phases) = if config.trace {
        let plain = mixed_phase(&workload, &references, &mut rng, budget / 2, false);
        let mut traced = mixed_phase(&workload, &references, &mut rng, budget / 2, true);
        verify_overhead(&workload, &mut traced.trace);
        let run = TracedRun {
            untraced_qps: plain.queries_per_s(),
            traced_qps: traced.queries_per_s(),
            trace: std::mem::take(&mut traced.trace),
            wall: traced.wall,
            datagen_s,
        };
        (run.metrics(), vec![plain, traced])
    } else {
        let phase = mixed_phase(&workload, &references, &mut rng, budget, false);
        eprintln!(
            "calibration kernel: median {:.3} ms, reference {} ms; batch latency median {:.3} reference ms, {:.3} measured ms",
            phase.host.median_ms(),
            measure::REFERENCE_MS,
            measure::median(&phase.batch_ms),
            measure::median(&phase.raw_batch_ms)
        );
        let e2e = EndToEnd {
            setup_s,
            queries_per_s: phase.queries_per_s(),
            per_query_medians_ms: phase.batch_ms.clone(),
            latencies_ms: phase.batch_ms.clone(),
            result_singletons: singletons as f64,
        };
        (e2e.metrics(), vec![phase])
    };

    // Oracle check of the reference answers, after the metrics.
    // Hot swaps count as attempted operations beside the read requests.
    let mut attempted: u64 = phases.iter().map(|p| p.swaps).sum();
    let mut failed: u64 = phases.iter().map(|p| p.failed_swaps).sum();
    for (i, template) in workload.templates.iter().enumerate() {
        let calls: u64 = phases.iter().map(|p| p.calls[i]).sum();
        let wrong = !oracle_agrees(&workload, template, &references[i])?;
        if wrong {
            eprintln!(
                "{:?} on {}: the answer disagrees with the oracle",
                template.head, workload.reps[template.rep].name
            );
        }
        attempted += calls;
        failed += if wrong {
            calls
        } else {
            phases.iter().map(|p| p.failed[i]).sum()
        };
    }
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}
