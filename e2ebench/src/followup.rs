//! `factorised-followup` (paper Experiment 4): one client calls
//! `FdbEngine::evaluate_factorised` with L = 1..3 follow-up equalities on
//! factorised inputs: the results of K = 2..6 combinatorial queries, built
//! in set-up.
//!
//! The query set is fixed; the seed draws the data of the combinatorial
//! databases: three with uniform and three with Zipf(1.0) values, so that
//! a run's latencies average over more than one draw of each.
//!
//! Why: the workload is optimiser-heavy and build-free — the exhaustive
//! f-plan search takes most of the time, plan execution the rest.

use crate::flat_join::Input;
use crate::measure::Trace;
use crate::oracle;
use crate::{qerror, repeat_setup, run_query_set, Config, QuerySet, Report, Scale};
use fdb_common::{AttrId, Query, RelId};
use fdb_core::{FactorisedQuery, FdbEngine};
use fdb_datagen::{combinatorial_database, random_followup_equalities, ValueDistribution};
use fdb_frep::FRep;
use fdb_ftree::s_cost;
use fdb_plan::{estimate_frep_size, ExhaustiveOptimizer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// The chain of equalities the input queries take prefixes of: K = k uses
/// the first k.
pub const INPUT_CHAIN: [(&str, &str); 6] = [
    ("a0", "a2"),
    ("a3", "a4"),
    ("a6", "a7"),
    ("a1", "a5"),
    ("a8", "a0"),
    ("a9", "a3"),
];

/// Seed of the follow-up query structure, fixed so that every data seed
/// runs the same query set.
const QUERY_SET_SEED: u64 = 0xFDB4;

/// One factorised input: a combinatorial query and its factorised result.
pub struct Base {
    /// Index into [`Workload::inputs`] of the database it was computed from.
    pub input: usize,
    /// The query that produced it.
    pub query: Query,
    /// Its factorised result.
    pub rep: FRep,
}

/// One follow-up query of the fixed set.
pub struct Case {
    /// Index into [`Workload::bases`].
    pub base: usize,
    /// The follow-up query: equalities only.
    pub query: FactorisedQuery,
}

/// The factorised inputs and the fixed query set.
pub struct Workload {
    /// The databases, with their statistics.
    pub inputs: Vec<Input>,
    /// The factorised inputs.
    pub bases: Vec<Base>,
    /// The follow-up queries.
    pub cases: Vec<Case>,
}

/// The databases drawn per value distribution, the input-query K values
/// and the follow-up L values at each scale.
fn sweep(scale: Scale) -> (usize, Vec<usize>, Vec<usize>) {
    match scale {
        Scale::Full => (3, (2..=6).collect(), (1..=3).collect()),
        Scale::Smoke => (1, vec![4, 6], vec![1, 2]),
    }
}

/// The combinatorial query with the first `k` equalities of
/// [`INPUT_CHAIN`].
pub fn chain_query(db: &fdb_relation::Database, k: usize) -> Query {
    let catalog = db.catalog();
    let rels: Vec<RelId> = catalog.rels().collect();
    INPUT_CHAIN[..k]
        .iter()
        .fold(Query::product(rels), |q, (l, r)| {
            let attr = |n: &str| catalog.find_attr(n).expect("combinatorial attribute");
            q.with_equality(attr(l), attr(r))
        })
}

/// Generates the databases for `seed`, builds the factorised inputs and
/// lays out the query set.  Returns the workload and the time spent
/// generating data.
pub fn setup(seed: u64, scale: Scale) -> Result<(Workload, Duration), String> {
    let (draws, ks, ls) = sweep(scale);
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let dbs: Vec<_> = [ValueDistribution::Uniform, ValueDistribution::Zipf(1.0)]
        .into_iter()
        .flat_map(|dist| std::iter::repeat_n(dist, draws))
        .map(|dist| combinatorial_database(&mut rng, dist))
        .collect();
    let generated = start.elapsed();

    let engine = FdbEngine::new();
    let mut structure = StdRng::seed_from_u64(QUERY_SET_SEED);
    let mut bases = Vec::new();
    let mut cases = Vec::new();
    let mut inputs = Vec::new();
    for db in dbs {
        for &k in &ks {
            let query = chain_query(&db, k);
            let rep = engine
                .evaluate_flat(&db, &query)
                .map_err(|e| format!("building the K={k} input: {e}"))?
                .result;
            for &l in &ls {
                let equalities =
                    random_followup_equalities(&mut structure, db.catalog(), &query, l);
                cases.push(Case {
                    base: bases.len(),
                    query: FactorisedQuery::equalities(equalities),
                });
            }
            bases.push(Base {
                input: inputs.len(),
                query,
                rep,
            });
        }
        inputs.push(Input::new(db));
    }
    Ok((
        Workload {
            inputs,
            bases,
            cases,
        },
        generated,
    ))
}

/// The flat query a follow-up is equivalent to: the input's query plus the
/// follow-up equalities.
pub fn combined_query(base: &Query, equalities: &[(AttrId, AttrId)]) -> Query {
    equalities
        .iter()
        .fold(base.clone(), |q, &(a, b)| q.with_equality(a, b))
}

/// `evaluate_factorised`, decomposed into the calls of each layer: f-plan
/// search (`plan`), plan simplification and fused execution (`exec`),
/// `s(T)` and the size estimate of the result (`cost`), and the result's
/// size and tuple count (`consume.count`).
pub fn traced_call(
    input: &Input,
    base: &Base,
    equalities: &[(AttrId, AttrId)],
    trace: &mut Trace,
) -> fdb_common::Result<FRep> {
    let optimised = trace.span("plan", || {
        ExhaustiveOptimizer::new().optimize(base.rep.tree(), equalities)
    })?;
    trace.count("plan.explored_states", optimised.explored_states as f64);
    let (result, fused) = trace.span("exec", || {
        let simplified = optimised.plan.simplified(base.rep.tree());
        let mut result = base.rep.clone();
        simplified
            .execute_presimplified(&mut result)
            .map(|()| (result, simplified.fuses()))
    })?;
    let estimate = trace.span("cost", || {
        let tree = result.tree();
        s_cost(tree).map(|_| estimate_frep_size(tree, |n| input.node_ndv(tree, n)))
    })?;
    let (size, _tuples) = trace.span("consume.count", || (result.size(), result.tuple_count()));
    trace.count("exec.plans", 1.0);
    trace.count("exec.fused", f64::from(u8::from(fused)));
    trace.count("exec.singletons", size as f64);
    trace.sample("cost.qerror", qerror(estimate, size as f64));
    Ok(result)
}

/// Runs the workload.
pub fn run(config: &Config) -> Result<Report, String> {
    let (workload, setup_s, datagen_s) = repeat_setup(config.scale.setup_budget(), || {
        setup(config.seed, config.scale)
    })?;
    let engine = FdbEngine::new();
    let names: Vec<String> = workload
        .cases
        .iter()
        .map(|c| {
            let base = &workload.bases[c.base];
            format!(
                "db{}-k{}-l{}",
                base.input,
                base.query.equalities.len(),
                c.query.equalities.len()
            )
        })
        .collect();

    let mut references = Vec::new();
    let mut singletons = 0.0;
    for case in &workload.cases {
        let out = engine
            .evaluate_factorised(&workload.bases[case.base].rep, &case.query)
            .map_err(|e| format!("follow-up {:?} failed: {e}", case.query.equalities))?;
        singletons += out.stats.result_size as f64;
        references.push(oracle::rep_answer(&out.result));
    }
    let set = QuerySet {
        names,
        references,
        singletons,
        setup_s,
        datagen_s,
    };
    run_query_set(
        config,
        &set,
        |i| {
            let case = &workload.cases[i];
            let start = Instant::now();
            let out = engine.evaluate_factorised(&workload.bases[case.base].rep, &case.query);
            let time = start.elapsed();
            (time, out.ok().map(|o| oracle::rep_answer(&o.result)))
        },
        |i, trace| {
            let case = &workload.cases[i];
            let base = &workload.bases[case.base];
            let start = Instant::now();
            let out = traced_call(
                &workload.inputs[base.input],
                base,
                &case.query.equalities,
                trace,
            );
            let time = start.elapsed();
            (time, out.ok().map(|rep| oracle::rep_answer(&rep)))
        },
        |i| {
            let case = &workload.cases[i];
            let base = &workload.bases[case.base];
            let combined = combined_query(&base.query, &case.query.equalities);
            oracle::expected_answer(&workload.inputs[base.input].db, &combined)
                .map_err(|e| format!("oracle failed on {:?}: {e}", case.query.equalities))
        },
    )
}
