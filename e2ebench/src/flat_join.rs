//! `flat-join` (paper Experiment 3): one client calls
//! `FdbEngine::evaluate_flat` over a fixed set of select-project-join
//! queries on flat relations.
//!
//! The query set is fixed; the seed draws the data.  It covers
//!
//! * three ternary relations `R(a,b,c)`, `S(d,e,f)`, `T(g,h,i)` with values
//!   in `[1, 100]`, uniform and Zipf(1.0), at a small and a large relation
//!   size, each queried with a K = 2 chain, K = 3 and K = 4 cyclic joins, a
//!   many-to-many star join, and a join whose constant selections leave
//!   it empty;
//! * the combinatorial database (four relations over ten attributes,
//!   values in `[1, 20]`) with K = 1..6 equalities.
//!
//! Why: the workload is build-heavy — `build_frep` does nearly all the
//! work and the f-tree search little — and the empty-result and
//! many-to-many queries expose the build's early exit and arena emission.

use crate::measure::{self, Trace};
use crate::oracle;
use crate::{qerror, repeat_setup, run_query_set, Config, QuerySet, Report, Scale};
use fdb_common::{AttrId, Catalog, ComparisonOp, Query, RelId, Value};
use fdb_core::FdbEngine;
use fdb_datagen::{combinatorial_database, populate, ValueDistribution};
use fdb_frep::{build_frep, FRep};
use fdb_ftree::{s_cost, FTree, NodeId};
use fdb_plan::{estimate_frep_size, optimal_ftree, FPlan, FPlanOp};
use fdb_relation::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// A database of the workload plus its per-attribute distinct counts
/// (the statistics the size estimate reads).
pub struct Input {
    /// The flat relations.
    pub db: Database,
    ndv: Vec<f64>,
}

impl Input {
    /// Wraps a database, counting each attribute's distinct values.
    pub fn new(db: Database) -> Self {
        let attrs = db.catalog().attr_count();
        let ndv = (0..attrs)
            .map(|a| db.distinct_count(AttrId(a as u32)) as f64)
            .collect();
        Input { db, ndv }
    }

    /// Distinct values of an f-tree node: the smallest distinct count of
    /// the attributes in its class.
    pub fn node_ndv(&self, tree: &FTree, node: NodeId) -> f64 {
        tree.class(node)
            .iter()
            .map(|a| self.ndv[a.index()])
            .fold(f64::INFINITY, f64::min)
    }
}

/// One query of the fixed set.
pub struct Case {
    /// Label, for diagnostics.
    pub name: String,
    /// Index into [`Workload::inputs`].
    pub input: usize,
    /// The query.
    pub query: Query,
}

/// The generated inputs and the fixed query set.
pub struct Workload {
    /// The databases.
    pub inputs: Vec<Input>,
    /// The queries.
    pub cases: Vec<Case>,
}

/// Relation sizes of the scaling databases at each scale.
fn relation_sizes(scale: Scale) -> [usize; 2] {
    match scale {
        Scale::Full => [1_000, 4_000],
        Scale::Smoke => [100, 300],
    }
}

/// The scaling schema: three ternary relations `R(a,b,c)`, `S(d,e,f)`,
/// `T(g,h,i)`.
pub fn scaling_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_relation("R", &["a", "b", "c"]);
    catalog.add_relation("S", &["d", "e", "f"]);
    catalog.add_relation("T", &["g", "h", "i"]);
    catalog
}

/// The fixed queries over the scaling schema, with their labels.
pub fn scaling_queries(catalog: &Catalog) -> Vec<(&'static str, Query)> {
    let attr = |name: &str| catalog.find_attr(name).expect("declared attribute");
    let [a, b, c, d, e, f, g, h] =
        ["R.a", "R.b", "R.c", "S.d", "S.e", "S.f", "T.g", "T.h"].map(attr);
    let rels: Vec<RelId> = catalog.rels().collect();
    let join = |eqs: &[(AttrId, AttrId)]| {
        eqs.iter().fold(Query::product(rels.clone()), |q, &(x, y)| {
            q.with_equality(x, y)
        })
    };
    vec![
        ("k2-chain", join(&[(a, d), (e, g)])),
        ("k3-cycle", join(&[(a, d), (e, g), (h, b)])),
        ("k4-cycle", join(&[(a, d), (e, g), (h, b), (c, f)])),
        ("many-to-many", join(&[(a, d), (d, g)])),
        (
            "empty",
            join(&[(a, d), (e, g), (h, b)])
                .with_const_selection(b, ComparisonOp::Le, Value(50))
                .with_const_selection(h, ComparisonOp::Gt, Value(50)),
        ),
    ]
}

/// Generates the inputs for `seed` and lays out the query set.  Returns
/// the workload and the time spent generating data.
pub fn setup(seed: u64, scale: Scale) -> (Workload, Duration) {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let catalog = scaling_catalog();
    let scaling = scaling_queries(&catalog);

    let mut inputs = Vec::new();
    let mut cases = Vec::new();
    for (dist_name, dist) in [
        ("uniform", ValueDistribution::Uniform),
        ("zipf", ValueDistribution::Zipf(1.0)),
    ] {
        for n in relation_sizes(scale) {
            let index = inputs.len();
            inputs.push(populate(&mut rng, &catalog, n, 100, dist));
            for (name, query) in &scaling {
                cases.push(Case {
                    name: format!("{dist_name}-{n}-{name}"),
                    input: index,
                    query: query.clone(),
                });
            }
        }
    }

    let comb = combinatorial_database(&mut rng, ValueDistribution::Uniform);
    let comb_rels: Vec<RelId> = comb.catalog().rels().collect();
    let x = |name: &str| {
        comb.catalog()
            .find_attr(name)
            .expect("combinatorial attribute")
    };
    let chain = [
        ("a0", "a2"),
        ("a3", "a4"),
        ("a6", "a7"),
        ("a1", "a5"),
        ("a8", "a0"),
        ("a9", "a3"),
    ];
    let index = inputs.len();
    for k in 1..=chain.len() {
        let query = chain[..k]
            .iter()
            .fold(Query::product(comb_rels.clone()), |q, (l, r)| {
                q.with_equality(x(l), x(r))
            });
        cases.push(Case {
            name: format!("combinatorial-k{k}"),
            input: index,
            query,
        });
    }
    inputs.push(comb);
    let generated = start.elapsed();
    let workload = Workload {
        inputs: inputs.into_iter().map(Input::new).collect(),
        cases,
    };
    (workload, generated)
}

/// `evaluate_flat`, decomposed into the calls of each layer: f-tree search
/// (`plan`), size estimate and `s(T)` (`cost`), `build_frep` (`build`),
/// the projection plan (`exec`) and the result's size and tuple count
/// (`consume.count`).
pub fn traced_call(input: &Input, query: &Query, trace: &mut Trace) -> fdb_common::Result<FRep> {
    let db = &input.db;
    let search = trace.span("plan", || {
        optimal_ftree(db.catalog(), query, |r| db.rel_len(r) as u64)
    })?;
    trace.count("plan.explored_states", search.explored_states as f64);
    let estimate = trace.span("cost", || {
        estimate_frep_size(&search.tree, |n| input.node_ndv(&search.tree, n))
    });

    let start = Instant::now();
    let mut result = build_frep(db, query, &search.tree)?;
    let build = start.elapsed();
    trace.record("build", build);

    let mut plan = FPlan::empty();
    if let Some(proj) = &query.projection {
        let keep: BTreeSet<AttrId> = proj.iter().copied().collect();
        plan.push(FPlanOp::Project(keep));
    }
    let fused = trace.span("exec", || {
        let simplified = plan.simplified(result.tree());
        simplified
            .execute_presimplified(&mut result)
            .map(|()| simplified.fuses())
    })?;
    trace.span("cost", || s_cost(result.tree()))?;
    let (size, _tuples) = trace.span("consume.count", || (result.size(), result.tuple_count()));

    trace.count("build.singletons", size as f64);
    if result.represents_empty() {
        trace.sample("build.empty_result_ms", measure::ms(build));
    }
    trace.count("exec.plans", 1.0);
    trace.count("exec.fused", f64::from(u8::from(fused)));
    trace.count("exec.singletons", size as f64);
    trace.sample("cost.qerror", qerror(estimate, size as f64));
    Ok(result)
}

/// Runs the workload.
pub fn run(config: &Config) -> Result<Report, String> {
    let (workload, setup_s, datagen_s) = repeat_setup(config.scale.setup_budget(), || {
        Ok(setup(config.seed, config.scale))
    })?;
    let engine = FdbEngine::new();
    let answer = |rep: &FRep| oracle::rep_answer(rep);

    let mut references = Vec::new();
    let mut singletons = 0.0;
    for case in &workload.cases {
        let out = engine
            .evaluate_flat(&workload.inputs[case.input].db, &case.query)
            .map_err(|e| format!("{} failed: {e}", case.name))?;
        singletons += out.stats.result_size as f64;
        references.push(answer(&out.result));
    }
    let set = QuerySet {
        names: workload.cases.iter().map(|c| c.name.clone()).collect(),
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
            let out = engine.evaluate_flat(&workload.inputs[case.input].db, &case.query);
            let time = start.elapsed();
            (time, out.ok().map(|o| answer(&o.result)))
        },
        |i, trace| {
            let case = &workload.cases[i];
            let start = Instant::now();
            let out = traced_call(&workload.inputs[case.input], &case.query, trace);
            let time = start.elapsed();
            (time, out.ok().map(|rep| answer(&rep)))
        },
        |i| {
            let case = &workload.cases[i];
            oracle::expected_answer(&workload.inputs[case.input].db, &case.query)
                .map_err(|e| format!("oracle failed on {}: {e}", case.name))
        },
    )
}
