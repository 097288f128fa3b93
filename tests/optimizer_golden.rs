//! Plan-choice golden test for the exhaustive f-plan search: on the
//! combinatorial database's K = 2..6 factorised inputs with seeded
//! L = 1..3 follow-up equalities (the query set of paper Experiment 4),
//! the chosen plan, its bottleneck cost and the number of explored states
//! must stay exactly as recorded.  A change to the search's internals
//! (state keys, cost memo, queue) must not move any of them.

use fdb::common::{AttrId, Query, RelId};
use fdb::datagen::{combinatorial_database, random_followup_equalities, ValueDistribution};
use fdb::engine::FdbEngine;
use fdb::plan::ExhaustiveOptimizer;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The chain of equalities the input queries take prefixes of: K = k uses
/// the first k.
const INPUT_CHAIN: [(&str, &str); 6] = [
    ("a0", "a2"),
    ("a3", "a4"),
    ("a6", "a7"),
    ("a1", "a5"),
    ("a8", "a0"),
    ("a9", "a3"),
];

/// `(K, L, plan ops, max_intermediate bits, explored_states)` of every
/// search, in query-set order.
fn fingerprints(rounds: usize) -> Vec<String> {
    // The input f-trees depend on the relation sizes only, which the
    // combinatorial database fixes, so one draw of the data serves.
    let db = combinatorial_database(&mut StdRng::seed_from_u64(1), ValueDistribution::Uniform);
    let catalog = db.catalog();
    let engine = FdbEngine::new();
    let mut structure = StdRng::seed_from_u64(0xFDB4);
    let mut out = Vec::new();
    for _ in 0..rounds {
        for k in 2..=6 {
            let rels: Vec<RelId> = catalog.rels().collect();
            let query = INPUT_CHAIN[..k]
                .iter()
                .fold(Query::product(rels), |q, (l, r)| {
                    let attr = |n: &str| catalog.find_attr(n).expect("combinatorial attribute");
                    q.with_equality(attr(l), attr(r))
                });
            let input = engine.evaluate_flat(&db, &query).unwrap().result;
            for l in 1..=3 {
                let equalities: Vec<(AttrId, AttrId)> =
                    random_followup_equalities(&mut structure, catalog, &query, l);
                let found = ExhaustiveOptimizer::new()
                    .optimize(input.tree(), &equalities)
                    .unwrap();
                out.push(format!(
                    "k{k} l{l} {:?} {:#x} {}",
                    found.plan.ops,
                    found.cost.max_intermediate.to_bits(),
                    found.explored_states
                ));
            }
        }
    }
    out
}

#[test]
fn exhaustive_search_plan_choice_is_unchanged() {
    let got = fingerprints(GOLDEN.len() / 15);
    assert_eq!(got.len(), GOLDEN.len());
    for (i, (got, want)) in got.iter().zip(GOLDEN).enumerate() {
        assert_eq!(got, want, "search {i}");
    }
}

/// Recorded from the search before its per-state costs were cut: six
/// rounds of the fifteen (K, L) pairs, as the `factorised-followup`
/// benchmark workload draws them.
const GOLDEN: &[&str] = &[
    "k2 l1 [Swap(NodeId(1)), Merge(NodeId(3), NodeId(1))] 0x4000000000000000 344",
    "k2 l2 [Swap(NodeId(1)), Merge(NodeId(3), NodeId(1)), Absorb(NodeId(3), NodeId(5))] 0x4000000000000000 494",
    "k2 l3 [Absorb(NodeId(3), NodeId(6)), Merge(NodeId(3), NodeId(0)), Absorb(NodeId(3), NodeId(2))] 0x4000000000000000 676",
    "k3 l1 [Absorb(NodeId(0), NodeId(5))] 0x4000000000000000 120",
    "k3 l2 [Absorb(NodeId(3), NodeId(5)), Absorb(NodeId(0), NodeId(3))] 0x4000000000000000 202",
    "k3 l3 [Absorb(NodeId(3), NodeId(5)), Absorb(NodeId(3), NodeId(4)), Absorb(NodeId(0), NodeId(3))] 0x4000000000000000 392",
    "k4 l1 [Swap(NodeId(2)), Merge(NodeId(3), NodeId(2))] 0x4000000000000000 58",
    "k4 l2 [Absorb(NodeId(3), NodeId(5)), Absorb(NodeId(0), NodeId(3))] 0x4000000000000000 214",
    "k4 l3 [Absorb(NodeId(0), NodeId(3)), Absorb(NodeId(0), NodeId(5)), Merge(NodeId(4), NodeId(1))] 0x4000000000000000 358",
    "k5 l1 [Absorb(NodeId(0), NodeId(2))] 0x3ffaaaaaaaaaaaab 8",
    "k5 l2 [Absorb(NodeId(3), NodeId(4)), Absorb(NodeId(0), NodeId(1))] 0x3ffaaaaaaaaaaaab 9",
    "k5 l3 [Merge(NodeId(3), NodeId(2)), Absorb(NodeId(0), NodeId(1)), Absorb(NodeId(0), NodeId(3))] 0x3ffaaaaaaaaaaaab 74",
    "k6 l1 [Absorb(NodeId(0), NodeId(1))] 0x3ff8000000000000 30",
    "k6 l2 [Absorb(NodeId(0), NodeId(1)), Absorb(NodeId(0), NodeId(2))] 0x3ff8000000000000 38",
    "k6 l3 [Absorb(NodeId(0), NodeId(2)), Absorb(NodeId(0), NodeId(3)), Absorb(NodeId(0), NodeId(1))] 0x3ff8000000000000 49",
    "k2 l1 [Absorb(NodeId(6), NodeId(7))] 0x4000000000000000 444",
    "k2 l2 [Swap(NodeId(7)), Swap(NodeId(5)), Merge(NodeId(7), NodeId(5)), Swap(NodeId(1)), Merge(NodeId(3), NodeId(1))] 0x4000000000000000 544",
    "k2 l3 [Absorb(NodeId(3), NodeId(7)), Merge(NodeId(3), NodeId(0)), Merge(NodeId(6), NodeId(1))] 0x4000000000000000 946",
    "k3 l1 [Absorb(NodeId(0), NodeId(3))] 0x4000000000000000 120",
    "k3 l2 [Swap(NodeId(3)), Absorb(NodeId(3), NodeId(2)), Absorb(NodeId(5), NodeId(6))] 0x4000000000000000 223",
    "k3 l3 [Swap(NodeId(3)), Absorb(NodeId(3), NodeId(4)), Absorb(NodeId(3), NodeId(2)), Absorb(NodeId(3), NodeId(5))] 0x4000000000000000 417",
    "k4 l1 [Absorb(NodeId(1), NodeId(2))] 0x4000000000000000 64",
    "k4 l2 [Absorb(NodeId(3), NodeId(4)), Absorb(NodeId(0), NodeId(3))] 0x4000000000000000 194",
    "k4 l3 [Absorb(NodeId(4), NodeId(5)), Absorb(NodeId(0), NodeId(3)), Absorb(NodeId(1), NodeId(2))] 0x4000000000000000 275",
    "k5 l1 [Absorb(NodeId(1), NodeId(4))] 0x3ffaaaaaaaaaaaab 6",
    "k5 l2 [Absorb(NodeId(3), NodeId(4)), Absorb(NodeId(0), NodeId(3))] 0x3ffaaaaaaaaaaaab 10",
    "k5 l3 [Absorb(NodeId(0), NodeId(4)), Absorb(NodeId(0), NodeId(1)), Absorb(NodeId(0), NodeId(3))] 0x3ffaaaaaaaaaaaab 20",
    "k6 l1 [Absorb(NodeId(1), NodeId(3))] 0x3ff8000000000000 30",
    "k6 l2 [Absorb(NodeId(1), NodeId(3)), Absorb(NodeId(1), NodeId(2))] 0x3ff8000000000000 38",
    "k6 l3 [Absorb(NodeId(0), NodeId(3)), Absorb(NodeId(0), NodeId(1)), Absorb(NodeId(0), NodeId(2))] 0x3ff8000000000000 49",
    "k2 l1 [Absorb(NodeId(3), NodeId(6))] 0x4000000000000000 444",
    "k2 l2 [Swap(NodeId(2)), Swap(NodeId(2)), Merge(NodeId(3), NodeId(2)), Swap(NodeId(7)), Merge(NodeId(7), NodeId(4))] 0x4000000000000000 544",
    "k2 l3 [Swap(NodeId(1)), Merge(NodeId(3), NodeId(1)), Absorb(NodeId(0), NodeId(2)), Swap(NodeId(7)), Merge(NodeId(7), NodeId(0))] 0x4000000000000000 834",
    "k3 l1 [Absorb(NodeId(0), NodeId(3))] 0x4000000000000000 120",
    "k3 l2 [Swap(NodeId(6)), Absorb(NodeId(0), NodeId(1)), Swap(NodeId(6)), Merge(NodeId(6), NodeId(2))] 0x4000000000000000 287",
    "k3 l3 [Merge(NodeId(3), NodeId(1)), Absorb(NodeId(3), NodeId(5)), Absorb(NodeId(3), NodeId(6))] 0x4000000000000000 414",
    "k4 l1 [Absorb(NodeId(0), NodeId(2))] 0x4000000000000000 64",
    "k4 l2 [Absorb(NodeId(0), NodeId(1)), Absorb(NodeId(3), NodeId(5))] 0x4000000000000000 158",
    "k4 l3 [Swap(NodeId(3)), Absorb(NodeId(3), NodeId(2)), Absorb(NodeId(3), NodeId(5)), Absorb(NodeId(0), NodeId(4))] 0x4000000000000000 358",
    "k5 l1 [Absorb(NodeId(3), NodeId(4))] 0x3ffaaaaaaaaaaaab 6",
    "k5 l2 [Swap(NodeId(4)), Absorb(NodeId(0), NodeId(1)), Merge(NodeId(4), NodeId(2))] 0x3ffaaaaaaaaaaaab 36",
    "k5 l3 [Absorb(NodeId(0), NodeId(4)), Absorb(NodeId(0), NodeId(3)), Absorb(NodeId(0), NodeId(2))] 0x3ffaaaaaaaaaaaab 52",
    "k6 l1 [Absorb(NodeId(1), NodeId(2))] 0x3ff8000000000000 30",
    "k6 l2 [Absorb(NodeId(0), NodeId(3)), Absorb(NodeId(0), NodeId(2))] 0x3ff8000000000000 38",
    "k6 l3 [Absorb(NodeId(1), NodeId(3)), Absorb(NodeId(0), NodeId(1)), Absorb(NodeId(0), NodeId(2))] 0x3ff8000000000000 49",
    "k2 l1 [Swap(NodeId(6)), Absorb(NodeId(6), NodeId(5))] 0x4000000000000000 408",
    "k2 l2 [Merge(NodeId(3), NodeId(0)), Swap(NodeId(1)), Absorb(NodeId(1), NodeId(5))] 0x4000000000000000 526",
    "k2 l3 [Absorb(NodeId(3), NodeId(6)), Absorb(NodeId(3), NodeId(7)), Absorb(NodeId(3), NodeId(5))] 0x4000000000000000 774",
    "k3 l1 [Absorb(NodeId(0), NodeId(3))] 0x4000000000000000 120",
    "k3 l2 [Swap(NodeId(3)), Absorb(NodeId(3), NodeId(6)), Merge(NodeId(4), NodeId(1))] 0x4000000000000000 303",
    "k3 l3 [Absorb(NodeId(0), NodeId(3)), Absorb(NodeId(0), NodeId(2)), Merge(NodeId(5), NodeId(1))] 0x4000000000000000 346",
    "k4 l1 [Merge(NodeId(3), NodeId(1))] 0x4000000000000000 58",
    "k4 l2 [Absorb(NodeId(0), NodeId(5)), Merge(NodeId(3), NodeId(1))] 0x4000000000000000 236",
    "k4 l3 [Absorb(NodeId(0), NodeId(3)), Absorb(NodeId(4), NodeId(5)), Absorb(NodeId(0), NodeId(4))] 0x4000000000000000 332",
    "k5 l1 [Absorb(NodeId(1), NodeId(4))] 0x3ffaaaaaaaaaaaab 6",
    "k5 l2 [Absorb(NodeId(0), NodeId(4)), Absorb(NodeId(0), NodeId(1))] 0x3ffaaaaaaaaaaaab 9",
    "k5 l3 [Absorb(NodeId(1), NodeId(2)), Absorb(NodeId(0), NodeId(4)), Absorb(NodeId(1), NodeId(3))] 0x3ffaaaaaaaaaaaab 74",
    "k6 l1 [Absorb(NodeId(0), NodeId(1))] 0x3ff8000000000000 30",
    "k6 l2 [Absorb(NodeId(1), NodeId(2)), Absorb(NodeId(0), NodeId(1))] 0x3ff8000000000000 38",
    "k6 l3 [Absorb(NodeId(0), NodeId(3)), Absorb(NodeId(0), NodeId(2)), Absorb(NodeId(0), NodeId(1))] 0x3ff8000000000000 49",
    "k2 l1 [Swap(NodeId(6)), Merge(NodeId(6), NodeId(0))] 0x4000000000000000 348",
    "k2 l2 [Swap(NodeId(2)), Swap(NodeId(2)), Merge(NodeId(3), NodeId(2)), Merge(NodeId(6), NodeId(4))] 0x4000000000000000 522",
    "k2 l3 [Swap(NodeId(7)), Absorb(NodeId(3), NodeId(5)), Swap(NodeId(2)), Swap(NodeId(2)), Merge(NodeId(3), NodeId(2)), Merge(NodeId(7), NodeId(0))] 0x4000000000000000 797",
    "k3 l1 [Swap(NodeId(2)), Merge(NodeId(3), NodeId(2))] 0x4000000000000000 128",
    "k3 l2 [Merge(NodeId(3), NodeId(1)), Merge(NodeId(4), NodeId(2))] 0x4000000000000000 277",
    "k3 l3 [Swap(NodeId(3)), Swap(NodeId(5)), Absorb(NodeId(5), NodeId(1)), Absorb(NodeId(3), NodeId(2)), Absorb(NodeId(5), NodeId(4))] 0x4000000000000000 459",
    "k4 l1 [Absorb(NodeId(0), NodeId(5))] 0x4000000000000000 56",
    "k4 l2 [Absorb(NodeId(0), NodeId(5)), Absorb(NodeId(0), NodeId(3))] 0x4000000000000000 214",
    "k4 l3 [Absorb(NodeId(0), NodeId(4)), Absorb(NodeId(0), NodeId(5)), Absorb(NodeId(0), NodeId(3))] 0x4000000000000000 332",
    "k5 l1 [Absorb(NodeId(3), NodeId(4))] 0x3ffaaaaaaaaaaaab 6",
    "k5 l2 [Absorb(NodeId(0), NodeId(1)), Absorb(NodeId(0), NodeId(3))] 0x3ffaaaaaaaaaaaab 9",
    "k5 l3 [Absorb(NodeId(0), NodeId(2)), Absorb(NodeId(0), NodeId(4)), Absorb(NodeId(0), NodeId(1))] 0x3ffaaaaaaaaaaaab 47",
    "k6 l1 [Absorb(NodeId(0), NodeId(1))] 0x3ff8000000000000 30",
    "k6 l2 [Absorb(NodeId(0), NodeId(2)), Absorb(NodeId(0), NodeId(1))] 0x3ff8000000000000 38",
    "k6 l3 [Absorb(NodeId(0), NodeId(1)), Absorb(NodeId(0), NodeId(3)), Absorb(NodeId(0), NodeId(2))] 0x3ff8000000000000 49",
    "k2 l1 [Swap(NodeId(6)), Swap(NodeId(7)), Merge(NodeId(7), NodeId(0))] 0x4000000000000000 372",
    "k2 l2 [Swap(NodeId(4)), Absorb(NodeId(4), NodeId(7)), Swap(NodeId(2)), Swap(NodeId(2)), Merge(NodeId(4), NodeId(2))] 0x4000000000000000 596",
    "k2 l3 [Swap(NodeId(2)), Swap(NodeId(2)), Absorb(NodeId(3), NodeId(5)), Merge(NodeId(3), NodeId(2)), Absorb(NodeId(3), NodeId(6))] 0x4000000000000000 622",
    "k3 l1 [Merge(NodeId(5), NodeId(4))] 0x4000000000000000 134",
    "k3 l2 [Absorb(NodeId(0), NodeId(5)), Absorb(NodeId(0), NodeId(6))] 0x4000000000000000 202",
    "k3 l3 [Absorb(NodeId(0), NodeId(3)), Merge(NodeId(4), NodeId(1)), Swap(NodeId(2)), Swap(NodeId(6)), Merge(NodeId(6), NodeId(2))] 0x4000000000000000 505",
    "k4 l1 [Absorb(NodeId(0), NodeId(3))] 0x4000000000000000 56",
    "k4 l2 [Absorb(NodeId(0), NodeId(3)), Swap(NodeId(1)), Absorb(NodeId(1), NodeId(5))] 0x4000000000000000 246",
    "k4 l3 [Absorb(NodeId(3), NodeId(5)), Absorb(NodeId(0), NodeId(4)), Absorb(NodeId(0), NodeId(1))] 0x4000000000000000 353",
    "k5 l1 [Absorb(NodeId(0), NodeId(4))] 0x3ffaaaaaaaaaaaab 6",
    "k5 l2 [Absorb(NodeId(0), NodeId(2)), Absorb(NodeId(3), NodeId(4))] 0x3ffaaaaaaaaaaaab 36",
    "k5 l3 [Absorb(NodeId(0), NodeId(1)), Absorb(NodeId(0), NodeId(3)), Absorb(NodeId(0), NodeId(4))] 0x3ffaaaaaaaaaaaab 20",
    "k6 l1 [Absorb(NodeId(0), NodeId(2))] 0x3ff8000000000000 30",
    "k6 l2 [Absorb(NodeId(2), NodeId(3)), Absorb(NodeId(0), NodeId(1))] 0x3ff8000000000000 38",
    "k6 l3 [Absorb(NodeId(0), NodeId(1)), Absorb(NodeId(0), NodeId(3)), Absorb(NodeId(0), NodeId(2))] 0x3ff8000000000000 49",
];
