//! Correctness oracle: every answer is reduced to its tuple count plus an
//! order-independent fingerprint and compared with the same reduction of an
//! independent evaluation.
//!
//! The fingerprint of a relation is `Σ_tuples Π_(A, v) h(A, v)` in the ring
//! of integers modulo 2⁶⁴.  Because sums and products distribute over the
//! unions and products of a factorised representation, the same value is
//! computed from an f-representation in one pass over its singletons —
//! without enumerating the (possibly huge) flat result.

use fdb_common::{AttrId, Query, Result, Value};
use fdb_core::FdbEngine;
use fdb_frep::{FRep, UnionRef};
use fdb_ftree::NodeId;
use fdb_relation::{Database, EvalLimits, RdbEngine, Relation};
use std::collections::BTreeMap;

/// Largest flat result the relational oracle materialises; larger results
/// are checked against `FdbEngine::evaluate_flat_via_operators` instead.
pub const ORACLE_TUPLE_BUDGET: usize = 2_000_000;

/// The reduction of one answer that the check compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Number of tuples.
    pub tuples: u128,
    /// Order-independent fingerprint (see the module docs).
    pub fingerprint: u64,
}

/// The fingerprint factor of one singleton `⟨A: v⟩`; odd, so products of
/// factors never collapse to zero.
fn factor(attr: AttrId, value: Value) -> u64 {
    let mut z = (u64::from(attr.0) << 48) ^ value.0 ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// The answer of a flat relation (assumed duplicate-free).
pub fn relation_answer(rel: &Relation) -> Answer {
    let attrs = rel.attrs();
    let fingerprint = rel.rows().fold(0u64, |acc, row| {
        let product = attrs
            .iter()
            .zip(row)
            .fold(1u64, |p, (&a, &v)| p.wrapping_mul(factor(a, v)));
        acc.wrapping_add(product)
    });
    Answer {
        tuples: rel.len() as u128,
        fingerprint,
    }
}

/// The answer of an f-representation, folded over its singletons.  Valid
/// for representations whose nodes all carry a visible attribute (no
/// projection); projected results go through [`projected_answer`].
pub fn rep_answer(rep: &FRep) -> Answer {
    let tree = rep.tree();
    let visible: BTreeMap<NodeId, Vec<AttrId>> = tree
        .node_ids()
        .into_iter()
        .map(|n| (n, tree.visible_attrs(n).into_iter().collect()))
        .collect();
    let fingerprint = rep.roots().fold(1u64, |p, root| {
        p.wrapping_mul(union_fingerprint(root, &visible))
    });
    Answer {
        tuples: rep.tuple_count(),
        fingerprint,
    }
}

fn union_fingerprint(union: UnionRef<'_>, visible: &BTreeMap<NodeId, Vec<AttrId>>) -> u64 {
    let attrs = &visible[&union.node()];
    union.entries().fold(0u64, |sum, entry| {
        let own = attrs
            .iter()
            .fold(1u64, |p, &a| p.wrapping_mul(factor(a, entry.value())));
        let product = entry.children().fold(own, |p, kid| {
            p.wrapping_mul(union_fingerprint(kid, visible))
        });
        sum.wrapping_add(product)
    })
}

/// The answer of a projected result: its distinct enumerated tuples.
pub fn projected_answer(rep: &FRep) -> Result<Answer> {
    let mut rel = fdb_frep::materialize(rep)?;
    rel.sort_and_dedup();
    Ok(relation_answer(&rel))
}

/// The answer of any result representation.
pub fn answer_of(rep: &FRep, projected: bool) -> Result<Answer> {
    if projected {
        projected_answer(rep)
    } else {
        Ok(rep_answer(rep))
    }
}

/// The flat relational oracle's result, when it fits the tuple budget.
pub fn rdb_result(db: &Database, query: &Query) -> Option<Relation> {
    RdbEngine::new()
        .with_limits(EvalLimits::unlimited().with_max_tuples(ORACLE_TUPLE_BUDGET))
        .evaluate(db, query)
        .ok()
}

/// The expected answer of `query` on `db`: the flat `RdbEngine` result
/// when it fits the budget, else the independent operator-only
/// construction.
pub fn expected_answer(db: &Database, query: &Query) -> Result<Answer> {
    match rdb_result(db, query) {
        Some(rel) => Ok(relation_answer(&rel)),
        None => {
            let out = FdbEngine::new().evaluate_flat_via_operators(db, query)?;
            answer_of(&out.result, query.projection.is_some())
        }
    }
}

/// The expected rows of `query` on `db`, from the same two sources as
/// [`expected_answer`] (the operator-only construction enumerated, and
/// deduplicated when projected).
pub fn expected_rows(db: &Database, query: &Query) -> Result<Relation> {
    match rdb_result(db, query) {
        Some(rel) => Ok(rel),
        None => {
            let out = FdbEngine::new().evaluate_flat_via_operators(db, query)?;
            let mut rel = fdb_frep::materialize(&out.result)?;
            if query.projection.is_some() {
                rel.sort_and_dedup();
            }
            Ok(rel)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_common::Catalog;

    #[test]
    fn factorised_and_flat_fingerprints_agree() {
        let mut catalog = Catalog::new();
        let (r, _) = catalog.add_relation("R", &["a", "b"]);
        let (s, _) = catalog.add_relation("S", &["c", "d"]);
        let mut db = Database::new(catalog.clone());
        db.insert_raw_rows(r, &[vec![1, 1], vec![1, 2], vec![2, 3]])
            .unwrap();
        db.insert_raw_rows(s, &[vec![1, 7], vec![2, 8], vec![2, 9]])
            .unwrap();
        let a = catalog.find_attr("R.a").unwrap();
        let c = catalog.find_attr("S.c").unwrap();
        let query = Query::product(vec![r, s]).with_equality(a, c);
        let rep = FdbEngine::new().evaluate_flat(&db, &query).unwrap().result;
        let flat = rdb_result(&db, &query).unwrap();
        assert_eq!(rep_answer(&rep), relation_answer(&flat));
        assert_eq!(rep_answer(&rep).tuples, 4);
        let other = Query::product(vec![r, s]).with_equality(a, catalog.find_attr("S.d").unwrap());
        assert_ne!(
            relation_answer(&rdb_result(&db, &other).unwrap()),
            relation_answer(&flat)
        );
    }
}
