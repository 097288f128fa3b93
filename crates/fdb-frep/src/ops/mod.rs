//! Data-level f-plan operators: one executor, one oracle.
//!
//! Each operator of the paper's Section 3 transforms an f-representation
//! *and* its f-tree, keeping the two consistent:
//!
//! | operator | [`FusedOp`] | f-tree effect |
//! |---|---|---|
//! | Cartesian product `×` | — ([`product()`]) | forests are concatenated |
//! | push-up `ψ_B`, normalisation `η` | `PushUp`, `Normalise` | a subtree moves one level up |
//! | swap `χ_{A,B}` | `Swap` | a child exchanges places with its parent |
//! | merge `µ_{A,B}` | `Merge` | two sibling nodes fuse |
//! | absorb `α_{A,B}` | `Absorb` | a node fuses into an ancestor |
//! | selection with constant `σ_{AθC}` | `SelectConst` | the node may become constant-bound |
//! | projection `π_Ā` | `Project` | projected leaves disappear |
//!
//! # The executor
//!
//! Every operator but the product runs through the fused overlay executor
//! ([`fuse`]): a program of [`FusedOp`] steps — one step or many — is
//! simulated on the f-tree first (which validates every step before any
//! data is touched), applied to a lightweight overlay of references into
//! the input arena, and emitted as one fresh arena in the exact freeze
//! layout.  A lone operator is simply a one-step program; there is no
//! second, per-operator rewriter.  [`execute_fused_aggregate`] folds an
//! aggregate over the overlay instead of emitting.  The product is the one
//! exception: it concatenates two arenas with an index offset and needs no
//! overlay.
//!
//! # The oracle
//!
//! [`oracle`] holds the straightforward implementation of every operator:
//! thaw the arena into the owned [`crate::node`] builder form, rewrite the
//! pointer tree, freeze it back.  Freezing yields the layout the executor
//! emits, so the equivalence tests compare the two stores bit for bit.
//!
//! All operators preserve the invariants of [`crate::FRep`]: values inside
//! every union stay sorted and distinct, every entry carries one child union
//! per f-tree child, the path constraint holds, and (where the paper
//! promises it) normalisation is preserved.  Under `debug_assertions` every
//! fused emission re-validates the full arena ([`crate::FRep::validate`])
//! before it is installed.

pub mod fuse;
#[doc(hidden)]
pub mod oracle;
pub mod product;

pub use fuse::{
    execute_fused, execute_fused_aggregate, execute_fused_aggregate_ctx, execute_fused_ctx, FusedOp,
};
pub use product::product;

use crate::frep::FRep;
use fdb_ftree::NodeId;

/// Position of `node` in an f-tree child list.  The overlay passes use this
/// to translate between the kid-slot orders of the input and output trees;
/// a miss means the representation disagrees with its tree, which
/// validation would have rejected.
pub(crate) fn child_pos(children: &[NodeId], node: NodeId) -> u32 {
    children
        .iter()
        .position(|&c| c == node)
        .expect("validated representation: node present in the child list") as u32
}

/// Debug-only full-arena invariant check, run after every fused emission.
/// Release builds skip it: the executor maintains the invariants by
/// construction.
#[inline]
pub(crate) fn debug_validate(rep: &FRep, op: &str) {
    if cfg!(debug_assertions) {
        if let Err(e) = rep.validate() {
            panic!("{op}: fused emission broke an invariant: {e:?}");
        }
    }
}

/// Shared helpers of the operator tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::{execute_fused, oracle, product, FusedOp};
    use crate::frep::FRep;
    use crate::node::{Entry, Union};
    use fdb_common::{AttrId, Value};
    use fdb_ftree::{DepEdge, FTree, NodeId};
    use std::collections::BTreeSet;

    pub(crate) fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// A union of leaf entries over `node`.
    pub(crate) fn leaves(node: NodeId, values: &[u64]) -> Union {
        Union::new(
            node,
            values.iter().map(|&v| Entry::leaf(Value::new(v))).collect(),
        )
    }

    /// A two-level factorisation `root{attrs[0]} → child{attrs[1]}` of one
    /// relation: one root entry per row, holding the row's child values.
    pub(crate) fn two_level(name: &str, attr_ids: [u32; 2], rows: &[(u64, &[u64])]) -> FRep {
        let edges = vec![DepEdge::new(name, attrs(&attr_ids), rows.len() as u64)];
        let mut tree = FTree::new(edges);
        let root = tree.add_node(attrs(&attr_ids[..1]), None).unwrap();
        let child = tree.add_node(attrs(&attr_ids[1..]), Some(root)).unwrap();
        let entries = rows
            .iter()
            .map(|&(v, kids)| Entry {
                value: Value::new(v),
                children: vec![leaves(child, kids)],
            })
            .collect();
        FRep::from_parts(tree, vec![Union::new(root, entries)]).unwrap()
    }

    /// The product of `R: 0 → 1` and `S: 2 → 3`, whose roots are siblings
    /// that merge on the shared values; returns the two root nodes too.
    pub(crate) fn two_roots(
        left: &[(u64, &[u64])],
        right: &[(u64, &[u64])],
    ) -> (FRep, NodeId, NodeId) {
        let rep = product(two_level("R", [0, 1], left), two_level("S", [2, 3], right)).unwrap();
        let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
        let b = rep.tree().node_of_attr(AttrId(2)).unwrap();
        (rep, a, b)
    }

    /// Tree A{0} → B{1} → C{2} with relations {0,1} and {1,2}; the data is a
    /// two-step chain, A=1: B∈{10 → C {1,3}, 11 → C {2}};  A=2: B∈{10 → C
    /// {1,3}}.  Absorbing C into A keeps only the chains whose two
    /// endpoints are equal.
    pub(crate) fn chain_rep() -> FRep {
        let edges = vec![
            DepEdge::new("RAB", attrs(&[0, 1]), 4),
            DepEdge::new("RBC", attrs(&[1, 2]), 4),
        ];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let c = tree.add_node(attrs(&[2]), Some(b)).unwrap();
        let b_entry = |bv: u64, cs: &[u64]| Entry {
            value: Value::new(bv),
            children: vec![leaves(c, cs)],
        };
        let a_entry = |av: u64, bs: Vec<Entry>| Entry {
            value: Value::new(av),
            children: vec![Union::new(b, bs)],
        };
        let a_union = Union::new(
            a,
            vec![
                a_entry(1, vec![b_entry(10, &[1, 3]), b_entry(11, &[2])]),
                a_entry(2, vec![b_entry(10, &[1, 3])]),
            ],
        );
        FRep::from_parts(tree, vec![a_union]).unwrap()
    }

    /// Tree C{2} → A{0} → B{1} over relations {2,0} and {1}: B is independent
    /// of both, so it can be pushed up to C and then out of C.  C=1 holds
    /// A∈{10, 11}, C=2 holds A∈{12}; every A-entry holds B{9}.
    pub(crate) fn push_up_chain() -> FRep {
        let edges = vec![
            DepEdge::new("RCA", attrs(&[2, 0]), 2),
            DepEdge::new("SB", attrs(&[1]), 1),
        ];
        let mut tree = FTree::new(edges);
        let c = tree.add_node(attrs(&[2]), None).unwrap();
        let a = tree.add_node(attrs(&[0]), Some(c)).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let c_entry = |cv: u64, avs: &[u64]| Entry {
            value: Value::new(cv),
            children: vec![Union::new(
                a,
                avs.iter()
                    .map(|&v| Entry {
                        value: Value::new(v),
                        children: vec![leaves(b, &[9])],
                    })
                    .collect(),
            )],
        };
        FRep::from_parts(
            tree,
            vec![Union::new(
                c,
                vec![c_entry(1, &[10, 11]), c_entry(2, &[12])],
            )],
        )
        .unwrap()
    }

    /// Runs `program` through the fused executor and through the thaw
    /// oracle, asserts the results agree bit for bit (store and tree), and
    /// returns the fused result.
    pub(crate) fn run_checked(rep: &FRep, program: &[FusedOp]) -> FRep {
        let mut fused = rep.clone();
        let mut reference = rep.clone();
        execute_fused(&mut fused, program).unwrap_or_else(|e| panic!("{program:?}: fused: {e:?}"));
        oracle::execute(&mut reference, program)
            .unwrap_or_else(|e| panic!("{program:?}: oracle: {e:?}"));
        fused
            .validate()
            .unwrap_or_else(|e| panic!("{program:?}: fused result invalid: {e:?}"));
        assert!(
            fused.store_identical(&reference),
            "{program:?}: fused and oracle stores diverge\nfused:\n{}\noracle:\n{}",
            fused.dump_store(),
            reference.dump_store()
        );
        assert_eq!(
            fused.tree().canonical_key(),
            reference.tree().canonical_key(),
            "{program:?}: trees diverge"
        );
        fused
    }

    /// Runs a program expected to fail: both paths must reject it, and the
    /// fused executor must leave its input untouched.
    pub(crate) fn assert_rejected(rep: &FRep, program: &[FusedOp]) {
        let mut fused = rep.clone();
        assert!(execute_fused(&mut fused, program).is_err(), "{program:?}");
        assert!(fused.store_identical(rep), "{program:?} modified its input");
        assert!(
            oracle::execute(&mut rep.clone(), program).is_err(),
            "{program:?}"
        );
    }
}

// Operator semantics, one test module per paper operator.  Every case runs
// the operator as a one-step fused program and checks it against the thaw
// oracle bit for bit.

#[cfg(test)]
mod swap {
    mod tests {
        use crate::enumerate::materialize;
        use crate::node::{Entry, Union};
        use crate::ops::testing::{assert_rejected, attrs, run_checked};
        use crate::ops::FusedOp;
        use crate::FRep;
        use fdb_common::{AttrId, Value};
        use fdb_ftree::{DepEdge, FTree};

        /// The grocery Q1 result of Example 1 over the f-tree T1
        /// (item → (oid, location → dispatcher)), with values encoded as
        /// integers: Milk=1, Cheese=2, Melon=3; Istanbul=1, Izmir=2,
        /// Antalya=3; Adnan=1, Yasemin=2, Volkan=3.
        fn grocery_q1_over_t1() -> FRep {
            // Attribute ids: oid=0, Orders.item=1, Store.location=2,
            // Store.item=3, dispatcher=4, Disp.location=5.
            let edges = vec![
                DepEdge::new("Orders", attrs(&[0, 1]), 5),
                DepEdge::new("Store", attrs(&[2, 3]), 6),
                DepEdge::new("Disp", attrs(&[4, 5]), 4),
            ];
            let mut tree = FTree::new(edges);
            let item = tree.add_node(attrs(&[1, 3]), None).unwrap();
            let oid = tree.add_node(attrs(&[0]), Some(item)).unwrap();
            let location = tree.add_node(attrs(&[2, 5]), Some(item)).unwrap();
            let dispatcher = tree.add_node(attrs(&[4]), Some(location)).unwrap();

            let leaves = |node, vals: &[u64]| {
                Union::new(
                    node,
                    vals.iter().map(|&v| Entry::leaf(Value::new(v))).collect(),
                )
            };
            let loc_entry = |loc: u64, dispatchers: &[u64]| Entry {
                value: Value::new(loc),
                children: vec![leaves(dispatcher, dispatchers)],
            };
            // Milk: orders {1}, locations Istanbul{Adnan,Yasemin}, Izmir{Adnan}, Antalya{Volkan}
            // Cheese: orders {1,3}, locations Istanbul{Adnan,Yasemin}, Antalya{Volkan}
            // Melon: orders {2,3}, locations Istanbul{Adnan,Yasemin}
            let item_union = Union::new(
                item,
                vec![
                    Entry {
                        value: Value::new(1),
                        children: vec![
                            leaves(oid, &[1]),
                            Union::new(
                                location,
                                vec![
                                    loc_entry(1, &[1, 2]),
                                    loc_entry(2, &[1]),
                                    loc_entry(3, &[3]),
                                ],
                            ),
                        ],
                    },
                    Entry {
                        value: Value::new(2),
                        children: vec![
                            leaves(oid, &[1, 3]),
                            Union::new(location, vec![loc_entry(1, &[1, 2]), loc_entry(3, &[3])]),
                        ],
                    },
                    Entry {
                        value: Value::new(3),
                        children: vec![
                            leaves(oid, &[2, 3]),
                            Union::new(location, vec![loc_entry(1, &[1, 2])]),
                        ],
                    },
                ],
            );
            FRep::from_parts(tree, vec![item_union]).unwrap()
        }

        #[test]
        fn swapping_item_and_location_matches_example1() {
            // χ_{item,location} turns the T1 factorisation into the T2
            // factorisation of Example 1: grouped by location first.
            let rep = grocery_q1_over_t1();
            let before = materialize(&rep).unwrap().tuple_set();
            let location = rep.tree().node_of_attr(AttrId(2)).unwrap();
            let item = rep.tree().node_of_attr(AttrId(1)).unwrap();
            let oid = rep.tree().node_of_attr(AttrId(0)).unwrap();
            let dispatcher = rep.tree().node_of_attr(AttrId(4)).unwrap();
            let rep = run_checked(&rep, &[FusedOp::Swap(location)]);
            assert_eq!(rep.tree().roots(), &[location]);
            assert_eq!(rep.tree().parent(item), Some(location));
            // dispatcher stays with location, oid follows item (it depends
            // on it).
            assert_eq!(rep.tree().parent(dispatcher), Some(location));
            assert_eq!(rep.tree().parent(oid), Some(item));
            assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
            // T2 of Example 1: the root union now ranges over the three
            // locations; under Istanbul there are three items.
            let root = rep.root(0);
            assert_eq!(root.node(), location);
            assert_eq!(root.len(), 3);
            let istanbul = root.find_value(Value::new(1)).unwrap();
            let item_union = istanbul.child(item).unwrap();
            assert_eq!(item_union.len(), 3);
        }

        #[test]
        fn swap_back_restores_the_original_grouping() {
            let rep = grocery_q1_over_t1();
            let location = rep.tree().node_of_attr(AttrId(2)).unwrap();
            let item = rep.tree().node_of_attr(AttrId(1)).unwrap();
            let swapped = run_checked(&rep, &[FusedOp::Swap(location), FusedOp::Swap(item)]);
            assert_eq!(swapped.tree().canonical_key(), rep.tree().canonical_key());
            assert_eq!(swapped.size(), rep.size());
            assert_eq!(
                materialize(&swapped).unwrap().tuple_set(),
                materialize(&rep).unwrap().tuple_set()
            );
        }

        #[test]
        fn swap_rejects_roots() {
            let rep = grocery_q1_over_t1();
            let item = rep.tree().node_of_attr(AttrId(1)).unwrap();
            assert_rejected(&rep, &[FusedOp::Swap(item)]);
        }

        #[test]
        fn arena_swap_is_store_identical_to_the_oracle() {
            // Every swap of a non-root node of T1, as a one-step program.
            let rep = grocery_q1_over_t1();
            for node in rep.tree().node_ids() {
                if rep.tree().parent(node).is_some() {
                    run_checked(&rep, &[FusedOp::Swap(node)]);
                }
            }
        }

        #[test]
        fn dependent_children_follow_the_old_parent_down() {
            // Tree A{0} → B{1} → (C{2}, D{3}) with relations {0,1}, {0,2},
            // {1,3}: C depends on A (G_ab), D does not (F_b).
            let edges = vec![
                DepEdge::new("RAB", attrs(&[0, 1]), 1),
                DepEdge::new("RAC", attrs(&[0, 2]), 1),
                DepEdge::new("RBD", attrs(&[1, 3]), 1),
            ];
            let mut tree = FTree::new(edges);
            let a = tree.add_node(attrs(&[0]), None).unwrap();
            let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
            let c = tree.add_node(attrs(&[2]), Some(b)).unwrap();
            let d = tree.add_node(attrs(&[3]), Some(b)).unwrap();

            // Data: A=1 with B∈{10, 20}; under (1,10): C={100}, D={7};
            //       under (1,20): C={200}, D={8};  A=2 with B={10}: C={300}, D={7}.
            let b_entry = |bv: u64, cv: u64, dv: u64| Entry {
                value: Value::new(bv),
                children: vec![
                    Union::new(c, vec![Entry::leaf(Value::new(cv))]),
                    Union::new(d, vec![Entry::leaf(Value::new(dv))]),
                ],
            };
            let a_union = Union::new(
                a,
                vec![
                    Entry {
                        value: Value::new(1),
                        children: vec![Union::new(
                            b,
                            vec![b_entry(10, 100, 7), b_entry(20, 200, 8)],
                        )],
                    },
                    Entry {
                        value: Value::new(2),
                        children: vec![Union::new(b, vec![b_entry(10, 300, 7)])],
                    },
                ],
            );
            let rep = FRep::from_parts(tree, vec![a_union]).unwrap();
            let before = materialize(&rep).unwrap().tuple_set();
            let rep = run_checked(&rep, &[FusedOp::Swap(b)]);
            // C followed A down, D stayed with B.
            assert_eq!(rep.tree().children(a), &[c]);
            assert!(rep.tree().children(b).contains(&d));
            assert_eq!(rep.tree().parent(a), Some(b));
            assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
            // Structure: root over B with values 10, 20; under B=10 the
            // D-union {7} is shared while the A-union has entries 1 and 2
            // with their own C-unions.
            let root = rep.root(0);
            assert_eq!(root.node(), b);
            assert_eq!(root.len(), 2);
            let b10 = root.find_value(Value::new(10)).unwrap();
            assert_eq!(b10.child(a).unwrap().len(), 2);
            assert_eq!(b10.child(d).unwrap().len(), 1);
            let a1 = b10.child(a).unwrap().find_value(Value::new(1)).unwrap();
            assert_eq!(a1.child(c).unwrap().entry(0).value(), Value::new(100));
        }
    }
}

#[cfg(test)]
mod merge {
    mod tests {
        use crate::enumerate::materialize;
        use crate::node::{Entry, Union};
        use crate::ops::testing::{assert_rejected, attrs, run_checked, two_level, two_roots};
        use crate::ops::FusedOp;
        use crate::FRep;
        use fdb_common::{AttrId, Value};
        use fdb_ftree::{DepEdge, FTree};

        #[test]
        fn merging_sibling_roots_joins_on_the_shared_values() {
            // Example 9 in miniature: two factorisations with items at the
            // top are joined on item by merging the two root nodes.
            let (rep, a, b) = two_roots(
                &[(1, &[10]), (2, &[20, 21]), (3, &[30])],
                &[(2, &[77]), (3, &[88, 99]), (4, &[11])],
            );
            let rep = run_checked(&rep, &[FusedOp::Merge(a, b)]);
            // The first node survives, labelled by both attributes.
            assert_eq!(rep.tree().node_of_attr(AttrId(2)), Some(a));
            assert_eq!(rep.tree().class(a), &attrs(&[0, 2]));
            // Only items 2 and 3 survive.
            assert_eq!(rep.root(0).len(), 2);
            // The flat view must equal the join: item 2 → {20,21}×{77},
            // item 3 → {30}×{88,99}.
            let flat = materialize(&rep).unwrap();
            assert_eq!(flat.len(), 2 + 2);
            // Both item attributes carry the same value in every tuple.
            let c0 = flat.col_index(AttrId(0)).unwrap();
            let c2 = flat.col_index(AttrId(2)).unwrap();
            assert!(flat.rows().all(|r| r[c0] == r[c2]));
        }

        #[test]
        fn merge_of_disjoint_value_sets_gives_the_empty_representation() {
            let (rep, a, b) = two_roots(&[(1, &[10])], &[(2, &[20])]);
            let rep = run_checked(&rep, &[FusedOp::Merge(a, b)]);
            assert!(rep.represents_empty());
            assert_eq!(rep.tuple_count(), 0);
        }

        #[test]
        fn merge_requires_siblings() {
            let rep = two_level("R", [0, 1], &[(1, &[10])]);
            let root = rep.tree().node_of_attr(AttrId(0)).unwrap();
            let child = rep.tree().node_of_attr(AttrId(1)).unwrap();
            assert_rejected(&rep, &[FusedOp::Merge(root, child)]);
        }

        #[test]
        fn merge_deeper_in_the_tree_joins_within_each_context() {
            // A forest of one tree: root{0} → (x{1}, y{2}); relations make x
            // and y independent of each other but both dependent on the root.
            let edges = vec![
                DepEdge::new("RX", attrs(&[0, 1]), 2),
                DepEdge::new("RY", attrs(&[0, 2]), 2),
            ];
            let mut tree = FTree::new(edges);
            let root = tree.add_node(attrs(&[0]), None).unwrap();
            let x = tree.add_node(attrs(&[1]), Some(root)).unwrap();
            let y = tree.add_node(attrs(&[2]), Some(root)).unwrap();
            let entry = |v: u64, xs: &[u64], ys: &[u64]| Entry {
                value: Value::new(v),
                children: vec![
                    Union::new(x, xs.iter().map(|&a| Entry::leaf(Value::new(a))).collect()),
                    Union::new(y, ys.iter().map(|&a| Entry::leaf(Value::new(a))).collect()),
                ],
            };
            // Under root=1 the x/y values overlap in {5}; under root=2 they
            // do not overlap at all, so that whole entry must disappear —
            // exactly as on the thaw path.
            let u = Union::new(root, vec![entry(1, &[4, 5], &[5, 6]), entry(2, &[7], &[8])]);
            let rep = FRep::from_parts(tree, vec![u]).unwrap();
            let rep = run_checked(&rep, &[FusedOp::Merge(x, y)]);
            let flat = materialize(&rep).unwrap();
            assert_eq!(flat.len(), 1);
            assert_eq!(flat.row(0), &[Value::new(1), Value::new(5), Value::new(5)]);
        }
    }
}

#[cfg(test)]
mod absorb {
    mod tests {
        use crate::enumerate::materialize;
        use crate::node::{Entry, Union};
        use crate::ops::testing::{assert_rejected, attrs, chain_rep, run_checked};
        use crate::ops::FusedOp;
        use crate::FRep;
        use fdb_common::{AttrId, ComparisonOp, Value};
        use fdb_ftree::{DepEdge, FTree};
        use std::collections::BTreeSet;

        #[test]
        fn absorb_keeps_only_matching_values() {
            let rep = chain_rep();
            let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
            let c = rep.tree().node_of_attr(AttrId(2)).unwrap();
            // Reference: flat tuples with A = C.
            let expected: BTreeSet<Vec<Value>> = materialize(&rep)
                .unwrap()
                .rows()
                .filter(|r| r[0] == r[2])
                .map(|r| r.to_vec())
                .collect();
            let rep = run_checked(&rep, &[FusedOp::Absorb(a, c)]);
            assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
            // A and C are now one node labelled by both attributes.
            let merged = rep.tree().node_of_attr(AttrId(0)).unwrap();
            assert_eq!(merged, rep.tree().node_of_attr(AttrId(2)).unwrap());
            assert!(rep.tree().is_normalised());
            // Only the A=1 branch had C=1 below B=10; A=2 had C∈{1,3} ∌ 2.
            assert_eq!(rep.tuple_count(), 1);
        }

        #[test]
        fn absorb_example10_pushes_independent_subtrees_up() {
            // Example 10: A{0} → {B,B'}{1,2} → {C,C'}{3,4} → D{5} with
            // relations {A,B}, {B',C}, {C',D}.  After absorbing {C,C'} into
            // A, D no longer depends on {B,B'}, so normalisation pushes D up
            // under the merged root.
            let edges = vec![
                DepEdge::new("R1", attrs(&[0, 1]), 2),
                DepEdge::new("R2", attrs(&[2, 3]), 2),
                DepEdge::new("R3", attrs(&[4, 5]), 2),
            ];
            let mut tree = FTree::new(edges);
            let a = tree.add_node(attrs(&[0]), None).unwrap();
            let bb = tree.add_node(attrs(&[1, 2]), Some(a)).unwrap();
            let cc = tree.add_node(attrs(&[3, 4]), Some(bb)).unwrap();
            let d = tree.add_node(attrs(&[5]), Some(cc)).unwrap();
            let cc_entry = |v: u64, ds: &[u64]| Entry {
                value: Value::new(v),
                children: vec![Union::new(
                    d,
                    ds.iter().map(|&x| Entry::leaf(Value::new(x))).collect(),
                )],
            };
            let bb_entry = |v: u64, ccs: Vec<Entry>| Entry {
                value: Value::new(v),
                children: vec![Union::new(cc, ccs)],
            };
            // The D-values are a function of the C-value alone (D is tied to
            // C' by R3), as in any factorisation of σ(R1 × R2 × R3): C=1
            // pairs with D ∈ {100, 101} and C=2 pairs with D ∈ {200}
            // wherever they occur.
            let a_union = Union::new(
                a,
                vec![
                    Entry {
                        value: Value::new(1),
                        children: vec![Union::new(
                            bb,
                            vec![
                                bb_entry(10, vec![cc_entry(1, &[100, 101]), cc_entry(2, &[200])]),
                                bb_entry(11, vec![cc_entry(1, &[100, 101])]),
                            ],
                        )],
                    },
                    Entry {
                        value: Value::new(2),
                        children: vec![Union::new(
                            bb,
                            vec![bb_entry(1, vec![cc_entry(2, &[200])])],
                        )],
                    },
                ],
            );
            let rep = FRep::from_parts(tree, vec![a_union]).unwrap();
            let expected: BTreeSet<Vec<Value>> = materialize(&rep)
                .unwrap()
                .rows()
                .filter(|r| r[0] == r[3]) // A = C (attr 0 = attr 3)
                .map(|r| r.to_vec())
                .collect();
            let rep = run_checked(&rep, &[FusedOp::Absorb(a, cc)]);
            assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
            // D was pushed up next to {B,B'}: the merged root has two
            // children.
            let root = rep.tree().roots()[0];
            assert_eq!(rep.tree().children(root).len(), 2);
            assert_eq!(rep.tree().parent(d), Some(root));
            assert!(rep.tree().is_normalised());
        }

        #[test]
        fn absorb_requires_an_ancestor_descendant_pair() {
            let rep = chain_rep();
            let b = rep.tree().node_of_attr(AttrId(1)).unwrap();
            let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
            assert_rejected(&rep, &[FusedOp::Absorb(b, a)]);
        }

        #[test]
        fn absorb_that_matches_nothing_gives_the_empty_representation() {
            // Restrict A to 2 and C to values ≥ 3: the only remaining A value
            // never equals a remaining C value.
            let rep = chain_rep();
            let a = rep.tree().node_of_attr(AttrId(0)).unwrap();
            let c = rep.tree().node_of_attr(AttrId(2)).unwrap();
            let select = |attr: u32, op: ComparisonOp, value: u64| FusedOp::SelectConst {
                attr: AttrId(attr),
                op,
                value: Value::new(value),
            };
            let rep = run_checked(
                &rep,
                &[
                    select(0, ComparisonOp::Eq, 2),
                    select(2, ComparisonOp::Ge, 3),
                ],
            );
            assert!(!rep.represents_empty());
            let rep = run_checked(&rep, &[FusedOp::Absorb(a, c)]);
            assert!(rep.represents_empty());
        }
    }
}

#[cfg(test)]
mod restructure {
    mod tests {
        use crate::enumerate::materialize;
        use crate::node::{Entry, Union};
        use crate::ops::testing::{assert_rejected, attrs, push_up_chain, run_checked};
        use crate::ops::FusedOp;
        use crate::FRep;
        use fdb_common::{AttrId, Value};
        use fdb_ftree::{DepEdge, FTree};

        /// A representation over the tree A{0} → B{1} where B does *not*
        /// depend on A (two separate unary relations):
        /// ⟨A:1⟩×(⟨B:5⟩∪⟨B:6⟩) ∪ ⟨A:2⟩×(⟨B:5⟩∪⟨B:6⟩).
        fn independent_pair() -> FRep {
            let edges = vec![
                DepEdge::new("R", attrs(&[0]), 2),
                DepEdge::new("S", attrs(&[1]), 2),
            ];
            let mut tree = FTree::new(edges);
            let a = tree.add_node(attrs(&[0]), None).unwrap();
            let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
            let b_union = || {
                Union::new(
                    b,
                    vec![Entry::leaf(Value::new(5)), Entry::leaf(Value::new(6))],
                )
            };
            let a_union = Union::new(
                a,
                vec![
                    Entry {
                        value: Value::new(1),
                        children: vec![b_union()],
                    },
                    Entry {
                        value: Value::new(2),
                        children: vec![b_union()],
                    },
                ],
            );
            FRep::from_parts(tree, vec![a_union]).unwrap()
        }

        #[test]
        fn push_up_factors_out_the_common_subexpression() {
            let rep = independent_pair();
            let before = materialize(&rep).unwrap().tuple_set();
            // 2 A-singletons + 4 B-singletons.
            assert_eq!(rep.size(), 6);
            let b = rep.tree().node_of_attr(AttrId(1)).unwrap();
            let rep = run_checked(&rep, &[FusedOp::PushUp(b)]);
            // Now (⋃A) × (⋃B): 2 + 2 = 4 singletons, same represented
            // relation.
            assert_eq!(rep.size(), 4);
            assert_eq!(rep.tree().roots().len(), 2);
            assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
        }

        #[test]
        fn push_up_is_store_identical_to_the_oracle() {
            let rep = independent_pair();
            let b = rep.tree().node_of_attr(AttrId(1)).unwrap();
            run_checked(&rep, &[FusedOp::PushUp(b)]);
            run_checked(&rep, &[FusedOp::Normalise]);
        }

        #[test]
        fn push_up_is_rejected_when_dependent() {
            // A and B in the same relation: the B-unions under different A
            // values are genuinely different, so push-up must refuse.
            let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 3)];
            let mut tree = FTree::new(edges);
            let a = tree.add_node(attrs(&[0]), None).unwrap();
            let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
            let a_union = Union::new(
                a,
                vec![Entry {
                    value: Value::new(1),
                    children: vec![Union::new(b, vec![Entry::leaf(Value::new(5))])],
                }],
            );
            let rep = FRep::from_parts(tree, vec![a_union]).unwrap();
            assert_rejected(&rep, &[FusedOp::PushUp(b)]);
            // Roots cannot be pushed up.
            assert_rejected(&rep, &[FusedOp::PushUp(a)]);
        }

        #[test]
        fn normalise_reaches_a_normalised_tree_and_preserves_the_relation() {
            let rep = independent_pair();
            assert!(!rep.tree().is_normalised());
            let before = materialize(&rep).unwrap().tuple_set();
            let normalised = run_checked(&rep, &[FusedOp::Normalise]);
            assert!(normalised.tree().is_normalised());
            assert_eq!(normalised.tree().roots().len(), 2, "one push-up");
            assert_eq!(materialize(&normalised).unwrap().tuple_set(), before);
            // Normalising again is a no-op.
            let again = run_checked(&normalised, &[FusedOp::Normalise]);
            assert!(again.store_identical(&normalised));
        }

        #[test]
        fn push_up_deeper_in_the_tree_keeps_context() {
            // B is independent of A, so it can be pushed up to be a child of
            // C; the B-union must stay inside each C-entry.
            let rep = push_up_chain();
            let b = rep.tree().node_of_attr(AttrId(1)).unwrap();
            let c = rep.tree().node_of_attr(AttrId(2)).unwrap();
            let before = materialize(&rep).unwrap().tuple_set();
            assert_eq!(rep.size(), 8);
            let rep = run_checked(&rep, &[FusedOp::PushUp(b)]);
            assert_eq!(rep.tree().parent(b), Some(c));
            assert_eq!(materialize(&rep).unwrap().tuple_set(), before);
            // Size shrinks: the two B singletons under C=1 collapse into one.
            assert_eq!(rep.size(), 7);
        }
    }
}

#[cfg(test)]
mod project {
    mod tests {
        use crate::enumerate::materialize;
        use crate::node::{Entry, Union};
        use crate::ops::testing::{attrs, run_checked};
        use crate::ops::FusedOp;
        use crate::FRep;
        use fdb_common::{AttrId, Value};
        use fdb_ftree::{DepEdge, FTree};
        use std::collections::BTreeSet;

        /// A{0} → B{1} → C{2} over relations {0,1} and {1,2}; projections of
        /// a two-step chain.
        fn chain() -> FRep {
            let edges = vec![
                DepEdge::new("RAB", attrs(&[0, 1]), 3),
                DepEdge::new("RBC", attrs(&[1, 2]), 3),
            ];
            let mut tree = FTree::new(edges);
            let a = tree.add_node(attrs(&[0]), None).unwrap();
            let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
            let c = tree.add_node(attrs(&[2]), Some(b)).unwrap();
            let b_entry = |v: u64, cs: &[u64]| Entry {
                value: Value::new(v),
                children: vec![Union::new(
                    c,
                    cs.iter().map(|&x| Entry::leaf(Value::new(x))).collect(),
                )],
            };
            let u = Union::new(
                a,
                vec![
                    Entry {
                        value: Value::new(1),
                        children: vec![Union::new(
                            b,
                            vec![b_entry(10, &[100, 200]), b_entry(11, &[100])],
                        )],
                    },
                    Entry {
                        value: Value::new(2),
                        children: vec![Union::new(b, vec![b_entry(10, &[300])])],
                    },
                ],
            );
            FRep::from_parts(tree, vec![u]).unwrap()
        }

        fn project_reference(rep: &FRep, keep: &[u32]) -> BTreeSet<Vec<Value>> {
            let keep_attrs: Vec<AttrId> = keep.iter().map(|&i| AttrId(i)).collect();
            materialize(rep)
                .unwrap()
                .project_distinct(&keep_attrs)
                .unwrap()
                .tuple_set()
        }

        fn project(rep: &FRep, keep: &[u32]) -> FRep {
            run_checked(rep, &[FusedOp::Project(attrs(keep))])
        }

        #[test]
        fn projecting_away_a_leaf_removes_it() {
            let rep = chain();
            let expected = project_reference(&rep, &[0, 1]);
            let rep = project(&rep, &[0, 1]);
            assert_eq!(rep.tree().node_count(), 2);
            assert_eq!(rep.visible_attrs(), vec![AttrId(0), AttrId(1)]);
            assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
        }

        #[test]
        fn projecting_away_an_inner_node_preserves_the_correlation() {
            // Project away B: A and C stay transitively dependent — the
            // result must be exactly π_{A,C} of the chain, not the cross
            // product.
            let rep = chain();
            let expected = project_reference(&rep, &[0, 2]);
            let rep = project(&rep, &[0, 2]);
            assert_eq!(rep.visible_attrs(), vec![AttrId(0), AttrId(2)]);
            assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
            // (1, 100), (1, 200), (2, 300): the pair (2, 100) must NOT
            // appear.
            assert_eq!(rep.tuple_count(), 3);
        }

        #[test]
        fn projecting_everything_away_leaves_the_nullary_relation() {
            let rep = project(&chain(), &[]);
            assert!(rep.tree().is_empty());
            assert_eq!(rep.tuple_count(), 1); // the nullary tuple ⟨⟩
            assert_eq!(rep.size(), 0);
        }

        #[test]
        fn identity_projection_is_a_no_op() {
            let rep = chain();
            let projected = project(&rep, &[0, 1, 2]);
            assert!(projected.store_identical(&rep));
            assert_eq!(
                materialize(&projected).unwrap().tuple_set(),
                materialize(&rep).unwrap().tuple_set()
            );
        }

        #[test]
        fn projection_onto_the_middle_attribute_only() {
            let rep = chain();
            let expected = project_reference(&rep, &[1]);
            let rep = project(&rep, &[1]);
            assert_eq!(materialize(&rep).unwrap().tuple_set(), expected);
            assert_eq!(rep.tuple_count(), 2); // values 10 and 11
        }
    }
}

#[cfg(test)]
mod select {
    mod tests {
        use crate::enumerate::materialize;
        use crate::node::{Entry, Union};
        use crate::ops::testing::{assert_rejected, attrs, run_checked};
        use crate::ops::FusedOp;
        use crate::FRep;
        use fdb_common::{AttrId, ComparisonOp, Value};
        use fdb_ftree::{DepEdge, FTree, NodeId};
        use std::collections::BTreeSet;

        /// A{0} → B{1}: A=1 → B{10,20}, A=2 → B{20}, A=3 → B{30,40}.
        fn sample() -> (FRep, NodeId, NodeId) {
            let edges = vec![DepEdge::new("R", attrs(&[0, 1]), 5)];
            let mut tree = FTree::new(edges);
            let a = tree.add_node(attrs(&[0]), None).unwrap();
            let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
            let entry = |v: u64, bs: &[u64]| Entry {
                value: Value::new(v),
                children: vec![Union::new(
                    b,
                    bs.iter().map(|&x| Entry::leaf(Value::new(x))).collect(),
                )],
            };
            let u = Union::new(
                a,
                vec![entry(1, &[10, 20]), entry(2, &[20]), entry(3, &[30, 40])],
            );
            (FRep::from_parts(tree, vec![u]).unwrap(), a, b)
        }

        fn select(rep: &FRep, attr: u32, op: ComparisonOp, value: u64) -> FRep {
            run_checked(
                rep,
                &[FusedOp::SelectConst {
                    attr: AttrId(attr),
                    op,
                    value: Value::new(value),
                }],
            )
        }

        #[test]
        fn equality_selection_binds_the_node() {
            let (rep, a, _) = sample();
            let rep = select(&rep, 0, ComparisonOp::Eq, 2);
            assert_eq!(rep.tuple_count(), 1);
            assert_eq!(rep.tree().constant(a), Some(Value::new(2)));
            let flat = materialize(&rep).unwrap();
            assert_eq!(flat.row(0), &[Value::new(2), Value::new(20)]);
            // Binding the constant removes the node from the size bound.
            assert!((fdb_ftree::s_cost(rep.tree()).unwrap() - 1.0).abs() < 1e-6);
        }

        #[test]
        fn range_selection_keeps_matching_entries() {
            let (rep, a, _) = sample();
            let rep = select(&rep, 0, ComparisonOp::Ge, 2);
            assert_eq!(rep.tuple_count(), 3);
            assert_eq!(rep.tree().constant(a), None);
        }

        #[test]
        fn selection_on_an_inner_child_prunes_empty_parents() {
            let (rep, _, _) = sample();
            // Only B > 25 survives: the A=1 and A=2 entries must disappear.
            let rep = select(&rep, 1, ComparisonOp::Gt, 25);
            assert_eq!(rep.root(0).len(), 1);
            assert_eq!(rep.root(0).entry(0).value(), Value::new(3));
            assert_eq!(rep.tuple_count(), 2);
        }

        #[test]
        fn selection_that_matches_nothing_empties_the_representation() {
            let (rep, _, _) = sample();
            let rep = select(&rep, 0, ComparisonOp::Eq, 99);
            assert!(rep.represents_empty());
            assert_eq!(rep.size(), 0);
        }

        #[test]
        fn unknown_attribute_is_an_error() {
            let (rep, _, _) = sample();
            assert_rejected(
                &rep,
                &[FusedOp::SelectConst {
                    attr: AttrId(9),
                    op: ComparisonOp::Eq,
                    value: Value::new(1),
                }],
            );
        }

        #[test]
        fn ne_selection_removes_a_single_value() {
            let (rep, _, _) = sample();
            let before = materialize(&rep).unwrap();
            let after = materialize(&select(&rep, 1, ComparisonOp::Ne, 20)).unwrap();
            let col = before.col_index(AttrId(1)).unwrap();
            let expected: BTreeSet<Vec<Value>> = before
                .rows()
                .filter(|r| r[col] != Value::new(20))
                .map(|r| r.to_vec())
                .collect();
            assert_eq!(after.tuple_set(), expected);
        }
    }
}
