//! Exhaustive f-plan search (Section 4.2 of the paper).
//!
//! The search space is a directed graph whose nodes are the normalised
//! f-trees reachable from the input f-tree and whose edges are the f-plan
//! operators: any swap, and — for the equality conditions of the query —
//! merges of sibling nodes and absorbs of descendant nodes.  The cost of a
//! path is the largest `s(T)` of any tree on it (a bottleneck metric), so
//! Dijkstra's algorithm applies directly.  Among the final f-trees that
//! satisfy all equalities and are reachable at the minimum bottleneck cost,
//! the one with the smallest own cost `s(T_final)` (then the shortest plan)
//! is chosen — the lexicographic order `<_max × <_{s(T)}` of the paper.
//!
//! # Cost per explored state
//!
//! A search expands a few hundred states and prices every neighbour of
//! each, so the per-state work is kept small:
//!
//! * **Memoised path covers.**  `s(T)` is the largest cover LP over `T`'s
//!   root-to-leaf paths, and neighbouring trees share most of their paths.
//!   A [`PathCoverMemo`] created for each `optimize` call solves every
//!   distinct path LP once.  Its key is the exact input of the LP (the
//!   path's non-constant classes, root first), and the dependency edges,
//!   which only projections change, are fixed for the whole search, so a
//!   memoised value is the value a fresh solve returns, bit for bit.
//! * **Integer state keys.**  States are identified by
//!   [`FTree::canonical_key`], an injective `u32` encoding of the tree up to
//!   child order.
//! * **A state arena.**  States live in a `Vec`; the key map and the queue
//!   hold indices into it, so a pop borrows its state instead of cloning it.
//!   Each state stores its own `s(T)` for goal selection.
//!
//! None of this changes which plan is chosen: costs are bit-identical, keys
//! equate exactly the trees the search always equated, and the queue
//! receives the same items in the same order with the same tie-breaks.
//! Nothing survives between `optimize` calls.

use crate::cost::FPlanCost;
use crate::fplan::{FPlan, FPlanOp};
use crate::optimizer::OptimizedPlan;
use fdb_common::{AttrId, FdbError, Result};
use fdb_ftree::{CanonicalKey, FTree, PathCoverMemo};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Configuration of the exhaustive search.
#[derive(Clone, Copy, Debug)]
pub struct ExhaustiveConfig {
    /// Upper bound on the number of distinct f-trees the search may visit
    /// before giving up (protects against pathological inputs).
    pub max_states: usize,
}

impl Default for ExhaustiveConfig {
    fn default() -> Self {
        ExhaustiveConfig {
            max_states: 500_000,
        }
    }
}

/// The exhaustive (Dijkstra) f-plan optimiser.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExhaustiveOptimizer {
    /// Search configuration.
    pub config: ExhaustiveConfig,
}

/// An `f64` wrapper with a total order (no NaNs are ever produced here).
#[derive(Clone, Copy, PartialEq, Debug)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One f-tree of the search with the best path found to it so far.
struct State {
    tree: FTree,
    plan: Vec<FPlanOp>,
    bottleneck: f64,
    /// `s(tree)`, kept so that goal selection does not solve it again.
    cost: f64,
}

struct QueueItem {
    bottleneck: OrdF64,
    plan_len: usize,
    /// Index into the state arena.
    state: usize,
}

impl PartialEq for QueueItem {
    fn eq(&self, other: &Self) -> bool {
        self.bottleneck == other.bottleneck && self.plan_len == other.plan_len
    }
}
impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the smallest cost pops first.
        other
            .bottleneck
            .cmp(&self.bottleneck)
            .then_with(|| other.plan_len.cmp(&self.plan_len))
    }
}

impl ExhaustiveOptimizer {
    /// Creates an optimiser with the default configuration.
    pub fn new() -> Self {
        ExhaustiveOptimizer::default()
    }

    /// Finds an optimal f-plan enforcing the given equality conditions on an
    /// input over `input_tree`.
    ///
    /// Constant selections and projections are deliberately not part of the
    /// search: FDB applies constant selections first (they are cheap and
    /// only shrink the data) and defers projections to the end of the plan.
    pub fn optimize(
        &self,
        input_tree: &FTree,
        equalities: &[(AttrId, AttrId)],
    ) -> Result<OptimizedPlan> {
        for (a, b) in equalities {
            if input_tree.node_of_attr(*a).is_none() || input_tree.node_of_attr(*b).is_none() {
                return Err(FdbError::AttributeNotInQuery {
                    attr: format!("{a} = {b}"),
                });
            }
        }

        let mut covers = PathCoverMemo::new(input_tree);
        let initial_cost = covers.s_cost(input_tree)?;
        // States live in an arena; `index` maps each canonical key to its
        // slot, and a better path to a known tree replaces the slot's state
        // in place, so queue entries stay valid and a stale one is skipped
        // by its bottleneck.
        let mut states = vec![State {
            tree: input_tree.clone(),
            plan: Vec::new(),
            bottleneck: initial_cost,
            cost: initial_cost,
        }];
        let mut index: HashMap<CanonicalKey, usize> =
            HashMap::from([(input_tree.canonical_key(), 0)]);
        let mut heap: BinaryHeap<QueueItem> = BinaryHeap::new();
        heap.push(QueueItem {
            bottleneck: OrdF64(initial_cost),
            plan_len: 0,
            state: 0,
        });

        let mut explored = 0usize;
        // (s(T), plan) of every goal popped, in pop order.
        let mut goals: Vec<(f64, Vec<FPlanOp>)> = Vec::new();
        let mut goal_bottleneck: Option<f64> = None;

        while let Some(item) = heap.pop() {
            let state = &states[item.state];
            // Skip stale queue entries.
            if item.bottleneck.0 > state.bottleneck + 1e-9 {
                continue;
            }
            // Once a goal has been found, only states with the same bottleneck
            // can still yield a better (lexicographically smaller) goal.
            if let Some(gb) = goal_bottleneck {
                if state.bottleneck > gb + 1e-9 {
                    break;
                }
            }
            explored += 1;
            if explored > self.config.max_states {
                return Err(FdbError::NoPlanFound {
                    detail: format!(
                        "exhaustive search exceeded its {}-state budget",
                        self.config.max_states
                    ),
                });
            }

            if Self::is_goal(&state.tree, equalities) {
                goal_bottleneck.get_or_insert(state.bottleneck);
                goals.push((state.cost, state.plan.clone()));
                continue;
            }

            let (from_bottleneck, plan_len) = (state.bottleneck, state.plan.len() + 1);
            for (op, next_tree) in Self::neighbours(&state.tree, equalities)? {
                let cost = covers.s_cost(&next_tree)?;
                let bottleneck = from_bottleneck.max(cost);
                let key = next_tree.canonical_key();
                let slot = index.get(&key).copied();
                let replace = match slot {
                    None => true,
                    Some(i) => {
                        let existing = &states[i];
                        bottleneck + 1e-9 < existing.bottleneck
                            || (bottleneck < existing.bottleneck + 1e-9
                                && plan_len < existing.plan.len())
                    }
                };
                if !replace {
                    continue;
                }
                let mut plan = states[item.state].plan.clone();
                plan.push(op);
                let candidate = State {
                    tree: next_tree,
                    plan,
                    bottleneck,
                    cost,
                };
                let slot = match slot {
                    Some(i) => {
                        states[i] = candidate;
                        i
                    }
                    None => {
                        states.push(candidate);
                        index.insert(key, states.len() - 1);
                        states.len() - 1
                    }
                };
                heap.push(QueueItem {
                    bottleneck: OrdF64(bottleneck),
                    plan_len,
                    state: slot,
                });
            }
        }

        let Some(_) = goal_bottleneck else {
            return Err(FdbError::NoPlanFound {
                detail: "no sequence of operators satisfies all equality conditions".into(),
            });
        };
        // Among the minimum-bottleneck goals pick the one with the smallest
        // final cost, then the shortest plan.
        let mut chosen: Option<(f64, Vec<FPlanOp>)> = None;
        for (final_cost, plan) in goals {
            let better = match &chosen {
                None => true,
                Some((existing_final, existing)) => {
                    final_cost + 1e-9 < *existing_final
                        || (final_cost < existing_final + 1e-9 && plan.len() < existing.len())
                }
            };
            if better {
                chosen = Some((final_cost, plan));
            }
        }
        let (_, plan) = chosen.expect("at least one goal collected");
        let plan = FPlan::new(plan);
        let cost = crate::cost::plan_cost(&plan, input_tree)?;
        Ok(OptimizedPlan {
            plan,
            cost,
            explored_states: explored,
        })
    }

    fn is_goal(tree: &FTree, equalities: &[(AttrId, AttrId)]) -> bool {
        equalities
            .iter()
            .all(|(a, b)| tree.node_of_attr(*a) == tree.node_of_attr(*b))
    }

    /// Enumerates the operator applications available from a state.
    fn neighbours(tree: &FTree, equalities: &[(AttrId, AttrId)]) -> Result<Vec<(FPlanOp, FTree)>> {
        let mut out = Vec::new();
        // All swaps.
        for node in tree.node_ids() {
            if tree.parent(node).is_some() {
                let mut next = tree.clone();
                next.swap_with_parent(node)?;
                out.push((FPlanOp::Swap(node), next));
            }
        }
        // Merges and absorbs demanded by the remaining equalities.
        for (a_attr, b_attr) in equalities {
            let (Some(na), Some(nb)) = (tree.node_of_attr(*a_attr), tree.node_of_attr(*b_attr))
            else {
                continue;
            };
            if na == nb {
                continue;
            }
            if tree.are_siblings(na, nb) {
                let mut next = tree.clone();
                next.merge_siblings(na, nb)?;
                out.push((FPlanOp::Merge(na, nb), next));
            } else if tree.is_ancestor(na, nb) {
                let mut next = tree.clone();
                next.absorb_into_ancestor(na, nb)?;
                next.normalise();
                out.push((FPlanOp::Absorb(na, nb), next));
            } else if tree.is_ancestor(nb, na) {
                let mut next = tree.clone();
                next.absorb_into_ancestor(nb, na)?;
                next.normalise();
                out.push((FPlanOp::Absorb(nb, na), next));
            }
        }
        Ok(out)
    }
}

/// The cost of an optimised plan, re-exported for convenience.
pub type PlanCost = FPlanCost;

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_ftree::{s_cost, DepEdge};
    use std::collections::{BTreeSet, HashSet};

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// Example 11: {A,D} → (B → C, E → F) with relations {A,B,C}, {D,E,F}.
    fn example11_tree() -> FTree {
        let edges = vec![
            DepEdge::new("R1", attrs(&[0, 1, 2]), 10),
            DepEdge::new("R2", attrs(&[3, 4, 5]), 10),
        ];
        let mut t = FTree::new(edges);
        let ad = t.add_node(attrs(&[0, 3]), None).unwrap();
        let b = t.add_node(attrs(&[1]), Some(ad)).unwrap();
        t.add_node(attrs(&[2]), Some(b)).unwrap();
        let e = t.add_node(attrs(&[4]), Some(ad)).unwrap();
        t.add_node(attrs(&[5]), Some(e)).unwrap();
        t
    }

    #[test]
    fn example11_finds_the_cost_one_plan() {
        // The selection B = F admits a plan of cost 1 (swap F up, then merge
        // with B); the naive plan through absorb costs 2.  The exhaustive
        // optimiser must find cost 1.
        let tree = example11_tree();
        let result = ExhaustiveOptimizer::new()
            .optimize(&tree, &[(AttrId(1), AttrId(5))])
            .unwrap();
        assert!(
            (result.cost.max_intermediate - 1.0).abs() < 1e-6,
            "{:?}",
            result.cost
        );
        assert!((result.cost.final_cost - 1.0).abs() < 1e-6);
        // The plan transforms the tree into one where B and F share a node.
        let final_tree = result.plan.final_tree(&tree).unwrap();
        assert_eq!(
            final_tree.node_of_attr(AttrId(1)),
            final_tree.node_of_attr(AttrId(5))
        );
        final_tree.check_path_constraint().unwrap();
    }

    #[test]
    fn already_satisfied_conditions_need_no_operators() {
        let tree = example11_tree();
        // A and D label the same node already.
        let result = ExhaustiveOptimizer::new()
            .optimize(&tree, &[(AttrId(0), AttrId(3))])
            .unwrap();
        assert!(result.plan.is_empty());
        assert!((result.cost.max_intermediate - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sibling_conditions_use_a_single_merge() {
        // Two independent unary relations as two roots; equating their
        // attributes is a single merge of sibling roots.
        let edges = vec![
            DepEdge::new("R", attrs(&[0]), 5),
            DepEdge::new("S", attrs(&[1]), 5),
        ];
        let mut tree = FTree::new(edges);
        tree.add_node(attrs(&[0]), None).unwrap();
        tree.add_node(attrs(&[1]), None).unwrap();
        let result = ExhaustiveOptimizer::new()
            .optimize(&tree, &[(AttrId(0), AttrId(1))])
            .unwrap();
        assert_eq!(result.plan.len(), 1);
        assert!(matches!(result.plan.ops[0], FPlanOp::Merge(_, _)));
    }

    #[test]
    fn multiple_conditions_are_all_enforced() {
        let tree = example11_tree();
        // B = F and C = E.
        let result = ExhaustiveOptimizer::new()
            .optimize(&tree, &[(AttrId(1), AttrId(5)), (AttrId(2), AttrId(4))])
            .unwrap();
        let final_tree = result.plan.final_tree(&tree).unwrap();
        assert_eq!(
            final_tree.node_of_attr(AttrId(1)),
            final_tree.node_of_attr(AttrId(5))
        );
        assert_eq!(
            final_tree.node_of_attr(AttrId(2)),
            final_tree.node_of_attr(AttrId(4))
        );
        final_tree.check_path_constraint().unwrap();
        assert!(result.cost.max_intermediate <= 2.0 + 1e-6);
    }

    #[test]
    fn unknown_attributes_are_rejected() {
        let tree = example11_tree();
        assert!(ExhaustiveOptimizer::new()
            .optimize(&tree, &[(AttrId(1), AttrId(77))])
            .is_err());
    }

    #[test]
    fn memoised_costs_match_fresh_solves_on_every_reachable_tree() {
        // Four relations shaped like the combinatorial database, with one
        // class bound to a constant; every tree the search can reach from
        // either input must get the bit-identical s(T) from the memo.
        let edges = vec![
            DepEdge::new("R0", attrs(&[0, 1]), 64),
            DepEdge::new("R1", attrs(&[2, 3]), 64),
            DepEdge::new("R2", attrs(&[4, 5, 6]), 512),
            DepEdge::new("R3", attrs(&[7, 8, 9]), 512),
        ];
        let mut tree = FTree::new(edges);
        let a02 = tree.add_node(attrs(&[0, 2]), None).unwrap();
        tree.add_node(attrs(&[1]), Some(a02)).unwrap();
        let a3 = tree.add_node(attrs(&[3]), Some(a02)).unwrap();
        let a4 = tree.add_node(attrs(&[4]), None).unwrap();
        let a5 = tree.add_node(attrs(&[5]), Some(a4)).unwrap();
        tree.add_node(attrs(&[6]), Some(a5)).unwrap();
        let a7 = tree.add_node(attrs(&[7]), None).unwrap();
        let a8 = tree.add_node(attrs(&[8]), Some(a7)).unwrap();
        tree.add_node(attrs(&[9]), Some(a8)).unwrap();
        let mut bound = tree.clone();
        bound.bind_constant(a3, fdb_common::Value::new(5)).unwrap();
        let equalities = [(AttrId(1), AttrId(5)), (AttrId(3), AttrId(8))];

        for input in [tree, bound, example11_tree()] {
            let mut covers = PathCoverMemo::new(&input);
            let mut seen = HashSet::from([input.canonical_key()]);
            let mut frontier = vec![input];
            while let Some(tree) = frontier.pop() {
                assert_eq!(
                    covers.s_cost(&tree).unwrap().to_bits(),
                    s_cost(&tree).unwrap().to_bits()
                );
                for (_, next) in ExhaustiveOptimizer::neighbours(&tree, &equalities).unwrap() {
                    if seen.insert(next.canonical_key()) {
                        frontier.push(next);
                    }
                }
            }
            assert!(seen.len() > 50, "only {} trees reached", seen.len());
        }
    }

    #[test]
    fn state_budget_is_respected() {
        let tree = example11_tree();
        let tiny = ExhaustiveOptimizer {
            config: ExhaustiveConfig { max_states: 1 },
        };
        // With a one-state budget the search cannot finish unless the goal is
        // immediate; B = F is not, so it must fail gracefully.
        assert!(tiny.optimize(&tree, &[(AttrId(1), AttrId(5))]).is_err());
    }
}
