//! F-plans: sequences of f-plan operators.
//!
//! Operators are described at the schema level (node identifiers of the
//! input f-tree, attribute identifiers for selections and projections).  The
//! same plan can be *simulated* on an f-tree alone (used by the optimisers
//! to cost candidate plans without touching data) or *executed* on an
//! f-representation (which transforms both the data and its tree).
//!
//! # Execution
//!
//! Every plan executes the same way: it is peephole-simplified against a
//! simulated f-tree ([`FPlan::simplified`]) and the whole op list compiles
//! into one program of the fused overlay executor (`fdb_frep::ops::fuse`),
//! which emits a single arena however many operators the plan chains.
//! Simplification drops data no-ops: normalisations of an already-normalised
//! tree (e.g. the `Normalise` after an `Absorb`, which normalises
//! internally), identity projections, and selections made trivially total
//! by an earlier equality selection; adjacent projections merge when the
//! first only marks attributes.  Aggregate plans go further:
//! [`FPlan::execute_aggregate`] folds the aggregate — and the plan's
//! trailing selections — directly over the overlay, emitting **no arena at
//! all**.  The thaw-path oracle (`fdb_frep::ops::oracle::execute`) is the
//! reference every execution is tested against bit for bit.

use fdb_common::{AttrId, ExecCtx, Result};
use fdb_frep::{aggregate, ops, AggregateKind, AggregateResult, FRep};
use fdb_ftree::FTree;
use std::collections::BTreeSet;
use std::fmt;

/// One f-plan operator — the step type of the fused executor, so a plan's
/// op list *is* the program the executor runs.
pub use fdb_frep::ops::FusedOp as FPlanOp;

/// A sequence of f-plan operators.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FPlan {
    /// The operators, in execution order.
    pub ops: Vec<FPlanOp>,
}

impl FPlan {
    /// The empty plan (the identity transformation).
    pub fn empty() -> Self {
        FPlan { ops: Vec::new() }
    }

    /// Creates a plan from a list of operators.
    pub fn new(ops: Vec<FPlanOp>) -> Self {
        FPlan { ops }
    }

    /// Number of operators in the plan.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the plan has no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends an operator.
    pub fn push(&mut self, op: FPlanOp) {
        self.ops.push(op);
    }

    /// Appends all operators of another plan.
    pub fn extend(&mut self, other: FPlan) {
        self.ops.extend(other.ops);
    }

    /// Simulates the plan on a copy of the given f-tree, returning every
    /// intermediate tree (including the input as the first element and the
    /// final tree as the last).
    pub fn simulate(&self, tree: &FTree) -> Result<Vec<FTree>> {
        let mut trees = Vec::with_capacity(self.ops.len() + 1);
        let mut current = tree.clone();
        trees.push(current.clone());
        for op in &self.ops {
            op.apply_to_tree(&mut current)?;
            trees.push(current.clone());
        }
        Ok(trees)
    }

    /// Returns the final f-tree after simulating the plan.
    pub fn final_tree(&self, tree: &FTree) -> Result<FTree> {
        let mut current = tree.clone();
        for op in &self.ops {
            op.apply_to_tree(&mut current)?;
        }
        Ok(current)
    }

    /// Executes the plan on the representation, transforming it in place.
    ///
    /// The plan is peephole-simplified ([`FPlan::simplified`]) and compiled
    /// whole — selections and projections included — into a single overlay
    /// program that emits exactly one arena.  A failing plan leaves the
    /// representation unmodified.
    pub fn execute(&self, rep: &mut FRep) -> Result<()> {
        self.simplified(rep.tree()).execute_presimplified(rep)
    }

    /// The compilation half of [`FPlan::execute`], without the peephole
    /// pass — for callers that already hold a simplified plan (the engine
    /// simplifies once, reads the fusion counter off it for its stats,
    /// then executes it through this).
    pub fn execute_presimplified(&self, rep: &mut FRep) -> Result<()> {
        self.execute_presimplified_ctx(rep, &ExecCtx::unlimited())
    }

    /// [`FPlan::execute_presimplified`] under a governance context: the
    /// fused program threads the context through every overlay sweep and
    /// the final emission.  An aborted plan leaves the representation
    /// exactly as it was — the executor only installs its output arena on
    /// success.
    pub fn execute_presimplified_ctx(&self, rep: &mut FRep, ctx: &ExecCtx) -> Result<()> {
        ops::execute_fused_ctx(rep, &self.ops, ctx)
    }

    /// Executes the plan into an **aggregate sink**: the whole plan —
    /// selections and projections included — is applied only to the fused
    /// overlay and the aggregate is folded over the overlay itself
    /// ([`ops::execute_fused_aggregate`]), with the plan's trailing
    /// selections folded into the accumulation as entry filters.  **No
    /// arena is emitted at any point**: the input is borrowed, never cloned
    /// and never modified, and an aggregate consumer has no use for the
    /// transformed arena.
    ///
    /// Returns the aggregate result and whether the sink ran on the overlay
    /// (`false` only for the empty plan, where the aggregate is a plain
    /// flat pass over the input arena).
    pub fn execute_aggregate(
        &self,
        rep: &FRep,
        kind: AggregateKind,
        group_by: &[AttrId],
    ) -> Result<(AggregateResult, bool)> {
        self.simplified(rep.tree())
            .execute_aggregate_presimplified(rep, kind, group_by)
    }

    /// The sink half of [`FPlan::execute_aggregate`], without the peephole
    /// pass — for callers that already hold a simplified plan (the engine
    /// simplifies once, reads the fusion counters off it, then executes it
    /// through this).
    pub fn execute_aggregate_presimplified(
        &self,
        rep: &FRep,
        kind: AggregateKind,
        group_by: &[AttrId],
    ) -> Result<(AggregateResult, bool)> {
        self.execute_aggregate_presimplified_ctx(rep, kind, group_by, &ExecCtx::unlimited())
    }

    /// [`FPlan::execute_aggregate_presimplified`] under a governance
    /// context: both the empty-plan flat fold and the overlay fold charge
    /// per record, and the input is never mutated, so an abort has no
    /// partial state to clean up.
    pub fn execute_aggregate_presimplified_ctx(
        &self,
        rep: &FRep,
        kind: AggregateKind,
        group_by: &[AttrId],
        ctx: &ExecCtx,
    ) -> Result<(AggregateResult, bool)> {
        if self.ops.is_empty() {
            return Ok((aggregate::evaluate_ctx(rep, kind, group_by, ctx)?, false));
        }
        let result = ops::execute_fused_aggregate_ctx(rep, &self.ops, kind, group_by, ctx)?;
        Ok((result, true))
    }

    /// Peephole simplification against a simulated f-tree: drops or merges
    /// operators whose data-level effect is the identity —
    ///
    /// * `Normalise` when the tree is already normalised at that point of
    ///   the plan (so consecutive normalisations, and the common
    ///   `Absorb; Normalise` double normalisation, collapse);
    /// * projections that keep every attribute;
    /// * selections made trivially *total* by an earlier equality selection
    ///   (the node is bound to a constant the predicate accepts, so every
    ///   remaining entry passes); a selection an earlier binding makes
    ///   trivially *empty* is kept — emptying the representation is a data
    ///   effect;
    /// * adjacent projections, merged into one projection onto the
    ///   intersection when the first projection only *marks* attributes
    ///   (removes no node: every node keeps a visible attribute) — marking
    ///   is cumulative, so the merged projection replays the identical
    ///   data-level decisions.
    ///
    /// If simulation fails at some operator, that operator and everything
    /// after it are kept verbatim so execution reports the error faithfully.
    pub fn simplified(&self, tree: &FTree) -> FPlan {
        let mut cur = tree.clone();
        let mut out: Vec<FPlanOp> = Vec::with_capacity(self.ops.len());
        // Tree state *before* the most recently pushed op, when that op is a
        // projection that only marked attributes — the merge window.
        let mut mark_only_projection: Option<FTree> = None;
        for (i, op) in self.ops.iter().enumerate() {
            let mut op = op.clone();
            if let FPlanOp::Project(keep_attrs) = &op {
                if let (Some(before), Some(FPlanOp::Project(prev_keep))) =
                    (&mark_only_projection, out.last())
                {
                    // Merge π_{K1}; π_{K2} into π_{K1 ∩ K2}: the first
                    // projection touched no data, and the marking it
                    // performed is a subset of the merged projection's.
                    let merged: BTreeSet<AttrId> =
                        prev_keep.intersection(keep_attrs).copied().collect();
                    cur = before.clone();
                    out.pop();
                    op = FPlanOp::Project(merged);
                }
            }
            let keep = match &op {
                FPlanOp::Normalise => {
                    let mut probe = cur.clone();
                    !probe.normalise().is_empty()
                }
                FPlanOp::Project(keep_attrs) => {
                    cur.all_attrs().difference(keep_attrs).next().is_some()
                }
                FPlanOp::SelectConst {
                    attr,
                    op: cmp,
                    value,
                } => !cur
                    .node_of_attr(*attr)
                    .and_then(|node| cur.constant(node))
                    .is_some_and(|bound| cmp.eval(bound, *value)),
                _ => true,
            };
            if !keep {
                continue;
            }
            let before = cur.clone();
            if op.apply_to_tree(&mut cur).is_err() {
                // Simulation failed: stop simplifying here so execution
                // surfaces the same error at the same operator.
                out.push(op);
                out.extend(self.ops[i + 1..].iter().cloned());
                return FPlan { ops: out };
            }
            mark_only_projection = match &op {
                FPlanOp::Project(keep_attrs) if projection_only_marks(&before, keep_attrs) => {
                    Some(before)
                }
                _ => None,
            };
            out.push(op);
        }
        FPlan { ops: out }
    }

    /// Whether executing the plan runs a fused overlay program: every
    /// non-empty plan does (the empty plan is the identity).
    pub fn fuses(&self) -> bool {
        !self.ops.is_empty()
    }
}

/// Returns `true` when projecting onto `keep` only marks attributes on the
/// tree without removing any node: after marking, every node still has at
/// least one visible attribute, so the data-level projection loop performs
/// zero leaf removals and zero swap-downs.
fn projection_only_marks(tree: &FTree, keep: &BTreeSet<AttrId>) -> bool {
    let mut probe = tree.clone();
    let marked: BTreeSet<AttrId> = probe.all_attrs().difference(keep).copied().collect();
    probe.mark_attrs_projected(&marked);
    probe
        .node_ids()
        .into_iter()
        .all(|n| !probe.visible_attrs(n).is_empty())
}

impl fmt::Display for FPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.ops.iter().map(|op| op.to_string()).collect();
        write!(f, "[{}]", parts.join(" ; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_common::{ComparisonOp, FdbError, Value};
    use fdb_frep::{Entry, Union};
    use fdb_ftree::{DepEdge, NodeId};

    fn attrs(ids: &[u32]) -> BTreeSet<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    /// item{0,2} → (oid{1}, supplier{3}) over Orders{1,0} and Produce{3,2},
    /// already merged on item — a mini version of the paper's T5.
    fn sample_rep() -> FRep {
        let edges = vec![
            DepEdge::new("Orders", attrs(&[0, 1]), 3),
            DepEdge::new("Produce", attrs(&[2, 3]), 3),
        ];
        let mut tree = FTree::new(edges);
        let item = tree.add_node(attrs(&[0, 2]), None).unwrap();
        let oid = tree.add_node(attrs(&[1]), Some(item)).unwrap();
        let supplier = tree.add_node(attrs(&[3]), Some(item)).unwrap();
        let entry = |v: u64, oids: &[u64], sups: &[u64]| Entry {
            value: Value::new(v),
            children: vec![
                Union::new(
                    oid,
                    oids.iter().map(|&x| Entry::leaf(Value::new(x))).collect(),
                ),
                Union::new(
                    supplier,
                    sups.iter().map(|&x| Entry::leaf(Value::new(x))).collect(),
                ),
            ],
        };
        let u = Union::new(
            item,
            vec![entry(1, &[10, 11], &[7]), entry(2, &[12], &[7, 8])],
        );
        FRep::from_parts(tree, vec![u]).unwrap()
    }

    #[test]
    fn simulate_and_execute_stay_consistent() {
        let rep = sample_rep();
        let oid = rep.tree().node_of_attr(AttrId(1)).unwrap();
        let plan = FPlan::new(vec![
            FPlanOp::Swap(oid),
            FPlanOp::SelectConst {
                attr: AttrId(3),
                op: ComparisonOp::Eq,
                value: Value::new(7),
            },
            FPlanOp::Project(attrs(&[1, 3])),
        ]);
        // Schema-level simulation.
        let trees = plan.simulate(rep.tree()).unwrap();
        assert_eq!(trees.len(), 4);
        let final_tree = plan.final_tree(rep.tree()).unwrap();
        assert_eq!(
            trees.last().unwrap().canonical_key(),
            final_tree.canonical_key()
        );
        // Data-level execution ends up over the same tree shape.
        let mut executed = rep.clone();
        plan.execute(&mut executed).unwrap();
        executed.validate().unwrap();
        assert_eq!(
            executed.visible_attrs(),
            vec![AttrId(1), AttrId(3)],
            "projection kept only oid and supplier"
        );
    }

    #[test]
    fn plan_display_is_readable() {
        let plan = FPlan::new(vec![FPlanOp::Normalise, FPlanOp::Swap(NodeId(1))]);
        let text = plan.to_string();
        assert!(text.contains("η"));
        assert!(text.contains("χ(n1)"));
    }

    #[test]
    fn invalid_operator_is_reported() {
        let rep = sample_rep();
        let item = rep.tree().node_of_attr(AttrId(0)).unwrap();
        // Swapping a root is invalid both in simulation and execution.
        let plan = FPlan::new(vec![FPlanOp::Swap(item)]);
        assert!(plan.simulate(rep.tree()).is_err());
        let mut rep = rep;
        assert!(plan.execute(&mut rep).is_err());
    }

    #[test]
    fn empty_plan_is_identity() {
        let rep = sample_rep();
        let plan = FPlan::empty();
        assert!(plan.is_empty());
        let final_tree = plan.final_tree(rep.tree()).unwrap();
        assert_eq!(final_tree.canonical_key(), rep.tree().canonical_key());
    }

    #[test]
    fn fused_execution_matches_the_stepwise_oracle() {
        let rep = sample_rep();
        let oid = rep.tree().node_of_attr(AttrId(1)).unwrap();
        let supplier = rep.tree().node_of_attr(AttrId(3)).unwrap();
        // Structural steps, then a selection, then another structural step.
        let plan = FPlan::new(vec![
            FPlanOp::Swap(oid),
            FPlanOp::Normalise,
            FPlanOp::SelectConst {
                attr: AttrId(3),
                op: ComparisonOp::Ge,
                value: Value::new(7),
            },
            FPlanOp::Swap(supplier),
        ]);
        let mut fused = rep.clone();
        let mut reference = rep;
        plan.execute(&mut fused).unwrap();
        ops::oracle::execute(&mut reference, &plan.ops).unwrap();
        fused.validate().unwrap();
        assert!(
            fused.store_identical(&reference),
            "fused:\n{}\noracle:\n{}",
            fused.dump_store(),
            reference.dump_store()
        );
    }

    #[test]
    fn peephole_drops_redundant_normalise_and_identity_projection() {
        let rep = sample_rep();
        let oid = rep.tree().node_of_attr(AttrId(1)).unwrap();
        let item = rep.tree().node_of_attr(AttrId(0)).unwrap();
        let supplier_node = rep.tree().node_of_attr(AttrId(3)).unwrap();
        let plan = FPlan::new(vec![
            // The sample tree is normalised: an immediate Normalise is a
            // data no-op.
            FPlanOp::Normalise,
            FPlanOp::Swap(oid),
            // Absorb normalises internally; the trailing Normalise is
            // redundant.
            FPlanOp::Absorb(oid, item),
            FPlanOp::Normalise,
            // Identity projection keeps every attribute.
            FPlanOp::Project(attrs(&[0, 1, 2, 3])),
            FPlanOp::Project(attrs(&[1, 3])),
        ]);
        let simplified = plan.simplified(rep.tree());
        assert_eq!(
            simplified.ops,
            vec![
                FPlanOp::Swap(oid),
                FPlanOp::Absorb(oid, item),
                FPlanOp::Project(attrs(&[1, 3])),
            ]
        );
        // Same result either way, bit for bit.
        let mut fused = rep.clone();
        let mut reference = rep;
        plan.execute(&mut fused).unwrap();
        ops::oracle::execute(&mut reference, &plan.ops).unwrap();
        assert!(fused.store_identical(&reference));
        let _ = supplier_node;
    }

    #[test]
    fn peephole_keeps_failing_suffixes_verbatim() {
        let rep = sample_rep();
        let item = rep.tree().node_of_attr(AttrId(0)).unwrap();
        // Swapping the root fails; the invalid op and its suffix survive
        // simplification so execution reports the error.
        let plan = FPlan::new(vec![FPlanOp::Swap(item), FPlanOp::Normalise]);
        let simplified = plan.simplified(rep.tree());
        assert_eq!(simplified.ops, plan.ops);
        let mut rep = rep;
        assert!(plan.execute(&mut rep).is_err());
    }

    #[test]
    fn aggregate_sink_matches_execute_then_aggregate() {
        let rep = sample_rep();
        let oid = rep.tree().node_of_attr(AttrId(1)).unwrap();
        // Barrier in the middle, structural segment at the end: the sink
        // must run the tail on the overlay.
        let plan = FPlan::new(vec![
            FPlanOp::SelectConst {
                attr: AttrId(3),
                op: ComparisonOp::Ge,
                value: Value::new(7),
            },
            FPlanOp::Swap(oid),
            FPlanOp::Normalise,
        ]);
        let mut executed = rep.clone();
        plan.execute(&mut executed).unwrap();
        for kind in [
            AggregateKind::Count,
            AggregateKind::Sum(AttrId(1)),
            AggregateKind::Min(AttrId(3)),
            AggregateKind::Avg(AttrId(0)),
        ] {
            let expected = aggregate::evaluate(&executed, kind, &[]).unwrap();
            let (got, on_overlay) = plan.execute_aggregate(&rep, kind, &[]).unwrap();
            assert!(
                on_overlay,
                "trailing structural segment runs on the overlay"
            );
            assert_eq!(got, expected, "{kind}");
        }
        // Grouping by the executed tree's root attribute.
        let root = executed.tree().roots()[0];
        let group = *executed
            .tree()
            .visible_attrs(root)
            .iter()
            .next()
            .expect("root has a visible attribute");
        let expected = aggregate::evaluate(&executed, AggregateKind::Count, &[group]).unwrap();
        let (got, _) = plan
            .execute_aggregate(&rep, AggregateKind::Count, &[group])
            .unwrap();
        assert_eq!(got, expected);
        // The borrowed input is untouched by the sink.
        assert!(rep.store_identical(&sample_rep()));
    }

    #[test]
    fn aggregate_sink_consumes_trailing_barriers_on_the_overlay() {
        // A selection-then-aggregate plan: the selection folds into the
        // aggregate accumulation as an entry filter — no arena, no clone.
        let rep = sample_rep();
        let plan = FPlan::new(vec![FPlanOp::SelectConst {
            attr: AttrId(0),
            op: ComparisonOp::Eq,
            value: Value::new(1),
        }]);
        let mut executed = rep.clone();
        plan.execute(&mut executed).unwrap();
        for kind in [
            AggregateKind::Count,
            AggregateKind::Sum(AttrId(1)),
            AggregateKind::Min(AttrId(3)),
        ] {
            let expected = aggregate::evaluate(&executed, kind, &[]).unwrap();
            let (got, on_overlay) = plan.execute_aggregate(&rep, kind, &[]).unwrap();
            assert!(on_overlay, "trailing selections fold into the sink");
            assert_eq!(got, expected, "{kind}");
        }
        // Only the empty plan falls back to the plain arena pass.
        let (_, on_overlay) = FPlan::empty()
            .execute_aggregate(&rep, AggregateKind::Count, &[])
            .unwrap();
        assert!(!on_overlay, "the empty plan aggregates on the arena");
        // The borrowed input is untouched.
        assert!(rep.store_identical(&sample_rep()));
    }

    #[test]
    fn fusion_counters_reflect_the_whole_plan() {
        let oid = NodeId(1);
        // Every non-empty plan runs as one fused program, a lone single-pass
        // operator included; only the empty plan runs nothing.
        for plan in [
            FPlan::new(vec![FPlanOp::Swap(oid)]),
            FPlan::new(vec![FPlanOp::SelectConst {
                attr: AttrId(3),
                op: ComparisonOp::Eq,
                value: Value::new(7),
            }]),
            FPlan::new(vec![FPlanOp::Normalise]),
            FPlan::new(vec![
                FPlanOp::Swap(oid),
                FPlanOp::Project(attrs(&[1])),
                FPlanOp::Normalise,
            ]),
        ] {
            assert!(plan.fuses(), "{plan}");
        }
        assert!(!FPlan::empty().fuses());
    }

    #[test]
    fn peephole_merges_adjacent_mark_only_projections() {
        // sample_rep: item{0,2} → (oid{1}, supplier{3}); keeping {0,2,1}
        // only marks supplier's attribute?  No — supplier{3} would lose its
        // only attribute.  Keep {0,1,3} instead: item keeps 0, drops 2 —
        // every node still has a visible attribute, so the projection is
        // mark-only and merges with the next one.
        let rep = sample_rep();
        let plan = FPlan::new(vec![
            FPlanOp::Project(attrs(&[0, 1, 3])),
            FPlanOp::Project(attrs(&[0, 1])),
        ]);
        let simplified = plan.simplified(rep.tree());
        assert_eq!(
            simplified.ops,
            vec![FPlanOp::Project(attrs(&[0, 1]))],
            "adjacent projections merge into the intersection"
        );
        // Bit-for-bit: merged execution equals the oracle run op by op.
        let mut fused = rep.clone();
        let mut reference = rep;
        plan.execute(&mut fused).unwrap();
        ops::oracle::execute(&mut reference, &plan.ops).unwrap();
        assert!(fused.store_identical(&reference));
    }

    #[test]
    fn peephole_keeps_node_removing_projection_chains() {
        // Keeping {1,3} removes the item node's attributes entirely on both
        // nodes?  item{0,2} loses everything → the first projection removes
        // nodes, so the pair must NOT merge.
        let rep = sample_rep();
        let plan = FPlan::new(vec![
            FPlanOp::Project(attrs(&[1, 3])),
            FPlanOp::Project(attrs(&[1])),
        ]);
        let simplified = plan.simplified(rep.tree());
        assert_eq!(simplified.ops.len(), 2, "node-removing projections stay");
        let mut fused = rep.clone();
        let mut reference = rep;
        plan.execute(&mut fused).unwrap();
        ops::oracle::execute(&mut reference, &plan.ops).unwrap();
        assert!(fused.store_identical(&reference));
    }

    #[test]
    fn peephole_drops_selections_made_total_by_an_earlier_binding() {
        let rep = sample_rep();
        let select = |op: ComparisonOp, value: u64| FPlanOp::SelectConst {
            attr: AttrId(0),
            op,
            value: Value::new(value),
        };
        let plan = FPlan::new(vec![
            select(ComparisonOp::Eq, 1),
            // The node is now bound to 1: repeats and implied ranges are
            // total and drop…
            select(ComparisonOp::Eq, 1),
            select(ComparisonOp::Ge, 1),
            select(ComparisonOp::Ne, 5),
            // …but a contradicted predicate empties the data and stays.
            select(ComparisonOp::Eq, 2),
        ]);
        let simplified = plan.simplified(rep.tree());
        assert_eq!(
            simplified.ops,
            vec![select(ComparisonOp::Eq, 1), select(ComparisonOp::Eq, 2)]
        );
        let mut fused = rep.clone();
        let mut reference = rep;
        plan.execute(&mut fused).unwrap();
        ops::oracle::execute(&mut reference, &plan.ops).unwrap();
        assert!(fused.store_identical(&reference));
        assert!(fused.represents_empty());
    }

    /// A{0} → B{1} → C{2} over R{0,1} and S{2}: C depends on neither A nor
    /// B, so the tree is not normalised and C can be pushed up.
    fn free_leaf_rep() -> FRep {
        let edges = vec![
            DepEdge::new("R", attrs(&[0, 1]), 3),
            DepEdge::new("S", attrs(&[2]), 2),
        ];
        let mut tree = FTree::new(edges);
        let a = tree.add_node(attrs(&[0]), None).unwrap();
        let b = tree.add_node(attrs(&[1]), Some(a)).unwrap();
        let c = tree.add_node(attrs(&[2]), Some(b)).unwrap();
        let c_union = || {
            Union::new(
                c,
                vec![Entry::leaf(Value::new(5)), Entry::leaf(Value::new(6))],
            )
        };
        let b_entry = |v: u64| Entry {
            value: Value::new(v),
            children: vec![c_union()],
        };
        let u = Union::new(
            a,
            vec![
                Entry {
                    value: Value::new(1),
                    children: vec![Union::new(b, vec![b_entry(10), b_entry(11)])],
                },
                Entry {
                    value: Value::new(2),
                    children: vec![Union::new(b, vec![b_entry(12)])],
                },
            ],
        );
        FRep::from_parts(tree, vec![u]).unwrap()
    }

    #[test]
    fn governed_aborts_leave_the_input_untouched() {
        use fdb_common::QueryLimits;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let sample = sample_rep();
        let item = sample.tree().node_of_attr(AttrId(0)).unwrap();
        let oid = sample.tree().node_of_attr(AttrId(1)).unwrap();
        let supplier = sample.tree().node_of_attr(AttrId(3)).unwrap();
        let free = free_leaf_rep();
        let b = free.tree().node_of_attr(AttrId(1)).unwrap();
        let c = free.tree().node_of_attr(AttrId(2)).unwrap();
        // Each of the seven operators as a one-op plan, plus one multi-op
        // plan; every plan succeeds when ungoverned.
        let cases = [
            (&free, FPlan::new(vec![FPlanOp::PushUp(c)])),
            (&free, FPlan::new(vec![FPlanOp::Normalise])),
            (&free, FPlan::new(vec![FPlanOp::Swap(b)])),
            (&sample, FPlan::new(vec![FPlanOp::Merge(oid, supplier)])),
            (&sample, FPlan::new(vec![FPlanOp::Absorb(item, oid)])),
            (
                &sample,
                FPlan::new(vec![FPlanOp::SelectConst {
                    attr: AttrId(3),
                    op: ComparisonOp::Ge,
                    value: Value::new(8),
                }]),
            ),
            (&sample, FPlan::new(vec![FPlanOp::Project(attrs(&[1, 3]))])),
            (
                &sample,
                FPlan::new(vec![
                    FPlanOp::Swap(oid),
                    FPlanOp::SelectConst {
                        attr: AttrId(3),
                        op: ComparisonOp::Le,
                        value: Value::new(7),
                    },
                    FPlanOp::Project(attrs(&[1, 3])),
                ]),
            ),
        ];
        for (rep, plan) in cases {
            plan.execute_presimplified(&mut rep.clone())
                .unwrap_or_else(|e| panic!("{plan}: ungoverned run failed: {e:?}"));

            let cancelled = QueryLimits::unlimited().with_cancel(Arc::new(AtomicBool::new(true)));
            let mut target = rep.clone();
            let err = plan
                .execute_presimplified_ctx(&mut target, &ExecCtx::new(&cancelled))
                .unwrap_err();
            assert!(
                matches!(err, FdbError::DeadlineExceeded { limit_ms: 0 }),
                "{plan}: cancellation reported as {err:?}"
            );
            assert!(
                target.store_identical(rep),
                "{plan}: cancelled run modified its input"
            );
            assert_eq!(target.tree().canonical_key(), rep.tree().canonical_key());

            let exhausted = QueryLimits::unlimited().with_budget(0);
            let mut target = rep.clone();
            let err = plan
                .execute_presimplified_ctx(&mut target, &ExecCtx::new(&exhausted))
                .unwrap_err();
            assert!(
                matches!(err, FdbError::BudgetExceeded { limit: 0 }),
                "{plan}: exhausted budget reported as {err:?}"
            );
            assert!(
                target.store_identical(rep),
                "{plan}: over-budget run modified its input"
            );
            assert_eq!(target.tree().canonical_key(), rep.tree().canonical_key());
        }
    }
}
