//! Factorisation trees (f-trees).
//!
//! An f-tree over a set of attributes is an unordered rooted forest whose
//! nodes are labelled by disjoint, non-empty attribute classes covering the
//! whole set (Definition 2 of the paper).  An f-tree describes the nesting
//! structure of a factorised representation: tuples are grouped by the values
//! of the root class, the common values are factored out, and each child
//! subtree factorises one independent part of the remainder.
//!
//! This crate implements:
//!
//! * the [`FTree`] data structure ([`ftree`]) with its *dependency edges*
//!   (which relation constrains which attributes), the *path constraint*
//!   (all attributes of a relation lie on one root-to-leaf path), and
//!   queries such as ancestorship and node dependency;
//! * the schema-level transformations used by f-plan operators
//!   ([`transform`]): push-up, normalisation, swap, merge, absorb,
//!   constant-selection marking, and leaf removal for projections;
//! * the size-bound cost `s(T)` ([`cost`]): the maximum fractional edge
//!   cover number over root-to-leaf paths, computed with the `fdb-lp`
//!   simplex solver;
//! * constructors of valid f-trees for a query ([`builder`]), including the
//!   single-path fallback and the recursive enumeration of normalised
//!   f-trees used by the optimiser.

#![warn(missing_docs)]

pub mod builder;
pub mod cost;
pub mod ftree;
pub mod transform;

pub use builder::{
    dep_edges_for_query, flat_database_ftree, ftree_from_query_classes, single_path_ftree,
};
pub use cost::{path_cover_instance, s_cost, s_cost_details, PathCost, PathCoverMemo};
#[doc(hidden)]
pub use ftree::NodeSnapshot;
pub use ftree::{CanonicalKey, DepEdge, FTree, NodeId};
pub use transform::SwapOutcome;
