//! # dkindex-partition
//!
//! Partition refinement for labeled directed graphs — the algorithmic core of
//! every bisimulation-based structural summary in the D(k)-index paper.
//!
//! * [`Partition`] / [`BlockId`] — a partition of a graph's node set.
//! * [`refine`] — backward-signature refinement: one round, k rounds
//!   (A(k) extents), fixpoint (1-index extents), and the *selective* round
//!   used by D(k) construction (only blocks whose similarity requirement is
//!   high enough get split).
//! * [`RefineEngine`] — the interned-signature implementation of the same
//!   rounds with reusable scratch buffers; produces partitions identical to
//!   [`refine`], which stays as its oracle.
//! * [`coarsest`] — worklist coarsest-stable-refinement in the style of
//!   Paige–Tarjan: the 1-index engine, cross-checked against
//!   [`refine::bisimulation_fixpoint`].
//! * [`naive`] — quadratic pairwise k-bisimilarity, a test oracle for
//!   Definition 2 of the paper.
//!
//! ## Example
//!
//! ```
//! use dkindex_graph::{DataGraph, EdgeKind, LabeledGraph};
//! use dkindex_partition::{k_bisimulation, Partition};
//!
//! let mut g = DataGraph::new();
//! let a = g.add_labeled_node("actor");
//! let d = g.add_labeled_node("director");
//! let m1 = g.add_labeled_node("movie");
//! let m2 = g.add_labeled_node("movie");
//! let root = g.root();
//! g.add_edge(root, a, EdgeKind::Tree);
//! g.add_edge(root, d, EdgeKind::Tree);
//! g.add_edge(a, m1, EdgeKind::Tree);
//! g.add_edge(d, m2, EdgeKind::Tree);
//!
//! // 0-bisimulation keeps the two movies together; 1-bisimulation separates
//! // them because one is reached through `actor` and the other `director`.
//! assert!(k_bisimulation(&g, 0).same_block(m1, m2));
//! assert!(!k_bisimulation(&g, 1).same_block(m1, m2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod partition;

pub mod coarsest;
pub mod engine;
pub mod naive;
pub mod refine;

pub use coarsest::coarsest_stable_refinement;
pub use engine::RefineEngine;
pub use naive::{naive_k_bisimilar, KBisimTable};
pub use partition::{BlockId, Partition};
pub use refine::{
    bisimulation_fixpoint, k_bisimulation, parent_signature, refine_round, refine_round_selective,
};
