//! # dkindex-graph
//!
//! The data model shared by every crate in the D(k)-index reproduction: a
//! rooted, directed, node-labeled graph representing XML or other
//! semi-structured data (paper §3).
//!
//! * [`DataGraph`] — the graph itself, with forward *and* backward adjacency
//!   (bisimulation looks at incoming paths, queries follow outgoing edges).
//! * [`LabeledGraph`] — the read-only trait implemented by both [`DataGraph`]
//!   and the index graphs in `dkindex-core`, so evaluation and refinement are
//!   reusable across data and summary graphs.
//! * [`LabelInterner`] / [`LabelId`] — dense label interning with the
//!   distinguished `ROOT` and `VALUE` labels.
//! * [`traversal`] — depth maps and incoming-label-path enumeration (the
//!   raw material of the k-bisimilarity properties).
//! * [`Marks`] — epoch-stamped visited flags shared by every hot traversal
//!   loop in the workspace (O(1) clear, zero steady-state allocation).
//! * [`SegVec`] — the persistent, segment-shared vector backing
//!   [`DataGraph`]'s edge list.
//! * [`SegCsr`] — the same segment sharing for adjacency (compressed sparse
//!   rows inside each 64-row segment): the children and parents of
//!   [`DataGraph`] and of `dkindex-core`'s index graphs. Cloning either
//!   graph is a copy-on-write snapshot (the delta-epoch publish path in
//!   `dkindex-core` builds on this). A loader lays each column out once
//!   with [`SegCsr::from_pairs`].
//! * [`dot`] — GraphViz export in the style of the paper's Figure 1.
//! * [`stats`] — dataset shape reporting for the experiment harness.
//!
//! ## Example
//!
//! ```
//! use dkindex_graph::{DataGraph, EdgeKind, LabeledGraph};
//!
//! let mut g = DataGraph::new();
//! let movie = g.add_labeled_node("movie");
//! let title = g.add_labeled_node("title");
//! let root = g.root();
//! g.add_edge(root, movie, EdgeKind::Tree);
//! g.add_edge(movie, title, EdgeKind::Tree);
//! assert_eq!(g.node_count(), 3);
//! assert_eq!(g.label_name(title), "title");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod label;
mod marks;

pub mod dot;
pub mod segcsr;
pub mod segvec;
pub mod stats;
pub mod traversal;

pub use graph::{DataGraph, EdgeKind, LabeledGraph, NodeId, NodeIds};
pub use label::{LabelId, LabelInterner, ROOT_LABEL, VALUE_LABEL};
pub use marks::Marks;
pub use segcsr::SegCsr;
pub use segvec::SegVec;
