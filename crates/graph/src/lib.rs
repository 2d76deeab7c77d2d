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
//! * [`Marks`] — visited flags, one bit per slot, shared by every hot
//!   traversal loop in the workspace: each traversal clears the bits it set,
//!   so the next one starts on a clear set with no memset and zero
//!   steady-state allocation.
//! * [`Adjacency`] — a graph's edges, stored once per direction under one
//!   row rule (child rows in insertion order, parent rows ascending): the
//!   adjacency of [`DataGraph`] and of `dkindex-core`'s index graphs alike.
//!   A loader lays it out once with [`Adjacency::from_child_rows`], and its
//!   edges read back child row by child row.
//! * [`SegCsr`] — one adjacency column: compressed sparse rows inside
//!   `Arc`-shared 64-row segments. An [`Adjacency`] is two of them, and a
//!   third holds [`DataGraph`]'s reference children (an edge's kind).
//!   Cloning either graph is a copy-on-write snapshot: it shares these
//!   segments and each flat `Arc` column (the labels, and the index
//!   graph's node map) until a write copies one (the delta-epoch publish
//!   path in `dkindex-core` builds on this).
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

mod adjacency;
mod graph;
mod label;
mod marks;

pub mod dot;
pub mod segcsr;
pub mod stats;
pub mod traversal;

pub use adjacency::Adjacency;
pub use graph::{DataGraph, EdgeKind, LabeledGraph, NodeId, NodeIds};
pub use label::{LabelId, LabelInterner, ROOT_LABEL, VALUE_LABEL};
pub use marks::Marks;
pub use segcsr::{ColumnCensus, SegCsr};
