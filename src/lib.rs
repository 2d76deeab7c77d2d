//! # dkindex
//!
//! A from-scratch Rust implementation of **"D(k)-Index: An Adaptive
//! Structural Summary for Graph-Structured Data"** (Chen, Lim, Ong —
//! SIGMOD 2003), including every substrate the paper depends on and every
//! baseline it is evaluated against.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`graph`] — the rooted, labeled data-graph model for XML and other
//!   semi-structured data (paper §3).
//! * [`xml`] — a small XML parser/writer and the XML → graph mapping
//!   (ID/IDREF references become graph edges).
//! * [`partition`] — partition refinement: k-bisimulation and selective
//!   refinement (one interned-signature engine plus its reference oracle),
//!   worklist coarsest stable refinement for the 1-index.
//! * [`pathexpr`] — regular path expressions (nesting and size capped at
//!   parse time), NFA compilation, evaluation with the paper's node-visit
//!   cost model.
//! * [`core`] — the summaries: D(k)-index with all update algorithms,
//!   A(k)-index, 1-index, label-split; evaluation with validation;
//!   query-load mining.
//! * [`datagen`] — XMark-like and NASA-like dataset generators.
//! * [`workload`] — the paper's test-path and update-stream generators.
//! * [`telemetry`] — zero-dependency counters, histograms and span timers
//!   wired through the build/query/adapt hot paths; off by default and
//!   observationally transparent (see `tests/telemetry_transparency.rs`).
//!
//! ## Quickstart
//!
//! ```
//! use dkindex::core::{DkIndex, IndexEvaluator, Requirements};
//! use dkindex::pathexpr::parse;
//! use dkindex::xml::parse_to_graph;
//!
//! let data = parse_to_graph(
//!     r#"<movieDB>
//!          <director><name/><movie id="m1"><title/></movie></director>
//!          <actor movie="m1"><name/></actor>
//!        </movieDB>"#,
//! ).unwrap();
//!
//! // Titles are asked for through 2-step paths → requirement 2.
//! let dk = DkIndex::build(&data, Requirements::from_pairs([("title", 2)]));
//! let out = IndexEvaluator::new(dk.index(), &data)
//!     .evaluate(&parse("director.movie.title").unwrap());
//! assert_eq!(out.matches.len(), 1);
//! assert!(!out.validated);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dkindex_core as core;
pub use dkindex_datagen as datagen;
pub use dkindex_graph as graph;
pub use dkindex_partition as partition;
pub use dkindex_pathexpr as pathexpr;
pub use dkindex_telemetry as telemetry;
pub use dkindex_workload as workload;
pub use dkindex_xml as xml;
