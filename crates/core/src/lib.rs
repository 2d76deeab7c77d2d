//! # dkindex-core
//!
//! Structural summaries for graph-structured data — the primary contribution
//! of "D(k)-Index: An Adaptive Structural Summary for Graph-Structured Data"
//! (SIGMOD 2003) together with the baselines it is evaluated against:
//!
//! * [`IndexGraph`] — the common summary representation: extents, per-node
//!   local similarity, and the Definition 3 structural constraint.
//! * [`DkIndex`] — the adaptive D(k)-index: broadcast (Algorithm 1),
//!   construction (Algorithm 2), subgraph-addition update (Algorithm 3),
//!   edge-addition update (Algorithms 4–5), and the promoting (Algorithm 6)
//!   and demoting tuning processes.
//! * [`AkIndex`] — the A(k)-index baseline with the propagate-style edge
//!   update used as the comparator in the paper's Table 1.
//! * [`OneIndex`] — the 1-index (full bisimulation).
//! * [`label_split_index`] — the label-split graph (= A(0)).
//! * [`DataGuide`] — the strong DataGuide (related-work baseline).
//! * [`IndexEvaluator`] — query evaluation with the validation process and
//!   the paper's node-visit cost model (§6.1).
//! * [`mine_requirements`] — query-load mining into per-label requirements.
//!
//! ## Example
//!
//! ```
//! use dkindex_core::{DkIndex, IndexEvaluator, Requirements};
//! use dkindex_graph::{DataGraph, EdgeKind};
//! use dkindex_pathexpr::parse;
//!
//! let mut g = DataGraph::new();
//! let d = g.add_labeled_node("director");
//! let m = g.add_labeled_node("movie");
//! let t = g.add_labeled_node("title");
//! let root = dkindex_graph::LabeledGraph::root(&g);
//! g.add_edge(root, d, EdgeKind::Tree);
//! g.add_edge(d, m, EdgeKind::Tree);
//! g.add_edge(m, t, EdgeKind::Tree);
//!
//! let dk = DkIndex::build(&g, Requirements::from_pairs([("title", 2)]));
//! let out = IndexEvaluator::new(dk.index(), &g)
//!     .evaluate(&parse("director.movie.title").unwrap());
//! assert_eq!(out.matches, vec![t]);
//! assert!(!out.validated); // sound: title's local similarity covers length 2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod akindex;
pub mod audit;
pub mod block_store;
pub mod bytes;
pub mod crc32;
pub mod dataguide;
pub mod dk;
pub mod eval;
pub mod eval_oracle;
pub mod index_graph;
pub mod index_stats;
pub mod io_fail;
pub mod label_split;
pub mod load_monitor;
pub mod mining;
pub mod one_index;
pub mod requirements;
pub mod serve;
pub mod serve_ops;
pub mod snapshot;
pub mod store;
pub mod tuner;
pub mod wal;

pub use akindex::{AkIndex, UpdateWork};
pub use audit::{audit, audit_dk, check_structure, recover_or_rebuild, AuditConfig, AuditReport, Finding, Invariant, RecoveryAction, Severity};
pub use block_store::{Block, BlockStore};
pub use dataguide::{DataGuide, DataGuideError};
pub use dk::{DkIndex, EdgeUpdateOutcome};
pub use eval::{evaluate_on_data, IndexEvalOutcome, IndexEvaluator, QueryAborted, QueryCost};
pub use index_graph::{IndexGraph, SIM_EXACT};
pub use index_stats::IndexStats;
pub use io_fail::{FailPlan, SharedDisk, SimDisk};
pub use label_split::label_split_index;
pub use load_monitor::{LoadMonitor, LoadWindow};
pub use mining::{mine_requirements, mine_requirements_weighted};
pub use one_index::OneIndex;
pub use requirements::Requirements;
pub use serve::{
    DkServer, DurableAck, Epoch, MaintenanceGate, ServeConfig, ServeError, ServeHandle, Submitter,
};
pub use serve_ops::{apply_serial, ServeOp};
pub use snapshot::{load_with_recovery, read_snapshot, save_snapshot_file, snapshot_bytes, write_snapshot, Recovery, SnapshotError};
pub use tuner::{plan_tuning, TuneStats, Tuner, TunerConfig, TuningPlan};
pub use wal::{
    inspect_wal, BatchLog, ReplayReport, WalError, WalInspection, WalStore, WalTail,
    WalVerdict, WalWriter,
};
