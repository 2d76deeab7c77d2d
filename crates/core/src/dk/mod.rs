//! The D(k)-index: construction (Algorithms 1–2), updates (Algorithms 3–5),
//! and the promoting/demoting tuning processes (paper §4–§5).
//!
//! Map from paper sections to submodules:
//!
//! * §4.1 requirement mining lives in [`crate::mining`]; the per-label
//!   requirements land here as [`crate::Requirements`].
//! * §4.2 Algorithm 1 (broadcast of local similarities along the
//!   Definition 3 constraint) — [`broadcast`].
//! * §4.2 Algorithm 2 (construction by selective refinement rounds) —
//!   [`construct`], with [`dk_partition_reference`] retained in the
//!   import-isolated [`mod@reference`] module as the uninstrumented oracle for
//!   equivalence tests.
//! * §5.1 Algorithm 3 (subgraph addition, Theorem 2) — [`subgraph`].
//! * §5.2 Algorithms 4–5 (edge addition: `Update_Local_Similarity` plus the
//!   BFS similarity lowering) — [`edge_update`].
//! * §5.3 Algorithm 6 (promoting: re-splitting extents to raised
//!   requirements) — [`promote`].
//! * §5.4 demoting (merging via re-indexing, Theorem 2) — [`demote`].
//!
//! Construction, promotion, demotion and edge updates are instrumented with
//! the `dk.*` counters and span histograms of `dkindex_telemetry::metrics`;
//! the recorder is off by default and observationally transparent.

#![deny(clippy::iter_over_hash_type)]

pub mod broadcast;
pub mod construct;
pub mod demote;
pub mod edge_update;
pub mod promote;
pub mod reference;
pub mod subgraph;

pub use broadcast::{block_parent_sets, broadcast_requirements, requirements_consistent};
pub use construct::{dk_partition, dk_partition_with_options, DkIndex};
pub use reference::dk_partition_reference;
pub use demote::enforce_structural_constraint;
pub use edge_update::{update_local_similarity, EdgeUpdateOutcome};
