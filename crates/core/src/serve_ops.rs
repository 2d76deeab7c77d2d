//! Serve operations and the serial application oracle.
//!
//! [`ServeOp`] is the vocabulary the maintenance thread speaks; `apply`
//! is the one place an op mutates `(DkIndex, DataGraph)` (WAL replay's
//! `apply_overwritten` keeps only the graph and requirement part of an op
//! a later retarget overwrites); and
//! [`apply_serial`] folds a whole op sequence single-threadedly. The serve
//! determinism tests compare an N-thread [`crate::serve::DkServer`] run
//! against `apply_serial` over the same submission order — snapshot bytes
//! and all — so this module is an *oracle* and must stay independent of
//! the concurrent machinery it certifies: no `dkindex_telemetry`, no
//! channels, no threads, no epoch lock (the oracle table in
//! `tests/contracts.rs` enforces this).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type
)]

use crate::dk::construct::DkIndex;
use crate::requirements::Requirements;
use dkindex_graph::{DataGraph, EdgeKind, LabeledGraph, NodeId};

/// A maintenance operation, applied by the single maintenance thread in
/// submission order. Every requirement change is a *retarget*: the index
/// becomes `DkIndex::build(data, requirements)`, whichever way the
/// requirements moved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeOp {
    /// The paper's edge-addition update (Algorithms 4–5).
    AddEdge {
        /// Source data node.
        from: NodeId,
        /// Target data node.
        to: NodeId,
    },
    /// Retarget to the stored requirements: rebuild the index from the
    /// current data graph (Algorithm 2), which restores every block's local
    /// similarity after edge updates lowered it.
    PromoteToRequirements,
    /// Retarget to new requirements, raised or lowered (the tuner's
    /// promoting and demoting action): the index becomes
    /// `DkIndex::build(data, requirements)`.
    SetRequirements(Requirements),
}

/// Apply one op on the owned mutable state. An op [`is_applicable`]
/// rejects — an edge naming a node the data graph lacks — is skipped
/// (deterministically — the serial oracle sees the same sequence), so a bad
/// op cannot take the maintenance thread down.
pub(crate) fn apply(dk: &mut DkIndex, data: &mut DataGraph, op: ServeOp) {
    if !is_applicable(&op, data) {
        return;
    }
    match op {
        ServeOp::AddEdge { from, to } => {
            dk.add_edge(data, from, to);
        }
        ServeOp::PromoteToRequirements => *dk = DkIndex::build(data, dk.requirements().clone()),
        ServeOp::SetRequirements(reqs) => *dk = DkIndex::build(data, reqs),
    }
}

/// Does `op` rebuild the index from `(data graph, requirements)`? Every op
/// but `AddEdge` does. A retarget's result owes nothing to the index before
/// it, so replay can skip the index work of every op a later retarget
/// overwrites.
pub(crate) fn is_retarget(op: &ServeOp) -> bool {
    !matches!(op, ServeOp::AddEdge { .. })
}

/// Apply what of `op` outlives a later retarget: the data edge of an
/// `AddEdge` and the requirements of a `SetRequirements`. The index is left
/// stale; the retarget rebuilds it. The caller has checked that `op`
/// [`is_applicable`].
pub(crate) fn apply_overwritten(dk: &mut DkIndex, data: &mut DataGraph, op: ServeOp) {
    match op {
        ServeOp::AddEdge { from, to } => {
            data.add_edge(from, to, EdgeKind::Reference);
        }
        ServeOp::SetRequirements(reqs) => dk.set_requirements(reqs),
        ServeOp::PromoteToRequirements => {}
    }
}

/// Would `apply` actually execute this op, or skip it? An edge naming a
/// node outside the data graph is a deterministic no-op; the WAL
/// group-commit path uses this to keep no-ops out of the log, and WAL
/// replay uses it to reject a log that names nodes its snapshot lacks, so
/// strict replay of the logged prefix reproduces the serve run exactly.
pub fn is_applicable(op: &ServeOp, data: &DataGraph) -> bool {
    match op {
        ServeOp::AddEdge { from, to } => {
            from.index() < data.node_count() && to.index() < data.node_count()
        }
        ServeOp::PromoteToRequirements | ServeOp::SetRequirements(_) => true,
    }
}

/// Apply `ops` serially to `(dk, data)` — the single-threaded oracle used by
/// the determinism tests: an N-thread serve run over the same submission
/// order must end byte-identical to this.
pub fn apply_serial(dk: &mut DkIndex, data: &mut DataGraph, ops: &[ServeOp]) {
    for op in ops {
        apply(dk, data, op.clone());
    }
}
