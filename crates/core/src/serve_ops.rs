//! Serve operations and the serial application oracle.
//!
//! [`ServeOp`] is the vocabulary the maintenance thread speaks; `apply`
//! is the one place an op mutates `(DkIndex, DataGraph)`; and
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
use dkindex_graph::{DataGraph, LabeledGraph, NodeId};

/// A maintenance operation, applied by the single maintenance thread in
/// submission order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeOp {
    /// The paper's edge-addition update (Algorithms 4–5).
    AddEdge {
        /// Source data node.
        from: NodeId,
        /// Target data node.
        to: NodeId,
    },
    /// Promote the block containing `node` to local similarity `k`
    /// (Algorithm 6).
    Promote {
        /// A data node identifying the target block.
        node: NodeId,
        /// Requested local similarity.
        k: usize,
    },
    /// Run the full promoting pass against the stored requirements.
    PromoteToRequirements,
    /// Demote the index to the given requirements.
    Demote(Requirements),
    /// Replace the stored requirements and promote up to them (the tuner's
    /// promotion action).
    SetRequirements(Requirements),
}

/// Apply one op on the owned mutable state. Edge updates naming a node that
/// does not exist in the data graph are skipped (deterministically — the
/// serial oracle sees the same sequence), so a bad op cannot take the
/// maintenance thread down.
pub(crate) fn apply(dk: &mut DkIndex, data: &mut DataGraph, op: ServeOp) {
    match op {
        ServeOp::AddEdge { from, to } => {
            if from.index() < data.node_count() && to.index() < data.node_count() {
                dk.add_edge(data, from, to);
            }
        }
        ServeOp::Promote { node, k } => {
            if node.index() < data.node_count() {
                dk.promote(data, node, k);
            }
        }
        ServeOp::PromoteToRequirements => {
            dk.promote_to_requirements(data);
        }
        ServeOp::Demote(reqs) => {
            dk.demote(reqs);
        }
        ServeOp::SetRequirements(reqs) => {
            dk.set_requirements(reqs);
            dk.promote_to_requirements(data);
        }
    }
}

/// Would `apply` actually execute this op, or skip it? Edge and promote
/// ops naming a node outside the data graph are deterministic no-ops; the
/// WAL group-commit path uses this to keep no-ops out of the log, and WAL
/// replay uses it to reject a log that names nodes its snapshot lacks, so
/// strict replay of the logged prefix reproduces the serve run exactly.
pub fn is_applicable(op: &ServeOp, data: &DataGraph) -> bool {
    match op {
        ServeOp::AddEdge { from, to } => {
            from.index() < data.node_count() && to.index() < data.node_count()
        }
        ServeOp::Promote { node, .. } => node.index() < data.node_count(),
        ServeOp::PromoteToRequirements | ServeOp::Demote(_) | ServeOp::SetRequirements(_) => true,
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
