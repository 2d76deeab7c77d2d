//! The uninstrumented D(k) construction and promotion oracles.
//!
//! This module is the baseline that certifies the engine-backed construction
//! ([`crate::dk::construct::dk_partition_with_options`]) and the promoting
//! process ([`DkIndex::promote`], [`DkIndex::promote_to_requirements`]):
//! equivalence tests demand byte-identical partitions, and block-for-block
//! identical indexes, from both. For that comparison to mean anything, the
//! oracle must stay independent of what it checks — it is forbidden (and the
//! oracle table in `tests/contracts.rs` enforces) from touching
//! `RefineEngine`, the fast promotion's step-3 counters or
//! `dkindex_telemetry`. It pays one allocation per node per round
//! ([`dkindex_partition::refine_round_selective`] hashes freshly-built
//! signature vectors), and one successor set per (fragment, parent) pair
//! per promotion check.

use crate::dk::broadcast::broadcast_requirements;
use crate::dk::construct::DkIndex;
use crate::index_graph::IndexGraph;
use crate::requirements::Requirements;
use dkindex_graph::{DataGraph, LabeledGraph, NodeId};
use dkindex_partition::Partition;
use std::collections::HashSet;

/// The pre-engine D(k) partition loop, kept verbatim as the oracle for
/// equivalence tests. Produces partitions identical to
/// [`dk_partition_with_options`](crate::dk::construct::dk_partition_with_options).
pub fn dk_partition_reference<G: LabeledGraph>(
    g: &G,
    reqs: &Requirements,
    use_broadcast: bool,
) -> (Partition, Vec<usize>) {
    let p0 = Partition::by_label(g);
    let table = reqs.resolve(g.labels());
    let mut block_req: Vec<usize> = p0
        .block_ids()
        .map(|b| table[g.label_of(p0.members(b)[0]).index()])
        .collect();
    if use_broadcast {
        broadcast_requirements(g, &p0, &mut block_req);
    }
    let k_max = block_req.iter().copied().max().unwrap_or(0);

    let mut p = p0;
    for k in 1..=k_max {
        let req_snapshot = block_req.clone();
        let (next, changed) = dkindex_partition::refine_round_selective(g, &p, |b| {
            req_snapshot[b.index()] >= k
        });
        if changed {
            // New blocks inherit the requirement of the block they split from.
            let mut next_req = vec![0usize; next.block_count()];
            for b in next.block_ids() {
                let member = next.members(b)[0];
                next_req[b.index()] = req_snapshot[p.block_of(member).index()];
            }
            block_req = next_req;
        }
        p = next;
    }
    (p, block_req)
}

/// Algorithm 6's oracle: promote the index node containing `data_node` to
/// local similarity `k_n`, splitting against materialised successor sets.
/// Returns the number of extent splits; leaves the same index as
/// [`DkIndex::promote`].
pub fn promote(dk: &mut DkIndex, data: &DataGraph, data_node: NodeId, k_n: usize) -> usize {
    let mut splits = 0;
    loop {
        let inode = dk.index().index_of(data_node);
        if dk.index().similarity(inode) >= k_n {
            return splits;
        }
        promote_inode(dk.index_mut(), data, inode, k_n, &mut splits, 0);
    }
}

/// The oracle for [`DkIndex::promote_to_requirements`]: batches of
/// lagging blocks, deduped per block and promoted highest `k` first, until
/// every block meets its label's requirement.
pub fn promote_to_requirements(dk: &mut DkIndex, data: &DataGraph) -> usize {
    let reqs = dk.requirements().clone();
    let mut splits = 0;
    loop {
        let table = reqs.resolve(dk.index().labels());
        let mut targets: Vec<(NodeId, NodeId, usize)> = Vec::new();
        for inode in dk.index().node_ids() {
            let want = table.get(dk.index().label_of(inode).index()).copied().unwrap_or(0);
            if dk.index().similarity(inode) < want {
                targets.push((inode, dk.index().extent(inode)[0], want));
            }
        }
        if targets.is_empty() {
            return splits;
        }
        targets.sort_by_key(|&(b, n, k)| (b.index(), std::cmp::Reverse(k), n.index()));
        targets.dedup_by_key(|entry| entry.0);
        targets.sort_by_key(|&(_, n, k)| (std::cmp::Reverse(k), n.index()));
        for (_, n, k) in targets {
            splits += promote(dk, data, n, k);
        }
    }
}

/// Recursive promotion of one index node: parents to `k_n − 1` first, then
/// split against each parent's successor set `Succ(W)` to a fixpoint.
fn promote_inode(
    index: &mut IndexGraph,
    data: &DataGraph,
    inode: NodeId,
    k_n: usize,
    splits: &mut usize,
    depth: usize,
) {
    if index.similarity(inode) >= k_n {
        return;
    }
    assert!(depth <= 2 * k_n + 64, "promotion recursion runaway");

    // Step 2: promote parents to k_n - 1, re-reading the parent list each
    // time (self-loops included).
    if k_n > 0 {
        loop {
            let pending: Option<NodeId> = index
                .parents_of(inode)
                .iter()
                .copied()
                .find(|&w| index.similarity(w) < k_n - 1);
            match pending {
                Some(w) => promote_inode(index, data, w, k_n - 1, splits, depth + 1),
                None => break,
            }
        }
    }

    // Step 3: split every fragment against each current parent's Succ(W),
    // restarting after each split until all are stable.
    let mut fragments: Vec<NodeId> = vec![inode];
    'restabilize: loop {
        for i in 0..fragments.len() {
            let f = fragments[i];
            let parents: Vec<NodeId> = index.parents_of(f).to_vec();
            for w in parents {
                // Succ(W) over the data graph.
                let succ: HashSet<NodeId> = index
                    .extent(w)
                    .iter()
                    .flat_map(|&m| data.children_of(m).iter().copied())
                    .collect();
                let inside: HashSet<NodeId> = index
                    .extent(f)
                    .iter()
                    .copied()
                    .filter(|m| succ.contains(m))
                    .collect();
                if !inside.is_empty() && inside.len() < index.extent(f).len() {
                    let moved: Vec<NodeId> =
                        index.extent(f).iter().copied().filter(|m| inside.contains(m)).collect();
                    let new_node = index.split_extent(f, &moved, k_n, data);
                    *splits += 1;
                    fragments.push(new_node);
                    continue 'restabilize;
                }
            }
        }
        break;
    }
    for f in fragments {
        index.set_similarity(f, k_n);
    }
}
