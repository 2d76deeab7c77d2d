//! The uninstrumented D(k) construction oracle.
//!
//! This module is the baseline that certifies the engine-backed construction
//! ([`crate::dk::construct::dk_partition_with_options`]): equivalence tests
//! demand byte-identical partitions from both. For that comparison to mean
//! anything, the oracle must stay independent of what it checks — it is
//! forbidden (and `dkindex-analyze` enforces) from touching `RefineEngine`
//! or `dkindex_telemetry`. It pays one allocation per node per round
//! ([`dkindex_partition::refine_round_selective`] hashes freshly-built
//! signature vectors).

use crate::dk::broadcast::broadcast_requirements;
use crate::requirements::Requirements;
use dkindex_graph::LabeledGraph;
use dkindex_partition::Partition;

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
