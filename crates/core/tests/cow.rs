//! Structural-sharing (copy-on-write) properties of the delta-epoch
//! storage:
//!
//! * **Byte identity**: every epoch in a COW chain — each state cloned from
//!   its predecessor and batch-mutated — serializes byte-identically to a
//!   from-scratch serial replay of the same op prefix. Sharing is a
//!   representation change, never an answer change.
//! * **Sharing actually happens**, stated per storage unit of the index
//!   graph: a segment (64 rows) of the extent, child or parent column is
//!   pointer-shared with the predecessor epoch iff the batch left its rows
//!   alone, and a flat column (labels, similarities, node map) iff the
//!   batch changed none of its values. An edge update copies no extent segment; a split copies
//!   the segment of the split row and that of the new row. A regression
//!   back to full deep clones fails these tests. On the data graph, an edge
//!   update copies exactly the segments of the rows it writes — `from`'s
//!   child row and `to`'s parent row, and for a reference edge `from`'s
//!   reference row — never the label column, which only `add_node` copies.
//! * Both properties hold through the real `DkServer` publish path, not
//!   just hand-rolled clones.

use dkindex_core::serve::{apply_serial, DkServer, ServeConfig, ServeOp};
use dkindex_core::{
    check_structure, read_snapshot, snapshot_bytes, DkIndex, IndexGraph, Requirements,
};
use dkindex_graph::ColumnCensus;
use dkindex_datagen::{random_graph, RandomGraphConfig};
use dkindex_graph::segcsr::SEG_SIZE;
use dkindex_graph::{DataGraph, EdgeKind, LabeledGraph, NodeId};
use dkindex_workload::generate_update_edges;

fn fixture() -> (DataGraph, DkIndex, Vec<ServeOp>) {
    let g = random_graph(&RandomGraphConfig {
        nodes: 300,
        labels: 6,
        reference_edges: 30,
        max_fanout: 6,
        seed: 0xC0117,
    });
    let dk = DkIndex::build(&g, Requirements::uniform(2));
    let ops = generate_update_edges(&g, 24, 11)
        .into_iter()
        .map(|(from, to)| ServeOp::AddEdge { from, to })
        .collect();
    (g, dk, ops)
}

/// The sharing contract between a predecessor snapshot and its successor,
/// per storage unit: a segment of each row column, and each flat column,
/// is pointer-shared exactly when its contents are unchanged — shared but
/// changed is COW unsoundness, unchanged but copied a regression to full
/// clones. A shared unit is one allocation, so it reads the same in both
/// snapshots: the census's copies that changed nothing are the whole
/// contract.
fn assert_sharing_contract(prev: &IndexGraph, next: &IndexGraph, what: &str) {
    for (column, census) in IndexGraph::CENSUS_COLUMNS.iter().zip(next.census_with(prev)) {
        assert_eq!(
            census.copied_unchanged, 0,
            "{what}: the {column} column copied storage whose rows did not change"
        );
    }
}

/// True when every column of `census` is still wholly shared.
fn shares_everything(census: &[ColumnCensus]) -> bool {
    census.iter().all(|c| c.shared == c.rows)
}

/// True when both data graphs still hold one label column allocation.
fn shares_labels(next: &DataGraph, prev: &DataGraph) -> bool {
    let [labels, ..] = next.census_with(prev);
    labels.shared == labels.rows
}

/// A fresh clone shares every column and every segment; mutating the clone
/// never disturbs the original.
#[test]
fn clone_shares_everything_until_mutated() {
    let (g, dk, _) = fixture();
    let dk2 = dk.clone();
    let g2 = g.clone();

    let (shared, rebuilt) = dk2.index().shared_blocks_with(dk.index());
    assert_eq!(shared, dk.index().size());
    assert_eq!(rebuilt, 0);
    assert!(shares_everything(&g2.census_with(&g)));
    assert!(shares_everything(&dk2.index().census_with(dk.index())));

    assert_eq!(
        snapshot_bytes(&dk2, &g2),
        snapshot_bytes(&dk, &g),
        "shallow clones must serialize identically"
    );
}

/// One edge update writes similarities and edges alone: every extent
/// segment stays pointer-shared with the pre-update snapshot, and so does
/// everything else whose contents the update left alone; the mutated clone
/// serializes exactly like a serial application of the same op.
#[test]
fn single_edge_update_shares_untouched_storage() {
    let (g, dk, ops) = fixture();
    let op = &ops[..1];

    let mut next_dk = dk.clone();
    let mut next_g = g.clone();
    apply_serial(&mut next_dk, &mut next_g, op);

    let (shared, rebuilt) = next_dk.index().shared_blocks_with(dk.index());
    assert_eq!((shared, rebuilt), (dk.index().size(), 0), "an edge update copies no extent");
    assert_sharing_contract(dk.index(), next_dk.index(), "single edge");

    // Byte identity against an independent replay from the same base.
    let mut replay_dk = dk.clone();
    let mut replay_g = g.clone();
    apply_serial(&mut replay_dk, &mut replay_g, op);
    assert_eq!(snapshot_bytes(&next_dk, &next_g), snapshot_bytes(&replay_dk, &replay_g));

    // The pre-update snapshot is untouched by the clone's mutation.
    check_structure(dk.index(), &g).unwrap();
}

/// The data-graph rows an added edge of `kind` copies, per column in
/// [`DataGraph::CENSUS_COLUMNS`] order: the segment of `from`'s child row
/// and of `to`'s parent row, and for a reference edge the segment of
/// `from`'s reference row. Each sits in its own column, so they never
/// coincide, and the label column is not written.
fn copied_rows(g: &DataGraph, from: NodeId, to: NodeId, kind: EdgeKind) -> [usize; 4] {
    let segment = |n: NodeId| (g.node_count() - n.index() / SEG_SIZE * SEG_SIZE).min(SEG_SIZE);
    let references = match kind {
        EdgeKind::Tree => 0,
        EdgeKind::Reference => segment(from),
    };
    [0, segment(from), segment(to), references]
}

/// One edge update unshares exactly the data-graph segments of the rows it
/// writes — at most three — on a built state and on a snapshot-loaded one
/// (whose columns are bulk-built), for a tree and for a reference edge,
/// added directly or as a served update (`apply_serial` adds references).
/// Every other segment and the label column stay pointer-shared.
#[test]
fn an_edge_update_unshares_exactly_the_data_segments_of_its_rows() {
    let (built, dk, ops) = fixture();
    let (_, loaded) = read_snapshot(&snapshot_bytes(&dk, &built)).unwrap();
    for (state, g) in [("built", &built), ("loaded", &loaded)] {
        for op in &ops {
            let ServeOp::AddEdge { from, to } = *op else { unreachable!() };
            for kind in [EdgeKind::Tree, EdgeKind::Reference] {
                let mut next_g = g.clone();
                assert!(next_g.add_edge(from, to, kind), "{op:?} is a new edge");
                let copied = next_g.census_with(g).map(|c| c.copied());
                assert_eq!(copied, copied_rows(g, from, to, kind), "{state}: {kind:?} {op:?}");
            }
            let mut next_dk = dk.clone();
            let mut next_g = g.clone();
            apply_serial(&mut next_dk, &mut next_g, std::slice::from_ref(op));
            let copied = next_g.census_with(g).map(|c| c.copied());
            assert_eq!(copied, copied_rows(g, from, to, EdgeKind::Reference), "{state}: {op:?}");
        }
    }
}

/// The same contract through the publish path of a server started from a
/// snapshot loaded by `read_snapshot`: each `AddEdge` publish keeps the
/// data graph's label column shared, copies exactly the three data
/// segments of the reference edge it adds, at most one segment of each
/// index adjacency column and no other index column but the similarities,
/// and nothing whose rows did not change.
#[test]
fn an_edge_publish_on_a_loaded_state_copies_only_the_rows_it_writes() {
    let (g, dk, ops) = fixture();
    let (dk, g) = read_snapshot(&snapshot_bytes(&dk, &g)).unwrap();
    let server = DkServer::start(g, dk, ServeConfig::default());
    let handle = server.handle();
    let mut prev = handle.epoch();
    let mut wrote = 0;
    for op in &ops {
        let ServeOp::AddEdge { from, to } = *op else { unreachable!() };
        server.submit(op.clone()).unwrap();
        server.flush().unwrap();
        let next = handle.epoch();
        let added = next.data().edge_count() - prev.data().edge_count();
        let data = next.data().census_with(prev.data()).map(|c| c.copied());
        let want = match added {
            0 => [0; 4],
            _ => copied_rows(prev.data(), from, to, EdgeKind::Reference),
        };
        assert_eq!(data, want, "{op:?} copied {data:?} data rows");
        let (next_index, prev_index) = (next.index().index(), prev.index().index());
        let index = next_index.census_with(prev_index).map(|c| c.copied());
        let [labels, _, map, extents, children, parents] = index;
        assert_eq!([labels, map, extents], [0; 3], "{op:?} copied {index:?} index rows");
        assert!(children <= SEG_SIZE && parents <= SEG_SIZE, "{op:?} copied {index:?} index rows");
        assert_sharing_contract(prev_index, next_index, &format!("{op:?}"));
        wrote += added;
        prev = next;
    }
    assert!(wrote > 0, "no publish wrote the data graph");
    server.shutdown().unwrap();
}

/// `add_node` is the one write to the data graph's label column: on a clone
/// it copies the column once, and the original keeps its own.
#[test]
fn add_node_on_a_clone_copies_the_label_column_and_leaves_the_original() {
    let (g, _, _) = fixture();
    let mut h = g.clone();
    let (root, first) = (h.root(), NodeId::from_index(1));
    h.add_edge(first, root, EdgeKind::Reference);
    assert!(shares_labels(&h, &g), "an edge write copied the label column");
    let label = h.label_of(first);
    let added = h.add_node(label);
    assert!(!shares_labels(&h, &g));
    assert_eq!((g.node_count(), h.node_count()), (added.index(), added.index() + 1));
    assert_eq!(h.label_of(added), label);
    assert!(g.node_ids().all(|n| g.label_of(n) == h.label_of(n)));
    let copy = h.clone();
    h.add_edge(root, added, EdgeKind::Tree);
    assert!(shares_labels(&h, &copy), "only add_node copies the column");
}

/// An edge update that inserts an index edge writes one child row and one
/// parent row: it copies at most those two adjacency segments and no
/// extent segment. An update whose index edge already exists copies no
/// segment.
#[test]
fn an_index_edge_insert_copies_two_segments_and_no_untouched_block() {
    let (g, dk, ops) = fixture();
    let mut inserted = 0;
    for op in &ops {
        let mut next_dk = dk.clone();
        let mut next_g = g.clone();
        apply_serial(&mut next_dk, &mut next_g, std::slice::from_ref(op));
        let (prev, next) = (dk.index(), next_dk.index());
        assert_sharing_contract(prev, next, &format!("{op:?}"));
        assert_eq!(next.shared_blocks_with(prev), (prev.size(), 0), "{op:?} copied an extent");
        let [.., children, parents] = next.census_with(prev).map(|c| c.copied());
        if next.edge_count() > prev.edge_count() {
            inserted += 1;
            let one_segment = 1..=SEG_SIZE;
            assert!(
                one_segment.contains(&children) && one_segment.contains(&parents),
                "{op:?} copied {children} child and {parents} parent rows"
            );
        } else {
            assert_eq!([children, parents], [0, 0], "{op:?} inserted no index edge");
        }
    }
    assert!(inserted > 0, "the fixture must insert some index edge");
}

/// A split rewrites one extent row and pushes another: it copies the
/// extent segment of each (one segment when they share it) and keeps every
/// other extent segment shared, and the older snapshot keeps its rows.
#[test]
fn a_split_copies_the_extent_segments_of_its_two_rows() {
    let (g, dk, _) = fixture();
    let prev = dk.index();
    let mut splits = 0;
    for target in prev.node_ids().filter(|&i| prev.extent(i).len() > 1) {
        let mut next = prev.clone();
        let moved = &prev.extent(target)[1..];
        let fresh = next.split_extent(target, moved, 0, &g);
        let copied = [target.index() / SEG_SIZE, fresh.index() / SEG_SIZE];
        // The new row's segment holds no row of `prev` when it is fresh.
        let rows_of = |seg: usize| prev.size().saturating_sub(seg * SEG_SIZE).min(SEG_SIZE);
        let lost = match copied[0] == copied[1] {
            true => rows_of(copied[0]),
            false => rows_of(copied[0]) + rows_of(copied[1]),
        };
        assert_eq!(next.shared_blocks_with(prev), (prev.size() - lost, lost + 1), "{target:?}");
        assert_eq!(next.extent(fresh), moved);
        assert_eq!(next.extent(target), &prev.extent(target)[..1]);
        assert_sharing_contract(prev, &next, &format!("split of {target:?}"));
        splits += 1;
    }
    assert!(splits > 1, "the fixture must have blocks to split");
    check_structure(prev, &g).unwrap();
}

/// A chain of COW epochs — each built by cloning its predecessor and
/// applying one batch — is byte-identical at every link to a from-scratch
/// serial replay of the corresponding op prefix, and every link honors the
/// sharing contract with its predecessor.
#[test]
fn cow_chain_is_byte_identical_to_serial_replay() {
    let (g, dk, ops) = fixture();
    const BATCH: usize = 4;

    let mut chain_dk = dk.clone();
    let mut chain_g = g.clone();
    let mut applied = 0usize;
    for batch in ops.chunks(BATCH) {
        let prev_dk = chain_dk.clone();
        apply_serial(&mut chain_dk, &mut chain_g, batch);
        applied += batch.len();

        // (a) Byte identity: replay the prefix from scratch.
        let mut replay_dk = dk.clone();
        let mut replay_g = g.clone();
        apply_serial(&mut replay_dk, &mut replay_g, &ops[..applied]);
        assert_eq!(
            snapshot_bytes(&chain_dk, &chain_g),
            snapshot_bytes(&replay_dk, &replay_g),
            "chain diverged from serial replay after {applied} ops"
        );

        // (b) Sharing: the new link shares with its predecessor.
        let (shared, _) = chain_dk.index().shared_blocks_with(prev_dk.index());
        assert!(shared > 0, "batch ending at {applied} copied every extent segment");
        assert_sharing_contract(
            prev_dk.index(),
            chain_dk.index(),
            &format!("chain batch ending at {applied}"),
        );
    }
    check_structure(chain_dk.index(), &chain_g).unwrap();
}

/// The same two properties through the real publish path: epochs published
/// by `DkServer` share untouched storage with their predecessors (readers
/// holding the old `Arc<Epoch>` keep their snapshot), and the final state
/// is byte-identical to the serial oracle.
#[test]
fn server_publishes_delta_epochs() {
    let (g, dk, ops) = fixture();

    let mut serial_dk = dk.clone();
    let mut serial_g = g.clone();
    apply_serial(&mut serial_dk, &mut serial_g, &ops);
    let expected = snapshot_bytes(&serial_dk, &serial_g);

    let server = DkServer::start(
        g,
        dk,
        ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();

    let mut prev = handle.epoch();
    for batch in ops.chunks(8) {
        for op in batch {
            server.submit(op.clone()).unwrap();
        }
        server.flush().unwrap();
        let next = handle.epoch();
        assert!(next.id() > prev.id(), "flush must have published");

        let (shared, rebuilt) = next.index().index().shared_blocks_with(prev.index().index());
        assert!(
            shared > 0,
            "publish {} rebuilt all {} blocks — not a delta epoch",
            next.id(),
            shared + rebuilt
        );
        assert_sharing_contract(
            prev.index().index(),
            next.index().index(),
            &format!("publish {}", next.id()),
        );
        // The superseded epoch still answers from an intact snapshot.
        check_structure(prev.index().index(), prev.data()).unwrap();
        prev = next;
    }

    let (final_dk, final_g) = server.shutdown().unwrap();
    assert_eq!(
        snapshot_bytes(&final_dk, &final_g),
        expected,
        "delta-epoch serve run diverged from the serial oracle"
    );
}
