//! Section codecs for the snapshot container ([`crate::snapshot`]): the
//! byte form of a data graph (`GRPH`), of an index graph (`INDX`) and of a
//! requirements table (`REQS`). None is a file format on its own — the
//! container frames, checksums and versions them.
//!
//! Layouts (little-endian; a label is `u16` byte length + UTF-8, so a label
//! longer than 65 535 bytes cannot be written):
//!
//! ```text
//! REQS     u32 floor, u32 count, then per entry: label, u32 k
//!          (entries sorted by label)
//! GRPH     magic    b"DKG1"
//!          labels   u32 count, then per label: label (ROOT and VALUE first)
//!          nodes    u32 count, then per node: u32 label id (node 0 is the root)
//!          edges    u32 count, then per edge: u32 from, u32 to,
//!                     u8 kind (0 tree, 1 reference)
//! INDX     labels   u32 count, then per label: label
//!          inodes   u32 count, then per node:
//!                     u32 label, u64 similarity, u32 extent-len, u32 data-node ids
//!          edges    u32 count, then per edge: u32 from, u32 to
//!          root     u32 index node id
//! ```
//!
//! Both writers list their edges child row by child row: nodes in id order,
//! each row's targets in its order. Both readers take edges in any order:
//! each child row keeps its targets in the order they are listed, a
//! repeated edge keeps its first occurrence (and, in `GRPH`, that
//! occurrence's kind), and every parent row is rebuilt ascending. So a
//! payload that lists its edges in another order — one written when `GRPH`
//! still listed edges in insertion order, say — loads to the same rows.
//!
//! Every encoder appends to a `Vec<u8>` and fails only on an over-long
//! label, as an [`io::ErrorKind::InvalidInput`] error. Every decoder reads one
//! whole payload from a [`Cursor`] and returns its reason as a `String`,
//! which the container wraps as a `SnapshotError::Section`; trailing bytes
//! inside a payload are an error. Payloads reach the decoders only after
//! their CRC matched, but the decoders do not lean on that: this module
//! denies clippy's panic lints like the rest of the untrusted-bytes path.
//!
//! The decoders guard only what makes construction safe — every id in
//! range, no allocation sized by an unchecked count: every count is first
//! held against the bytes left in the payload, so a corrupted count fails
//! before anything is sized by it. The graph decoders decode first and
//! build second: [`DataGraph::from_parts`] and
//! `IndexGraph::from_stored_parts` lay each adjacency column out once from
//! the decoded edges. The verdict on an index
//! (extents partition the graph, edges project it, the root is the root) is
//! [`crate::audit::check_structure`]'s, which the snapshot loader runs
//! against the graph it loads alongside before anything uses the index.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type,
    clippy::let_underscore_must_use
)]

use crate::bytes::Cursor;
use crate::index_graph::{IndexGraph, SIM_EXACT};
use crate::requirements::Requirements;
use dkindex_graph::{DataGraph, EdgeKind, LabelId, LabelInterner, LabeledGraph, NodeId};
use std::io;

const GRAPH_MAGIC: [u8; 4] = *b"DKG1";

/// The most a decoder pre-allocates for a column from its count alone: a
/// larger column grows as its entries actually decode. Node labels and
/// index edges are allocated exactly: `take_count` has held their count
/// against the bytes left, and each entry takes no more memory than the
/// payload bytes it decodes from. So are data edges, whose 12 bytes each
/// are at most 4/3 of the 9 payload bytes they decode from, and an extent,
/// which the data graph's node count bounds.
const MAX_PREALLOC: usize = 1 << 16;

// ---- encoding ------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn put_label(out: &mut Vec<u8>, label: &str) -> io::Result<()> {
    let len = u16::try_from(label.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "label of {} bytes exceeds the snapshot format's 65535-byte label limit",
                label.len()
            ),
        )
    })?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(label.as_bytes());
    Ok(())
}

fn put_label_table(out: &mut Vec<u8>, labels: &LabelInterner) -> io::Result<()> {
    put_u32(out, labels.len());
    for (_, name) in labels.iter() {
        put_label(out, name)?;
    }
    Ok(())
}

/// Append the `GRPH` payload of `g`.
pub(crate) fn write_graph(g: &DataGraph, out: &mut Vec<u8>) -> io::Result<()> {
    out.extend_from_slice(&GRAPH_MAGIC);
    put_label_table(out, g.labels())?;
    put_u32(out, g.node_count());
    for n in g.node_ids() {
        put_u32(out, g.label_of(n).index());
    }
    put_u32(out, g.edge_count());
    for (from, to, kind) in g.edges() {
        put_u32(out, from.index());
        put_u32(out, to.index());
        out.push(match kind {
            EdgeKind::Tree => 0,
            EdgeKind::Reference => 1,
        });
    }
    Ok(())
}

/// Append the `INDX` payload of `index` (without its data graph).
pub(crate) fn write_index(index: &IndexGraph, out: &mut Vec<u8>) -> io::Result<()> {
    put_label_table(out, index.labels())?;
    put_u32(out, index.size());
    for inode in index.node_ids() {
        put_u32(out, index.label_of(inode).index());
        out.extend_from_slice(&(index.similarity(inode) as u64).to_le_bytes());
        let extent = index.extent(inode);
        put_u32(out, extent.len());
        for &d in extent {
            put_u32(out, d.index());
        }
    }
    put_u32(out, index.edge_count());
    for (from, to) in index.edges() {
        put_u32(out, from.index());
        put_u32(out, to.index());
    }
    put_u32(out, index.root().index());
    Ok(())
}

/// Append the `REQS` payload of `reqs`.
pub(crate) fn write_requirements(reqs: &Requirements, out: &mut Vec<u8>) -> io::Result<()> {
    put_u32(out, reqs.floor());
    let mut entries: Vec<(&str, usize)> = reqs.iter().collect();
    entries.sort(); // deterministic output
    put_u32(out, entries.len());
    for (label, k) in entries {
        put_label(out, label)?;
        put_u32(out, k);
    }
    Ok(())
}

// ---- decoding ------------------------------------------------------------

fn take_u32(cur: &mut Cursor<'_>, what: &str) -> Result<usize, String> {
    cur.u32_le()
        .map(|v| v as usize)
        .ok_or_else(|| format!("payload ends inside {what}"))
}

/// A count of entries that take at least `min_bytes` each: larger than
/// what the rest of the payload can hold is an error before anything is
/// sized by it.
fn take_count(cur: &mut Cursor<'_>, what: &str, min_bytes: usize) -> Result<usize, String> {
    let count = take_u32(cur, what)?;
    match count.checked_mul(min_bytes) {
        Some(bytes) if bytes <= cur.remaining() => Ok(count),
        _ => Err(format!(
            "{what} {count} needs at least {min_bytes} bytes each, {} remain",
            cur.remaining()
        )),
    }
}

fn take_label<'a>(cur: &mut Cursor<'a>) -> Result<&'a str, String> {
    let len = cur.u16_le().ok_or("payload ends inside a label length")?;
    let bytes = cur.take(usize::from(len)).ok_or("payload ends inside a label")?;
    std::str::from_utf8(bytes).map_err(|_| "label is not UTF-8".to_string())
}

/// A label table: every name must intern to its own position, so `ROOT`
/// and `VALUE` (which every interner starts with) come first and no name
/// repeats.
fn take_label_table(cur: &mut Cursor<'_>) -> Result<LabelInterner, String> {
    let count = take_count(cur, "the label count", 2)?;
    if count < 2 {
        return Err("label table must contain ROOT and VALUE".to_string());
    }
    let mut labels = LabelInterner::new();
    for i in 0..count {
        let name = take_label(cur)?;
        if labels.intern(name).index() != i {
            return Err(format!("label table broken at {name:?}"));
        }
    }
    Ok(labels)
}

fn end_of_payload(cur: &Cursor<'_>) -> Result<(), String> {
    match cur.remaining() {
        0 => Ok(()),
        n => Err(format!("{n} trailing bytes inside the section")),
    }
}

/// Decode a whole `GRPH` payload: labels and the edges first, then one
/// bulk build ([`DataGraph::from_parts`]), which equals adding the nodes and
/// edges one at a time (a repeated edge keeps its first occurrence).
pub(crate) fn read_graph(cur: &mut Cursor<'_>) -> Result<DataGraph, String> {
    if cur.array4() != Some(GRAPH_MAGIC) {
        return Err("bad magic (expected DKG1)".to_string());
    }
    let interner = take_label_table(cur)?;
    let node_count = take_count(cur, "the node count", 4)?;
    if node_count == 0 {
        return Err("graph has no root node".to_string());
    }
    let mut labels = Vec::with_capacity(node_count);
    for i in 0..node_count {
        let label = take_u32(cur, "a node label")?;
        if label >= interner.len() {
            return Err(format!("node {i}: label id {label} out of range"));
        }
        if i == 0 && label != LabelInterner::ROOT.index() {
            return Err("node 0 must carry the ROOT label".to_string());
        }
        labels.push(LabelId::from_index(label));
    }
    let edge_count = take_count(cur, "the edge count", 9)?;
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        let from = take_u32(cur, "an edge")?;
        let to = take_u32(cur, "an edge")?;
        let kind = match cur.u8() {
            Some(0) => EdgeKind::Tree,
            Some(1) => EdgeKind::Reference,
            Some(other) => return Err(format!("unknown edge kind {other}")),
            None => return Err("payload ends inside an edge".to_string()),
        };
        if from >= node_count || to >= node_count {
            return Err("edge endpoint out of range".to_string());
        }
        edges.push((NodeId::from_index(from), NodeId::from_index(to), kind));
    }
    end_of_payload(cur)?;
    Ok(DataGraph::from_parts(interner, labels, &edges))
}

/// Decode a whole `INDX` payload. `data_nodes` is the node count of the data
/// graph the index summarizes (extents must partition exactly that range).
/// Only ranges are checked here: run [`crate::audit::check_structure`]
/// before using the result, as the snapshot loader does.
pub(crate) fn read_index(cur: &mut Cursor<'_>, data_nodes: usize) -> Result<IndexGraph, String> {
    let interner = take_label_table(cur)?;
    let label_count = interner.len();
    let inode_count = take_count(cur, "the index node count", 16)?;
    if inode_count == 0 {
        return Err("index has no nodes".to_string());
    }
    if inode_count > data_nodes {
        return Err("more index nodes than data nodes".to_string());
    }
    let cap = inode_count.min(MAX_PREALLOC);
    let mut labels = Vec::with_capacity(cap);
    let mut sims = Vec::with_capacity(cap);
    let mut extents: Vec<Vec<NodeId>> = Vec::with_capacity(cap);
    for i in 0..inode_count {
        let label = take_u32(cur, "an index node")?;
        if label >= label_count {
            return Err(format!("inode {i}: label out of range"));
        }
        let sim = cur
            .u64_le()
            .ok_or_else(|| format!("inode {i}: payload ends inside the similarity"))?;
        let sim = usize::try_from(sim)
            .ok()
            .filter(|&k| k <= SIM_EXACT)
            .ok_or_else(|| format!("inode {i}: similarity {sim} out of range"))?;
        let len = take_count(cur, "an extent length", 4)?;
        if len > data_nodes {
            return Err(format!("inode {i}: extent larger than data"));
        }
        let mut extent = Vec::with_capacity(len);
        for _ in 0..len {
            let d = take_u32(cur, "an extent")?;
            if d >= data_nodes {
                return Err(format!("inode {i}: extent member out of range"));
            }
            extent.push(NodeId::from_index(d));
        }
        labels.push(LabelId::from_index(label));
        sims.push(sim);
        extents.push(extent);
    }
    let edge_count = take_count(cur, "the index edge count", 8)?;
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        let from = take_u32(cur, "an index edge")?;
        let to = take_u32(cur, "an index edge")?;
        if from >= inode_count || to >= inode_count {
            return Err("index edge out of range".to_string());
        }
        edges.push((NodeId::from_index(from), NodeId::from_index(to)));
    }
    let root = take_u32(cur, "the root")?;
    if root >= inode_count {
        return Err("root index node out of range".to_string());
    }
    end_of_payload(cur)?;
    let root = NodeId::from_index(root);
    Ok(IndexGraph::from_stored_parts(interner, labels, sims, extents, &edges, root, data_nodes))
}

/// Decode a whole `REQS` payload.
pub(crate) fn read_requirements(cur: &mut Cursor<'_>) -> Result<Requirements, String> {
    let floor = take_u32(cur, "the floor")?;
    let mut reqs = Requirements::new();
    reqs.raise_floor(floor);
    let count = take_count(cur, "the entry count", 6)?;
    for _ in 0..count {
        let label = take_label(cur)?;
        let k = take_u32(cur, "an entry")?;
        reqs.raise(label, k);
    }
    end_of_payload(cur)?;
    Ok(reqs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::check_structure;
    use crate::dk::construct::DkIndex;
    use crate::snapshot::snapshot_bytes;
    use proptest::prelude::*;

    fn sample() -> (DataGraph, DkIndex) {
        let mut g = DataGraph::new();
        let d = g.add_labeled_node("director");
        let m = g.add_labeled_node("movie");
        let t = g.add_labeled_node("title");
        let a = g.add_labeled_node("actor");
        let r = g.root();
        g.add_edge(r, d, EdgeKind::Tree);
        g.add_edge(d, m, EdgeKind::Tree);
        g.add_edge(m, t, EdgeKind::Tree);
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, m, EdgeKind::Reference);
        let dk = DkIndex::build(&g, Requirements::from_pairs([("title", 2)]));
        (g, dk)
    }

    fn index_bytes(dk: &DkIndex) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_index(dk.index(), &mut bytes).unwrap();
        bytes
    }

    fn graph_bytes(g: &DataGraph) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_graph(g, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn index_round_trips() {
        let (g, dk) = sample();
        let bytes = index_bytes(&dk);
        let back = read_index(&mut Cursor::new(&bytes), g.node_count()).unwrap();
        check_structure(&back, &g).unwrap();
        assert_eq!(back.size(), dk.size());
        assert!(back.to_partition().same_equivalence(&dk.index().to_partition()));
        for inode in dk.index().node_ids() {
            assert_eq!(back.similarity(inode), dk.index().similarity(inode));
        }
    }

    #[test]
    fn loaded_index_answers_queries() {
        use crate::eval::{evaluate_on_data, IndexEvaluator};
        use dkindex_pathexpr::parse;
        let (g, dk) = sample();
        let bytes = index_bytes(&dk);
        let back = read_index(&mut Cursor::new(&bytes), g.node_count()).unwrap();
        for q in ["director.movie.title", "actor.movie", "movie.title"] {
            let e = parse(q).unwrap();
            let out = IndexEvaluator::new(&back, &g).evaluate(&e);
            assert_eq!(out.matches, evaluate_on_data(&g, &e).0, "{q}");
        }
    }

    #[test]
    fn corrupted_extent_is_rejected() {
        let (g, dk) = sample();
        let bytes = index_bytes(&dk);
        // Flip each late byte (extents, edges, root) — robustness: corruption
        // must never produce a silently-wrong index.
        let mut corrupted = 0;
        for i in (bytes.len() - 40)..bytes.len() {
            let mut copy = bytes.clone();
            copy[i] ^= 0xFF;
            let loaded = read_index(&mut Cursor::new(&copy), g.node_count());
            if loaded.map_or(true, |index| check_structure(&index, &g).is_err()) {
                corrupted += 1;
            }
        }
        assert!(corrupted > 30, "most corruptions must be detected");
    }

    #[test]
    fn every_payload_rejects_truncation_and_trailing_bytes() {
        let (g, dk) = sample();
        let mut reqs = Vec::new();
        write_requirements(dk.requirements(), &mut reqs).unwrap();
        let payloads = [graph_bytes(&g), index_bytes(&dk), reqs];
        for (which, bytes) in payloads.iter().enumerate() {
            let decode = |bytes: &[u8]| {
                let cur = &mut Cursor::new(bytes);
                match which {
                    0 => read_graph(cur).map(drop),
                    1 => read_index(cur, g.node_count()).map(drop),
                    _ => read_requirements(cur).map(drop),
                }
            };
            decode(bytes).unwrap();
            assert!(decode(&bytes[..bytes.len() - 1]).is_err(), "payload {which} truncated");
            let mut longer = bytes.clone();
            longer.push(0);
            let err = decode(&longer).unwrap_err();
            assert!(err.contains("trailing"), "payload {which}: {err}");
        }
    }

    #[test]
    fn graph_round_trips() {
        let (g, _) = sample();
        let back = read_graph(&mut Cursor::new(&graph_bytes(&g))).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert!(back.edges().eq(g.edges()));
        for n in g.node_ids() {
            assert_eq!(back.label_name(n), g.label_name(n));
        }
        let mut bad = graph_bytes(&g);
        bad[0] = b'X';
        assert!(read_graph(&mut Cursor::new(&bad)).unwrap_err().contains("magic"));
    }

    #[test]
    fn requirements_round_trip_including_floor() {
        let mut reqs = Requirements::from_pairs([("a", 3), ("b", 1)]);
        reqs.raise_floor(1);
        let mut bytes = Vec::new();
        write_requirements(&reqs, &mut bytes).unwrap();
        let back = read_requirements(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(back, reqs);
    }

    /// The label table of the decoders' fixtures: ROOT, VALUE, a, b, c.
    fn names() -> LabelInterner {
        let mut names = LabelInterner::new();
        for name in ["a", "b", "c"] {
            names.intern(name);
        }
        names
    }

    /// A `GRPH` payload written field by field — so it may hold what
    /// `write_graph` never writes: repeated edges.
    fn raw_graph(labels: &[usize], edges: &[(usize, usize, EdgeKind)]) -> Vec<u8> {
        let mut out = GRAPH_MAGIC.to_vec();
        put_label_table(&mut out, &names()).unwrap();
        put_u32(&mut out, labels.len());
        for &label in labels {
            put_u32(&mut out, label);
        }
        put_u32(&mut out, edges.len());
        for &(from, to, kind) in edges {
            put_u32(&mut out, from);
            put_u32(&mut out, to);
            out.push(u8::from(kind == EdgeKind::Reference));
        }
        out
    }

    /// An `INDX` payload over `n` one-member extents (inode `i` holds data
    /// node `i`), its edges written as given, repeats included.
    fn raw_index(n: usize, edges: &[(usize, usize)]) -> Vec<u8> {
        let mut out = Vec::new();
        put_label_table(&mut out, &names()).unwrap();
        put_u32(&mut out, n);
        for i in 0..n {
            put_u32(&mut out, usize::from(i != 0) * 2); // ROOT, then a
            out.extend_from_slice(&0u64.to_le_bytes());
            put_u32(&mut out, 1);
            put_u32(&mut out, i);
        }
        put_u32(&mut out, edges.len());
        for &(from, to) in edges {
            put_u32(&mut out, from);
            put_u32(&mut out, to);
        }
        put_u32(&mut out, 0);
        out
    }

    /// A count field of 2³²−1 followed by a few bytes fails at the count:
    /// the error names the claim, so nothing was sized by it.
    #[test]
    fn a_count_larger_than_the_payload_fails_before_anything_is_sized_by_it() {
        const CLAIM: [u8; 4] = u32::MAX.to_le_bytes();
        let mut node_count = GRAPH_MAGIC.to_vec();
        put_label_table(&mut node_count, &names()).unwrap();
        let mut edge_count = node_count.clone();
        node_count.extend_from_slice(&CLAIM);
        node_count.extend_from_slice(&[0; 6]);
        put_u32(&mut edge_count, 1);
        put_u32(&mut edge_count, 0);
        edge_count.extend_from_slice(&CLAIM);
        edge_count.extend_from_slice(&[0; 9]);

        let mut inode_count = Vec::new();
        put_label_table(&mut inode_count, &names()).unwrap();
        inode_count.extend_from_slice(&CLAIM);
        inode_count.extend_from_slice(&[0; 16]);
        let mut index_edge_count = raw_index(1, &[]);
        let edges_at = index_edge_count.len() - 8; // edge count, root
        index_edge_count.truncate(edges_at);
        index_edge_count.extend_from_slice(&CLAIM);
        index_edge_count.extend_from_slice(&[0; 12]);

        let cases = [
            (read_graph(&mut Cursor::new(&node_count)).map(drop), "the node count"),
            (read_graph(&mut Cursor::new(&edge_count)).map(drop), "the edge count"),
            (
                read_index(&mut Cursor::new(&inode_count), u32::MAX as usize).map(drop),
                "the index node count",
            ),
            (read_index(&mut Cursor::new(&index_edge_count), 1).map(drop), "the index edge count"),
        ];
        for (outcome, what) in cases {
            let err = outcome.unwrap_err();
            assert!(err.starts_with(&format!("{what} 4294967295 needs")), "{what}: {err}");
        }
    }

    /// A node count on or off a 64-row segment boundary, one label per
    /// node, and an edge list holding repeats of both kinds and self-loops
    /// (few edges over many nodes leave some isolated).
    fn graph_input() -> impl Strategy<Value = (Vec<usize>, Vec<(usize, usize, EdgeKind)>)> {
        let index = any::<prop::sample::Index>;
        let edge = (index(), index(), any::<bool>());
        (
            prop::sample::select(vec![1, 2, 63, 64, 65, 127, 128, 129, 192]),
            prop::collection::vec(1usize..5, 191),
            prop::collection::vec(edge, 0..160),
            prop::collection::vec((index(), any::<bool>()), 0..40),
            prop::collection::vec(index(), 0..6),
        )
            .prop_map(|(n, labels, fresh, repeats, loops)| {
                let kind = |reference: bool| {
                    [EdgeKind::Tree, EdgeKind::Reference][usize::from(reference)]
                };
                let labels = std::iter::once(0).chain(labels).take(n).collect();
                let mut edges: Vec<_> =
                    fresh.iter().map(|(f, t, r)| (f.index(n), t.index(n), kind(*r))).collect();
                edges.extend(loops.iter().map(|i| (i.index(n), i.index(n), EdgeKind::Tree)));
                for (at, reference) in repeats {
                    if let Some(&(from, to, _)) = edges.get(at.index(edges.len().max(1))) {
                        edges.push((from, to, kind(reference)));
                    }
                }
                (labels, edges)
            })
    }

    fn incremental(labels: &[usize], edges: &[(usize, usize, EdgeKind)]) -> DataGraph {
        let mut g = DataGraph::new();
        for (_, name) in names().iter() {
            g.intern(name);
        }
        for &label in &labels[1..] {
            g.add_node(LabelId::from_index(label));
        }
        for &(from, to, kind) in edges {
            g.add_edge(NodeId::from_index(from), NodeId::from_index(to), kind);
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `read_graph`'s bulk build equals `add_node` / `add_edge` over the
        /// same input: labels, every row in order, every edge with its
        /// kind, `has_edge`, and the snapshot bytes.
        #[test]
        fn the_bulk_graph_load_equals_the_incremental_build(input in graph_input()) {
            let (labels, edges) = input;
            let bulk = read_graph(&mut Cursor::new(&raw_graph(&labels, &edges)))
                .map_err(TestCaseError::fail)?;
            let want = incremental(&labels, &edges);
            prop_assert_eq!(bulk.node_count(), want.node_count());
            for n in want.node_ids() {
                prop_assert_eq!(bulk.label_of(n), want.label_of(n));
                prop_assert_eq!(bulk.children_of(n), want.children_of(n));
                prop_assert_eq!(bulk.parents_of(n), want.parents_of(n));
                for m in want.node_ids() {
                    prop_assert_eq!(bulk.has_edge(n, m), want.has_edge(n, m));
                }
            }
            prop_assert!(bulk.edges().eq(want.edges()));
            let bytes =
                |g: &DataGraph| snapshot_bytes(&DkIndex::build(g, Requirements::uniform(1)), g);
            prop_assert_eq!(bytes(&bulk), bytes(&want));
        }

        /// `read_index`'s bulk edges equal `add_index_edge` over the stored
        /// list: child rows in stored order minus repeats, parent rows
        /// ascending, the same edge count.
        #[test]
        fn the_bulk_index_load_equals_add_index_edge(
            n in prop::sample::select(vec![1, 63, 64, 65, 128, 150]),
            raw in prop::collection::vec(
                (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
                0..300,
            ),
        ) {
            let edges: Vec<(usize, usize)> =
                raw.iter().map(|(f, t)| (f.index(n), t.index(n))).collect();
            let bulk = read_index(&mut Cursor::new(&raw_index(n, &edges)), n)
                .map_err(TestCaseError::fail)?;
            let mut want = read_index(&mut Cursor::new(&raw_index(n, &[])), n)
                .map_err(TestCaseError::fail)?;
            for &(from, to) in &edges {
                want.add_index_edge(NodeId::from_index(from), NodeId::from_index(to));
            }
            prop_assert_eq!(bulk.edge_count(), want.edge_count());
            for i in want.node_ids() {
                prop_assert_eq!(bulk.children_of(i), want.children_of(i));
                prop_assert_eq!(bulk.parents_of(i), want.parents_of(i));
                prop_assert!(bulk.parents_of(i).windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    /// Two nested rows 2¹⁷ wide in one segment, the inner one filled first:
    /// appended one edge at a time, every edge of the outer row would move
    /// the inner row's targets (O(fan-out²)). The loader lays the rows out
    /// once, so the snapshot loads in linear time. The input is built with
    /// the bulk constructor, never through the quadratic path.
    #[test]
    fn nested_wide_rows_load_in_linear_time() {
        const WIDE: usize = 1 << 17;
        let mut names = LabelInterner::new();
        let [outer, inner, leaf] = ["outer", "inner", "leaf"].map(|name| names.intern(name));
        let mut labels = vec![LabelInterner::ROOT, outer, inner];
        labels.resize(3 + 2 * WIDE, leaf);
        let node = NodeId::from_index;
        let mut edges = Vec::new();
        edges.push((node(0), node(1), EdgeKind::Tree));
        edges.push((node(1), node(2), EdgeKind::Tree));
        edges.extend((3..3 + WIDE).map(|i| (node(2), node(i), EdgeKind::Tree)));
        edges.extend((3 + WIDE..3 + 2 * WIDE).map(|i| (node(1), node(i), EdgeKind::Tree)));
        let g = DataGraph::from_parts(names, labels, &edges);
        let dk = DkIndex::build(&g, Requirements::uniform(0));

        let (_, back) = crate::snapshot::read_snapshot(&snapshot_bytes(&dk, &g)).unwrap();
        assert_eq!(back.children_of(node(1)).len(), WIDE + 1);
        assert_eq!(back.children_of(node(2)).len(), WIDE);
        assert_eq!(back.children_of(node(1))[1], node(3 + WIDE));
        assert!(back.edges().eq(g.edges()));
    }

    /// XML names have no length cap, but a label is `u16`-length-prefixed:
    /// the encoder refuses it as `InvalidInput` rather than truncating.
    #[test]
    fn an_over_long_label_is_invalid_input() {
        let mut g = DataGraph::new();
        g.add_labeled_node(&"a".repeat(70_000));
        let err = write_graph(&g, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("65535-byte label limit"), "{err}");
    }
}
