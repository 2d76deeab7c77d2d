//! Section codecs for the snapshot container ([`crate::snapshot`]): the
//! byte form of a data graph (`GRPH`), of an index graph (`INDX`) and of a
//! requirements table (`REQS`). None is a file format on its own — the
//! container frames, checksums and versions them.
//!
//! Layouts (little-endian). A section is its structure's columns, on disk
//! as in memory:
//!
//! ```text
//! name     u32 byte length, then UTF-8 (no length limit)
//! table    u32 count, then count × name (ROOT and VALUE first)
//! rows     u32 len (the column's length), then one u32 row end per row
//!          (ascending, the last one len), then len × u32 target, row by row
//!
//! REQS     u32 floor, u32 count, then per entry: name, u32 k
//!          (entries sorted by name: the WAL's requirements bytes)
//! GRPH     magic     b"DKG2"
//!          labels    table
//!          nodes     u32 n, then n × u32 label id (node 0 is the root)
//!          children  rows over the n nodes, each in insertion order
//!          kinds     ⌈len / 8⌉ bytes: bit i (least significant first) is set
//!                    when child slot i is a reference edge; padding bits 0
//! INDX     labels    table
//!          blocks    u32 b, then b × u32 label id, then b × u64 similarity
//!          extents   rows over the b blocks: each block's data nodes,
//!                    ascending
//!          children  rows over the b blocks
//!          root      u32 block id
//! ```
//!
//! Parent rows are not stored: the loader rebuilds them ascending by one
//! counting transpose of the child rows.
//!
//! Every encoder appends to a `Vec<u8>` and cannot fail, and each section
//! has a length function that gives its encoder's byte count by arithmetic
//! over the columns, so the container sizes its buffers exactly before it
//! encodes into them. Every decoder reads
//! one whole payload and returns its reason as a `String`, which the
//! container wraps as a `SnapshotError::Section`; trailing bytes inside a
//! payload are an error. Payloads reach the decoders only after their CRC
//! matched, but the decoders do not lean on that: this module denies
//! clippy's panic lints like the rest of the untrusted-bytes path.
//!
//! Decoding reads each column straight from the payload, every count first
//! held against the bytes left, so a corrupted count fails before anything
//! is sized by it. The builders validate the columns as they copy them in,
//! one pass per column: [`SegCsr::from_rows`] checks that row ends ascend
//! and end at the column's length, [`DataGraph::from_rows`] and
//! `IndexGraph::from_stored_columns` that labels and targets are in range,
//! that no row repeats a target, and that each extent ascends. The verdict
//! on an index (extents partition the data nodes, edges project the graph,
//! the root is the root, …) is [`crate::audit::check_structure`]'s, which
//! the snapshot loader runs against the graph it loads alongside before
//! anything uses the index.

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
use dkindex_graph::{DataGraph, EdgeKind, LabelId, LabelInterner, LabeledGraph, NodeId, SegCsr};

const GRAPH_MAGIC: [u8; 4] = *b"DKG2";

// ---- encoding ------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

/// A name: the one label encoding of both formats (DKSN tables, DKWL
/// requirements).
fn put_name(out: &mut Vec<u8>, name: &str) {
    put_u32(out, name.len());
    out.extend_from_slice(name.as_bytes());
}

fn put_label_table(out: &mut Vec<u8>, labels: &LabelInterner) {
    put_u32(out, labels.len());
    for (_, name) in labels.iter() {
        put_name(out, name);
    }
}

/// Bytes of a label table.
fn label_table_len(labels: &LabelInterner) -> usize {
    4 + labels.iter().map(|(_, name)| 4 + name.len()).sum::<usize>()
}

/// A rows column of `len` targets: its length, each row's end, then the
/// `targets`, row by row.
fn put_rows<'a>(
    out: &mut Vec<u8>,
    len: usize,
    rows: impl Iterator<Item = &'a [NodeId]>,
    targets: impl Iterator<Item = NodeId>,
) {
    put_u32(out, len);
    let mut end = 0;
    for row in rows {
        end += row.len();
        put_u32(out, end);
    }
    for target in targets {
        put_u32(out, target.index());
    }
}

/// Bytes of a rows column of `len` targets over `rows` rows.
fn rows_len(rows: usize, len: usize) -> usize {
    4 * (1 + rows + len)
}

/// Append the `GRPH` payload of `g`. The kind bits are set as the targets
/// are written.
pub(crate) fn write_graph(g: &DataGraph, out: &mut Vec<u8>) {
    out.extend_from_slice(&GRAPH_MAGIC);
    put_label_table(out, g.labels());
    put_u32(out, g.node_count());
    for n in g.node_ids() {
        put_u32(out, g.label_of(n).index());
    }
    let mut kinds = vec![0u8; g.edge_count().div_ceil(8)];
    let targets = g.edges().enumerate().map(|(slot, (_, to, kind))| {
        if let (EdgeKind::Reference, Some(byte)) = (kind, kinds.get_mut(slot / 8)) {
            *byte |= 1 << (slot % 8);
        }
        to
    });
    put_rows(out, g.edge_count(), g.node_ids().map(|n| g.children_of(n)), targets);
    out.extend_from_slice(&kinds);
}

/// Bytes [`write_graph`] appends for `g`: magic, labels, the label
/// column, the child rows and the kind bits.
pub(crate) fn graph_len(g: &DataGraph) -> usize {
    let (nodes, edges) = (g.node_count(), g.edge_count());
    GRAPH_MAGIC.len()
        + label_table_len(g.labels())
        + 4 * (1 + nodes)
        + rows_len(nodes, edges)
        + edges.div_ceil(8)
}

/// Append the `INDX` payload of `index` (without its data graph).
pub(crate) fn write_index(index: &IndexGraph, out: &mut Vec<u8>) {
    put_label_table(out, index.labels());
    put_u32(out, index.size());
    for block in index.node_ids() {
        put_u32(out, index.label_of(block).index());
    }
    for block in index.node_ids() {
        out.extend_from_slice(&(index.similarity(block) as u64).to_le_bytes());
    }
    let extents = index.node_ids().map(|block| index.extent(block));
    put_rows(out, index.total_extent_size(), extents.clone(), extents.flatten().copied());
    let children = index.node_ids().map(|block| index.children_of(block));
    put_rows(out, index.edge_count(), children.clone(), children.flatten().copied());
    put_u32(out, index.root().index());
}

/// Bytes [`write_index`] appends for `index`: labels, similarities, the
/// two columns and the root.
pub(crate) fn index_len(index: &IndexGraph) -> usize {
    let blocks = index.size();
    label_table_len(index.labels())
        + 4 * (1 + blocks)
        + 8 * blocks
        + rows_len(blocks, index.total_extent_size())
        + rows_len(blocks, index.edge_count())
        + 4
}

/// Append the requirements table `reqs`: the `REQS` payload, and the body
/// of the WAL's requirement records.
pub(crate) fn write_requirements(reqs: &Requirements, out: &mut Vec<u8>) {
    put_u32(out, reqs.floor());
    let mut entries: Vec<(&str, usize)> = reqs.iter().collect();
    entries.sort(); // deterministic output
    put_u32(out, entries.len());
    for (label, k) in entries {
        put_name(out, label);
        put_u32(out, k);
    }
}

/// Bytes [`write_requirements`] appends for `reqs`.
pub(crate) fn requirements_len(reqs: &Requirements) -> usize {
    8 + reqs.iter().map(|(label, _)| 4 + label.len() + 4).sum::<usize>()
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

/// `n` little-endian `u32`s.
fn take_words<'a>(
    cur: &mut Cursor<'a>,
    n: usize,
    what: &str,
) -> Result<impl ExactSizeIterator<Item = u32> + Clone + 'a, String> {
    let bytes = n.checked_mul(4).and_then(|len| cur.take(len));
    let bytes = bytes.ok_or_else(|| format!("payload ends inside {what}"))?;
    Ok(bytes.as_chunks::<4>().0.iter().map(|word| u32::from_le_bytes(*word)))
}

/// A rows column over `rows` rows, read straight from the payload into a
/// [`SegCsr`], which checks that the row ends ascend to the column's
/// length; the rules of what the rows hold are their builder's.
fn take_column(cur: &mut Cursor<'_>, rows: usize, what: &str) -> Result<SegCsr, String> {
    let len = take_count(cur, what, 4)?;
    let ends = take_words(cur, rows, what)?;
    let targets = take_words(cur, len, what)?.map(|target| NodeId::from_index(target as usize));
    SegCsr::from_rows(ends, targets)
        .ok_or_else(|| format!("{what}: row offsets do not ascend from 0 to the target count"))
}

/// A name, shared with the WAL's requirement records.
fn take_name<'a>(cur: &mut Cursor<'a>) -> Result<&'a str, String> {
    let len = take_u32(cur, "a name length")?;
    let bytes = cur.take(len).ok_or("payload ends inside a name")?;
    std::str::from_utf8(bytes).map_err(|_| "a name is not UTF-8".to_string())
}

/// A label table: every name must intern to its own position, so `ROOT`
/// and `VALUE` (which every interner starts with) come first and no name
/// repeats.
fn take_label_table(cur: &mut Cursor<'_>) -> Result<LabelInterner, String> {
    let count = take_count(cur, "the label count", 4)?;
    if count < 2 {
        return Err("label table must contain ROOT and VALUE".to_string());
    }
    let mut labels = LabelInterner::new();
    for i in 0..count {
        let name = take_name(cur)?;
        if labels.intern(name).index() != i {
            return Err(format!("label table broken at {name:?}"));
        }
    }
    Ok(labels)
}

/// Decode all of `payload` with `decode`: bytes it leaves are an error.
fn whole<T>(
    payload: &[u8],
    decode: impl FnOnce(&mut Cursor<'_>) -> Result<T, String>,
) -> Result<T, String> {
    let mut cur = Cursor::new(payload);
    let value = decode(&mut cur)?;
    match cur.remaining() {
        0 => Ok(value),
        n => Err(format!("{n} trailing bytes inside the section")),
    }
}

/// Decode a whole `GRPH` payload: the columns out of the bytes, then one
/// validating build ([`DataGraph::from_rows`]).
pub(crate) fn read_graph(payload: &[u8]) -> Result<DataGraph, String> {
    whole(payload, |cur| {
        if cur.array4() != Some(GRAPH_MAGIC) {
            return Err("bad magic (expected DKG2)".to_string());
        }
        let interner = take_label_table(cur)?;
        let nodes = take_count(cur, "the node count", 4)?;
        let labels = take_words(cur, nodes, "the label column")?;
        let labels = labels.map(|label| LabelId::from_index(label as usize)).collect();
        let children = take_column(cur, nodes, "the child rows")?;
        let edges = children.target_count();
        let kinds = cur.take(edges.div_ceil(8)).ok_or("payload ends inside the edge kinds")?;
        let padding = kinds.last().map_or(0, |&last| last >> (edges % 8));
        if edges % 8 != 0 && padding != 0 {
            return Err("edge kind padding bits are set".to_string());
        }
        let reference =
            |slot: usize| kinds.get(slot / 8).is_some_and(|byte| byte >> (slot % 8) & 1 == 1);
        Ok(DataGraph::from_rows(interner, labels, children, reference)?)
    })
}

/// Decode a whole `INDX` payload. `data_nodes` is the node count of the data
/// graph the index summarizes (extents must partition exactly that range).
/// Run [`crate::audit::check_structure`] before using the result, as the
/// snapshot loader does.
pub(crate) fn read_index(payload: &[u8], data_nodes: usize) -> Result<IndexGraph, String> {
    whole(payload, |cur| {
        let interner = take_label_table(cur)?;
        let blocks = take_count(cur, "the block count", 12)?;
        let labels = take_words(cur, blocks, "the block labels")?;
        let labels = labels.map(|label| LabelId::from_index(label as usize)).collect();
        let sims = cur.take(8 * blocks).ok_or("payload ends inside the similarities")?;
        let sims = sims.as_chunks::<8>().0.iter().map(|k| {
            let k = u64::from_le_bytes(*k);
            usize::try_from(k)
                .ok()
                .filter(|&k| k <= SIM_EXACT)
                .ok_or_else(|| format!("similarity {k} out of range"))
        });
        let sims = sims.collect::<Result<_, _>>()?;
        let extents = take_column(cur, blocks, "the extent column")?;
        let children = take_column(cur, blocks, "the index child rows")?;
        let root = NodeId::from_index(take_u32(cur, "the root")?);
        IndexGraph::from_stored_columns(interner, labels, sims, extents, children, root, data_nodes)
    })
}

/// Decode a requirements table from `cur` (the WAL reads its records'
/// tables here; the bytes after it are the caller's).
pub(crate) fn take_requirements(cur: &mut Cursor<'_>) -> Result<Requirements, String> {
    let floor = take_u32(cur, "the floor")?;
    let mut reqs = Requirements::new();
    reqs.raise_floor(floor);
    let count = take_count(cur, "the entry count", 8)?;
    for _ in 0..count {
        let label = take_name(cur)?;
        let k = take_u32(cur, "an entry")?;
        reqs.raise(label, k);
    }
    Ok(reqs)
}

/// Decode a whole `REQS` payload.
pub(crate) fn read_requirements(payload: &[u8]) -> Result<Requirements, String> {
    whole(payload, take_requirements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::check_structure;
    use crate::dk::construct::DkIndex;
    use crate::snapshot::{read_snapshot, snapshot_bytes};

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
        write_index(dk.index(), &mut bytes);
        bytes
    }

    fn graph_bytes(g: &DataGraph) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_graph(g, &mut bytes);
        bytes
    }

    #[test]
    fn index_round_trips() {
        let (g, dk) = sample();
        let back = read_index(&index_bytes(&dk), g.node_count()).unwrap();
        check_structure(&back, &g).unwrap();
        assert_eq!(back.size(), dk.size());
        assert!(back.to_partition().same_equivalence(&dk.index().to_partition()));
        for inode in dk.index().node_ids() {
            assert_eq!(back.similarity(inode), dk.index().similarity(inode));
            assert_eq!(back.children_of(inode), dk.index().children_of(inode));
            assert_eq!(back.parents_of(inode), dk.index().parents_of(inode));
        }
    }

    #[test]
    fn loaded_index_answers_queries() {
        use crate::eval::{evaluate_on_data, IndexEvaluator};
        use dkindex_pathexpr::parse;
        let (g, dk) = sample();
        let back = read_index(&index_bytes(&dk), g.node_count()).unwrap();
        for q in ["director.movie.title", "actor.movie", "movie.title"] {
            let e = parse(q).unwrap();
            let out = IndexEvaluator::new(&back, &g).evaluate(&e);
            assert_eq!(out.matches, evaluate_on_data(&g, &e).0, "{q}");
        }
    }

    #[test]
    fn corrupted_extent_is_rejected() {
        let (g, dk) = sample();
        let bytes = snapshot_bytes(&dk, &g);
        // `INDX` is the container's last section: its payload ends the
        // bytes, and its CRC is the word just before the payload.
        let len = index_bytes(&dk).len();
        let (head, payload) = bytes.split_at(bytes.len() - len);
        // Flip each late byte (extents, edges, root) and reseal the CRC, so
        // the damage reaches the loader — robustness: corruption must never
        // produce a silently-wrong index.
        let load = |payload: &[u8]| {
            let mut container = head.to_vec();
            let crc_at = container.len() - 4;
            container[crc_at..].copy_from_slice(&crate::crc32::crc32(payload).to_le_bytes());
            container.extend_from_slice(payload);
            read_snapshot(&container)
        };
        load(payload).unwrap();
        let mut corrupted = 0;
        for i in (len - 40)..len {
            let mut copy = payload.to_vec();
            copy[i] ^= 0xFF;
            if load(&copy).is_err() {
                corrupted += 1;
            }
        }
        assert!(corrupted > 30, "most corruptions must be detected");
    }

    #[test]
    fn every_payload_rejects_truncation_and_trailing_bytes() {
        let (g, dk) = sample();
        let mut reqs = Vec::new();
        write_requirements(dk.requirements(), &mut reqs);
        let payloads = [graph_bytes(&g), index_bytes(&dk), reqs];
        for (which, bytes) in payloads.iter().enumerate() {
            let decode = |bytes: &[u8]| match which {
                0 => read_graph(bytes).map(drop),
                1 => read_index(bytes, g.node_count()).map(drop),
                _ => read_requirements(bytes).map(drop),
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
        let back = read_graph(&graph_bytes(&g)).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert!(back.edges().eq(g.edges()));
        for n in g.node_ids() {
            assert_eq!(back.label_name(n), g.label_name(n));
            assert_eq!(back.parents_of(n), g.parents_of(n));
        }
        let mut bad = graph_bytes(&g);
        bad[0] = b'X';
        assert!(read_graph(&bad).unwrap_err().contains("magic"));
    }

    #[test]
    fn requirements_round_trip_including_floor() {
        let mut reqs = Requirements::from_pairs([("a", 3), ("b", 1)]);
        reqs.raise_floor(1);
        let mut bytes = Vec::new();
        write_requirements(&reqs, &mut bytes);
        assert_eq!(read_requirements(&bytes).unwrap(), reqs);
    }

    /// A count field of 2³²−1 followed by a few bytes fails at the count:
    /// the error names the claim, so nothing was sized by it.
    #[test]
    fn a_count_larger_than_the_payload_fails_before_anything_is_sized_by_it() {
        const CLAIM: [u8; 4] = u32::MAX.to_le_bytes();
        let mut names = LabelInterner::new();
        names.intern("a");
        let mut node_count = GRAPH_MAGIC.to_vec();
        put_label_table(&mut node_count, &names);
        let mut edge_count = node_count.clone();
        node_count.extend_from_slice(&CLAIM);
        node_count.extend_from_slice(&[0; 6]);
        put_u32(&mut edge_count, 1);
        put_u32(&mut edge_count, 0);
        edge_count.extend_from_slice(&CLAIM);
        edge_count.extend_from_slice(&[0; 9]);
        let mut block_count = Vec::new();
        put_label_table(&mut block_count, &names);
        block_count.extend_from_slice(&CLAIM);
        block_count.extend_from_slice(&[0; 16]);

        let cases = [
            (read_graph(&node_count).map(drop), "the node count"),
            (read_graph(&edge_count).map(drop), "the child rows"),
            (read_index(&block_count, u32::MAX as usize).map(drop), "the block count"),
        ];
        for (outcome, what) in cases {
            let err = outcome.unwrap_err();
            assert!(err.starts_with(&format!("{what} 4294967295 needs")), "{what}: {err}");
        }
    }

    /// Two nested rows 2¹⁷ wide in one segment, the inner one filled first:
    /// appended one edge at a time, every edge of the outer row would move
    /// the inner row's targets (O(fan-out²)). The loader lays the rows out
    /// once, so the snapshot loads in linear time. The input is built from
    /// its rows, never through the quadratic path.
    #[test]
    fn nested_wide_rows_load_in_linear_time() {
        const WIDE: u32 = 1 << 17;
        let mut names = LabelInterner::new();
        let [outer, inner, leaf] = ["outer", "inner", "leaf"].map(|name| names.intern(name));
        let mut labels = vec![LabelInterner::ROOT, outer, inner];
        labels.resize(3 + 2 * WIDE as usize, leaf);
        let node = |i: u32| NodeId::from_index(i as usize);
        // Node 1 holds node 2 and the second wide run; node 2 the first.
        let mut targets = vec![node(1), node(2)];
        targets.extend((3 + WIDE..3 + 2 * WIDE).map(node));
        targets.extend((3..3 + WIDE).map(node));
        let mut ends = vec![1, 2 + WIDE, 2 + 2 * WIDE];
        ends.resize(labels.len(), 2 + 2 * WIDE);
        let children = SegCsr::from_rows(ends.into_iter(), targets.into_iter()).unwrap();
        let g = DataGraph::from_rows(names, labels, children, |_| false).unwrap();
        let dk = DkIndex::build(&g, Requirements::uniform(0));

        let (_, back) = crate::snapshot::read_snapshot(&snapshot_bytes(&dk, &g)).unwrap();
        assert_eq!(back.children_of(node(1)).len(), WIDE as usize + 1);
        assert_eq!(back.children_of(node(2)).len(), WIDE as usize);
        assert_eq!(back.children_of(node(1))[1], node(3 + WIDE));
        assert!(back.edges().eq(g.edges()));
    }

    /// A root with 2¹⁸ children of distinct labels: the label-split root
    /// block has out-degree 2¹⁸. Every snapshot load audits the edge
    /// projection; finding each data edge by a scan of its source block's
    /// child row would cost O(out-degree) per edge — here 2³⁵ steps in all.
    /// The audit binary-searches the target block's ascending parent row
    /// instead, so the load stays O(E log d).
    #[test]
    fn a_wide_index_row_audits_in_near_linear_time() {
        const WIDE: usize = 1 << 18;
        let mut names = LabelInterner::new();
        let mut labels = vec![LabelInterner::ROOT];
        labels.extend((0..WIDE).map(|i| names.intern(&format!("l{i}"))));
        let ends = std::iter::repeat_n(WIDE as u32, WIDE + 1);
        let children = SegCsr::from_rows(ends, (1..=WIDE).map(NodeId::from_index)).unwrap();
        let g = DataGraph::from_rows(names, labels, children, |_| false).unwrap();
        let dk = DkIndex::build(&g, Requirements::uniform(0));
        assert_eq!(dk.index().children_of(dk.index().root()).len(), WIDE);

        let (back, _) = crate::snapshot::read_snapshot(&snapshot_bytes(&dk, &g)).unwrap();
        assert!(back.index().edges().eq(dk.index().edges()));
    }

    /// XML names have no length cap, and a name is `u32`-length-prefixed:
    /// a label over 64 KiB round-trips in both tables and the requirements.
    #[test]
    fn a_label_over_64_kib_round_trips() {
        let long = "a".repeat(70_000);
        let mut g = DataGraph::new();
        let n = g.add_labeled_node(&long);
        g.add_edge(g.root(), n, EdgeKind::Tree);
        let dk = DkIndex::build(&g, Requirements::from_pairs([(long.as_str(), 1)]));
        let (back, g2) = crate::snapshot::read_snapshot(&snapshot_bytes(&dk, &g)).unwrap();
        assert_eq!(g2.label_name(n), long);
        assert_eq!(back.requirements().get(&long), 1);
    }
}
