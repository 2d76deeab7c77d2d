//! Section codecs for the snapshot container ([`crate::snapshot`]): the
//! byte form of an index graph (`INDX`) and of a requirements table
//! (`REQS`). Neither is a file format on its own — the container frames,
//! checksums and versions them, and pairs them with the data graph's `GRPH`
//! payload ([`dkindex_graph::io`]).
//!
//! Layouts (little-endian):
//!
//! ```text
//! REQS     u32 floor, u32 count, then per entry: u16+utf8 label, u32 k
//!          (entries sorted by label)
//! INDX     labels   u32 count, then per label: u16+utf8 name
//!          inodes   u32 count, then per node:
//!                     u32 label, u64 similarity, u32 extent-len, u32 data-node ids
//!          edges    u32 count, then per edge: u32 from, u32 to
//!          root     u32 index node id
//! ```
//!
//! [`read_index`] guards only what makes construction safe — every id in
//! range, no allocation sized by an unchecked count — and leaves the verdict
//! on the index (extents partition the graph, edges project it, the root is
//! the root) to [`crate::audit::check_structure`], which the snapshot loader
//! runs against the graph it loads alongside before anything uses the index.

use crate::index_graph::IndexGraph;
use crate::requirements::Requirements;
use dkindex_graph::io::{read_str, read_u32, write_str, write_u32, ReadError};
use dkindex_graph::{LabelInterner, LabeledGraph, NodeId};
use std::io::{self, Read, Write};

fn corrupt(msg: impl Into<String>) -> ReadError {
    ReadError::Corrupt(msg.into())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, ReadError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Serialize an index graph (without its data graph).
pub fn write_index<W: Write>(index: &IndexGraph, w: &mut W) -> io::Result<()> {
    write_u32(w, index.labels().len() as u32)?;
    for (_, name) in index.labels().iter() {
        write_str(w, name)?;
    }
    write_u32(w, index.size() as u32)?;
    for inode in index.node_ids() {
        write_u32(w, index.label_of(inode).index() as u32)?;
        write_u64(w, index.similarity(inode) as u64)?;
        let extent = index.extent(inode);
        write_u32(w, extent.len() as u32)?;
        for &d in extent {
            write_u32(w, d.index() as u32)?;
        }
    }
    let edge_total: usize = index
        .node_ids()
        .map(|i| index.children_of(i).len())
        .sum();
    write_u32(w, edge_total as u32)?;
    for from in index.node_ids() {
        for &to in index.children_of(from) {
            write_u32(w, from.index() as u32)?;
            write_u32(w, to.index() as u32)?;
        }
    }
    write_u32(w, index.root().index() as u32)
}

/// Deserialize an index graph. `data_nodes` is the node count of the data
/// graph the index summarizes (extents must partition exactly that range).
/// Only ranges are checked here: run [`crate::audit::check_structure`]
/// before using the result, as the snapshot loader does.
pub fn read_index<R: Read>(r: &mut R, data_nodes: usize) -> Result<IndexGraph, ReadError> {
    let label_count = read_u32(r)? as usize;
    let mut interner = LabelInterner::new();
    for i in 0..label_count {
        let name = read_str(r)?;
        let id = interner.intern(&name);
        if id.index() != i {
            return Err(corrupt(format!("index label table broken at {name:?}")));
        }
    }
    let inode_count = read_u32(r)? as usize;
    if inode_count == 0 {
        return Err(corrupt("index has no nodes"));
    }
    if inode_count > data_nodes {
        return Err(corrupt("more index nodes than data nodes"));
    }
    // Never pre-allocate from untrusted counts beyond a small bound: a
    // corrupted length field must fail on EOF, not abort on allocation.
    let cap = inode_count.min(1 << 16);
    let mut labels = Vec::with_capacity(cap);
    let mut sims = Vec::with_capacity(cap);
    let mut extents: Vec<Vec<NodeId>> = Vec::with_capacity(cap);
    for i in 0..inode_count {
        let label = read_u32(r)? as usize;
        if label >= label_count {
            return Err(corrupt(format!("inode {i}: label out of range")));
        }
        let sim = read_u64(r)?;
        let len = read_u32(r)? as usize;
        if len > data_nodes {
            return Err(corrupt(format!("inode {i}: extent larger than data")));
        }
        let mut extent = Vec::with_capacity(len);
        for _ in 0..len {
            let d = read_u32(r)? as usize;
            if d >= data_nodes {
                return Err(corrupt(format!("inode {i}: extent member out of range")));
            }
            extent.push(NodeId::from_index(d));
        }
        labels.push(dkindex_graph::LabelId::from_index(label));
        sims.push(usize::try_from(sim).map_err(|_| corrupt("similarity overflow"))?);
        extents.push(extent);
    }
    let mut index = IndexGraph::from_stored_parts(interner, labels, sims, extents, data_nodes);
    let edge_count = read_u32(r)? as usize;
    for _ in 0..edge_count {
        let from = read_u32(r)? as usize;
        let to = read_u32(r)? as usize;
        if from >= inode_count || to >= inode_count {
            return Err(corrupt("index edge out of range"));
        }
        index.add_index_edge(NodeId::from_index(from), NodeId::from_index(to));
    }
    let root = read_u32(r)? as usize;
    if root >= inode_count {
        return Err(corrupt("root index node out of range"));
    }
    index.set_root(NodeId::from_index(root));
    Ok(index)
}

pub(crate) fn write_requirements<W: Write>(reqs: &Requirements, w: &mut W) -> io::Result<()> {
    write_u32(w, reqs.floor() as u32)?;
    let mut entries: Vec<(&str, usize)> = reqs.iter().collect();
    entries.sort(); // deterministic output
    write_u32(w, entries.len() as u32)?;
    for (label, k) in entries {
        write_str(w, label)?;
        write_u32(w, k as u32)?;
    }
    Ok(())
}

pub(crate) fn read_requirements<R: Read>(r: &mut R) -> Result<Requirements, ReadError> {
    let floor = read_u32(r)? as usize;
    let mut reqs = Requirements::new();
    reqs.raise_floor(floor);
    let count = read_u32(r)? as usize;
    for _ in 0..count {
        let label = read_str(r)?;
        let k = read_u32(r)? as usize;
        reqs.raise(&label, k);
    }
    Ok(reqs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::check_structure;
    use crate::dk::construct::DkIndex;
    use dkindex_graph::{DataGraph, EdgeKind};

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

    #[test]
    fn index_round_trips() {
        let (g, dk) = sample();
        let bytes = index_bytes(&dk);
        let back = read_index(&mut bytes.as_slice(), g.node_count()).unwrap();
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
        let back = read_index(&mut index_bytes(&dk).as_slice(), g.node_count()).unwrap();
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
            let loaded = read_index(&mut copy.as_slice(), g.node_count());
            if loaded.map_or(true, |index| check_structure(&index, &g).is_err()) {
                corrupted += 1;
            }
        }
        assert!(corrupted > 30, "most corruptions must be detected");
    }

    #[test]
    fn truncation_is_rejected() {
        let (g, dk) = sample();
        let mut bytes = index_bytes(&dk);
        bytes.truncate(bytes.len() - 1);
        assert!(read_index(&mut bytes.as_slice(), g.node_count()).is_err());
    }

    #[test]
    fn requirements_round_trip_including_floor() {
        let mut reqs = Requirements::from_pairs([("a", 3), ("b", 1)]);
        reqs.raise_floor(1);
        let mut bytes = Vec::new();
        write_requirements(&reqs, &mut bytes).unwrap();
        let back = read_requirements(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, reqs);
    }
}
