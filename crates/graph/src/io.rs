//! Binary serialization for data graphs.
//!
//! Format `DKG1` (all integers little-endian):
//!
//! ```text
//! magic   b"DKG1"
//! labels  u32 count, then per label: u16 byte-length + UTF-8 bytes
//! nodes   u32 count, then per node: u32 label id
//! edges   u32 count, then per edge: u32 from, u32 to, u8 kind (0 tree, 1 ref)
//! ```
//!
//! The distinguished `ROOT`/`VALUE` labels are serialized like any other and
//! validated on load (they must be labels 0 and 1, and node 0 must be the
//! root). Reading is strict: trailing bytes, dangling ids or a malformed
//! header are errors, never silent truncation.

use crate::graph::{DataGraph, EdgeKind, LabeledGraph, NodeId};
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"DKG1";

/// Error while reading a serialized graph.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the byte stream.
    Corrupt(String),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "I/O error: {e}"),
            ReadError::Corrupt(msg) => write!(f, "corrupt graph file: {msg}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> ReadError {
    ReadError::Corrupt(msg.into())
}

/// Write a little-endian `u32` (exposed for dependent on-disk formats).
pub fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Read a little-endian `u32`.
pub fn read_u32<R: Read>(r: &mut R) -> Result<u32, ReadError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Write a `u16`-length-prefixed UTF-8 string. Labels longer than
/// `u16::MAX` bytes (possible in adversarial XML input) are an
/// `InvalidInput` error, never a panic.
pub fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    let len = u16::try_from(s.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("label of {} bytes exceeds the format's u16 limit", s.len()),
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(s.as_bytes())
}

/// Read a `u16`-length-prefixed UTF-8 string.
pub fn read_str<R: Read>(r: &mut R) -> Result<String, ReadError> {
    let mut len_buf = [0u8; 2];
    r.read_exact(&mut len_buf)?;
    let len = u16::from_le_bytes(len_buf) as usize;
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes).map_err(|_| corrupt("label is not UTF-8"))
}

/// Serialize `g` to `w`.
pub fn write_graph<W: Write>(g: &DataGraph, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, g.labels().len() as u32)?;
    for (_, name) in g.labels().iter() {
        write_str(w, name)?;
    }
    write_u32(w, g.node_count() as u32)?;
    for n in g.node_ids() {
        write_u32(w, g.label_of(n).index() as u32)?;
    }
    write_u32(w, g.edge_count() as u32)?;
    for &(from, to, kind) in g.edges() {
        write_u32(w, from.index() as u32)?;
        write_u32(w, to.index() as u32)?;
        w.write_all(&[match kind {
            EdgeKind::Tree => 0,
            EdgeKind::Reference => 1,
        }])?;
    }
    Ok(())
}

/// Deserialize a graph from `r`. The stream must be exhausted exactly.
pub fn read_graph<R: Read>(r: &mut R) -> Result<DataGraph, ReadError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(corrupt("bad magic (expected DKG1)"));
    }
    let label_count = read_u32(r)? as usize;
    if label_count < 2 {
        return Err(corrupt("label table must contain ROOT and VALUE"));
    }
    let mut g = DataGraph::new();
    for i in 0..label_count {
        let name = read_str(r)?;
        match i {
            0 if name != "ROOT" => return Err(corrupt("label 0 must be ROOT")),
            1 if name != "VALUE" => return Err(corrupt("label 1 must be VALUE")),
            _ => {}
        }
        let id = g.intern(&name);
        if id.index() != i {
            return Err(corrupt(format!("duplicate label {name:?}")));
        }
    }
    let node_count = read_u32(r)? as usize;
    if node_count == 0 {
        return Err(corrupt("graph has no root node"));
    }
    for i in 0..node_count {
        let label = read_u32(r)? as usize;
        if label >= label_count {
            return Err(corrupt(format!("node {i}: label id {label} out of range")));
        }
        if i == 0 {
            if label != 0 {
                return Err(corrupt("node 0 must carry the ROOT label"));
            }
            continue; // the root already exists
        }
        g.add_node(crate::label::LabelId::from_index(label));
    }
    let edge_count = read_u32(r)? as usize;
    for _ in 0..edge_count {
        let from = read_u32(r)? as usize;
        let to = read_u32(r)? as usize;
        let mut kind = [0u8; 1];
        r.read_exact(&mut kind)?;
        if from >= node_count || to >= node_count {
            return Err(corrupt("edge endpoint out of range"));
        }
        let kind = match kind[0] {
            0 => EdgeKind::Tree,
            1 => EdgeKind::Reference,
            other => return Err(corrupt(format!("unknown edge kind {other}"))),
        };
        g.add_edge(NodeId::from_index(from), NodeId::from_index(to), kind);
    }
    let mut probe = [0u8; 1];
    match r.read(&mut probe)? {
        0 => Ok(g),
        _ => Err(corrupt("trailing bytes after graph")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataGraph {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let b = g.add_labeled_node("b");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, b, EdgeKind::Tree);
        g.add_edge(b, a, EdgeKind::Reference);
        g
    }

    fn round_trip(g: &DataGraph) -> DataGraph {
        let mut bytes = Vec::new();
        write_graph(g, &mut bytes).unwrap();
        read_graph(&mut bytes.as_slice()).unwrap()
    }

    #[test]
    fn graph_round_trips() {
        let g = sample();
        let back = round_trip(&g);
        assert_eq!(back.node_count(), g.node_count());
        assert!(back.edges().eq(g.edges()));
        for n in g.node_ids() {
            assert_eq!(back.label_name(n), g.label_name(n));
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = DataGraph::new();
        let back = round_trip(&g);
        assert_eq!(back.node_count(), 1);
        assert_eq!(back.edge_count(), 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = Vec::new();
        write_graph(&sample(), &mut bytes).unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            read_graph(&mut bytes.as_slice()),
            Err(ReadError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let mut bytes = Vec::new();
        write_graph(&sample(), &mut bytes).unwrap();
        bytes.truncate(bytes.len() - 3);
        assert!(read_graph(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Vec::new();
        write_graph(&sample(), &mut bytes).unwrap();
        bytes.push(0);
        assert!(matches!(
            read_graph(&mut bytes.as_slice()),
            Err(ReadError::Corrupt(msg)) if msg.contains("trailing")
        ));
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let mut g = DataGraph::new();
        g.add_labeled_node("a");
        let mut bytes = Vec::new();
        write_graph(&g, &mut bytes).unwrap();
        // Append a fake edge count region by rebuilding manually is complex;
        // instead corrupt the stored edge count upward.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&1u32.to_le_bytes());
        assert!(read_graph(&mut bytes.as_slice()).is_err());
    }
}
