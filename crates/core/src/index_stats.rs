//! Index statistics: compression ratios, similarity and extent-size
//! distributions, per-label breakdowns. Used by the CLI's `info` command and
//! the experiment harness, and handy for deciding when to run the demoting
//! process ("when its size becomes a disadvantage", paper §5.4).
//!
//! ```
//! use dkindex_core::{index_stats::IndexStats, DkIndex, Requirements};
//! use dkindex_xml::parse_to_graph;
//!
//! let data = parse_to_graph("<db><a/><a/><b/></db>").unwrap();
//! let dk = DkIndex::build(&data, Requirements::new());
//! let stats = IndexStats::of(dk.index(), &data);
//! assert_eq!(stats.index_nodes, 4); // ROOT, db, a, b
//! assert!(stats.compression_ratio() > 1.0);
//! ```

use crate::index_graph::IndexGraph;
use dkindex_graph::{DataGraph, LabeledGraph};
use std::collections::BTreeMap;
use std::fmt;

/// Per-label summary: similarity range and node/extent counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LabelStats {
    /// Smallest local similarity among this label's index nodes.
    pub min_similarity: usize,
    /// Largest local similarity among this label's index nodes.
    pub max_similarity: usize,
    /// Number of index nodes with this label.
    pub index_nodes: usize,
    /// Number of data nodes with this label.
    pub data_nodes: usize,
}

/// Aggregate statistics of an index graph relative to its data graph.
#[derive(Clone, Debug)]
pub struct IndexStats {
    /// Number of index nodes.
    pub index_nodes: usize,
    /// Number of index edges.
    pub index_edges: usize,
    /// Number of data nodes summarized.
    pub data_nodes: usize,
    /// Largest extent.
    pub max_extent: usize,
    /// Number of singleton extents (no compression for these nodes).
    pub singleton_extents: usize,
    /// Approximate resident bytes of the index.
    pub approx_bytes: usize,
    /// Per-label breakdown, sorted by label name.
    pub per_label: BTreeMap<String, LabelStats>,
}

impl IndexStats {
    /// Compute statistics for `index` over `data`.
    pub fn of(index: &IndexGraph, data: &DataGraph) -> Self {
        let mut per_label: BTreeMap<String, LabelStats> = BTreeMap::new();
        let mut max_extent = 0;
        let mut singleton_extents = 0;
        for inode in index.node_ids() {
            let extent_len = index.extent(inode).len();
            max_extent = max_extent.max(extent_len);
            singleton_extents += usize::from(extent_len == 1);
            let name = index.labels().name(index.label_of(inode)).to_string();
            let k = index.similarity(inode);
            let entry = per_label.entry(name).or_insert(LabelStats {
                min_similarity: usize::MAX,
                max_similarity: 0,
                index_nodes: 0,
                data_nodes: 0,
            });
            entry.min_similarity = entry.min_similarity.min(k);
            entry.max_similarity = entry.max_similarity.max(k);
            entry.index_nodes += 1;
            entry.data_nodes += extent_len;
        }
        IndexStats {
            index_nodes: index.size(),
            index_edges: index.edge_count(),
            data_nodes: data.node_count(),
            max_extent,
            singleton_extents,
            approx_bytes: index.approx_bytes(),
            per_label,
        }
    }

    /// Data nodes per index node — how much the summary compresses.
    pub fn compression_ratio(&self) -> f64 {
        if self.index_nodes == 0 {
            0.0
        } else {
            self.data_nodes as f64 / self.index_nodes as f64
        }
    }
}

impl fmt::Display for IndexStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} index nodes / {} edges over {} data nodes ({:.1}x compression, {:.1} KiB)",
            self.index_nodes,
            self.index_edges,
            self.data_nodes,
            self.compression_ratio(),
            self.approx_bytes as f64 / 1024.0
        )?;
        writeln!(
            f,
            "extents: max {}, {} singleton(s)",
            self.max_extent, self.singleton_extents
        )?;
        writeln!(f, "per-label local similarities (min..max, index nodes, data nodes):")?;
        for (name, s) in &self.per_label {
            writeln!(
                f,
                "  {name:<24} {}..{}  ({} / {})",
                s.min_similarity, s.max_similarity, s.index_nodes, s.data_nodes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dk::construct::DkIndex;
    use crate::requirements::Requirements;
    use dkindex_graph::EdgeKind;

    fn data() -> DataGraph {
        let mut g = DataGraph::new();
        let r = g.root();
        for _ in 0..4 {
            let m = g.add_labeled_node("movie");
            let t = g.add_labeled_node("title");
            g.add_edge(r, m, EdgeKind::Tree);
            g.add_edge(m, t, EdgeKind::Tree);
        }
        g
    }

    #[test]
    fn counts_are_consistent() {
        let g = data();
        let dk = DkIndex::build(&g, Requirements::new());
        let stats = IndexStats::of(dk.index(), &g);
        assert_eq!(stats.index_nodes, 3); // ROOT, movie, title
        assert_eq!(stats.data_nodes, 9);
        assert_eq!(stats.max_extent, 4);
        assert_eq!(stats.singleton_extents, 1); // ROOT
        let total_extents: usize = stats.per_label.values().map(|s| s.data_nodes).sum();
        assert_eq!(total_extents, stats.data_nodes);
        assert!(stats.compression_ratio() > 2.9);
    }

    #[test]
    fn per_label_similarity_ranges() {
        let g = data();
        let dk = DkIndex::build(&g, Requirements::from_pairs([("title", 1)]));
        let stats = IndexStats::of(dk.index(), &g);
        let title = &stats.per_label["title"];
        assert_eq!(title.min_similarity, 1);
        assert_eq!(title.max_similarity, 1);
        let movie = &stats.per_label["movie"];
        assert_eq!(movie.min_similarity, 0); // broadcast: 1-1 = 0
    }

    #[test]
    fn display_is_informative() {
        let g = data();
        let dk = DkIndex::build(&g, Requirements::new());
        let text = IndexStats::of(dk.index(), &g).to_string();
        assert!(text.contains("compression"));
        assert!(text.contains("movie"));
        assert!(text.contains("0..0"));
    }
}
