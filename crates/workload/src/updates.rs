//! Update-stream generation, reproducing the paper's §6.2 protocol:
//!
//! "We randomly choose a pair of ID/IDREF labels in the DTD file and one
//! data node from each label group; then, a new edge is added between these
//! two data nodes."
//!
//! The DTD's ID/IDREF label pairs are recovered from the data graph itself:
//! every existing reference edge witnesses a `(source label, target label)`
//! pair, and new edges are drawn between random nodes of a random witnessed
//! pair — so the update stream has the same label structure as the data's
//! genuine references.

use dkindex_graph::{DataGraph, EdgeKind, LabelId, LabeledGraph, NodeId};
use dkindex_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The distinct `(source label, target label)` pairs witnessed by reference
/// edges in `data` — the graph-level image of the DTD's ID/IDREF pairs.
fn reference_label_pairs(data: &DataGraph) -> Vec<(LabelId, LabelId)> {
    let mut pairs: Vec<(LabelId, LabelId)> = data
        .edges()
        .filter(|&(_, _, k)| k == EdgeKind::Reference)
        .map(|(u, v, _)| (data.label_of(u), data.label_of(v)))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Generate `count` new reference edges per the paper's protocol. Each edge
/// connects fresh random endpoints of a random witnessed label pair;
/// duplicates of existing edges are re-drawn.
pub fn generate_update_edges(
    data: &DataGraph,
    count: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let _span = telemetry::Span::start(&telemetry::metrics::UPDATES_GENERATE_NS);
    let pairs = reference_label_pairs(data);
    assert!(
        !pairs.is_empty(),
        "data graph has no reference edges to derive ID/IDREF label pairs from"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let by_label: Vec<Vec<NodeId>> = {
        let mut v: Vec<Vec<NodeId>> = vec![Vec::new(); data.labels().len()];
        for n in data.node_ids() {
            v[data.label_of(n).index()].push(n);
        }
        v
    };

    let mut edges = Vec::with_capacity(count);
    let mut attempts = 0;
    while edges.len() < count && attempts < count * 100 {
        attempts += 1;
        let (src_label, dst_label) = pairs[rng.gen_range(0..pairs.len())];
        let sources = &by_label[src_label.index()];
        let targets = &by_label[dst_label.index()];
        if sources.is_empty() || targets.is_empty() {
            telemetry::metrics::UPDATES_REJECTED_DRAWS.incr();
            continue;
        }
        let u = sources[rng.gen_range(0..sources.len())];
        let v = targets[rng.gen_range(0..targets.len())];
        if u == v || data.has_edge(u, v) || edges.contains(&(u, v)) {
            telemetry::metrics::UPDATES_REJECTED_DRAWS.incr();
            continue;
        }
        edges.push((u, v));
    }
    telemetry::metrics::UPDATES_EDGES_GENERATED.add(edges.len() as u64);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkindex_datagen::{xmark_graph, XmarkConfig};

    #[test]
    fn label_pairs_come_from_reference_edges() {
        let g = xmark_graph(&XmarkConfig::tiny());
        let pairs = reference_label_pairs(&g);
        assert!(!pairs.is_empty());
        let person = g.labels().get("person").unwrap();
        let personref = g.labels().get("personref").unwrap();
        assert!(pairs.contains(&(personref, person)));
    }

    #[test]
    fn generated_edges_respect_label_pairs() {
        let g = xmark_graph(&XmarkConfig::tiny());
        let pairs = reference_label_pairs(&g);
        let edges = generate_update_edges(&g, 50, 7);
        assert_eq!(edges.len(), 50);
        for (u, v) in edges {
            assert!(pairs.contains(&(g.label_of(u), g.label_of(v))));
            assert!(!g.has_edge(u, v));
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let g = xmark_graph(&XmarkConfig::tiny());
        assert_eq!(generate_update_edges(&g, 20, 1), generate_update_edges(&g, 20, 1));
        assert_ne!(generate_update_edges(&g, 20, 1), generate_update_edges(&g, 20, 2));
    }

    #[test]
    #[should_panic(expected = "no reference edges")]
    fn graph_without_references_panics() {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        generate_update_edges(&g, 1, 0);
    }

    #[test]
    fn no_duplicate_edges_in_stream() {
        let g = xmark_graph(&XmarkConfig::tiny());
        let edges = generate_update_edges(&g, 80, 3);
        let set: std::collections::HashSet<_> = edges.iter().collect();
        assert_eq!(set.len(), edges.len());
    }
}
