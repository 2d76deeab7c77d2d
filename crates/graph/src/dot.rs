//! GraphViz DOT export, rendering tree edges solid and reference edges dashed
//! in the style of the paper's Figure 1.

use crate::graph::{DataGraph, EdgeKind, LabeledGraph};
use std::fmt::Write as _;

/// Render `g` as a GraphViz `digraph`.
///
/// Node shapes: the root is a doublecircle, `VALUE` nodes are boxes, element
/// nodes are ellipses labeled `name (id)`.
pub fn to_dot(g: &DataGraph) -> String {
    let mut out = String::new();
    out.push_str("digraph data_graph {\n");
    out.push_str("  rankdir=TB;\n");
    for node in g.node_ids() {
        let name = g.label_name(node);
        let shape = if node == g.root() {
            "doublecircle"
        } else if name == "VALUE" {
            "box"
        } else {
            "ellipse"
        };
        let _ = writeln!(
            out,
            "  n{} [label=\"{} ({})\", shape={}];",
            node.index(),
            escape(name),
            node.index(),
            shape
        );
    }
    for (from, to, kind) in g.edges() {
        let style = match kind {
            EdgeKind::Tree => "solid",
            EdgeKind::Reference => "dashed",
        };
        let _ = writeln!(out, "  n{} -> n{} [style={}];", from.index(), to.index(), style);
    }
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DataGraph, EdgeKind};

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("movie");
        let v = g.add_labeled_node("VALUE");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, v, EdgeKind::Reference);
        let dot = to_dot(&g);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("movie (1)"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("style=solid"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("n1 -> n2"));
    }

    #[test]
    fn dot_escapes_quotes_in_labels() {
        let mut g = DataGraph::new();
        g.add_labeled_node("we\"ird");
        let dot = to_dot(&g);
        assert!(dot.contains("we\\\"ird"));
    }
}
