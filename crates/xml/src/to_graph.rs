//! Mapping XML documents onto the paper's data-graph model (§3).
//!
//! * The document element becomes a child of the distinguished `ROOT` node.
//! * Every element becomes a node labeled with its tag name; containment
//!   edges are [`EdgeKind::Tree`].
//! * Attributes configured as *ID* attributes register the element in the
//!   id table; attributes configured as *IDREF(S)* attributes produce
//!   [`EdgeKind::Reference`] edges to the referenced element(s), mirroring
//!   the `ID/IDREF` construct that makes XML a graph.
//! * Remaining attributes (optional) become child nodes labeled with the
//!   attribute name, and element text content (optional) becomes `VALUE`
//!   nodes, matching "simple objects given a distinguished label VALUE".
//!
//! The mapping is written once, in [`GraphBuilder`], an [`XmlSink`] that
//! takes element events in document order: [`crate::stream_to_graph`]
//! drives it from parser events, and the dataset generators drive it
//! directly without writing text.

use crate::sink::XmlSink;
use dkindex_graph::{DataGraph, EdgeKind, LabelInterner, LabeledGraph, NodeId};
use std::collections::HashMap;
use std::fmt;

/// Options controlling the XML → graph mapping.
#[derive(Clone, Debug)]
pub struct GraphOptions {
    /// Attribute names treated as element ids (default: `["id"]`).
    pub id_attributes: Vec<String>,
    /// Attribute names treated as (whitespace-separated) reference targets.
    /// Default covers the common XMark/NASA-style spellings.
    pub idref_attributes: Vec<String>,
    /// Materialize non-id attributes as child nodes labeled by the
    /// attribute name (default: true).
    pub attribute_nodes: bool,
    /// Materialize text content as `VALUE` child nodes (default: false —
    /// the paper's experiments index element structure, and `VALUE` nodes
    /// would dominate node counts without affecting label paths).
    pub value_nodes: bool,
}

impl Default for GraphOptions {
    fn default() -> Self {
        GraphOptions {
            id_attributes: vec!["id".to_string()],
            idref_attributes: vec![
                "idref".to_string(),
                "ref".to_string(),
                "person".to_string(),
                "item".to_string(),
            ],
            attribute_nodes: true,
            value_nodes: false,
        }
    }
}

/// Error from the XML → graph mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphMappingError {
    /// Two elements declared the same id.
    DuplicateId(String),
    /// An IDREF attribute pointed at an id that no element declares.
    UnresolvedReference(String),
}

impl fmt::Display for GraphMappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphMappingError::DuplicateId(id) => write!(f, "duplicate id {id:?}"),
            GraphMappingError::UnresolvedReference(id) => {
                write!(f, "unresolved reference to id {id:?}")
            }
        }
    }
}

impl std::error::Error for GraphMappingError {}

/// The id/idref/attribute/`VALUE` mapping as an [`XmlSink`]: it takes
/// element events in document order and builds the graph node by node.
/// References resolve in [`GraphBuilder::finish`], so an IDREF may point
/// forward; a duplicate id is kept and reported there too.
pub struct GraphBuilder<'o> {
    options: &'o GraphOptions,
    g: DataGraph,
    ids: HashMap<String, NodeId>,
    /// The first id declared twice.
    duplicate_id: Option<String>,
    pending_refs: Vec<(NodeId, String)>,
    /// Open elements: (graph node, has non-blank text content).
    open: Vec<(NodeId, bool)>,
}

impl<'o> GraphBuilder<'o> {
    /// A builder holding only the `ROOT` node.
    pub fn new(options: &'o GraphOptions) -> Self {
        GraphBuilder {
            options,
            g: DataGraph::new(),
            ids: HashMap::new(),
            duplicate_id: None,
            pending_refs: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The graph, once the document has closed: the first duplicate id is
    /// an error, else the IDREFs resolve, in document order, into
    /// reference edges.
    pub fn finish(mut self) -> Result<DataGraph, GraphMappingError> {
        if let Some(id) = self.duplicate_id {
            return Err(GraphMappingError::DuplicateId(id));
        }
        for (from, target) in self.pending_refs {
            let Some(&to) = self.ids.get(&target) else {
                return Err(GraphMappingError::UnresolvedReference(target));
            };
            self.g.add_edge(from, to, EdgeKind::Reference);
        }
        Ok(self.g)
    }
}

impl XmlSink for GraphBuilder<'_> {
    /// An element opens: its node under the innermost open element (or
    /// `ROOT`), then its attributes in document order.
    fn start(&mut self, name: &str, attributes: &[(String, String)]) {
        let (g, options) = (&mut self.g, self.options);
        let parent = self.open.last().map_or(g.root(), |&(p, _)| p);
        let node = g.add_labeled_node(name);
        g.add_edge(parent, node, EdgeKind::Tree);
        for (attr_name, attr_value) in attributes {
            if options.id_attributes.iter().any(|a| a == attr_name) {
                if self.ids.insert(attr_value.clone(), node).is_some() {
                    self.duplicate_id.get_or_insert_with(|| attr_value.clone());
                }
            } else if options.idref_attributes.iter().any(|a| a == attr_name) {
                for target in attr_value.split_whitespace() {
                    self.pending_refs.push((node, target.to_string()));
                }
            } else if options.attribute_nodes {
                let attr_node = g.add_labeled_node(attr_name);
                g.add_edge(node, attr_node, EdgeKind::Tree);
                if options.value_nodes {
                    let v = g.add_node(LabelInterner::VALUE);
                    g.add_edge(attr_node, v, EdgeKind::Tree);
                }
            }
        }
        self.open.push((node, false));
    }

    /// Character data inside the innermost open element.
    fn text(&mut self, text: &str) {
        if let Some((_, has_text)) = self.open.last_mut() {
            *has_text |= !text.trim().is_empty();
        }
    }

    /// The innermost element closes: its `VALUE` node comes after all of
    /// its children.
    fn end(&mut self) {
        if let Some((node, true)) = self.open.pop() {
            if self.options.value_nodes {
                let v = self.g.add_node(LabelInterner::VALUE);
                self.g.add_edge(node, v, EdgeKind::Tree);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{parse_to_graph, stream_to_graph, StreamError};
    use dkindex_graph::LabeledGraph;

    const MOVIES: &str = r#"
        <movieDB>
          <director id="d1">
            <name>Lynch</name>
            <movie id="m1"><title>Dune</title></movie>
          </director>
          <actor id="a1" movie="m1">
            <name>MacLachlan</name>
          </actor>
        </movieDB>"#;

    fn options_with_movie_ref() -> GraphOptions {
        GraphOptions {
            idref_attributes: vec!["movie".to_string()],
            ..GraphOptions::default()
        }
    }

    #[test]
    fn maps_elements_and_containment() {
        let g = stream_to_graph(MOVIES, &options_with_movie_ref()).unwrap();
        // ROOT, movieDB, director, name, movie, title, actor, name
        assert_eq!(g.node_count(), 8);
        let movie_db = g.nodes_with_label(g.labels().get("movieDB").unwrap())[0];
        assert!(g.children_of(g.root()).contains(&movie_db));
    }

    #[test]
    fn resolves_idref_to_reference_edge() {
        let g = stream_to_graph(MOVIES, &options_with_movie_ref()).unwrap();
        let actor = g.nodes_with_label(g.labels().get("actor").unwrap())[0];
        let movie = g.nodes_with_label(g.labels().get("movie").unwrap())[0];
        assert!(g.has_edge(actor, movie));
        // The movie node has two parents: director (tree) and actor (ref).
        assert_eq!(g.parents_of(movie).len(), 2);
    }

    #[test]
    fn idrefs_split_on_whitespace() {
        let src = r#"<r><a id="x"/><a id="y"/><b idref="x y"/></r>"#;
        let g = parse_to_graph(src).unwrap();
        let b = g.nodes_with_label(g.labels().get("b").unwrap())[0];
        assert_eq!(g.children_of(b).len(), 2);
    }

    #[test]
    fn duplicate_id_is_an_error() {
        // The first duplicate is reported, ahead of an unresolved reference.
        let src = r#"<r><c idref="ghost"/><a id="x"/><b id="x"/><a id="y"/><b id="y"/></r>"#;
        assert!(matches!(
            parse_to_graph(src),
            Err(StreamError::Mapping(GraphMappingError::DuplicateId(id))) if id == "x"
        ));
    }

    #[test]
    fn unresolved_reference_is_an_error() {
        let src = r#"<r><b idref="ghost"/></r>"#;
        assert!(matches!(
            parse_to_graph(src),
            Err(StreamError::Mapping(GraphMappingError::UnresolvedReference(id))) if id == "ghost"
        ));
    }

    #[test]
    fn attribute_nodes_can_be_disabled() {
        let src = r#"<r><a class="big"/></r>"#;
        let with = parse_to_graph(src).unwrap();
        let without = stream_to_graph(
            src,
            &GraphOptions {
                attribute_nodes: false,
                ..GraphOptions::default()
            },
        )
        .unwrap();
        assert_eq!(with.node_count(), without.node_count() + 1);
    }

    #[test]
    fn value_nodes_materialize_text() {
        let src = "<r><a>text</a></r>";
        let g = stream_to_graph(
            src,
            &GraphOptions {
                value_nodes: true,
                ..GraphOptions::default()
            },
        )
        .unwrap();
        let value_nodes = g.nodes_with_label(LabelInterner::VALUE);
        assert_eq!(value_nodes.len(), 1);
        let a = g.nodes_with_label(g.labels().get("a").unwrap())[0];
        assert!(g.has_edge(a, value_nodes[0]));
    }

    #[test]
    fn forward_references_resolve() {
        // Reference appears before the element that declares the id.
        let src = r#"<r><b idref="later"/><a id="later"/></r>"#;
        let g = parse_to_graph(src).unwrap();
        let b = g.nodes_with_label(g.labels().get("b").unwrap())[0];
        let a = g.nodes_with_label(g.labels().get("a").unwrap())[0];
        assert!(g.has_edge(b, a));
    }
}
