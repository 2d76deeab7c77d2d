//! Streaming XML → data-graph construction: builds the graph directly from
//! parser events without materializing a [`crate::Document`] tree. The
//! events drive the same private builder [`crate::document_to_graph`]
//! drives from a tree walk, so both paths produce exactly the same graph,
//! while this one holds only the open-element stack in memory and indexes
//! multi-hundred-MB documents in O(depth) space.
//!
//! ```
//! use dkindex_graph::LabeledGraph;
//! use dkindex_xml::{stream_to_graph, GraphOptions};
//!
//! let g = stream_to_graph(
//!     r#"<db><a id="x"/><b idref="x"/></db>"#,
//!     &GraphOptions::default(),
//! ).unwrap();
//! assert_eq!(g.node_count(), 4);
//! assert_eq!(g.edge_count(), 4); // 3 containment + 1 reference
//! ```

use crate::parser::{XmlError, XmlEvent, XmlParser};
use crate::to_graph::{GraphBuilder, GraphMappingError, GraphOptions};
use dkindex_graph::DataGraph;
use std::fmt;

/// Error from the streaming builder: either a parse error or a mapping
/// error (duplicate id / unresolved reference).
#[derive(Debug)]
pub enum StreamError {
    /// XML is not well-formed (or exceeds the parser's [`crate::XmlLimits`]).
    Xml(XmlError),
    /// The document parsed but could not be mapped onto the graph model.
    Mapping(GraphMappingError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Xml(e) => write!(f, "{e}"),
            StreamError::Mapping(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<XmlError> for StreamError {
    fn from(e: XmlError) -> Self {
        StreamError::Xml(e)
    }
}

impl From<GraphMappingError> for StreamError {
    fn from(e: GraphMappingError) -> Self {
        StreamError::Mapping(e)
    }
}

/// Build a [`DataGraph`] from XML text in one streaming pass (plus deferred
/// reference resolution at the end), parsing under the default
/// [`crate::XmlLimits`].
pub fn stream_to_graph(input: &str, options: &GraphOptions) -> Result<DataGraph, StreamError> {
    let mut parser = XmlParser::new(input);
    let mut builder = GraphBuilder::new(options);
    while let Some(event) = parser.next()? {
        match event {
            XmlEvent::StartElement {
                name,
                attributes,
                self_closing,
            } => {
                builder.start(&name, &attributes)?;
                if self_closing {
                    builder.end();
                }
            }
            XmlEvent::EndElement { .. } => builder.end(),
            XmlEvent::Text(t) => builder.text(&t),
            XmlEvent::Comment(_) | XmlEvent::ProcessingInstruction(_) => {}
        }
    }
    Ok(builder.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_graph::document_to_graph;
    use crate::tree::Document;
    use dkindex_graph::LabeledGraph;

    const DOC: &str = r#"
        <movieDB>
          <director id="d1"><name>X</name>
            <movie id="m1"><title>T</title></movie>
          </director>
          <actor idref="m1" role="lead"><name>Y</name></actor>
        </movieDB>"#;

    fn same_graph(a: &DataGraph, b: &DataGraph) -> bool {
        a.node_count() == b.node_count()
            && a.edges().eq(b.edges())
            && a.node_ids().all(|n| a.label_name(n) == b.label_name(n))
    }

    #[test]
    fn streaming_equals_dom_path() {
        for options in [
            GraphOptions::default(),
            GraphOptions {
                attribute_nodes: false,
                ..GraphOptions::default()
            },
            GraphOptions {
                value_nodes: true,
                ..GraphOptions::default()
            },
        ] {
            let doc = Document::parse(DOC).unwrap();
            let via_dom = document_to_graph(&doc, &options).unwrap();
            let via_stream = stream_to_graph(DOC, &options).unwrap();
            assert!(
                same_graph(&via_dom, &via_stream),
                "options {options:?}: dom {} nodes vs stream {} nodes",
                via_dom.node_count(),
                via_stream.node_count()
            );
        }
    }

    #[test]
    fn streaming_detects_duplicate_ids_and_bad_refs() {
        let o = GraphOptions::default();
        assert!(matches!(
            stream_to_graph(r#"<r><a id="x"/><b id="x"/></r>"#, &o),
            Err(StreamError::Mapping(GraphMappingError::DuplicateId(_)))
        ));
        assert!(matches!(
            stream_to_graph(r#"<r><b idref="ghost"/></r>"#, &o),
            Err(StreamError::Mapping(GraphMappingError::UnresolvedReference(_)))
        ));
    }

    #[test]
    fn forward_references_resolve_in_streaming_mode() {
        let g = stream_to_graph(r#"<r><b idref="later"/><a id="later"/></r>"#, &GraphOptions::default()).unwrap();
        let b = g.nodes_with_label(g.labels().get("b").unwrap())[0];
        let a = g.nodes_with_label(g.labels().get("a").unwrap())[0];
        assert!(g.has_edge(b, a));
    }

    #[test]
    fn self_closing_elements_stream_correctly() {
        let g = stream_to_graph("<r><a/><b/></r>", &GraphOptions::default()).unwrap();
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn hostile_nesting_is_a_typed_error_not_a_crash() {
        let mut doc = String::new();
        for _ in 0..600 {
            doc.push_str("<a>");
        }
        for _ in 0..600 {
            doc.push_str("</a>");
        }
        let out = stream_to_graph(&doc, &GraphOptions::default());
        assert!(matches!(out, Err(StreamError::Xml(_))), "expected Xml error");
    }
}
