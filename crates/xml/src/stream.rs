//! XML text → data graph: parser events drive the one
//! [`GraphBuilder`] through [`parse_into`], with no document tree in
//! between. The builder's open-element stack is the only state that grows
//! with depth; the graph itself, its id table and its pending references
//! are resident, and the caller holds the whole input text.
//!
//! Errors: an ill-formed document is a [`StreamError::Xml`] at the byte
//! where it breaks, even when it also declares an id twice. A well-formed
//! document is then mapped, and the first duplicate id, else the first
//! unresolved reference, is a [`StreamError::Mapping`].
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

use crate::parser::XmlError;
use crate::sink::parse_into;
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

/// Build a [`DataGraph`] from XML text in one pass over the parser's
/// events (plus deferred reference resolution at the end), parsing under
/// the default [`crate::XmlLimits`].
pub fn stream_to_graph(input: &str, options: &GraphOptions) -> Result<DataGraph, StreamError> {
    let mut builder = GraphBuilder::new(options);
    parse_into(input, &mut builder)?;
    Ok(builder.finish()?)
}

/// [`stream_to_graph`] under [`GraphOptions::default`].
pub fn parse_to_graph(input: &str) -> Result<DataGraph, StreamError> {
    stream_to_graph(input, &GraphOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkindex_graph::LabeledGraph;

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
        // A duplicate id is reported when the builder finishes, so a
        // document that also breaks later is an XML error.
        assert!(matches!(
            stream_to_graph(r#"<r><a id="x"/><b id="x"/></a>"#, &o),
            Err(StreamError::Xml(_))
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
