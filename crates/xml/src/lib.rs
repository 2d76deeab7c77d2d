//! # dkindex-xml
//!
//! A small, dependency-free XML front-end for the D(k)-index reproduction:
//!
//! * [`XmlParser`] — pull parser (elements, attributes, text, CDATA,
//!   comments, PIs, predefined + numeric entities) and the one
//!   well-formedness check: its events always form one properly nested
//!   root element, or it returns a positioned [`XmlError`].
//! * [`Document`] / [`Element`] — owned tree with a round-trip serializer.
//! * [`document_to_graph`] / [`stream_to_graph`] — mapping onto the paper's
//!   data-graph model, turning `ID`/`IDREF` attributes into reference edges
//!   (§3). One builder holds the mapping; the first drives it from a tree
//!   walk, the second from parser events, and both build the same graph.
//!
//! ## Example
//!
//! ```
//! use dkindex_graph::LabeledGraph;
//! use dkindex_xml::parse_to_graph;
//!
//! let g = parse_to_graph(r#"<db><a id="x"/><b idref="x"/></db>"#).unwrap();
//! assert_eq!(g.node_count(), 4); // ROOT, db, a, b
//! assert_eq!(g.edge_count(), 4); // 3 containment + 1 reference
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parser;
pub mod stream;
pub mod to_graph;
pub mod tree;

pub use parser::{decode_entities, escape_attr, escape_text, XmlError, XmlEvent, XmlLimits, XmlParser};
pub use stream::{stream_to_graph, StreamError};
pub use to_graph::{document_to_graph, parse_to_graph, GraphMappingError, GraphOptions};
pub use tree::{Document, Element, XmlNode};
