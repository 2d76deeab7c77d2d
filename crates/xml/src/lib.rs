//! # dkindex-xml
//!
//! A small, dependency-free XML front-end for the D(k)-index reproduction:
//!
//! * [`XmlParser`] — pull parser (elements, attributes, text, CDATA,
//!   comments, PIs, predefined + numeric entities) and the one
//!   well-formedness check: its events always form one properly nested
//!   root element, or it returns a positioned [`XmlError`].
//! * [`XmlSink`] — the element-event face (`start` with attributes, `text`,
//!   `end`) that every producer of XML writes through: [`parse_into`] from
//!   text, the dataset generators directly. [`XmlWriter`] is the sink that
//!   writes text.
//! * [`GraphBuilder`] — the sink that maps the events onto the paper's
//!   data-graph model, turning `ID`/`IDREF` attributes into reference
//!   edges (§3); [`stream_to_graph`] drives it from text. There is no
//!   document tree: every path to a graph is events into this builder.
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
pub mod sink;
pub mod stream;
pub mod to_graph;

pub use parser::{decode_entities, escape_attr, escape_text, XmlError, XmlEvent, XmlLimits, XmlParser};
pub use sink::{parse_into, XmlSink, XmlWriter};
pub use stream::{parse_to_graph, stream_to_graph, StreamError};
pub use to_graph::{GraphBuilder, GraphMappingError, GraphOptions};
