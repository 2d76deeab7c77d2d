//! # dkindex-datagen
//!
//! Synthetic datasets for the D(k)-index reproduction:
//!
//! * [`xmark`] — XMark-like auction-site data (paper §6 dataset 1):
//!   regular, shallow, with bidder/seller/category/item references.
//! * [`nasa`] — NASA-like astronomical data (paper §6 dataset 2): broader,
//!   deeper, less regular, 20 reference kinds of which 8 are kept by
//!   default (the paper deletes 12 of 20).
//! * [`movies`] — the Figure-1-style movie database used by the paper's
//!   running examples.
//! * [`random`] — seeded random trees/graphs for property-based tests.
//!
//! Both dataset generators emit element events into any
//! [`dkindex_xml::XmlSink`] (`xmark_events`, `nasa_events`): the
//! `*_graph` functions feed them straight into a
//! [`dkindex_xml::GraphBuilder`], and an [`dkindex_xml::XmlWriter`] turns
//! the same events into XML text. No document tree is built.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod id_pool;

pub mod movies;
pub mod nasa;
pub mod random;
pub mod xmark;

pub use id_pool::IdPool;
pub use movies::{movie_graph, MovieGraph};
pub use nasa::{nasa_events, nasa_graph, nasa_graph_options, NasaConfig, ALL_REFERENCE_KINDS, DEFAULT_KEPT_KINDS};
pub use random::{random_graph, RandomGraphConfig};
pub use xmark::{xmark_events, xmark_graph, xmark_graph_options, XmarkConfig};

/// The generators' documents as text, for their tests.
#[cfg(test)]
mod text {
    use dkindex_xml::{parse_into, XmlWriter};

    /// The document `emit` writes, as XML text.
    pub(crate) fn xml_text(emit: impl FnOnce(&mut XmlWriter)) -> String {
        let mut writer = XmlWriter::new();
        emit(&mut writer);
        writer.into_string()
    }

    /// `text` parsed and written again.
    pub(crate) fn rewritten(text: &str) -> String {
        xml_text(|w| parse_into(text, w).expect("generated XML parses"))
    }
}
