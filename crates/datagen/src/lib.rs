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
//! Both dataset generators emit [`dkindex_xml::Document`] trees (so the XML
//! pipeline is exercised end-to-end) and provide direct `*_graph` shortcuts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod id_pool;

pub mod movies;
pub mod nasa;
pub mod random;
pub mod xmark;

pub use id_pool::IdPool;
pub use movies::{movie_graph, MovieGraph};
pub use nasa::{nasa_document, nasa_graph, nasa_graph_options, NasaConfig, ALL_REFERENCE_KINDS, DEFAULT_KEPT_KINDS};
pub use random::{random_graph, RandomGraphConfig};
pub use xmark::{xmark_document, xmark_graph, xmark_graph_options, XmarkConfig};
