//! # dkindex-workload
//!
//! Workload generation for the D(k)-index experiments:
//!
//! * [`generate_test_paths`] — the paper's two-phase query workload
//!   (long random paths + shorter branching paths, 100 queries of 2–5
//!   labels, §6.1), with [`Workload::mine_requirements`] gluing the
//!   workload to D(k) requirements.
//! * [`generate_update_edges`] — the paper's update stream (random new
//!   edges between nodes of witnessed ID/IDREF label pairs, §6.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod paths;
pub mod updates;

pub use paths::{generate_test_paths, weighted_stream, Workload, WorkloadConfig};
pub use updates::generate_update_edges;
