//! # dkindex-bench
//!
//! Experiment harness reproducing every table and figure of the D(k)-index
//! paper's evaluation (§6): figures 4–7, Table 1, and three ablations. The
//! [`experiments`] module computes the record of one dataset
//! ([`experiments::Record`]: its rows and its shape claims); the `reproduce`
//! binary renders it through [`report`] to the console and to
//! `PAPER_eval.json` (`cargo run -p dkindex-bench --release --bin
//! reproduce -- all`). [`gates`] holds the exact identity and determinism
//! gates behind `reproduce bench-smoke`; nothing in this crate is a
//! stopwatch — timing belongs to `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod datasets;
pub mod experiments;
pub mod faults;
pub mod gates;
pub mod loc;
pub mod net;
pub mod report;
pub mod tuning;
