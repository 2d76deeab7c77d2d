//! The library half of `dkbench`, the repository's benchmark: inputs, the
//! timed DKNP phases, the staged per-layer replay, and the comparison of
//! result files. `main.rs` is the command line; see `benchmark/README.md`.

pub mod inputs;
pub mod json;
pub mod layers;
pub mod phases;
pub mod pin;
pub mod report;
pub mod run;
pub mod session;
pub mod stats;
pub mod trace;

/// `Send + Sync` so the staged replay can hand its error across a thread.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;
