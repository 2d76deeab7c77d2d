//! `dkindex` — command-line front-end for the D(k)-index library.
//!
//! Verbs and flags are listed once, in `commands::USAGE` (`dkindex --help`).
//!
//! `build` mines requirements from `--queries` (one path expression per
//! line) and/or explicit `--req label=k` pairs, constructs the D(k)-index
//! and stores graph + index in a single checksummed `.dki` snapshot;
//! `query` loads it and evaluates with validation (optionally under a
//! `--budget` visit cap); `add-edge` applies the paper's edge-addition
//! update — logging it durably first when `--wal` is given — and re-saves;
//! `snapshot`/`recover`/`doctor` are the durability verbs (write a
//! checksummed snapshot, gracefully rebuild a damaged one, audit the stored
//! invariants); `serve --listen` exposes the epoch-published serving layer
//! over the DKNP wire protocol (docs/PROTOCOL.md) with bounded queues and
//! typed load-shedding (docs/OPERATIONS.md) until stdin closes or
//! `--duration-ms` elapses, and `client` is the matching client.
//!
//! Every command accepts the global `--metrics <path>` flag: the hot-path
//! telemetry recorder (`dkindex-telemetry`) is enabled for the duration of
//! the command and the snapshot is written to `<path>` as JSON. `stats
//! --queries <file>` additionally runs the build → query pipeline on the
//! document and appends a human-readable telemetry report.
//!
//! Failures never panic: each [`commands::CliError`] class maps to its own
//! exit code (2 usage, 3 I/O, 4 corrupt input, 5 unsound index, 6 aborted
//! query, 7 serve maintenance thread died, 8 request shed — retry later).

#![forbid(unsafe_code)]

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            if e.exit_code() == 2 {
                eprintln!();
                eprintln!("{}", commands::USAGE);
            }
            ExitCode::from(e.exit_code())
        }
    }
}
