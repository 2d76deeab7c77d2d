//! `dkindex-server`: the network serving front-end for the D(k)-index.
//!
//! Exposes the epoch-published concurrent serve layer
//! (`dkindex_core::serve`) over DKNP, a length-prefixed binary protocol on
//! plain `std::net` TCP (the toolchain is offline — no async runtime).
//! The wire format is specified normatively in docs/PROTOCOL.md and the
//! operational envelope (tuning, telemetry, capacity planning) in
//! docs/OPERATIONS.md; the serving architecture is ARCHITECTURE.md §7.
//!
//! Three design rules, enforced across the module tree:
//!
//! 1. **Every queue is bounded, every refusal is typed.** The accept
//!    queue sheds connections, the staleness gate sheds updates — both
//!    with SHED frames that tell the client it is safe to retry
//!    (PROTOCOL.md §5.2). Overload can never grow memory without bound or
//!    silently stretch latency.
//! 2. **The wire cannot panic the server.** [`protocol`] and the
//!    connection handler are in the `dkindex-analyze` `panic-path` scope:
//!    arbitrary bytes decode to typed errors, full stop.
//! 3. **The network layer adds no nondeterminism to the index.** Admitted
//!    updates flow through the same single maintenance thread in
//!    admission order; the net bench replays the admitted sequence through
//!    the serial oracle and compares snapshot bytes
//!    (`reproduce verify-net`).

#![forbid(unsafe_code)]

mod client;
mod conn;
pub mod protocol;
mod server;

pub use client::{ConnectError, NetClient, DEFAULT_IO_TIMEOUT};
pub use protocol::{DecodeError, ErrorCode, Frame, ShedReason};
pub use server::{NetConfig, NetServer, NetShutdown};
