//! Teeth check for the lints that carry the workspace's panic-freedom,
//! hash-order, must-consume, unsafe and guard contracts (ARCHITECTURE.md
//! §6). Every item breaks one of them, and `make verify-analysis` fails
//! unless `cargo clippy` under the Makefile's `CLIPPY_LINTS` reports the
//! lint named in the item's doc. This crate never compiles clean.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type,
    clippy::let_underscore_must_use
)]

use std::collections::HashMap;
use std::sync::mpsc::Sender;

pub mod fenced;

/// `clippy::iter_over_hash_type`: two runs with different hash seeds
/// produce different bytes.
pub fn fingerprint(counts: &HashMap<String, u32>) -> String {
    let mut out = String::new();
    for (label, count) in counts {
        out.push_str(label);
        out.push_str(&count.to_string());
    }
    out
}

/// `clippy::unwrap_used`: panics on an empty frame.
pub fn header_len(bytes: &[u8]) -> usize {
    usize::from(*bytes.first().unwrap())
}

/// `clippy::indexing_slicing`: panics out of bounds.
pub fn byte_at(bytes: &[u8], i: usize) -> u8 {
    bytes[i]
}

/// `clippy::panic`: a malformed tag takes the process down.
pub fn check_tag(tag: u8) {
    if tag > 4 {
        panic!("bad tag {tag}");
    }
}

/// Stands in for `DurableAck`.
#[must_use]
pub struct Ack;

/// Stands in for `submit_logged`.
pub fn submit_logged() -> Ack {
    Ack
}

/// `clippy::let_underscore_must_use`, `unused_must_use` and
/// `unused_variables`: the send outcome discarded, the send outcome
/// dropped on the floor, and an ack bound but never waited on.
pub fn ack(tx: &Sender<u64>, epoch: u64) {
    let _ = tx.send(epoch);
    tx.send(epoch);
    let ack = submit_logged();
}

/// `unsafe_code`, forbidden on the command line.
pub fn first_unchecked(bytes: &[u8]) -> u8 {
    unsafe { *bytes.get_unchecked(0) }
}

/// `clippy::allow_attributes_without_reason`.
#[allow(dead_code)]
fn unexplained() {}

/// `unfulfilled_lint_expectations`: nothing here unwraps any more.
#[expect(clippy::unwrap_used, reason = "the unwrap this covered is gone")]
pub fn stale() -> u8 {
    0
}
