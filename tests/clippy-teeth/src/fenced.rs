//! `clippy::disallowed_methods`: a module that re-denies the lint the way
//! `core::serve` does takes a raw `.lock()` outside an accessor, so its
//! guard could be live across anything that follows.

#![deny(clippy::disallowed_methods)]

use std::sync::Mutex;

/// Stands in for the serve memo: the guard is bound and would outlive the
/// statement.
pub fn bump(memo: &Mutex<u64>) -> u64 {
    let mut guard = memo
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *guard += 1;
    *guard
}
