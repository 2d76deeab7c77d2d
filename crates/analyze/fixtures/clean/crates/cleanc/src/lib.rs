//! Fixture: a module placed inside every rule scope that satisfies every
//! contract — a guard that never spans a blocking call, and a registered,
//! documented metric used at a call site.
#![forbid(unsafe_code)]

pub mod cli;
pub mod protocol;
pub mod registry;

use std::fs::File;
use std::sync::{PoisonError, RwLock};

/// Publishes an epoch the disciplined way: fsync *before* taking the
/// write guard, which then lives only for the pointer store.
pub fn publish(current: &RwLock<u64>, file: &File, next: u64) -> std::io::Result<()> {
    file.sync_all()?;
    let mut guard = current.write().unwrap_or_else(PoisonError::into_inner);
    *guard = next;
    Ok(())
}

/// Reads the registered counter, marking it live at a call site.
pub fn tick_name() -> &'static str {
    registry::SERVE_TICKS.name
}
