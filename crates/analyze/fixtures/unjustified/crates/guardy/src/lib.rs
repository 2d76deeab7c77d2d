//! Fixture: an allow comment with no justification — the escape hatch
//! demands a reason, so guard-discipline must still fire.
#![forbid(unsafe_code)]

use std::fs::File;
use std::sync::RwLock;

/// Fsyncs under the epoch write guard, behind an allow that explains
/// nothing.
pub fn publish(current: &RwLock<u64>, file: &File, next: u64) -> std::io::Result<()> {
    let mut guard = current.write().unwrap();
    // analyze: allow(guard-discipline)
    file.sync_all()?;
    *guard = next;
    Ok(())
}
