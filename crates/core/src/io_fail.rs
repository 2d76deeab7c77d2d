//! Deterministic fail-point storage for the crash-recovery torture harness.
//!
//! [`SimDisk`] is an in-memory [`crate::wal::WalStore`] that models the two
//! layers a real WAL file lives in: the *cache* (everything written) and
//! *stable storage* (everything synced). A [`FailPlan`] injects the two
//! failure shapes that matter for a write-ahead log:
//!
//! * **fsync failure** — the Nth sync returns a typed error and stable
//!   storage does not advance (the fsyncgate model: once a sync has failed,
//!   the device is treated as dying and every later call fails too —
//!   retrying a failed fsync and believing the second `Ok` is the classic
//!   durability bug this layer exists to catch);
//! * **torn write** — the Nth write persists only its first K bytes into
//!   the cache and then errors, modeling a crash partway through a
//!   `write(2)`.
//!
//! After a simulated crash, the surviving file is `durable()` plus *any
//! prefix* of the unsynced cached tail ([`SimDisk::crash_view`]) — the
//! kernel may have written back some of the page cache before the crash,
//! but this layer assumes write-back preserves append order (a prefix, not
//! an arbitrary byte subset). The torture harness in `bench::crash` sweeps
//! `extra` over every offset of that tail, so every possible surviving
//! file is decoded and replayed.
//!
//! Everything here is deterministic: no clocks, no OS state, no
//! randomness. Seeding lives in the harness (which picks the plans); this
//! module only executes them. It denies the same panic and hash-iteration
//! lints as the WAL it stands in for.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type
)]

use crate::wal::WalStore;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};

/// Which injected failures a [`SimDisk`] executes, chosen by the harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct FailPlan {
    /// Fail the Nth `sync` call (0-based). Stable storage does not advance
    /// and the disk goes sticky-failed.
    pub fail_sync_at: Option<u64>,
    /// Tear the Nth `write` call (0-based): persist only the first K bytes
    /// of the buffer into the cache, then error and go sticky-failed.
    pub torn_write_at: Option<(u64, usize)>,
}

impl FailPlan {
    /// A plan with no injected failures (the healthy-disk baseline).
    pub fn none() -> FailPlan {
        FailPlan::default()
    }
}

/// In-memory two-layer disk with fail-point injection. See the module docs
/// for the model.
#[derive(Debug)]
pub struct SimDisk {
    cached: Vec<u8>,
    durable_len: usize,
    plan: FailPlan,
    writes: u64,
    syncs: u64,
    failed: bool,
}

impl SimDisk {
    /// A fresh, empty disk executing `plan`.
    pub fn new(plan: FailPlan) -> SimDisk {
        SimDisk {
            cached: Vec::new(),
            durable_len: 0,
            plan,
            writes: 0,
            syncs: 0,
            failed: false,
        }
    }

    /// Bytes guaranteed on stable storage (survive any crash).
    pub fn durable(&self) -> &[u8] {
        self.cached.get(..self.durable_len).unwrap_or(&self.cached)
    }

    /// Everything written, synced or not — the page-cache view.
    pub fn cached(&self) -> &[u8] {
        &self.cached
    }

    /// Cached bytes not yet on stable storage.
    pub fn unsynced_len(&self) -> usize {
        self.cached.len().saturating_sub(self.durable_len)
    }

    /// The file as a crash would leave it: stable storage plus the first
    /// `extra` bytes of the unsynced tail (clamped). The harness sweeps
    /// `extra` over `0..=unsynced_len()`.
    pub fn crash_view(&self, extra: usize) -> Vec<u8> {
        let len = self
            .durable_len
            .saturating_add(extra.min(self.unsynced_len()))
            .min(self.cached.len());
        self.cached.get(..len).unwrap_or(&self.cached).to_vec()
    }

    /// `write` calls observed so far (torn or not).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// `sync` calls observed so far (failed or not).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Has an injected failure fired (disk is sticky-failed)?
    pub fn failed(&self) -> bool {
        self.failed
    }

    fn sticky(&self) -> io::Result<()> {
        if self.failed {
            return Err(io::Error::other("simulated disk failed earlier"));
        }
        Ok(())
    }
}

impl WalStore for SimDisk {
    fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
        self.sticky()?;
        let this_write = self.writes;
        self.writes += 1;
        if let Some((at, keep)) = self.plan.torn_write_at {
            if this_write == at {
                let kept = buf.get(..keep.min(buf.len())).unwrap_or(buf);
                self.cached.extend_from_slice(kept);
                self.failed = true;
                return Err(io::Error::other(format!(
                    "simulated torn write: {} of {} bytes persisted",
                    kept.len(),
                    buf.len()
                )));
            }
        }
        self.cached.extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sticky()?;
        let this_sync = self.syncs;
        self.syncs += 1;
        if self.plan.fail_sync_at == Some(this_sync) {
            self.failed = true;
            return Err(io::Error::other("simulated fsync failure"));
        }
        self.durable_len = self.cached.len();
        Ok(())
    }
}

/// A cloneable handle over one [`SimDisk`], so the torture harness can keep
/// inspecting crash views while a `WalWriter` (possibly on the serve
/// maintenance thread) owns the other handle.
#[derive(Clone, Debug)]
pub struct SharedDisk {
    inner: Arc<Mutex<SimDisk>>,
}

impl SharedDisk {
    /// A fresh shared disk executing `plan`.
    pub fn new(plan: FailPlan) -> SharedDisk {
        SharedDisk { inner: Arc::new(Mutex::new(SimDisk::new(plan))) }
    }

    /// Run `f` against the disk under the lock (used by the harness to take
    /// crash views and read counters).
    pub fn view<R>(&self, f: impl FnOnce(&SimDisk) -> R) -> R {
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        f(&guard)
    }
}

impl WalStore for SharedDisk {
    fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        guard.write_all_bytes(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        guard.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_disk_advances_durable_on_sync() {
        let mut d = SimDisk::new(FailPlan::none());
        d.write_all_bytes(b"abc").unwrap();
        assert_eq!(d.durable(), b"");
        assert_eq!(d.cached(), b"abc");
        d.sync().unwrap();
        assert_eq!(d.durable(), b"abc");
        d.write_all_bytes(b"de").unwrap();
        assert_eq!(d.durable(), b"abc");
        assert_eq!(d.unsynced_len(), 2);
        assert_eq!(d.crash_view(0), b"abc");
        assert_eq!(d.crash_view(1), b"abcd");
        assert_eq!(d.crash_view(99), b"abcde");
    }

    #[test]
    fn failed_sync_is_sticky_and_keeps_durable_frozen() {
        let mut d = SimDisk::new(FailPlan { fail_sync_at: Some(1), torn_write_at: None });
        d.write_all_bytes(b"abc").unwrap();
        d.sync().unwrap();
        d.write_all_bytes(b"def").unwrap();
        assert!(d.sync().is_err(), "second sync is planned to fail");
        assert_eq!(d.durable(), b"abc", "failed sync must not advance durability");
        assert!(d.failed());
        // fsyncgate: a retry must NOT report success.
        assert!(d.sync().is_err());
        assert!(d.write_all_bytes(b"x").is_err());
    }

    #[test]
    fn torn_write_keeps_a_prefix_and_errors() {
        let mut d = SimDisk::new(FailPlan { fail_sync_at: None, torn_write_at: Some((1, 2)) });
        d.write_all_bytes(b"abc").unwrap();
        let err = d.write_all_bytes(b"defg").unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        assert_eq!(d.cached(), b"abcde", "only the first 2 bytes of write 1 persist");
        assert!(d.sync().is_err(), "disk is sticky-failed after the tear");
        assert_eq!(d.durable(), b"");
    }

    #[test]
    fn shared_disk_delegates_and_views() {
        let shared = SharedDisk::new(FailPlan::none());
        let mut writer_handle = shared.clone();
        writer_handle.write_all_bytes(b"xy").unwrap();
        writer_handle.sync().unwrap();
        assert_eq!(shared.view(|d| d.durable().to_vec()), b"xy");
        assert_eq!(shared.view(|d| (d.writes(), d.syncs())), (1, 1));
    }
}
