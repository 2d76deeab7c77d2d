//! Fixed-size log2-bucket histograms.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: bucket 0 holds the value `0`, bucket `i` (1 ≤ i ≤ 64)
/// holds values in `[2^(i-1), 2^i - 1]` — together they cover all of `u64`.
pub const BUCKETS: usize = 65;

/// What a histogram's recorded values mean, for rendering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless counts (nodes visited, blocks, splits, ...).
    Count,
    /// Durations in nanoseconds (span timers).
    Nanos,
}

impl Unit {
    /// The snapshot/JSON identifier of the unit.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Nanos => "ns",
        }
    }
}

/// A named log2-bucket histogram over `u64` values.
///
/// Like [`crate::Counter`], it is `const`-constructible (so metrics are
/// `static`s), lock-free (per-bucket `AtomicU64`s), and
/// [`record`](Histogram::record) is a no-op while the recorder is off.
/// Alongside the buckets it tracks `sum`, `count`, `min` and `max`, so
/// snapshots can report both the distribution shape and exact totals.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    unit: Unit,
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// The bucket a value lands in: 0 for 0, `ilog2(v) + 1` otherwise.
#[inline]
pub(crate) fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        value.ilog2() as usize + 1
    }
}

/// The largest value bucket `i` can hold (`0`, then `2^i - 1`).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// A fresh empty histogram. `name` is the stable snapshot identifier.
    pub const fn new(name: &'static str, unit: Unit) -> Self {
        #[expect(
            clippy::declare_interior_mutable_const,
            reason = "only an array-repeat initializer; every bucket gets its own atomic"
        )]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            unit,
            buckets: [ZERO; BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The unit recorded values are measured in.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Record one observation if the recorder is enabled; no-op otherwise.
    #[inline]
    pub fn record(&self, value: u64) {
        if !crate::is_enabled() {
            return;
        }
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }

    /// Largest recorded value, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// The count in bucket `i` (see [`BUCKETS`] for the bucket layout).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        (0..BUCKETS)
            .filter_map(|i| {
                let n = self.bucket(i);
                (n > 0).then(|| (bucket_upper_bound(i), n))
            })
            .collect()
    }

    /// Upper bound of the bucket where the cumulative count first reaches
    /// `q` (0.0–1.0) of all observations, clamped to the observed
    /// `[min, max]` — a log2-resolution quantile estimate that never
    /// reports a value outside what was recorded. `None` if the histogram
    /// is empty.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        let max = self.max()?;
        let target = (q.clamp(0.0, 1.0) * self.count() as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for i in 0..BUCKETS {
            cumulative += self.bucket(i);
            if cumulative >= target {
                // A non-empty bucket's edge is already ≥ the observed
                // minimum; only the upper side can overshoot.
                return Some(bucket_upper_bound(i).min(max));
            }
        }
        Some(max)
    }

    /// Clear every bucket and the sum/count/min/max trackers.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::recorder_lock;

    static TEST_HIST: Histogram = Histogram::new("test.hist", Unit::Count);

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn record_tracks_sum_count_min_max_and_buckets() {
        let _guard = recorder_lock();
        TEST_HIST.reset();
        crate::enable();
        for v in [0, 1, 2, 3, 9, 9] {
            TEST_HIST.record(v);
        }
        crate::disable();
        assert_eq!(TEST_HIST.count(), 6);
        assert_eq!(TEST_HIST.sum(), 24);
        assert_eq!(TEST_HIST.min(), Some(0));
        assert_eq!(TEST_HIST.max(), Some(9));
        assert_eq!(TEST_HIST.bucket(0), 1); // value 0
        assert_eq!(TEST_HIST.bucket(1), 1); // value 1
        assert_eq!(TEST_HIST.bucket(2), 2); // values 2, 3
        assert_eq!(TEST_HIST.bucket(4), 2); // the two 9s
        assert_eq!(
            TEST_HIST.nonzero_buckets(),
            vec![(0, 1), (1, 1), (3, 2), (15, 2)]
        );
        TEST_HIST.reset();
        assert_eq!(TEST_HIST.count(), 0);
        assert_eq!(TEST_HIST.min(), None);
        assert_eq!(TEST_HIST.max(), None);
    }

    #[test]
    fn quantiles_walk_the_cumulative_buckets() {
        let _guard = recorder_lock();
        TEST_HIST.reset();
        crate::enable();
        for _ in 0..99 {
            TEST_HIST.record(1);
        }
        TEST_HIST.record(1000);
        crate::disable();
        assert_eq!(TEST_HIST.quantile_upper_bound(0.5), Some(1));
        assert_eq!(TEST_HIST.quantile_upper_bound(0.99), Some(1));
        // Regression: quantiles used to be raw bucket edges — 1023 here,
        // above anything recorded. They are clamped to the observed max.
        assert_eq!(TEST_HIST.quantile_upper_bound(1.0), Some(1000));
        TEST_HIST.reset();
        assert_eq!(TEST_HIST.quantile_upper_bound(0.5), None);
        // 70, 80 and 96 share bucket [64, 127]: every quantile is 96, not 127.
        crate::enable();
        [70, 80, 96].into_iter().for_each(|v| TEST_HIST.record(v));
        crate::disable();
        assert_eq!(TEST_HIST.quantile_upper_bound(0.5), Some(96));
        assert_eq!(TEST_HIST.quantile_upper_bound(0.99), Some(96));
        TEST_HIST.reset();
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _guard = recorder_lock();
        TEST_HIST.reset();
        crate::disable();
        TEST_HIST.record(5);
        assert_eq!(TEST_HIST.count(), 0);
    }
}
