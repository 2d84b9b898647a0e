//! Log-bucketed histograms.
//!
//! Values are bucketed by bit width: bucket `i` covers `[2^(i-1), 2^i - 1]`
//! (bucket 0 holds exactly the value 0), so 65 buckets span all of `u64`.
//! This gives constant-time, allocation-free recording with ≤ 2× relative
//! error on quantile estimates — plenty for latency/size distributions —
//! and the exposition layer only emits the non-empty buckets.

use crate::enabled;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of buckets: one for zero plus one per bit width of `u64`.
pub const BUCKETS: usize = 65;

/// Index of the bucket that covers `value`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `index`.
#[inline]
pub fn bucket_bound(index: usize) -> u64 {
    if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// Shared storage for one histogram.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((bucket_bound(i), n));
            }
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A handle onto a registered histogram. Cloning is cheap; all clones share
/// one core.
#[derive(Debug, Clone)]
pub struct Histogram {
    pub(crate) core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation. No-op (a single relaxed load) while
    /// observability is disabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if enabled() {
            self.core.record(value);
        }
    }

    /// Records a duration in **nanoseconds** (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core.snapshot()
    }
}

/// A point-in-time copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimated quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q * count)`, clamped to
    /// the observed `max`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bound.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(10), 1023);
        assert_eq!(bucket_bound(64), u64::MAX);
        // Every value's bucket bound is >= the value.
        for v in [0u64, 1, 2, 3, 7, 8, 1 << 20, u64::MAX - 1, u64::MAX] {
            assert!(bucket_bound(bucket_index(v)) >= v, "v={v}");
        }
    }

    #[test]
    fn snapshot_and_quantiles() {
        let core = HistogramCore::new();
        for v in [0u64, 1, 2, 3, 100, 1000, u64::MAX] {
            core.record(v);
        }
        let snap = core.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(
            snap.sum,
            0u64.wrapping_add(1 + 2 + 3 + 100 + 1000)
                .wrapping_add(u64::MAX)
        );
        // buckets: 0→1, 1→1, [2,3]→2, [64,127]→1, [512,1023]→1, overflow→1
        assert_eq!(
            snap.buckets,
            vec![(0, 1), (1, 1), (3, 2), (127, 1), (1023, 1), (u64::MAX, 1)]
        );
        assert_eq!(snap.quantile(0.0), 0);
        assert_eq!(snap.quantile(0.5), 3);
        assert_eq!(snap.quantile(1.0), u64::MAX);
    }

    #[test]
    fn empty_snapshot() {
        let snap = HistogramCore::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.mean(), 0);
        assert_eq!(snap.quantile(0.99), 0);
        assert!(snap.buckets.is_empty());
    }
}
