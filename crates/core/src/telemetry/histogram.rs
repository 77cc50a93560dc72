//! Lock-free power-of-two-bucketed histograms.
//!
//! The paper's evaluation is built on *distributions* — probe lengths
//! (Fig. 7 is a bucket-occupancy distribution, AMAL is the mean of the
//! per-lookup access distribution), queue depths, and latencies under
//! load. Flat counters ([`crate::stats::SearchStats`]) lose everything but
//! the mean; these histograms keep the shape at a fixed, tiny cost. Their
//! exact count and sum carry the flat counters too: a
//! [`super::HistogramSink`] snapshot derives its searches and memory
//! accesses from the `row_fetches` histogram instead of counting them
//! twice.
//!
//! Values are bucketed by bit width: bucket 0 holds the value 0 and bucket
//! `i ≥ 1` holds `[2^(i-1), 2^i - 1]`. That makes recording branch-free
//! (`64 - leading_zeros`), the memory footprint constant (65 buckets cover
//! the whole `u64` range), and the relative error of any derived quantile
//! at most 2× — the same trade HdrHistogram-style recorders make at their
//! coarsest setting.
//!
//! Two flavours mirror the [`crate::stats`] pair:
//!
//! * [`Histogram`] — a plain value, accumulated single-threaded and
//!   combined with [`Histogram::merge`] (order-independent sums);
//! * [`AtomicHistogram`] — the shared recording cell: relaxed
//!   `fetch_add`s on the hot path, [`AtomicHistogram::snapshot`] to
//!   materialise a plain [`Histogram`], [`AtomicHistogram::merge`] to fold
//!   in a locally accumulated histogram, exactly like
//!   [`crate::stats::AtomicSearchStats`].

use core::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of power-of-two buckets: one for zero plus one per bit of `u64`.
pub const BUCKETS: usize = 65;

/// The bucket index of `value`: 0 for 0, else `1 + floor(log2(value))`.
#[must_use]
#[inline]
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive `[low, high]` value range of bucket `index`.
///
/// # Panics
///
/// Panics if `index >= BUCKETS`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKETS, "bucket index {index} out of range");
    match index {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        i => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// A plain-value power-of-two histogram with exact count and sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Records `n` observations of `value` at once.
    pub fn record_n(&mut self, value: u64, n: u64) {
        self.counts[bucket_of(value)] += n;
        self.count += n;
        self.sum += value * n;
    }

    /// Folds another histogram into this one. Merging is
    /// order-independent: all fields are sums.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of the recorded values (0.0 when empty, never NaN).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum as f64 / self.count as f64
            }
        }
    }

    /// Raw per-bucket counts, including empty buckets.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Index of the highest non-empty bucket (`None` when empty).
    #[must_use]
    pub fn max_bucket(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`) of the recorded
    /// values: the inclusive upper edge of the first bucket whose
    /// cumulative count reaches `q × count`. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return 0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_sign_loss,
            clippy::cast_possible_truncation
        )]
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return bucket_bounds(i).1;
            }
        }
        bucket_bounds(BUCKETS - 1).1
    }

    /// The window between two cumulative snapshots of the same recorder:
    /// per-bucket, count, and sum differences, saturating at zero so a
    /// racy snapshot pair degrades to an undercount instead of wrapping.
    #[must_use]
    pub fn diff(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (slot, (&now, &then)) in out
            .counts
            .iter_mut()
            .zip(self.counts.iter().zip(&earlier.counts))
        {
            *slot = now.saturating_sub(then);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// Observations strictly above `threshold`, counting only buckets
    /// whose entire range exceeds it — a conservative lower bound, since
    /// the bucket containing `threshold` may hold values on either side.
    #[must_use]
    pub fn count_above(&self, threshold: u64) -> u64 {
        let first = bucket_of(threshold) + 1;
        self.counts[first.min(BUCKETS)..].iter().sum()
    }

    /// `(low, high, count)` per bucket, from bucket 0 through the highest
    /// non-empty bucket (nothing when empty) — the export series.
    pub fn series(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        let last = self.max_bucket().map_or(0, |i| i + 1);
        self.counts[..last].iter().enumerate().map(|(i, &c)| {
            let (low, high) = bucket_bounds(i);
            (low, high, c)
        })
    }
}

/// Thread-safe histogram cell: relaxed atomic recording on hot paths,
/// plain-value snapshots for reporting.
///
/// Counter reads in [`AtomicHistogram::snapshot`] are independent relaxed
/// loads: a snapshot taken *while* writers are recording may mix counts
/// from different moments (each total is still exact once writers finish)
/// — the same contract as [`crate::stats::AtomicSearchStats::snapshot`].
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self {
            counts: core::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value` (three relaxed adds).
    #[inline]
    pub fn record(&self, value: u64) {
        self.counts[bucket_of(value)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
    }

    /// Records `n` observations of `value` at the cost of one — lets a
    /// batch completion amortise recording across its keys.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        self.counts[bucket_of(value)].fetch_add(n, Relaxed);
        self.count.fetch_add(n, Relaxed);
        self.sum.fetch_add(value.saturating_mul(n), Relaxed);
    }

    /// Folds a shard's locally accumulated histogram into the cell.
    pub fn merge(&self, shard: &Histogram) {
        for (cell, &c) in self.counts.iter().zip(shard.counts.iter()) {
            if c > 0 {
                cell.fetch_add(c, Relaxed);
            }
        }
        self.count.fetch_add(shard.count, Relaxed);
        self.sum.fetch_add(shard.sum, Relaxed);
    }

    /// A plain-value copy of the current counters.
    #[must_use]
    pub fn snapshot(&self) -> Histogram {
        Histogram {
            counts: core::array::from_fn(|i| self.counts[i].load(Relaxed)),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
        }
    }

    /// Zeroes the histogram (e.g. per measurement epoch).
    pub fn reset(&self) {
        for cell in &self.counts {
            cell.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
    }
}

impl Clone for AtomicHistogram {
    fn clone(&self) -> Self {
        let out = Self::new();
        out.merge(&self.snapshot());
        out
    }
}

impl From<Histogram> for AtomicHistogram {
    fn from(h: Histogram) -> Self {
        let out = Self::new();
        out.merge(&h);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            let (low, high) = bucket_bounds(i);
            assert!(low <= high);
            assert_eq!(bucket_of(low), i, "low edge of bucket {i}");
            assert_eq!(bucket_of(high), i, "high edge of bucket {i}");
        }
        // Buckets tile the u64 range with no gaps.
        for i in 1..BUCKETS {
            assert_eq!(bucket_bounds(i).0, bucket_bounds(i - 1).1 + 1);
        }
    }

    #[test]
    fn record_count_sum_mean() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert!((h.mean() - 201.2).abs() < 1e-12);
        assert_eq!(h.bucket_counts()[0], 1); // the 0
        assert_eq!(h.bucket_counts()[1], 1); // the 1
        assert_eq!(h.bucket_counts()[2], 2); // 2 and 3
        assert_eq!(h.bucket_counts()[10], 1); // 1000 in [512, 1023]
        assert_eq!(h.max_bucket(), Some(10));
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = Histogram::new();
        a.record_n(7, 3);
        let mut b = Histogram::new();
        for _ in 0..3 {
            b.record(7);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_is_a_sum() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(100);
        let mut b = Histogram::new();
        b.record(100);
        let mut whole = Histogram::new();
        for v in [1, 100, 100] {
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(1);
        }
        h.record(1000);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.99), 1);
        assert_eq!(h.quantile(1.0), 1023); // upper edge of 1000's bucket
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn diff_is_a_saturating_window() {
        let mut earlier = Histogram::new();
        earlier.record(1);
        earlier.record(100);
        let mut later = earlier.clone();
        later.record(100);
        later.record(5000);
        let window = later.diff(&earlier);
        assert_eq!(window.count(), 2);
        assert_eq!(window.sum(), 5100);
        assert_eq!(window.bucket_counts()[bucket_of(100)], 1);
        assert_eq!(window.bucket_counts()[bucket_of(5000)], 1);
        // Reversed operands saturate to empty rather than wrapping.
        let reversed = earlier.diff(&later);
        assert_eq!(reversed.count(), 0);
        assert_eq!(reversed.sum(), 0);
        assert!(reversed.bucket_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn count_above_is_a_conservative_bucket_bound() {
        let mut h = Histogram::new();
        for v in [0, 1, 100, 1000, 100_000] {
            h.record(v);
        }
        // Threshold 1000 lives in bucket [512, 1023]; only strictly
        // higher buckets count.
        assert_eq!(h.count_above(1000), 1);
        assert_eq!(h.count_above(1023), 1);
        assert_eq!(h.count_above(0), 4);
        assert_eq!(h.count_above(u64::MAX), 0);
    }

    #[test]
    fn series_stops_at_last_nonempty_bucket() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(5);
        let series: Vec<(u64, u64, u64)> = h.series().collect();
        assert_eq!(series.len(), 4); // buckets 0..=3
        assert_eq!(series[0], (0, 0, 1));
        assert_eq!(series[3], (4, 7, 1));
        assert_eq!(Histogram::new().series().count(), 0);
    }

    #[test]
    fn atomic_record_snapshot_merge_reset() {
        let cell = AtomicHistogram::new();
        cell.record(4);
        cell.record(4);
        let mut shard = Histogram::new();
        shard.record(9);
        cell.merge(&shard);
        let snap = cell.snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.sum(), 17);
        assert_eq!(snap.bucket_counts()[3], 2);
        assert_eq!(snap.bucket_counts()[4], 1);
        let cloned = cell.clone();
        assert_eq!(cloned.snapshot(), snap);
        cell.reset();
        assert!(cell.snapshot().is_empty());
        assert_eq!(AtomicHistogram::from(snap.clone()).snapshot(), snap);
    }
}
