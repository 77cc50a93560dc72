//! Placement and lookup statistics: load factor, overflow, AMAL
//! (Sec. 2.1, Tables 2–3, Fig. 7).
//!
//! The paper's main cost/performance metrics:
//!
//! * **load factor** `α = N / (M × S)` over *original* records (duplicates
//!   created for don't-care hash bits are reported separately, matching the
//!   Table 2 convention);
//! * **overflowing buckets** — buckets from which at least one home record
//!   spilled;
//! * **spilled records** — records placed outside their home bucket;
//! * **AMAL** — average number of memory accesses per lookup, uniform
//!   (`AMALu`) or weighted by access frequency (`AMALs`).

/// Running placement statistics maintained by a table during construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlacementStats {
    original_records: u64,
    duplicate_records: u64,
    spilled_records: u64,
    /// Per-bucket count of *home* records that spilled (indexed lazily).
    sum_accesses: f64,
    weighted_accesses: f64,
    total_weight: f64,
    placed_records: u64,
}

impl PlacementStats {
    /// Creates empty statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the insertion of one original record that expanded into
    /// `placements` placed copies (1 unless don't-care hash bits forced
    /// duplication), each with the given probe displacement. `weight` is the
    /// record's access frequency (1.0 for the uniform model).
    ///
    /// # Panics
    ///
    /// Panics if `displacements` is empty or `weight` is negative.
    pub fn record_insert(&mut self, displacements: &[u32], weight: f64) {
        assert!(
            !displacements.is_empty(),
            "an insert places at least one copy"
        );
        assert!(weight >= 0.0, "access weight must be non-negative");
        self.original_records += 1;
        self.duplicate_records += displacements.len() as u64 - 1;
        for &d in displacements {
            self.placed_records += 1;
            if d > 0 {
                self.spilled_records += 1;
            }
        }
        // A lookup of this record costs displacement+1 accesses. For a
        // duplicated record the cost depends on which duplicate the search
        // key selects; we charge the mean over duplicates.
        #[allow(clippy::cast_precision_loss)]
        let mean_accesses = displacements
            .iter()
            .map(|&d| f64::from(d) + 1.0)
            .sum::<f64>()
            / displacements.len() as f64;
        self.sum_accesses += mean_accesses;
        self.weighted_accesses += mean_accesses * weight;
        self.total_weight += weight;
    }

    /// Number of original records inserted.
    #[must_use]
    pub fn original_records(&self) -> u64 {
        self.original_records
    }

    /// Extra copies created for don't-care hash bits.
    #[must_use]
    pub fn duplicate_records(&self) -> u64 {
        self.duplicate_records
    }

    /// Placed copies (original + duplicates).
    #[must_use]
    pub fn placed_records(&self) -> u64 {
        self.placed_records
    }

    /// Copies placed outside their home bucket.
    #[must_use]
    pub fn spilled_records(&self) -> u64 {
        self.spilled_records
    }

    /// Fraction of placed copies that spilled.
    #[must_use]
    pub fn spilled_fraction(&self) -> f64 {
        if self.placed_records == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.spilled_records as f64 / self.placed_records as f64
            }
        }
    }

    /// `AMALu`: mean accesses per lookup, uniform over records.
    #[must_use]
    pub fn amal_uniform(&self) -> f64 {
        if self.original_records == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum_accesses / self.original_records as f64
            }
        }
    }

    /// `AMALs`: mean accesses per lookup, weighted by access frequency.
    #[must_use]
    pub fn amal_weighted(&self) -> f64 {
        if self.total_weight == 0.0 {
            0.0
        } else {
            self.weighted_accesses / self.total_weight
        }
    }
}

/// Aggregate statistics over a stream of searches: searches, hits, and
/// memory accesses — the paper's AMAL numerator. Callers fold them from
/// the search outcomes they already hold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Searches performed.
    pub searches: u64,
    /// Searches that produced a hit.
    pub hits: u64,
    /// Total bucket fetches performed.
    pub memory_accesses: u64,
}

impl SearchStats {
    /// Creates empty statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one search outcome.
    pub fn record(&mut self, hit: bool, memory_accesses: u32) {
        self.searches += 1;
        self.hits += u64::from(hit);
        self.memory_accesses += u64::from(memory_accesses);
    }

    /// Folds other statistics into these. Merging is order-independent:
    /// all fields are sums.
    pub fn merge(&mut self, other: &SearchStats) {
        self.searches += other.searches;
        self.hits += other.hits;
        self.memory_accesses += other.memory_accesses;
    }

    /// Hit rate over the counted searches.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / self.searches as f64
            }
        }
    }

    /// Measured mean memory accesses per lookup (the live AMAL).
    #[must_use]
    pub fn measured_amal(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.memory_accesses as f64 / self.searches as f64
            }
        }
    }
}

/// Thread-safe search counters: the cell behind the subsystem's
/// per-database activity counters, which its `&self` search paths update.
///
/// Recording is a relaxed atomic add (cheap enough for the hot path);
/// [`AtomicSearchStats::snapshot`] materialises a plain [`SearchStats`] for
/// reporting. A batch folds its outcomes into a local [`SearchStats`] and
/// adds it once via [`AtomicSearchStats::merge`], so the totals are exactly
/// what per-key recording would have produced.
///
/// Counter reads are independent relaxed loads: a snapshot taken *while*
/// writers are recording may mix counts from different moments (each total
/// is still exact once writers finish).
#[derive(Debug, Default)]
pub struct AtomicSearchStats {
    searches: core::sync::atomic::AtomicU64,
    hits: core::sync::atomic::AtomicU64,
    memory_accesses: core::sync::atomic::AtomicU64,
}

impl AtomicSearchStats {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one search outcome.
    pub fn record(&self, hit: bool, memory_accesses: u32) {
        use core::sync::atomic::Ordering::Relaxed;
        self.searches.fetch_add(1, Relaxed);
        self.hits.fetch_add(u64::from(hit), Relaxed);
        self.memory_accesses
            .fetch_add(u64::from(memory_accesses), Relaxed);
    }

    /// Folds locally accumulated statistics (e.g. one batch's) into the
    /// cell.
    pub fn merge(&self, local: &SearchStats) {
        use core::sync::atomic::Ordering::Relaxed;
        self.searches.fetch_add(local.searches, Relaxed);
        self.hits.fetch_add(local.hits, Relaxed);
        self.memory_accesses
            .fetch_add(local.memory_accesses, Relaxed);
    }

    /// A plain-value copy of the current counters.
    #[must_use]
    pub fn snapshot(&self) -> SearchStats {
        use core::sync::atomic::Ordering::Relaxed;
        SearchStats {
            searches: self.searches.load(Relaxed),
            hits: self.hits.load(Relaxed),
            memory_accesses: self.memory_accesses.load(Relaxed),
        }
    }

    /// Zeroes the counters (e.g. per measurement epoch).
    pub fn reset(&self) {
        use core::sync::atomic::Ordering::Relaxed;
        self.searches.store(0, Relaxed);
        self.hits.store(0, Relaxed);
        self.memory_accesses.store(0, Relaxed);
    }
}

/// A snapshot report of a built table, in the shape of a Table 2 / Table 3
/// row.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Logical buckets (`M`).
    pub buckets: u64,
    /// Slots per logical bucket (`S`).
    pub slots_per_bucket: u32,
    /// Original records (`N`).
    pub original_records: u64,
    /// Duplicates created for don't-care hash bits.
    pub duplicate_records: u64,
    /// Copies placed outside their home bucket.
    pub spilled_records: u64,
    /// Buckets from which at least one home record spilled.
    pub overflowing_buckets: u64,
    /// `AMALu` over the built placement.
    pub amal_uniform: f64,
    /// `AMALs` over the built placement (equals `amal_uniform` when all
    /// weights were 1).
    pub amal_weighted: f64,
}

impl LoadReport {
    /// Load factor `α = N / (M × S)` over original records, the paper's
    /// convention. 0.0 (never NaN) for a degenerate zero-capacity table.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        let capacity = self.buckets * u64::from(self.slots_per_bucket);
        if capacity == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.original_records as f64 / capacity as f64
        }
    }

    /// Percentage of buckets that overflow (0.0, never NaN, for a
    /// zero-bucket table).
    #[must_use]
    pub fn overflowing_buckets_pct(&self) -> f64 {
        if self.buckets == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            100.0 * self.overflowing_buckets as f64 / self.buckets as f64
        }
    }

    /// Percentage of placed records that spilled.
    #[must_use]
    pub fn spilled_records_pct(&self) -> f64 {
        let placed = self.original_records + self.duplicate_records;
        if placed == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            100.0 * self.spilled_records as f64 / placed as f64
        }
    }
}

/// Histogram of bucket occupancies — the Fig. 7 artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancyHistogram {
    counts: Vec<u64>,
}

impl OccupancyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a histogram from per-bucket record counts.
    #[must_use]
    pub fn from_counts<I: IntoIterator<Item = u32>>(counts: I) -> Self {
        let mut h = Self::new();
        for c in counts {
            h.record(c);
        }
        h
    }

    /// Adds one bucket with `records` records.
    pub fn record(&mut self, records: u32) {
        let idx = records as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Number of buckets holding exactly `records` records.
    #[must_use]
    pub fn buckets_with(&self, records: u32) -> u64 {
        self.counts.get(records as usize).copied().unwrap_or(0)
    }

    /// Total buckets recorded.
    #[must_use]
    pub fn total_buckets(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Largest per-bucket record count observed.
    #[must_use]
    pub fn max_records(&self) -> u32 {
        u32::try_from(self.counts.len().saturating_sub(1)).unwrap_or(u32::MAX)
    }

    /// Mean records per bucket.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let total = self.total_buckets();
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(records, &buckets)| records as f64 * buckets as f64)
            .sum();
        #[allow(clippy::cast_precision_loss)]
        {
            sum / total as f64
        }
    }

    /// Fraction of buckets holding more than `threshold` records — the
    /// "non-overflowing region" boundary of Fig. 7.
    #[must_use]
    pub fn fraction_above(&self, threshold: u32) -> f64 {
        let total = self.total_buckets();
        if total == 0 {
            return 0.0;
        }
        let above: u64 = self
            .counts
            .iter()
            .enumerate()
            .skip(threshold as usize + 1)
            .map(|(_, &b)| b)
            .sum();
        #[allow(clippy::cast_precision_loss)]
        {
            above as f64 / total as f64
        }
    }

    /// `(records, buckets)` pairs in increasing record order, including
    /// zero-bucket gaps — the Fig. 7 series.
    #[allow(clippy::missing_panics_doc)] // indices bounded by u32 by `record`
    pub fn series(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(r, &b)| (u32::try_from(r).expect("histogram index fits u32"), b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_stats_basic() {
        let mut s = PlacementStats::new();
        s.record_insert(&[0], 1.0);
        s.record_insert(&[2], 1.0);
        s.record_insert(&[0, 1], 1.0); // duplicated record
        assert_eq!(s.original_records(), 3);
        assert_eq!(s.duplicate_records(), 1);
        assert_eq!(s.placed_records(), 4);
        assert_eq!(s.spilled_records(), 2);
        // AMALu = mean(1, 3, 1.5) = 11/6.
        assert!((s.amal_uniform() - 11.0 / 6.0).abs() < 1e-12);
        assert!((s.spilled_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_amal_prefers_hot_records() {
        let mut s = PlacementStats::new();
        s.record_insert(&[0], 10.0); // hot record in its home bucket
        s.record_insert(&[3], 1.0); // cold spilled record
        assert!((s.amal_uniform() - 2.5).abs() < 1e-12);
        // AMALs = (1*10 + 4*1) / 11.
        assert!((s.amal_weighted() - 14.0 / 11.0).abs() < 1e-12);
        assert!(s.amal_weighted() < s.amal_uniform());
    }

    #[test]
    fn search_stats_merge_is_a_sum() {
        let mut a = SearchStats::new();
        a.record(true, 1);
        a.record(false, 3);
        let mut b = SearchStats::new();
        b.record(true, 2);
        let mut whole = SearchStats::new();
        for (hit, cost) in [(true, 1), (false, 3), (true, 2)] {
            whole.record(hit, cost);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert!((a.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.measured_amal() - 2.0).abs() < 1e-12);
        assert_eq!(SearchStats::new().measured_amal(), 0.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = PlacementStats::new();
        assert_eq!(s.amal_uniform(), 0.0);
        assert_eq!(s.amal_weighted(), 0.0);
        assert_eq!(s.spilled_fraction(), 0.0);
    }

    /// Pins the zero-division edge of every ratio in the stats family:
    /// empty inputs must yield exactly 0.0, never NaN (a NaN here poisons
    /// downstream JSON exports and report arithmetic silently).
    #[test]
    fn empty_ratios_are_zero_not_nan() {
        let s = SearchStats::new();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.measured_amal(), 0.0);
        let atomic = AtomicSearchStats::new();
        assert_eq!(atomic.snapshot().hit_rate(), 0.0);
        assert_eq!(atomic.snapshot().measured_amal(), 0.0);
        let degenerate = LoadReport {
            buckets: 0,
            slots_per_bucket: 0,
            original_records: 0,
            duplicate_records: 0,
            spilled_records: 0,
            overflowing_buckets: 0,
            amal_uniform: 0.0,
            amal_weighted: 0.0,
        };
        assert_eq!(degenerate.load_factor(), 0.0);
        assert_eq!(degenerate.overflowing_buckets_pct(), 0.0);
        assert_eq!(degenerate.spilled_records_pct(), 0.0);
        assert!(degenerate.load_factor().is_finite());
        // Buckets without slots is still zero capacity.
        let no_slots = LoadReport {
            buckets: 8,
            ..degenerate
        };
        assert_eq!(no_slots.load_factor(), 0.0);
    }

    #[test]
    fn load_report_percentages() {
        let r = LoadReport {
            buckets: 2048,
            slots_per_bucket: 192,
            original_records: 186_760,
            duplicate_records: 12_035,
            spilled_records: 31_450,
            overflowing_buckets: 250,
            amal_uniform: 1.476,
            amal_weighted: 1.425,
        };
        assert!((r.load_factor() - 186_760.0 / (2048.0 * 192.0)).abs() < 1e-12);
        assert!((r.overflowing_buckets_pct() - 100.0 * 250.0 / 2048.0).abs() < 1e-9);
        assert!((r.spilled_records_pct() - 100.0 * 31_450.0 / 198_795.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_series_and_moments() {
        let h = OccupancyHistogram::from_counts([3, 3, 5, 0, 1]);
        assert_eq!(h.total_buckets(), 5);
        assert_eq!(h.buckets_with(3), 2);
        assert_eq!(h.buckets_with(99), 0);
        assert_eq!(h.max_records(), 5);
        assert!((h.mean() - 12.0 / 5.0).abs() < 1e-12);
        let series: Vec<(u32, u64)> = h.series().collect();
        assert_eq!(series, vec![(0, 1), (1, 1), (2, 0), (3, 2), (4, 0), (5, 1)]);
    }

    #[test]
    fn histogram_fraction_above_threshold() {
        let h = OccupancyHistogram::from_counts([90, 95, 96, 97, 100]);
        // Buckets with more than 96 records: 97 and 100 -> 2/5.
        assert!((h.fraction_above(96) - 0.4).abs() < 1e-12);
        assert_eq!(h.fraction_above(1000), 0.0);
    }

    #[test]
    fn empty_histogram() {
        let h = OccupancyHistogram::new();
        assert_eq!(h.total_buckets(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.fraction_above(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one copy")]
    fn empty_insert_rejected() {
        let mut s = PlacementStats::new();
        s.record_insert(&[], 1.0);
    }
}
