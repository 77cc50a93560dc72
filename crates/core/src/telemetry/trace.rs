//! The [`TelemetrySink`] trait and its built-in sinks.
//!
//! Instrumented components ([`crate::table::CaRamTable`],
//! [`crate::subsystem::CaRamSubsystem`]) hold an
//! `Option<Arc<dyn TelemetrySink>>`; the input-controller model takes any
//! sink by reference. With no sink installed the hot path pays a single
//! pointer-null branch. With a sink installed, the traced search path
//! reports:
//!
//! * per-stage events mirroring the paper's Fig. 4 pipeline (hash → row
//!   fetch → match → priority-decode/extract, plus the overflow probe);
//! * a [`ProbeSummary`] per completed search;
//! * bucket occupancy at insert time (the live Fig. 7 series);
//! * queue depth and wait cycles from the subsystem input controller.
//!
//! Every trait method has an inline no-op default, so a sink implements
//! only what it wants. [`HistogramSink`] is the production sink (lock-free
//! histograms, shareable across threads); [`TraceBuffer`] records discrete
//! events for tests; [`NullSink`] accepts everything and keeps nothing —
//! the table's probe walk reports to it when no sink is installed, and so
//! does the untraced controller model.

use std::sync::Arc;
use std::sync::Mutex;

use crate::stats::SearchStats;

use super::histogram::AtomicHistogram;
use super::histogram::Histogram;

/// One stage of the CA-RAM lookup pipeline (paper Fig. 4), plus the
/// overflow probe that handles spilled records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Index generation: key → home bucket(s).
    Hash,
    /// A row fetched from a SRAM/DRAM slice (one memory access).
    RowFetch,
    /// Parallel match across the fetched row's candidate keys.
    Match,
    /// Priority decode + field extraction of the winning candidate.
    Extract,
    /// Probe of the software-managed overflow structure.
    OverflowProbe,
}

impl Stage {
    /// Stable lowercase name used in exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Hash => "hash",
            Stage::RowFetch => "row_fetch",
            Stage::Match => "match",
            Stage::Extract => "extract",
            Stage::OverflowProbe => "overflow_probe",
        }
    }

    /// All stages, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Hash,
        Stage::RowFetch,
        Stage::Match,
        Stage::Extract,
        Stage::OverflowProbe,
    ];

    /// Index of this stage within [`Stage::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Stage::Hash => 0,
            Stage::RowFetch => 1,
            Stage::Match => 2,
            Stage::Extract => 3,
            Stage::OverflowProbe => 4,
        }
    }
}

/// Per-search roll-up delivered once the search resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSummary {
    /// Whether the search produced a match.
    pub hit: bool,
    /// Total rows fetched (main table + overflow), ≥ 1.
    pub row_fetches: u64,
    /// Displacement at which the search resolved: 0 = home bucket, `d` =
    /// d-th reach step. On a miss, the maximum displacement examined.
    pub probe_length: u64,
    /// Number of home buckets the key hashes to (1 for single-hash
    /// tables, 2 for dual-hash).
    pub homes: u64,
}

/// Receiver for telemetry events.
///
/// All methods default to no-ops. Implementations must be cheap and
/// non-blocking: they run inline on the search path of every thread.
pub trait TelemetrySink: Send + Sync {
    /// True if the sink wants per-stage [`TelemetrySink::stage`] events
    /// with match-vector popcounts. When false the traced path skips the
    /// full match-vector computation and keeps the early-exit matcher.
    #[inline]
    fn wants_match_vectors(&self) -> bool {
        false
    }

    /// A pipeline stage fired. `detail` is stage-specific: candidate
    /// count for [`Stage::Hash`] (homes), slot count for
    /// [`Stage::RowFetch`], match-vector popcount for [`Stage::Match`],
    /// matched slot index for [`Stage::Extract`], overflow records
    /// scanned for [`Stage::OverflowProbe`].
    #[inline]
    fn stage(&self, stage: Stage, detail: u64) {
        let _ = (stage, detail);
    }

    /// A search resolved.
    #[inline]
    fn search_complete(&self, summary: &ProbeSummary) {
        let _ = summary;
    }

    /// A record was inserted into a bucket that now holds `occupancy`
    /// records (the live Fig. 7 data series).
    #[inline]
    fn insert_occupancy(&self, occupancy: u32) {
        let _ = occupancy;
    }

    /// Input-controller queue depth observed at a service opportunity.
    #[inline]
    fn queue_depth(&self, depth: u64) {
        let _ = depth;
    }

    /// A request waited `cycles` in the input-controller queue before
    /// being serviced.
    #[inline]
    fn queue_wait(&self, cycles: u64) {
        let _ = cycles;
    }
}

/// Sink that accepts every event and records nothing. A table with no
/// sink installed runs its probe walk with this zero-sized type, and since
/// every method is an inline no-op that instantiation compiles to the
/// untraced hot loop. Installed behind an `Arc<dyn TelemetrySink>`, it
/// instead prices the traced walk's dispatch alone.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TelemetrySink for NullSink {}

/// Plain-value snapshot of everything a [`HistogramSink`] has recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Flat hit/access counters, mirroring engine-level stats. Searches
    /// and memory accesses are `row_fetches.count()` and
    /// `row_fetches.sum()`; only hits are counted separately.
    pub stats: SearchStats,
    /// Distribution of [`ProbeSummary::probe_length`].
    pub probe_length: Histogram,
    /// Distribution of [`ProbeSummary::row_fetches`].
    pub row_fetches: Histogram,
    /// Distribution of match-vector popcounts (deep mode only).
    pub match_popcount: Histogram,
    /// Distribution of bucket occupancy observed at insert.
    pub insert_occupancy: Histogram,
    /// Distribution of input-controller queue depths.
    pub queue_depth: Histogram,
    /// Distribution of input-controller wait cycles.
    pub queue_wait: Histogram,
    /// Count of stage events by [`Stage::index`].
    pub stage_counts: [u64; 5],
}

/// Side of the [`HistogramSink`] scoreboard: probe lengths and row-fetch
/// counts below this go through the one-atomic fast path.
const COMBO_LIMIT: usize = 8;

/// The production sink: lock-free histograms fed from any number of
/// threads, snapshot on demand.
///
/// By default only per-search summaries and insert/queue events are
/// recorded — `wants_match_vectors()` is false, so the table keeps its
/// early-exit matcher and skips per-stage dispatch. Construct with
/// [`HistogramSink::deep`] to also count stage events and match-vector
/// popcounts (costs the full match-vector computation per row).
#[derive(Debug)]
pub struct HistogramSink {
    deep: bool,
    /// Hits among the searches that missed the scoreboard; the
    /// scoreboard's hit half counts the rest.
    slow_hits: core::sync::atomic::AtomicU64,
    probe_length: AtomicHistogram,
    row_fetches: AtomicHistogram,
    match_popcount: AtomicHistogram,
    insert_occupancy: AtomicHistogram,
    queue_depth: AtomicHistogram,
    queue_wait: AtomicHistogram,
    stage_counts: [core::sync::atomic::AtomicU64; 5],
    /// Scoreboard for the common case: one counter per
    /// `(hit, probe_length, row_fetches)` with both values `< COMBO_LIMIT`,
    /// so a typical search costs a single relaxed `fetch_add`. Snapshot
    /// folds the cells back into the exact stats and histograms.
    combo: [core::sync::atomic::AtomicU64; 2 * COMBO_LIMIT * COMBO_LIMIT],
}

impl Default for HistogramSink {
    fn default() -> Self {
        Self {
            deep: false,
            slow_hits: core::sync::atomic::AtomicU64::new(0),
            probe_length: AtomicHistogram::default(),
            row_fetches: AtomicHistogram::default(),
            match_popcount: AtomicHistogram::default(),
            insert_occupancy: AtomicHistogram::default(),
            queue_depth: AtomicHistogram::default(),
            queue_wait: AtomicHistogram::default(),
            stage_counts: core::array::from_fn(|_| core::sync::atomic::AtomicU64::new(0)),
            combo: core::array::from_fn(|_| core::sync::atomic::AtomicU64::new(0)),
        }
    }
}

impl HistogramSink {
    /// A shallow sink: summaries, inserts, and queue events only.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A deep sink: additionally records per-stage events and
    /// match-vector popcounts.
    #[must_use]
    pub fn deep() -> Self {
        Self {
            deep: true,
            ..Self::default()
        }
    }

    /// Convenience: a shallow sink behind an `Arc`, ready to install.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// A plain-value snapshot of all counters, with the fast-path
    /// scoreboard folded back into the exact histograms. The flat stats
    /// derive from the folded `row_fetches` histogram (one observation per
    /// search, summing to the memory accesses) plus the hit count.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        use core::sync::atomic::Ordering::Relaxed;
        let mut hits = self.slow_hits.load(Relaxed);
        let mut probe_length = self.probe_length.snapshot();
        let mut row_fetches = self.row_fetches.snapshot();
        for (idx, cell) in self.combo.iter().enumerate() {
            let n = cell.load(Relaxed);
            if n == 0 {
                continue;
            }
            let (hit, probe, fetches) = Self::combo_fields(idx);
            if hit {
                hits += n;
            }
            probe_length.record_n(probe, n);
            row_fetches.record_n(fetches, n);
        }
        TelemetrySnapshot {
            stats: SearchStats {
                searches: row_fetches.count(),
                hits,
                memory_accesses: row_fetches.sum(),
            },
            probe_length,
            row_fetches,
            match_popcount: self.match_popcount.snapshot(),
            insert_occupancy: self.insert_occupancy.snapshot(),
            queue_depth: self.queue_depth.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            stage_counts: core::array::from_fn(|i| self.stage_counts[i].load(Relaxed)),
        }
    }

    #[inline]
    fn combo_index(hit: bool, probe_length: usize, row_fetches: usize) -> usize {
        usize::from(hit) * COMBO_LIMIT * COMBO_LIMIT + probe_length * COMBO_LIMIT + row_fetches
    }

    #[inline]
    fn combo_fields(idx: usize) -> (bool, u64, u64) {
        let hit = idx >= COMBO_LIMIT * COMBO_LIMIT;
        let rest = idx % (COMBO_LIMIT * COMBO_LIMIT);
        (
            hit,
            (rest / COMBO_LIMIT) as u64,
            (rest % COMBO_LIMIT) as u64,
        )
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        use core::sync::atomic::Ordering::Relaxed;
        self.slow_hits.store(0, Relaxed);
        self.probe_length.reset();
        self.row_fetches.reset();
        self.match_popcount.reset();
        self.insert_occupancy.reset();
        self.queue_depth.reset();
        self.queue_wait.reset();
        for c in &self.stage_counts {
            c.store(0, Relaxed);
        }
        for c in &self.combo {
            c.store(0, Relaxed);
        }
    }
}

impl TelemetrySink for HistogramSink {
    fn wants_match_vectors(&self) -> bool {
        self.deep
    }

    fn stage(&self, stage: Stage, detail: u64) {
        use core::sync::atomic::Ordering::Relaxed;
        self.stage_counts[stage.index()].fetch_add(1, Relaxed);
        if stage == Stage::Match {
            self.match_popcount.record(detail);
        }
    }

    fn search_complete(&self, summary: &ProbeSummary) {
        // Fast path: small probe lengths and fetch counts (every search in
        // a well-loaded table) cost one relaxed add into the scoreboard.
        let limit = COMBO_LIMIT as u64;
        if summary.probe_length < limit && summary.row_fetches < limit {
            #[allow(clippy::cast_possible_truncation)]
            let idx = Self::combo_index(
                summary.hit,
                summary.probe_length as usize,
                summary.row_fetches as usize,
            );
            self.combo[idx].fetch_add(1, core::sync::atomic::Ordering::Relaxed);
            return;
        }
        if summary.hit {
            self.slow_hits
                .fetch_add(1, core::sync::atomic::Ordering::Relaxed);
        }
        self.probe_length.record(summary.probe_length);
        self.row_fetches.record(summary.row_fetches);
    }

    fn insert_occupancy(&self, occupancy: u32) {
        self.insert_occupancy.record(u64::from(occupancy));
    }

    fn queue_depth(&self, depth: u64) {
        self.queue_depth.record(depth);
    }

    fn queue_wait(&self, cycles: u64) {
        self.queue_wait.record(cycles);
    }
}

/// One recorded event in a [`TraceBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A pipeline stage fired with its detail value.
    Stage(Stage, u64),
    /// A search resolved.
    SearchComplete(ProbeSummary),
    /// An insert landed in a bucket with the given occupancy.
    InsertOccupancy(u32),
    /// Input-controller queue depth sample.
    QueueDepth(u64),
    /// Input-controller wait cycles for one request.
    QueueWait(u64),
}

/// Bounded event recorder for tests: keeps the first `capacity` events in
/// order, drops the rest (the drop count is retained).
#[derive(Debug)]
pub struct TraceBuffer {
    events: Mutex<Vec<TraceEvent>>,
    capacity: usize,
    dropped: core::sync::atomic::AtomicU64,
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            events: Mutex::new(Vec::new()),
            capacity,
            dropped: core::sync::atomic::AtomicU64::new(0),
        }
    }

    fn push(&self, event: TraceEvent) {
        let mut events = self.events.lock().expect("trace buffer poisoned");
        if events.len() < self.capacity {
            events.push(event);
        } else {
            self.dropped
                .fetch_add(1, core::sync::atomic::Ordering::Relaxed);
        }
    }

    /// A copy of the recorded events, in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace buffer poisoned").clone()
    }

    /// Number of events discarded after the buffer filled.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(core::sync::atomic::Ordering::Relaxed)
    }
}

impl TelemetrySink for TraceBuffer {
    fn wants_match_vectors(&self) -> bool {
        true
    }

    fn stage(&self, stage: Stage, detail: u64) {
        self.push(TraceEvent::Stage(stage, detail));
    }

    fn search_complete(&self, summary: &ProbeSummary) {
        self.push(TraceEvent::SearchComplete(*summary));
    }

    fn insert_occupancy(&self, occupancy: u32) {
        self.push(TraceEvent::InsertOccupancy(occupancy));
    }

    fn queue_depth(&self, depth: u64) {
        self.push(TraceEvent::QueueDepth(depth));
    }

    fn queue_wait(&self, cycles: u64) {
        self.push(TraceEvent::QueueWait(cycles));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_sink_records_summaries() {
        let sink = HistogramSink::new();
        assert!(!sink.wants_match_vectors());
        sink.search_complete(&ProbeSummary {
            hit: true,
            row_fetches: 2,
            probe_length: 1,
            homes: 2,
        });
        sink.search_complete(&ProbeSummary {
            hit: false,
            row_fetches: 5,
            probe_length: 4,
            homes: 2,
        });
        sink.insert_occupancy(3);
        sink.queue_depth(10);
        sink.queue_wait(7);
        let snap = sink.snapshot();
        assert_eq!(snap.stats.searches, 2);
        assert_eq!(snap.stats.hits, 1);
        assert_eq!(snap.stats.memory_accesses, 7);
        assert_eq!(snap.probe_length.count(), 2);
        assert_eq!(snap.probe_length.sum(), 5);
        assert_eq!(snap.row_fetches.sum(), 7);
        assert_eq!(snap.insert_occupancy.sum(), 3);
        assert_eq!(snap.queue_depth.sum(), 10);
        assert_eq!(snap.queue_wait.sum(), 7);
        sink.reset();
        assert_eq!(sink.snapshot().stats.searches, 0);
    }

    #[test]
    fn deep_sink_counts_stages_and_popcounts() {
        let sink = HistogramSink::deep();
        assert!(sink.wants_match_vectors());
        sink.stage(Stage::Hash, 2);
        sink.stage(Stage::RowFetch, 8);
        sink.stage(Stage::Match, 1);
        sink.stage(Stage::Match, 0);
        sink.stage(Stage::Extract, 3);
        let snap = sink.snapshot();
        assert_eq!(snap.stage_counts, [1, 1, 2, 1, 0]);
        assert_eq!(snap.match_popcount.count(), 2);
        assert_eq!(snap.match_popcount.sum(), 1);
    }

    #[test]
    fn trace_buffer_keeps_order_and_caps() {
        let buf = TraceBuffer::new(2);
        buf.stage(Stage::Hash, 1);
        buf.queue_depth(4);
        buf.queue_wait(9);
        let events = buf.events();
        assert_eq!(
            events,
            vec![TraceEvent::Stage(Stage::Hash, 1), TraceEvent::QueueDepth(4)]
        );
        assert_eq!(buf.dropped(), 1);
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["hash", "row_fetch", "match", "extract", "overflow_probe"]
        );
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn null_sink_accepts_everything() {
        let sink = NullSink;
        sink.stage(Stage::Match, 3);
        sink.search_complete(&ProbeSummary {
            hit: false,
            row_fetches: 1,
            probe_length: 0,
            homes: 1,
        });
        sink.insert_occupancy(1);
        sink.queue_depth(0);
        sink.queue_wait(0);
        assert!(!sink.wants_match_vectors());
    }
}
