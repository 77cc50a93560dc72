//! The unified search-engine abstraction.
//!
//! The paper's evaluation (Secs. 4–5) runs one lookup workload against many
//! substrates — CA-RAM design points, CAM/TCAM baselines, and conventional
//! software indexes. [`SearchEngine`] is the common interface those
//! substrates implement so that benches, examples, and tests can drive any
//! backend through one code path.
//!
//! The trait is object-safe: the required surface is `search` / `insert` /
//! `delete` / `key_bits` / `occupancy`. The one batch hook a backend may
//! override is [`SearchEngine::search_batch_into`]; `search_batch` and the
//! sharded `search_batch_parallel` are provided methods built on it, and
//! every host-parallel loop in the crate splits its work with [`shard`].
//!
//! Implementations for concrete backends live next to the backends:
//! [`crate::table::CaRamTable`] and the [`crate::subsystem::CaRamSubsystem`]
//! adapter here in `ca-ram-core`, the CAM baselines in `ca-ram-cam`, and the
//! software-index bridge in `ca-ram-softsearch`.

use std::ops::Range;

use crate::error::Result;
use crate::key::{SearchKey, TernaryKey};
use crate::layout::Record;

/// A matched record, in backend-neutral shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineHit {
    /// The stored key that matched (exact value, or a ternary pattern for
    /// CAM-class and longest-prefix backends).
    pub key: TernaryKey,
    /// The associated data payload (e.g. a next-hop id).
    pub data: u64,
}

/// The result of one lookup through a [`SearchEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOutcome {
    /// The winning record, if any.
    pub hit: Option<EngineHit>,
    /// Backend-reported lookup cost in memory accesses: bucket fetches for
    /// CA-RAM, activated banks for a banked CAM, cache-hierarchy loads for a
    /// software index, 1 for a monolithic CAM search.
    pub memory_accesses: u32,
}

impl EngineOutcome {
    /// A miss with the given access cost.
    #[must_use]
    pub const fn miss(memory_accesses: u32) -> Self {
        Self {
            hit: None,
            memory_accesses,
        }
    }
}

/// An occupancy / cost report for an engine, in backend-neutral shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Records currently stored, when the backend can count them.
    pub records: Option<u64>,
    /// Total entry capacity, when the backend is fixed-size.
    pub capacity: Option<u64>,
}

impl EngineReport {
    /// Load factor α = records / capacity, when both are known and the
    /// capacity is non-zero.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn load_factor(&self) -> Option<f64> {
        match (self.records, self.capacity) {
            (Some(r), Some(c)) if c > 0 => Some(r as f64 / c as f64),
            _ => None,
        }
    }
}

/// A search substrate: anything that can be loaded with keyed records and
/// probed with search keys at a measurable memory-access cost.
///
/// The trait is object-safe — benches and tests drive backends through
/// `&dyn SearchEngine`. The `Sync` supertrait is what lets the provided
/// [`SearchEngine::search_batch_parallel`] shard one `&self` across scoped
/// threads; `Send` is what lets a serving layer hand whole engines to
/// worker threads (every in-tree backend is plain owned data).
///
/// Backends with a faster concrete pipeline (e.g. `CaRamTable`'s
/// allocation-free scratch path) keep their inherent methods and override
/// [`SearchEngine::search_batch_into`] to delegate; both provided batch
/// methods then reach that pipeline, so driving a backend through the
/// trait costs one virtual dispatch per call and nothing else.
pub trait SearchEngine: Send + Sync {
    /// A short human-readable backend name for reports.
    fn name(&self) -> &str;

    /// Width of the search keys this engine accepts, in bits.
    fn key_bits(&self) -> u32;

    /// Looks up one key.
    fn search(&self, key: &SearchKey) -> EngineOutcome;

    /// Stores a record.
    ///
    /// # Errors
    ///
    /// Backend-specific: capacity exhaustion, key-width mismatch, a ternary
    /// pattern offered to an exact-match device, or
    /// [`crate::error::CaRamError::Unsupported`] for statically built
    /// structures.
    fn insert(&mut self, record: Record) -> Result<()>;

    /// Stores a record, maintaining the backend's priority order under
    /// out-of-order arrival where the backend distinguishes sorted from
    /// append-style insertion.
    ///
    /// The default forwards to [`SearchEngine::insert`], which is already
    /// priority-maintaining for order-preserving devices (e.g. the sorted
    /// TCAM, whose plain insert shifts a region per priority class).
    /// `CaRamTable` overrides this with its eviction-cascading sorted
    /// placement so online LPM updates stay exact through the trait.
    ///
    /// # Errors
    ///
    /// As [`SearchEngine::insert`]; backends whose sorted path demands a
    /// particular configuration (e.g. linear probing) may also return
    /// [`crate::error::CaRamError::BadConfig`].
    fn insert_sorted(&mut self, record: Record) -> Result<()> {
        self.insert(record)
    }

    /// Removes every stored record whose key equals `key` (value, mask, and
    /// width), returning the number of stored copies removed — for backends
    /// that duplicate records (hash images, banks) this counts every copy,
    /// and it is zero if and only if no stored key was equal. Engines that
    /// cannot delete return 0.
    fn delete(&mut self, key: &TernaryKey) -> u32;

    /// Current occupancy.
    fn occupancy(&self) -> EngineReport;

    /// Makes every mutation accepted so far durable, for backends that
    /// buffer writes (group commit). The default is a no-op: purely
    /// in-memory engines are always "durable" to their own lifetime, so
    /// callers can commit unconditionally after a write batch.
    ///
    /// # Errors
    ///
    /// [`crate::error::CaRamError::Durability`] when a durable backend
    /// fails to persist the batch; the batch's effects on answers remain
    /// visible in memory, but their durability is not guaranteed.
    fn commit(&mut self) -> Result<()> {
        Ok(())
    }

    /// Looks up a batch of keys serially into a caller-owned buffer,
    /// clearing it first — the serving layer's hot path, where the buffer
    /// (and any backend probe scratch) is reused across drains so the
    /// steady state allocates nothing.
    ///
    /// The one batch hook: backends with reusable probe scratch or a
    /// batched round trip override this, and [`SearchEngine::search_batch`]
    /// and [`SearchEngine::search_batch_parallel`] inherit it.
    fn search_batch_into(&self, keys: &[SearchKey], out: &mut Vec<EngineOutcome>) {
        out.clear();
        out.extend(keys.iter().map(|k| self.search(k)));
    }

    /// Looks up a batch of keys serially, in input order.
    fn search_batch(&self, keys: &[SearchKey]) -> Vec<EngineOutcome> {
        let mut out = Vec::with_capacity(keys.len());
        self.search_batch_into(keys, &mut out);
        out
    }

    /// Looks up a batch of keys across `threads` worker threads
    /// (0 = all available cores): [`shard`] splits `keys` into contiguous
    /// ranges, each runs [`SearchEngine::search_batch`], and the outcomes
    /// come back in input order.
    fn search_batch_parallel(&self, keys: &[SearchKey], threads: usize) -> Vec<EngineOutcome> {
        shard(keys.len(), threads, |range| self.search_batch(&keys[range])).concat()
    }
}

/// Splits `0..n` into up to `threads` contiguous ranges (`0` = one per
/// available CPU; never more ranges than items, never fewer than one),
/// runs `work` on each on its own scoped thread, and returns the results
/// in range order. A single range runs inline on the calling thread.
///
/// The one host-parallel loop of the crate: parallel batch search shards
/// key ranges through it, the bulk scans shard bucket ranges.
///
/// # Panics
///
/// Re-raises the panic of any worker whose `work` panicked.
pub fn shard<T, F>(n: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
    .clamp(1, n.max(1));
    if threads == 1 {
        return vec![work(0..n)];
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| {
                let work = &work;
                scope.spawn(move || work(start..(start + chunk).min(n)))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

pub mod conformance;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_load_factor() {
        let r = EngineReport {
            records: Some(3),
            capacity: Some(4),
        };
        assert!((r.load_factor().unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(EngineReport::default().load_factor(), None);
        let zero_cap = EngineReport {
            records: Some(0),
            capacity: Some(0),
        };
        assert_eq!(zero_cap.load_factor(), None);
    }

    #[test]
    fn shard_resolves_zero_and_clamps() {
        let ranges = |n, threads| shard(n, threads, |r| r);
        assert!(!ranges(100, 0).is_empty());
        assert_eq!(ranges(3, 8), vec![0..1, 1..2, 2..3]);
        assert_eq!(ranges(100, 2), vec![0..50, 50..100]);
        assert_eq!(ranges(10, 4), vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(ranges(0, 4), vec![0..0]);
    }

    #[test]
    fn miss_constructor() {
        let m = EngineOutcome::miss(7);
        assert!(m.hit.is_none());
        assert_eq!(m.memory_accesses, 7);
    }
}
