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
//! override is [`SearchEngine::search_batch_into`]; `search_batch` is a
//! provided method built on it. Batches run serially on the calling
//! thread; the serving layer's shard workers are where more than one core
//! is used.
//!
//! Implementations for concrete backends live next to the backends:
//! [`crate::table::CaRamTable`] and the [`crate::subsystem::CaRamSubsystem`]
//! adapter here in `ca-ram-core`, the CAM baselines in `ca-ram-cam`, and the
//! software-index bridge in `ca-ram-softsearch`.

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
/// `&dyn SearchEngine`. The `Send` supertrait is what lets a serving layer
/// hand whole engines to worker threads (every in-tree backend is plain
/// owned data).
///
/// Backends with a faster concrete pipeline (e.g. `CaRamTable`'s
/// allocation-free scratch path) keep their inherent methods and override
/// [`SearchEngine::search_batch_into`] to delegate; the provided
/// [`SearchEngine::search_batch`] then reaches that pipeline, so driving a
/// backend through the trait costs one virtual dispatch per call and
/// nothing else.
pub trait SearchEngine: Send {
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
    /// particular configuration (e.g. probe-based overflow) may also return
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
    /// inherits it.
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
    fn miss_constructor() {
        let m = EngineOutcome::miss(7);
        assert!(m.hit.is_none());
        assert_eq!(m.memory_accesses, 7);
    }
}
