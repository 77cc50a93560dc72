//! Bridges [`SoftIndex`] structures into the unified
//! [`SearchEngine`] interface of `ca-ram-core`.
//!
//! A [`SoftEngine`] pairs a statically built software index with the
//! simulated cache [`Hierarchy`] its loads run through, so the software
//! baselines can be driven by the same benches, conformance tests, and
//! comparison tables as CA-RAM and the CAM devices.
//!
//! Two properties of the software model shape the bridge:
//!
//! * A lookup's `loads` count is a function of the structure and the key
//!   alone — the cache state only decides how *fast* each load is, never
//!   how many there are. `memory_accesses` therefore stays deterministic
//!   and the batch ≡ serial bit-equivalence contract holds even though the
//!   hierarchy is stateful.
//! * All loads thread through one stateful hierarchy, so execution is
//!   inherently serial: the batch holds the hierarchy lock once for the
//!   whole batch.
//!
//! The structures are built statically (e.g. [`ChainedHash::build`]), so
//! [`SearchEngine::insert`] returns [`CaRamError::Unsupported`] and
//! [`SearchEngine::delete`] removes nothing.
//!
//! [`ChainedHash::build`]: crate::structures::ChainedHash::build

use std::sync::Mutex;

use ca_ram_core::engine::{EngineHit, EngineOutcome, EngineReport, SearchEngine};
use ca_ram_core::error::{CaRamError, Result};
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::Record;

use crate::cache::{AccessStats, Hierarchy};
use crate::structures::{Lookup, SoftIndex};

/// Key width of every [`SoftEngine`]: the software structures index
/// `u64 -> u64`.
pub const SOFT_KEY_BITS: u32 = 64;

/// A [`SoftIndex`] plus its cache hierarchy, viewed as a [`SearchEngine`].
#[derive(Debug)]
pub struct SoftEngine<I> {
    index: I,
    mem: Mutex<Hierarchy>,
}

impl<I: SoftIndex> SoftEngine<I> {
    /// Wraps a built index with the hierarchy its loads run through.
    pub fn new(index: I, mem: Hierarchy) -> Self {
        Self {
            index,
            mem: Mutex::new(mem),
        }
    }

    /// The wrapped index.
    pub fn index(&self) -> &I {
        &self.index
    }

    /// A snapshot of the hierarchy's cache access statistics.
    ///
    /// # Panics
    ///
    /// Panics if a previous caller panicked while holding the internal lock.
    pub fn cache_stats(&self) -> AccessStats {
        self.mem.lock().expect("hierarchy lock poisoned").stats
    }

    /// Resets the hierarchy's cache contents and statistics.
    ///
    /// # Panics
    ///
    /// Panics if a previous caller panicked while holding the internal lock.
    pub fn reset_cache(&self) {
        self.mem.lock().expect("hierarchy lock poisoned").reset();
    }

    /// Unwraps into the index and the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if a previous caller panicked while holding the internal lock.
    pub fn into_parts(self) -> (I, Hierarchy) {
        (
            self.index,
            self.mem.into_inner().expect("hierarchy lock poisoned"),
        )
    }
}

fn to_outcome(l: Lookup) -> EngineOutcome {
    EngineOutcome {
        hit: l.value.map(|data| EngineHit {
            // The matched key is not part of a software lookup result; the
            // hit carries only the data payload.
            key: TernaryKey::binary(u128::from(data), SOFT_KEY_BITS),
            data,
        }),
        memory_accesses: l.loads,
    }
}

#[allow(clippy::cast_possible_truncation)]
fn to_u64_key(key: &SearchKey) -> u64 {
    key.value() as u64
}

impl<I: SoftIndex + Send> SearchEngine for SoftEngine<I> {
    fn name(&self) -> &str {
        self.index.name()
    }

    fn key_bits(&self) -> u32 {
        SOFT_KEY_BITS
    }

    /// # Panics
    ///
    /// Panics on a masked or non-64-bit search key — the software
    /// structures are exact-match dictionaries over `u64`.
    fn search(&self, key: &SearchKey) -> EngineOutcome {
        assert_eq!(key.bits(), SOFT_KEY_BITS, "search key width mismatch");
        assert!(
            !key.is_masked(),
            "software indexes cannot search with don't-care bits"
        );
        let mut mem = self.mem.lock().expect("hierarchy lock poisoned");
        to_outcome(self.index.lookup(to_u64_key(key), &mut mem))
    }

    fn insert(&mut self, _record: Record) -> Result<()> {
        Err(CaRamError::Unsupported(
            "software indexes are built statically",
        ))
    }

    fn delete(&mut self, _key: &TernaryKey) -> u32 {
        0
    }

    fn occupancy(&self) -> EngineReport {
        EngineReport::default()
    }

    /// Batched lookup holding the hierarchy lock once for the whole batch.
    ///
    /// # Panics
    ///
    /// As [`SoftEngine::search`], per key.
    fn search_batch_into(&self, keys: &[SearchKey], out: &mut Vec<EngineOutcome>) {
        let mut u64_keys = Vec::with_capacity(keys.len());
        for key in keys {
            assert_eq!(key.bits(), SOFT_KEY_BITS, "search key width mismatch");
            assert!(
                !key.is_masked(),
                "software indexes cannot search with don't-care bits"
            );
            u64_keys.push(to_u64_key(key));
        }
        let mut lookups = Vec::new();
        {
            let mut mem = self.mem.lock().expect("hierarchy lock poisoned");
            self.index.lookup_batch(&u64_keys, &mut mem, &mut lookups);
        }
        out.clear();
        out.extend(lookups.into_iter().map(to_outcome));
    }
}
