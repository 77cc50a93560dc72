//! Reusable conformance suite for [`SearchEngine`] implementations.
//!
//! Every backend — the CA-RAM table, the subsystem adapter, the CAM
//! baselines, the software-index bridge — must behave identically under the
//! trait contract. The checks here are the executable form of that
//! contract; integration tests instantiate them against each backend.
//!
//! The functions panic (via `assert!`) on violation, test-harness style, so
//! a failure names the engine and the offending key.

use super::{EngineOutcome, SearchEngine};
use crate::key::{SearchKey, TernaryKey};
use crate::layout::Record;

/// One record plus a search key expected to find it.
///
/// The probe is separate from the record because backends differ in match
/// semantics: an exact-match device is probed with the stored value itself,
/// while a longest-prefix backend is probed with any member address of the
/// stored prefix.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// The record to insert.
    pub record: Record,
    /// A key that must hit once (and only while) the record is stored.
    pub probe: SearchKey,
}

impl Probe {
    /// An exact-match probe: stores a binary key and probes with its value.
    #[must_use]
    pub fn exact(value: u128, bits: u32, data: u64) -> Self {
        Self {
            record: Record::new(TernaryKey::binary(value, bits), data),
            probe: SearchKey::new(value, bits),
        }
    }

    /// A ternary probe: stores a masked pattern and probes with a member.
    #[must_use]
    pub fn ternary(value: u128, dont_care: u128, bits: u32, member: u128, data: u64) -> Self {
        Self {
            record: Record::new(TernaryKey::ternary(value, dont_care, bits), data),
            probe: SearchKey::new(member, bits),
        }
    }
}

/// Checks batch ≡ serial bit-equivalence over an already-loaded engine.
///
/// Serial per-key `search` results are the reference. `search_batch_into`
/// — the serving layer's only engine call — must reproduce them into a
/// reused buffer that still holds stale outcomes, and `search_batch` must
/// reproduce them exactly.
///
/// # Panics
///
/// On any divergence between the paths.
pub fn check_batch_equivalence(engine: &dyn SearchEngine, keys: &[SearchKey]) {
    let name = engine.name().to_owned();
    let serial: Vec<EngineOutcome> = keys.iter().map(|k| engine.search(k)).collect();

    // A stale buffer one longer than the batch: appending without
    // clearing, or overwriting without truncating, both show.
    let mut reused = vec![EngineOutcome::miss(u32::MAX); keys.len() + 1];
    engine.search_batch_into(keys, &mut reused);
    assert_eq!(
        serial, reused,
        "{name}: search_batch_into diverged from serial"
    );

    let batch = engine.search_batch(keys);
    assert_eq!(serial, batch, "{name}: search_batch diverged from serial");
}

/// Checks hit/miss behavior of a loaded engine: every probe in `probes`
/// must hit (with the probe's key width accepted as-is), every key in
/// `misses` must miss, and batch equivalence must hold over the union.
///
/// Works on read-only engines (e.g. statically built software indexes);
/// use [`check_engine`] for backends that support insert/delete.
///
/// # Panics
///
/// On a missing hit, a spurious hit, or batch divergence.
pub fn check_loaded(engine: &dyn SearchEngine, probes: &[Probe], misses: &[SearchKey]) {
    let name = engine.name().to_owned();
    for p in probes {
        assert_eq!(
            p.probe.bits(),
            engine.key_bits(),
            "{name}: probe width differs from engine key width"
        );
        let outcome = engine.search(&p.probe);
        let hit = outcome
            .hit
            .unwrap_or_else(|| panic!("{name}: probe {:#x} missed", p.probe.value()));
        assert_eq!(
            hit.data,
            p.record.data,
            "{name}: probe {:#x} hit the wrong record",
            p.probe.value()
        );
    }
    for k in misses {
        assert!(
            engine.search(k).hit.is_none(),
            "{name}: key {:#x} hit but was expected to miss",
            k.value()
        );
    }

    let mut all: Vec<SearchKey> = Vec::with_capacity(probes.len() + misses.len());
    // Interleave hits and misses so the batch alternates between them.
    let mut m = misses.iter();
    for p in probes {
        all.push(p.probe);
        if let Some(k) = m.next() {
            all.push(*k);
        }
    }
    all.extend(m);
    check_batch_equivalence(engine, &all);
}

/// Full conformance for a mutable engine: insert→search round-trip, miss
/// behavior, batch bit-equivalence, and delete→miss.
///
/// `engine` must start empty. Probes must be non-overlapping (no probe key
/// may match another probe's record) so the expected hit for each is
/// unambiguous across match semantics.
///
/// # Panics
///
/// On any contract violation, including a failing insert.
pub fn check_engine(engine: &mut dyn SearchEngine, probes: &[Probe], misses: &[SearchKey]) {
    let name = engine.name().to_owned();
    for p in probes {
        assert!(
            engine.search(&p.probe).hit.is_none(),
            "{name}: engine not empty before conformance run"
        );
    }

    for p in probes {
        engine
            .insert(p.record)
            .unwrap_or_else(|e| panic!("{name}: insert failed: {e}"));
    }
    if let Some(records) = engine.occupancy().records {
        assert_eq!(
            records,
            probes.len() as u64,
            "{name}: occupancy does not count the inserted records"
        );
    }

    check_loaded(engine, probes, misses);

    for p in probes {
        let removed = engine.delete(&p.record.key);
        assert!(
            removed >= 1,
            "{name}: delete removed nothing for {:#x}",
            p.record.key.value()
        );
        assert!(
            engine.search(&p.probe).hit.is_none(),
            "{name}: probe {:#x} still hits after delete",
            p.probe.value()
        );
    }
    if let Some(records) = engine.occupancy().records {
        assert_eq!(records, 0, "{name}: occupancy non-zero after deleting all");
    }
}
