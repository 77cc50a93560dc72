//! Cross-engine pin for LPM correctness after deletes.
//!
//! Deleting a prefix drops a `CaRamTable` (and, through it, every
//! [`CaRamSubsystem`] database) into full-reach scan mode: probe chains
//! and buckets may now interleave priorities, so search must compare
//! care counts instead of trusting first-match order. This test drives
//! the same delete-then-backfill prefix workload through every
//! LPM-capable substrate — single search, the trait batch path, and the
//! table's inherent batch path — and checks each answer against the
//! [`ReferenceModel`].
//!
//! [`CaRamSubsystem`]: ca_ram_core::subsystem::CaRamSubsystem
//! [`ReferenceModel`]: ca_ram_core::oracle::ReferenceModel

use ca_ram_bench::fleet::fleet_for;
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::Record;
use ca_ram_core::oracle::{standard_scenarios, ReferenceModel};

const KEY_BITS: u32 = 32;

/// /8, /16, and /24 prefixes nested under 0x0a......, all sharing home
/// bucket (top-6-bit index) 2, plus exact hosts to churn; data values
/// are distinct so a wrong-priority winner is visible.
fn workload() -> (Vec<Record>, Vec<TernaryKey>, Vec<SearchKey>) {
    let prefix = |value: u128, care: u32, data: u64| {
        Record::new(
            TernaryKey::ternary(value, (1u128 << (KEY_BITS - care)) - 1, KEY_BITS),
            data,
        )
    };
    let inserts = vec![
        // Descending care: the sorted-LPM build discipline.
        Record::new(TernaryKey::binary(0x0A11_2233, KEY_BITS), 100),
        Record::new(TernaryKey::binary(0x0A11_2244, KEY_BITS), 101),
        prefix(0x0A11_2200, 24, 24),
        prefix(0x0A11_3300, 24, 25),
        prefix(0x0A11_0000, 16, 16),
        prefix(0x0A22_0000, 16, 17),
        prefix(0x0A00_0000, 8, 8),
    ];
    let deletes = vec![
        TernaryKey::binary(0x0A11_2233, KEY_BITS),
        // The /24 covering most probes: its removal must re-expose the /16.
        TernaryKey::ternary(0x0A11_2200, 0xFF, KEY_BITS),
    ];
    let probes = vec![
        SearchKey::new(0x0A11_2233, KEY_BITS), // deleted host -> /16 now wins
        SearchKey::new(0x0A11_2244, KEY_BITS), // surviving host
        SearchKey::new(0x0A11_2299, KEY_BITS), // deleted /24 -> /16
        SearchKey::new(0x0A11_3377, KEY_BITS), // surviving /24
        SearchKey::new(0x0A22_9999, KEY_BITS), // other /16
        SearchKey::new(0x0A99_0000, KEY_BITS), // only the /8 matches
        SearchKey::new(0x0B00_0000, KEY_BITS), // no match at all
    ];
    (inserts, deletes, probes)
}

/// After the churn, reinsert a backfill prefix (care between the /8 and
/// the deleted /24) through the *plain* insert path, the case that lands
/// records out of care order.
fn backfill() -> Record {
    Record::new(
        TernaryKey::ternary(0x0A11_2200, 0xFFFF, KEY_BITS),
        77, // a /16-care twin of the deleted /24's range
    )
}

#[test]
fn every_lpm_engine_agrees_with_the_model_after_deletes() {
    let scenario = standard_scenarios()
        .into_iter()
        .find(|s| s.name == "lpm-churn-32b")
        .expect("scenario exists");
    let (inserts, deletes, probes) = workload();

    for case in fleet_for(&scenario, &[]) {
        let Some(mut engine) = (case.build)(KEY_BITS) else {
            continue;
        };
        let mut model = ReferenceModel::new(KEY_BITS);
        for r in &inserts {
            engine
                .insert_sorted(*r)
                .unwrap_or_else(|e| panic!("{}: insert failed: {e}", case.name));
            model.insert(*r);
        }
        for k in &deletes {
            let got = engine.delete(k);
            let expected = model.delete(k);
            assert_eq!(
                got > 0,
                expected > 0,
                "{}: delete presence mismatch for {k:?}",
                case.name
            );
        }
        let bf = backfill();
        engine
            .insert(bf)
            .unwrap_or_else(|e| panic!("{}: backfill insert failed: {e}", case.name));
        model.insert(bf);

        // Single-search path.
        for key in &probes {
            let exp = model.expected(key);
            let got = engine.search(key).hit.map(|h| h.data);
            assert!(
                exp.admits(got),
                "{}: search({key:?}) returned {got:?}, model accepts {:?}",
                case.name,
                exp.accepted
            );
        }
        // The trait batch path, slot for slot.
        let batch = engine.search_batch(&probes);
        for (i, (key, out)) in probes.iter().zip(&batch).enumerate() {
            let exp = model.expected(key);
            let got = out.hit.as_ref().map(|h| h.data);
            assert!(
                exp.admits(got),
                "{}: batch[{i}] returned {got:?}, model accepts {:?}",
                case.name,
                exp.accepted
            );
        }
    }
}

#[test]
fn table_search_and_batch_paths_match_model_after_delete() {
    use ca_ram_bench::fleet::ca_ram_table;
    use ca_ram_core::probe::ProbePolicy;
    use ca_ram_core::table::{Arrangement, OverflowPolicy};

    // Same workload, driven through the table's inherent search paths
    // (per key, batch): in full-reach mode both must stay bit-identical
    // and give answers the model accepts. The geometry
    // is the fleet's "ca-ram/linear" design, built directly so the
    // inherent paths are reachable.
    let mut table = ca_ram_table(
        KEY_BITS,
        KEY_BITS - 6,
        Arrangement::Horizontal(1),
        ProbePolicy::Linear,
        OverflowPolicy::Probe {
            max_steps: u32::MAX,
        },
    )
    .expect("32-bit build");
    let (inserts, deletes, probes) = workload();
    let mut model = ReferenceModel::new(KEY_BITS);
    for r in &inserts {
        table.insert_sorted(*r).expect("insert");
        model.insert(*r);
    }
    for k in &deletes {
        assert!(table.delete(k) > 0, "delete must find {k:?}");
        model.delete(k);
    }
    table.insert(backfill()).expect("backfill");
    model.insert(backfill());

    let per_key: Vec<_> = probes.iter().map(|k| table.search(k)).collect();
    assert_eq!(table.search_batch(&probes), per_key, "batch vs search");
    for (i, (key, outcome)) in probes.iter().zip(&per_key).enumerate() {
        let exp = model.expected(key);
        let got = outcome.hit.map(|h| h.record.data);
        assert!(
            exp.admits(got),
            "search on probe {i} ({key:?}) returned {got:?}, model accepts {:?}",
            exp.accepted
        );
    }
}
