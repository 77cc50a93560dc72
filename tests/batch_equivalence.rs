//! Property-based equivalence tests for the batched search pipeline:
//! `search_batch` must be bit-identical to per-key `search`, with and
//! without a telemetry sink installed, and per-key `search` must give an
//! answer the `ReferenceModel` accepts; the bulk operations must agree
//! with the model's records. Both binary and ternary layouts are
//! exercised, with masked search keys and masked stored keys.

use std::collections::HashMap;
use std::sync::Arc;

use ca_ram::core::error::CaRamError;
use ca_ram::core::index::RangeSelect;
use ca_ram::core::key::{SearchKey, TernaryKey};
use ca_ram::core::layout::{Record, RecordLayout};
use ca_ram::core::oracle::ReferenceModel;
use ca_ram::core::probe::ProbePolicy;
use ca_ram::core::table::{Arrangement, CaRamTable, OverflowPolicy, TableConfig};
use ca_ram::core::telemetry::HistogramSink;
use proptest::prelude::*;

/// A to-be-stored key: `value` with its low `dc_len` bits don't-care
/// (prefix-style masking, as in LPM), or fully binary when the layout is.
#[derive(Debug, Clone, Copy)]
struct StoredKey {
    value: u16,
    dc_len: u8,
}

/// A probe: `value`, optionally with its low `mask_len` bits masked.
#[derive(Debug, Clone, Copy)]
struct Probe {
    value: u16,
    mask_len: u8,
    masked: bool,
}

fn stored_key_strategy() -> impl Strategy<Value = StoredKey> {
    (any::<u16>(), 0u8..=8).prop_map(|(value, dc_len)| StoredKey { value, dc_len })
}

fn probe_strategy() -> impl Strategy<Value = Probe> {
    (any::<u16>(), 0u8..=16, any::<bool>()).prop_map(|(value, mask_len, masked)| Probe {
        value,
        mask_len,
        masked,
    })
}

/// Builds the table, plus a reference model holding exactly the records
/// whose insert succeeded.
fn build_table(
    ternary: bool,
    overflow: OverflowPolicy,
    stored: &[StoredKey],
) -> (CaRamTable, ReferenceModel) {
    let layout = RecordLayout::new(16, ternary, 8);
    let config = TableConfig {
        rows_log2: 5,
        row_bits: 4 * layout.slot_bits(),
        layout,
        arrangement: Arrangement::Horizontal(2),
        probe: ProbePolicy::Linear,
        overflow,
    };
    // Index over bits 8..13: stored don't-care bits (low 8) never overlap,
    // while masked *search* keys may, exercising multi-home enumeration.
    let mut table = CaRamTable::new(config, Box::new(RangeSelect::new(8, 5))).expect("valid");
    let mut model = ReferenceModel::new(16);
    for (i, s) in stored.iter().enumerate() {
        let dc = if ternary { (1u128 << s.dc_len) - 1 } else { 0 };
        let key = TernaryKey::ternary(u128::from(s.value) & !dc, dc, 16);
        let record = Record::new(key, (i % 251) as u64);
        match table.insert(record) {
            Ok(_) => model.insert(record),
            Err(CaRamError::TableFull { .. }) => {}
            Err(e) => panic!("unexpected insert error: {e}"),
        }
    }
    (table, model)
}

fn to_search_keys(probes: &[Probe]) -> Vec<SearchKey> {
    probes
        .iter()
        .map(|p| {
            if p.masked {
                let dc = if p.mask_len >= 16 {
                    0xFFFF
                } else {
                    (1u128 << p.mask_len) - 1
                };
                SearchKey::with_mask(u128::from(p.value), dc, 16)
            } else {
                SearchKey::new(u128::from(p.value), 16)
            }
        })
        .collect()
}

/// Untraced per-key `search` is the reference: the batch path must match
/// it bit for bit, untraced and under a shallow and a deep sink, and a
/// sink fed by a traced batch must end up in the same state as one fed by
/// traced per-key searches over the same keys.
fn assert_all_search_paths_agree(table: &mut CaRamTable, keys: &[SearchKey]) {
    let per_key: Vec<_> = keys.iter().map(|k| table.search(k)).collect();
    assert_eq!(table.search_batch(keys), per_key, "search_batch vs search");
    for deep in [false, true] {
        let sink = || {
            Arc::new(if deep {
                HistogramSink::deep()
            } else {
                HistogramSink::new()
            })
        };
        let per_key_sink = sink();
        table.set_telemetry_sink(Arc::clone(&per_key_sink) as _);
        let traced: Vec<_> = keys.iter().map(|k| table.search(k)).collect();
        assert_eq!(traced, per_key, "traced search, deep={deep}");
        let batch_sink = sink();
        table.set_telemetry_sink(Arc::clone(&batch_sink) as _);
        assert_eq!(
            table.search_batch(keys),
            per_key,
            "traced batch, deep={deep}"
        );
        assert_eq!(
            batch_sink.snapshot(),
            per_key_sink.snapshot(),
            "sink after traced batch, deep={deep}"
        );
    }
    table.clear_telemetry_sink();
}

/// Every answer of `search` must be one the model accepts.
fn assert_agrees_with_model(table: &CaRamTable, model: &ReferenceModel, keys: &[SearchKey]) {
    for key in keys {
        let expected = model.expected(key);
        let got = table.search(key).hit.map(|h| h.record.data);
        assert!(
            expected.admits(got),
            "{key:?}: search gave {got:?}, model accepts {:?}",
            expected.accepted
        );
    }
}

/// Counts each distinct record, so bulk results compare as multisets.
fn multiset(records: impl IntoIterator<Item = Record>) -> HashMap<Record, usize> {
    let mut counts = HashMap::new();
    for record in records {
        *counts.entry(record).or_insert(0) += 1;
    }
    counts
}

/// Ternary records go in unsorted, and only full-reach mode promises the
/// max-care match for any insertion order: check the paths as built, then
/// force full-reach scans and check them again, now against the model.
fn assert_ternary_paths(mut table: CaRamTable, model: &ReferenceModel, keys: &[SearchKey]) {
    assert_all_search_paths_agree(&mut table, keys);
    table.force_full_scan();
    assert_all_search_paths_agree(&mut table, keys);
    assert_agrees_with_model(&table, model, keys);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_search_is_bit_identical_ternary(
        stored in prop::collection::vec(stored_key_strategy(), 1..80),
        probes in prop::collection::vec(probe_strategy(), 1..40),
    ) {
        let (table, model) = build_table(true, OverflowPolicy::Probe { max_steps: 32 }, &stored);
        assert_ternary_paths(table, &model, &to_search_keys(&probes));
    }

    #[test]
    fn batched_search_is_bit_identical_binary(
        stored in prop::collection::vec(stored_key_strategy(), 1..80),
        probes in prop::collection::vec(probe_strategy(), 1..40),
    ) {
        let (mut table, model) =
            build_table(false, OverflowPolicy::Probe { max_steps: 32 }, &stored);
        let keys = to_search_keys(&probes);
        assert_all_search_paths_agree(&mut table, &keys);
        assert_agrees_with_model(&table, &model, &keys);
    }

    #[test]
    fn batched_search_is_bit_identical_with_overflow_area(
        stored in prop::collection::vec(stored_key_strategy(), 1..120),
        probes in prop::collection::vec(probe_strategy(), 1..40),
    ) {
        let (table, model) =
            build_table(true, OverflowPolicy::ParallelArea { capacity: 32 }, &stored);
        assert_ternary_paths(table, &model, &to_search_keys(&probes));
    }

    /// The bulk scans visit every stored record once: the table's stored
    /// don't-care bits lie outside its index bits, so each record has one
    /// copy, and the model's records are exactly what the scans must see.
    #[test]
    fn bulk_ops_agree_with_reference_model(
        ternary in any::<bool>(),
        stored in prop::collection::vec(stored_key_strategy(), 1..80),
        pattern in probe_strategy(),
    ) {
        let (mut table, model) =
            build_table(ternary, OverflowPolicy::Probe { max_steps: 32 }, &stored);
        let pattern = &to_search_keys(&[pattern])[0];
        let matching = |r: &Record| r.key.matches(pattern);
        let matches = model.records().iter().filter(|r| matching(r)).count() as u64;

        let (count, receipt) = table.count_matching(pattern);
        prop_assert_eq!(count, matches);
        prop_assert_eq!(receipt.records_visited, model.len() as u64);
        prop_assert_eq!(receipt.rows_accessed, table.logical_buckets());

        let predicate = |r: &Record| r.data.is_multiple_of(3);
        prop_assert_eq!(
            multiset(table.select(predicate).0),
            multiset(model.records().iter().copied().filter(predicate))
        );

        // Stays inside the layout's 8-bit data field.
        let update = |d: u64| (d * 7 + 1) % 256;
        let receipt = table.update_matching(pattern, update);
        prop_assert_eq!(receipt.records_affected, matches);
        let updated = model.records().iter().map(|r| {
            if matching(r) {
                Record::new(r.key, update(r.data))
            } else {
                *r
            }
        });
        prop_assert_eq!(multiset(table.select(|_| true).0), multiset(updated));
    }
}
