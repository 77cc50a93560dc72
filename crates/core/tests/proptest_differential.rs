//! Differential property tests: [`CaRamTable`] against the
//! [`ReferenceModel`] oracle, concentrating on *mask boundaries* — ternary
//! records whose don't-care run ends at bit 0, bit 1, mid-key, `bits-1`,
//! or covers the whole key — at every key size from 1 to 16 bytes.
//!
//! These are exactly the shapes that exposed the delete/probe bug cluster:
//! a don't-care run reaching into the index field forces multi-home
//! placement (and rollback on failure), a run stopping just short of it
//! keeps a single home, and full-care keys degenerate to exact match.
//! Every probe is judged by [`Expected::admits`], so ties between
//! equal-care records are accepted either way while any wrong-priority or
//! lost-record answer fails.
//!
//! [`Expected::admits`]: ca_ram_core::oracle::Expected::admits

use ca_ram_core::bits::low_mask;
use ca_ram_core::index::RangeSelect;
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::{Record, RecordLayout};
use ca_ram_core::oracle::ReferenceModel;
use ca_ram_core::probe::ProbePolicy;
use ca_ram_core::table::{Arrangement, CaRamTable, OverflowPolicy, TableConfig};
use proptest::prelude::*;

/// Builds a small table for `key_bits`-wide ternary records.
///
/// `vertical = 1` gives the pow-2 linear-probe geometry; `vertical = 3`
/// gives `3 * 2^4 = 48` logical buckets — the non-power-of-two case that
/// requires [`ProbePolicy::SecondHash`] strides coprime with the bucket
/// count.
fn build_table(key_bits: u32, vertical: u32, probe: ProbePolicy) -> CaRamTable {
    const ROWS_LOG2: u32 = 4;
    let layout = RecordLayout::new(key_bits, true, 16);
    let buckets = (1u64 << ROWS_LOG2) * u64::from(vertical);
    let index_bits = buckets.next_power_of_two().trailing_zeros();
    let config = TableConfig {
        rows_log2: ROWS_LOG2,
        row_bits: 4 * layout.slot_bits(),
        layout,
        arrangement: Arrangement::Vertical(vertical),
        probe,
        overflow: OverflowPolicy::Probe {
            max_steps: u32::MAX,
        },
    };
    let index = RangeSelect::new(key_bits - index_bits, index_bits);
    CaRamTable::new(config, Box::new(index)).expect("geometry is valid for 8..=128-bit keys")
}

/// Maps a raw selector onto a boundary don't-care length for `key_bits`.
fn boundary_dc_len(raw: u32, key_bits: u32) -> u32 {
    match raw % 6 {
        0 => 0,                          // full care: exact-match degenerate case
        1 => 1,                          // care boundary at the very bottom bit
        2 => key_bits / 2,               // mid-key boundary
        3 => key_bits - 1,               // single care bit at the top
        4 => key_bits,                   // all bits don't-care: matches everything
        _ => (raw / 7) % (key_bits + 1), // anywhere, including inside the index field
    }
}

/// One generated record: value bits, boundary selector, payload.
type RawRecord = (u128, u32, u16);

/// Replays `records` through `table` and the model, then probes each
/// record at its mask boundaries (junk in the don't-care run, a flip of
/// the lowest care bit, the highest don't-care bit set) and a straight
/// read-back, checking every answer against the model.
fn check_differential(
    key_bits: u32,
    table: &mut CaRamTable,
    records: &[RawRecord],
    delete_every: usize,
) -> Result<(), TestCaseError> {
    let mut model = ReferenceModel::new(key_bits);
    let mut stored = Vec::new();
    for (i, &(raw_value, raw_sel, data)) in records.iter().enumerate() {
        let dc_len = boundary_dc_len(raw_sel, key_bits);
        let mask = low_mask(dc_len);
        let value = raw_value & low_mask(key_bits) & !mask;
        let record = Record::new(TernaryKey::ternary(value, mask, key_bits), u64::from(data));
        // Sorted insertion keeps overlapping prefixes in care order (the
        // LPM build discipline) on a linear table, and switches a strided
        // table to full-scan search; plain insert only promises priority
        // once a delete has forced full-scan search. A wide don't-care run can
        // multiply one record across every home bucket; capacity
        // exhaustion is a legitimate outcome and must leave the table
        // unchanged (the rollback path), so a failed insert simply never
        // reaches the model. An empty table holds one record in every home
        // bucket, so the first record always loads, under either probe
        // policy: a table that refused it would leave nothing to compare.
        let loaded = table.insert_sorted(record).is_ok();
        prop_assert!(
            loaded || i > 0,
            "the first record {:#x}/{:#x} did not load into an empty table",
            value,
            mask
        );
        if loaded {
            model.insert(record);
            stored.push((value, mask, dc_len));
        }
    }
    for (i, &(value, mask, _)) in stored.iter().enumerate() {
        if delete_every != 0 && i % delete_every == 0 {
            let key = TernaryKey::ternary(value, mask, key_bits);
            let engine_removed = table.delete(&key);
            let model_removed = model.delete(&key);
            prop_assert_eq!(
                engine_removed > 0,
                model_removed > 0,
                "delete presence diverged for value {:#x} mask {:#x}",
                value,
                mask
            );
        }
    }
    for &(value, mask, dc_len) in &stored {
        let junk = (value.rotate_left(13) | 0x5555_5555_5555_5555) & mask;
        let mut probes = vec![
            SearchKey::new(value, key_bits),        // stored form read-back
            SearchKey::new(value | junk, key_bits), // junk in the don't-care run
        ];
        if dc_len < key_bits {
            // Flip the lowest care bit: this record must not answer.
            probes.push(SearchKey::new((value ^ (1 << dc_len)) | junk, key_bits));
        }
        if dc_len > 0 {
            // Only the highest don't-care bit set: still a match.
            probes.push(SearchKey::new(value | (1 << (dc_len - 1)), key_bits));
        }
        for key in &probes {
            let expected = model.expected(key);
            let got = table.search(key).hit.map(|h| h.record.data);
            prop_assert!(
                expected.admits(got),
                "search({:?}) returned {:?}, model accepts {:?}",
                key,
                got,
                expected.accepted
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pow-2 table, linear probing: every key size from 1 to 16 bytes.
    #[test]
    fn linear_table_matches_model_on_mask_boundaries(
        bytes in 1u32..=16,
        records in prop::collection::vec((any::<u128>(), any::<u32>(), any::<u16>()), 1..10),
        delete_every in 0usize..4,
    ) {
        let key_bits = 8 * bytes;
        let mut table = build_table(key_bits, 1, ProbePolicy::Linear);
        check_differential(key_bits, &mut table, &records, delete_every)?;
    }

    /// Non-pow-2 table (48 logical buckets), second-hash probing: the
    /// coprime-stride path, again at every key size from 1 to 16 bytes.
    /// Its sorted inserts place as plain inserts and latch full-reach
    /// best-care search.
    #[test]
    fn second_hash_non_pow2_table_matches_model_on_mask_boundaries(
        bytes in 1u32..=16,
        records in prop::collection::vec((any::<u128>(), any::<u32>(), any::<u16>()), 1..10),
        delete_every in 0usize..4,
    ) {
        let key_bits = 8 * bytes;
        let mut table = build_table(key_bits, 3, ProbePolicy::SecondHash);
        check_differential(key_bits, &mut table, &records, delete_every)?;
    }
}
