//! Kernel equivalence property tests: the scalar compare kernel, every
//! SIMD kernel the host supports, and the decode-all oracle must agree
//! bit for bit on [`MatchProcessorBank::match_row`] and
//! [`MatchProcessorBank::first_match`] over random buckets.
//!
//! The suite sweeps every key size from 1 to 16 bytes across all three
//! row classes (word-per-slot, two-word binary, and the generic
//! unaligned-window compare), with ternary don't-care runs chosen to end
//! exactly at, just before, and just after the 64-bit lane boundary —
//! the shapes where a lane-split compare can drop or duplicate a care
//! bit. The generic shapes include the ones the workloads store off a
//! word boundary: binary `kb + 32` slots (the 96-bit kv-mixed and
//! dictionary slots at kb = 64) and ternary `2·kb + 32` slots (the
//! five-tuple's 288-bit slots at kb = 128). Every shape is checked in a
//! 17-slot bucket and in a 16-slot bucket whose words end exactly at the
//! last slot's last bit, with a record in that slot, so a window read
//! there has no padding to lean on. Each stored key is also probed as a
//! near miss (its lowest cared bit flipped), which on a wide key only the
//! compare of the bits below the top 64 can reject. Invalid slots are
//! filled with garbage words, so the tests also pin the contract that
//! lane kernels may compute match bits for invalid slots but callers mask
//! them with the occupancy bitmap.
//!
//! Banks are pinned to a kernel via [`MatchProcessorBank::with_kernel`],
//! so no process-global kernel override is involved and the tests are
//! race-free under the parallel test runner.

use ca_ram_core::bits::low_mask;
use ca_ram_core::kernel;
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::{Record, RecordLayout};
use ca_ram_core::matchproc::MatchProcessorBank;
use ca_ram_core::Kernel;
use proptest::prelude::*;

/// Slots per test bucket: one more than the lane kernels' 16-slot
/// early-exit group, so `first_match` crosses a group boundary; and 16,
/// which ends every byte-multiple slot shape exactly on a word boundary.
const BUCKET_SLOTS: [u32; 2] = [17, 16];

/// The layouts to cross-check for a given key width, covering every row
/// class the geometry admits:
///
/// * ternary generic (`2·kb + 16` stored bits — never word aligned),
/// * ternary `2·kb + 32` (the five-tuple's 288-bit slot at kb = 128),
/// * binary `kb + 32` (the 96-bit kv and dictionary slot at kb = 64),
/// * ternary word-per-slot when `2·kb ≤ 64` (the Table 2 IP shape),
/// * binary word-per-slot when `kb ≤ 64`,
/// * binary two-word slots when `64 ≤ kb ≤ 128` (the trigram shape).
///
/// At some widths two of these coincide; each is checked once.
fn layouts_for(key_bits: u32) -> Vec<RecordLayout> {
    let mut candidates = vec![
        RecordLayout::new(key_bits, true, 16),
        RecordLayout::new(key_bits, true, 32),
        RecordLayout::new(key_bits, false, 32),
    ];
    if 2 * key_bits <= 64 {
        candidates.push(RecordLayout::new(key_bits, true, 64 - 2 * key_bits));
    }
    if key_bits <= 64 {
        candidates.push(RecordLayout::new(key_bits, false, 64 - key_bits));
    }
    if key_bits >= 64 {
        candidates.push(RecordLayout::new(key_bits, false, 128 - key_bits));
    }
    let mut layouts = Vec::new();
    for layout in candidates {
        if !layouts.contains(&layout) {
            layouts.push(layout);
        }
    }
    layouts
}

/// Maps a raw byte to a don't-care run length concentrated on the
/// boundary family: empty, a single bit, runs ending just before / at /
/// just after the 64-bit lane edge, one bit short of full, and full
/// width. Everything a lane-split compare can get wrong lives here.
fn boundary_dc_len(raw: u8, key_bits: u32) -> u32 {
    match raw % 8 {
        0 => 0,
        1 => 1.min(key_bits),
        2 => (key_bits / 2).min(key_bits),
        3 => 63.min(key_bits),
        4 => 64.min(key_bits),
        5 => 65.min(key_bits),
        6 => key_bits.saturating_sub(1),
        _ => key_bits,
    }
}

/// Fills a `slots`-slot bucket with garbage, encodes `records` into their
/// slots, and returns the row words plus the occupancy bitmap.
fn build_bucket(
    layout: &RecordLayout,
    slots: u32,
    records: &[(u32, Record)],
    garbage: u64,
) -> (Vec<u64>, u128) {
    let bits = layout.slot_bits() * slots;
    let words = (bits as usize).div_ceil(64);
    // Invalid slots carry pseudo-random garbage: the lane kernels compare
    // them anyway and the occupancy mask must discard whatever they say.
    let mut row: Vec<u64> = (0..words as u64)
        .map(|i| {
            garbage
                .rotate_left(u32::try_from(i % 63).unwrap())
                .wrapping_mul(i | 1)
        })
        .collect();
    let mut valid: u128 = 0;
    for (slot, record) in records {
        layout.encode_slot(&mut row, *slot, record);
        valid |= 1 << slot;
    }
    (row, valid)
}

/// The equivalence check proper: for each probe, every available kernel's
/// `match_row` / `first_match` must equal the scalar kernel's and the
/// decode-all oracle's answers.
fn check_kernels(
    layout: RecordLayout,
    raw_records: &[(u128, u8)],
    probes: &[SearchKey],
    row: &[u64],
    valid: u128,
    slots: u32,
) -> Result<(), TestCaseError> {
    let scalar = MatchProcessorBank::with_kernel(layout, Kernel::Scalar);
    let banks: Vec<MatchProcessorBank> = kernel::available()
        .into_iter()
        .map(|k| MatchProcessorBank::with_kernel(layout, k))
        .collect();
    for probe in probes {
        let oracle = scalar.match_row_decode_all(row, valid, slots, probe);
        for bank in &banks {
            let got = bank.match_row(row, valid, slots, probe);
            prop_assert_eq!(
                got,
                oracle,
                "match_row diverged from oracle: kernel {} layout {:?} slots {} probe {:?} records {:?}",
                bank.kernel().name(),
                layout,
                slots,
                probe,
                raw_records
            );
            prop_assert_eq!(
                bank.first_match(row, valid, slots, probe),
                oracle.first_match,
                "first_match diverged: kernel {} layout {:?} slots {} probe {:?}",
                bank.kernel().name(),
                layout,
                slots,
                probe
            );
        }
        // The scalar bank runs the same dispatch; cross-check it too so a
        // bug shared by all SIMD kernels still trips against the oracle.
        prop_assert_eq!(scalar.match_row(row, valid, slots, probe), oracle);
    }
    Ok(())
}

fn run_case(
    key_bits: u32,
    raw_records: &[(u128, u8)],
    raw_probes: &[(u128, u8)],
    garbage: u64,
) -> Result<(), TestCaseError> {
    for layout in layouts_for(key_bits) {
        let ternary = layout.is_ternary();
        let keys: Vec<TernaryKey> = raw_records
            .iter()
            .map(|&(raw_value, raw_dc)| {
                let dc = if ternary {
                    low_mask(boundary_dc_len(raw_dc, key_bits))
                } else {
                    0
                };
                let value = raw_value & low_mask(key_bits) & !dc;
                TernaryKey::ternary(value, dc, key_bits)
            })
            .collect();
        let mut probes: Vec<SearchKey> = raw_probes
            .iter()
            .map(|&(raw_value, raw_dc)| {
                let value = raw_value & low_mask(key_bits);
                if raw_dc & 0x80 != 0 {
                    // Masked probe with a boundary-family don't-care run.
                    let dc = low_mask(boundary_dc_len(raw_dc, key_bits));
                    SearchKey::with_mask(value & !dc, dc, key_bits)
                } else {
                    SearchKey::new(value, key_bits)
                }
            })
            .collect();
        for key in &keys {
            // Stored form read-back and junk in the don't-care run: the
            // probes most likely to straddle a dc-run lane boundary.
            let junk = key.value().rotate_left(29) & key.dont_care();
            probes.push(SearchKey::new(key.value(), key_bits));
            probes.push(SearchKey::new(key.value() | junk, key_bits));
            // A near miss: the lowest cared bit flipped, every bit above it
            // equal, so a wide key's top-64-bits compare cannot reject it.
            let care = !key.dont_care() & low_mask(key_bits);
            probes.push(SearchKey::new(
                key.value() ^ (care & care.wrapping_neg()),
                key_bits,
            ));
        }
        for slots in BUCKET_SLOTS {
            // Spread records over the bucket so runs of invalid (garbage)
            // slots sit between valid ones; the first takes the last slot.
            let records: Vec<(u32, Record)> = keys
                .iter()
                .enumerate()
                .map(|(i, &key)| {
                    let slot = (i * 3 + slots as usize - 1) % slots as usize;
                    (u32::try_from(slot).unwrap(), Record::new(key, 0))
                })
                .collect();
            let (row, valid) = build_bucket(&layout, slots, &records, garbage);
            check_kernels(layout, raw_records, &probes, &row, valid, slots)?;
        }
    }
    Ok(())
}

/// The 16-slot buckets end on a word boundary for every shape
/// `layouts_for` builds, so their last slot's fields end on the row's
/// last bit.
#[test]
fn sixteen_slot_buckets_end_on_a_word() {
    for bytes in 1u32..=16 {
        for layout in layouts_for(8 * bytes) {
            assert_eq!(layout.slot_bits() * BUCKET_SLOTS[1] % 64, 0, "{layout:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every key size from 1 to 16 bytes, every row class the width
    /// admits, every kernel the host supports.
    #[test]
    fn kernels_agree_on_random_buckets(
        bytes in 1u32..=16,
        raw_records in prop::collection::vec((any::<u128>(), any::<u8>()), 1..12),
        raw_probes in prop::collection::vec((any::<u128>(), any::<u8>()), 1..6),
        garbage in any::<u64>(),
    ) {
        run_case(8 * bytes, &raw_records, &raw_probes, garbage)?;
    }

    /// Don't-care runs pinned to the 64-bit lane edge (63/64/65) on the
    /// widths where a run can actually cross it.
    #[test]
    fn kernels_agree_on_lane_crossing_dc_runs(
        bytes in 9u32..=16,
        raw_values in prop::collection::vec(any::<u128>(), 1..8),
        edge in 0u8..3,
        garbage in any::<u64>(),
    ) {
        let raw_records: Vec<(u128, u8)> =
            raw_values.iter().map(|&v| (v, 3 + edge)).collect();
        let raw_probes = [(raw_values[0], 0u8), (!raw_values[0], 0x84)];
        run_case(8 * bytes, &raw_records, &raw_probes, garbage)?;
    }
}

/// A deterministic smoke pass over the exact paper configurations (IP
/// word-per-slot ternary, trigram two-word binary) so the suite still
/// exercises the lane kernels if the proptest shim ever shrinks its
/// case budget.
#[test]
fn paper_layouts_smoke() {
    for (key_bits, raws) in [
        (
            32u32,
            [(0xC0A8_0000u128, 4u8), (0xC000_0000, 5), (0x0A00_0001, 0)],
        ),
        (
            128,
            [
                (0x1234_5678_9ABC_DEF0_u128 << 32, 4),
                (u128::MAX, 3),
                (7, 0),
            ],
        ),
    ] {
        let probes = [(raws[0].0, 0u8), (raws[1].0 | 0x3F, 0), (0, 0x83)];
        run_case(key_bits, &raws, &probes, 0xDEAD_BEEF_5A5A_A5A5).unwrap();
    }
}
