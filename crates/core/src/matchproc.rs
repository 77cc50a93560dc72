//! The match processors: parallel candidate-key comparison (Sec. 3.1, 3.3).
//!
//! One memory access fetches a whole bucket; the match processors then
//! compare every candidate key in the row against the search key in
//! parallel. The functional model mirrors the prototype's four steps:
//!
//! 1. *expand search key* — align the search key to each slot (implicit in
//!    the slot-indexed loop below);
//! 2. *calculate match vector* — one bit per slot;
//! 3. *decode match vector* — priority-encode: the lowest-numbered matching
//!    slot wins, which implements longest-prefix match when records are
//!    placed in descending priority order (Sec. 4.1);
//! 4. *extract result* — return the winning slot's record.
//!
//! The intermediate match vector is part of the public result so tests and
//! the multi-match diagnostics of Sec. 3.3 ("conditions where multiple
//! matching records ... are identified") can observe it.

use crate::kernel::{self, Kernel};
use crate::key::{SearchKey, TernaryKey};
use crate::layout::{Record, RecordLayout};

/// Shared best-care tie-break: does `candidate` beat the `incumbent` best
/// match? The winner of a multi-bucket search is the record with the most
/// care bits (the longest prefix); on equal care counts the incumbent —
/// the record found *earlier* in probe order — keeps its seat. The probe
/// walk, the best-of-bucket matcher and the overflow area all route
/// through this one predicate so they cannot silently diverge.
#[must_use]
#[inline]
pub fn wins_tie_break(candidate: &Record, incumbent: Option<&Record>) -> bool {
    incumbent.is_none_or(|b| candidate.key.care_count() > b.key.care_count())
}

/// How a bank compares one row: picked once from the layout geometry so
/// the hot loops dispatch on a pre-computed class, not on arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowClass {
    /// One 64-bit word per slot, stored key within it (the Table 2 IP
    /// layouts): word-per-slot lane compare.
    Word1,
    /// Two words per binary slot (the Table 3 trigram layout): paired
    /// lane compare. The care mask is confined to the key field, so this
    /// class is valid for any binary key width with 128-bit slots.
    Word2Binary,
    /// Every other slot shape, word aligned or not (the 96-bit kv and
    /// dictionary slots, the 288-bit five-tuple slots): occupied slots in
    /// priority order, each through [`RecordLayout::key_matches`], the one
    /// unaligned-window compare, top 64 key bits first.
    Generic,
}

impl RowClass {
    fn of(layout: &RecordLayout) -> Self {
        if layout.slot_bits() == 64 {
            RowClass::Word1
        } else if layout.slot_bits() == 128 && !layout.is_ternary() {
            RowClass::Word2Binary
        } else {
            RowClass::Generic
        }
    }
}

/// Outcome of matching one fetched row against a search key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowMatch {
    /// Step 2 output: bit `i` set iff valid slot `i` matched.
    pub match_vector: u128,
    /// Step 3 output: the highest-priority (lowest-numbered) matching slot.
    pub first_match: Option<u32>,
    /// Diagnostic from step 3: more than one slot matched.
    pub multiple_matches: bool,
}

impl RowMatch {
    /// Number of matching slots.
    #[must_use]
    pub fn match_count(&self) -> u32 {
        self.match_vector.count_ones()
    }
}

/// A bank of match processors for one record layout.
///
/// The bank is stateless; it prices nothing and owns nothing — it is the
/// combinational logic between the sense amplifiers and the result queue.
#[derive(Debug, Clone, Copy)]
pub struct MatchProcessorBank {
    layout: RecordLayout,
    kernel: Kernel,
    class: RowClass,
    // Compare routines resolved once at construction so per-row calls
    // skip kernel dispatch and the CPU-feature re-check (see
    // [`kernel::word1_fn`]). Both are functions of `kernel` and the
    // host, hence excluded from equality.
    word1: kernel::Word1Fn,
    word1_first: kernel::Word1FirstFn,
    word2: kernel::Word2Fn,
}

impl PartialEq for MatchProcessorBank {
    fn eq(&self, other: &Self) -> bool {
        self.layout == other.layout && self.kernel == other.kernel && self.class == other.class
    }
}

impl Eq for MatchProcessorBank {}

impl MatchProcessorBank {
    /// Creates a bank for the given record layout, capturing the
    /// process-wide [`kernel::active_kernel`] for its whole life (see the
    /// dispatch rules in [`kernel`]).
    #[must_use]
    pub fn new(layout: RecordLayout) -> Self {
        Self::with_kernel(layout, kernel::active_kernel())
    }

    /// Creates a bank pinned to a specific compare kernel (differential
    /// tests build scalar and SIMD twins this way). The kernel is clamped
    /// to what the host supports, so a bank can never fault on a missing
    /// instruction set.
    #[must_use]
    pub fn with_kernel(layout: RecordLayout, kernel: Kernel) -> Self {
        let kernel = kernel.min(kernel::detect());
        Self {
            layout,
            kernel,
            class: RowClass::of(&layout),
            word1: kernel::word1_fn(kernel),
            word1_first: kernel::word1_first_fn(kernel),
            word2: kernel::word2_fn(kernel),
        }
    }

    /// The compare kernel this bank captured at construction.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The record layout the bank decodes.
    #[must_use]
    pub fn layout(&self) -> &RecordLayout {
        &self.layout
    }

    /// Raw match bits for slots `[base, base + count)` of a lane-classed
    /// row, one bit per slot, *before* occupancy masking — invalid slots
    /// may carry garbage and set bits; callers mask with the valid bitmap.
    ///
    /// Must only be called for `RowClass::Word1` / `RowClass::Word2Binary`
    /// and `count <= 64`.
    #[inline]
    #[allow(clippy::cast_possible_truncation)] // values pre-masked to word width
    fn lane_bits(&self, row: &[u64], base: usize, count: usize, sv: u128, sc: u128) -> u64 {
        debug_assert!(count <= 64, "lane kernels emit at most 64 match bits");
        match self.class {
            RowClass::Word1 => (self.word1)(
                &row[base..base + count],
                sv as u64,
                sc as u64,
                self.layout.key_bits(),
                self.layout.is_ternary(),
            ),
            RowClass::Word2Binary => (self.word2)(
                &row[2 * base..2 * (base + count)],
                sv as u64,
                (sv >> 64) as u64,
                sc as u64,
                (sc >> 64) as u64,
            ),
            RowClass::Generic => unreachable!("lane_bits is only called for lane-classed rows"),
        }
    }

    /// Steps 1–3: computes the match vector over the valid slots of `row`
    /// and priority-encodes it.
    ///
    /// `valid` is the bucket's occupancy bitmap (from the auxiliary field);
    /// bit `i` set means slot `i` holds a record. `slots` is the number of
    /// slots the row holds (`⌊C / slot_bits⌋`).
    ///
    /// # Panics
    ///
    /// Panics if the search key width differs from the layout's key width
    /// or if `slots` exceeds 128.
    #[must_use]
    pub fn match_row(&self, row: &[u64], valid: u128, slots: u32, search: &SearchKey) -> RowMatch {
        assert_eq!(
            search.bits(),
            self.layout.key_bits(),
            "search key width {} does not match layout width {}",
            search.bits(),
            self.layout.key_bits()
        );
        assert!(slots <= 128, "at most 128 slots per physical row");
        // Steps 2–3 compare stored bits directly; nothing is decoded until
        // a winner is known (step 4, `extract`). Search-key invariants are
        // hoisted out of the loop and only occupied slots are visited — the
        // software analogue of match lines that only fire on valid slots.
        let key_bits = self.layout.key_bits();
        let search_value = search.value();
        let search_care = !search.dont_care() & crate::bits::low_mask(key_bits);
        let occupied = valid & crate::bits::low_mask(slots);
        let vector: u128 = if self.class == RowClass::Generic {
            self.generic_matches(row, occupied, search_value, search_care)
                .fold(0, |vector, slot| vector | 1 << slot)
        } else {
            // Lane-classed rows: compare every slot (garbage in invalid
            // slots is masked out below, like match lines that only fire
            // on valid slots) in <= 64-slot kernel calls.
            let mut vector: u128 = 0;
            let mut base = 0usize;
            let slots = slots as usize;
            while base < slots {
                let count = (slots - base).min(64);
                let bits = self.lane_bits(row, base, count, search_value, search_care);
                vector |= u128::from(bits) << base;
                base += count;
            }
            vector & occupied
        };
        let first_match = if vector == 0 {
            None
        } else {
            Some(vector.trailing_zeros())
        };
        RowMatch {
            match_vector: vector,
            first_match,
            multiple_matches: vector.count_ones() > 1,
        }
    }

    /// Steps 1–3 with a limited processor bank: when a bucket holds more
    /// candidates than there are match processors (`⌈C/N⌉ > P`), "necessary
    /// matching actions can be divided into a few pipelined actions"
    /// (Sec. 3.1). Candidates are compared in slot order, `processors` per
    /// pass; the pass containing the first match terminates the pipeline
    /// (lower slots = higher priority, so later passes cannot win).
    ///
    /// Returns the match result and the number of passes executed.
    ///
    /// # Panics
    ///
    /// Panics if `processors` is zero, or under the same conditions as
    /// [`MatchProcessorBank::match_row`].
    #[must_use]
    pub fn match_row_pipelined(
        &self,
        row: &[u64],
        valid: u128,
        slots: u32,
        search: &SearchKey,
        processors: u32,
    ) -> (RowMatch, u32) {
        assert!(processors > 0, "need at least one match processor");
        assert!(slots <= 128, "at most 128 slots per physical row");
        let mut passes = 0u32;
        let mut vector: u128 = 0;
        let mut first_match = None;
        let mut start = 0u32;
        while start < slots {
            let end = (start + processors).min(slots);
            passes += 1;
            let window = crate::bits::low_mask(end) & !crate::bits::low_mask(start);
            let partial = self.match_row(row, valid & window, slots, search);
            vector |= partial.match_vector;
            if partial.first_match.is_some() {
                first_match = partial.first_match;
                break;
            }
            start = end;
        }
        (
            RowMatch {
                match_vector: vector,
                first_match,
                multiple_matches: vector.count_ones() > 1,
            },
            passes,
        )
    }

    /// Steps 1–3 when only the winner is needed: occupied slots are
    /// scanned in priority (ascending slot) order and the scan stops at
    /// the first match — the priority encoder discards later matches, so
    /// they need not be evaluated. Word-per-slot rows (the 64-bit ternary
    /// IP slots) and binary pairs take the lane kernels; every other shape
    /// stops at the first slot [`RecordLayout::key_matches`] accepts.
    ///
    /// # Panics
    ///
    /// As [`MatchProcessorBank::match_row`].
    #[must_use]
    #[allow(clippy::cast_possible_truncation)] // values pre-masked to <= 64 bits
    pub fn first_match(
        &self,
        row: &[u64],
        valid: u128,
        slots: u32,
        search: &SearchKey,
    ) -> Option<u32> {
        assert_eq!(
            search.bits(),
            self.layout.key_bits(),
            "search key width {} does not match layout width {}",
            search.bits(),
            self.layout.key_bits()
        );
        assert!(slots <= 128, "at most 128 slots per physical row");
        // The occupancy bitmap never carries bits beyond the row's slots
        // (it is maintained per-slot by insert/delete); relying on that
        // keeps two 128-bit mask computations off the per-row hot path.
        debug_assert!(
            valid & !crate::bits::low_mask(slots) == 0,
            "valid bitmap has bits beyond the row's {slots} slots"
        );
        let key_bits = self.layout.key_bits();
        let search_value = search.value();
        let search_care = !search.dont_care() & crate::bits::low_mask(key_bits);
        if self.class == RowClass::Word1 {
            // Word-per-slot rows take the fused compare/priority-encode
            // routine: operands broadcast once, occupancy applied per
            // vector, early exit at vector granularity (see
            // [`kernel::word1_first_fn`]). Rows wider than 64 slots are
            // walked in 64-slot spans (the occupancy word is a `u64`).
            #[allow(clippy::cast_possible_truncation)]
            let (sv, sc) = (search_value as u64, search_care as u64);
            let ternary = self.layout.is_ternary();
            let slots = slots as usize;
            let mut base = 0usize;
            while base < slots {
                let count = (slots - base).min(64);
                // Branchless sub-64-bit mask: count is in 1..=64.
                let occ = (valid >> base) as u64 & (u64::MAX >> (64 - count));
                if occ != 0 {
                    if let Some(slot) =
                        (self.word1_first)(&row[base..base + count], occ, sv, sc, key_bits, ternary)
                    {
                        return Some(base as u32 + slot);
                    }
                }
                base += count;
            }
            return None;
        }
        if self.class == RowClass::Word2Binary {
            // Paired-word rows: compare a group of slots per kernel call
            // and stop at the first group with a hit — the priority
            // encoder's early exit at lane granularity. The 256-bit path
            // widens its group to 32 only on deep rows, where misses and
            // deep hits dominate and the broadcast setup amortizes.
            let group: usize = if self.kernel == Kernel::Lanes256 && slots > 32 {
                32
            } else {
                16
            };
            let slots = slots as usize;
            let mut base = 0usize;
            while base < slots {
                let count = (slots - base).min(group);
                // Branchless sub-64-bit mask: count is in 1..=64.
                let occ = (valid >> base) as u64 & (u64::MAX >> (64 - count));
                if occ != 0 {
                    let bits = self.lane_bits(row, base, count, search_value, search_care) & occ;
                    if bits != 0 {
                        return Some(base as u32 + bits.trailing_zeros());
                    }
                }
                base += count;
            }
            return None;
        }
        self.generic_matches(row, valid, search_value, search_care)
            .next()
    }

    /// The match lines of a `RowClass::Generic` row: the slots of
    /// `occupied` whose stored key matches (`value`, `care`), in priority
    /// (ascending slot) order. Lazy, so [`MatchProcessorBank::first_match`]
    /// stops comparing at the first hit.
    fn generic_matches<'a>(
        &'a self,
        row: &'a [u64],
        occupied: u128,
        value: u128,
        care: u128,
    ) -> impl Iterator<Item = u32> + 'a {
        let mut pending = occupied;
        std::iter::from_fn(move || {
            while pending != 0 {
                let slot = pending.trailing_zeros();
                pending &= pending - 1;
                if self.layout.key_matches(row, slot, value, care) {
                    return Some(slot);
                }
            }
            None
        })
    }

    /// Step 4: extracts the record at the winning slot. Lane-classed rows
    /// decode straight from the slot's word(s) — the fields of a 64- or
    /// 128-bit slot never straddle words, so the general window reads of
    /// [`RecordLayout::decode_slot`] are skipped on the hit path; every
    /// other shape decodes through them.
    ///
    /// # Panics
    ///
    /// Panics if the slot lies outside the row.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)] // data field pre-masked to <= 64 bits
    pub fn extract(&self, row: &[u64], slot: u32) -> Record {
        let key_bits = self.layout.key_bits();
        let key_mask = crate::bits::low_mask(key_bits);
        match self.class {
            RowClass::Word1 => {
                let w = u128::from(row[slot as usize]);
                let (dont_care, rest) = if self.layout.is_ternary() {
                    ((w >> key_bits) & key_mask, w >> (2 * key_bits))
                } else {
                    (0, w >> key_bits)
                };
                let data = (rest & crate::bits::low_mask(self.layout.data_bits())) as u64;
                Record {
                    key: TernaryKey::ternary_decoded(w & key_mask, dont_care, key_bits),
                    data,
                }
            }
            RowClass::Word2Binary => {
                let base = 2 * slot as usize;
                let w = u128::from(row[base]) | (u128::from(row[base + 1]) << 64);
                let data = if self.layout.data_bits() == 0 {
                    0 // also dodges the key_bits == 128 full-width shift
                } else {
                    ((w >> key_bits) & crate::bits::low_mask(self.layout.data_bits())) as u64
                };
                Record {
                    key: TernaryKey::ternary_decoded(w & key_mask, 0, key_bits),
                    data,
                }
            }
            RowClass::Generic => self.layout.decode_slot(row, slot),
        }
    }

    /// Convenience: full pipeline over one row, returning the winning
    /// record and its slot (via the early-exit [`MatchProcessorBank::first_match`]).
    #[must_use]
    #[inline]
    pub fn search_row(
        &self,
        row: &[u64],
        valid: u128,
        slots: u32,
        search: &SearchKey,
    ) -> Option<(u32, Record)> {
        self.first_match(row, valid, slots, search)
            .map(|slot| (slot, self.extract(row, slot)))
    }

    /// Reference implementation of [`MatchProcessorBank::match_row`] that
    /// fully decodes every valid slot before comparing. Kept as the
    /// correctness oracle every compare kernel is checked against.
    ///
    /// # Panics
    ///
    /// As [`MatchProcessorBank::match_row`].
    #[must_use]
    pub fn match_row_decode_all(
        &self,
        row: &[u64],
        valid: u128,
        slots: u32,
        search: &SearchKey,
    ) -> RowMatch {
        assert_eq!(
            search.bits(),
            self.layout.key_bits(),
            "search key width {} does not match layout width {}",
            search.bits(),
            self.layout.key_bits()
        );
        assert!(slots <= 128, "at most 128 slots per physical row");
        let mut vector: u128 = 0;
        for slot in 0..slots {
            if valid >> slot & 1 == 0 {
                continue;
            }
            let record = self.layout.decode_slot(row, slot);
            if record.key.matches(search) {
                vector |= 1 << slot;
            }
        }
        let first_match = if vector == 0 {
            None
        } else {
            Some(vector.trailing_zeros())
        };
        RowMatch {
            match_vector: vector,
            first_match,
            multiple_matches: vector.count_ones() > 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::TernaryKey;

    fn build_row(layout: &RecordLayout, slots: u32, records: &[(u32, Record)]) -> (Vec<u64>, u128) {
        let bits = layout.slot_bits() * slots;
        let mut row = vec![0u64; (bits as usize).div_ceil(64)];
        let mut valid: u128 = 0;
        for (slot, rec) in records {
            layout.encode_slot(&mut row, *slot, rec);
            valid |= 1 << slot;
        }
        (row, valid)
    }

    #[test]
    fn single_match_found() {
        let layout = RecordLayout::new(16, false, 8);
        let recs = [
            (0, Record::new(TernaryKey::binary(0x1111, 16), 1)),
            (1, Record::new(TernaryKey::binary(0x2222, 16), 2)),
            (3, Record::new(TernaryKey::binary(0x3333, 16), 3)),
        ];
        let (row, valid) = build_row(&layout, 4, &recs);
        let bank = MatchProcessorBank::new(layout);
        let m = bank.match_row(&row, valid, 4, &SearchKey::new(0x2222, 16));
        assert_eq!(m.first_match, Some(1));
        assert_eq!(m.match_vector, 0b10);
        assert!(!m.multiple_matches);
        let (slot, rec) = bank
            .search_row(&row, valid, 4, &SearchKey::new(0x3333, 16))
            .unwrap();
        assert_eq!(slot, 3);
        assert_eq!(rec.data, 3);
    }

    #[test]
    fn miss_returns_none() {
        let layout = RecordLayout::new(16, false, 0);
        let (row, valid) = build_row(
            &layout,
            4,
            &[(0, Record::new(TernaryKey::binary(0xAAAA, 16), 0))],
        );
        let bank = MatchProcessorBank::new(layout);
        assert!(bank
            .search_row(&row, valid, 4, &SearchKey::new(0xBBBB, 16))
            .is_none());
    }

    #[test]
    fn invalid_slots_never_match() {
        // A stale key left in an invalidated slot must not match.
        let layout = RecordLayout::new(16, false, 0);
        let (row, _) = build_row(
            &layout,
            2,
            &[(0, Record::new(TernaryKey::binary(0xCCCC, 16), 0))],
        );
        let bank = MatchProcessorBank::new(layout);
        let m = bank.match_row(&row, 0, 2, &SearchKey::new(0xCCCC, 16));
        assert_eq!(m.first_match, None);
        // Slot 1 is zeroed but also invalid: a zero search key must miss.
        let m = bank.match_row(&row, 0b01, 2, &SearchKey::new(0, 16));
        assert_eq!(m.first_match, None);
    }

    #[test]
    fn priority_encoder_picks_lowest_slot() {
        // Two entries match (a /16 placed before a /8 in priority order);
        // the encoder must pick the lower slot, implementing LPM.
        let layout = RecordLayout::new(32, true, 8);
        let p16 = Record::new(TernaryKey::ternary(0xC0A8_0000, 0xFFFF, 32), 16);
        let p8 = Record::new(TernaryKey::ternary(0xC000_0000, 0x00FF_FFFF, 32), 8);
        let (row, valid) = build_row(&layout, 4, &[(0, p16), (1, p8)]);
        let bank = MatchProcessorBank::new(layout);
        let m = bank.match_row(&row, valid, 4, &SearchKey::new(0xC0A8_1234, 32));
        assert_eq!(m.first_match, Some(0));
        assert!(m.multiple_matches);
        assert_eq!(m.match_count(), 2);
        // A key matching only the /8 falls through to slot 1.
        let m = bank.match_row(&row, valid, 4, &SearchKey::new(0xC001_0000, 32));
        assert_eq!(m.first_match, Some(1));
        assert!(!m.multiple_matches);
    }

    #[test]
    fn masked_search_key_matches_multiple() {
        let layout = RecordLayout::new(8, false, 0);
        let recs = [
            (0, Record::new(TernaryKey::binary(0b0000_0000, 8), 0)),
            (1, Record::new(TernaryKey::binary(0b0000_0001, 8), 0)),
            (2, Record::new(TernaryKey::binary(0b1000_0001, 8), 0)),
        ];
        let (row, valid) = build_row(&layout, 3, &recs);
        let bank = MatchProcessorBank::new(layout);
        // Search 0000000X matches slots 0 and 1.
        let m = bank.match_row(&row, valid, 3, &SearchKey::with_mask(0, 1, 8));
        assert_eq!(m.match_vector, 0b011);
        assert_eq!(m.first_match, Some(0));
    }

    #[test]
    fn full_row_of_96_slots() {
        // The trigram configuration: 96 keys of 128 bits per bucket.
        let layout = RecordLayout::new(128, false, 0);
        let records: Vec<(u32, Record)> = (0..96)
            .map(|i| {
                (
                    i,
                    Record::new(TernaryKey::binary(u128::from(i) << 64 | 7, 128), 0),
                )
            })
            .collect();
        let (row, valid) = build_row(&layout, 96, &records);
        let bank = MatchProcessorBank::new(layout);
        for i in [0u32, 47, 95] {
            let key = SearchKey::new(u128::from(i) << 64 | 7, 128);
            let m = bank.match_row(&row, valid, 96, &key);
            assert_eq!(m.first_match, Some(i));
            assert!(!m.multiple_matches);
        }
        assert!(bank
            .match_row(&row, valid, 96, &SearchKey::new(96u128 << 64 | 7, 128))
            .first_match
            .is_none());
    }

    #[test]
    fn pipelined_match_agrees_with_full_bank() {
        let layout = RecordLayout::new(16, false, 0);
        let records: Vec<(u32, Record)> = (0..12)
            .map(|i| {
                (
                    i,
                    Record::new(TernaryKey::binary(u128::from(0x500 + i), 16), 0),
                )
            })
            .collect();
        let (row, valid) = build_row(&layout, 12, &records);
        let bank = MatchProcessorBank::new(layout);
        for target in [0u32, 5, 11] {
            let key = SearchKey::new(u128::from(0x500 + target), 16);
            let full = bank.match_row(&row, valid, 12, &key);
            for p in [1u32, 4, 5, 12, 64] {
                let (pipelined, passes) = bank.match_row_pipelined(&row, valid, 12, &key, p);
                assert_eq!(pipelined.first_match, full.first_match, "P={p}");
                // The winning pass is the one containing the target slot.
                assert_eq!(passes, target / p + 1, "P={p} target={target}");
            }
        }
    }

    #[test]
    fn pipelined_miss_runs_all_passes() {
        let layout = RecordLayout::new(16, false, 0);
        let records: Vec<(u32, Record)> = (0..8)
            .map(|i| (i, Record::new(TernaryKey::binary(u128::from(i), 16), 0)))
            .collect();
        let (row, valid) = build_row(&layout, 8, &records);
        let bank = MatchProcessorBank::new(layout);
        let (m, passes) = bank.match_row_pipelined(&row, valid, 8, &SearchKey::new(0xFFFF, 16), 3);
        assert_eq!(m.first_match, None);
        assert_eq!(passes, 3); // ceil(8/3)
    }

    #[test]
    fn pipelined_priority_stops_at_first_matching_pass() {
        // Two matches in different passes: the earlier pass wins and the
        // pipeline stops, leaving the later match unobserved in the vector.
        let layout = RecordLayout::new(8, false, 0);
        let records = [
            (1, Record::new(TernaryKey::binary(0x7, 8), 0)),
            (6, Record::new(TernaryKey::binary(0x7, 8), 0)),
        ];
        let (row, valid) = build_row(&layout, 8, &records);
        let bank = MatchProcessorBank::new(layout);
        let (m, passes) = bank.match_row_pipelined(&row, valid, 8, &SearchKey::new(0x7, 8), 4);
        assert_eq!(m.first_match, Some(1));
        assert_eq!(passes, 1);
        assert!(!m.multiple_matches, "the second match was never evaluated");
    }

    #[test]
    fn direct_compare_agrees_with_decode_all_oracle() {
        // Ternary layout with masked stored keys and masked search keys:
        // the direct stored-bit compare must reproduce the decode-all
        // reference bit for bit, including the match vector.
        let layout = RecordLayout::new(16, true, 8);
        let records = [
            (0, Record::new(TernaryKey::ternary(0xAB00, 0x00FF, 16), 1)),
            (2, Record::new(TernaryKey::binary(0xAB12, 16), 2)),
            (3, Record::new(TernaryKey::ternary(0x0000, 0xFFFF, 16), 3)),
            (5, Record::new(TernaryKey::ternary(0xA000, 0x0FFF, 16), 4)),
        ];
        let (row, valid) = build_row(&layout, 6, &records);
        let bank = MatchProcessorBank::new(layout);
        for probe in [
            SearchKey::new(0xAB12, 16),
            SearchKey::new(0x1234, 16),
            SearchKey::with_mask(0xA000, 0x0FF0, 16),
            SearchKey::with_mask(0x0000, 0xFFFF, 16),
        ] {
            assert_eq!(
                bank.match_row(&row, valid, 6, &probe),
                bank.match_row_decode_all(&row, valid, 6, &probe),
                "probe {probe:?}"
            );
        }
    }

    #[test]
    fn first_match_agrees_with_match_row() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        // Word-multiple ternary (IP, single-word fast path), word-multiple
        // binary, and an unaligned layout (generic path).
        for layout in [
            RecordLayout::new(32, true, 0),
            RecordLayout::new(64, false, 0),
            RecordLayout::new(13, true, 5),
        ] {
            let slots = 16u32;
            let bits = layout.key_bits();
            let mut records: Vec<(u32, Record)> = Vec::new();
            for i in 0..slots {
                if rng.gen_range(0..4u32) == 0 {
                    continue; // leave some slots invalid
                }
                let dc = if layout.is_ternary() {
                    crate::bits::low_mask(rng.gen_range(0..=bits))
                } else {
                    0
                };
                let v = rng.gen::<u128>() & crate::bits::low_mask(bits);
                records.push((i, Record::new(TernaryKey::ternary(v & !dc, dc, bits), 0)));
            }
            let (row, valid) = build_row(&layout, slots, &records);
            let bank = MatchProcessorBank::new(layout);
            for _ in 0..200 {
                let probe = if rng.gen_range(0..3u32) == 0 {
                    let dc = crate::bits::low_mask(rng.gen_range(0..=bits));
                    SearchKey::with_mask(rng.gen::<u128>() & crate::bits::low_mask(bits), dc, bits)
                } else if records.is_empty() {
                    SearchKey::new(0, bits)
                } else {
                    let r = &records[rng.gen_range(0..records.len())].1;
                    SearchKey::new(r.key.value(), bits)
                };
                assert_eq!(
                    bank.first_match(&row, valid, slots, &probe),
                    bank.match_row(&row, valid, slots, &probe).first_match,
                    "layout {layout:?} probe {probe:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match layout width")]
    fn wrong_search_width_rejected() {
        let layout = RecordLayout::new(16, false, 0);
        let bank = MatchProcessorBank::new(layout);
        let row = vec![0u64; 1];
        let _ = bank.match_row(&row, 0, 1, &SearchKey::new(0, 8));
    }
}
