//! Record formats and their placement within a memory row.
//!
//! A row (bucket) of `C` bits holds `⌊C / slot_bits⌋` record slots
//! (Sec. 3.1). A slot serializes the stored key — two bits per symbol when
//! ternary search is enabled — optionally followed by the record's data,
//! which CA-RAM can store alongside the key to hide the data access that
//! follows a CAM lookup (Sec. 3.2).

use crate::key::{TernaryKey, MAX_KEY_BITS};

/// Maximum data payload width per record.
pub const MAX_DATA_BITS: u32 = 64;

/// A searchable record: a (possibly ternary) key plus a data payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Record {
    /// The stored key.
    pub key: TernaryKey,
    /// The data payload (interpreted by the application; e.g. next-hop id).
    pub data: u64,
}

impl Record {
    /// Creates a record.
    #[must_use]
    pub fn new(key: TernaryKey, data: u64) -> Self {
        Self { key, data }
    }
}

/// The serialized format of one record slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordLayout {
    key_bits: u32,
    ternary: bool,
    data_bits: u32,
}

impl RecordLayout {
    /// Creates a layout for `key_bits`-wide keys and `data_bits` of payload.
    /// With `ternary` enabled every key position costs two stored bits
    /// (value + don't-care), halving the records that fit in a bucket
    /// (Sec. 3.1).
    ///
    /// # Panics
    ///
    /// Panics if `key_bits` is 0 or exceeds [`MAX_KEY_BITS`], or if
    /// `data_bits` exceeds [`MAX_DATA_BITS`].
    #[must_use]
    pub fn new(key_bits: u32, ternary: bool, data_bits: u32) -> Self {
        assert!(
            key_bits > 0 && key_bits <= MAX_KEY_BITS,
            "key width must be in 1..={MAX_KEY_BITS}, got {key_bits}"
        );
        assert!(
            data_bits <= MAX_DATA_BITS,
            "data width must be at most {MAX_DATA_BITS}, got {data_bits}"
        );
        Self {
            key_bits,
            ternary,
            data_bits,
        }
    }

    /// A key-only binary layout (data lives in a separate RAM, as in a
    /// conventional CAM deployment).
    #[must_use]
    pub fn binary_key_only(key_bits: u32) -> Self {
        Self::new(key_bits, false, 0)
    }

    /// The IP-lookup layout of Sec. 4.1: 32 ternary key bits (64 stored
    /// bits) plus a data payload (next-hop index).
    #[must_use]
    pub fn ipv4_prefix(data_bits: u32) -> Self {
        Self::new(32, true, data_bits)
    }

    /// Key width in bits.
    #[must_use]
    pub fn key_bits(&self) -> u32 {
        self.key_bits
    }

    /// Whether stored keys may contain don't-care symbols.
    #[must_use]
    pub fn is_ternary(&self) -> bool {
        self.ternary
    }

    /// Data payload width in bits.
    #[must_use]
    pub fn data_bits(&self) -> u32 {
        self.data_bits
    }

    /// Stored bits occupied by the key field (2× when ternary).
    #[must_use]
    pub fn stored_key_bits(&self) -> u32 {
        if self.ternary {
            self.key_bits * 2
        } else {
            self.key_bits
        }
    }

    /// Total stored bits per record slot.
    #[must_use]
    pub fn slot_bits(&self) -> u32 {
        self.stored_key_bits() + self.data_bits
    }

    /// Number of record slots in a row of `row_bits` bits:
    /// `⌊C / slot_bits⌋`.
    ///
    /// # Panics
    ///
    /// Panics if not even one slot fits.
    #[must_use]
    pub fn slots_per_row(&self, row_bits: u32) -> u32 {
        let slots = row_bits / self.slot_bits();
        assert!(
            slots > 0,
            "row of {row_bits} bits cannot hold a {}-bit record slot",
            self.slot_bits()
        );
        slots
    }

    /// Bit offset of slot `slot` within its row.
    #[must_use]
    #[inline]
    pub fn slot_offset(&self, slot: u32) -> usize {
        slot as usize * self.slot_bits() as usize
    }

    /// Serializes `record` into the row `words` at slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the record's key width does not match the layout, if the
    /// record has don't-care bits but the layout is binary, if the data
    /// overflows `data_bits`, or if the slot lies outside the row.
    pub fn encode_slot(&self, words: &mut [u64], slot: u32, record: &Record) {
        assert_eq!(
            record.key.bits(),
            self.key_bits,
            "record key width {} does not match layout key width {}",
            record.key.bits(),
            self.key_bits
        );
        assert!(
            self.ternary || record.key.dont_care() == 0,
            "binary layout cannot store a ternary key"
        );
        assert!(
            self.data_bits == 64 || record.data < (1u64 << self.data_bits),
            "data {:#x} overflows the {}-bit data field",
            record.data,
            self.data_bits
        );
        let base = self.slot_offset(slot);
        crate::bits::write_bits(words, base, self.key_bits, record.key.value());
        let mut cursor = base + self.key_bits as usize;
        if self.ternary {
            crate::bits::write_bits(words, cursor, self.key_bits, record.key.dont_care());
            cursor += self.key_bits as usize;
        }
        if self.data_bits > 0 {
            crate::bits::write_bits(words, cursor, self.data_bits, u128::from(record.data));
        }
    }

    /// Compares the stored key at slot `slot` directly against a search
    /// key without materializing a [`Record`] — the hardware match step
    /// (Fig. 4(b)) reads the stored bits, applies both don't-care masks,
    /// and raises the match line; only the *winning* slot is then decoded
    /// ("extract result", Sec. 3.1 step 4). Stored keys are canonical
    /// (value bits at don't-care positions are zero, enforced by
    /// [`TernaryKey::ternary`]), so the masked XOR below is exact.
    ///
    /// `value` is the search key and `care` its care mask (clear at the
    /// search key's don't-care positions and above the key width); the
    /// caller computes both once per row. Each key and don't-care field is
    /// read in unaligned windows of at most 64 bits
    /// ([`crate::bits::read_u64`]: two word loads, no loop). A key wider
    /// than 64 bits is compared top 64 bits first and rejected there
    /// before its low bits are read: candidates sharing a bucket mostly
    /// differ in their leading fields (the addresses of a five-tuple).
    /// The compare runs once per occupied slot of every generic row, so it
    /// and its half-compare are forced inline: left to the inliner, they
    /// stayed calls and the five-tuple row scan ran at half the speed.
    ///
    /// The caller is responsible for slot validity, as with
    /// [`RecordLayout::decode_slot`].
    ///
    /// # Panics
    ///
    /// Panics if the slot lies outside the row. The search key width is
    /// checked by the match-processor bank, not here.
    #[must_use]
    #[inline(always)]
    #[allow(clippy::inline_always)] // measured; see the doc above
    #[allow(clippy::cast_possible_truncation)] // the halves compared are <= 64 bits
    pub fn key_matches(&self, words: &[u64], slot: u32, value: u128, care: u128) -> bool {
        let key = self.slot_offset(slot);
        let low = self.key_bits.saturating_sub(64);
        self.part_matches(
            words,
            key + low as usize,
            self.key_bits - low,
            (value >> low) as u64,
            (care >> low) as u64,
        ) && (low == 0 || self.part_matches(words, key, low, value as u64, care as u64))
    }

    /// One half of [`RecordLayout::key_matches`]: the `width` (1..=64)
    /// stored key bits from bit `at` of the row, and their don't-care bits
    /// one key width further, against `value` under `care`.
    #[inline(always)]
    #[allow(clippy::inline_always)] // as `key_matches`
    fn part_matches(&self, words: &[u64], at: usize, width: u32, value: u64, care: u64) -> bool {
        let stored = crate::bits::read_u64(words, at, width);
        let stored_dc = if self.ternary {
            crate::bits::read_u64(words, at + self.key_bits as usize, width)
        } else {
            0
        };
        (stored ^ value) & care & !stored_dc & (u64::MAX >> (64 - width)) == 0
    }

    /// Deserializes the record at slot `slot` from the row `words`.
    ///
    /// The caller is responsible for knowing whether the slot is valid
    /// (validity lives in the bucket's auxiliary field, not in the slot).
    ///
    /// # Panics
    ///
    /// Panics if the slot lies outside the row.
    #[must_use]
    pub fn decode_slot(&self, words: &[u64], slot: u32) -> Record {
        let base = self.slot_offset(slot);
        let value = crate::bits::read_bits(words, base, self.key_bits);
        let mut cursor = base + self.key_bits as usize;
        let dont_care = if self.ternary {
            let m = crate::bits::read_bits(words, cursor, self.key_bits);
            cursor += self.key_bits as usize;
            m
        } else {
            0
        };
        let data = if self.data_bits > 0 {
            #[allow(clippy::cast_possible_truncation)]
            {
                crate::bits::read_bits(words, cursor, self.data_bits) as u64
            }
        } else {
            0
        };
        Record {
            key: TernaryKey::ternary(value, dont_care, self.key_bits),
            data,
        }
    }

    /// Zeroes the slot (used by delete; validity is cleared separately).
    ///
    /// Wide ternary layouts exceed the 128-bit single-field limit of the
    /// bit-packed array (a 64-bit ternary key with 32-bit data is a
    /// 160-bit slot), so the slot is zeroed in `<= 128`-bit chunks.
    ///
    /// # Panics
    ///
    /// Panics if the slot lies outside the row.
    pub fn clear_slot(&self, words: &mut [u64], slot: u32) {
        let mut offset = self.slot_offset(slot);
        let mut remaining = self.slot_bits();
        while remaining > 0 {
            let chunk = remaining.min(128);
            crate::bits::write_bits(words, offset, chunk, 0);
            offset += chunk as usize;
            remaining -= chunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(bits: u32) -> Vec<u64> {
        vec![0u64; (bits as usize).div_ceil(64)]
    }

    #[test]
    fn slot_geometry_matches_paper_designs() {
        // Table 2: 64-bit stored ternary IPv4 keys, 32 or 64 per bucket.
        let ip = RecordLayout::new(32, true, 0);
        assert_eq!(ip.stored_key_bits(), 64);
        assert_eq!(ip.slots_per_row(32 * 64), 32);
        assert_eq!(ip.slots_per_row(64 * 64), 64);
        // Table 3: 128-bit binary trigram keys, 96 per bucket.
        let tri = RecordLayout::new(128, false, 0);
        assert_eq!(tri.slots_per_row(128 * 96), 96);
    }

    #[test]
    fn encode_decode_round_trip_binary() {
        let layout = RecordLayout::new(24, false, 16);
        let mut words = row(24 * 4 + 16 * 4);
        for slot in 0..4 {
            let rec = Record::new(
                TernaryKey::binary(u128::from(0x00AB_CD00 + slot), 24),
                u64::from(0x1000 + slot),
            );
            layout.encode_slot(&mut words, slot, &rec);
        }
        for slot in 0..4 {
            let rec = layout.decode_slot(&words, slot);
            assert_eq!(rec.key.value(), u128::from(0x00AB_CD00 + slot));
            assert_eq!(rec.data, u64::from(0x1000 + slot));
        }
    }

    #[test]
    fn encode_decode_round_trip_ternary() {
        let layout = RecordLayout::ipv4_prefix(16);
        let mut words = row(layout.slot_bits() * 2);
        let rec = Record::new(TernaryKey::ternary(0xC0A8_0000, 0xFFFF, 32), 42);
        layout.encode_slot(&mut words, 1, &rec);
        let back = layout.decode_slot(&words, 1);
        assert_eq!(back, rec);
        assert_eq!(back.key.care_count(), 16);
    }

    #[test]
    fn neighbouring_slots_do_not_interfere() {
        let layout = RecordLayout::new(13, false, 3);
        let mut words = row(layout.slot_bits() * 5);
        let recs: Vec<Record> = (0..5u32)
            .map(|i| {
                Record::new(
                    TernaryKey::binary(u128::from(i * 1000 + 7), 13),
                    u64::from(i % 8),
                )
            })
            .collect();
        for (i, r) in recs.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            layout.encode_slot(&mut words, i as u32, r);
        }
        for (i, r) in recs.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            let got = layout.decode_slot(&words, i as u32);
            assert_eq!(got, *r);
        }
    }

    #[test]
    fn clear_slot_zeroes_exactly_one_slot() {
        let layout = RecordLayout::new(16, false, 8);
        let mut words = row(layout.slot_bits() * 3);
        for slot in 0..3 {
            let rec = Record::new(TernaryKey::binary(0xAAAA, 16), 0xBB);
            layout.encode_slot(&mut words, slot, &rec);
        }
        layout.clear_slot(&mut words, 1);
        assert_eq!(layout.decode_slot(&words, 0).key.value(), 0xAAAA);
        assert_eq!(layout.decode_slot(&words, 1).key.value(), 0);
        assert_eq!(layout.decode_slot(&words, 1).data, 0);
        assert_eq!(layout.decode_slot(&words, 2).key.value(), 0xAAAA);
    }

    #[test]
    fn clear_slot_handles_slots_wider_than_128_bits() {
        // Regression: a 64-bit ternary key with 32-bit data is a 160-bit
        // slot; clearing it as one bit-array field used to panic
        // ("field width 160 exceeds 128 bits") on every delete.
        for (key_bits, data_bits) in [(64, 32), (96, 32), (128, 64)] {
            let layout = RecordLayout::new(key_bits, true, data_bits);
            assert!(layout.slot_bits() > 128);
            let mut words = row(layout.slot_bits() * 3);
            for slot in 0..3 {
                let rec = Record::new(
                    TernaryKey::ternary(u128::MAX >> (128 - key_bits), 0, key_bits),
                    u64::from(0xDEAD_0000 + slot),
                );
                layout.encode_slot(&mut words, slot, &rec);
            }
            layout.clear_slot(&mut words, 1);
            assert_eq!(layout.decode_slot(&words, 1).key.value(), 0);
            assert_eq!(layout.decode_slot(&words, 1).key.dont_care(), 0);
            assert_eq!(layout.decode_slot(&words, 1).data, 0);
            // Neighbours survive the chunked clear untouched.
            for slot in [0, 2] {
                let rec = layout.decode_slot(&words, slot);
                assert_eq!(rec.key.value(), u128::MAX >> (128 - key_bits));
                assert_eq!(rec.data, u64::from(0xDEAD_0000 + slot));
            }
        }
    }

    #[test]
    fn ternary_halves_capacity() {
        // Sec. 3.1: "the number of records that can fit ... will be halved
        // when the ternary search capability is enabled".
        let bin = RecordLayout::new(32, false, 0);
        let ter = RecordLayout::new(32, true, 0);
        assert_eq!(bin.slots_per_row(2048), 2 * ter.slots_per_row(2048));
    }

    #[test]
    fn full_width_data() {
        let layout = RecordLayout::new(8, false, 64);
        let mut words = row(layout.slot_bits());
        let rec = Record::new(TernaryKey::binary(0x5A, 8), u64::MAX);
        layout.encode_slot(&mut words, 0, &rec);
        assert_eq!(layout.decode_slot(&words, 0).data, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "binary layout cannot store a ternary key")]
    fn ternary_key_in_binary_layout_rejected() {
        let layout = RecordLayout::new(8, false, 0);
        let mut words = row(8);
        layout.encode_slot(&mut words, 0, &Record::new(TernaryKey::ternary(0, 1, 8), 0));
    }

    #[test]
    fn key_matches_agrees_with_decode_then_match() {
        use crate::bits::low_mask;
        use crate::key::SearchKey;
        // Ternary and binary layouts, slots at unaligned offsets too. At
        // 100 bits the 12-bit patterns sit in the key's top bits, above
        // the split of the top-64-bits-first compare.
        for (key_bits, ternary) in [(12, true), (12, false), (100, true), (100, false)] {
            let layout = RecordLayout::new(key_bits, ternary, 7);
            let shift = key_bits - 12;
            let mut words = row(4 * layout.slot_bits());
            let keys = [
                (0b1010_0101_0011u128, 0u128),
                (0b1010_0000_0000, 0b0000_1111_1111),
                (0, 0),
                (0, 0b1111_1111_1111),
            ];
            for (slot, &(value, dc)) in keys.iter().enumerate() {
                let dc = if ternary { dc << shift } else { 0 };
                let key = TernaryKey::ternary(value << shift & !dc, dc, key_bits);
                #[allow(clippy::cast_possible_truncation)]
                layout.encode_slot(&mut words, slot as u32, &Record::new(key, 99));
            }
            for slot in 0..4u32 {
                for (value, dc) in [
                    (0b1010_0101_0011u128, 0u128),
                    (0b1010_0000_1100, 0),
                    (0, 0b1111_0000_0000),
                    (0b1010_0101_0011, 0b0000_0000_0111),
                ] {
                    // Setting bit 0 makes the 100-bit probes differ only
                    // below the split, which the top compare cannot see.
                    for low in [0, 1] {
                        let probe =
                            SearchKey::with_mask(value << shift | low, dc << shift, key_bits);
                        let decoded = layout.decode_slot(&words, slot);
                        assert_eq!(
                            layout.key_matches(
                                &words,
                                slot,
                                probe.value(),
                                !probe.dont_care() & low_mask(key_bits)
                            ),
                            decoded.key.matches(&probe),
                            "layout {layout:?} slot {slot} probe {probe:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows the")]
    fn oversized_data_rejected() {
        let layout = RecordLayout::new(8, false, 4);
        let mut words = row(12);
        layout.encode_slot(&mut words, 0, &Record::new(TernaryKey::binary(0, 8), 16));
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn row_too_narrow_rejected() {
        let layout = RecordLayout::new(128, true, 0);
        let _ = layout.slots_per_row(255);
    }
}
