//! A physical CA-RAM slice: memory array + auxiliary fields + match
//! processors (Fig. 3).
//!
//! The slice exposes bucket/slot-level operations; hash-based placement,
//! probing, and multi-slice arrangements live one level up in
//! [`crate::subsystem`]. Each row carries an auxiliary field (Sec. 3.1)
//! holding the slot-validity bitmap and the *reach* — how far the extended
//! search effort must go when the bucket has overflowed.

use crate::array::MemoryArray;
use crate::key::SearchKey;
use crate::layout::{Record, RecordLayout};
use crate::matchproc::{wins_tie_break, MatchProcessorBank, RowMatch};
use crate::storage::StorageBackend;

/// Per-row auxiliary field (Sec. 3.1: overflow status and slot occupancy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuxField {
    /// Slot-validity bitmap: bit `i` set iff slot `i` holds a record.
    pub valid: u128,
    /// How many buckets past this one a lookup must examine to cover every
    /// record whose home is this bucket (0 = no overflow).
    pub reach: u32,
}

/// A physical CA-RAM slice.
#[derive(Debug, Clone)]
pub struct CaRamSlice {
    layout: RecordLayout,
    array: MemoryArray,
    aux: Vec<AuxField>,
    bank: MatchProcessorBank,
    slots_per_row: u32,
}

impl CaRamSlice {
    /// Creates a zeroed slice of `2^rows_log2` rows of `row_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `rows_log2` exceeds 40, if a row holds no slots, or if a
    /// row holds more than 128 slots (the auxiliary bitmap width).
    #[must_use]
    pub fn new(rows_log2: u32, row_bits: u32, layout: RecordLayout) -> Self {
        Self::with_backend(rows_log2, row_bits, layout, &StorageBackend::Heap)
            .expect("heap backend cannot fail")
    }

    /// Creates a slice whose memory array lives on the given storage
    /// backend (see [`MemoryArray::with_backend`]). The auxiliary fields
    /// (validity bitmaps, reach) always live on the heap: the durable
    /// source of truth for occupancy is the write-ahead log, not the
    /// array file.
    ///
    /// # Errors
    ///
    /// Any [`crate::error::CaRamError::Durability`] error from opening the
    /// backing file.
    ///
    /// # Panics
    ///
    /// Panics if `rows_log2` exceeds 40, if a row holds no slots, or if a
    /// row holds more than 128 slots (the auxiliary bitmap width).
    pub fn with_backend(
        rows_log2: u32,
        row_bits: u32,
        layout: RecordLayout,
        backend: &StorageBackend,
    ) -> crate::error::Result<Self> {
        assert!(rows_log2 <= 40, "2^{rows_log2} rows is beyond any device");
        let rows = 1u64 << rows_log2;
        let slots_per_row = layout.slots_per_row(row_bits);
        assert!(
            slots_per_row <= 128,
            "{slots_per_row} slots per row exceeds the 128-slot auxiliary bitmap"
        );
        Ok(Self {
            layout,
            array: MemoryArray::with_backend(rows, row_bits, backend)?,
            aux: vec![AuxField::default(); usize::try_from(rows).expect("checked above")],
            bank: MatchProcessorBank::new(layout),
            slots_per_row,
        })
    }

    /// Flushes a file-backed array durably to disk; a no-op on the heap
    /// backend.
    ///
    /// # Errors
    ///
    /// Any [`crate::error::CaRamError::Durability`] error from the sync.
    pub fn flush(&mut self) -> crate::error::Result<()> {
        self.array.flush()
    }

    /// Number of rows (buckets).
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.array.rows()
    }

    /// Bits per row (`C`).
    #[must_use]
    pub fn row_bits(&self) -> u32 {
        self.array.row_bits()
    }

    /// Record slots per row (`S`).
    #[must_use]
    pub fn slots_per_row(&self) -> u32 {
        self.slots_per_row
    }

    /// The record layout.
    #[must_use]
    pub fn layout(&self) -> &RecordLayout {
        &self.layout
    }

    /// The underlying memory array (RAM-mode view, Sec. 3.2).
    #[must_use]
    pub fn array(&self) -> &MemoryArray {
        &self.array
    }

    /// The compare kernel this slice's match processors captured at
    /// construction (see [`crate::kernel`]).
    #[must_use]
    pub fn kernel(&self) -> crate::kernel::Kernel {
        self.bank.kernel()
    }

    /// Hints the prefetcher to pull `row` into cache ahead of a
    /// [`CaRamSlice::search_bucket`] on it. Advisory; out-of-range rows
    /// are ignored.
    #[inline]
    pub fn prefetch_row(&self, row: u64) {
        self.array.prefetch_row(row);
        // The auxiliary word (valid bitmap + reach) is read before the row
        // words on every search; pull its line in with the same hint.
        self.prefetch_aux(row);
    }

    /// Hints the prefetcher at just the auxiliary word of `row` — enough
    /// for the empty-row early-out of [`CaRamSlice::search_bucket`], at a
    /// single line of prefetch traffic. Out-of-range rows are ignored.
    #[inline]
    pub fn prefetch_aux(&self, row: u64) {
        if let Ok(i) = usize::try_from(row) {
            if let Some(aux) = self.aux.get(i) {
                crate::array::prefetch_ref(aux);
            }
        }
    }

    /// Mutable RAM-mode view. Writing through this view does **not** update
    /// the auxiliary fields; it models the raw memory-copy database
    /// construction path of Sec. 3.2, after which the caller re-derives
    /// validity via [`CaRamSlice::set_aux`].
    pub fn array_mut(&mut self) -> &mut MemoryArray {
        &mut self.array
    }

    #[allow(clippy::unused_self)] // reads naturally as slice geometry helper
    fn aux_index(&self, row: u64) -> usize {
        usize::try_from(row).expect("row bounds checked by MemoryArray")
    }

    /// The auxiliary field of `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn aux(&self, row: u64) -> AuxField {
        assert!(row < self.rows(), "row {row} out of range");
        self.aux[self.aux_index(row)]
    }

    /// Overwrites the auxiliary field of `row` (used by RAM-mode database
    /// construction and by tests).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn set_aux(&mut self, row: u64, aux: AuxField) {
        assert!(row < self.rows(), "row {row} out of range");
        let i = self.aux_index(row);
        self.aux[i] = aux;
    }

    /// Number of valid records in `row`.
    #[must_use]
    pub fn occupancy(&self, row: u64) -> u32 {
        self.aux(row).valid.count_ones()
    }

    /// Whether `row` has no free slot.
    #[must_use]
    pub fn is_full(&self, row: u64) -> bool {
        self.occupancy(row) == self.slots_per_row
    }

    /// Lowest-numbered free slot of `row`, if any. Records are appended in
    /// slot order so that insertion order defines match priority
    /// (the LPM placement discipline of Sec. 4.1).
    #[must_use]
    pub fn free_slot(&self, row: u64) -> Option<u32> {
        let valid = self.aux(row).valid;
        let slot = (!valid).trailing_zeros();
        (slot < self.slots_per_row).then_some(slot)
    }

    /// Writes `record` into `(row, slot)` and marks the slot valid.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range or the record does not fit the
    /// layout.
    pub fn write_record(&mut self, row: u64, slot: u32, record: &Record) {
        assert!(slot < self.slots_per_row, "slot {slot} out of range");
        self.layout
            .encode_slot(self.array.row_mut(row), slot, record);
        let i = self.aux_index(row);
        self.aux[i].valid |= 1 << slot;
    }

    /// Appends `record` at the first free slot of `row`.
    /// Returns the slot used, or `None` if the row is full.
    pub fn append_record(&mut self, row: u64, record: &Record) -> Option<u32> {
        let slot = self.free_slot(row)?;
        self.write_record(row, slot, record);
        Some(slot)
    }

    /// Reads the record at `(row, slot)`, or `None` if the slot is invalid.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range.
    #[must_use]
    pub fn read_record(&self, row: u64, slot: u32) -> Option<Record> {
        assert!(slot < self.slots_per_row, "slot {slot} out of range");
        (self.aux(row).valid >> slot & 1 == 1)
            .then(|| self.layout.decode_slot(self.array.row(row), slot))
    }

    /// Invalidates `(row, slot)` and zeroes the stored bits. Returns the
    /// removed record, or `None` if the slot was already invalid.
    pub fn invalidate(&mut self, row: u64, slot: u32) -> Option<Record> {
        let record = self.read_record(row, slot)?;
        self.layout.clear_slot(self.array.row_mut(row), slot);
        let i = self.aux_index(row);
        self.aux[i].valid &= !(1 << slot);
        Some(record)
    }

    /// All valid records of `row` in slot (priority) order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn bucket_records(&self, row: u64) -> Vec<(u32, Record)> {
        let valid = self.aux(row).valid;
        let words = self.array.row(row);
        (0..self.slots_per_row)
            .filter(|&s| valid >> s & 1 == 1)
            .map(|s| (s, self.layout.decode_slot(words, s)))
            .collect()
    }

    /// Rewrites `row` to hold exactly `records`, in order, compacted from
    /// slot 0. The reach field is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `records` exceeds the row capacity.
    pub fn rewrite_bucket(&mut self, row: u64, records: &[Record]) {
        assert!(
            records.len() <= self.slots_per_row as usize,
            "{} records exceed the {}-slot bucket",
            records.len(),
            self.slots_per_row
        );
        let words = self.array.row_mut(row);
        words.fill(0);
        for (slot, record) in records.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            self.layout.encode_slot(words, slot as u32, record);
        }
        let i = self.aux_index(row);
        self.aux[i].valid = if records.is_empty() {
            0
        } else {
            crate::bits::low_mask(u32::try_from(records.len()).expect("<=128"))
        };
    }

    /// One hardware search step: fetch `row` and run the match processors.
    #[must_use]
    pub fn match_bucket(&self, row: u64, search: &SearchKey) -> RowMatch {
        self.bank.match_row(
            self.array.row(row),
            self.aux(row).valid,
            self.slots_per_row,
            search,
        )
    }

    /// Best-of-bucket variant of [`CaRamSlice::search_bucket`]: decodes
    /// every matching slot of `row` and returns the one with the most care
    /// bits (lowest slot on ties). Slot order stops encoding priority once
    /// a delete punches a hole and a later insert backfills it, so
    /// full-reach (post-delete) scans must compare matches instead of
    /// taking the first.
    #[must_use]
    pub fn search_bucket_best(&self, row: u64, search: &SearchKey) -> Option<(u32, Record)> {
        let words = self.array.row(row);
        let mut match_vector = self
            .bank
            .match_row(words, self.aux(row).valid, self.slots_per_row, search)
            .match_vector;
        // Slots are visited in ascending order, so under the one shared
        // `wins_tie_break` predicate the lowest slot keeps its seat on
        // equal care.
        let mut best: Option<(u32, Record)> = None;
        while match_vector != 0 {
            let slot = match_vector.trailing_zeros();
            match_vector &= match_vector - 1;
            let record = self.bank.extract(words, slot);
            if wins_tie_break(&record, best.as_ref().map(|(_, b)| b)) {
                best = Some((slot, record));
            }
        }
        best
    }

    /// Fetch + match + extract: the winning `(slot, record)` of `row`.
    #[must_use]
    #[inline]
    pub fn search_bucket(&self, row: u64, search: &SearchKey) -> Option<(u32, Record)> {
        let valid = self.aux(row).valid;
        if valid == 0 {
            // An empty row cannot fire a match line; skip the row fetch
            // entirely. Matters for horizontal arrangements, where a miss
            // walks every slice of the logical bucket and the later
            // slices are usually empty.
            debug_assert_eq!(search.bits(), self.layout.key_bits());
            return None;
        }
        self.bank
            .search_row(self.array.row(row), valid, self.slots_per_row, search)
    }

    /// Raises the reach of `row` to at least `reach`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn raise_reach(&mut self, row: u64, reach: u32) {
        assert!(row < self.rows(), "row {row} out of range");
        let i = self.aux_index(row);
        if self.aux[i].reach < reach {
            self.aux[i].reach = reach;
        }
    }

    /// Total valid records in the slice.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.aux
            .iter()
            .map(|a| u64::from(a.valid.count_ones()))
            .sum()
    }

    /// Clears all records and auxiliary state.
    pub fn clear(&mut self) {
        self.array.clear();
        self.aux.fill(AuxField::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::TernaryKey;

    fn slice() -> CaRamSlice {
        // 16 rows, 4 slots of (16-bit key + 8-bit data) per row.
        CaRamSlice::new(4, 96, RecordLayout::new(16, false, 8))
    }

    fn rec(value: u128, data: u64) -> Record {
        Record::new(TernaryKey::binary(value, 16), data)
    }

    #[test]
    fn geometry() {
        let s = slice();
        assert_eq!(s.rows(), 16);
        assert_eq!(s.slots_per_row(), 4);
        assert_eq!(s.row_bits(), 96);
    }

    #[test]
    fn append_fills_slots_in_order() {
        let mut s = slice();
        assert_eq!(s.append_record(3, &rec(0x10, 1)), Some(0));
        assert_eq!(s.append_record(3, &rec(0x20, 2)), Some(1));
        assert_eq!(s.append_record(3, &rec(0x30, 3)), Some(2));
        assert_eq!(s.append_record(3, &rec(0x40, 4)), Some(3));
        assert_eq!(s.append_record(3, &rec(0x50, 5)), None);
        assert!(s.is_full(3));
        assert_eq!(s.occupancy(3), 4);
        assert_eq!(s.record_count(), 4);
    }

    #[test]
    fn read_and_invalidate() {
        let mut s = slice();
        s.append_record(1, &rec(0xAB, 9));
        assert_eq!(s.read_record(1, 0).unwrap().data, 9);
        assert_eq!(s.read_record(1, 1), None);
        let removed = s.invalidate(1, 0).unwrap();
        assert_eq!(removed.key.value(), 0xAB);
        assert_eq!(s.read_record(1, 0), None);
        assert_eq!(s.invalidate(1, 0), None);
        assert_eq!(s.occupancy(1), 0);
    }

    #[test]
    fn append_reuses_freed_slot() {
        let mut s = slice();
        s.append_record(0, &rec(1, 0));
        s.append_record(0, &rec(2, 0));
        s.invalidate(0, 0);
        assert_eq!(s.append_record(0, &rec(3, 0)), Some(0));
    }

    #[test]
    fn search_bucket_respects_validity_and_priority() {
        let mut s = slice();
        s.append_record(2, &rec(0x77, 1));
        s.append_record(2, &rec(0x77, 2)); // duplicate key, lower priority
        let (slot, r) = s.search_bucket(2, &SearchKey::new(0x77, 16)).unwrap();
        assert_eq!((slot, r.data), (0, 1));
        s.invalidate(2, 0);
        let (slot, r) = s.search_bucket(2, &SearchKey::new(0x77, 16)).unwrap();
        assert_eq!((slot, r.data), (1, 2));
        let m = s.match_bucket(2, &SearchKey::new(0x78, 16));
        assert_eq!(m.first_match, None);
    }

    #[test]
    fn rewrite_bucket_compacts() {
        let mut s = slice();
        s.append_record(5, &rec(1, 1));
        s.append_record(5, &rec(2, 2));
        s.invalidate(5, 0);
        let records: Vec<Record> = s.bucket_records(5).into_iter().map(|(_, r)| r).collect();
        s.rewrite_bucket(5, &records);
        assert_eq!(s.read_record(5, 0).unwrap().data, 2);
        assert_eq!(s.occupancy(5), 1);
    }

    #[test]
    fn reach_is_monotonic() {
        let mut s = slice();
        s.raise_reach(7, 2);
        s.raise_reach(7, 1);
        assert_eq!(s.aux(7).reach, 2);
        s.raise_reach(7, 5);
        assert_eq!(s.aux(7).reach, 5);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = slice();
        s.append_record(0, &rec(1, 1));
        s.raise_reach(0, 3);
        s.clear();
        assert_eq!(s.record_count(), 0);
        assert_eq!(s.aux(0), AuxField::default());
        assert_eq!(s.read_record(0, 0), None);
    }

    #[test]
    fn ram_mode_write_then_aux_rebuild() {
        // Sec. 3.2: a pre-hashed database is copied in via RAM mode, then
        // validity is installed.
        let layout = RecordLayout::new(16, false, 8);
        let mut s = CaRamSlice::new(2, 96, layout);
        let mut row = vec![0u64; 2];
        layout.encode_slot(&mut row, 0, &rec(0xF00D, 7));
        s.array_mut().row_mut(1).copy_from_slice(&row);
        // Not yet visible to search:
        assert!(s.search_bucket(1, &SearchKey::new(0xF00D, 16)).is_none());
        s.set_aux(
            1,
            AuxField {
                valid: 0b1,
                reach: 0,
            },
        );
        let (_, r) = s.search_bucket(1, &SearchKey::new(0xF00D, 16)).unwrap();
        assert_eq!(r.data, 7);
    }

    #[test]
    #[should_panic(expected = "slot 4 out of range")]
    fn out_of_range_slot_rejected() {
        let mut s = slice();
        s.write_record(0, 4, &rec(0, 0));
    }
}
