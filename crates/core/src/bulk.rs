//! Massive data evaluation and modification (Sec. 1, 3.1).
//!
//! "CA-RAM provides a similar search capability compared to CAM; however,
//! its decoupled match logic can be easily extended to implement more
//! advanced functionality such as massive data evaluation and
//! modification." Because the match processors sit *between* the sense
//! amplifiers and the output, they can stream every row of the array
//! through an arbitrary evaluation or update function at one row per
//! memory cycle — a capability conventional CAMs structurally lack.
//!
//! This module implements that extension for [`CaRamTable`]: whole-table
//! scans, predicate evaluation (counting and collecting), masked-key
//! population counts, and in-place data updates. Every operation reports
//! the number of row fetches it performed so the cost model can price it
//! (`rows × Tmem`, match work pipelined underneath).

use crate::key::SearchKey;
use crate::layout::Record;
use crate::table::CaRamTable;

/// Outcome of a bulk operation: what it found/changed and what it cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkReceipt {
    /// Records visited (valid slots).
    pub records_visited: u64,
    /// Records matched by the predicate / mask, or modified.
    pub records_affected: u64,
    /// Row fetches performed — the memory-access cost of the scan. Every
    /// physical row is fetched exactly once.
    pub rows_accessed: u64,
}

impl CaRamTable {
    /// Visits every stored record (main array, bucket-major, priority
    /// order within buckets), calling `visit(bucket, slot, record)`.
    /// Records in the parallel overflow area are *not* visited — they live
    /// outside the scannable array, as in hardware.
    pub fn for_each_record<F>(&self, mut visit: F) -> BulkReceipt
    where
        F: FnMut(u64, u32, &Record),
    {
        let mut receipt = BulkReceipt::default();
        for bucket in 0..self.logical_buckets() {
            receipt.rows_accessed += 1;
            for (slot, record) in self.bucket_entries(bucket) {
                receipt.records_visited += 1;
                visit(bucket, slot, &record);
            }
        }
        receipt
    }

    /// Counts the records whose key matches `pattern` — a masked
    /// population count over the whole table ("data evaluation"). Unlike
    /// [`CaRamTable::search`], this does not stop at the first match and
    /// visits every bucket, so the cost is `M` row fetches.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width differs from the table's key width.
    #[must_use]
    pub fn count_matching(&self, pattern: &SearchKey) -> (u64, BulkReceipt) {
        let mut count = 0u64;
        let mut receipt = self.for_each_record(|_, _, record| {
            count += u64::from(record.key.matches(pattern));
        });
        receipt.records_affected = count;
        (count, receipt)
    }

    /// Collects every record satisfying `predicate` (an arbitrary
    /// evaluation over key and data, beyond what hardware masking can
    /// express — the "more advanced functionality" of Sec. 3.1).
    pub fn select<P>(&self, mut predicate: P) -> (Vec<Record>, BulkReceipt)
    where
        P: FnMut(&Record) -> bool,
    {
        let mut out = Vec::new();
        let mut receipt = self.for_each_record(|_, _, record| {
            if predicate(record) {
                out.push(*record);
            }
        });
        receipt.records_affected = out.len() as u64;
        (out, receipt)
    }

    /// Applies `update` to the data field of every record whose key matches
    /// `pattern` — a massive in-place modification (e.g. aging counters,
    /// rewriting next-hops after a link change). Keys are never modified:
    /// that would move records between buckets and requires delete+insert.
    /// Matches are counted in `records_affected` whether or not their data
    /// changes; the scan evaluates every match first, then the changed
    /// slots are rewritten through the array's single write port.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width differs from the table's key width, or
    /// if `update` produces data wider than the layout's data field.
    pub fn update_matching<F>(&mut self, pattern: &SearchKey, mut update: F) -> BulkReceipt
    where
        F: FnMut(u64) -> u64,
    {
        let mut pending = Vec::new();
        let mut affected = 0u64;
        let mut receipt = self.for_each_record(|bucket, slot, record| {
            if record.key.matches(pattern) {
                affected += 1;
                let new_data = update(record.data);
                if new_data != record.data {
                    pending.push((bucket, slot, new_data));
                }
            }
        });
        receipt.records_affected = affected;
        for (bucket, slot, new_data) in pending {
            self.rewrite_slot_data(bucket, slot, new_data);
        }
        receipt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::RangeSelect;
    use crate::key::TernaryKey;
    use crate::layout::RecordLayout;
    use crate::table::{CaRamTable, OverflowPolicy, TableConfig};

    fn table() -> CaRamTable {
        let layout = RecordLayout::new(16, false, 16);
        let mut config = TableConfig::single_slice(4, 4 * layout.slot_bits(), layout);
        config.overflow = OverflowPolicy::Probe { max_steps: 16 };
        let mut t = CaRamTable::new(config, Box::new(RangeSelect::new(0, 4))).unwrap();
        for i in 0..40u64 {
            let key = TernaryKey::binary(u128::from(i) | 0x100, 16);
            t.insert(Record::new(key, i * 10)).unwrap();
        }
        t
    }

    #[test]
    fn scan_visits_every_record_once() {
        let t = table();
        let mut seen = std::collections::HashSet::new();
        let receipt = t.for_each_record(|_, _, r| {
            assert!(seen.insert(r.key.value()), "duplicate visit");
        });
        assert_eq!(receipt.records_visited, 40);
        assert_eq!(seen.len(), 40);
        assert_eq!(receipt.rows_accessed, t.logical_buckets());
    }

    #[test]
    fn count_matching_with_mask() {
        let t = table();
        // Count records with low nibble == 3: keys 0x103, 0x113, ... but
        // only keys 0x100..0x128 exist -> 0x103, 0x113, 0x123 and 0x10B?
        // Mask: care bits = low 4 bits; everything else don't-care.
        let pattern = SearchKey::with_mask(0x3, !0xF & 0xFFFF, 16);
        let (count, receipt) = t.count_matching(&pattern);
        let brute = (0u128..40).filter(|i| (i | 0x100) & 0xF == 0x3).count() as u64;
        assert_eq!(count, brute);
        assert_eq!(receipt.records_affected, count);
        assert_eq!(receipt.rows_accessed, 16);
    }

    #[test]
    fn select_by_data_predicate() {
        let t = table();
        let (records, receipt) = t.select(|r| r.data >= 300);
        assert_eq!(records.len(), 10); // data = 300..390
        assert_eq!(receipt.records_affected, 10);
        assert!(records.iter().all(|r| r.data >= 300));
    }

    #[test]
    fn update_matching_rewrites_data_in_place() {
        let mut t = table();
        // Increment the data of all records (full-mask pattern).
        let everything = SearchKey::with_mask(0, 0xFFFF, 16);
        let receipt = t.update_matching(&everything, |d| d + 1);
        assert_eq!(receipt.records_affected, 40);
        // Verify through ordinary search.
        for i in 0..40u64 {
            let got = t.search(&SearchKey::new(u128::from(i) | 0x100, 16));
            assert_eq!(got.hit.unwrap().record.data, i * 10 + 1, "record {i}");
        }
        // Keys and placement untouched: record count stable.
        assert_eq!(t.record_count(), 40);
    }

    #[test]
    fn update_matching_is_selective() {
        let mut t = table();
        let low_nibble_zero = SearchKey::with_mask(0, !0xF & 0xFFFF, 16);
        let receipt = t.update_matching(&low_nibble_zero, |_| 9999);
        assert!(receipt.records_affected < 40);
        let (count, _) = t.count_matching(&low_nibble_zero);
        assert_eq!(count, receipt.records_affected);
        let (hits, _) = t.select(|r| r.data == 9999);
        assert_eq!(hits.len() as u64, receipt.records_affected);
    }

    #[test]
    fn bulk_scan_skips_parallel_overflow_area() {
        let layout = RecordLayout::new(16, false, 8);
        let mut config = TableConfig::single_slice(2, layout.slot_bits(), layout);
        config.overflow = OverflowPolicy::ParallelArea { capacity: 8 };
        let mut t = CaRamTable::new(config, Box::new(RangeSelect::new(0, 2))).unwrap();
        for i in 0..6u128 {
            t.insert(Record::new(TernaryKey::binary(i << 4, 16), 0))
                .unwrap();
        }
        assert!(t.overflow_count() > 0);
        let receipt = t.for_each_record(|_, _, _| {});
        assert_eq!(
            receipt.records_visited + t.overflow_count() as u64,
            6,
            "scan covers the array; overflow lives outside it"
        );
    }
}
