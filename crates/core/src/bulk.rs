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

use crate::engine::shard;
use crate::key::SearchKey;
use crate::layout::Record;
use crate::table::CaRamTable;
use std::ops::Range;

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

/// Partitioned scans sum their shards' receipts.
impl std::iter::Sum for BulkReceipt {
    fn sum<I: Iterator<Item = Self>>(shards: I) -> Self {
        shards.fold(Self::default(), |a, b| Self {
            records_visited: a.records_visited + b.records_visited,
            records_affected: a.records_affected + b.records_affected,
            rows_accessed: a.rows_accessed + b.rows_accessed,
        })
    }
}

/// A pending data rewrite: `(bucket, slot, new_data)`.
type Rewrite = (u64, u32, u64);

impl CaRamTable {
    /// Scans one contiguous bucket range — the shard unit of the bulk ops.
    fn scan_bucket_range<F>(&self, buckets: Range<u64>, mut visit: F) -> BulkReceipt
    where
        F: FnMut(u64, u32, &Record),
    {
        let mut receipt = BulkReceipt::default();
        for bucket in buckets {
            receipt.rows_accessed += 1;
            for (slot, record) in self.bucket_entries(bucket) {
                receipt.records_visited += 1;
                visit(bucket, slot, &record);
            }
        }
        receipt
    }

    /// Runs `scan` over contiguous, disjoint bucket ranges covering the
    /// table, on up to `threads` workers (`0` = one per available CPU) via
    /// [`shard`], returning the per-range results in bucket order.
    fn scan_shards<T, F>(&self, threads: usize, scan: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<u64>) -> T + Sync,
    {
        let buckets = usize::try_from(self.logical_buckets()).expect("bucket count fits usize");
        shard(buckets, threads, |r| scan(r.start as u64..r.end as u64))
    }

    /// Collects the records of one bucket range satisfying `predicate`.
    fn select_range<P>(&self, buckets: Range<u64>, mut predicate: P) -> (Vec<Record>, BulkReceipt)
    where
        P: FnMut(&Record) -> bool,
    {
        let mut out = Vec::new();
        let mut receipt = self.scan_bucket_range(buckets, |_, _, record| {
            if predicate(record) {
                out.push(*record);
            }
        });
        receipt.records_affected = out.len() as u64;
        (out, receipt)
    }

    /// Evaluates `update` on every record of one bucket range whose key
    /// matches `pattern`, returning the rewrites that change data; matches
    /// are counted in `records_affected` whether or not their data changes.
    fn update_range<F>(
        &self,
        buckets: Range<u64>,
        pattern: &SearchKey,
        mut update: F,
    ) -> (Vec<Rewrite>, BulkReceipt)
    where
        F: FnMut(u64) -> u64,
    {
        let mut pending = Vec::new();
        let mut affected = 0u64;
        let mut receipt = self.scan_bucket_range(buckets, |bucket, slot, record| {
            if record.key.matches(pattern) {
                affected += 1;
                let new_data = update(record.data);
                if new_data != record.data {
                    pending.push((bucket, slot, new_data));
                }
            }
        });
        receipt.records_affected = affected;
        (pending, receipt)
    }

    /// Applies the rewrites through the array's single write port.
    fn apply_rewrites(&mut self, pending: impl IntoIterator<Item = Rewrite>) {
        for (bucket, slot, new_data) in pending {
            self.rewrite_slot_data(bucket, slot, new_data);
        }
    }

    /// Visits every stored record (main array, bucket-major, priority
    /// order within buckets), calling `visit(bucket, slot, record)`.
    /// Records in the parallel overflow area are *not* visited — they live
    /// outside the scannable array, as in hardware.
    pub fn for_each_record<F>(&self, visit: F) -> BulkReceipt
    where
        F: FnMut(u64, u32, &Record),
    {
        self.scan_bucket_range(0..self.logical_buckets(), visit)
    }

    /// Parallel [`CaRamTable::for_each_record`]: shards the bucket space
    /// into contiguous disjoint ranges across `threads` scoped workers
    /// (`0` = one per available CPU). `visit` is shared, so it observes
    /// records from different shards interleaved — within a shard the
    /// order is still bucket-major.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (i.e. if `visit` does).
    pub fn for_each_record_parallel<F>(&self, visit: F, threads: usize) -> BulkReceipt
    where
        F: Fn(u64, u32, &Record) + Sync,
    {
        self.scan_shards(threads, |range| self.scan_bucket_range(range, &visit))
            .into_iter()
            .sum()
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
        self.count_matching_parallel(pattern, 1)
    }

    /// Parallel [`CaRamTable::count_matching`]: each worker counts its own
    /// bucket shard; the shard receipts are summed, so the result is
    /// identical to the serial count.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width differs from the table's key width.
    #[must_use]
    pub fn count_matching_parallel(
        &self,
        pattern: &SearchKey,
        threads: usize,
    ) -> (u64, BulkReceipt) {
        let receipt: BulkReceipt = self
            .scan_shards(threads, |range| {
                let mut count = 0u64;
                let mut receipt = self.scan_bucket_range(range, |_, _, record| {
                    count += u64::from(record.key.matches(pattern));
                });
                receipt.records_affected = count;
                receipt
            })
            .into_iter()
            .sum();
        (receipt.records_affected, receipt)
    }

    /// Collects every record satisfying `predicate` (an arbitrary
    /// evaluation over key and data, beyond what hardware masking can
    /// express — the "more advanced functionality" of Sec. 3.1).
    pub fn select<P>(&self, predicate: P) -> (Vec<Record>, BulkReceipt)
    where
        P: FnMut(&Record) -> bool,
    {
        self.select_range(0..self.logical_buckets(), predicate)
    }

    /// Parallel [`CaRamTable::select`]: workers collect per-shard vectors
    /// which are concatenated in partition order, so the returned records
    /// appear in exactly the serial (bucket-major) order.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (i.e. if `predicate` does).
    pub fn select_parallel<P>(&self, predicate: P, threads: usize) -> (Vec<Record>, BulkReceipt)
    where
        P: Fn(&Record) -> bool + Sync,
    {
        let (records, receipts): (Vec<_>, Vec<_>) = self
            .scan_shards(threads, |range| self.select_range(range, &predicate))
            .into_iter()
            .unzip();
        (records.concat(), receipts.into_iter().sum())
    }

    /// Applies `update` to the data field of every record whose key matches
    /// `pattern` — a massive in-place modification (e.g. aging counters,
    /// rewriting next-hops after a link change). Keys are never modified:
    /// that would move records between buckets and requires delete+insert.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width differs from the table's key width, or
    /// if `update` produces data wider than the layout's data field.
    pub fn update_matching<F>(&mut self, pattern: &SearchKey, update: F) -> BulkReceipt
    where
        F: FnMut(u64) -> u64,
    {
        let (pending, receipt) = self.update_range(0..self.logical_buckets(), pattern, update);
        self.apply_rewrites(pending);
        receipt
    }

    /// Parallel [`CaRamTable::update_matching`]: the scan (match + compute
    /// new data) runs across sharded workers, mirroring the hardware where
    /// evaluation happens in the per-slice match processors; the slot
    /// rewrites are then applied serially, like the single write port of
    /// the array. The result is identical to the serial update.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width differs from the table's key width, or
    /// if `update` produces data wider than the layout's data field.
    pub fn update_matching_parallel<F>(
        &mut self,
        pattern: &SearchKey,
        update: F,
        threads: usize,
    ) -> BulkReceipt
    where
        F: Fn(u64) -> u64 + Sync,
    {
        let (pending, receipts): (Vec<_>, Vec<_>) = self
            .scan_shards(threads, |range| self.update_range(range, pattern, &update))
            .into_iter()
            .unzip();
        self.apply_rewrites(pending.into_iter().flatten());
        receipts.into_iter().sum()
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
    fn parallel_scan_matches_serial_receipt_and_coverage() {
        let t = table();
        let serial = t.for_each_record(|_, _, _| {});
        for threads in [0, 1, 2, 3, 5] {
            let seen = std::sync::Mutex::new(std::collections::HashSet::new());
            let receipt = t.for_each_record_parallel(
                |_, _, r| {
                    assert!(
                        seen.lock().unwrap().insert(r.key.value()),
                        "duplicate visit"
                    );
                },
                threads,
            );
            assert_eq!(receipt, serial, "threads={threads}");
            assert_eq!(seen.lock().unwrap().len(), 40);
        }
    }

    #[test]
    fn parallel_count_matches_serial() {
        let t = table();
        let pattern = SearchKey::with_mask(0x3, !0xF & 0xFFFF, 16);
        let serial = t.count_matching(&pattern);
        for threads in [0, 2, 7] {
            assert_eq!(t.count_matching_parallel(&pattern, threads), serial);
        }
    }

    #[test]
    fn parallel_select_preserves_serial_order() {
        let t = table();
        let serial = t.select(|r| r.data % 30 == 0);
        for threads in [0, 2, 3] {
            let parallel = t.select_parallel(|r| r.data % 30 == 0, threads);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_update_matches_serial() {
        let pattern = SearchKey::with_mask(0, !0xF & 0xFFFF, 16);
        let mut serial_t = table();
        let serial = serial_t.update_matching(&pattern, |d| d * 2 + 1);
        for threads in [0, 2, 5] {
            let mut t = table();
            let receipt = t.update_matching_parallel(&pattern, |d| d * 2 + 1, threads);
            assert_eq!(receipt, serial, "threads={threads}");
            let (a, _) = t.select(|_| true);
            let (b, _) = serial_t.select(|_| true);
            assert_eq!(a, b, "threads={threads}");
        }
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
