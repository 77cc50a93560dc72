//! A logical CA-RAM search table spanning one or more arranged slices
//! (Sec. 3.2).
//!
//! "A database can be implemented with multiple CA-RAM slices, arranged
//! vertically (i.e., more rows), horizontally (i.e., wider buckets), or in a
//! mixed way." [`CaRamTable`] composes physical [`CaRamSlice`]s into one
//! logical hash table and implements the three CAM-mode operations —
//! *search*, *insert*, and *delete* — plus the placement bookkeeping the
//! paper's evaluation metrics (α, overflow, AMAL) are computed from.
//!
//! ## Priority discipline
//!
//! Match priority is *placement order*: lower logical slot numbers win, and
//! buckets closer to the home bucket win. Inserting records in descending
//! priority order (e.g. prefixes sorted by prefix length, Sec. 4.1) makes
//! "first match in probe order" exactly longest-prefix match, so a search
//! can stop at its first hit.

use crate::error::{CaRamError, Result};
use crate::index::{buckets_for_masked_search_into, BucketList, IndexGenerator};
use crate::key::SearchKey;
use crate::layout::{Record, RecordLayout};
use crate::matchproc::wins_tie_break;
use crate::probe::ProbePolicy;
use crate::slice::CaRamSlice;
use crate::stats::{LoadReport, OccupancyHistogram, PlacementStats};
use crate::storage::StorageBackend;
use crate::telemetry::trace::{NullSink, ProbeSummary, Stage, TelemetrySink};
use std::path::Path;
use std::sync::Arc;

/// How slices are composed into one logical table (Sec. 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arrangement {
    /// `k` slices side by side: same row count, `k×` wider buckets.
    Horizontal(u32),
    /// `k` slices stacked: `k×` more buckets, same bucket width.
    Vertical(u32),
    /// `horizontal × vertical` grid: both wider and more buckets.
    Grid {
        /// Slices concatenated per bucket.
        horizontal: u32,
        /// Groups of rows stacked.
        vertical: u32,
    },
}

impl Arrangement {
    /// `(horizontal, vertical)` factor pair.
    ///
    /// # Panics
    ///
    /// Panics if either factor is zero.
    #[must_use]
    pub fn factors(self) -> (u32, u32) {
        let (h, v) = match self {
            Arrangement::Horizontal(k) => (k, 1),
            Arrangement::Vertical(k) => (1, k),
            Arrangement::Grid {
                horizontal,
                vertical,
            } => (horizontal, vertical),
        };
        assert!(h > 0 && v > 0, "arrangement factors must be positive");
        (h, v)
    }

    /// Total physical slices.
    #[must_use]
    pub fn slice_count(self) -> u32 {
        let (h, v) = self.factors();
        h * v
    }
}

/// What to do with records that overflow their home bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverflowPolicy {
    /// Probe up to `max_steps` further buckets (Sec. 2.1). `max_steps = 0`
    /// means no probing: any collision beyond the bucket capacity fails.
    Probe {
        /// Maximum probe steps past the home bucket.
        max_steps: u32,
    },
    /// Keep spilled records in a dedicated associative overflow area of the
    /// given capacity, searched in parallel with the main array so lookups
    /// stay at one memory access (Sec. 4.3's small TCAM, the victim-cache
    /// analogy).
    ParallelArea {
        /// Maximum entries the overflow area holds.
        capacity: usize,
    },
    /// Keep spilled records in a dedicated CA-RAM *victim slice* accessed
    /// together with the main slices (Sec. 3.2: "Certain CA-RAM slices can
    /// be used to implement an overflow area ... accessed together with
    /// other slices that keep regular records in order to achieve lower
    /// average latency, similar to the popular victim cache technique").
    /// The victim slice is hash-addressed by the record's home bucket and
    /// linearly probed internally; its accesses overlap the main array's.
    VictimSlice {
        /// log2 of the victim slice's rows.
        rows_log2: u32,
        /// Bits per victim row.
        row_bits: u32,
    },
}

/// Configuration of a [`CaRamTable`].
#[derive(Debug, Clone)]
pub struct TableConfig {
    /// log2 of rows per slice (`R`).
    pub rows_log2: u32,
    /// Bits per physical row (`C`).
    pub row_bits: u32,
    /// Record format.
    pub layout: RecordLayout,
    /// Slice arrangement.
    pub arrangement: Arrangement,
    /// Probing policy for overflow placement and search.
    pub probe: ProbePolicy,
    /// Overflow handling.
    pub overflow: OverflowPolicy,
}

impl TableConfig {
    /// A single-slice table with linear probing across the whole table.
    #[must_use]
    pub fn single_slice(rows_log2: u32, row_bits: u32, layout: RecordLayout) -> Self {
        Self {
            rows_log2,
            row_bits,
            layout,
            arrangement: Arrangement::Horizontal(1),
            probe: ProbePolicy::Linear,
            overflow: OverflowPolicy::Probe {
                max_steps: u32::MAX,
            },
        }
    }
}

/// A successful lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Logical bucket the record was found in.
    pub bucket: u64,
    /// Logical slot within the bucket.
    pub slot: u32,
    /// The record.
    pub record: Record,
    /// Whether the hit came from the parallel overflow area.
    pub from_overflow: bool,
}

/// Result of one search, with its memory-access cost (the AMAL unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchOutcome {
    /// The winning record, if any.
    pub hit: Option<Hit>,
    /// Bucket fetches performed. Horizontally arranged slices are accessed
    /// in parallel and count as one; the parallel overflow area is free.
    pub memory_accesses: u32,
}

/// Where one placed copy of an inserted record went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Logical bucket.
    pub bucket: u64,
    /// Logical slot.
    pub slot: u32,
    /// Probe steps from the home bucket (0 = home).
    pub displacement: u32,
}

/// Result of one insert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome {
    /// One entry per home bucket (usually one; more when don't-care bits
    /// overlap the hash positions, Sec. 4.1).
    pub placements: Vec<Placement>,
    /// Copies diverted to the parallel overflow area.
    pub to_overflow: u32,
}

#[derive(Debug, Clone)]
enum OverflowStore {
    /// A small fully associative memory (the Sec. 4.3 TCAM).
    Associative {
        records: Vec<Record>,
        capacity: usize,
    },
    /// A CA-RAM slice serving as the victim area (Sec. 3.2).
    Victim { slice: CaRamSlice },
}

impl OverflowStore {
    fn len(&self) -> usize {
        match self {
            OverflowStore::Associative { records, .. } => records.len(),
            OverflowStore::Victim { slice } => usize::try_from(slice.record_count()).expect("fits"),
        }
    }
}

/// A logical CA-RAM search table.
pub struct CaRamTable {
    config: TableConfig,
    index: Box<dyn IndexGenerator>,
    /// `index.consumed_bits()`, cached at construction: the per-search
    /// home computation branches on it, and caching spares a virtual call
    /// per key on the hot path.
    index_consumed: Option<u128>,
    slices: Vec<CaRamSlice>,
    horizontal: u32,
    rows_per_slice: u64,
    logical_buckets: u64,
    slots_per_slice_row: u32,
    slots_per_bucket: u32,
    stats: PlacementStats,
    home_counts: Vec<u32>,
    bucket_had_spill: Vec<bool>,
    overflow: Option<OverflowStore>,
    /// Set once a delete has removed a record (a later insert may then
    /// place a shorter prefix upstream of a previously evicted longer one)
    /// or once a strided table has taken an `insert_sorted` (it has no one
    /// chain order to keep sorted). LPM searches then scan the full reach
    /// instead of stopping at the first match (see `search`).
    full_scan: bool,
    /// Optional telemetry receiver. `None` (the default) runs the probe
    /// walk with the zero-sized [`NullSink`]: the only cost is one branch.
    sink: Option<Arc<dyn TelemetrySink>>,
    /// `wants_match_vectors()` of the installed sink, cached at install so
    /// the traced walk skips that virtual call on every search.
    sink_deep: bool,
}

impl core::fmt::Debug for CaRamTable {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CaRamTable")
            .field("logical_buckets", &self.logical_buckets)
            .field("slots_per_bucket", &self.slots_per_bucket)
            .field("slices", &self.slices.len())
            .field("records", &self.record_count())
            .finish_non_exhaustive()
    }
}

impl CaRamTable {
    /// Builds an empty table.
    ///
    /// # Errors
    ///
    /// Returns [`CaRamError::BadConfig`] if the index generator cannot cover
    /// the logical bucket space, or if the layout key width disagrees with
    /// the generator's expectations implied by the configuration.
    pub fn new(config: TableConfig, index: Box<dyn IndexGenerator>) -> Result<Self> {
        Self::build(config, index, None)
    }

    /// Builds an empty table whose slice arrays are file-backed under
    /// `dir` (`slice-<i>.arr`, plus `victim.arr` for a victim-slice
    /// overflow area), so the packed words page to disk instead of the
    /// heap. Occupancy metadata stays in memory: reopening an existing
    /// directory reattaches the words but the table must be repopulated
    /// (or recovered through [`crate::storage::DurableTable`], whose WAL
    /// is the durable source of truth).
    ///
    /// # Errors
    ///
    /// [`CaRamError::BadConfig`] as for [`CaRamTable::new`], or any
    /// [`CaRamError::Durability`] error from opening the backing files
    /// (including `Unsupported` without the `storage` feature).
    pub fn with_storage_dir(
        config: TableConfig,
        index: Box<dyn IndexGenerator>,
        dir: &Path,
    ) -> Result<Self> {
        Self::build(config, index, Some(dir))
    }

    /// Flushes every file-backed slice array durably to disk; a no-op for
    /// heap-backed tables.
    ///
    /// # Errors
    ///
    /// Any [`CaRamError::Durability`] error from the syncs.
    pub fn flush_storage(&mut self) -> Result<()> {
        for slice in &mut self.slices {
            slice.flush()?;
        }
        if let Some(OverflowStore::Victim { slice }) = &mut self.overflow {
            slice.flush()?;
        }
        Ok(())
    }

    fn build(
        config: TableConfig,
        index: Box<dyn IndexGenerator>,
        storage_dir: Option<&Path>,
    ) -> Result<Self> {
        let slice_backend = |name: String| match storage_dir {
            None => StorageBackend::Heap,
            Some(dir) => StorageBackend::file(dir.join(name)),
        };
        let (horizontal, vertical) = config.arrangement.factors();
        let rows_per_slice = 1u64 << config.rows_log2;
        let logical_buckets = rows_per_slice * u64::from(vertical);
        if (1u128 << index.index_bits()) < u128::from(logical_buckets) {
            return Err(CaRamError::BadConfig(format!(
                "index generator produces {} bits but the table has {} buckets",
                index.index_bits(),
                logical_buckets
            )));
        }
        let slots_per_slice_row = config.layout.slots_per_row(config.row_bits);
        let slice_count = config.arrangement.slice_count();
        let slices = (0..slice_count)
            .map(|i| {
                CaRamSlice::with_backend(
                    config.rows_log2,
                    config.row_bits,
                    config.layout,
                    &slice_backend(format!("slice-{i}.arr")),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let overflow = match config.overflow {
            OverflowPolicy::ParallelArea { capacity } => Some(OverflowStore::Associative {
                records: Vec::new(),
                capacity,
            }),
            OverflowPolicy::VictimSlice {
                rows_log2,
                row_bits,
            } => Some(OverflowStore::Victim {
                slice: CaRamSlice::with_backend(
                    rows_log2,
                    row_bits,
                    config.layout,
                    &slice_backend("victim.arr".to_string()),
                )?,
            }),
            OverflowPolicy::Probe { .. } => None,
        };
        let buckets = usize::try_from(logical_buckets)
            .map_err(|_| CaRamError::BadConfig("bucket count exceeds address space".into()))?;
        Ok(Self {
            slots_per_bucket: slots_per_slice_row * horizontal,
            config,
            index_consumed: index.consumed_bits(),
            index,
            slices,
            horizontal,
            rows_per_slice,
            logical_buckets,
            slots_per_slice_row,
            stats: PlacementStats::new(),
            home_counts: vec![0; buckets],
            bucket_had_spill: vec![false; buckets],
            overflow,
            full_scan: false,
            sink: None,
            sink_deep: false,
        })
    }

    /// Installs a telemetry sink: subsequent searches run the traced path
    /// (reporting [`ProbeSummary`] per lookup and, if the sink asks for
    /// match vectors, per-stage events), and inserts report bucket
    /// occupancy. Outcomes are bit-identical to the untraced path.
    pub fn set_telemetry_sink(&mut self, sink: Arc<dyn TelemetrySink>) {
        self.sink_deep = sink.wants_match_vectors();
        self.sink = Some(sink);
    }

    /// Removes the telemetry sink, returning the search path to the
    /// untraced hot path.
    pub fn clear_telemetry_sink(&mut self) {
        self.sink = None;
        self.sink_deep = false;
    }

    /// The installed telemetry sink, if any.
    #[must_use]
    pub fn telemetry_sink(&self) -> Option<Arc<dyn TelemetrySink>> {
        self.sink.clone()
    }

    /// The configuration the table was built with.
    #[must_use]
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    /// Whether searches scan the full reach instead of stopping at the
    /// first match (set permanently by the first delete that removes a
    /// record, or by the first [`CaRamTable::insert_sorted`] on a strided
    /// table; see the field docs).
    #[must_use]
    pub fn full_scan(&self) -> bool {
        self.full_scan
    }

    /// Forces full-reach scanning, as if a delete had occurred. Recovery
    /// uses this: a restored table whose physical placement may differ
    /// from the original (sorted inserts, pre-crash deletes) must pick the
    /// maximum-care match rather than trust first-match order.
    pub fn force_full_scan(&mut self) {
        self.full_scan = true;
    }

    /// Number of logical buckets (`M`).
    #[must_use]
    pub fn logical_buckets(&self) -> u64 {
        self.logical_buckets
    }

    /// Record slots per logical bucket (`S`).
    #[must_use]
    pub fn slots_per_bucket(&self) -> u32 {
        self.slots_per_bucket
    }

    /// Total record capacity (`M × S`).
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.logical_buckets * u64::from(self.slots_per_bucket)
    }

    /// The record layout.
    #[must_use]
    pub fn layout(&self) -> &RecordLayout {
        &self.config.layout
    }

    /// The physical slices (RAM-mode access, Sec. 3.2).
    #[must_use]
    pub fn slices(&self) -> &[CaRamSlice] {
        &self.slices
    }

    /// Mutable access to the physical slices — the raw RAM-mode write path
    /// (database construction by memory copy, scratch-pad use, memory
    /// tests). Writes through this view bypass the table's placement
    /// bookkeeping; see [`CaRamSlice::array_mut`].
    pub fn slices_mut(&mut self) -> &mut [CaRamSlice] {
        &mut self.slices
    }

    /// Placed records currently stored (main array only).
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.slices.iter().map(CaRamSlice::record_count).sum()
    }

    /// Records currently in the parallel overflow area (associative or
    /// victim slice).
    #[must_use]
    pub fn overflow_count(&self) -> usize {
        self.overflow.as_ref().map_or(0, OverflowStore::len)
    }

    // ---- logical geometry -------------------------------------------------

    fn split_bucket(&self, bucket: u64) -> (u32, u64) {
        debug_assert!(bucket < self.logical_buckets);
        // `rows_per_slice` is always `1 << rows_log2`, so the split is a
        // shift/mask instead of a 64-bit division — this runs once per
        // probed bucket on the search hot path.
        #[allow(clippy::cast_possible_truncation)]
        let v = (bucket >> self.config.rows_log2) as u32;
        (v, bucket & (self.rows_per_slice - 1))
    }

    fn slice_of(&self, v: u32, h: u32) -> usize {
        (v * self.horizontal + h) as usize
    }

    /// The auxiliary *reach* of a logical bucket, stored on its first
    /// horizontal slice.
    fn reach(&self, bucket: u64) -> u32 {
        let (v, row) = self.split_bucket(bucket);
        self.slices[self.slice_of(v, 0)].aux(row).reach
    }

    /// Hints the prefetcher at the rows backing logical `bucket`. Row
    /// *data* is pulled for the first horizontal slice only — the slice
    /// searched first, and on priority-ordered buckets usually the only
    /// one searched; past that the prefetch outruns the compare. The
    /// *auxiliary* word of every slice is pulled, though: a miss walks
    /// all of them (each usually answering `valid == 0`), and they are
    /// one cache line each.
    #[inline]
    fn prefetch_bucket(&self, bucket: u64) {
        let (v, row) = self.split_bucket(bucket);
        for h in 0..self.horizontal {
            let slice = &self.slices[self.slice_of(v, h)];
            if h < 1 {
                slice.prefetch_row(row);
            } else {
                slice.prefetch_aux(row);
            }
        }
    }

    /// The compare kernel this table's match processors captured at
    /// construction (see [`crate::kernel`]).
    #[must_use]
    pub fn kernel(&self) -> crate::kernel::Kernel {
        self.slices[0].kernel()
    }

    fn raise_reach(&mut self, bucket: u64, reach: u32) {
        let (v, row) = self.split_bucket(bucket);
        let s = self.slice_of(v, 0);
        self.slices[s].raise_reach(row, reach);
    }

    /// Valid-record count of a logical bucket.
    #[must_use]
    pub fn bucket_occupancy(&self, bucket: u64) -> u32 {
        let (v, row) = self.split_bucket(bucket);
        (0..self.horizontal)
            .map(|h| self.slices[self.slice_of(v, h)].occupancy(row))
            .sum()
    }

    /// The home bucket of a (fully specified) search key — which physical
    /// slice group serves it. Used by throughput studies to route a key
    /// trace onto slices.
    #[must_use]
    pub fn home_bucket(&self, key: &SearchKey) -> u64 {
        self.index.index(key.value()) % self.logical_buckets
    }

    /// The vertical slice group serving `bucket` (0 for horizontal-only
    /// arrangements): the unit of independent access in the bandwidth
    /// formula.
    #[must_use]
    pub fn slice_group_of(&self, bucket: u64) -> u32 {
        self.split_bucket(bucket).0
    }

    /// The valid `(logical slot, record)` entries of a logical bucket, in
    /// priority (slot) order — what one row fetch delivers to the match
    /// processors.
    #[must_use]
    pub fn bucket_entries(&self, bucket: u64) -> Vec<(u32, Record)> {
        let (v, row) = self.split_bucket(bucket);
        let mut out = Vec::new();
        for h in 0..self.horizontal {
            for (slot, record) in self.slices[self.slice_of(v, h)].bucket_records(row) {
                out.push((h * self.slots_per_slice_row + slot, record));
            }
        }
        out
    }

    /// Rewrites the data field of an occupied logical slot in place (the
    /// bulk-update path; the key and placement are untouched).
    pub(crate) fn rewrite_slot_data(&mut self, bucket: u64, logical_slot: u32, data: u64) {
        let (v, row) = self.split_bucket(bucket);
        let h = logical_slot / self.slots_per_slice_row;
        let slot = logical_slot % self.slots_per_slice_row;
        let s = self.slice_of(v, h);
        let record = self.slices[s]
            .read_record(row, slot)
            .expect("bulk update only touches occupied slots");
        self.slices[s].write_record(row, slot, &Record { data, ..record });
    }

    fn bucket_free_slot(&self, bucket: u64) -> Option<u32> {
        let (v, row) = self.split_bucket(bucket);
        for h in 0..self.horizontal {
            if let Some(slot) = self.slices[self.slice_of(v, h)].free_slot(row) {
                return Some(h * self.slots_per_slice_row + slot);
            }
        }
        None
    }

    fn write_logical(&mut self, bucket: u64, logical_slot: u32, record: &Record) {
        let (v, row) = self.split_bucket(bucket);
        let h = logical_slot / self.slots_per_slice_row;
        let slot = logical_slot % self.slots_per_slice_row;
        let s = self.slice_of(v, h);
        self.slices[s].write_record(row, slot, record);
    }

    fn invalidate_logical(&mut self, bucket: u64, logical_slot: u32) {
        let (v, row) = self.split_bucket(bucket);
        let h = logical_slot / self.slots_per_slice_row;
        let slot = logical_slot % self.slots_per_slice_row;
        let s = self.slice_of(v, h);
        self.slices[s].invalidate(row, slot);
    }

    /// Removes one stored copy of `record` from the overflow area (insert
    /// rollback). Identical copies are indistinguishable, so removing any
    /// one of them is equivalent to removing the one just pushed.
    fn remove_one_overflow_copy(&mut self, record: &Record) {
        match self.overflow.as_mut() {
            Some(OverflowStore::Associative { records, .. }) => {
                if let Some(i) = records.iter().rposition(|r| r == record) {
                    records.remove(i);
                }
            }
            Some(OverflowStore::Victim { slice }) => {
                'rows: for row in 0..slice.rows() {
                    for (s, r) in slice.bucket_records(row) {
                        if r == *record {
                            slice.invalidate(row, s);
                            break 'rows;
                        }
                    }
                }
            }
            None => {}
        }
    }

    /// Match + extract over one logical bucket, already split into its
    /// vertical slice group and physical row: horizontal slices are
    /// examined in priority (slot) order and the first match wins. One
    /// parallel memory access.
    fn search_split_bucket(&self, v: u32, row: u64, key: &SearchKey) -> Option<(u32, Record)> {
        for h in 0..self.horizontal {
            if let Some((slot, record)) = self.slices[self.slice_of(v, h)].search_bucket(row, key) {
                return Some((h * self.slots_per_slice_row + slot, record));
            }
        }
        None
    }

    /// Full-reach (post-delete) twin of [`CaRamTable::search_split_bucket`]:
    /// slot order no longer encodes priority once deletes have punched
    /// holes that later inserts backfill, so every matching slot of the
    /// bucket is compared and the max-care record wins (lowest slice/slot
    /// on ties).
    fn search_split_bucket_full(&self, v: u32, row: u64, key: &SearchKey) -> Option<(u32, Record)> {
        let mut best: Option<(u32, Record)> = None;
        for h in 0..self.horizontal {
            if let Some((slot, record)) =
                self.slices[self.slice_of(v, h)].search_bucket_best(row, key)
            {
                if wins_tie_break(&record, best.as_ref().map(|(_, b)| b)) {
                    best = Some((h * self.slots_per_slice_row + slot, record));
                }
            }
        }
        best
    }

    /// Computes the home buckets of `key` into a reusable scratch list.
    /// With no don't-care hash bits (the common lookup) this performs no
    /// heap allocation.
    fn home_buckets_into(&self, key: &SearchKey, out: &mut BucketList) {
        // Unmasked keys (and generators that consume no key bits) have
        // exactly one home; the cached `consumed_bits` keeps this common
        // path at a single virtual call (the hash itself).
        if key.dont_care() == 0 || self.index_consumed.is_none() {
            out.clear();
            out.push(self.index.index(key.value()));
            out.map_mod(self.logical_buckets);
            return;
        }
        buckets_for_masked_search_into(key, self.index.as_ref(), out);
        out.map_mod(self.logical_buckets);
        out.sort_dedup();
    }

    fn home_buckets(&self, key: &SearchKey) -> Vec<u64> {
        let mut out = BucketList::new();
        self.home_buckets_into(key, &mut out);
        out.as_slice().to_vec()
    }

    // ---- CAM-mode operations ----------------------------------------------

    /// Inserts a record with access weight 1 (uniform model).
    ///
    /// # Errors
    ///
    /// See [`CaRamTable::insert_weighted`].
    pub fn insert(&mut self, record: Record) -> Result<InsertOutcome> {
        self.insert_weighted(record, 1.0)
    }

    /// Inserts a record; `weight` is its access frequency, used by the
    /// `AMALs` statistic (Sec. 4.1's skewed access pattern).
    ///
    /// Records must be inserted in descending priority order for
    /// first-match search semantics to implement LPM (see module docs).
    ///
    /// # Errors
    ///
    /// * [`CaRamError::KeyWidthMismatch`] — wrong key width;
    /// * [`CaRamError::TernaryNotEnabled`] — ternary key in a binary layout,
    ///   or a key with don't-care bits under a whole-key hash;
    /// * [`CaRamError::TableFull`] — no free slot within the probe limit (or
    ///   overflow area exhausted).
    #[allow(clippy::missing_panics_doc)] // internal expects: bounds checked at new()
    pub fn insert_weighted(&mut self, record: Record, weight: f64) -> Result<InsertOutcome> {
        if record.key.bits() != self.config.layout.key_bits() {
            return Err(CaRamError::KeyWidthMismatch {
                expected: self.config.layout.key_bits(),
                got: record.key.bits(),
            });
        }
        if record.key.dont_care() != 0
            && (!self.config.layout.is_ternary() || self.index.consumed_bits().is_none())
        {
            return Err(CaRamError::TernaryNotEnabled);
        }
        let homes = self.home_buckets(&record.key.to_search_key());
        let max_steps = match self.config.overflow {
            OverflowPolicy::Probe { max_steps } => max_steps,
            OverflowPolicy::ParallelArea { .. } | OverflowPolicy::VictimSlice { .. } => 0,
        };
        let mut placements = Vec::with_capacity(homes.len());
        let mut to_overflow = 0u32;
        let mut displacements = Vec::with_capacity(homes.len());
        let mut failure: Option<CaRamError> = None;
        let mut homes_done = 0usize;
        for &home in &homes {
            let placed = match self.place_one(home, &record, max_steps) {
                Ok(p) => p,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            if let Some(p) = placed {
                displacements.push(p.displacement);
                placements.push(p);
            } else {
                // Divert to the parallel overflow area: zero extra lookup
                // cost by construction.
                if let Err(e) = self.push_overflow(home, record) {
                    failure = Some(e);
                    break;
                }
                to_overflow += 1;
                displacements.push(0);
            }
            let idx = usize::try_from(home).expect("bucket count checked at new");
            self.home_counts[idx] += 1;
            homes_done += 1;
        }
        if let Some(e) = failure {
            // Multi-home inserts must be atomic: a ternary record with
            // don't-care index bits is duplicated into one bucket per home,
            // and a partial failure would strand copies that search and
            // delete can still find while the caller believes the record
            // was refused. Undo everything this call placed.
            for p in &placements {
                self.invalidate_logical(p.bucket, p.slot);
            }
            for _ in 0..to_overflow {
                self.remove_one_overflow_copy(&record);
            }
            for &home in &homes[..homes_done] {
                let idx = usize::try_from(home).expect("bucket count checked at new");
                self.home_counts[idx] -= 1;
            }
            return Err(e);
        }
        self.stats.record_insert(&displacements, weight);
        if let Some(sink) = &self.sink {
            for p in &placements {
                sink.insert_occupancy(self.bucket_occupancy(p.bucket));
            }
        }
        Ok(InsertOutcome {
            placements,
            to_overflow,
        })
    }

    /// Places one copy; `Ok(None)` means "send to overflow area".
    fn place_one(
        &mut self,
        home: u64,
        record: &Record,
        max_steps: u32,
    ) -> Result<Option<Placement>> {
        let probe = self.config.probe;
        let mut step = 0u32;
        loop {
            let bucket = probe.bucket_at(home, step, self.logical_buckets);
            if let Some(slot) = self.bucket_free_slot(bucket) {
                self.write_logical(bucket, slot, record);
                if step > 0 {
                    self.raise_reach(home, step);
                    let idx = usize::try_from(home).expect("bucket count checked at new");
                    self.bucket_had_spill[idx] = true;
                }
                return Ok(Some(Placement {
                    bucket,
                    slot,
                    displacement: step,
                }));
            }
            if step >= max_steps || u64::from(step) + 1 >= self.logical_buckets {
                break;
            }
            step += 1;
        }
        match &self.overflow {
            Some(_) => Ok(None),
            None => Err(CaRamError::TableFull {
                home_bucket: home,
                buckets_probed: step + 1,
            }),
        }
    }

    /// Places a spilled record in the overflow area.
    fn push_overflow(&mut self, home: u64, record: Record) -> Result<()> {
        match self.overflow.as_mut().expect("caller checked presence") {
            OverflowStore::Associative { records, capacity } => {
                if records.len() >= *capacity {
                    return Err(CaRamError::TableFull {
                        home_bucket: home,
                        buckets_probed: 1,
                    });
                }
                records.push(record);
                Ok(())
            }
            OverflowStore::Victim { slice } => {
                // Hash-addressed by home bucket, linear probing within the
                // victim slice.
                let rows = slice.rows();
                let vhome = home % rows;
                for step in 0..rows {
                    let row = (vhome + step) % rows;
                    if slice.append_record(row, &record).is_some() {
                        #[allow(clippy::cast_possible_truncation)]
                        slice.raise_reach(vhome, step as u32);
                        return Ok(());
                    }
                }
                Err(CaRamError::TableFull {
                    home_bucket: home,
                    buckets_probed: 1,
                })
            }
        }
    }

    /// Searches the overflow area for the best match (parallel to the main
    /// access: zero AMAL cost).
    fn search_overflow(&self, homes: &[u64], key: &SearchKey) -> Option<Record> {
        match self.overflow.as_ref()? {
            OverflowStore::Associative { records, .. } => {
                // Same earliest-wins tie-break as every bucket path (a
                // `max_by_key` here would keep the *last* max instead).
                let mut best: Option<Record> = None;
                for r in records.iter().filter(|r| r.key.matches(key)) {
                    if wins_tie_break(r, best.as_ref()) {
                        best = Some(*r);
                    }
                }
                best
            }
            OverflowStore::Victim { slice } => {
                let rows = slice.rows();
                let mut best: Option<Record> = None;
                for &home in homes {
                    let vhome = home % rows;
                    let reach = slice.aux(vhome).reach;
                    for step in 0..=u64::from(reach) {
                        let row = (vhome + step) % rows;
                        if let Some((_, r)) = slice.search_bucket(row, key) {
                            if wins_tie_break(&r, best.as_ref()) {
                                best = Some(r);
                            }
                        }
                    }
                }
                best
            }
        }
    }

    /// Inserts a record maintaining descending-priority order (priority =
    /// care count, i.e. prefix length) within every bucket chain — the
    /// CA-RAM analogue of sorted TCAM update (Shah & Gupta), enabling
    /// *online* LPM route updates without a rebuild.
    ///
    /// When a bucket is full, its lowest-priority entry is evicted to the
    /// next bucket of the chain (which may cascade). Bucket reach fields
    /// are raised conservatively for every possible home of a displaced
    /// record, so first-match search semantics stay exact.
    ///
    /// Placement statistics ([`CaRamTable::load_report`]) reflect only the
    /// newly inserted record, not cascade movements.
    ///
    /// A [`ProbePolicy::SecondHash`] table has no single chain order to
    /// keep sorted: each home walks its own stride. There the record is
    /// placed as [`CaRamTable::insert`] places it, and the table switches
    /// to full-reach best-care search, the mode a delete already enters
    /// (see [`CaRamTable::full_scan`]), so priority stays exact.
    ///
    /// # Examples
    ///
    /// ```
    /// use ca_ram_core::index::RangeSelect;
    /// use ca_ram_core::key::{SearchKey, TernaryKey};
    /// use ca_ram_core::layout::{Record, RecordLayout};
    /// use ca_ram_core::table::{CaRamTable, TableConfig};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let layout = RecordLayout::ipv4_prefix(8);
    /// let config = TableConfig::single_slice(4, 4 * layout.slot_bits(), layout);
    /// let mut table = CaRamTable::new(config, Box::new(RangeSelect::new(24, 4)))?;
    /// // Announce routes in arbitrary order; priority order is maintained.
    /// table.insert_sorted(Record::new(TernaryKey::ternary(0x0A00_0000, 0xFF_FFFF, 32), 8))?;
    /// table.insert_sorted(Record::new(TernaryKey::ternary(0x0A0B_0000, 0xFFFF, 32), 16))?;
    /// let hit = table.search(&SearchKey::new(0x0A0B_0001, 32)).hit.expect("covered");
    /// assert_eq!(hit.record.data, 16); // longest prefix wins
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// As [`CaRamTable::insert_weighted`]; additionally returns
    /// [`CaRamError::BadConfig`] if the table has an overflow area
    /// ([`OverflowPolicy::ParallelArea`] or [`OverflowPolicy::VictimSlice`]):
    /// sorted placement needs probe-based overflow.
    #[allow(clippy::missing_panics_doc)] // internal expects: bounds checked at new()
    pub fn insert_sorted(&mut self, record: Record) -> Result<InsertOutcome> {
        let OverflowPolicy::Probe { max_steps } = self.config.overflow else {
            return Err(CaRamError::BadConfig(
                "insert_sorted requires probe-based overflow".into(),
            ));
        };
        if self.config.probe != ProbePolicy::Linear {
            let outcome = self.insert(record)?;
            self.full_scan = true;
            return Ok(outcome);
        }
        if record.key.bits() != self.config.layout.key_bits() {
            return Err(CaRamError::KeyWidthMismatch {
                expected: self.config.layout.key_bits(),
                got: record.key.bits(),
            });
        }
        if record.key.dont_care() != 0
            && (!self.config.layout.is_ternary() || self.index.consumed_bits().is_none())
        {
            return Err(CaRamError::TernaryNotEnabled);
        }
        let homes = self.home_buckets(&record.key.to_search_key());
        let mut placements = Vec::with_capacity(homes.len());
        let mut displacements = Vec::with_capacity(homes.len());
        for home in homes {
            let placement = self.insert_sorted_chain(home, record, max_steps)?;
            displacements.push(placement.displacement);
            placements.push(placement);
            let idx = usize::try_from(home).expect("bucket count checked at new");
            self.home_counts[idx] += 1;
        }
        self.stats.record_insert(&displacements, 1.0);
        if let Some(sink) = &self.sink {
            for p in &placements {
                sink.insert_occupancy(self.bucket_occupancy(p.bucket));
            }
        }
        Ok(InsertOutcome {
            placements,
            to_overflow: 0,
        })
    }

    /// One sorted-chain insertion starting at `home`; cascades evictions.
    fn insert_sorted_chain(
        &mut self,
        home: u64,
        record: Record,
        max_steps: u32,
    ) -> Result<Placement> {
        let mut bucket = home;
        let mut incoming = record;
        let mut first_placement: Option<Placement> = None;
        let mut steps = 0u32;
        loop {
            let mut entries: Vec<Record> = self
                .bucket_entries(bucket)
                .into_iter()
                .map(|(_, r)| r)
                .collect();
            let pos = entries.partition_point(|e| e.key.care_count() >= incoming.key.care_count());
            let full = entries.len() == self.slots_per_bucket as usize;
            if !full {
                entries.insert(pos, incoming);
                #[allow(clippy::cast_possible_truncation)]
                let slot = pos as u32;
                self.rewrite_logical_bucket(bucket, &entries);
                if first_placement.is_none() {
                    first_placement = Some(Placement {
                        bucket,
                        slot,
                        displacement: steps,
                    });
                    if steps > 0 {
                        self.raise_reach(home, steps);
                        let idx = usize::try_from(home).expect("checked at new");
                        self.bucket_had_spill[idx] = true;
                    }
                }
                return Ok(first_placement.expect("set above"));
            }
            // Bucket full: either the incoming record is lowest priority and
            // moves on, or it displaces the bucket's last entry.
            if pos < entries.len() {
                let evicted = entries.pop().expect("bucket was full");
                entries.insert(pos, incoming);
                #[allow(clippy::cast_possible_truncation)]
                let slot = pos as u32;
                self.rewrite_logical_bucket(bucket, &entries);
                if first_placement.is_none() {
                    first_placement = Some(Placement {
                        bucket,
                        slot,
                        displacement: steps,
                    });
                    if steps > 0 {
                        self.raise_reach(home, steps);
                        let idx = usize::try_from(home).expect("checked at new");
                        self.bucket_had_spill[idx] = true;
                    }
                }
                incoming = evicted;
            }
            // `incoming` (new record or eviction) advances one bucket; keep
            // the reach invariant of every plausible home of the record.
            self.advance_reach(&incoming, bucket);
            steps += 1;
            if steps > max_steps || u64::from(steps) >= self.logical_buckets {
                return Err(CaRamError::TableFull {
                    home_bucket: home,
                    buckets_probed: steps,
                });
            }
            bucket = (bucket + 1) % self.logical_buckets;
        }
    }

    /// Rewrites a logical bucket with `records` compacted in order across
    /// its horizontal slices.
    fn rewrite_logical_bucket(&mut self, bucket: u64, records: &[Record]) {
        assert!(
            records.len() <= self.slots_per_bucket as usize,
            "bucket overfilled"
        );
        let (v, row) = self.split_bucket(bucket);
        let per = self.slots_per_slice_row as usize;
        for h in 0..self.horizontal {
            let start = (h as usize) * per;
            let chunk: &[Record] = if start >= records.len() {
                &[]
            } else {
                &records[start..records.len().min(start + per)]
            };
            let s = self.slice_of(v, h);
            self.slices[s].rewrite_bucket(row, chunk);
        }
    }

    /// A record currently resident at `from_bucket` is moving one bucket
    /// forward. Maintain the reach invariant — `reach(home) ≥ displacement`
    /// for the record's true home — without unbounded raises: the true home
    /// already satisfies the invariant at `from_bucket`, so exactly the
    /// homes whose reach covers the old position get extended by one.
    fn advance_reach(&mut self, record: &Record, from_bucket: u64) {
        let homes = self.home_buckets(&record.key.to_search_key());
        for home in homes {
            let d_old = (from_bucket + self.logical_buckets - home) % self.logical_buckets;
            if d_old <= u64::from(self.reach(home)) {
                #[allow(clippy::cast_possible_truncation)]
                self.raise_reach(home, d_old as u32 + 1);
                let idx = usize::try_from(home).expect("checked at new");
                self.bucket_had_spill[idx] = true;
            }
        }
    }

    /// Looks up `key`: probes the home bucket and, if the bucket has
    /// overflowed, up to *reach* further buckets. Under the sorted-insert
    /// discipline (and before any delete) the first match in probe order is
    /// the longest, so the scan stops there; after a delete (or a sorted
    /// insert into a strided table) the chain may interleave priorities
    /// and the full reach is scanned, keeping the best match by care
    /// count. The parallel overflow area, if configured, is consulted at
    /// no extra memory-access cost.
    ///
    /// The hot path is allocation-free for unmasked search keys: home
    /// buckets are computed once into an inline buffer (shared with the
    /// overflow probe) and only the winning slot of a fetched row is
    /// decoded. Batched callers should prefer [`CaRamTable::search_batch`],
    /// which reuses the scratch buffer across keys.
    #[must_use]
    pub fn search(&self, key: &SearchKey) -> SearchOutcome {
        let mut homes = BucketList::new();
        self.home_buckets_into(key, &mut homes);
        self.probe(key, &homes)
    }

    /// Runs the [`CaRamTable::probe_walk`] instantiation that matches the
    /// installed sink: none walks with the zero-sized [`NullSink`] (the
    /// untraced hot loop), a shallow sink receives one [`ProbeSummary`]
    /// per search, and a deep sink (cached `wants_match_vectors`) also
    /// receives the per-stage events.
    fn probe(&self, key: &SearchKey, homes: &BucketList) -> SearchOutcome {
        match self.sink.as_deref() {
            None => self.probe_walk::<_, false>(key, homes, &NullSink),
            Some(sink) if self.sink_deep => self.probe_walk::<_, true>(key, homes, sink),
            Some(sink) => self.probe_walk::<_, false>(key, homes, sink),
        }
    }

    /// The probe walk over an already-computed home set — the paper's
    /// Fig. 4 pipeline (hash → row fetch → match → extract) plus the
    /// overflow probe, and the only search loop of the table.
    ///
    /// Generic over the sink it reports to, so each instantiation compiles
    /// to exactly its own cost: with [`NullSink`] every report is an inline
    /// no-op and the walk is the untraced hot loop; any other sink gets one
    /// [`TelemetrySink::search_complete`] per search. `DEEP` additionally
    /// fires the [`Stage`] events and computes the full match vector of
    /// every fetched slice row for its popcount; the early-exit matcher
    /// still picks the winner, so outcomes never depend on the sink.
    ///
    /// Takes the homes precomputed so the batched path can hash key `i + 1`
    /// (and prefetch its rows) while key `i` is walked.
    fn probe_walk<S: TelemetrySink + ?Sized, const DEEP: bool>(
        &self,
        key: &SearchKey,
        homes: &BucketList,
        sink: &S,
    ) -> SearchOutcome {
        if DEEP {
            sink.stage(Stage::Hash, homes.as_slice().len() as u64);
        }
        let mut accesses = 0u32;
        let mut best: Option<Hit> = None;
        let mut winning_step = 0u32;
        let mut max_step = 0u32;
        for &home in homes.as_slice() {
            // The home bucket's split serves both the reach lookup and
            // rung 0's search — reach-0 chains (the common case) split
            // exactly once per probed home.
            let (home_v, home_row) = self.split_bucket(home);
            let reach = self.slices[self.slice_of(home_v, 0)].aux(home_row).reach;
            for step in 0..=reach {
                let (bucket, v, row) = if step == 0 {
                    (home, home_v, home_row)
                } else {
                    let b = self
                        .config
                        .probe
                        .bucket_at(home, step, self.logical_buckets);
                    let (v, r) = self.split_bucket(b);
                    (b, v, r)
                };
                accesses += 1;
                max_step = max_step.max(step);
                if step < reach {
                    // Pull rung k+1's rows toward L1 while rung k is
                    // compared (prefetch distance: one probe rung).
                    self.prefetch_bucket(self.config.probe.bucket_at(
                        home,
                        step + 1,
                        self.logical_buckets,
                    ));
                }
                if DEEP {
                    sink.stage(Stage::RowFetch, u64::from(self.slots_per_bucket));
                    for h in 0..self.horizontal {
                        let m = self.slices[self.slice_of(v, h)].match_bucket(row, key);
                        sink.stage(Stage::Match, u64::from(m.match_count()));
                    }
                }
                // Full-reach mode also compares matches *within* a bucket
                // (a backfilled slot may outrank an earlier one).
                let found = if self.full_scan {
                    self.search_split_bucket_full(v, row, key)
                } else {
                    self.search_split_bucket(v, row, key)
                };
                if let Some((slot, record)) = found {
                    // Across multiple probed homes (masked search keys) and
                    // full-reach scans, prefer the most specific match.
                    if wins_tie_break(&record, best.as_ref().map(|b| &b.record)) {
                        best = Some(Hit {
                            bucket,
                            slot,
                            record,
                            from_overflow: false,
                        });
                        winning_step = step;
                    }
                    if !self.full_scan {
                        break; // sorted chain: first match wins
                    }
                }
            }
        }
        if self.overflow.is_some() {
            if DEEP {
                sink.stage(Stage::OverflowProbe, self.overflow_count() as u64);
            }
            if let Some(r) = self.search_overflow(homes.as_slice(), key) {
                if wins_tie_break(&r, best.as_ref().map(|b| &b.record)) {
                    best = Some(Hit {
                        bucket: 0,
                        slot: 0,
                        record: r,
                        from_overflow: true,
                    });
                    winning_step = 0;
                }
            }
        }
        if DEEP {
            if let Some(h) = &best {
                sink.stage(Stage::Extract, u64::from(h.slot));
            }
        }
        let memory_accesses = accesses.max(1);
        sink.search_complete(&ProbeSummary {
            hit: best.is_some(),
            row_fetches: u64::from(memory_accesses),
            probe_length: u64::from(if best.is_some() {
                winning_step
            } else {
                max_step
            }),
            homes: homes.as_slice().len() as u64,
        });
        SearchOutcome {
            hit: best,
            memory_accesses,
        }
    }

    // ---- batched search -----------------------------------------------------

    /// Looks up every key of `keys` in order, reusing one home-bucket
    /// scratch buffer across the whole batch. Outcome `i` is bit-identical
    /// to `self.search(&keys[i])`.
    #[must_use]
    pub fn search_batch(&self, keys: &[SearchKey]) -> Vec<SearchOutcome> {
        let mut out = Vec::with_capacity(keys.len());
        self.search_batch_into(keys, |o| out.push(o));
        out
    }

    /// Pipelined batch core behind every batch path: each key is hashed
    /// exactly once, one key ahead of its compare. While key `i`'s probe
    /// chain occupies the execution ports, key `i + 1`'s home buckets are
    /// computed into the spare scratch list and its first home's rows and
    /// auxiliary words are prefetched; the two lists then swap, so the hash
    /// work doubles as the prefetch address computation.
    /// Outcomes are emitted in key order, bit-identical to serial
    /// [`CaRamTable::search`] calls. Public so callers that fold or stream
    /// outcomes (benchmarks, aggregating scans) can skip materializing the
    /// `Vec<SearchOutcome>` that [`CaRamTable::search_batch`] builds.
    pub fn search_batch_into(&self, keys: &[SearchKey], mut emit: impl FnMut(SearchOutcome)) {
        if self.sink.is_some() {
            // Traced tables walk key by key: no hash-ahead pipelining.
            let mut homes = BucketList::new();
            for key in keys {
                self.home_buckets_into(key, &mut homes);
                emit(self.probe(key, &homes));
            }
            return;
        }
        let mut cur = BucketList::new();
        let mut next = BucketList::new();
        if let Some(first) = keys.first() {
            self.home_buckets_into(first, &mut cur);
        }
        for i in 0..keys.len() {
            if let Some(nk) = keys.get(i + 1) {
                self.home_buckets_into(nk, &mut next);
                if let Some(&home) = next.as_slice().first() {
                    self.prefetch_bucket(home);
                }
            }
            emit(self.probe_walk::<_, false>(&keys[i], &cur, &NullSink));
            std::mem::swap(&mut cur, &mut next);
        }
    }

    /// Removes the record whose stored key exactly equals `key` (value,
    /// mask, and width), from every bucket it was duplicated into and from
    /// the overflow area. Returns the number of copies removed.
    ///
    /// Deletion does not lower bucket reach (recomputing it requires a
    /// rebuild, as in hardware), and the build-time placement statistics
    /// are intentionally left unchanged.
    #[allow(clippy::missing_panics_doc)] // internal expects: bounds checked at new()
    pub fn delete(&mut self, key: &crate::key::TernaryKey) -> u32 {
        let search = key.to_search_key();
        let homes = self.home_buckets(&search);
        let mut removed = 0u32;
        for home in homes {
            let reach = self.reach(home);
            // Keep scanning past the first match: duplicate copies of the
            // same stored key can share a bucket or sit further down the
            // probe chain, and "delete" promises to remove them all.
            // Re-visiting a slot cleared via an earlier home is harmless
            // (`read_record` returns `None` once invalidated), so
            // overlapping multi-home chains cannot double-count.
            for step in 0..=reach {
                let bucket = self
                    .config
                    .probe
                    .bucket_at(home, step, self.logical_buckets);
                let (v, row) = self.split_bucket(bucket);
                for h in 0..self.horizontal {
                    let s = self.slice_of(v, h);
                    let slots = self.slices[s].slots_per_row();
                    for slot in 0..slots {
                        if let Some(r) = self.slices[s].read_record(row, slot) {
                            if r.key == *key {
                                self.slices[s].invalidate(row, slot);
                                removed += 1;
                            }
                        }
                    }
                }
            }
        }
        match &mut self.overflow {
            Some(OverflowStore::Associative { records, .. }) => {
                let before = records.len();
                records.retain(|r| r.key != *key);
                removed += u32::try_from(before - records.len()).expect("bounded by capacity");
            }
            Some(OverflowStore::Victim { slice }) => {
                for row in 0..slice.rows() {
                    let slots: Vec<u32> = slice
                        .bucket_records(row)
                        .into_iter()
                        .filter(|(_, r)| r.key == *key)
                        .map(|(s, _)| s)
                        .collect();
                    for s in slots {
                        slice.invalidate(row, s);
                        removed += 1;
                    }
                }
            }
            None => {}
        }
        // A post-delete insert may place a shorter prefix upstream of an
        // evicted longer one; drop to full-reach LPM scans from here on. A
        // delete that removed nothing left every chain as it was.
        if removed > 0 {
            self.full_scan = true;
        }
        removed
    }

    // ---- statistics --------------------------------------------------------

    /// The Table 2 / Table 3 style report for the current build.
    #[must_use]
    pub fn load_report(&self) -> LoadReport {
        LoadReport {
            buckets: self.logical_buckets,
            slots_per_bucket: self.slots_per_bucket,
            original_records: self.stats.original_records(),
            duplicate_records: self.stats.duplicate_records(),
            spilled_records: self.stats.spilled_records(),
            overflowing_buckets: self.bucket_had_spill.iter().filter(|&&b| b).count() as u64,
            amal_uniform: self.stats.amal_uniform(),
            amal_weighted: self.stats.amal_weighted(),
        }
    }

    /// Histogram of records per *home* bucket — what Fig. 7 plots (records
    /// are attributed to the bucket they hash to, before any spilling).
    #[must_use]
    pub fn home_histogram(&self) -> OccupancyHistogram {
        OccupancyHistogram::from_counts(self.home_counts.iter().copied())
    }

    /// Histogram of records per bucket *as placed* (after spilling).
    #[must_use]
    pub fn placed_histogram(&self) -> OccupancyHistogram {
        OccupancyHistogram::from_counts((0..self.logical_buckets).map(|b| self.bucket_occupancy(b)))
    }

    /// Per-physical-slice occupancy histograms (records per slice row), in
    /// slice order — the per-slice series telemetry exports.
    #[must_use]
    pub fn slice_occupancy_histograms(&self) -> Vec<OccupancyHistogram> {
        self.slices
            .iter()
            .map(|s| OccupancyHistogram::from_counts((0..s.rows()).map(|r| s.occupancy(r))))
            .collect()
    }

    /// Entries the paper would size a dedicated overflow area for: currently
    /// spilled copies (Sec. 4.3 sizes the victim TCAM from this).
    #[must_use]
    pub fn spilled_records(&self) -> u64 {
        self.stats.spilled_records()
    }
}

impl From<SearchOutcome> for crate::engine::EngineOutcome {
    fn from(o: SearchOutcome) -> Self {
        Self {
            hit: o.hit.map(|h| crate::engine::EngineHit {
                key: h.record.key,
                data: h.record.data,
            }),
            memory_accesses: o.memory_accesses,
        }
    }
}

/// [`CaRamTable`] through the unified engine interface. The trait methods
/// delegate to the inherent allocation-free paths, so a `&dyn SearchEngine`
/// lookup costs one virtual dispatch over a direct call and nothing else.
impl crate::engine::SearchEngine for CaRamTable {
    fn name(&self) -> &'static str {
        "ca-ram"
    }

    fn key_bits(&self) -> u32 {
        self.config.layout.key_bits()
    }

    fn search(&self, key: &SearchKey) -> crate::engine::EngineOutcome {
        CaRamTable::search(self, key).into()
    }

    fn insert(&mut self, record: Record) -> Result<()> {
        CaRamTable::insert(self, record).map(|_| ())
    }

    fn insert_sorted(&mut self, record: Record) -> Result<()> {
        CaRamTable::insert_sorted(self, record).map(|_| ())
    }

    fn delete(&mut self, key: &crate::key::TernaryKey) -> u32 {
        CaRamTable::delete(self, key)
    }

    fn occupancy(&self) -> crate::engine::EngineReport {
        crate::engine::EngineReport {
            records: Some(self.record_count() + self.overflow_count() as u64),
            capacity: Some(self.capacity()),
        }
    }

    fn search_batch_into(&self, keys: &[SearchKey], out: &mut Vec<crate::engine::EngineOutcome>) {
        out.clear();
        out.reserve(keys.len());
        CaRamTable::search_batch_into(self, keys, |o| {
            out.push(crate::engine::EngineOutcome::from(o));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{DjbHash, RangeSelect};
    use crate::key::TernaryKey;

    fn small_table(arrangement: Arrangement, overflow: OverflowPolicy) -> CaRamTable {
        // Key: 16 bits binary, 8-bit data; 4 slots per slice row.
        let layout = RecordLayout::new(16, false, 8);
        let config = TableConfig {
            rows_log2: 3,
            row_bits: 96,
            layout,
            arrangement,
            probe: ProbePolicy::Linear,
            overflow,
        };
        CaRamTable::new(config, Box::new(RangeSelect::new(0, 4))).unwrap()
    }

    fn rec(value: u128, data: u64) -> Record {
        Record::new(TernaryKey::binary(value, 16), data)
    }

    #[test]
    fn geometry_horizontal_vs_vertical() {
        let h = small_table(
            Arrangement::Horizontal(2),
            OverflowPolicy::Probe { max_steps: 8 },
        );
        assert_eq!(h.logical_buckets(), 8);
        assert_eq!(h.slots_per_bucket(), 8);
        assert_eq!(h.capacity(), 64);
        let v = small_table(
            Arrangement::Vertical(2),
            OverflowPolicy::Probe { max_steps: 8 },
        );
        assert_eq!(v.logical_buckets(), 16);
        assert_eq!(v.slots_per_bucket(), 4);
        assert_eq!(v.capacity(), 64);
    }

    #[test]
    fn insert_then_search_hits_home_bucket() {
        let mut t = small_table(
            Arrangement::Horizontal(1),
            OverflowPolicy::Probe { max_steps: 8 },
        );
        // Key 0x0025 hashes to bucket 5 (low 4 bits, mod 8).
        let out = t.insert(rec(0x0025, 7)).unwrap();
        assert_eq!(out.placements.len(), 1);
        assert_eq!(out.placements[0].displacement, 0);
        let got = t.search(&SearchKey::new(0x0025, 16));
        assert_eq!(got.memory_accesses, 1);
        let hit = got.hit.unwrap();
        assert_eq!(hit.record.data, 7);
        assert!(!hit.from_overflow);
        // Miss costs one access too (the home bucket is always fetched).
        let miss = t.search(&SearchKey::new(0x0026, 16));
        assert!(miss.hit.is_none());
        assert_eq!(miss.memory_accesses, 1);
    }

    #[test]
    fn overflow_spills_to_next_bucket_and_search_follows_reach() {
        let mut t = small_table(
            Arrangement::Horizontal(1),
            OverflowPolicy::Probe { max_steps: 8 },
        );
        // Five keys hash to bucket 2 (low 4 bits = 2, mod 8): capacity 4.
        let keys: Vec<u128> = (0..5).map(|i| (i << 8) | 0x02).collect();
        for (i, &k) in keys.iter().enumerate() {
            let out = t.insert(rec(k, i as u64)).unwrap();
            let d = out.placements[0].displacement;
            assert_eq!(d, u32::from(i == 4), "record {i}");
        }
        // The spilled record is found with 2 accesses.
        let got = t.search(&SearchKey::new(keys[4], 16));
        assert_eq!(got.hit.unwrap().record.data, 4);
        assert_eq!(got.memory_accesses, 2);
        // A home-bucket record is found with 1 access.
        assert_eq!(t.search(&SearchKey::new(keys[0], 16)).memory_accesses, 1);
        let report = t.load_report();
        assert_eq!(report.spilled_records, 1);
        assert_eq!(report.overflowing_buckets, 1);
        assert!((report.amal_uniform - 1.2).abs() < 1e-12);
    }

    #[test]
    fn horizontal_bucket_fills_across_slices_with_one_access() {
        let mut t = small_table(
            Arrangement::Horizontal(2),
            OverflowPolicy::Probe { max_steps: 8 },
        );
        // 8 slots per logical bucket now; 6 colliding keys all fit at home.
        for i in 0..6u128 {
            let out = t.insert(rec((i << 8) | 0x03, i as u64)).unwrap();
            assert_eq!(out.placements[0].displacement, 0);
        }
        for i in 0..6u128 {
            let got = t.search(&SearchKey::new((i << 8) | 0x03, 16));
            assert_eq!(got.memory_accesses, 1);
            assert_eq!(got.hit.unwrap().record.data, i as u64);
        }
        assert_eq!(t.load_report().spilled_records, 0);
    }

    #[test]
    fn vertical_arrangement_uses_high_index_bits() {
        let mut t = small_table(
            Arrangement::Vertical(2),
            OverflowPolicy::Probe { max_steps: 8 },
        );
        // 16 logical buckets; key low 4 bits select the bucket directly.
        let out = t.insert(rec(0x000F, 1)).unwrap();
        assert_eq!(out.placements[0].bucket, 15);
        let got = t.search(&SearchKey::new(0x000F, 16));
        assert_eq!(got.hit.unwrap().record.data, 1);
    }

    #[test]
    fn parallel_overflow_area_keeps_amal_at_one() {
        let mut t = small_table(
            Arrangement::Horizontal(1),
            OverflowPolicy::ParallelArea { capacity: 4 },
        );
        for i in 0..6u128 {
            t.insert(rec((i << 8) | 0x01, i as u64)).unwrap();
        }
        assert_eq!(t.overflow_count(), 2);
        // Every lookup costs exactly one access, including overflow hits.
        for i in 0..6u128 {
            let got = t.search(&SearchKey::new((i << 8) | 0x01, 16));
            assert_eq!(got.memory_accesses, 1, "record {i}");
            assert_eq!(got.hit.unwrap().record.data, i as u64);
        }
        assert!(
            t.search(&SearchKey::new((4u128 << 8) | 1, 16))
                .hit
                .unwrap()
                .from_overflow
        );
        assert!((t.load_report().amal_uniform - 1.0).abs() < 1e-12);
    }

    #[test]
    fn victim_slice_absorbs_spills_at_unit_amal() {
        let layout = RecordLayout::new(16, false, 8);
        let mut t = small_table(
            Arrangement::Horizontal(1),
            OverflowPolicy::VictimSlice {
                rows_log2: 2,
                row_bits: 96,
            },
        );
        let _ = layout;
        // 6 keys to a 4-slot bucket: 2 land in the victim slice.
        for i in 0..6u128 {
            t.insert(rec((i << 8) | 0x01, i as u64)).unwrap();
        }
        assert_eq!(t.overflow_count(), 2);
        for i in 0..6u128 {
            let got = t.search(&SearchKey::new((i << 8) | 0x01, 16));
            assert_eq!(
                got.memory_accesses, 1,
                "victim slice is accessed in parallel"
            );
            assert_eq!(got.hit.unwrap().record.data, i as u64);
        }
        assert!(
            t.search(&SearchKey::new((5u128 << 8) | 1, 16))
                .hit
                .unwrap()
                .from_overflow
        );
        // Deleting a victim-resident record works.
        assert_eq!(t.delete(&TernaryKey::binary((5u128 << 8) | 1, 16)), 1);
        assert!(t
            .search(&SearchKey::new((5u128 << 8) | 1, 16))
            .hit
            .is_none());
        assert_eq!(t.overflow_count(), 1);
    }

    #[test]
    fn victim_slice_capacity_enforced() {
        // Victim: 1 row of 4 slots; spill 5 records beyond the main bucket.
        let mut t = small_table(
            Arrangement::Horizontal(1),
            OverflowPolicy::VictimSlice {
                rows_log2: 0,
                row_bits: 96,
            },
        );
        for i in 0..8u128 {
            t.insert(rec((i << 8) | 0x02, 0)).unwrap();
        }
        let err = t.insert(rec((8u128 << 8) | 0x02, 0)).unwrap_err();
        assert!(matches!(err, CaRamError::TableFull { .. }));
    }

    #[test]
    fn victim_slice_internal_probing_spreads_hot_homes() {
        // Victim has 4 rows x 4 slots; overflow 6 records from one home:
        // they must probe across victim rows and stay findable.
        let mut t = small_table(
            Arrangement::Horizontal(1),
            OverflowPolicy::VictimSlice {
                rows_log2: 2,
                row_bits: 96,
            },
        );
        for i in 0..10u128 {
            t.insert(rec((i << 8) | 0x03, i as u64)).unwrap();
        }
        assert_eq!(t.overflow_count(), 6);
        for i in 0..10u128 {
            let got = t.search(&SearchKey::new((i << 8) | 0x03, 16));
            assert_eq!(got.hit.unwrap().record.data, i as u64, "record {i}");
        }
    }

    #[test]
    fn overflow_area_capacity_enforced() {
        let mut t = small_table(
            Arrangement::Horizontal(1),
            OverflowPolicy::ParallelArea { capacity: 1 },
        );
        for i in 0..5u128 {
            t.insert(rec((i << 8) | 0x01, 0)).unwrap();
        }
        let err = t.insert(rec((5u128 << 8) | 0x01, 0)).unwrap_err();
        assert!(matches!(err, CaRamError::TableFull { .. }));
    }

    #[test]
    fn probe_limit_zero_fails_on_collision() {
        let mut t = small_table(
            Arrangement::Horizontal(1),
            OverflowPolicy::Probe { max_steps: 0 },
        );
        for i in 0..4u128 {
            t.insert(rec((i << 8) | 0x06, 0)).unwrap();
        }
        let err = t.insert(rec((4u128 << 8) | 0x06, 0)).unwrap_err();
        assert!(matches!(
            err,
            CaRamError::TableFull {
                home_bucket: 6,
                buckets_probed: 1
            }
        ));
    }

    #[test]
    fn lpm_first_match_under_sorted_insertion() {
        // IPv4-style LPM on a tiny table: insert /24 before /16 before /8
        // (descending prefix length), search must return the /24.
        let layout = RecordLayout::ipv4_prefix(8);
        let config = TableConfig {
            rows_log2: 4,
            row_bits: layout.slot_bits() * 4,
            layout,
            arrangement: Arrangement::Horizontal(1),
            probe: ProbePolicy::Linear,
            overflow: OverflowPolicy::Probe { max_steps: 16 },
        };
        let mut t = CaRamTable::new(config, Box::new(RangeSelect::new(24, 4))).unwrap();
        let p24 = Record::new(TernaryKey::ternary(0x0A0B_0C00, 0xFF, 32), 24);
        let p16 = Record::new(TernaryKey::ternary(0x0A0B_0000, 0xFFFF, 32), 16);
        let p8 = Record::new(TernaryKey::ternary(0x0A00_0000, 0x00FF_FFFF, 32), 8);
        t.insert(p24).unwrap();
        t.insert(p16).unwrap();
        t.insert(p8).unwrap();
        let hit = |addr: u128| t.search(&SearchKey::new(addr, 32)).hit.unwrap().record.data;
        assert_eq!(hit(0x0A0B_0C01), 24);
        assert_eq!(hit(0x0A0B_0D01), 16);
        assert_eq!(hit(0x0A0F_0001), 8);
        assert!(t.search(&SearchKey::new(0x0B00_0000, 32)).hit.is_none());
    }

    #[test]
    fn duplicated_prefix_reaches_all_hash_images() {
        // Hash = address bits 24..28; a /6 prefix leaves 2 hash bits
        // don't-care -> 4 homes, one placement each, all searchable.
        let layout = RecordLayout::ipv4_prefix(8);
        let config = TableConfig {
            rows_log2: 4,
            row_bits: layout.slot_bits() * 4,
            layout,
            arrangement: Arrangement::Horizontal(1),
            probe: ProbePolicy::Linear,
            overflow: OverflowPolicy::Probe { max_steps: 16 },
        };
        let mut t = CaRamTable::new(config, Box::new(RangeSelect::new(24, 4))).unwrap();
        let p6 = Record::new(
            TernaryKey::ternary(0x0800_0000, crate::bits::low_mask(26), 32),
            6,
        );
        let out = t.insert(p6).unwrap();
        assert_eq!(out.placements.len(), 4);
        let report = t.load_report();
        assert_eq!(report.original_records, 1);
        assert_eq!(report.duplicate_records, 3);
        for addr in [0x0800_0000u128, 0x0900_0000, 0x0A00_0000, 0x0BFF_FFFF] {
            let got = t.search(&SearchKey::new(addr, 32));
            assert_eq!(got.hit.unwrap().record.data, 6, "addr {addr:#x}");
        }
    }

    #[test]
    fn delete_removes_all_duplicates() {
        let layout = RecordLayout::ipv4_prefix(8);
        let config = TableConfig {
            rows_log2: 4,
            row_bits: layout.slot_bits() * 4,
            layout,
            arrangement: Arrangement::Horizontal(1),
            probe: ProbePolicy::Linear,
            overflow: OverflowPolicy::Probe { max_steps: 16 },
        };
        let mut t = CaRamTable::new(config, Box::new(RangeSelect::new(24, 4))).unwrap();
        let key = TernaryKey::ternary(0x0800_0000, crate::bits::low_mask(26), 32);
        t.insert(Record::new(key, 6)).unwrap();
        assert_eq!(t.record_count(), 4);
        assert_eq!(t.delete(&key), 4);
        assert_eq!(t.record_count(), 0);
        assert!(t.search(&SearchKey::new(0x0900_0000, 32)).hit.is_none());
        assert_eq!(t.delete(&key), 0);
    }

    #[test]
    fn delete_then_reinsert_reuses_slot() {
        let mut t = small_table(
            Arrangement::Horizontal(1),
            OverflowPolicy::Probe { max_steps: 8 },
        );
        t.insert(rec(0x0102, 1)).unwrap();
        let key = TernaryKey::binary(0x0102, 16);
        assert_eq!(t.delete(&key), 1);
        let out = t.insert(rec(0x0102, 2)).unwrap();
        assert_eq!(out.placements[0].displacement, 0);
        assert_eq!(
            t.search(&SearchKey::new(0x0102, 16))
                .hit
                .unwrap()
                .record
                .data,
            2
        );
    }

    #[test]
    fn histograms_track_home_and_placed_counts() {
        let mut t = small_table(
            Arrangement::Horizontal(1),
            OverflowPolicy::Probe { max_steps: 8 },
        );
        for i in 0..5u128 {
            t.insert(rec((i << 8) | 0x02, 0)).unwrap(); // all home bucket 2
        }
        let home = t.home_histogram();
        assert_eq!(home.buckets_with(5), 1);
        assert_eq!(home.buckets_with(0), 7);
        let placed = t.placed_histogram();
        assert_eq!(placed.buckets_with(4), 1); // bucket 2 full
        assert_eq!(placed.buckets_with(1), 1); // bucket 3 holds the spill
    }

    #[test]
    fn djb_table_rejects_ternary_keys() {
        let layout = RecordLayout::new(32, true, 0);
        let config = TableConfig {
            rows_log2: 4,
            row_bits: layout.slot_bits() * 4,
            layout,
            arrangement: Arrangement::Horizontal(1),
            probe: ProbePolicy::Linear,
            overflow: OverflowPolicy::Probe { max_steps: 4 },
        };
        let mut t = CaRamTable::new(config, Box::new(DjbHash::new(8, 4))).unwrap();
        let err = t
            .insert(Record::new(TernaryKey::ternary(0, 0xFF, 32), 0))
            .unwrap_err();
        assert_eq!(err, CaRamError::TernaryNotEnabled);
        // Binary keys are fine.
        t.insert(Record::new(TernaryKey::binary(42, 32), 0))
            .unwrap();
    }

    #[test]
    fn narrow_index_generator_rejected() {
        let layout = RecordLayout::new(16, false, 0);
        let config = TableConfig::single_slice(8, 64, layout);
        let err = CaRamTable::new(config, Box::new(RangeSelect::new(0, 4))).unwrap_err();
        assert!(matches!(err, CaRamError::BadConfig(_)));
    }

    fn lpm_table() -> CaRamTable {
        let layout = RecordLayout::ipv4_prefix(8);
        let config = TableConfig {
            rows_log2: 3,
            row_bits: layout.slot_bits() * 2, // tiny buckets: 2 slots
            layout,
            arrangement: Arrangement::Horizontal(1),
            probe: ProbePolicy::Linear,
            overflow: OverflowPolicy::Probe { max_steps: 8 },
        };
        CaRamTable::new(config, Box::new(RangeSelect::new(24, 3))).unwrap()
    }

    fn prefix(addr: u128, len: u32) -> TernaryKey {
        let dc = if len == 32 {
            0
        } else {
            (1u128 << (32 - len)) - 1
        };
        TernaryKey::ternary(addr, dc, 32)
    }

    #[test]
    fn insert_sorted_orders_within_bucket_regardless_of_arrival() {
        let mut t = lpm_table();
        // Arrive short-first — the hard case for priority order.
        t.insert_sorted(Record::new(prefix(0x0100_0000, 8), 8))
            .unwrap();
        t.insert_sorted(Record::new(prefix(0x0101_0000, 16), 16))
            .unwrap();
        let entries = t.bucket_entries(1);
        let lens: Vec<u32> = entries.iter().map(|(_, r)| r.key.care_count()).collect();
        assert_eq!(lens, vec![16, 8]);
        // LPM through ordinary first-match search.
        let hit = t.search(&SearchKey::new(0x0101_0200, 32)).hit.unwrap();
        assert_eq!(hit.record.data, 16);
        let hit = t.search(&SearchKey::new(0x0102_0000, 32)).hit.unwrap();
        assert_eq!(hit.record.data, 8);
    }

    #[test]
    fn insert_sorted_evicts_lowest_priority_on_overflow() {
        let mut t = lpm_table();
        // Three prefixes homing at bucket 1; capacity 2. The /8 (lowest
        // priority) must end up evicted to bucket 2, still findable.
        t.insert_sorted(Record::new(prefix(0x0100_0000, 8), 8))
            .unwrap();
        t.insert_sorted(Record::new(prefix(0x0101_0000, 16), 16))
            .unwrap();
        t.insert_sorted(Record::new(prefix(0x0101_0100, 24), 24))
            .unwrap();
        let lens: Vec<u32> = t
            .bucket_entries(1)
            .iter()
            .map(|(_, r)| r.key.care_count())
            .collect();
        assert_eq!(lens, vec![24, 16]);
        let spilled = t.search(&SearchKey::new(0x01FF_0000, 32));
        assert_eq!(spilled.hit.unwrap().record.data, 8);
        assert_eq!(spilled.memory_accesses, 2, "found via the reach chain");
        // LPM for the longer prefixes still resolves at home.
        assert_eq!(
            t.search(&SearchKey::new(0x0101_0101, 32))
                .hit
                .unwrap()
                .record
                .data,
            24
        );
    }

    #[test]
    fn insert_sorted_matches_bulk_sorted_build() {
        // Online arbitrary-order inserts must produce the same LPM function
        // as the offline longest-first build.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(9);
        // Capacity is 8 buckets x 2 slots; stay beneath it.
        let mut routes: Vec<(u128, u32)> = Vec::new();
        for _ in 0..12 {
            let len = rng.gen_range(8..=32u32);
            let addr = u128::from(rng.gen::<u32>())
                & !(if len == 32 {
                    0u128
                } else {
                    (1u128 << (32 - len)) - 1
                });
            routes.push((addr, len));
        }
        routes.sort_unstable();
        routes.dedup();
        let mut offline = lpm_table();
        let mut sorted_routes = routes.clone();
        sorted_routes.sort_by(|a, b| b.1.cmp(&a.1));
        for &(a, l) in &sorted_routes {
            offline
                .insert(Record::new(prefix(a, l), u64::from(l)))
                .unwrap();
        }
        let mut online = lpm_table();
        for &(a, l) in &routes {
            online
                .insert_sorted(Record::new(prefix(a, l), u64::from(l)))
                .unwrap();
        }
        for _ in 0..500 {
            let addr = u128::from(rng.gen::<u32>());
            let key = SearchKey::new(addr, 32);
            assert_eq!(
                online.search(&key).hit.map(|h| h.record.data),
                offline.search(&key).hit.map(|h| h.record.data),
                "addr {addr:#x}"
            );
        }
    }

    #[test]
    fn delete_then_insert_preserves_lpm_via_full_scan() {
        // Regression: evict a long prefix past its home, delete a resident
        // entry, insert a shorter matching prefix into the freed slot. A
        // stop-at-first-match search would return the shorter prefix; the
        // post-delete full-reach scan must return the longer one.
        let mut t = lpm_table(); // 2-slot buckets
                                 // Fill bucket 1 with two /24s, forcing the /22 to spill to bucket 2.
        let a24 = prefix(0x0100_0100, 24);
        let b24 = prefix(0x0100_0200, 24);
        let c22 = prefix(0x0100_0400, 22);
        t.insert_sorted(Record::new(a24, 0)).unwrap();
        t.insert_sorted(Record::new(b24, 0)).unwrap();
        t.insert_sorted(Record::new(c22, 22)).unwrap();
        assert_eq!(t.bucket_occupancy(2), 1, "/22 spilled to bucket 2");
        // Deleting a key that was never stored reorders no chain: searches
        // keep stopping at the first match, with unchanged accesses.
        let probes = [0x0100_0101, 0x0100_0501, 0x0200_0000].map(|a| SearchKey::new(a, 32));
        let before = probes.map(|k| t.search(&k));
        assert_eq!(before[0].memory_accesses, 1, "the /24 hits its home bucket");
        assert_eq!(t.delete(&prefix(0x0100_0101, 32)), 0, "never stored");
        assert!(!t.full_scan());
        assert_eq!(probes.map(|k| t.search(&k)), before);
        // Delete one /24, then insert a /16 that also matches the /22's
        // space; it lands in bucket 1, upstream of the /22.
        assert_eq!(t.delete(&a24), 1, "a24 present");
        assert!(t.full_scan());
        let p16 = prefix(0x0100_0000, 16);
        t.insert_sorted(Record::new(p16, 16)).unwrap();
        // An address inside the /22: LPM must still find the /22.
        let got = t.search(&SearchKey::new(0x0100_0501, 32));
        assert_eq!(got.hit.unwrap().record.key.care_count(), 22);
        // And the /16 serves addresses outside the /22.
        let got = t.search(&SearchKey::new(0x0100_F000, 32));
        assert_eq!(got.hit.unwrap().record.key.care_count(), 16);
    }

    #[test]
    fn insert_sorted_on_strided_table_places_and_scans_full_reach() {
        // Each home of a strided table walks its own stride, so there is
        // no one chain order to keep sorted: the record is placed as
        // `insert` places it and the table latches best-care search.
        let config = TableConfig {
            probe: ProbePolicy::SecondHash,
            ..lpm_table().config().clone()
        };
        let mut t = CaRamTable::new(config, Box::new(RangeSelect::new(24, 3))).unwrap();
        assert!(!t.full_scan());
        // Two /16s fill home bucket 1 (2 slots); the /24 arriving after
        // them spills one stride down bucket 1's chain.
        t.insert_sorted(Record::new(prefix(0x0100_0000, 16), 16))
            .unwrap();
        assert!(t.full_scan());
        t.insert_sorted(Record::new(prefix(0x0101_0000, 16), 17))
            .unwrap();
        let long = t
            .insert_sorted(Record::new(prefix(0x0100_0100, 24), 24))
            .unwrap();
        assert_eq!(long.placements[0].displacement, 1);
        // The short prefix, inserted first and resident at the home,
        // does not shadow the long one.
        let got = t.search(&SearchKey::new(0x0100_0101, 32));
        assert_eq!(got.hit.unwrap().record.data, 24);
        let got = t.search(&SearchKey::new(0x0100_F000, 32));
        assert_eq!(got.hit.unwrap().record.data, 16);
    }

    #[test]
    fn insert_sorted_rejects_wrong_configs() {
        let mut t = small_table(
            Arrangement::Horizontal(1),
            OverflowPolicy::ParallelArea { capacity: 4 },
        );
        assert!(matches!(
            t.insert_sorted(rec(1, 1)),
            Err(CaRamError::BadConfig(_))
        ));
    }

    #[test]
    fn wrong_key_width_rejected() {
        let mut t = small_table(
            Arrangement::Horizontal(1),
            OverflowPolicy::Probe { max_steps: 8 },
        );
        let err = t
            .insert(Record::new(TernaryKey::binary(0, 8), 0))
            .unwrap_err();
        assert_eq!(
            err,
            CaRamError::KeyWidthMismatch {
                expected: 16,
                got: 8
            }
        );
    }

    /// The records of [`loaded_table_and_probes`], in insertion order
    /// (unsorted: every fifth one is a shorter ternary key).
    fn loaded_records() -> Vec<Record> {
        (0..40u64)
            .map(|i| {
                let k = u128::from(i);
                let key = if i % 5 == 0 {
                    TernaryKey::ternary((k * 97) & 0xFFF0, 0xF, 16)
                } else {
                    TernaryKey::binary((k * 97) & 0xFFFF, 16)
                };
                Record::new(key, i)
            })
            .collect()
    }

    /// A ternary table with spills and an overflow area, plus a probe mix
    /// of hits, misses, and masked keys — shared by the equivalence tests.
    fn loaded_table_and_probes() -> (CaRamTable, Vec<SearchKey>) {
        let layout = RecordLayout::new(16, true, 8);
        let config = TableConfig {
            rows_log2: 5,
            row_bits: 128,
            layout,
            arrangement: Arrangement::Horizontal(2),
            probe: ProbePolicy::Linear,
            overflow: OverflowPolicy::ParallelArea { capacity: 4 },
        };
        let mut t = CaRamTable::new(config, Box::new(RangeSelect::new(8, 5))).unwrap();
        for record in loaded_records() {
            t.insert_weighted(record, 1.0).unwrap();
        }
        let mut probes = Vec::new();
        for i in 0..60u128 {
            probes.push(SearchKey::new((i * 53) & 0xFFFF, 16));
        }
        // Masked search keys exercise the multi-home path.
        probes.push(SearchKey::with_mask(0x1230, 0x000F, 16));
        probes.push(SearchKey::with_mask(0, 0xFFFF, 16));
        (t, probes)
    }

    #[test]
    fn search_agrees_with_reference_model() {
        let (mut t, probes) = loaded_table_and_probes();
        // The ternary records went in unsorted, so only full-reach mode
        // promises the max-care match.
        t.force_full_scan();
        let mut model = crate::oracle::ReferenceModel::new(16);
        for record in loaded_records() {
            model.insert(record);
        }
        for key in &probes {
            let expected = model.expected(key);
            let got = t.search(key).hit.map(|h| h.record.data);
            assert!(expected.admits(got), "key {key:?}: {got:?} vs {expected:?}");
        }
    }

    #[test]
    fn search_batch_agrees_with_per_key_search() {
        let (t, probes) = loaded_table_and_probes();
        let batch = t.search_batch(&probes);
        assert_eq!(batch.len(), probes.len());
        for (key, got) in probes.iter().zip(&batch) {
            assert_eq!(*got, t.search(key), "key {key:?}");
        }
    }
}
