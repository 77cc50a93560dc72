//! [`DurableTable`]: a [`CaRamTable`] that survives crashes.
//!
//! The wrapper pairs the in-memory table with three pieces of durable
//! state in one directory:
//!
//! * `table.sb` — the creation-time [`TableSpec`], checksummed, written
//!   once (the superblock);
//! * `wal-<n>.log` — the write-ahead log ([`super::wal`]): every applied
//!   mutation, logged after it succeeds in memory and before it is
//!   acknowledged to the caller (log-after-apply, ack-after-commit);
//! * `snap-<n>.img` — checkpoints ([`super::snapshot`]) that bound replay
//!   time and let old segments be deleted.
//!
//! Alongside the table it keeps a *mirror* — the logical record set in
//! insertion order ([`ReferenceModel`]). The mirror is what snapshots
//! serialize: reinserting logical records through the table's own
//! placement code rebuilds occupancy and auxiliary state, and sidesteps
//! the multi-home duplication a physical bucket dump would square (a
//! ternary record duplicated into `k` buckets would reinsert as `k`
//! records into `k` buckets each).
//!
//! ## Recovery equivalence
//!
//! A restored table is *observably* equivalent, not bit-identical: if any
//! `insert_sorted` or delete made physical placement priority-significant,
//! the table is reopened in full-scan mode, where every search examines
//! the whole reach and picks the maximum-care match — exactly the set of
//! answers [`crate::oracle::Expected::admits`] accepts. A table that only
//! ever saw plain inserts replays to bit-identical placement and keeps its
//! first-match fast path. The crash-injection sweep
//! ([`super::crash::crash_sweep`]) enforces this equivalence at every
//! possible crash point.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use super::snapshot::{self, Snapshot};
use super::wal::{self, SyncPolicy, WalRecord, WalWriter};
use super::{corrupt, crc32, dur_err, io_err, put_u32, replace_file, TableSpec, FORMAT_VERSION};
use crate::engine::{EngineOutcome, EngineReport, SearchEngine};
use crate::error::{CaRamError, DurabilityErrorKind, Result};
use crate::key::{SearchKey, TernaryKey};
use crate::layout::Record;
use crate::oracle::ReferenceModel;
use crate::table::CaRamTable;

const SUPERBLOCK_FILE: &str = "table.sb";
const SUPERBLOCK_MAGIC: &[u8; 8] = b"CARAMTAB";
/// Subdirectory holding file-backed slice arrays when
/// [`DurableOptions::file_arrays`] is set.
const ARRAYS_DIR: &str = "arrays";

/// Tuning knobs for a [`DurableTable`].
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// When commits reach the device (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// WAL segment size that triggers rotation, in bytes.
    pub segment_limit: u64,
    /// Auto-checkpoint after this many logged records (`None` = only
    /// explicit [`DurableTable::checkpoint`] calls).
    pub checkpoint_every: Option<u64>,
    /// Commit after every mutation. Turn off to batch: the service write
    /// path appends a whole batch and commits once (group commit).
    pub auto_commit: bool,
    /// Keep the slice arrays in mmap'd files under `<dir>/arrays` instead
    /// of the heap (needs the `storage` cargo feature). The WAL remains
    /// the durable source of truth — the arrays are for paging tables
    /// larger than RAM, and are rebuilt on recovery.
    pub file_arrays: bool,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            sync: SyncPolicy::Flush,
            segment_limit: 4 << 20,
            checkpoint_every: None,
            auto_commit: true,
            file_arrays: false,
        }
    }
}

/// What recovery found when the table was opened.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryInfo {
    /// Records restored from the latest snapshot.
    pub snapshot_records: usize,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: usize,
    /// Whether the final segment ended in a torn record (expected after a
    /// mid-write crash; the torn tail was truncated away).
    pub torn_tail: bool,
}

fn encode_superblock(spec: &TableSpec) -> Vec<u8> {
    let body = spec.encode();
    let mut out = Vec::with_capacity(16 + body.len());
    out.extend_from_slice(SUPERBLOCK_MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

fn read_superblock(dir: &Path) -> Result<TableSpec> {
    let path = dir.join(SUPERBLOCK_FILE);
    let bytes = std::fs::read(&path).map_err(|e| io_err("read", &path, &e))?;
    let name = path.display();
    if bytes.len() < 16 || &bytes[..8] != SUPERBLOCK_MAGIC {
        return Err(corrupt(format!("{name}: bad table superblock magic")));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(dur_err(
            DurabilityErrorKind::FormatVersion,
            format!("{name}: superblock version {version}, this build reads {FORMAT_VERSION}"),
        ));
    }
    let stored_crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if crc32(&bytes[16..]) != stored_crc {
        return Err(corrupt(format!("{name}: superblock checksum mismatch")));
    }
    TableSpec::decode(&bytes[16..])
}

fn replay_failed(e: &CaRamError, what: &str) -> CaRamError {
    dur_err(
        DurabilityErrorKind::ReplayFailed,
        format!("replaying {what}: {e}"),
    )
}

/// A crash-safe CA-RAM table (see the module docs for the protocol).
#[derive(Debug)]
pub struct DurableTable {
    dir: PathBuf,
    opts: DurableOptions,
    spec: TableSpec,
    table: CaRamTable,
    mirror: ReferenceModel,
    wal: WalWriter,
    /// Records logged over the table's lifetime (snapshot + tail).
    ops_logged: u64,
    ops_since_checkpoint: u64,
    /// Group commits that actually wrote frames.
    commits: u64,
    /// Whether any `insert_sorted` was logged since the last reconfigure.
    sorted_seen: bool,
    recovery: RecoveryInfo,
    /// First durability error seen on a path that could not surface it;
    /// every later fallible operation returns it. A poisoned table's
    /// durable state is uncertain — reopen to recover.
    poisoned: Option<CaRamError>,
}

impl DurableTable {
    /// Creates a fresh durable table in `dir` (created if missing). Fails
    /// if the directory already holds a table.
    ///
    /// # Errors
    ///
    /// [`CaRamError::BadConfig`] for an inconsistent spec, or any
    /// [`CaRamError::Durability`] error from the file system.
    pub fn create(dir: &Path, spec: &TableSpec, opts: DurableOptions) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, &e))?;
        let sb_path = dir.join(SUPERBLOCK_FILE);
        if sb_path.exists() {
            return Err(dur_err(
                DurabilityErrorKind::Io,
                format!("{} already holds a table", dir.display()),
            ));
        }
        let table = Self::build_table(dir, spec, &opts)?;
        // Write the superblock atomically and durably before the first
        // WAL segment exists, so every later open sees a complete root.
        replace_file(dir, SUPERBLOCK_FILE, &encode_superblock(spec))?;
        let wal = WalWriter::create(dir, 0, opts.segment_limit, opts.sync)?;
        let mirror = ReferenceModel::new(spec.config.layout.key_bits());
        Ok(Self {
            dir: dir.to_path_buf(),
            opts,
            spec: spec.clone(),
            table,
            mirror,
            wal,
            ops_logged: 0,
            ops_since_checkpoint: 0,
            commits: 0,
            sorted_seen: false,
            recovery: RecoveryInfo::default(),
            poisoned: None,
        })
    }

    /// Opens an existing durable table, running crash recovery: load the
    /// latest snapshot, replay the WAL tail (truncating a torn final
    /// record), and start a fresh segment.
    ///
    /// # Errors
    ///
    /// [`CaRamError::Durability`] with kind `Io` (missing/unreadable
    /// files), `Corrupt` (damage outside the final tail),
    /// `FormatVersion`, `GeometryMismatch`, or `ReplayFailed` (the log
    /// disagrees with the geometry). Never panics on damaged input.
    #[allow(clippy::too_many_lines)]
    pub fn open(dir: &Path, opts: DurableOptions) -> Result<Self> {
        let creation_spec = read_superblock(dir)?;

        // Latest snapshot, if any. The checkpoint protocol deletes old
        // segments only after the new snapshot is durable, so the newest
        // snapshot must be valid — a damaged one is bit-rot, not a crash.
        let snaps = snapshot::list_snapshots(dir)?;
        let snap = match snaps.last() {
            Some((_, path)) => Some(Snapshot::read(path)?),
            None => None,
        };
        let (spec, base_segment) = match &snap {
            Some(s) => (s.spec.clone(), s.next_segment),
            None => (creation_spec, 0),
        };

        let mut table = Self::build_table(dir, &spec, &opts)?;
        let mut mirror = ReferenceModel::new(spec.config.layout.key_bits());
        let mut sorted_seen = false;
        let mut recovery = RecoveryInfo::default();

        if let Some(s) = &snap {
            for rec in &s.records {
                table
                    .insert(*rec)
                    .map_err(|e| replay_failed(&e, "a snapshot record"))?;
                mirror.insert(*rec);
            }
            if s.full_scan || s.sorted_seen {
                // Physical placement was priority-significant before the
                // crash; only a full-reach max-care scan is equivalent.
                table.force_full_scan();
            }
            sorted_seen = s.sorted_seen;
            recovery.snapshot_records = s.records.len();
        }

        // Replay the WAL tail: segments at or past the snapshot horizon,
        // contiguous, in order. Only the final one may be torn.
        let segments: Vec<(u64, PathBuf)> = wal::list_segments(dir)?
            .into_iter()
            .filter(|(idx, _)| *idx >= base_segment)
            .collect();
        for pair in segments.windows(2) {
            if pair[1].0 != pair[0].0 + 1 {
                return Err(corrupt(format!(
                    "{}: wal segment {} is followed by {} — a segment is missing",
                    dir.display(),
                    pair[0].0,
                    pair[1].0
                )));
            }
        }
        let mut spec = spec;
        for (i, (idx, path)) in segments.iter().enumerate() {
            let is_final = i == segments.len() - 1;
            let read = wal::read_segment(path, *idx, is_final)?;
            if read.torn {
                // Truncate the torn tail so every retained byte is valid;
                // the writer below starts a fresh segment regardless.
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)
                    .and_then(|f| f.set_len(read.valid_len))
                    .map_err(|e| io_err("truncate torn tail of", path, &e))?;
                recovery.torn_tail = true;
            }
            for rec in read.records {
                match rec {
                    WalRecord::Insert(r) => {
                        table
                            .insert(r)
                            .map_err(|e| replay_failed(&e, "an insert"))?;
                        mirror.insert(r);
                    }
                    WalRecord::InsertSorted(r) => {
                        table
                            .insert_sorted(r)
                            .map_err(|e| replay_failed(&e, "a sorted insert"))?;
                        mirror.insert(r);
                        sorted_seen = true;
                    }
                    WalRecord::Delete(key) => {
                        table.delete(&key);
                        mirror.delete(&key);
                    }
                    WalRecord::Update { key, data } => {
                        let n = table.delete(&key);
                        mirror.delete(&key);
                        if n > 0 {
                            let r = Record::new(key, data);
                            table
                                .insert(r)
                                .map_err(|e| replay_failed(&e, "an update"))?;
                            mirror.insert(r);
                        }
                    }
                    WalRecord::Reconfigure(new_spec) => {
                        table = Self::build_table(dir, &new_spec, &opts)?;
                        mirror = ReferenceModel::new(new_spec.config.layout.key_bits());
                        sorted_seen = false;
                        spec = new_spec;
                    }
                }
                recovery.replayed_records += 1;
            }
        }

        let next_writer = segments.last().map_or(base_segment, |(idx, _)| idx + 1);
        let wal = WalWriter::create(dir, next_writer, opts.segment_limit, opts.sync)?;
        let ops_logged =
            snap.as_ref().map_or(0, |s| s.ops_logged) + recovery.replayed_records as u64;
        Ok(Self {
            dir: dir.to_path_buf(),
            opts,
            spec,
            table,
            mirror,
            wal,
            ops_logged,
            ops_since_checkpoint: recovery.replayed_records as u64,
            commits: 0,
            sorted_seen,
            recovery,
            poisoned: None,
        })
    }

    /// Opens the table in `dir` if one exists, creating it otherwise.
    ///
    /// # Errors
    ///
    /// As for [`Self::create`] and [`Self::open`].
    pub fn open_or_create(dir: &Path, spec: &TableSpec, opts: DurableOptions) -> Result<Self> {
        if dir.join(SUPERBLOCK_FILE).exists() {
            Self::open(dir, opts)
        } else {
            Self::create(dir, spec, opts)
        }
    }

    fn build_table(dir: &Path, spec: &TableSpec, opts: &DurableOptions) -> Result<CaRamTable> {
        if opts.file_arrays {
            // The arrays are a cache of the replayed state, not a source
            // of truth: rebuild them fresh so geometry changes (e.g. a
            // reconfigure) never collide with stale files.
            let arrays = dir.join(ARRAYS_DIR);
            if arrays.exists() {
                std::fs::remove_dir_all(&arrays)
                    .map_err(|e| io_err("clear arrays dir", &arrays, &e))?;
            }
            std::fs::create_dir_all(&arrays).map_err(|e| io_err("create dir", &arrays, &e))?;
            CaRamTable::with_storage_dir(spec.config.clone(), spec.index.build()?, &arrays)
        } else {
            spec.build()
        }
    }

    fn bail_if_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Appends to the WAL and, under auto-commit, commits.
    fn log(&mut self, rec: &WalRecord) -> Result<()> {
        self.wal.append(rec);
        self.ops_logged += 1;
        self.ops_since_checkpoint += 1;
        if self.opts.auto_commit {
            self.commit()
        } else {
            Ok(())
        }
    }

    /// Inserts a record, logging it on success.
    ///
    /// # Errors
    ///
    /// Any [`CaRamTable::insert`] error (nothing is logged for a refused
    /// insert), or a durability error from the commit.
    pub fn insert(&mut self, record: Record) -> Result<()> {
        self.bail_if_poisoned()?;
        CaRamTable::insert(&mut self.table, record).map(|_| ())?;
        self.mirror.insert(record);
        self.log(&WalRecord::Insert(record))
    }

    /// Inserts in sorted (priority) position, logging on success.
    ///
    /// # Errors
    ///
    /// As for [`Self::insert`].
    pub fn insert_sorted(&mut self, record: Record) -> Result<()> {
        self.bail_if_poisoned()?;
        CaRamTable::insert_sorted(&mut self.table, record).map(|_| ())?;
        self.mirror.insert(record);
        self.sorted_seen = true;
        self.log(&WalRecord::InsertSorted(record))
    }

    /// Deletes every record matching `key`, returning the count.
    ///
    /// # Errors
    ///
    /// A durability error from the commit (the in-memory delete has
    /// already happened; the table is poisoned in that case).
    pub fn delete(&mut self, key: &TernaryKey) -> Result<u32> {
        self.bail_if_poisoned()?;
        let n = CaRamTable::delete(&mut self.table, key);
        self.mirror.delete(key);
        self.log(&WalRecord::Delete(*key))?;
        Ok(n)
    }

    /// Deletes `key` and, when something was deleted, reinserts it with
    /// `data` (the oracle's update semantics). Returns the delete count.
    ///
    /// # Errors
    ///
    /// A reinsert or commit failure.
    pub fn update(&mut self, key: &TernaryKey, data: u64) -> Result<u32> {
        self.bail_if_poisoned()?;
        let n = CaRamTable::delete(&mut self.table, key);
        self.mirror.delete(key);
        if n > 0 {
            let r = Record::new(*key, data);
            if let Err(e) = CaRamTable::insert(&mut self.table, r) {
                // The delete half did happen; log exactly that so replay
                // reproduces the in-memory state, then surface the error.
                self.log(&WalRecord::Delete(*key))?;
                return Err(e);
            }
            self.mirror.insert(r);
        }
        self.log(&WalRecord::Update { key: *key, data })?;
        Ok(n)
    }

    /// Rebuilds the table empty under a new spec, logging the transition
    /// self-contained in the WAL.
    ///
    /// # Errors
    ///
    /// [`CaRamError::BadConfig`] for an inconsistent spec, or a
    /// durability error from the rebuild or commit.
    pub fn reconfigure(&mut self, spec: &TableSpec) -> Result<()> {
        self.bail_if_poisoned()?;
        let table = Self::build_table(&self.dir, spec, &self.opts)?;
        self.table = table;
        self.mirror = ReferenceModel::new(spec.config.layout.key_bits());
        self.sorted_seen = false;
        self.spec = spec.clone();
        self.log(&WalRecord::Reconfigure(spec.clone()))
    }

    /// Flushes the group-commit buffer (one write, one optional fsync for
    /// the whole batch) and runs a due auto-checkpoint.
    ///
    /// # Errors
    ///
    /// [`CaRamError::Durability`] on write/sync failure; the table is
    /// poisoned afterwards (durable state uncertain — reopen to recover).
    pub fn commit(&mut self) -> Result<()> {
        self.bail_if_poisoned()?;
        if self.wal.pending() > 0 {
            self.commits += 1;
        }
        if let Err(e) = self.wal.commit() {
            self.poisoned = Some(e.clone());
            return Err(e);
        }
        if let Some(every) = self.opts.checkpoint_every {
            if self.ops_since_checkpoint >= every {
                self.checkpoint()?;
            }
        }
        Ok(())
    }

    /// Takes a checkpoint: seal the WAL tail, write a snapshot of the
    /// logical record set atomically, and delete the segments and
    /// snapshots it supersedes.
    ///
    /// # Errors
    ///
    /// [`CaRamError::Durability`] on any step; the table is poisoned on
    /// commit/rotate failure.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.bail_if_poisoned()?;
        if let Err(e) = self.wal.commit().and_then(|()| self.wal.rotate()) {
            self.poisoned = Some(e.clone());
            return Err(e);
        }
        let next_segment = self.wal.segment_index();
        let snap = Snapshot {
            next_segment,
            ops_logged: self.ops_logged,
            full_scan: self.table.full_scan(),
            sorted_seen: self.sorted_seen,
            spec: self.spec.clone(),
            records: self.mirror.records().to_vec(),
        };
        snap.write(&self.dir)?;
        self.ops_since_checkpoint = 0;
        // Everything below the horizon is superseded; removal is garbage
        // collection, not correctness, so errors are ignored.
        for (idx, path) in wal::list_segments(&self.dir)? {
            if idx < next_segment {
                let _ = std::fs::remove_file(path);
            }
        }
        for (idx, path) in snapshot::list_snapshots(&self.dir)? {
            if idx < next_segment {
                let _ = std::fs::remove_file(path);
            }
        }
        if self.opts.file_arrays {
            self.table.flush_storage()?;
        }
        Ok(())
    }

    /// The wrapped table, read-only (searches go through here).
    #[must_use]
    pub fn table(&self) -> &CaRamTable {
        &self.table
    }

    /// The logical record set in insertion order (what a snapshot saves).
    #[must_use]
    pub fn records(&self) -> &[Record] {
        self.mirror.records()
    }

    /// The spec currently in force (tracks reconfigures).
    #[must_use]
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// The table's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records logged over the table's lifetime.
    #[must_use]
    pub fn ops_logged(&self) -> u64 {
        self.ops_logged
    }

    /// Group commits that wrote at least one frame.
    #[must_use]
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// What recovery found when this handle was opened.
    #[must_use]
    pub fn recovery(&self) -> RecoveryInfo {
        self.recovery
    }

    /// Index of the WAL segment currently written.
    #[must_use]
    pub fn wal_segment(&self) -> u64 {
        self.wal.segment_index()
    }

    /// Committed bytes in the current WAL segment (header included).
    #[must_use]
    pub fn wal_committed_bytes(&self) -> u64 {
        self.wal.committed_bytes()
    }
}

impl SearchEngine for DurableTable {
    fn name(&self) -> &'static str {
        "ca-ram/durable"
    }

    fn key_bits(&self) -> u32 {
        self.spec.config.layout.key_bits()
    }

    fn search(&self, key: &SearchKey) -> EngineOutcome {
        SearchEngine::search(&self.table, key)
    }

    fn insert(&mut self, record: Record) -> Result<()> {
        DurableTable::insert(self, record)
    }

    fn insert_sorted(&mut self, record: Record) -> Result<()> {
        DurableTable::insert_sorted(self, record)
    }

    // The trait cannot surface a commit failure here; the table is
    // poisoned instead and the error returns from the next fallible call.
    fn delete(&mut self, key: &TernaryKey) -> u32 {
        DurableTable::delete(self, key).unwrap_or(0)
    }

    fn occupancy(&self) -> EngineReport {
        SearchEngine::occupancy(&self.table)
    }

    fn search_batch_into(&self, keys: &[SearchKey], out: &mut Vec<EngineOutcome>) {
        SearchEngine::search_batch_into(&self.table, keys, out);
    }

    fn commit(&mut self) -> Result<()> {
        DurableTable::commit(self)
    }
}

/// A [`DurableTable`] in a unique temporary directory, removed on drop.
/// The workhorse of tests, fuzz cells, and benches.
#[derive(Debug)]
pub struct TempDurableTable {
    table: Option<DurableTable>,
    dir: PathBuf,
}

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh directory under the system temp dir, unique to this process
/// and call.
#[must_use]
pub fn unique_temp_dir(tag: &str) -> PathBuf {
    let n = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ca_ram_durable_{tag}_{}_{n}", std::process::id()))
}

impl TempDurableTable {
    /// Creates a fresh durable table in a unique temp directory.
    ///
    /// # Errors
    ///
    /// As for [`DurableTable::create`].
    pub fn create(tag: &str, spec: &TableSpec, opts: DurableOptions) -> Result<Self> {
        let dir = unique_temp_dir(tag);
        let table = DurableTable::create(&dir, spec, opts)?;
        Ok(Self {
            table: Some(table),
            dir,
        })
    }

    /// Drops the open handle (as a clean shutdown would) and reopens the
    /// same directory through crash recovery.
    ///
    /// # Errors
    ///
    /// As for [`DurableTable::open`].
    pub fn reopen(&mut self) -> Result<()> {
        let opts = self
            .table
            .as_ref()
            .map_or_else(DurableOptions::default, |t| t.opts.clone());
        self.table = None;
        self.table = Some(DurableTable::open(&self.dir, opts)?);
        Ok(())
    }

    /// The open table.
    ///
    /// # Panics
    ///
    /// Panics if a previous [`Self::reopen`] failed.
    #[must_use]
    pub fn get(&self) -> &DurableTable {
        self.table.as_ref().expect("durable table handle lost")
    }

    /// The open table, mutable.
    ///
    /// # Panics
    ///
    /// Panics if a previous [`Self::reopen`] failed.
    pub fn get_mut(&mut self) -> &mut DurableTable {
        self.table.as_mut().expect("durable table handle lost")
    }

    /// The backing directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for TempDurableTable {
    fn drop(&mut self) {
        self.table = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RecordLayout;
    use crate::probe::ProbePolicy;
    use crate::storage::IndexSpec;
    use crate::table::{Arrangement, OverflowPolicy, TableConfig};

    fn spec(key_bits: u32) -> TableSpec {
        TableSpec {
            config: TableConfig {
                rows_log2: 4,
                row_bits: 1024,
                layout: RecordLayout::new(key_bits, true, 32),
                arrangement: Arrangement::Horizontal(1),
                probe: ProbePolicy::Linear,
                overflow: OverflowPolicy::Probe {
                    max_steps: u32::MAX,
                },
            },
            index: IndexSpec::RangeSelect {
                low: key_bits - 4,
                count: 4,
            },
        }
    }

    fn rec(v: u128, data: u64) -> Record {
        Record::new(TernaryKey::binary(v, 32), data)
    }

    #[test]
    fn create_mutate_reopen_recovers() {
        let mut t = TempDurableTable::create("basic", &spec(32), DurableOptions::default())
            .expect("create");
        for i in 0..40u64 {
            t.get_mut()
                .insert(rec(u128::from(i) << 3, i))
                .expect("insert");
        }
        assert_eq!(
            t.get_mut()
                .delete(&TernaryKey::binary(8, 32))
                .expect("delete"),
            1
        );
        assert_eq!(
            t.get_mut()
                .update(&TernaryKey::binary(16, 32), 999)
                .expect("update"),
            1
        );
        let before: Vec<Record> = t.get().records().to_vec();
        t.reopen().expect("recover");
        assert_eq!(t.get().records(), &before[..]);
        assert_eq!(t.get().recovery().replayed_records, 42);
        assert!(!t.get().recovery().torn_tail);
        let hit = SearchEngine::search(t.get(), &SearchKey::new(16, 32));
        assert_eq!(hit.hit.map(|h| h.data), Some(999));
        assert_eq!(
            SearchEngine::search(t.get(), &SearchKey::new(8, 32)).hit,
            None
        );
    }

    #[test]
    fn checkpoint_bounds_replay_and_gcs_segments() {
        let mut t =
            TempDurableTable::create("ckpt", &spec(32), DurableOptions::default()).expect("create");
        for i in 0..20u64 {
            t.get_mut().insert(rec(u128::from(i), i)).expect("insert");
        }
        t.get_mut().checkpoint().expect("checkpoint");
        for i in 20..30u64 {
            t.get_mut().insert(rec(u128::from(i), i)).expect("insert");
        }
        let before: Vec<Record> = t.get().records().to_vec();
        t.reopen().expect("recover");
        assert_eq!(t.get().records(), &before[..]);
        let info = t.get().recovery();
        assert_eq!(info.snapshot_records, 20);
        assert_eq!(info.replayed_records, 10);
        // The pre-checkpoint segment was garbage collected.
        let segs = wal::list_segments(t.dir()).expect("list");
        assert!(
            segs.iter().all(|(idx, _)| *idx >= 1),
            "stale segment kept: {segs:?}"
        );
    }

    #[test]
    fn sorted_inserts_force_full_scan_on_recovery() {
        let mut t = TempDurableTable::create("sorted", &spec(32), DurableOptions::default())
            .expect("create");
        // Two prefixes of different length matching the same key: LPM must
        // still pick the longer one after recovery.
        let long = Record::new(TernaryKey::ternary(0xAB00, 0x00FF, 32), 1);
        let short = Record::new(TernaryKey::ternary(0xA000, 0x0FFF, 32), 2);
        t.get_mut().insert_sorted(short).expect("insert short");
        t.get_mut().insert_sorted(long).expect("insert long");
        // WAL-only recovery replays the sorted inserts operation for
        // operation, reproducing the priority placement exactly — the
        // first-match fast path survives.
        t.reopen().expect("recover");
        assert!(!t.get().table().full_scan());
        let hit = SearchEngine::search(t.get(), &SearchKey::new(0xAB12, 32));
        assert_eq!(hit.hit.map(|h| h.data), Some(1));
        // A snapshot stores logical records only, so a checkpoint forgets
        // the sorted placement: recovery must fall back to full-scan
        // max-care search to stay observably equivalent.
        t.get_mut().checkpoint().expect("checkpoint");
        t.reopen().expect("recover");
        assert!(t.get().table().full_scan());
        let hit = SearchEngine::search(t.get(), &SearchKey::new(0xAB12, 32));
        assert_eq!(hit.hit.map(|h| h.data), Some(1));
    }

    #[test]
    fn reconfigure_is_replayed_self_contained() {
        let mut t = TempDurableTable::create("reconf", &spec(32), DurableOptions::default())
            .expect("create");
        t.get_mut().insert(rec(1, 1)).expect("insert");
        let wide = spec(64);
        t.get_mut().reconfigure(&wide).expect("reconfigure");
        t.get_mut()
            .insert(Record::new(TernaryKey::binary(0xFEED, 64), 5))
            .expect("insert wide");
        t.reopen().expect("recover");
        assert_eq!(SearchEngine::key_bits(t.get()), 64);
        assert_eq!(t.get().spec().encode(), wide.encode());
        let hit = SearchEngine::search(t.get(), &SearchKey::new(0xFEED, 64));
        assert_eq!(hit.hit.map(|h| h.data), Some(5));
        assert_eq!(t.get().records().len(), 1);
    }

    #[test]
    fn group_commit_batches_frames() {
        let mut opts = DurableOptions::default();
        opts.auto_commit = false;
        let mut t = TempDurableTable::create("group", &spec(32), opts).expect("create");
        for i in 0..10u64 {
            t.get_mut().insert(rec(u128::from(i), i)).expect("insert");
        }
        assert_eq!(t.get().commits(), 0);
        SearchEngine::commit(t.get_mut()).expect("commit");
        assert_eq!(t.get().commits(), 1);
        let before: Vec<Record> = t.get().records().to_vec();
        t.reopen().expect("recover");
        assert_eq!(t.get().records(), &before[..]);
    }

    #[test]
    fn uncommitted_tail_is_lost_without_commit() {
        let mut opts = DurableOptions::default();
        opts.auto_commit = false;
        let mut t = TempDurableTable::create("uncommitted", &spec(32), opts).expect("create");
        t.get_mut().insert(rec(1, 1)).expect("insert");
        t.get_mut().commit().expect("commit");
        t.get_mut().insert(rec(2, 2)).expect("insert 2");
        // No commit: the second insert is buffered only. Recovery sees
        // exactly the committed prefix.
        t.reopen().expect("recover");
        assert_eq!(t.get().records(), &[rec(1, 1)]);
    }

    #[test]
    fn segment_rotation_survives_recovery() {
        let mut opts = DurableOptions::default();
        opts.segment_limit = 64; // rotate constantly
        let mut t = TempDurableTable::create("rotate", &spec(32), opts).expect("create");
        for i in 0..25u64 {
            t.get_mut().insert(rec(u128::from(i), i)).expect("insert");
        }
        assert!(t.get().wal_segment() > 1);
        let before: Vec<Record> = t.get().records().to_vec();
        t.reopen().expect("recover");
        assert_eq!(t.get().records(), &before[..]);
    }

    #[test]
    fn spec_index_build_matches_table() {
        // The spec's generator must place keys exactly like the live one.
        let s = spec(32);
        let g = s.index.build().expect("build");
        assert_eq!(g.index_bits(), 4);
        assert_eq!(g.index(0xF000_0000), 0xF);
    }

    #[cfg(feature = "storage")]
    #[test]
    fn file_arrays_rebuild_on_recovery() {
        let mut opts = DurableOptions::default();
        opts.file_arrays = true;
        let mut t = TempDurableTable::create("filearr", &spec(32), opts).expect("create");
        for i in 0..10u64 {
            t.get_mut()
                .insert(rec(u128::from(i) << 2, i))
                .expect("insert");
        }
        t.get_mut().checkpoint().expect("checkpoint flushes arrays");
        assert!(t.dir().join(ARRAYS_DIR).join("slice-0.arr").exists());
        let before: Vec<Record> = t.get().records().to_vec();
        t.reopen().expect("recover");
        assert_eq!(t.get().records(), &before[..]);
        let hit = SearchEngine::search(t.get(), &SearchKey::new(8, 32));
        assert_eq!(hit.hit.map(|h| h.data), Some(2));
    }
}
