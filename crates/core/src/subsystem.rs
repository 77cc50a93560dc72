//! The CA-RAM memory subsystem: multiple databases behind memory-mapped
//! request/result ports (Sec. 3.2, Fig. 5).
//!
//! "The CA-RAM slices in the subsystem can each serve a different database
//! ... request and result ports can be assigned a memory address, similar to
//! memory-mapped I/O ports, so that ordinary load and store instructions can
//! be used to access CA-RAM. ... each port address can be tied to a 'virtual
//! port' mapped to a specific database."
//!
//! [`CaRamSubsystem`] owns one [`CaRamTable`] per database, a configuration
//! store, and per-database request/result queues driven by the MMIO-style
//! [`CaRamSubsystem::store_request`] / [`CaRamSubsystem::load_result`] pair.
//! It also exposes the whole storage as addressable RAM
//! ([`CaRamSubsystem::ram_read`] / [`CaRamSubsystem::ram_write`]) — the "RAM
//! mode" used for database construction, scratch-pad space, and memory
//! tests.

use std::collections::VecDeque;

use crate::engine::{EngineOutcome, EngineReport, SearchEngine};
use crate::error::{CaRamError, Result};
use crate::key::SearchKey;
use crate::layout::Record;
use crate::stats::{AtomicSearchStats, SearchStats};
use crate::table::{CaRamTable, SearchOutcome};

/// Identifies a database (a slice group) within the subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatabaseId(usize);

impl DatabaseId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Base address of the virtual request/result ports.
pub const PORT_BASE: u64 = 0x8000_0000;
/// Address stride between consecutive databases' ports.
pub const PORT_STRIDE: u64 = 0x100;

/// A queued search result, as delivered through the result port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortResult {
    /// The search outcome.
    pub outcome: SearchOutcome,
}

/// Per-database activity counters — the observability hook the Sec. 3.2
/// class library's "power management policies" would act on (e.g. gating
/// idle slice groups).
///
/// Since the instrumentation-layer refactor this is the shared
/// [`SearchStats`] snapshot type: the subsystem maintains the counters in an
/// [`AtomicSearchStats`] cell per database and
/// [`CaRamSubsystem::counters`] returns a plain-value snapshot of it.
pub type ActivityCounters = SearchStats;

struct Database {
    name: String,
    table: CaRamTable,
    requests: VecDeque<SearchKey>,
    results: VecDeque<PortResult>,
    counters: AtomicSearchStats,
}

/// A multi-database CA-RAM memory subsystem.
pub struct CaRamSubsystem {
    databases: Vec<Database>,
}

impl core::fmt::Debug for CaRamSubsystem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let names: Vec<&str> = self.databases.iter().map(|d| d.name.as_str()).collect();
        f.debug_struct("CaRamSubsystem")
            .field("databases", &names)
            .finish()
    }
}

impl Default for CaRamSubsystem {
    fn default() -> Self {
        Self::new()
    }
}

impl CaRamSubsystem {
    /// Creates an empty subsystem.
    #[must_use]
    pub fn new() -> Self {
        Self {
            databases: Vec::new(),
        }
    }

    /// Registers a table as a named database; the name is the handle user
    /// code looks ports up by (the "configuration storage" of Fig. 5).
    pub fn add_database(&mut self, name: impl Into<String>, table: CaRamTable) -> DatabaseId {
        let id = DatabaseId(self.databases.len());
        self.databases.push(Database {
            name: name.into(),
            table,
            requests: VecDeque::new(),
            results: VecDeque::new(),
            counters: AtomicSearchStats::new(),
        });
        id
    }

    /// Number of registered databases.
    #[must_use]
    pub fn database_count(&self) -> usize {
        self.databases.len()
    }

    /// Looks a database up by name.
    #[must_use]
    pub fn database_by_name(&self, name: &str) -> Option<DatabaseId> {
        self.databases
            .iter()
            .position(|d| d.name == name)
            .map(DatabaseId)
    }

    fn db(&self, id: DatabaseId) -> &Database {
        &self.databases[id.0]
    }

    fn db_mut(&mut self, id: DatabaseId) -> &mut Database {
        &mut self.databases[id.0]
    }

    /// The table behind a database.
    #[must_use]
    pub fn table(&self, id: DatabaseId) -> &CaRamTable {
        &self.db(id).table
    }

    /// Mutable access to the table (inserts, deletes, RAM-mode writes).
    pub fn table_mut(&mut self, id: DatabaseId) -> &mut CaRamTable {
        &mut self.db_mut(id).table
    }

    /// Synchronous search on a database (bypassing the port queues but
    /// still counted in the activity counters).
    ///
    /// The counters are atomic, so searching takes `&self`: concurrent
    /// lookups against different (or the same) databases need no exclusive
    /// borrow.
    #[must_use]
    pub fn search(&self, id: DatabaseId, key: &SearchKey) -> SearchOutcome {
        let db = self.db(id);
        let outcome = db.table.search(key);
        db.counters
            .record(outcome.hit.is_some(), outcome.memory_accesses);
        outcome
    }

    /// A read-only search that bypasses the counters (for shared access).
    #[must_use]
    pub fn peek(&self, id: DatabaseId, key: &SearchKey) -> SearchOutcome {
        self.db(id).table.search(key)
    }

    /// A snapshot of the activity counters of a database.
    #[must_use]
    pub fn counters(&self, id: DatabaseId) -> ActivityCounters {
        self.db(id).counters.snapshot()
    }

    /// Resets a database's activity counters (e.g. per measurement epoch).
    pub fn reset_counters(&self, id: DatabaseId) {
        self.db(id).counters.reset();
    }

    /// Installs a telemetry sink on a database's table (see
    /// [`CaRamTable::set_telemetry_sink`]). The input controller
    /// additionally reports the request-queue depth to the sink at every
    /// [`CaRamSubsystem::pump`] — the Fig. 5 queue-occupancy series.
    pub fn set_telemetry_sink(
        &mut self,
        id: DatabaseId,
        sink: std::sync::Arc<dyn crate::telemetry::TelemetrySink>,
    ) {
        self.db_mut(id).table.set_telemetry_sink(sink);
    }

    /// Removes a database's telemetry sink.
    pub fn clear_telemetry_sink(&mut self, id: DatabaseId) {
        self.db_mut(id).table.clear_telemetry_sink();
    }

    /// Borrows one database as a [`SearchEngine`], so benches and tests can
    /// drive it through the unified interface. Searches through the adapter
    /// are counted in the database's activity counters exactly like
    /// [`CaRamSubsystem::search`].
    pub fn engine(&mut self, id: DatabaseId) -> DatabaseEngine<'_> {
        let db = &mut self.databases[id.0];
        DatabaseEngine {
            name: &db.name,
            table: &mut db.table,
            counters: &db.counters,
        }
    }

    // ---- memory-mapped port model ------------------------------------------

    /// The request-port address of a database ("virtual port").
    #[must_use]
    pub fn request_port(&self, id: DatabaseId) -> u64 {
        PORT_BASE + PORT_STRIDE * id.0 as u64
    }

    /// The result-port address of a database.
    #[must_use]
    pub fn result_port(&self, id: DatabaseId) -> u64 {
        self.request_port(id) + PORT_STRIDE / 2
    }

    fn decode_port(&self, address: u64) -> Result<(DatabaseId, bool)> {
        let off = address
            .checked_sub(PORT_BASE)
            .ok_or(CaRamError::AddressOutOfRange { address, words: 0 })?;
        let id = usize::try_from(off / PORT_STRIDE).expect("port space is small");
        let is_result = off % PORT_STRIDE >= PORT_STRIDE / 2;
        if id >= self.databases.len() {
            return Err(CaRamError::AddressOutOfRange { address, words: 0 });
        }
        Ok((DatabaseId(id), is_result))
    }

    /// "To submit a request, an application will issue a store instruction
    /// at the port address, passing the search key as the store data."
    ///
    /// # Errors
    ///
    /// Returns [`CaRamError::AddressOutOfRange`] for an unmapped port
    /// address or [`CaRamError::BadConfig`] when storing to a result port.
    pub fn store_request(&mut self, port_address: u64, key: SearchKey) -> Result<()> {
        let (id, is_result) = self.decode_port(port_address)?;
        if is_result {
            return Err(CaRamError::BadConfig(
                "stores target the request port, not the result port".into(),
            ));
        }
        self.db_mut(id).requests.push_back(key);
        Ok(())
    }

    /// Drains request queues, executing each lookup and enqueueing its
    /// result — the input controller's job. Returns the number of lookups
    /// performed. Each database's pending requests are executed as one
    /// batch, so the home-bucket scratch buffer is reused across the whole
    /// queue.
    pub fn pump(&mut self) -> usize {
        let mut done = 0;
        let mut keys: Vec<SearchKey> = Vec::new();
        for db in &mut self.databases {
            if let Some(sink) = db.table.telemetry_sink() {
                sink.queue_depth(db.requests.len() as u64);
            }
            keys.clear();
            keys.extend(db.requests.drain(..));
            let mut batch = SearchStats::new();
            db.table.search_batch_into(&keys, |outcome| {
                batch.record(outcome.hit.is_some(), outcome.memory_accesses);
                db.results.push_back(PortResult { outcome });
            });
            db.counters.merge(&batch);
            done += keys.len();
        }
        done
    }

    /// Loads the next result from a result port (`None` when the queue is
    /// empty, i.e. the load would stall).
    ///
    /// # Errors
    ///
    /// Returns [`CaRamError::AddressOutOfRange`] for an unmapped address or
    /// [`CaRamError::BadConfig`] when loading from a request port.
    pub fn load_result(&mut self, port_address: u64) -> Result<Option<PortResult>> {
        let (id, is_result) = self.decode_port(port_address)?;
        if !is_result {
            return Err(CaRamError::BadConfig(
                "loads target the result port, not the request port".into(),
            ));
        }
        Ok(self.db_mut(id).results.pop_front())
    }

    // ---- RAM mode -----------------------------------------------------------

    /// Addressable words of a database's storage (RAM mode).
    #[must_use]
    pub fn ram_words(&self, id: DatabaseId) -> u64 {
        self.db(id)
            .table
            .slices()
            .iter()
            .map(|s| s.array().total_words())
            .sum()
    }

    fn locate(&self, id: DatabaseId, address: u64) -> Result<(usize, u64)> {
        let mut remaining = address;
        for (i, s) in self.db(id).table.slices().iter().enumerate() {
            let words = s.array().total_words();
            if remaining < words {
                return Ok((i, remaining));
            }
            remaining -= words;
        }
        Err(CaRamError::AddressOutOfRange {
            address,
            words: self.ram_words(id),
        })
    }

    /// RAM-mode word read across a database's slices (slice-major order).
    ///
    /// # Errors
    ///
    /// Returns [`CaRamError::AddressOutOfRange`] past the end of storage.
    pub fn ram_read(&self, id: DatabaseId, address: u64) -> Result<u64> {
        let (slice, word) = self.locate(id, address)?;
        self.db(id).table.slices()[slice].array().read_word(word)
    }

    /// RAM-mode word write. Writing does not update auxiliary metadata —
    /// see [`crate::slice::CaRamSlice::array_mut`].
    ///
    /// # Errors
    ///
    /// Returns [`CaRamError::AddressOutOfRange`] past the end of storage.
    pub fn ram_write(&mut self, id: DatabaseId, address: u64, value: u64) -> Result<()> {
        let (slice, word) = self.locate(id, address)?;
        self.db_mut(id).table.slices_mut()[slice]
            .array_mut()
            .write_word(word, value)
    }
}

/// One subsystem database viewed as a [`SearchEngine`].
///
/// Produced by [`CaRamSubsystem::engine`]; borrows the database's table
/// mutably (for inserts and deletes) and its activity counters shared, so
/// every search through the adapter — per key or batched — is
/// recorded exactly as a direct [`CaRamSubsystem::search`] would be.
pub struct DatabaseEngine<'a> {
    name: &'a str,
    table: &'a mut CaRamTable,
    counters: &'a AtomicSearchStats,
}

impl SearchEngine for DatabaseEngine<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn key_bits(&self) -> u32 {
        self.table.layout().key_bits()
    }

    fn search(&self, key: &SearchKey) -> EngineOutcome {
        let outcome = self.table.search(key);
        self.counters
            .record(outcome.hit.is_some(), outcome.memory_accesses);
        outcome.into()
    }

    fn insert(&mut self, record: Record) -> Result<()> {
        self.table.insert(record).map(|_| ())
    }

    fn insert_sorted(&mut self, record: Record) -> Result<()> {
        self.table.insert_sorted(record).map(|_| ())
    }

    // Deletion funnels into `CaRamTable::delete`, which flips the table's
    // `full_scan` degradation flag when it removes a record; every
    // subsystem search entry point — `search`/`peek`, `pump`, and this
    // adapter's `search` and `search_batch_into` (behind every batch
    // method) — reads that flag inside the table's one probe walk, so
    // post-delete LPM lookups never shortcut the bucket scan regardless of
    // which port they arrive on.
    fn delete(&mut self, key: &crate::key::TernaryKey) -> u32 {
        self.table.delete(key)
    }

    fn occupancy(&self) -> EngineReport {
        SearchEngine::occupancy(&*self.table)
    }

    /// The table's pipelined batch, counted once per search: every batch
    /// method of the trait lands here.
    fn search_batch_into(&self, keys: &[SearchKey], out: &mut Vec<EngineOutcome>) {
        SearchEngine::search_batch_into(&*self.table, keys, out);
        let mut batch = SearchStats::new();
        for o in out.iter() {
            batch.record(o.hit.is_some(), o.memory_accesses);
        }
        self.counters.merge(&batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::RangeSelect;
    use crate::key::TernaryKey;
    use crate::layout::{Record, RecordLayout};
    use crate::table::TableConfig;

    fn table() -> CaRamTable {
        let layout = RecordLayout::new(16, false, 8);
        CaRamTable::new(
            TableConfig::single_slice(3, 96, layout),
            Box::new(RangeSelect::new(0, 3)),
        )
        .unwrap()
    }

    fn subsystem() -> (CaRamSubsystem, DatabaseId, DatabaseId) {
        let mut sub = CaRamSubsystem::new();
        let a = sub.add_database("routing", table());
        let b = sub.add_database("trigrams", table());
        (sub, a, b)
    }

    #[test]
    fn databases_are_isolated() {
        let (mut sub, a, b) = subsystem();
        sub.table_mut(a)
            .insert(Record::new(TernaryKey::binary(0x11, 16), 1))
            .unwrap();
        assert!(sub.search(a, &SearchKey::new(0x11, 16)).hit.is_some());
        assert!(sub.search(b, &SearchKey::new(0x11, 16)).hit.is_none());
        assert_eq!(sub.database_by_name("trigrams"), Some(b));
        assert_eq!(sub.database_by_name("nope"), None);
        assert_eq!(sub.database_count(), 2);
    }

    #[test]
    fn mmio_request_response_round_trip() {
        let (mut sub, a, _) = subsystem();
        sub.table_mut(a)
            .insert(Record::new(TernaryKey::binary(0x42, 16), 9))
            .unwrap();
        let req = sub.request_port(a);
        let res = sub.result_port(a);
        sub.store_request(req, SearchKey::new(0x42, 16)).unwrap();
        sub.store_request(req, SearchKey::new(0x43, 16)).unwrap();
        // Nothing until the controller pumps.
        assert_eq!(sub.load_result(res).unwrap(), None);
        assert_eq!(sub.pump(), 2);
        let first = sub.load_result(res).unwrap().unwrap();
        assert_eq!(first.outcome.hit.unwrap().record.data, 9);
        let second = sub.load_result(res).unwrap().unwrap();
        assert!(second.outcome.hit.is_none());
        assert_eq!(sub.load_result(res).unwrap(), None);
    }

    #[test]
    fn port_misuse_is_rejected() {
        let (mut sub, a, _) = subsystem();
        let req = sub.request_port(a);
        let res = sub.result_port(a);
        assert!(matches!(
            sub.store_request(res, SearchKey::new(0, 16)),
            Err(CaRamError::BadConfig(_))
        ));
        assert!(matches!(
            sub.load_result(req),
            Err(CaRamError::BadConfig(_))
        ));
        assert!(sub.store_request(0x10, SearchKey::new(0, 16)).is_err());
        assert!(sub
            .store_request(PORT_BASE + 5 * PORT_STRIDE, SearchKey::new(0, 16))
            .is_err());
    }

    #[test]
    fn activity_counters_track_searches_and_amal() {
        let (mut sub, a, b) = subsystem();
        sub.table_mut(a)
            .insert(Record::new(TernaryKey::binary(0x21, 16), 1))
            .unwrap();
        // Two direct hits, one miss on database a; nothing on b.
        assert!(sub.search(a, &SearchKey::new(0x21, 16)).hit.is_some());
        assert!(sub.search(a, &SearchKey::new(0x21, 16)).hit.is_some());
        assert!(sub.search(a, &SearchKey::new(0x22, 16)).hit.is_none());
        let c = sub.counters(a);
        assert_eq!(c.searches, 3);
        assert_eq!(c.hits, 2);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.measured_amal() - 1.0).abs() < 1e-12);
        assert_eq!(sub.counters(b), ActivityCounters::default());
        // Port traffic counts too.
        sub.store_request(sub.request_port(a), SearchKey::new(0x21, 16))
            .unwrap();
        sub.pump();
        assert_eq!(sub.counters(a).searches, 4);
        // Peek does not count; reset clears.
        let _ = sub.peek(a, &SearchKey::new(0x21, 16));
        assert_eq!(sub.counters(a).searches, 4);
        sub.reset_counters(a);
        assert_eq!(sub.counters(a), ActivityCounters::default());
    }

    #[test]
    fn adapter_batches_count_each_search_once() {
        type Batch = fn(&dyn SearchEngine, &[SearchKey]) -> Vec<EngineOutcome>;
        let (mut sub, a, _) = subsystem();
        for i in 0..8u64 {
            sub.table_mut(a)
                .insert(Record::new(TernaryKey::binary(u128::from(i) << 3, 16), i))
                .unwrap();
        }
        let keys: Vec<SearchKey> = (0..16u128).map(|i| SearchKey::new(i << 2, 16)).collect();
        let paths: [(&str, Batch); 2] = [
            ("search_batch_into", |e, k| {
                let mut out = vec![EngineOutcome::miss(0)];
                e.search_batch_into(k, &mut out);
                out
            }),
            ("search_batch", |e, k| e.search_batch(k)),
        ];
        for (path, run) in paths {
            sub.reset_counters(a);
            let outcomes = run(&sub.engine(a), &keys);
            let mut expected = SearchStats::new();
            for o in &outcomes {
                expected.record(o.hit.is_some(), o.memory_accesses);
            }
            assert_eq!(expected.searches, keys.len() as u64, "{path}");
            assert_eq!(expected.hits, 8, "{path}");
            assert_eq!(sub.counters(a), expected, "{path}");
        }
    }

    #[test]
    fn ram_mode_spans_slices_and_bounds_checked() {
        let (mut sub, a, _) = subsystem();
        let words = sub.ram_words(a);
        assert_eq!(words, 8 * 2); // 8 rows x 96 bits -> 2 words/row
        sub.ram_write(a, 0, 0xDEAD).unwrap();
        sub.ram_write(a, words - 1, 0xBEEF).unwrap();
        assert_eq!(sub.ram_read(a, 0).unwrap(), 0xDEAD);
        assert_eq!(sub.ram_read(a, words - 1).unwrap(), 0xBEEF);
        assert!(sub.ram_read(a, words).is_err());
        assert!(sub.ram_write(a, words, 0).is_err());
    }

    #[test]
    fn ram_mode_memory_test_pattern() {
        // Sec. 3.2: "various hardware- and software-based memory tests will
        // be performed on CA-RAM using this RAM mode" — a walking-ones test.
        let (mut sub, a, _) = subsystem();
        let words = sub.ram_words(a);
        for addr in 0..words {
            sub.ram_write(a, addr, 1u64 << (addr % 64)).unwrap();
        }
        for addr in 0..words {
            assert_eq!(sub.ram_read(a, addr).unwrap(), 1u64 << (addr % 64));
        }
    }
}
