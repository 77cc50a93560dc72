//! # ca-ram-core
//!
//! A bit-accurate functional simulator of **CA-RAM** (Content Addressable
//! Random Access Memory), the search-acceleration memory substrate of
//! Cho, Martin, Xu, Hammoud & Melhem, *ISPASS 2007*.
//!
//! CA-RAM is hashing in hardware: a dense RAM array whose rows are hash
//! buckets, an *index generator* that maps a search key to a row, and a bank
//! of *match processors* that compare every candidate key in the fetched row
//! against the search key in parallel. One memory access plus one parallel
//! match resolves most lookups, at RAM (not CAM) area and power.
//!
//! ## Layering
//!
//! * [`bits`], [`key`], [`layout`] — bit-packing, ternary keys, record slots;
//! * [`mod@array`], [`matchproc`], [`mod@slice`] — one physical slice (Fig. 3);
//! * [`index`], [`probe`] — hash functions and overflow probing;
//! * [`table`] — a logical search table over arranged slices (insert /
//!   search / delete, the three CAM-mode operations, plus sorted online
//!   updates);
//! * [`bulk`] — massive data evaluation and modification over the whole
//!   array (the decoupled-match-logic extension of Sec. 3.1);
//! * [`subsystem`], [`controller`] — multi-database subsystem with
//!   memory-mapped ports and a cycle-level queue model (Fig. 5);
//! * [`stats`] — load factor, overflow, and AMAL metrics (Tables 2–3);
//! * [`telemetry`] — stage-level tracing, lock-free histograms, and
//!   exportable per-slice / per-database / per-engine metrics;
//! * [`oracle`] — model-based differential testing: a naive reference
//!   model, a seeded adversarial op-stream generator, and a lockstep
//!   replay harness with minimized divergence repros;
//! * [`pattern`] — the pattern compiler: high-level match patterns
//!   (exact / prefix / range / masked multi-field / nearest-match)
//!   lowered onto concrete table configurations, entries, and
//!   multi-probe query plans;
//! * [`storage`] — durability: pluggable heap/mmap storage backends
//!   under the bit-packed array, a CRC-framed write-ahead log with
//!   group commit and checkpointing, and crash recovery verified by
//!   cutting the log at every byte and diffing against the oracle.
//!
//! ## Example
//!
//! ```
//! use ca_ram_core::index::RangeSelect;
//! use ca_ram_core::key::{SearchKey, TernaryKey};
//! use ca_ram_core::layout::{Record, RecordLayout};
//! use ca_ram_core::table::{CaRamTable, TableConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 16 buckets of four 16-bit keys + 8-bit data each.
//! let layout = RecordLayout::new(16, false, 8);
//! let config = TableConfig::single_slice(4, 4 * layout.slot_bits(), layout);
//! let mut table = CaRamTable::new(config, Box::new(RangeSelect::new(0, 4)))?;
//!
//! table.insert(Record::new(TernaryKey::binary(0xBEEF, 16), 42))?;
//! let outcome = table.search(&SearchKey::new(0xBEEF, 16));
//! assert_eq!(outcome.hit.map(|h| h.record.data), Some(42));
//! assert_eq!(outcome.memory_accesses, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions)]

pub mod alloc;
pub mod array;
pub mod bits;
pub mod bulk;
pub mod config_regs;
pub mod controller;
pub mod engine;
pub mod error;
pub mod index;
pub mod kernel;
pub mod key;
pub mod layout;
pub mod matchproc;
pub mod memtest;
pub mod oracle;
pub mod pattern;
pub mod probe;
pub mod slice;
pub mod stats;
pub mod storage;
pub mod subsystem;
pub mod table;
pub mod telemetry;

pub use alloc::{AllocationId, SlicePool, SliceRoles};
pub use bulk::BulkReceipt;
pub use config_regs::{ControlRegister, ReconfigurableSlice};
pub use controller::{
    simulate, simulate_latency, simulate_with_sink, LatencyReport, QueueModelConfig,
    ThroughputReport,
};
pub use engine::{EngineHit, EngineOutcome, EngineReport, SearchEngine};
pub use error::{CaRamError, Result};
pub use index::{BitSelect, DjbHash, IndexGenerator, RangeSelect, XorFold};
pub use kernel::Kernel;
pub use key::{SearchKey, TernaryKey, MAX_KEY_BITS};
pub use layout::{Record, RecordLayout};
pub use memtest::{MemTestReport, MemoryFault, RamAccess};
pub use oracle::{DivergenceReport, EngineCase, Op, OpStreamGen, ReferenceModel};
pub use pattern::{
    compile, CompiledPlan, FieldPattern, FieldSpec, GeometryHint, IndexChoice, MatchMode, Pattern,
    PatternError, PatternSpec, QueryPlan,
};
pub use probe::ProbePolicy;
pub use slice::CaRamSlice;
pub use stats::{AtomicSearchStats, LoadReport, OccupancyHistogram, PlacementStats, SearchStats};
pub use subsystem::{ActivityCounters, CaRamSubsystem, DatabaseEngine, DatabaseId};
pub use table::{
    Arrangement, CaRamTable, Hit, InsertOutcome, OverflowPolicy, Placement, SearchOutcome,
    TableConfig,
};
pub use telemetry::{
    AtomicHistogram, Histogram, HistogramSink, MetricsRegistry, NullSink, ProbeSummary, ScopeKind,
    ScopeMetrics, Stage, TelemetrySink, TelemetrySnapshot, TraceBuffer, TraceEvent,
};
