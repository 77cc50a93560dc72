//! The whole service re-packaged as a [`SearchEngine`], so the conformance
//! suite and the differential fuzzer can drive the full concurrent path —
//! router, bounded queue, worker thread, batcher — through the ordinary
//! trait surface and compare it against the oracle `ReferenceModel`.

use ca_ram_core::engine::{EngineOutcome, EngineReport, SearchEngine};
use ca_ram_core::error::Result;
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::Record;

use crate::config::ServiceConfig;
use crate::request::{AdmissionError, ServiceReply};
use crate::service::SearchService;

/// A [`SearchService`] behind the [`SearchEngine`] trait.
///
/// Every trait call is a synchronous round trip through the real serving
/// path (admission → queue → worker → engine → completion), so trait-driven
/// tests exercise the same machinery concurrent clients do. Per-shard FIFO
/// ordering makes the sequential trait semantics exact.
///
/// Multi-shard instances are only routing-consistent for exact-match
/// workloads; [`ServiceEngine::single_shard`] is the configuration the
/// fuzzer and conformance suites use, valid for ternary/LPM traffic too.
pub struct ServiceEngine {
    service: SearchService,
    label: String,
}

impl ServiceEngine {
    /// Wraps `engines` in a service with `config` and serves them.
    ///
    /// # Errors
    ///
    /// As [`SearchService::new`].
    pub fn new(config: ServiceConfig, engines: Vec<Box<dyn SearchEngine>>) -> Result<Self> {
        let label = format!("service[{}]x{}", engines[0].name(), engines.len());
        let service = SearchService::new(config, engines)?;
        Ok(Self { service, label })
    }

    /// One shard, no deadline: the deterministic configuration differential
    /// fuzzing drives.
    ///
    /// # Errors
    ///
    /// As [`SearchService::new`].
    pub fn single_shard(engine: Box<dyn SearchEngine>) -> Result<Self> {
        Self::new(ServiceConfig::single_shard(), vec![engine])
    }

    /// The service under the adapter, e.g. for snapshots.
    #[must_use]
    pub fn service(&self) -> &SearchService {
        &self.service
    }
}

impl SearchEngine for ServiceEngine {
    fn name(&self) -> &str {
        &self.label
    }

    fn key_bits(&self) -> u32 {
        self.service.key_bits()
    }

    fn search(&self, key: &SearchKey) -> EngineOutcome {
        self.service.search_sync(key)
    }

    fn insert(&mut self, record: Record) -> Result<()> {
        self.service.insert_sync(record)
    }

    fn insert_sorted(&mut self, record: Record) -> Result<()> {
        self.service.insert_sorted_sync(record)
    }

    fn delete(&mut self, key: &TernaryKey) -> u32 {
        self.service.delete_sync(key)
    }

    fn occupancy(&self) -> EngineReport {
        self.service.occupancy()
    }

    fn search_batch_into(&self, keys: &[SearchKey], out: &mut Vec<EngineOutcome>) {
        // Drive the real batched path: one submission, one ring entry per
        // involved shard, one completion. No deadline — like the sync
        // surface, the trait contract is every key gets a real answer.
        let completion = loop {
            match self.service.try_submit_batch_with_deadline(keys, None) {
                Ok(ticket) => break ticket.wait(),
                Err(AdmissionError::QueueFull { .. }) => std::thread::yield_now(),
                Err(AdmissionError::ShuttingDown) => panic!("service shutting down"),
            }
        };
        out.clear();
        out.extend(completion.replies.into_iter().map(|reply| match reply {
            ServiceReply::Search(outcome) => outcome,
            other => panic!("batch search answered with {other:?}"),
        }));
    }
}

impl std::fmt::Debug for ServiceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceEngine")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}
