//! The sharded serving frontend: router, worker pool, admission control,
//! synchronous convenience surface, and telemetry export.

use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use ca_ram_core::engine::{EngineOutcome, EngineReport, SearchEngine};
use ca_ram_core::error::{CaRamError, Result};
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::Record;
use ca_ram_core::telemetry::{
    Histogram, MetricsRegistry, RequestTrace, ScopeKind, SloPolicy, SloReport, SloTracker,
};

use crate::config::ServiceConfig;
use crate::request::{
    AdmissionError, BatchSlot, BatchTicket, PendingRequest, PendingSubBatch, RingEntry, ServiceOp,
    ServiceReply, Slot, Ticket,
};
use crate::shard::Shard;
use crate::trace::{FlightEventKind, LadderRung, LadderTransition};

/// Schema identifier stamped into every flight-recorder dump.
pub const FLIGHT_SCHEMA: &str = "ca-ram-flight/v1";

/// Counter snapshot of one shard: admission, shedding-ladder, and
/// batching counters, all monotone since service start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct ShardSnapshot {
    pub accepted: u64,
    pub rejected: u64,
    pub shed_deadline: u64,
    pub shed_shutdown: u64,
    pub coalesced: u64,
    pub telemetry_shed: u64,
    pub batches: u64,
    pub max_batch: u64,
    pub searches: u64,
    pub inserts: u64,
    pub deletes: u64,
    pub batch_entries: u64,
    pub batch_keys: u64,
    pub parks: u64,
    pub unparks: u64,
}

impl ShardSnapshot {
    fn accumulate(&mut self, other: &ShardSnapshot) {
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.shed_deadline += other.shed_deadline;
        self.shed_shutdown += other.shed_shutdown;
        self.coalesced += other.coalesced;
        self.telemetry_shed += other.telemetry_shed;
        self.batches += other.batches;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.searches += other.searches;
        self.inserts += other.inserts;
        self.deletes += other.deletes;
        self.batch_entries += other.batch_entries;
        self.batch_keys += other.batch_keys;
        self.parks += other.parks;
        self.unparks += other.unparks;
    }
}

/// Point-in-time counters for a whole service.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceSnapshot {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
}

impl ServiceSnapshot {
    /// Counters summed across shards (`max_batch` is the max).
    #[must_use]
    pub fn totals(&self) -> ShardSnapshot {
        let mut total = ShardSnapshot::default();
        for shard in &self.shards {
            total.accumulate(shard);
        }
        total
    }
}

/// A sharded, concurrent serving frontend over a fleet of engines.
///
/// Keys hash to one of N shards; each shard owns its engine exclusively
/// behind a bounded request queue drained by one worker thread, so the
/// per-shard operation order is the admission order. Multi-shard routing
/// hashes the key *value*, which is consistent for exact-match workloads;
/// ternary records whose masked search keys differ in value can route to a
/// different shard than their stored pattern, so ternary/LPM fleets should
/// use a single shard (see [`ServiceConfig::single_shard`]).
pub struct SearchService {
    shards: Vec<Arc<Shard>>,
    workers: Vec<JoinHandle<()>>,
    config: ServiceConfig,
    key_bits: u32,
    /// The SLO watchdog's window state, ticked by [`SearchService::slo_tick`].
    slo: Mutex<SloTracker>,
}

/// Locks a mutex, riding through a poisoned lock (the protected state is
/// counters/windows, always internally consistent).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SearchService {
    /// Builds a service over `engines`, one shard per engine, and starts one
    /// worker thread per shard.
    ///
    /// # Errors
    ///
    /// Returns [`CaRamError::BadConfig`] if the configuration fails
    /// [`ServiceConfig::validate`], the engine count does not match
    /// `config.shards`, or the engines disagree on key width.
    pub fn new(config: ServiceConfig, engines: Vec<Box<dyn SearchEngine>>) -> Result<Self> {
        config.validate()?;
        if engines.len() != config.shards {
            return Err(CaRamError::BadConfig(format!(
                "{} shards configured but {} engines supplied",
                config.shards,
                engines.len()
            )));
        }
        let key_bits = engines[0].key_bits();
        if let Some(other) = engines.iter().find(|e| e.key_bits() != key_bits) {
            return Err(CaRamError::BadConfig(format!(
                "shard engines disagree on key width: {} vs {} bits",
                key_bits,
                other.key_bits()
            )));
        }
        let shards: Vec<Arc<Shard>> = engines
            .into_iter()
            .enumerate()
            .map(|(index, engine)| Arc::new(Shard::new(index, engine, &config)))
            .collect();
        let workers = shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let shard = Arc::clone(shard);
                std::thread::Builder::new()
                    .name(format!("ca-ram-shard-{index}"))
                    .spawn(move || shard.worker_loop())
                    .map_err(|e| CaRamError::BadConfig(format!("cannot spawn worker: {e}")))
            })
            .collect::<Result<Vec<_>>>()?;
        let slo = Mutex::new(SloTracker::new(SloPolicy {
            target_us: config.slo_target_us,
            error_budget: config.slo_error_budget,
        }));
        Ok(Self {
            shards,
            workers,
            config,
            key_bits,
            slo,
        })
    }

    /// The configuration this service runs under.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Key width served, in bits.
    #[must_use]
    pub fn key_bits(&self) -> u32 {
        self.key_bits
    }

    /// The shard a key value routes to (`SplitMix64` finalizer over the folded
    /// value, reduced mod the shard count).
    #[must_use]
    pub fn shard_of_value(&self, value: u128) -> usize {
        route_shard(value, self.shards.len())
    }

    /// Non-blocking admission: enqueue on the routed shard or refuse.
    /// The configured default deadline applies.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QueueFull`] when the shard queue is at capacity
    /// (load shedding at the door), [`AdmissionError::ShuttingDown`] after
    /// shutdown began.
    pub fn try_submit(&self, op: ServiceOp) -> std::result::Result<Ticket, AdmissionError> {
        self.try_submit_with_deadline(op, self.default_deadline())
    }

    /// As [`SearchService::try_submit`] with an explicit absolute deadline
    /// (`None` = no deadline) overriding the configured default.
    ///
    /// # Errors
    ///
    /// As [`SearchService::try_submit`].
    pub fn try_submit_with_deadline(
        &self,
        op: ServiceOp,
        deadline: Option<Instant>,
    ) -> std::result::Result<Ticket, AdmissionError> {
        let shard = self.shard_of_value(op.route_value());
        if let Err(refusal) = self.admit(&[shard]) {
            self.note_refused(refusal, 1);
            return Err(refusal);
        }
        Ok(self.push_single(shard, op, deadline))
    }

    /// Blocking admission: backpressure on a full queue instead of refusing.
    /// The configured default deadline applies (and keeps ticking while
    /// blocked).
    ///
    /// # Errors
    ///
    /// [`AdmissionError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, op: ServiceOp) -> std::result::Result<Ticket, AdmissionError> {
        self.submit_with_deadline(op, self.default_deadline())
    }

    /// As [`SearchService::submit`] with an explicit absolute deadline.
    ///
    /// # Errors
    ///
    /// As [`SearchService::submit`].
    pub fn submit_with_deadline(
        &self,
        op: ServiceOp,
        deadline: Option<Instant>,
    ) -> std::result::Result<Ticket, AdmissionError> {
        let shard = self.shard_of_value(op.route_value());
        let mut backoff = 0u32;
        loop {
            match self.admit(&[shard]) {
                Ok(()) => return Ok(self.push_single(shard, op, deadline)),
                Err(AdmissionError::QueueFull { .. }) => {}
                Err(refusal) => return Err(refusal),
            }
            // No condvar to sleep on: poll with a yield-then-sleep backoff.
            // Backpressure is the closed-loop/test path, not the hot one.
            backoff = (backoff + 1).min(16);
            if backoff < 8 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
    }

    fn default_deadline(&self) -> Option<Instant> {
        self.config.default_deadline.map(|d| Instant::now() + d)
    }

    /// All-or-nothing admission on `shards` (distinct indices): enter
    /// every submit window, then reserve one ring entry on each, rolling
    /// everything back on the first refusal. On `Ok` the caller holds each
    /// shard's window and reservation and must hand each shard exactly one
    /// entry through [`Shard::push_reserved`], which releases the window.
    fn admit(&self, shards: &[usize]) -> std::result::Result<(), AdmissionError> {
        for (entered, &shard) in shards.iter().enumerate() {
            if !self.shards[shard].enter() {
                for &s in &shards[..entered] {
                    self.shards[s].exit();
                }
                return Err(AdmissionError::ShuttingDown);
            }
        }
        for (reserved, &shard) in shards.iter().enumerate() {
            if !self.shards[shard].try_reserve() {
                for &s in &shards[..reserved] {
                    self.shards[s].release();
                }
                for &s in shards {
                    self.shards[s].exit();
                }
                return Err(AdmissionError::QueueFull {
                    shard,
                    depth: self.shards[shard].depth(),
                });
            }
        }
        Ok(())
    }

    /// Counts a non-blocking refusal of `requests` requests against the
    /// shard that was full.
    fn note_refused(&self, refusal: AdmissionError, requests: u64) {
        if let AdmissionError::QueueFull { shard, .. } = refusal {
            self.shards[shard].note_rejected(requests);
        }
    }

    /// Queues one admitted request on `shard` and hands back its ticket.
    fn push_single(&self, shard: usize, op: ServiceOp, deadline: Option<Instant>) -> Ticket {
        let slot = Slot::new();
        self.shards[shard].push_reserved(RingEntry::Single(PendingRequest {
            op,
            enqueued: Instant::now(),
            deadline,
            slot: Arc::clone(&slot),
            trace: None,
        }));
        Ticket::new(slot)
    }

    /// Batched search admission: routes `keys` to their shards in one
    /// pass, enqueues one ring entry per involved shard (carrying that
    /// shard's sub-batch), and returns a single [`BatchTicket`] whose
    /// completion holds one reply per key in input order.
    ///
    /// Admission is all-or-nothing: either every sub-batch is queued or the
    /// whole batch is refused, so callers never see partial admission. The
    /// configured default deadline applies.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::QueueFull`] naming the first shard without room,
    /// [`AdmissionError::ShuttingDown`] after shutdown began.
    pub fn try_submit_batch(
        &self,
        keys: &[SearchKey],
    ) -> std::result::Result<BatchTicket, AdmissionError> {
        self.try_submit_batch_with_deadline(keys, self.default_deadline())
    }

    /// As [`SearchService::try_submit_batch`] with an explicit absolute
    /// deadline overriding the configured default.
    ///
    /// # Errors
    ///
    /// As [`SearchService::try_submit_batch`].
    ///
    /// # Panics
    ///
    /// Panics on batches longer than `u32::MAX` keys (reply positions are
    /// 32-bit).
    pub fn try_submit_batch_with_deadline(
        &self,
        keys: &[SearchKey],
        deadline: Option<Instant>,
    ) -> std::result::Result<BatchTicket, AdmissionError> {
        if keys.is_empty() {
            let slot = BatchSlot::new(0, 1);
            slot.finish_sub();
            return Ok(BatchTicket::new(slot));
        }
        // Route every key in one pass: per-shard key + position slices.
        let mut shards: Vec<usize> = Vec::new();
        let mut subs: Vec<(Vec<SearchKey>, Vec<u32>)> = Vec::new();
        let mut sub_of_shard = vec![usize::MAX; self.shards.len()];
        for (position, key) in keys.iter().enumerate() {
            let shard = self.shard_of_value(key.value());
            if sub_of_shard[shard] == usize::MAX {
                sub_of_shard[shard] = subs.len();
                shards.push(shard);
                subs.push((Vec::new(), Vec::new()));
            }
            let (sub_keys, positions) = &mut subs[sub_of_shard[shard]];
            sub_keys.push(*key);
            positions.push(u32::try_from(position).expect("batch fits u32"));
        }

        if let Err(refusal) = self.admit(&shards) {
            self.note_refused(refusal, keys.len() as u64);
            return Err(refusal);
        }
        let slot = BatchSlot::new(keys.len(), subs.len());
        for (shard, (sub_keys, positions)) in shards.into_iter().zip(subs) {
            self.shards[shard].push_reserved(RingEntry::Batch(PendingSubBatch {
                keys: sub_keys.into_boxed_slice(),
                positions: positions.into_boxed_slice(),
                deadline,
                slot: Arc::clone(&slot),
                trace: None,
            }));
        }
        Ok(BatchTicket::new(slot))
    }

    /// Synchronous search: submit (blocking admission), wait, unwrap.
    ///
    /// # Panics
    ///
    /// Panics if the service is shutting down or the request was shed by a
    /// configured deadline — the synchronous surface is meant for use
    /// without deadlines (tests, conformance, the oracle fuzzer).
    #[must_use]
    pub fn search_sync(&self, key: &SearchKey) -> EngineOutcome {
        match self.roundtrip(ServiceOp::Search(*key)) {
            ServiceReply::Search(outcome) => outcome,
            other => panic!("search answered with {other:?}"),
        }
    }

    /// Synchronous insert (append placement).
    ///
    /// # Errors
    ///
    /// The routed engine's verdict, e.g. capacity exhaustion.
    ///
    /// # Panics
    ///
    /// As [`SearchService::search_sync`].
    pub fn insert_sync(&self, record: Record) -> Result<()> {
        match self.roundtrip(ServiceOp::Insert(record)) {
            ServiceReply::Insert(verdict) => verdict,
            other => panic!("insert answered with {other:?}"),
        }
    }

    /// Synchronous priority-preserving insert.
    ///
    /// # Errors
    ///
    /// The routed engine's verdict.
    ///
    /// # Panics
    ///
    /// As [`SearchService::search_sync`].
    pub fn insert_sorted_sync(&self, record: Record) -> Result<()> {
        match self.roundtrip(ServiceOp::InsertSorted(record)) {
            ServiceReply::Insert(verdict) => verdict,
            other => panic!("insert_sorted answered with {other:?}"),
        }
    }

    /// Synchronous delete; returns stored copies removed.
    ///
    /// # Panics
    ///
    /// As [`SearchService::search_sync`].
    #[must_use]
    pub fn delete_sync(&self, key: &TernaryKey) -> u32 {
        match self.roundtrip(ServiceOp::Delete(*key)) {
            ServiceReply::Delete(removed) => removed,
            other => panic!("delete answered with {other:?}"),
        }
    }

    fn roundtrip(&self, op: ServiceOp) -> ServiceReply {
        let ticket = self
            .submit_with_deadline(op, None)
            .expect("service accepting requests");
        ticket.wait().reply
    }

    /// Occupancy summed across shards (records/capacity are `Some` only if
    /// every shard reports them).
    #[must_use]
    pub fn occupancy(&self) -> EngineReport {
        let mut records = Some(0u64);
        let mut capacity = Some(0u64);
        for shard in &self.shards {
            let report = shard.occupancy();
            records = records.zip(report.records).map(|(a, b)| a + b);
            capacity = capacity.zip(report.capacity).map(|(a, b)| a + b);
        }
        EngineReport { records, capacity }
    }

    /// Current counters, per shard.
    #[must_use]
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            shards: self
                .shards
                .iter()
                .map(|shard| {
                    let s = &shard.stats;
                    ShardSnapshot {
                        accepted: s.accepted.load(Ordering::Relaxed),
                        rejected: s.rejected.load(Ordering::Relaxed),
                        shed_deadline: s.shed_deadline.load(Ordering::Relaxed),
                        shed_shutdown: s.shed_shutdown.load(Ordering::Relaxed),
                        coalesced: s.coalesced.load(Ordering::Relaxed),
                        telemetry_shed: s.telemetry_shed.load(Ordering::Relaxed),
                        batches: s.batches.load(Ordering::Relaxed),
                        max_batch: s.max_batch.load(Ordering::Relaxed),
                        searches: s.searches.load(Ordering::Relaxed),
                        inserts: s.inserts.load(Ordering::Relaxed),
                        deletes: s.deletes.load(Ordering::Relaxed),
                        batch_entries: s.batch_entries.load(Ordering::Relaxed),
                        batch_keys: s.batch_keys.load(Ordering::Relaxed),
                        parks: s.parks.load(Ordering::Relaxed),
                        unparks: s.unparks.load(Ordering::Relaxed),
                    }
                })
                .collect(),
        }
    }

    // ---- observability v2: tracing, flight recorder, SLO watchdog -----

    /// Reconfigures request-lifecycle trace sampling on every shard at
    /// runtime: keep 1 in `period` admissions (rounded up to a power of
    /// two), 0 to disable tracing entirely. Requests already queued keep
    /// whatever sampling decision admission made.
    pub fn set_trace_period(&self, period: u64) {
        for shard in &self.shards {
            shard.tracer.set_period(period);
        }
    }

    /// The effective trace-sampling period (0 = tracing off).
    #[must_use]
    pub fn trace_period(&self) -> u64 {
        self.shards[0].tracer.period()
    }

    /// Every trace the per-shard tail-retention stores currently keep:
    /// anomalies (sheds, rejects), the rolling top-k slowest completions,
    /// and a bounded most-recent ring.
    #[must_use]
    pub fn retained_traces(&self) -> Vec<RequestTrace> {
        self.shards
            .iter()
            .flat_map(|shard| shard.tracer.retained())
            .collect()
    }

    /// Drains the degradation-ladder transitions recorded since the last
    /// call (or service start), across every shard.
    #[must_use]
    pub fn take_ladder_transitions(&self) -> Vec<LadderTransition> {
        self.shards
            .iter()
            .flat_map(|shard| shard.tracer.take_transitions())
            .collect()
    }

    /// The ladder rung each shard currently sits on.
    #[must_use]
    pub fn ladder_rungs(&self) -> Vec<LadderRung> {
        self.shards
            .iter()
            .map(|shard| shard.tracer.current_rung())
            .collect()
    }

    /// The request-weighted queue depth of each shard right now.
    #[must_use]
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|shard| shard.queued_depth())
            .collect()
    }

    /// The SLO policy the watchdog evaluates against.
    #[must_use]
    pub fn slo_policy(&self) -> SloPolicy {
        lock(&self.slo).policy()
    }

    /// Evaluates one SLO window: the completion-latency distribution and
    /// error count accumulated since the previous tick, turned into
    /// p50/p99, bad-event fraction, and error-budget burn rate. A
    /// breached window stamps an `slo_breach` event into every shard's
    /// flight ring, so on-demand dumps carry the anomaly context.
    pub fn slo_tick(&self) -> SloReport {
        let mut latency = Histogram::new();
        for shard in &self.shards {
            latency.merge(&shard.tracer.latency_us.snapshot());
        }
        let totals = self.snapshot().totals();
        let errors = totals.rejected + totals.shed_deadline + totals.shed_shutdown;
        let report = lock(&self.slo).tick(&latency, errors);
        if report.breached {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let burn_milli = (report.burn_rate * 1000.0).min(1e18) as u64;
            for shard in &self.shards {
                shard
                    .tracer
                    .event(FlightEventKind::SloBreach, report.p99_us, burn_milli);
            }
        }
        report
    }

    /// The most recent SLO window report, if any tick has run.
    #[must_use]
    pub fn last_slo(&self) -> Option<SloReport> {
        lock(&self.slo).last()
    }

    /// SLO windows evaluated and breached so far.
    #[must_use]
    pub fn slo_windows(&self) -> (u64, u64) {
        let slo = lock(&self.slo);
        (slo.ticks(), slo.breach_windows())
    }

    /// Dumps the flight recorder as `ca-ram-flight/v1` JSON: per-shard
    /// recent events and retained traces, the admission-conservation
    /// counters, and the last SLO report. Called on anomaly (SLO breach,
    /// shed storm, orphan risk at shutdown) or on demand.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn flight_json(&self, reason: &str) -> String {
        let snapshot = self.snapshot();
        let totals = snapshot.totals();
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{FLIGHT_SCHEMA}\",");
        let _ = writeln!(out, "  \"reason\": \"{}\",", escape_json(reason));
        let _ = writeln!(out, "  \"trace_period\": {},", self.trace_period());
        match self.last_slo() {
            Some(slo) => {
                let _ = writeln!(
                    out,
                    "  \"slo\": {{\"window_count\": {}, \"p50_us\": {}, \"p99_us\": {}, \
                     \"breaches\": {}, \"errors\": {}, \"bad_fraction\": {}, \
                     \"burn_rate\": {}, \"breached\": {}}},",
                    slo.window_count,
                    slo.p50_us,
                    slo.p99_us,
                    slo.breaches,
                    slo.errors,
                    json_f64(slo.bad_fraction),
                    json_f64(slo.burn_rate),
                    slo.breached
                );
            }
            None => out.push_str("  \"slo\": null,\n"),
        }
        // Conservation: every admitted request reaches exactly one
        // terminal, so completed + sheds == accepted and
        // accepted + rejected == admitted (offered).
        let completed = totals.accepted - totals.shed_deadline - totals.shed_shutdown;
        let _ = writeln!(
            out,
            "  \"conservation\": {{\"admitted\": {}, \"accepted\": {}, \"rejected\": {}, \
             \"shed_deadline\": {}, \"shed_shutdown\": {}, \"completed\": {}}},",
            totals.accepted + totals.rejected,
            totals.accepted,
            totals.rejected,
            totals.shed_deadline,
            totals.shed_shutdown,
            completed
        );
        out.push_str("  \"shards\": [\n");
        for (index, shard) in self.shards.iter().enumerate() {
            let tracer = &shard.tracer;
            let (recorded, overwritten, capacity) = tracer.recorder_stats();
            let (offered, dropped, retained) = tracer.store_stats();
            let _ = writeln!(out, "    {{\n      \"shard\": {index},");
            let _ = writeln!(
                out,
                "      \"rung\": \"{}\",\n      \"depth\": {},\n      \"transitions\": {},",
                tracer.current_rung().name(),
                shard.queued_depth(),
                tracer.transition_count()
            );
            let _ = writeln!(
                out,
                "      \"recorder\": {{\"recorded\": {recorded}, \"overwritten\": \
                 {overwritten}, \"capacity\": {capacity}}},"
            );
            let _ = writeln!(
                out,
                "      \"store\": {{\"offered\": {offered}, \"dropped\": {dropped}, \
                 \"retained\": {retained}}},"
            );
            out.push_str("      \"events\": [");
            for (i, (ticket, event)) in tracer.events().into_iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"ticket\": {ticket}, \"kind\": \"{}\", \"at_ns\": {}, \"a\": {}, \
                     \"b\": {}}}",
                    event.kind.name(),
                    event.at_ns,
                    event.a,
                    event.b
                );
            }
            out.push_str("],\n");
            out.push_str("      \"traces\": [");
            for (i, trace) in tracer.retained().iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let terminal = trace
                    .terminal()
                    .map_or("open", ca_ram_core::telemetry::SpanStage::name);
                let _ = write!(
                    out,
                    "{{\"id\": {}, \"shard\": {}, \"terminal\": \"{terminal}\", \
                     \"total_ns\": {}, \"coverage\": {}, \"events\": [",
                    trace.id,
                    trace.shard,
                    trace.total_ns(),
                    json_f64(trace.span_coverage())
                );
                for (j, event) in trace.events().iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                        out,
                        "{{\"stage\": \"{}\", \"at_ns\": {}, \"detail\": {}}}",
                        event.stage.name(),
                        event.at_ns,
                        event.detail
                    );
                }
                out.push_str("]}");
            }
            out.push_str("]\n    }");
            out.push_str(if index + 1 == self.shards.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Exports service-level and per-shard scopes into `registry` (the
    /// `ca-ram-telemetry/v1` JSON/Prometheus surface): admission and
    /// shedding counters on the service scope, engine-call counters plus
    /// queue-depth/queue-wait histograms on each shard scope.
    #[allow(clippy::cast_precision_loss)]
    pub fn export_metrics(&self, registry: &mut MetricsRegistry, name: &str) {
        let snapshot = self.snapshot();
        let totals = snapshot.totals();
        let scope = registry.scope_mut(ScopeKind::Service, name);
        scope.set_counter("shards", self.shards.len() as u64);
        scope.set_counter("accepted", totals.accepted);
        scope.set_counter("rejected", totals.rejected);
        scope.set_counter("shed_deadline", totals.shed_deadline);
        scope.set_counter("shed_shutdown", totals.shed_shutdown);
        scope.set_counter("coalesced", totals.coalesced);
        scope.set_counter("telemetry_shed", totals.telemetry_shed);
        scope.set_counter("batches", totals.batches);
        scope.set_counter("max_batch", totals.max_batch);
        scope.set_counter("batch_entries", totals.batch_entries);
        scope.set_counter("batch_keys", totals.batch_keys);
        scope.set_counter("parks", totals.parks);
        scope.set_counter("unparks", totals.unparks);
        // Routing balance: hottest shard over coldest, by admitted requests.
        let max_accepted = snapshot.shards.iter().map(|s| s.accepted).max();
        let min_accepted = snapshot.shards.iter().map(|s| s.accepted).min();
        if let (Some(max), Some(min)) = (max_accepted, min_accepted) {
            if min > 0 {
                scope.set_gauge("routing_max_min_ratio", max as f64 / min as f64);
            }
        }
        let served = totals.accepted - totals.shed_deadline - totals.shed_shutdown;
        let offered = totals.accepted + totals.rejected;
        scope.set_gauge(
            "goodput_fraction",
            if offered == 0 {
                f64::NAN
            } else {
                served as f64 / offered as f64
            },
        );
        let transitions: u64 = self
            .shards
            .iter()
            .map(|s| s.tracer.transition_count())
            .sum();
        scope.set_counter("ladder_transitions", transitions);
        scope.set_counter("trace_period", self.trace_period());
        // The SLO watchdog's last window, as its own scope.
        if let Some(report) = self.last_slo() {
            let (ticks, breach_windows) = self.slo_windows();
            let policy = self.slo_policy();
            let scope = registry.scope_mut(ScopeKind::Slo, name);
            scope.set_counter("target_us", policy.target_us);
            scope.set_gauge("error_budget", policy.error_budget);
            scope.set_counter("window_count", report.window_count);
            scope.set_counter("p50_us", report.p50_us);
            scope.set_counter("p99_us", report.p99_us);
            scope.set_counter("breaches", report.breaches);
            scope.set_counter("errors", report.errors);
            scope.set_gauge("bad_fraction", report.bad_fraction);
            scope.set_gauge("burn_rate", report.burn_rate);
            scope.set_counter("breached", u64::from(report.breached));
            scope.set_counter("ticks", ticks);
            scope.set_counter("breach_windows", breach_windows);
        }
        for (index, (shard, counters)) in self.shards.iter().zip(&snapshot.shards).enumerate() {
            let scope = registry.scope_mut(ScopeKind::Shard, &format!("{name}/shard{index}"));
            scope.set_counter("accepted", counters.accepted);
            scope.set_counter("rejected", counters.rejected);
            scope.set_counter("shed_deadline", counters.shed_deadline);
            scope.set_counter("coalesced", counters.coalesced);
            scope.set_counter("telemetry_shed", counters.telemetry_shed);
            scope.set_counter("batches", counters.batches);
            scope.set_counter("max_batch", counters.max_batch);
            scope.set_counter("searches", counters.searches);
            scope.set_counter("inserts", counters.inserts);
            scope.set_counter("deletes", counters.deletes);
            scope.set_counter("batch_entries", counters.batch_entries);
            scope.set_counter("batch_keys", counters.batch_keys);
            scope.set_counter("parks", counters.parks);
            scope.set_counter("unparks", counters.unparks);
            scope.set_counter("write_epochs", shard.write_epochs());
            scope.set_counter("ladder_rung", shard.tracer.current_rung().index());
            scope.set_counter("ladder_transitions", shard.tracer.transition_count());
            scope.set_histogram("queue_depth", shard.queue_depth.snapshot());
            scope.set_histogram("queue_wait_us", shard.queue_wait_us.snapshot());
            scope.set_histogram("latency_us", shard.tracer.latency_us.snapshot());
            // The flight ring and tail store, as a recorder scope.
            let (recorded, overwritten, capacity) = shard.tracer.recorder_stats();
            let (offered, dropped, retained) = shard.tracer.store_stats();
            let scope = registry.scope_mut(ScopeKind::Recorder, &format!("{name}/shard{index}"));
            scope.set_counter("recorded", recorded);
            scope.set_counter("overwritten", overwritten);
            scope.set_counter("capacity", capacity as u64);
            scope.set_counter("traces_offered", offered);
            scope.set_counter("traces_dropped", dropped);
            scope.set_counter("traces_retained", retained as u64);
            scope.set_counter("sample_period", shard.tracer.period());
        }
    }

    /// Begins shutdown from any thread: stops admission (subsequent
    /// submissions return [`AdmissionError::ShuttingDown`]) and wakes the
    /// workers, which finish what is queued. Does not join — the owner's
    /// [`SearchService::shutdown`] or drop still does, and sheds anything
    /// the workers never drained.
    pub fn begin_shutdown(&self) {
        for shard in &self.shards {
            shard.close();
        }
    }

    /// Graceful shutdown: stop admitting, finish everything queued, join the
    /// workers. Also runs on drop; calling it explicitly just surfaces the
    /// point of shutdown in the caller.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        for shard in &self.shards {
            shard.close();
        }
        for worker in self.workers.drain(..) {
            // A panicked worker abandoned its ring; the drain below still
            // sheds whatever it left behind.
            let _ = worker.join();
        }
        for shard in &self.shards {
            // Let in-flight submitters clear the reserve→push window, then
            // shed anything the (now joined) worker never drained.
            shard.await_submitters();
            shard.drain_after_join();
        }
    }
}

impl Drop for SearchService {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.close_and_join();
        }
    }
}

impl std::fmt::Debug for SearchService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchService")
            .field("shards", &self.shards.len())
            .field("key_bits", &self.key_bits)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// Minimal JSON string escaping for dump fields under caller control.
fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A finite float rendered for JSON; non-finite values become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// The shard a key value routes to under `shards`-way sharding — the same
/// `SplitMix64` mapping [`SearchService::shard_of_value`] uses, exposed so
/// benchmarks and key generators can pre-partition keys before (or
/// without) constructing a service.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn route_shard(value: u128, shards: usize) -> usize {
    let folded = (value as u64) ^ ((value >> 64) as u64);
    (splitmix64(folded) % shards.max(1) as u64) as usize
}

/// `SplitMix64` finalizer: cheap, well-mixed shard routing.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServiceEngine;
    use ca_ram_core::pattern::{compile, GeometryHint, Pattern, PatternSpec};

    #[test]
    fn plan_execute_on_the_service_walks_the_ladder_and_sums_accesses() {
        // A one-shard service over a compiled nearest-match dictionary:
        // `QueryPlan::execute` on the service engine must resolve a
        // misspelling through the multi-probe plan exactly as on a raw
        // engine, each probe admitted and served by the shard.
        let plan = compile(&PatternSpec::dictionary(4, 1), &GeometryHint::default())
            .expect("dictionary spec compiles");
        let table = plan.build_table().expect("plan builds");
        let config = ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        };
        let engine = ServiceEngine::new(config, vec![Box::new(table)]).expect("valid service");
        let service = engine.service();
        let word = u128::from_le_bytes(*b"word\0\0\0\0\0\0\0\0\0\0\0\0");
        for rec in plan
            .lower_entry(&Pattern::Exact { value: word }, 7)
            .expect("word lowers")
        {
            service.insert_sync(rec).expect("fits");
        }
        let misspelled = word ^ (u128::from(b'o' ^ b'a') << 8); // "ward"
        let ladder = plan
            .lower_query(&Pattern::NearestMatch {
                value: misspelled,
                max_distance: 1,
            })
            .expect("ladder lowers");
        assert!(ladder.probes().len() > 1, "exact probe plus unit masks");
        let outcome = ladder.execute(&engine);
        assert_eq!(outcome.hit.map(|h| h.data), Some(7));
        // The exact probe misses first, so accesses include both probes.
        let exact_only = service.search_sync(&ladder.probes()[0]);
        assert!(exact_only.hit.is_none());
        assert!(outcome.memory_accesses >= exact_only.memory_accesses);
        // A query past the distance budget misses through the whole ladder.
        let far = word ^ 0x0101; // two units substituted
        let miss = plan
            .lower_query(&Pattern::NearestMatch {
                value: far,
                max_distance: 1,
            })
            .expect("ladder lowers")
            .execute(&engine);
        assert!(miss.hit.is_none());
    }

    #[test]
    fn splitmix_spreads_sequential_values() {
        // Sequential inputs must not collapse onto few shards.
        let shards = 8u64;
        let mut seen = [0u32; 8];
        for v in 0..10_000u64 {
            #[allow(clippy::cast_possible_truncation)]
            let s = (splitmix64(v) % shards) as usize;
            seen[s] += 1;
        }
        for (shard, &count) in seen.iter().enumerate() {
            assert!(
                (800..=1_700).contains(&count),
                "shard {shard} got {count} of 10000"
            );
        }
    }
}
