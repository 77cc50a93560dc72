//! One engine shard: a lock-free mailbox ring, its worker loop, the
//! batching coalescer, and the degradation ladder.
//!
//! Nothing on the steady-state search path takes a lock:
//!
//! * **Admission** is a relaxed occupancy reservation (`fetch_add` against
//!   the configured depth) followed by a lock-free ring push; the
//!   service's one all-or-nothing admission routine drives it for single
//!   requests and batch slices alike.
//! * **The worker** drains the ring with plain loads/stores (it is the
//!   single consumer), parks only on the empty↔non-empty edge, and owns
//!   the engine outright through an [`EngineCell`] — read-only searches
//!   borrow the engine with zero atomic operations, writes bump a seqlock
//!   epoch and republish the occupancy report. It treats both entry kinds
//!   alike: expired entries shed at pickup, consecutive searches merge
//!   into one engine call, and every entry is answered through
//!   `RingEntry::answer`.
//! * **Completion** fills an atomic slot and unparks at most one waiter.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use ca_ram_core::engine::{EngineOutcome, EngineReport, SearchEngine};
use ca_ram_core::key::SearchKey;
use ca_ram_core::telemetry::{AtomicHistogram, SpanStage};

use crate::config::ServiceConfig;
use crate::request::{micros, RingEntry, ServiceOp, ServiceReply, ShedReason, TraceCtx};
use crate::ring::{Parker, Ring};
use crate::trace::{FlightEventKind, ShardTracer};

/// Sentinel for "the engine does not report this" in the published
/// occupancy atomics.
const UNKNOWN: u64 = u64::MAX;

/// Iterations the worker polls the ring before advertising `PARKED`. Kept
/// small: a long spin would starve producers on saturated machines.
const WORKER_SPINS: u32 = 64;

/// Lock-free per-shard counters; read by snapshots while the worker runs.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    /// Requests admitted into the ring (batch entries count their keys).
    pub accepted: AtomicU64,
    /// Requests refused at admission (queue full).
    pub rejected: AtomicU64,
    /// Requests shed because their deadline expired while queued.
    pub shed_deadline: AtomicU64,
    /// Requests shed because the service shut down with them queued.
    pub shed_shutdown: AtomicU64,
    /// Searches answered by a coalesced duplicate's engine probe.
    pub coalesced: AtomicU64,
    /// Completions whose deep telemetry was shed (ladder rung 1).
    pub telemetry_shed: AtomicU64,
    /// Worker drain cycles.
    pub batches: AtomicU64,
    /// Largest single drain observed, in requests.
    pub max_batch: AtomicU64,
    /// Engine search calls issued (post-coalescing, pre-dedup counts once).
    pub searches: AtomicU64,
    /// Engine `insert`/`insert_sorted` calls issued.
    pub inserts: AtomicU64,
    /// Engine delete calls issued.
    pub deletes: AtomicU64,
    /// Batch ring entries admitted (`submit_batch` sub-batches).
    pub batch_entries: AtomicU64,
    /// Keys carried by those batch entries.
    pub batch_keys: AtomicU64,
    /// Times the worker blocked in `park` (empty→non-empty edges).
    pub parks: AtomicU64,
    /// Unpark syscalls issued by producers (should track `parks`).
    pub unparks: AtomicU64,
}

impl ShardStats {
    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }
}

/// Limits copied out of [`ServiceConfig`] so the worker never re-derives
/// thresholds per drain.
#[derive(Debug, Clone, Copy)]
struct ShardLimits {
    queue_depth: usize,
    batch_max: usize,
    telemetry_shed_threshold: usize,
    coalesce_threshold: usize,
}

/// Single-writer seqlock cell around the shard's engine.
///
/// The worker thread is the only code that ever touches the engine, so
/// read-only access needs no synchronization at all (a plain reborrow) and
/// writes only bump an epoch counter — odd while a mutation is in
/// progress, even when quiescent — and republish the occupancy report into
/// plain atomics. [`EngineCell::occupancy`] is a genuine seqlock read: it
/// validates the epoch before and after loading the report and retries
/// across an in-flight write, so the pair it returns always comes from one
/// write generation. The engine pointer itself is never shared outside the
/// worker.
struct EngineCell {
    engine: std::cell::UnsafeCell<Box<dyn SearchEngine>>,
    /// Mutation epoch: `2 × writes` when quiescent, odd mid-write.
    epoch: AtomicU64,
    records: AtomicU64,
    capacity: AtomicU64,
}

// SAFETY: the boxed engine is accessed only from the worker thread
// (`engine`/`write` are `unsafe fn` with that contract); the atomics carry
// everything that crosses threads. No two threads ever hold a reference
// to the engine at once, so this does not rely on the engine being
// `Sync`: `SearchEngine: Send` covers handing it to the worker and
// dropping it on whichever thread releases the last reference.
unsafe impl Sync for EngineCell {}

impl EngineCell {
    fn new(engine: Box<dyn SearchEngine>) -> Self {
        let report = engine.occupancy();
        Self {
            engine: std::cell::UnsafeCell::new(engine),
            epoch: AtomicU64::new(0),
            records: AtomicU64::new(report.records.unwrap_or(UNKNOWN)),
            capacity: AtomicU64::new(report.capacity.unwrap_or(UNKNOWN)),
        }
    }

    /// Borrows the engine read-only — zero atomics, wait-free.
    ///
    /// # Safety
    ///
    /// Must only be called from the shard worker thread (the single owner);
    /// the returned borrow must not outlive the enclosing drain step.
    unsafe fn engine(&self) -> &dyn SearchEngine {
        unsafe { &**self.engine.get() }
    }

    /// Runs a mutation under the epoch protocol and republishes occupancy.
    ///
    /// # Safety
    ///
    /// Must only be called from the shard worker thread.
    unsafe fn write<R>(&self, f: impl FnOnce(&mut dyn SearchEngine) -> R) -> R {
        // Seqlock writer: the odd store must be visible before any report
        // store (release fence), and the closing even store releases the
        // report to readers whose first epoch load acquires it.
        self.epoch.fetch_add(1, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release);
        let engine = unsafe { &mut **self.engine.get() };
        let result = f(engine);
        let report = engine.occupancy();
        self.records
            .store(report.records.unwrap_or(UNKNOWN), Ordering::Relaxed);
        self.capacity
            .store(report.capacity.unwrap_or(UNKNOWN), Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
        result
    }

    /// The last published occupancy, callable from any thread. A seqlock
    /// read: retries while a write is in flight (epoch odd or changed), so
    /// `records`/`capacity` always come from the same write generation.
    /// Writes are rare and short, so the retry loop is effectively bounded.
    fn occupancy(&self) -> EngineReport {
        let decode = |v: u64| (v != UNKNOWN).then_some(v);
        loop {
            let before = self.epoch.load(Ordering::Acquire);
            if before & 1 == 0 {
                let records = self.records.load(Ordering::Relaxed);
                let capacity = self.capacity.load(Ordering::Relaxed);
                // Pairs with the writer's release fence: if either load
                // above saw a mid-write store, the epoch re-read below is
                // guaranteed to see the odd (or later) epoch and retry.
                std::sync::atomic::fence(Ordering::Acquire);
                if self.epoch.load(Ordering::Relaxed) == before {
                    return EngineReport {
                        records: decode(records),
                        capacity: decode(capacity),
                    };
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Completed write generations (epoch / 2).
    fn write_epochs(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed) / 2
    }
}

/// Worker-local scratch reused across drains so the steady-state path
/// allocates nothing.
struct Scratch {
    entries: Vec<RingEntry>,
    /// The pending run of consecutive search entries, in admission order.
    run: Vec<RingEntry>,
    keys: Vec<SearchKey>,
    outcomes: Vec<EngineOutcome>,
    /// Probe index per key of the run, flattened in `run` order.
    key_of: Vec<u32>,
    /// Keys sharing each probe (coalescing runs only).
    sharers: Vec<u32>,
    seen: HashMap<SearchKey, u32>,
    /// Writes applied this drain with their replies, awaiting the group
    /// commit before the replies are delivered (ack-after-commit).
    writes: Vec<(RingEntry, ServiceReply)>,
}

impl Scratch {
    fn new(batch_max: usize) -> Self {
        Self {
            entries: Vec::with_capacity(batch_max),
            run: Vec::with_capacity(batch_max),
            keys: Vec::with_capacity(batch_max),
            outcomes: Vec::with_capacity(batch_max),
            key_of: Vec::with_capacity(batch_max),
            sharers: Vec::new(),
            seen: HashMap::new(),
            writes: Vec::new(),
        }
    }
}

/// One shard: a lock-free bounded MPSC ring in front of an exclusively
/// owned engine.
///
/// Submitters are the many producers; exactly one worker thread drains the
/// ring, so per-shard operation order is the admission order — a search
/// submitted after an insert to the same shard observes it.
pub(crate) struct Shard {
    ring: Ring<RingEntry>,
    parker: Parker,
    /// Ring entries currently reserved or queued; admission bound.
    len: AtomicUsize,
    /// Requests currently queued in the ring — batch entries weighted by
    /// their key count, reserved-but-unpushed entries excluded. Drives the
    /// degradation ladder in the same per-request units the config's fill
    /// fractions are written in; `len` stays the admission bound.
    queued_requests: AtomicUsize,
    /// In-flight submitters (reserve→push window); the shutdown drain
    /// waits for this to quiesce before shedding leftovers.
    submitters: AtomicUsize,
    engine: EngineCell,
    limits: ShardLimits,
    pub(crate) stats: ShardStats,
    /// Request-weighted queue depth, one sample per drain.
    pub(crate) queue_depth: AtomicHistogram,
    /// Queue wait, microseconds, one sample per request; rung 1 of the
    /// degradation ladder sheds it.
    pub(crate) queue_wait_us: AtomicHistogram,
    /// Observability v2: trace sampling, the flight-event ring, ladder
    /// transitions, and the SLO latency histogram.
    pub(crate) tracer: ShardTracer,
}

impl Shard {
    pub(crate) fn new(index: usize, engine: Box<dyn SearchEngine>, config: &ServiceConfig) -> Self {
        Self {
            ring: Ring::new(config.queue_depth),
            parker: Parker::new(),
            len: AtomicUsize::new(0),
            queued_requests: AtomicUsize::new(0),
            submitters: AtomicUsize::new(0),
            engine: EngineCell::new(engine),
            limits: ShardLimits {
                queue_depth: config.queue_depth,
                batch_max: config.batch_max,
                telemetry_shed_threshold: config.telemetry_shed_threshold(),
                coalesce_threshold: config.coalesce_threshold(),
            },
            stats: ShardStats::default(),
            queue_depth: AtomicHistogram::new(),
            queue_wait_us: AtomicHistogram::new(),
            #[allow(clippy::cast_possible_truncation)]
            tracer: ShardTracer::new(index as u32, config),
        }
    }

    // ---- admission primitives, driven by `SearchService::admit` --------

    /// Enters the submit window; `false` means the shard is closed.
    pub(crate) fn enter(&self) -> bool {
        self.submitters.fetch_add(1, Ordering::SeqCst);
        if self.parker.is_closed() {
            self.exit();
            return false;
        }
        true
    }

    /// Leaves the submit window.
    pub(crate) fn exit(&self) {
        self.submitters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Reserves one ring entry against the admission bound.
    pub(crate) fn try_reserve(&self) -> bool {
        if self.len.fetch_add(1, Ordering::Relaxed) >= self.limits.queue_depth {
            self.release();
            return false;
        }
        true
    }

    /// Releases an unused reservation.
    pub(crate) fn release(&self) {
        self.len.fetch_sub(1, Ordering::Relaxed);
    }

    /// Publishes a reserved entry, wakes the worker if it sleeps, and
    /// leaves the submit window. Caller must hold the window and a
    /// reservation. The head-sampling decision is made here, once per
    /// entry: one relaxed load when tracing is off, one fetch_add-and-mask
    /// when on; the unsampled path carries `None`.
    pub(crate) fn push_reserved(&self, mut entry: RingEntry) {
        let trace = entry.trace();
        *trace = self.tracer.start_trace();
        if let Some(t) = trace.as_deref_mut() {
            t.record(SpanStage::Enqueued);
        }
        let requests = entry.requests();
        if matches!(entry, RingEntry::Batch(_)) {
            ShardStats::bump(&self.stats.batch_entries, 1);
            ShardStats::bump(&self.stats.batch_keys, requests as u64);
        }
        // Counted before the publish so the consumer (which decrements
        // only after popping the published entry) can never underflow it,
        // and so an answer never precedes its admission in `snapshot()`.
        self.queued_requests.fetch_add(requests, Ordering::Relaxed);
        ShardStats::bump(&self.stats.accepted, requests as u64);
        self.ring
            .push(entry)
            .unwrap_or_else(|_| unreachable!("reservation bounds ring occupancy"));
        if self.parker.wake() {
            ShardStats::bump(&self.stats.unparks, 1);
        }
        self.exit();
    }

    /// The configured admission bound, for error reporting.
    pub(crate) fn depth(&self) -> usize {
        self.limits.queue_depth
    }

    /// The request-weighted queue depth right now (telemetry).
    pub(crate) fn queued_depth(&self) -> usize {
        self.queued_requests.load(Ordering::Relaxed)
    }

    /// Bumps the rejected counter by `n` requests and records the refusal
    /// in the flight ring (plus a minimal trace when sampled).
    pub(crate) fn note_rejected(&self, n: u64) {
        ShardStats::bump(&self.stats.rejected, n);
        self.tracer.note_reject(n);
    }

    /// Marks the shard closed and wakes the worker; it drains what is
    /// already queued, then exits.
    pub(crate) fn close(&self) {
        self.parker.close();
    }

    /// Sheds anything still ringed after the worker exited. A gracefully
    /// exiting worker leaves nothing behind (it waits for admission to
    /// quiesce and the ring to drain), so this is the backstop for a
    /// worker that panicked mid-service. Callers must first join the
    /// worker (making this thread the ring's consumer) and let the submit
    /// windows quiesce via [`Shard::await_submitters`].
    pub(crate) fn drain_after_join(&self) {
        let now = Instant::now();
        let mut orphaned_entries = 0u64;
        let mut shed_requests = 0u64;
        while let Some(entry) = self.ring.pop() {
            self.len.fetch_sub(1, Ordering::Relaxed);
            self.queued_requests
                .fetch_sub(entry.requests(), Ordering::Relaxed);
            orphaned_entries += 1;
            shed_requests += self.shed(entry, ShedReason::Shutdown, now);
        }
        if orphaned_entries > 0 {
            // The worker exited with work still ringed — either it
            // panicked or the shutdown protocol raced. Both are dump-worthy.
            self.tracer
                .event(FlightEventKind::ShedShutdown, shed_requests, 0);
            self.tracer
                .event(FlightEventKind::OrphanRisk, orphaned_entries, 0);
        }
    }

    /// Answers every request of `entry` with `Shed(reason)` without
    /// touching the engine, and returns how many it shed. The shed counter
    /// and the sampled trace's terminal land before the reply is published.
    fn shed(&self, mut entry: RingEntry, reason: ShedReason, now: Instant) -> u64 {
        let requests = entry.requests() as u64;
        let counter = match reason {
            ShedReason::DeadlineExpired => &self.stats.shed_deadline,
            ShedReason::Shutdown => &self.stats.shed_shutdown,
        };
        ShardStats::bump(counter, requests);
        if let Some(mut t) = entry.trace().take() {
            t.record_at(SpanStage::Shed, now, 0);
            self.tracer.finish(*t);
        }
        entry.answer(now, false, |_| ServiceReply::Shed(reason));
        requests
    }

    /// Per-request telemetry for an entry served at `done`: its queue
    /// wait, one sample per request (shed to a counter on ladder rung 1),
    /// and its end-to-end latency for the SLO histogram.
    fn note_served(&self, entry: &RingEntry, picked_up: Instant, done: Instant, deep: bool) {
        let requests = entry.requests() as u64;
        let enqueued = entry.enqueued();
        if deep {
            self.queue_wait_us.record_n(
                micros(picked_up.saturating_duration_since(enqueued)),
                requests,
            );
        } else {
            ShardStats::bump(&self.stats.telemetry_shed, requests);
        }
        self.tracer
            .latency_us
            .record_n(micros(done.saturating_duration_since(enqueued)), requests);
    }

    /// Terminates a served entry's sampled trace (after its reply went
    /// out) and hands it to tail retention.
    fn finish_completed(&self, trace: TraceCtx) {
        if let Some(mut t) = trace {
            t.record(SpanStage::Completed);
            self.tracer.finish(*t);
        }
    }

    /// Spins until no submitter is inside the reserve→push window. Only
    /// meaningful after [`Shard::close`]: new submitters bounce off the
    /// closed check, so the count can only drain.
    pub(crate) fn await_submitters(&self) {
        while self.submitters.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
    }

    /// The last published occupancy report — seqlock-consistent (never
    /// torn across write generations).
    pub(crate) fn occupancy(&self) -> EngineReport {
        self.engine.occupancy()
    }

    /// Completed engine write generations (telemetry).
    pub(crate) fn write_epochs(&self) -> u64 {
        self.engine.write_epochs()
    }

    /// The worker loop: drain up to `batch_max` ring entries, serve them,
    /// repeat until closed, admission-quiescent, *and* empty — shutdown is
    /// graceful, queued work finishes, and a request admitted in the
    /// close race is still served rather than orphaned. Parks (after a
    /// short spin) only when the ring is empty.
    pub(crate) fn worker_loop(&self) {
        self.parker.register_worker();
        let mut scratch = Scratch::new(self.limits.batch_max);
        loop {
            // Request-weighted (a queued sub-batch counts each of its
            // keys), so the degradation ladder's fill fractions keep the
            // per-request meaning they had under the per-request queue.
            let depth_at_drain = self.queued_requests.load(Ordering::Relaxed);
            while scratch.entries.len() < self.limits.batch_max {
                match self.ring.pop() {
                    Some(entry) => {
                        self.len.fetch_sub(1, Ordering::Relaxed);
                        self.queued_requests
                            .fetch_sub(entry.requests(), Ordering::Relaxed);
                        scratch.entries.push(entry);
                    }
                    None => break,
                }
            }
            if scratch.entries.is_empty() {
                if self.parker.is_closed() {
                    // Exit only once admission has quiesced: a submitter
                    // that passed `enter`'s closed check just before
                    // `close` may still be inside the reserve→push window,
                    // and returning now would orphan its entry (an
                    // `Ok(Ticket)` nobody ever completes until shutdown's
                    // drain). `enter` bounces new submitters after close,
                    // so the count only drains; the SeqCst `exit` after a
                    // guarded push guarantees this thread then observes
                    // the pushed entry on the next `pop`.
                    if self.submitters.load(Ordering::SeqCst) == 0 && self.ring.is_empty() {
                        return;
                    }
                    std::thread::yield_now();
                    continue;
                }
                let mut found = false;
                for _ in 0..WORKER_SPINS {
                    if !self.ring.is_empty() {
                        found = true;
                        break;
                    }
                    std::hint::spin_loop();
                }
                if !found {
                    let ring = &self.ring;
                    if self.parker.sleep(|| !ring.is_empty()) {
                        ShardStats::bump(&self.stats.parks, 1);
                    }
                }
                continue;
            }
            let requests = scratch
                .entries
                .iter()
                .map(RingEntry::requests)
                .sum::<usize>() as u64;
            self.queue_depth
                .record((depth_at_drain as u64).max(requests));
            ShardStats::bump(&self.stats.batches, 1);
            self.stats.max_batch.fetch_max(requests, Ordering::Relaxed);
            self.process(&mut scratch, depth_at_drain.max(1));
        }
    }

    /// Serves one drained set of entries in admission order: entries whose
    /// deadline passed are shed at pickup, consecutive searches (singles
    /// and batch slices alike) merge into one engine batch call, and
    /// writes are applied one at a time by the owning worker.
    fn process(&self, scratch: &mut Scratch, depth_at_drain: usize) {
        let deep_telemetry = depth_at_drain < self.limits.telemetry_shed_threshold;
        let coalesce = depth_at_drain >= self.limits.coalesce_threshold;
        self.tracer.note_drain(
            depth_at_drain as u64,
            self.stats.rejected.load(Ordering::Relaxed),
            deep_telemetry,
            coalesce,
        );
        let picked_up = Instant::now();

        let mut shed_deadline = 0u64;
        let mut entries = std::mem::take(&mut scratch.entries);
        for mut entry in entries.drain(..) {
            if let Some(t) = entry.trace().as_deref_mut() {
                t.record_at(SpanStage::PickedUp, picked_up, 0);
            }
            if entry.deadline().is_some_and(|d| d <= picked_up) {
                shed_deadline += self.shed(entry, ShedReason::DeadlineExpired, picked_up);
            } else if let Some(op) = entry.write_op() {
                if !scratch.run.is_empty() {
                    self.serve_search_run(scratch, picked_up, deep_telemetry, coalesce);
                }
                self.serve_write(scratch, entry, op);
            } else {
                scratch.run.push(entry);
            }
        }
        scratch.entries = entries;
        if shed_deadline > 0 {
            self.tracer
                .event(FlightEventKind::ShedDeadline, shed_deadline, 0);
        }
        if !scratch.run.is_empty() {
            self.serve_search_run(scratch, picked_up, deep_telemetry, coalesce);
        }
        self.complete_writes(scratch, picked_up, deep_telemetry);
    }

    /// One consecutive run of search entries: map their keys onto probes
    /// (deduplicating identical keys when coalescing), answer every probe
    /// through one engine batch call, then deliver the replies.
    fn serve_search_run(
        &self,
        scratch: &mut Scratch,
        picked_up: Instant,
        deep_telemetry: bool,
        coalesce: bool,
    ) {
        // Map every key onto a (possibly shared) probe slot.
        scratch.keys.clear();
        scratch.key_of.clear();
        scratch.sharers.clear();
        let mut any_traced = false;
        for entry in &mut scratch.run {
            any_traced |= entry.trace().is_some();
            for &key in entry.keys() {
                let probe = if coalesce {
                    let probe = *scratch.seen.entry(key).or_insert_with(|| {
                        scratch.keys.push(key);
                        scratch.sharers.push(0);
                        u32::try_from(scratch.keys.len() - 1).expect("batch fits u32")
                    });
                    scratch.sharers[probe as usize] += 1;
                    probe
                } else {
                    scratch.keys.push(key);
                    u32::try_from(scratch.keys.len() - 1).expect("batch fits u32")
                };
                scratch.key_of.push(probe);
            }
        }
        if coalesce {
            scratch.seen.clear();
            ShardStats::bump(
                &self.stats.coalesced,
                (scratch.key_of.len() - scratch.keys.len()) as u64,
            );
        }
        ShardStats::bump(&self.stats.searches, scratch.keys.len() as u64);

        // Stamp the merge and engine-start boundary once for every traced
        // member of the run; unsampled runs skip the scan entirely.
        if any_traced {
            let engine_start = Instant::now();
            let merged = scratch.keys.len() as u64;
            for entry in &mut scratch.run {
                if let Some(t) = entry.trace().as_deref_mut() {
                    t.record_at(SpanStage::Merged, engine_start, merged);
                    t.record_at(SpanStage::EngineStart, engine_start, 0);
                }
            }
        }

        // One engine call for the whole run — the worker owns the engine,
        // so the read path is free of atomics and locks.
        // SAFETY: this is the shard worker thread, the engine's sole owner.
        let engine = unsafe { self.engine.engine() };
        engine.search_batch_into(&scratch.keys, &mut scratch.outcomes);
        // One clock read per run serves both the traced engine-done stamp
        // and the (always-on) SLO latency histogram.
        let engine_done = Instant::now();
        if any_traced {
            for entry in &mut scratch.run {
                if let Some(t) = entry.trace().as_deref_mut() {
                    t.record_at(SpanStage::EngineDone, engine_done, 0);
                }
            }
        }

        // Deliver outcomes back, in admission order. A single is flagged
        // `coalesced` only when another request shared its probe.
        let mut cursor = 0usize;
        for mut entry in scratch.run.drain(..) {
            let probes = &scratch.key_of[cursor..cursor + entry.requests()];
            cursor += probes.len();
            let coalesced = coalesce && scratch.sharers[probes[0] as usize] > 1;
            self.note_served(&entry, picked_up, engine_done, deep_telemetry);
            let trace = entry.trace().take();
            entry.answer(picked_up, coalesced, |i| {
                ServiceReply::Search(scratch.outcomes[probes[i] as usize])
            });
            self.finish_completed(trace);
        }
    }

    /// One write, applied in admission order by the engine-owning worker.
    /// The engine mutation happens here (so later searches in the same
    /// drain observe it), but the reply is held in `scratch.writes` until
    /// [`Shard::complete_writes`] runs the drain's group commit.
    fn serve_write(&self, scratch: &mut Scratch, mut entry: RingEntry, op: ServiceOp) {
        if let Some(t) = entry.trace().as_deref_mut() {
            // A write is its own single-request "batch".
            let now = Instant::now();
            t.record_at(SpanStage::Merged, now, 1);
            t.record_at(SpanStage::EngineStart, now, 0);
        }
        // SAFETY: this is the shard worker thread, the engine's sole owner.
        let reply = unsafe {
            self.engine.write(|engine| match op {
                ServiceOp::Insert(record) => {
                    ShardStats::bump(&self.stats.inserts, 1);
                    ServiceReply::Insert(engine.insert(record))
                }
                ServiceOp::InsertSorted(record) => {
                    ShardStats::bump(&self.stats.inserts, 1);
                    ServiceReply::Insert(engine.insert_sorted(record))
                }
                ServiceOp::Delete(key) => {
                    ShardStats::bump(&self.stats.deletes, 1);
                    ServiceReply::Delete(engine.delete(&key))
                }
                ServiceOp::Search(_) => unreachable!("writes only"),
            })
        };
        if let Some(t) = entry.trace().as_deref_mut() {
            t.record(SpanStage::EngineDone);
        }
        scratch.writes.push((entry, reply));
    }

    /// The drain's group commit: one durability barrier for every write
    /// applied since the last drain, then their replies. A single
    /// `commit` covers the whole batch — on a plain in-memory engine it is
    /// a no-op, on a durable engine it is one WAL write (and optional
    /// fsync) amortized over the batch.
    fn complete_writes(&self, scratch: &mut Scratch, picked_up: Instant, deep_telemetry: bool) {
        if scratch.writes.is_empty() {
            return;
        }
        // SAFETY: this is the shard worker thread, the engine's sole owner.
        let committed = unsafe { self.engine.write(|engine| engine.commit()) };
        let done = Instant::now();
        for (mut entry, reply) in scratch.writes.drain(..) {
            let reply = match (&committed, reply) {
                // An insert the engine accepted but the backend failed to
                // persist must not be acked as durable.
                (Err(e), ServiceReply::Insert(Ok(()))) => ServiceReply::Insert(Err(e.clone())),
                (_, reply) => reply,
            };
            self.note_served(&entry, picked_up, done, deep_telemetry);
            let trace = entry.trace().take();
            entry.answer(picked_up, false, |_| reply.clone());
            self.finish_completed(trace);
        }
    }
}
