//! The request/reply vocabulary of the serving layer.
//!
//! Completion hand-off is lock-free and written once: a filler publishes
//! into an atomic `Slot<T>` (release store of a state word) and the waiter
//! either observes it in a short spin or parks; the filler issues at most
//! one unpark per waiter. A single request's ticket waits on a
//! `Slot<Completion>`. A key batch shares one `BatchSlot` across every
//! shard sub-batch — workers write disjoint reply positions, and the last
//! one to finish (atomic countdown) fills the batch's `Slot<()>`; the
//! waiter then copies the replies out on its own thread.
//!
//! A ring entry is either kind: `RingEntry`'s accessors give the worker
//! one view of both (request count, keys, deadline, enqueue time, trace),
//! and `RingEntry::answer` is the one place replies are routed.

use std::cell::UnsafeCell;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use ca_ram_core::engine::EngineOutcome;
use ca_ram_core::error::CaRamError;
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::Record;
use ca_ram_core::telemetry::RequestTrace;

/// The lifecycle-trace context a queued request carries: `None` for the
/// (common) unsampled request — no allocation, no clock reads beyond the
/// ones the service already takes — or a boxed [`RequestTrace`] the
/// worker stamps at each pipeline stage. Boxed so an unsampled entry
/// costs one machine word in the ring.
pub(crate) type TraceCtx = Option<Box<RequestTrace>>;

/// One operation submitted to a [`SearchService`](crate::SearchService).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceOp {
    /// Look up one key.
    Search(SearchKey),
    /// Store a record (append placement).
    Insert(Record),
    /// Store a record maintaining the backend's priority order.
    InsertSorted(Record),
    /// Remove every stored record whose key equals the pattern.
    Delete(TernaryKey),
}

impl ServiceOp {
    /// The key value the router hashes to pick a shard. Ternary don't-care
    /// bits are zeroed by the key constructors, so a record and a search for
    /// its exact stored pattern route identically; see the crate docs for
    /// the multi-shard ternary caveat.
    #[must_use]
    pub fn route_value(&self) -> u128 {
        match self {
            ServiceOp::Search(k) => k.value(),
            ServiceOp::Insert(r) | ServiceOp::InsertSorted(r) => r.key.value(),
            ServiceOp::Delete(k) => k.value(),
        }
    }

    /// True for operations that need exclusive engine access.
    #[must_use]
    pub fn is_write(&self) -> bool {
        !matches!(self, ServiceOp::Search(_))
    }
}

/// Why a request was completed without touching an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The deadline passed while the request was queued.
    DeadlineExpired,
    /// The service shut down with the request still queued.
    Shutdown,
}

/// The outcome of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceReply {
    /// A search completed (hit or miss).
    Search(EngineOutcome),
    /// An insert completed with the engine's verdict.
    Insert(Result<(), CaRamError>),
    /// A delete completed, removing this many stored copies.
    Delete(u32),
    /// The request was shed; no engine was consulted and no partial result
    /// exists.
    Shed(ShedReason),
}

/// A finished request: the reply plus its measured service timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// What happened.
    pub reply: ServiceReply,
    /// Time spent queued (submission → worker pickup).
    pub queue_wait: Duration,
    /// Full request latency (submission → completion).
    pub total: Duration,
    /// True if this search shared an engine probe with duplicate in-flight
    /// keys (degradation-ladder rung 2).
    pub coalesced: bool,
}

/// A finished key batch: one reply per submitted key, in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCompletion {
    /// Per-key replies ([`ServiceReply::Search`] or [`ServiceReply::Shed`]),
    /// index-aligned with the submitted keys.
    pub replies: Vec<ServiceReply>,
    /// Longest queue wait over the per-shard sub-batches.
    pub queue_wait: Duration,
    /// Full batch latency (submission → last sub-batch completion).
    pub total: Duration,
}

impl BatchCompletion {
    /// Search outcomes in input order; `None` where the key was shed.
    #[must_use]
    pub fn outcomes(&self) -> Vec<Option<EngineOutcome>> {
        self.replies
            .iter()
            .map(|r| match r {
                ServiceReply::Search(outcome) => Some(*outcome),
                _ => None,
            })
            .collect()
    }

    /// Number of keys shed (deadline or shutdown).
    #[must_use]
    pub fn shed(&self) -> usize {
        self.replies
            .iter()
            .filter(|r| matches!(r, ServiceReply::Shed(_)))
            .count()
    }
}

/// Why a submission was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The target shard's bounded queue is full (load shedding at the door).
    QueueFull {
        /// The shard whose queue was full.
        shard: usize,
        /// The configured queue capacity.
        depth: usize,
    },
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::QueueFull { shard, depth } => {
                write!(f, "shard {shard} queue full ({depth} requests)")
            }
            AdmissionError::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

impl Error for AdmissionError {}

/// Slot state machine: EMPTY →(waiter) WAITING →(filler) FILLED →(taker)
/// TAKEN, or EMPTY →(filler) FILLED directly when nobody waits yet.
const EMPTY: u32 = 0;
const WAITING: u32 = 1;
const FILLED: u32 = 2;
const TAKEN: u32 = 3;

/// Iterations a waiter spins before arming the park protocol. Kept small:
/// on a saturated box the worker needs the CPU more than the waiter does.
const WAIT_SPINS: u32 = 64;

/// Saturating whole microseconds of `d`, the unit every serving-layer
/// histogram and latency summary records.
#[must_use]
pub(crate) fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The lock-free one-shot hand-off a filler publishes into and a waiter
/// observes: a single request's [`Completion`], or `()` for a key batch
/// whose replies live in its [`BatchSlot`].
///
/// Exactly one filler (the shard worker or the shedding path) and one
/// taker (the ticket holder) touch each slot, which is what makes the
/// single `UnsafeCell` hand-off sound.
#[derive(Debug)]
pub(crate) struct Slot<T> {
    state: AtomicU32,
    value: UnsafeCell<Option<T>>,
    waiter: UnsafeCell<Option<Thread>>,
}

// SAFETY: `value` is written by the unique filler before the release swap
// to FILLED and read by the unique taker after an acquire load of FILLED,
// so a `T` only ever moves between threads (hence `T: Send`, and no
// `T: Sync`: no two threads reach it at once); `waiter` is written by the
// unique waiter before its release CAS to WAITING and read by the filler
// only after observing WAITING; `state` is atomic.
unsafe impl<T: Send> Send for Slot<T> {}
unsafe impl<T: Send> Sync for Slot<T> {}

impl<T> Slot<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::empty())
    }

    fn empty() -> Self {
        Self {
            state: AtomicU32::new(EMPTY),
            value: UnsafeCell::new(None),
            waiter: UnsafeCell::new(None),
        }
    }

    /// Publishes the value and wakes the waiter if one is parked.
    pub(crate) fn fill(&self, value: T) {
        // SAFETY: unique filler; the state machine still reads EMPTY or
        // WAITING, so no taker looks at `value` yet.
        unsafe { *self.value.get() = Some(value) };
        match self.state.swap(FILLED, Ordering::AcqRel) {
            EMPTY => {}
            WAITING => {
                // SAFETY: the waiter stored its handle before the CAS that
                // made us observe WAITING (release/acquire pairing above).
                let thread = unsafe { (*self.waiter.get()).take() };
                if let Some(thread) = thread {
                    thread.unpark();
                }
            }
            state => unreachable!("slot filled twice (state {state})"),
        }
    }

    /// Blocks until filled, then takes the value.
    ///
    /// # Panics
    ///
    /// Panics (with a clear message) if the value was already claimed by
    /// [`Slot::try_take`] — waiting on an empty slot would otherwise block
    /// forever, since the filler is done.
    fn wait_take(&self) -> T {
        for _ in 0..WAIT_SPINS {
            match self.state.load(Ordering::Acquire) {
                FILLED => return self.take(),
                TAKEN => Self::already_taken(),
                _ => std::hint::spin_loop(),
            }
        }
        // SAFETY: unique waiter; the filler reads this only after our CAS
        // below publishes WAITING.
        unsafe { *self.waiter.get() = Some(std::thread::current()) };
        match self
            .state
            .compare_exchange(EMPTY, WAITING, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                while self.state.load(Ordering::Acquire) != FILLED {
                    std::thread::park();
                }
            }
            Err(FILLED) => {}
            Err(TAKEN) => Self::already_taken(),
            Err(state) => unreachable!("two waiters on one slot (state {state})"),
        }
        self.take()
    }

    #[cold]
    fn already_taken() -> ! {
        panic!("completion already taken: Ticket::try_take consumed it before this wait")
    }

    fn take(&self) -> T {
        self.state.store(TAKEN, Ordering::Relaxed);
        // SAFETY: state was FILLED (acquire-observed), so the filler's
        // write to `value` happens-before this read, and the unique taker
        // is the only reader.
        unsafe { (*self.value.get()).take() }.expect("filled slot holds a value")
    }

    fn try_take(&self) -> Option<T> {
        if self
            .state
            .compare_exchange(FILLED, TAKEN, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // SAFETY: as in `take` — FILLED observed with acquire ordering.
            return unsafe { (*self.value.get()).take() };
        }
        None
    }
}

/// A handle on one in-flight request; wait on it for the [`Completion`].
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<Slot<Completion>>,
}

impl Ticket {
    pub(crate) fn new(slot: Arc<Slot<Completion>>) -> Self {
        Self { slot }
    }

    /// Blocks until the request completes (brief spin, then park — no lock).
    ///
    /// # Panics
    ///
    /// Panics if a previous [`Ticket::try_take`] already claimed the
    /// completion — there is nothing left to wait for.
    #[must_use]
    pub fn wait(self) -> Completion {
        self.slot.wait_take()
    }

    /// Takes the completion if the request already finished. After this
    /// returns `Some`, the completion is consumed: a later
    /// [`Ticket::wait`] panics rather than blocking forever.
    #[must_use]
    pub fn try_take(&self) -> Option<Completion> {
        self.slot.try_take()
    }
}

/// The shared completion state of one key batch.
///
/// `replies` is partitioned across shard sub-batches: each worker writes
/// only its own positions, so the cells never race; `pending` counts
/// sub-batches still in flight, and the one that takes it to zero fills
/// `done`, the same [`Slot`] a single request's ticket waits on.
#[derive(Debug)]
pub(crate) struct BatchSlot {
    replies: Box<[UnsafeCell<ServiceReply>]>,
    pending: AtomicUsize,
    /// Longest sub-batch queue wait, microseconds (atomic max).
    queue_wait_us: AtomicU64,
    done: Slot<()>,
    enqueued: Instant,
}

// SAFETY: reply cells are written by at most one worker each (disjoint
// position sets) before the acquire-release countdown, whose last step
// fills `done`; the unique taker reads them only after `done` is filled.
// `pending` and `queue_wait_us` are atomic, `done` is a `Slot<()>` (Send
// and Sync), and `enqueued` is a plain `Copy` value never written again.
unsafe impl Send for BatchSlot {}
unsafe impl Sync for BatchSlot {}

impl BatchSlot {
    pub(crate) fn new(keys: usize, pending: usize) -> Arc<Self> {
        Arc::new(Self {
            replies: (0..keys)
                .map(|_| UnsafeCell::new(ServiceReply::Shed(ShedReason::Shutdown)))
                .collect(),
            pending: AtomicUsize::new(pending),
            queue_wait_us: AtomicU64::new(0),
            done: Slot::empty(),
            enqueued: Instant::now(),
        })
    }

    /// Writes one key's reply. Caller must own `position` (be the worker
    /// serving the sub-batch that carries it) and must not have counted
    /// its sub-batch down yet.
    pub(crate) fn write_reply(&self, position: u32, reply: ServiceReply) {
        // SAFETY: positions partition the batch across sub-batches; the
        // caller owns this one exclusively until `finish_sub` runs.
        unsafe { *self.replies[position as usize].get() = reply };
    }

    /// Folds one sub-batch's queue wait into the batch maximum.
    pub(crate) fn note_queue_wait(&self, wait: Duration) {
        self.queue_wait_us
            .fetch_max(micros(wait), Ordering::Relaxed);
    }

    /// Counts one sub-batch down; the last one publishes the batch and
    /// wakes the waiter. Returns true when this call completed the batch.
    pub(crate) fn finish_sub(&self) -> bool {
        if self.pending.fetch_sub(1, Ordering::AcqRel) != 1 {
            return false;
        }
        self.done.fill(());
        true
    }

    /// Waits for the last sub-batch, then copies the replies out on the
    /// waiting (client) thread.
    fn wait_take(&self) -> BatchCompletion {
        self.done.wait_take();
        let replies = self
            .replies
            .iter()
            // SAFETY: every writer finished before the countdown reached
            // zero and filled `done`, which the wait above acquired, so
            // the cells are stable.
            .map(|cell| unsafe { (*cell.get()).clone() })
            .collect();
        BatchCompletion {
            replies,
            queue_wait: Duration::from_micros(self.queue_wait_us.load(Ordering::Relaxed)),
            total: self.enqueued.elapsed(),
        }
    }
}

/// A handle on one in-flight key batch; wait on it for the
/// [`BatchCompletion`].
#[derive(Debug)]
pub struct BatchTicket {
    slot: Arc<BatchSlot>,
}

impl BatchTicket {
    pub(crate) fn new(slot: Arc<BatchSlot>) -> Self {
        Self { slot }
    }

    /// Blocks until every sub-batch completed (brief spin, then park).
    #[must_use]
    pub fn wait(self) -> BatchCompletion {
        self.slot.wait_take()
    }
}

/// A queued request: the operation plus the timestamps the worker needs to
/// enforce deadlines and measure waits.
#[derive(Debug)]
pub(crate) struct PendingRequest {
    pub(crate) op: ServiceOp,
    pub(crate) enqueued: Instant,
    pub(crate) deadline: Option<Instant>,
    pub(crate) slot: Arc<Slot<Completion>>,
    /// Lifecycle trace for sampled requests (`None` = unsampled).
    pub(crate) trace: TraceCtx,
}

/// One shard's slice of a submitted key batch: the keys routed here plus
/// the batch-array positions their replies belong at.
#[derive(Debug)]
pub(crate) struct PendingSubBatch {
    pub(crate) keys: Box<[SearchKey]>,
    pub(crate) positions: Box<[u32]>,
    pub(crate) deadline: Option<Instant>,
    pub(crate) slot: Arc<BatchSlot>,
    /// One lifecycle trace covers the whole sub-batch when sampled.
    pub(crate) trace: TraceCtx,
}

/// One entry in a shard's mailbox ring.
///
/// The kind decides only how many keys an entry carries and where its
/// replies go; admission, shedding, serving and telemetry go through the
/// accessors below and treat both kinds alike.
#[derive(Debug)]
pub(crate) enum RingEntry {
    /// A single routed request.
    Single(PendingRequest),
    /// One shard's slice of a key batch.
    Batch(PendingSubBatch),
}

impl RingEntry {
    /// Requests this entry represents (keys for a batch slice, 1 otherwise).
    pub(crate) fn requests(&self) -> usize {
        match self {
            RingEntry::Single(_) => 1,
            RingEntry::Batch(sub) => sub.keys.len(),
        }
    }

    /// The keys to search: a single search's key as a one-element slice,
    /// a batch slice's keys, nothing for a write.
    pub(crate) fn keys(&self) -> &[SearchKey] {
        match self {
            RingEntry::Single(PendingRequest {
                op: ServiceOp::Search(key),
                ..
            }) => std::slice::from_ref(key),
            RingEntry::Single(_) => &[],
            RingEntry::Batch(sub) => &sub.keys,
        }
    }

    /// The engine mutation this entry asks for, if it is a write.
    pub(crate) fn write_op(&self) -> Option<ServiceOp> {
        match self {
            RingEntry::Single(request) if request.op.is_write() => Some(request.op),
            _ => None,
        }
    }

    /// When the entry was admitted (a batch slice: when its batch was).
    pub(crate) fn enqueued(&self) -> Instant {
        match self {
            RingEntry::Single(request) => request.enqueued,
            RingEntry::Batch(sub) => sub.slot.enqueued,
        }
    }

    /// The absolute deadline, if any, past which the entry is shed.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        match self {
            RingEntry::Single(request) => request.deadline,
            RingEntry::Batch(sub) => sub.deadline,
        }
    }

    /// The lifecycle-trace context (`None` when unsampled).
    pub(crate) fn trace(&mut self) -> &mut TraceCtx {
        match self {
            RingEntry::Single(request) => &mut request.trace,
            RingEntry::Batch(sub) => &mut sub.trace,
        }
    }

    /// Publishes the entry's replies, `reply(i)` answering its `i`-th
    /// request, with the queue wait measured up to `picked_up`. A single
    /// fills its ticket (flagged `coalesced` as given); a batch slice
    /// writes its positions, folds its wait into the batch maximum and
    /// counts its sub-batch down.
    pub(crate) fn answer(
        self,
        picked_up: Instant,
        coalesced: bool,
        mut reply: impl FnMut(usize) -> ServiceReply,
    ) {
        let queue_wait = picked_up.saturating_duration_since(self.enqueued());
        match self {
            RingEntry::Single(request) => request.slot.fill(Completion {
                reply: reply(0),
                queue_wait,
                total: request.enqueued.elapsed(),
                coalesced,
            }),
            RingEntry::Batch(sub) => {
                for (i, &position) in sub.positions.iter().enumerate() {
                    sub.slot.write_reply(position, reply(i));
                }
                sub.slot.note_queue_wait(queue_wait);
                sub.slot.finish_sub();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_value_follows_the_key() {
        let k = SearchKey::new(0xAB, 16);
        assert_eq!(ServiceOp::Search(k).route_value(), 0xAB);
        let r = Record::new(TernaryKey::binary(0xCD, 16), 7);
        assert_eq!(ServiceOp::Insert(r).route_value(), 0xCD);
        assert_eq!(ServiceOp::InsertSorted(r).route_value(), 0xCD);
        assert_eq!(
            ServiceOp::Delete(TernaryKey::binary(0xEF, 16)).route_value(),
            0xEF
        );
    }

    #[test]
    fn writes_are_writes() {
        let r = Record::new(TernaryKey::binary(1, 8), 0);
        assert!(!ServiceOp::Search(SearchKey::new(1, 8)).is_write());
        assert!(ServiceOp::Insert(r).is_write());
        assert!(ServiceOp::InsertSorted(r).is_write());
        assert!(ServiceOp::Delete(TernaryKey::binary(1, 8)).is_write());
    }

    #[test]
    fn ticket_round_trip() {
        let slot = Slot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        assert!(ticket.try_take().is_none());
        slot.fill(Completion {
            reply: ServiceReply::Delete(3),
            queue_wait: Duration::from_micros(5),
            total: Duration::from_micros(9),
            coalesced: false,
        });
        let completion = ticket.wait();
        assert_eq!(completion.reply, ServiceReply::Delete(3));
        assert!(!completion.coalesced);
    }

    #[test]
    fn ticket_try_take_claims_once() {
        let slot = Slot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        slot.fill(Completion {
            reply: ServiceReply::Delete(2),
            queue_wait: Duration::ZERO,
            total: Duration::ZERO,
            coalesced: false,
        });
        let completion = ticket.try_take().expect("filled");
        assert_eq!(completion.reply, ServiceReply::Delete(2));
        assert!(ticket.try_take().is_none(), "second poll finds nothing");
    }

    #[test]
    #[should_panic(expected = "completion already taken")]
    fn ticket_wait_after_try_take_panics_clearly() {
        let slot = Slot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        slot.fill(Completion {
            reply: ServiceReply::Delete(0),
            queue_wait: Duration::ZERO,
            total: Duration::ZERO,
            coalesced: false,
        });
        let _ = ticket.try_take().expect("filled");
        let _ = ticket.wait(); // must panic, not block forever
    }

    #[test]
    fn ticket_wait_parks_until_a_late_fill() {
        let slot = Slot::new();
        let ticket = Ticket::new(Arc::clone(&slot));
        let filler = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                slot.fill(Completion {
                    reply: ServiceReply::Delete(1),
                    queue_wait: Duration::ZERO,
                    total: Duration::from_millis(20),
                    coalesced: false,
                });
            })
        };
        assert_eq!(ticket.wait().reply, ServiceReply::Delete(1));
        filler.join().expect("filler lives");
    }

    #[test]
    fn batch_slot_partitions_and_counts_down() {
        let slot = BatchSlot::new(4, 2);
        let ticket = BatchTicket::new(Arc::clone(&slot));
        // Sub-batch A owns positions 0 and 2; B owns 1 and 3.
        slot.write_reply(0, ServiceReply::Search(EngineOutcome::miss(1)));
        slot.write_reply(2, ServiceReply::Search(EngineOutcome::miss(2)));
        slot.note_queue_wait(Duration::from_micros(7));
        assert!(!slot.finish_sub(), "first sub-batch does not complete");
        slot.write_reply(1, ServiceReply::Shed(ShedReason::DeadlineExpired));
        slot.write_reply(3, ServiceReply::Search(EngineOutcome::miss(3)));
        slot.note_queue_wait(Duration::from_micros(3));
        assert!(slot.finish_sub(), "last sub-batch completes");
        let completion = ticket.wait();
        assert_eq!(completion.replies.len(), 4);
        assert_eq!(completion.shed(), 1);
        assert_eq!(
            completion.outcomes(),
            vec![
                Some(EngineOutcome::miss(1)),
                None,
                Some(EngineOutcome::miss(2)),
                Some(EngineOutcome::miss(3)),
            ]
        );
        assert_eq!(completion.queue_wait, Duration::from_micros(7));
    }

    #[test]
    fn batch_ticket_wait_parks_until_the_last_sub_batch() {
        let slot = BatchSlot::new(2, 2);
        let ticket = BatchTicket::new(Arc::clone(&slot));
        slot.write_reply(0, ServiceReply::Search(EngineOutcome::miss(1)));
        assert!(!slot.finish_sub(), "first sub-batch does not complete");
        let finisher = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || {
                // Finish only once the waiter has armed the park protocol,
                // so its wake-up must come through `unpark`.
                while slot.done.state.load(Ordering::Acquire) != WAITING {
                    std::thread::yield_now();
                }
                slot.write_reply(1, ServiceReply::Search(EngineOutcome::miss(2)));
                assert!(slot.finish_sub(), "last sub-batch completes");
            })
        };
        let completion = ticket.wait();
        assert_eq!(
            completion.outcomes(),
            vec![Some(EngineOutcome::miss(1)), Some(EngineOutcome::miss(2))]
        );
        finisher.join().expect("finisher lives");
    }

    #[test]
    fn sub_batch_shed_answers_every_position() {
        let slot = BatchSlot::new(3, 1);
        let ticket = BatchTicket::new(Arc::clone(&slot));
        let sub = RingEntry::Batch(PendingSubBatch {
            keys: vec![SearchKey::new(1, 8); 3].into_boxed_slice(),
            positions: vec![0, 1, 2].into_boxed_slice(),
            deadline: None,
            slot: Arc::clone(&slot),
            trace: None,
        });
        sub.answer(Instant::now(), false, |_| {
            ServiceReply::Shed(ShedReason::Shutdown)
        });
        let completion = ticket.wait();
        assert_eq!(completion.shed(), 3);
    }

    #[test]
    fn admission_error_formats() {
        let full = AdmissionError::QueueFull { shard: 2, depth: 8 };
        assert!(full.to_string().contains("shard 2"));
        assert!(AdmissionError::ShuttingDown
            .to_string()
            .contains("shutting down"));
    }
}
