//! `kv-mixed`: 64-bit exact-match keys on two durable shards behind the
//! service, driven open-loop at one fixed offered rate.
//!
//! The run is a sequence of rounds: half a second of sends on the fixed
//! schedule, then a drain, then a wake-up gauge pass that scales the
//! round's latencies. `ops_per_s` is the completion rate over the rounds,
//! which the schedule fixes: it is not a signal of the program's speed
//! unless the service falls behind by several-fold.
//!
//! About 20k records in total, so the tables stay cache-resident. Each
//! shard is a `DurableTable` with `SyncPolicy::Flush` and
//! `auto_commit: false`, so every service drain group-commits its writes.
//! The mix is 90% searches (80% of them of present keys) and 10% writes,
//! alternating inserts of new keys and deletes of live keys so occupancy
//! stays level. After shutdown the shards are reopened and diffed against
//! the model.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ca_ram_core::engine::{EngineOutcome, SearchEngine};
use ca_ram_core::kernel::{self, Kernel};
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::{Record, RecordLayout};
use ca_ram_core::storage::{DurableOptions, DurableTable, IndexSpec, SyncPolicy, TableSpec};
use ca_ram_core::table::{CaRamTable, TableConfig};
use ca_ram_service::{
    route_shard, Completion, SearchService, ServiceConfig, ServiceOp, ServiceReply, Ticket,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::gauge::{Gauge, Kind};
use crate::layers;
use crate::spans::{Spans, ROOT};
use crate::stats::{median_f64, nanos, ns_to_us, percentile, Tally};
use crate::{push_within, Outcome, RunConfig, Schedule};

/// Records loaded before the run, over all shards.
const INITIAL_RECORDS: usize = 20_000;
/// Service shards, one durable table each.
const SHARDS: usize = 2;
const KEY_BITS: u32 = 64;
const DATA_BITS: u32 = 32;
/// Rows per shard table (2^10 rows of 16 slots: ~0.6 load at 10k records).
const ROWS_LOG2: u32 = 10;
const SLOTS_PER_ROW: u32 = 16;
/// The offered rate, operations per second: about 8% of the ~250k ops/s
/// at which the backlog starts to grow on a 2-core x86-64 host. At half
/// that capacity the generator and the two shard workers oversubscribe
/// the two cores and the latency figures spread 0.3-0.9 between runs.
pub const OFFERED_RATE: f64 = 20_000.0;
/// Per-shard queue depth: deep enough that a storage stall of most of a
/// second queues requests instead of rejecting them.
const QUEUE_DEPTH: usize = 1 << 14;
/// Room in the generator's in-flight queue before it grows (an operation
/// takes ~10 µs, so a handful are in flight at the offered rate).
const IN_FLIGHT: usize = 4_096;
/// The generator gives its core away while the next send is further off
/// than this (the shard workers share two cores with it).
const YIELD_SLACK: Duration = Duration::from_micros(3);
/// Share of operations that are writes.
const WRITE_FRACTION: f64 = 0.10;
/// Share of searches that look up a present key.
const PRESENT_FRACTION: f64 = 0.80;
/// Seconds of sends per open-loop window; `latency_p50_us` is the median
/// over windows of each window's median.
const WINDOW_SECONDS: f64 = 0.5;
/// Auto-checkpoints per shard per run: a few in a run, in few windows.
const CHECKPOINTS_PER_RUN: f64 = 1.5;
/// Cap on the write stream and search keys the traced direct measurements
/// replay.
const DIRECT_WRITES: usize = 20_000;
const DIRECT_SEARCHES: usize = 50_000;

/// The answer encoding: search data, `MISS`, or a write's result.
const MISS: u64 = u64::MAX;
const WRITE_OK: u64 = 0;
const WRITE_ERR: u64 = u64::MAX - 1;

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Look a key up.
    Search(u64),
    /// Store a new key with its data.
    Insert(u64, u64),
    /// Remove a live key.
    Delete(u64),
}

impl KvOp {
    fn key(self) -> u64 {
        match self {
            KvOp::Search(k) | KvOp::Insert(k, _) | KvOp::Delete(k) => k,
        }
    }

    fn is_write(self) -> bool {
        !matches!(self, KvOp::Search(_))
    }

    fn service_op(self) -> ServiceOp {
        match self {
            KvOp::Search(k) => ServiceOp::Search(search_key(k)),
            KvOp::Insert(k, d) => ServiceOp::Insert(Record::new(stored_key(k), d)),
            KvOp::Delete(k) => ServiceOp::Delete(stored_key(k)),
        }
    }
}

fn search_key(k: u64) -> SearchKey {
    SearchKey::new(u128::from(k), KEY_BITS)
}

fn stored_key(k: u64) -> TernaryKey {
    TernaryKey::binary(u128::from(k), KEY_BITS)
}

fn shard_of(k: u64) -> usize {
    route_shard(u128::from(k), SHARDS)
}

/// The generated inputs: initial records, the operation stream, and the
/// answer each operation must get when applied in stream order.
#[derive(Debug)]
pub struct Stream {
    /// `(key, data)` loaded before the run.
    pub initial: Vec<(u64, u64)>,
    /// Operations in submission order.
    pub ops: Vec<KvOp>,
    /// Per operation: search data or `MISS`; `WRITE_OK` for a write, or
    /// the delete count 1.
    pub expected: Vec<u64>,
}

/// The key → data model with O(1) uniform choice of a live key.
#[derive(Debug, Default)]
struct Model {
    data: HashMap<u64, (u64, usize)>,
    keys: Vec<u64>,
}

impl Model {
    fn insert(&mut self, k: u64, d: u64) {
        self.data.insert(k, (d, self.keys.len()));
        self.keys.push(k);
    }

    fn remove(&mut self, k: u64) {
        let (_, at) = self.data.remove(&k).expect("deleting a live key");
        self.keys.swap_remove(at);
        if let Some(&moved) = self.keys.get(at) {
            self.data.get_mut(&moved).expect("moved key is live").1 = at;
        }
    }

    fn fresh_key(&self, rng: &mut SmallRng) -> u64 {
        loop {
            let k: u64 = rng.gen();
            if !self.data.contains_key(&k) {
                return k;
            }
        }
    }
}

/// Generates `n_ops` operations from `seed`.
#[must_use]
pub fn generate(seed: u64, n_ops: usize) -> Stream {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6B76_6D69_7865_6421);
    let mut model = Model::default();
    let data_mask = (1u64 << DATA_BITS) - 1;
    while model.keys.len() < INITIAL_RECORDS {
        let k = model.fresh_key(&mut rng);
        model.insert(k, rng.gen::<u64>() & data_mask);
    }
    let initial = model.keys.iter().map(|k| (*k, model.data[k].0)).collect();
    let mut ops = Vec::with_capacity(n_ops);
    let mut expected = Vec::with_capacity(n_ops);
    let mut insert_next = true;
    for _ in 0..n_ops {
        if rng.gen_bool(WRITE_FRACTION) {
            if insert_next {
                let k = model.fresh_key(&mut rng);
                let d = rng.gen::<u64>() & data_mask;
                model.insert(k, d);
                ops.push(KvOp::Insert(k, d));
                expected.push(WRITE_OK);
            } else {
                let k = model.keys[rng.gen_range(0..model.keys.len())];
                model.remove(k);
                ops.push(KvOp::Delete(k));
                expected.push(1);
            }
            insert_next = !insert_next;
        } else if rng.gen_bool(PRESENT_FRACTION) {
            let k = model.keys[rng.gen_range(0..model.keys.len())];
            ops.push(KvOp::Search(k));
            expected.push(model.data[&k].0);
        } else {
            ops.push(KvOp::Search(model.fresh_key(&mut rng)));
            expected.push(MISS);
        }
    }
    Stream {
        initial,
        ops,
        expected,
    }
}

/// The model after the first `applied` operations of `stream`.
fn final_model(stream: &Stream, applied: usize) -> HashMap<u64, u64> {
    let mut m: HashMap<u64, u64> = stream.initial.iter().copied().collect();
    for op in &stream.ops[..applied] {
        match *op {
            KvOp::Insert(k, d) => {
                m.insert(k, d);
            }
            KvOp::Delete(k) => {
                m.remove(&k);
            }
            KvOp::Search(_) => {}
        }
    }
    m
}

fn spec() -> TableSpec {
    let layout = RecordLayout::new(KEY_BITS, false, DATA_BITS);
    TableSpec {
        config: TableConfig::single_slice(ROWS_LOG2, SLOTS_PER_ROW * layout.slot_bits(), layout),
        index: IndexSpec::XorFold {
            index_bits: ROWS_LOG2,
        },
    }
}

fn options(checkpoint_every: Option<u64>) -> DurableOptions {
    DurableOptions {
        sync: SyncPolicy::Flush,
        checkpoint_every,
        auto_commit: false,
        ..DurableOptions::default()
    }
}

fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

/// Set-up: create and load every shard, group-commit the load, and start
/// the service.
fn build(root: &Path, initial: &[(u64, u64)], checkpoint_every: u64) -> SearchService {
    let _ = std::fs::remove_dir_all(root);
    let mut engines: Vec<Box<dyn SearchEngine>> = Vec::with_capacity(SHARDS);
    for shard in 0..SHARDS {
        let mut table = DurableTable::create(
            &shard_dir(root, shard),
            &spec(),
            options(Some(checkpoint_every)),
        )
        .expect("durable shard created");
        for &(k, d) in initial.iter().filter(|(k, _)| shard_of(*k) == shard) {
            table
                .insert(Record::new(stored_key(k), d))
                .expect("initial records fit");
        }
        table.commit().expect("initial load commits");
        engines.push(Box::new(table));
    }
    let config = ServiceConfig {
        shards: SHARDS,
        queue_depth: QUEUE_DEPTH,
        ..ServiceConfig::default()
    };
    SearchService::new(config, engines).expect("service starts")
}

/// One completed operation.
#[derive(Debug, Clone, Copy, Default)]
struct Done {
    op: usize,
    write: bool,
    /// Generator lateness: actual submit − scheduled send.
    late_ns: u64,
    queue_wait_ns: u64,
    /// Submit → completion, the service's stamp.
    total_ns: u64,
    answer: u64,
}

impl Done {
    /// Scheduled send → completion.
    fn latency_ns(&self) -> u64 {
        self.late_ns + self.total_ns
    }
}

struct InFlight {
    ticket: Ticket,
    op: usize,
    late_ns: u64,
}

fn reply_answer(reply: &ServiceReply, tally: &mut Tally) -> u64 {
    match reply {
        ServiceReply::Search(EngineOutcome { hit, .. }) => hit.map_or(MISS, |h| h.data),
        ServiceReply::Insert(Ok(())) => WRITE_OK,
        ServiceReply::Insert(Err(_)) => {
            tally.errors += 1;
            WRITE_ERR
        }
        ServiceReply::Delete(n) => u64::from(*n),
        ServiceReply::Shed(_) => {
            tally.shed += 1;
            WRITE_ERR
        }
    }
}

/// The generator's state across rounds: the next operation of the stream,
/// the operations in flight, and every completion, in a buffer that holds
/// the whole stream (so it never grows during the run).
struct Generator<'a> {
    service: &'a SearchService,
    stream: &'a Stream,
    next_op: usize,
    inflight: VecDeque<InFlight>,
    done: Vec<Done>,
    tally: Tally,
}

impl<'a> Generator<'a> {
    /// A generator at the start of `stream`, with its buffers: `done` must
    /// hold the whole stream.
    fn new(
        service: &'a SearchService,
        stream: &'a Stream,
        inflight: VecDeque<InFlight>,
        done: Vec<Done>,
    ) -> Self {
        assert!(
            done.capacity() >= stream.ops.len(),
            "room for every completion"
        );
        Self {
            service,
            stream,
            next_op: 0,
            inflight,
            done,
            tally: Tally::default(),
        }
    }

    /// Records a completed operation.
    fn complete(&mut self, op: usize, late_ns: u64, c: &Completion) {
        push_within(
            &mut self.done,
            Done {
                op,
                write: self.stream.ops[op].is_write(),
                late_ns,
                queue_wait_ns: nanos(c.queue_wait),
                total_ns: nanos(c.total),
                answer: reply_answer(&c.reply, &mut self.tally),
            },
        );
    }

    /// Collects finished operations from the front of the in-flight queue.
    /// Completion times come from the service's stamp, so collecting late
    /// costs no accuracy, and one pass is O(1) however many are in flight.
    fn poll(&mut self) {
        while let Some(c) = self.inflight.front().and_then(|f| f.ticket.try_take()) {
            let f = self.inflight.pop_front().expect("front exists");
            self.complete(f.op, f.late_ns, &c);
        }
    }

    /// Sends the next operation, scheduled at `sched`.
    fn send(&mut self, sched: Instant, spans: &mut Option<&mut Spans>) {
        let op = self.next_op;
        let submitted = Instant::now();
        let admitted = self.service.try_submit(self.stream.ops[op].service_op());
        if let Some(s) = spans.as_deref_mut() {
            s.record("service.admit", submitted, Instant::now(), ROOT, 1);
        }
        self.tally.attempted += 1;
        match admitted {
            Ok(ticket) => self.inflight.push_back(InFlight {
                ticket,
                op,
                late_ns: nanos(submitted.saturating_duration_since(sched)),
            }),
            Err(_) => self.tally.rejected += 1,
        }
        self.next_op += 1;
    }

    /// Waits until every admitted operation has completed, blocking
    /// rather than polling so the shard workers have the cores.
    fn drain(&mut self) {
        while let Some(f) = self.inflight.pop_front() {
            let c = f.ticket.wait();
            self.complete(f.op, f.late_ns, &c);
        }
    }

    /// One open-loop window: `ops` operations on a fixed schedule of
    /// `rate` per second from now, then a drain. With `spans`, records
    /// `service.admit` around each `try_submit`.
    fn open_loop(&mut self, ops: usize, rate: f64, mut spans: Option<&mut Spans>) {
        let period_ns = 1e9 / rate;
        let start = Instant::now();
        for k in 0..ops {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let sched = start + Duration::from_nanos((k as f64 * period_ns) as u64);
            loop {
                self.poll();
                let now = Instant::now();
                if now >= sched {
                    break;
                }
                if sched - now > YIELD_SLACK {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            self.send(sched, &mut spans);
        }
        self.drain();
    }
}

/// The `q` percentile in microseconds (0 for an empty sample).
fn pct_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        ns_to_us(percentile(samples, q))
    }
}

/// Reopens every shard; returns the tables and the total open time.
fn reopen(root: &Path) -> (Vec<DurableTable>, Duration) {
    let start = Instant::now();
    let tables = (0..SHARDS)
        .map(|s| DurableTable::open(&shard_dir(root, s), options(None)).expect("shard reopens"))
        .collect();
    (tables, start.elapsed())
}

/// Whether the reopened shards hold exactly the model, and answer it.
fn matches_model(tables: &[DurableTable], model: &HashMap<u64, u64>) -> bool {
    let mut ok = true;
    for (shard, table) in tables.iter().enumerate() {
        let mut want: Vec<(u64, u64)> = model
            .iter()
            .filter(|(k, _)| shard_of(**k) == shard)
            .map(|(k, d)| (*k, *d))
            .collect();
        #[allow(clippy::cast_possible_truncation)] // 64-bit keys
        let mut got: Vec<(u64, u64)> = table
            .records()
            .iter()
            .map(|r| (r.key.value() as u64, r.data))
            .collect();
        want.sort_unstable();
        got.sort_unstable();
        if want != got {
            eprintln!(
                "kv-mixed: shard {shard} reopened with {} records, model has {}",
                got.len(),
                want.len()
            );
            ok = false;
        }
        let wrong = want
            .iter()
            .filter(|(k, d)| {
                SearchEngine::search(table, &search_key(*k))
                    .hit
                    .map(|h| h.data)
                    != Some(*d)
            })
            .count();
        if wrong > 0 {
            eprintln!("kv-mixed: shard {shard} answers {wrong} model keys wrongly after reopen");
            ok = false;
        }
    }
    ok
}

/// Runs `kv-mixed`.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn run(config: &RunConfig) -> Outcome {
    let rate = OFFERED_RATE;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let window_ops = (rate * WINDOW_SECONDS) as usize;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let max_rounds = (config.seconds / WINDOW_SECONDS).ceil() as usize + 1;
    // Inputs and reference answers: generated before set-up, untimed.
    let n_ops = max_rounds * window_ops;
    let stream = generate(config.seed, n_ops);
    let writes_per_shard = rate * config.seconds * WRITE_FRACTION / SHARDS as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let checkpoint_every = ((writes_per_shard / CHECKPOINTS_PER_RUN) as u64).max(1_000);
    let root = crate::out_dir().join(format!("kv-{}", std::process::id()));
    let spare = root.with_extension("setup");
    let mut schedule = Schedule::new(config, Some(Gauge::new(Kind::Wakeup)));
    let mut p50s = Vec::with_capacity(max_rounds);
    let mut pair_ratios = Vec::with_capacity(max_rounds);
    let done = Vec::with_capacity(n_ops);
    let inflight = VecDeque::with_capacity(IN_FLIGHT);
    let mut window_latency = Vec::with_capacity(window_ops);
    let heap_baseline = crate::reset_peak_heap();

    let service = schedule.setup_live(|| build(&root, &stream.initial, checkpoint_every));
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let mut gen = Generator::new(&service, &stream, inflight, done);
    // The traced windows' completions and service counters.
    let mut traced_done = Vec::new();
    let (mut ops, mut drains, mut parks) = (0u64, 0u64, 0u64);
    let mut untraced_p50 = 0.0;
    let mut window_time = Duration::ZERO;
    let mut n = 0usize;
    schedule.start(config);
    while schedule.more() && gen.next_op + window_ops <= stream.ops.len() {
        // The traced run traces every other window.
        let traced = config.trace && n % 2 == 1;
        let before = traced.then(|| service.snapshot().totals());
        let first = gen.done.len();
        let t = Instant::now();
        gen.open_loop(window_ops, rate, traced.then_some(&mut spans));
        window_time += t.elapsed();
        let window = &gen.done[first..];
        window_latency.clear();
        window_latency.extend(window.iter().map(Done::latency_ns));
        let p50 = pct_us(&mut window_latency, 0.5);
        if let Some(before) = before {
            let after = service.snapshot().totals();
            ops += (after.searches + after.inserts + after.deletes)
                - (before.searches + before.inserts + before.deletes);
            drains += after.batches - before.batches;
            parks += after.parks - before.parks;
            traced_done.extend_from_slice(window);
            push_within(&mut pair_ratios, p50 / untraced_p50);
        } else {
            untraced_p50 = p50;
            push_within(&mut p50s, p50 * schedule.factor());
        }
        n += 1;
        schedule.setup_between(
            || build(&spare, &stream.initial, checkpoint_every),
            SearchService::shutdown,
        );
    }
    out.set("peak_heap_mb", crate::peak_heap_mb(heap_baseline));
    let Generator {
        next_op,
        done,
        tally,
        ..
    } = gen;
    service.shutdown();

    // Every answer against the model, then every acknowledged write
    // against the reopened shards.
    let wrong = done
        .iter()
        .filter(|d| d.answer != stream.expected[d.op])
        .count();
    if wrong > 0 {
        eprintln!("kv-mixed: {wrong} answers disagree with the model");
    }
    let (tables, recover) = reopen(&root);
    let model = final_model(&stream, next_op);
    out.correct = wrong == 0 && tally.failed() == 0 && matches_model(&tables, &model);
    out.tally = tally;

    schedule.setup_finish(
        || build(&spare, &stream.initial, checkpoint_every),
        SearchService::shutdown,
    );
    let _ = std::fs::remove_dir_all(&spare);
    out.set("setup_s", schedule.setup_s());
    out.set("ops_per_s", done.len() as f64 / window_time.as_secs_f64());
    out.set("latency_p50_us", median_f64(&p50s));
    out.set("host.pass_us", schedule.pass_us());

    if config.trace {
        if !pair_ratios.is_empty() {
            out.set(
                "trace.overhead_pct",
                (median_f64(&pair_ratios) - 1.0) * 100.0,
            );
        }
        out.set("service.ops_per_drain", ops as f64 / drains.max(1) as f64);
        out.set("service.parks_per_op", parks as f64 / ops.max(1) as f64);
        let mut all: Vec<u64> = traced_done.iter().map(Done::latency_ns).collect();
        out.set("latency_p99_us", pct_us(&mut all, 0.99));
        let recovered: usize = tables
            .iter()
            .map(|t| t.recovery().snapshot_records + t.recovery().replayed_records)
            .sum();
        out.set("storage.recover_s", recover.as_secs_f64());
        out.set(
            "storage.replay_ns_per_record",
            nanos(recover) as f64 / recovered.max(1) as f64,
        );
        traced_layers(&mut out, &mut spans, &stream, &traced_done, &root);
        out.spans = Some(spans);
    }
    drop(tables);
    let _ = std::fs::remove_dir_all(&root);
    out
}

/// The traced run's service, generator, table and storage metrics.
#[allow(clippy::cast_precision_loss)]
fn traced_layers(
    out: &mut Outcome,
    spans: &mut Spans,
    stream: &Stream,
    traced: &[Done],
    root: &Path,
) {
    let pick = |write: bool, f: fn(&Done) -> u64| -> Vec<u64> {
        traced.iter().filter(|d| d.write == write).map(f).collect()
    };
    out.set(
        "service.read_p50_us",
        pct_us(&mut pick(false, Done::latency_ns), 0.5),
    );
    out.set(
        "service.read_p99_us",
        pct_us(&mut pick(false, Done::latency_ns), 0.99),
    );
    out.set(
        "service.write_p50_us",
        pct_us(&mut pick(true, Done::latency_ns), 0.5),
    );
    out.set(
        "service.write_p99_us",
        pct_us(&mut pick(true, Done::latency_ns), 0.99),
    );
    let mut wait: Vec<u64> = traced.iter().map(|d| d.queue_wait_ns).collect();
    out.set("service.queue_wait_us.p50", pct_us(&mut wait, 0.5));
    out.set("service.queue_wait_us.p99", pct_us(&mut wait, 0.99));
    let residence = |d: &Done| d.total_ns.saturating_sub(d.queue_wait_ns);
    let mut all_residence: Vec<u64> = traced.iter().map(residence).collect();
    out.set("service.residence_us.p50", pct_us(&mut all_residence, 0.5));
    let mut late: Vec<u64> = traced.iter().map(|d| d.late_ns).collect();
    out.set("gen.late_us.p50", pct_us(&mut late, 0.5));
    out.set("gen.late_us.p99", pct_us(&mut late, 0.99));
    let mut admit = spans.durations("service.admit");
    out.set("service.admit_ns", percentile(&mut admit, 0.5) as f64);

    // The table layer, direct, on shard 0: a twin loaded with its initial
    // records, searched with its share of the run's search keys, then fed
    // its share of the write stream.
    let shard0: Vec<Record> = stream
        .initial
        .iter()
        .filter(|(k, _)| shard_of(*k) == 0)
        .map(|&(k, d)| Record::new(stored_key(k), d))
        .collect();
    let load = |t: &mut CaRamTable| {
        for r in &shard0 {
            t.insert(*r).expect("initial records fit");
        }
    };
    let mut table = spec().build().expect("spec builds");
    load(&mut table);
    let mut scalar = kernel::with_forced(Kernel::Scalar, || spec().build().expect("spec builds"));
    load(&mut scalar);
    let keys: Vec<SearchKey> = stream
        .ops
        .iter()
        .filter(|o| !o.is_write() && shard_of(o.key()) == 0)
        .take(DIRECT_SEARCHES)
        .map(|o| search_key(o.key()))
        .collect();
    layers::table_search(spans, out, &table, &scalar, &keys);
    let search_ns = out.get("table.search_ns_per_key").unwrap_or(0.0);
    let mut reads: Vec<u64> = traced.iter().filter(|d| !d.write).map(residence).collect();
    let read_residence_ns = if reads.is_empty() {
        0.0
    } else {
        percentile(&mut reads, 0.5) as f64
    };
    out.set("service.self_ns_per_key", read_residence_ns - search_ns);
    let writes: Vec<ServiceOp> = stream
        .ops
        .iter()
        .filter(|o| o.is_write() && shard_of(o.key()) == 0)
        .take(DIRECT_WRITES)
        .map(|o| KvOp::service_op(*o))
        .collect();
    layers::table_writes(spans, out, &mut table, &writes);

    // The storage layer, direct: replay the same writes into a fresh
    // durable shard, committing in groups of the size the drains formed.
    let writes_per_drain = out.get("service.ops_per_drain").unwrap_or(1.0) * WRITE_FRACTION;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let group = (writes_per_drain.round() as usize).max(1);
    let dir = root.join("direct");
    let mut durable = DurableTable::create(
        &dir,
        &spec(),
        DurableOptions {
            segment_limit: 1 << 30,
            ..options(None)
        },
    )
    .expect("direct durable table created");
    for r in &shard0 {
        durable.insert(*r).expect("initial records fit");
    }
    durable.commit().expect("initial load commits");
    for chunk in writes.chunks(group) {
        for w in chunk {
            match *w {
                ServiceOp::Insert(r) => spans
                    .time("storage.apply", ROOT, 1, || durable.insert(r))
                    .expect("durable insert"),
                ServiceOp::Delete(k) => {
                    let n = spans.time("storage.apply", ROOT, 1, || durable.delete(&k));
                    n.map(drop).expect("durable delete");
                }
                ServiceOp::Search(_) | ServiceOp::InsertSorted(_) => {
                    unreachable!("the stream writes with appends and deletes")
                }
            }
        }
        spans
            .time("storage.commit", ROOT, chunk.len() as u64, || {
                durable.commit()
            })
            .expect("durable commit");
    }
    out.set("storage.apply_ns", spans.ns_per_item("storage.apply"));
    let mut commits = spans.durations("storage.commit");
    out.set("storage.commit_us.p50", pct_us(&mut commits, 0.5));
    out.set("storage.commit_us.p99", pct_us(&mut commits, 0.99));
    out.set(
        "storage.wal_bytes_per_op",
        durable.wal_committed_bytes() as f64 / durable.ops_logged().max(1) as f64,
    );
    for _ in 0..5 {
        spans
            .time("storage.checkpoint", ROOT, 1, || durable.checkpoint())
            .expect("checkpoint");
    }
    let mut checkpoints = spans.durations("storage.checkpoint");
    out.set(
        "storage.checkpoint_ms",
        percentile(&mut checkpoints, 0.5) as f64 / 1e6,
    );
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_balanced() {
        let a = generate(7, 20_000);
        let b = generate(7, 20_000);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.expected, b.expected);
        assert_eq!(a.initial.len(), INITIAL_RECORDS);
        let inserts = a
            .ops
            .iter()
            .filter(|o| matches!(o, KvOp::Insert(..)))
            .count();
        let deletes = a
            .ops
            .iter()
            .filter(|o| matches!(o, KvOp::Delete(_)))
            .count();
        assert!(inserts.abs_diff(deletes) <= 1, "{inserts} vs {deletes}");
        let writes = inserts + deletes;
        assert!((1_700..2_300).contains(&writes), "{writes} writes");
        let misses = a.expected.iter().filter(|&&e| e == MISS).count();
        assert!(misses > 2_000, "{misses} absent-key searches");
    }

    #[test]
    fn expected_answers_follow_the_model_in_stream_order() {
        let s = generate(3, 5_000);
        let mut m: HashMap<u64, u64> = s.initial.iter().copied().collect();
        for (op, want) in s.ops.iter().zip(&s.expected) {
            match *op {
                KvOp::Search(k) => assert_eq!(m.get(&k).copied().unwrap_or(MISS), *want),
                KvOp::Insert(k, d) => assert!(m.insert(k, d).is_none(), "insert of a new key"),
                KvOp::Delete(k) => assert!(m.remove(&k).is_some(), "delete of a live key"),
            }
        }
        assert_eq!(m, final_model(&s, s.ops.len()));
    }

    #[test]
    fn failures_are_counted_per_reply_kind() {
        let mut t = Tally::default();
        let shed = ServiceReply::Shed(ca_ram_service::ShedReason::DeadlineExpired);
        assert_eq!(reply_answer(&shed, &mut t), WRITE_ERR);
        let err = ServiceReply::Insert(Err(ca_ram_core::CaRamError::BadConfig("full".into())));
        assert_eq!(reply_answer(&err, &mut t), WRITE_ERR);
        assert_eq!(reply_answer(&ServiceReply::Delete(1), &mut t), 1);
        assert_eq!(
            reply_answer(&ServiceReply::Insert(Ok(())), &mut t),
            WRITE_OK
        );
        assert_eq!((t.shed, t.errors, t.failed()), (1, 1, 2));
    }
}
