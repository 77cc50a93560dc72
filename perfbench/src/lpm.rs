//! `lpm-route`: IPv4 longest-prefix match at paper scale.
//!
//! The calibrated AS1103-like table (186,760 prefixes) goes into Table 2
//! design A behind a single-shard `SearchService` (ternary prefixes cannot
//! route across shards). A closed-loop generator keeps `WINDOW` batches of
//! `BATCH` member addresses in flight through `try_submit_batch`, in rounds
//! of `ROUND_BATCHES` batches, each followed by a gauge pass that scales its
//! times.

use std::collections::{HashSet, VecDeque};
use std::time::{Duration, Instant};

use ca_ram_bench::designs::{build_ip_table, ip_designs, load_prefixes};
use ca_ram_bench::driver::{bgp_config, member_trace, AS1103_PREFIXES};
use ca_ram_core::engine::EngineOutcome;
use ca_ram_core::kernel::{self, Kernel};
use ca_ram_core::key::SearchKey;
use ca_ram_core::layout::Record;
use ca_ram_core::table::CaRamTable;
use ca_ram_service::{BatchTicket, SearchService, ServiceConfig, ServiceReply};
use ca_ram_workloads::bgp::generate;
use ca_ram_workloads::prefix::Ipv4Prefix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::gauge::{Gauge, Kind};
use crate::layers;
use crate::spans::{Spans, ROOT};
use crate::stats::{median_f64, nanos, ns_to_us, percentile, Tally};
use crate::{push_within, Outcome, RunConfig, Schedule};

/// Distinct trace addresses; the generator cycles through them.
const TRACE_KEYS: usize = 1 << 18;
/// Addresses per submitted batch.
pub const BATCH: usize = 512;
/// Batches kept in flight.
pub const WINDOW: usize = 4;
/// Service queue depth, in ring entries. The degradation ladder measures
/// queue fill in keys, so the default depth (1,024) would put the window's
/// 2,048 keys past its coalescing rung; at this depth they stay below the
/// first rung and the service runs its normal path.
const QUEUE_DEPTH: usize = 8_192;
/// Batches per round (2^16 lookups); a gauge pass follows each round, and
/// the end-to-end figures are medians over rounds.
const ROUND_BATCHES: usize = 128;
/// Routes deleted and reinserted for the traced `table.insert`/`delete`.
const CHURN_ROUTES: usize = 2_000;

/// The answer encoding shared by the reference and the check: the matched
/// prefix as `len << 32 | network`, or [`MISS`]. A lookup the service did
/// not answer is [`REJECTED`] (its batch was refused at admission) or
/// [`SHED`]; any other reply is [`NOT_A_SEARCH`], which no reference
/// answer equals.
pub const MISS: u64 = u64::MAX;
const REJECTED: u64 = u64::MAX - 1;
const SHED: u64 = u64::MAX - 2;
const NOT_A_SEARCH: u64 = u64::MAX - 3;

fn pack(network: u32, len: u32) -> u64 {
    (u64::from(len) << 32) | u64::from(network)
}

fn mask(len: u32) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

/// An independent LPM reference: one hash set of networks per prefix
/// length, probed from /32 down.
#[derive(Debug)]
pub struct LpmReference {
    by_len: Vec<HashSet<u32>>,
}

impl LpmReference {
    /// Indexes `prefixes`.
    #[must_use]
    pub fn new(prefixes: &[Ipv4Prefix]) -> Self {
        let mut by_len = vec![HashSet::new(); 33];
        for p in prefixes {
            by_len[usize::from(p.len())].insert(p.addr());
        }
        Self { by_len }
    }

    /// The longest prefix containing `addr`, packed, or [`MISS`].
    #[must_use]
    pub fn lookup(&self, addr: u32) -> u64 {
        (0..=32u32)
            .rev()
            .find(|&len| self.by_len[len as usize].contains(&(addr & mask(len))))
            .map_or(MISS, |len| pack(addr & mask(len), len))
    }
}

/// `trace` in an order the seed shuffles. `member_trace` walks the prefixes
/// in table order, so neighbouring lookups share rows and one stretch of
/// the trace costs up to an eighth more than another; shuffled, every
/// batch is a uniform sample, as the paper's `AMALu` trace is.
fn shuffled(mut trace: Vec<SearchKey>, seed: u64) -> Vec<SearchKey> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5F1E);
    for i in (1..trace.len()).rev() {
        trace.swap(i, rng.gen_range(0..=i));
    }
    trace
}

/// The packed answer an engine gave.
#[allow(clippy::cast_possible_truncation)] // IPv4 keys are 32 bits wide
fn answer(outcome: &EngineOutcome) -> u64 {
    outcome
        .hit
        .map_or(MISS, |h| pack(h.key.value() as u32, h.key.care_count()))
}

fn build_table(prefixes: &[Ipv4Prefix], weights: &[f64]) -> CaRamTable {
    let mut table = build_ip_table(&ip_designs()[0]);
    load_prefixes(&mut table, prefixes, weights);
    table
}

fn build_service(prefixes: &[Ipv4Prefix], weights: &[f64]) -> SearchService {
    let table = build_table(prefixes, weights);
    let config = ServiceConfig {
        queue_depth: QUEUE_DEPTH,
        ..ServiceConfig::single_shard()
    };
    SearchService::new(config, vec![Box::new(table)]).expect("single-shard service starts")
}

/// One round's per-batch and per-lookup buffers, allocated once before the
/// heap baseline and reused.
#[derive(Debug)]
struct RoundBuffers {
    /// Per batch: submit → completion, benchmark clock.
    latency_ns: Vec<u64>,
    /// Per batch: the service's queue wait and residence (total − wait).
    queue_wait_ns: Vec<u64>,
    residence_ns: Vec<u64>,
    /// Per lookup, in trace order from the round's first: the packed answer.
    answers: Vec<u64>,
}

impl RoundBuffers {
    fn new() -> Self {
        Self {
            latency_ns: Vec::with_capacity(ROUND_BATCHES),
            queue_wait_ns: Vec::with_capacity(ROUND_BATCHES),
            residence_ns: Vec::with_capacity(ROUND_BATCHES),
            answers: Vec::with_capacity(ROUND_BATCHES * BATCH),
        }
    }
}

/// One closed-loop round: `ROUND_BATCHES` batches from trace position
/// `first`, `WINDOW` of them in flight, filling `b`; returns the round's
/// time. A rejected batch counts in `tally` and its lookups answer
/// [`REJECTED`]. With `spans`, records `lpm.batch`
/// (submit → completion) with children `service.admit`
/// (`try_submit_batch`) and `service.wait` (`BatchTicket::wait`).
fn round(
    service: &SearchService,
    trace: &[SearchKey],
    first: usize,
    b: &mut RoundBuffers,
    tally: &mut Tally,
    mut spans: Option<&mut Spans>,
) -> Duration {
    b.latency_ns.clear();
    b.queue_wait_ns.clear();
    b.residence_ns.clear();
    b.answers.clear();
    let mut window: VecDeque<(Option<BatchTicket>, Instant, u32)> = VecDeque::with_capacity(WINDOW);
    let mut submitted_batches = 0usize;
    let start = Instant::now();
    let mut submit =
        |sent: &mut usize, window: &mut VecDeque<_>, spans: &mut Option<&mut Spans>| {
            let at = (first + *sent * BATCH) % trace.len();
            let keys = &trace[at..at + BATCH];
            tally.attempted += BATCH as u64;
            let submitted = Instant::now();
            let ticket = service.try_submit_batch(keys);
            let root = spans.as_deref_mut().map_or(ROOT, |s| {
                let root = s.record("lpm.batch", submitted, submitted, ROOT, BATCH as u64);
                s.record("service.admit", submitted, Instant::now(), root, 1);
                root
            });
            if ticket.is_err() {
                tally.rejected += BATCH as u64;
            }
            window.push_back((ticket.ok(), submitted, root));
            *sent += 1;
        };
    for _ in 0..WINDOW {
        submit(&mut submitted_batches, &mut window, &mut spans);
    }
    while let Some((ticket, submitted, root)) = window.pop_front() {
        match ticket {
            Some(ticket) => {
                let waited = Instant::now();
                let done_batch = ticket.wait();
                let done = Instant::now();
                if let Some(s) = spans.as_deref_mut() {
                    s.record("service.wait", waited, done, root, 1);
                    s.close(root, done);
                }
                b.latency_ns.push(nanos(done - submitted));
                b.queue_wait_ns.push(nanos(done_batch.queue_wait));
                b.residence_ns.push(nanos(
                    done_batch.total.saturating_sub(done_batch.queue_wait),
                ));
                b.answers
                    .extend(done_batch.replies.iter().map(|reply| match reply {
                        ServiceReply::Search(o) => answer(o),
                        ServiceReply::Shed(_) => SHED,
                        _ => NOT_A_SEARCH,
                    }));
            }
            None => b.answers.extend([REJECTED; BATCH]),
        }
        if submitted_batches < ROUND_BATCHES {
            submit(&mut submitted_batches, &mut window, &mut spans);
        }
    }
    start.elapsed()
}

/// Checks a round's answers against the reference answers; counts sheds
/// in `tally` and returns the wrong answers.
fn check(b: &RoundBuffers, first: usize, expected: &[u64], tally: &mut Tally) -> u64 {
    let mut wrong = 0;
    for (k, &got) in b.answers.iter().enumerate() {
        match got {
            // Rejected batches were counted at admission.
            REJECTED => {}
            SHED => tally.shed += 1,
            _ => wrong += u64::from(got != expected[(first + k) % expected.len()]),
        }
    }
    wrong
}

/// Runs `lpm-route`.
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn run(config: &RunConfig) -> Outcome {
    // Inputs and reference answers: generated before set-up, untimed. The
    // table is the calibrated AS1103-like snapshot; the seed draws the
    // member addresses looked up.
    let prefixes = generate(&bgp_config(AS1103_PREFIXES, None));
    let weights = vec![1.0; prefixes.len()];
    let trace = shuffled(
        member_trace(&prefixes, TRACE_KEYS, config.seed ^ 0x5EED),
        config.seed,
    );
    let expected: Vec<u64> = {
        let reference = LpmReference::new(&prefixes);
        trace
            .iter()
            .map(|k| reference.lookup(u32::try_from(k.value()).expect("IPv4 key")))
            .collect()
    };
    let mut schedule = Schedule::new(config, Some(Gauge::new(Kind::ComputePair)));
    let capacity = crate::round_capacity(config);
    // Per round: lookups/s and batch latency percentiles, scaled to the
    // reference host; in the traced run, untraced/traced time pairs.
    let mut rates = Vec::with_capacity(capacity);
    let mut p50s = Vec::with_capacity(capacity);
    let mut p99s = Vec::with_capacity(capacity);
    let mut pair_ratios = Vec::with_capacity(capacity);
    let mut buffers = RoundBuffers::new();
    let heap_baseline = crate::reset_peak_heap();

    let service = schedule.setup_live(|| build_service(&prefixes, &weights));
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let mut wrong = 0u64;
    // The traced run's per-batch samples and service counters.
    let (mut latency, mut wait, mut residence) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ops, mut drains, mut parks) = (0u64, 0u64, 0u64);
    let mut untraced_time = Duration::ZERO;
    let mut n = 0usize;
    schedule.start(config);
    while schedule.more() {
        // The traced run traces every other round.
        let traced = config.trace && n % 2 == 1;
        let first = (n * ROUND_BATCHES * BATCH) % trace.len();
        let before = traced.then(|| service.snapshot().totals());
        let took = round(
            &service,
            &trace,
            first,
            &mut buffers,
            &mut tally,
            traced.then_some(&mut spans),
        );
        let factor = schedule.factor();
        wrong += check(&buffers, first, &expected, &mut tally);
        if let Some(before) = before {
            let after = service.snapshot().totals();
            ops += (after.searches + after.inserts + after.deletes)
                - (before.searches + before.inserts + before.deletes);
            drains += after.batches - before.batches;
            parks += after.parks - before.parks;
            push_within(
                &mut pair_ratios,
                took.as_secs_f64() / untraced_time.as_secs_f64(),
            );
        } else {
            untraced_time = took;
            let lookups = buffers.answers.len() as f64;
            push_within(&mut rates, lookups / (took.as_secs_f64() * factor));
            let lat = &mut buffers.latency_ns;
            push_within(&mut p50s, percentile(lat, 0.5) as f64 * factor / 1e3);
            push_within(&mut p99s, percentile(lat, 0.99) as f64 * factor / 1e3);
        }
        if config.trace {
            latency.extend_from_slice(&buffers.latency_ns);
            wait.extend_from_slice(&buffers.queue_wait_ns);
            residence.extend_from_slice(&buffers.residence_ns);
        }
        n += 1;
        schedule.setup_between(
            || build_service(&prefixes, &weights),
            SearchService::shutdown,
        );
    }
    out.set("peak_heap_mb", crate::peak_heap_mb(heap_baseline));
    service.shutdown();
    schedule.setup_finish(
        || build_service(&prefixes, &weights),
        SearchService::shutdown,
    );

    out.correct = wrong == 0;
    if wrong > 0 {
        eprintln!("lpm-route: {wrong} answers disagree with the reference");
    }
    out.tally = tally;
    out.set("setup_s", schedule.setup_s());
    out.set("ops_per_s", median_f64(&rates));
    out.set("latency_p50_us", median_f64(&p50s));
    out.set("latency_p99_us", median_f64(&p99s));
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
        out.set(
            "service.read_p50_us",
            ns_to_us(percentile(&mut latency, 0.5)),
        );
        out.set(
            "service.read_p99_us",
            ns_to_us(percentile(&mut latency, 0.99)),
        );
        let mut admit = spans.durations("service.admit");
        out.set("service.admit_ns", percentile(&mut admit, 0.5) as f64);
        out.set(
            "service.queue_wait_us.p50",
            ns_to_us(percentile(&mut wait, 0.5)),
        );
        out.set(
            "service.queue_wait_us.p99",
            ns_to_us(percentile(&mut wait, 0.99)),
        );
        let residence_p50 = percentile(&mut residence, 0.5);
        out.set("service.residence_us.p50", ns_to_us(residence_p50));

        // The table layer, direct: twins of the served table.
        let table = build_table(&prefixes, &weights);
        let scalar = kernel::with_forced(Kernel::Scalar, || build_table(&prefixes, &weights));
        layers::table_search(&mut spans, &mut out, &table, &scalar, &trace);
        let search_ns = out.get("table.search_ns_per_key").unwrap_or(0.0);
        #[allow(clippy::cast_precision_loss)]
        out.set(
            "service.self_ns_per_key",
            residence_p50 as f64 / BATCH as f64 - search_ns,
        );
        // Route churn: withdraw and re-announce a sample of routes.
        let mut table = table;
        let step = prefixes.len() / CHURN_ROUTES;
        let routes: Vec<Record> = prefixes
            .iter()
            .step_by(step.max(1))
            .take(CHURN_ROUTES)
            .map(|p| Record::new(p.to_ternary_key(), 0))
            .collect();
        layers::table_writes(&mut spans, &mut out, &mut table, &layers::churn(&routes));
        out.spans = Some(spans);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_ram_workloads::bgp::BgpConfig;

    /// The longest prefix containing `addr` by scanning every prefix.
    fn brute_force(prefixes: &[Ipv4Prefix], addr: u32) -> u64 {
        prefixes
            .iter()
            .filter(|p| p.contains(addr))
            .max_by_key(|p| p.len())
            .map_or(MISS, |p| pack(p.addr(), u32::from(p.len())))
    }

    #[test]
    fn reference_agrees_with_a_brute_force_scan() {
        let prefixes = generate(&BgpConfig::scaled(2_000));
        let reference = LpmReference::new(&prefixes);
        let mut rng = SmallRng::seed_from_u64(11);
        let members = member_trace(&prefixes, 2_000, 3);
        let mut hits = 0;
        for k in &members {
            let addr = u32::try_from(k.value()).unwrap();
            let want = brute_force(&prefixes, addr);
            assert_eq!(reference.lookup(addr), want, "{addr:#010x}");
            hits += usize::from(want != MISS);
        }
        assert_eq!(hits, members.len(), "member addresses always match");
        for _ in 0..2_000 {
            let addr: u32 = rng.gen();
            assert_eq!(reference.lookup(addr), brute_force(&prefixes, addr));
        }
    }

    #[test]
    fn reference_prefers_the_longest_match_and_handles_the_default_route() {
        let prefixes = [
            Ipv4Prefix::new(0, 0),
            Ipv4Prefix::new(0x0A00_0000, 8),
            Ipv4Prefix::new(0x0A01_0000, 16),
            Ipv4Prefix::new(0x0A01_0203, 32),
        ];
        let reference = LpmReference::new(&prefixes);
        assert_eq!(reference.lookup(0x0A01_0203), pack(0x0A01_0203, 32));
        assert_eq!(reference.lookup(0x0A01_0204), pack(0x0A01_0000, 16));
        assert_eq!(reference.lookup(0x0A02_0000), pack(0x0A00_0000, 8));
        assert_eq!(reference.lookup(0x0B00_0000), pack(0, 0));
        assert_eq!(LpmReference::new(&prefixes[1..]).lookup(0x0B00_0000), MISS);
    }

    #[test]
    fn table_answers_match_the_reference_on_a_small_table() {
        let prefixes = generate(&BgpConfig::scaled(3_000));
        let weights = vec![1.0; prefixes.len()];
        let table = build_table(&prefixes, &weights);
        let reference = LpmReference::new(&prefixes);
        for k in member_trace(&prefixes, 3_000, 5) {
            let want = reference.lookup(u32::try_from(k.value()).unwrap());
            let outcome = ca_ram_core::engine::SearchEngine::search(&table, &k);
            assert_eq!(answer(&outcome), want);
        }
    }
}
