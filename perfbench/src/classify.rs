//! `classify-5tuple`: five-tuple packet classification through the pattern
//! compiler, in one thread with no service.
//!
//! The rules and geometry are those of `perf_smoke`'s `packet-class` row:
//! 500 rules compiled onto a 2^11-row, 16-slot ternary table, probed with
//! an 80%-hit flow trace. Each packet is `CompiledPlan::lower_query` plus
//! `QueryPlan::execute` against the table, in rounds of `ROUND_PACKETS`
//! packets, each followed by a gauge pass that scales its times.

use std::time::{Duration, Instant};

use ca_ram_core::kernel::{self, Kernel};
use ca_ram_core::key::SearchKey;
use ca_ram_core::layout::Record;
use ca_ram_core::oracle::{Expected, ReferenceModel};
use ca_ram_core::pattern::{compile, CompiledPlan, GeometryHint, Pattern};
use ca_ram_core::table::CaRamTable;
use ca_ram_workloads::packet::{self, ClassifierRule, FiveTuple, PacketClassConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::gauge::{Gauge, Kind};
use crate::layers;
use crate::spans::{Spans, ROOT};
use crate::stats::{median_f64, nanos, percentile, Tally};
use crate::{push_within, Outcome, RunConfig, Schedule};

/// Rules in the classifier, and the seed of `perf_smoke`'s rule set: the
/// rules are fixed, the workload seed draws the flow trace.
const RULES: usize = 500;
const RULE_SEED: u64 = 0x1103;
/// Distinct packets in the flow trace; the loop cycles through them.
const TRACE_PACKETS: usize = 20_000;
/// Packets per round; a gauge pass follows each round.
const ROUND_PACKETS: usize = 1_000;
/// Trace packets drawn from each rule's match set; the rest of the trace
/// (20%, as in `packet-class`) are random headers.
const HITS_PER_RULE: usize = TRACE_PACKETS * 4 / 5 / RULES;
/// Rules whose entries are deleted and reinserted for the traced
/// `table.insert`/`delete`.
const CHURN_RULES: usize = 50;
/// Trace probes searched directly for the traced `table` metrics.
const DIRECT_PROBES: usize = 2_000;

fn geometry() -> GeometryHint {
    GeometryHint {
        rows_log2: 11,
        slots_per_row: 16,
        data_bits: 32,
    }
}

/// The lowered entries of every rule, in rule order.
fn lower_rules(plan: &CompiledPlan, rules: &[ClassifierRule]) -> Vec<Vec<Record>> {
    rules
        .iter()
        .map(|r| {
            plan.lower_entry(&r.to_pattern(), r.action)
                .expect("generated rules lower")
        })
        .collect()
}

/// Set-up: compile the spec, lower every rule and load the table.
fn build(rules: &[ClassifierRule]) -> (CompiledPlan, CaRamTable) {
    let plan = compile(&packet::classifier_spec(), &geometry()).expect("five-tuple spec compiles");
    let mut table = plan.build_table().expect("compiled geometry is valid");
    for records in lower_rules(&plan, rules) {
        for rec in records {
            table.insert(rec).expect("the classifier fits its table");
        }
    }
    (plan, table)
}

/// The flow trace: `HITS_PER_RULE` members of every rule and random
/// headers for the rest, in an order the seed shuffles. `perf_smoke` draws
/// the rule of each hit at random instead; a few rules cost far more per
/// packet than the rest, so how many of their packets a trace holds moved
/// packets/s by a fifth between seeds. Stratified, every seed's trace
/// holds the same share of each rule.
fn flow_trace(rules: &[ClassifierRule], seed: u64) -> Vec<FiveTuple> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut trace: Vec<FiveTuple> = rules
        .iter()
        .flat_map(|r| std::iter::repeat_n(r, HITS_PER_RULE))
        .map(|r| r.random_member(&mut rng))
        .collect();
    while trace.len() < TRACE_PACKETS {
        trace.push(FiveTuple {
            src: rng.gen(),
            dst: rng.gen(),
            sport: rng.gen(),
            dport: rng.gen(),
            proto: rng.gen(),
        });
    }
    // Fisher-Yates.
    for i in (1..trace.len()).rev() {
        trace.swap(i, rng.gen_range(0..=i));
    }
    trace
}

fn query(pkt: &FiveTuple) -> Pattern {
    Pattern::Exact { value: pkt.pack() }
}

/// One round's per-packet buffers, allocated once before the heap
/// baseline and reused.
#[derive(Debug)]
struct RoundBuffers {
    /// Per packet: lower + execute, nanoseconds.
    latency_ns: Vec<u64>,
    /// Per packet: the action reported, or `None` for a miss.
    answers: Vec<Option<u64>>,
}

impl RoundBuffers {
    fn new() -> Self {
        Self {
            latency_ns: Vec::with_capacity(ROUND_PACKETS),
            answers: Vec::with_capacity(ROUND_PACKETS),
        }
    }
}

/// Classifies `ROUND_PACKETS` trace packets from trace position `first`
/// (cycling), filling `b`; returns the round's time. With `spans`, records
/// `classify.packet` with children `pattern.lower` and `pattern.execute`.
fn round(
    plan: &CompiledPlan,
    table: &CaRamTable,
    trace: &[FiveTuple],
    first: usize,
    b: &mut RoundBuffers,
    mut spans: Option<&mut Spans>,
) -> Duration {
    b.latency_ns.clear();
    b.answers.clear();
    let start = Instant::now();
    for k in 0..ROUND_PACKETS {
        let pkt = &trace[(first + k) % trace.len()];
        let t0 = Instant::now();
        let q = plan.lower_query(&query(pkt)).expect("headers lower");
        let t1 = spans.is_some().then(Instant::now);
        let o = q.execute(table);
        let now = Instant::now();
        if let (Some(s), Some(t1)) = (spans.as_deref_mut(), t1) {
            let root = s.record("classify.packet", t0, now, ROOT, 1);
            s.record("pattern.lower", t0, t1, root, 1);
            s.record("pattern.execute", t1, now, root, 1);
        }
        b.latency_ns.push(nanos(now - t0));
        b.answers.push(o.hit.map(|h| h.data));
    }
    start.elapsed()
}

/// Counts the round's answers the reference does not admit.
fn mismatches(answers: &[Option<u64>], first: usize, expected: &[Expected]) -> u64 {
    answers
        .iter()
        .enumerate()
        .filter(|&(k, a)| !expected[(first + k) % expected.len()].admits(*a))
        .count() as u64
}

/// Runs `classify-5tuple`.
#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
pub fn run(config: &RunConfig) -> Outcome {
    // Inputs and reference answers: generated before set-up, untimed.
    let rules = packet::generate(&PacketClassConfig {
        rules: RULES,
        min_src_len: 14,
        seed: RULE_SEED,
    });
    let trace = flow_trace(&rules, config.seed ^ 0xF10);
    let expected: Vec<Expected> = {
        let plan = compile(&packet::classifier_spec(), &geometry()).expect("spec compiles");
        let mut model = ReferenceModel::new(packet::classifier_spec().key_bits());
        for records in lower_rules(&plan, &rules) {
            model.insert_compiled(&records);
        }
        trace
            .iter()
            .map(|p| model.expected(&SearchKey::new(p.pack(), 128)))
            .collect()
    };
    let mut schedule = Schedule::new(config, Some(Gauge::new(Kind::Compute)));
    let capacity = crate::round_capacity(config);
    // Per round: packets/s and latency percentiles, scaled to the
    // reference host; in the traced run, untraced/traced time pairs.
    let mut rates = Vec::with_capacity(capacity);
    let mut p50s = Vec::with_capacity(capacity);
    let mut p99s = Vec::with_capacity(capacity);
    let mut pair_ratios = Vec::with_capacity(capacity);
    let mut buffers = RoundBuffers::new();
    let heap_baseline = crate::reset_peak_heap();

    let (plan, table) = schedule.setup_live(|| build(&rules));
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let mut bad = 0u64;
    let mut packets = 0u64;
    let mut untraced_time = Duration::ZERO;
    let mut n = 0usize;
    schedule.start(config);
    while schedule.more() {
        // The traced run traces every other round.
        let traced = config.trace && n % 2 == 1;
        let first = n * ROUND_PACKETS;
        let took = round(
            &plan,
            &table,
            &trace,
            first,
            &mut buffers,
            traced.then_some(&mut spans),
        );
        let factor = schedule.factor();
        bad += mismatches(&buffers.answers, first, &expected);
        packets += ROUND_PACKETS as u64;
        if traced {
            push_within(
                &mut pair_ratios,
                took.as_secs_f64() / untraced_time.as_secs_f64(),
            );
        } else {
            untraced_time = took;
            push_within(
                &mut rates,
                ROUND_PACKETS as f64 / (took.as_secs_f64() * factor),
            );
            let lat = &mut buffers.latency_ns;
            push_within(&mut p50s, percentile(lat, 0.5) as f64 * factor / 1e3);
            push_within(&mut p99s, percentile(lat, 0.99) as f64 * factor / 1e3);
        }
        n += 1;
        schedule.setup_between(|| build(&rules), drop);
    }
    out.set("peak_heap_mb", crate::peak_heap_mb(heap_baseline));
    schedule.setup_finish(|| build(&rules), drop);

    out.correct = bad == 0;
    if bad > 0 {
        eprintln!("classify-5tuple: {bad} answers disagree with the reference model");
    }
    out.tally = Tally {
        attempted: packets,
        ..Tally::default()
    };
    out.set("setup_s", schedule.setup_s());
    out.set("ops_per_s", median_f64(&rates));
    out.set("latency_p50_us", median_f64(&p50s));
    out.set("latency_p99_us", median_f64(&p99s));
    out.set("host.pass_us", schedule.pass_us());

    if config.trace {
        // Each traced round against the untraced round just before it, so
        // the host's drift cancels.
        if !pair_ratios.is_empty() {
            out.set(
                "trace.overhead_pct",
                (median_f64(&pair_ratios) - 1.0) * 100.0,
            );
        }
        out.set(
            "pattern.lower_ns_per_query",
            spans.ns_per_item("pattern.lower"),
        );
        out.set(
            "pattern.execute_ns_per_query",
            spans.ns_per_item("pattern.execute"),
        );
        // Counts over one pass of the trace: they repeat exactly per seed.
        let plans: Vec<_> = trace
            .iter()
            .map(|p| plan.lower_query(&query(p)).expect("headers lower"))
            .collect();
        let probes: Vec<SearchKey> = plans.iter().flat_map(|q| q.probes().to_vec()).collect();
        let accesses: u64 = plans
            .iter()
            .map(|q| u64::from(q.execute(&table).memory_accesses))
            .sum();
        out.set(
            "pattern.probes_per_query",
            probes.len() as f64 / plans.len() as f64,
        );
        out.set(
            "pattern.accesses_per_query",
            accesses as f64 / plans.len() as f64,
        );
        let stored = table.record_count() + table.overflow_count() as u64;
        out.set(
            "pattern.records_per_rule",
            stored as f64 / rules.len() as f64,
        );

        let scalar = kernel::with_forced(Kernel::Scalar, || build(&rules).1);
        let direct = &probes[..probes.len().min(DIRECT_PROBES)];
        layers::table_search(&mut spans, &mut out, &table, &scalar, direct);
        let sample: Vec<Record> = lower_rules(&plan, &rules[..CHURN_RULES])
            .into_iter()
            .flatten()
            .collect();
        let mut table = table;
        layers::table_writes(&mut spans, &mut out, &mut table, &layers::churn(&sample));
        out.spans = Some(spans);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_holds_every_rule_equally_and_repeats_per_seed() {
        let rules = packet::generate(&PacketClassConfig {
            rules: RULES,
            min_src_len: 14,
            seed: RULE_SEED,
        });
        let trace = flow_trace(&rules, 9);
        assert_eq!(trace, flow_trace(&rules, 9));
        assert_ne!(trace, flow_trace(&rules, 10));
        assert_eq!(trace.len(), TRACE_PACKETS);
        // Every rule matches at least its own members.
        for r in &rules {
            let members = trace.iter().filter(|p| r.matches(p)).count();
            assert!(members >= HITS_PER_RULE, "{members} members");
        }
        let hits = trace
            .iter()
            .filter(|p| rules.iter().any(|r| r.matches(p)))
            .count();
        assert!((16_000..16_100).contains(&hits), "{hits} hits");
    }
}
