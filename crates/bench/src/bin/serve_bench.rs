//! Serving-layer load sweep: measures the sharded [`SearchService`]'s
//! capacity and latency under open-loop offered load, compares the measured
//! distribution against the controller queue model's prediction for the
//! same configuration, and emits `BENCH_service.json`.
//!
//! Method:
//!   1. **Calibrate** — a closed-loop run with one client per shard pins
//!      the zero-queueing service latency; dividing its p50 by the model's
//!      `nmem + 1` service cycles yields the wall-clock length of one model
//!      cycle, tying the two time bases together without using any
//!      open-loop measurement the sweep is about to grade.
//!   2. **Find the ceiling** — one [`measure`] call times, in the same
//!      interleaved rounds: an identical shard-sized table driven directly
//!      through `search_batch` (`serial_keys_per_sec`, the engine bandwidth
//!      the serving layer is graded against); a windowed batched flood
//!      (`ServiceClient::flood_batched`: one ring entry per shard per
//!      batch) at the sweep's trace period, the saturation capacity on the
//!      lock-free path; and an unpaced per-key flood, recorded for
//!      comparison. The capacity ratio is the median per-round
//!      flood/serial ratio.
//!   3. **Sweep** — paced open-loop points from well under the closed-loop
//!      rate up to 3x the flood ceiling. Below the knee the measured
//!      p50/p99 should track `simulate_latency` for the matching
//!      [`QueueModelConfig`]; past it, the bounded queue must reject at
//!      admission rather than buffer without limit.
//!
//! Observability riders: `--trace-period` turns on request-lifecycle
//! tracing (1 in N admissions, 0 = off); the per-round ratio of the 1/256
//! and untraced floods is the tracing overhead on the same service (gated
//! < 5% under `--smoke`); every sweep row reports the ladder
//! transitions and SLO window it provoked; and a forced shed storm on a
//! dedicated service dumps `BENCH_flight.json`, gated on exact request
//! conservation and ≥ 90% span coverage of every retained trace.
//!
//! Usage: `serve_bench [--records N] [--lookups N] [--shards N]
//! [--queue-depth N] [--batch-max N] [--flood-batch N] [--flood-window N]
//! [--capacity-floor F] [--trace-period N] [--seed N] [--out PATH]
//! [--flight-out PATH] [--smoke]`
//!
//! `--smoke` shrinks the workload to CI scale and turns the sanity
//! assertions (zero shedding at low load, rejection past saturation, the
//! tracing-overhead bound, and the capacity-ratio floor: batched flood ≥
//! `--capacity-floor` × `min(shards, cores)` × `serial_keys_per_sec`)
//! into gates. Every gate prints its verdict and figure; the report is
//! written, and then the run fails if any gate did.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ca_ram_bench::designs::shard_spec;
use ca_ram_bench::{
    ensure, exact_match_workload, measure, repeat_to, write_text_atomic, Cli, Gates, Result, Stats,
    GATE_ROUNDS,
};
use ca_ram_core::controller::{simulate_latency, LatencyReport, QueueModelConfig};
use ca_ram_core::engine::SearchEngine;
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::Record;
use ca_ram_core::pattern::QueryPlan;
use ca_ram_core::table::CaRamTable;
use ca_ram_core::telemetry::{to_json, validate_json, MetricsRegistry};
use ca_ram_service::{
    OpenLoopReport, SearchService, ServiceClient, ServiceConfig, ServiceEngine, ServiceOp,
    ServiceReply, FLIGHT_SCHEMA,
};

/// Model service occupancy per request, in cycles (`nmem`); the service
/// latency ladder is `nmem` busy cycles plus one match cycle.
const NMEM: u32 = 6;
/// Model port width (requests admitted per cycle).
const ACCEPTS_PER_CYCLE: u32 = 4;
/// Cap on requests fed to the cycle-level model per sweep point.
const MODEL_REQUESTS_MAX: usize = 20_000;

/// One measured sweep point with its model prediction.
struct SweepPoint {
    /// Target offered rate, requests/s.
    target_rps: f64,
    /// What the open-loop client observed.
    measured: OpenLoopReport,
    /// `simulate_latency` at the same offered rate, converted to
    /// microseconds via the calibrated cycle length.
    model_p50_us: f64,
    model_p99_us: f64,
    model_throughput: f64,
    /// Degradation-ladder transitions this point provoked (drained from
    /// the service after the measurement).
    ladder_transitions: usize,
    /// SLO window evaluated over this point: p99 and error-budget burn.
    slo_p99_us: u64,
    slo_burn_rate: f64,
    slo_breached: bool,
}

/// Runs `simulate_latency` for `config` at `offered_rps`, feeding the
/// shard each trace key routes to, and returns the report in model cycles.
fn model_at(
    service: &SearchService,
    config: QueueModelConfig,
    offered_rps: f64,
    cycle_secs: f64,
    trace: &[SearchKey],
) -> Result<LatencyReport> {
    // Offered rate -> cycles between arrivals, as a rational num/den.
    let cycles_per_request = 1.0 / (offered_rps * cycle_secs);
    const DEN: u64 = 1024;
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    #[allow(clippy::cast_possible_truncation)]
    let num = ((cycles_per_request * DEN as f64).round() as u64).max(1);
    let requests = trace
        .iter()
        .take(MODEL_REQUESTS_MAX)
        .map(|k| u32::try_from(service.shard_of_value(k.value())).expect("few shards"));
    Ok(simulate_latency(config, num, DEN, requests)?)
}

#[allow(clippy::cast_precision_loss)]
fn cycles_to_us(cycles: f64, cycle_secs: f64) -> f64 {
    cycles * cycle_secs * 1e6
}

/// A shard-sized engine loaded like one service shard, and the trace keys
/// it holds: the serial `search_batch` bandwidth it runs at is the
/// denominator of the serving-efficiency ratio. A table of its own, so the
/// service engines stay untouched.
#[allow(clippy::cast_possible_truncation)]
fn serial_engine(
    per_shard_records: usize,
    pairs: &[(u64, u64)],
    trace: &[SearchKey],
) -> Result<(CaRamTable, Vec<SearchKey>)> {
    let mut table = shard_spec(per_shard_records).build()?;
    let keep: std::collections::HashSet<u64> = pairs
        .iter()
        .take(per_shard_records)
        .map(|&(key, _)| key)
        .collect();
    for &(key, value) in pairs.iter().take(per_shard_records) {
        table.insert(Record::new(TernaryKey::binary(u128::from(key), 64), value))?;
    }
    // Probe with trace keys that exist in this table so the hit rate (and
    // probe depth) matches the serving workload, not a miss-heavy variant.
    let probe: Vec<SearchKey> = trace
        .iter()
        .filter(|k| keep.contains(&(k.value() as u64)))
        .copied()
        .collect();
    ensure(
        probe.len() >= 256,
        "serial calibration needs more trace keys",
    )?;
    Ok((table, probe))
}

/// Everything the capacity section of the report needs; the rates are
/// per-round [`Stats`] of one [`measure`] call.
struct CapacityReport {
    closed_rps: f64,
    flood_rps: Stats,
    flood_single_rps: Stats,
    serial_keys_per_sec: Stats,
    effective_workers: usize,
    capacity_ratio: Stats,
    shard_requests: Vec<u64>,
    routing_max_min_ratio: f64,
    /// The flood with 1/256 trace sampling and with tracing off, and the
    /// per-round ratio of the two.
    traced_flood_rps: Stats,
    untraced_flood_rps: Stats,
    traced_over_untraced: Stats,
}

#[allow(clippy::cast_precision_loss)]
fn report_json(
    records: usize,
    config: &ServiceConfig,
    capacity: &CapacityReport,
    cycle_ns: f64,
    trace_period: u64,
    points: &[SweepPoint],
) -> String {
    let mut json = String::from("{\n  \"benchmark\": \"service\",\n");
    let _ = write!(
        json,
        "  \"records\": {records},\n  \"shards\": {},\n  \"queue_depth\": {},\n  \
         \"batch_max\": {},\n  \"nmem\": {NMEM},\n  \
         \"closed_loop_rps\": {:.1},\n  \"flood_capacity_rps\": {},\n  \
         \"flood_single_rps\": {},\n  \"serial_keys_per_sec\": {},\n  \
         \"effective_workers\": {},\n  \"capacity_ratio\": {},\n  \
         \"calibrated_cycle_ns\": {cycle_ns:.2},\n",
        config.shards,
        config.queue_depth,
        config.batch_max,
        capacity.closed_rps,
        capacity.flood_rps.to_json(1),
        capacity.flood_single_rps.to_json(1),
        capacity.serial_keys_per_sec.to_json(1),
        capacity.effective_workers,
        capacity.capacity_ratio.to_json(4),
    );
    let _ = write!(
        json,
        "  \"shard_requests\": [{}],\n  \"routing_max_min_ratio\": {:.4},\n",
        capacity
            .shard_requests
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        capacity.routing_max_min_ratio,
    );
    let _ = write!(
        json,
        "  \"trace_period\": {trace_period},\n  \
         \"tracing_overhead\": {{\"traced_flood_rps\": {}, \
         \"untraced_flood_rps\": {}, \"traced_over_untraced\": {}}},\n",
        capacity.traced_flood_rps.to_json(1),
        capacity.untraced_flood_rps.to_json(1),
        capacity.traced_over_untraced.to_json(4),
    );
    json.push_str("  \"sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        let m = &p.measured;
        let _ = writeln!(
            json,
            "    {{\"target_rps\": {:.1}, \"offered_rps\": {:.1}, \"achieved_rps\": {:.1}, \
             \"offered\": {}, \"completed\": {}, \"rejected\": {}, \"shed\": {}, \
             \"coalesced\": {}, \"p50_us\": {}, \"p99_us\": {}, \
             \"queue_wait_p50_us\": {}, \"queue_wait_p99_us\": {}, \
             \"model_p50_us\": {:.2}, \"model_p99_us\": {:.2}, \
             \"model_throughput_per_cycle\": {:.5}, \
             \"ladder_transitions\": {}, \"slo_p99_us\": {}, \
             \"slo_burn_rate\": {:.4}, \"slo_breached\": {}}}{}",
            p.target_rps,
            m.offered_rps,
            m.achieved_rps,
            m.offered,
            m.completed,
            m.rejected,
            m.shed,
            m.coalesced,
            m.latency.p50_us,
            m.latency.p99_us,
            m.queue_wait.p50_us,
            m.queue_wait.p99_us,
            p.model_p50_us,
            p.model_p99_us,
            p.model_throughput,
            p.ladder_transitions,
            p.slo_p99_us,
            p.slo_burn_rate,
            p.slo_breached,
            if i + 1 == points.len() { "" } else { "," },
        );
    }
    json.push_str("  ]\n}\n");
    json
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() -> Result<()> {
    let cli = Cli::from_env(
        "records lookups shards queue-depth batch-max flood-batch flood-window \
         capacity-floor trace-period seed out flight-out",
        "smoke",
    )?;
    let smoke = cli.flag("smoke");
    let records = cli.parse("records", if smoke { 4_000 } else { 20_000 })?;
    let lookups = cli.parse("lookups", if smoke { 8_000 } else { 40_000 })?;
    let shards = cli.parse("shards", 4usize)?;
    let queue_depth = cli.parse("queue-depth", 256usize)?;
    let batch_max = cli.parse("batch-max", 64usize)?;
    let flood_batch = cli.parse("flood-batch", 256usize)?;
    let flood_window = cli.parse("flood-window", 8usize)?;
    // Default floor: the batched flood must reach ≥ 35% of the engine
    // bandwidth the available cores could deliver — i.e. within ~3x of the
    // serial rate per effective worker, which holds with margin even when
    // client and workers time-share one core. Raise it on bigger machines.
    let capacity_floor = cli.parse("capacity-floor", 0.35f64)?;
    // 1-in-N request-lifecycle trace sampling for the sweep (0 = off);
    // the overhead A/B pair always compares 1/256 against disabled.
    let trace_period = cli.parse("trace-period", 256u64)?;
    let seed = cli.parse("seed", 0x5E27u64)?;
    let out = cli.parse("out", "BENCH_service.json".to_string())?;
    let flight_out = cli.parse("flight-out", "BENCH_flight.json".to_string())?;
    ensure(records > 0, "--records must be > 0")?;
    ensure(
        lookups >= 2_000,
        "--lookups must be >= 2000 for stable gates",
    )?;
    ensure(shards > 0, "--shards must be > 0")?;

    let config = ServiceConfig {
        shards,
        queue_depth,
        batch_max,
        trace_sample_period: trace_period,
        ..ServiceConfig::default()
    };
    let workload = exact_match_workload(records, lookups, seed);
    let engines = (0..shards)
        .map(|_| {
            Ok(Box::new(shard_spec(records.div_ceil(shards)).build()?) as Box<dyn SearchEngine>)
        })
        .collect::<Result<Vec<_>>>()?;
    // The service behind the engine trait, so compiled query plans run
    // through it with `QueryPlan::execute`.
    let engine = ServiceEngine::new(config, engines)?;
    let service = engine.service();
    for &(key, value) in &workload.pairs {
        service.insert_sync(Record::new(TernaryKey::binary(u128::from(key), 64), value))?;
    }
    let trace: Vec<SearchKey> = workload
        .trace
        .iter()
        .map(|&i| SearchKey::new(u128::from(workload.keys[i]), 64))
        .collect();
    let client = ServiceClient::new(service);

    println!("serve_bench: {records} records across {shards} shards, {lookups} lookups/point");

    // -- Calibrate: closed loop, one client per shard, minimal queueing.
    let closed = client.closed_loop(&trace, shards, (lookups / shards).max(500));
    let cycle_secs = (closed.latency.p50_us as f64 * 1e-6) / f64::from(NMEM + 1);
    println!(
        "closed loop: {:.0} req/s, p50 {} us -> model cycle {:.1} ns",
        closed.achieved_rps,
        closed.latency.p50_us,
        cycle_secs * 1e9
    );
    ensure(
        cycle_secs > 0.0,
        "calibration degenerate: closed-loop p50 was below timer resolution",
    )?;

    // -- Ceiling: the serial engine, the batched flood and the per-key
    //    flood, timed in the same interleaved rounds, at the sweep's trace
    //    period. The flood trace is the lookup trace repeated to at least
    //    32k keys so the measurement window outlasts scheduler jitter; the
    //    serial arm searches as many keys per round. Then the tracing
    //    pair: the flood sampling 1 in 256 admissions — the production
    //    setting the <5% bound is claimed for — against tracing disabled.
    let (serial_table, probe) = serial_engine(records.div_ceil(shards), &workload.pairs, &trace)?;
    let mut flood_trace = trace.clone();
    while flood_trace.len() < 32_000 {
        flood_trace.extend_from_slice(&trace);
    }
    let mut outcomes = Vec::new();
    let flood_at = |period: u64| {
        service.set_trace_period(period);
        client.flood_batched(&flood_trace, flood_batch, flood_window)
    };
    let completed = |r: OpenLoopReport| usize::try_from(r.completed).expect("fits usize");
    let (serial, flood, single) = (0, 1, 2);
    let m = measure(
        GATE_ROUNDS,
        &mut [
            &mut |_| {
                Ok(repeat_to(flood_trace.len(), || {
                    SearchEngine::search_batch_into(&serial_table, &probe, &mut outcomes);
                    probe.len()
                }))
            },
            &mut |_| Ok(completed(flood_at(trace_period))),
            &mut |_| {
                service.set_trace_period(trace_period);
                Ok(completed(client.open_loop(&trace, f64::INFINITY)))
            },
        ],
    )?;
    // A pair of its own, so each side runs first in half the rounds.
    let (traced, untraced) = (&mut |_| Ok(completed(flood_at(256))), &mut |_| {
        Ok(completed(flood_at(0)))
    });
    let tracing = measure(GATE_ROUNDS, &mut [traced, untraced])?;
    service.set_trace_period(trace_period);
    // The capacity gate scales by how many shard workers can actually run
    // concurrently — on a box with fewer cores than shards, the workers
    // time-share and `shards × serial` is unreachable by construction.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let effective_workers = shards.min(cores);
    let serial_rate = m.rate(serial);
    let flood_rate = m.rate(flood);
    #[allow(clippy::cast_precision_loss)]
    let capacity_ratio = m.ratio(flood, serial).map(|r| r / effective_workers as f64);
    let traced_over_untraced = tracing.ratio(0, 1);
    println!(
        "serial engine: {serial_rate:.0} keys/s; \
         {effective_workers} of {shards} workers can run concurrently"
    );
    println!("batched flood ({flood_batch}/batch, window {flood_window}): {flood_rate:.0} req/s");
    println!("per-key flood: {:.0} req/s", m.rate(single));
    println!(
        "capacity ratio: {capacity_ratio:.2} of {effective_workers} x serial \
         (floor {capacity_floor})"
    );
    println!(
        "tracing overhead (1/256 sampling): traced/untraced flood {traced_over_untraced:.3} \
         ({:.0} vs {:.0} req/s, {:+.2}%)",
        tracing.rate(0).median,
        tracing.rate(1).median,
        (1.0 - traced_over_untraced.median) * 100.0
    );

    // -- Sweep: under the closed-loop knee up to 3x the flood ceiling.
    let mut targets = vec![
        0.2 * closed.achieved_rps,
        0.5 * closed.achieved_rps,
        1.0 * closed.achieved_rps,
    ];
    if !smoke {
        targets.push(0.5 * flood_rate.median);
        targets.push(1.0 * flood_rate.median);
    }
    targets.push(3.0 * flood_rate.median);
    targets.retain(|t| *t > 0.0);
    targets.sort_by(f64::total_cmp);
    targets.dedup();

    let model_config = config.queue_model(NMEM, ACCEPTS_PER_CYCLE);
    model_config.validate()?;
    // Flush ladder transitions and the SLO window the calibration floods
    // provoked, so each sweep row reports only its own.
    let _ = service.take_ladder_transitions();
    let _ = service.slo_tick();
    let mut points = Vec::with_capacity(targets.len());
    for target_rps in targets {
        let measured = client.open_loop(&trace, target_rps);
        let transitions = service.take_ladder_transitions();
        let slo = service.slo_tick();
        let model = model_at(service, model_config, target_rps, cycle_secs, &trace)?;
        println!(
            "offered {:>9.0} req/s: p50 {:>6} us (model {:>8.1}), p99 {:>6} us (model {:>8.1}), \
             rejected {:>5}, shed {:>4}, ladder {:>3}, burn {:>6.2}",
            target_rps,
            measured.latency.p50_us,
            cycles_to_us(model.p50_cycles as f64, cycle_secs),
            measured.latency.p99_us,
            cycles_to_us(model.p99_cycles as f64, cycle_secs),
            measured.rejected,
            measured.shed,
            transitions.len(),
            slo.burn_rate,
        );
        points.push(SweepPoint {
            target_rps,
            measured,
            model_p50_us: cycles_to_us(model.p50_cycles as f64, cycle_secs),
            model_p99_us: cycles_to_us(model.p99_cycles as f64, cycle_secs),
            model_throughput: model.throughput,
            ladder_transitions: transitions.len(),
            slo_p99_us: slo.p99_us,
            slo_burn_rate: slo.burn_rate,
            slo_breached: slo.breached,
        });
    }

    // -- In-process telemetry export must validate.
    let mut registry = MetricsRegistry::new();
    service.export_metrics(&mut registry, "serve_bench");
    let telemetry = to_json(&registry);
    let scopes = validate_json(&telemetry)
        .map_err(|e| ca_ram_bench::BenchError::Arg(format!("telemetry export invalid: {e}")))?;
    ensure(scopes > shards, "telemetry export missing per-shard scopes")?;
    println!("telemetry export: {scopes} scopes valid");

    // -- Routing balance: requests per shard, hottest over coldest.
    let snapshot = service.snapshot();
    let shard_requests: Vec<u64> = snapshot.shards.iter().map(|s| s.accepted).collect();
    let max_requests = shard_requests.iter().copied().max().unwrap_or(0);
    let min_requests = shard_requests.iter().copied().min().unwrap_or(0);
    let routing_max_min_ratio = if min_requests > 0 {
        max_requests as f64 / min_requests as f64
    } else {
        f64::INFINITY
    };
    let totals = snapshot.totals();
    println!(
        "routing balance: {shard_requests:?} requests/shard (max/min {routing_max_min_ratio:.2}); \
         {} parks / {} unparks, {} batch entries carrying {} keys",
        totals.parks, totals.unparks, totals.batch_entries, totals.batch_keys
    );

    // -- Flight recorder: force a shed storm on a dedicated fully-traced
    //    service, dump the flight ring, and gate the dump: client-observed
    //    terminals must partition the admitted set exactly (conservation)
    //    and every retained trace's spans must explain >= 90% of its
    //    end-to-end latency.
    let storm_config = ServiceConfig {
        shards: 1,
        queue_depth: 256,
        trace_sample_period: 1,
        ..ServiceConfig::default()
    };
    let storm = SearchService::new(
        storm_config,
        vec![Box::new(shard_spec(records.div_ceil(shards)).build()?) as Box<dyn SearchEngine>],
    )?;
    let mut storm_client_completed = 0u64;
    for &(key, value) in workload.pairs.iter().take(1_000) {
        storm.insert_sync(Record::new(TernaryKey::binary(u128::from(key), 64), value))?;
        storm_client_completed += 1;
    }
    for key in trace.iter().take(256) {
        let _ = storm.search_sync(key);
        storm_client_completed += 1;
    }
    // Already-expired deadlines: every admitted request sheds at pickup.
    let expired = Instant::now() - Duration::from_millis(5);
    let mut storm_tickets = Vec::new();
    let mut storm_client_rejected = 0u64;
    for &key in trace.iter().take(512) {
        match storm.try_submit_with_deadline(ServiceOp::Search(key), Some(expired)) {
            Ok(ticket) => storm_tickets.push(ticket),
            Err(_) => storm_client_rejected += 1,
        }
    }
    let mut storm_client_shed = 0u64;
    for ticket in storm_tickets {
        match ticket.wait().reply {
            ServiceReply::Shed(_) => storm_client_shed += 1,
            _ => storm_client_completed += 1,
        }
    }
    let storm_slo = storm.slo_tick();
    let dump = storm.flight_json("forced shed storm");
    let storm_totals = storm.snapshot().totals();
    ensure(storm_client_shed > 0, "the forced storm must shed")?;
    ensure(
        dump.contains(FLIGHT_SCHEMA),
        "flight dump missing schema tag",
    )?;
    // Conservation, cross-checked against what the clients saw: completed
    // + shed + rejected == admitted, with each term measured client-side
    // and the counter side derived independently.
    ensure(
        storm_client_completed
            == storm_totals.accepted - storm_totals.shed_deadline - storm_totals.shed_shutdown,
        "flight conservation: client completions disagree with the counters",
    )?;
    ensure(
        storm_client_shed == storm_totals.shed_deadline + storm_totals.shed_shutdown,
        "flight conservation: client sheds disagree with the counters",
    )?;
    ensure(
        storm_client_rejected == storm_totals.rejected,
        "flight conservation: client rejects disagree with the counters",
    )?;
    let storm_traces = storm.retained_traces();
    ensure(
        !storm_traces.is_empty(),
        "a fully-sampled storm must retain traces",
    )?;
    for trace in &storm_traces {
        trace
            .validate()
            .map_err(|e| ca_ram_bench::BenchError::Arg(format!("flight trace invalid: {e}")))?;
        ensure(
            trace.span_coverage() >= 0.90,
            "trace spans must explain >= 90% of end-to-end latency",
        )?;
    }
    storm.shutdown();
    write_text_atomic(&flight_out, &dump)?;
    println!(
        "flight dump: {} traces retained, {} shed / {} completed / {} rejected, \
         slo burn {:.2} -> wrote {flight_out}",
        storm_traces.len(),
        storm_client_shed,
        storm_client_completed,
        storm_client_rejected,
        storm_slo.burn_rate
    );

    // -- Gates: always-on conservation, the rest under --smoke. Every gate
    //    is evaluated and printed; the report is written before a failure
    //    is returned.
    let mut gates = Gates::default();
    let conserved = |m: &OpenLoopReport| m.completed + m.rejected + m.shed == m.offered;
    let pass = points.iter().all(|p| conserved(&p.measured));
    let figure = format!(
        "completed + rejected + shed == offered at {} points",
        points.len()
    );
    gates.check("request conservation", pass, &figure);
    let (low, high) = (&points[0], points.last().expect("sweep is non-empty"));
    let (lo, hi) = (&low.measured, &high.measured);
    if smoke {
        // With conservation, completing every request rules out rejects
        // and sheds.
        let figure = format!("{} of {} completed", lo.completed, lo.offered);
        gates.check("low load serves all", lo.completed == lo.offered, &figure);
        let figure = format!("rejected {} of {}", hi.rejected, hi.offered);
        gates.check("overload rejects at admission", hi.rejected > 0, &figure);
        // The queue is bounded, so overload throughput cannot exceed the
        // measured ceiling by more than measurement noise.
        let (achieved, ceiling) = (hi.achieved_rps, flood_rate.median);
        let figure = format!("{achieved:.0} vs ceiling {ceiling:.0} req/s");
        gates.check(
            "overload under 2x ceiling",
            achieved <= ceiling * 2.0,
            &figure,
        );
        // The model and the measurement share a calibrated time base; at
        // low load they must agree to well within two orders of magnitude
        // (scheduler noise on the measured side dwarfs finer bounds in CI).
        let p50_ratio = lo.latency.p50_us as f64 / low.model_p50_us.max(1e-9);
        let pass = (0.05..=20.0).contains(&p50_ratio);
        let figure = format!("measured/model {p50_ratio:.2} (bounds 0.05..=20)");
        gates.check("low-load p50 tracks the queue model", pass, &figure);
        // Capacity-ratio floor: the serving layer may not throw away more
        // than (1 - floor) of the engine bandwidth the machine can reach.
        let pass = capacity_ratio.median >= capacity_floor;
        let figure = format!("{capacity_ratio:.2} (floor {capacity_floor})");
        gates.check("capacity ratio", pass, &figure);
        let pass = routing_max_min_ratio.is_finite() && routing_max_min_ratio < 2.0;
        let figure = format!("max/min {routing_max_min_ratio:.2} (bound < 2)");
        gates.check("SplitMix64 routing balance", pass, &figure);
        // The tracing tax at the production sampling rate stays under 5%
        // of flood throughput (the PR-3 discipline: observability must
        // pay for itself on the hot path).
        let pass = traced_over_untraced.median >= 0.95;
        let figure = format!("traced/untraced flood {traced_over_untraced:.3} (floor 0.95)");
        gates.check("1/256 tracing overhead", pass, &figure);
        // Overload must show up on the degradation ladder: the 3x-flood
        // point rejects, so its drains transition to the reject rung.
        let figure = format!("{} transitions", high.ladder_transitions);
        gates.check(
            "overload moves the ladder",
            high.ladder_transitions > 0,
            &figure,
        );
        // Compiled query plans ride the same admission path as plain
        // searches: a two-probe plan (guaranteed miss, then a stored key)
        // must resolve through the service with accesses summed over both
        // probes — the serving-side contract of the pattern compiler's
        // multi-probe ladders.
        let absent = (0u64..)
            .find(|v| workload.keys.binary_search(v).is_err())
            .map(u128::from)
            .expect("a 64-bit value outside the workload exists");
        let stored = trace[0];
        let plan = QueryPlan::new(vec![SearchKey::new(absent, 64), stored]);
        let (planned, direct) = (plan.execute(&engine), service.search_sync(&stored));
        let figure = format!(
            "2 probes, hit data {:?} (direct {:?}), {} accesses (direct {})",
            planned.hit.map(|h| h.data),
            direct.hit.map(|h| h.data),
            planned.memory_accesses,
            direct.memory_accesses
        );
        let pass = planned.hit == direct.hit && planned.memory_accesses >= direct.memory_accesses;
        gates.check("pattern plan round trip", pass, &figure);
    }

    let capacity = CapacityReport {
        closed_rps: closed.achieved_rps,
        flood_rps: flood_rate,
        flood_single_rps: m.rate(single),
        serial_keys_per_sec: serial_rate,
        effective_workers,
        capacity_ratio,
        shard_requests,
        routing_max_min_ratio,
        traced_flood_rps: tracing.rate(0),
        untraced_flood_rps: tracing.rate(1),
        traced_over_untraced,
    };
    let json = report_json(
        records,
        &config,
        &capacity,
        cycle_secs * 1e9,
        trace_period,
        &points,
    );
    write_text_atomic(&out, &json)?;
    println!("wrote {out}");
    gates.finish()?;
    if smoke {
        println!("smoke gates passed");
    }
    Ok(())
}
