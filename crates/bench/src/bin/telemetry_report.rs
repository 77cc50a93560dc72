//! End-to-end telemetry report: runs every search substrate under
//! instrumentation and renders the live distributions the paper plots.
//!
//! The CA-RAM designs of Table 2 run with a deep [`HistogramSink`]
//! installed, so their probe-length, row-fetch, match-popcount, and
//! insert-occupancy histograms come from the actual traced pipeline
//! (hash → row fetch → match → extract, plus overflow probes). The six
//! CAM baselines and the software baseline have no native sinks; their
//! per-engine metrics are derived from [`EngineOutcome`] streams. The
//! input-controller queue model contributes queue-depth and wait-cycle
//! distributions, the subsystem contributes per-database scopes, design A
//! contributes per-slice occupancy, and a live [`SearchService`] instance
//! contributes the serving scopes (ring batching, park/unpark, and
//! routing-balance counters from the lock-free shard path) plus the
//! observability-v2 scopes: an `slo` window ticked over the served load
//! and per-shard flight-recorder/trace-store scopes.
//!
//! Everything is aggregated in a [`MetricsRegistry`] and exported twice:
//! schema-versioned JSON (`BENCH_telemetry.json`) and Prometheus text
//! (`BENCH_telemetry.prom`). Both exports are re-parsed and validated
//! before the binary exits, so a malformed export fails loudly.
//!
//! Usage: `telemetry_report [--prefixes N] [--lookups N] [--records N]
//! [--seed S] [--json PATH] [--prom PATH]`, or `telemetry_report
//! --validate PATH` to check an existing JSON export (the CI mode).

use std::sync::Arc;

use ca_ram_bench::designs::{build_ip_table, ip_designs, load_prefixes};
use ca_ram_bench::driver::member_trace;
use ca_ram_bench::{ensure, rule, write_text_atomic, BenchError, Cli, ExactMatchWorkload, Result};
use ca_ram_cam::{BankedTcam, BinaryCam, PreclassifiedCam, PrecomputedBcam, SortedTcam, Tcam};
use ca_ram_core::controller::{simulate_with_sink, QueueModelConfig};
use ca_ram_core::engine::{EngineOutcome, SearchEngine};
use ca_ram_core::index::RangeSelect;
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::{Record, RecordLayout};
use ca_ram_core::probe::ProbePolicy;
use ca_ram_core::subsystem::CaRamSubsystem;
use ca_ram_core::table::{Arrangement, CaRamTable, OverflowPolicy, TableConfig};
use ca_ram_core::telemetry::{
    parse_json, to_json, to_prometheus, validate_json, validate_prometheus, Histogram,
    HistogramSink, MetricsRegistry, ScopeKind,
};
use ca_ram_service::{SearchService, ServiceConfig};
use ca_ram_softsearch::cache::Hierarchy;
use ca_ram_softsearch::structures::{Arena, ChainedHash};
use ca_ram_softsearch::SoftEngine;
use ca_ram_workloads::bgp::generate;
use ca_ram_workloads::prefix::Ipv4Prefix;

/// Renders one histogram as a terminal bar chart (the Fig. 7 shape, from
/// live counters rather than a post-hoc scan).
fn print_histogram(label: &str, h: &Histogram) {
    if h.is_empty() {
        println!("  {label}: (empty)");
        return;
    }
    println!(
        "  {label}: n={}  mean={:.2}  p99<={}",
        h.count(),
        h.mean(),
        h.quantile(0.99)
    );
    let peak = h.series().map(|(_, _, c)| c).max().unwrap_or(1).max(1);
    for (low, high, count) in h.series() {
        let bar = usize::try_from(count * 40 / peak).unwrap_or(40);
        let range = if low == high {
            format!("{low}")
        } else {
            format!("{low}-{high}")
        };
        println!("    {range:>12} {count:>9} |{}", "#".repeat(bar));
    }
}

/// Runs `engine` over `keys` and publishes the outcome stream as an
/// engine scope.
fn drive_engine(
    registry: &mut MetricsRegistry,
    engine: &dyn SearchEngine,
    name: &str,
    keys: &[SearchKey],
) {
    let outcomes: Vec<EngineOutcome> = keys.iter().map(|k| engine.search(k)).collect();
    registry.record_outcomes(name, &outcomes);
}

fn load_ternary(engine: &mut dyn SearchEngine, prefixes: &[Ipv4Prefix]) {
    for p in prefixes {
        engine
            .insert(Record::new(p.to_ternary_key(), u64::from(p.len())))
            .unwrap_or_else(|e| panic!("{}: inserting {p}: {e}", engine.name()));
    }
}

fn load_binary(engine: &mut dyn SearchEngine, pairs: &[(u64, u64)]) {
    for &(k, v) in pairs {
        engine
            .insert(Record::new(TernaryKey::binary(u128::from(k), 64), v))
            .unwrap_or_else(|e| panic!("{}: inserting {k:#x}: {e}", engine.name()));
    }
}

fn validate_file(path: &str) -> Result<()> {
    let text = std::fs::read_to_string(path).map_err(|source| BenchError::Io {
        path: path.to_string(),
        source,
    })?;
    match validate_json(&text) {
        Ok(scopes) => {
            println!("{path}: valid ({scopes} scopes)");
            Ok(())
        }
        Err(e) => Err(BenchError::Arg(format!("{path}: invalid telemetry: {e}"))),
    }
}

#[allow(clippy::too_many_lines)]
fn main() -> Result<()> {
    let cli = Cli::from_env("validate prefixes lookups records seed json prom", "")?;
    if let Some(path) = cli.value("validate") {
        return validate_file(path);
    }

    let prefixes_n: usize = cli.parse("prefixes", 20_000)?;
    let lookups: usize = cli.parse("lookups", 50_000)?;
    let records: usize = cli.parse("records", 20_000)?;
    let seed: u64 = cli.parse("seed", 0x1103)?;
    let json_path = cli
        .value("json")
        .unwrap_or("BENCH_telemetry.json")
        .to_string();
    let prom_path = cli
        .value("prom")
        .unwrap_or("BENCH_telemetry.prom")
        .to_string();
    ensure(prefixes_n > 0, "--prefixes must be > 0")?;
    ensure(lookups > 0, "--lookups must be > 0")?;
    ensure(records > 0, "--records must be > 0")?;

    let mut registry = MetricsRegistry::new();

    let config = ca_ram_bench::bgp_config(prefixes_n, Some(seed));
    let prefixes = generate(&config);
    let weights = vec![1.0; prefixes.len()];
    let keys = member_trace(&prefixes, lookups, seed ^ 0x5EED);
    // CAM arrays scan every entry per search; a shorter trace keeps the
    // baselines tractable while still filling their distributions.
    let cam_keys = &keys[..keys.len().min(2_000)];

    println!(
        "Telemetry sweep: {} prefixes, {} CA-RAM lookups, {} CAM lookups",
        prefixes.len(),
        keys.len(),
        cam_keys.len()
    );
    rule(72);

    // ---- CA-RAM designs A-F: deep sinks on the traced pipeline ----------
    for (i, d) in ip_designs().iter().enumerate() {
        let sink = Arc::new(HistogramSink::deep());
        let mut table = build_ip_table(d);
        table.set_telemetry_sink(sink.clone());
        load_prefixes(&mut table, &prefixes, &weights);
        let _ = table.search_batch(&keys);
        let snap = sink.snapshot();
        let scope_name = format!("caram-{}", d.name);
        registry.record_snapshot(&scope_name, &snap);

        println!("CA-RAM design {} ({} lookups):", d.name, keys.len());
        print_histogram("probe_length", &snap.probe_length);
        if i == 0 {
            print_histogram("insert_occupancy", &snap.insert_occupancy);
            print_histogram("match_popcount", &snap.match_popcount);
            // Design A also contributes the per-slice occupancy scopes.
            for (s, occ) in table.slice_occupancy_histograms().iter().enumerate() {
                let mut h = Histogram::new();
                for (recs, rows) in occ.series() {
                    h.record_n(u64::from(recs), rows);
                }
                let scope = registry.scope_mut(ScopeKind::Slice, &format!("caram-A/{s}"));
                scope.set_counter("rows", occ.total_buckets());
                scope.set_gauge("mean_row_occupancy", occ.mean());
                scope.set_histogram("row_occupancy", h);
            }
        }
    }
    rule(72);

    // ---- CAM baselines on the same traffic -------------------------------
    println!("CAM baselines ({} lookups each):", cam_keys.len());
    let capacity = prefixes.len() + 16;
    {
        let mut tcam = Tcam::new(capacity, 32);
        load_ternary(&mut tcam, &prefixes);
        drive_engine(&mut registry, &tcam, tcam.name(), cam_keys);
    }
    {
        // 16 banks selected by address bits [28, 32); prefixes shorter than
        // four bits would replicate everywhere, so each bank gets full
        // capacity.
        let mut banked = BankedTcam::new(Box::new(RangeSelect::new(28, 4)), capacity, 32);
        load_ternary(&mut banked, &prefixes);
        drive_engine(&mut registry, &banked, banked.name(), cam_keys);
    }
    {
        let mut sorted = SortedTcam::new(capacity, 32);
        load_ternary(&mut sorted, &prefixes);
        drive_engine(&mut registry, &sorted, sorted.name(), cam_keys);
    }

    // Exact-match devices index a 64-bit dictionary workload.
    let ExactMatchWorkload {
        pairs,
        keys: dict,
        trace,
    } = ca_ram_bench::exact_match_workload(records, cam_keys.len(), seed ^ 0xD1C7);
    let dict_keys: Vec<SearchKey> = trace
        .iter()
        .map(|&i| SearchKey::new(u128::from(dict[i]), 64))
        .collect();
    let dict_capacity = pairs.len() + 16;
    {
        let mut bcam = BinaryCam::new(dict_capacity, 64);
        load_binary(&mut bcam, &pairs);
        drive_engine(&mut registry, &bcam, bcam.name(), &dict_keys);
    }
    {
        // 16 categories keyed by the top nibble of the key.
        let mut pre = PreclassifiedCam::new(16, dict_capacity, 64, 60, 4);
        load_binary(&mut pre, &pairs);
        drive_engine(&mut registry, &pre, pre.name(), &dict_keys);
    }
    {
        let mut bcam = PrecomputedBcam::new(dict_capacity, 64);
        load_binary(&mut bcam, &pairs);
        drive_engine(&mut registry, &bcam, bcam.name(), &dict_keys);
    }
    {
        let mut arena = Arena::new(0);
        let chained = ChainedHash::build(&pairs, 15, &mut arena);
        let soft = SoftEngine::new(chained, Hierarchy::typical());
        drive_engine(&mut registry, &soft, "softsearch-chained", &dict_keys);
    }
    for scope in registry.scopes() {
        if scope.kind == ScopeKind::Engine && !scope.name.starts_with("caram") {
            println!(
                "  {:<20} searches={:<6} hit_rate={:.3} amal={:.3}",
                scope.name,
                scope.counter("searches").unwrap_or(0),
                scope.gauge("hit_rate").unwrap_or(0.0),
                scope.gauge("measured_amal").unwrap_or(0.0),
            );
        }
    }
    rule(72);

    // ---- Input-controller queue model (Fig. 5) ---------------------------
    {
        let sink = HistogramSink::new();
        let slices = QueueModelConfig::fig8_ip_lookup().slices;
        #[allow(clippy::cast_possible_truncation)]
        let requests = keys.iter().map(|k| (k.value() as u32) % slices);
        let report = simulate_with_sink(QueueModelConfig::fig8_ip_lookup(), requests, &sink)?;
        let snap = sink.snapshot();
        let scope = registry.scope_mut(ScopeKind::Controller, "fig8-ip");
        scope.set_counter("cycles", report.cycles);
        scope.set_counter("completed", report.completed);
        scope.set_counter("stall_cycles", report.stall_cycles);
        scope.set_counter("peak_queue_depth", report.peak_queue_depth as u64);
        scope.set_histogram("queue_depth", snap.queue_depth.clone());
        scope.set_histogram("queue_wait", snap.queue_wait.clone());
        println!("Input controller (split queues, 8 slices):");
        print_histogram("queue_wait", &snap.queue_wait);
    }

    // ---- Multi-database subsystem: per-database scopes -------------------
    {
        let mut subsystem = CaRamSubsystem::new();
        let mut sinks = Vec::new();
        let mut ids = Vec::new();
        for (d, name) in ip_designs().iter().take(2).zip(["ip-a", "ip-b"]) {
            let mut table = build_ip_table(d);
            load_prefixes(&mut table, &prefixes, &weights);
            let id = subsystem.add_database(name, table);
            let sink = HistogramSink::shared();
            subsystem.set_telemetry_sink(id, sink.clone());
            ids.push((id, name));
            sinks.push(sink);
        }
        for chunk in cam_keys.chunks(8) {
            for key in chunk {
                for &(id, _) in &ids {
                    subsystem
                        .store_request(subsystem.request_port(id), *key)
                        .expect("request port accepts stores");
                }
            }
            let _ = subsystem.pump();
        }
        let _ = subsystem.pump();
        for ((id, name), sink) in ids.iter().zip(&sinks) {
            let counters = subsystem.counters(*id);
            let snap = sink.snapshot();
            let scope = registry.scope_mut(ScopeKind::Database, name);
            scope.record_search_stats(&counters);
            scope.set_histogram("queue_depth", snap.queue_depth.clone());
            scope.set_histogram("probe_length", snap.probe_length.clone());
        }
    }
    rule(72);

    // ---- Concurrent serving layer: ring and park/unpark counters ---------
    {
        let shards = 2usize;
        let per_shard = records.div_ceil(shards);
        let engines = (0..shards)
            .map(|_| {
                let layout = RecordLayout::new(64, false, 64);
                // 3x headroom over a uniform split absorbs routing skew.
                let buckets = (per_shard * 3).div_ceil(8).max(16);
                let rows_log2 = buckets.next_power_of_two().trailing_zeros();
                let table_config = TableConfig {
                    rows_log2,
                    row_bits: 8 * layout.slot_bits(),
                    layout,
                    arrangement: Arrangement::Horizontal(1),
                    probe: ProbePolicy::Linear,
                    overflow: OverflowPolicy::Probe {
                        max_steps: u32::MAX,
                    },
                };
                CaRamTable::new(table_config, Box::new(RangeSelect::new(0, rows_log2)))
                    .map(|t| Box::new(t) as Box<dyn SearchEngine>)
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let service = SearchService::new(
            ServiceConfig {
                shards,
                // Sample 1 in 16 admissions so the export carries live
                // trace-store and recorder scopes, not just zeros.
                trace_sample_period: 16,
                ..ServiceConfig::default()
            },
            engines,
        )?;
        for &(k, v) in &pairs {
            service.insert_sync(Record::new(TernaryKey::binary(u128::from(k), 64), v))?;
        }
        // Batched submissions exercise the ring fan-out; the synchronous
        // tail exercises the single-request completion slots.
        for chunk in dict_keys.chunks(64) {
            let completion = service
                .try_submit_batch(chunk)
                .expect("serial batch admission never sees a full ring")
                .wait();
            assert_eq!(completion.replies.len(), chunk.len());
        }
        for key in dict_keys.iter().take(256) {
            let _ = service.search_sync(key);
        }
        // One SLO window over everything served above, so the export
        // carries a live `slo` scope (p50/p99, burn rate) alongside the
        // per-shard recorder scopes.
        let slo = service.slo_tick();
        service.export_metrics(&mut registry, "service");
        let totals = service.snapshot().totals();
        println!(
            "Serving layer ({} shards, {} keys batched + 256 single):",
            shards,
            dict_keys.len()
        );
        println!(
            "  accepted={}  batch_entries={}  batch_keys={}  parks={}  unparks={}",
            totals.accepted, totals.batch_entries, totals.batch_keys, totals.parks, totals.unparks
        );
        println!(
            "  slo window: n={}  p50={}us  p99={}us  burn={:.3}  traces retained={}",
            slo.window_count,
            slo.p50_us,
            slo.p99_us,
            slo.burn_rate,
            service.retained_traces().len()
        );
        service.shutdown();
    }
    rule(72);

    // ---- Export + self-validation ----------------------------------------
    let json = to_json(&registry);
    let scopes = validate_json(&json)
        .unwrap_or_else(|e| panic!("generated telemetry failed validation: {e}"));
    parse_json(&json).expect("generated telemetry reparses");
    let prom = to_prometheus(&registry);
    let series = validate_prometheus(&prom)
        .unwrap_or_else(|e| panic!("generated Prometheus export failed validation: {e}"));
    write_text_atomic(&json_path, &json)?;
    write_text_atomic(&prom_path, &prom)?;
    println!("validated {scopes} scopes ({series} Prometheus histogram series)");
    println!("(wrote {json_path} and {prom_path})");
    Ok(())
}
