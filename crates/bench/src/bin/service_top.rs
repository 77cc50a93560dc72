//! `top` for the serving layer: drives a demo [`SearchService`] under
//! paced open-loop load and renders a live terminal view of the
//! observability-v2 surface — per-shard queue depth, degradation-ladder
//! rung, SLO burn rate, and the per-stage latency breakdown recovered
//! from sampled request traces.
//!
//! With `--dump PATH` it instead renders an existing `ca-ram-flight/v1`
//! dump (as written by `SearchService::flight_json` and serve_bench's
//! forced shed storm): the conservation counters, flight-ring event mix,
//! and retained-trace summary.
//!
//! Usage: `service_top [--shards N] [--records N] [--rps N] [--frames N]
//! [--interval-ms N] [--trace-period N] [--seed N]` or
//! `service_top --dump PATH`.

use std::collections::BTreeMap;
use std::time::Duration;

use ca_ram_bench::designs::shard_spec;
use ca_ram_bench::{ensure, exact_match_workload, rule, BenchError, Cli, Result};
use ca_ram_core::engine::SearchEngine;
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::Record;
use ca_ram_core::telemetry::SpanStage;
use ca_ram_service::{SearchService, ServiceClient, ServiceConfig};

/// Extracts the raw text of the first `"key": value` pair after `from`,
/// trimmed of quotes — enough structure to render our own flight dumps
/// without a JSON dependency.
fn field<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let pat = format!("\"{key}\": ");
    let start = text.find(&pat)? + pat.len();
    let rest = &text[start..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Renders an existing `ca-ram-flight/v1` dump: header, conservation,
/// event mix, and the retained-trace summary.
fn render_dump(path: &str) -> Result<()> {
    let text = std::fs::read_to_string(path).map_err(|source| BenchError::Io {
        path: path.to_string(),
        source,
    })?;
    ensure(
        text.contains("\"schema\": \"ca-ram-flight/v1\""),
        "not a ca-ram-flight/v1 dump",
    )?;
    println!(
        "flight dump {path}: reason \"{}\", trace period {}",
        field(&text, "reason").unwrap_or("?"),
        field(&text, "trace_period").unwrap_or("?"),
    );
    if text.contains("\"slo\": null") {
        println!("slo: (no window ticked)");
    } else {
        println!(
            "slo: p50 {}us  p99 {}us  burn {}  breached {}",
            field(&text, "p50_us").unwrap_or("?"),
            field(&text, "p99_us").unwrap_or("?"),
            field(&text, "burn_rate").unwrap_or("?"),
            field(&text, "breached").unwrap_or("?"),
        );
    }
    let get = |key: &str| -> u64 {
        field(&text, key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_default()
    };
    let (admitted, rejected) = (get("admitted"), get("rejected"));
    let (completed, shed) = (
        get("completed"),
        get("shed_deadline") + get("shed_shutdown"),
    );
    let balanced = completed + shed + rejected == admitted;
    println!(
        "conservation: admitted {admitted} = completed {completed} + shed {shed} \
         + rejected {rejected}  [{}]",
        if balanced { "ok" } else { "VIOLATED" }
    );
    ensure(balanced, "dump violates request conservation")?;
    print!("events:");
    for kind in [
        "trace_done",
        "ladder",
        "reject",
        "shed_deadline",
        "shed_shutdown",
        "slo_breach",
        "orphan_risk",
    ] {
        let count = text.matches(&format!("\"kind\": \"{kind}\"")).count();
        if count > 0 {
            print!("  {kind}={count}");
        }
    }
    println!();
    let traces = text.matches("\"terminal\": ").count();
    let shed_traces = text.matches("\"terminal\": \"shed\"").count();
    let completed_traces = text.matches("\"terminal\": \"completed\"").count();
    println!(
        "traces: {traces} retained ({completed_traces} completed, {shed_traces} shed, \
         {} other)",
        traces - shed_traces - completed_traces
    );
    for shard in text.split("\"shard\": ").skip(1) {
        // A shard block's next field is its rung; a trace's own shard
        // field is followed by its terminal instead — skip those.
        if !shard[..shard.len().min(48)].contains("\"rung\"") {
            continue;
        }
        let Some(index) = shard.split(',').next() else {
            continue;
        };
        let Some(rung) = field(shard, "rung") else {
            continue;
        };
        println!(
            "shard {index}: rung {rung}, depth {}, {} ladder transitions, \
             ring {} recorded / {} overwritten",
            field(shard, "depth").unwrap_or("?"),
            field(shard, "transitions").unwrap_or("?"),
            field(shard, "recorded").unwrap_or("?"),
            field(shard, "overwritten").unwrap_or("?"),
        );
    }
    Ok(())
}

/// Sums each completed trace's per-stage gaps, keyed by stage name in
/// pipeline order, so a frame can show where the latency went.
fn stage_breakdown(service: &SearchService) -> Vec<(&'static str, f64)> {
    let mut sums: BTreeMap<u8, (SpanStage, u64)> = BTreeMap::new();
    let mut completions = 0u64;
    for trace in service.retained_traces() {
        if trace.terminal() != Some(SpanStage::Completed) {
            continue;
        }
        completions += 1;
        for (stage, gap_ns) in trace.stage_gaps() {
            let entry = sums.entry(stage.rank()).or_insert((stage, 0));
            entry.1 += gap_ns;
        }
    }
    if completions == 0 {
        return Vec::new();
    }
    #[allow(clippy::cast_precision_loss)]
    sums.values()
        .map(|&(stage, total_ns)| (stage.name(), total_ns as f64 / completions as f64 / 1000.0))
        .collect()
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() -> Result<()> {
    let cli = Cli::from_env(
        "dump shards records rps frames interval-ms trace-period seed",
        "",
    )?;
    if let Some(path) = cli.value("dump") {
        return render_dump(path);
    }

    let shards = cli.parse("shards", 2usize)?;
    let records = cli.parse("records", 4_000usize)?;
    let rps = cli.parse("rps", 50_000f64)?;
    let frames = cli.parse("frames", 5usize)?;
    let interval_ms = cli.parse("interval-ms", 200u64)?;
    let trace_period = cli.parse("trace-period", 8u64)?;
    let seed = cli.parse("seed", 0x709u64)?;
    ensure(shards > 0, "--shards must be > 0")?;
    ensure(records > 0, "--records must be > 0")?;
    ensure(rps > 0.0, "--rps must be > 0")?;
    ensure(frames > 0, "--frames must be > 0")?;

    let config = ServiceConfig {
        shards,
        trace_sample_period: trace_period,
        ..ServiceConfig::default()
    };
    let engines = (0..shards)
        .map(|_| {
            Ok(Box::new(shard_spec(records.div_ceil(shards)).build()?) as Box<dyn SearchEngine>)
        })
        .collect::<Result<Vec<_>>>()?;
    let service = SearchService::new(config, engines)?;
    let workload = exact_match_workload(records, records * 2, seed);
    for &(key, value) in &workload.pairs {
        service.insert_sync(Record::new(TernaryKey::binary(u128::from(key), 64), value))?;
    }

    // Size the trace so the paced driver outlasts every frame.
    let wall_secs = (frames as u64 * interval_ms) as f64 / 1000.0;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let wanted = ((rps * wall_secs * 1.5) as usize).max(1_000);
    let mut keys: Vec<SearchKey> = Vec::with_capacity(wanted);
    while keys.len() < wanted {
        keys.extend(
            workload
                .trace
                .iter()
                .map(|&i| SearchKey::new(u128::from(workload.keys[i]), 64)),
        );
    }
    keys.truncate(wanted);

    println!(
        "service_top: {records} records, {shards} shards, {rps:.0} req/s paced, \
         trace 1/{trace_period}, {frames} frames every {interval_ms}ms"
    );
    let policy = service.slo_policy();
    println!(
        "slo policy: target p99 {}us, error budget {:.2}%",
        policy.target_us,
        policy.error_budget * 100.0
    );

    std::thread::scope(|scope| -> Result<()> {
        let client = ServiceClient::new(&service);
        let driver = scope.spawn(move || client.open_loop(&keys, rps));
        for frame in 1..=frames {
            std::thread::sleep(Duration::from_millis(interval_ms));
            let slo = service.slo_tick();
            let depths = service.queue_depths();
            let rungs = service.ladder_rungs();
            let transitions = service.take_ladder_transitions();
            let snapshot = service.snapshot();
            rule(72);
            println!(
                "frame {frame}/{frames}  t={:.1}s",
                (frame as u64 * interval_ms) as f64 / 1000.0
            );
            println!("shard   depth  rung      accepted  rejected      shed  coalesced");
            for (index, shard) in snapshot.shards.iter().enumerate() {
                println!(
                    "{index:>5}  {:>6}  {:<8} {:>9}  {:>8}  {:>8}  {:>9}",
                    depths.get(index).copied().unwrap_or(0),
                    rungs.get(index).map_or("?", |r| r.name()),
                    shard.accepted,
                    shard.rejected,
                    shard.shed_deadline + shard.shed_shutdown,
                    shard.coalesced,
                );
            }
            println!(
                "slo: window n={}  p50 {}us  p99 {}us  burn {:.3}  {}  \
                 ({} ladder transitions this frame)",
                slo.window_count,
                slo.p50_us,
                slo.p99_us,
                slo.burn_rate,
                if slo.breached { "BREACHED" } else { "ok" },
                transitions.len(),
            );
            let breakdown = stage_breakdown(&service);
            if !breakdown.is_empty() {
                print!("stages (us, mean over sampled completions):");
                for (name, us) in &breakdown {
                    print!("  {name} {us:.1}");
                }
                println!();
            }
        }
        let report = driver.join().map_err(|_| {
            BenchError::Arg("the load driver panicked under service_top".to_string())
        })?;
        rule(72);
        let (ticks, breaches) = service.slo_windows();
        println!(
            "driver: offered {} at {:.0} req/s, completed {}, rejected {}, shed {}; \
             {breaches} of {ticks} slo windows breached",
            report.offered, report.offered_rps, report.completed, report.rejected, report.shed,
        );
        Ok(())
    })?;
    service.shutdown();
    Ok(())
}
