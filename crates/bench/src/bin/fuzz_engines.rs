//! Differential fuzzing of every search engine against the reference
//! model.
//!
//! For each generation scenario (every supported key width, exact and
//! ternary churn, LPM builds and online updates, a static search-only
//! profile) the seeded stream generator produces one adversarial op
//! stream, and every engine legal for the scenario replays it in lockstep
//! with the oracle. Any disagreement is ddmin-minimized and printed as a
//! checked-in-able fixture; the process exits non-zero so CI fails on a
//! divergence.
//!
//! Usage:
//! `fuzz_engines [--seed N] [--ops N] [--time-box-ms N] [--out PATH]
//!               [--scenario SUBSTR] [--engine SUBSTR]`
//!
//! `--ops` is the stream length per scenario (default 20,000). The time
//! box (default 300,000 ms) truncates *coverage*, never verdicts: cells
//! skipped for time are reported as skipped in the JSON, and a divergence
//! found before the box expires always fails the run.

use std::fmt::Write as _;
use std::time::Instant;

use ca_ram_bench::fleet::{durable_spec, fleet_for, fleet_names};
use ca_ram_bench::{write_text_atomic, BenchError, Cli, Result};
use ca_ram_core::oracle::{run_case, run_kernel_case, standard_scenarios, OpStreamGen, Profile};
use ca_ram_core::storage::{crash_sweep, CrashSweepOptions, CutGranularity};

/// Replays the harness caps minimization at, bounding worst-case runtime.
const MINIMIZE_BUDGET: usize = 400;

/// Stream-prefix length for the per-scenario crash-injection cell; a
/// checkpoint is injected halfway so the sweep covers snapshot-plus-tail
/// recovery, and the cuts land in the post-checkpoint segment.
const CRASH_SWEEP_OPS: usize = 300;

/// The synthetic engine name the crash-injection cells report under
/// (selectable with `--engine`, like any fleet engine).
const CRASH_ENGINE: &str = "ca-ram/durable+crash";

/// The matrix floor for an unfiltered run: every cell must be at least
/// visited (checked or reported skipped). Bump this when scenarios or
/// engines are added, so an accidental fleet or scenario regression
/// (a gating typo silently dropping cells) fails CI instead of shrinking
/// coverage quietly.
const MIN_UNFILTERED_CELLS: usize = 463;

/// Validates a `--scenario`/`--engine` substring filter against the known
/// names: a filter matching nothing is a typo, reported with the full
/// list of valid values rather than silently checking zero cells.
fn check_filter(flag: &str, filter: Option<&str>, names: &[String]) -> Result<()> {
    let Some(f) = filter else { return Ok(()) };
    if names.iter().any(|n| n.contains(f)) {
        return Ok(());
    }
    Err(BenchError::Arg(format!(
        "--{flag} {f:?} matches none of: {}",
        names.join(", ")
    )))
}

struct Cell {
    scenario: String,
    engine: String,
    ops: usize,
    status: &'static str,
    detail: String,
}

/// Records one checked cell: green on agreement, or the printed and
/// counted divergence with its minimized fixture.
fn record_cell(
    cells: &mut Vec<Cell>,
    divergences: &mut usize,
    scenario: &str,
    engine: String,
    ops: usize,
    report: Option<ca_ram_core::oracle::DivergenceReport>,
) {
    match report {
        None => cells.push(Cell {
            scenario: scenario.to_string(),
            engine,
            ops,
            status: "ok",
            detail: String::new(),
        }),
        Some(r) => {
            *divergences += 1;
            println!(
                "DIVERGENCE: {} on {} at op {} — {}",
                r.engine, r.scenario, r.op_index, r.detail
            );
            println!("--- minimized repro ({} ops) ---", r.repro.len());
            print!("{}", r.to_fixture());
            println!("--------------------------------");
            cells.push(Cell {
                scenario: scenario.to_string(),
                engine: r.engine,
                ops,
                status: "divergence",
                detail: r.detail,
            });
        }
    }
}

#[allow(clippy::too_many_lines)]
fn main() -> Result<()> {
    let cli = Cli::from_env("seed ops time-box-ms out scenario engine", "")?;
    let seed: u64 = cli.parse("seed", 0)?;
    let ops: usize = cli.parse("ops", 20_000)?;
    let time_box_ms: u64 = cli.parse("time-box-ms", 300_000)?;
    let out = cli.value("out").unwrap_or("BENCH_fuzz.json").to_string();
    let scenario_filter = cli.value("scenario").map(str::to_string);
    let engine_filter = cli.value("engine").map(str::to_string);
    let scenario_names: Vec<String> = standard_scenarios()
        .iter()
        .map(|s| s.name.clone())
        .collect();
    check_filter("scenario", scenario_filter.as_deref(), &scenario_names)?;
    let mut engine_names: Vec<String> = fleet_names().iter().map(ToString::to_string).collect();
    engine_names.push(CRASH_ENGINE.to_string());
    check_filter("engine", engine_filter.as_deref(), &engine_names)?;

    let started = Instant::now();
    let mut cells: Vec<Cell> = Vec::new();
    let mut divergences = 0usize;
    let mut skipped = 0usize;

    println!("fuzz_engines: seed {seed}, {ops} ops per scenario, time box {time_box_ms} ms");

    for sc in standard_scenarios() {
        if let Some(f) = &scenario_filter {
            if !sc.name.contains(f.as_str()) {
                continue;
            }
        }
        let mut generator = OpStreamGen::new(&sc, seed);
        let preload = if sc.profile == Profile::SearchOnly {
            generator.preload(sc.max_live)
        } else {
            Vec::new()
        };
        let stream = generator.generate(ops);
        for case in fleet_for(&sc, &preload) {
            if let Some(f) = &engine_filter {
                if !case.name.contains(f.as_str()) {
                    continue;
                }
            }
            if started.elapsed().as_millis() >= u128::from(time_box_ms) {
                // The kernel twin cell is skipped along with its engine,
                // so the matrix floor still accounts for both.
                let mut names = vec![case.name.clone()];
                if case.name.starts_with("ca-ram/") {
                    names.push(format!("{}+kernel", case.name));
                }
                for engine in names {
                    skipped += 1;
                    cells.push(Cell {
                        scenario: sc.name.clone(),
                        engine,
                        ops: 0,
                        status: "skipped",
                        detail: "time box expired".to_string(),
                    });
                }
                continue;
            }
            let report = run_case(&case, &sc.name, seed, sc.key_bits, &stream, MINIMIZE_BUDGET);
            record_cell(
                &mut cells,
                &mut divergences,
                &sc.name,
                case.name.clone(),
                ops,
                report,
            );
            // Scalar-vs-SIMD differential cell: the CA-RAM engines are
            // the ones whose compare runs through the lane kernels, so
            // each replays the stream again as a scalar/SIMD twin pair.
            if case.name.starts_with("ca-ram/") {
                let report =
                    run_kernel_case(&case, &sc.name, seed, sc.key_bits, &stream, MINIMIZE_BUDGET);
                record_cell(
                    &mut cells,
                    &mut divergences,
                    &sc.name,
                    format!("{}+kernel", case.name),
                    ops,
                    report,
                );
            }
        }
        // Durability crash-injection cell: replay a bounded prefix of the
        // same stream through a DurableTable, then cut its WAL at every
        // record boundary (plus an intra-record sample, which models a
        // torn write) and require recovery at each cut to match the
        // serially-replayed reference model.
        let wanted = engine_filter
            .as_deref()
            .is_none_or(|f| CRASH_ENGINE.contains(f));
        if sc.profile != Profile::SearchOnly
            && wanted
            && durable_spec(sc.key_bits, sc.hash_lo).is_some()
        {
            if started.elapsed().as_millis() >= u128::from(time_box_ms) {
                skipped += 1;
                cells.push(Cell {
                    scenario: sc.name.clone(),
                    engine: CRASH_ENGINE.to_string(),
                    ops: 0,
                    status: "skipped",
                    detail: "time box expired".to_string(),
                });
            } else {
                let hash_lo = sc.hash_lo;
                let spec_for = move |bits| durable_spec(bits, hash_lo);
                let sweep = crash_sweep(
                    &sc.name,
                    &spec_for,
                    sc.key_bits,
                    &stream,
                    &CrashSweepOptions {
                        granularity: CutGranularity::Records { intra_samples: 1 },
                        max_ops: CRASH_SWEEP_OPS,
                        checkpoint_at: Some(CRASH_SWEEP_OPS / 2),
                        probes_per_cut: 4,
                    },
                );
                match sweep {
                    Ok(rep) => cells.push(Cell {
                        scenario: sc.name.clone(),
                        engine: CRASH_ENGINE.to_string(),
                        ops: rep.ops_logged,
                        status: "ok",
                        detail: format!(
                            "{} cuts ({} torn), {} probes",
                            rep.cuts_tested, rep.torn_cuts, rep.probes_checked
                        ),
                    }),
                    Err(e) => {
                        divergences += 1;
                        println!("CRASH DIVERGENCE: {} on {} — {e}", CRASH_ENGINE, sc.name);
                        cells.push(Cell {
                            scenario: sc.name.clone(),
                            engine: CRASH_ENGINE.to_string(),
                            ops: CRASH_SWEEP_OPS,
                            status: "divergence",
                            detail: e.to_string(),
                        });
                    }
                }
            }
        }
    }

    let elapsed_ms = started.elapsed().as_millis();
    let checked = cells.iter().filter(|c| c.status != "skipped").count();
    println!(
        "fuzz_engines: {checked} engine x scenario cells checked, {divergences} divergence(s), \
         {skipped} skipped, {elapsed_ms} ms"
    );

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"fuzz\",\n");
    let _ = write!(
        json,
        "  \"seed\": {seed},\n  \"ops_per_scenario\": {ops},\n  \
         \"time_box_ms\": {time_box_ms},\n  \"elapsed_ms\": {elapsed_ms},\n  \
         \"cells_checked\": {checked},\n  \"cells_skipped\": {skipped},\n  \
         \"divergences\": {divergences},\n"
    );
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"engine\": \"{}\", \"ops\": {}, \
             \"status\": \"{}\", \"detail\": \"{}\"}}{}",
            c.scenario,
            c.engine,
            c.ops,
            c.status,
            c.detail.replace('\\', "\\\\").replace('"', "\\\""),
            if i + 1 == cells.len() { "" } else { "," },
        );
    }
    json.push_str("  ]\n}\n");
    write_text_atomic(&out, &json)?;
    println!("(wrote {out})");

    if scenario_filter.is_none() && engine_filter.is_none() {
        ca_ram_bench::ensure(
            checked + skipped >= MIN_UNFILTERED_CELLS,
            &format!(
                "unfiltered run visited {} cells, below the {MIN_UNFILTERED_CELLS}-cell matrix \
                 floor — a scenario or fleet gating regression dropped coverage",
                checked + skipped
            ),
        )?;
    }
    ca_ram_bench::ensure(
        divergences == 0,
        "differential fuzzing found engine/model divergences",
    )
}
