//! The repository benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//! generates one workload's inputs from the seed, sets the system up, and
//! drives it through the public API in short rounds for the given number
//! of seconds. A host-speed gauge pass follows every round, and further
//! set-up repetitions are interleaved between rounds; the figures are
//! medians over rounds and repetitions. Every answer is checked, and one
//! JSON object is printed as the last line of standard output: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. See
//! `README.md` next to this file for the workloads and metrics.

mod classify;
mod gauge;
mod kv;
mod layers;
mod lpm;
mod spans;
mod stats;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::gauge::Gauge;
use crate::spans::Spans;
use crate::stats::Tally;

/// End-to-end metrics, reported by every workload's untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run. A metric
/// of a layer the workload does not run reads 0. `latency_p99_us` is the
/// whole request path's tail: it is reported here, without a bound,
/// because host noise moved it by 0.4-0.7 of its median between runs.
const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p99_us", "us"),
    ("service.admit_ns", "ns"),
    ("service.queue_wait_us.p50", "us"),
    ("service.queue_wait_us.p99", "us"),
    ("service.residence_us.p50", "us"),
    ("service.self_ns_per_key", "ns"),
    ("service.ops_per_drain", "count"),
    ("service.parks_per_op", "count"),
    ("service.read_p50_us", "us"),
    ("service.read_p99_us", "us"),
    ("service.write_p50_us", "us"),
    ("service.write_p99_us", "us"),
    ("table.search_ns_per_key", "ns"),
    ("table.accesses_per_lookup", "count"),
    ("table.hit_rate", "ratio"),
    ("table.insert_ns", "ns"),
    ("table.delete_ns", "ns"),
    ("table.occupancy_ns", "ns"),
    ("kernel.scalar_ns_per_key", "ns"),
    ("pattern.lower_ns_per_query", "ns"),
    ("pattern.execute_ns_per_query", "ns"),
    ("pattern.probes_per_query", "count"),
    ("pattern.accesses_per_query", "count"),
    ("pattern.records_per_rule", "count"),
    ("storage.apply_ns", "ns"),
    ("storage.commit_us.p50", "us"),
    ("storage.commit_us.p99", "us"),
    ("storage.wal_bytes_per_op", "B"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.replay_ns_per_record", "ns"),
    ("storage.recover_s", "s"),
    ("gen.late_us.p50", "us"),
    ("gen.late_us.p99", "us"),
    ("host.pass_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Share of a run's time given to set-up repetitions, interleaved between
/// its rounds so that `setup_s` samples the whole run.
const SETUP_SHARE: f64 = 0.1;
/// Set-up repetitions a run makes at least; any missing ones follow the
/// last round.
const SETUP_MIN_REPS: usize = 9;
/// Set-up repetitions a run makes at most.
const SETUP_MAX_REPS: usize = 1024;
/// Rounds per second of run that the round buffers hold. Every round ends
/// with a gauge pass of half a millisecond or more, or (without a gauge)
/// lasts half a second, so a run makes fewer.
const ROUNDS_PER_SECOND: f64 = 2_000.0;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Where the traced run writes its spans, and where durable workloads keep
/// their files while they run.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every checked answer was right.
    pub correct: bool,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Metric values by name (a subset of the mode's metric list).
    pub metrics: Vec<(&'static str, f64)>,
    /// The traced run's spans.
    pub spans: Option<Spans>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The last value set for a metric.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// A run's schedule: measured rounds until the run's seconds are spent,
/// each followed by a gauge pass, with set-up repetitions interleaved.
#[derive(Debug)]
pub struct Schedule {
    /// The gauge that scales the run's times; `None` reports them as
    /// measured.
    gauge: Option<Gauge>,
    end: Instant,
    started: Instant,
    setup_spent: Duration,
    /// Set-up repetitions, seconds (scaled as the workload's times are).
    setup: Vec<f64>,
    /// Gauge passes, nanoseconds as measured.
    passes: Vec<u64>,
}

impl Schedule {
    /// A schedule of `config.seconds` starting now. Allocates its buffers,
    /// so a workload creates it before taking the heap baseline.
    #[must_use]
    pub fn new(config: &RunConfig, gauge: Option<Gauge>) -> Self {
        let now = Instant::now();
        Self {
            gauge,
            end: now + Duration::from_secs_f64(config.seconds),
            started: now,
            setup_spent: Duration::ZERO,
            setup: Vec::with_capacity(SETUP_MAX_REPS),
            passes: Vec::with_capacity(round_capacity(config)),
        }
    }

    /// Restarts the run's clock: set-up before the first round is not
    /// part of the measured seconds.
    pub fn start(&mut self, config: &RunConfig) {
        self.started = Instant::now();
        self.end = self.started + Duration::from_secs_f64(config.seconds);
    }

    /// Whether the run has time for another round.
    #[must_use]
    pub fn more(&self) -> bool {
        Instant::now() < self.end
    }

    /// Runs a gauge pass and returns the factor for the times measured
    /// next to it: reference-host time per measured time (1 without a
    /// gauge).
    #[allow(clippy::cast_precision_loss)]
    pub fn factor(&mut self) -> f64 {
        let Some(gauge) = &mut self.gauge else {
            return 1.0;
        };
        let ns = gauge.pass();
        push_within(&mut self.passes, ns);
        gauge.nominal_ns() / ns.max(1) as f64
    }

    /// One timed set-up repetition, scaled by a gauge pass made just
    /// before it.
    fn rep<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let factor = self.factor();
        let t = Instant::now();
        let system = build();
        let took = t.elapsed();
        self.setup_spent += took;
        push_within(&mut self.setup, took.as_secs_f64() * factor);
        system
    }

    /// Builds the system the run serves, timed as a set-up repetition.
    pub fn setup_live<T>(&mut self, build: impl FnOnce() -> T) -> T {
        self.rep(build)
    }

    /// Between rounds: set-up repetitions, each built and torn down again,
    /// until they have had their share of the run so far. They stay out of
    /// the heap peak, which is the served system's.
    pub fn setup_between<T>(&mut self, mut build: impl FnMut() -> T, mut teardown: impl FnMut(T)) {
        while self.setup.len() < SETUP_MAX_REPS
            && self.setup_spent.as_secs_f64() < SETUP_SHARE * self.started.elapsed().as_secs_f64()
        {
            off_peak(|| {
                let system = self.rep(&mut build);
                teardown(system);
            });
        }
    }

    /// After the last round: set-up repetitions until there are at least
    /// `SETUP_MIN_REPS`.
    pub fn setup_finish<T>(&mut self, mut build: impl FnMut() -> T, mut teardown: impl FnMut(T)) {
        while self.setup.len() < SETUP_MIN_REPS {
            off_peak(|| {
                let system = self.rep(&mut build);
                teardown(system);
            });
        }
    }

    /// The median set-up repetition, seconds.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        stats::median_f64(&self.setup)
    }

    /// The median gauge pass as measured, microseconds (0 without a
    /// gauge).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn pass_us(&self) -> f64 {
        if self.passes.is_empty() {
            return 0.0;
        }
        let mut passes = self.passes.clone();
        stats::percentile(&mut passes, 0.5) as f64 / 1e3
    }
}

/// Room for every round a run of `config.seconds` can make.
#[must_use]
pub fn round_capacity(config: &RunConfig) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rounds = (config.seconds * ROUNDS_PER_SECOND) as usize;
    rounds + 64
}

/// Pushes onto a buffer allocated before the heap baseline. Growing it
/// would count as the program's heap, so a full buffer fails the run.
///
/// # Panics
///
/// Panics if `v` is at capacity.
pub fn push_within<T>(v: &mut Vec<T>, x: T) {
    assert!(v.len() < v.capacity(), "a preallocated buffer filled up");
    v.push(x);
}

/// The global allocator: the system allocator, counting live heap bytes
/// and their peak, which `peak_heap_mb` reports.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters are statistics
// that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Restarts the heap peak at the bytes live now and returns them: the
/// baseline `peak_heap_mb` subtracts, so the peak covers set-up and the
/// run but not the inputs and bookkeeping allocated before.
#[must_use]
pub fn reset_peak_heap() -> usize {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// Runs `f` without letting it raise the heap peak: for set-up repetitions
/// that are built and torn down again while the served system is live.
pub fn off_peak<T>(f: impl FnOnce() -> T) -> T {
    let saved = PEAK_BYTES.load(Ordering::Relaxed);
    let out = f();
    PEAK_BYTES.store(
        saved.max(LIVE_BYTES.load(Ordering::Relaxed)),
        Ordering::Relaxed,
    );
    out
}

/// Peak live heap since `reset_peak_heap`, above its baseline, in MiB.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn peak_heap_mb(baseline: usize) -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(baseline) as f64 / (1024.0 * 1024.0)
}

fn parse_args() -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => config.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => config.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(config.seconds > 0.0 && config.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            config.seconds
        ));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, config))
}

fn main() -> ExitCode {
    let (workload, config) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <lpm-route|classify-5tuple|kv-mixed> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut outcome = match workload.as_str() {
        "lpm-route" => lpm::run(&config),
        "classify-5tuple" => classify::run(&config),
        "kv-mixed" => kv::run(&config),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    if let Some(spans) = &outcome.spans {
        let path = out_dir().join(format!("spans-{workload}-{}.tsv", config.seed));
        if let Err(e) = spans.write_tsv(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    // A run that attempted nothing measured nothing.
    outcome.correct &= outcome.tally.attempted > 0;

    let (list, mode) = if config.trace {
        (PER_LAYER, "per-layer")
    } else {
        (END_TO_END, "end-to-end")
    };
    let mut fields = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        let value = match outcome.get(name) {
            Some(v) => v,
            None if config.trace => 0.0,
            None => panic!("{workload} did not report end-to-end metric {name}"),
        };
        assert!(value.is_finite(), "{name} is not finite: {value}");
        eprintln!("  {name:<30} {value:>16.4} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let t = &outcome.tally;
    eprintln!(
        "{workload} seed {} ({mode}): correct={} attempted={} failed={} \
         (rejected {}, shed {}, errors {}) failed_frac={}",
        config.seed,
        outcome.correct,
        t.attempted,
        t.failed(),
        t.rejected,
        t.shed,
        t.errors,
        t.failed_frac()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.tally.attempted.max(1),
        outcome.tally.failed(),
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json at the repository root")
            .split_whitespace()
            .collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) missing");
        }
        let workloads = ["lpm-route", "classify-5tuple", "kv-mixed"];
        for w in workloads {
            assert!(json.contains(&format!("\"name\":\"{w}\"")), "{w} missing");
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(names, workloads.len() + END_TO_END.len() + PER_LAYER.len());
    }
}
