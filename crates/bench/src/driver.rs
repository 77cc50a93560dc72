//! The shared experiment driver: workload feeds, the one timing primitive
//! ([`measure`]) and its statistics, and JSON emission.
//!
//! Every timed figure a bench binary prints comes from [`measure`]: arms
//! warmed once, timed over interleaved rounds, and reported as a median
//! with quartiles and a sample count. Gates compare two arms timed in the
//! same rounds, so they need no host-speed calibration.

use std::time::Instant;

use ca_ram_core::key::SearchKey;
use ca_ram_workloads::bgp::BgpConfig;
use ca_ram_workloads::prefix::Ipv4Prefix;
use ca_ram_workloads::trigram::TrigramConfig;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::cli::{write_text_atomic, BenchError, Result};

/// The paper's AS1103 prefix count; asking for exactly this many prefixes
/// selects the calibrated snapshot configuration.
pub const AS1103_PREFIXES: usize = 186_760;

/// The BGP workload for `prefixes` entries: the calibrated AS1103-like
/// snapshot at full scale, a scaled synthetic table otherwise. `seed`
/// overrides the generator seed when given.
#[must_use]
pub fn bgp_config(prefixes: usize, seed: Option<u64>) -> BgpConfig {
    let mut config = if prefixes == AS1103_PREFIXES {
        BgpConfig::as1103_like()
    } else {
        BgpConfig::scaled(prefixes)
    };
    if let Some(seed) = seed {
        config.seed = seed;
    }
    config
}

/// The trigram workload for `entries` entries, optionally reseeded.
#[must_use]
pub fn trigram_config(entries: usize, seed: Option<u64>) -> TrigramConfig {
    let mut config = TrigramConfig::scaled(entries);
    if let Some(seed) = seed {
        config.seed = seed;
    }
    config
}

/// An address trace of `lookups` member addresses of the given prefixes
/// (round-robin over prefixes, random member of each), so every lookup
/// hits — the paper measures successful-search cost.
#[must_use]
pub fn member_trace(prefixes: &[Ipv4Prefix], lookups: usize, seed: u64) -> Vec<SearchKey> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..lookups)
        .map(|i| {
            let p = &prefixes[i % prefixes.len()];
            SearchKey::new(u128::from(p.random_member(&mut rng)), 32)
        })
        .collect()
}

/// An exact-match dictionary workload: deduplicated random keys with
/// derived values, build order shuffled (a BST built from sorted keys
/// degenerates into a linked list), and a uniform lookup trace.
#[derive(Debug, Clone)]
pub struct ExactMatchWorkload {
    /// `(key, value)` pairs in build order.
    pub pairs: Vec<(u64, u64)>,
    /// The sorted, deduplicated key set.
    pub keys: Vec<u64>,
    /// Uniform lookup trace, as indices into `keys`.
    pub trace: Vec<usize>,
}

/// Generates an [`ExactMatchWorkload`] of up to `records` keys and
/// `lookups` trace entries from `seed`.
#[must_use]
pub fn exact_match_workload(records: usize, lookups: usize, seed: u64) -> ExactMatchWorkload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut keys: Vec<u64> = (0..records).map(|_| rng.gen()).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 0xFF)).collect();
    pairs.shuffle(&mut rng);
    let trace: Vec<usize> = (0..lookups).map(|_| rng.gen_range(0..keys.len())).collect();
    ExactMatchWorkload { pairs, keys, trace }
}

/// Timing rounds of every gated ratio: enough for the quartiles to mean
/// something, and `4k + 1` so the median and both quartiles fall on
/// single samples (no interpolation).
pub const GATE_ROUNDS: usize = 9;

/// Median, quartiles and count of one figure's per-round samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// The median sample.
    pub median: f64,
    /// The first quartile.
    pub q1: f64,
    /// The third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Stats {
    /// Summarizes `samples`. Quartile `k` sits at rank `k (n - 1) / 4`,
    /// interpolating linearly between order statistics (numpy's default).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let n = sorted.len();
        let at = |k: usize| {
            let (lo, rem) = (k * (n - 1) / 4, k * (n - 1) % 4);
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * [0.0, 0.25, 0.5, 0.75][rem]
        };
        let (q1, median, q3) = (at(1), at(2), at(3));
        Self { median, q1, q3, n }
    }

    /// Interquartile range over the median: the figure's run-to-run noise
    /// as a fraction of the figure.
    #[must_use]
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }

    /// The statistics of `f` applied to every sample, for a monotone `f`
    /// (a decreasing one swaps the quartiles). Exact for affine maps, and
    /// for any monotone map when `n = 4k + 1`.
    #[must_use]
    pub fn map(self, f: impl Fn(f64) -> f64) -> Self {
        let (a, b) = (f(self.q1), f(self.q3));
        Self {
            median: f(self.median),
            q1: a.min(b),
            q3: a.max(b),
            n: self.n,
        }
    }

    /// The JSON object `{"median", "q1", "q3", "spread", "n"}`, figures
    /// printed with `decimals` places.
    #[must_use]
    pub fn to_json(&self, decimals: usize) -> String {
        format!(
            "{{\"median\": {:.decimals$}, \"q1\": {:.decimals$}, \"q3\": {:.decimals$}, \
             \"spread\": {:.4}, \"n\": {}}}",
            self.median,
            self.q1,
            self.q3,
            self.spread(),
            self.n
        )
    }
}

/// `median (q1 .., q3 .., n ..)`, all three figures at the requested
/// precision (two places by default).
impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = f.precision().unwrap_or(2);
        write!(
            f,
            "{:.p$} (q1 {:.p$}, q3 {:.p$}, n {})",
            self.median, self.q1, self.q3, self.n
        )
    }
}

/// One arm of [`measure`]: runs round `r`'s work and returns how many
/// operations it performed.
pub type Arm<'a> = &'a mut dyn FnMut(usize) -> Result<usize>;

/// Per-round rates of every arm of one [`measure`] call.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// `rates[arm][round]`: operations per second.
    rates: Vec<Vec<f64>>,
}

impl Measurement {
    /// Arm `arm`'s rate (operations per second) over the rounds.
    #[must_use]
    pub fn rate(&self, arm: usize) -> Stats {
        Stats::of(&self.rates[arm])
    }

    /// Arm `a`'s rate over arm `b`'s, taken round by round: how many times
    /// faster `a` ran than `b`. A load spike lands on both arms of the
    /// round it hits rather than on one side of a quotient of bests.
    #[must_use]
    pub fn ratio(&self, a: usize, b: usize) -> Stats {
        let ratios: Vec<f64> = self.rates[a]
            .iter()
            .zip(&self.rates[b])
            .map(|(ra, rb)| ra / rb)
            .collect();
        Stats::of(&ratios)
    }
}

/// Times `arms` against each other: calls every arm once with round 0 to
/// warm it, then runs `rounds` rounds, calling each arm once per round
/// with the round's index. Round `r` starts with arm `r % arms.len()` and
/// goes on in order, so no arm always runs first (into a colder cache or
/// a quieter machine) or last.
///
/// An arm whose full pass is long takes round `r`'s share of its work
/// ([`round_chunk`]) instead of repeating the whole pass every round; one
/// whose pass is short repeats it up to a fixed budget ([`repeat_to`]).
///
/// # Errors
///
/// The first error an arm returns, or an argument error when an arm
/// performs no operation in a timed round (its rate would be zero and its
/// spread undefined).
///
/// # Panics
///
/// Panics if `rounds` is zero or `arms` is empty.
#[allow(clippy::cast_precision_loss)]
pub fn measure(rounds: usize, arms: &mut [Arm<'_>]) -> Result<Measurement> {
    assert!(rounds > 0 && !arms.is_empty(), "nothing to measure");
    for arm in arms.iter_mut() {
        std::hint::black_box(arm(0)?);
    }
    let mut rates = vec![Vec::with_capacity(rounds); arms.len()];
    for round in 0..rounds {
        for j in 0..arms.len() {
            let i = (round + j) % arms.len();
            let start = Instant::now();
            let ops = std::hint::black_box((arms[i])(round)?);
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            if ops == 0 {
                return Err(BenchError::Arg(format!(
                    "arm {i} performed no operation in round {round}"
                )));
            }
            rates[i].push(ops as f64 / secs);
        }
    }
    Ok(Measurement { rates })
}

/// Round `round`'s contiguous share of `items` when a pass over them is
/// split across `rounds` rounds. Every share is non-empty when `items`
/// holds at least `rounds` items.
#[must_use]
pub fn round_chunk<T>(items: &[T], round: usize, rounds: usize) -> &[T] {
    &items[round * items.len() / rounds..(round + 1) * items.len() / rounds]
}

/// Runs `pass`, which returns how many operations it performed, until at
/// least `budget` operations have run, and returns their count: an arm
/// whose pass is short still times a window long enough to outlast timer
/// and scheduler noise.
///
/// # Panics
///
/// Panics if a pass performs no operation (the budget would never be
/// reached).
pub fn repeat_to(budget: usize, mut pass: impl FnMut() -> usize) -> usize {
    let mut done = 0;
    while done < budget {
        let ops = pass();
        assert!(ops > 0, "a pass performed no operation");
        done += ops;
    }
    done
}

/// Throughput of one design point under the serial batch (scalar and
/// active kernel), in keys/s per round.
#[derive(Debug, Clone)]
pub struct DesignThroughput {
    /// Design letter.
    pub name: &'static str,
    /// The serial batch of a scalar-kernel twin of the table.
    pub scalar: Stats,
    /// The allocation-free serial batch.
    pub serial: Stats,
    /// Serial-batch speedup of the active compare kernel over the
    /// scalar-kernel twin, per round (1.0 by construction when scalar is
    /// active).
    pub simd_speedup: Stats,
    /// Mean memory accesses per search (measured AMAL).
    pub mean_accesses: f64,
}

/// Throughput of one pattern-compiled workload: a table built by
/// [`ca_ram_core::pattern::compile`], loaded through lowered entries and
/// queried through lowered probe ladders.
#[derive(Debug, Clone)]
pub struct PatternThroughput {
    /// Workload name (e.g. `packet-class`, `dictionary-d2`).
    pub scenario: &'static str,
    /// Logical rules/words loaded (before ternary expansion).
    pub entries: usize,
    /// Queries in the trace.
    pub lookups: usize,
    /// Queries per second through the compiled query plans.
    pub queries: Stats,
    /// Mean engine probes issued per query (ladder length actually
    /// walked; 1.0 = every query resolved on its first probe).
    pub probes_per_query: f64,
    /// Fraction of queries that found a match.
    pub hit_rate: f64,
    /// Mean rows read per query over the probes it issued (measured
    /// AMAL of the compiled table, as `mean_accesses` for a design).
    pub mean_accesses: f64,
}

/// The `BENCH_search.json` report: simulator throughput per design.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Prefix count of the workload.
    pub prefixes: usize,
    /// Lookup count of the trace.
    pub lookups: usize,
    /// Name of the active compare kernel the tables captured
    /// (`scalar`, `128`, or `256`).
    pub kernel: String,
    /// The serial batch path's time with a shallow telemetry sink
    /// installed over its time without, per round. A traced table's batch
    /// walks key by key while an untraced one runs the hash-ahead
    /// pipelined loop, so the figure compares those two loops, not the
    /// sink alone; below 1.0 the traced per-key loop ran faster.
    pub telemetry_slowdown: Stats,
    /// Per-design measurements.
    pub designs: Vec<DesignThroughput>,
    /// Pattern-compiled workload measurements.
    pub patterns: Vec<PatternThroughput>,
}

impl SearchReport {
    /// The SIMD speedup of the design with the smallest median — the SIMD
    /// regression gate (only meaningful when `kernel != "scalar"`).
    ///
    /// # Panics
    ///
    /// Panics if the report holds no designs.
    #[must_use]
    pub fn min_simd_speedup(&self) -> Stats {
        self.designs
            .iter()
            .map(|d| d.simd_speedup)
            .min_by(|a, b| a.median.total_cmp(&b.median))
            .expect("the report holds designs")
    }

    /// Renders the report as JSON (hand-rolled: the workspace carries no
    /// serialization dependency). Every timed figure is a [`Stats`]
    /// object.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut json = String::from("{\n");
        json.push_str("  \"benchmark\": \"search\",\n");
        let _ = write!(
            json,
            "  \"prefixes\": {},\n  \"lookups\": {},\n  \"kernel\": \"{}\",\n  \
             \"min_simd_speedup\": {},\n  \"telemetry_slowdown\": {},\n",
            self.prefixes,
            self.lookups,
            self.kernel,
            self.min_simd_speedup().to_json(4),
            self.telemetry_slowdown.to_json(4),
        );
        json.push_str("  \"designs\": [\n");
        for (i, r) in self.designs.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {{\"name\": \"{}\", \
                 \"scalar_keys_per_sec\": {}, \"serial_keys_per_sec\": {}, \
                 \"simd_speedup\": {}, \"mean_memory_accesses\": {:.4}}}{}",
                r.name,
                r.scalar.to_json(1),
                r.serial.to_json(1),
                r.simd_speedup.to_json(4),
                r.mean_accesses,
                if i + 1 == self.designs.len() { "" } else { "," },
            );
        }
        json.push_str("  ],\n");
        json.push_str("  \"patterns\": [\n");
        for (i, r) in self.patterns.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {{\"scenario\": \"{}\", \"entries\": {}, \"lookups\": {}, \
                 \"keys_per_sec\": {}, \"probes_per_query\": {:.4}, \
                 \"hit_rate\": {:.4}, \"mean_memory_accesses\": {:.4}}}{}",
                r.scenario,
                r.entries,
                r.lookups,
                r.queries.to_json(1),
                r.probes_per_query,
                r.hit_rate,
                r.mean_accesses,
                if i + 1 == self.patterns.len() {
                    ""
                } else {
                    ","
                },
            );
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BenchError::Io`] when the write fails.
    pub fn write(&self, path: &str) -> Result<()> {
        write_text_atomic(path, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_feeds_are_deterministic() {
        let a = exact_match_workload(1_000, 100, 0xBEEF);
        let b = exact_match_workload(1_000, 100, 0xBEEF);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.trace, b.trace);
        assert!(a.keys.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");

        let prefixes = ca_ram_workloads::bgp::generate(&bgp_config(500, Some(7)));
        let t1 = member_trace(&prefixes, 64, 42);
        let t2 = member_trace(&prefixes, 64, 42);
        assert_eq!(t1, t2);
        assert_eq!(t1.len(), 64);
    }

    #[test]
    fn bgp_config_selects_snapshot_at_full_scale() {
        assert_eq!(
            bgp_config(AS1103_PREFIXES, None).prefixes,
            BgpConfig::as1103_like().prefixes
        );
        assert_eq!(bgp_config(1_234, None).prefixes, 1_234);
        assert_eq!(bgp_config(1_234, Some(9)).seed, 9);
    }

    fn stats(m: f64) -> Stats {
        Stats::of(&[m - 1.0, m - 0.5, m, m + 0.5, m + 1.0])
    }

    #[test]
    fn search_report_json_shape() {
        let report = SearchReport {
            prefixes: 10,
            lookups: 20,
            kernel: "256".to_string(),
            telemetry_slowdown: stats(1.0125),
            designs: vec![DesignThroughput {
                name: "A",
                scalar: stats(200.0),
                serial: stats(250.0),
                simd_speedup: stats(1.25),
                mean_accesses: 1.25,
            }],
            patterns: vec![PatternThroughput {
                scenario: "packet-class",
                entries: 500,
                lookups: 1_000,
                queries: stats(1_234.5),
                probes_per_query: 2.5,
                hit_rate: 0.875,
                mean_accesses: 92.6381,
            }],
        };
        assert!((report.min_simd_speedup().median - 1.25).abs() < 1e-12);
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"benchmark\": \"search\",\n"));
        assert!(json.contains("\"kernel\": \"256\""));
        for retired in [
            "baseline",
            "serial_speedup",
            "parallel_speedup",
            "telemetry_overhead_pct",
            "parallel_keys_per_sec",
            "threads",
        ] {
            assert!(!json.contains(retired), "{retired}");
        }
        assert!(json.contains(
            "\"min_simd_speedup\": {\"median\": 1.2500, \"q1\": 0.7500, \"q3\": 1.7500, \
             \"spread\": 0.8000, \"n\": 5}"
        ));
        assert!(json.contains("\"scalar_keys_per_sec\": {\"median\": 200.0, \"q1\": 199.5,"));
        assert!(json.contains("\"simd_speedup\": {\"median\": 1.2500,"));
        assert!(json.contains("\"telemetry_slowdown\": {\"median\": 1.0125,"));
        assert!(json.contains("\"mean_memory_accesses\": 1.2500"));
        assert!(json.contains("\"scenario\": \"packet-class\""));
        assert!(json.contains("\"keys_per_sec\": {\"median\": 1234.5,"));
        assert!(json.contains("\"probes_per_query\": 2.5000"));
        assert!(json.contains("\"hit_rate\": 0.8750, \"mean_memory_accesses\": 92.6381}"));
        assert!(json.ends_with("  ]\n}\n"));
    }

    #[test]
    fn stats_pin_median_quartiles_and_spread() {
        // Odd count: every statistic is one sample, whatever the order.
        let s = Stats::of(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (5.0, 3.0, 7.0, 5));
        assert!((s.spread() - 0.8).abs() < 1e-12);
        // Even count: quartiles interpolate at (n - 1) p.
        let s = Stats::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (2.5, 1.75, 3.25, 4));
        // One sample: no spread.
        let s = Stats::of(&[6.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (6.0, 6.0, 6.0, 1));
        assert!(s.spread().abs() < 1e-12);
        // A decreasing map swaps the quartiles.
        let s = Stats::of(&[1.0, 2.0, 4.0, 5.0, 8.0]).map(|x| 10.0 - x);
        assert_eq!((s.median, s.q1, s.q3), (6.0, 5.0, 8.0));
        assert_eq!(format!("{s:.1}"), "6.0 (q1 5.0, q3 8.0, n 5)");
        assert_eq!(
            s.to_json(1),
            "{\"median\": 6.0, \"q1\": 5.0, \"q3\": 8.0, \"spread\": 0.5000, \"n\": 5}"
        );
    }

    #[test]
    fn ratios_pair_arms_round_by_round() {
        // Arm 0 is twice arm 1 in every round although both drift: the
        // per-round ratio is exact where a ratio of medians would not be.
        let m = Measurement {
            rates: vec![vec![2.0, 40.0, 8.0], vec![1.0, 20.0, 4.0]],
        };
        assert_eq!(m.ratio(0, 1), Stats::of(&[2.0, 2.0, 2.0]));
        assert!((m.ratio(1, 0).median - 0.5).abs() < 1e-12);
        assert_eq!(m.rate(1), Stats::of(&[1.0, 20.0, 4.0]));
    }

    #[test]
    fn measure_warms_each_arm_then_rotates_the_first_arm() {
        use std::cell::RefCell;
        let log = RefCell::new(Vec::new());
        let arm = |name: char| {
            let log = &log;
            move |round: usize| {
                log.borrow_mut().push(format!("{name}{round}"));
                Ok(round + 1)
            }
        };
        let (mut a, mut b, mut c) = (arm('a'), arm('b'), arm('c'));
        let m = measure(4, &mut [&mut a, &mut b, &mut c]).expect("arms succeed");
        // Warm-up runs every arm on round 0's work; round r starts with
        // arm r % 3.
        assert_eq!(
            log.borrow().join(" "),
            "a0 b0 c0 a0 b0 c0 b1 c1 a1 c2 a2 b2 a3 b3 c3"
        );
        assert_eq!((m.rate(0).n, m.rate(1).n, m.rate(2).n), (4, 4, 4));
    }

    #[test]
    fn measure_stops_at_an_arm_error() {
        let mut calls = 0;
        let mut failing = |r: usize| {
            calls += 1;
            if r == 2 {
                Err(crate::BenchError::Arg("round 2 failed".to_string()))
            } else {
                Ok(1)
            }
        };
        let err = measure(5, &mut [&mut failing]).unwrap_err();
        assert_eq!(err.to_string(), "round 2 failed");
        assert_eq!(calls, 4, "warm-up plus rounds 0, 1 and 2");
    }

    #[test]
    fn round_chunks_partition_the_items() {
        let items: Vec<u32> = (0..10).collect();
        let chunks: Vec<&[u32]> = (0..3).map(|r| round_chunk(&items, r, 3)).collect();
        assert_eq!(chunks, vec![&items[0..3], &items[3..6], &items[6..10]]);
        // Fewer items than rounds leave a round with nothing to time, which
        // measure refuses rather than report a zero rate.
        assert!(round_chunk(&items[..2], 0, 3).is_empty());
        let mut short = |r: usize| Ok(round_chunk(&items[..2], r, 3).len());
        let err = measure(3, &mut [&mut short]).unwrap_err();
        assert_eq!(err.to_string(), "arm 0 performed no operation in round 0");
    }

    #[test]
    fn repeat_to_runs_whole_passes_up_to_the_budget() {
        let mut passes = 0;
        assert_eq!(
            repeat_to(10, || {
                passes += 1;
                3
            }),
            12
        );
        assert_eq!(passes, 4);
        assert_eq!(repeat_to(0, || unreachable!("no budget, no pass")), 0);
    }
}
