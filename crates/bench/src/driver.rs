//! The shared experiment driver: workload feeds, warmup/timing of
//! [`SearchEngine`] batch paths, stats snapshots, and JSON emission.
//!
//! Every reproduction binary used to carry its own copy of these loops;
//! they now differ only in what they print. The driver works in terms of
//! the unified [`SearchEngine`] interface, so the same timing and
//! equivalence checks apply to a `CaRamTable`, a CAM device, or a software
//! baseline.

use std::time::Instant;

use ca_ram_core::engine::SearchEngine;
use ca_ram_core::key::SearchKey;
use ca_ram_core::stats::SearchStats;
use ca_ram_workloads::bgp::BgpConfig;
use ca_ram_workloads::prefix::Ipv4Prefix;
use ca_ram_workloads::trigram::TrigramConfig;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::cli::{write_text_atomic, Result};

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

/// Runs `f` and returns its result with the elapsed wall-clock seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Keys per second for `n` lookups in `secs` (infinite below timer
/// resolution).
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn keys_per_sec(n: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        n as f64 / secs
    } else {
        f64::INFINITY
    }
}

/// Timed measurements of one engine's serial and parallel batch paths
/// over a fixed key trace.
#[derive(Debug, Clone, Copy)]
pub struct BatchTiming {
    /// Seconds for the serial `search_batch` pass.
    pub serial_secs: f64,
    /// Seconds for the `search_batch_parallel` pass.
    pub parallel_secs: f64,
    /// Search statistics of the trace (shard-exact; identical for both
    /// paths by the engine's bit-equivalence contract).
    pub stats: SearchStats,
}

/// Warms up an engine on `keys`, asserts the serial and parallel batch
/// paths agree bit-for-bit, then times each path once.
///
/// # Panics
///
/// Panics if the engine's serial and parallel outcomes disagree — a
/// conformance violation, not a recoverable condition.
#[must_use]
pub fn time_engine_batch(
    engine: &dyn SearchEngine,
    keys: &[SearchKey],
    threads: usize,
) -> BatchTiming {
    let warm_serial = engine.search_batch(keys);
    let (warm_parallel, stats) = engine.search_batch_parallel_stats(keys, threads);
    assert_eq!(
        warm_serial,
        warm_parallel,
        "engine {}: serial and parallel batch paths disagree",
        engine.name()
    );
    let (_, serial_secs) = time(|| engine.search_batch(keys));
    let (_, parallel_secs) = time(|| engine.search_batch_parallel(keys, threads));
    BatchTiming {
        serial_secs,
        parallel_secs,
        stats,
    }
}

/// Throughput of one design point under the serial batch (scalar and
/// active kernel) and the parallel batch.
#[derive(Debug, Clone)]
pub struct DesignThroughput {
    /// Design letter.
    pub name: &'static str,
    /// Keys/s of the serial batch with a scalar-kernel twin of the table.
    pub scalar_kps: f64,
    /// Keys/s of the allocation-free serial batch.
    pub serial_kps: f64,
    /// Keys/s of the sharded parallel batch.
    pub parallel_kps: f64,
    /// Serial-batch speedup of the active compare kernel over the
    /// scalar-kernel twin: the median per-round ratio of the interleaved
    /// paired timing (robust to load spikes; 1.0 by construction when
    /// scalar is active).
    pub simd_speedup: f64,
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
    pub keys_per_sec: f64,
    /// Mean engine probes issued per query (ladder length actually
    /// walked; 1.0 = every query resolved on its first probe).
    pub probes_per_query: f64,
    /// Fraction of queries that found a match.
    pub hit_rate: f64,
}

/// The `BENCH_search.json` report: simulator throughput per design.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Prefix count of the workload.
    pub prefixes: usize,
    /// Lookup count of the trace.
    pub lookups: usize,
    /// Requested parallel thread count (0 = auto).
    pub threads: usize,
    /// Name of the active compare kernel the tables captured
    /// (`scalar`, `128`, or `256`).
    pub kernel: String,
    /// Measured slowdown of the serial batch path with a shallow
    /// telemetry sink installed, in percent. A traced table's batch walks
    /// key by key while an untraced one runs the hash-ahead pipelined
    /// loop, so the figure compares those two loops, not the sink alone;
    /// a negative value means the traced per-key loop ran faster.
    pub telemetry_overhead_pct: f64,
    /// Per-design measurements.
    pub designs: Vec<DesignThroughput>,
    /// Pattern-compiled workload measurements.
    pub patterns: Vec<PatternThroughput>,
}

impl SearchReport {
    /// The smallest scalar-vs-active-kernel speedup across designs — the
    /// SIMD regression gate (only meaningful when `kernel != "scalar"`).
    #[must_use]
    pub fn min_simd_speedup(&self) -> f64 {
        self.designs
            .iter()
            .map(|d| d.simd_speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// Renders the report as JSON (hand-rolled: the workspace carries no
    /// serialization dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut json = String::from("{\n");
        json.push_str("  \"benchmark\": \"search\",\n");
        let _ = write!(
            json,
            "  \"prefixes\": {},\n  \"lookups\": {},\n  \"threads\": {},\n  \
             \"kernel\": \"{}\",\n  \
             \"min_simd_speedup\": {:.4},\n  \"telemetry_overhead_pct\": {:.4},\n",
            self.prefixes,
            self.lookups,
            self.threads,
            self.kernel,
            self.min_simd_speedup(),
            self.telemetry_overhead_pct
        );
        json.push_str("  \"designs\": [\n");
        for (i, r) in self.designs.iter().enumerate() {
            let _ = writeln!(
                json,
                "    {{\"name\": \"{}\", \
                 \"scalar_keys_per_sec\": {:.1}, \"serial_keys_per_sec\": {:.1}, \
                 \"parallel_keys_per_sec\": {:.1}, \"simd_speedup\": {:.4}, \
                 \"mean_memory_accesses\": {:.4}}}{}",
                r.name,
                r.scalar_kps,
                r.serial_kps,
                r.parallel_kps,
                r.simd_speedup,
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
                 \"keys_per_sec\": {:.1}, \"probes_per_query\": {:.4}, \
                 \"hit_rate\": {:.4}}}{}",
                r.scenario,
                r.entries,
                r.lookups,
                r.keys_per_sec,
                r.probes_per_query,
                r.hit_rate,
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

    #[test]
    fn search_report_json_shape() {
        let report = SearchReport {
            prefixes: 10,
            lookups: 20,
            threads: 0,
            kernel: "256".to_string(),
            telemetry_overhead_pct: 1.25,
            designs: vec![DesignThroughput {
                name: "A",
                scalar_kps: 200.0,
                serial_kps: 250.0,
                parallel_kps: 500.0,
                simd_speedup: 1.25,
                mean_accesses: 1.25,
            }],
            patterns: vec![PatternThroughput {
                scenario: "packet-class",
                entries: 500,
                lookups: 1_000,
                keys_per_sec: 1_234.5,
                probes_per_query: 2.5,
                hit_rate: 0.875,
            }],
        };
        assert!((report.min_simd_speedup() - 1.25).abs() < 1e-12);
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"benchmark\": \"search\",\n"));
        assert!(json.contains("\"kernel\": \"256\""));
        for retired in ["baseline", "serial_speedup", "parallel_speedup"] {
            assert!(!json.contains(retired), "{retired}");
        }
        assert!(json.contains("\"min_simd_speedup\": 1.2500"));
        assert!(json.contains("\"scalar_keys_per_sec\": 200.0"));
        assert!(json.contains("\"simd_speedup\": 1.2500"));
        assert!(json.contains("\"telemetry_overhead_pct\": 1.2500"));
        assert!(json.contains("\"mean_memory_accesses\": 1.2500"));
        assert!(json.contains("\"scenario\": \"packet-class\""));
        assert!(json.contains("\"probes_per_query\": 2.5000"));
        assert!(json.contains("\"hit_rate\": 0.8750"));
        assert!(json.ends_with("  ]\n}\n"));
    }

    #[test]
    fn engine_timing_checks_equivalence() {
        use ca_ram_bench_engine_fixture::small_table;
        let (table, keys) = small_table();
        let timing = time_engine_batch(&table, &keys, 3);
        assert_eq!(timing.stats.searches, keys.len() as u64);
    }
}

#[cfg(test)]
mod ca_ram_bench_engine_fixture {
    use ca_ram_core::index::RangeSelect;
    use ca_ram_core::key::{SearchKey, TernaryKey};
    use ca_ram_core::layout::{Record, RecordLayout};
    use ca_ram_core::probe::ProbePolicy;
    use ca_ram_core::table::{Arrangement, CaRamTable, OverflowPolicy, TableConfig};

    pub fn small_table() -> (CaRamTable, Vec<SearchKey>) {
        let layout = RecordLayout::new(32, false, 32);
        let config = TableConfig {
            rows_log2: 4,
            row_bits: 8 * layout.slot_bits(),
            layout,
            arrangement: Arrangement::Horizontal(1),
            probe: ProbePolicy::Linear,
            overflow: OverflowPolicy::Probe { max_steps: 16 },
        };
        let mut table =
            CaRamTable::new(config, Box::new(RangeSelect::new(0, 4))).expect("valid config");
        let mut keys = Vec::new();
        for i in 0..64u64 {
            let key = TernaryKey::binary(u128::from(i) * 97, 32);
            table
                .insert(Record::new(key, i))
                .expect("table sized for the fixture");
            keys.push(SearchKey::new(u128::from(i) * 97, 32));
        }
        (table, keys)
    }
}
