//! Simulator-throughput smoke test for the batched search pipeline.
//!
//! Not a paper artifact: this measures the *simulator itself*. For each
//! Table 2 IP design it loads a synthetic BGP table, replays an address
//! trace through the serial batch (`search_batch`) of a scalar-kernel twin
//! and of the active-kernel table, and through the sharded parallel batch
//! (`search_batch_parallel`), and reports keys/sec for each plus the
//! measured mean memory accesses per search. Results are written as JSON
//! for tracking across revisions.
//!
//! Usage: `perf_smoke [--prefixes N] [--lookups N] [--seed S] [--threads T]
//! [--out PATH]`

use std::sync::Arc;

use ca_ram_bench::designs::{build_ip_table, ip_designs, load_prefixes};
use ca_ram_bench::driver::{keys_per_sec, member_trace, time};
use ca_ram_bench::{ensure, rule, Cli, DesignThroughput, PatternThroughput, Result, SearchReport};
use ca_ram_core::kernel::{self, Kernel};
use ca_ram_core::key::SearchKey;
use ca_ram_core::pattern::{compile, GeometryHint, Pattern, QueryPlan};
use ca_ram_core::table::CaRamTable;
use ca_ram_core::telemetry::HistogramSink;
use ca_ram_workloads::bgp::{generate, BgpConfig};
use ca_ram_workloads::dictionary::{self, DictionaryConfig};
use ca_ram_workloads::packet::{self, PacketClassConfig};

/// Interleaved best-of-21 timing of two tables' serial batch paths over
/// the same trace (alternating which side runs first each round, so
/// machine-load drift and ordering effects hit both sides equally).
/// Returns `(best_a_secs, best_b_secs)`.
fn timed_serial_pair(a: &CaRamTable, b: &CaRamTable, keys: &[SearchKey]) -> (f64, f64, f64) {
    // Fold the outcomes into a checksum instead of materializing the
    // outcome vector: the timed region then measures the search path, not
    // 100k × 64-byte outcome stores, and the checksum keeps the searches
    // observable (and un-elidable).
    fn fold_batch(t: &CaRamTable, keys: &[SearchKey]) -> u64 {
        let mut acc = 0u64;
        t.search_batch_into(keys, |o| {
            acc = acc
                .wrapping_add(u64::from(o.memory_accesses))
                .wrapping_add(o.hit.map_or(0, |h| h.bucket ^ u64::from(h.slot)));
        });
        acc
    }
    // Warm both paths (page in both tables, settle the branch predictors).
    std::hint::black_box(fold_batch(a, keys));
    std::hint::black_box(fold_batch(b, keys));
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    let mut ratios = [0.0f64; 21];
    for (round, ratio) in ratios.iter_mut().enumerate() {
        // Alternate which side runs first so neither systematically
        // inherits a warmer cache.
        let (ta, tb) = if round % 2 == 0 {
            let ta = time(|| std::hint::black_box(fold_batch(a, keys))).1;
            let tb = time(|| std::hint::black_box(fold_batch(b, keys))).1;
            (ta, tb)
        } else {
            let tb = time(|| std::hint::black_box(fold_batch(b, keys))).1;
            let ta = time(|| std::hint::black_box(fold_batch(a, keys))).1;
            (ta, tb)
        };
        best_a = best_a.min(ta);
        best_b = best_b.min(tb);
        *ratio = ta / tb;
    }
    // The gates consume the *median per-round ratio*, not the quotient of
    // the two bests: a background-load spike lands on one round's pair —
    // inflating both sides of that round — instead of on one side of the
    // final quotient, so the gate survives noisy shared CI boxes.
    ratios.sort_unstable_by(f64::total_cmp);
    (best_a, best_b, ratios[ratios.len() / 2])
}

/// Telemetry overhead of the serial batch path, in percent: `traced`
/// (sink installed, so its batch walks key by key) vs `plain` (the
/// hash-ahead pipelined batch loop).
fn serial_overhead_pct(plain: &CaRamTable, traced: &CaRamTable, keys: &[SearchKey]) -> f64 {
    let (_, _, traced_over_plain) = timed_serial_pair(traced, plain, keys);
    (traced_over_plain - 1.0) * 100.0
}

/// Measures one pattern-compiled workload: walk every query plan once to
/// count probes and hits, then time a second full pass.
fn measure_plans(
    scenario: &'static str,
    entries: usize,
    table: &CaRamTable,
    plans: &[QueryPlan],
) -> PatternThroughput {
    let mut hits = 0usize;
    let mut probes = 0usize;
    for plan in plans {
        for probe in plan.probes() {
            probes += 1;
            if table.search(probe).hit.is_some() {
                hits += 1;
                break;
            }
        }
    }
    let (_, secs) = time(|| {
        plans
            .iter()
            .filter(|p| p.execute(table).hit.is_some())
            .count()
    });
    #[allow(clippy::cast_precision_loss)]
    PatternThroughput {
        scenario,
        entries,
        lookups: plans.len(),
        keys_per_sec: keys_per_sec(plans.len(), secs),
        probes_per_query: probes as f64 / plans.len() as f64,
        hit_rate: hits as f64 / plans.len() as f64,
    }
}

/// The two pattern-compiled end-to-end workloads: 5-tuple packet
/// classification (masked multi-field rules, port ranges prefix-expanded)
/// and a spell-check dictionary (nearest-match probe ladders).
fn pattern_workloads(lookups: usize, seed: u64) -> Result<Vec<PatternThroughput>> {
    let mut out = Vec::new();

    // Packet classification: 500 rules compiled onto a ternary table whose
    // round-robin bit index taps the top bits of every header field.
    let rules = packet::generate(&PacketClassConfig {
        rules: 500,
        min_src_len: 14,
        seed,
    });
    let plan = compile(
        &packet::classifier_spec(),
        &GeometryHint {
            rows_log2: 11,
            slots_per_row: 16,
            data_bits: 32,
        },
    )
    .expect("five-tuple spec compiles");
    let mut table = plan.build_table()?;
    for r in &rules {
        let records = plan
            .lower_entry(&r.to_pattern(), r.action)
            .expect("generated rules lower");
        for rec in records {
            table
                .insert(rec)
                .unwrap_or_else(|e| panic!("inserting rule {r:?}: {e}"));
        }
    }
    let trace = packet::flow_trace(&rules, lookups, 0.8, seed ^ 0xF10);
    let plans: Vec<QueryPlan> = trace
        .iter()
        .map(|p| {
            plan.lower_query(&Pattern::Exact { value: p.pack() })
                .expect("exact headers lower")
        })
        .collect();
    out.push(measure_plans("packet-class", rules.len(), &table, &plans));

    // Spell-check dictionary: binary 8-char words, misspelled queries
    // resolved through distance-2 nearest-match ladders.
    let words = dictionary::generate(&DictionaryConfig {
        words: 5_000,
        word_len: 8,
        seed: seed ^ 0xD1C7,
    });
    let plan = compile(
        &dictionary::dictionary_spec(8, 2),
        &GeometryHint {
            rows_log2: 11,
            slots_per_row: 8,
            data_bits: 32,
        },
    )
    .expect("dictionary spec compiles");
    let mut table = plan.build_table()?;
    for (i, w) in words.iter().enumerate() {
        let data = u64::try_from(i).expect("word count fits u64");
        let records = plan
            .lower_entry(
                &Pattern::Exact {
                    value: dictionary::pack_word(w),
                },
                data,
            )
            .expect("words lower");
        for rec in records {
            table
                .insert(rec)
                .unwrap_or_else(|e| panic!("inserting word {w:?}: {e}"));
        }
    }
    let typos = dictionary::typo_trace(&words, lookups / 10, 2, seed ^ 0x7E0);
    let plans: Vec<QueryPlan> = typos
        .iter()
        .map(|t| {
            plan.lower_query(&Pattern::NearestMatch {
                value: dictionary::pack_word(&t.query),
                max_distance: 2,
            })
            .expect("typo ladders lower")
        })
        .collect();
    let r = measure_plans("dictionary-d2", words.len(), &table, &plans);
    assert!(
        (r.hit_rate - 1.0).abs() < f64::EPSILON,
        "every typo is within distance 2 of its word; hit rate {}",
        r.hit_rate
    );
    out.push(r);

    Ok(out)
}

fn main() -> Result<()> {
    let cli = Cli::from_env();
    let prefixes_n: usize = cli.parse("prefixes", 20_000)?;
    let lookups: usize = cli.parse("lookups", 100_000)?;
    let seed: u64 = cli.parse("seed", 0x1103)?;
    let threads: usize = cli.parse("threads", 0)?;
    let out_path = cli.value("out").unwrap_or("BENCH_search.json").to_string();
    ensure(prefixes_n > 0, "--prefixes must be > 0")?;
    ensure(
        lookups > 0,
        "--lookups must be > 0 (rates are undefined on an empty trace)",
    )?;

    let mut config = BgpConfig::scaled(prefixes_n);
    config.seed = seed;
    let prefixes = generate(&config);
    let weights = vec![1.0; prefixes.len()];

    // Address trace: random member addresses of random prefixes, so every
    // lookup hits (the paper measures successful-search cost).
    let keys = member_trace(&prefixes, lookups, seed ^ 0x5EED);

    let kernel = kernel::active_kernel();
    println!(
        "Simulator search throughput ({prefixes_n} prefixes, {lookups} lookups, \
         {} kernel)",
        kernel.name()
    );
    println!(
        "{:^6} {:>14} {:>14} {:>14} {:>7} {:>8}",
        "Design", "scalar keys/s", "serial keys/s", "par keys/s", "simd x", "mem/srch"
    );
    rule(70);

    let mut results: Vec<DesignThroughput> = Vec::new();
    for d in ip_designs() {
        let mut table = build_ip_table(&d);
        load_prefixes(&mut table, &prefixes, &weights);
        // The scalar twin: identical geometry and contents, but its match
        // processors captured the scalar kernel at build time.
        let scalar_table = kernel::with_forced(Kernel::Scalar, || {
            let mut t = build_ip_table(&d);
            load_prefixes(&mut t, &prefixes, &weights);
            t
        });
        assert_eq!(scalar_table.kernel(), Kernel::Scalar, "design {}", d.name);

        // Warm-up + correctness: both batch paths and the scalar twin must
        // agree exactly, and the parallel stats must be the shard-exact
        // serial accumulation.
        let serial_outcomes = table.search_batch(&keys);
        let (parallel_outcomes, stats) = table.search_batch_parallel_stats(&keys, threads);
        assert_eq!(serial_outcomes, parallel_outcomes, "design {}", d.name);
        assert_eq!(
            serial_outcomes,
            scalar_table.search_batch(&keys),
            "scalar twin diverged on design {}",
            d.name
        );
        assert_eq!(stats.searches, keys.len() as u64, "design {}", d.name);

        let (scalar_secs, serial_secs, scalar_over_simd) =
            timed_serial_pair(&scalar_table, &table, &keys);
        let (_, parallel_secs) = time(|| table.search_batch_parallel(&keys, threads));

        let r = DesignThroughput {
            name: d.name,
            scalar_kps: keys_per_sec(keys.len(), scalar_secs),
            serial_kps: keys_per_sec(keys.len(), serial_secs),
            parallel_kps: keys_per_sec(keys.len(), parallel_secs),
            simd_speedup: scalar_over_simd,
            mean_accesses: stats.measured_amal(),
        };
        println!(
            "{:^6} {:>14.0} {:>14.0} {:>14.0} {:>6.2}x {:>8.3}",
            r.name, r.scalar_kps, r.serial_kps, r.parallel_kps, r.simd_speedup, r.mean_accesses,
        );
        results.push(r);
    }
    rule(70);

    // Telemetry overhead: the serial batch on design A with a shallow
    // histogram sink installed vs an uninstrumented twin table (whose cost
    // already includes the one disabled-sink null-pointer branch). The
    // traced batch walks key by key while the untraced one runs the
    // hash-ahead pipelined loop, so this compares two loops, not only the
    // sink.
    let telemetry_overhead_pct = {
        let mut plain = build_ip_table(&ip_designs()[0]);
        load_prefixes(&mut plain, &prefixes, &weights);
        let mut traced = build_ip_table(&ip_designs()[0]);
        load_prefixes(&mut traced, &prefixes, &weights);
        traced.set_telemetry_sink(Arc::new(HistogramSink::new()));
        serial_overhead_pct(&plain, &traced, &keys)
    };
    println!(
        "telemetry-enabled serial batch overhead (design A, shallow sink): \
         {telemetry_overhead_pct:+.2}% (target < 5.00%) {}",
        if telemetry_overhead_pct < 5.0 {
            "PASS"
        } else {
            "MISS"
        }
    );

    // Pattern-compiled end-to-end workloads (single-probe classification
    // and multi-probe nearest match), reported alongside the designs.
    let patterns = pattern_workloads(lookups.min(20_000), seed)?;
    println!(
        "{:^14} {:>8} {:>8} {:>14} {:>12} {:>9}",
        "Pattern", "entries", "lookups", "keys/s", "probes/qry", "hit rate"
    );
    rule(80);
    for p in &patterns {
        println!(
            "{:^14} {:>8} {:>8} {:>14.0} {:>12.3} {:>9.4}",
            p.scenario, p.entries, p.lookups, p.keys_per_sec, p.probes_per_query, p.hit_rate
        );
    }
    rule(80);

    let report = SearchReport {
        prefixes: prefixes_n,
        lookups,
        threads,
        kernel: kernel.name().to_string(),
        telemetry_overhead_pct,
        designs: results,
        patterns,
    };
    if kernel == Kernel::Scalar {
        println!(
            "minimum SIMD speedup over scalar kernel: n/a (scalar kernel active; \
             twins are identical)"
        );
    } else {
        let min_simd_speedup = report.min_simd_speedup();
        println!(
            "minimum SIMD speedup over scalar kernel (serial batch): \
             {min_simd_speedup:.2}x (target >= 1.30x) {}",
            if min_simd_speedup >= 1.3 {
                "PASS"
            } else {
                "MISS"
            }
        );
    }

    report.write(&out_path)?;
    println!("(wrote {out_path})");
    Ok(())
}
