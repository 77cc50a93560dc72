//! Reproduces the **Sec. 3.4 performance analysis**: search latency and
//! the bandwidth formula `B_CA-RAM = (Nslice / nmem) × fclk`, cross-checked
//! against the cycle-level queue simulation of the subsystem controller.
//!
//! Usage: `bandwidth [--requests N]`

use ca_ram_bench::{measure, rule, Cli, Result, GATE_ROUNDS};
use ca_ram_core::controller::{simulate, simulate_latency, QueueModelConfig};
use ca_ram_hwmodel::{CaRamTiming, CamTiming};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<()> {
    let requests: usize = Cli::from_env("requests", "")?.parse("requests", 50_000)?;

    println!("Sec. 3.4: CA-RAM bandwidth formula vs cycle-level simulation");
    println!("(DRAM-based slices: 200 MHz, nmem = 6 cycles; uniform random traffic)\n");

    println!(
        "{:>7} {:>16} {:>16} {:>8} {:>14}",
        "Nslice", "formula (Ms/s)", "simulated (Ms/s)", "error", "peak queue"
    );
    rule(68);
    let timing = CaRamTiming::dram_200mhz();
    let mut rng = SmallRng::seed_from_u64(99);
    for slices in [1u32, 2, 4, 8, 16] {
        let formula = timing.search_bandwidth(slices, 1.0);
        let config = QueueModelConfig {
            slices,
            nmem: 6,
            queue_depth: 64,
            accepts_per_cycle: 8,
            head_of_line: false,
        };
        let trace: Vec<u32> = (0..requests).map(|_| rng.gen_range(0..slices)).collect();
        let report = simulate(config, trace)?;
        let simulated = report.searches_per_cycle() * timing.clock().value();
        let err = 100.0 * (simulated - formula.value()).abs() / formula.value();
        println!(
            "{slices:>7} {:>16.1} {:>16.1} {:>7.1}% {:>14}",
            formula.value(),
            simulated,
            err,
            report.peak_queue_depth
        );
    }
    rule(68);

    let tcam = CamTiming::tcam_143mhz();
    println!(
        "\nTCAM reference: {:.0} Msearch/s at 143 MHz (1 search/cycle).",
        tcam.search_bandwidth().value()
    );
    println!(
        "CA-RAM reaches TCAM bandwidth at Nslice >= {} (paper: increasing Nslice is",
        (tcam.search_bandwidth().value() * 6.0 / timing.clock().value()).ceil()
    );
    println!("straightforward in CA-RAM and preferred for power control).\n");

    println!("Latency (one probe, match pipelined):");
    println!(
        "  CA-RAM: {:.2} ns ({} cycles DRAM + {:.2} ns match)",
        timing.search_latency(1).value(),
        timing.access_cycles(),
        timing.search_latency(1).value() - timing.memory_latency().value()
    );
    println!(
        "  TCAM + external data RAM: {:.2} ns (search {:.2} ns + data access 30 ns)",
        tcam.search_latency().value(),
        tcam.clock().period().value()
    );
    println!("  (Sec. 3.4: the data access is hidden in CA-RAM, fully exposed after a CAM.)");

    println!("\nSkewed traffic (all requests to one slice): the formula's hidden assumption.");
    let config = QueueModelConfig {
        slices: 8,
        nmem: 6,
        queue_depth: 64,
        accepts_per_cycle: 8,
        head_of_line: false,
    };
    let report = simulate(config, vec![0u32; requests.min(10_000)])?;
    println!(
        "  8 slices, single-slice traffic: {:.1} Msearch/s (vs {:.1} uniform)",
        report.searches_per_cycle() * timing.clock().value(),
        timing.search_bandwidth(8, 1.0).value()
    );

    // --- latency under load (transaction-level pipeline) -------------------
    println!("\nLatency under load (8 slices, 6-cycle DRAM, random traffic; cycles @200 MHz):");
    println!(
        "{:>12} {:>8} {:>8} {:>8} {:>8}",
        "utilization", "mean", "p50", "p99", "max"
    );
    {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let trace: Vec<u32> = (0..20_000).map(|_| rng.gen_range(0..8)).collect();
        let config = QueueModelConfig {
            slices: 8,
            nmem: 6,
            queue_depth: 1 << 14,
            accepts_per_cycle: 8,
            head_of_line: false,
        };
        // Capacity = 8/6 per cycle, i.e. one request per 0.75 cycles.
        for (num, den, util) in [(3u64, 1u64, 0.25), (3, 2, 0.5), (1, 1, 0.75), (5, 6, 0.9)] {
            let r = simulate_latency(config, num, den, trace.iter().copied())?;
            println!(
                "{util:>12.2} {:>8.1} {:>8} {:>8} {:>8}",
                r.mean_cycles, r.p50_cycles, r.p99_cycles, r.max_cycles
            );
        }
        println!("  (the closed-form bandwidth hides this queueing curve entirely)");
    }

    // --- trace-driven routing: real keys, real hash, real slice map --------
    println!("\nTrace-driven throughput (trigram design A: 4 vertical slices, DJB hash):");
    trace_driven(requests.min(30_000))?;
    Ok(())
}

/// Routes an actual key trace through the table's hash onto its vertical
/// slice groups and measures achieved bandwidth — uniform vs Zipf traffic.
fn trace_driven(lookups: usize) -> Result<()> {
    use ca_ram_bench::designs::{build_trigram_table, load_trigrams, trigram_designs};
    use ca_ram_workloads::trace::{frequencies, sample_trace, AccessPattern};
    use ca_ram_workloads::trigram::{generate, pack_text_key, TrigramConfig};

    let entries = generate(&TrigramConfig {
        entries: 50_000,
        vocabulary: 8_000,
        ..TrigramConfig::sphinx_like()
    });
    let mut design = trigram_designs()[0];
    design.rows_log2 = 8; // scaled rows; the slice count is what matters here
    let table = {
        let mut t = build_trigram_table(&design);
        load_trigrams(&mut t, &entries);
        t
    };
    let slice_of = |i: usize| {
        let key = ca_ram_core::key::SearchKey::new(pack_text_key(&entries[i]), 128);
        table.slice_group_of(table.home_bucket(&key))
    };
    let timing = CaRamTiming::dram_200mhz();
    for (name, pattern) in [
        ("uniform", AccessPattern::Uniform),
        ("zipf s=1.0", AccessPattern::Zipf { s: 1.0 }),
        ("zipf s=1.4", AccessPattern::Zipf { s: 1.4 }),
    ] {
        let freqs = frequencies(entries.len(), pattern, 42);
        let trace = sample_trace(&freqs, lookups, 43);
        let slice_trace: Vec<u32> = trace.iter().map(|&i| slice_of(i)).collect();
        let config = QueueModelConfig {
            slices: design.slices,
            nmem: 6,
            queue_depth: 64,
            accepts_per_cycle: 4,
            head_of_line: false,
        };
        let report = simulate(config, slice_trace)?;
        println!(
            "  {name:<11} {:.1} Msearch/s (formula ceiling {:.1})",
            report.searches_per_cycle() * timing.clock().value(),
            timing.search_bandwidth(design.slices, 1.0).value()
        );
    }
    println!("  (a good hash keeps even Zipf traffic near the ceiling: hot keys");
    println!("   are single buckets, not whole slices)");

    // The same table, driven through the batch API the subsystem pump
    // uses — simulator (host) throughput, not modelled hardware bandwidth.
    let keys: Vec<ca_ram_core::key::SearchKey> = {
        let freqs = frequencies(entries.len(), AccessPattern::Uniform, 42);
        sample_trace(&freqs, lookups, 44)
            .iter()
            .map(|&i| ca_ram_core::key::SearchKey::new(pack_text_key(&entries[i]), 128))
            .collect()
    };
    let m = measure(
        GATE_ROUNDS,
        &mut [&mut |_| Ok(table.search_batch(&keys).len())],
    )?;
    println!("\nSimulator throughput over the same table (host-side, not modelled hardware):");
    println!("  search_batch           {:.0} keys/s", m.rate(0));
    Ok(())
}
