//! Reproduces the paper's **motivating claim** (Sec. 1, 2.1, 4.1): software
//! search over a large database costs several main-memory accesses per
//! lookup — "software-based approaches usually require at least 4 to 6
//! memory accesses for forwarding one packet" — while CA-RAM needs ≈1.
//!
//! Runs the software structures over a simulated 32 KiB L1 + 2 MiB L2
//! hierarchy with a routing-table-sized key set, then prints the CA-RAM
//! AMAL for the same record count alongside.
//!
//! Usage: `software_baseline [--records N] [--lookups N]`

use ca_ram_bench::designs::{build_ip_table, ip_designs, load_prefixes};
use ca_ram_bench::{exact_match_workload, rule, Cli, ExactMatchWorkload, Result};
use ca_ram_softsearch::cache::Hierarchy;
use ca_ram_softsearch::harness::measure;
use ca_ram_softsearch::structures::{
    Arena, BinarySearchTree, ChainedHash, OpenAddressing, SoftIndex, SortedArray,
};
use ca_ram_softsearch::trie::MultibitTrie;
use ca_ram_workloads::bgp::{generate, BgpConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<()> {
    let cli = Cli::from_env("records lookups", "")?;
    let records: usize = cli.parse("records", 1_000_000)?;
    let lookups: usize = cli.parse("lookups", 50_000)?;

    println!("Software search cost vs CA-RAM (records: {records}, lookups: {lookups})\n");

    let ExactMatchWorkload { pairs, keys, trace } = exact_match_workload(records, lookups, 0xBEEF);

    let mut arena = Arena::new(0);
    let chained = ChainedHash::build(&pairs, 18, &mut arena); // ~4 per chain
    let open = OpenAddressing::build(&pairs, 21, &mut arena); // alpha ~0.5
    let sorted = SortedArray::build(&pairs, &mut arena);
    let bst = BinarySearchTree::build(&pairs, &mut arena);

    println!(
        "{:<22} {:>10} {:>12} {:>9} {:>9} {:>13}",
        "structure", "loads/op", "DRAM/op", "L1 hit", "L2 hit", "cycles/op"
    );
    rule(80);
    let mut mem = Hierarchy::typical();
    for index in [&chained as &dyn SoftIndex, &open, &sorted, &bst] {
        mem.reset();
        let r = measure(index, &keys, &trace, &mut mem);
        println!(
            "{:<22} {:>10.2} {:>12.2} {:>8.1}% {:>8.1}% {:>13.1}",
            r.structure,
            r.avg_loads,
            r.avg_memory_accesses,
            100.0 * r.l1_hit_rate,
            100.0 * r.l2_hit_rate,
            r.avg_latency_cycles
        );
    }
    rule(80);

    // The software LPM structure the paper's 4-6 figure refers to: a
    // multibit trie over the synthetic BGP table, looked up with member
    // addresses (true LPM traffic, not exact-match).
    println!("\nSoftware LPM (multibit trie, 8-bit stride) on the BGP table:");
    {
        let config = BgpConfig::scaled(records.min(186_760));
        let table = generate(&config);
        let entries: Vec<(u32, u8, u64)> = table
            .iter()
            .map(|p| (p.addr(), p.len(), u64::from(p.len())))
            .collect();
        let mut arena = Arena::new(1 << 40);
        let trie = MultibitTrie::build(&entries, 8, &mut arena);
        let mut mem = Hierarchy::typical();
        let mut rng2 = SmallRng::seed_from_u64(0xF00D);
        // Warm up, then measure.
        for _ in 0..10_000 {
            let p = table[rng2.gen_range(0..table.len())];
            let _ = trie.lookup(p.random_member(&mut rng2), &mut mem);
        }
        mem.stats = ca_ram_softsearch::cache::AccessStats::default();
        let mut loads: u64 = 0;
        let n = 50_000;
        for _ in 0..n {
            let p = table[rng2.gen_range(0..table.len())];
            let got = trie.lookup(p.random_member(&mut rng2), &mut mem);
            assert!(got.value.is_some());
            loads += u64::from(got.loads);
        }
        #[allow(clippy::cast_precision_loss)]
        let (l, d) = (
            loads as f64 / f64::from(n),
            mem.stats.memory_accesses as f64 / f64::from(n),
        );
        println!(
            "  {} prefixes, {} trie nodes: {l:.2} loads/lookup, {d:.2} DRAM accesses/lookup",
            table.len(),
            trie.node_count()
        );
        println!("  (3-4 dependent loads per lookup at 8-bit stride; finer strides and");
        println!("   trie variants reach the paper's 4-6; caches absorb the top levels)");
    }

    // CA-RAM on a comparable record count: design A of Table 2 scaled.
    let config = BgpConfig::scaled(records.min(186_760));
    let prefixes = generate(&config);
    let mut t = build_ip_table(&ip_designs()[0]);
    load_prefixes(&mut t, &prefixes, &vec![1.0; prefixes.len()]);
    let report = t.load_report();
    println!(
        "{:<22} {:>10} {:>12.3}   (one row fetch + parallel match)",
        "CA-RAM (design A)", "1 probe", report.amal_uniform
    );
    println!("\nPaper: software needs >=4-6 memory accesses per lookup; CA-RAM needs ~1.");
    Ok(())
}
