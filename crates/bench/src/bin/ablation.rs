//! Ablations for the design choices the paper calls out.
//!
//! 1. **Bucket size vs bucket count** at fixed capacity (Sec. 2.1: "when
//!    (M × S) is fixed, one can potentially reduce the number of collisions
//!    by increasing S (and decreasing M)") — the generalization of the
//!    Table 2 D-vs-F comparison.
//! 2. **Probe policy**: linear probing vs double hashing for overflow
//!    placement (Sec. 2.1 mentions both), on the design-A BGP table and on
//!    the compiled five-tuple classifier, whose concentrated homes merge
//!    into one spill cluster under linear probing.
//! 3. **Area vs latency**: the α ↔ AMAL trade-off curve and its slope
//!    ΔAMAL/Δα (Sec. 4.3: "the ratio of changes in these two values depends
//!    on the application, the hash function, and the value of α").
//! 4. **Dedicated overflow area** for designs C and E (Sec. 4.3: with a
//!    small TCAM searched in parallel, "AMAL becomes 1"; the paper moves
//!    1,829 and 1,163 entries).
//!
//! Usage: `ablation [--prefixes N]`

use ca_ram_bench::designs::{
    build_ip_table, classifier, ip_designs, ip_layout, load_prefixes, load_rules, next_hop_entries,
};
use ca_ram_bench::{bgp_config, rule, Cli, Result};
use ca_ram_cam::aggregate::aggregate;
use ca_ram_core::index::RangeSelect;
use ca_ram_core::probe::ProbePolicy;
use ca_ram_core::table::{Arrangement, CaRamTable, OverflowPolicy, TableConfig};
use ca_ram_workloads::bgp::generate;
use ca_ram_workloads::prefix::Ipv4Prefix;

fn main() -> Result<()> {
    let prefixes_n: usize = Cli::from_env("prefixes", "")?.parse("prefixes", 186_760)?;
    let config = bgp_config(prefixes_n, None);
    let table = generate(&config);
    let weights = vec![1.0; table.len()];
    println!(
        "Ablations over the synthetic BGP table ({} prefixes)\n",
        table.len()
    );

    // ---- 1. bucket size vs bucket count at fixed capacity -----------------
    println!(
        "1. Bucket size S vs bucket count M at fixed capacity M x S = 393,216 (alpha = 0.47):"
    );
    println!(
        "{:>6} {:>8} {:>12} {:>10} {:>8}",
        "S", "M", "Overflow(%)", "Spill(%)", "AMALu"
    );
    rule(50);
    for (rows_log2, keys) in [(14u32, 24u32), (13, 48), (12, 96), (11, 192)] {
        // keys_per_row beyond 128 exceeds the slice bitmap; split wide
        // buckets across horizontal slices instead.
        let (r, k, h) = if keys > 128 {
            (rows_log2, keys / 2, 2)
        } else {
            (rows_log2, keys, 1)
        };
        let layout = ip_layout();
        let cfg = TableConfig {
            rows_log2: r,
            row_bits: k * layout.slot_bits(),
            layout,
            arrangement: Arrangement::Horizontal(h),
            probe: ProbePolicy::Linear,
            overflow: OverflowPolicy::Probe { max_steps: 1 << r },
        };
        let mut t = CaRamTable::new(cfg, Box::new(RangeSelect::ip_first16_last(r)))?;
        load_prefixes(&mut t, &table, &weights);
        let rep = t.load_report();
        println!(
            "{:>6} {:>8} {:>12.2} {:>10.2} {:>8.3}",
            t.slots_per_bucket(),
            t.logical_buckets(),
            rep.overflowing_buckets_pct(),
            rep.spilled_records_pct(),
            rep.amal_uniform
        );
    }
    println!("(larger, fewer buckets absorb skew better — Sec. 2.1's claim, and D vs F)\n");

    // ---- 2. probe policy ----------------------------------------------------
    println!("2. Overflow probe policy:");
    println!(
        "{:>12} {:>14} {:>10} {:>8}",
        "table", "policy", "Spill(%)", "AMALu"
    );
    rule(47);
    let policies = [
        ("linear", ProbePolicy::Linear),
        ("double-hash", ProbePolicy::SecondHash),
    ];
    for (name, probe) in policies {
        // Design A geometry: 2048 buckets of 192 slots (2 horizontal
        // slices of 96, since one slice row holds at most 128 slots).
        let layout = ip_layout();
        let cfg = TableConfig {
            rows_log2: 11,
            row_bits: 96 * layout.slot_bits(),
            layout,
            arrangement: Arrangement::Horizontal(2),
            probe,
            overflow: OverflowPolicy::Probe { max_steps: 2048 },
        };
        let mut t = CaRamTable::new(cfg, Box::new(RangeSelect::ip_first16_last(11)))?;
        load_prefixes(&mut t, &table, &weights);
        let rep = t.load_report();
        println!(
            "{:>12} {name:>14} {:>10.2} {:>8.3}",
            "design A",
            rep.spilled_records_pct(),
            rep.amal_uniform
        );
    }
    // perf_smoke's packet classifier (500 rules, 2^11 rows of 16 slots),
    // compiled, then rebuilt under each policy with the compiled index.
    let (rules, plan) = classifier(0x1103);
    for (name, probe) in policies {
        let cfg = TableConfig {
            probe,
            ..plan.config().clone()
        };
        let mut t = CaRamTable::new(cfg, plan.index().build())?;
        load_rules(&mut t, &plan, &rules);
        let rep = t.load_report();
        println!(
            "{:>12} {name:>14} {:>10.2} {:>8.3}",
            "five-tuple",
            rep.spilled_records_pct(),
            rep.amal_uniform
        );
    }
    println!(
        "(double hashing spreads clustered spills at the cost of locality; the\n \
         compiler picks it for rule tables, whose homes cluster)\n"
    );

    // ---- 3. alpha vs AMAL ---------------------------------------------------
    println!("3. Area vs latency: alpha vs AMALu on the design-D geometry:");
    println!("{:>7} {:>8} {:>10}", "alpha", "AMALu", "dAMAL/da");
    rule(30);
    let mut last: Option<(f64, f64)> = None;
    for step in [4usize, 3, 2, 1] {
        // Uniform subsample (step sampling keeps the length mix intact;
        // taking a prefix of the length-sorted table would not).
        let subset: Vec<Ipv4Prefix> = table.iter().copied().step_by(step).collect();
        let mut t = build_ip_table(&ip_designs()[3]);
        load_prefixes(&mut t, &subset, &vec![1.0; subset.len()]);
        let rep = t.load_report();
        let alpha = rep.load_factor();
        let amal = rep.amal_uniform;
        let slope = last.map_or(0.0, |(a0, m0)| (amal - m0) / (alpha - a0));
        println!("{alpha:>7.3} {amal:>8.3} {slope:>10.2}");
        last = Some((alpha, amal));
    }
    println!("(the slope steepens with alpha — the Sec. 4.3 trade-off)\n");

    // ---- 4. dedicated overflow area for designs C and E ---------------------
    println!("4. Designs C and E with a parallel overflow area (Sec. 4.3):");
    println!(
        "{:>7} {:>16} {:>16} {:>8}",
        "design", "probing: AMALu", "entries moved", "AMALu"
    );
    rule(52);
    for idx in [2usize, 4] {
        let d = ip_designs()[idx];
        let mut probing = build_ip_table(&d);
        load_prefixes(&mut probing, &table, &weights);
        let base = probing.load_report();

        let layout = ip_layout();
        let cfg = TableConfig {
            rows_log2: d.rows_log2,
            row_bits: d.keys_per_row * layout.slot_bits(),
            layout,
            arrangement: d.arrangement(),
            probe: ProbePolicy::Linear,
            overflow: OverflowPolicy::ParallelArea { capacity: 1 << 17 },
        };
        let mut with_area =
            CaRamTable::new(cfg, Box::new(RangeSelect::ip_first16_last(d.rows_log2)))?;
        load_prefixes(&mut with_area, &table, &weights);
        let rep = with_area.load_report();
        println!(
            "{:>7} {:>16.3} {:>16} {:>8.3}",
            d.name,
            base.amal_uniform,
            with_area.overflow_count(),
            rep.amal_uniform
        );
        assert!((rep.amal_uniform - 1.0).abs() < 1e-9);
    }
    println!("(paper: C and E move 1,829 and 1,163 entries; AMAL becomes exactly 1)\n");

    // ---- 5. TCAM entry-count reduction by prefix aggregation ----------------
    // Sec. 5.1's theme: encoding/aggregation schemes shrink the required
    // associative capacity (Hanzawa et al. report 52% with one-hot-spot
    // block codes; plain sibling aggregation is the baseline version).
    println!("5. TCAM entry-count reduction by prefix aggregation (cf. Sec. 5.1):");
    {
        // Same next hop for prefixes sharing a /20 aggregate: a plausible
        // forwarding function with mergeable siblings.
        let entries = next_hop_entries(&table);
        let agg = aggregate(&entries);
        #[allow(clippy::cast_precision_loss)]
        let pct = 100.0 * agg.removed as f64 / entries.len() as f64;
        println!(
            "   {} entries -> {} after sibling merges ({pct:.1}% removed)",
            entries.len(),
            agg.entries.len()
        );
    }
    Ok(())
}
