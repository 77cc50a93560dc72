//! Reproduces **Table 2**: six CA-RAM designs for IP address lookup.
//!
//! For each design the harness builds the table from a synthetic AS1103-like
//! BGP table (186,760 prefixes by default), inserted in LPM priority order,
//! and reports load factor, overflowing buckets, spilled records, and AMAL
//! under uniform (`AMALu`) and Zipf-skewed (`AMALs`) access.
//!
//! Usage: `table2 [--prefixes N] [--seed S] [--cv F] [--blocks N]
//! [--csv PATH]` (`--cv` and `--blocks` override the generator's
//! calibration; `--csv` also writes the rows as CSV)

use ca_ram_bench::designs::{build_ip_table, ip_designs, load_prefixes};
use ca_ram_bench::{bgp_config, rule, write_text_atomic, Cli, Result};
use ca_ram_workloads::bgp::generate;
use ca_ram_workloads::prefix::Ipv4Prefix;
use ca_ram_workloads::trace::{frequencies, AccessPattern};

fn main() -> Result<()> {
    let cli = Cli::from_env("prefixes seed cv blocks csv", "")?;
    let prefixes_n: usize = cli.parse("prefixes", 186_760)?;
    let seed: u64 = cli.parse("seed", 0x1103)?;
    let mut config = bgp_config(prefixes_n, Some(seed));
    // Calibration overrides (see EXPERIMENTS.md).
    config.block_size_cv = cli.parse("cv", config.block_size_cv)?;
    config.blocks = cli.parse("blocks", config.blocks)?;

    println!("Table 2: Designs of CA-RAM for IP address lookup");
    println!(
        "(synthetic BGP table, {} prefixes, seed {seed:#x})\n",
        config.prefixes
    );

    let table = generate(&config);

    // Uniform placement order: (length desc, addr) — already how the
    // generator sorts. Skewed placement order: (length desc, freq desc).
    let uniform_order: Vec<Ipv4Prefix> = table.clone();
    let zipf = frequencies(table.len(), AccessPattern::Zipf { s: 1.0 }, seed ^ 0xABCD);
    let mut skewed_order: Vec<(Ipv4Prefix, f64)> =
        table.iter().copied().zip(zipf.iter().copied()).collect();
    skewed_order.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(b.1.total_cmp(&a.1)));

    let mut csv =
        String::from("design,r,c,slices,arrangement,alpha,overflow_pct,spill_pct,amalu,amals\n");
    println!(
        "{:^6} {:>3} {:>7} {:>8} {:>11} {:>6} {:>11} {:>9} {:>7} {:>7}",
        "Design",
        "R",
        "C",
        "#Slices",
        "Arrangement",
        "alpha",
        "Overflow(%)",
        "Spill(%)",
        "AMALu",
        "AMALs"
    );
    rule(96);
    for d in ip_designs() {
        // Build once in uniform order for AMALu and the overflow columns...
        let mut t_u = build_ip_table(&d);
        let w_u = vec![1.0; uniform_order.len()];
        load_prefixes(&mut t_u, &uniform_order, &w_u);
        let report = t_u.load_report();
        // ...and once in frequency order for AMALs (Sec. 4.1: "we sort the
        // prefixes on their prefix length (for LPM) and access frequency
        // before placing in CA-RAM").
        let mut t_s = build_ip_table(&d);
        let (ps, ws): (Vec<Ipv4Prefix>, Vec<f64>) = skewed_order.iter().copied().unzip();
        load_prefixes(&mut t_s, &ps, &ws);
        let amals = t_s.load_report().amal_weighted;

        println!(
            "{:^6} {:>3} {:>7} {:>8} {:>11} {:>6.2} {:>11.2} {:>9.2} {:>7.3} {:>7.3}",
            d.name,
            d.rows_log2,
            format!("{}x64", d.keys_per_row),
            d.slices,
            d.arrangement_label(),
            report.load_factor(),
            report.overflowing_buckets_pct(),
            report.spilled_records_pct(),
            report.amal_uniform,
            amals,
        );
        csv.push_str(&format!(
            "{},{},{}x64,{},{},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            d.name,
            d.rows_log2,
            d.keys_per_row,
            d.slices,
            d.arrangement_label(),
            report.load_factor(),
            report.overflowing_buckets_pct(),
            report.spilled_records_pct(),
            report.amal_uniform,
            amals,
        ));
    }
    if let Some(path) = cli.value("csv") {
        write_text_atomic(path, &csv)?;
        println!("(wrote {path})");
    }
    rule(96);
    println!("\nDuplicated prefixes (don't-care bits in hash positions): paper reports ~6.4%.");
    let d = &ip_designs()[0];
    let mut t = build_ip_table(d);
    load_prefixes(&mut t, &uniform_order, &vec![1.0; uniform_order.len()]);
    let r = t.load_report();
    #[allow(clippy::cast_precision_loss)]
    let dup_pct = 100.0 * r.duplicate_records as f64 / r.original_records as f64;
    println!(
        "measured: {} duplicates over {} prefixes = {dup_pct:.1}%",
        r.duplicate_records, r.original_records
    );
    Ok(())
}
