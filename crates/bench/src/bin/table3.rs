//! Reproduces **Table 3**: four CA-RAM designs for trigram lookup in a
//! speech recognition system (Sec. 4.2).
//!
//! Builds each design from a synthetic Sphinx-III-like trigram database
//! (5,385,231 entries of 13–16 characters by default — pass `--entries` for
//! a faster scaled run) hashed with the DJB string hash, and reports load
//! factor, overflowing buckets, spilled records, and AMAL.
//!
//! Usage: `table3 [--entries N] [--seed S] [--csv PATH]`

use ca_ram_bench::designs::{build_trigram_table, load_trigrams, trigram_designs};
use ca_ram_bench::{rule, trigram_config, write_text_atomic, Cli, Result};
use ca_ram_workloads::trigram::generate;

fn main() -> Result<()> {
    let cli = Cli::from_env("entries seed csv", "")?;
    let entries: usize = cli.parse("entries", 5_385_231)?;
    let seed: u64 = cli.parse("seed", 0x5F19)?;
    let config = trigram_config(entries, Some(seed));

    println!("Table 3: Designs of CA-RAM for trigram lookup in speech recognition");
    println!(
        "(synthetic trigram database, {} entries of {}-{} chars, seed {seed:#x})\n",
        config.entries, config.min_chars, config.max_chars
    );
    let data = generate(&config);

    let mut csv = String::from("design,r,c,slices,arrangement,alpha,overflow_pct,spill_pct,amal\n");
    println!(
        "{:^6} {:>3} {:>8} {:>8} {:>11} {:>6} {:>11} {:>9} {:>7}",
        "Design", "R", "C", "#Slices", "Arrangement", "alpha", "Overflow(%)", "Spill(%)", "AMAL"
    );
    rule(82);
    for d in trigram_designs() {
        let mut t = build_trigram_table(&d);
        load_trigrams(&mut t, &data);
        let report = t.load_report();
        println!(
            "{:^6} {:>3} {:>8} {:>8} {:>11} {:>6.2} {:>11.2} {:>9.2} {:>7.3}",
            d.name,
            d.rows_log2,
            format!("128x{}", d.keys_per_row),
            d.slices,
            d.arrangement_label(),
            report.load_factor(),
            report.overflowing_buckets_pct(),
            report.spilled_records_pct(),
            report.amal_uniform,
        );
        csv.push_str(&format!(
            "{},{},128x{},{},{},{:.4},{:.4},{:.4},{:.4}\n",
            d.name,
            d.rows_log2,
            d.keys_per_row,
            d.slices,
            d.arrangement_label(),
            report.load_factor(),
            report.overflowing_buckets_pct(),
            report.spilled_records_pct(),
            report.amal_uniform,
        ));
    }
    if let Some(path) = cli.value("csv") {
        write_text_atomic(path, &csv)?;
        println!("(wrote {path})");
    }
    rule(82);
    println!("\nPaper (full scale): A: α=0.86, 5.99% overflow, 0.34% spilled, AMAL 1.003;");
    println!(
        "B: α=0.68, 0.02%, 0.00%, 1.000; C: α=0.86, 0.15%, 0.00%, 1.000; D: α=0.68, 0, 0, 1.000."
    );
    Ok(())
}
