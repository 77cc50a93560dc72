//! Reproduces **Figure 7**: the distribution of buckets having a different
//! number of records for trigram design A (4 vertical slices, 96-record
//! buckets, α = 0.86).
//!
//! The histogram is computed over *home* buckets (where records hash to,
//! before spilling), exactly what makes "the bucket size of 96 records put
//! a majority of buckets in the non-overflowing region".
//!
//! Usage: `fig7 [--entries N] [--seed S]`

use ca_ram_bench::designs::{build_trigram_table, load_trigrams, trigram_designs};
use ca_ram_bench::{rule, trigram_config, Cli, Result};
use ca_ram_workloads::trigram::generate;

fn main() -> Result<()> {
    let cli = Cli::from_env("entries seed", "")?;
    let entries: usize = cli.parse("entries", 5_385_231)?;
    let seed: u64 = cli.parse("seed", 0x5F19)?;
    let config = trigram_config(entries, Some(seed));

    println!("Figure 7: distribution of buckets by records hashed to them (trigram design A)");
    println!("({} entries, seed {seed:#x})\n", config.entries);
    let data = generate(&config);
    let design = trigram_designs()[0];
    let mut t = build_trigram_table(&design);
    load_trigrams(&mut t, &data);

    let hist = t.home_histogram();
    let mean = hist.mean();
    let slots = t.slots_per_bucket();

    // Render an ASCII histogram binned by 4 records.
    let max_records = hist.max_records();
    let bin_width = 4u32;
    let bins = (max_records / bin_width) + 1;
    let mut binned = vec![0u64; bins as usize];
    for (records, buckets) in hist.series() {
        binned[(records / bin_width) as usize] += buckets;
    }
    let peak = binned.iter().copied().max().unwrap_or(1).max(1);
    println!(
        "{:>9} {:>8}  histogram (each bin = {bin_width} record counts)",
        "records", "buckets"
    );
    rule(76);
    for (bin, &count) in (0u32..).zip(binned.iter()) {
        let lo = bin * bin_width;
        if count == 0 && (lo + bin_width < mean as u32 / 2 || lo > max_records) {
            continue;
        }
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let bar = "#".repeat(((count as f64 / peak as f64) * 50.0).round() as usize);
        let marker = if lo <= slots && slots < lo + bin_width {
            " <- bucket size S"
        } else {
            ""
        };
        println!(
            "{:>4}-{:<4} {count:>8}  {bar}{marker}",
            lo,
            lo + bin_width - 1
        );
    }
    rule(76);
    println!("\nmean records/home bucket: {mean:.1} (paper: centred around 81)");
    #[allow(clippy::cast_precision_loss)]
    let over = 100.0 * hist.fraction_above(slots);
    println!("buckets above S = {slots}: {over:.2}% (paper: 5.99% overflowing buckets)");
    Ok(())
}
