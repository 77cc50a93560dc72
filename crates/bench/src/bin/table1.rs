//! Reproduces **Table 1**: cell count, area, and delay for each stage of
//! match processing (Sec. 3.3), from the analytical synthesis model
//! calibrated to the paper's 0.16 µm standard-cell prototype (`C = 1600`,
//! key sizes 1–16 bytes, don't-care support).
//!
//! Also prints the fixed-width application-specific variant the paper
//! predicts ("much of this complexity will be removed") and the Synopsys
//! worst-case dynamic power checkpoint.

use ca_ram_bench::{rule, Cli, Result};
use ca_ram_hwmodel::synth::{MatchProcessorParams, SynthesisModel};
use ca_ram_hwmodel::Nanoseconds;

fn print_report(title: &str, params: &MatchProcessorParams) {
    let report = SynthesisModel::new().synthesize(params);
    println!("{title}");
    println!(
        "{:<26} {:>8} {:>12} {:>10}",
        "Step", "# cells", "Area, um^2", "Delay, ns"
    );
    rule(60);
    for s in report.stages() {
        let delay = if s.stage.is_hidden() {
            format!("({:.2})", s.delay.value())
        } else {
            format!("{:.2}", s.delay.value())
        };
        println!(
            "{:<26} {:>8} {:>12.0} {:>10}",
            s.stage.to_string(),
            s.cells,
            s.area.value(),
            delay
        );
    }
    rule(60);
    println!(
        "{:<26} {:>8} {:>12.0} {:>10.2}",
        "Total",
        report.total_cells(),
        report.total_area().value(),
        report.critical_path().value()
    );
    println!(
        "max single-cycle clock: {:.0} MHz\n",
        report.max_clock().value()
    );
}

fn main() -> Result<()> {
    Cli::from_env("", "")?;
    println!("Table 1: Cell count, area, and delay for each stage of match processing\n");
    let proto = MatchProcessorParams::prototype();
    print_report(
        "Prototype (C = 1600, key sizes 1-16 bytes, ternary, 0.16 um):",
        &proto,
    );
    println!("Paper: 3,804 / 5,252 / 899 / 6,037 cells; 66,228 / 10,591 / 1,970 / 21,775 um^2;");
    println!("(0.89) / 0.95 / 1.91 / 1.99 ns; totals 15,992 cells, 100,564 um^2, 4.85 ns.\n");

    let report = SynthesisModel::new().synthesize(&proto);
    let p = report.dynamic_power(1.8, 0.5, Nanoseconds::new(6.0));
    println!(
        "Worst-case dynamic power @ VDD=1.8 V, activity 0.5, Tclk=6 ns: {:.1} (paper: 60.8 mW)\n",
        p
    );

    print_report(
        "Application-specific variant (fixed 64-bit ternary keys, C = 1600):",
        &MatchProcessorParams::fixed_width(1600, 64, true),
    );
    print_report(
        "Application-specific variant (fixed 128-bit binary keys, C = 12288):",
        &MatchProcessorParams::fixed_width(12_288, 128, false),
    );
    Ok(())
}
