//! Reproduces **Figure 6**: (a) cell size and (b) power consumption of
//! competing schemes at 130 nm (Sec. 3.4).
//!
//! Configuration as in the paper: 1 M ternary symbols of capacity, CA-RAM
//! split into 16 slices of 64 K cells (2 bits per ternary symbol, +7% match
//! processor overhead), TCAMs searched whole. CA-RAM runs at 200 MHz,
//! TCAMs at 143 MHz.

use ca_ram_bench::{rule, Cli, Result};
use ca_ram_hwmodel::{AreaModel, CaRamGeometry, CamGeometry, CellKind, Megahertz, PowerModel};

fn main() -> Result<()> {
    Cli::from_env("", "")?;
    let area = AreaModel::new();
    let power = PowerModel::new();

    // --- Fig. 6(a): effective area per stored ternary symbol -------------
    println!("Figure 6(a): cell size (area per ternary symbol, 130 nm)\n");
    let caram_cell = area.caram_cell_area(CellKind::EmbeddedDram, true);
    let rows: Vec<(String, f64)> = vec![
        (
            CellKind::TcamSram16T.to_string(),
            area.cam_cell_area(CellKind::TcamSram16T).value(),
        ),
        (
            CellKind::TcamDynamic8T.to_string(),
            area.cam_cell_area(CellKind::TcamDynamic8T).value(),
        ),
        (
            CellKind::TcamDynamic6T.to_string(),
            area.cam_cell_area(CellKind::TcamDynamic6T).value(),
        ),
        (
            "DRAM ternary CA-RAM (2 bits + 7% MP)".into(),
            caram_cell.value(),
        ),
    ];
    println!("{:<40} {:>12} {:>10}", "Scheme", "um^2/symbol", "vs CA-RAM");
    rule(66);
    for (name, a) in &rows {
        println!("{name:<40} {a:>12.2} {:>9.1}x", a / caram_cell.value());
    }
    println!("\nPaper: CA-RAM >12x smaller than 16T SRAM TCAM, 4.8x smaller than 6T TCAM.\n");

    // --- Fig. 6(b): power at the device operating points ------------------
    println!("Figure 6(b): power consumption (1 M ternary symbols)\n");
    let caram = CaRamGeometry::new(16, 256, 512, CellKind::EmbeddedDram, 8);
    let p_caram = power.caram_search_power(&caram, Megahertz::new(200.0));
    let tcam_entries = 16_384; // 1 M symbols / 64-symbol entries
    let schemes = [
        CellKind::TcamSram16T,
        CellKind::TcamDynamic8T,
        CellKind::TcamDynamic6T,
    ];
    println!("{:<40} {:>10} {:>10}", "Scheme", "mW", "vs CA-RAM");
    rule(64);
    for kind in schemes {
        let g = CamGeometry::new(tcam_entries, 64, kind);
        let p = power.cam_search_power(&g, Megahertz::new(143.0));
        println!(
            "{:<40} {:>10.1} {:>9.1}x",
            kind.to_string(),
            p.value(),
            p.value() / p_caram.value()
        );
    }
    println!(
        "{:<40} {:>10.1} {:>9.1}x",
        "DRAM ternary CA-RAM @200 MHz",
        p_caram.value(),
        1.0
    );
    let e = power.caram_search_energy(&caram);
    println!(
        "\nCA-RAM per-search energy breakdown: hash {:.2}, decode {:.2}, memory {:.2}, match {:.2}, encoder {:.2} (pJ)",
        e.hash.value(),
        e.decode.value(),
        e.memory.value(),
        e.match_logic.value(),
        e.encoder.value()
    );
    println!("\nPaper: CA-RAM >26x more power-efficient than 16T SRAM TCAM, >7x than 6T TCAM.");

    // --- extension: standby power (leakage + DRAM refresh) ----------------
    println!("\nStandby power (idle device, 1 M ternary symbols):\n");
    println!("{:<40} {:>12}", "Scheme", "mW (idle)");
    rule(54);
    for kind in schemes {
        let g = CamGeometry::new(tcam_entries, 64, kind);
        println!(
            "{:<40} {:>12.3}",
            kind.to_string(),
            power.cam_standby_power(&g).value()
        );
    }
    println!(
        "{:<40} {:>12.3}",
        "DRAM CA-RAM (leakage + 64 ms refresh)",
        power.caram_standby_power(&caram).value()
    );
    println!("(not in the paper; the idle-power gap is even wider than the active one)");
    Ok(())
}
