//! Design-space exploration: the tool a CA-RAM architect would actually
//! use. Sweeps geometry (R, keys/row, slice count, arrangement) and storage
//! technology (embedded DRAM vs SRAM) for a workload, prices every point
//! with the Sec. 3.4 models, measures AMAL by building the table, and
//! prints the Pareto frontier over (area, power, effective latency).
//!
//! This operationalizes the paper's design discussion: "α poses an
//! important design trade-off ... area (i.e., cost) versus search latency
//! (i.e., performance)" (Sec. 2.1) and the slice-arrangement choices of
//! Sec. 3.2.
//!
//! Usage: `explore [--workload ip|ipv6] [--prefixes N]`

use ca_ram_bench::{bgp_config, rule, BenchError, Cli, Result};
use ca_ram_core::index::RangeSelect;
use ca_ram_core::key::TernaryKey;
use ca_ram_core::layout::{Record, RecordLayout};
use ca_ram_core::probe::ProbePolicy;
use ca_ram_core::table::{Arrangement, CaRamTable, OverflowPolicy, TableConfig};
use ca_ram_hwmodel::{AreaModel, CaRamGeometry, CaRamTiming, CellKind, PowerModel};
use ca_ram_workloads::bgp::generate as gen_v4;
use ca_ram_workloads::ipv6::{generate as gen_v6, Ipv6Config};

#[derive(Debug, Clone)]
struct DesignCandidate {
    cell: CellKind,
    rows_log2: u32,
    keys_per_row: u32,
    horizontal: u32,
    alpha: f64,
    amal: f64,
    area_mm2: f64,
    power_mw: f64,
    latency_ns: f64,
    bandwidth_ms: f64,
}

fn evaluate(
    keys: &[(TernaryKey, u64)],
    key_bits: u32,
    hash_low: u32,
    cell: CellKind,
    rows_log2: u32,
    keys_per_row: u32,
    horizontal: u32,
) -> Option<DesignCandidate> {
    let layout = RecordLayout::new(key_bits, true, 0);
    let row_bits = keys_per_row * layout.slot_bits();
    let config = TableConfig {
        rows_log2,
        row_bits,
        layout,
        arrangement: Arrangement::Horizontal(horizontal),
        probe: ProbePolicy::Linear,
        overflow: OverflowPolicy::Probe {
            max_steps: 1 << rows_log2,
        },
    };
    let generator = RangeSelect::new(hash_low, rows_log2);
    let mut table = CaRamTable::new(config, Box::new(generator)).ok()?;
    #[allow(clippy::cast_precision_loss)]
    let alpha = keys.len() as f64 / table.capacity() as f64;
    if !(0.15..=0.95).contains(&alpha) {
        return None; // outside the sensible design band
    }
    for (key, _data) in keys {
        // Key-only layout, as in the paper's designs (C counts key bits).
        table.insert(Record::new(*key, 0)).ok()?;
    }
    let report = table.load_report();
    let amal = report.amal_uniform;

    let geometry = CaRamGeometry::new(horizontal, 1u64 << rows_log2, row_bits, cell, keys_per_row);
    let area = AreaModel::new()
        .caram_device_area(&geometry)
        .to_square_millimeters();
    let power = PowerModel::new();
    let timing = match cell {
        CellKind::Sram6T => CaRamTiming::sram_500mhz(),
        _ => CaRamTiming::dram_200mhz(),
    };
    let energy = power.caram_search_energy_parallel(&geometry, horizontal);
    let p = energy.total().at_rate(timing.clock());
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let latency = timing.search_latency(amal.ceil() as u32).value()
        - (amal.ceil() - amal) * timing.memory_latency().value();
    let bandwidth = timing.search_bandwidth(1, amal);
    Some(DesignCandidate {
        cell,
        rows_log2,
        keys_per_row,
        horizontal,
        alpha,
        amal,
        area_mm2: area.value(),
        power_mw: p.value(),
        latency_ns: latency,
        bandwidth_ms: bandwidth.value(),
    })
}

fn dominates(a: &DesignCandidate, b: &DesignCandidate) -> bool {
    a.area_mm2 <= b.area_mm2
        && a.power_mw <= b.power_mw
        && a.latency_ns <= b.latency_ns
        && (a.area_mm2 < b.area_mm2 || a.power_mw < b.power_mw || a.latency_ns < b.latency_ns)
}

fn main() -> Result<()> {
    let cli = Cli::from_env("workload prefixes", "")?;
    let workload = cli.value("workload").unwrap_or("ip").to_string();
    let (keys, key_bits, hash_low): (Vec<(TernaryKey, u64)>, u32, u32) = match workload.as_str() {
        "ip" => {
            let n: usize = cli.parse("prefixes", 186_760)?;
            let table = gen_v4(&bgp_config(n, None));
            (
                table
                    .iter()
                    .map(|p| (p.to_ternary_key(), u64::from(p.len())))
                    .collect(),
                32,
                16,
            )
        }
        "ipv6" => {
            let n: usize = cli.parse("prefixes", 46_690)?;
            let table = gen_v6(&Ipv6Config {
                prefixes: n,
                ..Ipv6Config::default()
            });
            (
                table
                    .iter()
                    .map(|p| (p.to_ternary_key(), u64::from(p.len())))
                    .collect(),
                128,
                96,
            )
        }
        other => {
            return Err(BenchError::Arg(format!(
                "--workload must be ip or ipv6, got {other}"
            )))
        }
    };
    println!(
        "Design-space exploration: {} workload, {} records\n",
        workload,
        keys.len()
    );

    let mut candidates = Vec::new();
    for cell in [CellKind::EmbeddedDram, CellKind::Sram6T] {
        for rows_log2 in [10u32, 11, 12, 13] {
            for keys_per_row in [32u32, 64, 96] {
                for horizontal in [1u32, 2, 4, 6, 8] {
                    if keys_per_row > 128 {
                        continue;
                    }
                    if let Some(c) = evaluate(
                        &keys,
                        key_bits,
                        hash_low,
                        cell,
                        rows_log2,
                        keys_per_row,
                        horizontal,
                    ) {
                        candidates.push(c);
                    }
                }
            }
        }
    }
    candidates.sort_by(|a, b| a.area_mm2.total_cmp(&b.area_mm2));

    println!(
        "{:<6} {:>3} {:>5} {:>3} {:>6} {:>7} {:>10} {:>10} {:>9} {:>10}",
        "cell", "R", "keys", "h", "alpha", "AMALu", "area(mm2)", "power(mW)", "lat(ns)", "BW(Ms/s)"
    );
    rule(84);
    let pareto: Vec<bool> = candidates
        .iter()
        .map(|c| !candidates.iter().any(|o| dominates(o, c)))
        .collect();
    for (c, &on_frontier) in candidates.iter().zip(&pareto) {
        let cell = match c.cell {
            CellKind::Sram6T => "SRAM",
            _ => "eDRAM",
        };
        println!(
            "{:<6} {:>3} {:>5} {:>3} {:>6.2} {:>7.3} {:>10.2} {:>10.1} {:>9.1} {:>10.0}{}",
            cell,
            c.rows_log2,
            c.keys_per_row,
            c.horizontal,
            c.alpha,
            c.amal,
            c.area_mm2,
            c.power_mw,
            c.latency_ns,
            c.bandwidth_ms,
            if on_frontier { "  *" } else { "" }
        );
    }
    rule(84);
    println!(
        "{} candidates in the design band; * marks the (area, power, latency) Pareto frontier.",
        candidates.len()
    );
    println!("SRAM buys latency and per-search energy; eDRAM buys density — the Sec. 3.1 trade.");
    Ok(())
}
