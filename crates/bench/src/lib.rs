//! # ca-ram-bench
//!
//! The reproduction harness for the CA-RAM paper's evaluation: shared
//! experiment definitions (the Table 2 and Table 3 design points), builders
//! that map the synthetic workloads onto `CaRamTable`s, and the shared
//! experiment driver every binary runs on:
//!
//! * [`cli`] — `--flag value` parsing against each binary's declared
//!   flags and the bench error type, so each binary is a
//!   `fn main() -> Result<()>`;
//! * [`designs`] — the Table 2 / Table 3 design points and table builders;
//! * [`driver`] — workload feeds, [`measure`] (the one timing primitive:
//!   warmed, interleaved rounds summarized as median, quartiles and n),
//!   and JSON report emission;
//! * [`fleet`] — every search substrate packaged as an oracle
//!   [`EngineCase`](ca_ram_core::oracle::EngineCase) for the differential
//!   fuzzer (`fuzz_engines`).
//!
//! One binary per table/figure lives in `src/bin/`:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `table1` | match-processor synthesis (Table 1) |
//! | `table2` | IP-lookup designs A–F (Table 2) |
//! | `table3` | trigram designs A–D (Table 3) |
//! | `fig6`   | cell-size and power comparison (Fig. 6) |
//! | `fig7`   | trigram bucket-occupancy histogram (Fig. 7) |
//! | `fig8`   | application-level area/power (Fig. 8) |
//! | `bandwidth` | Sec. 3.4 bandwidth formula vs cycle simulation |
//! | `software_baseline` | Sec. 4.1 software lookup cost |
//! | `repro_all` | everything above in sequence |

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::module_name_repetitions)]

pub mod cli;
pub mod designs;
pub mod driver;
pub mod fleet;

pub use cli::{ensure, write_text_atomic, BenchError, Cli, Gates, Result};
pub use driver::{
    bgp_config, exact_match_workload, measure, member_trace, repeat_to, round_chunk,
    trigram_config, Arm, DesignThroughput, ExactMatchWorkload, Measurement, PatternThroughput,
    SearchReport, Stats, GATE_ROUNDS,
};
pub use fleet::{fleet_for, fleet_names, SubsystemEngine};

/// Prints a rule-of-dashes separator sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}
