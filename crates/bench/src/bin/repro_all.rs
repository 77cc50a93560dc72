//! Runs the entire reproduction suite in sequence: Tables 1–3, Figures
//! 6–8, the bandwidth analysis, the software baseline, the telemetry
//! sweep, and a short seeded differential fuzz pass over every engine —
//! each as a child process so their CLI flags keep working.
//!
//! Each child's output is echoed live-ish (after the child exits) and
//! accumulated; the full transcript is written to `repro_output.txt`
//! atomically (temp file + rename), so an interrupted run never leaves a
//! truncated transcript behind. A child that fails to launch or exits
//! non-zero does not stop the suite: every child runs, the transcript is
//! written, and then the run exits non-zero naming every child that
//! failed (as a bench's gates do).
//!
//! Usage: `repro_all [--entries N] [--prefixes N] [--seed S] [--ops N]
//! [--time-box-ms N]`
//! (`--entries` scales the trigram experiments; the default is the paper's
//! full 5,385,231. Each child gets only the flags it accepts.)

use std::process::Command;

use ca_ram_bench::{ensure, write_text_atomic, BenchError, Cli, Result};

fn run(bin: &str, args: &[String], transcript: &mut String) -> Result<()> {
    let banner = format!("\n==================== {bin} ====================\n");
    println!("{banner}");
    transcript.push_str(&banner);
    transcript.push('\n');
    let exe = std::env::current_exe().map_err(|e| BenchError::Child {
        bin: bin.to_string(),
        message: format!("current executable path: {e}"),
    })?;
    let dir = exe.parent().ok_or_else(|| BenchError::Child {
        bin: bin.to_string(),
        message: "executable has no parent directory".to_string(),
    })?;
    let output = Command::new(dir.join(bin))
        .args(args)
        .output()
        .map_err(|e| BenchError::Child {
            bin: bin.to_string(),
            message: format!("failed to launch: {e}"),
        })?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    transcript.push_str(&stdout);
    if !output.stderr.is_empty() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        eprint!("{stderr}");
        transcript.push_str(&stderr);
    }
    if output.status.success() {
        Ok(())
    } else {
        Err(BenchError::Child {
            bin: bin.to_string(),
            message: format!("exited with {}", output.status),
        })
    }
}

fn main() -> Result<()> {
    let cli = Cli::from_env("entries prefixes seed ops time-box-ms", "")?;
    let tri_args = cli.passthrough(&["entries", "seed"]);
    let ip_args = cli.passthrough(&["prefixes", "seed"]);
    let prefix_args = cli.passthrough(&["prefixes"]);
    // Keep the differential sweep inside the suite's time budget: a
    // shorter per-scenario stream than the CI gate, same seeding.
    let mut fuzz_args = cli.passthrough(&["seed", "ops", "time-box-ms"]);
    if !fuzz_args.iter().any(|a| a == "--ops") {
        fuzz_args.extend(["--ops".to_string(), "5000".to_string()]);
    }

    let smoke = ["--smoke".to_string()];
    let children: [(&str, &[String]); 15] = [
        ("table1", &[]),
        ("table2", &ip_args),
        ("table3", &tri_args),
        ("fig6", &[]),
        ("fig7", &tri_args),
        ("fig8", &[]),
        ("bandwidth", &[]),
        ("software_baseline", &[]),
        ("ablation", &prefix_args),
        ("updates", &[]),
        ("explore", &prefix_args),
        ("perf_smoke", &ip_args),
        ("telemetry_report", &ip_args),
        ("serve_bench", &smoke),
        ("fuzz_engines", &fuzz_args),
    ];
    let mut transcript = String::new();
    let mut failed = Vec::new();
    for (bin, args) in children {
        if let Err(e) = run(bin, args, &mut transcript) {
            failed.push(e.to_string());
        }
    }

    let summary = if failed.is_empty() {
        "All reproduction targets completed.".to_string()
    } else {
        format!(
            "{} of {} children failed: {}",
            failed.len(),
            children.len(),
            failed.join("; ")
        )
    };
    transcript.push_str(&format!("\n{summary}\n"));
    write_text_atomic("repro_output.txt", &transcript)?;
    println!("\n{summary}");
    println!("(wrote repro_output.txt)");
    ensure(
        failed.is_empty(),
        &format!("children failed: {}", failed.join("; ")),
    )
}
