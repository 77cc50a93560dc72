//! Route-update study: online LPM table maintenance on CA-RAM vs TCAM.
//!
//! The paper cites fast TCAM update algorithms (Shah & Gupta \[29\]) because
//! keeping a TCAM prefix-length-sorted costs entry *moves* on every route
//! change. CA-RAM's analogue is `insert_sorted`: priority order is
//! maintained per bucket chain, so an update touches a handful of rows
//! instead of shifting a global array. This harness replays a BGP-like
//! churn stream (announce/withdraw mix) against both engines and reports
//! the update costs side by side, then verifies the two tables still
//! compute the same forwarding function.
//!
//! Usage: `updates [--prefixes N] [--events N]`

use ca_ram_bench::{rule, Cli, Result};
use ca_ram_cam::SortedTcam;
use ca_ram_core::index::RangeSelect;
use ca_ram_core::key::SearchKey;
use ca_ram_core::layout::{Record, RecordLayout};
use ca_ram_core::probe::ProbePolicy;
use ca_ram_core::table::{Arrangement, CaRamTable, OverflowPolicy, TableConfig};
use ca_ram_workloads::bgp::{generate, BgpConfig};
use ca_ram_workloads::prefix::Ipv4Prefix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<()> {
    let cli = Cli::from_env("prefixes events", "")?;
    let prefixes_n: usize = cli.parse("prefixes", 30_000)?;
    let events: usize = cli.parse("events", 20_000)?;
    let config = BgpConfig::scaled(prefixes_n);
    let all = generate(&config);
    // Start with 80% of the table installed; churn announces/withdraws the
    // rest in a random interleaving.
    let split = all.len() * 4 / 5;
    let (installed, pool) = all.split_at(split);

    println!(
        "Route-update study: {} installed prefixes, {} update events\n",
        installed.len(),
        events
    );

    // CA-RAM: design-D-like geometry sized for the table.
    let layout = RecordLayout::new(32, true, 0);
    let rows_log2 = 9;
    let table_config = TableConfig {
        rows_log2,
        row_bits: 64 * layout.slot_bits(),
        layout,
        arrangement: Arrangement::Horizontal(2),
        probe: ProbePolicy::Linear,
        overflow: OverflowPolicy::Probe {
            max_steps: 1 << rows_log2,
        },
    };
    let mut caram = CaRamTable::new(
        table_config,
        Box::new(RangeSelect::ip_first16_last(rows_log2)),
    )
    .expect("valid config");
    let mut tcam = SortedTcam::new(all.len() + 8, 32);

    for p in installed {
        caram
            .insert_sorted(Record::new(p.to_ternary_key(), 0))
            .expect("sized for the table");
        tcam.insert(p.to_ternary_key(), 0).expect("capacity");
    }

    // Churn.
    let mut rng = SmallRng::seed_from_u64(0xBEE);
    let mut live: Vec<Ipv4Prefix> = installed.to_vec();
    let mut spare: Vec<Ipv4Prefix> = pool.to_vec();
    let mut caram_probes: u64 = 0;
    let mut tcam_moves: u64 = 0;
    let mut announces = 0u64;
    let mut withdraws = 0u64;
    for _ in 0..events {
        if !spare.is_empty() && (live.is_empty() || rng.gen_bool(0.5)) {
            // Announce.
            let p = spare.swap_remove(rng.gen_range(0..spare.len()));
            let out = caram
                .insert_sorted(Record::new(p.to_ternary_key(), 0))
                .expect("capacity");
            caram_probes += out
                .placements
                .iter()
                .map(|pl| u64::from(pl.displacement) + 1)
                .sum::<u64>();
            let receipt = tcam.insert(p.to_ternary_key(), 0).expect("capacity");
            tcam_moves += u64::from(receipt.moves);
            live.push(p);
            announces += 1;
        } else if !live.is_empty() {
            // Withdraw.
            let p = live.swap_remove(rng.gen_range(0..live.len()));
            let removed = caram.delete(&p.to_ternary_key());
            assert!(removed >= 1, "{p} missing from CA-RAM");
            caram_probes += u64::from(removed); // one bucket rewrite per copy
            let receipt = tcam.delete(&p.to_ternary_key()).expect("present");
            tcam_moves += u64::from(receipt.moves);
            spare.push(p);
            withdraws += 1;
        }
    }

    println!("{:<34} {:>14} {:>14}", "", "CA-RAM", "sorted TCAM");
    rule(64);
    println!(
        "{:<34} {:>14} {:>14}",
        "update events",
        announces + withdraws,
        announces + withdraws
    );
    #[allow(clippy::cast_precision_loss)]
    let ca = caram_probes as f64 / (announces + withdraws) as f64;
    #[allow(clippy::cast_precision_loss)]
    let tm = tcam_moves as f64 / (announces + withdraws) as f64;
    println!(
        "{:<34} {:>14.2} {:>14.2}",
        "bucket writes / entry moves per op", ca, tm
    );
    println!(
        "{:<34} {:>14} {:>14}",
        "records after churn",
        caram.record_count(),
        tcam.len()
    );
    rule(64);

    // Equivalence audit.
    assert!(tcam.invariant_holds(), "TCAM ordering broken by churn");
    let mut checked = 0u32;
    for _ in 0..10_000 {
        let addr = if rng.gen_bool(0.7) && !live.is_empty() {
            live[rng.gen_range(0..live.len())].random_member(&mut rng)
        } else {
            rng.gen::<u32>()
        };
        let key = SearchKey::new(u128::from(addr), 32);
        let a = caram.search(&key).hit.map(|h| h.record.key.care_count());
        let b = tcam.search(&key).map(|m| m.entry.key.care_count());
        if a != b {
            // Diagnose: where does every matching record live, and what is
            // the reach of its home bucket?
            caram.for_each_record(|bucket, slot, r| {
                if r.key.matches(&key) {
                    let home = caram.home_bucket(&key);
                    eprintln!(
                        "match care={} at bucket={bucket} slot={slot}; search home={home} disp={}",
                        r.key.care_count(),
                        (bucket + caram.logical_buckets() - home) % caram.logical_buckets(),
                    );
                }
            });
            eprintln!("search accesses: {}", caram.search(&key).memory_accesses);
            panic!("divergence on {addr:#010x}: caram {a:?} tcam {b:?}");
        }
        checked += u32::from(a.is_some());
    }
    println!("\nequivalence audit: 10,000 lookups, {checked} hits, zero divergences.");
    println!("(CA-RAM updates touch O(chain) buckets; TCAM updates move O(lengths) entries)");
    Ok(())
}
