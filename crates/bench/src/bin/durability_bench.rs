//! Durability overhead and recovery benchmark: prices the write-ahead
//! log against the in-memory baseline and measures how fast a table
//! comes back after a crash.
//!
//! Method: one [`measure`] call times the same insert stream, in the same
//! interleaved rounds, through (a) a plain heap-backed
//! [`ca_ram_core::table::CaRamTable`] (the baseline the paper's substrate
//! assumes), (b) a [`DurableTable`] committing per operation, (c) durable
//! tables group-committing every N operations — the shard drain's
//! batching discipline — under both `SyncPolicy::Flush` and
//! `SyncPolicy::Sync`, and (d) the file-backed arrays. Each durable mode's
//! cost is its per-round rate over the heap's. The batch=256 Flush tables
//! (one per round) then time the two recovery paths: a pure WAL-tail
//! replay and a checkpoint-then-snapshot-restore cycle. A bounded
//! crash-injection sweep (every record boundary plus a torn intra-record
//! sample) rides along so the bench doubles as a durability smoke test,
//! and the search path is re-measured through the durable wrapper to show
//! the read side stays on the heap hot path.
//!
//! Usage: `durability_bench [--records N] [--lookups N] [--seed N]
//! [--out PATH] [--smoke]`
//!
//! `--smoke` shrinks the workload to CI scale and turns the sanity
//! gates (bounded batched-write overhead, read-path parity, a green crash
//! sweep) into hard failures; recovered contents are checked always.

use std::fmt::Write as _;
use std::path::PathBuf;

use ca_ram_bench::designs::shard_spec;
use ca_ram_bench::fleet::durable_spec;
use ca_ram_bench::{
    ensure, exact_match_workload, measure, repeat_to, write_text_atomic, Arm, Cli, Gates, Result,
    Stats, GATE_ROUNDS,
};
use ca_ram_core::engine::SearchEngine;
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::Record;
use ca_ram_core::oracle::Op;
use ca_ram_core::storage::durable::unique_temp_dir;
use ca_ram_core::storage::{
    crash_sweep, CrashSweepOptions, CutGranularity, DurableOptions, DurableTable, SyncPolicy,
};

/// Keys each search arm looks up per round: the probe trace repeated, so
/// a round lasts milliseconds at any `--lookups`.
const SEARCH_BUDGET: usize = 200_000;

/// The tables one timed arm works on, one per call (warm-up included):
/// built before timing starts — creating a durable table writes and syncs
/// its superblock, which no insert rate should carry — and kept once
/// filled, so no drop is timed either.
struct RoundTables {
    fresh: Vec<Box<dyn SearchEngine>>,
    filled: Vec<Box<dyn SearchEngine>>,
}

impl RoundTables {
    fn build(mut make: impl FnMut() -> Result<Box<dyn SearchEngine>>) -> Result<Self> {
        let fresh = (0..=GATE_ROUNDS).map(|_| make()).collect::<Result<_>>()?;
        Ok(Self {
            fresh,
            filled: Vec::new(),
        })
    }

    /// Inserts `pairs` into the next fresh table, committing every `batch`
    /// operations (0 = only at the end); returns the insert count.
    fn fill(&mut self, pairs: &[(u64, u64)], batch: usize) -> Result<usize> {
        let mut table = self.fresh.pop().expect("one fresh table per call");
        for (i, &(key, value)) in pairs.iter().enumerate() {
            table.insert(Record::new(TernaryKey::binary(u128::from(key), 64), value))?;
            if batch > 0 && (i + 1) % batch == 0 {
                table.commit()?;
            }
        }
        table.commit()?;
        self.filled.push(table);
        Ok(pairs.len())
    }
}

/// Opens every directory in `dirs`, one per call of a one-arm [`measure`],
/// and returns the per-round rate of `count` (the records each recovery
/// brought back) with the opened tables.
fn time_opens(
    dirs: &[PathBuf],
    opts: &DurableOptions,
    count: impl Fn(&DurableTable) -> usize,
) -> Result<(Stats, Vec<DurableTable>)> {
    let mut next = dirs.iter();
    let mut opened = Vec::with_capacity(dirs.len());
    let rate = measure(
        GATE_ROUNDS,
        &mut [&mut |_| {
            let dir = next.next().expect("one directory per call");
            let table = DurableTable::open(dir, opts.clone())?;
            let records = count(&table);
            opened.push(table);
            Ok(records)
        }],
    )?
    .rate(0);
    Ok((rate, opened))
}

/// The op stream the crash-injection smoke sweeps: interleaved inserts,
/// deletes, and updates over 32-bit keys, dense enough that every cut
/// boundary lands between operations with visible effects.
fn crash_stream() -> Vec<Op> {
    let bits = 32u32;
    let mut ops = Vec::new();
    for i in 0..120u64 {
        let key = TernaryKey::binary(u128::from(i * 3 + 1), bits);
        ops.push(Op::Insert(Record::new(key, i)));
        if i % 5 == 4 {
            let victim = TernaryKey::binary(u128::from((i - 2) * 3 + 1), bits);
            ops.push(Op::Delete(victim));
        }
        if i % 7 == 6 {
            ops.push(Op::Update {
                key: TernaryKey::binary(u128::from((i - 1) * 3 + 1), bits),
                data: i ^ 0xDEAD,
            });
        }
    }
    ops
}

struct TempDirs(Vec<PathBuf>);

impl TempDirs {
    fn next(&mut self, tag: &str) -> PathBuf {
        let dir = unique_temp_dir(tag);
        self.0.push(dir.clone());
        dir
    }
}

impl Drop for TempDirs {
    fn drop(&mut self) {
        for dir in &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() -> Result<()> {
    let cli = Cli::from_env("records lookups seed out", "smoke")?;
    let smoke = cli.flag("smoke");
    let records = cli.parse("records", if smoke { 4_000 } else { 20_000 })?;
    let lookups = cli.parse("lookups", if smoke { 4_000 } else { 20_000 })?;
    let seed = cli.parse("seed", 0xD07Au64)?;
    let out = cli.parse("out", "BENCH_durability.json".to_string())?;
    ensure(records >= 512, "--records must be >= 512")?;
    ensure(lookups > 0, "--lookups must be > 0")?;

    let spec = shard_spec(records);
    let workload = exact_match_workload(records, lookups, seed);
    let pairs = &workload.pairs;
    let probe: Vec<SearchKey> = workload
        .trace
        .iter()
        .map(|&i| SearchKey::new(u128::from(workload.keys[i]), 64))
        .collect();
    let mut dirs = TempDirs(Vec::new());

    println!("durability_bench: {records} records, seed {seed:#x}");

    // -- Write modes against the heap baseline. Sync mode pays an fsync
    //    per commit, so it only runs group-committed; per-op fsync is
    //    priced by wal tests.
    let flush = DurableOptions {
        sync: SyncPolicy::Flush,
        auto_commit: false,
        ..DurableOptions::default()
    };
    let sync = DurableOptions {
        sync: SyncPolicy::Sync,
        ..flush.clone()
    };
    #[allow(unused_mut)]
    let mut plan: Vec<(&'static str, &'static str, Option<DurableOptions>, usize)> = vec![
        ("heap", "none", None, 0),
        ("durable-per-op", "flush", Some(flush.clone()), 1),
        ("durable-batch-64", "flush", Some(flush.clone()), 64),
        ("durable-batch-256", "flush", Some(flush.clone()), 256),
        ("durable-batch-256-fsync", "sync", Some(sync), 256),
    ];
    // The file-backed arrays (mmap superblock path), group-committed.
    #[cfg(feature = "mmap")]
    plan.push((
        "durable-file-arrays",
        "flush",
        Some(DurableOptions {
            file_arrays: true,
            ..flush.clone()
        }),
        256,
    ));
    // Batch-256 is the subject of the search and recovery measurements.
    let batched = plan
        .iter()
        .position(|m| m.0 == "durable-batch-256")
        .expect("planned");
    let mut wal_dirs = Vec::new();
    let mut tables = Vec::with_capacity(plan.len());
    for (i, (name, _, opts, _)) in plan.iter().enumerate() {
        tables.push(RoundTables::build(|| match opts {
            None => Ok(Box::new(spec.build()?)),
            Some(opts) => {
                let dir = dirs.next(name);
                if i == batched {
                    wal_dirs.push(dir.clone());
                }
                Ok(Box::new(DurableTable::create(&dir, &spec, opts.clone())?))
            }
        })?);
    }
    let mut arms: Vec<_> = (tables.iter_mut().zip(&plan))
        .map(|(t, &(.., batch))| move |_| t.fill(pairs, batch))
        .collect();
    let mut arms: Vec<Arm<'_>> = arms.iter_mut().map(|a| a as Arm<'_>).collect();
    let inserts = measure(GATE_ROUNDS, &mut arms)?;
    // Each mode's JSON row; `vs_heap` is the per-round rate over the
    // heap's (1.0 = free durability).
    let mut modes = Vec::with_capacity(plan.len());
    for (i, &(name, sync, _, batch)) in plan.iter().enumerate() {
        let (rate, vs_heap) = (inserts.rate(i), inserts.ratio(i, 0));
        println!("{name}: {:.0} inserts/s, {vs_heap:.3} of heap", rate.median);
        modes.push(format!(
            "    {{\"name\": \"{name}\", \"sync\": \"{sync}\", \"commit_batch\": {batch}, \
             \"inserts_per_sec\": {}, \"vs_heap\": {}}}",
            rate.to_json(1),
            vs_heap.to_json(4)
        ));
    }

    // -- Read path: searches through the durable wrapper delegate to the
    //    same in-memory table, so throughput must match the heap engine.
    //    Each arm repeats the probe trace up to `SEARCH_BUDGET` keys.
    let (heap_table, dur_table) = (&tables[0].filled[0], &tables[batched].filled[0]);
    let (mut heap_out, mut dur_out) = (Vec::new(), Vec::new());
    let search = measure(
        GATE_ROUNDS,
        &mut [
            &mut |_| {
                Ok(repeat_to(SEARCH_BUDGET, || {
                    heap_table.search_batch_into(&probe, &mut heap_out);
                    probe.len()
                }))
            },
            &mut |_| {
                Ok(repeat_to(SEARCH_BUDGET, || {
                    dur_table.search_batch_into(&probe, &mut dur_out);
                    probe.len()
                }))
            },
        ],
    )?;
    let search_ratio = search.ratio(1, 0);
    println!(
        "search: heap {:.0} keys/s, durable {:.0} keys/s, durable/heap {search_ratio:.3}",
        search.rate(0).median,
        search.rate(1).median
    );

    // -- Recovery, over the batch-256 directories (one per call). Path A:
    //    drop the writers and replay each full WAL tail.
    drop(tables);
    let (wal_replay, mut reopened) =
        time_opens(&wal_dirs, &flush, |t| t.recovery().replayed_records)?;
    for t in &reopened {
        ensure(t.records().len() == pairs.len(), "WAL replay lost records")?;
    }
    println!("recovery (WAL replay): {wal_replay:.0} records/s");

    // -- Checkpoint each reopened table, then path B: snapshot restore.
    let mut to_checkpoint = reopened.iter_mut();
    let checkpoint_ms = measure(
        GATE_ROUNDS,
        &mut [&mut |_| {
            to_checkpoint
                .next()
                .expect("one table per call")
                .checkpoint()?;
            Ok(1)
        }],
    )?
    .rate(0)
    .map(|per_sec| 1e3 / per_sec);
    drop(reopened);
    let snapshot_bytes: u64 = std::fs::read_dir(&wal_dirs[0])
        .map(|it| {
            it.filter_map(std::result::Result::ok)
                .filter(|e| {
                    e.path()
                        .file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("snap-"))
                })
                .filter_map(|e| e.metadata().ok().map(|m| m.len()))
                .sum()
        })
        .unwrap_or(0);
    let (snapshot_restore, restored) =
        time_opens(&wal_dirs, &flush, |t| t.recovery().snapshot_records)?;
    for t in &restored {
        ensure(
            t.records().len() == pairs.len(),
            "snapshot restore lost records",
        )?;
    }
    drop(restored);
    println!(
        "checkpoint: {checkpoint_ms:.2} ms ({snapshot_bytes} snapshot bytes); \
         recovery (snapshot restore): {snapshot_restore:.0} records/s"
    );

    // -- Crash-injection smoke: every record boundary of a mixed stream,
    //    with a mid-stream checkpoint, must recover to the model.
    let ops = crash_stream();
    let sweep = crash_sweep(
        "durability_bench",
        &|bits| durable_spec(bits, 26),
        32,
        &ops,
        &CrashSweepOptions {
            granularity: CutGranularity::Records { intra_samples: 1 },
            max_ops: ops.len(),
            checkpoint_at: Some(ops.len() / 2),
            probes_per_cut: 8,
        },
    )?;
    println!(
        "crash sweep: {} cuts ({} torn), {} probes — all recovered to the model",
        sweep.cuts_tested, sweep.torn_cuts, sweep.probes_checked
    );

    // -- Smoke gates: contents already checked above; here the bounds.
    //    Every gate is evaluated and printed; the report is written before
    //    a failure is returned.
    let mut gates = Gates::default();
    if smoke {
        let vs_heap = inserts.ratio(batched, 0);
        let figure = format!("batch-256 / heap {vs_heap:.3} (floor 0.15)");
        gates.check("group-committed inserts", vs_heap.median >= 0.15, &figure);
        let pass = search_ratio.median >= 0.5;
        let figure = format!("durable/heap {search_ratio:.3} (floor 0.5)");
        gates.check("durable search on the hot path", pass, &figure);
        let (cuts, torn) = (sweep.cuts_tested, sweep.torn_cuts);
        let figure = format!("{cuts} cuts, {torn} torn");
        gates.check("crash sweep tears records", cuts > 0 && torn > 0, &figure);
    }

    // -- Report.
    let mut json = String::from("{\n  \"benchmark\": \"durability\",\n");
    let _ = write!(
        json,
        "  \"records\": {records},\n  \"seed\": {seed},\n  \
         \"heap_inserts_per_sec\": {},\n",
        inserts.rate(0).to_json(1)
    );
    let _ = writeln!(json, "  \"modes\": [\n{}\n  ],", modes.join(",\n"));
    let _ = write!(
        json,
        "  \"search\": {{\"heap_keys_per_sec\": {}, \"durable_keys_per_sec\": {}, \
         \"ratio\": {}}},\n  \
         \"checkpoint\": {{\"elapsed_ms\": {}, \"snapshot_bytes\": {snapshot_bytes}}},\n  \
         \"recovery\": {{\"wal_replay_records_per_sec\": {}, \
         \"snapshot_restore_records_per_sec\": {}}},\n  \
         \"crash_sweep\": {{\"ops_logged\": {}, \"cuts_tested\": {}, \"torn_cuts\": {}, \
         \"probes_checked\": {}}}\n",
        search.rate(0).to_json(1),
        search.rate(1).to_json(1),
        search_ratio.to_json(4),
        checkpoint_ms.to_json(3),
        wal_replay.to_json(1),
        snapshot_restore.to_json(1),
        sweep.ops_logged,
        sweep.cuts_tested,
        sweep.torn_cuts,
        sweep.probes_checked,
    );
    json.push_str("}\n");
    write_text_atomic(&out, &json)?;
    println!("wrote {out}");
    gates.finish()?;
    if smoke {
        println!("smoke gates passed");
    }
    Ok(())
}
