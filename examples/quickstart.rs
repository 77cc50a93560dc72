//! Quickstart: build a CA-RAM table and drive it through the unified
//! `SearchEngine` interface — insert, search, batch search, delete.
//!
//! Every search substrate in this workspace (CA-RAM tables, the CAM/TCAM
//! baselines, the software indexes) implements the same trait, so the code
//! below works unchanged against any of them.
//!
//! Run with: `cargo run --example quickstart`

use ca_ram::core::engine::SearchEngine;
use ca_ram::core::index::RangeSelect;
use ca_ram::core::key::{SearchKey, TernaryKey};
use ca_ram::core::layout::{Record, RecordLayout};
use ca_ram::core::table::{CaRamTable, TableConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A table of 256 buckets, each holding eight 32-bit keys with 16 bits
    // of data stored alongside (so a hit returns the data with the row —
    // no second memory access, unlike a CAM + data RAM).
    let layout = RecordLayout::new(32, false, 16);
    let row_bits = 8 * layout.slot_bits();
    let config = TableConfig::single_slice(8, row_bits, layout);

    // The index generator is the hash function in hardware: here, the low
    // 8 key bits select the bucket.
    let mut table = CaRamTable::new(config, Box::new(RangeSelect::new(0, 8)))?;

    // From here on, everything goes through the unified engine interface.
    let engine: &mut dyn SearchEngine = &mut table;
    let occ = engine.occupancy();
    println!(
        "engine \"{}\": {}-bit keys, capacity {} records",
        engine.name(),
        engine.key_bits(),
        occ.capacity.unwrap_or(0)
    );

    // Insert a few records. In hardware this is the CAM-mode insert
    // operation; the index generator places each record in its bucket.
    for (key, data) in [(0x1111_2222u128, 1u64), (0xAAAA_BBBB, 2), (0x1234_5678, 3)] {
        engine.insert(Record::new(TernaryKey::binary(key, 32), data))?;
    }
    let occ = engine.occupancy();
    println!(
        "inserted {} records (load factor {:.4})",
        occ.records.unwrap_or(0),
        occ.load_factor().unwrap_or(0.0)
    );

    // Search: one memory access fetches the bucket, the match processors
    // compare all candidates in parallel.
    let outcome = engine.search(&SearchKey::new(0xAAAA_BBBB, 32));
    let hit = outcome.hit.expect("the key was inserted");
    println!(
        "search 0xAAAABBBB: data = {} ({} memory access(es))",
        hit.data, outcome.memory_accesses
    );

    // A miss still costs one access (the home bucket must be examined).
    let miss = engine.search(&SearchKey::new(0xDEAD_BEEF, 32));
    println!(
        "search 0xDEADBEEF: {:?} ({} memory access(es))",
        miss.hit.map(|h| h.data),
        miss.memory_accesses
    );

    // Batched search: the batch returns outcomes bit-identical to per-key
    // search (the engine conformance contract).
    let keys: Vec<SearchKey> = (0..1_000u128)
        .map(|i| SearchKey::new(0x1111_2222 + (i % 3) * 0x1000, 32))
        .collect();
    let batch = engine.search_batch(&keys);
    let per_key: Vec<_> = keys.iter().map(|k| engine.search(k)).collect();
    assert_eq!(batch, per_key);
    println!(
        "batched {} lookups: {} hits (batch == per-key)",
        keys.len(),
        batch.iter().filter(|o| o.hit.is_some()).count()
    );

    // Delete removes the record and frees the slot.
    let removed = engine.delete(&TernaryKey::binary(0x1111_2222, 32));
    println!("deleted 0x11112222: {removed} copy(ies) removed");
    assert!(engine
        .search(&SearchKey::new(0x1111_2222, 32))
        .hit
        .is_none());

    // The build statistics the paper's evaluation is based on (inherent
    // `CaRamTable` API — the trait exposes the common subset only).
    let report = table.load_report();
    println!(
        "load factor {:.4}, spilled {:.2}%, AMAL {:.3}",
        report.load_factor(),
        report.spilled_records_pct(),
        report.amal_uniform
    );
    Ok(())
}
