//! Direct per-layer measurements the traced run makes outside the
//! workload loop: each calls one layer's public functions from here, with
//! a span around every call.

use ca_ram_core::engine::SearchEngine;
use ca_ram_core::key::SearchKey;
use ca_ram_core::layout::Record;
use ca_ram_core::table::CaRamTable;
use ca_ram_service::ServiceOp;

use crate::spans::{Spans, ROOT};
use crate::Outcome;

/// Timed passes over the key set per table (the median pass is reported).
const SEARCH_PASSES: usize = 7;
/// `occupancy()` calls timed (the median call is reported).
const OCCUPANCY_CALLS: usize = 501;

fn fold(table: &CaRamTable, keys: &[SearchKey]) -> (u64, u64) {
    let mut accesses = 0u64;
    let mut hits = 0u64;
    table.search_batch_into(keys, |o| {
        accesses += u64::from(o.memory_accesses);
        hits += u64::from(o.hit.is_some());
    });
    (accesses, hits)
}

/// The `table` and `kernel` search metrics: `search_batch_into` over
/// `keys` on `table` and on `scalar`, its twin built under the scalar
/// kernel, passes alternating; plus `occupancy()` on `table`.
///
/// # Panics
///
/// Panics on an empty key set, or if the twins disagree.
pub fn table_search(
    spans: &mut Spans,
    out: &mut Outcome,
    table: &CaRamTable,
    scalar: &CaRamTable,
    keys: &[SearchKey],
) {
    assert!(!keys.is_empty(), "no keys to search");
    let n = keys.len() as u64;
    // Warm both tables; the counts must repeat exactly across kernels.
    let counts = std::hint::black_box(fold(table, keys));
    assert_eq!(counts, fold(scalar, keys), "scalar twin diverged");
    let mut order = [
        ("table.search_batch", table),
        ("kernel.scalar_search_batch", scalar),
    ];
    for _ in 0..SEARCH_PASSES {
        // Alternate which twin goes first, so neither inherits a warmer
        // cache every time.
        for &(name, t) in &order {
            let r = spans.time(name, ROOT, n, || fold(t, keys));
            std::hint::black_box(r);
        }
        order.reverse();
    }
    #[allow(clippy::cast_precision_loss)]
    {
        out.set("table.accesses_per_lookup", counts.0 as f64 / n as f64);
        out.set("table.hit_rate", counts.1 as f64 / n as f64);
    }
    out.set(
        "table.search_ns_per_key",
        spans.median_ns_per_item("table.search_batch"),
    );
    out.set(
        "kernel.scalar_ns_per_key",
        spans.median_ns_per_item("kernel.scalar_search_batch"),
    );
    for _ in 0..OCCUPANCY_CALLS {
        let report = spans.time("table.occupancy", ROOT, 1, || {
            SearchEngine::occupancy(table)
        });
        std::hint::black_box(report);
    }
    out.set(
        "table.occupancy_ns",
        spans.median_ns_per_item("table.occupancy"),
    );
}

/// The `table` write metrics: applies `writes` (inserts and deletes) to
/// `table` in order, one span per call, and reports the mean insert and
/// delete cost.
///
/// # Panics
///
/// Panics if an insert fails or `writes` holds anything but appends
/// and deletes.
pub fn table_writes(
    spans: &mut Spans,
    out: &mut Outcome,
    table: &mut CaRamTable,
    writes: &[ServiceOp],
) {
    for w in writes {
        match *w {
            ServiceOp::Insert(record) => {
                spans
                    .time("table.insert", ROOT, 1, || table.insert(record))
                    .expect("benchmark writes fit the table");
            }
            ServiceOp::Delete(key) => {
                let removed = spans.time("table.delete", ROOT, 1, || table.delete(&key));
                std::hint::black_box(removed);
            }
            ServiceOp::Search(_) | ServiceOp::InsertSorted(_) => {
                panic!("a write stream holds appends and deletes only")
            }
        }
    }
    out.set("table.insert_ns", spans.ns_per_item("table.insert"));
    out.set("table.delete_ns", spans.ns_per_item("table.delete"));
}

/// Deletes and reinserts each record in turn: the write stream of a
/// workload whose live traffic is read-only.
#[must_use]
pub fn churn(records: &[Record]) -> Vec<ServiceOp> {
    records
        .iter()
        .flat_map(|r| [ServiceOp::Delete(r.key), ServiceOp::Insert(*r)])
        .collect()
}
