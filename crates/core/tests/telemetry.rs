//! End-to-end telemetry integration: sink events emitted by the table,
//! subsystem, and controller must agree with the untraced search results,
//! and the registry export must round-trip through its own validator.

use std::sync::{Arc, Mutex};

use ca_ram_core::controller::{simulate_with_sink, QueueModelConfig};
use ca_ram_core::index::RangeSelect;
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::{Record, RecordLayout};
use ca_ram_core::probe::ProbePolicy;
use ca_ram_core::table::{Arrangement, CaRamTable, OverflowPolicy, TableConfig};
use ca_ram_core::telemetry::{
    parse_json, to_json, to_prometheus, validate_json, HistogramSink, JsonValue, MetricsRegistry,
    ProbeSummary, Stage, TelemetrySink, TraceBuffer, TraceEvent,
};
use ca_ram_core::CaRamSubsystem;

/// A small probing table with 40 records over 4 buckets of 4 slots.
fn table() -> CaRamTable {
    let layout = RecordLayout::new(16, false, 16);
    let mut config = TableConfig::single_slice(4, 4 * layout.slot_bits(), layout);
    config.overflow = OverflowPolicy::Probe { max_steps: 16 };
    let mut t = CaRamTable::new(config, Box::new(RangeSelect::new(0, 4))).unwrap();
    for i in 0..40u64 {
        let key = TernaryKey::binary(u128::from(i) | 0x100, 16);
        t.insert(Record::new(key, i * 10)).unwrap();
    }
    t
}

fn probe_keys() -> Vec<SearchKey> {
    // Present keys, plus misses below and above the stored range.
    (0..48u64)
        .map(|i| SearchKey::new(u128::from(i) | 0x100, 16))
        .chain((0..8u64).map(|i| SearchKey::new(u128::from(i), 16)))
        .collect()
}

#[test]
fn traced_outcomes_match_untraced_for_both_sink_depths() {
    let plain = table();
    let expected: Vec<_> = probe_keys().iter().map(|k| plain.search(k)).collect();

    for deep in [false, true] {
        let mut traced = table();
        let sink = Arc::new(if deep {
            HistogramSink::deep()
        } else {
            HistogramSink::new()
        });
        traced.set_telemetry_sink(Arc::clone(&sink) as _);
        let got: Vec<_> = probe_keys().iter().map(|k| traced.search(k)).collect();
        assert_eq!(got, expected, "deep={deep}");

        let snap = sink.snapshot();
        assert_eq!(snap.stats.searches, expected.len() as u64, "deep={deep}");
        let hits = expected.iter().filter(|o| o.hit.is_some()).count() as u64;
        assert_eq!(snap.stats.hits, hits, "deep={deep}");
        assert_eq!(snap.probe_length.count(), expected.len() as u64);
        assert_eq!(snap.row_fetches.count(), expected.len() as u64);
        // Every search fetches at least one row.
        assert!(snap.stats.memory_accesses >= expected.len() as u64);
        if deep {
            // Deep mode fires hash + row-fetch stages for every search and
            // match popcounts for every fetched row.
            assert_eq!(
                snap.stage_counts[Stage::Hash.index()],
                expected.len() as u64
            );
            assert_eq!(
                snap.stage_counts[Stage::RowFetch.index()],
                snap.stats.memory_accesses
            );
            assert!(!snap.match_popcount.is_empty());
            assert_eq!(snap.stage_counts[Stage::Extract.index()], hits);
        } else {
            assert_eq!(snap.stage_counts, [0; 5]);
            assert!(snap.match_popcount.is_empty());
        }

        // Clearing the sink restores the untraced path.
        traced.clear_telemetry_sink();
        let after: Vec<_> = probe_keys().iter().map(|k| traced.search(k)).collect();
        assert_eq!(after, expected);
        assert_eq!(sink.snapshot().stats.searches, expected.len() as u64);
    }
}

#[test]
fn insert_emits_occupancy_events() {
    let layout = RecordLayout::new(16, false, 16);
    let mut config = TableConfig::single_slice(4, 4 * layout.slot_bits(), layout);
    config.overflow = OverflowPolicy::Probe { max_steps: 16 };
    let mut t = CaRamTable::new(config, Box::new(RangeSelect::new(0, 4))).unwrap();
    let buffer = Arc::new(TraceBuffer::new(1024));
    t.set_telemetry_sink(Arc::clone(&buffer) as _);

    // All twelve keys share the low index bits, so they pile into the
    // same home bucket and spill to probed neighbours.
    for i in 0..12u64 {
        let key = TernaryKey::binary(u128::from(i) << 4 | 0x3, 16);
        t.insert(Record::new(key, i)).unwrap();
    }
    let occupancies: Vec<u32> = buffer
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::InsertOccupancy(o) => Some(o),
            _ => None,
        })
        .collect();
    assert_eq!(occupancies.len(), 12);
    // Occupancy observed at insert counts the record just placed.
    assert!(occupancies.iter().all(|&o| o >= 1));
    assert!(occupancies.iter().any(|&o| o > 1));
}

#[test]
fn subsystem_pump_reports_queue_depth() {
    let mut sub = CaRamSubsystem::new();
    let id = sub.add_database("t", table());
    let sink = HistogramSink::shared();
    sub.set_telemetry_sink(id, Arc::clone(&sink) as _);

    let port = sub.request_port(id);
    for key in probe_keys().into_iter().take(6) {
        sub.store_request(port, key).unwrap();
    }
    sub.pump();

    let snap = sink.snapshot();
    assert_eq!(snap.stats.searches, 6);
    // The controller samples the backlog once per pump per database; the
    // single sample is the full six-request backlog (histogram sums are
    // exact even though bucket bounds are powers of two).
    assert_eq!(snap.queue_depth.count(), 1);
    assert_eq!(snap.queue_depth.sum(), 6);
}

#[test]
fn controller_simulation_feeds_queue_histograms() {
    let sink = HistogramSink::shared();
    let requests = (0..512u32).map(|i| i % 8);
    let report = simulate_with_sink(QueueModelConfig::fig8_ip_lookup(), requests, sink.as_ref())
        .expect("valid config");
    assert_eq!(report.completed, 512);

    let snap = sink.snapshot();
    assert!(snap.queue_depth.count() > 0);
    assert_eq!(snap.queue_wait.count(), 512);
}

#[test]
fn registry_export_round_trips_through_validator() {
    let mut traced = table();
    let sink = Arc::new(HistogramSink::deep());
    traced.set_telemetry_sink(Arc::clone(&sink) as _);
    for key in probe_keys() {
        let _ = traced.search(&key);
    }

    let mut registry = MetricsRegistry::new();
    registry.record_snapshot("test-table", &sink.snapshot());

    let json = to_json(&registry);
    let scopes = validate_json(&json).expect("export must satisfy its own schema");
    assert_eq!(scopes, 1);

    let parsed = parse_json(&json).expect("export must parse");
    let schema = parsed.get("schema").and_then(JsonValue::as_str);
    assert_eq!(schema, Some(ca_ram_core::telemetry::SCHEMA));

    let prom = to_prometheus(&registry);
    assert!(prom.contains("caram_probe_length_bucket"));
    assert!(prom.contains("le=\"+Inf\""));
    assert!(prom.contains("caram_searches"));
}

// ---- characterization: the exact event streams of the probe walk ----------

/// Records stage events and search summaries with `wants_match_vectors`
/// left false: the shallow view of a search, in which any stage event is
/// a bug.
#[derive(Default)]
struct ShallowLog(Mutex<Vec<TraceEvent>>);

impl ShallowLog {
    fn events(&self) -> Vec<TraceEvent> {
        self.0.lock().unwrap().clone()
    }
}

impl TelemetrySink for ShallowLog {
    fn stage(&self, stage: Stage, detail: u64) {
        self.0
            .lock()
            .unwrap()
            .push(TraceEvent::Stage(stage, detail));
    }

    fn search_complete(&self, summary: &ProbeSummary) {
        self.0
            .lock()
            .unwrap()
            .push(TraceEvent::SearchComplete(*summary));
    }
}

fn st(stage: Stage, detail: u64) -> TraceEvent {
    TraceEvent::Stage(stage, detail)
}

fn done(hit: bool, row_fetches: u64, probe_length: u64, homes: u64) -> TraceEvent {
    TraceEvent::SearchComplete(ProbeSummary {
        hit,
        row_fetches,
        probe_length,
        homes,
    })
}

/// 16-bit keys with 8-bit data in 96-bit slice rows (4 slots each) over 8
/// logical buckets indexed by the key's low bits.
fn small(ternary: bool, arrangement: Arrangement, overflow: OverflowPolicy) -> CaRamTable {
    let layout = RecordLayout::new(16, ternary, 8);
    let config = TableConfig {
        rows_log2: 3,
        row_bits: 96,
        layout,
        arrangement,
        probe: ProbePolicy::Linear,
        overflow,
    };
    CaRamTable::new(config, Box::new(RangeSelect::new(0, 4))).unwrap()
}

fn with_records(mut table: CaRamTable, keys: impl IntoIterator<Item = u128>) -> CaRamTable {
    for (i, k) in keys.into_iter().enumerate() {
        table
            .insert(Record::new(TernaryKey::binary(k, 16), i as u64))
            .unwrap();
    }
    table
}

/// Searches `keys` four ways — per key and batched, under a deep
/// [`TraceBuffer`] and under a shallow [`ShallowLog`] — and checks every
/// outcome against the untraced search, the hit payloads against `hits`,
/// the deep stream against `deep`, and the shallow stream against the
/// summaries of `deep` alone.
fn assert_streams(
    name: &str,
    mut table: CaRamTable,
    keys: &[SearchKey],
    hits: &[Option<u64>],
    deep: &[TraceEvent],
) {
    let plain: Vec<_> = keys.iter().map(|k| table.search(k)).collect();
    let got: Vec<_> = plain.iter().map(|o| o.hit.map(|h| h.record.data)).collect();
    assert_eq!(got, hits, "{name}: untraced hits");
    let shallow: Vec<TraceEvent> = deep
        .iter()
        .filter(|e| matches!(e, TraceEvent::SearchComplete(_)))
        .copied()
        .collect();
    for batched in [false, true] {
        let buffer = Arc::new(TraceBuffer::new(1 << 12));
        table.set_telemetry_sink(Arc::clone(&buffer) as _);
        let traced = if batched {
            table.search_batch(keys)
        } else {
            keys.iter().map(|k| table.search(k)).collect()
        };
        assert_eq!(traced, plain, "{name}: deep outcomes, batched={batched}");
        assert_eq!(
            buffer.events(),
            deep,
            "{name}: deep stream, batched={batched}"
        );

        let log = Arc::new(ShallowLog::default());
        table.set_telemetry_sink(Arc::clone(&log) as _);
        let traced = if batched {
            table.search_batch(keys)
        } else {
            keys.iter().map(|k| table.search(k)).collect()
        };
        assert_eq!(traced, plain, "{name}: shallow outcomes, batched={batched}");
        assert_eq!(
            log.events(),
            shallow,
            "{name}: shallow stream, batched={batched}"
        );
    }
}

#[test]
fn two_slice_horizontal_bucket_streams() {
    // Six keys share bucket 3: slots 0..4 on slice 0, 4..6 on slice 1.
    let table = with_records(
        small(
            false,
            Arrangement::Horizontal(2),
            OverflowPolicy::Probe { max_steps: 8 },
        ),
        (0..6u128).map(|i| i << 8 | 3),
    );
    let keys = [0x0503, 0x0003, 0x0903].map(|k| SearchKey::new(k, 16));
    #[rustfmt::skip]
    let deep = [
        st(Stage::Hash, 1), st(Stage::RowFetch, 8), st(Stage::Match, 0), st(Stage::Match, 1),
        st(Stage::Extract, 5), done(true, 1, 0, 1),
        st(Stage::Hash, 1), st(Stage::RowFetch, 8), st(Stage::Match, 1), st(Stage::Match, 0),
        st(Stage::Extract, 0), done(true, 1, 0, 1),
        st(Stage::Hash, 1), st(Stage::RowFetch, 8), st(Stage::Match, 0), st(Stage::Match, 0),
        done(false, 1, 0, 1),
    ];
    assert_streams("horizontal", table, &keys, &[Some(5), Some(0), None], &deep);
}

#[test]
fn spilled_chain_streams() {
    // Five keys home at bucket 2 (4 slots): the fifth spills to bucket 3,
    // raising bucket 2's reach to 1.
    let table = with_records(
        small(
            false,
            Arrangement::Horizontal(1),
            OverflowPolicy::Probe { max_steps: 8 },
        ),
        (0..5u128).map(|i| i << 8 | 2),
    );
    let keys = [0x0402, 0x0102, 0x0702].map(|k| SearchKey::new(k, 16));
    #[rustfmt::skip]
    let deep = [
        st(Stage::Hash, 1), st(Stage::RowFetch, 4), st(Stage::Match, 0),
        st(Stage::RowFetch, 4), st(Stage::Match, 1), st(Stage::Extract, 0), done(true, 2, 1, 1),
        st(Stage::Hash, 1), st(Stage::RowFetch, 4), st(Stage::Match, 1),
        st(Stage::Extract, 1), done(true, 1, 0, 1),
        st(Stage::Hash, 1), st(Stage::RowFetch, 4), st(Stage::Match, 0),
        st(Stage::RowFetch, 4), st(Stage::Match, 0), done(false, 2, 1, 1),
    ];
    assert_streams("spilled", table, &keys, &[Some(4), Some(1), None], &deep);
}

#[test]
fn masked_multi_home_key_streams() {
    let mut table = small(
        true,
        Arrangement::Horizontal(1),
        OverflowPolicy::Probe { max_steps: 8 },
    );
    for (key, data) in [
        (TernaryKey::ternary(0x0300, 0xF0, 16), 10), // care 12, home 0
        (TernaryKey::binary(0x0101, 16), 11),        // home 1
        (TernaryKey::binary(0x0302, 16), 12),        // care 16, home 2
        (TernaryKey::binary(0x0203, 16), 13),        // home 3
    ] {
        table.insert(Record::new(key, data)).unwrap();
    }
    // Two masked index bits: four homes, walked in bucket order (ternary
    // slots are wider: 2 per row). The first key matches at homes 0 and 2
    // and the more specific home-2 record wins; the second matches at
    // home 1 only.
    let keys = [
        SearchKey::with_mask(0x0300, 0x3, 16),
        SearchKey::with_mask(0x0100, 0x3, 16),
    ];
    #[rustfmt::skip]
    let deep = [
        st(Stage::Hash, 4),
        st(Stage::RowFetch, 2), st(Stage::Match, 1), st(Stage::RowFetch, 2), st(Stage::Match, 0),
        st(Stage::RowFetch, 2), st(Stage::Match, 1), st(Stage::RowFetch, 2), st(Stage::Match, 0),
        st(Stage::Extract, 0), done(true, 4, 0, 4),
        st(Stage::Hash, 4),
        st(Stage::RowFetch, 2), st(Stage::Match, 0), st(Stage::RowFetch, 2), st(Stage::Match, 1),
        st(Stage::RowFetch, 2), st(Stage::Match, 0), st(Stage::RowFetch, 2), st(Stage::Match, 0),
        st(Stage::Extract, 0), done(true, 4, 0, 4),
    ];
    assert_streams("masked", table, &keys, &[Some(12), Some(11)], &deep);
}

#[test]
fn overflow_area_hit_streams() {
    // Six keys to a 4-slot bucket: two land in the overflow store, which
    // is probed alongside the home row at no access cost.
    for (name, overflow) in [
        (
            "parallel-area",
            OverflowPolicy::ParallelArea { capacity: 4 },
        ),
        (
            "victim-slice",
            OverflowPolicy::VictimSlice {
                rows_log2: 2,
                row_bits: 96,
            },
        ),
    ] {
        let table = with_records(
            small(false, Arrangement::Horizontal(1), overflow),
            (0..6u128).map(|i| i << 8 | 1),
        );
        let keys = [0x0501, 0x0201, 0x0901].map(|k| SearchKey::new(k, 16));
        #[rustfmt::skip]
        let deep = [
            st(Stage::Hash, 1), st(Stage::RowFetch, 4), st(Stage::Match, 0),
            st(Stage::OverflowProbe, 2), st(Stage::Extract, 0), done(true, 1, 0, 1),
            st(Stage::Hash, 1), st(Stage::RowFetch, 4), st(Stage::Match, 1),
            st(Stage::OverflowProbe, 2), st(Stage::Extract, 2), done(true, 1, 0, 1),
            st(Stage::Hash, 1), st(Stage::RowFetch, 4), st(Stage::Match, 0),
            st(Stage::OverflowProbe, 2), done(false, 1, 0, 1),
        ];
        assert_streams(name, table, &keys, &[Some(5), Some(2), None], &deep);
    }
}

#[test]
fn post_delete_full_scan_streams() {
    // The spilled chain again, after a delete: every rung of the reach is
    // fetched even once a match is found.
    let mut table = with_records(
        small(
            false,
            Arrangement::Horizontal(1),
            OverflowPolicy::Probe { max_steps: 8 },
        ),
        (0..5u128).map(|i| i << 8 | 2),
    );
    assert_eq!(table.delete(&TernaryKey::binary(0x0002, 16)), 1);
    let keys = [0x0402, 0x0102, 0x0002].map(|k| SearchKey::new(k, 16));
    #[rustfmt::skip]
    let deep = [
        st(Stage::Hash, 1), st(Stage::RowFetch, 4), st(Stage::Match, 0),
        st(Stage::RowFetch, 4), st(Stage::Match, 1), st(Stage::Extract, 0), done(true, 2, 1, 1),
        st(Stage::Hash, 1), st(Stage::RowFetch, 4), st(Stage::Match, 1),
        st(Stage::RowFetch, 4), st(Stage::Match, 0), st(Stage::Extract, 1), done(true, 2, 0, 1),
        st(Stage::Hash, 1), st(Stage::RowFetch, 4), st(Stage::Match, 0),
        st(Stage::RowFetch, 4), st(Stage::Match, 0), done(false, 2, 1, 1),
    ];
    assert_streams(
        "post-delete",
        table,
        &keys,
        &[Some(4), Some(1), None],
        &deep,
    );

    // LPM after a delete and a backfill: a /16 lands in the home bucket,
    // upstream of the spilled /22 that must still win.
    let layout = RecordLayout::ipv4_prefix(8);
    let config = TableConfig {
        rows_log2: 3,
        row_bits: layout.slot_bits() * 2,
        layout,
        arrangement: Arrangement::Horizontal(1),
        probe: ProbePolicy::Linear,
        overflow: OverflowPolicy::Probe { max_steps: 8 },
    };
    let mut lpm = CaRamTable::new(config, Box::new(RangeSelect::new(24, 3))).unwrap();
    let prefix = |addr: u128, len: u32| TernaryKey::ternary(addr, (1u128 << (32 - len)) - 1, 32);
    for (key, data) in [
        (prefix(0x0100_0100, 24), 24),
        (prefix(0x0100_0200, 24), 25),
        (prefix(0x0100_0400, 22), 22),
    ] {
        lpm.insert_sorted(Record::new(key, data)).unwrap();
    }
    assert_eq!(lpm.delete(&prefix(0x0100_0100, 24)), 1);
    lpm.insert_sorted(Record::new(prefix(0x0100_0000, 16), 16))
        .unwrap();
    let keys = [0x0100_0501, 0x0100_F000].map(|a| SearchKey::new(a, 32));
    #[rustfmt::skip]
    let deep = [
        st(Stage::Hash, 1), st(Stage::RowFetch, 2), st(Stage::Match, 1),
        st(Stage::RowFetch, 2), st(Stage::Match, 1), st(Stage::Extract, 0), done(true, 2, 1, 1),
        st(Stage::Hash, 1), st(Stage::RowFetch, 2), st(Stage::Match, 1),
        st(Stage::RowFetch, 2), st(Stage::Match, 0), st(Stage::Extract, 1), done(true, 2, 0, 1),
    ];
    assert_streams("post-delete lpm", lpm, &keys, &[Some(22), Some(16)], &deep);
}
