//! Threaded stress test: mixed search/insert/delete traffic from many
//! client threads through the shard router, checked against a serially
//! replayed oracle.
//!
//! Key space is partitioned per client thread, so each thread's operation
//! order on its own keys is total; per-shard FIFO then guarantees the
//! service observes exactly that order per key. Each thread replays its own
//! ops into a `ReferenceModel`, and the final service state must match the
//! union of the models.

use ca_ram_core::engine::SearchEngine;
use ca_ram_core::index::RangeSelect;
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::{Record, RecordLayout};
use ca_ram_core::oracle::ReferenceModel;
use ca_ram_core::table::{CaRamTable, TableConfig};
use ca_ram_service::{SearchService, ServiceConfig, ServiceOp, ServiceReply};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const KEY_BITS: u32 = 32;
const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 1_500;
/// Keys per thread; small enough that deletes re-hit live keys.
const KEYS_PER_THREAD: u128 = 64;

/// A binary-keyed table shard: 64 buckets x 16 slots, hashed on low bits.
fn shard_table() -> Box<dyn SearchEngine> {
    let layout = RecordLayout::new(KEY_BITS, false, 16);
    let config = TableConfig::single_slice(6, 16 * layout.slot_bits(), layout);
    Box::new(CaRamTable::new(config, Box::new(RangeSelect::new(0, 6))).expect("valid config"))
}

/// Thread `t` owns key values `0x1000_0000 + t + i * THREADS`.
fn key_of(thread: usize, i: u128) -> u128 {
    0x1000_0000 + thread as u128 + i * THREADS as u128
}

#[test]
fn concurrent_mixed_ops_match_serially_replayed_oracle() {
    let config = ServiceConfig {
        shards: 4,
        queue_depth: 256,
        batch_max: 32,
        default_deadline: None,
        telemetry_shed_fill: 0.5,
        coalesce_fill: 0.75,
        ..ServiceConfig::default()
    };
    let engines = (0..config.shards).map(|_| shard_table()).collect();
    let service = SearchService::new(config, engines).expect("valid service");

    // Each thread drives its own keys and replays the ops it *observed
    // succeeding* into its own oracle.
    let mut models: Vec<ReferenceModel> = Vec::with_capacity(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let service = &service;
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0xC0FFEE + thread as u64);
                    let mut model = ReferenceModel::new(KEY_BITS);
                    for op in 0..OPS_PER_THREAD {
                        let value = key_of(thread, rng.gen_range(0..KEYS_PER_THREAD));
                        match rng.gen_range(0..10u32) {
                            // 40% inserts (half sorted), 20% deletes, 40% searches.
                            0 | 1 => {
                                let record =
                                    Record::new(TernaryKey::binary(value, KEY_BITS), op as u64);
                                if service.insert_sync(record).is_ok() {
                                    model.insert(record);
                                }
                            }
                            2 | 3 => {
                                let record =
                                    Record::new(TernaryKey::binary(value, KEY_BITS), op as u64);
                                if service.insert_sorted_sync(record).is_ok() {
                                    model.insert(record);
                                }
                            }
                            4 | 5 => {
                                let key = TernaryKey::binary(value, KEY_BITS);
                                let removed = service.delete_sync(&key);
                                let expected = model.delete(&key);
                                assert_eq!(
                                    removed, expected,
                                    "thread {thread} delete of {value:#x} removed {removed}, \
                                     oracle says {expected}"
                                );
                            }
                            _ => {
                                let key = SearchKey::new(value, KEY_BITS);
                                let outcome = service.search_sync(&key);
                                let expected = model.expected(&key);
                                assert!(
                                    expected.admits(outcome.hit.map(|h| h.data)),
                                    "thread {thread} search of {value:#x} diverged mid-stream"
                                );
                            }
                        }
                    }
                    model
                })
            })
            .collect();
        for handle in handles {
            models.push(handle.join().expect("client thread panicked"));
        }
    });

    // Final state: every owned key answers exactly as its thread's oracle
    // says, and total occupancy equals the union of the oracles.
    let mut live_records = 0u64;
    for (thread, model) in models.iter().enumerate() {
        live_records += model.len() as u64;
        for i in 0..KEYS_PER_THREAD {
            let key = SearchKey::new(key_of(thread, i), KEY_BITS);
            let outcome = service.search_sync(&key);
            let expected = model.expected(&key);
            assert!(
                expected.admits(outcome.hit.map(|h| h.data)),
                "thread {thread} key {i} diverged in final sweep"
            );
        }
    }
    assert_eq!(
        service.occupancy().records,
        Some(live_records),
        "occupancy must equal the union of the per-thread oracles"
    );

    let totals = service.snapshot().totals();
    assert_eq!(
        totals.accepted,
        (THREADS * OPS_PER_THREAD) as u64 + (THREADS as u128 * KEYS_PER_THREAD) as u64,
        "every submission (stream + final sweep) was admitted"
    );
    assert_eq!(totals.rejected, 0, "blocking submits never reject");
    assert_eq!(totals.shed_deadline, 0, "no deadlines were configured");
    service.shutdown();
}

#[test]
fn blocking_submitters_survive_a_tiny_queue() {
    // queue_depth 1 forces constant backpressure; nothing may be lost.
    let config = ServiceConfig {
        shards: 2,
        queue_depth: 1,
        batch_max: 4,
        ..ServiceConfig::default()
    };
    let engines = (0..config.shards).map(|_| shard_table()).collect();
    let service = SearchService::new(config, engines).expect("valid service");
    for i in 0..32u128 {
        let record = Record::new(TernaryKey::binary(0x2000 + i, KEY_BITS), i as u64);
        service.insert_sync(record).expect("fits");
    }
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for i in 0..200u128 {
                    let key = SearchKey::new(0x2000 + (i % 32), KEY_BITS);
                    let outcome = service.search_sync(&key);
                    assert_eq!(outcome.hit.map(|h| h.data), Some((i % 32) as u64));
                }
            });
        }
    });
    let totals = service.snapshot().totals();
    assert_eq!(totals.rejected, 0);
    assert_eq!(totals.accepted, 32 + 4 * 200);
}

#[test]
fn shutdown_finishes_queued_work() {
    let config = ServiceConfig {
        shards: 1,
        queue_depth: 512,
        ..ServiceConfig::default()
    };
    let service = SearchService::new(config, vec![shard_table()]).expect("valid service");
    let record = Record::new(TernaryKey::binary(0xAB, KEY_BITS), 9);
    service.insert_sync(record).expect("fits");
    let tickets: Vec<_> = (0..64)
        .map(|_| {
            service
                .try_submit(ServiceOp::Search(SearchKey::new(0xAB, KEY_BITS)))
                .expect("queue has room")
        })
        .collect();
    service.shutdown();
    for ticket in tickets {
        // Graceful shutdown serves what was queued; nothing may hang.
        match ticket.wait().reply {
            ServiceReply::Search(outcome) => {
                assert_eq!(outcome.hit.map(|h| h.data), Some(9));
            }
            other => panic!("queued search answered with {other:?}"),
        }
    }
}

#[test]
fn writes_and_reads_interleave_in_submission_order_per_key() {
    // insert → search → delete → search on one key must observe program
    // order even though every step crosses the queue and worker thread.
    let service = SearchService::new(ServiceConfig::single_shard(), vec![shard_table()])
        .expect("valid service");
    for round in 0..50u64 {
        let value = 0x5000 + u128::from(round);
        let key = TernaryKey::binary(value, KEY_BITS);
        let probe = SearchKey::new(value, KEY_BITS);
        service
            .insert_sync(Record::new(key, round))
            .expect("table has room");
        assert_eq!(
            service.search_sync(&probe).hit.map(|h| h.data),
            Some(round),
            "insert not visible to the next search"
        );
        assert_eq!(service.delete_sync(&key), 1);
        assert!(
            service.search_sync(&probe).hit.is_none(),
            "delete not visible to the next search"
        );
    }
}
