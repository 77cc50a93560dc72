//! Pins the degradation ladder: deadline shedding never returns partial or
//! stale results, admission control rejects on a full queue, duplicate
//! in-flight keys coalesce, and deep telemetry sheds first.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ca_ram_core::engine::{EngineOutcome, EngineReport, SearchEngine};
use ca_ram_core::error::Result;
use ca_ram_core::index::RangeSelect;
use ca_ram_core::key::{SearchKey, TernaryKey};
use ca_ram_core::layout::{Record, RecordLayout};
use ca_ram_core::table::{CaRamTable, TableConfig};
use ca_ram_core::telemetry::{MetricsRegistry, ScopeKind};
use ca_ram_service::{
    AdmissionError, SearchService, ServiceConfig, ServiceOp, ServiceReply, ShedReason,
};

const KEY_BITS: u32 = 32;

fn table() -> CaRamTable {
    let layout = RecordLayout::new(KEY_BITS, false, 16);
    let config = TableConfig::single_slice(5, 8 * layout.slot_bits(), layout);
    CaRamTable::new(config, Box::new(RangeSelect::new(0, 5))).expect("valid config")
}

/// An engine that stalls each search until released — makes queue build-up
/// deterministic so admission/coalescing behavior can be pinned.
struct SlowEngine {
    inner: CaRamTable,
    delay: Duration,
    searches: Arc<AtomicU64>,
}

impl SlowEngine {
    fn boxed(delay: Duration, searches: Arc<AtomicU64>) -> Box<dyn SearchEngine> {
        Box::new(Self {
            inner: table(),
            delay,
            searches,
        })
    }
}

impl SearchEngine for SlowEngine {
    fn name(&self) -> &str {
        "slow-table"
    }
    fn key_bits(&self) -> u32 {
        self.inner.key_bits()
    }
    fn search(&self, key: &SearchKey) -> EngineOutcome {
        self.searches.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(self.delay);
        self.inner.search(key).into()
    }
    fn insert(&mut self, record: Record) -> Result<()> {
        self.inner.insert(record).map(|_| ())
    }
    fn delete(&mut self, key: &TernaryKey) -> u32 {
        self.inner.delete(key)
    }
    fn occupancy(&self) -> EngineReport {
        self.inner.occupancy()
    }
}

#[test]
fn expired_deadlines_shed_and_never_return_results() {
    let service = SearchService::new(ServiceConfig::single_shard(), vec![Box::new(table())])
        .expect("valid service");
    let value = 0xFACEu128;
    service
        .insert_sync(Record::new(TernaryKey::binary(value, KEY_BITS), 77))
        .expect("fits");

    let probe = ServiceOp::Search(SearchKey::new(value, KEY_BITS));
    // A live deadline serves normally...
    let live = service
        .try_submit_with_deadline(probe, Some(Instant::now() + Duration::from_secs(30)))
        .expect("queue empty")
        .wait();
    assert_eq!(
        match live.reply {
            ServiceReply::Search(outcome) => outcome.hit.map(|h| h.data),
            other => panic!("live search answered with {other:?}"),
        },
        Some(77)
    );

    // ...an already-expired deadline is shed: no hit, no miss, no partial
    // result, and the engine is never probed for it.
    let searches_before = service.snapshot().totals().searches;
    let expired = service
        .try_submit_with_deadline(probe, Some(Instant::now() - Duration::from_millis(1)))
        .expect("queue empty")
        .wait();
    assert_eq!(
        expired.reply,
        ServiceReply::Shed(ShedReason::DeadlineExpired),
        "an expired request must shed, not serve"
    );
    let totals = service.snapshot().totals();
    assert_eq!(
        totals.searches, searches_before,
        "a shed request must never touch the engine"
    );
    assert_eq!(totals.shed_deadline, 1);

    // Writes shed the same way: the engine state must not change.
    let expired_insert = service
        .try_submit_with_deadline(
            ServiceOp::Insert(Record::new(TernaryKey::binary(0xDEAD, KEY_BITS), 1)),
            Some(Instant::now() - Duration::from_millis(1)),
        )
        .expect("queue empty")
        .wait();
    assert_eq!(
        expired_insert.reply,
        ServiceReply::Shed(ShedReason::DeadlineExpired)
    );
    assert!(
        service
            .search_sync(&SearchKey::new(0xDEAD, KEY_BITS))
            .hit
            .is_none(),
        "a shed insert must leave no trace"
    );
}

#[test]
fn configured_default_deadline_sheds_queued_requests_under_stall() {
    // 5ms default deadline over an engine that takes ~40ms per search,
    // drained one request per batch: the first drained request stalls the
    // worker; everything queued behind it expires and must shed — with zero
    // engine probes spent on them.
    let searches = Arc::new(AtomicU64::new(0));
    let config = ServiceConfig {
        shards: 1,
        queue_depth: 64,
        batch_max: 1,
        default_deadline: Some(Duration::from_millis(5)),
        ..ServiceConfig::single_shard()
    };
    let service = SearchService::new(
        config,
        vec![SlowEngine::boxed(
            Duration::from_millis(40),
            Arc::clone(&searches),
        )],
    )
    .expect("valid service");

    let tickets: Vec<_> = (0..12u128)
        .map(|i| {
            service
                .try_submit(ServiceOp::Search(SearchKey::new(i, KEY_BITS)))
                .expect("queue has room")
        })
        .collect();
    let mut shed = 0u64;
    let mut served = 0u64;
    for ticket in tickets {
        match ticket.wait().reply {
            ServiceReply::Shed(ShedReason::DeadlineExpired) => shed += 1,
            ServiceReply::Search(_) => served += 1,
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(shed + served, 12);
    assert!(shed > 0, "queued requests behind the stall must shed");
    assert_eq!(
        searches.load(Ordering::Relaxed),
        served,
        "every shed request must be answered without an engine probe"
    );
}

#[test]
fn full_queue_rejects_at_admission() {
    let searches = Arc::new(AtomicU64::new(0));
    let config = ServiceConfig {
        shards: 1,
        queue_depth: 4,
        batch_max: 2,
        ..ServiceConfig::single_shard()
    };
    let service = SearchService::new(
        config,
        vec![SlowEngine::boxed(
            Duration::from_millis(50),
            Arc::clone(&searches),
        )],
    )
    .expect("valid service");

    // Fire enough non-blocking submissions to overrun queue + in-flight
    // batch; the worker wakes at most twice in this window (50ms/probe).
    let mut admitted = Vec::new();
    let mut rejections = 0u64;
    let mut saw_queue_full = false;
    for i in 0..64u128 {
        match service.try_submit(ServiceOp::Search(SearchKey::new(i, KEY_BITS))) {
            Ok(ticket) => admitted.push(ticket),
            Err(AdmissionError::QueueFull { shard, depth }) => {
                rejections += 1;
                saw_queue_full = true;
                assert_eq!(shard, 0);
                assert_eq!(depth, 4);
            }
            Err(AdmissionError::ShuttingDown) => panic!("service is not shutting down"),
        }
    }
    assert!(
        rejections > 0 && saw_queue_full,
        "a full bounded queue must reject, not buffer unboundedly"
    );
    assert_eq!(service.snapshot().totals().rejected, rejections);
    for ticket in admitted {
        match ticket.wait().reply {
            ServiceReply::Search(_) => {}
            other => panic!("admitted search answered with {other:?}"),
        }
    }
}

#[test]
fn duplicate_inflight_keys_coalesce_past_the_ladder_rung() {
    let searches = Arc::new(AtomicU64::new(0));
    let config = ServiceConfig {
        shards: 1,
        queue_depth: 32,
        batch_max: 32,
        default_deadline: None,
        // Coalesce from the first queued request onward.
        telemetry_shed_fill: 0.0,
        coalesce_fill: 0.0,
        ..ServiceConfig::default()
    };
    let service = SearchService::new(
        config,
        vec![SlowEngine::boxed(
            Duration::from_millis(100),
            Arc::clone(&searches),
        )],
    )
    .expect("valid service");
    service
        .insert_sync(Record::new(TernaryKey::binary(0x77, KEY_BITS), 5))
        .expect("fits");

    // Occupy the worker with a decoy, then queue 8 identical + 1 distinct
    // searches while it sleeps; they drain as one batch.
    let decoy = service
        .try_submit(ServiceOp::Search(SearchKey::new(0x1, KEY_BITS)))
        .expect("room");
    std::thread::sleep(Duration::from_millis(10)); // let the worker pick it up
    let dup_tickets: Vec<_> = (0..8)
        .map(|_| {
            service
                .try_submit(ServiceOp::Search(SearchKey::new(0x77, KEY_BITS)))
                .expect("room")
        })
        .collect();
    let distinct = service
        .try_submit(ServiceOp::Search(SearchKey::new(0x78, KEY_BITS)))
        .expect("room");

    let _ = decoy.wait();
    let mut coalesced_completions = 0;
    for ticket in dup_tickets {
        let completion = ticket.wait();
        match completion.reply {
            ServiceReply::Search(outcome) => {
                assert_eq!(outcome.hit.map(|h| h.data), Some(5));
            }
            other => panic!("duplicate search answered with {other:?}"),
        }
        if completion.coalesced {
            coalesced_completions += 1;
        }
    }
    let distinct = distinct.wait();
    assert!(
        !distinct.coalesced,
        "a key no other queued request shared is not flagged as coalesced"
    );

    let totals = service.snapshot().totals();
    assert!(
        totals.coalesced >= 7,
        "8 identical queued keys must share one probe (coalesced {})",
        totals.coalesced
    );
    assert_eq!(
        coalesced_completions, 8,
        "every duplicate completion is flagged as coalesced"
    );
    // Engine probes: decoy + one shared probe + the distinct key (the 8
    // duplicates cost one). Insert path does not count as a search.
    assert_eq!(searches.load(Ordering::Relaxed), 3);
}

#[test]
fn deep_telemetry_sheds_first_on_the_ladder() {
    // Rung 1 engaged from depth 0: waits are counted as shed, and the wait
    // histogram stays empty while requests still serve correctly.
    let shed_everything = ServiceConfig {
        telemetry_shed_fill: 0.0,
        coalesce_fill: 1.0,
        ..ServiceConfig::single_shard()
    };
    let service =
        SearchService::new(shed_everything, vec![Box::new(table())]).expect("valid service");
    service
        .insert_sync(Record::new(TernaryKey::binary(0x9, KEY_BITS), 3))
        .expect("fits");
    for _ in 0..20 {
        assert_eq!(
            service
                .search_sync(&SearchKey::new(0x9, KEY_BITS))
                .hit
                .map(|h| h.data),
            Some(3)
        );
    }
    let totals = service.snapshot().totals();
    assert_eq!(
        totals.telemetry_shed, totals.accepted,
        "rung 1 sheds the deep telemetry of every completion"
    );

    // With the rung disengaged (threshold = full queue), waits are recorded.
    let keep_everything = ServiceConfig {
        telemetry_shed_fill: 1.0,
        coalesce_fill: 1.0,
        ..ServiceConfig::single_shard()
    };
    let service =
        SearchService::new(keep_everything, vec![Box::new(table())]).expect("valid service");
    service
        .insert_sync(Record::new(TernaryKey::binary(0x9, KEY_BITS), 3))
        .expect("fits");
    for _ in 0..20 {
        let _ = service.search_sync(&SearchKey::new(0x9, KEY_BITS));
    }
    assert_eq!(service.snapshot().totals().telemetry_shed, 0);

    // Queue waits are sampled per request: a batch contributes one sample
    // per key, matching how `accepted` counts it.
    let keys = vec![SearchKey::new(0x9, KEY_BITS); 8];
    let batch = service.try_submit_batch(&keys).expect("room").wait();
    assert_eq!(batch.shed(), 0);
    let mut registry = MetricsRegistry::new();
    service.export_metrics(&mut registry, "svc");
    let waits = registry
        .scope(ScopeKind::Shard, "svc/shard0")
        .and_then(|scope| scope.histogram("queue_wait_us"))
        .expect("shard scope exports queue waits")
        .count();
    assert_eq!(
        waits,
        service.snapshot().totals().accepted,
        "one queue-wait sample per admitted request"
    );
}
