//! The host-speed gauge: a fixed piece of work, independent of the program
//! under test, timed between the benchmark's measured rounds.
//!
//! A shared host's speed drifts by up to 2x for seconds to minutes as
//! other tenants contend for its cores and caches. Each workload scales its
//! rounds' times by how long the gauge pass right after the round took,
//! against the pass's nominal time, so its figures read as on a host of
//! fixed speed. A slower program moves the scaled figure; a slower host
//! moves the round and the gauge together and leaves it.
//!
//! A gauge only cancels the contention its own work feels, so each
//! workload uses the kind that shares its bottleneck. Quartile spread of
//! the per-run median over its median, nine 8-second runs per workload
//! (`lpm-route` with its trace still in prefix order):
//!
//! | workload | raw | dependent chains, one per cache level | 8 chains of loads over 8 MiB | [`Kind::Compute`] | [`Kind::ComputePair`] |
//! |---|---|---|---|---|---|
//! | `classify-5tuple` | 0.322 | 0.233 | 0.250 | 0.070 | — |
//! | `lpm-route` | 0.066 | — | 0.054 | 0.084 | 0.044 |
//!
//! Dependent chains are latency-bound and barely feel a busy sibling
//! hyperthread; the pattern path and the table probes are not, and slowed
//! by up to 1.96x while the chains did not move. `lpm-route`'s lookups run
//! on the service worker, on either core, so its gauge runs on both.
//! `kv-mixed`'s latency is mostly a shard worker's wake-up, which
//! [`Kind::Wakeup`] times.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::{nanos, percentile};

/// The work a gauge pass does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Eight independent hash lanes on this thread: bound by execution
    /// ports, as the pattern path is.
    Compute,
    /// The compute pass on this thread and on a helper thread at once,
    /// reporting their mean: for work that runs on another thread, which
    /// may be on either core.
    ComputePair,
    /// Waking a parked thread, as a request to an idle shard worker does.
    /// A pass is `PINGS` wake-ups; it reports the median one.
    Wakeup,
}

/// Independent lanes of a compute pass.
const LANES: usize = 8;
/// Hash rounds per lane of a compute pass (~0.45 ms).
const HASH_ROUNDS: u64 = 64_000;
/// Wake-ups per [`Kind::Wakeup`] pass.
const PINGS: usize = 64;
/// How long the sleeper is left to fall asleep before each wake-up: about
/// the gap between a shard's requests at the `kv-mixed` offered rate.
const PING_GAP: Duration = Duration::from_micros(50);

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    x
}

/// One compute pass over `lanes`; returns its nanoseconds.
fn hash_pass(lanes: &mut [u64; LANES]) -> u64 {
    let start = Instant::now();
    let mut l = *lanes;
    for k in 0..HASH_ROUNDS {
        for x in &mut l {
            *x = mix(*x ^ k).rotate_left(7) ^ k;
        }
    }
    *lanes = std::hint::black_box(l);
    nanos(start.elapsed())
}

/// A gauge: its kind, running state and helper thread.
#[derive(Debug)]
pub struct Gauge {
    kind: Kind,
    lanes: [u64; LANES],
    helper: Helper,
    /// A wake-up pass's samples.
    pings: Vec<u64>,
}

/// The thread a gauge drives besides its own.
#[derive(Debug)]
enum Helper {
    None,
    /// Runs a compute pass on each `go` and answers its nanoseconds.
    Twin {
        go: Option<SyncSender<()>>,
        done: Receiver<u64>,
        thread: Option<JoinHandle<()>>,
    },
    /// Parks, and on each real wake-up counts one and parks again.
    Sleeper {
        shared: Arc<SleeperState>,
        thread: Option<JoinHandle<()>>,
    },
}

#[derive(Debug, Default)]
struct SleeperState {
    /// Set by the sleeper before it parks, cleared by the waker.
    parked: AtomicBool,
    woken: AtomicU64,
    stop: AtomicBool,
}

impl Helper {
    fn twin() -> Self {
        let (go, go_rx) = sync_channel::<()>(1);
        let (done_tx, done) = sync_channel(1);
        let thread = std::thread::spawn(move || {
            let mut lanes = [0; LANES];
            while go_rx.recv().is_ok() {
                if done_tx.send(hash_pass(&mut lanes)).is_err() {
                    return;
                }
            }
        });
        Self::Twin {
            go: Some(go),
            done,
            thread: Some(thread),
        }
    }

    fn sleeper() -> Self {
        let shared = Arc::new(SleeperState::default());
        let state = Arc::clone(&shared);
        let thread = std::thread::spawn(move || loop {
            state.parked.store(true, Ordering::SeqCst);
            // A spurious return leaves `parked` set: park again.
            while state.parked.load(Ordering::SeqCst) {
                std::thread::park();
            }
            if state.stop.load(Ordering::SeqCst) {
                return;
            }
            state.woken.fetch_add(1, Ordering::SeqCst);
        });
        Self::Sleeper {
            shared,
            thread: Some(thread),
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        match self {
            Self::None => {}
            Self::Twin { go, thread, .. } => {
                // Closing the channel ends the twin's loop.
                drop(go.take());
                if let Some(t) = thread.take() {
                    let _ = t.join();
                }
            }
            Self::Sleeper { shared, thread } => {
                if let Some(t) = thread.take() {
                    shared.stop.store(true, Ordering::SeqCst);
                    shared.parked.store(false, Ordering::SeqCst);
                    t.thread().unpark();
                    let _ = t.join();
                }
            }
        }
    }
}

/// Lets the sleeper fall asleep, wakes it, and returns how long it took
/// to run.
fn ping(shared: &SleeperState, thread: &JoinHandle<()>) -> u64 {
    while !shared.parked.load(Ordering::SeqCst) {
        std::hint::spin_loop();
    }
    std::thread::sleep(PING_GAP);
    let before = shared.woken.load(Ordering::SeqCst);
    let start = Instant::now();
    shared.parked.store(false, Ordering::SeqCst);
    thread.thread().unpark();
    while shared.woken.load(Ordering::SeqCst) == before {
        std::hint::spin_loop();
    }
    nanos(start.elapsed())
}

impl Gauge {
    /// A gauge of `kind`, with its helper thread started (stopped and
    /// joined on drop).
    #[must_use]
    pub fn new(kind: Kind) -> Self {
        Self {
            kind,
            lanes: std::array::from_fn(|j| j as u64),
            helper: match kind {
                Kind::Compute => Helper::None,
                Kind::ComputePair => Helper::twin(),
                Kind::Wakeup => Helper::sleeper(),
            },
            pings: Vec::with_capacity(PINGS),
        }
    }

    /// The time one pass takes on the reference host (a quiet 2 GHz x86-64
    /// VM); scaled figures read as measured on that host.
    #[must_use]
    pub fn nominal_ns(&self) -> f64 {
        match self.kind {
            Kind::Compute | Kind::ComputePair => 4.5e5,
            Kind::Wakeup => 7.0e3,
        }
    }

    /// Runs one pass; returns its nanoseconds (a wake-up gauge: the
    /// median wake-up's).
    ///
    /// # Panics
    ///
    /// Panics if the helper thread has died.
    pub fn pass(&mut self) -> u64 {
        match &self.helper {
            Helper::None => hash_pass(&mut self.lanes),
            Helper::Twin { go, done, .. } => {
                go.as_ref().expect("twin runs").send(()).expect("twin runs");
                let own = hash_pass(&mut self.lanes);
                own.midpoint(done.recv().expect("twin answers"))
            }
            Helper::Sleeper { shared, thread } => {
                let thread = thread.as_ref().expect("sleeper runs");
                self.pings.clear();
                for _ in 0..PINGS {
                    self.pings.push(ping(shared, thread));
                }
                percentile(&mut self.pings, 0.5)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_passes_take_time_and_repeat_their_work() {
        let mut a = Gauge::new(Kind::Compute);
        let mut b = Gauge::new(Kind::Compute);
        assert!(a.pass() > 0);
        b.pass();
        assert_eq!(a.lanes, b.lanes, "the same work every time");
        assert_ne!(a.lanes, Gauge::new(Kind::Compute).lanes);
        let mut pair = Gauge::new(Kind::ComputePair);
        assert!(pair.pass() > 0);
        assert_eq!(pair.lanes, b.lanes, "the pair's own half is a compute pass");
        assert!(pair.nominal_ns() > 0.0);
    }

    #[test]
    fn a_wakeup_pass_wakes_the_sleeper_each_time_and_stops_it_on_drop() {
        let mut g = Gauge::new(Kind::Wakeup);
        assert!(g.pass() > 0);
        assert!(g.pass() > 0);
        let Helper::Sleeper { shared, .. } = &g.helper else {
            panic!("a wake-up gauge has a sleeper");
        };
        assert_eq!(shared.woken.load(Ordering::SeqCst), 2 * PINGS as u64);
        let shared = Arc::clone(shared);
        drop(g);
        assert!(shared.stop.load(Ordering::SeqCst));
        assert_eq!(Arc::strong_count(&shared), 1, "the sleeper thread ended");
    }
}
