//! Open-loop and closed-loop load generators over a [`SearchService`].
//!
//! * **Open loop** paces submissions at a fixed offered rate regardless of
//!   completions — the arrival process the controller queue model assumes —
//!   so queueing delay, shedding, and rejection become visible past the
//!   saturation knee.
//! * **Closed loop** runs N clients that each wait for their previous reply
//!   before submitting the next request — offered load self-limits to the
//!   service capacity, which is exactly what it measures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ca_ram_core::key::SearchKey;

use crate::request::{micros, AdmissionError, ServiceOp, ServiceReply};
use crate::service::SearchService;

/// Order statistics over a latency sample set, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Samples summarized.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Worst observed.
    pub max_us: u64,
}

impl LatencySummary {
    /// Summarizes `samples` (sorted in place).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn from_samples(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        let n = samples.len();
        if n == 0 {
            return Self::default();
        }
        Self {
            count: n as u64,
            mean_us: samples.iter().map(|&v| v as f64).sum::<f64>() / n as f64,
            p50_us: samples[n / 2],
            p99_us: samples[(n * 99 / 100).min(n - 1)],
            max_us: samples[n - 1],
        }
    }
}

/// What an open-loop run observed.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopReport {
    /// Requests offered (submission attempts).
    pub offered: u64,
    /// Offered rate actually achieved by the pacer, requests/s.
    pub offered_rps: f64,
    /// Requests that completed with a real reply.
    pub completed: u64,
    /// Requests refused at admission (queue full).
    pub rejected: u64,
    /// Requests shed after admission (deadline/shutdown).
    pub shed: u64,
    /// Completions served via a coalesced probe.
    pub coalesced: u64,
    /// Wall time from first submission to last completion, seconds.
    pub elapsed_secs: f64,
    /// Completions per second of wall time.
    pub achieved_rps: f64,
    /// Full request latency (submission → completion) of completed requests.
    pub latency: LatencySummary,
    /// Queue-wait component (submission → worker pickup) of the same.
    pub queue_wait: LatencySummary,
}

/// What a closed-loop run observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopReport {
    /// Concurrent clients.
    pub clients: usize,
    /// Requests completed across all clients.
    pub completed: u64,
    /// Wall time of the whole run, seconds.
    pub elapsed_secs: f64,
    /// Completions per second — the measured service capacity at this
    /// concurrency.
    pub achieved_rps: f64,
    /// Full request latency distribution.
    pub latency: LatencySummary,
}

/// A load generator bound to one service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceClient<'a> {
    service: &'a SearchService,
}

impl<'a> ServiceClient<'a> {
    /// Binds a client to `service`.
    #[must_use]
    pub fn new(service: &'a SearchService) -> Self {
        Self { service }
    }

    /// Offers `keys` as searches at `target_rps` (non-finite or zero =
    /// unpaced flood), using non-blocking admission so overload surfaces as
    /// rejections, then waits for every admitted request.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn open_loop(&self, keys: &[SearchKey], target_rps: f64) -> OpenLoopReport {
        let interval = (target_rps.is_finite() && target_rps > 0.0)
            .then(|| Duration::from_secs_f64(1.0 / target_rps));
        let mut tickets = Vec::with_capacity(keys.len());
        let mut rejected = 0u64;
        let start = Instant::now();
        for (i, key) in keys.iter().enumerate() {
            if let Some(interval) = interval {
                pace(start + interval.mul_f64(i as f64));
            }
            match self.service.try_submit(ServiceOp::Search(*key)) {
                Ok(ticket) => tickets.push(ticket),
                Err(_) => rejected += 1,
            }
        }
        let submit_elapsed = start.elapsed().as_secs_f64();

        let mut latencies = Vec::with_capacity(tickets.len());
        let mut queue_waits = Vec::with_capacity(tickets.len());
        let mut shed = 0u64;
        let mut coalesced = 0u64;
        for ticket in tickets {
            let completion = ticket.wait();
            if matches!(completion.reply, ServiceReply::Shed(_)) {
                shed += 1;
                continue;
            }
            if completion.coalesced {
                coalesced += 1;
            }
            latencies.push(micros(completion.total));
            queue_waits.push(micros(completion.queue_wait));
        }
        let elapsed_secs = start.elapsed().as_secs_f64();
        let completed = latencies.len() as u64;
        OpenLoopReport {
            offered: keys.len() as u64,
            offered_rps: if submit_elapsed > 0.0 {
                keys.len() as f64 / submit_elapsed
            } else {
                0.0
            },
            completed,
            rejected,
            shed,
            coalesced,
            elapsed_secs,
            achieved_rps: if elapsed_secs > 0.0 {
                completed as f64 / elapsed_secs
            } else {
                0.0
            },
            latency: LatencySummary::from_samples(&mut latencies),
            queue_wait: LatencySummary::from_samples(&mut queue_waits),
        }
    }

    /// Floods `keys` as batched searches: slices of `batch` keys submitted
    /// through [`SearchService::try_submit_batch`] with up to `window`
    /// batches in flight — one ring entry per involved shard per batch, so
    /// per-key queue traffic disappears. A full queue waits for the oldest
    /// outstanding batch instead of rejecting (the window is the
    /// backpressure), so this measures drain capacity, not rejection speed.
    ///
    /// Latency samples are per batch: `latency` is submission → last
    /// sub-batch completion, `queue_wait` the slowest sub-batch's wait.
    ///
    /// # Panics
    ///
    /// Panics if `batch` or `window` is zero.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn flood_batched(&self, keys: &[SearchKey], batch: usize, window: usize) -> OpenLoopReport {
        assert!(batch > 0, "need a batch size");
        assert!(window > 0, "need an in-flight window");
        let mut outstanding = std::collections::VecDeque::with_capacity(window);
        let mut latencies = Vec::with_capacity(keys.len().div_ceil(batch));
        let mut queue_waits = Vec::with_capacity(latencies.capacity());
        let mut completed = 0u64;
        let mut rejected = 0u64;
        let mut shed = 0u64;
        let mut reap = |completion: crate::request::BatchCompletion,
                        latencies: &mut Vec<u64>,
                        queue_waits: &mut Vec<u64>| {
            let batch_shed = completion.shed() as u64;
            shed += batch_shed;
            completed += completion.replies.len() as u64 - batch_shed;
            latencies.push(micros(completion.total));
            queue_waits.push(micros(completion.queue_wait));
        };
        let start = Instant::now();
        let mut submit_elapsed = 0.0;
        for chunk in keys.chunks(batch) {
            loop {
                match self.service.try_submit_batch(chunk) {
                    Ok(ticket) => {
                        outstanding.push_back(ticket);
                        if outstanding.len() >= window {
                            let ticket: crate::request::BatchTicket =
                                outstanding.pop_front().expect("window is non-empty");
                            reap(ticket.wait(), &mut latencies, &mut queue_waits);
                        }
                        break;
                    }
                    Err(AdmissionError::QueueFull { .. }) => {
                        // Backpressure: retire the oldest batch, try again.
                        match outstanding.pop_front() {
                            Some(ticket) => {
                                reap(ticket.wait(), &mut latencies, &mut queue_waits);
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                    Err(AdmissionError::ShuttingDown) => {
                        rejected += chunk.len() as u64;
                        break;
                    }
                }
            }
            submit_elapsed = start.elapsed().as_secs_f64();
        }
        for ticket in outstanding {
            reap(ticket.wait(), &mut latencies, &mut queue_waits);
        }
        let elapsed_secs = start.elapsed().as_secs_f64();
        OpenLoopReport {
            offered: keys.len() as u64,
            offered_rps: if submit_elapsed > 0.0 {
                keys.len() as f64 / submit_elapsed
            } else {
                0.0
            },
            completed,
            rejected,
            shed,
            coalesced: 0,
            elapsed_secs,
            achieved_rps: if elapsed_secs > 0.0 {
                completed as f64 / elapsed_secs
            } else {
                0.0
            },
            latency: LatencySummary::from_samples(&mut latencies),
            queue_wait: LatencySummary::from_samples(&mut queue_waits),
        }
    }

    /// Runs `clients` concurrent closed-loop clients, each submitting
    /// `ops_per_client` searches (blocking admission, one in flight per
    /// client) over an interleaved slice of `keys`.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty or `clients` is zero.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn closed_loop(
        &self,
        keys: &[SearchKey],
        clients: usize,
        ops_per_client: usize,
    ) -> ClosedLoopReport {
        assert!(!keys.is_empty(), "need keys to offer");
        assert!(clients > 0, "need at least one client");
        let completed = AtomicU64::new(0);
        let mut all_latencies: Vec<Vec<u64>> = Vec::with_capacity(clients);
        let start = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    let completed = &completed;
                    scope.spawn(move || {
                        let mut latencies = Vec::with_capacity(ops_per_client);
                        for i in 0..ops_per_client {
                            let key = keys[(client + i * clients) % keys.len()];
                            let Ok(ticket) = self.service.submit(ServiceOp::Search(key)) else {
                                break; // shutting down
                            };
                            let completion = ticket.wait();
                            if !matches!(completion.reply, ServiceReply::Shed(_)) {
                                completed.fetch_add(1, Ordering::Relaxed);
                                latencies.push(micros(completion.total));
                            }
                        }
                        latencies
                    })
                })
                .collect();
            for handle in handles {
                all_latencies.push(handle.join().expect("client panicked"));
            }
        });
        let elapsed_secs = start.elapsed().as_secs_f64();
        let mut merged: Vec<u64> = all_latencies.into_iter().flatten().collect();
        let completed = completed.load(Ordering::Relaxed);
        ClosedLoopReport {
            clients,
            completed,
            elapsed_secs,
            achieved_rps: if elapsed_secs > 0.0 {
                completed as f64 / elapsed_secs
            } else {
                0.0
            },
            latency: LatencySummary::from_samples(&mut merged),
        }
    }
}

/// Waits until the absolute deadline `due`: coarse sleep while far out,
/// `yield_now` inside the scheduler-jitter window, a busy spin only for the
/// last few microseconds.
///
/// The deadline is absolute (`start + i × interval`), so one late arrival
/// does not push every later arrival back — the pacer catches up instead of
/// accumulating drift. The yield phase matters on small machines: a hard
/// spin here steals the CPU from the shard workers and shows up as
/// queue-wait tail that is pacing artifact, not queue behavior.
fn pace(due: Instant) {
    /// Below this remaining time, yield instead of sleeping: `sleep` wakes
    /// a whole scheduler tick late, which at low load dominated p99.
    const SLEEP_SLACK: Duration = Duration::from_micros(300);
    /// Below this remaining time, spin: a yield could overshoot.
    const SPIN_WINDOW: Duration = Duration::from_micros(5);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let remaining = due - now;
        if remaining > SLEEP_SLACK {
            std::thread::sleep(remaining.saturating_sub(SLEEP_SLACK));
        } else if remaining > SPIN_WINDOW {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_samples_is_zeroed() {
        let summary = LatencySummary::from_samples(&mut Vec::new());
        assert_eq!(summary.count, 0);
        assert_eq!(summary.max_us, 0);
    }

    #[test]
    fn summary_order_statistics() {
        let mut samples: Vec<u64> = (1..=100).rev().collect();
        let summary = LatencySummary::from_samples(&mut samples);
        assert_eq!(summary.count, 100);
        assert_eq!(summary.p50_us, 51);
        assert_eq!(summary.p99_us, 100);
        assert_eq!(summary.max_us, 100);
        assert!((summary.mean_us - 50.5).abs() < 1e-9);
    }
}
