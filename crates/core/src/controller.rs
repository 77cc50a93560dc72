//! Cycle-level model of the subsystem's input controller and queues
//! (Sec. 3.2, Fig. 5).
//!
//! "Requests and results are both queued for achieving maximum bandwidth
//! without interruptions. Multiple lookup actions can be simultaneously in
//! progress in different CA-RAM slices." This module simulates that queueing
//! structure one clock cycle at a time and measures the achieved search
//! bandwidth, cross-checking the closed-form `B = Nslice/nmem × fclk` of
//! Sec. 3.4 and exposing the effects the formula hides (head-of-line
//! blocking, skewed slice traffic, finite queues).

use std::collections::VecDeque;

use crate::error::{CaRamError, Result};
use crate::telemetry::trace::{NullSink, TelemetrySink};

/// Configuration of the queue/controller simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueModelConfig {
    /// Independently accessible slices (`Nslice`).
    pub slices: u32,
    /// Minimum cycles between back-to-back accesses to one slice (`nmem`).
    pub nmem: u32,
    /// Request-queue capacity; arrivals beyond it stall at the source.
    pub queue_depth: usize,
    /// Requests accepted into the queue per cycle (port width).
    pub accepts_per_cycle: u32,
    /// If true, only the queue head may dispatch each cycle (a single
    /// in-order queue); if false, any queued request whose slice is idle
    /// may dispatch (the paper's split/virtual-port queues).
    pub head_of_line: bool,
}

impl QueueModelConfig {
    /// A split-queue subsystem in the paper's Fig. 8 configuration:
    /// 8 slices of 6-cycle DRAM.
    #[must_use]
    pub fn fig8_ip_lookup() -> Self {
        Self {
            slices: 8,
            nmem: 6,
            queue_depth: 64,
            accepts_per_cycle: 4,
            head_of_line: false,
        }
    }

    /// Rejects configurations the simulators cannot model: zero slices, a
    /// zero-cycle memory, a port that accepts nothing per cycle, or a queue
    /// that holds nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CaRamError::BadConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.slices == 0 {
            return Err(CaRamError::BadConfig("need at least one slice".into()));
        }
        if self.nmem == 0 {
            return Err(CaRamError::BadConfig(
                "nmem must be at least one cycle".into(),
            ));
        }
        if self.accepts_per_cycle == 0 {
            return Err(CaRamError::BadConfig(
                "port must accept at least one request per cycle".into(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(CaRamError::BadConfig(
                "queue must hold at least one request".into(),
            ));
        }
        Ok(())
    }
}

/// Measured results of a queue simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThroughputReport {
    /// Cycles simulated until the last request completed.
    pub cycles: u64,
    /// Requests completed.
    pub completed: u64,
    /// Cycles in which at least one arrival stalled on a full queue.
    pub stall_cycles: u64,
    /// Peak request-queue occupancy observed.
    pub peak_queue_depth: usize,
}

impl ThroughputReport {
    /// Achieved searches per cycle; multiply by `fclk` for Msearch/s.
    #[must_use]
    pub fn searches_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.completed as f64 / self.cycles as f64
            }
        }
    }
}

/// Simulates the controller processing `requests`, each tagged with its
/// target slice (as produced by the index generator's high bits). Requests
/// arrive as fast as the port accepts them.
///
/// # Errors
///
/// Returns [`CaRamError::BadConfig`] if the configuration fails
/// [`QueueModelConfig::validate`] or a request targets a slice out of range.
pub fn simulate<I>(config: QueueModelConfig, requests: I) -> Result<ThroughputReport>
where
    I: IntoIterator<Item = u32>,
{
    simulate_with_sink(config, requests, &NullSink)
}

/// One dispatch cycle, shared by both simulators: every queued request
/// whose slice is idle at `cycle` occupies it for `nmem` cycles and leaves
/// the queue — only the queue head (and then each new head) under
/// head-of-line blocking, any request otherwise. Each dispatch reports its
/// wait (enqueue → dispatch) to `sink` and hands its enqueue cycle to
/// `dispatched`.
fn dispatch<S: TelemetrySink + ?Sized>(
    config: &QueueModelConfig,
    queue: &mut VecDeque<(u64, u32)>,
    busy_until: &mut [u64],
    cycle: u64,
    sink: &S,
    mut dispatched: impl FnMut(u64),
) {
    let mut i = 0;
    while let Some(&(t0, slice)) = queue.get(i) {
        if busy_until[slice as usize] <= cycle {
            busy_until[slice as usize] = cycle + u64::from(config.nmem);
            dispatched(t0);
            sink.queue_wait(cycle - t0);
            queue.remove(i);
        } else if config.head_of_line {
            break;
        } else {
            i += 1;
        }
    }
}

/// As [`simulate`], additionally reporting per-cycle queue depth and
/// per-request wait cycles (enqueue → dispatch) to a telemetry sink — the
/// live distributions behind [`ThroughputReport`]'s peak/stall summary.
///
/// # Errors
///
/// As [`simulate`].
///
/// # Panics
///
/// Panics if the simulation runs past 10^9 cycles without draining — a
/// safety valve against configuration mistakes in callers.
pub fn simulate_with_sink<I, S>(
    config: QueueModelConfig,
    requests: I,
    sink: &S,
) -> Result<ThroughputReport>
where
    I: IntoIterator<Item = u32>,
    S: TelemetrySink + ?Sized,
{
    config.validate()?;

    let mut pending = requests.into_iter();
    // Entries carry their enqueue cycle so the traced variant can report
    // per-request wait times; the untraced report is unaffected.
    let mut queue: VecDeque<(u64, u32)> = VecDeque::new();
    let mut busy_until = vec![0u64; config.slices as usize];
    let mut cycle: u64 = 0;
    let mut completed: u64 = 0;
    let mut stall_cycles: u64 = 0;
    let mut peak_queue_depth = 0usize;
    let mut source_dry = false;
    let mut carried: Option<u32> = None;

    while !source_dry || !queue.is_empty() || busy_until.iter().any(|&b| b > cycle) {
        // Accept new arrivals.
        let mut accepted = 0;
        let mut stalled_this_cycle = false;
        while accepted < config.accepts_per_cycle {
            if queue.len() >= config.queue_depth {
                if carried.is_some() || !source_dry {
                    stalled_this_cycle = true;
                }
                break;
            }
            let next = carried.take().or_else(|| {
                let n = pending.next();
                if n.is_none() {
                    source_dry = true;
                }
                n
            });
            match next {
                Some(s) => {
                    if s >= config.slices {
                        return Err(CaRamError::BadConfig(format!(
                            "request targets slice {s} of {}",
                            config.slices
                        )));
                    }
                    queue.push_back((cycle, s));
                    accepted += 1;
                }
                None => break,
            }
        }
        if stalled_this_cycle {
            // Remember the request we could not enqueue this cycle.
            if carried.is_none() && !source_dry {
                carried = pending.next();
                if carried.is_none() {
                    source_dry = true;
                } else {
                    stall_cycles += 1;
                }
            } else if carried.is_some() {
                stall_cycles += 1;
            }
        }
        peak_queue_depth = peak_queue_depth.max(queue.len());
        sink.queue_depth(queue.len() as u64);

        dispatch(&config, &mut queue, &mut busy_until, cycle, sink, |_| {
            completed += 1;
        });
        cycle += 1;
        // Safety valve against configuration mistakes in callers.
        assert!(cycle < 1_000_000_000, "simulation did not converge");
    }

    Ok(ThroughputReport {
        cycles: cycle,
        completed,
        stall_cycles,
        peak_queue_depth,
    })
}

/// Per-request latency statistics from a pipeline simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Requests completed.
    pub completed: u64,
    /// Mean queueing + service latency, in cycles.
    pub mean_cycles: f64,
    /// Median latency, in cycles.
    pub p50_cycles: u64,
    /// 99th-percentile latency, in cycles.
    pub p99_cycles: u64,
    /// Worst observed latency, in cycles.
    pub max_cycles: u64,
    /// Offered load actually absorbed (requests per cycle).
    pub throughput: f64,
}

/// Transaction-level simulation: requests arrive at a fixed rate (one every
/// `interarrival_num/interarrival_den` cycles), queue, occupy their slice
/// for `nmem` cycles, then spend one pipelined match cycle before the
/// result is ready. Measures the full per-request latency distribution —
/// what the closed-form `B = Nslice/nmem × fclk` says nothing about.
///
/// # Errors
///
/// Returns [`CaRamError::BadConfig`] if the configuration fails
/// [`QueueModelConfig::validate`], the interarrival rational has a zero
/// numerator or denominator, or a request targets a slice out of range.
///
/// # Panics
///
/// As [`simulate_with_sink`].
pub fn simulate_latency<I>(
    config: QueueModelConfig,
    interarrival_num: u64,
    interarrival_den: u64,
    requests: I,
) -> Result<LatencyReport>
where
    I: IntoIterator<Item = u32>,
{
    const MATCH_CYCLES: u64 = 1; // pipelined match stage after data-out
    config.validate()?;
    if interarrival_num == 0 || interarrival_den == 0 {
        return Err(CaRamError::BadConfig(
            "arrival rate must be positive".into(),
        ));
    }
    let arrivals: Vec<u32> = requests.into_iter().collect();
    for &s in &arrivals {
        if s >= config.slices {
            return Err(CaRamError::BadConfig(format!(
                "request targets slice {s} of {}",
                config.slices
            )));
        }
    }
    let mut latencies: Vec<u64> = Vec::with_capacity(arrivals.len());
    let mut queue: VecDeque<(u64, u32)> = VecDeque::new(); // (arrival cycle, slice)
    let mut busy_until = vec![0u64; config.slices as usize];
    let mut cycle: u64 = 0;
    let mut next_arrival: u64 = 0;
    let mut arrived = 0usize;

    while arrived < arrivals.len() || !queue.is_empty() || busy_until.iter().any(|&b| b > cycle) {
        // Arrivals scheduled for this cycle (drop-free infinite source
        // buffer: latency includes any wait for queue space).
        while arrived < arrivals.len() && next_arrival <= cycle * interarrival_den {
            if queue.len() >= config.queue_depth {
                break; // source stalls; the request keeps its arrival time
            }
            queue.push_back((cycle, arrivals[arrived]));
            arrived += 1;
            next_arrival += interarrival_num;
        }
        // Latency: queue wait, `nmem` cycles of slice access, then the
        // pipelined match.
        let done = |t0| latencies.push(cycle + u64::from(config.nmem) + MATCH_CYCLES - t0);
        dispatch(&config, &mut queue, &mut busy_until, cycle, &NullSink, done);
        cycle += 1;
        assert!(cycle < 1_000_000_000, "simulation did not converge");
    }
    latencies.sort_unstable();
    let n = latencies.len();
    #[allow(clippy::cast_precision_loss)]
    let mean = latencies.iter().map(|&l| l as f64).sum::<f64>() / (n.max(1) as f64);
    #[allow(clippy::cast_precision_loss)]
    Ok(LatencyReport {
        completed: n as u64,
        mean_cycles: mean,
        p50_cycles: latencies.get(n / 2).copied().unwrap_or(0),
        p99_cycles: latencies.get(n * 99 / 100).copied().unwrap_or(0),
        max_cycles: latencies.last().copied().unwrap_or(0),
        throughput: if cycle == 0 {
            0.0
        } else {
            n as f64 / cycle as f64
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_requests(n: usize, slices: u32) -> Vec<u32> {
        // Deterministic round-robin = perfectly uniform traffic.
        (0..n)
            .map(|i| u32::try_from(i).unwrap_or(0) % slices)
            .collect()
    }

    #[test]
    fn uniform_traffic_achieves_the_closed_form_bandwidth() {
        // B = Nslice / nmem searches per cycle.
        let config = QueueModelConfig::fig8_ip_lookup();
        let report =
            simulate(config, uniform_requests(20_000, config.slices)).expect("valid config");
        let achieved = report.searches_per_cycle();
        let formula = f64::from(config.slices) / f64::from(config.nmem);
        assert!(
            (achieved - formula).abs() / formula < 0.05,
            "achieved {achieved:.3} vs formula {formula:.3}"
        );
        assert_eq!(report.completed, 20_000);
    }

    #[test]
    fn single_slice_bandwidth_is_one_over_nmem() {
        let config = QueueModelConfig {
            slices: 1,
            nmem: 6,
            queue_depth: 8,
            accepts_per_cycle: 1,
            head_of_line: true,
        };
        let report = simulate(config, uniform_requests(1_000, 1)).expect("valid config");
        let achieved = report.searches_per_cycle();
        assert!((achieved - 1.0 / 6.0).abs() < 0.01, "got {achieved:.4}");
    }

    #[test]
    fn skewed_traffic_degrades_below_the_formula() {
        // All requests to one slice: bandwidth collapses to 1/nmem
        // regardless of Nslice — the formula's hidden assumption.
        let config = QueueModelConfig::fig8_ip_lookup();
        let report = simulate(config, vec![0u32; 5_000]).expect("valid config");
        let achieved = report.searches_per_cycle();
        assert!(achieved < 0.2, "got {achieved:.3}");
    }

    #[test]
    fn head_of_line_blocking_hurts_under_collisions() {
        // Pairs of requests to the same slice: an out-of-order queue can
        // overlap other slices; a head-of-line queue cannot.
        let pattern: Vec<u32> = (0..4000u32).map(|i| (i / 2) % 8).collect();
        let base = QueueModelConfig {
            slices: 8,
            nmem: 6,
            queue_depth: 32,
            accepts_per_cycle: 4,
            head_of_line: false,
        };
        let ooo = simulate(base, pattern.clone()).expect("valid config");
        let hol = simulate(
            QueueModelConfig {
                head_of_line: true,
                ..base
            },
            pattern,
        )
        .expect("valid config");
        assert!(
            ooo.searches_per_cycle() > hol.searches_per_cycle(),
            "ooo {:.3} vs hol {:.3}",
            ooo.searches_per_cycle(),
            hol.searches_per_cycle()
        );
    }

    #[test]
    fn narrow_port_caps_throughput() {
        let config = QueueModelConfig {
            slices: 8,
            nmem: 6,
            queue_depth: 64,
            accepts_per_cycle: 1, // port narrower than 8/6 per cycle
            head_of_line: false,
        };
        let report = simulate(config, uniform_requests(5_000, 8)).expect("valid config");
        assert!(report.searches_per_cycle() <= 1.0 + 1e-9);
    }

    #[test]
    fn empty_request_stream() {
        let report =
            simulate(QueueModelConfig::fig8_ip_lookup(), Vec::new()).expect("valid config");
        assert_eq!(report.completed, 0);
        assert_eq!(report.searches_per_cycle(), 0.0);
    }

    #[test]
    fn latency_at_light_load_is_service_time() {
        // One request every 20 cycles on a 6-cycle slice: no queueing, so
        // latency = nmem + 1 match cycle.
        let config = QueueModelConfig {
            slices: 4,
            nmem: 6,
            queue_depth: 16,
            accepts_per_cycle: 4,
            head_of_line: false,
        };
        let report =
            simulate_latency(config, 20, 1, uniform_requests(500, 4)).expect("valid config");
        assert_eq!(report.completed, 500);
        assert!(
            (report.mean_cycles - 7.0).abs() < 0.1,
            "{:.2}",
            report.mean_cycles
        );
        assert_eq!(report.p99_cycles, 7);
    }

    #[test]
    fn latency_grows_toward_saturation() {
        // Offered load sweep on 4 slices x 6-cycle service (capacity = one
        // request per 1.5 cycles): p99 must grow monotonically with load.
        let config = QueueModelConfig {
            slices: 4,
            nmem: 6,
            queue_depth: 1 << 14,
            accepts_per_cycle: 8,
            head_of_line: false,
        };
        // Random slice targeting: deterministic round-robin is a D/D/c
        // system with zero queueing; randomness is what builds queues.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(13);
        let random: Vec<u32> = (0..6_000).map(|_| rng.gen_range(0..4)).collect();
        let mut last_p99 = 0;
        for (num, den) in [(4u64, 1u64), (2, 1), (12, 7)] {
            // interarrival 4.0, 2.0, ~1.71 cycles (utilization .375, .75, .875)
            let report =
                simulate_latency(config, num, den, random.iter().copied()).expect("valid config");
            assert_eq!(report.completed, 6_000);
            assert!(
                report.p99_cycles >= last_p99,
                "p99 {} after {last_p99}",
                report.p99_cycles
            );
            last_p99 = report.p99_cycles;
        }
        assert!(last_p99 > 8, "queueing delay must appear near saturation");
    }

    #[test]
    fn overload_throughput_caps_at_capacity() {
        // Arrivals every cycle into 4/6 capacity: throughput pins at 2/3.
        let config = QueueModelConfig {
            slices: 4,
            nmem: 6,
            queue_depth: 64,
            accepts_per_cycle: 8,
            head_of_line: false,
        };
        let report =
            simulate_latency(config, 1, 1, uniform_requests(10_000, 4)).expect("valid config");
        assert!(
            (report.throughput - 4.0 / 6.0).abs() < 0.03,
            "{:.3}",
            report.throughput
        );
        assert!(report.max_cycles >= report.p99_cycles);
        assert!(report.p99_cycles >= report.p50_cycles);
    }

    #[test]
    fn queue_depth_is_respected() {
        let config = QueueModelConfig {
            slices: 1,
            nmem: 10,
            queue_depth: 4,
            accepts_per_cycle: 4,
            head_of_line: true,
        };
        let report = simulate(config, vec![0u32; 100]).expect("valid config");
        assert!(report.peak_queue_depth <= 4);
        assert!(report.stall_cycles > 0);
        assert_eq!(report.completed, 100);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let good = QueueModelConfig::fig8_ip_lookup();
        assert!(good.validate().is_ok());
        for bad in [
            QueueModelConfig { slices: 0, ..good },
            QueueModelConfig { nmem: 0, ..good },
            QueueModelConfig {
                accepts_per_cycle: 0,
                ..good
            },
            QueueModelConfig {
                queue_depth: 0,
                ..good
            },
        ] {
            assert!(
                matches!(bad.validate(), Err(CaRamError::BadConfig(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn simulators_surface_bad_configs_as_errors() {
        let bad = QueueModelConfig {
            slices: 0,
            ..QueueModelConfig::fig8_ip_lookup()
        };
        assert!(simulate(bad, vec![0u32; 4]).is_err());
        assert!(simulate_latency(bad, 1, 1, vec![0u32; 4]).is_err());
        let good = QueueModelConfig::fig8_ip_lookup();
        assert!(simulate_latency(good, 0, 1, vec![0u32; 4]).is_err());
    }

    #[test]
    fn out_of_range_slice_is_an_error_not_a_panic() {
        let config = QueueModelConfig::fig8_ip_lookup();
        assert!(matches!(
            simulate(config, vec![config.slices]),
            Err(CaRamError::BadConfig(_))
        ));
        assert!(matches!(
            simulate_latency(config, 2, 1, vec![config.slices]),
            Err(CaRamError::BadConfig(_))
        ));
    }
}
