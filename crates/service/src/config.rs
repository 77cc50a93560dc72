//! Serving-layer configuration and its mapping onto the queue model.

use std::time::Duration;

use ca_ram_core::controller::QueueModelConfig;
use ca_ram_core::error::{CaRamError, Result};

/// Configuration of a [`SearchService`](crate::service::SearchService).
///
/// The degradation ladder is driven by two fill fractions of the bounded
/// per-shard queue: once the drained depth reaches
/// `telemetry_shed_fill × queue_depth` the per-request wait histograms stop
/// being recorded, and once it reaches `coalesce_fill × queue_depth`
/// duplicate search keys within one drained batch share a single engine
/// probe. A full queue rejects at admission regardless.
///
/// Units: the ladder's queue depth is measured in *requests* — a queued
/// `submit_batch` sub-batch counts each of its keys — so the fill
/// fractions keep their per-request meaning under batched load. The
/// admission bound itself is counted in ring *entries* (a multi-key
/// sub-batch occupies one of the `queue_depth` slots in its shard's
/// ring), so a batched workload can carry more in-flight keys than
/// `queue_depth` before rejecting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Engine shards (and worker threads — one worker owns each shard).
    pub shards: usize,
    /// Bounded queue capacity per shard, in ring entries (one per single
    /// request or per `submit_batch` sub-batch); admission control rejects
    /// (or backpressures, for blocking submitters) beyond it.
    pub queue_depth: usize,
    /// Most requests drained into one batch per worker wakeup.
    pub batch_max: usize,
    /// Default per-request deadline measured from submission; a request
    /// still queued when it expires is shed, never served stale. `None`
    /// disables deadlines.
    pub default_deadline: Option<Duration>,
    /// Queue-fill fraction past which deep telemetry is shed (rung 1).
    pub telemetry_shed_fill: f64,
    /// Queue-fill fraction past which duplicate in-flight search keys are
    /// coalesced (rung 2). Must be at least `telemetry_shed_fill`.
    pub coalesce_fill: f64,
    /// Request-trace head-sampling period: trace 1 in N admissions
    /// (rounded up to a power of two); 0 disables lifecycle tracing
    /// entirely. Reconfigurable at runtime via
    /// [`SearchService::set_trace_period`](crate::SearchService::set_trace_period).
    pub trace_sample_period: u64,
    /// Rolling top-k slowest completions each shard's trace store keeps.
    pub trace_topk: usize,
    /// Most-recent completions each shard's trace store keeps beyond the
    /// top-k (anomalous traces have their own fixed bound).
    pub trace_recent: usize,
    /// Per-shard flight-recorder capacity, in events (overwrite-oldest).
    pub recorder_capacity: usize,
    /// SLO latency target, microseconds: a completion slower than this
    /// burns error budget.
    pub slo_target_us: u64,
    /// Allowed fraction of bad events (latency breaches + sheds +
    /// rejects) per SLO window, in `(0, 1]`.
    pub slo_error_budget: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_depth: 1024,
            batch_max: 64,
            default_deadline: None,
            telemetry_shed_fill: 0.5,
            coalesce_fill: 0.75,
            trace_sample_period: 0,
            trace_topk: 8,
            trace_recent: 32,
            recorder_capacity: 256,
            slo_target_us: 10_000,
            slo_error_budget: 0.01,
        }
    }
}

impl ServiceConfig {
    /// A single-shard service with the default queue; the configuration the
    /// conformance suite and differential fuzzer drive, where routing is
    /// trivially consistent for ternary keys too.
    #[must_use]
    pub fn single_shard() -> Self {
        Self {
            shards: 1,
            ..Self::default()
        }
    }

    /// Rejects nonsensical configurations.
    ///
    /// # Errors
    ///
    /// Returns [`CaRamError::BadConfig`] naming the offending field: zero
    /// shards, a queue or batch that holds nothing, a zero-length deadline,
    /// a fill fraction outside `[0, 1]`, or a ladder whose coalesce rung
    /// comes before its telemetry rung.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(CaRamError::BadConfig("need at least one shard".into()));
        }
        if self.queue_depth == 0 {
            return Err(CaRamError::BadConfig(
                "queue must hold at least one request".into(),
            ));
        }
        if self.batch_max == 0 {
            return Err(CaRamError::BadConfig(
                "batch must admit at least one request".into(),
            ));
        }
        if self.default_deadline == Some(Duration::ZERO) {
            return Err(CaRamError::BadConfig(
                "a zero deadline would shed every request".into(),
            ));
        }
        for (name, fill) in [
            ("telemetry_shed_fill", self.telemetry_shed_fill),
            ("coalesce_fill", self.coalesce_fill),
        ] {
            if !fill.is_finite() || !(0.0..=1.0).contains(&fill) {
                return Err(CaRamError::BadConfig(format!(
                    "{name} must be a fraction in [0, 1], got {fill}"
                )));
            }
        }
        if self.telemetry_shed_fill > self.coalesce_fill {
            return Err(CaRamError::BadConfig(
                "degradation ladder out of order: telemetry_shed_fill must \
                 not exceed coalesce_fill"
                    .into(),
            ));
        }
        if self.recorder_capacity == 0 {
            return Err(CaRamError::BadConfig(
                "flight recorder must hold at least one event".into(),
            ));
        }
        if !self.slo_error_budget.is_finite()
            || self.slo_error_budget <= 0.0
            || self.slo_error_budget > 1.0
        {
            return Err(CaRamError::BadConfig(format!(
                "slo_error_budget must be a fraction in (0, 1], got {}",
                self.slo_error_budget
            )));
        }
        if self.slo_target_us == 0 {
            return Err(CaRamError::BadConfig(
                "a zero SLO target would breach on every completion".into(),
            ));
        }
        Ok(())
    }

    /// Queue depth (in requests, batch keys counted individually) at which
    /// deep telemetry is shed (ladder rung 1).
    #[must_use]
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    #[allow(clippy::cast_possible_truncation)]
    pub fn telemetry_shed_threshold(&self) -> usize {
        (self.queue_depth as f64 * self.telemetry_shed_fill).ceil() as usize
    }

    /// Queue depth (in requests, batch keys counted individually) at which
    /// duplicate keys coalesce (ladder rung 2).
    #[must_use]
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    #[allow(clippy::cast_possible_truncation)]
    pub fn coalesce_threshold(&self) -> usize {
        (self.queue_depth as f64 * self.coalesce_fill).ceil() as usize
    }

    /// The cycle-level queue model whose shape matches this service: one
    /// model slice per shard, the same bounded queue, `nmem` busy cycles per
    /// dispatch, and split (non-head-of-line) queues — one request queue per
    /// shard worker dispatches independently, exactly the paper's split
    /// request queues.
    ///
    /// `serve_bench` uses this to compare measured p50/p99 latencies against
    /// [`simulate_latency`](ca_ram_core::controller::simulate_latency)
    /// predictions for the same offered load.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn queue_model(&self, nmem: u32, accepts_per_cycle: u32) -> QueueModelConfig {
        QueueModelConfig {
            slices: self.shards as u32,
            nmem,
            queue_depth: self.queue_depth,
            accepts_per_cycle,
            head_of_line: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ServiceConfig::default().validate().is_ok());
        assert!(ServiceConfig::single_shard().validate().is_ok());
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let good = ServiceConfig::default();
        let bads = [
            ServiceConfig { shards: 0, ..good },
            ServiceConfig {
                queue_depth: 0,
                ..good
            },
            ServiceConfig {
                batch_max: 0,
                ..good
            },
            ServiceConfig {
                default_deadline: Some(Duration::ZERO),
                ..good
            },
            ServiceConfig {
                telemetry_shed_fill: -0.1,
                ..good
            },
            ServiceConfig {
                coalesce_fill: 1.5,
                ..good
            },
            ServiceConfig {
                telemetry_shed_fill: f64::NAN,
                ..good
            },
            ServiceConfig {
                telemetry_shed_fill: 0.9,
                coalesce_fill: 0.5,
                ..good
            },
            ServiceConfig {
                recorder_capacity: 0,
                ..good
            },
            ServiceConfig {
                slo_error_budget: 0.0,
                ..good
            },
            ServiceConfig {
                slo_error_budget: 1.5,
                ..good
            },
            ServiceConfig {
                slo_target_us: 0,
                ..good
            },
        ];
        for bad in bads {
            assert!(
                matches!(bad.validate(), Err(CaRamError::BadConfig(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn ladder_thresholds_cover_the_extremes() {
        let config = ServiceConfig {
            queue_depth: 100,
            telemetry_shed_fill: 0.0,
            coalesce_fill: 1.0,
            ..ServiceConfig::default()
        };
        assert_eq!(config.telemetry_shed_threshold(), 0); // always shed
        assert_eq!(config.coalesce_threshold(), 100); // only when full
    }

    #[test]
    fn queue_model_mirrors_the_service_shape() {
        let config = ServiceConfig {
            shards: 8,
            queue_depth: 64,
            ..ServiceConfig::default()
        };
        let model = config.queue_model(6, 4);
        assert_eq!(model.slices, 8);
        assert_eq!(model.nmem, 6);
        assert_eq!(model.queue_depth, 64);
        assert!(!model.head_of_line);
        assert!(model.validate().is_ok());
    }
}
