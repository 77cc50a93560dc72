//! End-to-end telemetry: lock-free histograms, stage-level trace hooks,
//! a metrics registry, and machine-readable exports.
//!
//! The paper's evaluation is an observability exercise — AMAL,
//! probe-length distributions, Fig. 7 occupancy, bandwidth under queuing
//! — and this module is the layer that measures all of it from live
//! counters instead of analytic models:
//!
//! * [`histogram`] — power-of-two-bucketed [`Histogram`] /
//!   [`AtomicHistogram`] with the same snapshot/merge semantics as
//!   [`crate::stats::AtomicSearchStats`];
//! * [`trace`] — the zero-cost-when-disabled [`TelemetrySink`] trait, the
//!   pipeline [`Stage`] model, and the built-in sinks ([`HistogramSink`],
//!   [`TraceBuffer`], [`NullSink`]);
//! * [`registry`] — the [`MetricsRegistry`] aggregating per-slice,
//!   per-database, and per-engine scopes;
//! * [`export`] — schema-versioned JSON and Prometheus text renderers
//!   plus dependency-free validators for CI gating;
//! * [`span`] — per-request lifecycle traces ([`RequestTrace`]) with
//!   head sampling ([`TraceSampler`]) and tail retention ([`TraceStore`]);
//! * [`recorder`] — the lock-free overwrite-oldest [`FlightRecorder`]
//!   ring behind anomaly dumps;
//! * [`slo`] — rolling-window quantiles and error-budget burn rate
//!   ([`SloTracker`]) diffed out of cumulative histograms.
//!
//! Instrumented components ([`crate::table::CaRamTable`],
//! [`crate::subsystem::CaRamSubsystem`]) take an `Arc<dyn TelemetrySink>`;
//! with no sink installed the search hot path pays one branch and nothing
//! else. The input-controller model
//! ([`crate::controller::simulate_with_sink`]) is generic over its sink,
//! and the untraced [`crate::controller::simulate`] passes [`NullSink`].

pub mod export;
pub mod histogram;
pub mod recorder;
pub mod registry;
pub mod slo;
pub mod span;
pub mod trace;

pub use export::{
    parse_json, to_json, to_prometheus, validate_json, validate_prometheus, JsonValue, SCHEMA,
};
pub use histogram::{bucket_bounds, bucket_of, AtomicHistogram, Histogram, BUCKETS};
pub use recorder::FlightRecorder;
pub use registry::{MetricsRegistry, ScopeKind, ScopeMetrics};
pub use slo::{SloPolicy, SloReport, SloTracker};
pub use span::{RequestTrace, SpanEvent, SpanStage, TraceSampler, TraceStore};
pub use trace::{
    HistogramSink, NullSink, ProbeSummary, Stage, TelemetrySink, TelemetrySnapshot, TraceBuffer,
    TraceEvent,
};
