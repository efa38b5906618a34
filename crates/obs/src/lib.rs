//! cote-obs: the suite's unified observability substrate.
//!
//! Three layers, all std-only and lock-free on the recording path:
//!
//! 1. **Metrics registry** ([`Registry`], [`global`]) — named [`Counter`]s,
//!    [`Gauge`]s and log₂-bucket [`LogHistogram`]s behind `Arc` handles,
//!    with Prometheus-text and JSON exposition.
//! 2. **Spans** ([`Span`]) — nested phase timing with self-time accounting,
//!    a per-thread close hook, and (when [`set_tracing`] is on) a trace
//!    buffer flushed as JSONL [`TraceEvent`]s. The `obs-off` feature
//!    compiles the whole layer out to zero-sized no-ops.
//! 3. **Profiling** ([`PhaseProfiler`]) — a hook consumer that aggregates
//!    per-phase time, used by the bench harness for the Fig. 2 breakdown.
//!
//! The span taxonomy (which phase names exist and what fields they carry)
//! is documented in DESIGN.md § Observability.

mod metrics;
mod profile;
mod registry;
mod residual;
mod span;
mod trace;
mod tracefile;

pub use metrics::{fmt_duration, CacheStats, Counter, Gauge, HistogramSnapshot, LogHistogram};
pub use profile::{PhaseAgg, PhaseProfiler};
pub use registry::{escape_help, escape_label_value, global, Registry};
pub use residual::{ResidualConfig, ResidualTracker};
pub use span::{
    clear_context, clear_span_hook, dropped_events, set_context, set_span_hook, set_tracing,
    take_events, tracing_enabled, Span, SpanRecord, SpanTiming, Stopwatch,
};
pub use trace::{parse_jsonl, to_jsonl, TraceEvent};
pub use tracefile::{BoundedTraceWriter, TraceFileSummary};

/// Canonical span (phase) names. Using these constants keeps the optimizer,
/// estimator, service and bench layers on one taxonomy (see DESIGN.md).
pub mod phase {
    /// Whole `optimize_block` call (root span; total = wall clock).
    pub const COMPILE: &str = "compile";
    /// Join enumeration proper (self time = enumeration minus plangen).
    pub const ENUMERATE: &str = "enumerate";
    /// Nested-loop join plan generation.
    pub const NLJN: &str = "nljn";
    /// Merge join plan generation (sort-order property work included).
    pub const MGJN: &str = "mgjn";
    /// Hash join plan generation.
    pub const HSJN: &str = "hsjn";
    /// Saving candidate plans into the MEMO (dominance pruning).
    pub const SAVE: &str = "save";
    /// Base-table access payloads (scans and their property setup).
    pub const SCAN: &str = "scan";
    /// MEMO entry finalization (group-by/order post-passes).
    pub const FINALIZE: &str = "finalize";
    /// One parallel-enumerated DP level: fork, worker stripes, shard merge
    /// (records `level`, `masks`, `workers`).
    pub const ENUM_PAR_LEVEL: &str = "enum_par_level";
    /// One COTE block estimate (counting pass over the enumerator).
    pub const ESTIMATE: &str = "estimate";
    /// Per-level estimate marker inside [`ESTIMATE`].
    pub const ESTIMATE_LEVEL: &str = "estimate_level";
    /// One estimator execution on a service worker.
    pub const SERVICE_ESTIMATE: &str = "service_estimate";
    /// One wire/HTTP request dispatch in `cote-net`, handler call to
    /// response queued (records `http` = 0 | 1).
    pub const NET_REQUEST: &str = "net_request";
}
