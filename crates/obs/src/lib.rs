//! cote-obs: the suite's unified observability substrate.
//!
//! Two layers, both std-only and lock-free on the recording path:
//!
//! 1. **Metrics registry** ([`Registry`], [`global`]) — named [`Counter`]s,
//!    [`Gauge`]s and log₂-bucket [`LogHistogram`]s behind `Arc` handles,
//!    with Prometheus-text and JSON exposition.
//! 2. **Spans** ([`Span`]) — nested phase timing with self-time accounting
//!    at layer boundaries and (when [`set_tracing`] is on) a per-thread
//!    buffer flushed as JSONL [`TraceEvent`]s, collected across threads by
//!    a bounded [`TraceSink`].
//!
//! Per-phase compile time (Fig. 2, the time model's `C_t`) is not a span:
//! it is `cote_optimizer::CompileStats::time`. The span taxonomy (which
//! phase names exist and what fields they carry) is documented in DESIGN.md
//! § Observability.

mod metrics;
mod registry;
mod residual;
mod span;
mod trace;
mod tracefile;

pub use metrics::{fmt_duration, CacheStats, Counter, Gauge, HistogramSnapshot, LogHistogram};
pub use registry::{escape_help, escape_label_value, global, Registry};
pub use residual::{ResidualConfig, ResidualTracker};
pub use span::{
    clear_context, dropped_events, set_context, set_tracing, take_events, tracing_enabled, Span,
    SpanTiming, TraceSink,
};
pub use trace::{parse_jsonl, to_jsonl, TraceEvent};
pub use tracefile::{BoundedTraceWriter, TraceFileSummary};

/// Canonical span (phase) names. Using these constants keeps the optimizer,
/// estimator, service and net layers on one taxonomy (see DESIGN.md).
pub mod phase {
    /// Whole `optimize_block` call (root span; total = wall clock).
    pub const COMPILE: &str = "compile";
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
