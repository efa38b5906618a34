//! `cote-service`: a concurrent estimation-and-admission daemon driven by
//! COTE compile-time estimates.
//!
//! The paper's estimator answers "how long would optimizing this statement
//! take?" *before* optimizing it. This crate puts that answer on the serving
//! path of a (simulated) database frontend:
//!
//! ```text
//!             ┌────────────────────────────────────────────────────┐
//!  submit ──▶ │ sharded statement cache (fingerprint → advice)     │──▶ hit
//!             └───────────────┬────────────────────────────────────┘
//!                         miss│
//!             ┌───────────────▼────────────────────────────────────┐
//!             │ admission controller: in-flight cap, projected-    │──▶ shed
//!             │ wait deadline check, degrade watermark             │
//!             └───────────────┬────────────────────────────────────┘
//!                      admit  │ (possibly degraded)
//!             ┌───────────────▼────────────────────────────────────┐
//!             │ bounded MPMC queue → N estimator workers           │
//!             │   worker: COTE multi-level estimate → level        │
//!             │   advisor (budget fit + MOP rule) → cache insert   │
//!             └────────────────────────────────────────────────────┘
//! ```
//!
//! Everything is `std`-only: the queue is `Mutex` + `Condvar`, the cache is
//! `RwLock`-sharded LRU, metrics are atomics with log-scaled histograms.
//!
//! Entry points: [`CoteService::start`] / [`CoteService::submit`].

pub mod admission;
pub mod advisor;
pub mod cache;
pub mod config;
pub mod metrics;
pub mod queue;
pub mod recal;
pub mod request;
pub mod service;

pub use admission::{Admission, AdmissionController};
pub use advisor::{mop_rule, Advice, LevelAdvisor, LevelChoice};
pub use cache::ShardedCache;
pub use config::{RecalConfig, ServiceConfig};
pub use metrics::{
    fmt_duration, CacheStats, Counter, Gauge, HistogramSnapshot, LogHistogram, Metrics,
};
pub use queue::{BoundedQueue, PushError};
pub use recal::Recalibrator;
pub use request::{Decision, QueryClass, ServiceResponse, ShedReason};
pub use service::{CoteService, CHAOS_ESTIMATE_DELAY, CHAOS_QUEUE_STALL};
