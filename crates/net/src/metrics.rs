//! Network-layer instruments, registered into the *service's* registry so
//! one `GET /metrics` scrape (or `METRICS` frame) exposes the whole stack —
//! admission and estimation counters next to connection and byte counters.

use cote_obs::{Counter, Gauge, LogHistogram, Registry};
use std::sync::Arc;

/// Every instrument the serving layer records, by name.
#[derive(Clone)]
pub struct NetMetrics {
    /// Connections accepted.
    pub conns: Arc<Counter>,
    /// Connections currently open (accepted, not yet closed).
    pub conns_active: Arc<Gauge>,
    /// Connections shed at accept with a `BUSY connections` response
    /// because the handler pool and its backlog were full.
    pub conns_shed: Arc<Counter>,
    /// Wire-protocol requests handled.
    pub requests: Arc<Counter>,
    /// HTTP requests handled.
    pub http_requests: Arc<Counter>,
    /// `BUSY` responses written (admission sheds, drain refusals).
    pub busy_responses: Arc<Counter>,
    /// Frames/requests that violated the protocol (oversize, invalid
    /// UTF-8, truncated, unparsable).
    pub malformed: Arc<Counter>,
    /// Bytes read from peers.
    pub bytes_in: Arc<Counter>,
    /// Bytes written to peers.
    pub bytes_out: Arc<Counter>,
    /// Request latency, first frame byte parsed → response flushed.
    pub request_latency: Arc<LogHistogram>,
}

impl NetMetrics {
    /// Register (or re-attach to) the net instruments in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            conns: registry
                .counter_with_help("cote_net_connections_total", "Connections accepted."),
            conns_active: registry.gauge_with_help(
                "cote_net_active_connections",
                "Connections currently open (accepted, not yet closed).",
            ),
            conns_shed: registry.counter_with_help(
                "cote_net_connections_shed_total",
                "Connections shed at accept with BUSY (pool and backlog full).",
            ),
            requests: registry
                .counter_with_help("cote_net_requests_total", "Wire-protocol requests handled."),
            http_requests: registry
                .counter_with_help("cote_net_http_requests_total", "HTTP requests handled."),
            busy_responses: registry.counter_with_help(
                "cote_net_busy_responses_total",
                "BUSY responses written (admission sheds, drain refusals).",
            ),
            malformed: registry.counter_with_help(
                "cote_net_malformed_total",
                "Protocol violations: oversize, invalid UTF-8, truncated, unparsable.",
            ),
            bytes_in: registry
                .counter_with_help("cote_net_bytes_read_total", "Bytes read from peers."),
            bytes_out: registry
                .counter_with_help("cote_net_bytes_written_total", "Bytes written to peers."),
            request_latency: registry.histogram_with_help(
                "cote_net_request_latency_seconds",
                "Request latency, first frame byte parsed to response flushed.",
            ),
        }
    }
}

/// Readiness-loop instruments (`cote_net_poll_*`).
#[derive(Clone)]
pub struct PollMetrics {
    /// Poller wakeups (poll syscalls that returned at least one event).
    pub wakeups: Arc<Counter>,
    /// Readiness events delivered across all wakeups.
    pub events: Arc<Counter>,
    /// Times a connection's read interest was dropped because its write
    /// buffer crossed the high-water mark (write backpressure engaged).
    pub backpressure: Arc<Counter>,
    /// Event-loop threads currently running.
    pub loops: Arc<Gauge>,
    /// Connections currently parked under write backpressure.
    pub backpressured: Arc<Gauge>,
}

impl PollMetrics {
    /// Register (or re-attach to) the poll instruments in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            wakeups: registry.counter_with_help(
                "cote_net_poll_wakeups_total",
                "Poller wakeups that delivered at least one readiness event.",
            ),
            events: registry.counter_with_help(
                "cote_net_poll_events_total",
                "Readiness events delivered across all wakeups.",
            ),
            backpressure: registry.counter_with_help(
                "cote_net_poll_backpressure_total",
                "Read interest drops due to a full write buffer (backpressure).",
            ),
            loops: registry.gauge_with_help(
                "cote_net_poll_loops",
                "Event-loop threads currently running.",
            ),
            backpressured: registry.gauge_with_help(
                "cote_net_poll_backpressured_connections",
                "Connections currently parked under write backpressure.",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_instruments_register_flat_names() {
        let r = Registry::new();
        let p = PollMetrics::new(&r);
        p.wakeups.inc();
        p.loops.add(2);
        let text = r.prometheus_text();
        assert!(text.contains("cote_net_poll_wakeups_total 1"));
        assert!(text.contains("cote_net_poll_loops 2"));
    }

    #[test]
    fn instruments_share_the_registry() {
        let r = Registry::new();
        let m = NetMetrics::new(&r);
        m.conns.inc();
        m.conns_active.add(1);
        m.bytes_in.add(42);
        let text = r.prometheus_text();
        assert!(text.contains("cote_net_connections_total 1"));
        assert!(text.contains("cote_net_active_connections 1"));
        assert!(text.contains("cote_net_bytes_read_total 42"));
        // Re-attaching returns the same instruments.
        let again = NetMetrics::new(&r);
        again.conns.inc();
        assert_eq!(m.conns.get(), 2);
    }
}
