//! The gateway core: route, forward, fail over.
//!
//! [`GatewayCore`] implements [`WireHandler`], so the `cote-net` server
//! serves it unchanged — the gateway is "a handler that happens to answer
//! by asking someone else". Per request:
//!
//! 1. Derive the routing key (query index or SQL text) and fingerprint it.
//! 2. Walk the ring's candidate order for that key, skipping backends the
//!    prober currently marks down.
//! 3. Forward the wire frame verbatim to the first candidate over a pooled
//!    connection; on `BUSY` or a transport failure, fail over to the next
//!    distinct ring node. Transport failures also mark the backend down so
//!    subsequent requests skip it immediately (the prober revives it).
//! 4. Exhausting every up candidate answers `BUSY <reason>` (the last
//!    upstream reason, or `upstream` when none answered at all) — the
//!    gateway degrades into exactly the shedding behavior clients already
//!    handle.
//!
//! `PING` and `METRICS` (and `/healthz`, `/metrics`) answer locally: a
//! health probe against the gateway must measure *the gateway*, and the
//! registry is per-process. Per-shard metrics come from asking a backend
//! directly.

use crate::breaker::{BreakerState, CircuitBreaker, Transition};
use crate::metrics::GatewayMetrics;
use crate::ring::{fingerprint, HashRing, DEFAULT_VNODES};
use cote_common::failpoint::{self, FaultAction};
use cote_common::Xoshiro256pp;
use cote_net::{
    http_body_to_wire, wire_to_http, HttpRequest, NetClient, NetClientConfig, OutcomeTarget,
    WireHandler, WireRequest, WireResponse,
};
use cote_obs::Registry;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Failpoint: stall the gateway's forward path before an exchange
/// (`FaultAction::Delay`) — models a slow backend as seen from the
/// gateway; the retry budget must bound the caller's wait.
pub const CHAOS_FORWARD_STALL: &str = "gw.forward.stall";
/// Failpoint: force a health probe to report failure — models a flapping
/// prober; the up-mask (not the breaker) reacts.
pub const CHAOS_PROBE_FAIL: &str = "gw.probe.fail";

/// Failover retry shape: how many attempts a request may spend, how long
/// the backoffs between them grow, and the wall-clock budget that bounds
/// the whole dance.
///
/// The backoff before attempt `k` (k ≥ 2) is
/// `min(base · 2^(k-2), max) · (1 ± jitter)`, and a retry is only taken
/// while `elapsed + backoff ≤ budget` — so a request's worst case is
/// bounded by `budget` plus one exchange, never by the number of backends.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Forward attempts per request (first try included).
    pub max_attempts: usize,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Backoff growth cap.
    pub max_backoff: Duration,
    /// Jitter fraction applied to each backoff (0.25 = ±25%), drawn from
    /// the gateway's seeded RNG so chaos runs replay identically.
    pub jitter: f64,
    /// Per-request wall-clock budget across all attempts and backoffs.
    pub budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            jitter: 0.25,
            budget: Duration::from_secs(1),
        }
    }
}

/// Gateway knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Backend `cote serve --listen` addresses (`--backend` flags). Ring
    /// identity is the address string: the same address always owns the
    /// same arcs regardless of flag order.
    pub backends: Vec<SocketAddr>,
    /// Ring points per backend.
    pub vnodes: usize,
    /// Health-probe cadence (each sweep's sleep is jittered by
    /// `probe_jitter` so a fleet of gateways doesn't probe in lockstep).
    pub probe_interval: Duration,
    /// Probe-interval jitter fraction (0.25 = ±25%).
    pub probe_jitter: f64,
    /// Transport settings for backend connections (connect timeout also
    /// bounds how long a request can stall on a just-died backend).
    pub client: NetClientConfig,
    /// Idle pooled connections kept per backend.
    pub pool_per_backend: usize,
    /// Failover retry/backoff/budget shape.
    pub retry: RetryPolicy,
    /// Consecutive transport failures that open a backend's breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker refuses before half-opening a trial.
    pub breaker_cooldown: Duration,
    /// Seed for the gateway's jitter RNG (backoff and probe spreading);
    /// fixed so a chaos run replays byte-for-byte.
    pub seed: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            backends: Vec::new(),
            vnodes: DEFAULT_VNODES,
            probe_interval: Duration::from_millis(500),
            probe_jitter: 0.25,
            // A gateway must fail over fast; the library default 2s
            // connect timeout is client-side patience, not a router's.
            client: NetClientConfig {
                connect_timeout: Duration::from_millis(250),
                ..NetClientConfig::default()
            },
            pool_per_backend: 16,
            retry: RetryPolicy::default(),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            seed: 0xC07E_C07E,
        }
    }
}

struct Backend {
    addr: SocketAddr,
    up: AtomicBool,
    pool: Mutex<Vec<NetClient>>,
}

/// The routable, forwardable heart of the gateway (shared with front-ends
/// as an `Arc<dyn WireHandler>`).
pub struct GatewayCore {
    ring: HashRing,
    backends: Vec<Backend>,
    breakers: Vec<CircuitBreaker>,
    /// Jitter source for retry backoff (probe jitter draws from its own
    /// stream on the prober thread).
    backoff_rng: Mutex<Xoshiro256pp>,
    cfg: GatewayConfig,
    registry: Registry,
    metrics: GatewayMetrics,
}

impl GatewayCore {
    fn new(cfg: GatewayConfig) -> Self {
        let registry = Registry::new();
        let metrics = GatewayMetrics::new(&registry);
        let addrs: Vec<String> = cfg.backends.iter().map(|a| a.to_string()).collect();
        let backends: Vec<Backend> = cfg
            .backends
            .iter()
            .map(|&addr| Backend {
                addr,
                // Optimistic until the first probe: a request beats the
                // prober to a dead backend at worst once, pays one connect
                // timeout, and marks it down itself.
                up: AtomicBool::new(true),
                pool: Mutex::new(Vec::new()),
            })
            .collect();
        let breakers = backends
            .iter()
            .map(|_| CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown))
            .collect();
        metrics.backends_up.set(backends.len() as i64);
        Self {
            ring: HashRing::new(addrs, cfg.vnodes),
            backends,
            breakers,
            backoff_rng: Mutex::new(Xoshiro256pp::new(cfg.seed)),
            cfg,
            registry,
            metrics,
        }
    }

    /// Fold a breaker transition into the transition counters and the
    /// open-breakers gauge.
    fn note_transition(&self, t: Transition) {
        match t {
            Transition::None => {}
            Transition::Opened => {
                self.metrics.breaker_opened.inc();
                self.metrics.breakers_open.add(1);
            }
            Transition::Reopened => self.metrics.breaker_opened.inc(),
            Transition::HalfOpened => self.metrics.breaker_half_open.inc(),
            Transition::Closed => {
                self.metrics.breaker_closed.inc();
                self.metrics.breakers_open.add(-1);
            }
        }
    }

    /// Breaker state for backend `idx` (tests and the chaos harness).
    pub fn breaker_state(&self, idx: usize) -> BreakerState {
        self.breakers[idx].state()
    }

    /// Jittered exponential backoff before forward attempt `attempt`
    /// (1-based; attempt 1 pays none).
    fn backoff_delay(&self, attempt: usize) -> Duration {
        if attempt <= 1 {
            return Duration::ZERO;
        }
        let pow = (attempt - 2).min(16) as u32;
        let base = self
            .cfg
            .retry
            .base_backoff
            .saturating_mul(1u32 << pow)
            .min(self.cfg.retry.max_backoff);
        let jitter = self.cfg.retry.jitter.clamp(0.0, 1.0);
        let factor = 1.0 + jitter * (2.0 * self.backoff_rng.lock().unwrap().unit_f64() - 1.0);
        Duration::from_secs_f64((base.as_secs_f64() * factor).max(0.0))
    }

    /// The gateway's own registry (front-ends register their transport
    /// instruments here too).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Gateway instruments.
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.metrics
    }

    /// The ring (for tests and the CLI's startup banner).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Backends currently marked up.
    pub fn backends_up(&self) -> usize {
        self.backends
            .iter()
            .filter(|b| b.up.load(Ordering::Acquire))
            .count()
    }

    fn up_mask(&self) -> Vec<bool> {
        self.backends
            .iter()
            .map(|b| b.up.load(Ordering::Acquire))
            .collect()
    }

    fn set_up(&self, idx: usize, up: bool) {
        let was = self.backends[idx].up.swap(up, Ordering::AcqRel);
        if was != up {
            self.metrics.backends_up.set(self.backends_up() as i64);
            if !up {
                // Pooled connections to a dead backend are dead too.
                let drained = self.backends[idx].pool.lock().unwrap().drain(..).count();
                self.metrics.pooled_conns.add(-(drained as i64));
            }
        }
    }

    fn take_conn(&self, idx: usize) -> Option<NetClient> {
        let conn = self.backends[idx].pool.lock().unwrap().pop();
        if conn.is_some() {
            self.metrics.pooled_conns.add(-1);
        }
        conn
    }

    fn return_conn(&self, idx: usize, conn: NetClient) {
        let mut pool = self.backends[idx].pool.lock().unwrap();
        if pool.len() < self.cfg.pool_per_backend {
            pool.push(conn);
            self.metrics.pooled_conns.add(1);
        }
    }

    /// One exchange against backend `idx`. A stale pooled connection (the
    /// backend idle-times pooled sockets out) gets one retry on a fresh
    /// connection before the attempt counts as a transport failure.
    fn exchange(&self, idx: usize, line: &str) -> Result<WireResponse, ()> {
        let mut fresh = false;
        let mut conn = match self.take_conn(idx) {
            Some(c) => c,
            None => {
                fresh = true;
                NetClient::connect_with(self.backends[idx].addr, &self.cfg.client)
                    .map_err(|_| ())?
            }
        };
        loop {
            self.metrics.forwards.inc();
            let t0 = Instant::now();
            let result = conn.send_raw(line).and_then(|()| conn.recv());
            match result {
                Ok(resp) => {
                    self.metrics.forward_latency.record(t0.elapsed());
                    // Connection-level sheds close the socket server-side.
                    let keep = !matches!(
                        &resp,
                        WireResponse::Busy(r) if r == "connections" || r == "draining"
                    );
                    if keep {
                        self.return_conn(idx, conn);
                    }
                    return Ok(resp);
                }
                Err(_) if !fresh => {
                    // The pooled socket was stale (backend restarted or
                    // idle-closed it): exactly one retry on a fresh
                    // connection before this counts as a real failure.
                    self.metrics.stale_retries.inc();
                    fresh = true;
                    conn = NetClient::connect_with(self.backends[idx].addr, &self.cfg.client)
                        .map_err(|_| ())?;
                }
                Err(_) => return Err(()),
            }
        }
    }

    /// Route by key and forward, failing over through the ring's candidate
    /// order on `BUSY` or transport failure. Failover is disciplined three
    /// ways: an open circuit breaker skips a backend without paying a
    /// connect timeout, retries after the first attempt back off
    /// exponentially with seeded jitter, and the whole dance stops when the
    /// per-request budget would be exceeded — a request's wait is bounded
    /// by the budget, not by how many backends are down.
    fn forward(&self, key: &str, line: &str) -> WireResponse {
        self.metrics.requests.inc();
        let t_start = Instant::now();
        let hash = fingerprint(key);
        let order = self.ring.candidates(hash, &self.up_mask());
        let mut last_busy: Option<String> = None;
        let mut attempt = 0usize;
        for &idx in order.iter() {
            if attempt >= self.cfg.retry.max_attempts {
                break;
            }
            // An open breaker refuses instantly; skipping costs nothing,
            // so it doesn't consume an attempt.
            let (allowed, tr) = self.breakers[idx].allow();
            self.note_transition(tr);
            if !allowed {
                continue;
            }
            attempt += 1;
            if attempt > 1 {
                self.metrics.failovers.inc();
                let delay = self.backoff_delay(attempt);
                if t_start.elapsed() + delay > self.cfg.retry.budget {
                    self.metrics.retry_budget_exhausted.inc();
                    last_busy = Some("retry budget".into());
                    break;
                }
                std::thread::sleep(delay);
            }
            if let Some(FaultAction::Delay(d)) = failpoint::hit(CHAOS_FORWARD_STALL) {
                std::thread::sleep(d);
            }
            match self.exchange(idx, line) {
                Ok(WireResponse::Busy(reason)) => {
                    // A BUSY rides a healthy transport: the breaker sees
                    // success, the failover walks on.
                    self.note_transition(self.breakers[idx].record_success());
                    last_busy = Some(reason);
                    continue;
                }
                Ok(resp) => {
                    self.note_transition(self.breakers[idx].record_success());
                    return resp;
                }
                Err(()) => {
                    self.metrics.upstream_errors.inc();
                    self.note_transition(self.breakers[idx].record_failure());
                    self.set_up(idx, false);
                    continue;
                }
            }
        }
        self.metrics.exhausted.inc();
        WireResponse::Busy(last_busy.unwrap_or_else(|| "upstream".into()))
    }

    /// Routing key for a request that should be forwarded; `None` for
    /// requests the gateway answers locally.
    fn routing_key(req: &WireRequest) -> Option<String> {
        match req {
            WireRequest::Estimate { index, .. }
            | WireRequest::Admit { index, .. }
            | WireRequest::Outcome {
                target: OutcomeTarget::Index(index),
                ..
            } => Some(format!("q:{index}")),
            WireRequest::EstimateSql { sql } => Some(sql.clone()),
            // The ring places SQL by its text, which `OUTCOME sql-…` lacks.
            WireRequest::Ping | WireRequest::Metrics | WireRequest::Outcome { .. } => None,
        }
    }

    /// Give every non-Closed breaker a chance to recover *now*: cooldown
    /// permitting, send one `PING` trial and let the breaker judge the
    /// transport. Traffic performs this trial organically, but a backend
    /// that owns no hot keys sees requests only as a failover target — if
    /// its breaker opened, nothing would ever half-open it again. The
    /// prober calls this each sweep; returns how many breakers are still
    /// not Closed.
    pub fn heal_breakers(&self) -> usize {
        let mut open = 0;
        for (idx, breaker) in self.breakers.iter().enumerate() {
            if breaker.state() != BreakerState::Closed {
                let (allowed, tr) = breaker.allow();
                self.note_transition(tr);
                if allowed {
                    let tr = match self.exchange(idx, "PING") {
                        Ok(_) => breaker.record_success(),
                        Err(()) => breaker.record_failure(),
                    };
                    self.note_transition(tr);
                }
            }
            if breaker.state() != BreakerState::Closed {
                open += 1;
            }
        }
        open
    }

    /// Probe one backend (connect + `PING`), updating its up mark.
    fn probe(&self, idx: usize) {
        let injected_down = failpoint::hit(CHAOS_PROBE_FAIL).is_some();
        let mut cfg = self.cfg.client.clone();
        cfg.read_timeout = Duration::from_secs(2);
        let ok = !injected_down
            && NetClient::connect_with(self.backends[idx].addr, &cfg)
                .and_then(|mut c| c.ping())
                .is_ok();
        if !ok {
            self.metrics.probe_failures.inc();
        }
        self.set_up(idx, ok);
    }
}

impl WireHandler for GatewayCore {
    fn handle_wire(&self, line: &str) -> WireResponse {
        let req = match cote_net::parse_request(line) {
            Ok(req) => req,
            Err(e) => return WireResponse::Err(e),
        };
        match GatewayCore::routing_key(&req) {
            // Forward the original frame verbatim: the gateway re-parses
            // nothing it doesn't have to, and backends see byte-identical
            // requests whether or not a gateway sits in front.
            Some(key) => self.forward(&key, line),
            None => match req {
                WireRequest::Ping => WireResponse::Ok("pong".into()),
                WireRequest::Outcome { .. } => {
                    WireResponse::Err("not routable through the gateway".into())
                }
                _ => WireResponse::Ok(self.registry.json()),
            },
        }
    }

    fn handle_http(&self, req: &HttpRequest) -> String {
        let path = req.path.split('?').next().unwrap_or("");
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => cote_net::http::render_response(200, "text/plain", "ok\n"),
            ("GET", "/metrics") => cote_net::http::render_response(
                200,
                "text/plain; version=0.0.4",
                &self.registry.prometheus_text(),
            ),
            ("POST", "/estimate") => match http_body_to_wire(&req.body) {
                // The wire grammar carries the class inline for index
                // requests; for SQL it has no slot, so an explicit class
                // is dropped at the gateway hop (documented limitation).
                Ok((wire, _)) => match GatewayCore::routing_key(&wire) {
                    Some(key) => wire_to_http(&self.forward(&key, &wire.render())),
                    None => wire_to_http(&WireResponse::Err("not routable".into())),
                },
                Err(rendered_400) => rendered_400,
            },
            ("GET", _) => cote_net::http::render_response(404, "text/plain", "not found\n"),
            _ => cote_net::http::render_response(405, "text/plain", "method not allowed\n"),
        }
    }
}

/// A running gateway: the routable core plus its health-probe thread.
pub struct Gateway {
    core: Arc<GatewayCore>,
    stop: Arc<AtomicBool>,
    prober: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Build the ring and start probing. (Serving is separate: hand
    /// [`Gateway::handler`] to a `cote-net` front-end.)
    pub fn start(cfg: GatewayConfig) -> Gateway {
        let core = Arc::new(GatewayCore::new(cfg));
        let stop = Arc::new(AtomicBool::new(false));
        let prober = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let scope = failpoint::thread_scope();
            std::thread::Builder::new()
                .name("cote-gw-probe".into())
                .spawn(move || {
                    failpoint::set_thread_scope(&scope);
                    // Probe-interval jitter draws from its own seeded
                    // stream (offset so it can't replay the backoff RNG's
                    // sequence). A fixed interval synchronizes probes
                    // across a fleet of gateways — every backend then sees
                    // a coordinated PING burst each cycle.
                    let mut rng = Xoshiro256pp::new(core.cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
                    let jitter = core.cfg.probe_jitter.clamp(0.0, 1.0);
                    // First sweep immediately: optimistic marks get
                    // corrected before real traffic piles up.
                    loop {
                        for idx in 0..core.backends.len() {
                            if stop.load(Ordering::Acquire) {
                                return;
                            }
                            core.probe(idx);
                        }
                        core.heal_breakers();
                        let base = core.cfg.probe_interval;
                        let factor = 1.0 + jitter * (2.0 * rng.unit_f64() - 1.0);
                        let interval = Duration::from_secs_f64(base.as_secs_f64() * factor);
                        let t0 = Instant::now();
                        while t0.elapsed() < interval {
                            if stop.load(Ordering::Acquire) {
                                return;
                            }
                            std::thread::sleep(Duration::from_millis(25));
                        }
                    }
                })
                .expect("spawn gateway prober")
        };
        Gateway {
            core,
            stop,
            prober: Some(prober),
        }
    }

    /// The routable core, for `NetServer::start_with`.
    pub fn handler(&self) -> Arc<GatewayCore> {
        Arc::clone(&self.core)
    }

    /// The gateway's registry (bind front-ends against this).
    pub fn registry(&self) -> &Registry {
        self.core.registry()
    }

    /// Gateway instruments.
    pub fn metrics(&self) -> &GatewayMetrics {
        self.core.metrics()
    }

    /// Backends currently probed up.
    pub fn backends_up(&self) -> usize {
        self.core.backends_up()
    }

    /// Stop the prober. (Front-ends are shut down by their owner.)
    pub fn shutdown(mut self) {
        self.stop_impl();
    }

    fn stop_impl(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(p) = self.prober.take() {
            let _ = p.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop_impl();
    }
}
