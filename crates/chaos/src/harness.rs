//! The chaos harness: build a real cluster, record an oracle, inject a
//! scenario, assert the invariants, print a replayable report.
//!
//! One run is four passes over the same serial, absolutely-paced request
//! schedule (requests are issued at `start + i·pace`, so a slow response
//! doesn't shift later issue times — open-loop pacing with serial issuance
//! for determinism):
//!
//! 1. **Warm** — every query is estimated once *directly* against each
//!    backend, so both statement caches are hot. Failover may answer from
//!    either backend; warming both is what makes "byte-identical to the
//!    oracle" a fair invariant (the `cached` flag can't differ).
//! 2. **Oracle** — the schedule runs through the gateway with the registry
//!    disarmed; each `OK` payload (normalized: `elapsed_us` zeroed) is the
//!    expected answer for that schedule slot.
//! 3. **Phase A (faulted)** — the registry is armed with the seed, the
//!    scenario's plan is installed, and the schedule's head replays under
//!    fire.
//! 4. **Phase B (recovery)** — the plan is disabled (the fault condition
//!    clears), the breaker cooldown elapses, and the schedule's tail
//!    verifies the tier healed: breakers close, answers match the oracle
//!    again.
//!
//! The report's fingerprint hashes only request-driven state — per-site
//! hit/fire counts, breaker transition totals, outcome counts — never
//! latencies or thread timing, so two runs with one seed fingerprint
//! identically on any machine.

use crate::scenario::{Scenario, SCOPE_BACKEND, SCOPE_GATEWAY};
use cote::{Cote, TimeModel};
use cote_catalog::{Catalog, ColumnDef, TableDef};
use cote_common::failpoint::{self, FaultSpec, FireMode, SiteStats};
use cote_common::fxhash::fxhash64;
use cote_common::{ColRef, TableId, TableRef};
use cote_gateway::{BreakerState, Gateway, GatewayConfig, GatewayCore};
use cote_net::{
    NetClient, NetClientConfig, NetConfig, NetServer, ServiceHandler, WireRequest, WireResponse,
};
use cote_optimizer::{Mode as OptMode, OptimizerConfig};
use cote_query::{Query, QueryBlockBuilder};
use cote_service::{CoteService, ServiceConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Harness knobs. Defaults are sized for a CI smoke run (a few seconds per
/// scenario); only `seed` and `scenario` usually vary.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for every fault decision (and the gateway's jitter streams).
    pub seed: u64,
    /// Which fault plan to install.
    pub scenario: Scenario,
    /// Faulted requests (phase A).
    pub requests: usize,
    /// Recovery requests (phase B, after the plan is disabled).
    pub recovery_requests: usize,
    /// Issue grid spacing: request `i` is issued at `start + i·pace`.
    pub pace: Duration,
}

impl ChaosConfig {
    /// The CI-sized default shape for `seed` × `scenario`.
    pub fn new(seed: u64, scenario: Scenario) -> Self {
        Self {
            seed,
            scenario,
            requests: 40,
            recovery_requests: 12,
            pace: Duration::from_millis(3),
        }
    }
}

/// Per-request wall-clock bound: the gateway's retry budget (1s) plus the
/// largest injected delay chain, with slack. Anything slower is a hung
/// request — invariant 1.
const LATENCY_BOUND: Duration = Duration::from_secs(2);
/// Breaker cooldown used by the harness gateway; the recovery sleep must
/// exceed it so phase B finds breakers willing to half-open.
const BREAKER_COOLDOWN: Duration = Duration::from_millis(400);

/// What one scheduled request produced.
enum Outcome {
    /// `OK` with the normalized payload.
    Ok(String),
    /// Explicit `BUSY <reason>` — allowed under fault injection.
    Busy,
    /// Explicit `ERR` or a client-side transport error — allowed, counted.
    Err,
}

/// Everything a run observed, plus the verdict.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Scenario that ran.
    pub scenario: Scenario,
    /// Seed that replays it.
    pub seed: u64,
    /// Requests issued across phases A and B.
    pub issued: u64,
    /// `OK` answers (all verified against the oracle).
    pub ok: u64,
    /// Explicit `BUSY` answers.
    pub busy: u64,
    /// Explicit errors (wire `ERR` or client transport failure).
    pub err: u64,
    /// Slowest request observed.
    pub max_latency: Duration,
    /// The hung-request bound `max_latency` is checked against.
    pub latency_bound: Duration,
    /// Phase-A hit/fire counters per configured site (the fingerprint's
    /// main input).
    pub fault_stats: Vec<SiteStats>,
    /// Breaker open transitions (includes reopens).
    pub breaker_opened: u64,
    /// Breaker half-open transitions.
    pub breaker_half_open: u64,
    /// Breaker close transitions.
    pub breaker_closed: u64,
    /// Breakers not Closed at the end of the run (must be 0).
    pub breakers_open_now: i64,
    /// Final queue depth per backend (must all be 0).
    pub queue_depths: Vec<usize>,
    /// Invariant violations, human-readable. Empty means the run passed.
    pub violations: Vec<String>,
    /// Deterministic digest of the run's request-driven state.
    pub fingerprint: u64,
}

impl ChaosReport {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The greppable multi-line report (stable line shapes; CI greps
    /// `invariant violations: 0` and the `breaker:` line).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos scenario {} seed {}\n",
            self.scenario, self.seed
        ));
        out.push_str(&format!(
            "requests: issued {} ok {} busy {} err {}\n",
            self.issued, self.ok, self.busy, self.err
        ));
        out.push_str(&format!(
            "latency: max {:?} (bound {:?})\n",
            self.max_latency, self.latency_bound
        ));
        let hits = self
            .fault_stats
            .iter()
            .map(|s| format!("{}={}/{}", s.site, s.hits, s.fires))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!("fault-hits: {hits}\n"));
        out.push_str(&format!(
            "breaker: opened={} half_open={} closed={} open_now={}\n",
            self.breaker_opened,
            self.breaker_half_open,
            self.breaker_closed,
            self.breakers_open_now
        ));
        let queues = self
            .queue_depths
            .iter()
            .enumerate()
            .map(|(i, d)| format!("backend{i}={d}"))
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!("queues: {queues}\n"));
        for v in &self.violations {
            out.push_str(&format!("invariant violation: {v}\n"));
        }
        out.push_str(&format!(
            "invariant violations: {}\n",
            self.violations.len()
        ));
        out.push_str(&format!("chaos fingerprint: {:#018x}\n", self.fingerprint));
        out
    }
}

/// The loopback fixture: six base tables, five chain-join queries
/// (`chain2`..`chain6`) — enough key diversity to spread across the ring
/// and exercise failover in both directions.
fn fixture() -> (Catalog, Vec<Query>) {
    let mut b = Catalog::builder();
    for i in 0..6 {
        b.add_table(TableDef::new(
            format!("t{i}"),
            1000.0 + 100.0 * i as f64,
            vec![
                ColumnDef::uniform("c0", 1000.0, 1000.0),
                ColumnDef::uniform("c1", 1000.0, 25.0),
            ],
        ));
    }
    let cat = b.build().expect("fixture catalog");
    let queries = (2..=6)
        .map(|n| {
            let mut qb = QueryBlockBuilder::new();
            for i in 0..n {
                qb.add_table(TableId(i));
            }
            for i in 0..n - 1 {
                qb.join(
                    ColRef::new(TableRef(i as u8), 0),
                    ColRef::new(TableRef(i as u8 + 1), 0),
                );
            }
            Query::new(format!("chain{n}"), qb.build(&cat).expect("fixture query"))
        })
        .collect();
    (cat, queries)
}

fn cote() -> Cote {
    Cote::new(
        OptimizerConfig::high(OptMode::Serial),
        TimeModel {
            c_nljn: 1e-6,
            c_mgjn: 1e-6,
            c_hsjn: 1e-6,
            intercept: 0.0,
        },
    )
}

fn backend_service_cfg() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        shards: 4,
        cache_capacity: 64,
        queue_capacity: 64,
        max_inflight: 0,
        degrade_queue_depth: 64,
        deadline: Duration::from_secs(5),
        ..Default::default()
    }
}

fn client_cfg() -> NetClientConfig {
    NetClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..Default::default()
    }
}

/// One backend: its service (for queue gauges) and its front-end.
struct BackendNode {
    svc: Arc<CoteService>,
    server: NetServer,
}

struct Cluster {
    backends: Vec<BackendNode>,
    gateway: Gateway,
    core: Arc<GatewayCore>,
    front: NetServer,
    front_addr: SocketAddr,
    n_queries: usize,
}

impl Cluster {
    /// Build 2 backends (scope "backend") and a gateway (scope
    /// "gateway"). Pooling is disabled on the
    /// gateway so fault-hit counts can't depend on pool state; pooled-conn
    /// staleness has its own pinned test in `cote-gateway`.
    fn start(seed: u64) -> Result<Cluster, String> {
        let (cat, queries) = fixture();
        let n_queries = queries.len();
        let queries = Arc::new(queries);

        failpoint::set_thread_scope(SCOPE_BACKEND);
        let mut backends = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..2 {
            let svc = Arc::new(CoteService::start(
                cat.clone(),
                cote(),
                backend_service_cfg(),
            ));
            let server = NetServer::bind(
                Arc::new(ServiceHandler::new(Arc::clone(&svc), Arc::clone(&queries))),
                "127.0.0.1:0",
                NetConfig::default(),
            )
            .map_err(|e| format!("bind backend: {e}"))?;
            addrs.push(server.local_addr());
            backends.push(BackendNode { svc, server });
        }

        failpoint::set_thread_scope(SCOPE_GATEWAY);
        let gcfg = GatewayConfig {
            backends: addrs,
            probe_interval: Duration::from_millis(100),
            client: NetClientConfig {
                connect_timeout: Duration::from_millis(250),
                read_timeout: Duration::from_secs(2),
                write_timeout: Duration::from_secs(2),
                ..Default::default()
            },
            pool_per_backend: 0,
            breaker_cooldown: BREAKER_COOLDOWN,
            seed,
            ..Default::default()
        };
        let gateway = Gateway::start(gcfg);
        let core = gateway.handler();
        let listener = std::net::TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("bind gateway front: {e}"))?;
        let front = NetServer::start_with(
            gateway.handler(),
            gateway.registry(),
            listener,
            NetConfig::default(),
        )
        .map_err(|e| format!("start gateway front: {e}"))?;
        failpoint::set_thread_scope("");

        let front_addr = front.local_addr();
        Ok(Cluster {
            backends,
            gateway,
            core,
            front,
            front_addr,
            n_queries,
        })
    }

    /// Block until the prober marks both backends up (fresh clusters start
    /// optimistic, but the schedule must not race the first sweep).
    fn wait_backends_up(&self) {
        let t0 = Instant::now();
        while self.gateway.backends_up() < self.backends.len()
            && t0.elapsed() < Duration::from_secs(2)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn shutdown(self) {
        let Cluster {
            backends,
            gateway,
            core: _,
            front,
            ..
        } = self;
        front.shutdown();
        gateway.shutdown();
        for node in backends {
            node.server.shutdown();
            node.svc.drain(Duration::from_secs(2));
        }
    }
}

/// Zero the `elapsed_us` timing field so payload comparison is
/// byte-identity over everything deterministic.
fn normalize(payload: &str) -> String {
    const KEY: &str = "\"elapsed_us\":";
    let mut out = String::with_capacity(payload.len());
    let mut rest = payload;
    while let Some(pos) = rest.find(KEY) {
        let after = pos + KEY.len();
        out.push_str(&rest[..after]);
        let tail = &rest[after..];
        let digits = tail.bytes().take_while(|b| b.is_ascii_digit()).count();
        out.push('0');
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// The request at schedule slot `i` (queries cycle; indices are 1-based on
/// the wire).
fn request_at(i: usize, n_queries: usize) -> WireRequest {
    WireRequest::Estimate {
        index: (i % n_queries) + 1,
        class: None,
    }
}

/// Run `total` schedule slots starting at `first_slot` against the
/// gateway, serially on the absolute pace grid. Returns one outcome and
/// latency per slot. Client transport errors reconnect for the next slot
/// (the gateway front is never faulted; this is plain hygiene).
fn run_schedule(
    cluster: &Cluster,
    first_slot: usize,
    total: usize,
    pace: Duration,
) -> Result<Vec<(Outcome, Duration)>, String> {
    let mut conn = NetClient::connect_with(cluster.front_addr, &client_cfg())
        .map_err(|e| format!("connect gateway: {e}"))?;
    let mut out = Vec::with_capacity(total);
    let start = Instant::now();
    for i in 0..total {
        let target = pace * i as u32;
        let now = start.elapsed();
        if now < target {
            std::thread::sleep(target - now);
        }
        // A transport failure may have marked a backend down; wait for the
        // prober to revive it so each slot sees the same up-mask on every
        // run (the wait costs time, never determinism).
        cluster.wait_backends_up();
        let req = request_at(first_slot + i, cluster.n_queries);
        let t0 = Instant::now();
        let outcome = match conn.request(&req) {
            Ok(WireResponse::Ok(payload)) => Outcome::Ok(normalize(&payload)),
            Ok(WireResponse::Busy(_)) => Outcome::Busy,
            Ok(WireResponse::Err(_)) => Outcome::Err,
            Err(_) => {
                conn = NetClient::connect_with(cluster.front_addr, &client_cfg())
                    .map_err(|e| format!("reconnect gateway: {e}"))?;
                Outcome::Err
            }
        };
        out.push((outcome, t0.elapsed()));
    }
    Ok(out)
}

/// Estimate every query once directly against each backend so both
/// statement caches are hot before the oracle is recorded.
fn warm_backends(cluster: &Cluster) -> Result<(), String> {
    for node in &cluster.backends {
        let mut conn = NetClient::connect_with(node.server.local_addr(), &client_cfg())
            .map_err(|e| format!("warm connect: {e}"))?;
        for i in 0..cluster.n_queries {
            match conn.request(&request_at(i, cluster.n_queries)) {
                Ok(WireResponse::Ok(_)) => {}
                other => return Err(format!("warm request {i}: unexpected {other:?}")),
            }
        }
    }
    Ok(())
}

/// Run one scenario end to end. Errors are harness failures (cannot bind,
/// oracle not clean); invariant *violations* are data, reported in the
/// returned [`ChaosReport`].
pub fn run(cfg: &ChaosConfig) -> Result<ChaosReport, String> {
    failpoint::disarm();
    failpoint::clear();

    let cluster = Cluster::start(cfg.seed)?;
    cluster.wait_backends_up();
    warm_backends(&cluster)?;

    let total = cfg.requests + cfg.recovery_requests;
    // Oracle: the same schedule, fault-free. Every slot must answer OK.
    let oracle: Vec<String> = run_schedule(&cluster, 0, total, cfg.pace)?
        .into_iter()
        .enumerate()
        .map(|(i, (o, _))| match o {
            Outcome::Ok(payload) => Ok(payload),
            _ => Err(format!("oracle slot {i} did not answer OK")),
        })
        .collect::<Result<_, _>>()?;

    // Phase A: arm, install the plan, replay the schedule head under fire.
    failpoint::arm(cfg.seed);
    let plan = cfg.scenario.plan();
    for (site, spec) in &plan {
        failpoint::configure(site, spec.clone());
    }
    let mut observed = run_schedule(&cluster, 0, cfg.requests, cfg.pace)?;

    // The fault condition clears: snapshot phase-A counters (the
    // fingerprint input), then disable every site.
    let fault_stats = failpoint::snapshot();
    for (site, spec) in &plan {
        let disabled = FaultSpec {
            action: spec.action,
            mode: FireMode::FirstN(0),
            scope: spec.scope.clone(),
        };
        failpoint::configure(site, disabled);
    }

    // Recovery: let the breaker cooldown elapse (the prober's heal pass
    // half-opens and closes idle breakers), then replay the tail.
    std::thread::sleep(BREAKER_COOLDOWN + Duration::from_millis(300));
    observed.extend(run_schedule(
        &cluster,
        cfg.requests,
        cfg.recovery_requests,
        cfg.pace,
    )?);
    failpoint::disarm();

    // Quiesce: queues must drain and every breaker must close.
    let t0 = Instant::now();
    loop {
        let queues_idle = cluster
            .backends
            .iter()
            .all(|n| n.svc.queue_len() == 0 && n.svc.inflight() == 0);
        let breakers_closed = (0..cluster.backends.len())
            .all(|i| cluster.core.breaker_state(i) == BreakerState::Closed);
        if queues_idle && breakers_closed || t0.elapsed() > Duration::from_secs(3) {
            break;
        }
        cluster.core.heal_breakers();
        std::thread::sleep(Duration::from_millis(20));
    }

    // Collect and judge.
    let mut violations = Vec::new();
    let (mut ok, mut busy, mut err) = (0u64, 0u64, 0u64);
    let mut max_latency = Duration::ZERO;
    for (i, (outcome, latency)) in observed.iter().enumerate() {
        max_latency = max_latency.max(*latency);
        if *latency > LATENCY_BOUND {
            violations.push(format!(
                "request {i} took {latency:?}, past the {LATENCY_BOUND:?} bound"
            ));
        }
        match outcome {
            Outcome::Ok(payload) => {
                ok += 1;
                if *payload != oracle[i] {
                    violations.push(format!(
                        "request {i} answered OK but differs from the oracle"
                    ));
                }
            }
            Outcome::Busy => busy += 1,
            Outcome::Err => err += 1,
        }
    }

    let queue_depths: Vec<usize> = cluster.backends.iter().map(|n| n.svc.queue_len()).collect();
    for (i, d) in queue_depths.iter().enumerate() {
        if *d != 0 {
            violations.push(format!("backend {i} queue depth {d} after drain"));
        }
    }

    let gm = cluster.gateway.metrics();
    let (opened, half_open, closed) = (
        gm.breaker_opened.get(),
        gm.breaker_half_open.get(),
        gm.breaker_closed.get(),
    );
    let open_now = gm.breakers_open.get();
    if open_now != 0 {
        violations.push(format!("{open_now} breaker(s) still open at end of run"));
    }
    if opened != closed {
        violations.push(format!(
            "breaker transitions unbalanced: opened {opened}, closed {closed}"
        ));
    }
    if cfg.scenario.expects_breaker_cycle() {
        if opened == 0 || half_open == 0 {
            violations.push(format!(
                "scenario {} must cycle breakers (opened {opened}, half_open {half_open})",
                cfg.scenario
            ));
        }
    } else if opened != 0 {
        violations.push(format!(
            "scenario {} must not trip breakers (opened {opened})",
            cfg.scenario
        ));
    }

    // Fingerprint: request-driven state only.
    let mut digest = format!("{}:{}", cfg.scenario, cfg.seed);
    let mut stats = fault_stats.clone();
    stats.sort_by(|a, b| a.site.cmp(&b.site));
    for s in &stats {
        digest.push_str(&format!("|{}:{}:{}", s.site, s.hits, s.fires));
    }
    digest.push_str(&format!(
        "|ok:{ok}|busy:{busy}|err:{err}|br:{opened}:{half_open}:{closed}"
    ));
    let fingerprint = fxhash64(digest.as_bytes());

    failpoint::clear();
    cluster.shutdown();

    Ok(ChaosReport {
        scenario: cfg.scenario,
        seed: cfg.seed,
        issued: total as u64,
        ok,
        busy,
        err,
        max_latency,
        latency_bound: LATENCY_BOUND,
        fault_stats: stats,
        breaker_opened: opened,
        breaker_half_open: half_open,
        breaker_closed: closed,
        breakers_open_now: open_now,
        queue_depths,
        violations,
        fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_zeroes_elapsed_us_only() {
        let raw = r#"{"query":"chain2","elapsed_us":1234,"cached":true}"#;
        assert_eq!(
            normalize(raw),
            r#"{"query":"chain2","elapsed_us":0,"cached":true}"#
        );
        // Untouched when the key is absent.
        assert_eq!(normalize("BUSY queue"), "BUSY queue");
    }

    #[test]
    fn schedule_cycles_one_based_indices() {
        for i in 0..10 {
            match request_at(i, 5) {
                WireRequest::Estimate { index, class } => {
                    assert_eq!(index, (i % 5) + 1);
                    assert!(class.is_none());
                }
                other => panic!("unexpected request {other:?}"),
            }
        }
    }
}
