//! Gateway hardening under faults: the circuit-breaker lifecycle against a
//! misbehaving backend, pooled-connection staleness after a backend
//! restart, the per-request retry budget, and probe flapping via the
//! `gw.probe.fail` failpoint.
//!
//! Backends here are hand-rolled socket stubs (not `NetServer`) so a test
//! can close a specific accepted connection at a specific protocol moment
//! — the one thing a real front-end never offers.

use cote_gateway::{BreakerState, Gateway, GatewayConfig, RetryPolicy};
use cote_net::{NetClientConfig, WireHandler, WireResponse};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a stub connection treats a non-`PING` request line.
#[derive(Clone, Copy, Debug, PartialEq)]
enum StubBehavior {
    /// Answer `OK` and keep the connection open.
    Answer,
    /// Answer `OK`, then close the connection — models a backend that
    /// restarts (or idle-closes) between two pooled requests.
    AnswerThenClose,
    /// Close without answering — a transport failure mid-exchange.
    Drop,
}

/// Thread-per-connection line-protocol stub. `PING` is always answered
/// (the backend looks probe-healthy no matter how it treats requests);
/// everything else follows the current [`StubBehavior`].
struct Stub {
    addr: SocketAddr,
    fail: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    behavior_ok: StubBehavior,
    behavior_fail: StubBehavior,
}

impl Stub {
    fn start(behavior_ok: StubBehavior, behavior_fail: StubBehavior) -> Arc<Stub> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stub = Arc::new(Stub {
            addr,
            fail: Arc::new(AtomicBool::new(false)),
            stop: Arc::new(AtomicBool::new(false)),
            behavior_ok,
            behavior_fail,
        });
        let accept = Arc::clone(&stub);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept.stop.load(Ordering::Acquire) {
                    return;
                }
                let Ok(stream) = conn else { continue };
                let per_conn = Arc::clone(&accept);
                std::thread::spawn(move || per_conn.serve(stream));
            }
        });
        stub
    }

    fn serve(&self, stream: TcpStream) {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            let line = line.trim_end();
            if line == "PING" {
                if writer.write_all(b"OK pong\n").is_err() {
                    return;
                }
                continue;
            }
            let behavior = if self.fail.load(Ordering::Acquire) {
                self.behavior_fail
            } else {
                self.behavior_ok
            };
            match behavior {
                StubBehavior::Drop => return,
                answer => {
                    if writer.write_all(b"OK {\"from\":\"stub\"}\n").is_err() {
                        return;
                    }
                    if answer == StubBehavior::AnswerThenClose {
                        return;
                    }
                }
            }
        }
    }

    fn set_fail(&self, fail: bool) {
        self.fail.store(fail, Ordering::Release);
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr); // unblock the accept loop
    }
}

fn quick_client() -> NetClientConfig {
    NetClientConfig {
        connect_timeout: Duration::from_millis(250),
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        ..Default::default()
    }
}

fn wait_backends_up(gw: &Gateway, want: usize) {
    let t0 = Instant::now();
    while gw.backends_up() != want {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "backends_up stuck at {} (want {want})",
            gw.backends_up()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The full breaker lifecycle against a single backend that starts
/// dropping connections: Closed → Open at the failure threshold (requests
/// then shed instantly, no connect timeout paid) → HalfOpen trial after
/// the cooldown → Closed once the backend behaves — each transition
/// counted exactly once on the `cote_gateway_breaker_*` instruments.
#[test]
fn breaker_opens_at_threshold_and_heals_through_half_open() {
    let stub = Stub::start(StubBehavior::Answer, StubBehavior::Drop);
    let gw = Gateway::start(GatewayConfig {
        backends: vec![stub.addr],
        probe_interval: Duration::from_millis(50),
        client: quick_client(),
        pool_per_backend: 0,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(1),
        ..Default::default()
    });
    let core = gw.handler();
    wait_backends_up(&gw, 1);
    assert!(matches!(
        core.handle_wire("ESTIMATE 1"),
        WireResponse::Ok(_)
    ));

    // Two transport failures trip the threshold. Each failure also marks
    // the backend down; the prober revives it (PING still answers) before
    // the next request, so the second failure is a routed request, not a
    // skipped one.
    stub.set_fail(true);
    assert!(matches!(
        core.handle_wire("ESTIMATE 1"),
        WireResponse::Busy(_)
    ));
    assert_eq!(core.breaker_state(0), BreakerState::Closed);
    wait_backends_up(&gw, 1);
    assert!(matches!(
        core.handle_wire("ESTIMATE 1"),
        WireResponse::Busy(_)
    ));
    assert_eq!(core.breaker_state(0), BreakerState::Open);
    assert_eq!(gw.metrics().breaker_opened.get(), 1);
    assert_eq!(gw.metrics().breakers_open.get(), 1);

    // While open (cooldown 1s), requests shed instantly — the breaker
    // refuses before any connect is attempted.
    let t0 = Instant::now();
    assert!(matches!(
        core.handle_wire("ESTIMATE 1"),
        WireResponse::Busy(_)
    ));
    assert!(
        t0.elapsed() < Duration::from_millis(100),
        "open breaker paid a timeout"
    );

    // Backend recovers; the prober's heal pass half-opens the breaker
    // after the cooldown, trials a PING, and closes it.
    stub.set_fail(false);
    let t0 = Instant::now();
    while core.breaker_state(0) != BreakerState::Closed {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "breaker never closed"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(gw.metrics().breaker_opened.get(), 1);
    assert_eq!(gw.metrics().breaker_half_open.get(), 1);
    assert_eq!(gw.metrics().breaker_closed.get(), 1);
    assert_eq!(gw.metrics().breakers_open.get(), 0);
    wait_backends_up(&gw, 1);
    assert!(matches!(
        core.handle_wire("ESTIMATE 1"),
        WireResponse::Ok(_)
    ));

    // The breaker lifecycle is on the exposition for scrapes.
    let text = gw.registry().prometheus_text();
    for name in [
        "cote_gateway_breaker_opened_total 1",
        "cote_gateway_breaker_half_open_total 1",
        "cote_gateway_breaker_closed_total 1",
        "cote_gateway_breakers_open 0",
    ] {
        assert!(text.contains(name), "missing `{name}` in:\n{text}");
    }

    gw.shutdown();
    stub.shutdown();
}

/// A backend restart between two pooled requests: the first request pools
/// a connection, the stub closes it server-side, and the second request
/// must detect the stale socket and retry on a fresh connection — exactly
/// once, with no failover and no upstream error recorded.
#[test]
fn stale_pooled_connection_retries_once_on_fresh_socket() {
    let stub = Stub::start(StubBehavior::AnswerThenClose, StubBehavior::Drop);
    let gw = Gateway::start(GatewayConfig {
        backends: vec![stub.addr],
        // One immediate sweep marks the backend up; after that the prober
        // stays out of the way for the whole test.
        probe_interval: Duration::from_secs(60),
        client: quick_client(),
        pool_per_backend: 16,
        ..Default::default()
    });
    let core = gw.handler();
    wait_backends_up(&gw, 1);

    // Request 1: fresh connection, answered, then pooled — and promptly
    // closed server-side ("restart").
    assert!(matches!(
        core.handle_wire("ESTIMATE 1"),
        WireResponse::Ok(_)
    ));
    assert_eq!(gw.metrics().pooled_conns.get(), 1);

    // Request 2: the pooled socket is dead. One stale retry on a fresh
    // connection, invisible to the caller.
    assert!(matches!(
        core.handle_wire("ESTIMATE 1"),
        WireResponse::Ok(_)
    ));
    assert_eq!(
        gw.metrics().stale_retries.get(),
        1,
        "exactly one stale retry"
    );
    assert_eq!(
        gw.metrics().failovers.get(),
        0,
        "staleness is not a failover"
    );
    assert_eq!(
        gw.metrics().upstream_errors.get(),
        0,
        "nor an upstream error"
    );

    gw.shutdown();
    stub.shutdown();
}

/// Both backends fail and backoffs are configured longer than the
/// per-request budget: the request stops after one failover check, charges
/// `retry_budget_exhausted`, and degrades to `BUSY retry budget` — its
/// wait is bounded by the budget, not by the number of dead backends.
#[test]
fn retry_budget_bounds_the_failover_dance() {
    let a = Stub::start(StubBehavior::Drop, StubBehavior::Drop);
    let b = Stub::start(StubBehavior::Drop, StubBehavior::Drop);
    let gw = Gateway::start(GatewayConfig {
        backends: vec![a.addr, b.addr],
        probe_interval: Duration::from_secs(60),
        client: quick_client(),
        pool_per_backend: 0,
        breaker_threshold: 100, // keep breakers out of this test
        retry: RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(500),
            max_backoff: Duration::from_millis(500),
            jitter: 0.0,
            budget: Duration::from_millis(100),
        },
        ..Default::default()
    });
    let core = gw.handler();
    wait_backends_up(&gw, 2);

    let t0 = Instant::now();
    match core.handle_wire("ESTIMATE 1") {
        WireResponse::Busy(reason) => assert_eq!(reason, "retry budget"),
        other => panic!("expected BUSY retry budget, got {other:?}"),
    }
    // First attempt failed, the 500ms backoff would blow the 100ms budget,
    // so the second attempt was never taken (and never slept for).
    assert!(
        t0.elapsed() < Duration::from_millis(400),
        "{:?}",
        t0.elapsed()
    );
    assert_eq!(gw.metrics().retry_budget_exhausted.get(), 1);
    assert_eq!(gw.metrics().upstream_errors.get(), 1, "one real attempt");

    gw.shutdown();
    a.shutdown();
    b.shutdown();
}

/// The `gw.probe.fail` failpoint flaps the prober: a healthy backend is
/// marked down while the fault budget lasts and re-marked up on the next
/// clean sweep — the up-mask reacts, the breaker (transport-level) does
/// not.
#[test]
fn injected_probe_failures_flap_the_up_mask() {
    use cote_common::failpoint::{self, FaultAction, FaultSpec};

    const SCOPE: &str = "gw-flap";
    failpoint::arm(23);
    failpoint::configure(
        cote_gateway::CHAOS_PROBE_FAIL,
        FaultSpec::first_n(FaultAction::Err, 3).scoped(SCOPE),
    );

    let stub = Stub::start(StubBehavior::Answer, StubBehavior::Answer);
    failpoint::set_thread_scope(SCOPE); // the prober thread inherits this
    let gw = Gateway::start(GatewayConfig {
        backends: vec![stub.addr],
        probe_interval: Duration::from_millis(30),
        client: quick_client(),
        pool_per_backend: 0,
        ..Default::default()
    });
    failpoint::set_thread_scope("");

    // The first sweeps burn the injected failures: the backend shows down.
    wait_backends_up(&gw, 0);
    // Budget spent: the next sweep sees the truth again.
    wait_backends_up(&gw, 1);
    assert!(gw.metrics().probe_failures.get() >= 3);
    assert_eq!(
        gw.metrics().breaker_opened.get(),
        0,
        "probes never touch breakers"
    );
    let core = gw.handler();
    assert!(matches!(
        core.handle_wire("ESTIMATE 1"),
        WireResponse::Ok(_)
    ));

    failpoint::disarm();
    gw.shutdown();
    stub.shutdown();
}
