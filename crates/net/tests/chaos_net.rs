//! Fault-injection tests for the network front-end: injected partial
//! writes, truncated frames (wire and mid-HTTP), and read/accept resets.
//!
//! The failpoint registry is process-global, so tests serialize on a
//! static mutex and scope their specs to a per-test label: a concurrently
//! running unscoped test thread can neither fire nor count these sites.

use cote::{Cote, TimeModel};
use cote_catalog::{Catalog, ColumnDef, TableDef};
use cote_common::failpoint::{self, FaultAction, FaultSpec};
use cote_common::{ColRef, TableId, TableRef};
use cote_net::proto::json_extract_str;
use cote_net::{
    chaos, NetClient, NetClientConfig, NetConfig, NetServer, ServiceHandler, WireResponse,
};
use cote_optimizer::{Mode as OptMode, OptimizerConfig};
use cote_query::{Query, QueryBlockBuilder};
use cote_service::{CoteService, QueryClass, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// One registry user at a time; a panicked holder must not wedge the rest.
static REGISTRY: Mutex<()> = Mutex::new(());

fn registry_lock() -> MutexGuard<'static, ()> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

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
    let cat = b.build().unwrap();
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
            Query::new(format!("chain{n}"), qb.build(&cat).unwrap())
        })
        .collect();
    (cat, queries)
}

fn service() -> (Arc<CoteService>, Arc<Vec<Query>>) {
    let (cat, queries) = fixture();
    let cote = Cote::new(
        OptimizerConfig::high(OptMode::Serial),
        TimeModel {
            c_nljn: 1e-6,
            c_mgjn: 1e-6,
            c_hsjn: 1e-6,
            c_join: 0.0,
            intercept: 0.0,
        },
    );
    let cfg = ServiceConfig {
        workers: 2,
        shards: 4,
        cache_capacity: 64,
        queue_capacity: 64,
        max_inflight: 0,
        degrade_queue_depth: 64,
        deadline: Duration::from_secs(5),
        ..Default::default()
    };
    (
        Arc::new(CoteService::start(cat, cote, cfg)),
        Arc::new(queries),
    )
}

fn client_cfg() -> NetClientConfig {
    NetClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..Default::default()
    }
}

/// Bind with the test's scope label on the constructing thread so the
/// server's accept and loop threads inherit it.
fn bind_scoped(svc: &Arc<CoteService>, queries: &Arc<Vec<Query>>, scope: &str) -> NetServer {
    failpoint::set_thread_scope(scope);
    let handler = Arc::new(ServiceHandler::new(Arc::clone(svc), Arc::clone(queries)));
    let server = NetServer::bind(handler, "127.0.0.1:0", NetConfig::default()).unwrap();
    failpoint::set_thread_scope("");
    server
}

fn fires(site: &str) -> u64 {
    failpoint::snapshot()
        .into_iter()
        .find(|s| s.site == site)
        .map(|s| s.fires)
        .unwrap_or(0)
}

/// One HTTP exchange on a fresh connection, reading to EOF.
fn http_exchange(addr: SocketAddr, request: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(request.as_bytes()).unwrap();
    let mut out = String::new();
    let _ = s.read_to_string(&mut out); // truncated responses EOF mid-read
    out
}

/// Every response is delivered as a split frame (one byte, a gap, the
/// rest). Concurrent clients must still each see intact, in-order JSON —
/// any cross-connection interleaving or frame reuse would garble it.
#[test]
fn partial_writes_never_interleave_responses() {
    let _guard = registry_lock();
    const SCOPE: &str = "chaos-net-partial";
    failpoint::arm(11);
    failpoint::configure(
        chaos::WRITE_PARTIAL,
        FaultSpec::always(FaultAction::PartialWrite).scoped(SCOPE),
    );

    let (svc, queries) = service();
    // Serial ground truth, computed before the server exists.
    let expected: Vec<String> = queries
        .iter()
        .map(|q| match svc.submit(q, QueryClass::Batch).decision {
            cote_service::Decision::Admitted { advice, .. } => advice.choice.label(),
            other => panic!("{other:?}"),
        })
        .collect();
    let server = bind_scoped(&svc, &queries, SCOPE);
    let addr = server.local_addr();

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let expected = &expected;
            scope.spawn(move || {
                let mut client = NetClient::connect_with(addr, &client_cfg()).unwrap();
                for _ in 0..ROUNDS {
                    for (i, want) in expected.iter().enumerate() {
                        match client.estimate(i + 1, Some(QueryClass::Batch)).unwrap() {
                            WireResponse::Ok(p) => {
                                assert_eq!(
                                    json_extract_str(&p, "choice"),
                                    Some(want.as_str()),
                                    "split frame reassembled wrong: {p}"
                                );
                            }
                            other => panic!("ESTIMATE {}: {other:?}", i + 1),
                        }
                    }
                }
            });
        }
    });

    // An HTTP response is split the same way and must still reassemble.
    let health = http_exchange(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
    assert!(health.ends_with("ok\n"), "{health}");

    assert!(
        fires(chaos::WRITE_PARTIAL) >= (CLIENTS * ROUNDS * expected.len()) as u64,
        "every response was split"
    );
    let report = server.shutdown();
    assert!(report.drained_cleanly, "{}", report.summary());
    assert!(svc.drain(Duration::from_secs(10)));
    assert_eq!(svc.metrics().queue_depth.get(), 0);
    failpoint::disarm();
}

/// Responses truncate mid-frame — half the bytes, then a hard close. The
/// affected peer sees a clean EOF (never a hang), neighbouring connections
/// are untouched, and once the fault budget is spent the same exchanges
/// succeed byte-for-byte.
#[test]
fn truncated_frames_mid_http_close_cleanly() {
    let _guard = registry_lock();
    const SCOPE: &str = "chaos-net-reset";
    failpoint::arm(13);
    failpoint::configure(
        chaos::WRITE_RESET,
        FaultSpec::first_n(FaultAction::Reset, 2).scoped(SCOPE),
    );

    let (svc, queries) = service();
    let server = bind_scoped(&svc, &queries, SCOPE);
    let addr = server.local_addr();

    // Fire 1: an HTTP response truncates mid-stream.
    let truncated = http_exchange(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");

    // Fire 2: a wire response truncates; the client reads EOF mid-line and
    // reports an error instead of hanging or inventing a frame.
    let mut victim = NetClient::connect_with(addr, &client_cfg()).unwrap();
    assert!(
        victim.estimate(1, None).is_err(),
        "truncated wire frame must surface as a client error"
    );

    // Budget spent: a fresh connection gets full, intact answers.
    let mut healthy = NetClient::connect_with(addr, &client_cfg()).unwrap();
    match healthy.estimate(1, None).unwrap() {
        WireResponse::Ok(p) => assert_eq!(json_extract_str(&p, "status"), Some("ok"), "{p}"),
        other => panic!("{other:?}"),
    }
    let full = http_exchange(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(full.starts_with("HTTP/1.1 200 OK\r\n"), "{full}");
    assert!(full.ends_with("ok\n"), "{full}");

    // The truncated HTTP body is a strict prefix of the healthy one —
    // truncation may cut bytes, never corrupt or interleave them.
    assert!(truncated.len() < full.len(), "{truncated:?}");
    assert!(full.starts_with(&truncated), "not a prefix: {truncated:?}");

    assert_eq!(fires(chaos::WRITE_RESET), 2);
    drop(victim);
    drop(healthy);
    server.shutdown();
    assert!(svc.drain(Duration::from_secs(10)));
    assert_eq!(svc.metrics().queue_depth.get(), 0);
    failpoint::disarm();
}

/// Accept- and read-path resets drop the connection without a reply; the
/// peer sees EOF promptly and later connections are served normally.
#[test]
fn accept_and_read_resets_drop_without_reply() {
    let _guard = registry_lock();
    const SCOPE: &str = "chaos-net-drop";
    failpoint::arm(17);
    failpoint::configure(
        chaos::ACCEPT_RESET,
        FaultSpec::first_n(FaultAction::Reset, 1).scoped(SCOPE),
    );
    failpoint::configure(
        chaos::READ_RESET,
        FaultSpec::first_n(FaultAction::Reset, 1).scoped(SCOPE),
    );

    let (svc, queries) = service();
    let server = bind_scoped(&svc, &queries, SCOPE);
    let addr = server.local_addr();

    // Fire 1 (accept): the connection lands and is immediately dropped —
    // the first request errors out with EOF, within the read timeout.
    let mut reset_on_accept = NetClient::connect_with(addr, &client_cfg()).unwrap();
    assert!(reset_on_accept.estimate(1, None).is_err());

    // Fire 2 (read): the request line is consumed, then the connection
    // closes with no response bytes.
    let mut reset_on_read = NetClient::connect_with(addr, &client_cfg()).unwrap();
    assert!(reset_on_read.estimate(1, None).is_err());

    // Budget spent: service resumes.
    let mut ok = NetClient::connect_with(addr, &client_cfg()).unwrap();
    assert!(matches!(ok.estimate(1, None), Ok(WireResponse::Ok(_))));

    assert_eq!(fires(chaos::ACCEPT_RESET), 1);
    assert_eq!(fires(chaos::READ_RESET), 1);
    assert!(server.metrics().requests.get() >= 1);
    drop(reset_on_accept);
    drop(reset_on_read);
    drop(ok);
    server.shutdown();
    assert!(svc.drain(Duration::from_secs(10)));
    assert_eq!(svc.metrics().queue_depth.get(), 0);
    failpoint::disarm();
}

/// `PING` is exempt from injected faults ([`chaos::exempt`]): even under
/// an always-firing reset plan, health checks sail through — which is what
/// keeps prober traffic from perturbing deterministic fault schedules.
#[test]
fn health_checks_are_exempt_from_faults() {
    let _guard = registry_lock();
    const SCOPE: &str = "chaos-net-exempt";
    failpoint::arm(19);
    failpoint::configure(
        chaos::READ_RESET,
        FaultSpec::always(FaultAction::Reset).scoped(SCOPE),
    );
    failpoint::configure(
        chaos::WRITE_RESET,
        FaultSpec::always(FaultAction::Reset).scoped(SCOPE),
    );
    failpoint::configure(
        chaos::REPLY_BUSY,
        FaultSpec::always(FaultAction::Busy).scoped(SCOPE),
    );

    let (svc, queries) = service();
    let server = bind_scoped(&svc, &queries, SCOPE);
    let mut c = NetClient::connect_with(server.local_addr(), &client_cfg()).unwrap();
    for _ in 0..5 {
        c.ping().unwrap();
    }
    // Exempt traffic is not even *counted* — a replay's hit table stays a
    // pure function of the request sequence.
    assert_eq!(fires(chaos::READ_RESET), 0);
    assert_eq!(fires(chaos::WRITE_RESET), 0);
    assert_eq!(fires(chaos::REPLY_BUSY), 0);
    drop(c);
    server.shutdown();
    assert!(svc.drain(Duration::from_secs(10)));
    failpoint::disarm();
}
