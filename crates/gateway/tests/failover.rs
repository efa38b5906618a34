//! Gateway failover integration: BUSY-aware ring walking against stub
//! backends (deterministic), and end-to-end estimation through a real
//! two-backend tier where one backend dies mid-run.

use cote::{Cote, TimeModel};
use cote_catalog::{Catalog, ColumnDef, TableDef};
use cote_common::{ColRef, TableId, TableRef};
use cote_gateway::{Gateway, GatewayConfig};
use cote_net::{
    HttpRequest, NetClient, NetConfig, NetServer, ServiceHandler, WireHandler, WireResponse,
};
use cote_obs::Registry;
use cote_query::{Query, QueryBlockBuilder};
use cote_service::{CoteService, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stub backend that sheds every routable request with `BUSY queue` but
/// stays probe-healthy (answers `PING`), so the gateway keeps routing to
/// it and must fail over per-request.
struct BusyBackend;

impl WireHandler for BusyBackend {
    fn handle_wire(&self, line: &str) -> WireResponse {
        match line {
            "PING" => WireResponse::Ok("pong".into()),
            _ => WireResponse::Busy("queue".into()),
        }
    }
    fn handle_http(&self, _req: &HttpRequest) -> String {
        cote_net::http::render_response(404, "text/plain", "stub\n")
    }
}

/// Stub backend that answers everything.
struct OkBackend;

impl WireHandler for OkBackend {
    fn handle_wire(&self, line: &str) -> WireResponse {
        match line {
            "PING" => WireResponse::Ok("pong".into()),
            _ => WireResponse::Ok("{\"from\":\"ok-backend\"}".into()),
        }
    }
    fn handle_http(&self, _req: &HttpRequest) -> String {
        cote_net::http::render_response(404, "text/plain", "stub\n")
    }
}

fn serve_stub(handler: Arc<dyn WireHandler>) -> (NetServer, SocketAddr, Registry) {
    let registry = Registry::new();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = NetServer::start_with(
        handler,
        &registry,
        listener,
        NetConfig {
            drain_deadline: Duration::from_millis(300),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    (server, addr, registry)
}

fn wait_backends_up(gw: &Gateway, want: usize) {
    let t0 = Instant::now();
    while gw.backends_up() != want {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "backends_up stuck at {} (want {want})",
            gw.backends_up()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A backend that sheds `BUSY` keeps its keys flowing: every request lands
/// on the answering backend via per-request failover, and once the
/// answering backend dies too, the gateway degrades to `BUSY` (exhausted)
/// instead of hanging or erroring.
#[test]
fn busy_backend_fails_over_and_exhaustion_degrades_to_busy() {
    let (busy_srv, busy_addr, _busy_reg) = serve_stub(Arc::new(BusyBackend));
    let (ok_srv, ok_addr, _ok_reg) = serve_stub(Arc::new(OkBackend));

    let gw = Gateway::start(GatewayConfig {
        backends: vec![busy_addr, ok_addr],
        probe_interval: Duration::from_millis(100),
        ..Default::default()
    });
    let front = NetServer::start_with(
        gw.handler(),
        gw.registry(),
        TcpListener::bind("127.0.0.1:0").unwrap(),
        NetConfig::default(),
    )
    .unwrap();
    wait_backends_up(&gw, 2);

    let mut client = NetClient::connect(front.local_addr()).unwrap();
    client.ping().unwrap();
    // 40 distinct keys spread over both backends; every one must come back
    // `OK` because the ok-backend is always somewhere in the failover order.
    for i in 1..=40 {
        match client.estimate(i, None).unwrap() {
            WireResponse::Ok(payload) => {
                assert!(payload.contains("ok-backend"), "q:{i}: {payload}")
            }
            other => panic!("q:{i} not failed over: {other:?}"),
        }
    }
    assert!(
        gw.metrics().failovers.get() >= 1,
        "no key routed busy-first out of 40"
    );
    assert_eq!(gw.metrics().exhausted.get(), 0);
    // `OUTCOME <index>` routes like `ESTIMATE <index>`; `OUTCOME sql-…`
    // carries no SQL text for the ring to place, so the gateway refuses it.
    client.send_raw("OUTCOME 3 0.5").unwrap();
    match client.recv().unwrap() {
        WireResponse::Ok(payload) => assert!(payload.contains("ok-backend"), "{payload}"),
        other => panic!("OUTCOME 3 not forwarded: {other:?}"),
    }
    client.send_raw("OUTCOME sql-00000000deadbeef 0.5").unwrap();
    assert_eq!(
        client.recv().unwrap(),
        WireResponse::Err("not routable through the gateway".into())
    );

    // Kill the answering backend: busy + dead leaves no one to answer, so
    // the gateway must degrade into the BUSY shedding clients already
    // handle (carrying the upstream reason).
    ok_srv.shutdown();
    let exhausted_before = gw.metrics().exhausted.get();
    match client.estimate(7, None).unwrap() {
        WireResponse::Busy(reason) => assert_eq!(reason, "queue"),
        other => panic!("expected BUSY after exhaustion, got {other:?}"),
    }
    assert!(gw.metrics().exhausted.get() > exhausted_before);

    front.shutdown();
    gw.shutdown();
    busy_srv.shutdown();
}

// ---------------------------------------------------------------------------
// End-to-end: two real estimation backends behind a gateway.
// ---------------------------------------------------------------------------

fn fixture() -> (Catalog, Vec<Query>) {
    let mut b = Catalog::builder();
    for i in 0..3 {
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
    let queries = (2..=3)
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

fn backend() -> (NetServer, SocketAddr, Arc<CoteService>) {
    let (cat, queries) = fixture();
    let cote = Cote::new(
        cote_optimizer::OptimizerConfig::high(cote_optimizer::Mode::Serial),
        TimeModel {
            c_nljn: 1e-6,
            c_mgjn: 1e-6,
            c_hsjn: 1e-6,
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
    let svc = Arc::new(CoteService::start(cat, cote, cfg));
    let server = NetServer::bind(
        Arc::new(ServiceHandler::new(Arc::clone(&svc), Arc::new(queries))),
        "127.0.0.1:0",
        NetConfig {
            drain_deadline: Duration::from_millis(300),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    (server, addr, svc)
}

/// Drop the `"elapsed_us":N` tail — the only wall-clock-dependent field in
/// an estimate payload.
fn stable(payload: &str) -> String {
    match payload.split_once(",\"elapsed_us\":") {
        Some((head, _)) => format!("{head}}}"),
        None => payload.to_string(),
    }
}

fn ok_payload(resp: WireResponse) -> String {
    match resp {
        WireResponse::Ok(p) => p,
        other => panic!("expected OK, got {other:?}"),
    }
}

const SQL: [&str; 4] = [
    "SELECT * FROM t0, t1 WHERE t0.c0 = t1.c0",
    "SELECT * FROM t1, t2 WHERE t1.c0 = t2.c0",
    "SELECT * FROM t0, t2 WHERE t0.c1 = t2.c1",
    "SELECT * FROM t0, t1 WHERE t0.c1 = t1.c1",
];

/// Answers through the gateway are byte-identical to direct backend
/// answers; killing one backend reroutes its keys to the survivor without
/// a single failed request; metrics record the detection.
#[test]
fn dead_backend_is_detected_and_routed_around() {
    let (srv0, addr0, svc0) = backend();
    let (srv1, addr1, svc1) = backend();

    // Warm both backends for every key so `"cached"` agrees everywhere and
    // answers are byte-identical (modulo elapsed_us) no matter which
    // backend serves.
    for addr in [addr0, addr1] {
        let mut c = NetClient::connect(addr).unwrap();
        for i in 1..=2 {
            ok_payload(c.estimate(i, None).unwrap());
        }
        for sql in SQL {
            c.send_raw(&format!("ESTIMATE SQL {sql}")).unwrap();
            ok_payload(c.recv().unwrap());
        }
    }
    // Canonical (cached) answers, from backend 1 — the eventual survivor.
    let mut direct = NetClient::connect(addr1).unwrap();
    let canon_idx: Vec<String> = (1..=2)
        .map(|i| stable(&ok_payload(direct.estimate(i, None).unwrap())))
        .collect();
    let canon_sql: Vec<String> = SQL
        .iter()
        .map(|sql| {
            direct.send_raw(&format!("ESTIMATE SQL {sql}")).unwrap();
            stable(&ok_payload(direct.recv().unwrap()))
        })
        .collect();

    let gw = Gateway::start(GatewayConfig {
        backends: vec![addr0, addr1],
        probe_interval: Duration::from_millis(100),
        ..Default::default()
    });
    let front = NetServer::start_with(
        gw.handler(),
        gw.registry(),
        TcpListener::bind("127.0.0.1:0").unwrap(),
        NetConfig::default(),
    )
    .unwrap();
    wait_backends_up(&gw, 2);

    let check_all = |client: &mut NetClient| {
        for (i, want) in canon_idx.iter().enumerate() {
            let got = stable(&ok_payload(client.estimate(i + 1, None).unwrap()));
            assert_eq!(&got, want, "ESTIMATE {} diverged via gateway", i + 1);
        }
        for (sql, want) in SQL.iter().zip(&canon_sql) {
            client.send_raw(&format!("ESTIMATE SQL {sql}")).unwrap();
            let got = stable(&ok_payload(client.recv().unwrap()));
            assert_eq!(&got, want, "ESTIMATE SQL {sql} diverged via gateway");
        }
    };

    let mut client = NetClient::connect(front.local_addr()).unwrap();
    check_all(&mut client);

    // HTTP POST /estimate through the gateway front-end.
    let http_estimate = || {
        let mut s = TcpStream::connect(front.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let body = "{\"query\":1}";
        s.write_all(
            format!(
                "POST /estimate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        resp
    };
    let resp = http_estimate();
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
    assert!(resp.contains("\"status\":\"ok\""), "{resp}");

    // Kill backend 0. Requests must keep succeeding for *every* key — the
    // dead backend's keys fail over (or are re-routed once the prober
    // notices) — and the up gauge must drop to 1.
    srv0.shutdown();
    assert!(svc0.drain(Duration::from_secs(10)));
    check_all(&mut client);
    wait_backends_up(&gw, 1);
    check_all(&mut client);
    assert_eq!(gw.metrics().backends_up.get(), 1);
    assert!(
        gw.metrics().upstream_errors.get() + gw.metrics().probe_failures.get() >= 1,
        "nobody noticed the dead backend"
    );
    let resp = http_estimate();
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");

    // The gateway's /metrics exposes its own instruments through the
    // front-end it happens to be served by.
    let mut s = TcpStream::connect(front.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).unwrap();
    assert!(text.contains("cote_gateway_backends_up 1"), "{text}");
    assert!(text.contains("cote_gateway_requests_total"), "{text}");

    let report = front.shutdown();
    assert!(report.drained_cleanly, "{}", report.summary());
    gw.shutdown();
    srv1.shutdown();
    assert!(svc1.drain(Duration::from_secs(10)));
}
