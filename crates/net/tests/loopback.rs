//! End-to-end tests over real loopback sockets: concurrent clients get the
//! same answers a serial [`CoteService`] gives, overload sheds with `BUSY`
//! instead of hanging, malformed frames are answered (or closed on)
//! deterministically, and shutdown drains with the queue-depth gauge back
//! at zero. Then the states only a readiness-driven server can be caught
//! in: partial frames under pathological write chunking, deadline-bounded
//! drain while connections hold half-written responses, idle sweeps, and
//! open-connection accounting under churn.

use cote::{Cote, TimeModel};
use cote_catalog::{Catalog, ColumnDef, TableDef};
use cote_common::{ColRef, TableId, TableRef};
use cote_net::proto::json_extract_str;
use cote_net::{
    NetClient, NetClientConfig, NetConfig, NetServer, ServiceHandler, WireRequest, WireResponse,
};
use cote_optimizer::{Mode as OptMode, OptimizerConfig};
use cote_query::{Query, QueryBlockBuilder};
use cote_service::{CoteService, Decision, QueryClass, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn cote() -> Cote {
    Cote::new(
        OptimizerConfig::high(OptMode::Serial),
        TimeModel {
            c_nljn: 1e-6,
            c_mgjn: 1e-6,
            c_hsjn: 1e-6,
            c_join: 0.0,
            intercept: 0.0,
        },
    )
}

fn service(cfg: ServiceConfig) -> (Arc<CoteService>, Arc<Vec<Query>>) {
    let (cat, queries) = fixture();
    (
        Arc::new(CoteService::start(cat, cote(), cfg)),
        Arc::new(queries),
    )
}

fn small_cfg() -> ServiceConfig {
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

fn quick_client_cfg() -> NetClientConfig {
    NetClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        ..Default::default()
    }
}

fn bind(svc: &Arc<CoteService>, queries: &Arc<Vec<Query>>, cfg: NetConfig) -> NetServer {
    let handler = Arc::new(ServiceHandler::new(Arc::clone(svc), Arc::clone(queries)));
    NetServer::bind(handler, "127.0.0.1:0", cfg).unwrap()
}

/// Assert a service has fully drained and its queue-depth gauge is back to
/// zero — the accounting invariant every test ends on.
fn assert_gauge_drained(svc: &CoteService) {
    assert!(svc.drain(Duration::from_secs(10)), "service did not drain");
    assert_eq!(
        svc.metrics().queue_depth.get(),
        0,
        "queue-depth gauge leaked"
    );
}

#[test]
fn concurrent_clients_match_serial_service_answers() {
    let (svc, queries) = service(small_cfg());

    // Ground truth: what the service answers serially, in-process.
    let expected: Vec<String> = queries
        .iter()
        .map(|q| {
            let class = QueryClass::from_table_count(q.total_tables());
            match svc.submit(q, class).decision {
                Decision::Admitted { advice, .. } => advice.choice.label(),
                other => panic!("serial submit not admitted: {other:?}"),
            }
        })
        .collect();

    let server = bind(&svc, &queries, NetConfig::default());
    let addr = server.local_addr();

    const CLIENTS: usize = 6;
    const ROUNDS: usize = 4;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let expected = &expected;
            scope.spawn(move || {
                let mut client = NetClient::connect_with(addr, &quick_client_cfg()).unwrap();
                client.ping().unwrap();
                for _ in 0..ROUNDS {
                    for (i, want) in expected.iter().enumerate() {
                        let resp = client.estimate(i + 1, None).unwrap();
                        let payload = match resp {
                            WireResponse::Ok(p) => p,
                            other => panic!("ESTIMATE {}: {other:?}", i + 1),
                        };
                        assert_eq!(
                            json_extract_str(&payload, "choice"),
                            Some(want.as_str()),
                            "wire answer diverged from serial answer: {payload}"
                        );
                        assert_eq!(json_extract_str(&payload, "status"), Some("ok"));
                    }
                }
            });
        }
    });

    let served = server.metrics().requests.get();
    assert_eq!(
        served as usize,
        CLIENTS * (1 + ROUNDS * expected.len()),
        "every request got exactly one response"
    );
    let report = server.shutdown();
    assert!(report.drained_cleanly, "{}", report.summary());
    assert_eq!(report.forced_connections, 0);
    assert_gauge_drained(&svc);
}

#[test]
fn overload_sheds_busy_and_never_hangs() {
    let (svc, queries) = service(small_cfg());
    let cfg = NetConfig {
        max_conns: 2,
        idle_timeout: Duration::from_secs(2),
        drain_deadline: Duration::from_millis(300),
        ..Default::default()
    };
    let server = bind(&svc, &queries, cfg);
    let addr = server.local_addr();
    let ccfg = quick_client_cfg();

    // Occupy the first slot: a full round-trip guarantees the server
    // registered this connection before the next ones arrive.
    let mut held = NetClient::connect_with(addr, &ccfg).unwrap();
    held.ping().unwrap();
    // Fill the second slot.
    let parked = NetClient::connect_with(addr, &ccfg).unwrap();

    // Every further connection must be shed with a protocol-level BUSY,
    // within the client's read timeout — never a hang.
    for _ in 0..3 {
        let mut extra = NetClient::connect_with(addr, &ccfg).unwrap();
        let t0 = Instant::now();
        match extra.recv() {
            Ok(WireResponse::Busy(reason)) => assert_eq!(reason, "connections"),
            other => panic!("expected BUSY connections, got {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(2), "shed was not prompt");
    }
    assert!(server.metrics().conns_shed.get() >= 3);

    // The held connection still works: shedding never breaks served peers.
    held.ping().unwrap();

    drop(held);
    drop(parked);
    let report = server.shutdown();
    assert_eq!(report.forced_connections, 0, "{}", report.summary());
    assert_gauge_drained(&svc);
}

#[test]
fn malformed_frames_get_err_or_close_never_hang() {
    let (svc, queries) = service(small_cfg());
    let cfg = NetConfig {
        max_line_bytes: 256,
        idle_timeout: Duration::from_secs(2),
        ..Default::default()
    };
    let server = bind(&svc, &queries, cfg);
    let addr = server.local_addr();
    let ccfg = quick_client_cfg();

    // Unknown verb and out-of-range index: ERR, connection stays usable.
    let mut c = NetClient::connect_with(addr, &ccfg).unwrap();
    c.send_raw("FROB 1").unwrap();
    assert!(matches!(c.recv(), Ok(WireResponse::Err(_))));
    match c.estimate(999, None) {
        Ok(WireResponse::Err(msg)) => assert!(msg.contains("out of range"), "{msg}"),
        other => panic!("{other:?}"),
    }
    c.ping().unwrap();

    // Oversize line: ERR naming the cap, then the server closes.
    let mut c = NetClient::connect_with(addr, &ccfg).unwrap();
    c.send_raw(&"a".repeat(1000)).unwrap();
    match c.recv() {
        Ok(WireResponse::Err(msg)) => assert!(msg.contains("exceeds 256"), "{msg}"),
        other => panic!("{other:?}"),
    }
    assert!(c.recv().is_err(), "server closes after an oversize frame");

    // Invalid UTF-8: ERR, then close (raw socket — the client only sends str).
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&[0xFF, 0xFE, b'\n']).unwrap();
    let mut resp = String::new();
    raw.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("ERR"), "{resp:?}");

    // Truncated frame (EOF before the newline): silent close, no response.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(b"PING").unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).unwrap();
    assert!(buf.is_empty(), "truncated frames get no response: {buf:?}");

    assert!(server.metrics().malformed.get() >= 4);
    let report = server.shutdown();
    assert!(report.drained_cleanly, "{}", report.summary());
    assert_gauge_drained(&svc);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (svc, queries) = service(small_cfg());
    let server = bind(&svc, &queries, NetConfig::default());
    let mut c = NetClient::connect_with(server.local_addr(), &quick_client_cfg()).unwrap();

    // Write four frames back-to-back, then read four responses: one
    // response per request, in request order.
    c.send(&WireRequest::Ping).unwrap();
    c.send(&WireRequest::Estimate {
        index: 1,
        class: Some(QueryClass::Batch),
    })
    .unwrap();
    c.send(&WireRequest::Metrics).unwrap();
    c.send(&WireRequest::Ping).unwrap();

    assert_eq!(c.recv().unwrap(), WireResponse::Ok("pong".into()));
    match c.recv().unwrap() {
        WireResponse::Ok(p) => {
            assert_eq!(json_extract_str(&p, "query"), Some("chain2"), "{p}")
        }
        other => panic!("{other:?}"),
    }
    match c.recv().unwrap() {
        WireResponse::Ok(p) => assert!(p.starts_with('{'), "METRICS returns JSON: {p}"),
        other => panic!("{other:?}"),
    }
    assert_eq!(c.recv().unwrap(), WireResponse::Ok("pong".into()));

    drop(c);
    let report = server.shutdown();
    assert!(report.drained_cleanly, "{}", report.summary());
    assert_gauge_drained(&svc);
}

#[test]
fn sql_estimates_over_wire_and_http() {
    let (svc, queries) = service(small_cfg());
    let server = bind(&svc, &queries, NetConfig::default());
    let addr = server.local_addr();
    let mut c = NetClient::connect_with(addr, &quick_client_cfg()).unwrap();

    // ESTIMATE SQL of the same join the fixture serves as `chain2` (index 1)
    // must produce the same advice.
    let want = match c.estimate(1, None).unwrap() {
        WireResponse::Ok(p) => json_extract_str(&p, "choice").unwrap().to_string(),
        other => panic!("{other:?}"),
    };
    let sql = "SELECT * FROM t0, t1 WHERE t0.c0 = t1.c0";
    c.send(&WireRequest::EstimateSql { sql: sql.into() })
        .unwrap();
    let first = match c.recv().unwrap() {
        WireResponse::Ok(p) => p,
        other => panic!("{other:?}"),
    };
    assert_eq!(json_extract_str(&first, "choice"), Some(want.as_str()));
    assert!(
        json_extract_str(&first, "query")
            .unwrap()
            .starts_with("sql-"),
        "{first}"
    );

    // A literal variant of the same statement structure hits the cache.
    c.send_raw("ESTIMATE SQL SELECT * FROM t0, t1 WHERE t0.c0 = t1.c0 AND t0.c1 = 7")
        .unwrap();
    assert!(matches!(c.recv().unwrap(), WireResponse::Ok(_)));
    c.send_raw("ESTIMATE SQL SELECT * FROM t0, t1 WHERE t0.c0 = t1.c0 AND t0.c1 = 99")
        .unwrap();
    match c.recv().unwrap() {
        WireResponse::Ok(p) => assert!(p.contains("\"cached\":true"), "{p}"),
        other => panic!("{other:?}"),
    }

    // Parse and bind failures are structured ERRs with a position.
    c.send_raw("ESTIMATE SQL SELECT * FROM").unwrap();
    match c.recv().unwrap() {
        WireResponse::Err(m) => assert!(m.contains("sql: error at 1:"), "{m}"),
        other => panic!("{other:?}"),
    }
    c.send_raw("ESTIMATE SQL SELECT * FROM nowhere").unwrap();
    match c.recv().unwrap() {
        WireResponse::Err(m) => assert!(m.contains("unknown table 'nowhere'"), "{m}"),
        other => panic!("{other:?}"),
    }

    // HTTP: {"sql": ...} body, success and structured 400.
    let body = format!("{{\"sql\":\"{sql}\"}}");
    let est = http_exchange(
        addr,
        &format!(
            "POST /estimate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(est.starts_with("HTTP/1.1 200 OK\r\n"), "{est}");
    assert!(est.contains(&format!("\"choice\":\"{want}\"")), "{est}");

    let bad = "{\"sql\":\"SELECT * FROM t0 WHERE t0.nope = 1\"}";
    let resp = http_exchange(
        addr,
        &format!(
            "POST /estimate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{bad}",
            bad.len()
        ),
    );
    assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
    assert!(resp.contains("unknown column 'nope'"), "{resp}");

    drop(c);
    let report = server.shutdown();
    assert!(report.drained_cleanly, "{}", report.summary());
    assert_gauge_drained(&svc);
}

#[test]
fn metrics_exposition_is_complete_and_escaped() {
    let (svc, queries) = service(small_cfg());
    // Generate some traffic so instruments carry non-trivial samples.
    for q in queries.iter().take(2) {
        let _ = svc.submit(q, QueryClass::Batch);
    }
    svc.report_outcome(&queries[0], 0.001);

    let server = bind(&svc, &queries, NetConfig::default());
    let addr = server.local_addr();
    let resp = http_exchange(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
    let body = resp.split("\r\n\r\n").nth(1).unwrap();

    // Walk the exposition: every sample's metric family must have been
    // preceded by its own `# HELP` and `# TYPE` lines.
    let mut helped = std::collections::BTreeSet::new();
    let mut typed = std::collections::BTreeSet::new();
    let mut families = std::collections::BTreeSet::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helped.insert(rest.split(' ').next().unwrap().to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            typed.insert(rest.split(' ').next().unwrap().to_string());
        } else if !line.is_empty() {
            let family = line
                .split([' ', '{'])
                .next()
                .unwrap()
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count")
                .to_string();
            assert!(helped.contains(&family), "no # HELP before sample: {line}");
            assert!(typed.contains(&family), "no # TYPE before sample: {line}");
            families.insert(family);
        }
        // Label values must not contain raw quotes/backslashes/newlines.
        if let Some(open) = line.find('{') {
            let labels = &line[open + 1..line.rfind('}').unwrap()];
            for pair in labels.split(',') {
                let value = pair.split('=').nth(1).unwrap();
                let inner = &value[1..value.len() - 1];
                let mut chars = inner.chars();
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => {
                            let next = chars.next();
                            assert!(
                                matches!(next, Some('\\' | '"' | 'n')),
                                "bad escape in label value: {line}"
                            );
                        }
                        '"' | '\n' => panic!("unescaped char in label value: {line}"),
                        _ => {}
                    }
                }
            }
        }
    }

    // The whole stack shows up in one scrape: net, service, and the new
    // residual/drift/recal instruments.
    for name in [
        "cote_net_connections_total",
        "cote_net_request_latency_seconds",
        "cote_net_poll_wakeups_total",
        "cote_net_poll_loops",
        "cote_service_requests_total",
        "cote_service_residual_abs_seconds",
        "cote_service_residual_rel_ewma_milli",
        "cote_service_drift_score_milli",
        "cote_service_drift_active",
        "cote_service_drift_alarms_total",
        "cote_service_recal_observations_total",
        "cote_service_advice_error_margin_milli",
        "cote_service_online_c_nljn_picoseconds",
    ] {
        assert!(families.contains(name), "missing from /metrics: {name}");
    }

    let report = server.shutdown();
    assert!(report.drained_cleanly, "{}", report.summary());
    assert_gauge_drained(&svc);
}

/// One HTTP exchange on a fresh connection (`Connection: close` semantics).
fn http_exchange(addr: std::net::SocketAddr, request: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(request.as_bytes()).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

#[test]
fn http_endpoints_share_the_port() {
    let (svc, queries) = service(small_cfg());
    let server = bind(&svc, &queries, NetConfig::default());
    let addr = server.local_addr();

    let health = http_exchange(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
    assert!(health.ends_with("ok\n"), "{health}");

    let metrics = http_exchange(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
    assert!(
        metrics.contains("cote_net_connections_total"),
        "net instruments in the scrape: {metrics}"
    );
    assert!(
        metrics.contains("cote_service_queue_depth"),
        "service instruments in the same scrape: {metrics}"
    );

    let body = "{\"query\":1,\"class\":\"batch\"}";
    let est = http_exchange(
        addr,
        &format!(
            "POST /estimate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(est.starts_with("HTTP/1.1 200 OK\r\n"), "{est}");
    assert!(est.contains("\"status\":\"ok\""), "{est}");
    assert!(est.contains("\"levels\":["), "{est}");

    let missing = http_exchange(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.1 404 "), "{missing}");
    let bad_method = http_exchange(addr, "DELETE /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(bad_method.starts_with("HTTP/1.1 405 "), "{bad_method}");
    let bad_body = http_exchange(
        addr,
        "POST /estimate HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}",
    );
    assert!(bad_body.starts_with("HTTP/1.1 400 "), "{bad_body}");
    // EOF before the declared body arrives: 400, not a hang.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"POST /estimate HTTP/1.1\r\nContent-Length: 5\r\n\r\nab")
        .unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut short_body = String::new();
    s.read_to_string(&mut short_body).unwrap();
    assert!(short_body.starts_with("HTTP/1.1 400 "), "{short_body}");

    let report = server.shutdown();
    assert!(report.drained_cleanly, "{}", report.summary());
    assert_gauge_drained(&svc);
}

/// Read exactly `n` newline-terminated frames from `stream`.
fn read_lines(stream: TcpStream, n: usize) -> Vec<String> {
    let mut reader = BufReader::new(stream);
    (0..n)
        .map(|i| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.ends_with('\n'), "response {i} truncated: {line:?}");
            line.truncate(line.len() - 1);
            line
        })
        .collect()
}

/// Drop the `"elapsed_us":N` tail — the only wall-clock-dependent field in
/// an estimate payload.
fn stable(line: &str) -> String {
    match line.split_once(",\"elapsed_us\":") {
        Some((head, _)) => format!("{head}}}"),
        None => line.to_string(),
    }
}

/// Answers are independent of how TCP segments the request stream: the
/// same pipelined script delivered in one write and one byte at a time
/// produces identical frames, because a partial frame parks in the
/// connection's `FrameBuffer` and resumes where it left off.
#[test]
fn one_byte_writes_resume_partial_frames() {
    let (svc, queries) = service(small_cfg());
    // Warm the statement cache so `"cached"` agrees between the two runs.
    for q in queries.iter() {
        let _ = svc.submit(q, QueryClass::from_table_count(q.total_tables()));
    }
    let server = bind(&svc, &queries, NetConfig::default());

    let script = "PING\nESTIMATE 1\nESTIMATE 2\n\
                  ESTIMATE SQL SELECT * FROM t0, t1 WHERE t0.c0 = t1.c0\n\
                  FROB x\nPING\n";
    let responses = 6;

    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(script.as_bytes()).unwrap();
    let want: Vec<String> = read_lines(s, responses).iter().map(|l| stable(l)).collect();
    assert_eq!(want[0], "OK pong");
    assert!(want[4].starts_with("ERR"), "{want:?}");

    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    for byte in script.as_bytes() {
        s.write_all(std::slice::from_ref(byte)).unwrap();
        // Yield so most bytes arrive as their own readiness event and the
        // server genuinely parks a partial frame between reads.
        std::thread::sleep(Duration::from_micros(200));
    }
    let got: Vec<String> = read_lines(s, responses).iter().map(|l| stable(l)).collect();
    assert_eq!(got, want, "reassembly depends on segmentation");

    // Same property for an HTTP request trickled one byte at a time.
    let body = "{\"query\":1}";
    let req = format!(
        "POST /estimate HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for byte in req.as_bytes() {
        s.write_all(std::slice::from_ref(byte)).unwrap();
    }
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
    assert!(resp.contains("\"status\":\"ok\""), "{resp}");

    assert!(server.shutdown().drained_cleanly);
    assert_gauge_drained(&svc);
}

/// Drain while a connection holds megabytes of half-written responses (the
/// peer stopped reading): write-backpressure must have kicked in, shutdown
/// must return within the drain deadline plus slack by force-closing the
/// stuck connection, and the service queue-depth gauge must end at zero.
#[test]
fn drain_with_half_written_responses_is_deadline_bounded() {
    let (svc, queries) = service(small_cfg());
    let cfg = NetConfig {
        drain_deadline: Duration::from_millis(300),
        ..Default::default()
    };
    let server = bind(&svc, &queries, cfg);

    // A healthy connection mid-frame (no newline yet) that must drain
    // cleanly with a `BUSY draining` notice. Opened first, and confirmed
    // consumed via `bytes_in`, so the server's receive buffer is empty when
    // it closes the socket — a close with unread bytes would turn into an
    // RST that destroys the drain notice.
    let mut partial = TcpStream::connect(server.local_addr()).unwrap();
    partial
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    partial.write_all(b"ESTIM").unwrap();
    let t0 = Instant::now();
    while server.metrics().bytes_in.get() < 5 {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "partial frame unread"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Pipeline far more METRICS responses than loopback socket buffers can
    // absorb, and never read. Backpressure caps the user-space write buffer
    // near the high-water mark, so the connection only truly wedges once
    // the kernel buffers are full too; wait until the `backpressured` gauge
    // (current state, not cumulative) stays pinned with no flush progress.
    let stuck = TcpStream::connect(server.local_addr()).unwrap();
    let writer = {
        let s = stuck.try_clone().unwrap();
        std::thread::spawn(move || {
            let mut s = s;
            // Requests for far more response bytes than the kernel can
            // buffer; errors just mean the server force-closed.
            let _ = s.write_all("METRICS\n".repeat(100_000).as_bytes());
        })
    };
    // Wedged = backpressure engaged AND no flush progress: `bytes_out`
    // frozen means the kernel refused every write for the whole window, so
    // the remaining response bytes cannot go anywhere at drain time either.
    let t0 = Instant::now();
    let mut last_out = u64::MAX;
    let mut frozen_since = Instant::now();
    loop {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "write backpressure never wedged"
        );
        std::thread::sleep(Duration::from_millis(50));
        let out = server.metrics().bytes_out.get();
        if out != last_out || server.poll_metrics().backpressured.get() == 0 {
            last_out = out;
            frozen_since = Instant::now();
        } else if frozen_since.elapsed() >= Duration::from_millis(600) {
            break;
        }
    }
    assert!(server.poll_metrics().backpressure.get() >= 1);

    let t0 = Instant::now();
    let report = server.shutdown();
    let waited = t0.elapsed();
    assert!(
        waited < Duration::from_secs(6),
        "shutdown not deadline-bounded: {waited:?}"
    );
    assert!(!report.drained_cleanly, "{}", report.summary());
    assert!(report.forced_connections >= 1, "{}", report.summary());

    let mut resp = String::new();
    partial.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("BUSY draining"), "{resp:?}");
    drop(partial);
    drop(stuck);
    writer.join().unwrap();
    assert_gauge_drained(&svc);
}

/// Sequential connect/request/disconnect churn: the open-connection count
/// returns to zero and the final drain is clean.
#[test]
fn connection_churn_returns_open_count_to_zero() {
    let (svc, queries) = service(small_cfg());
    let server = bind(&svc, &queries, NetConfig::default());
    let addr: SocketAddr = server.local_addr();

    for _ in 0..50 {
        let s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        (&s).write_all(b"PING\n").unwrap();
        assert_eq!(read_lines(s, 1), ["OK pong"]);
    }

    let t0 = Instant::now();
    while server.open_connections() != 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "open-connection count leaked: {}",
            server.open_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.metrics().conns.get() >= 50);

    let report = server.shutdown();
    assert!(report.drained_cleanly, "{}", report.summary());
    assert_eq!(report.forced_connections, 0);
    assert_gauge_drained(&svc);
}

/// Being connected costs no thread: eight persistent connections, all
/// opened before any closes, are all served.
#[test]
fn eight_persistent_connections_are_all_served() {
    let (svc, queries) = service(small_cfg());
    let server = bind(&svc, &queries, NetConfig::default());
    let mut clients: Vec<NetClient> = (0..8)
        .map(|_| NetClient::connect_with(server.local_addr(), &quick_client_cfg()).unwrap())
        .collect();
    for c in &mut clients {
        c.ping().unwrap();
    }
    assert_eq!(server.open_connections(), 8);
    for c in &mut clients {
        assert!(matches!(c.estimate(1, None), Ok(WireResponse::Ok(_))));
    }
    drop(clients);
    let report = server.shutdown();
    assert!(report.drained_cleanly, "{}", report.summary());
    assert_gauge_drained(&svc);
}

/// A connection quiet past `idle_timeout` is closed by the sweep — no
/// sooner, and within a few sweep ticks.
#[test]
fn idle_connections_are_swept() {
    let (svc, queries) = service(small_cfg());
    let cfg = NetConfig {
        idle_timeout: Duration::from_millis(300),
        ..Default::default()
    };
    let server = bind(&svc, &queries, cfg);
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"PING\n").unwrap();
    let mut buf = [0u8; 64];
    let n = s.read(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"OK pong\n");
    let t0 = Instant::now();
    assert_eq!(s.read(&mut buf).unwrap(), 0, "expected EOF from the sweep");
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_millis(250),
        "swept early: {waited:?}"
    );
    assert!(waited < Duration::from_secs(2), "swept late: {waited:?}");
    let report = server.shutdown();
    assert!(report.drained_cleanly, "{}", report.summary());
    assert_gauge_drained(&svc);
}

/// With tracing on, each dispatched request leaves one `net_request` span
/// event, tagged wire (`http` = 0) or HTTP (`http` = 1).
#[test]
fn each_request_yields_one_net_request_span() {
    let (svc, queries) = service(small_cfg());
    let server = bind(&svc, &queries, NetConfig::default());
    cote_obs::set_tracing(true);
    let mut c = NetClient::connect_with(server.local_addr(), &quick_client_cfg()).unwrap();
    c.ping().unwrap();
    let health = http_exchange(server.local_addr(), "GET /healthz HTTP/1.1\r\n\r\n");
    assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
    // The loop hands its events over at the end of the round that served
    // the request, which may be after the client has read the response.
    let mut spans = Vec::new();
    let t0 = Instant::now();
    while spans.len() < 2 && t0.elapsed() < Duration::from_secs(5) {
        spans.extend(
            server
                .take_trace_events()
                .0
                .into_iter()
                .filter(|e| e.phase == cote_obs::phase::NET_REQUEST),
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    cote_obs::set_tracing(false);
    let mut http_flags: Vec<u64> = spans
        .iter()
        .map(|e| e.fields.iter().find(|(k, _)| k == "http").unwrap().1)
        .collect();
    http_flags.sort_unstable();
    assert_eq!(http_flags, [0, 1], "{spans:?}");
    drop(c);
    server.shutdown();
    assert_gauge_drained(&svc);
}

/// The estimate at the highest composite-inner limit of an `ESTIMATE`
/// reply's `"levels":[[limit,secs],…]` array.
fn top_level_seconds(payload: &str) -> f64 {
    let levels = payload
        .split("\"levels\":[[")
        .nth(1)
        .and_then(|rest| rest.split("]]").next())
        .unwrap_or_else(|| panic!("no levels in {payload}"));
    levels
        .split("],[")
        .map(|pair| {
            let (limit, secs) = pair.split_once(',').unwrap();
            (
                limit.parse::<usize>().unwrap(),
                secs.parse::<f64>().unwrap(),
            )
        })
        .max_by_key(|&(limit, _)| limit)
        .unwrap()
        .1
}

/// §3.5's online loop closed over TCP: a client estimates a SQL statement,
/// then reports its real compile times under the name the estimate
/// returned. Outcomes that match the prediction teach the model without an
/// alarm; a step to 3× slower trips the drift gauges, at the thresholds
/// `service/tests/recalibration.rs` pins in process.
#[test]
fn outcomes_over_tcp_drive_recalibration() {
    let (svc, queries) = service(small_cfg());
    let server = bind(&svc, &queries, NetConfig::default());
    let mut c = NetClient::connect_with(server.local_addr(), &quick_client_cfg()).unwrap();
    let sql = "SELECT * FROM t0, t1, t2, t3, t4 \
               WHERE t0.c0 = t1.c0 AND t1.c0 = t2.c0 AND t2.c0 = t3.c0 AND t3.c0 = t4.c0";
    c.send(&WireRequest::EstimateSql { sql: sql.into() })
        .unwrap();
    let estimate = match c.recv().unwrap() {
        WireResponse::Ok(p) => p,
        other => panic!("{other:?}"),
    };
    let name = json_extract_str(&estimate, "query").unwrap().to_string();
    let truth = top_level_seconds(&estimate);
    let learned = format!("OK {{\"status\":\"ok\",\"query\":\"{name}\",\"learned\":true}}");
    let gauge = |c: &mut NetClient, name: &str| {
        let json = c.metrics_json().unwrap();
        cote_net::proto::json_extract_number(&json, name)
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("{name} missing from {json}"))
    };

    for _ in 0..20 {
        c.send_raw(&format!("OUTCOME {name} {truth}")).unwrap();
        assert_eq!(c.recv().unwrap().render().trim_end(), learned);
    }
    assert_eq!(gauge(&mut c, "cote_service_drift_active"), 0);
    for _ in 0..12 {
        c.send_raw(&format!("OUTCOME {name} {}", 3.0 * truth))
            .unwrap();
        assert_eq!(c.recv().unwrap().render().trim_end(), learned);
    }
    assert_eq!(gauge(&mut c, "cote_service_drift_active"), 1);
    assert!(gauge(&mut c, "cote_service_drift_score_milli") >= 1000);
    assert_eq!(svc.recalibrator().observations(), 32);

    // A statement the service never advised teaches nothing; a bad index
    // is an ERR, as for ESTIMATE.
    c.send_raw(&format!(
        "OUTCOME sql-{:016x} 0.5",
        0x0123_4567_89ab_cdefu64
    ))
    .unwrap();
    match c.recv().unwrap() {
        WireResponse::Ok(p) => assert!(p.ends_with("\"learned\":false}"), "{p}"),
        other => panic!("{other:?}"),
    }
    c.send_raw("OUTCOME 99 0.5").unwrap();
    assert!(matches!(c.recv().unwrap(), WireResponse::Err(_)));

    drop(c);
    let report = server.shutdown();
    assert!(report.drained_cleanly, "{}", report.summary());
    assert_gauge_drained(&svc);
}

#[test]
fn outcomes_over_http() {
    let (svc, queries) = service(small_cfg());
    let server = bind(&svc, &queries, NetConfig::default());
    let addr = server.local_addr();
    let post = |path: &str, body: &str| {
        http_exchange(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    };
    let est = post("/estimate", "{\"query\":1}");
    assert!(est.starts_with("HTTP/1.1 200 OK\r\n"), "{est}");
    let est = post(
        "/estimate",
        "{\"sql\":\"SELECT * FROM t0, t1 WHERE t0.c1 = t1.c1\"}",
    );
    let name = json_extract_str(&est, "query").unwrap().to_string();

    let by_index = post("/outcome", "{\"query\":1,\"seconds\":0.001}");
    assert!(by_index.starts_with("HTTP/1.1 200 OK\r\n"), "{by_index}");
    assert!(
        by_index.contains("\"query\":\"chain2\",\"learned\":true"),
        "{by_index}"
    );
    let by_name = post(
        "/outcome",
        &format!("{{\"query\": \"{name}\", \"seconds\": 2.5e-4}}"),
    );
    assert!(by_name.starts_with("HTTP/1.1 200 OK\r\n"), "{by_name}");
    assert!(by_name.contains("\"learned\":true"), "{by_name}");

    for bad in [
        "{}",
        "{\"query\":1}",
        "{\"seconds\":0.5}",
        "{\"query\":1,\"seconds\":0}",
        "{\"query\":1,\"seconds\":-1}",
        "{\"query\":1,\"seconds\":\"fast\"}",
        "{\"query\":0,\"seconds\":0.5}",
        "{\"query\":99,\"seconds\":0.5}",
        "{\"query\":\"sql-xyz\",\"seconds\":0.5}",
        "{\"query\":\"sql-0 1\",\"seconds\":0.5}",
    ] {
        let resp = post("/outcome", bad);
        assert!(resp.starts_with("HTTP/1.1 400 "), "{bad}: {resp}");
        assert!(resp.contains("\"status\":\"error\""), "{bad}: {resp}");
    }
    assert_eq!(svc.recalibrator().observations(), 2);

    let report = server.shutdown();
    assert!(report.drained_cleanly, "{}", report.summary());
    assert_gauge_drained(&svc);
}
