//! Transport-independent request handling.
//!
//! [`NetServer`] moves bytes for two protocols (the line wire grammar and
//! minimal HTTP/1.1); this module holds what the requests mean: a
//! [`WireHandler`] turns one parsed request into one response, with no
//! knowledge of sockets, buffers or readiness.
//!
//! [`ServiceHandler`] is the estimation-daemon implementation (resolve the
//! query, submit to [`CoteService`], render the decision). The
//! `cote-gateway` crate provides a second implementation that forwards
//! requests to a consistent-hash ring of backends — same trait, same
//! server.
//!
//! [`NetServer`]: crate::NetServer

use crate::http::{self, HttpRequest};
use crate::metrics::NetMetrics;
use crate::proto::{self, WireRequest, WireResponse};
use cote_query::Query;
use cote_service::{CoteService, QueryClass};
use std::sync::Arc;

/// One request in, one response out — shared by every transport.
pub trait WireHandler: Send + Sync + 'static {
    /// Answer one wire frame (the raw request line, no terminator).
    fn handle_wire(&self, line: &str) -> WireResponse;

    /// Answer one parsed HTTP request; returns the full rendered response.
    fn handle_http(&self, req: &HttpRequest) -> String;
}

/// Map a wire verdict onto an HTTP response: `OK` JSON → 200, `BUSY` →
/// 503 + Retry-After, `ERR` → 400 with a structured error body.
pub fn wire_to_http(resp: &WireResponse) -> String {
    match resp {
        WireResponse::Ok(json) => http::render_response(200, "application/json", json),
        WireResponse::Busy(reason) => http::render_response(
            503,
            "application/json",
            &format!("{{\"status\":\"busy\",\"reason\":\"{reason}\"}}"),
        ),
        WireResponse::Err(msg) => http::render_response(
            400,
            "application/json",
            &format!(
                "{{\"status\":\"error\",\"error\":\"{}\"}}",
                proto::json_escape(msg)
            ),
        ),
    }
}

/// Translate a `POST /estimate` JSON body into the equivalent wire request
/// plus the explicit class, if any (the wire grammar carries the class
/// inline for index requests but has no slot for it on `ESTIMATE SQL`;
/// in-process handlers can still honor it). `Err` carries the full
/// rendered 400 response.
pub fn http_body_to_wire(body: &str) -> Result<(WireRequest, Option<QueryClass>), String> {
    let bad = |msg: &str| {
        http::render_response(
            400,
            "application/json",
            &format!("{{\"status\":\"error\",\"error\":\"{msg}\"}}"),
        )
    };
    let class = match body.contains("\"class\"") {
        true => match proto::json_extract_str(body, "class").and_then(proto::parse_class) {
            Some(c) => Some(c),
            None => return Err(bad("unknown class")),
        },
        false => None,
    };
    if body.contains("\"sql\"") {
        return match proto::json_extract_string(body, "sql") {
            Some(sql) => Ok((WireRequest::EstimateSql { sql }, class)),
            None => Err(bad("malformed sql field")),
        };
    }
    match proto::json_extract_u64(body, "query") {
        Some(index) => Ok((
            WireRequest::Estimate {
                index: index as usize,
                class,
            },
            class,
        )),
        None => Err(bad(
            "body needs {\\\"query\\\":N} or {\\\"sql\\\":\\\"...\\\"}",
        )),
    }
}

/// The estimation daemon behind the wire: resolves indices/SQL against the
/// served workload and catalog, submits to the service, renders decisions.
pub struct ServiceHandler {
    svc: Arc<CoteService>,
    queries: Arc<Vec<Query>>,
    metrics: NetMetrics,
}

impl ServiceHandler {
    /// Handler serving `svc`; `queries` is the workload the wire protocol's
    /// 1-based indices refer to. Instruments attach to the service registry.
    pub fn new(svc: Arc<CoteService>, queries: Arc<Vec<Query>>) -> Self {
        let metrics = NetMetrics::new(svc.metrics().registry());
        Self {
            svc,
            queries,
            metrics,
        }
    }

    /// The service this handler fronts.
    pub fn service(&self) -> &Arc<CoteService> {
        &self.svc
    }

    /// Resolve a wire index/class pair against the served workload and
    /// submit.
    fn submit(&self, index: usize, class: Option<QueryClass>, full: bool) -> WireResponse {
        let n = self.queries.len();
        if index == 0 || index > n {
            return WireResponse::Err(format!("query index out of range (1..={n})"));
        }
        let query = &self.queries[index - 1];
        let class = class.unwrap_or_else(|| QueryClass::from_table_count(query.total_tables()));
        let resp = self.svc.submit(query, class);
        proto::decision_response(&query.name, &resp, full)
    }

    /// Parse, bind and lower SQL text against the served catalog, then
    /// submit.
    ///
    /// Front-end failures (lex/parse/bind) come back as `ERR sql:
    /// <position>: <message>` — the position is line:column within the
    /// submitted statement — and surface as HTTP 400 on the
    /// `POST /estimate` path.
    fn submit_sql(&self, sql: &str, class: Option<QueryClass>) -> WireResponse {
        let compiled = match cote_sql::compile(sql, self.svc.catalog(), "sql") {
            Ok(c) => c,
            Err(e) => return WireResponse::Err(format!("sql: {}", e.one_line(sql))),
        };
        let name = format!("sql-{:016x}", compiled.fingerprint);
        let query = Query::new(name.clone(), compiled.query.root);
        let class = class.unwrap_or_else(|| QueryClass::from_table_count(query.total_tables()));
        let resp = self.svc.submit(&query, class);
        proto::decision_response(&name, &resp, true)
    }

    /// Answer one parsed wire request.
    fn answer(&self, req: WireRequest) -> WireResponse {
        match req {
            WireRequest::Ping => WireResponse::Ok("pong".into()),
            WireRequest::Metrics => WireResponse::Ok(self.svc.metrics().json()),
            WireRequest::Estimate { index, class } => self.submit(index, class, true),
            WireRequest::EstimateSql { sql } => self.submit_sql(&sql, None),
            WireRequest::Admit { index, class } => self.submit(index, class, false),
        }
    }
}

impl WireHandler for ServiceHandler {
    fn handle_wire(&self, line: &str) -> WireResponse {
        match proto::parse_request(line) {
            Ok(req) => self.answer(req),
            Err(e) => {
                self.metrics.malformed.inc();
                WireResponse::Err(e)
            }
        }
    }

    fn handle_http(&self, req: &HttpRequest) -> String {
        let path = req.path.split('?').next().unwrap_or("");
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => http::render_response(200, "text/plain", "ok\n"),
            ("GET", "/metrics") => http::render_response(
                200,
                "text/plain; version=0.0.4",
                &self.svc.metrics().prometheus_text(),
            ),
            ("POST", "/estimate") => match http_body_to_wire(&req.body) {
                // The SQL wire form has no class slot; honor an explicit
                // HTTP class in-process instead of dropping it.
                Ok((WireRequest::EstimateSql { sql }, class)) => {
                    wire_to_http(&self.submit_sql(&sql, class))
                }
                Ok((wire, _)) => wire_to_http(&self.answer(wire)),
                Err(rendered_400) => rendered_400,
            },
            ("GET", _) => http::render_response(404, "text/plain", "not found\n"),
            _ => http::render_response(405, "text/plain", "method not allowed\n"),
        }
    }
}
