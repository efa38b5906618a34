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
use crate::proto::{self, OutcomeTarget, WireRequest, WireResponse};
use cote_obs::Registry;
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

/// A rendered 400 carrying `msg` in a structured error body.
fn wire_400(msg: &str) -> String {
    wire_to_http(&WireResponse::Err(msg.into()))
}

/// Translate a `POST /estimate` JSON body into the equivalent wire request
/// plus the explicit class, if any (the wire grammar carries the class
/// inline for index requests but has no slot for it on `ESTIMATE SQL`;
/// in-process handlers can still honor it). `Err` carries the full
/// rendered 400 response.
pub fn http_body_to_wire(body: &str) -> Result<(WireRequest, Option<QueryClass>), String> {
    let class = match body.contains("\"class\"") {
        true => match proto::json_extract_str(body, "class").and_then(proto::parse_class) {
            Some(c) => Some(c),
            None => return Err(wire_400("unknown class")),
        },
        false => None,
    };
    if body.contains("\"sql\"") {
        return match proto::json_extract_string(body, "sql") {
            Some(sql) => Ok((WireRequest::EstimateSql { sql }, class)),
            None => Err(wire_400("malformed sql field")),
        };
    }
    match proto::json_extract_number(body, "query").and_then(|n| n.parse().ok()) {
        Some(index) => Ok((WireRequest::Estimate { index, class }, class)),
        None => Err(wire_400("body needs {\"query\":N} or {\"sql\":\"...\"}")),
    }
}

/// Translate a `POST /outcome` JSON body, `{"query":N|"sql-…","seconds":S}`,
/// into the equivalent `OUTCOME` request; the wire parser does the
/// validating. `Err` carries the full rendered 400 response.
fn http_outcome_to_wire(body: &str) -> Result<WireRequest, String> {
    let target = proto::json_extract_str(body, "query")
        .or_else(|| proto::json_extract_number(body, "query"));
    match (target, proto::json_extract_number(body, "seconds")) {
        (Some(target), Some(seconds)) => {
            proto::parse_request(&format!("OUTCOME {target} {seconds}")).map_err(|e| wire_400(&e))
        }
        _ => Err(wire_400(
            "body needs {\"query\":N or \"sql-<hex>\",\"seconds\":S}",
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

    /// The service's instrument registry, which the transport joins.
    pub(crate) fn registry(&self) -> &Registry {
        self.svc.metrics().registry()
    }

    /// The served query a 1-based wire index names.
    fn query(&self, index: usize) -> Result<&Query, WireResponse> {
        let n = self.queries.len();
        (index.checked_sub(1).and_then(|i| self.queries.get(i)))
            .ok_or_else(|| WireResponse::Err(format!("query index out of range (1..={n})")))
    }

    /// Resolve a wire index/class pair against the served workload and
    /// submit.
    fn submit(&self, index: usize, class: Option<QueryClass>, full: bool) -> WireResponse {
        let query = match self.query(index) {
            Ok(query) => query,
            Err(e) => return e,
        };
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
        let name = OutcomeTarget::Fingerprint(compiled.fingerprint).to_string();
        let query = Query::new(name.clone(), compiled.query.root);
        let class = class.unwrap_or_else(|| QueryClass::from_table_count(query.total_tables()));
        let resp = self.svc.submit(&query, class);
        proto::decision_response(&name, &resp, true)
    }

    /// Feed an observed compile time to the online recalibrator. `learned`
    /// is false when the service keeps no usable advice for the statement
    /// (never estimated, evicted, or degraded) or recalibration is off.
    fn outcome(&self, target: OutcomeTarget, seconds: f64) -> WireResponse {
        let (name, learned) = match target {
            OutcomeTarget::Index(index) => match self.query(index) {
                Ok(query) => (query.name.clone(), self.svc.report_outcome(query, seconds)),
                Err(e) => return e,
            },
            OutcomeTarget::Fingerprint(fp) => (
                target.to_string(),
                self.svc.report_outcome_by_fingerprint(fp, seconds),
            ),
        };
        WireResponse::Ok(format!(
            "{{\"status\":\"ok\",\"query\":\"{}\",\"learned\":{learned}}}",
            proto::json_escape(&name)
        ))
    }

    /// Answer one parsed wire request.
    fn answer(&self, req: WireRequest) -> WireResponse {
        match req {
            WireRequest::Ping => WireResponse::Ok("pong".into()),
            WireRequest::Metrics => WireResponse::Ok(self.svc.metrics().json()),
            WireRequest::Estimate { index, class } => self.submit(index, class, true),
            WireRequest::EstimateSql { sql } => self.submit_sql(&sql, None),
            WireRequest::Admit { index, class } => self.submit(index, class, false),
            WireRequest::Outcome { target, seconds } => self.outcome(target, seconds),
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
            ("POST", "/outcome") => match http_outcome_to_wire(&req.body) {
                Ok(wire) => wire_to_http(&self.answer(wire)),
                Err(rendered_400) => rendered_400,
            },
            ("GET", _) => http::render_response(404, "text/plain", "not found\n"),
            _ => http::render_response(405, "text/plain", "method not allowed\n"),
        }
    }
}
