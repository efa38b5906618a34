//! The wire protocol: request grammar, response rendering, and the JSON
//! payloads both the TCP and HTTP front-ends serve.
//!
//! One frame (see [`crate::frame`]) is one request; the server answers every
//! request with exactly one response frame, in order, so clients may
//! pipeline freely. Grammar (verbs are case-insensitive, fields
//! whitespace-separated):
//!
//! ```text
//! request  = "PING"
//!          | "ESTIMATE" index [class]       ; full per-level estimates
//!          | "ESTIMATE" "SQL" text          ; parse+bind+estimate SQL text
//!          | "ADMIT"    index [class]       ; compact admit/shed verdict
//!          | "METRICS"                      ; registry JSON, one line
//!          | "OUTCOME" target seconds       ; report a real compile time
//! index    = 1-based index into the served workload's query list
//! target   = index | "sql-" 16 hex digits    ; the name ESTIMATE SQL returns
//! seconds  = finite decimal > 0              ; observed compile time
//! class    = "interactive" | "reporting" | "batch"   ; default: by size
//! text     = rest of the line (one statement; newlines are frame breaks)
//!
//! response = "OK " payload | "BUSY " reason | "ERR " message
//! ```
//!
//! `BUSY` is the backpressure verdict — admission control shed the request
//! or the server is draining — and is always safe to retry elsewhere/later.
//! `ERR` means the request itself was unacceptable (parse error, bad index)
//! or estimation failed. Payloads never contain `\n` (control bytes are
//! replaced), so one-line framing is preserved by construction.

use cote_service::{Decision, QueryClass, ServiceResponse};
use std::fmt;

/// The statement an `OUTCOME` report is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeTarget {
    /// 1-based query index.
    Index(usize),
    /// Statement fingerprint, written `sql-<16 hex>` as `ESTIMATE SQL`
    /// names it.
    Fingerprint(u64),
}

impl fmt::Display for OutcomeTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutcomeTarget::Index(index) => write!(f, "{index}"),
            OutcomeTarget::Fingerprint(fp) => write!(f, "sql-{fp:016x}"),
        }
    }
}

/// A parsed wire request.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Liveness probe.
    Ping,
    /// Full estimate: per-level compile-time estimates plus the advice.
    Estimate {
        /// 1-based query index.
        index: usize,
        /// Explicit class; `None` lets the server classify by query size.
        class: Option<QueryClass>,
    },
    /// Full estimate of a SQL statement bound against the served catalog.
    EstimateSql {
        /// The statement text (one line — frames are newline-delimited).
        sql: String,
    },
    /// Compact admission verdict (no per-level payload).
    Admit {
        /// 1-based query index.
        index: usize,
        /// Explicit class; `None` lets the server classify by query size.
        class: Option<QueryClass>,
    },
    /// One-line JSON dump of the service metrics registry.
    Metrics,
    /// The observed compile time of a previously estimated statement, fed
    /// to the online recalibrator.
    Outcome {
        /// Which statement.
        target: OutcomeTarget,
        /// Observed seconds (finite, positive).
        seconds: f64,
    },
}

impl WireRequest {
    /// Render as one request frame (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            WireRequest::Ping => "PING".into(),
            WireRequest::Estimate { index, class } => match class {
                Some(c) => format!("ESTIMATE {index} {}", c.name()),
                None => format!("ESTIMATE {index}"),
            },
            WireRequest::EstimateSql { sql } => format!("ESTIMATE SQL {sql}"),
            WireRequest::Admit { index, class } => match class {
                Some(c) => format!("ADMIT {index} {}", c.name()),
                None => format!("ADMIT {index}"),
            },
            WireRequest::Metrics => "METRICS".into(),
            // f64 Display is shortest-round-trip, so this parses back
            // bit-identical.
            WireRequest::Outcome { target, seconds } => format!("OUTCOME {target} {seconds}"),
        }
    }
}

/// Parse a query class name (case-insensitive).
pub fn parse_class(s: &str) -> Option<QueryClass> {
    QueryClass::ALL
        .into_iter()
        .find(|c| c.name().eq_ignore_ascii_case(s))
}

/// Parse one request frame.
pub fn parse_request(line: &str) -> Result<WireRequest, String> {
    let mut parts = line.split_whitespace();
    let verb = parts.next().ok_or("empty request")?;
    let req = if verb.eq_ignore_ascii_case("PING") {
        WireRequest::Ping
    } else if verb.eq_ignore_ascii_case("METRICS") {
        WireRequest::Metrics
    } else if verb.eq_ignore_ascii_case("ESTIMATE") || verb.eq_ignore_ascii_case("ADMIT") {
        let second = parts.next().ok_or("missing query index")?;
        if verb.eq_ignore_ascii_case("ESTIMATE") && second.eq_ignore_ascii_case("SQL") {
            // Rest-of-line capture: everything after the SQL marker is the
            // statement, whitespace and all.
            let after_verb = line.trim_start()[verb.len()..].trim_start();
            let sql = after_verb[second.len()..].trim();
            if sql.is_empty() {
                return Err("ESTIMATE SQL needs a statement".into());
            }
            return Ok(WireRequest::EstimateSql {
                sql: sql.to_string(),
            });
        }
        let index: usize = second
            .parse()
            .map_err(|_| "query index must be a positive integer".to_string())?;
        if index == 0 {
            return Err("query index is 1-based".into());
        }
        let class = match parts.next() {
            None => None,
            Some(s) => Some(parse_class(s).ok_or_else(|| format!("unknown class '{s}'"))?),
        };
        if verb.eq_ignore_ascii_case("ESTIMATE") {
            WireRequest::Estimate { index, class }
        } else {
            WireRequest::Admit { index, class }
        }
    } else if verb.eq_ignore_ascii_case("OUTCOME") {
        let target = parse_target(parts.next().ok_or("missing outcome target")?)?;
        let seconds = parts
            .next()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("outcome seconds must be a finite number > 0")?;
        WireRequest::Outcome { target, seconds }
    } else {
        return Err(format!("unknown verb '{verb}'"));
    };
    match parts.next() {
        Some(extra) => Err(format!("unexpected trailing token '{extra}'")),
        None => Ok(req),
    }
}

/// Parse an `OUTCOME` target: a 1-based index or `sql-<16 hex>`.
fn parse_target(s: &str) -> Result<OutcomeTarget, String> {
    if s.get(..4).is_some_and(|p| p.eq_ignore_ascii_case("sql-")) {
        let hex = &s[4..];
        return match u64::from_str_radix(hex, 16) {
            Ok(fp) if hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
                Ok(OutcomeTarget::Fingerprint(fp))
            }
            _ => Err(format!(
                "malformed statement name '{s}' (want sql-<16 hex digits>)"
            )),
        };
    }
    match s.parse() {
        Ok(0) => Err("query index is 1-based".into()),
        Ok(index) => Ok(OutcomeTarget::Index(index)),
        Err(_) => Err("outcome target must be a query index or sql-<16 hex digits>".into()),
    }
}

/// One response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// Success; payload is a token or one-line JSON.
    Ok(String),
    /// Shed under load (admission control, connection cap, or drain).
    Busy(String),
    /// The request failed (malformed, bad index, estimator error).
    Err(String),
}

/// Replace bytes that would break one-line framing.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_control() { ' ' } else { c })
        .collect()
}

impl WireResponse {
    /// Render as one frame, newline-terminated.
    pub fn render(&self) -> String {
        match self {
            WireResponse::Ok(p) => format!("OK {}\n", sanitize(p)),
            WireResponse::Busy(r) => format!("BUSY {}\n", sanitize(r)),
            WireResponse::Err(m) => format!("ERR {}\n", sanitize(m)),
        }
    }

    /// Parse one response frame (the client side).
    pub fn parse(line: &str) -> Result<WireResponse, String> {
        let (status, rest) = match line.split_once(' ') {
            Some((s, r)) => (s, r.to_string()),
            None => (line, String::new()),
        };
        match status {
            "OK" => Ok(WireResponse::Ok(rest)),
            "BUSY" => Ok(WireResponse::Busy(rest)),
            "ERR" => Ok(WireResponse::Err(rest)),
            other => Err(format!("unknown status '{other}'")),
        }
    }

    /// True for `OK`.
    pub fn is_ok(&self) -> bool {
        matches!(self, WireResponse::Ok(_))
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// JSON body for an admitted decision. `full` controls whether the
/// per-level estimate array rides along (`ESTIMATE`) or not (`ADMIT`).
fn admitted_json(query_name: &str, resp: &ServiceResponse, full: bool) -> String {
    let (advice, cached) = match &resp.decision {
        Decision::Admitted { advice, cached } => (advice, *cached),
        _ => unreachable!("admitted_json on a non-admitted decision"),
    };
    let mut out = format!(
        "{{\"status\":\"ok\",\"query\":\"{}\",\"choice\":\"{}\",\"cached\":{},\"degraded\":{}",
        json_escape(query_name),
        json_escape(&advice.choice.label()),
        cached,
        advice.degraded,
    );
    if full {
        out.push_str(",\"levels\":[");
        for (i, (limit, secs)) in advice.levels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{limit},{secs}]"));
        }
        out.push(']');
    }
    out.push_str(&format!(",\"elapsed_us\":{}}}", resp.elapsed.as_micros()));
    out
}

/// Map a service verdict onto the wire: `Admitted` → `OK` + JSON payload,
/// `Shed` → `BUSY reason`, `Failed` → `ERR`.
pub fn decision_response(query_name: &str, resp: &ServiceResponse, full: bool) -> WireResponse {
    match &resp.decision {
        Decision::Admitted { .. } => WireResponse::Ok(admitted_json(query_name, resp, full)),
        Decision::Shed { reason } => WireResponse::Busy(reason.name().into()),
        Decision::Failed { error } => WireResponse::Err(format!("estimation failed: {error}")),
    }
}

/// Minimal JSON field extraction for the flat `POST` bodies: finds `"key"`
/// at any nesting and returns the raw text of its numeric value (sign,
/// digits, point, exponent), left for the caller to parse.
pub fn json_extract_number<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = json_value_after_key(body, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    Some(&rest[..end]).filter(|n| !n.is_empty())
}

/// Minimal JSON field extraction: the string value of `"key"`, unescaped
/// only trivially (no `\uXXXX` handling — class names never need it).
pub fn json_extract_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = json_value_after_key(body, key)?;
    let rest = rest.strip_prefix('"')?;
    rest.split('"').next()
}

/// Full JSON string extraction with escape handling, for the `"sql"` field
/// of `POST /estimate` bodies (statements legitimately contain quotes,
/// backslashes only via escapes). Supports `\" \\ \/ \n \r \t \uXXXX`.
pub fn json_extract_string(body: &str, key: &str) -> Option<String> {
    let rest = json_value_after_key(body, key)?;
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

fn json_value_after_key<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = body.find(&needle)? + needle.len();
    let rest = body[at..].trim_start();
    let rest = rest.strip_prefix(':')?;
    Some(rest.trim_start())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        assert_eq!(parse_request("PING").unwrap(), WireRequest::Ping);
        assert_eq!(parse_request("ping").unwrap(), WireRequest::Ping);
        assert_eq!(parse_request("METRICS").unwrap(), WireRequest::Metrics);
        assert_eq!(
            parse_request("ESTIMATE 3").unwrap(),
            WireRequest::Estimate {
                index: 3,
                class: None
            }
        );
        assert_eq!(
            parse_request("estimate 12 Batch").unwrap(),
            WireRequest::Estimate {
                index: 12,
                class: Some(QueryClass::Batch)
            }
        );
        assert_eq!(
            parse_request("ADMIT 1 interactive").unwrap(),
            WireRequest::Admit {
                index: 1,
                class: Some(QueryClass::Interactive)
            }
        );
    }

    #[test]
    fn parse_estimate_sql_captures_the_rest_of_the_line() {
        let req = parse_request("ESTIMATE SQL SELECT * FROM t0, t1 WHERE t0.c0 = t1.c0").unwrap();
        assert_eq!(
            req,
            WireRequest::EstimateSql {
                sql: "SELECT * FROM t0, t1 WHERE t0.c0 = t1.c0".into()
            }
        );
        // Case-insensitive marker, round-trips through render.
        let req = parse_request("estimate sql select * from t0").unwrap();
        assert_eq!(parse_request(&req.render()).unwrap(), req);
        assert!(parse_request("ESTIMATE SQL").is_err());
        assert!(parse_request("ESTIMATE SQL   ").is_err());
        // ADMIT has no SQL form: "SQL" is not an index.
        assert!(parse_request("ADMIT SQL SELECT 1").is_err());
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        for bad in [
            "",
            "  ",
            "NOPE",
            "ESTIMATE",
            "ESTIMATE x",
            "ESTIMATE 0",
            "ESTIMATE -1",
            "ESTIMATE 1 warp",
            "ESTIMATE 1 batch extra",
            "PING 2",
            "METRICS json extra",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn response_round_trips_and_sanitizes() {
        for r in [
            WireResponse::Ok("{\"a\":1}".into()),
            WireResponse::Busy("queue-full".into()),
            WireResponse::Err("bad index".into()),
        ] {
            let line = r.render();
            assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
            assert_eq!(WireResponse::parse(line.trim_end()).unwrap(), r);
        }
        let evil = WireResponse::Err("two\nlines".into());
        assert_eq!(evil.render(), "ERR two lines\n");
        assert!(WireResponse::parse("WAT hi").is_err());
    }

    #[test]
    fn json_helpers_extract_flat_fields() {
        let body = "{ \"query\": 7, \"class\" : \"batch\" }";
        assert_eq!(json_extract_number(body, "query"), Some("7"));
        assert_eq!(json_extract_str(body, "class"), Some("batch"));
        assert_eq!(json_extract_number(body, "missing"), None);
        assert_eq!(json_extract_number("{\"query\":\"x\"}", "query"), None);
        assert_eq!(
            json_extract_number("{\"s\": -2.5e-3}", "s"),
            Some("-2.5e-3")
        );
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_extract_string_handles_escapes() {
        let body = "{\"sql\": \"SELECT * FROM t WHERE c = 'it''s \\\"x\\\"\\n'\"}";
        assert_eq!(
            json_extract_string(body, "sql").as_deref(),
            Some("SELECT * FROM t WHERE c = 'it''s \"x\"\n'")
        );
        assert_eq!(
            json_extract_string("{\"sql\":\"\\u0041B\"}", "sql").as_deref(),
            Some("AB")
        );
        assert_eq!(json_extract_string("{\"sql\": 5}", "sql"), None);
        assert_eq!(json_extract_string("{\"sql\":\"unterminated", "sql"), None);
        assert_eq!(json_extract_string("{\"sql\":\"bad\\q\"}", "sql"), None);
    }
}
