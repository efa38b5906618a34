//! A deliberately minimal HTTP/1.1 server-side implementation.
//!
//! Just enough for a Prometheus scraper, a load balancer's health probe and
//! a JSON client: request line + headers through the same length-capped
//! [`FrameBuffer`](crate::FrameBuffer) as the wire protocol, a
//! `Content-Length`-sized body with its own cap, and `Connection: close`
//! semantics on every response (one request per connection keeps the
//! server's drain story trivial — pipelined/keep-alive clients belong on
//! the wire protocol, which is cheaper anyway). The server drives these
//! pieces incrementally as bytes arrive.

use crate::frame::FrameError;

/// Parsed request head plus body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Method verb, uppercased (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (path + optional query string).
    pub path: String,
    /// Decoded body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

/// Why an HTTP request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or body (HTTP 400).
    BadRequest(String),
    /// Declared body exceeds the configured cap (HTTP 413).
    BodyTooLarge {
        /// The configured cap.
        limit: usize,
    },
    /// Transport-level failure (including frame violations).
    Frame(FrameError),
}

impl From<FrameError> for HttpError {
    fn from(e: FrameError) -> Self {
        HttpError::Frame(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::BodyTooLarge { limit } => write!(f, "body exceeds {limit} bytes"),
            HttpError::Frame(e) => write!(f, "{e}"),
        }
    }
}

/// Upper bound on header lines per request; a scraper sends a handful.
pub(crate) const MAX_HEADERS: usize = 64;

/// True when a first request line looks like HTTP rather than the wire
/// protocol — used by the server to sniff the protocol on a shared port.
pub fn looks_like_http(first_line: &str) -> bool {
    first_line.ends_with("HTTP/1.1") || first_line.ends_with("HTTP/1.0")
}

/// Parse `METHOD path HTTP/1.x` into `(METHOD, path)`; method uppercased.
pub(crate) fn parse_request_line(first_line: &str) -> Result<(String, String), HttpError> {
    let mut parts = first_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => {
            return Err(HttpError::BadRequest(
                "request line is not 'METHOD path HTTP/1.x'".into(),
            ))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported version '{version}'"
        )));
    }
    Ok((method.to_ascii_uppercase(), path.to_string()))
}

/// Apply one (non-blank) header line: validates shape, updates
/// `content_length` when the header is `Content-Length`, enforces the cap.
pub(crate) fn apply_header(
    line: &str,
    max_body: usize,
    content_length: &mut usize,
) -> Result<(), HttpError> {
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| HttpError::BadRequest(format!("header without ':': '{line}'")))?;
    if name.trim().eq_ignore_ascii_case("content-length") {
        *content_length = value
            .trim()
            .parse()
            .map_err(|_| HttpError::BadRequest("unparsable content-length".into()))?;
        if *content_length > max_body {
            return Err(HttpError::BodyTooLarge { limit: max_body });
        }
    }
    Ok(())
}

/// Decode a complete body buffer.
pub(crate) fn decode_body(raw: Vec<u8>) -> Result<String, HttpError> {
    String::from_utf8(raw).map_err(|_| HttpError::BadRequest("body is not valid utf-8".into()))
}

/// Render a full response with `Connection: close` and a sized body.
pub fn render_response(status: u16, content_type: &str, body: &str) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let retry = if status == 503 {
        "Retry-After: 1\r\n"
    } else {
        ""
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n{retry}\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_lines_and_content_length() {
        let (method, path) = parse_request_line("get /metrics HTTP/1.1").unwrap();
        assert_eq!((method.as_str(), path.as_str()), ("GET", "/metrics"));
        let mut len = 0;
        apply_header("Host: x", 64, &mut len).unwrap();
        assert_eq!(len, 0);
        apply_header("content-length: 12", 64, &mut len).unwrap();
        assert_eq!(len, 12);
        assert_eq!(
            decode_body(b"{\"query\": 3}".to_vec()).unwrap(),
            "{\"query\": 3}"
        );
    }

    #[test]
    fn rejects_bad_request_lines_headers_and_oversize_bodies() {
        assert!(matches!(
            parse_request_line("GET"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_request_line("GET / SPDY/3"),
            Err(HttpError::BadRequest(_))
        ));
        let mut len = 0;
        assert!(matches!(
            apply_header("Content-Length: 999", 64, &mut len),
            Err(HttpError::BodyTooLarge { limit: 64 })
        ));
        assert!(matches!(
            apply_header("Content-Length: many", 64, &mut len),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            apply_header("no-colon-header", 64, &mut len),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            decode_body(vec![0xFF, 0xFE]),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn sniffs_http_request_lines() {
        assert!(looks_like_http("GET /metrics HTTP/1.1"));
        assert!(looks_like_http("POST /estimate HTTP/1.0"));
        assert!(!looks_like_http("ESTIMATE 3 batch"));
        assert!(!looks_like_http("PING"));
    }

    #[test]
    fn responses_carry_length_and_close() {
        let r = render_response(200, "text/plain", "ok\n");
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("Content-Length: 3\r\n"));
        assert!(r.contains("Connection: close\r\n"));
        assert!(r.ends_with("\r\n\r\nok\n"));
        let busy = render_response(503, "application/json", "{}");
        assert!(busy.contains("Retry-After: 1\r\n"));
    }
}
