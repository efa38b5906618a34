//! `cote serve`: the estimation daemon, on stdin and (with `--listen`) on
//! the network; both speak the one wire grammar through one handler.

use crate::commands::quick_cote;
use cote_common::{CoteError, Result};
use cote_net::{
    FrameError, LineReader, NetConfig, NetServer, ServiceHandler, WireHandler, WireResponse,
    MAX_LINE_BYTES,
};
use cote_optimizer::OptimizerConfig;
use cote_service::{CoteService, ServiceConfig};
use cote_workloads::{by_name, Workload};
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

struct ServeArgs {
    workload: Workload,
    cfg: ServiceConfig,
    net: NetConfig,
    /// `--listen ADDR`: also serve TCP/HTTP on this address.
    listen: Option<String>,
    /// `--trace FILE`: write span events as JSONL.
    trace: Option<String>,
    /// `--trace-max-bytes B`: cap the trace file (0 = unlimited).
    trace_max_bytes: u64,
}

fn bad(reason: String) -> CoteError {
    CoteError::InvalidQuery { reason }
}

/// The transport flags `cote serve` and `cote gateway` share; any other
/// flag is an error.
pub(crate) fn net_flag<'a>(
    net: &mut NetConfig,
    flag: &str,
    mut value: impl FnMut(&str) -> Result<&'a String>,
) -> Result<()> {
    let mut number = |unit: &str| -> Result<usize> {
        value(flag)?
            .parse()
            .map_err(|_| bad(format!("{flag} needs {unit}")))
    };
    match flag {
        "--drain-ms" => net.drain_deadline = Duration::from_millis(number("milliseconds")? as u64),
        "--loops" => net.loops = number("an integer")?.max(1),
        "--max-conns" => net.max_conns = number("an integer")?.max(1),
        // Accepted and ignored: benchmark/src/layers.rs still passes it.
        "--event-loop" => {}
        other => return Err(bad(format!("unknown flag '{other}'"))),
    }
    Ok(())
}

fn parse_args(args: &[String]) -> Result<ServeArgs> {
    let mut workload = None;
    let mut cfg = ServiceConfig::default();
    let mut net = NetConfig::default();
    let mut listen = None;
    let mut trace = None;
    let mut trace_max_bytes = 0u64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String> {
            it.next()
                .ok_or_else(|| bad(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(by_name(value("--workload")?)?),
            "--workers" => {
                let n: usize = value("--workers")?
                    .parse()
                    .map_err(|_| bad("--workers needs an integer".into()))?;
                cfg = cfg.with_workers(n);
            }
            "--cache" => {
                let n: usize = value("--cache")?
                    .parse()
                    .map_err(|_| bad("--cache needs an integer".into()))?;
                cfg = cfg.with_cache_capacity(n);
            }
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| bad("--deadline-ms needs milliseconds".into()))?;
                cfg.deadline = Duration::from_millis(ms);
            }
            "--listen" => listen = Some(value("--listen")?.clone()),
            "--trace" => trace = Some(value("--trace")?.clone()),
            "--trace-max-bytes" => {
                trace_max_bytes = value("--trace-max-bytes")?
                    .parse()
                    .map_err(|_| bad("--trace-max-bytes needs a byte count".into()))?
            }
            // Bare first argument doubles as the workload name.
            w if workload.is_none() && !w.starts_with("--") => workload = Some(by_name(w)?),
            other => net_flag(&mut net, other, value)?,
        }
    }
    let workload = workload.ok_or_else(|| bad("missing --workload <name>".into()))?;
    Ok(ServeArgs {
        workload,
        cfg,
        net,
        listen,
        trace,
        trace_max_bytes,
    })
}

fn start_service(w: &Workload, cfg: ServiceConfig) -> Result<CoteService> {
    let config = OptimizerConfig::high(w.mode);
    eprintln!("calibrating on {} (quick per-phase fit)...", w.name);
    let cote = quick_cote(w, &config)?;
    eprintln!(
        "starting cote-service: {} workers, {} cache slots, {:?} deadline",
        cfg.workers, cfg.cache_capacity, cfg.deadline
    );
    Ok(CoteService::start(w.catalog.clone(), cote, cfg))
}

/// Answer wire requests read from `input` until `quit`, `exit` or EOF,
/// writing one response frame per request to `out`: the grammar and the
/// handler the network serves. Lines pass the same length cap as network
/// frames; an oversize or non-UTF-8 line is answered `ERR` and skipped, and
/// a last line with no newline is dropped, as on a connection.
/// `after_line` runs after every answered line.
fn answer_lines(
    input: impl BufRead,
    mut out: impl Write,
    handler: &ServiceHandler,
    mut after_line: impl FnMut() -> Result<()>,
) -> Result<()> {
    let mut reader = LineReader::new(input, MAX_LINE_BYTES);
    loop {
        let resp = match reader.read_line() {
            Ok(None) | Err(FrameError::Truncated) => return Ok(()),
            Ok(Some(line)) => match line.trim() {
                "" => continue,
                "quit" | "exit" => return Ok(()),
                request => handler.handle_wire(request),
            },
            Err(FrameError::Oversize { limit }) => {
                reader.skip_line().map_err(|e| bad(format!("stdin: {e}")))?;
                WireResponse::Err(format!("line exceeds {limit} bytes"))
            }
            Err(FrameError::InvalidUtf8) => WireResponse::Err("invalid utf-8".into()),
            Err(FrameError::Io(e)) => return Err(bad(format!("stdin: {e}"))),
        };
        out.write_all(resp.render().as_bytes())
            .and_then(|()| out.flush())
            .map_err(|e| bad(format!("stdout: {e}")))?;
        after_line()?;
    }
}

/// `cote serve <workload> [--listen ADDR] [--trace FILE]` — the daemon.
///
/// stdin speaks the wire protocol (`net/src/proto.rs`): each line is one
/// request (`ESTIMATE`, `ESTIMATE SQL`, `ADMIT`, `OUTCOME`, `METRICS`,
/// `PING`) answered by one `OK`/`BUSY`/`ERR` line on stdout; `quit`,
/// `exit` or EOF shuts down. `OUTCOME <index | sql-<hex>> <seconds>`
/// reports a real compile time into the online recalibrator. With
/// `--listen ADDR` the same handler also answers the wire protocol and
/// HTTP on that address (`127.0.0.1:0` picks an ephemeral port, printed on
/// startup). `--trace FILE` streams worker and `net_request` span events
/// as JSONL through the size-capped writer (`--trace-max-bytes`, 0 =
/// unlimited). Shutdown gracefully drains network connections and queued
/// estimates, then prints the metrics report and writes a final
/// Prometheus dump to stderr (the stdin protocol's stand-in for
/// dump-on-SIGTERM). Like any filter, `serve` ends at once, by SIGPIPE,
/// when its stdout reader goes away: no drain, no report, no dump.
pub fn serve(args: &[String]) -> Result<()> {
    let mut a = parse_args(args)?;
    let mut tracer = match &a.trace {
        Some(path) => Some(
            cote_obs::BoundedTraceWriter::create(path, a.trace_max_bytes)
                .map_err(|e| bad(format!("creating {path}: {e}")))?,
        ),
        None => None,
    };
    let svc = Arc::new(start_service(&a.workload, a.cfg.clone())?);
    // Trace what is served, not the start-up calibration.
    cote_obs::set_tracing(a.trace.is_some());
    let queries = Arc::new(std::mem::take(&mut a.workload.queries));
    let n = queries.len();
    let handler = Arc::new(ServiceHandler::new(Arc::clone(&svc), queries));
    let mut sink_dropped = 0u64;
    let mut flush_trace = |svc: &CoteService,
                           server: Option<&NetServer>,
                           tracer: &mut Option<cote_obs::BoundedTraceWriter>|
     -> Result<()> {
        if let Some(w) = tracer {
            let (mut events, dropped) = svc.take_trace_events();
            sink_dropped += dropped;
            if let Some(server) = server {
                let (net_events, net_dropped) = server.take_trace_events();
                events.extend(net_events);
                sink_dropped += net_dropped;
            }
            for e in &events {
                w.write_event(e)
                    .map_err(|e| bad(format!("writing trace: {e}")))?;
            }
        }
        Ok(())
    };
    let server = match &a.listen {
        Some(addr) => {
            let server = NetServer::bind(handler.clone(), addr, a.net.clone())
                .map_err(|e| bad(format!("bind {addr}: {e}")))?;
            // Exact line the CI smoke job (and humans) scrape the port from.
            eprintln!("listening on {}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    eprintln!(
        "serving {} ({n} queries); enter ESTIMATE <1..={n}> [class], ESTIMATE SQL <text>, \
         OUTCOME <index|sql-hex> <secs>, METRICS or quit",
        a.workload.name
    );
    answer_lines(std::io::stdin().lock(), std::io::stdout(), &handler, || {
        flush_trace(&svc, server.as_ref(), &mut tracer)
    })?;
    flush_trace(&svc, server.as_ref(), &mut tracer)?;
    if let Some(server) = server {
        eprintln!("shutting down: {}", server.shutdown().summary());
    }
    if !svc.drain(Duration::from_secs(5)) {
        eprintln!("warning: service did not fully drain before dump");
    }
    flush_trace(&svc, None, &mut tracer)?;
    if let Some(w) = tracer {
        let s = w.finish().map_err(|e| bad(format!("closing trace: {e}")))?;
        eprintln!(
            "trace: {} events to {} ({} bytes; {} dropped by the size cap, {} by the sinks, \
             {} by thread buffers)",
            s.written,
            s.path.display(),
            s.bytes,
            s.dropped,
            sink_dropped,
            cote_obs::dropped_events()
        );
        cote_obs::set_tracing(false);
    }
    print!("{}", svc.report());
    eprintln!("── final metrics dump ──");
    eprint!("{}", svc.metrics().prometheus_text());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flags_and_positional_workload() {
        let a = parse_args(&args(&["linear-s"])).unwrap();
        assert_eq!(a.workload.name, "linear_s");
        let a = parse_args(&args(&[
            "--workload",
            "star-p",
            "--workers",
            "3",
            "--cache",
            "128",
            "--deadline-ms",
            "10",
        ]))
        .unwrap();
        assert_eq!(a.cfg.workers, 3);
        assert_eq!(a.cfg.cache_capacity, 128);
        assert_eq!(a.cfg.deadline, Duration::from_millis(10));
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--workers", "2"])).is_err());
        assert!(parse_args(&args(&["linear-s", "--nope"])).is_err());
        assert!(parse_args(&args(&["linear-s", "--workers"])).is_err());
    }

    #[test]
    fn parse_net_flags() {
        let a = parse_args(&args(&[
            "linear-s",
            "--listen",
            "127.0.0.1:0",
            "--loops",
            "3",
            "--max-conns",
            "99",
            "--drain-ms",
            "750",
            "--event-loop",
        ]))
        .unwrap();
        assert_eq!(a.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(a.net.loops, 3);
        assert_eq!(a.net.max_conns, 99);
        assert_eq!(a.net.drain_deadline, Duration::from_millis(750));
        assert!(parse_args(&args(&["linear-s", "--listen"])).is_err());
        assert!(parse_args(&args(&["linear-s", "--handlers", "2"])).is_err());
    }

    #[test]
    fn stdin_lines_get_wire_frames() {
        let w = by_name("linear-s").unwrap();
        let model = cote::TimeModel {
            c_nljn: 1e-6,
            c_mgjn: 1e-6,
            c_hsjn: 1e-6,
            intercept: 0.0,
        };
        let cote = cote::Cote::new(OptimizerConfig::high(w.mode), model);
        let svc = Arc::new(CoteService::start(
            w.catalog.clone(),
            cote,
            ServiceConfig::default(),
        ));
        let name = w.queries[0].name.clone();
        let handler = ServiceHandler::new(Arc::clone(&svc), Arc::new(w.queries));
        let oversize = "x".repeat(MAX_LINE_BYTES + 1);
        let input = format!(
            "ESTIMATE 1\n\nOUTCOME 1 0.001\nMETRICS\nbogus\n{oversize}\nPING\nquit\nPING\n"
        );
        let (mut out, mut answered) = (Vec::new(), 0);
        answer_lines(input.as_bytes(), &mut out, &handler, || {
            answered += 1;
            Ok(())
        })
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        let frames: Vec<&str> = out.lines().collect();
        assert_eq!(frames.len(), 6, "one frame per request up to quit:\n{out}");
        assert_eq!(answered, 6, "the hook runs once per answered line");
        let estimate = format!("OK {{\"status\":\"ok\",\"query\":\"{name}\",\"choice\":");
        assert!(frames[0].starts_with(&estimate), "{}", frames[0]);
        assert!(frames[0].contains("\"levels\":[["), "{}", frames[0]);
        assert_eq!(
            frames[1],
            format!("OK {{\"status\":\"ok\",\"query\":\"{name}\",\"learned\":true}}")
        );
        assert!(frames[2].starts_with("OK {\"counters\":{"), "{}", frames[2]);
        assert_eq!(frames[3], "ERR unknown verb 'bogus'");
        assert_eq!(
            frames[4],
            format!("ERR line exceeds {MAX_LINE_BYTES} bytes")
        );
        assert_eq!(
            frames[5], "OK pong",
            "the reader resynchronizes after an oversize line"
        );
        assert!(svc.drain(Duration::from_secs(5)));
    }
}
