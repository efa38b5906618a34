//! `cote serve`: the estimation daemon, on stdin and (with `--listen`) on
//! the network.

use crate::commands::quick_cote;
use cote_common::{CoteError, Result};
use cote_net::{FrameError, LineReader, NetConfig, NetServer, MAX_LINE_BYTES};
use cote_optimizer::OptimizerConfig;
use cote_query::Query;
use cote_service::{CoteService, Decision, QueryClass, ServiceConfig};
use cote_workloads::{by_name, Workload};
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

fn class_of(q: &Query) -> QueryClass {
    QueryClass::from_table_count(q.total_tables())
}

/// `cote serve <workload> [--listen ADDR] [--trace FILE]` — the daemon.
///
/// stdin drives it interactively: each line is a 1-based query index
/// (optionally `N interactive|reporting|batch`); `done N SECS` reports a
/// real elapsed compile time back into the online recalibrator; `report`
/// prints the metrics report, `metrics` / `metrics json` expose the
/// registry (Prometheus text / JSON), `quit` (or EOF) exits. With
/// `--listen ADDR` the same service also answers the wire protocol and
/// HTTP on that address (`127.0.0.1:0` picks an ephemeral port, printed on
/// startup). `--trace FILE` streams worker and `net_request` span events
/// as JSONL through the size-capped writer (`--trace-max-bytes`, 0 =
/// unlimited). Shutdown
/// gracefully drains network connections and queued estimates, then
/// writes a final metrics dump (the stdin protocol's stand-in for
/// dump-on-SIGTERM). stdin and the network read lines through the same
/// length-capped splitter, so no input can allocate unboundedly.
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
            let server =
                NetServer::bind(Arc::clone(&svc), Arc::clone(&queries), addr, a.net.clone())
                    .map_err(|e| bad(format!("bind {addr}: {e}")))?;
            // Exact line the CI smoke job (and humans) scrape the port from.
            eprintln!("listening on {}", server.local_addr());
            Some(server)
        }
        None => None,
    };
    eprintln!(
        "serving {} ({n} queries); enter <index> [class], 'report', 'metrics [json]' or 'quit'",
        a.workload.name
    );
    let stdin = std::io::stdin();
    let mut reader = LineReader::new(stdin.lock(), MAX_LINE_BYTES);
    loop {
        let line = match reader.read_line() {
            Ok(Some(line)) => line,
            Ok(None) => break, // EOF: shut down
            Err(FrameError::Oversize { limit }) => {
                eprintln!("input line exceeds {limit} bytes; ignored");
                match reader.skip_line() {
                    Ok(true) => continue,
                    Ok(false) => break,
                    Err(e) => return Err(bad(format!("stdin: {e}"))),
                }
            }
            Err(FrameError::InvalidUtf8) => {
                eprintln!("input line is not valid utf-8; ignored");
                continue;
            }
            Err(FrameError::Truncated) => break,
            Err(FrameError::Io(e)) => return Err(bad(format!("stdin: {e}"))),
        };
        let mut parts = line.split_whitespace();
        match parts.next() {
            None => continue,
            Some("quit") | Some("exit") => break,
            Some("report") => {
                print!("{}", svc.report());
                continue;
            }
            Some("metrics") => {
                match parts.next() {
                    Some("json") => println!("{}", svc.metrics().json()),
                    _ => print!("{}", svc.metrics().prometheus_text()),
                }
                continue;
            }
            Some("done") => {
                // `done N SECS`: report a real compile time back into the
                // online recalibrator for query N's cached advice.
                let idx: Option<usize> = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .filter(|i| (1..=n).contains(i))
                    .map(|i: usize| i - 1);
                let secs: Option<f64> = parts.next().and_then(|t| t.parse().ok());
                match (idx, secs) {
                    (Some(i), Some(secs)) if secs > 0.0 => {
                        if svc.report_outcome(&queries[i], secs) {
                            println!("{}: outcome {secs:.6}s learned", queries[i].name);
                        } else {
                            println!(
                                "{}: outcome ignored (no cached advice or recal off)",
                                queries[i].name
                            );
                        }
                    }
                    _ => eprintln!("usage: done <1..={n}> <seconds>"),
                }
                continue;
            }
            Some(tok) => {
                let idx: usize = match tok.parse() {
                    Ok(i) if (1..=n).contains(&i) => i - 1,
                    _ => {
                        eprintln!("expected 1..={n}, 'done N SECS', 'report' or 'quit'");
                        continue;
                    }
                };
                let q = &queries[idx];
                let class = match parts.next() {
                    Some("interactive") => QueryClass::Interactive,
                    Some("reporting") => QueryClass::Reporting,
                    Some("batch") => QueryClass::Batch,
                    Some(other) => {
                        eprintln!("unknown class '{other}'");
                        continue;
                    }
                    None => class_of(q),
                };
                let resp = svc.submit(q, class);
                match resp.decision {
                    Decision::Admitted { advice, cached } => {
                        let src = if cached { "cache" } else { "fresh" };
                        println!(
                            "{}: {} [{src}, {:?}, class {}]",
                            q.name,
                            advice.choice.label(),
                            resp.elapsed,
                            class.name()
                        );
                        for (limit, secs) in &advice.levels {
                            println!("    level {limit:>3}: est {:.3}ms", secs * 1e3);
                        }
                    }
                    Decision::Shed { reason } => {
                        println!("{}: shed ({})", q.name, reason.name())
                    }
                    Decision::Failed { error } => println!("{}: failed: {error}", q.name),
                }
                flush_trace(&svc, server.as_ref(), &mut tracer)?;
            }
        }
    }
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
}
