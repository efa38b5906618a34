//! `cote gateway`: the consistent-hash sharding front process.
//!
//! Static ring config, no coordination: every backend is a `--backend`
//! flag pointing at a running `cote serve --listen` daemon (all serving
//! the same workload, so wire indices agree). The gateway serves the same
//! wire + HTTP surface as a backend and is driven by stdin like `cote
//! serve` (`quit`/EOF exits, `metrics` dumps its registry).

use cote_common::{CoteError, Result};
use cote_gateway::{Gateway, GatewayConfig};
use cote_net::{FrameError, LineReader, NetConfig, NetServer, MAX_LINE_BYTES};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::time::Duration;

fn bad(reason: String) -> CoteError {
    CoteError::InvalidQuery { reason }
}

struct GatewayArgs {
    cfg: GatewayConfig,
    listen: String,
    net: NetConfig,
}

fn resolve(s: &str) -> Result<SocketAddr> {
    s.to_socket_addrs()
        .map_err(|e| bad(format!("cannot resolve '{s}': {e}")))?
        .next()
        .ok_or_else(|| bad(format!("'{s}' resolves to no address")))
}

fn parse_args(args: &[String]) -> Result<GatewayArgs> {
    let mut cfg = GatewayConfig::default();
    let mut listen = "127.0.0.1:0".to_string();
    let mut net = NetConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String> {
            it.next()
                .ok_or_else(|| bad(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--backend" => cfg.backends.push(resolve(value("--backend")?)?),
            "--listen" => listen = value("--listen")?.clone(),
            "--vnodes" => {
                cfg.vnodes = value("--vnodes")?
                    .parse()
                    .map_err(|_| bad("--vnodes needs an integer".into()))?
            }
            "--probe-ms" => {
                let ms: u64 = value("--probe-ms")?
                    .parse()
                    .map_err(|_| bad("--probe-ms needs milliseconds".into()))?;
                cfg.probe_interval = Duration::from_millis(ms);
            }
            other => crate::serve::net_flag(&mut net, other, value)?,
        }
    }
    if cfg.backends.is_empty() {
        return Err(bad("need at least one --backend HOST:PORT".into()));
    }
    Ok(GatewayArgs { cfg, listen, net })
}

/// `cote gateway --backend ADDR [--backend ADDR ..] [--listen ADDR]` —
/// route, probe, fail over; stdin `quit` (or EOF) shuts down gracefully.
pub fn run(args: &[String]) -> Result<()> {
    let a = parse_args(args)?;
    let n_backends = a.cfg.backends.len();
    let gw = Gateway::start(a.cfg);
    let listener =
        TcpListener::bind(&a.listen).map_err(|e| bad(format!("bind {}: {e}", a.listen)))?;
    let server = NetServer::start_with(gw.handler(), gw.registry(), listener, a.net)
        .map_err(|e| bad(format!("start server: {e}")))?;
    // Exact line the CI smoke job (and humans) scrape the port from.
    eprintln!("listening on {}", server.local_addr());
    eprintln!(
        "gateway over {n_backends} backend(s), {} vnodes each; enter 'metrics' or 'quit'",
        gw.handler().ring().vnodes(),
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
                    _ => break,
                }
            }
            Err(FrameError::InvalidUtf8) => {
                eprintln!("input line is not valid utf-8; ignored");
                continue;
            }
            Err(_) => break,
        };
        match line.split_whitespace().next() {
            None => continue,
            Some("quit") | Some("exit") => break,
            Some("metrics") => print!("{}", gw.registry().prometheus_text()),
            Some(other) => eprintln!("unknown command '{other}': 'metrics' or 'quit'"),
        }
    }
    eprintln!("shutting down: {}", server.shutdown().summary());
    eprintln!("backends up at exit: {}/{n_backends}", gw.backends_up());
    gw.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_requires_backends_and_reads_flags() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--backend"])).is_err());
        let a = parse_args(&args(&[
            "--backend",
            "127.0.0.1:7001",
            "--backend",
            "127.0.0.1:7002",
            "--listen",
            "127.0.0.1:0",
            "--vnodes",
            "64",
            "--probe-ms",
            "100",
            "--event-loop",
            "--loops",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.cfg.backends.len(), 2);
        assert_eq!(a.cfg.vnodes, 64);
        assert_eq!(a.cfg.probe_interval, Duration::from_millis(100));
        assert_eq!(a.net.loops, 1);
        assert!(parse_args(&args(&["--backend", "127.0.0.1:7001", "--nope"])).is_err());
    }
}
