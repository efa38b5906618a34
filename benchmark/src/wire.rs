//! The wire side: child `cote serve` / `cote gateway` processes, the
//! benchmark's own closed-loop client, and the segmented traffic run.
//!
//! The client is a few dozen lines over `std::net::TcpStream` on purpose:
//! `cote-net` internals stay free to change under the benchmark.

use crate::json::Json;
use crate::reference::Reference;
use crate::sqlgen::Stmt;
use crate::stats::{quantile, steady_high, steady_low};
use crate::trace::{Tracer, NONE};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A child `cote` process that prints `listening on ADDR` and exits on a
/// `quit` line on stdin.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    log: Arc<Mutex<String>>,
    readers: Vec<JoinHandle<()>>,
}

fn pump(
    stream: impl std::io::Read + Send + 'static,
    log: Arc<Mutex<String>>,
    found: Option<mpsc::Sender<String>>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        for line in BufReader::new(stream).lines().map_while(Result::ok) {
            if let (Some(tx), Some(addr)) = (&found, line.strip_prefix("listening on ")) {
                let _ = tx.send(addr.trim().to_string());
            }
            let mut log = log.lock().expect("log lock is never held across a panic");
            log.push_str(&line);
            log.push('\n');
        }
    })
}

impl Server {
    /// Spawn `bin args…` and wait for its `listening on` line.
    pub fn spawn(bin: &Path, args: &[&str]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let log = Arc::new(Mutex::new(String::new()));
        let (tx, rx) = mpsc::channel();
        let readers = vec![
            pump(
                child.stderr.take().expect("piped"),
                Arc::clone(&log),
                Some(tx),
            ),
            pump(child.stdout.take().expect("piped"), Arc::clone(&log), None),
        ];
        let stdin = child.stdin.take();
        let mut server = Server {
            child,
            stdin,
            addr: "0.0.0.0:0".parse().expect("literal"),
            log,
            readers,
        };
        let line = rx.recv_timeout(Duration::from_secs(60)).map_err(|_| {
            format!(
                "{} {args:?} never printed 'listening on':\n{}",
                bin.display(),
                server.log()
            )
        })?;
        server.addr = line
            .parse()
            .map_err(|e| format!("bad listen address '{line}': {e}"))?;
        Ok(server)
    }

    fn log(&self) -> String {
        self.log
            .lock()
            .expect("log lock is never held across a panic")
            .clone()
    }

    /// `VmHWM` of the child, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::stats::proc_status_mb(&self.child.id().to_string(), "VmHWM:")
    }

    /// Send `quit`, wait for the exit, and check the child drained cleanly.
    pub fn quit(mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"quit\n");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    return Err("child did not exit within 20 s of 'quit'".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
        let log = self.log();
        if !status.success() || !log.contains("drained cleanly") {
            return Err(format!(
                "child exited {status} without draining cleanly:\n{log}"
            ));
        }
        Ok(())
    }
}

impl Drop for Server {
    /// Error paths: no child outlives the benchmark.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
    }
}

/// Counts and round-trip times of one client over one stretch of traffic.
#[derive(Default, Clone)]
pub struct Tally {
    pub ok: u64,
    pub failed: u64,
    pub cached: u64,
    pub rtt_ns: Vec<u32>,
    /// The first reply that was not counted OK, for the failure report.
    pub first_failure: Option<String>,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.cached += other.cached;
        self.rtt_ns.extend_from_slice(&other.rtt_ns);
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }

    /// "3 of 10 requests failed, first: …", for a failed check.
    pub fn failure_report(&self) -> String {
        format!(
            "{} of {} requests failed, first: {}",
            self.failed,
            self.failed + self.ok,
            self.first_failure.as_deref().unwrap_or("?")
        )
    }
}

/// One connection sending `ESTIMATE SQL` frames and waiting for each reply.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    /// Next statement index; the client walks `pos, pos + stride, …`.
    pos: usize,
    stride: usize,
    id: u64,
    sent: u64,
    /// The connection gave no reply: nothing more is sent on it.
    dead: bool,
    pub connect_us: f64,
}

/// Record a span for one request in this many.
const SPAN_SAMPLE: u64 = 64;

impl Client {
    pub fn connect(addr: SocketAddr, id: usize, stride: usize) -> Result<Client, String> {
        let t = Instant::now();
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let connect_us = t.elapsed().as_secs_f64() * 1e6;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            stream,
            reader,
            line: String::new(),
            pos: id,
            stride,
            id: id as u64,
            sent: 0,
            dead: false,
            connect_us,
        })
    }

    /// One frame out, one line back.
    fn exchange(&mut self, frame: &[u8]) -> Option<&str> {
        self.stream.write_all(frame).ok()?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(n) if n > 0 => Some(self.line.trim_end()),
            _ => None,
        }
    }

    /// Send the next statement; count the reply as OK only if it is `OK` and
    /// names the fingerprint computed in process.
    fn request(&mut self, stmts: &[Stmt], tally: &mut Tally, tracer: &mut Tracer) {
        let stmt = &stmts[self.pos % stmts.len()];
        self.pos += self.stride;
        self.sent += 1;
        let span = if self.sent.is_multiple_of(SPAN_SAMPLE) {
            tracer.start("net.request", NONE, self.id << 48 | self.sent)
        } else {
            NONE
        };
        let t = Instant::now();
        let replied = self.exchange(&stmt.frame).is_some();
        let rtt = t.elapsed();
        tracer.end(span);
        match replied.then(|| parse_reply(self.line.trim_end())) {
            Some(Some((fp, cached))) if fp == stmt.fingerprint => {
                tally.ok += 1;
                tally.cached += cached as u64;
                tally
                    .rtt_ns
                    .push(rtt.as_nanos().min(u32::MAX as u128) as u32);
            }
            _ => {
                tally.failed += 1;
                self.dead = !replied;
                if tally.first_failure.is_none() {
                    let reply = if replied {
                        &self.line
                    } else {
                        "no reply (closed or timed out)"
                    };
                    tally.first_failure = Some(format!(
                        "'{}' to '{}'",
                        reply.trim_end().chars().take(160).collect::<String>(),
                        stmt.sql
                    ));
                }
            }
        }
    }

    /// A fixed number of requests (warm-up), without spans.
    fn run_count(&mut self, stmts: &[Stmt], n: usize) -> Tally {
        let mut tally = Tally::default();
        for _ in 0..n {
            if self.dead {
                break;
            }
            self.request(stmts, &mut tally, &mut Tracer::new(false));
        }
        tally
    }

    /// Requests back to back until `until`.
    fn run_until(&mut self, stmts: &[Stmt], until: Instant, tracer: &mut Tracer) -> Tally {
        let mut tally = Tally::default();
        while !self.dead && Instant::now() < until {
            self.request(stmts, &mut tally, tracer);
        }
        tally
    }

    /// The server's `METRICS` registry dump.
    pub fn metrics(&mut self) -> Result<Json, String> {
        let line = self.exchange(b"METRICS\n").ok_or("no reply to METRICS")?;
        let body = line
            .strip_prefix("OK ")
            .ok_or_else(|| format!("METRICS answered: {line}"))?;
        Json::parse(body)
    }
}

/// `OK {…"query":"sql-<16 hex>",…"cached":true|false,…}` → (fingerprint, cached).
fn parse_reply(line: &str) -> Option<(u64, bool)> {
    let body = line.strip_prefix("OK ")?;
    let at = body.find("\"query\":\"sql-")? + 13;
    let fp = u64::from_str_radix(body.get(at..at + 16)?, 16).ok()?;
    Some((fp, body.contains("\"cached\":true")))
}

/// Per-segment numbers of a traffic run, and their steady statistics.
pub struct Traffic {
    pub req_per_s: f64,
    pub rtt_p50_us: f64,
    pub rtt_p99_us: f64,
    pub rtt_p999_us: f64,
    pub total: Tally,
}

/// Closed-loop traffic from every client for `segments` stretches of
/// `segment` each, every stretch priced in reference seconds. A metric is
/// the favourable quartile of its per-segment values (see
/// [`crate::stats::steady_low`]); `rtt_p999_us` pools every request.
pub fn traffic(
    clients: &mut [Client],
    stmts: &[Stmt],
    segment: Duration,
    segments: usize,
    reference: &mut Reference,
    tracer: &mut Tracer,
) -> Result<Traffic, String> {
    let start = Instant::now() + Duration::from_millis(5);
    let mut forks: Vec<Tracer> = clients.iter().map(|_| tracer.fork()).collect();
    // Every client samples the core clock on its own thread, at the
    // boundaries between segments.
    let per_client: Vec<(Vec<Tally>, Reference)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(forks.iter_mut())
            .map(|(c, t)| {
                s.spawn(move || {
                    let mut clock = Reference::new();
                    std::thread::sleep(start.saturating_duration_since(Instant::now()));
                    let tallies = (1..=segments as u32)
                        .map(|k| {
                            let tally = c.run_until(stmts, start + segment * k, t);
                            clock.tick();
                            tally
                        })
                        .collect::<Vec<_>>();
                    (tallies, clock)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for f in forks {
        tracer.absorb(f);
    }
    let (per_client, clocks): (Vec<Vec<Tally>>, Vec<Reference>) = per_client.into_iter().unzip();
    for c in clocks {
        reference.absorb(c);
    }
    let (mut rate, mut p50, mut p99, mut all_us) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut total = Tally::default();
    for k in 0..segments {
        let mut seg = Tally::default();
        for c in &per_client {
            seg.merge(&c[k]);
        }
        if seg.rtt_ns.is_empty() {
            return Err(format!("segment {k}: {}", seg.failure_report()));
        }
        let speed = reference.speed(start + segment * k as u32, start + segment * (k as u32 + 1));
        let us: Vec<f64> = seg.rtt_ns.iter().map(|&n| n as f64 / 1e3 * speed).collect();
        rate.push(seg.ok as f64 / (segment.as_secs_f64() * speed));
        p50.push(quantile(&us, 0.50));
        p99.push(quantile(&us, 0.99));
        all_us.extend_from_slice(&us);
        total.merge(&seg);
    }
    Ok(Traffic {
        req_per_s: steady_high(&rate),
        rtt_p50_us: steady_low(&p50),
        rtt_p99_us: steady_low(&p99),
        rtt_p999_us: quantile(&all_us, 0.999),
        total,
    })
}

/// `clients` connections to `addr`, client `i` walking statements
/// `i, i + clients, …`.
pub fn connect_all(addr: SocketAddr, clients: usize) -> Result<Vec<Client>, String> {
    (0..clients)
        .map(|i| Client::connect(addr, i, clients))
        .collect()
}

/// The same fixed number of warm-up requests from every client.
pub fn warm_up(clients: &mut [Client], stmts: &[Stmt], per_client: usize) -> Tally {
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(move || c.run_count(stmts, per_client)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Tally::default();
    for t in &tallies {
        total.merge(t);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_parsing() {
        let ok = "OK {\"status\":\"ok\",\"query\":\"sql-00000000000000ff\",\"choice\":\"x\",\"cached\":true,\"degraded\":false}";
        assert_eq!(parse_reply(ok), Some((255, true)));
        assert_eq!(
            parse_reply(&ok.replace("true", "false")),
            Some((255, false))
        );
        assert_eq!(parse_reply("BUSY queue-full"), None);
        assert_eq!(parse_reply("OK pong"), None);
    }
}
