//! The network front-end: an acceptor plus readiness-poller loops driving
//! non-blocking connection state machines. Wire frames and HTTP/1.1 share
//! one port; what requests *mean* lives behind [`WireHandler`].
//!
//! ```text
//!  accept thread ──▶ round-robin ──▶ L loop threads
//!       │ over max_conns?                 │ per loop: Poller (epoll | poll),
//!       │ └▶ "BUSY connections" + close   │   wake pipe + inbox
//!       └─ stops at drain                 │ per conn: FrameBuffer, write
//!                                         │   buffer + cursor, HTTP state
//! ```
//!
//! Module invariants:
//!
//! - Pollers are level-triggered: an event left unhandled repeats, so a
//!   round may stop reading early without losing a wakeup.
//! - Reads stop at backpressure: past `wbuf_high_water` buffered response
//!   bytes a connection loses read interest until the peer drains them.
//! - Every round retries pending flushes, event or not (TCP raises
//!   `EPOLLOUT` only after a large share of the send buffer frees).
//! - Drain = notify (`BUSY draining`, close-after-flush) → flush →
//!   force-close at `drain_deadline`; `open_connections` ends at zero.
//! - Failpoint scope is inherited from the thread that constructs the
//!   server, so scoped faults single out one tier.
//!
//! Connection count is bounded here (`max_conns`); estimation *work* is
//! bounded by the service's admission controller, whose sheds surface as
//! `BUSY <reason>` frames / HTTP 503.

use crate::chaos;
use crate::frame::{FrameBuffer, FrameError, MAX_LINE_BYTES};
use crate::handler::{ServiceHandler, WireHandler};
use crate::http::{self, HttpError, HttpRequest};
use crate::metrics::{NetMetrics, PollMetrics};
use crate::poll::{new_poller, Interest, PollEvent, Poller};
use crate::proto::WireResponse;
use cote_common::failpoint::{self, FaultAction};
use cote_obs::{phase, Registry, Span, TraceEvent, TraceSink};
use cote_query::Query;
use cote_service::CoteService;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Transport knobs. `Default` suits tests and laptops; `max_conns` is the
/// one a deployment sizes (against `ulimit -n`).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Loop threads. Each holds its own poller and connection set;
    /// requests on different loops submit to the service concurrently.
    pub loops: usize,
    /// Open-connection cap across all loops; beyond it, accept sheds with
    /// `BUSY connections`.
    pub max_conns: usize,
    /// Per-line byte cap for wire frames and HTTP header lines.
    pub max_line_bytes: usize,
    /// HTTP body cap (`Content-Length` beyond this is 413).
    pub max_body_bytes: usize,
    /// Idle connections are closed after this long without traffic.
    pub idle_timeout: Duration,
    /// How long shutdown flushes in-flight responses before force-closing.
    pub drain_deadline: Duration,
    /// Write-buffer size past which read interest is dropped
    /// (backpressure) until the peer drains responses.
    pub wbuf_high_water: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            loops: 2,
            max_conns: 4096,
            max_line_bytes: MAX_LINE_BYTES,
            max_body_bytes: MAX_LINE_BYTES,
            idle_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            wbuf_high_water: 64 * 1024,
        }
    }
}

/// What shutdown observed while draining.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// True when every connection finished before the deadline.
    pub drained_cleanly: bool,
    /// Connections force-closed at the deadline.
    pub forced_connections: usize,
    /// Time spent waiting for the drain.
    pub waited: Duration,
}

impl DrainReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.drained_cleanly {
            format!("drained cleanly in {:?}", self.waited)
        } else {
            format!(
                "drain deadline hit after {:?}: force-closed {} connection(s)",
                self.waited, self.forced_connections
            )
        }
    }
}

/// Token reserved for each loop's wake pipe.
const WAKE_TOKEN: u64 = u64::MAX;
/// Poll timeout; also the cadence of idle sweeps and drain checks.
const TICK: Duration = Duration::from_millis(100);
/// Read chunk size (the blocking `LineReader`'s fill size).
const READ_CHUNK: usize = 4096;
/// Pause after a failed `accept`: a persistent failure (`EMFILE` once
/// `max_conns` exceeds `ulimit -n`) must not spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

struct LoopShared {
    inbox: Mutex<VecDeque<TcpStream>>,
    /// Write half of the loop's wake pipe (acceptor + shutdown poke it).
    wake_tx: Mutex<UnixStream>,
}

impl LoopShared {
    fn wake(&self) {
        // A full pipe means a wake is already pending — dropping the byte
        // is fine, the loop will see the flag/inbox on its next pass.
        let _ = self.wake_tx.lock().unwrap().write(&[1]);
    }
}

struct Shared {
    handler: Arc<dyn WireHandler>,
    cfg: NetConfig,
    net: NetMetrics,
    poll: PollMetrics,
    draining: AtomicBool,
    /// Set at the drain deadline: loops close everything immediately.
    force: AtomicBool,
    /// Open connections across all loops (the shed gauge the acceptor
    /// checks).
    open: AtomicUsize,
    forced: AtomicUsize,
    loops: Vec<LoopShared>,
    /// Span events flushed from the loop threads' thread-local buffers.
    trace: TraceSink,
}

/// A running network front-end over one [`WireHandler`].
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    loop_threads: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Serve `svc` on `listener`. `queries` is the workload the wire
    /// protocol's 1-based indices refer to.
    pub fn start(
        svc: Arc<CoteService>,
        queries: Arc<Vec<Query>>,
        listener: TcpListener,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        let handler = Arc::new(ServiceHandler::new(Arc::clone(&svc), queries));
        NetServer::start_with(handler, svc.metrics().registry(), listener, cfg)
    }

    /// Serve an arbitrary [`WireHandler`] on `listener`; transport and
    /// poller instruments register into `registry`.
    pub fn start_with(
        handler: Arc<dyn WireHandler>,
        registry: &Registry,
        listener: TcpListener,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        let local_addr = listener.local_addr()?;
        let loops = cfg.loops.max(1);
        let mut loop_shared = Vec::with_capacity(loops);
        let mut wake_rx = Vec::with_capacity(loops);
        for _ in 0..loops {
            let (tx, rx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            loop_shared.push(LoopShared {
                inbox: Mutex::new(VecDeque::new()),
                wake_tx: Mutex::new(tx),
            });
            wake_rx.push(rx);
        }
        let shared = Arc::new(Shared {
            handler,
            net: NetMetrics::new(registry),
            poll: PollMetrics::new(registry),
            cfg,
            draining: AtomicBool::new(false),
            force: AtomicBool::new(false),
            open: AtomicUsize::new(0),
            forced: AtomicUsize::new(0),
            loops: loop_shared,
            trace: TraceSink::default(),
        });
        let scope = failpoint::thread_scope();
        let loop_threads = wake_rx
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let shared = Arc::clone(&shared);
                let scope = scope.clone();
                std::thread::Builder::new()
                    .name(format!("cote-net-{i}"))
                    .spawn(move || {
                        failpoint::set_thread_scope(&scope);
                        EventLoop::new(shared, i, rx).run()
                    })
                    .expect("spawn net loop")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            let scope = scope.clone();
            std::thread::Builder::new()
                .name("cote-net-accept".into())
                .spawn(move || {
                    failpoint::set_thread_scope(&scope);
                    accept_loop(&shared, &listener)
                })
                .expect("spawn net acceptor")
        };
        Ok(NetServer {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            loop_threads,
        })
    }

    /// Bind `addr` (e.g. `127.0.0.1:0`) and serve.
    pub fn bind(
        svc: Arc<CoteService>,
        queries: Arc<Vec<Query>>,
        addr: &str,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        NetServer::start(svc, queries, TcpListener::bind(addr)?, cfg)
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Network-layer instruments (shared registry).
    pub fn metrics(&self) -> &NetMetrics {
        &self.shared.net
    }

    /// Poller instruments.
    pub fn poll_metrics(&self) -> &PollMetrics {
        &self.shared.poll
    }

    /// Connections currently open across all loops.
    pub fn open_connections(&self) -> usize {
        self.shared.open.load(Ordering::Acquire)
    }

    /// Drain the `net_request` span events the loops have recorded since
    /// the last call (empty unless `cote_obs::set_tracing(true)`). Returns
    /// `(events, dropped)` where `dropped` counts events lost to the cap
    /// since the last drain.
    pub fn take_trace_events(&self) -> (Vec<TraceEvent>, u64) {
        self.shared.trace.take()
    }

    /// Graceful shutdown: stop accepting, answer open connections with
    /// `BUSY draining`, flush half-written responses until the deadline,
    /// force-close the rest, and join every thread.
    pub fn shutdown(mut self) -> DrainReport {
        self.shutdown_impl()
    }

    fn shutdown_impl(&mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::Release);
        // Unblock the acceptor with a loopback connection; if that fails
        // (firewalled 0.0.0.0 bind, exotic setups) fall back on its accept
        // loop noticing the flag at the next real connection.
        let _ = TcpStream::connect_timeout(&wake_addr(self.local_addr), Duration::from_millis(250));
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for l in &self.shared.loops {
            l.wake();
        }
        let deadline = self.shared.cfg.drain_deadline;
        let start = Instant::now();
        let drained = loop {
            if self.shared.open.load(Ordering::Acquire) == 0 {
                break true;
            }
            if start.elapsed() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_micros(500));
        };
        if !drained {
            self.shared.force.store(true, Ordering::Release);
            for l in &self.shared.loops {
                l.wake();
            }
        }
        for h in self.loop_threads.drain(..) {
            let _ = h.join();
        }
        DrainReport {
            drained_cleanly: drained,
            forced_connections: self.shared.forced.load(Ordering::Acquire),
            waited: start.elapsed(),
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.loop_threads.is_empty() {
            let _ = self.shutdown_impl();
        }
    }
}

/// The loopback address shutdown connects to, to wake a blocking acceptor.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        ip if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    let mut next = 0usize;
    for incoming in listener.incoming() {
        if shared.draining.load(Ordering::Acquire) {
            return; // wake-up (or racing) connection: drop it, stop accepting
        }
        let mut stream = match incoming {
            Ok(s) => s,
            Err(_) => {
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        shared.net.conns.inc();
        if failpoint::hit(chaos::ACCEPT_RESET).is_some() {
            continue; // injected accept-time reset: drop without a byte
        }
        let _ = stream.set_nodelay(true);
        if shared.open.load(Ordering::Acquire) >= shared.cfg.max_conns {
            // Still blocking here, so the shed line can be written directly.
            shared.net.conns_shed.inc();
            let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
            let line = WireResponse::Busy("connections".into()).render();
            if stream.write_all(line.as_bytes()).is_ok() {
                shared.net.bytes_out.add(line.len() as u64);
            }
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        // Count before handing off so a burst can't overshoot the cap by
        // more than the race window.
        shared.open.fetch_add(1, Ordering::AcqRel);
        shared.net.conns_active.add(1);
        let target = &shared.loops[next % shared.loops.len()];
        next = next.wrapping_add(1);
        target.inbox.lock().unwrap().push_back(stream);
        target.wake();
    }
}

/// Incremental HTTP request state (head line already consumed).
struct HttpPartial {
    method: String,
    path: String,
    content_length: usize,
    headers_seen: usize,
    in_body: bool,
    t0: Instant,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
    wbuf: Vec<u8>,
    wpos: usize,
    http: Option<HttpPartial>,
    /// Close once the write buffer flushes (HTTP response sent, drain
    /// notice sent, protocol error answered, or peer EOF seen).
    close_after_flush: bool,
    /// The peer half-closed; stop reading, finish writing.
    read_closed: bool,
    drain_notified: bool,
    /// Injected partial write pending: the next flush delivers exactly one
    /// byte and leaves the rest for a later round.
    partial_once: bool,
    backpressured: bool,
    interest: Interest,
    last_activity: Instant,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Should reading pause until the write buffer drains?
    fn backpressure_pending(&self, shared: &Shared) -> bool {
        self.pending_write() >= shared.cfg.wbuf_high_water
    }
}

/// What to do with a connection after driving its state machine.
enum Drive {
    Keep,
    Close,
}

struct EventLoop {
    shared: Arc<Shared>,
    index: usize,
    wake_rx: UnixStream,
    poller: Box<dyn Poller>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl EventLoop {
    fn new(shared: Arc<Shared>, index: usize, wake_rx: UnixStream) -> Self {
        let poller = new_poller().expect("create poller");
        Self {
            shared,
            index,
            wake_rx,
            poller,
            conns: HashMap::new(),
            next_token: 0,
        }
    }

    fn run(mut self) {
        self.shared.poll.loops.add(1);
        self.poller
            .register(self.wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::Read)
            .expect("register wake pipe");
        let mut events: Vec<PollEvent> = Vec::new();
        let mut last_sweep = Instant::now();
        loop {
            events.clear();
            let n = self
                .poller
                .poll(&mut events, Some(TICK))
                .unwrap_or_default();
            if n > 0 {
                self.shared.poll.wakeups.inc();
                self.shared.poll.events.add(n as u64);
            }
            for &ev in &events {
                if ev.token == WAKE_TOKEN {
                    self.drain_wake_pipe();
                    self.adopt_inbox();
                    continue;
                }
                self.dispatch(ev);
            }
            // TCP only reports EPOLLOUT once a large fraction of the send
            // buffer is free, so a flow-controlled connection can accept
            // small writes long before (or without ever) raising an event.
            // Retry pending flushes every round so half-written responses
            // make progress at TICK granularity even with no readiness.
            self.flush_pending();
            // Spans record into a per-thread buffer no other thread can
            // read: hand this round's events to the server's sink.
            self.shared.trace.flush_thread();
            let draining = self.shared.draining.load(Ordering::Acquire);
            if draining {
                if self.shared.force.load(Ordering::Acquire) {
                    self.adopt_inbox();
                    self.force_close_all();
                    break;
                }
                // Adopt any connections the acceptor parked before it saw
                // the flag, so they too get a drain notice.
                self.adopt_inbox();
                self.notify_draining();
                if self.conns.is_empty() {
                    break;
                }
            }
            if last_sweep.elapsed() >= TICK {
                self.sweep_idle();
                last_sweep = Instant::now();
            }
        }
        self.shared.poll.loops.add(-1);
    }

    fn drain_wake_pipe(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
    }

    fn adopt_inbox(&mut self) {
        loop {
            let stream = {
                let mut inbox = self.shared.loops[self.index].inbox.lock().unwrap();
                match inbox.pop_front() {
                    Some(s) => s,
                    None => return,
                }
            };
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .register(stream.as_raw_fd(), token, Interest::Read)
                .is_err()
            {
                self.shared.open.fetch_sub(1, Ordering::AcqRel);
                self.shared.net.conns_active.add(-1);
                continue;
            }
            self.conns.insert(
                token,
                Conn {
                    stream,
                    frames: FrameBuffer::new(self.shared.cfg.max_line_bytes),
                    wbuf: Vec::new(),
                    wpos: 0,
                    http: None,
                    close_after_flush: false,
                    read_closed: false,
                    drain_notified: false,
                    partial_once: false,
                    backpressured: false,
                    interest: Interest::Read,
                    last_activity: Instant::now(),
                },
            );
        }
    }

    fn dispatch(&mut self, ev: PollEvent) {
        let Some(conn) = self.conns.get_mut(&ev.token) else {
            return; // already closed this pass
        };
        conn.last_activity = Instant::now();
        let shared = Arc::clone(&self.shared);
        let mut verdict = Drive::Keep;
        if ev.readable || ev.hangup {
            verdict = on_readable(&shared, conn);
        }
        if matches!(verdict, Drive::Keep) && (ev.writable || conn.pending_write() > 0) {
            verdict = flush(&shared, conn);
        }
        match verdict {
            Drive::Close => self.close(ev.token),
            Drive::Keep => self.update_interest(ev.token),
        }
    }

    /// Recompute the interest set from buffer state and re-register when it
    /// changed (write interest while flushing; read interest unless
    /// backpressured, half-closed, or closing).
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want_write = conn.pending_write() > 0;
        let over_water = conn.pending_write() >= self.shared.cfg.wbuf_high_water;
        if over_water && !conn.backpressured {
            conn.backpressured = true;
            self.shared.poll.backpressure.inc();
            self.shared.poll.backpressured.add(1);
        } else if !over_water && conn.backpressured {
            conn.backpressured = false;
            self.shared.poll.backpressured.add(-1);
        }
        let want_read = !conn.close_after_flush && !conn.read_closed && !conn.backpressured;
        let interest = match (want_read, want_write) {
            (true, true) => Interest::ReadWrite,
            (true, false) => Interest::Read,
            (false, true) => Interest::Write,
            // Nothing to wait for: flushed-and-closing, or peer gone.
            (false, false) => {
                self.close(token);
                return;
            }
        };
        if interest != conn.interest {
            conn.interest = interest;
            let fd = conn.stream.as_raw_fd();
            if self.poller.reregister(fd, token, interest).is_err() {
                self.close(token);
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            if conn.backpressured {
                self.shared.poll.backpressured.add(-1);
            }
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.shared.net.conns_active.add(-1);
            self.shared.open.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Append a `BUSY draining` notice to every connection that hasn't been
    /// told yet, mark it close-after-flush, and try to flush immediately.
    fn notify_draining(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        let shared = Arc::clone(&self.shared);
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if !conn.drain_notified {
                conn.drain_notified = true;
                // A connection mid-HTTP-request gets the HTTP rendering;
                // everyone else the wire line.
                let busy = WireResponse::Busy("draining".into());
                let payload = if conn.http.is_some() {
                    crate::handler::wire_to_http(&busy)
                } else {
                    busy.render()
                };
                shared.net.busy_responses.inc();
                conn.wbuf.extend_from_slice(payload.as_bytes());
                conn.close_after_flush = true;
            }
            match flush(&shared, conn) {
                Drive::Close => self.close(token),
                Drive::Keep => {
                    if self.conns.get(&token).map(|c| c.pending_write() == 0) == Some(true) {
                        self.close(token);
                    } else {
                        self.update_interest(token);
                    }
                }
            }
        }
    }

    /// Flush every connection holding buffered response bytes (O(open
    /// connections) per round — cheap next to the syscalls the round makes).
    fn flush_pending(&mut self) {
        let tokens: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.pending_write() > 0)
            .map(|(&t, _)| t)
            .collect();
        let shared = Arc::clone(&self.shared);
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            match flush(&shared, conn) {
                Drive::Close => self.close(token),
                Drive::Keep => self.update_interest(token),
            }
        }
    }

    fn force_close_all(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.shared.forced.fetch_add(1, Ordering::AcqRel);
            self.close(token);
        }
    }

    fn sweep_idle(&mut self) {
        let timeout = self.shared.cfg.idle_timeout;
        let now = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| now.duration_since(c.last_activity) >= timeout)
            .map(|(&t, _)| t)
            .collect();
        for token in stale {
            self.close(token);
        }
    }
}

/// Read until `WouldBlock`/EOF, then run the protocol state machine over
/// whatever frames became complete.
fn on_readable(shared: &Shared, conn: &mut Conn) -> Drive {
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                if conn.http.is_some() {
                    // EOF mid-HTTP-request: 400.
                    shared.net.malformed.inc();
                    queue_http_error(conn, &HttpError::Frame(FrameError::Truncated));
                } else if !conn.frames.is_empty() {
                    // EOF mid-line: a truncated frame gets no answer.
                    shared.net.malformed.inc();
                }
                break;
            }
            Ok(n) => {
                shared.net.bytes_in.add(n as u64);
                conn.frames.push(&chunk[..n]);
                // Process as we go so the buffer stays ~one chunk deep.
                if let Drive::Close = process_frames(shared, conn) {
                    return Drive::Close;
                }
                if conn.close_after_flush || conn.backpressure_pending(shared) {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Drive::Close,
        }
    }
    if let Drive::Close = process_frames(shared, conn) {
        return Drive::Close;
    }
    if conn.read_closed && conn.pending_write() == 0 {
        return Drive::Close;
    }
    Drive::Keep
}

/// Drive the protocol over buffered bytes: wire frames (possibly many —
/// pipelining) or one incremental HTTP request.
fn process_frames(shared: &Shared, conn: &mut Conn) -> Drive {
    loop {
        if conn.close_after_flush {
            return Drive::Keep; // response(s) queued; ignore further input
        }
        if conn.http.is_some() {
            match drive_http(shared, conn) {
                HttpDrive::NeedMore => return Drive::Keep,
                HttpDrive::Done => continue,
            }
        }
        let line = match conn.frames.next_line() {
            Ok(Some(line)) => line,
            Ok(None) => return Drive::Keep,
            Err(FrameError::Oversize { limit }) => {
                shared.net.malformed.inc();
                let msg = WireResponse::Err(format!("line exceeds {limit} bytes")).render();
                conn.wbuf.extend_from_slice(msg.as_bytes());
                conn.close_after_flush = true;
                return Drive::Keep;
            }
            Err(FrameError::InvalidUtf8) => {
                shared.net.malformed.inc();
                let msg = WireResponse::Err("invalid utf-8".into()).render();
                conn.wbuf.extend_from_slice(msg.as_bytes());
                conn.close_after_flush = true;
                return Drive::Keep;
            }
            Err(_) => return Drive::Close, // unreachable for FrameBuffer
        };
        if line.is_empty() {
            continue; // tolerate blank lines between frames
        }
        let probe = chaos::exempt(&line);
        if !probe && chaos::read_faults() {
            return Drive::Close; // injected mid-exchange reset
        }
        if shared.draining.load(Ordering::Acquire) {
            shared.net.busy_responses.inc();
            let msg = WireResponse::Busy("draining".into()).render();
            conn.wbuf.extend_from_slice(msg.as_bytes());
            conn.close_after_flush = true;
            conn.drain_notified = true;
            return Drive::Keep;
        }
        if http::looks_like_http(&line) {
            shared.net.http_requests.inc();
            match http::parse_request_line(&line) {
                Ok((method, path)) => {
                    conn.http = Some(HttpPartial {
                        method,
                        path,
                        content_length: 0,
                        headers_seen: 0,
                        in_body: false,
                        t0: Instant::now(),
                    });
                }
                Err(e) => {
                    shared.net.malformed.inc();
                    queue_http_error(conn, &e);
                    return Drive::Keep;
                }
            }
            continue;
        }
        // One wire request.
        shared.net.requests.inc();
        let mut span = Span::enter(phase::NET_REQUEST);
        span.record("http", 0);
        let t0 = Instant::now();
        let resp = if !probe && failpoint::hit(chaos::REPLY_BUSY).is_some() {
            WireResponse::Busy("injected".into())
        } else {
            shared.handler.handle_wire(&line)
        };
        if matches!(resp, WireResponse::Busy(_)) {
            shared.net.busy_responses.inc();
        }
        queue_response(conn, resp.render().into_bytes(), !probe);
        shared.net.request_latency.record(t0.elapsed());
    }
}

enum HttpDrive {
    /// Head or body incomplete; wait for more bytes.
    NeedMore,
    /// Response queued (connection will close after flush).
    Done,
}

/// Advance the incremental HTTP parse as far as buffered bytes allow.
fn drive_http(shared: &Shared, conn: &mut Conn) -> HttpDrive {
    loop {
        let http = conn.http.as_mut().expect("drive_http without state");
        if !http.in_body {
            let line = match conn.frames.next_line() {
                Ok(Some(line)) => line,
                Ok(None) => return HttpDrive::NeedMore,
                Err(e) => {
                    shared.net.malformed.inc();
                    queue_http_error(conn, &HttpError::Frame(e));
                    return HttpDrive::Done;
                }
            };
            if line.is_empty() {
                http.in_body = true;
                continue;
            }
            http.headers_seen += 1;
            if http.headers_seen > http::MAX_HEADERS {
                shared.net.malformed.inc();
                queue_http_error(conn, &HttpError::BadRequest("too many headers".into()));
                return HttpDrive::Done;
            }
            if let Err(e) =
                http::apply_header(&line, shared.cfg.max_body_bytes, &mut http.content_length)
            {
                shared.net.malformed.inc();
                queue_http_error(conn, &e);
                return HttpDrive::Done;
            }
            continue;
        }
        // Head complete: wait for the sized body, then answer.
        let body = if http.content_length == 0 {
            String::new()
        } else {
            match conn.frames.take_bytes(http.content_length) {
                Some(raw) => match http::decode_body(raw) {
                    Ok(b) => b,
                    Err(e) => {
                        shared.net.malformed.inc();
                        queue_http_error(conn, &e);
                        return HttpDrive::Done;
                    }
                },
                None => return HttpDrive::NeedMore,
            }
        };
        let http = conn.http.take().expect("http state");
        let req = HttpRequest {
            method: http.method,
            path: http.path,
            body,
        };
        let mut span = Span::enter(phase::NET_REQUEST);
        span.record("http", 1);
        let response = shared.handler.handle_http(&req);
        queue_response(conn, response.into_bytes(), true);
        conn.close_after_flush = true; // Connection: close semantics
        shared.net.request_latency.record(http.t0.elapsed());
        return HttpDrive::Done;
    }
}

/// Queue a response, applying any configured write-path faults (unless
/// `faults` is false — health-check replies are exempt, see
/// [`chaos::exempt`]): corrupt garbles bytes (framing kept), delay stalls
/// the loop (a slow-writer model), reset queues a truncated prefix and closes
/// after flush, and partial makes the next flush deliver exactly one byte so
/// the peer must resume a split frame across loop rounds.
fn queue_response(conn: &mut Conn, mut bytes: Vec<u8>, faults: bool) {
    if !faults {
        conn.wbuf.extend_from_slice(&bytes);
        return;
    }
    if failpoint::hit(chaos::WRITE_CORRUPT).is_some() {
        chaos::corrupt_bytes(&mut bytes);
    }
    if let Some(FaultAction::Delay(d)) = failpoint::hit(chaos::WRITE_DELAY) {
        std::thread::sleep(d);
    }
    if failpoint::hit(chaos::WRITE_RESET).is_some() {
        bytes.truncate(bytes.len() / 2);
        conn.wbuf.extend_from_slice(&bytes);
        conn.close_after_flush = true;
        return;
    }
    if failpoint::hit(chaos::WRITE_PARTIAL).is_some() && bytes.len() > 1 {
        conn.partial_once = true;
    }
    conn.wbuf.extend_from_slice(&bytes);
}

/// Queue the HTTP error response (413 for oversized bodies, 400 otherwise)
/// and close after flush.
fn queue_http_error(conn: &mut Conn, e: &HttpError) {
    let response = match e {
        HttpError::BodyTooLarge { limit } => {
            http::render_response(413, "text/plain", &format!("body exceeds {limit} bytes\n"))
        }
        other => http::render_response(400, "text/plain", &format!("{other}\n")),
    };
    conn.http = None;
    conn.wbuf.extend_from_slice(response.as_bytes());
    conn.close_after_flush = true;
}

/// Flush as much of the write buffer as the socket accepts.
fn flush(shared: &Shared, conn: &mut Conn) -> Drive {
    if conn.partial_once && conn.pending_write() > 1 {
        // Injected partial write: one byte now, the rest on a later round
        // (flush_pending retries at TICK granularity).
        conn.partial_once = false;
        if let Ok(n) = conn.stream.write(&conn.wbuf[conn.wpos..conn.wpos + 1]) {
            conn.wpos += n;
            shared.net.bytes_out.add(n as u64);
        }
        return Drive::Keep;
    }
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Drive::Close,
            Ok(n) => {
                conn.wpos += n;
                shared.net.bytes_out.add(n as u64);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Drive::Close,
        }
    }
    if conn.wpos >= conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
        if conn.close_after_flush {
            return Drive::Close;
        }
    }
    Drive::Keep
}
