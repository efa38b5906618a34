//! Readiness polling behind a minimal [`Poller`] trait, `std`-only.
//!
//! The server ([`crate::server`]) needs one primitive the
//! standard library doesn't expose: "tell me which of these sockets are
//! readable/writable". Rather than pull in a dependency, this module
//! declares the handful of libc symbols std already links against:
//!
//! - [`EpollPoller`] (Linux): `epoll_create1`/`epoll_ctl`/`epoll_wait`.
//!   Level-triggered, O(ready) wakeups — the production path.
//! - [`PollPoller`] (any unix): POSIX `poll(2)` over a rebuilt fd array.
//!   O(registered) per call, but fully portable; also the test double that
//!   keeps the event-loop logic honest about poller differences.
//!
//! [`new_poller`] picks epoll when available and falls back otherwise.
//! Both are level-triggered: the event loop may leave bytes unread and will
//! simply be woken again, which keeps the connection state machines simple
//! (no "must drain until EWOULDBLOCK" obligation on every event).

use std::collections::HashMap;
use std::io;
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Which readiness a connection currently cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Wake on readable only.
    Read,
    /// Wake on writable only (read interest dropped: write backpressure).
    Write,
    /// Wake on either.
    ReadWrite,
}

impl Interest {
    /// Does this interest include readability?
    pub fn readable(self) -> bool {
        matches!(self, Interest::Read | Interest::ReadWrite)
    }

    /// Does this interest include writability?
    pub fn writable(self) -> bool {
        matches!(self, Interest::Write | Interest::ReadWrite)
    }
}

/// One readiness event: the registered token plus what happened.
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token supplied at registration (connection id).
    pub token: u64,
    /// Socket has bytes to read (or EOF to observe).
    pub readable: bool,
    /// Socket can accept more bytes.
    pub writable: bool,
    /// Peer hung up or the socket errored; the connection should be read
    /// to EOF and closed.
    pub hangup: bool,
}

/// Minimal readiness-polling interface the event loop runs on.
pub trait Poller: Send {
    /// Start watching `fd` with `interest`; events carry `token`.
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;

    /// Change the interest set (and token) for an already-watched `fd`.
    fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()>;

    /// Stop watching `fd`.
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;

    /// Block until readiness (or `timeout`); append events to `events` and
    /// return how many arrived. A return of 0 means timeout.
    fn poll(&mut self, events: &mut Vec<PollEvent>, timeout: Option<Duration>)
        -> io::Result<usize>;

    /// Implementation name, for logs and the `/metrics` story.
    fn name(&self) -> &'static str;
}

/// The best poller for this platform: epoll on Linux, `poll(2)` elsewhere
/// (or if epoll creation fails, e.g. under exotic sandboxes).
pub fn new_poller() -> io::Result<Box<dyn Poller>> {
    #[cfg(target_os = "linux")]
    {
        if let Ok(p) = EpollPoller::new() {
            return Ok(Box::new(p));
        }
    }
    Ok(Box::new(PollPoller::new()))
}

/// Clamp an optional timeout to the `c_int` milliseconds both syscalls take
/// (`-1` = block forever).
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => d.as_millis().min(c_int::MAX as u128) as c_int,
    }
}

// ---------------------------------------------------------------------------
// epoll (Linux)
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod epoll_sys {
    use std::os::raw::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event`; packed on x86-64 (the kernel ABI quirk).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Linux `epoll` poller: O(ready) wakeups, scales to tens of thousands of
/// registered sockets.
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    epfd: RawFd,
    /// Reused event buffer for `epoll_wait`.
    buf: Vec<epoll_sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    /// Create an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes a flag word and returns an fd or -1.
        let epfd = unsafe { epoll_sys::epoll_create1(epoll_sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            epfd,
            buf: vec![epoll_sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut flags = epoll_sys::EPOLLRDHUP;
        if interest.readable() {
            flags |= epoll_sys::EPOLLIN;
        }
        if interest.writable() {
            flags |= epoll_sys::EPOLLOUT;
        }
        let mut ev = epoll_sys::EpollEvent {
            events: flags,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Poller for EpollPoller {
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(epoll_sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(epoll_sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let mut ev = epoll_sys::EpollEvent { events: 0, data: 0 };
        // SAFETY: pre-2.6.9 kernels required a non-null event for DEL;
        // passing one is harmless everywhere.
        let rc = unsafe { epoll_sys::epoll_ctl(self.epfd, epoll_sys::EPOLL_CTL_DEL, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn poll(
        &mut self,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let n = loop {
            // SAFETY: buf is a live, properly-sized EpollEvent array.
            let rc = unsafe {
                epoll_sys::epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms(timeout),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &self.buf[..n] {
            let flags = ev.events;
            events.push(PollEvent {
                token: ev.data,
                readable: flags & (epoll_sys::EPOLLIN | epoll_sys::EPOLLRDHUP) != 0,
                writable: flags & epoll_sys::EPOLLOUT != 0,
                hangup: flags & (epoll_sys::EPOLLERR | epoll_sys::EPOLLHUP) != 0,
            });
        }
        if n == self.buf.len() {
            // Full buffer: more events may be pending; grow so one wait can
            // drain larger ready sets next time.
            self.buf.resize(
                self.buf.len() * 2,
                epoll_sys::EpollEvent { events: 0, data: 0 },
            );
        }
        Ok(n)
    }

    fn name(&self) -> &'static str {
        "epoll"
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: epfd is a valid fd we own.
        unsafe { epoll_sys::close(self.epfd) };
    }
}

// ---------------------------------------------------------------------------
// poll(2) fallback (any unix)
// ---------------------------------------------------------------------------

mod poll_sys {
    use std::os::raw::{c_int, c_short, c_ulong};

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// Portable POSIX `poll(2)` poller. Rebuilds the fd array per call —
/// O(registered) per wakeup, fine for hundreds of sockets and for tests.
pub struct PollPoller {
    watched: HashMap<RawFd, (u64, Interest)>,
    /// Reused scratch array for the syscall.
    fds: Vec<poll_sys::PollFd>,
}

impl PollPoller {
    /// An empty poller.
    pub fn new() -> Self {
        Self {
            watched: HashMap::new(),
            fds: Vec::new(),
        }
    }
}

impl Default for PollPoller {
    fn default() -> Self {
        Self::new()
    }
}

impl Poller for PollPoller {
    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.watched.insert(fd, (token, interest)).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self.watched.get_mut(&fd) {
            Some(slot) => {
                *slot = (token, interest);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match self.watched.remove(&fd) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    fn poll(
        &mut self,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        self.fds.clear();
        for (&fd, &(_, interest)) in &self.watched {
            let mut ev: c_short = 0;
            if interest.readable() {
                ev |= poll_sys::POLLIN;
            }
            if interest.writable() {
                ev |= poll_sys::POLLOUT;
            }
            self.fds.push(poll_sys::PollFd {
                fd,
                events: ev,
                revents: 0,
            });
        }
        let n = loop {
            // SAFETY: fds is a live, properly-sized PollFd array.
            let rc = unsafe {
                poll_sys::poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as c_ulong,
                    timeout_ms(timeout),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        if n > 0 {
            for pfd in &self.fds {
                if pfd.revents == 0 {
                    continue;
                }
                let (token, _) = self.watched[&pfd.fd];
                events.push(PollEvent {
                    token,
                    readable: pfd.revents & poll_sys::POLLIN != 0,
                    writable: pfd.revents & poll_sys::POLLOUT != 0,
                    hangup: pfd.revents & (poll_sys::POLLERR | poll_sys::POLLHUP) != 0,
                });
            }
        }
        Ok(n)
    }

    fn name(&self) -> &'static str {
        "poll"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn exercise(poller: &mut dyn Poller) {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let fd = b.as_raw_fd();
        poller.register(fd, 7, Interest::Read).unwrap();

        // Nothing readable yet: poll times out.
        let mut events = Vec::new();
        let n = poller
            .poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "{}: spurious event", poller.name());

        // Write a byte: the read side becomes ready, carrying our token.
        a.write_all(b"x").unwrap();
        let n = poller
            .poll(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(n, 1, "{}: expected one event", poller.name());
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        let mut byte = [0u8; 1];
        b.read_exact(&mut byte).unwrap();

        // Switch to write interest: an idle socket is instantly writable.
        poller.reregister(fd, 8, Interest::Write).unwrap();
        events.clear();
        let n = poller
            .poll(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 8);
        assert!(events[0].writable);

        // Deregister: further traffic produces no events.
        poller.deregister(fd).unwrap();
        a.write_all(b"y").unwrap();
        events.clear();
        let n = poller
            .poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "{}: event after deregister", poller.name());
    }

    #[test]
    fn poll_poller_delivers_readiness() {
        exercise(&mut PollPoller::new());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_poller_delivers_readiness() {
        exercise(&mut EpollPoller::new().unwrap());
    }

    #[test]
    fn default_poller_constructs() {
        let p = new_poller().unwrap();
        #[cfg(target_os = "linux")]
        assert_eq!(p.name(), "epoll");
        #[cfg(not(target_os = "linux"))]
        assert_eq!(p.name(), "poll");
    }

    #[test]
    fn hangup_is_reported() {
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let fd = b.as_raw_fd();
        let mut poller = PollPoller::new();
        poller.register(fd, 1, Interest::Read).unwrap();
        drop(a); // peer closes
        let mut events = Vec::new();
        let n = poller
            .poll(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(n, 1);
        // A closed peer surfaces as readable-EOF and/or hangup; either way
        // the event loop will read 0 bytes and close.
        assert!(events[0].readable || events[0].hangup);
    }
}
