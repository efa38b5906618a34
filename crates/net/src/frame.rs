//! Length-capped line framing.
//!
//! Every front-end that reads untrusted lines — the TCP wire protocol, the
//! HTTP request parser, and the `cote serve` stdin command loop — goes
//! through this module. Two layers:
//!
//! - [`FrameBuffer`]: the incremental splitter. Bytes go in via
//!   [`FrameBuffer::push`] (in whatever chunks the transport produced —
//!   including one byte at a time), complete frames come out via
//!   [`FrameBuffer::next_line`]. The byte cap is enforced *while
//!   buffering*, so a peer that never sends a newline cannot make the
//!   process allocate unboundedly. The blocking [`LineReader`] and the
//!   server's non-blocking connections share this one splitter, so
//!   partial-frame resumption behaves identically on both by construction.
//! - [`LineReader`]: [`FrameBuffer`] plus a blocking `Read` source, for the
//!   client and the stdin loops.
//!
//! Framing rules: a frame is one line terminated by `\n` (a trailing `\r`
//! is stripped, so `\r\n` peers work); the terminator is not part of the
//! frame; frames must be valid UTF-8 and at most `max_line` bytes. EOF in
//! the middle of a line is a [`FrameError::Truncated`] frame, not a short
//! line — wire peers must terminate every frame.

use std::io::Read;

/// Default per-line cap, shared by the TCP server, the HTTP parser and the
/// stdin loop. Generous for any sane request; tiny against a memory bomb.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Why a frame could not be produced.
#[derive(Debug)]
pub enum FrameError {
    /// The line exceeded the reader's byte cap before a `\n` arrived.
    Oversize {
        /// The configured cap.
        limit: usize,
    },
    /// The line was not valid UTF-8.
    InvalidUtf8,
    /// The stream ended mid-line (no terminating `\n`).
    Truncated,
    /// The underlying reader failed (includes socket read timeouts).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversize { limit } => write!(f, "line exceeds {limit} bytes"),
            FrameError::InvalidUtf8 => write!(f, "line is not valid utf-8"),
            FrameError::Truncated => write!(f, "stream ended mid-line"),
            FrameError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// True when the error is a socket read timeout (idle peer), which the
    /// server treats as "hang up", not as a protocol violation.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

/// The incremental frame splitter: push bytes in, pull capped lines out.
///
/// Transport-agnostic — it never reads from anything. `next_line` answers
/// `Ok(None)` for "no complete frame buffered yet", which a blocking caller
/// turns into a `read()` and a non-blocking caller turns into waiting for
/// the next readiness event. A frame split across arbitrary chunk
/// boundaries (down to one byte per push) resumes exactly where it left
/// off.
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes `0..start` of `buf` are already consumed.
    start: usize,
    max_line: usize,
}

impl FrameBuffer {
    /// An empty buffer capping lines at `max_line` bytes (at least 1).
    pub fn new(max_line: usize) -> Self {
        Self {
            buf: Vec::with_capacity(1024),
            start: 0,
            max_line: max_line.max(1),
        }
    }

    /// Append transport bytes (any chunking, including single bytes).
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered.
    pub fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// True when nothing unconsumed is buffered.
    pub fn is_empty(&self) -> bool {
        self.start >= self.buf.len()
    }

    /// Drop consumed bytes so the buffer never grows past one line + one
    /// read chunk.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Pull one complete frame if buffered. `Ok(None)` means "feed me more
    /// bytes". An `Oversize` error leaves the offending bytes buffered
    /// (call [`FrameBuffer::skip_to_newline`] to resynchronize); an
    /// `InvalidUtf8` error consumes the bad line.
    pub fn next_line(&mut self) -> Result<Option<String>, FrameError> {
        if let Some(pos) = self.pending().iter().position(|&b| b == b'\n') {
            if pos > self.max_line {
                return Err(FrameError::Oversize {
                    limit: self.max_line,
                });
            }
            let line_start = self.start;
            let mut end = line_start + pos;
            self.start = end + 1;
            if end > line_start && self.buf[end - 1] == b'\r' {
                end -= 1;
            }
            let line = std::str::from_utf8(&self.buf[line_start..end])
                .map_err(|_| FrameError::InvalidUtf8)?
                .to_string();
            return Ok(Some(line));
        }
        // No newline buffered: refuse to buffer more than the cap.
        if self.pending().len() > self.max_line {
            return Err(FrameError::Oversize {
                limit: self.max_line,
            });
        }
        Ok(None)
    }

    /// Discard buffered bytes up to and including the next `\n`. Returns
    /// `false` (with everything discarded) when no newline is buffered yet.
    pub fn skip_to_newline(&mut self) -> bool {
        match self.pending().iter().position(|&b| b == b'\n') {
            Some(pos) => {
                self.start += pos + 1;
                true
            }
            None => {
                self.start = self.buf.len();
                self.compact();
                false
            }
        }
    }

    /// Take exactly `n` buffered bytes (for sized HTTP bodies) if that many
    /// are available, else `None` (feed more bytes and retry). The caller
    /// is responsible for capping `n`.
    pub fn take_bytes(&mut self, n: usize) -> Option<Vec<u8>> {
        if self.pending().len() < n {
            return None;
        }
        let out = self.buf[self.start..self.start + n].to_vec();
        self.start += n;
        Some(out)
    }

    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// A buffered line reader with a hard per-line byte cap: [`FrameBuffer`]
/// fed from a blocking `Read`.
pub struct LineReader<R> {
    inner: R,
    frames: FrameBuffer,
    bytes_read: u64,
}

impl<R: Read> LineReader<R> {
    /// Wrap `inner`, capping lines at `max_line` bytes (at least 1).
    pub fn new(inner: R, max_line: usize) -> Self {
        Self {
            inner,
            frames: FrameBuffer::new(max_line),
            bytes_read: 0,
        }
    }

    /// Total bytes pulled from the underlying reader so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    fn fill(&mut self) -> Result<usize, FrameError> {
        let mut chunk = [0u8; 4096];
        let n = self.inner.read(&mut chunk)?;
        self.frames.push(&chunk[..n]);
        self.bytes_read += n as u64;
        Ok(n)
    }

    /// Read one frame. `Ok(None)` is a clean EOF (stream ended exactly on a
    /// line boundary). After an `Oversize` error the oversized line is still
    /// buffered/incoming; call [`LineReader::skip_line`] to resynchronize
    /// (stdin does; the TCP server just closes the connection).
    pub fn read_line(&mut self) -> Result<Option<String>, FrameError> {
        loop {
            if let Some(line) = self.frames.next_line()? {
                return Ok(Some(line));
            }
            if self.fill()? == 0 {
                if self.frames.is_empty() {
                    return Ok(None);
                }
                return Err(FrameError::Truncated);
            }
        }
    }

    /// Discard bytes up to and including the next `\n`, without buffering
    /// more than one chunk at a time. Returns `false` on EOF before a
    /// newline. Memory stays bounded no matter how long the line is.
    pub fn skip_line(&mut self) -> Result<bool, FrameError> {
        loop {
            if self.frames.skip_to_newline() {
                return Ok(true);
            }
            if self.fill()? == 0 {
                return Ok(false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(bytes: &[u8], cap: usize) -> LineReader<&[u8]> {
        LineReader::new(bytes, cap)
    }

    #[test]
    fn splits_lines_and_strips_crlf() {
        let mut r = reader(b"one\r\ntwo\nthree\n", 64);
        assert_eq!(r.read_line().unwrap().as_deref(), Some("one"));
        assert_eq!(r.read_line().unwrap().as_deref(), Some("two"));
        assert_eq!(r.read_line().unwrap().as_deref(), Some("three"));
        assert!(r.read_line().unwrap().is_none(), "clean EOF");
        assert_eq!(r.bytes_read(), 15);
    }

    #[test]
    fn empty_lines_are_frames() {
        let mut r = reader(b"\n\nx\n", 8);
        assert_eq!(r.read_line().unwrap().as_deref(), Some(""));
        assert_eq!(r.read_line().unwrap().as_deref(), Some(""));
        assert_eq!(r.read_line().unwrap().as_deref(), Some("x"));
    }

    #[test]
    fn oversize_without_newline_never_buffers_past_cap() {
        let big = vec![b'a'; 1 << 20];
        let mut r = reader(&big, 128);
        match r.read_line() {
            Err(FrameError::Oversize { limit: 128 }) => {}
            other => panic!("{other:?}"),
        }
        // The guard fired after at most cap + one chunk of buffering.
        assert!(r.frames.capacity() < 128 + 2 * 4096 + 1024);
    }

    #[test]
    fn oversize_with_newline_then_skip_resynchronizes() {
        let mut input = vec![b'x'; 300];
        input.extend_from_slice(b"\nok\n");
        let mut r = reader(&input, 64);
        assert!(matches!(r.read_line(), Err(FrameError::Oversize { .. })));
        assert!(r.skip_line().unwrap());
        assert_eq!(r.read_line().unwrap().as_deref(), Some("ok"));
    }

    #[test]
    fn truncated_and_invalid_utf8_are_distinct_errors() {
        let mut r = reader(b"no newline", 64);
        assert!(matches!(r.read_line(), Err(FrameError::Truncated)));
        let mut r = reader(&[0xFF, 0xFE, b'\n'], 64);
        assert!(matches!(r.read_line(), Err(FrameError::InvalidUtf8)));
    }

    #[test]
    fn timeout_classification() {
        let to = FrameError::Io(std::io::Error::from(std::io::ErrorKind::WouldBlock));
        assert!(to.is_timeout());
        assert!(!FrameError::Truncated.is_timeout());
    }

    #[test]
    fn frame_buffer_resumes_across_single_byte_pushes() {
        // The regression the server depends on: a frame split at every
        // possible byte boundary must come out identical to one pushed
        // whole.
        let mut whole = FrameBuffer::new(64);
        whole.push(b"ESTIMATE 3 batch\r\nPING\n");
        let mut split = FrameBuffer::new(64);
        let mut split_lines = Vec::new();
        for b in b"ESTIMATE 3 batch\r\nPING\n" {
            split.push(&[*b]);
            while let Some(line) = split.next_line().unwrap() {
                split_lines.push(line);
            }
        }
        let mut whole_lines = Vec::new();
        while let Some(line) = whole.next_line().unwrap() {
            whole_lines.push(line);
        }
        assert_eq!(split_lines, whole_lines);
        assert_eq!(split_lines, vec!["ESTIMATE 3 batch", "PING"]);
        assert!(split.is_empty() && whole.is_empty());
    }

    #[test]
    fn frame_buffer_take_bytes_waits_for_enough() {
        let mut fb = FrameBuffer::new(64);
        fb.push(b"abc");
        assert!(fb.take_bytes(5).is_none());
        fb.push(b"de");
        assert_eq!(fb.take_bytes(5).unwrap(), b"abcde");
        assert!(fb.is_empty());
    }

    #[test]
    fn frame_buffer_oversize_matches_reader_semantics() {
        // No newline, over cap → Oversize with bytes kept buffered.
        let mut fb = FrameBuffer::new(4);
        fb.push(b"abcdef");
        assert!(matches!(
            fb.next_line(),
            Err(FrameError::Oversize { limit: 4 })
        ));
        // skip_to_newline with no newline discards and reports false…
        assert!(!fb.skip_to_newline());
        fb.push(b"tail\nok\n");
        // …then the next newline resynchronizes.
        assert!(fb.skip_to_newline());
        assert_eq!(fb.next_line().unwrap().as_deref(), Some("ok"));
    }
}
