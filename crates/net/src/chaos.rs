//! Failpoint sites for the network front-end.
//!
//! [`NetServer`] evaluates these sites on its accept, read and write
//! paths; what each injected [`FaultAction`] does at a given site is
//! documented on the constant.
//!
//! All of this costs one relaxed atomic load per site when the registry is
//! disarmed, and compiles out entirely under `chaos-off` (see
//! [`cote_common::failpoint`]).
//!
//! [`NetServer`]: crate::NetServer

use cote_common::failpoint::{self, FaultAction};

/// Accepted connection is dropped on the floor before any byte moves
/// (models a peer reset racing the accept). Action: any.
pub const ACCEPT_RESET: &str = "net.accept.reset";

/// A request line was read; stall before processing it
/// (`FaultAction::Delay`) — models a slow network or a stalled reader.
pub const READ_DELAY: &str = "net.read.delay";

/// A request line was read; close the connection without answering
/// (models a peer reset mid-exchange). Action: any.
pub const READ_RESET: &str = "net.read.reset";

/// Stall before writing a response (`FaultAction::Delay`).
pub const WRITE_DELAY: &str = "net.write.delay";

/// Deliver the response in two flushes (one byte, then the rest on a later
/// flush) — the peer sees a partial frame and must resume. Action: any.
pub const WRITE_PARTIAL: &str = "net.write.partial";

/// Garble the response bytes (framing preserved: newlines untouched).
/// Action: any.
pub const WRITE_CORRUPT: &str = "net.write.corrupt";

/// Write roughly half the response, then close — the peer sees a
/// truncated frame. Action: any.
pub const WRITE_RESET: &str = "net.write.reset";

/// Answer `BUSY injected` instead of invoking the handler (models a shed
/// storm without loading the service). Action: any.
pub const REPLY_BUSY: &str = "svc.reply.busy";

/// Is this request line exempt from fault injection?
///
/// Health-check traffic (`PING`) is never faulted: probe flapping has its
/// own probe-driven site (the gateway's `gw.probe.fail`), and exempting
/// probes here keeps request-driven fault fires a deterministic function
/// of the request sequence even while a prober runs on its own cadence —
/// otherwise an unlucky probe could consume a `FirstN` fire meant for a
/// client request and change which request a replay faults.
pub fn exempt(line: &str) -> bool {
    line == "PING"
}

/// Corrupt a rendered frame in place: every byte except `\n` is flipped in
/// its low bit. Framing survives (no newline is created or destroyed for
/// the protocol's ASCII payloads), the content does not, and ASCII stays
/// ASCII so the peer sees a well-framed, valid-UTF-8, unparseable line.
pub fn corrupt_bytes(payload: &mut [u8]) {
    for b in payload.iter_mut() {
        if *b != b'\n' {
            *b ^= 0x01;
        }
    }
}

/// Evaluate [`READ_DELAY`] + [`READ_RESET`] after a request line is read.
/// Returns `true` when the connection must be closed without answering.
pub(crate) fn read_faults() -> bool {
    if let Some(FaultAction::Delay(d)) = failpoint::hit(READ_DELAY) {
        std::thread::sleep(d);
    }
    failpoint::hit(READ_RESET).is_some()
}
