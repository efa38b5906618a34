//! `cote-net`: the network front-end that puts
//! [`CoteService`](cote_service::CoteService) on the wire, `std`-only:
//!
//! ```text
//!            ┌──────────────────────────────────────────────────────┐
//!  TCP ────▶ │ acceptor ─▶ readiness loops (epoll | poll)           │
//!            │     │   over max_conns → "BUSY connections" + close  │
//!            │     ▼                                                │
//!            │ per connection: length-capped frames, protocol sniff │
//!            │   wire:  PING / ESTIMATE / ADMIT / METRICS / OUTCOME │
//!            │   http:  GET /metrics, /healthz                      │
//!            │          POST /estimate, /outcome                    │
//!            │ CoteService::submit → OK | BUSY <reason> | ERR       │
//!            └──────────────────────────────────────────────────────┘
//! ```
//!
//! - [`frame`]: the length-capped line reader every untrusted input goes
//!   through (including `cote serve`'s stdin loop).
//! - [`proto`]: the one-line request/response grammar and JSON payloads.
//! - [`http`]: minimal HTTP/1.1 parsing/printing for scrapers and probes.
//! - [`poll`]: the readiness pollers (`epoll`, portable `poll(2)`).
//! - [`server`]: the one transport — acceptor, loops, connection state
//!   machines, layered backpressure (connection cap here, estimation
//!   admission inside the service), graceful deadline-bounded drain.
//! - [`handler`]: what requests mean, behind [`WireHandler`].
//! - [`client`]: a blocking wire-protocol client.

pub mod chaos;
pub mod client;
pub mod frame;
pub mod handler;
pub mod http;
pub mod metrics;
pub mod poll;
pub mod proto;
pub mod server;

pub use client::{NetClient, NetClientConfig, NetError};
pub use frame::{FrameBuffer, FrameError, LineReader, MAX_LINE_BYTES};
pub use handler::{http_body_to_wire, wire_to_http, ServiceHandler, WireHandler};
pub use http::{HttpError, HttpRequest};
pub use metrics::{NetMetrics, PollMetrics};
pub use poll::{new_poller, Interest, PollEvent, Poller};
pub use proto::{parse_class, parse_request, OutcomeTarget, WireRequest, WireResponse};
pub use server::{DrainReport, NetConfig, NetServer};
