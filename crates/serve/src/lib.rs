//! Long-running analysis service for `rtlb`: the daemon behind
//! `rtlb serve` and a blocking [`Client`] for it.
//!
//! The service speaks **`rtlb-rpc-v1`**: line-delimited JSON over TCP,
//! one request per line, one response line per request (see [`proto`]).
//! Clients `open` an instance into a server-resident
//! [`AnalysisSession`](rtlb_core::AnalysisSession), stream `delta` edits
//! against it (each answered with incrementally recomputed bounds), run
//! stateless one-shot `analyze` requests, `close` sessions, and poll
//! `stats`. Bounds in every response are **bit-identical** to what
//! `rtlb analyze` prints for the same instance and options: the daemon
//! calls the same pipeline with the same defaults.
//!
//! Operational posture:
//!
//! * **bounded session pool** ([`pool`]) — at most `max_sessions` live
//!   sessions; over-limit opens evict the least-recently-used session to
//!   a parked graph (transparently re-analyzed on its next use), so
//!   memory is bounded while session ids stay valid as long as possible;
//! * **admission control** ([`server`]) — at most `max_inflight`
//!   analysis requests run concurrently; an over-limit request is
//!   answered immediately with a typed `busy` error, never queued;
//! * **per-request deadlines** — `deadline_ms` maps onto the pipeline's
//!   [`CancelToken`](rtlb_core::CancelToken), so a runaway request
//!   returns a `timeout` error instead of holding its slot;
//! * **fault isolation** — every request runs under
//!   [`std::panic::catch_unwind`] and failures are classified with the
//!   batch driver's taxonomy ([`rtlb_core::OutcomeKind`]): a panicking
//!   request poisons only its own session while its siblings complete.
//!
//! The daemon feeds a [`MetricsRegistry`](rtlb_obs::MetricsRegistry)
//! (request/outcome counters, request-latency histogram, resident-session
//! gauge) that the `stats` request exposes as an embedded
//! `rtlb-metrics-v1` document.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod pool;
pub mod proto;
pub mod server;

pub use client::Client;
pub use pool::{Checkout, PoolStats, SessionPool};
pub use proto::{parse_request, ErrorCode, Op, Request, RpcError, RPC_SCHEMA};
pub use server::{serve, serve_with_parser, ServeConfig, Server, MAX_REQUEST_BYTES};
