//! # ssr-serve — the campaign-serving daemon
//!
//! The engine's (config × policy × suite) verification campaigns,
//! repackaged as a long-running service: the deployment shape industrial
//! symbolic-verification flows actually run in.  A zero-dependency TCP
//! daemon speaks newline-delimited JSON ([`protocol::PROTOCOL`] =
//! `ssr-serve/v1`): clients `submit` campaign specs, the server queues
//! them on a bounded [`queue::PriorityQueue`], dispatcher threads run them
//! on the engine's worker pool, and each client's connection streams one
//! `job` line per completion, terminated by the canonical final report.
//!
//! * [`protocol`] — the wire format: request/response types, parsing,
//!   rendering, versioning rules;
//! * [`queue`] — the bounded priority queue (priority desc, FIFO within a
//!   priority, rejection-based backpressure, withdraw-by-id);
//! * [`server`] — [`Server`]: accept loop, per-connection protocol
//!   handling, dispatchers, per-request [`persist`](ssr_engine::persist)
//!   journals for crash durability, per-request cancellation;
//! * [`client`] — [`Client`]: the blocking client that `ssr submit` and
//!   ssrbench's `served-small` workload use.
//!
//! Results served over the socket are byte-identical (canonically) to a
//! local `ssr campaign` run of the same spec: the server runs the same
//! deterministic engine, and the protocol carries the same
//! `ssr-campaign-report/v1` documents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{Client, Completed, Submission};
pub use protocol::{Request, RequestState, Response, StatusEntry, MAX_LINE_BYTES, PROTOCOL};
pub use queue::{PriorityQueue, QueueFull};
pub use server::{Server, ServerConfig};
