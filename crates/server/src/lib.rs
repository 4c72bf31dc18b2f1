//! `natix-server`: network access to a natix store.
//!
//! The crate has three layers:
//!
//! * [`wire`] — the length-prefixed binary protocol (frame I/O plus the
//!   [`wire::Request`]/[`wire::Response`] codec). Pure, deterministic,
//!   and fuzzed independently of any socket.
//! * [`server`] — the daemon: acceptor, worker pool and the single
//!   store-service thread that owns the `SharedStore` and maps
//!   connections onto snapshot pins.
//! * [`client`] — a blocking client that speaks the protocol and honors
//!   the server's typed retry-after backpressure.
//!
//! Beside them, [`stats`] holds the named-value table the daemon answers
//! `stats` with, and the one parser that reads it back.
//!
//! See `DESIGN.md` §15 for the wire format and the session → pin
//! lifecycle.

pub mod client;
pub mod server;
pub mod stats;
pub mod wire;

pub use client::{Client, ClientError};
pub use server::{query_lines, serve, ServeConfig, ServeError, ServeSummary, ServerHandle};
pub use stats::Stats;
pub use wire::{ErrKind, ProtoError, Request, Response, ResponseBody, ShedKind, UpdateOp};
