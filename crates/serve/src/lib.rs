//! Serving daemon machinery for optinline.
//!
//! This crate turns the one-shot optimizer into a long-running,
//! multi-tenant service: a daemon that accepts `optimize` / `search` /
//! `autotune` requests over a newline-delimited-JSON protocol (Unix
//! domain socket by default, TCP behind a flag), pushes them through a
//! bounded admission queue, deduplicates concurrent requests with the
//! same 128-bit evaluation identity into a single evaluation whose
//! result fans out to every waiter, and drains gracefully on SIGTERM —
//! finishing in-flight work and flushing durable state before exit.
//!
//! The crate is deliberately CLI-agnostic: what an evaluation *does* is
//! injected through the [`Handler`] trait. The CLI implements it with
//! the very same functions its subcommands call, which is what makes
//! "ask the daemon" and "run in-process" byte-identical by construction
//! (the property the serve-equivalence oracle in `optinline-check`
//! verifies).
//!
//! Layering, bottom up:
//!
//! - [`json`]: a flat-object JSON codec (no arrays, no nesting, no
//!   floats) — the entire wire subset, dependency-free.
//! - [`proto`]: request/event framing over that subset, plus the
//!   evaluation identity used for dedup.
//! - [`Server`] / [`ServerHandle`]: bounded admission, evaluations on
//!   the worker pool's idle threads and the server's own lanes, dedup
//!   fan-out, graceful drain.
//! - [`Client`]: dial, stream events, distinguish "no daemon answered"
//!   (fall back in-process) from mid-flight failures.
//! - [`loadgen`]: a deterministic closed-loop load generator driving
//!   thousands of persistent connections through the pipelined client.
//! - [`install_drain_handler`]: a SIGTERM/SIGINT latch the server polls.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
mod net;
pub mod proto;

mod client;
pub mod loadgen;
mod server;
mod signal;

pub use client::{Client, ClientConfig, ClientError, Outcome};
pub use net::Endpoint;
pub use proto::{Event, Request, RequestKind, ServerStats};
pub use server::{Handler, Reply, ServeOptions, Server, ServerHandle};
pub use signal::install_drain_handler;
