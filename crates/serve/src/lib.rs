//! # parchmint-serve
//!
//! Compilation-as-a-service: a multi-threaded daemon that accepts
//! ParchMint/MINT designs — as line-delimited JSON over stdin/stdout or
//! TCP, or as HTTP/1.1 — and runs each through the same parse →
//! compile → verify → pnr → sim → control pipeline the `suite-run`
//! harness sweeps, streaming per-stage results back in the harness's
//! cell schema.
//!
//! Layers, bottom up:
//!
//! - [`hash`] — canonical content hashing of design documents
//!   (whitespace- and key-order-insensitive FNV-1a 64);
//! - [`queue`] — the bounded admission queue whose fail-fast `try_push`
//!   is the daemon's backpressure boundary;
//! - [`flight`] — single-flight deduplication: concurrent identical
//!   work coalesces onto one leader, with poisoned-leader recovery;
//! - [`spill`] — the persistent disk tier: one atomic
//!   content-hash-named file per design, corruption-tolerant loads;
//! - [`cache`] — the tiered cache (size-budgeted LRU memory tier over
//!   the spill tier) of compiled devices plus downstream stage
//!   artifacts, so identical designs never recompile or re-run — not
//!   even across daemon restarts;
//! - [`protocol`] — the versioned wire format (`parchmint-serve/1`):
//!   `submit`/`stats`/`ping`/`shutdown` requests, `cell`/`done`/`error`
//!   events, and the closed error taxonomy (`bad_request`,
//!   `unsupported_proto`, `invalid_design`, `busy`, `shutting_down`);
//! - [`service`] — the transport-agnostic request path, built directly
//!   on [`parchmint_harness::engine`] so daemon cells and harness cells
//!   are produced by the identical compile/retry/severity machinery;
//! - [`server`] — the request core every transport shares (one
//!   admission queue, one supervised worker pool, one event sink per
//!   job), the stdio/TCP line transports, and [`server::run`] which
//!   assembles every configured transport;
//! - [`http`] — the hand-rolled HTTP/1.1 front end (`POST /v1/submit`,
//!   `GET /v1/stats`, `GET /v1/healthz`) over the same server;
//! - [`client`] — a pipelining, fault-tolerant TCP client that
//!   reassembles a [`parchmint_harness::SuiteReport`] from streamed
//!   events (byte-identical, stripped, to a local `suite-run`), with
//!   connect/read deadlines, seeded decorrelated-jitter backoff, and
//!   idempotent partial-batch resume across reconnects;
//! - `net` — the socket core under the TCP and HTTP transports: one
//!   accept loop and connection setup, and one frame wait that times a
//!   partial frame from its *start* (so a 1 byte/sec dripper cannot
//!   hold a socket) and counts every outcome;
//! - [`chaos`] — deterministic wire-fault injection: a seeded TCP
//!   proxy ([`chaos::ChaosProxy`]) that delays, throttles, truncates,
//!   garbles, or severs connections according to a
//!   `parchmint-chaos/v1` plan, for proving the defenses above.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod flight;
pub mod hash;
pub mod http;
pub(crate) mod net;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;
pub mod spill;

pub use cache::{CacheEntry, HitTier, Lookup, TieredCache};
pub use chaos::{ChaosCounters, ChaosPlan, ChaosProxy, Direction, FaultKind, CHAOS_SCHEMA};
pub use client::{
    submit_suite, Backoff, Client, ClientConfig, ClientError, Submission, SuiteSubmission,
    DEFAULT_WINDOW,
};
pub use flight::{Flight, FlightToken, FlightWait, SingleFlight};
pub use protocol::{
    parse_request, parse_submit_body, DesignSource, ErrorKind, Request, SubmitRequest, WireError,
    PROTO, PROTO_MAJOR,
};
pub use queue::{Bounded, PushError};
pub use server::{run, serve, LineOutcome, Server, SharedWriter};
pub use service::{ServeConfig, ServeConfigBuilder, Service, DEFAULT_QUEUE_CAPACITY};
pub use spill::{engine_fingerprint, Spill, SpillEntry, SPILL_SCHEMA};

/// Runs `body` with a fresh collector installed; through its argument
/// `body` reads how much a name has counted so far (0 if nothing).
#[cfg(test)]
fn counting(body: impl FnOnce(&dyn Fn(&str) -> u64)) {
    let collector = std::sync::Arc::new(parchmint_obs::Collector::new());
    let count = |name: &str| {
        let counters = collector.summary().counters;
        counters.get(name).copied().unwrap_or(0)
    };
    parchmint_obs::with_recorder(collector.clone(), || body(&count));
}
