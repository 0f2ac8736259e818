#![warn(missing_docs)]
//! # grover-serve
//!
//! A persistent tuning-cache service over the Grover pipeline: a
//! hand-rolled HTTP/1.1 server (std-only, like the rest of the
//! workspace) exposing the compile → transform → tune flow, with a
//! content-addressed decision cache that survives restarts.
//!
//! ## Endpoints
//!
//! | route                  | method | purpose                                         |
//! |------------------------|--------|-------------------------------------------------|
//! | `/v1/compile`          | POST   | OpenCL-C source → transformed IR + pass report  |
//! | `/v1/tune`             | POST   | source + device + launch → explainable decision |
//! | `/v1/predict`          | POST   | model answer with zero launches, or measured fallback |
//! | `/metrics`             | GET    | typed metrics registry (counters/gauges/histos) |
//! | `/healthz`             | GET    | liveness probe                                  |
//! | `/debug/flight`        | GET    | flight-recorder ring: recent spans/events JSONL |
//! | `/debug/requests`      | GET    | recent requests: trace id, status, disposition  |
//! | `/admin/shutdown`      | POST   | graceful shutdown (flushes cache and recorder)  |
//!
//! ## Cache identity
//!
//! Tune decisions are keyed by [`grover_core::tune_key`] — a stable
//! fingerprint of the *canonicalised* kernel source, kernel name, device
//! profile and launch geometry — and stamped with the pass-version epoch
//! ([`grover_core::pass_fingerprint`]). The epoch is checked when the
//! persistent store is replayed on boot, so bumping
//! [`grover_core::TRANSFORM_REVISION`] invalidates every stale decision
//! in lock-step with the golden snapshot tests.
//!
//! A cache hit is served without constructing a tuner: the
//! `grover_serve_tune_races_total` metric (fed from
//! [`grover_tuner::Tuner::races_run`]) makes "hits never re-measure" an
//! asserted invariant. Concurrent identical misses are coalesced through
//! a [`singleflight`] table — one leader races, followers share its
//! outcome — so that invariant extends to "N identical misses cost one
//! race".
//!
//! ## Fault tolerance
//!
//! The persistent store is a checksummed, length-prefixed [`journal`]:
//! replay classifies every line (intact / torn / corrupt)
//! instead of failing, so a SIGKILL mid-write costs at most the record
//! being written — never the warm start. Decisions are persisted
//! *before* they are acknowledged, and a [`breaker::CircuitBreaker`]
//! degrades tune misses to a conservative `degraded: true` answer while
//! the tuner is failing, instead of surfacing raw 500s.

pub mod breaker;
pub mod cache;
pub mod client;
pub mod flight;
pub mod http;
pub mod journal;
pub mod metrics;
pub mod server;
pub mod singleflight;

pub use breaker::{Admit, CircuitBreaker};
pub use cache::{DecisionCache, DecisionRecord, DecisionStore, LoadStats};
pub use client::{
    http_request, request_full, request_with, ClientConfig, ClientError, FullResponse,
};
pub use flight::{FlightRecorder, FlightRing, RequestEntry, RequestLog};
pub use metrics::Metrics;
pub use server::{ServeConfig, Server, TRACE_HEADER};
pub use singleflight::{FlightOutcome, Singleflight};
