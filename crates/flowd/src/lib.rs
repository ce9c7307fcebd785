//! # flowd — the persistent synthesis service
//!
//! The paper's framework (Yu, Xiao, De Micheli — DAC 2018) evaluates flows in
//! offline batch loops; the ROADMAP's north star is a system serving heavy
//! interactive traffic.  `flowd` is that step: it keeps one
//! [`floweval::EvalEngine`] resident in a long-running process and serves
//! flow-evaluation requests over a minimal HTTP/1.1 wire protocol, so the
//! QoR store and the content-addressed state graph warm up **across clients
//! and connections** instead of per process.
//!
//! ## Protocol
//!
//! | Endpoint          | Meaning                                              |
//! |-------------------|------------------------------------------------------|
//! | `POST /run`       | body = design (AIGER/BLIF); query `format` plus a [`flowc::request::RunRequest`] (`flow`/`random`, `timing`, `verify`, `export`) — answers `flowc run`'s JSON report |
//! | `GET /healthz`    | liveness (`{"status":"ok"}`)                         |
//! | `GET /stats`      | uptime, queue depth, worker utilization, [`floweval::EvalStats`], cache summary, design-table counters |
//! | `POST /shutdown`  | graceful drain: stop accepting, finish queued work   |
//!
//! The `qor` section of a `/run` response is **bit-identical** to an
//! in-process `flowc run` of the same design and flow (`tests/service.rs`
//! asserts this, and `flowbench`'s `flowd_mix` workload re-checks sampled
//! replies against an in-process `FlowRunner`).
//!
//! A design the daemon has parsed once is remembered by a digest of its
//! request body (at most [`MAX_KNOWN_DESIGNS`] of them): a repeat of that body
//! with a flow whose QoR is stored is answered by one store lookup, without
//! parsing it again.
//!
//! ## Backpressure
//!
//! Admission control happens at accept time: beyond `queue_capacity` waiting
//! connections the daemon answers `503` + `Retry-After` immediately instead
//! of stacking unbounded work.  Connections that waited longer than the
//! request timeout are rejected the moment a worker picks them up (a request
//! already being evaluated is never preempted).  On shutdown the daemon
//! drains: accepted work finishes, new connections are turned away, the QoR
//! store is flushed.
//!
//! Four limits are constants, not [`ServerConfig`] fields: 256 requests per
//! connection, an 8 MiB request body, a 100 ms watchdog grace past the
//! deadline and a 20 ms watchdog poll.  The client half of the wire is
//! [`flowc::client`], which `flowc submit` and this crate's tests use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod designs;
mod protocol;
mod server;

pub use designs::MAX_KNOWN_DESIGNS;
pub use server::{Server, ServerConfig};
