//! # flowbench — the one benchmark of the flow-repro stack
//!
//! Four workloads (`paper_loop`, `cold_synth`, `cnn_train`, `flowd_mix`),
//! seven end-to-end metrics, and — in a separate traced run — per-layer
//! metrics attributed to `aig`, `synth`, `floweval`, `flowgen`, `nn`,
//! `flowd`, `httpwire` and `circuits` by timing calls into their public
//! functions.  See `README.md` for the metric dictionary and the method.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aa;
pub mod common;
pub mod host;
pub mod oracle;
pub mod probes;
pub mod report;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use report::Outcome;
pub use runner::{run, RunArgs, WORKLOADS};
