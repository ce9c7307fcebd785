//! The JSON documents `flowc` prints.
//!
//! The `qor` section is byte-deterministic for a given design, flow and
//! engine configuration — the CI end-to-end smoke compares it across an
//! export/import boundary — while `eval` carries run-dependent statistics
//! (wall time, cache hits) and is explicitly excluded from such comparisons.

use aig::io::Format;
use aig::Aig;
use flow_core::Fingerprint;
use floweval::EvalStats;
use serde::{Deserialize, Serialize};
use synth::Qor;

/// The `design` section: identity and structural statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesignReport {
    pub name: String,
    /// `file:<path>` or `generated:<name>:<scale>`.
    pub source: String,
    pub inputs: usize,
    pub outputs: usize,
    pub ands: usize,
    pub depth: u32,
    /// Structural fingerprint (name-independent), hex.
    pub fingerprint: String,
}

impl DesignReport {
    /// The section for `aig`, whose [`floweval::fingerprint_design`] the
    /// caller already holds (the one its evaluation was keyed by), so the
    /// graph is hashed once per report.
    pub fn of(aig: &Aig, fingerprint: Fingerprint, source: &str) -> Self {
        DesignReport {
            name: aig.name().to_string(),
            source: source.to_string(),
            inputs: aig.num_inputs(),
            outputs: aig.num_outputs(),
            ands: aig.num_ands(),
            depth: aig.depth(),
            fingerprint: fingerprint.to_string(),
        }
    }
}

/// The `flow` section.
#[derive(Debug, Serialize, Deserialize)]
pub struct FlowReport {
    /// ABC-style script (`balance; rewrite; …`).
    pub script: String,
    /// Preset name when the flow was given by name.
    pub preset: Option<String>,
    /// Seed when the flow was drawn at random.
    pub random_seed: Option<u64>,
    pub length: usize,
}

/// The `export` section: where the optimized netlist was written.
#[derive(Debug, Serialize, Deserialize)]
pub struct ExportReport {
    pub path: String,
    pub format: String,
    pub ands: usize,
    pub depth: u32,
    /// The rendered netlist itself, carried inline when the report travels
    /// over a socket (`flowd` has no shared filesystem with its clients).
    /// Text formats only (`aag`/`blif`); `flowc run` writes to disk and
    /// leaves this `None`.
    pub netlist: Option<String>,
}

impl ExportReport {
    /// The section for `optimized`, written to `path` in `format`.
    pub fn of(optimized: &Aig, path: String, format: Format, netlist: Option<String>) -> Self {
        ExportReport {
            path,
            format: format.extension().to_string(),
            ands: optimized.num_ands(),
            depth: optimized.depth(),
            netlist,
        }
    }
}

/// One row of the `timing` section: wall-clock cost of one pass kind.
#[derive(Debug, Serialize, Deserialize)]
pub struct TimingEntry {
    /// ABC-style pass name (`balance`, `rewrite -z`, …; `map` for mapping).
    pub pass: String,
    pub calls: u64,
    pub seconds: f64,
}

/// The `timing` section (`flowc run --timing`): the engine's per-pass
/// breakdown.  Omitted by default — wall times are run-dependent, so the
/// byte-deterministic report the CI smoke compares stays stable.
#[derive(Debug, Serialize, Deserialize)]
pub struct TimingReport {
    pub passes: Vec<TimingEntry>,
    /// Total seconds in transformation passes (mapping excluded).
    pub pass_total_s: f64,
}

impl TimingReport {
    pub fn of(timings: &synth::PassTimings) -> Self {
        TimingReport {
            passes: timings
                .entries()
                .into_iter()
                .map(|(pass, stat)| TimingEntry {
                    pass: pass.to_string(),
                    calls: stat.calls,
                    seconds: stat.seconds,
                })
                .collect(),
            pass_total_s: timings.pass_seconds(),
        }
    }
}

/// The complete `flowc run` report: a [`RunRequest`](crate::request::RunRequest)'s
/// answer, in process and over the wire alike.
#[derive(Debug, Serialize, Deserialize)]
pub struct RunReport {
    pub design: DesignReport,
    pub flow: FlowReport,
    pub qor: Qor,
    pub eval: EvalStats,
    pub timing: Option<TimingReport>,
    pub export: Option<ExportReport>,
}

/// A JSON object from `"key" => value` pairs.  Documents that are only
/// written out are built with it; documents something reads back (the
/// [`RunReport`] wire format) are typed structs.
#[macro_export]
macro_rules! object {
    ($($key:literal => $value:expr),* $(,)?) => {
        serde::Value::Object(vec![$(($key.to_string(), serde::Serialize::to_value(&$value))),*])
    };
}
