//! # aig — And-Inverter Graph substrate
//!
//! This crate provides the combinational logic network representation used by the
//! whole reproduction of *Developing Synthesis Flows Without Human Knowledge*
//! (DAC 2018): a classic **And-Inverter Graph** (AIG) with structural hashing,
//! cut enumeration, truth-table computation, maximum-fanout-free-cone analysis and
//! random simulation.
//!
//! The synthesis passes of the `synth` crate (the analogue of the
//! ABC commands `balance`, `rewrite`, `refactor`, `restructure` the paper uses) all
//! operate on [`Aig`].
//!
//! ## Quick example
//!
//! ```
//! use aig::Aig;
//!
//! // f = (a & b) | c  built as an AIG
//! let mut g = Aig::new();
//! let a = g.add_input("a");
//! let b = g.add_input("b");
//! let c = g.add_input("c");
//! let ab = g.and(a, b);
//! let f = g.or(ab, c);
//! g.add_output("f", f);
//!
//! assert_eq!(g.num_inputs(), 3);
//! assert_eq!(g.num_outputs(), 1);
//! assert!(g.num_ands() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cut;
mod cut4;
mod graph;
pub mod io;
mod lit;
mod mffc;
mod node;
mod simulate;
mod stats;
mod strash;
mod truth;

pub use cut::{
    cut_truth, cut_truth_with, Cut, CutEnumerator, CutParams, CutSet, CutTruthScratch,
    MAX_SCRATCH_TRUTH_VARS,
};
pub use cut4::{
    truth4_pad, truth4_reduce, truth4_support, Cut4, Cut4Enumerator, CutSet4, CUT4_MAX_LEAVES,
    CUT4_SET_CAPACITY,
};
pub use graph::{Aig, AigScratch, NodeId};
pub use lit::Lit;
pub use mffc::{Mffc, MffcScratch};
pub use node::{Node, NodeKind};
pub use simulate::{random_equivalence_check, SimVector, Simulator};
pub use stats::AigStats;
pub use truth::{SmallTruth, TruthOps, TruthTable, MAX_TRUTH_VARS};

/// Errors produced by AIG construction and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AigError {
    /// A literal referenced a node id that does not exist in the graph.
    InvalidLiteral(Lit),
    /// A primary-output name was registered twice.
    DuplicateOutput(String),
    /// A primary-input name was registered twice.
    DuplicateInput(String),
    /// Truth-table computation was requested for a cut wider than the supported maximum.
    CutTooWide(usize),
}

impl std::fmt::Display for AigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AigError::InvalidLiteral(l) => write!(f, "invalid literal {l}"),
            AigError::DuplicateOutput(n) => write!(f, "duplicate output name `{n}`"),
            AigError::DuplicateInput(n) => write!(f, "duplicate input name `{n}`"),
            AigError::CutTooWide(k) => write!(f, "cut width {k} exceeds supported maximum"),
        }
    }
}

impl std::error::Error for AigError {}

/// Convenient result alias for fallible AIG operations.
pub type Result<T> = std::result::Result<T, AigError>;
