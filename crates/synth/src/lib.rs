//! # synth — logic synthesis passes, technology mapping and QoR evaluation
//!
//! This crate is the reproduction's stand-in for the ABC logic synthesis system
//! used by *Developing Synthesis Flows Without Human Knowledge* (DAC 2018):
//!
//! * the paper's transformation set `S` = {`balance`, `restructure`, `rewrite`,
//!   `refactor`, `rewrite -z`, `refactor -z`} as [`Transform`] with faithful
//!   algorithmic analogues of each pass,
//! * a cut-based technology [`mapper`] over a synthetic 14 nm-like
//!   standard-cell [`library`], producing the area/delay QoR the paper labels
//!   flows with, and
//! * a [`FlowRunner`] that applies one whole flow and collects its QoR — the
//!   "synthesis tool" box of the paper's framework (Figure 2, component 1);
//!   batches of flows go through `floweval::EvalEngine`.
//!
//! Every pass has one front, [`Transform::apply`] (and [`apply_sequence`] for
//! a flow), over one production path, [`PassContext`]; the mapper matches
//! cut functions through one index, [`CellLibrary::matches_npn4`].  The
//! slow, obviously structured oracle of the mapping half — cut enumeration,
//! cell matching, the mapper — lives in `synth::reference` and is used by
//! tests only; it owns the only other cut type (heap-allocated cuts and
//! their enumerator).  The passes have no second copy: tests pin their bits
//! and check every result's function by simulation.
//!
//! Synthesis runs at one configuration: each pass's cut and cover limits
//! are private constants beside it, `rewrite` and the mapper both enumerate
//! [`aig::CutParams::default`], and the mapper has one objective (arrival
//! first, area-flow breaking ties), so [`MapperParams`] has no fields.  A
//! sweep builds exactly what it priced: the SOP emitter and the Shannon
//! recursion each run once, into the graph or into the pricer's dry-run.
//!
//! ## Quick example
//!
//! ```
//! use circuits::{Design, DesignScale};
//! use synth::{FlowRunner, Transform};
//!
//! let design = Design::Alu64.generate(DesignScale::Tiny);
//! let runner = FlowRunner::new();
//! let outcome = runner.run(&design, &[Transform::Balance, Transform::Rewrite]);
//! assert!(outcome.qor.area_um2 > 0.0);
//! ```
//!
//! ## Fidelity notes
//!
//! The passes follow the same algorithmic families as their ABC namesakes
//! (AND-tree balancing, 4-cut NPN/SOP rewriting, reconvergence-driven-cut
//! refactoring, Shannon restructuring), but they are reimplementations, not
//! ports; absolute QoR numbers differ from ABC's while the qualitative
//! behaviour — order-dependent, design-specific QoR — is preserved.  Technology
//! mapping treats input/output phase as free (complemented edges), a common
//! simplification in academic mappers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod decomp;
pub mod flow_runner;
pub mod library;
pub mod mapper;
pub mod npn4;
pub mod pass;
pub mod passes;
pub mod qor;
pub mod reconv;
pub mod refactor;
#[doc(hidden)]
pub mod reference;
pub mod restructure;
pub mod resyn;
pub mod rewrite;
pub mod sop;

pub use flow_runner::{verify_equivalence, FlowOutcome, FlowRunner};
pub use library::{Cell, CellId, CellLibrary};
pub use mapper::{
    map, map_qor, map_with_ctx, try_map_with_ctx, MappedGate, MappedNetlist, MapperParams,
};
pub use pass::{ApplyStats, PassContext, PassStat, PassTimings};
pub use passes::{apply_sequence, Transform};
pub use qor::{Qor, QorMetric};
pub use sop::SharedIsopCache;

/// Revision of the bits synthesis produces.  Raised by every change that
/// moves a pass's or the mapper's output on purpose; stored QoR is keyed by
/// a configuration fingerprint that hashes it (`floweval::fingerprint_config`),
/// so a result computed by an older revision is never served.
///
/// Revision 1: sweeps commit only compatible decisions.
pub const SYNTH_REV: u32 = 1;
