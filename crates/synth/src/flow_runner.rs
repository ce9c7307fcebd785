//! Applying whole synthesis flows and collecting their QoR.
//!
//! This is the reproduction of component 1 of the paper's framework (Figure 2):
//! the "synthesis tool" box that takes the HDL/design plus a flow and returns
//! labelled QoR data.  One runner evaluates one flow at a time; batches (the
//! paper's 10,000-flow training sets) go through `floweval::EvalEngine`,
//! which shares the work common to many flows.

use aig::{random_equivalence_check, Aig, AigStats};

use crate::library::CellLibrary;
use crate::mapper::{map_with_ctx, MapperParams};
use crate::pass::PassContext;
use crate::passes::Transform;
use crate::qor::Qor;

/// Whether an optimized network still computes its design's function, by the
/// one verification policy every flow evaluation uses: 8 rounds of random
/// simulation under a fixed seed, so a check repeats exactly.
pub fn verify_equivalence(design: &Aig, optimized: &Aig) -> bool {
    random_equivalence_check(design, optimized, 8, 0x5EED)
}

/// Evaluates synthesis flows (sequences of [`Transform`]s) against one design.
#[derive(Debug, Clone)]
pub struct FlowRunner {
    library: CellLibrary,
    verify: bool,
}

/// The result of running one flow.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Post-mapping quality of result.
    pub qor: Qor,
    /// Structural statistics of the optimised network before mapping.
    pub optimized: AigStats,
    /// Wall-clock runtime of passes + mapping in seconds.
    pub runtime_s: f64,
    /// `true` when functional verification was requested and passed.
    pub verified: bool,
}

impl FlowRunner {
    /// Creates a runner with the built-in 14 nm-like library and default mapping.
    pub fn new() -> Self {
        FlowRunner {
            library: CellLibrary::nangate14(),
            verify: false,
        }
    }

    /// Enables per-flow functional verification by random simulation.
    ///
    /// Verification costs extra runtime and is mainly useful in tests and when
    /// developing new passes.
    pub fn with_verification(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Runs a single flow on `design` and returns its outcome.
    ///
    /// The passes and the mapping run on one fresh [`PassContext`] (the
    /// arena-recycling pass pipeline).  Callers that recycle a context
    /// across flows, or run under a budget, go through the context itself
    /// (`PassContext::run_flow_cancellable`, `try_map_with_ctx`) or through
    /// `floweval::EvalEngine`.
    pub fn run(&self, design: &Aig, flow: &[Transform]) -> FlowOutcome {
        let start = std::time::Instant::now();
        let mut ctx = PassContext::default();
        let mut optimized = ctx.run_flow(design, flow);
        let verified = self.verify && verify_equivalence(design, &optimized);
        let params = MapperParams::default();
        let netlist = map_with_ctx(&mut optimized, &self.library, params, &mut ctx);
        FlowOutcome {
            qor: netlist.qor(),
            optimized: AigStats::of(&optimized),
            runtime_s: start.elapsed().as_secs_f64(),
            verified,
        }
    }
}

impl Default for FlowRunner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::{Design, DesignScale};

    #[test]
    fn runs_a_flow_and_reports_qor() {
        let design = Design::Alu64.generate(DesignScale::Tiny);
        let runner = FlowRunner::new().with_verification(true);
        let flow = [Transform::Balance, Transform::Rewrite, Transform::Refactor];
        let outcome = runner.run(&design, &flow);
        assert!(outcome.qor.area_um2 > 0.0);
        assert!(outcome.qor.delay_ps > 0.0);
        assert!(outcome.verified, "passes must preserve the function");
        assert!(outcome.runtime_s >= 0.0);
        assert!(outcome.optimized.num_ands <= design.num_ands());
    }

    #[test]
    fn different_flows_give_different_qor() {
        let design = Design::Alu64.generate(DesignScale::Tiny);
        let runner = FlowRunner::new();
        let q1 = runner
            .run(&design, &[Transform::Balance, Transform::Rewrite])
            .qor;
        let q2 = runner
            .run(&design, &[Transform::RefactorZ, Transform::Restructure])
            .qor;
        let differs =
            (q1.area_um2 - q2.area_um2).abs() > 1e-9 || (q1.delay_ps - q2.delay_ps).abs() > 1e-9;
        assert!(differs, "the premise of the paper: flow choice changes QoR");
    }

    #[test]
    fn empty_flow_is_baseline_mapping() {
        let design = Design::Alu64.generate(DesignScale::Tiny);
        let runner = FlowRunner::new();
        let outcome = runner.run(&design, &[]);
        assert_eq!(outcome.optimized.num_ands, design.cleanup().num_ands());
    }
}
