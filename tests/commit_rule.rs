//! The sweeps' commit rule, checked on the designs the paper loop labels: on
//! the three Small designs, under every preset and seeded paper flows, each
//! sweep that rebuilds removes at least the gain its committed decisions
//! estimated, and the rule does drop decisions there.

use circuits::{Design, DesignScale};
use flowgen::{Flow, FlowSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use synth::{PassContext, Transform};

/// Paper flows drawn per design, beside the presets.
const RANDOM_FLOWS: usize = 8;

#[test]
fn every_sweep_realises_its_estimate_on_the_small_designs() {
    let space = FlowSpace::paper();
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0117);
    for design in Design::ALL {
        let g = design.generate(DesignScale::Small);
        let mut flows: Vec<Vec<Transform>> = Flow::presets()
            .iter()
            .map(|(_, flow)| flow.to_vec())
            .collect();
        flows.extend((0..RANDOM_FLOWS).map(|_| space.random_flow(&mut rng).transforms().to_vec()));
        let mut ctx = PassContext::default();
        let mut sweeps = 0;
        for flow in &flows {
            let mut work = ctx.run_flow(&g, &[]);
            for (step, &t) in flow.iter().enumerate() {
                let before = ctx.apply_stats();
                ctx.apply(t, &mut work);
                let after = ctx.apply_stats();
                if after.rebuilt == before.rebuilt {
                    continue;
                }
                sweeps += 1;
                let estimated = after.gain_estimated - before.gain_estimated;
                let realised = after.gain_realised - before.gain_realised;
                assert!(
                    realised >= estimated,
                    "{design} {flow:?} step {step} ({t}): realised {realised} < estimated {estimated}"
                );
            }
            ctx.recycle(work);
        }
        let stats = ctx.apply_stats();
        assert!(sweeps > 0, "{design}: no sweep rebuilt");
        assert!(
            stats.conflicts > 0,
            "{design}: no decision dropped: {stats:?}"
        );
        assert!(
            stats.gain_realised >= stats.gain_estimated,
            "{design}: {stats:?}"
        );
    }
}
