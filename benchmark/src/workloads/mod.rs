//! The four workloads.  Each exposes `setup` (one cold set-up, also what a
//! `--setup-probe` child runs) and `run`.

pub mod cnn_train;
pub mod cold_synth;
pub mod flowd_mix;
pub mod paper_loop;

/// Stage times of one cold set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Process-visible start → timed section ready, in seconds.
    pub ready_s: f64,
    /// First use of `synth::npn4::npn4()` (builds the table), in ms.
    pub npn4_ms: f64,
    /// Design generation, in ms.
    pub generate_ms: f64,
}
