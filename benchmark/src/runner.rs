//! One run of one workload: cold set-up probes, the timed section, the
//! correctness checks and (traced) the per-layer rows.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads;

/// The four workloads `(name, why)`, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper_loop",
        "The paper's Figure 2 end to end (Framework::run on three Small designs): every layer works, synth + floweval batches do most of it, the store is write-mostly.",
    ),
    (
        "cold_synth",
        "Paper-scale designs, one thread, no reusable prefix: aig/synth do everything, the trie only pays; a cache or wire optimisation must show no change here.",
    ),
    (
        "cnn_train",
        "The 3.27 M-parameter classifier trains and classifies: only nn (GEMM, im2col, optimiser, rayon shim) works; synth and floweval do nothing.",
    ),
    (
        "flowd_mix",
        "flowd over loopback, closed loop, 2 clients, 70/20/10 hit/extend/fresh: wire, parsing, queueing, trie and store dominate; single-flow read-mostly use of floweval.",
    ),
];

/// Seconds of timed work the constants in `workloads` are calibrated for.
pub const NOMINAL_SECONDS: f64 = 20.0;

/// Largest `--seconds` accepted: `cold_synth` gives every aes128 flow its own
/// two-pass prefix of distinct transforms, and only 30 exist (24 per nominal
/// section).
pub const MAX_SECONDS: f64 = 25.0;

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_PROBES: usize = 15;

/// Busy threads and connections no workload exceeds (the host has 2 cores).
pub const THREADS: usize = 2;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of every input the workload generates.
    pub seed: u64,
    /// Size of the timed section: the fixed amount of work that takes about
    /// this long on the reference container.  Never a time budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
}

impl RunArgs {
    /// Work multiplier relative to the nominal section.  A traced run spends
    /// its time on two sections (untraced reference, traced replay), each
    /// half the size.
    pub fn scale(&self) -> f64 {
        let share = if self.trace { 0.5 } else { 1.0 };
        self.seconds * share / NOMINAL_SECONDS
    }

    /// `count` scaled to this run, at least `min`.
    pub fn scaled(&self, count: f64, min: usize) -> usize {
        ((count * self.scale()).round() as usize).max(min)
    }
}

/// Runs the workload and returns everything it measured.
///
/// # Panics
///
/// Panics on an unknown workload name and on any failure the workload
/// cannot count as a failed operation (a panicking pass, a dead daemon).
pub fn run(args: &RunArgs) -> Outcome {
    // The vendored rayon reads this on every parallel call.
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let mut outcome = match args.workload.as_str() {
        "paper_loop" => workloads::paper_loop::run(args, &mut tracer),
        "cold_synth" => workloads::cold_synth::run(args, &mut tracer),
        "cnn_train" => workloads::cnn_train::run(args, &mut tracer),
        "flowd_mix" => workloads::flowd_mix::run(args, &mut tracer),
        other => panic!("unknown workload `{other}`"),
    };
    if args.trace {
        // The gate on the trace itself: the layers' self times must account
        // for at least nine tenths of the traced wall.
        let attributed = tracer.attributed_ratio();
        outcome.layer("trace.attributed_ratio", attributed);
        outcome.checks += 1;
        outcome.failed_checks += u64::from(attributed < 0.9);
        outcome.layer("trace.host_cores", crate::host::host_cores() as f64);
        outcome.layer("nn.train_loss", outcome.train_loss);
        let path = results_dir().join(format!("trace-{}.json", args.workload));
        match std::fs::create_dir_all(results_dir())
            .and_then(|()| std::fs::write(&path, tracer.to_json()))
        {
            Ok(()) => outcome.notes.push(format!(
                "spans: {} -> {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => outcome
                .notes
                .push(format!("cannot write {}: {e}", path.display())),
        }
        for (layer, seconds) in tracer.layer_self_times() {
            outcome
                .notes
                .push(format!("self time {layer:<10} {seconds:9.3} s"));
        }
    }
    outcome
}

/// Performs one cold set-up of `workload` in this process and returns
/// start→ready seconds (`--setup-probe`).  `store` is the pre-filled store
/// copy a `flowd_mix` probe opens.
pub fn setup_probe(args: &RunArgs, store: Option<&Path>) -> f64 {
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    match args.workload.as_str() {
        "paper_loop" => workloads::paper_loop::setup(args).times.ready_s,
        "cold_synth" => workloads::cold_synth::setup(args).times.ready_s,
        "cnn_train" => workloads::cnn_train::setup(args).times.ready_s,
        "flowd_mix" => {
            workloads::flowd_mix::setup_probe(args, store.expect("--store <dir> required"))
        }
        other => panic!("unknown workload `{other}`"),
    }
}

/// `setup_s`: the median of [`SETUP_PROBES`] cold set-ups, each in a fresh
/// child process (this binary with `--setup-probe`) so one-time tables are
/// paid every time.  `store` yields a fresh copy of the pre-filled store per
/// probe.
pub fn measure_setup(args: &RunArgs, mut store: impl FnMut(usize) -> Option<PathBuf>) -> f64 {
    let exe = std::env::current_exe().expect("own path");
    let samples: Vec<f64> = (0..SETUP_PROBES)
        .map(|i| {
            let mut cmd = Command::new(&exe);
            cmd.args(["--setup-probe", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            if let Some(dir) = store(i) {
                cmd.arg("--store").arg(dir);
            }
            let output = cmd.output().expect("spawn set-up probe");
            assert!(
                output.status.success(),
                "set-up probe failed: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            String::from_utf8_lossy(&output.stdout)
                .trim()
                .parse::<f64>()
                .expect("probe prints its set-up seconds")
        })
        .collect();
    stats::median(&samples)
}

/// Where traces, the A/A table and scratch files go: `benchmark/results`
/// from the repository root, `results` from inside the package.
pub fn results_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/results")
    } else {
        PathBuf::from("results")
    }
}

/// A scratch directory under [`results_dir`], removed when dropped.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `results/tmp-<pid>-<tag>`.
    pub fn new(tag: &str) -> Scratch {
        let dir = results_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        Scratch(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copies every regular file of `from` into (new) `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
