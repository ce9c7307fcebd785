//! The metric dictionary and the result line the driver reads.

use std::collections::BTreeMap;

use crate::stats;

/// The command `BENCHMARK.json` names; the driver appends
/// `--workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` the driver passes.
pub const RUN_SECONDS: u32 = 24;

/// End-to-end metrics `(name, unit, better, bound)`, the same in every
/// workload.  `bound` is the share of the parent's median by which the metric
/// may get worse.  The time metrics carry the contract's ceiling, 25 %: sets
/// of ten runs spread by up to 13 % when the host changes speed mid-set (see
/// the README).  `peak_rss_mb` spreads by up to 6 % between seeds;
/// `qor_area_ratio` does not depend on the seed and repeats exactly.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("evals_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_eval", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.20),
    ("qor_area_ratio", "ratio", "lower", 0.001),
];

/// Per-layer metrics `(name, unit, better)`, reported by traced runs only.
/// A metric whose layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 77] = [
    ("aig.parse_ns_per_and", "ns", "lower"),
    ("aig.copy_ns_per_and", "ns", "lower"),
    ("aig.strash_ns_per_and", "ns", "lower"),
    ("aig.cut4_ns_per_and", "ns", "lower"),
    ("aig.render_ns_per_and", "ns", "lower"),
    ("synth.balance_ns_per_and", "ns", "lower"),
    ("synth.restructure_ns_per_and", "ns", "lower"),
    ("synth.rewrite_ns_per_and", "ns", "lower"),
    ("synth.refactor_ns_per_and", "ns", "lower"),
    ("synth.rewrite_z_ns_per_and", "ns", "lower"),
    ("synth.refactor_z_ns_per_and", "ns", "lower"),
    ("synth.map_ns_per_and", "ns", "lower"),
    ("synth.balance_and_ratio", "ratio", "lower"),
    ("synth.restructure_and_ratio", "ratio", "lower"),
    ("synth.rewrite_and_ratio", "ratio", "lower"),
    ("synth.refactor_and_ratio", "ratio", "lower"),
    ("synth.rewrite_z_and_ratio", "ratio", "lower"),
    ("synth.refactor_z_and_ratio", "ratio", "lower"),
    ("synth.apply_in_place", "count", "higher"),
    ("synth.apply_rebuilt", "count", "lower"),
    ("synth.apply_identity", "count", "higher"),
    ("synth.isop_hit_ratio", "ratio", "higher"),
    ("synth.npn4_table_build_ms", "ms", "lower"),
    ("circuits.generate_ms", "ms", "lower"),
    ("floweval.fingerprint_ns_per_and", "ns", "lower"),
    ("floweval.self_s", "s", "lower"),
    ("floweval.self_ratio", "ratio", "lower"),
    ("floweval.trie_hits", "count", "higher"),
    ("floweval.pass_savings_ratio", "ratio", "higher"),
    ("floweval.trie_cached_nodes", "count", "lower"),
    ("floweval.trie_cached_prefixes", "count", "higher"),
    ("floweval.flows_requested", "count", "higher"),
    ("floweval.store_hits", "count", "higher"),
    ("floweval.passes_requested", "count", "lower"),
    ("floweval.passes_applied", "count", "lower"),
    ("floweval.mappings_run", "count", "lower"),
    ("floweval.store_write_errors", "count", "lower"),
    ("floweval.store_get_us", "us", "lower"),
    ("floweval.store_insert_us", "us", "lower"),
    ("floweval.store_flush_ms", "ms", "lower"),
    ("floweval.store_bytes_per_rec", "B", "lower"),
    ("floweval.store_open_ms_per_krec", "ms", "lower"),
    ("floweval.search_vs_batch_ratio", "ratio", "higher"),
    ("flowgen.stage_label_s", "s", "lower"),
    ("flowgen.stage_train_s", "s", "lower"),
    ("flowgen.stage_predict_s", "s", "lower"),
    ("flowgen.stage_select_s", "s", "lower"),
    ("flowgen.stage_other_s", "s", "lower"),
    ("flowgen.sample_us_per_flow", "us", "lower"),
    ("flowgen.encode_us_per_flow", "us", "lower"),
    ("flowgen.label_us_per_flow", "us", "lower"),
    ("flowgen.select_us_per_flow", "us", "lower"),
    ("flowgen.select_accuracy", "ratio", "higher"),
    ("flowgen.holdout_accuracy", "ratio", "higher"),
    ("nn.train_step_ms", "ms", "lower"),
    ("nn.predict_us_per_flow", "us", "lower"),
    ("nn.gemm_gflops", "GFLOP/s", "higher"),
    ("nn.gemm_nt_gflops", "GFLOP/s", "higher"),
    ("nn.threads_speedup", "ratio", "higher"),
    ("nn.params", "count", "lower"),
    ("nn.train_loss", "nats", "lower"),
    ("httpwire.read_request_us", "us", "lower"),
    ("httpwire.write_response_us", "us", "lower"),
    ("httpwire.request_bytes", "B", "lower"),
    ("httpwire.response_bytes", "B", "lower"),
    ("flowd.boot_ms", "ms", "lower"),
    ("flowd.hit_ms_p50", "ms", "lower"),
    ("flowd.extend_ms_p50", "ms", "lower"),
    ("flowd.fresh_ms_p50", "ms", "lower"),
    ("flowd.worker_busy_ratio", "ratio", "lower"),
    ("flowd.queue_depth_max", "count", "lower"),
    ("flowd.rejected_503", "count", "lower"),
    ("flowd.http_5xx", "count", "lower"),
    ("flowd.drain_ms", "ms", "lower"),
    ("trace.attributed_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.host_cores", "count", "higher"),
];

/// Loss of a classifier that has learnt nothing: uniform over 7 classes.
pub const UNTRAINED_LOSS: f64 = 1.945_910_149_055_313_3;

/// What one timed section measured.
#[derive(Debug, Clone, Default)]
pub struct Section {
    /// Wall seconds of the section.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads) over the section.
    pub cpu_s: f64,
    /// Flows answered: QoR labels, or samples trained/classified.
    pub evals: u64,
    /// One entry per operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations that failed (non-200, panic, wrong result).
    pub failed: u64,
    /// `VmHWM` when the section ended: the checks that follow it (oracle,
    /// QoR panel) are the harness's memory, not the program's.
    pub peak_rss_mb: f64,
}

impl Section {
    /// Ends the section that began at `(cpu0, wall0)`.
    pub fn close(&mut self, cpu0: f64, wall0: std::time::Instant) {
        self.wall_s = wall0.elapsed().as_secs_f64();
        self.cpu_s = crate::host::cpu_seconds() - cpu0;
        self.peak_rss_mb = crate::host::peak_rss_mb();
    }
}

/// Everything one run of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The untraced timed section (in a traced run: the untraced reference).
    pub section: Section,
    /// Median of the cold set-up probes.
    pub setup_s: f64,
    /// Geomean mapped area after ÷ before; 1 where nothing is synthesised.
    pub qor_area_ratio: f64,
    /// Final training loss (mean of the last round / last 20 steps); 0 where
    /// nothing is trained.  Reported per layer as `nn.train_loss`.
    pub train_loss: f64,
    /// Correctness checks made outside the timed section.
    pub checks: u64,
    /// Checks that failed.
    pub failed_checks: u64,
    /// Deterministic counters of the timed section (must repeat exactly for
    /// a seed and stay within 2 % across seeds).
    pub counters: BTreeMap<String, f64>,
    /// Per-layer metric values (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Operations attempted: timed operations plus correctness checks.
    pub fn attempted(&self) -> u64 {
        self.section.latencies_ms.len() as u64 + self.checks
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.section.failed + self.failed_checks
    }

    /// The end-to-end values in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<f64> {
        let s = &self.section;
        let evals = s.evals.max(1) as f64;
        vec![
            self.setup_s,
            evals / s.wall_s,
            stats::median(&s.latencies_ms),
            stats::tail(&s.latencies_ms).0,
            s.cpu_s * 1e3 / evals,
            s.peak_rss_mb,
            self.qor_area_ratio,
        ]
    }

    /// Sets a per-layer metric; the name must be in [`PER_LAYER`].
    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "unknown {name}"
        );
        self.layers.insert(name.to_string(), value);
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|(name, unit, _)| {
                    metric_json(name, self.layers.get(*name).copied().unwrap_or(0.0), unit)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(self.end_to_end())
                .map(|((name, unit, _, _), value)| metric_json(name, value, unit))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed() == 0,
            self.attempted().max(1),
            self.failed(),
            metrics.join(", ")
        )
    }
}

/// The text of `BENCHMARK.json`, generated from the tables above so the file
/// the driver reads cannot drift from what the program prints
/// (`flowbench --manifest > BENCHMARK.json`; a test compares them).
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let workloads = crate::runner::WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": {name:?}, \"why\": {why:?}}}"))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "{{\"name\": {name:?}, \"unit\": {unit:?}, \"better\": {better:?}, \"bound\": {bound}}}"
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("{{\"name\": {name:?}, \"unit\": {unit:?}, \"better\": {better:?}}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": {COMMAND:?},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}
