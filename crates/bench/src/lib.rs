//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Every experiment of the paper has a corresponding binary in `src/bin/`
//! (see DESIGN.md for the index).  The binaries share dataset collection,
//! scaling and plain-text table output through this small library so each one
//! stays focused on its experiment.
//!
//! Experiments default to laptop-scale parameters; set the environment variable
//! `FLOWGEN_SCALE` to `tiny`, `small` or `full` to change the design sizes and
//! flow counts (`full` approaches the paper's setup and takes correspondingly
//! long).
//!
//! All QoR collection goes through one process-wide [`floweval::EvalEngine`],
//! so binaries that revisit a design (ablations sweep several configurations
//! over the same flows) reuse earlier evaluations.  Set `FLOWGEN_QOR_STORE`
//! to a store base path (the store writes `<base>.manifest` and
//! `<base>.NNNNNN.seg` beside it) to persist evaluations across runs of
//! different binaries.

pub mod studies;

use std::sync::{Arc, OnceLock};

use circuits::{Design, DesignScale};
use floweval::{EngineConfig, EvalEngine};
use flowgen::{Dataset, Flow, FlowSpace, Framework, FrameworkConfig, FrameworkReport, Labeler};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use synth::{Qor, QorMetric, Transform};

/// The process-wide evaluation engine used by every experiment binary.
///
/// Honours the `FLOWGEN_QOR_STORE` environment variable: when set, evaluated
/// flows are persisted there and reused by later runs.
pub fn shared_engine() -> Arc<EvalEngine> {
    static ENGINE: OnceLock<Arc<EvalEngine>> = OnceLock::new();
    ENGINE
        .get_or_init(|| {
            let store_path = std::env::var_os("FLOWGEN_QOR_STORE").map(std::path::PathBuf::from);
            Arc::new(EvalEngine::new(EngineConfig {
                store_path,
                ..EngineConfig::default()
            }))
        })
        .clone()
}

/// Runs the autonomous framework through the process-wide [`shared_engine`],
/// so sweep binaries re-running the same flows (ablations over classifier
/// settings, retrain intervals, …) hit the cache instead of re-evaluating.
pub fn run_framework(config: FrameworkConfig, design: &aig::Aig) -> FrameworkReport {
    Framework::with_engine(config, shared_engine()).run(design)
}

/// Experiment scale selected through the `FLOWGEN_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smallest designs and flow counts; minutes of runtime.
    Tiny,
    /// Default scale: small designs, a few hundred flows.
    Small,
    /// Paper-approaching scale (hours of runtime).
    Full,
}

impl Scale {
    /// Reads the scale from the environment (default: [`Scale::Tiny`]).
    pub fn from_env() -> Scale {
        match std::env::var("FLOWGEN_SCALE")
            .unwrap_or_default()
            .to_lowercase()
            .as_str()
        {
            "full" => Scale::Full,
            "small" => Scale::Small,
            _ => Scale::Tiny,
        }
    }

    /// The design scale used at this experiment scale.
    pub fn design_scale(self) -> DesignScale {
        match self {
            Scale::Tiny => DesignScale::Tiny,
            Scale::Small => DesignScale::Small,
            Scale::Full => DesignScale::Full,
        }
    }

    /// Number of labelled training flows to collect.
    pub fn training_flows(self) -> usize {
        match self {
            Scale::Tiny => 120,
            Scale::Small => 600,
            Scale::Full => 10_000,
        }
    }

    /// Number of unlabeled sample flows to classify.
    pub fn sample_flows(self) -> usize {
        match self {
            Scale::Tiny => 200,
            Scale::Small => 2_000,
            Scale::Full => 100_000,
        }
    }

    /// Number of random flows used for the QoR-distribution figure (Figure 1).
    pub fn distribution_flows(self) -> usize {
        match self {
            Scale::Tiny => 200,
            Scale::Small => 1_000,
            Scale::Full => 50_000,
        }
    }

    /// Number of angel-/devil-flows to output.
    pub fn output_flows(self) -> usize {
        match self {
            Scale::Tiny => 20,
            Scale::Small => 50,
            Scale::Full => 200,
        }
    }

    /// Mini-batch training steps per round.
    pub fn training_steps(self) -> usize {
        match self {
            Scale::Tiny => 300,
            Scale::Small => 1_500,
            Scale::Full => 100_000,
        }
    }
}

/// A collected, labelled dataset together with the raw flows and QoR values.
#[derive(Debug, Clone)]
pub struct CollectedData {
    /// The evaluated flows.
    pub flows: Vec<Flow>,
    /// One QoR record per flow.
    pub qors: Vec<Qor>,
    /// The labelled dataset (paper percentile model).
    pub dataset: Dataset,
    /// The labeler fitted on this data.
    pub labeler: Labeler,
    /// Wall-clock seconds spent running the synthesis flows.
    pub collection_time_s: f64,
}

/// Runs `count` random m-repetition flows on `design` and labels them for `metric`.
pub fn collect_labeled_flows(
    design: &aig::Aig,
    metric: QorMetric,
    count: usize,
    seed: u64,
) -> CollectedData {
    let start = std::time::Instant::now();
    let space = FlowSpace::paper();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let flows = space.random_unique_flows(count, &mut rng);
    let transform_seqs: Vec<Vec<Transform>> =
        flows.iter().map(|f| f.transforms().to_vec()).collect();
    let qors = shared_engine().evaluate_batch(design, &transform_seqs);
    let labeler = Labeler::paper_model(metric, &qors);
    let dataset = Dataset::from_evaluations(flows.clone(), qors.clone(), &labeler);
    CollectedData {
        flows,
        qors,
        dataset,
        labeler,
        collection_time_s: start.elapsed().as_secs_f64(),
    }
}

/// Generates a benchmark design at the given experiment scale.
pub fn design_at_scale(design: Design, scale: Scale) -> aig::Aig {
    design.generate(scale.design_scale())
}

/// The designs a study runs over: by default the three generated paper
/// benchmarks at `scale`; when the `FLOWGEN_IMPORT` environment variable is
/// set to a comma-separated list of `.aag`/`.aig`/`.blif` paths, the imported
/// netlists instead (exported fixtures, external benchmark suites, …), so
/// every experiment binary can reproduce its study on real designs.
///
/// # Panics
///
/// Panics with a descriptive message when an imported path cannot be read —
/// a study silently falling back to generated designs would mislabel its
/// output.
pub fn study_designs(scale: Scale) -> Vec<(String, aig::Aig)> {
    match std::env::var("FLOWGEN_IMPORT") {
        Ok(list) if !list.trim().is_empty() => list
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(|path| {
                let aig = aig::io::read_design(path)
                    .unwrap_or_else(|e| panic!("FLOWGEN_IMPORT: cannot read `{path}`: {e}"));
                (aig.name().to_string(), aig)
            })
            .collect(),
        _ => Design::ALL
            .into_iter()
            .map(|d| (d.name().to_string(), design_at_scale(d, scale)))
            .collect(),
    }
}

/// Prints a plain-text table with aligned columns (the textual stand-in for the
/// paper's plots).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Simple summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Relative spread `(max - min) / min` in percent.
    pub spread_pct: f64,
}

/// Computes summary statistics; returns zeros for an empty slice.
pub fn summarize(values: &[f64]) -> Summary {
    if values.is_empty() {
        return Summary {
            min: 0.0,
            max: 0.0,
            mean: 0.0,
            spread_pct: 0.0,
        };
    }
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let spread_pct = if min > 0.0 {
        (max - min) / min * 100.0
    } else {
        0.0
    };
    Summary {
        min,
        max,
        mean,
        spread_pct,
    }
}

/// Builds a text histogram (bin counts) over `bins` equal-width bins.
pub fn histogram(values: &[f64], bins: usize) -> Vec<(f64, f64, usize)> {
    let s = summarize(values);
    if values.is_empty() || s.max <= s.min {
        return Vec::new();
    }
    let width = (s.max - s.min) / bins as f64;
    let mut counts = vec![0usize; bins];
    for &v in values {
        let mut idx = ((v - s.min) / width) as usize;
        if idx >= bins {
            idx = bins - 1;
        }
        counts[idx] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (s.min + i as f64 * width, s.min + (i + 1) as f64 * width, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters_are_ordered() {
        assert!(Scale::Tiny.training_flows() < Scale::Small.training_flows());
        assert!(Scale::Small.training_flows() < Scale::Full.training_flows());
        assert_eq!(Scale::Full.training_flows(), 10_000);
        assert_eq!(Scale::Full.sample_flows(), 100_000);
        assert_eq!(Scale::Full.distribution_flows(), 50_000);
        assert_eq!(Scale::Full.output_flows(), 200);
    }

    #[test]
    fn study_designs_honours_flowgen_import() {
        // Without the variable: the three generated paper designs.
        // (Set/removed in one test to avoid races with a parallel sibling.)
        std::env::remove_var("FLOWGEN_IMPORT");
        let generated = study_designs(Scale::Tiny);
        assert_eq!(generated.len(), 3);
        assert_eq!(generated[0].0, "montgomery64");

        // With the variable: the imported netlists, in list order.
        let dir = std::env::temp_dir().join(format!("bench-import-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("imported.aag");
        let mut g = aig::Aig::with_name("imported");
        let a = g.add_input("a");
        let b = g.add_input("b");
        let f = g.and(a, b);
        g.add_output("f", f);
        std::fs::write(&path, aig::io::write_aag(&g)).unwrap();
        std::env::set_var("FLOWGEN_IMPORT", path.to_str().unwrap());
        let imported = study_designs(Scale::Tiny);
        std::env::remove_var("FLOWGEN_IMPORT");
        assert_eq!(imported.len(), 1);
        assert_eq!(imported[0].0, "imported");
        assert_eq!(imported[0].1.num_ands(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summary_and_histogram() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let s = summarize(&values);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-9);
        assert!((s.spread_pct - 300.0).abs() < 1e-9);
        let h = histogram(&values, 3);
        assert_eq!(h.len(), 3);
        assert_eq!(h.iter().map(|x| x.2).sum::<usize>(), 4);
        assert!(histogram(&[], 3).is_empty());
    }

    #[test]
    fn collect_labeled_flows_produces_consistent_data() {
        let design = circuits::Design::Alu64.generate(circuits::DesignScale::Tiny);
        let data = collect_labeled_flows(&design, QorMetric::Area, 12, 3);
        assert_eq!(data.flows.len(), 12);
        assert_eq!(data.qors.len(), 12);
        assert_eq!(data.dataset.len(), 12);
        assert_eq!(data.labeler.num_classes(), 7);
        assert!(data.collection_time_s > 0.0);
    }
}
