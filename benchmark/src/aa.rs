//! `--aa`: the benchmark judges itself.  Two sets of runs of the same binary
//! with the same seed list, alternating A/B (A first on odd seeds, B first on
//! even ones, so neither set always runs second), must agree: per metric the
//! gap between the two medians may not exceed half the metric's bound and
//! neither set's interquartile range may exceed the bound.

use std::collections::BTreeMap;
use std::process::Command;

use crate::report::END_TO_END;
use crate::runner::{results_dir, WORKLOADS};
use crate::stats;

/// The `metrics` object of a result line: name → value.
pub fn parse_result_line(line: &str) -> Option<(bool, BTreeMap<String, f64>)> {
    let value = serde_json::parse_value(line.trim()).ok()?;
    let correct = matches!(value.get("correct")?, serde::Value::Bool(true));
    let metrics = value
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(name, metric)| {
            let v = match metric.get("value")? {
                serde::Value::F64(v) => *v,
                serde::Value::U64(v) => *v as f64,
                serde::Value::I64(v) => *v as f64,
                _ => return None,
            };
            Some((name.clone(), v))
        })
        .collect();
    Some((correct, metrics))
}

fn one_run(workload: &str, seed: u64, seconds: f64) -> Option<(bool, BTreeMap<String, f64>)> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    parse_result_line(String::from_utf8_lossy(&output.stdout).lines().last()?)
}

/// Runs per set and workload, on seeds `1..=RUNS`: what the driver judges
/// the benchmark by.
const RUNS: usize = 10;

/// Runs the self-check, prints the table, writes it to `results/aa.txt`, and
/// returns whether every metric of every workload passed.
pub fn run(seconds: f64) -> bool {
    let runs = RUNS;
    let mut table = format!(
        "A/A self-check: 2 sets x {runs} runs per workload, seeds 1..={runs}, --seconds {seconds}, host_cores {}\n\
         pass = gap <= bound/2 and both IQRs <= bound and failed = 0\n\n\
         {:<11} {:<16} {:>13} {:>13} {:>7} {:>7} {:>7} {:>6}  verdict\n",
        crate::host::host_cores(),
        "workload",
        "metric",
        "median A",
        "median B",
        "IQR A%",
        "IQR B%",
        "gap%",
        "bound%",
    );
    let mut all_pass = true;
    let mut raw = String::from("{");
    for (workload, _) in WORKLOADS {
        let mut sets: [Vec<BTreeMap<String, f64>>; 2] = [Vec::new(), Vec::new()];
        let mut correct = true;
        for seed in 1..=runs as u64 {
            let order = if seed % 2 == 1 { [0, 1] } else { [1, 0] };
            for set in order {
                match one_run(workload, seed, seconds) {
                    Some((ok, metrics)) => {
                        correct &= ok;
                        sets[set].push(metrics);
                    }
                    None => correct = false,
                }
            }
            eprintln!("aa: {workload} seed {seed} done");
        }
        for (name, _, _, bound) in END_TO_END {
            let column = |set: &[BTreeMap<String, f64>]| -> Vec<f64> {
                set.iter().filter_map(|m| m.get(name).copied()).collect()
            };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            raw.push_str(&format!("\n\"{workload}.{name}\": [{a:?}, {b:?}],"));
            if a.len() < runs || b.len() < runs {
                table.push_str(&format!("{workload:<11} {name:<16} missing runs  FAIL\n"));
                all_pass = false;
                continue;
            }
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let gap = if ma == 0.0 {
                0.0
            } else {
                (mb - ma).abs() / ma.abs()
            };
            let (sa, sb) = (stats::spread(&a), stats::spread(&b));
            let pass = correct && gap <= bound / 2.0 && sa <= bound && sb <= bound;
            all_pass &= pass;
            table.push_str(&format!(
                "{workload:<11} {name:<16} {ma:>13.5} {mb:>13.5} {:>7.2} {:>7.2} {:>7.2} {:>6.1}  {}\n",
                sa * 100.0,
                sb * 100.0,
                gap * 100.0,
                bound * 100.0,
                if pass { "pass" } else { "FAIL" },
            ));
        }
        if !correct {
            table.push_str(&format!(
                "{workload:<11} a run failed or reported \"correct\": false  FAIL\n"
            ));
        }
    }
    table.push_str(if all_pass {
        "\nall pass\n"
    } else {
        "\nFAILED\n"
    });
    print!("{table}");
    // The table is checked in; the per-run values behind it are not.
    raw.pop();
    raw.push_str("\n}\n");
    let dir = results_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("aa.txt"), &table))
        .and_then(|()| std::fs::write(dir.join("aa-raw.json"), &raw));
    if let Err(e) = written {
        eprintln!("aa: cannot write under {}: {e}", dir.display());
    }
    all_pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}, "peak_rss_mb": {"value": 210, "unit": "MiB"}}}"#;
        let (correct, metrics) = parse_result_line(line).unwrap();
        assert!(correct);
        assert_eq!(metrics["setup_s"], 0.5);
        assert_eq!(metrics["peak_rss_mb"], 210.0);
        assert!(parse_result_line("not json").is_none());
    }
}
