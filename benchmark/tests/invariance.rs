//! Seed-invariance and determinism of the timed sections, at `--seconds 2`,
//! on the binary the driver runs.
//!
//! * Seeds 1–5: every work counter of the timed section stays within 2 % of
//!   its seed-1 value — the seed draws from the workload's distribution, it
//!   does not change the amount of work.
//! * The same seed twice: counters (the final training loss among them) and
//!   `qor_area_ratio` repeat bit for bit, and every run is `"correct": true`.

use std::collections::BTreeMap;
use std::process::Command;

use flowbench::aa::parse_result_line;
use flowbench::WORKLOADS;

/// `paper_loop`'s trie hits are chance prefix collisions between random
/// flows (a few dozen events); their effect on work is inside
/// `passes_applied`, which is held to the 2 %.
const NOT_WORK: [(&str, &str); 1] = [("paper_loop", "floweval.trie_hits")];

/// What a quick run printed: the `section:` line's operation and eval counts
/// and every `counter` line, and the reported `qor_area_ratio`.
#[derive(Debug, PartialEq)]
struct Quick {
    counters: BTreeMap<String, String>,
    qor_area_ratio: f64,
}

fn quick(workload: &str, seed: u64) -> Quick {
    let output = Command::new(env!("CARGO_BIN_EXE_flowbench"))
        .args(["--workload", workload, "--seconds", "2", "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .output()
        .expect("flowbench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{workload} seed {seed}: {stdout}");
    let mut counters = BTreeMap::new();
    for line in stdout.lines() {
        if let Some((name, value)) = line
            .strip_prefix("counter ")
            .and_then(|l| l.split_once(" = "))
        {
            counters.insert(name.to_string(), value.to_string());
        } else if let Some(section) = line.strip_prefix("section: ") {
            let words: Vec<&str> = section.split([' ', ',']).collect();
            counters.insert("section.operations".to_string(), words[0].to_string());
            counters.insert("section.evals".to_string(), words[3].to_string());
        }
    }
    let (correct, metrics) =
        parse_result_line(stdout.lines().last().expect("a result line")).expect("result JSON");
    assert!(correct, "{workload} seed {seed}: {stdout}");
    assert!(metrics.values().all(|&v| v > 0.0), "a metric reads 0");
    assert!(counters.len() > 2, "{workload}: no counters printed");
    Quick {
        counters,
        qor_area_ratio: metrics["qor_area_ratio"],
    }
}

fn check(workload: &str) {
    let first = quick(workload, 1);
    assert_eq!(first, quick(workload, 1), "{workload}: seed 1 twice");
    for seed in 2..=5 {
        let other = quick(workload, seed);
        assert_eq!(other.qor_area_ratio, first.qor_area_ratio);
        for (name, base) in &first.counters {
            // The final training loss is a result, not an amount of work.
            if NOT_WORK.contains(&(workload, name.as_str())) || name == "nn.final_loss" {
                continue;
            }
            let (value, base): (f64, f64) =
                (other.counters[name].parse().unwrap(), base.parse().unwrap());
            assert!(
                (value - base).abs() <= 0.02 * base.abs(),
                "{workload} seed {seed}: {name} = {value}, seed 1 had {base}"
            );
        }
    }
}

#[test]
fn paper_loop_is_seed_invariant_and_deterministic() {
    check(WORKLOADS[0].0);
}

#[test]
fn cold_synth_is_seed_invariant_and_deterministic() {
    check(WORKLOADS[1].0);
}

#[test]
fn cnn_train_is_seed_invariant_and_deterministic() {
    check(WORKLOADS[2].0);
}

#[test]
fn flowd_mix_is_seed_invariant_and_deterministic() {
    check(WORKLOADS[3].0);
}
