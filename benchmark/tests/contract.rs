//! `BENCHMARK.json` is generated from the harness's own tables
//! (`flowbench --manifest`), and the result line carries exactly the keys
//! and metrics the driver's contract names.

use flowbench::report::{manifest, Outcome, END_TO_END, PER_LAYER};

#[test]
fn benchmark_json_is_the_generated_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        file,
        manifest(),
        "regenerate with `flowbench --manifest > BENCHMARK.json`"
    );
    serde_json::parse_value(&file).expect("BENCHMARK.json is JSON");
}

#[test]
fn bounds_respect_the_contract() {
    assert_eq!(END_TO_END[0].0, "setup_s");
    for (name, _, _, bound) in END_TO_END {
        assert!(
            bound > 0.0 && bound <= 0.25 && bound <= END_TO_END[0].3,
            "{name}: at most 25 %, and setup_s has the largest bound"
        );
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys_and_every_metric() {
    let mut outcome = Outcome::default();
    outcome.section.latencies_ms = vec![1.0, 2.0, 3.0];
    outcome.section.wall_s = 1.5;
    outcome.section.evals = 3;
    outcome.setup_s = 0.25;
    outcome.qor_area_ratio = 1.0;
    for traced in [false, true] {
        let line = outcome.result_line(traced);
        let value = serde_json::parse_value(&line).expect("result line is JSON");
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = value.get("metrics").and_then(|m| m.as_object()).unwrap();
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        if traced {
            assert_eq!(printed, PER_LAYER.map(|(n, _, _)| n));
        } else {
            assert_eq!(printed, END_TO_END.map(|(n, _, _, _)| n));
        }
    }
}
