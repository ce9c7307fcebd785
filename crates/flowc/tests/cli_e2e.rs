//! End-to-end tests of the `flowc` binary.
//!
//! These spawn the real executable (via `CARGO_BIN_EXE_flowc`) and pin the
//! critical contract: the QoR JSON printed for an **exported-then-imported**
//! design is identical to what `floweval::EvalEngine` computes in-process on
//! the generated design.

use std::path::{Path, PathBuf};
use std::process::Command;

use circuits::{Design, DesignScale};
use floweval::{EngineConfig, EvalEngine};
use flowgen::{Flow, FlowSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

fn flowc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flowc"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flowc-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_ok(command: &mut Command) -> String {
    let output = command.output().expect("spawn flowc");
    assert!(
        output.status.success(),
        "flowc failed: {}\nstderr: {}",
        command
            .get_args()
            .map(|a| a.to_string_lossy())
            .collect::<Vec<_>>()
            .join(" "),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

fn parse_report(stdout: &str) -> Value {
    serde_json::parse_value(stdout.trim()).expect("report is valid JSON")
}

/// The `count` flows `flowc search --random <seed>` and `flowc run --random
/// <seed>` draw: the paper's space, sampled by `FlowSpace`.
fn paper_flows(seed: u64, count: usize) -> Vec<Flow> {
    FlowSpace::paper().random_unique_flows(count, &mut ChaCha8Rng::seed_from_u64(seed))
}

fn str_field(value: &Value, section: Option<&str>, field: &str) -> String {
    let section = match section {
        Some(name) => value.get(name),
        None => Some(value),
    };
    match section.and_then(|s| s.get(field)) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("missing {section:?}.{field}: {other:?}"),
    }
}

fn f64_field(value: &Value, section: &str, field: &str) -> f64 {
    match value.get(section).and_then(|s| s.get(field)) {
        Some(Value::F64(v)) => *v,
        Some(Value::U64(v)) => *v as f64,
        other => panic!("missing {section}.{field}: {other:?}"),
    }
}

#[test]
fn exported_fixture_matches_in_process_engine_bit_for_bit() {
    let dir = temp_dir("qor-match");

    // Export the generated corpus as binary AIGER fixtures.
    run_ok(
        flowc()
            .args([
                "export-corpus",
                "--scale",
                "tiny",
                "--format",
                "aig",
                "--dir",
            ])
            .arg(&dir),
    );

    for design in [Design::Alu64, Design::Montgomery64] {
        let fixture = dir.join(format!("{}.aig", design.name()));
        assert!(fixture.exists(), "corpus wrote {}", fixture.display());

        // CLI: evaluate the imported fixture.
        let stdout = run_ok(
            flowc()
                .args(["run", "--flow", "resyn2", "--design"])
                .arg(&fixture),
        );
        let report = parse_report(&stdout);

        // In-process: evaluate the generated design with the default engine.
        let aig = design.generate(DesignScale::Tiny);
        let engine = EvalEngine::new(EngineConfig::default());
        let flow = Flow::named("resyn2").unwrap();
        let qor = engine.evaluate_batch(&aig, &[flow.transforms().to_vec()])[0];

        // Bit-for-bit QoR equality across the export/import boundary.
        assert_eq!(
            f64_field(&report, "qor", "area_um2").to_bits(),
            qor.area_um2.to_bits(),
            "{design}: area differs"
        );
        assert_eq!(
            f64_field(&report, "qor", "delay_ps").to_bits(),
            qor.delay_ps.to_bits(),
            "{design}: delay differs"
        );
        assert_eq!(f64_field(&report, "qor", "gates") as usize, qor.gates);
        assert_eq!(
            f64_field(&report, "qor", "and_nodes") as usize,
            qor.and_nodes
        );
        assert_eq!(f64_field(&report, "qor", "depth") as u32, qor.depth);

        // The fingerprint printed for the imported file matches the generated
        // design: the netlist survived the round trip structurally.
        let report_fp = match report.get("design").and_then(|d| d.get("fingerprint")) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("missing design.fingerprint: {other:?}"),
        };
        assert_eq!(report_fp, floweval::fingerprint_design(&aig).to_string());
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn export_corpus_is_deterministic() {
    let dir_a = temp_dir("corpus-a");
    let dir_b = temp_dir("corpus-b");
    for dir in [&dir_a, &dir_b] {
        run_ok(
            flowc()
                .args([
                    "export-corpus",
                    "--scale",
                    "tiny",
                    "--format",
                    "aag",
                    "--dir",
                ])
                .arg(dir),
        );
    }
    for design in Design::ALL {
        let file = format!("{}.aag", design.name());
        let a = std::fs::read(dir_a.join(&file)).expect("fixture a");
        let b = std::fs::read(dir_b.join(&file)).expect("fixture b");
        assert_eq!(a, b, "{file} must be byte-identical across exports");
    }
    assert_eq!(
        std::fs::read(dir_a.join("MANIFEST.json")).unwrap(),
        std::fs::read(dir_b.join("MANIFEST.json")).unwrap()
    );
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn run_exports_an_equivalent_optimized_netlist() {
    let dir = temp_dir("opt-export");
    let optimized_path = dir.join("alu64.opt.blif");
    let stdout = run_ok(
        flowc()
            .args([
                "run",
                "--design",
                "alu64:tiny",
                "--flow",
                "compress",
                "--verify",
                "--out",
            ])
            .arg(&optimized_path),
    );
    let report = parse_report(&stdout);

    // The exported netlist reads back and is simulation-equivalent to the
    // original design (the flow preserved the function; export preserved it).
    let optimized = aig::io::read_design(&optimized_path).expect("read exported netlist");
    let original = Design::Alu64.generate(DesignScale::Tiny);
    assert!(aig::random_equivalence_check(
        &original, &optimized, 8, 0xE2E
    ));
    assert_eq!(
        f64_field(&report, "export", "ands") as usize,
        optimized.num_ands()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn convert_roundtrips_across_formats() {
    let dir = temp_dir("convert");
    let aag = dir.join("mont.aag");
    let blif = dir.join("mont.blif");
    let aig_path = dir.join("mont.aig");

    run_ok(
        flowc()
            .args([
                "export-corpus",
                "--scale",
                "tiny",
                "--format",
                "aag",
                "--dir",
            ])
            .arg(&dir),
    );
    let source = dir.join("montgomery64.aag");
    std::fs::rename(&source, &aag).unwrap();

    run_ok(flowc().arg("convert").arg(&aag).arg(&blif));
    run_ok(flowc().arg("convert").arg(&blif).arg(&aig_path));

    let first = aig::io::read_design(&aag).unwrap();
    let last = aig::io::read_design(&aig_path).unwrap();
    assert_eq!(
        first.num_ands(),
        last.num_ands(),
        "chain preserved structure"
    );
    assert!(aig::random_equivalence_check(&first, &last, 8, 0xC0C0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistent_store_is_shared_across_invocations() {
    let dir = temp_dir("store");
    let store: &Path = &dir.join("qor.jsonl");
    let mut first = flowc();
    first
        .args([
            "run",
            "--design",
            "alu64:tiny",
            "--flow",
            "compress",
            "--store",
        ])
        .arg(store);
    let first_report = parse_report(&run_ok(&mut first));
    let mut second = flowc();
    second
        .args([
            "run",
            "--design",
            "alu64:tiny",
            "--flow",
            "compress",
            "--store",
        ])
        .arg(store);
    let second_report = parse_report(&run_ok(&mut second));

    // Second invocation answers from the persistent store: no passes applied.
    assert_eq!(f64_field(&second_report, "eval", "store_hits"), 1.0);
    assert_eq!(f64_field(&second_report, "eval", "passes_applied"), 0.0);
    assert_eq!(
        f64_field(&first_report, "qor", "area_um2").to_bits(),
        f64_field(&second_report, "qor", "area_um2").to_bits()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn timing_breakdown_is_opt_in() {
    // Default report: no timing section (wall times are run-dependent, so the
    // byte-deterministic report compared by the CI smoke stays stable).
    let stdout = run_ok(flowc().args(["run", "--design", "alu64:tiny", "--flow", "compress"]));
    let report = parse_report(&stdout);
    assert!(
        matches!(report.get("timing"), None | Some(Value::Null)),
        "timing must be omitted without --timing"
    );

    // --timing: one row per transform kind plus mapping, with call counts
    // matching the flow script (compress = 2x balance, 2x rewrite, 1x rw -z).
    let stdout = run_ok(flowc().args([
        "run",
        "--design",
        "alu64:tiny",
        "--flow",
        "compress",
        "--timing",
    ]));
    let report = parse_report(&stdout);
    let timing = report.get("timing").expect("--timing adds the section");
    let Some(Value::Array(passes)) = timing.get("passes") else {
        panic!("timing.passes must be an array: {timing:?}");
    };
    assert_eq!(passes.len(), 7, "six transforms + map");
    let calls_of = |name: &str| -> u64 {
        passes
            .iter()
            .find(|row| matches!(row.get("pass"), Some(Value::Str(s)) if s == name))
            .and_then(|row| match row.get("calls") {
                Some(Value::U64(v)) => Some(*v),
                _ => None,
            })
            .unwrap_or_else(|| panic!("missing row {name}"))
    };
    assert_eq!(calls_of("balance"), 2);
    assert_eq!(calls_of("rewrite"), 2);
    assert_eq!(calls_of("rewrite -z"), 1);
    assert_eq!(calls_of("refactor"), 0);
    assert_eq!(calls_of("map"), 1);
}

#[test]
fn usage_errors_exit_nonzero() {
    let out = flowc().arg("run").output().expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "missing --design is a usage error"
    );
    let out = flowc().arg("nonsense").output().expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let out = flowc()
        .args([
            "run",
            "--design",
            "alu64:tiny",
            "--flow",
            "resyn2",
            "--typo",
        ])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "unconsumed arguments are rejected"
    );
    // Malformed options: each is refused before any design is read or
    // daemon contacted.
    let dir = std::env::temp_dir().join(format!("flowc-e2e-unwritten-{}", std::process::id()));
    for line in [
        "run --design alu64:tiny --flow resyn2 --random 1",
        "run --design alu64:tiny --random abc",
        "run --design",
        "run --design alu64:tiny --flow nosuch",
        "search --designs alu64:tiny --random 1 --workers x",
        "submit --addr 127.0.0.1:9 --design alu64:tiny --flow resyn2 --retries x",
        &format!("export-corpus --format zip --dir {}", dir.display()),
    ] {
        let out = flowc().args(line.split(' ')).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
    }
    assert!(!dir.exists(), "export-corpus wrote nothing");

    // A bare base file is a plain JSON-lines store from before format v2.
    // An unknown action is refused before the store opens (exit 1); fsck
    // opens it, and the open refuses it (exit 2).  Neither writes a byte.
    let store = temp_dir("usage-store").join("qor.jsonl");
    let plain = "{\"flow\":\"balance\"}\n";
    std::fs::write(&store, plain).expect("write a plain store");
    for (action, code) in [("bogus", 1), ("fsck", 2)] {
        let out = flowc()
            .args(["store", action])
            .arg(&store)
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "store {action}: {stderr}");
        if action == "fsck" {
            assert!(stderr.contains("before format v2"), "{stderr}");
        }
        assert_eq!(std::fs::read_to_string(&store).unwrap(), plain);
        assert!(!store.with_extension("jsonl.000001.seg").exists());
    }
    // `run` on that store fails with the open error (exit 2) instead of
    // evaluating into an in-memory store and persisting nothing.
    let out = flowc()
        .args([
            "run",
            "--design",
            "alu64:tiny",
            "--flow",
            "compress",
            "--store",
        ])
        .arg(&store)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "run --store: {stderr}");
    assert!(stderr.contains("before format v2"), "{stderr}");
    assert!(out.stdout.is_empty(), "no report for a failed run");
    assert_eq!(std::fs::read(&store).unwrap(), plain.as_bytes());
    assert!(!store.with_extension("jsonl.000001.seg").exists());
    std::fs::remove_dir_all(store.parent().unwrap()).ok();
}

#[test]
fn store_on_an_empty_path_is_no_store() {
    let store = temp_dir("no-store").join("qor.jsonl");
    let out = flowc()
        .args(["store", "stats"])
        .arg(&store)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("no file and no segment"), "{stderr}");
    assert!(!store.with_extension("jsonl.000001.seg").exists());
    std::fs::remove_dir_all(store.parent().unwrap()).ok();
}

#[test]
fn abc_aliases_run_like_the_long_names() {
    // The whole report but `eval.wall_s`, the one run-dependent number.
    let run = |flow: &str| {
        let stdout = run_ok(flowc().args(["run", "--design", "alu64:tiny", "--flow", flow]));
        let Value::Object(mut sections) = parse_report(&stdout) else {
            panic!("report is an object: {stdout}");
        };
        for (name, section) in &mut sections {
            if let (Value::Object(fields), "eval") = (section, name.as_str()) {
                fields.retain(|(field, _)| field != "wall_s");
            }
        }
        sections
    };
    assert_eq!(
        run("b; rw; rf; b; rwz; rfz"),
        run("balance; rewrite; refactor; balance; rewrite -z; refactor -z")
    );
}

#[test]
fn search_labels_match_in_process_batch_evaluation() {
    let dir = temp_dir("search");
    let labels_path = dir.join("labels.jsonl");
    let stdout = run_ok(
        flowc()
            .args([
                "search",
                "--designs",
                "alu64:tiny,montgomery64:tiny",
                "--random",
                "5",
                "--count",
                "4",
                "--workers",
                "3",
                "--labels",
            ])
            .arg(&labels_path),
    );
    let report = parse_report(&stdout);
    assert_eq!(f64_field(&report, "search", "jobs") as usize, 8);
    assert_eq!(f64_field(&report, "search", "evaluated") as usize, 8);
    assert_eq!(f64_field(&report, "search", "workers") as usize, 3);

    // In-process reference: the identical seeded sample through the batch
    // evaluator.  The CLI's labels must be bit-identical.
    let flows = paper_flows(5, 4);
    let engine = EvalEngine::new(EngineConfig::default());
    let designs = [
        Design::Alu64.generate(DesignScale::Tiny),
        Design::Montgomery64.generate(DesignScale::Tiny),
    ];
    let reference: Vec<Vec<synth::Qor>> = designs
        .iter()
        .map(|d| engine.evaluate_batch(d, &flows))
        .collect();

    let text = std::fs::read_to_string(&labels_path).expect("labels written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 8, "one JSONL label per (design, flow)");
    for (i, line) in lines.iter().enumerate() {
        let label = serde_json::parse_value(line).expect("label line is JSON");
        let (d, f) = (i / flows.len(), i % flows.len());
        let name = match label.get("design") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("missing design name: {other:?}"),
        };
        assert_eq!(name, designs[d].name());
        assert_eq!(str_field(&label, None, "flow"), flows[f].to_script());
        assert_eq!(
            f64_field(&label, "qor", "area_um2").to_bits(),
            reference[d][f].area_um2.to_bits(),
            "design {d} flow {f}: area differs from evaluate_batch"
        );
        assert_eq!(
            f64_field(&label, "qor", "delay_ps").to_bits(),
            reference[d][f].delay_ps.to_bits()
        );
        assert_eq!(
            f64_field(&label, "qor", "and_nodes") as usize,
            reference[d][f].and_nodes
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One sampler serves every `--random <seed>`: the first flow a search
/// labels is the flow `flowc run` runs for the same seed, with the same QoR.
#[test]
fn search_and_run_draw_the_same_flow_for_a_seed() {
    let dir = temp_dir("one-sampler");
    let labels_path = dir.join("labels.jsonl");
    run_ok(
        flowc()
            .args([
                "search",
                "--designs",
                "alu64:tiny",
                "--random",
                "5",
                "--count",
                "4",
                "--labels",
            ])
            .arg(&labels_path),
    );
    let text = std::fs::read_to_string(&labels_path).expect("labels written");
    let first = serde_json::parse_value(text.lines().next().expect("a label")).expect("JSON");

    let run = parse_report(&run_ok(flowc().args([
        "run",
        "--design",
        "alu64:tiny",
        "--random",
        "5",
    ])));
    let script = str_field(&run, Some("flow"), "script");
    assert_eq!(script, paper_flows(5, 1)[0].to_script());
    assert_eq!(str_field(&first, None, "flow"), script);
    assert_eq!(
        f64_field(&first, "qor", "area_um2").to_bits(),
        f64_field(&run, "qor", "area_um2").to_bits()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_usage_errors_exit_nonzero() {
    // No flow source at all.
    let out = flowc()
        .args(["search", "--designs", "alu64:tiny"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "a flow source is required");
    // Two flow sources at once.
    let out = flowc()
        .args([
            "search",
            "--designs",
            "alu64:tiny",
            "--random",
            "1",
            "--prefix",
            "b",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "sources are mutually exclusive");
    // --depth without --prefix.
    let out = flowc()
        .args([
            "search",
            "--designs",
            "alu64:tiny",
            "--random",
            "1",
            "--depth",
            "2",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1), "--depth needs --prefix");
}

#[test]
fn reproduce_rejects_an_unknown_scale() {
    let out = flowc()
        .args(["reproduce", "--scale", "huge"])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "an unknown scale is a usage error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown scale `huge` (tiny, small or full)"),
        "stderr: {stderr}"
    );
}
