//! End-to-end tests of `flowc submit` and `flowc store` against an embedded
//! `flowd` daemon: the wire report must be interchangeable with a local run.

use std::path::PathBuf;
use std::process::Command;

use flowd::{Server, ServerConfig};
use serde::Value;

fn flowc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flowc"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flowc-submit-{tag}-{}", std::process::id()));
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

fn qor_bits(report: &Value, field: &str) -> u64 {
    match report.get("qor").and_then(|q| q.get(field)) {
        Some(Value::F64(v)) => v.to_bits(),
        Some(Value::U64(v)) => *v,
        other => panic!("missing qor.{field}: {other:?}"),
    }
}

#[test]
fn submit_matches_local_run_bit_for_bit() {
    let server = Server::start(ServerConfig::default()).expect("start daemon");
    let addr = server.addr().to_string();

    let local = parse_report(&run_ok(flowc().args([
        "run",
        "--design",
        "alu64:tiny",
        "--flow",
        "resyn2",
    ])));
    let remote = parse_report(&run_ok(flowc().args([
        "submit",
        "--addr",
        &addr,
        "--design",
        "alu64:tiny",
        "--flow",
        "resyn2",
    ])));
    for field in ["area_um2", "delay_ps", "gates", "and_nodes", "depth"] {
        assert_eq!(
            qor_bits(&local, field),
            qor_bits(&remote, field),
            "qor.{field} differs between run and submit"
        );
    }
    assert_eq!(
        local.get("design").and_then(|d| d.get("fingerprint")),
        remote.get("design").and_then(|d| d.get("fingerprint"))
    );
    assert_eq!(
        local.get("flow").and_then(|f| f.get("script")),
        remote.get("flow").and_then(|f| f.get("script"))
    );

    // --out round-trips the optimized netlist through the inline export.
    let dir = temp_dir("out");
    let out = dir.join("alu64.opt.aag");
    run_ok(
        flowc()
            .args([
                "submit",
                "--addr",
                &addr,
                "--design",
                "alu64:tiny",
                "--flow",
                "resyn2",
                "--timing",
                "--out",
            ])
            .arg(&out),
    );
    let optimized = aig::io::read_design(&out).expect("exported netlist parses");
    assert_eq!(optimized.num_ands() as u64, qor_bits(&local, "and_nodes"));

    server.shutdown();
    server.join().expect("drain");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn submit_reports_daemon_errors_cleanly() {
    let server = Server::start(ServerConfig::default()).expect("start daemon");
    let addr = server.addr().to_string();
    let out = flowc()
        .args([
            "submit",
            "--addr",
            &addr,
            "--design",
            "alu64:tiny",
            "--flow",
            "frobnicate",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("400"), "stderr: {stderr}");
    server.shutdown();
    server.join().expect("drain");

    // No daemon at all: a clean connection error, not a hang or panic.
    let out = flowc()
        .args([
            "submit",
            "--addr",
            "127.0.0.1:9", // discard port, nothing listens
            "--design",
            "alu64:tiny",
            "--flow",
            "resyn2",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot connect"), "stderr: {stderr}");
    // Connect failures are retried with backoff before giving up.
    assert!(stderr.contains("retrying in"), "stderr: {stderr}");
}

#[test]
fn submit_surfaces_retry_and_deadline_in_eval() {
    let server = Server::start(ServerConfig::default()).expect("start daemon");
    let addr = server.addr().to_string();
    let report = parse_report(&run_ok(flowc().args([
        "submit",
        "--addr",
        &addr,
        "--design",
        "alu64:tiny",
        "--flow",
        "resyn2",
        "--retries",
        "2",
        "--deadline-ms",
        "30000",
    ])));
    let eval = report.get("eval").expect("eval section");
    assert_eq!(eval.get("submit_attempts"), Some(&Value::U64(1)));
    assert_eq!(eval.get("submit_retries"), Some(&Value::U64(2)));
    assert_eq!(eval.get("submit_deadline_ms"), Some(&Value::U64(30_000)));
    server.shutdown();
    server.join().expect("drain");
}

/// Returns the store's segment files (`<base>.NNNNNN.seg`), sorted.
fn segment_files(store: &std::path::Path) -> Vec<std::path::PathBuf> {
    let prefix = format!("{}.", store.file_name().unwrap().to_str().unwrap());
    let mut segs: Vec<_> = std::fs::read_dir(store.parent().unwrap())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".seg"))
        })
        .collect();
    segs.sort();
    segs
}

#[test]
fn store_compact_subcommand_rewrites_duplicates() {
    let dir = temp_dir("store");
    let store = dir.join("qor.jsonl");
    // A fresh store is born segmented: one active segment.
    // Forge a duplicate by concatenating the segment onto itself (every line
    // is self-delimiting and checksum-framed, so the doubled file is valid).
    run_ok(
        flowc()
            .args([
                "run",
                "--design",
                "alu64:tiny",
                "--flow",
                "compress",
                "--store",
            ])
            .arg(&store),
    );
    let segs = segment_files(&store);
    assert_eq!(segs.len(), 1, "fresh store writes one segment");
    let original = std::fs::read(&segs[0]).expect("segment exists");
    let mut doubled = original.clone();
    doubled.extend_from_slice(&original);
    std::fs::write(&segs[0], &doubled).unwrap();

    let stats = parse_report(&run_ok(flowc().args([
        "store",
        "stats",
        store.to_str().unwrap(),
    ])));
    assert_eq!(stats.get("records"), Some(&Value::U64(1)));
    assert_eq!(stats.get("duplicate_records"), Some(&Value::U64(1)));

    let report = parse_report(&run_ok(flowc().args([
        "store",
        "compact",
        store.to_str().unwrap(),
    ])));
    assert_eq!(report.get("records"), Some(&Value::U64(1)));
    assert_eq!(report.get("duplicates_dropped"), Some(&Value::U64(1)));
    let segs = segment_files(&store);
    assert_eq!(segs.len(), 1, "compaction leaves one segment");
    let compacted = std::fs::read(&segs[0]).unwrap();
    assert_eq!(compacted, original, "compaction restores the single record");

    // The compacted store still answers the flow without re-evaluating.
    let rerun = parse_report(&run_ok(
        flowc()
            .args([
                "run",
                "--design",
                "alu64:tiny",
                "--flow",
                "compress",
                "--store",
            ])
            .arg(&store),
    ));
    assert_eq!(
        rerun.get("eval").and_then(|e| e.get("store_hits")),
        Some(&Value::U64(1))
    );
    std::fs::remove_dir_all(&dir).ok();
}
