//! Legacy-store migration: the checked-in pre-checksum plain-JSONL fixture
//! (`fixtures/store/legacy_qor.jsonl`, real engine results) must keep
//! working forever.  Opening it upgrades it to the checksummed segmented
//! format — manifest plus one segment, the plain file removed — and the
//! upgraded store serves its QoR values bit-identically to a fresh
//! evaluation.  A failed upgrade leaves the plain file exactly as it was.
//!
//! Tests here take [`serial`]: with `--features failpoints` one of them
//! configures the process-global failpoint registry, which every store open
//! in this binary would otherwise see.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use circuits::{Design, DesignScale};
use floweval::{EngineConfig, EvalEngine, QorStore};
use synth::{Qor, Transform};

/// The (design, flow) pairs the fixture holds, in file order.
const FIXTURE_ENTRIES: [(Design, &str); 5] = [
    (
        Design::Alu64,
        "balance; rewrite; refactor; balance; rewrite -z; refactor -z",
    ),
    (
        Design::Alu64,
        "balance; rewrite; refactor; balance; rewrite; rewrite -z; balance; refactor -z; \
         rewrite -z; balance",
    ),
    (Design::Alu64, "balance; rewrite; refactor"),
    (
        Design::Montgomery64,
        "balance; rewrite; refactor; balance; rewrite -z; refactor -z",
    ),
    (
        Design::Alu64,
        "refactor; refactor; refactor; rewrite; balance; rewrite -z; balance; restructure; \
         refactor -z; rewrite -z; rewrite; restructure; balance; rewrite; refactor -z; \
         balance; restructure; restructure; rewrite -z; refactor; refactor -z; rewrite; \
         refactor -z; rewrite -z",
    ),
];

/// Serializes the tests of this binary (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/store/legacy_qor.jsonl")
}

/// Copies the fixture into a scratch dir (tests mutate the store on disk).
fn fixture_copy(label: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("floweval-legacy-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("qor.jsonl");
    std::fs::copy(fixture(), &path).expect("copy legacy fixture");
    (dir, path)
}

/// Parses an ABC-style flow script back into the transform sequence.
fn parse_flow(script: &str) -> Vec<Transform> {
    script
        .split(';')
        .map(str::trim)
        .map(|cmd| {
            Transform::ALL
                .into_iter()
                .find(|t| t.command() == cmd)
                .unwrap_or_else(|| panic!("unknown transform `{cmd}` in fixture flow"))
        })
        .collect()
}

/// Evaluates every fixture flow through `engine`, returning the QoR values
/// in fixture order.
fn evaluate_fixture_flows(engine: &EvalEngine) -> Vec<Qor> {
    FIXTURE_ENTRIES
        .iter()
        .map(|(design, script)| {
            let aig = design.generate(DesignScale::Tiny);
            engine.evaluate_batch(&aig, &[parse_flow(script)])[0]
        })
        .collect()
}

fn store_engine(path: &Path) -> EvalEngine {
    EvalEngine::new(EngineConfig {
        store_path: Some(path.to_path_buf()),
        ..EngineConfig::default()
    })
}

#[test]
fn legacy_fixture_loads_cleanly() {
    let _serial = serial();
    let (dir, path) = fixture_copy("load");
    let store = QorStore::open(&path).expect("open legacy fixture");
    assert_eq!(store.len(), FIXTURE_ENTRIES.len());
    assert_eq!(store.segment_count(), 1, "open upgrades to one segment");
    assert_eq!(store.torn_tail_records(), 0);
    assert_eq!(store.corrupt_records(), 0);
    assert_eq!(store.quarantined_records(), 0);
    assert_eq!(store.duplicate_records(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_fixture_serves_bit_identical_qor() {
    let _serial = serial();
    let (dir, path) = fixture_copy("serve");
    // Every flow must come out of the store (fingerprints are stable across
    // the format change) and match a from-scratch evaluation bit for bit.
    let engine = store_engine(&path);
    let served = evaluate_fixture_flows(&engine);
    assert_eq!(
        engine.stats().store_hits,
        FIXTURE_ENTRIES.len(),
        "every fixture flow must be answered from the upgraded store"
    );
    let fresh = evaluate_fixture_flows(&EvalEngine::default());
    assert_eq!(
        served, fresh,
        "upgraded store answers diverged from a fresh evaluation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_upgrades_legacy_without_changing_answers() {
    let _serial = serial();
    let (dir, path) = fixture_copy("upgrade");
    drop(QorStore::open(&path).expect("open legacy fixture"));

    // The plain file is gone, replaced by manifest + checksummed segment.
    assert!(!path.exists(), "legacy base file is retired by the upgrade");
    assert!(
        dir.join("qor.jsonl.manifest").exists(),
        "upgrade writes a manifest"
    );
    let segment = dir.join("qor.jsonl.000001.seg");
    let body = std::fs::read_to_string(&segment).expect("upgrade produces segment 1");
    assert_eq!(body.lines().count(), FIXTURE_ENTRIES.len());
    assert!(
        body.lines().all(|l| l.starts_with("v2 ")),
        "upgraded records are checksum-framed"
    );

    // A reopen reads the v2 store, and answers as before.
    let store = QorStore::open(&path).expect("reopen upgraded store");
    assert_eq!(store.len(), FIXTURE_ENTRIES.len());
    assert_eq!(store.skipped_records(), 0);
    drop(store);
    assert!(!path.exists(), "a reopen recreates no base file");
    let engine = store_engine(&path);
    let served = evaluate_fixture_flows(&engine);
    assert_eq!(engine.stats().store_hits, FIXTURE_ENTRIES.len());
    assert_eq!(served, evaluate_fixture_flows(&EvalEngine::default()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failure at the publish step of the upgrade fails the open and leaves
/// the legacy file byte for byte as it was; the next open upgrades it.
#[cfg(feature = "failpoints")]
#[test]
fn failed_upgrade_leaves_the_legacy_file_untouched() {
    use flow_core::fail;
    let _serial = serial();
    let (dir, path) = fixture_copy("failed");
    let original = std::fs::read(&path).unwrap();
    fail::teardown();
    fail::cfg("store.compact.publish", "1*return").unwrap();
    let opened = QorStore::open(&path);
    fail::teardown();
    assert!(opened.is_err(), "a failed publish must fail the open");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        original,
        "legacy file changed"
    );
    assert!(!dir.join("qor.jsonl.manifest").exists());
    assert!(!dir.join("qor.jsonl.000001.seg").exists());

    let store = QorStore::open(&path).expect("the next open upgrades");
    assert_eq!(store.len(), FIXTURE_ENTRIES.len());
    assert_eq!(store.segment_count(), 1);
    drop(store);
    assert!(!path.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
