//! On-disk compatibility of the QoR store with the build that kept a
//! manifest.
//!
//! `fixtures/store/` holds a store written by that build: 16 records in
//! three rotated segments (`segment_max_bytes` 1024) plus the
//! `qor.jsonl.manifest` segment list it kept beside them.  The segment files
//! are the store now, so the fixture must open with the same records, lose
//! its stale manifest, and match byte for byte what this build writes for the
//! same inserts.

use std::path::{Path, PathBuf};

use flow_core::Fingerprint;
use floweval::{QorStore, StoreKey, StoreOptions};
use synth::Qor;

const RECORDS: u64 = 16;

const OPTIONS: StoreOptions = StoreOptions {
    segment_max_bytes: 1024,
};

/// Record `i` of the fixture, exactly as it was written.
fn record(i: u64) -> (StoreKey, Qor) {
    let key = StoreKey {
        design: Fingerprint(0x5EED_0000 + i / 4),
        config: Fingerprint(0xC0DE),
        flow: format!("balance; rewrite; refactor -z; fixture {i}"),
    };
    let qor = Qor {
        area_um2: 1000.0 + i as f64 * 0.25,
        delay_ps: 250.5 + i as f64 * 1.125,
        gates: 100 + i as usize,
        and_nodes: 200 + i as usize,
        depth: 10 + (i % 5) as u32,
    };
    (key, qor)
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/store")
}

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "floweval-store-compat-{label}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The segment files in `dir`, by name, with their bytes.
fn segments(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut segs: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap())
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            name.ends_with(".seg")
                .then(|| (name, std::fs::read(entry.path()).unwrap()))
        })
        .collect();
    segs.sort();
    segs
}

#[test]
fn store_with_a_manifest_opens_with_its_records() {
    let dir = temp_dir("open");
    for entry in std::fs::read_dir(fixture_dir()).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let base = dir.join("qor.jsonl");
    let manifest = dir.join("qor.jsonl.manifest");
    assert!(manifest.exists(), "the fixture carries its manifest");

    let store = QorStore::open(&base).expect("open the fixture store");
    assert_eq!(store.len() as u64, RECORDS);
    for i in 0..RECORDS {
        let (key, qor) = record(i);
        assert_eq!(store.get(&key), Some(qor), "record {i}");
    }
    assert_eq!(store.summary().segments, 3);
    assert!(!manifest.exists(), "the stale manifest is removed at open");
    drop(store);

    let summary = QorStore::open(&base).expect("reopen").summary();
    assert_eq!(summary.records as u64, RECORDS);
    assert_eq!(
        (
            summary.torn_tail,
            summary.corrupt_records,
            summary.quarantined,
            summary.duplicates
        ),
        (0, 0, 0, 0),
        "a second open is clean: {summary:?}"
    );
    assert_eq!(
        segments(&dir),
        segments(&fixture_dir()),
        "segments untouched"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn new_store_writes_the_fixture_segments_byte_for_byte() {
    let dir = temp_dir("write");
    {
        let mut store = QorStore::open_with(dir.join("qor.jsonl"), OPTIONS).expect("open");
        for i in 0..RECORDS {
            let (key, qor) = record(i);
            store.insert(key, qor).expect("insert");
        }
        store.checkpoint().expect("checkpoint");
    }
    assert_eq!(segments(&dir), segments(&fixture_dir()));
    let _ = std::fs::remove_dir_all(&dir);
}
