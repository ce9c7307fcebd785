//! The store's degraded mode under an injected persistent write failure.
//!
//! Compiled only with `--features failpoints`.  The failpoint registry is
//! process-global, so these tests live in their own test binary: configuring
//! `store.write` to fail here cannot reach the store unit tests, which run on
//! parallel threads of the library's test process.
#![cfg(feature = "failpoints")]

use std::path::PathBuf;

use flow_core::{fail, Fingerprint};
use floweval::{QorStore, StoreKey, StoreMode};
use synth::Qor;

fn key(flow: &str) -> StoreKey {
    StoreKey {
        design: Fingerprint(0xAB),
        config: Fingerprint(0xCD),
        flow: flow.to_string(),
    }
}

fn qor(area: f64) -> Qor {
    Qor {
        area_um2: area,
        delay_ps: 10.0,
        gates: 3,
        and_nodes: 4,
        depth: 2,
    }
}

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "floweval-store-degraded-{label}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn persistent_write_failure_degrades_and_probe_recovers() {
    fail::teardown();
    let dir = temp_dir("degraded");
    let path = dir.join("qor.jsonl");
    let mut store = QorStore::open(&path).expect("open");
    store.insert(key("healthy"), qor(0.5)).unwrap();

    // The disk goes away: every append fails.
    fail::cfg("store.write", "return").unwrap();
    for i in 0..3 {
        let r = store.insert(key(&format!("fail-{i}")), qor(i as f64));
        assert!(r.is_err(), "append {i} must surface the failure");
    }
    assert_eq!(store.mode(), StoreMode::Degraded);
    // Degraded inserts park without touching the disk and stop
    // erroring; lookups keep answering.
    store
        .insert(key("parked"), qor(9.0))
        .expect("parked insert");
    assert_eq!(store.summary().parked, 4);
    assert_eq!(store.get(&key("parked")), Some(qor(9.0)));
    assert_eq!(store.get(&key("fail-0")), Some(qor(0.0)));
    // A probe under the same fault stays degraded.
    assert_eq!(store.probe(), StoreMode::Degraded);

    // The disk comes back: the probe drains the parked queue and
    // recovers.
    fail::cfg("store.write", "off").unwrap();
    assert_eq!(store.probe(), StoreMode::Ok);
    assert_eq!(store.summary().parked, 0);
    store.flush().unwrap();
    drop(store);
    fail::teardown();

    // Every record — pre-fault, parked, post-fault — is on disk.
    let store = QorStore::open(&path).expect("reopen");
    assert_eq!(store.len(), 5);
    assert_eq!(store.get(&key("parked")), Some(qor(9.0)));
    assert_eq!(store.get(&key("fail-2")), Some(qor(2.0)));
    let _ = std::fs::remove_dir_all(&dir);
}
