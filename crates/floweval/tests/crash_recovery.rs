//! Subprocess crash-consistency harness for the durable QoR store.
//!
//! Each scenario re-executes this test binary as a child (filtered down to
//! [`crash_child`]) that appends records to a store, fsync-acks each one into
//! a sidecar ack file, and then dies for real: `SIGKILL` from the parent at
//! an arbitrary moment, or `std::process::abort()` scheduled by a failpoint
//! mid-append, mid-rotation or mid-compaction.  The parent then reopens the
//! store and checks the durability contract:
//!
//! * `QorStore::open` never fails, whatever the crash left behind;
//! * every fsync-acked record is present, bit-identical;
//! * at most the single in-flight record is lost (as a quarantined torn
//!   tail, never as silent corruption).
//!
//! `FLOWD_CRASH_ITERS` caps the SIGKILL repetitions (CI trims it).

#![cfg(feature = "failpoints")]

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use flow_core::{fail, Fingerprint};
use floweval::{QorStore, StoreKey, StoreOptions};
use synth::Qor;

/// Deterministic record for id `i`; parent and child must agree exactly.
fn record(i: u64) -> (StoreKey, Qor) {
    let key = StoreKey {
        design: Fingerprint(0x1000 + i),
        config: Fingerprint(0xC0DE),
        flow: format!("balance; rewrite; crash-{i}"),
    };
    let qor = Qor {
        area_um2: 100.25 + i as f64,
        delay_ps: 500.5 + i as f64 * 3.0,
        gates: 10 + i as usize,
        and_nodes: 20 + i as usize,
        depth: 3 + (i % 7) as u32,
    };
    (key, qor)
}

fn temp_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("floweval-crash-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawns this test binary re-filtered to [`crash_child`] with the scenario
/// described by environment variables.
fn spawn_child(mode: &str, store: &Path, ack: &Path, records: u64, segment_bytes: u64) -> Child {
    Command::new(std::env::current_exe().expect("test binary path"))
        .args(["crash_child", "--exact", "--nocapture", "--test-threads=1"])
        .env("CRASH_ROLE", mode)
        .env("CRASH_STORE", store)
        .env("CRASH_ACK", ack)
        .env("CRASH_RECORDS", records.to_string())
        .env("CRASH_SEGMENT_BYTES", segment_bytes.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn crash child")
}

/// Reads the ack sidecar: one acked record id per line.
fn acked_ids(ack: &Path) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(ack) else {
        return Vec::new();
    };
    text.lines().filter_map(|l| l.trim().parse().ok()).collect()
}

/// The post-crash contract: open succeeds, every acked record is present and
/// bit-identical, and nothing beyond the in-flight tail went missing.
fn verify_recovery(store_path: &Path, ack: &Path, scenario: &str) -> QorStore {
    let store = QorStore::open(store_path)
        .unwrap_or_else(|e| panic!("{scenario}: reopen after crash failed: {e}"));
    let acked = acked_ids(ack);
    for id in &acked {
        let (key, qor) = record(*id);
        assert_eq!(
            store.get(&key),
            Some(qor),
            "{scenario}: fsync-acked record {id} lost or altered \
             ({} acked, {} recovered)",
            acked.len(),
            store.len()
        );
    }
    assert!(
        store.len() >= acked.len(),
        "{scenario}: recovered fewer records ({}) than were acked ({})",
        store.len(),
        acked.len()
    );
    // At most the single in-flight append may be damaged, and only as a
    // quarantined torn tail -- mid-file corruption would mean fsynced bytes
    // changed underneath us, which no crash can cause.
    let summary = store.summary();
    assert!(
        summary.torn_tail <= 1,
        "{scenario}: more than one torn record ({})",
        summary.torn_tail
    );
    assert_eq!(
        summary.corrupt_records, 0,
        "{scenario}: crash produced mid-file corruption"
    );
    store
}

/// Child role: appends records, acking each one after its fsync, then dies
/// the way `CRASH_ROLE` prescribes.  A no-op under a normal `cargo test`
/// run (no `CRASH_ROLE` in the environment).
#[test]
fn crash_child() {
    let Ok(mode) = std::env::var("CRASH_ROLE") else {
        return;
    };
    let store_path = PathBuf::from(std::env::var("CRASH_STORE").unwrap());
    let ack_path = PathBuf::from(std::env::var("CRASH_ACK").unwrap());
    let records: u64 = std::env::var("CRASH_RECORDS").unwrap().parse().unwrap();
    let segment_bytes: u64 = std::env::var("CRASH_SEGMENT_BYTES")
        .unwrap()
        .parse()
        .unwrap();
    let options = StoreOptions {
        segment_max_bytes: segment_bytes,
    };
    let mut store = QorStore::open_with(&store_path, options).expect("child open");
    let mut ack = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&ack_path)
        .expect("child ack file");

    let mut append_acked = |store: &mut QorStore, i: u64| {
        let (key, qor) = record(i);
        store.insert(key, qor).expect("child append");
        store.flush().expect("child fsync");
        writeln!(ack, "{i}").expect("child ack");
        ack.flush().expect("child ack flush");
    };

    match mode.as_str() {
        // Append forever; the parent SIGKILLs at an arbitrary moment.
        "kill" => {
            let mut i = 0u64;
            loop {
                append_acked(&mut store, i);
                i += 1;
            }
        }
        // `records` acked appends, then one append torn mid-write + abort.
        "torn" => {
            for i in 0..records {
                append_acked(&mut store, i);
            }
            fail::cfg("store.write.torn", "return").unwrap();
            let (key, qor) = record(records);
            let _ = store.insert(key, qor); // aborts inside
            unreachable!("torn failpoint must abort the process");
        }
        // Abort at the rotation publish step (the new empty segment exists,
        // the store still appends to the old one).
        "rotate" => {
            fail::cfg("store.rotate.publish", "1*abort").unwrap();
            for i in 0..records {
                append_acked(&mut store, i);
            }
            unreachable!("rotation must have aborted within {records} appends");
        }
        // Abort at the compaction publish step, after all records are acked.
        "compact" => {
            for i in 0..records {
                append_acked(&mut store, i);
            }
            fail::cfg("store.compact.publish", "1*abort").unwrap();
            let _ = store.compact(); // aborts inside
            unreachable!("compaction failpoint must abort the process");
        }
        other => panic!("unknown CRASH_ROLE `{other}`"),
    }
}

#[test]
fn sigkill_mid_append_never_loses_acked_records() {
    let iters: u32 = std::env::var("FLOWD_CRASH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    for iter in 0..iters {
        let dir = temp_dir(&format!("sigkill-{iter}"));
        let store_path = dir.join("qor.jsonl");
        let ack_path = dir.join("acked");
        // Tiny segments so the kill window also covers rotations.
        let mut child = spawn_child("kill", &store_path, &ack_path, 0, 2_048);
        // Vary the kill moment across iterations to move it around the
        // append/fsync/rotate cycle.
        std::thread::sleep(Duration::from_millis(40 + u64::from(iter) * 17));
        child.kill().expect("SIGKILL child");
        child.wait().expect("reap child");
        let acked = acked_ids(&ack_path);
        assert!(
            !acked.is_empty(),
            "iteration {iter}: child died before acking anything; \
             raise the kill delay"
        );
        verify_recovery(&store_path, &ack_path, &format!("sigkill iter {iter}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_write_loses_only_the_inflight_record() {
    let dir = temp_dir("torn");
    let store_path = dir.join("qor.jsonl");
    let ack_path = dir.join("acked");
    let records = 12u64;
    let mut child = spawn_child("torn", &store_path, &ack_path, records, 1 << 20);
    let status = child.wait().expect("reap child");
    assert!(!status.success(), "child must die by abort");
    assert_eq!(acked_ids(&ack_path).len() as u64, records);
    let store = verify_recovery(&store_path, &ack_path, "torn write");
    assert_eq!(
        store.len() as u64,
        records,
        "the torn in-flight record must not resurrect"
    );
    assert_eq!(store.summary().torn_tail, 1, "torn tail must be detected");
    assert_eq!(store.summary().quarantined, 1, "torn bytes are quarantined");
    // The scrub healed the tail: a second open is clean.
    drop(store);
    let clean = QorStore::open(&store_path).expect("reopen healed store");
    assert_eq!(clean.summary().torn_tail, 0);
    assert_eq!(clean.len() as u64, records);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_during_rotation_preserves_acked_records() {
    let dir = temp_dir("rotate");
    let store_path = dir.join("qor.jsonl");
    let ack_path = dir.join("acked");
    // Small segments force a rotation within the first few appends.
    let mut child = spawn_child("rotate", &store_path, &ack_path, 64, 512);
    let status = child.wait().expect("reap child");
    assert!(!status.success(), "child must die by abort");
    let acked = acked_ids(&ack_path);
    assert!(!acked.is_empty(), "child must ack before the rotation");
    verify_recovery(&store_path, &ack_path, "rotation crash");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_during_compaction_preserves_acked_records() {
    let dir = temp_dir("compact");
    let store_path = dir.join("qor.jsonl");
    let ack_path = dir.join("acked");
    let records = 40u64;
    // Several segments so compaction has real work to collapse.
    let mut child = spawn_child("compact", &store_path, &ack_path, records, 1_024);
    let status = child.wait().expect("reap child");
    assert!(!status.success(), "child must die by abort");
    assert_eq!(acked_ids(&ack_path).len() as u64, records);
    let store = verify_recovery(&store_path, &ack_path, "compaction crash");
    assert_eq!(
        store.len() as u64,
        records,
        "compaction crash must leave the full pre-compaction store"
    );
    // The interrupted compaction left the store fully operational: it can
    // be compacted again and still serves everything.
    drop(store);
    let mut store = QorStore::open(&store_path).expect("reopen");
    store.compact().expect("re-run compaction after crash");
    assert_eq!(store.len() as u64, records);
    for i in 0..records {
        let (key, qor) = record(i);
        assert_eq!(store.get(&key), Some(qor));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
