//! Chaos suite: the daemon under seeded fault schedules.
//!
//! Compiled only with `--features failpoints`.  Every scenario drives a real
//! loopback daemon while the failpoint registry injects stalls, panics,
//! store-append errors, cache refusals and truncated wire reads, and asserts
//! the degradation contract: no hangs, well-formed responses, and QoR of
//! successful answers bit-identical to a fault-free run.
#![cfg(feature = "failpoints")]

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use circuits::{Design, DesignScale};
use flow_core::fail;
use flowc::client::{self, run_request, Connection};
use flowc::report::RunReport;
use flowd::{Server, ServerConfig};
use floweval::EngineConfig;
use httpwire::{Request, Response};

/// The failpoint registry is process-global and the test harness runs test
/// functions on parallel threads: every scenario holds this lock for its
/// whole duration and clears the registry on entry and exit.
static REGISTRY: Mutex<()> = Mutex::new(());

struct FaultSession {
    _guard: std::sync::MutexGuard<'static, ()>,
}

impl FaultSession {
    fn begin(seed: u64) -> FaultSession {
        let guard = REGISTRY.lock().unwrap_or_else(|poison| poison.into_inner());
        fail::teardown();
        fail::set_seed(seed);
        FaultSession { _guard: guard }
    }
}

impl Drop for FaultSession {
    fn drop(&mut self) {
        fail::teardown();
    }
}

fn chaos_server(workers: usize, store: Option<PathBuf>) -> Server {
    Server::start(ServerConfig {
        workers,
        queue_capacity: 16,
        engine: EngineConfig {
            cache_budget_aig_nodes: 100_000,
            store_path: store,
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("start server")
}

fn roundtrip(addr: std::net::SocketAddr, request: &Request) -> Response {
    client::exchange(addr, request).expect("response")
}

fn body_text(response: &Response) -> String {
    String::from_utf8_lossy(&response.body).into_owned()
}

fn stats_text(addr: std::net::SocketAddr) -> String {
    body_text(&roundtrip(addr, &Request::new("GET", "/stats")))
}

fn temp_store(label: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("flowd-chaos-{}-{label}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The acceptance corpus: 200 requests (tunable down via
/// `FLOWD_CHAOS_REQUESTS` for constrained CI runners) mixing designs,
/// presets and seed-deterministic random flows, with store-hit repeats.
fn corpus() -> (Vec<aig::Aig>, Vec<(usize, String)>) {
    let designs = vec![
        Design::Alu64.generate(DesignScale::Tiny),
        Design::Aes128.generate(DesignScale::Tiny),
        Design::Montgomery64.generate(DesignScale::Tiny),
    ];
    let count = std::env::var("FLOWD_CHAOS_REQUESTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(200);
    let script = httpwire::percent_encode("balance; rewrite -z; refactor");
    let requests = (0..count)
        .map(|i| {
            let design = i % designs.len();
            let query = match i % 4 {
                0 => "flow=resyn2".to_string(),
                1 => format!("random={}", i % 5),
                2 => format!("flow={script}"),
                _ => format!("random={}", 40 + (i % 7)),
            };
            (design, query)
        })
        .collect();
    (designs, requests)
}

#[test]
fn mixed_corpus_under_faults_matches_fault_free_qor() {
    let _session = FaultSession::begin(0xC0FFEE);
    let (designs, requests) = corpus();

    let run_corpus = |label: &str| -> (Vec<synth::Qor>, String) {
        let store = temp_store(label);
        let server = chaos_server(2, Some(store.clone()));
        let addr = server.addr();
        let mut qors = Vec::with_capacity(requests.len());
        for (design, query) in &requests {
            let response = roundtrip(addr, &run_request(&designs[*design], query));
            assert_eq!(
                response.status,
                200,
                "{label} `{query}`: {}",
                body_text(&response)
            );
            let report: RunReport = serde_json::from_str(&body_text(&response))
                .unwrap_or_else(|e| panic!("{label} `{query}`: malformed report: {e}"));
            qors.push(report.qor);
        }
        let stats = stats_text(addr);
        server.shutdown();
        server.join().expect("drain");
        let _ = std::fs::remove_file(&store);
        (qors, stats)
    };

    let (baseline, baseline_stats) = run_corpus("baseline");
    assert!(
        baseline_stats.contains("\"store_write_errors\":0"),
        "stats: {baseline_stats}"
    );

    // The same corpus under a seeded schedule: stalled passes, failed store
    // appends, refused state-graph publishes.
    fail::cfg("pass.apply", "3%delay(25)").unwrap();
    fail::cfg("store.write", "50%return").unwrap();
    fail::cfg("state.publish", "50%return").unwrap();
    let (faulted, faulted_stats) = run_corpus("faulted");

    assert_eq!(baseline, faulted, "faults must degrade speed, never QoR");
    assert!(
        fail::triggers("store.write") > 0,
        "the schedule must exercise store appends"
    );
    assert!(fail::triggers("state.publish") > 0);
    assert!(fail::triggers("pass.apply") > 0);
    // Failed appends degrade to cache-only persistence and are surfaced.
    assert!(
        !faulted_stats.contains("\"store_write_errors\":0"),
        "stats must surface the injected append failures: {faulted_stats}"
    );
    assert!(faulted_stats.contains("\"store_write_errors\":"));
}

#[test]
fn injected_pass_panic_is_isolated_to_500() {
    let _session = FaultSession::begin(1);
    let server = chaos_server(1, None);
    let addr = server.addr();
    let design = Design::Alu64.generate(DesignScale::Tiny);

    fail::cfg("pass.apply", "1*panic(chaos)").unwrap();
    let response = roundtrip(addr, &run_request(&design, "flow=resyn2"));
    assert_eq!(response.status, 500, "body: {}", body_text(&response));
    assert!(response.closes_connection());

    // The single worker survived with a rebuilt context; no watchdog event.
    let response = roundtrip(addr, &run_request(&design, "flow=resyn2"));
    assert_eq!(response.status, 200, "body: {}", body_text(&response));
    let stats = stats_text(addr);
    assert!(stats.contains("\"handler_panics\":1"), "stats: {stats}");
    assert!(stats.contains("\"watchdog_restarts\":0"), "stats: {stats}");

    server.shutdown();
    server.join().expect("drain");
}

#[test]
fn wedged_worker_is_hijacked_and_pool_recovers() {
    let _session = FaultSession::begin(2);
    let server = chaos_server(2, None);
    let addr = server.addr();
    let design = Design::Alu64.generate(DesignScale::Tiny);

    // A 10x stall: the next pass sleeps 3 s straight through its cancel
    // token, so only the watchdog can answer the client.
    fail::cfg("pass.apply", "1*delay(3000)").unwrap();
    let started = Instant::now();
    let response = roundtrip(addr, &run_request(&design, "flow=resyn2&deadline_ms=300"));
    let elapsed = started.elapsed();
    assert_eq!(response.status, 504, "body: {}", body_text(&response));
    assert!(body_text(&response).contains("deadline"));
    assert!(
        elapsed <= Duration::from_millis(300 + 250),
        "504 must arrive within deadline + 250 ms, took {elapsed:?}"
    );

    // The wedged worker was retired and replaced; the pool still serves.
    let response = roundtrip(addr, &run_request(&design, "flow=resyn2"));
    assert_eq!(response.status, 200, "body: {}", body_text(&response));
    let stats = stats_text(addr);
    assert!(stats.contains("\"watchdog_restarts\":1"), "stats: {stats}");
    assert!(stats.contains("\"deadline_exceeded\":1"), "stats: {stats}");

    server.shutdown();
    server.join().expect("drain");
}

#[test]
fn truncated_wire_reads_close_cleanly() {
    let _session = FaultSession::begin(3);
    let server = chaos_server(1, None);
    let addr = server.addr();
    let design = Design::Alu64.generate(DesignScale::Tiny);

    // The next head read collapses: the server sees a truncated request and
    // drops the connection without answering — no hang, no garbage.
    fail::cfg("httpwire.read_head", "1*return").unwrap();
    let outcome = client::exchange(addr, &run_request(&design, "flow=resyn2"));
    assert!(outcome.is_err(), "truncated read cannot yield a response");

    // The worker survived; the next request is served normally.
    let response = roundtrip(addr, &run_request(&design, "flow=resyn2"));
    assert_eq!(response.status, 200, "body: {}", body_text(&response));

    // Truncated bodies surface as clean client-side errors the same way.
    fail::cfg("httpwire.read_body", "1*return").unwrap();
    let outcome = client::exchange(addr, &Request::new("GET", "/healthz"));
    assert!(outcome.is_err(), "truncated body cannot yield a response");
    let response = roundtrip(addr, &Request::new("GET", "/healthz"));
    assert_eq!(response.status, 200);

    server.shutdown();
    server.join().expect("drain");
}

/// The ISSUE's ENOSPC scenario: every store append fails (disk full), the
/// store flips to degraded after three consecutive failures, and the daemon
/// keeps answering 2xx with bit-identical QoR from its in-memory index.
/// Backpressure answers name the degraded store in `X-Flowd-Store`.  When
/// the "disk" recovers, the periodic probe flips the store back to `ok` and
/// drains every parked record — nothing evaluated during the outage is lost.
#[test]
fn enospc_degraded_store_serves_cached_answers_and_recovers() {
    let _session = FaultSession::begin(0xD15C);
    let store = temp_store("degraded");
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        store_probe_ms: 50,
        engine: EngineConfig {
            cache_budget_aig_nodes: 100_000,
            store_path: Some(store.clone()),
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.addr();
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let evaluate = |seed: u64| -> (String, synth::Qor) {
        let response = roundtrip(addr, &run_request(&design, &format!("random={seed}")));
        assert_eq!(response.status, 200, "body: {}", body_text(&response));
        let report: RunReport = serde_json::from_str(&body_text(&response)).expect("report");
        (report.flow.script, report.qor)
    };

    // Warm phase: three flows land durably in the store.
    let warm: Vec<(u64, String, synth::Qor)> = (1..=3)
        .map(|seed| {
            let (script, qor) = evaluate(seed);
            (seed, script, qor)
        })
        .collect();

    // The disk fills up: every append fails from here on.
    fail::cfg("store.write", "return").unwrap();

    // Fresh flows keep answering 2xx; the failures flip the store to
    // degraded and park the records instead of dropping them.
    let outage: Vec<(u64, String, synth::Qor)> = (10..=14)
        .map(|seed| {
            let (script, qor) = evaluate(seed);
            (seed, script, qor)
        })
        .collect();
    let health = body_text(&roundtrip(addr, &Request::new("GET", "/healthz")));
    assert!(
        health.contains("\"store_mode\":\"degraded\""),
        "healthz: {health}"
    );
    let stats = stats_text(addr);
    assert!(
        stats.contains("\"store_mode\":\"degraded\"") && stats.contains("\"mode\":\"degraded\""),
        "stats: {stats}"
    );
    assert!(
        !stats.contains("\"store_write_errors\":0"),
        "stats must surface the append failures: {stats}"
    );

    // Every answer so far repeats bit-identically from the degraded store.
    for (seed, script, qor) in warm.iter().chain(&outage) {
        let (again_script, again_qor) = evaluate(*seed);
        assert_eq!(&again_script, script, "seed {seed} changed flow");
        assert_eq!(&again_qor, qor, "seed {seed}: degraded store changed QoR");
    }

    // Backpressure while degraded names the cause: pin the single worker
    // with an open keep-alive connection, fill both queue slots, and the
    // next connection is shed with a 503 that names the degraded store.
    let mut pin = Connection::open(addr).expect("connect pin");
    assert_eq!(
        pin.send(&Request::new("GET", "/healthz"))
            .expect("pinned healthz")
            .status,
        200
    );
    let queued: Vec<Connection> = (0..2)
        .map(|_| Connection::open(addr).expect("connect queued"))
        .collect();
    std::thread::sleep(Duration::from_millis(200)); // let the acceptor enqueue
    let rejected = Connection::open(addr)
        .expect("connect overflow")
        .read()
        .expect("503 response");
    assert_eq!(rejected.status, 503, "body: {}", body_text(&rejected));
    assert_eq!(
        rejected.headers.get("x-flowd-store").map(String::as_str),
        Some("degraded"),
        "degraded 503 must carry X-Flowd-Store"
    );
    assert_eq!(
        rejected.headers.get("retry-after").map(String::as_str),
        Some("1")
    );
    drop(pin);
    drop(queued);

    // The disk recovers: the watchdog probe flips the store back to ok.
    // The poll tolerates transient 503s while the worker drains the pinned
    // and queued connections released above.
    fail::cfg("store.write", "off").unwrap();
    let healthy_by = Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(health) = client::exchange(addr, &Request::new("GET", "/healthz")) {
            if health.status == 200 && body_text(&health).contains("\"store_mode\":\"ok\"") {
                break;
            }
        }
        assert!(
            Instant::now() < healthy_by,
            "store did not auto-recover within 5 s"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    server.shutdown();
    server.join().expect("drain");

    // The drained store holds every record, including the parked ones the
    // probe drained after recovery — the outage lost nothing.
    let reopened = floweval::QorStore::open(&store).expect("reopen after recovery");
    assert_eq!(reopened.summary().torn_tail, 0);
    assert_eq!(reopened.summary().corrupt_records, 0);
    let config = floweval::fingerprint_config(&synth::CellLibrary::nangate14());
    let design_fp = floweval::fingerprint_design(&design);
    for (seed, script, qor) in warm.iter().chain(&outage) {
        let key = floweval::StoreKey {
            design: design_fp,
            config,
            flow: script.clone(),
        };
        assert_eq!(
            reopened.get(&key),
            Some(*qor),
            "seed {seed} (`{script}`) missing after recovery"
        );
    }
    let _ = std::fs::remove_file(&store);
}
