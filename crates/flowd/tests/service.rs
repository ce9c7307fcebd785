//! End-to-end tests of the daemon over real loopback sockets.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use circuits::{Design, DesignScale};
use flowc::client::{self, run_request, Connection};
use flowc::report::RunReport;
use flowd::{Server, ServerConfig};
use floweval::{EngineConfig, EvalEngine};
use httpwire::{Request, Response};
use synth::Transform;

fn tiny_server(workers: usize) -> Server {
    Server::start(ServerConfig {
        workers,
        queue_capacity: 8,
        engine: EngineConfig {
            cache_budget_aig_nodes: 100_000,
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

#[test]
fn healthz_stats_and_unknown_endpoints() {
    let server = tiny_server(2);
    let addr = server.addr();
    let health = roundtrip(addr, &Request::new("GET", "/healthz"));
    assert_eq!(health.status, 200);
    assert!(body_text(&health).contains("\"status\":\"ok\""));

    let stats = roundtrip(addr, &Request::new("GET", "/stats"));
    assert_eq!(stats.status, 200);
    let text = body_text(&stats);
    for field in ["uptime_s", "workers", "queue", "requests", "eval", "cache"] {
        assert!(text.contains(field), "stats missing `{field}`: {text}");
    }

    let missing = roundtrip(addr, &Request::new("GET", "/nope"));
    assert_eq!(missing.status, 404);

    server.shutdown();
    server.join().expect("drain");
}

/// A queue of 0 and a wait timeout of 0 would shed every connection; the
/// server clamps both (and the worker count) to 1 and serves.
#[test]
fn zero_queue_and_timeout_are_clamped_and_served() {
    let server = Server::start(ServerConfig {
        workers: 0,
        queue_capacity: 0,
        request_timeout_ms: 0,
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.addr();
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let run = roundtrip(addr, &run_request(&design, "flow=balance"));
    assert_eq!(run.status, 200, "{}", body_text(&run));
    let stats = stats_json(addr);
    assert_eq!(counter(&stats, "workers", "total"), 1);
    assert_eq!(counter(&stats, "queue", "capacity"), 1);
    server.shutdown();
    server.join().expect("drain");
}

#[test]
fn wire_qor_is_bit_identical_to_in_process_engine() {
    let server = tiny_server(2);
    let addr = server.addr();
    let reference = EvalEngine::new(EngineConfig::default());
    for design_kind in Design::ALL {
        let design = design_kind.generate(DesignScale::Tiny);
        for flow_spec in ["resyn2", "balance; rewrite -z; refactor"] {
            let flow = flowgen::Flow::parse(flow_spec).expect("flow");
            let expected = reference.evaluate_batch(&design, &[flow.transforms().to_vec()])[0];

            let query = format!("flow={}", httpwire::percent_encode(flow_spec));
            let response = roundtrip(addr, &run_request(&design, &query));
            assert_eq!(response.status, 200, "body: {}", body_text(&response));
            let report: RunReport = serde_json::from_str(&body_text(&response)).expect("report");
            assert_eq!(report.qor, expected, "{design_kind:?} / {flow_spec}");
            assert_eq!(report.flow.script, flow.to_script());
            assert_eq!(
                report.design.fingerprint,
                floweval::fingerprint_design(&design).to_string(),
                "wire roundtrip must preserve the structural fingerprint"
            );
        }
    }
    // The same flows again are pure store hits across connections.
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let response = roundtrip(addr, &run_request(&design, "flow=resyn2"));
    let report: RunReport = serde_json::from_str(&body_text(&response)).expect("report");
    assert_eq!(report.eval.store_hits, 1, "warm cache answers from store");
    server.shutdown();
    server.join().expect("drain");
}

#[test]
fn random_flows_are_seed_deterministic() {
    let server = tiny_server(2);
    let addr = server.addr();
    let design = Design::Montgomery64.generate(DesignScale::Tiny);
    let first = roundtrip(addr, &run_request(&design, "random=42"));
    let second = roundtrip(addr, &run_request(&design, "random=42"));
    assert_eq!(first.status, 200);
    let a: RunReport = serde_json::from_str(&body_text(&first)).expect("report");
    let b: RunReport = serde_json::from_str(&body_text(&second)).expect("report");
    assert_eq!(a.qor, b.qor);
    assert_eq!(a.flow.script, b.flow.script);
    assert_eq!(a.flow.random_seed, Some(42));
    server.shutdown();
    server.join().expect("drain");
}

#[test]
fn timing_export_and_verify_sections() {
    let server = tiny_server(1);
    let addr = server.addr();
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let response = roundtrip(
        addr,
        &run_request(&design, "flow=compress&timing=1&export=aag&verify=1"),
    );
    assert_eq!(response.status, 200, "body: {}", body_text(&response));
    let report: RunReport = serde_json::from_str(&body_text(&response)).expect("report");
    let timing = report.timing.expect("timing section");
    assert!(timing.passes.iter().any(|p| p.calls > 0));
    let export = report.export.expect("export section");
    assert_eq!(export.format, "aag");
    let netlist = export.netlist.expect("inline netlist");
    let optimized = aig::io::parse_design(netlist.as_bytes(), aig::io::Format::AigerAscii)
        .expect("netlist parses");
    assert_eq!(optimized.num_ands(), export.ands);
    assert_eq!(optimized.num_ands(), report.qor.and_nodes);

    // Binary export cannot ride JSON and is refused up front.
    let response = roundtrip(addr, &run_request(&design, "flow=compress&export=aig"));
    assert_eq!(response.status, 400);
    server.shutdown();
    server.join().expect("drain");
}

#[test]
fn malformed_inputs_get_400_and_workers_survive() {
    let server = tiny_server(1);
    let addr = server.addr();
    let design = Design::Alu64.generate(DesignScale::Tiny);

    // Garbage design bytes → typed 400, not a dead worker.
    let garbage = Request::new("POST", "/run?flow=resyn2").with_body(b"aag 1 2 3".to_vec());
    let response = roundtrip(addr, &garbage);
    assert_eq!(response.status, 400, "body: {}", body_text(&response));
    assert!(body_text(&response).contains("error"));

    // Unknown flow command → 400.
    let response = roundtrip(addr, &run_request(&design, "flow=frobnicate"));
    assert_eq!(response.status, 400);

    // Missing flow spec → 400.
    let response = roundtrip(addr, &run_request(&design, "format=aag"));
    assert_eq!(response.status, 400);

    // The single worker still serves real requests afterwards.
    let response = roundtrip(addr, &run_request(&design, "flow=resyn2"));
    assert_eq!(response.status, 200);
    server.shutdown();
    server.join().expect("drain");
}

/// A daemon with one worker and one queue slot, both taken by the returned
/// connections: the next connection is shed until they are dropped.
fn saturated_server() -> (Server, [Connection; 2]) {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        keep_alive_idle_ms: 10_000,
        ..ServerConfig::default()
    })
    .expect("start server");

    // Pin the single worker with an open keep-alive connection.
    let mut pin = Connection::open(server.addr()).expect("connect");
    let first = pin
        .send(&Request::new("GET", "/healthz"))
        .expect("pinned healthz");
    assert_eq!(first.status, 200);

    // Fill the single queue slot.
    let queued = Connection::open(server.addr()).expect("connect queued");
    std::thread::sleep(Duration::from_millis(200)); // let the acceptor enqueue it
    (server, [pin, queued])
}

#[test]
fn overload_gets_clean_503_with_retry_after() {
    let (server, held) = saturated_server();

    // The next connection must be rejected immediately with backpressure —
    // the 503 arrives before any request is even sent.
    let rejected = Connection::open(server.addr())
        .expect("connect rejected")
        .read()
        .expect("503 response");
    assert_eq!(rejected.status, 503, "body: {}", body_text(&rejected));
    assert_eq!(
        rejected.headers.get("retry-after").map(String::as_str),
        Some("1")
    );
    assert!(rejected.closes_connection());

    drop(held); // release the worker so the drain below finishes quickly
    server.shutdown();
    server.join().expect("drain");
}

/// A request too long to send before the daemon sheds it and resets the
/// connection still reads the `503` that came first.
#[test]
fn a_shed_request_too_long_to_send_still_reads_its_503() {
    let (server, held) = saturated_server();
    let request = Request::new("POST", "/run?flow=resyn2").with_body(vec![b'x'; 32 << 20]);
    let rejected = client::exchange(server.addr(), &request).expect("503 response");
    assert_eq!(rejected.status, 503, "body: {}", body_text(&rejected));
    drop(held);
    server.shutdown();
    server.join().expect("drain");
}

/// `flowc submit`'s retry policy against real backpressure: the first
/// attempt is shed with `503` + `Retry-After: 1`, the worker is released
/// meanwhile, and the retry after the `Retry-After` floor is served.
#[test]
fn shed_request_is_retried_after_retry_after_and_served() {
    let (server, held) = saturated_server();
    let started = Instant::now();
    let addr = server.addr().to_string();
    let sender = std::thread::spawn(move || {
        client::send_with_retry(&addr, &Request::new("GET", "/healthz"), 2)
    });
    std::thread::sleep(Duration::from_millis(200));
    drop(held);
    let delivery = sender.join().expect("sender thread").expect("delivered");
    let elapsed = started.elapsed();

    assert_eq!(delivery.response.status, 200);
    assert_eq!(delivery.attempts, 2, "one 503, then the answer");
    assert!(
        elapsed >= Duration::from_secs(1),
        "Retry-After: 1 is waited out"
    );
    assert!(!delivery.store_degraded);
    server.shutdown();
    server.join().expect("drain");
}

#[test]
fn shutdown_drains_gracefully() {
    let server = tiny_server(2);
    let addr = server.addr();
    let design = Design::Aes128.generate(DesignScale::Tiny);
    let response = roundtrip(addr, &run_request(&design, "flow=resyn"));
    assert_eq!(response.status, 200);

    let bye = roundtrip(addr, &Request::new("POST", "/shutdown"));
    assert_eq!(bye.status, 200);
    assert!(bye.closes_connection());
    server.join().expect("drain");

    // The port is released: connections are refused or immediately closed.
    let outcome = client::exchange(addr, &Request::new("GET", "/healthz"));
    assert!(outcome.is_err(), "drained server must not answer");
}

/// The stall burst: one worker of three evaluates a stream of fresh flows on
/// one keep-alive connection while warmed, cached requests keep arriving.
/// Every cached request must come back `200` from the store inside a
/// generous bound (5 s, so a loaded debug build cannot trip it), and
/// `/shutdown` must still drain the pool with the busy worker mid-flow.
#[test]
fn cached_runs_answer_while_a_worker_evaluates_fresh_flows() {
    let server = tiny_server(3);
    let addr = server.addr();
    let cached = run_request(&Design::Alu64.generate(DesignScale::Tiny), "flow=resyn2");
    assert_eq!(roundtrip(addr, &cached).status, 200, "warm-up");

    let fresh = Design::Aes128.generate(DesignScale::Tiny);
    let busy = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let burst = scope.spawn(|| {
            // One keep-alive connection pins one worker for the whole burst.
            let mut connection = Connection::open(addr).expect("connect");
            for seed in 9_000u64.. {
                let request = run_request(&fresh, &format!("random={seed}"));
                match connection.send(&request) {
                    Ok(response) => {
                        assert_eq!(response.status, 200, "body: {}", body_text(&response));
                        busy.store(true, Ordering::SeqCst);
                    }
                    // The drain may close the connection before reading a
                    // request sent after the last answer; nothing else may.
                    Err(e) => assert!(stop.load(Ordering::SeqCst), "burst failed: {e:?}"),
                }
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
        });
        while !busy.load(Ordering::SeqCst) {
            assert!(!burst.is_finished(), "the burst client failed");
            std::thread::sleep(Duration::from_millis(5));
        }
        for i in 0..10 {
            let t = Instant::now();
            let response = roundtrip(addr, &cached);
            let latency = t.elapsed();
            assert_eq!(response.status, 200, "body: {}", body_text(&response));
            let report: RunReport = serde_json::from_str(&body_text(&response)).expect("report");
            assert_eq!(report.eval.store_hits, 1, "a warmed request is a store hit");
            assert!(
                latency <= Duration::from_secs(5),
                "cached request {i} took {latency:?} beside a busy worker"
            );
        }
        // Drain with the busy worker mid-flow: its in-flight request still
        // gets an answer before the pool stops.
        stop.store(true, Ordering::SeqCst);
        let bye = roundtrip(addr, &Request::new("POST", "/shutdown"));
        assert_eq!(bye.status, 200);
        burst.join().expect("burst client");
    });
    server.join().expect("drain");
}

#[test]
fn cooperative_deadline_answers_504_and_worker_survives() {
    let server = tiny_server(1);
    let addr = server.addr();
    let design = Design::Aes128.generate(DesignScale::Tiny);
    // 30 passes: long enough that a 1 ms deadline always expires at one of
    // the pass-boundary checkpoints, whatever the machine speed.
    let spec = [
        "balance",
        "rewrite",
        "refactor",
        "restructure",
        "rewrite -z",
        "balance",
    ]
    .repeat(5)
    .join("; ");
    let query = format!("flow={}&deadline_ms=1", httpwire::percent_encode(&spec));
    let response = roundtrip(addr, &run_request(&design, &query));
    assert_eq!(response.status, 504, "body: {}", body_text(&response));
    assert!(response.closes_connection());
    assert!(body_text(&response).contains("deadline"));

    // Cooperative unwind: the worker answered itself, no watchdog involved.
    let stats = body_text(&roundtrip(addr, &Request::new("GET", "/stats")));
    assert!(stats.contains("\"deadline_exceeded\":1"), "stats: {stats}");
    assert!(stats.contains("\"watchdog_restarts\":0"), "stats: {stats}");

    // The same worker (and its recycled context) still evaluates correctly.
    let response = roundtrip(addr, &run_request(&design, "flow=resyn2"));
    assert_eq!(response.status, 200, "body: {}", body_text(&response));
    let report: RunReport = serde_json::from_str(&body_text(&response)).expect("report");
    let reference = EvalEngine::new(EngineConfig::default());
    let flow = flowgen::Flow::parse("resyn2").expect("flow");
    let expected = reference.evaluate_batch(&design, &[flow.transforms().to_vec()])[0];
    assert_eq!(
        report.qor, expected,
        "post-cancel evaluation is bit-identical"
    );

    // A malformed deadline is a typed client error, not a hang.
    let response = roundtrip(addr, &run_request(&design, "flow=resyn2&deadline_ms=soon"));
    assert_eq!(response.status, 400);
    server.shutdown();
    server.join().expect("drain");
}

#[test]
fn evaluate_flow_with_ctx_matches_batch_engine() {
    // The service path (`evaluate_flow_with_ctx`) against the batch path, on
    // the embedded engine — no sockets, pure engine-level pin.
    let engine = EvalEngine::new(EngineConfig::default());
    let mut pctx = synth::PassContext::default();
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let flow = vec![
        Transform::Balance,
        Transform::Rewrite,
        Transform::RefactorZ,
        Transform::Balance,
    ];
    let service = engine.evaluate_flow_with_ctx(&design, &flow, &mut pctx);
    let reference = EvalEngine::new(EngineConfig::default());
    let batch = reference.evaluate_batch(&design, std::slice::from_ref(&flow))[0];
    assert_eq!(service, batch);
    // Second call is a store hit, not a re-evaluation.
    let again = engine.evaluate_flow_with_ctx(&design, &flow, &mut pctx);
    assert_eq!(again, service);
    assert_eq!(engine.stats().store_hits, 1);
}

/// Drain + restart on the same store: every record acked before the drain
/// (the drain checkpoint fsyncs the store) must come back, and the restarted
/// daemon must answer the same flows bit-identically from the store without
/// re-evaluating.  Run twice: on the cleanly drained store, and on the same
/// store after a torn record was appended to its live segment (a crash
/// mid-append), which the restart must quarantine while staying healthy.
#[test]
fn a_store_that_cannot_open_fails_the_start() {
    // A bare base file is a plain JSON-lines store from before format v2:
    // the daemon refuses to start on it rather than serve without a store.
    let dir = std::env::temp_dir().join(format!("flowd-bare-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store_path = dir.join("qor.jsonl");
    let plain = "{\"flow\":\"balance\"}\n";
    std::fs::write(&store_path, plain).unwrap();
    let err = Server::start(ServerConfig {
        engine: EngineConfig {
            store_path: Some(store_path.clone()),
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    })
    .err()
    .expect("a store that cannot open fails the start");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("before format v2"), "{err}");
    assert_eq!(std::fs::read(&store_path).unwrap(), plain.as_bytes());
    assert!(!dir.join("qor.jsonl.000001.seg").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_on_same_store_loses_no_acked_records() {
    for torn_tail in [false, true] {
        restart_serves_every_acked_record(torn_tail);
    }
}

fn restart_serves_every_acked_record(torn_tail: bool) {
    let dir =
        std::env::temp_dir().join(format!("flowd-restart-{}-{torn_tail}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store_path = dir.join("qor.jsonl");
    let store_server = || {
        Server::start(ServerConfig {
            workers: 2,
            queue_capacity: 8,
            engine: EngineConfig {
                store_path: Some(store_path.clone()),
                cache_budget_aig_nodes: 100_000,
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        })
        .expect("start store-backed server")
    };
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let seeds: Vec<u64> = (1..=6).collect();

    // First life: evaluate six distinct random flows, remember every answer.
    let server = store_server();
    let addr = server.addr();
    let mut first: Vec<(String, synth::Qor)> = Vec::new();
    for seed in &seeds {
        let response = roundtrip(addr, &run_request(&design, &format!("random={seed}")));
        assert_eq!(response.status, 200, "body: {}", body_text(&response));
        let report: RunReport = serde_json::from_str(&body_text(&response)).expect("report");
        first.push((report.flow.script, report.qor));
    }
    let bye = roundtrip(addr, &Request::new("POST", "/shutdown"));
    assert_eq!(bye.status, 200);
    server.join().expect("drain + store checkpoint");

    if torn_tail {
        // Half a record after the last acked one, as a crash mid-append
        // leaves it: the live segment is the last in name order.
        let mut segments: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .expect("scan store dir")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "seg"))
            .collect();
        segments.sort();
        let live = segments.pop().expect("at least one segment");
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&live)
            .expect("open live segment");
        std::io::Write::write_all(&mut file, b"v2 00000000 {\"design\":\"torn").expect("tear");
    }

    // Second life: every acked record is already there before any request.
    let server = store_server();
    let addr = server.addr();
    let health = roundtrip(addr, &Request::new("GET", "/healthz"));
    assert_eq!(health.status, 200);
    assert!(
        body_text(&health).contains("\"store_mode\":\"ok\""),
        "restart is healthy (torn tail: {torn_tail}): {}",
        body_text(&health)
    );
    let stats = roundtrip(addr, &Request::new("GET", "/stats"));
    let text = body_text(&stats);
    assert!(
        text.contains(&format!("\"store_len\":{}", seeds.len())),
        "restarted store must hold all {} acked records: {text}",
        seeds.len()
    );
    assert!(
        text.contains(&format!("\"torn_tail\":{}", u8::from(torn_tail)))
            && text.contains("\"corrupt_records\":0"),
        "the restart quarantines exactly the torn record, nothing else: {text}"
    );
    for (seed, (script, qor)) in seeds.iter().zip(&first) {
        let response = roundtrip(addr, &run_request(&design, &format!("random={seed}")));
        assert_eq!(response.status, 200);
        let report: RunReport = serde_json::from_str(&body_text(&response)).expect("report");
        assert_eq!(&report.flow.script, script, "seed {seed} changed flow");
        assert_eq!(report.qor, *qor, "seed {seed} changed QoR across restart");
        assert_eq!(
            report.eval.store_hits, 1,
            "seed {seed} must be served from the store, not re-evaluated"
        );
        assert_eq!(report.eval.flows_evaluated, 0, "seed {seed} re-evaluated");
    }
    server.shutdown();
    server.join().expect("second drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/stats` as a JSON tree.
fn stats_json(addr: std::net::SocketAddr) -> serde::Value {
    let response = roundtrip(addr, &Request::new("GET", "/stats"));
    assert_eq!(response.status, 200);
    serde_json::parse_value(&body_text(&response)).expect("/stats is JSON")
}

fn counter(stats: &serde::Value, section: &str, name: &str) -> u64 {
    match stats.get(section).and_then(|s| s.get(name)) {
        Some(serde::Value::U64(v)) => *v,
        other => panic!("/stats {section}.{name} is {other:?}"),
    }
}

/// The `/stats` counters a request moved, as `(section, name, delta)`.
fn stats_delta(before: &serde::Value, after: &serde::Value) -> Vec<(&'static str, u64)> {
    [
        ("eval", "flows_requested"),
        ("eval", "store_hits"),
        ("eval", "passes_requested"),
        ("eval", "flows_evaluated"),
        ("designs", "hits"),
        ("designs", "misses"),
    ]
    .into_iter()
    .map(|(section, name)| {
        (
            name,
            counter(after, section, name) - counter(before, section, name),
        )
    })
    .collect()
}

/// A `200` reply as a JSON tree.
fn reply_json(response: &Response) -> serde::Value {
    assert_eq!(response.status, 200, "body: {}", body_text(response));
    serde_json::parse_value(&body_text(response)).expect("reply is JSON")
}

fn flow_runner_qor(design: &aig::Aig, spec: &str) -> synth::Qor {
    let flow = flowgen::Flow::parse(spec).expect("flow");
    synth::FlowRunner::new().run(design, flow.transforms()).qor
}

#[test]
fn repeated_body_is_answered_from_the_design_table_like_a_parsed_hit() {
    let server = tiny_server(1);
    let addr = server.addr();
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let mut renamed = design.clone();
    renamed.set_name("alu64_renamed");

    let first = reply_json(&roundtrip(addr, &run_request(&design, "flow=resyn2")));
    // A parsed store hit: the same structure under another body.
    let s0 = stats_json(addr);
    let parsed = reply_json(&roundtrip(addr, &run_request(&renamed, "flow=resyn2")));
    let s1 = stats_json(addr);
    // The repeated body: answered from the table and the store.
    let repeated = reply_json(&roundtrip(addr, &run_request(&design, "flow=resyn2")));
    let s2 = stats_json(addr);

    assert_eq!(repeated.get("design"), first.get("design"));
    assert_eq!(repeated.get("qor"), first.get("qor"));
    assert_eq!(parsed.get("qor"), first.get("qor"));
    assert_eq!(
        parsed.get("design").and_then(|d| d.get("fingerprint")),
        first.get("design").and_then(|d| d.get("fingerprint"))
    );
    let parsed_delta = stats_delta(&s0, &s1);
    let table_delta = stats_delta(&s1, &s2);
    let resyn2_len = flowgen::Flow::parse("resyn2").expect("flow").len() as u64;
    assert_eq!(
        parsed_delta[..4],
        table_delta[..4],
        "eval counters of a table hit equal a parsed hit's"
    );
    assert_eq!(
        table_delta,
        [
            ("flows_requested", 1),
            ("store_hits", 1),
            ("passes_requested", resyn2_len),
            ("flows_evaluated", 0),
            ("hits", 1),
            ("misses", 0),
        ]
    );
    assert_eq!(parsed_delta[4..], [("hits", 0), ("misses", 1)]);
    assert_eq!(counter(&s2, "designs", "known"), 2);
    server.shutdown();
    server.join().expect("drain");
}

#[test]
fn one_more_output_is_parsed_not_served_from_the_table() {
    let server = tiny_server(1);
    let addr = server.addr();
    let design = Design::Montgomery64.generate(DesignScale::Tiny);
    let mut wider = design.clone();
    wider.add_output("extra", design.outputs()[0]);
    assert_eq!(
        roundtrip(addr, &run_request(&design, "flow=resyn")).status,
        200
    );

    let before = stats_json(addr);
    let response = roundtrip(addr, &run_request(&wider, "flow=resyn"));
    let after = stats_json(addr);
    assert_eq!(response.status, 200, "body: {}", body_text(&response));
    let report: RunReport = serde_json::from_str(&body_text(&response)).expect("report");
    assert_eq!(report.design.outputs, design.num_outputs() + 1);
    assert_eq!(
        report.design.fingerprint,
        floweval::fingerprint_design(&wider).to_string()
    );
    assert_eq!(report.qor, flow_runner_qor(&wider, "resyn"));
    assert_eq!(
        counter(&after, "designs", "misses"),
        counter(&before, "designs", "misses") + 1
    );
    assert_eq!(counter(&after, "designs", "hits"), 0);
    server.shutdown();
    server.join().expect("drain");
}

#[test]
fn unparseable_body_is_never_remembered() {
    let server = tiny_server(1);
    let addr = server.addr();
    let garbage =
        Request::new("POST", "/run?flow=resyn2").with_body(b"aag 3 2 0 1 1\n2\n".to_vec());
    for _ in 0..2 {
        let response = roundtrip(addr, &garbage);
        assert_eq!(response.status, 400, "body: {}", body_text(&response));
        assert!(body_text(&response).contains("\"kind\":\"parse\""));
    }
    let stats = stats_json(addr);
    assert_eq!(counter(&stats, "designs", "known"), 0);
    assert_eq!(counter(&stats, "designs", "misses"), 2);
    server.shutdown();
    server.join().expect("drain");
}

#[test]
fn export_and_verify_parse_a_known_body_and_match_flow_runner() {
    let server = tiny_server(1);
    let addr = server.addr();
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let expected = flow_runner_qor(&design, "compress");
    let warm: RunReport = serde_json::from_str(&body_text(&roundtrip(
        addr,
        &run_request(&design, "flow=compress"),
    )))
    .expect("report");
    assert_eq!(warm.qor, expected);
    for query in ["flow=compress&export=aag", "flow=compress&verify=1"] {
        let before = stats_json(addr);
        let response = roundtrip(addr, &run_request(&design, query));
        let after = stats_json(addr);
        assert_eq!(response.status, 200, "{query}: {}", body_text(&response));
        let report: RunReport = serde_json::from_str(&body_text(&response)).expect("report");
        assert_eq!(report.qor, expected, "{query}");
        assert_eq!(
            report.eval.store_hits, 1,
            "{query}: QoR still comes from the store"
        );
        assert_eq!(
            counter(&after, "designs", "misses"),
            counter(&before, "designs", "misses") + 1,
            "{query} parses its body"
        );
        assert_eq!(counter(&after, "designs", "hits"), 0, "{query}");
        if query.contains("export") {
            let netlist = report
                .export
                .and_then(|e| e.netlist)
                .expect("inline netlist");
            let optimized =
                aig::io::parse_design(netlist.as_bytes(), aig::io::Format::AigerAscii).unwrap();
            assert_eq!(optimized.num_ands(), expected.and_nodes);
        }
    }
    server.shutdown();
    server.join().expect("drain");
}

#[test]
fn known_body_with_an_unstored_flow_is_evaluated() {
    let server = tiny_server(1);
    let addr = server.addr();
    let design = Design::Aes128.generate(DesignScale::Tiny);
    assert_eq!(
        roundtrip(addr, &run_request(&design, "flow=resyn")).status,
        200
    );
    let spec = "balance; rewrite -z; refactor";
    let query = format!("flow={}", httpwire::percent_encode(spec));
    let before = stats_json(addr);
    let response = roundtrip(addr, &run_request(&design, &query));
    let after = stats_json(addr);
    assert_eq!(response.status, 200, "body: {}", body_text(&response));
    let report: RunReport = serde_json::from_str(&body_text(&response)).expect("report");
    assert_eq!(report.eval.flows_evaluated, 1);
    assert_eq!(report.qor, flow_runner_qor(&design, spec));
    assert_eq!(
        counter(&after, "designs", "misses"),
        counter(&before, "designs", "misses") + 1
    );
    server.shutdown();
    server.join().expect("drain");
}

#[test]
fn answers_stay_correct_past_the_design_table_bound() {
    let server = tiny_server(1);
    let addr = server.addr();
    // A small design under distinct names: distinct bodies, one structure.
    let mut base = aig::Aig::with_name("base");
    let inputs: Vec<aig::Lit> = (0..4).map(|i| base.add_input(format!("x{i}"))).collect();
    let ab = base.and(inputs[0], inputs[1]);
    let cd = base.and(inputs[2], !inputs[3]);
    let f = base.and(ab, !cd);
    base.add_output("f", f);
    let g = base.and(!ab, cd);
    base.add_output("g", g);
    let expected = flow_runner_qor(&base, "resyn2");
    let named = |i: usize| {
        let mut design = base.clone();
        design.set_name(format!("copy{i}"));
        run_request(&design, "flow=resyn2")
    };

    // One keep-alive connection at a time, renewed at the per-connection cap.
    let total = flowd::MAX_KNOWN_DESIGNS + 8;
    let mut connection = Connection::open(addr).expect("connect");
    for i in 0..total {
        let response = connection.send(&named(i)).expect("response");
        let report: RunReport = serde_json::from_str(&body_text(&response)).expect("report");
        assert_eq!(report.design.name, format!("copy{i}"));
        assert_eq!(report.qor, expected, "body {i}");
    }
    drop(connection);

    // The oldest body was forgotten and is parsed again; the newest is known.
    for (i, parsed) in [(0, true), (total - 1, false)] {
        let before = stats_json(addr);
        let report: RunReport =
            serde_json::from_str(&body_text(&roundtrip(addr, &named(i)))).expect("report");
        let after = stats_json(addr);
        assert_eq!(report.design.name, format!("copy{i}"));
        assert_eq!(report.qor, expected, "body {i}");
        assert_eq!(
            counter(&after, "designs", "misses") - counter(&before, "designs", "misses"),
            u64::from(parsed),
            "body {i}"
        );
    }
    assert_eq!(
        counter(&stats_json(addr), "designs", "known"),
        flowd::MAX_KNOWN_DESIGNS as u64
    );
    server.shutdown();
    server.join().expect("drain");
}

#[test]
fn every_query_parameter_is_checked_before_the_body() {
    let server = tiny_server(1);
    let addr = server.addr();
    let garbage = b"not a netlist at all".to_vec();
    for (query, kind) in [
        ("flow=resyn2&export=aig", "export"),
        ("flow=resyn2&export=svg", "export"),
        ("flow=resyn2&format=svg", "design"),
        ("flow=frobnicate&export=aag", "flow"),
        ("random=soon", "flow"),
    ] {
        let request = Request::new("POST", &format!("/run?{query}")).with_body(garbage.clone());
        let response = roundtrip(addr, &request);
        assert_eq!(response.status, 400, "{query}: {}", body_text(&response));
        assert!(
            body_text(&response).contains(&format!("\"kind\":\"{kind}\"")),
            "{query}: {}",
            body_text(&response)
        );
    }
    assert_eq!(
        counter(&stats_json(addr), "designs", "misses"),
        0,
        "no body was parsed"
    );
    server.shutdown();
    server.join().expect("drain");
}
