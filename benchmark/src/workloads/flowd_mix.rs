//! `flowd_mix` — one daemon, a request mix over loopback.
//!
//! An in-process `flowd::Server` (2 workers, on-disk segmented store
//! pre-filled with the `hit` corpus) serves a **closed loop** of 2 keep-alive
//! clients — callers such as `flowc submit` wait for their reply — a seeded
//! schedule of `POST /run` requests with binary-AIGER bodies of the three
//! `fixtures/tiny` designs (generated, not read) and their Small versions:
//!
//! * 70 % `hit` — the flow is in the store: parse + fingerprint + store read;
//! * 20 % `extend` — a flow the daemon evaluated in warm-up plus 1–3 new
//!   passes: trie copy + short suffix + map + store append;
//! * 10 % `fresh` — a design the daemon has never seen (the base design with
//!   one more output): nothing cached, whole flow + map + append.
//!
//! `httpwire`, `flowd` queueing, `aig::io` parsing and `floweval`'s
//! trie/store do most of the work and `synth` little.  The engine is used the
//! opposite way from `paper_loop`: single-flow, read-mostly, shared across
//! requests.

use std::collections::BTreeSet;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;

use aig::io::Format;
use aig::Aig;
use circuits::{Design, DesignScale};
use flow_core::Fingerprint;
use flowc::report::RunReport;
use flowd::{Server, ServerConfig};
use floweval::{flow_script, EngineConfig, EvalEngine, QorStore, StoreKey};
use httpwire::{Limits, Request, Response};
use synth::{FlowRunner, Qor, Transform};

use super::SetupTimes;
use crate::common::{qor_panel, short_flow};
use crate::report::{Outcome, Section};
use crate::rng::Rng64;
use crate::runner::{copy_dir, measure_setup, RunArgs, Scratch, THREADS};
use crate::trace::Tracer;
use crate::{host, oracle, probes, stats};

/// Requests per nominal section.
const REQUESTS: f64 = 16000.0;
/// The six designs, smallest first, and how often each is drawn (per 14).
const DESIGNS: [(Design, DesignScale); 6] = [
    (Design::Alu64, DesignScale::Tiny),
    (Design::Montgomery64, DesignScale::Tiny),
    (Design::Alu64, DesignScale::Small),
    (Design::Montgomery64, DesignScale::Small),
    (Design::Aes128, DesignScale::Tiny),
    (Design::Aes128, DesignScale::Small),
];
const WEIGHTS: [usize; 6] = [3, 3, 3, 2, 2, 1];
/// Stored flows per design (the `hit` corpus), 3–6 passes each.
const HIT_FLOWS: usize = 16;
/// Warm-up flows per design and client that `extend` requests build on.
const BASES: usize = 4;
const BASE_LEN: usize = 5;
/// Unrelated records the store also holds, so the scrub at open and the
/// index are not toy-sized.
const FILLER_RECORDS: usize = 20_000;
/// Results re-requested with `export=aag` and checked by the oracle.
const SAMPLES: usize = 16;

const HIT: usize = 0;
const EXTEND: usize = 1;
const FRESH: usize = 2;
const CLASS_SPANS: [&str; 3] = ["flowd.hit", "flowd.extend", "flowd.fresh"];

/// One scheduled request.
#[derive(Debug, Clone)]
struct Planned {
    class: usize,
    /// Index into `Plan::bodies`.
    body: usize,
    /// Which variant of the design the body is (`fresh` only).
    variant: usize,
    /// Index into `Plan::designs` of the (base) design.
    design: usize,
    flow: Vec<Transform>,
}

impl Planned {
    fn target(&self, export: bool) -> String {
        let flow = httpwire::percent_encode(&flow_script(&self.flow));
        let export = if export { "&export=aag" } else { "" };
        format!("/run?flow={flow}{export}")
    }
}

/// Everything generated from the seed.
struct Plan {
    designs: Vec<Aig>,
    /// Milliseconds the six generators took.
    generate_ms: f64,
    /// Request bodies: the six designs, then one per `fresh` request.
    bodies: Vec<Vec<u8>>,
    hit_flows: Vec<Vec<Vec<Transform>>>,
    /// Per client: warm-up requests (its bases), then its timed requests.
    warmup: Vec<Vec<Planned>>,
    timed: Vec<Vec<Planned>>,
}

impl Plan {
    /// The network a request carries (a `fresh` body is its own variant).
    fn design_of(&self, planned: &Planned) -> Aig {
        match planned.class {
            FRESH => variant(&self.designs[planned.design], planned.variant),
            _ => self.designs[planned.design].clone(),
        }
    }
}

/// `count` design indices in proportion to [`WEIGHTS`], shuffled.
fn design_sequence(rng: &mut Rng64, count: usize) -> Vec<usize> {
    let total: usize = WEIGHTS.iter().sum();
    let mut seq: Vec<usize> = (0..count)
        .map(|k| {
            let mut slot = k % total;
            WEIGHTS
                .iter()
                .position(|&w| {
                    if slot < w {
                        true
                    } else {
                        slot -= w;
                        false
                    }
                })
                .expect("slot below the weight total")
        })
        .collect();
    rng.shuffle(&mut seq);
    seq
}

/// `base` with one more output: the AND of the `k`-th (input pair, phases)
/// combination.  A different network (new fingerprint, nothing cached) of
/// the same size; distinct `k` below `2·n·(n−1)` give distinct networks.
fn variant(base: &Aig, k: usize) -> Aig {
    let mut g = base.clone();
    let inputs = g.input_lits();
    let (mut pair, mut i) = (k / 4, 0);
    while pair >= inputs.len() - 1 - i {
        pair -= inputs.len() - 1 - i;
        i = (i + 1) % (inputs.len() - 1);
    }
    let j = i + 1 + pair;
    let (a, b) = (
        inputs[i].with_complement(k % 2 == 1),
        inputs[j].with_complement(k % 4 >= 2),
    );
    let extra = g.and(a, b);
    g.add_output(format!("bench_v{k}"), extra);
    g
}

fn plan(args: &RunArgs) -> Plan {
    let mut rng = Rng64::stream(args.seed, 0xF10D);
    let generate = Instant::now();
    let designs: Vec<Aig> = DESIGNS.iter().map(|(d, s)| d.generate(*s)).collect();
    let generate_ms = generate.elapsed().as_secs_f64() * 1e3;
    let mut bodies: Vec<Vec<u8>> = designs
        .iter()
        .map(|g| aig::io::render_design(g, Format::AigerBinary))
        .collect();

    // Flows already used per design, so no `extend` or base is a stored hit.
    let mut used: Vec<BTreeSet<Vec<Transform>>> = vec![BTreeSet::new(); designs.len()];
    let mut hit_flows = Vec::new();
    for used in &mut used {
        let mut flows = Vec::new();
        while flows.len() < HIT_FLOWS {
            let flow = short_flow(&mut rng, 3 + flows.len() % 4);
            if used.insert(flow.clone()) {
                flows.push(flow);
            }
        }
        hit_flows.push(flows);
    }

    let per_client = args.scaled(REQUESTS, 40) / THREADS;
    let counts = [per_client * 7 / 10, per_client * 2 / 10, per_client / 10];
    let mut warmup = Vec::new();
    let mut timed = Vec::new();
    let mut variants = [0usize; 6];
    for _client in 0..THREADS {
        // This client's bases: only it extends them, so what the trie holds
        // under a base never depends on how the two clients interleave.
        let mut bases: Vec<Vec<Vec<Transform>>> = Vec::new();
        let mut warm = Vec::new();
        for (d, used) in used.iter_mut().enumerate() {
            let mut mine = Vec::new();
            while mine.len() < BASES {
                let flow = short_flow(&mut rng, BASE_LEN);
                if used.insert(flow.clone()) {
                    warm.push(Planned {
                        class: EXTEND,
                        body: d,
                        variant: 0,
                        design: d,
                        flow: flow.clone(),
                    });
                    mine.push(flow);
                }
            }
            bases.push(mine);
            warm.push(Planned {
                class: HIT,
                body: d,
                variant: 0,
                design: d,
                flow: hit_flows[d][0].clone(),
            });
        }
        let mut requests = Vec::new();
        for d in design_sequence(&mut rng, counts[HIT]) {
            let flow = hit_flows[d][rng.below(HIT_FLOWS)].clone();
            requests.push(Planned {
                class: HIT,
                body: d,
                variant: 0,
                design: d,
                flow,
            });
        }
        for (k, d) in design_sequence(&mut rng, counts[EXTEND])
            .into_iter()
            .enumerate()
        {
            // 1–3 new passes; a base has only six one-pass extensions, so a
            // draw that keeps colliding grows longer.
            let mut attempts = 0;
            let flow = loop {
                let mut flow = bases[d][rng.below(BASES)].clone();
                flow.extend(short_flow(&mut rng, (1 + k % 3 + attempts / 8).min(3)));
                if used[d].insert(flow.clone()) {
                    break flow;
                }
                attempts += 1;
            };
            requests.push(Planned {
                class: EXTEND,
                body: d,
                variant: 0,
                design: d,
                flow,
            });
        }
        for (k, d) in design_sequence(&mut rng, counts[FRESH])
            .into_iter()
            .enumerate()
        {
            let unseen = variant(&designs[d], variants[d]);
            bodies.push(aig::io::render_design(&unseen, Format::AigerBinary));
            let flow = short_flow(&mut rng, 2 + k % 2);
            requests.push(Planned {
                class: FRESH,
                body: bodies.len() - 1,
                variant: variants[d],
                design: d,
                flow,
            });
            variants[d] += 1;
        }
        rng.shuffle(&mut requests);
        warmup.push(warm);
        timed.push(requests);
    }
    Plan {
        designs,
        generate_ms,
        bodies,
        hit_flows,
        warmup,
        timed,
    }
}

/// Builds the pre-filled store under `dir`: filler records, then the `hit`
/// corpus evaluated by an engine of the harness's own.  Returns the QoR of
/// every stored hit flow.
fn prefill(dir: &Path, plan: &Plan) -> Vec<Vec<Qor>> {
    let base = dir.join("qor");
    let mut store = QorStore::open(&base).expect("template store opens");
    for i in 0..FILLER_RECORDS {
        let key = StoreKey {
            design: Fingerprint(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 / 32 + 1)),
            config: Fingerprint(0xF111),
            flow: format!("balance; rewrite; filler {i}"),
        };
        let qor = Qor {
            area_um2: i as f64,
            delay_ps: 1.0,
            gates: i,
            and_nodes: i,
            depth: 1,
        };
        store.insert(key, qor).expect("filler insert");
    }
    store.checkpoint().expect("filler checkpoint");
    drop(store);
    let engine = EvalEngine::new(EngineConfig {
        store_path: Some(base),
        ..EngineConfig::default()
    });
    let qors = plan
        .designs
        .iter()
        .zip(&plan.hit_flows)
        .map(|(design, flows)| engine.evaluate_batch(design, flows))
        .collect();
    engine.checkpoint_store().expect("corpus checkpoint");
    qors
}

fn server_config(store: &Path) -> ServerConfig {
    ServerConfig {
        workers: THREADS,
        engine: EngineConfig {
            store_path: Some(store.join("qor")),
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// A keep-alive client connection that reconnects when the daemon closes it
/// (it does every `max_keepalive_requests`).
struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    limits: Limits,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        let limits = Limits {
            max_body_bytes: 16 * 1024 * 1024,
            ..Limits::default()
        };
        Client {
            addr,
            conn: None,
            limits,
        }
    }

    /// One request, one reply.  A kept-alive connection the daemon has
    /// closed meanwhile (idle timeout, keep-alive cap) is re-opened once, as
    /// any HTTP client does.
    fn exchange(&mut self, request: &Request) -> Result<Response, String> {
        let reused = self.conn.is_some();
        match self.attempt(request) {
            Err(_) if reused => self.attempt(request),
            result => result,
        }
    }

    fn attempt(&mut self, request: &Request) -> Result<Response, String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            self.conn = Some((stream, reader));
        }
        let (stream, reader) = self.conn.as_mut().expect("connected above");
        let result = httpwire::write_request(stream, request)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                httpwire::read_response(reader, &self.limits).map_err(|e| e.to_string())
            });
        if !matches!(&result, Ok(response) if !response.closes_connection()) {
            self.conn = None;
        }
        result
    }

    fn get(&mut self, target: &str) -> Result<Response, String> {
        self.exchange(&Request::new("GET", target))
    }
}

/// What one client saw: per request its class, latency and response body.
#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    bodies: Vec<Option<Vec<u8>>>,
    queue_depth_max: f64,
}

/// Sends `requests` one after the other, each after the previous reply.
fn drive(
    client: &mut Client,
    plan: &Plan,
    requests: &[Planned],
    tracer: &mut Tracer,
    id: u64,
) -> ClientLog {
    let mut log = ClientLog::default();
    tracer.span("harness.client", id, |tracer| {
        for (k, planned) in requests.iter().enumerate() {
            let request = Request::new("POST", &planned.target(false))
                .with_body(plan.bodies[planned.body].clone());
            let op = id * 1_000_000 + k as u64;
            let start = Instant::now();
            let response = tracer.span(CLASS_SPANS[planned.class], op, |_| {
                client.exchange(&request)
            });
            log.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            log.bodies
                .push(response.ok().filter(|r| r.status == 200).map(|r| r.body));
            // Traced runs scrape `/stats` over the same connection (both
            // workers are pinned by the two keep-alive clients, a third
            // connection would only queue).
            if tracer.enabled() && k % 250 == 249 {
                let depth = tracer.span("flowd.stats", op, |_| {
                    let stats = client.get("/stats").ok().and_then(|r| parse_json(&r.body));
                    stats.map_or(0.0, |s| number(&s, &["queue", "depth"]))
                });
                log.queue_depth_max = log.queue_depth_max.max(depth);
            }
        }
    });
    log
}

fn parse_json(body: &[u8]) -> Option<serde::Value> {
    serde_json::parse_value(std::str::from_utf8(body).ok()?).ok()
}

fn number(value: &serde::Value, path: &[&str]) -> f64 {
    let leaf = path.iter().try_fold(value, |v, key| v.get(key));
    match leaf {
        Some(serde::Value::U64(v)) => *v as f64,
        Some(serde::Value::I64(v)) => *v as f64,
        Some(serde::Value::F64(v)) => *v,
        _ => 0.0,
    }
}

/// One daemon lifetime: boot on a copy of the template store, warm up, run
/// the timed closed loop, scrape, validate, drain.
struct Served {
    section: Section,
    logs: Vec<ClientLog>,
    /// `/stats` after the section minus `/stats` before it.
    stats: Vec<(&'static str, f64)>,
    boot_ms: f64,
    drain_ms: f64,
    qors: Vec<Vec<Option<Qor>>>,
    checks: u64,
    failed_checks: u64,
    cache: (f64, f64),
    wire_sample: Option<(Request, Response)>,
    engine_self: (f64, f64),
}

const STAT_PATHS: [(&str, [&str; 2]); 10] = [
    ("floweval.flows_requested", ["eval", "flows_requested"]),
    ("floweval.store_hits", ["eval", "store_hits"]),
    ("floweval.passes_requested", ["eval", "passes_requested"]),
    ("floweval.passes_applied", ["eval", "passes_applied"]),
    ("floweval.trie_hits", ["eval", "trie_hits"]),
    ("floweval.mappings_run", ["eval", "mappings_run"]),
    (
        "floweval.store_write_errors",
        ["eval", "store_write_errors"],
    ),
    ("flowd.rejected_503", ["requests", "rejected_queue_full"]),
    ("flowd.rejected_503", ["requests", "rejected_wait_timeout"]),
    ("flowd.http_5xx", ["requests", "handler_panics"]),
];

fn serve(
    args: &RunArgs,
    plan: &Plan,
    store: &Path,
    hit_qors: &[Vec<Qor>],
    tracer: &mut Tracer,
) -> Served {
    let boot = Instant::now();
    let server = Server::start(server_config(store)).expect("daemon boots");
    let addr = server.addr();
    let mut clients: Vec<Client> = (0..THREADS).map(|_| Client::new(addr)).collect();
    let healthy = clients[0].get("/healthz").is_ok_and(|r| r.status == 200);
    assert!(healthy, "the daemon never answered /healthz");
    let boot_ms = boot.elapsed().as_secs_f64() * 1e3;

    // Warm-up, excluded: each client has its bases evaluated (filling the
    // trie the `extend` requests copy from) and one hit per design.
    let mut silent = Tracer::new(false, Instant::now());
    for (client, warm) in clients.iter_mut().zip(&plan.warmup) {
        let log = drive(client, plan, warm, &mut silent, 0);
        assert!(
            log.bodies.iter().all(Option::is_some),
            "a warm-up request failed"
        );
    }
    let scrape = |client: &mut Client| -> serde::Value {
        let response = client.get("/stats").expect("/stats answers");
        parse_json(&response.body).expect("/stats is JSON")
    };
    let before = scrape(&mut clients[0]);
    let timings_before = server.engine().pass_timings();

    // The timed section: two clients, closed loop.
    let origin = Instant::now();
    let (cpu0, wall0) = (host::cpu_seconds(), Instant::now());
    let mut tracers: Vec<Tracer> = (0..THREADS)
        .map(|_| Tracer::new(tracer.enabled(), origin))
        .collect();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&plan.timed)
            .zip(&mut tracers)
            .enumerate()
            .map(|(id, ((client, requests), tracer))| {
                scope.spawn(move || drive(client, plan, requests, tracer, id as u64 + 1))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut section = Section::default();
    section.close(cpu0, wall0);
    if tracer.enabled() {
        // Client spans are relative to the section start, like the
        // absorbing tracer's own spans are to its origin; only durations
        // and nesting are read.
        for t in tracers {
            tracer.absorb(t);
        }
    }
    let after = scrape(&mut clients[0]);
    let mut stats: Vec<(&'static str, f64)> = Vec::new();
    for (name, path) in &STAT_PATHS {
        let delta = number(&after, path) - number(&before, path);
        match stats.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 += delta,
            None => stats.push((*name, delta)),
        }
    }
    let cache = (
        number(&after, &["cache", "cached_aig_nodes"]),
        number(&after, &["cache", "cached_prefixes"]),
    );
    let mut timings = server.engine().pass_timings();
    let engine_wall = number(&after, &["eval", "wall_s"]) - number(&before, &["eval", "wall_s"]);
    timings.mapping.seconds -= timings_before.mapping.seconds;
    let pass_s = timings.pass_seconds() - timings_before.pass_seconds() + timings.mapping.seconds;

    // Every reply must be a 200 whose QoR parses; hits must equal the QoR
    // the harness's own engine stored.
    let mut qors: Vec<Vec<Option<Qor>>> = Vec::new();
    for (log, requests) in logs.iter().zip(&plan.timed) {
        let mut client_qors = Vec::new();
        for (body, planned) in log.bodies.iter().zip(requests) {
            let qor = body
                .as_ref()
                .and_then(|b| serde_json::from_str::<RunReport>(std::str::from_utf8(b).ok()?).ok())
                .map(|r| r.qor);
            let expected_hit = || {
                let k = plan.hit_flows[planned.design]
                    .iter()
                    .position(|f| *f == planned.flow);
                k.map(|k| hit_qors[planned.design][k])
            };
            let ok = match planned.class {
                HIT => qor.is_some() && qor == expected_hit(),
                _ => qor.is_some(),
            };
            section.failed += u64::from(!ok);
            section.evals += 1;
            client_qors.push(qor);
        }
        section.latencies_ms.extend(&log.latencies_ms);
        qors.push(client_qors);
    }

    // Sampled replies of every class: the QoR must equal an in-process
    // `FlowRunner::run`, and the netlist the daemon exports for the same
    // request must match the request's design under the oracle.
    let runner = FlowRunner::new();
    let mut rng = Rng64::stream(args.seed, 0x5A3B);
    let (mut checks, mut failed_checks) = (0, 0);
    let mut wire_sample = None;
    for k in 0..SAMPLES {
        let c = k % THREADS;
        let i = rng.below(plan.timed[c].len());
        let planned = &plan.timed[c][i];
        let design = &plan.design_of(planned);
        let reference = runner.run(design, &planned.flow).qor;
        let request = Request::new("POST", &planned.target(true))
            .with_body(plan.bodies[planned.body].clone());
        let exported = clients[c]
            .exchange(&request)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| {
                let report =
                    serde_json::from_str::<RunReport>(std::str::from_utf8(&r.body).ok()?).ok()?;
                wire_sample.get_or_insert((request.clone(), r));
                Some((report.qor, report.export?.netlist?))
            });
        let ok = exported.is_some_and(|(qor, netlist)| {
            qor == reference
                && qors[c][i] == Some(reference)
                && oracle::equivalent(&crate::common::aag(design), &netlist, args.seed).is_ok()
        });
        checks += 1;
        failed_checks += u64::from(!ok);
    }

    // Clients hang up first: a worker blocked reading an idle keep-alive
    // connection would hold the drain for the idle timeout.
    drop(clients);
    let drain = Instant::now();
    server.shutdown();
    server.join().expect("daemon drains");
    Served {
        section,
        logs,
        stats,
        boot_ms,
        drain_ms: drain.elapsed().as_secs_f64() * 1e3,
        qors,
        checks,
        failed_checks,
        cache,
        wire_sample,
        engine_self: ((engine_wall - pass_s).max(0.0), engine_wall),
    }
}

/// One cold set-up as a `--setup-probe` child performs it: NPN table, the six
/// designs and their bodies, the daemon booted on `store` (scrub at open) up
/// to its first `/healthz`.
pub fn setup_probe(_args: &RunArgs, store: &Path) -> f64 {
    let start = Instant::now();
    let _ = synth::npn4::npn4();
    let bodies: Vec<Vec<u8>> = DESIGNS
        .iter()
        .map(|(d, s)| aig::io::render_design(&d.generate(*s), Format::AigerBinary))
        .collect();
    let server = Server::start(server_config(store)).expect("daemon boots");
    let healthy = Client::new(server.addr())
        .get("/healthz")
        .is_ok_and(|r| r.status == 200);
    let ready_s = start.elapsed().as_secs_f64();
    assert!(
        healthy && bodies.len() == DESIGNS.len(),
        "the daemon never answered /healthz"
    );
    server.shutdown();
    server.join().expect("daemon drains");
    ready_s
}

/// Runs the workload.
pub fn run(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let start = Instant::now();
    let _ = synth::npn4::npn4();
    let npn4_ms = start.elapsed().as_secs_f64() * 1e3;
    let plan = plan(args);
    let times = SetupTimes {
        npn4_ms,
        generate_ms: plan.generate_ms,
        ready_s: 0.0,
    };
    let scratch = Scratch::new("flowd");
    let template = scratch.path().join("template");
    let hit_qors = prefill(&template, &plan);
    let copy = |tag: String| -> PathBuf {
        let dir = scratch.path().join(tag);
        copy_dir(&template, &dir).expect("store copy");
        dir
    };

    let mut out = Outcome {
        setup_s: measure_setup(args, |i| Some(copy(format!("probe{i}")))),
        ..Outcome::default()
    };

    let served = serve(
        args,
        &plan,
        &copy("run".to_string()),
        &hit_qors,
        &mut Tracer::new(false, Instant::now()),
    );
    out.checks += served.checks;
    out.failed_checks += served.failed_checks;
    let mut per_class = [0usize; 3];
    for planned in plan.timed.iter().flatten() {
        per_class[planned.class] += 1;
    }
    for (name, value) in &served.stats {
        out.counters.insert(name.to_string(), *value);
    }
    for (class, count) in ["hit", "extend", "fresh"].iter().zip(per_class) {
        out.counters
            .insert(format!("flowd.requests_{class}"), count as f64);
    }
    let mut section = served.section.clone();
    let refused: f64 = served
        .stats
        .iter()
        .filter(|(n, _)| n.starts_with("flowd."))
        .map(|(_, v)| v)
        .sum();
    section.failed += refused as u64;

    if args.trace {
        // The traced section: the same schedule against a second daemon on a
        // second copy of the store, a span per request on each client.
        let traced = serve(args, &plan, &copy("traced".to_string()), &hit_qors, tracer);
        out.checks += traced.checks + 1;
        out.failed_checks += traced.failed_checks + u64::from(traced.qors != served.qors);
        out.layer(
            "trace.overhead_ratio",
            traced.section.wall_s / served.section.wall_s - 1.0,
        );
        for (name, value) in &traced.stats {
            out.layer(name, *value);
        }
        let mut by_class: [Vec<f64>; 3] = Default::default();
        for (requests, log) in plan.timed.iter().zip(&traced.logs) {
            for (planned, latency) in requests.iter().zip(&log.latencies_ms) {
                by_class[planned.class].push(*latency);
            }
        }
        for (name, latencies) in [
            "flowd.hit_ms_p50",
            "flowd.extend_ms_p50",
            "flowd.fresh_ms_p50",
        ]
        .iter()
        .zip(&by_class)
        {
            out.layer(name, stats::median(latencies));
        }
        let busy_ms: f64 = traced.section.latencies_ms.iter().sum();
        out.layer(
            "flowd.worker_busy_ratio",
            busy_ms * 1e-3 / (THREADS as f64 * traced.section.wall_s),
        );
        let depth = traced
            .logs
            .iter()
            .map(|l| l.queue_depth_max)
            .fold(0.0, f64::max);
        out.layer("flowd.queue_depth_max", depth);
        out.layer("flowd.boot_ms", traced.boot_ms);
        out.layer("flowd.drain_ms", traced.drain_ms);
        out.layer("floweval.trie_cached_nodes", traced.cache.0);
        out.layer("floweval.trie_cached_prefixes", traced.cache.1);
        out.layer("floweval.self_s", traced.engine_self.0);
        out.layer(
            "floweval.self_ratio",
            traced.engine_self.0 / traced.engine_self.1,
        );
        let stat = |name: &str| {
            traced
                .stats
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let requested = stat("floweval.passes_requested");
        out.layer(
            "floweval.pass_savings_ratio",
            (requested - stat("floweval.passes_applied")) / requested,
        );
        out.layer("synth.npn4_table_build_ms", times.npn4_ms);
        out.layer("circuits.generate_ms", times.generate_ms);
        let refs: Vec<&Aig> = plan.designs.iter().collect();
        probes::aig_layer(&refs, &mut out);
        probes::synth_layer(&refs, 4, args.seed, |rng| short_flow(rng, 4), &mut out);
        probes::store_layer(scratch.path(), 5000, &mut out);
        if let Some((request, response)) = &traced.wire_sample {
            probes::wire_layer(request, response, 200, &mut out);
        }
    } else {
        out.qor_area_ratio = qor_panel(&plan.designs);
    }
    out.section = section;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_distinct_networks_of_the_same_size() {
        let base = Design::Alu64.generate(DesignScale::Tiny);
        let mut seen = BTreeSet::new();
        seen.insert(floweval::fingerprint_design(&base).0);
        for k in 0..600 {
            let v = variant(&base, k);
            assert_eq!(v.num_inputs(), base.num_inputs());
            assert!(v.num_ands() <= base.num_ands() + 1);
            assert!(
                seen.insert(floweval::fingerprint_design(&v).0),
                "variant {k} repeats"
            );
        }
    }

    #[test]
    fn design_sequence_has_exact_weight_shares() {
        let seq = design_sequence(&mut Rng64::new(5), 1400);
        for (design, weight) in WEIGHTS.iter().enumerate() {
            assert_eq!(seq.iter().filter(|&&d| d == design).count(), weight * 100);
        }
    }

    #[test]
    fn plan_has_exact_class_shares_and_no_extend_is_a_stored_flow() {
        let args = RunArgs {
            workload: "flowd_mix".into(),
            seed: 3,
            seconds: 1.0,
            trace: false,
        };
        let plan = plan(&args);
        for requests in &plan.timed {
            let count = |class| requests.iter().filter(|p| p.class == class).count();
            assert_eq!((count(HIT), count(EXTEND), count(FRESH)), (280, 80, 40));
            for p in requests.iter().filter(|p| p.class == EXTEND) {
                assert!((BASE_LEN + 1..=BASE_LEN + 3).contains(&p.flow.len()));
                assert!(!plan.hit_flows[p.design].contains(&p.flow));
            }
        }
        assert_eq!(plan.bodies.len(), DESIGNS.len() + 80);
    }
}
