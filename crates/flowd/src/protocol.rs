//! Request routing and the `/run` handler: flowc's report schema over HTTP.

use std::sync::atomic::Ordering;

use aig::io::Format;
use aig::random_equivalence_check;
use flow_core::{CancelReason, CancelToken, Cancelled};
use flowc::report::{DesignReport, ExportReport, FlowReport, RunReport, TimingReport};
use floweval::EvalStats;
use flowgen::{Flow, FlowSpace};
use httpwire::{Request, Response};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use synth::{PassContext, PassTimings, Qor};

use crate::designs::{DesignSummary, KnownDesign};
use crate::server::Shared;

/// Seed used for `verify=1` random-simulation checks; matches the engine's.
const VERIFY_SEED: u64 = 0x5EED;

/// The JSON error envelope every non-200 answer carries.
#[derive(Debug, Serialize)]
struct WireError {
    error: WireErrorBody,
}

#[derive(Debug, Serialize)]
struct WireErrorBody {
    kind: String,
    message: String,
}

/// Builds a JSON error response.
pub(crate) fn error_response(status: u16, kind: &str, message: &str) -> Response {
    let body = serde_json::to_string(&WireError {
        error: WireErrorBody {
            kind: kind.to_string(),
            message: message.to_string(),
        },
    })
    .unwrap_or_else(|_| "{\"error\":{\"kind\":\"internal\"}}".to_string());
    Response::json(status, body)
}

/// The `503` backpressure answer: retry shortly, on a fresh connection.
/// While the store is degraded the response also carries
/// `X-Flowd-Store: degraded`, so backing-off clients (`flowc submit`) can
/// report the cause in their annotations.
pub(crate) fn unavailable(shared: &Shared, reason: &str) -> Response {
    let response = error_response(503, "unavailable", reason)
        .with_header("retry-after", "1")
        .with_header("connection", "close");
    match shared.engine.store_mode() {
        floweval::StoreMode::Degraded => response.with_header("x-flowd-store", "degraded"),
        floweval::StoreMode::Ok => response,
    }
}

/// `/stats` payload.
#[derive(Debug, Serialize)]
struct StatsReport {
    uptime_s: f64,
    workers: WorkerStats,
    queue: QueueStats,
    requests: RequestStats,
    eval: EvalStats,
    store_hit_rate: f64,
    store_len: usize,
    store_mode: String,
    store: floweval::StoreSummary,
    cache: floweval::CacheSummary,
    designs: DesignSummary,
}

#[derive(Debug, Serialize)]
struct WorkerStats {
    total: usize,
    busy: usize,
}

#[derive(Debug, Serialize)]
struct QueueStats {
    depth: usize,
    capacity: usize,
}

#[derive(Debug, Serialize)]
struct RequestStats {
    connections_accepted: u64,
    received: u64,
    served: u64,
    rejected_queue_full: u64,
    rejected_wait_timeout: u64,
    client_errors: u64,
    handler_panics: u64,
    deadline_exceeded: u64,
    cancelled: u64,
    watchdog_restarts: u64,
}

/// Routes one parsed request to its handler.
pub(crate) fn handle(
    shared: &Shared,
    request: &Request,
    pctx: &mut PassContext,
    cancel: &CancelToken,
) -> Response {
    match (request.method.as_str(), request.path().as_str()) {
        ("GET", "/healthz") => {
            let draining = shared.draining.load(Ordering::SeqCst);
            let store_mode = shared.engine.store_mode().as_str();
            Response::json(
                200,
                format!(
                    "{{\"status\":\"ok\",\"draining\":{draining},\"store_mode\":\"{store_mode}\"}}"
                ),
            )
        }
        ("GET", "/stats") => stats_response(shared),
        ("POST", "/shutdown") => {
            shared.initiate_drain();
            Response::json(200, "{\"status\":\"draining\"}").with_header("connection", "close")
        }
        ("POST", "/run") => run_response(shared, request, pctx, cancel),
        ("GET" | "POST", _) => error_response(
            404,
            "not-found",
            &format!("no such endpoint: {}", request.path()),
        ),
        (method, _) => error_response(405, "method", &format!("method {method} not supported")),
    }
}

fn stats_response(shared: &Shared) -> Response {
    let eval = shared.engine.stats();
    let report = StatsReport {
        uptime_s: shared.started.elapsed().as_secs_f64(),
        workers: WorkerStats {
            total: shared.config.workers.max(1),
            busy: shared.busy_workers.load(Ordering::Relaxed),
        },
        queue: QueueStats {
            depth: shared.queue_depth(),
            capacity: shared.config.queue_capacity,
        },
        requests: RequestStats {
            connections_accepted: shared.counters.connections_accepted.load(Ordering::Relaxed),
            received: shared.counters.requests_received.load(Ordering::Relaxed),
            served: shared.counters.requests_served.load(Ordering::Relaxed),
            rejected_queue_full: shared.counters.rejected_queue_full.load(Ordering::Relaxed),
            rejected_wait_timeout: shared
                .counters
                .rejected_wait_timeout
                .load(Ordering::Relaxed),
            client_errors: shared.counters.client_errors.load(Ordering::Relaxed),
            handler_panics: shared.counters.handler_panics.load(Ordering::Relaxed),
            deadline_exceeded: shared.counters.deadline_exceeded.load(Ordering::Relaxed),
            cancelled: shared.counters.cancelled.load(Ordering::Relaxed),
            watchdog_restarts: shared.counters.watchdog_restarts.load(Ordering::Relaxed),
        },
        store_hit_rate: eval.store_hit_rate(),
        eval,
        store_len: shared.engine.store_len(),
        store_mode: shared.engine.store_mode().as_str().to_string(),
        store: shared.engine.store_summary(),
        cache: shared.engine.cache_summary(),
        designs: shared.designs.summary(),
    };
    match serde_json::to_string(&report) {
        Ok(json) => Response::json(200, json),
        Err(e) => error_response(500, "internal", &format!("stats serialization: {e}")),
    }
}

/// Query flags accept `1`/`true`.
fn flag(request: &Request, name: &str) -> bool {
    matches!(
        request.query_param(name).as_deref(),
        Some("1") | Some("true")
    )
}

/// The `504` answer for an evaluation stopped by its cancel token.
/// The connection closes: the response raced the evaluation, so any
/// pipelined follow-up belongs on a fresh connection.
fn cancelled_response(shared: &Shared, cancelled: &Cancelled) -> Response {
    if cancelled.reason == CancelReason::Cancelled {
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
    }
    error_response(504, "deadline", &format!("evaluation aborted: {cancelled}"))
        .with_header("connection", "close")
}

/// A `/run` request's query, validated in full before the body is read.
struct RunParams {
    flow: Flow,
    preset: Option<String>,
    random_seed: Option<u64>,
    /// `None`: detect the format from the body.
    format: Option<Format>,
    export: Option<Format>,
    timing: bool,
    verify: bool,
}

impl RunParams {
    /// Reads `flow`/`random`, `format`, `export`, `timing` and `verify`;
    /// the first invalid one answers `400` with its kind.
    fn of(request: &Request) -> Result<RunParams, Response> {
        let flow_param = request.query_param("flow");
        let random_param = request.query_param("random");
        let (flow, preset, random_seed) = match (&flow_param, &random_param) {
            (Some(_), Some(_)) => {
                return Err(error_response(
                    400,
                    "flow",
                    "flow and random are mutually exclusive",
                ))
            }
            (Some(spec), None) => {
                let preset = Flow::named(spec.trim()).map(|_| spec.trim().to_string());
                match Flow::parse(spec) {
                    Ok(flow) => (flow, preset, None),
                    Err(cmd) => {
                        return Err(error_response(
                            400,
                            "flow",
                            &format!("`{cmd}` is neither a preset nor a transform"),
                        ))
                    }
                }
            }
            (None, Some(seed)) => match seed.parse::<u64>() {
                Ok(seed) => {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    (FlowSpace::paper().random_flow(&mut rng), None, Some(seed))
                }
                Err(_) => return Err(error_response(400, "flow", "random needs a numeric seed")),
            },
            (None, None) => {
                return Err(error_response(
                    400,
                    "flow",
                    "one of flow=<spec> or random=<seed> is required",
                ))
            }
        };
        let format = match request.query_param("format").as_deref() {
            None => None,
            Some("aag") => Some(Format::AigerAscii),
            Some("aig") => Some(Format::AigerBinary),
            Some("blif") => Some(Format::Blif),
            Some(other) => {
                return Err(error_response(
                    400,
                    "design",
                    &format!("unknown format `{other}`"),
                ))
            }
        };
        let export = match request.query_param("export").as_deref() {
            None => None,
            Some("aag") => Some(Format::AigerAscii),
            Some("blif") => Some(Format::Blif),
            Some("aig") => {
                return Err(error_response(
                    400,
                    "export",
                    "binary AIGER cannot ride a JSON string; request export=aag",
                ))
            }
            Some(other) => {
                return Err(error_response(
                    400,
                    "export",
                    &format!("unknown format `{other}`"),
                ))
            }
        };
        Ok(RunParams {
            flow,
            preset,
            random_seed,
            format,
            export,
            timing: flag(request, "timing"),
            verify: flag(request, "verify"),
        })
    }
}

fn run_response(
    shared: &Shared,
    request: &Request,
    pctx: &mut PassContext,
    cancel: &CancelToken,
) -> Response {
    let params = match RunParams::of(request) {
        Ok(params) => params,
        Err(response) => return response,
    };
    if request.body.is_empty() {
        return error_response(400, "design", "request body must carry a design netlist");
    }
    let format = match params
        .format
        .map_or_else(|| Format::from_content(&request.body), Ok)
    {
        Ok(format) => format,
        Err(e) => return error_response(400, "design", &e.to_string()),
    };
    let body_key = shared.designs.key(format, &request.body);
    let stats_before = shared.engine.stats();

    // --- A design read before, with its QoR stored: no parse. ---
    // Export and verification need the netlist, so they always parse.
    if params.export.is_none() && !params.verify {
        if let Some(known) = shared.designs.get(&body_key) {
            let stored = shared
                .engine
                .stored_qor(known.fingerprint, params.flow.transforms());
            if let Some(qor) = stored {
                shared.designs.count_hit();
                let timings = PassTimings::default();
                return report_response(
                    shared,
                    &params,
                    known.report,
                    qor,
                    &timings,
                    None,
                    &stats_before,
                );
            }
        }
    }

    // --- Parse the design from the body and remember it. ---
    shared.designs.count_miss();
    let design = match aig::io::parse_design(&request.body, format) {
        Ok(design) => design,
        Err(e) => return error_response(400, "parse", &e.to_string()),
    };
    let fingerprint = floweval::fingerprint_design(&design);
    let design_report = DesignReport::of(
        &design,
        fingerprint,
        &format!("wire:{}", format.extension()),
    );
    shared.designs.remember(
        body_key,
        KnownDesign {
            fingerprint,
            report: design_report.clone(),
        },
    );

    // --- Evaluate through the shared engine with this worker's context. ---
    let flow = params.flow.transforms();
    let _ = pctx.take_timings(); // request-local breakdown starts here
    let qor =
        match shared
            .engine
            .try_evaluate_flow_with_ctx(&design, fingerprint, flow, pctx, cancel)
        {
            Ok(qor) => qor,
            Err(cancelled) => return cancelled_response(shared, &cancelled),
        };

    // Export (and explicit verification) need the optimized netlist itself,
    // which the engine keeps inside its cache; rerun the flow through the
    // recycling context.  Both paths are deterministic and bit-identical.
    let mut export = None;
    if params.export.is_some() || params.verify {
        let optimized = match pctx.run_flow_cancellable(&design, flow, cancel) {
            Ok(optimized) => optimized,
            Err(cancelled) => return cancelled_response(shared, &cancelled),
        };
        if params.verify && !random_equivalence_check(&design, &optimized, 8, VERIFY_SEED) {
            return error_response(
                500,
                "verify",
                "optimized network is not equivalent to the input design",
            );
        }
        if let Some(format) = params.export {
            let rendered = aig::io::render_design(&optimized, format);
            match String::from_utf8(rendered) {
                Ok(netlist) => {
                    export = Some(ExportReport {
                        path: format!("wire:{}", format.extension()),
                        format: format.extension().to_string(),
                        ands: optimized.num_ands(),
                        depth: optimized.depth(),
                        netlist: Some(netlist),
                    })
                }
                Err(_) => return error_response(500, "export", "rendered netlist is not UTF-8"),
            }
        }
        pctx.recycle(optimized);
    }
    let timings = pctx.take_timings();
    shared.engine.absorb_timings(&timings);
    report_response(
        shared,
        &params,
        design_report,
        qor,
        &timings,
        export,
        &stats_before,
    )
}

/// The `200` answer: `flowc run`'s report for one evaluated request.
fn report_response(
    shared: &Shared,
    params: &RunParams,
    design: DesignReport,
    qor: Qor,
    timings: &PassTimings,
    export: Option<ExportReport>,
    stats_before: &EvalStats,
) -> Response {
    let report = RunReport {
        design,
        flow: FlowReport {
            script: params.flow.to_script(),
            preset: params.preset.clone(),
            random_seed: params.random_seed,
            length: params.flow.len(),
        },
        qor,
        eval: shared.engine.stats().since(stats_before),
        timing: params.timing.then(|| TimingReport::of(timings)),
        export,
    };
    match serde_json::to_string(&report) {
        Ok(json) => Response::json(200, json),
        Err(e) => error_response(500, "internal", &format!("report serialization: {e}")),
    }
}
