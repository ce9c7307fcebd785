//! Request routing and the `/run` handler: flowc's report schema over HTTP.

use std::sync::atomic::{AtomicU64, Ordering};

use aig::io::Format;
use flow_core::{CancelReason, CancelToken, Cancelled};
use flowc::object;
use flowc::report::{DesignReport, ExportReport};
use flowc::request::{body_format, AnswerError, RunRequest};
use httpwire::{Request, Response};
use serde::Serialize;
use synth::{PassContext, PassTimings};

use crate::designs::KnownDesign;
use crate::server::{bump, Shared};

/// Builds a JSON error response: the envelope every non-200 answer carries.
pub(crate) fn error_response(status: u16, kind: &str, message: &str) -> Response {
    let envelope = object! { "error" => object! { "kind" => kind, "message" => message } };
    let body = serde_json::to_string(&envelope)
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
    let c = &shared.counters;
    let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    json_response(&object! {
        "uptime_s" => shared.started.elapsed().as_secs_f64(),
        "workers" => object! {
            "total" => shared.config.workers,
            "busy" => shared.busy_workers.load(Ordering::Relaxed),
        },
        "queue" => object! {
            "depth" => shared.queue_depth(),
            "capacity" => shared.config.queue_capacity,
        },
        "requests" => object! {
            "connections_accepted" => count(&c.connections_accepted),
            "received" => count(&c.requests_received),
            "served" => count(&c.requests_served),
            "rejected_queue_full" => count(&c.rejected_queue_full),
            "rejected_wait_timeout" => count(&c.rejected_wait_timeout),
            "client_errors" => count(&c.client_errors),
            "handler_panics" => count(&c.handler_panics),
            "deadline_exceeded" => count(&c.deadline_exceeded),
            "cancelled" => count(&c.cancelled),
            "watchdog_restarts" => count(&c.watchdog_restarts),
        },
        "eval" => eval,
        "store_hit_rate" => eval.store_hit_rate(),
        "store_len" => shared.engine.store_len(),
        "store_mode" => shared.engine.store_mode().as_str(),
        "store" => shared.engine.store_summary(),
        "cache" => shared.engine.cache_summary(),
        "designs" => shared.designs.summary(),
    })
}

/// The `200` answer carrying `value` as JSON.
fn json_response<T: Serialize>(value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(json) => Response::json(200, json),
        Err(e) => error_response(500, "internal", &format!("serialization: {e}")),
    }
}

/// The `504` answer for an evaluation stopped by its cancel token.
/// The connection closes: the response raced the evaluation, so any
/// pipelined follow-up belongs on a fresh connection.
fn cancelled_response(shared: &Shared, cancelled: &Cancelled) -> Response {
    if cancelled.reason == CancelReason::Cancelled {
        bump(&shared.counters.cancelled);
    }
    error_response(504, "deadline", &format!("evaluation aborted: {cancelled}"))
        .with_header("connection", "close")
}

/// `/run`: `flowc run`'s report for the [`RunRequest`] in the query, on the
/// design in the body.  Every query parameter is checked before the body is
/// read.
fn run_response(
    shared: &Shared,
    request: &Request,
    pctx: &mut PassContext,
    cancel: &CancelToken,
) -> Response {
    let format = request.query_param("format").map(|name| body_format(&name));
    let (run, format) = match RunRequest::parse(|name| request.query_param(name))
        .and_then(|run| Ok((run, format.transpose()?)))
    {
        Ok(parsed) => parsed,
        Err(e) => return error_response(400, e.kind, &e.message),
    };
    if request.body.is_empty() {
        return error_response(400, "design", "request body must carry a design netlist");
    }
    let format = match format.map_or_else(|| Format::from_content(&request.body), Ok) {
        Ok(format) => format,
        Err(e) => return error_response(400, "design", &e.to_string()),
    };
    let body_key = shared.designs.key(format, &request.body);
    let stats_before = shared.engine.stats();

    // --- A design read before, with its QoR stored: no parse. ---
    // Export and verification need the netlist, so they always parse.
    if run.export.is_none() && !run.verify {
        if let Some(known) = shared.designs.get(&body_key) {
            let stored = shared
                .engine
                .stored_qor(known.fingerprint, run.flow.transforms());
            if let Some(qor) = stored {
                shared.designs.count_hit();
                let eval = shared.engine.stats().since(&stats_before);
                let timings = PassTimings::default();
                return json_response(&run.report(known.report, qor, eval, &timings));
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
    let design_report = DesignReport::of(&design, fingerprint, &format!("wire:{format}"));
    shared.designs.remember(
        body_key,
        KnownDesign {
            fingerprint,
            report: design_report.clone(),
        },
    );

    // --- Answer through the shared engine with this worker's context. ---
    let answered = run.answer(
        &shared.engine,
        &design,
        fingerprint,
        design_report,
        pctx,
        cancel,
    );
    let (mut report, optimized) = match answered {
        Ok(answered) => answered,
        Err(AnswerError::Cancelled(cancelled)) => return cancelled_response(shared, &cancelled),
        Err(e @ AnswerError::NotEquivalent) => {
            return error_response(500, "verify", &e.to_string())
        }
    };
    report.eval = report.eval.since(&stats_before);
    if let (Some(format), Some(optimized)) = (run.export, optimized) {
        let Ok(netlist) = String::from_utf8(aig::io::render_design(&optimized, format)) else {
            return error_response(500, "export", "rendered netlist is not UTF-8");
        };
        let path = format!("wire:{format}");
        report.export = Some(ExportReport::of(&optimized, path, format, Some(netlist)));
        pctx.recycle(optimized);
    }
    json_response(&report)
}
