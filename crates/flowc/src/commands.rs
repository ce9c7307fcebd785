//! The `flowc` subcommand implementations.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use aig::io::Format;
use aig::Aig;
use circuits::{Design, DesignScale};
use flow_core::CancelToken;
use floweval::{EngineConfig, EvalEngine};
use flowgen::{Flow, FlowSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use synth::{apply_sequence, PassContext};

use crate::args::Args;
use crate::design::{parse_scale, resolve_design, resolve_designs};
use crate::report::{
    CorpusEntry, CorpusManifest, DesignReport, ExportReport, FlowReport, RunReport, TimingReport,
};
use crate::studies::object;

/// `flowc run`: import or generate a design, evaluate one flow through the
/// cache-aware engine, print the QoR report as JSON and optionally export the
/// optimized netlist.
pub fn run(mut args: Args) -> Result<(), String> {
    let design_spec = args.require_value("design")?;
    let flow_arg = args.take_value("flow")?;
    let random_seed = args
        .take_value("random")?
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("--random needs a numeric seed, got `{s}`"))
        })
        .transpose()?;
    let out = args.take_value("out")?;
    let json_path = args.take_value("json")?;
    let store = args.take_value("store")?;
    let verify = args.take_flag("verify");
    let timing = args.take_flag("timing");
    args.finish()?;

    let (flow, preset) = match (flow_arg, random_seed) {
        (Some(_), Some(_)) => return Err("--flow and --random are mutually exclusive".to_string()),
        (Some(spec), None) => {
            let preset = Flow::named(spec.trim()).map(|_| spec.trim().to_string());
            let flow = Flow::parse(&spec)
                .map_err(|cmd| format!("`{cmd}` is neither a preset nor a transform"))?;
            (flow, preset)
        }
        (None, Some(seed)) => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (FlowSpace::paper().random_flow(&mut rng), None)
        }
        (None, None) => {
            return Err("one of --flow <preset|script> or --random <seed> is required".to_string())
        }
    };

    let resolved = resolve_design(&design_spec)?;
    let engine = EvalEngine::new(EngineConfig {
        store_path: store.map(PathBuf::from),
        verify,
        ..EngineConfig::default()
    });
    let fingerprint = floweval::fingerprint_design(&resolved.aig);
    let mut pctx = PassContext::default();
    let qor = engine
        .try_evaluate_flow_with_ctx(
            &resolved.aig,
            fingerprint,
            flow.transforms(),
            &mut pctx,
            &CancelToken::never(),
        )
        .expect("a never-firing token cannot cancel");
    engine.absorb_timings(&pctx.take_timings());

    let export = match out {
        Some(path) => Some(export_netlist(&resolved.aig, flow.transforms(), &path)?),
        None => None,
    };

    let report = RunReport {
        design: DesignReport::of(&resolved.aig, fingerprint, &resolved.source),
        flow: FlowReport {
            script: flow.to_script(),
            preset,
            random_seed,
            length: flow.len(),
        },
        qor,
        eval: engine.stats(),
        timing: timing.then(|| TimingReport::of(&engine.pass_timings())),
        export,
    };
    emit_json(&report, json_path.as_deref())
}

/// `flowc search`: label a flow space over one or more designs under
/// optional budgets ([`EvalEngine::search`]), printing a JSON report with
/// throughput (`evals_per_hour`) and the evaluation counters.  Labels are
/// optionally dumped as JSON lines.
pub fn search(mut args: Args) -> Result<(), String> {
    let designs_spec = args.require_value("designs")?;
    let random_seed = args.take_value("random")?;
    let count = args.take_value("count")?;
    let flows_file = args.take_value("flows")?;
    let prefix = args.take_value("prefix")?;
    let depth = args.take_value("depth")?;
    let workers = parse_num::<usize>(args.take_value("workers")?, "workers")?.unwrap_or(4);
    let max_wall_s = parse_num::<f64>(args.take_value("max-wall-s")?, "max-wall-s")?;
    let max_evals = parse_num::<usize>(args.take_value("max-evals")?, "max-evals")?;
    let store = args.take_value("store")?;
    let labels_path = args.take_value("labels")?;
    let json_path = args.take_value("json")?;
    let verify = args.take_flag("verify");
    args.finish()?;

    if depth.is_some() && prefix.is_none() {
        return Err("usage: --depth only applies to --prefix".to_string());
    }
    let (source, source_desc) =
        match (&random_seed, &flows_file, &prefix) {
            (Some(seed), None, None) => {
                let seed = seed
                    .parse::<u64>()
                    .map_err(|_| format!("--random needs a numeric seed, got `{seed}`"))?;
                let count = parse_num::<usize>(count, "count")?.unwrap_or(16);
                (
                    floweval::FlowSource::Random { seed, count },
                    format!("random:seed={seed}:count={count}"),
                )
            }
            (None, Some(file), None) => {
                if count.is_some() {
                    return Err("usage: --count only applies to --random".to_string());
                }
                let text = std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read flow list `{file}`: {e}"))?;
                let mut flows = Vec::new();
                for line in text.lines() {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    let flow = Flow::parse(line)
                        .map_err(|cmd| format!("`{file}`: `{cmd}` is not a transform"))?;
                    flows.push(flow.transforms().to_vec());
                }
                if flows.is_empty() {
                    return Err(format!("flow list `{file}` holds no flows"));
                }
                let desc = format!("file:{file}:{}", flows.len());
                (floweval::FlowSource::Explicit(flows), desc)
            }
            (None, None, Some(script)) => {
                if count.is_some() {
                    return Err("usage: --count only applies to --random".to_string());
                }
                let depth = parse_num::<usize>(depth, "depth")?.unwrap_or(1);
                if depth > 8 {
                    return Err(format!("--depth {depth} expands 6^{depth} flows; max 8"));
                }
                let flow = Flow::parse(script)
                    .map_err(|cmd| format!("`{cmd}` is neither a preset nor a transform"))?;
                let desc = format!("prefix:{}:depth={depth}", flow.to_script());
                (
                    floweval::FlowSource::PrefixExpansion {
                        prefix: flow.transforms().to_vec(),
                        depth,
                    },
                    desc,
                )
            }
            _ => return Err(
                "exactly one of --random <seed>, --flows <file> or --prefix <script> is required"
                    .to_string(),
            ),
        };

    let (designs, sources): (Vec<Aig>, Vec<String>) = resolve_designs(&designs_spec)?
        .into_iter()
        .map(|d| (d.aig, d.source))
        .unzip();

    let engine = EvalEngine::new(EngineConfig {
        store_path: store.map(PathBuf::from),
        verify,
        ..EngineConfig::default()
    });
    let flows = source.resolve();
    let config = floweval::SearchConfig {
        workers,
        max_wall_s,
        max_evals,
    };
    let outcome = engine.search_flows(&designs, &flows, &config);
    let design_reports: Vec<DesignReport> = designs
        .iter()
        .zip(&outcome.fingerprints)
        .zip(&sources)
        .map(|((aig, &fingerprint), source)| DesignReport::of(aig, fingerprint, source))
        .collect();

    if let Some(path) = labels_path {
        #[derive(serde::Serialize)]
        struct LabelLine {
            design: String,
            flow: String,
            qor: synth::Qor,
            from_store: bool,
        }
        let mut lines = String::new();
        for label in &outcome.labels {
            let line = serde_json::to_string(&LabelLine {
                design: design_reports[label.design].name.clone(),
                flow: floweval::flow_script(&flows[label.flow]),
                qor: label.qor,
                from_store: label.from_store,
            })
            .map_err(|e| format!("label serialization: {e}"))?;
            lines.push_str(&line);
            lines.push('\n');
        }
        std::fs::write(&path, lines).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }

    #[derive(serde::Serialize)]
    struct SearchRunReport {
        designs: Vec<DesignReport>,
        source: String,
        search: floweval::SearchReport,
        eval: floweval::EvalStats,
    }
    let report = SearchRunReport {
        designs: design_reports,
        source: source_desc,
        search: outcome.report,
        eval: engine.stats(),
    };
    emit_json(&report, json_path.as_deref())
}

/// `flowc reproduce`: run the paper's studies (the `studies` module) on one
/// evaluation engine and print them as one JSON document.  `--designs`
/// replaces the three generated paper designs of the studies that run over
/// a design list (Figures 4, 5 and 8).
pub fn reproduce(mut args: Args) -> Result<(), String> {
    let scale_name = args.take_value("scale")?.unwrap_or_else(|| "tiny".into());
    let designs_spec = args.take_value("designs")?;
    let store = args.take_value("store")?;
    let json_path = args.take_value("json")?;
    args.finish()?;

    let scale = parse_scale(&scale_name).map_err(|e| format!("usage: {e}"))?;
    let designs: Vec<(String, Aig)> = match designs_spec {
        Some(list) => resolve_designs(&list)?
            .into_iter()
            .map(|d| (d.source, d.aig))
            .collect(),
        None => Design::ALL
            .into_iter()
            .map(|d| (d.name().to_string(), d.generate(scale)))
            .collect(),
    };
    let engine = Arc::new(EvalEngine::new(EngineConfig {
        store_path: store.map(PathBuf::from),
        ..EngineConfig::default()
    }));
    let report = object! {
        "scale" => scale_name,
        "studies" => crate::studies::run(Arc::clone(&engine), scale, &designs),
        "eval" => engine.stats(),
    };
    emit_json(&report, json_path.as_deref())
}

/// Parses an optional numeric option value.
fn parse_num<T: std::str::FromStr>(value: Option<String>, name: &str) -> Result<Option<T>, String> {
    value
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("--{name} needs a number, got `{v}`"))
        })
        .transpose()
}

/// Applies the flow and writes the optimized netlist.
///
/// The passes run again here rather than reusing the engine's evaluation: the
/// engine returns QoR only (its intermediate AIGs stay inside its state
/// graph).  `apply_sequence` is the same `PassContext` pipeline the engine
/// runs, so the exported netlist is the one the QoR was measured on; when the
/// flow was answered from the persistent store the engine applied no passes
/// at all, so the flow runs at most once plus this export.
fn export_netlist(
    design: &Aig,
    flow: &[synth::Transform],
    path: &str,
) -> Result<ExportReport, String> {
    let optimized = apply_sequence(design, flow);
    let format = Format::from_path(Path::new(path)).map_err(|e| e.to_string())?;
    aig::io::write_design(path, &optimized).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    Ok(ExportReport {
        path: path.to_string(),
        format: format.extension().to_string(),
        ands: optimized.num_ands(),
        depth: optimized.depth(),
        netlist: None,
    })
}

/// `flowc submit`: run one flow on a remote `flowd` daemon.
///
/// The design is resolved locally (same `--design` specs as `run`), shipped
/// as ASCII AIGER in the request body, and the daemon's [`RunReport`] JSON is
/// printed exactly as a local `run` would print it — the `qor` section is
/// bit-identical between the two paths.  `503` backpressure and connect
/// failures are retried with capped exponential backoff (`--retries`);
/// `--deadline-ms` forwards a per-request evaluation deadline (the daemon
/// answers `504` past it, which is **not** retried — the request itself was
/// too slow).
pub fn submit(mut args: Args) -> Result<(), String> {
    let addr = args.require_value("addr")?;
    let design_spec = args.require_value("design")?;
    let flow_arg = args.take_value("flow")?;
    let random_seed = args.take_value("random")?;
    let out = args.take_value("out")?;
    let json_path = args.take_value("json")?;
    let retries = match args.take_value("retries")? {
        Some(v) => v
            .parse::<u32>()
            .map_err(|_| format!("--retries needs a number, got `{v}`"))?,
        None => 3,
    };
    let deadline_ms = args
        .take_value("deadline-ms")?
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("--deadline-ms needs a number, got `{v}`"))
        })
        .transpose()?;
    let verify = args.take_flag("verify");
    let timing = args.take_flag("timing");
    args.finish()?;

    let mut query: Vec<String> = Vec::new();
    match (&flow_arg, &random_seed) {
        (Some(_), Some(_)) => return Err("--flow and --random are mutually exclusive".to_string()),
        (Some(spec), None) => query.push(format!("flow={}", httpwire::percent_encode(spec))),
        (None, Some(seed)) => {
            seed.parse::<u64>()
                .map_err(|_| format!("--random needs a numeric seed, got `{seed}`"))?;
            query.push(format!("random={seed}"));
        }
        (None, None) => {
            return Err("one of --flow <preset|script> or --random <seed> is required".to_string())
        }
    }
    if verify {
        query.push("verify=1".to_string());
    }
    if timing {
        query.push("timing=1".to_string());
    }
    if let Some(ms) = deadline_ms {
        query.push(format!("deadline_ms={ms}"));
    }
    // Binary AIGER cannot ride a JSON string: ask for ASCII and re-encode
    // locally when the output path wants `.aig`.
    let out_format = match &out {
        Some(path) => {
            let f = Format::from_path(Path::new(path)).map_err(|e| e.to_string())?;
            query.push(format!(
                "export={}",
                match f {
                    Format::AigerBinary => "aag",
                    other => other.extension(),
                }
            ));
            Some(f)
        }
        None => None,
    };

    let resolved = resolve_design(&design_spec)?;
    let body = aig::io::render_design(&resolved.aig, Format::AigerAscii);
    let request = httpwire::Request::new("POST", &format!("/run?{}", query.join("&")))
        .with_header("content-type", "text/x-aiger")
        .with_body(body);

    let (response, attempts, saw_degraded) = send_with_retry(&addr, &request, retries)?;
    let text = String::from_utf8_lossy(&response.body).into_owned();
    if response.status != 200 {
        return Err(format!(
            "flowd at {addr} answered {} {}: {}",
            response.status,
            response.reason,
            text.trim()
        ));
    }

    let report: RunReport =
        serde_json::from_str(&text).map_err(|e| format!("malformed report JSON: {e}"))?;
    let text = annotate_eval(&text, attempts, retries, deadline_ms, saw_degraded)?;
    if let Some(path) = &out {
        let netlist = report
            .export
            .as_ref()
            .and_then(|e| e.netlist.as_deref())
            .ok_or("daemon response carries no netlist")?;
        match out_format {
            Some(Format::AigerBinary) => {
                let aig = aig::io::parse_design(netlist.as_bytes(), Format::AigerAscii)
                    .map_err(|e| format!("daemon netlist does not parse: {e}"))?;
                aig::io::write_design(path, &aig)
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            }
            _ => {
                std::fs::write(path, netlist).map_err(|e| format!("cannot write `{path}`: {e}"))?
            }
        }
    }
    println!("{text}");
    if let Some(path) = json_path {
        std::fs::write(&path, text + "\n").map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(())
}

/// A single-attempt failure, split by whether a retry can help.
#[derive(Debug)]
enum SendError {
    /// The daemon was unreachable; nothing was dispatched.
    Connect(std::io::Error),
    /// The wire broke mid-exchange; the request may have been dispatched.
    Wire(String),
}

/// One connect + request/response exchange against the daemon.
fn send_once(addr: &str, request: &httpwire::Request) -> Result<httpwire::Response, SendError> {
    let stream = std::net::TcpStream::connect(addr).map_err(SendError::Connect)?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| SendError::Wire(format!("socket error: {e}")))?;
    let mut reader = std::io::BufReader::new(stream);
    httpwire::write_request(&mut writer, request)
        .map_err(|e| SendError::Wire(format!("send failed: {e}")))?;
    httpwire::read_response(&mut reader, &httpwire::Limits::default())
        .map_err(|e| SendError::Wire(e.to_string()))
}

/// Sends the request, retrying `503` backpressure and connect failures up to
/// `retries` extra attempts with capped exponential backoff.  Returns the
/// final response (possibly still a `503`), the attempt count, and whether
/// any `503` along the way carried `X-Flowd-Store: degraded` — the daemon's
/// signal that backpressure came from a degraded store rather than load.
fn send_with_retry(
    addr: &str,
    request: &httpwire::Request,
    retries: u32,
) -> Result<(httpwire::Response, u32, bool), String> {
    let mut attempt = 0u32;
    let mut saw_degraded = false;
    loop {
        attempt += 1;
        let outcome = send_once(addr, request);
        let (retry_after_s, reason) = match &outcome {
            Ok(response) if response.status == 503 => {
                let after = response
                    .headers
                    .get("retry-after")
                    .and_then(|v| v.parse::<u64>().ok());
                let degraded = response
                    .headers
                    .get("x-flowd-store")
                    .is_some_and(|v| v == "degraded");
                saw_degraded |= degraded;
                let cause = if degraded {
                    "store degraded"
                } else {
                    "overloaded"
                };
                (after, format!("flowd at {addr} answered 503 ({cause})"))
            }
            Ok(_) => return Ok((outcome.expect("checked Ok"), attempt, saw_degraded)),
            Err(SendError::Connect(e)) => (None, format!("cannot connect to flowd at {addr}: {e}")),
            Err(SendError::Wire(e)) => return Err(format!("flowd at {addr}: {e}")),
        };
        if attempt > retries {
            return match outcome {
                Ok(response) => Ok((response, attempt, saw_degraded)), // surface the final 503
                Err(SendError::Connect(e)) => {
                    Err(format!("cannot connect to flowd at {addr}: {e}"))
                }
                Err(SendError::Wire(e)) => Err(format!("flowd at {addr}: {e}")),
            };
        }
        let delay = backoff_delay(addr, attempt, retry_after_s);
        eprintln!(
            "flowc: {reason}; retrying in {} ms ({attempt}/{retries})",
            delay.as_millis()
        );
        std::thread::sleep(delay);
    }
}

/// Exponential backoff: base 100 ms doubled per attempt, capped at 2 s, with
/// deterministic ±50% jitter derived from `(addr, attempt)` — reruns sleep
/// identically while concurrent clients hitting different daemons spread.
/// A server `Retry-After` (seconds) raises the floor.
fn backoff_delay(addr: &str, attempt: u32, retry_after_s: Option<u64>) -> std::time::Duration {
    let exp = 100u64
        .saturating_mul(1u64 << (attempt - 1).min(10))
        .min(2_000);
    let mut h = flow_core::Fnv64::new();
    h.write_str(addr);
    h.write_u64(u64::from(attempt));
    let jittered = exp * (50 + h.finish() % 101) / 100;
    std::time::Duration::from_millis(jittered.max(retry_after_s.unwrap_or(0) * 1_000))
}

/// Adds the client-side submission story (`submit_attempts`, `submit_retries`,
/// and, when set, `submit_deadline_ms` and `submit_store_mode`) to the
/// report's `eval` object.  `submit_store_mode: "degraded"` records that at
/// least one backpressure answer named the daemon's degraded store as the
/// cause.  The extra keys are ignored by every [`RunReport`] consumer.
fn annotate_eval(
    text: &str,
    attempts: u32,
    retries: u32,
    deadline_ms: Option<u64>,
    saw_degraded: bool,
) -> Result<String, String> {
    let mut value =
        serde_json::parse_value(text).map_err(|e| format!("malformed report JSON: {e}"))?;
    let serde::Value::Object(fields) = &mut value else {
        return Err("report JSON is not an object".to_string());
    };
    let Some((_, serde::Value::Object(eval))) = fields.iter_mut().find(|(k, _)| k == "eval") else {
        return Err("report JSON carries no eval object".to_string());
    };
    eval.push((
        "submit_attempts".to_string(),
        serde::Value::U64(u64::from(attempts)),
    ));
    eval.push((
        "submit_retries".to_string(),
        serde::Value::U64(u64::from(retries)),
    ));
    if let Some(ms) = deadline_ms {
        eval.push(("submit_deadline_ms".to_string(), serde::Value::U64(ms)));
    }
    if saw_degraded {
        eval.push((
            "submit_store_mode".to_string(),
            serde::Value::Str("degraded".to_string()),
        ));
    }
    serde_json::to_string(&value).map_err(|e| format!("report serialization: {e}"))
}

/// `flowc store`: maintenance of a persistent QoR store.
///
/// A store is addressed by the base path of its segmented layout
/// (`<base>.manifest` + segments); a legacy plain-JSONL file at the base path
/// is upgraded to that layout when opened.
pub fn store(mut args: Args) -> Result<(), String> {
    const USAGE: &str = "usage: flowc store <compact|stats|fsck> <path>";
    let action = args.take_positional().ok_or(USAGE)?;
    let path = args.take_positional().ok_or(USAGE)?;
    let json_path = args.take_value("json")?;
    let repair = args.take_flag("repair");
    args.finish()?;
    if repair && action != "fsck" {
        return Err("--repair only applies to `flowc store fsck`".to_string());
    }
    if !store_exists(&path) {
        return Err(format!("no store at `{path}` (no file and no manifest)"));
    }
    let mut store =
        floweval::QorStore::open(&path).map_err(|e| format!("cannot open `{path}`: {e}"))?;
    match action.as_str() {
        "compact" => {
            let report = store.compact().map_err(|e| format!("compaction: {e}"))?;
            emit_json(&report, json_path.as_deref())
        }
        "stats" => {
            #[derive(serde::Serialize)]
            struct StoreStats {
                records: usize,
                duplicate_records: usize,
                torn_tail: usize,
                corrupt_records: usize,
                malformed_lines: usize,
                segments: usize,
                bytes: u64,
            }
            let stats = StoreStats {
                records: store.len(),
                duplicate_records: store.duplicate_records(),
                torn_tail: store.torn_tail_records(),
                corrupt_records: store.corrupt_records(),
                malformed_lines: store.skipped_records(),
                segments: store.segment_count(),
                bytes: store.disk_bytes(),
            };
            emit_json(&stats, json_path.as_deref())
        }
        "fsck" => {
            // Opening IS the scrub (and the upgrade of a legacy store):
            // checksums verified, torn tails and corrupt lines quarantined
            // and healed.  `--repair` additionally
            // compacts, which drops superseded duplicates.
            let repaired = if repair {
                Some(store.compact().map_err(|e| format!("repair: {e}"))?)
            } else {
                None
            };
            #[derive(serde::Serialize)]
            struct FsckReport {
                clean: bool,
                records: usize,
                torn_tail: usize,
                corrupt_records: usize,
                quarantined: usize,
                duplicate_records: usize,
                segments: usize,
                bytes: u64,
                repaired: Option<floweval::CompactionReport>,
            }
            let report = FsckReport {
                clean: store.skipped_records() == 0,
                records: store.len(),
                torn_tail: store.torn_tail_records(),
                corrupt_records: store.corrupt_records(),
                quarantined: store.quarantined_records(),
                duplicate_records: store.duplicate_records(),
                segments: store.segment_count(),
                bytes: store.disk_bytes(),
                repaired,
            };
            let clean = report.clean;
            emit_json(&report, json_path.as_deref())?;
            if clean {
                Ok(())
            } else {
                Err(format!(
                    "store `{path}` had damage: {} torn tail, {} corrupt \
                     (quarantined to `{path}.quarantine` and healed)",
                    report.torn_tail, report.corrupt_records
                ))
            }
        }
        other => Err(format!(
            "unknown store action `{other}` (compact, stats or fsck)"
        )),
    }
}

/// A store exists when its manifest does, or a legacy base file to upgrade.
fn store_exists(path: &str) -> bool {
    Path::new(path).exists() || Path::new(&format!("{path}.manifest")).exists()
}

/// `flowc convert`: read a design in one format, write it in another.
pub fn convert(mut args: Args) -> Result<(), String> {
    let input = args
        .take_positional()
        .ok_or("usage: flowc convert <input> <output>")?;
    let output = args
        .take_positional()
        .ok_or("usage: flowc convert <input> <output>")?;
    let clean = args.take_flag("cleanup");
    args.finish()?;
    let resolved = resolve_design(&input)?;
    let aig = if clean {
        resolved.aig.cleanup()
    } else {
        resolved.aig
    };
    aig::io::write_design(&output, &aig).map_err(|e| format!("cannot write `{output}`: {e}"))?;
    eprintln!(
        "{}: {} inputs, {} outputs, {} ANDs -> {output}",
        aig.name(),
        aig.num_inputs(),
        aig.num_outputs(),
        aig.num_ands()
    );
    Ok(())
}

/// `flowc stats`: print the design section as JSON.
pub fn stats(mut args: Args) -> Result<(), String> {
    let spec = args
        .take_positional()
        .ok_or("usage: flowc stats <design>")?;
    let json_path = args.take_value("json")?;
    args.finish()?;
    let resolved = resolve_design(&spec)?;
    let fingerprint = floweval::fingerprint_design(&resolved.aig);
    let report = DesignReport::of(&resolved.aig, fingerprint, &resolved.source);
    emit_json(&report, json_path.as_deref())
}

/// `flowc presets`: list the named flows.
pub fn presets(args: Args) -> Result<(), String> {
    args.finish()?;
    for (name, transforms) in Flow::presets() {
        println!("{name:12} {}", Flow::new(transforms.to_vec()).to_script());
    }
    Ok(())
}

/// `flowc export-corpus`: write the paper's generated designs as on-disk
/// fixtures, deterministically (same bytes for the same version of the
/// generators), together with a manifest.
pub fn export_corpus(mut args: Args) -> Result<(), String> {
    let dir = PathBuf::from(args.require_value("dir")?);
    let scale_name = args.take_value("scale")?.unwrap_or_else(|| "tiny".into());
    let scale = parse_scale(&scale_name)?;
    let format = match args
        .take_value("format")?
        .unwrap_or_else(|| "aag".into())
        .as_str()
    {
        "aag" => Format::AigerAscii,
        "aig" => Format::AigerBinary,
        "blif" => Format::Blif,
        other => return Err(format!("unknown format `{other}` (aag, aig or blif)")),
    };
    args.finish()?;

    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut entries = Vec::new();
    for design in Design::ALL {
        let aig = generate_named(design, scale, &scale_name);
        let file = format!("{}.{}", design.name(), format.extension());
        let path = dir.join(&file);
        std::fs::write(&path, aig::io::render_design(&aig, format))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        entries.push(CorpusEntry {
            file,
            design: design.name().to_string(),
            scale: scale_name.clone(),
            format: format.extension().to_string(),
            inputs: aig.num_inputs(),
            outputs: aig.num_outputs(),
            ands: aig.num_ands(),
            depth: aig.depth(),
            fingerprint: floweval::fingerprint_design(&aig).to_string(),
        });
    }
    let manifest = CorpusManifest {
        generator: "flowc export-corpus".to_string(),
        scale: scale_name,
        format: format.extension().to_string(),
        entries,
    };
    let manifest_json =
        serde_json::to_string(&manifest).map_err(|e| format!("manifest serialization: {e}"))?;
    let manifest_path = dir.join("MANIFEST.json");
    std::fs::write(&manifest_path, manifest_json + "\n")
        .map_err(|e| format!("cannot write {}: {e}", manifest_path.display()))?;
    eprintln!(
        "exported {} designs to {} ({} scale, .{})",
        Design::ALL.len(),
        dir.display(),
        manifest.scale,
        manifest.format
    );
    Ok(())
}

/// Generates a paper design with a scale-qualified name, so fixtures at
/// different scales have distinct design names (`alu64_tiny`, …).
fn generate_named(design: Design, scale: DesignScale, scale_name: &str) -> Aig {
    let mut aig = design.generate(scale);
    aig.set_name(format!("{}_{}", design.name(), scale_name));
    aig
}

/// Prints a report to stdout and optionally writes it to a file.
fn emit_json<T: serde::Serialize>(report: &T, path: Option<&str>) -> Result<(), String> {
    let json = serde_json::to_string(report).map_err(|e| format!("serialization: {e}"))?;
    println!("{json}");
    if let Some(path) = path {
        std::fs::write(path, json + "\n").map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(())
}
