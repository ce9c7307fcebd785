//! The `flowc` subcommand implementations.

use std::path::PathBuf;
use std::sync::Arc;

use aig::io::Format;
use aig::Aig;
use circuits::{Design, DesignScale};
use flow_core::CancelToken;
use floweval::{EngineConfig, EvalEngine};
use flowgen::{Flow, FlowSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use synth::{PassContext, Transform};

use crate::args::{Args, CliError};
use crate::client::{self, Delivery};
use crate::design::{parse_scale, resolve_design, resolve_designs};
use crate::object;
use crate::report::{DesignReport, ExportReport, RunReport};
use crate::request::CliRequest;

/// `flowc run`: import or generate a design, answer one
/// [`RunRequest`](crate::request::RunRequest) through the cache-aware engine,
/// print the QoR report as JSON and optionally export the optimized netlist.
pub fn run(mut args: Args) -> Result<(), CliError> {
    let design_spec = args.require_value("design")?;
    let cli = CliRequest::take(&mut args)?;
    let json_path = args.take_value("json")?;
    let store = args.take_value("store")?;
    args.finish()?;
    let request = cli.parse()?;

    let resolved = resolve_design(&design_spec)?;
    let engine = engine_at(store, false)?;
    let fingerprint = floweval::fingerprint_design(&resolved.aig);
    let (mut report, optimized) = request
        .answer(
            &engine,
            &resolved.aig,
            fingerprint,
            DesignReport::of(&resolved.aig, fingerprint, &resolved.source),
            &mut PassContext::default(),
            &CancelToken::never(),
        )
        .map_err(|e| e.to_string())?;
    if let (Some((path, format)), Some(optimized)) = (cli.out, optimized) {
        std::fs::write(&path, aig::io::render_design(&optimized, format))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        report.export = Some(ExportReport::of(&optimized, path, format, None));
    }
    emit_json(&report, json_path.as_deref())
}

/// `flowc search`: label a flow space over one or more designs under
/// optional budgets ([`EvalEngine::search_flows`]), printing a JSON report
/// with throughput (`evals_per_hour`) and the evaluation counters.  Labels
/// are optionally dumped as JSON lines.
pub fn search(mut args: Args) -> Result<(), CliError> {
    let designs_spec = args.require_value("designs")?;
    let random_seed = args.take_parsed::<u64>("random")?;
    let count = args.take_parsed::<usize>("count")?;
    let flows_file = args.take_value("flows")?;
    let prefix = args.take_value("prefix")?;
    let depth = args.take_parsed::<usize>("depth")?;
    let workers = args.take_parsed::<usize>("workers")?.unwrap_or(4);
    let max_wall_s = args.take_parsed::<f64>("max-wall-s")?;
    let max_evals = args.take_parsed::<usize>("max-evals")?;
    let store = args.take_value("store")?;
    let labels_path = args.take_value("labels")?;
    let json_path = args.take_value("json")?;
    let verify = args.take_flag("verify");
    args.finish()?;

    if depth.is_some() && prefix.is_none() {
        return Err(CliError::usage("--depth only applies to --prefix"));
    }
    if count.is_some() && random_seed.is_none() {
        return Err(CliError::usage("--count only applies to --random"));
    }
    let (flows, source_desc) =
        match (random_seed, &flows_file, &prefix) {
            (Some(seed), None, None) => {
                let count = count.unwrap_or(16);
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                (
                    FlowSpace::paper().random_unique_flows(count, &mut rng),
                    format!("random:seed={seed}:count={count}"),
                )
            }
            (None, Some(file), None) => {
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
                    flows.push(flow);
                }
                if flows.is_empty() {
                    return Err(format!("flow list `{file}` holds no flows").into());
                }
                let desc = format!("file:{file}:{}", flows.len());
                (flows, desc)
            }
            (None, None, Some(script)) => {
                let depth = depth.unwrap_or(1);
                if depth > 8 {
                    return Err(CliError::usage(format!(
                        "--depth {depth} expands 6^{depth} flows; max 8"
                    )));
                }
                let prefix = Flow::parse(script).map_err(|cmd| {
                    CliError::usage(format!("`{cmd}` is neither a preset nor a transform"))
                })?;
                let desc = format!("prefix:{}:depth={depth}", prefix.to_script());
                (expand_prefix(&prefix, depth), desc)
            }
            _ => return Err(CliError::usage(
                "exactly one of --random <seed>, --flows <file> or --prefix <script> is required",
            )),
        };

    let (designs, sources): (Vec<Aig>, Vec<String>) = resolve_designs(&designs_spec)?
        .into_iter()
        .map(|d| (d.aig, d.source))
        .unzip();

    let engine = engine_at(store, verify)?;
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
        let mut lines = String::new();
        for label in &outcome.labels {
            let line = serde_json::to_string(&object! {
                "design" => design_reports[label.design].name,
                "flow" => flows[label.flow].to_script(),
                "qor" => label.qor,
                "from_store" => label.from_store,
            })
            .map_err(|e| format!("label serialization: {e}"))?;
            lines.push_str(&line);
            lines.push('\n');
        }
        std::fs::write(&path, lines).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }

    let report = object! {
        "designs" => design_reports,
        "source" => source_desc,
        "search" => outcome.report,
        "eval" => engine.stats(),
    };
    emit_json(&report, json_path.as_deref())
}

/// Every extension of `prefix` by one of the `6^depth` transform suffixes,
/// in [`Transform::ALL`] order: the exhaustive expansion of one sub-trie.
fn expand_prefix(prefix: &Flow, depth: usize) -> Vec<Flow> {
    let mut flows = vec![prefix.clone()];
    for _ in 0..depth {
        flows = flows
            .iter()
            .flat_map(|flow| {
                Transform::ALL.map(|t| flow.transforms().iter().copied().chain([t]).collect())
            })
            .collect();
    }
    flows
}

/// `flowc reproduce`: run the paper's studies (the `studies` module) on one
/// evaluation engine and print them as one JSON document.  `--designs`
/// replaces the three generated paper designs of the studies that run over
/// a design list (Figures 4, 5 and 8).
pub fn reproduce(mut args: Args) -> Result<(), CliError> {
    let scale_name = args.take_value("scale")?.unwrap_or_else(|| "tiny".into());
    let designs_spec = args.take_value("designs")?;
    let store = args.take_value("store")?;
    let json_path = args.take_value("json")?;
    args.finish()?;

    let scale = parse_scale(&scale_name).map_err(CliError::Usage)?;
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
    let engine = Arc::new(engine_at(store, false)?);
    let report = object! {
        "scale" => scale_name,
        "studies" => crate::studies::run(Arc::clone(&engine), scale, &designs),
        "eval" => engine.stats(),
    };
    emit_json(&report, json_path.as_deref())
}

/// `flowc submit`: run one flow on a remote `flowd` daemon.
///
/// The options are parsed into the same
/// [`RunRequest`](crate::request::RunRequest) `run` answers and sent as its
/// query; the design is resolved locally (same `--design` specs as `run`) and
/// shipped as ASCII AIGER in the request body.  The daemon's [`RunReport`]
/// JSON is printed as a local `run` prints it: the `qor` section and an
/// exported netlist are bit-identical between the two.  The exchange is
/// [`client::send_with_retry`]: `503` backpressure and connect failures are
/// retried with capped exponential backoff (`--retries`).  `--deadline-ms`
/// forwards a per-request evaluation deadline (the daemon answers `504` past
/// it, which is **not** retried — the request itself was too slow) and
/// extends the client's wait for the answer past it.
pub fn submit(mut args: Args) -> Result<(), CliError> {
    let addr = args.require_value("addr")?;
    let design_spec = args.require_value("design")?;
    let cli = CliRequest::take(&mut args)?;
    let json_path = args.take_value("json")?;
    let retries = args.take_parsed::<u32>("retries")?.unwrap_or(3);
    let deadline_ms = args.take_parsed::<u64>("deadline-ms")?;
    args.finish()?;
    let request = cli.parse().map_err(|e| {
        CliError::usage(format!(
            "{} (not sent: flowd answers it 400 `{}`)",
            e.message, e.kind
        ))
    })?;
    let mut query = request.to_query();
    if let Some(ms) = deadline_ms {
        query.push_str(&format!("&deadline_ms={ms}"));
    }

    let request = client::run_request(&resolve_design(&design_spec)?.aig, &query);

    let delivery = client::send_with_retry(&addr, &request, retries)?;
    let response = &delivery.response;
    let text = String::from_utf8_lossy(&response.body).into_owned();
    if response.status != 200 {
        return Err(format!(
            "flowd at {addr} answered {} {}: {}",
            response.status,
            response.reason,
            text.trim()
        )
        .into());
    }

    let report: RunReport =
        serde_json::from_str(&text).map_err(|e| format!("malformed report JSON: {e}"))?;
    let text = annotate_eval(&text, &delivery, retries, deadline_ms)?;
    if let Some((path, format)) = &cli.out {
        let netlist = report
            .export
            .as_ref()
            .and_then(|e| e.netlist.as_deref())
            .ok_or_else(|| "daemon response carries no netlist".to_string())?;
        // Binary AIGER cannot ride a JSON string: the daemon sent ASCII.
        let bytes = match *format {
            Format::AigerBinary => {
                let aig = aig::io::parse_design(netlist.as_bytes(), Format::AigerAscii)
                    .map_err(|e| format!("daemon netlist does not parse: {e}"))?;
                aig::io::render_design(&aig, Format::AigerBinary)
            }
            _ => netlist.as_bytes().to_vec(),
        };
        std::fs::write(path, bytes).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    println!("{text}");
    if let Some(path) = json_path {
        std::fs::write(&path, text + "\n").map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(())
}

/// Adds the client-side submission story (`submit_attempts`, `submit_retries`,
/// and, when set, `submit_deadline_ms` and `submit_store_mode`) to the
/// report's `eval` object.  `submit_store_mode: "degraded"` records that at
/// least one backpressure answer named the daemon's degraded store as the
/// cause.  The extra keys are ignored by every [`RunReport`] consumer.
fn annotate_eval(
    text: &str,
    delivery: &Delivery,
    retries: u32,
    deadline_ms: Option<u64>,
) -> Result<String, String> {
    let mut value =
        serde_json::parse_value(text).map_err(|e| format!("malformed report JSON: {e}"))?;
    let serde::Value::Object(fields) = &mut value else {
        return Err("report JSON is not an object".to_string());
    };
    let Some((_, serde::Value::Object(eval))) = fields.iter_mut().find(|(k, _)| k == "eval") else {
        return Err("report JSON carries no eval object".to_string());
    };
    let mut add = |key: &str, value| eval.push((key.to_string(), value));
    let attempts = u64::from(delivery.attempts);
    add("submit_attempts", serde::Value::U64(attempts));
    add("submit_retries", serde::Value::U64(u64::from(retries)));
    if let Some(ms) = deadline_ms {
        add("submit_deadline_ms", serde::Value::U64(ms));
    }
    if delivery.store_degraded {
        add("submit_store_mode", serde::Value::Str("degraded".into()));
    }
    serde_json::to_string(&value).map_err(|e| format!("report serialization: {e}"))
}

/// `flowc store`: maintenance of a persistent QoR store.
///
/// A store is addressed by the base path of its segments; opening a
/// plain-JSONL file from before format v2 at the base path fails with the
/// store's own error.
pub fn store(mut args: Args) -> Result<(), CliError> {
    let usage = || CliError::usage("usage: flowc store <compact|stats|fsck> <path>");
    let action = args.take_positional().ok_or_else(usage)?;
    let path = args.take_positional().ok_or_else(usage)?;
    let json_path = args.take_value("json")?;
    let repair = args.take_flag("repair");
    args.finish()?;
    // Checked before the store opens: the open's scrub heals in place.
    if !matches!(action.as_str(), "compact" | "stats" | "fsck") {
        let message = format!("unknown store action `{action}` (compact, stats or fsck)");
        return Err(CliError::usage(message));
    }
    if repair && action != "fsck" {
        return Err(CliError::usage(
            "--repair only applies to `flowc store fsck`",
        ));
    }
    if !floweval::QorStore::exists(&path) {
        return Err(format!("no store at `{path}` (no file and no segment)").into());
    }
    let mut store =
        floweval::QorStore::open(&path).map_err(|e| format!("cannot open `{path}`: {e}"))?;
    match action.as_str() {
        "compact" => {
            let report = store.compact().map_err(|e| format!("compaction: {e}"))?;
            emit_json(&report, json_path.as_deref())
        }
        "stats" => {
            let summary = store.summary();
            let stats = object! {
                "records" => summary.records,
                "duplicate_records" => summary.duplicates,
                "torn_tail" => summary.torn_tail,
                "corrupt_records" => summary.corrupt_records,
                "malformed_lines" => summary.torn_tail + summary.corrupt_records,
                "segments" => summary.segments,
                "bytes" => summary.disk_bytes,
            };
            emit_json(&stats, json_path.as_deref())
        }
        _ => {
            // fsck.  Opening IS the scrub: checksums verified, torn tails
            // and corrupt lines quarantined and healed.  `--repair`
            // additionally compacts, which drops superseded duplicates.
            let repaired = if repair {
                Some(store.compact().map_err(|e| format!("repair: {e}"))?)
            } else {
                None
            };
            let summary = store.summary();
            let (torn_tail, corrupt) = (summary.torn_tail, summary.corrupt_records);
            let clean = torn_tail + corrupt == 0;
            let report = object! {
                "clean" => clean,
                "records" => summary.records,
                "torn_tail" => torn_tail,
                "corrupt_records" => corrupt,
                "quarantined" => summary.quarantined,
                "duplicate_records" => summary.duplicates,
                "segments" => summary.segments,
                "bytes" => summary.disk_bytes,
                "repaired" => repaired,
            };
            emit_json(&report, json_path.as_deref())?;
            if clean {
                Ok(())
            } else {
                Err(format!(
                    "store `{path}` had damage: {torn_tail} torn tail, {corrupt} corrupt \
                     (quarantined to `{path}.quarantine` and healed)"
                )
                .into())
            }
        }
    }
}

/// `flowc convert`: read a design in one format, write it in another.
pub fn convert(mut args: Args) -> Result<(), CliError> {
    let usage = || CliError::usage("usage: flowc convert <input> <output>");
    let input = args.take_positional().ok_or_else(usage)?;
    let output = args.take_positional().ok_or_else(usage)?;
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
pub fn stats(mut args: Args) -> Result<(), CliError> {
    let spec = args
        .take_positional()
        .ok_or_else(|| CliError::usage("usage: flowc stats <design>"))?;
    let json_path = args.take_value("json")?;
    args.finish()?;
    let resolved = resolve_design(&spec)?;
    let fingerprint = floweval::fingerprint_design(&resolved.aig);
    let report = DesignReport::of(&resolved.aig, fingerprint, &resolved.source);
    emit_json(&report, json_path.as_deref())
}

/// `flowc presets`: list the named flows.
pub fn presets(args: Args) -> Result<(), CliError> {
    args.finish()?;
    for (name, transforms) in Flow::presets() {
        println!("{name:12} {}", Flow::new(transforms.to_vec()).to_script());
    }
    Ok(())
}

/// `flowc export-corpus`: write the paper's generated designs as on-disk
/// fixtures, deterministically (same bytes for the same version of the
/// generators), together with a manifest.
pub fn export_corpus(mut args: Args) -> Result<(), CliError> {
    let dir = PathBuf::from(args.require_value("dir")?);
    let scale_name = args.take_value("scale")?.unwrap_or_else(|| "tiny".into());
    let format_name = args.take_value("format")?.unwrap_or_else(|| "aag".into());
    args.finish()?;
    let scale = parse_scale(&scale_name).map_err(CliError::Usage)?;
    let format = Format::from_extension(&format_name).ok_or_else(|| {
        CliError::usage(format!("unknown format `{format_name}` (aag, aig or blif)"))
    })?;

    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut entries = Vec::new();
    for design in Design::ALL {
        let aig = generate_named(design, scale, &scale_name);
        let file = format!("{}.{}", design.name(), format.extension());
        let path = dir.join(&file);
        std::fs::write(&path, aig::io::render_design(&aig, format))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        entries.push(object! {
            "file" => file,
            "design" => design.name(),
            "scale" => scale_name,
            "format" => format.extension(),
            "inputs" => aig.num_inputs(),
            "outputs" => aig.num_outputs(),
            "ands" => aig.num_ands(),
            "depth" => aig.depth(),
            "fingerprint" => floweval::fingerprint_design(&aig).to_string(),
        });
    }
    let manifest = object! {
        "generator" => "flowc export-corpus",
        "scale" => scale_name,
        "format" => format.extension(),
        "entries" => entries,
    };
    let manifest_json =
        serde_json::to_string(&manifest).map_err(|e| format!("manifest serialization: {e}"))?;
    let manifest_path = dir.join("MANIFEST.json");
    std::fs::write(&manifest_path, manifest_json + "\n")
        .map_err(|e| format!("cannot write {}: {e}", manifest_path.display()))?;
    eprintln!(
        "exported {} designs to {} ({scale_name} scale, .{format})",
        Design::ALL.len(),
        dir.display(),
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

/// A fresh engine over the `--store` at `store`, if any, verifying every
/// evaluated flow when `verify` is set.  A store that fails to open is the
/// command's error: results the caller asked to persist are never dropped.
fn engine_at(store: Option<String>, verify: bool) -> Result<EvalEngine, CliError> {
    EvalEngine::open(EngineConfig {
        store_path: store.map(PathBuf::from),
        verify,
        ..EngineConfig::default()
    })
    .map_err(|e| CliError::Runtime(e.to_string()))
}

/// Prints a report to stdout and optionally writes it to a file.
fn emit_json<T: serde::Serialize>(report: &T, path: Option<&str>) -> Result<(), CliError> {
    let json = serde_json::to_string(report).map_err(|e| format!("serialization: {e}"))?;
    println!("{json}");
    if let Some(path) = path {
        std::fs::write(path, json + "\n").map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn prefix_expansion_counts() {
        let prefix = Flow::new(vec![Transform::Balance]);
        let flows = expand_prefix(&prefix, 2);
        assert_eq!(flows.len(), 36);
        assert!(flows
            .iter()
            .all(|f| f.len() == 3 && f.transforms()[0] == Transform::Balance));
        let distinct: HashSet<&Flow> = flows.iter().collect();
        assert_eq!(distinct.len(), 36);
        let order: Vec<Transform> = flows[..6].iter().map(|f| f.transforms()[2]).collect();
        assert_eq!(order, Transform::ALL, "suffixes in `Transform::ALL` order");
    }
}
