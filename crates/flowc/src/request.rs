//! One run request: what `flowc run`, `flowc submit` and `flowd`'s `/run`
//! ask of the synthesis tool, and the one way it is answered.
//!
//! A [`RunRequest`] is parsed once, by [`RunRequest::parse`], from named
//! values: `flow` (a preset or an ABC-style script) or `random` (a seed of a
//! paper-space flow), `export` (`aag` or `blif`), `verify` and `timing`.
//! They are `/run`'s query parameters and `flowc`'s options alike
//! ([`CliRequest`]).  `flowc submit` sends a request with
//! [`RunRequest::to_query`]; [`RunRequest::answer`] evaluates one and
//! returns the [`RunReport`] that `flowc run` prints and `flowd` serves.

use std::path::Path;

use aig::io::Format;
use aig::Aig;
use flow_core::{CancelToken, Cancelled, Fingerprint};
use floweval::{EvalEngine, EvalStats};
use flowgen::{Flow, FlowSpace};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use synth::{PassContext, PassTimings, Qor};

use crate::args::{Args, CliError};
use crate::report::{DesignReport, FlowReport, RunReport, TimingReport};

/// A request that cannot be run as asked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// What it is about, `flowd`'s `400` kind: `flow`, `design` or `export`.
    pub kind: &'static str,
    pub message: String,
}

fn error(kind: &'static str, message: impl Into<String>) -> RequestError {
    RequestError {
        kind,
        message: message.into(),
    }
}

impl From<RequestError> for CliError {
    fn from(error: RequestError) -> Self {
        CliError::Usage(error.message)
    }
}

/// One request to evaluate a flow on a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRequest {
    pub flow: Flow,
    /// The preset's name when `flow` named one.
    pub preset: Option<String>,
    /// The seed when the flow was drawn from the paper's flow space.
    pub random_seed: Option<u64>,
    /// The text format the optimized netlist is asked for in.
    pub export: Option<Format>,
    /// Rerun the flow and check the result by random simulation.
    pub verify: bool,
    /// Add the per-pass timing breakdown to the report.
    pub timing: bool,
}

impl RunRequest {
    /// Parses a request from its named values, `value(name)` giving each
    /// one's text.  Exactly one of `flow` and `random` is required; the flags
    /// `verify` and `timing` are set by `1` or `true`.
    pub fn parse(value: impl Fn(&str) -> Option<String>) -> Result<RunRequest, RequestError> {
        let (flow, preset, random_seed) = match (value("flow"), value("random")) {
            (Some(_), Some(_)) => {
                return Err(error("flow", "flow and random are mutually exclusive"))
            }
            (Some(spec), None) => {
                let preset = Flow::named(spec.trim()).map(|_| spec.trim().to_string());
                let flow = Flow::parse(&spec).map_err(|cmd| {
                    error(
                        "flow",
                        format!("`{cmd}` is neither a preset nor a transform"),
                    )
                })?;
                (flow, preset, None)
            }
            (None, Some(seed)) => {
                let Ok(seed) = seed.parse::<u64>() else {
                    let message = format!("random needs a numeric seed, got `{seed}`");
                    return Err(error("flow", message));
                };
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                (FlowSpace::paper().random_flow(&mut rng), None, Some(seed))
            }
            (None, None) => {
                let message = "one of flow <preset|script> or random <seed> is required";
                return Err(error("flow", message));
            }
        };
        let export = match value("export") {
            None => None,
            Some(name) => match Format::from_extension(&name) {
                Some(Format::AigerBinary) => {
                    let message = "binary AIGER cannot ride a JSON string; request export=aag";
                    return Err(error("export", message));
                }
                Some(format) => Some(format),
                None => return Err(error("export", format!("unknown format `{name}`"))),
            },
        };
        let flag = |name: &str| matches!(value(name).as_deref(), Some("1" | "true"));
        Ok(RunRequest {
            flow,
            preset,
            random_seed,
            export,
            verify: flag("verify"),
            timing: flag("timing"),
        })
    }

    /// The request as `/run` query parameters, which [`RunRequest::parse`]
    /// reads back into this request.
    pub fn to_query(&self) -> String {
        let mut query = match (&self.preset, self.random_seed) {
            (Some(name), _) => format!("flow={}", httpwire::percent_encode(name)),
            (None, Some(seed)) => format!("random={seed}"),
            (None, None) => format!("flow={}", httpwire::percent_encode(&self.flow.to_script())),
        };
        if let Some(format) = self.export {
            query.push_str(&format!("&export={format}"));
        }
        for (name, set) in [("verify", self.verify), ("timing", self.timing)] {
            if set {
                query.push_str(&format!("&{name}=1"));
            }
        }
        query
    }

    /// Answers the request for `design`, whose fingerprint and `design`
    /// section the caller holds, on the caller's context under its token.
    ///
    /// The QoR comes from the engine.  Export and verification need the
    /// optimized network itself, which the engine keeps inside its state
    /// graph, so the flow is rerun once on `pctx` (both runs are
    /// deterministic and bit-identical).  The report's `eval` is the engine's
    /// cumulative count, its `timing` this request's passes and its `export`
    /// the caller's to fill from the optimized network, returned beside it
    /// when an export was asked for.
    pub fn answer(
        &self,
        engine: &EvalEngine,
        design: &Aig,
        fingerprint: Fingerprint,
        design_report: DesignReport,
        pctx: &mut PassContext,
        cancel: &CancelToken,
    ) -> Result<(RunReport, Option<Aig>), AnswerError> {
        let flow = self.flow.transforms();
        let _ = pctx.take_timings(); // the request's own breakdown starts here
        let qor = engine
            .try_evaluate_flow_with_ctx(design, fingerprint, flow, pctx, cancel)
            .map_err(AnswerError::Cancelled)?;
        let mut optimized = None;
        if self.export.is_some() || self.verify {
            let network = pctx
                .run_flow_cancellable(design, flow, cancel)
                .map_err(AnswerError::Cancelled)?;
            if self.verify && !synth::verify_equivalence(design, &network) {
                return Err(AnswerError::NotEquivalent);
            }
            match self.export {
                Some(_) => optimized = Some(network),
                None => pctx.recycle(network),
            }
        }
        let timings = pctx.take_timings();
        engine.absorb_timings(&timings);
        let report = self.report(design_report, qor, engine.stats(), &timings);
        Ok((report, optimized))
    }

    /// The report of this request answered with `qor`; `export` is `None`.
    pub fn report(
        &self,
        design: DesignReport,
        qor: Qor,
        eval: EvalStats,
        timings: &PassTimings,
    ) -> RunReport {
        let flow = FlowReport {
            script: self.flow.to_script(),
            preset: self.preset.clone(),
            random_seed: self.random_seed,
            length: self.flow.len(),
        };
        let timing = self.timing.then(|| TimingReport::of(timings));
        RunReport {
            design,
            flow,
            qor,
            eval,
            timing,
            export: None,
        }
    }
}

/// Why a [`RunRequest`] got no answer.
#[derive(Debug)]
pub enum AnswerError {
    /// The caller's token fired.
    Cancelled(Cancelled),
    /// Verification found the optimized network not equivalent to the design.
    NotEquivalent,
}

impl std::fmt::Display for AnswerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnswerError::Cancelled(cancelled) => write!(f, "evaluation aborted: {cancelled}"),
            AnswerError::NotEquivalent => {
                f.write_str("optimized network is not equivalent to the input design")
            }
        }
    }
}

/// The format `name` (`aag`, `aig` or `blif`) of a design in a `/run` body.
pub fn body_format(name: &str) -> Result<Format, RequestError> {
    Format::from_extension(name).ok_or_else(|| error("design", format!("unknown format `{name}`")))
}

/// The request options of `flowc run` and `flowc submit` as the named values
/// [`RunRequest::parse`] reads: `--flow`, `--random`, `--verify`, `--timing`,
/// and `--out <path>`, which asks for `export` in the path's format (binary
/// AIGER as `aag`, re-encoded when written).
pub struct CliRequest {
    values: Vec<(&'static str, String)>,
    /// The `--out` path and the format it is written in.
    pub out: Option<(String, Format)>,
}

impl CliRequest {
    /// Takes the request options out of `args`.
    pub fn take(args: &mut Args) -> Result<CliRequest, CliError> {
        let mut values = Vec::new();
        for name in ["flow", "random"] {
            if let Some(value) = args.take_value(name)? {
                values.push((name, value));
            }
        }
        for name in ["verify", "timing"] {
            if args.take_flag(name) {
                values.push((name, "1".to_string()));
            }
        }
        let out = match args.take_value("out")? {
            Some(path) => {
                let format = Format::from_path(Path::new(&path))
                    .map_err(|e| CliError::usage(e.to_string()))?;
                let text = match format {
                    Format::AigerBinary => Format::AigerAscii,
                    text => text,
                };
                values.push(("export", text.extension().to_string()));
                Some((path, format))
            }
            None => None,
        };
        Ok(CliRequest { values, out })
    }

    /// Parses the options as `flowd` parses `/run`'s query.
    pub fn parse(&self) -> Result<RunRequest, RequestError> {
        RunRequest::parse(|name| {
            let mut values = self.values.iter();
            values.find(|(n, _)| *n == name).map(|(_, v)| v.clone())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a `/run` query string the way `flowd` reads it.
    fn parse_query(query: &str) -> Result<RunRequest, RequestError> {
        let request = httpwire::Request::new("POST", &format!("/run?{query}"));
        RunRequest::parse(|name| request.query_param(name))
    }

    fn kind_of(query: &str) -> &'static str {
        parse_query(query).expect_err(query).kind
    }

    #[test]
    fn flow_and_random_exclude_each_other() {
        assert_eq!(kind_of("flow=resyn2&random=1"), "flow");
        assert_eq!(kind_of("timing=1"), "flow");
        assert!(parse_query("flow=resyn2").is_ok() && parse_query("random=1").is_ok());
    }

    #[test]
    fn presets_are_detected_by_name() {
        let preset = parse_query("flow=%20resyn2%20").unwrap();
        assert_eq!(preset.preset.as_deref(), Some("resyn2"));
        let script = httpwire::percent_encode(&preset.flow.to_script());
        let scripted = parse_query(&format!("flow={script}")).unwrap();
        assert_eq!((scripted.preset, scripted.flow), (None, preset.flow));
        assert_eq!(kind_of("flow=frobnicate"), "flow");
    }

    #[test]
    fn a_bad_seed_is_a_flow_error() {
        let error = parse_query("random=soon").unwrap_err();
        assert_eq!(error.kind, "flow");
        assert!(error.message.contains("`soon`"), "{}", error.message);
        assert_eq!(parse_query("random=42").unwrap().random_seed, Some(42));
    }

    #[test]
    fn exports_are_text_formats() {
        assert_eq!(kind_of("flow=resyn2&export=aig"), "export");
        assert_eq!(kind_of("flow=resyn2&export=svg"), "export");
        let blif = parse_query("flow=resyn2&export=blif").unwrap();
        assert_eq!(blif.export, Some(Format::Blif));
        assert_eq!(body_format("svg").unwrap_err().kind, "design");
        assert_eq!(body_format("aig"), Ok(Format::AigerBinary));
    }

    #[test]
    fn to_query_parses_back_to_the_same_request() {
        for list in [
            &["--flow", "resyn2"][..],
            &["--flow", "balance; rewrite; refactor -z", "--verify"],
            &["--random", "7", "--timing", "--out", "x.aig"],
            &[
                "--flow", "compress", "--out", "y.BLIF", "--verify", "--timing",
            ],
        ] {
            let mut args = Args::new(list.iter().map(|a| a.to_string()).collect());
            let cli = CliRequest::take(&mut args).unwrap();
            args.finish().unwrap();
            let request = cli.parse().unwrap();
            assert_eq!(parse_query(&request.to_query()), Ok(request.clone()));
            assert_eq!(request.export.is_some(), cli.out.is_some(), "{list:?}");
        }
    }
}
