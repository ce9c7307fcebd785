//! # flowc — library surface of the synthesis-flow CLI
//!
//! The binary in `main.rs` is a thin dispatcher over [`commands`]; the
//! library exists so other crates speak the same dialects:
//!
//! * [`report`] — the JSON documents `flowc run` prints.  These are also the
//!   **wire format** of the `flowd` service: the daemon serializes a
//!   [`report::RunReport`] per request and `flowc submit` deserializes it,
//!   so a QoR produced over a socket is comparable byte-for-byte with one
//!   produced in process.
//! * [`request`] — the one run request: `flowc run`, `flowc submit` and
//!   `flowd`'s `/run` parse a flow request, evaluate it and assemble its
//!   [`report::RunReport`] through this module.
//! * [`client`] — the one `flowd` wire client: a keep-alive
//!   [`client::Connection`], the one-shot [`client::exchange`] and `flowc
//!   submit`'s retry policy, [`client::send_with_retry`].  `flowd`'s test
//!   suites use it too, so the wire has one client half.
//! * [`design`] — `--design` spec resolution (`path` vs `name[:scale]`).
//! * [`args`] — the dependency-free taker-style option parser and the typed
//!   [`args::CliError`] (usage vs runtime) that picks the exit code.

pub mod args;
pub mod client;
pub mod commands;
pub mod design;
pub mod report;
pub mod request;
mod studies;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use circuits::{Design, DesignScale};
    use floweval::{EngineConfig, EvalEngine};
    use flowgen::Labeler;
    use synth::QorMetric;

    use crate::studies::Studies;

    #[test]
    fn collect_labeled_flows_produces_consistent_data() {
        let engine = Arc::new(EvalEngine::new(EngineConfig::default()));
        let studies = Studies::new(engine, DesignScale::Tiny);
        let data = studies.collect(&studies.design(Design::Alu64), QorMetric::Area, 12, 3);
        assert_eq!(data.flows.len(), 12);
        assert_eq!(data.qors.len(), 12);
        assert_eq!(data.dataset.len(), 12);
        let labeler = Labeler::paper_model(QorMetric::Area, &data.qors);
        assert_eq!(labeler.num_classes(), 7);
        assert!(data.dataset.examples().iter().all(|e| e.label < 7));
        assert!(data.seconds > 0.0);
    }
}
