//! # flowgen — autonomous synthesis-flow generation (the paper's contribution)
//!
//! This crate reproduces the framework of *Developing Synthesis Flows Without
//! Human Knowledge* (Yu, Xiao, De Micheli — DAC 2018): a fully autonomous
//! pipeline that, given a design, discovers *angel-flows* (best-QoR synthesis
//! flows) and *devil-flows* (worst-QoR flows) without human guidance by
//! training a CNN to classify one-hot-encoded flows by their QoR class.
//!
//! The pieces map one-to-one onto the paper:
//!
//! | Paper | Module |
//! |---|---|
//! | §2.1 search space, Remark 3 counting | [`FlowSpace`] |
//! | §3.1 framework overview (Figure 2)    | [`Framework`] |
//! | §3.1 labelling model (Table 1)        | [`Labeler`], [`MultiMetricLabeler`] |
//! | §3.2.1 one-hot flow encoding          | [`FlowEncoder`] |
//! | §3.2.2 CNN architecture (Figure 3)    | [`FlowClassifier`], [`ClassifierConfig`] |
//! | §3.3 angel/devil selection (Table 2)  | [`select_angel_devil_flows`] |
//! | §4.1 accuracy definition              | [`angel_devil_accuracy`] |
//!
//! ## Quick example
//!
//! ```no_run
//! use circuits::{Design, DesignScale};
//! use flowgen::{Framework, FrameworkConfig};
//! use synth::QorMetric;
//!
//! let design = Design::Alu64.generate(DesignScale::Small);
//! let framework = Framework::new(FrameworkConfig::laptop(QorMetric::Area));
//! let report = framework.run(&design);
//! for angel in &report.selection.angel_flows {
//!     println!("{} (confidence {:.2})", angel.flow, angel.confidence);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classifier;
mod dataset;
mod encode;
mod flow;
mod framework;
mod label;
mod select;
mod space;

pub use classifier::{ClassifierConfig, FlowClassifier};
pub use dataset::{Dataset, LabeledFlow};
pub use encode::FlowEncoder;
pub use flow::Flow;
pub use framework::{Framework, FrameworkConfig, FrameworkReport, TrainingRound};
pub use label::{Labeler, MultiMetricLabeler, PAPER_PERCENTILES};
pub use select::{angel_devil_accuracy, select_angel_devil_flows, SelectedFlow, Selection};
pub use space::FlowSpace;

// Re-exported so callers configure and feed the classifier without `nn`.
pub use nn::{Activation, GradientDescent, Tensor};
