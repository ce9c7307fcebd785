//! End-to-end integration test of the full reproduction pipeline:
//! design generation -> flow sampling -> synthesis + mapping -> labelling ->
//! CNN training -> angel/devil selection.

use circuits::{Design, DesignScale};
use floweval::EvalEngine;
use flowgen::{
    select_angel_devil_flows, ClassifierConfig, Dataset, FlowClassifier, FlowEncoder, FlowSpace,
    Framework, FrameworkConfig, Labeler,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use synth::{Qor, QorMetric};

#[test]
fn manual_pipeline_produces_consistent_artifacts() {
    // 1. Design and flow sampling.
    let design = Design::Alu64.generate(DesignScale::Tiny);
    let space = FlowSpace::paper();
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let flows = space.random_unique_flows(30, &mut rng);
    assert!(flows.iter().all(|f| f.is_m_repetition(6, 4)));

    // 2. QoR collection through the batch driver, at 1, 2 and 4 threads:
    // the labels must not depend on the machine.
    let collect = |threads: usize| -> Vec<Qor> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| EvalEngine::default().evaluate_batch(&design, &flows))
    };
    let qors = collect(1);
    assert_eq!(collect(2), qors, "2 threads changed the QoR");
    assert_eq!(collect(4), qors, "4 threads changed the QoR");
    assert_eq!(qors.len(), flows.len());
    assert!(qors.iter().all(|q| q.area_um2 > 0.0 && q.delay_ps > 0.0));

    // 3. Labelling (Table 1 percentile model).
    let labeler = Labeler::paper_model(QorMetric::Area, &qors);
    assert_eq!(labeler.num_classes(), 7);
    let dataset = Dataset::from_evaluations(flows.clone(), qors.clone(), &labeler);
    let hist = dataset.class_histogram(7);
    assert_eq!(hist.iter().sum::<usize>(), 30);
    assert!(hist[0] >= 1, "some flows must land in the best class");

    // 4. CNN training on the labelled flows.
    let config = ClassifierConfig {
        num_kernels: 4,
        dense_units: 16,
        ..ClassifierConfig::default()
    };
    let mut classifier = FlowClassifier::new(FlowEncoder::paper(), config);
    let loss = classifier.train(&dataset, 60);
    assert!(loss.is_finite() && loss > 0.0);

    // 5. Selection over a fresh sample pool.
    let samples = space.random_unique_flows(40, &mut rng);
    let probs = classifier.predict_proba(&samples);
    assert_eq!(probs.shape(), &[40, 7]);
    let selection = select_angel_devil_flows(&samples, &probs, 5);
    assert!(selection.angel_flows.len() <= 5);
    assert!(selection.devil_flows.len() <= 5);
    for s in selection.angel_flows.iter().chain(&selection.devil_flows) {
        assert!(s.index < samples.len());
        assert!((0.0..=1.0).contains(&(s.confidence as f64)));
    }
}

#[test]
fn framework_report_is_internally_consistent() {
    let design = Design::Montgomery64.generate(DesignScale::Tiny);
    let config = FrameworkConfig {
        training_flows: 20,
        initial_flows: 10,
        retrain_interval: 10,
        steps_per_round: 25,
        sample_flows: 24,
        output_flows: 4,
        classifier: ClassifierConfig {
            num_kernels: 2,
            dense_units: 8,
            ..ClassifierConfig::default()
        },
        ..FrameworkConfig::laptop(QorMetric::Delay)
    };
    let report = Framework::new(config).run(&design);
    assert_eq!(report.metric, QorMetric::Delay);
    assert_eq!(report.dataset.len(), 20);
    assert_eq!(report.sample_qors.len(), 24);
    assert_eq!(report.sample_labels.len(), 24);
    // Every selected flow references a valid sample index with a known label.
    for s in report
        .selection
        .angel_flows
        .iter()
        .chain(&report.selection.devil_flows)
    {
        assert!(s.index < 24);
        assert!(report.sample_labels[s.index] < 7);
    }
    // The accuracy value follows the paper's definition and is a fraction.
    let acc = report.selection_accuracy.expect("samples were evaluated");
    assert!((0.0..=1.0).contains(&acc));
}
