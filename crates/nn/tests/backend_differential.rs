//! Differential tests for the one compute path: the production layers must
//! match the scalar oracle (`nn::reference`) on the full Figure-3 layer stack
//! — logits within tight relative tolerance, argmax predictions identical,
//! training losses in step — must themselves be bit-identical across thread
//! counts, and must keep the pinned training-loss bits.

use nn::{
    reference::Scalar, Activation, ActivationLayer, Conv2d, Dense, Dropout, Flatten,
    GradientDescent, Layer, LocallyConnected2d, MaxPool2d, Network, Optimizer, Tensor,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const CLASSES: usize = 7;
/// Kernels per convolution stage.
const K: usize = 8;
/// Input height and width (the paper's 12×12 flow encoding).
const SIDE: usize = 12;
/// Spatial side after the two 2×2 pools.
const SIDE2: usize = SIDE / 4;
/// Width of the flattened locally-connected output (2×2 kernel, `K / 2` out).
const FLAT: usize = (SIDE2 - 1) * (SIDE2 - 1) * (K / 2);

/// A small version of the paper's Figure 3 stack, layer for layer the one
/// `flowgen::FlowClassifier::new` builds (two conv+pool stages with an
/// even-width rectangular kernel, a locally-connected layer, dense head with
/// dropout) at 8 kernels and 16 dense units, drawing weights from the RNG in
/// the same order.
fn figure3_net(seed: u64) -> Network {
    figure3_net_with_kernel((3, 6), seed)
}

/// [`figure3_net`] with both convolutions using `kernel`; `(6, 12)` is the
/// paper-scale `n × 2n` kernel, which on the second stage's 6 × 6 map has
/// taps that never land inside the input.
fn figure3_net_with_kernel(kernel: (usize, usize), seed: u64) -> Network {
    figure3_stack(kernel, (K, 16), seed)
}

/// The Figure 3 stack with `kernels` per convolution stage and `units` in the
/// dense layer.
fn figure3_stack(kernel: (usize, usize), (kernels, units): (usize, usize), seed: u64) -> Network {
    let flat = (SIDE2 - 1) * (SIDE2 - 1) * (kernels / 2);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = Network::new();
    net.push(Conv2d::new(kernel, 1, kernels, &mut rng));
    net.push(ActivationLayer::new(Activation::Selu));
    net.push(MaxPool2d::new((2, 2)));
    net.push(Conv2d::new(kernel, kernels, kernels, &mut rng));
    net.push(ActivationLayer::new(Activation::Selu));
    net.push(MaxPool2d::new((2, 2)));
    net.push(LocallyConnected2d::new(
        (SIDE2, SIDE2, kernels),
        (2, 2),
        kernels / 2,
        &mut rng,
    ));
    net.push(ActivationLayer::new(Activation::Selu));
    net.push(Flatten::new());
    net.push(Dense::new(flat, units, &mut rng));
    net.push(ActivationLayer::new(Activation::Selu));
    net.push(Dropout::new(0.4, seed ^ 0x5EED));
    net.push(Dense::new(units, CLASSES, &mut rng));
    net
}

/// [`figure3_net`] with every trainable layer wrapped in its scalar oracle;
/// the same seed gives the same weights.
fn figure3_reference_net(seed: u64) -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = Network::new();
    net.push(Scalar::new(Conv2d::new((3, 6), 1, K, &mut rng)));
    net.push(ActivationLayer::new(Activation::Selu));
    net.push(MaxPool2d::new((2, 2)));
    net.push(Scalar::new(Conv2d::new((3, 6), K, K, &mut rng)));
    net.push(ActivationLayer::new(Activation::Selu));
    net.push(MaxPool2d::new((2, 2)));
    net.push(Scalar::new(LocallyConnected2d::new(
        (SIDE2, SIDE2, K),
        (2, 2),
        K / 2,
        &mut rng,
    )));
    net.push(ActivationLayer::new(Activation::Selu));
    net.push(Flatten::new());
    net.push(Scalar::new(Dense::new(FLAT, 16, &mut rng)));
    net.push(ActivationLayer::new(Activation::Selu));
    net.push(Dropout::new(0.4, seed ^ 0x5EED));
    net.push(Scalar::new(Dense::new(16, CLASSES, &mut rng)));
    net
}

/// `n` flow encodings as `flowgen` builds them: 24 steps over 6
/// transformations, one set cell per step, reshaped to `12 × 12`.
fn one_hot_batch(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut data = vec![0.0f32; n * SIDE * SIDE];
    for step in data.chunks_mut(6) {
        step[rng.gen_range(0..6usize)] = 1.0;
    }
    let labels = (0..n).map(|_| rng.gen_range(0..CLASSES)).collect();
    (Tensor::from_vec(&[n, SIDE, SIDE, 1], data), labels)
}

fn seeded_batch(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let data = (0..n * SIDE * SIDE)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let labels = (0..n).map(|_| rng.gen_range(0..CLASSES)).collect();
    (Tensor::from_vec(&[n, SIDE, SIDE, 1], data), labels)
}

fn argmax_rows(t: &Tensor) -> Vec<usize> {
    let classes = t.shape()[1];
    (0..t.shape()[0])
        .map(|b| {
            let row = &t.data()[b * classes..(b + 1) * classes];
            row.iter()
                .enumerate()
                .max_by(|a, c| a.1.partial_cmp(c.1).unwrap())
                .map(|(i, _)| i)
                .unwrap()
        })
        .collect()
}

#[test]
fn fast_logits_match_reference_within_tolerance() {
    let mut reference = figure3_reference_net(42);
    let mut fast = figure3_net(42);
    for seed in [1u64, 2, 3] {
        let (x, _) = seeded_batch(5, seed);
        let logits_ref = reference.forward(&x, false);
        let logits_fast = fast.forward(&x, false);
        assert_eq!(logits_ref.shape(), logits_fast.shape());
        for (a, b) in logits_ref.data().iter().zip(logits_fast.data()) {
            assert!(
                (a - b).abs() <= 1e-4 * a.abs().max(1.0),
                "seed {seed}: logits diverge: {a} vs {b}"
            );
        }
        assert_eq!(
            argmax_rows(&logits_ref),
            argmax_rows(&logits_fast),
            "seed {seed}: argmax predictions differ"
        );
    }
}

#[test]
fn training_steps_agree_between_backends() {
    let mut reference = figure3_reference_net(7);
    let mut fast = figure3_net(7);
    let mut opt_ref = Optimizer::new(GradientDescent::RmsProp { decay: 0.9 }, 1e-3);
    let mut opt_fast = Optimizer::new(GradientDescent::RmsProp { decay: 0.9 }, 1e-3);
    for step in 0..5 {
        let (x, y) = seeded_batch(5, 100 + step);
        let loss_ref = reference.train_step(&x, &y, &mut opt_ref).loss;
        let loss_fast = fast.train_step(&x, &y, &mut opt_fast).loss;
        assert!(
            (loss_ref - loss_fast).abs() <= 1e-3 * loss_ref.abs().max(1.0),
            "step {step}: loss {loss_ref} vs {loss_fast}"
        );
    }
    // After training both nets the same way, predictions must still agree.
    let (x, _) = seeded_batch(16, 999);
    let p_ref = reference.predict(&x);
    let p_fast = fast.predict(&x);
    assert_eq!(p_ref, p_fast, "post-training predictions diverged");
}

/// The paper's second convolution — a 6×12 kernel on a 6×6 map — with more
/// channels than one parallel channel block: the bits of its output, input
/// gradient and weight gradient after one forward and backward.
fn second_stage_conv_bits() -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut conv = Conv2d::new((6, 12), 40, 36, &mut rng);
    let x = Tensor::from_vec(
        &[5, 6, 6, 40],
        (0..5 * 6 * 6 * 40)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect(),
    );
    let out = conv.forward(&x, true);
    // Three in four gradient entries exactly zero, as 2×2 max-pooling leaves.
    let dy = Tensor::from_vec(
        out.shape(),
        (0..out.len())
            .map(|_| match rng.gen_range(0..4) {
                0 => rng.gen_range(-1.0..1.0),
                _ => 0.0,
            })
            .collect(),
    );
    let dx = conv.backward(&dy);
    let dw = conv.params_mut()[0].grad.clone();
    [out.data(), dx.data(), &dw]
        .into_iter()
        .flatten()
        .map(|v| v.to_bits())
        .collect()
}

/// The production path is bit-deterministic across worker-thread counts: work is
/// split into fixed blocks and every reduction runs in a fixed order.  All
/// thread-count variations run inside one `#[test]` (mirroring the PR 1
/// `runner_determinism` pattern) because the pool size is process-global.
#[test]
fn fast_training_is_bit_identical_across_thread_counts() {
    let run = |threads: usize| -> (Vec<f32>, Vec<usize>, Vec<u32>) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let mut net = figure3_net(11);
            let mut opt = Optimizer::new(GradientDescent::RmsProp { decay: 0.9 }, 1e-3);
            let mut losses = Vec::new();
            for step in 0..4 {
                let (x, y) = seeded_batch(5, 200 + step);
                losses.push(net.train_step(&x, &y, &mut opt).loss);
            }
            let (x, _) = seeded_batch(8, 555);
            (losses, net.predict(&x), second_stage_conv_bits())
        })
    };
    let (losses_1, preds_1, conv_1) = run(1);
    for threads in [2usize, 4, 8] {
        let (losses_n, preds_n, conv_n) = run(threads);
        assert_eq!(
            losses_1.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            losses_n.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            "{threads} threads changed training losses bitwise"
        );
        assert_eq!(preds_1, preds_n, "{threads} threads changed predictions");
        assert!(
            conv_1 == conv_n,
            "{threads} threads changed the 6x12-on-6x6 convolution bitwise"
        );
    }
}

/// Literal loss bits of a few seeded training steps, recorded from the
/// im2col + GEMM formulation the convolution used before it computed taps
/// directly.  The production path must keep reproducing them bit for bit on
/// the default `3 × 6` kernel and on the paper's `6 × 12` kernel.
#[test]
fn training_losses_are_pinned_bit_for_bit() {
    let pinned: [((usize, usize), [u32; 6]); 2] = [
        (
            (3, 6),
            [
                1075163002, 1074390727, 1071551053, 1073617803, 1073356762, 1073004917,
            ],
        ),
        (
            (6, 12),
            [
                1075097402, 1075160354, 1074725371, 1075906870, 1072298995, 1074124529,
            ],
        ),
    ];
    for (kernel, want) in pinned {
        let mut net = figure3_net_with_kernel(kernel, 23);
        let mut opt = Optimizer::new(GradientDescent::RmsProp { decay: 0.9 }, 1e-3);
        let got: Vec<u32> = (0..6)
            .map(|step| {
                let (x, y) = seeded_batch(5, 300 + step);
                net.train_step(&x, &y, &mut opt).loss.to_bits()
            })
            .collect();
        assert_eq!(got, want, "kernel {kernel:?}: loss bits moved");
    }
}

/// Loss bits of six seeded training steps of the laptop classifier
/// (`flowgen::ClassifierConfig::default()`: 12 kernels of `3 × 6`, 32 dense
/// units) on one-hot flow encodings.
fn laptop_loss_bits() -> Vec<u32> {
    let mut net = figure3_stack((3, 6), (12, 32), 29);
    let mut opt = Optimizer::new(GradientDescent::RmsProp { decay: 0.9 }, 1e-3);
    (0..6)
        .map(|step| {
            let (x, y) = one_hot_batch(5, 400 + step);
            net.train_step(&x, &y, &mut opt).loss.to_bits()
        })
        .collect()
}

/// A hash of the bits of one convolution's output, input gradient, weight
/// gradient and bias gradient after a training forward and a backward on
/// `n` images of `side.0 × side.1`.  One input channel gets one-hot flow
/// encodings, more get dense SELU-range values; `dY` is three in four exact
/// zeros, as 2×2 max-pooling leaves it.
fn conv_hash(
    kernel: (usize, usize),
    (in_c, out_c): (usize, usize),
    (n, side): (usize, (usize, usize)),
    seed: u64,
) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut conv = Conv2d::new(kernel, in_c, out_c, &mut rng);
    let x = if in_c == 1 {
        one_hot_batch(n, seed).0
    } else {
        Tensor::from_vec(
            &[n, side.0, side.1, in_c],
            (0..n * side.0 * side.1 * in_c)
                .map(|_| rng.gen_range(-1.5..2.0))
                .collect(),
        )
    };
    let out = conv.forward(&x, true);
    let dy = Tensor::from_vec(
        out.shape(),
        (0..out.len())
            .map(|_| match rng.gen_range(0..4) {
                0 => rng.gen_range(-1.0..1.0),
                _ => 0.0,
            })
            .collect(),
    );
    let dx = conv.backward(&dy);
    let params = conv.params_mut();
    // FNV-1a over the little-endian bytes of every bit pattern.
    [out.data(), dx.data(), &params[0].grad, &params[1].grad]
        .into_iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The convolution shapes the classifiers train, each with its pinned hash:
/// the one-hot first layer at 12 and 200 kernels, a channel count that fills
/// no whole lane group, and the paper's second stage (`200 → 200`, `6 × 12`
/// on a `6 × 6` map).
fn conv_shape_hashes() -> Vec<(&'static str, u64)> {
    vec![
        (
            "1 -> 12, 3x6 on 12x12",
            conv_hash((3, 6), (1, 12), (5, (12, 12)), 41),
        ),
        (
            "1 -> 200, 6x12 on 12x12",
            conv_hash((6, 12), (1, 200), (5, (12, 12)), 42),
        ),
        (
            "13 -> 7, 3x6 on 6x6",
            conv_hash((3, 6), (13, 7), (5, (6, 6)), 43),
        ),
        (
            "7 -> 13, 3x6 on 6x6",
            conv_hash((3, 6), (7, 13), (5, (6, 6)), 44),
        ),
        (
            "12 -> 12, 3x6 on 6x6",
            conv_hash((3, 6), (12, 12), (5, (6, 6)), 45),
        ),
        (
            "200 -> 200, 6x12 on 6x6",
            conv_hash((6, 12), (200, 200), (2, (6, 6)), 46),
        ),
    ]
}

/// Literal bits of the laptop classifier's losses and of every convolution
/// shape in [`conv_shape_hashes`], recorded from the convolution kernels
/// before the tiled one.  They must hold at 1, 2, 4 and 8 threads.
#[test]
fn conv_shapes_are_pinned_bit_for_bit_at_every_thread_count() {
    let laptop = [
        1073464874, 1076223478, 1075464815, 1072113109, 1073680400, 1073324544,
    ];
    let shapes = [
        ("1 -> 12, 3x6 on 12x12", 9756073935188487832),
        ("1 -> 200, 6x12 on 12x12", 9706831825598047413),
        ("13 -> 7, 3x6 on 6x6", 13799804795968372046),
        ("7 -> 13, 3x6 on 6x6", 5014135769501871538),
        ("12 -> 12, 3x6 on 6x6", 13091094424136216242),
        ("200 -> 200, 6x12 on 6x6", 3697085164447924119),
    ];
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let (losses, hashes) = pool.install(|| (laptop_loss_bits(), conv_shape_hashes()));
        assert_eq!(losses, laptop, "{threads} threads: laptop loss bits moved");
        assert_eq!(hashes, shapes, "{threads} threads: convolution bits moved");
    }
}
