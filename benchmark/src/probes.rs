//! Direct probes: the harness times single public functions of a layer on
//! the workload's own inputs, outside the timed section, for the per-layer
//! rows that no end-to-end span isolates.

use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

use aig::io::Format;
use aig::{Aig, Cut4Enumerator, CutParams, Lit, NodeKind};
use flow_core::Fingerprint;
use floweval::{QorStore, StoreKey};
use synth::{CellLibrary, PassContext, Qor, SharedIsopCache};

use crate::common::{replay_flow, PassTotals};
use crate::report::Outcome;
use crate::rng::Rng64;
use crate::trace::Tracer;

/// Seconds per call of `f`, repeated until a probe covers ~`target_ands`
/// AND nodes so small designs are not timed by one noisy call.
fn per_call(ands: usize, mut f: impl FnMut()) -> f64 {
    let reps = (400_000 / ands.max(1)).clamp(1, 400);
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// `aig.*_ns_per_and` and `floweval.fingerprint_ns_per_and` over `designs`:
/// total probe time ÷ total AND nodes.
pub fn aig_layer(designs: &[&Aig], out: &mut Outcome) {
    let mut seconds = [0.0f64; 6];
    let mut ands = 0usize;
    let enumerator = Cut4Enumerator::new(CutParams::default());
    let mut sets = Vec::new();
    let mut buf = Aig::new();
    for &design in designs {
        let n = design.num_ands();
        ands += n;
        let bytes = aig::io::render_design(design, Format::AigerBinary);
        seconds[0] += per_call(n, || {
            black_box(
                aig::io::parse_design(black_box(&bytes), Format::AigerBinary).expect("own render"),
            );
        });
        seconds[1] += per_call(n, || buf.copy_from(black_box(design)));
        seconds[2] += per_call(n, || {
            black_box(rebuild_through_and(design));
        });
        seconds[3] += per_call(n, || {
            enumerator.enumerate_into(black_box(design), &mut sets)
        });
        seconds[4] += per_call(n, || {
            black_box(aig::io::render_design(
                black_box(design),
                Format::AigerBinary,
            ));
        });
        seconds[5] += per_call(n, || {
            black_box(floweval::fingerprint_design(black_box(design)));
        });
    }
    let names = [
        "aig.parse_ns_per_and",
        "aig.copy_ns_per_and",
        "aig.strash_ns_per_and",
        "aig.cut4_ns_per_and",
        "aig.render_ns_per_and",
        "floweval.fingerprint_ns_per_and",
    ];
    for (name, s) in names.iter().zip(seconds) {
        out.layer(name, s * 1e9 / ands.max(1) as f64);
    }
}

/// Re-creates `design` node by node through `Aig::and`, i.e. through the
/// structural-hash table.
fn rebuild_through_and(design: &Aig) -> Aig {
    let mut g = Aig::new();
    let mut map: Vec<Lit> = vec![Lit::FALSE; design.len()];
    let at = |map: &[Lit], l: Lit| {
        map[l.node()].with_complement(map[l.node()].is_complemented() ^ l.is_complemented())
    };
    for id in design.node_ids() {
        map[id] = match design.node(id).kind() {
            NodeKind::Constant => Lit::FALSE,
            NodeKind::Input(i) => g.add_input(design.input_name(i as usize)),
            NodeKind::And(a, b) => {
                let (x, y) = (at(&map, a), at(&map, b));
                g.and(x, y)
            }
        };
    }
    for (i, &o) in design.outputs().iter().enumerate() {
        let lit = at(&map, o);
        g.add_output(design.output_name(i), lit);
    }
    g
}

/// `synth.*` rows from a pass-by-pass replay of `flows_per_design` flows
/// drawn by `draw` on each design (one shared recycling context).
pub fn synth_layer(
    designs: &[&Aig],
    flows_per_design: usize,
    seed: u64,
    mut draw: impl FnMut(&mut Rng64) -> Vec<synth::Transform>,
    out: &mut Outcome,
) {
    let library = CellLibrary::nangate14();
    let isop = SharedIsopCache::new();
    let mut ctx = PassContext::default().share_isop_cache(isop.clone());
    let mut tracer = Tracer::new(false, Instant::now());
    let mut totals = PassTotals::default();
    let mut rng = Rng64::stream(seed, 0x5117);
    for &design in designs {
        for _ in 0..flows_per_design {
            let flow = draw(&mut rng);
            let (g, _) = replay_flow(
                &mut tracer,
                0,
                &mut ctx,
                &library,
                design,
                &flow,
                &mut totals,
            );
            ctx.recycle(g);
        }
    }
    totals.report(out);
    apply_and_isop(&ctx, &isop, out);
}

/// `synth.apply_*` from the context's apply statistics and
/// `synth.isop_hit_ratio` from the shared cover memo behind it.
pub fn apply_and_isop(ctx: &PassContext, isop: &SharedIsopCache, out: &mut Outcome) {
    let apply = ctx.apply_stats();
    out.layer("synth.apply_in_place", apply.in_place as f64);
    out.layer("synth.apply_rebuilt", apply.rebuilt as f64);
    out.layer("synth.apply_identity", apply.identity as f64);
    let (hits, misses) = (isop.hits(), isop.misses());
    if hits + misses > 0 {
        out.layer("synth.isop_hit_ratio", hits as f64 / (hits + misses) as f64);
    }
}

/// `floweval.store_*` rows: a segmented on-disk store of `records` synthetic
/// records under `dir` is filled, flushed, read back and re-opened.
pub fn store_layer(dir: &Path, records: usize, out: &mut Outcome) {
    let base = dir.join("probe-store").join("qor");
    let key = |i: usize| StoreKey {
        design: Fingerprint(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 / 64 + 1)),
        config: Fingerprint(0xC0FF_EE00),
        flow: format!("balance; rewrite; refactor -z; probe {i}"),
    };
    let qor = |i: usize| Qor {
        area_um2: 1000.0 + i as f64 * 0.25,
        delay_ps: 500.0 + i as f64 * 0.125,
        gates: 100 + i,
        and_nodes: 200 + i,
        depth: 20,
    };
    let mut store = QorStore::open(&base).expect("probe store opens");
    let start = Instant::now();
    for i in 0..records {
        store.insert(key(i), qor(i)).expect("probe insert");
    }
    out.layer(
        "floweval.store_insert_us",
        start.elapsed().as_secs_f64() * 1e6 / records as f64,
    );
    let start = Instant::now();
    store.checkpoint().expect("probe flush");
    out.layer(
        "floweval.store_flush_ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    let start = Instant::now();
    let mut found = 0usize;
    for i in 0..records {
        found += usize::from(store.get(&key(i)) == Some(qor(i)));
    }
    out.layer(
        "floweval.store_get_us",
        start.elapsed().as_secs_f64() * 1e6 / records as f64,
    );
    assert_eq!(found, records, "the probe store lost records");
    out.layer(
        "floweval.store_bytes_per_rec",
        store.disk_bytes() as f64 / records as f64,
    );
    drop(store);
    let start = Instant::now();
    let reopened = QorStore::open(&base).expect("probe store reopens");
    out.layer(
        "floweval.store_open_ms_per_krec",
        start.elapsed().as_secs_f64() * 1e6 / records as f64,
    );
    assert_eq!(reopened.len(), records, "the scrub dropped records");
}

/// `httpwire.*` rows: one `/run` request and its response are serialised
/// into memory and parsed back, `reps` times.
pub fn wire_layer(
    request: &httpwire::Request,
    response: &httpwire::Response,
    reps: usize,
    out: &mut Outcome,
) {
    let limits = httpwire::Limits {
        max_body_bytes: 8 * 1024 * 1024,
        ..httpwire::Limits::default()
    };
    let mut request_bytes = Vec::new();
    httpwire::write_request(&mut request_bytes, request).expect("in-memory write");
    let start = Instant::now();
    for _ in 0..reps {
        let mut reader = BufReader::new(black_box(&request_bytes[..]));
        black_box(httpwire::read_request(&mut reader, &limits).expect("own request parses"));
    }
    out.layer(
        "httpwire.read_request_us",
        start.elapsed().as_secs_f64() * 1e6 / reps as f64,
    );
    let mut response_bytes = Vec::new();
    let start = Instant::now();
    for _ in 0..reps {
        response_bytes.clear();
        httpwire::write_response(&mut response_bytes, black_box(response))
            .expect("in-memory write");
    }
    out.layer(
        "httpwire.write_response_us",
        start.elapsed().as_secs_f64() * 1e6 / reps as f64,
    );
    out.layer("httpwire.request_bytes", request_bytes.len() as f64);
    out.layer("httpwire.response_bytes", response_bytes.len() as f64);
}

/// `nn.gemm_gflops` / `nn.gemm_nt_gflops` at the classifier's second
/// convolution: `[batch·6·6, 6·12·k] × [6·12·k, k]`.
pub fn gemm_layer(kernels: usize, batch: usize, out: &mut Outcome) {
    let (m, k, n) = (batch * 36, 72 * kernels, kernels);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.02).collect();
    let mut c = vec![0.0f32; m * n];
    let flops = 2.0 * (m * k * n) as f64;
    let reps = 6;
    let start = Instant::now();
    for _ in 0..reps {
        nn::gemm::matmul(m, k, n, black_box(&a), black_box(&b), &mut c);
    }
    out.layer(
        "nn.gemm_gflops",
        flops * reps as f64 / start.elapsed().as_secs_f64() * 1e-9,
    );
    // dX[m×k] = dY[m×n] · W[k×n]ᵀ: the backward pass's input gradient.
    let mut d = vec![0.0f32; m * k];
    let start = Instant::now();
    for _ in 0..reps {
        nn::gemm::matmul_nt(m, n, k, black_box(&c), black_box(&b), &mut d);
    }
    out.layer(
        "nn.gemm_nt_gflops",
        flops * reps as f64 / start.elapsed().as_secs_f64() * 1e-9,
    );
    black_box(d);
}
