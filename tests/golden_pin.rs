//! Golden pin: the bits `synth` produced at the commit before the three-tier
//! collapse (ISSUE 24), written out as literals.
//!
//! For the three Tiny designs × the five [`Flow::presets`] this pins the
//! optimized network (`num_ands`, `depth`, structural fingerprint) and the
//! mapped QoR (`f64::to_bits` of area and delay, gate count) in both
//! [`MapMode`]s.  It certifies *identity to that commit*, not correctness of
//! the mapper: a PR that intends to change results re-captures the table and
//! says so.  Both the `PassContext` pipeline and the public free functions
//! are held to the same literals.

use circuits::{Design, DesignScale};
use floweval::fingerprint_design;
use flowgen::Flow;
use synth::{
    apply_sequence, map_qor, map_with_ctx, CellLibrary, MapMode, MapperParams, PassContext,
};

/// `(area bits, delay bits, gates)` of one mapping.
type QorBits = (u64, u64, usize);

/// `(design, preset, num_ands, depth, fingerprint, delay-mode, area-mode)`.
type Row = (
    &'static str,
    &'static str,
    usize,
    u32,
    u64,
    QorBits,
    QorBits,
);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("montgomery64", "compress", 1484, 107, 9135305674981434446, (4618272532882417255, 4633570697866641408, 33), (4618272532882417255, 4633570697866641408, 33)),
    ("montgomery64", "compress2", 1484, 106, 6349538718853105273, (4618272532882417255, 4633570697866641408, 33), (4618272532882417255, 4633570697866641408, 33)),
    ("montgomery64", "resyn", 1484, 107, 5121766004023197591, (4618272532882417255, 4633570697866641408, 33), (4618272532882417255, 4633570697866641408, 33)),
    ("montgomery64", "resyn2", 1484, 106, 4616289068315716184, (4618272532882417255, 4633570697866641408, 33), (4618272532882417255, 4633570697866641408, 33)),
    ("montgomery64", "resyn3", 1500, 106, 661743270901021765, (4618272532882417255, 4633570697866641408, 33), (4618272532882417255, 4633570697866641408, 33)),
    ("aes128", "compress", 9000, 124, 6886157597327272904, (4628157934064495511, 4630291514387962266, 144), (4628157934064495511, 4630291514387962266, 144)),
    ("aes128", "compress2", 9000, 124, 3938141292555079256, (4628157934064495511, 4630291514387962266, 144), (4628157934064495511, 4630291514387962266, 144)),
    ("aes128", "resyn", 9012, 124, 2364524026172702944, (4627795675769468896, 4630291514387962266, 138), (4627795675769468896, 4630291514387962266, 138)),
    ("aes128", "resyn2", 9000, 124, 6886157597327272904, (4628157934064495511, 4630291514387962266, 144), (4628157934064495511, 4630291514387962266, 144)),
    ("aes128", "resyn3", 9000, 124, 6886157597327272904, (4628157934064495511, 4630291514387962266, 144), (4628157934064495511, 4630291514387962266, 144)),
    ("alu64", "compress", 423, 35, 7257531022660324053, (4614295854411449108, 4630122629401935872, 21), (4614295854411449108, 4630122629401935872, 21)),
    ("alu64", "compress2", 419, 35, 336503331610567242, (4614295854411449108, 4630122629401935872, 21), (4614295854411449108, 4630122629401935872, 21)),
    ("alu64", "resyn", 423, 35, 7109954395915748461, (4614295854411449108, 4630122629401935872, 21), (4614295854411449108, 4630122629401935872, 21)),
    ("alu64", "resyn2", 419, 36, 2351992789396839712, (4614295854411449108, 4630122629401935872, 21), (4614295854411449108, 4630122629401935872, 21)),
    ("alu64", "resyn3", 420, 35, 16024833447862035107, (4614295854411449108, 4630122629401935872, 21), (4614295854411449108, 4630122629401935872, 21)),
];

fn params(mode: MapMode) -> MapperParams {
    MapperParams { mode }
}

#[test]
fn tiny_designs_times_presets_match_the_pinned_bits() {
    let lib = CellLibrary::nangate14();
    let mut rows = GOLDEN.iter();
    for design in Design::ALL {
        let g = design.generate(DesignScale::Tiny);
        for (preset, flow) in Flow::presets() {
            let what = format!("{design}/{preset}");
            let mut ctx = PassContext::default();
            let mut optimized = ctx.run_flow(&g, flow);
            let bits = |q: synth::Qor| (q.area_um2.to_bits(), q.delay_ps.to_bits(), q.gates);
            let delay =
                bits(map_with_ctx(&mut optimized, &lib, params(MapMode::Delay), &mut ctx).qor());
            let area =
                bits(map_with_ctx(&mut optimized, &lib, params(MapMode::Area), &mut ctx).qor());
            let got: Row = (
                design.name(),
                preset,
                optimized.num_ands(),
                optimized.depth(),
                fingerprint_design(&optimized).0,
                delay,
                area,
            );
            assert_eq!(Some(&got), rows.next(), "{what}: context pipeline");

            let free = apply_sequence(&g, flow);
            assert_eq!(fingerprint_design(&free).0, got.4, "{what}: free functions");
            assert_eq!(
                bits(map_qor(&free, &lib, params(MapMode::Delay))),
                delay,
                "{what}"
            );
            assert_eq!(
                bits(map_qor(&free, &lib, params(MapMode::Area))),
                area,
                "{what}"
            );
        }
    }
    assert!(rows.next().is_none(), "stale golden rows");
}
