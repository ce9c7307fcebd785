//! Sum-of-products resynthesis.
//!
//! The rewriting and refactoring passes re-express a cut function as an
//! irredundant sum of products (ISOP, Minato–Morreale algorithm) and rebuild it
//! as an AND/OR tree on top of the cut leaves.  A dry-run cost estimator shares
//! the construction logic so the gain of a candidate rewrite can be evaluated
//! before committing to it.

use aig::{Aig, Lit, NodeId, TruthTable};

/// One product term over the cut leaves.
///
/// Bit `i` of `pos` (`neg`) means leaf `i` appears positively (negatively) in
/// the product.  A cube with both masks empty is the constant-true product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cube {
    /// Positive-literal mask.
    pub pos: u32,
    /// Negative-literal mask.
    pub neg: u32,
}

impl Cube {
    /// The constant-true cube (no literals).
    pub const TRUE: Cube = Cube { pos: 0, neg: 0 };

    /// Number of literals in the cube.
    pub fn num_literals(&self) -> u32 {
        self.pos.count_ones() + self.neg.count_ones()
    }

    /// Returns the characteristic function of the cube over `num_vars` variables.
    pub fn truth(&self, num_vars: usize) -> TruthTable {
        let mut t = TruthTable::ones(num_vars);
        for v in 0..num_vars {
            if self.pos >> v & 1 == 1 {
                t = t.and(&TruthTable::var(v, num_vars));
            }
            if self.neg >> v & 1 == 1 {
                t = t.and(&TruthTable::var(v, num_vars).not());
            }
        }
        t
    }
}

/// A sum of products: the function is the OR of all cubes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sop {
    cubes: Vec<Cube>,
}

impl Sop {
    /// The constant-false cover (no cubes).
    pub fn zero() -> Self {
        Sop { cubes: Vec::new() }
    }

    /// The constant-true cover (one empty cube).
    pub fn one() -> Self {
        Sop {
            cubes: vec![Cube::TRUE],
        }
    }

    /// The cubes of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Total number of literals over all cubes.
    pub fn num_literals(&self) -> u32 {
        self.cubes.iter().map(Cube::num_literals).sum()
    }

    /// Returns the characteristic function of the cover.
    pub fn truth(&self, num_vars: usize) -> TruthTable {
        let mut t = TruthTable::zeros(num_vars);
        for c in &self.cubes {
            t = t.or(&c.truth(num_vars));
        }
        t
    }
}

/// Computes an irredundant sum-of-products cover of `f` (Minato–Morreale).
///
/// The cover is exact: `isop(f).truth(n) == *f`.  This is the oracle, which
/// builds one `Vec` of cubes per recursive call; the passes go through
/// [`IsopCache`], which produces the identical cover through a recycled cube
/// arena and memoizes it.
pub fn isop(f: &TruthTable) -> Sop {
    let n = f.num_vars();
    let (cover, _) = isop_rec(f, f, n, n);
    cover
}

/// [`isop`] through a caller-owned cube arena (cleared on entry).
///
/// The oracle recursion builds one `Vec<Cube>` per interior call and
/// copies child cubes into the parent at every level; here every interior
/// cover is a contiguous range of `arena` and the variable-insertion step
/// mutates the ranges in place, so one ISOP performs a single allocation —
/// the returned cover — and zero cube copies.  The cover is bit-identical to
/// [`isop`] (same recursion, same cube order: `!v`-cubes, then `v`-cubes,
/// then the shared remainder).
fn isop_with_arena(f: &TruthTable, arena: &mut Vec<Cube>) -> Sop {
    let n = f.num_vars();
    arena.clear();
    let _ = isop_arena_rec(f, f, n, n, arena);
    Sop {
        cubes: arena.as_slice().to_vec(),
    }
}

/// A memoizing ISOP front: covers are pure functions of the truth table, so
/// the pass pipeline caches them across nodes, passes and whole flows.
///
/// Real designs repeat cut functions heavily (replicated S-boxes, datapath
/// slices), and successive passes of a flow revisit mostly-unchanged cones;
/// a hit replaces the whole Minato–Morreale recursion with one clone of the
/// cached cover.  Determinism of `isop` makes hits bit-identical to misses.
///
/// A context-local cache can additionally be backed by a process-wide
/// [`SharedIsopCache`]: local misses probe the shared tier before computing,
/// and freshly computed covers are published back, so concurrent workers
/// evaluating different flows of the same batch reuse each other's work.
#[derive(Debug, Default)]
pub struct IsopCache {
    map: std::collections::HashMap<TruthTable, Sop>,
    arena: Vec<Cube>,
    /// Overflow slot backing [`isop_ref`](Self::isop_ref) when the cache is
    /// full and the cover cannot live in the map.
    spill: Sop,
    /// Optional process-wide second tier probed on local misses.
    shared: Option<SharedIsopCache>,
}

/// Entry cap of [`IsopCache`] (≈ a few MB worst case); beyond it the cache
/// serves hits but stops growing.
const ISOP_CACHE_CAP: usize = 1 << 16;

impl IsopCache {
    /// Attaches (or detaches) the shared second tier.
    pub(crate) fn set_shared(&mut self, shared: Option<SharedIsopCache>) {
        self.shared = shared;
    }

    /// [`isop`] with memoization; the cover is bit-identical.
    pub fn isop(&mut self, f: &TruthTable) -> Sop {
        self.isop_ref(f).clone()
    }

    /// [`isop`](Self::isop) returning a borrowed cover: the winner-only
    /// propose path costs many covers per node and materialises only the
    /// best, so it reads the cache without cloning.  The borrow is valid
    /// until the next call on the cache.
    pub(crate) fn isop_ref(&mut self, f: &TruthTable) -> &Sop {
        let IsopCache {
            map,
            arena,
            spill,
            shared,
        } = self;
        let compute = |arena: &mut Vec<Cube>| {
            if let Some(sop) = shared.as_ref().and_then(|s| s.probe(f)) {
                return sop;
            }
            let sop = isop_with_arena(f, arena);
            if let Some(s) = shared.as_ref() {
                s.publish(*f, &sop);
            }
            sop
        };
        if map.len() >= ISOP_CACHE_CAP && !map.contains_key(f) {
            *spill = compute(arena);
            return spill;
        }
        map.entry(*f).or_insert_with(|| compute(arena))
    }
}

/// A process-wide, thread-safe tier of the ISOP memo shared across contexts.
///
/// `floweval`'s engine hands one clone of this to every
/// [`crate::PassContext`] it creates; covers are pure functions of the
/// truth table and `isop` is deterministic, so a cross-worker hit returns
/// exactly the cover the worker would have computed — sharing is QoR-neutral
/// by construction and only saves the Minato–Morreale recursion.
///
/// Cheap to clone (an `Arc` handle).  Reads take a shared `RwLock` guard;
/// writes are one short exclusive insert per *distinct* truth function in the
/// whole batch, so contention stays negligible.
#[derive(Debug, Clone, Default)]
pub struct SharedIsopCache {
    inner: std::sync::Arc<SharedIsopInner>,
}

#[derive(Debug, Default)]
struct SharedIsopInner {
    map: std::sync::RwLock<std::collections::HashMap<TruthTable, Sop>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

/// Entry cap of the shared tier (larger than the per-context cap: it serves
/// a whole batch of flows across all workers).
const SHARED_ISOP_CACHE_CAP: usize = 1 << 18;

impl SharedIsopCache {
    /// Creates an empty shared cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached covers.
    pub fn len(&self) -> usize {
        self.inner.map.read().expect("isop cache poisoned").len()
    }

    /// Whether the cache holds no covers yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cross-context hits served so far.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Probes that fell through to a local computation.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn probe(&self, key: &TruthTable) -> Option<Sop> {
        let got = self
            .inner
            .map
            .read()
            .expect("isop cache poisoned")
            .get(key)
            .cloned();
        let counter = if got.is_some() {
            &self.inner.hits
        } else {
            &self.inner.misses
        };
        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        got
    }

    fn publish(&self, key: TruthTable, sop: &Sop) {
        let mut map = self.inner.map.write().expect("isop cache poisoned");
        if map.len() < SHARED_ISOP_CACHE_CAP {
            map.entry(key).or_insert_with(|| sop.clone());
        }
    }
}

/// Arena recursion of [`isop_with_arena`]: appends the cover of the interval
/// to `arena` and returns its characteristic function.
fn isop_arena_rec(
    lower: &TruthTable,
    upper: &TruthTable,
    var: usize,
    num_vars: usize,
    arena: &mut Vec<Cube>,
) -> TruthTable {
    if lower.is_zero() {
        return TruthTable::zeros(num_vars);
    }
    if upper.is_one() {
        arena.push(Cube::TRUE);
        return TruthTable::ones(num_vars);
    }
    // Find the topmost variable either bound depends on.
    let mut v = var;
    loop {
        assert!(v > 0, "non-constant function must depend on some variable");
        v -= 1;
        if lower.depends_on(v) || upper.depends_on(v) {
            break;
        }
    }
    let l0 = lower.cofactor0(v);
    let l1 = lower.cofactor1(v);
    let u0 = upper.cofactor0(v);
    let u1 = upper.cofactor1(v);
    let start0 = arena.len();
    // Cubes that must contain !v.
    let f0 = isop_arena_rec(&l0.and(&u1.not()), &u0, v, num_vars, arena);
    let start1 = arena.len();
    // Cubes that must contain v.
    let f1 = isop_arena_rec(&l1.and(&u0.not()), &u1, v, num_vars, arena);
    let start_star = arena.len();
    // Remaining onset not yet covered, independent of v.
    let l_new = l0.and(&f0.not()).or(&l1.and(&f1.not()));
    let fstar = isop_arena_rec(&l_new, &u0.and(&u1), v, num_vars, arena);
    for c in &mut arena[start0..start1] {
        c.neg |= 1 << v;
    }
    for c in &mut arena[start1..start_star] {
        c.pos |= 1 << v;
    }
    let var_t = TruthTable::var(v, num_vars);
    f0.and(&var_t.not()).or(&f1.and(&var_t)).or(&fstar)
}

/// Recursive ISOP over the interval `[lower, upper]`; returns the cover and its
/// characteristic function.
fn isop_rec(
    lower: &TruthTable,
    upper: &TruthTable,
    var: usize,
    num_vars: usize,
) -> (Sop, TruthTable) {
    if lower.is_zero() {
        return (Sop::zero(), TruthTable::zeros(num_vars));
    }
    if upper.is_one() {
        return (Sop::one(), TruthTable::ones(num_vars));
    }
    // Find the topmost variable either bound depends on.
    let mut v = var;
    loop {
        assert!(v > 0, "non-constant function must depend on some variable");
        v -= 1;
        if lower.depends_on(v) || upper.depends_on(v) {
            break;
        }
    }
    let l0 = lower.cofactor0(v);
    let l1 = lower.cofactor1(v);
    let u0 = upper.cofactor0(v);
    let u1 = upper.cofactor1(v);
    // Cubes that must contain !v.
    let (c0, f0) = isop_rec(&l0.and(&u1.not()), &u0, v, num_vars);
    // Cubes that must contain v.
    let (c1, f1) = isop_rec(&l1.and(&u0.not()), &u1, v, num_vars);
    // Remaining onset not yet covered, independent of v.
    let l_new = l0.and(&f0.not()).or(&l1.and(&f1.not()));
    let (cstar, fstar) = isop_rec(&l_new, &u0.and(&u1), v, num_vars);
    let mut cubes = Vec::with_capacity(c0.num_cubes() + c1.num_cubes() + cstar.num_cubes());
    for c in c0.cubes() {
        cubes.push(Cube {
            pos: c.pos,
            neg: c.neg | 1 << v,
        });
    }
    for c in c1.cubes() {
        cubes.push(Cube {
            pos: c.pos | 1 << v,
            neg: c.neg,
        });
    }
    cubes.extend_from_slice(cstar.cubes());
    let var_t = TruthTable::var(v, num_vars);
    let cover_fn = f0.and(&var_t.not()).or(&f1.and(&var_t)).or(&fstar);
    (Sop { cubes }, cover_fn)
}

// ---------------------------------------------------------------------------
// Construction / cost estimation
// ---------------------------------------------------------------------------

/// Abstraction over "building an AND" so the real construction and the dry-run
/// cost estimation share exactly the same structure.
trait GateSink {
    /// Handle to a (possibly virtual) signal.
    type Signal: Copy;

    fn leaf(&mut self, lit: Lit) -> Self::Signal;
    fn constant(&mut self, value: bool) -> Self::Signal;
    fn and(&mut self, a: Self::Signal, b: Self::Signal) -> Self::Signal;
    fn not(&mut self, a: Self::Signal) -> Self::Signal;
}

struct RealBuilder<'a> {
    aig: &'a mut Aig,
}

impl GateSink for RealBuilder<'_> {
    type Signal = Lit;

    fn leaf(&mut self, lit: Lit) -> Lit {
        lit
    }
    fn constant(&mut self, value: bool) -> Lit {
        if value {
            Lit::TRUE
        } else {
            Lit::FALSE
        }
    }
    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        self.aig.and(a, b)
    }
    fn not(&mut self, a: Lit) -> Lit {
        !a
    }
}

/// A signal during cost estimation: either an existing literal or a virtual
/// node that would have to be created.
#[derive(Debug, Clone, Copy)]
enum CostSignal {
    Existing(Lit),
    Virtual { complemented: bool },
}

struct CostCounter<'a, F: Fn(NodeId) -> bool> {
    /// The graph being costed; reuse is probed with [`Aig::find_and`].
    aig: &'a Aig,
    /// Nodes that may *not* be counted as free reuse (e.g. the MFFC that the
    /// rewrite is about to delete).
    excluded: F,
    added: usize,
    /// When set, every AND node the dry-run reuses is pushed here.
    reused: Option<&'a mut Vec<NodeId>>,
}

impl<F: Fn(NodeId) -> bool> GateSink for CostCounter<'_, F> {
    type Signal = CostSignal;

    fn leaf(&mut self, lit: Lit) -> CostSignal {
        CostSignal::Existing(lit)
    }
    fn constant(&mut self, value: bool) -> CostSignal {
        CostSignal::Existing(if value { Lit::TRUE } else { Lit::FALSE })
    }
    fn and(&mut self, a: CostSignal, b: CostSignal) -> CostSignal {
        if let (CostSignal::Existing(x), CostSignal::Existing(y)) = (a, b) {
            if let Some(found) = self.aig.find_and(x, y) {
                if found.is_const() || !(self.excluded)(found.node()) {
                    if let Some(reused) = self.reused.as_deref_mut() {
                        if !found.is_const() {
                            reused.push(found.node());
                        }
                    }
                    return CostSignal::Existing(found);
                }
            }
        }
        self.added += 1;
        CostSignal::Virtual {
            complemented: false,
        }
    }
    fn not(&mut self, a: CostSignal) -> CostSignal {
        match a {
            CostSignal::Existing(l) => CostSignal::Existing(!l),
            CostSignal::Virtual { complemented } => CostSignal::Virtual {
                complemented: !complemented,
            },
        }
    }
}

/// Builds (or costs) the SOP over the given leaf literals using balanced
/// AND/OR trees.
fn emit_sop<S: GateSink>(sink: &mut S, sop: &Sop, leaves: &[Lit]) -> S::Signal {
    if sop.num_cubes() == 0 {
        return sink.constant(false);
    }
    let mut cube_signals = Vec::with_capacity(sop.num_cubes());
    for cube in sop.cubes() {
        let mut lits = Vec::new();
        for (v, &leaf) in leaves.iter().enumerate() {
            if cube.pos >> v & 1 == 1 {
                lits.push(sink.leaf(leaf));
            } else if cube.neg >> v & 1 == 1 {
                let l = sink.leaf(leaf);
                lits.push(sink.not(l));
            }
        }
        let product = reduce_balanced(sink, lits, true);
        cube_signals.push(product);
    }
    // OR of cubes: complement, AND, complement.
    let negated: Vec<S::Signal> = cube_signals.into_iter().map(|s| sink.not(s)).collect();
    let all_off = reduce_balanced(sink, negated, true);
    sink.not(all_off)
}

fn reduce_balanced<S: GateSink>(
    sink: &mut S,
    mut items: Vec<S::Signal>,
    and_identity: bool,
) -> S::Signal {
    if items.is_empty() {
        return sink.constant(and_identity);
    }
    while items.len() > 1 {
        let mut next = Vec::with_capacity(items.len().div_ceil(2));
        let mut it = items.into_iter();
        while let Some(a) = it.next() {
            if let Some(b) = it.next() {
                next.push(sink.and(a, b));
            } else {
                next.push(a);
            }
        }
        items = next;
    }
    items.pop().expect("non-empty")
}

/// Builds the SOP into `aig` on top of `leaves` and returns the root literal.
///
/// Leaf `i` of the SOP corresponds to `leaves[i]`.
pub fn build_sop(aig: &mut Aig, sop: &Sop, leaves: &[Lit]) -> Lit {
    let mut builder = RealBuilder { aig };
    emit_sop(&mut builder, sop, leaves)
}

/// Estimates how many *new* AND nodes building the SOP would add to `aig`,
/// reusing structurally present nodes except those for which `excluded`
/// returns `true`.
pub fn count_sop_nodes(
    aig: &Aig,
    sop: &Sop,
    leaves: &[Lit],
    excluded: impl Fn(NodeId) -> bool,
) -> usize {
    count_sop_nodes_reusing(aig, sop, leaves, excluded, &mut Vec::new())
}

/// [`count_sop_nodes`] that also pushes every existing AND node the count
/// reuses (each strash hit outside `excluded`) onto `reused`: the nodes the
/// built structure would keep alive.
pub fn count_sop_nodes_reusing(
    aig: &Aig,
    sop: &Sop,
    leaves: &[Lit],
    excluded: impl Fn(NodeId) -> bool,
    reused: &mut Vec<NodeId>,
) -> usize {
    let mut counter = CostCounter {
        aig,
        excluded,
        added: 0,
        reused: Some(reused),
    };
    emit_sop(&mut counter, sop, leaves);
    counter.added
}

/// Reusable buffers of the passes' SOP cost dry-run.
#[derive(Debug, Default)]
pub struct SopCostScratch {
    cube_signals: Vec<CostSignal>,
    lits: Vec<CostSignal>,
}

/// [`count_sop_nodes`] allocating nothing (cube/literal signal vectors are
/// recycled and the balanced reduction runs in place) and capped at
/// `budget` — the passes' cost estimator.
///
/// Returns `None` as soon as the count provably exceeds `budget`, `Some(n)`
/// with the exact count otherwise.  The cap is lossless for the sweep's
/// accept loop: a proposal is only viable when `added <= mffc_size -
/// min_gain`, so callers pass that bound as the budget — capped covers are
/// exactly the ones the accept loop would reject, and surviving counts are
/// bit-identical to the uncapped dry-run.
pub(crate) fn count_sop_nodes_sweep(
    aig: &Aig,
    sop: &Sop,
    leaves: &[Lit],
    excluded: impl Fn(NodeId) -> bool,
    scratch: &mut SopCostScratch,
    budget: usize,
) -> Option<usize> {
    let mut counter = CostCounter {
        aig,
        excluded,
        added: 0,
        reused: None,
    };
    if sop.num_cubes() == 0 {
        return Some(0); // emit_sop returns the constant; nothing is added
    }
    let SopCostScratch { cube_signals, lits } = scratch;
    cube_signals.clear();
    for cube in sop.cubes() {
        lits.clear();
        for (v, &leaf) in leaves.iter().enumerate() {
            if cube.pos >> v & 1 == 1 {
                lits.push(counter.leaf(leaf));
            } else if cube.neg >> v & 1 == 1 {
                let l = counter.leaf(leaf);
                lits.push(counter.not(l));
            }
        }
        let product = reduce_balanced_in_place(&mut counter, lits, true);
        cube_signals.push(product);
        if counter.added > budget {
            return None;
        }
    }
    // OR of cubes: complement, AND, complement — same shape as emit_sop.
    for s in cube_signals.iter_mut() {
        *s = counter.not(*s);
    }
    let all_off = reduce_balanced_in_place(&mut counter, cube_signals, true);
    let _ = counter.not(all_off);
    if counter.added > budget {
        return None;
    }
    Some(counter.added)
}

/// [`reduce_balanced`] over a recycled vector: identical pairing order, the
/// level's results overwrite the vector's front instead of a fresh `Vec`.
fn reduce_balanced_in_place<S: GateSink>(
    sink: &mut S,
    items: &mut Vec<S::Signal>,
    and_identity: bool,
) -> S::Signal {
    if items.is_empty() {
        return sink.constant(and_identity);
    }
    while items.len() > 1 {
        let mut write = 0;
        let mut read = 0;
        while read < items.len() {
            items[write] = if read + 1 < items.len() {
                sink.and(items[read], items[read + 1])
            } else {
                items[read]
            };
            write += 1;
            read += 2;
        }
        items.truncate(write);
    }
    items[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_truth(num_vars: usize, seed: u64) -> TruthTable {
        let mut t = TruthTable::zeros(num_vars);
        let mut state = seed | 1;
        for row in 0..t.num_rows() {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            if state.wrapping_mul(0x2545_F491_4F6C_DD1D) & 1 == 1 {
                t.set(row, true);
            }
        }
        t
    }

    #[test]
    fn isop_covers_exactly() {
        for num_vars in 1..=6 {
            for seed in 1..=10u64 {
                let f = random_truth(num_vars, seed * 7 + num_vars as u64);
                let cover = isop(&f);
                assert_eq!(cover.truth(num_vars), f, "nv={num_vars} seed={seed}");
            }
        }
    }

    #[test]
    fn isop_fast_is_identical_to_reference() {
        let mut arena = Vec::new();
        for num_vars in 1..=aig::MAX_TRUTH_VARS {
            for seed in 1..=12u64 {
                let f = random_truth(num_vars, seed * 13 + num_vars as u64);
                assert_eq!(
                    isop(&f),
                    isop_with_arena(&f, &mut arena),
                    "nv={num_vars} seed={seed}"
                );
            }
        }
        for f in [TruthTable::zeros(4), TruthTable::ones(4)] {
            assert_eq!(isop(&f), isop_with_arena(&f, &mut arena));
        }
    }

    #[test]
    fn isop_arena_and_cache_are_identical_to_reference() {
        let mut cache = IsopCache::default();
        for num_vars in 1..=8 {
            for seed in 1..=12u64 {
                let f = random_truth(num_vars, seed * 13 + num_vars as u64);
                let reference = isop(&f);
                // Twice through the cache: miss then hit, both identical,
                // owned and borrowed.
                assert_eq!(reference, cache.isop(&f), "miss nv={num_vars} seed={seed}");
                assert_eq!(reference, cache.isop(&f), "hit nv={num_vars} seed={seed}");
                assert_eq!(
                    &reference,
                    cache.isop_ref(&f),
                    "ref nv={num_vars} seed={seed}"
                );
            }
        }
        assert_eq!(isop(&TruthTable::ones(4)), cache.isop(&TruthTable::ones(4)));
    }

    #[test]
    fn scratch_cost_counter_is_identical_to_reference() {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 6);
        // Pre-existing structure so the reuse path (find_and) is exercised.
        let ab = g.and(inputs[0], inputs[1]);
        let cd = g.and(inputs[2], !inputs[3]);
        let top = g.and(ab, cd);
        g.add_output("keep", top);
        let mut scratch = SopCostScratch::default();
        for num_vars in 1..=6usize {
            for seed in 1..=15u64 {
                let f = random_truth(num_vars, seed * 31 + num_vars as u64);
                let sop = isop(&f);
                let leaves = &inputs[..num_vars];
                for excluded in [ab.node(), top.node(), usize::MAX] {
                    let reference = count_sop_nodes(&g, &sop, leaves, |n| n == excluded);
                    // Some(exact count) within the budget, None past it.
                    for budget in [0, reference.saturating_sub(1), reference, usize::MAX] {
                        let fast = count_sop_nodes_sweep(
                            &g,
                            &sop,
                            leaves,
                            |n| n == excluded,
                            &mut scratch,
                            budget,
                        );
                        let want = (reference <= budget).then_some(reference);
                        assert_eq!(want, fast, "nv={num_vars} seed={seed} budget={budget}");
                    }
                }
            }
        }
    }

    #[test]
    fn isop_of_constants() {
        assert_eq!(isop(&TruthTable::zeros(3)).num_cubes(), 0);
        let one = isop(&TruthTable::ones(3));
        assert_eq!(one.num_cubes(), 1);
        assert_eq!(one.cubes()[0], Cube::TRUE);
    }

    #[test]
    fn isop_of_single_variable() {
        let f = TruthTable::var(2, 4);
        let cover = isop(&f);
        assert_eq!(cover.num_cubes(), 1);
        assert_eq!(
            cover.cubes()[0],
            Cube {
                pos: 1 << 2,
                neg: 0
            }
        );
        let g = f.not();
        let cover_n = isop(&g);
        assert_eq!(
            cover_n.cubes()[0],
            Cube {
                pos: 0,
                neg: 1 << 2
            }
        );
    }

    #[test]
    fn isop_is_reasonably_small_for_and() {
        let a = TruthTable::var(0, 4);
        let b = TruthTable::var(1, 4);
        let c = TruthTable::var(2, 4);
        let d = TruthTable::var(3, 4);
        let f = a.and(&b).and(&c).and(&d);
        let cover = isop(&f);
        assert_eq!(cover.num_cubes(), 1);
        assert_eq!(cover.num_literals(), 4);
    }

    #[test]
    fn build_sop_realises_the_function() {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 4);
        for seed in 1..=6u64 {
            let f = random_truth(4, seed);
            let cover = isop(&f);
            let root = build_sop(&mut g, &cover, &inputs);
            // Verify by simulation over all 16 assignments.
            let mut probe = g.clone();
            probe.add_output("f", root);
            let sim = aig::Simulator::new(&probe);
            for row in 0..16 {
                let bits: Vec<bool> = (0..4).map(|i| row >> i & 1 == 1).collect();
                let got = *sim.evaluate(&bits).last().expect("one output");
                assert_eq!(got, f.get(row), "seed={seed} row={row}");
            }
        }
    }

    #[test]
    fn cost_estimation_reuses_existing_structure() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.and(a, b);
        g.add_output("keep", ab);
        // f = a & b & c : the a&b part already exists, so only one new node is needed.
        let t = TruthTable::var(0, 3)
            .and(&TruthTable::var(1, 3))
            .and(&TruthTable::var(2, 3));
        let cover = isop(&t);
        let added = count_sop_nodes(&g, &cover, &[a, b, c], |_| false);
        assert_eq!(added, 1);
        // With the existing node excluded (e.g. it is in the MFFC being replaced),
        // the estimate must pay for it again.
        let added_excl = count_sop_nodes(&g, &cover, &[a, b, c], |id| id == ab.node());
        assert_eq!(added_excl, 2);
    }

    #[test]
    fn cost_matches_actual_build_for_fresh_structure() {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 4);
        let f = random_truth(4, 99);
        let cover = isop(&f);
        let estimated = count_sop_nodes(&g, &cover, &inputs, |_| false);
        let before = g.num_ands();
        let _ = build_sop(&mut g, &cover, &inputs);
        let actual = g.num_ands() - before;
        assert!(
            actual <= estimated,
            "structural hashing can only make the real build cheaper: actual {actual} vs estimated {estimated}"
        );
    }

    #[test]
    fn cube_truth_and_literals() {
        let c = Cube {
            pos: 0b01,
            neg: 0b10,
        };
        assert_eq!(c.num_literals(), 2);
        let t = c.truth(2);
        assert!(t.get(0b01));
        assert!(!t.get(0b11));
        assert!(!t.get(0b00));
    }
}
