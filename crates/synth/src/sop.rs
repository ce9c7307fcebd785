//! Sum-of-products resynthesis.
//!
//! The rewriting and refactoring passes re-express a cut function as an
//! irredundant sum of products (ISOP, Minato–Morreale algorithm) and rebuild it
//! as an AND/OR tree on top of the cut leaves.
//!
//! One emitter, `emit_sop`, lays the tree out over a `GateSink`:
//! [`build_sop`] runs it into the graph (`impl GateSink for Aig`) and
//! [`count_sop_nodes`] into a budget-capped dry-run that probes the graph's
//! strash for reuse.  The sweep's pricer counts through it, so what a sweep
//! builds is what it priced, gate call for gate call.

use aig::{Aig, Lit, NodeId, TruthTable};

use crate::decomp::{mux_cost, reuse_and};

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
/// A context-local cache is backed by a [`SharedIsopCache`]: local misses
/// probe the shared tier before computing, and freshly computed covers are
/// published back, so concurrent workers evaluating different flows of the
/// same batch reuse each other's work.
#[derive(Debug, Default)]
pub struct IsopCache {
    map: std::collections::HashMap<TruthTable, Sop>,
    arena: Vec<Cube>,
    /// Overflow slot backing [`isop_ref`](Self::isop_ref) when the cache is
    /// full and the cover cannot live in the map.
    spill: Sop,
    /// The second tier probed on local misses.
    shared: SharedIsopCache,
}

/// Entry cap of [`IsopCache`] (≈ a few MB worst case); beyond it the cache
/// serves hits but stops growing.
const ISOP_CACHE_CAP: usize = 1 << 16;

impl IsopCache {
    /// An empty cache backed by `shared`.
    pub(crate) fn backed_by(shared: SharedIsopCache) -> Self {
        IsopCache {
            shared,
            ..IsopCache::default()
        }
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
            if let Some(sop) = shared.probe(f) {
                return sop;
            }
            let sop = isop_with_arena(f, arena);
            shared.publish(*f, &sop);
            sop
        };
        if map.len() >= ISOP_CACHE_CAP && !map.contains_key(f) {
            *spill = compute(arena);
            return spill;
        }
        map.entry(*f).or_insert_with(|| compute(arena))
    }
}

/// A thread-safe tier of the ISOP memo shared across contexts.
///
/// Every [`crate::PassContext`] has one, which all its propose scratch
/// share; `floweval`'s engine hands one clone of its own to every context
/// it creates ([`crate::PassContext::share_isop_cache`]).  Covers are pure functions of the
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
/// cost estimation share exactly the same structure: the SOP emitter here and
/// the Shannon recursion in [`crate::decomp`] each run once, over either sink.
pub(crate) trait GateSink {
    /// Handle to a (possibly virtual) signal.
    type Signal: Copy;

    /// An existing literal (a cut leaf or a constant).
    fn leaf(&mut self, lit: Lit) -> Self::Signal;
    fn and(&mut self, a: Self::Signal, b: Self::Signal) -> Self::Signal;
    fn not(&mut self, a: Self::Signal) -> Self::Signal;
    /// The multiplexer `sel ? t : e` ([`Aig::mux`]).
    fn mux(&mut self, sel: Lit, t: Self::Signal, e: Self::Signal) -> Self::Signal;
    /// Whether a dry-run has spent its budget; a build never has.
    fn exhausted(&self) -> bool {
        false
    }
}

/// The build sink: every gate goes into the graph.
impl GateSink for Aig {
    type Signal = Lit;

    fn leaf(&mut self, lit: Lit) -> Lit {
        lit
    }
    fn and(&mut self, a: Lit, b: Lit) -> Lit {
        Aig::and(self, a, b)
    }
    fn not(&mut self, a: Lit) -> Lit {
        !a
    }
    fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        Aig::mux(self, sel, t, e)
    }
}

/// The dry-run sink: a signal is the existing literal it would be, or `None`
/// for a node that would have to be created.
pub(crate) struct CostCounter<'a, F: Fn(NodeId) -> bool> {
    /// The graph being costed; reuse is probed with [`Aig::find_and`].
    aig: &'a Aig,
    /// Nodes that may *not* be counted as free reuse (e.g. the MFFC that the
    /// rewrite is about to delete).
    excluded: F,
    added: usize,
    /// The dry-run is exhausted once it adds more nodes than this.
    budget: usize,
    /// Every AND node the dry-run reuses is pushed here.
    reused: &'a mut Vec<NodeId>,
}

impl<'a, F: Fn(NodeId) -> bool> CostCounter<'a, F> {
    pub(crate) fn new(
        aig: &'a Aig,
        excluded: F,
        budget: usize,
        reused: &'a mut Vec<NodeId>,
    ) -> Self {
        CostCounter {
            aig,
            excluded,
            added: 0,
            budget,
            reused,
        }
    }

    /// New AND nodes counted so far.
    pub(crate) fn added(&self) -> usize {
        self.added
    }
}

impl<F: Fn(NodeId) -> bool> GateSink for CostCounter<'_, F> {
    type Signal = Option<Lit>;

    fn leaf(&mut self, lit: Lit) -> Option<Lit> {
        Some(lit)
    }
    fn and(&mut self, a: Option<Lit>, b: Option<Lit>) -> Option<Lit> {
        let found = match (a, b) {
            (Some(x), Some(y)) => reuse_and(self.aig, &self.excluded, x, y, self.reused),
            _ => None,
        };
        self.added += usize::from(found.is_none());
        found
    }
    fn not(&mut self, a: Option<Lit>) -> Option<Lit> {
        a.map(|l| !l)
    }
    /// [`crate::decomp`]'s mux rule: a fresh operand costs the whole mux,
    /// unprobed.
    fn mux(&mut self, sel: Lit, t: Option<Lit>, e: Option<Lit>) -> Option<Lit> {
        let (lit, added) = mux_cost(self.aig, &self.excluded, sel, t, e, self.reused);
        self.added += added;
        lit
    }
    fn exhausted(&self) -> bool {
        self.added > self.budget
    }
}

/// The one SOP emitter: builds (or costs) `sop` over the leaf literals as a
/// balanced AND tree per cube under a balanced AND of the complemented cubes
/// (an OR), and returns `None` once the sink is exhausted.
///
/// `signals` is a recycled buffer (cleared here): the finished cubes occupy
/// its front, the literals of the cube being reduced its tail, and every
/// reduction pairs neighbours level by level in place, so the gate calls —
/// and with them a build's node ids — come in one fixed order.
fn emit_sop<S: GateSink>(
    sink: &mut S,
    sop: &Sop,
    leaves: &[Lit],
    signals: &mut Vec<S::Signal>,
) -> Option<S::Signal> {
    signals.clear();
    if sop.num_cubes() == 0 {
        return Some(sink.leaf(Lit::FALSE));
    }
    for (cube_index, cube) in sop.cubes().iter().enumerate() {
        for (v, &leaf) in leaves.iter().enumerate() {
            if cube.pos >> v & 1 == 1 {
                signals.push(sink.leaf(leaf));
            } else if cube.neg >> v & 1 == 1 {
                signals.push(sink.leaf(!leaf));
            }
        }
        let product = reduce_balanced(sink, &mut signals[cube_index..]);
        signals.truncate(cube_index);
        signals.push(sink.not(product));
        if sink.exhausted() {
            return None;
        }
    }
    let all_off = reduce_balanced(sink, signals);
    let root = sink.not(all_off);
    (!sink.exhausted()).then_some(root)
}

/// ANDs `items` as a balanced tree, pairing neighbours level by level and
/// overwriting the slice's front with each level; the empty AND is true.
fn reduce_balanced<S: GateSink>(sink: &mut S, items: &mut [S::Signal]) -> S::Signal {
    let mut len = items.len();
    if len == 0 {
        return sink.leaf(Lit::TRUE);
    }
    while len > 1 {
        for write in 0..len.div_ceil(2) {
            let read = 2 * write;
            items[write] = if read + 1 < len {
                sink.and(items[read], items[read + 1])
            } else {
                items[read]
            };
        }
        len = len.div_ceil(2);
    }
    items[0]
}

/// Builds the SOP into `aig` on top of `leaves` and returns the root literal.
///
/// Leaf `i` of the SOP corresponds to `leaves[i]`.
pub fn build_sop(aig: &mut Aig, sop: &Sop, leaves: &[Lit]) -> Lit {
    emit_sop(aig, sop, leaves, &mut Vec::new()).expect("a build has no budget")
}

/// Counts the *new* AND nodes [`build_sop`] would add to `aig`, reusing
/// structurally present nodes except those for which `excluded` returns
/// `true`; `signals` is the emitter's recycled buffer.
///
/// Returns `None` as soon as the count exceeds `budget`, `Some(n)` with the
/// count otherwise.  A completed count has pushed every existing AND node it
/// reuses (each strash hit outside `excluded`) onto `reused`: the nodes the
/// built structure would keep alive.  The count is an upper bound on what
/// the build adds, which also shares structure within itself.
pub fn count_sop_nodes(
    aig: &Aig,
    sop: &Sop,
    leaves: &[Lit],
    excluded: impl Fn(NodeId) -> bool,
    budget: usize,
    reused: &mut Vec<NodeId>,
    signals: &mut Vec<Option<Lit>>,
) -> Option<usize> {
    let mut counter = CostCounter::new(aig, excluded, budget, reused);
    emit_sop(&mut counter, sop, leaves, signals)?;
    Some(counter.added())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A graph over eight inputs with random existing structure, every node
    /// kept alive by an output, so builds and counts over its inputs meet
    /// strash hits.  Returns the graph and its input literals.
    pub(crate) fn structured_graph(seed: u64) -> (Aig, Vec<Lit>) {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 8);
        let mut lits = inputs.clone();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |bound: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound
        };
        for _ in 0..60 {
            let a = lits[next(lits.len())] ^ (next(2) == 1);
            let b = lits[next(lits.len())] ^ (next(2) == 1);
            let l = g.and(a, b);
            if !l.is_const() {
                lits.push(l);
            }
        }
        for (i, &l) in lits[inputs.len()..].iter().enumerate() {
            g.add_output(format!("keep{i}"), l);
        }
        (g, inputs)
    }

    /// The exclusion sets the build-versus-count tests price under: none,
    /// two scattered ones, and every node.
    pub(crate) const EXCLUSIONS: [fn(NodeId) -> bool; 4] =
        [|_| false, |n| n % 3 == 0, |n| n % 2 == 1, |_| true];

    /// Builds `f` over `leaves` into a copy of `g` with `build`, and asserts
    /// that the build adds at most `estimate` ANDs and that its root
    /// computes `f`.
    pub(crate) fn assert_build_within(
        g: &Aig,
        leaves: &[Lit],
        f: &TruthTable,
        estimate: usize,
        build: impl FnOnce(&mut Aig, &TruthTable, &[Lit]) -> Lit,
        what: &str,
    ) {
        let mut built = g.clone();
        let root = build(&mut built, f, leaves);
        let added = built.num_ands() - g.num_ands();
        assert!(
            added <= estimate,
            "{what}: built {added} > estimated {estimate}"
        );
        built.add_output("f", root);
        let sim = aig::Simulator::new(&built);
        for row in 0..f.num_rows() {
            let bits: Vec<bool> = (0..built.num_inputs()).map(|i| row >> i & 1 == 1).collect();
            let got = *sim.evaluate(&bits).last().expect("the root is an output");
            assert_eq!(got, f.get(row), "{what}: row {row}");
        }
    }

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
    fn capped_count_is_the_uncapped_count_within_budget() {
        let mut g = Aig::new();
        let inputs = g.add_inputs("x", 6);
        // Pre-existing structure so the reuse path (find_and) is exercised.
        let ab = g.and(inputs[0], inputs[1]);
        let cd = g.and(inputs[2], !inputs[3]);
        let top = g.and(ab, cd);
        g.add_output("keep", top);
        let mut signals = Vec::new();
        for num_vars in 1..=6usize {
            for seed in 1..=15u64 {
                let f = random_truth(num_vars, seed * 31 + num_vars as u64);
                let sop = isop(&f);
                let leaves = &inputs[..num_vars];
                for excluded in [ab.node(), top.node(), usize::MAX] {
                    let excluded = |n| n == excluded;
                    let mut hits = Vec::new();
                    let uncapped = count_sop_nodes(
                        &g,
                        &sop,
                        leaves,
                        excluded,
                        usize::MAX,
                        &mut hits,
                        &mut signals,
                    )
                    .expect("uncapped");
                    // Some(the uncapped count, same hits) within the budget,
                    // None past it.
                    for budget in [0, uncapped.saturating_sub(1), uncapped, uncapped + 3] {
                        let mut recorded = Vec::new();
                        let capped = count_sop_nodes(
                            &g,
                            &sop,
                            leaves,
                            excluded,
                            budget,
                            &mut recorded,
                            &mut signals,
                        );
                        let want = (uncapped <= budget).then_some(uncapped);
                        assert_eq!(want, capped, "nv={num_vars} seed={seed} budget={budget}");
                        if capped.is_some() {
                            assert_eq!(hits, recorded, "nv={num_vars} seed={seed}");
                        }
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
        let count = |excluded: &dyn Fn(NodeId) -> bool| {
            count_sop_nodes(
                &g,
                &cover,
                &[a, b, c],
                excluded,
                usize::MAX,
                &mut Vec::new(),
                &mut Vec::new(),
            )
        };
        assert_eq!(count(&|_| false), Some(1));
        // With the existing node excluded (e.g. it is in the MFFC being replaced),
        // the estimate must pay for it again.
        assert_eq!(count(&|id| id == ab.node()), Some(2));
    }

    #[test]
    fn count_is_an_upper_bound_on_build() {
        // Random covers of every width the passes build, on a graph whose
        // existing structure the build and the count both meet, under
        // several exclusion sets: strash hits the count may not take (and
        // sharing within the build itself) only make the build cheaper.
        let mut signals = Vec::new();
        for num_vars in 1..=8usize {
            for seed in 1..=8u64 {
                let (g, inputs) = structured_graph(seed);
                let f = random_truth(num_vars, seed * 7 + num_vars as u64);
                let cover = isop(&f);
                let leaves = &inputs[..num_vars];
                for excluded in EXCLUSIONS {
                    let estimate = count_sop_nodes(
                        &g,
                        &cover,
                        leaves,
                        excluded,
                        usize::MAX,
                        &mut Vec::new(),
                        &mut signals,
                    )
                    .expect("uncapped");
                    let build = |aig: &mut Aig, _: &TruthTable, leaves: &[Lit]| {
                        build_sop(aig, &cover, leaves)
                    };
                    let what = format!("nv={num_vars} seed={seed}");
                    assert_build_within(&g, leaves, &f, estimate, build, &what);
                }
            }
        }
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
