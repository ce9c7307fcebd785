//! Zero-allocation 4-feasible cut enumeration with fused truth computation.
//!
//! This is the enumerator under every 4-cut consumer (`rewrite`, the technology
//! mapper): cuts carry their leaves inline (`[u32; 4]` plus a length), the
//! cross-merge loop never touches the heap, and — crucially — every cut carries
//! the function of its root over its leaves as a packed `u16` truth table,
//! computed *during* the merge by expanding the fanin truths onto the merged
//! leaf set with bitwise operations.  This eliminates the per-(node, cut)
//! hash-map cone walk of [`cut_truth`](crate::cut_truth) entirely.
//!
//! Each AND node's cut set is the dominance-filtered cross-merge of its
//! fanins' sets, capped at `max_cuts_per_node`; a node gets its unit cut
//! `{node}` only when no merged cut survives.  `synth`'s test-only oracle
//! enumerates the same cuts on heap-allocated leaf vectors, and its
//! differential tests hold this module to it cut for cut.

use crate::{Aig, NodeId, TruthTable};

/// Maximum number of leaves of a [`Cut4`].
pub const CUT4_MAX_LEAVES: usize = 4;

/// Maximum number of cuts a [`CutSet4`] can hold per node.
pub const CUT4_SET_CAPACITY: usize = 16;

/// Truth-table bit masks of the four variables over a 4-variable domain
/// (bit `r` of `VAR4_MASKS[v]` is set iff bit `v` of row `r` is set).
const VAR4_MASKS: [u16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

/// Meaningful-bit mask of a packed truth over `len` variables.
#[inline]
const fn tail4(len: usize) -> u16 {
    if len >= 4 {
        0xFFFF
    } else {
        ((1u32 << (1 << len)) - 1) as u16
    }
}

/// `INSERT_LUT[p][t]` inserts a fresh (don't-care) variable at position `p`
/// into the packed truth `t` (which must span at most 3 variables, i.e. fit in
/// 8 bits): `out(row) = t(row with bit p removed)`.
const fn build_insert_lut() -> [[u16; 256]; 4] {
    let mut lut = [[0u16; 256]; 4];
    let mut p = 0;
    while p < 4 {
        let mut t = 0usize;
        while t < 256 {
            let mut out: u16 = 0;
            let mut row = 0usize;
            while row < 16 {
                let src = ((row >> (p + 1)) << p) | (row & ((1 << p) - 1));
                if (t >> src) & 1 == 1 {
                    out |= 1 << row;
                }
                row += 1;
            }
            lut[p][t] = out;
            t += 1;
        }
        p += 1;
    }
    lut
}

static INSERT_LUT: [[u16; 256]; 4] = build_insert_lut();

/// Expands a packed truth from variable order `old` to the superset order
/// `new` (both sorted by node id; `old ⊆ new`, `new.len() <= 4`).
#[inline]
fn expand_truth(mut truth: u16, old: &[u32], new: &[u32]) -> u16 {
    let mut i = 0;
    for (p, &leaf) in new.iter().enumerate() {
        if i < old.len() && old[i] == leaf {
            i += 1;
        } else {
            debug_assert!(truth <= 0xFF, "insertion input must span <= 3 vars");
            truth = INSERT_LUT[p][truth as usize];
        }
    }
    truth
}

/// A 4-feasible cut with inline leaves and its fused function.
///
/// The packed `truth` is the function of the cut's root node expressed over the
/// leaves in sorted order (leaf `i` is variable `i`); only the low `2^len` bits
/// are meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cut4 {
    leaves: [u32; 4],
    len: u8,
    signature: u64,
    truth: u16,
}

impl Cut4 {
    /// Creates the trivial cut `{node}` (function: projection of the node).
    pub fn trivial(node: NodeId) -> Self {
        Cut4 {
            leaves: [node as u32, 0, 0, 0],
            len: 1,
            signature: sig_of(node as u32),
            truth: 0b10,
        }
    }

    /// The leaf nodes of the cut, sorted by id.
    #[inline]
    pub fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len as usize]
    }

    /// The leaves as [`NodeId`]s (allocates; use [`Cut4::leaves`] on hot paths).
    pub fn leaf_ids(&self) -> Vec<NodeId> {
        self.leaves().iter().map(|&l| l as NodeId).collect()
    }

    /// Number of leaves.
    #[inline]
    pub fn size(&self) -> usize {
        self.len as usize
    }

    /// The packed function of the cut's root over its leaves.
    #[inline]
    pub fn truth(&self) -> u16 {
        self.truth
    }

    /// The fused function as a [`TruthTable`] over `size()` variables.
    pub fn truth_table(&self) -> TruthTable {
        TruthTable::from_words(self.size(), &[u64::from(self.truth)])
    }

    /// Returns `true` if `self`'s leaves are a subset of `other`'s leaves.
    #[inline]
    pub fn dominates(&self, other: &Cut4) -> bool {
        if self.len > other.len {
            return false;
        }
        if self.signature & !other.signature != 0 {
            return false;
        }
        // Both leaf lists are sorted; subset check by linear merge scan.
        let (a, b) = (self.leaves(), other.leaves());
        let mut j = 0;
        'outer: for &l in a {
            while j < b.len() {
                if b[j] == l {
                    j += 1;
                    continue 'outer;
                }
                if b[j] > l {
                    return false;
                }
                j += 1;
            }
            return false;
        }
        true
    }
}

#[inline]
fn sig_of(node: u32) -> u64 {
    1u64 << (node % 64)
}

/// Merges two cuts and fuses their truths into the function of the AND node
/// `compl_a ? !fa : fa  &  compl_b ? !fb : fb` over the merged leaves.
///
/// Returns `None` when the union has more than `k` leaves.
#[inline]
fn merge_fused(ca: &Cut4, cb: &Cut4, k: usize, compl_a: bool, compl_b: bool) -> Option<Cut4> {
    let mut leaves = [0u32; 4];
    let (a, b) = (ca.leaves(), cb.leaves());
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        if n >= k {
            return None;
        }
        leaves[n] = next;
        n += 1;
    }
    let merged = &leaves[..n];
    let ta = expand_truth(ca.truth, a, merged);
    let tb = expand_truth(cb.truth, b, merged);
    let mask = tail4(n);
    let ta = if compl_a { !ta & mask } else { ta };
    let tb = if compl_b { !tb & mask } else { tb };
    Some(Cut4 {
        leaves,
        len: n as u8,
        signature: ca.signature | cb.signature,
        truth: ta & tb & mask,
    })
}

/// The cuts enumerated for one node, stored inline.
#[derive(Debug, Clone, Copy)]
pub struct CutSet4 {
    cuts: [Cut4; CUT4_SET_CAPACITY],
    len: u8,
}

impl Default for CutSet4 {
    fn default() -> Self {
        CutSet4 {
            cuts: [Cut4::default(); CUT4_SET_CAPACITY],
            len: 0,
        }
    }
}

impl CutSet4 {
    /// The cuts, in enumeration order.
    #[inline]
    pub fn cuts(&self) -> &[Cut4] {
        &self.cuts[..self.len as usize]
    }

    /// Number of cuts stored.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` when no cut is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn push(&mut self, cut: Cut4) {
        self.cuts[self.len as usize] = cut;
        self.len += 1;
    }

    /// Dominance-filtered insert: a cut dominated by a stored one is dropped,
    /// stored cuts it dominates are evicted, and it is kept while the set
    /// holds fewer than `limit` cuts.
    fn push_filtered(&mut self, cut: Cut4, limit: usize) {
        if self.cuts().iter().any(|c| c.dominates(&cut)) {
            return;
        }
        let mut w = 0usize;
        for r in 0..self.len as usize {
            if !cut.dominates(&self.cuts[r]) {
                self.cuts[w] = self.cuts[r];
                w += 1;
            }
        }
        self.len = w as u8;
        if (self.len as usize) < limit {
            self.push(cut);
        }
    }
}

/// Enumerates 4-feasible cuts with fused truth tables in one topological sweep,
/// never allocating inside the cross-merge loop.
#[derive(Debug, Clone)]
pub struct Cut4Enumerator {
    params: crate::CutParams,
}

impl Cut4Enumerator {
    /// Creates an enumerator with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `max_cut_size > 4` or `max_cuts_per_node > CUT4_SET_CAPACITY`.
    pub fn new(params: crate::CutParams) -> Self {
        assert!(
            params.max_cut_size <= CUT4_MAX_LEAVES,
            "Cut4Enumerator supports at most {CUT4_MAX_LEAVES} leaves"
        );
        assert!(
            params.max_cuts_per_node <= CUT4_SET_CAPACITY,
            "Cut4Enumerator stores at most {CUT4_SET_CAPACITY} cuts per node"
        );
        Cut4Enumerator { params }
    }

    /// Enumerates cuts (with fused truths) for every node, indexed by node id.
    pub fn enumerate(&self, aig: &Aig) -> Vec<CutSet4> {
        let mut sets = Vec::new();
        self.enumerate_into(aig, &mut sets);
        sets
    }

    /// [`Cut4Enumerator::enumerate`] into a recycled vector: `sets` is cleared
    /// and refilled, reusing its allocation across passes of a flow.
    ///
    /// Each [`CutSet4`] is half a kilobyte of inline cuts, so the refill
    /// avoids bulk traffic on it: recycled entries are reset by length only
    /// (stale cuts past the length are never observable through
    /// [`CutSet4::cuts`]) and every node's set is built directly in its slot —
    /// fanins precede their node, so splitting the vector at `id` borrows the
    /// already-enumerated prefix alongside the slot being filled.
    pub fn enumerate_into(&self, aig: &Aig, sets: &mut Vec<CutSet4>) {
        let n = aig.len();
        if sets.len() < n {
            sets.resize(n, CutSet4::default());
        } else {
            sets.truncate(n);
        }
        for s in sets.iter_mut() {
            s.len = 0;
        }
        sets[0].push(Cut4::trivial(0));
        for &pi in aig.input_ids() {
            sets[pi].push(Cut4::trivial(pi));
        }
        let k = self.params.max_cut_size;
        let limit = self.params.max_cuts_per_node;
        for id in aig.node_ids() {
            let Some((a, b)) = aig.node(id).fanins() else {
                continue;
            };
            let (done, rest) = sets.split_at_mut(id);
            let set = &mut rest[0];
            let (sa, sb) = (&done[a.node()], &done[b.node()]);
            for ca in sa.cuts() {
                for cb in sb.cuts() {
                    if let Some(m) =
                        merge_fused(ca, cb, k, a.is_complemented(), b.is_complemented())
                    {
                        set.push_filtered(m, limit);
                    }
                }
            }
            if set.is_empty() {
                set.push_filtered(Cut4::trivial(id), limit.max(1));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Packed-truth helpers shared by the 4-cut consumers (support reduction,
// padding) — bit-level equivalents of the `TruthTable` operations the mapper
// fast path needs.
// ---------------------------------------------------------------------------

/// Returns `true` if the packed truth over `nv` variables depends on `var`.
#[inline]
pub fn truth4_depends_on(truth: u16, nv: usize, var: usize) -> bool {
    let t = truth & tail4(nv);
    let shift = 1u32 << var;
    let hi = t & VAR4_MASKS[var];
    let lo = t & !VAR4_MASKS[var];
    (hi >> shift) != lo & (VAR4_MASKS[var] >> shift)
}

/// The support of a packed truth over `nv` variables as an ascending bit mask.
#[inline]
pub fn truth4_support(truth: u16, nv: usize) -> u8 {
    let mut mask = 0u8;
    for v in 0..nv {
        if truth4_depends_on(truth, nv, v) {
            mask |= 1 << v;
        }
    }
    mask
}

/// Projects a packed truth onto the variables of `support_mask` (ascending),
/// returning the reduced truth and its variable count.
pub fn truth4_reduce(truth: u16, nv: usize, support_mask: u8) -> (u16, usize) {
    let t = truth & tail4(nv);
    let snv = support_mask.count_ones() as usize;
    if snv == nv {
        return (t, nv);
    }
    let mut out = 0u16;
    for row in 0..(1usize << snv) {
        let mut full = 0usize;
        let mut new_pos = 0usize;
        for v in 0..nv {
            if support_mask >> v & 1 == 1 {
                if row >> new_pos & 1 == 1 {
                    full |= 1 << v;
                }
                new_pos += 1;
            }
        }
        if t >> full & 1 == 1 {
            out |= 1 << row;
        }
    }
    (out, snv)
}

/// Pads a packed truth over `nv` variables up to 4 variables (the function does
/// not depend on the added variables).
#[inline]
pub fn truth4_pad(truth: u16, nv: usize) -> u16 {
    let mut t = truth & tail4(nv);
    for v in nv..4 {
        t |= t << (1u32 << v);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_aig() -> Aig {
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 5);
        let ab = g.and(xs[0], xs[1]);
        let cd = g.and(xs[2], xs[3]);
        let f = g.and(ab, cd);
        let x = g.xor(f, xs[4]);
        let m = g.mux(xs[0], x, cd);
        g.add_output("x", x);
        g.add_output("m", m);
        g
    }

    #[test]
    fn insert_lut_matches_row_semantics() {
        for (p, table) in INSERT_LUT.iter().enumerate() {
            for (t, &out) in table.iter().enumerate() {
                for row in 0..16usize {
                    let src = ((row >> (p + 1)) << p) | (row & ((1 << p) - 1));
                    assert_eq!(
                        out >> row & 1,
                        (t >> src & 1) as u16,
                        "p={p} t={t} row={row}"
                    );
                }
            }
        }
    }

    #[test]
    fn expand_truth_is_extension() {
        // f(a, c) = a & !c expanded onto (a, b, c): still a & !c.
        let f: u16 = 0b0010; // rows over (a, c): only a=1, c=0
        let e = expand_truth(f, &[10, 30], &[10, 20, 30]);
        for row in 0..8usize {
            let a = row & 1 == 1;
            let c = row >> 2 & 1 == 1;
            assert_eq!(e >> row & 1 == 1, a && !c, "row={row}");
        }
    }

    #[test]
    fn enumeration_matches_reference_with_truths() {
        // Every enumerated cut's fused truth equals the reference cone walk
        // over its leaves.
        let g = sample_aig();
        let sets = Cut4Enumerator::new(crate::CutParams::default()).enumerate(&g);
        for id in g.and_ids() {
            assert!(!sets[id].is_empty(), "node {id}");
            for cut in sets[id].cuts() {
                let want = crate::cut_truth(&g, id, &cut.leaf_ids()).expect("cut covers cone");
                assert_eq!(want, cut.truth_table(), "node {id}: fused truth");
            }
        }
    }

    #[test]
    fn dominance_matches_reference() {
        // The reference is the plain subset test.  The last three pairs
        // collide in the signature (65 ≡ 1, 66 ≡ 2 mod 64), so the subset
        // scan, not the prefilter, decides them.
        let cases: [(&[u32], &[u32]); 5] = [
            (&[1, 2], &[1, 2, 3]),
            (&[1, 2, 3], &[1, 2]),
            (&[1, 65], &[1, 65]),
            (&[2, 66], &[2, 3, 66]),
            (&[1, 66], &[2, 65]),
        ];
        for (a, b) in cases {
            let subset = a.iter().all(|l| b.contains(l));
            assert_eq!(
                cut_from(a).dominates(&cut_from(b)),
                subset,
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn set_keeps_cuts_up_to_the_limit() {
        // One more two-leaf cut than the default limit, none a subset of
        // another: the first `limit` are kept, in order.  (Enumeration never
        // reaches the limit while a node's unit cut is kept only as a
        // fallback, so the cap is checked here.)
        let limit = crate::CutParams::default().max_cuts_per_node;
        let mut set = CutSet4::default();
        for i in 0..=limit as u32 {
            set.push_filtered(cut_from(&[i, 100 + i]), limit);
        }
        assert_eq!(set.len(), limit);
        for (i, cut) in (0..).zip(set.cuts()) {
            assert_eq!(cut.leaves(), [i, 100 + i]);
        }
    }

    fn cut_from(leaves: &[u32]) -> Cut4 {
        let mut c = Cut4::default();
        for (i, &l) in leaves.iter().enumerate() {
            c.leaves[i] = l;
            c.signature |= sig_of(l);
        }
        c.len = leaves.len() as u8;
        c
    }

    #[test]
    fn support_reduce_pad_roundtrip() {
        // f over 3 vars depending only on vars 0 and 2.
        let a = 0xAAu16; // var 0 over 3 vars
        let c = 0xF0u16; // var 2 over 3 vars
        let f = a & !c & 0xFF;
        assert!(truth4_depends_on(f, 3, 0));
        assert!(!truth4_depends_on(f, 3, 1));
        assert!(truth4_depends_on(f, 3, 2));
        assert_eq!(truth4_support(f, 3), 0b101);
        let (r, rnv) = truth4_reduce(f, 3, 0b101);
        assert_eq!(rnv, 2);
        // reduced: var0 & !var1 over 2 vars = rows {01} -> 0b0010
        assert_eq!(r, 0b0010);
        let padded = truth4_pad(r, 2);
        assert_eq!(padded, 0x2222);
    }

    #[test]
    fn trivial_cut_is_projection() {
        let c = Cut4::trivial(7);
        assert_eq!(c.size(), 1);
        assert_eq!(c.truth(), 0b10);
        assert_eq!(c.truth_table(), TruthTable::var(0, 1));
    }
}
