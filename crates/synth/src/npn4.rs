//! Precomputed NPN canonization of all 4-variable functions.
//!
//! The oracle [`npn_canonical`](crate::reference::npn_canonical) finds the
//! canonical form of a function by searching its full orbit (up to `2 · 4! · 2^4 = 768` members) —
//! exact, but far too slow to sit under technology mapping, where every cut of
//! every node needs a canonical form.  This module instead fills a
//! 65,536-entry table once (orbit by orbit: processing functions in increasing
//! numeric order guarantees the first unassigned function *is* its class
//! representative) and answers every subsequent query with one array load.
//!
//! Functions of fewer than four variables are handled by padding: a function
//! padded with don't-care variables is NPN4-equivalent to another padded
//! function exactly when the originals are NPN-equivalent at their own arity
//! (NPN transforms preserve support size), so one table serves every cut
//! function the 4-cut consumers produce.

use std::sync::OnceLock;

/// Number of distinct 4-variable truth tables.
const NUM_FUNCTIONS: usize = 1 << 16;

/// All permutations of `[0, 1, 2, 3]` in lexicographic order.
const fn permutations4() -> [[u8; 4]; 24] {
    let mut out = [[0u8; 4]; 24];
    let mut n = 0;
    let mut a = 0u8;
    while a < 4 {
        let mut b = 0u8;
        while b < 4 {
            let mut c = 0u8;
            while c < 4 {
                let mut d = 0u8;
                while d < 4 {
                    if a != b && a != c && a != d && b != c && b != d && c != d {
                        out[n] = [a, b, c, d];
                        n += 1;
                    }
                    d += 1;
                }
                c += 1;
            }
            b += 1;
        }
        a += 1;
    }
    out
}

/// The 24 input permutations, indexed by the 5-bit permutation id stored in a
/// packed transform.
pub const PERMS4: [[u8; 4]; 24] = permutations4();

/// The NPN transform recovering the canonical form of a function: apply output
/// negation, then the permutation, then the input negations — the same
/// operation order as [`npn_canonical`](crate::reference::npn_canonical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Npn4Transform {
    /// Whether the output is complemented.
    pub output_negated: bool,
    /// Permutation: canonical variable `i` reads original variable `perm[i]`.
    pub perm: [u8; 4],
    /// Input complementation mask over canonical positions.
    pub input_negation: u8,
}

/// Packed transform: bits 0..5 permutation id, 5..9 negation mask, 9 output.
#[inline]
fn pack(perm_id: usize, neg: u8, out_neg: bool) -> u16 {
    (perm_id as u16) | (u16::from(neg) << 5) | (u16::from(out_neg) << 9)
}

#[inline]
fn unpack(packed: u16) -> Npn4Transform {
    Npn4Transform {
        output_negated: packed >> 9 & 1 == 1,
        perm: PERMS4[(packed & 0x1F) as usize],
        input_negation: (packed >> 5 & 0xF) as u8,
    }
}

/// Applies a permutation to a packed 4-variable truth: canonical variable `i`
/// reads original variable `perm[i]`.
pub fn apply_perm4(t: u16, perm: &[u8; 4]) -> u16 {
    let mut out = 0u16;
    for row in 0..16u32 {
        let mut src = 0u32;
        for (canon_var, &orig_var) in perm.iter().enumerate() {
            if row >> canon_var & 1 == 1 {
                src |= 1 << orig_var;
            }
        }
        if t >> src & 1 == 1 {
            out |= 1 << row;
        }
    }
    out
}

/// Complements the inputs in `mask`: `out(row) = t(row ^ mask)`.
#[inline]
pub fn apply_neg4(t: u16, mask: u8) -> u16 {
    let mut out = t;
    for v in 0..4u32 {
        if mask >> v & 1 == 1 {
            out = flip_var4(out, v);
        }
    }
    out
}

/// Flips one input variable of a packed 4-variable truth.
#[inline]
fn flip_var4(t: u16, v: u32) -> u16 {
    const HI: [u16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];
    let shift = 1u32 << v;
    ((t & HI[v as usize]) >> shift) | ((t & !HI[v as usize]) << shift)
}

/// Applies a full NPN transform (output negation, permutation, input negation
/// — in that order) to a packed 4-variable truth.
pub fn apply_npn4(t: u16, tf: &Npn4Transform) -> u16 {
    let base = if tf.output_negated { !t } else { t };
    apply_neg4(apply_perm4(base, &tf.perm), tf.input_negation)
}

/// The precomputed canonization table for all 65,536 4-variable functions.
#[derive(Debug)]
pub struct Npn4Table {
    canon: Vec<u16>,
    transform: Vec<u16>,
    num_classes: usize,
}

impl Npn4Table {
    fn build() -> Self {
        let mut canon = vec![0u16; NUM_FUNCTIONS];
        let mut transform = vec![0u16; NUM_FUNCTIONS];
        let mut assigned = vec![false; NUM_FUNCTIONS];
        let mut perm_inverse = [[0u8; 4]; 24];
        for (pi, p) in PERMS4.iter().enumerate() {
            for (i, &v) in p.iter().enumerate() {
                perm_inverse[pi][v as usize] = i as u8;
            }
        }
        let mut num_classes = 0usize;
        for f in 0..NUM_FUNCTIONS as u32 {
            let f = f as u16;
            if assigned[f as usize] {
                continue;
            }
            // Processing functions in increasing order, the first unassigned
            // function is numerically minimal in its orbit — i.e. canonical
            // (the orbit search compares raw bits).
            num_classes += 1;
            for out_neg in [false, true] {
                let base = if out_neg { !f } else { f };
                for (pi, perm) in PERMS4.iter().enumerate() {
                    let permuted = apply_perm4(base, perm);
                    for m in 0u8..16 {
                        let g = apply_neg4(permuted, m);
                        if assigned[g as usize] {
                            continue;
                        }
                        assigned[g as usize] = true;
                        canon[g as usize] = f;
                        // g = N_m(P_p(O_b(f)))  ⇒  f = N_m'(P_{p⁻¹}(O_b(g)))
                        // with m'[j] = m[p⁻¹[j]] (the negation mask carried
                        // through the inverse permutation).
                        let inv = perm_inverse[pi];
                        let mut m2 = 0u8;
                        for (j, &src) in inv.iter().enumerate() {
                            if m >> src & 1 == 1 {
                                m2 |= 1 << j;
                            }
                        }
                        let inv_id = PERMS4
                            .iter()
                            .position(|p| *p == inv)
                            .expect("inverse is a permutation");
                        transform[g as usize] = pack(inv_id, m2, out_neg);
                    }
                }
            }
        }
        Npn4Table {
            canon,
            transform,
            num_classes,
        }
    }

    /// The canonical representative of the NPN class of `t`.
    #[inline]
    pub fn canonical(&self, t: u16) -> u16 {
        self.canon[t as usize]
    }

    /// A transform mapping `t` onto its canonical representative.
    #[inline]
    pub fn transform(&self, t: u16) -> Npn4Transform {
        unpack(self.transform[t as usize])
    }

    /// Number of distinct NPN classes over 4 variables (222).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }
}

/// The process-wide table, built on first use (a few milliseconds).
pub fn npn4() -> &'static Npn4Table {
    static TABLE: OnceLock<Npn4Table> = OnceLock::new();
    TABLE.get_or_init(Npn4Table::build)
}

/// Packs a truth table of up to 4 variables into the low `2^n` bits of a `u16`.
///
/// # Panics
///
/// Panics if the table has more than 4 variables.
pub fn truth_to_u16(t: &aig::TruthTable) -> u16 {
    let nv = t.num_vars();
    assert!(nv <= 4, "packed truths span at most 4 variables");
    (t.words()[0] & ((1u64 << (1 << nv)) - 1)) as u16
}

/// The padded-to-4-variables NPN4 canonical form of a function of up to 4
/// variables — the key of the mapper's fast matching index.
pub fn canonical4_padded(t: &aig::TruthTable) -> u16 {
    npn4().canonical(aig::truth4_pad(truth_to_u16(t), t.num_vars()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::npn_canonical;
    use aig::TruthTable;

    fn table_from_u16(bits: u16) -> TruthTable {
        TruthTable::from_words(4, &[u64::from(bits)])
    }

    #[test]
    fn perms_are_all_distinct() {
        for (i, a) in PERMS4.iter().enumerate() {
            for b in &PERMS4[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn class_count_is_222() {
        assert_eq!(npn4().num_classes(), 222);
    }

    #[test]
    fn canonical_matches_orbit_search_on_random_functions() {
        let mut state = 0x1234_5678_9ABC_DEFFu64;
        for _ in 0..200 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let f = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u16;
            let want = npn_canonical(&table_from_u16(f));
            let got = npn4().canonical(f);
            assert_eq!(
                truth_to_u16(&want.canonical),
                got,
                "canonical mismatch for {f:#06x}"
            );
        }
    }

    #[test]
    fn transform_recovers_canonical() {
        let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
        for _ in 0..500 {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let f = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u16;
            let tf = npn4().transform(f);
            assert_eq!(
                apply_npn4(f, &tf),
                npn4().canonical(f),
                "transform does not map {f:#06x} to its canonical form"
            );
        }
    }

    #[test]
    fn u16_application_matches_truthtable_application() {
        // apply_perm4 / apply_neg4 agree with the TruthTable-based operations
        // used by the orbit search.
        let f: u16 = 0b0110_1001_1100_0011;
        let t = table_from_u16(f);
        let perm = [2u8, 0, 3, 1];
        let perm_usize: Vec<usize> = perm.iter().map(|&v| v as usize).collect();
        let mut permuted_t = TruthTable::zeros(4);
        for row in 0..16usize {
            let mut src = 0usize;
            for (cv, &ov) in perm_usize.iter().enumerate() {
                if row >> cv & 1 == 1 {
                    src |= 1 << ov;
                }
            }
            permuted_t.set(row, t.get(src));
        }
        assert_eq!(apply_perm4(f, &perm), truth_to_u16(&permuted_t));
        let flipped = t.flip_var(1).flip_var(3);
        assert_eq!(apply_neg4(f, 0b1010), truth_to_u16(&flipped));
    }

    #[test]
    fn padding_preserves_class_grouping() {
        // Two 2-variable functions are NPN-equivalent iff their 4-variable
        // paddings share an NPN4 class.
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let and2 = a.and(&b);
        let nor2 = a.or(&b).not();
        let xor2 = a.xor(&b);
        assert_eq!(canonical4_padded(&and2), canonical4_padded(&nor2));
        assert_ne!(canonical4_padded(&and2), canonical4_padded(&xor2));
        // Support size separates classes: padded AND2 never collides with a
        // genuine 4-variable function's class.
        let a4 = TruthTable::var(0, 4);
        let b4 = TruthTable::var(1, 4);
        let c4 = TruthTable::var(2, 4);
        let d4 = TruthTable::var(3, 4);
        let and4 = a4.and(&b4).and(&c4).and(&d4);
        assert_ne!(canonical4_padded(&and2), canonical4_padded(&and4));
    }
}
