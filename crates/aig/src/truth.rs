//! Bit-parallel truth tables for small functions (up to 8 variables).

/// Maximum number of variables supported by [`TruthTable`].
pub const MAX_TRUTH_VARS: usize = 8;

/// A complete truth table over at most [`MAX_TRUTH_VARS`] variables.
///
/// Bit `i` of the table is the function value for the input assignment whose
/// binary encoding is `i` (variable 0 is the least-significant input).  Tables
/// with up to six variables fit into a single `u64` word; wider tables use
/// two or four.  The words live inline, so the type is `Copy` and no
/// operation allocates; words past the table's width are always zero, so the
/// derived equality and hash mean "same function".
///
/// ```
/// use aig::TruthTable;
/// let a = TruthTable::var(0, 2);
/// let b = TruthTable::var(1, 2);
/// let f = a.and(&b);
/// assert_eq!(f.count_ones(), 1);
/// assert!(f.get(3));
/// assert!(!f.get(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_vars: usize,
    words: [u64; 4],
}

/// Pattern of variable `v` within one 64-bit word, for `v < 6`.
pub const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// `ONES[n]`: the words of the constant-true table over `n` variables, so
/// the operations that must keep unused bits zero run over all four words
/// without branching on the width.
const ONES: [[u64; 4]; MAX_TRUTH_VARS + 1] = {
    let mut ones = [[0; 4]; MAX_TRUTH_VARS + 1];
    let mut n = 0;
    while n <= MAX_TRUTH_VARS {
        let mut i = 0;
        while i < TruthTable::word_count(n) {
            ones[n][i] = TruthTable::tail_mask(n);
            i += 1;
        }
        n += 1;
    }
    ones
};

impl TruthTable {
    const fn word_count(num_vars: usize) -> usize {
        if num_vars <= 6 {
            1
        } else {
            1 << (num_vars - 6)
        }
    }

    /// Mask of the bits that are meaningful in the last word.
    pub const fn tail_mask(num_vars: usize) -> u64 {
        if num_vars >= 6 {
            u64::MAX
        } else {
            (1u64 << (1 << num_vars)) - 1
        }
    }

    /// The constant-false function over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > MAX_TRUTH_VARS`.
    pub fn zeros(num_vars: usize) -> Self {
        assert!(
            num_vars <= MAX_TRUTH_VARS,
            "at most {MAX_TRUTH_VARS} variables supported"
        );
        TruthTable {
            num_vars,
            words: [0; 4],
        }
    }

    /// The constant-true function over `num_vars` variables.
    pub fn ones(num_vars: usize) -> Self {
        let mut t = Self::zeros(num_vars);
        t.words = ONES[num_vars];
        t
    }

    /// The projection function of variable `var` over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn var(var: usize, num_vars: usize) -> Self {
        assert!(var < num_vars, "variable index out of range");
        let mut t = Self::zeros(num_vars);
        if var < 6 {
            t.words = ONES[num_vars].map(|w| w & VAR_MASKS[var]);
        } else {
            let block = 1 << (var - 6);
            for (i, w) in t.words_mut().iter_mut().enumerate() {
                if (i / block) % 2 == 1 {
                    *w = u64::MAX;
                }
            }
        }
        t
    }

    /// Builds a table from raw bits packed little-endian into `u64` words.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not hold exactly the table's word count.
    pub fn from_words(num_vars: usize, words: &[u64]) -> Self {
        let mut t = Self::zeros(num_vars);
        t.words_mut().copy_from_slice(words);
        t.words[Self::word_count(num_vars) - 1] &= Self::tail_mask(num_vars);
        t
    }

    /// Number of variables of the table.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of rows (input assignments).
    pub fn num_rows(&self) -> usize {
        1usize << self.num_vars
    }

    /// Returns the table's words (one, two or four, by width).
    pub fn words(&self) -> &[u64] {
        &self.words[..Self::word_count(self.num_vars)]
    }

    fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words[..Self::word_count(self.num_vars)]
    }

    /// Returns the function value for assignment `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn get(&self, row: usize) -> bool {
        assert!(row < self.num_rows(), "row out of range");
        self.words[row / 64] >> (row % 64) & 1 == 1
    }

    /// Sets the function value for assignment `row`.
    pub fn set(&mut self, row: usize, value: bool) {
        assert!(row < self.num_rows(), "row out of range");
        if value {
            self.words[row / 64] |= 1u64 << (row % 64);
        } else {
            self.words[row / 64] &= !(1u64 << (row % 64));
        }
    }

    /// Bitwise AND of two tables over the same variables.
    pub fn and(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR of two tables over the same variables.
    pub fn or(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR of two tables over the same variables.
    pub fn xor(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a ^ b)
    }

    /// Complement of the table.
    pub fn not(&self) -> Self {
        let mut out = *self;
        for (w, ones) in out.words.iter_mut().zip(ONES[self.num_vars]) {
            *w ^= ones;
        }
        out
    }

    /// Word-wise combination; `f(0, 0)` must be 0 so unused words stay zero.
    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(self.num_vars, other.num_vars, "variable count mismatch");
        let mut out = *self;
        for (w, &o) in out.words.iter_mut().zip(&other.words) {
            *w = f(*w, o);
        }
        out
    }

    /// Returns `true` if the table is constant false.
    pub fn is_zero(&self) -> bool {
        self.words == [0; 4]
    }

    /// Returns `true` if the table is constant true.
    pub fn is_one(&self) -> bool {
        self.words == ONES[self.num_vars]
    }

    /// Number of satisfying assignments.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Negative cofactor with respect to `var` (the value with `var = 0`,
    /// replicated so the result is still over `num_vars` variables).
    pub fn cofactor0(&self, var: usize) -> Self {
        assert!(var < self.num_vars);
        let mut out = *self;
        if var < 6 {
            let shift = 1usize << var;
            let mask = !VAR_MASKS[var];
            for w in &mut out.words {
                let low = *w & mask;
                *w = low | (low << shift);
            }
        } else {
            let block = 1 << (var - 6);
            for pair in out.words_mut().chunks_exact_mut(2 * block) {
                let (low, high) = pair.split_at_mut(block);
                high.copy_from_slice(low);
            }
        }
        out
    }

    /// Positive cofactor with respect to `var` (the value with `var = 1`).
    pub fn cofactor1(&self, var: usize) -> Self {
        assert!(var < self.num_vars);
        let mut out = *self;
        if var < 6 {
            let shift = 1usize << var;
            let mask = VAR_MASKS[var];
            for w in &mut out.words {
                let high = *w & mask;
                *w = high | (high >> shift);
            }
        } else {
            let block = 1 << (var - 6);
            for pair in out.words_mut().chunks_exact_mut(2 * block) {
                let (low, high) = pair.split_at_mut(block);
                low.copy_from_slice(high);
            }
        }
        out
    }

    /// Returns `true` if the function actually depends on variable `var`.
    pub fn depends_on(&self, var: usize) -> bool {
        self.cofactor0(var) != self.cofactor1(var)
    }

    /// Returns the set of variables the function depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.num_vars).filter(|&v| self.depends_on(v)).collect()
    }

    /// Flips (complements) one input variable, returning the new table.
    pub fn flip_var(&self, var: usize) -> Self {
        assert!(var < self.num_vars);
        let mut out = Self::zeros(self.num_vars);
        for row in 0..self.num_rows() {
            out.set(row, self.get(row ^ (1 << var)));
        }
        out
    }

    /// Returns the lexicographically-compared raw bits, used for canonical ordering.
    pub fn cmp_bits(&self, other: &Self) -> std::cmp::Ordering {
        self.words().iter().rev().cmp(other.words().iter().rev())
    }
}

impl std::fmt::Display for TruthTable {
    /// Hexadecimal display, most-significant row first (ABC convention).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, w) in self.words().iter().enumerate().rev() {
            if self.num_vars >= 6 || i > 0 {
                write!(f, "{w:016x}")?;
            } else {
                let digits = self.num_rows().div_ceil(4);
                write!(f, "{:0width$x}", w, width = digits.max(1))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        let z = TruthTable::zeros(3);
        let o = TruthTable::ones(3);
        assert!(z.is_zero());
        assert!(o.is_one());
        assert_eq!(o.count_ones(), 8);
        assert_eq!(z.not(), o);
    }

    #[test]
    fn var_projection() {
        for nv in 1..=8 {
            for v in 0..nv {
                let t = TruthTable::var(v, nv);
                for row in 0..t.num_rows() {
                    assert_eq!(t.get(row), row >> v & 1 == 1, "nv={nv} v={v} row={row}");
                }
            }
        }
    }

    #[test]
    fn boolean_ops() {
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        let f = a.and(&b).or(&c);
        for row in 0..8 {
            let (ra, rb, rc) = (row & 1 == 1, row >> 1 & 1 == 1, row >> 2 & 1 == 1);
            assert_eq!(f.get(row), ra && rb || rc);
        }
        let x = a.xor(&b);
        assert_eq!(x.count_ones(), 4);
    }

    #[test]
    fn cofactors_small() {
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let f = a.and(&b);
        assert!(f.cofactor0(0).is_zero());
        assert_eq!(f.cofactor1(0), b);
        assert!(f.depends_on(0));
        assert!(f.depends_on(1));
        assert!(!f.depends_on(2));
        assert_eq!(f.support(), vec![0, 1]);
    }

    #[test]
    fn cofactors_wide() {
        // 8-variable function depending on variable 7.
        let v7 = TruthTable::var(7, 8);
        let v0 = TruthTable::var(0, 8);
        let f = v7.xor(&v0);
        assert_eq!(f.cofactor0(7), v0);
        assert_eq!(f.cofactor1(7), v0.not());
        assert!(f.depends_on(7));
        assert!(!f.depends_on(3));
    }

    #[test]
    fn flip_complements_one_input() {
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let f = a.and(&b.not());
        let flipped = f.flip_var(1);
        assert_eq!(flipped, a.and(&b));
    }

    #[test]
    fn display_is_hex() {
        let a = TruthTable::var(0, 2);
        assert_eq!(a.to_string(), "a");
        let f = TruthTable::ones(6);
        assert_eq!(f.to_string(), "ffffffffffffffff");
    }

    /// Builds the table over `nv` variables whose row `r` is `f(r)`, one
    /// row at a time through `set`: the definition the word-level
    /// operations are held to.
    fn by_rows(nv: usize, f: impl Fn(usize) -> bool) -> TruthTable {
        let mut t = TruthTable::zeros(nv);
        for row in 0..t.num_rows() {
            t.set(row, f(row));
        }
        t
    }

    /// Asserts `got` equals `want` and keeps every word past its width zero.
    fn check(got: TruthTable, want: TruthTable, what: &str) {
        assert_eq!(got, want, "{what}");
        let used = got.words().len();
        assert!(got.words[used..].iter().all(|&w| w == 0), "{what}: tail");
    }

    /// Every word-level operation matches its row-by-row definition through
    /// `get`/`set`, at every width.
    #[test]
    fn operations_match_row_by_row_definitions() {
        let mut state = 0xA5A5_5A5A_DEAD_BEEFu64;
        for nv in 1..=MAX_TRUTH_VARS {
            let rows = 1usize << nv;
            check(TruthTable::zeros(nv), by_rows(nv, |_| false), "zeros");
            check(TruthTable::ones(nv), by_rows(nv, |_| true), "ones");
            for v in 0..nv {
                let want = by_rows(nv, |r| r >> v & 1 == 1);
                check(TruthTable::var(v, nv), want, "var");
            }
            for _ in 0..10 {
                let mut a = TruthTable::zeros(nv);
                let mut b = TruthTable::zeros(nv);
                for row in 0..rows {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    a.set(row, state >> 17 & 1 == 1);
                    b.set(row, state >> 43 & 1 == 1);
                }
                let what = format!("nv={nv} a={a} b={b}");
                let (ga, gb) = (|r| a.get(r), |r| b.get(r));
                check(a.and(&b), by_rows(nv, |r| ga(r) && gb(r)), &what);
                check(a.or(&b), by_rows(nv, |r| ga(r) || gb(r)), &what);
                check(a.xor(&b), by_rows(nv, |r| ga(r) != gb(r)), &what);
                check(a.not(), by_rows(nv, |r| !ga(r)), &what);
                let ones = (0..rows).filter(|&r| ga(r)).count();
                assert_eq!(a.count_ones() as usize, ones, "{what}");
                assert_eq!(a.is_zero(), ones == 0, "{what}");
                assert_eq!(a.is_one(), ones == rows, "{what}");
                for v in 0..nv {
                    let bit = 1 << v;
                    let c0 = by_rows(nv, |r| ga(r & !bit));
                    let c1 = by_rows(nv, |r| ga(r | bit));
                    check(a.cofactor0(v), c0, &what);
                    check(a.cofactor1(v), c1, &what);
                    let depends = (0..rows).any(|r| ga(r) != ga(r ^ bit));
                    assert_eq!(a.depends_on(v), depends, "{what} v={v}");
                    check(a.flip_var(v), by_rows(nv, |r| ga(r ^ bit)), &what);
                }
            }
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = TruthTable::zeros(7);
        t.set(100, true);
        t.set(3, true);
        assert!(t.get(100));
        assert!(t.get(3));
        assert!(!t.get(99));
        t.set(100, false);
        assert!(!t.get(100));
        assert_eq!(t.count_ones(), 1);
    }
}
