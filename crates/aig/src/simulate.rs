//! Bit-parallel random simulation.
//!
//! Simulation is used throughout the test suites to check that synthesis passes
//! preserve the combinational function of a design (64 random patterns at a
//! time, any number of rounds).

use crate::{Aig, Lit};

/// One 64-pattern simulation vector: bit `i` is the value under pattern `i`.
pub type SimVector = u64;

/// A bit-parallel simulator over an [`Aig`].
///
/// ```
/// use aig::{Aig, Simulator};
/// let mut g = Aig::new();
/// let a = g.add_input("a");
/// let b = g.add_input("b");
/// let f = g.xor(a, b);
/// g.add_output("f", f);
///
/// let sim = Simulator::new(&g);
/// let out = sim.run(&[0b1100, 0b1010]);
/// assert_eq!(out[0] & 0xF, 0b0110);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    aig: &'a Aig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over the given graph.
    pub fn new(aig: &'a Aig) -> Self {
        Simulator { aig }
    }

    /// Simulates 64 patterns at once.
    ///
    /// `input_patterns[i]` carries the 64 values of primary input `i`.  The
    /// result carries one vector per primary output.
    ///
    /// # Panics
    ///
    /// Panics if `input_patterns.len()` differs from the number of primary inputs.
    pub fn run(&self, input_patterns: &[SimVector]) -> Vec<SimVector> {
        assert_eq!(
            input_patterns.len(),
            self.aig.num_inputs(),
            "one pattern word per primary input required"
        );
        let values = self.node_values(input_patterns);
        self.aig
            .outputs()
            .iter()
            .map(|&l| Self::lit_value(&values, l))
            .collect()
    }

    /// Simulates 64 patterns and returns the value of every node.
    pub fn node_values(&self, input_patterns: &[SimVector]) -> Vec<SimVector> {
        let mut values = Vec::new();
        self.node_values_into(input_patterns.iter().copied(), &mut values);
        values
    }

    /// [`node_values`](Self::node_values) into a recycled buffer: `values` is
    /// cleared and refilled with one vector per node, primary input `i`
    /// taking the `i`-th word of `input_patterns` (further words are not
    /// read, so an endless [`random_patterns`] stream is fine).
    ///
    /// # Panics
    ///
    /// Panics if `input_patterns` yields fewer words than there are primary
    /// inputs.
    pub fn node_values_into(
        &self,
        input_patterns: impl IntoIterator<Item = SimVector>,
        values: &mut Vec<SimVector>,
    ) {
        values.clear();
        values.resize(self.aig.len(), 0);
        let mut words = input_patterns.into_iter();
        for &id in self.aig.input_ids() {
            values[id] = words
                .next()
                .expect("one pattern word per primary input required");
        }
        for id in self.aig.node_ids() {
            if let Some((a, b)) = self.aig.node(id).fanins() {
                values[id] = Self::lit_value(values, a) & Self::lit_value(values, b);
            }
        }
    }

    fn lit_value(values: &[SimVector], l: Lit) -> SimVector {
        let v = values[l.node()];
        if l.is_complemented() {
            !v
        } else {
            v
        }
    }

    /// Evaluates the graph for a single fully-specified input assignment.
    pub fn evaluate(&self, assignment: &[bool]) -> Vec<bool> {
        let patterns: Vec<SimVector> = assignment
            .iter()
            .map(|&b| if b { u64::MAX } else { 0 })
            .collect();
        self.run(&patterns).iter().map(|&v| v & 1 == 1).collect()
    }
}

/// An endless, reproducible stream of pseudo-random pattern words: the
/// xorshift64* generator started from `seed`.
pub fn random_patterns(seed: u64) -> impl Iterator<Item = SimVector> {
    let mut state = seed | 1;
    std::iter::repeat_with(move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    })
}

/// Checks whether two graphs with identical interfaces agree on `rounds * 64`
/// pseudo-random input patterns.
///
/// This is a probabilistic equivalence check used by tests and by the
/// verification mode of the flow runner; it cannot prove equivalence but
/// reliably catches functional corruption introduced by a buggy pass.
///
/// The patterns come from [`random_patterns`], so results are reproducible.
pub fn random_equivalence_check(a: &Aig, b: &Aig, rounds: usize, seed: u64) -> bool {
    if a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs() {
        return false;
    }
    let sim_a = Simulator::new(a);
    let sim_b = Simulator::new(b);
    let mut words = random_patterns(seed);
    for _ in 0..rounds {
        let patterns: Vec<SimVector> = words.by_ref().take(a.num_inputs()).collect();
        if sim_a.run(&patterns) != sim_b.run(&patterns) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Aig {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let cin = g.add_input("cin");
        let sum = g.xor_many(&[a, b, cin]);
        let carry = g.maj(a, b, cin);
        g.add_output("sum", sum);
        g.add_output("carry", carry);
        g
    }

    #[test]
    fn full_adder_truth() {
        let g = full_adder();
        let sim = Simulator::new(&g);
        for row in 0..8u32 {
            let bits = [row & 1 == 1, row >> 1 & 1 == 1, row >> 2 & 1 == 1];
            let out = sim.evaluate(&bits);
            let total = bits.iter().filter(|&&x| x).count();
            assert_eq!(out[0], total % 2 == 1, "sum row {row}");
            assert_eq!(out[1], total >= 2, "carry row {row}");
        }
    }

    #[test]
    fn bit_parallel_matches_scalar() {
        let g = full_adder();
        let sim = Simulator::new(&g);
        let patterns = [
            0xDEAD_BEEF_0123_4567,
            0xF0F0_F0F0_AAAA_5555,
            0x0F1E_2D3C_4B5A_6978,
        ];
        let vec_out = sim.run(&patterns);
        for bit in 0..64 {
            let assignment: Vec<bool> = patterns.iter().map(|p| p >> bit & 1 == 1).collect();
            let scalar = sim.evaluate(&assignment);
            for (o, &v) in vec_out.iter().enumerate() {
                assert_eq!(scalar[o], v >> bit & 1 == 1, "output {o} bit {bit}");
            }
        }
    }

    #[test]
    fn recycled_node_values_match_fresh_ones() {
        let g = full_adder();
        let sim = Simulator::new(&g);
        let patterns: Vec<SimVector> = random_patterns(9).take(g.num_inputs()).collect();
        let mut values = vec![7; 2 * g.len()];
        sim.node_values_into(random_patterns(9), &mut values);
        assert_eq!(values, sim.node_values(&patterns));
    }

    #[test]
    fn equivalence_check_accepts_cleanup() {
        let mut g = full_adder();
        let a = g.input_lits()[0];
        let b = g.input_lits()[1];
        let _dangling = g.and(a, b);
        let clean = g.cleanup();
        assert!(random_equivalence_check(&g, &clean, 8, 7));
    }

    #[test]
    fn equivalence_check_rejects_different_functions() {
        let g = full_adder();
        let mut h = Aig::new();
        let a = h.add_input("a");
        let b = h.add_input("b");
        let c = h.add_input("cin");
        let wrong_sum = h.and(a, b);
        let carry = h.maj(a, b, c);
        h.add_output("sum", wrong_sum);
        h.add_output("carry", carry);
        assert!(!random_equivalence_check(&g, &h, 4, 1));
    }

    #[test]
    fn equivalence_check_rejects_interface_mismatch() {
        let g = full_adder();
        let mut h = Aig::new();
        h.add_input("a");
        assert!(!random_equivalence_check(&g, &h, 1, 1));
    }

    #[test]
    fn constant_outputs_simulate() {
        let mut g = Aig::new();
        let _a = g.add_input("a");
        g.add_output("zero", Lit::FALSE);
        g.add_output("one", Lit::TRUE);
        let sim = Simulator::new(&g);
        let out = sim.run(&[0x1234]);
        assert_eq!(out[0], 0);
        assert_eq!(out[1], u64::MAX);
    }
}
