//! Word-level arithmetic building blocks.
//!
//! All functions operate on little-endian buses (`words[0]` is the LSB) of
//! [`Lit`]s and append logic to a caller-supplied [`Aig`].

use aig::{Aig, Lit};

/// A little-endian bus of literals.
pub type Bus = Vec<Lit>;

/// Returns a bus of the given width holding the constant `value`.
pub fn constant_bus(width: usize, value: u128) -> Bus {
    (0..width)
        .map(|i| {
            if value >> i & 1 == 1 {
                Lit::TRUE
            } else {
                Lit::FALSE
            }
        })
        .collect()
}

/// Full adder: returns `(sum, carry)`.
pub fn full_adder(g: &mut Aig, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
    let sum = g.xor_many(&[a, b, cin]);
    let carry = g.maj(a, b, cin);
    (sum, carry)
}

/// Ripple-carry addition of two equal-width buses; returns `(sum, carry_out)`.
///
/// # Panics
///
/// Panics if the buses have different widths.
pub fn ripple_add(g: &mut Aig, a: &[Lit], b: &[Lit], carry_in: Lit) -> (Bus, Lit) {
    assert_eq!(a.len(), b.len(), "bus width mismatch");
    let mut carry = carry_in;
    let mut sum = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        let (s, c) = full_adder(g, a[i], b[i], carry);
        sum.push(s);
        carry = c;
    }
    (sum, carry)
}

/// Two's-complement subtraction `a - b`; returns `(difference, borrow_is_absent)`.
///
/// The second element is the final carry of `a + !b + 1`, i.e. `1` when `a >= b`
/// for unsigned operands.
pub fn ripple_sub(g: &mut Aig, a: &[Lit], b: &[Lit]) -> (Bus, Lit) {
    let nb: Bus = b.iter().map(|&l| !l).collect();
    ripple_add(g, a, &nb, Lit::TRUE)
}

/// Bitwise AND of two buses.
pub fn bitwise_and(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Bus {
    a.iter().zip(b).map(|(&x, &y)| g.and(x, y)).collect()
}

/// Bitwise OR of two buses.
pub fn bitwise_or(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Bus {
    a.iter().zip(b).map(|(&x, &y)| g.or(x, y)).collect()
}

/// Bitwise XOR of two buses.
pub fn bitwise_xor(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Bus {
    a.iter().zip(b).map(|(&x, &y)| g.xor(x, y)).collect()
}

/// Word-level 2-to-1 multiplexer: `sel ? t : e`, bit by bit.
pub fn mux_bus(g: &mut Aig, sel: Lit, t: &[Lit], e: &[Lit]) -> Bus {
    assert_eq!(t.len(), e.len(), "bus width mismatch");
    t.iter().zip(e).map(|(&x, &y)| g.mux(sel, x, y)).collect()
}

/// Logical left shift by a variable amount (barrel shifter).
///
/// `amount` is interpreted as an unsigned little-endian bus; only the low
/// `ceil(log2(width))` bits are used.
pub fn barrel_shift_left(g: &mut Aig, value: &[Lit], amount: &[Lit]) -> Bus {
    let width = value.len();
    let stages = usize::BITS as usize - (width.max(2) - 1).leading_zeros() as usize;
    let mut cur: Bus = value.to_vec();
    for (s, &select) in amount.iter().enumerate().take(stages) {
        let shift = 1usize << s;
        let mut shifted = vec![Lit::FALSE; width];
        shifted[shift..width].copy_from_slice(&cur[..width - shift]);
        cur = mux_bus(g, select, &shifted, &cur);
    }
    cur
}

/// Logical right shift by a variable amount (barrel shifter).
pub fn barrel_shift_right(g: &mut Aig, value: &[Lit], amount: &[Lit]) -> Bus {
    let width = value.len();
    let stages = usize::BITS as usize - (width.max(2) - 1).leading_zeros() as usize;
    let mut cur: Bus = value.to_vec();
    for (s, &select) in amount.iter().enumerate().take(stages) {
        let shift = 1usize << s;
        let mut shifted = vec![Lit::FALSE; width];
        let kept = width.saturating_sub(shift);
        shifted[..kept].copy_from_slice(&cur[shift..shift + kept]);
        cur = mux_bus(g, select, &shifted, &cur);
    }
    cur
}

/// Unsigned equality comparison of two buses.
pub fn equals(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    let diffs = bitwise_xor(g, a, b);
    let any = g.or_many(&diffs);
    !any
}

/// Unsigned less-than comparison `a < b`.
pub fn less_than(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    let (_, no_borrow) = ripple_sub(g, a, b);
    !no_borrow
}

/// Reduction OR of a bus (`1` when any bit is set).
pub fn reduce_or(g: &mut Aig, a: &[Lit]) -> Lit {
    g.or_many(a)
}

/// Reduction XOR (parity) of a bus.
pub fn reduce_xor(g: &mut Aig, a: &[Lit]) -> Lit {
    g.xor_many(a)
}

/// Unsigned array multiplier; returns the full `2 * width` product bus.
pub fn array_multiply(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Bus {
    assert_eq!(a.len(), b.len(), "bus width mismatch");
    let width = a.len();
    let mut acc = constant_bus(2 * width, 0);
    for (i, &bi) in b.iter().enumerate() {
        // Partial product `a << i` gated by bit `b[i]`.
        let mut pp = constant_bus(2 * width, 0);
        for (j, &aj) in a.iter().enumerate() {
            pp[i + j] = g.and(aj, bi);
        }
        let (sum, _) = ripple_add(g, &acc, &pp, Lit::FALSE);
        acc = sum;
    }
    acc
}

/// Adds a modular reduction step: returns `value - modulus` when `value >= modulus`,
/// otherwise `value` (single conditional subtraction).
pub fn conditional_subtract(g: &mut Aig, value: &[Lit], modulus: &[Lit]) -> Bus {
    let (diff, no_borrow) = ripple_sub(g, value, modulus);
    mux_bus(g, no_borrow, &diff, value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::Simulator;

    fn eval_bus(out: &[bool]) -> u128 {
        out.iter()
            .enumerate()
            .fold(0u128, |acc, (i, &b)| acc | (u128::from(b) << i))
    }

    /// Builds a circuit with two `width`-bit inputs, applies `f`, and checks the
    /// outputs against `model` for a set of interesting operand pairs.
    fn check_binary(
        width: usize,
        f: impl Fn(&mut Aig, &[Lit], &[Lit]) -> Bus,
        model: impl Fn(u128, u128) -> u128,
        out_width: usize,
    ) {
        let mut g = Aig::new();
        let a = g.add_inputs("a", width);
        let b = g.add_inputs("b", width);
        let out = f(&mut g, &a, &b);
        assert_eq!(out.len(), out_width);
        g.add_outputs("y", &out);
        let sim = Simulator::new(&g);
        let mask = (1u128 << width) - 1;
        let samples = [0u128, 1, 2, 3, 5, mask, mask - 1, 0xAA & mask, 0x5F & mask];
        for &x in &samples {
            for &y in &samples {
                let mut assignment = Vec::new();
                for i in 0..width {
                    assignment.push(x >> i & 1 == 1);
                }
                for i in 0..width {
                    assignment.push(y >> i & 1 == 1);
                }
                let got = eval_bus(&sim.evaluate(&assignment));
                let want = model(x, y) & ((1u128 << out_width) - 1);
                assert_eq!(got, want, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn adder_is_correct() {
        check_binary(
            8,
            |g, a, b| {
                let (s, c) = ripple_add(g, a, b, Lit::FALSE);
                let mut out = s;
                out.push(c);
                out
            },
            |x, y| x + y,
            9,
        );
    }

    #[test]
    fn subtractor_is_correct() {
        check_binary(
            8,
            |g, a, b| ripple_sub(g, a, b).0,
            |x, y| x.wrapping_sub(y),
            8,
        );
    }

    #[test]
    fn bitwise_ops_are_correct() {
        check_binary(6, bitwise_and, |x, y| x & y, 6);
        check_binary(6, bitwise_or, |x, y| x | y, 6);
        check_binary(6, bitwise_xor, |x, y| x ^ y, 6);
    }

    #[test]
    fn multiplier_is_correct() {
        check_binary(5, array_multiply, |x, y| x * y, 10);
    }

    #[test]
    fn shifts_are_correct() {
        // Shift amount is the low 3 bits of the second operand.
        check_binary(
            8,
            |g, a, b| barrel_shift_left(g, a, &b[..3]),
            |x, y| x << (y & 7),
            8,
        );
        check_binary(
            8,
            |g, a, b| barrel_shift_right(g, a, &b[..3]),
            |x, y| x >> (y & 7),
            8,
        );
    }

    #[test]
    fn comparisons_are_correct() {
        check_binary(
            7,
            |g, a, b| vec![equals(g, a, b), less_than(g, a, b)],
            |x, y| u128::from(x == y) | u128::from(x < y) << 1,
            2,
        );
    }

    #[test]
    fn conditional_subtract_reduces() {
        check_binary(
            8,
            conditional_subtract,
            |x, y| if x >= y { x - y } else { x },
            8,
        );
    }

    #[test]
    fn constant_bus_encodes_value() {
        let bus = constant_bus(8, 0xA5);
        assert_eq!(bus.len(), 8);
        assert_eq!(bus[0], Lit::TRUE);
        assert_eq!(bus[1], Lit::FALSE);
        assert_eq!(bus[7], Lit::TRUE);
    }

    #[test]
    fn reductions() {
        let mut g = Aig::new();
        let a = g.add_inputs("a", 4);
        let any = reduce_or(&mut g, &a);
        let parity = reduce_xor(&mut g, &a);
        g.add_output("any", any);
        g.add_output("parity", parity);
        let sim = Simulator::new(&g);
        for v in 0..16u32 {
            let bits: Vec<bool> = (0..4).map(|i| v >> i & 1 == 1).collect();
            let out = sim.evaluate(&bits);
            assert_eq!(out[0], v != 0);
            assert_eq!(out[1], v.count_ones() % 2 == 1);
        }
    }
}
