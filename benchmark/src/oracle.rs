//! The harness's own functional oracle: a small ASCII-AIGER evaluator that
//! shares no code with the `aig` crate.  A synthesis result is accepted when
//! it computes the input design's outputs on 256 random input patterns.

use crate::rng::Rng64;

/// Input patterns per check (four 64-bit words per signal).
pub const PATTERNS: usize = 256;
const WORDS: usize = PATTERNS / 64;
type Sig = [u64; WORDS];

/// A parsed combinational `aag` netlist.
#[derive(Debug, PartialEq)]
pub struct Netlist {
    max_var: usize,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    ands: Vec<[usize; 3]>,
}

impl Netlist {
    /// Parses the header, input, output and AND lines of an `aag` file
    /// (symbol table and comments are ignored; latches are refused).
    pub fn parse(text: &str) -> Result<Netlist, String> {
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next().unwrap_or("").split_whitespace().collect();
        if header.len() != 6 || header[0] != "aag" {
            return Err("not an aag header".to_string());
        }
        let num = |s: &str| s.parse::<usize>().map_err(|e| format!("`{s}`: {e}"));
        let (max_var, i, l, o, a) = (
            num(header[1])?,
            num(header[2])?,
            num(header[3])?,
            num(header[4])?,
            num(header[5])?,
        );
        if l != 0 {
            return Err("latches are not combinational".to_string());
        }
        let mut literals = |count: usize, per_line: usize| -> Result<Vec<Vec<usize>>, String> {
            (0..count)
                .map(|_| {
                    let line = lines.next().ok_or("truncated file")?;
                    let lits = line
                        .split_whitespace()
                        .map(num)
                        .collect::<Result<Vec<_>, _>>()?;
                    if lits.len() != per_line || lits.iter().any(|&x| x > 2 * max_var + 1) {
                        return Err(format!("bad line `{line}`"));
                    }
                    Ok(lits)
                })
                .collect()
        };
        let inputs = literals(i, 1)?.into_iter().map(|v| v[0]).collect();
        let outputs = literals(o, 1)?.into_iter().map(|v| v[0]).collect();
        let ands = literals(a, 3)?
            .into_iter()
            .map(|v| [v[0], v[1], v[2]])
            .collect();
        Ok(Netlist {
            max_var,
            inputs,
            outputs,
            ands,
        })
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Simulates the netlist: `stimulus[i]` drives input `i`; returns one
    /// signal per output.  AND gates are evaluated in file order, which the
    /// format requires to be topological; a gate reading an undefined
    /// variable is an error.
    pub fn simulate(&self, stimulus: &[Sig]) -> Result<Vec<Sig>, String> {
        if stimulus.len() != self.inputs.len() {
            return Err("stimulus width differs from the input count".to_string());
        }
        let mut value: Vec<Option<Sig>> = vec![None; self.max_var + 1];
        value[0] = Some([0; WORDS]);
        for (&lit, &sig) in self.inputs.iter().zip(stimulus) {
            if lit % 2 == 1 || lit == 0 {
                return Err(format!("input literal {lit} must be a positive variable"));
            }
            value[lit / 2] = Some(sig);
        }
        let read = |value: &[Option<Sig>], lit: usize| -> Result<Sig, String> {
            let mut sig = value[lit / 2].ok_or(format!("literal {lit} used before definition"))?;
            if lit % 2 == 1 {
                sig.iter_mut().for_each(|w| *w = !*w);
            }
            Ok(sig)
        };
        for &[lhs, a, b] in &self.ands {
            if lhs % 2 == 1 || value[lhs / 2].is_some() {
                return Err(format!("AND literal {lhs} is complemented or redefined"));
            }
            let (x, y) = (read(&value, a)?, read(&value, b)?);
            value[lhs / 2] = Some(std::array::from_fn(|w| x[w] & y[w]));
        }
        self.outputs.iter().map(|&lit| read(&value, lit)).collect()
    }
}

/// Checks that `candidate` computes the same outputs as `reference` on
/// [`PATTERNS`] random patterns drawn from `seed`.
pub fn equivalent(reference: &str, candidate: &str, seed: u64) -> Result<(), String> {
    let reference = Netlist::parse(reference)?;
    let candidate = Netlist::parse(candidate)?;
    if reference.num_inputs() != candidate.num_inputs() {
        return Err("input counts differ".to_string());
    }
    let mut rng = Rng64::new(seed);
    let stimulus: Vec<Sig> = (0..reference.num_inputs())
        .map(|_| std::array::from_fn(|_| rng.next_u64()))
        .collect();
    if reference.simulate(&stimulus)? == candidate.simulate(&stimulus)? {
        Ok(())
    } else {
        Err("outputs differ on random patterns".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Half adder: sum = a ^ b (var 5 = !(a&b) & !(!a&!b)), carry = a & b.
    const HALF_ADDER: &str = "aag 5 2 0 2 3\n2\n4\n10\n6\n6 2 4\n8 3 5\n10 7 9\ni0 a\nc\nnote\n";
    // The same function with the XOR built as (a | b) & !(a & b).
    const HALF_ADDER_2: &str = "aag 5 2 0 2 3\n2\n4\n10\n6\n6 4 2\n8 3 5\n10 9 7\n";
    // Sum output replaced by OR.
    const BROKEN: &str = "aag 5 2 0 2 3\n2\n4\n9\n6\n6 2 4\n8 3 5\n10 7 9\n";

    #[test]
    fn evaluator_computes_the_half_adder_truth_table() {
        let net = Netlist::parse(HALF_ADDER).unwrap();
        // Patterns (bit k of each word): a = 0101, b = 0011.
        let out = net
            .simulate(&[[0b0101, 0, 0, 0], [0b0011, 0, 0, 0]])
            .unwrap();
        assert_eq!(out[0][0] & 0xF, 0b0110, "sum");
        assert_eq!(out[1][0] & 0xF, 0b0001, "carry");
    }

    #[test]
    fn equivalence_accepts_a_restructured_netlist_and_rejects_a_wrong_one() {
        assert_eq!(equivalent(HALF_ADDER, HALF_ADDER_2, 7), Ok(()));
        assert!(equivalent(HALF_ADDER, BROKEN, 7).is_err());
    }

    #[test]
    fn malformed_files_are_errors_not_panics() {
        assert!(Netlist::parse("aig 1 1 0 1 0\n").is_err());
        assert!(Netlist::parse("aag 1 1 1 0 0\n2\n2 3\n").is_err(), "latch");
        assert!(
            Netlist::parse("aag 3 2 0 1 1\n2\n4\n6\n").is_err(),
            "truncated"
        );
        assert!(
            Netlist::parse("aag 1 1 0 1 0\n2\n9\n").is_err(),
            "literal range"
        );
        let forward = Netlist::parse("aag 3 1 0 1 2\n2\n4\n4 6 2\n6 2 2\n").unwrap();
        assert!(
            forward.simulate(&[[0; 4]]).is_err(),
            "use before definition"
        );
    }
}
