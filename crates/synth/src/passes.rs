//! The transformation set `S` of the paper and the pass dispatcher.
//!
//! Section 2.2 of the paper fixes `S = {balance, restructure, rewrite, refactor,
//! rewrite -z, refactor -z}` (n = 6): six logic transformations that can be
//! applied in any order.  [`Transform`] enumerates them and
//! [`Transform::apply`] dispatches to the corresponding pass.

use aig::Aig;
use serde::{Deserialize, Serialize};

use crate::pass::PassContext;

/// One element of the paper's transformation set `S` (n = 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Transform {
    /// AND-tree balancing (`balance`).
    Balance,
    /// Shannon-decomposition restructuring (`restructure`).
    Restructure,
    /// Cut-based rewriting (`rewrite`).
    Rewrite,
    /// Large-cut refactoring (`refactor`).
    Refactor,
    /// Zero-cost-accepting rewriting (`rewrite -z`).
    RewriteZ,
    /// Zero-cost-accepting refactoring (`refactor -z`).
    RefactorZ,
}

impl Transform {
    /// The full transformation set in the order the paper lists it.
    pub const ALL: [Transform; 6] = [
        Transform::Balance,
        Transform::Restructure,
        Transform::Rewrite,
        Transform::Refactor,
        Transform::RewriteZ,
        Transform::RefactorZ,
    ];

    /// Number of transformations in the set (`n` in the paper's notation).
    pub const COUNT: usize = 6;

    /// The ABC command name of this transformation.
    pub fn command(self) -> &'static str {
        match self {
            Transform::Balance => "balance",
            Transform::Restructure => "restructure",
            Transform::Rewrite => "rewrite",
            Transform::Refactor => "refactor",
            Transform::RewriteZ => "rewrite -z",
            Transform::RefactorZ => "refactor -z",
        }
    }

    /// The transformation an ABC command names: the long name
    /// [`Transform::command`] renders, or its ABC alias (`b`, `rw`, `rf`,
    /// `rwz`, `rfz`).  `restructure` has none: ABC's `rs` is `resub`, which
    /// this set lacks.
    pub fn from_command(name: &str) -> Option<Transform> {
        match name {
            "balance" | "b" => Some(Transform::Balance),
            "restructure" => Some(Transform::Restructure),
            "rewrite" | "rw" => Some(Transform::Rewrite),
            "refactor" | "rf" => Some(Transform::Refactor),
            "rewrite -z" | "rwz" => Some(Transform::RewriteZ),
            "refactor -z" | "rfz" => Some(Transform::RefactorZ),
            _ => None,
        }
    }

    /// The index of this transformation within [`Transform::ALL`]
    /// (the `i` of `p_i` in the paper's notation, used by the one-hot encoding).
    pub fn index(self) -> usize {
        match self {
            Transform::Balance => 0,
            Transform::Restructure => 1,
            Transform::Rewrite => 2,
            Transform::Refactor => 3,
            Transform::RewriteZ => 4,
            Transform::RefactorZ => 5,
        }
    }

    /// Returns the transformation with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Transform::COUNT`.
    pub fn from_index(index: usize) -> Transform {
        Transform::ALL[index]
    }

    /// Applies this transformation to a network and returns the result.
    ///
    /// A thin front over a fresh [`PassContext`]; callers applying many
    /// transformations keep one context and use [`PassContext::apply`].
    pub fn apply(self, aig: &Aig) -> Aig {
        apply_sequence(aig, &[self])
    }
}

impl std::fmt::Display for Transform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.command())
    }
}

/// Applies a sequence of transformations in order and returns the final network.
///
/// This is exactly what running a synthesis flow inside ABC does to the design.
/// A thin front over [`PassContext::run_flow`] on a fresh context.
pub fn apply_sequence(aig: &Aig, transforms: &[Transform]) -> Aig {
    PassContext::default().run_flow(aig, transforms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::random_equivalence_check;
    use circuits::{Design, DesignScale};

    #[test]
    fn indices_roundtrip() {
        for (i, t) in Transform::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
            assert_eq!(Transform::from_index(i), *t);
        }
        assert_eq!(Transform::COUNT, Transform::ALL.len());
    }

    #[test]
    fn command_names_match_abc() {
        assert_eq!(Transform::Balance.command(), "balance");
        assert_eq!(Transform::RewriteZ.command(), "rewrite -z");
        assert_eq!(Transform::RefactorZ.to_string(), "refactor -z");
        for t in Transform::ALL {
            assert_eq!(Transform::from_command(t.command()), Some(t));
        }
        assert_eq!(Transform::from_command("rwz"), Some(Transform::RewriteZ));
        assert_eq!(Transform::from_command("rs"), None, "ABC's rs is resub");
    }

    #[test]
    fn every_transform_preserves_function() {
        let g = Design::Montgomery64.generate(DesignScale::Tiny);
        for t in Transform::ALL {
            let out = t.apply(&g);
            assert!(
                random_equivalence_check(&g, &out, 4, 7),
                "{t} changed the function"
            );
        }
    }

    #[test]
    fn sequences_preserve_function_and_differ_in_qor() {
        let g = Design::Alu64.generate(DesignScale::Tiny);
        let flows: [&[Transform]; 4] = [
            &[Transform::Balance, Transform::Rewrite, Transform::Refactor],
            &[Transform::Refactor, Transform::Rewrite, Transform::Balance],
            &[
                Transform::Restructure,
                Transform::Balance,
                Transform::RewriteZ,
            ],
            &[
                Transform::RefactorZ,
                Transform::Restructure,
                Transform::Rewrite,
            ],
        ];
        let mut signatures = Vec::new();
        for flow in flows {
            let r = apply_sequence(&g, flow);
            assert!(random_equivalence_check(&g, &r, 4, 3), "{flow:?}");
            signatures.push((r.num_ands(), r.depth()));
        }
        // The whole premise of the paper: order/choice matters for QoR, so the
        // four flows must not all collapse to the same structural result.
        let first = signatures[0];
        assert!(
            signatures.iter().any(|&s| s != first),
            "all flows produced identical structure: {signatures:?}"
        );
    }

    #[test]
    fn empty_sequence_is_cleanup() {
        let g = Design::Alu64.generate(DesignScale::Tiny);
        let out = apply_sequence(&g, &[]);
        assert_eq!(out.num_ands(), g.cleanup().num_ands());
    }
}
