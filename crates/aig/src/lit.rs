//! Literals: node references with an optional complement attribute.

use crate::NodeId;

/// A literal is a reference to an AIG node together with a complement flag.
///
/// Internally a literal is `node_id * 2 + complement`, exactly as in the AIGER
/// format and in ABC.  The constant-false node always has id 0, so
/// [`Lit::FALSE`] is literal `0` and [`Lit::TRUE`] is literal `1`.
///
/// ```
/// use aig::Lit;
/// let a = Lit::from_node(3, false);
/// assert_eq!(a.node(), 3);
/// assert!(!a.is_complemented());
/// assert_eq!((!a).node(), 3);
/// assert!((!a).is_complemented());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The constant-false literal (non-complemented constant node).
    pub const FALSE: Lit = Lit(0);
    /// The constant-true literal (complemented constant node).
    pub const TRUE: Lit = Lit(1);

    /// Builds a literal from a node id and a complement flag.
    #[inline]
    pub fn from_node(node: NodeId, complemented: bool) -> Self {
        Lit((node as u32) << 1 | complemented as u32)
    }

    /// Builds a literal from its raw AIGER-style encoding (`2 * node + phase`).
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        Lit(raw)
    }

    /// Returns the raw AIGER-style encoding of this literal.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Returns the node id this literal refers to.
    #[inline]
    pub fn node(self) -> NodeId {
        (self.0 >> 1) as NodeId
    }

    /// Returns `true` when the literal is complemented.
    #[inline]
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns the positive-phase (non-complemented) version of this literal.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit(self.0 & !1)
    }

    /// Returns this literal with the complement flag set to `c`.
    #[inline]
    pub fn with_complement(self, c: bool) -> Lit {
        Lit(self.0 & !1 | c as u32)
    }

    /// Returns `true` if this literal refers to the constant node.
    #[inline]
    pub fn is_const(self) -> bool {
        self.node() == 0
    }

    /// Returns `Some(value)` when this literal is one of the two constants.
    #[inline]
    pub fn const_value(self) -> Option<bool> {
        if self.is_const() {
            Some(self.is_complemented())
        } else {
            None
        }
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl std::ops::BitXor<bool> for Lit {
    type Output = Lit;

    /// Conditionally complements the literal: `lit ^ true == !lit`.
    #[inline]
    fn bitxor(self, rhs: bool) -> Lit {
        Lit(self.0 ^ rhs as u32)
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_complemented() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

impl Default for Lit {
    fn default() -> Self {
        Lit::FALSE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_node_zero() {
        assert_eq!(Lit::FALSE.node(), 0);
        assert_eq!(Lit::TRUE.node(), 0);
        assert!(!Lit::FALSE.is_complemented());
        assert!(Lit::TRUE.is_complemented());
        assert_eq!(Lit::FALSE.const_value(), Some(false));
        assert_eq!(Lit::TRUE.const_value(), Some(true));
    }

    #[test]
    fn complement_roundtrip() {
        let l = Lit::from_node(17, false);
        assert_eq!(!(!l), l);
        assert_ne!(!l, l);
        assert_eq!((!l).node(), 17);
    }

    #[test]
    fn conditional_complement() {
        let l = Lit::from_node(4, false);
        assert_eq!(l ^ false, l);
        assert_eq!(l ^ true, !l);
    }

    #[test]
    fn positive_strips_phase() {
        let l = Lit::from_node(9, true);
        assert_eq!(l.positive(), Lit::from_node(9, false));
        assert_eq!(l.with_complement(false), l.positive());
        assert_eq!(l.with_complement(true), l);
    }

    #[test]
    fn raw_roundtrip() {
        for raw in 0..64u32 {
            assert_eq!(Lit::from_raw(raw).raw(), raw);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Lit::from_node(5, false).to_string(), "n5");
        assert_eq!(Lit::from_node(5, true).to_string(), "!n5");
    }

    #[test]
    fn non_const_has_no_value() {
        assert_eq!(Lit::from_node(3, true).const_value(), None);
        assert!(!Lit::from_node(3, true).is_const());
    }
}
