//! AIG node storage.

use crate::Lit;

/// The kind of an AIG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The unique constant-false node (always node 0).
    Constant,
    /// A primary input; the payload is the input's index in PI order.
    Input(u32),
    /// A two-input AND gate over two literals.
    And(Lit, Lit),
}

/// One node of an [`Aig`](crate::Aig).
///
/// Nodes are stored contiguously and referenced by [`NodeId`](crate::NodeId).
/// Fanin literals of an AND node always refer to nodes with a smaller id, so a
/// plain index sweep is a valid topological order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    kind: NodeKind,
    level: u32,
    fanout: u32,
}

impl Node {
    /// Creates the constant node.
    pub(crate) fn constant() -> Self {
        Node {
            kind: NodeKind::Constant,
            level: 0,
            fanout: 0,
        }
    }

    /// Creates a primary-input node with the given PI index.
    pub(crate) fn input(index: u32) -> Self {
        Node {
            kind: NodeKind::Input(index),
            level: 0,
            fanout: 0,
        }
    }

    /// Creates an AND node over two fanin literals at the given logic level.
    pub(crate) fn and(a: Lit, b: Lit, level: u32) -> Self {
        Node {
            kind: NodeKind::And(a, b),
            level,
            fanout: 0,
        }
    }

    /// Returns the node kind.
    #[inline]
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// Returns `true` if this node is an AND gate.
    #[inline]
    pub fn is_and(&self) -> bool {
        matches!(self.kind, NodeKind::And(_, _))
    }

    /// Returns `true` if this node is a primary input.
    #[inline]
    pub fn is_input(&self) -> bool {
        matches!(self.kind, NodeKind::Input(_))
    }

    /// Returns `true` if this node is the constant node.
    #[inline]
    pub fn is_constant(&self) -> bool {
        matches!(self.kind, NodeKind::Constant)
    }

    /// Returns the two fanin literals when this node is an AND gate.
    #[inline]
    pub fn fanins(&self) -> Option<(Lit, Lit)> {
        match self.kind {
            NodeKind::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// Returns the logic level (depth from the primary inputs, inputs are level 0).
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Returns the number of fanouts recorded for this node.
    #[inline]
    pub fn fanout_count(&self) -> u32 {
        self.fanout
    }

    pub(crate) fn add_fanout(&mut self) {
        self.fanout += 1;
    }

    pub(crate) fn reset_fanout(&mut self) {
        self.fanout = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_kind_predicates() {
        let c = Node::constant();
        assert!(c.is_constant() && !c.is_and() && !c.is_input());
        let i = Node::input(3);
        assert!(i.is_input() && !i.is_and());
        assert_eq!(i.kind(), NodeKind::Input(3));
        let a = Node::and(Lit::from_node(1, false), Lit::from_node(2, true), 1);
        assert!(a.is_and());
        assert_eq!(
            a.fanins(),
            Some((Lit::from_node(1, false), Lit::from_node(2, true)))
        );
        assert_eq!(a.level(), 1);
    }

    #[test]
    fn fanout_bookkeeping() {
        let mut n = Node::input(0);
        assert_eq!(n.fanout_count(), 0);
        n.add_fanout();
        n.add_fanout();
        assert_eq!(n.fanout_count(), 2);
        n.reset_fanout();
        assert_eq!(n.fanout_count(), 0);
    }
}
