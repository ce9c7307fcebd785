//! Maximum fanout-free cone (MFFC) analysis.
//!
//! The MFFC of a node is the set of nodes that would become dangling if the
//! node were removed — i.e. the logic "owned" exclusively by that node.  The
//! synthesis passes use MFFC size as the gain estimate of replacing a node's
//! implementation.
//!
//! The analysis only reads the graph: the dereferenced fanout counts live in
//! an epoch-stamped side table ([`MffcScratch`]), so any number of threads can
//! compute cones of one shared [`Aig`] at once.

use crate::{Aig, NodeId};

/// Result of an MFFC computation for a single root node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mffc {
    root: NodeId,
    nodes: Vec<NodeId>,
}

impl Mffc {
    /// Computes the MFFC of `root`, optionally bounded by a set of `leaves`
    /// (nodes that are never entered, e.g. the leaves of a cut).
    ///
    /// Fanout counts must be up to date: call [`Aig::compute_fanouts`] first.
    /// The constant node and primary inputs are never part of an MFFC.  Hot
    /// loops call [`Mffc::compute_with`], which allocates nothing.
    pub fn compute(aig: &Aig, root: NodeId, leaves: &[NodeId]) -> Mffc {
        let mut scratch = MffcScratch::default();
        let mut nodes = Mffc::compute_with(aig, root, leaves, &mut scratch)
            .nodes()
            .to_vec();
        nodes.sort_unstable();
        Mffc { root, nodes }
    }

    /// [`Mffc::compute`] on recycled scratch: the same cone, answered by the
    /// returned scratch until its next computation.
    pub fn compute_with<'s>(
        aig: &Aig,
        root: NodeId,
        leaves: &[NodeId],
        scratch: &'s mut MffcScratch,
    ) -> &'s MffcScratch {
        // Fanins have smaller ids, so no cone node lies past the root.
        scratch.begin(root + 1);
        if !aig.node(root).is_and() || leaves.contains(&root) {
            return scratch;
        }
        let epoch = scratch.epoch;
        scratch.refs[root] = (epoch, 0);
        scratch.nodes.push(root);
        // Dereference: every cone node drops one reference from each AND
        // fanin; a fanin joins the cone when its last reference is gone.
        // The cone is the same whatever order it is walked in.
        let mut next = 0;
        while let Some(&id) = scratch.nodes.get(next) {
            next += 1;
            let (a, b) = aig.node(id).fanins().expect("AND node");
            for fanin in [a.node(), b.node()] {
                if !aig.node(fanin).is_and() || leaves.contains(&fanin) {
                    continue;
                }
                let slot = &mut scratch.refs[fanin];
                if slot.0 != epoch {
                    *slot = (epoch, aig.fanout_count(fanin));
                }
                debug_assert!(slot.1 > 0, "fanout counts must be current");
                slot.1 -= 1;
                if slot.1 == 0 {
                    scratch.nodes.push(fanin);
                }
            }
        }
        scratch
    }

    /// The root node of the cone.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The nodes in the cone (including the root), sorted by id.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of AND nodes in the cone, i.e. the gain of removing the root.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if `id` belongs to the cone.
    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.binary_search(&id).is_ok()
    }
}

/// Reusable side table of [`Mffc::compute_with`], holding the cone it last
/// computed.
///
/// One `(epoch, references left)` slot per node: a slot stamped with an
/// older epoch still stands for the graph's own fanout count, so starting a
/// computation is one counter bump rather than a clear, and the graph is
/// never written.
#[derive(Debug, Default)]
pub struct MffcScratch {
    refs: Vec<(u32, u32)>,
    epoch: u32,
    nodes: Vec<NodeId>,
}

impl MffcScratch {
    fn begin(&mut self, len: usize) {
        if self.refs.len() < len {
            // Stamp 0 is never current, so a fresh zeroed table (no copy of
            // the old stamps) is as good as a grown one.  Growth is geometric
            // because a sweep's roots ascend.
            self.refs = vec![(0, 0); len.next_power_of_two()];
        }
        if self.epoch == u32::MAX {
            self.refs.iter_mut().for_each(|slot| slot.0 = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.nodes.clear();
    }

    /// Number of AND nodes in the last computed cone.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if `id` belongs to the last computed cone: exactly the
    /// nodes whose references all dropped (the root counts as having none).
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.refs.get(id) == Some(&(self.epoch, 0))
    }

    /// The nodes of the last computed cone (root first), in discovery order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aig, Lit};

    /// Builds: f = (a&b) & (c&d), g = (a&b) & e.  The node (a&b) is shared.
    fn shared_aig() -> (Aig, Lit, Lit, Lit) {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let d = g.add_input("d");
        let e = g.add_input("e");
        let ab = g.and(a, b);
        let cd = g.and(c, d);
        let f = g.and(ab, cd);
        let out2 = g.and(ab, e);
        g.add_output("f", f);
        g.add_output("g", out2);
        g.compute_fanouts();
        (g, f, ab, cd)
    }

    #[test]
    fn mffc_excludes_shared_nodes() {
        let (g, f, ab, cd) = shared_aig();
        let m = Mffc::compute(&g, f.node(), &[]);
        // ab is shared with the second output, so only {f, cd} are owned by f.
        assert!(m.contains(f.node()));
        assert!(m.contains(cd.node()));
        assert!(!m.contains(ab.node()));
        assert_eq!(m.size(), 2);
    }

    /// The definition, computed from scratch: starting from the root, a node
    /// joins once it is referenced (by an AND fanin or an output) and every
    /// one of its references comes from the cone; leaves are never entered.
    fn brute_force(g: &Aig, root: NodeId, leaves: &[NodeId]) -> Vec<NodeId> {
        if !g.node(root).is_and() || leaves.contains(&root) {
            return Vec::new();
        }
        // One entry per reference: `Some(and)` for a fanin edge, `None` for
        // an output.
        let mut referrers: Vec<Vec<Option<NodeId>>> = vec![Vec::new(); g.len()];
        for id in g.and_ids() {
            let (a, b) = g.node(id).fanins().expect("AND node");
            referrers[a.node()].push(Some(id));
            referrers[b.node()].push(Some(id));
        }
        for l in g.outputs() {
            referrers[l.node()].push(None);
        }
        let mut cone = vec![false; g.len()];
        cone[root] = true;
        loop {
            let mut grew = false;
            for id in g.and_ids() {
                if cone[id] || leaves.contains(&id) {
                    continue;
                }
                let from_cone = |r: &Option<NodeId>| r.is_some_and(|p| cone[p]);
                let refs = &referrers[id];
                if refs.iter().any(from_cone) && refs.iter().all(from_cone) {
                    cone[id] = true;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        (0..g.len()).filter(|&id| cone[id]).collect()
    }

    /// Seeded random graph with dangling nodes, several outputs and
    /// reconvergence; fanouts computed.
    fn random_aig(rng: &mut impl FnMut() -> u64) -> Aig {
        let mut g = Aig::new();
        let mut lits: Vec<Lit> = g.add_inputs("x", 6);
        for _ in 0..70 {
            let a = lits[(rng() % lits.len() as u64) as usize];
            let b = lits[(rng() % lits.len() as u64) as usize];
            let a = if rng() & 1 == 1 { !a } else { a };
            let b = if rng() & 1 == 1 { !b } else { b };
            let l = g.and(a, b);
            if !l.is_const() {
                lits.push(l);
            }
        }
        for i in 0..4 {
            let l = lits[(rng() % lits.len() as u64) as usize];
            g.add_output(format!("o{i}"), l);
        }
        g.compute_fanouts();
        g
    }

    #[test]
    fn mffc_restores_fanout_counts() {
        // Both entry points equal the definition on random graphs, with and
        // without leaf bounds, through one scratch reused across graphs and
        // an epoch wrap-around — and neither writes the graph.
        let mut state = 0x3FFC_5EEDu64;
        let mut rng = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let mut scratch = MffcScratch {
            epoch: u32::MAX - 40,
            ..MffcScratch::default()
        };
        for _ in 0..6 {
            let g = random_aig(&mut rng);
            let generation = g.generation();
            let fanouts: Vec<u32> = (0..g.len()).map(|i| g.fanout_count(i)).collect();
            for root in 0..g.len() {
                let below: Vec<NodeId> = (1..root).collect();
                let mut leaves = Vec::new();
                for _ in 0..rng() % 4 {
                    if !below.is_empty() {
                        leaves.push(below[(rng() % below.len() as u64) as usize]);
                    }
                }
                for bound in [&[][..], &leaves[..]] {
                    let want = brute_force(&g, root, bound);
                    let m = Mffc::compute(&g, root, bound);
                    assert_eq!(m.nodes(), want, "root {root} leaves {bound:?}");
                    let view = Mffc::compute_with(&g, root, bound, &mut scratch);
                    let mut got = view.nodes().to_vec();
                    got.sort_unstable();
                    assert_eq!(got, want, "root {root} leaves {bound:?}");
                    assert_eq!(view.size(), want.len());
                    for id in 0..g.len() + 2 {
                        assert_eq!(view.contains(id), want.contains(&id), "node {id}");
                    }
                }
            }
            assert_eq!(g.generation(), generation, "the graph is never written");
            let after: Vec<u32> = (0..g.len()).map(|i| g.fanout_count(i)).collect();
            assert_eq!(fanouts, after, "fanout counts are untouched");
        }
        assert!(scratch.epoch < 10_000, "the epoch wrapped and restarted");
    }

    #[test]
    fn mffc_bounded_by_leaves() {
        let (g, f, _, cd) = shared_aig();
        let m = Mffc::compute(&g, f.node(), &[cd.node()]);
        assert_eq!(
            m.size(),
            1,
            "only the root when its fanins are leaves/shared"
        );
        assert!(m.contains(f.node()));
    }

    #[test]
    fn mffc_of_single_fanout_chain() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.and(a, b);
        let abc = g.and(ab, c);
        g.add_output("f", abc);
        g.compute_fanouts();
        let m = Mffc::compute(&g, abc.node(), &[]);
        assert_eq!(m.size(), 2);
        assert!(m.contains(ab.node()));
    }

    #[test]
    fn mffc_of_input_is_empty() {
        let (g, ..) = shared_aig();
        let pi = g.input_ids()[0];
        let m = Mffc::compute(&g, pi, &[]);
        assert_eq!(m.size(), 0);
        assert_eq!(m.root(), pi);
    }
}
