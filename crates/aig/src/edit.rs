//! In-place editing of a resident [`Aig`] with incremental strash repair.
//!
//! The synthesis passes historically *rebuilt* a fresh graph to apply their
//! accepted replacements: every node of the source was re-emitted through
//! [`Aig::and`] into a second buffer and the result cleaned up into a third
//! traversal — two full strash constructions and an interface re-clone per
//! pass, even when the pass decided to touch a few dozen nodes.
//!
//! [`InPlaceEditor`] applies the same replacements by *mutating the resident
//! graph*:
//!
//! * untouched nodes are kept where they are (no hashing, no copy),
//! * replacement structures are appended through the live strash
//!   ([`InPlaceEditor::and`]), merging with existing logic exactly like the
//!   rebuild would,
//! * nodes whose fanins were remapped have their strash entry repaired in
//!   place (old key removed, new key inserted) and their storage recycled,
//! * cones orphaned by a replacement simply stop being referenced and are
//!   reclaimed by the final [`InPlaceEditor::finish`] compaction.
//!
//! **Bit-identity.** The editor reproduces the reference rebuild
//! (`rebuild_with_decisions` + [`Aig::cleanup`]) node-for-node, not just
//! functionally.  The key device is *rank-on-touch* numbering: the rebuild
//! emits surviving nodes in the order it first creates them, so the editor
//! assigns each node an emission rank the first time it is touched — created,
//! returned by a strash hit, or kept during the copy sweep — and the final
//! compaction renumbers survivors in rank order.  A strash hit on a node the
//! sweep has not reached yet (or on a node already orphaned by an earlier
//! replacement) corresponds to the rebuild creating a fresh duplicate that
//! the node later merges into, so reviving the existing storage yields the
//! same graph under the same numbering.
//!
//! **Patched analyses.** Logic levels are refreshed at rank time (a node's
//! fanins are final by then, so `1 + max(fanin levels)` is exact), and the
//! compaction accumulates fanout counts while it rewires fanin literals —
//! the epoch stamps ([`Aig::is_clean`], [`Aig::fanouts_fresh`]) come out
//! *fresh*, so the next pass skips both whole-graph recomputes.  When a pass
//! touches most of the graph, callers should prefer the plain rebuild (the
//! editor's per-node bookkeeping only wins while the dirty region is small);
//! the `synth` crate gates this on a dirty-fraction threshold.

use crate::graph::trivial_and;
use crate::{Aig, Lit, Node, NodeId};

/// Rank value of a node the editor has not touched yet.
const UNRANKED: u32 = u32::MAX;

/// Reusable buffers of an [`InPlaceEditor`] session: the rank table, the
/// reachability marks and the compaction staging area survive across every
/// pass of a flow, so steady-state editing never touches the allocator.
#[derive(Debug, Default)]
pub struct EditScratch {
    /// Emission rank per live node id (`UNRANKED` until first touch).
    rank: Vec<u32>,
    /// Reachability marks of the final compaction.
    reachable: Vec<bool>,
    /// Traversal stack of the final compaction.
    stack: Vec<NodeId>,
    /// Surviving AND ids, sorted by rank.
    survivors: Vec<NodeId>,
    /// Old node id → new node id under the compaction.
    perm: Vec<u32>,
    /// Staging area for the renumbered node records.
    nodes_tmp: Vec<Node>,
    /// Post-compaction ids of the re-keyed survivors of the incremental
    /// strash repair, inserted once the stale entries are gone.
    repairs: Vec<NodeId>,
}

/// An in-place editing session over one resident [`Aig`].
///
/// Obtain one with [`InPlaceEditor::begin`], replay the pass's node sweep
/// through [`copy`](InPlaceEditor::copy) / [`and`](InPlaceEditor::and), then
/// call [`finish`](InPlaceEditor::finish) with the remapped output literals.
/// The result is node-for-node identical to rebuilding a fresh graph with the
/// same replacements and cleaning it up (see the module docs for why).
///
/// The subject graph must be dangling-free on entry (its primary inputs
/// occupy ids `1..=k`), which is what [`Aig::is_clean`] certifies.
#[derive(Debug)]
pub struct InPlaceEditor<'a> {
    g: &'a mut Aig,
    scratch: &'a mut EditScratch,
    next_rank: u32,
    touched: usize,
}

impl<'a> InPlaceEditor<'a> {
    /// Starts an editing session on `g`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the graph is clean (primary inputs at ids
    /// `1..=num_inputs`, no dangling nodes) — the invariant every synthesis
    /// pass establishes before sweeping.
    pub fn begin(g: &'a mut Aig, scratch: &'a mut EditScratch) -> Self {
        debug_assert!(
            g.inputs.iter().enumerate().all(|(i, &id)| id == i + 1),
            "in-place editing requires a clean graph (inputs at ids 1..=k)"
        );
        scratch.rank.clear();
        scratch.rank.resize(g.nodes.len(), UNRANKED);
        InPlaceEditor {
            g,
            scratch,
            next_rank: 0,
            touched: 0,
        }
    }

    /// Read access to the graph mid-edit (levels and fanins of final literals
    /// are valid; ids are pre-compaction).
    pub fn graph(&self) -> &Aig {
        self.g
    }

    /// Number of nodes structurally changed so far (created or rewired) —
    /// the size of the dirty region, for diagnostics and threshold tuning.
    pub fn touched(&self) -> usize {
        self.touched
    }

    /// The literal's raw encoding in the *reference rebuild's* id space:
    /// constant and inputs keep their ids, ANDs are numbered by emission
    /// rank.  This is the ordering [`Aig::and`] would have used to
    /// canonicalise fanins in the rebuilt graph, so stored fanin pairs must
    /// be ordered by it (the compaction permutation preserves it, the old
    /// live-graph id order does not).
    fn final_raw(&self, l: Lit) -> u64 {
        let n = l.node();
        let id = if n <= self.g.inputs.len() {
            n as u64
        } else {
            debug_assert_ne!(self.scratch.rank[n], UNRANKED, "operand must be final");
            (1 + self.g.inputs.len()) as u64 + self.scratch.rank[n] as u64
        };
        id << 1 | l.is_complemented() as u64
    }

    /// Orders a fanin pair the way the reference rebuild would store it.
    fn ref_order(&self, a: Lit, b: Lit) -> (Lit, Lit) {
        if self.final_raw(a) <= self.final_raw(b) {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Marks `id` as emitted, assigning the next rank, refreshing its level
    /// and reordering its stored fanins into reference order, the first time
    /// it is touched.  Idempotent afterwards: a ranked node is final and its
    /// record never changes again.
    fn touch(&mut self, id: NodeId) {
        if self.scratch.rank[id] != UNRANKED {
            return;
        }
        self.scratch.rank[id] = self.next_rank;
        self.next_rank += 1;
        let (a, b) = self.g.nodes[id].fanins().expect("only ANDs are ranked");
        let (a, b) = self.ref_order(a, b);
        let level = 1 + self.g.nodes[a.node()]
            .level()
            .max(self.g.nodes[b.node()].level());
        self.g.nodes[id] = Node::and(a, b, level);
    }

    /// The editing analogue of [`Aig::and`]: trivial simplification,
    /// canonicalisation and a live strash lookup, creating (and ranking) a
    /// node only on a miss.  A hit ranks the existing node if the sweep has
    /// not reached it yet — that is the rebuild creating the duplicate this
    /// node would later merge into.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if let Some(l) = trivial_and(a, b) {
            return l;
        }
        // The strash key is the unordered pair of live-graph literals
        // (consistent with the pre-existing entries); the stored fanin pair
        // uses reference order.
        if let Some(id) = self.g.strash.find(&self.g.nodes, a, b) {
            self.touch(id);
            return Lit::from_node(id, false);
        }
        let (ra, rb) = self.ref_order(a, b);
        let level = 1 + self.g.nodes[a.node()]
            .level()
            .max(self.g.nodes[b.node()].level());
        let id = self.g.nodes.len();
        self.g.nodes.push(Node::and(ra, rb, level));
        self.g.strash.insert(&self.g.nodes, id);
        self.scratch.rank.push(self.next_rank);
        self.next_rank += 1;
        self.touched += 1;
        Lit::from_node(id, false)
    }

    /// The editing analogue of [`Aig::mux`] (`sel ? t : e`), built from the
    /// same three [`and`](InPlaceEditor::and) calls.
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let a = self.and(sel, t);
        let b = self.and(!sel, e);
        !self.and(!a, !b)
    }

    /// Replays the copy of AND node `id` whose fanins were remapped to
    /// `(na, nb)` — the in-place counterpart of the rebuild's
    /// `out.and(map[a], map[b])`:
    ///
    /// * unchanged canonical key → the node is kept untouched (zero hashing),
    /// * key collides with existing structure → merged into it (this node's
    ///   storage is orphaned and reclaimed at [`finish`](Self::finish)),
    /// * otherwise the node's storage is recycled: old strash entry removed,
    ///   fanins/level rewritten, new entry inserted.  A strash slot reads its
    ///   key from the node record, so the removal must come before the
    ///   rewrite and the insertion after it.
    pub fn copy(&mut self, id: NodeId, na: Lit, nb: Lit) -> Lit {
        if let Some(l) = trivial_and(na, nb) {
            return l;
        }
        let (x, y) = if na.raw() <= nb.raw() {
            (na, nb)
        } else {
            (nb, na)
        };
        let (fa, fb) = self.g.nodes[id].fanins().expect("copy of an AND node");
        if (x, y) == (fa, fb) {
            self.touch(id);
            return Lit::from_node(id, false);
        }
        if let Some(m) = self.g.strash.find(&self.g.nodes, x, y) {
            self.touch(m);
            return Lit::from_node(m, false);
        }
        if self.scratch.rank[id] != UNRANKED {
            // The node's storage was already revived under its old key by an
            // earlier strash hit; the remapped copy needs a fresh node.
            return self.and(x, y);
        }
        self.g.strash.remove(&self.g.nodes, id);
        let (ra, rb) = self.ref_order(x, y);
        let level = 1 + self.g.nodes[x.node()]
            .level()
            .max(self.g.nodes[y.node()].level());
        self.g.nodes[id] = Node::and(ra, rb, level);
        self.g.strash.insert(&self.g.nodes, id);
        self.scratch.rank[id] = self.next_rank;
        self.next_rank += 1;
        self.touched += 1;
        Lit::from_node(id, false)
    }

    /// Installs the remapped primary outputs and compacts the graph:
    /// dangling cones are reclaimed, survivors are renumbered in rank order
    /// (the rebuild's emission order), fanin literals and the strash are
    /// rewritten for the new ids, and fanout counts are accumulated in the
    /// same sweep.  The graph comes out with *fresh* clean/fanout epochs.
    ///
    /// `outputs` are the output literals in pre-compaction ids (the caller's
    /// remap of the original outputs).
    pub fn finish(self, outputs: &[Lit]) {
        let g = self.g;
        let s = self.scratch;

        // Reachability from the new outputs over the live (pre-compaction) ids.
        s.reachable.clear();
        s.reachable.resize(g.nodes.len(), false);
        s.stack.clear();
        s.stack.extend(outputs.iter().map(|l| l.node()));
        while let Some(id) = s.stack.pop() {
            if s.reachable[id] {
                continue;
            }
            s.reachable[id] = true;
            if let Some((a, b)) = g.nodes[id].fanins() {
                s.stack.push(a.node());
                s.stack.push(b.node());
            }
        }

        // Survivors in rank order = the rebuild's emission order.
        s.survivors.clear();
        for id in 1..g.nodes.len() {
            if s.reachable[id] && g.nodes[id].is_and() {
                debug_assert_ne!(s.rank[id], UNRANKED, "reachable nodes are ranked");
                s.survivors.push(id);
            }
        }
        s.survivors.sort_unstable_by_key(|&id| s.rank[id]);

        // Renumbering: constant and inputs are pinned, ANDs follow in rank order.
        let base = 1 + g.inputs.len();
        s.perm.clear();
        s.perm.resize(g.nodes.len(), 0);
        for &id in &g.inputs {
            s.perm[id] = id as u32;
        }
        for (i, &id) in s.survivors.iter().enumerate() {
            s.perm[id] = (base + i) as u32;
        }

        // Stage the renumbered records (levels were patched at rank time),
        // counting how many survivors change their id or strash key on the
        // way — the dirty region the incremental repair below must patch.
        s.nodes_tmp.clear();
        let mut moved = 0usize;
        for &id in &s.survivors {
            let (a, b) = g.nodes[id].fanins().expect("survivor is an AND");
            let na = Lit::from_node(s.perm[a.node()] as usize, a.is_complemented());
            let nb = Lit::from_node(s.perm[b.node()] as usize, b.is_complemented());
            if s.perm[id] as usize != id || na != a || nb != b {
                moved += 1;
            }
            s.nodes_tmp.push(Node::and(na, nb, g.nodes[id].level()));
        }
        let dead = (g.nodes.len() - base) - s.survivors.len();

        // Strash maintenance is either *incremental* (repair exactly the
        // moved / dead entries) or the full clear + re-insert.  Mid-edit the
        // table holds exactly one entry per AND record — live or orphaned —
        // keyed by the unordered raw pair of its stored fanins, so a survivor
        // whose id and key are both unchanged already has the correct
        // post-compaction entry and costs nothing.  A repair is ~2 table ops
        // (remove + insert) against 1 insert per survivor for the rebuild,
        // so patch only while the dirty region is the minority.
        let incremental = 2 * moved + dead < s.survivors.len();
        if incremental {
            s.repairs.clear();
            // Phase 1, while every record still holds the fanins its entry
            // was keyed by: drop every stale entry (and collect the re-keyed
            // survivors) before any new key lands — a repair's new key may
            // equal another entry's not-yet-removed old key.
            for (i, &id) in s.survivors.iter().enumerate() {
                if s.perm[id] as usize == id && s.nodes_tmp[i].fanins() == g.nodes[id].fanins() {
                    continue;
                }
                g.strash.remove(&g.nodes, id);
                s.repairs.push(s.perm[id] as usize);
            }
            for id in base..g.nodes.len() {
                if !s.reachable[id] {
                    g.strash.remove(&g.nodes, id);
                }
            }
        }

        g.nodes.truncate(base);
        g.nodes.extend_from_slice(&s.nodes_tmp);

        g.outputs.clear();
        g.outputs.extend(
            outputs
                .iter()
                .map(|l| Lit::from_node(s.perm[l.node()] as usize, l.is_complemented())),
        );

        for n in &mut g.nodes {
            n.reset_fanout();
        }
        if incremental {
            // Phase 2, now that the records hold their renumbered fanins:
            // land the re-keyed entries.  Post-compaction keys are unique
            // (the reference rebuild would have merged duplicates), so no
            // repair may collide with a kept entry.
            for &id in &s.repairs {
                g.strash.insert(&g.nodes, id);
            }
            for id in base..g.nodes.len() {
                let (a, b) = g.nodes[id].fanins().expect("AND tail");
                g.nodes[a.node()].add_fanout();
                g.nodes[b.node()].add_fanout();
            }
        } else {
            // One sweep rebuilds the strash for the new ids and accumulates
            // the fanout counts the next pass would otherwise recompute.
            g.strash.clear();
            for id in base..g.nodes.len() {
                let (a, b) = g.nodes[id].fanins().expect("AND tail");
                g.strash.insert(&g.nodes, id);
                g.nodes[a.node()].add_fanout();
                g.nodes[b.node()].add_fanout();
            }
        }
        for i in 0..g.outputs.len() {
            let n = g.outputs[i].node();
            g.nodes[n].add_fanout();
        }

        g.generation += 1;
        g.clean_at = g.generation;
        g.fanouts_at = g.generation;
        debug_assert_eq!(g.strash.len(), g.num_ands(), "one strash entry per AND");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeKind;

    /// Deterministic xorshift64* (same idiom as `simulate.rs`).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn flip(&mut self) -> bool {
            self.next() & 1 == 1
        }
    }

    /// Builds a random dangling-free graph: `inputs` PIs, up to `ands` AND
    /// nodes over random earlier literals, a handful of random outputs,
    /// then a cleanup so inputs occupy ids `1..=k`.
    fn random_clean_graph(rng: &mut XorShift, inputs: usize, ands: usize) -> Aig {
        let mut g = Aig::with_name("rand");
        g.add_inputs("i", inputs);
        let mut lits: Vec<Lit> = g.input_lits();
        for _ in 0..ands {
            let a = lits[rng.below(lits.len())] ^ rng.flip();
            let b = lits[rng.below(lits.len())] ^ rng.flip();
            let f = g.and(a, b);
            lits.push(f);
        }
        let n_out = 1 + rng.below(4);
        for k in 0..n_out {
            // Bias towards late nodes so most of the graph stays reachable.
            let lo = lits.len().saturating_sub(8);
            let l = lits[lo + rng.below(lits.len() - lo)] ^ rng.flip();
            g.add_output(format!("o{k}"), l);
        }
        let mut clean = g.cleanup();
        clean.compute_fanouts();
        clean
    }

    /// Node-for-node comparison: kinds (with fanin literals), levels,
    /// outputs, input/output names.
    fn assert_identical(a: &Aig, b: &Aig) {
        assert_eq!(a.len(), b.len(), "node counts differ");
        for id in 0..a.len() {
            assert_eq!(a.node(id).kind(), b.node(id).kind(), "kind of node {id}");
            assert_eq!(a.node(id).level(), b.node(id).level(), "level of node {id}");
        }
        assert_eq!(a.outputs(), b.outputs(), "output literals");
        assert_eq!(a.num_inputs(), b.num_inputs());
        for i in 0..a.num_inputs() {
            assert_eq!(a.input_name(i), b.input_name(i), "input name {i}");
        }
        for i in 0..a.num_outputs() {
            assert_eq!(a.output_name(i), b.output_name(i), "output name {i}");
        }
    }

    /// Asserts the patched analyses (strash, fanouts, levels, epoch flags)
    /// are bit-identical to a from-scratch recompute.
    fn assert_analyses_fresh(g: &Aig) {
        assert!(g.is_clean(), "clean epoch must be fresh after finish");
        assert!(g.fanouts_fresh(), "fanout epoch must be fresh after finish");

        // Strash: exactly one entry per AND, keyed by its stored fanins.
        assert_eq!(
            g.strash.len(),
            g.num_ands(),
            "stale or missing strash entries"
        );
        for id in g.and_ids() {
            let (a, b) = g.node(id).fanins().unwrap();
            assert_eq!(
                g.find_and(a, b),
                Some(Lit::from_node(id, false)),
                "strash entry of node {id}"
            );
        }

        // Levels: recompute from fanins (index order is topological).
        for id in g.and_ids() {
            let (a, b) = g.node(id).fanins().unwrap();
            let want = 1 + g.node(a.node()).level().max(g.node(b.node()).level());
            assert_eq!(g.node(id).level(), want, "level of node {id}");
        }

        // Fanouts: compare the patched counts against a full recompute.
        let patched: Vec<u32> = (0..g.len()).map(|id| g.fanout_count(id)).collect();
        let mut fresh = g.clone();
        fresh.compute_fanouts();
        let recomputed: Vec<u32> = (0..fresh.len()).map(|id| fresh.fanout_count(id)).collect();
        assert_eq!(
            patched, recomputed,
            "patched fanouts diverge from recompute"
        );
    }

    #[test]
    fn identity_sweep_preserves_graph() {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        for _ in 0..10 {
            let mut g = random_clean_graph(&mut rng, 6, 40);
            let before = g.clone();
            let mut scratch = EditScratch::default();
            let mut map = vec![Lit::FALSE; g.len()];
            for &id in g.input_ids() {
                map[id] = Lit::from_node(id, false);
            }
            let and_ids: Vec<_> = g.and_ids().collect();
            let outs: Vec<Lit> = g.outputs().to_vec();
            let mut ed = InPlaceEditor::begin(&mut g, &mut scratch);
            for id in and_ids {
                let (a, b) = ed.graph().node(id).fanins().unwrap();
                let na = map[a.node()] ^ a.is_complemented();
                let nb = map[b.node()] ^ b.is_complemented();
                map[id] = ed.copy(id, na, nb);
            }
            let outs: Vec<Lit> = outs
                .iter()
                .map(|l| map[l.node()] ^ l.is_complemented())
                .collect();
            assert_eq!(ed.touched(), 0, "identity sweep must not touch anything");
            ed.finish(&outs);
            assert_identical(&g, &before);
            assert_analyses_fresh(&g);
        }
    }

    /// The core differential test: a seeded random edit sequence applied via
    /// the editor must yield a graph node-for-node identical to replaying the
    /// same sequence through a from-scratch rebuild + cleanup (the pinned
    /// reference path of the `synth` passes).
    #[test]
    fn random_edits_match_reference_rebuild() {
        for seed in 1..=20u64 {
            let mut rng = XorShift(seed.wrapping_mul(0x0101_0101_0101_0101) | 1);
            let mut g = random_clean_graph(&mut rng, 5 + seed as usize % 4, 60);

            // Pre-draw the per-node choice so both replicas see the same plan:
            // None = keep, Some((pattern, donor, phases)) = replace.
            let and_ids: Vec<_> = g.and_ids().collect();
            let plan: Vec<Option<(u8, usize, u64)>> = and_ids
                .iter()
                .map(|&id| {
                    if rng.below(100) < 30 {
                        Some((rng.next() as u8 % 4, rng.below(id), rng.next()))
                    } else {
                        None
                    }
                })
                .collect();

            // Reference replica: rebuild into a fresh graph, then cleanup.
            let mut rebuilt = Aig::with_name(g.name());
            let mut rmap = vec![Lit::FALSE; g.len()];
            for (i, &id) in g.input_ids().to_vec().iter().enumerate() {
                rmap[id] = rebuilt.add_input(g.input_name(i));
            }
            for (k, &id) in and_ids.iter().enumerate() {
                let (a, b) = g.node(id).fanins().unwrap();
                let na = rmap[a.node()] ^ a.is_complemented();
                let nb = rmap[b.node()] ^ b.is_complemented();
                rmap[id] = match plan[k] {
                    None => rebuilt.and(na, nb),
                    Some((pat, donor, phases)) => {
                        let c = rmap[donor] ^ (phases & 1 == 1);
                        match pat {
                            0 => rebuilt.and(na, !nb),
                            1 => !rebuilt.and(!na, !nb),
                            2 => rebuilt.mux(na, nb, c),
                            _ => {
                                let t = rebuilt.and(na, c);
                                rebuilt.and(t, nb)
                            }
                        }
                    }
                };
            }
            for (i, &l) in g.outputs().to_vec().iter().enumerate() {
                rebuilt.add_output(g.output_name(i), rmap[l.node()] ^ l.is_complemented());
            }
            let mut want = rebuilt.cleanup();
            want.compute_fanouts();

            // In-place replica: same plan through the editor.
            let mut scratch = EditScratch::default();
            let mut map = vec![Lit::FALSE; g.len()];
            for &id in g.input_ids() {
                map[id] = Lit::from_node(id, false);
            }
            let outs: Vec<Lit> = g.outputs().to_vec();
            let mut ed = InPlaceEditor::begin(&mut g, &mut scratch);
            for (k, &id) in and_ids.iter().enumerate() {
                let (a, b) = ed.graph().node(id).fanins().unwrap();
                let na = map[a.node()] ^ a.is_complemented();
                let nb = map[b.node()] ^ b.is_complemented();
                map[id] = match plan[k] {
                    None => ed.copy(id, na, nb),
                    Some((pat, donor, phases)) => {
                        let c = map[donor] ^ (phases & 1 == 1);
                        match pat {
                            0 => ed.and(na, !nb),
                            1 => !ed.and(!na, !nb),
                            2 => ed.mux(na, nb, c),
                            _ => {
                                let t = ed.and(na, c);
                                ed.and(t, nb)
                            }
                        }
                    }
                };
            }
            let outs: Vec<Lit> = outs
                .iter()
                .map(|l| map[l.node()] ^ l.is_complemented())
                .collect();
            ed.finish(&outs);

            assert_identical(&g, &want);
            assert_analyses_fresh(&g);
        }
    }

    #[test]
    fn replacement_reclaims_dangling_cone() {
        // x = a&b, y = x&c as the only output; replacing y with a&c must
        // reclaim the whole (x, y) cone and leave exactly one AND.
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let x = g.and(a, b);
        let y = g.and(x, c);
        g.add_output("f", y);
        let mut g = g.cleanup();
        g.compute_fanouts();

        let mut scratch = EditScratch::default();
        let ands: Vec<_> = g.and_ids().collect();
        let mut ed = InPlaceEditor::begin(&mut g, &mut scratch);
        let (fa, fb) = ed.graph().node(ands[0]).fanins().unwrap();
        ed.copy(ands[0], fa, fb); // keep x = a & b
        let last = ed.and(a, c); // replace y with a & c
        ed.finish(&[last]);

        assert_eq!(g.num_ands(), 1, "dangling cone must be reclaimed");
        let (fa, fb) = g.node(g.outputs()[0].node()).fanins().unwrap();
        assert_eq!((fa, fb), (a, c));
        assert_analyses_fresh(&g);
    }

    #[test]
    fn touched_counts_dirty_region() {
        let mut rng = XorShift(42);
        let mut g = random_clean_graph(&mut rng, 6, 50);
        let and_ids: Vec<_> = g.and_ids().collect();
        let outs: Vec<Lit> = g.outputs().to_vec();
        let mut scratch = EditScratch::default();
        let mut map = vec![Lit::FALSE; g.len()];
        for &id in g.input_ids() {
            map[id] = Lit::from_node(id, false);
        }
        let mut ed = InPlaceEditor::begin(&mut g, &mut scratch);
        for &id in &and_ids {
            let (a, b) = ed.graph().node(id).fanins().unwrap();
            let na = map[a.node()] ^ a.is_complemented();
            let nb = map[b.node()] ^ b.is_complemented();
            map[id] = ed.copy(id, na, nb);
        }
        assert_eq!(ed.touched(), 0);
        // One fresh structure: touched must grow by at most the nodes built.
        let extra = {
            let i1 = Lit::from_node(1, false);
            let i2 = Lit::from_node(2, true);
            ed.mux(i1, i2, map[and_ids[0]])
        };
        assert!(ed.touched() <= 3, "mux builds at most three fresh nodes");
        let mut outs: Vec<Lit> = outs
            .iter()
            .map(|l| map[l.node()] ^ l.is_complemented())
            .collect();
        outs[0] = extra;
        ed.finish(&outs);
        assert_analyses_fresh(&g);
        let _ = NodeKind::Constant; // silence unused-import lint paths
    }
}
