//! Shared machinery of the resynthesis-style passes.
//!
//! `rewrite`, `refactor` and `restructure` all follow the same scheme:
//!
//! 1. sweep the live AND nodes,
//! 2. for each node pick cuts, compute each cut function, and offer new
//!    implementations of it over the cut leaves,
//! 3. price every offer (MFFC nodes freed minus new nodes added) and decide
//!    the best one whose gain meets the pass's threshold,
//! 4. commit the decisions that are compatible with each other (see
//!    "Compatible commits") and rebuild the network applying them.
//!
//! This module owns steps 1, 3 and 4; each pass provides step 2, handing
//! its candidates to the sweep's `Pricer`.
//!
//! # Pricing
//!
//! The pricer is the one place that prices a candidate.  It computes the
//! MFFC of the node bounded by the candidate's leaves (the nodes it frees)
//! and counts the AND nodes the candidate's structure would add, reusing
//! every node the graph's strash already holds except the MFFC's (they die
//! with the node).  The gain is the MFFC size minus that count.  It keeps
//! the first candidate whose gain is strictly the largest and at least
//! `min_gain`, so each count is capped at the MFFC size minus the gain a
//! candidate needs to be kept, and a dearer one stops early.  While it
//! counts, it records the freed set (the MFFC, root included) and the used
//! set (the leaves plus every strash hit); the kept candidate's sets go to
//! the commit walk.
//!
//! Steps 1–3 only read the graph (`&Aig`; even the MFFC keeps its
//! dereferenced counts in a side table), so every node's decision depends on
//! the graph as the sweep found it and on nothing else: the sweep proposes
//! over chunks of nodes on the `rayon` pool, and step 4 is the one write.
//! That split is also why a cancellation — which can only fire inside steps
//! 1–3, and returns `Err` before step 4 starts — leaves the graph untouched,
//! as `CancelCell` promises.
//!
//! # Compatible commits
//!
//! Every decision is priced against the graph as the sweep found it, alone.
//! Two decisions priced that way can undo each other: one frees a node that
//! the other's structure reuses, so the node survives and the first realises
//! less than it estimated, or both count the same freed node.  So between
//! the parallel propose and the rebuild, the sweep walks the decided nodes
//! once, in node order, over the freed and used sets recorded at pricing,
//! and commits a compatible subset (the collect-then-commit scheme of Riener
//! et al., "On-the-fly and DAG-aware: rewriting Boolean networks with exact
//! synthesis", DATE 2019).  It re-prices nothing.
//!
//! The walk drops a decision when its freed set meets a node that an earlier
//! winner freed or used, or when one of its used nodes was freed by an
//! earlier winner and is not that winner's root (the rebuild maps a root to
//! its new structure, which computes the same function).  The winners then
//! free disjoint cones that no other winner keeps alive, and the sweep
//! removes at least their summed estimate: `gain_realised` in
//! [`crate::ApplyStats`] is never below `gain_estimated`, and every applying
//! sweep `debug_assert!`s it.  The walk is serial and reads the decisions in
//! node order, so the winners are the same at any thread count; the first
//! decision always wins, so a sweep that decided anything still rebuilds.
//!
//! # Nodes that cannot gain
//!
//! A strict sweep (`min_gain >= 1`) does not call the pass at node `n` when
//! both of these hold (`GainFilter`):
//!
//! * every fanin of `n` is a primary input, the constant, or has more than
//!   one fanout — so dereferencing `n` frees none of them, and `n`'s MFFC is
//!   `{n}` under every cut;
//! * `n`'s 64-pattern random-simulation signature, taken up to complement,
//!   is shared by no other node of the graph (constant and inputs included).
//!
//! The skip is exact.  With a one-node MFFC, a gain of at least 1 needs a
//! candidate that adds no node at all.  Both cost dry-runs (the SOP counter
//! and the Shannon `mux_cost`) then end on an existing literal that lies
//! outside the MFFC, so on a node other than `n` — a leaf, the constant, or
//! an AND found by a strash probe.  Over the same leaves that literal
//! computes `n`'s cut function, so its node computes `n`'s function or its
//! complement, and has `n`'s signature.  A unique signature rules that out.
//! Signature collisions only make a node look shared, which turns the skip
//! off; they never skip a node that could gain.  The signatures are taken
//! serially on the clean graph before the parallel propose, so the skips —
//! and with them decisions, graphs and QoR — are the same at any thread
//! count and bit-identical to a sweep that skips nothing.

use std::sync::{Mutex, PoisonError};

use aig::{
    random_patterns, Aig, CutSet4, Lit, Mffc, MffcScratch, NodeId, SimVector, Simulator, TruthTable,
};
use flow_core::{CancelToken, Cancelled};
use rayon::prelude::*;

use crate::decomp::{build_shannon, count_shannon_nodes_sweep};
use crate::pass::{pool_give, pool_take, CancelCell, PassContext, ProposeScratch, SweepScratch};
use crate::sop::{build_sop, count_sop_nodes, IsopCache, Sop};

/// How the new implementation of a node's cut function is expressed.
#[derive(Debug, Clone)]
pub(crate) enum Structure {
    /// Irredundant sum-of-products (used by `rewrite`/`refactor`).
    SumOfProducts(Sop),
    /// Shannon / mux-tree decomposition (used by `restructure`).  The table
    /// has at most six variables (`restructure`'s cut size); pricing or
    /// building a wider one panics.
    Shannon(TruthTable),
}

/// A resynthesis decision for one node: re-express it over `leaves` using `structure`.
#[derive(Debug, Clone)]
pub(crate) struct Decision {
    /// Cut leaves (node ids of the working graph), defining the variable order.
    pub leaves: Vec<NodeId>,
    /// The replacement structure.
    pub structure: Structure,
    /// Estimated gain in AND nodes (may be zero for zero-cost variants).
    pub gain: i64,
}

/// A candidate a production pass offers the [`Pricer`], borrowed from its
/// scratch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Candidate<'a> {
    /// `cover`, the ISOP of `truth`.  A kept candidate's owned cover is
    /// taken from the ISOP cache once the node is decided.
    Sop {
        truth: &'a TruthTable,
        cover: &'a Sop,
    },
    /// The Shannon decomposition of the table (at most six variables).
    Shannon(&'a TruthTable),
}

/// The sweep's pricer (module docs, "Pricing"), one per propose scratch:
/// [`begin`](Self::begin) at a node, [`offer`](Self::offer) its candidates,
/// [`decide`](Self::decide).  Every buffer recycles across nodes, so an
/// offer that is not kept allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Pricer {
    root: NodeId,
    min_gain: i64,
    /// Gain, function and form (SOP or not) of the kept candidate.
    kept: Option<(i64, TruthTable, bool)>,
    /// The kept candidate's leaves, freed set and used set.
    leaves: Vec<NodeId>,
    freed: Vec<NodeId>,
    used: Vec<NodeId>,
    /// The used set of the offer being priced.
    probe: Vec<NodeId>,
    leaf_lits: Vec<Lit>,
    mffc: MffcScratch,
    /// The SOP emitter's signal buffer.
    signals: Vec<Option<Lit>>,
}

impl Pricer {
    /// Starts pricing the candidates of `root`; any kept one is dropped.
    pub(crate) fn begin(&mut self, root: NodeId, min_gain: i64) {
        self.root = root;
        self.min_gain = min_gain;
        self.kept = None;
    }

    /// Prices `candidate` over `leaves` and keeps it when its gain is at
    /// least `min_gain` and strictly larger than the kept one's.
    pub(crate) fn offer(&mut self, g: &Aig, leaves: &[NodeId], candidate: Candidate<'_>) {
        let need = self.kept.as_ref().map_or(self.min_gain, |k| k.0 + 1);
        let mffc = Mffc::compute_with(g, self.root, leaves, &mut self.mffc);
        let Ok(budget) = usize::try_from(mffc.size() as i64 - need) else {
            return;
        };
        self.leaf_lits.clear();
        self.leaf_lits
            .extend(leaves.iter().map(|&n| Lit::from_node(n, false)));
        self.probe.clear();
        self.probe.extend_from_slice(leaves);
        let (lits, probe, excluded) = (&self.leaf_lits, &mut self.probe, |n| mffc.contains(n));
        let (added, truth, sop) = match candidate {
            Candidate::Sop { truth, cover } => {
                let added =
                    count_sop_nodes(g, cover, lits, excluded, budget, probe, &mut self.signals);
                (added, truth, true)
            }
            Candidate::Shannon(truth) => (
                count_shannon_nodes_sweep(g, truth, lits, excluded, budget, probe),
                truth,
                false,
            ),
        };
        // A completed count fits the budget, so the candidate beats the kept one.
        let Some(added) = added else {
            return;
        };
        self.kept = Some((mffc.size() as i64 - added as i64, *truth, sop));
        self.freed.clear();
        self.freed.extend_from_slice(mffc.nodes());
        std::mem::swap(&mut self.used, &mut self.probe);
        self.leaves.clear();
        self.leaves.extend_from_slice(leaves);
    }

    /// The node's decision, if a candidate was kept; its freed and used sets
    /// go to `recorded`.  A kept SOP's cover comes from `isop`.
    pub(crate) fn decide(
        &mut self,
        isop: &mut IsopCache,
        recorded: &mut Recorded,
    ) -> Option<Decision> {
        let (gain, truth, sop) = self.kept.take()?;
        recorded.push(self.root, &self.freed, &self.used);
        let structure = if sop {
            Structure::SumOfProducts(isop.isop(&truth))
        } else {
            Structure::Shannon(truth)
        };
        Some(Decision {
            leaves: self.leaves.clone(),
            structure,
            gain,
        })
    }
}

/// The freed and used sets of one propose chunk's decisions, in node order,
/// flat: `root, |freed|, freed.., |used|, used..` per decision.  Kept out
/// of the decision slots so an undecided node's slot does not grow.
#[derive(Debug, Default)]
pub(crate) struct Recorded(Vec<u32>);

impl Recorded {
    fn push(&mut self, root: NodeId, freed: &[NodeId], used: &[NodeId]) {
        self.0.push(root as u32);
        for set in [freed, used] {
            self.0.push(set.len() as u32);
            self.0.extend(set.iter().map(|&n| n as u32));
        }
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `(root, freed, used)` of each decision, in node order.
    fn iter(&self) -> impl Iterator<Item = (NodeId, &[u32], &[u32])> {
        fn counted(s: &[u32]) -> (&[u32], &[u32]) {
            let (&n, rest) = s.split_first().expect("a recorded set");
            rest.split_at(n as usize)
        }
        let mut rest = &self.0[..];
        std::iter::from_fn(move || {
            let (&root, tail) = rest.split_first()?;
            let (freed, tail) = counted(tail);
            let (used, tail) = counted(tail);
            rest = tail;
            Some((root as NodeId, freed, used))
        })
    }
}

/// Dense decision table indexed by node id.  The apply step queries *every*
/// AND of the graph, so the flat slot vector makes each probe one
/// bounds-checked load; the propose chunks fill disjoint ranges of it, each
/// with a [`Recorded`] of its own, and both recycle across sweeps through
/// [`crate::pass::SweepScratch`].
#[derive(Debug, Default)]
pub(crate) struct DecisionTable {
    slots: Vec<Option<Decision>>,
    recorded: Vec<Recorded>,
}

impl DecisionTable {
    /// Clears the table and sizes it for a graph of `n` nodes proposed in
    /// `chunks` chunks.
    pub(crate) fn reset(&mut self, n: usize, chunks: usize) {
        self.slots.clear();
        self.slots.resize(n, None);
        self.recorded.truncate(chunks);
        self.recorded.iter_mut().for_each(|r| r.0.clear());
        self.recorded.resize_with(chunks, Recorded::default);
    }

    /// The decision recorded for `id`, if any.
    fn lookup(&self, id: NodeId) -> Option<&Decision> {
        self.slots.get(id).and_then(Option::as_ref)
    }
}

/// Commit mark: the node is in a winner's freed set.
const FREED: u8 = 1;
/// Commit mark: the node is in a winner's used set.
const USED: u8 = 2;
/// Commit mark: the node is a winner's root.
const ROOT: u8 = 4;

/// Marks of the commit walk (see "Compatible commits" in the module docs):
/// one `(epoch, marks)` slot per node, so a slot stamped with an older epoch
/// has no marks and starting a walk is one counter bump; the table recycles
/// across sweeps in [`SweepScratch`].
#[derive(Debug, Default)]
pub(crate) struct CommitScratch {
    marks: Vec<(u32, u8)>,
    epoch: u32,
}

impl CommitScratch {
    /// Keeps the decisions of `table` (over a graph of `n` nodes) that are
    /// compatible with the ones before them in node order and empties the
    /// other slots.  Returns the winners' summed estimated gain and the
    /// number of decisions dropped.
    fn walk(&mut self, n: usize, table: &mut DecisionTable) -> (i64, u64) {
        let CommitScratch { marks, epoch } = self;
        // A fresh epoch drops every mark; stamp 0 is never current.
        if marks.len() < n || *epoch == u32::MAX {
            marks.clear();
            marks.resize(n, (0, 0));
            *epoch = 0;
        }
        *epoch += 1;
        let epoch = *epoch;
        let get = |marks: &[(u32, u8)], id: u32| match marks[id as usize] {
            (stamp, bits) if stamp == epoch => bits,
            _ => 0,
        };
        let (mut estimated, mut conflicts) = (0, 0);
        let DecisionTable { slots, recorded } = table;
        for (root, freed, used) in recorded.iter().flat_map(Recorded::iter) {
            let clash = freed.iter().any(|&n| get(marks, n) & (FREED | USED) != 0)
                || used
                    .iter()
                    .any(|&n| get(marks, n) & (FREED | ROOT) == FREED);
            if clash {
                slots[root] = None;
                conflicts += 1;
                continue;
            }
            estimated += slots[root].as_ref().expect("a recorded decision").gain;
            let mut mark = |id: u32, bit: u8| marks[id as usize] = (epoch, get(marks, id) | bit);
            freed.iter().for_each(|&n| mark(n, FREED));
            mark(root as u32, ROOT);
            used.iter().for_each(|&n| mark(n, USED));
        }
        (estimated, conflicts)
    }
}

/// Graphs with fewer nodes than this are proposed as one chunk, inline on
/// the calling thread: below it a pool hand-off costs more than the second
/// core returns, and a helper woken for a small request competes with the
/// threads serving others.
const PARALLEL_MIN_NODES: usize = 32 * 1024;

/// Nodes per propose chunk on graphs of [`PARALLEL_MIN_NODES`] or more.
/// Fixed, so chunk boundaries never depend on the thread count.
const CHUNK_NODES: usize = 1024;

/// Seed of the random patterns behind [`GainFilter`]'s node signatures.
const SIGNATURE_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// An empty slot of [`GainFilter`]'s signature table.
const EMPTY_SLOT: u32 = u32::MAX;

/// The strict sweeps' skip rule (see the module docs): which nodes provably
/// cannot yield a decision at `min_gain >= 1`.  Its three buffers live in
/// [`SweepScratch`] and recycle across sweeps.
#[derive(Debug, Default)]
pub(crate) struct GainFilter {
    /// One 64-pattern simulation word per node, then made canonical up to
    /// complement (bit 0 clear).
    signatures: Vec<SimVector>,
    /// Open-addressed table of node ids keyed by canonical signature.
    table: Vec<u32>,
    /// Whether another node has the same canonical signature.
    shared: Vec<bool>,
}

impl GainFilter {
    /// Takes the signatures of every node of `g` and marks the shared ones.
    pub(crate) fn prepare(&mut self, g: &Aig) {
        let GainFilter {
            signatures,
            table,
            shared,
        } = self;
        Simulator::new(g).node_values_into(random_patterns(SIGNATURE_SEED), signatures);
        let n = g.len();
        shared.clear();
        shared.resize(n, false);
        let bits = (2 * n).next_power_of_two().trailing_zeros();
        table.clear();
        table.resize(1 << bits, EMPTY_SLOT);
        let mask = table.len() - 1;
        for id in 0..n {
            if signatures[id] & 1 == 1 {
                signatures[id] = !signatures[id];
            }
            let key = signatures[id];
            let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize;
            loop {
                let other = table[slot];
                if other == EMPTY_SLOT {
                    table[slot] = id as u32;
                    break;
                }
                if signatures[other as usize] == key {
                    shared[other as usize] = true;
                    shared[id] = true;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
    }

    /// `true` when no strict proposal at `id` can gain: its MFFC is `{id}`
    /// under every cut and no other node shares its signature.  Reads the
    /// marks of the last [`prepare`](Self::prepare) on this graph; fanout
    /// counts must be current.
    pub(crate) fn cannot_gain(&self, g: &Aig, id: NodeId) -> bool {
        let Some((a, b)) = g.node(id).fanins() else {
            return false;
        };
        let kept = |f: NodeId| !g.node(f).is_and() || g.fanout_count(f) > 1;
        !self.shared[id] && a.node() != b.node() && kept(a.node()) && kept(b.node())
    }
}

/// Acceptance policy of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Acceptance {
    /// Minimum accepted gain: `1` for strict passes, `0` for the `-z` variants
    /// that also accept zero-gain (structure-changing) rewrites.
    pub min_gain: i64,
}

impl Acceptance {
    /// Strictly improving: only accept proposals that remove at least one node.
    pub fn strict() -> Self {
        Acceptance { min_gain: 1 }
    }

    /// Zero-cost accepting (the `-z` flavour of ABC's rewrite/refactor).
    pub fn zero_cost() -> Self {
        Acceptance { min_gain: 0 }
    }
}

/// Runs a resynthesis sweep over `g` and replaces it by the result, built in
/// the context's recycled buffers.  Same decisions and same resulting network
/// at any thread count.
///
/// `propose` is called for every live AND node (fanout counts are current)
/// and offers any number of candidates to the scratch's [`Pricer`], which
/// the sweep has begun at that node; the kept one is the node's decision.
/// It reads the graph (reuse probes go to [`Aig::find_and`]) and the cut
/// sets last enumerated into the context, and works on a [`ProposeScratch`]
/// no other call uses at the same time.  `g` is cleaned first if its epoch
/// stamp does not prove it clean; fanouts are refreshed only when theirs
/// says they are stale.
///
/// **Propose runs in parallel.**  It only reads `g`, so a node's decision
/// depends on the graph as the sweep found it, never on which nodes were
/// proposed before it.  The sweep splits the decision table into chunks of
/// [`CHUNK_NODES`] slots and hands them to the `rayon` pool, each chunk with
/// a scratch checked out of the context.  A graph under
/// [`PARALLEL_MIN_NODES`] nodes is one chunk, which the pool runs on the
/// caller without waking a helper.
///
/// **Commit is serial.**  Once every chunk has decided, one walk in node
/// order over the recorded sets keeps the decisions compatible with the
/// earlier winners (module docs, "Compatible commits") and the rebuild
/// applies those.  The winners' estimated and the sweep's realised gain, and
/// the dropped decisions, add up in [`crate::ApplyStats`].
///
/// Each chunk polls `cancel` on a countdown of its own and returns `Err`
/// once it fires, after putting its scratch back; the sweep then returns the
/// first `Err` in chunk order.  `g` is only mutated by the apply step,
/// *after* every chunk has returned `Ok`, so a cancelled sweep leaves it
/// exactly as it was on entry.
pub(crate) fn resynthesis_sweep_ctx<F>(
    g: &mut Aig,
    acceptance: Acceptance,
    ctx: &mut PassContext,
    cancel: &CancelToken,
    propose: F,
) -> Result<(), Cancelled>
where
    F: Fn(&Aig, NodeId, &mut ProposeScratch, &[CutSet4]) + Sync,
{
    ctx.ensure_clean(g);
    g.compute_fanouts_cached();
    // Disjoint borrows: the propose chunks read the cut sets and the token
    // and check scratch out of `idle`; the sweep owns the rest.
    let PassContext {
        pool,
        scratch,
        propose: idle,
        shared_isop,
        cut4_sets,
        sweep,
        apply_stats,
        ..
    } = ctx;
    let SweepScratch {
        decisions,
        tallies,
        rebuild_map,
        filter,
        commit,
    } = sweep;
    let strict = acceptance.min_gain >= 1;
    if strict {
        filter.prepare(g);
    }
    let filter = &*filter;
    let n = g.len();
    let chunk = if n < PARALLEL_MIN_NODES {
        n
    } else {
        CHUNK_NODES
    };
    let chunks = n.div_ceil(chunk);
    decisions.reset(n, chunks);
    tallies.clear();
    tallies.resize(chunks, Ok(()));

    let graph: &Aig = g;
    let (cut_sets, shared_isop) = (&cut4_sets[..], &*shared_isop);
    let idle = Mutex::new(idle);
    decisions
        .slots
        .par_chunks_mut(chunk)
        .zip(decisions.recorded.par_chunks_mut(1))
        .zip(tallies.par_chunks_mut(1))
        .enumerate()
        .for_each(|(index, ((slots, recorded), tally))| {
            let checked_out = idle.lock().unwrap_or_else(PoisonError::into_inner).pop();
            let mut ps = checked_out
                .unwrap_or_else(|| ProposeScratch::with_shared_isop(shared_isop.clone()));
            let mut cancel = CancelCell::new(cancel);
            tally[0] = (index * chunk..)
                .zip(slots.iter_mut())
                .try_for_each(|(id, slot)| {
                    if !graph.node(id).is_and()
                        || graph.fanout_count(id) == 0
                        || (strict && filter.cannot_gain(graph, id))
                    {
                        return Ok(());
                    }
                    cancel.checkpoint()?;
                    ps.pricer.begin(id, acceptance.min_gain);
                    propose(graph, id, &mut ps, cut_sets);
                    *slot = ps.pricer.decide(&mut ps.isop, &mut recorded[0]);
                    Ok(())
                });
            idle.lock().unwrap_or_else(PoisonError::into_inner).push(ps);
        });
    // Decisions taken; a cancelled chunk ends the sweep here.
    tallies.iter().copied().collect::<Result<(), _>>()?;
    if decisions.recorded.iter().all(Recorded::is_empty) {
        // Identity sweep: a clean graph rebuilt with no decisions is the
        // graph itself, so skip the apply entirely.
        apply_stats.identity += 1;
        return Ok(());
    }
    // Commit a compatible subset, then apply it: replay the sweep into a
    // recycled buffer and clean it back into `g`.
    let (estimated, conflicts) = commit.walk(n, decisions);
    let before = g.num_ands();
    let mut rebuilt = pool_take(pool);
    rebuild_with_decisions_into(g, |id| decisions.lookup(id), &mut rebuilt, rebuild_map);
    rebuilt.cleanup_into_with(g, scratch);
    pool_give(pool, rebuilt);
    let realised = before as i64 - g.num_ands() as i64;
    debug_assert!(
        realised >= estimated,
        "{}: a sweep realised {realised} of an estimated gain of {estimated}",
        g.name()
    );
    apply_stats.rebuilt += 1;
    apply_stats.gain_estimated += estimated;
    apply_stats.gain_realised += realised;
    apply_stats.conflicts += conflicts;
    Ok(())
}

/// Rebuilds `src` into `out`, replacing each node `decision_for` answers by
/// its new structure over the mapped cut leaves and copying every other node
/// verbatim.  `out` and the remap table `map` are cleared and pre-sized here.
fn rebuild_with_decisions_into<'d>(
    src: &Aig,
    decision_for: impl Fn(NodeId) -> Option<&'d Decision>,
    out: &mut Aig,
    map: &mut Vec<Lit>,
) {
    out.clear_for_reuse();
    out.set_name(src.name().to_string());
    out.reserve_for(src.len(), src.num_ands());
    map.clear();
    map.resize(src.len(), Lit::FALSE);
    for (i, &id) in src.input_ids().iter().enumerate() {
        map[id] = out.add_input(src.input_name(i).to_string());
    }
    for id in src.node_ids() {
        let Some((a, b)) = src.node(id).fanins() else {
            continue;
        };
        if let Some(d) = decision_for(id) {
            let leaf_lits: Vec<Lit> = d.leaves.iter().map(|&l| map[l]).collect();
            map[id] = match &d.structure {
                Structure::SumOfProducts(sop) => build_sop(out, sop, &leaf_lits),
                Structure::Shannon(truth) => build_shannon(out, truth, &leaf_lits),
            };
        } else {
            let na = map[a.node()] ^ a.is_complemented();
            let nb = map[b.node()] ^ b.is_complemented();
            map[id] = out.and(na, nb);
        }
    }
    for (i, &l) in src.outputs().iter().enumerate() {
        out.add_output(
            src.output_name(i).to_string(),
            map[l.node()] ^ l.is_complemented(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::count_shannon_nodes;
    use crate::passes::Transform;
    use crate::sop::isop;
    use aig::{cut_truth, random_equivalence_check, Cut4Enumerator, CutParams, Mffc};
    use circuits::{Design, DesignScale};
    use flow_core::NEVER_FIRES;
    use std::collections::HashMap;

    /// One production sweep over a copy of `g` on a fresh context.
    fn sweep(
        g: &Aig,
        acceptance: Acceptance,
        propose: impl Fn(&Aig, NodeId, &mut Pricer) + Sync,
    ) -> Aig {
        let mut ctx = PassContext::default();
        let mut work = ctx.run_flow(g, &[]);
        let never = CancelToken::never();
        resynthesis_sweep_ctx(
            &mut work,
            acceptance,
            &mut ctx,
            &never,
            |graph, id, ps, _| propose(graph, id, &mut ps.pricer),
        )
        .expect(NEVER_FIRES);
        work
    }

    /// `src` rebuilt into a fresh graph with `decisions` applied.
    fn rebuild_with(src: &Aig, decisions: &HashMap<NodeId, Decision>) -> Aig {
        let mut out = Aig::new();
        rebuild_with_decisions_into(src, |id| decisions.get(&id), &mut out, &mut Vec::new());
        out
    }

    /// Offers the ISOP of `id`'s function over `leaves`.
    fn offer_isop(g: &Aig, id: NodeId, leaves: &[NodeId], pricer: &mut Pricer) {
        let truth = cut_truth(g, id, leaves).expect("the leaves cover the cone");
        let cover = isop(&truth);
        let candidate = Candidate::Sop {
            truth: &truth,
            cover: &cover,
        };
        pricer.offer(g, leaves, candidate);
    }

    /// f = (a & b) | (a & c) has a redundant two-node structure when written as
    /// a & (b | c); a sweep proposing the ISOP of the 3-leaf cut should shrink it.
    fn redundant_aig() -> Aig {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.and(a, b);
        let ac = g.and(a, c);
        let f = g.or(ab, ac);
        g.add_output("f", f);
        g
    }

    #[test]
    fn sweep_preserves_function_and_reduces_nodes() {
        let g = redundant_aig();
        let before = g.num_ands();
        let result = sweep(&g, Acceptance::strict(), |work, id, pricer| {
            let leaves: Vec<NodeId> = work.input_ids().to_vec();
            if cut_truth(work, id, &leaves).is_ok() {
                offer_isop(work, id, &leaves, pricer);
            }
        });
        assert!(
            random_equivalence_check(&g, &result, 8, 3),
            "function must be preserved"
        );
        assert!(
            result.num_ands() <= before,
            "strict sweep never grows the network: {} -> {}",
            before,
            result.num_ands()
        );
    }

    #[test]
    fn sweep_without_proposals_is_identity_up_to_cleanup() {
        let g = redundant_aig();
        let result = sweep(&g, Acceptance::strict(), |_, _, _| {});
        assert!(random_equivalence_check(&g, &result, 8, 5));
        assert_eq!(result.num_ands(), g.cleanup().num_ands());
    }

    #[test]
    fn rebuild_honours_decisions() {
        let g = redundant_aig();
        // Decide to replace the top OR node by the SOP over the primary inputs.
        let root = g.outputs()[0].node();
        let leaves: Vec<NodeId> = g.input_ids().to_vec();
        let truth = cut_truth(&g, root, &leaves).expect("covered");
        let mut decisions = HashMap::new();
        decisions.insert(
            root,
            Decision {
                leaves,
                structure: Structure::SumOfProducts(isop(&truth)),
                gain: 1,
            },
        );
        let rebuilt = rebuild_with(&g, &decisions).cleanup();
        assert!(random_equivalence_check(&g, &rebuilt, 8, 11));
        assert!(rebuilt.num_ands() <= g.num_ands());
    }

    /// Proposes every node of `g` that the filter skips with all three
    /// strict passes and asserts that none yields a strict decision.
    /// Returns the skipped and the live AND counts.
    fn assert_skips_are_exact(g: &Aig) -> (usize, usize) {
        let mut g = g.clone();
        g.compute_fanouts();
        let mut filter = GainFilter::default();
        filter.prepare(&g);
        let mut cut_sets = Vec::new();
        Cut4Enumerator::new(CutParams::default()).enumerate_into(&g, &mut cut_sets);
        let mut ps = ProposeScratch::default();
        let mut recorded = Recorded::default();
        let (mut skipped, mut live) = (0, 0);
        for id in g.and_ids() {
            if g.fanout_count(id) == 0 {
                continue;
            }
            live += 1;
            if !filter.cannot_gain(&g, id) {
                continue;
            }
            skipped += 1;
            ps.pricer.begin(id, Acceptance::strict().min_gain);
            crate::rewrite::propose_sweep(&g, id, &cut_sets, &mut ps);
            crate::refactor::propose_sweep(&g, id, &mut ps);
            crate::restructure::propose_sweep(&g, id, &mut ps);
            assert!(
                ps.pricer.decide(&mut ps.isop, &mut recorded).is_none(),
                "{}: node {id} is skipped but has a strict decision",
                g.name()
            );
        }
        (skipped, live)
    }

    #[test]
    fn skipped_nodes_have_no_strict_decision() {
        use Transform::{Balance, RefactorZ, Rewrite, RewriteZ};
        let prefixes: [&[Transform]; 3] = [
            &[],
            &[Balance, RewriteZ],
            &[RefactorZ, Balance, Rewrite, RewriteZ],
        ];
        let mut ctx = PassContext::default();
        for design in Design::ALL {
            for scale in [DesignScale::Tiny, DesignScale::Small] {
                let g = design.generate(scale);
                for prefix in prefixes {
                    let work = ctx.run_flow(&g, prefix);
                    let (skipped, live) = assert_skips_are_exact(&work);
                    assert!(
                        0 < skipped && skipped < live,
                        "{design} {scale:?} after {prefix:?}: {skipped} of {live} skipped"
                    );
                    ctx.recycle(work);
                }
            }
        }
    }

    #[test]
    fn rule_skips_most_nodes_of_the_large_designs() {
        for design in [Design::Aes128, Design::Montgomery64] {
            let g = PassContext::default().run_flow(&design.generate(DesignScale::Small), &[]);
            let (skipped, live) = assert_skips_are_exact(&g);
            assert!(
                skipped * 100 >= live * 55,
                "{design}: {skipped} of {live} live ANDs skipped"
            );
        }
    }

    #[test]
    fn equal_nodes_are_not_skipped_and_one_is_refactored_away() {
        // (a & b) & c and a & (b & c), each with MFFC {node}: both partial
        // products also drive outputs.
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 3);
        let ab = g.and(xs[0], xs[1]);
        let bc = g.and(xs[1], xs[2]);
        let left = g.and(ab, xs[2]);
        let right = g.and(xs[0], bc);
        for (name, lit) in [("ab", ab), ("bc", bc), ("left", left), ("right", right)] {
            g.add_output(name, lit);
        }
        g.compute_fanouts();
        let mut filter = GainFilter::default();
        filter.prepare(&g);
        for node in [left, right] {
            assert_eq!(Mffc::compute(&g, node.node(), &[]).size(), 1);
            assert!(!filter.cannot_gain(&g, node.node()));
        }
        let r = Transform::Refactor.apply(&g);
        assert_eq!(r.num_ands(), g.num_ands() - 1);
        assert!(random_equivalence_check(&g, &r, 8, 41));
    }

    #[test]
    fn node_equal_to_an_input_is_not_skipped_and_refactored_away() {
        // a & (a | b) == a, over a shared OR; b = c & d widens the cut past
        // refactor's three-leaf minimum.
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 3);
        let (a, c, d) = (xs[0], xs[1], xs[2]);
        let b = g.and(c, d);
        let a_or_b = g.or(a, b);
        let f = g.and(a, a_or_b);
        g.add_output("or", a_or_b);
        g.add_output("f", f);
        g.compute_fanouts();
        let mut filter = GainFilter::default();
        filter.prepare(&g);
        assert!(g.fanout_count(a_or_b.node()) > 1);
        assert!(!filter.cannot_gain(&g, f.node()));
        let r = Transform::Refactor.apply(&g);
        assert_eq!(r.num_ands(), g.num_ands() - 1);
        assert_eq!(r.outputs()[1], r.input_lits()[0], "f is now the input a");
        assert!(random_equivalence_check(&g, &r, 8, 43));
    }

    /// `p = (a & b) | (a & c)` and `q = (a & d) & (b & d)`, built in that
    /// order.  `p`'s best decision, `a & (b | c)`, frees `a & b`; `q`'s,
    /// `(a & b) & d`, reuses it.  Each is worth its estimate alone; committed
    /// together, `q` keeps `a & b` alive and the sweep falls short.
    fn overlapping_pair() -> Aig {
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 4);
        let (a, b, c, d) = (xs[0], xs[1], xs[2], xs[3]);
        let ab = g.and(a, b);
        let ac = g.and(a, c);
        let p = g.or(ab, ac);
        let ad = g.and(a, d);
        let bd = g.and(b, d);
        let q = g.and(ad, bd);
        g.add_output("p", p);
        g.add_output("q", q);
        g
    }

    /// Offers the ISOP of `id` over the primary inputs its output depends
    /// on: `{a, b, c}` for `p`, `{a, b, d}` for `q`.
    fn propose_over_inputs(g: &Aig, id: NodeId, pricer: &mut Pricer) {
        let xs = g.input_ids();
        let leaves = if Some(id) == g.outputs().first().map(|l| l.node()) {
            [xs[0], xs[1], xs[2]]
        } else if Some(id) == g.outputs().get(1).map(|l| l.node()) {
            [xs[0], xs[1], xs[3]]
        } else {
            return;
        };
        offer_isop(g, id, &leaves, pricer);
    }

    #[test]
    fn of_two_overlapping_decisions_only_the_earlier_commits() {
        let mut g = overlapping_pair();
        g.compute_fanouts();
        let (p, q) = (g.outputs()[0].node(), g.outputs()[1].node());
        assert!(p < q);
        let mut decided = HashMap::new();
        let (mut ps, mut recorded) = (ProposeScratch::default(), Recorded::default());
        for id in [p, q] {
            ps.pricer.begin(id, Acceptance::strict().min_gain);
            propose_over_inputs(&g, id, &mut ps.pricer);
            let best = ps.pricer.decide(&mut ps.isop, &mut recorded);
            decided.insert(id, best.expect("both nodes have a strict decision"));
        }
        assert_eq!((decided[&p].gain, decided[&q].gain), (1, 2));
        // Both committed: 3 estimated, 2 removed.
        let both = rebuild_with(&g, &decided).cleanup();
        assert_eq!(g.num_ands() - both.num_ands(), 2);

        let mut ctx = PassContext::default();
        let mut work = ctx.run_flow(&g, &[]);
        resynthesis_sweep_ctx(
            &mut work,
            Acceptance::strict(),
            &mut ctx,
            &CancelToken::never(),
            |graph, id, ps, _| propose_over_inputs(graph, id, &mut ps.pricer),
        )
        .expect(NEVER_FIRES);
        let stats = ctx.apply_stats();
        assert_eq!(stats.conflicts, 1, "q is dropped: {stats:?}");
        assert_eq!((stats.gain_estimated, stats.gain_realised), (1, 1));
        decided.remove(&q);
        let alone = rebuild_with(&g, &decided).cleanup();
        assert_eq!(work.num_ands(), alone.num_ands());
        assert!(random_equivalence_check(&g, &work, 8, 47));
    }

    #[test]
    fn pricer_keeps_the_first_strictly_best_candidate_at_or_above_min_gain() {
        // root = ((a & b) & (a & c)) & (a & d), every node single-fanout.
        let mut g = Aig::new();
        let xs = g.add_inputs("x", 4);
        let (a, b, c, d) = (xs[0], xs[1], xs[2], xs[3]);
        let (ab, ac, ad) = (g.and(a, b), g.and(a, c), g.and(a, d));
        let m = g.and(ab, ac);
        let root = g.and(m, ad);
        g.add_output("f", root);
        g.compute_fanouts();
        let [a, b, c, d, ab, ac, ad, m, root] = [a, b, c, d, ab, ac, ad, m, root].map(|l| l.node());
        // Gains: {ad, m} and {ab, ac, ad} 0, {a, b, c, ad} 1, {a, b, c, d} 2.
        let decide = |min_gain: i64, offers: &[&[NodeId]]| {
            let (mut ps, mut recorded) = (ProposeScratch::default(), Recorded::default());
            ps.pricer.begin(root, min_gain);
            for leaves in offers {
                offer_isop(&g, root, leaves, &mut ps.pricer);
            }
            let decision = ps.pricer.decide(&mut ps.isop, &mut recorded);
            assert_eq!(recorded.iter().count(), usize::from(decision.is_some()));
            decision.map(|d| (d.leaves, d.gain))
        };
        // Of two equal-gain candidates the earlier is kept; `-z` accepts 0.
        assert_eq!(
            decide(0, &[&[ad, m], &[ab, ac, ad]]),
            Some((vec![ad, m], 0))
        );
        assert_eq!(
            decide(0, &[&[ab, ac, ad], &[ad, m]]),
            Some((vec![ab, ac, ad], 0))
        );
        // A later, strictly better candidate replaces the kept one; a later,
        // worse one does not.
        assert_eq!(
            decide(1, &[&[a, b, c, ad], &[ad, m], &[a, b, c, d]]),
            Some((vec![a, b, c, d], 2))
        );
        assert_eq!(
            decide(0, &[&[a, b, c, d], &[a, b, c, ad]]),
            Some((vec![a, b, c, d], 2))
        );
        // A candidate below `min_gain` never decides.
        assert_eq!(decide(1, &[&[ad, m], &[ab, ac, ad]]), None);
        assert_eq!(decide(3, &[&[a, b, c, d]]), None);
    }

    /// The leaves of `d` plus the strash hits of its uncapped count, nothing
    /// in `mffc` reused.
    fn uncapped_used(g: &Aig, mffc: &Mffc, d: &Decision) -> Vec<NodeId> {
        let lits: Vec<Lit> = d.leaves.iter().map(|&n| Lit::from_node(n, false)).collect();
        let excluded = |n| mffc.contains(n);
        let mut used = d.leaves.clone();
        match &d.structure {
            Structure::SumOfProducts(sop) => {
                let signals = &mut Vec::new();
                count_sop_nodes(g, sop, &lits, excluded, usize::MAX, &mut used, signals)
                    .expect("uncapped");
            }
            Structure::Shannon(truth) => {
                count_shannon_nodes(g, truth, &lits, excluded, &mut used);
            }
        }
        used
    }

    /// On the Small designs, as generated and after `b; rwz`, under the five
    /// resynthesis passes: every committed decision's recorded freed set is
    /// its MFFC, and its used set is the leaves plus the strash hits of the
    /// recording estimators.
    #[test]
    fn recorded_sets_are_the_oracles() {
        use Transform::{Balance, Refactor, RefactorZ, Restructure, Rewrite, RewriteZ};
        let mut ctx = PassContext::default();
        for design in Design::ALL {
            let g = design.generate(DesignScale::Small);
            let mut committed = 0;
            for prefix in [&[][..], &[Balance, RewriteZ]] {
                let mut start = ctx.run_flow(&g, prefix);
                start.compute_fanouts();
                for t in [Rewrite, RewriteZ, Refactor, RefactorZ, Restructure] {
                    let mut work = start.clone();
                    ctx.apply(t, &mut work);
                    let DecisionTable { slots, recorded } = &ctx.sweep.decisions;
                    for (root, freed, used) in recorded.iter().flat_map(Recorded::iter) {
                        let Some(d) = &slots[root] else {
                            continue;
                        };
                        committed += 1;
                        let mffc = Mffc::compute(&start, root, &d.leaves);
                        let mut freed: Vec<NodeId> = freed.iter().map(|&n| n as NodeId).collect();
                        freed.sort_unstable();
                        assert_eq!(freed, mffc.nodes(), "{design} {t} node {root}: freed");
                        let expected = uncapped_used(&start, &mffc, d);
                        let used: Vec<NodeId> = used.iter().map(|&n| n as NodeId).collect();
                        assert_eq!(used, expected, "{design} {t} node {root}: used");
                    }
                    ctx.recycle(work);
                }
                ctx.recycle(start);
            }
            assert!(committed > 0, "{design}: no decision committed");
        }
    }
}
