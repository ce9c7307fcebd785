//! Content-addressed state graph over intermediate AIGs.
//!
//! A *state* is an AIG identified by what it **is** — a 128-bit structural
//! hash plus its shape — not by the transform sequence that produced it.  An
//! *edge* `(state, transform) → state` records the outcome of one synthesis
//! pass, and a state that was technology-mapped remembers its [`Qor`].  Flows
//! of the paper's search space reach few distinct graphs (over half of all
//! sweeps change nothing, and different orders converge), so many transform
//! sequences are paths through one small DAG: a pass known to be the identity
//! on this exact graph is skipped without running, and two flows that reach
//! the same graph share everything after it.
//!
//! All of this rests on one assumption: **a pass (and the mapper) is a pure
//! function of the graph's content**.  The evaluation kernel re-checks it
//! whenever it has to recompute an edge whose target AIG was evicted (see
//! [`StateGraph::record_edge`]).
//!
//! Resident AIGs are shared by [`Arc`] — nothing is copied under the graph's
//! lock — and live under **one** least-recently-used budget in total AIG
//! nodes; the number of known states is capped as well, so a long-running
//! `flowd` keeps neither every design nor every fact it has ever seen.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use aig::{Aig, NodeKind};
use flow_core::Fingerprint;
use serde::Serialize;
use synth::{Qor, Transform};

/// Known states beyond which the least-recently-used quarter is forgotten
/// (a few hundred bytes of edges and QoR each; their AIGs are governed by
/// the node budget).
pub(crate) const MAX_STATES: usize = 1 << 17;

/// Identity of an AIG: a 128-bit word-wise hash over exactly what
/// [`fingerprint_design`](crate::fingerprint_design) covers (every node in id
/// order, then the outputs; names do not matter), plus the graph's shape, so
/// a hash collision between graphs of different size can never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct StateId {
    hash: [u64; 2],
    /// `(nodes, inputs, outputs)`.
    shape: [u32; 3],
}

/// One 64 × 64 → 128-bit multiply folded back to 64 bits.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

impl StateId {
    /// Per-lane multipliers, one pair per word kind (constant, input, AND,
    /// output), so a word hashes differently depending on what it encodes.
    const LANES: [[u64; 2]; 4] = [
        [0x9E37_79B9_7F4A_7C15, 0xD6E8_FEB8_6659_FD93],
        [0xBF58_476D_1CE4_E5B9, 0xA076_1D64_78BD_642F],
        [0x94D0_49BB_1331_11EB, 0xE703_7ED1_A0B4_28DB],
        [0x2545_F491_4F6C_DD1D, 0x8EBC_6AF0_9C88_C6E3],
    ];

    /// Hashes `aig`'s structure (about 3 ns per AND node).
    pub(crate) fn of(aig: &Aig) -> StateId {
        let shape = [aig.len(), aig.num_inputs(), aig.num_outputs()]
            .map(|n| u32::try_from(n).expect("AIG dimensions fit 32 bits (literals do)"));
        let mut hash = [
            0x243F_6A88_85A3_08D3 ^ u64::from(shape[0]),
            0x1319_8A2E_0370_7344 ^ (u64::from(shape[1]) << 32 | u64::from(shape[2])),
        ];
        let mut mix = |kind: usize, word: u64| {
            hash[0] = fold(hash[0] ^ word, Self::LANES[kind][0]);
            hash[1] = fold(hash[1] ^ word, Self::LANES[kind][1]);
        };
        for id in aig.node_ids() {
            match aig.node(id).kind() {
                NodeKind::Constant => mix(0, 0),
                NodeKind::Input(index) => mix(1, u64::from(index)),
                NodeKind::And(a, b) => mix(2, u64::from(a.raw()) << 32 | u64::from(b.raw())),
            }
        }
        for &output in aig.outputs() {
            mix(3, u64::from(output.raw()));
        }
        StateId { hash, shape }
    }
}

/// A point-in-time summary of the state graph, for monitoring endpoints
/// (`flowd /stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheSummary {
    /// States (distinct graphs) whose edges and QoR are remembered.
    pub states_known: usize,
    /// States whose AIG is resident (the name predates the state graph).
    pub cached_prefixes: usize,
    /// Total AIG nodes held by resident states — never above
    /// [`EngineConfig::cache_budget_aig_nodes`](crate::EngineConfig).
    pub cached_aig_nodes: usize,
}

/// A unit of evaluation work: apply the transform to the state's graph, or
/// (no transform) map it.
pub(crate) type WorkKey = (StateId, Option<Transform>);

/// Everything known about one state.
#[derive(Debug, Default)]
struct State {
    /// Outcome of each transform on this graph, by [`Transform::index`]; an
    /// edge back to the state itself is a pass known to change nothing.
    edges: [Option<StateId>; Transform::COUNT],
    /// The mapped quality of result, once some flow ended here.
    qor: Option<Qor>,
    /// Root states (cleaned designs) this state was verified equivalent to.
    verified: Vec<StateId>,
    /// The graph itself while resident.
    aig: Option<Arc<Aig>>,
    /// LRU clock value of the last use.
    tick: u64,
}

/// How far the graph could take a flow (see [`StateGraph::walk`]).
#[derive(Debug)]
pub(crate) struct Walk {
    /// Leading transforms answered by known edges.
    pub(crate) steps: usize,
    /// The state after those transforms.
    pub(crate) state: StateId,
    /// `state`'s resident AIG; `None` when only identity edges were taken
    /// (the AIG the caller started from is still the right one).
    pub(crate) aig: Option<Arc<Aig>>,
    /// The flow's QoR, when every edge to its terminal and the terminal's
    /// mapping are known.
    pub(crate) qor: Option<Qor>,
}

/// The state graph: plain data behind the engine's one graph lock.  Every
/// operation is a handful of hash-map probes; AIGs are only ever moved in or
/// handed out as [`Arc`]s.
#[derive(Debug)]
pub(crate) struct StateGraph {
    states: HashMap<StateId, State>,
    /// Root state of each design seen, by design fingerprint, so a repeat
    /// request needs neither a cleanup nor a structural hash to find it.
    roots: HashMap<Fingerprint, StateId>,
    /// Resident states in LRU order (`tick → state`; ticks are unique).
    resident: BTreeMap<u64, StateId>,
    resident_nodes: usize,
    budget_nodes: usize,
    max_states: usize,
    clock: u64,
    /// Work some caller is executing right now (see [`StateGraph::claim`]).
    claims: HashSet<WorkKey>,
}

impl StateGraph {
    /// An empty graph whose resident AIGs may total `budget_nodes` AIG nodes
    /// and which remembers at most `max_states` states.
    pub(crate) fn new(budget_nodes: usize, max_states: usize) -> Self {
        StateGraph {
            states: HashMap::new(),
            roots: HashMap::new(),
            resident: BTreeMap::new(),
            resident_nodes: 0,
            budget_nodes,
            max_states: max_states.max(1),
            clock: 0,
            claims: HashSet::new(),
        }
    }

    /// Claims `key` for the caller; `false` when another caller holds it and
    /// will publish its result.  Whoever claims must [`release`](Self::release).
    pub(crate) fn claim(&mut self, key: WorkKey) -> bool {
        self.claims.insert(key)
    }

    /// Gives `key` up, done or not.
    pub(crate) fn release(&mut self, key: WorkKey) {
        self.claims.remove(&key);
    }

    /// A point-in-time summary.
    pub(crate) fn summary(&self) -> CacheSummary {
        CacheSummary {
            states_known: self.states.len(),
            cached_prefixes: self.resident.len(),
            cached_aig_nodes: self.resident_nodes,
        }
    }

    /// The root state recorded for a design fingerprint.
    pub(crate) fn root(&self, design: Fingerprint) -> Option<StateId> {
        self.roots.get(&design).copied()
    }

    /// Records `root` as the cleaned form of the design fingerprinted `design`.
    pub(crate) fn set_root(&mut self, design: Fingerprint, root: StateId) {
        self.roots.insert(design, root);
        self.touch(root);
    }

    /// The resident AIG of `id`, if any.
    pub(crate) fn aig(&self, id: StateId) -> Option<Arc<Aig>> {
        self.states.get(&id)?.aig.clone()
    }

    /// Follows `flow` from `from` through known edges and reports the deepest
    /// point the caller can continue from: the last position whose AIG is
    /// resident (or still the caller's own, across identity edges) — or the
    /// end of the flow when its terminal QoR is known.  With `verified_for`,
    /// a terminal only answers if it was verified against that root.
    pub(crate) fn walk(
        &self,
        from: StateId,
        flow: &[Transform],
        verified_for: Option<StateId>,
    ) -> Walk {
        let (mut steps, mut state, mut aig) = (0, from, None);
        let (mut at, mut followed) = (from, 0);
        for (i, &t) in flow.iter().enumerate() {
            let Some(next) = self.states.get(&at).and_then(|s| s.edges[t.index()]) else {
                break;
            };
            if next == at {
                steps += usize::from(steps == i);
            } else if let Some(resident) = self.states.get(&next).and_then(|s| s.aig.as_ref()) {
                (steps, state, aig) = (i + 1, next, Some(resident));
            }
            (at, followed) = (next, i + 1);
        }
        let qor = self.states.get(&at).and_then(|terminal| {
            let verified = verified_for.is_none_or(|root| terminal.verified.contains(&root));
            terminal.qor.filter(|_| verified && followed == flow.len())
        });
        if qor.is_some() {
            (steps, state, aig) = (flow.len(), at, None);
        }
        let aig = aig.cloned();
        Walk {
            steps,
            state,
            aig,
            qor,
        }
    }

    /// Marks `id` as just used (creating its record if it was forgotten).
    pub(crate) fn touch(&mut self, id: StateId) {
        self.clock += 1;
        let clock = self.clock;
        let state = self.states.entry(id).or_default();
        if state.aig.is_some() {
            self.resident.remove(&state.tick);
            self.resident.insert(clock, id);
        }
        state.tick = clock;
        if self.states.len() > self.max_states {
            self.forget_oldest_quarter();
        }
    }

    /// Records that `t` turns `from` into `to`.  When the edge is already
    /// known with a *different* target, that target is returned: the pass is
    /// not a pure function of its graph and every cache here is unsound.
    pub(crate) fn record_edge(
        &mut self,
        from: StateId,
        t: Transform,
        to: StateId,
    ) -> Result<(), StateId> {
        self.touch(from);
        let edge = &mut self
            .states
            .get_mut(&from)
            .expect("touched above; newest")
            .edges[t.index()];
        match *edge {
            Some(known) if known != to => Err(known),
            _ => {
                *edge = Some(to);
                Ok(())
            }
        }
    }

    /// Records `id`'s mapped QoR, and the root it was verified against.
    pub(crate) fn set_qor(&mut self, id: StateId, qor: Qor, verified_for: Option<StateId>) {
        self.touch(id);
        let state = self.states.get_mut(&id).expect("touched above; newest");
        state.qor = Some(qor);
        if let Some(root) = verified_for.filter(|root| !state.verified.contains(root)) {
            state.verified.push(root);
        }
    }

    /// Makes `aig` resident as the graph of `id` if the budget permits,
    /// evicting least-recently-used residents to make room, and returns the
    /// `Arc` to keep working with (the already-resident one when there is).
    pub(crate) fn publish(&mut self, id: StateId, aig: Arc<Aig>) -> Arc<Aig> {
        self.touch(id);
        if let Some(resident) = self.aig(id) {
            return resident;
        }
        // Injected refusal: evaluation degrades to recomputing from
        // shallower states, never to wrong results.
        flow_core::fail_point!("state.publish", |_| aig);
        let size = aig.len();
        if size > self.budget_nodes {
            return aig; // one oversized entry would evict everything else
        }
        while self.resident_nodes + size > self.budget_nodes {
            let (_, victim) = self.resident.pop_first().expect("nodes imply residents");
            self.drop_aig(victim);
        }
        let state = self.states.get_mut(&id).expect("touched above; newest");
        state.aig = Some(Arc::clone(&aig));
        self.resident.insert(state.tick, id);
        self.resident_nodes += size;
        aig
    }

    /// Releases `id`'s AIG (already unlinked from the LRU order).
    fn drop_aig(&mut self, id: StateId) {
        let aig = self.states.get_mut(&id).and_then(|s| s.aig.take());
        self.resident_nodes -= aig.map_or(0, |aig| aig.len());
    }

    /// Forgets the least-recently-used quarter of all states, their AIGs and
    /// the roots that pointed at them.  Edges into a forgotten state simply
    /// end the walk there; the kernel recomputes and re-records.
    fn forget_oldest_quarter(&mut self) {
        let mut ticks: Vec<u64> = self.states.values().map(|s| s.tick).collect();
        let cut = (ticks.len() / 4).max(1);
        let (_, &mut threshold, _) = ticks.select_nth_unstable(cut);
        let (resident, resident_nodes) = (&mut self.resident, &mut self.resident_nodes);
        self.states.retain(|_, state| {
            if state.tick < threshold {
                if let Some(aig) = &state.aig {
                    resident.remove(&state.tick);
                    *resident_nodes -= aig.len();
                }
            }
            state.tick >= threshold
        });
        let states = &self.states;
        self.roots.retain(|_, root| states.contains_key(root));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Transform::*;

    /// A chain of `ands` AND gates over two inputs.
    fn toy_aig(ands: usize) -> Aig {
        let mut g = Aig::new();
        let mut prev = g.add_input("a");
        let b = g.add_input("b");
        for _ in 0..ands {
            // Structural hashing collapses repeats; vary by negation.
            prev = !g.and(prev, b);
        }
        g.add_output("f", prev);
        g
    }

    fn sizes(graph: &StateGraph) -> (usize, usize, usize) {
        let s = graph.summary();
        (s.states_known, s.cached_prefixes, s.cached_aig_nodes)
    }

    fn id(ands: usize) -> StateId {
        StateId::of(&toy_aig(ands))
    }

    fn qor(gates: usize) -> Qor {
        Qor {
            area_um2: gates as f64,
            delay_ps: 1.0,
            gates,
            and_nodes: gates,
            depth: 1,
        }
    }

    #[test]
    fn state_id_is_name_independent_and_content_sensitive() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let ab = g.and(a, b);
        let f = g.and(ab, !c);
        g.add_output("f", f);
        let mut renamed = g.clone();
        renamed.set_name("renamed");
        assert_eq!(
            StateId::of(&g),
            StateId::of(&renamed),
            "names do not matter"
        );

        let mut extra = g.clone();
        let e = extra.and(a, !b);
        extra.add_output("g", e);
        assert_ne!(StateId::of(&g), StateId::of(&extra));

        // Same shape, same gates, the two fanins of the first AND swapped
        // between its consumers: (a·b)·¬c versus (a·¬c)·b.
        let mut swapped = Aig::new();
        let a = swapped.add_input("a");
        let b = swapped.add_input("b");
        let c = swapped.add_input("c");
        let ac = swapped.and(a, !c);
        let f = swapped.and(ac, b);
        swapped.add_output("f", f);
        assert_eq!(swapped.len(), g.len());
        assert_ne!(StateId::of(&g), StateId::of(&swapped));

        // Same nodes, complemented output.
        let mut negated = Aig::new();
        let a = negated.add_input("a");
        let b = negated.add_input("b");
        let c = negated.add_input("c");
        let ab = negated.and(a, b);
        let f = negated.and(ab, !c);
        negated.add_output("f", !f);
        assert_ne!(StateId::of(&g), StateId::of(&negated));
    }

    #[test]
    fn converging_edges_share_one_state() {
        let mut graph = StateGraph::new(1_000_000, 1000);
        let (root, x, y, z) = (id(1), id(2), id(3), id(4));
        // balance; rewrite and rewrite; balance both reach `z`.
        graph.record_edge(root, Balance, x).unwrap();
        graph.record_edge(x, Rewrite, z).unwrap();
        graph.record_edge(root, Rewrite, y).unwrap();
        graph.record_edge(y, Balance, z).unwrap();
        graph.record_edge(z, Refactor, z).unwrap(); // identity
        graph.set_qor(z, qor(7), None);
        assert_eq!(sizes(&graph).0, 4, "four states, however they were reached");

        for flow in [[Balance, Rewrite, Refactor], [Rewrite, Balance, Refactor]] {
            let walk = graph.walk(root, &flow, None);
            assert_eq!((walk.steps, walk.state, walk.qor), (3, z, Some(qor(7))));
        }
        // Unknown edge: nothing resident on the way, so the caller restarts
        // from its own AIG.
        let walk = graph.walk(root, &[Balance, Restructure], None);
        assert_eq!((walk.steps, walk.state), (0, root));
        assert!(walk.aig.is_none() && walk.qor.is_none());
        // A resident intermediate is the place to continue from, and an
        // identity edge keeps it valid one step further.
        graph.publish(z, Arc::new(toy_aig(4)));
        let walk = graph.walk(root, &[Balance, Rewrite, Refactor, Restructure], None);
        assert_eq!((walk.steps, walk.state), (3, z));
        assert_eq!(walk.aig.expect("resident").len(), toy_aig(4).len());
        // Verified terminals answer only for the root they were checked on.
        assert!(graph
            .walk(root, &[Balance, Rewrite], Some(root))
            .qor
            .is_none());
        graph.set_qor(z, qor(7), Some(root));
        assert!(graph
            .walk(root, &[Balance, Rewrite], Some(root))
            .qor
            .is_some());
        assert!(graph.walk(y, &[Balance], Some(y)).qor.is_none());
    }

    #[test]
    fn impure_edges_are_reported() {
        let mut graph = StateGraph::new(1_000_000, 1000);
        graph.record_edge(id(1), Balance, id(2)).unwrap();
        assert_eq!(graph.record_edge(id(1), Balance, id(2)), Ok(()));
        assert_eq!(graph.record_edge(id(1), Balance, id(3)), Err(id(2)));
    }

    #[test]
    fn lru_eviction_respects_the_one_budget() {
        let size = toy_aig(3).len();
        let mut graph = StateGraph::new(2 * size + 1, 1000);
        // Same size, distinct content: vary the output phase.
        let variant = |k: usize| {
            let mut g = toy_aig(3);
            for _ in 0..k {
                g.add_output("extra", aig::Lit::TRUE);
            }
            g
        };
        let ids: Vec<StateId> = (0..3).map(|k| StateId::of(&variant(k))).collect();
        graph.publish(ids[0], Arc::new(variant(0)));
        graph.publish(ids[1], Arc::new(variant(1)));
        assert_eq!(sizes(&graph), (2, 2, 2 * size));
        graph.touch(ids[0]); // ids[1] is now least recently used
        graph.publish(ids[2], Arc::new(variant(2)));
        assert!(graph.aig(ids[1]).is_none(), "LRU entry evicted");
        assert!(graph.aig(ids[0]).is_some() && graph.aig(ids[2]).is_some());
        assert_eq!(sizes(&graph), (3, 2, 2 * size), "facts outlive their AIG");
        // Publishing twice keeps the first copy and its accounting.
        let again = graph.publish(ids[2], Arc::new(variant(2)));
        assert!(Arc::ptr_eq(&again, &graph.aig(ids[2]).unwrap()));
        assert_eq!(sizes(&graph).2, 2 * size);
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let mut graph = StateGraph::new(1, 1000);
        graph.publish(id(5), Arc::new(toy_aig(5)));
        assert!(graph.aig(id(5)).is_none());
        assert_eq!(sizes(&graph), (1, 0, 0));
    }

    #[test]
    fn known_states_are_capped() {
        let mut graph = StateGraph::new(1_000_000, 8);
        graph.set_root(Fingerprint(1), id(1));
        graph.publish(id(1), Arc::new(toy_aig(1)));
        for k in 1..40 {
            graph.record_edge(id(k), Balance, id(k + 1)).unwrap();
            assert!(sizes(&graph).0 <= 8);
        }
        assert!(graph.root(Fingerprint(1)).is_none(), "old roots go too");
        assert_eq!(sizes(&graph).1, 0, "and so do their AIGs");
        assert_eq!(sizes(&graph).2, 0);
        let walk = graph.walk(id(39), &[Balance], None);
        assert_eq!((walk.steps, walk.state), (0, id(39)), "recent facts stay");
        assert!(graph.states.get(&id(39)).unwrap().edges[Balance.index()].is_some());
    }
}
