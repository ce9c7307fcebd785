//! The one evaluation kernel: flows → QoR through the shared state graph.
//!
//! [`EvalEngine::drive`] is what `evaluate_batch` (and `search_flows` through
//! it) and the `flowd` request path (`evaluate_flow_with_ctx`) call.  It runs
//! in **waves**: every in-flight flow first advances through whatever the
//! [`StateGraph`](crate::state::StateGraph) already knows (identity edges are
//! skipped, resident targets adopted, known terminals answered with zero
//! passes and zero mappings); the *distinct* unknown `(state, transform)`
//! edges and unmapped terminals the flows now stand at are then executed —
//! each exactly once, in parallel — and committed in a fixed order.  Because
//! the graph only changes in the sequential phases, the passes applied, the
//! eviction decisions and every [`EvalStats`] counter are the same at any
//! thread count.

use std::collections::HashMap;
use std::sync::{Arc, MutexGuard};
use std::time::Duration;

use aig::Aig;
use flow_core::{CancelToken, Cancelled, Fingerprint};
use rayon::prelude::*;
use synth::{
    try_map_with_ctx, verify_equivalence, MapperParams, PassContext, PassTimings, Qor, Transform,
};

use crate::engine::{flow_script, EvalEngine};
use crate::state::{StateGraph, StateId, WorkKey};
use crate::stats::EvalStats;

/// How often a caller that can only wait for others' claims re-checks (a
/// release notifies it at once; the poll bounds its cancellation latency).
const CLAIM_POLL: Duration = Duration::from_millis(20);

/// One flow's position in the state graph.
struct Cursor {
    /// Index into the driven flow list.
    flow: usize,
    /// Transforms already reflected in `state`.
    pos: usize,
    state: StateId,
    /// `state`'s AIG.
    aig: Arc<Aig>,
    /// Whether the flow has been advanced at least once.
    started: bool,
    /// The work item of the current wave this flow waits for; `None` while
    /// its next step is in another caller's hands.
    waits_on: Option<usize>,
}

/// Work this call has claimed in the graph, released on drop — also when a
/// cancellation returns early out of the kernel — so that no other caller
/// waits for work nobody is doing.
struct Claims<'a> {
    engine: &'a EvalEngine,
    keys: Vec<WorkKey>,
}

impl Drop for Claims<'_> {
    fn drop(&mut self) {
        // A poisoned graph already fails every caller; do not panic twice.
        if let Ok(mut graph) = self.engine.graph.lock() {
            self.keys.drain(..).for_each(|key| graph.release(key));
        }
        self.engine.graph_changed.notify_all();
    }
}

/// One distinct unit of work of a wave: apply `t` to `src`, or (no `t`) map
/// it.  `flow` is the first flow that asked — it is charged for the work,
/// later askers count as memoized.
struct Work {
    flow: usize,
    from: StateId,
    t: Option<Transform>,
    src: Arc<Aig>,
}

/// What executing a [`Work`] item produced.
enum Done {
    /// The state the pass led to (the source itself if nothing changed).
    Moved(StateId, Arc<Aig>),
    /// The terminal's QoR, and whether it still computes the design.
    Mapped(Qor, bool),
}

/// The evaluation contexts a [`EvalEngine::drive`] call works on.  Either
/// kind runs its passes and mappings under the call's token.  No lock is
/// held while a pass or the mapper runs, and a wave commits only once all
/// its work is done, so a cancellation leaves the graph with the completed
/// edges of earlier waves only.
pub(crate) enum Contexts<'a> {
    /// The caller's own context, on the calling thread; its timings stay in
    /// it.
    Lent(&'a mut PassContext),
    /// The engine's pooled contexts, each wave fanned out over rayon; what
    /// they time is merged into the sink.
    Pooled(&'a mut PassTimings),
}

impl EvalEngine {
    pub(crate) fn graph(&self) -> MutexGuard<'_, StateGraph> {
        self.graph.lock().expect("state graph lock")
    }

    /// The root state of `design` — its cleaned form — and that AIG: the
    /// resident one, or a fresh cleanup (built outside the lock) when the
    /// design is new or its root was evicted.  Every request touches its
    /// root, so the roots of designs in use are the last AIGs to go.
    fn root_state(&self, design: &Aig, design_fp: Fingerprint) -> (StateId, Arc<Aig>) {
        let mut graph = self.graph();
        let known = graph.root(design_fp);
        if let Some(root) = known {
            graph.touch(root);
            if let Some(aig) = graph.aig(root) {
                return (root, aig);
            }
        }
        drop(graph);
        let aig = Arc::new(design.cleanup());
        let root = known.unwrap_or_else(|| StateId::of(&aig));
        let mut graph = self.graph();
        graph.set_root(design_fp, root);
        (root, graph.publish(root, aig))
    }

    /// Evaluates `flows` on `design`, returning QoR in input order,
    /// bit-identical to `FlowRunner::run`, or `Err` once `cancel` fires.
    /// Counters accumulate into `stats` as waves complete.
    pub(crate) fn drive<F: AsRef<[Transform]>>(
        &self,
        design: &Aig,
        design_fp: Fingerprint,
        flows: &[F],
        mut contexts: Contexts<'_>,
        cancel: &CancelToken,
        stats: &mut EvalStats,
    ) -> Result<Vec<Qor>, Cancelled> {
        let (root, root_aig) = self.root_state(design, design_fp);
        let verified_for = self.config.verify.then_some(root);
        // Every in-flight flow may pin one AIG outside the graph's LRU, so
        // their number is capped to keep that frontier inside the budget too.
        let cap = (self.config.cache_budget_aig_nodes / design.len().max(1)).max(1);
        let mut qors: Vec<Option<Qor>> = vec![None; flows.len()];
        let mut in_flight: Vec<Cursor> = Vec::new();
        let mut admitted = 0;
        loop {
            while in_flight.len() < cap && admitted < flows.len() {
                in_flight.push(Cursor {
                    flow: admitted,
                    pos: 0,
                    state: root,
                    aig: Arc::clone(&root_aig),
                    started: false,
                    waits_on: None,
                });
                admitted += 1;
            }
            if in_flight.is_empty() {
                break;
            }

            let mut work: Vec<Work> = Vec::new();
            let mut index: HashMap<WorkKey, usize> = HashMap::new();
            let mut claims = Claims {
                engine: self,
                keys: Vec::new(),
            };
            {
                // Advance every flow through what the graph knows ...
                let mut graph = self.graph();
                in_flight.retain_mut(|c| {
                    let rest = &flows[c.flow].as_ref()[c.pos..];
                    let walk = graph.walk(c.state, rest, verified_for);
                    graph.touch(walk.state);
                    stats.passes_memoized += walk.steps;
                    stats.trie_hits += usize::from(!c.started && walk.steps > 0);
                    c.started = true;
                    c.pos += walk.steps;
                    c.state = walk.state;
                    if let Some(aig) = walk.aig {
                        c.aig = aig;
                    }
                    if let Some(qor) = walk.qor {
                        qors[c.flow] = Some(qor);
                        stats.mappings_memoized += 1;
                    }
                    walk.qor.is_none()
                });
                // ... and, under the same lock, claim the distinct work they
                // now wait for, in flow order.  What another caller has
                // claimed is left to it (its result arrives through the
                // graph): concurrent callers never run the same work twice.
                for c in &mut in_flight {
                    let key = (c.state, flows[c.flow].as_ref().get(c.pos).copied());
                    c.waits_on = match index.get(&key) {
                        Some(&item) => Some(item),
                        None if graph.claim(key) => {
                            claims.keys.push(key);
                            index.insert(key, work.len());
                            work.push(Work {
                                flow: c.flow,
                                from: c.state,
                                t: key.1,
                                src: Arc::clone(&c.aig),
                            });
                            Some(work.len() - 1)
                        }
                        None => None,
                    };
                }
                if work.is_empty() && !in_flight.is_empty() {
                    // Everything left is in other callers' hands.
                    let waited = self.graph_changed.wait_timeout(graph, CLAIM_POLL);
                    drop(waited.expect("state graph lock"));
                    cancel.check()?;
                }
            }
            if work.is_empty() {
                continue;
            }

            // Execute it: no lock held, nothing published yet.
            let mut done: Vec<Done> = match &mut contexts {
                Contexts::Lent(pctx) => work
                    .iter()
                    .map(|item| self.execute(item, design, pctx, cancel))
                    .collect::<Result<_, _>>()?,
                Contexts::Pooled(timings) => {
                    let outs: Vec<(Result<Done, Cancelled>, PassTimings)> = work
                        .par_iter()
                        .map(|item| {
                            let pooled = self.contexts.lock().expect("context pool lock").pop();
                            let mut pctx = pooled.unwrap_or_else(|| self.pass_context());
                            let done = self.execute(item, design, &mut pctx, cancel);
                            let spent = pctx.take_timings();
                            self.contexts.lock().expect("context pool lock").push(pctx);
                            (done, spent)
                        })
                        .collect();
                    outs.iter().for_each(|(_, spent)| timings.merge(spent));
                    outs.into_iter()
                        .map(|(done, _)| done)
                        .collect::<Result<_, _>>()?
                }
            };

            // Commit in work order, then move the waiting flows on.
            let mut broken: Vec<String> = Vec::new();
            let mut graph = self.graph();
            for (item, done) in work.iter().zip(&mut done) {
                let script = || flow_script(flows[item.flow].as_ref());
                match done {
                    Done::Moved(to, aig) => {
                        *aig = match *to == item.from {
                            true => Arc::clone(&item.src), // hashed to the same graph
                            false => graph.publish(*to, Arc::clone(aig)),
                        };
                        let t = item.t.expect("pass work has a transform");
                        if graph.record_edge(item.from, t, *to).is_err() {
                            let pass = t.command();
                            broken.push(format!("`{pass}` is impure (flow `{}`)", script()));
                        }
                    }
                    Done::Mapped(qor, equivalent) => {
                        if !*equivalent {
                            broken.push(format!("flow `{}` changed the function", script()));
                        }
                        graph.set_qor(item.from, *qor, verified_for);
                    }
                }
            }
            drop(graph);
            drop(claims);
            // In all builds: a pass that is not a pure function of its graph
            // (or not function-preserving) makes every cache here unsound.
            assert!(
                broken.is_empty(),
                "floweval verification failed on `{}`: {broken:?}",
                design.name()
            );
            in_flight.retain_mut(|c| {
                let Some(item) = c.waits_on else {
                    return true;
                };
                let mine = work[item].flow == c.flow;
                match &done[item] {
                    Done::Moved(to, aig) => {
                        (c.state, c.aig, c.pos) = (*to, Arc::clone(aig), c.pos + 1);
                        stats.passes_applied += usize::from(mine);
                        stats.passes_memoized += usize::from(!mine);
                        true
                    }
                    Done::Mapped(qor, _) => {
                        qors[c.flow] = Some(*qor);
                        stats.mappings_run += usize::from(mine);
                        stats.mappings_memoized += usize::from(!mine);
                        false
                    }
                }
            });
        }
        Ok(qors
            .into_iter()
            .map(|q| q.expect("every flow evaluated"))
            .collect())
    }

    /// Executes one work item on `pctx` under `cancel` — the only place a
    /// pass or the mapper runs in this crate.  A cancelled item hands its
    /// buffer back to `pctx` and returns `Err`.
    fn execute(
        &self,
        item: &Work,
        design: &Aig,
        pctx: &mut PassContext,
        cancel: &CancelToken,
    ) -> Result<Done, Cancelled> {
        let mut g = pctx.take_buf();
        g.copy_from(&item.src);
        let Some(t) = item.t else {
            let equivalent = !self.config.verify || verify_equivalence(design, &g);
            let params = MapperParams::default();
            let mapped = try_map_with_ctx(&mut g, &self.library, params, pctx, cancel);
            pctx.recycle(g);
            return mapped.map(|netlist| Done::Mapped(netlist.qor(), equivalent));
        };
        let identities = pctx.apply_stats().identity;
        if let Err(cancelled) = pctx.try_apply(t, &mut g, cancel) {
            pctx.recycle(g);
            return Err(cancelled);
        }
        if pctx.apply_stats().identity != identities {
            // The sweep accepted nothing: same graph, no need to hash it.
            pctx.recycle(g);
            Ok(Done::Moved(item.from, Arc::clone(&item.src)))
        } else {
            Ok(Done::Moved(StateId::of(&g), Arc::new(g)))
        }
    }
}
