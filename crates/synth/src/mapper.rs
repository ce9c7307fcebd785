//! Cut-based technology mapping and static timing analysis.
//!
//! The mapper covers the AIG with library cells: k-feasible cuts are enumerated
//! per node, each cut function is matched against the NPN-indexed cell library,
//! and the best match per node is chosen by arrival time, area-flow breaking
//! ties (ABC `map`'s default objective, the only one).  A cover is then
//! extracted from the primary outputs and summarised as area (sum of cell
//! areas) and delay (static timing with a fanout-dependent load term), the two
//! QoR metrics the paper reports.

use aig::{truth4_pad, truth4_reduce, truth4_support, Aig, Cut4Enumerator, CutParams, NodeId};
use flow_core::{CancelToken, Cancelled, NEVER_FIRES};
use serde::{Deserialize, Serialize};

use crate::library::{CellId, CellLibrary};
use crate::npn4::npn4;
use crate::pass::{CancelCell, PassContext};
use crate::qor::Qor;

/// Parameters of the technology mapper: there are none.
///
/// The mapper runs at one configuration — cuts are always
/// [`CutParams::default`] (4 leaves — library cells have at most 4 pins — and
/// 8 cuts per node), the same cuts `rewrite` enumerates, and a match is chosen
/// by arrival time, area-flow breaking ties.  The struct is fieldless and
/// stays only because the entry points and their callers still pass
/// `MapperParams::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MapperParams {}

/// One mapped gate instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MappedGate {
    /// The AIG node implemented by this gate.
    pub root: NodeId,
    /// The library cell used.
    pub cell: CellId,
    /// The AIG nodes feeding the gate's input pins (cut leaves).
    pub leaves: Vec<NodeId>,
    /// Arrival time at the gate output in ps.
    pub arrival_ps: f64,
}

/// The result of technology mapping.
#[derive(Debug, Clone)]
pub struct MappedNetlist {
    /// Gate instances of the cover, in topological order.
    pub gates: Vec<MappedGate>,
    /// Total cell area in µm².
    pub area: f64,
    /// Critical-path delay in ps.
    pub delay_ps: f64,
    /// Number of AND nodes of the (cleaned) subject graph.
    pub subject_ands: usize,
    /// Depth of the subject graph in AND levels.
    pub subject_depth: u32,
}

impl MappedNetlist {
    /// Summarises the mapping as a [`Qor`] record.
    pub fn qor(&self) -> Qor {
        Qor {
            area_um2: self.area,
            delay_ps: self.delay_ps,
            gates: self.gates.len(),
            and_nodes: self.subject_ands,
            depth: self.subject_depth,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Choice {
    cell: CellId,
    leaves: Vec<NodeId>,
    arrival: f64,
    area_flow: f64,
}

/// Maps `aig` onto `library` and returns the mapped netlist.
///
/// Mapping is deterministic for a given graph, library and parameter set.
/// A thin front over [`map_with_ctx`] on a fresh [`PassContext`].
pub fn map(aig: &Aig, library: &CellLibrary, params: MapperParams) -> MappedNetlist {
    let mut ctx = PassContext::default();
    let mut subject = ctx.run_flow(aig, &[]);
    map_with_ctx(&mut subject, library, params, &mut ctx)
}

/// Maps `g` through an arena-recycling [`PassContext`].
///
/// The analysis front of the mapper runs on the context's epoch-stamped
/// caches: the cleanup at the head is skipped when the graph is known clean
/// (every pass output is), fanouts recompute only when stale, and the cut
/// sets land in the context's recycled enumeration buffer.  Cuts are inline
/// 4-cuts with fused `u16` truths, support is reduced with bitwise operations
/// and cells are matched through the precomputed NPN4 table.  This is
/// [`try_map_with_ctx`] under [`CancelToken::never`].
pub fn map_with_ctx(
    g: &mut Aig,
    library: &CellLibrary,
    params: MapperParams,
    ctx: &mut PassContext,
) -> MappedNetlist {
    try_map_with_ctx(g, library, params, ctx, &CancelToken::never()).expect(NEVER_FIRES)
}

/// [`map_with_ctx`] under a cancellation budget: the matching loop polls
/// `cancel` and returns `Err` once it fires.
pub fn try_map_with_ctx(
    g: &mut Aig,
    library: &CellLibrary,
    _params: MapperParams,
    ctx: &mut PassContext,
    cancel: &CancelToken,
) -> Result<MappedNetlist, Cancelled> {
    let start = std::time::Instant::now();
    ctx.ensure_clean(g);
    g.compute_fanouts_cached();
    Cut4Enumerator::new(CutParams::default()).enumerate_into(g, &mut ctx.cut4_sets);
    let netlist = map_core(g, library, &ctx.cut4_sets, cancel)?;
    ctx.record_mapping(start.elapsed().as_secs_f64());
    Ok(netlist)
}

/// Matching over an already cleaned, fanout-annotated subject graph with
/// pre-enumerated cuts.
fn map_core(
    subject: &Aig,
    library: &CellLibrary,
    cut_sets: &[aig::CutSet4],
    cancel: &CancelToken,
) -> Result<MappedNetlist, Cancelled> {
    let mut cancel = CancelCell::new(cancel);
    let mut matcher = Matcher::new(subject, library);
    // Scratch buffer for the reduced leaf list.
    let mut leaf_buf: Vec<NodeId> = Vec::with_capacity(4);
    for id in subject.and_ids() {
        cancel.checkpoint()?;
        let mut best: Option<Choice> = None;
        for cut in cut_sets[id].cuts() {
            let nv = cut.size();
            let truth = cut.truth();
            // Reduce to the true support so e.g. a 3-leaf cut computing a
            // 2-input function can match 2-input cells.
            let support = truth4_support(truth, nv);
            if support == 0 {
                continue; // constant functions never reach the cover
            }
            let (reduced, rnv) = truth4_reduce(truth, nv, support);
            leaf_buf.clear();
            for (v, &leaf) in cut.leaves().iter().enumerate() {
                if support >> v & 1 == 1 {
                    leaf_buf.push(leaf as NodeId);
                }
            }
            let canon = npn4().canonical(truth4_pad(reduced, rnv));
            matcher.consider(&mut best, id, &leaf_buf, library.matches_npn4(canon));
        }
        matcher.commit(id, best);
    }
    Ok(matcher.into_netlist())
}

/// Per-node matching state and cover extraction, shared by [`map_core`] and
/// the oracle ([`crate::reference::map`]): the two differ only in how a
/// node's candidate `(leaves, cells)` pairs are found.
pub(crate) struct Matcher<'a> {
    subject: &'a Aig,
    library: &'a CellLibrary,
    // Dense, node-id-indexed tables: every AND gets exactly one entry, so a
    // Vec beats a HashMap on both insert and the cover-extraction reads.
    choices: Vec<Option<Choice>>,
    arrivals: Vec<f64>,
    area_flows: Vec<f64>,
}

impl<'a> Matcher<'a> {
    pub(crate) fn new(subject: &'a Aig, library: &'a CellLibrary) -> Self {
        Matcher {
            subject,
            library,
            choices: vec![None; subject.len()],
            arrivals: vec![0.0; subject.len()],
            area_flows: vec![0.0; subject.len()],
        }
    }

    /// Scores every `cell` implementing `leaves -> id` and keeps the best:
    /// the earliest arrival, the smaller area-flow among ties.
    pub(crate) fn consider(
        &self,
        best: &mut Option<Choice>,
        id: NodeId,
        leaves: &[NodeId],
        cells: &[CellId],
    ) {
        let subject = self.subject;
        for &cell_id in cells {
            let cell = self.library.cell(cell_id);
            let leaf_arrival = leaves
                .iter()
                .map(|&l| self.arrivals[l])
                .fold(0.0f64, f64::max);
            let arrival = leaf_arrival
                + cell.delay_ps
                + cell.load_delay_ps * (subject.fanout_count(id) as f64);
            let leaf_flow: f64 = leaves
                .iter()
                .map(|&l| self.area_flows[l] / (subject.fanout_count(l).max(1) as f64))
                .sum();
            let area_flow = cell.area + leaf_flow;
            let better = best.as_ref().is_none_or(|b| {
                arrival < b.arrival - 1e-9
                    || (arrival < b.arrival + 1e-9 && area_flow < b.area_flow)
            });
            if better {
                *best = Some(Choice {
                    cell: cell_id,
                    leaves: leaves.to_vec(),
                    arrival,
                    area_flow,
                });
            }
        }
    }

    /// Records the choice for AND node `id` (nodes are committed in
    /// topological order, so later nodes read its arrival and area flow).
    pub(crate) fn commit(&mut self, id: NodeId, best: Option<Choice>) {
        let choice = best.unwrap_or_else(|| {
            // Fallback: implement the bare AND of the two fanins with an AND2
            // cell (always present in the library).
            let (a, b) = self.subject.node(id).fanins().expect("AND node");
            let leaves = vec![a.node(), b.node()];
            let and2 = self
                .library
                .cells()
                .iter()
                .position(|c| c.name.starts_with("AND2"))
                .expect("library provides AND2");
            let cell = self.library.cell(and2);
            let leaf_arrival = leaves
                .iter()
                .map(|&l| self.arrivals[l])
                .fold(0.0f64, f64::max);
            Choice {
                cell: and2,
                leaves,
                arrival: leaf_arrival + cell.delay_ps,
                area_flow: cell.area,
            }
        });
        self.arrivals[id] = choice.arrival;
        self.area_flows[id] = choice.area_flow;
        self.choices[id] = Some(choice);
    }

    /// Extracts the cover from the primary outputs and sums area and delay.
    pub(crate) fn into_netlist(self) -> MappedNetlist {
        let Matcher {
            subject,
            library,
            choices,
            arrivals,
            ..
        } = self;
        let mut required: Vec<NodeId> = subject
            .outputs()
            .iter()
            .map(|l| l.node())
            .filter(|&n| subject.node(n).is_and())
            .collect();
        required.sort_unstable();
        required.dedup();
        let mut in_cover: Vec<bool> = vec![false; subject.len()];
        let mut stack = required;
        let mut cover_nodes: Vec<NodeId> = Vec::new();
        while let Some(id) = stack.pop() {
            if in_cover[id] || !subject.node(id).is_and() {
                continue;
            }
            in_cover[id] = true;
            cover_nodes.push(id);
            for &leaf in &choices[id].as_ref().expect("AND node has a choice").leaves {
                if subject.node(leaf).is_and() && !in_cover[leaf] {
                    stack.push(leaf);
                }
            }
        }
        cover_nodes.sort_unstable();

        let inv = library.cell(library.inverter());
        let mut area = 0.0;
        let mut gates = Vec::with_capacity(cover_nodes.len());
        for id in cover_nodes {
            let c = choices[id].as_ref().expect("cover node has a choice");
            area += library.cell(c.cell).area;
            gates.push(MappedGate {
                root: id,
                cell: c.cell,
                leaves: c.leaves.clone(),
                arrival_ps: c.arrival,
            });
        }
        // Complemented primary outputs need an output inverter.
        let mut delay: f64 = 0.0;
        for &po in subject.outputs() {
            let mut t = arrivals[po.node()];
            if po.is_complemented() && subject.node(po.node()).is_and() {
                area += inv.area;
                t += inv.delay_ps;
            }
            delay = delay.max(t);
        }

        MappedNetlist {
            gates,
            area,
            delay_ps: delay,
            subject_ands: subject.num_ands(),
            subject_depth: subject.depth(),
        }
    }
}

/// Convenience wrapper: maps the graph and returns only the QoR summary.
pub fn map_qor(aig: &Aig, library: &CellLibrary, params: MapperParams) -> Qor {
    map(aig, library, params).qor()
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuits::{Design, DesignScale};

    fn lib() -> CellLibrary {
        CellLibrary::nangate14()
    }

    #[test]
    fn maps_a_small_adder() {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let cin = g.add_input("cin");
        let sum = g.xor_many(&[a, b, cin]);
        let carry = g.maj(a, b, cin);
        g.add_output("sum", sum);
        g.add_output("carry", carry);
        let mapped = map(&g, &lib(), MapperParams::default());
        assert!(!mapped.gates.is_empty());
        assert!(mapped.area > 0.0);
        assert!(mapped.delay_ps > 0.0);
        // A full adder should map to only a handful of cells (XOR3 + MAJ3 ideal).
        assert!(mapped.gates.len() <= 8, "got {} gates", mapped.gates.len());
    }

    #[test]
    fn mapping_covers_all_outputs() {
        let g = Design::Montgomery64.generate(DesignScale::Tiny);
        let mapped = map(&g, &lib(), MapperParams::default());
        let subject = g.cleanup();
        // Every AND-driven output must have a gate rooted at its node.
        let roots: std::collections::HashSet<NodeId> =
            mapped.gates.iter().map(|gate| gate.root).collect();
        for po in subject.outputs() {
            if subject.node(po.node()).is_and() {
                assert!(
                    roots.contains(&po.node()),
                    "output node {} not covered",
                    po.node()
                );
            }
        }
    }

    #[test]
    fn smaller_subject_graph_gives_smaller_area() {
        // Mapping after a strict rewrite should not increase area much; in the
        // typical case it decreases.  This ties the optimisation passes to QoR.
        let g = Design::Alu64.generate(DesignScale::Tiny);
        let before = map_qor(&g, &lib(), MapperParams::default());
        let optimised = crate::Transform::Rewrite.apply(&g);
        let after = map_qor(&optimised, &lib(), MapperParams::default());
        assert!(
            after.area_um2 <= before.area_um2 * 1.05,
            "area should not blow up: {} -> {}",
            before.area_um2,
            after.area_um2
        );
    }

    #[test]
    fn qor_summary_is_consistent() {
        let g = Design::Alu64.generate(DesignScale::Tiny);
        let mapped = map(&g, &lib(), MapperParams::default());
        let q = mapped.qor();
        assert_eq!(q.gates, mapped.gates.len());
        assert!((q.area_um2 - mapped.area).abs() < 1e-9);
        assert!(q.depth > 0);
    }

    #[test]
    fn support_reduction_matches_smaller_cells() {
        // f over a 3-leaf cut that only depends on two leaves must map as a
        // 2-input cell, not fail to match.
        let t = aig::TruthTable::var(0, 3).and(&aig::TruthTable::var(2, 3));
        let (reduced, leaves) = crate::reference::reduce_support(&t, &[0, 2], &[10, 11, 12]);
        assert_eq!(reduced.num_vars(), 2);
        assert_eq!(leaves, vec![10, 12]);
        assert!(reduced.get(0b11));
        assert!(!reduced.get(0b01));
    }
}
