//! The And-Inverter Graph container.

use crate::strash::Strash;
use crate::{Lit, Node};

/// Index of a node inside an [`Aig`].
pub type NodeId = usize;

/// An And-Inverter Graph: a combinational logic network made of two-input AND
/// gates and inverters (encoded as complemented literal edges).
///
/// The graph always contains the constant-false node at id 0.  Primary inputs
/// and AND nodes are appended after it; fanins of an AND node always have a
/// smaller id than the node itself, so iterating ids in increasing order visits
/// the graph in topological order.
///
/// New AND nodes are *structurally hashed*: requesting an AND over the same pair
/// of literals twice returns the same node, and the trivial simplifications
/// (`x & 0 = 0`, `x & 1 = x`, `x & x = x`, `x & !x = 0`) are applied eagerly.
///
/// ```
/// use aig::Aig;
/// let mut g = Aig::new();
/// let a = g.add_input("a");
/// let b = g.add_input("b");
/// let x = g.and(a, b);
/// let y = g.and(b, a);
/// assert_eq!(x, y, "structural hashing merges identical ANDs");
/// assert_eq!(g.and(a, !a), aig::Lit::FALSE);
/// ```
#[derive(Debug, Clone)]
pub struct Aig {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    input_names: Vec<String>,
    outputs: Vec<Lit>,
    output_names: Vec<String>,
    pub(crate) strash: Strash,
    /// Structural mutation counter: bumped whenever the graph changes shape
    /// (node added, input added, output registered, buffer recycled).  The
    /// epoch-stamped analysis flags below compare against it.
    generation: u64,
    /// Generation at which [`Aig::compute_fanouts`] last ran (0 = never).
    fanouts_at: u64,
    /// Generation at which the graph was last known dangling-free, i.e. a
    /// [`Aig::cleanup`] would be the identity (0 = unknown).
    clean_at: u64,
}

/// The trivial ANDs (`x & 0 = 0`, `x & 1 = x`, `x & x = x`, `x & !x = 0`),
/// answered without a node; `None` when the AND needs the strash.
#[inline]
pub(crate) fn trivial_and(a: Lit, b: Lit) -> Option<Lit> {
    if a == Lit::FALSE || b == Lit::FALSE || a == !b {
        Some(Lit::FALSE)
    } else if a == Lit::TRUE {
        Some(b)
    } else if b == Lit::TRUE || a == b {
        Some(a)
    } else {
        None
    }
}

/// Reusable scratch buffers for [`Aig::cleanup_into_with`]: the remap table,
/// reachability flags and traversal stack survive across rebuilds so a whole
/// synthesis flow allocates them once.
#[derive(Debug, Default)]
pub struct AigScratch {
    map: Vec<Option<Lit>>,
    reachable: Vec<bool>,
    stack: Vec<NodeId>,
}

impl Default for Aig {
    fn default() -> Self {
        Self::new()
    }
}

impl Aig {
    /// Creates an empty graph containing only the constant node.
    pub fn new() -> Self {
        Aig {
            name: String::from("aig"),
            nodes: vec![Node::constant()],
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
            output_names: Vec::new(),
            strash: Strash::default(),
            generation: 1,
            fanouts_at: 0,
            clean_at: 0,
        }
    }

    /// Creates an empty graph with a design name.
    pub fn with_name(name: impl Into<String>) -> Self {
        let mut g = Self::new();
        g.name = name.into();
        g
    }

    /// Returns the design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the design name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a primary input and returns its (positive) literal.
    pub fn add_input(&mut self, name: impl Into<String>) -> Lit {
        let id = self.nodes.len();
        self.nodes.push(Node::input(self.inputs.len() as u32));
        self.inputs.push(id);
        self.input_names.push(name.into());
        self.generation += 1;
        Lit::from_node(id, false)
    }

    /// Adds `count` primary inputs named `prefix[0..count]` and returns their literals.
    pub fn add_inputs(&mut self, prefix: &str, count: usize) -> Vec<Lit> {
        (0..count)
            .map(|i| self.add_input(format!("{prefix}[{i}]")))
            .collect()
    }

    /// Registers `lit` as a primary output under `name`.
    pub fn add_output(&mut self, name: impl Into<String>, lit: Lit) {
        self.outputs.push(lit);
        self.output_names.push(name.into());
        self.generation += 1;
    }

    /// Registers a bus of primary outputs `prefix[i]` for each literal.
    pub fn add_outputs(&mut self, prefix: &str, lits: &[Lit]) {
        for (i, &l) in lits.iter().enumerate() {
            self.add_output(format!("{prefix}[{i}]"), l);
        }
    }

    /// Returns the AND of two literals, creating a node if needed.
    ///
    /// Trivial cases are simplified and structurally equivalent requests are
    /// merged, so the returned literal may refer to an existing node or a
    /// constant.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if let Some(l) = trivial_and(a, b) {
            return l;
        }
        if let Some(id) = self.strash.find(&self.nodes, a, b) {
            return Lit::from_node(id, false);
        }
        // Canonical fanin order for structural hashing.
        let (x, y) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        let level = 1 + self.nodes[x.node()]
            .level()
            .max(self.nodes[y.node()].level());
        let id = self.nodes.len();
        self.nodes.push(Node::and(x, y, level));
        self.strash.insert(&self.nodes, id);
        self.generation += 1;
        Lit::from_node(id, false)
    }

    /// Returns the OR of two literals.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Returns the XOR of two literals (built from three AND nodes).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let x = self.and(a, !b);
        let y = self.and(!a, b);
        self.or(x, y)
    }

    /// Returns the multiplexer `sel ? t : e`.
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let a = self.and(sel, t);
        let b = self.and(!sel, e);
        self.or(a, b)
    }

    /// Returns the majority of three literals (carry function).
    pub fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let ac = self.and(a, c);
        let bc = self.and(b, c);
        let t = self.or(ab, ac);
        self.or(t, bc)
    }

    /// Returns the AND of all literals in `lits` (true for an empty slice).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = Lit::TRUE;
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// Returns the OR of all literals in `lits` (false for an empty slice).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = Lit::FALSE;
        for &l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// Returns the XOR of all literals in `lits` (false for an empty slice).
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = Lit::FALSE;
        for &l in lits {
            acc = self.xor(acc, l);
        }
        acc
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Number of nodes including the constant node.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the graph contains only the constant node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of AND nodes (the usual "AIG size" metric).
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.inputs.len()
    }

    /// Returns the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Returns the ids of all primary-input nodes in PI order.
    pub fn input_ids(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Returns the literals of all primary inputs in PI order.
    pub fn input_lits(&self) -> Vec<Lit> {
        self.inputs
            .iter()
            .map(|&id| Lit::from_node(id, false))
            .collect()
    }

    /// Returns the name of the `i`-th primary input.
    pub fn input_name(&self, i: usize) -> &str {
        &self.input_names[i]
    }

    /// Returns the output literals in PO order.
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// Returns the name of the `i`-th primary output.
    pub fn output_name(&self, i: usize) -> &str {
        &self.output_names[i]
    }

    /// Iterates over the ids of all AND nodes in topological order.
    pub fn and_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.nodes.len()).filter(move |&id| self.nodes[id].is_and())
    }

    /// Iterates over all node ids (excluding the constant) in topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        1..self.nodes.len()
    }

    /// Logic depth: the maximum level over all primary outputs.
    pub fn depth(&self) -> u32 {
        self.outputs
            .iter()
            .map(|l| self.nodes[l.node()].level())
            .max()
            .unwrap_or(0)
    }

    /// Returns the logic level of the node referenced by `lit`.
    pub fn level(&self, lit: Lit) -> u32 {
        self.nodes[lit.node()].level()
    }

    // ------------------------------------------------------------------
    // Fanout bookkeeping
    // ------------------------------------------------------------------

    /// Recomputes the fanout counters of every node from AND fanins and outputs.
    pub fn compute_fanouts(&mut self) {
        for n in &mut self.nodes {
            n.reset_fanout();
        }
        for id in 1..self.nodes.len() {
            if let Some((a, b)) = self.nodes[id].fanins() {
                self.nodes[a.node()].add_fanout();
                self.nodes[b.node()].add_fanout();
            }
        }
        for i in 0..self.outputs.len() {
            let n = self.outputs[i].node();
            self.nodes[n].add_fanout();
        }
        self.fanouts_at = self.generation;
    }

    /// Recomputes fanout counters only when the graph mutated since the last
    /// [`Aig::compute_fanouts`] — the epoch-stamped fast path of the pass
    /// pipeline.  Counts are identical to an unconditional recompute.
    pub fn compute_fanouts_cached(&mut self) {
        if !self.fanouts_fresh() {
            self.compute_fanouts();
        }
    }

    /// Returns `true` when the stored fanout counters reflect the current
    /// graph (no structural mutation since [`Aig::compute_fanouts`]).
    pub fn fanouts_fresh(&self) -> bool {
        self.fanouts_at != 0 && self.fanouts_at == self.generation
    }

    /// Returns the fanout count recorded for a node (valid after [`Aig::compute_fanouts`]).
    pub fn fanout_count(&self, id: NodeId) -> u32 {
        self.nodes[id].fanout_count()
    }

    // ------------------------------------------------------------------
    // Cleanup / cone extraction
    // ------------------------------------------------------------------

    /// Returns a new graph containing only the logic reachable from the primary
    /// outputs (dangling nodes removed), with inputs and outputs preserved in
    /// order.  The node-count reduction of a synthesis pass materialises here.
    pub fn cleanup(&self) -> Aig {
        let mut out = Aig::new();
        let mut scratch = AigScratch::default();
        self.cleanup_into_with(&mut out, &mut scratch);
        out
    }

    /// [`Aig::cleanup`] into a recycled destination graph.
    ///
    /// `out` is reset with [`Aig::clear_for_reuse`] (its node vector, strash
    /// table and output lists keep their capacity) and `scratch` provides the
    /// remap/reachability buffers, so a rebuild inside a pass pipeline touches
    /// the allocator only when the design outgrows every previous one.  The
    /// result is bit-identical to what [`Aig::cleanup`] returns.
    pub fn cleanup_into_with(&self, out: &mut Aig, scratch: &mut AigScratch) {
        out.clear_for_reuse();
        out.name.clone_from(&self.name);
        // Pre-size from the source graph: the destination can only be smaller,
        // so neither the node vector nor the strash table ever rehashes/grows
        // during the rebuild.
        out.reserve_for(self.nodes.len(), self.num_ands());
        let map = &mut scratch.map;
        map.clear();
        map.resize(self.nodes.len(), None);
        map[0] = Some(Lit::FALSE);
        // Inputs are always preserved (a design keeps its interface even if an
        // input becomes unused).
        for (i, &id) in self.inputs.iter().enumerate() {
            let l = out.add_input(self.input_names[i].clone());
            map[id] = Some(l);
        }
        // Mark reachable AND nodes.
        let reachable = &mut scratch.reachable;
        reachable.clear();
        reachable.resize(self.nodes.len(), false);
        let stack = &mut scratch.stack;
        stack.clear();
        stack.extend(self.outputs.iter().map(|l| l.node()));
        while let Some(id) = stack.pop() {
            if reachable[id] {
                continue;
            }
            reachable[id] = true;
            if let Some((a, b)) = self.nodes[id].fanins() {
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        // Rebuild reachable ANDs in topological order.
        for id in 1..self.nodes.len() {
            if !reachable[id] {
                continue;
            }
            if let Some((a, b)) = self.nodes[id].fanins() {
                let na = map[a.node()].expect("fanin mapped") ^ a.is_complemented();
                let nb = map[b.node()].expect("fanin mapped") ^ b.is_complemented();
                map[id] = Some(out.and(na, nb));
            }
        }
        for (i, &l) in self.outputs.iter().enumerate() {
            let nl = map[l.node()].expect("output cone mapped") ^ l.is_complemented();
            out.add_output(self.output_names[i].clone(), nl);
        }
        out.clean_at = out.generation;
    }

    /// Returns `true` when a [`Aig::cleanup`] is known to be the identity:
    /// the graph came out of a cleanup and has not mutated since.
    pub fn is_clean(&self) -> bool {
        self.clean_at != 0 && self.clean_at == self.generation
    }

    /// The structural mutation counter backing the epoch-stamped analysis
    /// caches ([`Aig::fanouts_fresh`], [`Aig::is_clean`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Resets the graph to the empty state (constant node only) while keeping
    /// every allocation — node vector, strash table, input/output lists — so
    /// the buffer can be rebuilt into without touching the allocator.
    pub fn clear_for_reuse(&mut self) {
        self.name.clear();
        self.nodes.truncate(1);
        self.nodes[0] = Node::constant();
        self.inputs.clear();
        self.input_names.clear();
        self.outputs.clear();
        self.output_names.clear();
        self.strash.clear();
        self.generation += 1;
        self.fanouts_at = 0;
        self.clean_at = 0;
    }

    /// Clones `other` into `self`, reusing `self`'s allocations (the analogue
    /// of `Clone::clone_from` with capacity retention across node vectors,
    /// name lists and the strash table).
    pub fn copy_from(&mut self, other: &Aig) {
        self.name.clone_from(&other.name);
        self.nodes.clone_from(&other.nodes);
        self.inputs.clone_from(&other.inputs);
        self.input_names.clone_from(&other.input_names);
        self.outputs.clone_from(&other.outputs);
        self.output_names.clone_from(&other.output_names);
        self.strash.clone_from(&other.strash);
        self.generation = other.generation;
        self.fanouts_at = other.fanouts_at;
        self.clean_at = other.clean_at;
    }

    /// Reserves room for `nodes` total nodes of which `ands` are AND gates, so
    /// subsequent construction does not reallocate or rehash.
    pub fn reserve_for(&mut self, nodes: usize, ands: usize) {
        self.nodes.reserve(nodes.saturating_sub(self.nodes.len()));
        self.strash.reserve(&self.nodes, ands);
    }

    /// Returns the set of node ids in the transitive fanin cone of `roots`
    /// (including the roots themselves, excluding the constant node).
    pub fn cone(&self, roots: &[Lit]) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = roots.iter().map(|l| l.node()).collect();
        let mut cone = Vec::new();
        while let Some(id) = stack.pop() {
            if id == 0 || seen[id] {
                continue;
            }
            seen[id] = true;
            cone.push(id);
            if let Some((a, b)) = self.nodes[id].fanins() {
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        cone.sort_unstable();
        cone
    }

    /// Number of slots in the structural-hash table (4 bytes each).
    pub fn strash_capacity(&self) -> usize {
        self.strash.capacity()
    }

    /// Looks up an existing AND node over `(a, b)` without creating one.
    ///
    /// Returns the literal of the existing node after trivial simplification,
    /// or `None` if the AND would require creating a new node.
    pub fn find_and(&self, a: Lit, b: Lit) -> Option<Lit> {
        trivial_and(a, b).or_else(|| {
            let id = self.strash.find(&self.nodes, a, b)?;
            Some(Lit::from_node(id, false))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> (Aig, Lit, Lit, Lit) {
        let mut g = Aig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        (g, a, b, c)
    }

    #[test]
    fn trivial_and_rules() {
        let (mut g, a, _, _) = simple();
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(Lit::FALSE, a), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(Lit::TRUE, a), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_merges() {
        let (mut g, a, b, _) = simple();
        let x = g.and(a, b);
        let y = g.and(b, a);
        let z = g.and(a, b);
        assert_eq!(x, y);
        assert_eq!(x, z);
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn levels_and_depth() {
        let (mut g, a, b, c) = simple();
        let ab = g.and(a, b);
        let abc = g.and(ab, c);
        g.add_output("f", abc);
        assert_eq!(g.level(ab), 1);
        assert_eq!(g.level(abc), 2);
        assert_eq!(g.depth(), 2);
    }

    #[test]
    fn derived_gates_have_expected_sizes() {
        let (mut g, a, b, c) = simple();
        let x = g.xor(a, b);
        assert_eq!(g.num_ands(), 3, "xor uses three AND nodes");
        let m = g.mux(c, x, a);
        g.add_output("m", m);
        assert!(g.num_ands() >= 6);
    }

    #[test]
    fn cleanup_drops_dangling_nodes() {
        let (mut g, a, b, c) = simple();
        let _dangling = g.and(a, c);
        let keep = g.and(a, b);
        g.add_output("f", keep);
        assert_eq!(g.num_ands(), 2);
        let clean = g.cleanup();
        assert_eq!(clean.num_ands(), 1);
        assert_eq!(clean.num_inputs(), 3);
        assert_eq!(clean.num_outputs(), 1);
    }

    #[test]
    fn cleanup_preserves_complemented_outputs() {
        let (mut g, a, b, _) = simple();
        let ab = g.and(a, b);
        g.add_output("nf", !ab);
        let clean = g.cleanup();
        assert_eq!(clean.num_outputs(), 1);
        assert!(clean.outputs()[0].is_complemented());
    }

    #[test]
    fn fanout_counts() {
        let (mut g, a, b, c) = simple();
        let ab = g.and(a, b);
        let abc = g.and(ab, c);
        let abb = g.and(ab, b);
        g.add_output("x", abc);
        g.add_output("y", abb);
        g.compute_fanouts();
        assert_eq!(g.fanout_count(ab.node()), 2);
        assert_eq!(g.fanout_count(abc.node()), 1);
        assert_eq!(g.fanout_count(a.node()), 1);
        assert_eq!(g.fanout_count(b.node()), 2);
    }

    #[test]
    fn cone_collects_transitive_fanin() {
        let (mut g, a, b, c) = simple();
        let ab = g.and(a, b);
        let abc = g.and(ab, c);
        let cone = g.cone(&[abc]);
        assert!(cone.contains(&ab.node()));
        assert!(cone.contains(&a.node()));
        assert!(cone.contains(&abc.node()));
        assert_eq!(cone.len(), 5);
    }

    #[test]
    fn find_and_does_not_create() {
        let (mut g, a, b, c) = simple();
        let ab = g.and(a, b);
        assert_eq!(g.find_and(a, b), Some(ab));
        assert_eq!(g.find_and(b, a), Some(ab));
        assert_eq!(g.find_and(a, c), None);
        assert_eq!(g.find_and(a, Lit::TRUE), Some(a));
        assert_eq!(g.num_ands(), 1);
    }

    /// Node-for-node structural equality (ids, kinds, levels, interface).
    fn identical(a: &Aig, b: &Aig) -> bool {
        a.len() == b.len()
            && (0..a.len()).all(|i| a.node(i).kind() == b.node(i).kind())
            && (0..a.len()).all(|i| a.node(i).level() == b.node(i).level())
            && a.outputs() == b.outputs()
            && a.input_ids() == b.input_ids()
            && (0..a.num_inputs()).all(|i| a.input_name(i) == b.input_name(i))
            && (0..a.num_outputs()).all(|i| a.output_name(i) == b.output_name(i))
            && a.name() == b.name()
    }

    #[test]
    fn cleanup_into_matches_cleanup_and_marks_clean() {
        let (mut g, a, b, c) = simple();
        let _dangling = g.and(a, c);
        let keep = g.and(a, b);
        g.add_output("f", keep);
        assert!(!g.is_clean());

        let fresh = g.cleanup();
        assert!(fresh.is_clean());

        // Rebuild into a dirty recycled buffer: identical result.
        let mut recycled = Aig::new();
        let junk = recycled.add_input("junk");
        recycled.add_output("j", junk);
        let mut scratch = AigScratch::default();
        g.cleanup_into_with(&mut recycled, &mut scratch);
        assert!(identical(&fresh, &recycled));
        assert!(recycled.is_clean());

        // Cleanup of a clean graph is the identity.
        let again = fresh.cleanup();
        assert!(identical(&fresh, &again));
    }

    #[test]
    fn mutation_invalidates_clean_and_fanout_epochs() {
        let (mut g, a, b, _) = simple();
        let ab = g.and(a, b);
        g.add_output("f", ab);
        let mut g = g.cleanup();
        assert!(g.is_clean());
        assert!(!g.fanouts_fresh(), "fanouts never computed");
        g.compute_fanouts();
        assert!(g.fanouts_fresh());

        // A cached recompute is a no-op while fresh.
        let gen = g.generation();
        g.compute_fanouts_cached();
        assert_eq!(g.generation(), gen);
        assert!(g.fanouts_fresh());

        // Creating a node invalidates both epochs.
        let inputs = g.input_lits();
        let extra = g.and(inputs[0], !inputs[1]);
        assert!(!g.is_clean(), "new node may dangle");
        assert!(!g.fanouts_fresh(), "fanins gained a fanout");
        g.compute_fanouts_cached();
        assert!(g.fanouts_fresh());
        assert_eq!(g.fanout_count(inputs[0].node()), 2);

        // Registering an output also invalidates the fanout epoch.
        g.add_output("g", extra);
        assert!(!g.fanouts_fresh());

        // A strash hit changes nothing, so the epochs stay fresh.
        g.compute_fanouts();
        let hit = g.and(inputs[0], !inputs[1]);
        assert_eq!(hit, extra);
        assert!(g.fanouts_fresh());
    }

    #[test]
    fn clear_for_reuse_resets_state_and_copy_from_round_trips() {
        let (mut g, a, b, c) = simple();
        let ab = g.and(a, b);
        let f = g.and(ab, c);
        g.add_output("f", f);
        let g = g.cleanup();

        let mut buf = g.clone();
        buf.clear_for_reuse();
        assert!(buf.is_empty());
        assert_eq!(buf.num_inputs(), 0);
        assert_eq!(buf.num_outputs(), 0);
        assert!(!buf.is_clean());
        // The strash is empty again: rebuilding the same AND creates a node.
        let x = buf.add_input("x");
        let y = buf.add_input("y");
        let _ = buf.and(x, y);
        assert_eq!(buf.num_ands(), 1);

        buf.copy_from(&g);
        assert!(identical(&buf, &g));
        assert!(buf.is_clean(), "epoch flags travel with the copy");
        assert_eq!(buf.find_and(a, b), Some(ab), "strash is live after copy");
    }

    #[test]
    fn many_variants() {
        let (mut g, a, b, c) = simple();
        let all = g.and_many(&[a, b, c]);
        let any = g.or_many(&[a, b, c]);
        let parity = g.xor_many(&[a, b, c]);
        g.add_output("all", all);
        g.add_output("any", any);
        g.add_output("parity", parity);
        assert_eq!(g.and_many(&[]), Lit::TRUE);
        assert_eq!(g.or_many(&[]), Lit::FALSE);
        assert_eq!(g.xor_many(&[]), Lit::FALSE);
        assert!(g.num_ands() > 0);
    }
}
