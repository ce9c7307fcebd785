//! The structural-hash table of an [`Aig`](crate::Aig): canonical fanin pair
//! → AND node id, open-addressed with a multiplicative hash, linear probing,
//! backward-shift deletion (no tombstones) and load at or below ½.

use crate::{Lit, Node, NodeId};

/// Empty-slot sentinel: id 0 is the constant node, never an AND.
const EMPTY: u32 = 0;

/// The table.  A slot holds only a `u32` node id: the key is read back from
/// `nodes[id].fanins()`, sorted by raw encoding exactly as
/// [`Aig::and`](crate::Aig::and) canonicalises, so a slot costs 4 bytes and
/// an AND 8–16.
///
/// **Ordering rule.**  Because a slot derives its key from the node, an entry
/// is valid only while its node holds the fanins it was inserted under:
/// [`Strash::insert`] runs *after* the node record holds its fanins, and
/// [`Strash::remove`] *before* they change.  Swapping a node's two fanins is
/// harmless (the key is the unordered pair).
#[derive(Debug, Default)]
pub(crate) struct Strash {
    /// Node id per slot, [`EMPTY`] when free; zero or a power of two long.
    slots: Vec<u32>,
    /// Occupied slots.
    len: usize,
}

// `clone_from` (behind `Aig::copy_from`) reuses the destination's slots
// when both tables are the same size, and only then: a larger table kept
// behind a smaller graph would stay resident for nothing.
impl Clone for Strash {
    fn clone(&self) -> Self {
        Strash {
            slots: self.slots.clone(),
            len: self.len,
        }
    }

    fn clone_from(&mut self, other: &Self) {
        if self.slots.len() == other.slots.len() {
            self.slots.copy_from_slice(&other.slots);
        } else {
            self.slots = other.slots.clone();
        }
        self.len = other.len;
    }
}

/// The canonical key of fanins `a`, `b`: their raw encodings, smaller first.
#[inline]
fn key(a: Lit, b: Lit) -> (u32, u32) {
    (a.raw().min(b.raw()), a.raw().max(b.raw()))
}

#[inline]
fn key_of(node: &Node) -> (u32, u32) {
    let (a, b) = node.fanins().expect("strash entries are AND nodes");
    key(a, b)
}

impl Strash {
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Home slot of `key`: the top bits of the packed key times 2^64 / φ.
    #[inline]
    fn home(&self, (x, y): (u32, u32)) -> usize {
        let packed = (x as u64) << 32 | y as u64;
        let bits = self.slots.len().trailing_zeros();
        (packed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    /// Empties the table, keeping its slots.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }

    /// Grows the table so `entries` fit at load ≤ ½.  Never shrinks.
    pub(crate) fn reserve(&mut self, nodes: &[Node], entries: usize) {
        let want = (2 * entries).next_power_of_two().max(16);
        if entries == 0 || want <= self.slots.len() {
            return;
        }
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; want]);
        for id in old.into_iter().filter(|&id| id != EMPTY) {
            let slot = self.free_slot(key_of(&nodes[id as usize]));
            self.slots[slot] = id;
        }
    }

    /// The first free slot of `key`'s probe run.
    #[inline]
    fn free_slot(&self, key: (u32, u32)) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// The AND over fanins `a`, `b` (either order), if the table holds one.
    #[inline]
    pub(crate) fn find(&self, nodes: &[Node], a: Lit, b: Lit) -> Option<NodeId> {
        if self.slots.is_empty() {
            return None;
        }
        let key = key(a, b);
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                return None;
            }
            if key_of(&nodes[id as usize]) == key {
                return Some(id as NodeId);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Records `id`, whose record in `nodes` holds its fanins and whose key
    /// the table does not hold yet.
    pub(crate) fn insert(&mut self, nodes: &[Node], id: NodeId) {
        self.reserve(nodes, self.len + 1);
        let (a, b) = nodes[id].fanins().expect("strash entries are AND nodes");
        debug_assert!(self.find(nodes, a, b).is_none(), "strash keys are unique");
        let slot = self.free_slot(key(a, b));
        self.slots[slot] = id as u32;
        self.len += 1;
    }

    /// Removes `id`, which the table holds under the key its record in
    /// `nodes` still holds.  Later members of the probe run shift back into
    /// the hole.
    pub(crate) fn remove(&mut self, nodes: &[Node], id: NodeId) {
        let mask = self.slots.len() - 1;
        let mut hole = self.home(key_of(&nodes[id]));
        while self.slots[hole] != id as u32 {
            assert_ne!(self.slots[hole], EMPTY, "removed node is in the table");
            hole = (hole + 1) & mask;
        }
        let mut next = hole;
        loop {
            next = (next + 1) & mask;
            let moved = self.slots[next];
            if moved == EMPTY {
                break;
            }
            // An entry whose home lies cyclically in (hole, next] stays put.
            let home = self.home(key_of(&nodes[moved as usize]));
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.slots[hole] = moved;
                hole = next;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use super::*;
    use crate::Aig;

    /// Deterministic xorshift64*.
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

        fn lit(&mut self, n: usize) -> Lit {
            Lit::from_raw(2 + self.below(n) as u32)
        }
    }

    /// Every entry is reachable from its home slot without crossing a free
    /// slot, `len` counts the occupied slots, and the load is at most ½.
    fn assert_well_formed(t: &Strash, nodes: &[Node]) {
        let occupied = t.slots.iter().filter(|&&id| id != EMPTY).count();
        assert_eq!(occupied, t.len, "len counts occupied slots");
        assert!(2 * t.len <= t.slots.len(), "load stays at or below 1/2");
        for (slot, &id) in t.slots.iter().enumerate() {
            if id == EMPTY {
                continue;
            }
            let mut s = t.home(key_of(&nodes[id as usize]));
            while s != slot {
                assert_ne!(t.slots[s], EMPTY, "entry {id} cut off from its home");
                s = (s + 1) & (t.slots.len() - 1);
            }
        }
    }

    fn lookup(t: &Strash, nodes: &[Node], id: NodeId) -> Option<NodeId> {
        let (a, b) = nodes[id].fanins().unwrap();
        t.find(nodes, a, b)
    }

    /// A node record per distinct key; ids start at 1 (0 is the constant).
    fn records(rng: &mut XorShift, count: usize) -> Vec<Node> {
        let mut nodes = vec![Node::constant()];
        let mut seen = HashSet::new();
        while nodes.len() <= count {
            let (a, b) = (rng.lit(400), rng.lit(400));
            if seen.insert(key(a, b)) {
                // Stored order is arbitrary: the key is the unordered pair.
                nodes.push(Node::and(a, b, 1));
            }
        }
        nodes
    }

    #[test]
    fn random_operations_match_hashmap_model() {
        for seed in 1..=8u64 {
            let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let nodes = records(&mut rng, 600);
            let mut table = Strash::default();
            let mut model = HashMap::new();
            for step in 0..6000 {
                let id = 1 + rng.below(nodes.len() - 1);
                let k = key_of(&nodes[id]);
                match rng.below(10) {
                    // Insert after a missed lookup, as `Aig::and` does.
                    0..=3 => match lookup(&table, &nodes, id) {
                        Some(hit) => assert_eq!(model.get(&k), Some(&hit)),
                        None => {
                            assert!(!model.contains_key(&k));
                            table.insert(&nodes, id);
                            model.insert(k, id);
                        }
                    },
                    4..=6 => {
                        if model.remove(&k).is_some() {
                            table.remove(&nodes, id);
                        }
                    }
                    7 if step % 997 == 0 => {
                        // Clear, then reuse the same slots.
                        let slots = table.capacity();
                        table.clear();
                        model.clear();
                        assert_eq!(table.capacity(), slots);
                    }
                    _ => assert_eq!(lookup(&table, &nodes, id), model.get(&k).copied()),
                }
                assert_eq!(table.len(), model.len());
            }
            assert_well_formed(&table, &nodes);
            for id in 1..nodes.len() {
                let want = model.get(&key_of(&nodes[id])).copied();
                assert_eq!(lookup(&table, &nodes, id), want);
            }
        }
    }

    #[test]
    fn growth_from_empty_keeps_every_entry() {
        let mut rng = XorShift(7);
        let nodes = records(&mut rng, 1000);
        let mut table = Strash::default();
        assert_eq!(table.capacity(), 0);
        assert_eq!(lookup(&table, &nodes, 1), None);
        for id in 1..nodes.len() {
            table.insert(&nodes, id);
            assert!(2 * table.len() <= table.capacity());
        }
        assert_eq!(table.capacity(), 2048);
        assert_well_formed(&table, &nodes);
        for id in 1..nodes.len() {
            assert_eq!(lookup(&table, &nodes, id), Some(id));
        }
    }

    #[test]
    fn backward_shift_deletion_across_the_wrap_around() {
        // Three keys whose home is the last slot of a 16-slot table (the
        // second and third wrap to slots 0 and 1) and one homed at slot 0,
        // which lands behind them.  Removing the first must shift the run
        // back across the end of the table.
        let mut rng = XorShift(0xC0FFEE);
        let mut table = Strash::default();
        table.reserve(&[], 8);
        assert_eq!(table.capacity(), 16);
        let (mut last, mut first) = (Vec::new(), None);
        let mut seen = HashSet::new();
        while last.len() < 3 || first.is_none() {
            let (a, b) = (rng.lit(1 << 20), rng.lit(1 << 20));
            if !seen.insert(key(a, b)) {
                continue;
            }
            match table.home(key(a, b)) {
                15 if last.len() < 3 => last.push(Node::and(a, b, 1)),
                0 if first.is_none() => first = Some(Node::and(a, b, 1)),
                _ => {}
            }
        }
        let mut nodes = vec![Node::constant()];
        nodes.extend_from_slice(&last); // ids 1, 2, 3
        nodes.push(first.unwrap()); // id 4
        for id in 1..=4 {
            table.insert(&nodes, id);
        }
        assert_eq!((table.slots[15], &table.slots[..3]), (1, &[2, 3, 4][..]));

        table.remove(&nodes, 1);
        assert_eq!(
            (table.slots[15], &table.slots[..3]),
            (2, &[3, 4, EMPTY][..])
        );
        assert_well_formed(&table, &nodes);
        for id in 2..=4 {
            assert_eq!(lookup(&table, &nodes, id), Some(id));
        }
        assert_eq!(lookup(&table, &nodes, 1), None);

        // Once more across the end, and the key homed at slot 0 returns home.
        table.remove(&nodes, 2);
        assert_eq!((table.slots[15], &table.slots[..2]), (3, &[4, EMPTY][..]));
        assert_well_formed(&table, &nodes);
    }

    #[test]
    fn find_and_matches_a_linear_scan_on_random_cleaned_graphs() {
        let mut rng = XorShift(0x5EED_CAFE);
        for _ in 0..6 {
            let mut g = Aig::new();
            let mut lits: Vec<Lit> = g.add_inputs("x", 5);
            for _ in 0..120 {
                let a = lits[rng.below(lits.len())] ^ (rng.next() & 1 == 1);
                let b = lits[rng.below(lits.len())] ^ (rng.next() & 1 == 1);
                let l = g.and(a, b);
                if !l.is_const() {
                    lits.push(l);
                }
            }
            let n = lits.len();
            for k in 0..3 {
                g.add_output(format!("o{k}"), lits[n - 1 - k]);
            }
            let g = g.cleanup();
            assert_eq!(g.strash.len(), g.num_ands());
            let scan = |a: Lit, b: Lit| {
                g.and_ids()
                    .find(|&id| key_of(g.node(id)) == key(a, b))
                    .map(|id| Lit::from_node(id, false))
            };
            let mut probes = vec![Lit::FALSE, Lit::TRUE];
            probes.extend(
                g.node_ids()
                    .flat_map(|n| [Lit::from_node(n, false), Lit::from_node(n, true)]),
            );
            for &a in &probes {
                for &b in &probes {
                    let want = if a.is_const() || b.is_const() || a.node() == b.node() {
                        // Trivial rules answer before the table is consulted.
                        crate::graph::trivial_and(a, b)
                    } else {
                        scan(a, b)
                    };
                    assert_eq!(g.find_and(a, b), want, "find_and({a:?}, {b:?})");
                }
            }
        }
    }
}
