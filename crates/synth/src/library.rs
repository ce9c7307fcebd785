//! The synthetic standard-cell library.
//!
//! The paper maps the optimised networks with a 14 nm standard-cell library and
//! reports area (µm²) and delay (ps).  That library is proprietary, so this
//! module provides a synthetic one: a typical set of combinational cells with
//! area and delay values scaled to a 14 nm-like operating point.  Absolute
//! numbers differ from the paper's, but the mapper produces the same *relative*
//! area/delay trade-offs across synthesis flows, which is the signal the flow
//! classifier learns from.

use std::collections::HashMap;

use aig::TruthTable;

use crate::npn4::canonical4_padded;

/// One combinational standard cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Cell name, e.g. `NAND2_X1`.
    pub name: String,
    /// Cell area in µm².
    pub area: f64,
    /// Intrinsic pin-to-pin delay in ps.
    pub delay_ps: f64,
    /// Additional delay per fanout of the driven net, in ps.
    pub load_delay_ps: f64,
    /// Number of input pins.
    pub num_inputs: usize,
    /// The cell's logic function over its input pins.
    pub function: TruthTable,
}

/// Identifier of a cell within a [`CellLibrary`].
pub type CellId = usize;

/// A technology library: a set of cells indexed by the NPN class of their function.
#[derive(Debug, Clone)]
pub struct CellLibrary {
    name: String,
    cells: Vec<Cell>,
    /// Matching index keyed by the padded-to-4-variables NPN4 canonical form
    /// (see [`crate::npn4`]): NPN transforms preserve support size, so the
    /// padded grouping is the per-arity NPN grouping of full-support cells.
    npn4_index: HashMap<u16, Vec<CellId>>,
    inverter: CellId,
}

impl CellLibrary {
    /// Builds a library from a list of cells.
    ///
    /// # Panics
    ///
    /// Panics if the list does not contain an inverter (a 1-input cell whose
    /// function is the complement of its input), because technology mapping
    /// needs one.
    pub fn new(name: impl Into<String>, cells: Vec<Cell>) -> Self {
        let mut npn4_index: HashMap<u16, Vec<CellId>> = HashMap::new();
        let mut inverter = None;
        for (id, cell) in cells.iter().enumerate() {
            // The padded NPN4 index relies on a cell depending on all of its
            // pins (padding erases the declared arity).  A dead-pin cell can
            // never match anyway — queries are reduced to their support, so
            // their class always has full support while the cell's does not —
            // so leaving it out keeps the mapper bit-identical to the orbit
            // oracle without rejecting the library.
            if cell.function.support().len() == cell.num_inputs {
                npn4_index
                    .entry(canonical4_padded(&cell.function))
                    .or_default()
                    .push(id);
            }
            if cell.num_inputs == 1 && cell.function == TruthTable::var(0, 1).not() {
                inverter.get_or_insert(id);
            }
        }
        let inverter = inverter.expect("library must contain an inverter");
        CellLibrary {
            name: name.into(),
            cells,
            npn4_index,
            inverter,
        }
    }

    /// The built-in synthetic library scaled to a 14 nm-like operating point.
    pub fn nangate14() -> Self {
        Self::new("synthetic-14nm", standard_cells())
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Returns a cell by id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id]
    }

    /// The library inverter.
    pub fn inverter(&self) -> CellId {
        self.inverter
    }

    /// Returns the ids of cells whose function's padded NPN4 canonical form is
    /// `canon4` (see [`crate::npn4::canonical4_padded`]), in cell-id order.
    ///
    /// Matching is done on the NPN class, i.e. input permutation, input phase
    /// and output phase are considered free (see the crate documentation for
    /// the fidelity discussion).  The mapper reduces every cut function to its
    /// support before matching, and for such *full-support* queries the list
    /// is exactly the cells of the query's arity and NPN class — the orbit
    /// oracle [`crate::reference::matching_cells`].  A query with dead
    /// variables would additionally match cells of smaller arity here,
    /// because padding erases the declared variable count.
    pub fn matches_npn4(&self, canon4: u16) -> &[CellId] {
        self.npn4_index
            .get(&canon4)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of cells in the library.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the library has no cells (never true for built libraries).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Builds a truth table for an `n`-input function given as a row evaluator.
fn table(n: usize, f: impl Fn(usize) -> bool) -> TruthTable {
    let mut t = TruthTable::zeros(n);
    for row in 0..(1 << n) {
        if f(row) {
            t.set(row, true);
        }
    }
    t
}

fn bit(row: usize, i: usize) -> bool {
    row >> i & 1 == 1
}

/// The synthetic cell set: typical static CMOS cells with 14 nm-flavoured
/// area/delay figures (areas in µm², delays in ps).
fn standard_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    let mut push =
        |name: &str, area: f64, delay: f64, load: f64, n: usize, f: &dyn Fn(usize) -> bool| {
            cells.push(Cell {
                name: name.to_string(),
                area,
                delay_ps: delay,
                load_delay_ps: load,
                num_inputs: n,
                function: table(n, f),
            });
        };

    push("INV_X1", 0.117, 6.0, 1.2, 1, &|r| !bit(r, 0));
    push("BUF_X1", 0.156, 9.5, 1.0, 1, &|r| bit(r, 0));
    push("NAND2_X1", 0.156, 8.5, 1.4, 2, &|r| {
        !(bit(r, 0) && bit(r, 1))
    });
    push("NOR2_X1", 0.156, 10.0, 1.6, 2, &|r| {
        !(bit(r, 0) || bit(r, 1))
    });
    push("AND2_X1", 0.195, 11.0, 1.3, 2, &|r| bit(r, 0) && bit(r, 1));
    push("OR2_X1", 0.195, 12.0, 1.3, 2, &|r| bit(r, 0) || bit(r, 1));
    push("XOR2_X1", 0.273, 14.5, 1.8, 2, &|r| bit(r, 0) ^ bit(r, 1));
    push("XNOR2_X1", 0.273, 14.5, 1.8, 2, &|r| {
        !(bit(r, 0) ^ bit(r, 1))
    });
    push("NAND3_X1", 0.195, 10.5, 1.5, 3, &|r| {
        !(bit(r, 0) && bit(r, 1) && bit(r, 2))
    });
    push("NOR3_X1", 0.195, 13.0, 1.8, 3, &|r| {
        !(bit(r, 0) || bit(r, 1) || bit(r, 2))
    });
    push("AND3_X1", 0.234, 13.0, 1.4, 3, &|r| {
        bit(r, 0) && bit(r, 1) && bit(r, 2)
    });
    push("OR3_X1", 0.234, 14.0, 1.4, 3, &|r| {
        bit(r, 0) || bit(r, 1) || bit(r, 2)
    });
    push("NAND4_X1", 0.234, 12.5, 1.6, 4, &|r| {
        !(bit(r, 0) && bit(r, 1) && bit(r, 2) && bit(r, 3))
    });
    push("NOR4_X1", 0.234, 16.0, 2.0, 4, &|r| {
        !(bit(r, 0) || bit(r, 1) || bit(r, 2) || bit(r, 3))
    });
    push("AND4_X1", 0.273, 15.0, 1.5, 4, &|r| {
        bit(r, 0) && bit(r, 1) && bit(r, 2) && bit(r, 3)
    });
    push("OR4_X1", 0.273, 16.0, 1.5, 4, &|r| {
        bit(r, 0) || bit(r, 1) || bit(r, 2) || bit(r, 3)
    });
    push("AOI21_X1", 0.195, 10.0, 1.5, 3, &|r| {
        !((bit(r, 0) && bit(r, 1)) || bit(r, 2))
    });
    push("OAI21_X1", 0.195, 10.0, 1.5, 3, &|r| {
        !((bit(r, 0) || bit(r, 1)) && bit(r, 2))
    });
    push("AOI22_X1", 0.234, 12.0, 1.7, 4, &|r| {
        !((bit(r, 0) && bit(r, 1)) || (bit(r, 2) && bit(r, 3)))
    });
    push("OAI22_X1", 0.234, 12.0, 1.7, 4, &|r| {
        !((bit(r, 0) || bit(r, 1)) && (bit(r, 2) || bit(r, 3)))
    });
    push("MUX2_X1", 0.273, 13.5, 1.6, 3, &|r| {
        if bit(r, 2) {
            bit(r, 1)
        } else {
            bit(r, 0)
        }
    });
    push("MAJ3_X1", 0.273, 14.0, 1.7, 3, &|r| {
        (bit(r, 0) as u8 + bit(r, 1) as u8 + bit(r, 2) as u8) >= 2
    });
    push("XOR3_X1", 0.390, 20.0, 2.2, 3, &|r| {
        bit(r, 0) ^ bit(r, 1) ^ bit(r, 2)
    });
    push("AOI211_X1", 0.234, 13.0, 1.8, 4, &|r| {
        !((bit(r, 0) && bit(r, 1)) || bit(r, 2) || bit(r, 3))
    });
    push("OAI211_X1", 0.234, 13.0, 1.8, 4, &|r| {
        !((bit(r, 0) || bit(r, 1)) && bit(r, 2) && bit(r, 3))
    });
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{cell_classes, matching_cells};

    /// The cells matching a full-support function.
    fn matches<'l>(lib: &'l CellLibrary, f: &TruthTable) -> &'l [CellId] {
        lib.matches_npn4(canonical4_padded(f))
    }

    #[test]
    fn builtin_library_is_well_formed() {
        let lib = CellLibrary::nangate14();
        assert!(
            lib.len() >= 20,
            "a usable library needs a reasonable cell set"
        );
        assert!(!lib.is_empty());
        assert_eq!(lib.cell(lib.inverter()).num_inputs, 1);
        for cell in lib.cells() {
            assert!(cell.area > 0.0, "{}", cell.name);
            assert!(cell.delay_ps > 0.0, "{}", cell.name);
            assert_eq!(cell.function.num_vars(), cell.num_inputs, "{}", cell.name);
        }
    }

    #[test]
    fn and_like_functions_match_nand() {
        let lib = CellLibrary::nangate14();
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let f = a.and(&b);
        let matches = matches(&lib, &f);
        assert!(!matches.is_empty());
        let names: Vec<&str> = matches
            .iter()
            .map(|&id| lib.cell(id).name.as_str())
            .collect();
        assert!(
            names.iter().any(|n| n.contains("AND2")
                || n.contains("NAND2")
                || n.contains("NOR2")
                || n.contains("OR2")),
            "AND-class match expected, got {names:?}"
        );
    }

    #[test]
    fn xor_matches_only_xor_cells() {
        let lib = CellLibrary::nangate14();
        let a = TruthTable::var(0, 2);
        let b = TruthTable::var(1, 2);
        let matches = matches(&lib, &a.xor(&b));
        let names: Vec<&str> = matches
            .iter()
            .map(|&id| lib.cell(id).name.as_str())
            .collect();
        assert!(!names.is_empty());
        assert!(
            names
                .iter()
                .all(|n| n.contains("XOR") || n.contains("XNOR")),
            "{names:?}"
        );
    }

    #[test]
    fn majority_and_mux_are_available() {
        let lib = CellLibrary::nangate14();
        let a = TruthTable::var(0, 3);
        let b = TruthTable::var(1, 3);
        let c = TruthTable::var(2, 3);
        let maj = a.and(&b).or(&a.and(&c)).or(&b.and(&c));
        assert!(!matches(&lib, &maj).is_empty());
        let mux = c.and(&b).or(&c.not().and(&a));
        assert!(!matches(&lib, &mux).is_empty());
    }

    #[test]
    fn unmatched_function_returns_empty() {
        let lib = CellLibrary::nangate14();
        // A 4-input function unlikely to be in the library: parity of 4 inputs.
        let mut parity = TruthTable::zeros(4);
        for row in 0..16usize {
            if row.count_ones() % 2 == 1 {
                parity.set(row, true);
            }
        }
        assert!(matches(&lib, &parity).is_empty());
    }

    #[test]
    fn dead_pin_cell_is_accepted_and_never_fast_matched() {
        // A cell whose function ignores a declared pin must not panic at
        // construction, and must stay invisible to the matcher (the oracle
        // can never match it either: queries are reduced to their support
        // first).
        let inv = Cell {
            name: "INV".into(),
            area: 1.0,
            delay_ps: 1.0,
            load_delay_ps: 0.1,
            num_inputs: 1,
            function: TruthTable::var(0, 1).not(),
        };
        let dead_pin = Cell {
            name: "BUF_DEADPIN".into(),
            area: 1.0,
            delay_ps: 1.0,
            load_delay_ps: 0.1,
            num_inputs: 2,
            function: TruthTable::var(0, 2),
        };
        let lib = CellLibrary::new("deadpin", vec![inv, dead_pin]);
        // A full-support 1-var query matches only the inverter family, and a
        // full-support 2-var query matches nothing — as in the orbit oracle.
        let classes = cell_classes(&lib);
        let buf1 = TruthTable::var(0, 1);
        assert_eq!(matches(&lib, &buf1), [0]);
        assert_eq!(matching_cells(&classes, &buf1), [0]);
        let and2 = TruthTable::var(0, 2).and(&TruthTable::var(1, 2));
        assert!(matches(&lib, &and2).is_empty());
        assert!(matching_cells(&classes, &and2).is_empty());
    }

    #[test]
    fn inverter_sized_correctly() {
        let lib = CellLibrary::nangate14();
        let inv = lib.cell(lib.inverter());
        assert!(inv.area <= lib.cells().iter().map(|c| c.area).fold(f64::MAX, f64::min) + 1e-9);
    }
}
