//! The [`Netlist`] container: nets, cells and primary I/O.

use std::collections::HashMap;

use crate::cell::{Cell, CellId, CellKind};
use crate::error::NetlistError;

/// Identifier of a [`Net`] within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Raw index of the net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDriver {
    /// Primary input — driven by the environment / STE antecedent.
    Input,
    /// Constant 0 or 1.
    Constant(bool),
    /// Output of the given cell.
    Cell(CellId),
    /// Declared but not (yet) driven.  Validation rejects these unless the
    /// net is completely unused.
    Undriven,
}

/// A named signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Hierarchical name, e.g. `"IFR_Instr[31]"` or `"regfile/r4[7]"`.
    pub name: String,
    /// The driver of this net.
    pub driver: NetDriver,
}

/// A flat gate-level netlist.
///
/// Construct through [`crate::builder::NetlistBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    cells: Vec<Cell>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    by_name: HashMap<String, NetId>,
}

impl Netlist {
    pub(crate) fn new_raw(
        name: String,
        nets: Vec<Net>,
        cells: Vec<Cell>,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
        by_name: HashMap<String, NetId>,
    ) -> Self {
        Netlist {
            name,
            nets,
            cells,
            inputs,
            outputs,
            by_name,
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of cells (gates and registers).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The net with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The cell with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Looks a net up by exact name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Iterates over all nets with their ids.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Iterates over all cells with their ids.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Iterates over the state cells (registers) only.
    pub fn state_cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells().filter(|(_, c)| c.kind.is_state())
    }

    /// Iterates over the combinational cells only.
    pub fn comb_cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells().filter(|(_, c)| !c.kind.is_state())
    }

    /// The bits of the named word `name[0]`, `name[1]`, ..., LSB first.
    /// Returns an empty vector if no bits are found.
    pub fn word(&self, name: &str) -> Vec<NetId> {
        let mut bits = Vec::new();
        for i in 0.. {
            match self.find_net(&format!("{name}[{i}]")) {
                Some(id) => bits.push(id),
                None => break,
            }
        }
        bits
    }

    /// Validates structural invariants: every cell has the right arity,
    /// every used net is driven, no net has two drivers (the builder
    /// guarantees these by construction; this re-checks them).
    ///
    /// # Errors
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        // Arity check.
        for (_, cell) in self.cells() {
            let expected = cell.kind.arity();
            if cell.inputs.len() != expected {
                return Err(NetlistError::ArityMismatch {
                    cell: self.net(cell.output).name.clone(),
                    expected,
                    found: cell.inputs.len(),
                });
            }
        }
        // Single-driver check.
        let mut from_cells = vec![0u32; self.nets.len()];
        for (_, cell) in self.cells() {
            from_cells[cell.output.index()] += 1;
        }
        for (net, &count) in self.nets.iter().zip(&from_cells) {
            let declared = matches!(net.driver, NetDriver::Input | NetDriver::Constant(_)) as u32;
            if count + declared > 1 {
                return Err(NetlistError::MultipleDrivers(net.name.clone()));
            }
        }
        // Every net used as a cell input or primary output must be driven.
        let used = self
            .outputs
            .iter()
            .chain(self.cells.iter().flat_map(|c| &c.inputs));
        for &id in used {
            let net = self.net(id);
            if matches!(net.driver, NetDriver::Undriven) {
                return Err(NetlistError::Undriven(net.name.clone()));
            }
        }
        Ok(())
    }

    /// Returns the ids of all retention registers.
    pub fn retention_cells(&self) -> Vec<CellId> {
        self.state_cells()
            .filter(|(_, c)| match c.kind {
                CellKind::Reg(k) => k.is_retention(),
                _ => false,
            })
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::cell::RegKind;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let clk = b.input("clk");
        let x = b.and("x", a, c);
        let q = b.reg("q", RegKind::Simple, x, clk, None, None);
        b.mark_output(q);
        b.finish().expect("valid")
    }

    #[test]
    fn basic_queries() {
        let n = tiny();
        assert_eq!(n.name(), "tiny");
        assert_eq!(n.inputs().len(), 3);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.state_cells().count(), 1);
        assert_eq!(n.comb_cells().count(), 1);
        assert!(n.find_net("x").is_some());
        assert!(n.find_net("nope").is_none());
        assert_eq!(n.retention_cells().len(), 0);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn words_and_prefix_lookup() {
        let mut b = NetlistBuilder::new("w");
        let w = b.word_input("data", 4);
        for &bit in &w {
            b.mark_output(bit);
        }
        let n = b.finish().expect("valid");
        let bits = n.word("data");
        assert_eq!(bits.len(), 4);
        assert_eq!(n.net(bits[0]).name, "data[0]");
        assert_eq!(n.net(bits[3]).name, "data[3]");
        assert!(n.word("missing").is_empty());
    }
}
