//! The [`Netlist`] container: nets, cells and primary I/O, stored as flat
//! arrays.
//!
//! A netlist owns a handful of arrays, not one allocation per net or cell:
//! every net name lives in one string arena, every cell input in one
//! [`NetId`] array, and [`Netlist::find_net`] is answered by a hash index
//! of net ids that compares against the arena.  [`Netlist::net`] and
//! [`Netlist::cell`] return borrowed views ([`Net`], [`Cell`]) into it.

use std::fmt::{self, Write as _};

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

/// A named signal: a view of one net of a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Net<'a> {
    /// Hierarchical name, e.g. `"IFR_Instr[31]"` or `"regfile/r4[7]"`.
    pub name: &'a str,
    /// The driver of this net.
    pub driver: NetDriver,
}

/// [`Netlist`]'s name index: a vacant slot.
const VACANT: u32 = u32::MAX;

/// A flat gate-level netlist.
///
/// Construct through [`crate::builder::NetlistBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    name: String,
    /// Every net name, back to back: net `n`'s is
    /// `names[name_start[n]..name_start[n + 1]]`.
    names: String,
    name_start: Vec<u32>,
    /// Per net, its driver.
    drivers: Vec<NetDriver>,
    /// Per cell, its kind and output.
    kinds: Vec<CellKind>,
    cell_outputs: Vec<NetId>,
    /// Every cell input, back to back: cell `c`'s are
    /// `cell_inputs[input_start[c]..input_start[c + 1]]`.
    input_start: Vec<u32>,
    cell_inputs: Vec<NetId>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    /// Open-addressing hash set of net ids keyed by their names in the
    /// arena (linear probing, a power-of-two length, at most 3/4 full).
    index: Vec<u32>,
}

impl Netlist {
    /// An empty netlist called `name`.
    pub(crate) fn new(name: String) -> Self {
        Netlist {
            name,
            names: String::new(),
            name_start: vec![0],
            drivers: Vec::new(),
            kinds: Vec::new(),
            cell_outputs: Vec::new(),
            input_start: vec![0],
            cell_inputs: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            index: vec![VACANT; 8],
        }
    }

    /// Adds a net called `name` (formatted straight into the arena) with
    /// `driver`, or returns `Err` with the net that already has the name,
    /// leaving the netlist unchanged.
    pub(crate) fn add_net(
        &mut self,
        name: impl fmt::Display,
        driver: NetDriver,
    ) -> Result<NetId, NetId> {
        if (self.drivers.len() + 1) * 4 > self.index.len() * 3 {
            self.grow_index();
        }
        let start = self.names.len();
        write!(self.names, "{name}").expect("formatting into a String cannot fail");
        let slot = self.slot_of(&self.names[start..]);
        if self.index[slot] != VACANT {
            self.names.truncate(start);
            return Err(NetId(self.index[slot]));
        }
        let id = NetId(index_u32(self.drivers.len()));
        self.index[slot] = id.0;
        self.name_start.push(index_u32(self.names.len()));
        self.drivers.push(driver);
        Ok(id)
    }

    /// Adds a cell; it becomes its output's driver.
    pub(crate) fn add_cell(&mut self, kind: CellKind, inputs: &[NetId], output: NetId) -> CellId {
        let id = CellId(index_u32(self.kinds.len()));
        self.kinds.push(kind);
        self.cell_outputs.push(output);
        self.cell_inputs.extend_from_slice(inputs);
        self.input_start.push(index_u32(self.cell_inputs.len()));
        self.drivers[output.index()] = NetDriver::Cell(id);
        id
    }

    /// Replaces input `position` of `cell`.
    pub(crate) fn set_cell_input(&mut self, cell: CellId, position: usize, net: NetId) {
        self.cell_inputs[self.input_start[cell.index()] as usize + position] = net;
    }

    /// Marks `net` as a primary input.
    pub(crate) fn push_input(&mut self, net: NetId) {
        self.inputs.push(net);
    }

    /// Marks `net` as a primary output.
    pub(crate) fn push_output(&mut self, net: NetId) {
        self.outputs.push(net);
    }

    /// Gives back the arrays' spare capacity once construction is over.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.names.shrink_to_fit();
        self.name_start.shrink_to_fit();
        self.drivers.shrink_to_fit();
        self.kinds.shrink_to_fit();
        self.cell_outputs.shrink_to_fit();
        self.input_start.shrink_to_fit();
        self.cell_inputs.shrink_to_fit();
        self.inputs.shrink_to_fit();
        self.outputs.shrink_to_fit();
    }

    /// Builds a netlist from views, as they are, without validating it.
    #[cfg(test)]
    pub(crate) fn from_views(
        name: &str,
        nets: &[Net<'_>],
        cells: &[Cell<'_>],
        inputs: &[NetId],
        outputs: &[NetId],
    ) -> Self {
        let mut netlist = Netlist::new(name.to_owned());
        for net in nets {
            netlist.add_net(net.name, net.driver).expect("unique names");
        }
        for cell in cells {
            netlist.kinds.push(cell.kind);
            netlist.cell_outputs.push(cell.output);
            netlist.cell_inputs.extend_from_slice(cell.inputs);
            netlist.input_start.push(netlist.cell_inputs.len() as u32);
        }
        netlist.inputs = inputs.to_vec();
        netlist.outputs = outputs.to_vec();
        netlist
    }

    /// The name of net `id`.
    fn net_name(&self, id: u32) -> &str {
        let id = id as usize;
        &self.names[self.name_start[id] as usize..self.name_start[id + 1] as usize]
    }

    /// The index slot of `name`: the one holding its net, or the vacant
    /// slot where it would go.
    fn slot_of(&self, name: &str) -> usize {
        let mask = self.index.len() - 1;
        let mut slot = name_hash(name) as usize & mask;
        loop {
            let id = self.index[slot];
            if id == VACANT || self.net_name(id) == name {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the index and re-inserts every net.
    fn grow_index(&mut self) {
        self.index = vec![VACANT; self.index.len() * 2];
        for id in 0..self.drivers.len() as u32 {
            let slot = self.slot_of(self.net_name(id));
            self.index[slot] = id;
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.drivers.len()
    }

    /// Number of cells (gates and registers).
    pub fn cell_count(&self) -> usize {
        self.kinds.len()
    }

    /// The net with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn net(&self, id: NetId) -> Net<'_> {
        Net {
            name: self.net_name(id.0),
            driver: self.drivers[id.index()],
        }
    }

    /// The cell with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn cell(&self, id: CellId) -> Cell<'_> {
        let c = id.index();
        Cell {
            kind: self.kinds[c],
            inputs: &self.cell_inputs
                [self.input_start[c] as usize..self.input_start[c + 1] as usize],
            output: self.cell_outputs[c],
        }
    }

    /// Looks a net up by exact name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        let id = self.index[self.slot_of(name)];
        (id != VACANT).then_some(NetId(id))
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
    pub fn nets(&self) -> impl Iterator<Item = (NetId, Net<'_>)> {
        let names = self
            .name_start
            .windows(2)
            .map(|w| &self.names[w[0] as usize..w[1] as usize]);
        (0..)
            .zip(names.zip(&self.drivers))
            .map(|(i, (name, &driver))| (NetId(i), Net { name, driver }))
    }

    /// Iterates over all cells with their ids.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, Cell<'_>)> {
        let inputs = self
            .input_start
            .windows(2)
            .map(|w| &self.cell_inputs[w[0] as usize..w[1] as usize]);
        let parts = self.kinds.iter().zip(inputs).zip(&self.cell_outputs);
        (0..).zip(parts).map(|(i, ((&kind, inputs), &output))| {
            let cell = Cell {
                kind,
                inputs,
                output,
            };
            (CellId(i), cell)
        })
    }

    /// Iterates over the state cells (registers) only.
    pub fn state_cells(&self) -> impl Iterator<Item = (CellId, Cell<'_>)> {
        self.cells().filter(|(_, c)| c.kind.is_state())
    }

    /// Iterates over the combinational cells only.
    pub fn comb_cells(&self) -> impl Iterator<Item = (CellId, Cell<'_>)> {
        self.cells().filter(|(_, c)| !c.kind.is_state())
    }

    /// The bits of the named word `name[0]`, `name[1]`, ..., LSB first.
    /// Returns an empty vector if no bits are found.
    pub fn word(&self, name: &str) -> Vec<NetId> {
        let mut bits = Vec::new();
        let mut key = String::new();
        loop {
            key.clear();
            write!(key, "{name}[{}]", bits.len()).expect("formatting into a String cannot fail");
            match self.find_net(&key) {
                Some(id) => bits.push(id),
                None => return bits,
            }
        }
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
                    cell: self.net(cell.output).name.to_owned(),
                    expected,
                    found: cell.inputs.len(),
                });
            }
        }
        // Single-driver check.
        let mut from_cells = vec![0u32; self.net_count()];
        for &output in &self.cell_outputs {
            from_cells[output.index()] += 1;
        }
        for (id, &count) in from_cells.iter().enumerate() {
            let driver = self.drivers[id];
            let declared = matches!(driver, NetDriver::Input | NetDriver::Constant(_)) as u32;
            if count + declared > 1 {
                return Err(NetlistError::MultipleDrivers(
                    self.net_name(id as u32).to_owned(),
                ));
            }
        }
        // Every net used as a cell input or primary output must be driven.
        for &id in self.outputs.iter().chain(&self.cell_inputs) {
            if matches!(self.drivers[id.index()], NetDriver::Undriven) {
                return Err(NetlistError::Undriven(self.net_name(id.0).to_owned()));
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

/// An id or arena offset as stored; the arrays index with `u32`.
fn index_u32(n: usize) -> u32 {
    u32::try_from(n).expect("a netlist holds fewer than 2^32 nets, cells, inputs and name bytes")
}

/// FNV-1a over the name's bytes, finished with a multiplicative mix so
/// that the low bits the index masks out depend on every byte.  A fixed
/// hash is safe here: every name comes from a generator in this program,
/// none from outside it.
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in name.as_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    (h ^ (h >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16
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
