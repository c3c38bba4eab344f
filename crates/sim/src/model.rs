//! Compilation of a netlist into an executable model.

use std::sync::Arc;

use ssr_netlist::topo::eval_order;
use ssr_netlist::{CellId, CellKind, NetDriver, NetId, Netlist, NetlistError, RegKind};

/// A netlist together with the derived information both simulators need:
/// a topological evaluation order for the combinational cells, the list
/// of state cells and the constant nets, plus the fan-out and register
/// tables the demand planner steps with.
///
/// The model *owns* its netlist behind an [`Arc`], so one compiled model —
/// validation and topological sort included — can be shared immutably
/// across every check (and, via `Arc` cloning, across campaign jobs and
/// worker threads) instead of being recompiled per assertion.
///
/// This is the workspace's counterpart of the paper's "FSM compiled from the
/// BLIF model with `exlif2exe`".
#[derive(Debug, Clone)]
pub struct CompiledModel {
    netlist: Arc<Netlist>,
    comb_order: Vec<CellId>,
    state_cells: Vec<CellId>,
    /// The constant nets with their values, in net order.
    constants: Vec<(NetId, bool)>,
    /// Net `n` is read by the gates at `comb_order` positions
    /// `readers[reader_start[n]..reader_start[n + 1]]`, in increasing order.
    reader_start: Vec<u32>,
    readers: Vec<u32>,
    /// Per net, the `comb_order` position of the gate driving it, or
    /// [`NO_GATE`].
    gate_of: Vec<u32>,
    /// The state cells, in the same order, flattened.
    registers: Vec<Register>,
}

/// [`CompiledModel::gate_of`] for a net no gate drives.
const NO_GATE: u32 = u32::MAX;

/// A register cell's kind and nets, flattened out of its
/// [`ssr_netlist::Cell`] for the planner's step loops.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Register {
    pub(crate) kind: RegKind,
    /// The output.
    pub(crate) q: NetId,
    pub(crate) d: NetId,
    pub(crate) clk: NetId,
    /// The controls, where the kind has them.
    pub(crate) nrst: Option<NetId>,
    pub(crate) nret: Option<NetId>,
}

impl CompiledModel {
    /// Compiles `netlist`, validating it and computing the evaluation order.
    /// The netlist is cloned into the model; use [`CompiledModel::from_arc`]
    /// to share an already-`Arc`ed netlist without the copy.
    ///
    /// # Errors
    /// Returns a validation error or [`NetlistError::CombinationalLoop`] if
    /// the combinational logic is cyclic.
    pub fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        Self::from_arc(Arc::new(netlist.clone()))
    }

    /// Compiles a shared netlist without copying it.
    ///
    /// # Errors
    /// Returns a validation error or [`NetlistError::CombinationalLoop`] if
    /// the combinational logic is cyclic.
    pub fn from_arc(netlist: Arc<Netlist>) -> Result<Self, NetlistError> {
        netlist.validate()?;
        let comb_order = eval_order(&netlist)?;
        let state_cells: Vec<CellId> = netlist.state_cells().map(|(id, _)| id).collect();
        let constants = netlist
            .nets()
            .filter_map(|(id, net)| match net.driver {
                NetDriver::Constant(value) => Some((id, value)),
                _ => None,
            })
            .collect();
        let registers = state_cells
            .iter()
            .map(|&id| {
                let cell = netlist.cell(id);
                let CellKind::Reg(kind) = cell.kind else {
                    unreachable!("state_cells only holds registers")
                };
                Register {
                    kind,
                    q: cell.output,
                    d: cell.reg_data(),
                    clk: cell.reg_clock(),
                    nrst: cell.reg_nrst(),
                    nret: cell.reg_nret(),
                }
            })
            .collect();
        // The fan-out tables, in one counting pass and one fill pass over
        // the gates in evaluation order.
        let nets = netlist.net_count();
        let mut gate_of = vec![NO_GATE; nets];
        let mut reader_start = vec![0u32; nets + 1];
        for (position, &id) in comb_order.iter().enumerate() {
            let cell = netlist.cell(id);
            gate_of[cell.output.index()] = position as u32;
            for input in cell.inputs {
                reader_start[input.index() + 1] += 1;
            }
        }
        for n in 0..nets {
            reader_start[n + 1] += reader_start[n];
        }
        let mut fill = reader_start.clone();
        let mut readers = vec![0u32; reader_start[nets] as usize];
        for (position, &id) in comb_order.iter().enumerate() {
            for input in netlist.cell(id).inputs {
                let slot = &mut fill[input.index()];
                readers[*slot as usize] = position as u32;
                *slot += 1;
            }
        }
        Ok(CompiledModel {
            netlist,
            comb_order,
            state_cells,
            constants,
            reader_start,
            readers,
            gate_of,
            registers,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Combinational cells in evaluation order.
    pub fn comb_order(&self) -> &[CellId] {
        &self.comb_order
    }

    /// The state (register) cells, in netlist declaration order.  The index
    /// of a cell in this slice is its *state index*, used by the simulators
    /// for the per-register clock shadows.
    pub fn state_cells(&self) -> &[CellId] {
        &self.state_cells
    }

    /// Number of state bits (registers).
    pub fn state_bits(&self) -> usize {
        self.state_cells.len()
    }

    /// The nets driven by a constant, with their values, in net order.
    pub(crate) fn constants(&self) -> &[(NetId, bool)] {
        &self.constants
    }

    /// The `comb_order` positions of the gates that read `net`, in
    /// increasing order (a gate reading a net twice is listed twice).
    pub(crate) fn readers(&self, net: NetId) -> &[u32] {
        let n = net.index();
        &self.readers[self.reader_start[n] as usize..self.reader_start[n + 1] as usize]
    }

    /// The `comb_order` position of the gate driving `net`, if a gate does.
    pub(crate) fn gate_of(&self, net: NetId) -> Option<usize> {
        let position = self.gate_of[net.index()];
        (position != NO_GATE).then_some(position as usize)
    }

    /// The registers of [`CompiledModel::state_cells`], in the same order.
    pub(crate) fn registers(&self) -> &[Register] {
        &self.registers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_netlist::builder::NetlistBuilder;
    use ssr_netlist::RegKind;

    #[test]
    fn compiles_and_exposes_structure() {
        let mut b = NetlistBuilder::new("t");
        let clk = b.input("clk");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and("x", a, c);
        let y = b.or("y", x, a);
        let q = b.reg("q", RegKind::Simple, y, clk, None, None);
        b.mark_output(q);
        let n = b.finish().expect("valid");
        let model = CompiledModel::new(&n).expect("compiles");
        assert_eq!(model.state_bits(), 1);
        assert_eq!(model.comb_order().len(), 2);
        assert_eq!(model.netlist().name(), "t");
    }
}
