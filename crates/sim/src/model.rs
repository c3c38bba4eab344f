//! Compilation of a netlist into an executable model.

use std::sync::Arc;

use ssr_netlist::topo::{eval_order, EvalOrder};
use ssr_netlist::{CellId, Netlist, NetlistError};

/// A netlist together with the derived information both simulators need:
/// a topological evaluation order for the combinational cells and the list
/// of state cells.
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
    order: EvalOrder,
    state_cells: Vec<CellId>,
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
        let order = eval_order(&netlist)?;
        let state_cells = netlist.state_cells().map(|(id, _)| id).collect();
        Ok(CompiledModel {
            netlist,
            order,
            state_cells,
        })
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Combinational cells in evaluation order.
    pub fn comb_order(&self) -> &[CellId] {
        &self.order.comb_cells
    }

    /// Longest combinational path, in gates.
    pub fn logic_depth(&self) -> usize {
        self.order.depth
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
        assert_eq!(model.logic_depth(), 2);
        assert_eq!(model.netlist().name(), "t");
    }
}
