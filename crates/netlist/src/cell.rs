//! Cells: combinational gates and state elements.

use std::fmt;

use crate::netlist::NetId;

/// Identifier of a [`Cell`] within its [`crate::Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// Raw index of the cell.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Combinational gate operators.
///
/// `And`/`Or`/`Xor`/`Nand`/`Nor`/`Xnor` are binary, `Not`/`Buf` unary and
/// `Mux` ternary with input order `[sel, then, else]` (output = `then` when
/// `sel` is 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateOp {
    /// Identity.
    Buf,
    /// Inverter.
    Not,
    /// 2-input AND.
    And,
    /// 2-input OR.
    Or,
    /// 2-input XOR.
    Xor,
    /// 2-input NAND.
    Nand,
    /// 2-input NOR.
    Nor,
    /// 2-input XNOR.
    Xnor,
    /// 2-to-1 multiplexer, inputs `[sel, then, else]`.
    Mux,
}

impl GateOp {
    /// Number of inputs the gate expects.
    pub fn arity(self) -> usize {
        match self {
            GateOp::Buf | GateOp::Not => 1,
            GateOp::Mux => 3,
            _ => 2,
        }
    }

    /// Evaluates the gate over Booleans (used by the concrete simulator).
    ///
    /// # Panics
    /// Panics if `inputs.len() != self.arity()`.
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.arity(), "gate arity mismatch");
        match self {
            GateOp::Buf => inputs[0],
            GateOp::Not => !inputs[0],
            GateOp::And => inputs[0] && inputs[1],
            GateOp::Or => inputs[0] || inputs[1],
            GateOp::Xor => inputs[0] ^ inputs[1],
            GateOp::Nand => !(inputs[0] && inputs[1]),
            GateOp::Nor => !(inputs[0] || inputs[1]),
            GateOp::Xnor => !(inputs[0] ^ inputs[1]),
            GateOp::Mux => {
                if inputs[0] {
                    inputs[1]
                } else {
                    inputs[2]
                }
            }
        }
    }

    /// All gate operators (useful for exhaustive tests).
    pub const ALL: [GateOp; 9] = [
        GateOp::Buf,
        GateOp::Not,
        GateOp::And,
        GateOp::Or,
        GateOp::Xor,
        GateOp::Nand,
        GateOp::Nor,
        GateOp::Xnor,
        GateOp::Mux,
    ];
}

impl fmt::Display for GateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateOp::Buf => "buf",
            GateOp::Not => "not",
            GateOp::And => "and",
            GateOp::Or => "or",
            GateOp::Xor => "xor",
            GateOp::Nand => "nand",
            GateOp::Nor => "nor",
            GateOp::Xnor => "xnor",
            GateOp::Mux => "mux",
        };
        f.write_str(s)
    }
}

/// The flavour of a state cell.
///
/// All registers are rising-edge triggered on their clock input.  The input
/// order of a register cell is `[d, clk, nrst?, nret?]` — the optional
/// controls are present exactly when the kind requires them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegKind {
    /// Plain D flip-flop, no reset, no retention.  Inputs `[d, clk]`.
    Simple,
    /// D flip-flop with asynchronous active-low reset `NRST`.
    /// Inputs `[d, clk, nrst]`.
    AsyncReset {
        /// Value loaded while `NRST` is asserted (low).
        reset_value: bool,
    },
    /// The paper's emulated retention register (Figure 1): asynchronous
    /// active-low reset `NRST` plus active-low retention control `NRET`.
    /// When `NRET` is low the register holds its state and ignores both the
    /// clock and the reset (retention has priority over reset).
    /// Inputs `[d, clk, nrst, nret]`.
    Retention {
        /// Value loaded while `NRST` is asserted (low) in sample mode.
        reset_value: bool,
    },
}

impl RegKind {
    /// Number of inputs of a register of this kind (`d` and `clk` plus the
    /// control signals).
    pub fn arity(self) -> usize {
        match self {
            RegKind::Simple => 2,
            RegKind::AsyncReset { .. } => 3,
            RegKind::Retention { .. } => 4,
        }
    }

    /// `true` if the register keeps its value through a power-down sequence
    /// (i.e. is a retention register).
    pub fn is_retention(self) -> bool {
        matches!(self, RegKind::Retention { .. })
    }

    /// The reset value, if the register has a reset.
    pub fn reset_value(self) -> Option<bool> {
        match self {
            RegKind::Simple => None,
            RegKind::AsyncReset { reset_value } | RegKind::Retention { reset_value } => {
                Some(reset_value)
            }
        }
    }
}

/// What a cell computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// A combinational gate.
    Gate(GateOp),
    /// A state element.
    Reg(RegKind),
}

impl CellKind {
    /// `true` for state elements.
    pub fn is_state(self) -> bool {
        matches!(self, CellKind::Reg(_))
    }

    /// Expected number of inputs.
    pub fn arity(self) -> usize {
        match self {
            CellKind::Gate(g) => g.arity(),
            CellKind::Reg(r) => r.arity(),
        }
    }
}

/// A cell instance, viewed in its [`crate::Netlist`]: a gate or register
/// with its input nets and output net.  A cell has no name of its own;
/// diagnostics name its output net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell<'a> {
    /// What the cell computes.
    pub kind: CellKind,
    /// Input nets in the order required by [`CellKind::arity`].
    pub inputs: &'a [NetId],
    /// The single output net.
    pub output: NetId,
}

impl Cell<'_> {
    /// The data input of a register cell.
    ///
    /// # Panics
    /// Panics if the cell is not a register.
    pub fn reg_data(&self) -> NetId {
        assert!(self.kind.is_state(), "not a register cell");
        self.inputs[0]
    }

    /// The clock input of a register cell.
    ///
    /// # Panics
    /// Panics if the cell is not a register.
    pub fn reg_clock(&self) -> NetId {
        assert!(self.kind.is_state(), "not a register cell");
        self.inputs[1]
    }

    /// The active-low reset input of a register cell, if present.
    pub fn reg_nrst(&self) -> Option<NetId> {
        match self.kind {
            CellKind::Reg(RegKind::AsyncReset { .. })
            | CellKind::Reg(RegKind::Retention { .. }) => Some(self.inputs[2]),
            _ => None,
        }
    }

    /// The active-low retention control input, if present.
    pub fn reg_nret(&self) -> Option<NetId> {
        match self.kind {
            CellKind::Reg(RegKind::Retention { .. }) => Some(self.inputs[3]),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_arities_and_eval() {
        assert_eq!(GateOp::Not.arity(), 1);
        assert_eq!(GateOp::And.arity(), 2);
        assert_eq!(GateOp::Mux.arity(), 3);
        assert!(GateOp::And.eval(&[true, true]));
        assert!(!GateOp::And.eval(&[true, false]));
        assert!(GateOp::Nand.eval(&[true, false]));
        assert!(GateOp::Xor.eval(&[true, false]));
        assert!(GateOp::Xnor.eval(&[true, true]));
        assert!(GateOp::Mux.eval(&[true, true, false]));
        assert!(!GateOp::Mux.eval(&[false, true, false]));
        assert!(GateOp::Not.eval(&[false]));
        assert!(GateOp::Buf.eval(&[true]));
        assert!(GateOp::Or.eval(&[false, true]));
        assert!(!GateOp::Nor.eval(&[false, true]));
    }

    #[test]
    #[should_panic(expected = "gate arity mismatch")]
    fn gate_eval_checks_arity() {
        GateOp::And.eval(&[true]);
    }

    #[test]
    fn reg_kind_properties() {
        assert_eq!(RegKind::Simple.arity(), 2);
        assert_eq!(RegKind::AsyncReset { reset_value: false }.arity(), 3);
        assert_eq!(RegKind::Retention { reset_value: true }.arity(), 4);
        assert!(RegKind::Retention { reset_value: false }.is_retention());
        assert!(!RegKind::Simple.is_retention());
        assert_eq!(RegKind::Simple.reset_value(), None);
        assert_eq!(
            RegKind::AsyncReset { reset_value: true }.reset_value(),
            Some(true)
        );
    }

    #[test]
    fn cell_accessors() {
        let cell = Cell {
            kind: CellKind::Reg(RegKind::Retention { reset_value: false }),
            inputs: &[NetId(10), NetId(11), NetId(12), NetId(13)],
            output: NetId(14),
        };
        assert_eq!(cell.reg_data(), NetId(10));
        assert_eq!(cell.reg_clock(), NetId(11));
        assert_eq!(cell.reg_nrst(), Some(NetId(12)));
        assert_eq!(cell.reg_nret(), Some(NetId(13)));
        assert!(cell.kind.is_state());
        assert_eq!(cell.kind.arity(), 4);

        let gate = Cell {
            kind: CellKind::Gate(GateOp::And),
            inputs: &[NetId(1), NetId(2)],
            output: NetId(3),
        };
        assert_eq!(gate.reg_nrst(), None);
        assert!(!gate.kind.is_state());
    }

    #[test]
    fn display_names() {
        assert_eq!(GateOp::Mux.to_string(), "mux");
        assert_eq!(GateOp::Xnor.to_string(), "xnor");
    }
}
