//! The main control unit and ALU control truth tables.
//!
//! These tables are the single source of truth shared by the netlist
//! generator (which synthesises them into gates) and the golden model
//! (which interprets them), so any mismatch between the two is impossible
//! by construction.

use crate::isa::{funct, OP_BEQ, OP_LW, OP_RTYPE, OP_SW};

/// The nine control outputs of Figure 4 (ALUOp counts as two bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControlSignals {
    /// Destination register select: 1 = `rd` (R-type), 0 = `rt` (loads).
    pub reg_dst: bool,
    /// Branch instruction.
    pub branch: bool,
    /// Data-memory read enable.
    pub mem_read: bool,
    /// Write-back select: 1 = memory data, 0 = ALU result.
    pub mem_to_reg: bool,
    /// Two-bit ALU operation class (00 add, 01 sub, 10 from funct).
    pub alu_op: u8,
    /// Data-memory write enable.
    pub mem_write: bool,
    /// ALU second-operand select: 1 = sign-extended immediate, 0 = register.
    pub alu_src: bool,
    /// Register-file write enable.
    pub reg_write: bool,
    /// Program-counter update enable.  Asserted for every *implemented*
    /// opcode and de-asserted for unknown ones, so that an uninitialised or
    /// reset control path cannot silently advance the architectural PC — the
    /// "safe bubble" behaviour required for a clean resume (see
    /// [`crate::ControlPath::RefreshingIfr`]).
    pub pc_write: bool,
}

impl ControlSignals {
    /// Decodes the main control signals from a 6-bit opcode.
    ///
    /// Unimplemented opcodes decode to all-inactive controls (a no-op), the
    /// safe behaviour also produced by the synthesised control unit.
    pub fn from_opcode(opcode: u32) -> ControlSignals {
        match opcode & 0x3F {
            OP_RTYPE => ControlSignals {
                reg_dst: true,
                alu_src: false,
                mem_to_reg: false,
                reg_write: true,
                mem_read: false,
                mem_write: false,
                branch: false,
                alu_op: 0b10,
                pc_write: true,
            },
            OP_LW => ControlSignals {
                reg_dst: false,
                alu_src: true,
                mem_to_reg: true,
                reg_write: true,
                mem_read: true,
                mem_write: false,
                branch: false,
                alu_op: 0b00,
                pc_write: true,
            },
            OP_SW => ControlSignals {
                reg_dst: false,
                alu_src: true,
                mem_to_reg: false,
                reg_write: false,
                mem_read: false,
                mem_write: true,
                branch: false,
                alu_op: 0b00,
                pc_write: true,
            },
            OP_BEQ => ControlSignals {
                reg_dst: false,
                alu_src: false,
                mem_to_reg: false,
                reg_write: false,
                mem_read: false,
                mem_write: false,
                branch: true,
                alu_op: 0b01,
                pc_write: true,
            },
            _ => ControlSignals::default(),
        }
    }
}

/// The 3-bit ALU operation codes produced by the ALU-control unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluFunction {
    /// Bitwise AND (`000`).
    And,
    /// Bitwise OR (`001`).
    Or,
    /// Two's-complement addition (`010`).
    Add,
    /// Two's-complement subtraction (`110`).
    Sub,
    /// Set-on-less-than, signed (`111`).
    Slt,
}

impl AluFunction {
    /// The 3-bit encoding used on the `ALUControl[2:0]` nets.
    pub fn encoding(self) -> u8 {
        match self {
            AluFunction::And => 0b000,
            AluFunction::Or => 0b001,
            AluFunction::Add => 0b010,
            AluFunction::Sub => 0b110,
            AluFunction::Slt => 0b111,
        }
    }

    /// Applies the function to two 32-bit operands, returning
    /// `(result, zero_flag)`.
    pub fn apply(self, a: u32, b: u32) -> (u32, bool) {
        let r = match self {
            AluFunction::And => a & b,
            AluFunction::Or => a | b,
            AluFunction::Add => a.wrapping_add(b),
            AluFunction::Sub => a.wrapping_sub(b),
            AluFunction::Slt => u32::from((a as i32) < (b as i32)),
        };
        (r, r == 0)
    }
}

/// The ALU-control table: combines the 2-bit `ALUOp` class with the
/// instruction's `funct` field (Instruction\[5:0\]).
pub fn alu_control(alu_op: u8, funct_field: u32) -> AluFunction {
    match alu_op & 0b11 {
        0b00 => AluFunction::Add, // lw / sw address computation
        0b01 => AluFunction::Sub, // beq comparison
        _ => match funct_field & 0x3F {
            funct::ADD => AluFunction::Add,
            funct::SUB => AluFunction::Sub,
            funct::AND => AluFunction::And,
            funct::OR => AluFunction::Or,
            funct::SLT => AluFunction::Slt,
            _ => AluFunction::And,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn main_control_table_matches_the_textbook() {
        let r = ControlSignals::from_opcode(OP_RTYPE);
        assert!(r.reg_dst && r.reg_write && !r.alu_src && !r.branch);
        assert_eq!(r.alu_op, 0b10);
        let lw = ControlSignals::from_opcode(OP_LW);
        assert!(lw.alu_src && lw.mem_to_reg && lw.reg_write && lw.mem_read);
        assert!(!lw.mem_write && !lw.branch);
        let sw = ControlSignals::from_opcode(OP_SW);
        assert!(sw.alu_src && sw.mem_write && !sw.reg_write && !sw.mem_read);
        let beq = ControlSignals::from_opcode(OP_BEQ);
        assert!(beq.branch && !beq.reg_write && !beq.mem_write);
        assert_eq!(beq.alu_op, 0b01);
    }

    #[test]
    fn unknown_opcodes_are_inert() {
        let u = ControlSignals::from_opcode(0b111111);
        assert_eq!(u, ControlSignals::default());
        assert!(!u.reg_write && !u.mem_write && !u.branch && !u.pc_write);
    }

    #[test]
    fn implemented_opcodes_advance_the_pc() {
        for op in [OP_RTYPE, OP_LW, OP_SW, OP_BEQ] {
            assert!(ControlSignals::from_opcode(op).pc_write, "opcode {op:#08b}");
        }
    }

    #[test]
    fn alu_control_table() {
        assert_eq!(alu_control(0b00, 0), AluFunction::Add);
        assert_eq!(alu_control(0b01, 0), AluFunction::Sub);
        assert_eq!(alu_control(0b10, funct::ADD), AluFunction::Add);
        assert_eq!(alu_control(0b10, funct::SUB), AluFunction::Sub);
        assert_eq!(alu_control(0b10, funct::AND), AluFunction::And);
        assert_eq!(alu_control(0b10, funct::OR), AluFunction::Or);
        assert_eq!(alu_control(0b10, funct::SLT), AluFunction::Slt);
    }

    #[test]
    fn alu_functions() {
        assert_eq!(AluFunction::Add.apply(3, 4), (7, false));
        assert_eq!(AluFunction::Sub.apply(4, 4), (0, true));
        assert_eq!(AluFunction::And.apply(0b1100, 0b1010), (0b1000, false));
        assert_eq!(AluFunction::Or.apply(0b1100, 0b1010), (0b1110, false));
        assert_eq!(
            AluFunction::Slt.apply(u32::MAX, 1),
            (1, false),
            "-1 < 1 signed"
        );
        assert_eq!(AluFunction::Slt.apply(1, u32::MAX), (0, true));
    }

    #[test]
    fn encoding_roundtrip() {
        // Five pairwise-distinct 3-bit codes, so the `ALUControl[2:0]` nets
        // identify the function.
        let codes = [
            AluFunction::And,
            AluFunction::Or,
            AluFunction::Add,
            AluFunction::Sub,
            AluFunction::Slt,
        ]
        .map(AluFunction::encoding);
        for (i, &code) in codes.iter().enumerate() {
            assert!(code <= 0b111, "{code:#b} is wider than 3 bits");
            assert!(!codes[..i].contains(&code), "{code:#b} is used twice");
        }
    }
}
