//! The gate-level netlist generator for the single-cycle RISC core
//! (Figure 4 of the paper).
//!
//! ## Public net names
//!
//! The generator gives every architecturally relevant signal a stable name
//! so the STE properties in `ssr-properties` can refer to them:
//!
//! | Name | Meaning |
//! |---|---|
//! | `clock`, `NRST`, `NRET` | global clock and the active-low reset / retention controls |
//! | `PC[31:0]` | program counter (retention registers under the default policy) |
//! | `PCPlus4[31:0]`, `BranchTarget[31:0]`, `PCSrc` | next-PC datapath |
//! | `IMem_w{i}[b]` | instruction-memory storage word `i` |
//! | `IMemWrite`, `IMemWriteAdd[..]`, `IMemWriteData[31:0]`, `IMemRead` | instruction-memory load port and read enable |
//! | `Instruction[31:0]` | instruction-memory read data |
//! | `IFR_Instr[5:0]` | the Instruction Fetch Register (opcode pipeline register), when the control path has one |
//! | `RegDst`, `Branch`, `MemRead`, `MemtoReg`, `ALUOp[1:0]`, `MemWrite`, `ALUSrc`, `RegWrite`, `PCWrite` | control unit outputs |
//! | `Registers_w{i}[b]`, `ReadData1[31:0]`, `ReadData2[31:0]`, `WriteRegister[..]`, `WriteBackData[31:0]` | register bank |
//! | `SignExt[31:0]` | sign-extended immediate |
//! | `ALUControl[2:0]`, `ALUResult[31:0]`, `Zero` | execute stage |
//! | `DMem_w{i}[b]`, `MemReadData[31:0]` | data memory |

use ssr_netlist::builder::{MemoryConfig, NetlistBuilder, ReadPort, WritePort};
use ssr_netlist::{NetId, Netlist, NetlistError, RegKind};

use crate::config::{ControlPath, CoreConfig};

/// Width of the architectural registers and datapath.
pub const WORD: usize = 32;

fn state_kind(retained: bool) -> RegKind {
    if retained {
        RegKind::Retention { reset_value: false }
    } else {
        RegKind::AsyncReset { reset_value: false }
    }
}

/// Generates the core netlist for the given configuration.
///
/// # Errors
/// Returns a [`NetlistError`] if the generated structure fails validation
/// (this would indicate a bug in the generator and is covered by tests).
///
/// # Panics
/// Panics if the configuration is invalid (see [`CoreConfig::validate`]).
pub fn build_core(config: &CoreConfig) -> Result<Netlist, NetlistError> {
    config.validate();
    let mut b = NetlistBuilder::new("risc32");

    // ------------------------------------------------------------------
    // Global controls.
    // ------------------------------------------------------------------
    let clk = b.input("clock");
    let nrst = b.input("NRST");
    let nret = b.input("NRET");

    // Helper closures for the per-group register kinds.
    let kind_pc = state_kind(config.retention.pc);
    let kind_imem = state_kind(config.retention.imem);
    let kind_regfile = state_kind(config.retention.regfile);
    let kind_dmem = state_kind(config.retention.dmem);

    let controls_for = |kind: RegKind| -> (Option<NetId>, Option<NetId>) {
        match kind {
            RegKind::Simple => (None, None),
            RegKind::AsyncReset { .. } => (Some(nrst), None),
            RegKind::Retention { .. } => (Some(nrst), Some(nret)),
        }
    };

    // ------------------------------------------------------------------
    // Program counter (registered; data patched once the next-PC mux
    // exists).
    // ------------------------------------------------------------------
    let (pc_nrst, pc_nret) = controls_for(kind_pc);
    let pc: Vec<NetId> = (0..WORD)
        .map(|i| b.reg(format!("PC[{i}]"), kind_pc, clk, clk, pc_nrst, pc_nret))
        .collect();

    // PC + 4.
    let four = b.word_constant(4, WORD);
    let (pc_plus_4_raw, _) = b.word_add(&pc, &four, None)?;
    let pc_plus_4: Vec<NetId> = pc_plus_4_raw
        .iter()
        .enumerate()
        .map(|(i, &n)| b.buf(format!("PCPlus4[{i}]"), n))
        .collect();

    // ------------------------------------------------------------------
    // Instruction memory: external load port + PC-addressed read port.
    // ------------------------------------------------------------------
    let imem_addr_bits = config.imem_addr_bits();
    let imem_wadd = b.word_input("IMemWriteAdd", imem_addr_bits);
    let imem_wdata = b.word_input("IMemWriteData", WORD);
    let imem_we = b.input("IMemWrite");
    let imem_re = b.input("IMemRead");
    // Word address of the PC (instructions are 4-byte aligned).
    let imem_raddr: Vec<NetId> = pc[2..2 + imem_addr_bits].to_vec();
    let (imem_nrst, imem_nret) = controls_for(kind_imem);
    let imem_read = b.memory(
        "IMem",
        MemoryConfig {
            depth: config.imem_depth,
            width: WORD,
            kind: kind_imem,
        },
        clk,
        imem_nrst,
        imem_nret,
        Some(&WritePort {
            addr: imem_wadd,
            data: imem_wdata,
            enable: imem_we,
        }),
        &[ReadPort {
            addr: imem_raddr,
            enable: Some(imem_re),
        }],
    );
    let instruction: Vec<NetId> = imem_read[0]
        .iter()
        .enumerate()
        .map(|(i, &n)| b.buf(format!("Instruction[{i}]"), n))
        .collect();

    // ------------------------------------------------------------------
    // Control path: where the opcode bits come from.
    // ------------------------------------------------------------------
    let opcode_src: Vec<NetId> = instruction[26..32].to_vec();
    let opcode: Vec<NetId> = match config.control_path {
        ControlPath::Combinational => opcode_src
            .iter()
            .enumerate()
            .map(|(i, &n)| b.buf(format!("Opcode[{i}]"), n))
            .collect(),
        ControlPath::RefreshingIfr | ControlPath::UnsafeResetIfr => {
            // The IFR: 6 ordinary registers (retention only under the "full
            // retention" policy).  The reset value is the inert opcode
            // 0b111111 for the fixed variant and 0b000000 (an R-type, the
            // paper's observed hazard) for the unsafe variant.
            let reset_bits = match config.control_path {
                ControlPath::RefreshingIfr => 0b111111u32,
                _ => 0b000000,
            };
            (0..6)
                .map(|i| {
                    let reset_value = (reset_bits >> i) & 1 == 1;
                    let kind = if config.retention.micro {
                        RegKind::Retention { reset_value }
                    } else {
                        RegKind::AsyncReset { reset_value }
                    };
                    let (r, t) = controls_for(kind);
                    b.reg(format!("IFR_Instr[{i}]"), kind, opcode_src[i], clk, r, t)
                })
                .collect()
        }
    };

    // ------------------------------------------------------------------
    // Main control unit.
    // ------------------------------------------------------------------
    let is_rtype = {
        let hit = b.word_eq_const(&opcode, 0b000000);
        b.buf("IsRType", hit)
    };
    let is_lw = {
        let hit = b.word_eq_const(&opcode, 0b100011);
        b.buf("IsLw", hit)
    };
    let is_sw = {
        let hit = b.word_eq_const(&opcode, 0b101011);
        b.buf("IsSw", hit)
    };
    let is_beq = {
        let hit = b.word_eq_const(&opcode, 0b000100);
        b.buf("IsBeq", hit)
    };

    let reg_dst = b.buf("RegDst", is_rtype);
    let branch = b.buf("Branch", is_beq);
    let mem_read = b.buf("MemRead", is_lw);
    let mem_to_reg = b.buf("MemtoReg", is_lw);
    let mem_write = b.buf("MemWrite", is_sw);
    let alu_src = {
        let t = b.or_auto(is_lw, is_sw);
        b.buf("ALUSrc", t)
    };
    let reg_write = {
        let t = b.or_auto(is_rtype, is_lw);
        b.buf("RegWrite", t)
    };
    let alu_op1 = b.buf("ALUOp[1]", is_rtype);
    let alu_op0 = b.buf("ALUOp[0]", is_beq);
    let pc_write = {
        let a = b.or_auto(is_rtype, is_lw);
        let c = b.or_auto(is_sw, is_beq);
        let t = b.or_auto(a, c);
        b.buf("PCWrite", t)
    };

    // ------------------------------------------------------------------
    // Register bank: two read ports, one write port.
    // ------------------------------------------------------------------
    let reg_bits = config.reg_addr_bits();
    let rs_addr: Vec<NetId> = instruction[21..21 + reg_bits].to_vec();
    let rt_addr: Vec<NetId> = instruction[16..16 + reg_bits].to_vec();
    let rd_addr: Vec<NetId> = instruction[11..11 + reg_bits].to_vec();
    let write_register_raw = b.word_mux(reg_dst, &rd_addr, &rt_addr)?;
    let write_register: Vec<NetId> = write_register_raw
        .iter()
        .enumerate()
        .map(|(i, &n)| b.buf(format!("WriteRegister[{i}]"), n))
        .collect();

    // The write-back data is defined after the data memory; create the
    // register bank with a placeholder and patch afterwards via the returned
    // storage registers?  Simpler: build the write-back mux input as primary
    // placeholder is not possible, so order construction: the register bank
    // write *data* depends on MemReadData which depends on ALUResult which
    // depends on the register bank *read* data.  There is no combinational
    // cycle because the write data only feeds register D inputs — but the
    // builder's `memory` helper wants the write port up front.  We therefore
    // instantiate the register bank storage manually in two phases like the
    // memory helper does internally: create read ports from deferred
    // registers, then patch the write path.
    let (rf_nrst, rf_nret) = controls_for(kind_regfile);
    let mut regfile_words: Vec<Vec<NetId>> = Vec::with_capacity(config.reg_count);
    for i in 0..config.reg_count {
        let word: Vec<NetId> = (0..WORD)
            .map(|bit| {
                b.reg(
                    format!("Registers_w{i}[{bit}]"),
                    kind_regfile,
                    clk,
                    clk,
                    rf_nrst,
                    rf_nret,
                )
            })
            .collect();
        regfile_words.push(word);
    }
    let read_port =
        |b: &mut NetlistBuilder, words: &[Vec<NetId>], addr: &[NetId], name: &str| -> Vec<NetId> {
            let mut acc = b.word_constant(0, WORD);
            for (i, w) in words.iter().enumerate() {
                let hit = b.word_eq_const(addr, i as u64);
                acc = b.word_mux(hit, w, &acc).expect("equal widths");
            }
            acc.iter()
                .enumerate()
                .map(|(bit, &n)| b.buf(format!("{name}[{bit}]"), n))
                .collect()
        };
    let read_data1 = read_port(&mut b, &regfile_words, &rs_addr, "ReadData1");
    let read_data2 = read_port(&mut b, &regfile_words, &rt_addr, "ReadData2");

    // ------------------------------------------------------------------
    // Sign extension and the ALU.
    // ------------------------------------------------------------------
    let imm16: Vec<NetId> = instruction[0..16].to_vec();
    let sign_ext_raw = b.word_sext(&imm16, WORD);
    let sign_ext: Vec<NetId> = sign_ext_raw
        .iter()
        .enumerate()
        .map(|(i, &n)| b.buf(format!("SignExt[{i}]"), n))
        .collect();

    // ALU control from ALUOp and Instruction[5:0] (the funct field).
    let f0 = instruction[0];
    let f1 = instruction[1];
    let f2 = instruction[2];
    let f3 = instruction[3];
    let alu_ctrl2 = {
        let t = b.and_auto(alu_op1, f1);
        let v = b.or_auto(alu_op0, t);
        b.buf("ALUControl[2]", v)
    };
    let alu_ctrl1 = {
        let na = b.not_auto(alu_op1);
        let nf2 = b.not_auto(f2);
        let v = b.or_auto(na, nf2);
        b.buf("ALUControl[1]", v)
    };
    let alu_ctrl0 = {
        let t = b.or_auto(f3, f0);
        let v = b.and_auto(alu_op1, t);
        b.buf("ALUControl[0]", v)
    };

    // ALU operands.
    let alu_b = b.word_mux(alu_src, &sign_ext, &read_data2)?;
    let alu_a = read_data1.clone();

    // Adder / subtractor: b XOR binvert, carry-in = binvert.
    let binvert = alu_ctrl2;
    let b_inverted: Vec<NetId> = alu_b.iter().map(|&bit| b.xor_auto(bit, binvert)).collect();
    let (sum, _carry_out) = b.word_add(&alu_a, &b_inverted, Some(binvert))?;

    let and_word = b.word_and(&alu_a, &alu_b)?;
    let or_word = b.word_or(&alu_a, &alu_b)?;

    // Signed less-than: if the operand signs differ the result is the sign
    // of `a`, otherwise the sign of the subtraction.
    let a_sign = alu_a[WORD - 1];
    let b_sign = alu_b[WORD - 1];
    let diff_sign = sum[WORD - 1];
    let signs_differ = b.xor_auto(a_sign, b_sign);
    let slt_bit = b.mux_auto(signs_differ, a_sign, diff_sign);
    let zero_c = b.constant(false);
    let mut slt_word = vec![zero_c; WORD];
    slt_word[0] = slt_bit;

    // Result select: ctrl[1:0] — 00 AND, 01 OR, 10 ADD/SUB, 11 SLT.
    let sel_hi = alu_ctrl1;
    let sel_lo = alu_ctrl0;
    let low_pair = b.word_mux(sel_lo, &or_word, &and_word)?;
    let high_pair = b.word_mux(sel_lo, &slt_word, &sum)?;
    let alu_result_raw = b.word_mux(sel_hi, &high_pair, &low_pair)?;
    let alu_result: Vec<NetId> = alu_result_raw
        .iter()
        .enumerate()
        .map(|(i, &n)| b.buf(format!("ALUResult[{i}]"), n))
        .collect();
    let zero = {
        let nz = b.word_nonzero(&alu_result);
        let z = b.not_auto(nz);
        b.buf("Zero", z)
    };

    // ------------------------------------------------------------------
    // Data memory.
    // ------------------------------------------------------------------
    let dmem_addr_bits = config.dmem_addr_bits();
    let dmem_addr: Vec<NetId> = alu_result[2..2 + dmem_addr_bits].to_vec();
    let (dmem_nrst, dmem_nret) = controls_for(kind_dmem);
    let dmem_read = b.memory(
        "DMem",
        MemoryConfig {
            depth: config.dmem_depth,
            width: WORD,
            kind: kind_dmem,
        },
        clk,
        dmem_nrst,
        dmem_nret,
        Some(&WritePort {
            addr: dmem_addr.clone(),
            data: read_data2.clone(),
            enable: mem_write,
        }),
        &[ReadPort {
            addr: dmem_addr,
            enable: Some(mem_read),
        }],
    );
    let mem_read_data: Vec<NetId> = dmem_read[0]
        .iter()
        .enumerate()
        .map(|(i, &n)| b.buf(format!("MemReadData[{i}]"), n))
        .collect();

    // ------------------------------------------------------------------
    // Write-back into the register bank.
    // ------------------------------------------------------------------
    let write_back_raw = b.word_mux(mem_to_reg, &mem_read_data, &alu_result)?;
    let write_back: Vec<NetId> = write_back_raw
        .iter()
        .enumerate()
        .map(|(i, &n)| b.buf(format!("WriteBackData[{i}]"), n))
        .collect();
    for (i, word) in regfile_words.iter().enumerate() {
        let hit = b.word_eq_const(&write_register, i as u64);
        let we_hit = b.and_auto(hit, reg_write);
        for (bit, &q) in word.iter().enumerate() {
            let d = b.mux_auto(we_hit, write_back[bit], q);
            b.patch_reg_data(q, d);
        }
    }

    // ------------------------------------------------------------------
    // Next PC: branch target and the PCSrc / PCWrite muxes.
    // ------------------------------------------------------------------
    let offset = b.word_shl_const(&sign_ext, 2);
    let (branch_target_raw, _) = b.word_add(&pc_plus_4, &offset, None)?;
    let branch_target: Vec<NetId> = branch_target_raw
        .iter()
        .enumerate()
        .map(|(i, &n)| b.buf(format!("BranchTarget[{i}]"), n))
        .collect();
    let pc_src = {
        let t = b.and_auto(branch, zero);
        b.buf("PCSrc", t)
    };
    let pc_computed = b.word_mux(pc_src, &branch_target, &pc_plus_4)?;
    let pc_next = b.word_mux(pc_write, &pc_computed, &pc)?;
    for (bit, &q) in pc.iter().enumerate() {
        b.patch_reg_data(q, pc_next[bit]);
    }

    // ------------------------------------------------------------------
    // Primary outputs: the architectural observation points.
    // ------------------------------------------------------------------
    b.mark_word_output(&pc);
    b.mark_word_output(&instruction);
    b.mark_word_output(&alu_result);
    b.mark_word_output(&write_back);
    b.mark_output(zero);
    b.mark_output(pc_src);
    for net in [
        reg_dst, branch, mem_read, mem_to_reg, mem_write, alu_src, reg_write, pc_write,
    ] {
        b.mark_output(net);
    }

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RetentionPolicy;
    use ssr_netlist::stats::{stats, AreaModel};

    #[test]
    fn small_core_generates_and_validates() {
        let n = build_core(&CoreConfig::small_test()).expect("generates");
        assert!(n.validate().is_ok());
        // Architectural state: PC (32) + IMem (8*32) + Registers (8*32) +
        // DMem (8*32) retained; IFR (6) not retained.
        assert_eq!(n.retention_cells().len(), 32 + 3 * 8 * 32);
        assert_eq!(n.state_cells().count(), 32 + 3 * 8 * 32 + 6);
        for name in [
            "PC[0]",
            "PC[31]",
            "Instruction[0]",
            "Instruction[31]",
            "IFR_Instr[5]",
            "RegDst",
            "Branch",
            "MemRead",
            "MemtoReg",
            "MemWrite",
            "ALUSrc",
            "RegWrite",
            "PCWrite",
            "ALUOp[0]",
            "ALUOp[1]",
            "ALUControl[0]",
            "ALUControl[2]",
            "ReadData1[31]",
            "ReadData2[0]",
            "SignExt[31]",
            "ALUResult[0]",
            "Zero",
            "MemReadData[31]",
            "WriteBackData[0]",
            "BranchTarget[31]",
            "PCSrc",
            "IMem_w0[0]",
            "Registers_w7[31]",
            "DMem_w7[31]",
        ] {
            assert!(n.find_net(name).is_some(), "net `{name}` should exist");
        }
    }

    #[test]
    fn combinational_control_path_has_no_ifr() {
        let mut cfg = CoreConfig::small_test();
        cfg.control_path = ControlPath::Combinational;
        let n = build_core(&cfg).expect("generates");
        assert!(n.find_net("IFR_Instr[0]").is_none());
        assert!(n.find_net("Opcode[0]").is_some());
        assert_eq!(n.state_cells().count(), 32 + 3 * 8 * 32);
    }

    #[test]
    fn retention_policy_controls_cell_kinds() {
        let mut cfg = CoreConfig::small_test();
        cfg.retention = RetentionPolicy::none();
        let n = build_core(&cfg).expect("generates");
        assert_eq!(n.retention_cells().len(), 0);

        cfg.retention = RetentionPolicy::full();
        let n = build_core(&cfg).expect("generates");
        assert_eq!(n.retention_cells().len(), n.state_cells().count());
    }

    #[test]
    fn area_grows_with_retention() {
        let model = AreaModel::default();
        let mut cfg = CoreConfig::small_test();
        cfg.retention = RetentionPolicy::none();
        let none = stats(&build_core(&cfg).expect("generates"), &model).area;
        cfg.retention = RetentionPolicy::architectural();
        let arch = stats(&build_core(&cfg).expect("generates"), &model).area;
        cfg.retention = RetentionPolicy::full();
        let full = stats(&build_core(&cfg).expect("generates"), &model).area;
        assert!(none < arch && arch < full);
    }

    #[test]
    fn paper_configuration_scales() {
        // The 256-word configuration is used by the benches; make sure it at
        // least generates and validates (this is the largest build in the
        // test suite).
        let mut cfg = CoreConfig::paper();
        // Keep the test affordable: shrink the data memory but keep the
        // paper's 256-word instruction memory.
        cfg.dmem_depth = 8;
        cfg.reg_count = 8;
        let n = build_core(&cfg).expect("generates");
        assert!(n.find_net("IMem_w255[31]").is_some());
        assert!(n.state_cells().count() > 256 * 32);
    }

    /// The name index answers for every net of the small and paper cores:
    /// each name resolves to its own net, names no net has resolve to
    /// nothing, and every word (found from its bit 0) reads back the bits
    /// `p[0]`, `p[1]`, ... in order.
    #[test]
    fn the_name_index_resolves_every_net() {
        for cfg in [CoreConfig::small_test(), CoreConfig::paper()] {
            let n = build_core(&cfg).expect("generates");
            for (id, net) in n.nets() {
                assert_eq!(n.find_net(net.name), Some(id), "`{}`", net.name);
            }
            for name in ["", "PC", "PC[32]", "pc[0]", "IMem_w256[0]", "no such net"] {
                assert_eq!(n.find_net(name), None, "`{name}`");
            }
            assert_eq!(n.word("PC").len(), 32);
            let mut words = 0;
            for (_, net) in n.nets() {
                let Some(prefix) = net.name.strip_suffix("[0]") else {
                    continue;
                };
                let bits = n.word(prefix);
                for (i, &bit) in bits.iter().enumerate() {
                    assert_eq!(n.net(bit).name, format!("{prefix}[{i}]"));
                }
                let past = format!("{prefix}[{}]", bits.len());
                assert_eq!(n.find_net(&past), None, "`{past}`");
                words += 1;
            }
            assert!(words > cfg.imem_depth, "{words} words");
        }
    }
}
