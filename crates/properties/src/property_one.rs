//! Property I — the 26 functional assertions checked with `NRET` held high.
//!
//! "In total for Property I, we developed 26 properties (2 for fetch, 6 for
//! decode, 11 for control, 6 for execute and 1 for write back), to check the
//! functionality of the core in the presence of NRET being held high
//! throughout the simulation."
//!
//! The antecedents drive symbolic present-state values onto the relevant
//! nodes of each functional unit (standard STE cut-point style) and the
//! consequents state the expected response; `NRET`/`NRST` are held high and
//! the instruction-memory load port is idle throughout, so the retention
//! registers behave exactly like ordinary registers.

use ssr_bdd::{BddManager, BddVec};
use ssr_cpu::isa::{OP_BEQ, OP_LW, OP_SW};
use ssr_ste::stimulus::clock;
use ssr_ste::{Assertion, Formula};

use crate::harness::CoreHarness;
use crate::suite::Pick;

/// Builds the full 26-assertion Property I suite for the given core.
pub fn suite(harness: &CoreHarness, m: &mut BddManager) -> Vec<Assertion> {
    build(harness, m, &mut Pick::all())
}

/// The suite's assertions that `pick` selects, every variable of the
/// suite declared (see [`Pick`]).
pub(crate) fn build(harness: &CoreHarness, m: &mut BddManager, pick: &mut Pick) -> Vec<Assertion> {
    let mut out = Vec::with_capacity(26);
    out.extend(fetch_picked(harness, m, pick));
    out.extend(decode_picked(harness, m, pick));
    out.extend(control_picked(harness, m, pick));
    out.extend(execute_picked(harness, m, pick));
    out.extend(write_back_picked(harness, m, pick));
    out
}

/// The two fetch-unit assertions.
pub fn fetch(harness: &CoreHarness, m: &mut BddManager) -> Vec<Assertion> {
    fetch_picked(harness, m, &mut Pick::all())
}

fn fetch_picked(harness: &CoreHarness, m: &mut BddManager, pick: &mut Pick) -> Vec<Assertion> {
    let opcode_net = harness.opcode_net();
    let mut out = Vec::new();

    // F1: sequential PC update — for a non-branch instruction the PC becomes
    // PC + 4 after one clock cycle.
    {
        let pc = harness.order().word(m, "f1_pc", 32);
        if pick.next() {
            let a = CoreHarness::nominal_controls(3)
                .and(clock("clock", 0, 1))
                .and(CoreHarness::pc_is(m, &pc, 0, 2))
                .and(Formula::word_is_const(opcode_net, 0, 6).from_to(0, 2));
            let expected = pc.add_constant(m, 4);
            let c = Formula::word_is(m, "PC", &expected).delay(2);
            out.push(Assertion::named("fetch_pc_plus_4", a, c));
        }
    }

    // F2: branch target — with a taken `beq` the PC becomes
    // PC + 4 + (sign-extended offset << 2).  The PC and offset operands
    // feed a 32-bit adder, so their declaration follows the harness's
    // order policy; under the default interleaved preset the carry chain
    // stays linear, under the sequential preset it is exponential (the
    // ordering ablation).
    {
        let (pc, offset) = harness.order().pair(m, "f2_pc", "f2_off", 32);
        if pick.next() {
            let a = CoreHarness::nominal_controls(3)
                .and(clock("clock", 0, 1))
                .and(CoreHarness::pc_is(m, &pc, 0, 2))
                .and(Formula::word_is_const(opcode_net, OP_BEQ as u64, 6).from_to(0, 2))
                .and(Formula::node_is_from_to("Zero", true, 0, 2))
                .and(CoreHarness::word_over(m, "SignExt", &offset, 0, 2));
            let plus4 = pc.add_constant(m, 4);
            let shifted = offset.shl_constant(2);
            let expected = plus4.add(m, &shifted).expect("same width");
            let c = Formula::word_is(m, "PC", &expected).delay(2);
            out.push(Assertion::named("fetch_branch_taken", a, c));
        }
    }
    out
}

/// The six decode-unit assertions.
pub fn decode(harness: &CoreHarness, m: &mut BddManager) -> Vec<Assertion> {
    decode_picked(harness, m, &mut Pick::all())
}

fn decode_picked(harness: &CoreHarness, m: &mut BddManager, pick: &mut Pick) -> Vec<Assertion> {
    let reg_bits = harness.config().reg_addr_bits();
    let reg_count = harness.config().reg_count;
    let mut out = Vec::new();

    // D1/D2: register-bank read ports with a symbolically indexed bank.
    for (name, field_base, read_port) in [
        ("decode_read_port_1", 21usize, "ReadData1"),
        ("decode_read_port_2", 16usize, "ReadData2"),
    ] {
        let addr = harness.order().word(m, &format!("{name}_addr"), reg_bits);
        let data = harness.order().word(m, &format!("{name}_data"), 32);
        if !pick.next() {
            continue;
        }
        let mut bank = Formula::True;
        for i in 0..reg_count {
            let hit = addr.equals_constant(m, i as u64);
            bank = bank.and(Formula::word_is(m, &format!("Registers_w{i}"), &data).when(hit));
        }
        let mut field = Formula::True;
        for (bit, &b) in addr.bits().iter().enumerate() {
            field = field.and(Formula::is_bdd(
                m,
                format!("Instruction[{}]", field_base + bit),
                b,
            ));
        }
        let a = CoreHarness::nominal_controls(1).and(bank).and(field);
        let c = Formula::word_is(m, read_port, &data);
        out.push(Assertion::named(name, a, c));
    }

    // D3: sign extension of the 16-bit immediate.
    {
        let imm = harness.order().word(m, "d3_imm", 16);
        if pick.next() {
            let mut field = Formula::True;
            for (bit, &b) in imm.bits().iter().enumerate() {
                field = field.and(Formula::is_bdd(m, format!("Instruction[{bit}]"), b));
            }
            let a = CoreHarness::nominal_controls(1).and(field);
            let expected = imm.sext(32);
            let c = Formula::word_is(m, "SignExt", &expected);
            out.push(Assertion::named("decode_sign_extend", a, c));
        }
    }

    // D4/D5: the RegDst destination-register multiplexer.
    for (name, reg_dst, field_base) in [
        ("decode_write_register_rtype", true, 11usize),
        ("decode_write_register_load", false, 16usize),
    ] {
        let addr = harness.order().word(m, &format!("{name}_addr"), reg_bits);
        if !pick.next() {
            continue;
        }
        let mut field = Formula::True;
        for (bit, &b) in addr.bits().iter().enumerate() {
            field = field.and(Formula::is_bdd(
                m,
                format!("Instruction[{}]", field_base + bit),
                b,
            ));
        }
        let a = CoreHarness::nominal_controls(1)
            .and(Formula::is_bool("RegDst", reg_dst))
            .and(field);
        let c = Formula::word_is(m, "WriteRegister", &addr);
        out.push(Assertion::named(name, a, c));
    }

    // D6: a register-bank write commits on the clock edge.
    {
        let addr = harness.order().word(m, "d6_addr", reg_bits);
        let data = harness.order().word(m, "d6_data", 32);
        if pick.next() {
            let a = CoreHarness::nominal_controls(3)
                .and(clock("clock", 0, 1))
                .and(Formula::node_is_from_to("RegWrite", true, 0, 2))
                .and(CoreHarness::word_over(m, "WriteRegister", &addr, 0, 2))
                .and(CoreHarness::word_over(m, "WriteBackData", &data, 0, 2));
            let mut c = Formula::True;
            for i in 0..reg_count {
                let hit = addr.equals_constant(m, i as u64);
                c = c.and(
                    Formula::word_is(m, &format!("Registers_w{i}"), &data)
                        .when(hit)
                        .delay(2),
                );
            }
            out.push(Assertion::named("decode_register_write_back", a, c));
        }
    }
    out
}

/// The eleven control-unit assertions.
pub fn control(harness: &CoreHarness, m: &mut BddManager) -> Vec<Assertion> {
    control_picked(harness, m, &mut Pick::all())
}

fn control_picked(harness: &CoreHarness, m: &mut BddManager, pick: &mut Pick) -> Vec<Assertion> {
    let opcode_net = harness.opcode_net();
    let mut out = Vec::new();

    // C1–C4: the full output row for each implemented opcode.
    #[allow(clippy::type_complexity)]
    let rows: [(&str, u64, [(&str, bool); 8], u64); 4] = [
        (
            "control_rtype",
            0,
            [
                ("RegDst", true),
                ("ALUSrc", false),
                ("MemtoReg", false),
                ("RegWrite", true),
                ("MemRead", false),
                ("MemWrite", false),
                ("Branch", false),
                ("PCWrite", true),
            ],
            0b10,
        ),
        (
            "control_lw",
            OP_LW as u64,
            [
                ("RegDst", false),
                ("ALUSrc", true),
                ("MemtoReg", true),
                ("RegWrite", true),
                ("MemRead", true),
                ("MemWrite", false),
                ("Branch", false),
                ("PCWrite", true),
            ],
            0b00,
        ),
        (
            "control_sw",
            OP_SW as u64,
            [
                ("RegDst", false),
                ("ALUSrc", true),
                ("MemtoReg", false),
                ("RegWrite", false),
                ("MemRead", false),
                ("MemWrite", true),
                ("Branch", false),
                ("PCWrite", true),
            ],
            0b00,
        ),
        (
            "control_beq",
            OP_BEQ as u64,
            [
                ("RegDst", false),
                ("ALUSrc", false),
                ("MemtoReg", false),
                ("RegWrite", false),
                ("MemRead", false),
                ("MemWrite", false),
                ("Branch", true),
                ("PCWrite", true),
            ],
            0b01,
        ),
    ];
    for (name, opcode, outputs, alu_op) in rows {
        if !pick.next() {
            continue;
        }
        let a = CoreHarness::nominal_controls(1).and(Formula::word_is_const(opcode_net, opcode, 6));
        let mut c = Formula::all(outputs.iter().map(|(net, v)| Formula::is_bool(*net, *v)));
        c = c.and(Formula::word_is_const("ALUOp", alu_op, 2));
        out.push(Assertion::named(name, a, c));
    }

    // C5: unimplemented opcodes drive no commits.
    {
        let op = harness.order().word(m, "c5_op", 6);
        if pick.next() {
            let known = [0u64, OP_LW as u64, OP_SW as u64, OP_BEQ as u64];
            let mut is_known = ssr_bdd::Bdd::FALSE;
            for k in known {
                let eq = op.equals_constant(m, k);
                is_known = m.or(is_known, eq);
            }
            let unknown = m.not(is_known);
            let a = CoreHarness::nominal_controls(1).and(Formula::word_is(m, opcode_net, &op));
            let c = Formula::all(
                ["RegWrite", "MemWrite", "Branch", "PCWrite"]
                    .iter()
                    .map(|net| Formula::is0(*net).when(unknown)),
            );
            out.push(Assertion::named("control_unknown_is_inert", a, c));
        }
    }

    // C6–C10: each control output as a symbolic function of the opcode.
    #[allow(clippy::type_complexity)]
    let symbolic_outputs: [(&str, fn(&mut BddManager, &BddVec) -> ssr_bdd::Bdd); 5] = [
        ("control_reg_write_symbolic", |m, op| {
            let r = op.equals_constant(m, 0);
            let l = op.equals_constant(m, OP_LW as u64);
            m.or(r, l)
        }),
        ("control_mem_write_symbolic", |m, op| {
            op.equals_constant(m, OP_SW as u64)
        }),
        ("control_branch_symbolic", |m, op| {
            op.equals_constant(m, OP_BEQ as u64)
        }),
        ("control_alu_src_symbolic", |m, op| {
            let l = op.equals_constant(m, OP_LW as u64);
            let s = op.equals_constant(m, OP_SW as u64);
            m.or(l, s)
        }),
        ("control_mem_read_symbolic", |m, op| {
            op.equals_constant(m, OP_LW as u64)
        }),
    ];
    let output_net = ["RegWrite", "MemWrite", "Branch", "ALUSrc", "MemRead"];
    for (i, (name, expected_fn)) in symbolic_outputs.iter().enumerate() {
        let op = harness.order().word(m, &format!("{name}_op"), 6);
        if !pick.next() {
            continue;
        }
        let a = CoreHarness::nominal_controls(1).and(Formula::word_is(m, opcode_net, &op));
        let expected = expected_fn(m, &op);
        let c = Formula::is_bdd(m, output_net[i], expected);
        out.push(Assertion::named(*name, a, c));
    }

    // C11: the ALU-control table for R-type functs.  (The ALUOp encoding
    // itself is already checked per opcode by C1–C4.)
    {
        let funct = harness.order().word(m, "c11_funct", 6);
        if pick.next() {
            let mut field = Formula::True;
            for (bit, &b) in funct.bits().iter().enumerate() {
                field = field.and(Formula::is_bdd(m, format!("Instruction[{bit}]"), b));
            }
            let a = CoreHarness::nominal_controls(1)
                .and(Formula::is1("ALUOp[1]"))
                .and(Formula::is0("ALUOp[0]"))
                .and(field);
            // With ALUOp = 10 the textbook equations reduce to:
            //   ctrl2 = F1,  ctrl1 = ¬F2,  ctrl0 = F3 ∨ F0.
            let ctrl2 = funct.bit(1);
            let ctrl1 = m.not(funct.bit(2));
            let ctrl0 = m.or(funct.bit(3), funct.bit(0));
            let c = Formula::is_bdd(m, "ALUControl[2]", ctrl2)
                .and(Formula::is_bdd(m, "ALUControl[1]", ctrl1))
                .and(Formula::is_bdd(m, "ALUControl[0]", ctrl0));
            out.push(Assertion::named("control_alu_control_table", a, c));
        }
    }
    out
}

/// The six execute-unit assertions.
pub fn execute(harness: &CoreHarness, m: &mut BddManager) -> Vec<Assertion> {
    execute_picked(harness, m, &mut Pick::all())
}

fn execute_picked(harness: &CoreHarness, m: &mut BddManager, pick: &mut Pick) -> Vec<Assertion> {
    let mut out = Vec::new();

    let alu_cases: [(&str, u64); 5] = [
        ("execute_add", 0b010),
        ("execute_sub", 0b110),
        ("execute_and", 0b000),
        ("execute_or", 0b001),
        ("execute_slt", 0b111),
    ];
    for (name, ctrl) in alu_cases {
        let (a_vec, b_vec) =
            harness
                .order()
                .pair(m, &format!("{name}_a"), &format!("{name}_b"), 32);
        if !pick.next() {
            continue;
        }
        let antecedent = CoreHarness::nominal_controls(1)
            .and(Formula::is0("ALUSrc"))
            .and(Formula::word_is_const("ALUControl", ctrl, 3))
            .and(Formula::word_is(m, "ReadData1", &a_vec))
            .and(Formula::word_is(m, "ReadData2", &b_vec));
        let expected = match ctrl {
            0b010 => a_vec.add(m, &b_vec).expect("width"),
            0b110 => a_vec.sub(m, &b_vec).expect("width"),
            0b000 => a_vec.and(m, &b_vec).expect("width"),
            0b001 => a_vec.or(m, &b_vec).expect("width"),
            _ => {
                let lt = a_vec.slt(m, &b_vec).expect("width");
                let mut bits = vec![ssr_bdd::Bdd::FALSE; 32];
                bits[0] = lt;
                BddVec::from_bits(bits)
            }
        };
        let c = Formula::word_is(m, "ALUResult", &expected);
        out.push(Assertion::named(name, antecedent, c));
    }

    // E6: the Zero flag is exactly the equality of the subtraction operands.
    {
        let (a_vec, b_vec) = harness.order().pair(m, "e6_a", "e6_b", 32);
        if pick.next() {
            let antecedent = CoreHarness::nominal_controls(1)
                .and(Formula::is0("ALUSrc"))
                .and(Formula::word_is_const("ALUControl", 0b110, 3))
                .and(Formula::word_is(m, "ReadData1", &a_vec))
                .and(Formula::word_is(m, "ReadData2", &b_vec));
            let eq = a_vec.equals(m, &b_vec).expect("width");
            let c = Formula::is_bdd(m, "Zero", eq);
            out.push(Assertion::named("execute_zero_flag", antecedent, c));
        }
    }
    out
}

/// The single write-back assertion.
pub fn write_back(harness: &CoreHarness, m: &mut BddManager) -> Assertion {
    write_back_picked(harness, m, &mut Pick::all()).expect("every assertion is picked")
}

fn write_back_picked(
    harness: &CoreHarness,
    m: &mut BddManager,
    pick: &mut Pick,
) -> Option<Assertion> {
    let mem_data = harness.order().word(m, "wb_mem", 32);
    let alu_data = harness.order().word(m, "wb_alu", 32);
    let sel = m.declare("wb_sel");
    if !pick.next() {
        return None;
    }
    let a = CoreHarness::nominal_controls(1)
        .and(Formula::is_bdd(m, "MemtoReg", sel))
        .and(Formula::word_is(m, "MemReadData", &mem_data))
        .and(Formula::word_is(m, "ALUResult", &alu_data));
    let expected = mem_data.mux(m, sel, &alu_data).expect("width");
    let c = Formula::word_is(m, "WriteBackData", &expected);
    Some(Assertion::named("writeback_mux", a, c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_cpu::{ControlPath, CoreConfig};

    #[test]
    fn suite_has_the_papers_26_properties() {
        let harness = CoreHarness::new(CoreConfig::small_test()).expect("core");
        let mut m = BddManager::new();
        let suite = suite(&harness, &mut m);
        assert_eq!(suite.len(), 26);
        assert_eq!(fetch(&harness, &mut m).len(), 2);
        assert_eq!(decode(&harness, &mut m).len(), 6);
        assert_eq!(control(&harness, &mut m).len(), 11);
        assert_eq!(execute(&harness, &mut m).len(), 6);
    }

    #[test]
    fn all_26_properties_hold_on_the_selective_retention_core() {
        let harness = CoreHarness::new(CoreConfig::small_test()).expect("core");
        let mut m = BddManager::new();
        let suite = suite(&harness, &mut m);
        let reports = harness.check_all(&mut m, &suite).expect("checks");
        for r in &reports {
            assert!(
                r.holds,
                "Property I `{}` should hold: {:?}",
                r.name.as_deref().unwrap_or("?"),
                r.counterexample
            );
        }
    }

    #[test]
    fn all_26_properties_hold_on_the_combinational_control_core() {
        let mut cfg = CoreConfig::small_test();
        cfg.control_path = ControlPath::Combinational;
        let harness = CoreHarness::new(cfg).expect("core");
        let mut m = BddManager::new();
        let suite = suite(&harness, &mut m);
        let reports = harness.check_all(&mut m, &suite).expect("checks");
        assert!(reports.iter().all(|r| r.holds));
    }

    #[test]
    fn a_wrong_specification_is_rejected() {
        // Sanity: the checker is not vacuously accepting everything — an
        // intentionally wrong execute property fails with a counterexample.
        let harness = CoreHarness::new(CoreConfig::small_test()).expect("core");
        let mut m = BddManager::new();
        let (a_vec, b_vec) = BddVec::new_interleaved_pair(&mut m, "bad_a", "bad_b", 32);
        let antecedent = CoreHarness::nominal_controls(1)
            .and(Formula::is0("ALUSrc"))
            .and(Formula::word_is_const("ALUControl", 0b010, 3))
            .and(Formula::word_is(&mut m, "ReadData1", &a_vec))
            .and(Formula::word_is(&mut m, "ReadData2", &b_vec));
        let wrong = a_vec.sub(&mut m, &b_vec).expect("width");
        let c = Formula::word_is(&mut m, "ALUResult", &wrong);
        let report = harness
            .check(&mut m, &Assertion::named("bad_add", antecedent, c))
            .expect("checks");
        assert!(!report.holds);
        assert!(report.counterexample.is_some());
    }
}
