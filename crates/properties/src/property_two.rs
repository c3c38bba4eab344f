//! Property II — the sleep/resume assertions.
//!
//! `M ⊨ (clock and sleep and resume and A) ⇒ C`: the same functional
//! expectations as Property I, but checked across an explicit power-down
//! hand-shake (Figure 3 of the paper).  Two families are produced:
//!
//! * **retention-survival** assertions — each retained architectural group
//!   still holds its (symbolic) present-state value once `NRET` has been
//!   released again, even though `NRST` pulsed low while the core was
//!   asleep; and
//! * **architectural-equivalence** assertions (Figure 2) — for a
//!   representative instruction of each class, the architectural next state
//!   reached after the sleep/resume detour equals the next state the
//!   instruction specifies, computed symbolically at the word level.
//!
//! Under the paper's recommended configuration (architectural state
//! retained, IFR control path) every assertion holds.  Under the
//! mis-designed control path ([`ssr_cpu::ControlPath::UnsafeResetIfr`]) or
//! with retention removed, the suite produces counterexamples — experiment
//! E5.

use ssr_bdd::{BddManager, BddVec};
use ssr_cpu::isa::Instr;
use ssr_retention::SleepResumeSchedule;
use ssr_ste::{Assertion, Formula};

use crate::harness::CoreHarness;
use crate::suite::Pick;

/// The sleep/resume schedule the suite uses: the power-down starts right
/// after the symbolic present state is established, and two clock cycles
/// follow the resume (one recovery cycle for the IFR to re-capture the
/// opcode from the retained instruction memory, one cycle that commits the
/// interrupted instruction).
pub fn schedule() -> SleepResumeSchedule {
    SleepResumeSchedule::new(0, 2)
}

/// Builds the retention-survival assertions: PC, one indexed instruction
/// memory word, one register and one indexed data-memory word keep their
/// symbolic values across the power-down window.
pub fn survival_suite(harness: &CoreHarness, m: &mut BddManager) -> Vec<Assertion> {
    survival_picked(harness, m, &mut Pick::all())
}

fn survival_picked(harness: &CoreHarness, m: &mut BddManager, pick: &mut Pick) -> Vec<Assertion> {
    let s = schedule();
    let depth = s.depth;
    // Observe after NRET has been released but before the first post-resume
    // clock edge can commit anything.
    let observe = s.resume_clock_start;
    let mut out = Vec::new();

    // PC survives.
    {
        let pc = harness.order().word(m, "sv_pc", 32);
        if pick.next() {
            let a = s
                .formula()
                .and(CoreHarness::imem_port_idle(depth))
                .and(CoreHarness::pc_is(m, &pc, 0, 1));
            let c = Formula::word_is(m, "PC", &pc).delay(observe);
            out.push(Assertion::named("survive_pc", a, c));
        }
    }

    // An indexed instruction-memory word survives.
    {
        let addr = harness
            .order()
            .word(m, "sv_imem_addr", harness.config().imem_addr_bits());
        let data = harness.order().word(m, "sv_imem_data", 32);
        if pick.next() {
            let a = s
                .formula()
                .and(CoreHarness::imem_port_idle(depth))
                .and(harness.imem_indexed_is(m, &addr, &data, 0, 1));
            let mut c = Formula::True;
            for i in 0..harness.config().imem_depth {
                let hit = addr.equals_constant(m, i as u64);
                c = c.and(
                    Formula::word_is(m, &format!("IMem_w{i}"), &data)
                        .when(hit)
                        .delay(observe),
                );
            }
            out.push(Assertion::named("survive_imem_word", a, c));
        }
    }

    // Register 1 survives.
    {
        let value = harness.order().word(m, "sv_reg", 32);
        if pick.next() {
            let a = s
                .formula()
                .and(CoreHarness::imem_port_idle(depth))
                .and(CoreHarness::register_is(m, 1, &value, 0, 1));
            let c = Formula::word_is(m, "Registers_w1", &value).delay(observe);
            out.push(Assertion::named("survive_register", a, c));
        }
    }

    // An indexed data-memory word survives.
    {
        let addr = harness
            .order()
            .word(m, "sv_dmem_addr", harness.config().dmem_addr_bits());
        let data = harness.order().word(m, "sv_dmem_data", 32);
        if pick.next() {
            let a = s
                .formula()
                .and(CoreHarness::imem_port_idle(depth))
                .and(harness.dmem_indexed_is(m, &addr, &data, 0, 1));
            let mut c = Formula::True;
            for i in 0..harness.config().dmem_depth {
                let hit = addr.equals_constant(m, i as u64);
                c = c.and(
                    Formula::word_is(m, &format!("DMem_w{i}"), &data)
                        .when(hit)
                        .delay(observe),
                );
            }
            out.push(Assertion::named("survive_dmem_word", a, c));
        }
    }
    out
}

/// Word-aligned symbolic byte address built from a symbolic word address:
/// bits `[2, 2+addr_bits)` are the word address, everything else is zero.
fn aligned_address(word_addr: &BddVec) -> BddVec {
    let mut bits = vec![ssr_bdd::Bdd::FALSE; 32];
    for (i, &b) in word_addr.bits().iter().enumerate() {
        bits[2 + i] = b;
    }
    BddVec::from_bits(bits)
}

/// Declares the symbolic PC word address `{tag}_pcw` of an equivalence
/// assertion's [`present_state`].
fn pc_word(harness: &CoreHarness, m: &mut BddManager, tag: &str) -> BddVec {
    let addr_bits = harness.config().imem_addr_bits();
    harness.order().word(m, &format!("{tag}_pcw"), addr_bits)
}

/// The present state shared by every equivalence assertion: a symbolic,
/// word-aligned PC at word address `word_addr` (see [`pc_word`]) and the
/// instruction under test placed there in the retained instruction
/// memory.  Returns the antecedent fragment and the PC vector.
fn present_state(
    harness: &CoreHarness,
    m: &mut BddManager,
    word_addr: &BddVec,
    instruction: u32,
    s: &SleepResumeSchedule,
) -> (Formula, BddVec) {
    let depth = s.depth;
    let pc = aligned_address(word_addr);
    let instr_vec = BddVec::constant(m, instruction as u64, 32);

    let a = s
        .formula()
        .and(CoreHarness::imem_port_idle(depth))
        .and(CoreHarness::pc_is(m, &pc, 0, 1))
        .and(harness.imem_indexed_is(m, word_addr, &instr_vec, 0, 1));
    (a, pc)
}

/// Time at which the interrupted instruction's commit becomes visible after
/// the resume (the second post-resume cycle; the first is the IFR recovery
/// cycle).
fn commit_time(s: &SleepResumeSchedule) -> usize {
    s.post_commit_visible_at(1)
}

/// Builds the architectural-equivalence assertions, one per instruction
/// class.
pub fn equivalence_suite(harness: &CoreHarness, m: &mut BddManager) -> Vec<Assertion> {
    equivalence_picked(harness, m, &mut Pick::all())
}

/// The equivalence assertions `pick` selects.  Each declares its
/// `_pcw` word, builds its present state if picked, then declares its
/// operands: the whole suite's declaration order.
fn equivalence_picked(
    harness: &CoreHarness,
    m: &mut BddManager,
    pick: &mut Pick,
) -> Vec<Assertion> {
    let s = schedule();
    let commit = commit_time(&s);
    let mut out = Vec::new();

    // R-type `add r3, r1, r2`.
    {
        let instr = Instr::Add {
            rd: 3,
            rs: 1,
            rt: 2,
        }
        .encode();
        let picked = pick.next();
        let word_addr = pc_word(harness, m, "eq_add");
        let present = picked.then(|| present_state(harness, m, &word_addr, instr, &s));
        // The register operands meet in the 32-bit ALU adder; interleave
        // their variables or the carry chain's BDD is exponential.
        let (v1, v2) = harness.order().pair(m, "eq_add_r1", "eq_add_r2", 32);
        if let Some((base, pc)) = present {
            let a = base
                .and(CoreHarness::register_is(m, 1, &v1, 0, 1))
                .and(CoreHarness::register_is(m, 2, &v2, 0, 1));
            let sum = v1.add(m, &v2).expect("width");
            let pc_next = pc.add_constant(m, 4);
            let c = Formula::word_is(m, "Registers_w3", &sum)
                .and(Formula::word_is(m, "Registers_w1", &v1))
                .and(Formula::word_is(m, "Registers_w2", &v2))
                .and(Formula::word_is(m, "PC", &pc_next))
                .delay(commit);
            out.push(Assertion::named("equivalence_add", a, c));
        }
    }

    // `sw r2, 0(r1)` — the data memory receives the stored word, the
    // register bank is untouched.
    {
        let instr = Instr::Sw {
            rt: 2,
            rs: 1,
            imm: 0,
        }
        .encode();
        let picked = pick.next();
        let word_addr = pc_word(harness, m, "eq_sw");
        let present = picked.then(|| present_state(harness, m, &word_addr, instr, &s));
        let dmem_bits = harness.config().dmem_addr_bits();
        let base_word = harness.order().word(m, "eq_sw_addr", dmem_bits);
        let stored = harness.order().word(m, "eq_sw_data", 32);
        if let Some((base, pc)) = present {
            let base_addr = aligned_address(&base_word);
            let a = base
                .and(CoreHarness::register_is(m, 1, &base_addr, 0, 1))
                .and(CoreHarness::register_is(m, 2, &stored, 0, 1));
            let pc_next = pc.add_constant(m, 4);
            let mut c = Formula::word_is(m, "PC", &pc_next).and(Formula::word_is(
                m,
                "Registers_w2",
                &stored,
            ));
            for i in 0..harness.config().dmem_depth {
                let hit = base_word.equals_constant(m, i as u64);
                c = c.and(Formula::word_is(m, &format!("DMem_w{i}"), &stored).when(hit));
            }
            out.push(Assertion::named("equivalence_sw", a, c.delay(commit)));
        }
    }

    // `beq r1, r2, +2` — taken and not-taken, decided symbolically by the
    // register contents.
    {
        let instr = Instr::Beq {
            rs: 1,
            rt: 2,
            imm: 2,
        }
        .encode();
        let picked = pick.next();
        let word_addr = pc_word(harness, m, "eq_beq");
        let present = picked.then(|| present_state(harness, m, &word_addr, instr, &s));
        // The operands meet in the ALU's equality comparator; interleaved
        // ordering keeps it linear (sequential ordering is exponential).
        let (v1, v2) = harness.order().pair(m, "eq_beq_r1", "eq_beq_r2", 32);
        if let Some((base, pc)) = present {
            let a = base
                .and(CoreHarness::register_is(m, 1, &v1, 0, 1))
                .and(CoreHarness::register_is(m, 2, &v2, 0, 1));
            let taken = v1.equals(m, &v2).expect("width");
            let pc_plus_4 = pc.add_constant(m, 4);
            let pc_taken = pc_plus_4.add_constant(m, 8);
            let pc_next = pc_taken.mux(m, taken, &pc_plus_4).expect("width");
            let c = Formula::word_is(m, "PC", &pc_next)
                .and(Formula::word_is(m, "Registers_w1", &v1))
                .and(Formula::word_is(m, "Registers_w2", &v2))
                .delay(commit);
            out.push(Assertion::named("equivalence_beq", a, c));
        }
    }

    // `lw r2, 0(r1)` — the loaded register receives the addressed data-memory
    // word.
    {
        let instr = Instr::Lw {
            rt: 2,
            rs: 1,
            imm: 0,
        }
        .encode();
        let picked = pick.next();
        let word_addr = pc_word(harness, m, "eq_lw");
        let present = picked.then(|| present_state(harness, m, &word_addr, instr, &s));
        let dmem_bits = harness.config().dmem_addr_bits();
        let base_word = harness.order().word(m, "eq_lw_addr", dmem_bits);
        let loaded = harness.order().word(m, "eq_lw_data", 32);
        if let Some((base, pc)) = present {
            let base_addr = aligned_address(&base_word);
            let a = base
                .and(CoreHarness::register_is(m, 1, &base_addr, 0, 1))
                .and(harness.dmem_indexed_is(m, &base_word, &loaded, 0, 1));
            let pc_next = pc.add_constant(m, 4);
            let c = Formula::word_is(m, "PC", &pc_next)
                .and(Formula::word_is(m, "Registers_w2", &loaded))
                .and(Formula::word_is(m, "Registers_w1", &base_addr))
                .delay(commit);
            out.push(Assertion::named("equivalence_lw", a, c));
        }
    }

    out
}

/// The complete Property II suite: survival plus equivalence.
pub fn suite(harness: &CoreHarness, m: &mut BddManager) -> Vec<Assertion> {
    build(harness, m, &mut Pick::all())
}

/// The suite's assertions that `pick` selects, every variable of the
/// suite declared (see [`Pick`]).
pub(crate) fn build(harness: &CoreHarness, m: &mut BddManager, pick: &mut Pick) -> Vec<Assertion> {
    let mut out = survival_picked(harness, m, pick);
    out.extend(equivalence_picked(harness, m, pick));
    out
}

/// Convenience for the selection-analysis oracle and the examples: `true`
/// iff the whole Property II suite holds for the given harness.
pub fn holds(harness: &CoreHarness) -> bool {
    let mut m = BddManager::new();
    let suite = suite(harness, &mut m);
    match harness.check_all(&mut m, &suite) {
        Ok(reports) => reports.iter().all(|r| r.holds),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_cpu::{ControlPath, CoreConfig, RetentionPolicy};

    #[test]
    fn property_two_holds_with_selective_retention_and_the_ifr_fix() {
        let harness = CoreHarness::new(CoreConfig::small_test()).expect("core");
        let mut m = BddManager::new();
        let suite = suite(&harness, &mut m);
        assert_eq!(suite.len(), 8);
        let reports = harness.check_all(&mut m, &suite).expect("checks");
        for r in &reports {
            assert!(
                r.holds,
                "Property II `{}` should hold: {:?}",
                r.name.as_deref().unwrap_or("?"),
                r.counterexample.as_ref().map(|c| &c.failures)
            );
        }
    }

    #[test]
    fn property_two_fails_with_the_unsafe_reset_control_path() {
        // The paper's original observation: after resume the control unit
        // drives values derived from the reset opcode and the CPU
        // malfunctions.
        let mut cfg = CoreConfig::small_test();
        cfg.control_path = ControlPath::UnsafeResetIfr;
        let harness = CoreHarness::new(cfg).expect("core");
        let mut m = BddManager::new();
        let suite = equivalence_suite(&harness, &mut m);
        let reports = harness.check_all(&mut m, &suite).expect("checks");
        let failing: Vec<_> = reports.iter().filter(|r| !r.holds).collect();
        assert!(
            !failing.is_empty(),
            "the unsafe control path must be caught by Property II"
        );
        // At least one failure manifests in the architectural state (PC or a
        // register), exactly the corruption the paper warns about.
        assert!(failing.iter().any(|r| r
            .counterexample
            .as_ref()
            .map(|c| c
                .failures
                .iter()
                .any(|f| f.node.starts_with("PC[") || f.node.starts_with("Registers_")))
            .unwrap_or(false)));
    }

    #[test]
    fn property_two_fails_without_retention() {
        let mut cfg = CoreConfig::small_test();
        cfg.retention = RetentionPolicy::none();
        let harness = CoreHarness::new(cfg).expect("core");
        let mut m = BddManager::new();
        let suite = survival_suite(&harness, &mut m);
        let reports = harness.check_all(&mut m, &suite).expect("checks");
        assert!(
            reports.iter().any(|r| !r.holds),
            "without retention registers the state cannot survive the reset pulse"
        );
        assert!(!holds(&harness));
    }
}
