//! The §III-B instruction-memory / IFR property.
//!
//! The paper's quoted Property II instance writes a symbolic word into the
//! instruction memory, reads it back as the instruction stream, and shows
//! that the opcode field survives the sleep/resume detour *through* the
//! non-retained Instruction Fetch Register: the IFR is reset during sleep
//! and re-captures the correct (read-after-write) value from the retained
//! instruction memory on the first post-resume clock edge.
//!
//! [`assertion`] reproduces that property on the generated core, with the
//! memory's initial contents supplied either *directly* (one fresh symbolic
//! variable per stored bit) or via *symbolic indexing* (only the addressed
//! word is constrained) — the two antecedent styles compared by experiment
//! E7.  The check-time comparison between the two styles and the absolute
//! wall-clock of the 256-word configuration (the paper reports 10.83 s on a
//! 2005-era laptop) are measured by ssrbench's `ifr-paper` workload and by
//! `ssr check --config paper --suite ifr --granularity assertion`, which
//! runs each style as its own job.

use ssr_bdd::{BddManager, BddVec};
use ssr_cpu::ControlPath;
use ssr_retention::SleepResumeSchedule;
use ssr_ste::indexing::{direct_memory_antecedent, memory_word, raw_expected};
use ssr_ste::{Assertion, Formula};

use crate::harness::CoreHarness;
use crate::suite::Pick;

/// How the instruction memory's initial contents are described to the
/// antecedent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AntecedentStyle {
    /// One fresh symbolic variable per stored bit (`depth × 32` variables).
    Direct,
    /// Symbolic indexing: only the word addressed by the (symbolic) read
    /// address is constrained (`log₂ depth + 32` variables).
    Indexed,
}

/// The sleep/resume schedule used by the property: one active cycle before
/// sleep (during which the write port loads the symbolic word) and one after
/// resume (during which the IFR re-captures the opcode).
pub fn schedule() -> SleepResumeSchedule {
    SleepResumeSchedule::new(1, 1)
}

/// The IFR suite's assertions that `pick` selects: the direct style, then
/// the indexed one.  A style that is not picked still declares its
/// variables, so both builds name the suite's variables in one order.
pub(crate) fn build(harness: &CoreHarness, m: &mut BddManager, pick: &mut Pick) -> Vec<Assertion> {
    let mut out = Vec::new();
    for style in [AntecedentStyle::Direct, AntecedentStyle::Indexed] {
        if pick.next() {
            out.push(assertion(harness, m, style));
        } else {
            declare(harness, m, style);
        }
    }
    out
}

/// Declares the variables [`assertion`] declares for `style`, in the same
/// order, and builds nothing.
fn declare(harness: &CoreHarness, m: &mut BddManager, style: AntecedentStyle) {
    ports(harness, m);
    match style {
        AntecedentStyle::Direct => {
            for i in 0..harness.config().imem_depth {
                memory_word(m, i, 32);
            }
        }
        AntecedentStyle::Indexed => {
            indexed_word(m);
        }
    }
}

/// The symbolic read address (the PC's word address), write address and
/// write data.
fn ports(harness: &CoreHarness, m: &mut BddManager) -> (BddVec, BddVec, BddVec) {
    let addr_bits = harness.config().imem_addr_bits();
    (
        BddVec::new_input(m, "ifr_ra", addr_bits),
        BddVec::new_input(m, "ifr_wa", addr_bits),
        BddVec::new_input(m, "ifr_wd", 32),
    )
}

/// The indexed style's symbolic contents of the addressed word.
fn indexed_word(m: &mut BddManager) -> BddVec {
    BddVec::new_input(m, "ifr_mem", 32)
}

/// Builds the instruction-memory / IFR read-after-write property.
///
/// The antecedent
/// * initialises the instruction memory (per `style`),
/// * drives the load port with a symbolic write address and write data while
///   the pre-sleep clock cycle captures the write,
/// * holds a symbolic, word-aligned PC as the read address,
/// * parks the control path on an inert opcode so the architectural state is
///   untouched, and
/// * runs the full sleep/resume hand-shake.
///
/// The consequent states that the instruction stream equals the
/// read-after-write function `RAW` once the write has landed, that the IFR
/// carries its reset value while the core is asleep, and that it re-captures
/// `RAW[31:26]` on the first post-resume clock edge.
pub fn assertion(harness: &CoreHarness, m: &mut BddManager, style: AntecedentStyle) -> Assertion {
    let cfg = harness.config();
    let s = schedule();
    let depth = s.depth;

    // Symbolic read address (the PC) and write port values.
    let (read_word, write_word, write_data) = ports(harness, m);

    let mut pc_bits = vec![ssr_bdd::Bdd::FALSE; 32];
    for (i, &b) in read_word.bits().iter().enumerate() {
        pc_bits[2 + i] = b;
    }
    let pc = BddVec::from_bits(pc_bits);

    // Memory initialisation and the expected read-after-write value.
    let (memory_init, expected_word) = match style {
        AntecedentStyle::Direct => {
            let (formula, words) = direct_memory_antecedent(m, "IMem", cfg.imem_depth, 32, 0, 1);
            let raw = raw_expected(
                m,
                &read_word,
                &write_word,
                ssr_bdd::Bdd::TRUE,
                &write_data,
                &words,
            );
            (formula, raw)
        }
        AntecedentStyle::Indexed => {
            let data = indexed_word(m);
            let formula = harness.imem_indexed_is(m, &read_word, &data, 0, 1);
            let write_hits_read = write_word.equals(m, &read_word).expect("width");
            let raw = write_data.mux(m, write_hits_read, &data).expect("width");
            (formula, raw)
        }
    };

    // The antecedent.
    let mut a = s
        .formula()
        .and(Formula::node_is_from_to("IMemRead", true, 0, depth))
        .and(Formula::node_is_from_to("IMemWrite", true, 0, 2))
        .and(Formula::node_is_from_to("IMemWrite", false, 2, depth))
        .and(CoreHarness::word_over(m, "IMemWriteAdd", &write_word, 0, 2))
        .and(CoreHarness::word_over(
            m,
            "IMemWriteData",
            &write_data,
            0,
            2,
        ))
        .and(CoreHarness::pc_is(m, &pc, 0, 2))
        .and(memory_init);

    // Park the control path so the pre-sleep clock edge does not disturb the
    // architectural state (the paper's property similarly only talks about
    // the memory and the IFR).
    let (has_ifr, ifr_reset) = match cfg.control_path {
        ControlPath::Combinational => (false, 0u64),
        ControlPath::RefreshingIfr => (true, 0b111111),
        ControlPath::UnsafeResetIfr => (true, 0b000000),
    };
    assert!(
        has_ifr,
        "the instruction-memory/IFR property targets cores with an IFR control path \
         (the combinational variant has no IFR to observe)"
    );
    a = a.and(Formula::word_is_const("IFR_Instr", 0b111111, 6).from_to(0, 2));

    // The consequent.
    // 1. The instruction stream carries RAW from the moment the write lands
    //    until the end of the run (the PC is parked, the memory is retained).
    let write_lands = s.pre_commit_visible_at(0);
    let mut c = Formula::True;
    for t in write_lands..depth {
        c = c.and(Formula::word_is(m, "Instruction", &expected_word).delay(t));
    }
    // 2. The IFR carries its reset value while the core is asleep (from one
    //    step after the reset pulse until the first post-resume edge has
    //    been absorbed).
    let reset_seen = s.nrst_low_at + 1;
    let recaptured = s.post_commit_visible_at(0);
    for t in reset_seen..recaptured {
        c = c.and(Formula::word_is_const("IFR_Instr", ifr_reset, 6).delay(t));
    }
    // 3. After the first post-resume rising edge the IFR has re-captured the
    //    opcode field of RAW from the retained memory.
    let opcode_expected = expected_word.slice(26, 32);
    for t in recaptured..depth {
        c = c.and(Formula::word_is(m, "IFR_Instr", &opcode_expected).delay(t));
    }

    let name = match style {
        AntecedentStyle::Direct => "ifr_raw_direct",
        AntecedentStyle::Indexed => "ifr_raw_indexed",
    };
    Assertion::named(name, a, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_cpu::CoreConfig;

    #[test]
    fn ifr_raw_property_holds_in_both_antecedent_styles() {
        // The small core's 8-word instruction memory, and a 64-word one.
        for imem_depth in [8, 64] {
            let mut config = CoreConfig::small_test();
            config.imem_depth = imem_depth;
            let harness = CoreHarness::new(config).expect("core");
            for style in [AntecedentStyle::Direct, AntecedentStyle::Indexed] {
                let mut m = BddManager::new();
                let a = assertion(&harness, &mut m, style);
                let report = harness.check(&mut m, &a).expect("checks");
                assert!(
                    report.holds,
                    "{style:?} style at depth {imem_depth} should hold: {:?}",
                    report.counterexample.as_ref().map(|c| &c.failures)
                );
                assert!(report.antecedent_conflict.is_false());
            }
        }
    }

    #[test]
    fn indexed_antecedent_uses_far_fewer_variables() {
        let harness = CoreHarness::new(CoreConfig::small_test()).expect("core");
        let mut m_direct = BddManager::new();
        let _ = assertion(&harness, &mut m_direct, AntecedentStyle::Direct);
        let mut m_indexed = BddManager::new();
        let _ = assertion(&harness, &mut m_indexed, AntecedentStyle::Indexed);
        // Direct: one variable per stored bit (8 × 32) plus the port values.
        // Indexed: one 32-bit data word plus the port values.
        assert!(m_indexed.var_count() * 4 < m_direct.var_count());
    }

    #[test]
    fn ifr_property_rejects_cores_without_an_ifr() {
        let mut cfg = CoreConfig::small_test();
        cfg.control_path = ssr_cpu::ControlPath::Combinational;
        let harness = CoreHarness::new(cfg).expect("core");
        let mut m = BddManager::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = assertion(&harness, &mut m, AntecedentStyle::Indexed);
        }));
        assert!(
            result.is_err(),
            "cores without an IFR are rejected up front"
        );
    }
}
