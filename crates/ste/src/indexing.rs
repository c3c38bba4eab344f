//! Symbolic indexing for memory arrays.
//!
//! Verifying a `2ᵏ`-word memory naively requires one fresh symbolic variable
//! per stored bit — `2ᵏ · w` variables — and the antecedent constrains every
//! word.  *Symbolic indexing* (Pandey et al., DAC 1997, cited by the paper)
//! instead introduces only the `k` address variables and `w` data variables
//! and constrains **only the addressed word**:
//!
//! ```text
//! for every word i:   (Mem_wᵢ is D) when (Addr = i)
//! ```
//!
//! The paper reports that this turns the linear time/space cost of checking
//! SRAMs into a logarithmic one; experiment E7 reproduces that trend by
//! sweeping the memory depth with both antecedent styles.

use ssr_bdd::{BddManager, BddVec};

use crate::formula::Formula;

/// Declares the symbolic contents `mem{index}` of one memory word, as
/// [`direct_memory_antecedent`] names them.
pub fn memory_word(m: &mut BddManager, index: usize, width: usize) -> BddVec {
    BddVec::new_input(m, &format!("mem{index}"), width)
}

/// Builds the *direct* (non-indexed) memory antecedent: a fresh symbolic
/// variable per stored bit.  Word `i` of the memory `prefix` is asserted to
/// hold the fresh vector [`memory_word`]`(i)` over the time interval
/// `[from, to)`.
///
/// Returns the formula together with the per-word symbolic vectors (needed
/// to phrase the expected read data).
pub fn direct_memory_antecedent(
    m: &mut BddManager,
    prefix: &str,
    depth: usize,
    width: usize,
    from: usize,
    to: usize,
) -> (Formula, Vec<BddVec>) {
    let mut words = Vec::with_capacity(depth);
    let mut formula = Formula::True;
    for i in 0..depth {
        let word = memory_word(m, i, width);
        let f = Formula::word_is(m, &format!("{prefix}_w{i}"), &word).from_to(from, to);
        formula = formula.and(f);
        words.push(word);
    }
    (formula, words)
}

/// Builds the *symbolically indexed* memory antecedent: only the word
/// addressed by `addr` is constrained, to hold `data`, over `[from, to)`.
///
/// `addr` must be wide enough to address `depth` words.
pub fn indexed_memory_antecedent(
    m: &mut BddManager,
    prefix: &str,
    depth: usize,
    addr: &BddVec,
    data: &BddVec,
    from: usize,
    to: usize,
) -> Formula {
    let mut formula = Formula::True;
    for i in 0..depth {
        let hit = addr.equals_constant(m, i as u64);
        let f = Formula::word_is(m, &format!("{prefix}_w{i}"), data)
            .when(hit)
            .from_to(from, to);
        formula = formula.and(f);
    }
    formula
}

/// The read-after-write ("RAW") function quoted in the paper: the value read
/// from address `ra` after a (potential) write of `wd` to `wa` under write
/// enable `we`, given the memory's initial contents `words`:
///
/// ```text
/// RAW = (ra = i) → ((we ∧ wa = i) → wd | memᵢ)    for each word i
/// ```
///
/// # Panics
/// Panics if `words` is empty or the word widths disagree with `wd`.
pub fn raw_expected(
    m: &mut BddManager,
    ra: &BddVec,
    wa: &BddVec,
    we: ssr_bdd::Bdd,
    wd: &BddVec,
    words: &[BddVec],
) -> BddVec {
    assert!(!words.is_empty(), "memory must have at least one word");
    let width = wd.width();
    assert!(
        words.iter().all(|w| w.width() == width),
        "word width mismatch in RAW"
    );
    let mut result = BddVec::zeros(width);
    for (i, word) in words.iter().enumerate() {
        let wa_hit = wa.equals_constant(m, i as u64);
        let write_here = m.and(we, wa_hit);
        let content = wd.mux(m, write_here, word).expect("same width");
        let ra_hit = ra.equals_constant(m, i as u64);
        result = content.mux(m, ra_hit, &result).expect("same width");
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assertion, Ste};
    use ssr_bdd::{Assignment, Bdd};
    use ssr_netlist::builder::{MemoryConfig, NetlistBuilder, ReadPort, WritePort};
    use ssr_netlist::RegKind;
    use ssr_sim::CompiledModel;

    /// STE read-after-write on a standalone retained `depth × 16` SRAM:
    /// one write cycle, then a combinational read of any address returns
    /// the written data on an address match and the original word
    /// otherwise.  `indexed` picks the antecedent style for the original
    /// contents.
    fn sram_raw_holds(depth: usize, indexed: bool) -> bool {
        const WIDTH: usize = 16;
        let addr_bits = depth.trailing_zeros() as usize;
        let mut b = NetlistBuilder::new("sram");
        let clk = b.input("clock");
        let nrst = b.input("NRST");
        let nret = b.input("NRET");
        let write = WritePort {
            addr: b.word_input("WriteAdd", addr_bits),
            data: b.word_input("WriteData", WIDTH),
            enable: b.input("MemWrite"),
        };
        let read = ReadPort {
            addr: b.word_input("ReadAdd", addr_bits),
            enable: Some(b.input("MemRead")),
        };
        let kind = RegKind::Retention { reset_value: false };
        let config = MemoryConfig {
            depth,
            width: WIDTH,
            kind,
        };
        let rdata = b.memory(
            "Mem",
            config,
            clk,
            Some(nrst),
            Some(nret),
            Some(&write),
            &[read],
        );
        b.mark_word_output(&rdata[0]);
        let netlist = b.finish().expect("valid");
        let model = CompiledModel::new(&netlist).expect("compiles");

        let mut m = BddManager::new();
        let ra = BddVec::new_input(&mut m, "ra", addr_bits);
        let wa = BddVec::new_input(&mut m, "wa", addr_bits);
        let wd = BddVec::new_input(&mut m, "wd", WIDTH);
        let (init, expected) = if indexed {
            let data = BddVec::new_input(&mut m, "d", WIDTH);
            let init = indexed_memory_antecedent(&mut m, "Mem", depth, &ra, &data, 0, 1);
            let hit = wa.equals(&mut m, &ra).expect("width");
            (init, wd.mux(&mut m, hit, &data).expect("width"))
        } else {
            let (init, words) = direct_memory_antecedent(&mut m, "Mem", depth, WIDTH, 0, 1);
            (init, raw_expected(&mut m, &ra, &wa, Bdd::TRUE, &wd, &words))
        };
        let a = Formula::node_is_from_to("clock", false, 0, 1)
            .and(Formula::node_is_from_to("clock", true, 1, 2))
            .and(Formula::node_is_from_to("clock", false, 2, 3))
            .and(Formula::node_is_from_to("NRST", true, 0, 3))
            .and(Formula::node_is_from_to("NRET", true, 0, 3))
            .and(Formula::node_is_from_to("MemRead", true, 0, 3))
            .and(Formula::node_is_from_to("MemWrite", true, 0, 2))
            .and(Formula::word_is(&mut m, "ReadAdd", &ra).from_to(0, 3))
            .and(Formula::word_is(&mut m, "WriteAdd", &wa).from_to(0, 2))
            .and(Formula::word_is(&mut m, "WriteData", &wd).from_to(0, 2))
            .and(init);
        let c = Formula::word_is(&mut m, "Mem_rdata0", &expected).delay(2);
        Ste::new(&model)
            .check(&mut m, &Assertion::new(a, c))
            .expect("checks")
            .holds
    }

    #[test]
    fn raw_selects_written_or_original_data() {
        let mut m = BddManager::new();
        let ra = BddVec::new_input(&mut m, "RA", 2);
        let wa = BddVec::new_input(&mut m, "WA", 2);
        let we = m.new_var("we");
        let wd = BddVec::constant(&mut m, 0xAA, 8);
        let words: Vec<BddVec> = (0..4)
            .map(|i| BddVec::constant(&mut m, 0x10 + i, 8))
            .collect();
        let raw = raw_expected(&mut m, &ra, &wa, we, &wd, &words);

        // Case 1: write enabled, WA == RA == 2 → read the written data.
        let mut asg = Assignment::new();
        let ra_vars = ra.support(&m);
        let wa_vars = wa.support(&m);
        asg.set(ra_vars[0], false);
        asg.set(ra_vars[1], true);
        asg.set(wa_vars[0], false);
        asg.set(wa_vars[1], true);
        asg.set(4, true); // we
        assert_eq!(raw.decode(&m, &asg), Some(0xAA));

        // Case 2: write disabled → read the original content of word 2.
        asg.set(4, false);
        assert_eq!(raw.decode(&m, &asg), Some(0x12));

        // Case 3: write to a different address → original content again.
        asg.set(4, true);
        asg.set(wa_vars[0], true); // WA = 3
        assert_eq!(raw.decode(&m, &asg), Some(0x12));

        // The same expectation holds of real SRAM netlists under STE.
        for depth in [8, 32, 128] {
            assert!(sram_raw_holds(depth, false), "direct, depth {depth}");
        }
    }

    #[test]
    fn direct_antecedent_sizes() {
        let mut m = BddManager::new();
        let (f, words) = direct_memory_antecedent(&mut m, "M", 4, 8, 0, 1);
        assert_eq!(words.len(), 4);
        assert_eq!(m.var_count(), 32, "one variable per stored bit");
        // The formula mentions all 32 storage nets.
        assert_eq!(f.nodes().len(), 32);
    }

    #[test]
    fn indexed_antecedent_uses_logarithmically_many_variables() {
        let mut m = BddManager::new();
        let addr = BddVec::new_input(&mut m, "A", 2);
        let data = BddVec::new_input(&mut m, "D", 8);
        let f = indexed_memory_antecedent(&mut m, "M", 4, &addr, &data, 0, 1);
        assert_eq!(m.var_count(), 10, "address + data variables only");
        // The formula still mentions every storage net (guarded), but the
        // variable count is what drives BDD cost.
        assert_eq!(f.nodes().len(), 32);
    }

    #[test]
    fn indexed_raw_expectation() {
        // Read-after-write on real SRAM netlists under STE, indexed style.
        for depth in [8, 32, 128] {
            assert!(sram_raw_holds(depth, true), "indexed, depth {depth}");
        }
    }
}
