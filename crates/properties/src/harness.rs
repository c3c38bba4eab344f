//! Shared plumbing for the property suites: the generated core, its compiled
//! model and the symbolic present-state helpers.

use std::sync::Arc;

use ssr_bdd::{BddManager, BddVec};
use ssr_cpu::{build_core, CoreConfig};
use ssr_netlist::{Netlist, NetlistError};
use ssr_sim::CompiledModel;
use ssr_ste::{Assertion, CheckReport, Formula, Ste, SteError};

/// A generated core together with everything needed to check STE assertions
/// against it.
///
/// The netlist is generated and the model compiled (validated + topo-sorted)
/// exactly once, at construction; both are immutable afterwards, so a
/// harness wrapped in an [`Arc`] can be shared across campaign jobs and
/// worker threads without recompiling anything per assertion.
#[derive(Debug)]
pub struct CoreHarness {
    config: CoreConfig,
    model: CompiledModel,
}

impl CoreHarness {
    /// Generates the core for `config` and compiles its model.
    ///
    /// # Errors
    /// Returns a [`NetlistError`] if generation fails (a generator bug).
    pub fn new(config: CoreConfig) -> Result<Self, NetlistError> {
        let netlist = Arc::new(build_core(&config)?);
        let model = CompiledModel::from_arc(netlist).expect("generated cores always compile");
        Ok(CoreHarness { config, model })
    }

    /// The configuration the core was generated from.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// The generated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.model.netlist()
    }

    /// The compiled model (built once at construction).
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// Checks one assertion against the pre-compiled model.
    ///
    /// # Errors
    /// Propagates elaboration errors from the STE engine.
    pub fn check(
        &self,
        m: &mut BddManager,
        assertion: &Assertion,
    ) -> Result<CheckReport, SteError> {
        Ste::new(&self.model).check(m, assertion)
    }

    /// Checks a whole suite of assertions against the pre-compiled model.
    ///
    /// # Errors
    /// Propagates elaboration errors from the STE engine.
    pub fn check_all(
        &self,
        m: &mut BddManager,
        assertions: &[Assertion],
    ) -> Result<Vec<CheckReport>, SteError> {
        Ste::new(&self.model).check_all(m, assertions)
    }

    // ------------------------------------------------------------------
    // Present-state builders
    // ------------------------------------------------------------------

    /// Asserts the word `prefix[0..width)` equals `value` over `[from, to)`.
    pub fn word_over(
        m: &mut BddManager,
        prefix: &str,
        value: &BddVec,
        from: usize,
        to: usize,
    ) -> Formula {
        Formula::word_is(m, prefix, value).from_to(from, to)
    }

    /// Asserts the full PC register equals `pc` over `[from, to)`.
    pub fn pc_is(m: &mut BddManager, pc: &BddVec, from: usize, to: usize) -> Formula {
        Self::word_over(m, "PC", pc, from, to)
    }

    /// Asserts that register `index` of the bank holds `value` over
    /// `[from, to)`.
    pub fn register_is(
        m: &mut BddManager,
        index: usize,
        value: &BddVec,
        from: usize,
        to: usize,
    ) -> Formula {
        Self::word_over(m, &format!("Registers_w{index}"), value, from, to)
    }

    /// Asserts the instruction-memory word addressed by the word address
    /// `addr` (a [`BddVec`] as wide as the memory's address) holds `value`,
    /// using the symbolic-indexing style: only the addressed word is
    /// constrained.
    pub fn imem_indexed_is(
        &self,
        m: &mut BddManager,
        addr: &BddVec,
        value: &BddVec,
        from: usize,
        to: usize,
    ) -> Formula {
        ssr_ste::indexing::indexed_memory_antecedent(
            m,
            "IMem",
            self.config.imem_depth,
            addr,
            value,
            from,
            to,
        )
    }

    /// Asserts the data-memory word addressed by `addr` holds `value`
    /// (symbolic indexing).
    pub fn dmem_indexed_is(
        &self,
        m: &mut BddManager,
        addr: &BddVec,
        value: &BddVec,
        from: usize,
        to: usize,
    ) -> Formula {
        ssr_ste::indexing::indexed_memory_antecedent(
            m,
            "DMem",
            self.config.dmem_depth,
            addr,
            value,
            from,
            to,
        )
    }

    /// Asserts the quiescent operating conditions the paper's Property I
    /// uses: `NRET` and `NRST` held high and the instruction-memory load
    /// port idle, over `[0, to)`.
    pub fn nominal_controls(to: usize) -> Formula {
        Formula::node_is_from_to("NRET", true, 0, to)
            .and(Formula::node_is_from_to("NRST", true, 0, to))
            .and(Formula::node_is_from_to("IMemWrite", false, 0, to))
            .and(Formula::node_is_from_to("IMemRead", true, 0, to))
    }

    /// Asserts the instruction-memory port controls during a sleep/resume
    /// schedule: load port idle, read port enabled, for `depth` time units.
    pub fn imem_port_idle(depth: usize) -> Formula {
        Formula::node_is_from_to("IMemWrite", false, 0, depth)
            .and(Formula::node_is_from_to("IMemRead", true, 0, depth))
    }

    /// The name of the control-unit opcode input word for this
    /// configuration (`IFR_Instr` when an IFR is present, `Opcode`
    /// otherwise).
    pub fn opcode_net(&self) -> &'static str {
        match self.config.control_path {
            ssr_cpu::ControlPath::Combinational => "Opcode",
            _ => "IFR_Instr",
        }
    }
}
