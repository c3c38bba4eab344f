//! Configuration of the generated core.

/// Which parts of the state are built from retention registers.
///
/// The paper's headline finding is that only the programmer-visible
/// ("architectural") state — PC, instruction memory, register bank and data
/// memory — needs retention; everything micro-architectural can be an
/// ordinary register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Retain the program counter.
    pub pc: bool,
    /// Retain the instruction memory.
    pub imem: bool,
    /// Retain the register bank.
    pub regfile: bool,
    /// Retain the data memory.
    pub dmem: bool,
    /// Retain the micro-architectural registers too (the IFR / decode
    /// latches).  Only `true` for the "full retention" baseline.
    pub micro: bool,
}

impl RetentionPolicy {
    /// The paper's recommendation: retain exactly the architectural state.
    pub fn architectural() -> Self {
        RetentionPolicy {
            pc: true,
            imem: true,
            regfile: true,
            dmem: true,
            micro: false,
        }
    }

    /// Retain everything (the conservative, area-hungry baseline).
    pub fn full() -> Self {
        RetentionPolicy {
            pc: true,
            imem: true,
            regfile: true,
            dmem: true,
            micro: true,
        }
    }

    /// Retain nothing (state is lost across power-down).
    pub fn none() -> Self {
        RetentionPolicy {
            pc: false,
            imem: false,
            regfile: false,
            dmem: false,
            micro: false,
        }
    }
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy::architectural()
    }
}

/// How the control unit receives the instruction opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlPath {
    /// Purely combinational decode straight from the instruction-memory
    /// output.  The paper notes that "in an unpipelined, simple CPU, an IFR
    /// is not necessary"; this is that variant.
    Combinational,
    /// The paper's fix (§III-B): a 6-bit Instruction Fetch Register (IFR)
    /// between `Instruction[31:26]` and the control unit, built from
    /// ordinary (non-retention) registers with asynchronous reset.  It is
    /// cleared by the reset pulse of the sleep sequence — to an opcode that
    /// the control unit decodes as *inert* (no architectural commits) — and
    /// re-captures the opcode from the *retained* instruction memory on the
    /// first post-resume rising clock edge, after which execution resumes
    /// exactly where it left off.  This is the "properly initialise them
    /// after the resume operation" requirement of the paper made concrete.
    RefreshingIfr,
    /// Reconstruction of the behaviour the paper observed *before* the fix:
    /// the control-path register resets to the all-zero opcode (`000000`,
    /// an R-type with `RegWrite` asserted).  After resume, the first rising
    /// clock edge commits architectural state under these stale control
    /// values before the register has re-captured the real opcode, so the
    /// retained register bank is corrupted whenever the interrupted
    /// instruction was not an R-type — "the state of the control would be
    /// some incorrect value that would subsequently cause an incorrect
    /// operation of the CPU".  The Property II suite produces a
    /// counterexample against this variant (experiment E5).
    UnsafeResetIfr,
}

/// Static parameters of the generated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Number of instruction-memory words (must be a power of two ≥ 2).
    pub imem_depth: usize,
    /// Number of data-memory words (must be a power of two ≥ 2).
    pub dmem_depth: usize,
    /// Number of general-purpose registers (must be a power of two ≥ 2,
    /// at most 32).
    pub reg_count: usize,
    /// Which state groups use retention registers.
    pub retention: RetentionPolicy,
    /// How the control unit is fed.
    pub control_path: ControlPath,
}

impl CoreConfig {
    /// The paper's configuration: 256-word instruction memory, 32 registers,
    /// architectural-only retention, IFR control path.
    pub fn paper() -> Self {
        CoreConfig {
            imem_depth: 256,
            dmem_depth: 256,
            reg_count: 32,
            retention: RetentionPolicy::architectural(),
            control_path: ControlPath::RefreshingIfr,
        }
    }

    /// A small configuration that keeps unit tests fast while exercising
    /// every structural feature (8-word memories, 8 registers).
    pub fn small_test() -> Self {
        CoreConfig {
            imem_depth: 8,
            dmem_depth: 8,
            reg_count: 8,
            retention: RetentionPolicy::architectural(),
            control_path: ControlPath::RefreshingIfr,
        }
    }

    /// Address width (in bits) of the instruction memory.
    pub fn imem_addr_bits(&self) -> usize {
        log2_ceil(self.imem_depth)
    }

    /// Address width (in bits) of the data memory.
    pub fn dmem_addr_bits(&self) -> usize {
        log2_ceil(self.dmem_depth)
    }

    /// Address width (in bits) of the register bank.
    pub fn reg_addr_bits(&self) -> usize {
        log2_ceil(self.reg_count)
    }

    /// Validates the configuration, panicking with a clear message on
    /// nonsensical parameters.
    ///
    /// # Panics
    /// Panics if any depth is not a power of two ≥ 2 or `reg_count > 32`.
    pub fn validate(&self) {
        let pow2 = |v: usize| v >= 2 && v.is_power_of_two();
        assert!(
            pow2(self.imem_depth),
            "imem_depth must be a power of two >= 2"
        );
        assert!(
            pow2(self.dmem_depth),
            "dmem_depth must be a power of two >= 2"
        );
        assert!(
            pow2(self.reg_count),
            "reg_count must be a power of two >= 2"
        );
        assert!(self.reg_count <= 32, "reg_count cannot exceed 32");
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::paper()
    }
}

fn log2_ceil(v: usize) -> usize {
    (usize::BITS - (v - 1).leading_zeros()).max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies() {
        let arch = RetentionPolicy::architectural();
        assert!(arch.pc && arch.imem && arch.regfile && arch.dmem);
        let none = RetentionPolicy::none();
        assert!(!(none.pc || none.imem || none.regfile || none.dmem));
        assert!(RetentionPolicy::full().micro);
        assert!(!RetentionPolicy::default().micro);
    }

    #[test]
    fn address_widths() {
        let c = CoreConfig::paper();
        assert_eq!(c.imem_addr_bits(), 8);
        assert_eq!(c.reg_addr_bits(), 5);
        let s = CoreConfig::small_test();
        assert_eq!(s.imem_addr_bits(), 3);
        assert_eq!(s.reg_addr_bits(), 3);
        c.validate();
        s.validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_depth_rejected() {
        let mut c = CoreConfig::small_test();
        c.imem_depth = 5;
        c.validate();
    }
}
