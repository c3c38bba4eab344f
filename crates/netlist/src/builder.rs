//! Word-level netlist construction.
//!
//! [`NetlistBuilder`] is the API used by the CPU generator: it creates named
//! nets, gates and registers, offers word-level helpers (adders, muxes,
//! comparators) and expands memory arrays into register words with address
//! decoders and read multiplexers — the same structure the paper obtains by
//! synthesising the RTL to BLIF.

use std::collections::HashMap;

use crate::cell::{Cell, CellId, CellKind, GateOp, RegKind};
use crate::error::NetlistError;
use crate::netlist::{Net, NetDriver, NetId, Netlist};

/// A memory write port: word-level address, data and a write-enable.
#[derive(Debug, Clone)]
pub struct WritePort {
    /// Write address bits, LSB first.
    pub addr: Vec<NetId>,
    /// Write data bits, LSB first.
    pub data: Vec<NetId>,
    /// Active-high write enable (the write happens on the rising clock edge
    /// while this is asserted).
    pub enable: NetId,
}

/// A memory read port: word-level address and an optional read-enable.
#[derive(Debug, Clone)]
pub struct ReadPort {
    /// Read address bits, LSB first.
    pub addr: Vec<NetId>,
    /// Optional active-high read enable; when de-asserted the read data is
    /// forced to zero (matching the `MemRead` behaviour in the paper's
    /// instruction-memory property).
    pub enable: Option<NetId>,
}

/// Static shape of a memory array.
#[derive(Debug, Clone, Copy)]
pub struct MemoryConfig {
    /// Number of words.
    pub depth: usize,
    /// Bits per word.
    pub width: usize,
    /// Register kind used for the storage cells (retention or not).
    pub kind: RegKind,
}

/// Builder for [`Netlist`]s.
///
/// Net and cell names must be unique; the builder panics on duplicates
/// because they indicate a programming error in a generator, not a runtime
/// condition.  Structural problems (undriven nets, arity violations) are
/// reported by [`NetlistBuilder::finish`].
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    nets: Vec<Net>,
    cells: Vec<Cell>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    by_name: HashMap<String, NetId>,
    gensym: u64,
    const_nets: [Option<NetId>; 2],
}

impl NetlistBuilder {
    /// Creates a builder for a design called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            nets: Vec::new(),
            cells: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            by_name: HashMap::new(),
            gensym: 0,
            const_nets: [None, None],
        }
    }

    fn add_net(&mut self, name: String, driver: NetDriver) -> NetId {
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate net name `{name}`"
        );
        let id = NetId(self.nets.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.nets.push(Net { name, driver });
        id
    }

    fn fresh_name(&mut self, hint: &str) -> String {
        loop {
            let name = format!("{hint}${}", self.gensym);
            self.gensym += 1;
            if !self.by_name.contains_key(&name) {
                return name;
            }
        }
    }

    /// Declares a primary input net.
    ///
    /// # Panics
    /// Panics if the name is already used.
    pub fn input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name.into(), NetDriver::Input);
        self.inputs.push(id);
        id
    }

    /// Declares a word of primary inputs `prefix[0]..prefix[width-1]`.
    pub fn word_input(&mut self, prefix: &str, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.input(format!("{prefix}[{i}]")))
            .collect()
    }

    /// Returns the net holding the Boolean constant `value` (created on
    /// first use).
    pub fn constant(&mut self, value: bool) -> NetId {
        let slot = value as usize;
        if let Some(id) = self.const_nets[slot] {
            return id;
        }
        let preferred = if value { "const_1" } else { "const_0" };
        // A caller may already have named an ordinary signal `const_0` or
        // `const_1`; fall back to a generated name in that case.
        let name = if self.by_name.contains_key(preferred) {
            self.fresh_name(preferred)
        } else {
            preferred.to_owned()
        };
        let id = self.add_net(name, NetDriver::Constant(value));
        self.const_nets[slot] = Some(id);
        id
    }

    /// A constant word of the given width holding `value` (LSB first).
    pub fn word_constant(&mut self, value: u64, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.constant(i < 64 && (value >> i) & 1 == 1))
            .collect()
    }

    /// Marks `net` as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        self.outputs.push(net);
    }

    /// Marks every bit of a word as a primary output.
    pub fn mark_word_output(&mut self, word: &[NetId]) {
        for &bit in word {
            self.mark_output(bit);
        }
    }

    // ------------------------------------------------------------------
    // Gates
    // ------------------------------------------------------------------

    /// Instantiates a gate with an explicitly named output net.
    ///
    /// # Panics
    /// Panics if the name is already used or the number of inputs does not
    /// match the gate arity.
    pub fn gate(&mut self, name: impl Into<String>, op: GateOp, inputs: &[NetId]) -> NetId {
        assert_eq!(inputs.len(), op.arity(), "gate arity mismatch for {op}");
        let name = name.into();
        let out = self.add_net(name.clone(), NetDriver::Undriven);
        let cell_id = CellId(self.cells.len() as u32);
        self.cells.push(Cell {
            name,
            kind: CellKind::Gate(op),
            inputs: inputs.to_vec(),
            output: out,
        });
        self.nets[out.index()].driver = NetDriver::Cell(cell_id);
        out
    }

    /// Gate with an auto-generated output name.
    pub fn gate_auto(&mut self, op: GateOp, inputs: &[NetId]) -> NetId {
        let name = self.fresh_name(&op.to_string());
        self.gate(name, op, inputs)
    }

    /// Named 2-input AND.
    pub fn and(&mut self, name: impl Into<String>, a: NetId, b: NetId) -> NetId {
        self.gate(name, GateOp::And, &[a, b])
    }

    /// Named 2-input OR.
    pub fn or(&mut self, name: impl Into<String>, a: NetId, b: NetId) -> NetId {
        self.gate(name, GateOp::Or, &[a, b])
    }

    /// Named 2-input XOR.
    pub fn xor(&mut self, name: impl Into<String>, a: NetId, b: NetId) -> NetId {
        self.gate(name, GateOp::Xor, &[a, b])
    }

    /// Named inverter.
    pub fn not(&mut self, name: impl Into<String>, a: NetId) -> NetId {
        self.gate(name, GateOp::Not, &[a])
    }

    /// Named buffer (useful to give an internal signal a stable public name).
    pub fn buf(&mut self, name: impl Into<String>, a: NetId) -> NetId {
        self.gate(name, GateOp::Buf, &[a])
    }

    /// Named 2-to-1 mux: output is `then_net` when `sel` is 1.
    pub fn mux(
        &mut self,
        name: impl Into<String>,
        sel: NetId,
        then_net: NetId,
        else_net: NetId,
    ) -> NetId {
        self.gate(name, GateOp::Mux, &[sel, then_net, else_net])
    }

    /// Auto-named AND.
    pub fn and_auto(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate_auto(GateOp::And, &[a, b])
    }

    /// Auto-named OR.
    pub fn or_auto(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate_auto(GateOp::Or, &[a, b])
    }

    /// Auto-named XOR.
    pub fn xor_auto(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate_auto(GateOp::Xor, &[a, b])
    }

    /// Auto-named inverter.
    pub fn not_auto(&mut self, a: NetId) -> NetId {
        self.gate_auto(GateOp::Not, &[a])
    }

    /// Auto-named mux.
    pub fn mux_auto(&mut self, sel: NetId, then_net: NetId, else_net: NetId) -> NetId {
        self.gate_auto(GateOp::Mux, &[sel, then_net, else_net])
    }

    /// Reduction AND over an arbitrary number of nets (constant 1 for an
    /// empty slice).
    pub fn and_reduce(&mut self, nets: &[NetId]) -> NetId {
        match nets.split_first() {
            None => self.constant(true),
            Some((&first, rest)) => {
                let mut acc = first;
                for &n in rest {
                    acc = self.and_auto(acc, n);
                }
                acc
            }
        }
    }

    /// Reduction OR over an arbitrary number of nets (constant 0 for an
    /// empty slice).
    pub fn or_reduce(&mut self, nets: &[NetId]) -> NetId {
        match nets.split_first() {
            None => self.constant(false),
            Some((&first, rest)) => {
                let mut acc = first;
                for &n in rest {
                    acc = self.or_auto(acc, n);
                }
                acc
            }
        }
    }

    // ------------------------------------------------------------------
    // Registers
    // ------------------------------------------------------------------

    /// Instantiates a register whose output net is called `name`.
    ///
    /// `nrst` / `nret` must be supplied exactly when the kind requires them.
    ///
    /// # Panics
    /// Panics if the name is already taken or the controls do not match the
    /// kind.
    pub fn reg(
        &mut self,
        name: impl Into<String>,
        kind: RegKind,
        d: NetId,
        clk: NetId,
        nrst: Option<NetId>,
        nret: Option<NetId>,
    ) -> NetId {
        let name = name.into();
        let mut inputs = vec![d, clk];
        match kind {
            RegKind::Simple => {
                assert!(
                    nrst.is_none() && nret.is_none(),
                    "Simple register takes no controls"
                );
            }
            RegKind::AsyncReset { .. } => {
                inputs.push(nrst.expect("AsyncReset register needs an NRST net"));
                assert!(nret.is_none(), "AsyncReset register takes no NRET");
            }
            RegKind::Retention { .. } => {
                inputs.push(nrst.expect("Retention register needs an NRST net"));
                inputs.push(nret.expect("Retention register needs an NRET net"));
            }
        }
        let out = self.add_net(name.clone(), NetDriver::Undriven);
        let cell_id = CellId(self.cells.len() as u32);
        self.cells.push(Cell {
            name,
            kind: CellKind::Reg(kind),
            inputs,
            output: out,
        });
        self.nets[out.index()].driver = NetDriver::Cell(cell_id);
        out
    }

    /// A register word `prefix[0]..prefix[width-1]`, one register per bit.
    pub fn word_reg(
        &mut self,
        prefix: &str,
        kind: RegKind,
        d: &[NetId],
        clk: NetId,
        nrst: Option<NetId>,
        nret: Option<NetId>,
    ) -> Vec<NetId> {
        d.iter()
            .enumerate()
            .map(|(i, &bit)| self.reg(format!("{prefix}[{i}]"), kind, bit, clk, nrst, nret))
            .collect()
    }

    // ------------------------------------------------------------------
    // Word-level combinational helpers
    // ------------------------------------------------------------------

    fn check_widths(a: &[NetId], b: &[NetId]) -> Result<(), NetlistError> {
        if a.len() == b.len() {
            Ok(())
        } else {
            Err(NetlistError::WidthMismatch {
                left: a.len(),
                right: b.len(),
            })
        }
    }

    /// Bitwise AND of two equal-width words.
    ///
    /// # Errors
    /// Returns [`NetlistError::WidthMismatch`] if the widths differ.
    pub fn word_and(&mut self, a: &[NetId], b: &[NetId]) -> Result<Vec<NetId>, NetlistError> {
        Self::check_widths(a, b)?;
        Ok(a.iter()
            .zip(b)
            .map(|(&x, &y)| self.and_auto(x, y))
            .collect())
    }

    /// Bitwise OR of two equal-width words.
    ///
    /// # Errors
    /// Returns [`NetlistError::WidthMismatch`] if the widths differ.
    pub fn word_or(&mut self, a: &[NetId], b: &[NetId]) -> Result<Vec<NetId>, NetlistError> {
        Self::check_widths(a, b)?;
        Ok(a.iter().zip(b).map(|(&x, &y)| self.or_auto(x, y)).collect())
    }

    /// Word-level 2-to-1 mux.
    ///
    /// # Errors
    /// Returns [`NetlistError::WidthMismatch`] if the widths differ.
    pub fn word_mux(
        &mut self,
        sel: NetId,
        then_word: &[NetId],
        else_word: &[NetId],
    ) -> Result<Vec<NetId>, NetlistError> {
        Self::check_widths(then_word, else_word)?;
        Ok(then_word
            .iter()
            .zip(else_word)
            .map(|(&t, &e)| self.mux_auto(sel, t, e))
            .collect())
    }

    /// Ripple-carry adder; returns `(sum, carry_out)`.
    ///
    /// # Errors
    /// Returns [`NetlistError::WidthMismatch`] if the widths differ.
    pub fn word_add(
        &mut self,
        a: &[NetId],
        b: &[NetId],
        carry_in: Option<NetId>,
    ) -> Result<(Vec<NetId>, NetId), NetlistError> {
        Self::check_widths(a, b)?;
        let mut carry = match carry_in {
            Some(c) => c,
            None => self.constant(false),
        };
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.xor_auto(x, y);
            let s = self.xor_auto(xy, carry);
            let g = self.and_auto(x, y);
            let p = self.and_auto(xy, carry);
            carry = self.or_auto(g, p);
            sum.push(s);
        }
        Ok((sum, carry))
    }

    /// Equality of a word against a constant.
    pub fn word_eq_const(&mut self, a: &[NetId], value: u64) -> NetId {
        let bits: Vec<NetId> = a
            .iter()
            .enumerate()
            .map(|(i, &bit)| {
                if i < 64 && (value >> i) & 1 == 1 {
                    bit
                } else {
                    self.not_auto(bit)
                }
            })
            .collect();
        self.and_reduce(&bits)
    }

    /// Reduction OR over a word ("is non-zero").
    pub fn word_nonzero(&mut self, a: &[NetId]) -> NetId {
        self.or_reduce(a)
    }

    /// Sign-extends a word to `width` bits (or truncates if narrower).
    pub fn word_sext(&mut self, a: &[NetId], width: usize) -> Vec<NetId> {
        let msb = a.last().copied().unwrap_or_else(|| self.constant(false));
        let mut out = a.to_vec();
        out.truncate(width);
        while out.len() < width {
            out.push(msb);
        }
        out
    }

    /// Logical left shift by a constant amount (zero fill), keeping width.
    pub fn word_shl_const(&mut self, a: &[NetId], amount: usize) -> Vec<NetId> {
        let zero = self.constant(false);
        let width = a.len();
        (0..width)
            .map(|i| if i >= amount { a[i - amount] } else { zero })
            .collect()
    }

    // ------------------------------------------------------------------
    // Memory arrays
    // ------------------------------------------------------------------

    /// Expands a memory array into register words, a write-address decoder
    /// and one combinational read multiplexer per read port.
    ///
    /// Writes are synchronous: on a rising clock edge with `write.enable`
    /// asserted, the addressed word captures `write.data`.  Reads are
    /// combinational from the current register outputs, optionally gated to
    /// zero by the port's `enable`.
    ///
    /// Returns one read-data word per read port.  The storage registers are
    /// named `{prefix}_w{word}[bit]` and the read data `{prefix}_rdata{port}[bit]`.
    ///
    /// # Panics
    /// Panics if the address widths cannot address `depth` words or data
    /// widths disagree with `cfg.width`.
    #[allow(clippy::too_many_arguments)]
    pub fn memory(
        &mut self,
        prefix: &str,
        cfg: MemoryConfig,
        clk: NetId,
        nrst: Option<NetId>,
        nret: Option<NetId>,
        write: Option<&WritePort>,
        reads: &[ReadPort],
    ) -> Vec<Vec<NetId>> {
        assert!(cfg.depth > 0, "memory depth must be positive");
        let addr_bits = (usize::BITS - (cfg.depth - 1).leading_zeros()).max(1) as usize;
        if let Some(w) = write {
            assert!(
                w.addr.len() >= addr_bits,
                "write address too narrow for depth {}",
                cfg.depth
            );
            assert_eq!(w.data.len(), cfg.width, "write data width mismatch");
        }
        for r in reads {
            assert!(
                r.addr.len() >= addr_bits,
                "read address too narrow for depth {}",
                cfg.depth
            );
        }

        // Storage words.
        let mut words: Vec<Vec<NetId>> = Vec::with_capacity(cfg.depth);
        for i in 0..cfg.depth {
            // Data input of each storage word: hold current value unless the
            // write port addresses this word.
            let word_prefix = format!("{prefix}_w{i}");
            // Create the registers first with placeholder data (their own
            // output is needed for the hold path), so build in two steps:
            // registers store `d_i`, and `d_i = mux(hit_i, wdata, q_i)`.
            // To avoid a chicken-and-egg problem we create the register with
            // its data net generated afterwards; instead we build the mux on
            // the fly using the register output.  We therefore create the
            // register cell with a temporary undriven data net and patch it.
            let q_word = self.word_reg_deferred(&word_prefix, cfg.kind, cfg.width, clk, nrst, nret);
            words.push(q_word);
        }

        // Patch the data inputs now that the outputs exist.
        if let Some(w) = write {
            for (i, q_word) in words.iter().enumerate() {
                let hit = self.word_eq_const(&w.addr, i as u64);
                let we_hit = self.and_auto(hit, w.enable);
                for (bit, &q) in q_word.iter().enumerate() {
                    let d = self.mux_auto(we_hit, w.data[bit], q);
                    self.patch_reg_data(q, d);
                }
            }
        } else {
            // No write port: each word simply holds its value.
            for q_word in &words {
                for &q in q_word {
                    self.patch_reg_data(q, q);
                }
            }
        }

        // Read ports.
        let mut read_data = Vec::with_capacity(reads.len());
        for (port, r) in reads.iter().enumerate() {
            let zero_word = self.word_constant(0, cfg.width);
            let mut acc = zero_word;
            for (i, q_word) in words.iter().enumerate() {
                let hit = self.word_eq_const(&r.addr, i as u64);
                acc = self
                    .word_mux(hit, q_word, &acc)
                    .expect("equal widths by construction");
            }
            if let Some(en) = r.enable {
                let zeros = self.word_constant(0, cfg.width);
                acc = self.word_mux(en, &acc, &zeros).expect("equal widths");
            }
            // Give the read data stable public names.
            let named: Vec<NetId> = acc
                .iter()
                .enumerate()
                .map(|(bit, &n)| self.buf(format!("{prefix}_rdata{port}[{bit}]"), n))
                .collect();
            read_data.push(named);
        }
        read_data
    }

    /// Creates a register word whose data inputs are patched later.
    fn word_reg_deferred(
        &mut self,
        prefix: &str,
        kind: RegKind,
        width: usize,
        clk: NetId,
        nrst: Option<NetId>,
        nret: Option<NetId>,
    ) -> Vec<NetId> {
        (0..width)
            .map(|i| {
                // Temporarily wire the data input to the clock; it is
                // replaced by `patch_reg_data` before `finish`.
                self.reg(format!("{prefix}[{i}]"), kind, clk, clk, nrst, nret)
            })
            .collect()
    }

    /// Replaces the data input of the register driving `q`.
    ///
    /// # Panics
    /// Panics if `q` is not driven by a register cell.
    pub fn patch_reg_data(&mut self, q: NetId, new_data: NetId) {
        let cell_id = match self.nets[q.index()].driver {
            NetDriver::Cell(c) => c,
            _ => panic!("net is not driven by a cell"),
        };
        let cell = &mut self.cells[cell_id.index()];
        assert!(cell.kind.is_state(), "net is not a register output");
        cell.inputs[0] = new_data;
    }

    /// Number of cells created so far.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Finishes the build, validating structural invariants.
    ///
    /// # Errors
    /// Returns the first structural violation found (undriven nets, arity
    /// mismatches, multiple drivers).
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        let netlist = Netlist::new_raw(
            self.name,
            self.nets,
            self.cells,
            self.inputs,
            self.outputs,
            self.by_name,
        );
        netlist.validate()?;
        Ok(netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_names_panic() {
        let mut b = NetlistBuilder::new("t");
        b.input("a");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.input("a");
        }));
        assert!(result.is_err());
    }

    #[test]
    fn constants_are_shared() {
        let mut b = NetlistBuilder::new("t");
        let c1 = b.constant(true);
        let c2 = b.constant(true);
        let z = b.constant(false);
        assert_eq!(c1, c2);
        assert_ne!(c1, z);
    }

    #[test]
    fn word_helpers_create_expected_structure() {
        let mut b = NetlistBuilder::new("t");
        let a = b.word_input("a", 4);
        let c = b.word_input("b", 4);
        let (sum, carry) = b.word_add(&a, &c, None).expect("widths");
        assert_eq!(sum.len(), 4);
        b.mark_word_output(&sum);
        b.mark_output(carry);
        let n = b.finish().expect("valid");
        assert!(n.cell_count() > 10);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn width_mismatch_errors() {
        let mut b = NetlistBuilder::new("t");
        let a = b.word_input("a", 4);
        let c = b.word_input("b", 3);
        assert!(matches!(
            b.word_add(&a, &c, None),
            Err(NetlistError::WidthMismatch { left: 4, right: 3 })
        ));
        assert!(b.word_and(&a, &c).is_err());
        assert!(b.word_mux(a[0], &a, &c).is_err());
    }

    #[test]
    fn sext_zext_shift() {
        let mut b = NetlistBuilder::new("t");
        let a = b.word_input("a", 4);
        assert_eq!(b.word_sext(&a, 8).len(), 8);
        assert_eq!(b.word_shl_const(&a, 2).len(), 4);
        assert_eq!(b.word_sext(&a, 2).len(), 2);
    }

    #[test]
    fn memory_expansion_shapes() {
        let mut b = NetlistBuilder::new("mem");
        let clk = b.input("clock");
        let waddr = b.word_input("WriteAdd", 2);
        let wdata = b.word_input("WriteData", 8);
        let we = b.input("MemWrite");
        let raddr = b.word_input("ReadAdd", 2);
        let re = b.input("MemRead");
        let rdata = b.memory(
            "IMem",
            MemoryConfig {
                depth: 4,
                width: 8,
                kind: RegKind::Simple,
            },
            clk,
            None,
            None,
            Some(&WritePort {
                addr: waddr,
                data: wdata,
                enable: we,
            }),
            &[ReadPort {
                addr: raddr,
                enable: Some(re),
            }],
        );
        assert_eq!(rdata.len(), 1);
        assert_eq!(rdata[0].len(), 8);
        for &bit in &rdata[0] {
            b.mark_output(bit);
        }
        let n = b.finish().expect("valid");
        // 4 words x 8 bits of storage.
        assert_eq!(n.state_cells().count(), 32);
        assert!(n.find_net("IMem_w0[0]").is_some());
        assert!(n.find_net("IMem_rdata0[7]").is_some());
    }

    #[test]
    fn retention_memory_uses_retention_cells() {
        let mut b = NetlistBuilder::new("mem");
        let clk = b.input("clock");
        let nrst = b.input("NRST");
        let nret = b.input("NRET");
        let raddr = b.word_input("ReadAdd", 1);
        let rdata = b.memory(
            "M",
            MemoryConfig {
                depth: 2,
                width: 4,
                kind: RegKind::Retention { reset_value: false },
            },
            clk,
            Some(nrst),
            Some(nret),
            None,
            &[ReadPort {
                addr: raddr,
                enable: None,
            }],
        );
        b.mark_word_output(&rdata[0]);
        let n = b.finish().expect("valid");
        assert_eq!(n.retention_cells().len(), 8);
    }
}
