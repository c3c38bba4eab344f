//! Demand plans: which nets a planned symbolic step computes, and which it
//! can set without a single BDD operation.
//!
//! A plan is built per STE assertion, before anything is simulated, in two
//! passes over the model's tables (`comb_order`, its fan-out and register
//! tables, cell inputs and net drivers):
//!
//! * **The abstract run.**  Each rail of each net is abstracted to what its
//!   BDD in the full simulation can be: constantly true, constantly false,
//!   or dependent on the assignment.  Each [`SymTernary`] operation of
//!   [`SymSimulator::step`](crate::SymSimulator::step) has a rail-by-rail
//!   counterpart in three-valued (Kleene) and/or.  A drive's rail is
//!   constant iff its BDD is.  Kleene logic is sound for and/or, so a net
//!   whose two rails both come out constant — an *exact* net — carries
//!   that lattice constant (0, 1, X or ⊤) under every assignment.
//!
//!   The run is change-driven: a step starts from the step before and
//!   re-evaluates only the registers that do not provably hold, the nets
//!   driven now or one step earlier, and the gates one of whose inputs
//!   changed (see `abstract_run`).  Most net-steps repeat the step before,
//!   so this costs a fraction of replaying every operation.  The dense
//!   replay stays as the oracle: builds with debug assertions check every
//!   plan's table against it.
//!
//!   A scalar pre-pass that reads symbolic drives as X is *not* a sound
//!   substitute: it turns `g = buf(x)` driven with `x is v` and `g is 0`
//!   into an apparent exact 0, where the symbolic `g` is ⊤ for `v = 1`.
//!   The rail abstraction calls `g`'s `lo` rail dependent instead.
//! * **The demand walk**, from the last step to step 0, over the gates in
//!   reverse evaluation order and then the registers.  The antecedent's
//!   driven nets and the consequent's nets seed each step; a demanded net
//!   whose circuit part (its value before the antecedent's join) is exact
//!   needs nothing more; otherwise a gate demands its non-exact inputs — a
//!   mux with an exact 0/1 select only the chosen arm — and a register
//!   demands, one step earlier, what its next-state chain reads under the
//!   same select rule.
//!
//! The planned step then sets exact nets to their constant, computes the
//! demanded ones and leaves every other net X.  Every net the verdict reads
//! carries exactly the BDD the full simulation computes.

use ssr_bdd::Bdd;
use ssr_netlist::{Cell, CellKind, GateOp, NetDriver, NetId, RegKind};
use ssr_ternary::{SymTernary, Ternary};

use crate::model::{CompiledModel, Register};

/// What one rail's BDD can be in the full simulation, for all assignments
/// at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rail {
    /// Constantly false.
    False,
    /// Constantly true.
    True,
    /// Depends on the assignment.
    Var,
}

impl Rail {
    fn of(b: Bdd) -> Rail {
        match b {
            Bdd::TRUE => Rail::True,
            Bdd::FALSE => Rail::False,
            _ => Rail::Var,
        }
    }

    fn and(self, other: Rail) -> Rail {
        match (self, other) {
            (Rail::False, _) | (_, Rail::False) => Rail::False,
            (Rail::True, r) | (r, Rail::True) => r,
            (Rail::Var, Rail::Var) => Rail::Var,
        }
    }

    fn or(self, other: Rail) -> Rail {
        match (self, other) {
            (Rail::True, _) | (_, Rail::True) => Rail::True,
            (Rail::False, r) | (r, Rail::False) => r,
            (Rail::Var, Rail::Var) => Rail::Var,
        }
    }
}

/// The abstraction of a [`SymTernary`]: one [`Rail`] per BDD rail.  Each
/// operation mirrors its `SymTernary` counterpart rail operation by rail
/// operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Abs {
    hi: Rail,
    lo: Rail,
}

impl Abs {
    const X: Abs = Abs {
        hi: Rail::True,
        lo: Rail::True,
    };

    fn of(value: SymTernary) -> Abs {
        Abs {
            hi: Rail::of(value.hi()),
            lo: Rail::of(value.lo()),
        }
    }

    fn constant(value: Ternary) -> Abs {
        Abs::of(SymTernary::constant(value))
    }

    /// The lattice constant the value has under every assignment, if both
    /// rails are constant.
    fn exact(self) -> Option<Ternary> {
        let rail = |r| match r {
            Rail::True => Some(true),
            Rail::False => Some(false),
            Rail::Var => None,
        };
        Some(Ternary::from_rails(rail(self.hi)?, rail(self.lo)?))
    }

    fn join(self, other: Abs) -> Abs {
        Abs {
            hi: self.hi.and(other.hi),
            lo: self.lo.and(other.lo),
        }
    }

    fn not(self) -> Abs {
        Abs {
            hi: self.lo,
            lo: self.hi,
        }
    }

    fn and(self, other: Abs) -> Abs {
        Abs {
            hi: self.hi.and(other.hi),
            lo: self.lo.or(other.lo),
        }
    }

    fn or(self, other: Abs) -> Abs {
        Abs {
            hi: self.hi.or(other.hi),
            lo: self.lo.and(other.lo),
        }
    }

    fn xor(self, other: Abs) -> Abs {
        let h1 = self.hi.and(other.lo);
        let h2 = self.lo.and(other.hi);
        let l1 = self.lo.and(other.lo);
        let l2 = self.hi.and(other.hi);
        Abs {
            hi: h1.or(h2),
            lo: l1.or(l2),
        }
    }

    fn mux(sel: Abs, a: Abs, b: Abs) -> Abs {
        let h1 = sel.hi.and(a.hi);
        let h2 = sel.lo.and(b.hi);
        let l1 = sel.hi.and(a.lo);
        let l2 = sel.lo.and(b.lo);
        Abs {
            hi: h1.or(h2),
            lo: l1.or(l2),
        }
    }

    /// The abstract gate function, mirroring the simulator's gate
    /// evaluation.
    fn gate(op: GateOp, inputs: &[Abs]) -> Abs {
        let a = inputs[0];
        match op {
            GateOp::Buf => a,
            GateOp::Not => a.not(),
            GateOp::And => a.and(inputs[1]),
            GateOp::Or => a.or(inputs[1]),
            GateOp::Xor => a.xor(inputs[1]),
            GateOp::Nand => a.and(inputs[1]).not(),
            GateOp::Nor => a.or(inputs[1]).not(),
            GateOp::Xnor => a.xor(inputs[1]).not(),
            GateOp::Mux => Abs::mux(a, inputs[1], inputs[2]),
        }
    }

    /// The abstract rising edge seen now: the clock at `t-1` and not at
    /// `t-2` (the shadow).
    fn rising(clk: Abs, shadow: Abs) -> Abs {
        clk.and(shadow.not())
    }

    /// The abstract next-state chain of a register, mirroring the
    /// simulator's.
    fn next_state(kind: RegKind, r: RegInputs) -> Abs {
        let clocked = Abs::mux(Abs::rising(r.clk, r.shadow), r.d, r.q);
        match kind {
            RegKind::Simple => clocked,
            RegKind::AsyncReset { reset_value } => Abs::mux(
                r.nrst,
                clocked,
                Abs::constant(Ternary::from_bool(reset_value)),
            ),
            RegKind::Retention { reset_value } => {
                let reset = Abs::constant(Ternary::from_bool(reset_value));
                Abs::mux(r.nret, Abs::mux(r.nrst, clocked, reset), r.q)
            }
        }
    }
}

/// The abstract values a register's next state reads at `t-1`; `shadow`
/// is the clock at `t-2`.  Controls a kind lacks read X and are never used.
#[derive(Debug, Clone, Copy)]
struct RegInputs {
    clk: Abs,
    shadow: Abs,
    d: Abs,
    q: Abs,
    nrst: Abs,
    nret: Abs,
}

/// How the planned step sets one net at one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Not demanded and not exact, or exact X: stays X.
    Idle,
    /// The circuit part is this constant (the whole value, for an exact
    /// net); the antecedent's drives are joined on top.
    Const(Ternary),
    /// Demanded with a non-exact circuit part: evaluated (or reused).
    Compute,
}

// One plan byte per net and step.
const CONST_BITS: u8 = 0b0000_0011;
const IS_CONST: u8 = 0b0000_0100;
const COMPUTE: u8 = 0b0000_1000;
const DRIVEN: u8 = 0b0001_0000;
const DEMANDED: u8 = 0b0010_0000;

fn const_code(value: Ternary) -> u8 {
    IS_CONST
        | match value {
            Ternary::X => 0,
            Ternary::Zero => 1,
            Ternary::One => 2,
            Ternary::Top => 3,
        }
}

fn decode(code: u8) -> Action {
    if code & COMPUTE != 0 {
        Action::Compute
    } else if code & IS_CONST != 0 {
        Action::Const(Ternary::ALL[(code & CONST_BITS) as usize])
    } else {
        Action::Idle
    }
}

/// A per-assertion demand plan for [`SymSimulator::planned_step`]: for every
/// step and net, whether the planned step computes the net, sets it to a
/// constant or leaves it X.
///
/// Building one runs the change-driven abstract run and the backward
/// demand walk (see the module documentation).  With debug assertions on,
/// [`DemandPlan::new`] also replays the dense abstract run and panics,
/// naming the step and net, if the two value tables differ.
///
/// [`SymSimulator::planned_step`]: crate::SymSimulator::planned_step
#[derive(Debug, Clone)]
pub struct DemandPlan {
    nets: usize,
    codes: Vec<u8>,
}

impl DemandPlan {
    /// Plans the trajectory that `drives` (the antecedent's defining
    /// sequence, one constraint list per step) defines, for a verdict that
    /// reads the driven nets and the nets of `reads` (the consequent's
    /// defining sequence; its values are not looked at) at each step.
    ///
    /// # Panics
    /// Panics if `reads` is longer than `drives`.
    pub fn new(
        model: &CompiledModel,
        drives: &[Vec<(NetId, SymTernary)>],
        reads: &[Vec<(NetId, SymTernary)>],
    ) -> DemandPlan {
        assert!(reads.len() <= drives.len(), "reads outlast the trajectory");
        let nets = model.netlist().net_count();
        let values = abstract_run(model, drives);
        #[cfg(debug_assertions)]
        check_against_dense(model, drives, &values);
        let mut codes = vec![0u8; values.len()];
        let mut walk = Walk {
            model,
            nets,
            values: &values,
            codes: &mut codes,
        };
        for t in (0..drives.len()).rev() {
            let seeds = drives[t].iter().chain(reads.get(t).into_iter().flatten());
            for &(net, _) in seeds {
                walk.demand(t, net);
            }
            walk.gates(t);
            if t > 0 {
                walk.registers(t);
            }
            walk.settle(t, &drives[t]);
        }
        DemandPlan { nets, codes }
    }

    /// The plan of step `t`.
    pub(crate) fn step(&self, t: usize) -> StepPlan<'_> {
        let row = |t: usize| &self.codes[t * self.nets..(t + 1) * self.nets];
        StepPlan {
            now: row(t),
            before: if t == 0 { &[] } else { row(t - 1) },
        }
    }
}

/// One step of a [`DemandPlan`], with its predecessor for reuse.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepPlan<'p> {
    now: &'p [u8],
    before: &'p [u8],
}

impl StepPlan<'_> {
    pub(crate) fn action(&self, net: NetId) -> Action {
        decode(self.now[net.index()])
    }

    /// `true` when the net was computed, and not driven, one step earlier:
    /// its previous value is then exactly the previous circuit part, so a
    /// gate whose inputs all kept their handles can take it unchanged.
    ///
    /// A net that was merely exact one step earlier does not qualify: its
    /// inputs were not demanded then, so the previous state may hold X on
    /// an input whose true value made the output constant.
    pub(crate) fn reusable(&self, net: NetId) -> bool {
        self.before
            .get(net.index())
            .is_some_and(|&c| c & (COMPUTE | DRIVEN) == COMPUTE)
    }
}

/// The abstract run: every net's abstract value at every step, one row of
/// `net_count` values per step, computed change by change.
///
/// Rows −1 and −2 read as all X, and a gate or register whose inputs are
/// all X yields X, so every step, step 0 included, starts as a copy of the
/// row before and re-evaluates only what can differ from it:
///
/// * **registers** (from step 1), except one that provably holds: NRET
///   exact 0, or no edge (`rising(clk[t-1], clk[t-2])` exact 0) with NRST
///   and NRET each exact 1 or absent.  Its next state is then its own
///   value at `t-1`, which the copy already holds;
/// * **driven nets**: a net driven at `t` or `t-1` becomes its base (X, its
///   constant, or its register's next state) joined with its drives at
///   `t`; at step 0 the constants take their values;
/// * **gates** whose input changed at `t` or whose output is driven at `t`
///   or `t-1`, visited in `comb_order` through a dirty bit per position.
///   A changed output dirties the gates that read it, which come later.
///
/// A net has changed when its value differs from the row before.  The
/// dense replay of every operation, [`dense_run`], is the oracle
/// `DemandPlan::new` checks this against in builds with debug assertions.
fn abstract_run(model: &CompiledModel, drives: &[Vec<(NetId, SymTernary)>]) -> Vec<Abs> {
    let netlist = model.netlist();
    let nets = netlist.net_count();
    let comb_order = model.comb_order();
    let mut values = vec![Abs::X; nets * drives.len()];
    let mut dirty = vec![0u64; comb_order.len().div_ceil(64)];
    let mut driven_now = vec![false; nets];
    let touch = |dirty: &mut [u64], net: NetId| {
        for &position in model.readers(net) {
            dirty[position as usize / 64] |= 1 << (position % 64);
        }
    };
    for (t, drive) in drives.iter().enumerate() {
        let (done, rest) = values.split_at_mut(t * nets);
        let row = &mut rest[..nets];
        let prev = t.checked_sub(1).map(|p| &done[p * nets..(p + 1) * nets]);
        let before = t.checked_sub(2).map(|p| &done[p * nets..(p + 1) * nets]);
        let was = |net: NetId| prev.map_or(Abs::X, |p| p[net.index()]);
        let withdrawn: &[(NetId, SymTernary)] = t.checked_sub(1).map_or(&[], |p| &drives[p]);

        if let Some(prev) = prev {
            row.copy_from_slice(prev);
            for reg in model.registers() {
                let r = reg_inputs(reg, prev, before);
                if holds(reg, r) {
                    continue;
                }
                let value = Abs::next_state(reg.kind, r);
                row[reg.q.index()] = value;
                if value != prev[reg.q.index()] {
                    touch(&mut dirty, reg.q);
                }
            }
        } else {
            for &(id, v) in model.constants() {
                row[id.index()] = Abs::constant(Ternary::from_bool(v));
                touch(&mut dirty, id);
            }
        }

        // Driven nets: back to their base (a register's is already in
        // place), then joined with this step's drives.
        let rebased = drive.iter().chain(withdrawn);
        for &(id, _) in rebased.clone() {
            match netlist.net(id).driver {
                NetDriver::Constant(v) => row[id.index()] = Abs::constant(Ternary::from_bool(v)),
                NetDriver::Cell(cell) if netlist.cell(cell).kind.is_state() => {}
                _ => row[id.index()] = Abs::X,
            }
        }
        for &(id, value) in drive {
            row[id.index()] = row[id.index()].join(Abs::of(value));
            driven_now[id.index()] = true;
        }
        for &(id, _) in rebased {
            match model.gate_of(id) {
                Some(position) => dirty[position / 64] |= 1 << (position % 64),
                None if row[id.index()] != was(id) => touch(&mut dirty, id),
                None => {}
            }
        }

        // Gates, in evaluation order: a touched gate only dirties later
        // positions, so one forward sweep over the bits reaches them all.
        let mut inputs = [Abs::X; 3];
        let mut word = 0;
        while word < dirty.len() {
            let bits = dirty[word];
            if bits == 0 {
                word += 1;
                continue;
            }
            let bit = bits.trailing_zeros() as usize;
            dirty[word] &= !(1 << bit);
            let cell = netlist.cell(comb_order[word * 64 + bit]);
            for (slot, &input) in inputs.iter_mut().zip(cell.inputs) {
                *slot = row[input.index()];
            }
            let out = cell.output;
            let base = if driven_now[out.index()] {
                row[out.index()]
            } else {
                Abs::X
            };
            let value = base.join(Abs::gate(gate_op(cell), &inputs[..cell.inputs.len()]));
            row[out.index()] = value;
            if value != was(out) {
                touch(&mut dirty, out);
            }
        }
        for &(id, _) in drive {
            driven_now[id.index()] = false;
        }
    }
    values
}

/// `true` when a register's next state is provably its own value at
/// `t-1`: NRET is exact 0, or there is no edge and NRST and NRET are each
/// exact 1 or absent.
fn holds(reg: &Register, r: RegInputs) -> bool {
    // An absent control reads X in `r`, so presence is checked apart.
    let high_or_absent = |control: Option<NetId>, value: Abs| {
        control.is_none() || value.exact() == Some(Ternary::One)
    };
    (reg.nret.is_some() && r.nret.exact() == Some(Ternary::Zero))
        || (Abs::rising(r.clk, r.shadow).exact() == Some(Ternary::Zero)
            && high_or_absent(reg.nrst, r.nrst)
            && high_or_absent(reg.nret, r.nret))
}

/// The dense abstract run: every [`SymTernary`] operation of
/// [`SymSimulator::step`](crate::SymSimulator::step) replayed rail by rail,
/// in the same order, for every net at every step.  The oracle of
/// [`abstract_run`].
#[cfg(any(test, debug_assertions))]
fn dense_run(model: &CompiledModel, drives: &[Vec<(NetId, SymTernary)>]) -> Vec<Abs> {
    let netlist = model.netlist();
    let nets = netlist.net_count();
    let mut values = vec![Abs::X; nets * drives.len()];
    let mut inputs = Vec::with_capacity(3);
    for (t, drive) in drives.iter().enumerate() {
        let (done, rest) = values.split_at_mut(t * nets);
        let row = &mut rest[..nets];
        if t > 0 {
            let prev = &done[(t - 1) * nets..];
            let before = (t > 1).then(|| &done[(t - 2) * nets..(t - 1) * nets]);
            for reg in model.registers() {
                row[reg.q.index()] = Abs::next_state(reg.kind, reg_inputs(reg, prev, before));
            }
        }
        for &(id, v) in model.constants() {
            row[id.index()] = Abs::constant(Ternary::from_bool(v));
        }
        for &(id, value) in drive {
            row[id.index()] = row[id.index()].join(Abs::of(value));
        }
        for &cell_id in model.comb_order() {
            let cell = netlist.cell(cell_id);
            inputs.clear();
            inputs.extend(cell.inputs.iter().map(|&i| row[i.index()]));
            let out = cell.output.index();
            row[out] = row[out].join(Abs::gate(gate_op(cell), &inputs));
        }
    }
    values
}

/// Panics, naming the first step and net where they differ, unless the
/// change-driven run's `values` equal the dense oracle's.
#[cfg(any(test, debug_assertions))]
fn check_against_dense(model: &CompiledModel, drives: &[Vec<(NetId, SymTernary)>], values: &[Abs]) {
    let dense = dense_run(model, drives);
    let netlist = model.netlist();
    let rows = values.chunks(netlist.net_count().max(1));
    for (t, (row, dense_row)) in rows
        .zip(dense.chunks(netlist.net_count().max(1)))
        .enumerate()
    {
        if let Some(n) = (0..row.len()).find(|&n| row[n] != dense_row[n]) {
            let net = netlist.nets().nth(n).expect("one value per net").1;
            panic!(
                "change-driven abstract run diverges from the dense run at step {t}, net `{}`: \
                 {:?} against {:?}",
                net.name, row[n], dense_row[n]
            );
        }
    }
}

fn gate_op(cell: Cell<'_>) -> GateOp {
    match cell.kind {
        CellKind::Gate(op) => op,
        CellKind::Reg(_) => unreachable!("comb_order only holds gates"),
    }
}

/// A register's next-state inputs from the abstract rows at `t-1` (`prev`)
/// and `t-2` (`before`, absent at `t = 1`, where the shadow is X).
fn reg_inputs(reg: &Register, prev: &[Abs], before: Option<&[Abs]>) -> RegInputs {
    let at = |net: NetId| prev[net.index()];
    let control = |net: Option<NetId>| net.map_or(Abs::X, at);
    RegInputs {
        clk: at(reg.clk),
        shadow: before.map_or(Abs::X, |b| b[reg.clk.index()]),
        d: at(reg.d),
        q: at(reg.q),
        nrst: control(reg.nrst),
        nret: control(reg.nret),
    }
}

/// The backward demand walk over the abstract run's rows.
struct Walk<'a> {
    model: &'a CompiledModel,
    nets: usize,
    values: &'a [Abs],
    codes: &'a mut [u8],
}

impl Walk<'_> {
    fn value(&self, t: usize, net: NetId) -> Abs {
        self.values[t * self.nets + net.index()]
    }

    fn code(&mut self, t: usize, net: NetId) -> &mut u8 {
        &mut self.codes[t * self.nets + net.index()]
    }

    /// Demands `net` at step `t`; an exact net needs nothing.
    fn demand(&mut self, t: usize, net: NetId) {
        if self.value(t, net).exact().is_none() {
            *self.code(t, net) |= DEMANDED;
        }
    }

    /// Records a demanded output's circuit part: a constant needs nothing
    /// more, anything else is computed from what `inputs` then demands.
    fn circuit(&mut self, t: usize, out: NetId, part: Abs) -> bool {
        match part.exact() {
            Some(value) => {
                *self.code(t, out) |= const_code(value);
                false
            }
            None => {
                *self.code(t, out) |= COMPUTE;
                true
            }
        }
    }

    fn gates(&mut self, t: usize) {
        let netlist = self.model.netlist();
        let comb_order = self.model.comb_order();
        let mut inputs = Vec::with_capacity(3);
        for &cell_id in comb_order.iter().rev() {
            let cell = netlist.cell(cell_id);
            if *self.code(t, cell.output) & DEMANDED == 0 {
                continue;
            }
            let op = gate_op(cell);
            inputs.clear();
            inputs.extend(cell.inputs.iter().map(|&i| self.value(t, i)));
            if !self.circuit(t, cell.output, Abs::gate(op, &inputs)) {
                continue;
            }
            let select = (op == GateOp::Mux).then(|| inputs[0].exact()).flatten();
            match select {
                Some(Ternary::One) => self.demand(t, cell.inputs[1]),
                Some(Ternary::Zero) => self.demand(t, cell.inputs[2]),
                _ => {
                    for &input in cell.inputs {
                        self.demand(t, input);
                    }
                }
            }
        }
    }

    /// The registers demanded at `t >= 1` demand their next-state inputs
    /// at `t-1`, and their clock at `t-2` for the edge.
    fn registers(&mut self, t: usize) {
        let (model, values, nets) = (self.model, self.values, self.nets);
        let prev = &values[(t - 1) * nets..t * nets];
        let before = (t > 1).then(|| &values[(t - 2) * nets..(t - 1) * nets]);
        for reg in model.registers() {
            if *self.code(t, reg.q) & DEMANDED == 0 {
                continue;
            }
            let r = reg_inputs(reg, prev, before);
            if !self.circuit(t, reg.q, Abs::next_state(reg.kind, r)) {
                continue;
            }
            let (q, p) = (reg.q, t - 1);
            let mut clocked = true;
            if let Some(nret) = reg.nret {
                // Retention has priority: NRET low holds q.
                self.demand(p, nret);
                if r.nret.exact() != Some(Ternary::One) {
                    self.demand(p, q);
                }
                clocked = r.nret.exact() != Some(Ternary::Zero);
            }
            if let Some(nrst) = reg.nrst.filter(|_| clocked) {
                self.demand(p, nrst);
                clocked = r.nrst.exact() != Some(Ternary::Zero);
            }
            if clocked {
                // The planned step recomputes the edge from both clock
                // samples, so they are demanded even when the edge is
                // exact (a no-op for an exact clock).
                self.demand(p, reg.clk);
                if t > 1 {
                    self.demand(t - 2, reg.clk);
                }
                match Abs::rising(r.clk, r.shadow).exact() {
                    Some(Ternary::One) => self.demand(p, reg.d),
                    Some(Ternary::Zero) => self.demand(p, q),
                    _ => {
                        self.demand(p, reg.d);
                        self.demand(p, q);
                    }
                }
            }
        }
    }

    /// Fixes step `t`'s codes once nothing can demand more there: exact
    /// nets take their constant, undemanded ones and exact X ones (X either
    /// way) stay X, and driven nets are flagged for the reuse rule.
    fn settle(&mut self, t: usize, drive: &[(NetId, SymTernary)]) {
        let row = t * self.nets..(t + 1) * self.nets;
        for (code, value) in self.codes[row.clone()].iter_mut().zip(&self.values[row]) {
            *code = match value.exact() {
                Some(Ternary::X) => 0,
                Some(c) => const_code(c),
                None if *code & DEMANDED != 0 => *code & !DEMANDED,
                None => 0,
            };
        }
        for &(net, _) in drive {
            *self.code(t, net) |= DRIVEN;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_bdd::BddManager;
    use ssr_netlist::builder::NetlistBuilder;
    use ssr_netlist::Netlist;

    /// Runs the change-driven abstract run over `steps` (net name and
    /// value, per step) and requires the dense oracle's table; returns the
    /// table for the test's own checks.
    fn run_both(netlist: &Netlist, steps: &[Vec<(&str, SymTernary)>]) -> (CompiledModel, Vec<Abs>) {
        let model = CompiledModel::new(netlist).expect("compiles");
        let drives: Vec<Vec<(NetId, SymTernary)>> = steps
            .iter()
            .map(|step| {
                step.iter()
                    .map(|&(name, v)| (netlist.find_net(name).expect("net exists"), v))
                    .collect()
            })
            .collect();
        let values = abstract_run(&model, &drives);
        check_against_dense(&model, &drives, &values);
        (model, values)
    }

    /// The exact value of net `name` at step `t`, if it has one.
    fn exact_at(model: &CompiledModel, values: &[Abs], t: usize, name: &str) -> Option<Ternary> {
        let netlist = model.netlist();
        let net = netlist.find_net(name).expect("net exists");
        values[t * netlist.net_count() + net.index()].exact()
    }

    const LO: SymTernary = SymTernary::ZERO;
    const HI: SymTernary = SymTernary::ONE;

    #[test]
    fn a_withdrawn_drive_falls_back_to_the_circuit() {
        // `a` is driven at step 0 only, `q` (a register output) at step 1
        // only, and `g` (a gate output) at steps 0 and 1: each net driven
        // one step earlier and not now must lose that drive.
        let mut b = NetlistBuilder::new("withdrawn");
        let clk = b.input("clock");
        let a = b.input("a");
        let q = b.reg("q", RegKind::Simple, a, clk, None, None);
        let g = b.and("g", a, q);
        let h = b.buf("h", g);
        b.mark_output(h);
        let n = b.finish().expect("valid");
        let (model, values) = run_both(
            &n,
            &[
                vec![("clock", LO), ("a", HI), ("g", LO)],
                vec![("clock", LO), ("q", HI), ("g", HI)],
                vec![("clock", LO)],
                vec![("clock", LO)],
            ],
        );
        assert_eq!(exact_at(&model, &values, 0, "a"), Some(Ternary::One));
        assert_eq!(exact_at(&model, &values, 1, "a"), Some(Ternary::X));
        assert_eq!(exact_at(&model, &values, 1, "g"), Some(Ternary::One));
        assert_eq!(exact_at(&model, &values, 2, "q"), Some(Ternary::One));
        assert_eq!(exact_at(&model, &values, 3, "q"), Some(Ternary::One));
        assert_eq!(exact_at(&model, &values, 2, "g"), Some(Ternary::X));
        assert_eq!(exact_at(&model, &values, 2, "h"), Some(Ternary::X));
    }

    #[test]
    fn a_driven_gate_output_joins_its_drive_with_the_gate() {
        let mut m = BddManager::new();
        let v = SymTernary::symbol(&mut m, "v");
        let mut b = NetlistBuilder::new("driven_gate");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.and("g", a, c);
        let h = b.not("h", g);
        b.mark_output(h);
        let n = b.finish().expect("valid");
        let (model, values) = run_both(
            &n,
            &[
                vec![("a", HI), ("c", HI), ("g", LO)],
                vec![("a", HI), ("c", HI), ("g", HI)],
                vec![("a", HI), ("c", HI)],
                vec![("a", LO), ("c", HI), ("g", HI)],
                vec![("a", HI), ("c", v), ("g", v)],
                vec![("a", HI), ("c", v), ("g", v)],
            ],
        );
        let expected = [
            Some(Ternary::Top),
            Some(Ternary::One),
            Some(Ternary::One),
            Some(Ternary::Top),
            None,
            None,
        ];
        for (t, want) in expected.into_iter().enumerate() {
            assert_eq!(exact_at(&model, &values, t, "g"), want, "step {t}");
        }
    }

    #[test]
    fn retention_holds_through_nret_low_and_resets_on_a_sample_mode_pulse() {
        // A retention and a reset register share the controls.  The clock
        // stays low after the capture, so every step from 3 on has no
        // edge: NRET low holds across the NRST pulse at step 4, the pulse
        // at step 7 (NRET high) resets both registers, and the reset
        // register also resets at step 5.
        let mut m = BddManager::new();
        let v = SymTernary::symbol(&mut m, "v");
        let mut b = NetlistBuilder::new("retention");
        let clk = b.input("clock");
        let d = b.input("d");
        let nrst = b.input("NRST");
        let nret = b.input("NRET");
        let kind = RegKind::Retention { reset_value: false };
        let q = b.reg("q", kind, d, clk, Some(nrst), Some(nret));
        let kind = RegKind::AsyncReset { reset_value: true };
        let r = b.reg("r", kind, d, clk, Some(nrst), None);
        b.mark_output(q);
        b.mark_output(r);
        let n = b.finish().expect("valid");
        let control = |c, nrst, nret| vec![("clock", c), ("NRST", nrst), ("NRET", nret)];
        let mut steps = vec![
            control(LO, HI, HI),
            control(HI, HI, HI),
            control(LO, HI, HI),
            control(LO, HI, LO),
            control(LO, LO, LO),
            control(LO, HI, LO),
            control(LO, HI, HI),
            control(LO, LO, HI),
            control(LO, HI, HI),
            control(LO, HI, HI),
        ];
        steps[0].push(("d", v));
        steps[1].push(("d", v));
        let (model, values) = run_both(&n, &steps);
        let q_at = |t| exact_at(&model, &values, t, "q");
        let r_at = |t| exact_at(&model, &values, t, "r");
        for t in 2..=7 {
            assert_eq!(q_at(t), None, "q holds v at step {t}");
        }
        assert_eq!(q_at(8), Some(Ternary::Zero));
        assert_eq!(q_at(9), Some(Ternary::Zero));
        assert_eq!((r_at(4), r_at(5)), (None, Some(Ternary::One)));
        assert_eq!((r_at(8), r_at(9)), (Some(Ternary::One), Some(Ternary::One)));
    }

    #[test]
    fn a_register_without_a_clock_edge_ignores_its_data() {
        // `hold` is clocked by an input held high and `low` by one held
        // low: neither ever sees a rising edge, whatever `d` does.  `tie`
        // is clocked by a constant 1.
        let mut b = NetlistBuilder::new("no_edge");
        let high = b.input("high");
        let low = b.input("low");
        let one = b.constant(true);
        let d = b.input("d");
        let hold = b.reg("hold", RegKind::Simple, d, high, None, None);
        let stuck = b.reg("stuck", RegKind::Simple, d, low, None, None);
        let tie = b.reg("tie", RegKind::Simple, d, one, None, None);
        let x = b.xor("x", hold, stuck);
        let y = b.or("y", x, tie);
        b.mark_output(y);
        let n = b.finish().expect("valid");
        let step = |d| vec![("high", HI), ("low", LO), ("d", d)];
        let (model, values) = run_both(&n, &[step(HI), step(LO), step(HI), step(LO), step(HI)]);
        for t in 0..5 {
            for name in ["hold", "stuck", "tie", "y"] {
                assert_eq!(
                    exact_at(&model, &values, t, name),
                    Some(Ternary::X),
                    "{name} at {t}"
                );
            }
        }
    }

    #[test]
    fn steps_one_and_two_read_the_clock_shadow_from_the_all_x_rows() {
        // At step 1 the shadow is row -1 (X): a clock high at step 0 gives
        // an X edge, a low one none.  At step 2 the shadow is step 0.
        let mut b = NetlistBuilder::new("shadow");
        let c = b.input("c");
        let clk = b.buf("clk", c);
        let d = b.input("d");
        let q = b.reg("q", RegKind::Simple, d, clk, None, None);
        let nq = b.not("nq", q);
        b.mark_output(nq);
        let n = b.finish().expect("valid");
        let (model, values) = run_both(
            &n,
            &[
                vec![("c", HI), ("d", HI)],
                vec![("c", LO), ("d", LO)],
                vec![("c", HI), ("d", LO)],
                vec![("c", LO)],
            ],
        );
        assert_eq!(exact_at(&model, &values, 1, "q"), Some(Ternary::X));
        assert_eq!(exact_at(&model, &values, 2, "q"), Some(Ternary::X));
        assert_eq!(exact_at(&model, &values, 3, "q"), Some(Ternary::Zero));
        assert_eq!(exact_at(&model, &values, 3, "nq"), Some(Ternary::One));
        let (model, values) = run_both(
            &n,
            &[
                vec![("c", LO), ("d", HI)],
                vec![("c", HI), ("d", HI)],
                vec![("c", LO), ("d", LO)],
            ],
        );
        assert_eq!(exact_at(&model, &values, 1, "q"), Some(Ternary::X));
        assert_eq!(exact_at(&model, &values, 2, "q"), Some(Ternary::One));
        assert_eq!(exact_at(&model, &values, 2, "nq"), Some(Ternary::Zero));
    }

    /// Every abstract value.
    fn all() -> Vec<Abs> {
        let rails = [Rail::False, Rail::True, Rail::Var];
        rails
            .iter()
            .flat_map(|&hi| rails.iter().map(move |&lo| Abs { hi, lo }))
            .collect()
    }

    /// The scalar values an abstract value allows at one assignment: each
    /// dependent rail may be either Boolean.
    fn concretise(a: Abs) -> Vec<Ternary> {
        let options = |r| match r {
            Rail::False => vec![false],
            Rail::True => vec![true],
            Rail::Var => vec![false, true],
        };
        let (his, los) = (options(a.hi), options(a.lo));
        his.iter()
            .flat_map(|&hi| los.iter().map(move |&lo| Ternary::from_rails(hi, lo)))
            .collect()
    }

    /// Calls `f` on every tuple that picks one element from each list.
    fn each_tuple<T: Copy>(choices: &[Vec<T>], f: &mut impl FnMut(&[T])) {
        let mut picks = vec![0; choices.len()];
        let mut tuple: Vec<T> = choices.iter().map(|c| c[0]).collect();
        loop {
            f(&tuple);
            let mut i = 0;
            loop {
                if i == choices.len() {
                    return;
                }
                picks[i] = (picks[i] + 1) % choices[i].len();
                tuple[i] = choices[i][picks[i]];
                if picks[i] != 0 {
                    break;
                }
                i += 1;
            }
        }
    }

    /// Calls `f` on every tuple of `n` abstract values.
    fn each_abstract(n: usize, mut f: impl FnMut(&[Abs])) {
        each_tuple(&vec![all(); n], &mut f);
    }

    /// Each rail the abstraction calls constant equals that rail of the
    /// scalar result under every concretisation of the inputs.
    fn assert_sound(what: &str, inputs: &[Abs], abs: Abs, scalar: impl Fn(&[Ternary]) -> Ternary) {
        let agrees = |rail: Rail, bit: bool| match rail {
            Rail::True => bit,
            Rail::False => !bit,
            Rail::Var => true,
        };
        let choices: Vec<Vec<Ternary>> = inputs.iter().map(|&a| concretise(a)).collect();
        each_tuple(&choices, &mut |concrete| {
            let (hi, lo) = scalar(concrete).rails();
            assert!(
                agrees(abs.hi, hi) && agrees(abs.lo, lo),
                "{what}: {inputs:?} abstracts to {abs:?}, but {concrete:?} gives {:?}",
                Ternary::from_rails(hi, lo)
            );
        });
    }

    fn scalar_gate(op: GateOp, v: &[Ternary]) -> Ternary {
        match op {
            GateOp::Buf => v[0],
            GateOp::Not => v[0].not(),
            GateOp::And => v[0].and(v[1]),
            GateOp::Or => v[0].or(v[1]),
            GateOp::Xor => v[0].xor(v[1]),
            GateOp::Nand => v[0].and(v[1]).not(),
            GateOp::Nor => v[0].or(v[1]).not(),
            GateOp::Xnor => v[0].xor(v[1]).not(),
            GateOp::Mux => Ternary::mux(v[0], v[1], v[2]),
        }
    }

    #[test]
    fn gates_and_join_are_sound_on_every_abstract_input() {
        for op in GateOp::ALL {
            each_abstract(op.arity(), |inputs| {
                let abs = Abs::gate(op, inputs);
                assert_sound(&op.to_string(), inputs, abs, |v| scalar_gate(op, v));
            });
        }
        each_abstract(2, |inputs| {
            let abs = inputs[0].join(inputs[1]);
            assert_sound("join", inputs, abs, |v| v[0].join(v[1]));
        });
    }

    #[test]
    fn the_register_chain_is_sound_on_every_abstract_input() {
        let kinds = [
            RegKind::Simple,
            RegKind::AsyncReset { reset_value: false },
            RegKind::AsyncReset { reset_value: true },
            RegKind::Retention { reset_value: false },
            RegKind::Retention { reset_value: true },
        ];
        for kind in kinds {
            // clk, shadow, d, q, then the controls the kind has.
            let controls = match kind {
                RegKind::Simple => 0,
                RegKind::AsyncReset { .. } => 1,
                RegKind::Retention { .. } => 2,
            };
            each_abstract(4 + controls, |inputs| {
                let at = |i: usize| inputs.get(i).copied().unwrap_or(Abs::X);
                let r = RegInputs {
                    clk: at(0),
                    shadow: at(1),
                    d: at(2),
                    q: at(3),
                    nrst: at(4),
                    nret: at(5),
                };
                let abs = Abs::next_state(kind, r);
                assert_sound("register", inputs, abs, |v| {
                    let rising = v[0].and(v[1].not());
                    let clocked = Ternary::mux(rising, v[2], v[3]);
                    match kind {
                        RegKind::Simple => clocked,
                        RegKind::AsyncReset { reset_value } => {
                            Ternary::mux(v[4], clocked, Ternary::from_bool(reset_value))
                        }
                        RegKind::Retention { reset_value } => {
                            let reset = Ternary::from_bool(reset_value);
                            Ternary::mux(v[5], Ternary::mux(v[4], clocked, reset), v[3])
                        }
                    }
                });
            });
        }
    }
}
