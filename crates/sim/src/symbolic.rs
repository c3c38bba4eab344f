//! The ternary symbolic simulator — the STE excitation function.

use ssr_bdd::BddManager;
use ssr_netlist::{Cell, CellKind, GateOp, NetId, RegKind};
use ssr_ternary::SymTernary;

use crate::model::CompiledModel;
use crate::plan::{Action, DemandPlan, StepPlan};

/// What a step does with `net`: every net is computed without a plan.
fn action(plan: Option<StepPlan<'_>>, net: NetId) -> Action {
    plan.map_or(Action::Compute, |p| p.action(net))
}

/// The complete symbolic circuit state at one STE time unit: a dual-rail
/// value for every net, plus the per-register clock shadows used for edge
/// detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymState {
    nodes: Vec<SymTernary>,
    shadow_clk: Vec<SymTernary>,
}

impl SymState {
    /// The value of a net.
    ///
    /// # Panics
    /// Panics if the net id does not belong to the model this state was
    /// created from.
    pub fn node(&self, id: NetId) -> SymTernary {
        self.nodes[id.index()]
    }

    /// Every value the state holds: each net's, then each state cell's
    /// clock shadow (its clock one step earlier).  A collection that must
    /// keep the state usable roots exactly these.
    pub fn values(&self) -> impl Iterator<Item = &SymTernary> {
        self.nodes.iter().chain(&self.shadow_clk)
    }
}

/// Symbolic simulator over a [`CompiledModel`].
///
/// See the crate-level documentation for the timing model and an example.
#[derive(Debug, Clone)]
pub struct SymSimulator<'m> {
    model: &'m CompiledModel,
}

impl<'m> SymSimulator<'m> {
    /// Creates a simulator for the given model.
    pub fn new(model: &'m CompiledModel) -> Self {
        SymSimulator { model }
    }

    /// The model being simulated.
    pub fn model(&self) -> &'m CompiledModel {
        self.model
    }

    /// Builds the state at time 0: every node starts at `X`, the constraints
    /// in `drive` are joined on top, constants take their values and the
    /// combinational logic is closed.
    pub fn initial_state(&self, m: &mut BddManager, drive: &[(NetId, SymTernary)]) -> SymState {
        self.advance(m, None, drive, None)
    }

    /// Computes the state at time `t` from the state at `t-1` (`prev`) and
    /// the constraints the antecedent imposes at time `t` (`drive`).
    ///
    /// The result is `drive ⊔ M(prev)` closed under the combinational logic,
    /// exactly the recurrence of the STE defining trajectory (Definition 3
    /// of the paper).
    pub fn step(
        &self,
        m: &mut BddManager,
        prev: &SymState,
        drive: &[(NetId, SymTernary)],
    ) -> SymState {
        self.advance(m, Some(prev), drive, None)
    }

    /// Computes state `t` of the trajectory `plan` was built for: `prev` is
    /// the planned state `t-1` (`None` at `t = 0`) and `drive` the
    /// antecedent's constraints at `t`.
    ///
    /// Exact nets take their constant, demanded nets are computed and every
    /// other net stays `X`.  A demanded gate that was computed, and not
    /// driven, at `t-1` and whose inputs all carry the same BDD handles as
    /// in `prev` takes its previous value instead of being re-evaluated:
    /// handles are canonical, so equal inputs mean an equal output.  The
    /// step reads `prev` until it returns, so its own safe points (see
    /// `propagate`) root `prev` next to the state under construction; the
    /// caller only has to hand in a `prev` that no collection since it was
    /// computed has freed.
    ///
    /// Every net the plan's verdict reads — the driven nets and the
    /// consequent's — carries exactly the BDD [`SymSimulator::step`]
    /// computes for it; the rest of the state is not a trajectory.
    ///
    /// # Panics
    /// Panics if `prev` is absent at `t > 0` or present at `t = 0`, or if
    /// `t` is past the plan's depth.
    pub fn planned_step(
        &self,
        m: &mut BddManager,
        prev: Option<&SymState>,
        drive: &[(NetId, SymTernary)],
        plan: &DemandPlan,
        t: usize,
    ) -> SymState {
        assert_eq!(
            prev.is_some(),
            t > 0,
            "a planned step after step 0 needs its predecessor"
        );
        self.advance(m, prev, drive, Some(plan.step(t)))
    }

    /// Runs a whole trajectory: `drives[t]` is the constraint list for time
    /// `t`.  Returns the state sequence (same length as `drives`).
    pub fn run(&self, m: &mut BddManager, drives: &[Vec<(NetId, SymTernary)>]) -> Vec<SymState> {
        let mut states = Vec::with_capacity(drives.len());
        for (t, drive) in drives.iter().enumerate() {
            let state = if t == 0 {
                self.initial_state(m, drive)
            } else {
                self.step(m, &states[t - 1], drive)
            };
            states.push(state);
        }
        states
    }

    /// The one stepping body: the registers' next state from `prev` (none
    /// at time 0, where every register starts `X`), then the constants, the
    /// drive and the combinational logic.  Without a plan every net is
    /// computed.
    fn advance(
        &self,
        m: &mut BddManager,
        prev: Option<&SymState>,
        drive: &[(NetId, SymTernary)],
        plan: Option<StepPlan<'_>>,
    ) -> SymState {
        let netlist = self.model.netlist();
        let mut nodes = vec![SymTernary::X; netlist.net_count()];
        let shadow_clk = match prev {
            None => vec![SymTernary::X; self.model.state_bits()],
            Some(prev) => {
                let mut shadow_clk = Vec::with_capacity(self.model.state_bits());
                for (state_index, &cell_id) in self.model.state_cells().iter().enumerate() {
                    let cell = netlist.cell(cell_id);
                    nodes[cell.output.index()] = match action(plan, cell.output) {
                        Action::Compute => Self::next_state(m, prev, state_index, cell),
                        Action::Const(value) => SymTernary::constant(value),
                        Action::Idle => SymTernary::X,
                    };
                    shadow_clk.push(prev.node(cell.reg_clock()));
                }
                shadow_clk
            }
        };
        self.apply_constants(&mut nodes);
        Self::apply_drive(m, &mut nodes, drive);
        self.propagate(m, &mut nodes, &shadow_clk, prev, plan);
        SymState { nodes, shadow_clk }
    }

    /// A register's value at `t` from the state at `t-1`.
    fn next_state(
        m: &mut BddManager,
        prev: &SymState,
        state_index: usize,
        cell: Cell<'_>,
    ) -> SymTernary {
        let kind = match cell.kind {
            CellKind::Reg(k) => k,
            CellKind::Gate(_) => unreachable!("state_cells only holds registers"),
        };
        let q_prev = prev.node(cell.output);
        let d_prev = prev.node(cell.reg_data());
        let clk_prev = prev.node(cell.reg_clock());
        let clk_shadow = prev.shadow_clk[state_index];

        // Rising edge seen now: clock was 1 at t-1 and 0 at t-2.
        let rising = {
            let not_shadow = clk_shadow.not();
            clk_prev.and(m, &not_shadow)
        };
        let clocked = SymTernary::mux(m, &rising, &d_prev, &q_prev);

        match kind {
            RegKind::Simple => clocked,
            RegKind::AsyncReset { reset_value } => {
                let nrst = prev.node(cell.reg_nrst().expect("async reset has nrst"));
                let reset = SymTernary::from_bool(reset_value);
                SymTernary::mux(m, &nrst, &clocked, &reset)
            }
            RegKind::Retention { reset_value } => {
                let nrst = prev.node(cell.reg_nrst().expect("retention has nrst"));
                let nret = prev.node(cell.reg_nret().expect("retention has nret"));
                let reset = SymTernary::from_bool(reset_value);
                let sample_path = SymTernary::mux(m, &nrst, &clocked, &reset);
                // Retention has priority over reset: NRET low holds q.
                SymTernary::mux(m, &nret, &sample_path, &q_prev)
            }
        }
    }

    fn apply_constants(&self, nodes: &mut [SymTernary]) {
        for &(id, v) in self.model.constants() {
            nodes[id.index()] = SymTernary::from_bool(v);
        }
    }

    fn apply_drive(m: &mut BddManager, nodes: &mut [SymTernary], drive: &[(NetId, SymTernary)]) {
        for &(id, value) in drive {
            let joined = nodes[id.index()].join(m, &value);
            nodes[id.index()] = joined;
        }
    }

    /// Closes the combinational logic: every gate output is joined with the
    /// gate function applied to its (already final) inputs.  One pass in
    /// topological order suffices.  Under a plan, idle gates are skipped,
    /// constant ones take their constant and a computed gate whose inputs
    /// kept their handles since `prev` reuses its previous value.
    ///
    /// When the manager has a maintenance policy installed and a pass is
    /// due, the gate loop declares a safe point: the whole working state —
    /// every net value computed so far, `extra` (the clock shadows of the
    /// state under construction) and `prev` (whose values the reuse rule
    /// still reads) — goes into a scoped root set and
    /// [`BddManager::maintain`] runs there.  This is what keeps the peak
    /// down *inside* one time step, where the big-memory configurations
    /// allocate most of their nodes; callers that enable maintenance must
    /// root everything else they hold (the STE checker does).
    fn propagate(
        &self,
        m: &mut BddManager,
        nodes: &mut [SymTernary],
        extra: &[SymTernary],
        prev: Option<&SymState>,
        plan: Option<StepPlan<'_>>,
    ) {
        let netlist = self.model.netlist();
        let maintaining = m.maintenance_enabled();
        for &cell_id in self.model.comb_order() {
            let cell = netlist.cell(cell_id);
            let op = match cell.kind {
                CellKind::Gate(op) => op,
                CellKind::Reg(_) => unreachable!("comb_order only holds gates"),
            };
            let value = match action(plan, cell.output) {
                Action::Idle => continue,
                Action::Const(value) => SymTernary::constant(value),
                Action::Compute => {
                    let unchanged = |p: &&SymState| {
                        plan.is_some_and(|plan| plan.reusable(cell.output))
                            && cell.inputs.iter().all(|&i| nodes[i.index()] == p.node(i))
                    };
                    match prev.filter(unchanged) {
                        Some(p) => p.node(cell.output),
                        None => {
                            Self::eval_gate(m, op, cell.inputs.iter().map(|&i| nodes[i.index()]))
                        }
                    }
                }
            };
            let out = cell.output.index();
            nodes[out] = nodes[out].join(m, &value);
            if maintaining && m.maintenance_due() {
                Self::maintenance_point(m, nodes, extra, prev);
            }
        }
    }

    /// The out-of-line safe point of the gate loop: roots the working
    /// state and `prev` (its nets and clock shadows) and runs the due
    /// maintenance pass.  `#[cold]` keeps the rooting loops out of
    /// `propagate`'s hot body — the common case is maintenance disabled or
    /// not due.
    #[cold]
    #[inline(never)]
    fn maintenance_point(
        m: &mut BddManager,
        nodes: &[SymTernary],
        extra: &[SymTernary],
        prev: Option<&SymState>,
    ) {
        m.push_root_frame();
        let before = prev.into_iter().flat_map(SymState::values);
        for v in nodes.iter().chain(extra).chain(before) {
            m.root(v.hi());
            m.root(v.lo());
        }
        m.maintain();
        m.pop_root_frame();
    }

    fn eval_gate(
        m: &mut BddManager,
        op: GateOp,
        mut inputs: impl Iterator<Item = SymTernary>,
    ) -> SymTernary {
        let a = inputs.next().expect("gate has at least one input");
        match op {
            GateOp::Buf => a,
            GateOp::Not => a.not(),
            GateOp::And => {
                let b = inputs.next().expect("binary gate");
                a.and(m, &b)
            }
            GateOp::Or => {
                let b = inputs.next().expect("binary gate");
                a.or(m, &b)
            }
            GateOp::Xor => {
                let b = inputs.next().expect("binary gate");
                a.xor(m, &b)
            }
            GateOp::Nand => {
                let b = inputs.next().expect("binary gate");
                a.nand(m, &b)
            }
            GateOp::Nor => {
                let b = inputs.next().expect("binary gate");
                a.nor(m, &b)
            }
            GateOp::Xnor => {
                let b = inputs.next().expect("binary gate");
                a.xnor(m, &b)
            }
            GateOp::Mux => {
                let then_v = inputs.next().expect("mux has three inputs");
                let else_v = inputs.next().expect("mux has three inputs");
                SymTernary::mux(m, &a, &then_v, &else_v)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_netlist::builder::NetlistBuilder;
    use ssr_netlist::Netlist;
    use ssr_ternary::Ternary;

    fn dff_with_controls(kind: RegKind) -> Netlist {
        let mut b = NetlistBuilder::new("dff");
        let clk = b.input("clock");
        let d = b.input("d");
        let (nrst, nret) = match kind {
            RegKind::Simple => (None, None),
            RegKind::AsyncReset { .. } => (Some(b.input("NRST")), None),
            RegKind::Retention { .. } => {
                let nrst = b.input("NRST");
                let nret = b.input("NRET");
                (Some(nrst), Some(nret))
            }
        };
        let q = b.reg("q", kind, d, clk, nrst, nret);
        b.mark_output(q);
        b.finish().expect("valid")
    }

    fn drive(netlist: &Netlist, pairs: &[(&str, SymTernary)]) -> Vec<(NetId, SymTernary)> {
        pairs
            .iter()
            .map(|(name, v)| (netlist.find_net(name).expect("net exists"), *v))
            .collect()
    }

    #[test]
    fn combinational_propagation_and_x() {
        let mut b = NetlistBuilder::new("comb");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and("x", a, c);
        let y = b.or("y", a, c);
        b.mark_output(x);
        b.mark_output(y);
        let n = b.finish().expect("valid");
        let model = CompiledModel::new(&n).expect("compiles");
        let sim = SymSimulator::new(&model);
        let mut m = BddManager::new();

        // a = 0, b = X: the AND is 0, the OR is X.
        let s = sim.initial_state(&mut m, &drive(&n, &[("a", SymTernary::ZERO)]));
        assert_eq!(
            s.node(n.find_net("x").unwrap()).to_constant(&m),
            Some(Ternary::Zero)
        );
        assert_eq!(
            s.node(n.find_net("y").unwrap()).to_constant(&m),
            Some(Ternary::X)
        );
    }

    #[test]
    fn simple_dff_captures_on_rising_edge() {
        let n = dff_with_controls(RegKind::Simple);
        let model = CompiledModel::new(&n).expect("compiles");
        let sim = SymSimulator::new(&model);
        let mut m = BddManager::new();

        let lo = SymTernary::ZERO;
        let hi = SymTernary::ONE;
        // t0: clk=0, d=1.  t1: clk=1, d=1 (edge seen at t2).  t2: clk=0.
        let s0 = sim.initial_state(&mut m, &drive(&n, &[("clock", lo), ("d", hi)]));
        let q = n.find_net("q").unwrap();
        assert_eq!(s0.node(q).to_constant(&m), Some(Ternary::X));
        let s1 = sim.step(&mut m, &s0, &drive(&n, &[("clock", hi), ("d", hi)]));
        // Still X: the edge is only *seen* one step later.
        assert_eq!(s1.node(q).to_constant(&m), Some(Ternary::X));
        let s2 = sim.step(&mut m, &s1, &drive(&n, &[("clock", lo)]));
        assert_eq!(s2.node(q).to_constant(&m), Some(Ternary::One));
        // Without another rising edge the value is held.
        let s3 = sim.step(&mut m, &s2, &drive(&n, &[("clock", lo)]));
        assert_eq!(s3.node(q).to_constant(&m), Some(Ternary::One));
    }

    #[test]
    fn no_edge_no_capture() {
        let n = dff_with_controls(RegKind::Simple);
        let model = CompiledModel::new(&n).expect("compiles");
        let sim = SymSimulator::new(&model);
        let mut m = BddManager::new();
        let q = n.find_net("q").unwrap();
        // Clock held high throughout: no 0->1 transition, so q stays X.
        let hi = SymTernary::ONE;
        let s0 = sim.initial_state(&mut m, &drive(&n, &[("clock", hi), ("d", hi)]));
        let s1 = sim.step(&mut m, &s0, &drive(&n, &[("clock", hi), ("d", hi)]));
        let s2 = sim.step(&mut m, &s1, &drive(&n, &[("clock", hi)]));
        assert_eq!(s2.node(q).to_constant(&m), Some(Ternary::X));
    }

    #[test]
    fn async_reset_clears_register() {
        let n = dff_with_controls(RegKind::AsyncReset { reset_value: false });
        let model = CompiledModel::new(&n).expect("compiles");
        let sim = SymSimulator::new(&model);
        let mut m = BddManager::new();
        let q = n.find_net("q").unwrap();
        let lo = SymTernary::ZERO;
        let hi = SymTernary::ONE;
        // Capture a 1 first (NRST held high).
        let s0 = sim.initial_state(
            &mut m,
            &drive(&n, &[("clock", lo), ("d", hi), ("NRST", hi)]),
        );
        let s1 = sim.step(
            &mut m,
            &s0,
            &drive(&n, &[("clock", hi), ("d", hi), ("NRST", hi)]),
        );
        let s2 = sim.step(&mut m, &s1, &drive(&n, &[("clock", lo), ("NRST", hi)]));
        assert_eq!(s2.node(q).to_constant(&m), Some(Ternary::One));
        // Assert NRST low: the register resets regardless of the clock.
        let s3 = sim.step(&mut m, &s2, &drive(&n, &[("clock", lo), ("NRST", lo)]));
        let s4 = sim.step(&mut m, &s3, &drive(&n, &[("clock", lo), ("NRST", hi)]));
        assert_eq!(s4.node(q).to_constant(&m), Some(Ternary::Zero));
    }

    #[test]
    fn retention_register_holds_through_reset_when_nret_low() {
        // This is the Figure 1 behaviour with the paper's priority rule:
        // NRET low ⇒ hold, even while NRST pulses low.
        let n = dff_with_controls(RegKind::Retention { reset_value: false });
        let model = CompiledModel::new(&n).expect("compiles");
        let sim = SymSimulator::new(&model);
        let mut m = BddManager::new();
        let q = n.find_net("q").unwrap();
        let lo = SymTernary::ZERO;
        let hi = SymTernary::ONE;
        let sym_d = SymTernary::symbol(&mut m, "v");

        // Capture the symbolic value v.
        let s0 = sim.initial_state(
            &mut m,
            &drive(
                &n,
                &[("clock", lo), ("d", sym_d), ("NRST", hi), ("NRET", hi)],
            ),
        );
        let s1 = sim.step(
            &mut m,
            &s0,
            &drive(
                &n,
                &[("clock", hi), ("d", sym_d), ("NRST", hi), ("NRET", hi)],
            ),
        );
        let s2 = sim.step(
            &mut m,
            &s1,
            &drive(&n, &[("clock", lo), ("NRST", hi), ("NRET", hi)]),
        );
        assert_eq!(s2.node(q), sym_d, "register captured the symbolic value");

        // Sleep: NRET low, then NRST pulses low.  The value must be held.
        let s3 = sim.step(
            &mut m,
            &s2,
            &drive(&n, &[("clock", lo), ("NRST", hi), ("NRET", lo)]),
        );
        let s4 = sim.step(
            &mut m,
            &s3,
            &drive(&n, &[("clock", lo), ("NRST", lo), ("NRET", lo)]),
        );
        let s5 = sim.step(
            &mut m,
            &s4,
            &drive(&n, &[("clock", lo), ("NRST", hi), ("NRET", lo)]),
        );
        assert_eq!(s5.node(q), sym_d, "retention held the value through reset");

        // Resume: NRET high again, value still there.
        let s6 = sim.step(
            &mut m,
            &s5,
            &drive(&n, &[("clock", lo), ("NRST", hi), ("NRET", hi)]),
        );
        assert_eq!(s6.node(q), sym_d);
    }

    #[test]
    fn retention_register_resets_in_sample_mode() {
        // With NRET high (sample mode) the reset behaves normally.
        let n = dff_with_controls(RegKind::Retention { reset_value: false });
        let model = CompiledModel::new(&n).expect("compiles");
        let sim = SymSimulator::new(&model);
        let mut m = BddManager::new();
        let q = n.find_net("q").unwrap();
        let lo = SymTernary::ZERO;
        let hi = SymTernary::ONE;
        let s0 = sim.initial_state(
            &mut m,
            &drive(&n, &[("clock", lo), ("d", hi), ("NRST", lo), ("NRET", hi)]),
        );
        let s1 = sim.step(
            &mut m,
            &s0,
            &drive(&n, &[("clock", lo), ("NRST", hi), ("NRET", hi)]),
        );
        assert_eq!(s1.node(q).to_constant(&m), Some(Ternary::Zero));
    }

    #[test]
    fn overconstrained_drive_produces_top() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.buf("x", a);
        b.mark_output(x);
        let n = b.finish().expect("valid");
        let model = CompiledModel::new(&n).expect("compiles");
        let sim = SymSimulator::new(&model);
        let mut m = BddManager::new();
        let a_id = n.find_net("a").unwrap();
        let s = sim.initial_state(&mut m, &[(a_id, SymTernary::ZERO), (a_id, SymTernary::ONE)]);
        assert_eq!(s.node(a_id).to_constant(&m), Some(Ternary::Top));
    }

    #[test]
    fn planned_steps_reuse_gates_whose_inputs_held() {
        // An 8-bit register captures a symbolic word at the edge seen at
        // t = 2 and then holds it with the clock at 0, feeding an XOR tree
        // whose output is read at every step from t = 2.  Once the tree is
        // computed, the held steps must not evaluate it again: with the
        // computed table emptied before each of them, any re-evaluation
        // would show up as ITE misses.
        let mut b = NetlistBuilder::new("parity");
        let clk = b.input("clock");
        let d = b.word_input("d", 8);
        let q = b.word_reg("q", RegKind::Simple, &d, clk, None, None);
        let mut level = q.clone();
        while level.len() > 1 {
            level = level.chunks(2).map(|p| b.xor_auto(p[0], p[1])).collect();
        }
        let parity = b.buf("parity", level[0]);
        b.mark_output(parity);
        let n = b.finish().expect("valid");
        let model = CompiledModel::new(&n).expect("compiles");
        let sim = SymSimulator::new(&model);
        let mut m = BddManager::new();
        let v: Vec<SymTernary> = (0..8)
            .map(|i| SymTernary::symbol(&mut m, format!("v{i}")))
            .collect();
        let depth = 7;
        let drives: Vec<Vec<(NetId, SymTernary)>> = (0..depth)
            .map(|t| {
                let level = if t == 1 {
                    SymTernary::ONE
                } else {
                    SymTernary::ZERO
                };
                let mut drive = vec![(clk, level)];
                if t < 2 {
                    drive.extend(d.iter().copied().zip(v.iter().copied()));
                }
                drive
            })
            .collect();
        let reads: Vec<Vec<(NetId, SymTernary)>> = (0..depth)
            .map(|t| {
                if t < 2 {
                    Vec::new()
                } else {
                    vec![(parity, SymTernary::X)]
                }
            })
            .collect();
        let plan = DemandPlan::new(&model, &drives, &reads);
        let full = sim.run(&mut m, &drives);

        let mut prev: Option<SymState> = None;
        for (t, drive) in drives.iter().enumerate() {
            m.clear_caches();
            let before = m.stats().ite_cache_misses;
            let state = sim.planned_step(&mut m, prev.as_ref(), drive, &plan, t);
            let misses = m.stats().ite_cache_misses - before;
            match t {
                2 => assert!(misses > 0, "the capture step computes the tree"),
                3.. => assert_eq!(misses, 0, "held step {t} re-evaluated the tree"),
                _ => {}
            }
            for &(net, _) in drive.iter().chain(&reads[t]) {
                assert_eq!(state.node(net), full[t].node(net), "step {t}");
            }
            prev = Some(state);
        }
    }

    #[test]
    fn run_produces_one_state_per_drive() {
        let n = dff_with_controls(RegKind::Simple);
        let model = CompiledModel::new(&n).expect("compiles");
        let sim = SymSimulator::new(&model);
        let mut m = BddManager::new();
        let drives = vec![
            drive(&n, &[("clock", SymTernary::ZERO)]),
            drive(&n, &[("clock", SymTernary::ONE)]),
            drive(&n, &[("clock", SymTernary::ZERO)]),
        ];
        let states = sim.run(&mut m, &drives);
        assert_eq!(states.len(), 3);
    }
}
