//! Scalar ternary simulator — the "conventional simulation" baseline.
//!
//! The algorithm mirrors [`crate::SymSimulator`] exactly, but every net
//! carries a scalar [`Ternary`] instead of a dual-rail BDD pair.  One run of
//! the concrete simulator explores a single point of the input space; the
//! scalar-vs-symbolic experiment (E9) counts how many such runs are needed
//! to cover what one symbolic run covers.

use ssr_netlist::{CellKind, GateOp, NetId, RegKind};
use ssr_ternary::Ternary;

use crate::model::CompiledModel;

/// The complete scalar circuit state at one time unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcreteState {
    nodes: Vec<Ternary>,
    shadow_clk: Vec<Ternary>,
}

impl ConcreteState {
    /// The value of a net.
    ///
    /// # Panics
    /// Panics if the net id does not belong to the model this state was
    /// created from.
    pub fn node(&self, id: NetId) -> Ternary {
        self.nodes[id.index()]
    }

    /// All node values, indexed by net id.
    pub fn nodes(&self) -> &[Ternary] {
        &self.nodes
    }
}

/// Concrete (scalar ternary) simulator over a [`CompiledModel`].
#[derive(Debug, Clone)]
pub struct ConcreteSimulator<'m> {
    model: &'m CompiledModel,
}

impl<'m> ConcreteSimulator<'m> {
    /// Creates a simulator for the given model.
    pub fn new(model: &'m CompiledModel) -> Self {
        ConcreteSimulator { model }
    }

    /// The model being simulated.
    pub fn model(&self) -> &'m CompiledModel {
        self.model
    }

    /// Builds the state at time 0 from the given input values; everything
    /// not listed starts at `X`.
    pub fn initial_state(&self, inputs: &[(NetId, Ternary)]) -> ConcreteState {
        let netlist = self.model.netlist();
        let mut nodes = vec![Ternary::X; netlist.net_count()];
        let shadow_clk = vec![Ternary::X; self.model.state_bits()];
        self.apply_constants(&mut nodes);
        for &(id, v) in inputs {
            nodes[id.index()] = nodes[id.index()].join(v);
        }
        self.propagate(&mut nodes);
        ConcreteState { nodes, shadow_clk }
    }

    /// Computes the state at time `t` from `prev` and the input values for
    /// time `t`.
    pub fn step(&self, prev: &ConcreteState, inputs: &[(NetId, Ternary)]) -> ConcreteState {
        let netlist = self.model.netlist();
        let mut nodes = vec![Ternary::X; netlist.net_count()];
        let mut shadow_clk = Vec::with_capacity(self.model.state_bits());

        for (state_index, &cell_id) in self.model.state_cells().iter().enumerate() {
            let cell = netlist.cell(cell_id);
            let kind = match cell.kind {
                CellKind::Reg(k) => k,
                CellKind::Gate(_) => unreachable!("state_cells only holds registers"),
            };
            let q_prev = prev.nodes[cell.output.index()];
            let d_prev = prev.nodes[cell.reg_data().index()];
            let clk_prev = prev.nodes[cell.reg_clock().index()];
            let clk_shadow = prev.shadow_clk[state_index];

            let rising = clk_prev.and(clk_shadow.not());
            let clocked = Ternary::mux(rising, d_prev, q_prev);
            let next = match kind {
                RegKind::Simple => clocked,
                RegKind::AsyncReset { reset_value } => {
                    let nrst = prev.nodes[cell.reg_nrst().expect("has nrst").index()];
                    Ternary::mux(nrst, clocked, Ternary::from_bool(reset_value))
                }
                RegKind::Retention { reset_value } => {
                    let nrst = prev.nodes[cell.reg_nrst().expect("has nrst").index()];
                    let nret = prev.nodes[cell.reg_nret().expect("has nret").index()];
                    let sample = Ternary::mux(nrst, clocked, Ternary::from_bool(reset_value));
                    Ternary::mux(nret, sample, q_prev)
                }
            };
            nodes[cell.output.index()] = next;
            shadow_clk.push(clk_prev);
        }

        self.apply_constants(&mut nodes);
        for &(id, v) in inputs {
            nodes[id.index()] = nodes[id.index()].join(v);
        }
        self.propagate(&mut nodes);
        ConcreteState { nodes, shadow_clk }
    }

    /// Runs a whole trajectory: `inputs[t]` are the input values at time `t`.
    pub fn run(&self, inputs: &[Vec<(NetId, Ternary)>]) -> Vec<ConcreteState> {
        let mut states = Vec::with_capacity(inputs.len());
        for (t, step_inputs) in inputs.iter().enumerate() {
            let state = if t == 0 {
                self.initial_state(step_inputs)
            } else {
                self.step(&states[t - 1], step_inputs)
            };
            states.push(state);
        }
        states
    }

    fn apply_constants(&self, nodes: &mut [Ternary]) {
        for &(id, v) in self.model.constants() {
            nodes[id.index()] = Ternary::from_bool(v);
        }
    }

    fn propagate(&self, nodes: &mut [Ternary]) {
        let netlist = self.model.netlist();
        for &cell_id in self.model.comb_order() {
            let cell = netlist.cell(cell_id);
            let op = match cell.kind {
                CellKind::Gate(op) => op,
                CellKind::Reg(_) => unreachable!("comb_order only holds gates"),
            };
            let ins: Vec<Ternary> = cell.inputs.iter().map(|&i| nodes[i.index()]).collect();
            let value = Self::eval_gate(op, &ins);
            let out = cell.output.index();
            nodes[out] = nodes[out].join(value);
        }
    }

    fn eval_gate(op: GateOp, inputs: &[Ternary]) -> Ternary {
        match op {
            GateOp::Buf => inputs[0],
            GateOp::Not => inputs[0].not(),
            GateOp::And => inputs[0].and(inputs[1]),
            GateOp::Or => inputs[0].or(inputs[1]),
            GateOp::Xor => inputs[0].xor(inputs[1]),
            GateOp::Nand => inputs[0].and(inputs[1]).not(),
            GateOp::Nor => inputs[0].or(inputs[1]).not(),
            GateOp::Xnor => inputs[0].xor(inputs[1]).not(),
            GateOp::Mux => Ternary::mux(inputs[0], inputs[1], inputs[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_netlist::builder::NetlistBuilder;
    use ssr_netlist::Netlist;

    fn counter_bit() -> Netlist {
        // q toggles on every rising edge when enable is high.
        let mut b = NetlistBuilder::new("counter");
        let clk = b.input("clock");
        let en = b.input("enable");
        let placeholder = b.constant(false);
        let q = b.reg("q", RegKind::Simple, placeholder, clk, None, None);
        let nq = b.not("nq", q);
        let d = b.mux("d", en, nq, q);
        b.patch_reg_data(q, d);
        b.mark_output(q);
        b.finish().expect("valid")
    }

    fn inputs(n: &Netlist, pairs: &[(&str, Ternary)]) -> Vec<(NetId, Ternary)> {
        pairs
            .iter()
            .map(|(name, v)| (n.find_net(name).expect("net"), *v))
            .collect()
    }

    #[test]
    fn toggle_counter_behaviour() {
        let n = counter_bit();
        let model = CompiledModel::new(&n).expect("compiles");
        let sim = ConcreteSimulator::new(&model);
        let q = n.find_net("q").unwrap();
        use Ternary::{One, Zero};

        // Initialise q by construction: it starts X, so first force a known
        // value by driving the output... instead run with enable=1 and check
        // the toggling relative to an established value.
        let mut states = Vec::new();
        states.push(sim.initial_state(&inputs(&n, &[("clock", Zero), ("enable", One)])));
        // Drive several full clock cycles.
        for cycle in 0..4 {
            let prev = states.last().unwrap().clone();
            let s_high = sim.step(&prev, &inputs(&n, &[("clock", One), ("enable", One)]));
            let s_low = sim.step(&s_high, &inputs(&n, &[("clock", Zero), ("enable", One)]));
            states.push(s_high);
            states.push(s_low);
            let _ = cycle;
        }
        // q is X initially (unknown power-up) and stays X: NOT(X) = X.
        assert_eq!(states.last().unwrap().node(q), Ternary::X);

        // Now pin the register by driving its output once (modelling a known
        // power-up state), and verify it toggles afterwards.
        let pinned = sim.initial_state(&inputs(
            &n,
            &[("clock", Zero), ("enable", One), ("q", Zero)],
        ));
        let s1 = sim.step(&pinned, &inputs(&n, &[("clock", One), ("enable", One)]));
        let s2 = sim.step(&s1, &inputs(&n, &[("clock", Zero), ("enable", One)]));
        assert_eq!(s2.node(q), One, "toggled 0 -> 1");
        let s3 = sim.step(&s2, &inputs(&n, &[("clock", One), ("enable", One)]));
        let s4 = sim.step(&s3, &inputs(&n, &[("clock", Zero), ("enable", One)]));
        assert_eq!(s4.node(q), Zero, "toggled 1 -> 0");
        // With enable low it holds.
        let s5 = sim.step(&s4, &inputs(&n, &[("clock", One), ("enable", Zero)]));
        let s6 = sim.step(&s5, &inputs(&n, &[("clock", Zero), ("enable", Zero)]));
        assert_eq!(s6.node(q), Zero);
    }

    #[test]
    fn run_helper() {
        let n = counter_bit();
        let model = CompiledModel::new(&n).expect("compiles");
        let sim = ConcreteSimulator::new(&model);
        let seq = vec![
            inputs(&n, &[("clock", Ternary::Zero)]),
            inputs(&n, &[("clock", Ternary::One)]),
        ];
        let states = sim.run(&seq);
        assert_eq!(states.len(), 2);
    }
}
