//! # ssr-sim — concrete and symbolic ternary simulation of netlists
//!
//! This crate turns a [`ssr_netlist::Netlist`] into an executable model — the
//! equivalent of the paper's "BLIF model compiled to a finite-state machine"
//! — and provides two simulators over it:
//!
//! * [`SymSimulator`] — the **ternary symbolic simulator** used by STE.  Every
//!   net carries a dual-rail [`ssr_ternary::SymTernary`] value; one call to
//!   [`SymSimulator::step`] computes the circuit's excitation `M(σ(t-1))`,
//!   joins it with the constraints the caller supplies for time `t` (the STE
//!   antecedent's defining sequence) and closes the combinational logic.
//! * [`ConcreteSimulator`] — a scalar ternary simulator used as the baseline
//!   "conventional simulation with 0s and 1s" (experiment E9) and as a
//!   reference semantics in tests.
//!
//! ## Planned simulation
//!
//! A verdict reads only a few nets per step, and most of a full step's BDD
//! work lands in cells none of them can see.  [`SymSimulator::planned_step`]
//! simulates under a per-assertion [`DemandPlan`] instead, which the STE
//! checker builds before it simulates:
//!
//! * **Exactness.**  A cheap abstract run gives each rail of each net one
//!   of "constantly true", "constantly false" or "depends on the
//!   assignment", replaying every dual-rail operation of
//!   [`SymSimulator::step`] with three-valued and/or.  A net with two
//!   constant rails is *exact*: the full simulation gives it the same
//!   lattice constant (0, 1, X or ⊤) under every assignment, so the
//!   planned step sets it without a BDD operation.
//! * **Demand.**  A backward walk marks, step by step, the nets whose
//!   symbolic value the verdict can read: the antecedent's driven nets and
//!   the consequent's nets, then whatever a demanded gate or register
//!   reads, cut at exact values — a constant 0 on an AND input, a constant
//!   mux select, a clock with no edge.  Only demanded nets are computed;
//!   every other net stays X.
//! * **Reuse.**  A demanded gate that was computed one step earlier, not
//!   driven there, and whose inputs carry the same BDD handles takes its
//!   previous value.  Handles are canonical and the previous state stays
//!   protected until its successor is, so equal handles mean equal
//!   functions: state held through sleep or a parked PC costs nothing.
//!
//! Every driven and consequent net carries exactly the BDD the full
//! simulation computes, so verdicts, conflicts and counterexamples do not
//! move.  [`SymSimulator::step`] and [`SymSimulator::run`] stay the full
//! simulation, and share one stepping body with the planned step.
//!
//! ## Timing model
//!
//! The model is a Moore machine over discrete STE time units.  All registers
//! are rising-edge triggered; an edge is "seen" at time `t` when the clock
//! net was `1` at `t-1` and `0` at `t-2` (the value at `t-2` is carried in a
//! per-register shadow).  The captured data is the register's data input at
//! `t-1`.  Asynchronous controls (`NRST`, `NRET`) are sampled at `t-1` as
//! well:
//!
//! * retention registers with `NRET = 0` at `t-1` **hold** their value and
//!   ignore both the clock and the reset (retention has priority over reset,
//!   as required by the paper);
//! * registers with `NRST = 0` at `t-1` (and, for retention registers,
//!   `NRET = 1`) load their reset value at `t`.
//!
//! This one-step-delayed timing is documented in `EXPERIMENTS.md`; the
//! property suites in `ssr-properties` are written against it.
//!
//! ```
//! use ssr_bdd::BddManager;
//! use ssr_netlist::builder::NetlistBuilder;
//! use ssr_netlist::RegKind;
//! use ssr_sim::{CompiledModel, SymSimulator};
//! use ssr_ternary::SymTernary;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetlistBuilder::new("toggle");
//! let clk = b.input("clock");
//! let d = b.input("d");
//! let q = b.reg("q", RegKind::Simple, d, clk, None, None);
//! b.mark_output(q);
//! let netlist = b.finish()?;
//!
//! let model = CompiledModel::new(&netlist)?;
//! let mut mgr = BddManager::new();
//! let sim = SymSimulator::new(&model);
//! let clk_id = netlist.find_net("clock").expect("clock net");
//! let d_id = netlist.find_net("d").expect("d net");
//! // Drive a rising edge with d = 1 and watch q become 1 two steps later.
//! let s0 = sim.initial_state(&mut mgr, &[(clk_id, SymTernary::ZERO), (d_id, SymTernary::ONE)]);
//! let s1 = sim.step(&mut mgr, &s0, &[(clk_id, SymTernary::ONE), (d_id, SymTernary::ONE)]);
//! let s2 = sim.step(&mut mgr, &s1, &[(clk_id, SymTernary::ZERO)]);
//! let q_id = netlist.find_net("q").expect("q net");
//! assert_eq!(s2.node(q_id).to_constant(&mgr), Some(ssr_ternary::Ternary::One));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concrete;
mod model;
mod plan;
mod symbolic;
pub mod waveform;

pub use concrete::{ConcreteSimulator, ConcreteState};
pub use model::CompiledModel;
pub use plan::DemandPlan;
pub use symbolic::{SymSimulator, SymState};
