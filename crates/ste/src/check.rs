//! The STE assertion checker (Definition 3 and the verification condition).

use std::time::{Duration, Instant};

use ssr_bdd::{Assignment, Bdd, BddManager};
use ssr_netlist::{NetId, Netlist};
use ssr_sim::{CompiledModel, DemandPlan, SymSimulator, SymState};
use ssr_ternary::{SymTernary, Ternary};

use crate::error::SteError;
use crate::formula::Assertion;

/// One violated consequent constraint in a counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedNode {
    /// Time unit of the violated constraint.
    pub time: usize,
    /// Node name.
    pub node: String,
    /// Value the consequent required (under the counterexample assignment).
    pub expected: Ternary,
    /// Value the defining trajectory actually carries.
    pub actual: Ternary,
}

/// A concrete counterexample: an assignment of the symbolic variables plus
/// the list of violated constraints it exposes.
///
/// As the paper notes, a single symbolic counterexample captures *all*
/// failing scalar traces; this type reports one satisfying assignment of the
/// failure condition (and the full failure condition is available as
/// `!CheckReport::ok`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The satisfying assignment of the failure condition.
    pub assignment: Assignment,
    /// The constraints that fail under this assignment.
    pub failures: Vec<FailedNode>,
}

/// The result of checking one assertion.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The assertion's name, if it had one.
    pub name: Option<String>,
    /// `true` iff the assertion holds for every assignment of the symbolic
    /// variables.
    pub holds: bool,
    /// BDD over the symbolic variables where the consequent is satisfied.
    /// The assertion holds iff this is the constant true function.
    pub ok: Bdd,
    /// BDD where some antecedent-driven node became `⊤` (overconstrained).
    /// A non-false value means the antecedent conflicts with the circuit (or
    /// itself) for those assignments and the check is vacuous there.
    pub antecedent_conflict: Bdd,
    /// One concrete counterexample if the assertion fails.
    pub counterexample: Option<Counterexample>,
    /// Number of time units simulated.
    pub depth: usize,
    /// Number of point-wise `⊑` checks performed.
    pub constraints_checked: usize,
    /// Wall-clock time of the check (simulation + comparison).
    pub duration: Duration,
}

impl CheckReport {
    /// Convenience: `true` when the assertion failed but only because the
    /// antecedent was contradictory everywhere (a vacuous pass would be
    /// reported as `holds == true`, so this flags suspicious successes).
    pub fn is_vacuous(&self) -> bool {
        self.holds && self.antecedent_conflict.is_true()
    }
}

/// The STE model checker bound to a compiled circuit model.
#[derive(Debug, Clone)]
pub struct Ste<'m> {
    model: &'m CompiledModel,
}

impl<'m> Ste<'m> {
    /// Creates a checker for the given model.
    pub fn new(model: &'m CompiledModel) -> Self {
        Ste { model }
    }

    /// The model being checked.
    pub fn model(&self) -> &'m CompiledModel {
        self.model
    }

    /// Checks the assertion `A ⇒ C` against the model.
    ///
    /// The trajectory is simulated under a [`DemandPlan`]: only the nets
    /// the verdict can read are computed, each exactly as the full
    /// simulation would ([`SymSimulator::planned_step`]), and a gate whose
    /// inputs did not change since the previous step keeps its value.
    ///
    /// The trajectory is streamed: only the newest state stays protected
    /// (its predecessor is released once the successor is computed), and
    /// the point-wise `⊑` conditions that are not trivially true are kept
    /// as a partition list, conjoined at the end smallest first.  The
    /// assertion's guards and its antecedent/consequent constraints stay
    /// rooted throughout.
    ///
    /// The checker never installs a maintenance policy; it honours the one
    /// the manager has ([`BddManager::set_maintenance`]).  With a policy,
    /// the simulator and the checker's per-step safe points may
    /// garbage-collect the released states, so peak memory
    /// stays bounded by the working set rather than the trajectory.  With
    /// none, nothing is freed and every handle the caller holds stays
    /// valid.  The verdict is the same either way.  After a check under a
    /// policy, the raw BDDs in the returned [`CheckReport`] (`ok`,
    /// `antecedent_conflict`) are only guaranteed valid until the next
    /// collection.
    ///
    /// # Errors
    /// Returns [`SteError::UnknownNode`] if either formula mentions a node
    /// that does not exist in the model.
    pub fn check(
        &self,
        m: &mut BddManager,
        assertion: &Assertion,
    ) -> Result<CheckReport, SteError> {
        let start = Instant::now();
        let netlist = self.model.netlist();
        let depth = assertion.depth();
        let state_bits = self.model.state_bits();

        // A job whose deadline already lapsed (e.g. on a later assertion
        // of a long suite) gives up before elaborating anything new.
        m.check_deadline();
        let a_seq = assertion.antecedent.defining_sequence(m, netlist, depth)?;
        let c_seq = assertion.consequent.defining_sequence(m, netlist, depth)?;
        let plan = DemandPlan::new(self.model, &a_seq, &c_seq);

        m.push_root_frame();
        // The assertion's own guard BDDs are rooted too, so the caller can
        // re-check the same assertion after a collection.
        let mut guards = Vec::new();
        assertion.collect_bdds(&mut guards);
        for guard in guards {
            m.root(guard);
        }
        for seq in [&a_seq, &c_seq] {
            for constraints in seq {
                for &(_, value) in constraints {
                    m.root(value.hi());
                    m.root(value.lo());
                }
            }
        }

        let sim = SymSimulator::new(self.model);
        let mut conflict = Bdd::FALSE;
        let mut parts: Vec<Bdd> = Vec::new();
        let mut constraints_checked = 0usize;
        let mut violated: Vec<Violation> = Vec::new();
        let mut prev: Option<SymState> = None;
        for (t, drive) in a_seq.iter().enumerate() {
            // Per-step deadline probe: tighter than the kernel's periodic
            // in-recursion check, and at a point where the root frame
            // makes unwinding safe.
            m.check_deadline();
            let state = sim.planned_step(m, prev.as_ref(), drive, &plan, t);
            protect_state(m, &state, state_bits);
            if let Some(p) = prev.take() {
                release_state(m, &p, state_bits);
            }
            // Antecedent consistency: a ⊤ on any antecedent-driven node
            // means the stimulus contradicts the circuit (or itself) for
            // those assignments.
            for &(net, _) in drive {
                let top_here = state.node(net).is_top(m);
                let next = m.or(conflict, top_here);
                m.protect(next);
                m.release(conflict);
                conflict = next;
            }
            // The verification condition: ∀ t, n. [C] t n ⊑ [[A]] t n.
            for &(net, required) in &c_seq[t] {
                let actual = state.node(net);
                let cond = required.leq(m, &actual);
                constraints_checked += 1;
                // A true condition is the conjunction identity: dropping
                // it leaves `ok`, the verdict and the counterexample as
                // they are.
                if !cond.is_true() {
                    m.protect(cond);
                    m.protect(actual.hi());
                    m.protect(actual.lo());
                    parts.push(cond);
                    violated.push((t, net, required, actual));
                }
            }
            m.maintain();
            prev = Some(state);
        }
        if let Some(p) = prev.take() {
            release_state(m, &p, state_bits);
        }

        // Conjoin the partition frames smallest first (ties by handle, so
        // the order is deterministic), stopping at the first FALSE.
        let mut order: Vec<(usize, Bdd)> = parts.iter().map(|&p| (m.size(p), p)).collect();
        order.sort_unstable();
        let ok = m.and_all(order.into_iter().map(|(_, p)| p));

        let holds = ok.is_true();
        let counterexample = counterexample(m, netlist, ok, &violated);

        for &(_, _, _, actual) in &violated {
            m.release(actual.hi());
            m.release(actual.lo());
        }
        for &part in &parts {
            m.release(part);
        }
        m.release(conflict);
        m.pop_root_frame();

        Ok(CheckReport {
            name: assertion.name.clone(),
            holds,
            ok,
            antecedent_conflict: conflict,
            counterexample,
            depth,
            constraints_checked,
            duration: start.elapsed(),
        })
    }

    /// Checks a whole suite of assertions, returning one report per
    /// assertion in order.
    ///
    /// The guard BDDs of *every* assertion are rooted for the duration of
    /// the run, so a collection triggered inside one check cannot reclaim
    /// the formulas of the checks still to come.
    ///
    /// # Errors
    /// Fails fast on the first elaboration error.
    pub fn check_all(
        &self,
        m: &mut BddManager,
        assertions: &[Assertion],
    ) -> Result<Vec<CheckReport>, SteError> {
        let mut guards = Vec::new();
        for assertion in assertions {
            assertion.collect_bdds(&mut guards);
        }
        m.push_root_frame();
        for guard in guards {
            m.root(guard);
        }
        let reports = assertions.iter().map(|a| self.check(m, a)).collect();
        m.pop_root_frame();
        reports
    }
}

/// A consequent constraint that is not trivially met: its time, node,
/// required value and the value the trajectory carries there.
type Violation = (usize, NetId, SymTernary, SymTernary);

/// The counterexample of a failed check (`None` when `ok` is `TRUE`): one
/// assignment falsifying `ok`, and every violated constraint it exposes.
fn counterexample(
    m: &BddManager,
    netlist: &Netlist,
    ok: Bdd,
    violated: &[Violation],
) -> Option<Counterexample> {
    let mut assignment = m.one_sat(ok.negate())?;
    // `one_sat` leaves the variables off its path free, and a rail that
    // reads a free variable evaluates to X, which `⊑` forgives.  Every
    // completion still falsifies `ok`, so fix them to 0: then some
    // violated constraint must fail concretely.
    for var in 0..m.var_count() as u32 {
        if assignment.get(var).is_none() {
            assignment.set(var, false);
        }
    }
    let decided = "a complete assignment decides every rail";
    let failures = violated
        .iter()
        .filter_map(|&(time, net, required, actual)| {
            let expected = required.eval(m, &assignment).expect(decided);
            let actual = actual.eval(m, &assignment).expect(decided);
            (!expected.leq(actual)).then(|| FailedNode {
                time,
                node: netlist.net(net).name.clone(),
                expected,
                actual,
            })
        })
        .collect();
    Some(Counterexample {
        assignment,
        failures,
    })
}

/// Protects a trajectory state's node and shadow-clock rails (refcounts,
/// so nesting with root frames is safe).
fn protect_state(m: &mut BddManager, state: &SymState, state_bits: usize) {
    for value in state.nodes() {
        m.protect(value.hi());
        m.protect(value.lo());
    }
    for index in 0..state_bits {
        let shadow = state.shadow_clk(index);
        m.protect(shadow.hi());
        m.protect(shadow.lo());
    }
}

/// Undoes [`protect_state`] once the successor state is protected.
fn release_state(m: &mut BddManager, state: &SymState, state_bits: usize) {
    for value in state.nodes() {
        m.release(value.hi());
        m.release(value.lo());
    }
    for index in 0..state_bits {
        let shadow = state.shadow_clk(index);
        m.release(shadow.hi());
        m.release(shadow.lo());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;
    use crate::stimulus::{waveform, Segment};
    use ssr_bdd::{BddVec, MaintainSettings};
    use ssr_netlist::builder::NetlistBuilder;
    use ssr_netlist::RegKind;

    fn and_gate() -> Netlist {
        let mut b = NetlistBuilder::new("and");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and("out", a, c);
        b.mark_output(x);
        b.finish().expect("valid")
    }

    fn dff() -> Netlist {
        let mut b = NetlistBuilder::new("dff");
        let clk = b.input("clock");
        let d = b.input("d");
        let q = b.reg("q", RegKind::Simple, d, clk, None, None);
        b.mark_output(q);
        b.finish().expect("valid")
    }

    /// The dff capture property: `d` holds `v` over [0, 2) across a rising
    /// clock edge at 1, and `q` is claimed to show `v` at time `at`.  The
    /// model's timing makes it hold for `at == 2` and fail for `at == 1`.
    fn dff_capture(m: &mut BddManager, v: Bdd, at: usize) -> Assertion {
        let clock = Formula::is0("clock")
            .and(Formula::is1("clock").delay(1))
            .and(Formula::is0("clock").delay(2));
        let data = Formula::is_bdd(m, "d", v).from_to(0, 2);
        let c = Formula::is_bdd(m, "q", v).delay(at);
        Assertion::named("dff_capture", clock.and(data), c)
    }

    /// A `width`-bit register `q` that increments on every rising clock
    /// edge.
    fn counter(width: usize) -> Netlist {
        let mut b = NetlistBuilder::new("counter");
        let clk = b.input("clock");
        let zero = b.constant(false);
        let q = b.word_reg("q", RegKind::Simple, &vec![zero; width], clk, None, None);
        let one = b.word_constant(1, width);
        let (next, _carry) = b.word_add(&q, &one, None).expect("widths");
        for (&bit, &d) in q.iter().zip(&next) {
            b.patch_reg_data(bit, d);
        }
        b.mark_word_output(&q);
        b.finish().expect("valid")
    }

    /// Checks the counter from a symbolic start value `v` over `depth` time
    /// units of a free-running clock (a rising edge every second unit),
    /// with a consequent on the whole word at the last unit:
    /// `q = v + increments`.  Every bit's carry chain is demanded, so the
    /// planned simulation does the adder's full work at every edge.
    fn check_counter(m: &mut BddManager, model: &CompiledModel, depth: usize) -> CheckReport {
        let width = model.state_bits();
        let start = BddVec::new_input(m, "v", width);
        let mut clock = Formula::is0("clock");
        for t in 1..depth {
            let level = if t % 2 == 1 {
                Formula::is1("clock")
            } else {
                Formula::is0("clock")
            };
            clock = clock.and(level.delay(t));
        }
        let a = clock.and(Formula::word_is(m, "q", &start));
        let increments = (depth - 1) / 2;
        let expected = start.add_constant(m, increments as u64);
        let c = Formula::word_is(m, "q", &expected).delay(depth - 1);
        Ste::new(model)
            .check(m, &Assertion::named("count", a, c))
            .expect("checks")
    }

    #[test]
    fn combinational_assertion_holds() {
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let va = m.new_var("va");
        let vb = m.new_var("vb");
        let a = Formula::is_bdd(&mut m, "a", va).and(Formula::is_bdd(&mut m, "b", vb));
        let expected = m.and(va, vb);
        let c = Formula::is_bdd(&mut m, "out", expected);
        let report = ste
            .check(&mut m, &Assertion::named("and_ok", a, c))
            .expect("checks");
        assert!(report.holds);
        assert!(report.counterexample.is_none());
        assert!(report.antecedent_conflict.is_false());
        assert_eq!(report.depth, 1);
        assert_eq!(report.name.as_deref(), Some("and_ok"));
    }

    #[test]
    fn wrong_spec_produces_counterexample() {
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let va = m.new_var("va");
        let vb = m.new_var("vb");
        let a = Formula::is_bdd(&mut m, "a", va).and(Formula::is_bdd(&mut m, "b", vb));
        // Wrong: claim the output is the OR of the inputs.
        let wrong = m.or(va, vb);
        let c = Formula::is_bdd(&mut m, "out", wrong);
        let report = ste.check(&mut m, &Assertion::new(a, c)).expect("checks");
        assert!(!report.holds);
        let cex = report.counterexample.expect("has counterexample");
        assert!(!cex.failures.is_empty());
        assert_eq!(cex.failures[0].node, "out");
        // The reported assignment indeed violates AND vs OR (exactly one
        // input true).
        let va_val = cex.assignment.get(0).unwrap_or(false);
        let vb_val = cex.assignment.get(1).unwrap_or(false);
        assert_ne!(va_val && vb_val, va_val || vb_val);
    }

    #[test]
    fn partial_information_yields_x_failure() {
        // Asking for a defined output value without driving the inputs
        // cannot hold: the trajectory carries X.
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let a = Formula::is1("a"); // b is left unconstrained
        let c = Formula::is1("out");
        let report = ste.check(&mut m, &Assertion::new(a, c)).expect("checks");
        assert!(!report.holds);
        let cex = report.counterexample.expect("has counterexample");
        assert_eq!(cex.failures[0].actual, Ternary::X);
        assert_eq!(cex.failures[0].expected, Ternary::One);
    }

    #[test]
    fn controlling_zero_needs_no_second_input() {
        // a = 0 forces out = 0 even though b is X — the ternary abstraction
        // at work.
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let a = Formula::is0("a");
        let c = Formula::is0("out");
        let report = ste.check(&mut m, &Assertion::new(a, c)).expect("checks");
        assert!(report.holds);
    }

    #[test]
    fn sequential_assertion_with_clocking() {
        // Drive a value through the flop across a rising edge and check the
        // output two steps later (the model's documented timing).
        let n = dff();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let v = m.new_var("v");
        let good = dff_capture(&mut m, v, 2);
        let report = ste.check(&mut m, &good).expect("checks");
        assert!(report.holds, "flop captures the symbolic value");
        assert_eq!(report.depth, 3);

        // Negative control: claiming the value appears one step too early
        // must fail, naming `q` at time 1.
        let early = dff_capture(&mut m, v, 1);
        let report2 = ste.check(&mut m, &early).expect("checks");
        assert!(!report2.holds);
        let cex = report2.counterexample.expect("has counterexample");
        assert_eq!(
            (cex.failures[0].time, cex.failures[0].node.as_str()),
            (1, "q")
        );

        // Figure 1: capture v, then sleep (NRET low over [3, 6)) while NRST
        // pulses low at 4.  A retention cell keeps v throughout; an
        // async-reset cell loses it to the reset.
        for (kind, keeps) in [
            (RegKind::Retention { reset_value: false }, true),
            (RegKind::AsyncReset { reset_value: false }, false),
        ] {
            let retained = matches!(kind, RegKind::Retention { .. });
            let mut b = NetlistBuilder::new("cell");
            let clk = b.input("clock");
            let nrst = b.input("NRST");
            let nret = retained.then(|| b.input("NRET"));
            let d = b.input("d");
            let q = b.reg("q", kind, d, clk, Some(nrst), nret);
            b.mark_output(q);
            let n = b.finish().expect("valid");
            let model = CompiledModel::new(&n).expect("compiles");
            let mut m = BddManager::new();
            let v = m.new_var("v");
            let seg = Segment::new;
            let mut a = waveform(
                "clock",
                &[seg(false, 0, 1), seg(true, 1, 2), seg(false, 2, 8)],
            )
            .and(waveform(
                "NRST",
                &[seg(true, 0, 4), seg(false, 4, 5), seg(true, 5, 8)],
            ))
            .and(Formula::is_bdd(&mut m, "d", v).from_to(0, 2));
            if retained {
                a = a.and(waveform(
                    "NRET",
                    &[seg(true, 0, 3), seg(false, 3, 6), seg(true, 6, 8)],
                ));
            }
            let c = Formula::is_bdd(&mut m, "q", v).from_to(2, 8);
            let report = Ste::new(&model)
                .check(&mut m, &Assertion::new(a, c))
                .expect("checks");
            assert_eq!(report.holds, keeps, "{kind:?}");
        }
    }

    #[test]
    fn conjunctive_mode_streams_sequential_trajectories() {
        // The checker streams the trajectory conjunct by conjunct, releasing
        // each state once its successor is computed.  Collecting every
        // released state as soon as the live set doubles must leave the
        // dff capture verdicts and the counterexample unchanged.
        let n = dff();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let verdicts = |m: &mut BddManager| {
            let v = m.new_var("v");
            let good = dff_capture(m, v, 2);
            let early = dff_capture(m, v, 1);
            let good = ste.check(m, &good).expect("checks");
            let early = ste.check(m, &early).expect("checks");
            (good.holds, good.depth, early.holds, early.counterexample)
        };
        let mut m = BddManager::new();
        let kept = verdicts(&mut m);
        assert_eq!(m.stats().gc_passes, 0);
        assert!(kept.0, "flop captures the symbolic value");
        assert_eq!(kept.1, 3);
        assert!(!kept.2);
        assert!(kept.3.is_some(), "early claim has a counterexample");

        let mut eager = BddManager::new();
        eager.set_maintenance(Some(MaintainSettings { gc_threshold: 1 }));
        let collected = verdicts(&mut eager);
        assert!(eager.stats().gc_passes > 0, "states were collected");
        assert_eq!(collected, kept);
    }

    #[test]
    fn antecedent_conflict_is_reported() {
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        // a is required to be both 0 and 1: contradictory antecedent.
        let a = Formula::is0("a").and(Formula::is1("a"));
        let c = Formula::is0("out");
        let report = ste.check(&mut m, &Assertion::new(a, c)).expect("checks");
        assert!(report.antecedent_conflict.is_true());
    }

    #[test]
    fn a_constant_drive_on_a_symbolic_net_can_conflict() {
        // g = buf(x) and out = and(g, y), with x is v, g is 0 and y is 1,
        // claiming out is 1.  g is x ⊔ 0: 0 where v = 0 and ⊤ where v = 1,
        // so out is 0 or ⊤, and both the claim and the conflict are exactly
        // v.  Reading the symbolic drive on x as X would make g an exact 0
        // and report FALSE for both.
        let mut b = NetlistBuilder::new("top");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.buf("g", x);
        let out = b.and("out", g, y);
        b.mark_output(out);
        let n = b.finish().expect("valid");
        let model = CompiledModel::new(&n).expect("compiles");
        let mut m = BddManager::new();
        let v = m.new_var("v");
        let a = Formula::is_bdd(&mut m, "x", v)
            .and(Formula::is0("g"))
            .and(Formula::is1("y"));
        let report = Ste::new(&model)
            .check(&mut m, &Assertion::new(a, Formula::is1("out")))
            .expect("checks");
        assert_eq!(report.ok, v);
        assert_eq!(report.antecedent_conflict, v);
    }

    #[test]
    fn unknown_nodes_are_errors() {
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let a = Formula::is1("nonexistent");
        let c = Formula::is1("out");
        assert!(matches!(
            ste.check(&mut m, &Assertion::new(a, c)),
            Err(SteError::UnknownNode(_))
        ));
    }

    #[test]
    fn check_all_returns_one_report_per_assertion() {
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let suite = vec![
            Assertion::named("zero_a", Formula::is0("a"), Formula::is0("out")),
            Assertion::named("zero_b", Formula::is0("b"), Formula::is0("out")),
        ];
        let reports = ste.check_all(&mut m, &suite).expect("checks");
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.holds));
    }

    #[test]
    fn word_level_datapath_check() {
        // A 4-bit adder netlist: sum = a + b (mod 16).
        let mut b = NetlistBuilder::new("adder");
        let a_in = b.word_input("a", 4);
        let b_in = b.word_input("b", 4);
        let (sum, _carry) = b.word_add(&a_in, &b_in, None).expect("widths");
        let named: Vec<_> = sum
            .iter()
            .enumerate()
            .map(|(i, &s)| b.buf(format!("sum[{i}]"), s))
            .collect();
        b.mark_word_output(&named);
        let n = b.finish().expect("valid");
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let (va, vb) = BddVec::new_interleaved_pair(&mut m, "va", "vb", 4);
        let a_f = Formula::word_is(&mut m, "a", &va);
        let b_f = Formula::word_is(&mut m, "b", &vb);
        let expected = va.add(&mut m, &vb).expect("widths");
        let c = Formula::word_is(&mut m, "sum", &expected);
        let report = ste
            .check(&mut m, &Assertion::named("adder", a_f.and(b_f), c))
            .expect("checks");
        assert!(report.holds);
        assert_eq!(report.constraints_checked, 8);
    }

    #[test]
    fn counterexamples_name_a_failing_node_when_one_sat_leaves_variables_free() {
        // out = a xor b, but the consequent claims out = a.  The failure
        // condition is exactly `vb`, so `one_sat` assigns vb alone and
        // leaves va free, while both the required value (va) and the
        // trajectory's (va xor vb) read va.  The check must still report
        // the violated node under a complete assignment.
        let mut b = NetlistBuilder::new("xor");
        let a_in = b.input("a");
        let b_in = b.input("b");
        let x = b.xor("out", a_in, b_in);
        b.mark_output(x);
        let n = b.finish().expect("valid");
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let va = m.new_var("va");
        let vb = m.new_var("vb");
        let a = Formula::is_bdd(&mut m, "a", va).and(Formula::is_bdd(&mut m, "b", vb));
        let c = Formula::is_bdd(&mut m, "out", va);
        let report = ste.check(&mut m, &Assertion::new(a, c)).expect("checks");
        assert!(!report.holds);
        let cex = report.counterexample.expect("has counterexample");
        assert_eq!(cex.assignment.len(), m.var_count());
        assert_eq!(cex.assignment.get(1), Some(true));
        assert_eq!(
            cex.failures,
            vec![FailedNode {
                time: 0,
                node: "out".into(),
                expected: Ternary::Zero,
                actual: Ternary::One,
            }]
        );
    }

    #[test]
    fn collected_checks_keep_peak_live_nodes_flat_in_trajectory_depth() {
        // Under a GC policy only the newest state is live across a step,
        // so checking four times as deep must not need more memory.
        let n = counter(64);
        let model = CompiledModel::new(&n).expect("compiles");
        let peak = |depth: usize| {
            let mut m = BddManager::new();
            m.set_maintenance(Some(MaintainSettings {
                gc_threshold: 1 << 10,
            }));
            let report = check_counter(&mut m, &model, depth);
            assert!(report.holds, "depth {depth}");
            assert_eq!(
                report.constraints_checked, 128,
                "`q is v + n` is two rails a bit"
            );
            let stats = m.stats();
            assert!(stats.gc_passes > 0, "depth {depth} collected");
            stats.peak_live_nodes
        };
        let (shallow, deep) = (peak(32), peak(128));
        assert!(
            deep <= shallow + shallow / 4,
            "peak live grew with depth: {shallow} -> {deep}"
        );
    }

    #[test]
    fn check_never_installs_a_maintenance_policy() {
        // A check that allocates well past the default GC threshold still
        // frees nothing when the caller installed no policy.
        let n = counter(64);
        let model = CompiledModel::new(&n).expect("compiles");
        let mut m = BddManager::new();
        let report = check_counter(&mut m, &model, 128);
        assert!(report.holds);
        assert!(m.maintenance().is_none(), "no policy was installed");
        let stats = m.stats();
        assert!(stats.nodes_allocated > MaintainSettings::default().gc_threshold);
        assert_eq!(stats.gc_passes, 0);
    }
}
