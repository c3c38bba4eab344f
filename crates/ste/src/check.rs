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
    /// The trajectory is streamed: only the newest state is kept, and the
    /// point-wise `⊑` conditions that are not trivially true are kept as a
    /// partition list, conjoined at the end smallest first.  One root frame
    /// holds, for the whole check, the assertion's guards, its
    /// antecedent/consequent constraints, each partition condition with
    /// the trajectory value it was read from, and each antecedent-conflict
    /// accumulator.
    ///
    /// States are rooted only where a collection runs: the end of each
    /// step roots the newest state in a scoped frame when
    /// [`BddManager::maintenance_due`] says a pass is due, runs it and
    /// drops the frame, and the simulator's safe points inside a step root
    /// the state under construction together with its predecessor.  Every
    /// collection thus keeps the newest state (and, inside a step, the one
    /// before) and frees the older ones, while a step with no collection
    /// pays nothing for rooting.
    ///
    /// The checker never installs a maintenance policy; it honours the one
    /// the manager has ([`BddManager::set_maintenance`]).  With a policy,
    /// the simulator and the checker's per-step safe points may
    /// garbage-collect the superseded states, so peak memory
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
            // Antecedent consistency: a ⊤ on any antecedent-driven node
            // means the stimulus contradicts the circuit (or itself) for
            // those assignments.
            for &(net, _) in drive {
                let top_here = state.node(net).is_top(m);
                let next = m.or(conflict, top_here);
                if next != conflict {
                    // The superseded accumulator stays rooted until the
                    // frame pops: a few handles per check.
                    m.root(next);
                    conflict = next;
                }
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
                    m.root(cond);
                    m.root(actual.hi());
                    m.root(actual.lo());
                    parts.push(cond);
                    violated.push((t, net, required, actual));
                }
            }
            if m.maintenance_due() {
                collect_keeping(m, &state);
            }
            prev = Some(state);
        }

        // Conjoin the partition frames smallest first (ties by handle, so
        // the order is deterministic), stopping at the first FALSE.
        let mut order: Vec<(usize, Bdd)> = parts.iter().map(|&p| (m.size(p), p)).collect();
        order.sort_unstable();
        let ok = m.and_all(order.into_iter().map(|(_, p)| p));

        let holds = ok.is_true();
        let counterexample = counterexample(m, netlist, ok, &violated);
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
                node: netlist.net(net).name.to_owned(),
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

/// The end-of-step safe point: runs the due maintenance pass with the
/// newest state's node and shadow-clock rails rooted in a scoped frame.
#[cold]
#[inline(never)]
fn collect_keeping(m: &mut BddManager, state: &SymState) {
    m.push_root_frame();
    for value in state.values() {
        m.root(value.hi());
        m.root(value.lo());
    }
    m.maintain();
    m.pop_root_frame();
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

    /// Checks the assertion `build` makes on a fresh manager, once with no
    /// maintenance policy and once per GC threshold from 1 to that run's
    /// peak live count, and requires every run's verdict, counterexample,
    /// vacuity and antecedent-conflict count to equal the unmaintained
    /// run's.
    ///
    /// A fresh manager's first collection fires at the first safe point
    /// whose live count reaches the threshold, and nothing is freed before
    /// it, so the sweep makes the first collection land in turn at every
    /// safe point where the live count is a new maximum.
    fn agrees_wherever_the_first_collection_lands(
        model: &CompiledModel,
        build: impl Fn(&mut BddManager) -> Assertion,
    ) {
        let run = |maintenance: Option<MaintainSettings>| {
            let mut m = BddManager::new();
            m.set_maintenance(maintenance);
            let assertion = build(&mut m);
            let report = Ste::new(model).check(&mut m, &assertion).expect("checks");
            let conflicts = m.sat_count(report.antecedent_conflict, m.var_count());
            let outcome = (
                report.holds,
                report.is_vacuous(),
                conflicts,
                report.counterexample,
            );
            (outcome, m.stats())
        };
        let (unmaintained, stats) = run(None);
        let mut collected = false;
        for gc_threshold in 1..=stats.peak_live_nodes {
            let (outcome, s) = run(Some(MaintainSettings { gc_threshold }));
            collected |= s.gc_passes > 0;
            assert_eq!(
                outcome, unmaintained,
                "first collection at {gc_threshold} live nodes"
            );
        }
        assert!(collected, "the sweep collected");
    }

    #[test]
    fn a_collection_inside_a_step_keeps_the_previous_values_the_reuse_rule_reads() {
        // `q` captures the symbolic word `v` at the edge seen at step 2 and
        // then holds it, so from step 3 on every gate of the XOR tree over
        // `q` is reused, and until the tree is reached the previous state
        // is the only reference to its values.  `j = f ∧ g` comes first in
        // evaluation order and, over fresh variables at every step and
        // read only through the weak claim `j is 0 when ¬f`, allocates a
        // new node there: a collection can land after it and before the
        // reused tree.  `out` reads the tree's root through a fresh `e` at
        // every step, so the consequent roots a different function and
        // never the tree's values.
        let mut b = NetlistBuilder::new("reuse");
        let clk = b.input("clock");
        let f = b.input("f");
        let g = b.input("g");
        b.and("j", f, g);
        let d = b.word_input("d", 4);
        let e = b.input("e");
        let q = b.word_reg("q", RegKind::Simple, &d, clk, None, None);
        let mut level = q;
        while level.len() > 1 {
            level = level.chunks(2).map(|p| b.xor_auto(p[0], p[1])).collect();
        }
        let out = b.xor("out", level[0], e);
        b.mark_output(out);
        let n = b.finish().expect("valid");
        let model = CompiledModel::new(&n).expect("compiles");
        let depth = 7;
        agrees_wherever_the_first_collection_lands(&model, |m| {
            let v = BddVec::new_input(m, "v", 4);
            let parity = v
                .bits()
                .iter()
                .fold(Bdd::FALSE, |acc, &bit| m.xor(acc, bit));
            let edge = waveform(
                "clock",
                &[
                    Segment::new(false, 0, 1),
                    Segment::new(true, 1, 2),
                    Segment::new(false, 2, depth),
                ],
            );
            let mut a = edge.and(Formula::word_is(m, "d", &v).from_to(0, 2));
            let mut c = Formula::True;
            for t in 2..depth {
                let ft = m.new_var(format!("f{t}"));
                let gt = m.new_var(format!("g{t}"));
                let et = m.new_var(format!("e{t}"));
                a = a
                    .and(Formula::is_bdd(m, "f", ft).delay(t))
                    .and(Formula::is_bdd(m, "g", gt).delay(t))
                    .and(Formula::is_bdd(m, "e", et).delay(t));
                let expected = m.xor(parity, et);
                c = c
                    .and(Formula::is0("j").when(ft.negate()).delay(t))
                    .and(Formula::is_bdd(m, "out", expected).delay(t));
            }
            Assertion::named("reuse", a, c)
        });
    }

    #[test]
    fn a_collection_at_the_end_of_a_step_keeps_the_newest_state() {
        // `y = a ⊕ b` is computed at step 1 and read back at step 2 by
        // the register `r`, which then holds it; `z = r ⊕ w` reads it
        // through a fresh `w` at every step, so nothing but the state of
        // step 1 refers to `y`'s value at the end of that step.  A
        // conflicting drive on `c` makes the checker allocate after the
        // step's last gate (the antecedent-conflict BDD), so the end-of-step
        // safe point can be where a collection lands.
        let mut b = NetlistBuilder::new("end_of_step");
        let clk = b.input("clock");
        let a_in = b.input("a");
        let b_in = b.input("b");
        b.input("c");
        let w = b.input("w");
        let y = b.xor("y", a_in, b_in);
        let r = b.reg("r", RegKind::Simple, y, clk, None, None);
        let z = b.xor("z", r, w);
        b.mark_output(z);
        let n = b.finish().expect("valid");
        let model = CompiledModel::new(&n).expect("compiles");
        let depth = 6;
        agrees_wherever_the_first_collection_lands(&model, |m| {
            let v: Vec<Bdd> = (0..4).map(|i| m.new_var(format!("v{i}"))).collect();
            let y = m.xor(v[0], v[1]);
            let edge = waveform(
                "clock",
                &[
                    Segment::new(false, 0, 1),
                    Segment::new(true, 1, 2),
                    Segment::new(false, 2, depth),
                ],
            );
            let mut a = edge
                .and(Formula::is_bdd(m, "a", v[0]).from_to(0, 2))
                .and(Formula::is_bdd(m, "b", v[1]).from_to(0, 2))
                .and(Formula::is_bdd(m, "c", v[2]).delay(1))
                .and(Formula::is_bdd(m, "c", v[3]).delay(1));
            let mut c = Formula::True;
            for t in 2..depth {
                let wt = m.new_var(format!("w{t}"));
                a = a.and(Formula::is_bdd(m, "w", wt).delay(t));
                let expected = m.xor(y, wt);
                c = c.and(Formula::is_bdd(m, "z", expected).delay(t));
            }
            Assertion::named("end_of_step", a, c)
        });
    }

    #[test]
    fn a_collection_before_a_consequent_step_keeps_its_conjoined_guards() {
        // `out is 1 when g when h` at the last step is the constraint
        // `(TRUE, ¬(g ∧ h))`: `g` and `h` are rooted as guards, but their
        // conjunction is a fresh BDD that nothing but the consequent's
        // defining sequence refers to, and every step before the last one
        // has a safe point where a collection can land.
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let depth = 4;
        agrees_wherever_the_first_collection_lands(&model, |m| {
            let v = m.new_var("v");
            let g = m.new_var("g");
            let h = m.new_var("h");
            let a = Formula::is1("a")
                .and(Formula::is_bdd(m, "b", v))
                .from_to(0, depth);
            let c = Formula::is1("out").when(g).when(h).delay(depth - 1);
            Assertion::named("nested_guards", a, c)
        });
    }

    #[test]
    fn a_collection_after_a_violation_keeps_its_partition_frame() {
        // `out is 0 when g` fails at step 1, where `out = x1 ∧ y1`: its
        // condition `¬(g ∧ x1 ∧ y1)` is a fresh BDD that only the
        // partition list refers to.  The inputs take fresh variables at
        // every step and the weak claim `out is 0 when ¬x` reads `out` at
        // every other step, so the gate allocates at each of them and a
        // collection can land between the violation and the final
        // conjunction.
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let depth = 6;
        agrees_wherever_the_first_collection_lands(&model, |m| {
            let g = m.new_var("g");
            let mut a = Formula::True;
            let mut c = Formula::True;
            for t in 0..depth {
                let x = m.new_var(format!("x{t}"));
                let y = m.new_var(format!("y{t}"));
                a = a
                    .and(Formula::is_bdd(m, "a", x).delay(t))
                    .and(Formula::is_bdd(m, "b", y).delay(t));
                let guard = if t == 1 { g } else { x.negate() };
                c = c.and(Formula::is0("out").when(guard).delay(t));
            }
            Assertion::named("early_violation", a, c)
        });
    }

    #[test]
    fn a_collection_between_two_conflicting_drives_keeps_the_conflict() {
        // `a` is driven with two fresh variables at step 1 and again at
        // step 3, so the antecedent conflict changes twice: to `u1 ⊕ u2`,
        // then to `(u1 ⊕ u2) ∨ (u3 ⊕ u4)`.  Nothing but the accumulator
        // refers to either.  `b` takes a fresh variable at every step and
        // the weak claim `out is 0 when ¬x` reads the gate at every step,
        // so it allocates at each of them and a collection can land
        // between the two changes and after the second.
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let depth = 5;
        agrees_wherever_the_first_collection_lands(&model, |m| {
            let mut a = Formula::True;
            let mut c = Formula::True;
            for t in 0..depth {
                let x = m.new_var(format!("x{t}"));
                a = a.and(Formula::is_bdd(m, "b", x).delay(t));
                if t % 2 == 1 {
                    for k in 0..2 {
                        let u = m.new_var(format!("u{t}_{k}"));
                        a = a.and(Formula::is_bdd(m, "a", u).delay(t));
                    }
                }
                c = c.and(Formula::is0("out").when(x.negate()).delay(t));
            }
            Assertion::named("two_conflicts", a, c)
        });
    }

    #[test]
    fn collected_checks_keep_peak_live_nodes_flat_in_trajectory_depth() {
        // Under a GC policy only the newest state is live across a step,
        // so checking four times as deep must not need more memory.  The
        // shallow depth is the first, doubling from 128, whose run has
        // already collected twice: the first collection's peak is taken
        // before the run reaches its steady state.
        let n = counter(64);
        let model = CompiledModel::new(&n).expect("compiles");
        let run = |depth: usize| {
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
            m.stats()
        };
        let mut shallow = 128;
        let stats = loop {
            let stats = run(shallow);
            if stats.gc_passes >= 2 {
                break stats;
            }
            assert!(shallow < 128 << 5, "depth {shallow} collected < 2 times");
            shallow *= 2;
        };
        let (shallow_peak, deep_peak) = (stats.peak_live_nodes, run(4 * shallow).peak_live_nodes);
        assert!(
            deep_peak <= shallow_peak + shallow_peak / 4,
            "peak live grew with depth: {shallow_peak} at {shallow} -> {deep_peak} at {}",
            4 * shallow
        );
    }

    #[test]
    fn check_never_installs_a_maintenance_policy() {
        // A check that allocates past the default GC threshold still frees
        // nothing when the caller installed no policy.  The depth doubles
        // until the check allocates that much.
        let n = counter(64);
        let model = CompiledModel::new(&n).expect("compiles");
        let threshold = MaintainSettings::default().gc_threshold;
        let mut depth = 128;
        loop {
            let mut m = BddManager::new();
            let report = check_counter(&mut m, &model, depth);
            assert!(report.holds);
            assert!(!m.maintenance_enabled(), "no policy was installed");
            let stats = m.stats();
            assert_eq!(stats.gc_passes, 0, "depth {depth}");
            if stats.nodes_allocated > threshold {
                break;
            }
            assert!(
                depth < 128 << 6,
                "depth {depth} allocated under {threshold} nodes"
            );
            depth *= 2;
        }
    }
}
