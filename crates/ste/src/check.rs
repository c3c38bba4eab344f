//! The STE assertion checker (Definition 3 and the verification condition).

use std::time::{Duration, Instant};

use ssr_bdd::{Assignment, Bdd, BddManager, MaintainSettings};
use ssr_netlist::{NetId, Netlist};
use ssr_sim::{CompiledModel, SymSimulator, SymState};
use ssr_ternary::{SymTernary, Ternary};

use crate::error::SteError;
use crate::formula::{Assertion, Formula};

/// How the checker represents the verification condition while it is being
/// built.
///
/// The monolithic strategy conjoins every point-wise `⊑` condition into one
/// `ok` BDD as the trajectory unfolds, keeping the whole trajectory alive
/// until the end of the check.  The conjunctive strategy instead keeps the
/// conditions as an ordered partition list — implicitly conjoined relation
/// frames — and streams the trajectory one state at a time, so the kernel
/// can collect each state as soon as its successor is computed; the
/// partitions are only conjoined at the end, smallest first.  Verdicts and
/// counterexamples are identical either way (BDDs are canonical, and a
/// `true` condition is the conjunction identity); only peak memory and
/// wall-clock differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partitioning {
    /// Eagerly conjoin conditions and retain the full trajectory.
    Monolithic,
    /// Stream the trajectory and keep conditions as partition frames.
    Conjunctive,
    /// Per assertion: conjunctive when the consequent has at least
    /// [`AUTO_PARTITION_THRESHOLD`] point-wise constraints, else monolithic.
    #[default]
    Auto,
}

impl Partitioning {
    /// Every mode, in presentation order.
    pub const ALL: [Partitioning; 3] = [
        Partitioning::Monolithic,
        Partitioning::Conjunctive,
        Partitioning::Auto,
    ];

    /// Stable lower-case identifier (CLI flag value and report field).
    pub fn name(self) -> &'static str {
        match self {
            Partitioning::Monolithic => "monolithic",
            Partitioning::Conjunctive => "conjunctive",
            Partitioning::Auto => "auto",
        }
    }

    /// Parses [`Partitioning::name`] output.
    pub fn parse(text: &str) -> Option<Partitioning> {
        Partitioning::ALL.into_iter().find(|p| p.name() == text)
    }

    /// `true` when an assertion whose consequent has `constraints`
    /// point-wise constraints is checked by the streaming conjunctive path.
    fn streams(self, constraints: usize) -> bool {
        match self {
            Partitioning::Monolithic => false,
            Partitioning::Conjunctive => true,
            Partitioning::Auto => constraints >= AUTO_PARTITION_THRESHOLD,
        }
    }
}

/// Consequent-constraint count at which [`Partitioning::Auto`] switches an
/// assertion to the conjunctive strategy.  Below this the partition list is
/// too short for streaming to pay for its bookkeeping; at or above it
/// (word-level datapath and memory assertions) the streamed trajectory
/// dominates peak live nodes.
pub const AUTO_PARTITION_THRESHOLD: usize = 8;

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

    /// Computes the defining trajectory of `antecedent` for `depth` time
    /// units: the weakest run of the circuit consistent with the antecedent.
    ///
    /// # Errors
    /// Returns [`SteError::UnknownNode`] if the formula mentions an unknown
    /// node.
    pub fn defining_trajectory(
        &self,
        m: &mut BddManager,
        antecedent: &Formula,
        depth: usize,
    ) -> Result<Vec<SymState>, SteError> {
        let seq = antecedent.defining_sequence(m, self.model.netlist(), depth)?;
        let sim = SymSimulator::new(self.model);
        // This entry point does not root the caller's handles, so the
        // simulator must not garbage-collect under it: suspend any
        // maintenance policy for the duration.
        let saved = m.maintenance();
        m.set_maintenance(None);
        let trajectory = sim.run(m, &seq);
        m.set_maintenance(saved);
        Ok(trajectory)
    }

    /// Checks the assertion `A ⇒ C` against the model.
    ///
    /// When the manager has an automatic maintenance policy installed
    /// ([`BddManager::set_maintenance`]), the checker declares safe
    /// points: the assertion's guards, the antecedent/consequent
    /// constraints and every trajectory state computed so far are
    /// registered in a scoped root set, and the simulator may
    /// garbage-collect and resift between gates and steps.  The verdict
    /// is unchanged either way; only node counts and peak memory differ.
    /// Note that after such a check the raw BDDs in the returned
    /// [`CheckReport`] (`ok`, `antecedent_conflict`) are only guaranteed
    /// valid until the next collection.
    ///
    /// # Errors
    /// Returns [`SteError::UnknownNode`] if either formula mentions a node
    /// that does not exist in the model.
    pub fn check(
        &self,
        m: &mut BddManager,
        assertion: &Assertion,
    ) -> Result<CheckReport, SteError> {
        self.check_with(m, assertion, Partitioning::Monolithic)
    }

    /// Checks the assertion under an explicit [`Partitioning`] strategy.
    ///
    /// See [`Ste::check`] for the rooting and lifetime contract; the
    /// conjunctive strategy additionally installs a GC-only maintenance
    /// policy for its own duration when the caller has none, since the
    /// streamed trajectory only saves memory if dead states are actually
    /// collected.
    ///
    /// # Errors
    /// Returns [`SteError::UnknownNode`] if either formula mentions a node
    /// that does not exist in the model.
    pub fn check_with(
        &self,
        m: &mut BddManager,
        assertion: &Assertion,
        partitioning: Partitioning,
    ) -> Result<CheckReport, SteError> {
        let start = Instant::now();
        let netlist = self.model.netlist();
        let depth = assertion.depth();

        // A job whose deadline already lapsed (e.g. on a later assertion
        // of a long suite) gives up before elaborating anything new.
        m.check_deadline();
        let a_seq = assertion.antecedent.defining_sequence(m, netlist, depth)?;
        let c_seq = assertion.consequent.defining_sequence(m, netlist, depth)?;

        if partitioning.streams(c_seq.iter().map(Vec::len).sum()) {
            self.check_conjunctive(m, assertion, &a_seq, &c_seq, start)
        } else {
            self.check_monolithic(m, assertion, &a_seq, &c_seq, start)
        }
    }

    /// The eager strategy: simulate the full trajectory, then conjoin every
    /// condition into one `ok` BDD.
    fn check_monolithic(
        &self,
        m: &mut BddManager,
        assertion: &Assertion,
        a_seq: &[Vec<(NetId, SymTernary)>],
        c_seq: &[Vec<(NetId, SymTernary)>],
        start: Instant,
    ) -> Result<CheckReport, SteError> {
        let netlist = self.model.netlist();
        let depth = assertion.depth();

        let maintaining = m.maintenance_enabled();
        if maintaining {
            m.push_root_frame();
            // The assertion's own guard BDDs are rooted too, so the caller
            // can re-check the same assertion after a collection.
            let mut guards = Vec::new();
            assertion.collect_bdds(&mut guards);
            for guard in guards {
                m.root(guard);
            }
            for seq in [a_seq, c_seq] {
                for constraints in seq.iter() {
                    for &(_, value) in constraints {
                        m.root(value.hi());
                        m.root(value.lo());
                    }
                }
            }
        }

        let sim = SymSimulator::new(self.model);
        let trajectory = if !maintaining {
            sim.run(m, a_seq)
        } else {
            // Step manually so every completed state can be rooted before
            // the kernel collects the step's dead intermediates (and
            // resifts if the live set grew).
            let mut trajectory: Vec<SymState> = Vec::with_capacity(depth);
            for (t, drive) in a_seq.iter().enumerate() {
                // Per-step deadline probe: tighter than the kernel's
                // periodic in-recursion check, and at a point where the
                // root frame makes unwinding safe.
                m.check_deadline();
                let state = if t == 0 {
                    sim.initial_state(m, drive)
                } else {
                    sim.step(m, &trajectory[t - 1], drive)
                };
                for value in state.nodes() {
                    m.root(value.hi());
                    m.root(value.lo());
                }
                for index in 0..self.model.state_bits() {
                    let shadow = state.shadow_clk(index);
                    m.root(shadow.hi());
                    m.root(shadow.lo());
                }
                m.maintain();
                trajectory.push(state);
            }
            trajectory
        };

        // Antecedent consistency: a ⊤ on any antecedent-driven node means the
        // stimulus contradicts the circuit (or itself) for those assignments.
        let mut conflict = Bdd::FALSE;
        for (t, constraints) in a_seq.iter().enumerate() {
            for &(net, _) in constraints {
                let top_here = trajectory[t].node(net).is_top(m);
                conflict = m.or(conflict, top_here);
            }
        }

        // The verification condition: ∀ t, n. [C] t n ⊑ [[A]] t n.
        let mut ok = Bdd::TRUE;
        let mut constraints_checked = 0usize;
        let mut violated: Vec<Violation> = Vec::new();
        for (t, constraints) in c_seq.iter().enumerate() {
            for &(net, required) in constraints {
                let actual = trajectory[t].node(net);
                let cond = required.leq(m, &actual);
                constraints_checked += 1;
                if !cond.is_true() {
                    violated.push((t, net, required, actual));
                }
                ok = m.and(ok, cond);
            }
        }

        let holds = ok.is_true();
        let counterexample = counterexample(m, netlist, ok, &violated);

        if maintaining {
            m.pop_root_frame();
        }

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

    /// The streaming strategy: keep only the newest trajectory state
    /// protected, collect its predecessor each step, and gather the
    /// point-wise conditions as a partition list conjoined at the end,
    /// smallest first.
    fn check_conjunctive(
        &self,
        m: &mut BddManager,
        assertion: &Assertion,
        a_seq: &[Vec<(NetId, SymTernary)>],
        c_seq: &[Vec<(NetId, SymTernary)>],
        start: Instant,
    ) -> Result<CheckReport, SteError> {
        let netlist = self.model.netlist();
        let depth = assertion.depth();
        let state_bits = self.model.state_bits();

        // Streaming only saves memory if dead states are actually
        // collected, so force a GC-only policy when the caller installed
        // none (sifting stays opt-in: it changes the variable order).
        let saved = m.maintenance();
        let forced = saved.is_none();
        if forced {
            m.set_maintenance(Some(MaintainSettings {
                sift: false,
                ..MaintainSettings::default()
            }));
        }

        m.push_root_frame();
        let mut guards = Vec::new();
        assertion.collect_bdds(&mut guards);
        for guard in guards {
            m.root(guard);
        }
        for seq in [a_seq, c_seq] {
            for constraints in seq.iter() {
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
            m.check_deadline();
            let state = match &prev {
                None => sim.initial_state(m, drive),
                Some(p) => sim.step(m, p, drive),
            };
            protect_state(m, &state, state_bits);
            if let Some(p) = prev.take() {
                release_state(m, &p, state_bits);
            }
            for &(net, _) in drive {
                let top_here = state.node(net).is_top(m);
                let next = m.or(conflict, top_here);
                m.protect(next);
                m.release(conflict);
                conflict = next;
            }
            for &(net, required) in &c_seq[t] {
                let actual = state.node(net);
                let cond = required.leq(m, &actual);
                constraints_checked += 1;
                // A true condition is the conjunction identity — dropping
                // it keeps `ok` (and therefore the verdict and the
                // counterexample) identical to the monolithic fold.
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
        if forced {
            m.set_maintenance(saved);
        }

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
    /// With a maintenance policy installed, the guard BDDs of *every*
    /// assertion are rooted for the duration of the run, so a collection
    /// triggered inside one check cannot reclaim the formulas of the
    /// checks still to come.
    ///
    /// # Errors
    /// Fails fast on the first elaboration error.
    pub fn check_all(
        &self,
        m: &mut BddManager,
        assertions: &[Assertion],
    ) -> Result<Vec<CheckReport>, SteError> {
        self.check_all_with(m, assertions, Partitioning::Monolithic)
    }

    /// [`Ste::check_all`] under an explicit [`Partitioning`] strategy.
    ///
    /// # Errors
    /// Fails fast on the first elaboration error.
    pub fn check_all_with(
        &self,
        m: &mut BddManager,
        assertions: &[Assertion],
        partitioning: Partitioning,
    ) -> Result<Vec<CheckReport>, SteError> {
        // Any non-monolithic mode may collect mid-suite (the conjunctive
        // path forces a GC policy of its own), so the later assertions'
        // guards need rooting even when the caller installed no policy.
        let rooting = m.maintenance_enabled() || partitioning != Partitioning::Monolithic;
        if rooting {
            let mut guards = Vec::new();
            for assertion in assertions {
                assertion.collect_bdds(&mut guards);
            }
            m.push_root_frame();
            for guard in guards {
                m.root(guard);
            }
        }
        let reports = assertions
            .iter()
            .map(|a| self.check_with(m, a, partitioning))
            .collect();
        if rooting {
            m.pop_root_frame();
        }
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

/// Protects a trajectory state's node and shadow-clock rails for the
/// streaming checker (refcounts, so nesting with root frames is safe).
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
    use crate::stimulus::{waveform, Segment};
    use ssr_bdd::BddVec;
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
        let clock = Formula::is0("clock")
            .and(Formula::is1("clock").delay(1))
            .and(Formula::is0("clock").delay(2));
        let data = Formula::is_bdd(&mut m, "d", v).from_to(0, 2);
        let a = clock.and(data);
        let c = Formula::is_bdd(&mut m, "q", v).delay(2);
        let report = ste
            .check(&mut m, &Assertion::named("dff_capture", a, c))
            .expect("checks");
        assert!(report.holds, "flop captures the symbolic value");
        assert_eq!(report.depth, 3);

        // Negative control: claiming the value appears one step too early
        // must fail.
        let clock2 = Formula::is0("clock")
            .and(Formula::is1("clock").delay(1))
            .and(Formula::is0("clock").delay(2));
        let data2 = Formula::is_bdd(&mut m, "d", v).from_to(0, 2);
        let early = Formula::is_bdd(&mut m, "q", v).delay(1);
        let report2 = ste
            .check(&mut m, &Assertion::new(clock2.and(data2), early))
            .expect("checks");
        assert!(!report2.holds);

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
    fn conjunctive_mode_matches_monolithic_verdicts() {
        // A failing combinational spec: both strategies must produce the
        // same `ok` BDD, verdict, conflict and counterexample (the `true`
        // conditions the conjunctive path drops are conjunction
        // identities).
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let va = m.new_var("va");
        let vb = m.new_var("vb");
        let a = Formula::is_bdd(&mut m, "a", va).and(Formula::is_bdd(&mut m, "b", vb));
        let wrong = m.or(va, vb);
        let c = Formula::is_bdd(&mut m, "out", wrong);
        let assertion = Assertion::new(a, c);
        let mono = ste
            .check_with(&mut m, &assertion, Partitioning::Monolithic)
            .expect("checks");
        let conj = ste
            .check_with(&mut m, &assertion, Partitioning::Conjunctive)
            .expect("checks");
        assert!(!conj.holds);
        assert_eq!(mono.holds, conj.holds);
        assert_eq!(mono.ok, conj.ok);
        assert_eq!(mono.antecedent_conflict, conj.antecedent_conflict);
        assert_eq!(mono.constraints_checked, conj.constraints_checked);
        assert_eq!(mono.counterexample, conj.counterexample);
    }

    #[test]
    fn conjunctive_mode_streams_sequential_trajectories() {
        // The dff capture property exercises the streaming path across
        // steps: the predecessor state is released each step and the
        // verdict must match the monolithic reference.
        let n = dff();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let v = m.new_var("v");
        let clock = Formula::is0("clock")
            .and(Formula::is1("clock").delay(1))
            .and(Formula::is0("clock").delay(2));
        let data = Formula::is_bdd(&mut m, "d", v).from_to(0, 2);
        let a = clock.and(data);
        let c = Formula::is_bdd(&mut m, "q", v).delay(2);
        let assertion = Assertion::named("dff_capture", a, c);
        let report = ste
            .check_with(&mut m, &assertion, Partitioning::Conjunctive)
            .expect("checks");
        assert!(report.holds);
        assert_eq!(report.depth, 3);

        // Early claim fails identically under both strategies.
        let clock2 = Formula::is0("clock")
            .and(Formula::is1("clock").delay(1))
            .and(Formula::is0("clock").delay(2));
        let data2 = Formula::is_bdd(&mut m, "d", v).from_to(0, 2);
        let early = Formula::is_bdd(&mut m, "q", v).delay(1);
        let bad = Assertion::new(clock2.and(data2), early);
        let mono = ste
            .check_with(&mut m, &bad, Partitioning::Monolithic)
            .expect("checks");
        let conj = ste
            .check_with(&mut m, &bad, Partitioning::Conjunctive)
            .expect("checks");
        assert!(!conj.holds);
        assert_eq!(mono.ok, conj.ok);
        assert_eq!(mono.counterexample, conj.counterexample);
    }

    #[test]
    fn conjunctive_mode_restores_the_callers_maintenance_policy() {
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        // No policy installed: the conjunctive path forces one for its own
        // duration and must uninstall it afterwards.
        let a = Formula::is0("a");
        let c = Formula::is0("out");
        let assertion = Assertion::new(a, c);
        assert!(m.maintenance().is_none());
        let report = ste
            .check_with(&mut m, &assertion, Partitioning::Conjunctive)
            .expect("checks");
        assert!(report.holds);
        assert!(m.maintenance().is_none(), "forced policy was uninstalled");
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
    fn auto_partitioning_switches_at_the_constraint_threshold() {
        // The 4-bit adder consequent carries exactly
        // AUTO_PARTITION_THRESHOLD point-wise constraints, so `auto` routes
        // it to the conjunctive path, while a 1-constraint assertion stays
        // monolithic.  Either way the verdict and counterexample match.
        let constraints = |m: &mut BddManager, netlist: &Netlist, assertion: &Assertion| {
            let c_seq = assertion
                .consequent
                .defining_sequence(m, netlist, assertion.depth())
                .expect("elaborates");
            c_seq.iter().map(Vec::len).sum::<usize>()
        };
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
        // Deliberately wrong: claim the sum ignores the carry chain.
        let wrong = va.xor(&mut m, &vb).expect("widths");
        let c = Formula::word_is(&mut m, "sum", &wrong);
        let assertion = Assertion::named("adder_wrong", a_f.and(b_f), c);
        let count = constraints(&mut m, &n, &assertion);
        assert_eq!(count, AUTO_PARTITION_THRESHOLD);
        assert!(Partitioning::Auto.streams(count), "auto streams the adder");
        assert!(!Partitioning::Auto.streams(count - 1));
        assert!(!Partitioning::Monolithic.streams(count));
        assert!(Partitioning::Conjunctive.streams(1));
        let auto = ste
            .check_with(&mut m, &assertion, Partitioning::Auto)
            .expect("checks");
        assert!(!auto.holds);
        let mono = ste
            .check_with(&mut m, &assertion, Partitioning::Monolithic)
            .expect("checks");
        assert_eq!(mono.ok, auto.ok);
        assert_eq!(mono.counterexample, auto.counterexample);

        // A single-constraint assertion under `auto` is monolithic.
        let gate = and_gate();
        let gate_model = CompiledModel::new(&gate).expect("compiles");
        let gate_ste = Ste::new(&gate_model);
        let mut gm = BddManager::new();
        let single = Assertion::new(Formula::is0("a"), Formula::is0("out"));
        assert!(!Partitioning::Auto.streams(constraints(&mut gm, &gate, &single)));
        let report = gate_ste
            .check_with(&mut gm, &single, Partitioning::Auto)
            .expect("checks");
        assert!(report.holds);
    }

    #[test]
    fn counterexamples_name_a_failing_node_when_one_sat_leaves_variables_free() {
        // out = a xor b, but the consequent claims out = a.  The failure
        // condition is exactly `vb`, so `one_sat` assigns vb alone and
        // leaves va free, while both the required value (va) and the
        // trajectory's (va xor vb) read va.  Both paths must still report
        // the violated node under a complete assignment.
        let mut b = NetlistBuilder::new("xor");
        let a_in = b.input("a");
        let b_in = b.input("b");
        let x = b.xor("out", a_in, b_in);
        b.mark_output(x);
        let n = b.finish().expect("valid");
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        for mode in [Partitioning::Monolithic, Partitioning::Conjunctive] {
            let mut m = BddManager::new();
            let va = m.new_var("va");
            let vb = m.new_var("vb");
            let a = Formula::is_bdd(&mut m, "a", va).and(Formula::is_bdd(&mut m, "b", vb));
            let c = Formula::is_bdd(&mut m, "out", va);
            let report = ste
                .check_with(&mut m, &Assertion::new(a, c), mode)
                .expect("checks");
            assert!(!report.holds);
            let cex = report.counterexample.expect("has counterexample");
            assert_eq!(cex.assignment.len(), m.var_count(), "{mode:?}");
            assert_eq!(cex.assignment.get(1), Some(true));
            assert_eq!(
                cex.failures,
                vec![FailedNode {
                    time: 0,
                    node: "out".into(),
                    expected: Ternary::Zero,
                    actual: Ternary::One,
                }],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn partitioning_names_round_trip() {
        for mode in Partitioning::ALL {
            assert_eq!(Partitioning::parse(mode.name()), Some(mode));
        }
        assert_eq!(Partitioning::parse("bogus"), None);
        assert_eq!(Partitioning::default(), Partitioning::Auto);
    }
}
