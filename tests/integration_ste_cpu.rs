//! Cross-crate integration: the STE engine, the CPU generator and the
//! property suites working together, including the decomposition rules.

use ssr::bdd::{BddManager, BddVec};
use ssr::cpu::{ControlPath, CoreConfig, RetentionPolicy};
use ssr::properties::{property_one, property_two, CoreHarness};
use ssr::ste::{infer, Assertion, Formula};

#[test]
fn property_one_smoke_across_configurations() {
    // A representative subset of Property I holds for every control path and
    // retention policy (Property I never exercises the power-down, so the
    // policy must not matter).
    let policies = [
        RetentionPolicy::architectural(),
        RetentionPolicy::none(),
        RetentionPolicy::full(),
    ];
    let paths = [
        ControlPath::RefreshingIfr,
        ControlPath::Combinational,
        ControlPath::UnsafeResetIfr,
    ];
    for policy in policies {
        for path in paths {
            let mut cfg = CoreConfig::small_test();
            cfg.retention = policy;
            cfg.control_path = path;
            let harness = CoreHarness::new(cfg).expect("core generates");
            let mut m = BddManager::new();
            let mut suite = property_one::control(&harness, &mut m);
            suite.extend(property_one::execute(&harness, &mut m));
            let reports = harness.check_all(&mut m, &suite).expect("checks");
            for r in &reports {
                assert!(
                    r.holds,
                    "{:?}/{path:?}: Property I `{}` must hold",
                    policy,
                    r.name.as_deref().unwrap_or("?")
                );
            }
        }
    }
}

#[test]
fn property_two_separates_good_and_bad_designs() {
    // The paper's decision matrix: selective retention with the IFR fix is
    // correct; removing retention from the architectural state or resetting
    // the control path to a live opcode is caught.
    let good = CoreHarness::new(CoreConfig::small_test()).expect("core");
    assert!(property_two::holds(&good));

    let mut no_ret = CoreConfig::small_test();
    no_ret.retention = RetentionPolicy::none();
    assert!(!property_two::holds(
        &CoreHarness::new(no_ret).expect("core")
    ));

    let mut unsafe_reset = CoreConfig::small_test();
    unsafe_reset.control_path = ControlPath::UnsafeResetIfr;
    assert!(!property_two::holds(
        &CoreHarness::new(unsafe_reset).expect("core")
    ));

    // Full retention keeps every state bit alive (the survival half of the
    // suite holds), but the equivalence half is formulated against the
    // volatile-IFR resume protocol: the IFR resets to an inert opcode
    // during sleep and spends the first post-resume cycle re-capturing.  A
    // core that *retains* the IFR instead carries its (unconstrained)
    // pre-sleep opcode across the power-down and commits under it one
    // cycle early, so the as-encoded Property II correctly rejects it —
    // retaining micro-architectural state needs its own resume protocol,
    // which is exactly the paper's argument for leaving it volatile.
    let mut full = CoreConfig::small_test();
    full.retention = RetentionPolicy::full();
    let full_harness = CoreHarness::new(full).expect("core");
    let mut m = BddManager::new();
    let survival = property_two::survival_suite(&full_harness, &mut m);
    let reports = full_harness.check_all(&mut m, &survival).expect("checks");
    assert!(
        reports.iter().all(|r| r.holds),
        "retained state must survive"
    );
    assert!(
        !property_two::holds(&full_harness),
        "stale retained IFR is caught"
    );
}

#[test]
fn inference_rules_compose_core_properties() {
    // Verify a decode-stage property and an execute-stage property
    // separately, then derive their conjunction and a time-shifted variant —
    // the decomposition workflow the paper credits for scalability.
    let harness = CoreHarness::new(CoreConfig::small_test()).expect("core");
    let mut m = BddManager::new();

    let (a_vec, b_vec) = BddVec::new_interleaved_pair(&mut m, "ia", "ib", 32);
    let shared_antecedent = CoreHarness::nominal_controls(1)
        .and(Formula::is0("ALUSrc"))
        .and(Formula::is0("MemtoReg"))
        .and(Formula::word_is_const("ALUControl", 0b010, 3))
        .and(Formula::word_is(&mut m, "ReadData1", &a_vec))
        .and(Formula::word_is(&mut m, "ReadData2", &b_vec));
    let sum = a_vec.add(&mut m, &b_vec).expect("width");
    let alu_prop = Assertion::named(
        "alu_add",
        shared_antecedent.clone(),
        Formula::word_is(&mut m, "ALUResult", &sum),
    );
    let zero_expected = sum.is_zero(&mut m);
    let zero_prop = Assertion::named(
        "alu_zero",
        shared_antecedent.clone(),
        Formula::is_bdd(&mut m, "Zero", zero_expected),
    );
    let wb_prop = Assertion::named(
        "alu_writeback",
        shared_antecedent.clone(),
        Formula::word_is(&mut m, "WriteBackData", &sum),
    );
    assert!(harness.check(&mut m, &alu_prop).expect("checks").holds);
    assert!(harness.check(&mut m, &zero_prop).expect("checks").holds);
    assert!(harness.check(&mut m, &wb_prop).expect("checks").holds);

    let combined = infer::conjoin(&alu_prop, &zero_prop).expect("same antecedent");
    assert!(harness.check(&mut m, &combined).expect("checks").holds);

    // The execute → write-back path: the per-unit properties composed by
    // the conjunction rule, and the same path as one monolithic property
    // over the concatenated cone, both verify.
    let path = infer::conjoin(&alu_prop, &wb_prop).expect("same antecedent");
    assert!(harness.check(&mut m, &path).expect("checks").holds);
    let monolithic = Assertion::named(
        "alu_to_writeback",
        shared_antecedent,
        Formula::word_is(&mut m, "ALUResult", &sum).and(Formula::word_is(
            &mut m,
            "WriteBackData",
            &sum,
        )),
    );
    assert!(harness.check(&mut m, &monolithic).expect("checks").holds);

    let shifted = infer::time_shift(&combined, 2);
    assert!(harness.check(&mut m, &shifted).expect("checks").holds);
}

#[test]
fn selection_analysis_recovers_the_papers_answer() {
    // The greedy minimiser with Property II as the oracle keeps all four
    // architectural groups retained — the paper's main finding.
    let base = CoreConfig::small_test();
    let (best, log) = ssr::retention::selection::minimise(|policy| {
        let mut cfg = base;
        cfg.retention = *policy;
        CoreHarness::new(cfg)
            .map(|h| property_two::holds(&h))
            .unwrap_or(false)
    });
    assert_eq!(best, RetentionPolicy::architectural());
    assert_eq!(log.len(), 5);
    assert!(
        log[0].accepted,
        "the architectural policy itself is correct"
    );
    assert!(
        log[1..].iter().all(|s| !s.accepted),
        "dropping any group is rejected"
    );
}
