//! Cross-crate integration: the campaign engine runs the whole paper flow
//! through the facade — Property I + Property II + IFR across multiple
//! retention policies in parallel — and the report tells the paper's story:
//! the architectural policy verifies, dropping retention or mis-resetting
//! the control path is caught, and the JSON report round-trips.

use ssr::bdd::BddManager;
use ssr::cpu::{ControlPath, RetentionPolicy};
use ssr::engine::{
    minimise_with_engine, run_job_with, CampaignReport, CampaignSpec, EngineOracle, Granularity,
    MaintainSettings, NamedConfig, NamedPolicy, SharedHarness, Suite,
};

fn policy(name: &str) -> NamedPolicy {
    ssr::engine::policy_by_name(name).expect("named policy")
}

#[test]
fn parallel_campaign_reproduces_the_papers_verdicts() {
    let spec = CampaignSpec {
        configs: vec![NamedConfig::small()],
        policies: vec![policy("architectural"), policy("none")],
        suites: Suite::ALL.to_vec(),
        granularity: Granularity::Suite,
        budget: ssr_engine::JobBudget::default(),
        threads: 4,
        verbose: false,
    };
    let report = spec.run();
    assert_eq!(report.jobs.len(), 6, "2 policies x 3 suites");

    let job = |policy: &str, suite: &str| {
        report
            .jobs
            .iter()
            .find(|j| j.policy_name == policy && j.suite == suite)
            .unwrap_or_else(|| panic!("job {policy}/{suite} present"))
    };

    // The paper's recommended policy verifies everything.
    assert!(job("architectural", "property-one").holds);
    assert!(job("architectural", "property-two").holds);
    assert!(job("architectural", "ifr").holds);

    // Property I never sleeps, so it holds even without retention; the
    // sleep/resume suites are exactly what catches the missing retention.
    assert!(job("none", "property-one").holds);
    assert!(!job("none", "property-two").holds);
    assert!(!job("none", "ifr").holds);

    // Failing jobs carry counterexample evidence.
    let failing = job("none", "property-two");
    assert!(failing
        .assertions
        .iter()
        .any(|a| !a.holds && !a.failures.is_empty()));

    // The report explains itself as JSON, losslessly.
    let parsed = CampaignReport::from_json(&report.to_json()).expect("round-trips");
    assert_eq!(parsed, report);
}

#[test]
fn campaign_catches_the_unsafe_control_path_reset() {
    let mut core = NamedConfig::small();
    core.name = "unsafe-reset".into();
    core.config.control_path = ControlPath::UnsafeResetIfr;
    let report = CampaignSpec {
        configs: vec![core],
        policies: vec![policy("architectural")],
        suites: vec![Suite::PropertyTwo],
        granularity: Granularity::Assertion,
        budget: ssr_engine::JobBudget::default(),
        threads: 2,
        verbose: false,
    }
    .run();
    assert_eq!(report.jobs.len(), Suite::PropertyTwo.assertion_count());
    assert!(!report.all_hold(), "the §III-B malfunction must be caught");
}

#[test]
fn engine_oracle_minimisation_matches_the_paper() {
    let outcome = minimise_with_engine(&EngineOracle::property_two(NamedConfig::small(), 0));
    assert_eq!(outcome.best, RetentionPolicy::architectural());
    assert_eq!(outcome.steps.len(), 5);
    assert!(outcome.steps.iter().skip(1).all(|s| !s.step.accepted));
}

#[test]
fn eager_maintenance_keeps_verdicts_and_the_ifr_peak() {
    // The §III-B IFR property is the most memory-hungry job of the small
    // config.  A GC policy far more eager than the default one (which
    // `run_job_with` keeps when the caller installed it) must leave its
    // verdict and counterexamples alone, actually collect, and never raise
    // the peak above the default run's.
    let campaign = CampaignSpec {
        configs: vec![NamedConfig::small()],
        policies: vec![policy("architectural")],
        suites: vec![Suite::Ifr],
        granularity: Granularity::Suite,
        budget: ssr_engine::JobBudget::default(),
        threads: 1,
        verbose: false,
    };
    let without = campaign.run();
    let job = campaign.jobs().remove(0);
    let harness = SharedHarness::new(job.config);
    let mut m = BddManager::new();
    m.set_maintenance(Some(MaintainSettings {
        gc_threshold: 1 << 10,
    }));
    let with = run_job_with(&job, harness.get(), &mut m);
    assert_eq!(with.holds, without.jobs[0].holds);
    assert_eq!(with.assertions.len(), without.jobs[0].assertions.len());
    for (a, b) in with.assertions.iter().zip(&without.jobs[0].assertions) {
        assert_eq!(
            (&a.name, a.holds, a.vacuous, &a.failures),
            (&b.name, b.holds, b.vacuous, &b.failures)
        );
    }
    assert!(
        with.gc_passes > without.jobs[0].gc_passes,
        "the eager policy collected more"
    );
    let peak_without = without.jobs[0].peak_live_nodes;
    let peak_with = with.peak_live_nodes;
    assert!(
        peak_with <= peak_without,
        "eager maintenance grew the peak: {peak_with} vs {peak_without}"
    );
}
