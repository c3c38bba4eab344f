//! The engine as a verification oracle for retention-set minimisation.
//!
//! `ssr_retention::selection::minimise` asks "does this retention policy
//! still verify?" once per exploration step.  [`EngineOracle`] answers by
//! running a (parallel, obligation-sharded) campaign for the candidate
//! policy, so the paper's E-series exploration gets the pool's speed-up
//! inside every step, and every step leaves a full [`CampaignReport`]
//! behind for the final summary.

use std::cell::RefCell;

use ssr_bdd::OrderPolicy;
use ssr_cpu::RetentionPolicy;
use ssr_properties::Suite;
use ssr_retention::selection::{minimise, SelectionStep};

use crate::campaign::CampaignSpec;
use crate::job::{policy_name, Granularity, JobBudget, NamedConfig, NamedPolicy};
use crate::report::CampaignReport;

/// A verification oracle backed by the campaign engine.
#[derive(Debug, Clone)]
pub struct EngineOracle {
    /// The core configuration candidates are generated from (its
    /// `retention` field is replaced per query).
    pub base: NamedConfig,
    /// The suites a policy must satisfy to be accepted.  The paper's
    /// criterion is the Property II suite; add Property I / IFR for a
    /// stricter oracle.
    pub suites: Vec<Suite>,
    /// Worker threads per query (`0` = one per CPU).
    pub threads: usize,
    /// Job granularity per query.  [`Granularity::Assertion`] lets the pool
    /// parallelise inside the single-policy campaign each query runs.
    pub granularity: Granularity,
    /// Variable-order preset each query's models compile under.
    pub order: OrderPolicy,
}

impl EngineOracle {
    /// The paper's oracle: Property II over the given base configuration,
    /// obligation-sharded.
    pub fn property_two(base: NamedConfig, threads: usize) -> Self {
        EngineOracle {
            base,
            suites: vec![Suite::PropertyTwo],
            threads,
            granularity: Granularity::Assertion,
            order: OrderPolicy::Interleaved,
        }
    }

    /// Runs the campaign answering one policy query.
    pub fn check_policy(&self, policy: &RetentionPolicy) -> CampaignReport {
        CampaignSpec {
            configs: vec![self.base.clone()],
            policies: vec![NamedPolicy {
                name: policy_name(policy),
                policy: *policy,
            }],
            suites: self.suites.clone(),
            granularity: self.granularity,
            order: self.order.clone(),
            threads: self.threads,
            budget: JobBudget::default(),
            verbose: false,
        }
        .run()
    }

    /// `true` if *every requested suite* is applicable to the candidate and
    /// holds for it.
    ///
    /// A suite that is inapplicable to the candidate (e.g. the IFR suite
    /// for a policy that leaves the fetch state incoherent) is a rejection,
    /// not a free pass: the oracle cannot evaluate its criterion there, and
    /// silently accepting would let the minimisation keep a drop it never
    /// verified against the full criterion.
    pub fn accepts(&self, policy: &RetentionPolicy) -> bool {
        if !self.fully_applicable(policy) {
            return false;
        }
        self.check_policy(policy).all_hold()
    }

    /// `true` if every requested suite can actually run against the
    /// candidate policy.
    pub fn fully_applicable(&self, policy: &RetentionPolicy) -> bool {
        let mut config = self.base.config;
        config.retention = *policy;
        self.suites.iter().all(|suite| suite.applicable_to(&config))
    }
}

/// One step of the minimisation with its full campaign evidence.
#[derive(Debug, Clone)]
pub struct MinimisationStep {
    /// The exploration step (policy tried, group dropped, verdict).
    pub step: SelectionStep,
    /// The campaign that produced the verdict.
    pub report: CampaignReport,
}

/// Outcome of an engine-driven minimisation run.
#[derive(Debug, Clone)]
pub struct MinimisationOutcome {
    /// The minimal policy the greedy search settled on.
    pub best: RetentionPolicy,
    /// Every step with its campaign report, in exploration order.
    pub steps: Vec<MinimisationStep>,
}

impl MinimisationOutcome {
    /// Total assertions checked across every exploration step.
    pub fn assertions_checked(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.report.assertions_checked())
            .sum()
    }

    /// End-to-end wall time of all steps in milliseconds.
    pub fn total_wall_ms(&self) -> u64 {
        self.steps.iter().map(|s| s.report.total_wall_ms).sum()
    }
}

/// Runs the paper's greedy retention-set minimisation with the engine as
/// the oracle.
pub fn minimise_with_engine(oracle: &EngineOracle) -> MinimisationOutcome {
    // `minimise` drives a `FnMut` closure; collect the per-query campaign
    // reports on the side and zip them back onto the exploration log.
    let reports: RefCell<Vec<CampaignReport>> = RefCell::new(Vec::new());
    let (best, log) = minimise(|policy| {
        let report = oracle.check_policy(policy);
        // Same rule as `EngineOracle::accepts`: a candidate that a
        // requested suite cannot even run against is rejected, and the
        // (partial) report is kept as evidence of what was checked.
        let accepted = oracle.fully_applicable(policy) && report.all_hold();
        reports.borrow_mut().push(report);
        accepted
    });
    let steps = log
        .into_iter()
        .zip(reports.into_inner())
        .map(|(step, report)| MinimisationStep { step, report })
        .collect();
    MinimisationOutcome { best, steps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inapplicable_suites_reject_instead_of_vacuously_accepting() {
        // An oracle whose criterion includes the IFR suite: a candidate
        // that drops PC retention makes that suite inapplicable, so the
        // oracle must reject it rather than accept on the remaining
        // (always-passing) Property I jobs.
        let oracle = EngineOracle {
            base: NamedConfig::small(),
            suites: vec![Suite::PropertyOne, Suite::Ifr],
            threads: 1,
            granularity: Granularity::Suite,
            order: OrderPolicy::Interleaved,
        };
        let mut no_pc = ssr_cpu::RetentionPolicy::architectural();
        no_pc.pc = false;
        assert!(!oracle.fully_applicable(&no_pc));
        assert!(
            !oracle.accepts(&no_pc),
            "unverifiable candidates are rejected"
        );
        assert!(oracle.accepts(&ssr_cpu::RetentionPolicy::architectural()));
    }

    #[test]
    fn engine_oracle_reproduces_the_papers_minimal_retention_set() {
        let oracle = EngineOracle::property_two(NamedConfig::small(), 0);
        let outcome = minimise_with_engine(&oracle);
        // The paper's conclusion: all four architectural groups must stay
        // retained; dropping any one of them breaks Property II.
        assert_eq!(outcome.best, RetentionPolicy::architectural());
        assert_eq!(outcome.steps.len(), 5);
        assert!(
            outcome.steps[0].step.accepted,
            "the architectural baseline verifies"
        );
        assert!(outcome.steps[1..].iter().all(|s| !s.step.accepted));
        // Every rejecting step carries counterexample evidence.
        for step in &outcome.steps[1..] {
            assert!(!step.report.all_hold());
        }
        assert_eq!(
            outcome.assertions_checked(),
            5 * Suite::PropertyTwo.assertion_count()
        );
    }
}
