//! The campaign job model.
//!
//! A *campaign* is the cartesian product of core configurations, retention
//! policies and property suites; a *job* is one schedulable unit of that
//! product.  Following the path-decomposition argument of the symbolic
//! verification literature, a job can be a whole suite (one compiled model,
//! assertions checked back to back) or a single proof obligation
//! ([`JobPart::Assertion`]) so the scheduler can spread one expensive suite
//! across many workers.

use ssr_bdd::{BudgetSettings, OrderPolicy};
use ssr_cpu::{CoreConfig, RetentionPolicy};
use ssr_properties::Suite;

/// How finely the campaign is cut into jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// One job per (config × policy × suite): a single compiled model checks
    /// every assertion of the suite.  Lowest overhead.
    Suite,
    /// One job per (config × policy × suite × assertion): each proof
    /// obligation is scheduled independently.  Each job recompiles the
    /// model, but the pool can then parallelise inside a suite — the right
    /// trade for the big-memory configurations whose individual checks
    /// dominate the wall clock.
    Assertion,
}

impl Granularity {
    /// Stable lower-case identifier.
    pub fn name(self) -> &'static str {
        match self {
            Granularity::Suite => "suite",
            Granularity::Assertion => "assertion",
        }
    }

    /// Parses a CLI/JSON identifier.
    pub fn parse(text: &str) -> Option<Granularity> {
        match text.to_ascii_lowercase().as_str() {
            "suite" => Some(Granularity::Suite),
            "assertion" | "obligation" => Some(Granularity::Assertion),
            _ => None,
        }
    }
}

/// Per-job resource ceilings, applied to every job of a campaign.
///
/// All-`None` (the default) means ungoverned — the historical unlimited
/// behaviour.  Node and step budgets are enforced deterministically by the
/// BDD kernel, so a budget-exhausted verdict is reproducible across
/// `--parallel` settings and machines; the wall-clock deadline is not.
/// Exhaustion is reported as a structured job error (`budget_nodes` /
/// `budget_steps` / `budget_time`) after a one-shot graceful-degradation
/// retry — the campaign itself always completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobBudget {
    /// Ceiling on live BDD nodes per job (`--node-budget`).
    pub node_budget: Option<u64>,
    /// Ceiling on ITE recursion steps per job (`--step-budget`).
    pub step_budget: Option<u64>,
    /// Per-job wall-clock deadline in milliseconds (`--deadline-ms`).
    pub deadline_ms: Option<u64>,
}

impl JobBudget {
    /// `true` when no ceiling is installed (the default).
    pub fn is_unlimited(&self) -> bool {
        *self == JobBudget::default()
    }

    /// The kernel-level settings for one job *attempt*, with the deadline
    /// anchored at the moment of the call (each attempt gets a fresh
    /// deadline span).
    pub fn to_settings(&self) -> BudgetSettings {
        BudgetSettings {
            max_live_nodes: self.node_budget,
            max_ite_steps: self.step_budget,
            deadline: self
                .deadline_ms
                .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms)),
            deadline_ms: self.deadline_ms.unwrap_or(0),
        }
    }

    /// The raised budget of the one-shot graceful-degradation retry:
    /// every installed ceiling is doubled (saturating), uninstalled
    /// ceilings stay off.
    pub fn raised(&self) -> JobBudget {
        let double = |v: Option<u64>| v.map(|n| n.saturating_mul(2));
        JobBudget {
            node_budget: double(self.node_budget),
            step_budget: double(self.step_budget),
            deadline_ms: double(self.deadline_ms),
        }
    }
}

/// Which slice of a suite a job covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPart {
    /// The whole suite.
    WholeSuite,
    /// The single assertion at this index of the suite.
    Assertion(usize),
}

impl JobPart {
    /// Rendered form used in tables and JSON (`"suite"` or the index).
    pub fn render(self) -> String {
        match self {
            JobPart::WholeSuite => "suite".to_owned(),
            JobPart::Assertion(i) => format!("#{i}"),
        }
    }
}

/// A named retention policy, as campaigns and reports refer to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedPolicy {
    /// Stable name (e.g. `architectural`, `no-pc`).
    pub name: String,
    /// The policy itself.
    pub policy: RetentionPolicy,
}

/// The named policies the CLI and the exploration experiments use: the
/// paper's three baselines plus the four drop-one-architectural-group
/// variants that the minimisation search visits.
pub fn named_policies() -> Vec<NamedPolicy> {
    let drop = |f: fn(&mut RetentionPolicy)| {
        let mut p = RetentionPolicy::architectural();
        f(&mut p);
        p
    };
    vec![
        NamedPolicy {
            name: "architectural".into(),
            policy: RetentionPolicy::architectural(),
        },
        NamedPolicy {
            name: "full".into(),
            policy: RetentionPolicy::full(),
        },
        NamedPolicy {
            name: "none".into(),
            policy: RetentionPolicy::none(),
        },
        NamedPolicy {
            name: "no-pc".into(),
            policy: drop(|p| p.pc = false),
        },
        NamedPolicy {
            name: "no-imem".into(),
            policy: drop(|p| p.imem = false),
        },
        NamedPolicy {
            name: "no-regfile".into(),
            policy: drop(|p| p.regfile = false),
        },
        NamedPolicy {
            name: "no-dmem".into(),
            policy: drop(|p| p.dmem = false),
        },
    ]
}

/// Looks up one of the [`named_policies`] by name.
pub fn policy_by_name(name: &str) -> Option<NamedPolicy> {
    named_policies().into_iter().find(|p| p.name == name)
}

/// The name the reports use for a policy; falls back to a structural
/// `pc=../imem=..` rendering for policies outside the named set.
pub fn policy_name(policy: &RetentionPolicy) -> String {
    named_policies()
        .into_iter()
        .find(|n| n.policy == *policy)
        .map(|n| n.name)
        .unwrap_or_else(|| {
            format!(
                "pc={} imem={} regfile={} dmem={} micro={}",
                policy.pc, policy.imem, policy.regfile, policy.dmem, policy.micro
            )
        })
}

/// A named core configuration (sans retention policy, which the campaign
/// crosses in).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedConfig {
    /// Stable name (e.g. `small`, `paper`).
    pub name: String,
    /// The configuration.  Its `retention` field is overwritten per job.
    pub config: CoreConfig,
}

impl NamedConfig {
    /// The fast 8-word test configuration.
    pub fn small() -> Self {
        NamedConfig {
            name: "small".into(),
            config: CoreConfig::small_test(),
        }
    }

    /// The paper's 256-word configuration.
    pub fn paper() -> Self {
        NamedConfig {
            name: "paper".into(),
            config: CoreConfig::paper(),
        }
    }

    /// A square configuration with the given memory depth (power of two),
    /// named `d<depth>`.
    pub fn sized(depth: usize) -> Self {
        let mut config = CoreConfig::small_test();
        config.imem_depth = depth;
        config.dmem_depth = depth;
        NamedConfig {
            name: format!("d{depth}"),
            config,
        }
    }

    /// Resolves a configuration name as campaign specs and the serving
    /// protocol carry it: `small`, `paper`, or `d<N>` with `N` a power of
    /// two ≥ 2.  Returns `None` for anything else (control-path-tagged
    /// names like `small+unsafe-reset-ifr` are a CLI-side construction and
    /// deliberately not accepted over the wire).
    pub fn by_name(name: &str) -> Option<NamedConfig> {
        match name {
            "small" => Some(NamedConfig::small()),
            "paper" => Some(NamedConfig::paper()),
            other => {
                let depth: usize = other.strip_prefix('d')?.parse().ok()?;
                (depth >= 2 && depth.is_power_of_two()).then(|| NamedConfig::sized(depth))
            }
        }
    }
}

/// One schedulable unit of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Dense id; also the job's slot in the report (results are stored by
    /// id, so the report order is independent of worker scheduling).
    pub id: usize,
    /// Name of the core configuration.
    pub config_name: String,
    /// The full configuration to generate (retention policy already
    /// applied).
    pub config: CoreConfig,
    /// Name of the retention policy.
    pub policy_name: String,
    /// The suite to check.
    pub suite: Suite,
    /// Whole suite or a single obligation.
    pub part: JobPart,
    /// Names no choice (there is one variable order); kept only because `ssrbench` reads it.
    pub order: OrderPolicy,
}

impl JobSpec {
    /// Number of assertions this job will check.
    pub fn assertion_count(&self) -> usize {
        match self.part {
            JobPart::WholeSuite => self.suite.assertion_count(),
            JobPart::Assertion(_) => 1,
        }
    }

    /// `true` if the job's suite applies to its configuration (the IFR
    /// suite needs an IFR in the control path).
    pub fn applicable(&self) -> bool {
        self.suite.applicable_to(&self.config)
    }
}

/// Enumerates the jobs of the (configs × policies × suites) product in a
/// deterministic order: configs outermost, then policies, then suites, then
/// (at assertion granularity) assertion index.  Inapplicable combinations
/// (IFR suite × combinational control path) are skipped.
pub fn enumerate_jobs(
    configs: &[NamedConfig],
    policies: &[NamedPolicy],
    suites: &[Suite],
    granularity: Granularity,
) -> Vec<JobSpec> {
    let mut out = Vec::new();
    for named_config in configs {
        for named_policy in policies {
            let mut config = named_config.config;
            config.retention = named_policy.policy;
            for &suite in suites {
                if !suite.applicable_to(&config) {
                    continue;
                }
                let parts: Vec<JobPart> = match granularity {
                    Granularity::Suite => vec![JobPart::WholeSuite],
                    Granularity::Assertion => (0..suite.assertion_count())
                        .map(JobPart::Assertion)
                        .collect(),
                };
                for part in parts {
                    out.push(JobSpec {
                        id: out.len(),
                        config_name: named_config.name.clone(),
                        config,
                        policy_name: named_policy.name.clone(),
                        suite,
                        part,
                        order: OrderPolicy,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_deterministic_and_dense() {
        let configs = [NamedConfig::small()];
        let policies = named_policies();
        let a = enumerate_jobs(&configs, &policies, &Suite::ALL, Granularity::Suite);
        let b = enumerate_jobs(&configs, &policies, &Suite::ALL, Granularity::Suite);
        assert_eq!(a, b);
        // Every policy gets all three suites except the two the IFR suite
        // does not apply to (`full` retains the micro state, `no-pc` leaves
        // the fetch state incoherent).
        assert_eq!(a.len(), policies.len() * Suite::ALL.len() - 2);
        assert!(a.iter().all(|j| j.applicable()));
        for (i, job) in a.iter().enumerate() {
            assert_eq!(job.id, i);
        }
    }

    #[test]
    fn assertion_granularity_explodes_to_one_job_per_obligation() {
        let configs = [NamedConfig::small()];
        let policies = [policy_by_name("architectural").expect("named")];
        let jobs = enumerate_jobs(&configs, &policies, &Suite::ALL, Granularity::Assertion);
        let expected: usize = Suite::ALL.iter().map(|s| s.assertion_count()).sum();
        assert_eq!(jobs.len(), expected);
        assert!(jobs.iter().all(|j| j.assertion_count() == 1));
    }

    #[test]
    fn inapplicable_suites_are_skipped() {
        let mut combinational = NamedConfig::small();
        combinational.config.control_path = ssr_cpu::ControlPath::Combinational;
        let policies = [policy_by_name("architectural").expect("named")];
        let jobs = enumerate_jobs(&[combinational], &policies, &Suite::ALL, Granularity::Suite);
        assert_eq!(jobs.len(), 2, "the IFR suite must be skipped");
        assert!(jobs.iter().all(|j| j.suite != Suite::Ifr));
    }

    #[test]
    fn job_budgets_default_unlimited_and_raise_by_doubling() {
        let unlimited = JobBudget::default();
        assert!(unlimited.is_unlimited());
        assert_eq!(unlimited.raised(), unlimited);
        assert_eq!(unlimited.to_settings(), BudgetSettings::default());

        let budget = JobBudget {
            node_budget: Some(1000),
            step_budget: None,
            deadline_ms: Some(50),
        };
        assert!(!budget.is_unlimited());
        let raised = budget.raised();
        assert_eq!(raised.node_budget, Some(2000));
        assert_eq!(raised.step_budget, None);
        assert_eq!(raised.deadline_ms, Some(100));
        let settings = budget.to_settings();
        assert_eq!(settings.max_live_nodes, Some(1000));
        assert_eq!(settings.max_ite_steps, None);
        assert!(settings.deadline.is_some());
        assert_eq!(settings.deadline_ms, 50);
    }

    #[test]
    fn policy_names_round_trip() {
        for named in named_policies() {
            assert_eq!(policy_name(&named.policy), named.name);
            assert_eq!(policy_by_name(&named.name), Some(named));
        }
        let odd = RetentionPolicy {
            pc: true,
            imem: false,
            regfile: true,
            dmem: false,
            micro: true,
        };
        assert!(policy_name(&odd).contains("imem=false"));
    }
}
