//! # ssr-engine — the parallel verification-campaign engine
//!
//! The paper's contribution is a *flow*: generate a core per retention
//! policy, symbolically simulate it, check the Property I / Property II /
//! IFR suites, and iterate toward the minimal retention set.  This crate
//! turns that flow into a batch system in the style of industrial
//! symbolic-verification campaign runners:
//!
//! * [`job`] — a campaign is the (configs × policies × suites) product;
//!   [`job::enumerate_jobs`] expands it into a deterministic job list, at
//!   whole-suite or per-obligation ([`Granularity::Assertion`])
//!   granularity;
//! * [`campaign`] — [`CampaignSpec::run`] executes the jobs on a scoped
//!   worker pool.  Jobs of one (config × policy) share a single
//!   [`Arc`](std::sync::Arc)-compiled model ([`SharedHarness`]), each worker
//!   leases a recycled arena from the process-wide [`ManagerPool`] and
//!   `reset()`s it between jobs, so BDD arenas never cross threads and
//!   results are bit-identical to a sequential run.  Every job runs under
//!   at least a GC-only maintenance policy ([`run_job_with`] installs
//!   one), so the streaming STE checker's released states are collected;
//! * [`report`] — per-job results (verdicts, counterexample summaries, BDD
//!   node counts, wall times) aggregate into a [`CampaignReport`] that
//!   serialises to JSON (schema `ssr-campaign-report/v1`) and renders as a
//!   human-readable table;
//! * [`persist`] — campaign persistence: an incremental [`Checkpoint`]
//!   journal (schema `ssr-campaign-journal/v1`) written as workers finish,
//!   a loader for interrupted artifacts ([`load_partial`]) and the
//!   identity-validated [`plan_resume`] behind `ssr campaign --resume`;
//! * [`diff`] — [`ReportDiff`] compares two reports job-by-job (verdict
//!   transitions, added/removed jobs, wall/ITE deltas) and flags verdict
//!   regressions for CI gating (`ssr diff`);
//! * [`oracle`] — the engine doubles as the verification oracle of the
//!   paper's retention-set exploration: [`minimise_with_engine`] drives
//!   `ssr_retention::selection::minimise` with a parallel campaign per
//!   query and keeps the per-step evidence;
//! * [`json`] — the dependency-free JSON value/parser the reports use (the
//!   workspace builds offline, so there is no `serde`).
//!
//! The `ssr` CLI (`crates/cli`) is a thin front end over this crate.
//!
//! ## Example
//!
//! ```
//! use ssr_engine::{CampaignSpec, Granularity, NamedConfig, Suite};
//!
//! let spec = CampaignSpec {
//!     configs: vec![NamedConfig::small()],
//!     policies: vec![ssr_engine::policy_by_name("architectural").unwrap()],
//!     suites: vec![Suite::PropertyTwo],
//!     granularity: Granularity::Suite,
//!     threads: 2,
//!     budget: ssr_engine::JobBudget::default(),
//!     verbose: false,
//! };
//! let report = spec.run();
//! assert!(report.all_hold());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod diff;
pub mod job;
pub mod json;
pub mod oracle;
pub mod persist;
pub mod pool;
pub mod report;
pub mod spec;

pub use campaign::{
    run_job, run_job_with, CampaignSpec, CancelToken, HarnessError, RunHooks, SharedHarness,
};
pub use diff::{JobKey, ReportDiff, Verdict, VerdictChange};
pub use job::{
    enumerate_jobs, named_policies, policy_by_name, policy_name, Granularity, JobBudget, JobPart,
    JobSpec, NamedConfig, NamedPolicy,
};
pub use oracle::{minimise_with_engine, EngineOracle, MinimisationOutcome, MinimisationStep};
pub use persist::{load_partial, plan_resume, Checkpoint, PartialCampaign, ResumePlan};
pub use pool::{ManagerPool, PoolStats};
pub use report::{AssertionOutcome, CampaignReport, JobResult};
pub use spec::{spec_from_json, spec_to_json};

// Re-exported so engine users can name suites and resource budgets
// without depending on `ssr-properties`/`ssr-bdd` directly.
pub use ssr_bdd::{BudgetKind, BudgetSettings, MaintainSettings};
pub use ssr_properties::Suite;
