//! Campaign-report diffing: the regression gate behind `ssr diff`.
//!
//! Industrial symbolic-verification campaigns are gated the way test
//! suites are: a change lands only if no verdict *regressed* against the
//! last known-good report.  [`ReportDiff::between`] matches two
//! [`CampaignReport`]s job-by-job on the full job identity (config,
//! policy, suite, part — never the raw id, so reports from differently
//! filtered campaigns still align), classifies every matched pair's
//! verdict transition, and lists jobs only one side has.
//! [`ReportDiff::has_regressions`] is the CI bit: `ssr diff` exits
//! non-zero iff it is set.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::report::{CampaignReport, JobResult};

/// The identity a job is matched on across reports.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobKey {
    /// Core configuration name.
    pub config: String,
    /// Retention policy name.
    pub policy: String,
    /// Suite name.
    pub suite: String,
    /// `"suite"` or `"#i"`.
    pub part: String,
}

impl JobKey {
    fn of(job: &JobResult) -> JobKey {
        JobKey {
            config: job.config_name.clone(),
            policy: job.policy_name.clone(),
            suite: job.suite.clone(),
            part: job.part.clone(),
        }
    }

    /// `config/policy/suite/part`, the rendering used in diff output.
    pub fn render(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.config, self.policy, self.suite, self.part
        )
    }
}

/// A job's verdict, ordered from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Every assertion held.
    Holds,
    /// At least one assertion failed.
    Fails,
    /// The job ran out of a configured resource budget (`budget_*` error
    /// codes): no verdict, but by explicit operator choice rather than a
    /// harness defect.  Transitions in or out of this state never gate —
    /// see [`ReportDiff::budget_limited`].
    Budget,
    /// The job could not produce a verdict at all.
    Error,
}

impl Verdict {
    fn of(job: &JobResult) -> Verdict {
        if job.budget_limited() {
            Verdict::Budget
        } else if job.error.is_some() {
            Verdict::Error
        } else if job.holds {
            Verdict::Holds
        } else {
            Verdict::Fails
        }
    }

    /// Stable lower-case rendering.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Holds => "holds",
            Verdict::Fails => "FAILS",
            Verdict::Budget => "BUDGET",
            Verdict::Error => "ERROR",
        }
    }
}

/// One matched job whose verdict changed between the two reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictChange {
    /// The job's identity.
    pub key: JobKey,
    /// Verdict in the old report.
    pub old: Verdict,
    /// Verdict in the new report.
    pub new: Verdict,
    /// Names of assertions whose individual `holds` flipped (matched by
    /// name; empty for error transitions).
    pub flipped_assertions: Vec<String>,
}

/// The structured difference between two campaign reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDiff {
    /// Matched jobs whose verdict got *worse* (`Holds → Fails`,
    /// `Holds → Error`, `Fails → Error`) — the gating set.
    pub regressions: Vec<VerdictChange>,
    /// Matched jobs whose verdict got better.
    pub improvements: Vec<VerdictChange>,
    /// Matched jobs whose transition involves [`Verdict::Budget`] on
    /// either side.  A budget exhaustion is an operator-imposed resource
    /// ceiling, not a correctness signal, so comparing a budgeted run
    /// against an unbudgeted baseline (or vice versa) must not trip the
    /// regression gate — but the transitions are still listed so the
    /// operator sees exactly which verdicts the ceiling cost them.
    pub budget_limited: Vec<VerdictChange>,
    /// Matched jobs whose verdict is unchanged but whose per-assertion
    /// outcomes shifted (e.g. a different obligation fails now).
    pub churned: Vec<JobKey>,
    /// Jobs only the new report has.
    pub added: Vec<JobKey>,
    /// Jobs only the old report has.
    pub removed: Vec<JobKey>,
    /// Number of jobs present in both reports.
    pub matched: usize,
    /// Old/new end-to-end wall times (0 when the source was a journal).
    pub wall_ms: (u64, u64),
    /// Old/new summed per-job wall times.
    pub cpu_ms: (u64, u64),
    /// Old/new campaign-wide ITE computed-table hit rates.
    pub ite_hit_rate: (f64, f64),
}

impl ReportDiff {
    /// Computes the diff from `old` to `new`.
    pub fn between(old: &CampaignReport, new: &CampaignReport) -> ReportDiff {
        fn index(report: &CampaignReport) -> BTreeMap<JobKey, &JobResult> {
            report.jobs.iter().map(|j| (JobKey::of(j), j)).collect()
        }
        let old_jobs = index(old);
        let new_jobs = index(new);

        let mut regressions = Vec::new();
        let mut improvements = Vec::new();
        let mut budget_limited = Vec::new();
        let mut churned = Vec::new();
        let mut matched = 0usize;
        for (key, old_job) in &old_jobs {
            let Some(new_job) = new_jobs.get(key) else {
                continue;
            };
            matched += 1;
            let (was, now) = (Verdict::of(old_job), Verdict::of(new_job));
            if was == now {
                if assertion_flips(old_job, new_job).is_empty() {
                    continue;
                }
                churned.push(key.clone());
                continue;
            }
            let change = VerdictChange {
                key: key.clone(),
                old: was,
                new: now,
                flipped_assertions: assertion_flips(old_job, new_job),
            };
            if was == Verdict::Budget || now == Verdict::Budget {
                budget_limited.push(change);
            } else if now > was {
                regressions.push(change);
            } else {
                improvements.push(change);
            }
        }
        let added = new_jobs
            .keys()
            .filter(|k| !old_jobs.contains_key(*k))
            .cloned()
            .collect();
        let removed = old_jobs
            .keys()
            .filter(|k| !new_jobs.contains_key(*k))
            .cloned()
            .collect();
        ReportDiff {
            regressions,
            improvements,
            budget_limited,
            churned,
            added,
            removed,
            matched,
            wall_ms: (old.total_wall_ms, new.total_wall_ms),
            cpu_ms: (old.cpu_ms(), new.cpu_ms()),
            ite_hit_rate: (old.ite_hit_rate(), new.ite_hit_rate()),
        }
    }

    /// `true` iff some matched job's verdict got worse — the condition CI
    /// gates on.
    pub fn has_regressions(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Renders the human-readable diff summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign diff: {} matched job(s), {} added, {} removed",
            self.matched,
            self.added.len(),
            self.removed.len(),
        );
        for change in &self.regressions {
            let _ = writeln!(
                out,
                "REGRESSION  {}: {} -> {}{}",
                change.key.render(),
                change.old.name(),
                change.new.name(),
                render_flips(&change.flipped_assertions),
            );
        }
        for change in &self.improvements {
            let _ = writeln!(
                out,
                "improvement {}: {} -> {}{}",
                change.key.render(),
                change.old.name(),
                change.new.name(),
                render_flips(&change.flipped_assertions),
            );
        }
        for change in &self.budget_limited {
            let _ = writeln!(
                out,
                "budget      {}: {} -> {} (resource ceiling, not gated)",
                change.key.render(),
                change.old.name(),
                change.new.name(),
            );
        }
        for key in &self.churned {
            let _ = writeln!(
                out,
                "churn       {}: same verdict, different assertion outcomes",
                key.render()
            );
        }
        for key in &self.added {
            let _ = writeln!(out, "added       {}", key.render());
        }
        for key in &self.removed {
            let _ = writeln!(out, "removed     {}", key.render());
        }
        if self.wall_ms.0 > 0 && self.wall_ms.1 > 0 {
            let _ = writeln!(
                out,
                "wall {} ms -> {} ms ({:+.1}%), cpu {} ms -> {} ms",
                self.wall_ms.0,
                self.wall_ms.1,
                percent_delta(self.wall_ms.0, self.wall_ms.1),
                self.cpu_ms.0,
                self.cpu_ms.1,
            );
        }
        let _ = writeln!(
            out,
            "ITE hit rate {:.4} -> {:.4} ({:+.4})",
            self.ite_hit_rate.0,
            self.ite_hit_rate.1,
            self.ite_hit_rate.1 - self.ite_hit_rate.0,
        );
        let _ = writeln!(
            out,
            "{}",
            if self.has_regressions() {
                "verdict regressions detected"
            } else {
                "no verdict regressions"
            }
        );
        out
    }
}

/// Per-assertion differences between two runs of the same job, matched by
/// assertion name: names whose `holds` flipped, plus obligations only one
/// side checked (`+name` = new only, `-name` = old only) — a vanished
/// proof obligation must not hide behind an unchanged job verdict.
fn assertion_flips(old: &JobResult, new: &JobResult) -> Vec<String> {
    let old_holds: BTreeMap<&str, bool> = old
        .assertions
        .iter()
        .map(|a| (a.name.as_str(), a.holds))
        .collect();
    let new_names: std::collections::BTreeSet<&str> =
        new.assertions.iter().map(|a| a.name.as_str()).collect();
    let mut out: Vec<String> = new
        .assertions
        .iter()
        .filter_map(|a| match old_holds.get(a.name.as_str()) {
            Some(h) if *h != a.holds => Some(a.name.clone()),
            Some(_) => None,
            None => Some(format!("+{}", a.name)),
        })
        .collect();
    out.extend(
        old_holds
            .keys()
            .filter(|name| !new_names.contains(*name))
            .map(|name| format!("-{name}")),
    );
    out
}

fn render_flips(names: &[String]) -> String {
    if names.is_empty() {
        String::new()
    } else {
        format!(" (assertions: {})", names.join(", "))
    }
}

fn percent_delta(old: u64, new: u64) -> f64 {
    100.0 * (new as f64 - old as f64) / old as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::AssertionOutcome;

    fn job(policy: &str, holds: bool, error: Option<&str>) -> JobResult {
        JobResult {
            job_id: 0,
            config_name: "small".into(),
            policy_name: policy.into(),
            suite: "property-two".into(),
            part: "suite".into(),
            assertions: vec![AssertionOutcome {
                name: "survive_pc".into(),
                holds,
                vacuous: false,
                constraints: 10,
                wall_ms: 1,
                failures: vec![],
            }],
            holds,
            bdd_nodes: 100,
            peak_live_nodes: 100,
            gc_passes: 0,
            bdd_vars: 8,
            ite_hits: 80,
            ite_misses: 20,
            wall_ms: 9,
            error: error.map(str::to_owned),
        }
    }

    fn report(jobs: Vec<JobResult>) -> CampaignReport {
        CampaignReport {
            threads: 1,
            granularity: "suite".into(),
            jobs,
            total_wall_ms: 10,
        }
    }

    #[test]
    fn identical_reports_diff_clean() {
        let r = report(vec![job("architectural", true, None)]);
        let diff = ReportDiff::between(&r, &r);
        assert!(!diff.has_regressions());
        assert!(diff.regressions.is_empty() && diff.improvements.is_empty());
        assert_eq!(diff.matched, 1);
        assert!(diff.render().contains("no verdict regressions"));
    }

    #[test]
    fn holds_to_fails_is_a_regression_and_the_reverse_an_improvement() {
        let good = report(vec![job("architectural", true, None)]);
        let bad = report(vec![job("architectural", false, None)]);
        let diff = ReportDiff::between(&good, &bad);
        assert!(diff.has_regressions());
        assert_eq!(diff.regressions.len(), 1);
        assert_eq!(diff.regressions[0].old, Verdict::Holds);
        assert_eq!(diff.regressions[0].new, Verdict::Fails);
        assert_eq!(diff.regressions[0].flipped_assertions, vec!["survive_pc"]);
        assert!(diff.render().contains("REGRESSION"));

        let diff = ReportDiff::between(&bad, &good);
        assert!(!diff.has_regressions());
        assert_eq!(diff.improvements.len(), 1);
    }

    #[test]
    fn fails_to_error_is_a_regression() {
        let fails = report(vec![job("none", false, None)]);
        let errors = report(vec![job("none", false, Some("harness exploded"))]);
        let diff = ReportDiff::between(&fails, &errors);
        assert!(diff.has_regressions());
        assert_eq!(diff.regressions[0].new, Verdict::Error);
        // Recovering from an error is an improvement, not a regression.
        assert!(!ReportDiff::between(&errors, &fails).has_regressions());
    }

    #[test]
    fn budget_exhaustion_is_classified_apart_from_real_regressions() {
        let good = report(vec![job("architectural", true, None)]);
        let budgeted = report(vec![job(
            "architectural",
            false,
            Some("budget_nodes: live-node budget exhausted (limit 64)"),
        )]);
        // A verdict lost to a resource ceiling is not a regression …
        let diff = ReportDiff::between(&good, &budgeted);
        assert!(!diff.has_regressions());
        assert_eq!(diff.budget_limited.len(), 1);
        assert_eq!(diff.budget_limited[0].old, Verdict::Holds);
        assert_eq!(diff.budget_limited[0].new, Verdict::Budget);
        assert!(diff.render().contains("budget      "));
        assert!(diff.render().contains("not gated"));
        // … and recovering one when the ceiling is lifted is not an
        // improvement either, just the ceiling moving.
        let diff = ReportDiff::between(&budgeted, &good);
        assert!(!diff.has_regressions());
        assert!(diff.improvements.is_empty());
        assert_eq!(diff.budget_limited.len(), 1);
        // A genuine harness error is still gated even against a budget
        // baseline on the other side of an unrelated job: ERROR ≠ BUDGET.
        let errored = report(vec![job("architectural", false, Some("harness exploded"))]);
        assert!(ReportDiff::between(&good, &errored).has_regressions());
        let diff = ReportDiff::between(&budgeted, &errored);
        assert!(
            !diff.has_regressions(),
            "budget -> error involves Budget and stays non-gating"
        );
        assert_eq!(diff.budget_limited.len(), 1);
    }

    #[test]
    fn membership_changes_are_reported_but_do_not_gate() {
        let old = report(vec![job("architectural", true, None)]);
        let new = report(vec![
            job("architectural", true, None),
            job("none", false, None),
        ]);
        let diff = ReportDiff::between(&old, &new);
        assert!(
            !diff.has_regressions(),
            "a newly added failing job is not a regression"
        );
        assert_eq!(diff.added.len(), 1);
        assert!(diff.render().contains("added"));
        let diff = ReportDiff::between(&new, &old);
        assert_eq!(diff.removed.len(), 1);
    }

    #[test]
    fn same_verdict_assertion_churn_is_surfaced() {
        let mut a = job("none", false, None);
        a.assertions.push(AssertionOutcome {
            name: "equivalence_add".into(),
            holds: true,
            vacuous: false,
            constraints: 5,
            wall_ms: 1,
            failures: vec![],
        });
        let mut b = a.clone();
        b.assertions[0].holds = true;
        b.assertions[1].holds = false;
        let diff = ReportDiff::between(&report(vec![a]), &report(vec![b]));
        assert!(!diff.has_regressions());
        assert_eq!(diff.churned.len(), 1);
        assert!(diff.render().contains("churn"));
    }

    #[test]
    fn a_vanished_obligation_is_churn_even_with_the_same_verdict() {
        let mut with_both = job("architectural", true, None);
        with_both.assertions.push(AssertionOutcome {
            name: "equivalence_add".into(),
            holds: true,
            vacuous: false,
            constraints: 5,
            wall_ms: 1,
            failures: vec![],
        });
        let only_one = job("architectural", true, None);
        // Both reports say `holds`, but the second never checked
        // `equivalence_add` — that must be visible, not silent.
        let diff = ReportDiff::between(&report(vec![with_both]), &report(vec![only_one.clone()]));
        assert!(!diff.has_regressions());
        assert_eq!(diff.churned.len(), 1);
        // And a newly appearing obligation is flagged symmetrically.
        let mut grown = only_one.clone();
        grown.assertions.push(AssertionOutcome {
            name: "equivalence_sw".into(),
            holds: true,
            vacuous: false,
            constraints: 5,
            wall_ms: 1,
            failures: vec![],
        });
        let diff = ReportDiff::between(&report(vec![only_one]), &report(vec![grown]));
        assert_eq!(diff.churned.len(), 1);
    }
}
