//! The verdict oracle: per-assertion expected verdicts, generated once with
//! `--write-expected` and committed as `expected/<config>.tsv`.
//!
//! One line per assertion, sorted, tab-separated:
//! `config  policy  suite  assertion  holds|fails`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use ssr_engine::{CampaignReport, JobSpec};

/// `(config, policy, suite, assertion)`.
pub type Key = (String, String, String, String);

/// An expected-verdict table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table(pub BTreeMap<Key, bool>);

/// What checking one report against the table found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Assertions checked (observed in the report).
    pub assertions: u64,
    /// Keys whose verdict differs, or that only one side has.
    pub mismatches: u64,
    /// Jobs that ended in an error record.
    pub job_errors: u64,
    /// Jobs in the report.
    pub jobs: u64,
    /// FAILS verdicts (each carries a counterexample).
    pub counterexamples: u64,
    /// FAILS verdicts whose counterexample names no failing node.
    pub cex_unexplained: u64,
    /// Consequent constraints the checker compared.
    pub constraints: u64,
}

impl Outcome {
    /// The counts of `report` alone, with no table to check against.
    fn of(report: &CampaignReport) -> Outcome {
        let mut outcome = Outcome {
            jobs: report.jobs.len() as u64,
            job_errors: report.jobs.iter().filter(|j| j.error.is_some()).count() as u64,
            ..Outcome::default()
        };
        for a in report.jobs.iter().flat_map(|j| &j.assertions) {
            outcome.assertions += 1;
            outcome.constraints += a.constraints;
            if !a.holds {
                outcome.counterexamples += 1;
                if a.failures.is_empty() {
                    outcome.cex_unexplained += 1;
                }
            }
        }
        outcome
    }

    pub fn add(&mut self, other: Outcome) {
        self.assertions += other.assertions;
        self.mismatches += other.mismatches;
        self.job_errors += other.job_errors;
        self.jobs += other.jobs;
        self.counterexamples += other.counterexamples;
        self.cex_unexplained += other.cex_unexplained;
        self.constraints += other.constraints;
    }
}

impl Table {
    /// Loads `dir/<config>.tsv`.
    pub fn load(dir: &Path, config: &str) -> Result<Table, String> {
        let path = dir.join(format!("{config}.tsv"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Table::parse(&text).map_err(|e| format!("{}:{e}", path.display()))
    }

    /// Parses the canonical text form (errors carry the line number).
    pub fn parse(text: &str) -> Result<Table, String> {
        let mut table = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let fields: Vec<&str> = line.split('\t').collect();
            let [config, policy, suite, assertion, verdict] = fields[..] else {
                return Err(format!("{}: expected 5 fields", n + 1));
            };
            let holds = match verdict {
                "holds" => true,
                "fails" => false,
                other => return Err(format!("{}: bad verdict `{other}`", n + 1)),
            };
            let key = (config.into(), policy.into(), suite.into(), assertion.into());
            if table.insert(key, holds).is_some() {
                return Err(format!("{}: duplicate key", n + 1));
            }
        }
        Ok(Table(table))
    }

    /// The table a report's verdicts make.
    pub fn from_report(report: &CampaignReport) -> Table {
        let mut table = BTreeMap::new();
        for job in &report.jobs {
            for a in &job.assertions {
                let key = (
                    job.config_name.clone(),
                    job.policy_name.clone(),
                    job.suite.clone(),
                    a.name.clone(),
                );
                assert!(
                    table.insert(key, a.holds).is_none(),
                    "assertion names repeat"
                );
            }
        }
        Table(table)
    }

    /// The canonical text form.
    pub fn render(&self) -> String {
        self.0
            .iter()
            .map(|((c, p, s, a), holds)| {
                format!(
                    "{c}\t{p}\t{s}\t{a}\t{}\n",
                    if *holds { "holds" } else { "fails" }
                )
            })
            .collect()
    }

    /// Checks `report`, produced by running `jobs`, against the table:
    /// every assertion of every (config × policy × suite) the jobs cover
    /// must be present with the tabled verdict.
    pub fn check(&self, jobs: &[JobSpec], report: &CampaignReport) -> Outcome {
        let requested: BTreeSet<(String, String, String)> = jobs
            .iter()
            .map(|j| {
                (
                    j.config_name.clone(),
                    j.policy_name.clone(),
                    j.suite.name().to_owned(),
                )
            })
            .collect();
        let observed = Table::from_report(report).0;
        let expected = self
            .0
            .iter()
            .filter(|((c, p, s, _), _)| requested.contains(&(c.clone(), p.clone(), s.clone())));
        let mut outcome = Outcome::of(report);
        outcome.mismatches = expected
            .filter(|(key, holds)| observed.get(*key) != Some(holds))
            .count() as u64;
        outcome.mismatches += observed.keys().filter(|k| !self.0.contains_key(*k)).count() as u64;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_engine::json::Json;
    use ssr_engine::{spec_from_json, CampaignSpec};

    fn spec() -> CampaignSpec {
        let wire = Json::parse(
            r#"{"configs":["small"],"policies":["none","architectural"],"suites":["two"]}"#,
        )
        .expect("wire spec parses");
        spec_from_json(&wire).expect("valid spec")
    }

    #[test]
    fn a_doctored_table_trips_verdict_mismatches() {
        let spec = spec();
        let report = spec.run();
        let table = Table::from_report(&report);
        let jobs = spec.jobs();
        let clean = table.check(&jobs, &report);
        assert_eq!(clean.mismatches, 0);
        assert_eq!(clean.assertions, 16);
        assert!(
            clean.counterexamples > 0,
            "the none policy fails Property II"
        );

        let mut doctored = table.clone();
        let flipped = doctored.0.values_mut().next().expect("non-empty table");
        *flipped = !*flipped;
        assert_eq!(doctored.check(&jobs, &report).mismatches, 1);

        let mut missing = table.clone();
        missing.0.pop_first();
        assert_eq!(missing.check(&jobs, &report).mismatches, 1);
    }

    #[test]
    fn the_text_form_round_trips() {
        let table = Table::from_report(&spec().run());
        assert_eq!(Table::parse(&table.render()).expect("parses"), table);
        assert!(Table::parse("small\tnone\ttwo\tx\tmaybe\n").is_err());
    }
}
