//! Campaign results: per-job outcomes, the aggregate report, and its JSON
//! and table renderings.

use crate::job::JobSpec;
use crate::json::{Json, JsonError};

/// Outcome of one checked assertion inside a job.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionOutcome {
    /// The assertion's name.
    pub name: String,
    /// `true` if `A ⇒ C` held.
    pub holds: bool,
    /// `true` if the antecedent was unsatisfiable (the check is vacuous).
    pub vacuous: bool,
    /// Number of consequent constraints compared.
    pub constraints: u64,
    /// Check wall time in milliseconds.
    pub wall_ms: u64,
    /// For failing assertions: a short human-readable counterexample
    /// summary (first failing nodes), empty otherwise.
    pub failures: Vec<String>,
}

/// Result of one campaign job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Id of the [`JobSpec`] this result answers.
    pub job_id: u64,
    /// Name of the core configuration.
    pub config_name: String,
    /// Name of the retention policy.
    pub policy_name: String,
    /// Name of the suite.
    pub suite: String,
    /// `"suite"` for a whole-suite job, `"#i"` for obligation `i`.
    pub part: String,
    /// Per-assertion outcomes, in suite order.
    pub assertions: Vec<AssertionOutcome>,
    /// `true` if every assertion held.
    pub holds: bool,
    /// BDD nodes allocated by the job's manager when the job finished.
    pub bdd_nodes: u64,
    /// Peak live BDD nodes over the job: the working-set peak, since every
    /// job runs under at least a GC-only maintenance policy.
    pub peak_live_nodes: u64,
    /// Garbage-collection passes the job's manager ran.
    pub gc_passes: u64,
    /// BDD variables allocated by the job's manager.
    pub bdd_vars: u64,
    /// ITE computed-table hits recorded by the job's manager.
    pub ite_hits: u64,
    /// ITE computed-table misses recorded by the job's manager.
    pub ite_misses: u64,
    /// Total job wall time (model compile + all checks) in milliseconds.
    pub wall_ms: u64,
    /// Set when the job could not run at all (e.g. netlist generation
    /// failed); `assertions` is empty in that case and `holds` is `false`.
    pub error: Option<String>,
}

impl JobResult {
    /// Number of assertions that held.
    pub fn passed(&self) -> usize {
        self.assertions.iter().filter(|a| a.holds).count()
    }

    /// `true` when this job's error records budget exhaustion rather than
    /// a real failure: the error string carries a stable machine-readable
    /// `budget_nodes:` / `budget_steps:` / `budget_time:` prefix that
    /// `ssr diff` classifies separately from regressions.
    pub fn budget_limited(&self) -> bool {
        self.error
            .as_deref()
            .is_some_and(|e| e.starts_with("budget_"))
    }

    /// The result as a JSON value — one line of a checkpoint journal, or
    /// the `result` field of a streamed `ssr-serve/v1` `job` response.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("job_id", Json::Num(self.job_id as f64)),
            ("config", Json::Str(self.config_name.clone())),
            ("policy", Json::Str(self.policy_name.clone())),
            ("suite", Json::Str(self.suite.clone())),
            ("part", Json::Str(self.part.clone())),
            (
                "assertions",
                Json::Arr(
                    self.assertions
                        .iter()
                        .map(|a| {
                            Json::obj([
                                ("name", Json::Str(a.name.clone())),
                                ("holds", Json::Bool(a.holds)),
                                ("vacuous", Json::Bool(a.vacuous)),
                                ("constraints", Json::Num(a.constraints as f64)),
                                ("wall_ms", Json::Num(a.wall_ms as f64)),
                                (
                                    "failures",
                                    Json::Arr(a.failures.iter().cloned().map(Json::Str).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("holds", Json::Bool(self.holds)),
            ("bdd_nodes", Json::Num(self.bdd_nodes as f64)),
            ("peak_live_nodes", Json::Num(self.peak_live_nodes as f64)),
            ("gc_passes", Json::Num(self.gc_passes as f64)),
            ("bdd_vars", Json::Num(self.bdd_vars as f64)),
            ("ite_hits", Json::Num(self.ite_hits as f64)),
            ("ite_misses", Json::Num(self.ite_misses as f64)),
            ("wall_ms", Json::Num(self.wall_ms as f64)),
            (
                "error",
                match &self.error {
                    Some(e) => Json::Str(e.clone()),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Parses a value produced by [`JobResult::to_json`].
    ///
    /// # Errors
    /// Returns a human-readable message for missing or mistyped fields.
    pub fn from_json(v: &Json) -> Result<JobResult, String> {
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("job missing string field `{key}`"))
        };
        let num_field = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("job missing integer field `{key}`"))
        };
        let assertions = v
            .get("assertions")
            .and_then(Json::as_arr)
            .ok_or("job missing `assertions` array")?
            .iter()
            .map(|a| -> Result<AssertionOutcome, String> {
                Ok(AssertionOutcome {
                    name: a
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("assertion missing `name`")?
                        .to_owned(),
                    holds: a
                        .get("holds")
                        .and_then(Json::as_bool)
                        .ok_or("assertion missing `holds`")?,
                    vacuous: a
                        .get("vacuous")
                        .and_then(Json::as_bool)
                        .ok_or("assertion missing `vacuous`")?,
                    constraints: a
                        .get("constraints")
                        .and_then(Json::as_u64)
                        .ok_or("assertion missing `constraints`")?,
                    wall_ms: a
                        .get("wall_ms")
                        .and_then(Json::as_u64)
                        .ok_or("assertion missing `wall_ms`")?,
                    failures: a
                        .get("failures")
                        .and_then(Json::as_arr)
                        .ok_or("assertion missing `failures`")?
                        .iter()
                        .map(|f| {
                            f.as_str()
                                .map(str::to_owned)
                                .ok_or_else(|| "non-string failure entry".to_owned())
                        })
                        .collect::<Result<_, _>>()?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(JobResult {
            job_id: num_field("job_id")?,
            config_name: str_field("config")?,
            policy_name: str_field("policy")?,
            suite: str_field("suite")?,
            part: str_field("part")?,
            // An `order` key (written while the variable order was
            // selectable) and a `partitioning` key (written while the
            // checker had selectable strategies) are ignored, whatever
            // their values.
            assertions,
            holds: v
                .get("holds")
                .and_then(Json::as_bool)
                .ok_or("job missing `holds`")?,
            bdd_nodes: num_field("bdd_nodes")?,
            peak_live_nodes: v.get("peak_live_nodes").and_then(Json::as_u64).unwrap_or(0),
            gc_passes: v.get("gc_passes").and_then(Json::as_u64).unwrap_or(0),
            // `reorder_passes` and `sift_ms` (written while the kernel
            // could sift) are ignored.
            bdd_vars: num_field("bdd_vars")?,
            // Kernel-cache telemetry: absent in pre-kernel-rework reports,
            // parsed leniently so old v1 files still load.
            ite_hits: v.get("ite_hits").and_then(Json::as_u64).unwrap_or(0),
            ite_misses: v.get("ite_misses").and_then(Json::as_u64).unwrap_or(0),
            wall_ms: num_field("wall_ms")?,
            error: match v.get("error") {
                Some(Json::Str(e)) => Some(e.clone()),
                _ => None,
            },
        })
    }
}

/// The aggregate result of a campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Worker threads the pool ran with.
    pub threads: u64,
    /// Job granularity the campaign was cut at (`"suite"`/`"assertion"`).
    pub granularity: String,
    /// Per-job results, ordered by job id (independent of scheduling).
    pub jobs: Vec<JobResult>,
    /// End-to-end campaign wall time in milliseconds.
    pub total_wall_ms: u64,
}

impl CampaignReport {
    /// `true` if the campaign actually checked something, every job ran and
    /// every assertion held.  An empty report (every suite inapplicable) is
    /// *not* a success — treating it as one would let a verification oracle
    /// vacuously accept a policy it never examined.
    pub fn all_hold(&self) -> bool {
        !self.jobs.is_empty() && self.jobs.iter().all(|j| j.holds && j.error.is_none())
    }

    /// Total number of assertions checked.
    pub fn assertions_checked(&self) -> usize {
        self.jobs.iter().map(|j| j.assertions.len()).sum()
    }

    /// Total number of assertions that held.
    pub fn assertions_passed(&self) -> usize {
        self.jobs.iter().map(|j| j.passed()).sum()
    }

    /// Sum of per-job wall times — the sequential cost the pool amortised.
    pub fn cpu_ms(&self) -> u64 {
        self.jobs.iter().map(|j| j.wall_ms).sum()
    }

    /// Aggregate ITE computed-table hits across every job.
    pub fn ite_hits(&self) -> u64 {
        self.jobs.iter().map(|j| j.ite_hits).sum()
    }

    /// Aggregate ITE computed-table misses across every job.
    pub fn ite_misses(&self) -> u64 {
        self.jobs.iter().map(|j| j.ite_misses).sum()
    }

    /// Campaign-wide ITE computed-table hit rate in `[0, 1]` (`0.0` before
    /// any probe).  Kernel-cache health for the whole workload; per-job
    /// numbers live on [`JobResult`].
    pub fn ite_hit_rate(&self) -> f64 {
        let hits = self.ite_hits();
        let total = hits + self.ite_misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// A copy of the report with every wall-clock field, the worker count
    /// and the kernel-arena telemetry zeroed: the scheduling-, timing- and
    /// maintenance-independent content.  Two runs of the same campaign — at
    /// any thread count, with or without manager-pool reuse, fresh or
    /// resumed from a checkpoint, unbudgeted or recovered by the budget
    /// retry — must serialise this to byte-identical JSON.  (Node counts
    /// and cache telemetry are deterministic per maintenance policy but
    /// legitimately differ across policies, exactly like timing across
    /// thread counts.)
    pub fn canonical(&self) -> CampaignReport {
        let mut report = self.clone();
        report.total_wall_ms = 0;
        report.threads = 0;
        for job in &mut report.jobs {
            job.wall_ms = 0;
            job.bdd_nodes = 0;
            job.peak_live_nodes = 0;
            job.gc_passes = 0;
            job.ite_hits = 0;
            job.ite_misses = 0;
            for assertion in &mut job.assertions {
                assertion.wall_ms = 0;
            }
        }
        report
    }

    /// [`CampaignReport::canonical`] serialised to JSON — the byte-stable
    /// form used for determinism checks and report diffing.
    pub fn canonical_json(&self) -> String {
        self.canonical().to_json()
    }

    /// The report as a JSON value (schema `ssr-campaign-report/v1`).
    /// [`CampaignReport::to_json`] pretty-prints it; the serving protocol
    /// embeds it compactly in the final `report` response line.
    pub fn json_value(&self) -> Json {
        Json::obj([
            ("schema", Json::Str("ssr-campaign-report/v1".into())),
            ("threads", Json::Num(self.threads as f64)),
            ("granularity", Json::Str(self.granularity.clone())),
            ("total_wall_ms", Json::Num(self.total_wall_ms as f64)),
            (
                "jobs",
                Json::Arr(self.jobs.iter().map(JobResult::to_json).collect()),
            ),
        ])
    }

    /// Serialises the report to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.json_value().render_pretty()
    }

    /// Parses a report serialised by [`CampaignReport::to_json`].
    ///
    /// # Errors
    /// Returns a human-readable message for syntax errors or missing
    /// fields.
    pub fn from_json(text: &str) -> Result<CampaignReport, String> {
        let doc = Json::parse(text).map_err(|e: JsonError| e.to_string())?;
        Self::from_json_value(&doc)
    }

    /// Parses a value produced by [`CampaignReport::json_value`].
    ///
    /// # Errors
    /// Returns a human-readable message for a wrong schema or missing
    /// fields.
    pub fn from_json_value(doc: &Json) -> Result<CampaignReport, String> {
        match doc.get("schema").and_then(Json::as_str) {
            Some("ssr-campaign-report/v1") => {}
            other => return Err(format!("unsupported report schema {other:?}")),
        }
        let jobs = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or("report missing `jobs` array")?
            .iter()
            .map(JobResult::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignReport {
            threads: doc
                .get("threads")
                .and_then(Json::as_u64)
                .ok_or("report missing `threads`")?,
            granularity: doc
                .get("granularity")
                .and_then(Json::as_str)
                .ok_or("report missing `granularity`")?
                .to_owned(),
            jobs,
            total_wall_ms: doc
                .get("total_wall_ms")
                .and_then(Json::as_u64)
                .ok_or("report missing `total_wall_ms`")?,
        })
    }

    /// Renders the human-readable result table.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<[String; 9]> = vec![[
            "job".into(),
            "config".into(),
            "policy".into(),
            "suite".into(),
            "part".into(),
            "holds".into(),
            "bdd nodes".into(),
            "peak live".into(),
            "ms".into(),
        ]];
        for j in &self.jobs {
            let verdict = match (&j.error, j.holds) {
                (Some(_), _) if j.budget_limited() => "BUDGET".to_owned(),
                (Some(_), _) => "ERROR".to_owned(),
                (None, true) => format!("yes {}/{}", j.passed(), j.assertions.len()),
                (None, false) => format!("NO  {}/{}", j.passed(), j.assertions.len()),
            };
            rows.push([
                j.job_id.to_string(),
                j.config_name.clone(),
                j.policy_name.clone(),
                j.suite.clone(),
                j.part.clone(),
                verdict,
                j.bdd_nodes.to_string(),
                j.peak_live_nodes.to_string(),
                j.wall_ms.to_string(),
            ]);
        }
        let mut widths = [0usize; 9];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            for (col, (cell, width)) in row.iter().zip(widths).enumerate() {
                if col > 0 {
                    out.push_str("  ");
                }
                // Right-align the numeric columns.
                if matches!(col, 0 | 6 | 7 | 8) {
                    out.push_str(&" ".repeat(width - cell.len()));
                    out.push_str(cell);
                } else {
                    out.push_str(cell);
                    if col + 1 < row.len() {
                        out.push_str(&" ".repeat(width - cell.len()));
                    }
                }
            }
            out.push('\n');
            if i == 0 {
                let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        out.push_str(&format!(
            "{} jobs, {}/{} assertions hold, {} worker thread(s), wall {} ms (cpu {} ms)\n",
            self.jobs.len(),
            self.assertions_passed(),
            self.assertions_checked(),
            self.threads,
            self.total_wall_ms,
            self.cpu_ms(),
        ));
        let probes = self.ite_hits() + self.ite_misses();
        if probes > 0 {
            out.push_str(&format!(
                "ITE cache: {:.1}% hit rate ({} hits / {} misses)\n",
                100.0 * self.ite_hit_rate(),
                self.ite_hits(),
                self.ite_misses(),
            ));
        }
        for j in self.jobs.iter().filter(|j| !j.holds || j.error.is_some()) {
            if let Some(e) = &j.error {
                let label = if j.budget_limited() {
                    "BUDGET"
                } else {
                    "ERROR"
                };
                out.push_str(&format!("job {}: {label}: {e}\n", j.job_id));
            }
            for a in j.assertions.iter().filter(|a| !a.holds) {
                out.push_str(&format!("job {}: FAILED `{}`\n", j.job_id, a.name));
                for f in a.failures.iter().take(4) {
                    out.push_str(&format!("    {f}\n"));
                }
            }
        }
        out
    }
}

/// Builds the table/JSON identity of a job from its spec (shared by the
/// executor, the resume planner and the tests): (config, policy, suite,
/// part).
pub fn job_identity(spec: &JobSpec) -> (String, String, String, String) {
    (
        spec.config_name.clone(),
        spec.policy_name.clone(),
        spec.suite.name().to_owned(),
        spec.part.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_properties::Suite;

    fn sample_report() -> CampaignReport {
        CampaignReport {
            threads: 4,
            granularity: "suite".into(),
            total_wall_ms: 123,
            jobs: vec![
                JobResult {
                    job_id: 0,
                    config_name: "small".into(),
                    policy_name: "architectural".into(),
                    suite: "property-two".into(),
                    part: "suite".into(),
                    assertions: vec![
                        AssertionOutcome {
                            name: "survive_pc".into(),
                            holds: true,
                            vacuous: false,
                            constraints: 320,
                            wall_ms: 12,
                            failures: vec![],
                        },
                        AssertionOutcome {
                            name: "equivalence_add".into(),
                            holds: false,
                            vacuous: false,
                            constraints: 96,
                            wall_ms: 40,
                            failures: vec!["t=9 node `PC[2]`: expected 1, got 0".into()],
                        },
                    ],
                    holds: false,
                    bdd_nodes: 880,
                    peak_live_nodes: 700,
                    gc_passes: 2,
                    bdd_vars: 70,
                    ite_hits: 5400,
                    ite_misses: 600,
                    wall_ms: 52,
                    error: None,
                },
                JobResult {
                    job_id: 1,
                    config_name: "small".into(),
                    policy_name: "none".into(),
                    suite: "ifr".into(),
                    part: "#1".into(),
                    assertions: vec![],
                    holds: false,
                    bdd_nodes: 0,
                    peak_live_nodes: 0,
                    gc_passes: 0,
                    bdd_vars: 0,
                    ite_hits: 0,
                    ite_misses: 0,
                    wall_ms: 0,
                    error: Some("netlist generation failed".into()),
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample_report();
        let text = report.to_json();
        let parsed = CampaignReport::from_json(&text).expect("parses");
        assert_eq!(parsed, report);
    }

    /// The sample report with a `partitioning` key on every job, as
    /// reports were written while the checker had selectable strategies.
    fn with_partitioning_keys(text: &str, strategies: [&str; 2]) -> String {
        let [first, second] = strategies;
        text.replacen(
            "\"part\": \"suite\",",
            &format!("\"part\": \"suite\", \"partitioning\": \"{first}\","),
            1,
        )
        .replacen(
            "\"part\": \"#1\",",
            &format!("\"part\": \"#1\", \"partitioning\": \"{second}\","),
            1,
        )
    }

    #[test]
    fn pre_partitioning_reports_parse_with_the_default_strategy() {
        // Reports from before and during the partitioning layer both load
        // to the same strategy-less report: the key is ignored whatever
        // its value, and writing the report back drops it.
        let report = sample_report();
        let text = report.to_json();
        assert!(!text.contains("partitioning"));
        assert_eq!(CampaignReport::from_json(&text).expect("parses"), report);
        for strategies in [["monolithic", "conjunctive"], ["auto", "sideways"]] {
            let old = with_partitioning_keys(&text, strategies);
            assert_eq!(old.matches("\"partitioning\"").count(), 2);
            let parsed = CampaignReport::from_json(&old).expect("old report parses");
            assert_eq!(parsed, report);
            assert_eq!(parsed.to_json(), text);
        }
    }

    #[test]
    fn canonical_blanks_strategy_and_kernel_telemetry() {
        let mut a = sample_report();
        let mut b = sample_report();
        // Two runs that differ only in the kernel telemetry a maintenance
        // policy perturbs must be canonically byte-identical.
        a.jobs[0].peak_live_nodes = 9999;
        a.jobs[0].bdd_nodes = 12345;
        b.jobs[0].gc_passes = 7;
        b.jobs[0].ite_hits = 1;
        assert_eq!(a.canonical_json(), b.canonical_json());
        // So is a report written under a partitioning strategy.
        let old = with_partitioning_keys(&a.to_json(), ["monolithic", "conjunctive"]);
        let old = CampaignReport::from_json(&old).expect("old report parses");
        assert_eq!(old.canonical_json(), b.canonical_json());
        // Verdict content still distinguishes real changes.
        b.jobs[0].holds = true;
        assert_ne!(a.canonical_json(), b.canonical_json());
    }

    #[test]
    fn store_counters_round_trip_and_stay_out_of_storeless_reports() {
        // Reports written while the warm-start store existed carry
        // `store_hits`/`store_misses` on a job when nonzero.  They must
        // still load, and writing them back drops the counters: the result
        // is byte-identical to the store-less report.
        let cold = sample_report();
        let text = cold.to_json();
        assert!(!text.contains("store_"));
        let warm = text
            .replacen(
                "\"ite_misses\": 600,",
                "\"ite_misses\": 600, \"store_hits\": 1,",
                1,
            )
            .replacen(
                "\"ite_misses\": 0,",
                "\"ite_misses\": 0, \"store_misses\": 1,",
                1,
            );
        assert!(warm.contains("\"store_hits\": 1") && warm.contains("\"store_misses\": 1"));
        let parsed = CampaignReport::from_json(&warm).expect("store-era report parses");
        assert_eq!(parsed, cold);
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn json_rejects_wrong_schema() {
        assert!(CampaignReport::from_json("{\"schema\":\"bogus/v9\"}").is_err());
        assert!(CampaignReport::from_json("not json").is_err());
    }

    #[test]
    fn table_reports_failures_and_errors() {
        let table = sample_report().render_table();
        assert!(table.contains("FAILED `equivalence_add`"));
        assert!(table.contains("ERROR: netlist generation failed"));
        assert!(table.contains("1/2 assertions hold"));
    }

    #[test]
    fn budget_errors_render_as_budget_not_error() {
        let mut report = sample_report();
        report.jobs[1].error = Some("budget_nodes: live-node budget exhausted (limit 4096)".into());
        assert!(report.jobs[1].budget_limited());
        assert!(!report.jobs[0].budget_limited());
        let table = report.render_table();
        assert!(table.contains("BUDGET"));
        assert!(table.contains("job 1: BUDGET: budget_nodes:"));
        // Budget-limited jobs still fail the campaign's overall verdict.
        assert!(!report.all_hold());
    }

    #[test]
    fn empty_reports_do_not_vacuously_hold() {
        let report = CampaignReport {
            threads: 1,
            granularity: "suite".into(),
            jobs: vec![],
            total_wall_ms: 0,
        };
        assert!(
            !report.all_hold(),
            "an oracle must not accept a policy it never examined"
        );
    }

    #[test]
    fn suite_names_parse_back() {
        let report = sample_report();
        assert_eq!(
            Suite::parse(&report.jobs[0].suite),
            Some(Suite::PropertyTwo)
        );
        assert_eq!(Suite::parse(&report.jobs[1].suite), Some(Suite::Ifr));
    }
}
