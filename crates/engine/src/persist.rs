//! Campaign persistence: the incremental checkpoint journal and the
//! partial-report loader behind `ssr campaign --resume`.
//!
//! A campaign that dies halfway — OOM-killed worker, ^C, power loss on a
//! long paper-sized run — must not throw away the verdicts it already
//! earned.  The engine therefore appends every finished [`JobResult`] to a
//! *checkpoint journal* as workers complete (schema [`JOURNAL_SCHEMA`]):
//! one header line naming the campaign shape, then one compact JSON object
//! per job result.  Append-plus-flush per line means an interruption at any
//! instant leaves at worst one torn trailing line, which the loader
//! tolerates and drops.
//!
//! [`load_partial`] reads either format back — a complete
//! `ssr-campaign-report/v1` document or a (possibly truncated) journal —
//! and [`plan_resume`] matches the recorded results against a fresh
//! deterministic job enumeration.  Matching validates the full job
//! *identity* (config, policy, suite and part at the recorded id),
//! not just the index, so a resume file from a different campaign shape can
//! never silently stand in for work that was not done: mismatches are
//! counted as stale and re-run.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::job::JobSpec;
use crate::json::Json;
use crate::report::{job_identity, CampaignReport, JobResult};

/// Schema identifier on the first line of every checkpoint journal.
pub const JOURNAL_SCHEMA: &str = "ssr-campaign-journal/v1";

/// Where journal appends land.
///
/// Every durable unit — the header line, then one line per job result —
/// goes through exactly one [`RecordSink::append`] call, so an append
/// boundary *is* a checkpoint boundary.  Production uses [`FileSink`]
/// (write-all + flush); the fault-injection harness substitutes
/// [`FaultySink`] to model a process dying at any chosen boundary.
trait RecordSink: Send + std::fmt::Debug {
    /// Writes one complete record (newline included) and flushes it.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;
}

/// The production sink: a plain file, flushed per record.
#[derive(Debug)]
struct FileSink(std::fs::File);

impl RecordSink for FileSink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.0.write_all(bytes)?;
        self.0.flush()
    }
}

/// How an injected journal fault manifests at its append boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The append fails after a `keep`-byte prefix reaches the file: a
    /// power loss mid-`write`.  The caller sees the error.
    Torn(usize),
    /// The append *reports success* but only a `keep`-byte prefix reaches
    /// the file: a lost page cache flush.  The caller believes the record
    /// is durable — the nastiest case, because nothing downstream is told.
    Short(usize),
    /// The append fails cleanly before any byte lands (`ENOSPC`, a yanked
    /// volume).
    Error,
}

/// A deterministic plan for where and how one journal append fails.
///
/// The plan fires once, at `boundary` (the header is boundary 0, job
/// record `i` is boundary `i + 1`); every append after the faulted one
/// also fails, modelling the process being dead from that instant on.
/// Threaded into [`Checkpoint::create_with_faults`], it lets tests prove
/// that `--resume` recovers from a kill at *every* checkpoint boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Zero-based append boundary at which the fault fires.
    pub boundary: usize,
    /// What happens at that boundary.
    pub fault: Fault,
}

impl FaultPlan {
    /// A plan that fires `fault` at the given append boundary.
    pub fn kill_at(boundary: usize, fault: Fault) -> Self {
        FaultPlan { boundary, fault }
    }

    /// Draws a plan from a seeded generator: the boundary is uniform in
    /// `[0, boundaries)` and the fault kind and torn-prefix length come
    /// from the same stream, so a failing sweep case is reproducible from
    /// its seed alone.
    pub fn seeded(seed: u64, boundaries: usize) -> Self {
        let mut rng = ssr_prop::Rng::new(seed);
        let boundary = rng.index(boundaries.max(1));
        // Journal lines run a few hundred bytes; a prefix in [0, 160)
        // exercises empty, sub-header and mid-record tears alike.
        let keep = rng.below(160) as usize;
        let fault = match rng.below(3) {
            0 => Fault::Torn(keep),
            1 => Fault::Short(keep),
            _ => Fault::Error,
        };
        FaultPlan { boundary, fault }
    }
}

fn injected(what: &str) -> std::io::Error {
    std::io::Error::other(format!("fault injection: {what}"))
}

/// A file sink that executes a [`FaultPlan`]: appends before the planned
/// boundary succeed normally, the planned append fails as specified, and
/// everything after it fails immediately (the process is "dead").
#[derive(Debug)]
struct FaultySink {
    file: std::fs::File,
    plan: FaultPlan,
    boundary: usize,
    dead: bool,
}

impl RecordSink for FaultySink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if self.dead {
            return Err(injected("process already dead"));
        }
        let here = self.boundary;
        self.boundary += 1;
        if here != self.plan.boundary {
            self.file.write_all(bytes)?;
            return self.file.flush();
        }
        self.dead = true;
        match self.plan.fault {
            Fault::Error => Err(injected("append refused before any byte landed")),
            Fault::Torn(keep) | Fault::Short(keep) => {
                // Strictly shorter than the record: a fault that lands the
                // whole line would not be a fault at all.
                let keep = keep.min(bytes.len().saturating_sub(1));
                self.file.write_all(&bytes[..keep])?;
                self.file.flush()?;
                match self.plan.fault {
                    Fault::Short(_) => Ok(()),
                    _ => Err(injected("write torn mid-record")),
                }
            }
        }
    }
}

/// An append-only journal of finished job results.
///
/// Created (truncating) before the campaign starts; [`Checkpoint::record`]
/// is called from worker threads as each job completes, in completion
/// order.  Every record is flushed immediately so the file is loadable the
/// instant the process dies.
#[derive(Debug)]
pub struct Checkpoint {
    sink: Mutex<Box<dyn RecordSink>>,
    path: PathBuf,
}

impl Checkpoint {
    /// Creates (or truncates) the journal at `path` and writes the header
    /// line describing the campaign shape.
    ///
    /// # Errors
    /// Propagates the I/O error if the file cannot be created or written.
    pub fn create(path: &Path, granularity: &str, total_jobs: usize) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Checkpoint::with_sink(Box::new(FileSink(file)), path, granularity, total_jobs)
    }

    /// [`Checkpoint::create`], but every append goes through a
    /// [`FaultPlan`]-driven sink.  This is the deterministic
    /// fault-injection harness: a plan whose boundary is 0 makes even the
    /// header write fail (this constructor then returns the injected
    /// error, exactly as a real `ENOSPC` at creation would).
    ///
    /// # Errors
    /// Propagates real I/O errors and the planned fault when it fires on
    /// the header append.
    pub fn create_with_faults(
        path: &Path,
        granularity: &str,
        total_jobs: usize,
        plan: FaultPlan,
    ) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        let sink = FaultySink {
            file,
            plan,
            boundary: 0,
            dead: false,
        };
        Checkpoint::with_sink(Box::new(sink), path, granularity, total_jobs)
    }

    fn with_sink(
        mut sink: Box<dyn RecordSink>,
        path: &Path,
        granularity: &str,
        total_jobs: usize,
    ) -> std::io::Result<Self> {
        let header = Json::obj([
            ("schema", Json::Str(JOURNAL_SCHEMA.into())),
            ("granularity", Json::Str(granularity.to_owned())),
            ("total_jobs", Json::Num(total_jobs as f64)),
        ]);
        let mut line = header.render();
        line.push('\n');
        sink.append(line.as_bytes())?;
        Ok(Checkpoint {
            sink: Mutex::new(sink),
            path: path.to_owned(),
        })
    }

    /// Appends one finished job result as a single compact JSON line and
    /// flushes it.
    ///
    /// # Errors
    /// Propagates the I/O error; the campaign treats checkpointing as
    /// best-effort and keeps running.
    pub fn record(&self, result: &JobResult) -> std::io::Result<()> {
        let mut line = result.to_json().render();
        line.push('\n');
        // A panic can never happen while the lock is held (rendering is done
        // above), but recover from poisoning anyway: losing the journal
        // because one worker died is exactly what this module exists to
        // prevent.
        let mut sink = match self.sink.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        sink.append(line.as_bytes())
    }

    /// The journal's path (for user-facing messages and cleanup).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Recorded results loaded from a resume file, with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialCampaign {
    /// Granularity the file recorded, if any (journals and reports both
    /// carry it).
    pub granularity: Option<String>,
    /// Worker count, when loaded from a complete report.
    pub threads: Option<u64>,
    /// Campaign wall time, when loaded from a complete report.
    pub total_wall_ms: Option<u64>,
    /// The recorded job results, in file order.
    pub jobs: Vec<JobResult>,
    /// `true` when the file was a complete `ssr-campaign-report/v1`
    /// document rather than a journal.
    pub complete_report: bool,
    /// `true` when the journal's final line was torn mid-write (the
    /// interruption case) and dropped.
    pub truncated_tail: bool,
}

impl PartialCampaign {
    /// Wraps the recorded results as a [`CampaignReport`] (zero-filled
    /// execution metadata when the source was a journal) so report-level
    /// consumers — `ssr diff` above all — accept either format.
    pub fn into_report(self) -> CampaignReport {
        CampaignReport {
            threads: self.threads.unwrap_or(0),
            granularity: self.granularity.unwrap_or_else(|| "suite".to_owned()),
            jobs: self.jobs,
            total_wall_ms: self.total_wall_ms.unwrap_or(0),
        }
    }
}

/// Loads recorded job results from `text`: either a complete
/// `ssr-campaign-report/v1` document or a [`JOURNAL_SCHEMA`] checkpoint
/// journal (whose torn final line, if any, is dropped).
///
/// # Errors
/// Returns a human-readable message for unreadable documents; a journal
/// with a corrupt line *before* the final one is rejected rather than
/// silently skipped, because that means lost records, not interruption.
pub fn load_partial(text: &str) -> Result<PartialCampaign, String> {
    let first_line = text.lines().next().unwrap_or("");
    let is_journal = Json::parse(first_line)
        .ok()
        .and_then(|header| {
            header
                .get("schema")
                .and_then(Json::as_str)
                .map(|s| s == JOURNAL_SCHEMA)
        })
        .unwrap_or(false);
    if !is_journal {
        let report = CampaignReport::from_json(text)?;
        return Ok(PartialCampaign {
            granularity: Some(report.granularity),
            threads: Some(report.threads),
            total_wall_ms: Some(report.total_wall_ms),
            jobs: report.jobs,
            complete_report: true,
            truncated_tail: false,
        });
    }

    let header = Json::parse(first_line).expect("sniffed as a journal header");
    let granularity = header
        .get("granularity")
        .and_then(Json::as_str)
        .map(str::to_owned);
    // A `reorder` key (written while the kernel could sift) is ignored.
    // Keep the 1-based file line number with each record so corruption
    // reports point at the real line even when the file has blank lines.
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .skip(1)
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| (i + 1, l))
        .collect();
    let mut jobs = Vec::with_capacity(lines.len());
    let mut truncated_tail = false;
    for (i, (line_no, line)) in lines.iter().enumerate() {
        let parsed = Json::parse(line).map_err(|e| e.to_string());
        match parsed.and_then(|v| JobResult::from_json(&v)) {
            Ok(result) => jobs.push(result),
            Err(message) if i + 1 == lines.len() => {
                // The final line of an interrupted journal may be torn
                // mid-write; dropping it loses nothing that was durably
                // recorded.
                truncated_tail = true;
                let _ = message;
            }
            Err(message) => {
                return Err(format!(
                    "journal line {line_no} is corrupt (not the torn tail of \
                     an interrupted run): {message}"
                ));
            }
        }
    }
    Ok(PartialCampaign {
        granularity,
        threads: None,
        total_wall_ms: None,
        jobs,
        complete_report: false,
        truncated_tail,
    })
}

/// How a prior partial run maps onto a fresh job enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumePlan {
    /// `(enumeration index, recorded result)` for every prior result whose
    /// identity matched; ascending by index, one entry per job (the last
    /// record wins if a file somehow carries duplicates).
    pub reused: Vec<(usize, JobResult)>,
    /// Prior results whose id or identity did not match any enumerated
    /// job — from a different campaign shape, or tampered with.  They are
    /// ignored and the jobs re-run.
    pub stale: usize,
    /// Enumeration indices still to run, ascending.
    pub pending: Vec<usize>,
}

impl ResumePlan {
    /// `true` when nothing is left to run.
    pub fn complete(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Matches `prior` results against the deterministic enumeration `jobs`.
///
/// A recorded result is reused only when the job at its recorded id exists
/// *and* carries the same (config, policy, suite, part) identity —
/// resuming validates what the work was, not merely where it sat in the
/// list.
pub fn plan_resume(jobs: &[JobSpec], prior: &[JobResult]) -> ResumePlan {
    let mut reused: std::collections::BTreeMap<usize, JobResult> =
        std::collections::BTreeMap::new();
    let mut stale = 0usize;
    for result in prior {
        let index = result.job_id as usize;
        let matches = jobs.get(index).is_some_and(|spec| {
            job_identity(spec)
                == (
                    result.config_name.clone(),
                    result.policy_name.clone(),
                    result.suite.clone(),
                    result.part.clone(),
                )
        });
        if matches {
            reused.insert(index, result.clone());
        } else {
            stale += 1;
        }
    }
    let pending = (0..jobs.len())
        .filter(|i| !reused.contains_key(i))
        .collect();
    ResumePlan {
        reused: reused.into_iter().collect(),
        stale,
        pending,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{enumerate_jobs, policy_by_name, Granularity, NamedConfig};
    use ssr_properties::Suite;

    fn sample_result(id: u64, policy: &str, part: &str) -> JobResult {
        JobResult {
            job_id: id,
            config_name: "small".into(),
            policy_name: policy.into(),
            suite: "property-two".into(),
            part: part.into(),
            assertions: vec![],
            holds: true,
            bdd_nodes: 10,
            peak_live_nodes: 10,
            gc_passes: 0,
            bdd_vars: 4,
            ite_hits: 7,
            ite_misses: 3,
            wall_ms: 5,
            error: None,
        }
    }

    fn unique_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ssr-persist-{}-{tag}.journal", std::process::id()))
    }

    #[test]
    fn journal_round_trips_through_the_filesystem() {
        let path = unique_path("roundtrip");
        let cp = Checkpoint::create(&path, "suite", 2).expect("creates");
        let a = sample_result(0, "architectural", "suite");
        let b = sample_result(1, "none", "suite");
        cp.record(&a).expect("records");
        cp.record(&b).expect("records");
        let text = std::fs::read_to_string(cp.path()).expect("readable");
        let partial = load_partial(&text).expect("loads");
        assert!(!partial.complete_report);
        assert!(!partial.truncated_tail);
        assert_eq!(partial.granularity.as_deref(), Some("suite"));
        assert_eq!(partial.jobs, vec![a, b]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_torn_final_line_is_dropped_not_fatal() {
        let path = unique_path("torn");
        let cp = Checkpoint::create(&path, "suite", 2).expect("creates");
        cp.record(&sample_result(0, "architectural", "suite"))
            .expect("records");
        cp.record(&sample_result(1, "none", "suite"))
            .expect("records");
        let mut text = std::fs::read_to_string(&path).expect("readable");
        // Simulate a kill mid-write: chop the last record in half.
        text.truncate(text.len() - 25);
        let partial = load_partial(&text).expect("loads despite the torn tail");
        assert!(partial.truncated_tail);
        assert_eq!(partial.jobs.len(), 1);
        assert_eq!(partial.jobs[0].job_id, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_corrupt_middle_line_is_rejected() {
        let header = Json::obj([
            ("schema", Json::Str(JOURNAL_SCHEMA.into())),
            ("granularity", Json::Str("suite".into())),
            ("total_jobs", Json::Num(2.0)),
        ])
        .render();
        let good = sample_result(1, "none", "suite").to_json().render();
        let text = format!("{header}\n{{half a rec\n{good}\n");
        let err = load_partial(&text).expect_err("mid-journal corruption is data loss");
        assert!(err.contains("line 2"), "{err}");
        // Blank lines must not skew the reported line number.
        let text = format!("{header}\n\n{{half a rec\n{good}\n");
        let err = load_partial(&text).expect_err("still data loss");
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn complete_reports_load_as_partial_campaigns() {
        let report = CampaignReport {
            threads: 4,
            granularity: "assertion".into(),
            jobs: vec![sample_result(0, "architectural", "#0")],
            total_wall_ms: 99,
        };
        let partial = load_partial(&report.to_json()).expect("loads");
        assert!(partial.complete_report);
        assert_eq!(partial.threads, Some(4));
        assert_eq!(partial.total_wall_ms, Some(99));
        assert_eq!(partial.jobs, report.jobs);
        assert_eq!(partial.into_report(), report);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(load_partial("not json at all").is_err());
        assert!(load_partial("{\"schema\":\"bogus/v9\"}").is_err());
    }

    #[test]
    fn resume_plan_validates_identity_not_just_index() {
        let jobs = enumerate_jobs(
            &[NamedConfig::small()],
            &[
                policy_by_name("architectural").expect("named"),
                policy_by_name("none").expect("named"),
            ],
            &[Suite::PropertyTwo],
            Granularity::Suite,
        );
        assert_eq!(jobs.len(), 2);

        // A matching record is reused.
        let good = sample_result(0, "architectural", "suite");
        // Same index, different identity: the job list says id 1 is the
        // `none` policy — a record claiming otherwise is stale.
        let tampered = sample_result(1, "architectural", "suite");
        // Out-of-range ids can never match.
        let out_of_range = sample_result(7, "none", "suite");

        let plan = plan_resume(&jobs, &[good.clone(), tampered, out_of_range]);
        assert_eq!(plan.reused, vec![(0, good)]);
        assert_eq!(plan.stale, 2);
        assert_eq!(plan.pending, vec![1]);
        assert!(!plan.complete());
    }

    #[test]
    fn resume_plan_of_a_complete_run_has_nothing_pending() {
        let jobs = enumerate_jobs(
            &[NamedConfig::small()],
            &[policy_by_name("none").expect("named")],
            &[Suite::PropertyTwo],
            Granularity::Suite,
        );
        let plan = plan_resume(&jobs, &[sample_result(0, "none", "suite")]);
        assert!(plan.complete());
        assert_eq!(plan.stale, 0);
    }

    /// Runs a 4-record journal through a faulty sink and returns what a
    /// resume would see: the loader's recovered records (empty when even
    /// the header is unreadable — a resume then degenerates to a full
    /// re-run, which is still "surviving").
    fn surviving_records(plan: FaultPlan, tag: &str) -> (Vec<JobResult>, bool) {
        let records: Vec<JobResult> = (0..4)
            .map(|i| {
                sample_result(
                    i,
                    if i % 2 == 0 { "architectural" } else { "none" },
                    "suite",
                )
            })
            .collect();
        let path = unique_path(tag);
        match Checkpoint::create_with_faults(&path, "suite", records.len(), plan) {
            Ok(cp) => {
                for r in &records {
                    // The campaign treats checkpointing as best-effort;
                    // mirror that and keep appending after a failure.
                    let _ = cp.record(r);
                }
            }
            Err(_) => {
                // Header append faulted: the campaign would run
                // un-checkpointed, leaving whatever prefix hit the disk.
            }
        }
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        std::fs::remove_file(&path).ok();
        match load_partial(&text) {
            Ok(partial) => {
                assert_eq!(partial.jobs, records[..partial.jobs.len()], "{plan:?}");
                (partial.jobs, true)
            }
            Err(_) => (Vec::new(), false),
        }
    }

    #[test]
    fn every_fault_kind_at_every_boundary_leaves_a_resumable_journal() {
        // Boundary 0 is the header; boundaries 1..=4 are the records.
        for boundary in 0..=4usize {
            for fault in [
                Fault::Torn(0),
                Fault::Torn(19),
                Fault::Torn(usize::MAX),
                Fault::Short(0),
                Fault::Short(19),
                Fault::Error,
            ] {
                let plan = FaultPlan::kill_at(boundary, fault);
                let (jobs, loaded) = surviving_records(plan, &format!("fault-{boundary}"));
                // A tear clamped to `len - 1` keeps the whole line body
                // and loses only the newline — the record is genuinely
                // durable and the loader rightly recovers it.
                let kept_whole_body = fault == Fault::Torn(usize::MAX);
                if boundary == 0 {
                    // A torn or missing header is not a journal at all;
                    // the loader refuses and resume re-runs everything.
                    assert_eq!(loaded, kept_whole_body, "{plan:?}");
                    assert!(jobs.is_empty());
                } else {
                    // Every record durably appended before the kill point
                    // survives; the faulted record itself is the at-most-
                    // one torn tail the loader is specified to drop.
                    assert!(loaded, "{plan:?}");
                    let expect = boundary - 1 + usize::from(kept_whole_body);
                    assert_eq!(jobs.len(), expect, "{plan:?}");
                }
            }
        }
    }

    #[test]
    fn seeded_fault_plans_are_deterministic_and_loadable() {
        assert_eq!(FaultPlan::seeded(7, 5), FaultPlan::seeded(7, 5));
        // A seeded sweep: whatever the plan, the journal that remains is a
        // loadable prefix (or an unreadable header, which resume treats as
        // "start over").  `surviving_records` asserts prefix-ness inside.
        ssr_prop::check("faulted journals load as prefixes", 48, 0xFA17, |rng| {
            let plan = FaultPlan::seeded(rng.next_u64(), 5);
            surviving_records(plan, "seeded");
        });
    }

    #[test]
    fn granularity_mismatch_reruns_everything() {
        // A suite-granularity journal resumed at assertion granularity must
        // match nothing: the part identities differ (`suite` vs `#i`).
        let jobs = enumerate_jobs(
            &[NamedConfig::small()],
            &[policy_by_name("none").expect("named")],
            &[Suite::PropertyTwo],
            Granularity::Assertion,
        );
        let plan = plan_resume(&jobs, &[sample_result(0, "none", "suite")]);
        assert!(plan.reused.is_empty());
        assert_eq!(plan.stale, 1);
        assert_eq!(plan.pending.len(), jobs.len());
    }
}
