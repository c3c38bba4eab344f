//! The campaign executor: a scoped worker pool that drains the job queue.
//!
//! Two layers of reuse keep per-job overhead off the hot path:
//!
//! * **Shared compilation.**  Pending jobs with the same (config × policy)
//!   share one [`Arc`]ed [`CoreHarness`] — the netlist is generated and the
//!   model compiled once per combination, not once per assertion job, by
//!   the first worker that needs it.  Each pending job holds the handle
//!   only until it completes, so a harness is freed when the last job of
//!   its combination finishes; jobs a resume reuses or a limit cuts hold
//!   none and build none.
//! * **Recycled arenas.**  Each worker leases one [`BddManager`] from the
//!   process-wide [`ManagerPool`] and `reset()`s it between jobs: arenas are
//!   single-threaded by construction, never cross a thread boundary, and
//!   never pay cold allocation twice.  A reset manager reproduces a fresh
//!   manager's handles and statistics exactly, so pooling cannot perturb
//!   results.
//!
//! Workers pull jobs from a shared atomic cursor (work stealing degenerates
//! to a single fetch-add because jobs are independent), write results into
//! their job's slot, and the report therefore comes out in enumeration order
//! no matter how the pool interleaved the work.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ssr_bdd::{BddError, BddManager, MaintainSettings, OrderPolicy};
use ssr_properties::{CoreHarness, Suite};
use ssr_ste::CheckReport;

use crate::job::{
    enumerate_jobs, Granularity, JobBudget, JobPart, JobSpec, NamedConfig, NamedPolicy,
};
use crate::persist::{plan_resume, Checkpoint};
use crate::pool::ManagerPool;
use crate::report::{AssertionOutcome, CampaignReport, JobResult};

/// Why a shared harness could not be built: the structured form of the
/// error record every job of the failed (config × policy) combination
/// carries.  Server-side consumers (the `ssr-serve` daemon) map the
/// variants onto protocol error responses instead of parsing strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// Netlist generation or model compilation rejected the configuration.
    Generation(String),
    /// The builder panicked (the payload's message is captured).
    Panicked(String),
}

impl HarnessError {
    /// Stable machine-readable discriminant (`generation` / `panicked`),
    /// used as the protocol error code by the serving layer.
    pub fn code(&self) -> &'static str {
        match self {
            HarnessError::Generation(_) => "generation",
            HarnessError::Panicked(_) => "panicked",
        }
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Keep the historical report strings byte-identical: resumed
        // pre-PR journals must still match fresh error records.
        match self {
            HarnessError::Generation(e) => write!(f, "netlist generation failed: {e}"),
            HarnessError::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for HarnessError {}

/// A shared, cloneable cancellation flag.
///
/// The serving daemon hands one to every accepted request: `cancel()` is
/// called from the connection thread, the campaign workers observe it
/// between jobs, and after `cancel()` returns no *new* job of that
/// campaign starts (the at-most-one job already past its admission check
/// may still complete — cancellation never tears a job mid-check, so the
/// partial report and its journal stay well-formed and resumable).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation.  Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Observation hooks a [`CampaignSpec::run_with_hooks`] caller can attach:
/// the serving scheduler streams each completion to its client and wires
/// request cancellation through these, and the CLI could drive progress
/// bars the same way.
#[derive(Default, Clone, Copy)]
pub struct RunHooks<'a> {
    /// Checked before each pending job is admitted; once cancelled, workers
    /// stop pulling work and the run returns the partial report.
    pub cancel: Option<&'a CancelToken>,
    /// Called once per completed job, in completion order (reused resume
    /// results first, then fresh completions as workers finish).  Called
    /// from worker threads; must be `Sync`.
    pub on_job: Option<&'a (dyn Fn(&JobResult) + Sync)>,
}

impl std::fmt::Debug for RunHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHooks")
            .field("cancel", &self.cancel.map(CancelToken::is_cancelled))
            .field("on_job", &self.on_job.is_some())
            .finish()
    }
}

/// The immutable compilation shared by every job of one (config × policy)
/// combination: the generated-and-compiled harness, or the error/panic that
/// prevented it (each referencing job reports the same error record).
///
/// Compilation is lazy (`OnceLock`): the first worker that needs a
/// combination builds it, workers needing *different* combinations compile
/// in parallel, and workers needing the same one block on the single build.
/// `SharedHarness::build` is deterministic per configuration, so build
/// order cannot perturb results.  A campaign drops a combination's harness
/// once the last of its jobs completes.
#[derive(Debug)]
pub struct SharedHarness {
    config: ssr_cpu::CoreConfig,
    cell: std::sync::OnceLock<Result<CoreHarness, HarnessError>>,
}

impl SharedHarness {
    /// Creates an uncompiled context for `config` (cheap; nothing is
    /// generated until [`SharedHarness::get`]).
    pub fn new(config: ssr_cpu::CoreConfig) -> Self {
        SharedHarness {
            config,
            cell: std::sync::OnceLock::new(),
        }
    }

    /// Eagerly builds the harness for `config`, capturing generation errors
    /// and panics as the error record every referencing job will carry.
    /// `_order` is ignored; it stays only because `ssrbench` passes it.
    pub fn build(config: ssr_cpu::CoreConfig, _order: OrderPolicy) -> Self {
        let ctx = Self::new(config);
        let _ = ctx.get();
        ctx
    }

    /// The compiled harness — built on first call — or the structured
    /// error to report.
    pub fn get(&self) -> Result<&CoreHarness, &HarnessError> {
        self.cell
            .get_or_init(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    CoreHarness::new(self.config)
                }))
                .map_err(|payload| HarnessError::Panicked(panic_message(&payload)))
                .and_then(|r| r.map_err(|e| HarnessError::Generation(format!("{e:?}"))))
            })
            .as_ref()
    }
}

/// A job a campaign still has to run: its position in the enumeration
/// and, until a worker claims it, its combination's harness.
struct PendingJob {
    index: usize,
    harness: Mutex<Option<Arc<SharedHarness>>>,
}

impl PendingJob {
    /// Takes the job's harness handle; the claiming worker drops it once
    /// the job completes.
    fn claim(&self) -> Arc<SharedHarness> {
        self.harness
            .lock()
            .expect("pending job poisoned")
            .take()
            .expect("a pending job is claimed once")
    }
}

/// The jobs at `pending` (positions in `jobs`), each with a handle on its
/// combination's harness, deduplicated by the full configuration (the
/// retention policy is already folded in by the enumeration): jobs of the
/// same combination get clones of one `Arc`.  Harnesses are created
/// uncompiled; workers trigger the (per-combination, once-only) build.
/// Jobs not in `pending` get no handle, so their harness is never built.
fn pending_jobs(jobs: &[JobSpec], pending: &[usize]) -> Vec<PendingJob> {
    let mut built: Vec<(ssr_cpu::CoreConfig, Arc<SharedHarness>)> = Vec::new();
    pending
        .iter()
        .map(|&index| {
            let config = jobs[index].config;
            let harness = match built.iter().find(|(c, _)| *c == config) {
                Some((_, harness)) => Arc::clone(harness),
                None => {
                    let harness = Arc::new(SharedHarness::new(config));
                    built.push((config, Arc::clone(&harness)));
                    harness
                }
            };
            PendingJob {
                index,
                harness: Mutex::new(Some(harness)),
            }
        })
        .collect()
}

/// A campaign specification: the (configs × policies × suites) product plus
/// execution parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Core configurations to generate (retention overwritten per policy).
    pub configs: Vec<NamedConfig>,
    /// Retention policies to cross in.
    pub policies: Vec<NamedPolicy>,
    /// Property suites to check.
    pub suites: Vec<Suite>,
    /// Job granularity.
    pub granularity: Granularity,
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Per-job resource ceilings (node/step/deadline); the default is
    /// ungoverned.  Like `threads`, an execution parameter: it can turn a
    /// verdict into a structured `budget_*` error record, but never flips
    /// holds ↔ fails, and it is not part of job identity.
    pub budget: JobBudget,
    /// Stream a line to stderr as each job finishes (progress feedback for
    /// long campaigns).
    pub verbose: bool,
}

impl CampaignSpec {
    /// A campaign over the small test core: all named policies × all
    /// suites, suite granularity, auto thread count.
    pub fn small_all() -> Self {
        CampaignSpec {
            configs: vec![NamedConfig::small()],
            policies: crate::job::named_policies(),
            suites: Suite::ALL.to_vec(),
            granularity: Granularity::Suite,
            threads: 0,
            budget: JobBudget::default(),
            verbose: false,
        }
    }

    /// The jobs this campaign expands to, in deterministic order.
    pub fn jobs(&self) -> Vec<JobSpec> {
        enumerate_jobs(
            &self.configs,
            &self.policies,
            &self.suites,
            self.granularity,
        )
    }

    /// Number of distinct (config × policy × suite) combinations the
    /// enumeration dropped as inapplicable.  Derived from
    /// [`CampaignSpec::jobs`] itself so it can never drift from the
    /// enumeration's skip rule; duplicate list entries (the CLI allows
    /// repeating a policy or suite) count once.
    pub fn skipped_combinations(&self) -> usize {
        let mut requested = std::collections::BTreeSet::new();
        for config in &self.configs {
            for policy in &self.policies {
                for &suite in &self.suites {
                    requested.insert((config.name.clone(), policy.name.clone(), suite));
                }
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for job in self.jobs() {
            seen.insert((job.config_name, job.policy_name, job.suite));
        }
        requested.len() - seen.len()
    }

    /// The worker count the pool will actually use for `job_count` jobs.
    pub fn effective_threads(&self, job_count: usize) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let requested = if self.threads == 0 { hw } else { self.threads };
        requested.clamp(1, job_count.max(1))
    }

    /// Runs the campaign and collects the report.
    pub fn run(&self) -> CampaignReport {
        self.run_with(&[], None, None)
    }

    /// Runs the campaign, resuming from `prior` results, optionally
    /// checkpointing to `checkpoint` and stopping after `limit` fresh job
    /// completions.
    ///
    /// * `prior` — recorded results from an earlier (partial) run of the
    ///   same campaign.  Each is reused — not re-run — iff the job at its
    ///   recorded id carries the same (config, policy, suite, part)
    ///   identity; mismatches are ignored and re-run.  Because job
    ///   execution is deterministic, the merged report's
    ///   [`CampaignReport::canonical_json`] is byte-identical to an
    ///   uninterrupted run's when `prior` came from this binary.  Identity
    ///   ignores the `order` key that older binaries recorded, so a result
    ///   written under a non-interleaved `--order` is reused with that
    ///   order's counterexample witnesses (same verdicts): on the
    ///   small-core product, 22 of the 33 failing assertions then name
    ///   other failing bits than a fresh run.
    /// * `checkpoint` — a journal that receives every result (reused ones
    ///   up front, fresh ones as workers finish), so the run is resumable
    ///   from the instant it dies.  Journal I/O errors are reported to
    ///   stderr but never abort the campaign.
    /// * `limit` — run at most this many *pending* jobs, leaving the rest
    ///   unvisited (interruption simulation for tests and smoke runs); the
    ///   report then contains only the completed jobs.
    pub fn run_with(
        &self,
        prior: &[JobResult],
        checkpoint: Option<&Checkpoint>,
        limit: Option<usize>,
    ) -> CampaignReport {
        self.run_with_hooks(prior, checkpoint, limit, RunHooks::default())
    }

    /// [`CampaignSpec::run_with`] plus observation hooks: a cancellation
    /// token checked before each job is admitted, and a per-completion
    /// callback invoked as each result lands (the serving daemon's
    /// streaming path).  A cancelled run returns the partial report of the
    /// jobs that completed — same shape as a `limit`-interrupted run, so
    /// the journal resumes identically.
    pub fn run_with_hooks(
        &self,
        prior: &[JobResult],
        checkpoint: Option<&Checkpoint>,
        limit: Option<usize>,
        hooks: RunHooks<'_>,
    ) -> CampaignReport {
        let jobs = self.jobs();
        let started = Instant::now();
        // Budget exhaustion unwinds with a typed payload that the workers
        // catch; keep the default hook from spraying "thread panicked"
        // noise for those fully-handled unwinds.
        quiet_budget_unwinds();

        let plan = plan_resume(&jobs, prior);
        let mut pending = plan.pending;
        if let Some(limit) = limit {
            pending.truncate(limit);
        }
        let pending = pending_jobs(&jobs, &pending);
        let threads = self.effective_threads(pending.len());

        let slots: Vec<Mutex<Option<JobResult>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        for (index, result) in plan.reused {
            record_checkpoint(checkpoint, &result);
            if let Some(on_job) = hooks.on_job {
                on_job(&result);
            }
            *slots[index].lock().expect("result slot poisoned") = Some(result);
        }
        self.run_pending(&jobs, &pending, threads, &slots, checkpoint, hooks);

        CampaignReport {
            threads: threads as u64,
            granularity: self.granularity.name().to_owned(),
            // With a `limit`, unvisited slots stay empty and the report is
            // partial (job ids keep their enumeration values, so a later
            // resume still validates identities).
            jobs: slots
                .into_iter()
                .filter_map(|slot| slot.into_inner().expect("result slot poisoned"))
                .collect(),
            total_wall_ms: started.elapsed().as_millis() as u64,
        }
    }

    /// Runs `pending` on `threads` workers, storing each result in its
    /// job's slot.  A worker holds a job's harness handle from the moment
    /// it claims the job until the job completes, and drops it before
    /// reporting the result.
    fn run_pending(
        &self,
        jobs: &[JobSpec],
        pending: &[PendingJob],
        threads: usize,
        slots: &[Mutex<Option<JobResult>>],
        checkpoint: Option<&Checkpoint>,
        hooks: RunHooks<'_>,
    ) {
        let pool = ManagerPool::global();
        let cursor = AtomicUsize::new(0);
        let worker = || {
            // One leased arena per worker, reset between jobs.
            let mut manager = pool.acquire();
            loop {
                // Admission check: a cancelled campaign stops
                // pulling work.  Checked before the cursor moves so
                // a cancelled run never claims a job it won't run.
                if hooks.cancel.is_some_and(CancelToken::is_cancelled) {
                    break;
                }
                let at = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = pending.get(at) else { break };
                let (index, harness) = (job.index, job.claim());
                let spec = &jobs[index];
                if self.verbose {
                    eprintln!(
                        "[job {}/{}] start {} {} {} {}",
                        spec.id + 1,
                        jobs.len(),
                        spec.config_name,
                        spec.policy_name,
                        spec.suite.name(),
                        spec.part.render(),
                    );
                }
                let (result, exhausted) =
                    run_governed(spec, harness.get(), &mut manager, self.budget);
                drop(harness);
                if exhausted {
                    // Telemetry for `ssr stats`: this lease tripped
                    // a budget (whether or not the retry recovered)
                    // and its arena was discarded, not recycled.
                    pool.note_budget_exhausted();
                }
                if self.verbose {
                    eprintln!(
                        "[job {}/{}] {} in {} ms ({} nodes)",
                        spec.id + 1,
                        jobs.len(),
                        if result.holds { "holds" } else { "FAILS" },
                        result.wall_ms,
                        result.bdd_nodes,
                    );
                }
                record_checkpoint(checkpoint, &result);
                if let Some(on_job) = hooks.on_job {
                    on_job(&result);
                }
                *slots[index].lock().expect("result slot poisoned") = Some(result);
            }
            pool.release(manager);
        };
        // The calling thread is worker 0, so a one-worker campaign starts
        // no thread.
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(worker);
            }
            worker();
        });
    }
}

/// Installs (once per process) a panic hook that stays silent for the
/// kernel's typed budget unwinds — they are caught and turned into job
/// error records, so the default "thread panicked" banner would be pure
/// noise — and delegates everything else to the previous hook.
fn quiet_budget_unwinds() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<BddError>().is_none() {
                previous(info);
            }
        }));
    });
}

/// How one governed job attempt ended.
enum Attempt {
    /// The job ran to completion (verdict or elaboration error inside).
    Done(JobResult),
    /// A resource ceiling tripped; the manager was discarded.
    Exhausted(BddError),
    /// A non-budget panic; the manager was discarded.
    Panicked(JobResult),
}

/// Runs one governed attempt of `spec`: installs the budget, catches the
/// unwind channel, and classifies the outcome.  After any unwind the
/// caller's manager is replaced by a fresh one (the old arena may be
/// mid-operation and must not be recycled).
fn attempt(
    spec: &JobSpec,
    harness: Result<&CoreHarness, &HarnessError>,
    manager: &mut BddManager,
    budget: JobBudget,
) -> Attempt {
    manager.reset();
    manager.set_budget(budget.to_settings());
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_job_with(spec, harness, manager)
    }));
    match outcome {
        Ok(result) => Attempt::Done(result),
        Err(payload) => {
            *manager = BddManager::new();
            match payload.downcast::<BddError>() {
                Ok(err) => Attempt::Exhausted(*err),
                Err(payload) => Attempt::Panicked(panicked_job(spec, payload.as_ref())),
            }
        }
    }
}

/// Runs `spec` under the campaign's budget with one-shot graceful
/// degradation: a budget-exhausted attempt is retried exactly once with
/// every ceiling doubled (the kernel caps the GC trigger under the node
/// ceiling, so collection fires before the budget does).  The retry runs
/// the job exactly as an unbudgeted run would, so a job it completes
/// reports what an unbudgeted run reports.  A second exhaustion is
/// recorded as a structured `budget_*` error — the campaign always
/// completes.
///
/// Returns the result plus whether any attempt exhausted its budget (the
/// pool-telemetry signal).  Node/step governance is deterministic, so the
/// verdict is independent of worker count and scheduling.
fn run_governed(
    spec: &JobSpec,
    harness: Result<&CoreHarness, &HarnessError>,
    manager: &mut BddManager,
    budget: JobBudget,
) -> (JobResult, bool) {
    match attempt(spec, harness, manager, budget) {
        Attempt::Done(result) => (result, false),
        Attempt::Panicked(result) => (result, false),
        Attempt::Exhausted(_) => match attempt(spec, harness, manager, budget.raised()) {
            Attempt::Done(result) => (result, true),
            Attempt::Panicked(result) => (result, true),
            Attempt::Exhausted(err) => (budget_job(spec, &err), true),
        },
    }
}

/// The structured error record of a job that exhausted its budget twice:
/// the stable machine-readable code (`budget_nodes` / `budget_steps` /
/// `budget_time`) prefixes a human-readable description.
fn budget_job(spec: &JobSpec, err: &BddError) -> JobResult {
    let mut result = empty_result(spec);
    let code = match err {
        BddError::BudgetExceeded { kind, .. } => kind.code(),
        // `attempt` only classifies BudgetExceeded payloads as Exhausted.
        _ => unreachable!("non-budget BddError on the exhaustion path"),
    };
    result.error = Some(format!("{code}: {err}"));
    result
}

/// Best-effort journal append: persistence failures warn, never abort.
fn record_checkpoint(checkpoint: Option<&Checkpoint>, result: &JobResult) {
    if let Some(cp) = checkpoint {
        if let Err(e) = cp.record(result) {
            eprintln!(
                "warning: cannot checkpoint job {} to {}: {e}",
                result.job_id,
                cp.path().display()
            );
        }
    }
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// The error record for a job whose execution panicked.
fn panicked_job(spec: &JobSpec, payload: &(dyn std::any::Any + Send)) -> JobResult {
    let mut result = empty_result(spec);
    result.error = Some(format!("job panicked: {}", panic_message(payload)));
    result
}

/// A result skeleton for `spec` with no assertions checked yet.
fn empty_result(spec: &JobSpec) -> JobResult {
    let (config_name, policy_name, suite, part) = crate::report::job_identity(spec);
    JobResult {
        job_id: spec.id as u64,
        config_name,
        policy_name,
        suite,
        part,
        assertions: Vec::new(),
        holds: false,
        bdd_nodes: 0,
        peak_live_nodes: 0,
        gc_passes: 0,
        bdd_vars: 0,
        ite_hits: 0,
        ite_misses: 0,
        wall_ms: 0,
        error: None,
    }
}

/// Runs one job to completion on the calling thread, with a fresh BDD arena
/// and a private harness build.  Convenience wrapper around
/// [`run_job_with`] for one-off checks; campaigns share harnesses and
/// recycle managers instead.
pub fn run_job(spec: &JobSpec) -> JobResult {
    let context = SharedHarness::new(spec.config);
    let mut m = BddManager::new();
    run_job_with(spec, context.get(), &mut m)
}

/// Runs one job on the calling thread against an already-compiled (or
/// already-failed) shared harness, using the caller's manager.  The manager
/// must be fresh or [`ssr_bdd::BddManager::reset`]; results are identical
/// either way.
///
/// This is where every engine path picks its maintenance policy: a
/// manager without one gets the GC-only [`MaintainSettings::default`], so
/// the streaming checker's released states are collected; a policy the
/// caller installed is kept.
pub fn run_job_with(
    spec: &JobSpec,
    harness: Result<&CoreHarness, &HarnessError>,
    m: &mut BddManager,
) -> JobResult {
    let started = Instant::now();
    let mut result = empty_result(spec);

    let harness = match harness {
        Ok(h) => h,
        Err(error) => {
            result.error = Some(error.to_string());
            result.wall_ms = started.elapsed().as_millis() as u64;
            return result;
        }
    };

    if !m.maintenance_enabled() {
        m.set_maintenance(Some(MaintainSettings::default()));
    }
    let assertions = match spec.part {
        JobPart::WholeSuite => spec.suite.assertions(harness, m),
        JobPart::Assertion(index) => vec![spec.suite.assertion(harness, m, index)],
    };

    match harness.check_all(m, &assertions) {
        Ok(reports) => {
            result.assertions = reports.iter().map(summarise_check).collect();
            result.holds = reports.iter().all(|r| r.holds);
        }
        Err(e) => {
            result.error = Some(format!("STE elaboration failed: {e:?}"));
        }
    }
    let stats = m.stats();
    result.bdd_nodes = stats.nodes_allocated as u64;
    result.peak_live_nodes = stats.peak_live_nodes as u64;
    result.gc_passes = stats.gc_passes;
    result.bdd_vars = stats.variables as u64;
    result.ite_hits = stats.ite_cache_hits;
    result.ite_misses = stats.ite_cache_misses;
    result.wall_ms = started.elapsed().as_millis() as u64;
    result
}

/// Compresses an STE [`CheckReport`] into the report-facing outcome.
fn summarise_check(report: &CheckReport) -> AssertionOutcome {
    let failures = report
        .counterexample
        .iter()
        .flat_map(|cex| cex.failures.iter().take(4))
        .map(|f| {
            format!(
                "t={} node `{}`: expected {}, trajectory carries {}",
                f.time, f.node, f.expected, f.actual
            )
        })
        .collect();
    AssertionOutcome {
        name: report
            .name
            .clone()
            .unwrap_or_else(|| "<unnamed>".to_owned()),
        holds: report.holds,
        vacuous: report.is_vacuous(),
        constraints: report.constraints_checked as u64,
        wall_ms: report.duration.as_millis() as u64,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::policy_by_name;

    fn tiny_spec(threads: usize, granularity: Granularity) -> CampaignSpec {
        CampaignSpec {
            configs: vec![NamedConfig::small()],
            policies: vec![
                policy_by_name("architectural").expect("named"),
                policy_by_name("none").expect("named"),
            ],
            suites: vec![Suite::PropertyTwo],
            granularity,
            threads,
            budget: JobBudget::default(),
            verbose: false,
        }
    }

    #[test]
    fn scheduling_is_deterministic_across_thread_counts() {
        let sequential = tiny_spec(1, Granularity::Suite).run();
        let parallel = tiny_spec(4, Granularity::Suite).run();
        // The canonical artifact zeroes scheduling metadata, so it is
        // byte-identical across thread counts.
        assert_eq!(sequential.canonical_json(), parallel.canonical_json());
        // The architectural policy holds, the none policy does not.
        assert!(sequential.jobs[0].holds);
        assert!(!sequential.jobs[1].holds);
    }

    #[test]
    fn assertion_granularity_agrees_with_suite_granularity() {
        let spec = |threads, granularity| CampaignSpec {
            policies: crate::job::named_policies(),
            suites: Suite::ALL.to_vec(),
            ..tiny_spec(threads, granularity)
        };
        let whole = spec(2, Granularity::Suite).run().canonical();
        let sharded = spec(4, Granularity::Assertion).run().canonical();
        let obligations: usize = whole.jobs.iter().map(|j| j.assertions.len()).sum();
        assert_eq!(sharded.jobs.len(), obligations, "one job per obligation");
        // A one-assertion job reports what its whole-suite job reports for
        // that assertion, as far as `canonical()` keeps it, and declares
        // the same variables.
        let mut shards = sharded.jobs.iter();
        for job in &whole.jobs {
            for outcome in &job.assertions {
                let shard = shards.next().expect("a job per obligation");
                let what = format!("{}/{}/{}", job.policy_name, job.suite, outcome.name);
                assert_eq!(
                    (&shard.policy_name, &shard.suite),
                    (&job.policy_name, &job.suite),
                    "{what}"
                );
                assert_eq!(shard.assertions, std::slice::from_ref(outcome), "{what}");
                assert_eq!(shard.bdd_vars, job.bdd_vars, "{what}");
            }
        }
    }

    #[test]
    fn report_json_round_trips_from_a_real_run() {
        let report = tiny_spec(2, Granularity::Suite).run();
        let parsed = CampaignReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn a_panicking_job_becomes_an_error_record_not_an_abort() {
        // `sized(12)` is not a power of two; the core generator's
        // validation panics inside the worker.  The campaign must still
        // return a report, with the panic captured on the failing job.
        let spec = CampaignSpec {
            configs: vec![NamedConfig::small(), NamedConfig::sized(12)],
            policies: vec![policy_by_name("architectural").expect("named")],
            suites: vec![Suite::PropertyTwo],
            granularity: Granularity::Suite,
            threads: 2,
            budget: JobBudget::default(),
            verbose: false,
        };
        let report = spec.run();
        assert_eq!(report.jobs.len(), 2);
        assert!(report.jobs[0].holds, "the healthy job still completes");
        let broken = &report.jobs[1];
        assert!(broken.error.as_deref().unwrap_or("").contains("panicked"));
        assert!(!broken.holds);
        assert!(!report.all_hold());
    }

    #[test]
    fn duplicate_spec_entries_do_not_inflate_the_skip_count() {
        let mut spec = tiny_spec(1, Granularity::Suite);
        // Duplicate an applicable policy and suite: nothing is skipped.
        spec.policies
            .push(policy_by_name("architectural").expect("named"));
        spec.suites.push(Suite::PropertyTwo);
        assert_eq!(spec.skipped_combinations(), 0);
    }

    #[test]
    fn skipped_combinations_tracks_the_enumeration() {
        let mut spec = tiny_spec(1, Granularity::Suite);
        assert_eq!(spec.skipped_combinations(), 0);
        // `full` drops the IFR suite (micro retained); at either
        // granularity the count is per combination, not per job.
        spec.policies
            .push(crate::job::policy_by_name("full").expect("named"));
        spec.suites = Suite::ALL.to_vec();
        assert_eq!(spec.skipped_combinations(), 1);
        spec.granularity = Granularity::Assertion;
        assert_eq!(spec.skipped_combinations(), 1);
    }

    /// With manager-pool reuse and shared harnesses, rerunning the same
    /// campaign must reproduce the report byte-for-byte (modulo wall-clock
    /// fields, which `canonical_json` zeroes) — at either granularity.
    #[test]
    fn reports_are_byte_identical_across_reruns_with_pool_reuse() {
        for granularity in [Granularity::Suite, Granularity::Assertion] {
            let first = tiny_spec(1, granularity).run();
            // The second run leases recycled managers from the global pool
            // and must not be perturbed by it.
            let second = tiny_spec(1, granularity).run();
            assert_eq!(
                first.canonical_json(),
                second.canonical_json(),
                "{} granularity rerun diverged",
                granularity.name()
            );
            // The kernel telemetry itself is deterministic too.
            for (a, b) in first.jobs.iter().zip(&second.jobs) {
                assert_eq!(a.bdd_nodes, b.bdd_nodes);
                assert_eq!(a.ite_hits, b.ite_hits);
                assert_eq!(a.ite_misses, b.ite_misses);
            }
        }
    }

    /// Jobs of one (config × policy) share a single compiled harness.
    #[test]
    fn shared_harnesses_deduplicate_per_config_policy() {
        let spec = tiny_spec(1, Granularity::Assertion);
        let jobs = spec.jobs();
        let all: Vec<usize> = (0..jobs.len()).collect();
        let pending = pending_jobs(&jobs, &all);
        assert_eq!(pending.len(), jobs.len());
        // Two policies × one suite at assertion granularity: every job of a
        // policy points at the same context.
        let distinct: std::collections::BTreeSet<usize> = pending
            .iter()
            .map(|job| Arc::as_ptr(&job.claim()) as usize)
            .collect();
        assert_eq!(distinct.len(), 2, "one harness per (config × policy)");
    }

    /// With one worker over two policies, the first combination's harness
    /// is freed once its last job finishes (its handle is dropped before
    /// the job's result is reported), so before the second combination's
    /// first job starts; the second's is freed with its own last job.
    #[test]
    fn a_harness_is_freed_once_its_last_job_finishes() {
        let spec = tiny_spec(1, Granularity::Assertion);
        let jobs = spec.jobs();
        let all: Vec<usize> = (0..jobs.len()).collect();
        let pending = pending_jobs(&jobs, &all);
        let weak = |at: usize| {
            let handle = pending[at].harness.lock().expect("not poisoned");
            Arc::downgrade(handle.as_ref().expect("unclaimed"))
        };
        let second = jobs
            .iter()
            .position(|job| job.policy_name != jobs[0].policy_name)
            .expect("two policies");
        let (first_harness, second_harness) = (weak(0), weak(second));
        // Per completion, in order: the job and whether each harness lives.
        let seen = Mutex::new(Vec::new());
        let on_job = |r: &JobResult| {
            let alive = (
                first_harness.strong_count() > 0,
                second_harness.strong_count() > 0,
            );
            seen.lock()
                .expect("not poisoned")
                .push((r.job_id as usize, alive));
        };
        let hooks = RunHooks {
            on_job: Some(&on_job),
            ..RunHooks::default()
        };
        let slots: Vec<_> = jobs.iter().map(|_| Mutex::new(None)).collect();
        spec.run_pending(&jobs, &pending, 1, &slots, None, hooks);
        let seen = seen.into_inner().expect("not poisoned");
        assert_eq!(seen.len(), jobs.len(), "every job completed");
        for (id, (first_alive, second_alive)) in seen {
            assert_eq!(first_alive, id + 1 < second, "first harness after job {id}");
            assert_eq!(
                second_alive,
                id + 1 < jobs.len(),
                "second harness after job {id}"
            );
        }
        assert!(slots
            .iter()
            .all(|slot| slot.lock().expect("not poisoned").is_some()));
    }

    /// Jobs a resume reuses hold no harness and build none: a resume of
    /// the first combination's results hands out only the second's, and a
    /// complete resume creates no harness at all.
    #[test]
    fn reused_jobs_hold_no_harness() {
        let spec = tiny_spec(1, Granularity::Assertion);
        let jobs = spec.jobs();
        let fresh = spec.run();
        let second = jobs
            .iter()
            .position(|job| job.policy_name != jobs[0].policy_name)
            .expect("two policies");
        let plan = plan_resume(&jobs, &fresh.jobs[..second]);
        assert_eq!(plan.pending, (second..jobs.len()).collect::<Vec<_>>());
        for job in pending_jobs(&jobs, &plan.pending) {
            let harness = job.claim();
            assert_eq!(harness.config, jobs[second].config);
            assert!(harness.cell.get().is_none(), "nothing built up front");
        }
        let complete = plan_resume(&jobs, &fresh.jobs);
        assert!(pending_jobs(&jobs, &complete.pending).is_empty());
    }

    /// The campaign reports a positive ITE hit rate on the real workload
    /// (triple normalisation + computed table measurably working).
    #[test]
    fn campaign_reports_ite_cache_telemetry() {
        let report = tiny_spec(1, Granularity::Suite).run();
        assert!(report.ite_hits() > 0);
        assert!(report.ite_misses() > 0);
        let rate = report.ite_hit_rate();
        assert!(rate > 0.0 && rate < 1.0);
        assert!(report.render_table().contains("ITE cache:"));
    }

    /// The acceptance criterion of the persistence work: interrupt a
    /// campaign (job-limit simulation), resume from its partial results,
    /// and the merged report's canonical JSON is byte-identical to an
    /// uninterrupted run — at either granularity and across thread counts.
    #[test]
    fn resumed_campaigns_are_byte_identical_to_fresh_runs() {
        for granularity in [Granularity::Suite, Granularity::Assertion] {
            let fresh = tiny_spec(1, granularity).run();
            let partial = tiny_spec(1, granularity).run_with(&[], None, Some(1));
            assert_eq!(partial.jobs.len(), 1, "the limit interrupted the run");
            assert!(
                partial.jobs.len() < fresh.jobs.len(),
                "something must be left to resume"
            );
            // Resume on a different worker count: scheduling must not leak
            // into the canonical artifact.
            let resumed = tiny_spec(2, granularity).run_with(&partial.jobs, None, None);
            assert_eq!(resumed.jobs.len(), fresh.jobs.len());
            assert_eq!(
                resumed.canonical_json(),
                fresh.canonical_json(),
                "{} granularity resume diverged",
                granularity.name()
            );
        }
    }

    /// Reused results must be identity-checked: a record whose identity
    /// does not match the enumerated job at its id is re-run, not trusted.
    #[test]
    fn resume_reruns_tampered_records() {
        let fresh = tiny_spec(1, Granularity::Suite).run();
        let mut tampered = fresh.jobs.clone();
        // Swap the two jobs' ids: both records now claim the other's slot.
        tampered[0].job_id = 1;
        tampered[1].job_id = 0;
        let resumed = tiny_spec(1, Granularity::Suite).run_with(&tampered, None, None);
        assert_eq!(resumed.canonical_json(), fresh.canonical_json());
    }

    /// A fully-recorded resume runs nothing and reproduces the report.
    #[test]
    fn resume_of_a_complete_report_runs_no_jobs() {
        let fresh = tiny_spec(1, Granularity::Suite).run();
        let resumed = tiny_spec(1, Granularity::Suite).run_with(&fresh.jobs, None, None);
        assert_eq!(resumed.canonical_json(), fresh.canonical_json());
        // The reused results keep their recorded wall times (nothing ran).
        for (a, b) in resumed.jobs.iter().zip(&fresh.jobs) {
            assert_eq!(a.wall_ms, b.wall_ms);
        }
    }

    /// Cancellation promptness: once the token is cancelled, no *new* job
    /// is admitted — with one worker, cancelling inside the first job's
    /// completion callback leaves exactly that job in the report.
    #[test]
    fn cancellation_stops_new_jobs_and_returns_a_partial_report() {
        let spec = tiny_spec(1, Granularity::Assertion);
        let total = spec.jobs().len();
        assert!(total > 1, "something must be left to cancel");
        let token = CancelToken::new();
        let streamed = Mutex::new(Vec::new());
        let on_job = |r: &JobResult| {
            streamed.lock().expect("not poisoned").push(r.job_id);
            token.cancel();
        };
        let report = spec.run_with_hooks(
            &[],
            None,
            None,
            RunHooks {
                cancel: Some(&token),
                on_job: Some(&on_job),
            },
        );
        assert_eq!(report.jobs.len(), 1, "no new job after the cancel");
        assert_eq!(streamed.into_inner().expect("not poisoned").len(), 1);
        // The partial report resumes like any interrupted run.
        let resumed = tiny_spec(1, Granularity::Assertion).run_with(&report.jobs, None, None);
        let fresh = tiny_spec(1, Granularity::Assertion).run();
        assert_eq!(resumed.canonical_json(), fresh.canonical_json());
    }

    /// An already-cancelled token means zero jobs run (the queued-request
    /// cancellation path of the serving daemon).
    #[test]
    fn a_pre_cancelled_run_completes_no_jobs() {
        let token = CancelToken::new();
        token.cancel();
        let report = tiny_spec(2, Granularity::Suite).run_with_hooks(
            &[],
            None,
            None,
            RunHooks {
                cancel: Some(&token),
                on_job: None,
            },
        );
        assert!(report.jobs.is_empty());
        assert!(!report.all_hold(), "an empty report never vacuously holds");
    }

    /// The completion callback streams every job exactly once — reused
    /// resume results included — and the stream covers the whole report.
    #[test]
    fn on_job_streams_reused_and_fresh_completions() {
        let partial = tiny_spec(1, Granularity::Suite).run_with(&[], None, Some(1));
        let streamed = Mutex::new(Vec::new());
        let on_job = |r: &JobResult| streamed.lock().expect("not poisoned").push(r.job_id);
        let report = tiny_spec(1, Granularity::Suite).run_with_hooks(
            &partial.jobs,
            None,
            None,
            RunHooks {
                cancel: None,
                on_job: Some(&on_job),
            },
        );
        let mut ids = streamed.into_inner().expect("not poisoned");
        ids.sort_unstable();
        let mut expected: Vec<u64> = report.jobs.iter().map(|j| j.job_id).collect();
        expected.sort_unstable();
        assert_eq!(ids, expected, "one callback per job, reused ones included");
    }

    /// Harness failures carry a structured error implementing
    /// `Display` + `Error`, with the historical report string preserved.
    #[test]
    fn harness_errors_are_structured() {
        // `sized(12)` is not a power of two; the generator panics (caught).
        let ctx = SharedHarness::new(NamedConfig::sized(12).config);
        let err = ctx.get().expect_err("the build must fail");
        assert_eq!(err.code(), "panicked");
        assert!(err.to_string().starts_with("job panicked: "), "{err}");
        let as_std: &dyn std::error::Error = err;
        assert!(!as_std.to_string().is_empty());
    }

    #[test]
    fn effective_threads_clamps_to_job_count() {
        let spec = tiny_spec(64, Granularity::Suite);
        assert_eq!(spec.effective_threads(2), 2);
        assert_eq!(spec.effective_threads(0), 1);
        let auto = tiny_spec(0, Granularity::Suite);
        assert!(auto.effective_threads(1000) >= 1);
    }

    /// A hopeless node budget (too small even after the doubled retry)
    /// completes the campaign with structured `budget_nodes` records —
    /// no abort, no OOM, every job accounted for.
    #[test]
    fn an_exhausted_budget_becomes_a_structured_error_record() {
        let mut spec = tiny_spec(2, Granularity::Suite);
        spec.budget.node_budget = Some(64);
        let report = spec.run();
        assert_eq!(report.jobs.len(), 2, "the campaign still completes");
        for job in &report.jobs {
            let error = job.error.as_deref().expect("budget must trip");
            assert!(
                error.starts_with("budget_nodes: "),
                "structured code expected, got `{error}`"
            );
            assert!(job.budget_limited());
            assert!(!job.holds);
        }
        assert!(!report.all_hold());
    }

    /// The one-shot degradation retry: a node budget the first attempt
    /// exhausts, but the doubled retry fits inside, recovers the job — and
    /// the retry reports exactly what an unbudgeted run reports, every
    /// assertion field `canonical()` keeps (counterexamples included).
    ///
    /// The budget is searched, not fixed: starting from one the first
    /// attempt fits in, it halves until the first attempt exhausts, so the
    /// retry runs at the last budget a first attempt completed under.
    #[test]
    fn the_degradation_retry_recovers_jobs_the_raw_run_exhausts() {
        let suite_job = tiny_spec(1, Granularity::Suite).jobs().remove(0);
        // The small core's `no-pc` Property II obligation #6
        // (`equivalence_beq`) fails by design, so the retry must reproduce
        // its counterexample too.
        let mut no_pc = tiny_spec(1, Granularity::Assertion);
        no_pc.policies = vec![policy_by_name("no-pc").expect("named")];
        let beq = no_pc
            .jobs()
            .into_iter()
            .find(|job| job.part == JobPart::Assertion(6))
            .expect("Property II has an obligation #6");
        let canonical = |r: &JobResult| -> Vec<AssertionOutcome> {
            r.assertions
                .iter()
                .map(|a| AssertionOutcome {
                    wall_ms: 0,
                    ..a.clone()
                })
                .collect()
        };
        let nodes = |node_budget| JobBudget {
            node_budget: Some(node_budget),
            ..JobBudget::default()
        };
        for job in [suite_job, beq] {
            let unlimited = run_job(&job);
            assert!(unlimited.error.is_none());
            let harness = SharedHarness::new(job.config);
            let mut manager = BddManager::new();
            // A power of two, so that halving and the retry's doubling
            // are exact.
            let mut fits = unlimited.peak_live_nodes.next_power_of_two();
            let (_, exhausted) = run_governed(&job, harness.get(), &mut manager, nodes(fits));
            assert!(!exhausted, "the first attempt fits in {fits} nodes");
            let result = loop {
                assert!(fits > 1, "no budget made the first attempt exhaust");
                let (result, exhausted) =
                    run_governed(&job, harness.get(), &mut manager, nodes(fits / 2));
                if exhausted {
                    break result;
                }
                fits /= 2;
            };
            assert!(
                result.error.is_none(),
                "the retry at {fits} nodes should recover this job, got {:?}",
                result.error
            );
            assert_eq!(result.holds, unlimited.holds);
            assert_eq!(canonical(&result), canonical(&unlimited));
        }
    }

    /// Budget-exhausted verdicts are deterministic: node/step governance
    /// counts per-job work, so `--parallel` cannot perturb which jobs
    /// exhaust or what their records say.
    #[test]
    fn budget_verdicts_are_deterministic_across_thread_counts() {
        let mut rng = ssr_prop::Rng::new(0xb0d6e7);
        for _ in 0..4 {
            // Random-but-replayable budgets in the interesting range:
            // some exhaust immediately, some only before the retry, some
            // never.
            let budget = JobBudget {
                node_budget: Some(rng.below(1 << 14).max(32)),
                step_budget: Some(rng.below(1 << 16).max(32)),
                deadline_ms: None, // wall-clock is inherently nondeterministic
            };
            let mut sequential = tiny_spec(1, Granularity::Assertion);
            sequential.budget = budget;
            let mut parallel = tiny_spec(4, Granularity::Assertion);
            parallel.budget = budget;
            assert_eq!(
                sequential.run().canonical_json(),
                parallel.run().canonical_json(),
                "budget {budget:?} diverged across thread counts"
            );
        }
    }

    /// An expired deadline surfaces as `budget_time` (checked at the STE
    /// per-step safe points even when no ITE recursion runs long enough
    /// to probe it).
    #[test]
    fn a_zero_deadline_surfaces_as_budget_time() {
        let mut spec = tiny_spec(1, Granularity::Suite);
        spec.budget.deadline_ms = Some(0);
        let report = spec.run();
        let error = report.jobs[0].error.as_deref().expect("deadline trips");
        assert!(
            error.starts_with("budget_time: "),
            "structured code expected, got `{error}`"
        );
    }

    /// Governed-but-ample budgets are observationally free: the canonical
    /// report is byte-identical to an ungoverned run's.
    #[test]
    fn an_ample_budget_leaves_the_report_byte_identical() {
        let free = tiny_spec(1, Granularity::Suite).run();
        let mut spec = tiny_spec(1, Granularity::Suite);
        spec.budget = JobBudget {
            node_budget: Some(1 << 30),
            step_budget: Some(1 << 40),
            deadline_ms: None,
        };
        let governed = spec.run();
        assert_eq!(free.canonical_json(), governed.canonical_json());
    }
}
