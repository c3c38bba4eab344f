//! Subcommand implementations.

use std::process::ExitCode;

use ssr_engine::persist::{load_partial, plan_resume, Checkpoint, PartialCampaign};
use ssr_engine::{
    minimise_with_engine, CampaignReport, CampaignSpec, EngineOracle, Granularity, JobBudget,
    JobResult, ReportDiff,
};
use ssr_netlist::stats::{stats, AreaModel};
use ssr_properties::CoreHarness;
use ssr_retention::area::{render_table as render_savings, savings, LeakageModel};
use ssr_retention::intent::RetentionIntent;
use ssr_retention::selection::classify;

use crate::args::{Action, Command, USAGE};

/// Runs the parsed command; the exit code reports the overall verdict.
pub fn run(cmd: Command) -> ExitCode {
    match cmd.action {
        Action::Help => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Action::Campaign | Action::Check => campaign(&cmd),
        Action::Minimise => minimise(&cmd),
        Action::Stats => core_stats(&cmd),
        Action::Diff => diff(&cmd),
        Action::Serve => serve(&cmd),
        Action::Submit => submit(&cmd),
    }
}

/// The campaign spec a command's shape flags describe (shared by
/// `campaign` and `submit` so a served run checks exactly what a local
/// one would).
fn spec_from_flags(cmd: &Command) -> CampaignSpec {
    let suites = if cmd.suites.is_empty() {
        ssr_engine::Suite::ALL.to_vec()
    } else {
        cmd.suites.clone()
    };
    CampaignSpec {
        configs: cmd.configs.clone(),
        policies: cmd.policies.clone(),
        suites,
        granularity: cmd.granularity.unwrap_or(Granularity::Suite),
        threads: cmd.jobs,
        budget: JobBudget {
            node_budget: cmd.node_budget,
            step_budget: cmd.step_budget,
            deadline_ms: cmd.deadline_ms,
        },
        verbose: cmd.verbose,
    }
}

/// Maps a finished report to the campaign/submit exit code: 0 when every
/// assertion held, 3 when the only non-holding jobs ran out of a resource
/// budget (structured `budget_*` errors — distinct from verification
/// failures and from real errors so CI can gate on each separately), 1
/// otherwise.
fn verdict_exit(report: &CampaignReport) -> ExitCode {
    if report.all_hold() {
        ExitCode::SUCCESS
    } else if !report.jobs.is_empty()
        && report
            .jobs
            .iter()
            .all(|j| j.budget_limited() || (j.error.is_none() && j.holds))
    {
        ExitCode::from(3)
    } else {
        ExitCode::from(1)
    }
}

/// `ssr serve`: run the campaign-serving daemon until a wire `shutdown`
/// (or the process is killed; with --journal-dir no completed work is
/// lost either way).
fn serve(cmd: &Command) -> ExitCode {
    use ssr_serve::{Server, ServerConfig};

    let config = ServerConfig {
        addr: cmd.addr.clone(),
        queue_capacity: cmd.queue_capacity,
        dispatchers: cmd.parallel,
        job_threads: cmd.jobs,
        journal_dir: cmd.journal_dir.as_ref().map(std::path::PathBuf::from),
        idle_timeout_ms: cmd.idle_timeout_ms,
        verbose: cmd.verbose,
        ..ServerConfig::default()
    };
    let server = match Server::spawn(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot start the daemon on {}: {e}", cmd.addr);
            return ExitCode::from(2);
        }
    };
    let addr = server.local_addr();
    if let Some(path) = &cmd.addr_file {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            eprintln!("error: cannot write --addr-file {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if !cmd.quiet {
        eprintln!(
            "ssr serve: listening on {addr} ({} dispatcher(s), queue capacity {}{})",
            cmd.parallel,
            cmd.queue_capacity,
            match &cmd.journal_dir {
                Some(journals) => format!(", journals in {journals}"),
                None => ", no persistence".to_owned(),
            },
        );
    }
    server.join();
    if !cmd.quiet {
        eprintln!("ssr serve: shut down");
    }
    ExitCode::SUCCESS
}

/// `ssr submit`: submit a campaign to a running daemon and stream its
/// results — or `--cancel`/`--status`/`--shutdown` it.
fn submit(cmd: &Command) -> ExitCode {
    let mut client = match ssr_serve::Client::connect(&cmd.addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: cannot connect to {}: {e}", cmd.addr);
            return ExitCode::from(2);
        }
    };

    // Control operations: one request, one answer, done.
    if let Some(id) = cmd.cancel {
        return match client.cancel(id) {
            Ok(state) => {
                println!("request {id}: {state}");
                if state == "unknown" {
                    ExitCode::from(1)
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    if cmd.status {
        return match client.status() {
            Ok((queue_len, rows)) => {
                println!("queue depth: {queue_len}");
                println!("{:>8}  {:>8}  state", "id", "priority");
                for row in rows {
                    println!("{:>8}  {:>8}  {}", row.id, row.priority, row.state);
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    if cmd.shutdown {
        return match client.shutdown() {
            Ok(()) => {
                println!("daemon at {} shutting down", cmd.addr);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let spec = spec_from_flags(cmd);
    let submission = match client.submit(&spec, cmd.priority, cmd.resume.as_deref()) {
        Ok(submission) => submission,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !cmd.quiet {
        eprintln!(
            "submitted: id {}{}",
            submission.id,
            match &submission.journal {
                Some(journal) => format!(", journal {journal}"),
                None => String::new(),
            },
        );
    }
    if cmd.detach {
        println!("id {}", submission.id);
        return ExitCode::SUCCESS;
    }

    let mut streamed = 0usize;
    let done = match client.stream_to_completion(submission.id, |job| {
        streamed += 1;
        if cmd.verbose {
            eprintln!(
                "[{streamed}] {} {} {} {}: {}",
                job.config_name,
                job.policy_name,
                job.suite,
                job.part,
                if job.holds { "holds" } else { "FAILS" },
            );
        }
    }) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if done.cancelled && !cmd.quiet {
        eprintln!(
            "note: request {} was cancelled after {} job(s); its journal is kept server-side",
            submission.id,
            done.report.jobs.len(),
        );
    }
    if let Err(message) = emit_report(cmd, &done.report) {
        eprintln!("error: {message}");
        return ExitCode::from(2);
    }
    if done.cancelled {
        ExitCode::from(1)
    } else {
        verdict_exit(&done.report)
    }
}

/// `ssr diff OLD NEW`: verdict-regression gating between two campaign
/// artifacts (full reports or checkpoint journals).
fn diff(cmd: &Command) -> ExitCode {
    let (old_path, new_path) = cmd.diff.as_ref().expect("parser enforced two paths");
    let load = |path: &str| load_campaign_artifact(path).map(PartialCampaign::into_report);
    match (load(old_path), load(new_path)) {
        (Ok(old), Ok(new)) if cmd.canonical => {
            // The serve-vs-direct CI gate: the two artifacts must be
            // byte-identical in canonical form (wall times and thread
            // counts zeroed, everything else exact).
            let (old_canon, new_canon) = (old.canonical_json(), new.canonical_json());
            if old_canon == new_canon {
                if !cmd.quiet {
                    println!(
                        "canonically identical: {} job(s), {} byte(s)",
                        old.jobs.len(),
                        old_canon.len(),
                    );
                }
                ExitCode::SUCCESS
            } else {
                let divergence = old_canon
                    .bytes()
                    .zip(new_canon.bytes())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| old_canon.len().min(new_canon.len()));
                eprintln!(
                    "canonical forms differ: {old_path} ({} bytes) vs {new_path} ({} bytes), \
                     first divergence at byte {divergence}",
                    old_canon.len(),
                    new_canon.len(),
                );
                ExitCode::from(1)
            }
        }
        (Ok(old), Ok(new)) => {
            let diff = ReportDiff::between(&old, &new);
            print!("{}", diff.render());
            if diff.has_regressions() {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn emit_report(cmd: &Command, report: &CampaignReport) -> Result<(), String> {
    if !cmd.quiet {
        print!("{}", report.render_table());
    }
    if let Some(target) = &cmd.json {
        let text = report.to_json();
        if target == "-" {
            print!("{text}");
        } else {
            std::fs::write(target, &text).map_err(|e| format!("cannot write {target}: {e}"))?;
            if !cmd.quiet {
                println!("JSON report written to {target}");
            }
        }
    }
    Ok(())
}

fn campaign(cmd: &Command) -> ExitCode {
    let spec = spec_from_flags(cmd);
    let granularity = spec.granularity;
    let jobs = spec.jobs();
    if jobs.is_empty() {
        eprintln!("error: the campaign enumerates no jobs (every suite was inapplicable)");
        return ExitCode::from(2);
    }
    if !cmd.quiet {
        println!(
            "campaign: {} job(s) on {} worker thread(s), {} granularity",
            jobs.len(),
            spec.effective_threads(jobs.len()),
            granularity.name(),
        );
        let skipped = spec.skipped_combinations();
        if skipped > 0 {
            println!(
                "note: {skipped} (config x policy x suite) combination(s) skipped as \
                 inapplicable (IFR suite needs an IFR and a coherent volatile fetch state)"
            );
        }
    }
    // Resume: load recorded results and report how they map onto this
    // enumeration before running the remainder.
    let prior: Vec<JobResult> = match &cmd.resume {
        Some(path) => match load_campaign_artifact(path) {
            Ok(partial) => {
                if !cmd.quiet {
                    let plan = plan_resume(&jobs, &partial.jobs);
                    println!(
                        "resume: {} recorded result(s), {} reused, {} stale \
                         (identity mismatch, re-run), {} job(s) left to run",
                        partial.jobs.len(),
                        plan.reused.len(),
                        plan.stale,
                        plan.pending.len(),
                    );
                }
                partial.jobs
            }
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::from(2);
            }
        },
        None => Vec::new(),
    };

    // Checkpoint: an explicit --checkpoint journal is kept; otherwise a
    // `--json FILE` campaign journals to FILE.partial and removes it once
    // the complete report lands.
    let auto_partial = match (&cmd.checkpoint, &cmd.json) {
        (Some(_), _) => None,
        (None, Some(path)) if path != "-" => Some(format!("{path}.partial")),
        _ => None,
    };
    let checkpoint = match cmd.checkpoint.as_ref().or(auto_partial.as_ref()) {
        Some(path) => {
            match Checkpoint::create(std::path::Path::new(path), granularity.name(), jobs.len()) {
                Ok(cp) => Some(cp),
                Err(e) => {
                    eprintln!("error: cannot create checkpoint {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    let report = spec.run_with(&prior, checkpoint.as_ref(), cmd.limit);
    if report.jobs.len() < jobs.len() && !cmd.quiet {
        println!(
            "note: partial run — {} of {} job(s) completed{}",
            report.jobs.len(),
            jobs.len(),
            match checkpoint.as_ref() {
                Some(cp) => format!("; resume with --resume {}", cp.path().display()),
                None => String::new(),
            },
        );
    }
    if let Err(message) = emit_report(cmd, &report) {
        eprintln!("error: {message}");
        return ExitCode::from(2);
    }
    // The complete report is durably written: the auto journal has served
    // its purpose.  Explicit --checkpoint journals are the user's to keep.
    if let (Some(path), true) = (&auto_partial, report.jobs.len() == jobs.len()) {
        if cmd.json.is_some() {
            let _ = std::fs::remove_file(path);
        }
    }
    verdict_exit(&report)
}

/// Reads and parses a campaign artifact (full report or checkpoint
/// journal), noting a dropped torn trailing journal line on stderr.
fn load_campaign_artifact(path: &str) -> Result<PartialCampaign, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let partial = load_partial(&text).map_err(|e| format!("{path}: {e}"))?;
    if partial.truncated_tail {
        eprintln!("note: {path}: dropped a torn trailing journal line (the interrupted write)");
    }
    Ok(partial)
}

fn minimise(cmd: &Command) -> ExitCode {
    let base = cmd.configs[0].clone();
    if cmd.configs.len() > 1 && !cmd.quiet {
        println!(
            "minimise: using config `{}` (extra --config values ignored)",
            base.name
        );
    }
    let mut oracle = EngineOracle::property_two(base, cmd.jobs);
    // `minimise` explores policies itself.  The flags still shape each
    // oracle query: --granularity overrides the oracle's default
    // obligation-sharding, and an explicit --suite widens/narrows the
    // acceptance criterion beyond Property II.
    if let Some(granularity) = cmd.granularity {
        oracle.granularity = granularity;
    }
    if !cmd.suites.is_empty() {
        oracle.suites = cmd.suites.clone();
    }
    let outcome = minimise_with_engine(&oracle);

    if !cmd.quiet {
        let criteria: Vec<&str> = oracle.suites.iter().map(|s| s.name()).collect();
        println!(
            "retention-set minimisation (oracle = {} via the campaign engine):",
            criteria.join(" + ")
        );
        for step in &outcome.steps {
            println!(
                "  drop {:<22} -> {}",
                step.step
                    .dropped
                    .as_deref()
                    .unwrap_or("(baseline: architectural)"),
                if step.step.accepted {
                    "still correct".to_owned()
                } else {
                    let failing: Vec<&str> = step
                        .report
                        .jobs
                        .iter()
                        .flat_map(|j| j.assertions.iter())
                        .filter(|a| !a.holds)
                        .map(|a| a.name.as_str())
                        .collect();
                    if failing.is_empty() {
                        // No obligation failed: the candidate was rejected
                        // because part of the criterion could not run
                        // against it at all.
                        "REJECTED (criterion not fully applicable to this policy)".to_owned()
                    } else {
                        format!(
                            "REJECTED ({} obligations fail: {})",
                            failing.len(),
                            failing.join(", ")
                        )
                    }
                }
            );
        }
        let best = outcome.best;
        println!(
            "  minimal retention set: pc={} imem={} regfile={} dmem={} (micro-architectural state stays volatile)",
            best.pc, best.imem, best.regfile, best.dmem
        );
        println!(
            "  {} proof obligations checked across {} exploration steps, {} ms total",
            outcome.assertions_checked(),
            outcome.steps.len(),
            outcome.total_wall_ms(),
        );
    }

    if let Some(target) = &cmd.json {
        // The minimisation evidence is the concatenation of the per-step
        // campaign reports; serialise the last accepted one plus verdicts
        // compactly via each report's own JSON.
        let mut text = String::from("[\n");
        for (i, step) in outcome.steps.iter().enumerate() {
            if i > 0 {
                text.push_str(",\n");
            }
            text.push_str(&step.report.to_json());
        }
        text.push_str("]\n");
        if target == "-" {
            print!("{text}");
        } else if let Err(e) = std::fs::write(target, &text) {
            eprintln!("error: cannot write {target}: {e}");
            return ExitCode::from(2);
        }
    }

    // The paper's expected outcome is "keep all four architectural groups";
    // the exit code only reflects that the baseline verified.
    if outcome
        .steps
        .first()
        .map(|s| s.step.accepted)
        .unwrap_or(false)
    {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The `ssr stats` kernel census: compiles every applicable suite's
/// assertions for the (config × policy) into one arena and
/// reports the manager's statistics alongside the netlist ones.
fn kernel_stats(cmd: &Command, harness: &CoreHarness, config: &ssr_cpu::CoreConfig) {
    // Acquire from the process-wide pool (as the campaign engine does), so
    // the pool census below reflects real acquire/release traffic.
    let mut m = ssr_engine::ManagerPool::global().acquire();
    let mut built = 0usize;
    let suites = if cmd.suites.is_empty() {
        ssr_engine::Suite::ALL.to_vec()
    } else {
        cmd.suites.clone()
    };
    for suite in suites {
        if !suite.applicable_to(config) {
            continue;
        }
        built += suite.assertions(harness, &mut m).len();
    }
    let s = m.stats();
    let (complemented, unique_nodes) = m.complement_edge_census();
    println!(
        "  kernel ({} assertions compiled): {} live / {} peak nodes (arena {}), {} vars",
        built, s.live_nodes, s.peak_live_nodes, s.nodes_allocated, s.variables,
    );
    println!(
        "    complement edges: {complemented}/{unique_nodes} unique nodes carry a \
         complemented high edge ({:.1}%)",
        100.0 * m.complement_edge_share(),
    );
    println!(
        "    ITE {:.1}% hit ({} rewrites), gc {} pass(es) ({} reclaimed)",
        100.0 * s.ite_hit_rate(),
        s.ite_normalised,
        s.gc_passes,
        s.gc_reclaimed,
    );
    ssr_engine::ManagerPool::global().release(m);
}

fn core_stats(cmd: &Command) -> ExitCode {
    let mut ok = true;
    for named in &cmd.configs {
        for policy in &cmd.policies {
            let mut config = named.config;
            config.retention = policy.policy;
            let harness = match CoreHarness::new(config) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("error: config `{}`: {e:?}", named.name);
                    ok = false;
                    continue;
                }
            };
            let netlist = harness.netlist();
            let census = stats(netlist, &AreaModel::default());
            println!(
                "config `{}` policy `{}`: {} nets, {} gates, {} plain flops, {} retention flops, area {:.0}",
                named.name,
                policy.name,
                census.nets,
                census.gate_total,
                census.flops,
                census.retention_flops,
                census.area,
            );
            for class in classify(netlist) {
                println!(
                    "  {:<34} {:>5} flops, {:>5} retained, {}",
                    class.name,
                    class.flops,
                    class.retained,
                    if class.architectural {
                        "architectural"
                    } else {
                        "micro-architectural"
                    }
                );
            }
            let intent = RetentionIntent::architectural_core();
            let violations = intent.check(netlist);
            println!(
                "  retention-intent audit: {} violation(s)",
                violations.len()
            );
            kernel_stats(cmd, &harness, &config);
        }
    }
    let pool = ssr_engine::ManagerPool::global().stats();
    println!(
        "\nmanager pool: {} idle, {} warm reuse(s), {} cold allocation(s), \
         {} discard(s) (free list full), {} discard(s) (oversized arena), \
         {} poisoned-lock recovery(s), {} budget-exhausted lease(s)",
        pool.idle,
        pool.reuse_hits,
        pool.fresh,
        pool.discarded_full,
        pool.discarded_oversize,
        pool.poison_recoveries,
        pool.budget_exhausted,
    );
    println!("\narea / standby-leakage savings (selective vs full retention):");
    println!(
        "{}",
        render_savings(&savings(
            &ssr_cpu::pipeline_model::generations(),
            &AreaModel::default(),
            &LeakageModel::default(),
        ))
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
