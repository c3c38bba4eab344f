//! Hand-rolled argument parsing (the workspace builds offline, so there is
//! no `clap`).

use ssr_cpu::ControlPath;
use ssr_engine::{
    named_policies, policy_by_name, Granularity, NamedConfig, NamedPolicy, OrderPolicy, Suite,
};

/// The usage text shown on `ssr help` and on parse errors.
pub const USAGE: &str = "\
ssr — selective-state-retention verification campaigns (DATE 2009 flow)

USAGE:
    ssr <COMMAND> [OPTIONS]

COMMANDS:
    campaign   Check every (config x policy x suite) job on a worker pool
    check      Check one policy against one suite (a one-job campaign);
               requires an explicit, single --suite
    minimise   Reproduce the paper's minimal-retention-set search with the
               engine as the verification oracle
    stats      Print the generated core's state classification, netlist
               census, retention-intent audit and area/leakage savings
    serve      Run the campaign-serving daemon: accept `ssr-serve/v1`
               submissions over TCP, queue them by priority, stream each
               job result back as it lands, and journal every request so
               a crash loses no completed work
    submit     Submit a campaign to a running daemon and stream its
               results (or --cancel/--status/--shutdown it)
    diff       Compare two campaign artifacts (reports or checkpoint
               journals): verdict transitions per job, added/removed jobs,
               wall-time and ITE-hit-rate deltas.  Exits 1 iff a verdict
               regressed — the CI regression gate.  With --canonical,
               instead require the two reports to be byte-identical in
               canonical form (the serve-vs-direct CI check).
               Usage: ssr diff [--canonical] OLD.json NEW.json
    help       Show this text

OPTIONS:
    --config <small|paper|d<N>>   Core configuration; repeatable.  `d<N>`
                                  is a square core with N-word memories
                                  (N a power of two).        [default: small]
    --policy <NAME|all>           Retention policy; repeatable or
                                  comma-separated.  Names: architectural,
                                  full, none, no-pc, no-imem, no-regfile,
                                  no-dmem.          [default: architectural]
    --suite <one|two|ifr|all>     Property suite; repeatable or
                                  comma-separated.  [default: all; minimise
                                  defaults to the Property II oracle]
    --jobs <N>                    Worker threads (0 = one per CPU) [default: 0]
    --granularity <suite|assertion>
                                  Job granularity: whole suites, or one job
                                  per proof obligation.  [default: suite for
                                  campaign/check, assertion for minimise]
    --order <PRESET>              Static variable-order preset the property
                                  suites compile under: interleaved
                                  (default), sequential, reverse, or
                                  explicit(name;name;...) — listed variable
                                  names are declared first, unmatched names
                                  are ignored (check with `ssr stats`).
                                  Part of the job
                                  identity (reports gain an order= field),
                                  so resume never mixes verdicts across
                                  orders.  Caution: sequential is the
                                  ablation baseline and is exponential for
                                  32-bit operand suites (one/two); use it
                                  with --suite ifr.
    --control-path <ifr|combinational|unsafe>
                                  Control-path variant of the generated
                                  core.  Non-default variants tag the
                                  config name (e.g. small+unsafe-reset-ifr)
                                  so resume/diff job identities stay
                                  per-design.                [default: ifr]
    --json <PATH|->               Also write the campaign report as JSON
                                  to PATH (or stdout for `-`)
    --quiet                       Suppress the result table
    --verbose                     Stream per-job progress to stderr

CAMPAIGN PERSISTENCE:
    --resume <REPORT|JOURNAL>     Skip every job whose verdict the file
                                  already records (the job's identity —
                                  config/policy/suite/part — is validated
                                  against the enumeration, never just its
                                  index) and run only the remainder; the
                                  merged report is byte-identical (canonical
                                  form) to an uninterrupted run
    --checkpoint <PATH>           Append each finished job to this journal
                                  (schema ssr-campaign-journal/v1) so an
                                  interrupted run stays resumable.  Default:
                                  with `--json FILE`, FILE.partial is
                                  journalled automatically and removed once
                                  the complete report is written
    --limit <N>                   Stop after N job completions, leaving a
                                  partial report/journal (interruption
                                  simulation for tests and CI smoke)

RESOURCE BUDGETS (campaign/check/submit):
    --node-budget <N>             Per-job ceiling on live BDD nodes.  A job
                                  that exhausts a budget is retried once
                                  with every budget doubled (graceful
                                  degradation); if that
                                  also exhausts, the job is recorded as a
                                  structured `budget_nodes` error and the
                                  campaign continues — budgets never abort
                                  a run and never flip holds <-> fails
    --step-budget <N>             Per-job ceiling on ITE recursion steps
                                  (`budget_steps`).  Node and step budgets
                                  are deterministic: the same spec exhausts
                                  at the same point whatever --jobs is
    --deadline-ms <MS>            Per-job wall-clock deadline, re-anchored
                                  for the degradation retry
                                  (`budget_time`; inherently nondeterministic)

SERVE OPTIONS (ssr serve):
    --addr <HOST:PORT>            Bind address; port 0 picks a free port
                                                     [default: 127.0.0.1:7878]
    --addr-file <PATH>            Write the bound address to PATH once
                                  listening (how scripts find a port-0
                                  daemon)
    --queue-capacity <N>          Pending submissions before backpressure
                                  rejection                    [default: 64]
    --parallel <N>                Campaigns running concurrently [default: 1]
    --journal-dir <DIR>           Directory for per-request checkpoint
                                  journals (req-<id>.journal); enables
                                  crash-resume    [default: no persistence]
    --jobs <N>                    Worker threads per campaign (0 = one per
                                  CPU); overrides submitted specs
    --idle-timeout-ms <MS>        Reap connections idle this long that have
                                  no queued/running submission (streaming
                                  clients are never reaped); 0 = never
                                                                 [default: 0]

SUBMIT OPTIONS (ssr submit):
    --addr <HOST:PORT>            Daemon to talk to [default: 127.0.0.1:7878]
    --priority <N>                Scheduling priority (higher runs first)
                                                                 [default: 0]
    --resume <NAME>               Server-side journal file name to resume
                                  from (as acked by a previous submit)
    --detach                      Print `id <N>` after the ack and exit
                                  without streaming (the run continues
                                  server-side; its journal is kept)
    --cancel <ID>                 Cancel request ID instead of submitting
    --status                      Print the daemon's request table instead
                                  of submitting
    --shutdown                    Stop the daemon instead of submitting
    Campaign shape flags (--config/--policy/--suite/--granularity/--order)
    choose what to submit;
    --json/--quiet control output like `ssr campaign`.

EXIT CODE:
    campaign/check: 0 if every checked assertion holds; 3 if the only
           non-holding jobs were budget-limited (structured budget_*
           errors — resource exhaustion, not a verification failure);
           1 otherwise (a --limit run is judged on the jobs it
           completed).
    diff: 0 if no verdict regressed, 1 on regression, 2 on unreadable
          artifacts.  --canonical: 0 iff canonically byte-identical.
    serve: 0 on clean shutdown, 2 on bind/setup errors.
    submit: 0 if every checked assertion held (or the control request
            succeeded), 1 on failures or a cancelled run, 2 on
            connection or protocol errors.
    minimise: 0 if the baseline (all-architectural) policy verifies;
              rejected exploration candidates are expected to fail and do
              not affect the exit code.
    stats/help: 0.  Usage errors: 2.
";

/// Which subcommand runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// The full product campaign.
    Campaign,
    /// A single policy × suite check.
    Check,
    /// Engine-driven retention-set minimisation.
    Minimise,
    /// Core statistics, no checking.
    Stats,
    /// The campaign-serving daemon.
    Serve,
    /// Submit to (or control) a running daemon.
    Submit,
    /// Campaign-report regression diffing.
    Diff,
    /// Print usage.
    Help,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Command {
    /// The subcommand.
    pub action: Action,
    /// Core configurations.
    pub configs: Vec<NamedConfig>,
    /// Retention policies.
    pub policies: Vec<NamedPolicy>,
    /// Property suites; empty means "the subcommand's default" (`all` for
    /// campaign, Property II for minimise).
    pub suites: Vec<Suite>,
    /// Worker threads (0 = auto).
    pub jobs: usize,
    /// Job granularity, if explicitly requested (subcommands pick their own
    /// default otherwise: `suite` for campaigns, `assertion` for the
    /// minimisation oracle).
    pub granularity: Option<Granularity>,
    /// Variable-order preset (`--order`).
    pub order: OrderPolicy,
    /// Where to write the JSON report (`-` = stdout).
    pub json: Option<String>,
    /// Suppress the table.
    pub quiet: bool,
    /// Stream per-job progress to stderr.
    pub verbose: bool,
    /// `ssr diff OLD NEW`: the two report paths.
    pub diff: Option<(String, String)>,
    /// `campaign --resume`: path of the report/journal to resume from
    /// (`submit --resume`: server-side journal file name).
    pub resume: Option<String>,
    /// `campaign --checkpoint`: explicit journal path.
    pub checkpoint: Option<String>,
    /// `campaign --limit`: stop after this many job completions.
    pub limit: Option<usize>,
    /// `serve`/`submit --addr`: daemon address (default 127.0.0.1:7878).
    pub addr: String,
    /// `serve --addr-file`: write the bound address here once listening.
    pub addr_file: Option<String>,
    /// `serve --queue-capacity`: pending submissions before rejection.
    pub queue_capacity: usize,
    /// `serve --parallel`: concurrently running campaigns.
    pub parallel: usize,
    /// `serve --journal-dir`: per-request journal directory.
    pub journal_dir: Option<String>,
    /// `submit --priority`: scheduling priority.
    pub priority: u32,
    /// `submit --detach`: exit after the ack without streaming.
    pub detach: bool,
    /// `submit --cancel ID`: cancel instead of submitting.
    pub cancel: Option<u64>,
    /// `submit --status`: print the request table instead of submitting.
    pub status: bool,
    /// `submit --shutdown`: stop the daemon instead of submitting.
    pub shutdown: bool,
    /// `diff --canonical`: require canonical byte-identity.
    pub canonical: bool,
    /// `--node-budget`: per-job live BDD node ceiling.
    pub node_budget: Option<u64>,
    /// `--step-budget`: per-job ITE recursion step ceiling.
    pub step_budget: Option<u64>,
    /// `--deadline-ms`: per-job wall-clock deadline.
    pub deadline_ms: Option<u64>,
    /// `serve --idle-timeout-ms`: reap idle connections (0 = never).
    pub idle_timeout_ms: u64,
}

fn parse_config(text: &str, control_path: ControlPath) -> Result<NamedConfig, String> {
    let mut named = match text {
        "small" => NamedConfig::small(),
        "paper" => NamedConfig::paper(),
        other => {
            let depth: usize = other
                .strip_prefix('d')
                .and_then(|d| d.parse().ok())
                .ok_or_else(|| format!("unknown config `{other}` (try small, paper or d<N>)"))?;
            if depth < 2 || !depth.is_power_of_two() {
                return Err(format!("config depth {depth} must be a power of two >= 2"));
            }
            NamedConfig::sized(depth)
        }
    };
    named.config.control_path = control_path;
    // A non-default control path is a different hardware design: tag the
    // config *name* so it is visible in reports and — crucially — part of
    // the (config, policy, suite, part, order) identity that `--resume` and
    // `ssr diff` match jobs on.  Without the tag, a journal checkpointed
    // under `--control-path unsafe` would resume under the default path
    // and silently reuse verdicts from the wrong design.
    let tag = match control_path {
        ControlPath::RefreshingIfr => None,
        ControlPath::Combinational => Some("combinational"),
        ControlPath::UnsafeResetIfr => Some("unsafe-reset-ifr"),
    };
    if let Some(tag) = tag {
        named.name = format!("{}+{tag}", named.name);
    }
    Ok(named)
}

fn parse_policies(text: &str) -> Result<Vec<NamedPolicy>, String> {
    if text == "all" {
        return Ok(named_policies());
    }
    text.split(',')
        .map(|name| {
            policy_by_name(name.trim())
                .ok_or_else(|| format!("unknown policy `{name}` (try --policy all)"))
        })
        .collect()
}

fn parse_suites(text: &str) -> Result<Vec<Suite>, String> {
    if text == "all" {
        return Ok(Suite::ALL.to_vec());
    }
    text.split(',')
        .map(|name| {
            Suite::parse(name.trim())
                .ok_or_else(|| format!("unknown suite `{name}` (try one, two, ifr or all)"))
        })
        .collect()
}

/// Parses the raw argument vector.
///
/// # Errors
/// Returns a usage message on unknown commands, options or values.
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let action = match argv.first().map(String::as_str) {
        Some("campaign") => Action::Campaign,
        Some("check") => Action::Check,
        Some("minimise" | "minimize") => Action::Minimise,
        Some("stats") => Action::Stats,
        Some("serve") => Action::Serve,
        Some("submit") => Action::Submit,
        Some("diff") => Action::Diff,
        Some("help" | "--help" | "-h") | None => Action::Help,
        Some(other) => return Err(format!("unknown command `{other}`")),
    };

    let mut config_names: Vec<String> = Vec::new();
    let mut policies: Vec<NamedPolicy> = Vec::new();
    let mut suites: Vec<Suite> = Vec::new();
    let mut jobs = 0usize;
    let mut granularity: Option<Granularity> = None;
    let mut order = OrderPolicy::Interleaved;
    let mut control_path = ControlPath::RefreshingIfr;
    let mut json = None;
    let mut quiet = false;
    let mut verbose = false;
    let mut resume = None;
    let mut checkpoint = None;
    let mut limit = None;
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut addr_file = None;
    let mut queue_capacity = 64usize;
    let mut parallel = 1usize;
    let mut journal_dir = None;
    let mut priority = 0u32;
    let mut detach = false;
    let mut cancel = None;
    let mut status = false;
    let mut shutdown = false;
    let mut canonical = false;
    let mut node_budget = None;
    let mut step_budget = None;
    let mut deadline_ms = None;
    let mut idle_timeout_ms = 0u64;
    let mut positional: Vec<String> = Vec::new();

    let mut it = argv.iter().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--config" => config_names.push(value("--config")?),
            "--policy" => policies.extend(parse_policies(&value("--policy")?)?),
            "--suite" => suites.extend(parse_suites(&value("--suite")?)?),
            "--jobs" => {
                let v = value("--jobs")?;
                jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs needs a number, got `{v}`"))?;
            }
            "--granularity" => {
                let v = value("--granularity")?;
                granularity = Some(
                    Granularity::parse(&v).ok_or_else(|| format!("unknown granularity `{v}`"))?,
                );
            }
            "--order" => {
                let v = value("--order")?;
                order = OrderPolicy::parse(&v).ok_or_else(|| {
                    format!(
                        "unknown order `{v}` (try interleaved, sequential, reverse or \
                         explicit(name;...))"
                    )
                })?;
            }
            "--control-path" => {
                let v = value("--control-path")?;
                control_path = match v.as_str() {
                    "ifr" | "refreshing-ifr" => ControlPath::RefreshingIfr,
                    "combinational" => ControlPath::Combinational,
                    "unsafe" | "unsafe-reset-ifr" => ControlPath::UnsafeResetIfr,
                    other => return Err(format!("unknown control path `{other}`")),
                };
            }
            "--json" => json = Some(value("--json")?),
            "--quiet" => quiet = true,
            "--verbose" => verbose = true,
            "--resume" => resume = Some(value("--resume")?),
            "--checkpoint" => checkpoint = Some(value("--checkpoint")?),
            "--addr" => addr = value("--addr")?,
            "--addr-file" => addr_file = Some(value("--addr-file")?),
            "--queue-capacity" => {
                let v = value("--queue-capacity")?;
                queue_capacity =
                    v.parse::<usize>().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        format!("--queue-capacity needs a number >= 1, got `{v}`")
                    })?;
            }
            "--parallel" => {
                let v = value("--parallel")?;
                parallel = v
                    .parse::<usize>()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("--parallel needs a number >= 1, got `{v}`"))?;
            }
            "--journal-dir" => journal_dir = Some(value("--journal-dir")?),
            "--priority" => {
                let v = value("--priority")?;
                priority = v
                    .parse()
                    .map_err(|_| format!("--priority needs a number, got `{v}`"))?;
            }
            "--detach" => detach = true,
            "--cancel" => {
                let v = value("--cancel")?;
                cancel = Some(
                    v.parse()
                        .map_err(|_| format!("--cancel needs a request id, got `{v}`"))?,
                );
            }
            "--status" => status = true,
            "--shutdown" => shutdown = true,
            "--canonical" => canonical = true,
            "--limit" => {
                let v = value("--limit")?;
                limit = Some(
                    v.parse()
                        .map_err(|_| format!("--limit needs a number, got `{v}`"))?,
                );
            }
            "--node-budget" => {
                let v = value("--node-budget")?;
                node_budget = Some(
                    v.parse::<u64>()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| format!("--node-budget needs a number >= 1, got `{v}`"))?,
                );
            }
            "--step-budget" => {
                let v = value("--step-budget")?;
                step_budget = Some(
                    v.parse::<u64>()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| format!("--step-budget needs a number >= 1, got `{v}`"))?,
                );
            }
            "--deadline-ms" => {
                let v = value("--deadline-ms")?;
                deadline_ms = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--deadline-ms needs a number, got `{v}`"))?,
                );
            }
            "--idle-timeout-ms" => {
                let v = value("--idle-timeout-ms")?;
                idle_timeout_ms = v
                    .parse::<u64>()
                    .map_err(|_| format!("--idle-timeout-ms needs a number, got `{v}`"))?;
            }
            other if action == Action::Diff && !other.starts_with('-') => {
                positional.push(other.to_owned());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }

    let diff = if action == Action::Diff {
        match <[String; 2]>::try_from(positional) {
            Ok([old, new]) => Some((old, new)),
            Err(_) => return Err("diff needs exactly two paths: OLD.json NEW.json".into()),
        }
    } else {
        None
    };

    let configs = if config_names.is_empty() {
        vec![parse_config("small", control_path)?]
    } else {
        config_names
            .iter()
            .map(|name| parse_config(name, control_path))
            .collect::<Result<_, _>>()?
    };
    if policies.is_empty() {
        policies = vec![policy_by_name("architectural").expect("named policy exists")];
    }

    if action == Action::Submit {
        let controls = [cancel.is_some(), status, shutdown]
            .into_iter()
            .filter(|set| *set)
            .count();
        if controls > 1 {
            return Err("--cancel, --status and --shutdown are mutually exclusive".into());
        }
        if controls == 1 && detach {
            return Err("--detach only applies to submissions".into());
        }
    }

    if action == Action::Check && (configs.len() != 1 || policies.len() != 1 || suites.len() != 1) {
        return Err(
            "`check` is a one-job campaign: at most one --config, one --policy (defaults to \
             architectural) and exactly one explicit --suite"
                .into(),
        );
    }

    Ok(Command {
        action,
        configs,
        policies,
        suites,
        jobs,
        granularity,
        order,
        json,
        quiet,
        verbose,
        diff,
        resume,
        checkpoint,
        limit,
        addr,
        addr_file,
        queue_capacity,
        parallel,
        journal_dir,
        priority,
        detach,
        cancel,
        status,
        shutdown,
        canonical,
        node_budget,
        step_budget,
        deadline_ms,
        idle_timeout_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn campaign_all_expands_policies_and_suites() {
        let cmd = parse(&argv(&[
            "campaign", "--policy", "all", "--suite", "all", "--jobs", "4",
        ]))
        .expect("parses");
        assert_eq!(cmd.action, Action::Campaign);
        assert_eq!(cmd.policies.len(), named_policies().len());
        assert_eq!(cmd.suites, Suite::ALL.to_vec());
        assert_eq!(cmd.jobs, 4);
    }

    #[test]
    fn comma_separated_lists_work() {
        let cmd = parse(&argv(&[
            "campaign",
            "--policy",
            "architectural,none",
            "--suite",
            "one,ifr",
        ]))
        .expect("parses");
        assert_eq!(cmd.policies.len(), 2);
        assert_eq!(cmd.suites, vec![Suite::PropertyOne, Suite::Ifr]);
    }

    #[test]
    fn check_requires_exactly_one_policy_and_suite() {
        assert!(parse(&argv(&["check", "--policy", "all", "--suite", "two"])).is_err());
        assert!(parse(&argv(&["check", "--policy", "no-pc"])).is_err());
        assert!(parse(&argv(&[
            "check", "--config", "small", "--config", "paper", "--suite", "two"
        ]))
        .is_err());
        assert!(parse(&argv(&["check", "--policy", "no-pc", "--suite", "two"])).is_ok());
    }

    #[test]
    fn granularity_is_none_unless_requested() {
        assert_eq!(
            parse(&argv(&["minimise"])).expect("parses").granularity,
            None
        );
        assert_eq!(
            parse(&argv(&["minimise", "--granularity", "suite"]))
                .expect("parses")
                .granularity,
            Some(Granularity::Suite)
        );
        assert!(parse(&argv(&["minimise"]))
            .expect("parses")
            .suites
            .is_empty());
    }

    #[test]
    fn sized_configs_parse_and_validate() {
        let cmd = parse(&argv(&["campaign", "--config", "d16"])).expect("parses");
        assert_eq!(cmd.configs[0].name, "d16");
        assert_eq!(cmd.configs[0].config.imem_depth, 16);
        assert!(parse(&argv(&["campaign", "--config", "d3"])).is_err());
        assert!(parse(&argv(&["campaign", "--config", "huge"])).is_err());
    }

    #[test]
    fn unknown_flags_and_commands_are_rejected() {
        assert!(parse(&argv(&["explode"])).is_err());
        assert!(parse(&argv(&["campaign", "--frobnicate"])).is_err());
        assert!(parse(&argv(&["campaign", "--policy"])).is_err());
        // Removed commands and options fail as usage errors.
        assert_eq!(
            parse(&argv(&["bench"])).unwrap_err(),
            "unknown command `bench`"
        );
        assert!(parse(&argv(&["bench", "--diff", "a", "b"])).is_err());
        for flag in [
            &["--iterations", "3"][..],
            &["--warmup", "0"],
            &["--workload", "kernel"],
            &["--serve"],
            &["--clients", "8"],
            &["--requests", "3"],
        ] {
            let mut args = vec!["campaign"];
            args.extend_from_slice(flag);
            assert_eq!(
                parse(&argv(&args)).unwrap_err(),
                format!("unknown option `{}`", flag[0])
            );
        }
    }

    #[test]
    fn diff_takes_exactly_two_positional_paths() {
        let cmd = parse(&argv(&["diff", "old.json", "new.json"])).expect("parses");
        assert_eq!(cmd.action, Action::Diff);
        assert_eq!(
            cmd.diff,
            Some(("old.json".to_owned(), "new.json".to_owned()))
        );
        assert!(parse(&argv(&["diff", "old.json"])).is_err());
        assert!(parse(&argv(&["diff", "a.json", "b.json", "c.json"])).is_err());
        assert!(parse(&argv(&["diff", "--frobnicate", "a", "b"])).is_err());
    }

    #[test]
    fn ordering_flags_parse_with_defaults() {
        let cmd = parse(&argv(&["campaign"])).expect("parses");
        assert_eq!(cmd.order, OrderPolicy::Interleaved);

        let cmd = parse(&argv(&["campaign", "--order", "sequential"])).expect("parses");
        assert_eq!(cmd.order, OrderPolicy::Sequential);

        let cmd = parse(&argv(&["campaign", "--order", "explicit(a[0];b[0])"])).expect("parses");
        assert_eq!(
            cmd.order,
            OrderPolicy::Explicit(vec!["a[0]".into(), "b[0]".into()])
        );

        assert!(parse(&argv(&["campaign", "--order", "bogus"])).is_err());
        // The dynamic-reordering flags are gone: unknown options now.
        assert!(parse(&argv(&["campaign", "--reorder"])).is_err());
        assert!(parse(&argv(&["campaign", "--max-growth", "1.5"])).is_err());
    }

    #[test]
    fn persistence_flags_parse() {
        let cmd = parse(&argv(&[
            "campaign",
            "--resume",
            "partial.journal",
            "--checkpoint",
            "run.journal",
            "--limit",
            "3",
        ]))
        .expect("parses");
        assert_eq!(cmd.resume.as_deref(), Some("partial.journal"));
        assert_eq!(cmd.checkpoint.as_deref(), Some("run.journal"));
        assert_eq!(cmd.limit, Some(3));
        assert!(parse(&argv(&["campaign", "--limit", "soon"])).is_err());
        assert!(parse(&argv(&["campaign", "--resume"])).is_err());

        let cmd = parse(&argv(&["campaign"])).expect("parses");
        assert_eq!(cmd.resume, None);
        assert_eq!(cmd.checkpoint, None);
        assert_eq!(cmd.limit, None);
    }

    #[test]
    fn serve_flags_parse_with_defaults() {
        let cmd = parse(&argv(&["serve"])).expect("parses");
        assert_eq!(cmd.action, Action::Serve);
        assert_eq!(cmd.addr, "127.0.0.1:7878");
        assert_eq!(cmd.queue_capacity, 64);
        assert_eq!(cmd.parallel, 1);
        assert_eq!(cmd.journal_dir, None);

        let cmd = parse(&argv(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            "serve.addr",
            "--queue-capacity",
            "8",
            "--parallel",
            "2",
            "--journal-dir",
            "journals",
        ]))
        .expect("parses");
        assert_eq!(cmd.addr, "127.0.0.1:0");
        assert_eq!(cmd.addr_file.as_deref(), Some("serve.addr"));
        assert_eq!(cmd.queue_capacity, 8);
        assert_eq!(cmd.parallel, 2);
        assert_eq!(cmd.journal_dir.as_deref(), Some("journals"));
        assert!(parse(&argv(&["serve", "--queue-capacity", "0"])).is_err());
        assert!(parse(&argv(&["serve", "--parallel", "0"])).is_err());
    }

    #[test]
    fn submit_flags_parse_and_exclude_each_other() {
        let cmd = parse(&argv(&["submit", "--priority", "5", "--detach"])).expect("parses");
        assert_eq!(cmd.action, Action::Submit);
        assert_eq!(cmd.priority, 5);
        assert!(cmd.detach);

        let cmd = parse(&argv(&["submit", "--cancel", "7"])).expect("parses");
        assert_eq!(cmd.cancel, Some(7));
        assert!(parse(&argv(&["submit", "--cancel", "7", "--status"])).is_err());
        assert!(parse(&argv(&["submit", "--shutdown", "--detach"])).is_err());
        assert!(parse(&argv(&["submit", "--cancel", "soon"])).is_err());
    }

    #[test]
    fn diff_canonical_and_bench_serve_flags_parse() {
        let cmd = parse(&argv(&["diff", "--canonical", "a.json", "b.json"])).expect("parses");
        assert!(cmd.canonical);
        assert_eq!(cmd.diff, Some(("a.json".to_owned(), "b.json".to_owned())));
    }

    #[test]
    fn budget_flags_parse_with_unlimited_defaults() {
        let cmd = parse(&argv(&["campaign"])).expect("parses");
        assert_eq!(cmd.node_budget, None);
        assert_eq!(cmd.step_budget, None);
        assert_eq!(cmd.deadline_ms, None);
        assert_eq!(cmd.idle_timeout_ms, 0);

        let cmd = parse(&argv(&[
            "campaign",
            "--node-budget",
            "100000",
            "--step-budget",
            "500000",
            "--deadline-ms",
            "2000",
        ]))
        .expect("parses");
        assert_eq!(cmd.node_budget, Some(100_000));
        assert_eq!(cmd.step_budget, Some(500_000));
        assert_eq!(cmd.deadline_ms, Some(2000));

        // A zero deadline is legal (it trips immediately — the smoke
        // test's lever); zero node/step budgets are not.
        assert!(parse(&argv(&["campaign", "--deadline-ms", "0"])).is_ok());
        assert!(parse(&argv(&["campaign", "--node-budget", "0"])).is_err());
        assert!(parse(&argv(&["campaign", "--step-budget", "none"])).is_err());

        let cmd = parse(&argv(&["serve", "--idle-timeout-ms", "1500"])).expect("parses");
        assert_eq!(cmd.idle_timeout_ms, 1500);
        assert!(parse(&argv(&["serve", "--idle-timeout-ms", "soon"])).is_err());
    }

    #[test]
    fn control_path_applies_to_every_config() {
        let cmd = parse(&argv(&[
            "check",
            "--policy",
            "architectural",
            "--suite",
            "two",
            "--control-path",
            "unsafe",
        ]))
        .expect("parses");
        assert_eq!(
            cmd.configs[0].config.control_path,
            ControlPath::UnsafeResetIfr
        );
        // The tag keeps resume/diff job identities distinct per design.
        assert_eq!(cmd.configs[0].name, "small+unsafe-reset-ifr");
        let default = parse(&argv(&["check", "--suite", "two"])).expect("parses");
        assert_eq!(default.configs[0].name, "small");
    }
}
