//! `ssrbench` — the repository benchmark.
//!
//! ```text
//! ssrbench --workload <ifr-paper|policy-sweep|served-small> --seed N
//!          --seconds S --trace <0|1> [--smoke]
//! ssrbench --write-expected
//! ```
//!
//! With `--trace 0` it runs the workload untraced for `S` seconds and
//! reports the end-to-end metrics; with `--trace 1` it makes one traced run
//! and reports the per-layer metrics.  Every verdict is checked against
//! `expected/<config>.tsv`.  The last line of standard output is the result
//! object; the line before it is the full report, run header included.  See
//! `README.md` for every metric and why each workload exists.

mod oracle;
mod trace;
mod util;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ssr_engine::json::Json;
use ssr_engine::{CampaignReport, CampaignSpec, ManagerPool, PoolStats};

use oracle::{Outcome, Table};
use trace::Tracer;
use util::{median, peak_rss_mb, quantile};
use workloads::{Daemon, Request, Shape, Workload};

/// `(name, unit, better)` of every end-to-end metric (`--trace 0`).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("assertions_per_s", "1/s", "higher"),
    ("job_p50_ms", "ms", "lower"),
    ("job_p95_ms", "ms", "lower"),
    ("request_p50_ms", "ms", "lower"),
    ("request_p90_ms", "ms", "lower"),
];

/// `(name, unit, better)` of every per-layer metric (`--trace 1`).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("bdd.ite_misses", "count", "lower"),
    ("bdd.ite_hit_rate", "share", "higher"),
    ("bdd.gc_passes", "count", "lower"),
    ("bdd.gc_reclaimed", "count", "lower"),
    ("bdd.peak_live_nodes", "count", "lower"),
    ("bdd.nodes_allocated", "count", "lower"),
    ("bdd.bytes_per_node", "B", "lower"),
    ("bdd.resets", "count", "lower"),
    ("cpu.build_core_ms", "ms", "lower"),
    ("netlist.nets", "count", "lower"),
    ("netlist.cells", "count", "lower"),
    ("sim.compile_ms", "ms", "lower"),
    ("sim.step_ms_p50", "ms", "lower"),
    ("sim.step_ms_max", "ms", "lower"),
    ("sim.ite_misses_per_step", "count", "lower"),
    ("properties.build_ms", "ms", "lower"),
    ("ste.elaborate_ms", "ms", "lower"),
    ("ste.constraints", "count", "lower"),
    ("ste.check_ms", "ms", "lower"),
    ("ste.counterexamples", "count", "lower"),
    ("ste.cex_unexplained", "count", "lower"),
    ("engine.harness_ms", "ms", "lower"),
    ("engine.pool_utilisation", "share", "higher"),
    ("engine.pool_reuse_hits", "count", "higher"),
    ("engine.pool_fresh", "count", "lower"),
    ("serve.ack_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.journal_bytes", "B", "lower"),
    ("serve.queue_ms", "ms", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.coverage", "share", "higher"),
    ("self_ms.cpu", "ms", "lower"),
    ("self_ms.sim", "ms", "lower"),
    ("self_ms.properties", "ms", "lower"),
    ("self_ms.ste", "ms", "lower"),
    ("self_ms.engine", "ms", "lower"),
    ("self_ms.serve", "ms", "lower"),
];

/// Reported in both modes; they feed `correct` and `failed` and are
/// always 0 on a correct build, so they carry no regression bound.
pub const CHECKS: &[(&str, &str)] = &[("verdict_mismatches", "count"), ("error_share", "share")];

/// `setup_s` is the median of at least `SETUP_REPS` harness-set builds,
/// repeated until they have taken `SETUP_MIN_S` (cheap set-ups get more
/// samples) or `SETUP_MAX_REPS` is reached.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 3.0;
const SETUP_MAX_REPS: usize = 100;

/// The one request of the serve probe that the direct workloads' traced
/// runs make, so every traced run measures the serve layer.
const SERVE_PROBE: &str = r#"{"configs":["small"],"policies":["architectural"],"suites":["two"]}"#;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    write_expected: bool,
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where the expected-verdict tables live.
fn expected_dir() -> PathBuf {
    bench_dir().join("expected")
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        write_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--write-expected" => args.write_expected = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.write_expected && !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Everything one run measured.
#[derive(Default)]
struct Results {
    metrics: BTreeMap<&'static str, f64>,
    outcome: Outcome,
    /// Jobs (direct workloads) or requests (served) attempted.
    attempted: u64,
    /// Of those, the ones that ended in an error, budget or rejection.
    failed: u64,
    samples: Vec<(&'static str, Json)>,
}

impl Results {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn note(&mut self, name: &'static str, value: f64) {
        self.samples.push((name, Json::Num(value)));
    }

    /// Folds in a direct campaign's checked outcome.
    fn add_jobs(&mut self, outcome: Outcome) {
        self.outcome.add(outcome);
        self.attempted += outcome.jobs;
        self.failed += outcome.job_errors;
    }

    fn error_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn pool_delta(before: &PoolStats) -> (u64, u64) {
    let after = ManagerPool::global().stats();
    (
        after.reuse_hits - before.reuse_hits,
        after.fresh - before.fresh,
    )
}

/// Checks served requests against the table, folding the outcome in.
fn check_requests(
    results: &mut Results,
    table: &Table,
    clients: &[Vec<CampaignSpec>],
    requests: &[Request],
) {
    for r in requests {
        results.attempted += 1;
        match &r.result {
            Ok(report) => {
                let (c, k) = r.spec_index;
                let outcome = table.check(&clients[c][k].jobs(), report);
                results.outcome.add(outcome);
                results.failed += u64::from(outcome.job_errors > 0);
            }
            Err(e) => {
                eprintln!("request failed: {e}");
                results.failed += 1;
            }
        }
    }
}

fn untraced(workload: &Workload, table: &Table, seconds: f64) -> Results {
    let mut results = Results::default();
    let jobs = workload.distinct_jobs();
    let mut setup: Vec<f64> = Vec::new();
    while setup.len() < SETUP_REPS
        || (setup.iter().sum::<f64>() < SETUP_MIN_S && setup.len() < SETUP_MAX_REPS)
    {
        let start = Instant::now();
        let harnesses = workloads::Harnesses::build(&jobs, None);
        setup.push(start.elapsed().as_secs_f64());
        assert!(harnesses.all_ok(), "every workload core builds");
    }
    results.set("setup_s", median(&setup));

    let (mut walls, mut rates, mut job_ms, mut request_ms) = (vec![], vec![], vec![], vec![]);
    let started = Instant::now();
    let more = |walls: &Vec<f64>| {
        walls.is_empty() || started.elapsed().as_secs_f64() + median(walls) <= seconds
    };
    match &workload.shape {
        Shape::Direct(spec) => {
            while more(&walls) {
                let run = workloads::run_direct(spec);
                let outcome = table.check(&jobs, &run.report);
                results.add_jobs(outcome);
                rates.push(outcome.assertions as f64 / run.wall_s);
                walls.push(run.wall_s);
                request_ms.push(run.wall_s * 1e3);
                job_ms.extend(run.job_ms);
            }
        }
        Shape::Served(clients) => {
            let daemon = Daemon::start(&journal_dir());
            while more(&walls) {
                let (requests, wall_s) = daemon.run(clients);
                let before = results.outcome.assertions;
                check_requests(&mut results, table, clients, &requests);
                rates.push((results.outcome.assertions - before) as f64 / wall_s);
                walls.push(wall_s);
                for r in requests.iter().filter(|r| r.result.is_ok()) {
                    request_ms.push(r.latency_ms());
                    job_ms.extend(&r.job_ms);
                }
            }
            daemon.stop();
        }
    }
    results.set("wall_s", median(&walls));
    results.set("assertions_per_s", median(&rates));
    results.set("job_p50_ms", median(&job_ms));
    results.set("job_p95_ms", quantile(&job_ms, 0.95));
    results.set("request_p50_ms", median(&request_ms));
    results.set("request_p90_ms", quantile(&request_ms, 0.90));
    results.set("peak_rss_mb", peak_rss_mb());
    results.note("iterations", walls.len() as f64);
    results.note("job_samples", job_ms.len() as f64);
    results.note("request_samples", request_ms.len() as f64);
    results.note("setup_samples", setup.len() as f64);
    results
}

fn journal_dir() -> PathBuf {
    bench_dir()
        .join("results")
        .join(format!("journal-{}", std::process::id()))
}

/// Records the served requests' client-side spans: `serve.request` with
/// `serve.submit` (submit → ack), `serve.queue` (ack → first job line) and
/// `engine.served` (first job line → report) inside it.
fn record_requests(tracer: &Tracer, requests: &[Request], first_group: u64) {
    for (i, r) in requests.iter().enumerate() {
        let group = first_group + i as u64;
        let parent = tracer.record("serve.request", None, group, r.start, r.end);
        tracer.record("serve.submit", Some(parent), group, r.start, r.ack);
        let first = r.lines.first().copied().unwrap_or(r.end);
        tracer.record("serve.queue", Some(parent), group, r.ack, first);
        tracer.record("engine.served", Some(parent), group, first, r.end);
    }
}

fn set_serve_metrics(results: &mut Results, requests: &[Request]) {
    let ok: Vec<&Request> = requests.iter().filter(|r| r.result.is_ok()).collect();
    let ack: Vec<f64> = ok.iter().map(|r| r.ack_ms()).collect();
    let queue: Vec<f64> = ok.iter().filter_map(|r| r.queue_ms()).collect();
    let overhead: Vec<f64> = ok.iter().filter_map(|r| r.overhead_ms()).collect();
    let bytes: Vec<f64> = ok.iter().map(|r| r.journal_bytes as f64).collect();
    results.set("serve.ack_ms", median(&ack));
    results.set("serve.queue_ms", median(&queue));
    results.set("serve.overhead_ms", median(&overhead));
    results.set("serve.journal_bytes", median(&bytes));
}

/// Σ job wall over threads × campaign wall, across `reports`.
fn pool_utilisation<'a>(reports: impl Iterator<Item = &'a CampaignReport>) -> f64 {
    let (mut busy, mut capacity) = (0u64, 0u64);
    for report in reports {
        busy += report.jobs.iter().map(|j| j.wall_ms).sum::<u64>();
        capacity += report.threads * report.total_wall_ms;
    }
    busy as f64 / capacity.max(1) as f64
}

fn traced(workload: &Workload, table: &Table) -> (Results, Tracer) {
    let mut results = Results::default();
    let tracer = Tracer::default();
    let jobs = workload.distinct_jobs();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // The untraced reference runs first, so the peak RSS read after it is
    // the workload's own.  Then the traced run of the same work.
    let pool_before = ManagerPool::global().stats();
    let (untraced_wall, traced_wall, covered_ms, rss_mb, pass, requests) = match &workload.shape {
        Shape::Direct(spec) => {
            let run = workloads::run_direct(spec);
            let rss = peak_rss_mb();
            results.add_jobs(table.check(&jobs, &run.report));
            let (reuse, fresh) = pool_delta(&pool_before);
            results.set("engine.pool_reuse_hits", reuse as f64);
            results.set("engine.pool_fresh", fresh as f64);
            let util = pool_utilisation(std::iter::once(&run.report));
            results.set("engine.pool_utilisation", util);

            let threads = spec.effective_threads(jobs.len());
            let pass = workloads::traced_jobs(&jobs, threads, &tracer);
            let spans = tracer.spans();
            let covered = trace::total_ms(&spans, "engine.harness")
                + trace::total_ms(&spans, "engine.job") / threads as f64;
            let requests = serve_probe(&tracer);
            (run.wall_s, pass.wall_s, covered, rss, pass, requests)
        }
        Shape::Served(clients) => {
            let daemon = Daemon::start(&journal_dir());
            let (reference, untraced_wall) = daemon.run(clients);
            let rss = peak_rss_mb();
            check_requests(&mut results, table, clients, &reference);
            let (reuse, fresh) = pool_delta(&pool_before);
            results.set("engine.pool_reuse_hits", reuse as f64);
            results.set("engine.pool_fresh", fresh as f64);

            let (requests, wall) = daemon.run(clients);
            daemon.stop();
            check_requests(&mut results, table, clients, &requests);
            record_requests(&tracer, &requests, 0);
            let util = pool_utilisation(requests.iter().filter_map(|r| r.result.as_ref().ok()));
            results.set("engine.pool_utilisation", util);
            let covered = trace::total_ms(&tracer.spans(), "serve.request") / clients.len() as f64;
            // Kernel counts come from one rotation of the loop's campaigns.
            let pass = workloads::traced_jobs(&jobs, cpus, &tracer);
            (untraced_wall, wall, covered, rss, pass, requests)
        }
    };
    let report = CampaignReport {
        threads: pass.threads as u64,
        granularity: String::new(),
        jobs: pass.results.clone(),
        total_wall_ms: 0,
    };
    let checked = table.check(&jobs, &report);
    results.outcome.mismatches += checked.mismatches;
    results.failed += checked.job_errors;

    let probe = workloads::probe_layers(&jobs, &pass.harnesses, pass.threads, &tracer);
    results.failed += probe.elaboration_errors;
    let spans = tracer.spans();

    let k = pass.kernel;
    results.set("bdd.ite_misses", k.ite_misses as f64);
    results.set(
        "bdd.ite_hit_rate",
        k.ite_hits as f64 / (k.ite_hits + k.ite_misses).max(1) as f64,
    );
    results.set("bdd.gc_passes", k.gc_passes as f64);
    results.set("bdd.gc_reclaimed", k.gc_reclaimed as f64);
    results.set("bdd.peak_live_nodes", k.peak_live_nodes as f64);
    results.set("bdd.nodes_allocated", k.nodes_allocated as f64);
    results.set(
        "bdd.bytes_per_node",
        rss_mb * 1024.0 * 1024.0 / k.peak_live_nodes.max(1) as f64,
    );
    results.set("bdd.resets", k.resets as f64);

    results.set(
        "cpu.build_core_ms",
        trace::total_ms(&spans, "cpu.build_core"),
    );
    results.set("netlist.nets", probe.nets as f64);
    results.set("netlist.cells", probe.cells as f64);
    results.set("sim.compile_ms", trace::total_ms(&spans, "sim.compile"));
    let steps = trace::durations_ms(&spans, "sim.step");
    results.set("sim.step_ms_p50", median(&steps));
    results.set("sim.step_ms_max", quantile(&steps, 1.0));
    results.set(
        "sim.ite_misses_per_step",
        probe.step_ite_misses as f64 / probe.steps.max(1) as f64,
    );
    results.set(
        "properties.build_ms",
        trace::total_ms(&spans, "properties.assertions"),
    );
    results.set("ste.elaborate_ms", trace::total_ms(&spans, "ste.elaborate"));
    results.set("ste.constraints", checked.constraints as f64);
    let check_ms: u64 = pass
        .results
        .iter()
        .flat_map(|j| &j.assertions)
        .map(|a| a.wall_ms)
        .sum();
    results.set("ste.check_ms", check_ms as f64);
    results.set("ste.counterexamples", checked.counterexamples as f64);
    results.set("ste.cex_unexplained", checked.cex_unexplained as f64);
    results.set(
        "engine.harness_ms",
        trace::total_ms(&spans, "engine.harness"),
    );
    set_serve_metrics(&mut results, &requests);

    results.set("trace.wall_s", traced_wall);
    results.set("trace.untraced_wall_s", untraced_wall);
    results.set("trace.overhead_share", traced_wall / untraced_wall - 1.0);
    results.set("trace.coverage", covered_ms / (traced_wall * 1e3));
    let self_ms = trace::self_ms_by_layer(&spans);
    for (layer, name) in [
        ("cpu", "self_ms.cpu"),
        ("sim", "self_ms.sim"),
        ("properties", "self_ms.properties"),
        ("ste", "self_ms.ste"),
        ("engine", "self_ms.engine"),
        ("serve", "self_ms.serve"),
    ] {
        results.set(name, self_ms.get(layer).copied().unwrap_or(0.0));
    }
    results.note("spans", spans.len() as f64);
    results.note("sim_steps", probe.steps as f64);
    results.note("kernel_jobs", pass.results.len() as f64);
    (results, tracer)
}

/// The direct workloads' serve probe: one small request through an
/// in-process daemon, with its client-side spans.
fn serve_probe(tracer: &Tracer) -> Vec<Request> {
    let json = Json::parse(SERVE_PROBE).expect("probe spec is valid JSON");
    let spec = ssr_engine::spec_from_json(&json).expect("probe spec names known things");
    let daemon = Daemon::start(&journal_dir());
    let (requests, _) = daemon.run(&[vec![spec]]);
    daemon.stop();
    record_requests(tracer, &requests, u64::MAX / 2);
    requests
}

/// Runs the campaigns the tables come from and writes `<config>.tsv`.
fn write_expected(dir: &Path) -> Result<(), String> {
    let mut paper = Table::default();
    for name in ["ifr-paper", "policy-sweep"] {
        let workload = Workload::new(name, 0, false).expect("known workload");
        if let Shape::Direct(spec) = &workload.shape {
            paper.0.extend(Table::from_report(&spec.run()).0);
        }
    }
    let names: Vec<String> = ssr_engine::named_policies()
        .into_iter()
        .map(|p| p.name)
        .collect();
    let all = workloads::policy_list(&names);
    let text =
        format!(r#"{{"configs":["small"],"policies":[{all}],"suites":["one","two","ifr"]}}"#);
    let json = Json::parse(&text).map_err(|e| format!("{e:?}"))?;
    let small = Table::from_report(&ssr_engine::spec_from_json(&json)?.run());
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for (config, table) in [("paper", paper), ("small", small)] {
        let path = dir.join(format!("{config}.tsv"));
        std::fs::write(&path, table.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {} ({} assertions)", path.display(), table.0.len());
    }
    Ok(())
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.to_owned())),
    ])
}

/// The full report (run header included) and the result object.
fn render(args: &Args, results: &Results) -> (Json, Json) {
    let catalogue: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.iter().map(|(n, u, _)| (*n, *u)).collect()
    };
    let mut metrics = BTreeMap::new();
    for (name, unit) in &catalogue {
        let value = *results
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        metrics.insert((*name).to_owned(), metric_json(value, unit));
    }
    let mut full = metrics.clone();
    full.insert(
        "verdict_mismatches".into(),
        metric_json(results.outcome.mismatches as f64, CHECKS[0].1),
    );
    full.insert(
        "error_share".into(),
        metric_json(results.error_share(), CHECKS[1].1),
    );
    let correct = results.outcome.mismatches == 0 && results.failed == 0;
    let report = Json::obj([
        ("header", util::header()),
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("correct", Json::Bool(correct)),
        ("assertions", Json::Num(results.outcome.assertions as f64)),
        ("metrics", Json::Obj(full)),
        (
            "samples",
            Json::Obj(
                results
                    .samples
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect(),
            ),
        ),
    ]);
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(results.attempted as f64)),
        ("failed", Json::Num(results.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    (report, result)
}

/// Prints the report line and the result line, and writes the report
/// (plus the spans of a traced run) under `results/`.
fn emit(args: &Args, results: &Results, tracer: Option<&Tracer>) {
    let (report, result) = render(args, results);
    let out = bench_dir().join("results");
    let stem = format!(
        "{}{}-seed{}-trace{}",
        if args.smoke { "smoke-" } else { "" },
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join(format!("{stem}.json")), report.render_pretty()))
        .and_then(|()| match tracer {
            Some(t) => std::fs::write(
                out.join(format!("{stem}-spans.json")),
                trace::to_json(&t.spans()).render(),
            ),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("ssrbench: cannot write results: {e}");
    }
    println!("report {}", report.render());
    println!("{}", result.render());
}

/// Runs the workload once, traced or not, against `table`.
fn run(args: &Args, workload: &Workload, table: &Table) -> (Results, Option<Tracer>) {
    if args.trace {
        let (results, tracer) = traced(workload, table);
        (results, Some(tracer))
    } else {
        (untraced(workload, table, args.seconds), None)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ssrbench: {e}");
            std::process::exit(2);
        }
    };
    if args.write_expected {
        if let Err(e) = write_expected(&expected_dir()) {
            eprintln!("ssrbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let workload = Workload::new(&args.workload, args.seed, args.smoke).expect("name checked");
    let table = match Table::load(&expected_dir(), workload.config) {
        Ok(table) => table,
        Err(e) => {
            eprintln!("ssrbench: {e}");
            std::process::exit(1);
        }
    };
    let (results, tracer) = run(&args, &workload, &table);
    emit(&args, &results, tracer.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_owned(),
            seed: 7,
            seconds: 0.0,
            trace,
            smoke: true,
            write_expected: false,
        }
    }

    fn small_table() -> Table {
        Table::load(&expected_dir(), "small").expect("committed table")
    }

    /// Every workload, in both modes, on the small core: every metric of
    /// the catalogue comes out with its unit and the verdicts check.
    #[test]
    fn smoke_runs_emit_every_metric_with_its_unit() {
        let table = small_table();
        for workload in workloads::NAMES {
            for trace in [false, true] {
                let args = smoke_args(workload, trace);
                let w = Workload::new(workload, args.seed, true).expect("known workload");
                let (results, _) = run(&args, &w, &table);
                let (report, result) = render(&args, &results);
                let context = format!("{workload} trace={trace}");
                assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{context}");
                assert!(result.get("attempted").and_then(Json::as_u64) > Some(0));
                let catalogue = if trace { PER_LAYER } else { END_TO_END };
                let emitted = result.get("metrics").expect("metrics");
                let full = report.get("metrics").expect("metrics");
                let expected = catalogue
                    .iter()
                    .map(|(n, u, _)| (*n, *u))
                    .chain(CHECKS.to_vec());
                for (name, unit) in expected {
                    let metric = full
                        .get(name)
                        .unwrap_or_else(|| panic!("{context}: {name}"));
                    assert_eq!(metric.get("unit").and_then(Json::as_str), Some(unit));
                    assert!(metric.get("value").and_then(Json::as_f64).is_some());
                }
                let Json::Obj(emitted) = emitted else {
                    panic!("metrics is an object")
                };
                assert_eq!(
                    emitted.len(),
                    catalogue.len(),
                    "{context}: exactly the catalogue"
                );
                let mismatches = full.get("verdict_mismatches").and_then(|m| m.get("value"));
                assert_eq!(mismatches.and_then(Json::as_f64), Some(0.0), "{context}");
            }
        }
    }

    #[test]
    fn a_doctored_table_trips_verdict_mismatches_end_to_end() {
        let mut table = small_table();
        let key = (
            "small".to_owned(),
            "architectural".to_owned(),
            "ifr".to_owned(),
            "ifr_raw_direct".to_owned(),
        );
        *table.0.get_mut(&key).expect("tabled assertion") = false;
        let args = smoke_args("ifr-paper", false);
        let workload = Workload::new("ifr-paper", args.seed, true).expect("known workload");
        let (results, _) = run(&args, &workload, &table);
        assert!(results.outcome.mismatches >= 1);
        let (_, result) = render(&args, &results);
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    }

    /// `BENCHMARK.json` names exactly the catalogue, with the same units
    /// and directions.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = bench_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str, &str)> = json
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).expect("string field");
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            assert_eq!(listed, catalogue.to_vec(), "{key}");
        }
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, workloads::NAMES.to_vec());
    }
}
