//! The workloads and the calls that drive them.
//!
//! Every campaign is built from an `ssr-serve/v1` wire object through
//! [`spec_from_json`] and carries only the flags the workload is about, so
//! the benchmark runs whatever the engine's defaults are at the commit it
//! is built against.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use ssr_bdd::{BddManager, BddStats, OrderPolicy};
use ssr_cpu::CoreConfig;
use ssr_engine::json::Json;
use ssr_engine::{
    named_policies, run_job_with, spec_from_json, CampaignReport, CampaignSpec, HarnessError,
    JobPart, JobResult, JobSpec, ManagerPool, RunHooks, SharedHarness,
};
use ssr_properties::CoreHarness;
use ssr_serve::{Client, Server, ServerConfig};
use ssr_sim::{CompiledModel, SymSimulator, SymState};

use crate::trace::Tracer;
use crate::util::Rng;

/// Closed-loop clients of `served-small`.
pub const CLIENTS: usize = 2;
/// Requests each `served-small` client submits per iteration.
const REQUESTS_PER_CLIENT: usize = 56;

/// How a workload reaches the engine.
pub enum Shape {
    /// One campaign per iteration, run in-process through
    /// [`CampaignSpec::run_with_hooks`].
    Direct(CampaignSpec),
    /// Per client, the campaigns it submits back to back to an in-process
    /// daemon.
    Served(Vec<Vec<CampaignSpec>>),
}

pub struct Workload {
    /// The core configuration, which names the expected-verdict table.
    pub config: &'static str,
    pub shape: Shape,
}

pub const NAMES: [&str; 3] = ["ifr-paper", "policy-sweep", "served-small"];

fn wire(text: &str) -> CampaignSpec {
    let json = Json::parse(text).expect("workload wire specs are valid JSON");
    spec_from_json(&json).expect("workload wire specs name known things")
}

/// The policies as the body of a JSON string array.
pub fn policy_list(policies: &[String]) -> String {
    let quoted: Vec<String> = policies.iter().map(|p| format!("\"{p}\"")).collect();
    quoted.join(",")
}

impl Workload {
    /// The workload `name` with inputs drawn from `seed`; `smoke` swaps the
    /// paper core for the small one and shortens the served loop.
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        let mut rng = Rng::new(seed);
        let mut policies: Vec<String> = named_policies().into_iter().map(|p| p.name).collect();
        rng.shuffle(&mut policies);
        let big = if smoke { "small" } else { "paper" };
        let shape = match name {
            "ifr-paper" => Shape::Direct(wire(&format!(
                r#"{{"configs":["{big}"],"policies":["architectural"],"suites":["ifr"]}}"#
            ))),
            "policy-sweep" => Shape::Direct(wire(&format!(
                r#"{{"configs":["{big}"],"policies":[{}],"suites":["one","two"],"granularity":"assertion","threads":2}}"#,
                policy_list(&policies)
            ))),
            "served-small" => {
                let per_client = if smoke {
                    policies.len()
                } else {
                    REQUESTS_PER_CLIENT
                };
                let clients = (0..CLIENTS)
                    .map(|c| {
                        (0..per_client)
                            .map(|k| {
                                let policy = &policies[(k + 3 * c) % policies.len()];
                                wire(&format!(
                                    r#"{{"configs":["small"],"policies":["{policy}"],"suites":["one","two","ifr"]}}"#
                                ))
                            })
                            .collect()
                    })
                    .collect();
                Shape::Served(clients)
            }
            _ => return None,
        };
        let config = match shape {
            Shape::Served(_) => "small",
            Shape::Direct(_) => big,
        };
        Some(Workload { config, shape })
    }

    /// Every job the workload runs in one iteration, deduplicated per
    /// distinct campaign (the served loop repeats its seven campaigns).
    pub fn distinct_jobs(&self) -> Vec<JobSpec> {
        match &self.shape {
            Shape::Direct(spec) => spec.jobs(),
            Shape::Served(clients) => {
                let mut seen: Vec<String> = Vec::new();
                let mut jobs = Vec::new();
                for spec in clients.iter().flatten() {
                    let key = ssr_engine::spec_to_json(spec).render();
                    if !seen.contains(&key) {
                        seen.push(key);
                        jobs.extend(spec.jobs());
                    }
                }
                for (id, job) in jobs.iter_mut().enumerate() {
                    job.id = id;
                }
                jobs
            }
        }
    }
}

/// One compiled harness per distinct (config × policy × order), built the
/// way the campaign engine builds them.
pub struct Harnesses(Vec<(CoreConfig, OrderPolicy, SharedHarness)>);

impl Harnesses {
    /// Builds every harness `jobs` need, each inside an `engine.harness`
    /// span when traced.
    pub fn build(jobs: &[JobSpec], tracer: Option<&Tracer>) -> Harnesses {
        let mut built: Vec<(CoreConfig, OrderPolicy, SharedHarness)> = Vec::new();
        for job in jobs {
            if built
                .iter()
                .any(|(c, o, _)| *c == job.config && *o == job.order)
            {
                continue;
            }
            let build = || SharedHarness::build(job.config, job.order.clone());
            let harness = match tracer {
                Some(t) => t.span("engine.harness", 0, build),
                None => build(),
            };
            built.push((job.config, job.order.clone(), harness));
        }
        Harnesses(built)
    }

    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|(_, _, h)| h.get().is_ok())
    }

    pub fn get(&self, job: &JobSpec) -> Result<&CoreHarness, &HarnessError> {
        self.0
            .iter()
            .find(|(c, o, _)| *c == job.config && *o == job.order)
            .expect("a harness was built for every job")
            .2
            .get()
    }

    pub fn configs(&self) -> impl Iterator<Item = &CoreConfig> {
        self.0.iter().map(|(c, _, _)| c)
    }
}

/// One direct iteration: the campaign's report, its wall time and one
/// latency sample per job.
pub struct DirectRun {
    pub report: CampaignReport,
    pub wall_s: f64,
    /// Per job: the interval between its worker's previous completion (or
    /// the campaign start) and its own — job wall plus the pool's
    /// per-job overhead, at full timer precision.
    pub job_ms: Vec<f64>,
}

pub fn run_direct(spec: &CampaignSpec) -> DirectRun {
    let completions: Mutex<Vec<(ThreadId, Instant)>> = Mutex::new(Vec::new());
    let on_job = |_: &JobResult| {
        let stamp = (std::thread::current().id(), Instant::now());
        completions.lock().expect("completion log").push(stamp);
    };
    let start = Instant::now();
    let report = spec.run_with_hooks(
        &[],
        None,
        None,
        RunHooks {
            on_job: Some(&on_job),
            ..RunHooks::default()
        },
    );
    let wall_s = start.elapsed().as_secs_f64();
    let mut last: HashMap<ThreadId, Instant> = HashMap::new();
    let mut completions = completions.into_inner().expect("completion log");
    completions.sort_by_key(|(_, at)| *at);
    let job_ms = completions
        .into_iter()
        .map(|(thread, at)| {
            let prev = last.insert(thread, at).unwrap_or(start);
            (at - prev).as_secs_f64() * 1e3
        })
        .collect();
    DirectRun {
        report,
        wall_s,
        job_ms,
    }
}

/// Client-side timings of one served request.
pub struct Request {
    pub spec_index: (usize, usize),
    pub result: Result<CampaignReport, String>,
    pub start: Instant,
    pub ack: Instant,
    /// Arrival of each streamed `job` line.
    pub lines: Vec<Instant>,
    /// Each streamed job's wall time as the engine measured it (ms).
    pub job_ms: Vec<f64>,
    pub end: Instant,
    pub journal_bytes: u64,
}

impl Request {
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    pub fn ack_ms(&self) -> f64 {
        (self.ack - self.start).as_secs_f64() * 1e3
    }

    /// Ack → first `job` line: the wait for the dispatcher plus the first
    /// job.
    pub fn queue_ms(&self) -> Option<f64> {
        self.lines
            .first()
            .map(|first| (*first - self.ack).as_secs_f64() * 1e3)
    }

    /// Request latency the campaign's own wall does not explain.
    pub fn overhead_ms(&self) -> Option<f64> {
        let report = self.result.as_ref().ok()?;
        Some(self.latency_ms() - report.total_wall_ms as f64)
    }
}

/// An in-process daemon at `ssr serve` defaults, journaling to its own
/// directory.
pub struct Daemon {
    server: Server,
    journal_dir: std::path::PathBuf,
}

impl Daemon {
    pub fn start(journal_dir: &Path) -> Daemon {
        let _ = std::fs::remove_dir_all(journal_dir);
        let server = Server::spawn(ServerConfig {
            journal_dir: Some(journal_dir.to_path_buf()),
            ..ServerConfig::default()
        })
        .expect("the daemon binds a loopback port");
        Daemon {
            server,
            journal_dir: journal_dir.to_path_buf(),
        }
    }

    /// Each client submits its campaigns back to back on one connection;
    /// returns the requests and the wall time of the whole loop.
    pub fn run(&self, clients: &[Vec<CampaignSpec>]) -> (Vec<Request>, f64) {
        let addr = self.server.local_addr();
        let started = Instant::now();
        let requests = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter()
                .enumerate()
                .map(|(c, specs)| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr);
                        specs
                            .iter()
                            .enumerate()
                            .map(|(k, spec)| match client.as_mut() {
                                Ok(client) => self.request(client, (c, k), spec),
                                Err(e) => failed((c, k), format!("connect: {e}")),
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        (requests, started.elapsed().as_secs_f64())
    }

    fn request(&self, client: &mut Client, index: (usize, usize), spec: &CampaignSpec) -> Request {
        let start = Instant::now();
        let submission = match client.submit(spec, 0, None) {
            Ok(s) => s,
            Err(e) => return failed(index, e),
        };
        let ack = Instant::now();
        // The daemon deletes a delivered request's journal right after the
        // report, so its size is sampled as each job line arrives: the
        // record of a job is appended before its line is sent.
        let journal = submission.journal.map(|name| self.journal_dir.join(name));
        let (mut lines, mut job_ms, mut journal_bytes) = (Vec::new(), Vec::new(), 0);
        let result = client
            .stream_to_completion(submission.id, |job| {
                lines.push(Instant::now());
                job_ms.push(job.wall_ms as f64);
                if let Some(meta) = journal.as_ref().and_then(|p| std::fs::metadata(p).ok()) {
                    journal_bytes = journal_bytes.max(meta.len());
                }
            })
            .and_then(|done| match done.cancelled {
                false => Ok(done.report),
                true => Err("cancelled".to_owned()),
            });
        let end = Instant::now();
        Request {
            spec_index: index,
            result,
            start,
            ack,
            lines,
            job_ms,
            end,
            journal_bytes,
        }
    }

    pub fn stop(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.journal_dir);
    }
}

fn failed(index: (usize, usize), error: String) -> Request {
    let now = Instant::now();
    Request {
        spec_index: index,
        result: Err(error),
        start: now,
        ack: now,
        lines: Vec::new(),
        job_ms: Vec::new(),
        end: now,
        journal_bytes: 0,
    }
}

/// Kernel counts summed over jobs (`peak_live_nodes` is the maximum).
#[derive(Debug, Default, Clone, Copy)]
pub struct Kernel {
    pub ite_hits: u64,
    pub ite_misses: u64,
    pub gc_passes: u64,
    pub gc_reclaimed: u64,
    pub nodes_allocated: u64,
    pub peak_live_nodes: u64,
    pub resets: u64,
}

impl Kernel {
    /// Adds one job's [`BddStats`] delta (`before` taken just before the
    /// job's arena reset, `after` when the job returned).
    fn add(&mut self, before: &BddStats, after: &BddStats) {
        self.ite_hits += after.ite_cache_hits;
        self.ite_misses += after.ite_cache_misses;
        self.gc_passes += after.gc_passes;
        self.gc_reclaimed += after.gc_reclaimed;
        self.nodes_allocated += after.nodes_allocated as u64;
        self.peak_live_nodes = self.peak_live_nodes.max(after.peak_live_nodes as u64);
        self.resets += after.resets - before.resets;
    }
}

/// The workload's jobs rerun from their layer calls: harness builds on the
/// driving thread, then `run_job_with` over every job on `threads`
/// workers, each job in an `engine.job` span with its kernel counts.
pub struct TracedJobs {
    pub results: Vec<JobResult>,
    pub kernel: Kernel,
    pub harnesses: Harnesses,
    pub wall_s: f64,
    pub threads: usize,
}

pub fn traced_jobs(jobs: &[JobSpec], threads: usize, tracer: &Tracer) -> TracedJobs {
    let started = Instant::now();
    let harnesses = Harnesses::build(jobs, Some(tracer));
    let cursor = AtomicUsize::new(0);
    let kernel = Mutex::new(Kernel::default());
    let slots: Vec<Mutex<Option<JobResult>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for worker in 1..=threads {
            let (cursor, kernel, slots, harnesses) = (&cursor, &kernel, &slots, &harnesses);
            scope.spawn(move || {
                let pool = ManagerPool::global();
                let mut m = pool.acquire();
                while let Some(job) = jobs.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let before = m.stats();
                    m.reset();
                    let span = tracer.open("engine.job", None, worker, Some(job.id as u64));
                    let result = run_job_with(job, harnesses.get(job), &mut m);
                    let after = m.stats();
                    tracer.close(
                        span,
                        vec![
                            ("ite_misses", after.ite_cache_misses as f64),
                            ("gc_passes", after.gc_passes as f64),
                            ("peak_live_nodes", after.peak_live_nodes as f64),
                        ],
                    );
                    kernel.lock().expect("kernel counts").add(&before, &after);
                    *slots[job.id].lock().expect("result slot") = Some(result);
                }
                pool.release(m);
            });
        }
    });
    TracedJobs {
        results: slots
            .into_iter()
            .map(|s| s.into_inner().expect("result slot").expect("every job ran"))
            .collect(),
        kernel: kernel.into_inner().expect("kernel counts"),
        harnesses,
        wall_s: started.elapsed().as_secs_f64(),
        threads,
    }
}

/// What the layer probes counted.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probe {
    pub nets: u64,
    pub cells: u64,
    pub steps: u64,
    pub step_ite_misses: u64,
    pub elaboration_errors: u64,
}

/// The layer probes, each in its own spans:
/// * `cpu.build_core` + `sim.compile` — `CoreHarness::new` split in two,
///   once per harness;
/// * per job, `properties.assertions` (`Suite::assertions`), then per
///   assertion `ste.elaborate` (`Formula::defining_sequence` for antecedent
///   and consequent) and a `sim.trajectory` of `sim.step` spans: the
///   antecedent's defining trajectory stepped with no maintenance, with the
///   ITE misses of each step.
pub fn probe_layers(
    jobs: &[JobSpec],
    harnesses: &Harnesses,
    threads: usize,
    tracer: &Tracer,
) -> Probe {
    let mut probe = Probe::default();
    for config in harnesses.configs() {
        let netlist = tracer.span("cpu.build_core", 0, || ssr_cpu::build_core(config));
        let netlist = Arc::new(netlist.expect("the generator builds every workload core"));
        probe.nets += netlist.net_count() as u64;
        probe.cells += netlist.cell_count() as u64;
        let model = tracer.span("sim.compile", 0, || CompiledModel::from_arc(netlist));
        model.expect("generated cores compile");
    }

    let cursor = AtomicUsize::new(0);
    let totals = Mutex::new(probe);
    std::thread::scope(|scope| {
        for worker in 1..=threads {
            let (cursor, totals) = (&cursor, &totals);
            scope.spawn(move || {
                let mut m = BddManager::new();
                let mut local = Probe::default();
                while let Some(job) = jobs.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let Ok(harness) = harnesses.get(job) else {
                        continue;
                    };
                    m.reset();
                    let group = Some(job.id as u64);
                    let all = tracer.span("properties.assertions", worker, || {
                        job.suite.assertions(harness, &mut m)
                    });
                    let picked = match job.part {
                        JobPart::WholeSuite => &all[..],
                        JobPart::Assertion(i) => &all[i..=i],
                    };
                    for assertion in picked {
                        let depth = assertion.depth();
                        let netlist = harness.netlist();
                        let seqs = tracer.span("ste.elaborate", worker, || {
                            let a = assertion
                                .antecedent
                                .defining_sequence(&mut m, netlist, depth);
                            let c = assertion
                                .consequent
                                .defining_sequence(&mut m, netlist, depth);
                            a.and_then(|a| c.map(|_| a))
                        });
                        let Ok(a_seq) = seqs else {
                            local.elaboration_errors += 1;
                            continue;
                        };
                        let sim = SymSimulator::new(harness.model());
                        let trajectory = tracer.open("sim.trajectory", None, worker, group);
                        let mut prev: Option<SymState> = None;
                        for drive in &a_seq {
                            let before = m.stats().ite_cache_misses;
                            let span = tracer.open("sim.step", Some(trajectory), worker, group);
                            let state = match &prev {
                                None => sim.initial_state(&mut m, drive),
                                Some(p) => sim.step(&mut m, p, drive),
                            };
                            let misses = m.stats().ite_cache_misses - before;
                            tracer.close(span, vec![("ite_misses", misses as f64)]);
                            local.steps += 1;
                            local.step_ite_misses += misses;
                            prev = Some(state);
                        }
                        tracer.close(trajectory, Vec::new());
                    }
                }
                let mut totals = totals.lock().expect("probe totals");
                totals.steps += local.steps;
                totals.step_ite_misses += local.step_ite_misses;
                totals.elaboration_errors += local.elaboration_errors;
            });
        }
    });
    totals.into_inner().expect("probe totals")
}
