//! End-to-end tests of the serving daemon over real localhost sockets:
//! canonical identity with direct runs, multiplexed streaming, torn
//! clients, cancellation races, backpressure, and crash-resume.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ssr_engine::{
    policy_by_name, CampaignSpec, Granularity, JobBudget, NamedConfig, OrderPolicy, Suite,
};
use ssr_serve::{Client, Server, ServerConfig};

/// A fresh per-test journal directory under the system temp dir.
fn journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssr-serve-test-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn spawn(tag: &str, configure: impl FnOnce(&mut ServerConfig)) -> (Server, PathBuf) {
    let dir = journal_dir(tag);
    let mut config = ServerConfig {
        journal_dir: Some(dir.clone()),
        job_threads: 1,
        ..ServerConfig::default()
    };
    configure(&mut config);
    let server = Server::spawn(config).expect("daemon binds");
    (server, dir)
}

fn connect(server: &Server) -> Client {
    Client::connect(server.local_addr()).expect("connects")
}

/// The fast 3-job campaign.
fn quick_spec() -> CampaignSpec {
    CampaignSpec {
        configs: vec![NamedConfig::small()],
        policies: vec![policy_by_name("architectural").expect("named")],
        suites: Suite::ALL.to_vec(),
        granularity: Granularity::Suite,
        order: OrderPolicy::Interleaved,
        threads: 1,
        budget: JobBudget::default(),
        verbose: false,
    }
}

/// A 36-job campaign of ~10ms jobs: long enough to cancel mid-run, fast
/// enough to finish promptly afterwards.
fn wide_spec() -> CampaignSpec {
    CampaignSpec {
        granularity: Granularity::Assertion,
        ..quick_spec()
    }
}

/// A single ~1s job: keeps one dispatcher busy while a test probes the
/// queue behind it.
fn slow_spec() -> CampaignSpec {
    CampaignSpec {
        configs: vec![NamedConfig::paper()],
        suites: vec![Suite::PropertyTwo],
        ..quick_spec()
    }
}

#[test]
fn a_socket_run_is_canonically_identical_to_a_direct_run() {
    let (server, dir) = spawn("identity", |_| {});
    let spec = quick_spec();

    let mut client = connect(&server);
    let mut streamed = 0usize;
    let submission = client.submit(&spec, 0, None).expect("accepted");
    let journal = submission.journal.clone().expect("journalled");
    let done = client
        .stream_to_completion(submission.id, |_| streamed += 1)
        .expect("completes");

    assert!(!done.cancelled);
    assert_eq!(streamed, done.report.jobs.len(), "one line per completion");
    let direct = spec.run();
    assert_eq!(
        done.report.canonical_json(),
        direct.canonical_json(),
        "served and direct reports must be canonically byte-identical"
    );
    assert!(
        !dir.join(&journal).exists(),
        "a delivered campaign's journal is cleaned up"
    );

    let (_, rows) = connect(&server).status().expect("status");
    let row = rows.iter().find(|r| r.id == submission.id).expect("known");
    assert_eq!(row.state, "finished");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_client_does_not_disturb_other_connections() {
    let (server, dir) = spawn("torn", |c| c.dispatchers = 2);

    // Client A submits a wide campaign and vanishes right after the ack.
    let torn_id = {
        let mut doomed = connect(&server);
        let submission = doomed.submit(&wide_spec(), 0, None).expect("accepted");
        submission.id
        // dropped here: the server's streamed writes start failing
    };

    // Client B is served correctly throughout.
    let mut client = connect(&server);
    let done = client
        .run(&quick_spec(), 0, None, |_| {})
        .expect("unaffected by the torn client");
    assert_eq!(
        done.report.canonical_json(),
        quick_spec().run().canonical_json()
    );

    // The torn request still ran to completion server-side...
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut control = connect(&server);
    loop {
        let (_, rows) = control.status().expect("status");
        let state = rows
            .iter()
            .find(|r| r.id == torn_id)
            .expect("known")
            .state
            .clone();
        if state == "finished" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "torn request never finished (state {state})"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    // ...and its undeliverable report survives in the journal.
    assert!(
        dir.join(format!("req-{torn_id}.journal")).exists(),
        "undelivered work is kept as resume material"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancellation_yields_a_partial_stream_that_resumes_across_a_restart() {
    let (server, dir) = spawn("cancel-resume", |_| {});
    let spec = wide_spec();
    let total_jobs = spec.jobs().len();

    let mut client = connect(&server);
    let submission = client.submit(&spec, 0, None).expect("accepted");
    let journal = submission.journal.clone().expect("journalled");

    // Cancel from a second connection as soon as the first job streams.
    let mut first_seen = false;
    let mut control = connect(&server);
    let done = client
        .stream_to_completion(submission.id, |_| {
            if !first_seen {
                first_seen = true;
                let state = control.cancel(submission.id).expect("cancel answered");
                assert!(
                    state == "running" || state == "queued",
                    "cancelled live, got `{state}`"
                );
            }
        })
        .expect("stream terminates");
    assert!(done.cancelled, "the terminating report is marked cancelled");
    assert!(
        !done.report.jobs.is_empty() && done.report.jobs.len() < total_jobs,
        "partial: {} of {total_jobs}",
        done.report.jobs.len()
    );

    // Cancelling again reports the settled state; unknown ids say so.
    assert_eq!(
        control.cancel(submission.id).expect("answered"),
        "cancelled"
    );
    assert_eq!(control.cancel(999_999).expect("answered"), "unknown");

    // The journal survived the cancellation; restart the daemon on the
    // same directory and resume from it.
    assert!(dir.join(&journal).exists(), "cancelled journal is kept");
    server.shutdown();

    let restarted = Server::spawn(ServerConfig {
        journal_dir: Some(dir.clone()),
        job_threads: 1,
        ..ServerConfig::default()
    })
    .expect("daemon restarts on the same journal dir");
    let mut client = connect(&restarted);
    let resumed = client.submit(&spec, 0, Some(&journal)).expect("accepted");
    assert!(
        resumed.id > submission.id,
        "restart must never reuse journalled ids ({} vs {})",
        resumed.id,
        submission.id
    );
    let mut streamed = 0usize;
    let done = client
        .stream_to_completion(resumed.id, |_| streamed += 1)
        .expect("completes");
    assert!(!done.cancelled);
    assert_eq!(streamed, total_jobs, "reused results are streamed too");
    assert_eq!(
        done.report.canonical_json(),
        spec.run().canonical_json(),
        "a resumed serve run is canonically identical to a direct run"
    );
    restarted.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_fully_reused_resume_acks_before_it_streams() {
    let (server, dir) = spawn("resume-ack", |_| {});
    let spec = wide_spec();
    let total = spec.jobs().len();

    // Complete a campaign whose client tore away: the report could not be
    // delivered, so its journal — with every job recorded — is kept.
    let torn_id = {
        let mut doomed = connect(&server);
        doomed.submit(&spec, 0, None).expect("accepted").id
    };
    let mut control = connect(&server);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, rows) = control.status().expect("status");
        if rows
            .iter()
            .any(|r| r.id == torn_id && r.state == "finished")
        {
            break;
        }
        assert!(Instant::now() < deadline, "torn run never finished");
        std::thread::sleep(Duration::from_millis(25));
    }
    let journal = format!("req-{torn_id}.journal");
    assert!(dir.join(&journal).exists(), "undelivered journal kept");

    // Resuming reuses every job: the dispatcher starts streaming the
    // instant the request is queued, with no computation in between.  The
    // ack must still be the first line each client reads — submit()
    // errors with "expected ack" if a job line ever wins that race.
    for _ in 0..5 {
        let mut client = connect(&server);
        let mut streamed = 0usize;
        let done = client
            .run(&spec, 0, Some(&journal), |_| streamed += 1)
            .expect("ack arrives before the reused stream");
        assert!(!done.cancelled);
        assert_eq!(streamed, total, "every reused job is streamed");
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_and_oversized_lines_get_errors_without_collateral_damage() {
    let (server, dir) = spawn("malformed", |_| {});

    let mut client = connect(&server);
    for bad in [
        "not json at all",
        "{}",
        "{\"type\":\"frobnicate\"}",
        "{\"type\":\"submit\",\"spec\":{\"configs\":[\"nope\"],\"policies\":[\"architectural\"],\"suites\":[\"two\"]}}",
    ] {
        client.send_raw(bad).expect("sends");
        match client.next_response().expect("answered") {
            ssr_serve::Response::Error { message, .. } => {
                assert!(!message.is_empty());
            }
            other => panic!("expected an error for `{bad}`, got {other:?}"),
        }
    }
    // The connection survived all of that.
    let done = client.run(&quick_spec(), 0, None, |_| {}).expect("usable");
    assert!(!done.cancelled);

    // An oversized line is answered and then the connection is dropped.
    let huge = format!("{{\"pad\":\"{}\"}}", "x".repeat(ssr_serve::MAX_LINE_BYTES));
    client.send_raw(&huge).expect("sends");
    match client.next_response().expect("answered before close") {
        ssr_serve::Response::Error { message, .. } => {
            assert!(message.contains("exceeds"), "{message}");
        }
        other => panic!("expected oversize error, got {other:?}"),
    }
    assert!(
        client.next_response().is_err(),
        "the connection is closed after an oversized line"
    );

    // Other clients are unaffected.
    let done = connect(&server)
        .run(&quick_spec(), 0, None, |_| {})
        .expect("still serving");
    assert!(!done.cancelled);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_budget_exhausted_submission_leaves_the_daemon_serving() {
    let (server, dir) = spawn("budget", |_| {});

    // A starvation-level node budget rides the `ssr-serve/v1` submit
    // object: every job exhausts, even after the degradation retry.
    let mut starved = quick_spec();
    starved.budget.node_budget = Some(64);
    let mut client = connect(&server);
    let done = client
        .run(&starved, 0, None, |_| {})
        .expect("an exhausted campaign still completes and streams");
    assert!(!done.cancelled);
    assert_eq!(done.report.jobs.len(), 3);
    for job in &done.report.jobs {
        assert!(
            job.budget_limited(),
            "expected a structured budget error, got {:?}",
            job.error
        );
        assert!(
            job.error
                .as_deref()
                .unwrap_or("")
                .starts_with("budget_nodes"),
            "{:?}",
            job.error
        );
    }

    // The same connection keeps being served afterwards...
    let done = client
        .run(&quick_spec(), 0, None, |_| {})
        .expect("same connection still serving");
    assert!(!done.cancelled);
    // ...and a fresh unbudgeted submission is canonically identical to a
    // direct run: exhaustion left no residue in the daemon's pool.
    let done = connect(&server)
        .run(&quick_spec(), 0, None, |_| {})
        .expect("fresh connection serving");
    assert_eq!(
        done.report.canonical_json(),
        quick_spec().run().canonical_json()
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_connections_are_reaped_but_streaming_clients_are_not() {
    let (server, dir) = spawn("idle-reap", |c| c.idle_timeout_ms = 150);

    // A connection that submits nothing is closed by the server once the
    // idle window lapses; the client observes EOF.
    let mut idle = connect(&server);
    let start = Instant::now();
    assert!(idle.next_response().is_err(), "idle connection is reaped");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "reaping is prompt"
    );

    // A connection with a live submission is exempt for as long as its
    // campaign runs (~1s here, far past the 150ms idle window).
    let mut busy = connect(&server);
    let done = busy
        .run(&slow_spec(), 0, None, |_| {})
        .expect("a streaming client is never reaped mid-campaign");
    assert!(!done.cancelled);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_full_queue_rejects_submits_and_priorities_order_the_backlog() {
    let (server, dir) = spawn("backpressure", |c| {
        c.dispatchers = 1;
        c.queue_capacity = 2;
    });

    // Occupy the single dispatcher with a ~1s job.
    let mut primer = connect(&server);
    let primed = primer.submit(&slow_spec(), 0, None).expect("accepted");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut control = connect(&server);
    loop {
        let (_, rows) = control.status().expect("status");
        if rows
            .iter()
            .any(|r| r.id == primed.id && r.state == "running")
        {
            break;
        }
        assert!(Instant::now() < deadline, "primer never started");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Two quick submissions fill the queue; the third bounces.
    let mut low = connect(&server);
    let low_sub = low.submit(&quick_spec(), 1, None).expect("fits");
    let mut high = connect(&server);
    let high_sub = high.submit(&quick_spec(), 5, None).expect("fits");
    let err = connect(&server)
        .submit(&quick_spec(), 9, None)
        .expect_err("queue full");
    assert!(err.contains("queue full"), "{err}");

    // Free the dispatcher; the high-priority submission must run first.
    assert_eq!(control.cancel(primed.id).expect("answered"), "running");
    let done = high
        .stream_to_completion(high_sub.id, |_| {})
        .expect("completes");
    assert!(!done.cancelled);
    // The instant high's report arrives, low cannot have finished yet: the
    // single dispatcher picked the later, higher-priority submission first.
    let (_, rows) = control.status().expect("status");
    let low_state = rows
        .iter()
        .find(|r| r.id == low_sub.id)
        .expect("known")
        .state
        .clone();
    assert!(
        low_state == "queued" || low_state == "running",
        "low-priority request overtook a higher one (state `{low_state}`)"
    );
    let done = low
        .stream_to_completion(low_sub.id, |_| {})
        .expect("completes");
    assert!(!done.cancelled);

    // Shut down over the wire; join observes the daemon exiting.
    connect(&server).shutdown().expect("acknowledged");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
