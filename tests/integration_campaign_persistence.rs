//! Campaign persistence end to end: a campaign is "killed" mid-run (the
//! engine's job-limit interruption simulation) while checkpointing to a
//! real on-disk journal; a second process-life loads that journal back,
//! resumes, and must produce a report whose canonical JSON is
//! byte-identical to an uninterrupted run.  The diff layer then gates the
//! pair: fresh vs resumed shows no verdict regression, while a doctored
//! report does.  Reports and journals from older writers, carrying keys
//! the current writer no longer emits, resume and diff the same way.

use std::path::PathBuf;

use ssr::engine::json::Json;
use ssr::engine::persist::{
    load_partial, plan_resume, Checkpoint, Fault, FaultPlan, JOURNAL_SCHEMA,
};
use ssr::engine::{
    CampaignReport, CampaignSpec, Granularity, JobBudget, NamedConfig, ReportDiff, Suite,
};

fn spec(threads: usize) -> CampaignSpec {
    CampaignSpec {
        configs: vec![NamedConfig::small()],
        policies: vec![
            ssr::engine::policy_by_name("architectural").expect("named"),
            ssr::engine::policy_by_name("none").expect("named"),
        ],
        suites: Suite::ALL.to_vec(),
        granularity: Granularity::Suite,
        threads,
        budget: JobBudget::default(),
        verbose: false,
    }
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ssr-integration-{}-{tag}.journal",
        std::process::id()
    ))
}

#[test]
fn killed_campaign_resumes_to_a_byte_identical_report() {
    let fresh = spec(2).run();
    assert_eq!(fresh.jobs.len(), 6, "2 policies x 3 suites");

    // First life: checkpoint to disk, die after three jobs.
    let path = journal_path("kill-resume");
    let checkpoint = Checkpoint::create(&path, "suite", 6).expect("journal creates");
    let partial_report = spec(1).run_with(&[], Some(&checkpoint), Some(3));
    assert_eq!(partial_report.jobs.len(), 3, "the run was interrupted");
    drop(checkpoint);

    // Second life: everything known about the first run comes from disk.
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let recovered = load_partial(&text).expect("journal loads");
    assert!(!recovered.complete_report);
    assert!(!recovered.truncated_tail);
    assert_eq!(recovered.jobs.len(), 3);

    // Only the missing jobs run; the merge is indistinguishable from an
    // uninterrupted campaign.
    let plan = plan_resume(&spec(1).jobs(), &recovered.jobs);
    assert_eq!(plan.reused.len(), 3);
    assert_eq!(plan.pending.len(), 3);
    let resumed = spec(1).run_with(&recovered.jobs, None, None);
    assert_eq!(resumed.canonical_json(), fresh.canonical_json());

    // Regression gating over the pair: nothing regressed.
    let diff = ReportDiff::between(&fresh, &resumed);
    assert!(!diff.has_regressions());
    assert_eq!(diff.matched, 6);
    assert!(diff.added.is_empty() && diff.removed.is_empty());

    std::fs::remove_file(&path).ok();
}

/// A three-job campaign (one policy, all suites) — small enough that the
/// kill-point sweeps below can afford one resume run per kill point.
fn sweep_spec() -> CampaignSpec {
    CampaignSpec {
        policies: vec![ssr::engine::policy_by_name("none").expect("named")],
        ..spec(1)
    }
}

/// Satellite: truncate the journal at *every* line boundary and prove
/// `--resume` reaches a byte-identical canonical report from each prefix —
/// including the empty file (resume degenerates to a full re-run) and the
/// header-only file (nothing reused, everything re-run).
#[test]
fn every_journal_line_prefix_resumes_to_a_byte_identical_report() {
    let path = journal_path("prefix-sweep");
    let checkpoint = Checkpoint::create(&path, "suite", 3).expect("journal creates");
    let fresh = sweep_spec().run_with(&[], Some(&checkpoint), None);
    assert_eq!(fresh.jobs.len(), 3, "1 policy x 3 suites");
    drop(checkpoint);
    let text = std::fs::read_to_string(&path).expect("journal readable");

    let mut cuts = vec![0usize];
    cuts.extend(text.match_indices('\n').map(|(i, _)| i + 1));
    assert_eq!(cuts.len(), 5, "empty + header + three records");
    for cut in cuts {
        let prior = load_partial(&text[..cut])
            .map(|p| p.jobs)
            .unwrap_or_default();
        let resumed = sweep_spec().run_with(&prior, None, None);
        assert_eq!(
            resumed.canonical_json(),
            fresh.canonical_json(),
            "cut at byte {cut}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Tentpole proof: inject every fault kind at every checkpoint append
/// boundary.  The first life's campaign must complete all jobs regardless
/// (checkpointing is best-effort), and a second life resuming from
/// whatever bytes survived must converge on the byte-identical canonical
/// report.
#[test]
fn resume_survives_a_fault_at_every_checkpoint_boundary() {
    let fresh = sweep_spec().run_with(&[], None, None);
    assert_eq!(fresh.jobs.len(), 3);

    // Boundary 0 is the header append; 1..=3 are the three records.
    for boundary in 0..=3usize {
        for (tag, fault) in [
            ("torn", Fault::Torn(40)),
            ("short", Fault::Short(12)),
            ("error", Fault::Error),
        ] {
            let plan = FaultPlan::kill_at(boundary, fault);
            let path = journal_path(&format!("fault-{boundary}-{tag}"));
            let report = match Checkpoint::create_with_faults(&path, "suite", 3, plan) {
                Ok(cp) => sweep_spec().run_with(&[], Some(&cp), None),
                // The header append itself faulted: the campaign runs
                // un-checkpointed, exactly as the CLI would after warning.
                Err(_) => sweep_spec().run_with(&[], None, None),
            };
            assert_eq!(report.jobs.len(), 3, "campaign completes despite {plan:?}");

            // Second life: everything known comes from the surviving bytes.
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            let prior = load_partial(&text).map(|p| p.jobs).unwrap_or_default();
            let resumed = sweep_spec().run_with(&prior, None, None);
            assert_eq!(
                resumed.canonical_json(),
                fresh.canonical_json(),
                "resume diverged after {plan:?}"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn report_json_parse_report_round_trip_is_equal() {
    let report = spec(2).run();
    let reparsed = CampaignReport::from_json(&report.to_json()).expect("parses");
    assert_eq!(reparsed, report, "report -> JSON -> parse -> report");
    // And the persistence loader accepts the same document.
    let via_loader = load_partial(&report.to_json()).expect("loads");
    assert!(via_loader.complete_report);
    assert_eq!(via_loader.into_report(), report);
}

#[test]
fn diff_gates_a_doctored_verdict() {
    let fresh = spec(2).run();
    let mut doctored = fresh.clone();
    let good = doctored
        .jobs
        .iter_mut()
        .find(|j| j.holds)
        .expect("some job holds");
    good.holds = false;
    for a in &mut good.assertions {
        a.holds = false;
    }
    let diff = ReportDiff::between(&fresh, &doctored);
    assert!(diff.has_regressions(), "holds -> FAILS must gate");
    assert!(!ReportDiff::between(&doctored, &fresh).has_regressions());
}

#[test]
fn artifacts_from_older_writers_resume_and_diff_clean() {
    // Artifacts from older writers, simulated from a real run:
    // * a report and a journal written while the variable order was
    //   selectable carry an `order` key on every job, which the parser
    //   must ignore whatever its value: verdicts do not depend on the
    //   order, and `canonical()` zeroes the kernel telemetry that does;
    // * a report and a journal written while the warm-start store existed
    //   carry nonzero `store_hits`/`store_misses` counters, which the
    //   parser must ignore;
    // * a report and a journal written while the checker had selectable
    //   strategies carry a `partitioning` key on every job, which the
    //   parser must ignore whatever its value;
    // * a report and a journal written while the kernel could sift carry
    //   `reorder_passes` and `sift_ms` on every job and, in the journal
    //   header, `"reorder": true`, which the parser must ignore.
    // Each must load, resume to the fresh run's canonical report, and
    // diff clean against it.
    let campaign = CampaignSpec {
        suites: vec![Suite::PropertyTwo],
        ..spec(1)
    };
    let report = campaign.run();
    let (order_report, order_journal) = written_with(&report, false, |i| {
        let order = if i % 2 == 0 {
            "reverse"
        } else {
            "explicit(eq_add_r2[0];eq_add_r1[0])"
        };
        vec![("order", Json::Str(order.into()))]
    });
    // The store-era writer added `store_hits` or `store_misses` to a job
    // only when nonzero, so every job here carries exactly one of the two.
    let (store_report, store_journal) = written_with(&report, false, |i| {
        let key = if i % 2 == 0 {
            "store_hits"
        } else {
            "store_misses"
        };
        vec![(key, Json::Num(1.0))]
    });
    let (strategy_report, strategy_journal) = written_with(&report, false, |i| {
        let strategy = if i % 2 == 0 {
            "monolithic"
        } else {
            "conjunctive"
        };
        vec![("partitioning", Json::Str(strategy.into()))]
    });
    let (sift_report, sift_journal) = written_with(&report, true, |i| {
        vec![
            ("reorder_passes", Json::Num((i + 1) as f64)),
            ("sift_ms", Json::Num(3.0)),
        ]
    });
    for (what, text) in [
        ("ordering-era report", order_report),
        ("ordering-era journal", order_journal),
        ("store-era report", store_report),
        ("store-era journal", store_journal),
        ("partitioning-era report", strategy_report),
        ("partitioning-era journal", strategy_journal),
        ("reorder-era report", sift_report),
        ("reorder-era journal", sift_journal),
    ] {
        let partial = load_partial(&text).unwrap_or_else(|e| panic!("{what} loads: {e}"));
        let plan = plan_resume(&campaign.jobs(), &partial.jobs);
        assert!(plan.complete(), "{what}: every legacy verdict is reusable");
        assert_eq!(plan.stale, 0, "{what}");
        let resumed = campaign.run_with(&partial.jobs, None, None);
        assert_eq!(resumed.canonical_json(), report.canonical_json(), "{what}");
        let diff = ReportDiff::between(&partial.into_report(), &report);
        assert!(!diff.has_regressions(), "{what}");
        assert_eq!(diff.matched, report.jobs.len(), "{what}");
    }
}

/// The report and the journal of `report` as an older writer emitted
/// them, with the fields `extra(i)` added to job `i` and the journal
/// header's `reorder` flag (written by every journal writer from the
/// ordering layer until sifting was removed) set to `reorder`.
fn written_with(
    report: &CampaignReport,
    reorder: bool,
    extra: impl Fn(usize) -> Vec<(&'static str, Json)>,
) -> (String, String) {
    let jobs: Vec<Json> = report
        .jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let mut line = job.to_json();
            if let Json::Obj(fields) = &mut line {
                for (key, value) in extra(i) {
                    fields.insert(key.to_owned(), value);
                }
            }
            line
        })
        .collect();
    let mut doc = report.json_value();
    if let Json::Obj(fields) = &mut doc {
        fields.insert("jobs".to_owned(), Json::Arr(jobs.clone()));
    }
    let header = Json::obj([
        ("schema", Json::Str(JOURNAL_SCHEMA.into())),
        ("granularity", Json::Str(report.granularity.clone())),
        ("total_jobs", Json::Num(report.jobs.len() as f64)),
        ("reorder", Json::Bool(reorder)),
    ]);
    let journal: String = std::iter::once(&header)
        .chain(&jobs)
        .map(|line| line.render() + "\n")
        .collect();
    let doc = doc.render_pretty();
    for (i, job) in jobs.iter().enumerate() {
        for (key, value) in extra(i) {
            assert_eq!(job.get(key), Some(&value));
            let field = format!("\"{key}\"");
            assert!(doc.contains(&field) && journal.contains(&field));
        }
    }
    (doc, journal)
}
