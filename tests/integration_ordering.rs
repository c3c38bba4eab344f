//! End-to-end ordering-layer tests: every variable-order preset must
//! produce verdict-identical reports on the example configurations,
//! artifacts from older writers must still resume cleanly, and an eager
//! GC policy must not raise the peak live node count on the IFR workload.

use ssr_bdd::BddManager;
use ssr_engine::json::Json;
use ssr_engine::persist::{load_partial, JOURNAL_SCHEMA};
use ssr_engine::{
    plan_resume, policy_by_name, run_job_with, CampaignReport, CampaignSpec, Granularity,
    MaintainSettings, NamedConfig, OrderPolicy, ReportDiff, SharedHarness, Suite,
};

/// A small two-policy Property II campaign under the given variable order.
fn spec(order: OrderPolicy) -> CampaignSpec {
    CampaignSpec {
        configs: vec![NamedConfig::small()],
        policies: vec![
            policy_by_name("architectural").expect("named"),
            policy_by_name("none").expect("named"),
        ],
        suites: vec![Suite::PropertyTwo],
        granularity: Granularity::Suite,
        order,
        budget: ssr_engine::JobBudget::default(),
        threads: 1,
        verbose: false,
    }
}

/// The IFR suite declares no wide operand pairs, so even the (deliberately
/// pathological) sequential preset can run it; this is where the full
/// preset matrix is exercised.
fn ifr_spec(order: OrderPolicy) -> CampaignSpec {
    CampaignSpec {
        configs: vec![NamedConfig::small()],
        policies: vec![policy_by_name("architectural").expect("named")],
        suites: vec![Suite::Ifr],
        granularity: Granularity::Suite,
        order,
        budget: ssr_engine::JobBudget::default(),
        threads: 1,
        verbose: false,
    }
}

#[test]
fn verdicts_are_invariant_across_presets() {
    let baseline = spec(OrderPolicy::Interleaved).run();
    assert!(baseline.jobs[0].holds && !baseline.jobs[1].holds);

    // Reverse preset: same verdicts, different (but valid) node counts.
    let reverse = spec(OrderPolicy::Reverse).run();
    assert_eq!(reverse.verdicts(), baseline.verdicts());
    assert_eq!(reverse.jobs[0].order, "reverse");

    // Explicit preset (a partial list; the rest falls back to interleaved).
    let explicit = OrderPolicy::Explicit(vec!["eq_add_r2[0]".into(), "eq_add_r1[0]".into()]);
    let explicit_report = spec(explicit).run();
    assert_eq!(explicit_report.verdicts(), baseline.verdicts());
}

#[test]
fn sequential_preset_matches_on_the_ifr_suite() {
    // Every preset over the pair-free IFR suite, including sequential.
    let baseline = ifr_spec(OrderPolicy::Interleaved).run();
    for order in [
        OrderPolicy::Sequential,
        OrderPolicy::Reverse,
        OrderPolicy::Explicit(vec!["ifr_wd[31]".into(), "ifr_wd[30]".into()]),
    ] {
        let report = ifr_spec(order.clone()).run();
        assert_eq!(
            report.verdicts(),
            baseline.verdicts(),
            "verdicts diverged under {order}"
        );
    }
}

#[test]
fn eager_maintenance_keeps_verdicts_and_the_ifr_peak() {
    // The §III-B IFR property is the most memory-hungry job of the small
    // config.  A GC policy far more eager than the default one (which
    // `run_job_with` keeps when the caller installed it) must leave its
    // verdict and counterexamples alone, actually collect, and never raise
    // the peak above the default run's.
    let campaign = ifr_spec(OrderPolicy::Interleaved);
    let without = campaign.run();
    let job = campaign.jobs().remove(0);
    let harness = SharedHarness::build(job.config, job.order.clone());
    let mut m = BddManager::new();
    m.set_maintenance(Some(MaintainSettings {
        gc_threshold: 1 << 10,
    }));
    let with = run_job_with(&job, harness.get(), &mut m);
    assert_eq!(with.holds, without.jobs[0].holds);
    assert_eq!(with.assertions.len(), without.jobs[0].assertions.len());
    for (a, b) in with.assertions.iter().zip(&without.jobs[0].assertions) {
        assert_eq!(
            (&a.name, a.holds, a.vacuous, &a.failures),
            (&b.name, b.holds, b.vacuous, &b.failures)
        );
    }
    assert!(
        with.gc_passes > without.jobs[0].gc_passes,
        "the eager policy collected more"
    );
    let peak_without = without.jobs[0].peak_live_nodes;
    let peak_with = with.peak_live_nodes;
    assert!(
        peak_with <= peak_without,
        "eager maintenance grew the peak: {peak_with} vs {peak_without}"
    );
}

#[test]
fn order_is_part_of_the_resume_identity() {
    let interleaved = spec(OrderPolicy::Interleaved);
    let reverse = spec(OrderPolicy::Reverse);
    let report = interleaved.run();
    // Same shape, different order: nothing may be reused.
    let plan = plan_resume(&reverse.jobs(), &report.jobs);
    assert!(plan.reused.is_empty());
    assert_eq!(plan.stale, report.jobs.len());
    // Same order: everything is reused.
    let plan = plan_resume(&interleaved.jobs(), &report.jobs);
    assert_eq!(plan.reused.len(), report.jobs.len());
    assert!(plan.complete());
}

#[test]
fn pre_ordering_journals_resume_against_the_default_order() {
    // Artifacts from older writers, simulated from a real run:
    // * a report written before the ordering layer carries no `order`
    //   field — the lenient parser must default to `interleaved`;
    // * a report and a journal written while the warm-start store existed
    //   carry nonzero `store_hits`/`store_misses` counters, which the
    //   parser must ignore;
    // * a report and a journal written while the checker had selectable
    //   strategies carry a `partitioning` key on every job, which the
    //   parser must ignore whatever its value;
    // * a report and a journal written while the kernel could sift carry
    //   `reorder_passes` and `sift_ms` on every job and, in the journal
    //   header, `"reorder": true`, which the parser must ignore.
    // Each must load, resume against a default-order enumeration to the
    // fresh run's canonical report, and diff clean against it.
    let campaign = spec(OrderPolicy::Interleaved);
    let report = campaign.run();
    let json = report.to_json();
    let legacy = regex_strip_order(&json);
    assert!(
        !legacy.contains("\"order\""),
        "the simulated legacy report must not mention order"
    );
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
        ("pre-ordering report", legacy),
        ("store-era report", store_report),
        ("store-era journal", store_journal),
        ("partitioning-era report", strategy_report),
        ("partitioning-era journal", strategy_journal),
        ("reorder-era report", sift_report),
        ("reorder-era journal", sift_journal),
    ] {
        let partial = load_partial(&text).unwrap_or_else(|e| panic!("{what} loads: {e}"));
        assert!(partial.jobs.iter().all(|j| j.order == "interleaved"));
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

/// Removes every `"order": "...",` field the way a pre-ordering writer
/// simply never emitted it (no regex crate offline; plain splicing).
fn regex_strip_order(json: &str) -> String {
    json.lines()
        .filter(|line| !line.trim_start().starts_with("\"order\":"))
        .collect::<Vec<_>>()
        .join("\n")
}
