//! End-to-end ordering-layer tests: every variable-order preset — and a
//! campaign with dynamic reordering enabled — must produce verdict-identical
//! reports on the example configurations, artifacts from older writers
//! must still resume cleanly, and `--reorder` must sift without raising
//! the peak live node count on the IFR workload.

use ssr_engine::json::Json;
use ssr_engine::persist::{load_partial, JOURNAL_SCHEMA};
use ssr_engine::{
    plan_resume, policy_by_name, CampaignReport, CampaignSpec, Granularity, MaintainSettings,
    NamedConfig, OrderPolicy, ReportDiff, Suite,
};

/// A small two-policy Property II campaign under the given ordering
/// configuration.
fn spec(order: OrderPolicy, reorder: Option<MaintainSettings>) -> CampaignSpec {
    CampaignSpec {
        configs: vec![NamedConfig::small()],
        policies: vec![
            policy_by_name("architectural").expect("named"),
            policy_by_name("none").expect("named"),
        ],
        suites: vec![Suite::PropertyTwo],
        granularity: Granularity::Suite,
        order,
        partitioning: ssr_engine::Partitioning::default(),
        reorder,
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
        partitioning: ssr_engine::Partitioning::default(),
        reorder: None,
        budget: ssr_engine::JobBudget::default(),
        threads: 1,
        verbose: false,
    }
}

/// Aggressive maintenance so the small test campaigns actually exercise
/// GC + sifting (production defaults trigger at much higher node counts).
fn eager_reorder() -> Option<MaintainSettings> {
    Some(MaintainSettings {
        gc_threshold: 1 << 10,
        sift: true,
        sift_threshold: 1 << 10,
        max_growth: 1.2,
    })
}

#[test]
fn verdicts_are_invariant_across_presets_and_reordering() {
    let baseline = spec(OrderPolicy::Interleaved, None).run();
    assert!(baseline.jobs[0].holds && !baseline.jobs[1].holds);

    // Reverse preset: same verdicts, different (but valid) node counts.
    let reverse = spec(OrderPolicy::Reverse, None).run();
    assert_eq!(reverse.verdicts(), baseline.verdicts());
    assert_eq!(reverse.jobs[0].order, "reverse");

    // Explicit preset (a partial list; the rest falls back to interleaved).
    let explicit = OrderPolicy::Explicit(vec!["eq_add_r2[0]".into(), "eq_add_r1[0]".into()]);
    let explicit_report = spec(explicit, None).run();
    assert_eq!(explicit_report.verdicts(), baseline.verdicts());

    // Dynamic reordering on top of the default preset: verdicts identical,
    // GC demonstrably ran, and the reported peak can only shrink.
    let reordered = spec(OrderPolicy::Interleaved, eager_reorder()).run();
    assert_eq!(reordered.verdicts(), baseline.verdicts());
    assert!(
        reordered.jobs.iter().any(|j| j.gc_passes > 0),
        "the eager policy must have collected at least once"
    );
    for (with, without) in reordered.jobs.iter().zip(&baseline.jobs) {
        assert!(
            with.peak_live_nodes <= without.peak_live_nodes,
            "job {}: reordering grew the peak ({} > {})",
            with.job_id,
            with.peak_live_nodes,
            without.peak_live_nodes
        );
    }
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
    // config.  Eager GC + sifting must leave its verdicts alone, actually
    // sift, and never raise the peak above the unmaintained run's.  (Any
    // peak saving here comes from GC cadence, not sifting; sifting's own
    // shrink is covered by the kernel's sift tests.)
    let without = ifr_spec(OrderPolicy::Interleaved).run();
    let mut with = ifr_spec(OrderPolicy::Interleaved);
    with.reorder = eager_reorder();
    let with = with.run();
    assert_eq!(with.verdicts(), without.verdicts());
    assert!(with.jobs[0].reorder_passes > 0, "the eager policy sifted");
    let peak_without = without.jobs[0].peak_live_nodes;
    let peak_with = with.jobs[0].peak_live_nodes;
    assert!(
        peak_with <= peak_without,
        "eager maintenance grew the peak: {peak_with} vs {peak_without}"
    );
}

#[test]
fn order_is_part_of_the_resume_identity() {
    let interleaved = spec(OrderPolicy::Interleaved, None);
    let reverse = spec(OrderPolicy::Reverse, None);
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
    //   parser must ignore.
    // Each must load, resume against a default-order enumeration to the
    // fresh run's canonical report, and diff clean against it.
    let campaign = spec(OrderPolicy::Interleaved, None);
    let report = campaign.run();
    let json = report.to_json();
    let legacy = regex_strip_order(&json);
    assert!(
        !legacy.contains("\"order\""),
        "the simulated legacy report must not mention order"
    );
    let (store_report, store_journal) = with_store_counters(&report);
    for (what, text) in [
        ("pre-ordering report", legacy),
        ("store-era report", store_report),
        ("store-era journal", store_journal),
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

/// The report and the journal of `report` as the store-era writer emitted
/// them: it added `store_hits` or `store_misses` to a job only when
/// nonzero, so every job here carries exactly one of the two.
fn with_store_counters(report: &CampaignReport) -> (String, String) {
    let jobs: Vec<Json> = report
        .jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let mut line = job.to_json();
            if let Json::Obj(fields) = &mut line {
                let key = if i % 2 == 0 {
                    "store_hits"
                } else {
                    "store_misses"
                };
                fields.insert(key.to_owned(), Json::Num(1.0));
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
        ("reorder", Json::Bool(false)),
    ]);
    let journal: String = std::iter::once(&header)
        .chain(&jobs)
        .map(|line| line.render() + "\n")
        .collect();
    let doc = doc.render_pretty();
    assert!(doc.contains("\"store_hits\"") && journal.contains("\"store_misses\""));
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
