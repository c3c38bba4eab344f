//! Reproduces the paper's headline verification run on the full RISC core —
//! the Property I suite (26 assertions, `NRET` held high), the Property II
//! suite (sleep/resume), and the §III-B instruction-memory / IFR property —
//! as one batch campaign on the `ssr-engine` worker pool.
//!
//! This is the same flow the `ssr` CLI drives
//! (`cargo run -p ssr-cli -- campaign --suite all`); the example shows the
//! library API.
//!
//! Run with `cargo run --release --example sleep_resume_verification -p ssr`.

use ssr::engine::{CampaignSpec, Granularity, JobBudget, NamedConfig, Suite};
use ssr::properties::CoreHarness;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A moderate configuration keeps the example quick; pass `--config
    // paper` to the CLI (or use `NamedConfig::paper()`) for the paper-sized
    // 256-word memory.
    let mut core = NamedConfig::sized(16);
    core.name = "example".into();

    let harness = CoreHarness::new(core.config)?;
    println!(
        "core `{}`: {} cells, {} state bits, {} retention registers",
        harness.netlist().name(),
        harness.netlist().cell_count(),
        harness.netlist().state_cells().count(),
        harness.netlist().retention_cells().len()
    );

    // One campaign covers the whole paper flow: every suite against the
    // recommended policy, one job per proof obligation so the pool can
    // parallelise inside the suites.
    let spec = CampaignSpec {
        configs: vec![core],
        policies: vec![ssr::engine::policy_by_name("architectural").expect("named policy")],
        suites: Suite::ALL.to_vec(),
        granularity: Granularity::Assertion,
        threads: 0, // one worker per CPU
        budget: JobBudget::default(),
        verbose: false,
    };
    println!(
        "running {} proof obligations on {} worker thread(s)...",
        spec.jobs().len(),
        spec.effective_threads(spec.jobs().len()),
    );
    let report = spec.run();
    print!("{}", report.render_table());

    println!(
        "\nconclusion: selective retention of the architectural state {} the full suite",
        if report.all_hold() {
            "satisfies"
        } else {
            "VIOLATES"
        }
    );
    Ok(())
}
