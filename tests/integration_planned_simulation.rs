//! The STE checker simulates under a demand plan.  On every suite
//! assertion of the small core, under all seven named policies, the planned
//! trajectory must carry exactly the full simulation's BDD on every
//! antecedent and consequent node at every step, and the checker's `ok` and
//! `antecedent_conflict` must be the ones the full trajectory gives.

use ssr_bdd::{Bdd, BddManager};
use ssr_cpu::CoreConfig;
use ssr_engine::named_policies;
use ssr_properties::{CoreHarness, Suite};
use ssr_sim::{DemandPlan, SymSimulator, SymState};
use ssr_ste::Ste;

#[test]
fn planned_simulation_matches_full_simulation_on_every_small_core_assertion() {
    let mut checked = 0;
    for named in named_policies() {
        let mut config = CoreConfig::small_test();
        config.retention = named.policy;
        let harness = CoreHarness::new(config).expect("the small core builds");
        let model = harness.model();
        let netlist = model.netlist();
        let sim = SymSimulator::new(model);
        for suite in Suite::ALL.into_iter().filter(|s| s.applicable_to(&config)) {
            // One manager with no maintenance policy: nothing is collected,
            // so equal functions are equal handles throughout.
            let mut m = BddManager::new();
            for assertion in suite.assertions(&harness, &mut m) {
                let what = format!("{} {suite} {:?}", named.name, assertion.name);
                let depth = assertion.depth();
                let a_seq = assertion
                    .antecedent
                    .defining_sequence(&mut m, netlist, depth)
                    .expect("elaborates");
                let c_seq = assertion
                    .consequent
                    .defining_sequence(&mut m, netlist, depth)
                    .expect("elaborates");
                let plan = DemandPlan::new(model, &a_seq, &c_seq);
                let full = sim.run(&mut m, &a_seq);

                let (mut ok, mut conflict) = (Bdd::TRUE, Bdd::FALSE);
                let mut prev: Option<SymState> = None;
                for (t, drive) in a_seq.iter().enumerate() {
                    let state = sim.planned_step(&mut m, prev.as_ref(), drive, &plan, t);
                    for &(net, _) in drive.iter().chain(&c_seq[t]) {
                        let name = netlist.net(net).name;
                        assert_eq!(state.node(net), full[t].node(net), "{what}: {name} at {t}");
                    }
                    for &(net, _) in drive {
                        let top = full[t].node(net).is_top(&mut m);
                        conflict = m.or(conflict, top);
                    }
                    for &(net, required) in &c_seq[t] {
                        let cond = required.leq(&mut m, &full[t].node(net));
                        ok = m.and(ok, cond);
                    }
                    prev = Some(state);
                }

                let report = Ste::new(model).check(&mut m, &assertion).expect("checks");
                assert_eq!(report.ok, ok, "{what}: ok");
                assert_eq!(report.antecedent_conflict, conflict, "{what}: conflict");
                checked += 1;
            }
        }
    }
    // The small-core `--policy all --suite all --granularity assertion`
    // product.
    assert_eq!(checked, 248);
}
