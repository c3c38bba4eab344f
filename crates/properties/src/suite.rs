//! Suite enumeration — the campaign-facing face of the property crates.
//!
//! The paper's verification artefacts come in three suites (Property I,
//! Property II, the §III-B instruction-memory/IFR property).  [`Suite`]
//! names them as data so that batch drivers — the `ssr-engine` campaign
//! runner in particular — can enumerate, filter, shard and schedule the
//! individual proof obligations without knowing how each assertion is
//! built.

use ssr_bdd::BddManager;
use ssr_cpu::{ControlPath, CoreConfig};
use ssr_ste::Assertion;

use crate::harness::CoreHarness;
use crate::{ifr, property_one, property_two};

/// One of the paper's three property suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Suite {
    /// Property I: the 26 functional assertions with `NRET` held high.
    PropertyOne,
    /// Property II: retention survival + architectural equivalence across
    /// the sleep/resume hand-shake (8 assertions).
    PropertyTwo,
    /// The §III-B instruction-memory / IFR read-after-write property, in
    /// both antecedent styles (2 assertions).
    Ifr,
}

impl Suite {
    /// Every suite, in canonical (enumeration) order.
    pub const ALL: [Suite; 3] = [Suite::PropertyOne, Suite::PropertyTwo, Suite::Ifr];

    /// Stable lower-case identifier (used by reports, JSON and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            Suite::PropertyOne => "property-one",
            Suite::PropertyTwo => "property-two",
            Suite::Ifr => "ifr",
        }
    }

    /// Parses a CLI/JSON identifier.  Accepts the canonical names plus the
    /// short aliases `one`, `two`, `i`, `ii`.
    pub fn parse(text: &str) -> Option<Suite> {
        match text.to_ascii_lowercase().as_str() {
            "property-one" | "one" | "i" | "1" => Some(Suite::PropertyOne),
            "property-two" | "two" | "ii" | "2" => Some(Suite::PropertyTwo),
            "ifr" => Some(Suite::Ifr),
            _ => None,
        }
    }

    /// Number of assertions the suite expands to (independent of the core
    /// configuration).
    pub fn assertion_count(self) -> usize {
        match self {
            Suite::PropertyOne => 26,
            Suite::PropertyTwo => 8,
            Suite::Ifr => 2,
        }
    }

    /// `true` if the suite can run against `config`.
    ///
    /// The IFR property observes the Instruction Fetch Register, which the
    /// purely combinational control path does not have, and its consequent
    /// asserts the *volatile*-IFR protocol (the IFR carries its reset value
    /// while the core is asleep and re-captures after resume), so it does
    /// not apply to policies that retain the micro-architectural state.
    ///
    /// It is also excluded for policies that retain the instruction memory
    /// but let the PC reset: the post-resume fetch state is then
    /// incoherent — the unconstrained fetch pointer symbolically indexes
    /// the retained (symbolic) memory contents, the resulting unknowns feed
    /// back through the control loop, and the trajectory's BDDs compound
    /// every cycle (the path-explosion regime; see Ryan & Sturton).  Every
    /// coherent policy — both fetch-state groups retained, or both lost —
    /// checks in milliseconds.
    pub fn applicable_to(self, config: &CoreConfig) -> bool {
        match self {
            Suite::Ifr => {
                let retention = &config.retention;
                // "Coherent fetch state": the PC survives whenever the
                // instruction memory does.
                let coherent_fetch = retention.pc || !retention.imem;
                config.control_path != ControlPath::Combinational
                    && !retention.micro
                    && coherent_fetch
            }
            _ => true,
        }
    }

    /// Builds the suite's assertions for `harness` in `m`, in a stable
    /// order.
    ///
    /// # Panics
    /// Panics if the suite is not [`applicable_to`](Suite::applicable_to)
    /// the harness's configuration (the IFR suite on a combinational core).
    pub fn assertions(self, harness: &CoreHarness, m: &mut BddManager) -> Vec<Assertion> {
        self.build(harness, m, Pick::all())
    }

    /// Builds only the `index`-th assertion of the suite (obligation-level
    /// sharding for the campaign engine).
    ///
    /// The suite constructor still declares every assertion's variables,
    /// in suite order and under the same names, but builds the formulas
    /// and BDDs of assertion `index` alone.  Variable indices, the
    /// variable count and every BDD function therefore equal those of the
    /// whole suite's build, so a one-assertion job reports what the
    /// whole-suite job reports for that assertion, counterexamples
    /// included.  On the paper core (2-vCPU VM) one Property II assertion
    /// takes a median 6 ms to build this way across the seven named
    /// policies, against 79 ms for the whole suite.
    ///
    /// # Panics
    /// Panics if `index >= assertion_count()` or the suite is not
    /// applicable to the harness's configuration.
    pub fn assertion(self, harness: &CoreHarness, m: &mut BddManager, index: usize) -> Assertion {
        assert!(
            index < self.assertion_count(),
            "assertion index {index} out of range for suite {} ({} assertions)",
            self.name(),
            self.assertion_count()
        );
        let mut built = self.build(harness, m, Pick::only(index));
        debug_assert_eq!(built.len(), 1);
        built.pop().expect("the picked assertion is built")
    }

    /// The one constructor path behind [`Suite::assertions`] and
    /// [`Suite::assertion`].
    fn build(self, harness: &CoreHarness, m: &mut BddManager, mut pick: Pick) -> Vec<Assertion> {
        match self {
            Suite::PropertyOne => property_one::build(harness, m, &mut pick),
            Suite::PropertyTwo => property_two::build(harness, m, &mut pick),
            Suite::Ifr => ifr::build(harness, m, &mut pick),
        }
    }
}

/// Which of a suite's assertions its constructor builds.
///
/// A constructor asks [`Pick::next`] once per assertion, in suite order.
/// For an assertion that is not picked it still makes every declaration
/// and skips only the construction in between, so a variable gets the
/// same index whatever is picked.  With every assertion picked, the
/// constructor runs the whole suite's BDD operations in their order.
#[derive(Debug)]
pub(crate) struct Pick {
    only: Option<usize>,
    next: usize,
}

impl Pick {
    /// Every assertion.
    pub(crate) fn all() -> Pick {
        Pick {
            only: None,
            next: 0,
        }
    }

    /// The assertion at `index` alone.
    pub(crate) fn only(index: usize) -> Pick {
        Pick {
            only: Some(index),
            next: 0,
        }
    }

    /// Moves to the suite's next assertion: `true` if it is to be built.
    pub(crate) fn next(&mut self) -> bool {
        let index = self.next;
        self.next += 1;
        self.only.map_or(true, |only| only == index)
    }
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for suite in Suite::ALL {
            assert_eq!(Suite::parse(suite.name()), Some(suite));
        }
        assert_eq!(Suite::parse("ONE"), Some(Suite::PropertyOne));
        assert_eq!(Suite::parse("ii"), Some(Suite::PropertyTwo));
        assert_eq!(Suite::parse("bogus"), None);
    }

    #[test]
    fn assertion_counts_match_the_built_suites() {
        let harness = CoreHarness::new(CoreConfig::small_test()).expect("core");
        for suite in Suite::ALL {
            let mut m = BddManager::new();
            assert_eq!(
                suite.assertions(&harness, &mut m).len(),
                suite.assertion_count()
            );
        }
    }

    #[test]
    fn ifr_suite_is_not_applicable_to_combinational_cores() {
        let mut cfg = CoreConfig::small_test();
        assert!(Suite::Ifr.applicable_to(&cfg));
        cfg.control_path = ControlPath::Combinational;
        assert!(!Suite::Ifr.applicable_to(&cfg));
        assert!(Suite::PropertyOne.applicable_to(&cfg));
        assert!(Suite::PropertyTwo.applicable_to(&cfg));
    }

    #[test]
    fn single_assertion_sharding_matches_the_full_suite() {
        let harness = CoreHarness::new(CoreConfig::small_test()).expect("core");
        let names = |m: &BddManager| -> Vec<String> {
            (0..m.var_count() as u32)
                .map(|v| m.var_name(v).expect("declared").to_owned())
                .collect()
        };
        for suite in Suite::ALL {
            let mut m_full = BddManager::new();
            let full = suite.assertions(&harness, &mut m_full);
            for (i, a) in full.iter().enumerate() {
                let mut m = BddManager::new();
                let single = suite.assertion(&harness, &mut m, i);
                let what = format!("{suite} #{i}");
                assert_eq!(single.name, a.name, "{what}");
                assert_eq!(single.depth(), a.depth(), "{what}");
                assert_eq!(single.antecedent.nodes(), a.antecedent.nodes(), "{what}");
                assert_eq!(single.consequent.nodes(), a.consequent.nodes(), "{what}");
                // Every variable of the suite, in the suite's order.
                assert_eq!(names(&m), names(&m_full), "{what}");
                // ... but only this assertion's construction.
                assert!(
                    m.stats().nodes_allocated < m_full.stats().nodes_allocated,
                    "{what} allocated {} nodes, the whole suite {}",
                    m.stats().nodes_allocated,
                    m_full.stats().nodes_allocated
                );
            }
            let past_the_end = std::panic::catch_unwind(|| {
                let mut m = BddManager::new();
                suite.assertion(&harness, &mut m, suite.assertion_count())
            });
            assert!(past_the_end.is_err(), "{suite}: index past the end");
        }
    }
}
