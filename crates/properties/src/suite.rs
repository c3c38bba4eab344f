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
        match self {
            Suite::PropertyOne => property_one::suite(harness, m),
            Suite::PropertyTwo => property_two::suite(harness, m),
            Suite::Ifr => vec![
                ifr::assertion(harness, m, ifr::AntecedentStyle::Direct),
                ifr::assertion(harness, m, ifr::AntecedentStyle::Indexed),
            ],
        }
    }

    /// Builds only the `index`-th assertion of the suite (obligation-level
    /// sharding for the campaign engine).
    ///
    /// Building a single assertion still goes through the full suite
    /// constructor, which keeps the numbering authoritative but is not
    /// cheap next to checking.  On the paper core (2-vCPU Xeon VM), one
    /// Property II suite takes 34–57 ms to build across the seven named
    /// policies, against a 12 ms median job of the assertion-granular
    /// policy sweep, and that sweep spends 5.8 s building suites against
    /// 5.5 s checking them.
    ///
    /// # Panics
    /// Panics if `index >= assertion_count()` or the suite is not
    /// applicable to the harness's configuration.
    pub fn assertion(self, harness: &CoreHarness, m: &mut BddManager, index: usize) -> Assertion {
        let mut all = self.assertions(harness, m);
        assert!(
            index < all.len(),
            "assertion index {index} out of range for suite {} ({} assertions)",
            self.name(),
            all.len()
        );
        all.swap_remove(index)
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
        let mut m_full = BddManager::new();
        let full = Suite::PropertyTwo.assertions(&harness, &mut m_full);
        for (i, a) in full.iter().enumerate() {
            let mut m = BddManager::new();
            let single = Suite::PropertyTwo.assertion(&harness, &mut m, i);
            assert_eq!(single.name, a.name);
        }
    }
}
