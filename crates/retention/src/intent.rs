//! UPF-lite retention intent.
//!
//! The paper notes that the Accellera Unified Power Format is how industrial
//! flows annotate "supply network, switches, isolation, retention and other
//! aspects relevant to power management".  A full UPF front-end is outside
//! the scope of the reproduction; this module provides the small subset the
//! case study needs — *which state elements are declared to be retained* —
//! as a data model, a text rendering and an auditor that checks a netlist
//! against the declared intent.
//!
//! ## Text format
//!
//! [`RetentionIntent::render`] prints one block per power domain, one rule
//! a line.  For [`RetentionIntent::architectural_core`]:
//!
//! ```text
//! domain cpu_core
//!   retain PC[
//!   retain IMem_w
//!   retain Registers_w
//!   retain DMem_w
//!   volatile IFR_Instr
//! end
//! ```
//!
//! `retain`/`volatile` arguments are net-name prefixes matched against the
//! outputs of state cells.

use std::fmt::Write as _;

use ssr_netlist::Netlist;

/// Whether a group of elements must be retained or may lose state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetentionClass {
    /// The elements must be implemented with retention registers.
    Retain,
    /// The elements are allowed to lose their state in power-down.
    Volatile,
}

/// One element rule: a net-name prefix and its required class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementRule {
    /// Net-name prefix of the state-cell outputs this rule covers.
    pub prefix: String,
    /// Required implementation class.
    pub class: RetentionClass,
}

/// A power domain: a named group of element rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowerDomain {
    /// Domain name.
    pub name: String,
    /// The element rules, in declaration order.
    pub rules: Vec<ElementRule>,
}

/// A whole retention-intent description.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetentionIntent {
    /// The power domains.
    pub domains: Vec<PowerDomain>,
}

/// One discrepancy between declared intent and the netlist implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentViolation {
    /// The domain whose rule is violated.
    pub domain: String,
    /// The rule prefix.
    pub prefix: String,
    /// The offending state-cell output net.
    pub net: String,
    /// Human-readable description.
    pub message: String,
}

impl RetentionIntent {
    /// The intent corresponding to the paper's recommendation for the RISC
    /// core: retain the architectural state, leave the IFR volatile.
    pub fn architectural_core() -> Self {
        RetentionIntent {
            domains: vec![PowerDomain {
                name: "cpu_core".into(),
                rules: vec![
                    ElementRule {
                        prefix: "PC[".into(),
                        class: RetentionClass::Retain,
                    },
                    ElementRule {
                        prefix: "IMem_w".into(),
                        class: RetentionClass::Retain,
                    },
                    ElementRule {
                        prefix: "Registers_w".into(),
                        class: RetentionClass::Retain,
                    },
                    ElementRule {
                        prefix: "DMem_w".into(),
                        class: RetentionClass::Retain,
                    },
                    ElementRule {
                        prefix: "IFR_Instr".into(),
                        class: RetentionClass::Volatile,
                    },
                ],
            }],
        }
    }

    /// Renders the intent in the text format described in the module
    /// documentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.domains {
            let _ = writeln!(out, "domain {}", d.name);
            for r in &d.rules {
                let kw = match r.class {
                    RetentionClass::Retain => "retain",
                    RetentionClass::Volatile => "volatile",
                };
                let _ = writeln!(out, "  {kw} {}", r.prefix);
            }
            let _ = writeln!(out, "end");
        }
        out
    }

    /// Audits a netlist against the intent: every state cell whose output
    /// name starts with a rule prefix must be implemented with (for
    /// `retain`) or without (for `volatile`) a retention register.
    pub fn check(&self, netlist: &Netlist) -> Vec<IntentViolation> {
        let mut violations = Vec::new();
        for domain in &self.domains {
            for rule in &domain.rules {
                for (_, cell) in netlist.state_cells() {
                    let out_name = netlist.net(cell.output).name;
                    if !out_name.starts_with(&rule.prefix) {
                        continue;
                    }
                    let is_retention = match cell.kind {
                        ssr_netlist::CellKind::Reg(k) => k.is_retention(),
                        _ => false,
                    };
                    let violated = match rule.class {
                        RetentionClass::Retain => !is_retention,
                        RetentionClass::Volatile => is_retention,
                    };
                    if violated {
                        violations.push(IntentViolation {
                            domain: domain.name.clone(),
                            prefix: rule.prefix.clone(),
                            net: out_name.to_owned(),
                            message: match rule.class {
                                RetentionClass::Retain => {
                                    format!("`{out_name}` must be a retention register")
                                }
                                RetentionClass::Volatile => {
                                    format!("`{out_name}` must not be a retention register")
                                }
                            },
                        });
                    }
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_cpu::{build_core, CoreConfig, RetentionPolicy};

    #[test]
    fn render_prints_the_architectural_intent() {
        assert_eq!(
            RetentionIntent::architectural_core().render(),
            "domain cpu_core\n  retain PC[\n  retain IMem_w\n  retain Registers_w\n  \
             retain DMem_w\n  volatile IFR_Instr\nend\n"
        );
    }

    #[test]
    fn audit_matches_generated_core() {
        let netlist = build_core(&CoreConfig::small_test()).expect("generates");
        let intent = RetentionIntent::architectural_core();
        assert!(
            intent.check(&netlist).is_empty(),
            "intent matches the default policy"
        );

        // A core built without retention violates every `retain` rule.
        let mut cfg = CoreConfig::small_test();
        cfg.retention = RetentionPolicy::none();
        let bare = build_core(&cfg).expect("generates");
        let violations = intent.check(&bare);
        assert!(!violations.is_empty());
        assert!(violations.iter().any(|v| v.net.starts_with("PC[")));
        assert!(violations
            .iter()
            .all(|v| v.message.contains("must be a retention register")));

        // A fully retained core violates the `volatile IFR` rule.
        cfg.retention = RetentionPolicy::full();
        let full = build_core(&cfg).expect("generates");
        let violations = intent.check(&full);
        assert!(violations.iter().any(|v| v.net.starts_with("IFR_Instr")));
    }
}
