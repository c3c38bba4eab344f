//! UPF-lite retention intent.
//!
//! The paper notes that the Accellera Unified Power Format is how industrial
//! flows annotate "supply network, switches, isolation, retention and other
//! aspects relevant to power management".  A full UPF front-end is outside
//! the scope of the reproduction; this module provides the small subset the
//! case study needs — *which state elements are declared to be retained* —
//! as a data model, a tiny text format and an auditor that checks a netlist
//! against the declared intent.
//!
//! ## Text format
//!
//! ```text
//! # comments start with '#'
//! domain cpu_core
//!   retain PC
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

/// Errors from parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIntentError {
    /// 1-based line number.
    pub line: usize,
    /// Message.
    pub message: String,
}

impl std::fmt::Display for ParseIntentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "retention intent parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseIntentError {}

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

    /// Parses the text format described in the module documentation.
    ///
    /// # Errors
    /// Returns a [`ParseIntentError`] with a line number for malformed input.
    pub fn parse(text: &str) -> Result<Self, ParseIntentError> {
        let mut intent = RetentionIntent::default();
        let mut current: Option<PowerDomain> = None;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_whitespace();
            match tokens.next() {
                Some("domain") => {
                    if current.is_some() {
                        return Err(ParseIntentError {
                            line: lineno,
                            message: "nested domains are not supported".into(),
                        });
                    }
                    let name = tokens.next().ok_or(ParseIntentError {
                        line: lineno,
                        message: "domain needs a name".into(),
                    })?;
                    current = Some(PowerDomain {
                        name: name.to_owned(),
                        rules: Vec::new(),
                    });
                }
                Some(kw @ ("retain" | "volatile")) => {
                    let prefix = tokens.next().ok_or(ParseIntentError {
                        line: lineno,
                        message: format!("{kw} needs a net prefix"),
                    })?;
                    let class = if kw == "retain" {
                        RetentionClass::Retain
                    } else {
                        RetentionClass::Volatile
                    };
                    match current.as_mut() {
                        Some(d) => d.rules.push(ElementRule {
                            prefix: prefix.to_owned(),
                            class,
                        }),
                        None => {
                            return Err(ParseIntentError {
                                line: lineno,
                                message: format!("{kw} outside a domain"),
                            })
                        }
                    }
                }
                Some("end") => match current.take() {
                    Some(d) => intent.domains.push(d),
                    None => {
                        return Err(ParseIntentError {
                            line: lineno,
                            message: "end without a matching domain".into(),
                        })
                    }
                },
                Some(other) => {
                    return Err(ParseIntentError {
                        line: lineno,
                        message: format!("unknown keyword `{other}`"),
                    })
                }
                None => unreachable!("empty lines are filtered"),
            }
        }
        if current.is_some() {
            return Err(ParseIntentError {
                line: text.lines().count(),
                message: "unterminated domain".into(),
            });
        }
        Ok(intent)
    }

    /// Serialises the intent back to the text format.
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
    fn parse_and_render_roundtrip() {
        let intent = RetentionIntent::architectural_core();
        let text = intent.render();
        let back = RetentionIntent::parse(&text).expect("parses");
        assert_eq!(back, intent);
    }

    #[test]
    fn parse_errors() {
        assert!(RetentionIntent::parse("retain X\n").is_err());
        assert!(RetentionIntent::parse("domain a\nretain\nend\n").is_err());
        assert!(RetentionIntent::parse("domain a\n").is_err());
        assert!(RetentionIntent::parse("bogus\n").is_err());
        assert!(RetentionIntent::parse("end\n").is_err());
        let err = RetentionIntent::parse("domain a\nfoo x\nend\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\ndomain d\n  # inner comment\n  retain PC[\nend\n";
        let intent = RetentionIntent::parse(text).expect("parses");
        assert_eq!(intent.domains.len(), 1);
        assert_eq!(intent.domains[0].rules.len(), 1);
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
