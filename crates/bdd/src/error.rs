//! Error type for the BDD crate.

use std::error::Error;
use std::fmt;

/// Which resource ceiling a budget-governed manager ran out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The live-node ceiling ([`crate::BudgetSettings::max_live_nodes`]).
    Nodes,
    /// The ITE recursion-step ceiling
    /// ([`crate::BudgetSettings::max_ite_steps`]).
    Steps,
    /// The wall-clock deadline ([`crate::BudgetSettings::deadline`]).
    Time,
}

impl BudgetKind {
    /// The stable machine-readable code for this exhaustion kind, as it
    /// appears in campaign error records (`budget_nodes`, `budget_steps`,
    /// `budget_time`).
    pub fn code(self) -> &'static str {
        match self {
            BudgetKind::Nodes => "budget_nodes",
            BudgetKind::Steps => "budget_steps",
            BudgetKind::Time => "budget_time",
        }
    }
}

/// Errors produced by [`crate::BddManager`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BddError {
    /// Two bit-vector operands had mismatching widths.
    WidthMismatch {
        /// Width of the left operand.
        left: usize,
        /// Width of the right operand.
        right: usize,
    },
    /// A resource ceiling installed via [`crate::BddManager::set_budget`]
    /// was exhausted.  Raised by unwinding out of the allocation/recursion
    /// hot paths (`mk_node` / `ite`), so infallible call sites need no
    /// `Result` plumbing; governed callers catch the unwind and downcast.
    BudgetExceeded {
        /// Which ceiling ran out.
        kind: BudgetKind,
        /// The configured limit that was hit (milliseconds for
        /// [`BudgetKind::Time`]).
        limit: u64,
    },
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::WidthMismatch { left, right } => {
                write!(f, "bit-vector width mismatch: {left} vs {right}")
            }
            BddError::BudgetExceeded { kind, limit } => match kind {
                BudgetKind::Nodes => write!(f, "live-node budget exhausted (limit {limit})"),
                BudgetKind::Steps => write!(f, "ITE step budget exhausted (limit {limit})"),
                BudgetKind::Time => write!(f, "wall-clock deadline exceeded (limit {limit} ms)"),
            },
        }
    }
}

impl Error for BddError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            BddError::WidthMismatch { left: 8, right: 4 }.to_string(),
            "bit-vector width mismatch: 8 vs 4"
        );
        assert_eq!(
            BddError::BudgetExceeded {
                kind: BudgetKind::Nodes,
                limit: 1000
            }
            .to_string(),
            "live-node budget exhausted (limit 1000)"
        );
    }

    #[test]
    fn budget_codes_are_stable() {
        // These strings are the machine-readable error-code prefixes that
        // campaign reports, `ssr diff` classification and CI grep on.
        assert_eq!(BudgetKind::Nodes.code(), "budget_nodes");
        assert_eq!(BudgetKind::Steps.code(), "budget_steps");
        assert_eq!(BudgetKind::Time.code(), "budget_time");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<BddError>();
    }
}
