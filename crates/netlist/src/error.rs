//! Error type for netlist construction and validation.

use std::error::Error;
use std::fmt;

/// Errors produced while building or validating netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A net has more than one driver.
    MultipleDrivers(String),
    /// A net is used but never driven (and is not a primary input).
    Undriven(String),
    /// A cell was constructed with the wrong number of inputs.
    ArityMismatch {
        /// The name of the cell's output net.
        cell: String,
        /// Number of inputs expected for its kind.
        expected: usize,
        /// Number of inputs supplied.
        found: usize,
    },
    /// The combinational part of the netlist contains a cycle through the
    /// named net.
    CombinationalLoop(String),
    /// Widths of word-level operands disagree.
    WidthMismatch {
        /// Width of the left operand.
        left: usize,
        /// Width of the right operand.
        right: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers(n) => write!(f, "net `{n}` has multiple drivers"),
            NetlistError::Undriven(n) => write!(f, "net `{n}` is used but never driven"),
            NetlistError::ArityMismatch {
                cell,
                expected,
                found,
            } => write!(
                f,
                "cell `{cell}` expects {expected} inputs but {found} were supplied"
            ),
            NetlistError::CombinationalLoop(n) => {
                write!(f, "combinational loop through net `{n}`")
            }
            NetlistError::WidthMismatch { left, right } => {
                write!(f, "word width mismatch: {left} vs {right}")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            NetlistError::MultipleDrivers("a".into()).to_string(),
            "net `a` has multiple drivers"
        );
        assert_eq!(
            NetlistError::ArityMismatch {
                cell: "g".into(),
                expected: 2,
                found: 1
            }
            .to_string(),
            "cell `g` expects 2 inputs but 1 were supplied"
        );
    }

    #[test]
    fn is_std_error() {
        fn check<E: std::error::Error + Send + Sync>() {}
        check::<NetlistError>();
    }
}
