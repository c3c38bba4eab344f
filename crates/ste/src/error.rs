//! Error type for the STE crate.

use std::error::Error;
use std::fmt;

/// Errors produced while elaborating or checking trajectory formulas.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SteError {
    /// A formula references a circuit node that does not exist in the model.
    UnknownNode(String),
    /// An inference rule's side condition failed.
    RuleViolation(String),
}

impl fmt::Display for SteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SteError::UnknownNode(n) => write!(f, "formula references unknown circuit node `{n}`"),
            SteError::RuleViolation(msg) => {
                write!(f, "inference rule side condition failed: {msg}")
            }
        }
    }
}

impl Error for SteError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            SteError::UnknownNode("pc".into()).to_string(),
            "formula references unknown circuit node `pc`"
        );
    }

    #[test]
    fn is_std_error() {
        fn check<E: std::error::Error + Send + Sync>() {}
        check::<SteError>();
    }
}
