//! BDD node representation and the public [`Bdd`] handle.

/// A handle to a node in a [`crate::BddManager`], with a complement edge.
///
/// The raw `u32` packs an arena index (upper 31 bits) and a complement bit
/// (bit 0).  A set complement bit means the handle denotes the *negation* of
/// the function stored at the index, so negation is a single XOR and `f` and
/// `¬f` share one subgraph.  There is a single terminal node — `TRUE` at
/// arena index 0 — and `FALSE` is its complement: `Bdd(1)`.
///
/// Handles are only meaningful together with the manager that created them.
///
/// ```
/// use ssr_bdd::{Bdd, BddManager};
/// let mut m = BddManager::new();
/// let x = m.new_var("x");
/// assert_ne!(x, Bdd::TRUE);
/// assert_ne!(x, Bdd::FALSE);
/// assert_eq!(Bdd::FALSE, Bdd::TRUE.negate());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-true terminal: the regular edge to the terminal node.
    pub const TRUE: Bdd = Bdd(0);
    /// The constant-false terminal: the complement edge to the terminal node.
    pub const FALSE: Bdd = Bdd(1);

    /// Returns `true` if this handle is one of the two terminal constants.
    #[inline]
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    /// Returns `true` if this handle is the constant-true terminal.
    #[inline]
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// Returns `true` if this handle is the constant-false terminal.
    #[inline]
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    /// Arena index of the node (stable for the lifetime of the manager).
    /// Both polarities of an edge map to the same index.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Returns `true` if the edge carries the complement attribute.
    #[inline]
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The negation of this function — a constant-time bit flip; no manager
    /// access, no allocation.
    #[inline]
    #[must_use]
    pub fn negate(self) -> Bdd {
        Bdd(self.0 ^ 1)
    }

    /// The regular (uncomplemented) edge to the same node.
    #[inline]
    pub(crate) fn regular(self) -> Bdd {
        Bdd(self.0 & !1)
    }

    /// Builds a handle from an arena index and a complement flag.
    #[inline]
    pub(crate) fn from_parts(index: usize, complement: bool) -> Bdd {
        Bdd(((index as u32) << 1) | complement as u32)
    }
}

impl From<bool> for Bdd {
    fn from(b: bool) -> Self {
        if b {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }
}

/// Internal node: decision variable plus low/high cofactor edges, and the
/// link that threads it into its unique-table chain.
///
/// Canonical-form invariant: the low edge is never complemented.  `mk_node`
/// restores this by flipping both children's polarity and complementing the
/// returned handle, so every function keeps exactly one representation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// Decision variable index, which is also its level in the order
    /// (declaration order).  The terminal uses `u32::MAX`, below every
    /// variable.
    pub var: u32,
    /// Cofactor with `var = 0`; always a regular (uncomplemented) edge.
    pub lo: Bdd,
    /// Cofactor with `var = 1`; may carry the complement attribute.
    pub hi: Bdd,
    /// Arena index of the next node in the same unique-table bucket; `0`
    /// (the terminal, which is never chained) ends the chain.
    pub next: u32,
}

// The arena is the kernel's dominant allocation: keep a node at 16 bytes.
const _: () = assert!(std::mem::size_of::<Node>() == 16);

impl Node {
    pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

    pub(crate) fn terminal() -> Node {
        Node {
            var: Node::TERMINAL_VAR,
            lo: Bdd::TRUE,
            hi: Bdd::TRUE,
            next: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_handles_are_fixed() {
        assert_eq!(Bdd::TRUE.index(), 0);
        assert_eq!(Bdd::FALSE.index(), 0);
        assert!(Bdd::FALSE.is_terminal());
        assert!(Bdd::TRUE.is_terminal());
        assert!(Bdd::TRUE.is_true());
        assert!(!Bdd::TRUE.is_false());
        assert!(Bdd::FALSE.is_false());
    }

    #[test]
    fn complement_bit_round_trips() {
        assert_eq!(Bdd::TRUE.negate(), Bdd::FALSE);
        assert_eq!(Bdd::FALSE.negate(), Bdd::TRUE);
        let f = Bdd::from_parts(7, true);
        assert!(f.is_complement());
        assert_eq!(f.index(), 7);
        assert_eq!(f.negate().negate(), f);
        assert_eq!(f.regular(), Bdd::from_parts(7, false));
        assert_eq!(f.negate().index(), f.index());
    }

    #[test]
    fn bdd_from_bool() {
        assert_eq!(Bdd::from(true), Bdd::TRUE);
        assert_eq!(Bdd::from(false), Bdd::FALSE);
    }
}
