//! The scalar quaternary lattice `{X, 0, 1, ⊤}`.

use std::fmt;

/// A value of the STE information lattice.
///
/// `X` is the bottom element (no information), `Zero`/`One` are the ordinary
/// Boolean values and `Top` is the overconstrained element produced when an
/// antecedent demands both `0` and `1` on the same node at the same time.
///
/// The gate operations ([`Ternary::and`], [`Ternary::or`], [`Ternary::not`],
/// [`Ternary::xor`], [`Ternary::mux`]) are the *monotone ternary extensions*
/// of the Boolean functions described in the paper: any binary value that
/// results when simulating patterns containing `X` also results when each
/// `X` is replaced by `0` or `1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ternary {
    /// Unknown — the bottom of the information ordering.
    #[default]
    X,
    /// Boolean false.
    Zero,
    /// Boolean true.
    One,
    /// Overconstrained — the top of the information ordering.
    Top,
}

impl Ternary {
    /// All four lattice values, in increasing-information order (X first).
    pub const ALL: [Ternary; 4] = [Ternary::X, Ternary::Zero, Ternary::One, Ternary::Top];

    /// Converts a Boolean to the corresponding lattice value.
    pub fn from_bool(b: bool) -> Ternary {
        if b {
            Ternary::One
        } else {
            Ternary::Zero
        }
    }

    /// Returns `true` if this is the unknown value `X`.
    pub fn is_x(self) -> bool {
        self == Ternary::X
    }

    /// Returns `true` if this is the overconstrained value `⊤`.
    pub fn is_top(self) -> bool {
        self == Ternary::Top
    }

    /// Returns `true` if this is a proper Boolean value.
    pub fn is_boolean(self) -> bool {
        matches!(self, Ternary::Zero | Ternary::One)
    }

    /// Information ordering `self ⊑ other`.
    ///
    /// `X` is below everything, `⊤` is above everything, and `0`/`1` are
    /// incomparable with each other.
    pub fn leq(self, other: Ternary) -> bool {
        self == other || self == Ternary::X || other == Ternary::Top
    }

    /// Least upper bound (join, `⊔`) in the information ordering.
    ///
    /// Joining `0` with `1` yields `⊤`.
    pub fn join(self, other: Ternary) -> Ternary {
        match (self, other) {
            (Ternary::X, v) | (v, Ternary::X) => v,
            (Ternary::Top, _) | (_, Ternary::Top) => Ternary::Top,
            (a, b) if a == b => a,
            _ => Ternary::Top,
        }
    }

    /// Greatest lower bound (meet, `⊓`) in the information ordering.
    pub fn meet(self, other: Ternary) -> Ternary {
        match (self, other) {
            (Ternary::Top, v) | (v, Ternary::Top) => v,
            (Ternary::X, _) | (_, Ternary::X) => Ternary::X,
            (a, b) if a == b => a,
            _ => Ternary::X,
        }
    }

    /// Decomposes the value into its dual rails `(hi, lo)`: `hi` = "may be
    /// 1", `lo` = "may be 0".  This is the scalar counterpart of the
    /// symbolic dual-rail encoding and the definitional basis of all gate
    /// operations (which makes them monotone by construction).
    pub fn rails(self) -> (bool, bool) {
        match self {
            Ternary::X => (true, true),
            Ternary::Zero => (false, true),
            Ternary::One => (true, false),
            Ternary::Top => (false, false),
        }
    }

    /// Reconstructs a lattice value from dual rails.
    pub fn from_rails(hi: bool, lo: bool) -> Ternary {
        match (hi, lo) {
            (true, true) => Ternary::X,
            (false, true) => Ternary::Zero,
            (true, false) => Ternary::One,
            (false, false) => Ternary::Top,
        }
    }

    /// Monotone ternary negation: swap the rails.  `⊤` propagates.
    ///
    /// Deliberately named like (but distinct from) `std::ops::Not::not`:
    /// the lattice gates form a family (`and`/`or`/`not`) called by value.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Ternary {
        let (hi, lo) = self.rails();
        Ternary::from_rails(lo, hi)
    }

    /// Monotone ternary conjunction (the optimal monotone extension of
    /// Boolean AND): a controlling `0` forces the output to `0` even if the
    /// other input is `X` or `⊤`.
    pub fn and(self, other: Ternary) -> Ternary {
        let (h1, l1) = self.rails();
        let (h2, l2) = other.rails();
        Ternary::from_rails(h1 && h2, l1 || l2)
    }

    /// Monotone ternary disjunction.
    pub fn or(self, other: Ternary) -> Ternary {
        let (h1, l1) = self.rails();
        let (h2, l2) = other.rails();
        Ternary::from_rails(h1 || h2, l1 && l2)
    }

    /// Monotone ternary exclusive-or.  An `X` on either (defined) input
    /// makes the output `X` — there is no controlling value for XOR.
    pub fn xor(self, other: Ternary) -> Ternary {
        let (h1, l1) = self.rails();
        let (h2, l2) = other.rails();
        Ternary::from_rails((h1 && l2) || (l1 && h2), (l1 && l2) || (h1 && h2))
    }

    /// Monotone ternary multiplexer `if sel { a } else { b }`.
    ///
    /// When `sel` is `X` the output is a Boolean value only if both branches
    /// agree on it.
    pub fn mux(sel: Ternary, a: Ternary, b: Ternary) -> Ternary {
        let (sh, sl) = sel.rails();
        let (ah, al) = a.rails();
        let (bh, bl) = b.rails();
        Ternary::from_rails((sh && ah) || (sl && bh), (sh && al) || (sl && bl))
    }
}

impl From<bool> for Ternary {
    fn from(b: bool) -> Self {
        Ternary::from_bool(b)
    }
}

impl fmt::Display for Ternary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Ternary::X => 'X',
            Ternary::Zero => '0',
            Ternary::One => '1',
            Ternary::Top => 'T',
        };
        write!(f, "{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_ordering() {
        use Ternary::*;
        assert!(X.leq(Zero) && X.leq(One) && X.leq(Top) && X.leq(X));
        assert!(Zero.leq(Top) && One.leq(Top));
        assert!(!Zero.leq(One) && !One.leq(Zero));
        assert!(!Zero.leq(X) && !Top.leq(One));
    }

    #[test]
    fn join_meet_lattice_laws() {
        use Ternary::*;
        for a in Ternary::ALL {
            for b in Ternary::ALL {
                // Commutativity
                assert_eq!(a.join(b), b.join(a));
                assert_eq!(a.meet(b), b.meet(a));
                // join is an upper bound, meet a lower bound
                assert!(a.leq(a.join(b)) && b.leq(a.join(b)));
                assert!(a.meet(b).leq(a) && a.meet(b).leq(b));
                // Absorption
                assert_eq!(a.join(a.meet(b)), a);
                assert_eq!(a.meet(a.join(b)), a);
            }
        }
        assert_eq!(Zero.join(One), Top);
        assert_eq!(Zero.meet(One), X);
    }

    #[test]
    fn gates_agree_with_boolean_on_binary_inputs() {
        for a in [false, true] {
            for b in [false, true] {
                let ta = Ternary::from_bool(a);
                let tb = Ternary::from_bool(b);
                assert_eq!(ta.and(tb), Ternary::from_bool(a && b));
                assert_eq!(ta.or(tb), Ternary::from_bool(a || b));
                assert_eq!(ta.xor(tb), Ternary::from_bool(a ^ b));
                assert_eq!(ta.not(), Ternary::from_bool(!a));
            }
        }
    }

    #[test]
    fn x_propagation_and_controlling_values() {
        use Ternary::*;
        assert_eq!(Zero.and(X), Zero);
        assert_eq!(X.and(Zero), Zero);
        assert_eq!(One.and(X), X);
        assert_eq!(One.or(X), One);
        assert_eq!(Zero.or(X), X);
        assert_eq!(X.xor(One), X);
        assert_eq!(X.not(), X);
    }

    #[test]
    fn monotonicity_of_gates() {
        // If a ⊑ a' and b ⊑ b' then op(a,b) ⊑ op(a',b').
        for a in Ternary::ALL {
            for a2 in Ternary::ALL {
                if !a.leq(a2) {
                    continue;
                }
                for b in Ternary::ALL {
                    for b2 in Ternary::ALL {
                        if !b.leq(b2) {
                            continue;
                        }
                        assert!(a.and(b).leq(a2.and(b2)), "and {a} {b} vs {a2} {b2}");
                        assert!(a.or(b).leq(a2.or(b2)), "or {a} {b} vs {a2} {b2}");
                        assert!(a.xor(b).leq(a2.xor(b2)), "xor {a} {b} vs {a2} {b2}");
                        assert!(a.not().leq(a2.not()), "not {a} vs {a2}");
                    }
                }
            }
        }
    }

    #[test]
    fn mux_semantics() {
        use Ternary::*;
        assert_eq!(Ternary::mux(One, Zero, One), Zero);
        assert_eq!(Ternary::mux(Zero, Zero, One), One);
        assert_eq!(Ternary::mux(X, One, One), One);
        assert_eq!(Ternary::mux(X, Zero, One), X);
        assert_eq!(Ternary::mux(Top, Zero, Zero), Top);
        // An unknown select between ⊤ and 0 can only ever be 0 (the optimal
        // monotone extension).
        assert_eq!(Ternary::mux(X, Top, Zero), Zero);
    }

    #[test]
    fn display_and_conversions() {
        assert_eq!(Ternary::X.to_string(), "X");
        assert_eq!(Ternary::One.to_string(), "1");
        assert_eq!(Ternary::from(true), Ternary::One);
        assert_eq!(Ternary::default(), Ternary::X);
        assert!(Ternary::Top.is_top());
        assert!(Ternary::One.is_boolean());
        assert!(!Ternary::X.is_boolean());
    }
}
