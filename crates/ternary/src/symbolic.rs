//! Dual-rail symbolic ternary values over BDDs.

use std::fmt;

use ssr_bdd::{Assignment, Bdd, BddManager};

use crate::scalar::Ternary;

/// A symbolic ternary value in the standard dual-rail encoding.
///
/// The pair `(hi, lo)` of BDDs encodes, for every assignment `φ` of the
/// symbolic Boolean variables, one lattice value:
///
/// * `hi(φ) ∧ lo(φ)` — the node may be either, i.e. `X`,
/// * `hi(φ) ∧ ¬lo(φ)` — the node is `1`,
/// * `¬hi(φ) ∧ lo(φ)` — the node is `0`,
/// * `¬hi(φ) ∧ ¬lo(φ)` — the node is overconstrained, `⊤`.
///
/// All gate operations are the standard monotone extensions, expressed as
/// BDD operations on the rails, and therefore agree with [`Ternary`] point
/// wise (this is checked by property tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymTernary {
    hi: Bdd,
    lo: Bdd,
}

impl SymTernary {
    /// The constant `X` (unknown) value.
    pub const X: SymTernary = SymTernary {
        hi: Bdd::TRUE,
        lo: Bdd::TRUE,
    };

    /// The constant `0` value.
    pub const ZERO: SymTernary = SymTernary {
        hi: Bdd::FALSE,
        lo: Bdd::TRUE,
    };

    /// The constant `1` value.
    pub const ONE: SymTernary = SymTernary {
        hi: Bdd::TRUE,
        lo: Bdd::FALSE,
    };

    /// The constant `⊤` (overconstrained) value.
    pub const TOP: SymTernary = SymTernary {
        hi: Bdd::FALSE,
        lo: Bdd::FALSE,
    };

    /// Builds a symbolic value from explicit rails.
    pub fn from_rails(hi: Bdd, lo: Bdd) -> SymTernary {
        SymTernary { hi, lo }
    }

    /// The `hi` ("may be 1") rail.
    pub fn hi(&self) -> Bdd {
        self.hi
    }

    /// The `lo` ("may be 0") rail.
    pub fn lo(&self) -> Bdd {
        self.lo
    }

    /// Lifts a scalar lattice constant.
    pub fn constant(value: Ternary) -> SymTernary {
        match value {
            Ternary::X => SymTernary::X,
            Ternary::Zero => SymTernary::ZERO,
            Ternary::One => SymTernary::ONE,
            Ternary::Top => SymTernary::TOP,
        }
    }

    /// Lifts a Boolean constant.
    pub fn from_bool(b: bool) -> SymTernary {
        SymTernary::constant(Ternary::from_bool(b))
    }

    /// A Boolean-valued symbolic node driven by the BDD `b`: the value is
    /// `1` exactly when `b` holds and `0` otherwise (never `X` or `⊤`).
    pub fn from_bdd(m: &mut BddManager, b: Bdd) -> SymTernary {
        SymTernary {
            hi: b,
            lo: m.not(b),
        }
    }

    /// Declares (or, when the arena already has it, reuses) the symbolic
    /// Boolean variable `name` and returns the node value that is `1` when the
    /// variable is true and `0` otherwise.
    pub fn symbol(m: &mut BddManager, name: impl Into<String>) -> SymTernary {
        let v = m.declare(name);
        SymTernary::from_bdd(m, v)
    }

    /// A value that is `v` when the guard holds and `X` otherwise — the
    /// building block for STE antecedents `n is v when G`.
    pub fn guarded(m: &mut BddManager, guard: Bdd, value: &SymTernary) -> SymTernary {
        // When the guard is false both rails must be 1 (X).
        let ng = m.not(guard);
        SymTernary {
            hi: m.or(value.hi, ng),
            lo: m.or(value.lo, ng),
        }
    }

    /// The scalar value under a concrete assignment of the symbolic
    /// variables, or `None` if the assignment leaves some rail undetermined.
    pub fn eval(&self, m: &BddManager, asg: &Assignment) -> Option<Ternary> {
        let hi = m.eval(self.hi, asg)?;
        let lo = m.eval(self.lo, asg)?;
        Some(match (hi, lo) {
            (true, true) => Ternary::X,
            (true, false) => Ternary::One,
            (false, true) => Ternary::Zero,
            (false, false) => Ternary::Top,
        })
    }

    /// If the value is the same lattice constant for *every* assignment,
    /// returns it.
    pub fn to_constant(&self, _m: &BddManager) -> Option<Ternary> {
        match (self.hi, self.lo) {
            (Bdd::TRUE, Bdd::TRUE) => Some(Ternary::X),
            (Bdd::TRUE, Bdd::FALSE) => Some(Ternary::One),
            (Bdd::FALSE, Bdd::TRUE) => Some(Ternary::Zero),
            (Bdd::FALSE, Bdd::FALSE) => Some(Ternary::Top),
            _ => None,
        }
    }

    /// BDD over the symbolic variables that holds exactly where the value is
    /// `X`.
    pub fn is_x(&self, m: &mut BddManager) -> Bdd {
        m.and(self.hi, self.lo)
    }

    /// BDD that holds exactly where the value is `⊤` (overconstrained).
    pub fn is_top(&self, m: &mut BddManager) -> Bdd {
        let nh = m.not(self.hi);
        let nl = m.not(self.lo);
        m.and(nh, nl)
    }

    /// BDD that holds exactly where the value is the Boolean `1`.
    pub fn is_one(&self, m: &mut BddManager) -> Bdd {
        let nl = m.not(self.lo);
        m.and(self.hi, nl)
    }

    /// BDD that holds exactly where the value is the Boolean `0`.
    pub fn is_zero(&self, m: &mut BddManager) -> Bdd {
        let nh = m.not(self.hi);
        m.and(nh, self.lo)
    }

    /// BDD that holds where the value carries Boolean information (`0`/`1`).
    pub fn is_boolean(&self, m: &mut BddManager) -> Bdd {
        m.xor(self.hi, self.lo)
    }

    // ------------------------------------------------------------------
    // Lattice operations
    // ------------------------------------------------------------------

    /// Point-wise least upper bound (join, `⊔`): combines information from
    /// two sources driving the same node.
    pub fn join(&self, m: &mut BddManager, other: &SymTernary) -> SymTernary {
        SymTernary {
            hi: m.and(self.hi, other.hi),
            lo: m.and(self.lo, other.lo),
        }
    }

    /// Point-wise greatest lower bound (meet, `⊓`).
    pub fn meet(&self, m: &mut BddManager, other: &SymTernary) -> SymTernary {
        SymTernary {
            hi: m.or(self.hi, other.hi),
            lo: m.or(self.lo, other.lo),
        }
    }

    /// BDD over the symbolic variables that holds exactly where
    /// `self ⊑ other` in the information ordering.
    ///
    /// This is the point-wise check at the heart of the STE verification
    /// condition `[C] ⊑ [[A]]`.
    pub fn leq(&self, m: &mut BddManager, other: &SymTernary) -> Bdd {
        // self ⊑ other  ⇔  (other.hi → self.hi) ∧ (other.lo → self.lo)
        let a = m.implies(other.hi, self.hi);
        let b = m.implies(other.lo, self.lo);
        m.and(a, b)
    }

    // ------------------------------------------------------------------
    // Monotone gate extensions
    // ------------------------------------------------------------------

    /// Ternary negation: swap the rails.
    pub fn not(&self) -> SymTernary {
        SymTernary {
            hi: self.lo,
            lo: self.hi,
        }
    }

    /// Ternary conjunction.
    pub fn and(&self, m: &mut BddManager, other: &SymTernary) -> SymTernary {
        SymTernary {
            hi: m.and(self.hi, other.hi),
            lo: m.or(self.lo, other.lo),
        }
    }

    /// Ternary disjunction.
    pub fn or(&self, m: &mut BddManager, other: &SymTernary) -> SymTernary {
        SymTernary {
            hi: m.or(self.hi, other.hi),
            lo: m.and(self.lo, other.lo),
        }
    }

    /// Ternary exclusive-or.
    pub fn xor(&self, m: &mut BddManager, other: &SymTernary) -> SymTernary {
        let h1 = m.and(self.hi, other.lo);
        let h2 = m.and(self.lo, other.hi);
        let l1 = m.and(self.lo, other.lo);
        let l2 = m.and(self.hi, other.hi);
        SymTernary {
            hi: m.or(h1, h2),
            lo: m.or(l1, l2),
        }
    }

    /// Ternary exclusive-nor (equivalence).
    pub fn xnor(&self, m: &mut BddManager, other: &SymTernary) -> SymTernary {
        self.xor(m, other).not()
    }

    /// Ternary NAND.
    pub fn nand(&self, m: &mut BddManager, other: &SymTernary) -> SymTernary {
        self.and(m, other).not()
    }

    /// Ternary NOR.
    pub fn nor(&self, m: &mut BddManager, other: &SymTernary) -> SymTernary {
        self.or(m, other).not()
    }

    /// Ternary multiplexer `if sel { a } else { b }`.
    ///
    /// The output may be `1` if (`sel` may be `1` and `a` may be `1`) or
    /// (`sel` may be `0` and `b` may be `1`); symmetrically for `0`.  When
    /// `sel` is `X` and both branches agree on a Boolean value the output is
    /// that value.
    pub fn mux(m: &mut BddManager, sel: &SymTernary, a: &SymTernary, b: &SymTernary) -> SymTernary {
        let h1 = m.and(sel.hi, a.hi);
        let h2 = m.and(sel.lo, b.hi);
        let l1 = m.and(sel.hi, a.lo);
        let l2 = m.and(sel.lo, b.lo);
        SymTernary {
            hi: m.or(h1, h2),
            lo: m.or(l1, l2),
        }
    }
}

impl Default for SymTernary {
    /// The default symbolic value is `X` — consistent with the STE weakest
    /// sequence where unconstrained nodes are unknown.
    fn default() -> Self {
        SymTernary::X
    }
}

impl fmt::Display for SymTernary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.hi, self.lo) {
            (Bdd::TRUE, Bdd::TRUE) => write!(f, "X"),
            (Bdd::TRUE, Bdd::FALSE) => write!(f, "1"),
            (Bdd::FALSE, Bdd::TRUE) => write!(f, "0"),
            (Bdd::FALSE, Bdd::FALSE) => write!(f, "T"),
            _ => write!(
                f,
                "symbolic(hi={}, lo={})",
                self.hi.index(),
                self.lo.index()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_constants() -> [(Ternary, SymTernary); 4] {
        [
            (Ternary::X, SymTernary::X),
            (Ternary::Zero, SymTernary::ZERO),
            (Ternary::One, SymTernary::ONE),
            (Ternary::Top, SymTernary::TOP),
        ]
    }

    #[test]
    fn constants_roundtrip() {
        let m = BddManager::new();
        for (scalar, sym) in all_constants() {
            assert_eq!(SymTernary::constant(scalar), sym);
            assert_eq!(sym.to_constant(&m), Some(scalar));
        }
        assert_eq!(SymTernary::default(), SymTernary::X);
    }

    #[test]
    fn symbolic_gates_match_scalar_gates_on_constants() {
        let mut m = BddManager::new();
        for (sa, ta) in all_constants() {
            for (sb, tb) in all_constants() {
                let and = ta.and(&mut m, &tb).to_constant(&m).unwrap();
                assert_eq!(and, sa.and(sb), "and({sa},{sb})");
                let or = ta.or(&mut m, &tb).to_constant(&m).unwrap();
                assert_eq!(or, sa.or(sb), "or({sa},{sb})");
                let not = ta.not().to_constant(&m).unwrap();
                assert_eq!(not, sa.not(), "not({sa})");
            }
        }
    }

    #[test]
    fn xor_matches_scalar_on_defined_inputs() {
        // The dual-rail XOR is the *optimal* monotone extension: it agrees
        // with the scalar table on X/0/1 inputs.
        let mut m = BddManager::new();
        for (sa, ta) in all_constants() {
            for (sb, tb) in all_constants() {
                if sa.is_top() || sb.is_top() {
                    continue;
                }
                let x = ta.xor(&mut m, &tb).to_constant(&m).unwrap();
                assert_eq!(x, sa.xor(sb), "xor({sa},{sb})");
            }
        }
    }

    #[test]
    fn symbol_is_boolean_everywhere() {
        let mut m = BddManager::new();
        let a = SymTernary::symbol(&mut m, "a");
        assert!(a.is_boolean(&mut m).is_true());
        assert!(a.is_x(&mut m).is_false());
        assert!(a.is_top(&mut m).is_false());
        // a AND (NOT a) is identically 0.
        let na = a.not();
        let f = a.and(&mut m, &na);
        assert_eq!(f.to_constant(&m), Some(Ternary::Zero));
        // a OR (NOT a) is identically 1.
        let g = a.or(&mut m, &na);
        assert_eq!(g.to_constant(&m), Some(Ternary::One));
    }

    #[test]
    fn eval_under_assignment() {
        let mut m = BddManager::new();
        let a = SymTernary::symbol(&mut m, "a");
        let b = SymTernary::symbol(&mut m, "b");
        let f = a.and(&mut m, &b);
        let asg: Assignment = [(0, true), (1, false)].into_iter().collect();
        assert_eq!(f.eval(&m, &asg), Some(Ternary::Zero));
        let asg2: Assignment = [(0, true), (1, true)].into_iter().collect();
        assert_eq!(f.eval(&m, &asg2), Some(Ternary::One));
    }

    #[test]
    fn join_detects_conflicts() {
        let mut m = BddManager::new();
        let joined = SymTernary::ZERO.join(&mut m, &SymTernary::ONE);
        assert_eq!(joined.to_constant(&m), Some(Ternary::Top));
        let with_x = SymTernary::ONE.join(&mut m, &SymTernary::X);
        assert_eq!(with_x.to_constant(&m), Some(Ternary::One));
    }

    #[test]
    fn leq_is_the_lattice_ordering() {
        let mut m = BddManager::new();
        for (sa, ta) in all_constants() {
            for (sb, tb) in all_constants() {
                let cond = ta.leq(&mut m, &tb);
                assert_eq!(cond.is_true(), sa.leq(sb), "{sa} <= {sb}");
            }
        }
    }

    #[test]
    fn guarded_values() {
        let mut m = BddManager::new();
        let g = m.new_var("g");
        let one = SymTernary::ONE;
        let guarded = SymTernary::guarded(&mut m, g, &one);
        let asg_true: Assignment = [(0, true)].into_iter().collect();
        let asg_false: Assignment = [(0, false)].into_iter().collect();
        assert_eq!(guarded.eval(&m, &asg_true), Some(Ternary::One));
        assert_eq!(guarded.eval(&m, &asg_false), Some(Ternary::X));
    }

    #[test]
    fn mux_with_symbolic_select() {
        let mut m = BddManager::new();
        let sel = SymTernary::symbol(&mut m, "sel");
        let out = SymTernary::mux(&mut m, &sel, &SymTernary::ONE, &SymTernary::ZERO);
        // out is exactly the select signal.
        assert_eq!(out, sel);
        // When both branches agree the select does not matter.
        let same = SymTernary::mux(&mut m, &sel, &SymTernary::ONE, &SymTernary::ONE);
        assert_eq!(same.to_constant(&m), Some(Ternary::One));
        // X select with disagreeing branches is X.
        let x = SymTernary::mux(&mut m, &SymTernary::X, &SymTernary::ONE, &SymTernary::ZERO);
        assert_eq!(x.to_constant(&m), Some(Ternary::X));
    }

    #[test]
    fn display_of_constants() {
        assert_eq!(SymTernary::X.to_string(), "X");
        assert_eq!(SymTernary::ONE.to_string(), "1");
        assert_eq!(SymTernary::ZERO.to_string(), "0");
        assert_eq!(SymTernary::TOP.to_string(), "T");
    }
}
