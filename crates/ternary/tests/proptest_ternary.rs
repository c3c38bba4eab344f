//! Property-based tests, on the in-tree `ssr-prop` harness (offline
//! replacement for the external `proptest` these targets were originally
//! gated on): the symbolic dual-rail gates agree with the scalar lattice
//! gates under every assignment, their Boolean-operand fast paths return
//! exactly the handles of the general rail formulas, and the scalar gates
//! are monotone.

use ssr_bdd::{Assignment, Bdd, BddManager};
use ssr_prop::{check, Rng};
use ssr_ternary::{SymTernary, Ternary};

/// The symbolic variables every operand is a function of.
const VARS: u32 = 3;

const LATTICE: [Ternary; 4] = [Ternary::X, Ternary::Zero, Ternary::One, Ternary::Top];

/// What an operand's rails allow where.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// A lattice constant.
    Const(Ternary),
    /// `0` or `1` under every assignment: `lo = ¬hi`.
    Boolean,
    /// `0`, `1` or `X`: the rails never are both false.
    CarriesX,
    /// `0`, `1` or `⊤`: the rails never are both true.
    CarriesTop,
    /// Two independent rails: any mix of `0`, `1`, `X` and `⊤`.
    Free,
}

/// Every shape, each constant included.
const SHAPES: [Shape; 8] = [
    Shape::Const(Ternary::X),
    Shape::Const(Ternary::Zero),
    Shape::Const(Ternary::One),
    Shape::Const(Ternary::Top),
    Shape::Boolean,
    Shape::CarriesX,
    Shape::CarriesTop,
    Shape::Free,
];

fn arb_ternary(rng: &mut Rng) -> Ternary {
    *rng.choose(&LATTICE)
}

/// A random function of the [`VARS`] variables: the disjunction of the
/// minterms a random truth table selects.
fn arb_function(m: &mut BddManager, rng: &mut Rng) -> Bdd {
    let table = rng.below(1 << (1 << VARS));
    let minterms: Vec<Bdd> = (0..1u32 << VARS)
        .filter(|row| table >> row & 1 == 1)
        .map(|row| {
            let literals: Vec<Bdd> = (0..VARS)
                .map(|var| {
                    if row >> var & 1 == 1 {
                        m.literal(var)
                    } else {
                        m.nliteral(var)
                    }
                })
                .collect();
            m.and_all(literals)
        })
        .collect();
    m.or_all(minterms)
}

/// A random operand of the given shape, built from its rails.
fn arb_operand(m: &mut BddManager, rng: &mut Rng, shape: Shape) -> SymTernary {
    let (hi, lo) = match shape {
        Shape::Const(value) => return SymTernary::constant(value),
        Shape::Boolean => {
            let f = arb_function(m, rng);
            (f, f.negate())
        }
        Shape::CarriesX => {
            let (f, x) = (arb_function(m, rng), arb_function(m, rng));
            let nf = f.negate();
            (m.or(f, x), m.or(nf, x))
        }
        Shape::CarriesTop => {
            let (f, top) = (arb_function(m, rng), arb_function(m, rng));
            let (nf, keep) = (f.negate(), top.negate());
            (m.and(f, keep), m.and(nf, keep))
        }
        Shape::Free => (arb_function(m, rng), arb_function(m, rng)),
    };
    SymTernary::from_rails(hi, lo)
}

/// A fresh manager with the [`VARS`] variables declared.
fn manager() -> BddManager {
    let mut m = BddManager::new();
    m.new_vars("v", VARS as usize);
    m
}

/// Every assignment of the [`VARS`] variables.
fn assignments() -> impl Iterator<Item = Assignment> {
    (0..1u32 << VARS).map(|row| (0..VARS).map(|var| (var, row >> var & 1 == 1)).collect())
}

/// The general mux rails: `(s.hi ∧ a.hi) ∨ (s.lo ∧ b.hi)` and
/// `(s.hi ∧ a.lo) ∨ (s.lo ∧ b.lo)`, four ANDs and two ORs.
fn mux_by_rails(m: &mut BddManager, s: SymTernary, a: SymTernary, b: SymTernary) -> SymTernary {
    let h1 = m.and(s.hi(), a.hi());
    let h2 = m.and(s.lo(), b.hi());
    let l1 = m.and(s.hi(), a.lo());
    let l2 = m.and(s.lo(), b.lo());
    SymTernary::from_rails(m.or(h1, h2), m.or(l1, l2))
}

/// The general xor rails: `(a.hi ∧ b.lo) ∨ (a.lo ∧ b.hi)` and
/// `(a.lo ∧ b.lo) ∨ (a.hi ∧ b.hi)`, four ANDs and two ORs.
fn xor_by_rails(m: &mut BddManager, a: SymTernary, b: SymTernary) -> SymTernary {
    let h1 = m.and(a.hi(), b.lo());
    let h2 = m.and(a.lo(), b.hi());
    let l1 = m.and(a.lo(), b.lo());
    let l2 = m.and(a.hi(), b.hi());
    SymTernary::from_rails(m.or(h1, h2), m.or(l1, l2))
}

/// The dual-rail gates, join and mux agree with the scalar lattice gates
/// for every mix of constant, Boolean, X-carrying, ⊤-carrying and
/// free-railed operands, under every assignment of the variables.
#[test]
fn symbolic_agrees_with_scalar() {
    check("symbolic agrees with scalar", 128, 0x7E12_0001, |rng| {
        let mut m = manager();
        let [s, a, b] = [0; 3].map(|_| {
            let shape = *rng.choose(&SHAPES);
            arb_operand(&mut m, rng, shape)
        });
        let and = a.and(&mut m, &b);
        let or = a.or(&mut m, &b);
        let xor = a.xor(&mut m, &b);
        let xnor = a.xnor(&mut m, &b);
        let join = a.join(&mut m, &b);
        let mux = SymTernary::mux(&mut m, &s, &a, &b);
        for asg in assignments() {
            let at = |v: SymTernary| v.eval(&m, &asg).expect("every variable assigned");
            let (ts, ta, tb) = (at(s), at(a), at(b));
            assert_eq!(at(and), ta.and(tb), "and({ta}, {tb})");
            assert_eq!(at(or), ta.or(tb), "or({ta}, {tb})");
            assert_eq!(at(xor), ta.xor(tb), "xor({ta}, {tb})");
            assert_eq!(at(xnor), ta.xor(tb).not(), "xnor({ta}, {tb})");
            assert_eq!(at(a.not()), ta.not(), "not({ta})");
            assert_eq!(at(join), ta.join(tb), "join({ta}, {tb})");
            assert_eq!(at(mux), Ternary::mux(ts, ta, tb), "mux({ts}, {ta}, {tb})");
        }
    });
}

/// `mux`, `xor` and `xnor` return exactly the handles the general
/// four-AND, two-OR rail formulas give, whichever operand is Boolean: the
/// one-ITE-per-rail forms taken under a Boolean select or operand compute
/// the same functions, so canonical handles must be equal.
#[test]
fn boolean_operand_fast_paths_return_the_general_handles() {
    check(
        "fast paths return the general handles",
        16,
        0x7E12_0004,
        |rng| {
            let mut m = manager();
            for s_shape in SHAPES {
                for a_shape in SHAPES {
                    let s = arb_operand(&mut m, rng, s_shape);
                    let a = arb_operand(&mut m, rng, a_shape);
                    let xor = xor_by_rails(&mut m, s, a);
                    assert_eq!(s.xor(&mut m, &a), xor, "xor({s_shape:?}, {a_shape:?})");
                    assert_eq!(
                        s.xnor(&mut m, &a),
                        xor.not(),
                        "xnor({s_shape:?}, {a_shape:?})"
                    );
                    for b_shape in SHAPES {
                        let b = arb_operand(&mut m, rng, b_shape);
                        let mux = mux_by_rails(&mut m, s, a, b);
                        assert_eq!(
                            SymTernary::mux(&mut m, &s, &a, &b),
                            mux,
                            "mux({s_shape:?}, {a_shape:?}, {b_shape:?})"
                        );
                    }
                }
            }
        },
    );
}

/// Scalar mux is monotone in every argument.
#[test]
fn scalar_mux_is_monotone() {
    check("scalar mux is monotone", 256, 0x7E12_0002, |rng| {
        let (s1, s2) = (arb_ternary(rng), arb_ternary(rng));
        let (a1, a2) = (arb_ternary(rng), arb_ternary(rng));
        let (b1, b2) = (arb_ternary(rng), arb_ternary(rng));
        if !(s1.leq(s2) && a1.leq(a2) && b1.leq(b2)) {
            return; // precondition not met; draw again next case
        }
        let lo = Ternary::mux(s1, a1, b1);
        let hi = Ternary::mux(s2, a2, b2);
        assert!(
            lo.leq(hi),
            "mux({s1},{a1},{b1})={lo} not ⊑ mux({s2},{a2},{b2})={hi}"
        );
    });
}

/// Join is the least upper bound: it is an upper bound and below any other
/// upper bound.
#[test]
fn join_is_least_upper_bound() {
    check("join is least upper bound", 256, 0x7E12_0003, |rng| {
        let (a, b, c) = (arb_ternary(rng), arb_ternary(rng), arb_ternary(rng));
        let j = a.join(b);
        assert!(a.leq(j) && b.leq(j));
        if a.leq(c) && b.leq(c) {
            assert!(j.leq(c));
        }
    });
}
