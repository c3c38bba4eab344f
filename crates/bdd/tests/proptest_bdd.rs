//! Property-based tests for the ROBDD engine, on the in-tree `ssr-prop`
//! harness (the workspace builds offline, so the external `proptest` crate
//! these targets were originally gated on cannot be vendored; this shim
//! resolves the ROADMAP "vendor-or-stub" item and the suite now runs
//! unconditionally, `cargo test --all-features` included).
//!
//! The central invariant is canonicity: two syntactically different Boolean
//! expressions that denote the same function must hash-cons to the same
//! node.  We also cross-check BDD evaluation against a direct interpreter
//! over random expressions and random assignments, and assert that GC
//! preserves the semantics of every rooted formula.

use ssr_bdd::{Assignment, Bdd, BddManager, BddVec};
use ssr_prop::{check, Rng};

/// A tiny Boolean expression AST used as the reference semantics.
#[derive(Debug, Clone)]
enum Expr {
    Var(u32),
    Const(bool),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

const NUM_VARS: u32 = 6;

/// Generates a random expression of bounded depth.
fn arb_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return if rng.flag() {
            Expr::Var(rng.below(NUM_VARS as u64) as u32)
        } else {
            Expr::Const(rng.flag())
        };
    }
    match rng.below(5) {
        0 => Expr::Not(Box::new(arb_expr(rng, depth - 1))),
        1 => Expr::And(
            Box::new(arb_expr(rng, depth - 1)),
            Box::new(arb_expr(rng, depth - 1)),
        ),
        2 => Expr::Or(
            Box::new(arb_expr(rng, depth - 1)),
            Box::new(arb_expr(rng, depth - 1)),
        ),
        3 => Expr::Xor(
            Box::new(arb_expr(rng, depth - 1)),
            Box::new(arb_expr(rng, depth - 1)),
        ),
        _ => Expr::Ite(
            Box::new(arb_expr(rng, depth - 1)),
            Box::new(arb_expr(rng, depth - 1)),
            Box::new(arb_expr(rng, depth - 1)),
        ),
    }
}

fn eval_expr(e: &Expr, asg: &[bool]) -> bool {
    match e {
        Expr::Var(v) => asg[*v as usize],
        Expr::Const(b) => *b,
        Expr::Not(a) => !eval_expr(a, asg),
        Expr::And(a, b) => eval_expr(a, asg) && eval_expr(b, asg),
        Expr::Or(a, b) => eval_expr(a, asg) || eval_expr(b, asg),
        Expr::Xor(a, b) => eval_expr(a, asg) ^ eval_expr(b, asg),
        Expr::Ite(c, t, f) => {
            if eval_expr(c, asg) {
                eval_expr(t, asg)
            } else {
                eval_expr(f, asg)
            }
        }
    }
}

fn build_bdd(m: &mut BddManager, e: &Expr) -> Bdd {
    match e {
        Expr::Var(v) => m.literal(*v),
        Expr::Const(b) => Bdd::from(*b),
        Expr::Not(a) => {
            let x = build_bdd(m, a);
            m.not(x)
        }
        Expr::And(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.and(x, y)
        }
        Expr::Or(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.or(x, y)
        }
        Expr::Xor(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.xor(x, y)
        }
        Expr::Ite(c, t, f) => {
            let x = build_bdd(m, c);
            let y = build_bdd(m, t);
            let z = build_bdd(m, f);
            m.ite(x, y, z)
        }
    }
}

fn manager_with_vars() -> BddManager {
    let mut m = BddManager::new();
    for i in 0..NUM_VARS {
        m.new_var(format!("v{i}"));
    }
    m
}

fn exhaustive_assignments() -> impl Iterator<Item = Vec<bool>> {
    (0u32..(1 << NUM_VARS)).map(|bits| (0..NUM_VARS).map(|i| (bits >> i) & 1 == 1).collect())
}

fn assert_matches_reference(m: &BddManager, f: Bdd, e: &Expr) {
    for bits in exhaustive_assignments() {
        let asg: Assignment = bits
            .iter()
            .enumerate()
            .map(|(i, &b)| (i as u32, b))
            .collect();
        assert_eq!(m.eval(f, &asg), Some(eval_expr(e, &bits)));
    }
}

/// BDD evaluation agrees with the reference interpreter on every
/// assignment.
#[test]
fn bdd_matches_reference_semantics() {
    check("bdd matches reference semantics", 64, 0xB0D_0001, |rng| {
        let e = arb_expr(rng, 4);
        let mut m = manager_with_vars();
        let f = build_bdd(&mut m, &e);
        assert_matches_reference(&m, f, &e);
    });
}

/// Canonicity: semantically equal expressions produce identical handles.
#[test]
fn canonical_handles() {
    check("canonical handles", 64, 0xB0D_0002, |rng| {
        let e = arb_expr(rng, 4);
        let mut m = manager_with_vars();
        let f = build_bdd(&mut m, &e);
        // Rebuild the same function through a syntactically different
        // route: double negation plus identity conjunction.
        let nf = m.not(f);
        let nnf = m.not(nf);
        let with_true = m.and(nnf, Bdd::TRUE);
        assert_eq!(f, with_true);
    });
}

/// Shannon expansion: f == ite(x, f|x=1, f|x=0) for every variable.
#[test]
fn shannon_expansion() {
    check("shannon expansion", 64, 0xB0D_0003, |rng| {
        let e = arb_expr(rng, 4);
        let var = rng.below(NUM_VARS as u64) as u32;
        let mut m = manager_with_vars();
        let f = build_bdd(&mut m, &e);
        let f1 = m.restrict(f, var, true);
        let f0 = m.restrict(f, var, false);
        let x = m.literal(var);
        let rebuilt = m.ite(x, f1, f0);
        assert_eq!(f, rebuilt);
    });
}

/// Quantification laws: ∃x.f == f|x=0 ∨ f|x=1 and ∀x.f == f|x=0 ∧ f|x=1.
#[test]
fn quantification_laws() {
    check("quantification laws", 64, 0xB0D_0004, |rng| {
        let e = arb_expr(rng, 4);
        let var = rng.below(NUM_VARS as u64) as u32;
        let mut m = manager_with_vars();
        let f = build_bdd(&mut m, &e);
        let f1 = m.restrict(f, var, true);
        let f0 = m.restrict(f, var, false);
        let ex = m.exists(f, &[var]);
        let all = m.forall(f, &[var]);
        let ex_expect = m.or(f0, f1);
        let all_expect = m.and(f0, f1);
        assert_eq!(ex, ex_expect);
        assert_eq!(all, all_expect);
    });
}

/// `one_sat` always returns a genuinely satisfying assignment, and
/// `sat_count` is consistent with exhaustive enumeration.
#[test]
fn sat_helpers_consistent() {
    check("sat helpers consistent", 64, 0xB0D_0005, |rng| {
        let e = arb_expr(rng, 4);
        let mut m = manager_with_vars();
        let f = build_bdd(&mut m, &e);
        let expected: usize = exhaustive_assignments()
            .filter(|bits| eval_expr(&e, bits))
            .count();
        let counted = m.sat_count(f, NUM_VARS as usize).round() as usize;
        assert_eq!(counted, expected);
        match m.one_sat(f) {
            Some(asg) => assert_eq!(m.eval(f, &asg), Some(true)),
            None => assert_eq!(expected, 0),
        }
    });
}

/// Vector addition matches wrapping machine arithmetic.
#[test]
fn bddvec_add_matches_machine() {
    check("bddvec add matches machine", 64, 0xB0D_0006, |rng| {
        let (a, b) = (rng.below(256), rng.below(256));
        let mut m = BddManager::new();
        let va = BddVec::constant(&mut m, a, 8);
        let vb = BddVec::constant(&mut m, b, 8);
        let sum = va.add(&mut m, &vb).expect("same width");
        let asg = Assignment::new();
        assert_eq!(sum.decode(&m, &asg), Some((a + b) & 0xFF));
    });
}

/// Symbolic vector equality has exactly one satisfying assignment per
/// concrete right-hand side.
#[test]
fn bddvec_equality_unique_witness() {
    check("bddvec equality unique witness", 64, 0xB0D_0007, |rng| {
        let value = rng.below(64);
        let mut m = BddManager::new();
        let v = BddVec::new_input(&mut m, "v", 6);
        let eq = v.equals_constant(&mut m, value);
        assert_eq!(m.sat_count(eq, 6).round() as u64, 1);
        let witness = m.one_sat(eq).expect("satisfiable");
        assert_eq!(v.decode(&m, &witness), Some(value));
    });
}

/// Repeated GC around fresh garbage: a rooted formula survives every
/// collection and keeps its reference semantics once the reclaimed slots
/// are reused.
#[test]
fn gc_preserves_rooted_semantics() {
    check("gc preserves semantics", 24, 0xB0D_0008, |rng| {
        let e = arb_expr(rng, 4);
        let mut m = manager_with_vars();
        let f = build_bdd(&mut m, &e);
        m.protect(f);
        for _ in 0..3 {
            m.gc();
            assert_matches_reference(&m, f, &e);
            let garbage = arb_expr(rng, 4);
            let _ = build_bdd(&mut m, &garbage);
            assert_matches_reference(&m, f, &e);
        }
    });
}

/// Complement edges make negation free: `not(not(f)) == f` exactly, and
/// neither negation allocates a single arena node.
#[test]
fn double_negation_is_identity_with_zero_arena_growth() {
    check("¬¬f == f, zero growth", 64, 0xB0D_000B, |rng| {
        let e = arb_expr(rng, 4);
        let mut m = manager_with_vars();
        let f = build_bdd(&mut m, &e);
        let before = m.node_count();
        let nf = m.not(f);
        let nnf = m.not(nf);
        assert_eq!(nnf, f);
        assert_eq!(nf, f.negate());
        assert_eq!(
            m.node_count(),
            before,
            "negation is an edge-tag flip, not an allocation"
        );
        // f and ¬f share one subgraph: identical node counts.
        assert_eq!(m.size(f), m.size(nf));
    });
}

/// `f` and `not(f)` disagree on every assignment, and their `all_sat`
/// solution sets partition the full assignment space.
#[test]
fn eval_and_all_sat_agree_between_f_and_not_f() {
    check("eval/all_sat of f vs ¬f", 48, 0xB0D_000C, |rng| {
        let e = arb_expr(rng, 4);
        let mut m = manager_with_vars();
        let f = build_bdd(&mut m, &e);
        let nf = m.not(f);
        for bits in exhaustive_assignments() {
            let asg: Assignment = bits
                .iter()
                .enumerate()
                .map(|(i, &b)| (i as u32, b))
                .collect();
            let (pos, neg) = (m.eval(f, &asg), m.eval(nf, &asg));
            assert_eq!(pos.map(|b| !b), neg);
        }
        let idx: Vec<u32> = (0..NUM_VARS).collect();
        let sols_f = m.all_sat(f, &idx);
        let sols_nf = m.all_sat(nf, &idx);
        assert_eq!(
            sols_f.len() + sols_nf.len(),
            1 << NUM_VARS,
            "f and ¬f partition the assignment space"
        );
        for sol in sols_f.iter().chain(&sols_nf) {
            let on_f = m.eval(f, sol).expect("full assignment");
            let on_nf = m.eval(nf, sol).expect("full assignment");
            assert_ne!(on_f, on_nf);
        }
    });
}

/// A complemented handle tracks its regular partner through repeated GC
/// around fresh garbage: `¬f` stays `f.negate()` (one shared subgraph) and
/// keeps negated reference semantics throughout.
#[test]
fn gc_preserves_tagged_edges() {
    check("gc under tagged edges", 24, 0xB0D_000D, |rng| {
        let e = arb_expr(rng, 4);
        let ne = Expr::Not(Box::new(e.clone()));
        let mut m = manager_with_vars();
        let f = build_bdd(&mut m, &e);
        let nf = m.not(f);
        m.protect(f);
        m.protect(nf);
        for _ in 0..3 {
            m.gc();
            assert_eq!(nf, f.negate());
            let garbage = arb_expr(rng, 4);
            let _ = build_bdd(&mut m, &garbage);
            assert_matches_reference(&m, f, &e);
            assert_matches_reference(&m, nf, &ne);
            assert_eq!(m.size(f), m.size(nf), "one shared subgraph");
        }
    });
}
