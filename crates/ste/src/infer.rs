//! STE inference rules for property decomposition.
//!
//! The paper attributes its scalability to "property decomposition
//! techniques using STE inference rules" (Hazelhurst & Seger).  The rules in
//! this module construct new assertions from already-verified ones; each
//! rule's semantic side condition is checked on the defining sequences, so a
//! derived assertion is guaranteed to hold whenever its premises do.
//!
//! The rules provided are the ones needed for the decomposition experiment
//! (E10): conjunction, time shift, guard introduction and the
//! cut/transitivity rule.

use std::collections::HashMap;

use ssr_bdd::BddManager;
use ssr_netlist::{NetId, Netlist};
use ssr_ternary::SymTernary;

use crate::error::SteError;
use crate::formula::{Assertion, Formula};

/// Point-wise comparison of defining sequences: returns `true` iff
/// `[f] ⊑ [g]` (i.e. `g` demands at least as much as `f` everywhere).
///
/// # Errors
/// Returns [`SteError::UnknownNode`] if either formula mentions an unknown
/// node.
pub fn sequence_leq(
    m: &mut BddManager,
    netlist: &Netlist,
    f: &Formula,
    g: &Formula,
) -> Result<bool, SteError> {
    let depth = f.depth().max(g.depth());
    let fs = f.defining_sequence(m, netlist, depth)?;
    let gs = g.defining_sequence(m, netlist, depth)?;

    for t in 0..depth {
        let f_map = join_constraints(m, &fs[t]);
        let g_map = join_constraints(m, &gs[t]);
        // Every node constrained by f must be at least as constrained by g.
        for (net, f_val) in &f_map {
            let g_val = g_map.get(net).copied().unwrap_or(SymTernary::X);
            let cond = f_val.leq(m, &g_val);
            if !cond.is_true() {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

fn join_constraints(
    m: &mut BddManager,
    constraints: &[(NetId, SymTernary)],
) -> HashMap<NetId, SymTernary> {
    let mut map: HashMap<NetId, SymTernary> = HashMap::new();
    for &(net, value) in constraints {
        let entry = map.entry(net).or_insert(SymTernary::X);
        *entry = entry.join(m, &value);
    }
    map
}

/// Conjunction rule: from `A ⇒ C1` and `A ⇒ C2` (same antecedent) derive
/// `A ⇒ C1 and C2`.
///
/// # Errors
/// Returns [`SteError::RuleViolation`] if the antecedents differ
/// syntactically.
pub fn conjoin(a1: &Assertion, a2: &Assertion) -> Result<Assertion, SteError> {
    if a1.antecedent != a2.antecedent {
        return Err(SteError::RuleViolation(
            "conjunction rule requires identical antecedents".into(),
        ));
    }
    Ok(Assertion::new(
        a1.antecedent.clone(),
        a1.consequent.clone().and(a2.consequent.clone()),
    ))
}

/// Time-shift rule: from `A ⇒ C` derive `Nᵏ A ⇒ Nᵏ C`.
pub fn time_shift(a: &Assertion, k: usize) -> Assertion {
    Assertion::new(a.antecedent.clone().delay(k), a.consequent.clone().delay(k))
}

/// Guard-introduction rule: from `A ⇒ C` derive `(A when G) ⇒ (C when G)`.
pub fn guard(a: &Assertion, g: ssr_bdd::Bdd) -> Assertion {
    Assertion::new(a.antecedent.clone().when(g), a.consequent.clone().when(g))
}

/// Cut (transitivity) rule: from `A1 ⇒ C1` and `A2 ⇒ C2` with
/// `[A2] ⊑ [C1]` derive `A1 ⇒ C2`.
///
/// This is the rule used to chain per-pipeline-stage properties into an
/// end-to-end property.
///
/// # Errors
/// Returns [`SteError::RuleViolation`] if the side condition does not hold.
pub fn cut(
    m: &mut BddManager,
    netlist: &Netlist,
    first: &Assertion,
    second: &Assertion,
) -> Result<Assertion, SteError> {
    if !sequence_leq(m, netlist, &second.antecedent, &first.consequent)? {
        return Err(SteError::RuleViolation(
            "the second antecedent is not implied by the first consequent".into(),
        ));
    }
    Ok(Assertion::new(
        first.antecedent.clone(),
        second.consequent.clone(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Ste;
    use ssr_netlist::builder::NetlistBuilder;
    use ssr_sim::CompiledModel;

    /// Two buffers in series: mid = buf(a), out = buf(mid).
    fn chain() -> ssr_netlist::Netlist {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let mid = b.buf("mid", a);
        let out = b.buf("out", mid);
        b.mark_output(out);
        b.finish().expect("valid")
    }

    #[test]
    fn conjunction_rule() {
        let a = Assertion::new(Formula::is1("a"), Formula::is1("mid"));
        let b = Assertion::new(Formula::is1("a"), Formula::is1("out"));
        let combined = conjoin(&a, &b).expect("same antecedent");
        assert_eq!(combined.consequent.nodes(), vec!["mid", "out"]);
        let different = Assertion::new(Formula::is0("a"), Formula::is0("out"));
        assert!(conjoin(&a, &different).is_err());
    }

    #[test]
    fn time_shift_rule_preserves_validity() {
        let n = chain();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let base = Assertion::new(Formula::is1("a"), Formula::is1("out"));
        assert!(ste.check(&mut m, &base).expect("checks").holds);
        let shifted = time_shift(&base, 2);
        assert_eq!(shifted.depth(), 3);
        assert!(ste.check(&mut m, &shifted).expect("checks").holds);
    }

    #[test]
    fn guard_rule() {
        let n = chain();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let g = m.new_var("g");
        let base = Assertion::new(Formula::is1("a"), Formula::is1("out"));
        let guarded = guard(&base, g);
        assert!(ste.check(&mut m, &guarded).expect("checks").holds);
    }

    #[test]
    fn cut_rule_chains_stage_properties() {
        let n = chain();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        // Stage 1: a=1 ⇒ mid=1.   Stage 2: mid=1 ⇒ out=1.
        let s1 = Assertion::new(Formula::is1("a"), Formula::is1("mid"));
        let s2 = Assertion::new(Formula::is1("mid"), Formula::is1("out"));
        assert!(ste.check(&mut m, &s1).expect("checks").holds);
        assert!(ste.check(&mut m, &s2).expect("checks").holds);
        // Chain them: a=1 ⇒ out=1.
        let end_to_end = cut(&mut m, &n, &s1, &s2).expect("side condition");
        assert!(ste.check(&mut m, &end_to_end).expect("checks").holds);
        assert_eq!(end_to_end.antecedent, Formula::is1("a"));
        assert_eq!(end_to_end.consequent, Formula::is1("out"));

        // The side condition must reject an unjustified chain.
        let s3 = Assertion::new(Formula::is0("mid"), Formula::is0("out"));
        assert!(cut(&mut m, &n, &s1, &s3).is_err());
    }

    #[test]
    fn sequence_leq_reflexive_and_monotone() {
        let n = chain();
        let mut m = BddManager::new();
        let f = Formula::is1("a").and(Formula::is0("mid").next());
        assert!(sequence_leq(&mut m, &n, &f, &f).expect("ok"));
        assert!(sequence_leq(&mut m, &n, &Formula::True, &f).expect("ok"));
        assert!(!sequence_leq(&mut m, &n, &f, &Formula::True).expect("ok"));
    }
}
