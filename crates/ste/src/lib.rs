//! # ssr-ste — symbolic trajectory evaluation
//!
//! This crate is the workspace's reproduction of the verification engine the
//! paper builds on (the Forte STE model checker): trajectory formulas, their
//! defining sequences and trajectories, assertion checking, counterexample
//! extraction, property-decomposition inference rules and the symbolic
//! indexing transformation for memories.
//!
//! ## The logic (Definitions 1–3 of the paper)
//!
//! A trajectory formula is built from five constructs:
//!
//! ```text
//! f ::= n is 0 | n is 1 | f1 and f2 | f when G | N f
//! ```
//!
//! where `n` names a circuit node and `G` is a Boolean *guard* over the
//! symbolic variables.  [`Formula`] adds the conveniences used throughout
//! the paper: `n is b` for a symbolic Boolean `b`, word-level assertions and
//! the `from i to j` temporal sugar.
//!
//! The *defining sequence* `[f]φ` assigns to every node and time the weakest
//! lattice value satisfying `f`; the *defining trajectory* `[[f]]φ` folds the
//! circuit's excitation function into it.  An assertion `A ⇒ C` holds iff
//! the defining sequence of `C` is below the defining trajectory of `A`
//! point-wise:
//!
//! ```text
//! M ⊨ A ⇒ C   ⇔   ∀ t, n.  [C]φ t n ⊑ [[A]]φ M t n
//! ```
//!
//! [`Ste::check`] evaluates exactly this condition with BDDs and returns a
//! [`CheckReport`] carrying the Boolean residual, any antecedent conflicts
//! (⊤ values) and a concrete counterexample trace when the property fails.
//! The check streams the trajectory: each state is released once its
//! successor exists, and the condition is kept as partition frames that are
//! conjoined at the end, smallest first.  Under a maintenance policy on the
//! manager ([`ssr_bdd::BddManager::set_maintenance`]) the released states
//! are collected, so peak memory follows the working set rather than the
//! trajectory depth.  The checker never installs a policy itself.
//!
//! ## Example
//!
//! ```
//! use ssr_bdd::BddManager;
//! use ssr_netlist::builder::NetlistBuilder;
//! use ssr_sim::CompiledModel;
//! use ssr_ste::{Assertion, Formula, Ste};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 1-bit AND gate: out = a AND b.
//! let mut b = NetlistBuilder::new("and_gate");
//! let a = b.input("a");
//! let c = b.input("b");
//! let out = b.and("out", a, c);
//! b.mark_output(out);
//! let netlist = b.finish()?;
//! let model = CompiledModel::new(&netlist)?;
//!
//! let mut mgr = BddManager::new();
//! let va = mgr.new_var("va");
//! let vb = mgr.new_var("vb");
//! let antecedent = Formula::is_bdd(&mut mgr, "a", va).and(Formula::is_bdd(&mut mgr, "b", vb));
//! let expected = mgr.and(va, vb);
//! let consequent = Formula::is_bdd(&mut mgr, "out", expected);
//! let report = Ste::new(&model).check(&mut mgr, &Assertion::new(antecedent, consequent))?;
//! assert!(report.holds);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
mod error;
mod formula;
pub mod indexing;
pub mod infer;
pub mod stimulus;

pub use check::{CheckReport, Counterexample, FailedNode, Ste};
pub use error::SteError;
pub use formula::{Assertion, Formula};
