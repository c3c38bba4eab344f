//! # ssr-bdd — reduced ordered binary decision diagrams
//!
//! A self-contained ROBDD engine used as the symbolic substrate of the
//! selective-state-retention workspace.  The paper ("Selective State
//! Retention Design using Symbolic Simulation", DATE 2009) relies on the
//! Forte/CUDD BDD packages; this crate provides the same primitive
//! operations from scratch:
//!
//! * hash-consed unique table (structural sharing, canonical ROBDDs),
//! * `ite` (if-then-else) with a computed-table cache, from which all binary
//!   Boolean connectives are derived,
//! * cofactor/restrict, existential and universal quantification,
//!   functional composition and variable substitution,
//! * satisfiability helpers: `sat_count`, `one_sat` cube extraction,
//!   `all_sat` enumeration, support computation,
//! * bit-vector ("word level") helpers in [`vec::BddVec`] used by the memory
//!   and datapath models,
//! * Graphviz dot export for debugging.
//!
//! ## Example
//!
//! ```
//! use ssr_bdd::BddManager;
//!
//! let mut m = BddManager::new();
//! let a = m.new_var("a");
//! let b = m.new_var("b");
//! let f = m.and(a, b);
//! let g = m.or(a, b);
//! assert!(m.implies_valid(f, g));
//! assert_eq!(m.sat_count(f, 2), 1.0);
//! ```
//!
//! ## Design notes
//!
//! * Nodes are stored in an arena owned by [`BddManager`]; a [`Bdd`] is a
//!   `Copy` handle packing an arena index with a *complement bit*
//!   (attributed edges, per Brace–Rudell–Bryant).  Negation is a one-bit
//!   flip ([`Bdd::negate`]) and `f`/`¬f` share one arena subgraph; there
//!   is a single terminal node (`TRUE`, arena index 0) with
//!   `FALSE = ¬TRUE`.  Canonical form: a node's low edge is never
//!   complemented — `mk_node` restores the invariant by flipping both
//!   children and complementing the returned handle.  By default nodes are never
//!   freed during a run; callers that opt in can register external roots
//!   ([`BddManager::protect`] / scoped [`BddManager::push_root_frame`]
//!   sets) and run mark-and-sweep [`BddManager::gc`], which rebuilds the
//!   unique table, invalidates the operation caches and recycles slots
//!   deterministically.  [`BddManager::reset`] still recycles the whole
//!   manager — capacity kept, contents cleared — for arena reuse across
//!   batch jobs.
//! * The hot tables (unique table, ITE computed table, quantification and
//!   scratch caches) use the hand-rolled [`hash::FxHasher`]; ITE triples are
//!   normalised into a standard form before the cache probe (including the
//!   complement-edge standard-triple rules: condition-polarity flip and
//!   `ite(f,g,h) = ¬ite(f,¬g,¬h)` canonical output polarity, so
//!   complementary triples share one cache line), and the
//!   quantification cache is direct-mapped and bounded.  [`BddStats`]
//!   surfaces hit/miss/normalisation counters for all of them, plus the
//!   live/peak node counts and GC/reorder counters.
//! * Variable order: declaration order by default, with the static presets
//!   in [`order::OrderPolicy`] (interleaved | sequential | reverse |
//!   explicit) naming how word-level operands are declared.  The order is
//!   *dynamic* underneath: [`BddManager::swap_adjacent_levels`] exchanges
//!   two adjacent levels in place (every handle keeps its function), and
//!   [`BddManager::sift`] runs Rudell-style sifting with a growth cap on
//!   top of it (DESIGN.md experiment E10, now in-kernel).  Automatic
//!   GC+sift maintenance at caller-declared safe points is configured with
//!   [`BddManager::set_maintenance`] and driven by
//!   [`BddManager::maintain`].
//! * Resource governance: [`BddManager::set_budget`] installs a live-node
//!   ceiling, an ITE-step ceiling and a wall-clock deadline
//!   ([`BudgetSettings`]).  Exhaustion unwinds out of the hot paths with a
//!   typed [`BddError::BudgetExceeded`] payload instead of growing without
//!   bound; governed callers (`catch_unwind` + downcast) turn that into a
//!   structured verdict.  Node/step budgets are deterministic; the
//!   deadline is wall-clock and is not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
mod error;
pub mod hash;
mod manager;
mod node;
pub mod order;
pub mod reorder;
pub mod vec;

pub use error::{BddError, BudgetKind};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use manager::{Assignment, BddManager, BddStats, BudgetSettings};
pub use node::Bdd;
pub use order::OrderPolicy;
pub use reorder::{MaintainSettings, SiftOutcome};
pub use vec::BddVec;
