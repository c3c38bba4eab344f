//! # ssr-bdd — reduced ordered binary decision diagrams
//!
//! A self-contained ROBDD engine used as the symbolic substrate of the
//! selective-state-retention workspace.  The paper ("Selective State
//! Retention Design using Symbolic Simulation", DATE 2009) relies on the
//! Forte/CUDD BDD packages; this crate provides the same primitive
//! operations from scratch:
//!
//! * hash-consed unique table (structural sharing, canonical ROBDDs),
//! * `ite` (if-then-else) with a computed table, from which all binary
//!   Boolean connectives are derived,
//! * cofactor/restrict, existential and universal quantification,
//!   functional composition and variable substitution,
//! * satisfiability helpers: `sat_count`, `one_sat` cube extraction,
//!   `all_sat` enumeration, support computation,
//! * bit-vector ("word level") helpers in [`vec::BddVec`] used by the memory
//!   and datapath models.
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
//!   sets) and run mark-and-sweep [`BddManager::gc`], which unlinks the
//!   dead from the unique table, drops the computed-table entries that
//!   name them and recycles slots deterministically.
//!   [`BddManager::reset`] still recycles the whole manager — capacity
//!   kept, contents cleared, tables back to their construction-time size —
//!   for arena reuse across batch jobs.
//! * Two compact hot tables, CUDD-style, about 36 bytes per arena slot in
//!   all.  The unique table is a power-of-two array of chain heads
//!   (4 bytes a bucket) with the chains threaded through a `next` index
//!   in each 16-byte node; it doubles in place at load factor one.  The
//!   ITE computed table is direct-mapped and lossy (the last writer wins):
//!   one 16-byte `{f, g, h, r}` slot per bucket, growing with the buckets.
//!   ITE triples are normalised into a standard form before the probe
//!   (including the complement-edge standard-triple rules:
//!   condition-polarity flip and `ite(f,g,h) = ¬ite(f,¬g,¬h)` canonical
//!   output polarity, so complementary triples share one slot).
//!   `restrict`, `compose`, `rename` and quantification memoise per call
//!   in a reusable scratch map.  [`BddStats`] surfaces the ITE
//!   hit/miss/normalisation counters, the live/peak node counts and the
//!   GC counters.
//! * Variable order: the declaration order — a variable's index is its
//!   level — with the static presets in [`order::OrderPolicy`]
//!   (interleaved | sequential | reverse | explicit) naming how word-level
//!   operands are declared.  Automatic GC at caller-declared safe points
//!   is configured with [`BddManager::set_maintenance`]
//!   ([`MaintainSettings`]) and driven by [`BddManager::maintain`]; it
//!   fires once the live count has doubled since the last pass (capped
//!   under an installed node budget).
//! * Resource governance: [`BddManager::set_budget`] installs a live-node
//!   ceiling, an ITE-step ceiling and a wall-clock deadline
//!   ([`BudgetSettings`]).  Exhaustion unwinds out of the hot paths with a
//!   typed [`BddError::BudgetExceeded`] payload instead of growing without
//!   bound; governed callers (`catch_unwind` + downcast) turn that into a
//!   structured verdict.  Node/step budgets are deterministic; the
//!   deadline is wall-clock and is not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod hash;
mod manager;
mod node;
pub mod order;
pub mod vec;

pub use error::{BddError, BudgetKind};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use manager::{Assignment, BddManager, BddStats, BudgetSettings, MaintainSettings};
pub use node::Bdd;
pub use order::OrderPolicy;
pub use vec::BddVec;
