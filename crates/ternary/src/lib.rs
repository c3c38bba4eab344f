//! # ssr-ternary — the STE information lattice and its symbolic encoding
//!
//! Symbolic trajectory evaluation works over a *ternary* circuit state model
//! in which the binary values `0` and `1` are augmented with `X` ("unknown")
//! — and, for the purpose of detecting over-constrained antecedents, a
//! fourth value `⊤` ("top", contradictory).  The information ordering is
//!
//! ```text
//!        ⊤
//!       / \
//!      0   1
//!       \ /
//!        X
//! ```
//!
//! with `X ⊑ 0 ⊑ ⊤` and `X ⊑ 1 ⊑ ⊤`.  `X` carries no information, `0`/`1`
//! carry complete information, and `⊤` indicates that a node was required to
//! be both `0` and `1` at once (an inconsistent antecedent).
//!
//! This crate provides
//!
//! * [`Ternary`] — the scalar quaternary lattice with monotone gate
//!   extensions (used by the concrete ternary simulator and as the reference
//!   semantics in tests), and
//! * [`SymTernary`] — the standard *dual-rail* symbolic encoding, a pair of
//!   BDDs `(hi, lo)` where `hi` means "the node may be 1" and `lo` means
//!   "the node may be 0" under a given assignment of the symbolic variables:
//!
//!   | value | hi | lo |
//!   |-------|----|----|
//!   | `X`   | 1  | 1  |
//!   | `0`   | 0  | 1  |
//!   | `1`   | 1  | 0  |
//!   | `⊤`   | 0  | 0  |
//!
//! ## Example
//!
//! ```
//! use ssr_bdd::BddManager;
//! use ssr_ternary::{SymTernary, Ternary};
//!
//! let mut m = BddManager::new();
//! let a = SymTernary::symbol(&mut m, "a");
//! let x = SymTernary::constant(Ternary::X);
//! // AND with an unknown is only 0 when the other input is 0:
//! let out = a.and(&mut m, &x);
//! assert!(out.to_constant(&m).is_none());          // value depends on `a`
//! let zero = SymTernary::constant(Ternary::Zero);
//! let out0 = zero.and(&mut m, &x);
//! assert_eq!(out0.to_constant(&m), Some(Ternary::Zero));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod scalar;
mod symbolic;

pub use scalar::Ternary;
pub use symbolic::SymTernary;
