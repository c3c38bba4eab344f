//! # ssr-properties — the DATE 2009 property suites
//!
//! This crate encodes the paper's verification artefacts as code:
//!
//! * [`property_one`] — the 26 **Property I** assertions (2 fetch, 6 decode,
//!   11 control, 6 execute, 1 write-back) that check the core behaves like a
//!   retention-free design while `NRET` is held high throughout;
//! * [`property_two`] — the **Property II** assertions that re-check
//!   behaviour across an explicit sleep → resume sequence: retained state
//!   survives the power-down, and the architectural next state after resume
//!   equals the next state the core would have reached without the detour
//!   (Figure 2 of the paper);
//! * [`ifr`] — the §III-B instruction-memory / IFR property quoted in the
//!   paper (read-after-write preserved across sleep and resume), in both the
//!   direct and the symbolically-indexed antecedent styles;
//! * [`harness`] — the shared plumbing: a generated core plus its compiled
//!   model and the symbolic present-state builders;
//! * [`suite`] — the [`Suite`] enumeration that names the three suites as
//!   data, so batch drivers (the `ssr-engine` campaign runner) can
//!   enumerate, filter and shard the individual proof obligations.
//!
//! The suites are used three ways: as tests (this crate's own test modules),
//! as the jobs of `ssr-engine` campaigns, and from the runnable examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod ifr;
pub mod property_one;
pub mod property_two;
pub mod suite;

pub use harness::CoreHarness;
pub use suite::Suite;
