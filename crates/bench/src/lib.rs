//! # ssr-bench — the zero-dependency wall-clock harness behind `ssr bench`
//!
//! [`harness`] runs named BDD-kernel microbenchmarks, end-to-end campaign
//! workloads and a serve closed loop, warmup/median/min over N iterations,
//! and writes machine-readable JSON (`ssr-bench-report/v1`) plus a report
//! differ for regression gating.  The committed `BENCH_*.json` trajectory
//! at the repository root is produced with it, in the fully offline build.
//!
//! | workload | what it measures |
//! |----------|------------------|
//! | `kernel/vector-add32` | 32-bit symbolic adder construction and commutativity check |
//! | `kernel/negation-heavy` | xor/xnor-dense vector arithmetic under complement edges |
//! | `kernel/mux-select64` | symbolic word select over 64 words |
//! | `kernel/quantify24` | repeated existential/universal quantification |
//! | `kernel/compose-rename` | functional composition and variable renaming |
//! | `kernel/allsat-cube` | satisfying-assignment enumeration and cube building |
//! | `campaign/default-assertion` | `ssr campaign --suite all --granularity assertion` on the small core |
//! | `campaign/all-policies-suite` | every named policy × every suite, suite granularity |
//! | `campaign/all-policies-assertion` | the same product at assertion granularity |
//! | `campaign/ifr-paper-cold` | the paper core's IFR suite (`ssr check --config paper --suite ifr`) |
//! | `serve/closed-loop` | a client fleet against an in-process `ssr-serve` daemon |
//!
//! The repository benchmark — paper IFR, the paper policy sweep and served
//! campaigns, end to end and per layer — is the separate `ssrbench`
//! package (`ssrbench/README.md`).
//!
//! ## Running
//!
//! ```text
//! cargo run --release -p ssr-cli -- bench --iterations 5 --json BENCH.json
//! cargo run --release -p ssr-cli -- bench --diff BENCH_02.json BENCH.json
//! ```
//!
//! For a quick paper-flow timing, the campaign engine also reports
//! per-obligation wall times:
//!
//! ```text
//! cargo run --release -p ssr-cli -- campaign --suite all --granularity assertion
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
