//! # ssr-netlist — gate-level netlist IR for the SSR-STE workspace
//!
//! The paper's flow synthesises the RISC core RTL to a gate-level
//! Berkeley Logic Interchange Format (BLIF) model and compiles that to a
//! finite-state machine for the STE model checker.  This crate provides the
//! equivalent substrate:
//!
//! * a small gate-level IR ([`Netlist`], [`Cell`], [`Net`]) with explicit
//!   clock, asynchronous reset (`NRST`, active low) and retention
//!   (`NRET`, active low) controls on state cells — the emulated retention
//!   register of Figure 1 of the paper is [`RegKind::Retention`];
//! * a word-level [`builder::NetlistBuilder`] used by the CPU generator;
//! * memory-array expansion ([`builder::MemoryConfig`]) into register words,
//!   address decoders and read multiplexers — exactly what the paper's
//!   synthesis flow produces for the 256×32 instruction memory;
//! * structural analyses: topological ordering and
//!   combinational-loop detection ([`topo`]);
//! * area statistics ([`stats`]) used by the retention area/leakage model.
//!
//! ## Layout
//!
//! A [`Netlist`] is a few flat arrays, not one heap allocation per net or
//! cell.  Per net it stores a [`NetDriver`] and an offset into one string
//! arena that holds every name back to back; per cell a [`CellKind`], an
//! output [`NetId`] and an offset into one array that holds every cell's
//! inputs.  [`Netlist::find_net`] probes an open-addressing hash index of
//! net ids that compares names in the arena, so no name is stored twice.
//! [`Netlist::net`] and [`Netlist::cell`] return borrowed views
//! ([`Net`], [`Cell`]) into the arrays.  The builder writes into them
//! directly, numbering nets and cells in creation order.
//! A generated paper core (67,093 nets, 67,046 cells) takes 3.6 MB this
//! way; with its compiled model, a harness is 5.4 MB.
//!
//! ## Register semantics
//!
//! All state cells are rising-edge triggered.  The retention register
//! follows the paper exactly: when `NRET` is high the cell behaves as a
//! normal register (sample mode) and `NRST` resets it asynchronously; when
//! `NRET` is low the cell holds its state and **retention has priority over
//! reset** — asserting `NRST` while `NRET` is low does not clear the
//! retained value.
//!
//! ```
//! use ssr_netlist::builder::NetlistBuilder;
//! use ssr_netlist::RegKind;
//!
//! let mut b = NetlistBuilder::new("example");
//! let clk = b.input("clock");
//! let nrst = b.input("NRST");
//! let nret = b.input("NRET");
//! let d = b.input("d");
//! let q = b.reg("q_reg", RegKind::Retention { reset_value: false }, d, clk, Some(nrst), Some(nret));
//! b.mark_output(q);
//! let netlist = b.finish().expect("well-formed netlist");
//! assert_eq!(netlist.state_cells().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
mod cell;
mod error;
mod netlist;
pub mod stats;
pub mod topo;

pub use cell::{Cell, CellId, CellKind, GateOp, RegKind};
pub use error::NetlistError;
pub use netlist::{Net, NetDriver, NetId, Netlist};
