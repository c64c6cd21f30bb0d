//! Term-level processor modeling and symbolic simulation (the TLSim analog).
//!
//! Processors are modeled at the *term level*: word-level values (data,
//! register identifiers, addresses, program counters) are EUFM terms, the
//! functional units are uninterpreted functions, control decisions are
//! uninterpreted predicates or propositional variables, and register files /
//! memories are EUFM memory terms accessed with `read`/`write`.
//!
//! The crate provides:
//!
//! * [`state`] — symbolic machine states: one term/formula value per
//!   element of a design's state layout, indexed by position, plus the
//!   declaration of a processor's state elements,
//! * [`processor`] — the [`Processor`] trait (one symbolic step of a design)
//!   together with flushing and multi-step simulation helpers used by the
//!   Burch–Dill correctness criterion,
//! * [`instr`] — instruction-field bundles: the read-only instruction memory
//!   abstracted as a family of UFs/UPs applied to the program counter, their
//!   names formatted once per design,
//! * [`components`] — small reusable pieces of term-level data-path logic
//!   (multiplexers, forwarded register-file reads, squash/stall helpers).
//!
//! The benchmark processors of the paper are built on top of this crate in
//! `velv-models`; the correctness criterion and the propositional translation
//! live in `velv-core`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod components;
pub mod instr;
pub mod processor;
pub mod state;

pub use instr::{InstrFields, InstrMemory};
pub use processor::{flush, simulate, Processor};
pub use state::{StateElement, StateKind, SymbolicState, Value};
