//! Logic of Equality with Uninterpreted Functions and Memories (EUFM).
//!
//! This crate implements the term/formula logic that Burch and Dill proposed for
//! microprocessor correspondence checking and that Velev & Bryant's verification
//! flow (TLSim + EVC) is built on:
//!
//! * **Terms** abstract word-level values (data, register identifiers, addresses,
//!   whole memory states). A term is a term variable, an uninterpreted-function
//!   application, an `ITE` selecting between two terms, or a memory `read`/`write`.
//! * **Formulas** model the control path and the correctness condition. A formula
//!   is a propositional variable, an uninterpreted-predicate application, a Boolean
//!   connective, an `ITE` over formulas, or an equation between two terms.
//!
//! All expressions live in a [`Context`] and are *hash-consed*: structurally equal
//! expressions are represented by the same node, identified by a [`TermId`] or
//! [`FormulaId`]. Construction applies inexpensive local simplifications
//! (constant folding, `x = x` → `true`, double negation, …) so that downstream
//! translation works on a compact DAG.
//!
//! Besides construction the crate provides:
//!
//! * [`polarity`] — the positive/negative context analysis underlying *positive
//!   equality* (classification of equations into p-equations and g-equations),
//! * [`fingerprint`] — stable, order-independent structural hashes of the
//!   reachable DAG (the identity key of the `velv_serve` verdict cache),
//! * [`support`] — variable/function support computation,
//! * [`eval`] — a concrete evaluator used for counterexample validation and
//!   differential testing of the propositional translation,
//! * [`printer`] — an s-expression pretty printer,
//! * [`stats`] — DAG statistics,
//! * [`idhash`] — the deterministic id hasher behind the hash-consing maps
//!   and the translator's memo tables.
//!
//! # Example
//!
//! ```
//! use velv_eufm::Context;
//!
//! let mut ctx = Context::new();
//! let a = ctx.term_var("a");
//! let b = ctx.term_var("b");
//! let fa = ctx.uf("f", vec![a]);
//! let fb = ctx.uf("f", vec![b]);
//! let premise = ctx.eq(a, b);
//! let conclusion = ctx.eq(fa, fb);
//! let consistency = ctx.implies(premise, conclusion);
//! // Functional consistency is not a tautology of the *syntax*; it is enforced
//! // during translation.  Here we just built the formula.
//! assert!(ctx.is_formula(consistency));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod context;
pub mod eval;
pub mod fingerprint;
pub mod idhash;
pub mod node;
pub mod polarity;
pub mod printer;
pub mod stats;
pub mod support;
pub mod symbols;

pub use context::Context;
pub use eval::{evaluate, Evaluator, Interpretation, Value};
pub use fingerprint::{formula_fingerprint, term_fingerprint, Fingerprint};
pub use idhash::{IdHasher, IdMap, IdSet};
pub use node::{Formula, FormulaId, Term, TermId};
pub use polarity::{EquationPolarity, PolarityAnalysis};
pub use stats::DagStats;
pub use support::Support;
pub use symbols::{Symbol, SymbolTable};
