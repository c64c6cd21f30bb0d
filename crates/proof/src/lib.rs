//! Certification of SAT verdicts: DRAT proofs and an independent checker.
//!
//! A CDCL refutation is only as trustworthy as the engine that produced it.
//! This crate closes that gap for the UNSAT pole of the verification flow:
//! the solver emits every learned clause and every clause deletion as a
//! [DRAT](https://satcompetition.github.io/2024/certificates.html) proof
//! ([`Proof`], with text and binary serializations in [`drat`]), and the
//! [`checker`] replays the proof against the original CNF with *reverse unit
//! propagation* (RUP): each added clause must yield a conflict by unit
//! propagation when its negation is asserted.
//!
//! The checker is deliberately independent of the `velv_sat` solver crate: it
//! has its own tiny watched-literal propagation core, works on plain
//! DIMACS-coded `i32` literals, and shares no code with the engines whose
//! answers it audits.  A bug in the solver's propagation, conflict analysis or
//! clause management therefore cannot silently re-validate its own faulty
//! proofs.
//!
//! **Hinted replay.**  A solver may attach *antecedent hints* to an addition
//! (in the spirit of LRAT, Cruz-Filipe et al., CADE 2017): the clauses its
//! conflict analysis resolved on, named by [`ClauseId`].  The checker then
//! propagates just those clauses, in order, and falls back to full unit
//! propagation when they do not reach a conflict.  Hints only choose which
//! live clauses to propagate first: a hint counts only if it names a live
//! clause of the checker's own database, the checker evaluates that clause
//! itself, and a conflict reached this way is one full propagation reaches
//! too.  So the checker accepts exactly the proofs it accepts without hints,
//! rejects the others at the same step, and only gets faster.  The trusted
//! base grows by that one evaluation loop.
//!
//! Besides forward checking, the checker can backward-*trim* a verified proof:
//! starting from the terminal step it marks the clauses actually used in each
//! RUP derivation, reporting the subset of the input clauses (the used-clause
//! core) and the number of proof steps that matter.
//!
//! # Example
//!
//! ```
//! use velv_proof::{check_proof, CheckOptions, Proof};
//!
//! // x ∧ (¬x ∨ y) ∧ ¬y is unsatisfiable; the empty clause is RUP.
//! let cnf = vec![vec![1], vec![-1, 2], vec![-2]];
//! let mut proof = Proof::new();
//! proof.add(vec![]);
//! let report = check_proof(&cnf, &proof, &CheckOptions::default()).unwrap();
//! assert!(report.derived_empty);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checker;
pub mod drat;

pub use checker::{check_proof, CheckError, CheckOptions, CheckReport};
pub use drat::{ClauseId, Proof, ProofStep};
