//! The EVC analog: translation of EUFM microprocessor-correctness formulas to
//! propositional logic, and the end-to-end verification flow.
//!
//! The pipeline mirrors the tool flow of the paper:
//!
//! 1. [`burch_dill`] constructs the Burch–Dill correctness criterion by
//!    *flushing*: one implementation step followed by a flush must match 0..k
//!    specification steps on every architectural state element.
//! 2. [`memory_elim`] removes the interpreted `read`/`write` memory functions
//!    (precisely, using the forwarding property, or conservatively as plain
//!    uninterpreted functions — the "automatic memory abstraction" of the paper).
//! 3. [`uf_elim`] removes uninterpreted functions and predicates with the
//!    nested-ITE scheme (or Ackermann constraints for predicates), with the
//!    optional *early reduction of p-equations*.
//! 4. [`positive_equality`] classifies term variables into p-terms and
//!    g-terms; p-terms get a maximally diverse interpretation.
//! 5. [`encode`] turns the remaining term-level equations into propositional
//!    formulas using either the *e*ij encoding (with the sparse transitivity
//!    constraints of [`encode::transitivity`]) or the small-domain encoding.
//! 6. [`cnf`] translates the propositional formula into CNF (one auxiliary
//!    variable per ∧/∨/ITE node, negations absorbed into literal polarity).
//! 7. [`flow`] drives the whole pipeline and the back ends; [`decompose`]
//!    provides the weak-criteria decomposition used by the parallel-run
//!    experiments, and [`backend`] the unified [`Backend`] abstraction whose
//!    portfolio variant races CDCL presets against the BDD build with
//!    cooperative cancellation.
//!
//! # Example
//!
//! ```
//! use velv_core::{Verifier, TranslationOptions};
//! use velv_models::dlx::{Dlx, DlxConfig, DlxSpecification};
//! use velv_sat::cdcl::CdclSolver;
//!
//! let config = DlxConfig::single_issue();
//! let implementation = Dlx::correct(config);
//! let spec = DlxSpecification::new(config);
//! let verifier = Verifier::new(TranslationOptions::default());
//! let mut solver = CdclSolver::chaff();
//! let verdict = verifier.verify(&implementation, &spec, &mut solver);
//! assert!(verdict.is_correct());
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod burch_dill;
pub mod certify;
pub mod cnf;
pub mod counterexample;
pub mod decompose;
pub mod encode;
pub mod fingerprint;
pub mod flow;
pub mod memory_elim;
pub mod options;
pub mod positive_equality;
pub mod refine;
pub mod stats;
#[cfg(test)]
pub(crate) mod test_models;
pub mod uf_elim;

pub use backend::{Backend, BackendRun, BddOutcome, PortfolioOutcome};
pub use burch_dill::VerificationProblem;
pub use certify::{
    Certificate, CertifiedVerdict, CertifyError, ModelCertificate, ProofCertificate,
};
pub use counterexample::Counterexample;
pub use fingerprint::problem_fingerprint;
pub use flow::{Translation, Verdict, Verifier};
pub use options::{CertifyOptions, GEncoding, TransitivityMode, TranslationOptions, UpElimination};
pub use stats::{RefinementStats, TranslationStats};
