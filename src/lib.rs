//! `velv` — a from-scratch reproduction of Velev & Bryant's positive-equality
//! EUFM verification flow for superscalar and VLIW microprocessors
//! (DAC 2001 / JSC 2003).
//!
//! This umbrella crate re-exports the individual subsystem crates:
//!
//! * [`velv_eufm`] — the logic of equality with uninterpreted functions and memories,
//! * [`velv_hdl`] — term-level processor modeling and symbolic simulation,
//! * [`velv_models`] — the benchmark processors (DLX pipelines, VLIW, out-of-order),
//! * [`velv_core`] — the EUFM → propositional translation and verification flow,
//! * [`velv_sat`] — the SAT procedures (CDCL presets, DPLL, local search),
//! * [`velv_bdd`] — the BDD package used as the decision-diagram back end,
//! * [`velv_proof`] — DRAT proof formats and the independent RUP checker
//!   behind certified verdicts,
//! * [`velv_obs`] — zero-dependency observability: the metric registry
//!   (Prometheus-text/JSON encodings), the span/event tracer with JSONL
//!   sinks, solver progress heartbeats and the offline trace checker,
//! * [`velv_serve`] — the serving layer: a concurrent verification service
//!   with a fingerprint-keyed verdict cache, in-flight deduplication, batch
//!   scheduling, and the `velvd`/`velvc` TCP wire protocol,
//! * [`velv_store`] — the crash-safe persistent verdict store behind
//!   `velvd --store`: an append-only checksummed record log with recovery
//!   scan, sidecar artifact spill, compaction, and the deterministic
//!   failpoint facility driving the fault-injection suites.
//!
//! # Quickstart
//!
//! ```
//! use velv::prelude::*;
//!
//! let implementation = Dlx::correct(DlxConfig::single_issue());
//! let spec = DlxSpecification::new(DlxConfig::single_issue());
//! let verifier = Verifier::new(TranslationOptions::default());
//! let mut solver = CdclSolver::chaff();
//! assert!(verifier.verify(&implementation, &spec, &mut solver).is_correct());
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub use velv_bdd;
pub use velv_core;
pub use velv_eufm;
pub use velv_hdl;
pub use velv_models;
pub use velv_obs;
pub use velv_proof;
pub use velv_sat;
pub use velv_serve;
pub use velv_store;

/// The most commonly used items, for `use velv::prelude::*`.
pub mod prelude {
    pub use velv_bdd::BddManager;
    pub use velv_core::{
        Backend, BackendRun, Certificate, CertifiedVerdict, CertifyError, CertifyOptions,
        GEncoding, PortfolioOutcome, RefinementStats, TransitivityMode, Translation,
        TranslationOptions, TranslationStats, Verdict, Verifier,
    };
    pub use velv_eufm::Context;
    pub use velv_hdl::{Processor, StateElement, SymbolicState};
    pub use velv_models::dlx::{
        bug_catalog as dlx_bug_catalog, Dlx, DlxBug, DlxConfig, DlxSpecification,
    };
    pub use velv_models::ooo::{Ooo, OooSpecification};
    pub use velv_models::vliw::{
        bug_catalog as vliw_bug_catalog, Vliw, VliwBug, VliwConfig, VliwSpecification,
    };
    pub use velv_sat::cdcl::CdclSolver;
    pub use velv_sat::dpll::DpllSolver;
    pub use velv_sat::local_search::{DlmSolver, WalkSatSolver};
    pub use velv_sat::presets::SolverKind;
    pub use velv_sat::{Budget, CancelToken, SatResult, Solver};
    pub use velv_serve::{
        JobResult, JobSpec, JobTicket, ModelRef, ServeClient, ServeHandle, ServiceConfig,
        ServiceStats,
    };
}
