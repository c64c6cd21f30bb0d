//! Boolean satisfiability procedures used as back ends of the verification flow.
//!
//! The paper compares 31 SAT checkers, two ATPG tools and two kinds of decision
//! diagrams on CNF formulas produced in microprocessor correspondence checking,
//! and identifies conflict-driven clause-learning solvers (Chaff, BerkMin) as the
//! only procedures that scale.  This crate reimplements the algorithmic *classes*
//! of that comparison from scratch:
//!
//! * [`cdcl`] — a conflict-driven clause-learning solver with two-watched-literal
//!   propagation, first-UIP learning, activity-based decisions, restarts, phase
//!   saving and clause-database reduction.  Configuration presets approximate
//!   **Chaff** (VSIDS + aggressive restarts), **BerkMin** (decisions driven by the
//!   most recently learned unsatisfied conflict clause), **GRASP** (learning but
//!   no restarts, static ordering) and **SATO** (length-bounded learning).
//! * [`dpll`] — a plain Davis–Putnam–Logemann–Loveland solver without learning
//!   (the satz / posit / ntab class).
//! * [`local_search`] — incomplete stochastic solvers: **WalkSAT** and a
//!   **DLM**-style clause-weighting search.
//! * [`incremental`] — a persistent CDCL session ([`IncrementalSolver`]):
//!   one live engine that accepts clauses between solves and keeps its
//!   learned clauses.  This is the engine of the lazy transitivity
//!   refinement in `velv_core`.
//! * [`cnf`] + [`dimacs`] — clause representation and DIMACS I/O.
//! * [`preprocess`] — the "simplify before solving" experiments of Section 4.
//! * [`proof`] — pluggable DRAT proof logging: with a [`proof::ProofWriter`]
//!   attached, the CDCL engine records every learned clause and deletion so
//!   UNSAT answers can be replayed by the independent checker in
//!   `velv_proof`.
//! * [`portfolio`] — a parallel portfolio that races several engines on
//!   threads and returns the first decided answer, cancelling the losers
//!   through the cooperative [`CancelToken`] carried by [`Budget`].  The paper
//!   observes that no single procedure wins on every benchmark; the portfolio
//!   turns that observation into a "fastest engine wins" execution mode.
//! * [`mod@race`] — the generic scoped-spawn / first-decided-wins /
//!   cancel-token collector underlying both the CNF-level portfolio and the
//!   verdict-level back-end race in `velv_core`.
//! * [`rng`] — the small deterministic PRNG shared by the stochastic searches.
//!
//! # Example
//!
//! ```
//! use velv_sat::{CnfFormula, Lit, Var, Solver, SatResult};
//! use velv_sat::cdcl::CdclSolver;
//!
//! let mut cnf = CnfFormula::new(2);
//! let a = Lit::positive(Var::new(0));
//! let b = Lit::positive(Var::new(1));
//! cnf.add_clause(vec![a, b]);
//! cnf.add_clause(vec![!a]);
//! let mut solver = CdclSolver::chaff();
//! match solver.solve(&cnf) {
//!     SatResult::Sat(model) => assert!(model.value(b.var())),
//!     _ => unreachable!("the formula is satisfiable"),
//! }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cdcl;
pub mod cnf;
pub mod dimacs;
pub mod dpll;
pub mod generators;
pub mod incremental;
pub mod local_search;
pub mod obs;
pub mod portfolio;
pub mod preprocess;
pub mod presets;
pub mod proof;
pub mod race;
pub mod rng;
pub mod solver;

pub use cnf::{Clause, CnfFormula, Lit, Var};
pub use incremental::IncrementalSolver;
pub use obs::{
    current_solve_recorder, install_progress_cell, install_solve_recorder, ProgressCell,
    ProgressGuard, ProgressSnapshot, SolveRecorderGuard,
};
pub use portfolio::{EngineReport, PortfolioHandle, PortfolioReport, PortfolioSolver};
pub use proof::{ProofWriter, SharedProof};
pub use race::{race, race_with_token, RaceOutcome, RaceRun};
pub use solver::{Budget, CancelToken, Model, SatResult, Solver, SolverStats, StopReason};
