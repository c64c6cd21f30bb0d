//! Persistent incremental SAT solving: one live CDCL engine, clauses added
//! between solves.
//!
//! The lazy transitivity refinement of `velv_core` solves a relaxed formula,
//! inspects the model, asserts the violated transitivity constraints and
//! solves again.  A fresh [`crate::cdcl::CdclSolver`] would re-learn the same
//! clauses on every round; the [`IncrementalSolver`] keeps one CDCL engine
//! alive instead.  [`IncrementalSolver::add_clause`] installs new clauses
//! directly into the live engine (arena, watches, heap), and learned clauses,
//! variable activities and saved phases survive from one
//! [`IncrementalSolver::solve`] to the next.  With
//! [`IncrementalSolver::enable_proof`] one DRAT proof is threaded through
//! every solve of the session.

use crate::cdcl::{CdclConfig, Engine};
use crate::cnf::{CnfFormula, Lit};
use crate::proof::SharedProof;
use crate::solver::{Budget, SatResult, SolverStats};

/// A persistent CDCL solver that accepts clauses between solves.
pub struct IncrementalSolver {
    engine: Engine,
    config_name: String,
    /// Shared handle of the DRAT proof log, when proof logging is enabled.
    proof: Option<SharedProof>,
}

impl std::fmt::Debug for IncrementalSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSolver")
            .field("config", &self.config_name)
            .field("num_vars", &self.num_vars())
            .finish()
    }
}

impl IncrementalSolver {
    /// Creates an empty incremental solver with the given CDCL configuration.
    pub fn new(config: CdclConfig) -> Self {
        Self::with_formula(config, &CnfFormula::new(0))
    }

    /// Creates an incremental solver preloaded with `cnf`.
    pub fn with_formula(config: CdclConfig, cnf: &CnfFormula) -> Self {
        let config_name = config.name.clone();
        IncrementalSolver {
            engine: Engine::new(cnf, config),
            config_name,
            proof: None,
        }
    }

    /// An incremental solver with the Chaff preset (the strongest default).
    pub fn chaff() -> Self {
        Self::new(CdclConfig::chaff())
    }

    /// The preset name of the underlying engine configuration.
    pub fn name(&self) -> &str {
        &self.config_name
    }

    /// Number of variables currently known to the solver.
    pub fn num_vars(&self) -> usize {
        self.engine.num_vars()
    }

    /// Enables DRAT proof logging and returns the shared proof handle.  The
    /// log is threaded through *every* later solve: learned clauses,
    /// deletions and the empty clause of a refutation accumulate in one
    /// proof, which checks against the union of the clauses added to the
    /// session.  Idempotent.
    ///
    /// Enable proof logging **before the first solve**: inferences performed
    /// earlier (learned clauses of previous solves) are not on record, so
    /// later steps that resolve on them may fail the independent replay.
    /// Late enabling is fail-safe — the checker rejects, it never wrongly
    /// accepts — but leaves valid verdicts uncertifiable.
    pub fn enable_proof(&mut self) -> SharedProof {
        if let Some(handle) = &self.proof {
            return handle.clone();
        }
        let handle = SharedProof::new();
        self.engine.set_proof_writer(Box::new(handle.clone()));
        self.proof = Some(handle.clone());
        handle
    }

    /// The shared proof handle, when proof logging is enabled.
    pub fn proof(&self) -> Option<&SharedProof> {
        self.proof.as_ref()
    }

    /// Adds a clause; it constrains every later solve.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.engine.add_clause_dynamic(lits);
    }

    /// Adds every clause of `cnf`.
    pub fn add_formula(&mut self, cnf: &CnfFormula) {
        self.engine.ensure_vars(cnf.num_vars());
        for clause in cnf.clauses() {
            self.add_clause(clause);
        }
    }

    /// Solves the current formula within `budget`.  Learned clauses and
    /// heuristic state are retained across calls.
    pub fn solve(&mut self, budget: Budget) -> SatResult {
        let _span = velv_obs::span("incr.solve");
        self.engine.search(budget)
    }

    /// Whether the formula has been proven unsatisfiable at the root —
    /// every later solve is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        self.engine.is_unsat()
    }

    /// Cumulative statistics of the engine across all solve calls.
    pub fn stats(&self) -> SolverStats {
        self.engine.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i64) -> Lit {
        Lit::from_dimacs(i)
    }

    fn clauses(solver: &mut IncrementalSolver, cs: &[&[i64]]) {
        for c in cs {
            let c: Vec<Lit> = c.iter().map(|&i| lit(i)).collect();
            solver.add_clause(&c);
        }
    }

    #[test]
    fn basic_sat_and_unsat_across_solves() {
        let mut solver = IncrementalSolver::chaff();
        clauses(&mut solver, &[&[1, 2], &[-1, 2]]);
        assert!(solver.solve(Budget::unlimited()).is_sat());
        solver.add_clause(&[lit(-2)]);
        assert!(solver.solve(Budget::unlimited()).is_unsat());
        assert!(solver.is_unsat());
        // Once root-UNSAT, every later solve is UNSAT, whatever is added.
        solver.add_clause(&[lit(1), lit(3)]);
        assert!(solver.solve(Budget::unlimited()).is_unsat());
    }

    #[test]
    fn learned_clauses_survive_across_calls() {
        // Solving the same UNSAT instance twice must be cheaper the second
        // time: the learned clauses from the first run persist.
        use crate::generators::pigeonhole;
        let mut solver = IncrementalSolver::chaff();
        solver.add_formula(&pigeonhole(5));
        assert!(solver.solve(Budget::unlimited()).is_unsat());
        let after_first = solver.stats().conflicts;
        assert!(after_first > 0);
        assert!(solver.solve(Budget::unlimited()).is_unsat());
        let second = solver.stats().conflicts - after_first;
        assert_eq!(second, 0, "root-level UNSAT is remembered");
    }
}
