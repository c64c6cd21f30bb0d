//! Named solver presets matching the SAT-procedure comparison of the paper.

use crate::cdcl::{CdclConfig, CdclSolver};
use crate::dpll::DpllSolver;
use crate::local_search::{DlmSolver, WalkSatSolver};
use crate::solver::Solver;

/// The SAT-procedure families compared in Table 1 (and used throughout the
/// experiments), reduced to the algorithmic classes this crate implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SolverKind {
    /// CDCL with VSIDS and restarts (Chaff).
    Chaff,
    /// CDCL driven by recent conflict clauses (BerkMin).
    BerkMin,
    /// CDCL with static order and no restarts (GRASP).
    Grasp,
    /// CDCL with length-bounded learning (SATO).
    Sato,
    /// Plain DPLL without learning (satz / posit / ntab class).
    Dpll,
    /// WalkSAT stochastic local search.
    WalkSat,
    /// DLM-style clause-weighting local search (DLM-2/DLM-3 class).
    Dlm,
}

impl SolverKind {
    /// All implemented solver kinds, in the order used by the Table 1 harness.
    pub fn all() -> &'static [SolverKind] {
        &[
            SolverKind::Chaff,
            SolverKind::BerkMin,
            SolverKind::Grasp,
            SolverKind::Sato,
            SolverKind::Dpll,
            SolverKind::WalkSat,
            SolverKind::Dlm,
        ]
    }

    /// The display name used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            SolverKind::Chaff => "Chaff (CDCL, VSIDS + restarts)",
            SolverKind::BerkMin => "BerkMin (CDCL, clause-driven decisions)",
            SolverKind::Grasp => "GRASP (CDCL, static order, no restarts)",
            SolverKind::Sato => "SATO (CDCL, bounded learning)",
            SolverKind::Dpll => "DPLL (no learning: satz/posit class)",
            SolverKind::WalkSat => "WalkSAT (local search)",
            SolverKind::Dlm => "DLM (weighted local search)",
        }
    }

    /// The engine configuration of a CDCL preset — the engines that log
    /// DRAT proofs; `None` for DPLL and local search.
    pub fn cdcl_config(self) -> Option<CdclConfig> {
        match self {
            SolverKind::Chaff => Some(CdclConfig::chaff()),
            SolverKind::BerkMin => Some(CdclConfig::berkmin()),
            SolverKind::Grasp => Some(CdclConfig::grasp()),
            SolverKind::Sato => Some(CdclConfig::sato()),
            SolverKind::Dpll | SolverKind::WalkSat | SolverKind::Dlm => None,
        }
    }

    /// Instantiates the solver.  The box is `Send` so a preset can run on a
    /// race member's thread.
    pub fn build(self) -> Box<dyn Solver + Send> {
        match self {
            SolverKind::Dpll => Box::new(DpllSolver::new()),
            SolverKind::WalkSat => Box::new(WalkSatSolver::new()),
            SolverKind::Dlm => Box::new(DlmSolver::new()),
            cdcl => Box::new(CdclSolver::new(
                cdcl.cdcl_config()
                    .expect("every other preset is a CDCL engine"),
            )),
        }
    }
}

/// The Chaff parameter variations of Table 2: the base configuration plus the
/// three variations suggested by Moskewicz (restart period 3000, restart
/// period 4000, higher restart randomness).
pub fn chaff_parameter_variations() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(CdclSolver::chaff()),
        Box::new(CdclSolver::chaff_with(|cfg| {
            cfg.name = "chaff-restart3000".to_owned();
            cfg.restart_interval = Some(3000);
        })),
        Box::new(CdclSolver::chaff_with(|cfg| {
            cfg.name = "chaff-restart4000".to_owned();
            cfg.restart_interval = Some(4000);
        })),
        Box::new(CdclSolver::chaff_with(|cfg| {
            cfg.name = "chaff-random10".to_owned();
            cfg.random_decision_freq = 0.10;
        })),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{CnfFormula, Lit, Var};

    #[test]
    fn all_presets_solve_a_tiny_instance() {
        let mut cnf = CnfFormula::new(2);
        let a = Lit::positive(Var::new(0));
        let b = Lit::positive(Var::new(1));
        cnf.add_clause(&[a, b]);
        cnf.add_clause(&[!a, b]);
        for kind in SolverKind::all() {
            let mut solver = kind.build();
            let result = solver.solve(&cnf);
            assert!(result.is_sat(), "{}", kind.label());
        }
    }

    #[test]
    fn parameter_variations_have_distinct_names() {
        let variations = chaff_parameter_variations();
        assert_eq!(variations.len(), 4);
        let names: Vec<&str> = variations.iter().map(|s| s.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
