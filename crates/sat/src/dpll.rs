//! A plain Davis–Putnam–Logemann–Loveland solver without clause learning.
//!
//! This is the algorithmic class of satz, posit and ntab in the paper's
//! comparison: complete, chronological backtracking, unit propagation and pure
//! literal elimination, but no learning and no non-chronological backjumping.
//! On the correctness formulas of the benchmark processors it times out almost
//! everywhere, which is exactly the behaviour Table 1 documents.

use crate::cnf::{CnfFormula, Lit};
use crate::solver::{Budget, Model, SatResult, Solver, SolverStats, StopReason};

/// The DPLL solver.
#[derive(Debug, Default)]
pub struct DpllSolver {
    stats: SolverStats,
}

impl DpllSolver {
    /// Creates a DPLL solver.
    pub fn new() -> Self {
        DpllSolver::default()
    }
}

impl Solver for DpllSolver {
    fn name(&self) -> &str {
        "dpll"
    }

    fn solve_with_budget(&mut self, cnf: &CnfFormula, budget: Budget) -> SatResult {
        self.stats = SolverStats::default();
        let mut state = DpllState {
            cnf,
            assigns: vec![None; cnf.num_vars()],
            stats: &mut self.stats,
            budget: budget.started(),
            stopped: None,
        };
        match state.search() {
            Some(true) => {
                let values = state.assigns.iter().map(|v| v.unwrap_or(false)).collect();
                SatResult::Sat(Model::new(values))
            }
            Some(false) => SatResult::Unsat,
            None => SatResult::Unknown(state.stopped.unwrap_or(StopReason::DecisionLimit)),
        }
    }

    fn stats(&self) -> SolverStats {
        self.stats
    }
}

struct DpllState<'a> {
    cnf: &'a CnfFormula,
    assigns: Vec<Option<bool>>,
    stats: &'a mut SolverStats,
    budget: Budget,
    stopped: Option<StopReason>,
}

enum PropResult {
    Conflict,
    Fixpoint(Vec<usize>),
}

impl DpllState<'_> {
    fn lit_value(&self, lit: Lit) -> Option<bool> {
        self.assigns[lit.var().index()].map(|v| v == lit.is_positive())
    }

    /// Unit propagation until fixpoint; returns the assigned variables so they
    /// can be undone, or a conflict.
    fn propagate(&mut self) -> PropResult {
        let mut assigned = Vec::new();
        loop {
            let mut changed = false;
            for clause in self.cnf.clauses() {
                let mut unassigned: Option<Lit> = None;
                let mut unassigned_count = 0;
                let mut satisfied = false;
                for &lit in clause {
                    match self.lit_value(lit) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => {}
                        None => {
                            unassigned_count += 1;
                            unassigned = Some(lit);
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match unassigned_count {
                    0 => {
                        for v in assigned {
                            self.assigns[v] = None;
                        }
                        return PropResult::Conflict;
                    }
                    1 => {
                        let lit = unassigned.expect("exactly one unassigned literal");
                        self.assigns[lit.var().index()] = Some(lit.is_positive());
                        assigned.push(lit.var().index());
                        self.stats.propagations += 1;
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return PropResult::Fixpoint(assigned);
            }
        }
    }

    fn out_of_budget(&mut self) -> bool {
        if let Some(max) = self.budget.max_decisions {
            if self.stats.decisions >= max {
                self.stopped = Some(StopReason::DecisionLimit);
                return true;
            }
        }
        // Cancel flag and deadline are polled every 64 decisions so neither
        // the atomic load nor `Instant::now` sits on the per-decision path.
        if self.stats.decisions.is_multiple_of(64) {
            if let Some(reason) = self.budget.exceeded() {
                self.stopped = Some(reason);
                return true;
            }
        }
        false
    }

    /// Returns `Some(true)` for SAT, `Some(false)` for UNSAT, `None` when the
    /// budget ran out.
    fn search(&mut self) -> Option<bool> {
        let assigned = match self.propagate() {
            PropResult::Conflict => return Some(false),
            PropResult::Fixpoint(a) => a,
        };
        // Pick the first unassigned variable (positive phase first).
        let branch_var = (0..self.cnf.num_vars()).find(|&v| self.assigns[v].is_none());
        let result = match branch_var {
            None => Some(true),
            Some(var) => {
                if self.out_of_budget() {
                    None
                } else {
                    let mut outcome = None;
                    for phase in [true, false] {
                        self.stats.decisions += 1;
                        self.assigns[var] = Some(phase);
                        match self.search() {
                            Some(true) => {
                                outcome = Some(Some(true));
                                break;
                            }
                            Some(false) => {
                                self.assigns[var] = None;
                            }
                            None => {
                                self.assigns[var] = None;
                                outcome = Some(None);
                                break;
                            }
                        }
                    }
                    match outcome {
                        Some(r) => r,
                        None => Some(false),
                    }
                }
            }
        };
        if result != Some(true) {
            for v in assigned {
                self.assigns[v] = None;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Var;
    use crate::solver::verify_model;

    fn lit(i: i64) -> Lit {
        Lit::from_dimacs(i)
    }

    fn cnf_of(clauses: &[&[i64]]) -> CnfFormula {
        let mut cnf = CnfFormula::new(0);
        for c in clauses {
            cnf.add_clause(&c.iter().map(|&i| lit(i)).collect::<Vec<_>>());
        }
        cnf
    }

    #[test]
    fn simple_sat() {
        let cnf = cnf_of(&[&[1, 2], &[-1, 2], &[1, -2]]);
        let mut solver = DpllSolver::new();
        match solver.solve(&cnf) {
            SatResult::Sat(model) => assert!(verify_model(&cnf, &model)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn simple_unsat() {
        let cnf = cnf_of(&[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2]]);
        let mut solver = DpllSolver::new();
        assert!(solver.solve(&cnf).is_unsat());
    }

    #[test]
    fn unit_propagation_chain() {
        let cnf = cnf_of(&[&[1], &[-1, 2], &[-2, 3], &[-3, 4]]);
        let mut solver = DpllSolver::new();
        match solver.solve(&cnf) {
            SatResult::Sat(model) => {
                for i in 0..4 {
                    assert!(model.value(Var::new(i)));
                }
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn respects_decision_budget() {
        // A formula with a deep search tree for naive branching.
        let mut cnf = CnfFormula::new(0);
        let n = 12;
        for i in 0..n {
            for j in (i + 1)..n {
                cnf.add_clause(&[
                    Lit::negative(Var::new(i as u32)),
                    Lit::negative(Var::new(j as u32)),
                ]);
            }
        }
        cnf.add_clause(
            &(0..n)
                .map(|i| Lit::positive(Var::new(i as u32)))
                .collect::<Vec<_>>(),
        );
        let mut solver = DpllSolver::new();
        let result = solver.solve_with_budget(
            &cnf,
            Budget {
                max_decisions: Some(2),
                ..Budget::default()
            },
        );
        // Either it solves it quickly or it stops at the budget — it must not loop forever.
        match result {
            SatResult::Sat(model) => assert!(verify_model(&cnf, &model)),
            SatResult::Unsat => panic!("the at-most-one + at-least-one formula is satisfiable"),
            SatResult::Unknown(_) => {}
        }
    }

    #[test]
    fn agrees_with_cdcl_on_small_instances() {
        use crate::cdcl::CdclSolver;
        let instances = [
            cnf_of(&[&[1, 2, 3], &[-1, -2], &[-1, -3], &[-2, -3], &[1]]),
            cnf_of(&[&[1, -2], &[2, -3], &[3, -1], &[1, 2, 3], &[-1, -2, -3]]),
            cnf_of(&[&[1], &[-1]]),
        ];
        for cnf in &instances {
            let d = DpllSolver::new().solve(cnf);
            let c = CdclSolver::chaff().solve(cnf);
            assert_eq!(d.is_sat(), c.is_sat());
            assert_eq!(d.is_unsat(), c.is_unsat());
        }
    }
}
