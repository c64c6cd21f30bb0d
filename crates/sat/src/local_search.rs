//! Incomplete stochastic local-search solvers.
//!
//! These reproduce the class of GSAT/WalkSAT and of the discrete Lagrangian
//! multiplier solvers (DLM-2, DLM-3) from the paper's comparison: they can find
//! satisfying assignments of buggy-processor formulas but can never prove the
//! unsatisfiability of a correct-processor formula.

use crate::cnf::{CnfFormula, Lit};
use crate::rng::SmallRng;
use crate::solver::{Budget, Model, SatResult, Solver, SolverStats, StopReason};

/// WalkSAT with the standard noise heuristic.
#[derive(Debug)]
pub struct WalkSatSolver {
    /// Probability of a random walk move at each flip.
    pub noise: f64,
    /// Restart with a fresh random assignment after this many flips.
    pub flips_per_try: u64,
    /// RNG seed.
    pub seed: u64,
    stats: SolverStats,
}

impl Default for WalkSatSolver {
    fn default() -> Self {
        WalkSatSolver {
            noise: 0.5,
            flips_per_try: 200_000,
            seed: 0x5a17,
            stats: SolverStats::default(),
        }
    }
}

impl WalkSatSolver {
    /// Creates a WalkSAT solver with default parameters.
    pub fn new() -> Self {
        Self::default()
    }
}

/// DLM-style clause-weighting local search (discrete Lagrangian multipliers).
///
/// Unsatisfied clauses accumulate weight whenever the search reaches a local
/// minimum, which reshapes the objective and pushes the search out of the
/// minimum — the mechanism of DLM-2/DLM-3 (Shang & Wah).
#[derive(Debug)]
pub struct DlmSolver {
    /// Flips between weight increases at local minima.
    pub weight_increment: u64,
    /// Restart with a fresh random assignment after this many flips.
    pub flips_per_try: u64,
    /// RNG seed.
    pub seed: u64,
    stats: SolverStats,
}

impl Default for DlmSolver {
    fn default() -> Self {
        DlmSolver {
            weight_increment: 1,
            flips_per_try: 400_000,
            seed: 0xd13,
            stats: SolverStats::default(),
        }
    }
}

impl DlmSolver {
    /// Creates a DLM-style solver with default parameters.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Shared occurrence-list structure for local search.
struct OccurrenceLists {
    /// For each variable, the clauses it appears in.
    by_var: Vec<Vec<usize>>,
}

impl OccurrenceLists {
    fn build(cnf: &CnfFormula) -> Self {
        let mut by_var = vec![Vec::new(); cnf.num_vars()];
        for (ci, clause) in cnf.clauses().enumerate() {
            for lit in clause {
                by_var[lit.var().index()].push(ci);
            }
        }
        OccurrenceLists { by_var }
    }
}

fn random_assignment(rng: &mut SmallRng, num_vars: usize) -> Vec<bool> {
    (0..num_vars).map(|_| rng.gen_bool(0.5)).collect()
}

fn clause_satisfied(clause: &[Lit], assignment: &[bool]) -> bool {
    clause
        .iter()
        .any(|l| assignment[l.var().index()] == l.is_positive())
}

fn unsatisfied_clauses(cnf: &CnfFormula, assignment: &[bool]) -> Vec<usize> {
    cnf.clauses()
        .enumerate()
        .filter(|(_, c)| !clause_satisfied(c, assignment))
        .map(|(i, _)| i)
        .collect()
}

/// Number of clauses that would become unsatisfied by flipping `var`
/// (the "break count" of WalkSAT).
fn break_count(
    cnf: &CnfFormula,
    occ: &OccurrenceLists,
    assignment: &[bool],
    var: usize,
    weights: Option<&[u64]>,
) -> u64 {
    let mut count = 0;
    for &ci in &occ.by_var[var] {
        let clause = cnf.clause(ci);
        if !clause_satisfied(clause, assignment) {
            continue;
        }
        // The clause is satisfied: it breaks if `var` was its only satisfying literal.
        let satisfying: Vec<&Lit> = clause
            .iter()
            .filter(|l| assignment[l.var().index()] == l.is_positive())
            .collect();
        if satisfying.len() == 1 && satisfying[0].var().index() == var {
            count += weights.map_or(1, |w| w[ci]);
        }
    }
    count
}

impl Solver for WalkSatSolver {
    fn name(&self) -> &str {
        "walksat"
    }

    fn solve_with_budget(&mut self, cnf: &CnfFormula, budget: Budget) -> SatResult {
        self.stats = SolverStats::default();
        if cnf.clauses().any(|c| c.is_empty()) {
            return SatResult::Unsat;
        }
        if cnf.num_vars() == 0 {
            return SatResult::Sat(Model::new(Vec::new()));
        }
        let occ = OccurrenceLists::build(cnf);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let budget = budget.started();
        let max_flips = budget.max_decisions.unwrap_or(u64::MAX);
        loop {
            let mut assignment = random_assignment(&mut rng, cnf.num_vars());
            for _ in 0..self.flips_per_try {
                if self.stats.flips >= max_flips {
                    return SatResult::Unknown(StopReason::DecisionLimit);
                }
                // Amortised budget poll: one atomic load + optional
                // `Instant::now` every 256 flips, nothing per iteration.
                if self.stats.flips & 255 == 0 {
                    if let Some(reason) = budget.exceeded() {
                        return SatResult::Unknown(reason);
                    }
                }
                let unsat = unsatisfied_clauses(cnf, &assignment);
                if unsat.is_empty() {
                    return SatResult::Sat(Model::new(assignment));
                }
                let clause = cnf.clause(unsat[rng.gen_range(0..unsat.len())]);
                let flip_var = if rng.gen_f64() < self.noise {
                    clause[rng.gen_range(0..clause.len())].var().index()
                } else {
                    clause
                        .iter()
                        .map(|l| l.var().index())
                        .min_by_key(|&v| break_count(cnf, &occ, &assignment, v, None))
                        .expect("clauses are non-empty")
                };
                assignment[flip_var] = !assignment[flip_var];
                self.stats.flips += 1;
            }
            self.stats.restarts += 1;
        }
    }

    fn stats(&self) -> SolverStats {
        self.stats
    }
}

impl Solver for DlmSolver {
    fn name(&self) -> &str {
        "dlm"
    }

    fn solve_with_budget(&mut self, cnf: &CnfFormula, budget: Budget) -> SatResult {
        self.stats = SolverStats::default();
        if cnf.clauses().any(|c| c.is_empty()) {
            return SatResult::Unsat;
        }
        if cnf.num_vars() == 0 {
            return SatResult::Sat(Model::new(Vec::new()));
        }
        let occ = OccurrenceLists::build(cnf);
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let budget = budget.started();
        let max_flips = budget.max_decisions.unwrap_or(u64::MAX);
        loop {
            let mut assignment = random_assignment(&mut rng, cnf.num_vars());
            let mut weights: Vec<u64> = vec![1; cnf.num_clauses()];
            for _ in 0..self.flips_per_try {
                if self.stats.flips >= max_flips {
                    return SatResult::Unknown(StopReason::DecisionLimit);
                }
                // Amortised budget poll: one atomic load + optional
                // `Instant::now` every 256 flips, nothing per iteration.
                if self.stats.flips & 255 == 0 {
                    if let Some(reason) = budget.exceeded() {
                        return SatResult::Unknown(reason);
                    }
                }
                let unsat = unsatisfied_clauses(cnf, &assignment);
                if unsat.is_empty() {
                    return SatResult::Sat(Model::new(assignment));
                }
                // Greedy move: flip the variable of an unsatisfied clause with
                // the best weighted gain (weighted make − weighted break).
                let mut best: Option<(i64, usize)> = None;
                for &ci in unsat.iter().take(32) {
                    for lit in cnf.clause(ci) {
                        let v = lit.var().index();
                        let brk = break_count(cnf, &occ, &assignment, v, Some(&weights)) as i64;
                        let mut make = 0i64;
                        for &cj in &occ.by_var[v] {
                            let clause = cnf.clause(cj);
                            if !clause_satisfied(clause, &assignment) {
                                // Flipping v satisfies the clause iff v occurs with the
                                // polarity opposite to the current assignment.
                                let fixes = clause.iter().any(|l| {
                                    l.var().index() == v && assignment[v] != l.is_positive()
                                });
                                if fixes {
                                    make += weights[cj] as i64;
                                }
                            }
                        }
                        let gain = make - brk;
                        if best.is_none_or(|(g, _)| gain > g) {
                            best = Some((gain, v));
                        }
                    }
                }
                let (gain, var) = best.expect("unsatisfied clauses are non-empty");
                if gain <= 0 {
                    // Local minimum: increase the Lagrange multipliers (weights)
                    // of the unsatisfied clauses.
                    for &ci in &unsat {
                        weights[ci] += self.weight_increment;
                    }
                    // And take a noisy step so the search keeps moving.
                    let clause = cnf.clause(unsat[rng.gen_range(0..unsat.len())]);
                    let v = clause[rng.gen_range(0..clause.len())].var().index();
                    assignment[v] = !assignment[v];
                } else {
                    assignment[var] = !assignment[var];
                }
                self.stats.flips += 1;
            }
            self.stats.restarts += 1;
        }
    }

    fn stats(&self) -> SolverStats {
        self.stats
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
    fn walksat_finds_easy_model() {
        let cnf = cnf_of(&[&[1, 2], &[-1, 3], &[-2, -3], &[2, 3]]);
        let mut solver = WalkSatSolver::new();
        match solver.solve_with_budget(&cnf, Budget::step_limit(100_000)) {
            SatResult::Sat(model) => assert!(verify_model(&cnf, &model)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn dlm_finds_easy_model() {
        let cnf = cnf_of(&[&[1, 2, 3], &[-1, 2], &[-2, 3], &[-3, -1]]);
        let mut solver = DlmSolver::new();
        match solver.solve_with_budget(&cnf, Budget::step_limit(100_000)) {
            SatResult::Sat(model) => assert!(verify_model(&cnf, &model)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn local_search_cannot_prove_unsat() {
        let cnf = cnf_of(&[&[1], &[-1]]);
        let mut walksat = WalkSatSolver::new();
        let result = walksat.solve_with_budget(&cnf, Budget::step_limit(2_000));
        assert!(matches!(result, SatResult::Unknown(_)));
        let mut dlm = DlmSolver::new();
        let result = dlm.solve_with_budget(&cnf, Budget::step_limit(2_000));
        assert!(matches!(result, SatResult::Unknown(_)));
    }

    #[test]
    fn empty_clause_detected_syntactically() {
        let mut cnf = CnfFormula::new(1);
        cnf.add_clause(&[]);
        assert!(WalkSatSolver::new().solve(&cnf).is_unsat());
        assert!(DlmSolver::new().solve(&cnf).is_unsat());
    }

    #[test]
    fn solvers_on_larger_random_sat_instance() {
        use crate::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(3);
        let num_vars = 40;
        // Planted solution: all-true, every clause has at least one positive literal.
        let mut cnf = CnfFormula::new(num_vars);
        for _ in 0..120 {
            let mut clause = Vec::new();
            clause.push(Lit::positive(Var::new(rng.gen_range(0..num_vars) as u32)));
            for _ in 0..2 {
                let v = rng.gen_range(0..num_vars) as u32;
                clause.push(Lit::new(Var::new(v), rng.gen_bool(0.5)));
            }
            cnf.add_clause(&clause);
        }
        let mut walksat = WalkSatSolver::new();
        match walksat.solve_with_budget(&cnf, Budget::step_limit(500_000)) {
            SatResult::Sat(model) => assert!(verify_model(&cnf, &model)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }
}
