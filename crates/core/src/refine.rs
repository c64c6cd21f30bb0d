//! Lazy transitivity refinement (Bryant & Velev, "Boolean Satisfiability
//! with Transitivity Constraints").
//!
//! A lazily encoded translation ([`crate::TransitivityMode::Lazy`]) carries
//! *no* transitivity constraints: the CNF is a relaxation whose UNSAT answers
//! are final (fewer constraints ⇒ unsatisfiability still holds with them),
//! while SAT answers may be *spurious* — the model can set `e(x,y)` and
//! `e(y,z)` true but `e(x,z)` false, which no actual equality interpretation
//! allows.  The refinement loop closes the gap:
//!
//! 1. solve the relaxed CNF;
//! 2. on SAT, look at the *e*ij assignment as a graph (one vertex per g-term
//!    variable, the true edges connect them) and find every *e*ij variable
//!    assigned false whose endpoints are nevertheless connected by true
//!    edges;
//! 3. for each violation, assert the valid clause
//!    `¬e(p₁) ∨ … ∨ ¬e(pₖ) ∨ e(x,z)` along the connecting path and re-solve;
//! 4. a model with no violations extends to a genuine equality
//!    interpretation (give every connected component its own value) and is a
//!    real counterexample.
//!
//! The loop terminates: each added clause eliminates the current model, the
//! model space is finite, and every added clause is *valid* for equality, so
//! no real counterexample is ever excluded.
//!
//! This is exactly the workload the incremental solver is built for — the
//! constraint clauses land in a live engine that keeps all learned clauses —
//! but a monolithic fallback ([`check_with_refinement_monolithic`]) re-solves
//! a growing CNF with any [`Solver`], which is also the baseline the
//! `satbench` harness measures the incremental win against.

use crate::backend::sat_verdict;
use crate::flow::{Translation, Verdict};
use crate::stats::RefinementStats;
use std::collections::HashMap;
use velv_eufm::Symbol;
use velv_sat::cdcl::CdclConfig;
use velv_sat::{Budget, CnfFormula, IncrementalSolver, Lit, Model, SatResult, Solver, Var};

/// Detects transitivity violations of `model` over the *e*ij `pairs` and
/// returns one correcting clause per violated pair.
///
/// A pair `(x, y, v)` with `model[v] = false` is violated when `x` and `y`
/// are connected in the graph of true *e*ij edges; the clause disjoins the
/// negations of one connecting path with the violated variable.  Returns an
/// empty vector iff the *e*ij assignment is transitivity-consistent (and the
/// model therefore lifts to a genuine equality interpretation).
pub fn transitivity_violations(pairs: &[(Symbol, Symbol, Var)], model: &Model) -> Vec<Vec<Lit>> {
    // Index the vertices.
    let mut index: HashMap<Symbol, usize> = HashMap::new();
    for &(x, y, _) in pairs {
        let n = index.len();
        index.entry(x).or_insert(n);
        let n = index.len();
        index.entry(y).or_insert(n);
    }
    let num_vertices = index.len();
    // Adjacency over the true edges, remembering each edge's variable.
    let mut adjacency: Vec<Vec<(usize, Var)>> = vec![Vec::new(); num_vertices];
    let mut false_pairs: Vec<(usize, usize, Var)> = Vec::new();
    for &(x, y, v) in pairs {
        if v.index() >= model.len() {
            // The pair's variable never reached the CNF (its equation was
            // simplified away); it is unconstrained and cannot be violated.
            continue;
        }
        let (xi, yi) = (index[&x], index[&y]);
        if model.value(v) {
            adjacency[xi].push((yi, v));
            adjacency[yi].push((xi, v));
        } else {
            false_pairs.push((xi, yi, v));
        }
    }
    if false_pairs.is_empty() {
        return Vec::new();
    }
    // One BFS forest over the true edges: component id + parent edge per
    // vertex, so any two connected vertices have a path through their
    // component's root.
    let mut component = vec![usize::MAX; num_vertices];
    let mut parent: Vec<Option<(usize, Var)>> = vec![None; num_vertices];
    let mut queue = Vec::new();
    for root in 0..num_vertices {
        if component[root] != usize::MAX {
            continue;
        }
        component[root] = root;
        queue.clear();
        queue.push(root);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &(w, var) in &adjacency[u] {
                if component[w] == usize::MAX {
                    component[w] = root;
                    parent[w] = Some((u, var));
                    queue.push(w);
                }
            }
        }
    }
    let path_to_root = |mut u: usize, edges: &mut Vec<Var>| {
        while let Some((p, var)) = parent[u] {
            edges.push(var);
            u = p;
        }
    };
    let mut clauses = Vec::new();
    for (xi, yi, v) in false_pairs {
        if component[xi] != component[yi] {
            continue; // consistent: the endpoints are genuinely unequal
        }
        // Walk both endpoints to the shared root; the union of the two walks
        // is a set of true edges connecting x and y (edges past the meeting
        // point appear in both walks and are deduplicated).
        let mut edges = Vec::new();
        path_to_root(xi, &mut edges);
        path_to_root(yi, &mut edges);
        edges.sort_unstable();
        edges.dedup();
        let mut clause: Vec<Lit> = edges.into_iter().map(Lit::negative).collect();
        clause.push(Lit::positive(v));
        clauses.push(clause);
    }
    clauses
}

/// One back end inside the refinement loop: something that can re-solve the
/// current formula (reporting the steps the attempt consumed) and accept a
/// violated-transitivity clause for the next round.
pub(crate) trait RefineDriver {
    /// Solves the current formula under `budget`; returns the result and the
    /// conflicts/decisions *this attempt* consumed.
    fn solve(&mut self, budget: Budget) -> (SatResult, velv_sat::SolverStats);
    /// Permanently asserts a (valid) transitivity constraint clause.
    fn assert_clause(&mut self, clause: &[Lit]);
}

/// An [`IncrementalSolver`]: constraint clauses land in the live engine,
/// step usage is the delta of its cumulative statistics.  Every asserted
/// clause is also kept in `added`, in assertion order, so certification can
/// check proofs and models against exactly the clauses the solver saw.
pub(crate) struct IncrementalDriver<'a> {
    pub solver: &'a mut IncrementalSolver,
    pub added: Vec<Vec<Lit>>,
}

impl RefineDriver for IncrementalDriver<'_> {
    fn solve(&mut self, budget: Budget) -> (SatResult, velv_sat::SolverStats) {
        let before = self.solver.stats();
        let result = self.solver.solve(budget);
        let after = self.solver.stats();
        (
            result,
            velv_sat::SolverStats {
                conflicts: after.conflicts - before.conflicts,
                decisions: after.decisions - before.decisions,
                ..after
            },
        )
    }

    fn assert_clause(&mut self, clause: &[Lit]) {
        self.solver.add_clause(clause);
        self.added.push(clause.to_vec());
    }
}

/// Any [`Solver`] re-solving a growing copy of the CNF from scratch.
pub(crate) struct MonolithicDriver<'a> {
    pub solver: &'a mut dyn Solver,
    pub cnf: CnfFormula,
}

impl RefineDriver for MonolithicDriver<'_> {
    fn solve(&mut self, budget: Budget) -> (SatResult, velv_sat::SolverStats) {
        let result = self.solver.solve_with_budget(&self.cnf, budget);
        // `Solver::stats` reports the most recent call only.
        (result, self.solver.stats())
    }

    fn assert_clause(&mut self, clause: &[Lit]) {
        self.cnf.add_clause(clause.to_vec());
    }
}

/// The generic solve → detect-violations → assert → re-solve loop shared by
/// the incremental, monolithic and certified checks.
///
/// The caller's budget bounds the *whole loop*: the relative time limit is
/// resolved into one deadline up front, and the conflict/decision budgets are
/// charged with each iteration's consumption so a step-bounded check cannot
/// do unbounded total work across refinement rounds.  Returns the final
/// result: a validated `Sat` model, `Unsat`, or `Unknown`.
pub(crate) fn refinement_loop(
    eij_pairs: &[(Symbol, Symbol, Var)],
    lazy: bool,
    budget: &Budget,
    stats: &mut RefinementStats,
    driver: &mut dyn RefineDriver,
) -> SatResult {
    let rounds = velv_obs::global().counter(
        "velv_core_refine_rounds_total",
        "Solver calls made by the lazy-transitivity refinement loop.",
    );
    let constraints = velv_obs::global().counter(
        "velv_core_refine_constraints_total",
        "Transitivity constraints asserted by the refinement loop.",
    );
    let mut budget = budget.started();
    budget.max_time = None; // the deadline above now carries the time limit
    loop {
        stats.iterations += 1;
        rounds.inc();
        let round_span =
            velv_obs::span_fields("refine_round", &[("round", stats.iterations.into())]);
        let (result, used) = driver.solve(budget.clone());
        match result {
            SatResult::Sat(model) => {
                let clauses = if lazy {
                    transitivity_violations(eij_pairs, &model)
                } else {
                    Vec::new()
                };
                if clauses.is_empty() {
                    return SatResult::Sat(model);
                }
                stats.constraints_added += clauses.len();
                constraints.add(clauses.len() as u64);
                for clause in &clauses {
                    driver.assert_clause(clause);
                }
                drop(round_span);
            }
            other => return other,
        }
        // Charge this iteration's steps against the loop-wide budget.
        if let Some(max_conflicts) = &mut budget.max_conflicts {
            *max_conflicts = max_conflicts.saturating_sub(used.conflicts);
            if *max_conflicts == 0 {
                return SatResult::Unknown(velv_sat::StopReason::ConflictLimit);
            }
        }
        if let Some(max_decisions) = &mut budget.max_decisions {
            *max_decisions = max_decisions.saturating_sub(used.decisions);
            if *max_decisions == 0 {
                return SatResult::Unknown(velv_sat::StopReason::DecisionLimit);
            }
        }
    }
}

/// Checks a lazily encoded translation with an [`IncrementalSolver`]: solve,
/// assert the transitivity constraints violated by the model, re-solve, until
/// the verdict is stable.  The solver keeps its learned clauses across the
/// iterations (and may already contain the translation's CNF plus constraints
/// from earlier runs — constraint clauses are valid, so they can only help).
///
/// Works for eager translations too: the loop then exits after one solver
/// call and never checks the model for transitivity, which makes this the
/// uniform incremental check.  An eager SAT model can still be unliftable:
/// the sparse triangulation links large elimination neighbourhoods along a
/// path, which is not chordal, so [`transitivity_violations`] may reject the
/// model (it does on most SAT models of the 2×DLX and VLIW catalogs, and on
/// the correct OOO-4..6 cores).  [`crate::Verifier::check_certified`] refines
/// eager models until they lift; this eager check does not, which is why it
/// answers `Buggy` for the correct OOO-4..6 cores.
pub fn check_with_refinement(
    translation: &Translation,
    solver: &mut IncrementalSolver,
    budget: Budget,
) -> (Verdict, RefinementStats) {
    let mut stats = RefinementStats::default();
    let mut driver = IncrementalDriver {
        solver,
        added: Vec::new(),
    };
    let result = refinement_loop(
        &translation.eij_pairs,
        translation.lazy_transitivity,
        &budget,
        &mut stats,
        &mut driver,
    );
    (sat_verdict(translation, result), stats)
}

/// Convenience wrapper: builds a fresh [`IncrementalSolver`] with `config`,
/// loads the translation's CNF and runs [`check_with_refinement`].
pub fn check_incremental(
    translation: &Translation,
    config: CdclConfig,
    budget: Budget,
) -> (Verdict, RefinementStats) {
    let mut solver = IncrementalSolver::with_formula(config, &translation.cnf);
    check_with_refinement(translation, &mut solver, budget)
}

/// The monolithic fallback: the same refinement loop, but each iteration
/// re-solves a growing copy of the CNF from scratch with an arbitrary
/// [`Solver`].  This keeps lazily encoded translations sound for every
/// back end (including the portfolio), and serves as the baseline the
/// incremental path is benchmarked against.
pub fn check_with_refinement_monolithic(
    translation: &Translation,
    solver: &mut dyn Solver,
    budget: Budget,
) -> (Verdict, RefinementStats) {
    let mut stats = RefinementStats::default();
    let mut driver = MonolithicDriver {
        solver,
        cnf: translation.cnf.clone(),
    };
    let result = refinement_loop(
        &translation.eij_pairs,
        translation.lazy_transitivity,
        &budget,
        &mut stats,
        &mut driver,
    );
    (sat_verdict(translation, result), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(ctx: &mut velv_eufm::Context, name: &str) -> Symbol {
        ctx.symbol(name)
    }

    #[test]
    fn consistent_assignment_has_no_violations() {
        let mut ctx = velv_eufm::Context::new();
        let (x, y, z) = (sym(&mut ctx, "x"), sym(&mut ctx, "y"), sym(&mut ctx, "z"));
        let pairs = vec![
            (x, y, Var::new(0)),
            (y, z, Var::new(1)),
            (x, z, Var::new(2)),
        ];
        // All equal: fine.
        assert!(transitivity_violations(&pairs, &Model::new(vec![true, true, true])).is_empty());
        // x=y, z apart: fine.
        assert!(transitivity_violations(&pairs, &Model::new(vec![true, false, false])).is_empty());
        // All apart: fine.
        assert!(transitivity_violations(&pairs, &Model::new(vec![false, false, false])).is_empty());
    }

    #[test]
    fn violated_triangle_yields_the_transitivity_clause() {
        let mut ctx = velv_eufm::Context::new();
        let (x, y, z) = (sym(&mut ctx, "x"), sym(&mut ctx, "y"), sym(&mut ctx, "z"));
        let pairs = vec![
            (x, y, Var::new(0)),
            (y, z, Var::new(1)),
            (x, z, Var::new(2)),
        ];
        // x=y and y=z but x≠z: violated.
        let clauses = transitivity_violations(&pairs, &Model::new(vec![true, true, false]));
        assert_eq!(clauses.len(), 1);
        let mut clause = clauses[0].clone();
        clause.sort_unstable();
        let mut expected = vec![
            Lit::negative(Var::new(0)),
            Lit::negative(Var::new(1)),
            Lit::positive(Var::new(2)),
        ];
        expected.sort_unstable();
        assert_eq!(clause, expected);
    }

    #[test]
    fn violations_found_across_longer_paths() {
        // A chain x0=x1=...=x4 with e(x0,x4) false: the violation spans the
        // whole path, not just one triangle.
        let mut ctx = velv_eufm::Context::new();
        let syms: Vec<Symbol> = (0..5).map(|i| sym(&mut ctx, &format!("x{i}"))).collect();
        let mut pairs = Vec::new();
        for i in 0..4 {
            pairs.push((syms[i], syms[i + 1], Var::new(i as u32)));
        }
        pairs.push((syms[0], syms[4], Var::new(4)));
        let model = Model::new(vec![true, true, true, true, false]);
        let clauses = transitivity_violations(&pairs, &model);
        assert_eq!(clauses.len(), 1);
        let clause = &clauses[0];
        assert_eq!(clause.len(), 5, "four path edges plus the violated pair");
        assert!(clause.contains(&Lit::positive(Var::new(4))));
    }

    #[test]
    fn step_budget_bounds_the_whole_refinement_loop() {
        // A driver that keeps returning transitivity-violating models: the
        // loop must stop once the *cumulative* conflict budget is spent, not
        // re-grant it every iteration.
        struct Stubborn {
            pairs_model: Model,
            calls: usize,
        }
        impl RefineDriver for Stubborn {
            fn solve(&mut self, _budget: Budget) -> (SatResult, velv_sat::SolverStats) {
                self.calls += 1;
                (
                    SatResult::Sat(self.pairs_model.clone()),
                    velv_sat::SolverStats {
                        conflicts: 40,
                        decisions: 40,
                        ..Default::default()
                    },
                )
            }
            fn assert_clause(&mut self, _clause: &[Lit]) {}
        }
        let mut ctx = velv_eufm::Context::new();
        let (x, y, z) = (sym(&mut ctx, "x"), sym(&mut ctx, "y"), sym(&mut ctx, "z"));
        let pairs = vec![
            (x, y, Var::new(0)),
            (y, z, Var::new(1)),
            (x, z, Var::new(2)),
        ];
        let mut driver = Stubborn {
            // x=y, y=z, x≠z: always violated (the stub ignores the clauses).
            pairs_model: Model::new(vec![true, true, false]),
            calls: 0,
        };
        let mut stats = RefinementStats::default();
        let result = refinement_loop(
            &pairs,
            true,
            &Budget::step_limit(100),
            &mut stats,
            &mut driver,
        );
        assert!(
            matches!(result, SatResult::Unknown(_)),
            "the loop must give up: {result:?}"
        );
        assert!(
            driver.calls <= 3,
            "100 conflicts at 40 per call allow at most 3 calls, got {}",
            driver.calls
        );
    }

    #[test]
    fn pairs_without_cnf_variables_are_ignored() {
        let mut ctx = velv_eufm::Context::new();
        let (x, y) = (sym(&mut ctx, "x"), sym(&mut ctx, "y"));
        // Variable index beyond the model: the pair never reached the CNF.
        let pairs = vec![(x, y, Var::new(40))];
        assert!(transitivity_violations(&pairs, &Model::new(vec![true])).is_empty());
    }
}
