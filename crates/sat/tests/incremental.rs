//! Differential suite for [`Solver::solve_refining`]: clauses returned by
//! the model check must constrain every later round, the CDCL engine (one
//! live engine across rounds) and the default (re-solving a growing copy)
//! must agree with a one-shot [`CdclSolver`] on the grown formula after
//! every round, and every model must satisfy every clause added so far.

use velv_sat::cdcl::CdclSolver;
use velv_sat::generators::random_3sat;
use velv_sat::presets::SolverKind;
use velv_sat::solver::verify_model;
use velv_sat::{Budget, CnfFormula, Lit, SatResult, Solver};

#[test]
fn incremental_verdicts_match_one_shot_on_random_3sat() {
    let num_vars = 40;
    for kind in [SolverKind::Chaff, SolverKind::Dpll] {
        let (mut sat_rounds, mut unsat_runs) = (0, 0);
        for seed in 1..=6u64 {
            // Start below the phase transition (ratio 3.0) and add eight
            // clauses per round, ending above it (ratio 4.6): the verdicts
            // flip from SAT to UNSAT somewhere along the way.
            let base = random_3sat(num_vars, 120, seed);
            let mut grown = base.clone();
            let mut round = 0u64;
            let mut solver = kind.build();
            let result = solver.solve_refining(&base, Budget::unlimited(), &mut |model| {
                assert!(
                    verify_model(&grown, model),
                    "{kind:?} seed {seed} round {round}: model misses an added clause"
                );
                sat_rounds += 1;
                if round == 8 {
                    return Vec::new();
                }
                let batch = random_3sat(num_vars, 8, seed * 100 + round)
                    .clauses()
                    .map(<[Lit]>::to_vec)
                    .collect::<Vec<_>>();
                for clause in &batch {
                    grown.add_clause(clause);
                }
                round += 1;
                batch
            });
            let expected = CdclSolver::chaff().solve(&grown);
            match result {
                SatResult::Sat(_) => {
                    assert_eq!(
                        round, 8,
                        "{kind:?} seed {seed}: accepted the last round only"
                    );
                    assert!(
                        expected.is_sat(),
                        "{kind:?} seed {seed}: one-shot says {expected:?}"
                    );
                }
                SatResult::Unsat => {
                    assert!(
                        expected.is_unsat(),
                        "{kind:?} seed {seed} round {round}: one-shot says {expected:?}"
                    );
                    unsat_runs += 1;
                }
                SatResult::Unknown(reason) => panic!("{kind:?} seed {seed}: gave up: {reason:?}"),
            }
        }
        assert!(
            sat_rounds > 0 && unsat_runs > 0,
            "{kind:?}: the sweep must cover both verdicts: {sat_rounds} SAT rounds, {unsat_runs} UNSAT runs"
        );
    }
}

#[test]
fn a_round_refuted_at_the_root_takes_no_conflicts() {
    // (x1) ∧ (x1 ∨ x2): the model has x1 true at the root.  Refuting it with
    // (¬x1) empties the clause against the root assignment, so the next
    // round is UNSAT without a single conflict.
    let mut cnf = CnfFormula::new(2);
    cnf.add_clause(&[Lit::from_dimacs(1)]);
    cnf.add_clause(&[Lit::from_dimacs(1), Lit::from_dimacs(2)]);
    let mut solver = CdclSolver::chaff();
    let mut rounds = 0;
    let result = solver.solve_refining(&cnf, Budget::unlimited(), &mut |_| {
        rounds += 1;
        vec![vec![Lit::from_dimacs(-1)]]
    });
    assert!(result.is_unsat(), "{result:?}");
    assert_eq!(rounds, 1);
    assert_eq!(solver.stats().conflicts, 0);
}
