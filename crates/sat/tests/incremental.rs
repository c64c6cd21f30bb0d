//! Differential suite for the incremental solver: a persistent
//! [`IncrementalSolver`] that grows its formula between solves must agree
//! with a one-shot [`CdclSolver`] on the grown formula after every round, and
//! its models must satisfy every clause added so far.

use velv_sat::cdcl::CdclSolver;
use velv_sat::generators::random_3sat;
use velv_sat::incremental::IncrementalSolver;
use velv_sat::solver::verify_model;
use velv_sat::{Budget, SatResult, Solver};

#[test]
fn incremental_verdicts_match_one_shot_on_random_3sat() {
    let num_vars = 40;
    let (mut sat_rounds, mut unsat_rounds) = (0, 0);
    for seed in 1..=6u64 {
        // Start below the phase transition (ratio 3.0) and add eight clauses
        // per round, ending above it (ratio 4.6): the verdicts flip from SAT
        // to UNSAT somewhere along the way.
        let mut grown = random_3sat(num_vars, 120, seed);
        let mut solver = IncrementalSolver::chaff();
        solver.add_formula(&grown);
        for round in 0..8u64 {
            for clause in random_3sat(num_vars, 8, seed * 100 + round).clauses() {
                solver.add_clause(clause);
                grown.add_clause(clause.clone());
            }
            let expected = CdclSolver::chaff().solve(&grown);
            match solver.solve(Budget::unlimited()) {
                SatResult::Sat(model) => {
                    assert!(
                        expected.is_sat(),
                        "seed {seed} round {round}: one-shot says {expected:?}"
                    );
                    assert!(
                        verify_model(&grown, &model),
                        "seed {seed} round {round}: model misses an added clause"
                    );
                    sat_rounds += 1;
                }
                SatResult::Unsat => {
                    assert!(
                        expected.is_unsat(),
                        "seed {seed} round {round}: one-shot says {expected:?}"
                    );
                    assert!(solver.is_unsat(), "seed {seed} round {round}");
                    unsat_rounds += 1;
                }
                SatResult::Unknown(reason) => {
                    panic!("seed {seed} round {round}: gave up: {reason:?}")
                }
            }
        }
    }
    assert!(
        sat_rounds > 0 && unsat_rounds > 0,
        "the sweep must cover both verdicts: {sat_rounds} SAT, {unsat_rounds} UNSAT"
    );
}
