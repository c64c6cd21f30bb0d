//! Differential property tests: all complete solvers must agree with a
//! brute-force truth-table check on small random formulas, every model
//! returned by any solver must actually satisfy the formula.
//!
//! The random instances are generated with the crate's own deterministic
//! [`SmallRng`] (seeded per test), so failures reproduce exactly.

use velv_sat::cdcl::CdclSolver;
use velv_sat::dpll::DpllSolver;
use velv_sat::local_search::{DlmSolver, WalkSatSolver};
use velv_sat::preprocess::preprocess;
use velv_sat::rng::SmallRng;
use velv_sat::solver::verify_model;
use velv_sat::{Budget, CnfFormula, Lit, SatResult, Solver, Var};

/// Brute force satisfiability over at most 16 variables.
fn brute_force_sat(cnf: &CnfFormula) -> bool {
    let n = cnf.num_vars();
    assert!(n <= 16, "brute force limited to 16 variables");
    for bits in 0u32..(1 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
        if cnf.is_satisfied_by(&assignment) {
            return true;
        }
    }
    // The empty assignment satisfies a formula with no clauses.
    n == 0 && cnf.num_clauses() == 0
}

/// A random CNF over `max_vars` variables with up to `max_clauses` clauses of
/// 1..=3 literals — the same distribution the original proptest strategy used.
fn random_cnf(rng: &mut SmallRng, max_vars: u32, max_clauses: usize) -> CnfFormula {
    let mut cnf = CnfFormula::new(max_vars as usize);
    let num_clauses = rng.gen_range(0..max_clauses + 1);
    for _ in 0..num_clauses {
        let len = rng.gen_range(1..4);
        let clause: Vec<Lit> = (0..len)
            .map(|_| {
                let v = rng.gen_range(0..max_vars as usize) as u32;
                Lit::new(Var::new(v), rng.gen_bool(0.5))
            })
            .collect();
        cnf.add_clause(&clause);
    }
    cnf
}

const CASES: usize = 96;

#[test]
fn cdcl_presets_agree_with_brute_force() {
    let mut rng = SmallRng::seed_from_u64(0xC4AFF);
    for case in 0..CASES {
        let cnf = random_cnf(&mut rng, 8, 24);
        let expected = brute_force_sat(&cnf);
        for mut solver in [
            CdclSolver::chaff(),
            CdclSolver::berkmin(),
            CdclSolver::grasp(),
            CdclSolver::sato(),
        ] {
            match solver.solve(&cnf) {
                SatResult::Sat(model) => {
                    assert!(
                        expected,
                        "case {case}: {} claimed SAT on an unsatisfiable formula",
                        solver.name()
                    );
                    assert!(verify_model(&cnf, &model), "case {case}");
                }
                SatResult::Unsat => assert!(
                    !expected,
                    "case {case}: {} claimed UNSAT on a satisfiable formula",
                    solver.name()
                ),
                SatResult::Unknown(reason) => panic!("case {case}: unexpected stop: {reason:?}"),
            }
        }
    }
}

#[test]
fn dpll_agrees_with_brute_force() {
    let mut rng = SmallRng::seed_from_u64(0xD9_11);
    for case in 0..CASES {
        let cnf = random_cnf(&mut rng, 8, 20);
        let expected = brute_force_sat(&cnf);
        match DpllSolver::new().solve(&cnf) {
            SatResult::Sat(model) => {
                assert!(expected, "case {case}");
                assert!(verify_model(&cnf, &model), "case {case}");
            }
            SatResult::Unsat => assert!(!expected, "case {case}"),
            SatResult::Unknown(reason) => panic!("case {case}: unexpected stop: {reason:?}"),
        }
    }
}

#[test]
fn local_search_models_are_valid() {
    let mut rng = SmallRng::seed_from_u64(0x10_CA1);
    for case in 0..CASES {
        let cnf = random_cnf(&mut rng, 8, 16);
        let budget = Budget::step_limit(50_000);
        for result in [
            WalkSatSolver::new().solve_with_budget(&cnf, budget.clone()),
            DlmSolver::new().solve_with_budget(&cnf, budget),
        ] {
            if let SatResult::Sat(model) = result {
                assert!(verify_model(&cnf, &model), "case {case}");
                assert!(brute_force_sat(&cnf), "case {case}");
            }
        }
    }
}

#[test]
fn preprocessing_preserves_satisfiability() {
    let mut rng = SmallRng::seed_from_u64(0x9E9);
    for case in 0..CASES {
        let cnf = random_cnf(&mut rng, 8, 20);
        let expected = brute_force_sat(&cnf);
        let pre = preprocess(&cnf, true);
        let simplified = if pre.stats.proved_unsat {
            false
        } else {
            CdclSolver::chaff().solve(&pre.cnf).is_sat()
        };
        assert_eq!(expected, simplified, "case {case}");
    }
}

#[test]
fn dimacs_roundtrip_preserves_clauses() {
    let mut rng = SmallRng::seed_from_u64(0xD1_AC5);
    for case in 0..CASES {
        let cnf = random_cnf(&mut rng, 10, 24);
        let text = velv_sat::dimacs::to_dimacs_string(&cnf);
        let parsed = velv_sat::dimacs::parse_dimacs(&text).unwrap();
        assert_eq!(parsed, cnf, "case {case}");
    }
}
