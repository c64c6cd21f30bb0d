//! Differential suite for the rearchitected CDCL engine.
//!
//! The engine rewrite (flat clause arena, blocker watches, indexed VSIDS
//! heap, allocation-free analysis) must be behavior-compatible with the
//! previous engine: same verdicts from all four presets, models that verify,
//! and prompt cooperative cancellation from the new propagation loop.
//! Instances are larger than the brute-force property tests — seeded random
//! 3-SAT near the phase transition, the pigeonhole family — with the plain
//! DPLL solver (an independent implementation) as the reference verdict.

use std::time::{Duration, Instant};
use velv_sat::cdcl::CdclSolver;
use velv_sat::dpll::DpllSolver;
use velv_sat::generators::{pigeonhole, random_3sat};
use velv_sat::solver::verify_model;
use velv_sat::{Budget, CancelToken, CnfFormula, Lit, SatResult, Solver, StopReason, Var};

fn presets() -> Vec<CdclSolver> {
    vec![
        CdclSolver::chaff(),
        CdclSolver::berkmin(),
        CdclSolver::grasp(),
        CdclSolver::sato(),
    ]
}

/// Solves with every preset and checks they agree with the expected verdict;
/// SAT models must satisfy the formula.
fn assert_all_presets(cnf: &CnfFormula, expected_sat: bool, label: &str) {
    for mut solver in presets() {
        match solver.solve(cnf) {
            SatResult::Sat(model) => {
                assert!(
                    expected_sat,
                    "{label}: {} found SAT, expected UNSAT",
                    solver.name()
                );
                assert!(
                    verify_model(cnf, &model),
                    "{label}: {} returned a bogus model",
                    solver.name()
                );
            }
            SatResult::Unsat => {
                assert!(
                    !expected_sat,
                    "{label}: {} found UNSAT, expected SAT",
                    solver.name()
                );
            }
            SatResult::Unknown(reason) => {
                panic!("{label}: {} gave up: {reason:?}", solver.name());
            }
        }
    }
}

#[test]
fn presets_agree_with_dpll_on_phase_transition_3sat() {
    // 60 variables at ratios straddling the phase transition: large enough
    // that the arena, watch lists and heap all do real work, small enough
    // that DPLL (the independent reference implementation) still finishes.
    for seed in 1..=8u64 {
        let num_vars = 60;
        let ratio = if seed % 2 == 0 { 4.0 } else { 4.6 };
        let num_clauses = (num_vars as f64 * ratio) as usize;
        let cnf = random_3sat(num_vars, num_clauses, seed);
        let reference = DpllSolver::new().solve(&cnf);
        let expected_sat = match reference {
            SatResult::Sat(ref model) => {
                assert!(verify_model(&cnf, model), "DPLL reference model invalid");
                true
            }
            SatResult::Unsat => false,
            SatResult::Unknown(reason) => panic!("DPLL reference gave up: {reason:?}"),
        };
        assert_all_presets(&cnf, expected_sat, &format!("r3sat seed {seed}"));
    }
}

#[test]
fn presets_agree_on_the_pigeonhole_family() {
    for holes in 3..=5 {
        assert_all_presets(
            &pigeonhole(holes),
            false,
            &format!("php({}, {holes})", holes + 1),
        );
    }
}

#[test]
fn presets_agree_on_satisfiable_structured_instances() {
    // Chained implications with a sprinkle of redundant clauses: SAT with a
    // forced model, so every preset must find and verify it.
    let n = 200;
    let mut cnf = CnfFormula::new(n);
    cnf.add_clause(&[Lit::positive(Var::new(0))]);
    for i in 0..n - 1 {
        cnf.add_clause(&[
            Lit::negative(Var::new(i as u32)),
            Lit::positive(Var::new((i + 1) as u32)),
        ]);
        if i % 7 == 0 {
            cnf.add_clause(&[
                Lit::positive(Var::new(i as u32)),
                Lit::positive(Var::new((i + 1) as u32)),
            ]);
        }
    }
    assert_all_presets(&cnf, true, "implication chain");
}

#[test]
fn cancellation_is_prompt_in_the_new_propagation_loop() {
    // A hard instance no preset finishes quickly; the solver must observe the
    // cancel token from its hot loop and return well before the instance is
    // actually decided.
    let cnf = pigeonhole(9);
    let token = CancelToken::new();
    let budget = Budget::unlimited().with_cancel(token.clone());
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        token.cancel();
    });
    let start = Instant::now();
    let result = CdclSolver::chaff().solve_with_budget(&cnf, budget);
    let elapsed = start.elapsed();
    handle.join().unwrap();
    assert_eq!(result, SatResult::Unknown(StopReason::Cancelled));
    assert!(
        elapsed < Duration::from_secs(5),
        "cancellation was not prompt: {elapsed:?}"
    );
}
