//! End-to-end certification suite for DRAT proof logging: refutations
//! recorded by the CDCL engine must replay through the independent checker in
//! `velv_proof`, across presets, incremental sessions and deletion-heavy
//! runs — and corrupted proofs must be rejected.

use velv_proof::{check_proof, CheckOptions, Proof, ProofStep};
use velv_sat::cdcl::CdclSolver;
use velv_sat::generators::{pigeonhole, random_3sat};
use velv_sat::incremental::IncrementalSolver;
use velv_sat::{Budget, Lit, Solver};

use velv_sat::dimacs::cnf_to_dimacs_i32 as dimacs_clauses;

fn lit(i: i64) -> Lit {
    Lit::from_dimacs(i)
}

#[test]
fn every_preset_refutation_of_pigeonhole_checks() {
    let cnf = pigeonhole(5);
    let clauses = dimacs_clauses(&cnf);
    for mut solver in [
        CdclSolver::chaff(),
        CdclSolver::berkmin(),
        CdclSolver::grasp(),
        CdclSolver::sato(), // exercises the oversize purge's deletions
    ] {
        let name = solver.name().to_owned();
        let (result, proof) = solver.solve_recording_proof(&cnf, Budget::unlimited());
        assert!(result.is_unsat(), "{name}");
        assert!(!proof.is_empty(), "{name}: refutations have steps");
        assert_eq!(
            proof.last().map(|s| s.lits().is_empty()),
            Some(true),
            "{name}: the terminal step is the empty clause"
        );
        let report = check_proof(&clauses, &proof, &CheckOptions::default())
            .unwrap_or_else(|e| panic!("{name}: proof rejected: {e}"));
        assert!(report.derived_empty, "{name}");
    }
}

#[test]
fn deletion_heavy_chaff_run_still_checks() {
    // PHP(8, 7) under chaff crosses the database-reduction threshold, so the
    // proof interleaves additions with real deletions.
    let cnf = pigeonhole(7);
    let (result, proof) = CdclSolver::chaff().solve_recording_proof(&cnf, Budget::unlimited());
    assert!(result.is_unsat());
    let deletions = proof
        .steps()
        .iter()
        .filter(|s| matches!(s, ProofStep::Delete(_)))
        .count();
    let report = check_proof(&dimacs_clauses(&cnf), &proof, &CheckOptions::default())
        .expect("deletion-heavy proof checks");
    assert!(report.derived_empty);
    assert_eq!(report.deletions, deletions);
}

#[test]
fn unsat_random_3sat_proofs_check_with_trimming() {
    let mut checked = 0;
    for seed in 1..=6u64 {
        let cnf = random_3sat(40, 180, seed); // ratio 4.5: usually UNSAT
        let (result, proof) = CdclSolver::chaff().solve_recording_proof(&cnf, Budget::unlimited());
        if !result.is_unsat() {
            continue;
        }
        let report = check_proof(&dimacs_clauses(&cnf), &proof, &CheckOptions { trim: true })
            .expect("seeded refutation checks");
        assert!(report.derived_empty, "seed {seed}");
        let core = report.input_core.expect("trim reports a core");
        assert!(!core.is_empty(), "seed {seed}");
        assert!(core.len() <= cnf.num_clauses(), "seed {seed}");
        assert!(
            report.trimmed_additions.unwrap() <= report.additions,
            "seed {seed}"
        );
        checked += 1;
    }
    assert!(
        checked >= 2,
        "expected several UNSAT instances, got {checked}"
    );
}

#[test]
fn incremental_session_proof_checks_against_all_added_clauses() {
    // A session with clause additions between solves: the proof accumulates
    // across solves and must check against the *union* of everything added.
    // PHP(6, 5) without pigeon 0's placement clause is satisfiable, so the
    // first solve searches and learns; adding the clause back makes the
    // second solve a refutation that may resolve on those learned clauses.
    let cnf = pigeonhole(5);
    let (placement, rest) = cnf.clauses().split_first().expect("PHP has clauses");
    let mut solver = IncrementalSolver::chaff();
    let proof = solver.enable_proof();
    for clause in rest {
        solver.add_clause(clause);
    }
    assert!(solver.solve(Budget::unlimited()).is_sat());
    let first_conflicts = solver.stats().conflicts;
    solver.add_clause(placement);
    assert!(solver.solve(Budget::unlimited()).is_unsat());
    assert!(
        solver.stats().conflicts > first_conflicts,
        "the re-solve searches"
    );
    let recorded = proof.snapshot();
    let report = check_proof(&dimacs_clauses(&cnf), &recorded, &CheckOptions::default())
        .expect("the session proof checks");
    assert!(report.derived_empty, "the final solve is a root refutation");

    // The same holds for small hand-written additions, one solve apart.
    let mut solver = IncrementalSolver::chaff();
    let proof = solver.enable_proof();
    solver.add_clause(&[lit(1), lit(2)]);
    solver.add_clause(&[lit(-1), lit(3)]);
    assert!(solver.solve(Budget::unlimited()).is_sat());
    solver.add_clause(&[lit(-3), lit(2)]);
    assert!(solver.solve(Budget::unlimited()).is_sat());
    solver.add_clause(&[lit(-2)]);
    solver.add_clause(&[lit(3)]);
    assert!(solver.solve(Budget::unlimited()).is_unsat());
    let axioms: Vec<Vec<i32>> = vec![vec![1, 2], vec![-1, 3], vec![-3, 2], vec![-2], vec![3]];
    let report = check_proof(&axioms, &proof.snapshot(), &CheckOptions::default())
        .expect("the session proof checks");
    assert!(report.derived_empty, "the final solve is a root refutation");
}

#[test]
fn corrupted_proofs_are_rejected() {
    let cnf = pigeonhole(4);
    let clauses = dimacs_clauses(&cnf);
    let (result, proof) = CdclSolver::chaff().solve_recording_proof(&cnf, Budget::unlimited());
    assert!(result.is_unsat());
    check_proof(&clauses, &proof, &CheckOptions::default()).expect("the honest proof checks");

    // Mutation 1: flip one literal of the first multi-literal learned clause.
    let mut flipped = proof.clone();
    let target = flipped
        .steps()
        .iter()
        .position(|s| s.is_addition() && s.lits().len() >= 2)
        .expect("a real refutation learns multi-literal clauses");
    if let Some(ProofStep::Add(lits)) = flipped.step_mut(target) {
        lits[0] = -lits[0];
    }
    assert!(
        check_proof(&clauses, &flipped, &CheckOptions::default()).is_err(),
        "flipping a learned clause's literal must break the replay"
    );

    // Mutation 2: replace a learned clause by a unit over a fresh variable —
    // never RUP, so the checker must reject at exactly that step.
    let mut foreign = proof.clone();
    let fresh = cnf.num_vars() as i32 + 10;
    if let Some(ProofStep::Add(lits)) = foreign.step_mut(target) {
        *lits = vec![fresh];
    }
    match check_proof(&clauses, &foreign, &CheckOptions::default()) {
        Err(velv_proof::CheckError::StepNotRup { step, .. }) => assert_eq!(step, target),
        other => panic!("expected StepNotRup at {target}, got {other:?}"),
    }

    // Mutation 3: claim the empty clause right away.
    let mut eager = Proof::new();
    eager.add(vec![]);
    assert!(check_proof(&clauses, &eager, &CheckOptions::default()).is_err());
}
