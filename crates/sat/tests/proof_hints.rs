//! Hinted replay: every learned clause the CDCL engine logs carries the
//! clauses its conflict analysis resolved on, and the checker in
//! `velv_proof` verifies it by propagating those alone.  Honest refutations
//! must need no fallback to full propagation; wrong hints must cost only
//! speed, never a verdict.

use velv_proof::{check_proof, CheckError, CheckOptions, ClauseId, Proof, ProofStep};
use velv_sat::cdcl::CdclSolver;
use velv_sat::dimacs::cnf_to_dimacs_i32;
use velv_sat::generators::pigeonhole;
use velv_sat::{Budget, CnfFormula, SharedProof, Solver};

fn presets() -> [CdclSolver; 4] {
    [
        CdclSolver::chaff(),
        CdclSolver::berkmin(),
        CdclSolver::grasp(),
        CdclSolver::sato(),
    ]
}

/// `proof` with every addition's hints replaced by `scramble(step, hints)`.
fn rehinted(proof: &Proof, scramble: impl Fn(usize, &[ClauseId]) -> Vec<ClauseId>) -> Proof {
    let mut out = Proof::new();
    for (index, step) in proof.steps().iter().enumerate() {
        match step {
            ProofStep::Add(lits) => {
                out.add_hinted(lits.clone(), &scramble(index, proof.hints(index)));
            }
            ProofStep::Delete(lits) => out.delete(lits.clone()),
        }
    }
    out
}

#[test]
fn every_preset_refutation_of_pigeonhole_replays_without_fallback() {
    let cnf = pigeonhole(6);
    let clauses = cnf_to_dimacs_i32(&cnf);
    for mut solver in presets() {
        let name = solver.name().to_owned();
        let (result, proof) = solver.solve_recording_proof(&cnf, Budget::unlimited());
        assert!(result.is_unsat(), "{name}");
        let report = check_proof(&clauses, &proof, &CheckOptions::default())
            .unwrap_or_else(|e| panic!("{name}: proof rejected: {e}"));
        assert!(report.derived_empty, "{name}");
        assert_eq!(report.hint_fallbacks, 0, "{name}: {report:?}");
        assert!(report.hinted_additions > 0, "{name}: {report:?}");
        assert!(
            report.additions - report.hinted_additions <= 2,
            "{name}: only the terminal steps may be trivial: {report:?}"
        );
    }
}

#[test]
fn an_incremental_session_replays_without_fallback() {
    // Clauses added between refinement rounds take the input ids after the
    // formula's, in the order they were added: the checker's input order.
    let cnf = pigeonhole(5);
    let mut rest = cnf.clauses();
    let placement = rest.next().expect("PHP has clauses").to_vec();
    let mut relaxed = CnfFormula::new(cnf.num_vars());
    for clause in rest {
        relaxed.add_clause(clause);
    }
    let proof = SharedProof::new();
    let result = CdclSolver::chaff().solve_refining_with_proof(
        &relaxed,
        Budget::unlimited(),
        &proof,
        &mut |_| vec![placement.clone()],
    );
    assert!(result.is_unsat());
    let mut inputs = cnf_to_dimacs_i32(&cnf);
    inputs.rotate_left(1);
    let report = check_proof(&inputs, &proof.snapshot(), &CheckOptions::default())
        .expect("the session proof checks");
    assert!(report.derived_empty);
    assert_eq!(report.hint_fallbacks, 0, "{report:?}");
}

#[test]
fn scrambled_hints_still_check_through_the_fallback() {
    let cnf = pigeonhole(5);
    let clauses = cnf_to_dimacs_i32(&cnf);
    let (result, proof) = CdclSolver::chaff().solve_recording_proof(&cnf, Budget::unlimited());
    assert!(result.is_unsat());
    let honest = check_proof(&clauses, &proof, &CheckOptions::default()).expect("honest proof");
    let n = clauses.len();
    let scrambles: [(&str, Proof); 3] = [
        ("stripped", rehinted(&proof, |_, _| Vec::new())),
        (
            "misdirected",
            rehinted(&proof, |step, hints| {
                (0..hints.len())
                    .map(|k| ClauseId::input((step * 7919 + k * 31) % n))
                    .collect()
            }),
        ),
        (
            "out of range",
            rehinted(&proof, |step, _| {
                vec![ClauseId::input(n + step), ClauseId::lemma(1 << 30)]
            }),
        ),
    ];
    for (label, scrambled) in scrambles {
        assert_eq!(scrambled, proof, "{label}: hints do not change the steps");
        let report = check_proof(&clauses, &scrambled, &CheckOptions::default())
            .unwrap_or_else(|e| panic!("{label}: rejected: {e}"));
        assert!(report.derived_empty, "{label}");
        assert_eq!(report.additions, honest.additions, "{label}");
        assert!(report.hint_fallbacks > 0, "{label}: {report:?}");
    }
}

#[test]
fn a_non_rup_lemma_with_plausible_hints_is_rejected_at_its_step() {
    let cnf = pigeonhole(4);
    let clauses = cnf_to_dimacs_i32(&cnf);
    let (result, proof) = CdclSolver::chaff().solve_recording_proof(&cnf, Budget::unlimited());
    assert!(result.is_unsat());
    let target = proof
        .steps()
        .iter()
        .position(|s| s.is_addition() && s.lits().len() >= 2)
        .expect("a real refutation learns multi-literal clauses");
    assert!(
        !proof.hints(target).is_empty(),
        "learned clauses carry hints"
    );
    // The honest lemma minus one literal, keeping the honest antecedents:
    // the hints still propagate, but may reach no conflict.  Whether the
    // shortened clause is RUP is for full propagation to decide, so the
    // checker must give the verdict of a hint-free replay, at the same step.
    let mut shortened = proof.clone();
    if let Some(ProofStep::Add(lits)) = shortened.step_mut(target) {
        lits.pop();
    }
    let unhinted = rehinted(&shortened, |_, _| Vec::new());
    let verdict = |p: &Proof| match check_proof(&clauses, p, &CheckOptions::default()) {
        Ok(report) => Ok(report.additions),
        Err(CheckError::StepNotRup { step, .. }) => Err(step),
        Err(other) => panic!("unexpected rejection {other:?}"),
    };
    assert_eq!(verdict(&shortened), verdict(&unhinted));
    // A unit over a fresh variable is never RUP, whatever it is hinted with.
    let mut foreign = proof.clone();
    let fresh = cnf.num_vars() as i32 + 10;
    if let Some(ProofStep::Add(lits)) = foreign.step_mut(target) {
        *lits = vec![fresh];
    }
    assert_eq!(foreign.hints(target), proof.hints(target));
    match check_proof(&clauses, &foreign, &CheckOptions::default()) {
        Err(CheckError::StepNotRup { step, .. }) => assert_eq!(step, target),
        other => panic!("expected StepNotRup at {target}, got {other:?}"),
    }
}
