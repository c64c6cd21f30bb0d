//! Acceptance suite for certified verdicts at the verification level: every
//! verdict across the DLX/VLIW/OOO catalog must be certifiable end to end —
//! UNSAT answers replay through `velv_proof`'s independent checker (eager and
//! lazy transitivity, monolithic and per-obligation decomposition), SAT answers
//! survive counterexample validation against the encoded EUFM formula, and a
//! corrupted proof is rejected.

use velv::prelude::*;
use velv_sat::cdcl::CdclConfig;

fn certify_design(
    options: TranslationOptions,
    implementation: &dyn velv_hdl::Processor,
    spec: &dyn velv_hdl::Processor,
    label: &str,
    expect_buggy: bool,
) {
    let verifier = Verifier::new(options);
    let translation = verifier.translate(implementation, spec);
    let (outcome, _) = verifier
        .check_certified(
            &translation,
            CdclConfig::chaff(),
            &CertifyOptions::default(),
            Budget::unlimited(),
        )
        .unwrap_or_else(|e| panic!("{label}: certification failed: {e}"));
    assert_eq!(
        outcome.verdict.is_buggy(),
        expect_buggy,
        "{label}: {:?}",
        outcome.verdict
    );
    match (&outcome.certificate, expect_buggy) {
        (Certificate::Unsat(proof), false) => {
            assert!(proof.proof_steps > 0, "{label}: refutations carry steps");
            assert!(proof.checked_clauses > 0, "{label}");
        }
        (Certificate::Sat(model), true) => {
            assert!(model.primary_assignments > 0, "{label}");
        }
        (certificate, _) => panic!("{label}: unexpected certificate {certificate:?}"),
    }
}

#[test]
fn dlx_catalog_certifies_eager_and_lazy() {
    let config = DlxConfig::single_issue();
    let spec = DlxSpecification::new(config);
    for (mode, options) in [
        ("eager", TranslationOptions::default()),
        (
            "lazy",
            TranslationOptions::default().with_lazy_transitivity(),
        ),
    ] {
        certify_design(
            options.clone(),
            &Dlx::correct(config),
            &spec,
            &format!("dlx-correct-{mode}"),
            false,
        );
        for bug in dlx_bug_catalog(config) {
            certify_design(
                options.clone(),
                &Dlx::buggy(config, bug),
                &spec,
                &format!("dlx-{bug:?}-{mode}"),
                true,
            );
        }
    }
}

#[test]
fn vliw_catalog_certifies() {
    let config = VliwConfig::base();
    let spec = VliwSpecification::new(config);
    certify_design(
        TranslationOptions::default(),
        &Vliw::correct(config),
        &spec,
        "vliw-correct-eager",
        false,
    );
    certify_design(
        TranslationOptions::default().with_lazy_transitivity(),
        &Vliw::correct(config),
        &spec,
        "vliw-correct-lazy",
        false,
    );
    for bug in vliw_bug_catalog(config).into_iter().take(2) {
        certify_design(
            TranslationOptions::default(),
            &Vliw::buggy(config, bug),
            &spec,
            &format!("vliw-{bug:?}"),
            true,
        );
    }
}

#[test]
fn ooo_certifies_with_lazy_refinement_clauses_in_the_checked_cnf() {
    // The out-of-order cores are the transitivity-heavy workload: their lazy
    // proofs are only checkable because the refinement clauses asserted into
    // the live engine are captured as axioms of the check.
    for width in [2usize, 3] {
        let implementation = Ooo::new(width);
        let spec = OooSpecification::new();
        certify_design(
            TranslationOptions::default(),
            &implementation,
            &spec,
            &format!("ooo-{width}-eager"),
            false,
        );
        let verifier = Verifier::new(TranslationOptions::default().with_lazy_transitivity());
        let translation = verifier.translate(&implementation, &spec);
        let (outcome, stats) = verifier
            .check_certified(
                &translation,
                CdclConfig::chaff(),
                &CertifyOptions::default(),
                Budget::unlimited(),
            )
            .unwrap_or_else(|e| panic!("ooo-{width}-lazy: {e}"));
        assert!(
            outcome.verdict.is_correct(),
            "ooo-{width}: {:?}",
            outcome.verdict
        );
        assert!(stats.iterations >= 1);
        match outcome.certificate {
            Certificate::Unsat(proof) => {
                assert!(
                    proof.checked_clauses >= translation.cnf.num_clauses(),
                    "ooo-{width}: refinement clauses join the checked CNF \
                     ({} refinement clauses)",
                    proof.refinement_clauses
                );
            }
            other => panic!("ooo-{width}: expected a proof certificate, got {other:?}"),
        }
    }
}

#[test]
fn every_obligation_certifies_across_the_dlx_catalog() {
    let config = DlxConfig::single_issue();
    let spec = DlxSpecification::new(config);
    let mut designs: Vec<(String, Dlx, bool)> =
        vec![("correct".to_owned(), Dlx::correct(config), false)];
    for bug in dlx_bug_catalog(config).into_iter().take(4) {
        designs.push((format!("{bug:?}"), Dlx::buggy(config, bug), true));
    }
    for (mode, options) in [
        ("eager", TranslationOptions::default()),
        (
            "lazy",
            TranslationOptions::default().with_lazy_transitivity(),
        ),
    ] {
        let verifier = Verifier::new(options);
        for (name, implementation, expect_buggy) in &designs {
            let problem = verifier.build_problem(implementation, &spec);
            let obligations = verifier.translate_obligations(&problem, 8);
            let mut overall = Verdict::Correct;
            for obligation in &obligations {
                let (certified, _) = verifier
                    .check_certified(
                        obligation,
                        CdclConfig::chaff(),
                        &CertifyOptions::default(),
                        Budget::unlimited(),
                    )
                    .unwrap_or_else(|e| panic!("{name}-{mode}: {e}"));
                match (&certified.certificate, &certified.verdict) {
                    (Certificate::Unsat(_), Verdict::Correct) => {}
                    (Certificate::Sat(_), Verdict::Buggy(_)) => {}
                    (certificate, verdict) => panic!(
                        "{name}-{mode}/{}: verdict {verdict:?} with certificate {certificate:?}",
                        obligation.name
                    ),
                }
                overall.absorb_obligation(&certified.verdict);
            }
            assert_eq!(
                overall.is_buggy(),
                *expect_buggy,
                "{name}-{mode}: {overall:?}"
            );
        }
    }
}

#[test]
fn corrupting_the_recorded_proof_is_detected() {
    // The end-to-end mutation check at the verification level: a DLX
    // refutation's proof with one flipped learnt clause must be rejected by
    // the checker when replayed against the translation CNF.
    use velv_proof::{check_proof, CheckOptions, ProofStep};
    let config = DlxConfig::single_issue();
    let spec = DlxSpecification::new(config);
    let verifier = Verifier::new(TranslationOptions::default());
    let translation = verifier.translate(&Dlx::correct(config), &spec);
    let mut solver = velv_sat::cdcl::CdclSolver::chaff();
    let (result, proof) = solver.solve_recording_proof(&translation.cnf, Budget::unlimited());
    assert!(result.is_unsat());
    let clauses = velv_sat::dimacs::cnf_to_dimacs_i32(&translation.cnf);
    check_proof(&clauses, &proof, &CheckOptions::default()).expect("the honest refutation checks");
    // Flip one learnt clause: a flipped literal usually breaks the RUP
    // replay, but an individual flip can happen to stay derivable, so scan
    // the candidates until the corruption is caught.
    let candidates: Vec<usize> = proof
        .steps()
        .iter()
        .enumerate()
        .filter_map(|(i, s)| (s.is_addition() && s.lits().len() >= 2).then_some(i))
        .collect();
    assert!(!candidates.is_empty(), "a DLX refutation learns clauses");
    let flip_detected = candidates.iter().take(25).any(|&target| {
        let mut mutated = proof.clone();
        if let Some(ProofStep::Add(lits)) = mutated.step_mut(target) {
            lits[0] = -lits[0];
        }
        check_proof(&clauses, &mutated, &CheckOptions::default()).is_err()
    });
    assert!(
        flip_detected,
        "flipping learnt clauses must not replay silently"
    );
    // And the guaranteed-invalid corruption: a unit over a fresh variable is
    // never RUP, so the checker must reject at exactly that step.
    let mut foreign = proof.clone();
    let target = candidates[0];
    let fresh = translation.cnf.num_vars() as i32 + 7;
    if let Some(ProofStep::Add(lits)) = foreign.step_mut(target) {
        *lits = vec![fresh];
    }
    match check_proof(&clauses, &foreign, &CheckOptions::default()) {
        Err(velv_proof::CheckError::StepNotRup { step, .. }) => assert_eq!(step, target),
        other => panic!("expected StepNotRup at {target}, got {other:?}"),
    }
}
