//! End-to-end integration tests: every benchmark design is translated and
//! checked with the SAT back end — correct versions must verify, buggy
//! versions must produce counterexamples, and the key optimisation claims of
//! the paper (positive equality, eij vs small-domain) must hold structurally.

use velv::prelude::*;
use velv_sat::cdcl::CdclConfig;

#[test]
fn dlx1_correct_design_verifies() {
    let verifier = Verifier::new(TranslationOptions::default());
    let implementation = Dlx::correct(DlxConfig::single_issue());
    let spec = DlxSpecification::new(DlxConfig::single_issue());
    let mut solver = CdclSolver::chaff();
    let verdict = verifier.verify(&implementation, &spec, &mut solver);
    assert!(verdict.is_correct(), "1xDLX-C must verify: {verdict:?}");
}

#[test]
fn dlx1_buggy_designs_are_detected() {
    let config = DlxConfig::single_issue();
    let verifier = Verifier::new(TranslationOptions::default());
    let spec = DlxSpecification::new(config);
    for bug in velv_models::dlx::bug_catalog(config).into_iter().take(6) {
        let implementation = Dlx::buggy(config, bug);
        let mut solver = CdclSolver::chaff();
        let verdict = verifier.verify(&implementation, &spec, &mut solver);
        assert!(
            verdict.is_buggy(),
            "bug {bug:?} must be detected, got {verdict:?}"
        );
    }
}

#[test]
fn dlx2_full_correct_design_verifies() {
    let config = DlxConfig::dual_issue_full();
    let verifier = Verifier::new(TranslationOptions::default());
    let implementation = Dlx::correct(config);
    let spec = DlxSpecification::new(config);
    let mut solver = CdclSolver::chaff();
    let verdict = verifier.verify(&implementation, &spec, &mut solver);
    assert!(
        verdict.is_correct(),
        "2xDLX-CC-MC-EX-BP must verify: {verdict:?}"
    );
}

#[test]
fn dlx2_full_buggy_designs_are_detected() {
    let config = DlxConfig::dual_issue_full();
    let verifier = Verifier::new(TranslationOptions::default());
    let spec = DlxSpecification::new(config);
    for bug in velv_models::dlx::bug_catalog(config).into_iter().take(4) {
        let implementation = Dlx::buggy(config, bug);
        let mut solver = CdclSolver::chaff();
        let verdict = verifier.verify(&implementation, &spec, &mut solver);
        assert!(
            verdict.is_buggy(),
            "bug {bug:?} must be detected, got {verdict:?}"
        );
    }
}

#[test]
fn vliw_correct_design_verifies() {
    let config = VliwConfig::base();
    let verifier = Verifier::new(TranslationOptions::default());
    let implementation = Vliw::correct(config);
    let spec = VliwSpecification::new(config);
    let mut solver = CdclSolver::chaff();
    let verdict = verifier.verify(&implementation, &spec, &mut solver);
    assert!(verdict.is_correct(), "9VLIW-MC-BP must verify: {verdict:?}");
}

#[test]
fn vliw_buggy_designs_are_detected() {
    let config = VliwConfig::base();
    let verifier = Verifier::new(TranslationOptions::default());
    let spec = VliwSpecification::new(config);
    for bug in velv_models::vliw::bug_catalog(config).into_iter().take(4) {
        let implementation = Vliw::buggy(config, bug);
        let mut solver = CdclSolver::chaff();
        let verdict = verifier.verify(&implementation, &spec, &mut solver);
        assert!(
            verdict.is_buggy(),
            "bug {bug:?} must be detected, got {verdict:?}"
        );
    }
}

#[test]
fn ooo_requires_and_gets_transitivity() {
    // The out-of-order designs are correct only because equality is
    // transitive.  Their eij encodings link large elimination neighbourhoods
    // along a path, so from OOO-4 on the solver finds models that violate
    // transitivity; every path must lift or refine them and answer
    // `Correct` (the small-domain encoding enforces transitivity by
    // construction).
    let service = ServeHandle::start(ServiceConfig::default().with_workers(2));
    for width in 2..=8 {
        let implementation = Ooo::new(width);
        let spec = OooSpecification::new();
        let eij = Verifier::new(TranslationOptions::default());
        let translation = eij.translate(&implementation, &spec);
        for mut solver in [
            CdclSolver::chaff(),
            CdclSolver::berkmin(),
            CdclSolver::grasp(),
            CdclSolver::sato(),
        ] {
            let verdict = eij.check(&translation, &mut solver, Budget::unlimited());
            assert!(
                verdict.is_correct(),
                "OOO-{width} {}: {verdict:?}",
                solver.name()
            );
        }
        let small_domain = Verifier::new(TranslationOptions::default().with_small_domain());
        let verdict = small_domain.verify(&implementation, &spec, &mut CdclSolver::chaff());
        assert!(
            verdict.is_correct(),
            "OOO-{width} small-domain: {verdict:?}"
        );

        let portfolio = eij.check_with_backend(
            &translation,
            &Backend::default_portfolio(),
            Budget::unlimited(),
        );
        assert!(
            portfolio.is_correct(),
            "OOO-{width} portfolio: {portfolio:?}"
        );
        let bdd = eij.check_with_backend(
            &translation,
            &Backend::Bdd {
                node_limit: 1 << 20,
            },
            Budget::unlimited(),
        );
        assert!(!bdd.is_buggy(), "OOO-{width} bdd: {bdd:?}");

        let (certified, _) = eij
            .check_certified(
                &translation,
                CdclConfig::chaff(),
                &CertifyOptions::default(),
                Budget::unlimited(),
            )
            .unwrap_or_else(|e| panic!("OOO-{width}: {e}"));
        assert!(
            certified.verdict.is_correct(),
            "OOO-{width} certified: {:?}",
            certified.verdict
        );

        if width >= 4 {
            let job = service
                .submit(JobSpec::new(ModelRef::Ooo { width }))
                .expect("accepted")
                .wait();
            assert!(
                job.verdict.is_correct(),
                "ooo:{width} job: {:?}",
                job.verdict
            );
        }
    }
    service.shutdown();
}

#[test]
fn every_buggy_verdict_carries_a_lifted_counterexample() {
    // Over the distinct problems of the dlx1, dlx2 and vliw catalogs, a
    // `Buggy` verdict's counterexample must be a real one: its eij values
    // are transitivity-consistent, and it falsifies the encoded correctness
    // formula under true side constraints.
    let options = TranslationOptions::default();
    let verifier = Verifier::new(options.clone());
    let mut seen = std::collections::HashSet::new();
    let mut buggy = 0;
    let mut check = |name: String, problem: velv_core::VerificationProblem| {
        if !seen.insert(velv_core::problem_fingerprint(&problem, &options)) {
            return;
        }
        let translation = verifier.translate_problem(&problem);
        let verdict = verifier.check(&translation, &mut CdclSolver::chaff(), Budget::unlimited());
        let Some(cex) = verdict.counterexample() else {
            return;
        };
        buggy += 1;
        let mut values = vec![false; translation.cnf.num_vars()];
        for (&sym, &var) in &translation.primary_vars {
            values[var.index()] = cex
                .value(translation.ctx.symbol_name(sym))
                .unwrap_or_else(|| panic!("{name}: the counterexample assigns every primary"));
        }
        let model = velv_sat::Model::new(values);
        assert!(
            velv_core::refine::transitivity_violations(&translation.eij_pairs, &model).is_empty(),
            "{name}: the counterexample violates transitivity"
        );
        // The evaluator recurses over the encoded formula, deeper than a
        // test thread's stack allows on the wide designs.
        let (side, encoded) = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(256 << 20)
                .spawn_scoped(scope, || {
                    let mut ctx = translation.ctx.clone();
                    let interp = cex.to_interpretation(&mut ctx);
                    (
                        velv_eufm::evaluate(&ctx, &interp, translation.side_constraints),
                        velv_eufm::evaluate(&ctx, &interp, translation.encoded),
                    )
                })
                .expect("spawning the evaluation thread succeeds")
                .join()
                .expect("evaluation does not panic")
        });
        assert!(
            side,
            "{name}: the side constraints are false under the counterexample"
        );
        assert!(
            !encoded,
            "{name}: the encoded formula holds under the counterexample"
        );
    };
    for config in [DlxConfig::single_issue(), DlxConfig::dual_issue()] {
        let spec = DlxSpecification::new(config);
        for bug in dlx_bug_catalog(config) {
            let problem = verifier.build_problem(&Dlx::buggy(config, bug), &spec);
            check(format!("{} {bug:?}", config.name()), problem);
        }
    }
    let config = VliwConfig::base();
    let spec = VliwSpecification::new(config);
    for bug in vliw_bug_catalog(config) {
        let problem = verifier.build_problem(&Vliw::buggy(config, bug), &spec);
        check(format!("vliw {bug:?}"), problem);
    }
    assert!(
        buggy >= 70,
        "the catalogs hold many distinct bugs, got {buggy}"
    );
}

#[test]
fn dlx1_verifies_with_berkmin_and_decomposition() {
    let config = DlxConfig::single_issue();
    let verifier = Verifier::new(TranslationOptions::default());
    let implementation = Dlx::correct(config);
    let spec = DlxSpecification::new(config);
    let mut solver = CdclSolver::berkmin();
    assert!(verifier
        .verify(&implementation, &spec, &mut solver)
        .is_correct());
    let (overall, obligations) = verifier.verify_decomposed(
        &implementation,
        &spec,
        8,
        || Box::new(CdclSolver::chaff()),
        Budget::unlimited(),
    );
    assert!(overall.is_correct(), "decomposed verification: {overall:?}");
    assert!(!obligations.is_empty());
}

#[test]
fn portfolio_matches_sequential_backend_on_the_full_dlx_bug_catalog() {
    // The acceptance bar for the racing back end: on every entry of the DLX
    // bug catalog (and on the correct design), the portfolio — CDCL presets
    // racing the BDD build — must reach exactly the verdict the sequential
    // SAT back end reaches, and must name a winner.
    let config = DlxConfig::single_issue();
    let verifier = Verifier::new(TranslationOptions::default());
    let spec = DlxSpecification::new(config);
    let members = [
        Backend::Sat(SolverKind::Chaff),
        Backend::Sat(SolverKind::BerkMin),
        Backend::Bdd {
            node_limit: 400_000,
        },
    ];

    let mut designs: Vec<(String, Dlx)> = vec![("correct".to_owned(), Dlx::correct(config))];
    for bug in velv_models::dlx::bug_catalog(config) {
        designs.push((format!("{bug:?}"), Dlx::buggy(config, bug)));
    }

    for (name, implementation) in &designs {
        // Translate once so the race and the sequential check see the same CNF.
        let translation = verifier.translate(implementation, &spec);
        let mut sequential = CdclSolver::chaff();
        let expected = verifier.check(&translation, &mut sequential, Budget::unlimited());
        let outcome = verifier.check_portfolio(&translation, &members, Budget::unlimited());
        assert_eq!(
            expected.is_correct(),
            outcome.verdict.is_correct(),
            "{name}: sequential {expected:?} vs portfolio {:?}",
            outcome.verdict
        );
        assert_eq!(
            expected.is_buggy(),
            outcome.verdict.is_buggy(),
            "{name}: sequential {expected:?} vs portfolio {:?}",
            outcome.verdict
        );
        let winner = outcome
            .winner
            .as_deref()
            .unwrap_or_else(|| panic!("{name}: a complete engine must decide the obligation"));
        assert!(
            outcome.runs.iter().any(|r| r.winner && r.name == winner),
            "{name}: winner {winner} must appear in the runs"
        );
    }
}

#[test]
fn verify_with_backend_covers_all_backend_shapes() {
    // On 1xDLX-C the SAT back end proves correctness, the stand-alone BDD
    // back end memory-outs under its node limit (the paper's Table-1 result
    // for the decision diagrams), and the portfolio still wins because a
    // CDCL member decides while the BDD build is cancelled or limited.
    let config = DlxConfig::single_issue();
    let verifier = Verifier::new(TranslationOptions::default());
    let spec = DlxSpecification::new(config);
    let implementation = Dlx::correct(config);
    let translation = verifier.translate(&implementation, &spec);

    let sat = verifier.check_with_backend(
        &translation,
        &Backend::Sat(SolverKind::Chaff),
        Budget::unlimited(),
    );
    assert!(sat.is_correct(), "{sat:?}");

    let bdd = verifier.check_with_backend(
        &translation,
        &Backend::Bdd {
            node_limit: 200_000,
        },
        Budget::unlimited(),
    );
    assert!(
        matches!(bdd, Verdict::Unknown(_)),
        "the depth-first-ordered BDD must exceed 200k nodes on DLX1: {bdd:?}"
    );

    let portfolio = verifier.check_with_backend(
        &translation,
        &Backend::default_portfolio(),
        Budget::unlimited(),
    );
    assert!(portfolio.is_correct(), "{portfolio:?}");
}
