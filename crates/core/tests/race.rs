//! The back-end race (`race_backends`, reached through
//! `Verifier::check_portfolio`): its members feed the caller's solve
//! recorder, and a race that nobody decides says why.

use std::collections::BTreeSet;
use velv_core::{Backend, Translation, TranslationOptions, Verdict, Verifier};
use velv_models::dlx::{Dlx, DlxConfig, DlxSpecification};
use velv_sat::presets::SolverKind;
use velv_sat::Budget;

/// The correct single-issue DLX: small, and decided by every CDCL preset in
/// milliseconds.
fn dlx1_correct(verifier: &Verifier) -> Translation {
    let config = DlxConfig::single_issue();
    verifier.translate(&Dlx::correct(config), &DlxSpecification::new(config))
}

#[test]
fn race_members_feed_the_installed_recorder() {
    let verifier = Verifier::new(TranslationOptions::default());
    let translation = dlx1_correct(&verifier);
    let members = [
        Backend::Sat(SolverKind::Chaff),
        Backend::Sat(SolverKind::Grasp),
    ];
    let recorder = velv_obs::shared_recorder();
    {
        let _guard = velv_sat::install_solve_recorder(recorder.clone());
        let outcome = verifier.check_portfolio(&translation, &members, Budget::unlimited());
        assert!(outcome.verdict.is_correct(), "{:?}", outcome.verdict);
    }
    let rec = recorder.lock().unwrap();
    let labels: BTreeSet<&str> = rec
        .markers()
        .iter()
        .filter(|m| m.kind == "solve")
        .map(|m| m.detail.as_str())
        .collect();
    assert!(
        labels.contains("chaff") && labels.contains("grasp"),
        "both members must mark their solves, got {labels:?}"
    );
}

#[test]
fn undecided_race_reports_a_member_reason() {
    // Local search cannot prove the correct design, and a BDD of 8 nodes
    // cannot hold it: under a step limit nobody decides, and the race must
    // say which limit stopped a member rather than the losers' "cancelled".
    let verifier = Verifier::new(TranslationOptions::default());
    let translation = dlx1_correct(&verifier);
    let members = [
        Backend::Sat(SolverKind::WalkSat),
        Backend::Bdd { node_limit: 8 },
    ];
    let outcome = verifier.check_portfolio(&translation, &members, Budget::step_limit(1_000));
    assert_eq!(outcome.winner, None);
    let Verdict::Unknown(reason) = &outcome.verdict else {
        panic!("nobody can decide this race: {:?}", outcome.verdict);
    };
    assert_ne!(reason, "cancelled");
    assert!(
        outcome
            .runs
            .iter()
            .any(|run| matches!(&run.verdict, Verdict::Unknown(r) if r == reason)),
        "the race's reason {reason:?} must be a member's, runs: {:?}",
        outcome.runs
    );
}
