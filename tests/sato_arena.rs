//! SATO's clause arena stays compact on the paper's workload.
//!
//! The SATO preset never runs clause-database reduction; its learned clauses
//! over the length bound are deleted by the oversize purge instead.  The
//! arena must be compacted after those deletions too, or it fills with dead
//! clauses.  The check reads the preset-labelled arena gauges of the global
//! registry, so this binary holds this one test only: no other SATO solve can
//! move the gauges in between.

use velv_core::{TranslationOptions, Verifier};
use velv_models::dlx::{Dlx, DlxConfig, DlxSpecification};
use velv_sat::cdcl::CdclSolver;
use velv_sat::{Budget, Solver};

#[test]
fn sato_arena_waste_stays_under_a_fifth() {
    let config = DlxConfig::single_issue();
    let spec = DlxSpecification::new(config);
    let translation =
        Verifier::new(TranslationOptions::default()).translate(&Dlx::correct(config), &spec);
    let mut solver = CdclSolver::sato();
    let _ = solver.solve_with_budget(&translation.cnf, Budget::step_limit(20_000));
    assert!(solver.stats().conflicts > 1000, "expected a real search");

    let labels: &[(&str, &str)] = &[("preset", "sato")];
    let snapshot = velv_obs::global().snapshot();
    let gauge = |name: &str| {
        snapshot
            .get(name, labels)
            .and_then(|metric| metric.value.as_u64())
            .unwrap_or_else(|| panic!("{name} is published"))
    };
    let wasted = gauge("velv_sat_arena_wasted_words");
    let len = gauge("velv_sat_arena_len_words");
    assert!(
        wasted * 5 < len,
        "{wasted} of {len} arena words are dead after {} conflicts",
        solver.stats().conflicts
    );
}
