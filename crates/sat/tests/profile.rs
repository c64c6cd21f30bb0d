//! Solve-profiler integration: the per-conflict decision-level histogram
//! must track conflicts (not heartbeats), and an installed solve recorder
//! must receive a usable time-series from plain, incremental and portfolio
//! solves — including budget-aborted runs that never reach a heartbeat.

use velv_sat::cdcl::CdclSolver;
use velv_sat::{Budget, CnfFormula, Lit, Solver};

fn lit(i: i64) -> Lit {
    Lit::from_dimacs(i)
}

/// Pigeonhole PHP(n+1, n): small, UNSAT, and conflict-rich.
fn pigeonhole(holes: i64) -> CnfFormula {
    let pigeons = holes + 1;
    let mut cnf = CnfFormula::new(0);
    let var = |p: i64, h: i64| lit(1 + (p * holes + h));
    for p in 0..pigeons {
        cnf.add_clause((0..holes).map(|h| var(p, h)).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                cnf.add_clause(vec![!var(p1, h), !var(p2, h)]);
            }
        }
    }
    cnf
}

fn histogram_count(snapshot: &velv_obs::Snapshot, preset: &str) -> u64 {
    snapshot
        .get("velv_sat_decision_level", &[("preset", preset)])
        .map(|s| match &s.value {
            velv_obs::MetricValue::Histogram(h) => h.count,
            _ => 0,
        })
        .unwrap_or(0)
}

#[test]
fn decision_level_histogram_counts_conflicts_not_heartbeats() {
    // A unique preset label isolates this test's series on the shared
    // process-global registry.
    let preset = "chaff-levels-test";
    let before = histogram_count(&velv_obs::global().snapshot(), preset);
    let mut solver = CdclSolver::chaff_with(|c| c.name = preset.to_string());
    assert!(solver.solve(&pigeonhole(6)).is_unsat());
    let conflicts = solver.stats().conflicts;
    assert!(
        conflicts > 100,
        "pigeonhole should force real conflicts, got {conflicts}"
    );
    let observed = histogram_count(&velv_obs::global().snapshot(), preset) - before;
    // Every conflict lands in the histogram — the old heartbeat-sampled
    // version would have observed conflicts/1024 values here.
    assert_eq!(
        observed, conflicts,
        "histogram count must equal the conflict count"
    );
}

#[test]
fn recorder_captures_series_and_final_sample_on_abort() {
    let preset = "chaff-recorder-test";
    let recorder = velv_obs::shared_recorder();
    {
        let _guard = velv_sat::install_solve_recorder(recorder.clone());
        let mut solver = CdclSolver::chaff_with(|c| c.name = preset.to_string());
        // A conflict budget below the heartbeat interval: the run aborts
        // before any heartbeat, so the series must be closed by the
        // end-of-solve sample alone.
        let budget = Budget {
            max_conflicts: Some(50),
            ..Budget::default()
        };
        let result = solver.solve_with_budget(&pigeonhole(8), budget);
        assert!(!result.is_decided());
    }
    let rec = recorder.lock().unwrap();
    let series = rec.series();
    assert!(
        !series.is_empty(),
        "aborted run must still close its series"
    );
    let last = series.last().unwrap();
    assert_eq!(last.label, preset);
    assert!(last.conflicts >= 50, "final sample carries final counters");
    assert_eq!(rec.markers()[0].kind, "solve");
    assert_eq!(rec.markers()[0].detail, preset);
}

#[test]
fn recorder_sees_heartbeats_and_monotone_series() {
    let recorder = velv_obs::shared_recorder();
    {
        let _guard = velv_sat::install_solve_recorder(recorder.clone());
        let mut solver = CdclSolver::chaff();
        assert!(solver.solve(&pigeonhole(8)).is_unsat());
        let conflicts = solver.stats().conflicts;
        let rec = recorder.lock().unwrap();
        let series = rec.series();
        // One sample per heartbeat plus the closing sample.
        let expected_min = (conflicts / 1024).min(rec.cap() as u64 / 2) + 1;
        assert!(
            series.len() as u64 >= expected_min,
            "expected at least {expected_min} samples, got {}",
            series.len()
        );
        assert!(series.windows(2).all(|w| w[0].conflicts <= w[1].conflicts));
        assert!(series.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        assert_eq!(series.last().unwrap().conflicts, conflicts);
    }
}

#[test]
fn incremental_solves_share_one_recorder_with_markers() {
    let recorder = velv_obs::shared_recorder();
    {
        let _guard = velv_sat::install_solve_recorder(recorder.clone());
        let mut solver = velv_sat::IncrementalSolver::chaff();
        solver.add_clause(&[lit(1), lit(2)]);
        solver.add_clause(&[lit(-1), lit(2)]);
        assert!(solver.solve(Budget::unlimited()).is_sat());
        solver.add_clause(&[lit(-2)]);
        assert!(solver.solve(Budget::unlimited()).is_unsat());
    }
    let rec = recorder.lock().unwrap();
    let solves = rec.markers().iter().filter(|m| m.kind == "solve").count();
    assert!(
        solves >= 2,
        "each incremental query must mark a solve boundary, got {solves}"
    );
    assert!(!rec.series().is_empty());
}

#[test]
fn portfolio_members_feed_the_installed_recorder() {
    let recorder = velv_obs::shared_recorder();
    {
        let _guard = velv_sat::install_solve_recorder(recorder.clone());
        let mut solver = velv_sat::PortfolioSolver::new()
            .with_kind(velv_sat::presets::SolverKind::Chaff)
            .with_kind(velv_sat::presets::SolverKind::Grasp);
        assert!(solver.solve(&pigeonhole(6)).is_unsat());
    }
    let rec = recorder.lock().unwrap();
    let labels: std::collections::BTreeSet<&str> = rec
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
