//! Tracing and registry integration for the SAT layer: incremental solves
//! must each produce one closed span, and portfolio races must surface
//! per-member statistics on the global registry.

use std::sync::{Arc, Mutex, OnceLock};
use velv_sat::presets::SolverKind;
use velv_sat::{Budget, CnfFormula, IncrementalSolver, Lit, PortfolioSolver, Solver};

/// Sink-installing tests serialize on this lock: the tracer's sink slot is
/// process-global.
fn tracer_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn lit(i: i64) -> Lit {
    Lit::from_dimacs(i)
}

#[test]
fn incremental_solves_open_and_close_one_span_each() {
    let _guard = tracer_lock().lock().unwrap();
    let sink = Arc::new(velv_obs::MemorySink::new());
    velv_obs::install_sink(sink.clone());

    let mut solver = IncrementalSolver::chaff();
    solver.add_clause(&[lit(1), lit(2)]);
    solver.add_clause(&[lit(-1)]);
    assert!(solver.solve(Budget::unlimited()).is_sat());
    solver.add_clause(&[lit(-2)]);
    assert!(solver.solve(Budget::unlimited()).is_unsat());

    velv_obs::uninstall_sink();
    let text = sink.contents();
    let summary = velv_obs::check_trace(&text).expect("well-formed trace");
    assert_eq!(summary.unclosed, 0);

    let records: Vec<velv_obs::TraceRecord> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| velv_obs::parse_trace_line(l).unwrap())
        .collect();
    let solve_ids = |kind: &str| -> Vec<Option<u64>> {
        records
            .iter()
            .filter(|r| r.kind() == kind && r.get("name") == Some("incr.solve"))
            .map(|r| r.get_u64("id"))
            .collect()
    };
    let opens = solve_ids("span_open");
    assert_eq!(opens.len(), 2, "one span per solve");
    assert_ne!(opens[0], opens[1], "each solve has its own span");
    let mut closes = solve_ids("span_close");
    closes.sort();
    let mut expected = opens.clone();
    expected.sort();
    assert_eq!(closes, expected, "both solve spans close");
}

#[test]
fn engine_work_reaches_the_global_registry() {
    // A pigeonhole-style UNSAT instance forces real conflicts; the
    // preset-labelled global counters must strictly grow.  Other tests run
    // concurrently against the same registry, so assert monotone growth
    // rather than exact counts.
    let before = velv_obs::global()
        .snapshot()
        .get("velv_sat_conflicts_total", &[("preset", "chaff")])
        .and_then(|s| s.value.as_u64())
        .unwrap_or(0);

    let mut cnf = CnfFormula::new(0);
    // 4 pigeons, 3 holes.
    let var = |p: i64, h: i64| lit(1 + (p * 3 + h));
    for p in 0..4 {
        cnf.add_clause((0..3).map(|h| var(p, h)).collect());
    }
    for h in 0..3 {
        for p1 in 0..4 {
            for p2 in (p1 + 1)..4 {
                cnf.add_clause(vec![!var(p1, h), !var(p2, h)]);
            }
        }
    }
    let mut solver = velv_sat::cdcl::CdclSolver::chaff();
    assert!(solver.solve(&cnf).is_unsat());

    let after = velv_obs::global()
        .snapshot()
        .get("velv_sat_conflicts_total", &[("preset", "chaff")])
        .and_then(|s| s.value.as_u64())
        .unwrap_or(0);
    assert!(
        after > before,
        "chaff conflict counter did not grow: {before} -> {after}"
    );
}

#[test]
fn portfolio_race_surfaces_per_member_counters() {
    let mut solver = PortfolioSolver::new()
        .with_kind(SolverKind::Chaff)
        .with_kind(SolverKind::Grasp);
    let mut cnf = CnfFormula::new(0);
    cnf.add_clause(vec![lit(1), lit(2)]);
    cnf.add_clause(vec![lit(-1), lit(2)]);
    assert!(solver.solve(&cnf).is_sat());

    let snapshot = velv_obs::global().snapshot();
    let runs = |preset: &str| {
        snapshot
            .get("velv_sat_portfolio_runs_total", &[("preset", preset)])
            .and_then(|s| s.value.as_u64())
            .unwrap_or(0)
    };
    assert!(runs("chaff") >= 1);
    assert!(runs("grasp") >= 1);
    let report = solver.report().expect("race report");
    assert!(report.winner.is_some());
    let wins: u64 = ["chaff", "grasp"]
        .iter()
        .map(|preset| {
            snapshot
                .get("velv_sat_portfolio_wins_total", &[("preset", preset)])
                .and_then(|s| s.value.as_u64())
                .unwrap_or(0)
        })
        .sum();
    assert!(wins >= 1);
}
