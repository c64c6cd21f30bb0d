//! Tracing and registry integration for the SAT layer: refinement rounds
//! must each produce one closed span, and solves must surface their
//! statistics on the global registry.

use std::sync::{Arc, Mutex, OnceLock};
use velv_sat::cdcl::CdclSolver;
use velv_sat::{Budget, CnfFormula, Lit, Solver};

/// Every test here solves, and every solve opens spans: they serialize on
/// this lock so the sink-installing test sees only its own spans (the
/// tracer's sink slot is process-global).
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

    let root = velv_obs::span("obs_trace.test");
    let root_id = root.id();
    let mut cnf = CnfFormula::new(2);
    cnf.add_clause(&[lit(1), lit(2)]);
    cnf.add_clause(&[lit(-1)]);
    let result =
        CdclSolver::chaff().solve_refining(&cnf, Budget::unlimited(), &mut |_| vec![vec![lit(-2)]]);
    assert!(result.is_unsat());
    drop(root);

    velv_obs::uninstall_sink();
    let text = sink.contents();
    let summary = velv_obs::check_trace(&text).expect("well-formed trace");
    assert_eq!(summary.unclosed, 0);

    let records: Vec<velv_obs::TraceRecord> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| velv_obs::parse_trace_line(l).unwrap())
        .collect();
    let opens: Vec<Option<u64>> = records
        .iter()
        .filter(|r| {
            r.kind() == "span_open"
                && r.get("name") == Some("refine_round")
                && r.get_u64("parent") == Some(root_id)
        })
        .map(|r| r.get_u64("id"))
        .collect();
    assert_eq!(opens.len(), 2, "one span per round");
    assert_ne!(opens[0], opens[1], "each round has its own span");
    let mut closes: Vec<Option<u64>> = records
        .iter()
        .filter(|r| r.kind() == "span_close" && opens.contains(&r.get_u64("id")))
        .map(|r| r.get_u64("id"))
        .collect();
    closes.sort();
    let mut expected = opens.clone();
    expected.sort();
    assert_eq!(closes, expected, "both round spans close");
}

#[test]
fn engine_work_reaches_the_global_registry() {
    let _guard = tracer_lock().lock().unwrap();
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
        cnf.add_clause(&(0..3).map(|h| var(p, h)).collect::<Vec<_>>());
    }
    for h in 0..3 {
        for p1 in 0..4 {
            for p2 in (p1 + 1)..4 {
                cnf.add_clause(&[!var(p1, h), !var(p2, h)]);
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
