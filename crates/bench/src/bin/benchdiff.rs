//! `benchdiff` — compares two benchmark files of one kind and gates the
//! comparison.
//!
//! ```text
//! benchdiff BASELINE.json CURRENT.json [--out PATH]
//! ```
//!
//! The files' `harness` field tells their kind:
//!
//! * **`satbench`** (`BENCH_cdcl.json`), rows keyed `instance [preset]`.
//!   First a regression attribution: the shared rows whose time,
//!   conflicts-per-second, propagations-per-second or peak heap moved by
//!   more than 5%, or whose result changed, ranked by movement, each naming
//!   the registry counters that moved with it — so a regression points at
//!   *which* engine counter changed, not just that the wall clock did.
//!   Rows present in only one file are listed as added/removed, and
//!   `--out` writes the report as JSON.  Then the **peak-heap ceiling**:
//!   every shared row's `peak_heap_bytes` must stay within 1.2× of the
//!   baseline.  Heap peaks are near-deterministic, so unlike wall clock a
//!   20% ceiling catches a leaked arena or an unbounded learnt DB without
//!   flaking on machine speed.  Baseline rows with a zero or missing peak
//!   are skipped.  Then the **hint gate**: every `drat-checker` row of the
//!   current file must report zero `proof_hint_fallbacks` in its metrics, so
//!   the checker's replay along the solver's antecedent hints cannot
//!   silently decay to full unit propagation.  Last the **translation
//!   counter gate**: every shared `translate` row must report the baseline's
//!   `cnf_clauses`, `eij_vars` and `triangles` exactly.  These counters are
//!   deterministic, so any difference means the translator emitted another
//!   CNF, which would change every search downstream.
//! * **`satbench-serve`** (`BENCH_serve.json`), `sweeps` keyed by `label`:
//!   the **throughput floor**.  Every shared sweep's `jobs_per_sec` must
//!   stay at or above 0.10× the baseline.  CI machines vary wildly, so the
//!   floor catches order-of-magnitude collapses (a lock left held, a
//!   busy-wait, an accidental serialization), not noise.
//!
//! A smoke run measures fewer rows than a full baseline, so the gates
//! compare only the rows both files carry.
//!
//! Exit status: 0 when every compared row is within its bound, 1 on a
//! breach, 2 on a usage error, an unreadable or malformed file, files of
//! different kinds, or no shared row to gate.

use std::collections::{BTreeMap, BTreeSet};
use velv_obs::json::{self, quoted, Json};

/// A shared row counts as moved beyond this relative change.
const THRESHOLD: f64 = 0.05;
/// The serve gate's floor: `jobs_per_sec` as a fraction of the baseline.
const MIN_JOBS_RATIO: f64 = 0.10;
/// The cdcl gate's ceiling: `peak_heap_bytes` as a multiple of the baseline.
const MAX_HEAP_RATIO: f64 = 1.2;
/// The preset of the proof checker's rows.
const CHECKER_PRESET: &str = "drat-checker";
/// The checker-row metric that must stay zero.
const HINT_FALLBACKS: &str = "proof_hint_fallbacks";
/// The preset of the translator's rows.
const TRANSLATE_PRESET: &str = "translate";
/// The translate-row metrics that must equal the baseline's.
const TRANSLATE_COUNTERS: [&str; 3] = ["cnf_clauses", "eij_vars", "triangles"];

/// What a benchmark file measures, from its `harness` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// `satbench`: solver runs in `runs`.
    Cdcl,
    /// `satbench-serve`: service sweeps in `sweeps`.
    Serve,
}

/// One benchmark row; a serve sweep fills only `jobs_per_sec`.
#[derive(Clone, Debug, Default)]
struct Row {
    preset: String,
    result: String,
    time_s: f64,
    conflicts: f64,
    conflicts_per_sec: f64,
    propagations_per_sec: f64,
    peak_heap_bytes: f64,
    jobs_per_sec: f64,
    metrics: BTreeMap<String, f64>,
}

/// A parsed benchmark file: its kind and its rows by key.
struct Bench {
    kind: Kind,
    rows: BTreeMap<String, Row>,
}

/// Reads a benchmark file's kind and rows.  Every row must carry its key
/// fields, and a sweep its `jobs_per_sec`.
fn parse_bench(text: &str) -> Result<Bench, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let (kind, array) = match doc.get("harness").and_then(Json::as_str) {
        Some("satbench") => (Kind::Cdcl, "runs"),
        Some("satbench-serve") => (Kind::Serve, "sweeps"),
        other => {
            return Err(format!(
                "harness {other:?} is neither \"satbench\" nor \"satbench-serve\""
            ))
        }
    };
    let items = doc
        .get(array)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("no `{array}` array"))?;
    if items.is_empty() {
        return Err(format!("empty `{array}` array"));
    }
    let mut rows = BTreeMap::new();
    for item in items {
        let text = |name: &str| {
            item.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("`{array}` row without `{name}`"))
        };
        let number = |name: &str| item.get(name).and_then(Json::as_f64);
        let (key, row) = match kind {
            Kind::Cdcl => {
                let field = |name: &str| number(name).unwrap_or(0.0);
                let metrics = item
                    .get("metrics")
                    .and_then(Json::as_object)
                    .map(|map| {
                        map.iter()
                            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                            .collect()
                    })
                    .unwrap_or_default();
                let row = Row {
                    preset: text("preset")?.to_owned(),
                    result: text("result").unwrap_or("").to_owned(),
                    time_s: field("time_s"),
                    conflicts: field("conflicts"),
                    conflicts_per_sec: field("conflicts_per_sec"),
                    propagations_per_sec: field("propagations_per_sec"),
                    peak_heap_bytes: field("peak_heap_bytes"),
                    metrics,
                    ..Row::default()
                };
                (format!("{} [{}]", text("instance")?, text("preset")?), row)
            }
            Kind::Serve => {
                let label = text("label")?;
                let jobs_per_sec = number("jobs_per_sec")
                    .ok_or_else(|| format!("sweep `{label}` without `jobs_per_sec`"))?;
                let row = Row {
                    jobs_per_sec,
                    ..Row::default()
                };
                (label.to_owned(), row)
            }
        };
        rows.insert(key, row);
    }
    Ok(Bench { kind, rows })
}

/// Applies the files' gate to every row both carry, printing one line per
/// compared row, then the hint gate to the current file's checker rows and
/// the counter gate to the shared translate rows.  `Ok(true)` when some row
/// breached its bound.
///
/// # Errors
///
/// The files are of different kinds, or share no gated row.
fn gate(baseline: &Bench, current: &Bench) -> Result<bool, String> {
    if baseline.kind != current.kind {
        return Err("the two files are different kinds of benchmark".to_owned());
    }
    let mut compared = 0;
    let mut breached = false;
    for (key, base) in &baseline.rows {
        let Some(cur) = current.rows.get(key) else {
            continue;
        };
        let (ok, line) = match baseline.kind {
            Kind::Cdcl => {
                if base.peak_heap_bytes <= 0.0 {
                    continue; // older baseline without memory columns
                }
                let ceiling = base.peak_heap_bytes * MAX_HEAP_RATIO;
                let line = format!(
                    "{key:<44} baseline {:>12.0} B, current {:>12.0} B, ceiling {ceiling:>12.0}",
                    base.peak_heap_bytes, cur.peak_heap_bytes
                );
                (cur.peak_heap_bytes <= ceiling, line)
            }
            Kind::Serve => {
                let floor = base.jobs_per_sec * MIN_JOBS_RATIO;
                let line = format!(
                    "{key:<16} baseline {:>10.2} jobs/s, current {:>10.2} jobs/s, floor {floor:>10.2}",
                    base.jobs_per_sec, cur.jobs_per_sec
                );
                (cur.jobs_per_sec >= floor, line)
            }
        };
        compared += 1;
        breached |= !ok;
        println!("gate: {line} ({})", if ok { "ok" } else { "REGRESSION" });
    }
    if compared == 0 {
        return Err("no gated row is shared between baseline and current".to_owned());
    }
    for (key, row) in &current.rows {
        let fallbacks = row.metrics.get(HINT_FALLBACKS).copied().unwrap_or(0.0);
        if row.preset == CHECKER_PRESET && fallbacks > 0.0 {
            breached = true;
            println!("gate: {key:<44} {fallbacks:.0} hint fallback(s) (REGRESSION)");
        }
    }
    for (key, base) in &baseline.rows {
        let Some(cur) = current.rows.get(key) else {
            continue;
        };
        if base.preset != TRANSLATE_PRESET {
            continue;
        }
        for counter in TRANSLATE_COUNTERS {
            let (was, now) = (base.metrics.get(counter), cur.metrics.get(counter));
            if was != now {
                breached = true;
                println!("gate: {key:<44} {counter} {was:?} -> {now:?} (REGRESSION)");
            }
        }
    }
    let bound = match baseline.kind {
        Kind::Cdcl => format!(
            "peak heap within {MAX_HEAP_RATIO}x of the baseline, no {CHECKER_PRESET} hint fallback, \
             {TRANSLATE_PRESET} counters equal to the baseline's"
        ),
        Kind::Serve => format!("jobs/s at or above {MIN_JOBS_RATIO}x of the baseline"),
    };
    if breached {
        eprintln!("benchdiff: some row breached its bound ({bound})");
    } else {
        println!("gate: {compared} row(s) within bounds ({bound})");
    }
    Ok(breached)
}

/// The comparison of one shared row that moved.
struct Delta<'a> {
    key: &'a str,
    baseline: &'a Row,
    current: &'a Row,
    time: f64,
    confl: f64,
    heap: f64,
    /// Largest relative movement across time, throughput and heap.
    significance: f64,
    result_changed: bool,
    /// Registry counters that moved beyond the threshold, largest first.
    counters: Vec<(String, f64, f64)>,
}

/// The attribution of two `satbench` files.
struct Attribution<'a> {
    common: usize,
    /// Moved rows: result flips first (a verdict change dwarfs any
    /// throughput delta), then by relative movement.
    moved: Vec<Delta<'a>>,
    added: Vec<&'a str>,
    removed: Vec<&'a str>,
}

/// Relative movement of `current` against `baseline`, signed; 0 when the
/// baseline is 0 (nothing meaningful to divide by).
fn rel(baseline: f64, current: f64) -> f64 {
    if baseline.abs() < 1e-12 {
        0.0
    } else {
        (current - baseline) / baseline
    }
}

fn percent(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// The registry counters of a row that moved by more than the threshold,
/// ranked by relative movement, largest first.
fn moved_counters(baseline: &Row, current: &Row) -> Vec<(String, f64, f64)> {
    let mut moved = Vec::new();
    let keys: BTreeSet<&String> = baseline
        .metrics
        .keys()
        .chain(current.metrics.keys())
        .collect();
    for key in keys {
        let old = baseline.metrics.get(key).copied().unwrap_or(0.0);
        let new = current.metrics.get(key).copied().unwrap_or(0.0);
        let movement = if old.abs() < 1e-12 && new.abs() < 1e-12 {
            0.0
        } else if old.abs() < 1e-12 {
            f64::INFINITY // appeared
        } else {
            rel(old, new).abs()
        };
        if movement > THRESHOLD {
            moved.push((key.clone(), old, new, movement));
        }
    }
    moved.sort_by(|a, b| b.3.total_cmp(&a.3));
    moved
        .into_iter()
        .map(|(key, old, new, _)| (key, old, new))
        .collect()
}

fn attribute<'a>(baseline: &'a Bench, current: &'a Bench) -> Attribution<'a> {
    let mut common = 0;
    let mut moved = Vec::new();
    let mut added = Vec::new();
    for (key, row) in &current.rows {
        let Some(base) = baseline.rows.get(key) else {
            added.push(key.as_str());
            continue;
        };
        common += 1;
        let time = rel(base.time_s, row.time_s);
        let confl = rel(base.conflicts_per_sec, row.conflicts_per_sec);
        let heap = rel(base.peak_heap_bytes, row.peak_heap_bytes);
        let props = rel(base.propagations_per_sec, row.propagations_per_sec);
        let significance = [time, confl, props, heap]
            .into_iter()
            .fold(0.0, |m, x| f64::max(m, x.abs()));
        let result_changed = base.result != row.result;
        if result_changed || significance > THRESHOLD {
            moved.push(Delta {
                key,
                baseline: base,
                current: row,
                time,
                confl,
                heap,
                significance,
                result_changed,
                counters: moved_counters(base, row),
            });
        }
    }
    moved.sort_by(|a, b| {
        b.result_changed
            .cmp(&a.result_changed)
            .then(b.significance.total_cmp(&a.significance))
    });
    let removed = baseline
        .rows
        .keys()
        .filter(|key| !current.rows.contains_key(*key))
        .map(String::as_str)
        .collect();
    Attribution {
        common,
        moved,
        added,
        removed,
    }
}

fn print_attribution(attribution: &Attribution<'_>) {
    println!(
        "{} common rows, {} added, {} removed, threshold {:.1}%",
        attribution.common,
        attribution.added.len(),
        attribution.removed.len(),
        THRESHOLD * 100.0
    );
    for delta in &attribution.moved {
        let marker = if delta.result_changed {
            " RESULT CHANGED"
        } else if delta.heap.abs() > THRESHOLD && delta.heap.abs() >= delta.time.abs() {
            if delta.heap > 0.0 {
                " more memory"
            } else {
                " less memory"
            }
        } else if delta.time > 0.0 {
            " slower"
        } else {
            " faster"
        };
        println!(
            "  {:<44} time {} confl/s {} heap {}{}",
            delta.key,
            percent(delta.time),
            percent(delta.confl),
            percent(delta.heap),
            marker
        );
        if delta.heap.abs() > THRESHOLD {
            println!(
                "    peak heap: {:.0} -> {:.0} bytes",
                delta.baseline.peak_heap_bytes, delta.current.peak_heap_bytes
            );
        }
        if delta.result_changed {
            println!(
                "    result: {} -> {}",
                delta.baseline.result, delta.current.result
            );
        }
        if delta.baseline.conflicts != delta.current.conflicts {
            // A changed conflict count means the search trajectory itself
            // moved, not just the machine's speed.
            println!(
                "    conflicts: {:.0} -> {:.0} (trajectory changed)",
                delta.baseline.conflicts, delta.current.conflicts
            );
        }
        for (name, old, new) in delta.counters.iter().take(4) {
            println!("    counter {name}: {old:.0} -> {new:.0}");
        }
        if delta.counters.len() > 4 {
            println!(
                "    ... and {} more moved counters",
                delta.counters.len() - 4
            );
        }
    }
    if attribution.moved.is_empty() {
        println!("  no row moved beyond the threshold");
    }
    for key in &attribution.added {
        println!("  added   {key}");
    }
    for key in &attribution.removed {
        println!("  removed {key}");
    }
}

/// The attribution as the JSON report `--out` writes.
fn report(baseline_path: &str, current_path: &str, attribution: &Attribution<'_>) -> String {
    let deltas: Vec<String> = attribution
        .moved
        .iter()
        .map(|delta| {
            let counters: Vec<String> = delta
                .counters
                .iter()
                .take(8)
                .map(|(name, old, new)| {
                    format!(
                        "{{\"name\": {}, \"baseline\": {old}, \"current\": {new}}}",
                        quoted(name)
                    )
                })
                .collect();
            format!(
                "    {{\"row\": {}, \"result_changed\": {}, \"time_rel\": {:.4}, \
                 \"conflicts_per_sec_rel\": {:.4}, \"peak_heap_rel\": {:.4}, \
                 \"moved_counters\": [{}]}}",
                quoted(delta.key),
                delta.result_changed,
                delta.time,
                delta.confl,
                delta.heap,
                counters.join(", ")
            )
        })
        .collect();
    let list = |keys: &[&str]| {
        keys.iter()
            .map(|k| quoted(k))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = format!(
        "{{\n  \"baseline\": {},\n  \"current\": {},\n  \"threshold\": {THRESHOLD},\n  \"deltas\": [\n",
        quoted(baseline_path),
        quoted(current_path)
    );
    if !deltas.is_empty() {
        out.push_str(&deltas.join(",\n"));
        out.push('\n');
    }
    out.push_str(&format!(
        "  ],\n  \"added\": [{}],\n  \"removed\": [{}]\n}}\n",
        list(&attribution.added),
        list(&attribution.removed)
    ));
    out
}

/// Reports a usage, input or comparison error and exits 2.
fn fail(message: &str) -> ! {
    eprintln!("benchdiff: {message}");
    std::process::exit(2);
}

fn usage() -> ! {
    fail("usage: benchdiff BASELINE.json CURRENT.json [--out PATH]");
}

fn load(path: &str) -> Bench {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    parse_bench(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut out_path = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => out_path = Some(iter.next().unwrap_or_else(|| usage())),
            _ if arg.starts_with("--") => usage(),
            _ => positional.push(arg.as_str()),
        }
    }
    let [baseline_path, current_path] = positional[..] else {
        usage();
    };
    let baseline = load(baseline_path);
    let current = load(current_path);
    println!("benchdiff: {baseline_path} -> {current_path}");
    if baseline.kind == Kind::Cdcl && current.kind == Kind::Cdcl {
        let attribution = attribute(&baseline, &current);
        print_attribution(&attribution);
        if let Some(path) = out_path {
            let text = report(baseline_path, current_path, &attribution);
            if let Err(e) = std::fs::write(path, text) {
                fail(&format!("cannot write {path}: {e}"));
            }
            println!("wrote {path}");
        }
    } else if out_path.is_some() {
        fail("--out writes the attribution report, which only satbench files have");
    }
    match gate(&baseline, &current) {
        Ok(false) => {}
        Ok(true) => std::process::exit(1),
        Err(e) => fail(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(doc: &str) -> Bench {
        parse_bench(doc).expect("parses")
    }

    const SERVE_DOC: &str = r#"{
      "harness": "satbench-serve",
      "sweeps": [
        {"label": "cold-batch", "jobs": 13, "seconds": 0.1, "jobs_per_sec": 88.46},
        {"label": "warm-batch", "jobs": 13, "seconds": 0.01, "jobs_per_sec": 1435.21}
      ],
      "persist": [{"label": "not-a-sweep", "records_per_sec": 1.0}]
    }"#;

    const CDCL_DOC: &str = r#"{
      "harness": "satbench",
      "runs": [
        {"preset": "chaff", "instance": "php-7-6", "peak_heap_bytes": 123456,
         "metrics": {"velv_sat_conflicts": 42, "mem_scope_alloc_bytes_sat.arena": 9000}},
        {"preset": "grasp", "instance": "php-7-6", "time_s": 0.5}
      ]
    }"#;

    /// A one-row file of `kind` whose gated column is `value`.
    fn one_row(kind: Kind, value: f64) -> Bench {
        match kind {
            Kind::Cdcl => bench(&format!(
                r#"{{"harness": "satbench", "runs": [{{"preset": "chaff", "instance": "x", "peak_heap_bytes": {value}}}]}}"#
            )),
            Kind::Serve => bench(&format!(
                r#"{{"harness": "satbench-serve", "sweeps": [{{"label": "cold", "jobs_per_sec": {value}}}]}}"#
            )),
        }
    }

    #[test]
    fn persist_is_not_read_as_sweeps() {
        let serve = bench(SERVE_DOC);
        assert_eq!(serve.kind, Kind::Serve);
        assert_eq!(
            serve.rows.keys().collect::<Vec<_>>(),
            ["cold-batch", "warm-batch"]
        );
        assert!((serve.rows["cold-batch"].jobs_per_sec - 88.46).abs() < 1e-9);
    }

    #[test]
    fn nested_metrics_braces_are_not_rows() {
        let cdcl = bench(CDCL_DOC);
        assert_eq!(cdcl.kind, Kind::Cdcl);
        assert_eq!(
            cdcl.rows.keys().collect::<Vec<_>>(),
            ["php-7-6 [chaff]", "php-7-6 [grasp]"]
        );
        let chaff = &cdcl.rows["php-7-6 [chaff]"];
        assert_eq!(chaff.peak_heap_bytes, 123456.0);
        assert_eq!(chaff.metrics["velv_sat_conflicts"], 42.0);
        assert_eq!(
            cdcl.rows["php-7-6 [grasp]"].peak_heap_bytes, 0.0,
            "a missing peak reads as zero and the gate skips it"
        );
    }

    #[test]
    fn malformed_files_are_rejected() {
        for doc in [
            "",
            "{}",
            r#"{"harness": "other", "runs": [{"preset": "x", "instance": "y"}]}"#,
            r#"{"harness": "satbench"}"#,
            r#"{"harness": "satbench", "runs": []}"#,
            r#"{"harness": "satbench", "runs": [{"preset": "chaff"}]}"#,
            r#"{"harness": "satbench", "runs": [{"instance": "y"}]}"#,
            r#"{"harness": "satbench", "runs": [{"preset": "x", "instance": "y"}"#,
            r#"{"harness": "satbench-serve", "sweeps": []}"#,
            r#"{"harness": "satbench-serve", "sweeps": [{"jobs_per_sec": 1.0}]}"#,
            r#"{"harness": "satbench-serve", "sweeps": [{"label": "x"}]}"#,
        ] {
            assert!(parse_bench(doc).is_err(), "accepted `{doc}`");
        }
    }

    #[test]
    fn a_heap_breach_fails_the_gate() {
        let baseline = one_row(Kind::Cdcl, 1000.0);
        assert_eq!(gate(&baseline, &one_row(Kind::Cdcl, 1200.0)), Ok(false));
        assert_eq!(gate(&baseline, &one_row(Kind::Cdcl, 1201.0)), Ok(true));
        // A zero-peak baseline row is skipped, leaving nothing to gate.
        assert!(gate(&one_row(Kind::Cdcl, 0.0), &one_row(Kind::Cdcl, 5.0)).is_err());
    }

    #[test]
    fn a_checker_hint_fallback_fails_the_gate() {
        let doc = |fallbacks: u32| {
            bench(&format!(
                r#"{{"harness": "satbench", "runs": [
                  {{"preset": "chaff", "instance": "x", "peak_heap_bytes": 10}},
                  {{"preset": "drat-checker", "instance": "x", "peak_heap_bytes": 10,
                    "metrics": {{"proof_hint_fallbacks": {fallbacks}}}}}]}}"#
            ))
        };
        assert_eq!(gate(&doc(0), &doc(0)), Ok(false));
        assert_eq!(gate(&doc(0), &doc(1)), Ok(true));
        // Only the current file is held to it, and only checker rows.
        assert_eq!(gate(&doc(3), &doc(0)), Ok(false));
        let solver_row = bench(
            r#"{"harness": "satbench", "runs": [{"preset": "chaff", "instance": "x",
               "peak_heap_bytes": 10, "metrics": {"proof_hint_fallbacks": 5}}]}"#,
        );
        assert_eq!(gate(&one_row(Kind::Cdcl, 10.0), &solver_row), Ok(false));
    }

    #[test]
    fn a_translation_counter_change_fails_the_gate() {
        let doc = |preset: &str, clauses: u32, triangles: &str| {
            bench(&format!(
                r#"{{"harness": "satbench", "runs": [
                  {{"preset": "{preset}", "instance": "x", "peak_heap_bytes": 10,
                    "metrics": {{"cnf_vars": 7, "cnf_clauses": {clauses}, "eij_vars": 3{triangles}}}}}]}}"#
            ))
        };
        let base = doc("translate", 100, r#", "triangles": 4"#);
        assert_eq!(
            gate(&base, &doc("translate", 100, r#", "triangles": 4"#)),
            Ok(false)
        );
        assert_eq!(
            gate(&base, &doc("translate", 101, r#", "triangles": 4"#)),
            Ok(true)
        );
        assert_eq!(
            gate(&base, &doc("translate", 100, r#", "triangles": 5"#)),
            Ok(true)
        );
        assert_eq!(
            gate(&base, &doc("translate", 100, "")),
            Ok(true),
            "a counter went missing"
        );
        // Only translate rows are held to it.
        let solver = |clauses| doc("chaff", clauses, "");
        assert_eq!(gate(&solver(100), &solver(101)), Ok(false));
    }

    #[test]
    fn a_throughput_collapse_fails_the_gate() {
        let baseline = one_row(Kind::Serve, 100.0);
        assert_eq!(gate(&baseline, &one_row(Kind::Serve, 10.0)), Ok(false));
        assert_eq!(gate(&baseline, &one_row(Kind::Serve, 9.9)), Ok(true));
    }

    #[test]
    fn mixed_kinds_and_disjoint_rows_are_rejected() {
        assert!(gate(&bench(CDCL_DOC), &bench(SERVE_DOC)).is_err());
        assert!(gate(&bench(SERVE_DOC), &one_row(Kind::Serve, 100.0)).is_err());
    }

    #[test]
    fn committed_files_match_themselves() {
        for file in ["BENCH_cdcl.json", "BENCH_serve.json"] {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("committed bench file");
            let bench = bench(&text);
            assert_eq!(gate(&bench, &bench), Ok(false), "{file}");
            let attribution = attribute(&bench, &bench);
            assert!(attribution.moved.is_empty(), "{file}");
            assert!(attribution.added.is_empty() && attribution.removed.is_empty());
        }
    }

    #[test]
    fn the_report_escapes_every_key() {
        let key = "q\"u\\o\u{1}te";
        let doc = |time: f64, instance: &str| {
            let mut out =
                String::from(r#"{"harness": "satbench", "runs": [{"preset": "p", "instance": "#);
            out.push_str(&format!(
                "{}, \"time_s\": {time}, \"metrics\": {{{}: {time}}}}},",
                quoted(key),
                quoted(key)
            ));
            out.push_str(&format!(
                r#"{{"preset": "p", "instance": {}}}]}}"#,
                quoted(instance)
            ));
            out
        };
        let baseline = bench(&doc(1.0, "gone\"\\\u{7}"));
        let current = bench(&doc(2.0, "new\"\\\u{1f}"));
        let attribution = attribute(&baseline, &current);
        let text = report("base\"line.json", "cur\\rent.json", &attribution);
        let parsed = json::parse(&text).expect("the report reparses");
        let row = &parsed.get("deltas").unwrap().as_array().unwrap()[0];
        let row_key = format!("{key} [p]");
        assert_eq!(row.get("row").unwrap().as_str(), Some(row_key.as_str()));
        let counter = &row.get("moved_counters").unwrap().as_array().unwrap()[0];
        assert_eq!(counter.get("name").unwrap().as_str(), Some(key));
        let first = |name: &str| {
            parsed.get(name).unwrap().as_array().unwrap()[0]
                .as_str()
                .unwrap()
                .to_owned()
        };
        assert_eq!(first("added"), "new\"\\\u{1f} [p]");
        assert_eq!(first("removed"), "gone\"\\\u{7} [p]");
        assert_eq!(
            parsed.get("baseline").unwrap().as_str(),
            Some("base\"line.json")
        );
    }
}
