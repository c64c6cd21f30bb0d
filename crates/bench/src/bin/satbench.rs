//! `satbench` — reproducible CDCL performance harness.
//!
//! Runs a fixed, fully seeded suite against the four CDCL presets and writes
//! the measured throughput to `BENCH_cdcl.json`, seeding the repository's
//! performance trajectory: every engine change can be compared against the
//! committed numbers of the previous one.
//!
//! The suite covers the three formula classes the engine sees in practice:
//!
//! * **pigeonhole** PHP(n+1, n) — dense, UNSAT, resolution-hard; exercises
//!   conflict analysis and clause learning.
//! * **random 3-SAT** at the phase transition (m/n ≈ 4.26, seeded) —
//!   exercises propagation, restarts and the decision heuristic.
//! * **DLX correctness formulas** from `velv_core` — the paper's actual
//!   workload (Table 1/2 class): buggy designs (SAT) and the correct design
//!   (UNSAT) of the single- and dual-issue DLX.
//!
//! Three subsystem benchmarks ride along:
//!
//! * **decomposition**: the weak criteria of a design, each obligation
//!   translated and checked on its own solver;
//! * **transitivity**: eager triangulated side constraints vs. lazy
//!   refinement on one live CDCL engine, on the transitivity-heavy
//!   out-of-order designs;
//! * **certify**: the cost of certified verdicts — plain solving vs. solving
//!   with DRAT proof logging, plus the independent checker's replay time, on
//!   the DLX correct-design proofs.
//!
//! A **translate** row per large correct design (2×DLX-CC-MC-EX-BP, and
//! 9VLIW-MC-BP-EX outside `--smoke`) times the EUFM → CNF translation on its
//! own and records the CNF's size counters in `metrics`; `benchdiff` fails
//! when those counters differ from the baseline's, since a faster translator
//! must still emit the same CNF.
//!
//! A fourth subsystem benchmark, **serve**, measures the serving layer of
//! `velv_serve`: a bug-catalog sweep is submitted twice to an in-process
//! verification service as one batch — the cold sweep pays translation +
//! solving, one single job per entry spread across the workers, the warm
//! sweep returns every verdict from the fingerprint-keyed cache — and a
//! concurrent re-sweep hammers the cache from several client threads.
//! Throughput (jobs/sec), the cache-hit ratio and the service's registry
//! (a `metrics` object keyed by wire name, as `velvc stats` prints it) are
//! recorded separately in `BENCH_serve.json`.
//!
//! A fifth benchmark, **persist**, measures the durability layer: raw
//! `velv_store` append throughput under each fsync policy (`always`,
//! `every-8`, `os`), the recovery-scan rate of a reopened log, and a full
//! service warm boot — restart on a populated store directory, replay the
//! log into the cache, and answer the whole catalog without re-solving.  Its
//! rows land in the `persist` array of `BENCH_serve.json`.
//!
//! Usage: `satbench [--smoke] [--out PATH] [--serve-out PATH]
//! [--only cdcl|serve|persist] [--trace PATH] [--profile DIR]`.
//! `--smoke` shrinks every instance so the whole run takes well under a
//! second — CI uses it to keep the harness from rotting without paying for a
//! real measurement.  `--only serve` regenerates `BENCH_serve.json` without
//! re-measuring the solver suites.  `--trace` records every span and event of
//! the run to a JSONL file and self-checks the capture with the trace checker
//! before exiting.  `--profile DIR` writes one `SolveProfile` JSONL artifact
//! per (preset, instance) run of the CDCL suite to `DIR` — decimated
//! time-series, restart markers and span-derived phase trees — and aborts if
//! any artifact fails to reparse.
//!
//! Each preset-suite row of `BENCH_cdcl.json` also carries a `metrics`
//! object: the per-run delta of the global `velv_obs` metric registry, so
//! the committed numbers can be cross-checked against the instrumentation.

use std::time::{Duration, Instant};
use velv_core::{TranslationOptions, Verdict, Verifier};

/// The harness counts its own heap: every committed row carries the peak
/// heap bytes of its measured region and the per-scope allocation deltas, so
/// memory regressions are gated alongside throughput regressions.
#[global_allocator]
static ALLOC: velv_obs::CountingAlloc = velv_obs::CountingAlloc;
use velv_models::dlx::{bug_catalog, Dlx, DlxConfig, DlxSpecification};
use velv_models::ooo::{Ooo, OooSpecification};
use velv_models::vliw::{Vliw, VliwConfig, VliwSpecification};
use velv_obs::json::quoted;
use velv_sat::cdcl::CdclSolver;
use velv_sat::generators::{pigeonhole, random_3sat};
use velv_sat::{Budget, CnfFormula, SatResult, Solver};

/// One named benchmark instance.
struct Instance {
    name: String,
    cnf: CnfFormula,
}

/// Per-solve profiling context of a `--profile DIR` run: the artifact
/// directory and the installed process [`velv_obs::ProfileSink`].
struct Profiler {
    dir: std::path::PathBuf,
    sink: std::sync::Arc<velv_obs::ProfileSink>,
}

impl Profiler {
    /// Builds, writes and self-reparses the `SolveProfile` of one measured
    /// run.  A profile that does not round-trip is a harness bug, so it
    /// aborts the whole benchmark (CI runs `--smoke --profile` exactly for
    /// this check).
    fn write(
        &self,
        preset: &str,
        instance: &str,
        result: &str,
        time_s: f64,
        stats: &velv_sat::SolverStats,
        recorder: &velv_obs::SharedSolveRecorder,
    ) -> velv_obs::SolveProfile {
        // Drain this thread's trace buffer so the sink has seen every span
        // of the run before the tree is extracted.
        velv_obs::flush();
        let phases = self.sink.take_roots();
        let profile = {
            let rec = recorder.lock().expect("bench recorder lock");
            velv_obs::SolveProfile {
                instance: instance.to_owned(),
                solver: preset.to_owned(),
                result: result.to_owned(),
                wall_us: (time_s * 1e6) as u64,
                stride: rec.stride(),
                offered: rec.offered(),
                conflicts: stats.conflicts,
                propagations: stats.propagations,
                decisions: stats.decisions,
                restarts: stats.restarts,
                samples: rec.series(),
                markers: rec.markers().to_vec(),
                phases,
            }
        };
        let text = profile.to_jsonl();
        let sanitize = |s: &str| -> String {
            s.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                        c
                    } else {
                        '-'
                    }
                })
                .collect()
        };
        let path = self.dir.join(format!(
            "{}--{}.profile.jsonl",
            sanitize(preset),
            sanitize(instance)
        ));
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("satbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        let reread = std::fs::read_to_string(&path).unwrap_or_default();
        match velv_obs::SolveProfile::parse(&reread) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!(
                    "satbench: profile artifact {} does not reparse: {e}",
                    path.display()
                );
                std::process::exit(1);
            }
        }
    }
}

/// Measured outcome of one (preset, instance) run.
struct Measurement {
    preset: &'static str,
    instance: String,
    result: &'static str,
    time_s: f64,
    conflicts: u64,
    propagations: u64,
    decisions: u64,
    /// Literals learned-clause minimization removed.
    minimized_literals: u64,
    conflicts_per_sec: f64,
    propagations_per_sec: f64,
    /// Peak heap bytes of the measured region above the bytes live when it
    /// started (see [`HeapMeter`]).
    peak_heap_bytes: u64,
    /// Per-run delta of the global metric registry (see [`registry_delta`]).
    metrics: Vec<(String, u64)>,
}

/// Brackets one measured region with the counting allocator: `start` resets
/// the heap high-water marks, `finish` reads the region's peak and the
/// per-scope allocation growth.
///
/// The peak is reported *above the bytes live at `start`*: the suite's
/// instances (every CNF of the run) stay live through every solve, so an
/// absolute high-water mark charges each row with the whole suite, moves
/// whenever an instance is added or its CNF changes layout, and buries a
/// small solve's own peak under megabytes that benchdiff's 1.2× ceiling
/// then lets it grow into unnoticed.
struct HeapMeter {
    before: velv_obs::MemSnapshot,
}

impl HeapMeter {
    fn start() -> Self {
        velv_obs::mem::reset_peaks();
        HeapMeter {
            before: velv_obs::mem::snapshot(),
        }
    }

    /// Returns `(peak heap bytes, per-scope allocation deltas)`; the deltas
    /// ride in the row's `metrics` object so `benchdiff` ranks scope-level
    /// memory movement exactly like any moved counter.
    fn finish(self) -> (u64, Vec<(String, u64)>) {
        let after = velv_obs::mem::snapshot();
        let peak = (after.peak_bytes - self.before.live_bytes).max(0) as u64;
        let scopes = self
            .before
            .scopes
            .iter()
            .zip(after.scopes.iter())
            .filter_map(|(before, after)| {
                let grew = after.total_bytes.saturating_sub(before.total_bytes);
                (grew > 0).then(|| (format!("mem_scope_alloc_bytes_{}", after.name), grew))
            })
            .collect();
        (peak, scopes)
    }
}

/// The per-run metric attribution of a benchmark row, as `(flat key, value)`
/// pairs.  Counters (and histogram count/sum fields) are cumulative, so they
/// are attributed as *growth* over the `before` snapshot; gauges are levels,
/// not counters, so a gauge is reported as its absolute end-of-run reading.
///
/// Every metric labelled with the run's `preset` is reported, moved or not,
/// so all rows of one preset carry the same keys — including a gauge that
/// ends where the previous run of the preset left it.  Metrics of other
/// presets and unlabelled ones appear only when the run moved them.
fn registry_delta(
    before: &velv_obs::Snapshot,
    after: &velv_obs::Snapshot,
    preset: &str,
) -> Vec<(String, u64)> {
    use velv_obs::MetricValue;
    let old: std::collections::HashMap<String, &MetricValue> = before
        .metrics
        .iter()
        .map(|m| (m.full_name().replace(' ', "_"), &m.value))
        .collect();
    let mut deltas = Vec::new();
    for sample in &after.metrics {
        let key = sample.full_name().replace(' ', "_");
        let own = sample
            .labels
            .iter()
            .any(|(k, v)| k == "preset" && v == preset);
        match &sample.value {
            MetricValue::Counter(now) => {
                let prev = match old.get(&key) {
                    Some(MetricValue::Counter(v)) => *v,
                    _ => 0,
                };
                let grew = now.saturating_sub(prev);
                if grew > 0 || own {
                    deltas.push((key, grew));
                }
            }
            MetricValue::Gauge(now) => {
                let prev = match old.get(&key) {
                    Some(MetricValue::Gauge(v)) => Some(*v),
                    _ => None,
                };
                if own || prev != Some(*now) {
                    if let Ok(level) = u64::try_from(*now) {
                        deltas.push((key, level));
                    }
                }
            }
            MetricValue::Histogram(h) => {
                let (prev_count, prev_sum) = match old.get(&key) {
                    Some(MetricValue::Histogram(p)) => (p.count, p.sum),
                    _ => (0, 0),
                };
                let count = h.count.saturating_sub(prev_count);
                let sum = h.sum.saturating_sub(prev_sum);
                if count > 0 || own {
                    // Same key shape as `Snapshot::flat_fields`: the suffix
                    // goes on the name, before the labels.
                    let suffixed = |suffix: &str| {
                        let mut renamed = sample.clone();
                        renamed.name = format!("{}{suffix}", sample.name);
                        renamed.full_name().replace(' ', "_")
                    };
                    deltas.push((suffixed("_count"), count));
                    deltas.push((suffixed("_sum"), sum));
                }
            }
        }
    }
    deltas
}

/// Seeded random 3-SAT at clause/variable ratio 4.26 (the phase transition).
fn phase_transition_3sat(num_vars: usize, seed: u64) -> CnfFormula {
    let num_clauses = (num_vars as f64 * 4.26).round() as usize;
    random_3sat(num_vars, num_clauses, seed)
}

fn suite(smoke: bool) -> Vec<Instance> {
    let mut instances = Vec::new();
    // The full suite is a superset of the smoke suite, so the CI heap gate
    // compares every smoke row against a committed baseline row.
    let holes: &[usize] = if smoke { &[4] } else { &[4, 6, 7] };
    for &h in holes {
        instances.push(Instance {
            name: format!("php-{}-{}", h + 1, h),
            cnf: pigeonhole(h),
        });
    }
    let random: &[(usize, u64)] = if smoke {
        &[(25, 1)]
    } else {
        &[(25, 1), (125, 1), (125, 2), (125, 3)]
    };
    for &(n, seed) in random {
        instances.push(Instance {
            name: format!("r3sat-n{n}-s{seed}"),
            cnf: phase_transition_3sat(n, seed),
        });
    }
    // DLX correctness formulas (the paper's workload).
    let verifier = Verifier::new(TranslationOptions::default());
    if smoke {
        // Named like the full suite's row, so the CI heap gate compares it.
        let config = DlxConfig::single_issue();
        let spec = DlxSpecification::new(config);
        let translation = verifier.translate(&Dlx::correct(config), &spec);
        instances.push(Instance {
            name: format!("{}-correct", config.name()),
            cnf: translation.cnf,
        });
    } else {
        for config in [DlxConfig::single_issue(), DlxConfig::dual_issue_full()] {
            let spec = DlxSpecification::new(config);
            let translation = verifier.translate(&Dlx::correct(config), &spec);
            instances.push(Instance {
                name: format!("{}-correct", config.name()),
                cnf: translation.cnf,
            });
            for bug in bug_catalog(config).into_iter().take(2) {
                let translation = verifier.translate(&Dlx::buggy(config, bug), &spec);
                instances.push(Instance {
                    name: format!("{}-{bug:?}", config.name()),
                    cnf: translation.cnf,
                });
            }
        }
    }
    instances
}

fn run(instances: &[Instance], smoke: bool, profiler: Option<&Profiler>) -> Vec<Measurement> {
    let budget = if smoke {
        Budget::step_limit(20_000)
    } else {
        Budget {
            max_conflicts: Some(2_000_000),
            max_time: Some(Duration::from_secs(60)),
            ..Budget::default()
        }
    };
    type Preset = (&'static str, fn() -> CdclSolver);
    let presets: [Preset; 4] = [
        ("chaff", CdclSolver::chaff),
        ("berkmin", CdclSolver::berkmin),
        ("grasp", CdclSolver::grasp),
        ("sato", CdclSolver::sato),
    ];
    let mut measurements = Vec::new();
    for instance in instances {
        for (name, build) in presets {
            let mut solver = build();
            let recorder = profiler.map(|_| velv_obs::shared_recorder());
            let _recorder_guard = recorder.clone().map(velv_sat::install_solve_recorder);
            let before = velv_obs::global().snapshot();
            let meter = HeapMeter::start();
            let bench_span = profiler.map(|_| velv_obs::span("bench.solve"));
            let start = Instant::now();
            let result = solver.solve_with_budget(&instance.cnf, budget.clone());
            let time = start.elapsed().as_secs_f64();
            drop(bench_span);
            let (peak_heap_bytes, scope_deltas) = meter.finish();
            let mut metrics = registry_delta(&before, &velv_obs::global().snapshot(), name);
            metrics.extend(scope_deltas);
            let stats = solver.stats();
            let result = match result {
                SatResult::Sat(_) => "sat",
                SatResult::Unsat => "unsat",
                SatResult::Unknown(_) => "unknown",
            };
            if let (Some(profiler), Some(recorder)) = (profiler, &recorder) {
                let profile = profiler.write(name, &instance.name, result, time, &stats, recorder);
                let phase = profile
                    .phases
                    .first()
                    .map(|root| format!("{} {:.0}ms", root.name, root.total_us as f64 / 1e3))
                    .unwrap_or_else(|| "no spans".to_owned());
                println!(
                    "  profile {}/{}: {} samples (stride {}), {phase}",
                    name,
                    instance.name,
                    profile.samples.len(),
                    profile.stride
                );
            }
            measurements.push(Measurement {
                preset: name,
                instance: instance.name.clone(),
                result,
                time_s: time,
                conflicts: stats.conflicts,
                propagations: stats.propagations,
                decisions: stats.decisions,
                minimized_literals: stats.minimized_literals,
                conflicts_per_sec: stats.conflicts as f64 / time.max(1e-9),
                propagations_per_sec: stats.propagations as f64 / time.max(1e-9),
                peak_heap_bytes,
                metrics,
            });
        }
    }
    measurements
}

fn verdict_label(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Correct => "unsat",
        Verdict::Buggy(_) => "sat",
        Verdict::Unknown(_) => "unknown",
    }
}

/// Decomposition benchmark: every weak-criterion obligation translated and
/// checked with its own fresh chaff solver, measured end to end —
/// translation plus solving.
fn run_decomposition(measurements: &mut Vec<Measurement>, smoke: bool) {
    let configs: &[DlxConfig] = if smoke {
        &[DlxConfig::single_issue()]
    } else {
        &[DlxConfig::single_issue(), DlxConfig::dual_issue()]
    };
    let verifier = Verifier::new(TranslationOptions::default());
    let max_obligations = 8;
    for &config in configs {
        let spec = DlxSpecification::new(config);
        let problem = verifier.build_problem(&Dlx::correct(config), &spec);

        let meter = HeapMeter::start();
        let start = Instant::now();
        let translations = verifier.translate_obligations(&problem, max_obligations);
        let mut conflicts = 0;
        let mut propagations = 0;
        let mut decisions = 0;
        let mut minimized_literals = 0;
        let mut all_correct = true;
        for translation in &translations {
            let mut solver = CdclSolver::chaff();
            let verdict = verifier.check(translation, &mut solver, Budget::unlimited());
            all_correct &= verdict.is_correct();
            let stats = solver.stats();
            conflicts += stats.conflicts;
            propagations += stats.propagations;
            decisions += stats.decisions;
            minimized_literals += stats.minimized_literals;
        }
        let time = start.elapsed().as_secs_f64();
        let (peak_heap_bytes, scope_deltas) = meter.finish();
        measurements.push(Measurement {
            preset: "chaff-per-obligation",
            instance: format!("decompose-{}", config.name()),
            result: if all_correct { "unsat" } else { "mixed" },
            time_s: time,
            conflicts,
            propagations,
            decisions,
            minimized_literals,
            conflicts_per_sec: conflicts as f64 / time.max(1e-9),
            propagations_per_sec: propagations as f64 / time.max(1e-9),
            peak_heap_bytes,
            metrics: scope_deltas,
        });
    }
}

/// Transitivity benchmark: eager triangulated side constraints vs. lazy
/// refinement on one live engine, on the workloads whose encodings are
/// transitivity-heavy — the out-of-order cores, and the DLX pipelines with
/// positive equality disabled (every term variable general, so the
/// comparison graph is dense and the eager triangulation large).
fn run_transitivity(measurements: &mut Vec<Measurement>, smoke: bool) {
    let eager = Verifier::new(TranslationOptions::default());
    let lazy = Verifier::new(TranslationOptions::default().with_lazy_transitivity());
    let widths: &[usize] = if smoke { &[2] } else { &[2, 3] };
    for &width in widths {
        let implementation = Ooo::new(width);
        let spec = OooSpecification::new();
        transitivity_pair(
            measurements,
            &format!("ooo-{width}"),
            &eager,
            &lazy,
            &implementation,
            &spec,
        );
    }

    // Dense comparison graphs: the DLX without positive equality.  (The
    // dual-issue variant is excluded — ~50 s per arm with parity between the
    // modes, which would double the whole harness for no signal.)
    let eager_nope = Verifier::new(TranslationOptions::default().without_positive_equality());
    let lazy_nope = Verifier::new(
        TranslationOptions::default()
            .without_positive_equality()
            .with_lazy_transitivity(),
    );
    let configs: &[DlxConfig] = if smoke {
        &[]
    } else {
        &[DlxConfig::single_issue()]
    };
    for &config in configs {
        let spec = DlxSpecification::new(config);
        let implementation = Dlx::correct(config);
        transitivity_pair(
            measurements,
            &format!("nope-{}", config.name()),
            &eager_nope,
            &lazy_nope,
            &implementation,
            &spec,
        );
    }
}

/// One eager-vs-lazy measurement pair on a single design, end to end
/// (translation plus check — the lazy encoding also skips the triangulation
/// and its chord variables at translation time).
fn transitivity_pair(
    measurements: &mut Vec<Measurement>,
    instance: &str,
    eager: &Verifier,
    lazy: &Verifier,
    implementation: &dyn velv_hdl::Processor,
    spec: &dyn velv_hdl::Processor,
) {
    let meter = HeapMeter::start();
    let start = Instant::now();
    let eager_translation = eager.translate(implementation, spec);
    let mut solver = CdclSolver::chaff();
    let eager_verdict = eager.check(&eager_translation, &mut solver, Budget::unlimited());
    let time = start.elapsed().as_secs_f64();
    let (peak_heap_bytes, scope_deltas) = meter.finish();
    let stats = solver.stats();
    measurements.push(Measurement {
        preset: "chaff-eager-transitivity",
        instance: instance.to_owned(),
        result: verdict_label(&eager_verdict),
        time_s: time,
        conflicts: stats.conflicts,
        propagations: stats.propagations,
        decisions: stats.decisions,
        minimized_literals: stats.minimized_literals,
        conflicts_per_sec: stats.conflicts as f64 / time.max(1e-9),
        propagations_per_sec: stats.propagations as f64 / time.max(1e-9),
        peak_heap_bytes,
        metrics: scope_deltas,
    });

    let meter = HeapMeter::start();
    let start = Instant::now();
    let lazy_translation = lazy.translate(implementation, spec);
    let mut solver = CdclSolver::chaff();
    let lazy_verdict = lazy.check(&lazy_translation, &mut solver, Budget::unlimited());
    let time = start.elapsed().as_secs_f64();
    let (peak_heap_bytes, scope_deltas) = meter.finish();
    assert_eq!(
        eager_verdict.is_correct(),
        lazy_verdict.is_correct(),
        "lazy and eager transitivity must agree on {instance}"
    );
    let stats = solver.stats();
    measurements.push(Measurement {
        preset: "chaff-lazy-incremental",
        instance: instance.to_owned(),
        result: verdict_label(&lazy_verdict),
        time_s: time,
        conflicts: stats.conflicts,
        propagations: stats.propagations,
        decisions: stats.decisions,
        minimized_literals: stats.minimized_literals,
        conflicts_per_sec: stats.conflicts as f64 / time.max(1e-9),
        propagations_per_sec: stats.propagations as f64 / time.max(1e-9),
        peak_heap_bytes,
        metrics: scope_deltas,
    });
}

/// Certification benchmark: the overhead of DRAT proof logging on the DLX
/// correct-design proofs (plain chaff vs. proof-logging chaff) and the
/// independent checker's replay time.  The acceptance bar for the subsystem
/// is logging overhead within 2× of the plain solve on the 2×DLX proof.
/// The `drat-checker` row counts the checker's unit propagations in
/// `propagations` and, in `metrics`, the additions its hints settled and
/// the hint fallbacks — which `benchdiff` requires to be zero.
fn run_certify(measurements: &mut Vec<Measurement>, smoke: bool) {
    let configs: &[DlxConfig] = if smoke {
        &[DlxConfig::single_issue()]
    } else {
        &[DlxConfig::single_issue(), DlxConfig::dual_issue_full()]
    };
    let verifier = Verifier::new(TranslationOptions::default());
    for &config in configs {
        let spec = DlxSpecification::new(config);
        let translation = verifier.translate(&Dlx::correct(config), &spec);
        let instance = format!("certify-{}", config.name());

        let mut plain = CdclSolver::chaff();
        let meter = HeapMeter::start();
        let start = Instant::now();
        let plain_result = plain.solve_with_budget(&translation.cnf, Budget::unlimited());
        let plain_time = start.elapsed().as_secs_f64();
        let (peak_heap_bytes, scope_deltas) = meter.finish();
        assert!(plain_result.is_unsat(), "{instance}: correct design");
        let stats = plain.stats();
        measurements.push(Measurement {
            preset: "chaff-plain",
            instance: instance.clone(),
            result: "unsat",
            time_s: plain_time,
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            decisions: stats.decisions,
            minimized_literals: stats.minimized_literals,
            conflicts_per_sec: stats.conflicts as f64 / plain_time.max(1e-9),
            propagations_per_sec: stats.propagations as f64 / plain_time.max(1e-9),
            peak_heap_bytes,
            metrics: scope_deltas,
        });

        // Through the `Solver` trait hook, as a backend-agnostic caller would.
        let mut logging = CdclSolver::chaff();
        let shared = velv_sat::SharedProof::new();
        let meter = HeapMeter::start();
        let start = Instant::now();
        let logged_result = logging
            .solve_with_proof(&translation.cnf, Budget::unlimited(), &shared)
            .expect("the CDCL presets produce proofs");
        let logging_time = start.elapsed().as_secs_f64();
        let (peak_heap_bytes, scope_deltas) = meter.finish();
        assert!(logged_result.is_unsat(), "{instance}");
        let proof = shared.take();
        let stats = logging.stats();
        measurements.push(Measurement {
            preset: "chaff-proof-logging",
            instance: instance.clone(),
            result: "unsat",
            time_s: logging_time,
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            decisions: stats.decisions,
            minimized_literals: stats.minimized_literals,
            conflicts_per_sec: stats.conflicts as f64 / logging_time.max(1e-9),
            propagations_per_sec: stats.propagations as f64 / logging_time.max(1e-9),
            peak_heap_bytes,
            metrics: scope_deltas,
        });

        let clauses = velv_sat::dimacs::cnf_to_dimacs_i32(&translation.cnf);
        let steps = proof.len() as u64;
        let meter = HeapMeter::start();
        let start = Instant::now();
        let report =
            velv_proof::check_proof(&clauses, &proof, &velv_proof::CheckOptions::default())
                .unwrap_or_else(|e| panic!("{instance}: proof rejected: {e}"));
        let check_time = start.elapsed().as_secs_f64();
        let (peak_heap_bytes, scope_deltas) = meter.finish();
        assert!(report.derived_empty, "{instance}");
        let mut metrics = vec![
            (
                "proof_hinted_additions".to_owned(),
                report.hinted_additions as u64,
            ),
            (
                "proof_hint_fallbacks".to_owned(),
                report.hint_fallbacks as u64,
            ),
        ];
        metrics.extend(scope_deltas);
        measurements.push(Measurement {
            preset: "drat-checker",
            instance,
            result: "verified",
            time_s: check_time,
            conflicts: steps, // proof steps replayed, in the conflicts column
            propagations: report.propagations,
            decisions: 0,
            minimized_literals: 0,
            conflicts_per_sec: steps as f64 / check_time.max(1e-9),
            propagations_per_sec: report.propagations as f64 / check_time.max(1e-9),
            peak_heap_bytes,
            metrics,
        });
    }
}

/// Translation benchmark: the EUFM → CNF translation of one built problem,
/// timed and heap-metered without the symbolic simulation that builds it.
/// The row's `metrics` carry the CNF's deterministic size counters, which
/// `benchdiff` requires to equal the baseline row's.
fn run_translate(measurements: &mut Vec<Measurement>, smoke: bool) {
    let verifier = Verifier::new(TranslationOptions::default());
    let (dlx, vliw) = (DlxConfig::dual_issue_full(), VliwConfig::with_exceptions());
    let build_dlx = || verifier.build_problem(&Dlx::correct(dlx), &DlxSpecification::new(dlx));
    let build_vliw = || verifier.build_problem(&Vliw::correct(vliw), &VliwSpecification::new(vliw));
    let designs: &[&dyn Fn() -> velv_core::VerificationProblem] = if smoke {
        &[&build_dlx]
    } else {
        &[&build_dlx, &build_vliw]
    };
    for build in designs {
        let problem = build();
        let meter = HeapMeter::start();
        let start = Instant::now();
        let translation = verifier.translate_problem(&problem);
        let time = start.elapsed().as_secs_f64();
        let (peak_heap_bytes, scope_deltas) = meter.finish();
        let stats = translation.stats;
        let mut metrics = vec![
            ("cnf_vars".to_owned(), stats.cnf_vars as u64),
            ("cnf_clauses".to_owned(), stats.cnf_clauses as u64),
            ("eij_vars".to_owned(), stats.eij_vars as u64),
            ("triangles".to_owned(), stats.transitivity_triangles as u64),
        ];
        metrics.extend(scope_deltas);
        measurements.push(Measurement {
            preset: "translate",
            instance: format!("{}-correct", problem.name),
            result: "translated",
            time_s: time,
            conflicts: 0,
            propagations: 0,
            decisions: 0,
            minimized_literals: 0,
            conflicts_per_sec: 0.0,
            propagations_per_sec: 0.0,
            peak_heap_bytes,
            metrics,
        });
    }
}

/// One measured phase of the serve benchmark.
struct ServeSweep {
    label: &'static str,
    jobs: usize,
    seconds: f64,
    jobs_per_sec: f64,
}

/// Serving-layer benchmark (see the module docs): returns the measured
/// sweeps plus the service's final registry snapshot.
fn run_serve(smoke: bool) -> (Vec<ServeSweep>, velv_obs::Snapshot, usize) {
    use velv_serve::{JobSpec, ModelRef, ServeHandle, ServiceConfig};

    let workers = if smoke { 2 } else { 4 };
    let service = ServeHandle::start(
        ServiceConfig::default()
            .with_workers(workers)
            .with_cache_bytes(256 << 20),
    );
    let bugs = if smoke { 2 } else { 12 };
    let catalog = || -> Vec<JobSpec> {
        let mut specs = vec![JobSpec::new(ModelRef::dlx1_correct())];
        for bug in 0..bugs {
            specs.push(JobSpec::new(ModelRef::dlx1_bug(bug)));
        }
        specs
    };
    let catalog_jobs = catalog().len();
    let mut sweeps = Vec::new();

    // Cold sweep: unique fingerprints, one batch whose entries each run as a
    // single job.
    let start = Instant::now();
    let tickets = service.submit_batch(catalog()).expect("batch accepted");
    for ticket in &tickets {
        let result = ticket.wait();
        assert!(
            !matches!(result.verdict, Verdict::Unknown(_)),
            "cold sweep job {} came back undecided",
            result.name
        );
    }
    let seconds = start.elapsed().as_secs_f64();
    sweeps.push(ServeSweep {
        label: "cold-batch",
        jobs: catalog_jobs,
        seconds,
        jobs_per_sec: catalog_jobs as f64 / seconds.max(1e-9),
    });

    // Warm sweep: identical fingerprints, served from the cache.
    let start = Instant::now();
    let tickets = service.submit_batch(catalog()).expect("batch accepted");
    for ticket in &tickets {
        assert!(ticket.wait().from_cache, "warm sweep must hit the cache");
    }
    let seconds = start.elapsed().as_secs_f64();
    sweeps.push(ServeSweep {
        label: "warm-batch",
        jobs: catalog_jobs,
        seconds,
        jobs_per_sec: catalog_jobs as f64 / seconds.max(1e-9),
    });

    // Concurrent warm re-sweep: several client threads hammer the cache.
    let clients = if smoke { 2 } else { 4 };
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let service = service.clone();
            let specs = catalog();
            scope.spawn(move || {
                for spec in specs {
                    let result = service.submit(spec).expect("accepted").wait();
                    assert!(result.from_cache);
                }
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    let jobs = clients * catalog_jobs;
    sweeps.push(ServeSweep {
        label: "warm-concurrent",
        jobs,
        seconds,
        jobs_per_sec: jobs as f64 / seconds.max(1e-9),
    });

    // Shut down first so the worker gauges have settled before the snapshot.
    service.shutdown();
    (sweeps, service.registry_snapshot(), workers)
}

/// A service counter read from a registry snapshot by its wire name.
fn serve_counter(snapshot: &velv_obs::Snapshot, name: &str) -> u64 {
    snapshot
        .counter(name)
        .unwrap_or_else(|| panic!("the service registers no counter {name}"))
}

/// The verdict cache's hit ratio over all lookups (0 when none were made).
fn cache_hit_ratio(snapshot: &velv_obs::Snapshot) -> f64 {
    let hits = serve_counter(snapshot, "velv_serve_cache_lookup_hits_total");
    let misses = serve_counter(snapshot, "velv_serve_cache_lookup_misses_total");
    hits as f64 / (hits + misses).max(1) as f64
}

/// One measured phase of the persistence benchmark.
struct PersistRow {
    label: String,
    records: usize,
    seconds: f64,
    per_sec: f64,
}

/// Persistence benchmark: raw verdict-store append throughput under each
/// fsync policy, the recovery scan rate, and a full service warm boot
/// (restart + log replay + cache-served catalog) — the durability costs a
/// `velvd --store` deployment actually pays.
fn run_persist(smoke: bool) -> Vec<PersistRow> {
    use velv_serve::{JobSpec, ModelRef, ServeHandle, ServiceConfig};
    use velv_store::{FsyncPolicy, Store, StoreConfig};

    let mut rows = Vec::new();
    let base = std::env::temp_dir().join(format!("velv_bench_persist_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // A representative payload: the encoded form of a decided verdict is a
    // few hundred bytes; every 8th record carries a 4 KiB DRAT sidecar.
    let payload = vec![0x56u8; 240];
    let sidecar = vec![0x44u8; 4 << 10];
    let policies: [(&str, FsyncPolicy, usize); 3] = [
        (
            "append-fsync-always",
            FsyncPolicy::Always,
            if smoke { 16 } else { 256 },
        ),
        (
            "append-fsync-every-8",
            FsyncPolicy::EveryN(8),
            if smoke { 64 } else { 1024 },
        ),
        (
            "append-fsync-os",
            FsyncPolicy::Os,
            if smoke { 256 } else { 8192 },
        ),
    ];
    let mut scan_dir = None;
    let mut scan_records = 0usize;
    for (label, fsync, records) in policies {
        let dir = base.join(label);
        let mut config = StoreConfig::new(&dir);
        config.fsync = fsync;
        let (store, _) = Store::open(config).expect("open bench store");
        let start = Instant::now();
        for i in 0..records {
            let side = if i % 8 == 0 {
                Some(sidecar.as_slice())
            } else {
                None
            };
            store
                .append(i as u128, &payload, side)
                .expect("bench append");
        }
        store.sync().expect("bench sync");
        let seconds = start.elapsed().as_secs_f64();
        rows.push(PersistRow {
            label: label.to_owned(),
            records,
            seconds,
            per_sec: records as f64 / seconds.max(1e-9),
        });
        // The largest log doubles as the recovery-scan instance.
        if records > scan_records {
            scan_records = records;
            scan_dir = Some(dir);
        }
    }

    // Recovery scan: reopen the largest log and time the boot-path scan that
    // rebuilds the index (recorded by the store itself).
    let (_store, report) =
        Store::open(StoreConfig::new(scan_dir.expect("a scan log"))).expect("reopen bench store");
    let seconds = report.scan_time.as_secs_f64();
    rows.push(PersistRow {
        label: "recovery-scan".to_owned(),
        records: report.records as usize,
        seconds,
        per_sec: report.records as f64 / seconds.max(1e-9),
    });

    // Service warm boot: decide a small catalog with a store attached, kill
    // the service, restart on the same directory and re-sweep.  The restart
    // must replay every decided verdict and serve the sweep from cache.
    let store_dir = base.join("service");
    let catalog = |bugs: usize| -> Vec<JobSpec> {
        let mut specs = vec![JobSpec::new(ModelRef::dlx1_correct())];
        for bug in 0..bugs {
            specs.push(JobSpec::new(ModelRef::dlx1_bug(bug)));
        }
        specs
    };
    let bugs = if smoke { 2 } else { 6 };
    let config = || {
        let mut config = ServiceConfig::default().with_workers(if smoke { 2 } else { 4 });
        config.store_dir = Some(store_dir.clone());
        config
    };
    let service = ServeHandle::try_start(config()).expect("start with a store");
    let tickets = service.submit_batch(catalog(bugs)).expect("batch accepted");
    for ticket in &tickets {
        assert!(
            !matches!(ticket.wait().verdict, Verdict::Unknown(_)),
            "persist sweep job came back undecided"
        );
    }
    let persisted = serve_counter(
        &service.registry_snapshot(),
        "velv_serve_verdicts_persisted_total",
    );
    service.shutdown();
    drop(service);

    let start = Instant::now();
    let service = ServeHandle::try_start(config()).expect("warm restart");
    for ticket in &service.submit_batch(catalog(bugs)).expect("batch accepted") {
        assert!(ticket.wait().from_cache, "warm boot must serve from cache");
    }
    let seconds = start.elapsed().as_secs_f64();
    let snapshot = service.registry_snapshot();
    assert_eq!(
        serve_counter(&snapshot, "velv_serve_warm_boot_replayed_total"),
        persisted,
        "every persisted verdict replays"
    );
    assert_eq!(
        serve_counter(&snapshot, "velv_serve_fresh_solves_total"),
        0,
        "warm boot re-solves nothing"
    );
    service.shutdown();
    rows.push(PersistRow {
        label: "warm-boot-replay".to_owned(),
        records: persisted as usize,
        seconds,
        per_sec: persisted as f64 / seconds.max(1e-9),
    });

    let _ = std::fs::remove_dir_all(&base);
    rows
}

fn write_serve_json(
    path: &str,
    sweeps: &[ServeSweep],
    persist: &[PersistRow],
    snapshot: &velv_obs::Snapshot,
    workers: usize,
    smoke: bool,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"harness\": \"satbench-serve\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"workers\": {workers},\n"));
    out.push_str("  \"sweeps\": [\n");
    for (i, sweep) in sweeps.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"jobs\": {}, \"seconds\": {:.6}, \"jobs_per_sec\": {:.2}}}{}\n",
            sweep.label,
            sweep.jobs,
            sweep.seconds,
            sweep.jobs_per_sec,
            if i + 1 < sweeps.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"persist\": [\n");
    for (i, row) in persist.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"records\": {}, \"seconds\": {:.6}, \"records_per_sec\": {:.2}}}{}\n",
            row.label,
            row.records,
            row.seconds,
            row.per_sec,
            if i + 1 < persist.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    // The service's registry under its wire names, as `velvc stats` shows it.
    let fields: Vec<String> = snapshot
        .flat_fields()
        .iter()
        .map(|(key, value)| format!("    {}: {value}", quoted(key)))
        .collect();
    out.push_str(&format!(
        "  \"metrics\": {{\n{}\n  }},\n",
        fields.join(",\n")
    ));
    out.push_str(&format!(
        "  \"cache_hit_ratio\": {:.4}\n}}\n",
        cache_hit_ratio(snapshot)
    ));
    std::fs::write(path, out)
}

fn write_json(path: &str, measurements: &[Measurement], smoke: bool) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"harness\": \"satbench\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let metrics = if m.metrics.is_empty() {
            String::new()
        } else {
            let entries: Vec<String> = m
                .metrics
                .iter()
                .map(|(key, value)| format!("{}: {value}", quoted(key)))
                .collect();
            format!(", \"metrics\": {{{}}}", entries.join(", "))
        };
        out.push_str(&format!(
            "    {{\"preset\": {}, \"instance\": {}, \"result\": \"{}\", \
             \"time_s\": {:.6}, \"conflicts\": {}, \"propagations\": {}, \
             \"decisions\": {}, \"minimized_literals\": {}, \"conflicts_per_sec\": {:.1}, \
             \"propagations_per_sec\": {:.1}, \"peak_heap_bytes\": {}{}}}{}\n",
            quoted(m.preset),
            quoted(&m.instance),
            m.result,
            m.time_s,
            m.conflicts,
            m.propagations,
            m.decisions,
            m.minimized_literals,
            m.conflicts_per_sec,
            m.propagations_per_sec,
            m.peak_heap_bytes,
            metrics,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_cdcl.json".to_owned());
    let serve_out_path = flag_value("--serve-out").unwrap_or_else(|| "BENCH_serve.json".to_owned());
    let trace_path = flag_value("--trace");
    let only = flag_value("--only");
    // `persist` rides with the serve suite: both land in the serve JSON, so
    // regenerating one without the other would commit a half-empty file.
    let run_cdcl_suites = only.as_deref().is_none_or(|o| o == "cdcl");
    let run_serve_suite = only
        .as_deref()
        .is_none_or(|o| o == "serve" || o == "persist");
    if let Some(other) = only.as_deref() {
        if other != "cdcl" && other != "serve" && other != "persist" {
            eprintln!("satbench: unknown --only {other} (want cdcl, serve or persist)");
            std::process::exit(2);
        }
    }

    // Sink wiring: `--trace` alone installs the JSONL file sink as before;
    // `--profile` installs a `ProfileSink` (teeing to the file sink when both
    // are given) so per-solve phase trees can be extracted without replaying
    // the trace.
    let file_sink = trace_path
        .as_ref()
        .map(|path| match velv_obs::JsonlFileSink::create(path) {
            Ok(sink) => {
                println!("satbench: tracing to {path}");
                std::sync::Arc::new(sink)
            }
            Err(e) => {
                eprintln!("satbench: cannot create trace file {path}: {e}");
                std::process::exit(1);
            }
        });
    let profiler = flag_value("--profile").map(|dir| {
        let dir = std::path::PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("satbench: cannot create profile dir {}: {e}", dir.display());
            std::process::exit(1);
        }
        let sink = std::sync::Arc::new(match &file_sink {
            Some(inner) => velv_obs::ProfileSink::with_inner(inner.clone()),
            None => velv_obs::ProfileSink::new(),
        });
        println!("satbench: writing solve profiles to {}", dir.display());
        Profiler { dir, sink }
    });
    match (&profiler, &file_sink) {
        (Some(profiler), _) => velv_obs::install_sink(profiler.sink.clone()),
        (None, Some(sink)) => velv_obs::install_sink(sink.clone()),
        (None, None) => {}
    }

    if run_cdcl_suites {
        // Translation first: its peak heap then holds nothing of the suite,
        // so a smoke row and a full-suite row measure the same region.
        let mut measurements = Vec::new();
        run_translate(&mut measurements, smoke);
        let instances = suite(smoke);
        println!(
            "satbench: {} instances x 4 presets{}",
            instances.len(),
            if smoke { " (smoke)" } else { "" }
        );
        measurements.extend(run(&instances, smoke, profiler.as_ref()));
        run_decomposition(&mut measurements, smoke);
        run_transitivity(&mut measurements, smoke);
        run_certify(&mut measurements, smoke);
        println!(
            "{:<28} {:<8} {:>8} {:>10} {:>12} {:>14} {:>10} {:>12}",
            "instance", "preset", "result", "time (s)", "confl/s", "props/s", "peak-kb", "min-lits"
        );
        for m in &measurements {
            println!(
                "{:<28} {:<8} {:>8} {:>10.3} {:>12.0} {:>14.0} {:>10} {:>12}",
                m.instance,
                m.preset,
                m.result,
                m.time_s,
                m.conflicts_per_sec,
                m.propagations_per_sec,
                m.peak_heap_bytes >> 10,
                m.minimized_literals,
            );
        }
        match write_json(&out_path, &measurements, smoke) {
            Ok(()) => println!("wrote {out_path}"),
            Err(e) => {
                eprintln!("failed to write {out_path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if run_serve_suite {
        println!(
            "satbench: serve throughput sweep{}",
            if smoke { " (smoke)" } else { "" }
        );
        let (sweeps, snapshot, workers) = run_serve(smoke);
        println!(
            "{:<18} {:>6} {:>10} {:>12}",
            "sweep", "jobs", "time (s)", "jobs/s"
        );
        for sweep in &sweeps {
            println!(
                "{:<18} {:>6} {:>10.3} {:>12.1}",
                sweep.label, sweep.jobs, sweep.seconds, sweep.jobs_per_sec
            );
        }
        let hits = serve_counter(&snapshot, "velv_serve_cache_lookup_hits_total");
        let misses = serve_counter(&snapshot, "velv_serve_cache_lookup_misses_total");
        println!(
            "cache hits {hits} / lookups {} (ratio {:.2}), dedup joins {}, fresh solves {}",
            hits + misses,
            cache_hit_ratio(&snapshot),
            serve_counter(&snapshot, "velv_serve_dedup_joins_total"),
            serve_counter(&snapshot, "velv_serve_fresh_solves_total"),
        );
        assert!(
            cache_hit_ratio(&snapshot) > 0.0,
            "the repeated catalog sweep must produce cache hits"
        );
        println!(
            "satbench: persistence sweep{}",
            if smoke { " (smoke)" } else { "" }
        );
        let persist = run_persist(smoke);
        println!(
            "{:<22} {:>8} {:>10} {:>14}",
            "phase", "records", "time (s)", "records/s"
        );
        for row in &persist {
            println!(
                "{:<22} {:>8} {:>10.3} {:>14.1}",
                row.label, row.records, row.seconds, row.per_sec
            );
        }
        match write_serve_json(
            &serve_out_path,
            &sweeps,
            &persist,
            &snapshot,
            workers,
            smoke,
        ) {
            Ok(()) => println!("wrote {serve_out_path}"),
            Err(e) => {
                eprintln!("failed to write {serve_out_path}: {e}");
                std::process::exit(1);
            }
        }
    }

    // Drain the tracer and self-check the capture: the harness is a single
    // process whose worker threads have all exited, so every span must have
    // closed and reached the file.
    if profiler.is_some() || trace_path.is_some() {
        velv_obs::uninstall_sink();
    }
    if let Some(path) = &trace_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("satbench: cannot read back trace file {path}: {e}");
            std::process::exit(1);
        });
        match velv_obs::check_trace(&text) {
            Ok(summary) => {
                assert!(
                    summary.records > 0,
                    "the traced run must produce trace records"
                );
                assert_eq!(
                    summary.unclosed, 0,
                    "a fully drained single-process trace leaves no span open"
                );
                println!(
                    "trace {path}: {} records ({} spans, {} events), all spans closed",
                    summary.records, summary.spans_opened, summary.events
                );
            }
            Err(e) => {
                eprintln!("satbench: malformed trace capture {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::registry_delta;
    use velv_obs::{MetricSample, MetricValue, Snapshot};

    fn sample(name: &str, preset: &str, value: MetricValue) -> MetricSample {
        MetricSample {
            name: name.to_owned(),
            labels: vec![("preset".to_owned(), preset.to_owned())],
            help: String::new(),
            value,
        }
    }

    #[test]
    fn unchanged_preset_gauges_still_appear_in_the_row() {
        let snapshot = |conflicts| Snapshot {
            metrics: vec![
                sample("velv_sat_arena_bytes", "sato", MetricValue::Gauge(4096)),
                sample("velv_sat_arena_bytes", "chaff", MetricValue::Gauge(512)),
                sample("velv_sat_restarts_total", "sato", MetricValue::Counter(3)),
                sample(
                    "velv_sat_conflicts_total",
                    "sato",
                    MetricValue::Counter(conflicts),
                ),
            ],
        };
        let row = registry_delta(&snapshot(10), &snapshot(25), "sato");
        let value = |key: &str| row.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
        assert_eq!(value("velv_sat_arena_bytes{preset=\"sato\"}"), Some(4096));
        assert_eq!(value("velv_sat_restarts_total{preset=\"sato\"}"), Some(0));
        assert_eq!(value("velv_sat_conflicts_total{preset=\"sato\"}"), Some(15));
        assert_eq!(
            value("velv_sat_arena_bytes{preset=\"chaff\"}"),
            None,
            "another preset's unmoved gauge stays out of the row"
        );
    }
}
