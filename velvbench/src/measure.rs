//! Running a workload: set-up, timed passes over its jobs, and the traced
//! run's per-layer accounting.
//!
//! A pass runs every job of the workload once, one at a time, and checks
//! each verdict against the oracle.  Runs repeat whole passes until the
//! time budget would be exceeded (always at least one), so every run does
//! the same work whatever its length.  Service workloads start a fresh
//! service for each pass, outside the pass's clock, so every pass sees the
//! same cache and deduplication behaviour.
//!
//! Layers are timed from outside: the traced run wraps the calls into each
//! layer in `bench.*` spans opened here, and folds them together with the
//! spans the program already emits (`translate.*`, `serve.*`) through
//! [`velv_obs::ProfileSink`].  Nothing is added inside the program.

use crate::report::{median, quantile, Metric, Report, Tail, END_TO_END, PER_LAYER};
use crate::workload::{self, Criterion, Expect, Job, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use velv_core::{
    Certificate, CertifyOptions, Translation, TranslationOptions, TranslationStats, Verdict,
    Verifier,
};
use velv_eufm::Fingerprint;
use velv_obs::{MemorySink, PhaseNode, ProfileSink, SpanGuard};
use velv_sat::cdcl::{CdclConfig, CdclSolver};
use velv_sat::Budget;
use velv_serve::{JobResult, JobSpec, ServeHandle, ServiceConfig};

/// Set-up runs per benchmark run; `setup_s` is their median.  One set-up
/// takes ≈ 0.3 s, short enough to fall inside one burst of the host's
/// load: with five per run, `setup_s` spread by up to 41% (quartile
/// distance over median) across ten runs; with nine, by up to 19%.
const SETUP_REPEATS: usize = 9;

/// The traced run fails when the layers leave more than this share of its
/// wall untimed.
const MAX_UNTIMED_PCT: f64 = 10.0;

/// What to run.
#[derive(Clone, Debug)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Seed of the job order.
    pub seed: u64,
    /// Measurement budget.  The traced run splits it between an untraced
    /// and a traced half.
    pub budget: Duration,
    /// Report the per-layer metrics of a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Shrink every workload to the single-issue DLX and run one pass.
    pub smoke: bool,
}

/// Work counted over one pass.
#[derive(Clone, Copy, Debug, Default)]
struct Work {
    cnf_vars: u64,
    cnf_clauses: u64,
    eij_vars: u64,
    triangles: u64,
    proof_steps: u64,
    /// Proof replay and counterexample validation time reported by the
    /// certificates.
    check: Duration,
    submitted: u64,
    cache_hits: u64,
    dedup_joins: u64,
    counters: Counters,
}

impl Work {
    fn add_translation(&mut self, stats: &TranslationStats) {
        self.cnf_vars += stats.cnf_vars as u64;
        self.cnf_clauses += stats.cnf_clauses as u64;
        self.eij_vars += stats.eij_vars as u64;
        self.triangles += stats.transitivity_triangles as u64;
    }

    fn add(&mut self, other: &Work) {
        self.cnf_vars += other.cnf_vars;
        self.cnf_clauses += other.cnf_clauses;
        self.eij_vars += other.eij_vars;
        self.triangles += other.triangles;
        self.proof_steps += other.proof_steps;
        self.check += other.check;
        self.submitted += other.submitted;
        self.cache_hits += other.cache_hits;
        self.dedup_joins += other.dedup_joins;
        self.counters.add(other.counters);
    }
}

/// One pass over the jobs.
#[derive(Debug, Default)]
struct Pass {
    wall: Duration,
    /// Seconds from request to verdict, in job order.
    latencies: Vec<f64>,
    failures: Vec<String>,
    work: Work,
}

impl Pass {
    fn judge(&mut self, job: &Job, outcome: Result<Verdict, String>) {
        let got = match outcome {
            Ok(Verdict::Correct) => Expect::Correct,
            Ok(Verdict::Buggy(_)) => Expect::Buggy,
            Ok(Verdict::Unknown(reason)) => {
                self.failures
                    .push(format!("{}: undecided ({reason})", job.name()));
                return;
            }
            Err(error) => {
                self.failures.push(format!("{}: {error}", job.name()));
                return;
            }
        };
        if got != job.expect {
            self.failures.push(format!(
                "{}: expected {:?}, got {got:?}",
                job.name(),
                job.expect
            ));
        }
    }
}

fn span(traced: bool, name: &'static str) -> Option<SpanGuard> {
    traced.then(|| velv_obs::span(name))
}

fn job_span(traced: bool, name: String) -> Option<SpanGuard> {
    traced.then(|| velv_obs::span_fields("bench.job", &[("job", name.into())]))
}

fn run_pass(workload: Workload, jobs: &[Job], traced: bool) -> Pass {
    match workload {
        Workload::Proof | Workload::BugSweep => direct_pass(jobs, traced, false),
        Workload::Certify => direct_pass(jobs, traced, true),
        Workload::ServeCatalog => serve_pass(jobs, traced),
        Workload::ServeBatch => batch_pass(jobs, traced),
    }
}

/// Calls the `velv_core` flow directly: build, translate, then check with
/// chaff (or certify with `CertifyOptions::full()`).
fn direct_pass(jobs: &[Job], traced: bool, certified: bool) -> Pass {
    let verifier = Verifier::new(TranslationOptions::default());
    let mut pass = Pass::default();
    let start = Instant::now();
    for job in jobs {
        let job_start = Instant::now();
        let job_span = job_span(traced, job.name());
        let problem = {
            let _span = span(traced, "bench.admit");
            let (implementation, specification) = job
                .model
                .build()
                .expect("workload models come from the catalogs");
            verifier.build_problem(implementation.as_ref(), specification.as_ref())
        };
        let translations = {
            let _span = span(traced, "bench.translate");
            match job.criterion {
                Criterion::Monolithic => vec![verifier.translate_problem(&problem)],
                Criterion::Weak(bound) => verifier.translate_obligations(&problem, bound),
            }
        };
        let mut outcome = Ok(Verdict::Correct);
        for translation in &translations {
            pass.work.add_translation(&translation.stats);
            let verdict = if certified {
                certify(&verifier, translation, traced, &mut pass.work)
            } else {
                let _span = span(traced, "bench.solve");
                let mut solver = CdclSolver::chaff();
                Ok(verifier.check(translation, &mut solver, Budget::unlimited()))
            };
            // The design is correct iff every obligation is; the first
            // counterexample or error decides it.
            if !matches!(verdict, Ok(Verdict::Correct)) {
                outcome = verdict;
                break;
            }
        }
        pass.latencies.push(job_start.elapsed().as_secs_f64());
        // Freeing the expression DAGs and CNFs after the verdict is the
        // translation layer's cost too.
        let teardown = span(traced, "bench.translate");
        drop((problem, translations));
        drop(teardown);
        drop(job_span);
        pass.judge(job, outcome);
    }
    pass.wall = start.elapsed();
    pass
}

fn certify(
    verifier: &Verifier,
    translation: &Translation,
    traced: bool,
    work: &mut Work,
) -> Result<Verdict, String> {
    let _span = span(traced, "bench.certify");
    let (certified, _) = verifier
        .check_certified(
            translation,
            CdclConfig::chaff(),
            &CertifyOptions::full(),
            Budget::unlimited(),
        )
        .map_err(|e| e.to_string())?;
    match &certified.certificate {
        Certificate::Unsat(proof) => {
            work.proof_steps += proof.proof_steps as u64;
            work.check += proof.check_time;
        }
        Certificate::Sat(model) => work.check += model.check_time,
        Certificate::Unchecked(reason) => return Err(format!("not certified: {reason}")),
    }
    Ok(certified.verdict)
}

/// One worker, as `workers` would otherwise default to the core count; the
/// cache holds every verdict of a pass.
fn start_service() -> ServeHandle {
    ServeHandle::start(
        ServiceConfig::default()
            .with_workers(1)
            .with_cache_bytes(256 << 20),
    )
}

/// Counts the service's work and the translations of its fresh jobs, then
/// shuts it down (joining the worker, so its spans are closed).
fn retire_service(handle: ServeHandle, fresh: &[Fingerprint], work: &mut Work) {
    let stats = handle.stats();
    work.submitted += stats.submitted;
    work.cache_hits += stats.cache_hits;
    work.dedup_joins += stats.dedup_joins;
    for &fingerprint in fresh {
        if let Some(stats) = handle
            .cached(fingerprint)
            .and_then(|entry| entry.translation_stats)
        {
            work.add_translation(&stats);
        }
    }
    handle.shutdown();
}

fn is_fresh(result: &JobResult) -> bool {
    !result.from_cache && !result.deduplicated
}

/// A closed-loop client: submits one job, waits for its verdict, submits
/// the next.
fn serve_pass(jobs: &[Job], traced: bool) -> Pass {
    let handle = start_service();
    let mut pass = Pass::default();
    let mut fresh = Vec::new();
    let start = Instant::now();
    for job in jobs {
        let job_start = Instant::now();
        let job_span = job_span(traced, job.name());
        let submitted = {
            let _span = span(traced, "bench.submit");
            handle.submit(JobSpec::new(job.model))
        };
        let outcome = submitted.map_err(|e| e.to_string()).map(|ticket| {
            let _span = span(traced, "bench.wait");
            (ticket.fingerprint(), ticket.wait())
        });
        drop(job_span);
        pass.latencies.push(job_start.elapsed().as_secs_f64());
        let outcome = outcome.map(|(fingerprint, result)| {
            if is_fresh(&result) {
                fresh.push(fingerprint);
            }
            result.verdict
        });
        pass.judge(job, outcome);
    }
    pass.wall = start.elapsed();
    retire_service(handle, &fresh, &mut pass.work);
    pass
}

/// The whole job list as one `submit_batch`; each job's latency runs from
/// the batch call to its verdict.
fn batch_pass(jobs: &[Job], traced: bool) -> Pass {
    let handle = start_service();
    let specs: Vec<JobSpec> = jobs.iter().map(|job| JobSpec::new(job.model)).collect();
    let mut pass = Pass::default();
    let mut fresh = Vec::new();
    let start = Instant::now();
    let batch_span = job_span(traced, format!("batch of {}", jobs.len()));
    let submitted = {
        let _span = span(traced, "bench.submit");
        handle.submit_batch(specs)
    };
    match submitted {
        Ok(tickets) => {
            for (job, ticket) in jobs.iter().zip(&tickets) {
                let result = {
                    let _span = span(traced, "bench.wait");
                    ticket.wait()
                };
                pass.latencies.push(start.elapsed().as_secs_f64());
                // Every entry of the shared session carries the session's
                // statistics: count them once.
                if fresh.is_empty() && is_fresh(&result) {
                    fresh.push(ticket.fingerprint());
                }
                pass.judge(job, Ok(result.verdict));
            }
        }
        Err(error) => {
            for job in jobs {
                pass.latencies.push(start.elapsed().as_secs_f64());
                pass.judge(job, Err(error.to_string()));
            }
        }
    }
    drop(batch_span);
    pass.wall = start.elapsed();
    retire_service(handle, &fresh, &mut pass.work);
    pass
}

/// Solver and translation counters of the process-wide registry.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    conflicts: u64,
    propagations: u64,
    decisions: u64,
    translations: u64,
}

impl Counters {
    fn read() -> Counters {
        let snapshot = velv_obs::global().snapshot();
        let sum = |name: &str| -> u64 {
            snapshot
                .metrics
                .iter()
                .filter(|m| m.name == name)
                .filter_map(|m| m.value.as_u64())
                .sum()
        };
        Counters {
            conflicts: sum("velv_sat_conflicts_total"),
            propagations: sum("velv_sat_propagations_total"),
            decisions: sum("velv_sat_decisions_total"),
            translations: sum("velv_core_translations_total"),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            conflicts: self.conflicts - before.conflicts,
            propagations: self.propagations - before.propagations,
            decisions: self.decisions - before.decisions,
            translations: self.translations - before.translations,
        }
    }

    fn add(&mut self, other: Counters) {
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.decisions += other.decisions;
        self.translations += other.translations;
    }
}

/// Microseconds per span name, summed over the folded phase trees.
#[derive(Debug, Default)]
struct SpanTotals(BTreeMap<String, u64>);

impl SpanTotals {
    fn add(&mut self, nodes: &[PhaseNode]) {
        for node in nodes {
            *self.0.entry(node.name.clone()).or_default() += node.total_us;
            self.add(&node.children);
        }
    }

    fn micros(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// The traced run's span capture: a profile sink folding the spans, teeing
/// every line into memory for the JSONL file.
struct Tracer {
    sink: Arc<ProfileSink>,
    lines: Arc<MemorySink>,
}

impl Tracer {
    fn install() -> Tracer {
        let lines = Arc::new(MemorySink::new());
        let sink = Arc::new(ProfileSink::with_inner(lines.clone()));
        velv_obs::install_sink(sink.clone());
        Tracer { sink, lines }
    }

    fn fold(&self, totals: &mut SpanTotals) {
        velv_obs::flush();
        totals.add(&self.sink.take_roots());
    }

    /// Uninstalls the sink, writes the JSONL and checks that every span
    /// closed.
    fn finish(self, path: &Path) -> Result<(), String> {
        velv_obs::uninstall_sink();
        let mut text = self.lines.contents();
        text.push('\n');
        std::fs::write(path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let summary = velv_obs::check_trace(&text)?;
        if summary.unclosed != 0 {
            return Err(format!(
                "{}: {} spans never closed",
                path.display(),
                summary.unclosed
            ));
        }
        Ok(())
    }
}

/// The passes of one measured phase.
#[derive(Debug, Default)]
struct Phase {
    passes: Vec<Pass>,
    spans: SpanTotals,
}

impl Phase {
    /// Runs whole passes until the next one would overrun `budget`.
    fn run(workload: Workload, jobs: &[Job], budget: Duration, tracer: Option<&Tracer>) -> Phase {
        let mut phase = Phase::default();
        let start = Instant::now();
        loop {
            let pass_start = Instant::now();
            let before = Counters::read();
            let mut pass = run_pass(workload, jobs, tracer.is_some());
            pass.work.counters = Counters::read().since(before);
            phase.passes.push(pass);
            if let Some(tracer) = tracer {
                tracer.fold(&mut phase.spans);
            }
            if start.elapsed() + pass_start.elapsed() > budget {
                return phase;
            }
        }
    }

    fn walls(&self) -> Vec<f64> {
        self.passes.iter().map(|p| p.wall.as_secs_f64()).collect()
    }

    fn work(&self) -> Work {
        let mut work = Work::default();
        for pass in &self.passes {
            work.add(&pass.work);
        }
        work
    }

    /// Each job's median time to verdict over the passes, in seconds.
    fn job_latencies(&self) -> Vec<f64> {
        let jobs = self.passes.first().map_or(0, |p| p.latencies.len());
        (0..jobs)
            .map(|j| {
                let samples: Vec<f64> = self.passes.iter().map(|p| p.latencies[j]).collect();
                median(&samples)
            })
            .collect()
    }
}

const MIB: f64 = (1u64 << 20) as f64;

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: None,
    }
}

/// Runs the workload and returns its report.
///
/// # Errors
///
/// Fails when set-up finds a catalog changed, or when the traced run's
/// self-check fails (unclosed spans, layers covering too little wall).
pub fn run(settings: &Settings) -> Result<Report, String> {
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut jobs: Option<Vec<Job>> = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let generated = workload::generate(settings.workload, settings.seed, settings.smoke)?;
        setup_times.push(start.elapsed().as_secs_f64());
        if jobs.as_ref().is_some_and(|earlier| *earlier != generated) {
            return Err("set-up is not deterministic".to_owned());
        }
        jobs = Some(generated);
    }
    let jobs = jobs.expect("at least one set-up");
    let budget = if settings.smoke {
        Duration::ZERO
    } else {
        settings.budget
    };

    if !settings.trace {
        velv_obs::mem::reset_peaks();
        let phase = Phase::run(settings.workload, &jobs, budget, None);
        let peak = velv_obs::mem::peak_bytes() as f64;
        let latencies = phase.job_latencies();
        let tail = Tail::of(&latencies);
        let values: [f64; END_TO_END.len()] = [
            median(&setup_times),
            median(&phase.walls()),
            quantile(&latencies, 0.5) * 1e3,
            tail.value * 1e3,
            peak / MIB,
        ];
        let mut metrics: Vec<Metric> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| metric(name, value, unit))
            .collect();
        metrics[1].note = Some(format!("median of {} passes", phase.passes.len()));
        metrics[2].note = Some(format!("n={} per-job medians", latencies.len()));
        metrics[3].note = Some(tail.describe());
        return Ok(report(&[&phase], metrics));
    }

    let untraced = Phase::run(settings.workload, &jobs, budget / 2, None);
    let tracer = Tracer::install();
    let mem_before = velv_obs::mem::snapshot();
    let traced = Phase::run(settings.workload, &jobs, budget / 2, Some(&tracer));
    let mem_after = velv_obs::mem::snapshot();
    // Next to the executable: the JSONL lands in the build directory, never
    // among the sources.
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    let path = dir.join(format!(
        "velvbench-{}-{}.trace.jsonl",
        settings.workload.name(),
        settings.seed
    ));
    tracer.finish(&path)?;

    let report = report(
        &[&untraced, &traced],
        layer_metrics(&untraced, &traced, &mem_before, &mem_after),
    );
    let untimed = report.value("untimed_pct").unwrap_or(0.0);
    if untimed > MAX_UNTIMED_PCT {
        return Err(format!(
            "the layers leave {untimed:.1}% of the traced wall untimed (limit \
             {MAX_UNTIMED_PCT}%)"
        ));
    }
    Ok(report)
}

fn report(phases: &[&Phase], metrics: Vec<Metric>) -> Report {
    let passes = phases.iter().flat_map(|phase| &phase.passes);
    Report {
        attempted: passes.clone().map(|p| p.latencies.len() as u64).sum(),
        failures: passes.flat_map(|p| p.failures.iter().cloned()).collect(),
        metrics,
    }
}

/// The per-layer metrics, per pass, in [`PER_LAYER`] order.
fn layer_metrics(
    untraced: &Phase,
    traced: &Phase,
    mem_before: &velv_obs::MemSnapshot,
    mem_after: &velv_obs::MemSnapshot,
) -> Vec<Metric> {
    let passes = traced.passes.len() as f64;
    let spans = &traced.spans;
    let work = traced.work();
    let ms = |name: &str| spans.micros(name) as f64 / 1e3 / passes;

    let wall = traced.walls().iter().sum::<f64>() * 1e3 / passes;
    let check = work.check.as_secs_f64() * 1e3 / passes;
    let admit = ms("bench.admit") + ms("bench.submit");
    // The whole translation call, including the big-stack thread it runs on.
    let translate = ms("bench.translate") + ms("serve.translate");
    let phases = [
        ms("translate.eliminate_memories"),
        ms("translate.classify"),
        ms("translate.eliminate_ufs"),
        ms("translate.encode"),
    ];
    let cnf = translate - phases.iter().sum::<f64>();
    let solve = ms("bench.solve") + ms("serve.solve") + (ms("bench.certify") - check).max(0.0);
    // The service worker's own time around translate and solve: queue pop,
    // cache insert, respond, and dropping the job's state.  The last part
    // runs after the verdict is delivered, overlapping the client's next
    // request or outlasting the pass, so `untimed_pct` can dip below zero.
    let serve_worker = ms("serve.job") - ms("serve.translate") - ms("serve.solve");
    let untimed = wall - admit - translate - solve - check - serve_worker;
    let share = |x: f64| 100.0 * x / wall;
    let overhead = 100.0 * (median(&traced.walls()) / median(&untraced.walls()) - 1.0);

    let per_pass = |count: u64| count as f64 / passes;
    let counters = work.counters;
    // Bytes allocated per pass, by the scope the allocation was charged to.
    // (Scope *peaks* are not comparable: a free is charged to the scope
    // active when it happens, not to the one that allocated.)
    let scope_alloc_mb = |name: &str| {
        let total = |snapshot: &velv_obs::MemSnapshot| {
            snapshot
                .scopes
                .iter()
                .find(|s| s.name == name)
                .map_or(0, |s| s.total_bytes)
        };
        per_pass(total(mem_after) - total(mem_before)) / MIB
    };
    let hit_ratio = if work.submitted == 0 {
        0.0
    } else {
        work.cache_hits as f64 / work.submitted as f64
    };
    let props_per_s = if solve > 0.0 {
        per_pass(counters.propagations) / (solve / 1e3)
    } else {
        0.0
    };
    let values: [f64; PER_LAYER.len()] = [
        admit,
        translate,
        phases[0],
        phases[1],
        phases[2],
        phases[3],
        cnf,
        solve,
        share(admit),
        share(translate),
        share(solve),
        share(check),
        share(serve_worker),
        share(untimed),
        overhead,
        per_pass(counters.conflicts),
        per_pass(counters.propagations),
        per_pass(counters.decisions),
        props_per_s,
        per_pass(counters.translations),
        per_pass(work.cnf_vars),
        per_pass(work.cnf_clauses),
        per_pass(work.eij_vars),
        per_pass(work.triangles),
        per_pass(work.proof_steps),
        hit_ratio,
        per_pass(work.dedup_joins),
        per_pass(mem_after.total_bytes - mem_before.total_bytes) / MIB,
        scope_alloc_mb("sat.arena"),
        scope_alloc_mb("sat.learnts"),
        scope_alloc_mb("eufm"),
        scope_alloc_mb("serve.cache"),
    ];
    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, value, unit))
        .collect();
    metrics[0].note = Some(format!(
        "per pass, {} traced passes of {wall:.1} ms",
        traced.passes.len()
    ));
    metrics
}
