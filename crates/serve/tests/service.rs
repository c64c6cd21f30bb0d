//! In-process service tests: cache hits, in-flight deduplication, batch
//! submission, cancellation on client disconnect, and shutdown.

use std::sync::Arc;
use std::time::{Duration, Instant};
use velv_obs::{ProfileSink, SolveProfile};
use velv_sat::{Budget, CnfFormula, SatResult, Solver, SolverStats};
use velv_serve::{
    BackendChoice, DlxVariant, JobSpec, JobStatus, ModelRef, ServeHandle, ServiceConfig, SolveMode,
};

/// An engine that never answers: it spins until its budget (cancel token or
/// deadline) stops it.  Lets the tests park a worker deterministically.
struct SpinSolver;

impl Solver for SpinSolver {
    fn name(&self) -> &str {
        "spin"
    }
    fn is_complete(&self) -> bool {
        false
    }
    fn solve_with_budget(&mut self, _cnf: &CnfFormula, budget: Budget) -> SatResult {
        let budget = budget.started();
        loop {
            for _ in 0..256 {
                std::hint::spin_loop();
            }
            if let Some(reason) = budget.exceeded() {
                return SatResult::Unknown(reason);
            }
        }
    }
    fn stats(&self) -> SolverStats {
        SolverStats::default()
    }
}

fn spin_service(workers: usize) -> ServeHandle {
    let mut config = ServiceConfig::default().with_workers(workers);
    config.engine_override = Some(Arc::new(|| Box::new(SpinSolver)));
    ServeHandle::start(config)
}

fn wait_until(what: &str, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn cache_hit_skips_translation_and_solver() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(2));
    let first = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted")
        .wait();
    assert!(first.verdict.is_correct(), "{:?}", first.verdict);
    assert!(!first.from_cache);

    let stats = service.stats();
    assert_eq!(stats.translations, 1);
    assert_eq!(stats.fresh_solves, 1);
    assert_eq!(stats.cache_hits, 0);

    let second = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted")
        .wait();
    assert!(second.from_cache);
    assert!(second.verdict.is_correct());
    assert_eq!(second.solve_time, Duration::ZERO);

    // The acceptance bar: a re-submitted identical job must not invoke
    // translation or a solver.
    let stats = service.stats();
    assert_eq!(stats.translations, 1, "no second translation");
    assert_eq!(stats.fresh_solves, 1, "no second solve");
    assert_eq!(stats.cache_hits, 1);
    service.shutdown();
}

#[test]
fn cached_and_fresh_counterexamples_are_identical() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(2));
    let fresh = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted")
        .wait();
    let cached = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted")
        .wait();
    assert!(fresh.verdict.is_buggy());
    assert!(cached.verdict.is_buggy());
    assert!(cached.from_cache);
    let fresh_cex = fresh.verdict.counterexample().unwrap();
    let cached_cex = cached.verdict.counterexample().unwrap();
    assert_eq!(fresh_cex, cached_cex, "the cache returns the same evidence");
    service.shutdown();
}

#[test]
fn option_and_backend_flips_change_the_fingerprint() {
    let service = spin_service(1);
    let base = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    let lazy = {
        let mut spec = JobSpec::new(ModelRef::dlx1_correct());
        spec.options = spec.options.with_lazy_transitivity();
        service.submit(spec).expect("accepted")
    };
    let sato = {
        let mut spec = JobSpec::new(ModelRef::dlx1_correct());
        spec.backend = BackendChoice::Sat(velv_sat::presets::SolverKind::Sato);
        service.submit(spec).expect("accepted")
    };
    let twin = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    assert_ne!(base.fingerprint(), lazy.fingerprint());
    assert_ne!(base.fingerprint(), sato.fingerprint());
    assert_eq!(base.fingerprint(), twin.fingerprint());
    assert_ne!(
        service
            .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
            .expect("accepted")
            .fingerprint(),
        base.fingerprint()
    );
    service.shutdown();
}

#[test]
fn duplicate_submission_subscribes_to_the_running_job() {
    let service = spin_service(1);
    let first = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    let second = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    assert_eq!(first.fingerprint(), second.fingerprint());
    let stats = service.stats();
    assert_eq!(stats.dedup_joins, 1, "second submission joined the first");
    assert!(stats.translations <= 1, "no second translation scheduled");
    // Dropping only one of the two claims must NOT cancel the job ...
    drop(second);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(service.stats().cancelled, 0);
    // ... dropping the last one must.
    drop(first);
    wait_until("the deduplicated job to be cancelled", || {
        service.stats().cancelled == 1
    });
    service.shutdown();
}

#[test]
fn client_disconnect_cancels_the_running_job_and_frees_the_worker() {
    let service = spin_service(1);
    let ticket = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    wait_until("the job to start running", || {
        ticket.status() == JobStatus::Running
    });
    // The only client walks away: the spin engine must observe the raised
    // token promptly, the job must complete as cancelled, and the single
    // worker must become available again.
    drop(ticket);
    wait_until("the abandoned job to be cancelled", || {
        service.stats().cancelled == 1
    });
    let next = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted");
    wait_until("the worker to pick up new work", || {
        next.status() == JobStatus::Running
    });
    let start = Instant::now();
    service.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown must cancel the spinning worker promptly"
    );
    let result = next.wait();
    assert!(matches!(result.verdict, velv_core::Verdict::Unknown(_)));
}

#[test]
fn shutdown_resolves_queued_jobs_and_joins_workers() {
    let service = spin_service(1);
    let tickets: Vec<_> = (0..3)
        .map(|i| {
            service
                .submit(JobSpec::new(ModelRef::dlx1_bug(i)))
                .expect("accepted")
        })
        .collect();
    wait_until("the first job to start", || {
        tickets[0].status() == JobStatus::Running
    });
    let start = Instant::now();
    service.shutdown();
    assert!(start.elapsed() < Duration::from_secs(5), "prompt shutdown");
    for ticket in &tickets {
        let result = ticket.wait();
        assert!(matches!(result.verdict, velv_core::Verdict::Unknown(_)));
    }
    assert!(service.is_shut_down());
    assert!(matches!(
        service.submit(JobSpec::new(ModelRef::dlx1_correct())),
        Err(velv_serve::ServeError::ShutDown)
    ));
}

#[test]
fn priority_orders_the_queue() {
    let service = spin_service(1);
    // Park the worker, then queue a low- and a high-priority job.
    let parked = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    wait_until("the filler job to start", || {
        parked.status() == JobStatus::Running
    });
    let low = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted");
    let high = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(1)).with_priority(5))
        .expect("accepted");
    // Free the worker; the high-priority job must run first.
    drop(parked);
    wait_until("the high-priority job to start", || {
        high.status() == JobStatus::Running
    });
    assert_eq!(low.status(), JobStatus::Queued);
    service.shutdown();
}

#[test]
fn timeouts_yield_unknown_verdicts_that_are_not_cached() {
    let service = spin_service(2);
    let spec = JobSpec::new(ModelRef::dlx1_correct()).with_timeout(Duration::from_millis(100));
    let result = service.submit(spec.clone()).expect("accepted").wait();
    assert!(matches!(result.verdict, velv_core::Verdict::Unknown(_)));
    assert_eq!(service.stats().translations, 1);
    // Undecided verdicts must not poison the cache: the retry translates
    // and solves again instead of returning the stale timeout.
    let retry = service.submit(spec).expect("accepted").wait();
    assert!(!retry.from_cache);
    assert_eq!(service.stats().translations, 2);
    assert_eq!(service.stats().cache_hits, 0);
    service.shutdown();
}

#[test]
fn batch_entries_run_as_single_jobs_and_match_single_submissions() {
    let specs = || {
        vec![
            JobSpec::new(ModelRef::dlx1_correct()),
            JobSpec::new(ModelRef::dlx1_bug(0)),
            JobSpec::new(ModelRef::dlx1_bug(1)),
            // A within-batch duplicate: must deduplicate, not re-solve.
            JobSpec::new(ModelRef::dlx1_bug(0)),
        ]
    };
    // The profile sink is not installed as the process trace sink (the test
    // binary shares that slot), so the profiles carry the solver's time
    // series but no phase tree.
    let batch_service = ServeHandle::start(
        ServiceConfig::default()
            .with_workers(2)
            .with_profile_sink(Arc::new(ProfileSink::new())),
    );
    let tickets = batch_service.submit_batch(specs()).expect("accepted");
    let batch_results: Vec<_> = tickets.iter().map(|t| t.wait()).collect();
    let stats = batch_service.stats();
    assert_eq!(stats.batch_entries, 4);
    assert_eq!(stats.dedup_joins, 1, "the duplicate subscribed");
    assert_eq!(stats.translations, 3, "one translation per unique entry");
    assert_eq!(stats.fresh_solves, 3);
    assert!(batch_results[3].deduplicated);

    // Every fresh entry is profiled like a single job.
    for (ticket, result) in tickets.iter().zip(&batch_results) {
        let entry = batch_service
            .cached(ticket.fingerprint())
            .expect("decided verdicts are cached");
        let jsonl = entry.profile.as_ref().expect("batch entries are profiled");
        let profile = SolveProfile::parse(jsonl).expect("cached profile parses");
        let expected = if result.verdict.is_correct() {
            "correct"
        } else {
            "buggy"
        };
        assert_eq!(profile.result, expected, "{}", result.name);
    }

    // Reference: the same specs submitted individually to a fresh service.
    let single_service = ServeHandle::start(ServiceConfig::default().with_workers(2));
    let single_results: Vec<_> = specs()
        .into_iter()
        .map(|spec| single_service.submit(spec).expect("accepted").wait())
        .collect();
    for (batch, single) in batch_results.iter().zip(&single_results) {
        assert_eq!(
            batch.verdict.is_correct(),
            single.verdict.is_correct(),
            "batch and single verdicts must agree for {}",
            batch.name
        );
        assert_eq!(batch.verdict.is_buggy(), single.verdict.is_buggy());
        assert_eq!(
            batch.verdict.counterexample(),
            single.verdict.counterexample(),
            "batch and single evidence must agree for {}",
            batch.name
        );
    }
    assert!(batch_results[0].verdict.is_correct());
    assert!(batch_results[1].verdict.is_buggy());
    assert!(batch_results[2].verdict.is_buggy());
    assert!(batch_results[3].verdict.is_buggy());

    // A later single submission of a batch entry is a cache hit with the
    // same evidence.
    let replay = batch_service
        .submit(JobSpec::new(ModelRef::dlx1_bug(1)))
        .expect("accepted")
        .wait();
    assert!(replay.from_cache);
    assert_eq!(
        replay.verdict.counterexample(),
        batch_results[2].verdict.counterexample()
    );
    batch_service.shutdown();
    single_service.shutdown();
}

#[test]
fn dropping_one_queued_batch_entry_cancels_only_that_entry() {
    let service = spin_service(1);
    // Park the only worker so the batch entries stay queued.
    let parked = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    wait_until("the filler job to start", || {
        parked.status() == JobStatus::Running
    });
    // Decomposed entries bypass the spinning engine, so the surviving entry
    // reaches a real verdict.
    let decomposed = |bug| {
        let mut spec = JobSpec::new(ModelRef::dlx1_bug(bug));
        spec.mode = SolveMode::Decomposed { max_obligations: 8 };
        spec
    };
    let mut tickets = service
        .submit_batch(vec![decomposed(0), decomposed(1)])
        .expect("accepted");
    let kept = tickets.pop().expect("two tickets");
    let abandoned = tickets.pop().expect("two tickets");
    assert_eq!(abandoned.status(), JobStatus::Queued);
    assert_eq!(kept.status(), JobStatus::Queued);
    drop(abandoned);
    drop(parked);

    let result = kept
        .wait_for(Duration::from_secs(60))
        .expect("the kept entry must run");
    assert!(result.verdict.is_buggy(), "{:?}", result.verdict);
    let stats = service.stats();
    assert_eq!(stats.cancelled, 2, "the filler and the abandoned entry");
    assert_eq!(
        stats.translations, 2,
        "the abandoned entry is never translated"
    );
    service.shutdown();
}

#[test]
fn decomposed_mode_checks_each_obligation() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(2));
    let decomposed = |model, certified| {
        let mut spec = JobSpec::new(model);
        spec.mode = SolveMode::Decomposed { max_obligations: 8 };
        spec.certified = certified;
        spec
    };
    for certified in [false, true] {
        let ticket = service
            .submit(decomposed(ModelRef::dlx1_correct(), certified))
            .expect("accepted");
        let result = ticket.wait();
        assert!(
            result.verdict.is_correct(),
            "certified={certified}: {:?}",
            result.verdict
        );
        assert!(!result.from_cache, "certified={certified}");
        // The cache entry carries the obligations' summed statistics.
        let (implementation, specification) = ModelRef::dlx1_correct().build().unwrap();
        let verifier = velv_core::Verifier::default();
        let problem = verifier.build_problem(implementation.as_ref(), specification.as_ref());
        let clauses: usize = verifier
            .translate_obligations(&problem, 8)
            .iter()
            .map(|t| t.stats.cnf_clauses)
            .sum();
        let entry = service.cached(ticket.fingerprint()).expect("cached");
        let stats = entry.translation_stats.expect("translation stats");
        assert_eq!(stats.cnf_clauses, clauses, "certified={certified}");
        let result = service
            .submit(decomposed(ModelRef::dlx1_bug(0), certified))
            .expect("accepted")
            .wait();
        assert!(
            result.verdict.counterexample().is_some(),
            "certified={certified}: {:?}",
            result.verdict
        );
    }
    let stats = service.stats();
    assert_eq!(stats.fresh_solves, 4, "certified and plain jobs differ");
    service.shutdown();
}

#[test]
fn keep_proof_stores_a_drat_artifact() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(2));
    let mut spec = JobSpec::new(ModelRef::dlx1_correct());
    spec.keep_proof = true;
    let ticket = service.submit(spec).expect("accepted");
    let result = ticket.wait();
    assert!(result.verdict.is_correct());
    let entry = service
        .cached(ticket.fingerprint())
        .expect("the verdict is cached");
    let proof = entry.proof_drat.as_ref().expect("proof artifact stored");
    assert!(!proof.is_empty());
    let text = std::str::from_utf8(proof).expect("DRAT text is UTF-8");
    assert!(text.lines().last().unwrap_or("").trim_end().ends_with('0'));
    assert_eq!(service.stats().proofs_kept, 1);
    service.shutdown();
}

#[test]
fn shutdown_under_a_keep_proof_job_reports_cancelled() {
    // The keep-proof path solves through `Solver::solve_with_proof`; a
    // cancelled solve there must read like every other cancelled job.
    let service = ServeHandle::start(ServiceConfig::default().with_workers(1));
    let mut spec = JobSpec::new(ModelRef::Dlx {
        config: DlxVariant::DualFull,
        bug: None,
    });
    spec.keep_proof = true;
    let ticket = service.submit(spec).expect("accepted");
    wait_until("the proof-logging solve to heartbeat", || {
        service
            .progress_rows()
            .iter()
            .any(|row| row.progress.heartbeats > 0)
    });
    service.shutdown();
    let result = ticket.wait();
    assert_eq!(
        result.verdict,
        velv_core::Verdict::Unknown("cancelled".to_owned())
    );
    assert_eq!(service.stats().proofs_kept, 0);
}

#[test]
fn tiny_cache_evicts_under_byte_pressure() {
    let mut config = ServiceConfig::default().with_workers(2);
    // Room for roughly one entry: every new verdict displaces the old one.
    config.cache_bytes = 600;
    config.cache_shards = 1;
    let service = ServeHandle::start(config);
    for i in 0..2 {
        let result = service
            .submit(JobSpec::new(ModelRef::dlx1_bug(i)))
            .expect("accepted")
            .wait();
        assert!(result.verdict.is_buggy());
    }
    let stats = service.stats();
    assert!(
        stats.cache.evictions + stats.cache.oversize >= 1,
        "byte pressure must evict or refuse: {:?}",
        stats.cache
    );
    assert!(stats.cache.bytes <= stats.cache.capacity_bytes);
    service.shutdown();
}

#[test]
fn rejected_batches_leave_no_stuck_fingerprints() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(1));
    // The second spec is invalid: the whole batch must fail atomically, and
    // the first spec's fingerprint must not be left in the in-flight table
    // (a later submission would otherwise subscribe to a job no worker will
    // ever run).
    let rejected = service.submit_batch(vec![
        JobSpec::new(ModelRef::dlx1_correct()),
        JobSpec::new(ModelRef::dlx1_bug(10_000)),
    ]);
    assert!(matches!(
        rejected,
        Err(velv_serve::ServeError::InvalidJob(_))
    ));
    let retry = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted")
        .wait_for(Duration::from_secs(60))
        .expect("the retried job must actually run");
    assert!(retry.verdict.is_correct());
    service.shutdown();
}

#[test]
fn resubmitting_an_abandoned_job_schedules_a_fresh_one() {
    let service = spin_service(1);
    // Park the worker so the next job stays queued.
    let parked = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    wait_until("the filler job to start", || {
        parked.status() == JobStatus::Running
    });
    // Abandon a queued job: its cancel token is raised while it is still in
    // the in-flight table.
    let abandoned = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted");
    drop(abandoned);
    // A new client submitting the identical spec must NOT subscribe to the
    // cancelled corpse — it gets a fresh job.
    let fresh = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted");
    assert_eq!(service.stats().dedup_joins, 0);
    drop(parked);
    wait_until("the fresh job to start running", || {
        fresh.status() != JobStatus::Queued
    });
    service.shutdown();
}

#[test]
fn absurd_timeouts_degrade_to_no_deadline_instead_of_panicking() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(1));
    let result = service
        .submit(
            JobSpec::new(ModelRef::dlx1_correct()).with_timeout(Duration::from_millis(u64::MAX)),
        )
        .expect("admission must not panic on deadline overflow")
        .wait();
    assert!(result.verdict.is_correct());
    service.shutdown();
}

#[test]
fn invalid_jobs_are_rejected_without_scheduling() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(1));
    assert!(matches!(
        service.submit(JobSpec::new(ModelRef::dlx1_bug(10_000))),
        Err(velv_serve::ServeError::InvalidJob(_))
    ));
    assert_eq!(service.stats().translations, 0);
    service.shutdown();
}
