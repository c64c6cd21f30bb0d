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

/// A service counter read from its registry by wire name.
fn counter(service: &ServeHandle, name: &str) -> u64 {
    service
        .registry_snapshot()
        .counter(name)
        .unwrap_or_else(|| panic!("the service registers no counter {name}"))
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

    assert_eq!(counter(&service, "velv_serve_translations_total"), 1);
    assert_eq!(counter(&service, "velv_serve_fresh_solves_total"), 1);
    assert_eq!(service.stats().cache_hits, 0);

    let second = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted")
        .wait();
    assert!(second.from_cache);
    assert!(second.verdict.is_correct());
    assert_eq!(second.solve_time, Duration::ZERO);

    // The acceptance bar: a re-submitted identical job must not invoke
    // translation or a solver.
    assert_eq!(
        counter(&service, "velv_serve_translations_total"),
        1,
        "no second translation"
    );
    assert_eq!(
        counter(&service, "velv_serve_fresh_solves_total"),
        1,
        "no second solve"
    );
    assert_eq!(service.stats().cache_hits, 1);
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
    assert_eq!(
        service.stats().dedup_joins,
        1,
        "second submission joined the first"
    );
    assert!(
        counter(&service, "velv_serve_translations_total") <= 1,
        "no second translation scheduled"
    );
    // Dropping only one of the two claims must NOT cancel the job ...
    drop(second);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(counter(&service, "velv_serve_cancelled_total"), 0);
    // ... dropping the last one must.
    drop(first);
    wait_until("the deduplicated job to be cancelled", || {
        counter(&service, "velv_serve_cancelled_total") == 1
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
        counter(&service, "velv_serve_cancelled_total") == 1
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
fn idle_shutdown_wakes_every_worker() {
    // A worker checks the shutdown flag under the queue lock and then waits
    // for work; a wake-up sent outside that lock can land in between and be
    // lost, leaving the join in `shutdown` blocked forever.  Each shutdown
    // runs on a helper thread, so a hang fails here instead of stalling.
    for round in 0..200 {
        let service = ServeHandle::start(ServiceConfig::default().with_workers(2));
        let (done, finished) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            service.shutdown();
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("round {round}: idle shutdown did not return in 10 s"));
        helper.join().expect("shutdown helper");
    }
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
    assert_eq!(counter(&service, "velv_serve_translations_total"), 1);
    // Undecided verdicts must not poison the cache: the retry translates
    // and solves again instead of returning the stale timeout.
    let retry = service.submit(spec).expect("accepted").wait();
    assert!(!retry.from_cache);
    assert_eq!(counter(&service, "velv_serve_translations_total"), 2);
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
    assert_eq!(counter(&batch_service, "velv_serve_batch_entries_total"), 4);
    assert_eq!(
        batch_service.stats().dedup_joins,
        1,
        "the duplicate subscribed"
    );
    assert_eq!(
        counter(&batch_service, "velv_serve_translations_total"),
        3,
        "one translation per unique entry"
    );
    assert_eq!(counter(&batch_service, "velv_serve_fresh_solves_total"), 3);
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
    assert_eq!(
        counter(&service, "velv_serve_cancelled_total"),
        2,
        "the filler and the abandoned entry"
    );
    assert_eq!(
        counter(&service, "velv_serve_translations_total"),
        2,
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
    assert_eq!(
        counter(&service, "velv_serve_fresh_solves_total"),
        4,
        "certified and plain jobs differ"
    );
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
    assert_eq!(counter(&service, "velv_serve_proofs_kept_total"), 1);
    service.shutdown();
}

#[test]
fn keep_proof_on_ooo_4_lifts_and_answers_correct() {
    // The keep-proof path runs the same lift-or-refine loop as every other
    // check: OOO-4's unliftable models are refined away.  The refutation
    // needs refinement clauses, so its proof would not replay against the
    // job's CNF as shipped and no artifact is kept.
    let service = ServeHandle::start(ServiceConfig::default().with_workers(1));
    let mut spec = JobSpec::new(ModelRef::Ooo { width: 4 });
    spec.keep_proof = true;
    let ticket = service.submit(spec).expect("accepted");
    let result = ticket.wait();
    assert!(result.verdict.is_correct(), "{:?}", result.verdict);
    let entry = service
        .cached(ticket.fingerprint())
        .expect("the verdict is cached");
    assert!(entry.proof_drat.is_none());
    assert_eq!(counter(&service, "velv_serve_proofs_kept_total"), 0);
    service.shutdown();
}

#[test]
fn shutdown_under_a_keep_proof_job_reports_cancelled() {
    // The keep-proof path solves through `Verifier::check_with_proof`; a
    // cancelled solve there must read like every other cancelled job.
    let service = ServeHandle::start(ServiceConfig::default().with_workers(1));
    let mut spec = JobSpec::new(ModelRef::Dlx {
        config: DlxVariant::DualFull,
        bug: None,
    });
    spec.keep_proof = true;
    let ticket = service.submit(spec).expect("accepted");
    wait_until("the proof-logging solve to heartbeat", || {
        service.progress_rows().iter().any(|row| row.beats > 0)
    });
    service.shutdown();
    let result = ticket.wait();
    assert_eq!(
        result.verdict,
        velv_core::Verdict::Unknown("cancelled".to_owned())
    );
    assert_eq!(counter(&service, "velv_serve_proofs_kept_total"), 0);
}

#[test]
fn portfolio_jobs_report_live_progress() {
    // The race runs its members on threads of their own; each re-installs
    // the job's solve recorder, so the live progress row of a portfolio job
    // fills in like that of a single-engine job.
    let service = ServeHandle::start(ServiceConfig::default().with_workers(1));
    let mut spec = JobSpec::new(ModelRef::Dlx {
        config: DlxVariant::DualFull,
        bug: None,
    });
    spec.backend = BackendChoice::Portfolio;
    let _ticket = service.submit(spec).expect("accepted");
    wait_until("a portfolio member to heartbeat", || {
        service.progress_rows().iter().any(|row| row.beats > 0)
    });
    service.shutdown();
}

#[test]
fn tiny_cache_evicts_under_byte_pressure() {
    let mut config = ServiceConfig::default().with_workers(2);
    // Room for at most one entry per shard: a new verdict displaces the
    // old one or is refused outright.
    config.cache_bytes = 600;
    let service = ServeHandle::start(config);
    for i in 0..2 {
        let result = service
            .submit(JobSpec::new(ModelRef::dlx1_bug(i)))
            .expect("accepted")
            .wait();
        assert!(result.verdict.is_buggy());
    }
    let snapshot = service.registry_snapshot();
    let value = |name: &str| {
        let sample = snapshot.get(name, &[]).expect("registered");
        sample.value.as_u64().expect("a non-negative reading")
    };
    assert!(
        value("velv_serve_cache_evictions_total") + value("velv_serve_cache_oversize_total") >= 1,
        "byte pressure must evict or refuse: {snapshot:?}"
    );
    assert!(value("velv_serve_cache_bytes") <= value("velv_serve_cache_capacity_bytes"));
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
    assert_eq!(counter(&service, "velv_serve_translations_total"), 0);
    service.shutdown();
}

/// The specs no worker can honour: evidence a back end cannot give, and a
/// kept proof over several obligations.
fn unrunnable_specs() -> Vec<JobSpec> {
    use velv_sat::presets::SolverKind;
    let with = |backend, mode, certified, keep_proof| {
        let mut spec = JobSpec::new(ModelRef::dlx1_correct());
        spec.backend = backend;
        spec.mode = mode;
        spec.certified = certified;
        spec.keep_proof = keep_proof;
        spec
    };
    let decomposed = SolveMode::Decomposed { max_obligations: 8 };
    let mut specs = Vec::new();
    for backend in [
        BackendChoice::Sat(SolverKind::Dpll),
        BackendChoice::Sat(SolverKind::WalkSat),
        BackendChoice::Sat(SolverKind::Dlm),
        BackendChoice::Portfolio,
        BackendChoice::Bdd,
    ] {
        specs.push(with(backend, SolveMode::Monolithic, true, false));
        specs.push(with(backend, decomposed, true, false));
        specs.push(with(backend, SolveMode::Monolithic, false, true));
    }
    specs.push(with(
        BackendChoice::Sat(SolverKind::Chaff),
        decomposed,
        false,
        true,
    ));
    specs
}

#[test]
fn specs_the_workers_cannot_honour_are_rejected_at_admission() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(1));
    for spec in unrunnable_specs() {
        let wire = spec.to_wire();
        assert_eq!(
            JobSpec::parse_wire(&wire).as_ref(),
            Ok(&spec),
            "parsing stays syntactic: {wire}"
        );
        assert!(
            matches!(
                service.submit(spec.clone()),
                Err(velv_serve::ServeError::InvalidJob(_))
            ),
            "single submission of {wire}"
        );
        // One such entry rejects its whole batch, and leaves the valid
        // entry's fingerprint free for a later submission.
        let batch = service.submit_batch(vec![JobSpec::new(ModelRef::dlx1_correct()), spec]);
        assert!(
            matches!(batch, Err(velv_serve::ServeError::InvalidJob(_))),
            "batch holding {wire}"
        );
    }
    assert_eq!(
        counter(&service, "velv_serve_translations_total"),
        0,
        "nothing was scheduled"
    );
    assert_eq!(service.stats().dedup_joins, 0);
    let retry = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted")
        .wait_for(Duration::from_secs(60))
        .expect("the valid entry's fingerprint is not stuck");
    assert!(retry.verdict.is_correct(), "{:?}", retry.verdict);

    // Wire submissions pass the same admission check.
    let control = velv_serve::serve(service, "127.0.0.1:0").expect("bind an ephemeral port");
    let mut client = velv_serve::ServeClient::connect(control.addr()).expect("connect");
    let spec = JobSpec::parse_wire("model=dlx1:correct backend=bdd keep-proof=1").unwrap();
    let error = format!("{:?}", client.submit(spec).expect_err("rejected"));
    assert!(error.contains("CDCL"), "{error}");
    control.stop();
}

#[test]
fn decomposed_jobs_run_the_back_end_they_name() {
    // Local search finds models but cannot refute: on a correct design it
    // runs out its budget, it never answers `Correct`.
    let service = ServeHandle::start(ServiceConfig::default().with_workers(1));
    let mut spec = JobSpec::new(ModelRef::dlx1_correct()).with_timeout(Duration::from_millis(300));
    spec.backend = BackendChoice::Sat(velv_sat::presets::SolverKind::WalkSat);
    spec.mode = SolveMode::Decomposed { max_obligations: 8 };
    let result = service.submit(spec).expect("accepted").wait();
    assert!(
        matches!(result.verdict, velv_core::Verdict::Unknown(_)),
        "walksat cannot prove a correct design: {:?}",
        result.verdict
    );
    service.shutdown();
}

/// Asserts the counter identities of a quiescent service: every admitted
/// submission ends as exactly one of a cache hit, a dedup join, a completed
/// job or a memory-pressure refusal, and every completed job has exactly
/// one verdict.
fn assert_accounting(service: &ServeHandle) {
    let stats = service.stats();
    assert_eq!(
        stats.submitted,
        stats.cache_hits + stats.dedup_joins + stats.completed + stats.mem_pressure_rejections,
        "{stats:?}"
    );
    let verdicts = ["correct", "buggy", "unknown"]
        .map(|verdict| counter(service, &format!("velv_serve_verdict_{verdict}_total")));
    assert_eq!(
        stats.completed,
        verdicts.iter().sum::<u64>(),
        "{verdicts:?}"
    );
}

#[test]
fn accounting_identities_hold_at_quiescence() {
    let mut config = ServiceConfig::default().with_workers(1);
    config.engine_override = Some(Arc::new(|| Box::new(SpinSolver)));
    config.max_queue_depth = Some(1);
    let service = ServeHandle::start(config);
    // Decomposed jobs bypass the spinning engine and reach real verdicts.
    let decomposed = |bug| {
        let mut spec = JobSpec::new(ModelRef::dlx1_bug(bug)).with_priority(5);
        spec.mode = SolveMode::Decomposed { max_obligations: 8 };
        spec
    };

    let parked = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    wait_until("the filler job to start", || {
        parked.status() == JobStatus::Running
    });
    let low = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("accepted");
    let joined = service
        .submit(JobSpec::new(ModelRef::dlx1_bug(0)))
        .expect("a dedup join needs no queue slot");
    // The high-priority job sheds the queued one (and its joined twin).
    let high = service.submit(decomposed(1)).expect("sheds the occupant");
    assert!(matches!(
        service.submit(JobSpec::new(ModelRef::dlx1_bug(2))),
        Err(velv_serve::ServeError::Busy(_))
    ));
    for shed in [low.wait(), joined.wait()] {
        assert!(matches!(shed.verdict, velv_core::Verdict::Unknown(_)));
    }
    // The parked job's only client leaves: it ends as cancelled.
    drop(parked);
    let decided = high.wait();
    assert!(decided.verdict.is_buggy(), "{:?}", decided.verdict);
    let hit = service.submit(decomposed(1)).expect("accepted").wait();
    assert!(hit.from_cache);
    wait_until("the cancelled job to be counted", || {
        counter(&service, "velv_serve_cancelled_total") == 1
    });

    let stats = service.stats();
    assert_eq!(stats.submitted, 6);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.dedup_joins, 1);
    assert_eq!(counter(&service, "velv_serve_jobs_shed_total"), 1);
    assert_eq!(counter(&service, "velv_serve_busy_rejections_total"), 1);
    assert_eq!(counter(&service, "velv_serve_verdict_buggy_total"), 1);
    assert_accounting(&service);
    service.shutdown();
    assert_accounting(&service);
}

/// An engine that ignores its budget and refutes once the gate opens: lets
/// a test finish a job whose clients have all left.
struct GatedRefuter(Arc<std::sync::atomic::AtomicBool>);

impl Solver for GatedRefuter {
    fn name(&self) -> &str {
        "gated"
    }
    fn solve_with_budget(&mut self, _cnf: &CnfFormula, _budget: Budget) -> SatResult {
        while !self.0.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        SatResult::Unsat
    }
    fn stats(&self) -> SolverStats {
        SolverStats::default()
    }
}

#[test]
fn a_job_answered_by_the_workers_cache_recheck_counts_once() {
    let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut config = ServiceConfig::default().with_workers(1);
    let engine_gate = Arc::clone(&gate);
    config.engine_override = Some(Arc::new(move || {
        Box::new(GatedRefuter(Arc::clone(&engine_gate)))
    }));
    let service = ServeHandle::start(config);
    let first = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    wait_until("the first job to start", || {
        first.status() == JobStatus::Running
    });
    // The last client leaves, and an identical job is admitted as a fresh
    // one behind it ...
    drop(first);
    let second = service
        .submit(JobSpec::new(ModelRef::dlx1_correct()))
        .expect("accepted");
    // ... then the abandoned solve finishes anyway and caches its verdict,
    // which the second job's worker finds on its re-check.
    gate.store(true, std::sync::atomic::Ordering::SeqCst);
    let result = second.wait();
    assert!(result.verdict.is_correct(), "{:?}", result.verdict);
    assert!(result.from_cache);
    assert_eq!(counter(&service, "velv_serve_fresh_solves_total"), 1);
    let stats = service.stats();
    assert_eq!((stats.cache_hits, stats.completed), (1, 1), "{stats:?}");
    assert_accounting(&service);
    service.shutdown();
}
