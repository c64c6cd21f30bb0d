//! The worker side of the service: the pool's loop and the one path every
//! job runs.
//!
//! A job is translated into a list of obligations (a monolithic job is a
//! list of one), each obligation is decided by [`decide`] on the back end
//! and with the evidence the spec names, and the obligations' verdicts fold
//! into the job's with [`Verdict::absorb_obligation`].  The verdict then
//! leaves through [`Inner::resolve`] like every other outcome.

use super::{Fresh, Inner, JobStatus, Outcome, ProgressEntry, SingleJob};
use crate::job::SolveMode;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;
use velv_core::{Certificate, CertifyOptions, Translation, TranslationStats, Verdict, Verifier};
use velv_sat::Budget;

pub(super) fn worker_loop(inner: Arc<Inner>) {
    inner.counters.workers.add(1);
    while let Some(job) = inner.pop() {
        inner.counters.running.add(1);
        // Panic containment: a panicking translation or solver run must not
        // take the worker thread (and eventually the pool) down.  The unwind
        // is caught, the job resolves as `unknown` (never cached, never
        // persisted), and the worker returns to the queue.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run_single(&inner, &job)));
        if outcome.is_err() {
            inner.counters.worker_panics.inc();
            // Dump the flight ring *before* resolving the victim: once a
            // waiter observes the panic verdict, the post-mortem containing
            // the panicking job's spans is already on disk.
            let _ = velv_obs::flight::dump("worker-panic");
            inner.resolve(&job.state, Outcome::Panicked);
        }
        inner.counters.running.sub(1);
    }
    inner.counters.workers.sub(1);
}

/// Registers a job in the live progress table for the duration of a worker
/// run; removal on drop keeps the table clean across panics (the guard drops
/// during the unwind caught by [`worker_loop`]).
struct ProgressTableGuard<'a> {
    inner: &'a Inner,
    key: u128,
}

impl<'a> ProgressTableGuard<'a> {
    fn insert(
        inner: &'a Inner,
        job: &SingleJob,
        recorder: &velv_obs::SharedSolveRecorder,
    ) -> ProgressTableGuard<'a> {
        let key = job.state.fingerprint.0;
        inner.progress.lock().expect("progress table lock").insert(
            key,
            ProgressEntry {
                name: job.state.name.clone(),
                priority: job.spec.priority,
                started: job.state.submitted,
                deadline: job.deadline,
                recorder: Arc::clone(recorder),
            },
        );
        ProgressTableGuard { inner, key }
    }
}

impl Drop for ProgressTableGuard<'_> {
    fn drop(&mut self) {
        self.inner
            .progress
            .lock()
            .expect("progress table lock")
            .remove(&self.key);
    }
}

/// The `serve.worker.run` failpoint, hit once per job *after* the
/// `serve.job` span has opened, so an injected panic leaves the job's spans
/// in the flight ring for the post-mortem dump.
fn hit_worker_run_failpoint() {
    if let Some(velv_store::FailAction::Panic) =
        velv_store::failpoint::global().hit("serve.worker.run")
    {
        panic!("failpoint serve.worker.run: injected worker panic");
    }
}

/// The `serve.job` span fields: the job's name plus, when the submitter
/// sent a [`TraceContext`](crate::TraceContext), the `trace`/`remote_parent`
/// tags that let [`velv_obs::check_traces`] parent this span under the
/// client's root span in a merged multi-process trace.
fn job_span_fields(job: &SingleJob) -> Vec<(&'static str, velv_obs::FieldValue)> {
    let mut fields = vec![("job", job.state.name.as_str().into())];
    if let Some(context) = &job.trace {
        fields.push(("trace", context.trace_id.into()));
        fields.push(("remote_parent", context.parent_span.into()));
    }
    fields
}

fn run_single(inner: &Inner, job: &SingleJob) {
    if job.state.is_resolved() {
        // Shed by admission control while it queued; the waiters already
        // have their busy verdict.
        return;
    }
    let job_span = velv_obs::span_fields("serve.job", &job_span_fields(job));
    let job_started = Instant::now();
    let queued = job.state.submitted.elapsed();
    inner
        .counters
        .queue_wait
        .observe(job.spec.priority, queued.as_micros() as u64);
    if velv_obs::enabled() {
        velv_obs::event(
            "serve.dequeue",
            &[("queued_us", (queued.as_micros() as u64).into())],
        );
    }
    hit_worker_run_failpoint();
    job.state.set_status(JobStatus::Running);
    if job.state.cancel.is_cancelled() {
        inner.resolve(&job.state, Outcome::Cancelled);
        return;
    }
    // An identical job can finish while this one queues: its last client
    // left just as it was solved, and this job was admitted in between.
    if let Some(hit) = inner.cache.get(job.state.fingerprint) {
        inner.resolve(&job.state, Outcome::Cached(hit));
        return;
    }

    let started = Instant::now();
    let verifier = Verifier::new(job.spec.options.clone());
    let budget = Budget {
        max_conflicts: job.spec.max_conflicts,
        max_decisions: None,
        max_time: None,
        deadline: job.deadline,
        cancel: Some(job.state.cancel.clone()),
    };
    inner.counters.translations.inc();

    // The solver's heartbeats flow into this recorder: the `status` progress
    // rows read its latest sample while the job runs, and with a profile sink
    // configured the job's profile is built from its series afterwards.
    let recorder = velv_obs::shared_recorder();
    let _table = ProgressTableGuard::insert(inner, job, &recorder);
    let _recorder_guard = velv_sat::install_solve_recorder(Arc::clone(&recorder));

    let obligations = {
        let _span = velv_obs::span("serve.translate");
        let _mem_scope = velv_obs::MemScope::enter("eufm");
        match job.spec.mode {
            SolveMode::Monolithic => vec![verifier.translate_problem(&job.problem)],
            SolveMode::Decomposed { max_obligations } => {
                verifier.translate_obligations(&job.problem, max_obligations)
            }
        }
    };
    let mut translation_stats = TranslationStats::default();
    for obligation in &obligations {
        translation_stats += obligation.stats;
    }
    inner.counters.fresh_solves.inc();
    let (mut verdict, mut certificate, mut proof) = (Verdict::Correct, None, None);
    {
        let _solve_span = velv_obs::span("serve.solve");
        for obligation in &obligations {
            let (decided, evidence, drat) =
                decide(inner, job, &verifier, obligation, budget.clone());
            verdict.absorb_obligation(&decided);
            // A certificate or a proof vouches for one obligation, so it
            // stands for the job only when the job is that one obligation.
            if obligations.len() == 1 {
                (certificate, proof) = (evidence, drat);
            }
            if verdict.is_buggy() {
                break;
            }
        }
    }
    // Free the translations before the verdict leaves: a client woken by
    // `resolve` must not share the machine with their teardown.
    drop(obligations);
    let profile = build_job_profile(inner, job, &verdict, job_span.id(), job_started, &recorder);
    let _respond_span = velv_obs::span("serve.respond");
    let fresh = Fresh {
        verdict,
        certificate,
        proof,
        solve_time: started.elapsed(),
        translation_stats,
        profile,
    };
    inner.resolve(&job.state, Outcome::Fresh(Box::new(fresh)));
}

/// One obligation's verdict, its certificate, and its kept DRAT proof text.
type Decided = (Verdict, Option<Certificate>, Option<Arc<Vec<u8>>>);

/// Decides one obligation: certified, on the engine override (monolithic
/// uncertified jobs only), with a kept proof, or on the spec's back end.
/// Admission rejected the specs asking for evidence a back end cannot give,
/// so the certified and proof-keeping paths always find a CDCL preset.
fn decide(
    inner: &Inner,
    job: &SingleJob,
    verifier: &Verifier,
    obligation: &Translation,
    budget: Budget,
) -> Decided {
    let spec = &job.spec;
    let cdcl = || {
        spec.backend
            .cdcl_config()
            .expect("admission rejects evidence on a non-CDCL back end")
    };
    if spec.certified {
        return match verifier.check_certified(obligation, cdcl(), &CertifyOptions::full(), budget) {
            Ok((certified, _)) => (certified.verdict, Some(certified.certificate), None),
            Err(e) => (
                Verdict::Unknown(format!("certification failed: {e}")),
                None,
                None,
            ),
        };
    }
    if let (Some(factory), SolveMode::Monolithic) = (&inner.config.engine_override, spec.mode) {
        let verdict = verifier.check(obligation, factory().as_mut(), budget);
        return (verdict, None, None);
    }
    if spec.keep_proof {
        let shared_proof = velv_sat::SharedProof::new();
        let (verdict, refinement) =
            verifier.check_with_proof(obligation, cdcl(), budget, &shared_proof);
        // The artifact must replay against the job's CNF as shipped, so a
        // refutation that needed refinement clauses keeps no proof.
        let proof = (verdict.is_correct() && refinement.constraints_added == 0).then(|| {
            let _mem_scope = velv_obs::MemScope::enter("proof");
            let text = velv_sat::dimacs::to_drat_text_string(&shared_proof.take());
            Arc::new(text.into_bytes())
        });
        return (verdict, None, proof);
    }
    let verdict = verifier.check_with_backend(obligation, &spec.backend.into(), budget);
    (verdict, None, None)
}

/// Assembles the [`velv_obs::SolveProfile`] of a fresh single-job solve:
/// the recorder's time-series plus the phase tree folded out of the job's
/// spans.  Runs after the translate/solve spans have closed but while the
/// `serve.job` span is still open, so the job wall is passed in explicitly;
/// the respond phase (microseconds of bookkeeping) is deliberately outside
/// the profiled window.
fn build_job_profile(
    inner: &Inner,
    job: &SingleJob,
    verdict: &Verdict,
    job_span_id: u64,
    job_started: Instant,
    recorder: &velv_obs::SharedSolveRecorder,
) -> Option<Arc<String>> {
    let sink = inner.config.profile_sink.as_ref()?;
    // The translate thread already drained its trace buffer on exit; flush
    // the remaining per-thread buffers so the sink holds every span of this
    // job before the tree is folded.
    velv_obs::flush();
    let wall_us = job_started.elapsed().as_micros() as u64;
    let phases = sink
        .take_tree(job_span_id, Some(wall_us))
        .map(|tree| vec![tree])
        .unwrap_or_default();
    let rec = recorder.lock().ok()?;
    let series = rec.series();
    let final_sample = series.last();
    let profile = velv_obs::SolveProfile {
        instance: job.state.name.clone(),
        solver: final_sample
            .map(|s| s.label.clone())
            .unwrap_or_else(|| format!("{:?}", job.spec.backend)),
        result: match verdict {
            Verdict::Correct => "correct".to_owned(),
            Verdict::Buggy(_) => "buggy".to_owned(),
            Verdict::Unknown(reason) => format!("unknown: {reason}"),
        },
        wall_us,
        stride: rec.stride(),
        offered: rec.offered(),
        conflicts: final_sample.map(|s| s.conflicts).unwrap_or(0),
        propagations: final_sample.map(|s| s.propagations).unwrap_or(0),
        decisions: final_sample.map(|s| s.decisions).unwrap_or(0),
        restarts: final_sample.map(|s| s.restarts).unwrap_or(0),
        markers: rec.markers().to_vec(),
        samples: series,
        phases,
    };
    Some(Arc::new(profile.to_jsonl()))
}
