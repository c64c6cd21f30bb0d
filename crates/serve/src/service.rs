//! The verification service: a bounded worker pool over a priority queue,
//! fronted by the fingerprint-keyed verdict cache and in-flight
//! deduplication.
//!
//! Life of a submission:
//!
//! 1. [`ServeHandle::submit`] rejects a spec the workers cannot honour
//!    (evidence a back end cannot give, see [`crate::job`]), builds the
//!    Burch–Dill problem for the job's model and computes its structural
//!    fingerprint ([`velv_core::problem_fingerprint`] + [`JobSpec::salt`]).
//!    This happens *before* any translation or solving.
//! 2. The **verdict cache** is consulted: a hit resolves the ticket
//!    immediately — no translation, no solver.
//! 3. The **in-flight table** is consulted: if a job with the same
//!    fingerprint is already queued or running, the new ticket *subscribes*
//!    to that job's result instead of scheduling a second solve.
//! 4. Otherwise the job enters the priority queue (higher priority first,
//!    FIFO within a priority) and a worker picks it up.  Every job takes the
//!    same path: translate it into a list of obligations (a monolithic job
//!    is a list of one), decide each on the back end the spec names — with
//!    a certificate or a kept proof when asked — under the job's budget
//!    (deadline measured from submission, conflict cap, and a per-job cancel
//!    token), and fold the obligations' verdicts into the job's.
//! 5. Every ending — a cache hit, a fresh verdict, a cancellation, a shed,
//!    a queue-full rejection, a worker panic or a rolled-back batch entry —
//!    leaves through one resolve point, which caches a decided fresh
//!    verdict, wakes every subscriber and counts the outcome once.
//!
//! **Batch submission** ([`ServeHandle::submit_batch`]) is atomic admission
//! followed by one single job per entry: every entry passes steps 1–3 before
//! anything is scheduled (an invalid entry rejects the whole batch), and each
//! fresh entry then enters the queue as its own job.  The entries spread
//! across the workers and deliver their verdicts as they finish.
//!
//! Every ticket holds a waiter count; when the last ticket of a job is
//! dropped before the job finishes (all clients disconnected), the job's
//! cancel token is raised and the workers abandon it from their solver hot
//! loops.  [`ServeHandle::shutdown`] (also triggered by dropping the last
//! handle) raises every in-flight token, joins the workers, and resolves
//! whatever was still queued as cancelled.

use crate::cache::{CachedVerdict, VerdictCache};
use crate::job::{JobSpec, ParseJobError};
use crate::persist;
use crate::proto::TraceContext;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use velv_core::{Certificate, TranslationStats, Verdict, VerificationProblem, Verifier};
use velv_eufm::Fingerprint;
use velv_sat::{CancelToken, Solver};

// The worker side lives in its own file but stays a child of this module,
// so it reaches the service's private state without widening its
// visibility.
#[path = "worker.rs"]
mod worker;

/// Builds a replacement engine for monolithic uncertified jobs; a test and
/// extension hook (e.g. plugging a custom engine into a service instance).
pub type EngineOverride = Arc<dyn Fn() -> Box<dyn Solver + Send> + Send + Sync>;

/// Configuration of one service instance.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Total verdict-cache budget in bytes.
    pub cache_bytes: usize,
    /// Deadline applied to jobs that do not carry their own timeout.
    pub default_timeout: Option<Duration>,
    /// When set, monolithic uncertified jobs use this engine instead of the
    /// back end named in their spec.
    pub engine_override: Option<EngineOverride>,
    /// When set, every decided verdict is appended to a crash-safe
    /// [`velv_store::Store`] in this directory *before* the response is
    /// delivered, and startup replays the log to warm the verdict cache.
    pub store_dir: Option<PathBuf>,
    /// Durability point of store appends (`always` by default: a delivered
    /// verdict survives power loss).
    pub store_fsync: velv_store::FsyncPolicy,
    /// Failpoints instance threaded into the store (fault-injection tests).
    pub store_failpoints: Option<Arc<velv_store::Failpoints>>,
    /// Bound on jobs waiting in the queue.  When the queue is full, a new
    /// submission sheds the lowest-priority queued job if it outranks it
    /// (the victim resolves as `unknown` with a busy reason), and is
    /// otherwise rejected with [`ServeError::Busy`].  `None` = unbounded.
    pub max_queue_depth: Option<usize>,
    /// Cap on the jobs one client (one connection) may have in flight at
    /// once — enforced by the TCP front end on batch submissions, the only
    /// way a single connection creates concurrent jobs.  `0` = unlimited.
    pub per_client_quota: usize,
    /// When set, every fresh single-job solve is profiled: a solve recorder
    /// rides the solver's heartbeats, this sink (which the host must also
    /// install as the process trace sink, teeing into any file sink) folds
    /// the job's spans into a phase tree, and the combined
    /// [`velv_obs::SolveProfile`] is cached and persisted next to the
    /// verdict, served by the `profile` wire verb.
    pub profile_sink: Option<Arc<velv_obs::ProfileSink>>,
    /// Live-heap ceiling in bytes (measured by the counting allocator, so it
    /// only engages when the host installed [`velv_obs::CountingAlloc`] —
    /// `velvd --mem-limit`).  Approaching the ceiling trips staged
    /// degradation: at 60% the verdict cache shrinks to a quarter of its
    /// budget, at 80% the lower-priority half of the queue is shed, at 95%
    /// fresh submissions are refused as busy (cache hits and dedup joins are
    /// still served).  `None` disables the ladder.
    pub mem_limit: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(2);
        ServiceConfig {
            workers,
            cache_bytes: 64 << 20,
            default_timeout: None,
            engine_override: None,
            store_dir: None,
            store_fsync: velv_store::FsyncPolicy::Always,
            store_failpoints: None,
            max_queue_depth: None,
            per_client_quota: 0,
            profile_sink: None,
            mem_limit: None,
        }
    }
}

impl ServiceConfig {
    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the cache byte budget.
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Enables per-job solve profiling through `sink` (which the host must
    /// also install as the process trace sink).
    pub fn with_profile_sink(mut self, sink: Arc<velv_obs::ProfileSink>) -> Self {
        self.profile_sink = Some(sink);
        self
    }

    /// Sets the live-heap ceiling that arms the memory-pressure ladder.
    pub fn with_mem_limit(mut self, bytes: u64) -> Self {
        self.mem_limit = Some(bytes);
        self
    }
}

/// Maps live heap bytes to a memory-pressure level under `limit`: 0 below
/// 60% of the ceiling, 1 (shrink the verdict cache) at 60%, 2 (shed queued
/// work) at 80%, 3 (refuse fresh submissions) at 95%.  Pure so the ladder's
/// thresholds are unit-testable without an allocator or a service.
pub fn pressure_level(live_bytes: u64, limit: u64) -> u64 {
    if limit == 0 {
        return 0;
    }
    let live = live_bytes as u128 * 100;
    let limit = limit as u128;
    if live >= limit * 95 {
        3
    } else if live >= limit * 80 {
        2
    } else if live >= limit * 60 {
        1
    } else {
        0
    }
}

/// The scheduling class of a priority value — the `class` label of the
/// per-class latency histograms and the class column of the live progress
/// rows.  Positive priorities are `high`, zero is `normal`, negative is
/// `low`.
pub fn priority_class(priority: i32) -> &'static str {
    match priority.cmp(&0) {
        std::cmp::Ordering::Greater => "high",
        std::cmp::Ordering::Equal => "normal",
        std::cmp::Ordering::Less => "low",
    }
}

/// Why a submission was rejected.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The service has been shut down.
    ShutDown,
    /// The job specification is invalid (bad model reference, ...).
    InvalidJob(ParseJobError),
    /// The service is overloaded: the queue is full and the submission does
    /// not outrank any queued job.  Retry later; nothing was scheduled.
    Busy(String),
    /// The verdict store could not be opened or replayed at startup.
    Store(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ShutDown => write!(f, "the service has been shut down"),
            ServeError::InvalidJob(e) => write!(f, "invalid job: {e}"),
            ServeError::Busy(reason) => write!(f, "busy: {reason}"),
            ServeError::Store(e) => write!(f, "verdict store failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Scheduling state of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the priority queue.
    Queued,
    /// A worker is translating/solving it.
    Running,
    /// The result is available.
    Done,
}

/// The delivered outcome of a job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The design name of the job.
    pub name: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Whether the verdict came straight from the cache (no translation, no
    /// solver).
    pub from_cache: bool,
    /// Whether this ticket subscribed to another in-flight submission of the
    /// same fingerprint.
    pub deduplicated: bool,
    /// Submission-to-result latency for this ticket.
    pub wall: Duration,
    /// Translation + solve time actually spent (zero for cache hits).
    pub solve_time: Duration,
    /// Certificate of a certified run.
    pub certificate: Option<Certificate>,
}

struct JobSlot {
    result: Option<JobResult>,
    status: JobStatus,
}

/// Shared state of one scheduled job (or one cache-hit pseudo-job).
struct JobState {
    fingerprint: Fingerprint,
    name: String,
    /// Scheduling priority of the originating spec — the class label of the
    /// per-class latency histograms.
    priority: i32,
    submitted: Instant,
    cancel: CancelToken,
    waiters: AtomicU64,
    slot: Mutex<JobSlot>,
    done: Condvar,
}

impl JobState {
    fn new(fingerprint: Fingerprint, name: String, priority: i32) -> Self {
        JobState {
            fingerprint,
            name,
            priority,
            submitted: Instant::now(),
            cancel: CancelToken::new(),
            waiters: AtomicU64::new(0),
            slot: Mutex::new(JobSlot {
                result: None,
                status: JobStatus::Queued,
            }),
            done: Condvar::new(),
        }
    }

    fn set_status(&self, status: JobStatus) {
        self.slot.lock().expect("job slot lock").status = status;
    }

    /// Whether a result has already been delivered (a queued job in this
    /// state was shed by admission control; workers skip it).
    fn is_resolved(&self) -> bool {
        self.slot.lock().expect("job slot lock").result.is_some()
    }
}

/// A claim on a job's result.
///
/// Tickets are handed out by [`ServeHandle::submit`]/
/// [`ServeHandle::submit_batch`]; several tickets may share one underlying
/// job (deduplicated submissions).  Dropping the *last* ticket of an
/// unfinished job raises the job's cancel token — a disconnected client does
/// not keep workers busy.
pub struct JobTicket {
    state: Arc<JobState>,
    /// This ticket subscribed to an already in-flight identical job.
    joined: bool,
}

impl JobTicket {
    fn subscribe(state: &Arc<JobState>, joined: bool) -> JobTicket {
        state.waiters.fetch_add(1, Ordering::SeqCst);
        JobTicket {
            state: Arc::clone(state),
            joined,
        }
    }

    /// The underlying job's result is shared by every subscriber; stamp this
    /// ticket's own view of how it was admitted.
    fn stamp(&self, mut result: JobResult) -> JobResult {
        result.deduplicated = self.joined;
        result
    }

    /// The job's structural fingerprint (the cache/deduplication key).
    pub fn fingerprint(&self) -> Fingerprint {
        self.state.fingerprint
    }

    /// The job's scheduling state.
    pub fn status(&self) -> JobStatus {
        self.state.slot.lock().expect("job slot lock").status
    }

    /// Blocks until the result is available.
    pub fn wait(&self) -> JobResult {
        let mut slot = self.state.slot.lock().expect("job slot lock");
        loop {
            if let Some(result) = &slot.result {
                return self.stamp(result.clone());
            }
            slot = self.state.done.wait(slot).expect("job slot lock");
        }
    }

    /// Waits for at most `timeout`; `None` when the job is still unfinished.
    pub fn wait_for(&self, timeout: Duration) -> Option<JobResult> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.state.slot.lock().expect("job slot lock");
        loop {
            if let Some(result) = &slot.result {
                return Some(self.stamp(result.clone()));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .state
                .done
                .wait_timeout(slot, deadline - now)
                .expect("job slot lock");
            slot = next;
        }
    }
}

impl Drop for JobTicket {
    fn drop(&mut self) {
        if self.state.waiters.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last client gone: if the job has not produced a result yet,
            // tell the workers to stop burning cycles on it.
            let unfinished = self
                .state
                .slot
                .lock()
                .expect("job slot lock")
                .result
                .is_none();
            if unfinished {
                self.state.cancel.cancel();
            }
        }
    }
}

/// One unit of scheduled work.
struct SingleJob {
    spec: JobSpec,
    problem: VerificationProblem,
    deadline: Option<Instant>,
    state: Arc<JobState>,
    /// The submitting client's trace context: the worker's `serve.job` span
    /// is tagged with it so a merged multi-process trace parents the span
    /// under the client's root span.
    trace: Option<TraceContext>,
}

struct QueuedItem {
    priority: i32,
    seq: u64,
    job: Box<SingleJob>,
}

impl PartialEq for QueuedItem {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for QueuedItem {}
impl PartialOrd for QueuedItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then FIFO by sequence number.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Shard count of the verdict cache.
const CACHE_SHARDS: usize = 8;

/// One histogram family labelled by scheduling class (`high`/`normal`/`low`),
/// registered with the fine log-bucketed bounds so class percentiles stay
/// meaningful from microseconds to minutes.
struct ClassHistograms {
    high: velv_obs::Histogram,
    normal: velv_obs::Histogram,
    low: velv_obs::Histogram,
}

impl ClassHistograms {
    fn new(registry: &velv_obs::Registry, name: &str, help: &str) -> ClassHistograms {
        let bounds = velv_obs::log_bucket_bounds();
        let labelled =
            |class: &str| registry.histogram_with(name, &[("class", class)], help, bounds);
        ClassHistograms {
            high: labelled("high"),
            normal: labelled("normal"),
            low: labelled("low"),
        }
    }

    fn for_priority(&self, priority: i32) -> &velv_obs::Histogram {
        match priority_class(priority) {
            "high" => &self.high,
            "low" => &self.low,
            _ => &self.normal,
        }
    }

    fn observe(&self, priority: i32, value: u64) {
        self.for_priority(priority).observe(value);
    }

    /// The three class snapshots pooled into one (identical bounds by
    /// construction) — the overall distribution the percentile gauges are
    /// derived from.
    fn merged_snapshot(&self) -> velv_obs::HistogramSnapshot {
        let mut merged = self.high.snapshot();
        merged.merge(&self.normal.snapshot());
        merged.merge(&self.low.snapshot());
        merged
    }
}

/// The service's metric handles, registered on the per-service
/// [`Registry`](velv_obs::Registry) — the registry snapshot *is* the wire
/// `stats` payload, so every counter below is automatically served.
struct Counters {
    submitted: velv_obs::Counter,
    batch_entries: velv_obs::Counter,
    completed: velv_obs::Counter,
    cache_hits: velv_obs::Counter,
    dedup_joins: velv_obs::Counter,
    translations: velv_obs::Counter,
    fresh_solves: velv_obs::Counter,
    correct: velv_obs::Counter,
    buggy: velv_obs::Counter,
    unknown: velv_obs::Counter,
    cancelled: velv_obs::Counter,
    proofs_kept: velv_obs::Counter,
    shed: velv_obs::Counter,
    busy_rejections: velv_obs::Counter,
    quota_rejections: velv_obs::Counter,
    worker_panics: velv_obs::Counter,
    persisted: velv_obs::Counter,
    persist_errors: velv_obs::Counter,
    replayed: velv_obs::Counter,
    replay_skipped: velv_obs::Counter,
    queued: velv_obs::Gauge,
    running: velv_obs::Gauge,
    workers: velv_obs::Gauge,
    solve_micros: velv_obs::Counter,
    queue_wait: ClassHistograms,
    job_wall_class: ClassHistograms,
    job_wall_p50: velv_obs::Gauge,
    job_wall_p95: velv_obs::Gauge,
    job_wall_p99: velv_obs::Gauge,
    cache_entries: velv_obs::Gauge,
    cache_bytes: velv_obs::Gauge,
    cache_capacity_bytes: velv_obs::Gauge,
    mem_live_bytes: velv_obs::Gauge,
    mem_peak_bytes: velv_obs::Gauge,
    mem_rss_peak_bytes: velv_obs::Gauge,
    mem_limit_bytes: velv_obs::Gauge,
    mem_pressure_level: velv_obs::Gauge,
    mem_pressure_trips: velv_obs::Counter,
    mem_pressure_rejections: velv_obs::Counter,
    /// Per-scope `(live, peak)` gauges, aligned with
    /// [`velv_obs::mem::SCOPE_NAMES`].
    mem_scopes: Vec<(velv_obs::Gauge, velv_obs::Gauge)>,
    mem_measured_cache_bytes: velv_obs::Gauge,
    mem_measured_queue_bytes: velv_obs::Gauge,
    mem_measured_store_index_bytes: velv_obs::Gauge,
}

impl Counters {
    fn new(registry: &velv_obs::Registry) -> Counters {
        Counters {
            submitted: registry.counter(
                "velv_serve_jobs_submitted_total",
                "Jobs submitted with a valid spec (batch entries and cached/deduplicated ones included).",
            ),
            batch_entries: registry.counter(
                "velv_serve_batch_entries_total",
                "Jobs submitted through the batch endpoint.",
            ),
            completed: registry.counter(
                "velv_serve_jobs_completed_total",
                "Jobs resolved other than from the cache: worker verdicts, cancellations, sheds, \
                 queue-full rejections, worker panics and rolled-back batch entries; each also \
                 counts as correct, buggy or unknown.",
            ),
            cache_hits: registry.counter(
                "velv_serve_cache_hits_total",
                "Submissions answered straight from the verdict cache.",
            ),
            dedup_joins: registry.counter(
                "velv_serve_dedup_joins_total",
                "Submissions that subscribed to an in-flight identical job.",
            ),
            translations: registry.counter(
                "velv_serve_translations_total",
                "Translations started (cache hits and dedup joins start none).",
            ),
            fresh_solves: registry.counter(
                "velv_serve_fresh_solves_total",
                "Back-end solve runs started.",
            ),
            correct: registry.counter(
                "velv_serve_verdict_correct_total",
                "Verdicts: correct designs.",
            ),
            buggy: registry.counter(
                "velv_serve_verdict_buggy_total",
                "Verdicts: buggy designs (counterexample produced).",
            ),
            unknown: registry.counter(
                "velv_serve_verdict_unknown_total",
                "Verdicts: undecided (timeout, cancellation, resource limits).",
            ),
            cancelled: registry.counter(
                "velv_serve_cancelled_total",
                "Jobs abandoned by client disconnect or service shutdown.",
            ),
            proofs_kept: registry.counter(
                "velv_serve_proofs_kept_total",
                "DRAT proof artifacts stored in the cache.",
            ),
            shed: registry.counter(
                "velv_serve_jobs_shed_total",
                "Queued jobs shed under overload in favour of higher-priority work.",
            ),
            busy_rejections: registry.counter(
                "velv_serve_busy_rejections_total",
                "Submissions rejected as busy (queue full, no lower-priority victim).",
            ),
            quota_rejections: registry.counter(
                "velv_serve_quota_rejections_total",
                "Submissions rejected by the per-client in-flight quota.",
            ),
            worker_panics: registry.counter(
                "velv_serve_worker_panics_total",
                "Worker panics contained by the pool (the job resolves as unknown).",
            ),
            persisted: registry.counter(
                "velv_serve_verdicts_persisted_total",
                "Decided verdicts appended to the crash-safe store.",
            ),
            persist_errors: registry.counter(
                "velv_serve_persist_errors_total",
                "Store appends that failed (the verdict was still delivered).",
            ),
            replayed: registry.counter(
                "velv_serve_warm_boot_replayed_total",
                "Verdicts replayed from the store into the cache at startup.",
            ),
            replay_skipped: registry.counter(
                "velv_serve_warm_boot_skipped_total",
                "Store records skipped at startup (undecodable or undecided).",
            ),
            queued: registry.gauge(
                "velv_serve_jobs_queued",
                "Jobs currently waiting in the queue.",
            ),
            running: registry.gauge("velv_serve_jobs_running", "Jobs currently being worked on."),
            workers: registry.gauge("velv_serve_workers", "Worker threads in the pool."),
            solve_micros: registry.counter(
                "velv_serve_solve_micros_total",
                "Total translation+solve time spent by workers, in microseconds.",
            ),
            queue_wait: ClassHistograms::new(
                registry,
                "velv_serve_queue_wait_micros",
                "Queue wait (submission to dequeue) per job, in microseconds.",
            ),
            job_wall_class: ClassHistograms::new(
                registry,
                "velv_serve_job_wall_class_micros",
                "Submission-to-result latency per completed job by scheduling class, in microseconds.",
            ),
            job_wall_p50: registry.gauge(
                "velv_serve_job_wall_p50_micros",
                "Estimated median submission-to-result latency, in microseconds.",
            ),
            job_wall_p95: registry.gauge(
                "velv_serve_job_wall_p95_micros",
                "Estimated 95th-percentile submission-to-result latency, in microseconds.",
            ),
            job_wall_p99: registry.gauge(
                "velv_serve_job_wall_p99_micros",
                "Estimated 99th-percentile submission-to-result latency, in microseconds.",
            ),
            cache_entries: registry.gauge(
                "velv_serve_cache_entries",
                "Verdict-cache entries currently resident.",
            ),
            cache_bytes: registry.gauge(
                "velv_serve_cache_bytes",
                "Verdict-cache bytes currently charged.",
            ),
            cache_capacity_bytes: registry.gauge(
                "velv_serve_cache_capacity_bytes",
                "Verdict-cache total byte budget.",
            ),
            mem_live_bytes: registry.gauge(
                "velv_mem_live_bytes",
                "Live heap bytes reported by the counting allocator (0 when not installed).",
            ),
            mem_peak_bytes: registry.gauge(
                "velv_mem_peak_bytes",
                "High-water mark of live heap bytes since process start (or the last reset).",
            ),
            mem_rss_peak_bytes: registry.gauge(
                "velv_mem_rss_peak_bytes",
                "Peak resident-set size of the process (VmHWM), in bytes.",
            ),
            mem_limit_bytes: registry.gauge(
                "velv_mem_limit_bytes",
                "Configured live-heap ceiling arming the pressure ladder (0 = disabled).",
            ),
            mem_pressure_level: registry.gauge(
                "velv_mem_pressure_level",
                "Memory-pressure level: 0 none, 1 cache shrunk, 2 queue shed, 3 refusing fresh work.",
            ),
            mem_pressure_trips: registry.counter(
                "velv_mem_pressure_trips_total",
                "Transitions from no memory pressure to any pressure level.",
            ),
            mem_pressure_rejections: registry.counter(
                "velv_mem_pressure_rejections_total",
                "Fresh submissions refused as busy at pressure level 3.",
            ),
            mem_scopes: velv_obs::mem::SCOPE_NAMES
                .iter()
                .map(|scope| {
                    (
                        registry.gauge_with(
                            "velv_mem_scope_live_bytes",
                            &[("scope", scope)],
                            "Live heap bytes attributed to an allocation scope.",
                        ),
                        registry.gauge_with(
                            "velv_mem_scope_peak_bytes",
                            &[("scope", scope)],
                            "High-water mark of live heap bytes attributed to an allocation scope.",
                        ),
                    )
                })
                .collect(),
            mem_measured_cache_bytes: registry.gauge(
                "velv_mem_measured_cache_bytes",
                "Deep measured footprint of the verdict cache (shard tables plus resident values).",
            ),
            mem_measured_queue_bytes: registry.gauge(
                "velv_mem_measured_queue_bytes",
                "Deep measured footprint of the job queue heap.",
            ),
            mem_measured_store_index_bytes: registry.gauge(
                "velv_mem_measured_store_index_bytes",
                "Deep measured footprint of the verdict store's in-memory key index.",
            ),
        }
    }
}

/// The submission accounting of a service: every valid submission ends as
/// exactly one of a cache hit, a dedup join, a completed job or a
/// memory-pressure refusal, so at quiescence `submitted == cache_hits +
/// dedup_joins + completed + mem_pressure_rejections`.  Every other number
/// is read from [`ServeHandle::registry_snapshot`] by its wire name.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Jobs submitted with a valid spec (batch entries and cached/deduplicated
    /// ones included).
    pub submitted: u64,
    /// Submissions answered straight from the verdict cache.
    pub cache_hits: u64,
    /// Submissions that subscribed to an in-flight identical job.
    pub dedup_joins: u64,
    /// Jobs resolved other than from the cache: worker verdicts,
    /// cancellations, sheds, queue-full rejections, worker panics and
    /// rolled-back batch entries.
    pub completed: u64,
    /// Fresh submissions refused as busy at memory-pressure level 3.
    pub mem_pressure_rejections: u64,
}

struct QueueState {
    heap: BinaryHeap<QueuedItem>,
    seq: u64,
    /// Unresolved jobs sitting in the heap — the quantity bounded by
    /// [`ServiceConfig::max_queue_depth`].  Shed jobs stay in the heap
    /// (a [`BinaryHeap`] has no removal) but leave this count; workers
    /// skip them on pop.
    depth: u64,
}

impl velv_obs::MemFootprint for QueueState {
    /// Deep measured bytes of the queue: heap slots (occupied and reserved)
    /// plus the boxed job state each entry owns.  Job *contents* (problems,
    /// specs) are charged at struct size — the dominant queue cost is the
    /// per-entry state, not deep problem ASTs.
    fn measured_bytes(&self) -> usize {
        std::mem::size_of::<QueueState>()
            + self.heap.capacity() * std::mem::size_of::<QueuedItem>()
            + self.heap.len() * std::mem::size_of::<SingleJob>()
    }
}

/// A live progress-table entry: one job a worker is currently running, with
/// the solve recorder its solver heartbeats feed.
struct ProgressEntry {
    name: String,
    priority: i32,
    started: Instant,
    deadline: Option<Instant>,
    recorder: velv_obs::SharedSolveRecorder,
}

/// One row of the live per-job progress table — the payload of the `status`
/// wire verb's `job` lines and of `velvc top`/`velvc watch`.
#[derive(Clone, Debug)]
pub struct ProgressRow {
    /// The job's structural fingerprint.
    pub fingerprint: Fingerprint,
    /// The design name.
    pub name: String,
    /// Scheduling class (`high`/`normal`/`low`).
    pub class: &'static str,
    /// Time since submission.
    pub elapsed: Duration,
    /// Total wall budget (submission to deadline), when the job has one.
    pub budget: Option<Duration>,
    /// The latest sample the job's solve recorder was offered (all zero
    /// before the first one, and for back ends that do not heartbeat).  The
    /// wire `level` is its `mean_decision_level` rounded: the mean decision
    /// level of the conflicts since the previous sample.
    pub progress: velv_obs::SolveSample,
    /// Samples offered so far (the wire `beats`): one per heartbeat plus the
    /// closing sample of each `search` call, summed over race members.
    pub beats: u64,
}

struct Inner {
    config: ServiceConfig,
    queue: Mutex<QueueState>,
    work: Condvar,
    in_flight: Mutex<HashMap<u128, Arc<JobState>>>,
    /// Jobs currently on a worker, keyed by fingerprint; feeds the `status`
    /// progress rows.
    progress: Mutex<HashMap<u128, ProgressEntry>>,
    cache: VerdictCache,
    /// The crash-safe verdict store, when configured: decided verdicts are
    /// appended before delivery, and startup replayed it into the cache.
    store: Option<velv_store::Store>,
    /// The startup recovery report of the store, when configured.
    recovery: Option<velv_store::RecoveryReport>,
    /// The per-service metric registry: every counter/gauge/histogram of
    /// this instance, including the cache's lookup counters.  Per-service
    /// (not global) so concurrent instances do not mix their numbers.
    registry: velv_obs::Registry,
    counters: Counters,
    /// Current memory-pressure level (see [`pressure_level`]); written by
    /// [`Inner::update_pressure`], read lock-free at admission.
    mem_pressure: AtomicU64,
    shutdown: AtomicBool,
}

impl Inner {
    fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            submitted: c.submitted.get(),
            cache_hits: c.cache_hits.get(),
            dedup_joins: c.dedup_joins.get(),
            completed: c.completed.get(),
            mem_pressure_rejections: c.mem_pressure_rejections.get(),
        }
    }

    /// Refreshes the snapshot-time gauges (cache residency, latency
    /// percentiles, memory) from their sources; call before snapshotting the
    /// registry.
    fn refresh_gauges(&self) {
        let cache = self.cache.stats();
        self.counters.cache_entries.set(cache.entries as i64);
        self.counters.cache_bytes.set(cache.bytes as i64);
        self.counters
            .cache_capacity_bytes
            .set(cache.capacity_bytes as i64);
        let wall = self.counters.job_wall_class.merged_snapshot();
        self.counters.job_wall_p50.set(wall.quantile(0.50) as i64);
        self.counters.job_wall_p95.set(wall.quantile(0.95) as i64);
        self.counters.job_wall_p99.set(wall.quantile(0.99) as i64);
        self.refresh_mem_gauges();
    }

    /// Publishes the allocator's snapshot (global and per-scope live/peak),
    /// the deep measured footprints of the hot structures, and re-evaluates
    /// the pressure ladder.  The measured gauges cross-check the allocator's
    /// scope attribution: `velv_mem_measured_cache_bytes` and
    /// `velv_mem_scope_live_bytes{scope="serve.cache"}` should track each
    /// other.
    fn refresh_mem_gauges(&self) {
        use velv_obs::MemFootprint;
        let mem = velv_obs::mem::snapshot();
        self.counters.mem_live_bytes.set(mem.live_bytes);
        self.counters.mem_peak_bytes.set(mem.peak_bytes);
        self.counters
            .mem_rss_peak_bytes
            .set(mem.peak_rss_bytes.min(i64::MAX as u64) as i64);
        self.counters
            .mem_limit_bytes
            .set(self.config.mem_limit.unwrap_or(0).min(i64::MAX as u64) as i64);
        for (scope, (live, peak)) in mem.scopes.iter().zip(&self.counters.mem_scopes) {
            live.set(scope.live_bytes);
            peak.set(scope.peak_bytes);
        }
        self.counters
            .mem_measured_cache_bytes
            .set(self.cache.measured_bytes() as i64);
        let queue_bytes = self.queue.lock().expect("queue lock").measured_bytes();
        self.counters
            .mem_measured_queue_bytes
            .set(queue_bytes as i64);
        if let Some(store) = &self.store {
            self.counters
                .mem_measured_store_index_bytes
                .set(store.measured_bytes() as i64);
        }
        self.update_pressure();
    }

    /// Re-evaluates the memory-pressure ladder against the allocator's live
    /// reading and applies stage transitions (shrink the cache, shed queued
    /// work, arm submission refusal); returns the current level.  Called at
    /// submission admission and at snapshot time.  Must not be invoked while
    /// holding the queue or in-flight lock — stage 2 takes both.
    fn update_pressure(&self) -> u64 {
        let Some(limit) = self.config.mem_limit else {
            return 0;
        };
        let live = velv_obs::mem::live_bytes().max(0) as u64;
        let level = pressure_level(live, limit);
        let prev = self.mem_pressure.swap(level, Ordering::Relaxed);
        if level == prev {
            return level;
        }
        self.counters.mem_pressure_level.set(level as i64);
        if velv_obs::enabled() {
            velv_obs::event(
                "serve.mem_pressure",
                &[("level", level.into()), ("live_bytes", live.into())],
            );
        }
        if prev == 0 && level > 0 {
            self.counters.mem_pressure_trips.inc();
        }
        if level >= 1 && prev == 0 {
            // Stage 1: trade hit ratio for headroom.
            self.cache
                .set_capacity((self.config.cache_bytes / 4).max(1));
        } else if level == 0 {
            self.cache.set_capacity(self.config.cache_bytes.max(1));
        }
        if level >= 2 && prev < 2 {
            self.shed_queued_for_memory();
        }
        level
    }

    /// Stage-2 degradation: sheds the lower-priority half of the queued jobs
    /// (their waiters resolve as busy) so queued work stops holding memory
    /// the ceiling no longer affords.  Victim order matches overload
    /// shedding: lowest priority first, youngest first within a priority.
    fn shed_queued_for_memory(&self) {
        let mut queue = self.queue.lock().expect("queue lock");
        if queue.depth == 0 {
            return;
        }
        let target = queue.depth / 2;
        let mut victims: Vec<&QueuedItem> = queue
            .heap
            .iter()
            .filter(|q| !q.job.state.is_resolved())
            .collect();
        // Ascending heap order: lowest priority first, youngest first.
        victims.sort();
        let excess = (queue.depth - target) as usize;
        for victim in victims.iter().take(excess) {
            self.resolve(&victim.job.state, Outcome::Shed);
        }
        let freed = victims.len().min(excess) as u64;
        queue.depth -= freed;
        self.counters.queued.sub(freed as i64);
    }

    /// The live progress rows, longest-running job first.
    fn progress_rows(&self) -> Vec<ProgressRow> {
        let table = self.progress.lock().expect("progress table lock");
        let mut rows: Vec<ProgressRow> = table
            .iter()
            .map(|(key, entry)| {
                let recorder = entry
                    .recorder
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                ProgressRow {
                    fingerprint: Fingerprint(*key),
                    name: entry.name.clone(),
                    class: priority_class(entry.priority),
                    elapsed: entry.started.elapsed(),
                    budget: entry
                        .deadline
                        .map(|d| d.saturating_duration_since(entry.started)),
                    progress: recorder.last().cloned().unwrap_or_default(),
                    beats: recorder.offered(),
                }
            })
            .collect();
        drop(table);
        rows.sort_by_key(|row| std::cmp::Reverse(row.elapsed));
        rows
    }

    /// A point-in-time snapshot of the service registry, gauges refreshed.
    fn registry_snapshot(&self) -> velv_obs::Snapshot {
        self.refresh_gauges();
        self.registry.snapshot()
    }

    /// Enqueues under the admission bound.  When the queue is full the
    /// lowest-priority queued job is shed — but only if the incoming job
    /// strictly outranks it; otherwise the incoming job itself is rejected
    /// and handed back for the caller to fail as busy.
    fn push_bounded(&self, job: Box<SingleJob>) -> Result<(), Box<SingleJob>> {
        let mut queue = self.queue.lock().expect("queue lock");
        if let Some(max) = self.config.max_queue_depth {
            while queue.depth >= max as u64 {
                // The minimum under the heap order is the lowest-priority,
                // youngest job — the natural shed victim.
                let victim = queue
                    .heap
                    .iter()
                    .filter(|q| !q.job.state.is_resolved())
                    .min()
                    .filter(|q| q.priority < job.spec.priority)
                    .map(|q| Arc::clone(&q.job.state));
                let Some(state) = victim else {
                    return Err(job);
                };
                self.resolve(&state, Outcome::Shed);
                queue.depth -= 1;
                self.counters.queued.sub(1);
            }
        }
        let seq = queue.seq;
        queue.seq += 1;
        queue.depth += 1;
        queue.heap.push(QueuedItem {
            priority: job.spec.priority,
            seq,
            job,
        });
        // Counted under the lock, before a worker can pop the job and
        // subtract it: the gauge never reads below zero.
        self.counters.queued.add(1);
        drop(queue);
        self.work.notify_one();
        Ok(())
    }

    /// Blocks until work is available; `None` on shutdown.
    fn pop(&self) -> Option<Box<SingleJob>> {
        let mut queue = self.queue.lock().expect("queue lock");
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(queued) = queue.heap.pop() {
                if queued.job.state.is_resolved() {
                    // Shed while it queued: already out of the depth count.
                    continue;
                }
                queue.depth -= 1;
                self.counters.queued.sub(1);
                return Some(queued.job);
            }
            queue = self.work.wait(queue).expect("queue lock");
        }
    }

    fn remove_in_flight(&self, state: &Arc<JobState>) {
        let mut in_flight = self.in_flight.lock().expect("in-flight lock");
        if let Some(current) = in_flight.get(&state.fingerprint.0) {
            if Arc::ptr_eq(current, state) {
                in_flight.remove(&state.fingerprint.0);
            }
        }
    }

    /// The one exit of every job: builds the [`JobResult`], wakes every
    /// subscriber and counts the outcome, once per job — a job that is
    /// already resolved is left alone.  A fresh decided verdict is cached
    /// *before* the in-flight entry is retired, so a late submitter always
    /// finds one of the two.  Sheds call this under the queue lock (lock
    /// order queue → in-flight → slot is taken nowhere in reverse).
    fn resolve(&self, state: &Arc<JobState>, outcome: Outcome) {
        let c = &self.counters;
        let from_cache = matches!(outcome, Outcome::Cached(_));
        let unknown = |reason: &str, counter| {
            let verdict = Verdict::Unknown(reason.to_owned());
            (verdict, None, Duration::ZERO, counter)
        };
        // The verdict, and the counter the outcome bumps besides the
        // verdict and completion counters.
        let (verdict, certificate, solve_time, also_counted) = match outcome {
            Outcome::Cached(hit) => (
                hit.verdict.clone(),
                hit.certificate.clone(),
                Duration::ZERO,
                None,
            ),
            Outcome::Fresh(fresh) => {
                let decided = !matches!(fresh.verdict, Verdict::Unknown(_));
                if decided {
                    self.cache_fresh(state.fingerprint, &fresh);
                }
                let cancelled = !decided && state.cancel.is_cancelled();
                let fresh = *fresh;
                let counter = cancelled.then_some(&c.cancelled);
                (fresh.verdict, fresh.certificate, fresh.solve_time, counter)
            }
            Outcome::Cancelled => unknown("cancelled", Some(&c.cancelled)),
            Outcome::Shed => unknown("busy: shed under overload", Some(&c.shed)),
            Outcome::QueueFull => unknown("busy: queue full", Some(&c.busy_rejections)),
            Outcome::Panicked => unknown("worker panicked while running this job", None),
            Outcome::RolledBack => unknown("batch rejected", None),
        };
        self.remove_in_flight(state);
        let wall = state.submitted.elapsed();
        let mut slot = state.slot.lock().expect("job slot lock");
        if slot.result.is_some() {
            return;
        }
        // Counted before the waiters wake, so a client that saw its result
        // also sees it counted.
        if from_cache {
            c.cache_hits.inc();
        } else {
            c.completed.inc();
            match &verdict {
                Verdict::Correct => c.correct.inc(),
                Verdict::Buggy(_) => c.buggy.inc(),
                Verdict::Unknown(_) => c.unknown.inc(),
            }
            c.solve_micros.add(solve_time.as_micros() as u64);
            c.job_wall_class
                .observe(state.priority, wall.as_micros() as u64);
            if let Some(counter) = also_counted {
                counter.inc();
            }
        }
        slot.result = Some(JobResult {
            name: state.name.clone(),
            verdict,
            from_cache,
            deduplicated: false,
            wall,
            solve_time,
            certificate,
        });
        slot.status = JobStatus::Done;
        state.done.notify_all();
    }

    /// Persists (under the configured fsync policy) and caches a fresh
    /// decided verdict.  An append failure is counted and the verdict still
    /// delivered — losing durability must not lose the result.
    fn cache_fresh(&self, fingerprint: Fingerprint, fresh: &Fresh) {
        if fresh.proof.is_some() {
            self.counters.proofs_kept.inc();
        }
        let entry = CachedVerdict {
            verdict: fresh.verdict.clone(),
            certificate: fresh.certificate.clone(),
            proof_drat: fresh.proof.clone(),
            solve_time: fresh.solve_time,
            translation_stats: Some(fresh.translation_stats),
            profile: fresh.profile.clone(),
        };
        // Durability point: the verdict reaches the store before any
        // subscriber sees it, so a response on the wire implies a
        // recoverable record.
        if let Some(store) = &self.store {
            let _mem_scope = velv_obs::MemScope::enter("store.log");
            let (payload, sidecar) = persist::encode(&entry);
            match store.append(fingerprint.0, &payload, sidecar.as_deref()) {
                Ok(_) => self.counters.persisted.inc(),
                Err(_) => self.counters.persist_errors.inc(),
            }
        }
        let _mem_scope = velv_obs::MemScope::enter("serve.cache");
        self.cache.insert(fingerprint, entry);
    }
}

/// How a job ended.  Every ending goes through [`Inner::resolve`].
enum Outcome {
    /// Answered from the verdict cache, at admission or by the worker's
    /// re-check.  The only outcome not counted as `completed`.
    Cached(Arc<CachedVerdict>),
    /// A worker's verdict.
    Fresh(Box<Fresh>),
    /// Every client left, or the service shut down, before a worker ran it.
    Cancelled,
    /// Shed from the full queue in favour of higher-priority work.
    Shed,
    /// Refused by the full queue at admission.
    QueueFull,
    /// A worker panicked while running it.
    Panicked,
    /// Admitted in a batch that another entry got rejected.
    RolledBack,
}

/// A worker's verdict with everything the cache keeps of it.
struct Fresh {
    verdict: Verdict,
    certificate: Option<Certificate>,
    proof: Option<Arc<Vec<u8>>>,
    solve_time: Duration,
    translation_stats: TranslationStats,
    profile: Option<Arc<String>>,
}

/// How a submission was admitted.
enum Admission {
    Ticket(JobTicket),
    Fresh(JobTicket, Box<SingleJob>),
}

/// The in-process client API of a verification service.
///
/// A `ServeHandle` is cheap to clone; every clone talks to the same worker
/// pool, cache and queue.  When the last handle is dropped the service shuts
/// down: in-flight jobs are cancelled, workers are joined, and queued jobs
/// resolve as cancelled.  `velvd` wraps a handle in the TCP front end; tests
/// and examples use it directly, with no sockets involved.
///
/// ```no_run
/// use velv_serve::{JobSpec, ModelRef, ServeHandle, ServiceConfig};
///
/// let service = ServeHandle::start(ServiceConfig::default());
/// let ticket = service
///     .submit(JobSpec::new(ModelRef::dlx1_correct()))
///     .expect("submission accepted");
/// let result = ticket.wait();
/// assert!(result.verdict.is_correct());
/// ```
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<Inner>,
    workers: Arc<WorkerSet>,
}

struct WorkerSet {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerSet {
    fn shutdown(&self) {
        // Set the flag and wake the workers under the queue lock: `pop`
        // checks the flag under that lock before it waits, so a worker
        // either sees the flag or is already waiting when the notify lands.
        let first = {
            let _queue = self.inner.queue.lock().expect("queue lock");
            let first = !self.inner.shutdown.swap(true, Ordering::SeqCst);
            self.inner.work.notify_all();
            first
        };
        if first && velv_obs::enabled() {
            velv_obs::event("serve.shutdown", &[]);
        }
        // Stop whatever is being worked on right now.
        {
            let in_flight = self.inner.in_flight.lock().expect("in-flight lock");
            for state in in_flight.values() {
                state.cancel.cancel();
            }
        }
        let handles: Vec<JoinHandle<()>> = self
            .handles
            .lock()
            .expect("worker handles lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        // Resolve whatever never reached a worker.
        loop {
            let queued = self.inner.queue.lock().expect("queue lock").heap.pop();
            let Some(queued) = queued else {
                break;
            };
            if queued.job.state.is_resolved() {
                // Shed while it queued: already out of the depth count.
                continue;
            }
            self.inner.counters.queued.sub(1);
            self.inner.resolve(&queued.job.state, Outcome::Cancelled);
        }
        // The workers are joined and the queue is drained: push whatever
        // trace records are still sitting in per-thread buffers to the sink
        // so a graceful shutdown never loses the tail of the trace, and
        // leave one final flight dump (on the first shutdown only — the
        // teardown paths all funnel through here) as the parting
        // post-mortem.
        velv_obs::flush();
        if first {
            let _ = velv_obs::flight::dump("shutdown");
        }
    }
}

impl Drop for WorkerSet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ServeHandle {
    /// Starts a service instance with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configured verdict store cannot be opened; use
    /// [`ServeHandle::try_start`] to handle that case.
    pub fn start(config: ServiceConfig) -> ServeHandle {
        Self::try_start(config).expect("service start failed")
    }

    /// Starts a service instance, opening and replaying the verdict store
    /// when one is configured: every decided verdict recovered from the log
    /// warms the cache, so a restarted service answers repeated submissions
    /// without re-solving.
    ///
    /// # Errors
    ///
    /// Fails with [`ServeError::Store`] when the store directory cannot be
    /// opened or scanned.
    pub fn try_start(config: ServiceConfig) -> Result<ServeHandle, ServeError> {
        let workers = config.workers.max(1);
        let registry = velv_obs::Registry::new();
        let cache = VerdictCache::with_registry(config.cache_bytes, CACHE_SHARDS, &registry);
        let counters = Counters::new(&registry);
        let mut store = None;
        let mut recovery = None;
        if let Some(dir) = &config.store_dir {
            let _mem_scope = velv_obs::MemScope::enter("store.log");
            let mut store_config = velv_store::StoreConfig::new(dir);
            store_config.fsync = config.store_fsync;
            store_config.failpoints = config.store_failpoints.clone();
            store_config.registry = Some(registry.clone());
            let (opened, report) = velv_store::Store::open(store_config)
                .map_err(|e| ServeError::Store(e.to_string()))?;
            // Warm boot: replay the live records (in append order, so a
            // later record for the same fingerprint wins) into the cache.
            let records = opened
                .live_records()
                .map_err(|e| ServeError::Store(e.to_string()))?;
            for record in records {
                match persist::decode(&record.payload, record.sidecar) {
                    Ok(entry) if !matches!(entry.verdict, Verdict::Unknown(_)) => {
                        let _mem_scope = velv_obs::MemScope::enter("serve.cache");
                        cache.insert(Fingerprint(record.key), entry);
                        counters.replayed.inc();
                    }
                    _ => counters.replay_skipped.inc(),
                }
            }
            store = Some(opened);
            recovery = Some(report);
        }
        let inner = Arc::new(Inner {
            cache,
            config,
            queue: Mutex::new(QueueState {
                heap: BinaryHeap::new(),
                seq: 0,
                depth: 0,
            }),
            work: Condvar::new(),
            in_flight: Mutex::new(HashMap::new()),
            progress: Mutex::new(HashMap::new()),
            store,
            recovery,
            counters,
            registry,
            mem_pressure: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let inner = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("velv-serve-worker-{index}"))
                    .spawn(move || worker::worker_loop(inner))
                    .expect("spawning a service worker succeeds"),
            );
        }
        Ok(ServeHandle {
            workers: Arc::new(WorkerSet {
                inner: Arc::clone(&inner),
                handles: Mutex::new(handles),
            }),
            inner,
        })
    }

    /// Builds the problem, fingerprints it, and admits the job through the
    /// cache → in-flight → queue cascade.  The cache and in-flight checks
    /// happen under the in-flight lock, pairing with the worker's
    /// cache-insert-then-retire ordering, so a finishing twin is found in one
    /// of the two no matter how the submission races it.
    fn admit(&self, spec: JobSpec, trace: Option<TraceContext>) -> Result<Admission, ServeError> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::ShutDown);
        }
        spec.check_runnable().map_err(ServeError::InvalidJob)?;
        let (implementation, specification) = spec.model.build().map_err(ServeError::InvalidJob)?;
        self.inner.counters.submitted.inc();
        // Evaluated before the in-flight lock (stage 2 takes the queue and
        // in-flight locks); the level is consulted again lock-free below.
        let pressure = self.inner.update_pressure();
        let verifier = Verifier::new(spec.options.clone());
        let problem = verifier.build_problem(implementation.as_ref(), specification.as_ref());
        let fingerprint =
            velv_core::problem_fingerprint(&problem, &spec.options).combine(&spec.salt());

        let in_flight = self.inner.in_flight.lock().expect("in-flight lock");
        if let Some(hit) = self.inner.cache.get(fingerprint) {
            drop(in_flight);
            let state = Arc::new(JobState::new(fingerprint, problem.name, spec.priority));
            self.inner.resolve(&state, Outcome::Cached(hit));
            return Ok(Admission::Ticket(JobTicket::subscribe(&state, false)));
        }
        if let Some(existing) = in_flight.get(&fingerprint.0) {
            // Join the twin only while at least one of its clients is still
            // interested: a job whose every ticket was dropped has its token
            // raised and will resolve as cancelled — a fresh submission must
            // get a fresh job (replacing the table entry; the abandoned
            // job's retire path no-ops on a replaced entry).
            if !existing.cancel.is_cancelled() {
                let ticket = JobTicket::subscribe(existing, true);
                drop(in_flight);
                self.inner.counters.dedup_joins.inc();
                return Ok(Admission::Ticket(ticket));
            }
        }
        // Stage-3 degradation: refuse *fresh* work while the heap sits at
        // the ceiling.  Cache hits and dedup joins above are still served —
        // they add no solver state and answering them sheds client retries.
        if pressure >= 3 {
            drop(in_flight);
            self.inner.counters.mem_pressure_rejections.inc();
            self.inner.counters.busy_rejections.inc();
            return Err(ServeError::Busy("memory pressure".to_owned()));
        }
        let state = Arc::new(JobState::new(
            fingerprint,
            problem.name.clone(),
            spec.priority,
        ));
        let ticket = JobTicket::subscribe(&state, false);
        let mut in_flight = in_flight;
        in_flight.insert(fingerprint.0, Arc::clone(&state));
        drop(in_flight);
        // `checked_add` so an absurd client-supplied timeout degrades to
        // "no deadline" instead of panicking mid-admission.
        let deadline = spec
            .timeout
            .or(self.inner.config.default_timeout)
            .and_then(|t| state.submitted.checked_add(t));
        Ok(Admission::Fresh(
            ticket,
            Box::new(SingleJob {
                spec,
                problem,
                deadline,
                state,
                trace,
            }),
        ))
    }

    /// Submits one job; see the module docs for the full path.
    ///
    /// # Errors
    ///
    /// Fails when the service is shut down or the spec is invalid (a bad
    /// model reference, or evidence its back end cannot give); never blocks
    /// on the solvers (that is what the returned ticket is for).
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, ServeError> {
        self.submit_traced(spec, None)
    }

    /// [`ServeHandle::submit`] with the submitting client's [`TraceContext`]
    /// attached: the worker's `serve.job` span is tagged so a merged
    /// multi-process trace parents it under the client's root span.  The
    /// context is scheduling metadata only — it never enters the job's
    /// fingerprint, and a deduplicated submission keeps the first
    /// submitter's context.
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::submit`].
    pub fn submit_traced(
        &self,
        spec: JobSpec,
        trace: Option<TraceContext>,
    ) -> Result<JobTicket, ServeError> {
        match self.admit(spec, trace)? {
            Admission::Ticket(ticket) => Ok(ticket),
            Admission::Fresh(ticket, job) => match self.inner.push_bounded(job) {
                Ok(()) => Ok(ticket),
                Err(job) => {
                    self.inner.resolve(&job.state, Outcome::QueueFull);
                    Err(ServeError::Busy("queue full".to_owned()))
                }
            },
        }
    }

    /// Submits a batch: tickets are returned in input order.
    ///
    /// Admission is atomic: every entry is built, fingerprinted and checked
    /// against the cache and the in-flight table before anything is
    /// scheduled.  Entries that hit the cache or deduplicate (also against an
    /// earlier entry of the same batch) resolve like single submissions;
    /// every remaining entry is then queued as its own single job, so the
    /// entries spread across the workers and each ticket resolves as soon as
    /// its job finishes.  An entry the full queue rejects resolves as busy.
    ///
    /// # Errors
    ///
    /// Fails atomically (no work scheduled) when the service is shut down or
    /// any spec is invalid.
    pub fn submit_batch(&self, specs: Vec<JobSpec>) -> Result<Vec<JobTicket>, ServeError> {
        self.submit_batch_traced(specs, None)
    }

    /// [`ServeHandle::submit_batch`] with the submitting client's
    /// [`TraceContext`] attached to every fresh entry (see
    /// [`ServeHandle::submit_traced`]).
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::submit_batch`].
    pub fn submit_batch_traced(
        &self,
        specs: Vec<JobSpec>,
        trace: Option<TraceContext>,
    ) -> Result<Vec<JobTicket>, ServeError> {
        let count = specs.len() as u64;
        let mut tickets = Vec::with_capacity(specs.len());
        let mut admissions = Vec::with_capacity(specs.len());
        for spec in specs {
            match self.admit(spec, trace) {
                Ok(admission) => admissions.push(admission),
                Err(e) => {
                    // Atomic failure: retire every fresh job admitted so
                    // far, or its in-flight entry would outlive this call
                    // and every later submission of that fingerprint would
                    // subscribe to a job no worker will ever run.
                    for admission in admissions {
                        if let Admission::Fresh(_ticket, job) = admission {
                            self.inner.resolve(&job.state, Outcome::RolledBack);
                        }
                    }
                    return Err(e);
                }
            }
        }
        self.inner.counters.batch_entries.add(count);
        for admission in admissions {
            match admission {
                Admission::Ticket(ticket) => tickets.push(ticket),
                Admission::Fresh(ticket, job) => {
                    tickets.push(ticket);
                    // A rejected entry resolves its ticket as busy instead of
                    // failing the whole call: its ticket is already out.
                    if let Err(job) = self.inner.push_bounded(job) {
                        self.inner.resolve(&job.state, Outcome::QueueFull);
                    }
                }
            }
        }
        Ok(tickets)
    }

    /// The submission accounting; see [`ServiceStats`].
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }

    /// Jobs waiting in the queue and jobs on a worker, read from the
    /// `velv_serve_jobs_queued`/`velv_serve_jobs_running` gauges without
    /// refreshing the snapshot-time gauges.
    pub(crate) fn load(&self) -> (i64, i64) {
        let c = &self.inner.counters;
        (c.queued.get(), c.running.get())
    }

    /// The live per-job progress rows (jobs currently on a worker), fed by
    /// the solvers' heartbeats; longest-running first.
    pub fn progress_rows(&self) -> Vec<ProgressRow> {
        self.inner.progress_rows()
    }

    /// The configured worker-thread count.
    pub fn workers(&self) -> usize {
        self.inner.config.workers.max(1)
    }

    /// A point-in-time snapshot of the service registry with the cache
    /// gauges refreshed — the source of the wire `stats` payload in every
    /// encoding.
    pub fn registry_snapshot(&self) -> velv_obs::Snapshot {
        self.inner.registry_snapshot()
    }

    /// The cached entry for a fingerprint, if resident (used by the `proof`
    /// wire command to hand out stored DRAT artifacts).
    pub fn cached(&self, fingerprint: Fingerprint) -> Option<Arc<CachedVerdict>> {
        self.inner.cache.get(fingerprint)
    }

    /// The startup recovery report of the verdict store, when one is
    /// configured: records scanned, live verdicts, torn-tail bytes truncated.
    pub fn store_recovery(&self) -> Option<&velv_store::RecoveryReport> {
        self.inner.recovery.as_ref()
    }

    /// The configured per-client in-flight quota (0 = unlimited); enforced
    /// by the TCP front end.
    pub fn per_client_quota(&self) -> usize {
        self.inner.config.per_client_quota
    }

    /// Re-evaluates and returns the current memory-pressure level (see
    /// [`pressure_level`]); 0 when no [`ServiceConfig::mem_limit`] is set.
    pub fn mem_pressure_level(&self) -> u64 {
        self.inner.update_pressure()
    }

    /// The configured live-heap ceiling, if any.
    pub fn mem_limit(&self) -> Option<u64> {
        self.inner.config.mem_limit
    }

    /// Deep measured footprints of the service's hot structures, `(name,
    /// bytes)` — the cross-check against the allocator's per-scope
    /// attribution, served by the `mem` wire verb.
    pub fn measured_footprints(&self) -> Vec<(&'static str, u64)> {
        use velv_obs::MemFootprint;
        let mut rows = vec![
            ("serve.cache", self.inner.cache.measured_bytes() as u64),
            (
                "serve.queue",
                self.inner
                    .queue
                    .lock()
                    .expect("queue lock")
                    .measured_bytes() as u64,
            ),
        ];
        if let Some(store) = &self.inner.store {
            rows.push(("store.index", store.measured_bytes() as u64));
        }
        rows
    }

    /// Counts a submission rejected by the per-client quota (called by the
    /// front end, which is where client identity exists).
    pub fn note_quota_rejection(&self) {
        self.inner.counters.quota_rejections.inc();
    }

    /// Whether [`ServeHandle::shutdown`] has been called (or the last handle
    /// dropped).
    pub fn is_shut_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Shuts the service down: cancels in-flight jobs, joins every worker,
    /// and resolves still-queued jobs as cancelled.  Idempotent; dropping the
    /// last handle does the same.
    pub fn shutdown(&self) {
        self.workers.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::pressure_level;

    #[test]
    fn pressure_ladder_thresholds() {
        let limit = 1_000_000;
        assert_eq!(pressure_level(0, limit), 0);
        assert_eq!(pressure_level(599_999, limit), 0);
        assert_eq!(pressure_level(600_000, limit), 1);
        assert_eq!(pressure_level(799_999, limit), 1);
        assert_eq!(pressure_level(800_000, limit), 2);
        assert_eq!(pressure_level(949_999, limit), 2);
        assert_eq!(pressure_level(950_000, limit), 3);
        assert_eq!(pressure_level(limit, limit), 3);
        assert_eq!(pressure_level(limit * 10, limit), 3);
    }

    #[test]
    fn pressure_without_a_limit_is_never_raised() {
        assert_eq!(pressure_level(u64::MAX, 0), 0);
    }

    #[test]
    fn pressure_thresholds_do_not_overflow_small_or_huge_limits() {
        assert_eq!(pressure_level(1, 1), 3);
        assert_eq!(pressure_level(0, 1), 0);
        assert_eq!(pressure_level(u64::MAX, u64::MAX), 3);
        assert_eq!(pressure_level(u64::MAX / 2, u64::MAX), 0);
    }
}
