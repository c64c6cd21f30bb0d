//! Observability hooks for the SAT layer.
//!
//! Every CDCL [`Engine`](crate::cdcl) carries an `EngineObs`: a bundle of
//! `velv_obs` handles registered on the process-global registry under the
//! engine's preset label (`velv_sat_conflicts_total{preset="chaff"}`, ...).
//! Counter updates are *delta-flushed* — the engine keeps counting into its
//! private [`SolverStats`] exactly as before, and the observability layer
//! publishes the increments at heartbeat boundaries and at the end of every
//! `search` call, so the hot loop pays nothing beyond the existing budget
//! poll.
//!
//! When a trace subscriber is installed, the heartbeat also emits a
//! `solver.heartbeat` event carrying the instantaneous conflict rate, trail
//! depth, decision level and learnt-database size.
//!
//! A host that wants *live* progress (the `velv_serve` per-job progress
//! table behind `velvc top`/`velvc watch`) installs a [`ProgressCell`] on
//! the solving thread ([`install_progress_cell`]); every heartbeat then
//! also stores its figures into the cell's atomics, readable from any
//! thread without locks.
//!
//! A host that wants a *solve profile* (how the search evolved over time)
//! installs a shared [`velv_obs::SolveRecorder`] the same way
//! ([`install_solve_recorder`]); every heartbeat then offers the recorder a
//! [`velv_obs::SolveSample`], and the end of each `search` call closes the
//! series with the true final counters — including budget-exceeded and
//! cancelled exits, which never reach a heartbeat boundary.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use velv_obs::{Counter, Gauge, Histogram};

use crate::solver::SolverStats;

/// Lock-free live progress of one solver run, updated at every heartbeat
/// (see the [module docs](self)) and readable concurrently.
#[derive(Debug, Default)]
pub struct ProgressCell {
    conflicts: AtomicU64,
    conflicts_per_sec: AtomicU64,
    restarts: AtomicU64,
    trail_depth: AtomicU64,
    decision_level: AtomicU64,
    learnt_db: AtomicU64,
    heartbeats: AtomicU64,
}

/// A point-in-time copy of a [`ProgressCell`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Conflicts encountered so far.
    pub conflicts: u64,
    /// Instantaneous conflict rate (conflicts per second, rounded).
    pub conflicts_per_sec: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Assigned literals on the trail at the last heartbeat.
    pub trail_depth: u64,
    /// Decision level at the last heartbeat.
    pub decision_level: u64,
    /// Live learned clauses kept.
    pub learnt_db: u64,
    /// Heartbeats observed; zero means the solver has not reached its first
    /// heartbeat yet (or progress never flowed, e.g. a BDD backend).
    pub heartbeats: u64,
}

impl ProgressCell {
    /// An all-zero cell.
    pub fn new() -> ProgressCell {
        ProgressCell::default()
    }

    fn update(&self, stats: &SolverStats, rate: f64, trail: usize, level: usize, learnts: usize) {
        self.conflicts.store(stats.conflicts, Ordering::Relaxed);
        self.conflicts_per_sec
            .store(rate.max(0.0).round() as u64, Ordering::Relaxed);
        self.restarts.store(stats.restarts, Ordering::Relaxed);
        self.trail_depth.store(trail as u64, Ordering::Relaxed);
        self.decision_level.store(level as u64, Ordering::Relaxed);
        self.learnt_db.store(learnts as u64, Ordering::Relaxed);
        self.heartbeats.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the cell.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            conflicts: self.conflicts.load(Ordering::Relaxed),
            conflicts_per_sec: self.conflicts_per_sec.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            trail_depth: self.trail_depth.load(Ordering::Relaxed),
            decision_level: self.decision_level.load(Ordering::Relaxed),
            learnt_db: self.learnt_db.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    static PROGRESS: RefCell<Option<Arc<ProgressCell>>> = const { RefCell::new(None) };
}

/// Routes the heartbeats of solvers run *on this thread* into `cell` until
/// the returned guard drops (drop restores the previous cell, so installs
/// nest, and a panicking solve cleans up on unwind).
///
/// Solvers running on other threads (e.g. portfolio members) are not
/// captured — their progress stays visible through the global registry
/// only.
#[must_use = "progress flows only while the guard is alive"]
pub fn install_progress_cell(cell: Arc<ProgressCell>) -> ProgressGuard {
    let previous = PROGRESS
        .try_with(|slot| slot.borrow_mut().replace(cell))
        .ok()
        .flatten();
    ProgressGuard { previous }
}

/// Uninstalls the [`ProgressCell`] of [`install_progress_cell`] on drop.
pub struct ProgressGuard {
    previous: Option<Arc<ProgressCell>>,
}

impl Drop for ProgressGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        let _ = PROGRESS.try_with(|slot| *slot.borrow_mut() = previous);
    }
}

fn current_progress_cell() -> Option<Arc<ProgressCell>> {
    PROGRESS
        .try_with(|slot| slot.borrow().clone())
        .ok()
        .flatten()
}

thread_local! {
    static RECORDER: RefCell<Option<velv_obs::SharedSolveRecorder>> = const { RefCell::new(None) };
}

/// Routes the heartbeat samples of solvers run *on this thread* into
/// `recorder` until the returned guard drops (drop restores the previous
/// recorder, so installs nest).  The portfolio backend re-installs the
/// current recorder on each member thread, so racing members feed one shared
/// time-series, told apart by their preset label.
#[must_use = "samples flow only while the guard is alive"]
pub fn install_solve_recorder(recorder: velv_obs::SharedSolveRecorder) -> SolveRecorderGuard {
    let previous = RECORDER
        .try_with(|slot| slot.borrow_mut().replace(recorder))
        .ok()
        .flatten();
    SolveRecorderGuard { previous }
}

/// Uninstalls the recorder of [`install_solve_recorder`] on drop.
pub struct SolveRecorderGuard {
    previous: Option<velv_obs::SharedSolveRecorder>,
}

impl Drop for SolveRecorderGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        let _ = RECORDER.try_with(|slot| *slot.borrow_mut() = previous);
    }
}

/// The solve recorder installed on this thread, if any — hosts that move
/// work across threads (the portfolio race, the serve worker pool) capture
/// it here and re-install it on the destination thread.
pub fn current_solve_recorder() -> Option<velv_obs::SharedSolveRecorder> {
    RECORDER
        .try_with(|slot| slot.borrow().clone())
        .ok()
        .flatten()
}

/// Conflicts between two heartbeats (must be `2^k - 1`; the check is a
/// bitmask on the global conflict count, piggybacked on the conflict branch
/// next to the budget poll).
pub(crate) const HEARTBEAT_MASK: u64 = 1023;

/// Upper bucket bounds for the decision-level histogram, fed by the
/// per-conflict accumulator.
const LEVEL_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096];

/// Memory figures of one engine, computed from the engine's own bookkeeping
/// ([`velv_obs::MemFootprint`]) at heartbeat boundaries — cheap walks of
/// capacities, not allocator traffic.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ArenaFigures {
    /// Words in the clause arena (live + dead).
    pub len_words: u64,
    /// Words occupied by deleted clauses awaiting garbage collection.
    pub wasted_words: u64,
    /// Measured bytes of the clause arena (capacity, including slack).
    pub arena_bytes: u64,
    /// Measured bytes of the watch lists.
    pub watches_bytes: u64,
    /// Measured bytes of the learnt-clause database (arena words of live
    /// learnt clauses plus the reference vector).
    pub learnt_bytes: u64,
}

/// Per-engine observability state: global-registry handles labelled by
/// preset, plus the last-published [`SolverStats`] for delta flushing.
pub(crate) struct EngineObs {
    preset: String,
    conflicts: Counter,
    decisions: Counter,
    propagations: Counter,
    restarts: Counter,
    learnt_db: Gauge,
    arena_len_words: Gauge,
    arena_wasted_words: Gauge,
    arena_bytes: Gauge,
    watches_bytes: Gauge,
    learnt_bytes: Gauge,
    decision_levels: Histogram,
    /// Stats as of the last flush; only the increment since then is added to
    /// the registry counters.
    last: SolverStats,
    /// Timestamp and cumulative conflict/propagation counts at the previous
    /// heartbeat, for the rate figures.
    last_beat: Option<(Instant, u64, u64)>,
    /// Decision level of every conflict since the last publish, accumulated
    /// as plain local bucket counts (one array write per conflict) and
    /// published in bulk at heartbeats — so the histogram's `count` tracks
    /// the *conflict* count, not the heartbeat count.
    level_buckets: [u64; LEVEL_BOUNDS.len() + 1],
    level_sum: u64,
    level_count: u64,
    /// The solve recorder captured from this thread at `begin_solve`.
    recorder: Option<velv_obs::SharedSolveRecorder>,
    /// Restart count already marked into the recorder.
    marked_restarts: u64,
}

impl EngineObs {
    /// Registers (or re-attaches to) the preset-labelled metric family on
    /// the process-global registry.
    pub(crate) fn new(preset: &str) -> Self {
        let registry = velv_obs::global();
        let labels: &[(&str, &str)] = &[("preset", preset)];
        EngineObs {
            conflicts: registry.counter_with(
                "velv_sat_conflicts_total",
                labels,
                "CDCL conflicts encountered.",
            ),
            decisions: registry.counter_with(
                "velv_sat_decisions_total",
                labels,
                "CDCL branching decisions taken.",
            ),
            propagations: registry.counter_with(
                "velv_sat_propagations_total",
                labels,
                "Literals propagated by unit propagation.",
            ),
            restarts: registry.counter_with(
                "velv_sat_restarts_total",
                labels,
                "Search restarts performed.",
            ),
            learnt_db: registry.gauge_with(
                "velv_sat_learnt_db_size",
                labels,
                "Live learned clauses currently kept.",
            ),
            arena_len_words: registry.gauge_with(
                "velv_sat_arena_len_words",
                labels,
                "Clause-arena words in use (live clauses plus garbage).",
            ),
            arena_wasted_words: registry.gauge_with(
                "velv_sat_arena_wasted_words",
                labels,
                "Clause-arena words occupied by deleted clauses (fragmentation).",
            ),
            arena_bytes: registry.gauge_with(
                "velv_sat_arena_bytes",
                labels,
                "Measured clause-arena bytes, including capacity slack.",
            ),
            watches_bytes: registry.gauge_with(
                "velv_sat_watches_bytes",
                labels,
                "Measured watch-list bytes.",
            ),
            learnt_bytes: registry.gauge_with(
                "velv_sat_learnt_bytes",
                labels,
                "Measured learnt-database bytes (live learnt clause words plus references).",
            ),
            decision_levels: registry.histogram_with(
                "velv_sat_decision_level",
                labels,
                "Decision level at each conflict (accumulated locally, published at heartbeats).",
                LEVEL_BOUNDS,
            ),
            preset: preset.to_string(),
            last: SolverStats::default(),
            last_beat: None,
            level_buckets: [0; LEVEL_BOUNDS.len() + 1],
            level_sum: 0,
            level_count: 0,
            recorder: None,
            marked_restarts: 0,
        }
    }

    /// Accumulates the decision level of one conflict into the local bucket
    /// array — the hot-loop half of the histogram (no atomics, no branches
    /// beyond the bucket search).
    #[inline]
    pub(crate) fn note_conflict(&mut self, decision_level: usize) {
        let v = decision_level as u64;
        let index = LEVEL_BOUNDS.partition_point(|&bound| bound < v);
        self.level_buckets[index] += 1;
        self.level_sum += v;
        self.level_count += 1;
    }

    /// Publishes the accumulated per-conflict decision levels in bulk and
    /// returns their mean (0.0 for an empty window).
    fn publish_levels(&mut self) -> f64 {
        if self.level_count == 0 {
            return 0.0;
        }
        let mean = self.level_sum as f64 / self.level_count as f64;
        self.decision_levels
            .observe_bucketed(&self.level_buckets, self.level_sum);
        self.level_buckets = [0; LEVEL_BOUNDS.len() + 1];
        self.level_sum = 0;
        self.level_count = 0;
        mean
    }

    /// Marks the start of one `search` call: captures the solve recorder
    /// installed on this thread (if any) and resets the rate window.
    pub(crate) fn begin_solve(&mut self, stats: &SolverStats) {
        self.recorder = current_solve_recorder();
        self.last_beat = None;
        self.marked_restarts = stats.restarts;
        if let Some(recorder) = &self.recorder {
            if let Ok(mut rec) = recorder.lock() {
                rec.mark("solve", &self.preset);
            }
        }
    }

    /// Marks the end of one `search` call: publishes the remaining level
    /// window, offers a final time-series sample (so aborted runs — budget
    /// exceeded, cancellation — still close their series with the true final
    /// counters), and flushes the counter deltas.
    pub(crate) fn end_solve(
        &mut self,
        stats: &SolverStats,
        trail_depth: usize,
        num_learnts: usize,
        mem: &ArenaFigures,
    ) {
        let mean_level = self.publish_levels();
        if let Some(recorder) = self.recorder.take() {
            let (rate, prop_rate) = self.window_rates(stats);
            if let Ok(mut rec) = recorder.lock() {
                self.mark_restarts(&mut rec, stats);
                let sample = self.build_sample(
                    &rec,
                    stats,
                    trail_depth,
                    num_learnts,
                    mem,
                    rate,
                    prop_rate,
                    mean_level,
                );
                rec.offer(sample);
            }
        }
        self.flush(stats, num_learnts);
        self.publish_arena(mem);
        self.last_beat = None;
    }

    /// Conflict and propagation rates over the window since the previous
    /// heartbeat; restarts the window at the current instant.
    fn window_rates(&mut self, stats: &SolverStats) -> (f64, f64) {
        let now = Instant::now();
        let rates = match self.last_beat {
            Some((then, conflicts, propagations)) => {
                let dt = now.duration_since(then).as_secs_f64();
                if dt > 0.0 {
                    (
                        stats.conflicts.saturating_sub(conflicts) as f64 / dt,
                        stats.propagations.saturating_sub(propagations) as f64 / dt,
                    )
                } else {
                    (0.0, 0.0)
                }
            }
            None => (0.0, 0.0),
        };
        self.last_beat = Some((now, stats.conflicts, stats.propagations));
        rates
    }

    fn mark_restarts(&mut self, rec: &mut velv_obs::SolveRecorder, stats: &SolverStats) {
        if stats.restarts > self.marked_restarts {
            let delta = stats.restarts - self.marked_restarts;
            rec.mark("restart", &delta.to_string());
            self.marked_restarts = stats.restarts;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_sample(
        &self,
        rec: &velv_obs::SolveRecorder,
        stats: &SolverStats,
        trail_depth: usize,
        num_learnts: usize,
        mem: &ArenaFigures,
        rate: f64,
        prop_rate: f64,
        mean_level: f64,
    ) -> velv_obs::SolveSample {
        velv_obs::SolveSample {
            t_us: rec.now_us(),
            label: self.preset.clone(),
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            decisions: stats.decisions,
            restarts: stats.restarts,
            trail_depth: trail_depth as u64,
            learnt_db: num_learnts as u64,
            arena_bytes: mem.arena_bytes,
            learnt_bytes: mem.learnt_bytes,
            conflicts_per_sec: rate,
            propagations_per_sec: prop_rate,
            mean_decision_level: mean_level,
        }
    }

    /// Publishes the engine's memory figures: arena occupancy/fragmentation
    /// and the measured byte gauges.  Called at heartbeats, the end of every
    /// `search`, and directly after a copying garbage collection (so the
    /// fragmentation gauge follows the compaction immediately).
    pub(crate) fn publish_arena(&self, mem: &ArenaFigures) {
        self.arena_len_words.set(mem.len_words as i64);
        self.arena_wasted_words.set(mem.wasted_words as i64);
        self.arena_bytes.set(mem.arena_bytes as i64);
        self.watches_bytes.set(mem.watches_bytes as i64);
        self.learnt_bytes.set(mem.learnt_bytes as i64);
    }

    /// Publishes the increment of `stats` over the last flush to the
    /// registry counters and refreshes the learnt-database gauge.
    pub(crate) fn flush(&mut self, stats: &SolverStats, num_learnts: usize) {
        self.conflicts
            .add(stats.conflicts.saturating_sub(self.last.conflicts));
        self.decisions
            .add(stats.decisions.saturating_sub(self.last.decisions));
        self.propagations
            .add(stats.propagations.saturating_sub(self.last.propagations));
        self.restarts
            .add(stats.restarts.saturating_sub(self.last.restarts));
        self.learnt_db.set(num_learnts as i64);
        self.last = *stats;
    }

    /// Periodic probe from the search loop: publishes the per-conflict
    /// decision-level window, flushes counter deltas, feeds the solve
    /// recorder a time-series sample, and — when a trace subscriber is
    /// installed — emits a `solver.heartbeat` event with the instantaneous
    /// conflict rate.
    pub(crate) fn heartbeat(
        &mut self,
        stats: &SolverStats,
        trail_depth: usize,
        decision_level: usize,
        num_learnts: usize,
        mem: &ArenaFigures,
    ) {
        let mean_level = self.publish_levels();
        self.flush(stats, num_learnts);
        self.publish_arena(mem);
        let cell = current_progress_cell();
        if !velv_obs::enabled() && cell.is_none() && self.recorder.is_none() {
            // Skip the `Instant::now` when nobody is listening; the next
            // listened-to heartbeat restarts the rate window.
            self.last_beat = None;
            return;
        }
        let (rate, prop_rate) = self.window_rates(stats);
        if let Some(recorder) = self.recorder.clone() {
            if let Ok(mut rec) = recorder.lock() {
                self.mark_restarts(&mut rec, stats);
                let sample = self.build_sample(
                    &rec,
                    stats,
                    trail_depth,
                    num_learnts,
                    mem,
                    rate,
                    prop_rate,
                    mean_level,
                );
                rec.offer(sample);
            }
        }
        if let Some(cell) = cell {
            cell.update(stats, rate, trail_depth, decision_level, num_learnts);
        }
        if !velv_obs::enabled() {
            return;
        }
        velv_obs::event(
            "solver.heartbeat",
            &[
                ("conflicts", stats.conflicts.into()),
                ("conflicts_per_sec", rate.into()),
                ("restarts", stats.restarts.into()),
                ("trail_depth", (trail_depth as u64).into()),
                ("decision_level", (decision_level as u64).into()),
                ("learnt_db", (num_learnts as u64).into()),
                ("arena_bytes", mem.arena_bytes.into()),
            ],
        );
    }
}
