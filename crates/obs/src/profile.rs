//! The solve profiler: how a search *evolves* and where the wall time went.
//!
//! Three cooperating pieces:
//!
//! * [`SolveRecorder`] — a bounded, decimating time-series ring fed by the
//!   solver's heartbeats.  It keeps a fixed number of [`SolveSample`] slots;
//!   on overflow it drops every other retained sample and doubles its
//!   sampling stride (2:1 downsample), so memory stays O(1) no matter how
//!   long the solve runs while the series always spans the whole solve.
//! * [`ProfileSink`] — a [`TraceSink`] that folds span open/close records
//!   into a self/total-time [`PhaseNode`] tree keyed by span name, so
//!   per-instance phase breakdowns (translate → encode → CNF → solve →
//!   certify) come out of the live span stream without storing or replaying
//!   a raw trace.
//! * [`SolveProfile`] — the per-solve artifact tying both together: final
//!   counters, the decimated time-series, restart/solve markers, and the
//!   phase tree, serialized as compact JSONL (one flat object per line).
//!
//! Both readers here — [`SolveProfile::parse`] and the sink folding live
//! span lines — read each line through
//! [`crate::tracecheck::parse_trace_line`], the flat-record view over the
//! workspace's one JSON reader ([`crate::json`]).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::trace::TraceSink;
use crate::tracecheck::parse_trace_line;

/// One point of a solve time-series: cumulative counters plus the rates and
/// gauges observed over the window since the previous heartbeat.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolveSample {
    /// Microseconds since the recorder's epoch (its construction).
    pub t_us: u64,
    /// The solver label (preset name) that produced this sample — portfolio
    /// members share one recorder and are told apart by this.
    pub label: String,
    /// Cumulative conflicts at this point.
    pub conflicts: u64,
    /// Cumulative propagations at this point.
    pub propagations: u64,
    /// Cumulative decisions at this point.
    pub decisions: u64,
    /// Cumulative restarts at this point.
    pub restarts: u64,
    /// Assignment-trail depth at this point (a gauge).
    pub trail_depth: u64,
    /// Learnt-clause database size at this point (a gauge).
    pub learnt_db: u64,
    /// Clause-arena bytes held at this point (a gauge; 0 when the engine
    /// does not report memory).
    pub arena_bytes: u64,
    /// Learnt-clause database bytes held at this point (a gauge; 0 when the
    /// engine does not report memory).
    pub learnt_bytes: u64,
    /// Conflicts per second over the window ending here.
    pub conflicts_per_sec: f64,
    /// Propagations per second over the window ending here.
    pub propagations_per_sec: f64,
    /// Mean decision level of the conflicts in the window ending here.
    pub mean_decision_level: f64,
}

/// A point event on the solve timeline: a solve boundary (`kind = "solve"`,
/// detail names the preset) or a restart burst (`kind = "restart"`, detail
/// is the number of restarts since the previous sample).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolveMarker {
    /// Microseconds since the recorder's epoch.
    pub t_us: u64,
    /// Marker kind: `solve` or `restart`.
    pub kind: String,
    /// Kind-specific detail (preset name, restart count).
    pub detail: String,
}

/// A bounded, decimating time-series recorder.
///
/// Samples are *offered* at heartbeat cadence; the recorder records every
/// `stride`-th offer.  When the retained series reaches `cap` slots it keeps
/// the even-indexed half and doubles the stride, which preserves the first
/// sample and keeps retained samples aligned to the new stride.  The most
/// recent offer is always tracked separately so [`SolveRecorder::series`]
/// can close the series with the true final state.
#[derive(Debug)]
pub struct SolveRecorder {
    cap: usize,
    stride: u64,
    offered: u64,
    samples: Vec<SolveSample>,
    last: Option<SolveSample>,
    markers: Vec<SolveMarker>,
    dropped_markers: u64,
    epoch: Instant,
}

impl SolveRecorder {
    /// The default slot bound: enough for minute-scale solves at full
    /// heartbeat resolution, a few kilobytes retained forever after.
    pub const DEFAULT_CAP: usize = 240;

    /// A recorder bounded to `cap` retained samples (clamped to at least 8).
    pub fn new(cap: usize) -> SolveRecorder {
        SolveRecorder {
            cap: cap.max(8),
            stride: 1,
            offered: 0,
            samples: Vec::new(),
            last: None,
            markers: Vec::new(),
            dropped_markers: 0,
            epoch: Instant::now(),
        }
    }

    /// Microseconds elapsed since the recorder was created — the `t_us`
    /// domain of its samples and markers.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Offers one sample.  Every `stride`-th offer is retained; on reaching
    /// the slot bound the series is 2:1 decimated and the stride doubled.
    pub fn offer(&mut self, sample: SolveSample) {
        if self.offered.is_multiple_of(self.stride) {
            self.samples.push(sample.clone());
            if self.samples.len() >= self.cap {
                let mut index = 0usize;
                self.samples.retain(|_| {
                    let keep = index.is_multiple_of(2);
                    index += 1;
                    keep
                });
                self.stride *= 2;
            }
        }
        self.last = Some(sample);
        self.offered += 1;
    }

    /// Records a point marker (bounded by the same slot cap; overflow is
    /// counted, not stored).
    pub fn mark(&mut self, kind: &str, detail: &str) {
        if self.markers.len() >= self.cap {
            self.dropped_markers += 1;
            return;
        }
        self.markers.push(SolveMarker {
            t_us: self.now_us(),
            kind: kind.to_string(),
            detail: detail.to_string(),
        });
    }

    /// The finished time-series: the retained samples, closed with the most
    /// recent offer when decimation dropped it.  Never exceeds the slot cap.
    pub fn series(&self) -> Vec<SolveSample> {
        let mut out = self.samples.clone();
        if let Some(last) = &self.last {
            if out.last() != Some(last) {
                out.push(last.clone());
            }
        }
        out
    }

    /// The most recent offered sample, retained or not — what a live reader
    /// (the `velv_serve` progress rows) shows.  `None` before the first offer.
    pub fn last(&self) -> Option<&SolveSample> {
        self.last.as_ref()
    }

    /// The retained samples (without the final-state closure).
    pub fn samples(&self) -> &[SolveSample] {
        &self.samples
    }

    /// The recorded markers, in time order.
    pub fn markers(&self) -> &[SolveMarker] {
        &self.markers
    }

    /// The current sampling stride (1 until the first decimation).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Total samples offered over the recorder's lifetime.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// The slot bound.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Markers dropped because the marker list hit the slot cap.
    pub fn dropped_markers(&self) -> u64 {
        self.dropped_markers
    }
}

/// A recorder shared between the installing scope and the solver hot path.
pub type SharedSolveRecorder = Arc<Mutex<SolveRecorder>>;

/// A fresh shared recorder with the default slot bound.
pub fn shared_recorder() -> SharedSolveRecorder {
    Arc::new(Mutex::new(SolveRecorder::new(SolveRecorder::DEFAULT_CAP)))
}

/// One node of a phase-time tree: a span name with its aggregate call count,
/// total (inclusive) time and self (exclusive) time, plus its child phases.
/// Sibling spans with the same name are merged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseNode {
    /// The span name this phase aggregates.
    pub name: String,
    /// Number of spans folded into this node.
    pub count: u64,
    /// Total inclusive microseconds (0 for spans never closed).
    pub total_us: u64,
    /// Exclusive microseconds: total minus the children's totals.
    pub self_us: u64,
    /// Child phases, in first-seen order.
    pub children: Vec<PhaseNode>,
}

impl PhaseNode {
    /// Sum of the direct children's total times.
    pub fn children_total_us(&self) -> u64 {
        self.children.iter().map(|c| c.total_us).sum()
    }

    fn merge_from(&mut self, other: PhaseNode) {
        self.count += other.count;
        self.total_us += other.total_us;
        self.self_us += other.self_us;
        for child in other.children {
            match self.children.iter_mut().find(|c| c.name == child.name) {
                Some(existing) => existing.merge_from(child),
                None => self.children.push(child),
            }
        }
    }

    fn push_paths(&self, prefix: &str, out: &mut String) {
        let path = if prefix.is_empty() {
            self.name.clone()
        } else {
            format!("{prefix}/{}", self.name)
        };
        out.push_str("{\"type\":\"phase\",\"path\":\"");
        crate::json::escape_into(out, &path);
        out.push_str(&format!(
            "\",\"count\":{},\"total_us\":{},\"self_us\":{}}}\n",
            self.count, self.total_us, self.self_us
        ));
        for child in &self.children {
            child.push_paths(&path, out);
        }
    }

    fn insert_path(&mut self, parts: &[&str], count: u64, total_us: u64, self_us: u64) {
        if parts.is_empty() {
            self.count = count;
            self.total_us = total_us;
            self.self_us = self_us;
            return;
        }
        let name = parts[0];
        let child = match self.children.iter_mut().position(|c| c.name == name) {
            Some(index) => &mut self.children[index],
            None => {
                self.children.push(PhaseNode {
                    name: name.to_string(),
                    ..PhaseNode::default()
                });
                self.children.last_mut().expect("just pushed")
            }
        };
        child.insert_path(&parts[1..], count, total_us, self_us);
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{:<width$} x{:<4} total {:>10.3} ms  self {:>10.3} ms\n",
            self.name,
            self.count,
            self.total_us as f64 / 1000.0,
            self.self_us as f64 / 1000.0,
            width = 28usize.saturating_sub(indent.len()),
        ));
        let mut children: Vec<&PhaseNode> = self.children.iter().collect();
        children.sort_by_key(|child| std::cmp::Reverse(child.total_us));
        for child in children {
            child.render_into(depth + 1, out);
        }
    }

    /// A human-readable indented rendering (children sorted by total time).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }
}

/// The per-solve profile artifact: final counters, the decimated
/// time-series, timeline markers, and the phase-time tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolveProfile {
    /// The instance (or job) this profile describes.
    pub instance: String,
    /// The solver label: preset name, `portfolio`, or a service backend.
    pub solver: String,
    /// The outcome (`sat` / `unsat` / `unknown` / a verdict spelling).
    pub result: String,
    /// Wall-clock microseconds of the profiled run.
    pub wall_us: u64,
    /// Final sampling stride of the recorder (1 = nothing was decimated).
    pub stride: u64,
    /// Samples offered to the recorder over the run.
    pub offered: u64,
    /// Final conflict count.
    pub conflicts: u64,
    /// Final propagation count.
    pub propagations: u64,
    /// Final decision count.
    pub decisions: u64,
    /// Final restart count.
    pub restarts: u64,
    /// The decimated time-series, oldest first.
    pub samples: Vec<SolveSample>,
    /// Timeline markers, oldest first.
    pub markers: Vec<SolveMarker>,
    /// Phase-time trees (usually one root; empty when no spans were
    /// captured, e.g. a raw benchmark solve with no pipeline around it).
    pub phases: Vec<PhaseNode>,
}

fn push_f64(out: &mut String, key: &str, v: f64) {
    let v = if v.is_finite() { v } else { 0.0 };
    out.push_str(&format!(",\"{key}\":{v}"));
}

impl SolveProfile {
    /// Serializes the profile as JSONL: a `solve_profile` header line, then
    /// one flat object per marker, sample and phase-tree node.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"type\":\"solve_profile\",\"version\":1,\"instance\":\"");
        crate::json::escape_into(&mut out, &self.instance);
        out.push_str("\",\"solver\":\"");
        crate::json::escape_into(&mut out, &self.solver);
        out.push_str("\",\"result\":\"");
        crate::json::escape_into(&mut out, &self.result);
        out.push_str(&format!(
            "\",\"wall_us\":{},\"stride\":{},\"offered\":{},\"conflicts\":{},\"propagations\":{},\"decisions\":{},\"restarts\":{}}}\n",
            self.wall_us,
            self.stride,
            self.offered,
            self.conflicts,
            self.propagations,
            self.decisions,
            self.restarts,
        ));
        for marker in &self.markers {
            out.push_str(&format!(
                "{{\"type\":\"marker\",\"t_us\":{},\"kind\":\"",
                marker.t_us
            ));
            crate::json::escape_into(&mut out, &marker.kind);
            out.push_str("\",\"detail\":\"");
            crate::json::escape_into(&mut out, &marker.detail);
            out.push_str("\"}\n");
        }
        for sample in &self.samples {
            out.push_str(&format!(
                "{{\"type\":\"sample\",\"t_us\":{},\"label\":\"",
                sample.t_us
            ));
            crate::json::escape_into(&mut out, &sample.label);
            out.push_str(&format!(
                "\",\"conflicts\":{},\"propagations\":{},\"decisions\":{},\"restarts\":{},\"trail_depth\":{},\"learnt_db\":{},\"arena_bytes\":{},\"learnt_bytes\":{}",
                sample.conflicts,
                sample.propagations,
                sample.decisions,
                sample.restarts,
                sample.trail_depth,
                sample.learnt_db,
                sample.arena_bytes,
                sample.learnt_bytes,
            ));
            push_f64(&mut out, "conflicts_per_sec", sample.conflicts_per_sec);
            push_f64(
                &mut out,
                "propagations_per_sec",
                sample.propagations_per_sec,
            );
            push_f64(&mut out, "mean_decision_level", sample.mean_decision_level);
            out.push_str("}\n");
        }
        for phase in &self.phases {
            phase.push_paths("", &mut out);
        }
        out
    }

    /// Parses a profile serialized by [`SolveProfile::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line, a missing header,
    /// or an unknown record type.
    pub fn parse(text: &str) -> Result<SolveProfile, String> {
        let mut profile = SolveProfile::default();
        let mut saw_header = false;
        // Phase paths arrive depth-first; a synthetic super-root collects
        // them so multiple roots reconstruct cleanly.
        let mut phase_root = PhaseNode::default();
        for (number, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = parse_trace_line(line).map_err(|e| format!("line {}: {e}", number + 1))?;
            let want_u64 = |key: &str| -> Result<u64, String> {
                record
                    .get_u64(key)
                    .ok_or_else(|| format!("line {}: missing/invalid `{key}`", number + 1))
            };
            let want_str = |key: &str| -> Result<String, String> {
                record
                    .get(key)
                    .map(str::to_string)
                    .ok_or_else(|| format!("line {}: missing `{key}`", number + 1))
            };
            let get_f64 =
                |key: &str| -> f64 { record.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0) };
            match record.kind() {
                "solve_profile" => {
                    if saw_header {
                        return Err(format!("line {}: duplicate header", number + 1));
                    }
                    saw_header = true;
                    profile.instance = want_str("instance")?;
                    profile.solver = want_str("solver")?;
                    profile.result = want_str("result")?;
                    profile.wall_us = want_u64("wall_us")?;
                    profile.stride = want_u64("stride")?;
                    profile.offered = want_u64("offered")?;
                    profile.conflicts = want_u64("conflicts")?;
                    profile.propagations = want_u64("propagations")?;
                    profile.decisions = want_u64("decisions")?;
                    profile.restarts = want_u64("restarts")?;
                }
                "marker" => {
                    if !saw_header {
                        return Err("marker before solve_profile header".to_string());
                    }
                    profile.markers.push(SolveMarker {
                        t_us: want_u64("t_us")?,
                        kind: want_str("kind")?,
                        detail: want_str("detail")?,
                    });
                }
                "sample" => {
                    if !saw_header {
                        return Err("sample before solve_profile header".to_string());
                    }
                    profile.samples.push(SolveSample {
                        t_us: want_u64("t_us")?,
                        label: want_str("label")?,
                        conflicts: want_u64("conflicts")?,
                        propagations: want_u64("propagations")?,
                        decisions: want_u64("decisions")?,
                        restarts: want_u64("restarts")?,
                        trail_depth: want_u64("trail_depth")?,
                        learnt_db: want_u64("learnt_db")?,
                        // Optional with default: profiles recorded before
                        // memory observability landed must keep parsing.
                        arena_bytes: record.get_u64("arena_bytes").unwrap_or(0),
                        learnt_bytes: record.get_u64("learnt_bytes").unwrap_or(0),
                        conflicts_per_sec: get_f64("conflicts_per_sec"),
                        propagations_per_sec: get_f64("propagations_per_sec"),
                        mean_decision_level: get_f64("mean_decision_level"),
                    });
                }
                "phase" => {
                    if !saw_header {
                        return Err("phase before solve_profile header".to_string());
                    }
                    let path = want_str("path")?;
                    let parts: Vec<&str> = path.split('/').collect();
                    phase_root.insert_path(
                        &parts,
                        want_u64("count")?,
                        want_u64("total_us")?,
                        want_u64("self_us")?,
                    );
                }
                other => {
                    return Err(format!(
                        "line {}: unknown record type `{other}`",
                        number + 1
                    ))
                }
            }
        }
        if !saw_header {
            return Err("missing solve_profile header line".to_string());
        }
        profile.phases = phase_root.children;
        Ok(profile)
    }

    /// A human-readable summary: header, phase tree, and the time-series as
    /// an aligned table.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "profile {} solver={} result={} wall={:.3}ms conflicts={} propagations={} decisions={} restarts={} (samples={}, stride={}, offered={})\n",
            self.instance,
            self.solver,
            self.result,
            self.wall_us as f64 / 1000.0,
            self.conflicts,
            self.propagations,
            self.decisions,
            self.restarts,
            self.samples.len(),
            self.stride,
            self.offered,
        );
        if !self.phases.is_empty() {
            out.push_str("phases:\n");
            for phase in &self.phases {
                out.push_str(&phase.render_text());
            }
        }
        if !self.markers.is_empty() {
            out.push_str("markers:\n");
            for marker in &self.markers {
                out.push_str(&format!(
                    "  {:>12.3}ms  {} {}\n",
                    marker.t_us as f64 / 1000.0,
                    marker.kind,
                    marker.detail
                ));
            }
        }
        if !self.samples.is_empty() {
            out.push_str(
                "        t_ms     conflicts    confl/s      props/s  trail  learnt  arena_kb  mean_lvl  label\n",
            );
            for s in &self.samples {
                out.push_str(&format!(
                    "{:>12.3} {:>13} {:>10.0} {:>12.0} {:>6} {:>7} {:>9} {:>9.2}  {}\n",
                    s.t_us as f64 / 1000.0,
                    s.conflicts,
                    s.conflicts_per_sec,
                    s.propagations_per_sec,
                    s.trail_depth,
                    s.learnt_db,
                    s.arena_bytes / 1024,
                    s.mean_decision_level,
                    s.label
                ));
            }
        }
        out
    }
}

struct SpanInfo {
    name: String,
    parent: u64,
    dur_us: Option<u64>,
    /// False for placeholders created when a child arrived before its
    /// parent's open record (cross-thread buffer interleaving).
    known: bool,
}

#[derive(Default)]
struct SinkState {
    spans: HashMap<u64, SpanInfo>,
    children: HashMap<u64, Vec<u64>>,
    /// Known spans with no parent, in arrival order.
    roots: Vec<u64>,
    /// Recently extracted root ids: late records of an already-taken tree
    /// (the root's own close, children opened after extraction) are ignored
    /// instead of accumulating as orphans.  Bounded FIFO.
    forgotten: std::collections::VecDeque<u64>,
    dropped: u64,
}

impl SinkState {
    fn forget(&mut self, id: u64) {
        if self.forgotten.len() >= 1024 {
            self.forgotten.pop_front();
        }
        self.forgotten.push_back(id);
    }
}

/// Bound on retained span records: a runaway producer degrades to dropped
/// spans, never unbounded daemon memory.  Consumers ([`ProfileSink::
/// take_tree`], [`ProfileSink::take_roots`]) remove what they read, so
/// steady-state occupancy is one job's spans.
const MAX_TRACKED_SPANS: usize = 1 << 16;

/// A [`TraceSink`] that folds the span stream into phase-time trees as it
/// flows past, optionally teeing every line into an inner sink (so a file
/// trace and the phase accounting can share one pipeline).
pub struct ProfileSink {
    inner: Option<Arc<dyn TraceSink>>,
    state: Mutex<SinkState>,
}

impl Default for ProfileSink {
    fn default() -> Self {
        ProfileSink::new()
    }
}

impl ProfileSink {
    /// A stand-alone profile sink.
    pub fn new() -> ProfileSink {
        ProfileSink {
            inner: None,
            state: Mutex::new(SinkState::default()),
        }
    }

    /// A profile sink that forwards every line to `inner` after absorbing
    /// it.
    pub fn with_inner(inner: Arc<dyn TraceSink>) -> ProfileSink {
        ProfileSink {
            inner: Some(inner),
            state: Mutex::new(SinkState::default()),
        }
    }

    fn absorb(state: &mut SinkState, line: &str) {
        let Ok(record) = parse_trace_line(line) else {
            return;
        };
        match record.kind() {
            "span_open" => {
                let (Some(id), Some(name)) = (record.get_u64("id"), record.get("name")) else {
                    return;
                };
                let parent = record.get_u64("parent").unwrap_or(0);
                if state.forgotten.contains(&id) || state.forgotten.contains(&parent) {
                    return;
                }
                if state.spans.len() >= MAX_TRACKED_SPANS && !state.spans.contains_key(&id) {
                    state.dropped += 1;
                    return;
                }
                match state.spans.get_mut(&id) {
                    Some(info) => {
                        // A child or close record arrived first; fill in.
                        info.name = name.to_string();
                        info.parent = parent;
                        info.known = true;
                    }
                    None => {
                        state.spans.insert(
                            id,
                            SpanInfo {
                                name: name.to_string(),
                                parent,
                                dur_us: None,
                                known: true,
                            },
                        );
                    }
                }
                if parent == 0 {
                    state.roots.push(id);
                } else {
                    state.children.entry(parent).or_default().push(id);
                    if !state.spans.contains_key(&parent) && state.spans.len() < MAX_TRACKED_SPANS {
                        state.spans.insert(
                            parent,
                            SpanInfo {
                                name: String::new(),
                                parent: 0,
                                dur_us: None,
                                known: false,
                            },
                        );
                    }
                }
            }
            "span_close" => {
                let Some(id) = record.get_u64("id") else {
                    return;
                };
                // A close for an unknown id belongs to a subtree already
                // extracted, or to a span opened before the sink was
                // installed: either way, nothing to attribute it to.
                if let Some(info) = state.spans.get_mut(&id) {
                    info.dur_us = record.get_u64("dur_us");
                }
            }
            _ => {}
        }
    }

    fn subtree(state: &SinkState, id: u64) -> PhaseNode {
        let info = &state.spans[&id];
        let mut node = PhaseNode {
            name: if info.name.is_empty() {
                "?".to_string()
            } else {
                info.name.clone()
            },
            count: 1,
            total_us: info.dur_us.unwrap_or(0),
            self_us: 0,
            children: Vec::new(),
        };
        if let Some(kids) = state.children.get(&id) {
            for &kid in kids {
                if !state.spans.contains_key(&kid) {
                    continue;
                }
                let sub = Self::subtree(state, kid);
                match node.children.iter_mut().find(|c| c.name == sub.name) {
                    Some(existing) => existing.merge_from(sub),
                    None => node.children.push(sub),
                }
            }
        }
        let children_total = node.children_total_us();
        if node.total_us == 0 {
            // Never closed: attribute the children's time, nothing more.
            node.total_us = children_total;
        }
        node.self_us = node.total_us.saturating_sub(children_total);
        node
    }

    fn remove_subtree(state: &mut SinkState, root: u64) {
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            state.spans.remove(&id);
            if let Some(kids) = state.children.remove(&id) {
                stack.extend(kids);
            }
        }
        state.roots.retain(|&r| r != root);
    }

    /// Extracts (and forgets) the phase tree rooted at span `root`.
    /// `wall_us`, when given, overrides the root's total time — used when
    /// the root span is still open at extraction time (the caller knows the
    /// elapsed wall).  Returns `None` for an unknown root.
    pub fn take_tree(&self, root: u64, wall_us: Option<u64>) -> Option<PhaseNode> {
        let mut state = self.state.lock().expect("profile sink lock");
        if !state.spans.get(&root).map(|s| s.known).unwrap_or(false) {
            return None;
        }
        let mut node = Self::subtree(&state, root);
        if let Some(wall) = wall_us {
            node.total_us = wall;
            node.self_us = wall.saturating_sub(node.children_total_us());
        }
        Self::remove_subtree(&mut state, root);
        state.forget(root);
        Some(node)
    }

    /// Extracts (and forgets) every root span's phase tree, merging roots
    /// with the same name, and resets the sink.
    pub fn take_roots(&self) -> Vec<PhaseNode> {
        let mut state = self.state.lock().expect("profile sink lock");
        let roots = std::mem::take(&mut state.roots);
        let mut out: Vec<PhaseNode> = Vec::new();
        for root in roots {
            if !state.spans.contains_key(&root) {
                continue;
            }
            let node = Self::subtree(&state, root);
            match out.iter_mut().find(|c| c.name == node.name) {
                Some(existing) => existing.merge_from(node),
                None => out.push(node),
            }
        }
        *state = SinkState::default();
        out
    }

    /// Span records dropped under memory pressure.
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("profile sink lock").dropped
    }
}

impl TraceSink for ProfileSink {
    fn write(&self, lines: &[String]) {
        {
            let mut state = self.state.lock().expect("profile sink lock");
            for line in lines {
                Self::absorb(&mut state, line);
            }
        }
        if let Some(inner) = &self.inner {
            inner.write(lines);
        }
    }

    fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic xorshift — property tests stay seeded and
    /// dependency-free.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound.max(1)
        }
    }

    fn sample_at(t_us: u64, conflicts: u64) -> SolveSample {
        SolveSample {
            t_us,
            label: "chaff".to_string(),
            conflicts,
            propagations: conflicts * 7,
            decisions: conflicts * 3,
            restarts: conflicts / 100,
            trail_depth: 42,
            learnt_db: conflicts / 2,
            arena_bytes: conflicts * 40,
            learnt_bytes: conflicts * 24,
            conflicts_per_sec: 1000.0,
            propagations_per_sec: 7000.0,
            mean_decision_level: 9.5,
        }
    }

    #[test]
    fn recorder_never_exceeds_bound() {
        let mut rng = Rng(0x5eed_0001);
        for _ in 0..40 {
            let cap = 8 + rng.below(64) as usize;
            let offers = rng.below(5000);
            let mut recorder = SolveRecorder::new(cap);
            let mut t = 0u64;
            for i in 0..offers {
                t += 1 + rng.below(500);
                recorder.offer(sample_at(t, i));
                assert!(recorder.samples().len() <= recorder.cap());
                assert!(recorder.series().len() <= recorder.cap());
            }
        }
    }

    #[test]
    fn last_is_none_before_the_first_offer() {
        let mut recorder = SolveRecorder::new(8);
        assert_eq!(recorder.last(), None);
        recorder.offer(sample_at(1, 5));
        assert_eq!(recorder.last().map(|s| s.conflicts), Some(5));
    }

    #[test]
    fn decimation_preserves_first_last_and_monotonicity() {
        let mut rng = Rng(0x5eed_0002);
        for _ in 0..40 {
            let offers = 2 + rng.below(4000);
            let mut recorder = SolveRecorder::new(16);
            let mut t = 0u64;
            let mut first = None;
            let mut last = None;
            for i in 0..offers {
                t += 1 + rng.below(300);
                let sample = sample_at(t, i);
                if first.is_none() {
                    first = Some(sample.clone());
                }
                last = Some(sample.clone());
                recorder.offer(sample);
            }
            let series = recorder.series();
            assert_eq!(series.first(), first.as_ref());
            assert_eq!(series.last(), last.as_ref());
            assert_eq!(recorder.last(), last.as_ref(), "last() is the latest offer");
            assert!(
                series.windows(2).all(|w| w[0].t_us <= w[1].t_us),
                "timestamps must stay monotone after decimation"
            );
            assert_eq!(recorder.offered(), offers);
        }
    }

    #[test]
    fn empty_profile_roundtrips() {
        let profile = SolveProfile {
            instance: "2xDLX-CC".to_string(),
            solver: "sato".to_string(),
            result: "unknown".to_string(),
            wall_us: 1234,
            stride: 1,
            offered: 0,
            ..SolveProfile::default()
        };
        let parsed = SolveProfile::parse(&profile.to_jsonl()).expect("parse");
        assert_eq!(parsed, profile);
    }

    #[test]
    fn single_sample_profile_roundtrips() {
        let mut phases = PhaseNode {
            name: "serve.job".to_string(),
            count: 1,
            total_us: 1000,
            self_us: 100,
            children: Vec::new(),
        };
        phases.children.push(PhaseNode {
            name: "serve.solve".to_string(),
            count: 2,
            total_us: 900,
            self_us: 900,
            children: Vec::new(),
        });
        let profile = SolveProfile {
            instance: "dlx \"quoted\"/weird".to_string(),
            solver: "chaff".to_string(),
            result: "unsat".to_string(),
            wall_us: 999,
            stride: 2,
            offered: 17,
            conflicts: 3863,
            propagations: 123456,
            decisions: 777,
            restarts: 4,
            samples: vec![sample_at(500, 1000)],
            markers: vec![SolveMarker {
                t_us: 3,
                kind: "solve".to_string(),
                detail: "chaff".to_string(),
            }],
            phases: vec![phases],
        };
        let parsed = SolveProfile::parse(&profile.to_jsonl()).expect("parse");
        assert_eq!(parsed, profile);
    }

    #[test]
    fn profile_sink_folds_spans_into_tree() {
        let sink = ProfileSink::new();
        sink.write(&[
            r#"{"type":"span_open","id":1,"parent":0,"name":"serve.job","thread":1,"ts_us":0}"#.to_string(),
            r#"{"type":"span_open","id":2,"parent":1,"name":"serve.translate","thread":1,"ts_us":1}"#.to_string(),
            r#"{"type":"span_close","id":2,"name":"serve.translate","thread":1,"ts_us":40,"dur_us":39}"#.to_string(),
            r#"{"type":"span_open","id":3,"parent":1,"name":"serve.solve","thread":1,"ts_us":41}"#.to_string(),
            r#"{"type":"span_close","id":3,"name":"serve.solve","thread":1,"ts_us":100,"dur_us":59}"#.to_string(),
            r#"{"type":"span_close","id":1,"name":"serve.job","thread":1,"ts_us":110,"dur_us":110}"#.to_string(),
        ]);
        let tree = sink.take_tree(1, None).expect("root");
        assert_eq!(tree.name, "serve.job");
        assert_eq!(tree.total_us, 110);
        assert_eq!(tree.children_total_us(), 98);
        assert_eq!(tree.self_us, 12);
        // Extraction forgets the subtree.
        assert!(sink.take_tree(1, None).is_none());
    }

    #[test]
    fn profile_sink_handles_child_before_parent() {
        let sink = ProfileSink::new();
        // The child thread's buffer drained first: child open/close arrive
        // before the parent's open.
        sink.write(&[
            r#"{"type":"span_open","id":9,"parent":5,"name":"translate","thread":2,"ts_us":2}"#
                .to_string(),
            r#"{"type":"span_close","id":9,"name":"translate","thread":2,"ts_us":30,"dur_us":28}"#
                .to_string(),
        ]);
        sink.write(&[
            r#"{"type":"span_open","id":5,"parent":0,"name":"serve.job","thread":1,"ts_us":0}"#
                .to_string(),
        ]);
        let tree = sink.take_tree(5, Some(50)).expect("root known after open");
        assert_eq!(tree.name, "serve.job");
        assert_eq!(tree.total_us, 50);
        assert_eq!(tree.children[0].name, "translate");
        assert_eq!(tree.children[0].total_us, 28);
        assert_eq!(tree.self_us, 22);
    }

    #[test]
    fn late_records_of_extracted_trees_are_ignored() {
        let sink = ProfileSink::new();
        sink.write(&[
            r#"{"type":"span_open","id":1,"parent":0,"name":"serve.job","thread":1,"ts_us":0}"#
                .to_string(),
        ]);
        assert!(sink.take_tree(1, Some(10)).is_some());
        // The job's own close and a child opened after extraction (the
        // respond span) must not accumulate as orphans.
        sink.write(&[
            r#"{"type":"span_open","id":2,"parent":1,"name":"serve.respond","thread":1,"ts_us":11}"#.to_string(),
            r#"{"type":"span_close","id":2,"name":"serve.respond","thread":1,"ts_us":12,"dur_us":1}"#.to_string(),
            r#"{"type":"span_close","id":1,"name":"serve.job","thread":1,"ts_us":13,"dur_us":13}"#.to_string(),
        ]);
        assert!(sink.take_roots().is_empty());
    }

    #[test]
    fn take_roots_merges_same_name_roots() {
        let sink = ProfileSink::new();
        sink.write(&[
            r#"{"type":"span_open","id":1,"parent":0,"name":"translate","thread":1,"ts_us":0}"#
                .to_string(),
            r#"{"type":"span_close","id":1,"name":"translate","thread":1,"ts_us":10,"dur_us":10}"#
                .to_string(),
            r#"{"type":"span_open","id":2,"parent":0,"name":"translate","thread":1,"ts_us":20}"#
                .to_string(),
            r#"{"type":"span_close","id":2,"name":"translate","thread":1,"ts_us":50,"dur_us":30}"#
                .to_string(),
        ]);
        let roots = sink.take_roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].count, 2);
        assert_eq!(roots[0].total_us, 40);
        assert!(sink.take_roots().is_empty());
    }
}
