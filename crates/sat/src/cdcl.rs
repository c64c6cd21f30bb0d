//! Conflict-driven clause-learning SAT solver.
//!
//! One engine, several personalities: the presets configure the decision
//! heuristic, restart policy and learning limits so that the solver behaves
//! like the SAT checkers compared in the paper:
//!
//! * [`CdclSolver::chaff`] — lazy two-watched-literal propagation, VSIDS
//!   activities, aggressive restarts, phase saving (Moskewicz et al., DAC'01).
//! * [`CdclSolver::berkmin`] — decisions taken from the most recently learned
//!   conflict clause that is not yet satisfied (Goldberg & Novikov, DATE'02).
//! * [`CdclSolver::grasp`] — learning and non-chronological backtracking but a
//!   static decision order and no restarts (Marques-Silva & Sakallah).
//! * [`CdclSolver::sato`] — length-bounded learning and no activity heuristic.
//!
//! The parameter-variation runs of Table 2 are produced with
//! [`CdclSolver::chaff_with`] and a modified [`CdclConfig`].
//!
//! # Engine internals
//!
//! The engine follows the MiniSat data layout, chosen so that the hot loops
//! (propagation and conflict analysis) touch contiguous memory and never
//! allocate:
//!
//! * **Flat clause arena** — all clauses live in one `Vec<u32>`; a clause is a
//!   two-word header (length + flags, packed activity) followed by its literal
//!   codes, addressed by a `ClauseRef` word offset.  Deletion marks the
//!   header and counts the waste; when a fifth of the arena is dead, it is
//!   compacted in place: live clauses slide down over the dead ones in
//!   address order, every watcher, reason and learned-clause reference is
//!   rewritten, and the arena keeps its capacity, so the next learned clauses
//!   fill the reclaimed words instead of growing a fresh allocation.  A full
//!   arena grows by a quarter of its length, not by doubling.
//! * **Blocker-literal watch lists** — each watcher caches a *blocker*
//!   literal from the clause; if the blocker is already true the clause is
//!   skipped without touching the arena at all.  Watcher lists are filtered
//!   in place with a single read/write pass (no temporary lists, no
//!   re-merging).
//! * **Indexed activity heap** — VSIDS decisions come from a binary max-heap
//!   that tracks each variable's position, so an activity bump is a sift-up
//!   of that one entry instead of pushing a stale duplicate, and unassigned
//!   variables re-enter the heap exactly once on backtracking.
//! * **Allocation-free first-UIP analysis** — conflict resolution iterates
//!   arena clauses directly and accumulates the learned clause in a reusable
//!   buffer; nothing is cloned on the conflict path.
//! * **Recursive clause minimization** — every preset then drops each
//!   learned literal whose reason's other literals are in the clause, at
//!   level 0, or themselves redundant (MiniSat's deep mode, pruned by a
//!   32-bit signature of the clause's decision levels).  A shortened lemma's
//!   proof hints name the dropped literals' reasons in trail order, ahead of
//!   the analysis chain, so the checker replays it on hints alone;
//!   `SolverStats::minimized_literals` counts the removed literals.
//! * **O(1) locked-clause checks** — a clause is locked exactly when it is
//!   the recorded reason of its first literal, so clause-database reduction
//!   asks the `reason` array instead of scanning the trail.

use crate::cnf::{Clause, CnfFormula, Lit, Var};
use crate::proof::SharedProof;
use crate::rng::SmallRng;
use crate::solver::{refining_rounds, Budget, Model, SatResult, Solver, SolverStats, StopReason};
use std::collections::HashMap;
use velv_proof::ClauseId;

/// Tuning knobs of the CDCL engine.
#[derive(Clone, Debug)]
pub struct CdclConfig {
    /// Human-readable preset name.
    pub name: String,
    /// Multiplicative decay applied to variable activities at each conflict.
    pub var_decay: f64,
    /// Multiplicative decay applied to clause activities at each conflict.
    pub clause_decay: f64,
    /// Base restart interval in conflicts; `None` disables restarts.
    pub restart_interval: Option<u64>,
    /// Geometric growth factor of the restart interval.
    pub restart_multiplier: f64,
    /// Probability of making a random decision instead of a heuristic one.
    pub random_decision_freq: f64,
    /// BerkMin-style decisions: branch on a literal of the most recently
    /// learned clause that is not yet satisfied.
    pub clause_based_decisions: bool,
    /// Use a static (index) variable order instead of activities.
    pub static_order: bool,
    /// Keep only learned clauses of at most this length (SATO-style).
    pub max_learnt_len: Option<usize>,
    /// Remember the last assigned polarity of each variable.
    pub phase_saving: bool,
    /// Periodically delete low-activity learned clauses.
    pub db_reduction: bool,
    /// RNG seed for random decisions.
    pub seed: u64,
}

impl CdclConfig {
    /// The Chaff-like preset.
    pub fn chaff() -> Self {
        CdclConfig {
            name: "chaff".to_owned(),
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_interval: Some(700),
            restart_multiplier: 1.3,
            random_decision_freq: 0.02,
            clause_based_decisions: false,
            static_order: false,
            max_learnt_len: None,
            phase_saving: true,
            db_reduction: true,
            seed: 0xC4AFF,
        }
    }

    /// The BerkMin-like preset.
    pub fn berkmin() -> Self {
        CdclConfig {
            name: "berkmin".to_owned(),
            clause_based_decisions: true,
            restart_interval: Some(550),
            random_decision_freq: 0.0,
            seed: 0xBE_12C1,
            ..CdclConfig::chaff()
        }
    }

    /// The GRASP-like preset: learning but static order and no restarts.
    pub fn grasp() -> Self {
        CdclConfig {
            name: "grasp".to_owned(),
            static_order: true,
            restart_interval: None,
            random_decision_freq: 0.0,
            db_reduction: false,
            seed: 0x62A5_0000,
            ..CdclConfig::chaff()
        }
    }

    /// The SATO-like preset: length-bounded learning, no activities.
    pub fn sato() -> Self {
        CdclConfig {
            name: "sato".to_owned(),
            static_order: true,
            restart_interval: None,
            max_learnt_len: Some(20),
            random_decision_freq: 0.0,
            db_reduction: false,
            seed: 0x5A70,
            ..CdclConfig::chaff()
        }
    }
}

/// The CDCL solver.
#[derive(Debug)]
pub struct CdclSolver {
    config: CdclConfig,
    stats: SolverStats,
}

impl CdclSolver {
    /// Creates a solver with an explicit configuration.
    pub fn new(config: CdclConfig) -> Self {
        CdclSolver {
            config,
            stats: SolverStats::default(),
        }
    }

    /// Chaff-like preset.
    pub fn chaff() -> Self {
        Self::new(CdclConfig::chaff())
    }

    /// Chaff-like preset with a modified configuration (parameter variations).
    pub fn chaff_with(mut f: impl FnMut(&mut CdclConfig)) -> Self {
        let mut cfg = CdclConfig::chaff();
        f(&mut cfg);
        Self::new(cfg)
    }

    /// BerkMin-like preset.
    pub fn berkmin() -> Self {
        Self::new(CdclConfig::berkmin())
    }

    /// GRASP-like preset.
    pub fn grasp() -> Self {
        Self::new(CdclConfig::grasp())
    }

    /// SATO-like preset.
    pub fn sato() -> Self {
        Self::new(CdclConfig::sato())
    }

    /// The configuration of this solver.
    pub fn config(&self) -> &CdclConfig {
        &self.config
    }

    /// Solves `cnf` while recording a DRAT proof into a fresh in-memory
    /// proof and returns it: every learned clause (with its antecedent
    /// hints) and clause deletion, and for an `Unsat` answer the empty
    /// clause — exactly what the independent checker in `velv_proof` needs
    /// to replay the refutation.
    pub fn solve_recording_proof(
        &mut self,
        cnf: &CnfFormula,
        budget: Budget,
    ) -> (SatResult, velv_proof::Proof) {
        let shared = SharedProof::new();
        let result = self.run(cnf, budget, Some(&shared), &mut |_| Vec::new());
        (result, shared.take())
    }

    /// [`Solver::solve_refining`] with one DRAT proof threaded through every
    /// round.  The refinement clauses take the input ids after `cnf`'s, in
    /// the order `refine` returned them, so the proof checks against `cnf`
    /// followed by those clauses.
    pub fn solve_refining_with_proof(
        &mut self,
        cnf: &CnfFormula,
        budget: Budget,
        proof: &SharedProof,
        refine: &mut dyn FnMut(&Model) -> Vec<Clause>,
    ) -> SatResult {
        self.run(cnf, budget, Some(proof), refine)
    }

    /// The refinement rounds of `cnf` on one live engine, logging into
    /// `proof` if given.  Refinement clauses land in the engine between
    /// rounds, so learned clauses, activities and saved phases carry over.
    fn run(
        &mut self,
        cnf: &CnfFormula,
        budget: Budget,
        proof: Option<&SharedProof>,
        refine: &mut dyn FnMut(&Model) -> Vec<Clause>,
    ) -> SatResult {
        let mut engine = Engine::new(cnf, self.config.clone());
        if let Some(proof) = proof {
            engine.set_proof(proof.clone());
        }
        let result = refining_rounds(&budget, refine, |budget, clauses| {
            let before = engine.stats;
            for clause in clauses {
                engine.add_clause_dynamic(clause);
            }
            let result = engine.search(budget);
            let used = SolverStats {
                conflicts: engine.stats.conflicts - before.conflicts,
                decisions: engine.stats.decisions - before.decisions,
                ..engine.stats
            };
            (result, used)
        });
        self.stats = engine.stats;
        result
    }
}

impl Solver for CdclSolver {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn solve_with_budget(&mut self, cnf: &CnfFormula, budget: Budget) -> SatResult {
        self.run(cnf, budget, None, &mut |_| Vec::new())
    }

    /// CDCL is a proof-producing procedure: the search runs with the shared
    /// proof attached as the engine's DRAT sink.
    fn solve_with_proof(
        &mut self,
        cnf: &CnfFormula,
        budget: Budget,
        proof: &SharedProof,
    ) -> Option<SatResult> {
        Some(self.run(cnf, budget, Some(proof), &mut |_| Vec::new()))
    }

    /// One live engine for all rounds; see [`CdclSolver::solve_refining_with_proof`].
    fn solve_refining(
        &mut self,
        cnf: &CnfFormula,
        budget: Budget,
        refine: &mut dyn FnMut(&Model) -> Vec<Clause>,
    ) -> SatResult {
        self.run(cnf, budget, None, refine)
    }

    fn stats(&self) -> SolverStats {
        self.stats
    }
}

/// Word offset of a clause header in the arena.
type ClauseRef = u32;

const UNDEF_CLAUSE: ClauseRef = u32::MAX;

/// Header flag: the clause was learned.  A learned clause's second header
/// word is its activity; an input clause's is its input id (see
/// [`ClauseArena::input_id`]).
const FLAG_LEARNT: u32 = 0b01;
/// Header flag: the clause is dead; watchers drop it lazily, compaction
/// reclaims it.
const FLAG_DELETED: u32 = 0b10;
/// Bits of the first header word below the clause length.
const FLAG_BITS: u32 = 2;
/// Words before the literals: `[len << FLAG_BITS | flags, activity_bits]`.
const HEADER_WORDS: usize = 2;

/// All clauses in one flat `Vec<u32>`: a two-word header followed by the
/// literal codes, addressed by word offset.
#[derive(Debug, Default)]
struct ClauseArena {
    data: Vec<u32>,
    /// Words occupied by deleted clauses; drives compaction.
    wasted: usize,
    /// Clauses allocated and not deleted: the size of compaction's side
    /// table.
    live: usize,
}

impl ClauseArena {
    fn with_capacity(words: usize) -> Self {
        ClauseArena {
            data: Vec::with_capacity(words),
            wasted: 0,
            live: 0,
        }
    }

    fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        // ClauseRef is a u32 word offset: fail loudly rather than wrap once a
        // run (e.g. grasp, which never deletes) outgrows the address space.
        assert!(
            self.data.len() + HEADER_WORDS + lits.len() < UNDEF_CLAUSE as usize,
            "clause arena exceeds the u32 address space"
        );
        // Grow by a quarter of the arena rather than doubling it: the arena
        // is the engine's largest buffer, and a doubled one sits mostly
        // empty between growths.  Geometric growth keeps appends amortised
        // O(1).
        let words = HEADER_WORDS + lits.len();
        if self.data.capacity() - self.data.len() < words {
            self.data.reserve_exact(words.max(self.data.len() / 4));
        }
        let cref = self.data.len() as ClauseRef;
        let flags = if learnt { FLAG_LEARNT } else { 0 };
        self.data.push((lits.len() as u32) << FLAG_BITS | flags);
        self.data.push(0f32.to_bits());
        self.data.extend(lits.iter().map(|l| l.index() as u32));
        self.live += 1;
        cref
    }

    #[inline]
    fn len(&self, c: ClauseRef) -> usize {
        (self.data[c as usize] >> FLAG_BITS) as usize
    }

    #[inline]
    fn is_learnt(&self, c: ClauseRef) -> bool {
        self.data[c as usize] & FLAG_LEARNT != 0
    }

    #[inline]
    fn is_deleted(&self, c: ClauseRef) -> bool {
        self.data[c as usize] & FLAG_DELETED != 0
    }

    fn delete(&mut self, c: ClauseRef) {
        debug_assert!(!self.is_deleted(c));
        let words = HEADER_WORDS + self.len(c);
        self.data[c as usize] |= FLAG_DELETED;
        self.wasted += words;
        self.live -= 1;
    }

    #[inline]
    fn lit(&self, c: ClauseRef, k: usize) -> Lit {
        Lit::from_index(self.data[c as usize + HEADER_WORDS + k] as usize)
    }

    #[inline]
    fn swap_lits(&mut self, c: ClauseRef, i: usize, j: usize) {
        let base = c as usize + HEADER_WORDS;
        self.data.swap(base + i, base + j);
    }

    /// The position of an input clause in the order the engine received its
    /// clauses, kept in the header word learned clauses use for activity.
    #[inline]
    fn input_id(&self, c: ClauseRef) -> u32 {
        debug_assert!(!self.is_learnt(c));
        self.data[c as usize + 1]
    }

    #[inline]
    fn set_input_id(&mut self, c: ClauseRef, id: u32) {
        debug_assert!(!self.is_learnt(c));
        self.data[c as usize + 1] = id;
    }

    #[inline]
    fn activity(&self, c: ClauseRef) -> f32 {
        f32::from_bits(self.data[c as usize + 1])
    }

    #[inline]
    fn set_activity(&mut self, c: ClauseRef, activity: f32) {
        self.data[c as usize + 1] = activity.to_bits();
    }

    /// Words currently in use (live clauses plus garbage).
    fn len_words(&self) -> usize {
        self.data.len()
    }

    /// Compaction, first pass: writes into the second header word of every
    /// live clause the offset it will slide down to, and returns the words
    /// so overwritten (input ids and activities), in address order.  Until
    /// [`ClauseArena::slide_down`], [`ClauseArena::moved_to`] maps a live
    /// reference to its new offset.
    fn plan_compaction(&mut self) -> Vec<u32> {
        let mut saved = Vec::with_capacity(self.live);
        let mut c = 0;
        let mut to = 0;
        while c < self.data.len() {
            let words = HEADER_WORDS + self.len(c as ClauseRef);
            if !self.is_deleted(c as ClauseRef) {
                saved.push(self.data[c + 1]);
                self.data[c + 1] = to as u32;
                to += words;
            }
            c += words;
        }
        debug_assert_eq!(saved.len(), self.live);
        saved
    }

    /// Where a live clause moves in the compaction under way.
    #[inline]
    fn moved_to(&self, c: ClauseRef) -> ClauseRef {
        debug_assert!(!self.is_deleted(c));
        self.data[c as usize + 1]
    }

    /// Compaction, last pass: copies every live clause down to its planned
    /// offset in address order (a clause never moves past one not yet
    /// visited), puts back its saved second header word and drops the
    /// reclaimed tail.  The capacity is kept for the clauses learned next.
    fn slide_down(&mut self, saved: &[u32]) {
        let mut saved = saved.iter();
        let mut c = 0;
        let mut end = 0;
        while c < self.data.len() {
            let words = HEADER_WORDS + self.len(c as ClauseRef);
            if !self.is_deleted(c as ClauseRef) {
                let to = self.data[c + 1] as usize;
                self.data.copy_within(c..c + words, to);
                self.data[to + 1] = *saved.next().expect("a saved word per live clause");
                end = to + words;
            }
            c += words;
        }
        self.data.truncate(end);
        self.wasted = 0;
    }
}

impl velv_obs::MemFootprint for ClauseArena {
    /// The arena's heap bytes: the full backing capacity (slack included —
    /// that memory is held either way), measured from the arena's own
    /// bookkeeping.
    fn measured_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<u32>()
    }
}

/// One entry of a literal's watch list.  The blocker is some other literal of
/// the clause: if it is already true the clause is satisfied and propagation
/// skips it without loading the clause from the arena.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Binary max-heap over variable activities with position tracking, so bumps
/// are a sift-up of one known entry (decrease-key) instead of a push of a
/// stale duplicate.
#[derive(Debug)]
struct VarHeap {
    heap: Vec<u32>,
    /// `pos[v]` is the index of `v` in `heap`, or -1 when absent.
    pos: Vec<i32>,
}

impl VarHeap {
    fn new(num_vars: usize) -> Self {
        VarHeap {
            heap: Vec::with_capacity(num_vars),
            pos: vec![-1; num_vars],
        }
    }

    /// Extends the position table for variables added after construction.
    fn grow(&mut self, num_vars: usize) {
        if num_vars > self.pos.len() {
            self.pos.resize(num_vars, -1);
        }
    }

    #[inline]
    fn in_heap(&self, v: usize) -> bool {
        self.pos[v] >= 0
    }

    fn insert(&mut self, v: usize, activity: &[f64]) {
        if self.in_heap(v) {
            return;
        }
        self.pos[v] = self.heap.len() as i32;
        self.heap.push(v as u32);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the heap order after `activity[v]` increased.
    fn bumped(&mut self, v: usize, activity: &[f64]) {
        if self.in_heap(v) {
            self.sift_up(self.pos[v] as usize, activity);
        }
    }

    fn pop_max(&mut self, activity: &[f64]) -> Option<usize> {
        let top = *self.heap.first()? as usize;
        let last = self.heap.pop().expect("heap is non-empty");
        self.pos[top] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if activity[p as usize] >= activity[v as usize] {
                break;
            }
            self.heap[i] = p;
            self.pos[p as usize] = i as i32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as i32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let len = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= len {
                break;
            }
            if child + 1 < len
                && activity[self.heap[child + 1] as usize] > activity[self.heap[child] as usize]
            {
                child += 1;
            }
            let c = self.heap[child];
            if activity[v as usize] >= activity[c as usize] {
                break;
            }
            self.heap[i] = c;
            self.pos[c as usize] = i as i32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as i32;
    }
}

/// Per-variable assignment encoding: `vals[v] ^ sign_bit(lit)` is 0 when the
/// literal is true, 1 when false and ≥ 2 when the variable is unassigned.
const VAL_TRUE: u8 = 0;
const VAL_FALSE: u8 = 1;
const VAL_UNDEF: u8 = 2;

struct Engine {
    config: CdclConfig,
    stats: SolverStats,
    num_vars: usize,
    arena: ClauseArena,
    /// For each literal index, the watchers of that literal.
    watches: Vec<Vec<Watcher>>,
    vals: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    /// Each assigned variable's position on the trail: orders the reasons
    /// of minimized-away literals in a lemma's hints.
    trail_pos: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f32,
    phase: Vec<bool>,
    heap: VarHeap,
    /// Whether the activity heap is maintained (presets with a static order
    /// never consult it).
    use_heap: bool,
    static_cursor: usize,
    rng: SmallRng,
    seen: Vec<bool>,
    /// Reusable buffer for the clause under construction in `analyze`.
    learnt_buf: Vec<Lit>,
    /// Variables whose `seen` flag minimization must clear: the learned
    /// clause's literals, then those proved redundant on the way, each
    /// dropped literal listed again.
    analyze_toclear: Vec<usize>,
    /// Depth-first stack of [`Engine::lit_redundant`].
    analyze_stack: Vec<usize>,
    /// Live learned clause references, oldest first (for BerkMin decisions).
    learnt_refs: Vec<ClauseRef>,
    /// Learned clauses over the SATO length bound, kept only while locked.
    oversize: Vec<ClauseRef>,
    /// Number of live (non-deleted) learned clauses.
    num_learnts: usize,
    reduce_limit: usize,
    unsat: bool,
    /// Preset-labelled metric handles and heartbeat state (see
    /// [`crate::obs`]): counters are delta-flushed from `stats` at heartbeat
    /// boundaries and at the end of every `search` call.
    obs: crate::obs::EngineObs,
    /// Optional DRAT sink: learned clauses, deletions and the root empty
    /// clause are recorded here.
    proof: Option<SharedProof>,
    /// Input clauses received so far: the next one's input id.
    num_inputs: u32,
    /// Proof ids of the live learned clauses in the arena; filled only while
    /// a proof is attached, re-keyed by compaction.
    lemma_ids: HashMap<ClauseRef, ClauseId>,
    /// The antecedent hints of the clause in `learnt_buf`, collected by
    /// `analyze` while a proof is attached.
    hint_buf: Vec<ClauseId>,
    /// Reusable buffer for proof steps read out of the arena.
    proof_buf: Vec<Lit>,
    /// Whether the empty clause has already been emitted to the proof.
    proof_empty_logged: bool,
    /// Arena compactions so far.
    #[cfg(test)]
    compactions: u64,
    /// Never compact the arena: the reference search for checking that
    /// compaction changes no decision.
    #[cfg(test)]
    never_compact: bool,
}

impl Engine {
    fn new(cnf: &CnfFormula, config: CdclConfig) -> Self {
        let _mem_scope = velv_obs::MemScope::enter("sat.arena");
        let num_vars = cnf.num_vars();
        let seed = config.seed;
        let use_heap = !config.static_order;
        let arena_words = cnf.num_literals() + HEADER_WORDS * cnf.num_clauses();
        let obs = crate::obs::EngineObs::new(&config.name);
        // Size every watch list for the input clauses it will hold: loading
        // then allocates each list once, in literal order, without growth
        // slack, instead of scattering repeated regrowths over the heap.
        let mut watch_counts = vec![0u32; 2 * num_vars];
        for clause in cnf.clauses().filter(|c| c.len() >= 2) {
            watch_counts[clause[0].index()] += 1;
            watch_counts[clause[1].index()] += 1;
        }
        let mut engine = Engine {
            config,
            stats: SolverStats::default(),
            num_vars,
            arena: ClauseArena::with_capacity(arena_words),
            watches: watch_counts
                .into_iter()
                .map(|n| Vec::with_capacity(n as usize))
                .collect(),
            vals: vec![VAL_UNDEF; num_vars],
            level: vec![0; num_vars],
            reason: vec![UNDEF_CLAUSE; num_vars],
            trail_pos: vec![0; num_vars],
            trail: Vec::with_capacity(num_vars),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; num_vars],
            var_inc: 1.0,
            cla_inc: 1.0,
            phase: vec![false; num_vars],
            heap: VarHeap::new(num_vars),
            use_heap,
            static_cursor: 0,
            rng: SmallRng::seed_from_u64(seed),
            seen: vec![false; num_vars],
            learnt_buf: Vec::new(),
            analyze_toclear: Vec::new(),
            analyze_stack: Vec::new(),
            learnt_refs: Vec::new(),
            oversize: Vec::new(),
            num_learnts: 0,
            reduce_limit: (cnf.num_clauses() / 3).max(4000),
            unsat: false,
            obs,
            proof: None,
            num_inputs: 0,
            lemma_ids: HashMap::new(),
            hint_buf: Vec::new(),
            proof_buf: Vec::new(),
            proof_empty_logged: false,
            #[cfg(test)]
            compactions: 0,
            #[cfg(test)]
            never_compact: false,
        };
        // Give every variable an initial (small) activity based on occurrence count.
        for clause in cnf.clauses() {
            for lit in clause {
                engine.activity[lit.var().index()] += 1e-6;
            }
        }
        if use_heap {
            for v in 0..num_vars {
                engine.heap.insert(v, &engine.activity);
            }
        }
        for clause in cnf.clauses() {
            engine.add_initial_clause(clause);
            if engine.unsat {
                break;
            }
        }
        engine
    }

    /// Grows the variable tables (values, levels, reasons, activities, phases,
    /// watch lists, decision heap) to cover at least `n` variables.
    fn ensure_vars(&mut self, n: usize) {
        if n <= self.num_vars {
            return;
        }
        let _mem_scope = velv_obs::MemScope::enter("sat.arena");
        self.watches.resize_with(2 * n, Vec::new);
        self.vals.resize(n, VAL_UNDEF);
        self.level.resize(n, 0);
        self.reason.resize(n, UNDEF_CLAUSE);
        self.trail_pos.resize(n, 0);
        self.activity.resize(n, 0.0);
        self.phase.resize(n, false);
        self.seen.resize(n, false);
        self.heap.grow(n);
        if self.use_heap {
            for v in self.num_vars..n {
                self.heap.insert(v, &self.activity);
            }
        }
        self.num_vars = n;
    }

    /// The engine's memory figures, measured from its own bookkeeping: arena
    /// occupancy and fragmentation in words, plus measured byte counts for
    /// the arena, the watch lists and the learnt database.  Cheap enough for
    /// heartbeat cadence (one walk of the watch-list spines and the learnt
    /// references per call).
    fn arena_figures(&self) -> crate::obs::ArenaFigures {
        use velv_obs::MemFootprint as _;
        let watches_bytes = self.watches.capacity() * std::mem::size_of::<Vec<Watcher>>()
            + self
                .watches
                .iter()
                .map(|w| w.capacity() * std::mem::size_of::<Watcher>())
                .sum::<usize>();
        let learnt_words: usize = self
            .learnt_refs
            .iter()
            .filter(|&&c| !self.arena.is_deleted(c))
            .map(|&c| HEADER_WORDS + self.arena.len(c))
            .sum();
        let learnt_bytes = learnt_words * std::mem::size_of::<u32>()
            + self.learnt_refs.capacity() * std::mem::size_of::<ClauseRef>();
        crate::obs::ArenaFigures {
            len_words: self.arena.len_words() as u64,
            wasted_words: self.arena.wasted as u64,
            arena_bytes: self.arena.measured_bytes() as u64,
            watches_bytes: watches_bytes as u64,
            learnt_bytes: learnt_bytes as u64,
        }
    }

    /// Attaches a DRAT proof sink.  From here on every learned clause, every
    /// clause deletion and the terminal clause of each UNSAT answer are
    /// recorded, making the engine's refutations independently checkable.
    fn set_proof(&mut self, proof: SharedProof) {
        self.proof = Some(proof);
    }

    /// Takes the next input id.
    fn next_input_id(&mut self) -> u32 {
        let id = self.num_inputs;
        self.num_inputs += 1;
        id
    }

    /// The proof id of an arena clause, if the proof knows it (a clause
    /// learned before the proof was attached has none).
    fn clause_id(&self, cref: ClauseRef) -> Option<ClauseId> {
        if self.arena.is_learnt(cref) {
            self.lemma_ids.get(&cref).copied()
        } else {
            Some(ClauseId::input(self.arena.input_id(cref) as usize))
        }
    }

    /// Records the clause currently held in `learnt_buf` as a proof addition
    /// with the hints `analyze` collected; returns its lemma id.
    fn proof_log_learnt(&mut self) -> Option<ClauseId> {
        let proof = self.proof.as_ref()?;
        // `analyze` collected the antecedents from the conflict backwards.
        self.hint_buf.reverse();
        Some(proof.add_clause(&self.learnt_buf, &self.hint_buf))
    }

    /// Records the empty clause (at most once): the formula is refuted.
    fn proof_log_empty(&mut self) {
        if self.proof_empty_logged {
            return;
        }
        if let Some(proof) = &self.proof {
            proof.add_clause(&[], &[]);
            self.proof_empty_logged = true;
        }
    }

    /// Records the deletion of an arena clause.
    fn proof_log_delete(&mut self, cref: ClauseRef) {
        if self.proof.is_none() {
            return;
        }
        self.proof_buf.clear();
        for k in 0..self.arena.len(cref) {
            self.proof_buf.push(self.arena.lit(cref, k));
        }
        if let Some(proof) = &self.proof {
            proof.delete_clause(&self.proof_buf);
        }
    }

    /// Adds a clause between refinement rounds.  The engine first returns to
    /// decision level 0; the clause is normalised (sorted, deduplicated,
    /// tautologies dropped), simplified against the root-level assignment,
    /// and then installed with regular watches.  Unit clauses are enqueued at the root
    /// and propagated by the next [`Engine::search`]; an empty clause marks
    /// the formula unsatisfiable.
    fn add_clause_dynamic(&mut self, lits: &[Lit]) {
        let input_id = self.next_input_id();
        if self.unsat {
            return;
        }
        self.backtrack_to(0);
        if let Some(max) = lits.iter().map(|l| l.var().index() + 1).max() {
            self.ensure_vars(max);
        }
        let mut clause: Vec<Lit> = lits.to_vec();
        clause.sort_unstable();
        clause.dedup();
        for pair in clause.windows(2) {
            if pair[0].var() == pair[1].var() {
                return; // tautology: x and ¬x in the same clause
            }
        }
        // Only root-level assignments remain after the backtrack, so any
        // assigned literal is permanently true or false.
        if clause.iter().any(|&l| self.value_lit(l) == VAL_TRUE) {
            return; // satisfied at the root forever
        }
        clause.retain(|&l| self.value_lit(l) != VAL_FALSE);
        match clause.len() {
            0 => {
                // Every literal is false at the root: the empty clause is RUP
                // from the caller's clause and the root-level units.
                self.unsat = true;
                self.proof_log_empty();
            }
            1 => self.enqueue(clause[0], UNDEF_CLAUSE),
            _ => {
                let cref = self.arena.alloc(&clause, false);
                self.arena.set_input_id(cref, input_id);
                self.watch(clause[0], cref, clause[1]);
                self.watch(clause[1], cref, clause[0]);
            }
        }
    }

    fn add_initial_clause(&mut self, lits: &[Lit]) {
        let input_id = self.next_input_id();
        match lits.len() {
            0 => self.unsat = true,
            1 => {
                let lit = lits[0];
                match self.value_lit(lit) {
                    VAL_TRUE => {}
                    VAL_FALSE => self.unsat = true,
                    _ => self.enqueue(lit, UNDEF_CLAUSE),
                }
            }
            _ => {
                let cref = self.arena.alloc(lits, false);
                self.arena.set_input_id(cref, input_id);
                self.watch(lits[0], cref, lits[1]);
                self.watch(lits[1], cref, lits[0]);
            }
        }
    }

    #[inline]
    fn watch(&mut self, lit: Lit, cref: ClauseRef, blocker: Lit) {
        self.watches[lit.index()].push(Watcher { cref, blocker });
    }

    /// `VAL_TRUE` / `VAL_FALSE`, or ≥ 2 when the variable is unassigned.
    #[inline]
    fn value_lit(&self, lit: Lit) -> u8 {
        self.vals[lit.var().index()] ^ (lit.index() as u8 & 1)
    }

    #[inline]
    fn is_unassigned(&self, v: usize) -> bool {
        self.vals[v] >= VAL_UNDEF
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, lit: Lit, reason: ClauseRef) {
        let var = lit.var().index();
        debug_assert!(self.is_unassigned(var));
        self.vals[var] = lit.index() as u8 & 1;
        self.level[var] = self.decision_level();
        // Root-level facts need no reason (conflict analysis never resolves
        // on them), and recording none keeps their clauses unlocked.
        self.reason[var] = if self.decision_level() == 0 {
            UNDEF_CLAUSE
        } else {
            reason
        };
        if self.config.phase_saving {
            self.phase[var] = lit.is_positive();
        }
        self.trail_pos[var] = self.trail.len() as u32;
        self.trail.push(lit);
        self.stats.propagations += 1;
    }

    /// Boolean constraint propagation; returns a conflicting clause if any.
    ///
    /// Each literal's watcher list is filtered in place with one read/write
    /// pass: kept watchers are compacted towards the front, moved and dead
    /// ones are dropped, and the list is truncated once at the end.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let widx = false_lit.index();
            let mut i = 0;
            let mut j = 0;
            let mut conflict = None;
            'watchers: while i < self.watches[widx].len() {
                let w = self.watches[widx][i];
                i += 1;
                // Blocker check: clause already satisfied, arena untouched.
                if self.value_lit(w.blocker) == VAL_TRUE {
                    self.watches[widx][j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                if self.arena.is_deleted(cref) {
                    continue; // dropped lazily
                }
                // Make sure the false literal is at position 1.
                if self.arena.lit(cref, 0) == false_lit {
                    self.arena.swap_lits(cref, 0, 1);
                }
                let first = self.arena.lit(cref, 0);
                if first != w.blocker && self.value_lit(first) == VAL_TRUE {
                    self.watches[widx][j] = Watcher {
                        cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a replacement watch.
                let len = self.arena.len(cref);
                for k in 2..len {
                    let candidate = self.arena.lit(cref, k);
                    if self.value_lit(candidate) != VAL_FALSE {
                        self.arena.swap_lits(cref, 1, k);
                        self.watch(candidate, cref, first);
                        continue 'watchers; // watcher moved, not kept
                    }
                }
                // Clause is unit or conflicting.
                self.watches[widx][j] = Watcher {
                    cref,
                    blocker: first,
                };
                j += 1;
                if self.value_lit(first) == VAL_FALSE {
                    // Conflict: keep the remaining watchers and stop.
                    while i < self.watches[widx].len() {
                        let w = self.watches[widx][i];
                        self.watches[widx][j] = w;
                        i += 1;
                        j += 1;
                    }
                    conflict = Some(cref);
                    break;
                }
                self.enqueue(first, cref);
            }
            self.watches[widx].truncate(j);
            if let Some(c) = conflict {
                self.qhead = self.trail.len();
                return Some(c);
            }
        }
        None
    }

    fn bump_var(&mut self, var: usize) {
        self.activity[var] += self.var_inc;
        if self.activity[var] > 1e100 {
            // Uniform rescale preserves the heap order.
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.use_heap {
            self.heap.bumped(var, &self.activity);
        }
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let bumped = self.arena.activity(cref) + self.cla_inc;
        self.arena.set_activity(cref, bumped);
        if bumped > 1e20 {
            for idx in 0..self.learnt_refs.len() {
                let c = self.learnt_refs[idx];
                let scaled = self.arena.activity(c) * 1e-20;
                self.arena.set_activity(c, scaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis followed by recursive minimization.  The
    /// learned clause is accumulated in `self.learnt_buf` (asserting literal
    /// first); returns the backtrack level.  Clauses are read straight from
    /// the arena — nothing is cloned.  With a proof attached, the id of every
    /// clause resolved on goes to `hint_buf`, conflict clause first, and
    /// then the reasons minimization used, latest on the trail first.
    fn analyze(&mut self, mut conflict: ClauseRef) -> u32 {
        let hinting = self.proof.is_some();
        self.hint_buf.clear();
        self.learnt_buf.clear();
        self.learnt_buf.push(Lit::positive(Var::new(0))); // placeholder
        let mut counter = 0usize;
        let mut index = self.trail.len();
        // On the first iteration every literal of the conflicting clause is
        // examined; on later ones position 0 holds the literal being resolved
        // on (the propagation invariant keeps the asserted literal there).
        let mut start = 0usize;
        loop {
            if hinting {
                if let Some(id) = self.clause_id(conflict) {
                    self.hint_buf.push(id);
                }
            }
            if self.arena.is_learnt(conflict) {
                self.bump_clause(conflict);
            }
            let len = self.arena.len(conflict);
            for k in start..len {
                let q = self.arena.lit(conflict, k);
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        self.learnt_buf.push(q);
                    }
                }
            }
            // Select the next literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                self.learnt_buf[0] = !lit;
                break;
            }
            conflict = self.reason[lit.var().index()];
            debug_assert_ne!(conflict, UNDEF_CLAUSE);
            start = 1;
        }
        self.minimize_learnt();
        // Compute the backtrack level: highest level among learnt[1..].
        if self.learnt_buf.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..self.learnt_buf.len() {
                if self.level[self.learnt_buf[i].var().index()]
                    > self.level[self.learnt_buf[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            self.learnt_buf.swap(1, max_i);
            self.level[self.learnt_buf[1].var().index()]
        }
    }

    /// Bit of `v`'s decision level in a 32-bit level signature.
    #[inline]
    fn abstract_level(&self, v: usize) -> u32 {
        1 << (self.level[v] & 31)
    }

    /// Recursive learned-clause minimization (MiniSat's deep mode).  A
    /// literal of `learnt_buf[1..]` is dropped when every other literal of
    /// its reason is in the clause, at level 0, or itself redundant by the
    /// same rule.  On entry `seen` marks the clause's variables; on exit no
    /// variable is marked.  With a proof attached, the reasons of the
    /// dropped literals and of the redundant literals behind them go to
    /// `hint_buf`, latest on the trail first: replayed in trail order, each
    /// one propagates a literal the next needs.
    fn minimize_learnt(&mut self) {
        self.analyze_toclear.clear();
        self.analyze_toclear
            .extend(self.learnt_buf[1..].iter().map(|l| l.var().index()));
        let original = self.analyze_toclear.len();
        let levels = self.analyze_toclear[..]
            .iter()
            .fold(0, |acc, &v| acc | self.abstract_level(v));
        let mut kept = 1;
        for i in 1..self.learnt_buf.len() {
            let lit = self.learnt_buf[i];
            let v = lit.var().index();
            if self.reason[v] == UNDEF_CLAUSE || !self.lit_redundant(v, levels) {
                self.learnt_buf[kept] = lit;
                kept += 1;
            } else {
                // Past `original`, `analyze_toclear` lists every variable
                // whose reason the shortened clause's derivation uses.
                self.analyze_toclear.push(v);
            }
        }
        let removed = self.learnt_buf.len() - kept;
        self.learnt_buf.truncate(kept);
        self.stats.minimized_literals += removed as u64;
        if removed > 0 && self.proof.is_some() {
            let trail_pos = &self.trail_pos;
            self.analyze_toclear[original..]
                .sort_unstable_by_key(|&v| std::cmp::Reverse(trail_pos[v]));
            for &v in &self.analyze_toclear[original..] {
                if let Some(id) = self.clause_id(self.reason[v]) {
                    self.hint_buf.push(id);
                }
            }
        }
        for &v in &self.analyze_toclear {
            self.seen[v] = false;
        }
    }

    /// Whether the literal of `v` in the learned clause is implied by the
    /// clause's other literals.  The reasons are walked depth first; every
    /// variable found redundant stays marked in `seen` (and is recorded in
    /// `analyze_toclear`), so later queries stop there.  A failed query
    /// unmarks what it marked.  `levels` is the clause's level signature: a
    /// literal at a level outside it cannot be implied by the clause.
    fn lit_redundant(&mut self, v: usize, levels: u32) -> bool {
        let top = self.analyze_toclear.len();
        self.analyze_stack.clear();
        self.analyze_stack.push(v);
        while let Some(u) = self.analyze_stack.pop() {
            let reason = self.reason[u];
            // Position 0 holds `u`'s own literal.
            for k in 1..self.arena.len(reason) {
                let w = self.arena.lit(reason, k).var().index();
                if self.seen[w] || self.level[w] == 0 {
                    continue;
                }
                if self.reason[w] == UNDEF_CLAUSE || self.abstract_level(w) & levels == 0 {
                    for &marked in &self.analyze_toclear[top..] {
                        self.seen[marked] = false;
                    }
                    self.analyze_toclear.truncate(top);
                    return false;
                }
                self.seen[w] = true;
                self.analyze_stack.push(w);
                self.analyze_toclear.push(w);
            }
        }
        true
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.decision_level() > level {
            let start = self
                .trail_lim
                .pop()
                .expect("non-root level has a trail mark");
            for i in (start..self.trail.len()).rev() {
                let var = self.trail[i].var().index();
                self.vals[var] = VAL_UNDEF;
                self.reason[var] = UNDEF_CLAUSE;
                if self.use_heap {
                    self.heap.insert(var, &self.activity);
                }
            }
            self.trail.truncate(start);
        }
        // Never advance qhead past a pending (unpropagated) entry: root
        // units enqueued by `add_clause_dynamic` between rounds sit below
        // the trail end and must still be propagated by the next search.
        self.qhead = self.qhead.min(self.trail.len());
        self.static_cursor = 0;
    }

    /// Records the clause accumulated in `learnt_buf` and asserts its first
    /// literal.  SATO's length bound is enforced here: an oversize clause is
    /// still needed as the reason of the backjump assertion, so it is kept
    /// but queued for deletion as soon as it is no longer locked.
    fn learn_clause(&mut self) {
        let lemma = self.proof_log_learnt();
        if self.learnt_buf.len() == 1 {
            let lit = self.learnt_buf[0];
            self.enqueue(lit, UNDEF_CLAUSE);
            return;
        }
        let _mem_scope = velv_obs::MemScope::enter("sat.learnts");
        let cref = self.arena.alloc(&self.learnt_buf, true);
        self.arena.set_activity(cref, self.cla_inc);
        if let Some(id) = lemma {
            self.lemma_ids.insert(cref, id);
        }
        let asserting = self.learnt_buf[0];
        let second = self.learnt_buf[1];
        self.watch(asserting, cref, second);
        self.watch(second, cref, asserting);
        self.learnt_refs.push(cref);
        self.num_learnts += 1;
        self.stats.learned_clauses = self.num_learnts as u64;
        if let Some(limit) = self.config.max_learnt_len {
            if self.learnt_buf.len() > limit {
                self.oversize.push(cref);
            }
        }
        self.enqueue(asserting, cref);
    }

    /// A clause is locked while it is the reason of its asserted first
    /// literal — an O(1) check against the `reason` array.
    #[inline]
    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.arena.lit(cref, 0);
        self.value_lit(first) == VAL_TRUE && self.reason[first.var().index()] == cref
    }

    fn delete_clause(&mut self, cref: ClauseRef) {
        debug_assert!(!self.is_locked(cref));
        self.proof_log_delete(cref);
        if self.arena.is_learnt(cref) {
            self.lemma_ids.remove(&cref);
            self.num_learnts -= 1;
            self.stats.learned_clauses = self.num_learnts as u64;
        }
        self.arena.delete(cref);
    }

    /// Deletes queued oversize learned clauses (SATO length bound) as soon as
    /// they stop being locked, keeping the live learned set bounded even for
    /// presets that never run full database reduction.  The arena is
    /// compacted by the same waste-ratio rule as after a reduction, whether
    /// or not some oversize clause is still locked.
    fn purge_oversize(&mut self) {
        if self.oversize.is_empty() {
            return;
        }
        let mut kept = 0;
        for i in 0..self.oversize.len() {
            let cref = self.oversize[i];
            if self.arena.is_deleted(cref) {
                continue; // already removed by database reduction
            }
            if self.is_locked(cref) {
                self.oversize[kept] = cref;
                kept += 1;
            } else {
                self.delete_clause(cref);
            }
        }
        self.oversize.truncate(kept);
        self.compact_if_needed();
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.cla_inc /= self.config.clause_decay as f32;
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        // Random decisions: bounded rejection sampling against the current
        // assignment — no scratch list of all unassigned variables.
        if self.num_vars > 0
            && self.config.random_decision_freq > 0.0
            && self.rng.gen_f64() < self.config.random_decision_freq
        {
            for _ in 0..16 {
                let v = self.rng.gen_range(0..self.num_vars);
                if self.is_unassigned(v) {
                    return Some(Lit::new(Var::new(v as u32), self.phase[v]));
                }
            }
            // Densely assigned: fall through to the heuristic.
        }
        // BerkMin: branch inside the most recent unsatisfied learned clause.
        if self.config.clause_based_decisions {
            // Scan only the most recent learned clauses, as BerkMin does.
            for idx in (self.learnt_refs.len().saturating_sub(512)..self.learnt_refs.len()).rev() {
                let cref = self.learnt_refs[idx];
                if self.arena.is_deleted(cref) {
                    continue;
                }
                let len = self.arena.len(cref);
                let mut satisfied = false;
                let mut best: Option<(f64, Lit)> = None;
                for k in 0..len {
                    let l = self.arena.lit(cref, k);
                    match self.value_lit(l) {
                        VAL_TRUE => {
                            satisfied = true;
                            break;
                        }
                        VAL_FALSE => {}
                        _ => {
                            let act = self.activity[l.var().index()];
                            if best.is_none_or(|(b, _)| act > b) {
                                best = Some((act, l));
                            }
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                if let Some((_, lit)) = best {
                    return Some(lit);
                }
            }
        }
        if self.config.static_order {
            while self.static_cursor < self.num_vars {
                let v = self.static_cursor;
                if self.is_unassigned(v) {
                    return Some(Lit::new(Var::new(v as u32), self.phase[v]));
                }
                self.static_cursor += 1;
            }
            return None;
        }
        // VSIDS: pop until an unassigned variable surfaces.  Every unassigned
        // variable is in the heap (re-inserted on backtracking), so an empty
        // heap means a full assignment.
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.is_unassigned(v) {
                return Some(Lit::new(Var::new(v as u32), self.phase[v]));
            }
        }
        debug_assert!(
            (0..self.num_vars).all(|v| !self.is_unassigned(v)),
            "empty decision heap with unassigned variables"
        );
        None
    }

    fn reduce_db(&mut self) {
        if self.num_learnts < self.reduce_limit {
            return;
        }
        // Drop already-dead references, then sort a scratch copy by activity
        // (learnt_refs itself must stay in age order for BerkMin).
        self.learnt_refs.retain(|&c| !self.arena.is_deleted(c));
        let mut by_activity = self.learnt_refs.clone();
        by_activity.sort_by(|&a, &b| {
            self.arena
                .activity(a)
                .partial_cmp(&self.arena.activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let target = self.num_learnts / 2;
        let mut deleted = 0;
        for &cref in &by_activity {
            if deleted >= target {
                break;
            }
            if self.arena.len(cref) <= 2 || self.is_locked(cref) {
                continue;
            }
            self.delete_clause(cref);
            deleted += 1;
        }
        self.learnt_refs.retain(|&c| !self.arena.is_deleted(c));
        self.reduce_limit += self.reduce_limit / 2;
        self.compact_if_needed();
    }

    fn compact_if_needed(&mut self) {
        #[cfg(test)]
        if self.never_compact {
            return;
        }
        // Compact once a fifth of the arena is dead.
        if self.arena.wasted * 5 >= self.arena.data.len().max(1) {
            self.compact_arena();
        }
    }

    /// In-place compaction in three passes: plan every live clause's new
    /// offset in its header, rewrite the watchers, reasons and learned-clause
    /// references (dropping those to dead clauses), then slide the clauses
    /// down.  Clauses keep their address order and the arena its capacity;
    /// no search decision depends on where a clause sits.
    fn compact_arena(&mut self) {
        let _mem_scope = velv_obs::MemScope::enter("sat.arena");
        let saved = self.arena.plan_compaction();
        let arena = &self.arena;
        let moved = |c: &mut ClauseRef| {
            if arena.is_deleted(*c) {
                return false;
            }
            *c = arena.moved_to(*c);
            true
        };
        for watchers in &mut self.watches {
            watchers.retain_mut(|w| moved(&mut w.cref));
        }
        for lit in &self.trail {
            let r = &mut self.reason[lit.var().index()];
            if *r != UNDEF_CLAUSE {
                // Reason clauses are locked, hence live.
                let live = moved(r);
                debug_assert!(live, "a reason clause was deleted");
            }
        }
        self.learnt_refs.retain_mut(|c| moved(c));
        self.oversize.retain_mut(|c| moved(c));
        if !self.lemma_ids.is_empty() {
            // Only live learned clauses have ids; `drain` keeps the table's
            // allocation for the re-keyed entries.
            let rekeyed: Vec<(ClauseRef, ClauseId)> = self
                .lemma_ids
                .drain()
                .map(|(c, id)| (arena.moved_to(c), id))
                .collect();
            self.lemma_ids.extend(rekeyed);
        }
        self.arena.slide_down(&saved);
        #[cfg(test)]
        {
            self.compactions += 1;
        }
        // The fragmentation gauges must follow the compaction immediately,
        // not at the next heartbeat: a monitoring poll between compaction
        // and the next heartbeat would otherwise show stale waste.
        self.obs.publish_arena(&self.arena_figures());
    }

    fn extract_model(&self) -> Model {
        Model::new(
            (0..self.num_vars)
                .map(|v| self.vals[v] == VAL_TRUE)
                .collect(),
        )
    }

    /// How many conflicts or decisions pass between two `Budget::exceeded`
    /// polls: cheap enough to make cancellation prompt (a poll is one atomic
    /// load plus, when a deadline is set, one `Instant::now`), large enough to
    /// keep the check off the per-iteration path.
    const BUDGET_POLL_MASK: u64 = 63;

    /// CDCL search of the current clause database within `budget`.  Step
    /// budgets are counted relative to this call, so each refinement round
    /// runs under what the loop's budget has left.
    fn search(&mut self, budget: Budget) -> SatResult {
        let start_stats = self.stats;
        self.obs.begin_solve(&start_stats);
        let result = self.search_inner(budget);
        let stats = self.stats;
        let trail_depth = self.trail.len();
        let mem = self.arena_figures();
        self.obs
            .end_solve(&stats, trail_depth, self.num_learnts, &mem);
        result
    }

    fn search_inner(&mut self, budget: Budget) -> SatResult {
        if self.unsat {
            // The refutation may predate the proof writer (e.g. a conflicting
            // unit in the initial clauses): make sure it is on record.
            self.proof_log_empty();
            return SatResult::Unsat;
        }
        // Return to the root; `qhead` still covers any units enqueued by
        // `add_clause_dynamic` since the last call, so only genuinely new
        // root facts are propagated (not the whole root trail again).
        self.backtrack_to(0);
        let budget = budget.started();
        let start_conflicts = self.stats.conflicts;
        let start_decisions = self.stats.decisions;
        let mut restart_limit = self.config.restart_interval;
        let mut conflicts_since_restart: u64 = 0;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                let conflict_level = self.decision_level() as usize;
                self.obs.note_conflict(conflict_level);
                if self.decision_level() == 0 {
                    self.unsat = true;
                    self.proof_log_empty();
                    return SatResult::Unsat;
                }
                let backtrack_level = self.analyze(conflict);
                self.backtrack_to(backtrack_level);
                self.learn_clause();
                self.decay_activities();
                if self.config.max_learnt_len.is_some() {
                    self.purge_oversize();
                }
                if let Some(max_conflicts) = budget.max_conflicts {
                    if self.stats.conflicts - start_conflicts >= max_conflicts {
                        return SatResult::Unknown(StopReason::ConflictLimit);
                    }
                }
                if self.stats.conflicts & Self::BUDGET_POLL_MASK == 0 {
                    if let Some(reason) = budget.exceeded() {
                        return SatResult::Unknown(reason);
                    }
                }
                if self.stats.conflicts & crate::obs::HEARTBEAT_MASK == 0 {
                    let stats = self.stats;
                    let trail_depth = self.trail.len();
                    let decision_level = self.decision_level() as usize;
                    let mem = self.arena_figures();
                    self.obs
                        .heartbeat(&stats, trail_depth, decision_level, self.num_learnts, &mem);
                }
                if self.config.db_reduction {
                    self.reduce_db();
                }
            } else {
                // No conflict: maybe restart, otherwise decide.
                if let Some(limit) = restart_limit {
                    if conflicts_since_restart >= limit {
                        conflicts_since_restart = 0;
                        restart_limit =
                            Some(((limit as f64) * self.config.restart_multiplier).ceil() as u64);
                        self.stats.restarts += 1;
                        self.backtrack_to(0);
                        continue;
                    }
                }
                match self.pick_branch_lit() {
                    None => return SatResult::Sat(self.extract_model()),
                    Some(lit) => {
                        self.stats.decisions += 1;
                        if let Some(max_decisions) = budget.max_decisions {
                            if self.stats.decisions - start_decisions >= max_decisions {
                                return SatResult::Unknown(StopReason::DecisionLimit);
                            }
                        }
                        if self.stats.decisions & Self::BUDGET_POLL_MASK == 0 {
                            if let Some(reason) = budget.exceeded() {
                                return SatResult::Unknown(reason);
                            }
                        }
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(lit, UNDEF_CLAUSE);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::verify_model;

    fn lit(i: i64) -> Lit {
        Lit::from_dimacs(i)
    }

    fn cnf_of(clauses: &[&[i64]]) -> CnfFormula {
        let mut cnf = CnfFormula::new(0);
        for c in clauses {
            cnf.add_clause(&c.iter().map(|&i| lit(i)).collect::<Vec<_>>());
        }
        cnf
    }

    use crate::generators::pigeonhole;

    #[test]
    fn compaction_drops_wasted_to_zero_and_the_gauge_follows() {
        // A unique preset name keys a private gauge family on the global
        // registry, so parallel tests cannot disturb the readings.
        let mut config = CdclConfig::chaff();
        config.name = "gc-gauge-test".to_owned();
        let cnf = cnf_of(&[&[1, 2], &[2, 3], &[3, 4]]);
        let mut engine = Engine::new(&cnf, config);

        // Manufacture fragmentation: allocate unattached clauses straight
        // into the arena and delete them all.
        let extra: Vec<ClauseRef> = (0..64)
            .map(|_| engine.arena.alloc(&[lit(1), lit(2), lit(3)], true))
            .collect();
        for cref in extra {
            engine.arena.delete(cref);
        }
        assert!(engine.arena.wasted > 0);
        engine.obs.publish_arena(&engine.arena_figures());

        let labels: &[(&str, &str)] = &[("preset", "gc-gauge-test")];
        let snapshot = velv_obs::global().snapshot();
        let wasted = snapshot
            .get("velv_sat_arena_wasted_words", labels)
            .expect("wasted gauge registered");
        assert_eq!(
            wasted.value.as_u64(),
            Some(engine.arena.wasted as u64),
            "gauge tracks live fragmentation"
        );

        let capacity = engine.arena.data.capacity();
        engine.compact_arena();
        assert_eq!(engine.arena.wasted, 0, "compaction leaves no waste");
        assert_eq!(engine.arena.data.capacity(), capacity, "capacity is kept");

        // `compact_arena` republished the gauges itself — no heartbeat
        // needed for the registry to follow the compaction.
        let snapshot = velv_obs::global().snapshot();
        let wasted = snapshot
            .get("velv_sat_arena_wasted_words", labels)
            .expect("wasted gauge registered");
        assert_eq!(wasted.value.as_u64(), Some(0));
        let len = snapshot
            .get("velv_sat_arena_len_words", labels)
            .expect("len gauge registered");
        assert_eq!(len.value.as_u64(), Some(engine.arena.len_words() as u64));
        let bytes = snapshot
            .get("velv_sat_arena_bytes", labels)
            .expect("arena bytes gauge registered");
        use velv_obs::MemFootprint as _;
        assert_eq!(
            bytes.value.as_u64(),
            Some(engine.arena.measured_bytes() as u64)
        );
    }

    /// What a clause reference resolves to: its literals, whether it was
    /// learned, and its second header word (input id or activity).
    type Resolved = (Vec<Lit>, bool, u32);

    fn resolve(engine: &Engine, c: ClauseRef) -> Resolved {
        let lits = (0..engine.arena.len(c))
            .map(|k| engine.arena.lit(c, k))
            .collect();
        let word = engine.arena.data[c as usize + 1];
        (lits, engine.arena.is_learnt(c), word)
    }

    /// Every live reference the engine holds, resolved, in a fixed order.
    struct References {
        /// Per literal, each watcher's clause and blocker.
        watchers: Vec<Vec<(Resolved, Lit)>>,
        /// Each trail literal with a reason, and that reason.
        reasons: Vec<(Lit, Resolved)>,
        /// Each learned clause with its proof id.
        learnts: Vec<(Resolved, Option<ClauseId>)>,
        oversize: Vec<Resolved>,
    }

    fn resolved_references(engine: &Engine) -> References {
        let live = |c: &ClauseRef| !engine.arena.is_deleted(*c);
        References {
            watchers: engine
                .watches
                .iter()
                .map(|ws| {
                    ws.iter()
                        .filter(|w| live(&w.cref))
                        .map(|w| (resolve(engine, w.cref), w.blocker))
                        .collect()
                })
                .collect(),
            reasons: engine
                .trail
                .iter()
                .filter(|l| engine.reason[l.var().index()] != UNDEF_CLAUSE)
                .map(|&l| (l, resolve(engine, engine.reason[l.var().index()])))
                .collect(),
            learnts: engine
                .learnt_refs
                .iter()
                .filter(|c| live(c))
                .map(|&c| (resolve(engine, c), engine.lemma_ids.get(&c).copied()))
                .collect(),
            oversize: engine
                .oversize
                .iter()
                .filter(|c| live(c))
                .map(|&c| resolve(engine, c))
                .collect(),
        }
    }

    #[test]
    fn compaction_keeps_capacity_and_every_reference() {
        // Stop a proof-logging search mid-flight, so the trail holds reasons
        // and every learned clause has a proof id; then delete every other
        // unlocked learned clause and compact.
        let cnf = pigeonhole(8);
        let mut engine = Engine::new(&cnf, CdclConfig::chaff());
        engine.set_proof(SharedProof::new());
        let stopped = engine.search(Budget {
            max_conflicts: Some(3_000),
            ..Budget::default()
        });
        assert_eq!(stopped, SatResult::Unknown(StopReason::ConflictLimit));
        assert!(engine.decision_level() > 0, "stopped inside the search");
        let learnts: Vec<ClauseRef> = engine
            .learnt_refs
            .iter()
            .copied()
            .filter(|&c| !engine.arena.is_deleted(c))
            .collect();
        for &c in learnts.iter().step_by(2) {
            if !engine.is_locked(c) {
                engine.delete_clause(c);
            }
        }
        assert!(engine.arena.wasted > 0);
        let before = resolved_references(&engine);
        assert!(before.reasons.len() > 10, "the trail carries reasons");
        assert!(before.learnts.iter().all(|(_, id)| id.is_some()));
        let capacity = engine.arena.data.capacity();
        let live_words = engine.arena.len_words() - engine.arena.wasted;

        engine.compact_arena();

        assert_eq!(engine.arena.data.capacity(), capacity, "capacity is kept");
        assert_eq!(engine.arena.len_words(), live_words);
        assert_eq!(engine.arena.wasted, 0);
        let after = resolved_references(&engine);
        assert_eq!(after.watchers, before.watchers);
        assert_eq!(after.reasons, before.reasons);
        assert_eq!(after.learnts, before.learnts);
        assert_eq!(after.oversize, before.oversize);
        assert_eq!(engine.lemma_ids.len(), after.learnts.len());
        // The search goes on soundly from the compacted arena.
        assert!(engine.search(Budget::default()).is_unsat());
    }

    #[test]
    fn compaction_leaves_the_chaff_search_unchanged() {
        // PHP(9, 8) under chaff compacts the arena twice on its way to the
        // refutation.  An engine that never compacts takes the very same
        // search: no decision depends on clause addresses.
        let mut compacting = Engine::new(&pigeonhole(8), CdclConfig::chaff());
        assert!(compacting.search(Budget::default()).is_unsat());
        assert!(
            compacting.compactions >= 2,
            "{} compactions",
            compacting.compactions
        );
        let mut reference = Engine::new(&pigeonhole(8), CdclConfig::chaff());
        reference.never_compact = true;
        assert!(reference.search(Budget::default()).is_unsat());
        assert_eq!(reference.compactions, 0);
        assert!(
            reference.arena.wasted > 0,
            "the reference keeps its garbage"
        );
        let counters = |e: &Engine| {
            (
                e.stats.conflicts,
                e.stats.decisions,
                e.stats.propagations,
                e.stats.minimized_literals,
            )
        };
        assert_eq!(counters(&compacting), counters(&reference));
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let sat = cnf_of(&[&[1, 2], &[-1, 2], &[-2, 3]]);
        let unsat = cnf_of(&[&[1], &[-1]]);
        for mut solver in [
            CdclSolver::chaff(),
            CdclSolver::berkmin(),
            CdclSolver::grasp(),
            CdclSolver::sato(),
        ] {
            match solver.solve(&sat) {
                SatResult::Sat(model) => assert!(verify_model(&sat, &model)),
                other => panic!("{}: expected SAT, got {other:?}", solver.name()),
            }
            assert!(solver.solve(&unsat).is_unsat(), "{}", solver.name());
        }
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = CnfFormula::new(1);
        cnf.add_clause(&[]);
        assert!(CdclSolver::chaff().solve(&cnf).is_unsat());
    }

    #[test]
    fn empty_formula_is_sat() {
        let cnf = CnfFormula::new(3);
        assert!(CdclSolver::chaff().solve(&cnf).is_sat());
    }

    #[test]
    fn pigeonhole_is_unsat_for_all_presets() {
        let cnf = pigeonhole(4);
        for mut solver in [
            CdclSolver::chaff(),
            CdclSolver::berkmin(),
            CdclSolver::grasp(),
            CdclSolver::sato(),
        ] {
            assert!(solver.solve(&cnf).is_unsat(), "{}", solver.name());
            assert!(solver.stats().conflicts > 0);
        }
    }

    #[test]
    fn solves_chained_implications() {
        // x1 -> x2 -> ... -> x50, x1 forced true, all must be true.
        let n = 50;
        let mut cnf = CnfFormula::new(n);
        cnf.add_clause(&[Lit::positive(Var::new(0))]);
        for i in 0..n - 1 {
            cnf.add_clause(&[
                Lit::negative(Var::new(i as u32)),
                Lit::positive(Var::new((i + 1) as u32)),
            ]);
        }
        let mut solver = CdclSolver::chaff();
        match solver.solve(&cnf) {
            SatResult::Sat(model) => {
                for i in 0..n {
                    assert!(model.value(Var::new(i as u32)));
                }
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn random_3sat_models_are_verified() {
        use crate::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(7);
        for instance in 0..10 {
            let num_vars = 30;
            let num_clauses = 90; // below the phase transition, very likely SAT
            let mut cnf = CnfFormula::new(num_vars);
            for _ in 0..num_clauses {
                let mut clause = Vec::new();
                while clause.len() < 3 {
                    let v = rng.gen_range(0..num_vars) as u32;
                    let sign = rng.gen_bool(0.5);
                    let l = Lit::new(Var::new(v), sign);
                    if !clause.contains(&l) && !clause.contains(&!l) {
                        clause.push(l);
                    }
                }
                cnf.add_clause(&clause);
            }
            let mut solver = CdclSolver::chaff();
            if let SatResult::Sat(model) = solver.solve(&cnf) {
                assert!(verify_model(&cnf, &model), "instance {instance}");
            }
        }
    }

    #[test]
    fn conflict_budget_is_respected() {
        let cnf = pigeonhole(7);
        let mut solver = CdclSolver::chaff();
        let result = solver.solve_with_budget(
            &cnf,
            Budget {
                max_conflicts: Some(5),
                ..Budget::default()
            },
        );
        assert_eq!(result, SatResult::Unknown(StopReason::ConflictLimit));
        assert!(solver.stats().conflicts <= 6);
    }

    #[test]
    fn presets_report_distinct_names() {
        assert_eq!(CdclSolver::chaff().name(), "chaff");
        assert_eq!(CdclSolver::berkmin().name(), "berkmin");
        assert_eq!(CdclSolver::grasp().name(), "grasp");
        assert_eq!(CdclSolver::sato().name(), "sato");
        let varied = CdclSolver::chaff_with(|cfg| {
            cfg.restart_interval = Some(3000);
            cfg.name = "chaff-r3000".to_owned();
        });
        assert_eq!(varied.name(), "chaff-r3000");
        assert_eq!(varied.config().restart_interval, Some(3000));
    }

    #[test]
    fn sato_length_bound_keeps_live_learned_clauses_bounded() {
        // SATO's length bound is enforced at learn time: an oversize clause
        // survives only while it is locked (the reason of its backjump
        // assertion), and every locked clause is pinned by a distinct
        // assigned variable.  With a bound of 1 every stored learned clause
        // is oversize, so the live set can never exceed the variable count —
        // while the conflict count runs far past it.
        let mut config = CdclConfig::sato();
        config.name = "sato-tight".to_owned();
        config.max_learnt_len = Some(1);
        let cnf = pigeonhole(6);
        let mut solver = CdclSolver::new(config);
        let _ = solver.solve_with_budget(&cnf, Budget::step_limit(3_000));
        let stats = solver.stats();
        assert!(stats.conflicts > 100, "expected a real search");
        assert!(
            stats.learned_clauses <= cnf.num_vars() as u64,
            "live learned clauses not bounded: {} after {} conflicts",
            stats.learned_clauses,
            stats.conflicts,
        );
        // The regular SATO preset still decides the instance correctly.
        assert!(CdclSolver::sato().solve(&pigeonhole(4)).is_unsat());
    }

    #[test]
    fn database_reduction_and_gc_preserve_verdicts() {
        // A long chaff run on PHP(9, 8) crosses the reduction threshold
        // several times, forcing clause deletion and arena compaction; the
        // search must stay sound through both.
        let big = pigeonhole(8);
        let mut solver = CdclSolver::chaff();
        let result = solver.solve_with_budget(&big, Budget::step_limit(30_000));
        assert!(
            !result.is_sat(),
            "PHP(9,8) is unsatisfiable, got {result:?}"
        );
        assert!(CdclSolver::chaff().solve(&pigeonhole(5)).is_unsat());
    }
}
