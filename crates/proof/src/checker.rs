//! A forward RUP checker for DRAT proofs, with deletion handling and backward
//! trimming.
//!
//! The checker maintains its own clause database over DIMACS-coded `i32`
//! literals with a small two-watched-literal propagation core — written from
//! scratch, sharing nothing with the `velv_sat` solver whose proofs it audits.
//!
//! **Forward checking.**  The input clauses are installed and propagated to a
//! root fixpoint.  Each `Add` step is verified by *reverse unit propagation*:
//! the negations of the step's literals are asserted on top of the root trail
//! and unit propagation must derive a conflict; the clause is then installed
//! permanently (so later steps may use it) and any unit it contributes is
//! propagated at the root.  `Delete` steps remove the matching clause — found
//! through an order-independent hash of its literal set — except when it is
//! currently the reason of a root-level assignment (solvers may delete
//! clauses the checker still relies on; such deletions are counted and
//! ignored, the standard DRAT-checker behaviour).
//!
//! **Hints.**  When an `Add` step carries antecedent hints
//! ([`Proof::hints`]), the checker first propagates just the hinted clauses,
//! in the order given, over the asserted negation: a hinted clause with one
//! open literal assigns it, one with none is the conflict.  Hints only
//! choose which live clauses to propagate first.  A hint naming no live
//! clause of the checker's own database is skipped, and every hinted clause
//! is evaluated by the checker itself, so each assignment is a unit
//! implication full propagation would make too.  When the hints reach no
//! conflict, their assignments are undone and the step is checked by full
//! propagation, exactly as without hints.  Hints therefore never change
//! which proofs are accepted or at which step one is rejected; they save the
//! search.  [`CheckReport`] counts the additions settled by hints and the
//! fallbacks.
//!
//! Every accepted addition is therefore a *logical consequence* of the input
//! clauses — this checker verifies pure RUP proofs and does not accept RAT
//! steps, which only preserve satisfiability.  A verified proof whose terminal
//! step is the empty clause certifies unsatisfiability.
//!
//! **Backward trimming.**  With [`CheckOptions::trim`] the checker records,
//! for each verified step, the clauses participating in its conflict cone,
//! then walks the proof backwards from the last addition step marking what
//! was actually used.  The report lists the used input clauses (the core) and how
//! many proof steps survive the trim.

use crate::drat::{ClauseId, Proof, ProofStep};
use std::collections::HashMap;

/// Options of a [`check_proof`] run.
#[derive(Clone, Debug, Default)]
pub struct CheckOptions {
    /// Backward-trim the verified proof: report which input clauses and which
    /// proof steps the last addition step actually depends on.  Costs extra
    /// memory (one antecedent list per addition step).
    pub trim: bool,
}

/// Result of a successful [`check_proof`] run.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Number of verified addition steps.
    pub additions: usize,
    /// Additions verified by propagating their antecedent hints alone.
    pub hinted_additions: usize,
    /// Additions whose hints (if any) did not reach a conflict, so the
    /// checker fell back to full unit propagation.  The remaining additions
    /// were trivial: the database was already contradictory, or the clause
    /// was satisfied by the root assignment or a tautology.
    pub hint_fallbacks: usize,
    /// Literals the checker assigned by unit propagation: at the root, while
    /// following hints, and in full RUP checks.  Deterministic for a given
    /// CNF and proof.
    pub propagations: u64,
    /// Number of processed deletion steps.
    pub deletions: usize,
    /// Deletions that were ignored because no matching live clause existed or
    /// the clause was the reason of a root-level assignment.
    pub ignored_deletions: usize,
    /// Whether the proof derives the empty clause (the formula is
    /// unsatisfiable outright).
    pub derived_empty: bool,
    /// Indices of the input clauses used by the trimmed proof
    /// (only with [`CheckOptions::trim`]).
    pub input_core: Option<Vec<usize>>,
    /// Number of addition steps that survive backward trimming
    /// (only with [`CheckOptions::trim`]).
    pub trimmed_additions: Option<usize>,
}

/// Why a proof was rejected.
#[derive(Clone, Debug)]
pub enum CheckError {
    /// The addition at `step` is not RUP: asserting the negation of its
    /// literals and propagating did not produce a conflict.
    StepNotRup {
        /// Index of the offending step in the proof.
        step: usize,
        /// The clause that failed the check.
        clause: Vec<i32>,
    },
    /// A step mentions literal 0, which is not a literal.
    ZeroLiteral {
        /// Index of the offending step in the proof.
        step: usize,
    },
    /// An input clause mentions literal 0, which is not a literal.
    InputZeroLiteral {
        /// Index of the offending input clause.
        clause: usize,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::StepNotRup { step, clause } => {
                write!(f, "proof step {step} is not RUP: {clause:?}")
            }
            CheckError::ZeroLiteral { step } => {
                write!(f, "proof step {step} contains literal 0")
            }
            CheckError::InputZeroLiteral { clause } => {
                write!(f, "input clause {clause} contains literal 0")
            }
        }
    }
}

impl std::error::Error for CheckError {}

const NO_REASON: usize = usize::MAX;
/// Reason marker for literals asserted during a RUP check.
const ASSUMED: usize = usize::MAX - 1;
/// End of a same-key chain of the deletion lookup.
const NO_CLAUSE: u32 = u32::MAX;

/// Watch-list index of a literal: `2·(|lit| − 1) + (lit < 0)`.
fn code(lit: i32) -> usize {
    let var = lit.unsigned_abs() as usize - 1;
    2 * var + usize::from(lit < 0)
}

fn var_index(lit: i32) -> usize {
    lit.unsigned_abs() as usize - 1
}

/// Order-independent hash of a literal multiset: the wrapping sum of one
/// mixed word per literal, so a clause and any permutation of it share a key.
fn lit_set_key(lits: &[i32]) -> u64 {
    lits.iter().fold(0u64, |key, &lit| {
        // The SplitMix64 finalizer: adjacent literals get unrelated words.
        let mut z = (lit as i64 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        key.wrapping_add(z ^ (z >> 31))
    })
}

/// One clause of the database; its literals live in [`Checker::lits`].
struct ClauseEntry {
    start: u32,
    len: u32,
    /// The next live clause with the same literal-set key, newest first.
    next_same_key: u32,
    deleted: bool,
}

/// How a RUP check succeeded.
enum Verified {
    /// The database was already contradictory, or the clause was satisfied
    /// by the root assignment or a tautology.
    Trivially,
    /// Propagating the step's hints reached a conflict.
    ByHints,
    /// Full unit propagation reached a conflict.
    ByPropagation,
}

/// The checker state: clause database, watches, root-persistent assignment.
struct Checker {
    clauses: Vec<ClauseEntry>,
    /// The literals of every clause, back to back.
    lits: Vec<i32>,
    /// Input clauses come first: lemma `k` is clause `num_inputs + k`.
    num_inputs: usize,
    watches: Vec<Vec<usize>>,
    /// Per variable: 0 unassigned, 1 true, -1 false.
    assign: Vec<i8>,
    /// Per variable: clause id that propagated it, [`ASSUMED`] or [`NO_REASON`].
    reason: Vec<usize>,
    trail: Vec<i32>,
    qhead: usize,
    /// Literals assigned so far, by any propagation.
    propagations: u64,
    /// The database is contradictory at the root: every further step is a
    /// trivial consequence.
    root_conflict: bool,
    /// Clause ids participating in the root conflict, for trimming.
    root_conflict_cone: Vec<usize>,
    /// Scratch stamps for conflict-cone collection, per variable.
    seen: Vec<bool>,
    /// Newest live clause per literal-set key, for deletions.
    by_key: HashMap<u64, u32>,
    trim: bool,
}

impl Checker {
    fn new(trim: bool) -> Self {
        Checker {
            clauses: Vec::new(),
            lits: Vec::new(),
            num_inputs: 0,
            watches: Vec::new(),
            assign: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            qhead: 0,
            propagations: 0,
            root_conflict: false,
            root_conflict_cone: Vec::new(),
            seen: Vec::new(),
            by_key: HashMap::new(),
            trim,
        }
    }

    fn ensure_var(&mut self, lit: i32) {
        let v = var_index(lit);
        if v >= self.assign.len() {
            self.assign.resize(v + 1, 0);
            self.reason.resize(v + 1, NO_REASON);
            self.seen.resize(v + 1, false);
            self.watches.resize_with(2 * (v + 1), Vec::new);
        }
    }

    /// The literals of clause `cid`.
    fn clause(&self, cid: usize) -> &[i32] {
        let entry = &self.clauses[cid];
        &self.lits[entry.start as usize..(entry.start + entry.len) as usize]
    }

    #[inline]
    fn lit(&self, cid: usize, k: usize) -> i32 {
        self.lits[self.clauses[cid].start as usize + k]
    }

    #[inline]
    fn swap_lits(&mut self, cid: usize, i: usize, j: usize) {
        let start = self.clauses[cid].start as usize;
        self.lits.swap(start + i, start + j);
    }

    fn value(&self, lit: i32) -> i8 {
        let a = self.assign[var_index(lit)];
        if lit < 0 {
            -a
        } else {
            a
        }
    }

    fn assign(&mut self, lit: i32, reason: usize) {
        let v = var_index(lit);
        debug_assert_eq!(self.assign[v], 0);
        self.assign[v] = if lit > 0 { 1 } else { -1 };
        self.reason[v] = reason;
        self.trail.push(lit);
        self.propagations += 1;
    }

    /// Unassigns every trail literal from position `mark` on.
    fn undo_to(&mut self, mark: usize) {
        for i in (mark..self.trail.len()).rev() {
            let v = var_index(self.trail[i]);
            self.assign[v] = 0;
            self.reason[v] = NO_REASON;
        }
        self.trail.truncate(mark);
        self.qhead = self.qhead.min(mark);
    }

    /// Unit propagation; returns the conflicting clause id, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = -p;
            let widx = code(false_lit);
            let mut i = 0;
            let mut keep = 0;
            let mut conflict = None;
            'watchers: while i < self.watches[widx].len() {
                let cid = self.watches[widx][i];
                i += 1;
                if self.clauses[cid].deleted {
                    continue;
                }
                // Establish the invariant: the falsified watch sits at index 1.
                if self.lit(cid, 0) == false_lit {
                    self.swap_lits(cid, 0, 1);
                }
                let first = self.lit(cid, 0);
                if self.value(first) > 0 {
                    self.watches[widx][keep] = cid;
                    keep += 1;
                    continue;
                }
                // Look for a replacement watch.
                for k in 2..self.clauses[cid].len as usize {
                    let candidate = self.lit(cid, k);
                    if self.value(candidate) >= 0 {
                        self.swap_lits(cid, 1, k);
                        self.watches[code(candidate)].push(cid);
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                self.watches[widx][keep] = cid;
                keep += 1;
                if self.value(first) < 0 {
                    while i < self.watches[widx].len() {
                        self.watches[widx][keep] = self.watches[widx][i];
                        i += 1;
                        keep += 1;
                    }
                    conflict = Some(cid);
                    break;
                }
                self.assign(first, cid);
            }
            self.watches[widx].truncate(keep);
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// The database clause a hint names, if it names a live one.  Hints come
    /// from the untrusted solver: an id out of range or of a deleted clause
    /// is skipped, never trusted.
    fn resolve(&self, hint: ClauseId) -> Option<usize> {
        let cid = match (hint.as_input(), hint.as_lemma()) {
            (Some(index), _) if index < self.num_inputs => index,
            (_, Some(index)) => self.num_inputs.checked_add(index)?,
            _ => return None,
        };
        (cid < self.clauses.len() && !self.clauses[cid].deleted).then_some(cid)
    }

    /// Propagates the hinted clauses alone, in order, on top of the asserted
    /// negation of a step: each hint is evaluated under the current
    /// assignment, and a unit one assigns its open literal.  Returns the
    /// first hinted clause falsified outright.  Every assignment made here
    /// is a unit implication of a live database clause, so a conflict found
    /// this way is one full propagation would find too.
    fn propagate_hints(&mut self, hints: &[ClauseId]) -> Option<usize> {
        for &hint in hints {
            let Some(cid) = self.resolve(hint) else {
                continue;
            };
            let mut open = 0usize;
            let mut unit = 0i32;
            for &lit in self.clause(cid) {
                match self.value(lit) {
                    1 => {
                        open = 2; // satisfied: propagates nothing
                        break;
                    }
                    0 if lit != unit => {
                        open += 1;
                        unit = lit;
                        if open > 1 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            match open {
                0 => return Some(cid),
                1 => self.assign(unit, cid),
                _ => {}
            }
        }
        None
    }

    /// Collects the clause ids in the conflict cone: the conflicting clause
    /// (or root-true literal) plus, transitively, the reasons of every
    /// falsified literal involved.  Only runs when trimming is enabled.
    fn conflict_cone(&mut self, seed: ConeSeed) -> Vec<usize> {
        if !self.trim {
            return Vec::new();
        }
        let mut cone = Vec::new();
        let mut stack: Vec<usize> = Vec::new(); // variable indices to expand
        match seed {
            ConeSeed::Clause(cid) => {
                cone.push(cid);
                for k in 0..self.clauses[cid].len as usize {
                    let v = var_index(self.lit(cid, k));
                    if !self.seen[v] {
                        self.seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            ConeSeed::TrueLiteral(lit) => {
                let v = var_index(lit);
                self.seen[v] = true;
                stack.push(v);
            }
        }
        let mut cleanup = stack.clone();
        while let Some(v) = stack.pop() {
            let r = self.reason[v];
            if r == NO_REASON || r == ASSUMED {
                continue;
            }
            cone.push(r);
            for k in 0..self.clauses[r].len as usize {
                let w = var_index(self.lit(r, k));
                if !self.seen[w] {
                    self.seen[w] = true;
                    stack.push(w);
                    cleanup.push(w);
                }
            }
        }
        for v in cleanup {
            self.seen[v] = false;
        }
        cone.sort_unstable();
        cone.dedup();
        cone
    }

    /// RUP check of `lits`: asserting the negation of every literal and
    /// propagating must conflict.  The hints are propagated first; only when
    /// they do not reach a conflict are their assignments undone and the
    /// whole database propagated.  Returns how the check succeeded with the
    /// conflict cone (empty when trimming is off), or `None` when it fails.
    /// The trail is restored to the root fixpoint afterwards.
    fn check_rup(&mut self, lits: &[i32], hints: &[ClauseId]) -> Option<(Verified, Vec<usize>)> {
        if self.root_conflict {
            return Some((Verified::Trivially, self.root_conflict_cone.clone()));
        }
        for &lit in lits {
            self.ensure_var(lit);
        }
        let mark = self.trail.len();
        let mut outcome = None;
        for &lit in lits {
            match self.value(lit) {
                1 => {
                    // The literal is already true: ¬C contradicts the current
                    // trail immediately.
                    let cone = self.conflict_cone(ConeSeed::TrueLiteral(lit));
                    outcome = Some((Verified::Trivially, cone));
                    break;
                }
                -1 => {}
                _ => self.assign(-lit, ASSUMED),
            }
        }
        if outcome.is_none() {
            let assumed = self.trail.len();
            if let Some(conflict) = self.propagate_hints(hints) {
                let cone = self.conflict_cone(ConeSeed::Clause(conflict));
                outcome = Some((Verified::ByHints, cone));
            } else {
                self.undo_to(assumed);
                if let Some(conflict) = self.propagate() {
                    let cone = self.conflict_cone(ConeSeed::Clause(conflict));
                    outcome = Some((Verified::ByPropagation, cone));
                }
            }
        }
        self.undo_to(mark);
        outcome
    }

    /// Installs a clause permanently: copies its literals into the database,
    /// registers watches, propagates any unit it contributes at the root, and
    /// links it for deletion lookup.
    fn install(&mut self, lits: &[i32]) -> usize {
        for &lit in lits {
            self.ensure_var(lit);
        }
        let cid = self.clauses.len();
        let start = u32::try_from(self.lits.len()).expect("checker literal store exceeds u32");
        self.lits.extend_from_slice(lits);
        let key = lit_set_key(lits);
        let next_same_key = self.by_key.insert(key, cid as u32).unwrap_or(NO_CLAUSE);
        self.clauses.push(ClauseEntry {
            start,
            len: lits.len() as u32,
            next_same_key,
            deleted: false,
        });
        if self.root_conflict {
            return cid;
        }
        if lits.is_empty() {
            self.root_conflict = true;
            return cid;
        }
        // Move (up to) two non-false literals to the watch positions.
        let mut front = 0;
        for k in 0..lits.len() {
            if front >= 2 {
                break;
            }
            if self.value(self.lit(cid, k)) >= 0 {
                self.swap_lits(cid, front, k);
                front += 1;
            }
        }
        let first = self.lit(cid, 0);
        if lits.len() >= 2 {
            let second = self.lit(cid, 1);
            self.watches[code(first)].push(cid);
            self.watches[code(second)].push(cid);
        }
        match (front, self.value(first)) {
            (0, _) => {
                // Every literal is false at the root: the database is
                // contradictory from here on.
                self.root_conflict = true;
                self.root_conflict_cone = self.conflict_cone(ConeSeed::Clause(cid));
            }
            (1, 0) => {
                // Exactly one non-false literal, unassigned: a root unit.
                self.assign(first, cid);
                if let Some(conflict) = self.propagate() {
                    self.root_conflict = true;
                    self.root_conflict_cone = self.conflict_cone(ConeSeed::Clause(conflict));
                }
            }
            _ => {}
        }
        cid
    }

    /// Processes a deletion: the newest matching live clause is marked dead
    /// unless it is currently the reason of a root assignment.  A clause
    /// matches when its literals, sorted, equal the deletion's literals
    /// sorted and deduplicated, or sorted verbatim (installation does not
    /// deduplicate).  Returns whether a clause was actually deleted.
    fn delete(&mut self, lits: &[i32]) -> bool {
        let mut target = lits.to_vec();
        target.sort_unstable();
        target.dedup();
        if self.delete_matching(&target) {
            return true;
        }
        if target.len() == lits.len() {
            return false;
        }
        let mut verbatim = lits.to_vec();
        verbatim.sort_unstable();
        self.delete_matching(&verbatim)
    }

    /// Deletes the newest live, non-reason clause whose sorted literals equal
    /// `sorted`, unlinking it from its key chain.
    fn delete_matching(&mut self, sorted: &[i32]) -> bool {
        let key = lit_set_key(sorted);
        let Some(&head) = self.by_key.get(&key) else {
            return false;
        };
        let mut prev = NO_CLAUSE;
        let mut cid = head;
        while cid != NO_CLAUSE {
            let c = cid as usize;
            let next = self.clauses[c].next_same_key;
            // Reasons of root assignments stay alive (the solver may delete
            // clauses the checker's root propagation relied on).
            if self.clauses[c].len as usize == sorted.len() && !self.is_reason(c) {
                let mut candidate = self.clause(c).to_vec();
                candidate.sort_unstable();
                if candidate == sorted {
                    self.clauses[c].deleted = true;
                    if prev != NO_CLAUSE {
                        self.clauses[prev as usize].next_same_key = next;
                    } else if next != NO_CLAUSE {
                        self.by_key.insert(key, next);
                    } else {
                        self.by_key.remove(&key);
                    }
                    return true;
                }
            }
            prev = cid;
            cid = next;
        }
        false
    }

    fn is_reason(&self, cid: usize) -> bool {
        self.clause(cid)
            .iter()
            .any(|&lit| self.value(lit) > 0 && self.reason[var_index(lit)] == cid)
    }
}

enum ConeSeed {
    Clause(usize),
    TrueLiteral(i32),
}

/// Checks `proof` against the clauses of `cnf` (DIMACS-coded literal lists).
///
/// Every `Add` step must be RUP with respect to the clause database at that
/// point of the proof; verified additions join the database, deletions leave
/// it.  An addition's hints ([`Proof::hints`]) name the clauses to propagate
/// first, input clauses by their index in `cnf`; when they do not reach a
/// conflict the step is checked by full propagation, so hints never change
/// which proofs are accepted.  On success the report says whether the empty
/// clause was derived, how many additions the hints settled and, with
/// [`CheckOptions::trim`], which input clauses the terminal step transitively
/// used.
///
/// # Errors
///
/// Returns [`CheckError::StepNotRup`] for the first addition that fails
/// reverse unit propagation, or [`CheckError::ZeroLiteral`] /
/// [`CheckError::InputZeroLiteral`] for a malformed step or input clause.
pub fn check_proof(
    cnf: &[Vec<i32>],
    proof: &Proof,
    options: &CheckOptions,
) -> Result<CheckReport, CheckError> {
    let _span = velv_obs::span_fields(
        "proof.check",
        &[("clauses", cnf.len().into()), ("steps", proof.len().into())],
    );
    velv_obs::global()
        .counter("velv_proof_checks_total", "Proof-checker runs started.")
        .inc();
    let mut checker = Checker::new(options.trim);
    for (index, clause) in cnf.iter().enumerate() {
        if clause.contains(&0) {
            return Err(CheckError::InputZeroLiteral { clause: index });
        }
        checker.install(clause);
    }
    checker.num_inputs = cnf.len();
    // Propagate the input units to the root fixpoint.
    if !checker.root_conflict {
        if let Some(conflict) = checker.propagate() {
            checker.root_conflict = true;
            checker.root_conflict_cone = checker.conflict_cone(ConeSeed::Clause(conflict));
        }
    }
    let mut additions = 0usize;
    let mut hinted_additions = 0usize;
    let mut hint_fallbacks = 0usize;
    let mut deletions = 0usize;
    let mut ignored_deletions = 0usize;
    // Per addition step: (clause id, conflict cone), for trimming.
    let mut step_records: Vec<(usize, Vec<usize>)> = Vec::new();
    for (index, step) in proof.steps().iter().enumerate() {
        if step.lits().contains(&0) {
            return Err(CheckError::ZeroLiteral { step: index });
        }
        match step {
            ProofStep::Add(lits) => {
                let (how, cone) = checker.check_rup(lits, proof.hints(index)).ok_or_else(|| {
                    CheckError::StepNotRup {
                        step: index,
                        clause: lits.clone(),
                    }
                })?;
                match how {
                    Verified::Trivially => {}
                    Verified::ByHints => hinted_additions += 1,
                    Verified::ByPropagation => hint_fallbacks += 1,
                }
                let cid = checker.install(lits);
                additions += 1;
                if options.trim {
                    step_records.push((cid, cone));
                }
            }
            ProofStep::Delete(lits) => {
                deletions += 1;
                if !checker.delete(lits) {
                    ignored_deletions += 1;
                }
            }
        }
    }
    velv_obs::global()
        .counter(
            "velv_proof_steps_total",
            "Proof steps verified (additions and deletions).",
        )
        .add((additions + deletions) as u64);
    let (input_core, trimmed_additions) = if options.trim {
        let num_inputs = cnf.len();
        // Seed the backward pass with the last addition step.
        let mut needed: Vec<bool> = vec![false; checker.clauses.len()];
        let mut trimmed = 0usize;
        if let Some(&(terminal_cid, _)) = step_records.last() {
            needed[terminal_cid] = true;
        }
        for &(cid, ref cone) in step_records.iter().rev() {
            if !needed[cid] {
                continue;
            }
            trimmed += 1;
            for &used in cone {
                needed[used] = true;
            }
        }
        let core: Vec<usize> = (0..num_inputs).filter(|&i| needed[i]).collect();
        (Some(core), Some(trimmed))
    } else {
        (None, None)
    };
    Ok(CheckReport {
        additions,
        hinted_additions,
        hint_fallbacks,
        propagations: checker.propagations,
        deletions,
        ignored_deletions,
        derived_empty: checker.root_conflict,
        input_core,
        trimmed_additions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(cnf: &[Vec<i32>], proof: &Proof) -> Result<CheckReport, CheckError> {
        check_proof(cnf, proof, &CheckOptions::default())
    }

    #[test]
    fn empty_clause_is_rup_for_contradictory_units() {
        let cnf = vec![vec![1], vec![-1]];
        let mut proof = Proof::new();
        proof.add(vec![]);
        let report = check(&cnf, &proof).unwrap();
        assert!(report.derived_empty);
    }

    #[test]
    fn resolution_chain_checks() {
        // (a ∨ b) ∧ (¬a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ ¬b) — classic UNSAT square.
        let cnf = vec![vec![1, 2], vec![-1, 2], vec![1, -2], vec![-1, -2]];
        let mut proof = Proof::new();
        proof.add(vec![2]); // resolvent of the first two clauses: RUP
        proof.add(vec![]);
        let report = check(&cnf, &proof).unwrap();
        assert!(report.derived_empty);
        assert_eq!(report.additions, 2);
    }

    #[test]
    fn non_consequence_is_rejected() {
        let cnf = vec![vec![1, 2]];
        let mut proof = Proof::new();
        proof.add(vec![1]); // not RUP: {¬1} propagates nothing conflicting
        match check(&cnf, &proof) {
            Err(CheckError::StepNotRup { step: 0, .. }) => {}
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn premature_empty_clause_is_rejected() {
        let cnf = vec![vec![1, 2], vec![-1, 2]];
        let mut proof = Proof::new();
        proof.add(vec![]);
        assert!(check(&cnf, &proof).is_err());
    }

    #[test]
    fn deletions_are_applied_and_can_break_later_steps() {
        let cnf = vec![vec![1, 2], vec![-1, 2], vec![1, -2], vec![-1, -2]];
        // Valid with the full database...
        let mut proof = Proof::new();
        proof.add(vec![2]);
        proof.add(vec![]);
        assert!(check(&cnf, &proof).unwrap().derived_empty);
        // ...but deleting a needed clause first invalidates the derivation.
        let mut broken = Proof::new();
        broken.delete(vec![1, 2]);
        broken.add(vec![2]);
        assert!(check(&cnf, &broken).is_err());
    }

    #[test]
    fn deletion_of_unknown_clause_is_ignored() {
        let cnf = vec![vec![1, 2], vec![-1, 2]];
        let mut proof = Proof::new();
        proof.delete(vec![7, 8]);
        proof.add(vec![2]);
        let report = check(&cnf, &proof).unwrap();
        assert_eq!(report.ignored_deletions, 1);
        assert!(!report.derived_empty);
    }

    #[test]
    fn deletion_of_a_root_reason_is_ignored() {
        // Clause [1] forces x1 at the root; deleting it must not unassign x1,
        // or the following steps would wrongly fail.
        let cnf = vec![vec![1], vec![-1, 2], vec![-2]];
        let mut proof = Proof::new();
        proof.delete(vec![1]);
        proof.add(vec![]);
        let report = check(&cnf, &proof).unwrap();
        assert!(report.derived_empty);
        assert_eq!(report.ignored_deletions, 1);
    }

    #[test]
    fn tautological_addition_is_trivially_rup() {
        let cnf = vec![vec![1, 2]];
        let mut proof = Proof::new();
        proof.add(vec![3, -3]);
        assert!(check(&cnf, &proof).is_ok());
    }

    #[test]
    fn non_empty_terminal_clause_checks_without_refuting() {
        // x1 → x2 → x3: the clause ¬x1 ∨ x3 is RUP, and a proof ending there
        // checks without deriving the empty clause.
        let cnf = vec![vec![-1, 2], vec![-2, 3]];
        let mut proof = Proof::new();
        proof.add(vec![-1, 3]);
        let report = check(&cnf, &proof).unwrap();
        assert!(!report.derived_empty);
        assert_eq!(report.additions, 1);
    }

    #[test]
    fn trimming_reports_the_used_input_core() {
        // Clause 3 (x4 ∨ x5) is irrelevant to the contradiction.
        let cnf = vec![vec![1], vec![-1, 2], vec![-2], vec![4, 5]];
        let mut proof = Proof::new();
        proof.add(vec![]);
        let report = check_proof(&cnf, &proof, &CheckOptions { trim: true }).unwrap();
        assert!(report.derived_empty);
        let core = report.input_core.unwrap();
        assert!(
            core.contains(&0) && core.contains(&1) && core.contains(&2),
            "{core:?}"
        );
        assert!(
            !core.contains(&3),
            "irrelevant clause not in core: {core:?}"
        );
        assert_eq!(report.trimmed_additions, Some(1));
    }

    #[test]
    fn trimming_drops_unused_steps() {
        let cnf = vec![vec![1, 2], vec![-1, 2], vec![1, -2], vec![-1, -2]];
        let mut proof = Proof::new();
        proof.add(vec![2]); // needed
        proof.add(vec![2, 1]); // subsumed, never used
        proof.add(vec![]);
        let report = check_proof(&cnf, &proof, &CheckOptions { trim: true }).unwrap();
        assert_eq!(report.additions, 3);
        assert_eq!(report.trimmed_additions, Some(2));
    }

    #[test]
    fn trimming_starts_from_the_last_addition() {
        // Two independent derivations over disjoint clause sets: ¬1 (from
        // clauses 0–1) and then ¬4 (from clauses 2–3).  The trim follows the
        // last addition only, so only the second half is in the core.
        let cnf = vec![vec![-1, 2], vec![-2], vec![-4, 5], vec![-5]];
        let mut proof = Proof::new();
        proof.add(vec![-1]);
        proof.add(vec![-4]);
        let report = check_proof(&cnf, &proof, &CheckOptions { trim: true }).unwrap();
        assert_eq!(report.input_core.unwrap(), vec![2, 3]);
        assert_eq!(report.trimmed_additions, Some(1));
    }

    #[test]
    fn hints_settle_a_step_and_misses_fall_back() {
        // x1 → x2 → x3: ¬x1 ∨ x3 follows from both implications.
        let cnf = vec![vec![-1, 2], vec![-2, 3]];
        let hinted = |hints: &[ClauseId]| {
            let mut proof = Proof::new();
            proof.add_hinted(vec![-1, 3], hints);
            check(&cnf, &proof).unwrap()
        };
        let report = hinted(&[ClauseId::input(0), ClauseId::input(1)]);
        assert_eq!((report.hinted_additions, report.hint_fallbacks), (1, 0));
        // One antecedent short: the hints reach no conflict, full
        // propagation does.
        let report = hinted(&[ClauseId::input(1)]);
        assert_eq!((report.hinted_additions, report.hint_fallbacks), (0, 1));
        // Ids naming no clause are skipped, never trusted.
        let report = hinted(&[ClauseId::input(2), ClauseId::lemma(0)]);
        assert_eq!((report.hinted_additions, report.hint_fallbacks), (0, 1));
        assert!(report.propagations >= 2);
    }

    #[test]
    fn a_hint_naming_a_deleted_clause_is_skipped() {
        // Input 2 duplicates input 0; the deletion takes the newest copy, so
        // a hint naming it misses and the step falls back to input 0.
        let cnf = vec![vec![-1, 2], vec![-2, 3], vec![2, -1]];
        let mut proof = Proof::new();
        proof.delete(vec![-1, 2]);
        proof.add_hinted(vec![-1, 3], &[ClauseId::input(2), ClauseId::input(1)]);
        let report = check(&cnf, &proof).unwrap();
        assert_eq!(report.ignored_deletions, 0);
        assert_eq!((report.hinted_additions, report.hint_fallbacks), (0, 1));
        // A lemma is named by its addition index.
        let mut proof = Proof::new();
        let lemma = proof.add_hinted(vec![-1, 3], &[ClauseId::input(0), ClauseId::input(1)]);
        proof.add_hinted(vec![-1, 3, 4], &[lemma]);
        let report = check(&cnf, &proof).unwrap();
        assert_eq!((report.hinted_additions, report.hint_fallbacks), (2, 0));
    }

    #[test]
    fn a_non_rup_step_is_rejected_whatever_its_hints() {
        let cnf = vec![vec![1, 2]];
        let mut proof = Proof::new();
        proof.add_hinted(vec![1], &[ClauseId::input(0), ClauseId::input(0)]);
        assert!(matches!(
            check(&cnf, &proof),
            Err(CheckError::StepNotRup { step: 0, .. })
        ));
    }

    #[test]
    fn deletion_matches_literal_sets_not_orders() {
        let cnf = vec![vec![1, 2, 3], vec![-1, 2], vec![4, 4, 5]];
        let mut proof = Proof::new();
        proof.delete(vec![3, 1, 2]); // a permutation
        proof.delete(vec![2, -1, 2]); // with a duplicate, matched deduplicated
        proof.delete(vec![5, 4, 4]); // matched verbatim
        proof.delete(vec![1, 2]); // a subset is not a match
        let report = check(&cnf, &proof).unwrap();
        assert_eq!((report.deletions, report.ignored_deletions), (4, 1));
    }

    #[test]
    fn zero_literal_in_an_input_clause_is_rejected() {
        let cnf = vec![vec![1], vec![2, 0]];
        let proof = Proof::new();
        assert!(matches!(
            check(&cnf, &proof),
            Err(CheckError::InputZeroLiteral { clause: 1 })
        ));
    }

    #[test]
    fn zero_literal_is_rejected() {
        let cnf = vec![vec![1]];
        let mut proof = Proof::new();
        proof.add(vec![0]);
        assert!(matches!(
            check(&cnf, &proof),
            Err(CheckError::ZeroLiteral { step: 0 })
        ));
    }
}
