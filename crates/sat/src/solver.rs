//! The common interface of all SAT procedures.

use crate::cnf::{CnfFormula, Var};
use crate::proof::SharedProof;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cooperative cancellation flag.
///
/// Clones share the same flag: raising it on one clone is observed by all
/// others.  Engines poll the flag from their hot loops (every few hundred
/// steps, so the check is a single relaxed atomic load amortised to nothing)
/// and return [`StopReason::Cancelled`] instead of finishing their search —
/// this is how the portfolio stops the losing engines as soon as one engine
/// decides the formula.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, unraised token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag; every clone of this token observes the cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The raw shared flag, for code that cannot depend on this crate
    /// (the BDD manager polls the same flag from its node-allocation path).
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// A satisfying assignment, indexed by variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// Creates a model from per-variable values.
    pub fn new(values: Vec<bool>) -> Self {
        Model { values }
    }

    /// The value assigned to `var`.
    ///
    /// # Panics
    ///
    /// Panics if the variable is out of range for this model.
    pub fn value(&self, var: Var) -> bool {
        self.values[var.index()]
    }

    /// The raw values, indexed by variable.
    pub fn values(&self) -> &[bool] {
        &self.values
    }

    /// Number of variables covered by this model.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the model covers no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Why a solver stopped without an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The conflict budget was exhausted.
    ConflictLimit,
    /// The decision/flip budget was exhausted.
    DecisionLimit,
    /// The wall-clock budget was exhausted.
    TimeLimit,
    /// The procedure is incomplete and gave up (e.g. local search on an
    /// unsatisfiable formula).
    Incomplete,
    /// The shared [`CancelToken`] was raised (another portfolio engine won).
    Cancelled,
}

/// Result of a satisfiability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found.
    Sat(Model),
    /// The formula was proven unsatisfiable.
    Unsat,
    /// The solver stopped early.
    Unknown(StopReason),
}

impl SatResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Whether the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }

    /// Whether the solver gave a definite answer.
    pub fn is_decided(&self) -> bool {
        !matches!(self, SatResult::Unknown(_))
    }

    /// Returns the model if the result is `Sat`.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Resource limits for one `solve` call.
///
/// Besides the classic conflict/decision/time bounds, a budget can carry a
/// shared [`CancelToken`] and an absolute `deadline`.  Engines resolve
/// `max_time` into a deadline once per solve with [`Budget::started`] and
/// then poll [`Budget::exceeded`] every few hundred steps, so neither
/// `Instant::now` nor the atomic load is on the per-iteration path.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Maximum number of conflicts (CDCL) before giving up.
    pub max_conflicts: Option<u64>,
    /// Maximum number of decisions (DPLL) or flips (local search).
    pub max_decisions: Option<u64>,
    /// Wall-clock limit, relative to the start of the solve call.
    pub max_time: Option<Duration>,
    /// Absolute wall-clock deadline (combines with `max_time`: the earlier
    /// of the two wins once [`Budget::started`] has resolved them).
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag shared with other engines.
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// No limits at all.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A wall-clock limit only.
    pub fn time_limit(limit: Duration) -> Self {
        Budget {
            max_time: Some(limit),
            ..Budget::default()
        }
    }

    /// A conflict/flip limit only.
    pub fn step_limit(steps: u64) -> Self {
        Budget {
            max_conflicts: Some(steps),
            max_decisions: Some(steps),
            ..Budget::default()
        }
    }

    /// Attaches a shared cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets an absolute deadline.
    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Resolves the relative `max_time` into an absolute deadline, taken from
    /// a single `Instant::now()` call.  Engines call this once per solve so
    /// their hot loops only compare instants.
    pub fn started(&self) -> Budget {
        let mut resolved = self.clone();
        if let Some(limit) = resolved.max_time {
            let from_now = Instant::now() + limit;
            resolved.deadline = Some(match resolved.deadline {
                Some(existing) => existing.min(from_now),
                None => from_now,
            });
        }
        resolved
    }

    /// Cheap stop check for hot loops: the cancel flag is one relaxed atomic
    /// load, and the deadline costs one `Instant::now()` — call this every N
    /// steps, not every iteration.  Returns why the solver must stop, if it
    /// must.
    pub fn exceeded(&self) -> Option<StopReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopReason::TimeLimit);
            }
        }
        None
    }

    /// Whether the budget demands an immediate stop (see [`Budget::exceeded`]).
    pub fn should_stop(&self) -> bool {
        self.exceeded().is_some()
    }
}

/// Statistics of one `solve` call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of propagated literals.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of learned clauses currently kept.
    pub learned_clauses: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of variable flips (local search only).
    pub flips: u64,
}

/// A SAT procedure.
///
/// Implementations are stateful only across one [`Solver::solve_with_budget`]
/// call; calling `solve` again starts from scratch.
pub trait Solver {
    /// A short human-readable name ("chaff", "walksat", ...).
    fn name(&self) -> &str;

    /// Whether the procedure can prove unsatisfiability.
    fn is_complete(&self) -> bool;

    /// Solves `cnf` within `budget`.
    fn solve_with_budget(&mut self, cnf: &CnfFormula, budget: Budget) -> SatResult;

    /// Solves `cnf` without resource limits.
    fn solve(&mut self, cnf: &CnfFormula) -> SatResult {
        self.solve_with_budget(cnf, Budget::unlimited())
    }

    /// Solves `cnf` while logging a DRAT proof of every inference into
    /// `proof`, so that an `Unsat` answer can be replayed by the independent
    /// checker in `velv_proof`.  The terminal proof step of a refutation is
    /// the empty clause.
    ///
    /// Returns `None` when the procedure cannot produce proofs; only the
    /// clause-learning engines override this (DPLL and the local searches
    /// perform inferences a clausal proof cannot capture cheaply, and the
    /// portfolio's winner is not known in advance).
    fn solve_with_proof(
        &mut self,
        cnf: &CnfFormula,
        budget: Budget,
        proof: &SharedProof,
    ) -> Option<SatResult> {
        let _ = (cnf, budget, proof);
        None
    }

    /// Statistics of the most recent `solve` call.
    fn stats(&self) -> SolverStats;
}

/// Checks that `model` satisfies `cnf`; used by tests and by the verification
/// flow before trusting a counterexample.
pub fn verify_model(cnf: &CnfFormula, model: &Model) -> bool {
    if model.len() < cnf.num_vars() {
        return false;
    }
    cnf.is_satisfied_by(model.values())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Lit;

    #[test]
    fn sat_result_helpers() {
        let model = Model::new(vec![true, false]);
        let sat = SatResult::Sat(model.clone());
        assert!(sat.is_sat() && sat.is_decided() && !sat.is_unsat());
        assert_eq!(sat.model(), Some(&model));
        assert!(SatResult::Unsat.is_unsat());
        assert!(!SatResult::Unknown(StopReason::TimeLimit).is_decided());
    }

    #[test]
    fn model_lookup() {
        let model = Model::new(vec![true, false, true]);
        assert!(model.value(Var::new(0)));
        assert!(!model.value(Var::new(1)));
        assert_eq!(model.len(), 3);
        assert!(!model.is_empty());
    }

    #[test]
    fn verify_model_checks_all_clauses() {
        let mut cnf = CnfFormula::new(2);
        let a = Lit::positive(Var::new(0));
        let b = Lit::positive(Var::new(1));
        cnf.add_clause(vec![a, b]);
        cnf.add_clause(vec![!a]);
        assert!(verify_model(&cnf, &Model::new(vec![false, true])));
        assert!(!verify_model(&cnf, &Model::new(vec![true, false])));
        assert!(!verify_model(&cnf, &Model::new(vec![false])));
    }

    #[test]
    fn budget_constructors() {
        let b = Budget::step_limit(10);
        assert_eq!(b.max_conflicts, Some(10));
        assert_eq!(b.max_decisions, Some(10));
        assert!(b.max_time.is_none());
        let t = Budget::time_limit(Duration::from_millis(5));
        assert!(t.max_time.is_some());
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        let budget = Budget::unlimited().with_cancel(clone);
        assert!(!budget.should_stop());
        token.cancel();
        assert_eq!(budget.exceeded(), Some(StopReason::Cancelled));
        // The raw flag view observes the same state.
        assert!(token.flag().load(std::sync::atomic::Ordering::Relaxed));
    }

    #[test]
    fn started_resolves_max_time_into_a_deadline() {
        let budget = Budget::time_limit(Duration::from_millis(1)).started();
        assert!(budget.deadline.is_some());
        std::thread::sleep(Duration::from_millis(3));
        assert_eq!(budget.exceeded(), Some(StopReason::TimeLimit));
        // An already-expired absolute deadline stops immediately.
        let expired = Budget::unlimited().with_deadline(Instant::now());
        assert!(expired.should_stop());
    }
}
