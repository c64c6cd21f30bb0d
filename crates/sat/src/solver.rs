//! The common interface of all SAT procedures.

use crate::cnf::{Clause, CnfFormula, Var};
use crate::proof::SharedProof;
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cooperative cancellation flag.
///
/// Clones share the same flag: raising it on one clone is observed by all
/// others.  Engines poll the flag from their hot loops (every few hundred
/// steps, so the check is a single relaxed atomic load amortised to nothing)
/// and return [`StopReason::Cancelled`] instead of finishing their search —
/// this is how a back-end race stops the losing engines as soon as one engine
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
    /// Literals removed from learned clauses by minimization (CDCL only).
    pub minimized_literals: u64,
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
    /// perform inferences a clausal proof cannot capture cheaply).
    fn solve_with_proof(
        &mut self,
        cnf: &CnfFormula,
        budget: Budget,
        proof: &SharedProof,
    ) -> Option<SatResult> {
        let _ = (cnf, budget, proof);
        None
    }

    /// Solves `cnf` and asks `refine` about every model: an empty answer
    /// accepts the model, and any clauses it returns are asserted before the
    /// next round.  The clauses must be consequences the caller is entitled
    /// to (the transitivity constraints of the *e*ij encoding are), since
    /// later rounds solve the formula with them.
    ///
    /// `budget` bounds the whole loop: its time limit becomes one deadline,
    /// and the conflicts and decisions of each round are charged against its
    /// step limits.  This default re-solves a growing copy of the CNF from
    /// scratch every round; the CDCL engine overrides it to add the clauses
    /// to one live engine that keeps what it learned.
    fn solve_refining(
        &mut self,
        cnf: &CnfFormula,
        budget: Budget,
        refine: &mut dyn FnMut(&Model) -> Vec<Clause>,
    ) -> SatResult {
        let mut grown = Cow::Borrowed(cnf);
        refining_rounds(&budget, refine, |budget, clauses| {
            for clause in clauses {
                grown.to_mut().add_clause(clause);
            }
            let result = self.solve_with_budget(&grown, budget);
            (result, self.stats())
        })
    }

    /// Statistics of the most recent `solve` call.
    fn stats(&self) -> SolverStats;
}

/// The round loop of [`Solver::solve_refining`].  `round` asserts the given
/// clauses (none in the first round), solves under the remaining budget and
/// reports the result with the steps this round used.
pub(crate) fn refining_rounds(
    budget: &Budget,
    refine: &mut dyn FnMut(&Model) -> Vec<Clause>,
    mut round: impl FnMut(Budget, &[Clause]) -> (SatResult, SolverStats),
) -> SatResult {
    let mut budget = budget.started();
    budget.max_time = None; // the deadline now carries the time limit
    let mut clauses = Vec::new();
    let mut index = 0u64;
    loop {
        index += 1;
        let _span = velv_obs::span_fields("refine_round", &[("round", index.into())]);
        let (result, used) = round(budget.clone(), &clauses);
        let SatResult::Sat(model) = &result else {
            return result;
        };
        clauses = refine(model);
        if clauses.is_empty() {
            return result;
        }
        if let Some(max_conflicts) = &mut budget.max_conflicts {
            *max_conflicts = max_conflicts.saturating_sub(used.conflicts);
            if *max_conflicts == 0 {
                return SatResult::Unknown(StopReason::ConflictLimit);
            }
        }
        if let Some(max_decisions) = &mut budget.max_decisions {
            *max_decisions = max_decisions.saturating_sub(used.decisions);
            if *max_decisions == 0 {
                return SatResult::Unknown(StopReason::DecisionLimit);
            }
        }
    }
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
        cnf.add_clause(&[a, b]);
        cnf.add_clause(&[!a]);
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
    fn step_budget_bounds_the_whole_refinement_loop() {
        // A solver that keeps returning the same model: the loop must stop
        // once the *cumulative* conflict budget is spent, not re-grant it
        // every round.
        struct Stubborn {
            calls: usize,
        }
        impl Solver for Stubborn {
            fn name(&self) -> &str {
                "stubborn"
            }
            fn solve_with_budget(&mut self, _cnf: &CnfFormula, _budget: Budget) -> SatResult {
                self.calls += 1;
                SatResult::Sat(Model::new(vec![true]))
            }
            fn stats(&self) -> SolverStats {
                SolverStats {
                    conflicts: 40,
                    decisions: 40,
                    ..Default::default()
                }
            }
        }
        let mut solver = Stubborn { calls: 0 };
        let refuting = Lit::negative(Var::new(0));
        let result =
            solver.solve_refining(&CnfFormula::new(1), Budget::step_limit(100), &mut |_| {
                vec![vec![refuting]]
            });
        assert!(
            matches!(result, SatResult::Unknown(_)),
            "the loop must give up: {result:?}"
        );
        assert!(
            solver.calls <= 3,
            "100 conflicts at 40 per round allow at most 3 rounds, got {}",
            solver.calls
        );
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
