//! Back-end selection and the parallel portfolio race.
//!
//! This module owns two things:
//!
//! 1. The classic decision-diagram back end: evaluating the encoded
//!    correctness formula with BDDs instead of a SAT checker (the role CUDD
//!    plays in the paper).
//! 2. The unified [`Backend`] abstraction — SAT preset, BDD build, or a
//!    [`Backend::Portfolio`] of either — and [`race_backends`], which runs
//!    portfolio members on threads against the *same* translation, returns
//!    the first decided [`Verdict`] and cancels the losers through the
//!    cooperative cancel token.  This is the paper's Table-1 matchup (SAT
//!    procedures vs. BDDs on identical formulas) executed concurrently.

use crate::counterexample::Counterexample;
use crate::flow::{Translation, Verdict};
use crate::refine;
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;
use velv_bdd::{Bdd, BddHalt, BddManager};
use velv_eufm::{Context, Formula, FormulaId, Symbol};
use velv_sat::presets::SolverKind;
use velv_sat::{race, Budget, Model, SolverStats};

/// Outcome of a BDD-based validity check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BddOutcome {
    /// The formula is valid (under the assumed side constraints).
    Valid,
    /// The formula is falsifiable; one falsifying assignment of the primary
    /// Boolean variables is returned (variable names mapped to values).
    Falsifiable(Vec<(String, bool)>),
    /// The node limit was exceeded — the analogue of the memory-outs and
    /// time-outs the paper reports for the BDD runs on the larger designs.
    LimitExceeded,
    /// The shared cancel flag was raised (another portfolio engine won).
    Cancelled,
}

impl BddOutcome {
    /// Whether the outcome proves validity.
    pub fn is_valid(&self) -> bool {
        matches!(self, BddOutcome::Valid)
    }
}

/// Checks the validity of `assume ⇒ formula` by building its BDD.
///
/// Variables are ordered by first appearance in a depth-first traversal of the
/// formula (the depth-first ordering heuristic of Malik et al. used by the
/// paper's BED/BDD experiments).  The optional cooperative `cancel` flag is
/// polled from the BDD manager's node-allocation path.
pub fn check_validity_with_bdds(
    ctx: &Context,
    formula: FormulaId,
    assume: FormulaId,
    node_limit: usize,
    cancel: Option<Arc<AtomicBool>>,
) -> BddOutcome {
    // Collect the propositional variables in depth-first order.
    let mut order: Vec<Symbol> = Vec::new();
    let mut seen_vars: HashMap<Symbol, u32> = HashMap::new();
    collect_vars(ctx, assume, &mut order, &mut seen_vars);
    collect_vars(ctx, formula, &mut order, &mut seen_vars);

    let mut manager = BddManager::new(order.len());
    manager.set_node_limit(node_limit);
    if let Some(flag) = cancel {
        manager.set_cancel_flag(flag);
    }
    let var_index: HashMap<Symbol, u32> = seen_vars;

    let halted = |halt: BddHalt| match halt {
        BddHalt::NodeLimit { .. } => BddOutcome::LimitExceeded,
        BddHalt::Cancelled => BddOutcome::Cancelled,
    };
    let mut memo: HashMap<FormulaId, Bdd> = HashMap::new();
    let assume_bdd = match build(ctx, &mut manager, assume, &var_index, &mut memo) {
        Ok(b) => b,
        Err(halt) => return halted(halt),
    };
    let formula_bdd = match build(ctx, &mut manager, formula, &var_index, &mut memo) {
        Ok(b) => b,
        Err(halt) => return halted(halt),
    };
    let implication = match manager.implies(assume_bdd, formula_bdd) {
        Ok(b) => b,
        Err(halt) => return halted(halt),
    };
    if manager.is_true(implication) {
        return BddOutcome::Valid;
    }
    // Extract a falsifying assignment: a satisfying assignment of ¬implication.
    let negated = match manager.not(implication) {
        Ok(b) => b,
        Err(halt) => return halted(halt),
    };
    let assignment = manager
        .sat_one(negated)
        .expect("a non-true implication has a falsifying assignment");
    let named: Vec<(String, bool)> = order
        .iter()
        .enumerate()
        .filter_map(|(i, sym)| assignment[i].map(|value| (ctx.symbol_name(*sym).to_owned(), value)))
        .collect();
    BddOutcome::Falsifiable(named)
}

fn collect_vars(
    ctx: &Context,
    root: FormulaId,
    order: &mut Vec<Symbol>,
    seen: &mut HashMap<Symbol, u32>,
) {
    let mut stack = vec![root];
    let mut visited = std::collections::HashSet::new();
    while let Some(f) = stack.pop() {
        if !visited.insert(f) {
            continue;
        }
        match ctx.formula(f) {
            Formula::True | Formula::False => {}
            Formula::Var(sym) => {
                if !seen.contains_key(sym) {
                    seen.insert(*sym, order.len() as u32);
                    order.push(*sym);
                }
            }
            Formula::Not(a) => stack.push(*a),
            Formula::And(a, b) | Formula::Or(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            Formula::Ite(c, a, b) => {
                stack.push(*c);
                stack.push(*a);
                stack.push(*b);
            }
            Formula::Eq(_, _) | Formula::Up(_, _) => {
                panic!("the BDD back end expects an encoded (purely propositional) formula")
            }
        }
    }
}

fn build(
    ctx: &Context,
    manager: &mut BddManager,
    f: FormulaId,
    var_index: &HashMap<Symbol, u32>,
    memo: &mut HashMap<FormulaId, Bdd>,
) -> Result<Bdd, BddHalt> {
    if let Some(&b) = memo.get(&f) {
        return Ok(b);
    }
    let result = match ctx.formula(f).clone() {
        Formula::True => manager.true_bdd(),
        Formula::False => manager.false_bdd(),
        Formula::Var(sym) => manager.var(var_index[&sym])?,
        Formula::Not(a) => {
            let ba = build(ctx, manager, a, var_index, memo)?;
            manager.not(ba)?
        }
        Formula::And(a, b) => {
            let ba = build(ctx, manager, a, var_index, memo)?;
            let bb = build(ctx, manager, b, var_index, memo)?;
            manager.and(ba, bb)?
        }
        Formula::Or(a, b) => {
            let ba = build(ctx, manager, a, var_index, memo)?;
            let bb = build(ctx, manager, b, var_index, memo)?;
            manager.or(ba, bb)?
        }
        Formula::Ite(c, a, b) => {
            let bc = build(ctx, manager, c, var_index, memo)?;
            let ba = build(ctx, manager, a, var_index, memo)?;
            let bb = build(ctx, manager, b, var_index, memo)?;
            manager.ite(bc, ba, bb)?
        }
        Formula::Eq(_, _) | Formula::Up(_, _) => {
            panic!("the BDD back end expects an encoded (purely propositional) formula")
        }
    };
    memo.insert(f, result);
    Ok(result)
}

/// A back end the verification flow can check a [`Translation`] with.
///
/// The variants mirror the procedure classes of the paper's comparison: a SAT
/// preset working on the CNF, a BDD build of the encoded formula, or a
/// portfolio racing any mix of the two concurrently (nested portfolios are
/// flattened into one race).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// One SAT procedure on the CNF translation.
    Sat(SolverKind),
    /// The BDD back end on the encoded formula.
    Bdd {
        /// Node limit standing in for the memory bound of the paper's runs.
        node_limit: usize,
    },
    /// A concurrent race between the nested back ends.
    Portfolio(Vec<Backend>),
}

impl Backend {
    /// Node limit used by [`Backend::default_portfolio`]'s BDD member.
    pub const DEFAULT_BDD_NODE_LIMIT: usize = 1 << 22;

    /// The paper's Table-1 matchup as a single racing back end: the three
    /// strongest CDCL presets against the BDD build.
    pub fn default_portfolio() -> Backend {
        Backend::Portfolio(vec![
            Backend::Sat(SolverKind::Chaff),
            Backend::Sat(SolverKind::BerkMin),
            Backend::Sat(SolverKind::Grasp),
            Backend::Bdd {
                node_limit: Self::DEFAULT_BDD_NODE_LIMIT,
            },
        ])
    }

    /// A short display name ("chaff", "bdd", "portfolio[chaff|bdd]").
    pub fn label(&self) -> String {
        match self {
            Backend::Sat(kind) => format!("{kind:?}").to_lowercase(),
            Backend::Bdd { .. } => "bdd".to_owned(),
            Backend::Portfolio(members) => {
                let names: Vec<String> = members.iter().map(Backend::label).collect();
                format!("portfolio[{}]", names.join("|"))
            }
        }
    }

    /// Flattens nested portfolios into the list of leaf back ends to race.
    pub fn leaves(&self) -> Vec<Backend> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<Backend>) {
        match self {
            Backend::Portfolio(members) => {
                for member in members {
                    member.collect_leaves(out);
                }
            }
            leaf => out.push(leaf.clone()),
        }
    }
}

/// How one back end fared in a [`race_backends`] run.
#[derive(Clone, Debug)]
pub struct BackendRun {
    /// Display name of the back end.
    pub name: String,
    /// The verdict this back end reached (losers are typically
    /// `Verdict::Unknown("cancelled")`).
    pub verdict: Verdict,
    /// Solver statistics, for SAT members.
    pub stats: Option<SolverStats>,
    /// Wall-clock time from this member's start to its return.
    pub time: Duration,
    /// Whether this member decided the obligation first.
    pub winner: bool,
}

/// Aggregated outcome of one back-end race.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The verdict of the race: the winner's, or `Unknown` if nobody decided.
    pub verdict: Verdict,
    /// Name of the winning back end, if any member decided.
    pub winner: Option<String>,
    /// Per-member outcomes, in flattened member order.
    pub runs: Vec<BackendRun>,
    /// Wall-clock time of the whole race.
    pub wall_time: Duration,
}

/// Stack size for race member threads: the BDD build recurses over the
/// encoded formula, whose depth on the wide designs needs far more than the
/// default thread stack (the translation pipeline uses the same bound).
const RACE_STACK_SIZE: usize = 256 * 1024 * 1024;

/// The verdict a BDD outcome gives on `translation`.  A falsifying
/// assignment passes the lift rule of [`crate::refine`]; one that does not
/// lift is [`Verdict::Unknown`], since a BDD build cannot refine.
fn bdd_verdict(translation: &Translation, outcome: BddOutcome) -> Verdict {
    match outcome {
        BddOutcome::Valid => Verdict::Correct,
        BddOutcome::Falsifiable(assignment) => {
            // Variables the assignment leaves open are don't-cares: any
            // value keeps the formula falsified.
            let mut values = vec![false; translation.cnf.num_vars()];
            for (name, value) in assignment {
                let var = translation
                    .ctx
                    .symbols()
                    .lookup(&name)
                    .and_then(|sym| translation.primary_vars.get(&sym));
                if let Some(var) = var {
                    values[var.index()] = value;
                }
            }
            match refine::lift(translation, &Model::new(values)) {
                Ok(lifted) => Verdict::Buggy(Counterexample::from_model(
                    &translation.ctx,
                    &translation.primary_vars,
                    &lifted,
                )),
                Err(_) => {
                    Verdict::Unknown("the bdd falsifying assignment does not lift".to_owned())
                }
            }
        }
        BddOutcome::LimitExceeded => Verdict::Unknown("bdd node limit exceeded".to_owned()),
        BddOutcome::Cancelled => Verdict::Unknown("cancelled".to_owned()),
    }
}

fn is_decided(verdict: &Verdict) -> bool {
    verdict.is_correct() || verdict.is_buggy()
}

/// Why a race with no winner came up empty: prefer an informative member
/// reason (node limit, step limit, deadline) over the bare "cancelled" the
/// losers report.
fn undecided_reason(runs: &[BackendRun]) -> String {
    runs.iter()
        .find_map(|run| match &run.verdict {
            Verdict::Unknown(message) if message != "cancelled" => Some(message.clone()),
            _ => None,
        })
        .unwrap_or_else(|| "cancelled".to_owned())
}

/// Races the leaf back ends of `members` against one translated obligation.
///
/// Every member runs on its own thread against the same [`Translation`]; the
/// first member to reach a decided verdict wins (a counterexample only once
/// it has passed the lift rule of [`crate::refine`]), the shared cancel token is
/// raised, and the losers stop from their hot loops (CDCL conflict loop, DPLL
/// decision loop, local-search flip loop, BDD node allocation) without
/// finishing their search.  The caller's `budget` is honoured for the race as
/// a whole: its step limits and deadline are inherited by the SAT members and
/// an outer cancellation is forwarded into the race.  The caller's solve
/// recorder ([`velv_sat::install_solve_recorder`]) is re-installed on every
/// SAT member's thread, so a profiled race records each member's solve.
///
/// This is the workspace's one race, built on the generic
/// [`velv_sat::race()`] collector.  It races [`Verdict`]s, not `SatResult`s:
/// the BDD member works on the *encoded formula*, and its falsifying
/// assignments name primary variables that have no faithful image as a CNF
/// model (the CNF carries Tseitin auxiliaries a BDD run never assigns).
/// Squeezing the BDD build behind the `Solver` trait would forfeit the
/// counterexample; with the generic helper it just returns its verdict
/// directly.
pub fn race_backends(
    translation: &Translation,
    members: &[Backend],
    budget: Budget,
) -> PortfolioOutcome {
    let leaves: Vec<Backend> = members.iter().flat_map(Backend::leaves).collect();
    if leaves.is_empty() {
        return PortfolioOutcome {
            verdict: Verdict::Unknown("empty portfolio".to_owned()),
            winner: None,
            runs: Vec::new(),
            wall_time: Duration::ZERO,
        };
    }
    let thread_names: Vec<String> = leaves
        .iter()
        .map(|leaf| format!("velv-race-{}", leaf.label()))
        .collect();
    // Thread-locals do not cross the member spawn: capture the caller's
    // recorder here and re-install it inside each SAT member.
    let recorder = velv_sat::current_solve_recorder();
    let outcome = race(
        &thread_names,
        budget,
        RACE_STACK_SIZE,
        |index, member_budget| match &leaves[index] {
            Backend::Sat(kind) => {
                let _recorder_guard = recorder.clone().map(velv_sat::install_solve_recorder);
                let mut solver = kind.build();
                let checked = refine::check(translation, |refine| {
                    solver.solve_refining(&translation.cnf, member_budget, refine)
                });
                (checked.verdict(translation), Some(solver.stats()))
            }
            Backend::Bdd { node_limit } => {
                let flag = member_budget
                    .cancel
                    .as_ref()
                    .expect("race members carry the shared cancel token")
                    .flag();
                let bdd_outcome = check_validity_with_bdds(
                    &translation.ctx,
                    translation.encoded,
                    translation.side_constraints,
                    *node_limit,
                    Some(flag),
                );
                (bdd_verdict(translation, bdd_outcome), None)
            }
            Backend::Portfolio(_) => unreachable!("portfolios are flattened"),
        },
        |(verdict, _)| is_decided(verdict),
    );

    let runs: Vec<BackendRun> = outcome
        .runs
        .into_iter()
        .enumerate()
        .filter_map(|(index, run)| {
            run.map(|run| BackendRun {
                name: leaves[index].label(),
                verdict: run.value.0,
                stats: run.value.1,
                time: run.time,
                winner: run.winner,
            })
        })
        .collect();
    let verdict = match runs.iter().find(|r| r.winner) {
        Some(winner) => winner.verdict.clone(),
        None => Verdict::Unknown(
            outcome
                .parent_stop
                .map(|reason| format!("{reason:?}"))
                .unwrap_or_else(|| undecided_reason(&runs)),
        ),
    };
    PortfolioOutcome {
        verdict,
        winner: outcome.winner.map(|index| leaves[index].label()),
        runs,
        wall_time: outcome.wall_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_formula_is_recognised() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("p");
        let np = ctx.not(p);
        let taut = ctx.or(p, np);
        let t = ctx.true_id();
        assert_eq!(
            check_validity_with_bdds(&ctx, taut, t, 1 << 20, None),
            BddOutcome::Valid
        );
    }

    #[test]
    fn falsifiable_formula_yields_assignment() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("p");
        let q = ctx.prop_var("q");
        let formula = ctx.and(p, q);
        let t = ctx.true_id();
        match check_validity_with_bdds(&ctx, formula, t, 1 << 20, None) {
            BddOutcome::Falsifiable(assignment) => {
                assert!(!assignment.is_empty());
            }
            other => panic!("expected Falsifiable, got {other:?}"),
        }
    }

    #[test]
    fn assumptions_are_taken_into_account() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("p");
        let q = ctx.prop_var("q");
        let imp = ctx.implies(p, q);
        // q is not valid by itself, but it is valid assuming p ∧ (p ⇒ q).
        let assume = ctx.and(p, imp);
        assert_eq!(
            check_validity_with_bdds(&ctx, q, assume, 1 << 20, None),
            BddOutcome::Valid
        );
        let t = ctx.true_id();
        assert!(!check_validity_with_bdds(&ctx, q, t, 1 << 20, None).is_valid());
    }

    #[test]
    fn node_limit_surfaces_as_limit_exceeded() {
        let mut ctx = Context::new();
        // A formula whose BDD needs more than a handful of nodes: XOR chain.
        let mut acc = ctx.prop_var("x0");
        for i in 1..24 {
            let v = ctx.prop_var(&format!("x{i}"));
            acc = ctx.xor(acc, v);
        }
        let t = ctx.true_id();
        assert_eq!(
            check_validity_with_bdds(&ctx, acc, t, 8, None),
            BddOutcome::LimitExceeded
        );
    }
}
