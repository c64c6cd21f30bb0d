//! Elimination of uninterpreted functions and predicates.
//!
//! Functional consistency is enforced either with the **nested-ITE** scheme
//! (each new application selects among the results of all previous
//! applications of the same function, guarded by argument equality) or, for
//! predicates only, with **Ackermann constraints**.  The paper's Section 5
//! explains why Ackermann constraints must not be used for functions whose
//! results participate only in positive equations: the constraints introduce
//! negated equations over the fresh result variables, destroying their
//! p-term status.  Predicates are safe because their results are Boolean.
//!
//! The optional **early reduction of p-equations** replaces argument-equality
//! comparisons whose two sides have disjoint supports of p-term variables with
//! the constant `false` already during elimination (structural variation "ER").

use crate::options::{TranslationOptions, UpElimination};
use crate::positive_equality::Classification;
use std::collections::{BTreeMap, HashMap};
use velv_eufm::support::value_leaves;
use velv_eufm::{Context, Formula, FormulaId, Symbol, Term, TermId};

/// Result of eliminating uninterpreted functions and predicates.
#[derive(Clone, Debug)]
pub struct UfElimination {
    /// The rewritten formula: only term variables, `ITE`s, equations,
    /// propositional variables and Boolean connectives remain.
    pub formula: FormulaId,
    /// Ackermann functional-consistency constraints (the constant `true` when
    /// the nested-ITE scheme is used for predicates as well).
    pub constraints: FormulaId,
    /// Fresh term variables introduced for UF applications, with the source
    /// function symbol.
    pub introduced_vars: Vec<(Symbol, Symbol)>,
}

/// Eliminates every uninterpreted function and predicate application reachable
/// from `root`.
///
/// The classification is consulted for the early-reduction optimisation and is
/// *extended*: fresh result variables of g-classified functions are marked as
/// g-symbols.
///
/// # Panics
///
/// Panics if the formula still contains `read`/`write` nodes (memory
/// elimination must run first).
pub fn eliminate_ufs(
    ctx: &mut Context,
    root: FormulaId,
    options: &TranslationOptions,
    classification: &mut Classification,
) -> UfElimination {
    let mut elim = Eliminator {
        options,
        classification,
        term_memo: HashMap::new(),
        formula_memo: HashMap::new(),
        uf_tables: HashMap::new(),
        up_tables: HashMap::new(),
        ackermann_apps: BTreeMap::new(),
        introduced_vars: Vec::new(),
    };
    let formula = elim.rewrite_formula(ctx, root);
    let constraints = elim.ackermann_constraints(ctx);
    UfElimination {
        formula,
        constraints,
        introduced_vars: elim.introduced_vars,
    }
}

struct Eliminator<'a> {
    options: &'a TranslationOptions,
    classification: &'a mut Classification,
    term_memo: HashMap<TermId, TermId>,
    formula_memo: HashMap<FormulaId, FormulaId>,
    /// Per UF symbol: previously seen (rewritten argument vector, result variable).
    uf_tables: HashMap<Symbol, Vec<(Vec<TermId>, TermId)>>,
    /// Per UP symbol (nested-ITE scheme): (argument vector, result variable).
    up_tables: HashMap<Symbol, Vec<(Vec<TermId>, FormulaId)>>,
    /// Per UP symbol (Ackermann scheme): (argument vector, fresh propositional
    /// variable).  Ordered by symbol, so the constraints come out in the same
    /// order on every run.
    ackermann_apps: BTreeMap<Symbol, Vec<(Vec<TermId>, FormulaId)>>,
    introduced_vars: Vec<(Symbol, Symbol)>,
}

impl Eliminator<'_> {
    fn rewrite_formula(&mut self, ctx: &mut Context, f: FormulaId) -> FormulaId {
        if let Some(&r) = self.formula_memo.get(&f) {
            return r;
        }
        let node = ctx.formula(f).clone();
        let result = match node {
            Formula::True | Formula::False | Formula::Var(_) => f,
            Formula::Not(a) => {
                let ra = self.rewrite_formula(ctx, a);
                ctx.not(ra)
            }
            Formula::And(a, b) => {
                let ra = self.rewrite_formula(ctx, a);
                let rb = self.rewrite_formula(ctx, b);
                ctx.and(ra, rb)
            }
            Formula::Or(a, b) => {
                let ra = self.rewrite_formula(ctx, a);
                let rb = self.rewrite_formula(ctx, b);
                ctx.or(ra, rb)
            }
            Formula::Ite(c, a, b) => {
                let rc = self.rewrite_formula(ctx, c);
                let ra = self.rewrite_formula(ctx, a);
                let rb = self.rewrite_formula(ctx, b);
                ctx.ite_formula(rc, ra, rb)
            }
            Formula::Eq(a, b) => {
                let ra = self.rewrite_term(ctx, a);
                let rb = self.rewrite_term(ctx, b);
                self.build_equation(ctx, ra, rb)
            }
            Formula::Up(sym, args) => {
                let new_args: Vec<TermId> =
                    args.iter().map(|a| self.rewrite_term(ctx, *a)).collect();
                self.eliminate_up(ctx, sym, new_args)
            }
        };
        self.formula_memo.insert(f, result);
        result
    }

    fn rewrite_term(&mut self, ctx: &mut Context, t: TermId) -> TermId {
        if let Some(&r) = self.term_memo.get(&t) {
            return r;
        }
        let node = ctx.term(t).clone();
        let result = match node {
            Term::Var(_) => t,
            Term::Ite(c, a, b) => {
                let rc = self.rewrite_formula(ctx, c);
                let ra = self.rewrite_term(ctx, a);
                let rb = self.rewrite_term(ctx, b);
                ctx.ite_term(rc, ra, rb)
            }
            Term::Uf(sym, args) => {
                let new_args: Vec<TermId> =
                    args.iter().map(|a| self.rewrite_term(ctx, *a)).collect();
                self.eliminate_uf(ctx, sym, new_args)
            }
            Term::Read(_, _) | Term::Write(_, _, _) => {
                panic!("memory operations must be eliminated before UF elimination")
            }
        };
        self.term_memo.insert(t, result);
        result
    }

    /// Builds an equation, applying early reduction when enabled.
    fn build_equation(&mut self, ctx: &mut Context, a: TermId, b: TermId) -> FormulaId {
        if self.options.early_reduction && self.provably_distinct(ctx, a, b) {
            return ctx.false_id();
        }
        ctx.eq(a, b)
    }

    /// Early reduction check: both sides consist only of p-term variables and
    /// their supports are disjoint, so under a maximally diverse
    /// interpretation the terms cannot be equal.
    fn provably_distinct(&self, ctx: &Context, a: TermId, b: TermId) -> bool {
        let la = value_leaves(ctx, a);
        let lb = value_leaves(ctx, b);
        let all_p = |leaves: &std::collections::BTreeSet<Symbol>| {
            leaves.iter().all(|s| !self.classification.is_general(*s))
        };
        all_p(&la) && all_p(&lb) && la.is_disjoint(&lb)
    }

    fn eliminate_uf(&mut self, ctx: &mut Context, sym: Symbol, args: Vec<TermId>) -> TermId {
        let name = ctx.symbol_name(sym).to_owned();
        let is_general = self.classification.is_general(sym);
        // Fresh result variable for this (new) application.
        let fresh = ctx.fresh_term_var(&format!("{name}!"));
        let fresh_sym = match ctx.term(fresh) {
            Term::Var(s) => *s,
            _ => unreachable!("fresh_term_var returns a variable"),
        };
        if is_general {
            self.classification.mark_general(fresh_sym);
        }
        self.introduced_vars.push((sym, fresh_sym));

        let previous = self.uf_tables.entry(sym).or_default().clone();
        // Build the nested ITE from the innermost (this application's fresh
        // variable) outwards, so the earliest previous application is tested first.
        let mut acc = fresh;
        for (prev_args, prev_var) in previous.iter().rev() {
            let cond = self.args_equal(ctx, &args, prev_args);
            acc = ctx.ite_term(cond, *prev_var, acc);
        }
        self.uf_tables
            .get_mut(&sym)
            .expect("entry created above")
            .push((args, fresh));
        acc
    }

    fn eliminate_up(&mut self, ctx: &mut Context, sym: Symbol, args: Vec<TermId>) -> FormulaId {
        let name = ctx.symbol_name(sym).to_owned();
        match self.options.up_elimination {
            UpElimination::NestedIte => {
                let fresh = ctx.fresh_prop_var(&format!("{name}!"));
                let previous = self.up_tables.entry(sym).or_default().clone();
                let mut acc = fresh;
                for (prev_args, prev_var) in previous.iter().rev() {
                    let cond = self.args_equal(ctx, &args, prev_args);
                    acc = ctx.ite_formula(cond, *prev_var, acc);
                }
                self.up_tables
                    .get_mut(&sym)
                    .expect("entry created above")
                    .push((args, fresh));
                acc
            }
            UpElimination::Ackermann => {
                let fresh = ctx.fresh_prop_var(&format!("{name}!"));
                self.ackermann_apps
                    .entry(sym)
                    .or_default()
                    .push((args, fresh));
                fresh
            }
        }
    }

    fn args_equal(&mut self, ctx: &mut Context, a: &[TermId], b: &[TermId]) -> FormulaId {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = ctx.true_id();
        for (&x, &y) in a.iter().zip(b.iter()) {
            let eq = self.build_equation(ctx, x, y);
            acc = ctx.and(acc, eq);
            if ctx.is_false(acc) {
                break;
            }
        }
        acc
    }

    /// Pairwise functional-consistency constraints for the Ackermann-eliminated
    /// predicates.
    fn ackermann_constraints(&mut self, ctx: &mut Context) -> FormulaId {
        let tables = std::mem::take(&mut self.ackermann_apps);
        let mut acc = ctx.true_id();
        for apps in tables.into_values() {
            for i in 0..apps.len() {
                for j in (i + 1)..apps.len() {
                    let args_eq = self.args_equal(ctx, &apps[i].0, &apps[j].0);
                    let results_eq = ctx.iff(apps[i].1, apps[j].1);
                    let constraint = ctx.implies(args_eq, results_eq);
                    acc = ctx.and(acc, constraint);
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velv_eufm::DagStats;

    fn base_options() -> TranslationOptions {
        TranslationOptions::default()
    }

    /// `a = b ⇒ f(a) = f(b)` must become valid-looking structure: after
    /// elimination the second application reduces to an ITE selecting the
    /// first result when the arguments are equal.
    #[test]
    fn functional_consistency_via_nested_ite() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let fa = ctx.uf("f", &[a]);
        let fb = ctx.uf("f", &[b]);
        let ante = ctx.eq(a, b);
        let cons = ctx.eq(fa, fb);
        let root = ctx.implies(ante, cons);
        let mut classification = Classification::from_formula(&ctx, root);
        let result = eliminate_ufs(&mut ctx, root, &base_options(), &mut classification);
        let stats = DagStats::of_formula(&ctx, result.formula);
        assert_eq!(stats.uf_apps, 0, "no UF applications remain");
        assert!(
            stats.term_ites >= 1,
            "nested ITE expected for the second application"
        );
        assert!(ctx.is_true(result.constraints));
        assert_eq!(result.introduced_vars.len(), 2);
    }

    #[test]
    fn up_elimination_nested_ite_and_ackermann() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let pa = ctx.up("P", &[a]);
        let pb = ctx.up("P", &[b]);
        let root = ctx.and(pa, pb);

        let mut classification = Classification::from_formula(&ctx, root);
        let nested = eliminate_ufs(&mut ctx, root, &base_options(), &mut classification);
        let stats = DagStats::of_formula(&ctx, nested.formula);
        assert_eq!(stats.up_apps, 0);
        assert!(ctx.is_true(nested.constraints));

        let mut ctx2 = Context::new();
        let a = ctx2.term_var("a");
        let b = ctx2.term_var("b");
        let pa = ctx2.up("P", &[a]);
        let pb = ctx2.up("P", &[b]);
        let root = ctx2.and(pa, pb);
        let mut classification = Classification::from_formula(&ctx2, root);
        let options = base_options().with_ackermann_ups();
        let ackermann = eliminate_ufs(&mut ctx2, root, &options, &mut classification);
        let stats = DagStats::of_formula(&ctx2, ackermann.formula);
        assert_eq!(stats.up_apps, 0);
        assert!(
            !ctx2.is_true(ackermann.constraints),
            "two applications of P produce one consistency constraint"
        );
    }

    #[test]
    fn fresh_vars_of_general_functions_are_general() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let fa = ctx.uf("f", &[a]);
        let fb = ctx.uf("f", &[b]);
        // f's results are compared under a negation: f is a g-function.
        let eq = ctx.eq(fa, fb);
        let root = ctx.not(eq);
        let mut classification = Classification::from_formula(&ctx, root);
        let result = eliminate_ufs(&mut ctx, root, &base_options(), &mut classification);
        assert_eq!(result.introduced_vars.len(), 2);
        for (_uf, fresh) in &result.introduced_vars {
            assert!(classification.is_general(*fresh));
        }
    }

    #[test]
    fn fresh_vars_of_positive_functions_stay_positive() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let fa = ctx.uf("alu", &[a]);
        let fb = ctx.uf("alu", &[b]);
        let root = ctx.eq(fa, fb);
        let mut classification = Classification::from_formula(&ctx, root);
        let result = eliminate_ufs(&mut ctx, root, &base_options(), &mut classification);
        for (_uf, fresh) in &result.introduced_vars {
            assert!(!classification.is_general(*fresh));
        }
    }

    #[test]
    fn early_reduction_replaces_disjoint_p_equations_with_false() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        // Two applications of f over unrelated p-term arguments.
        let fa = ctx.uf("f", &[a]);
        let fb = ctx.uf("f", &[b]);
        let root = ctx.eq(fa, fb);
        let mut classification = Classification::from_formula(&ctx, root);
        let options = base_options().with_early_reduction();
        let result = eliminate_ufs(&mut ctx, root, &options, &mut classification);
        // With early reduction, the argument comparison a = b is reduced to
        // false, so the second application's ITE collapses to its fresh
        // variable and the top-level equation compares two distinct fresh
        // p-variables.
        let stats = DagStats::of_formula(&ctx, result.formula);
        assert_eq!(stats.term_ites, 0, "argument comparison collapsed");
    }

    #[test]
    fn shared_applications_reuse_the_same_variable() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let fa1 = ctx.uf("f", &[a]);
        let fa2 = ctx.uf("f", &[a]);
        assert_eq!(fa1, fa2, "hash consing already shares the node");
        let b = ctx.term_var("b");
        let eq = ctx.eq(fa1, b);
        let eq2 = ctx.eq(fa2, b);
        let root = ctx.and(eq, eq2);
        let mut classification = Classification::from_formula(&ctx, root);
        let result = eliminate_ufs(&mut ctx, root, &base_options(), &mut classification);
        assert_eq!(
            result.introduced_vars.len(),
            1,
            "one application, one fresh variable"
        );
    }

    #[test]
    #[should_panic(expected = "memory operations")]
    fn panics_on_remaining_memory_ops() {
        let mut ctx = Context::new();
        let m = ctx.term_var("m");
        let a = ctx.term_var("a");
        let r = ctx.read(m, a);
        let root = ctx.eq(r, a);
        let mut classification = Classification::from_formula(&ctx, root);
        let _ = eliminate_ufs(&mut ctx, root, &base_options(), &mut classification);
    }
}
