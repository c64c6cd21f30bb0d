//! Translation of propositional formulas into CNF.
//!
//! Follows Section 4 of the paper: one auxiliary Boolean variable per `∧`, `∨`
//! and `ITE` operator, constrained to equal the operator's value (Fig. 5);
//! negations are *not* given variables — they are absorbed into the polarity
//! of the literal of their argument (Fig. 6).  The final CNF asserts the
//! required value of each root with a unit clause.

use std::collections::BTreeMap;
use velv_eufm::{Context, Formula, FormulaId, Symbol};
use velv_sat::{CnfFormula, Lit, Var};

/// Result of CNF generation.
#[derive(Clone, Debug)]
pub struct CnfTranslation {
    /// The generated CNF formula.
    pub cnf: CnfFormula,
    /// CNF variable of every primary (propositional) variable of the source formula.
    pub primary_vars: BTreeMap<Symbol, Var>,
    /// Number of auxiliary variables introduced for operators.
    pub num_aux_vars: usize,
}

impl CnfTranslation {
    /// Number of primary Boolean variables (propositional variables of the
    /// source formula, including *e*ij and indexing variables).
    pub fn num_primary_vars(&self) -> usize {
        self.primary_vars.len()
    }
}

/// Translates the given roots to one CNF formula.  Each entry `(f, value)`
/// asserts that formula `f` must evaluate to `value`; asserting the encoded
/// correctness formula to `false` together with its side constraints to `true`
/// yields the satisfiability problem whose solutions are counterexamples.
///
/// # Panics
///
/// Panics if a root still contains equations, uninterpreted predicates or
/// term-level structure (the encoding stage must run first).
pub fn formula_to_cnf(ctx: &Context, roots: &[(FormulaId, bool)]) -> CnfTranslation {
    let mut builder = CnfBuilder {
        cnf: CnfFormula::default(),
        primary_vars: BTreeMap::new(),
        memo: vec![None; ctx.num_formulas()],
        constant_true: None,
        num_aux_vars: 0,
    };
    let mut units = Vec::new();
    for &(root, value) in roots {
        let lit = builder.literal(ctx, root);
        units.push(if value { lit } else { !lit });
    }
    for unit in units {
        builder.cnf.add_clause(vec![unit]);
    }
    builder.finish()
}

/// The Tseitin translator behind [`formula_to_cnf`]: one auxiliary variable
/// per `∧`/`∨`/`ITE` node, negations absorbed into literal polarity, and a
/// memo table so every shared subformula is translated once.  The emitted
/// clauses are purely *definitional* — each auxiliary variable equals its
/// operator's value — and the roots are asserted afterwards with unit
/// clauses.
struct CnfBuilder {
    cnf: CnfFormula,
    primary_vars: BTreeMap<Symbol, Var>,
    /// The literal of each translated formula, by id.
    memo: Vec<Option<Lit>>,
    constant_true: Option<Lit>,
    num_aux_vars: usize,
}

impl CnfBuilder {
    fn finish(self) -> CnfTranslation {
        CnfTranslation {
            cnf: self.cnf,
            primary_vars: self.primary_vars,
            num_aux_vars: self.num_aux_vars,
        }
    }

    fn fresh_aux(&mut self) -> Lit {
        self.num_aux_vars += 1;
        Lit::positive(self.cnf.new_var())
    }

    fn constant_true_lit(&mut self) -> Lit {
        if let Some(l) = self.constant_true {
            return l;
        }
        let lit = Lit::positive(self.cnf.new_var());
        self.cnf.add_clause(vec![lit]);
        self.constant_true = Some(lit);
        lit
    }

    /// The CNF literal representing formula `f`, emitting definitional
    /// clauses for every operator node not yet translated.
    fn literal(&mut self, ctx: &Context, f: FormulaId) -> Lit {
        if let Some(l) = self.memo[f.index()] {
            return l;
        }
        let lit = match *ctx.formula(f) {
            Formula::True => self.constant_true_lit(),
            Formula::False => !self.constant_true_lit(),
            Formula::Var(sym) => {
                let var = *self
                    .primary_vars
                    .entry(sym)
                    .or_insert_with(|| self.cnf.new_var());
                Lit::positive(var)
            }
            Formula::Not(a) => {
                let la = self.literal(ctx, a);
                !la
            }
            Formula::And(a, b) => {
                let la = self.literal(ctx, a);
                let lb = self.literal(ctx, b);
                let v = self.fresh_aux();
                // v ↔ (a ∧ b)
                self.cnf.add_clause(vec![!v, la]);
                self.cnf.add_clause(vec![!v, lb]);
                self.cnf.add_clause(vec![v, !la, !lb]);
                v
            }
            Formula::Or(a, b) => {
                let la = self.literal(ctx, a);
                let lb = self.literal(ctx, b);
                let v = self.fresh_aux();
                // v ↔ (a ∨ b)
                self.cnf.add_clause(vec![!v, la, lb]);
                self.cnf.add_clause(vec![v, !la]);
                self.cnf.add_clause(vec![v, !lb]);
                v
            }
            Formula::Ite(c, t, e) => {
                let lc = self.literal(ctx, c);
                let lt = self.literal(ctx, t);
                let le = self.literal(ctx, e);
                let v = self.fresh_aux();
                // v ↔ ITE(c, t, e)
                self.cnf.add_clause(vec![!v, !lc, lt]);
                self.cnf.add_clause(vec![!v, lc, le]);
                self.cnf.add_clause(vec![v, !lc, !lt]);
                self.cnf.add_clause(vec![v, lc, !le]);
                // Redundant but propagation-friendly clauses.
                self.cnf.add_clause(vec![!v, lt, le]);
                self.cnf.add_clause(vec![v, !lt, !le]);
                v
            }
            Formula::Eq(_, _) | Formula::Up(_, _) => {
                panic!("equations and predicates must be encoded before CNF generation")
            }
        };
        self.memo[f.index()] = Some(lit);
        lit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velv_sat::cdcl::CdclSolver;
    use velv_sat::{SatResult, Solver};

    fn is_sat(cnf: &CnfFormula) -> bool {
        CdclSolver::chaff().solve(cnf).is_sat()
    }

    #[test]
    fn tautology_negation_is_unsat() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("p");
        let np = ctx.not(p);
        let taut = ctx.or(p, np);
        let translation = formula_to_cnf(&ctx, &[(taut, false)]);
        assert!(!is_sat(&translation.cnf), "¬(p ∨ ¬p) must be unsatisfiable");
        assert_eq!(translation.num_primary_vars(), 1);
    }

    #[test]
    fn satisfiable_formula_yields_model_on_primary_vars() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("p");
        let q = ctx.prop_var("q");
        let nq = ctx.not(q);
        let formula = ctx.and(p, nq);
        let translation = formula_to_cnf(&ctx, &[(formula, true)]);
        match CdclSolver::chaff().solve(&translation.cnf) {
            SatResult::Sat(model) => {
                let p_sym = ctx.symbols().lookup("p").unwrap();
                let q_sym = ctx.symbols().lookup("q").unwrap();
                assert!(model.value(translation.primary_vars[&p_sym]));
                assert!(!model.value(translation.primary_vars[&q_sym]));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn multiple_roots_are_conjoined() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("p");
        let q = ctx.prop_var("q");
        // Assert p = true and q = false simultaneously; then (p ∧ q) asserted
        // true makes it unsatisfiable.
        let pq = ctx.and(p, q);
        let translation = formula_to_cnf(&ctx, &[(p, true), (q, false), (pq, true)]);
        assert!(!is_sat(&translation.cnf));
        let translation_ok = formula_to_cnf(&ctx, &[(p, true), (q, false), (pq, false)]);
        assert!(is_sat(&translation_ok.cnf));
    }

    #[test]
    fn ite_semantics_preserved() {
        let mut ctx = Context::new();
        let c = ctx.prop_var("c");
        let t = ctx.prop_var("t");
        let e = ctx.prop_var("e");
        let ite = ctx.ite_formula(c, t, e);
        // ITE(c,t,e) ∧ c ∧ ¬t is unsatisfiable.
        let translation = formula_to_cnf(&ctx, &[(ite, true), (c, true), (t, false)]);
        assert!(!is_sat(&translation.cnf));
        // ITE(c,t,e) ∧ ¬c ∧ e is satisfiable.
        let translation = formula_to_cnf(&ctx, &[(ite, true), (c, false), (e, true)]);
        assert!(is_sat(&translation.cnf));
    }

    #[test]
    fn constants_are_handled() {
        let ctx = Context::new();
        let t = ctx.true_id();
        let translation = formula_to_cnf(&ctx, &[(t, true)]);
        assert!(is_sat(&translation.cnf));
        let translation = formula_to_cnf(&ctx, &[(t, false)]);
        assert!(!is_sat(&translation.cnf));
    }

    #[test]
    fn negation_does_not_create_aux_vars() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("p");
        let q = ctx.prop_var("q");
        let conj = ctx.and(p, q);
        let neg = ctx.not(conj);
        let with_neg = formula_to_cnf(&ctx, &[(neg, true)]);
        let without_neg = formula_to_cnf(&ctx, &[(conj, false)]);
        assert_eq!(
            with_neg.num_aux_vars, without_neg.num_aux_vars,
            "negation is absorbed into literal polarity"
        );
    }
}
