//! Support computation: which variables, functions and predicates an
//! expression depends on.

use crate::context::Context;
use crate::node::{Formula, FormulaId, Term, TermId};
use crate::symbols::Symbol;
use std::collections::{BTreeSet, HashSet};

/// The sets of symbols an expression (transitively) refers to.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Support {
    /// Term variables (zero-arity uninterpreted functions).
    pub term_vars: BTreeSet<Symbol>,
    /// Propositional variables (zero-arity uninterpreted predicates).
    pub prop_vars: BTreeSet<Symbol>,
    /// Uninterpreted-function symbols with at least one argument.
    pub ufs: BTreeSet<Symbol>,
    /// Uninterpreted-predicate symbols with at least one argument.
    pub ups: BTreeSet<Symbol>,
    /// Number of distinct `read`/`write` nodes reachable.
    pub memory_ops: usize,
}

impl Support {
    /// Computes the support of a formula.
    pub fn of_formula(ctx: &Context, root: FormulaId) -> Self {
        let mut s = Support::default();
        let mut seen_f: HashSet<FormulaId> = HashSet::new();
        let mut seen_t: HashSet<TermId> = HashSet::new();
        let mut fstack = vec![root];
        let mut tstack: Vec<TermId> = Vec::new();
        while let Some(f) = fstack.pop() {
            if !seen_f.insert(f) {
                continue;
            }
            match ctx.formula(f) {
                Formula::True | Formula::False => {}
                Formula::Var(sym) => {
                    s.prop_vars.insert(*sym);
                }
                Formula::Up(sym, args) => {
                    s.ups.insert(*sym);
                    tstack.extend(args.iter().copied());
                }
                Formula::Not(a) => fstack.push(*a),
                Formula::And(a, b) | Formula::Or(a, b) => {
                    fstack.push(*a);
                    fstack.push(*b);
                }
                Formula::Ite(c, a, b) => {
                    fstack.push(*c);
                    fstack.push(*a);
                    fstack.push(*b);
                }
                Formula::Eq(a, b) => {
                    tstack.push(*a);
                    tstack.push(*b);
                }
            }
            Self::drain_terms(ctx, &mut s, &mut seen_t, &mut tstack, &mut fstack);
        }
        s
    }

    /// Computes the support of a term.
    pub fn of_term(ctx: &Context, root: TermId) -> Self {
        let mut s = Support::default();
        let mut seen_f: HashSet<FormulaId> = HashSet::new();
        let mut seen_t: HashSet<TermId> = HashSet::new();
        let mut fstack: Vec<FormulaId> = Vec::new();
        let mut tstack = vec![root];
        loop {
            Self::drain_terms(ctx, &mut s, &mut seen_t, &mut tstack, &mut fstack);
            if fstack.is_empty() {
                break;
            }
            // Formulas reachable from ITE controls inside terms.
            while let Some(f) = fstack.pop() {
                if !seen_f.insert(f) {
                    continue;
                }
                match ctx.formula(f) {
                    Formula::True | Formula::False => {}
                    Formula::Var(sym) => {
                        s.prop_vars.insert(*sym);
                    }
                    Formula::Up(sym, args) => {
                        s.ups.insert(*sym);
                        tstack.extend(args.iter().copied());
                    }
                    Formula::Not(a) => fstack.push(*a),
                    Formula::And(a, b) | Formula::Or(a, b) => {
                        fstack.push(*a);
                        fstack.push(*b);
                    }
                    Formula::Ite(c, a, b) => {
                        fstack.push(*c);
                        fstack.push(*a);
                        fstack.push(*b);
                    }
                    Formula::Eq(a, b) => {
                        tstack.push(*a);
                        tstack.push(*b);
                    }
                }
            }
        }
        s
    }

    fn drain_terms(
        ctx: &Context,
        s: &mut Support,
        seen_t: &mut HashSet<TermId>,
        tstack: &mut Vec<TermId>,
        fstack: &mut Vec<FormulaId>,
    ) {
        while let Some(t) = tstack.pop() {
            if !seen_t.insert(t) {
                continue;
            }
            match ctx.term(t) {
                Term::Var(sym) => {
                    s.term_vars.insert(*sym);
                }
                Term::Uf(sym, args) => {
                    s.ufs.insert(*sym);
                    tstack.extend(args.iter().copied());
                }
                Term::Ite(c, a, b) => {
                    fstack.push(*c);
                    tstack.push(*a);
                    tstack.push(*b);
                }
                Term::Read(m, a) => {
                    s.memory_ops += 1;
                    tstack.push(*m);
                    tstack.push(*a);
                }
                Term::Write(m, a, d) => {
                    s.memory_ops += 1;
                    tstack.push(*m);
                    tstack.push(*a);
                    tstack.push(*d);
                }
            }
        }
    }

    /// Total number of distinct symbols in the support.
    pub fn symbol_count(&self) -> usize {
        self.term_vars.len() + self.prop_vars.len() + self.ufs.len() + self.ups.len()
    }
}

/// Returns the set of term-variable symbols that a term can evaluate to,
/// looking through `ITE` branches (but not conditions) and through memory
/// operations (write data and base memory state).
///
/// This is the "value position" support used by the positive-equality
/// classification: the leaves returned here are the candidates an equality
/// comparison of the term may actually compare.
pub fn value_leaves(ctx: &Context, root: TermId) -> BTreeSet<Symbol> {
    let mut leaves = BTreeSet::new();
    let mut seen: HashSet<TermId> = HashSet::new();
    let mut stack = vec![root];
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        match ctx.term(t) {
            Term::Var(sym) => {
                leaves.insert(*sym);
            }
            Term::Uf(sym, _) => {
                leaves.insert(*sym);
            }
            Term::Ite(_, a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            Term::Read(m, _) => {
                // A read may return any written value or the initial content.
                stack.push(*m);
            }
            Term::Write(m, _, d) => {
                stack.push(*m);
                stack.push(*d);
            }
        }
    }
    leaves
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_of_simple_formula() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let p = ctx.prop_var("p");
        let fa = ctx.uf("f", &[a]);
        let eq = ctx.eq(fa, b);
        let pred = ctx.up("P", &[b]);
        let conj = ctx.and_many([eq, pred, p]);
        let s = Support::of_formula(&ctx, conj);
        assert_eq!(s.term_vars.len(), 2);
        assert_eq!(s.prop_vars.len(), 1);
        assert_eq!(s.ufs.len(), 1);
        assert_eq!(s.ups.len(), 1);
        assert_eq!(s.memory_ops, 0);
        assert_eq!(s.symbol_count(), 5);
    }

    #[test]
    fn support_sees_through_ite_and_memory() {
        let mut ctx = Context::new();
        let mem = ctx.term_var("mem0");
        let addr = ctx.term_var("addr");
        let data = ctx.term_var("data");
        let cond = ctx.prop_var("we");
        let written = ctx.write(mem, addr, data);
        let state = ctx.ite_term(cond, written, mem);
        let out = ctx.read(state, addr);
        let s = Support::of_term(&ctx, out);
        assert!(s.term_vars.len() >= 3);
        assert_eq!(s.prop_vars.len(), 1);
        assert!(s.memory_ops >= 2);
    }

    #[test]
    fn value_leaves_skip_ite_conditions() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let c = ctx.term_var("c");
        let ca = ctx.term_var("cond_operand");
        let cond = ctx.eq(c, ca);
        let t = ctx.ite_term(cond, a, b);
        let leaves = value_leaves(&ctx, t);
        let names: Vec<&str> = leaves.iter().map(|s| ctx.symbol_name(*s)).collect();
        assert!(names.contains(&"a"));
        assert!(names.contains(&"b"));
        assert!(!names.contains(&"c"));
        assert!(!names.contains(&"cond_operand"));
    }

    #[test]
    fn value_leaves_of_uf_is_its_head() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let fa = ctx.uf("alu", &[a]);
        let leaves = value_leaves(&ctx, fa);
        assert_eq!(leaves.len(), 1);
        assert_eq!(ctx.symbol_name(*leaves.iter().next().unwrap()), "alu");
    }
}
