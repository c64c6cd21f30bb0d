//! Statistics over the expression DAG reachable from a formula.

use crate::context::Context;
use crate::node::{Formula, FormulaId, Term, TermId};
use std::collections::HashSet;

/// Node counts of the DAG reachable from one root formula.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DagStats {
    /// Distinct term-variable nodes.
    pub term_vars: usize,
    /// Distinct uninterpreted-function application nodes.
    pub uf_apps: usize,
    /// Distinct term-level `ITE` nodes.
    pub term_ites: usize,
    /// Distinct `read` nodes.
    pub reads: usize,
    /// Distinct `write` nodes.
    pub writes: usize,
    /// Distinct propositional-variable nodes.
    pub prop_vars: usize,
    /// Distinct uninterpreted-predicate application nodes.
    pub up_apps: usize,
    /// Distinct equation nodes.
    pub equations: usize,
    /// Distinct Boolean connective nodes (`not`, `and`, `or`, formula `ITE`).
    pub connectives: usize,
}

impl DagStats {
    /// Computes statistics for the DAG reachable from `root`.
    pub fn of_formula(ctx: &Context, root: FormulaId) -> Self {
        let mut stats = DagStats::default();
        let mut seen_f: HashSet<FormulaId> = HashSet::new();
        let mut seen_t: HashSet<TermId> = HashSet::new();
        let mut fstack = vec![root];
        let mut tstack: Vec<TermId> = Vec::new();
        while !fstack.is_empty() || !tstack.is_empty() {
            while let Some(f) = fstack.pop() {
                if !seen_f.insert(f) {
                    continue;
                }
                match ctx.formula(f) {
                    Formula::True | Formula::False => {}
                    Formula::Var(_) => stats.prop_vars += 1,
                    Formula::Up(_, args) => {
                        stats.up_apps += 1;
                        tstack.extend(args.iter().copied());
                    }
                    Formula::Not(a) => {
                        stats.connectives += 1;
                        fstack.push(*a);
                    }
                    Formula::And(a, b) | Formula::Or(a, b) => {
                        stats.connectives += 1;
                        fstack.push(*a);
                        fstack.push(*b);
                    }
                    Formula::Ite(c, a, b) => {
                        stats.connectives += 1;
                        fstack.push(*c);
                        fstack.push(*a);
                        fstack.push(*b);
                    }
                    Formula::Eq(a, b) => {
                        stats.equations += 1;
                        tstack.push(*a);
                        tstack.push(*b);
                    }
                }
            }
            while let Some(t) = tstack.pop() {
                if !seen_t.insert(t) {
                    continue;
                }
                match ctx.term(t) {
                    Term::Var(_) => stats.term_vars += 1,
                    Term::Uf(_, args) => {
                        stats.uf_apps += 1;
                        tstack.extend(args.iter().copied());
                    }
                    Term::Ite(c, a, b) => {
                        stats.term_ites += 1;
                        fstack.push(*c);
                        tstack.push(*a);
                        tstack.push(*b);
                    }
                    Term::Read(m, a) => {
                        stats.reads += 1;
                        tstack.push(*m);
                        tstack.push(*a);
                    }
                    Term::Write(m, a, d) => {
                        stats.writes += 1;
                        tstack.push(*m);
                        tstack.push(*a);
                        tstack.push(*d);
                    }
                }
            }
        }
        stats
    }

    /// Total number of distinct nodes reachable from the root.
    pub fn total_nodes(&self) -> usize {
        self.term_vars
            + self.uf_apps
            + self.term_ites
            + self.reads
            + self.writes
            + self.prop_vars
            + self.up_apps
            + self.equations
            + self.connectives
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_each_node_once() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let fa = ctx.uf("f", &[a]);
        let fb = ctx.uf("f", &[b]);
        let e1 = ctx.eq(fa, fb);
        let e2 = ctx.eq(fa, a);
        let both = ctx.and(e1, e2);
        let again = ctx.and(both, e1); // shares e1
        let stats = DagStats::of_formula(&ctx, again);
        assert_eq!(stats.term_vars, 2);
        assert_eq!(stats.uf_apps, 2);
        assert_eq!(stats.equations, 2);
        assert_eq!(stats.connectives, 2);
        assert_eq!(stats.total_nodes(), 8);
    }

    #[test]
    fn memory_nodes_counted() {
        let mut ctx = Context::new();
        let mem = ctx.term_var("m");
        let a = ctx.term_var("a");
        let d = ctx.term_var("d");
        let w = ctx.write(mem, a, d);
        let r = ctx.read(w, a);
        let eq = ctx.eq(r, d);
        let stats = DagStats::of_formula(&ctx, eq);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.equations, 1);
    }

    #[test]
    fn constant_formula_has_no_nodes() {
        let ctx = Context::new();
        let stats = DagStats::of_formula(&ctx, ctx.true_id());
        assert_eq!(stats.total_nodes(), 0);
    }
}
