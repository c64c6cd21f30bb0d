//! Polarity analysis of equations: the foundation of *positive equality*.
//!
//! An equation is a **p-equation** if every occurrence is under an even number
//! of negations and never inside the controlling formula of an `ITE`.  All
//! other equations are **g-equations** ("general").  Term variables and
//! uninterpreted-function symbols whose applications can reach a value
//! position of a g-equation are **g-symbols**; all remaining ones are
//! **p-symbols** and may be given a maximally diverse interpretation during
//! the propositional translation (Bryant, German & Velev, TOCL 2001).

use crate::context::Context;
use crate::node::{Formula, FormulaId, Term, TermId};
use crate::support::value_leaves;
use crate::symbols::Symbol;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// In which syntactic contexts an equation occurs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct EquationPolarity {
    /// The equation occurs under an even number of negations and not inside
    /// an `ITE` control.
    pub positive: bool,
    /// The equation occurs under an odd number of negations or inside the
    /// controlling formula of an `ITE` operator.
    pub negative: bool,
}

impl EquationPolarity {
    /// Whether the equation is a p-equation (positive occurrences only).
    pub fn is_positive_only(self) -> bool {
        self.positive && !self.negative
    }

    /// Whether the equation is a g-equation (some negated/control occurrence).
    pub fn is_general(self) -> bool {
        self.negative
    }
}

/// Polarity bits used during the traversal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
struct Pol {
    pos: bool,
    neg: bool,
}

impl Pol {
    const POS: Pol = Pol {
        pos: true,
        neg: false,
    };
    const BOTH: Pol = Pol {
        pos: true,
        neg: true,
    };

    fn flip(self) -> Pol {
        Pol {
            pos: self.neg,
            neg: self.pos,
        }
    }

    fn union(self, other: Pol) -> Pol {
        Pol {
            pos: self.pos || other.pos,
            neg: self.neg || other.neg,
        }
    }

    fn contains(self, other: Pol) -> bool {
        (!other.pos || self.pos) && (!other.neg || self.neg)
    }
}

/// Result of the polarity analysis of one formula.
#[derive(Clone, Debug, Default)]
pub struct PolarityAnalysis {
    /// Polarity of every equation node reachable from the root.
    pub equations: BTreeMap<FormulaId, EquationPolarity>,
    /// Symbols (term variables and UF heads) that reach a value position of a
    /// g-equation.
    pub g_symbols: BTreeSet<Symbol>,
    /// Symbols that appear in value positions of equations but only of
    /// p-equations.
    pub p_symbols: BTreeSet<Symbol>,
}

impl PolarityAnalysis {
    /// Runs the analysis on `root` (interpreted as a formula that must hold,
    /// i.e. in positive context).
    pub fn run(ctx: &Context, root: FormulaId) -> Self {
        Self::run_many(ctx, std::iter::once(root))
    }

    /// Runs the analysis on several root formulas, all in positive context.
    pub fn run_many<I: IntoIterator<Item = FormulaId>>(ctx: &Context, roots: I) -> Self {
        let mut pol: BTreeMap<FormulaId, Pol> = BTreeMap::new();
        let mut work: Vec<(FormulaId, Pol)> = roots.into_iter().map(|r| (r, Pol::POS)).collect();
        // Terms whose ITE controls still need to be scanned (controls count as
        // negative context for the equations inside them).
        let mut term_seen: HashSet<TermId> = HashSet::new();
        let mut term_stack: Vec<TermId> = Vec::new();

        while let Some((f, p)) = work.pop() {
            let entry = pol.entry(f).or_default();
            if entry.contains(p) {
                continue;
            }
            *entry = entry.union(p);
            let p = *entry;
            match ctx.formula(f) {
                Formula::True | Formula::False | Formula::Var(_) => {}
                Formula::Up(_, args) => {
                    // Equations cannot occur inside terms except as ITE controls.
                    term_stack.extend(args.iter().copied());
                }
                Formula::Not(a) => work.push((*a, p.flip())),
                Formula::And(a, b) | Formula::Or(a, b) => {
                    work.push((*a, p));
                    work.push((*b, p));
                }
                Formula::Ite(c, a, b) => {
                    // The controlling formula effectively occurs both ways.
                    work.push((*c, Pol::BOTH));
                    work.push((*a, p));
                    work.push((*b, p));
                }
                Formula::Eq(a, b) => {
                    term_stack.push(*a);
                    term_stack.push(*b);
                }
            }
            // Scan newly reachable terms for ITE controls and UP/UF arguments.
            while let Some(t) = term_stack.pop() {
                if !term_seen.insert(t) {
                    continue;
                }
                match ctx.term(t) {
                    Term::Var(_) => {}
                    Term::Uf(_, args) => term_stack.extend(args.iter().copied()),
                    Term::Ite(c, x, y) => {
                        work.push((*c, Pol::BOTH));
                        term_stack.push(*x);
                        term_stack.push(*y);
                    }
                    Term::Read(m, a) => {
                        term_stack.push(*m);
                        term_stack.push(*a);
                    }
                    Term::Write(m, a, d) => {
                        term_stack.push(*m);
                        term_stack.push(*a);
                        term_stack.push(*d);
                    }
                }
            }
        }

        // Classify equations and collect g-symbols / p-symbols.
        let mut analysis = PolarityAnalysis::default();
        for (&f, &p) in &pol {
            if let Formula::Eq(a, b) = ctx.formula(f) {
                let eq_pol = EquationPolarity {
                    positive: p.pos,
                    negative: p.neg,
                };
                analysis.equations.insert(f, eq_pol);
                let mut leaves = value_leaves(ctx, *a);
                leaves.extend(value_leaves(ctx, *b));
                if eq_pol.is_general() {
                    analysis.g_symbols.extend(leaves);
                } else {
                    analysis.p_symbols.extend(leaves);
                }
            }
        }
        // A symbol that reaches both kinds is a g-symbol.
        analysis.p_symbols = analysis
            .p_symbols
            .difference(&analysis.g_symbols)
            .copied()
            .collect();
        analysis
    }

    /// Whether `sym` was classified as a g-symbol (appears in some g-equation).
    pub fn is_g_symbol(&self, sym: Symbol) -> bool {
        self.g_symbols.contains(&sym)
    }

    /// Number of equations that are p-equations.
    pub fn p_equation_count(&self) -> usize {
        self.equations
            .values()
            .filter(|p| p.is_positive_only())
            .count()
    }

    /// Number of equations that are g-equations.
    pub fn g_equation_count(&self) -> usize {
        self.equations.values().filter(|p| p.is_general()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_equation_stays_p() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let eq = ctx.eq(a, b);
        let analysis = PolarityAnalysis::run(&ctx, eq);
        assert_eq!(analysis.g_equation_count(), 0);
        assert_eq!(analysis.p_equation_count(), 1);
        assert!(analysis.g_symbols.is_empty());
        assert_eq!(analysis.p_symbols.len(), 2);
    }

    #[test]
    fn negated_equation_becomes_g() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let eq = ctx.eq(a, b);
        let neq = ctx.not(eq);
        let analysis = PolarityAnalysis::run(&ctx, neq);
        assert_eq!(analysis.g_equation_count(), 1);
        assert!(analysis.is_g_symbol(ctx.symbols().lookup("a").unwrap()));
        assert!(analysis.is_g_symbol(ctx.symbols().lookup("b").unwrap()));
    }

    #[test]
    fn ite_control_counts_as_general() {
        let mut ctx = Context::new();
        let src1 = ctx.term_var("src1");
        let dest = ctx.term_var("dest");
        let fwd = ctx.term_var("fwd_data");
        let reg = ctx.term_var("reg_data");
        let result = ctx.term_var("result");
        let cond = ctx.eq(src1, dest);
        let operand = ctx.ite_term(cond, fwd, reg);
        let spec = ctx.eq(operand, result);
        let analysis = PolarityAnalysis::run(&ctx, spec);
        // The forwarding comparison is a g-equation; the outer data equation is p.
        assert_eq!(analysis.g_equation_count(), 1);
        assert_eq!(analysis.p_equation_count(), 1);
        let src1_sym = ctx.symbols().lookup("src1").unwrap();
        let dest_sym = ctx.symbols().lookup("dest").unwrap();
        let fwd_sym = ctx.symbols().lookup("fwd_data").unwrap();
        assert!(analysis.is_g_symbol(src1_sym));
        assert!(analysis.is_g_symbol(dest_sym));
        assert!(!analysis.is_g_symbol(fwd_sym));
    }

    #[test]
    fn double_negation_restores_positive() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let eq = ctx.eq(a, b);
        let nn = ctx.not(eq);
        let nn = ctx.not(nn);
        // The context simplifies double negation away, so the equation occurs
        // positively again.
        let analysis = PolarityAnalysis::run(&ctx, nn);
        assert_eq!(analysis.g_equation_count(), 0);
    }

    #[test]
    fn implication_antecedent_is_negative() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let c = ctx.term_var("c");
        let d = ctx.term_var("d");
        let ante = ctx.eq(a, b);
        let cons = ctx.eq(c, d);
        let imp = ctx.implies(ante, cons);
        let analysis = PolarityAnalysis::run(&ctx, imp);
        assert_eq!(analysis.g_equation_count(), 1);
        assert_eq!(analysis.p_equation_count(), 1);
        assert!(analysis.is_g_symbol(ctx.symbols().lookup("a").unwrap()));
        assert!(!analysis.is_g_symbol(ctx.symbols().lookup("c").unwrap()));
    }

    #[test]
    fn uf_results_classified_by_head_symbol() {
        let mut ctx = Context::new();
        let x = ctx.term_var("x");
        let y = ctx.term_var("y");
        let fx = ctx.uf("f", &[x]);
        let fy = ctx.uf("f", &[y]);
        let eq = ctx.eq(fx, fy);
        let neq = ctx.not(eq);
        let analysis = PolarityAnalysis::run(&ctx, neq);
        // `f` reaches a negative equation, so it is a g-symbol; its arguments do not.
        assert!(analysis.is_g_symbol(ctx.symbols().lookup("f").unwrap()));
        assert!(!analysis.is_g_symbol(ctx.symbols().lookup("x").unwrap()));
    }
}
