//! The *e*ij encoding of g-equations (Goel et al. 1998).
//!
//! Every comparison of two distinct g-term variables is replaced by a fresh
//! Boolean variable.  Transitivity of equality is enforced separately with the
//! sparse constraints of [`super::transitivity`].

use super::transitivity::{triangulate, Triangulation};
use super::{ordered, PairEncoder, PairEncoderStats};
use std::collections::{BTreeMap, BTreeSet};
use velv_eufm::{Context, FormulaId, Symbol};

/// Encoder that maps each compared pair of g-term variables to an *e*ij variable.
#[derive(Debug)]
pub struct EijEncoder {
    vars: BTreeMap<(Symbol, Symbol), FormulaId>,
    triangulation: Triangulation,
    /// Lazy mode: no triangulation, no side constraints — transitivity is
    /// enforced afterwards by model-driven refinement (`velv_core::refine`).
    lazy: bool,
}

impl EijEncoder {
    /// Creates the eager encoder: allocates one fresh Boolean variable per
    /// compared pair (and per chord edge added by the triangulation), and
    /// emits the triangle transitivity clauses as side constraints.
    pub fn new(ctx: &mut Context, pairs: &BTreeSet<(Symbol, Symbol)>) -> Self {
        Self::build(ctx, pairs, false)
    }

    /// Creates the lazy encoder: one variable per compared pair only (no
    /// chord edges), and no side constraints — violated transitivity is
    /// detected in returned models and asserted incrementally by the
    /// refinement loop.
    pub fn new_lazy(ctx: &mut Context, pairs: &BTreeSet<(Symbol, Symbol)>) -> Self {
        Self::build(ctx, pairs, true)
    }

    fn build(ctx: &mut Context, pairs: &BTreeSet<(Symbol, Symbol)>, lazy: bool) -> Self {
        let triangulation = if lazy {
            Triangulation::default()
        } else {
            triangulate(pairs)
        };
        let mut vars = BTreeMap::new();
        let mut all_edges: Vec<(Symbol, Symbol)> = pairs.iter().copied().collect();
        all_edges.extend(triangulation.added_edges.iter().copied());
        for (x, y) in all_edges {
            let name = format!("e!{}={}", ctx.symbol_name(x), ctx.symbol_name(y));
            let var = ctx.prop_var(&name);
            vars.insert(ordered(x, y), var);
        }
        EijEncoder {
            vars,
            triangulation,
            lazy,
        }
    }

    /// The encoded pairs and their *e*ij variables, in canonical order.
    pub fn pairs(&self) -> Vec<(Symbol, Symbol, FormulaId)> {
        self.vars.iter().map(|(&(x, y), &v)| (x, y, v)).collect()
    }

    /// Number of *e*ij variables (including those for chord edges).
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The *e*ij variable of a pair, if the pair was compared.
    pub fn var_for(&self, x: Symbol, y: Symbol) -> Option<FormulaId> {
        self.vars.get(&ordered(x, y)).copied()
    }
}

impl PairEncoder for EijEncoder {
    fn encode_pair(&mut self, ctx: &mut Context, x: Symbol, y: Symbol) -> FormulaId {
        match self.vars.get(&ordered(x, y)) {
            Some(&v) => v,
            None => {
                // A pair that pass 1 did not see (defensive): allocate lazily.
                let name = format!("e!{}={}", ctx.symbol_name(x), ctx.symbol_name(y));
                let var = ctx.prop_var(&name);
                self.vars.insert(ordered(x, y), var);
                var
            }
        }
    }

    fn side_constraints(&mut self, ctx: &mut Context) -> FormulaId {
        let mut acc = ctx.true_id();
        if self.lazy {
            return acc;
        }
        let triangles = self.triangulation.triangles.clone();
        for triangle in triangles {
            let e: Vec<FormulaId> = triangle
                .iter()
                .map(|(x, y)| self.encode_pair(ctx, *x, *y))
                .collect();
            // For every pair of edges in the triangle, the third is implied.
            for (i, j, k) in [(0, 1, 2), (0, 2, 1), (1, 2, 0)] {
                let both = ctx.and(e[i], e[j]);
                let implied = ctx.implies(both, e[k]);
                acc = ctx.and(acc, implied);
            }
        }
        acc
    }

    fn stats(&self) -> PairEncoderStats {
        PairEncoderStats {
            eij_vars: self.vars.len(),
            indexing_vars: 0,
            triangles: self.triangulation.triangles.len(),
        }
    }

    fn encoded_pairs(&self) -> Vec<(Symbol, Symbol, FormulaId)> {
        self.pairs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_variable_per_pair() {
        let mut ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let z = ctx.symbol("z");
        let pairs: BTreeSet<_> = [ordered(x, y), ordered(y, z)].into_iter().collect();
        let mut encoder = EijEncoder::new(&mut ctx, &pairs);
        assert_eq!(encoder.num_vars(), 2);
        let exy = encoder.encode_pair(&mut ctx, x, y);
        let eyx = encoder.encode_pair(&mut ctx, y, x);
        assert_eq!(exy, eyx, "the encoding is symmetric");
        let eyz = encoder.encode_pair(&mut ctx, y, z);
        assert_ne!(exy, eyz);
        // No cycle: no transitivity constraints.
        let constraints = encoder.side_constraints(&mut ctx);
        assert!(ctx.is_true(constraints));
    }

    #[test]
    fn cycle_of_three_gets_constraints() {
        let mut ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let z = ctx.symbol("z");
        let pairs: BTreeSet<_> = [ordered(x, y), ordered(y, z), ordered(x, z)]
            .into_iter()
            .collect();
        let mut encoder = EijEncoder::new(&mut ctx, &pairs);
        let constraints = encoder.side_constraints(&mut ctx);
        assert!(!ctx.is_true(constraints));
        assert_eq!(encoder.stats().triangles, 1);
        assert_eq!(encoder.stats().eij_vars, 3);
    }

    #[test]
    fn lazy_mode_has_no_chords_and_no_side_constraints() {
        let mut ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let z = ctx.symbol("z");
        let w = ctx.symbol("w");
        // A 4-cycle: the eager encoder adds a chord; the lazy one must not.
        let pairs: BTreeSet<_> = [ordered(x, y), ordered(y, z), ordered(z, w), ordered(x, w)]
            .into_iter()
            .collect();
        let mut lazy = EijEncoder::new_lazy(&mut ctx, &pairs);
        assert_eq!(lazy.num_vars(), 4, "one variable per compared pair only");
        let lazy_side = lazy.side_constraints(&mut ctx);
        assert!(ctx.is_true(lazy_side));
        assert_eq!(lazy.stats().triangles, 0);
        assert_eq!(lazy.pairs().len(), 4);
        let mut eager = EijEncoder::new(&mut ctx, &pairs);
        assert!(eager.num_vars() > 4, "the eager encoder adds chord edges");
        let eager_side = eager.side_constraints(&mut ctx);
        assert!(!ctx.is_true(eager_side));
    }

    #[test]
    fn lazy_allocation_for_unseen_pairs() {
        let mut ctx = Context::new();
        let x = ctx.symbol("x");
        let y = ctx.symbol("y");
        let mut encoder = EijEncoder::new(&mut ctx, &BTreeSet::new());
        assert!(encoder.var_for(x, y).is_none());
        let v = encoder.encode_pair(&mut ctx, x, y);
        assert_eq!(encoder.var_for(x, y), Some(v));
        assert_eq!(encoder.num_vars(), 1);
    }
}
