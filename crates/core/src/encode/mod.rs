//! Encoding of term-level equations into propositional logic.
//!
//! After memory and UF/UP elimination the correctness formula contains only
//! term variables, term-level `ITE`s, equations, propositional variables and
//! Boolean connectives.  This module replaces every equation by a
//! propositional formula:
//!
//! * equality is pushed through the `ITE` structure of both sides until pairs
//!   of term variables are compared,
//! * a pair involving a **p-term** variable is `true` when the two variables
//!   are identical and `false` otherwise (maximally diverse interpretation),
//! * a pair of distinct **g-term** variables is encoded with either a fresh
//!   *e*ij Boolean variable ([`eij`]) plus sparse transitivity constraints
//!   ([`transitivity`]) or with the small-domain encoding ([`small_domain`]).
//!
//! # Identical output
//!
//! The encoder runs in two walks over the same equations: the first
//! (`collect_g_pairs`) finds every compared g-term pair so the pair encoder
//! can number its *e*ij variables and triangulate the comparison graph before
//! any equation is rewritten; the second (`Rewriter`) builds the
//! propositional formula.  Their output is pinned bit for bit (the golden
//! translation test): `And`/`Or` operands are ordered by [`FormulaId`], so
//! the order in which nodes and *e*ij variables are created decides the
//! formula, the CNF's clause and variable order, and with them every step of
//! CDCL search.  The walks are therefore not fused, and their memo tables are
//! plain bookkeeping — dense vectors indexed by id, and [`IdSet`]/[`IdMap`]
//! keyed by `pair_key` — that may change for speed only as long as the
//! output does not.

pub mod eij;
pub mod small_domain;
pub mod transitivity;

use crate::options::{GEncoding, TransitivityMode};
use crate::positive_equality::Classification;
use std::collections::BTreeSet;
use velv_eufm::{Context, Formula, FormulaId, IdMap, IdSet, Symbol, Term, TermId};

/// The propositional form of a correctness formula.
#[derive(Clone, Debug)]
pub struct EncodedFormula {
    /// The encoded formula (must be valid for the processor to be correct).
    pub formula: FormulaId,
    /// Side constraints that may be *assumed* when checking validity
    /// (transitivity constraints for the eager *e*ij encoding; `true`
    /// otherwise — in particular for the lazy mode, whose transitivity is
    /// enforced by refinement instead).
    pub side_constraints: FormulaId,
    /// The *e*ij equality variables, one per encoded pair of g-term
    /// variables `(x, y, variable)` — the input of the lazy transitivity
    /// refinement loop.  Empty for the small-domain encoding.
    pub eij_pairs: Vec<(Symbol, Symbol, FormulaId)>,
    /// Number of fresh *e*ij variables introduced.
    pub num_eij_vars: usize,
    /// Number of fresh small-domain indexing variables introduced.
    pub num_indexing_vars: usize,
    /// Number of distinct g-term variable pairs compared.
    pub num_g_pairs: usize,
    /// Number of transitivity triangles constrained.
    pub num_triangles: usize,
}

/// Encodes `root` into propositional logic.
pub fn encode(
    ctx: &mut Context,
    root: FormulaId,
    classification: &Classification,
    encoding: GEncoding,
    transitivity: TransitivityMode,
) -> EncodedFormula {
    // Pass 1: discover every pair of distinct g-term variables that some
    // equation may compare.
    let pairs = collect_g_pairs(ctx, root, classification);

    // Pass 2: build the pair encoder.
    let mut pair_encoder: Box<dyn PairEncoder> = match (encoding, transitivity) {
        (GEncoding::Eij, TransitivityMode::Eager) => Box::new(eij::EijEncoder::new(ctx, &pairs)),
        (GEncoding::Eij, TransitivityMode::Lazy) => {
            Box::new(eij::EijEncoder::new_lazy(ctx, &pairs))
        }
        (GEncoding::SmallDomain, _) => Box::new(small_domain::SmallDomainEncoder::new(ctx, &pairs)),
    };

    // Pass 3: rewrite the formula, replacing equations.
    let mut rewriter = Rewriter {
        classification,
        pair_encoder: pair_encoder.as_mut(),
        formula_memo: vec![None; ctx.num_formulas()],
        eq_memo: IdMap::default(),
    };
    let formula = rewriter.rewrite_formula(ctx, root);

    let side_constraints = pair_encoder.side_constraints(ctx);
    let stats = pair_encoder.stats();
    EncodedFormula {
        formula,
        side_constraints,
        eij_pairs: pair_encoder.encoded_pairs(),
        num_eij_vars: stats.eij_vars,
        num_indexing_vars: stats.indexing_vars,
        num_g_pairs: pairs.len(),
        num_triangles: stats.triangles,
    }
}

/// Statistics reported by a pair encoder.
#[derive(Clone, Copy, Debug, Default)]
pub struct PairEncoderStats {
    /// Fresh *e*ij variables.
    pub eij_vars: usize,
    /// Fresh indexing variables.
    pub indexing_vars: usize,
    /// Transitivity triangles constrained.
    pub triangles: usize,
}

/// Strategy interface for encoding a comparison of two distinct g-term variables.
pub trait PairEncoder {
    /// The propositional formula for `x = y` (both g-term variables, `x != y`).
    fn encode_pair(&mut self, ctx: &mut Context, x: Symbol, y: Symbol) -> FormulaId;
    /// Constraints that may be assumed when checking validity.
    fn side_constraints(&mut self, ctx: &mut Context) -> FormulaId;
    /// Encoder statistics.
    fn stats(&self) -> PairEncoderStats;
    /// The per-pair equality variables, for encoders that have them (the
    /// *e*ij encoder); empty otherwise.
    fn encoded_pairs(&self) -> Vec<(Symbol, Symbol, FormulaId)> {
        Vec::new()
    }
}

/// Canonically ordered pair of symbols.
pub(crate) fn ordered(x: Symbol, y: Symbol) -> (Symbol, Symbol) {
    if x <= y {
        (x, y)
    } else {
        (y, x)
    }
}

/// The memo key of an unordered pair of node ids: the smaller id in the high
/// word, so `pair_key(a, b) == pair_key(b, a)`, and distinct pairs of ids
/// below 2³² get distinct keys.
pub(crate) fn pair_key(a: usize, b: usize) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    debug_assert!(hi <= u32::MAX as usize, "node ids fit in 32 bits");
    ((lo as u64) << 32) | hi as u64
}

/// Collects every pair of distinct g-term variables that equation evaluation
/// can compare, by pushing each equation through the ITE structure of its sides.
fn collect_g_pairs(
    ctx: &Context,
    root: FormulaId,
    classification: &Classification,
) -> BTreeSet<(Symbol, Symbol)> {
    let mut pairs = BTreeSet::new();
    // Find all equation nodes (including those inside term-level ITE conditions).
    let mut seen_f = vec![false; ctx.num_formulas()];
    let mut seen_t = vec![false; ctx.num_terms()];
    let mut fstack = vec![root];
    let mut tstack: Vec<TermId> = Vec::new();
    let mut equations: Vec<(TermId, TermId)> = Vec::new();
    while !fstack.is_empty() || !tstack.is_empty() {
        while let Some(f) = fstack.pop() {
            if std::mem::replace(&mut seen_f[f.index()], true) {
                continue;
            }
            match ctx.formula(f) {
                Formula::True | Formula::False | Formula::Var(_) => {}
                Formula::Up(_, args) => tstack.extend(args.iter().copied()),
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
                    equations.push((*a, *b));
                    tstack.push(*a);
                    tstack.push(*b);
                }
            }
        }
        while let Some(t) = tstack.pop() {
            if std::mem::replace(&mut seen_t[t.index()], true) {
                continue;
            }
            match ctx.term(t) {
                Term::Var(_) => {}
                Term::Uf(_, args) => tstack.extend(args.iter().copied()),
                Term::Ite(c, a, b) => {
                    fstack.push(*c);
                    tstack.push(*a);
                    tstack.push(*b);
                }
                Term::Read(m, a) => {
                    tstack.push(*m);
                    tstack.push(*a);
                }
                Term::Write(m, a, d) => {
                    tstack.push(*m);
                    tstack.push(*a);
                    tstack.push(*d);
                }
            }
        }
    }
    // For each equation, enumerate the leaf-variable pairs it can compare.
    let mut pair_seen = IdSet::default();
    for (a, b) in equations {
        collect_pairs_rec(ctx, classification, a, b, &mut pair_seen, &mut pairs);
    }
    pairs
}

fn collect_pairs_rec(
    ctx: &Context,
    classification: &Classification,
    a: TermId,
    b: TermId,
    seen: &mut IdSet<u64>,
    pairs: &mut BTreeSet<(Symbol, Symbol)>,
) {
    if a == b || !seen.insert(pair_key(a.index(), b.index())) {
        return;
    }
    match (ctx.term(a), ctx.term(b)) {
        (&Term::Ite(_, t, e), _) => {
            collect_pairs_rec(ctx, classification, t, b, seen, pairs);
            collect_pairs_rec(ctx, classification, e, b, seen, pairs);
        }
        (_, &Term::Ite(_, t, e)) => {
            collect_pairs_rec(ctx, classification, a, t, seen, pairs);
            collect_pairs_rec(ctx, classification, a, e, seen, pairs);
        }
        (&Term::Var(x), &Term::Var(y))
            if x != y && classification.is_general(x) && classification.is_general(y) =>
        {
            pairs.insert(ordered(x, y));
        }
        // Non-variable leaves (UF applications, memory operations) should have
        // been eliminated; compare their syntactic identity conservatively by
        // ignoring them here — the rewriter treats them as unequal leaves.
        _ => {}
    }
}

struct Rewriter<'a> {
    classification: &'a Classification,
    pair_encoder: &'a mut dyn PairEncoder,
    /// Rewritten form of each formula of the input DAG, by id.
    formula_memo: Vec<Option<FormulaId>>,
    /// Encoded equations, keyed by [`pair_key`] of their sides.
    eq_memo: IdMap<u64, FormulaId>,
}

impl Rewriter<'_> {
    fn rewrite_formula(&mut self, ctx: &mut Context, f: FormulaId) -> FormulaId {
        if let Some(r) = self.formula_memo[f.index()] {
            return r;
        }
        let result = match *ctx.formula(f) {
            Formula::True | Formula::False | Formula::Var(_) => f,
            Formula::Up(_, _) => {
                panic!("uninterpreted predicates must be eliminated before encoding")
            }
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
            Formula::Eq(a, b) => self.encode_eq(ctx, a, b),
        };
        self.formula_memo[f.index()] = Some(result);
        result
    }

    fn encode_eq(&mut self, ctx: &mut Context, a: TermId, b: TermId) -> FormulaId {
        if a == b {
            return ctx.true_id();
        }
        let key = pair_key(a.index(), b.index());
        if let Some(&r) = self.eq_memo.get(&key) {
            return r;
        }
        let result = match (ctx.term(a), ctx.term(b)) {
            (&Term::Ite(c, t, e), _) => {
                let rc = self.rewrite_formula(ctx, c);
                let rt = self.encode_eq(ctx, t, b);
                let re = self.encode_eq(ctx, e, b);
                ctx.ite_formula(rc, rt, re)
            }
            (_, &Term::Ite(c, t, e)) => {
                let rc = self.rewrite_formula(ctx, c);
                let rt = self.encode_eq(ctx, a, t);
                let re = self.encode_eq(ctx, a, e);
                ctx.ite_formula(rc, rt, re)
            }
            (&Term::Var(x), &Term::Var(y)) => {
                if x == y {
                    ctx.true_id()
                } else if !self.classification.is_general(x) || !self.classification.is_general(y) {
                    // At least one p-term variable: maximally diverse, hence unequal.
                    ctx.false_id()
                } else {
                    self.pair_encoder.encode_pair(ctx, x, y)
                }
            }
            // Any other leaf combination (should not occur after elimination):
            // distinct non-variable leaves are conservatively unequal.
            _ => ctx.false_id(),
        };
        self.eq_memo.insert(key, result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velv_eufm::Support;

    fn g_classification(ctx: &mut Context, names: &[&str]) -> Classification {
        // Build a dummy formula that makes the listed variables general.
        let mut root = ctx.true_id();
        for name in names {
            let v = ctx.term_var(name);
            let w = ctx.term_var(&format!("{name}_other"));
            let eq = ctx.eq(v, w);
            let neq = ctx.not(eq);
            root = ctx.and(root, neq);
        }
        Classification::from_formula(ctx, root)
    }

    #[test]
    fn pair_key_is_symmetric_and_injective() {
        let max = u32::MAX as usize;
        let ids = [0, 1, 2, 3, 255, 256, 65_535, 65_536, max - 1, max];
        let mut keys = std::collections::BTreeMap::new();
        for &a in &ids {
            for &b in &ids {
                let key = pair_key(a, b);
                assert_eq!(key, pair_key(b, a), "({a}, {b})");
                let pair = (a.min(b), a.max(b));
                assert_eq!(*keys.entry(key).or_insert(pair), pair, "({a}, {b})");
            }
        }
        assert_eq!(keys.len(), ids.len() * (ids.len() + 1) / 2);
        // The key decodes back to its pair, so no two pairs can share it.
        assert_eq!(pair_key(max, 7), (7 << 32) | max as u64);
    }

    #[test]
    fn p_term_comparison_encodes_to_false() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let root = ctx.eq(a, b);
        let classification = Classification::from_formula(&ctx, root);
        let encoded = encode(
            &mut ctx,
            root,
            &classification,
            GEncoding::Eij,
            TransitivityMode::Eager,
        );
        assert!(ctx.is_false(encoded.formula));
        assert_eq!(encoded.num_eij_vars, 0);
    }

    #[test]
    fn g_term_comparison_gets_a_fresh_variable() {
        let mut ctx = Context::new();
        let classification = g_classification(&mut ctx, &["x", "y"]);
        let x = ctx.term_var("x");
        let y = ctx.term_var("y");
        let root = ctx.eq(x, y);
        let encoded = encode(
            &mut ctx,
            root,
            &classification,
            GEncoding::Eij,
            TransitivityMode::Eager,
        );
        assert!(!ctx.is_false(encoded.formula));
        assert!(!ctx.is_true(encoded.formula));
        assert_eq!(encoded.num_eij_vars, 1);
        let support = Support::of_formula(&ctx, encoded.formula);
        assert_eq!(
            support.prop_vars.len(),
            1,
            "one eij variable in the support"
        );
    }

    #[test]
    fn equality_pushes_through_ite() {
        let mut ctx = Context::new();
        let sel = ctx.prop_var("sel");
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let t = ctx.ite_term(sel, a, b);
        let root = ctx.eq(t, a);
        let classification = Classification::from_formula(&ctx, root);
        let encoded = encode(
            &mut ctx,
            root,
            &classification,
            GEncoding::Eij,
            TransitivityMode::Eager,
        );
        // ITE(sel, a, b) = a  becomes  ITE(sel, true, false) = sel under the
        // maximally diverse interpretation of the p-terms a and b.
        assert_eq!(encoded.formula, sel);
    }

    #[test]
    fn identical_terms_encode_to_true() {
        let mut ctx = Context::new();
        let classification = g_classification(&mut ctx, &["x"]);
        let x = ctx.term_var("x");
        let root = ctx.eq(x, x);
        let encoded = encode(
            &mut ctx,
            root,
            &classification,
            GEncoding::Eij,
            TransitivityMode::Eager,
        );
        assert!(ctx.is_true(encoded.formula));
    }

    #[test]
    fn small_domain_comparison_uses_indexing_variables() {
        let mut ctx = Context::new();
        let classification = g_classification(&mut ctx, &["x", "y", "z"]);
        let x = ctx.term_var("x");
        let y = ctx.term_var("y");
        let z = ctx.term_var("z");
        let e1 = ctx.eq(x, y);
        let e2 = ctx.eq(y, z);
        let e3 = ctx.eq(x, z);
        let conj = ctx.and_many([e1, e2, e3]);
        let encoded = encode(
            &mut ctx,
            conj,
            &classification,
            GEncoding::SmallDomain,
            TransitivityMode::Eager,
        );
        assert_eq!(encoded.num_eij_vars, 0);
        assert!(encoded.num_indexing_vars > 0);
        assert!(
            ctx.is_true(encoded.side_constraints),
            "small domain needs no side constraints"
        );
    }

    #[test]
    fn eij_transitivity_constraints_generated_for_triangles() {
        let mut ctx = Context::new();
        let classification = g_classification(&mut ctx, &["x", "y", "z"]);
        let x = ctx.term_var("x");
        let y = ctx.term_var("y");
        let z = ctx.term_var("z");
        let e1 = ctx.eq(x, y);
        let e2 = ctx.eq(y, z);
        let e3 = ctx.eq(x, z);
        let conj = ctx.and_many([e1, e2, e3]);
        let encoded = encode(
            &mut ctx,
            conj,
            &classification,
            GEncoding::Eij,
            TransitivityMode::Eager,
        );
        assert_eq!(encoded.num_eij_vars, 3);
        assert_eq!(encoded.num_triangles, 1);
        assert!(!ctx.is_true(encoded.side_constraints));
    }
}
