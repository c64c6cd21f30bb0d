//! Randomized property tests of the EUFM context, evaluator and polarity
//! analysis, driven by a deterministic seed so failures reproduce exactly.

use velv_eufm::{Context, Evaluator, FormulaId, Interpretation, PolarityAnalysis, Support};

/// A small AST we generate randomly and then lower into a `Context`, so the
/// generator stays independent of hash-consing.
#[derive(Clone, Debug)]
enum Ast {
    PropVar(u8),
    Eq(u8, u8),
    Not(Box<Ast>),
    And(Box<Ast>, Box<Ast>),
    Or(Box<Ast>, Box<Ast>),
    IteF(Box<Ast>, Box<Ast>, Box<Ast>),
}

/// Term-level AST used inside equations.
#[derive(Clone, Debug)]
enum TAst {
    Var(u8),
    Uf(u8, Vec<TAst>),
    Ite(Box<Ast>, Box<TAst>, Box<TAst>),
}

/// Deterministic SplitMix64, independent of any external crate (same
/// construction as `velv_sat::rng`, duplicated here because this crate has no
/// dependencies).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_leaf(rng: &mut Rng) -> Ast {
    if rng.below(2) == 0 {
        Ast::PropVar(rng.below(4) as u8)
    } else {
        Ast::Eq(rng.below(6) as u8, rng.below(6) as u8)
    }
}

fn random_formula(rng: &mut Rng, depth: u32) -> Ast {
    if depth == 0 {
        return random_leaf(rng);
    }
    match rng.below(5) {
        0 => random_leaf(rng),
        1 => Ast::Not(Box::new(random_formula(rng, depth - 1))),
        2 => Ast::And(
            Box::new(random_formula(rng, depth - 1)),
            Box::new(random_formula(rng, depth - 1)),
        ),
        3 => Ast::Or(
            Box::new(random_formula(rng, depth - 1)),
            Box::new(random_formula(rng, depth - 1)),
        ),
        _ => Ast::IteF(
            Box::new(random_formula(rng, depth - 1)),
            Box::new(random_formula(rng, depth - 1)),
            Box::new(random_formula(rng, depth - 1)),
        ),
    }
}

fn random_term(rng: &mut Rng, depth: u32) -> TAst {
    if depth == 0 {
        return TAst::Var(rng.below(6) as u8);
    }
    match rng.below(3) {
        0 => TAst::Var(rng.below(6) as u8),
        1 => {
            let arity = 1 + rng.below(2) as usize;
            let args = (0..arity).map(|_| random_term(rng, depth - 1)).collect();
            TAst::Uf(rng.below(3) as u8, args)
        }
        _ => TAst::Ite(
            Box::new(random_leaf(rng)),
            Box::new(random_term(rng, depth - 1)),
            Box::new(random_term(rng, depth - 1)),
        ),
    }
}

fn lower_term(ctx: &mut Context, t: &TAst) -> velv_eufm::TermId {
    match t {
        TAst::Var(i) => ctx.term_var(&format!("v{i}")),
        TAst::Uf(f, args) => {
            let lowered: Vec<_> = args.iter().map(|a| lower_term(ctx, a)).collect();
            ctx.uf(&format!("f{f}"), &lowered)
        }
        TAst::Ite(c, a, b) => {
            let cf = lower(ctx, c);
            let at = lower_term(ctx, a);
            let bt = lower_term(ctx, b);
            ctx.ite_term(cf, at, bt)
        }
    }
}

fn lower(ctx: &mut Context, ast: &Ast) -> FormulaId {
    match ast {
        Ast::PropVar(i) => ctx.prop_var(&format!("p{i}")),
        Ast::Eq(a, b) => {
            let ta = ctx.term_var(&format!("v{a}"));
            let tb = ctx.term_var(&format!("v{b}"));
            ctx.eq(ta, tb)
        }
        Ast::Not(a) => {
            let f = lower(ctx, a);
            ctx.not(f)
        }
        Ast::And(a, b) => {
            let (fa, fb) = (lower(ctx, a), lower(ctx, b));
            ctx.and(fa, fb)
        }
        Ast::Or(a, b) => {
            let (fa, fb) = (lower(ctx, a), lower(ctx, b));
            ctx.or(fa, fb)
        }
        Ast::IteF(c, a, b) => {
            let (fc, fa, fb) = (lower(ctx, c), lower(ctx, a), lower(ctx, b));
            ctx.ite_formula(fc, fa, fb)
        }
    }
}

fn interpretation_from_seed(ctx: &mut Context, seed: u64) -> Interpretation {
    let mut interp = Interpretation::new();
    for i in 0..6u8 {
        let value = (seed >> (i * 2)) & 0x3;
        interp.set_term_var(ctx, &format!("v{i}"), value);
    }
    for i in 0..4u8 {
        let value = (seed >> (16 + i)) & 1 == 1;
        interp.set_prop_var(ctx, &format!("p{i}"), value);
    }
    interp
}

const CASES: u64 = 128;

/// Hash-consing: lowering the same AST twice yields the same node id.
#[test]
fn lowering_is_deterministic() {
    let mut rng = Rng(0xE0F1);
    for _ in 0..CASES {
        let ast = random_formula(&mut rng, 4);
        let mut ctx = Context::new();
        let f1 = lower(&mut ctx, &ast);
        let f2 = lower(&mut ctx, &ast);
        assert_eq!(f1, f2, "{ast:?}");
    }
}

/// Local simplifications never change the truth value of a formula.
#[test]
fn double_negation_preserves_value() {
    let mut rng = Rng(0xE0F2);
    for _ in 0..CASES {
        let ast = random_formula(&mut rng, 4);
        let seed = rng.next();
        let mut ctx = Context::new();
        let f = lower(&mut ctx, &ast);
        let nn = ctx.not(f);
        let nn = ctx.not(nn);
        let interp = interpretation_from_seed(&mut ctx, seed);
        let mut ev = Evaluator::new(&ctx, interp);
        assert_eq!(ev.eval_formula(f), ev.eval_formula(nn), "{ast:?}");
    }
}

/// De Morgan dual forms evaluate identically.
#[test]
fn de_morgan() {
    let mut rng = Rng(0xE0F3);
    for _ in 0..CASES {
        let ast1 = random_formula(&mut rng, 3);
        let ast2 = random_formula(&mut rng, 3);
        let seed = rng.next();
        let mut ctx = Context::new();
        let a = lower(&mut ctx, &ast1);
        let b = lower(&mut ctx, &ast2);
        let conj = ctx.and(a, b);
        let lhs = ctx.not(conj);
        let na = ctx.not(a);
        let nb = ctx.not(b);
        let rhs = ctx.or(na, nb);
        let interp = interpretation_from_seed(&mut ctx, seed);
        let mut ev = Evaluator::new(&ctx, interp);
        assert_eq!(ev.eval_formula(lhs), ev.eval_formula(rhs));
    }
}

/// The implication `a ⇒ a` is always true and `a ∧ ¬a` is always false.
#[test]
fn tautology_and_contradiction() {
    let mut rng = Rng(0xE0F4);
    for _ in 0..CASES {
        let ast = random_formula(&mut rng, 4);
        let seed = rng.next();
        let mut ctx = Context::new();
        let a = lower(&mut ctx, &ast);
        let taut = ctx.implies(a, a);
        let na = ctx.not(a);
        let contra = ctx.and(a, na);
        let interp = interpretation_from_seed(&mut ctx, seed);
        let mut ev = Evaluator::new(&ctx, interp);
        assert!(ev.eval_formula(taut));
        assert!(!ev.eval_formula(contra));
    }
}

/// Equation evaluation agrees with the values of its sides.
#[test]
fn equation_matches_term_values() {
    let mut rng = Rng(0xE0F5);
    for _ in 0..CASES {
        let t1 = random_term(&mut rng, 3);
        let t2 = random_term(&mut rng, 3);
        let seed = rng.next();
        let mut ctx = Context::new();
        let a = lower_term(&mut ctx, &t1);
        let b = lower_term(&mut ctx, &t2);
        let eq = ctx.eq(a, b);
        let interp = interpretation_from_seed(&mut ctx, seed);
        let mut ev = Evaluator::new(&ctx, interp);
        let va = ev.eval_term(a).as_data();
        let vb = ev.eval_term(b).as_data();
        assert_eq!(ev.eval_formula(eq), va == vb);
    }
}

/// Every equation reported by the polarity analysis is reachable, and the
/// g/p symbol sets are disjoint.
#[test]
fn polarity_classification_is_consistent() {
    let mut rng = Rng(0xE0F6);
    for _ in 0..CASES {
        let ast = random_formula(&mut rng, 4);
        let mut ctx = Context::new();
        let f = lower(&mut ctx, &ast);
        let analysis = PolarityAnalysis::run(&ctx, f);
        for sym in &analysis.p_symbols {
            assert!(!analysis.g_symbols.contains(sym));
        }
        let support = Support::of_formula(&ctx, f);
        for eq in analysis.equations.keys() {
            // Equations found by the analysis mention only variables in the support.
            let eq_support = Support::of_formula(&ctx, *eq);
            for v in &eq_support.term_vars {
                assert!(support.term_vars.contains(v));
            }
        }
    }
}
