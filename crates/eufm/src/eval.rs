//! Concrete evaluation of EUFM expressions.
//!
//! The evaluator interprets term variables over `u64` values, propositional
//! variables over Booleans, uninterpreted functions/predicates as lazily
//! memoised tables (which enforces functional consistency), and memory states
//! as write lists over an abstract initial memory.
//!
//! It is used to validate counterexamples produced by the SAT back ends and
//! as the reference semantics in differential property tests of the
//! propositional translation.

use crate::context::Context;
use crate::idhash::IdMap;
use crate::node::{Formula, FormulaId, Term, TermId};
use crate::symbols::Symbol;
use std::collections::HashMap;

/// A concrete value of a term.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A word-level data value.
    Data(u64),
    /// A memory-array state: an abstract base (initial content generator) plus
    /// the list of writes applied so far, oldest first.
    Mem {
        /// Identifies the initial memory content.
        base: u64,
        /// `(address, data)` pairs in program order.
        writes: Vec<(u64, u64)>,
    },
}

impl Value {
    /// Collapses the value to a `u64` fingerprint (used when a memory state is
    /// passed as an argument to an uninterpreted function).
    pub fn fingerprint(&self) -> u64 {
        match self {
            Value::Data(v) => *v,
            Value::Mem { base, writes } => {
                let mut h = mix(0x6d656d, *base);
                for (a, d) in writes {
                    h = mix(h, mix(*a, *d));
                }
                h
            }
        }
    }

    /// Returns the data value, treating a memory state as its fingerprint.
    pub fn as_data(&self) -> u64 {
        self.fingerprint()
    }
}

fn mix(a: u64, b: u64) -> u64 {
    // SplitMix64-style deterministic mixing; good enough for default values.
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b)
        .wrapping_add(0x1234_5678_9abc_def1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An interpretation of the free symbols of a formula.
///
/// Anything left unspecified receives a deterministic default derived from the
/// symbol and argument values, which keeps uninterpreted functions
/// functionally consistent and makes unconstrained term variables pairwise
/// distinct with overwhelming probability (a "maximally diverse" default).
#[derive(Clone, Debug, Default)]
pub struct Interpretation {
    /// Values of term variables.
    pub term_vars: HashMap<Symbol, u64>,
    /// Values of propositional variables.
    pub prop_vars: HashMap<Symbol, bool>,
    /// Explicit uninterpreted-function entries `(f, args) -> value`.
    pub uf_entries: HashMap<(Symbol, Vec<u64>), u64>,
    /// Explicit uninterpreted-predicate entries `(P, args) -> value`.
    pub up_entries: HashMap<(Symbol, Vec<u64>), bool>,
}

impl Interpretation {
    /// Creates an empty interpretation (all defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value of a term variable by name.
    pub fn set_term_var(&mut self, ctx: &mut Context, name: &str, value: u64) -> &mut Self {
        let sym = ctx.symbol(name);
        self.term_vars.insert(sym, value);
        self
    }

    /// Sets the value of a propositional variable by name.
    pub fn set_prop_var(&mut self, ctx: &mut Context, name: &str, value: bool) -> &mut Self {
        let sym = ctx.symbol(name);
        self.prop_vars.insert(sym, value);
        self
    }
}

/// Evaluates `root` under `interp` with a throwaway [`Evaluator`]: the
/// convenience entry point of counterexample validation, where a lifted SAT
/// model is replayed against the encoded correctness formula.
pub fn evaluate(ctx: &Context, interp: &Interpretation, root: FormulaId) -> bool {
    Evaluator::new(ctx, interp.clone()).eval_formula(root)
}

/// Evaluates expressions of one [`Context`] under an [`Interpretation`].
#[derive(Debug)]
pub struct Evaluator<'a> {
    ctx: &'a Context,
    interp: Interpretation,
    uf_memo: HashMap<(Symbol, Vec<u64>), u64>,
    up_memo: HashMap<(Symbol, Vec<u64>), bool>,
    term_cache: IdMap<TermId, Value>,
    /// Values of evaluated formulas by id: `None` until evaluated.
    formula_cache: Vec<Option<bool>>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator over `ctx` with the given interpretation.
    pub fn new(ctx: &'a Context, interp: Interpretation) -> Self {
        Evaluator {
            ctx,
            uf_memo: interp.uf_entries.clone(),
            up_memo: interp.up_entries.clone(),
            interp,
            term_cache: IdMap::default(),
            formula_cache: vec![None; ctx.num_formulas()],
        }
    }

    /// Evaluates a term.
    pub fn eval_term(&mut self, id: TermId) -> Value {
        if let Some(v) = self.term_cache.get(&id) {
            return v.clone();
        }
        let value = match self.ctx.term(id).clone() {
            Term::Var(sym) => {
                let v = self
                    .interp
                    .term_vars
                    .get(&sym)
                    .copied()
                    .unwrap_or_else(|| mix(0x7661_7200, sym.index() as u64));
                Value::Data(v)
            }
            Term::Uf(sym, args) => {
                let arg_vals: Vec<u64> =
                    args.iter().map(|a| self.eval_term(*a).as_data()).collect();
                let key = (sym, arg_vals);
                let v = if let Some(v) = self.uf_memo.get(&key) {
                    *v
                } else {
                    let mut h = mix(0x7566_0000, sym.index() as u64);
                    for a in &key.1 {
                        h = mix(h, *a);
                    }
                    self.uf_memo.insert(key, h);
                    h
                };
                Value::Data(v)
            }
            Term::Ite(c, a, b) => {
                if self.eval_formula(c) {
                    self.eval_term(a)
                } else {
                    self.eval_term(b)
                }
            }
            Term::Read(m, a) => {
                let mem = self.eval_term(m);
                let addr = self.eval_term(a).as_data();
                Value::Data(read_mem(&mem, addr))
            }
            Term::Write(m, a, d) => {
                let mem = self.eval_term(m);
                let addr = self.eval_term(a).as_data();
                let data = self.eval_term(d).as_data();
                let (base, mut writes) = match mem {
                    Value::Mem { base, writes } => (base, writes),
                    Value::Data(v) => (v, Vec::new()),
                };
                writes.push((addr, data));
                Value::Mem { base, writes }
            }
        };
        self.term_cache.insert(id, value.clone());
        value
    }

    /// Evaluates a formula.
    pub fn eval_formula(&mut self, id: FormulaId) -> bool {
        if let Some(v) = self.formula_cache[id.index()] {
            return v;
        }
        let value = match self.ctx.formula(id).clone() {
            Formula::True => true,
            Formula::False => false,
            Formula::Var(sym) => self
                .interp
                .prop_vars
                .get(&sym)
                .copied()
                .unwrap_or_else(|| mix(0x7076_0000, sym.index() as u64) & 1 == 1),
            Formula::Up(sym, args) => {
                let arg_vals: Vec<u64> =
                    args.iter().map(|a| self.eval_term(*a).as_data()).collect();
                let key = (sym, arg_vals);
                if let Some(v) = self.up_memo.get(&key) {
                    *v
                } else {
                    let mut h = mix(0x7570_0000, sym.index() as u64);
                    for a in &key.1 {
                        h = mix(h, *a);
                    }
                    let v = h & 1 == 1;
                    self.up_memo.insert(key, v);
                    v
                }
            }
            Formula::Not(a) => !self.eval_formula(a),
            Formula::And(a, b) => self.eval_formula(a) && self.eval_formula(b),
            Formula::Or(a, b) => self.eval_formula(a) || self.eval_formula(b),
            Formula::Ite(c, a, b) => {
                if self.eval_formula(c) {
                    self.eval_formula(a)
                } else {
                    self.eval_formula(b)
                }
            }
            Formula::Eq(a, b) => {
                let va = self.eval_term(a);
                let vb = self.eval_term(b);
                match (&va, &vb) {
                    (Value::Data(x), Value::Data(y)) => x == y,
                    _ => mem_equal(&va, &vb),
                }
            }
        };
        self.formula_cache[id.index()] = Some(value);
        value
    }

    /// Returns the interpretation the evaluator was constructed with.
    pub fn interpretation(&self) -> &Interpretation {
        &self.interp
    }
}

fn read_mem(mem: &Value, addr: u64) -> u64 {
    match mem {
        Value::Data(base) => mix(0x7264_0000, mix(*base, addr)),
        Value::Mem { base, writes } => {
            for (a, d) in writes.iter().rev() {
                if *a == addr {
                    return *d;
                }
            }
            mix(0x7264_0000, mix(*base, addr))
        }
    }
}

/// Extensional comparison of two memory values over the addresses mentioned in
/// either write list (plus the bases for the unwritten remainder).
fn mem_equal(a: &Value, b: &Value) -> bool {
    let addresses: Vec<u64> = {
        let mut v = Vec::new();
        for m in [a, b] {
            if let Value::Mem { writes, .. } = m {
                v.extend(writes.iter().map(|(addr, _)| *addr));
            }
        }
        v.sort_unstable();
        v.dedup();
        v
    };
    for addr in &addresses {
        if read_mem(a, *addr) != read_mem(b, *addr) {
            return false;
        }
    }
    // Same default content for unwritten addresses.
    let base_a = match a {
        Value::Data(v) => *v,
        Value::Mem { base, .. } => *base,
    };
    let base_b = match b {
        Value::Data(v) => *v,
        Value::Mem { base, .. } => *base,
    };
    base_a == base_b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_lookup_and_default() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let mut interp = Interpretation::new();
        interp.set_term_var(&mut ctx, "a", 42);
        let mut ev = Evaluator::new(&ctx, interp);
        assert_eq!(ev.eval_term(a), Value::Data(42));
        // Unspecified variable gets a deterministic default.
        let vb1 = ev.eval_term(b);
        let vb2 = ev.eval_term(b);
        assert_eq!(vb1, vb2);
    }

    #[test]
    fn uf_is_functionally_consistent() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let fa = ctx.uf("f", &[a]);
        let fb = ctx.uf("f", &[b]);
        let mut interp = Interpretation::new();
        interp.set_term_var(&mut ctx, "a", 7);
        interp.set_term_var(&mut ctx, "b", 7);
        let eq = ctx.eq(fa, fb);
        let mut ev = Evaluator::new(&ctx, interp);
        assert!(ev.eval_formula(eq), "equal args must give equal UF results");
    }

    #[test]
    fn memory_forwarding_semantics() {
        let mut ctx = Context::new();
        let mem = ctx.term_var("mem0");
        let a1 = ctx.term_var("a1");
        let a2 = ctx.term_var("a2");
        let d1 = ctx.term_var("d1");
        let w = ctx.write(mem, a1, d1);
        let r_same = ctx.read(w, a1);
        let r_other = ctx.read(w, a2);
        let r_init_other = ctx.read(mem, a2);
        let mut interp = Interpretation::new();
        interp.set_term_var(&mut ctx, "a1", 1);
        interp.set_term_var(&mut ctx, "a2", 2);
        interp.set_term_var(&mut ctx, "d1", 99);
        let same_eq = ctx.eq(r_same, d1);
        let other_eq = ctx.eq(r_other, r_init_other);
        let mut ev = Evaluator::new(&ctx, interp);
        assert!(
            ev.eval_formula(same_eq),
            "read after write to same address returns the data"
        );
        assert!(
            ev.eval_formula(other_eq),
            "read of other address falls through to initial state"
        );
    }

    #[test]
    fn memory_write_aliasing() {
        let mut ctx = Context::new();
        let mem = ctx.term_var("mem0");
        let a1 = ctx.term_var("a1");
        let a2 = ctx.term_var("a2");
        let d1 = ctx.term_var("d1");
        let d2 = ctx.term_var("d2");
        let w1 = ctx.write(mem, a1, d1);
        let w2 = ctx.write(w1, a2, d2);
        let r = ctx.read(w2, a1);
        // When a1 == a2 the later write wins.
        let mut interp = Interpretation::new();
        interp.set_term_var(&mut ctx, "a1", 5);
        interp.set_term_var(&mut ctx, "a2", 5);
        interp.set_term_var(&mut ctx, "d1", 10);
        interp.set_term_var(&mut ctx, "d2", 20);
        let got_d2 = ctx.eq(r, d2);
        let mut ev = Evaluator::new(&ctx, interp);
        assert!(ev.eval_formula(got_d2));
    }

    #[test]
    fn formula_connectives() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("p");
        let q = ctx.prop_var("q");
        let conj = ctx.and(p, q);
        let disj = ctx.or(p, q);
        let imp = ctx.implies(p, q);
        let mut interp = Interpretation::new();
        interp.set_prop_var(&mut ctx, "p", true);
        interp.set_prop_var(&mut ctx, "q", false);
        let mut ev = Evaluator::new(&ctx, interp);
        assert!(!ev.eval_formula(conj));
        assert!(ev.eval_formula(disj));
        assert!(!ev.eval_formula(imp));
    }

    #[test]
    fn ite_selects_branch() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("sel");
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let t = ctx.ite_term(p, a, b);
        let picks_a = ctx.eq(t, a);
        let picks_b = ctx.eq(t, b);
        let mut interp = Interpretation::new();
        interp.set_prop_var(&mut ctx, "sel", true);
        interp.set_term_var(&mut ctx, "a", 1);
        interp.set_term_var(&mut ctx, "b", 2);
        let mut ev = Evaluator::new(&ctx, interp.clone());
        assert!(ev.eval_formula(picks_a));
        interp.set_prop_var(&mut ctx, "sel", false);
        let mut ev = Evaluator::new(&ctx, interp);
        assert!(ev.eval_formula(picks_b));
    }
}
