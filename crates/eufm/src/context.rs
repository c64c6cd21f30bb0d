//! The hash-consing expression context and its construction API.

use crate::idhash::{hash_words, IdTable};
use crate::node::{Formula, FormulaId, Term, TermId};
use crate::symbols::{Symbol, SymbolTable};

/// Owner of all EUFM expressions of one verification problem.
///
/// Every term and formula is *hash-consed*: building the same node twice returns
/// the same identifier, so the expressions form a shared DAG.  All builder
/// methods apply cheap local simplifications (constant folding, `x = x`,
/// double negation, identical ITE branches) which keeps the DAG small without
/// changing its meaning.
///
/// Each node is stored once, in the context's term or formula vector; the
/// hash-consing index is an open-addressing table of node ids, hashed with
/// [`IdHasher`](crate::IdHasher) over the node the id names.  The hasher does
/// not resist hash flooding; that is sound because every node is built by
/// the program itself (see the [`idhash`](crate::idhash) module docs).
///
/// # Example
///
/// ```
/// use velv_eufm::Context;
///
/// let mut ctx = Context::new();
/// let x = ctx.term_var("x");
/// let same = ctx.eq(x, x);
/// assert_eq!(same, ctx.true_id());
/// ```
#[derive(Debug, Default, Clone)]
pub struct Context {
    symbols: SymbolTable,
    terms: Vec<Term>,
    /// Hash-consing index of `terms`.
    term_index: IdTable,
    formulas: Vec<Formula>,
    /// Hash-consing index of `formulas`.
    formula_index: IdTable,
    fresh_counter: u64,
}

/// The hash of an application of `sym` to `args` under kind `tag`.
fn app_hash(tag: u32, sym: Symbol, args: &[TermId]) -> u64 {
    hash_words([tag, sym.0].into_iter().chain(args.iter().map(|a| a.0)))
}

/// The kind tags of applications in [`term_hash`] and [`formula_hash`].
const UF_TAG: u32 = 1;
const UP_TAG: u32 = 3;

/// A term node's hash: a kind tag, then its symbol and children in order.
fn term_hash(term: &Term) -> u64 {
    match term {
        Term::Var(s) => hash_words([0, s.0]),
        Term::Uf(s, args) => app_hash(UF_TAG, *s, args),
        Term::Ite(c, t, e) => hash_words([2, c.0, t.0, e.0]),
        Term::Read(m, a) => hash_words([3, m.0, a.0]),
        Term::Write(m, a, d) => hash_words([4, m.0, a.0, d.0]),
    }
}

/// A formula node's hash: a kind tag, then its symbol and children in order.
fn formula_hash(formula: &Formula) -> u64 {
    match formula {
        Formula::True => hash_words([0]),
        Formula::False => hash_words([1]),
        Formula::Var(s) => hash_words([2, s.0]),
        Formula::Up(s, args) => app_hash(UP_TAG, *s, args),
        Formula::Not(f) => hash_words([4, f.0]),
        Formula::And(a, b) => hash_words([5, a.0, b.0]),
        Formula::Or(a, b) => hash_words([6, a.0, b.0]),
        Formula::Ite(c, t, e) => hash_words([7, c.0, t.0, e.0]),
        Formula::Eq(a, b) => hash_words([8, a.0, b.0]),
    }
}

impl Context {
    /// Creates a context containing only the Boolean constants.
    pub fn new() -> Self {
        let mut ctx = Context::default();
        // Intern the constants first so that their ids are stable (0 = true, 1 = false).
        let t = ctx.intern_formula(Formula::True);
        let f = ctx.intern_formula(Formula::False);
        debug_assert_eq!(t.index(), 0);
        debug_assert_eq!(f.index(), 1);
        ctx
    }

    // ------------------------------------------------------------------
    // Symbols
    // ------------------------------------------------------------------

    /// Interns a name and returns its symbol.
    pub fn symbol(&mut self, name: &str) -> Symbol {
        self.symbols.intern(name)
    }

    /// Returns the name of a symbol.
    pub fn symbol_name(&self, sym: Symbol) -> &str {
        self.symbols.name(sym)
    }

    /// Read-only access to the symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    // ------------------------------------------------------------------
    // Interning primitives
    // ------------------------------------------------------------------

    fn intern_term(&mut self, node: Term) -> TermId {
        let hash = term_hash(&node);
        let terms = &self.terms;
        match self.term_index.get(hash, |id| terms[id as usize] == node) {
            Some(id) => TermId(id),
            None => self.push_term(hash, node),
        }
    }

    /// Appends a term not in the context yet; `hash` is its [`term_hash`].
    fn push_term(&mut self, hash: u64, node: Term) -> TermId {
        let id = self.terms.len() as u32;
        self.terms.push(node);
        let terms = &self.terms;
        self.term_index
            .insert(hash, id, |id| term_hash(&terms[id as usize]));
        TermId(id)
    }

    fn intern_formula(&mut self, node: Formula) -> FormulaId {
        let hash = formula_hash(&node);
        let formulas = &self.formulas;
        match self
            .formula_index
            .get(hash, |id| formulas[id as usize] == node)
        {
            Some(id) => FormulaId(id),
            None => self.push_formula(hash, node),
        }
    }

    /// Appends a formula not in the context yet; `hash` is its
    /// [`formula_hash`].
    fn push_formula(&mut self, hash: u64, node: Formula) -> FormulaId {
        let id = self.formulas.len() as u32;
        self.formulas.push(node);
        let formulas = &self.formulas;
        self.formula_index
            .insert(hash, id, |id| formula_hash(&formulas[id as usize]));
        FormulaId(id)
    }

    // ------------------------------------------------------------------
    // Node access
    // ------------------------------------------------------------------

    /// Returns the node for a term id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this context.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Returns the node for a formula id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this context.
    pub fn formula(&self, id: FormulaId) -> &Formula {
        &self.formulas[id.index()]
    }

    /// Whether `id` refers to a valid term of this context.
    pub fn is_term(&self, id: TermId) -> bool {
        id.index() < self.terms.len()
    }

    /// Whether `id` refers to a valid formula of this context.
    pub fn is_formula(&self, id: FormulaId) -> bool {
        id.index() < self.formulas.len()
    }

    /// Number of distinct term nodes.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Number of distinct formula nodes (including the two constants).
    pub fn num_formulas(&self) -> usize {
        self.formulas.len()
    }

    /// The constant `true`.
    pub fn true_id(&self) -> FormulaId {
        FormulaId(0)
    }

    /// The constant `false`.
    pub fn false_id(&self) -> FormulaId {
        FormulaId(1)
    }

    /// Whether `id` is the constant `true`.
    pub fn is_true(&self, id: FormulaId) -> bool {
        id == self.true_id()
    }

    /// Whether `id` is the constant `false`.
    pub fn is_false(&self, id: FormulaId) -> bool {
        id == self.false_id()
    }

    // ------------------------------------------------------------------
    // Term builders
    // ------------------------------------------------------------------

    /// A term variable with the given name.
    pub fn term_var(&mut self, name: &str) -> TermId {
        let sym = self.symbols.intern(name);
        self.intern_term(Term::Var(sym))
    }

    /// A fresh term variable whose name starts with `prefix` and is guaranteed
    /// not to collide with any previously created variable of this context.
    pub fn fresh_term_var(&mut self, prefix: &str) -> TermId {
        let name = self.fresh_name(prefix);
        self.term_var(&name)
    }

    /// An uninterpreted-function application `name(args...)`.
    ///
    /// A zero-argument application is canonicalised into a term variable so
    /// that `f()` and the variable `f` denote the same node.  The argument
    /// list is copied only when the application is new.
    pub fn uf(&mut self, name: &str, args: &[TermId]) -> TermId {
        let sym = self.symbols.intern(name);
        if args.is_empty() {
            return self.intern_term(Term::Var(sym));
        }
        let hash = app_hash(UF_TAG, sym, args);
        let terms = &self.terms;
        let found = self.term_index.get(
            hash,
            |id| matches!(&terms[id as usize], Term::Uf(s, a) if *s == sym && a[..] == *args),
        );
        match found {
            Some(id) => TermId(id),
            None => self.push_term(hash, Term::Uf(sym, args.to_vec())),
        }
    }

    /// `ITE(cond, then_t, else_t)` over terms.
    pub fn ite_term(&mut self, cond: FormulaId, then_t: TermId, else_t: TermId) -> TermId {
        if self.is_true(cond) {
            return then_t;
        }
        if self.is_false(cond) {
            return else_t;
        }
        if then_t == else_t {
            return then_t;
        }
        self.intern_term(Term::Ite(cond, then_t, else_t))
    }

    /// Interpreted memory read `read(mem, addr)`.
    pub fn read(&mut self, mem: TermId, addr: TermId) -> TermId {
        self.intern_term(Term::Read(mem, addr))
    }

    /// Interpreted memory write `write(mem, addr, data)`.
    pub fn write(&mut self, mem: TermId, addr: TermId, data: TermId) -> TermId {
        self.intern_term(Term::Write(mem, addr, data))
    }

    // ------------------------------------------------------------------
    // Formula builders
    // ------------------------------------------------------------------

    /// A propositional variable with the given name.
    pub fn prop_var(&mut self, name: &str) -> FormulaId {
        let sym = self.symbols.intern(name);
        self.intern_formula(Formula::Var(sym))
    }

    /// A fresh propositional variable whose name starts with `prefix`.
    pub fn fresh_prop_var(&mut self, prefix: &str) -> FormulaId {
        let name = self.fresh_name(prefix);
        self.prop_var(&name)
    }

    /// An uninterpreted-predicate application `name(args...)`.
    ///
    /// A zero-argument application is canonicalised into a propositional
    /// variable.  The argument list is copied only when the application is
    /// new.
    pub fn up(&mut self, name: &str, args: &[TermId]) -> FormulaId {
        let sym = self.symbols.intern(name);
        if args.is_empty() {
            return self.intern_formula(Formula::Var(sym));
        }
        let hash = app_hash(UP_TAG, sym, args);
        let formulas = &self.formulas;
        let found = self.formula_index.get(
            hash,
            |id| matches!(&formulas[id as usize], Formula::Up(s, a) if *s == sym && a[..] == *args),
        );
        match found {
            Some(id) => FormulaId(id),
            None => self.push_formula(hash, Formula::Up(sym, args.to_vec())),
        }
    }

    /// The equation `lhs = rhs`.
    ///
    /// Syntactically identical sides fold to `true`; operands are ordered so
    /// that `eq(a, b)` and `eq(b, a)` share a node.
    pub fn eq(&mut self, lhs: TermId, rhs: TermId) -> FormulaId {
        if lhs == rhs {
            return self.true_id();
        }
        let (a, b) = if lhs.0 <= rhs.0 {
            (lhs, rhs)
        } else {
            (rhs, lhs)
        };
        self.intern_formula(Formula::Eq(a, b))
    }

    /// Negation `¬f` with constant folding and double-negation elimination.
    pub fn not(&mut self, f: FormulaId) -> FormulaId {
        if self.is_true(f) {
            return self.false_id();
        }
        if self.is_false(f) {
            return self.true_id();
        }
        if let Formula::Not(inner) = self.formula(f) {
            return *inner;
        }
        self.intern_formula(Formula::Not(f))
    }

    /// Conjunction `a ∧ b`.
    pub fn and(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        if self.is_false(a) || self.is_false(b) {
            return self.false_id();
        }
        if self.is_true(a) {
            return b;
        }
        if self.is_true(b) {
            return a;
        }
        if a == b {
            return a;
        }
        let (x, y) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.intern_formula(Formula::And(x, y))
    }

    /// Disjunction `a ∨ b`.
    pub fn or(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        if self.is_true(a) || self.is_true(b) {
            return self.true_id();
        }
        if self.is_false(a) {
            return b;
        }
        if self.is_false(b) {
            return a;
        }
        if a == b {
            return a;
        }
        let (x, y) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.intern_formula(Formula::Or(x, y))
    }

    /// N-ary conjunction. The empty conjunction is `true`.
    pub fn and_many<I: IntoIterator<Item = FormulaId>>(&mut self, fs: I) -> FormulaId {
        let mut acc = self.true_id();
        for f in fs {
            acc = self.and(acc, f);
        }
        acc
    }

    /// N-ary disjunction. The empty disjunction is `false`.
    pub fn or_many<I: IntoIterator<Item = FormulaId>>(&mut self, fs: I) -> FormulaId {
        let mut acc = self.false_id();
        for f in fs {
            acc = self.or(acc, f);
        }
        acc
    }

    /// Implication `a ⇒ b`, expressed as `¬a ∨ b`.
    pub fn implies(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// Biconditional `a ⇔ b`.
    pub fn iff(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        if a == b {
            return self.true_id();
        }
        let ab = self.implies(a, b);
        let ba = self.implies(b, a);
        self.and(ab, ba)
    }

    /// Exclusive or `a ⊕ b`.
    pub fn xor(&mut self, a: FormulaId, b: FormulaId) -> FormulaId {
        let e = self.iff(a, b);
        self.not(e)
    }

    /// `ITE(cond, then_f, else_f)` over formulas.
    pub fn ite_formula(
        &mut self,
        cond: FormulaId,
        then_f: FormulaId,
        else_f: FormulaId,
    ) -> FormulaId {
        if self.is_true(cond) {
            return then_f;
        }
        if self.is_false(cond) {
            return else_f;
        }
        if then_f == else_f {
            return then_f;
        }
        if self.is_true(then_f) && self.is_false(else_f) {
            return cond;
        }
        if self.is_false(then_f) && self.is_true(else_f) {
            return self.not(cond);
        }
        self.intern_formula(Formula::Ite(cond, then_f, else_f))
    }

    // ------------------------------------------------------------------
    // Misc
    // ------------------------------------------------------------------

    fn fresh_name(&mut self, prefix: &str) -> String {
        loop {
            let name = format!("{prefix}#{}", self.fresh_counter);
            self.fresh_counter += 1;
            if self.symbols.lookup(&name).is_none() {
                return name;
            }
        }
    }

    /// Iterates over all term ids in creation (topological) order.
    pub fn term_ids(&self) -> impl Iterator<Item = TermId> {
        (0..self.terms.len() as u32).map(TermId)
    }

    /// Iterates over all formula ids in creation (topological) order.
    pub fn formula_ids(&self) -> impl Iterator<Item = FormulaId> {
        (0..self.formulas.len() as u32).map(FormulaId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_fixed_ids() {
        let ctx = Context::new();
        assert!(ctx.is_true(ctx.true_id()));
        assert!(ctx.is_false(ctx.false_id()));
        assert_ne!(ctx.true_id(), ctx.false_id());
    }

    #[test]
    fn hash_consing_shares_nodes() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let f1 = ctx.uf("f", &[a, b]);
        let f2 = ctx.uf("f", &[a, b]);
        assert_eq!(f1, f2);
        let g = ctx.uf("f", &[b, a]);
        assert_ne!(f1, g);
    }

    #[test]
    fn argument_vectors_are_hash_consed_by_content() {
        let mut ctx = Context::new();
        let args: Vec<TermId> = (0..5).map(|i| ctx.term_var(&format!("x{i}"))).collect();
        for len in 1..=args.len() {
            let uf = ctx.uf("f", &args[..len]);
            assert_eq!(uf, ctx.uf("f", &args[..len]));
            let up = ctx.up("p", &args[..len]);
            assert_eq!(up, ctx.up("p", &args[..len]));
        }
        // Prefixes, permutations and other symbols are distinct nodes.
        let nodes = ctx.num_terms();
        let prefix = ctx.uf("f", &args[..2]);
        let extended = ctx.uf("f", &args[..3]);
        let swapped = ctx.uf("f", &[args[1], args[0]]);
        let other = ctx.uf("g", &args[..2]);
        assert_eq!(ctx.num_terms(), nodes + 2, "only the swap and `g` are new");
        assert_ne!(prefix, extended);
        assert_ne!(prefix, swapped);
        assert_ne!(prefix, other);
        let p = ctx.up("p", &args[..2]);
        let q = ctx.up("p", &[args[1], args[0]]);
        assert_ne!(p, q);
    }

    #[test]
    fn zero_arity_uf_is_a_variable() {
        let mut ctx = Context::new();
        let v = ctx.term_var("f");
        let app = ctx.uf("f", &[]);
        assert_eq!(v, app);
    }

    #[test]
    fn eq_is_reflexive_and_symmetric_in_representation() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        assert_eq!(ctx.eq(a, a), ctx.true_id());
        assert_eq!(ctx.eq(a, b), ctx.eq(b, a));
    }

    #[test]
    fn boolean_simplifications() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("p");
        let t = ctx.true_id();
        let f = ctx.false_id();
        assert_eq!(ctx.and(p, t), p);
        assert_eq!(ctx.and(p, f), f);
        assert_eq!(ctx.or(p, f), p);
        assert_eq!(ctx.or(p, t), t);
        assert_eq!(ctx.and(p, p), p);
        assert_eq!(ctx.or(p, p), p);
        let np = ctx.not(p);
        assert_eq!(ctx.not(np), p);
        assert_eq!(ctx.not(t), f);
    }

    #[test]
    fn commutative_operands_share_a_node() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("p");
        let q = ctx.prop_var("q");
        assert_eq!(ctx.and(p, q), ctx.and(q, p));
        assert_eq!(ctx.or(p, q), ctx.or(q, p));
    }

    #[test]
    fn ite_simplifications() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("p");
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let t = ctx.true_id();
        let f = ctx.false_id();
        assert_eq!(ctx.ite_term(t, a, b), a);
        assert_eq!(ctx.ite_term(f, a, b), b);
        assert_eq!(ctx.ite_term(p, a, a), a);
        assert_eq!(ctx.ite_formula(p, t, f), p);
        let np = ctx.not(p);
        assert_eq!(ctx.ite_formula(p, f, t), np);
        let q = ctx.prop_var("q");
        assert_eq!(ctx.ite_formula(p, q, q), q);
    }

    #[test]
    fn implies_iff_xor() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("p");
        let t = ctx.true_id();
        let f = ctx.false_id();
        assert_eq!(ctx.implies(f, p), t);
        assert_eq!(ctx.implies(p, t), t);
        assert_eq!(ctx.implies(t, p), p);
        assert_eq!(ctx.iff(p, p), t);
        assert_eq!(ctx.xor(p, p), f);
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut ctx = Context::new();
        let a = ctx.fresh_term_var("tmp");
        let b = ctx.fresh_term_var("tmp");
        assert_ne!(a, b);
        let p = ctx.fresh_prop_var("aux");
        let q = ctx.fresh_prop_var("aux");
        assert_ne!(p, q);
    }

    #[test]
    fn and_many_or_many() {
        let mut ctx = Context::new();
        let ps: Vec<_> = (0..4).map(|i| ctx.prop_var(&format!("p{i}"))).collect();
        let empty_and = ctx.and_many([]);
        let empty_or = ctx.or_many([]);
        assert_eq!(empty_and, ctx.true_id());
        assert_eq!(empty_or, ctx.false_id());
        let all = ctx.and_many(ps.iter().copied());
        let any = ctx.or_many(ps.iter().copied());
        assert!(ctx.is_formula(all));
        assert!(ctx.is_formula(any));
        assert_ne!(all, any);
    }
}
