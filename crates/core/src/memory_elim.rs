//! Elimination of the interpreted memory functions `read` and `write`.
//!
//! Two modes, matching the paper:
//!
//! * **Precise** (default): reads are pushed through writes and `ITE`s using
//!   the forwarding property of the memory semantics, ultimately bottoming out
//!   in a fresh uninterpreted function `rd#<mem>` that abstracts the initial
//!   memory content.  Equations between memory states are rewritten into data
//!   equations at a fresh symbolic address (extensionality at one arbitrary
//!   address, which is exact for the positively occurring state comparisons of
//!   the correctness criterion).
//! * **Conservative** ("automatically abstracted memories", Section 8): reads
//!   and writes of the designated memories become applications of completely
//!   general uninterpreted functions `absrd#<mem>` / `abswr#<mem>` that do not
//!   satisfy the forwarding property.  This can only make verification harder
//!   (false negatives), never unsound.

use std::collections::{BTreeSet, HashMap};
use velv_eufm::{Context, Formula, FormulaId, Symbol, Term, TermId};

/// Result of memory elimination.
#[derive(Clone, Debug)]
pub struct MemoryElimination {
    /// The rewritten formula (free of `read`/`write` nodes).
    pub formula: FormulaId,
    /// Fresh address variables introduced for memory-state equations.
    pub address_witnesses: Vec<Symbol>,
}

/// Eliminates all memory operations reachable from `root`.
///
/// `memory_vars` are the term variables that denote initial memory states
/// (register files, data memory, ...); `abstract_memories` is the subset that
/// must be abstracted conservatively instead of precisely.
pub fn eliminate_memories(
    ctx: &mut Context,
    root: FormulaId,
    memory_vars: &BTreeSet<Symbol>,
    abstract_memories: &BTreeSet<Symbol>,
) -> MemoryElimination {
    let mut elim = Eliminator {
        memory_vars,
        abstract_memories,
        term_memo: HashMap::new(),
        formula_memo: HashMap::new(),
        read_memo: HashMap::new(),
        witnesses: Vec::new(),
    };
    let formula = elim.rewrite_formula(ctx, root);
    MemoryElimination {
        formula,
        address_witnesses: elim.witnesses,
    }
}

struct Eliminator<'a> {
    memory_vars: &'a BTreeSet<Symbol>,
    abstract_memories: &'a BTreeSet<Symbol>,
    term_memo: HashMap<TermId, TermId>,
    formula_memo: HashMap<FormulaId, FormulaId>,
    read_memo: HashMap<(TermId, TermId), TermId>,
    witnesses: Vec<Symbol>,
}

impl Eliminator<'_> {
    /// Whether the term denotes a memory state (reaches a `write` or an
    /// initial-memory variable through value positions).
    fn is_memory_term(&self, ctx: &Context, t: TermId) -> bool {
        let mut stack = vec![t];
        let mut seen = BTreeSet::new();
        while let Some(t) = stack.pop() {
            if !seen.insert(t) {
                continue;
            }
            match ctx.term(t) {
                Term::Var(sym) => {
                    if self.memory_vars.contains(sym) {
                        return true;
                    }
                }
                Term::Write(_, _, _) => return true,
                Term::Ite(_, a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
                Term::Uf(_, _) | Term::Read(_, _) => {}
            }
        }
        false
    }

    /// The base memory variables a memory-state term can be built from.
    fn base_memories(&self, ctx: &Context, t: TermId) -> BTreeSet<Symbol> {
        let mut bases = BTreeSet::new();
        let mut stack = vec![t];
        let mut seen = BTreeSet::new();
        while let Some(t) = stack.pop() {
            if !seen.insert(t) {
                continue;
            }
            match ctx.term(t) {
                Term::Var(sym) => {
                    if self.memory_vars.contains(sym) {
                        bases.insert(*sym);
                    }
                }
                Term::Write(m, _, _) => stack.push(*m),
                Term::Ite(_, a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
                Term::Uf(_, _) | Term::Read(_, _) => {}
            }
        }
        bases
    }

    fn uses_abstract_memory(&self, ctx: &Context, t: TermId) -> bool {
        self.base_memories(ctx, t)
            .iter()
            .any(|m| self.abstract_memories.contains(m))
    }

    fn rewrite_formula(&mut self, ctx: &mut Context, f: FormulaId) -> FormulaId {
        if let Some(&r) = self.formula_memo.get(&f) {
            return r;
        }
        let node = ctx.formula(f).clone();
        let result = match node {
            Formula::True | Formula::False | Formula::Var(_) => f,
            Formula::Up(sym, args) => {
                let name = ctx.symbol_name(sym).to_owned();
                let new_args: Vec<TermId> =
                    args.iter().map(|a| self.rewrite_term(ctx, *a)).collect();
                ctx.up(&name, &new_args)
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
            Formula::Eq(a, b) => {
                if self.is_memory_term(ctx, a) || self.is_memory_term(ctx, b) {
                    // Memory-state equation: compare the contents at a fresh
                    // symbolic address (extensionality witness).
                    let witness = ctx.fresh_term_var("maddr");
                    if let Term::Var(sym) = ctx.term(witness) {
                        self.witnesses.push(*sym);
                    }
                    let ra = self.rewrite_read(ctx, a, witness);
                    let rb = self.rewrite_read(ctx, b, witness);
                    ctx.eq(ra, rb)
                } else {
                    let ra = self.rewrite_term(ctx, a);
                    let rb = self.rewrite_term(ctx, b);
                    ctx.eq(ra, rb)
                }
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
            Term::Uf(sym, args) => {
                let name = ctx.symbol_name(sym).to_owned();
                let new_args: Vec<TermId> =
                    args.iter().map(|a| self.rewrite_term(ctx, *a)).collect();
                ctx.uf(&name, &new_args)
            }
            Term::Ite(c, a, b) => {
                let rc = self.rewrite_formula(ctx, c);
                let ra = self.rewrite_term(ctx, a);
                let rb = self.rewrite_term(ctx, b);
                ctx.ite_term(rc, ra, rb)
            }
            Term::Read(m, a) => {
                let addr = self.rewrite_term(ctx, a);
                self.rewrite_read(ctx, m, addr)
            }
            Term::Write(m, a, d) => {
                // A memory state in a value position outside a read/equation:
                // abstract it with a general UF (conservative but sound for the
                // validity check).
                let rm = self.rewrite_memory_state(ctx, m);
                let ra = self.rewrite_term(ctx, a);
                let rd = self.rewrite_term(ctx, d);
                let name = self.abstract_write_name(ctx, m);
                ctx.uf(&name, &[rm, ra, rd])
            }
        };
        self.term_memo.insert(t, result);
        result
    }

    /// Rewrites `read(mem, addr)` where `addr` is already rewritten.
    fn rewrite_read(&mut self, ctx: &mut Context, mem: TermId, addr: TermId) -> TermId {
        if let Some(&r) = self.read_memo.get(&(mem, addr)) {
            return r;
        }
        let result = if self.uses_abstract_memory(ctx, mem) {
            // Conservative abstraction: a general UF over (memory state, address).
            let rm = self.rewrite_memory_state(ctx, mem);
            let name = self.abstract_read_name(ctx, mem);
            ctx.uf(&name, &[rm, addr])
        } else {
            let node = ctx.term(mem).clone();
            match node {
                Term::Write(m2, a2, d2) => {
                    let ra2 = self.rewrite_term(ctx, a2);
                    let rd2 = self.rewrite_term(ctx, d2);
                    let hit = ctx.eq(addr, ra2);
                    let miss = self.rewrite_read(ctx, m2, addr);
                    ctx.ite_term(hit, rd2, miss)
                }
                Term::Ite(c, m1, m2) => {
                    let rc = self.rewrite_formula(ctx, c);
                    let r1 = self.rewrite_read(ctx, m1, addr);
                    let r2 = self.rewrite_read(ctx, m2, addr);
                    ctx.ite_term(rc, r1, r2)
                }
                Term::Var(sym) => {
                    let name = format!("rd#{}", ctx.symbol_name(sym));
                    ctx.uf(&name, &[addr])
                }
                Term::Uf(_, _) | Term::Read(_, _) => {
                    // A memory produced by an uninterpreted function (e.g. an
                    // already-abstracted memory): read it with a general UF.
                    let rm = self.rewrite_term(ctx, mem);
                    ctx.uf("absrd#uf", &[rm, addr])
                }
            }
        };
        self.read_memo.insert((mem, addr), result);
        result
    }

    /// Rewrites a memory-state term so that it can be passed to an abstract
    /// read/write UF: writes become `abswr#<mem>` applications.
    fn rewrite_memory_state(&mut self, ctx: &mut Context, mem: TermId) -> TermId {
        let node = ctx.term(mem).clone();
        match node {
            Term::Var(_) => mem,
            Term::Write(m, a, d) => {
                let rm = self.rewrite_memory_state(ctx, m);
                let ra = self.rewrite_term(ctx, a);
                let rd = self.rewrite_term(ctx, d);
                let name = self.abstract_write_name(ctx, m);
                ctx.uf(&name, &[rm, ra, rd])
            }
            Term::Ite(c, a, b) => {
                let rc = self.rewrite_formula(ctx, c);
                let ra = self.rewrite_memory_state(ctx, a);
                let rb = self.rewrite_memory_state(ctx, b);
                ctx.ite_term(rc, ra, rb)
            }
            _ => self.rewrite_term(ctx, mem),
        }
    }

    fn abstract_read_name(&self, ctx: &Context, mem: TermId) -> String {
        let bases = self.base_memories(ctx, mem);
        match bases.iter().next() {
            Some(sym) => format!("absrd#{}", ctx.symbol_name(*sym)),
            None => "absrd#anon".to_owned(),
        }
    }

    fn abstract_write_name(&self, ctx: &Context, mem: TermId) -> String {
        let bases = self.base_memories(ctx, mem);
        match bases.iter().next() {
            Some(sym) => format!("abswr#{}", ctx.symbol_name(*sym)),
            None => "abswr#anon".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velv_eufm::{DagStats, Evaluator, Interpretation};

    fn memory_set(ctx: &mut Context, names: &[&str]) -> BTreeSet<Symbol> {
        names.iter().map(|n| ctx.symbol(n)).collect()
    }

    #[test]
    fn read_over_write_becomes_forwarding_ite() {
        let mut ctx = Context::new();
        let mem = ctx.term_var("rf");
        let a1 = ctx.term_var("a1");
        let d1 = ctx.term_var("d1");
        let a2 = ctx.term_var("a2");
        let expected = ctx.term_var("expected");
        let written = ctx.write(mem, a1, d1);
        let read = ctx.read(written, a2);
        let root = ctx.eq(read, expected);
        let mems = memory_set(&mut ctx, &["rf"]);
        let result = eliminate_memories(&mut ctx, root, &mems, &BTreeSet::new());
        let stats = DagStats::of_formula(&ctx, result.formula);
        assert_eq!(stats.reads, 0);
        assert_eq!(stats.writes, 0);
        assert!(stats.term_ites >= 1, "forwarding ITE expected");
        assert!(stats.uf_apps >= 1, "initial-memory UF expected");
    }

    #[test]
    fn elimination_preserves_read_semantics() {
        let mut ctx = Context::new();
        let mem = ctx.term_var("rf");
        let a1 = ctx.term_var("a1");
        let d1 = ctx.term_var("d1");
        let a2 = ctx.term_var("a2");
        let written = ctx.write(mem, a1, d1);
        let read_hit = ctx.read(written, a1);
        let read_any = ctx.read(written, a2);
        let hit_eq = ctx.eq(read_hit, d1);
        let mems = memory_set(&mut ctx, &["rf"]);
        let hit_result = eliminate_memories(&mut ctx, hit_eq, &mems, &BTreeSet::new());
        // read(write(m,a1,d1), a1) = d1 must be valid after elimination too.
        assert!(ctx.is_true(hit_result.formula));

        // For a possibly different address the formula is conditional; check it
        // evaluates consistently with the original under a concrete interpretation.
        let any_eq = ctx.eq(read_any, d1);
        let any_result = eliminate_memories(&mut ctx, any_eq, &mems, &BTreeSet::new());
        let mut interp = Interpretation::new();
        interp.set_term_var(&mut ctx, "a1", 4);
        interp.set_term_var(&mut ctx, "a2", 4);
        interp.set_term_var(&mut ctx, "d1", 9);
        let mut ev = Evaluator::new(&ctx, interp);
        assert_eq!(ev.eval_formula(any_eq), ev.eval_formula(any_result.formula));
    }

    #[test]
    fn memory_state_equation_gets_an_address_witness() {
        let mut ctx = Context::new();
        let m1 = ctx.term_var("rf_impl");
        let m2 = ctx.term_var("rf_spec");
        let a = ctx.term_var("a");
        let d = ctx.term_var("d");
        let w1 = ctx.write(m1, a, d);
        let w2 = ctx.write(m2, a, d);
        let root = ctx.eq(w1, w2);
        let mems = memory_set(&mut ctx, &["rf_impl", "rf_spec"]);
        let result = eliminate_memories(&mut ctx, root, &mems, &BTreeSet::new());
        assert_eq!(result.address_witnesses.len(), 1);
        let stats = DagStats::of_formula(&ctx, result.formula);
        assert_eq!(stats.writes, 0);
        assert_eq!(stats.reads, 0);
    }

    #[test]
    fn same_memory_chain_compares_trivially_true() {
        let mut ctx = Context::new();
        let m = ctx.term_var("rf");
        let a = ctx.term_var("a");
        let d = ctx.term_var("d");
        let w = ctx.write(m, a, d);
        let root = ctx.eq(w, w);
        // eq(w, w) already folds to true inside the context.
        assert!(ctx.is_true(root));
    }

    #[test]
    fn abstract_memory_loses_forwarding() {
        let mut ctx = Context::new();
        let mem = ctx.term_var("dmem");
        let a = ctx.term_var("a");
        let d = ctx.term_var("d");
        let written = ctx.write(mem, a, d);
        let read = ctx.read(written, a);
        let root = ctx.eq(read, d);
        let mems = memory_set(&mut ctx, &["dmem"]);
        let abstracted = memory_set(&mut ctx, &["dmem"]);
        let result = eliminate_memories(&mut ctx, root, &mems, &abstracted);
        // With the conservative abstraction the forwarding property no longer
        // holds, so the formula is *not* reduced to true.
        assert!(!ctx.is_true(result.formula));
        let stats = DagStats::of_formula(&ctx, result.formula);
        assert_eq!(stats.reads, 0);
        assert_eq!(stats.writes, 0);
        assert!(stats.uf_apps >= 2, "abstract read and write UFs expected");
    }

    #[test]
    fn non_memory_formulas_are_untouched() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let fa = ctx.uf("f", &[a]);
        let root = ctx.eq(fa, b);
        let result = eliminate_memories(&mut ctx, root, &BTreeSet::new(), &BTreeSet::new());
        assert_eq!(result.formula, root);
        assert!(result.address_witnesses.is_empty());
    }
}
