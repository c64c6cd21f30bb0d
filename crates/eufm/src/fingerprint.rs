//! Stable structural fingerprints of EUFM expressions.
//!
//! A [`Fingerprint`] is a 128-bit hash of the *reachable structure* of a term
//! or formula: leaves are hashed by symbol **name**, inner nodes by kind and
//! child fingerprints, and commutative connectives (`∧`, `∨`, `=`) hash their
//! operands order-insensitively.  The result is independent of
//!
//! * the [`Context`] the expression lives in,
//! * the order in which the DAG was constructed (node ids never enter the
//!   hash), and
//! * any unrelated scratch nodes interned in the same context,
//!
//! so two alpha-equivalent correctness formulas built in different sessions —
//! or by different front ends — fingerprint identically.  `velv_core` combines
//! this hash with a canonical serialization of the translation options to key
//! a verification job, and `velv_serve` uses that key for its verdict cache
//! and in-flight deduplication.
//!
//! The hash itself is a fixed-key construction over two independently mixed
//! 64-bit lanes (a SplitMix64-style finalizer); it involves no per-process
//! randomness, so fingerprints are stable across runs, builds and machines.
//! It is *not* cryptographic — collision resistance is that of a well-mixed
//! 128-bit hash, which is ample for cache keys but no defence against an
//! adversary crafting collisions.

use crate::context::Context;
use crate::node::{Formula, FormulaId, Term, TermId};
use std::fmt;

/// A stable 128-bit structural hash (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Folds extra canonical text (options, backend names, ...) into the
    /// fingerprint, producing a new stable fingerprint.  Used to derive a
    /// *job* key from a *formula* key.
    pub fn combine(self, text: &str) -> Fingerprint {
        let mut hasher = StableHasher::new(0xC0);
        hasher.write_u64(self.0 as u64);
        hasher.write_u64((self.0 >> 64) as u64);
        hasher.write_bytes(text.as_bytes());
        Fingerprint(hasher.finish())
    }

    /// The fingerprint as 32 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the output of [`Fingerprint::to_hex`].
    pub fn from_hex(hex: &str) -> Option<Fingerprint> {
        if hex.len() != 32 {
            return None;
        }
        u128::from_str_radix(hex, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({:032x})", self.0)
    }
}

/// Two-lane 64-bit mixer with fixed keys; all operations are plain integer
/// arithmetic, so the digest is identical on every platform and run.
struct StableHasher {
    a: u64,
    b: u64,
}

/// SplitMix64 finalizer: a fast, well-distributed 64-bit bijection.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl StableHasher {
    fn new(tag: u8) -> Self {
        StableHasher {
            a: mix64(0x9e3779b97f4a7c15 ^ u64::from(tag)),
            b: mix64(0x6a09e667f3bcc909 ^ (u64::from(tag) << 32)),
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.a = mix64(self.a ^ x.wrapping_mul(0xff51afd7ed558ccd));
        self.b = mix64(self.b.wrapping_add(x).wrapping_mul(0xc4ceb9fe1a85ec53));
    }

    fn write_u128(&mut self, x: u128) {
        self.write_u64(x as u64);
        self.write_u64((x >> 64) as u64);
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u128 {
        let lo = mix64(self.a ^ self.b.rotate_left(32));
        let hi = mix64(self.b ^ self.a.rotate_left(17));
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

/// Node kind tags.  Terms and formulas share the 128-bit space; distinct tags
/// keep, say, a term variable and a propositional variable of the same name
/// from colliding.
mod tag {
    pub const TERM_VAR: u8 = 1;
    pub const TERM_UF: u8 = 2;
    pub const TERM_ITE: u8 = 3;
    pub const TERM_READ: u8 = 4;
    pub const TERM_WRITE: u8 = 5;
    pub const F_TRUE: u8 = 10;
    pub const F_FALSE: u8 = 11;
    pub const F_VAR: u8 = 12;
    pub const F_UP: u8 = 13;
    pub const F_NOT: u8 = 14;
    pub const F_AND: u8 = 15;
    pub const F_OR: u8 = 16;
    pub const F_ITE: u8 = 17;
    pub const F_EQ: u8 = 18;
}

fn node_hash(tag: u8, name: Option<&str>, children: &[u128], commutative: bool) -> u128 {
    let mut hasher = StableHasher::new(tag);
    if let Some(name) = name {
        hasher.write_bytes(name.as_bytes());
    }
    if commutative && children.len() == 2 && children[0] > children[1] {
        hasher.write_u128(children[1]);
        hasher.write_u128(children[0]);
    } else {
        for &child in children {
            hasher.write_u128(child);
        }
    }
    hasher.finish()
}

/// The hash of a function or predicate application: the same bytes as
/// [`node_hash`] with the name and the argument hashes in order, fed
/// straight from the memo table instead of through a buffer.
fn application_hash(tag: u8, name: &str, args: impl Iterator<Item = u128>) -> u128 {
    let mut hasher = StableHasher::new(tag);
    hasher.write_bytes(name.as_bytes());
    for child in args {
        hasher.write_u128(child);
    }
    hasher.finish()
}

/// One pending node of the explicit DFS stack (no recursion: the correctness
/// formulas of the wide designs are deep).
#[derive(Clone, Copy)]
enum Item {
    Term(TermId),
    Formula(FormulaId),
}

/// Memoized bottom-up hashing of the reachable DAG under the given roots.
///
/// The memo tables are dense, indexed by node id and sized to the context,
/// and a node's unfinished children go straight onto the DFS stack, which
/// starts with room for one entry per node; so a run allocates the two
/// tables and its stack and nothing per node.
struct Hashing<'a> {
    ctx: &'a Context,
    terms: Vec<Option<u128>>,
    formulas: Vec<Option<u128>>,
    stack: Vec<Item>,
}

impl<'a> Hashing<'a> {
    fn new(ctx: &'a Context) -> Self {
        Hashing {
            ctx,
            terms: vec![None; ctx.num_terms()],
            formulas: vec![None; ctx.num_formulas()],
            stack: Vec::with_capacity(ctx.num_terms() + ctx.num_formulas()),
        }
    }

    fn term_hash(&self, id: TermId) -> u128 {
        self.terms[id.index()].expect("children are hashed before their parent")
    }

    fn formula_hash(&self, id: FormulaId) -> u128 {
        self.formulas[id.index()].expect("children are hashed before their parent")
    }

    fn push_term(&mut self, id: TermId) {
        if self.terms[id.index()].is_none() {
            self.stack.push(Item::Term(id));
        }
    }

    fn push_formula(&mut self, id: FormulaId) {
        if self.formulas[id.index()].is_none() {
            self.stack.push(Item::Formula(id));
        }
    }

    /// Pushes the children of `item` that are not hashed yet.
    fn push_pending_children(&mut self, item: Item) {
        let ctx = self.ctx;
        match item {
            Item::Term(id) => match ctx.term(id) {
                Term::Var(_) => {}
                Term::Uf(_, args) => args.iter().for_each(|&a| self.push_term(a)),
                Term::Ite(c, t, e) => {
                    self.push_formula(*c);
                    self.push_term(*t);
                    self.push_term(*e);
                }
                Term::Read(m, a) => {
                    self.push_term(*m);
                    self.push_term(*a);
                }
                Term::Write(m, a, d) => {
                    self.push_term(*m);
                    self.push_term(*a);
                    self.push_term(*d);
                }
            },
            Item::Formula(id) => match ctx.formula(id) {
                Formula::True | Formula::False | Formula::Var(_) => {}
                Formula::Up(_, args) => args.iter().for_each(|&a| self.push_term(a)),
                Formula::Not(f) => self.push_formula(*f),
                Formula::And(a, b) | Formula::Or(a, b) => {
                    self.push_formula(*a);
                    self.push_formula(*b);
                }
                Formula::Ite(c, t, e) => {
                    self.push_formula(*c);
                    self.push_formula(*t);
                    self.push_formula(*e);
                }
                Formula::Eq(a, b) => {
                    self.push_term(*a);
                    self.push_term(*b);
                }
            },
        }
    }

    fn done(&self, item: Item) -> bool {
        match item {
            Item::Term(id) => self.terms[id.index()].is_some(),
            Item::Formula(id) => self.formulas[id.index()].is_some(),
        }
    }

    fn finish_term(&mut self, id: TermId) {
        let hash = match self.ctx.term(id) {
            Term::Var(sym) => {
                node_hash(tag::TERM_VAR, Some(self.ctx.symbol_name(*sym)), &[], false)
            }
            Term::Uf(sym, args) => application_hash(
                tag::TERM_UF,
                self.ctx.symbol_name(*sym),
                args.iter().map(|&a| self.term_hash(a)),
            ),
            Term::Ite(c, t, e) => node_hash(
                tag::TERM_ITE,
                None,
                &[
                    self.formula_hash(*c),
                    self.term_hash(*t),
                    self.term_hash(*e),
                ],
                false,
            ),
            Term::Read(m, a) => node_hash(
                tag::TERM_READ,
                None,
                &[self.term_hash(*m), self.term_hash(*a)],
                false,
            ),
            Term::Write(m, a, d) => node_hash(
                tag::TERM_WRITE,
                None,
                &[self.term_hash(*m), self.term_hash(*a), self.term_hash(*d)],
                false,
            ),
        };
        self.terms[id.index()] = Some(hash);
    }

    fn finish_formula(&mut self, id: FormulaId) {
        let hash = match self.ctx.formula(id) {
            Formula::True => node_hash(tag::F_TRUE, None, &[], false),
            Formula::False => node_hash(tag::F_FALSE, None, &[], false),
            Formula::Var(sym) => {
                node_hash(tag::F_VAR, Some(self.ctx.symbol_name(*sym)), &[], false)
            }
            Formula::Up(sym, args) => application_hash(
                tag::F_UP,
                self.ctx.symbol_name(*sym),
                args.iter().map(|&a| self.term_hash(a)),
            ),
            Formula::Not(f) => node_hash(tag::F_NOT, None, &[self.formula_hash(*f)], false),
            Formula::And(a, b) => node_hash(
                tag::F_AND,
                None,
                &[self.formula_hash(*a), self.formula_hash(*b)],
                true,
            ),
            Formula::Or(a, b) => node_hash(
                tag::F_OR,
                None,
                &[self.formula_hash(*a), self.formula_hash(*b)],
                true,
            ),
            Formula::Ite(c, t, e) => node_hash(
                tag::F_ITE,
                None,
                &[
                    self.formula_hash(*c),
                    self.formula_hash(*t),
                    self.formula_hash(*e),
                ],
                false,
            ),
            Formula::Eq(a, b) => node_hash(
                tag::F_EQ,
                None,
                &[self.term_hash(*a), self.term_hash(*b)],
                true,
            ),
        };
        self.formulas[id.index()] = Some(hash);
    }

    /// Iterative post-order: a node is pushed, then its unfinished children;
    /// when it surfaces again with all children hashed, it is finished.
    fn run(mut self, root: Item) -> u128 {
        self.stack.push(root);
        while let Some(&item) = self.stack.last() {
            if self.done(item) {
                self.stack.pop();
                continue;
            }
            let depth = self.stack.len();
            self.push_pending_children(item);
            if self.stack.len() == depth {
                match item {
                    Item::Term(id) => self.finish_term(id),
                    Item::Formula(id) => self.finish_formula(id),
                }
                self.stack.pop();
            }
        }
        match root {
            Item::Term(id) => self.term_hash(id),
            Item::Formula(id) => self.formula_hash(id),
        }
    }
}

/// Structural fingerprint of a formula (see the module docs).
pub fn formula_fingerprint(ctx: &Context, root: FormulaId) -> Fingerprint {
    Fingerprint(Hashing::new(ctx).run(Item::Formula(root)))
}

/// Structural fingerprint of a term.
pub fn term_fingerprint(ctx: &Context, root: TermId) -> Fingerprint {
    Fingerprint(Hashing::new(ctx).run(Item::Term(root)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_order_does_not_matter() {
        // f(a) = f(b) ∧ p, constructed leaves-first ...
        let mut ctx1 = Context::new();
        let a1 = ctx1.term_var("a");
        let b1 = ctx1.term_var("b");
        let fa1 = ctx1.uf("f", &[a1]);
        let fb1 = ctx1.uf("f", &[b1]);
        let eq1 = ctx1.eq(fa1, fb1);
        let p1 = ctx1.prop_var("p");
        let root1 = ctx1.and(eq1, p1);

        // ... and the same formula with everything interned in reverse order,
        // with extra scratch nodes, and with the commutative operands flipped.
        let mut ctx2 = Context::new();
        let p2 = ctx2.prop_var("p");
        let scratch = ctx2.term_var("zzz-scratch");
        let _ = ctx2.uf("g", &[scratch]);
        let b2 = ctx2.term_var("b");
        let a2 = ctx2.term_var("a");
        let fb2 = ctx2.uf("f", &[b2]);
        let fa2 = ctx2.uf("f", &[a2]);
        let eq2 = ctx2.eq(fb2, fa2);
        let root2 = ctx2.and(p2, eq2);

        assert_eq!(
            formula_fingerprint(&ctx1, root1),
            formula_fingerprint(&ctx2, root2)
        );
    }

    #[test]
    fn structure_and_names_matter() {
        let mut ctx = Context::new();
        let a = ctx.term_var("a");
        let b = ctx.term_var("b");
        let fab = ctx.uf("f", &[a, b]);
        let fba = ctx.uf("f", &[b, a]);
        assert_ne!(term_fingerprint(&ctx, fab), term_fingerprint(&ctx, fba));
        let gab = ctx.uf("g", &[a, b]);
        assert_ne!(term_fingerprint(&ctx, fab), term_fingerprint(&ctx, gab));

        let p = ctx.prop_var("p");
        let q = ctx.prop_var("q");
        let and = ctx.and(p, q);
        let or = ctx.or(p, q);
        assert_ne!(
            formula_fingerprint(&ctx, and),
            formula_fingerprint(&ctx, or)
        );
        let np = ctx.not(p);
        assert_ne!(formula_fingerprint(&ctx, p), formula_fingerprint(&ctx, np));
    }

    #[test]
    fn term_and_prop_variables_of_the_same_name_differ() {
        let mut ctx = Context::new();
        let t = ctx.term_var("x");
        let p = ctx.prop_var("x");
        assert_ne!(term_fingerprint(&ctx, t).0, formula_fingerprint(&ctx, p).0);
    }

    #[test]
    fn deep_chains_do_not_overflow_the_stack() {
        let mut ctx = Context::new();
        let mut acc = ctx.prop_var("p0");
        for i in 1..50_000 {
            let p = ctx.prop_var(&format!("p{i}"));
            acc = ctx.and(acc, p);
        }
        let fp1 = formula_fingerprint(&ctx, acc);
        let fp2 = formula_fingerprint(&ctx, acc);
        assert_eq!(fp1, fp2);
    }

    #[test]
    fn hex_round_trip() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("p");
        let fp = formula_fingerprint(&ctx, p);
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
        assert_eq!(Fingerprint::from_hex("xyz"), None);
        assert_eq!(format!("{fp}"), hex);
    }

    #[test]
    fn combine_is_stable_and_sensitive() {
        let fp = Fingerprint(42);
        assert_eq!(fp.combine("opts"), fp.combine("opts"));
        assert_ne!(fp.combine("opts"), fp.combine("opts2"));
        assert_ne!(fp.combine("opts"), fp);
    }
}
