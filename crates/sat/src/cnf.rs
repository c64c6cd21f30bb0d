//! Variables, literals, clauses and CNF formulas.

use std::fmt;
use std::ops::Not;

/// A propositional variable, numbered from zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Creates a variable with the given zero-based index.
    pub fn new(index: u32) -> Self {
        Var(index)
    }

    /// Zero-based index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0 + 1)
    }
}

/// A literal: a variable or its negation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `var`.
    pub fn positive(var: Var) -> Self {
        Lit(var.0 << 1)
    }

    /// The negative literal of `var`.
    pub fn negative(var: Var) -> Self {
        Lit((var.0 << 1) | 1)
    }

    /// Builds a literal from a variable and a sign (`true` = positive).
    pub fn new(var: Var, positive: bool) -> Self {
        if positive {
            Lit::positive(var)
        } else {
            Lit::negative(var)
        }
    }

    /// The variable of the literal.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the positive literal of its variable.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense index usable for watch lists (`2 * var + sign`).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from its dense index.
    pub fn from_index(index: usize) -> Self {
        Lit(index as u32)
    }

    /// DIMACS integer encoding (1-based, negative for negated literals).
    pub fn to_dimacs(self) -> i64 {
        let v = (self.var().0 + 1) as i64;
        if self.is_positive() {
            v
        } else {
            -v
        }
    }

    /// Parses a DIMACS integer (must be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `value` is zero.
    pub fn from_dimacs(value: i64) -> Self {
        assert!(value != 0, "DIMACS literal must be non-zero");
        let var = Var::new((value.unsigned_abs() - 1) as u32);
        Lit::new(var, value > 0)
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

/// A disjunction of literals.
pub type Clause = Vec<Lit>;

/// A formula in conjunctive normal form, stored flat: the literals of every
/// clause back to back in one buffer, plus one end offset per clause.  A
/// clause is a `&[Lit]` slice of that buffer, so building, reading and
/// copying a formula costs no allocation per clause.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CnfFormula {
    num_vars: usize,
    /// The literals of all clauses, in clause order.
    lits: Vec<Lit>,
    /// `ends[i]` is the offset in `lits` one past the last literal of clause
    /// `i`; clause `i` starts where clause `i - 1` ends.
    ends: Vec<u32>,
}

impl CnfFormula {
    /// Creates an empty formula over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        CnfFormula {
            num_vars,
            lits: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Number of variables of the formula.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses of the formula.
    pub fn num_clauses(&self) -> usize {
        self.ends.len()
    }

    /// The literals of clause `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`CnfFormula::num_clauses`].
    pub fn clause(&self, i: usize) -> &[Lit] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.lits[start..self.ends[i] as usize]
    }

    /// The clauses of the formula, in the order they were added.
    pub fn clauses(
        &self,
    ) -> impl ExactSizeIterator<Item = &[Lit]> + DoubleEndedIterator + Clone + '_ {
        (0..self.ends.len()).map(move |i| self.clause(i))
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars as u32);
        self.num_vars += 1;
        v
    }

    /// Grows the variable count to at least `n`.
    pub fn ensure_vars(&mut self, n: usize) {
        if n > self.num_vars {
            self.num_vars = n;
        }
    }

    /// Adds a clause.  The clause is normalised in place at the end of the
    /// literal buffer: its literals are sorted, duplicates are removed and a
    /// tautological clause (containing `x` and `¬x`) is dropped.  Variables
    /// mentioned by a kept clause extend the variable count if needed.
    pub fn add_clause(&mut self, clause: &[Lit]) {
        let start = self.lits.len();
        self.lits.extend_from_slice(clause);
        let added = &mut self.lits[start..];
        added.sort_unstable();
        let mut len = 0;
        for k in 0..added.len() {
            if len == 0 || added[k] != added[len - 1] {
                added[len] = added[k];
                len += 1;
            }
        }
        let added = &added[..len];
        // Sorted literals put `x` and `¬x` side by side.
        if added.windows(2).any(|pair| pair[0].var() == pair[1].var()) {
            self.lits.truncate(start);
            return;
        }
        // The largest literal carries the largest variable.
        let max_var = added.last().map(|last| last.var().index() + 1);
        self.lits.truncate(start + len);
        if let Some(max) = max_var {
            self.ensure_vars(max);
        }
        let end = u32::try_from(self.lits.len()).expect("CNF exceeds u32::MAX literals");
        self.ends.push(end);
    }

    /// Releases the spare capacity of the literal and offset buffers, for a
    /// formula that is complete and about to be kept.
    pub fn shrink_to_fit(&mut self) {
        self.lits.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Whether `assignment` (indexed by variable) satisfies every clause.
    pub fn is_satisfied_by(&self, assignment: &[bool]) -> bool {
        self.clauses().all(|clause| {
            clause
                .iter()
                .any(|lit| assignment[lit.var().index()] == lit.is_positive())
        })
    }

    /// Number of clauses left unsatisfied by `assignment`.
    pub fn unsatisfied_count(&self, assignment: &[bool]) -> usize {
        self.clauses()
            .filter(|clause| {
                !clause
                    .iter()
                    .any(|lit| assignment[lit.var().index()] == lit.is_positive())
            })
            .count()
    }

    /// Total number of literal occurrences.
    pub fn num_literals(&self) -> usize {
        self.lits.len()
    }
}

impl<C: AsRef<[Lit]>> FromIterator<C> for CnfFormula {
    fn from_iter<I: IntoIterator<Item = C>>(iter: I) -> Self {
        let mut cnf = CnfFormula::new(0);
        for clause in iter {
            cnf.add_clause(clause.as_ref());
        }
        cnf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_roundtrips() {
        let v = Var::new(5);
        let p = Lit::positive(v);
        let n = Lit::negative(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!n, p);
        assert_eq!(Lit::from_index(p.index()), p);
        assert_eq!(Lit::from_dimacs(p.to_dimacs()), p);
        assert_eq!(Lit::from_dimacs(n.to_dimacs()), n);
        assert_eq!(p.to_dimacs(), 6);
        assert_eq!(n.to_dimacs(), -6);
    }

    #[test]
    fn add_clause_normalises() {
        let mut cnf = CnfFormula::new(0);
        let a = Lit::positive(Var::new(0));
        let b = Lit::positive(Var::new(1));
        cnf.add_clause(&[a, b, a]);
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(cnf.clause(0).len(), 2);
        assert_eq!(cnf.num_vars(), 2);
        // Tautological clause is dropped.
        cnf.add_clause(&[a, !a]);
        assert_eq!(cnf.num_clauses(), 1);
    }

    #[test]
    fn flat_clauses_are_sorted_deduplicated_and_tautology_free() {
        let l = Lit::from_dimacs;
        let mut cnf = CnfFormula::new(2);
        cnf.add_clause(&[l(3), l(-1), l(3), l(2), l(-1)]);
        // A tautology leaves no trace in the literal buffer, wherever its
        // complementary pair sits after sorting.
        cnf.add_clause(&[l(9), l(4), l(-9)]);
        cnf.add_clause(&[l(-5), l(5)]);
        cnf.add_clause(&[l(7), l(7)]);
        cnf.add_clause(&[]);
        cnf.add_clause(&[l(-2), l(1)]);
        let clauses: Vec<&[Lit]> = cnf.clauses().collect();
        assert_eq!(
            clauses,
            vec![
                &[l(-1), l(2), l(3)][..],
                &[l(7)][..],
                &[][..],
                &[l(1), l(-2)][..],
            ]
        );
        assert_eq!(cnf.num_clauses(), 4);
        assert_eq!(cnf.num_literals(), 6);
        for (i, clause) in clauses.iter().enumerate() {
            assert_eq!(cnf.clause(i), *clause);
            assert!(clause.windows(2).all(|pair| pair[0] < pair[1]));
        }
        assert_eq!(cnf.clauses().next_back(), Some(&[l(1), l(-2)][..]));
        // Kept clauses extend the variable count; the dropped tautologies
        // over x9 and x5 do not.
        assert_eq!(cnf.num_vars(), 7);
        let mut wider = CnfFormula::new(10);
        wider.add_clause(&[l(-3)]);
        assert_eq!(wider.num_vars(), 10, "the count never shrinks");
    }

    #[test]
    fn satisfaction_check() {
        let mut cnf = CnfFormula::new(2);
        let a = Lit::positive(Var::new(0));
        let b = Lit::positive(Var::new(1));
        cnf.add_clause(&[a, b]);
        cnf.add_clause(&[!a, b]);
        assert!(cnf.is_satisfied_by(&[false, true]));
        assert!(cnf.is_satisfied_by(&[true, true]));
        assert!(!cnf.is_satisfied_by(&[true, false]));
        assert_eq!(cnf.unsatisfied_count(&[true, false]), 1);
        assert_eq!(cnf.num_literals(), 4);
    }

    #[test]
    fn collect_from_iterator() {
        let a = Lit::positive(Var::new(0));
        let b = Lit::positive(Var::new(1));
        let cnf: CnfFormula = vec![vec![a], vec![b, !a]].into_iter().collect();
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.num_vars(), 2);
        let copy: CnfFormula = cnf.clauses().collect();
        assert_eq!(copy, cnf);
    }

    #[test]
    fn display_forms() {
        let v = Var::new(0);
        assert_eq!(format!("{}", Lit::positive(v)), "x1");
        assert_eq!(format!("{}", Lit::negative(v)), "!x1");
    }
}
