//! CNF preprocessing ("algebraic simplification before SAT checking").
//!
//! Section 4 of the paper reports that preprocessing the generated CNF
//! formulas (the `simplify` script, Brafman's 2-SIS simplifier, MINCE
//! variable reordering) did not pay off for these benchmarks.  This module
//! provides the equivalent operations so the experiment can be repeated:
//! unit propagation, pure-literal elimination, duplicate-clause removal,
//! (optionally) subsumption and self-subsuming resolution.
//!
//! # Certification
//!
//! Preprocessing rewrites the clause database, so a DRAT proof produced by a
//! solver run on the *simplified* formula does not check against the
//! *original* one unless the rewrite itself is part of the proof.
//! [`preprocess_with_proof`] records every rewrite through the same
//! [`ProofWriter`] the solver uses: a strengthened clause is logged as an
//! addition (it is RUP — a resolvent, or the remainder after removing
//! root-false literals) followed by the deletion of its old version, and
//! satisfied, duplicate or subsumed clauses are logged as deletions.
//! Pure-literal elimination is *refused* in proof-logging mode: the unit
//! clauses it introduces are only satisfiability-preserving (blocked
//! clauses), not logical consequences, so they are not RUP-derivable and
//! would poison the proof.

use crate::cnf::{CnfFormula, Lit};
use crate::proof::ProofWriter;

/// Statistics of one preprocessing pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Unit clauses propagated away.
    pub units_propagated: usize,
    /// Variables fixed by pure-literal elimination.
    pub pure_literals: usize,
    /// Clauses removed because they were satisfied, duplicated or subsumed.
    pub clauses_removed: usize,
    /// Clauses strengthened by self-subsuming resolution.
    pub clauses_strengthened: usize,
    /// `true` if preprocessing already proved the formula unsatisfiable.
    pub proved_unsat: bool,
}

/// Result of preprocessing: the simplified formula (over the *same* variable
/// numbering) plus the forced partial assignment.
#[derive(Clone, Debug)]
pub struct Preprocessed {
    /// The simplified formula.
    pub cnf: CnfFormula,
    /// Literals fixed by the preprocessor.
    pub forced: Vec<Lit>,
    /// Statistics.
    pub stats: PreprocessStats,
}

/// Runs unit propagation, pure-literal elimination and duplicate removal to
/// fixpoint, optionally followed by pairwise subsumption and one round of
/// self-subsuming resolution.
pub fn preprocess(cnf: &CnfFormula, with_subsumption: bool) -> Preprocessed {
    preprocess_impl(cnf, with_subsumption, None)
}

/// [`preprocess`] with DRAT logging: every clause removal and strengthening
/// is recorded through `proof`, so a refutation of the simplified formula
/// (appended to the same log) still checks against the original CNF.
/// Pure-literal elimination is skipped — its units are not RUP-derivable —
/// which is the "refuse the unsound part" half of the proof-logging contract;
/// everything this variant *does* run is certified.
pub fn preprocess_with_proof(
    cnf: &CnfFormula,
    with_subsumption: bool,
    proof: &mut dyn ProofWriter,
) -> Preprocessed {
    preprocess_impl(cnf, with_subsumption, Some(proof))
}

fn preprocess_impl(
    cnf: &CnfFormula,
    with_subsumption: bool,
    mut proof: Option<&mut dyn ProofWriter>,
) -> Preprocessed {
    let _span = velv_obs::span_fields(
        "preprocess",
        &[
            ("vars", cnf.num_vars().into()),
            ("clauses", cnf.num_clauses().into()),
            ("subsumption", with_subsumption.into()),
            ("certified", proof.is_some().into()),
        ],
    );
    let num_vars = cnf.num_vars();
    let mut clauses: Vec<Vec<Lit>> = cnf.clauses().to_vec();
    let mut assigns: Vec<Option<bool>> = vec![None; num_vars];
    let mut stats = PreprocessStats::default();

    macro_rules! log_add {
        ($lits:expr) => {
            if let Some(p) = proof.as_deref_mut() {
                p.add_clause($lits);
            }
        };
    }
    macro_rules! log_delete {
        ($lits:expr) => {
            if let Some(p) = proof.as_deref_mut() {
                p.delete_clause($lits);
            }
        };
    }

    loop {
        let mut changed = false;

        // Apply the current assignment to every clause.
        let mut next: Vec<Vec<Lit>> = Vec::with_capacity(clauses.len());
        for clause in &clauses {
            let mut satisfied = false;
            let mut reduced = Vec::with_capacity(clause.len());
            for &lit in clause {
                match assigns[lit.var().index()] {
                    Some(v) if v == lit.is_positive() => {
                        satisfied = true;
                        break;
                    }
                    Some(_) => {}
                    None => reduced.push(lit),
                }
            }
            if satisfied {
                stats.clauses_removed += 1;
                log_delete!(clause);
                continue;
            }
            if reduced.is_empty() {
                stats.proved_unsat = true;
                log_add!(&[]);
                return Preprocessed {
                    cnf: CnfFormula::new(num_vars),
                    forced: collect_forced(&assigns),
                    stats,
                };
            }
            if reduced.len() < clause.len() {
                // The shrunken clause is RUP from its old version plus the
                // unit assignments that falsified the removed literals.
                log_add!(&reduced);
                log_delete!(clause);
            }
            next.push(reduced);
        }
        clauses = next;

        // Unit propagation.
        for clause in &clauses {
            if clause.len() == 1 {
                let lit = clause[0];
                match assigns[lit.var().index()] {
                    None => {
                        assigns[lit.var().index()] = Some(lit.is_positive());
                        stats.units_propagated += 1;
                        changed = true;
                    }
                    Some(v) if v != lit.is_positive() => {
                        stats.proved_unsat = true;
                        log_add!(&[]);
                        return Preprocessed {
                            cnf: CnfFormula::new(num_vars),
                            forced: collect_forced(&assigns),
                            stats,
                        };
                    }
                    Some(_) => {}
                }
            }
        }

        // Pure literal elimination — only without proof logging: the units it
        // adds are blocked clauses (RAT, not RUP) and cannot be certified by
        // the forward RUP checker.
        if proof.is_none() {
            let mut seen_pos = vec![false; num_vars];
            let mut seen_neg = vec![false; num_vars];
            for clause in &clauses {
                for &lit in clause {
                    if lit.is_positive() {
                        seen_pos[lit.var().index()] = true;
                    } else {
                        seen_neg[lit.var().index()] = true;
                    }
                }
            }
            for v in 0..num_vars {
                if assigns[v].is_some() {
                    continue;
                }
                if seen_pos[v] != seen_neg[v] && (seen_pos[v] || seen_neg[v]) {
                    assigns[v] = Some(seen_pos[v]);
                    stats.pure_literals += 1;
                    changed = true;
                }
            }
        }

        if !changed {
            break;
        }
    }

    // Duplicate removal: sort each clause in place (satisfiability is
    // order-independent), then sort the clause list and drop exact repeats.
    for clause in &mut clauses {
        clause.sort_unstable();
    }
    clauses.sort_unstable();
    let mut deduped: Vec<Vec<Lit>> = Vec::with_capacity(clauses.len());
    for clause in clauses {
        if deduped.last() == Some(&clause) {
            stats.clauses_removed += 1;
            log_delete!(&clause);
        } else {
            deduped.push(clause);
        }
    }
    let mut clauses = deduped;

    // Subsumption (quadratic; only for modest formulas or when requested).
    // Clauses are sorted, so the subset test is a linear two-pointer merge.
    if with_subsumption {
        let mut keep = vec![true; clauses.len()];
        for i in 0..clauses.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..clauses.len() {
                if i == j || !keep[j] {
                    continue;
                }
                if clauses[i].len() <= clauses[j].len()
                    && is_sorted_subset(&clauses[i], &clauses[j])
                {
                    keep[j] = false;
                    stats.clauses_removed += 1;
                    log_delete!(&clauses[j]);
                }
            }
        }
        let mut kept: Vec<Vec<Lit>> = clauses
            .into_iter()
            .zip(keep)
            .filter_map(|(c, k)| k.then_some(c))
            .collect();

        // Self-subsuming resolution, one round: when C₁ resolved with C₂ on
        // a literal l (with l ∈ C₁, ¬l ∈ C₂ and C₁ \ {l} ⊆ C₂) yields a
        // strict strengthening of C₂, replace C₂ by the resolvent.  The
        // resolvent is RUP, so the rewrite is certifiable.
        for i in 0..kept.len() {
            for j in 0..kept.len() {
                if i == j || kept[i].len() > kept[j].len() {
                    continue;
                }
                if let Some(pivot) = self_subsumption_pivot(&kept[i], &kept[j]) {
                    let strengthened: Vec<Lit> =
                        kept[j].iter().copied().filter(|&l| l != !pivot).collect();
                    log_add!(&strengthened);
                    log_delete!(&kept[j]);
                    kept[j] = strengthened;
                    stats.clauses_strengthened += 1;
                }
            }
        }
        clauses = kept;
    }

    let mut simplified = CnfFormula::new(num_vars);
    for clause in clauses {
        simplified.add_clause(clause);
    }
    Preprocessed {
        cnf: simplified,
        forced: collect_forced(&assigns),
        stats,
    }
}

/// Whether sorted slice `a` is a subset of sorted slice `b`.
fn is_sorted_subset(a: &[Lit], b: &[Lit]) -> bool {
    let mut bi = 0;
    'outer: for &x in a {
        while bi < b.len() {
            match b[bi].cmp(&x) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Finds the pivot of a self-subsuming resolution of `a` against `b`: the
/// unique literal `l ∈ a` with `¬l ∈ b` such that every other literal of `a`
/// occurs in `b`.  Both slices are sorted.
fn self_subsumption_pivot(a: &[Lit], b: &[Lit]) -> Option<Lit> {
    let mut pivot = None;
    // A tautological `a` would make the "resolvent" unsound (it is b itself);
    // `CnfFormula::add_clause` drops tautologies, but guard against other
    // clause sources anyway.
    if a.windows(2).any(|w| w[0].var() == w[1].var()) {
        return None;
    }
    for &l in a {
        if b.binary_search(&l).is_ok() {
            continue;
        }
        if b.binary_search(&!l).is_ok() {
            if pivot.is_some() {
                return None; // two pivots: the resolvent is a tautology-free
                             // strengthening only with exactly one
            }
            pivot = Some(l);
        } else {
            return None; // a literal of `a` missing from `b` entirely
        }
    }
    pivot
}

fn collect_forced(assigns: &[Option<bool>]) -> Vec<Lit> {
    assigns
        .iter()
        .enumerate()
        .filter_map(|(v, a)| a.map(|value| Lit::new(crate::cnf::Var::new(v as u32), value)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Var;
    use crate::proof::SharedProof;

    fn lit(i: i64) -> Lit {
        Lit::from_dimacs(i)
    }

    fn cnf_of(clauses: &[&[i64]]) -> CnfFormula {
        let mut cnf = CnfFormula::new(0);
        for c in clauses {
            cnf.add_clause(c.iter().map(|&i| lit(i)).collect());
        }
        cnf
    }

    #[test]
    fn unit_propagation_fixes_variables() {
        let cnf = cnf_of(&[&[1], &[-1, 2], &[-2, 3]]);
        let result = preprocess(&cnf, false);
        assert!(result.stats.units_propagated >= 1);
        assert!(result.forced.contains(&Lit::positive(Var::new(0))));
        assert!(!result.stats.proved_unsat);
        assert_eq!(result.cnf.num_clauses(), 0);
    }

    #[test]
    fn detects_unsat_by_propagation() {
        let cnf = cnf_of(&[&[1], &[-1, 2], &[-2], &[3, 4]]);
        let result = preprocess(&cnf, false);
        assert!(result.stats.proved_unsat);
    }

    #[test]
    fn pure_literal_elimination() {
        // Variable 3 only appears positively.
        let cnf = cnf_of(&[&[1, 3], &[-1, 3], &[1, -2]]);
        let result = preprocess(&cnf, false);
        assert!(result.stats.pure_literals >= 1);
        assert!(result.forced.contains(&Lit::positive(Var::new(2))));
    }

    #[test]
    fn subsumption_removes_superset_clauses() {
        let cnf = cnf_of(&[&[5, 6], &[5, 6, 7], &[6, 7, 8]]);
        let result = preprocess(&cnf, true);
        // {5,6} subsumes {5,6,7}; pure literals may remove more, so just check
        // the count dropped and nothing became unsatisfiable.
        assert!(result.cnf.num_clauses() < 3);
        assert!(!result.stats.proved_unsat);
    }

    #[test]
    fn self_subsumption_strengthens_clauses() {
        // (1 ∨ 2) and (¬1 ∨ 2 ∨ 3) resolve on 1 to (2 ∨ 3) ⊂ (¬1 ∨ 2 ∨ 3):
        // the second clause loses its ¬1.  (The extra clause keeps every
        // variable impure so pure-literal elimination stays out of the way.)
        let cnf = cnf_of(&[&[1, 2], &[-1, 2, 3], &[-2, -3]]);
        let result = preprocess(&cnf, true);
        assert!(result.stats.clauses_strengthened >= 1);
        assert!(
            result.cnf.clauses().iter().all(|c| !c.contains(&lit(-1))),
            "¬1 resolved away: {:?}",
            result.cnf.clauses()
        );
    }

    #[test]
    fn proof_mode_skips_pure_literals() {
        let cnf = cnf_of(&[&[1, 3], &[-1, 3], &[1, -2]]);
        let mut writer = SharedProof::new();
        let result = preprocess_with_proof(&cnf, false, &mut writer);
        assert_eq!(
            result.stats.pure_literals, 0,
            "pure-literal units are not RUP and must not be used"
        );
    }

    #[test]
    fn preprocessing_preserves_satisfiability() {
        use crate::cdcl::CdclSolver;
        use crate::solver::Solver;
        let instances = [
            cnf_of(&[&[1, 2, 3], &[-1, -2], &[-2, -3], &[2]]),
            cnf_of(&[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2]]),
            cnf_of(&[&[1, -3], &[2, 3, -1], &[3]]),
        ];
        for cnf in &instances {
            let original = CdclSolver::chaff().solve(cnf).is_sat();
            let pre = preprocess(cnf, true);
            let simplified = if pre.stats.proved_unsat {
                false
            } else {
                CdclSolver::chaff().solve(&pre.cnf).is_sat()
            };
            assert_eq!(original, simplified);
        }
    }

    /// The certification-unsoundness regression: a proof that starts with the
    /// logged preprocessing rewrites and continues with the solver's
    /// refutation of the *simplified* formula must check against the
    /// *original* formula.
    #[test]
    fn preprocessed_unsat_refutations_check_against_the_original_cnf() {
        use crate::cdcl::CdclSolver;
        use crate::generators::pigeonhole;
        use crate::solver::Budget;
        // Pigeonhole with redundant decoration: forced units, a duplicate,
        // a subsumed clause and a self-subsumption opportunity.
        let php = pigeonhole(4);
        let n = php.num_vars() as i64;
        let mut cnf = php.clone();
        let forced_unit = n + 1;
        let chained = n + 2;
        let decorated: Vec<Vec<i64>> = vec![
            vec![forced_unit],           // forced unit
            vec![-forced_unit, chained], // chained unit
            vec![chained, 1, 2],         // satisfied after propagation
            vec![1, 2, 3],
            vec![1, 2, 3],    // duplicate
            vec![1, 2, 3, 4], // subsumed by [1, 2, 3]
            vec![-1, 2, 3],   // self-subsumed against [1, 2, 3]
        ];
        for c in &decorated {
            cnf.add_clause(c.iter().map(|&i| lit(i)).collect());
        }
        let shared = SharedProof::new();
        let mut writer = shared.clone();
        let pre = preprocess_with_proof(&cnf, true, &mut writer);
        assert!(!pre.stats.proved_unsat, "PHP needs real search");
        let result = CdclSolver::chaff().solve_with_proof_writer(
            &pre.cnf,
            Budget::unlimited(),
            Box::new(shared.clone()),
        );
        assert!(result.is_unsat());
        let proof = shared.take();
        let original = crate::dimacs::cnf_to_dimacs_i32(&cnf);
        let report =
            velv_proof::check_proof(&original, &proof, &velv_proof::CheckOptions::default())
                .expect("the combined preprocessing + solving proof checks");
        assert!(
            report.derived_empty,
            "the refutation reaches the empty clause"
        );
    }
}
