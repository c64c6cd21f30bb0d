//! Statistics of one EUFM → CNF translation (the quantities reported in
//! Tables 4 and the prose of Section 4 of the paper).

use std::fmt;

/// Size statistics of a translated correctness formula.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// Primary Boolean variables: propositional variables of the encoded
    /// formula (control variables, *e*ij variables, indexing variables,
    /// predicate-elimination variables).
    pub primary_bool_vars: usize,
    /// Fresh *e*ij variables introduced by the eij encoding.
    pub eij_vars: usize,
    /// Fresh indexing variables introduced by the small-domain encoding.
    pub indexing_vars: usize,
    /// Distinct pairs of g-term variables compared by the formula.
    pub g_pairs: usize,
    /// Transitivity triangles constrained.
    pub transitivity_triangles: usize,
    /// Variables of the generated CNF (primary + auxiliary).
    pub cnf_vars: usize,
    /// Clauses of the generated CNF.
    pub cnf_clauses: usize,
    /// Equation nodes in the EUFM correctness formula before encoding.
    pub eufm_equations: usize,
    /// Uninterpreted-function applications eliminated.
    pub uf_applications: usize,
}

/// Sums the statistics of several translations — the obligations of one
/// decomposed criterion.
impl std::ops::AddAssign for TranslationStats {
    fn add_assign(&mut self, other: Self) {
        self.primary_bool_vars += other.primary_bool_vars;
        self.eij_vars += other.eij_vars;
        self.indexing_vars += other.indexing_vars;
        self.g_pairs += other.g_pairs;
        self.transitivity_triangles += other.transitivity_triangles;
        self.cnf_vars += other.cnf_vars;
        self.cnf_clauses += other.cnf_clauses;
        self.eufm_equations += other.eufm_equations;
        self.uf_applications += other.uf_applications;
    }
}

impl fmt::Display for TranslationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "primary={} (eij={}, idx={}), cnf_vars={}, cnf_clauses={}, g_pairs={}, triangles={}",
            self.primary_bool_vars,
            self.eij_vars,
            self.indexing_vars,
            self.cnf_vars,
            self.cnf_clauses,
            self.g_pairs,
            self.transitivity_triangles
        )
    }
}

/// Statistics of one lift-or-refine check (see [`crate::refine`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefinementStats {
    /// Solver rounds, including the final one that produced the verdict
    /// (1 when the first answer is UNSAT or lifts).
    pub iterations: usize,
    /// Transitivity constraint clauses asserted during refinement.
    pub constraints_added: usize,
}

impl fmt::Display for RefinementStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iterations={}, constraints_added={}",
            self.iterations, self.constraints_added
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_stats_display() {
        let stats = RefinementStats {
            iterations: 3,
            constraints_added: 7,
        };
        assert_eq!(format!("{stats}"), "iterations=3, constraints_added=7");
    }

    #[test]
    fn display_is_informative() {
        let stats = TranslationStats {
            primary_bool_vars: 10,
            cnf_vars: 42,
            cnf_clauses: 100,
            ..Default::default()
        };
        let text = format!("{stats}");
        assert!(text.contains("primary=10"));
        assert!(text.contains("cnf_vars=42"));
        assert!(text.contains("cnf_clauses=100"));
    }

    #[test]
    fn default_is_zeroed() {
        let stats = TranslationStats::default();
        assert_eq!(stats.primary_bool_vars, 0);
        assert_eq!(stats.cnf_clauses, 0);
    }
}
