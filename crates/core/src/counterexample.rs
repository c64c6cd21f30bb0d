//! Lifting SAT models back to the level of the encoded correctness formula.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use velv_eufm::{Context, Interpretation, Symbol};
use velv_sat::{Model, Var};

/// A counterexample: an assignment to the primary Boolean variables of the
/// encoded correctness formula (control variables, *e*ij equalities, indexing
/// variables) that falsifies the correctness criterion.
///
/// The assignments are shared, not copied, between clones: a verdict served
/// from a cache or delivered to several waiting tickets does not duplicate a
/// map over every primary variable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counterexample {
    assignments: Arc<BTreeMap<String, bool>>,
}

impl Counterexample {
    /// Builds a counterexample from a SAT model and the primary-variable map of
    /// the CNF translation.
    pub fn from_model(ctx: &Context, primary_vars: &BTreeMap<Symbol, Var>, model: &Model) -> Self {
        let mut assignments = BTreeMap::new();
        for (&sym, &var) in primary_vars {
            if var.index() < model.len() {
                assignments.insert(ctx.symbol_name(sym).to_owned(), model.value(var));
            }
        }
        Counterexample::from_assignments(assignments)
    }

    /// Rebuilds a counterexample from explicit `(name, value)` assignments —
    /// the deserialization path of persisted buggy verdicts, inverse of
    /// [`Counterexample::iter`].
    pub fn from_assignments(assignments: BTreeMap<String, bool>) -> Self {
        Counterexample {
            assignments: Arc::new(assignments),
        }
    }

    /// The value of a primary variable, if it is part of the counterexample.
    pub fn value(&self, name: &str) -> Option<bool> {
        self.assignments.get(name).copied()
    }

    /// Lifts the counterexample into an EUFM [`Interpretation`] over its
    /// primary propositional variables (by name, interning into `ctx`), so a
    /// reported counterexample — including one parsed back from a serialized
    /// artifact — can be replayed against any formula with `velv_eufm::eval`.
    /// The lift rule of [`crate::refine`] performs the same lift
    /// symbol-keyed straight from the primary-variable map (avoiding the
    /// interning round-trip) and adds one term value per *e*ij equality
    /// class.
    pub fn to_interpretation(&self, ctx: &mut Context) -> Interpretation {
        let mut interp = Interpretation::new();
        for (name, &value) in self.assignments.iter() {
            interp.set_prop_var(ctx, name, value);
        }
        interp
    }

    /// Iterates over `(variable name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, bool)> {
        self.assignments.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of assigned primary variables.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the counterexample is empty.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The variables assigned `true` — for g-equation (*e*ij) variables these
    /// are the equalities the counterexample relies on, which is usually the
    /// most useful part when diagnosing a bug.
    pub fn true_assignments(&self) -> Vec<&str> {
        self.assignments
            .iter()
            .filter_map(|(k, &v)| v.then_some(k.as_str()))
            .collect()
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "counterexample over {} primary variables:",
            self.assignments.len()
        )?;
        for (name, value) in self.assignments.iter() {
            if *value {
                writeln!(f, "  {name} = 1")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use velv_sat::Var;

    #[test]
    fn lifts_model_values_by_name() {
        let mut ctx = Context::new();
        let p = ctx.symbol("squash_taken");
        let q = ctx.symbol("e!rs1=rd");
        let mut primary = BTreeMap::new();
        primary.insert(p, Var::new(0));
        primary.insert(q, Var::new(1));
        let model = Model::new(vec![true, false]);
        let cex = Counterexample::from_model(&ctx, &primary, &model);
        assert_eq!(cex.value("squash_taken"), Some(true));
        assert_eq!(cex.value("e!rs1=rd"), Some(false));
        assert_eq!(cex.value("missing"), None);
        assert_eq!(cex.len(), 2);
        assert_eq!(cex.true_assignments(), vec!["squash_taken"]);
        assert!(format!("{cex}").contains("squash_taken = 1"));
    }

    #[test]
    fn clones_share_the_assignments() {
        let mut assignments = BTreeMap::new();
        assignments.insert("e!rs1=rd".to_owned(), true);
        let cex = Counterexample::from_assignments(assignments);
        let copy = cex.clone();
        assert!(Arc::ptr_eq(&cex.assignments, &copy.assignments));
        assert_eq!(copy, cex);
    }

    #[test]
    fn empty_counterexample() {
        let cex = Counterexample::default();
        assert!(cex.is_empty());
        assert_eq!(cex.iter().count(), 0);
    }

    #[test]
    fn lifts_to_an_interpretation_that_replays_the_assignment() {
        let mut ctx = Context::new();
        let p = ctx.prop_var("squash_taken");
        let q = ctx.prop_var("e!rs1=rd");
        let p_sym = ctx.symbol("squash_taken");
        let q_sym = ctx.symbol("e!rs1=rd");
        let mut primary = BTreeMap::new();
        primary.insert(p_sym, Var::new(0));
        primary.insert(q_sym, Var::new(1));
        let model = Model::new(vec![true, false]);
        let cex = Counterexample::from_model(&ctx, &primary, &model);
        let interp = cex.to_interpretation(&mut ctx);
        assert!(velv_eufm::evaluate(&ctx, &interp, p));
        let not_q = ctx.not(q);
        assert!(velv_eufm::evaluate(&ctx, &interp, not_q));
    }
}
