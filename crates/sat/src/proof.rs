//! DRAT proof logging for the CDCL engine.
//!
//! When a [`SharedProof`] is attached, the engine records every inference it
//! performs on the clause database — learned clauses, clause deletions
//! (database reduction, SATO oversize purge) and the empty clause on a root
//! conflict — so that an UNSAT answer comes with a replayable
//! [DRAT](https://satcompetition.github.io/2024/certificates.html) proof.
//! Checking is *not* done here: the independent checker lives in
//! [`velv_proof::checker`], which deliberately shares no code with this crate.
//!
//! Each learned clause carries its *antecedent hints*: the clauses its
//! first-UIP analysis resolved on, in trail order with the conflict clause
//! last.  The checker propagates those first and only falls back to full
//! propagation when they miss.  Hints name clauses by
//! [`velv_proof::ClauseId`]: an input clause by the order the engine
//! received it (the formula's clauses first, then every clause added between
//! solves), a lemma by its position among the proof's additions.
//!
//! The caller keeps a clone of the [`SharedProof`] it hands to the solver and
//! reads the recorded steps after the solve.

use crate::cnf::Lit;
use std::sync::{Arc, Mutex};
use velv_proof::{ClauseId, Proof};

/// A shared, in-memory DRAT proof: clones refer to the same underlying
/// [`Proof`], so the caller can hand one clone to the solver and keep another
/// to read the recorded steps afterwards.
///
/// The per-step cost is one uncontended mutex lock — negligible next to the
/// conflict analysis that precedes every learned clause.
#[derive(Clone, Debug, Default)]
pub struct SharedProof {
    inner: Arc<Mutex<Proof>>,
}

impl SharedProof {
    /// Creates an empty shared proof.
    pub fn new() -> Self {
        SharedProof::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Proof> {
        self.inner.lock().expect("proof lock is not poisoned")
    }

    /// Records a derived (RUP) clause addition with its antecedent hints and
    /// returns the id later hints use to name the new lemma.
    pub fn add_clause(&self, lits: &[Lit], hints: &[ClauseId]) -> ClauseId {
        self.lock()
            .add_hinted(crate::dimacs::clause_to_dimacs_i32(lits), hints)
    }

    /// Records a clause deletion.
    pub fn delete_clause(&self, lits: &[Lit]) {
        self.lock()
            .delete(crate::dimacs::clause_to_dimacs_i32(lits));
    }

    /// A snapshot of the steps recorded so far.
    pub fn snapshot(&self) -> Proof {
        self.lock().clone()
    }

    /// Takes the recorded proof out, leaving an empty one behind.
    pub fn take(&self) -> Proof {
        std::mem::take(&mut *self.lock())
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no steps have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Var;
    use velv_proof::ProofStep;

    #[test]
    fn shared_proof_clones_observe_each_other() {
        let shared = SharedProof::new();
        let writer = shared.clone();
        let lemma = writer.add_clause(
            &[Lit::positive(Var::new(0)), Lit::negative(Var::new(1))],
            &[ClauseId::input(3)],
        );
        writer.delete_clause(&[Lit::negative(Var::new(0))]);
        assert_eq!(lemma, ClauseId::lemma(0));
        assert_eq!(shared.len(), 2);
        let proof = shared.snapshot();
        assert_eq!(proof.steps()[0], ProofStep::Add(vec![1, -2]));
        assert_eq!(proof.hints(0), [ClauseId::input(3)]);
        assert_eq!(proof.steps()[1], ProofStep::Delete(vec![-1]));
        let taken = shared.take();
        assert_eq!(taken.len(), 2);
        assert!(shared.is_empty());
    }
}
