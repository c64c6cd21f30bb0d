//! Certified verdicts: every answer of the verification flow backed by an
//! independently checkable artifact.
//!
//! The paper's thesis is that SAT procedures can be *trusted* to discharge
//! the Burch–Dill correctness formulas — but a bare `Correct`/`Buggy` verdict
//! still asks the user to trust the CDCL engine, the incremental session and
//! the whole *e*ij/lazy-transitivity translation machinery.  This module
//! closes the gap on both poles:
//!
//! * **UNSAT (the design is correct).**  The solver runs with a DRAT sink
//!   attached (see `velv_sat::proof`), and the recorded proof is replayed by
//!   the independent forward RUP checker of `velv_proof` against the *exact*
//!   CNF that was solved: the translation's clauses plus every transitivity
//!   clause asserted by the lazy refinement loop (recorded as the loop
//!   asserts them).  Every refutation — of a monolithic
//!   criterion or of one decomposed obligation — must end in the empty
//!   clause.
//! * **SAT (the design is buggy).**  The model is checked against every
//!   clause handed to the solver, its *e*ij assignment is re-checked for
//!   transitivity consistency (so it lifts to a genuine equality
//!   interpretation — the Bryant–German–Velev direction: one value per
//!   connected component of true equality edges), and the counterexample is
//!   lifted into a `velv_eufm` interpretation (the primary-variable
//!   assignment of [`Counterexample::from_model`] plus one term value per
//!   equality class) under which the encoded correctness formula must
//!   evaluate to *false* while the side constraints evaluate to *true*.
//!
//! What remains trusted is deliberately small: the EUFM → CNF translation
//! capture, the tiny RUP checker and the EUFM evaluator.  The search — with
//! its heuristics, restarts, clause database management, garbage collection
//! and incremental clause addition — is entirely outside the trusted base.

use crate::counterexample::Counterexample;
use crate::flow::{Translation, Verdict};
use crate::options::CertifyOptions;
use crate::refine::{self, IncrementalDriver};
use crate::stats::RefinementStats;
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};
use velv_eufm::{Context, FormulaId, Interpretation, Symbol};
use velv_proof::{check_proof, CheckOptions, Proof};
use velv_sat::cdcl::CdclConfig;
use velv_sat::dimacs::{clause_to_dimacs_i32, cnf_to_dimacs_i32};
use velv_sat::solver::verify_model;
use velv_sat::{Budget, CnfFormula, IncrementalSolver, Lit, Model, SatResult, Var};

/// The evidence attached to a certified verdict.
#[derive(Clone, Debug)]
pub enum Certificate {
    /// An UNSAT verdict with its proof replayed by the independent checker.
    Unsat(ProofCertificate),
    /// A SAT verdict with its model validated against the original formula.
    Sat(ModelCertificate),
    /// Nothing was checked (undecided verdict, or the corresponding
    /// [`CertifyOptions`] switch is off); the string says why.
    Unchecked(String),
}

impl Certificate {
    /// Whether this certificate carries checked evidence.
    pub fn is_checked(&self) -> bool {
        !matches!(self, Certificate::Unchecked(_))
    }
}

/// Evidence of a checked refutation.
#[derive(Clone, Debug)]
pub struct ProofCertificate {
    /// Steps of the recorded DRAT proof.
    pub proof_steps: usize,
    /// Clauses the proof was checked against (translation CNF plus clauses
    /// added during refinement).
    pub checked_clauses: usize,
    /// Clauses asserted by the lazy transitivity refinement loop (part of
    /// `checked_clauses`).
    pub refinement_clauses: usize,
    /// Index of this verdict's terminal proof step (the empty clause).
    pub terminal_step: usize,
    /// Size of the used input-clause core (with
    /// [`CertifyOptions::trim_proofs`]).
    pub input_core_size: Option<usize>,
    /// Addition steps surviving backward trimming (with
    /// [`CertifyOptions::trim_proofs`]).
    pub trimmed_steps: Option<usize>,
    /// Wall-clock time the checker spent replaying the proof.
    pub check_time: Duration,
}

/// Evidence of a validated counterexample.
#[derive(Clone, Debug)]
pub struct ModelCertificate {
    /// Clauses of the solved CNF the model was checked against.
    pub checked_clauses: usize,
    /// Primary variables assigned by the counterexample.
    pub primary_assignments: usize,
    /// Equality classes of the lifted interpretation (connected components of
    /// the true *e*ij edges).
    pub equality_classes: usize,
    /// Wall-clock time of the validation.
    pub check_time: Duration,
}

/// A verdict together with its certification evidence.
#[derive(Clone, Debug)]
pub struct CertifiedVerdict {
    /// The verdict.
    pub verdict: Verdict,
    /// The evidence backing it.
    pub certificate: Certificate,
}

/// Why certification failed.  A failure means the verdict could *not* be
/// backed by evidence — either the solver produced a bogus artifact or the
/// translation layers disagree — and must not be trusted.
#[derive(Clone, Debug)]
pub enum CertifyError {
    /// The independent checker rejected the recorded proof.
    ProofRejected {
        /// Name of the translation or obligation being certified.
        name: String,
        /// The checker's complaint.
        detail: String,
    },
    /// The proof checked, but its terminal step does not certify this
    /// verdict (no empty clause).
    TerminalMismatch {
        /// Name of the translation or obligation being certified.
        name: String,
        /// What was wrong with the terminal step.
        detail: String,
    },
    /// A SAT model failed validation: it does not satisfy the solved CNF, is
    /// transitivity-inconsistent, or does not falsify the encoded
    /// correctness formula under true side constraints.
    SpuriousModel {
        /// Name of the translation or obligation being certified.
        name: String,
        /// What was wrong with the model.
        detail: String,
    },
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::ProofRejected { name, detail } => {
                write!(f, "{name}: UNSAT proof rejected: {detail}")
            }
            CertifyError::TerminalMismatch { name, detail } => {
                write!(f, "{name}: proof does not certify the verdict: {detail}")
            }
            CertifyError::SpuriousModel { name, detail } => {
                write!(f, "{name}: counterexample rejected: {detail}")
            }
        }
    }
}

impl std::error::Error for CertifyError {}

/// Replays `proof` against `base` plus `added` and validates the terminal
/// step: the empty clause.
fn check_unsat_proof(
    name: &str,
    base: &CnfFormula,
    added: &[Vec<Lit>],
    proof: &Proof,
    terminal_step: usize,
    certify: &CertifyOptions,
) -> Result<ProofCertificate, CertifyError> {
    let _span = velv_obs::span_fields(
        "certify.replay",
        &[
            ("formula", name.into()),
            ("proof_steps", proof.len().into()),
        ],
    );
    let mut clauses = cnf_to_dimacs_i32(base);
    clauses.extend(added.iter().map(|c| clause_to_dimacs_i32(c)));
    let start = Instant::now();
    let options = CheckOptions {
        trim: certify.trim_proofs,
    };
    let report =
        check_proof(&clauses, proof, &options).map_err(|e| CertifyError::ProofRejected {
            name: name.to_owned(),
            detail: e.to_string(),
        })?;
    let check_time = start.elapsed();
    if !report.derived_empty {
        return Err(CertifyError::TerminalMismatch {
            name: name.to_owned(),
            detail: "the proof never derives the empty clause".to_owned(),
        });
    }
    validate_terminal(name, proof, terminal_step)?;
    Ok(ProofCertificate {
        proof_steps: proof.len(),
        checked_clauses: clauses.len(),
        refinement_clauses: added.len(),
        terminal_step,
        input_core_size: report.input_core.as_ref().map(Vec::len),
        trimmed_steps: report.trimmed_additions,
        check_time,
    })
}

/// Validates that the terminal step of a verified proof certifies *this*
/// verdict: the addition of the empty clause.
fn validate_terminal(name: &str, proof: &Proof, terminal_step: usize) -> Result<(), CertifyError> {
    let terminal = proof
        .step(terminal_step)
        .ok_or_else(|| CertifyError::TerminalMismatch {
            name: name.to_owned(),
            detail: format!("terminal step {terminal_step} out of range"),
        })?;
    if !terminal.is_addition() {
        return Err(CertifyError::TerminalMismatch {
            name: name.to_owned(),
            detail: "terminal step is a deletion".to_owned(),
        });
    }
    if let Some(&l) = terminal.lits().first() {
        return Err(CertifyError::TerminalMismatch {
            name: name.to_owned(),
            detail: format!(
                "terminal clause has literal {l}; a refutation ends in the empty clause"
            ),
        });
    }
    Ok(())
}

/// Evaluates `root` on a dedicated thread with a large stack: the evaluator
/// recurses over the encoded correctness formula, whose depth on the wide
/// superscalar and VLIW designs overflows a default thread stack (the
/// translation pipeline uses the same bound).
fn evaluate_deep(ctx: &Context, interp: &Interpretation, root: FormulaId) -> bool {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("velv-certify-eval".to_owned())
            .stack_size(256 * 1024 * 1024)
            .spawn_scoped(scope, || velv_eufm::evaluate(ctx, interp, root))
            .expect("spawning the evaluation thread succeeds")
            .join()
            .expect("the evaluation thread does not panic")
    })
}

/// Union-find over the *e*ij endpoints under `model`: every symbol gets the
/// id of its equality class (connected component of true edges).
fn equality_classes(
    pairs: &[(Symbol, Symbol, Var)],
    model: &Model,
) -> (HashMap<Symbol, usize>, usize) {
    let mut index: HashMap<Symbol, usize> = HashMap::new();
    for &(x, y, _) in pairs {
        let n = index.len();
        index.entry(x).or_insert(n);
        let n = index.len();
        index.entry(y).or_insert(n);
    }
    let mut parent: Vec<usize> = (0..index.len()).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    for &(x, y, v) in pairs {
        if v.index() < model.len() && model.value(v) {
            let (rx, ry) = (find(&mut parent, index[&x]), find(&mut parent, index[&y]));
            parent[rx] = ry;
        }
    }
    let mut roots: HashMap<usize, usize> = HashMap::new();
    let mut classes: HashMap<Symbol, usize> = HashMap::new();
    for (&sym, &i) in &index {
        let root = find(&mut parent, i);
        let n = roots.len();
        let class = *roots.entry(root).or_insert(n);
        classes.insert(sym, class);
    }
    (classes, roots.len())
}

/// Validates a SAT model as a genuine counterexample of one translation.
fn validate_model(
    translation: &Translation,
    added: &[Vec<Lit>],
    model: &Model,
) -> Result<(Counterexample, ModelCertificate), CertifyError> {
    let Translation {
        name,
        ctx,
        primary_vars,
        eij_pairs,
        cnf: solved,
        ..
    } = translation;
    let start = Instant::now();
    let spurious = |detail: String| CertifyError::SpuriousModel {
        name: name.clone(),
        detail,
    };
    // 1. Propositional level: the model satisfies every clause the solver was
    //    given.
    if !verify_model(solved, model) {
        return Err(spurious("the model does not satisfy the solved CNF".into()));
    }
    let satisfies = |clause: &[Lit]| {
        clause
            .iter()
            .any(|&l| l.var().index() < model.len() && model.value(l.var()) == l.is_positive())
    };
    if !added.iter().all(|clause| satisfies(clause)) {
        return Err(spurious(
            "the model does not satisfy a clause added during refinement".into(),
        ));
    }
    // 2. Equality level: the eij assignment must be transitivity-consistent,
    //    so one value per connected component lifts it to a real equality
    //    interpretation.
    if !refine::transitivity_violations(eij_pairs, model).is_empty() {
        return Err(spurious(
            "the eij assignment violates transitivity (spurious model)".into(),
        ));
    }
    let (classes, num_classes) = equality_classes(eij_pairs, model);
    // 3. EUFM level: lift the counterexample into an interpretation and
    //    re-evaluate the encoded correctness formula.  The interpretation is
    //    built symbol-keyed straight from the primary-variable map — the same
    //    assignment `Counterexample::to_interpretation` produces by name,
    //    without cloning the hash-consed context for the interning round-trip.
    let cex = Counterexample::from_model(ctx, primary_vars, model);
    let mut interp = Interpretation::new();
    for (&sym, &var) in primary_vars {
        if var.index() < model.len() {
            interp.prop_vars.insert(sym, model.value(var));
        }
    }
    for (&sym, &class) in &classes {
        // Distinct small values per equality class witness the lifting.
        interp.term_vars.insert(sym, 1 + class as u64);
    }
    if !evaluate_deep(ctx, &interp, translation.side_constraints) {
        return Err(spurious(
            "the side constraints evaluate to false under the model".into(),
        ));
    }
    if evaluate_deep(ctx, &interp, translation.encoded) {
        return Err(spurious(
            "the encoded correctness formula still evaluates to true under the model".into(),
        ));
    }
    let certificate = ModelCertificate {
        checked_clauses: solved.num_clauses() + added.len(),
        primary_assignments: cex.len(),
        equality_classes: num_classes,
        check_time: start.elapsed(),
    };
    Ok((cex, certificate))
}

/// Certified check of one translation: runs the (refining, incremental)
/// check and certifies the outcome per [`CertifyOptions`].
pub(crate) fn check_certified(
    translation: &Translation,
    config: CdclConfig,
    certify: &CertifyOptions,
    budget: Budget,
) -> Result<(CertifiedVerdict, RefinementStats), CertifyError> {
    let _span = velv_obs::span_fields("certify", &[("formula", translation.name.as_str().into())]);
    velv_obs::global()
        .counter(
            "velv_core_certifications_total",
            "Certified verification runs started.",
        )
        .inc();
    let mut solver = IncrementalSolver::with_formula(config, &translation.cnf);
    let proof = certify.check_unsat_proofs.then(|| solver.enable_proof());
    let mut stats = RefinementStats::default();
    let mut driver = IncrementalDriver {
        solver: &mut solver,
        added: Vec::new(),
    };
    // Certified checking refines *eager* translations too: the sparse
    // triangulation connects large elimination neighbourhoods along a path
    // (the paper's Section-6 scheme), which is not chordal, so an eager
    // model may still assign the eij variables transitivity-inconsistently.
    // Running the violation check for both modes asserts the (valid) path
    // clauses and re-solves until the model lifts to a genuine equality
    // interpretation — certification closes that gap instead of reporting
    // an unliftable counterexample.
    let result = refine::refinement_loop(
        &translation.eij_pairs,
        true,
        &budget,
        &mut stats,
        &mut driver,
    );
    let added = driver.added;
    let certified = match result {
        SatResult::Unsat => {
            let certificate = match &proof {
                Some(handle) => {
                    // No further solving happens: take the proof instead of cloning it.
                    let recorded = handle.take();
                    let terminal = recorded.len().saturating_sub(1);
                    Certificate::Unsat(check_unsat_proof(
                        &translation.name,
                        &translation.cnf,
                        &added,
                        &recorded,
                        terminal,
                        certify,
                    )?)
                }
                None => Certificate::Unchecked("proof logging disabled".to_owned()),
            };
            CertifiedVerdict {
                verdict: Verdict::Correct,
                certificate,
            }
        }
        SatResult::Sat(model) => {
            if certify.validate_counterexamples {
                let (cex, certificate) = validate_model(translation, &added, &model)?;
                CertifiedVerdict {
                    verdict: Verdict::Buggy(cex),
                    certificate: Certificate::Sat(certificate),
                }
            } else {
                CertifiedVerdict {
                    verdict: Verdict::Buggy(Counterexample::from_model(
                        &translation.ctx,
                        &translation.primary_vars,
                        &model,
                    )),
                    certificate: Certificate::Unchecked("model validation disabled".to_owned()),
                }
            }
        }
        other => CertifiedVerdict {
            verdict: Verdict::undecided(&other),
            certificate: Certificate::Unchecked("the solver did not decide".to_owned()),
        },
    };
    Ok((certified, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Verifier;
    use crate::options::TranslationOptions;
    use crate::test_models::{PipelinedToy, ToyBug, ToySpec};

    fn certified(
        options: TranslationOptions,
        implementation: &PipelinedToy,
    ) -> Result<(CertifiedVerdict, RefinementStats), CertifyError> {
        let verifier = Verifier::new(options);
        let translation = verifier.translate(implementation, &ToySpec);
        verifier.check_certified(
            &translation,
            CdclConfig::chaff(),
            &CertifyOptions::full().with_trimming(),
            Budget::unlimited(),
        )
    }

    #[test]
    fn correct_toy_design_certifies_eager_and_lazy() {
        for options in [
            TranslationOptions::default(),
            TranslationOptions::default().with_lazy_transitivity(),
            TranslationOptions::default()
                .without_positive_equality()
                .with_lazy_transitivity(),
        ] {
            let (outcome, _) = certified(options, &PipelinedToy::correct()).unwrap();
            assert!(outcome.verdict.is_correct(), "{:?}", outcome.verdict);
            match outcome.certificate {
                Certificate::Unsat(proof) => {
                    assert!(proof.proof_steps > 0);
                    assert!(proof.checked_clauses > 0);
                    assert!(proof.input_core_size.is_some());
                }
                other => panic!("expected a proof certificate, got {other:?}"),
            }
        }
    }

    #[test]
    fn buggy_toy_designs_yield_validated_counterexamples() {
        for options in [
            TranslationOptions::default(),
            TranslationOptions::default().with_lazy_transitivity(),
        ] {
            for bug in [ToyBug::ForwardingIgnoresValid, ToyBug::WritesWrongData] {
                let (outcome, _) = certified(options.clone(), &PipelinedToy::buggy(bug)).unwrap();
                assert!(outcome.verdict.is_buggy(), "{bug:?}: {:?}", outcome.verdict);
                match outcome.certificate {
                    Certificate::Sat(model) => {
                        assert!(model.primary_assignments > 0, "{bug:?}");
                        assert!(model.checked_clauses > 0, "{bug:?}");
                    }
                    other => panic!("{bug:?}: expected a model certificate, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_toy_obligation_certifies_eager_and_lazy() {
        let designs = [
            PipelinedToy::correct(),
            PipelinedToy::buggy(ToyBug::ForwardingIgnoresValid),
            PipelinedToy::buggy(ToyBug::WritesWrongData),
        ];
        for options in [
            TranslationOptions::default(),
            TranslationOptions::default().with_lazy_transitivity(),
        ] {
            let verifier = Verifier::new(options);
            for (index, implementation) in designs.iter().enumerate() {
                let problem = verifier.build_problem(implementation, &ToySpec);
                let obligations = verifier.translate_obligations(&problem, 8);
                assert!(!obligations.is_empty());
                let mut overall = Verdict::Correct;
                for obligation in &obligations {
                    let (certified, _) = verifier
                        .check_certified(
                            obligation,
                            CdclConfig::chaff(),
                            &CertifyOptions::default(),
                            Budget::unlimited(),
                        )
                        .unwrap_or_else(|e| panic!("{e}"));
                    match (&certified.certificate, &certified.verdict) {
                        (Certificate::Unsat(_), Verdict::Correct) => {}
                        (Certificate::Sat(_), Verdict::Buggy(_)) => {}
                        (certificate, verdict) => panic!(
                            "{}: verdict {verdict:?} with certificate {certificate:?}",
                            obligation.name
                        ),
                    }
                    overall.absorb_obligation(&certified.verdict);
                }
                assert_eq!(overall.is_correct(), index == 0, "{overall:?}");
            }
        }
    }

    #[test]
    fn a_refutation_must_end_in_the_empty_clause() {
        // (x1) ∧ (¬x1 ∨ x2) ∧ (¬x2): deriving (x2) is valid RUP, but a proof
        // that stops there never refutes the formula.
        let mut cnf = CnfFormula::new(0);
        let (x1, x2) = (cnf.new_var(), cnf.new_var());
        cnf.add_clause(vec![Lit::positive(x1)]);
        cnf.add_clause(vec![Lit::negative(x1), Lit::positive(x2)]);
        cnf.add_clause(vec![Lit::negative(x2)]);
        let check = |proof: &Proof| {
            let terminal = proof.len() - 1;
            check_unsat_proof("toy", &cnf, &[], proof, terminal, &CertifyOptions::full())
        };
        let mut short = Proof::new();
        short.add(vec![2]);
        assert!(matches!(
            check(&short),
            Err(CertifyError::TerminalMismatch { .. })
        ));
        assert!(matches!(
            validate_terminal("toy", &short, 0),
            Err(CertifyError::TerminalMismatch { .. })
        ));
        let mut complete = short.clone();
        complete.add(Vec::new());
        assert!(check(&complete).is_ok());
    }

    #[test]
    fn disabled_switches_leave_verdicts_unchecked() {
        let verifier = Verifier::new(TranslationOptions::default());
        let translation = verifier.translate(&PipelinedToy::correct(), &ToySpec);
        let off = CertifyOptions {
            check_unsat_proofs: false,
            validate_counterexamples: false,
            trim_proofs: false,
        };
        let (outcome, _) = verifier
            .check_certified(&translation, CdclConfig::chaff(), &off, Budget::unlimited())
            .unwrap();
        assert!(outcome.verdict.is_correct());
        assert!(!outcome.certificate.is_checked());
    }
}
