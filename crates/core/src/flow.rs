//! The end-to-end verification flow: model → EUFM criterion → propositional
//! formula → CNF → SAT/BDD back end → verdict.

use crate::backend::{race_backends, Backend, PortfolioOutcome};
use crate::burch_dill::VerificationProblem;
use crate::certify::{self, CertifiedVerdict, CertifyError};
use crate::cnf::formula_to_cnf;
use crate::counterexample::Counterexample;
use crate::decompose::decompose;
use crate::encode::encode;
use crate::memory_elim::eliminate_memories;
use crate::options::{CertifyOptions, TranslationOptions};
use crate::positive_equality::Classification;
use crate::refine;
use crate::stats::{RefinementStats, TranslationStats};
use crate::uf_elim::eliminate_ufs;
use std::collections::{BTreeMap, BTreeSet};
use velv_eufm::{Context, DagStats, FormulaId, Symbol};
use velv_hdl::Processor;
use velv_sat::cdcl::{CdclConfig, CdclSolver};
use velv_sat::{Budget, CnfFormula, SatResult, SharedProof, Solver, Var};

/// A fully translated verification obligation, ready for a SAT or BDD back end.
#[derive(Clone, Debug)]
pub struct Translation {
    /// Name of the obligation (design name, or design + obligation for
    /// decomposed criteria).
    pub name: String,
    /// The expression context owning the encoded formulas.
    pub ctx: Context,
    /// The encoded correctness formula (must be valid).
    pub encoded: FormulaId,
    /// Side constraints that may be assumed (transitivity constraints).
    pub side_constraints: FormulaId,
    /// The CNF whose satisfiability disproves correctness.
    pub cnf: CnfFormula,
    /// CNF variables of the primary Boolean variables.
    pub primary_vars: BTreeMap<Symbol, Var>,
    /// The *e*ij equality variables of the CNF, `(x, y, cnf_var)` per encoded
    /// g-term pair — the input of the lift rule of [`crate::refine`].
    pub eij_pairs: Vec<(Symbol, Symbol, Var)>,
    /// Size statistics.
    pub stats: TranslationStats,
}

/// Outcome of a verification run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The design satisfies the Burch–Dill correctness criterion.
    Correct,
    /// The design is buggy; the counterexample falsifies the criterion.
    Buggy(Counterexample),
    /// The back end could not decide within its resource limits.
    Unknown(String),
}

impl Verdict {
    /// Whether the verdict proves correctness.
    pub fn is_correct(&self) -> bool {
        matches!(self, Verdict::Correct)
    }

    /// Whether the verdict exhibits a bug.
    pub fn is_buggy(&self) -> bool {
        matches!(self, Verdict::Buggy(_))
    }

    /// The counterexample, when the design is buggy.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Buggy(cex) => Some(cex),
            _ => None,
        }
    }

    /// Folds one obligation's verdict into the overall verdict of a
    /// decomposed check, which starts as [`Verdict::Correct`]: buggy beats
    /// unknown, unknown beats correct, and the first verdict of the winning
    /// kind is kept.
    pub fn absorb_obligation(&mut self, obligation: &Verdict) {
        let replace = match (&*self, obligation) {
            (Verdict::Buggy(_), _) => false,
            (_, Verdict::Buggy(_)) => true,
            (Verdict::Correct, Verdict::Unknown(_)) => true,
            _ => false,
        };
        if replace {
            *self = obligation.clone();
        }
    }

    /// Maps an undecided solver result to the uniform `Unknown` verdict —
    /// one spelling for cancellation across every back end, so callers
    /// inspecting race runs or certified outcomes compare a single value.
    ///
    /// # Panics
    ///
    /// Panics when called on a decided result.
    pub(crate) fn undecided(result: &SatResult) -> Verdict {
        match result {
            SatResult::Unknown(velv_sat::StopReason::Cancelled) => {
                Verdict::Unknown("cancelled".to_owned())
            }
            SatResult::Unknown(reason) => Verdict::Unknown(format!("{reason:?}")),
            _ => unreachable!("only called for undecided results"),
        }
    }
}

/// The verification driver: owns the translation options and runs the flow.
#[derive(Clone, Debug, Default)]
pub struct Verifier {
    options: TranslationOptions,
}

impl Verifier {
    /// Creates a verifier with the given translation options.
    pub fn new(options: TranslationOptions) -> Self {
        Verifier { options }
    }

    /// The translation options in use.
    pub fn options(&self) -> &TranslationOptions {
        &self.options
    }

    /// Builds the Burch–Dill correctness problem for a design.
    pub fn build_problem(
        &self,
        implementation: &dyn Processor,
        specification: &dyn Processor,
    ) -> VerificationProblem {
        VerificationProblem::build(
            implementation,
            specification,
            &self.options.translation_boxes,
        )
    }

    /// Translates the monolithic correctness criterion of a design.
    pub fn translate(
        &self,
        implementation: &dyn Processor,
        specification: &dyn Processor,
    ) -> Translation {
        let problem = self.build_problem(implementation, specification);
        self.translate_problem(&problem)
    }

    /// Translates the monolithic criterion of an already-built problem.
    pub fn translate_problem(&self, problem: &VerificationProblem) -> Translation {
        self.translate_formula_in(
            problem.ctx.clone(),
            problem.criterion,
            &problem.memory_vars,
            problem.name.clone(),
        )
    }

    /// Translates the decomposed (weak) criteria of a problem: at most
    /// `max_obligations` obligations (plus the coverage obligation).
    pub fn translate_obligations(
        &self,
        problem: &VerificationProblem,
        max_obligations: usize,
    ) -> Vec<Translation> {
        let mut ctx = problem.ctx.clone();
        let obligations = decompose(problem, &mut ctx, max_obligations);
        obligations
            .into_iter()
            .map(|o| {
                self.translate_formula_in(
                    ctx.clone(),
                    o.formula,
                    &problem.memory_vars,
                    format!("{}::{}", problem.name, o.name),
                )
            })
            .collect()
    }

    /// Runs the translation pipeline on one formula inside its own context.
    ///
    /// The deep structural recursions of the pipeline (memory elimination, UF
    /// elimination, encoding, CNF generation) are executed on a dedicated
    /// thread with a large stack so that the wide superscalar and VLIW
    /// correctness formulas do not overflow the default thread stack.
    fn translate_formula_in(
        &self,
        ctx: Context,
        criterion: FormulaId,
        memory_vars: &BTreeSet<Symbol>,
        name: String,
    ) -> Translation {
        let this = self.clone();
        let memory_vars = memory_vars.clone();
        // The pipeline runs on its own thread: pick up the caller's span
        // here so the `translate` span nests under it in the trace.
        let parent = velv_obs::current_span_id();
        std::thread::Builder::new()
            .name(format!("velv-translate-{name}"))
            .stack_size(256 * 1024 * 1024)
            .spawn(move || {
                let _span = velv_obs::span_child_of(
                    "translate",
                    parent,
                    &[("formula", name.as_str().into())],
                );
                this.translate_formula_impl(ctx, criterion, &memory_vars, name)
            })
            .expect("spawning the translation thread succeeds")
            .join()
            .expect("the translation thread does not panic")
    }

    fn translate_formula_impl(
        &self,
        mut ctx: Context,
        criterion: FormulaId,
        memory_vars: &BTreeSet<Symbol>,
        name: String,
    ) -> Translation {
        let eufm_stats = DagStats::of_formula(&ctx, criterion);

        // 1. Memory elimination (precise or conservative per options).
        let memless = {
            let _span = velv_obs::span("translate.eliminate_memories");
            let abstract_memories: BTreeSet<Symbol> = self
                .options
                .abstract_memories
                .iter()
                .map(|n| ctx.symbol(n))
                .collect();
            eliminate_memories(&mut ctx, criterion, memory_vars, &abstract_memories)
        };

        // 2. p/g classification (positive equality) of the memory-free formula.
        let mut classification = {
            let _span = velv_obs::span("translate.classify");
            if self.options.positive_equality {
                Classification::from_formula(&ctx, memless.formula)
            } else {
                Classification::all_general()
            }
        };

        // 3. UF/UP elimination.
        let eliminated = {
            let _span = velv_obs::span("translate.eliminate_ufs");
            eliminate_ufs(
                &mut ctx,
                memless.formula,
                &self.options,
                &mut classification,
            )
        };
        // Ackermann constraints (if any) are assumptions of the validity check.
        let to_prove = ctx.implies(eliminated.constraints, eliminated.formula);

        // 4. Encoding of the remaining equations.
        let encoded = {
            let _span = velv_obs::span("translate.encode");
            encode(
                &mut ctx,
                to_prove,
                &classification,
                self.options.encoding,
                self.options.transitivity,
            )
        };

        // 5. CNF generation: side constraints hold, encoded criterion fails.
        let cnf_translation = {
            let _span = velv_obs::span("translate.cnf");
            formula_to_cnf(
                &ctx,
                &[(encoded.side_constraints, true), (encoded.formula, false)],
            )
        };
        velv_obs::global()
            .counter(
                "velv_core_translations_total",
                "EUFM formulas translated to CNF.",
            )
            .inc();
        let stats = TranslationStats {
            // The CNF builder reaches exactly the propositional variables of
            // both roots, so its variable map is their joint support.
            primary_bool_vars: cnf_translation.primary_vars.len(),
            eij_vars: encoded.num_eij_vars,
            indexing_vars: encoded.num_indexing_vars,
            g_pairs: encoded.num_g_pairs,
            transitivity_triangles: encoded.num_triangles,
            cnf_vars: cnf_translation.cnf.num_vars(),
            cnf_clauses: cnf_translation.cnf.num_clauses(),
            eufm_equations: eufm_stats.equations,
            uf_applications: eliminated.introduced_vars.len(),
        };

        // The encoder's eij variables are formula nodes; map them to their
        // CNF variables.  Pairs whose variable was simplified out of the CNF
        // are dropped (they are unconstrained).
        let eij_pairs = encoded
            .eij_pairs
            .iter()
            .filter_map(|&(x, y, fid)| {
                let sym = match ctx.formula(fid) {
                    velv_eufm::Formula::Var(sym) => *sym,
                    _ => return None,
                };
                cnf_translation
                    .primary_vars
                    .get(&sym)
                    .map(|&var| (x, y, var))
            })
            .collect();
        Translation {
            name,
            ctx,
            encoded: encoded.formula,
            side_constraints: encoded.side_constraints,
            cnf: cnf_translation.cnf,
            primary_vars: cnf_translation.primary_vars,
            eij_pairs,
            stats,
        }
    }

    /// Checks a translation with a SAT back end.
    ///
    /// Every model passes the lift rule of [`crate::refine`] before it
    /// becomes [`Verdict::Buggy`]; a model that does not lift is refuted by
    /// its violated transitivity clauses and the solver solves again (see
    /// [`Solver::solve_refining`]).  `budget` bounds the whole loop.
    pub fn check(
        &self,
        translation: &Translation,
        solver: &mut dyn Solver,
        budget: Budget,
    ) -> Verdict {
        refine::check(translation, |refine| {
            solver.solve_refining(&translation.cnf, budget, refine)
        })
        .verdict(translation)
    }

    /// [`Verifier::check`] on a CDCL engine built from `config`, logging one
    /// DRAT proof of every refinement round into `proof`.  The proof checks
    /// against the translation's CNF followed by the refinement clauses, so
    /// it replays against the CNF alone only when
    /// [`RefinementStats::constraints_added`] is 0.
    pub fn check_with_proof(
        &self,
        translation: &Translation,
        config: CdclConfig,
        budget: Budget,
        proof: &SharedProof,
    ) -> (Verdict, RefinementStats) {
        let mut solver = CdclSolver::new(config);
        let checked = refine::check(translation, |refine| {
            solver.solve_refining_with_proof(&translation.cnf, budget, proof, refine)
        });
        (checked.verdict(translation), checked.stats)
    }

    /// Checks a translation and *certifies* the verdict per `certify`: an
    /// UNSAT answer carries a DRAT proof replayed by the independent checker
    /// of `velv_proof` against the exact CNF that was solved (including every
    /// clause the transitivity refinement asserted), and a SAT answer is
    /// validated as a genuine counterexample — the model must satisfy the
    /// solved CNF, and its lifted assignment must be transitivity-consistent
    /// over the *e*ij variables and falsify the encoded correctness formula
    /// under true side constraints when re-evaluated with `velv_eufm::eval`.
    ///
    /// # Errors
    ///
    /// Returns a [`CertifyError`] when the evidence does not hold up — a
    /// rejected proof or a spurious model.  Such a verdict must not be
    /// trusted.
    pub fn check_certified(
        &self,
        translation: &Translation,
        config: CdclConfig,
        certify: &CertifyOptions,
        budget: Budget,
    ) -> Result<(CertifiedVerdict, RefinementStats), CertifyError> {
        certify::check_certified(translation, config, certify, budget)
    }

    /// End-to-end certified verification: translate, check, certify.
    ///
    /// # Errors
    ///
    /// See [`Verifier::check_certified`].
    pub fn verify_certified(
        &self,
        implementation: &dyn Processor,
        specification: &dyn Processor,
        config: CdclConfig,
        certify: &CertifyOptions,
        budget: Budget,
    ) -> Result<(CertifiedVerdict, RefinementStats), CertifyError> {
        let translation = self.translate(implementation, specification);
        self.check_certified(&translation, config, certify, budget)
    }

    /// Checks a translation with any [`Backend`]: a SAT preset, the BDD back
    /// end, or a portfolio racing several of them.  A BDD falsifying
    /// assignment passes the lift rule of [`crate::refine`] like a SAT model;
    /// one that does not lift gives [`Verdict::Unknown`], since a BDD build
    /// cannot refine.
    pub fn check_with_backend(
        &self,
        translation: &Translation,
        backend: &Backend,
        budget: Budget,
    ) -> Verdict {
        match backend {
            Backend::Sat(kind) => {
                let mut solver = kind.build();
                self.check(translation, solver.as_mut(), budget)
            }
            // A single-member "race": the collector loop is what forwards the
            // budget's deadline and outer cancel token into the BDD build, so
            // a stand-alone BDD check honours the budget exactly like the
            // portfolio path does.
            Backend::Bdd { .. } => {
                self.check_portfolio(translation, std::slice::from_ref(backend), budget)
                    .verdict
            }
            Backend::Portfolio(members) => {
                self.check_portfolio(translation, members, budget).verdict
            }
        }
    }

    /// Races the given back ends against one translated obligation; the first
    /// decided verdict wins and the losers are cancelled cooperatively.
    pub fn check_portfolio(
        &self,
        translation: &Translation,
        members: &[Backend],
        budget: Budget,
    ) -> PortfolioOutcome {
        race_backends(translation, members, budget)
    }

    /// End-to-end verification with an arbitrary [`Backend`].
    pub fn verify_with_backend(
        &self,
        implementation: &dyn Processor,
        specification: &dyn Processor,
        backend: &Backend,
        budget: Budget,
    ) -> Verdict {
        let translation = self.translate(implementation, specification);
        self.check_with_backend(&translation, backend, budget)
    }

    /// End-to-end portfolio verification: translates once, then races the
    /// back ends (CDCL presets against the BDD build, in the default
    /// configuration) and reports the winner alongside the per-member runs.
    pub fn verify_portfolio(
        &self,
        implementation: &dyn Processor,
        specification: &dyn Processor,
        members: &[Backend],
        budget: Budget,
    ) -> PortfolioOutcome {
        let translation = self.translate(implementation, specification);
        self.check_portfolio(&translation, members, budget)
    }

    /// End-to-end verification with a SAT back end and no resource limits.
    pub fn verify(
        &self,
        implementation: &dyn Processor,
        specification: &dyn Processor,
        solver: &mut dyn Solver,
    ) -> Verdict {
        self.verify_with_budget(implementation, specification, solver, Budget::unlimited())
    }

    /// End-to-end verification with a SAT back end and a resource budget.
    pub fn verify_with_budget(
        &self,
        implementation: &dyn Processor,
        specification: &dyn Processor,
        solver: &mut dyn Solver,
        budget: Budget,
    ) -> Verdict {
        let translation = self.translate(implementation, specification);
        self.check(&translation, solver, budget)
    }

    /// Convenience: decomposed verification.  Every obligation of
    /// [`Verifier::translate_obligations`] is checked on its own solver from
    /// `make_solver`; returns the overall verdict (see
    /// [`Verdict::absorb_obligation`]) and the per-obligation verdicts.
    pub fn verify_decomposed(
        &self,
        implementation: &dyn Processor,
        specification: &dyn Processor,
        max_obligations: usize,
        mut make_solver: impl FnMut() -> Box<dyn Solver>,
        budget: Budget,
    ) -> (Verdict, Vec<(String, Verdict)>) {
        let problem = self.build_problem(implementation, specification);
        let translations = self.translate_obligations(&problem, max_obligations);
        let mut results = Vec::new();
        let mut overall = Verdict::Correct;
        for translation in &translations {
            let mut solver = make_solver();
            let verdict = self.check(translation, solver.as_mut(), budget.clone());
            overall.absorb_obligation(&verdict);
            results.push((translation.name.clone(), verdict));
        }
        (overall, results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_models::{PipelinedToy, ToyBug, ToySpec};
    use velv_sat::cdcl::CdclSolver;

    #[test]
    fn correct_design_verifies() {
        let verifier = Verifier::new(TranslationOptions::default());
        let mut solver = CdclSolver::chaff();
        let verdict = verifier.verify(&PipelinedToy::correct(), &ToySpec, &mut solver);
        assert!(verdict.is_correct(), "got {verdict:?}");
    }

    #[test]
    fn buggy_designs_are_refuted_with_counterexamples() {
        let verifier = Verifier::new(TranslationOptions::default());
        for bug in [ToyBug::ForwardingIgnoresValid, ToyBug::WritesWrongData] {
            let mut solver = CdclSolver::chaff();
            let verdict = verifier.verify(&PipelinedToy::buggy(bug), &ToySpec, &mut solver);
            assert!(verdict.is_buggy(), "bug {bug:?}: got {verdict:?}");
            assert!(verdict.counterexample().is_some());
        }
    }

    #[test]
    fn translation_reports_statistics() {
        let verifier = Verifier::new(TranslationOptions::default());
        let translation = verifier.translate(&PipelinedToy::correct(), &ToySpec);
        assert!(translation.stats.cnf_vars > 0);
        assert!(translation.stats.cnf_clauses > 0);
        assert!(translation.stats.eufm_equations > 0);
        assert!(translation.stats.primary_bool_vars > 0);
        assert!(translation.stats.uf_applications > 0);
    }

    #[test]
    fn all_structural_variations_agree_on_the_verdict() {
        for (name, options) in TranslationOptions::structural_variations() {
            let verifier = Verifier::new(options);
            let mut solver = CdclSolver::chaff();
            let ok = verifier.verify(&PipelinedToy::correct(), &ToySpec, &mut solver);
            assert!(ok.is_correct(), "variation {name}: {ok:?}");
            let mut solver = CdclSolver::chaff();
            let bad = verifier.verify(
                &PipelinedToy::buggy(ToyBug::ForwardingIgnoresValid),
                &ToySpec,
                &mut solver,
            );
            assert!(bad.is_buggy(), "variation {name}: {bad:?}");
        }
    }

    #[test]
    fn both_encodings_agree_on_the_verdict() {
        for options in [
            TranslationOptions::default(),
            TranslationOptions::default().with_small_domain(),
        ] {
            let verifier = Verifier::new(options);
            let mut solver = CdclSolver::chaff();
            assert!(verifier
                .verify(&PipelinedToy::correct(), &ToySpec, &mut solver)
                .is_correct());
            let mut solver = CdclSolver::chaff();
            assert!(verifier
                .verify(
                    &PipelinedToy::buggy(ToyBug::WritesWrongData),
                    &ToySpec,
                    &mut solver
                )
                .is_buggy());
        }
    }

    #[test]
    fn disabling_positive_equality_preserves_the_verdict() {
        let verifier = Verifier::new(TranslationOptions::default().without_positive_equality());
        let mut solver = CdclSolver::chaff();
        assert!(verifier
            .verify(&PipelinedToy::correct(), &ToySpec, &mut solver)
            .is_correct());
        let mut solver = CdclSolver::chaff();
        assert!(verifier
            .verify(
                &PipelinedToy::buggy(ToyBug::WritesWrongData),
                &ToySpec,
                &mut solver
            )
            .is_buggy());
    }

    #[test]
    fn disabling_positive_equality_increases_primary_variables() {
        let with = Verifier::new(TranslationOptions::default());
        let without = Verifier::new(TranslationOptions::default().without_positive_equality());
        let t_with = with.translate(&PipelinedToy::correct(), &ToySpec);
        let t_without = without.translate(&PipelinedToy::correct(), &ToySpec);
        assert!(
            t_without.stats.eij_vars > t_with.stats.eij_vars,
            "treating every term variable as general must add eij variables ({} vs {})",
            t_without.stats.eij_vars,
            t_with.stats.eij_vars
        );
    }

    #[test]
    fn bdd_back_end_agrees() {
        let verifier = Verifier::new(TranslationOptions::default());
        let good = verifier.translate(&PipelinedToy::correct(), &ToySpec);
        let bdd = Backend::Bdd {
            node_limit: 1 << 22,
        };
        assert!(verifier
            .check_with_backend(&good, &bdd, Budget::unlimited())
            .is_correct());
        let bad = verifier.translate(&PipelinedToy::buggy(ToyBug::WritesWrongData), &ToySpec);
        assert!(verifier
            .check_with_backend(&bad, &bdd, Budget::unlimited())
            .is_buggy());
    }

    #[test]
    fn lazy_transitivity_agrees_with_eager_on_the_toy_models() {
        let eager = Verifier::new(TranslationOptions::default());
        let lazy = Verifier::new(TranslationOptions::default().with_lazy_transitivity());
        let mut solver = CdclSolver::chaff();
        assert!(lazy
            .verify(&PipelinedToy::correct(), &ToySpec, &mut solver)
            .is_correct());
        for bug in [ToyBug::ForwardingIgnoresValid, ToyBug::WritesWrongData] {
            let eager_translation = eager.translate(&PipelinedToy::buggy(bug), &ToySpec);
            let lazy_translation = lazy.translate(&PipelinedToy::buggy(bug), &ToySpec);
            assert!(
                lazy_translation.stats.transitivity_triangles == 0,
                "lazy encoding emits no triangles"
            );
            let mut solver = CdclSolver::chaff();
            let eager_verdict = eager.check(
                &eager_translation,
                &mut solver,
                velv_sat::Budget::unlimited(),
            );
            let mut solver = CdclSolver::chaff();
            let lazy_verdict = lazy.check(
                &lazy_translation,
                &mut solver,
                velv_sat::Budget::unlimited(),
            );
            assert_eq!(
                eager_verdict.is_buggy(),
                lazy_verdict.is_buggy(),
                "bug {bug:?}"
            );
            assert!(lazy_verdict.is_buggy(), "bug {bug:?}: {lazy_verdict:?}");
        }
    }

    #[test]
    fn lazy_check_with_proof_agrees_and_reports_stats() {
        let lazy = Verifier::new(
            TranslationOptions::default()
                .without_positive_equality()
                .with_lazy_transitivity(),
        );
        let good = lazy.translate(&PipelinedToy::correct(), &ToySpec);
        let proof = SharedProof::new();
        let (verdict, stats) =
            lazy.check_with_proof(&good, CdclConfig::chaff(), Budget::unlimited(), &proof);
        assert!(verdict.is_correct(), "{verdict:?}");
        assert!(stats.iterations >= 1);
        assert!(!proof.take().is_empty(), "the refutation is on record");
        let bad = lazy.translate(&PipelinedToy::buggy(ToyBug::WritesWrongData), &ToySpec);
        let (verdict, _) = lazy.check_with_proof(
            &bad,
            CdclConfig::chaff(),
            Budget::unlimited(),
            &SharedProof::new(),
        );
        assert!(verdict.is_buggy(), "{verdict:?}");
        assert!(verdict.counterexample().is_some());
    }

    #[test]
    fn decomposition_agrees_under_eager_and_lazy_encodings() {
        for options in [
            TranslationOptions::default(),
            TranslationOptions::default().with_lazy_transitivity(),
        ] {
            let verifier = Verifier::new(options);
            let (overall, parts) = verifier.verify_decomposed(
                &PipelinedToy::correct(),
                &ToySpec,
                8,
                || Box::new(CdclSolver::chaff()),
                Budget::unlimited(),
            );
            assert!(overall.is_correct(), "got {overall:?}");
            assert!(parts[0].0.contains("coverage"), "{:?}", parts[0].0);
            assert!(parts.iter().all(|(_, v)| v.is_correct()));
            let (overall, parts) = verifier.verify_decomposed(
                &PipelinedToy::buggy(ToyBug::WritesWrongData),
                &ToySpec,
                8,
                || Box::new(CdclSolver::chaff()),
                Budget::unlimited(),
            );
            assert!(overall.is_buggy(), "got {overall:?}");
            assert!(parts.iter().any(|(_, v)| v.is_buggy()));
        }
    }

    #[test]
    fn buggy_beats_unknown_beats_correct() {
        let unknown = |reason: &str| Verdict::Unknown(reason.to_owned());
        let buggy = Verdict::Buggy(Counterexample::default());
        let mut overall = Verdict::Correct;
        overall.absorb_obligation(&Verdict::Correct);
        assert_eq!(overall, Verdict::Correct);
        overall.absorb_obligation(&unknown("first"));
        overall.absorb_obligation(&unknown("second"));
        overall.absorb_obligation(&Verdict::Correct);
        assert_eq!(overall, unknown("first"));
        overall.absorb_obligation(&buggy);
        overall.absorb_obligation(&unknown("third"));
        overall.absorb_obligation(&Verdict::Correct);
        assert_eq!(overall, buggy);
    }

    #[test]
    fn decomposed_verification_matches_monolithic() {
        let verifier = Verifier::new(TranslationOptions::default());
        let (overall, parts) = verifier.verify_decomposed(
            &PipelinedToy::correct(),
            &ToySpec,
            8,
            || Box::new(CdclSolver::chaff()),
            Budget::unlimited(),
        );
        assert!(overall.is_correct(), "got {overall:?}");
        assert!(!parts.is_empty());
        let (overall, _) = verifier.verify_decomposed(
            &PipelinedToy::buggy(ToyBug::WritesWrongData),
            &ToySpec,
            8,
            || Box::new(CdclSolver::chaff()),
            Budget::unlimited(),
        );
        assert!(overall.is_buggy());
    }
}
