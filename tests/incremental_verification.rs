//! Acceptance suite for transitivity refinement at the verification level:
//! lazy transitivity (no triangles seeded) must produce verdicts identical
//! to the eager encoding across the DLX, VLIW and OOO model catalog, and
//! decomposed verification (one check per weak-criterion obligation) must
//! agree with the monolithic criterion under both encodings.

use velv::prelude::*;
use velv_sat::cdcl::CdclConfig;
use velv_sat::SharedProof;

fn eager() -> Verifier {
    Verifier::new(TranslationOptions::default())
}

fn lazy() -> Verifier {
    Verifier::new(TranslationOptions::default().with_lazy_transitivity())
}

#[test]
fn lazy_transitivity_matches_eager_on_the_dlx_catalog() {
    let config = DlxConfig::single_issue();
    let spec = DlxSpecification::new(config);
    let mut designs: Vec<(String, Dlx, bool)> =
        vec![("correct".to_owned(), Dlx::correct(config), false)];
    for bug in dlx_bug_catalog(config) {
        designs.push((format!("{bug:?}"), Dlx::buggy(config, bug), true));
    }
    for (name, implementation, expect_buggy) in &designs {
        let mut solver = CdclSolver::chaff();
        let verdict = lazy().verify(implementation, &spec, &mut solver);
        assert_eq!(verdict.is_buggy(), *expect_buggy, "{name}: {verdict:?}");
        if *expect_buggy {
            assert!(
                verdict.counterexample().is_some(),
                "{name}: refined SAT answers carry counterexamples"
            );
        } else {
            assert!(verdict.is_correct(), "{name}: {verdict:?}");
        }
    }
}

#[test]
fn lazy_incremental_check_matches_eager_on_vliw() {
    let config = VliwConfig::base();
    let spec = VliwSpecification::new(config);
    let mut designs: Vec<(String, Vliw, bool)> =
        vec![("correct".to_owned(), Vliw::correct(config), false)];
    for bug in vliw_bug_catalog(config).into_iter().take(3) {
        designs.push((format!("{bug:?}"), Vliw::buggy(config, bug), true));
    }
    for (name, implementation, expect_buggy) in &designs {
        let translation = lazy().translate(implementation, &spec);
        let (verdict, stats) = lazy().check_with_proof(
            &translation,
            CdclConfig::chaff(),
            Budget::unlimited(),
            &SharedProof::new(),
        );
        assert_eq!(verdict.is_buggy(), *expect_buggy, "{name}: {verdict:?}");
        assert!(stats.iterations >= 1, "{name}");
    }
}

#[test]
fn lazy_transitivity_matches_eager_on_ooo() {
    // The out-of-order designs are the transitivity-heavy workload: they are
    // only correct *because* equality is transitive.  Lazily they must
    // refine from no triangles at all, eagerly from a sparse triangulation
    // that is not chordal from OOO-4 on; both must answer `Correct`.
    for width in 2usize..=8 {
        let implementation = Ooo::new(width);
        let spec = OooSpecification::new();
        let eager_translation = eager().translate(&implementation, &spec);
        assert!(
            eager_translation.stats.transitivity_triangles > 0,
            "OOO-{width} constrains transitivity eagerly"
        );
        let lazy_translation = lazy().translate(&implementation, &spec);
        assert_eq!(
            lazy_translation.stats.transitivity_triangles, 0,
            "OOO-{width} lazy encoding emits no triangles"
        );
        assert!(
            !lazy_translation.eij_pairs.is_empty(),
            "OOO-{width} has eij pairs to refine over"
        );
        let mut solver = CdclSolver::chaff();
        let eager_verdict = eager().check(&eager_translation, &mut solver, Budget::unlimited());
        let mut solver = CdclSolver::chaff();
        let lazy_verdict = lazy().check(&lazy_translation, &mut solver, Budget::unlimited());
        assert!(eager_verdict.is_correct(), "OOO-{width}: {eager_verdict:?}");
        assert!(lazy_verdict.is_correct(), "OOO-{width}: {lazy_verdict:?}");
        let bdd = lazy().check_with_backend(
            &lazy_translation,
            &Backend::Bdd {
                node_limit: 1 << 20,
            },
            Budget::unlimited(),
        );
        assert!(!bdd.is_buggy(), "OOO-{width} lazy bdd: {bdd:?}");
    }
}

#[test]
fn decomposition_matches_monolithic_on_the_dlx_catalog() {
    let config = DlxConfig::single_issue();
    let spec = DlxSpecification::new(config);
    let mut designs: Vec<(String, Dlx, bool)> =
        vec![("correct".to_owned(), Dlx::correct(config), false)];
    for bug in dlx_bug_catalog(config).into_iter().take(6) {
        designs.push((format!("{bug:?}"), Dlx::buggy(config, bug), true));
    }
    for (mode, verifier) in [("eager", eager()), ("lazy", lazy())] {
        for (name, implementation, expect_buggy) in &designs {
            let mut solver = CdclSolver::chaff();
            let monolithic = verifier.verify(implementation, &spec, &mut solver);
            let (decomposed, parts) = verifier.verify_decomposed(
                implementation,
                &spec,
                8,
                || Box::new(CdclSolver::chaff()),
                Budget::unlimited(),
            );
            assert_eq!(
                monolithic.is_buggy(),
                decomposed.is_buggy(),
                "{name}-{mode}: monolithic {monolithic:?} vs decomposed {decomposed:?}"
            );
            assert_eq!(decomposed.is_buggy(), *expect_buggy, "{name}-{mode}");
            assert!(!parts.is_empty(), "{name}-{mode}");
            if !*expect_buggy {
                assert!(decomposed.is_correct(), "{name}-{mode}: {decomposed:?}");
                assert!(parts.iter().all(|(_, v)| v.is_correct()), "{name}-{mode}");
            }
        }
    }
}

#[test]
fn decomposed_verification_on_vliw_passes_eager_and_lazy() {
    let config = VliwConfig::base();
    let spec = VliwSpecification::new(config);
    let implementation = Vliw::correct(config);
    for verifier in [eager(), lazy()] {
        let (overall, parts) = verifier.verify_decomposed(
            &implementation,
            &spec,
            6,
            || Box::new(CdclSolver::chaff()),
            Budget::unlimited(),
        );
        assert!(overall.is_correct(), "{overall:?}");
        assert!(parts.iter().all(|(_, v)| v.is_correct()));
    }
}
