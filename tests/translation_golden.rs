//! Golden translations: the exact CNF the translator emits for a fixed set of
//! designs and option sets, pinned by size counters and FNV-1a digests.
//!
//! The translator's bookkeeping (memo tables, hash-consing maps, visit
//! order of its passes) may change for speed, but its output may not: CDCL
//! search follows clause and variable order, so a different CNF would move
//! every search counter of the benchmarks.  Any change to these values is an
//! encoding change and must be made on purpose.

use velv::prelude::*;
use velv_sat::CnfFormula;

/// The pinned facts of one translation.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    cnf_vars: usize,
    cnf_clauses: usize,
    eij_vars: usize,
    transitivity_triangles: usize,
    primary_bool_vars: usize,
    /// FNV-1a over the DIMACS literal stream (each clause's literals, then 0).
    cnf_digest: u64,
    /// FNV-1a over `primary_vars` in map order: symbol name, then CNF variable.
    primary_digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn cnf_digest(cnf: &CnfFormula) -> u64 {
    let mut hash = FNV_OFFSET;
    for clause in cnf.clauses() {
        for lit in clause {
            hash = fnv1a(hash, &lit.to_dimacs().to_le_bytes());
        }
        hash = fnv1a(hash, &0i64.to_le_bytes());
    }
    hash
}

fn golden(translation: &Translation) -> Golden {
    let mut primary_digest = FNV_OFFSET;
    for (&sym, var) in &translation.primary_vars {
        primary_digest = fnv1a(primary_digest, translation.ctx.symbol_name(sym).as_bytes());
        primary_digest = fnv1a(primary_digest, &(var.index() as u64).to_le_bytes());
    }
    let stats = &translation.stats;
    Golden {
        cnf_vars: stats.cnf_vars,
        cnf_clauses: stats.cnf_clauses,
        eij_vars: stats.eij_vars,
        transitivity_triangles: stats.transitivity_triangles,
        primary_bool_vars: stats.primary_bool_vars,
        cnf_digest: cnf_digest(&translation.cnf),
        primary_digest,
    }
}

/// Translates one design and compares it with its pinned facts, naming the
/// actual values on a mismatch.  Returns the actual facts.
fn check(
    label: &str,
    options: TranslationOptions,
    implementation: &dyn Processor,
    specification: &dyn Processor,
    expected: Golden,
) -> Golden {
    let translation = Verifier::new(options).translate(implementation, specification);
    assert_eq!(
        translation.cnf.num_vars(),
        translation.stats.cnf_vars,
        "{label}"
    );
    let actual = golden(&translation);
    assert_eq!(actual, expected, "{label}: the translation changed");
    actual
}

fn dlx(config: DlxConfig, bug: Option<DlxBug>) -> (Dlx, DlxSpecification) {
    let implementation = match bug {
        Some(bug) => Dlx::buggy(config, bug),
        None => Dlx::correct(config),
    };
    (implementation, DlxSpecification::new(config))
}

fn vliw(config: VliwConfig, bug: Option<VliwBug>) -> (Vliw, VliwSpecification) {
    let implementation = match bug {
        Some(bug) => Vliw::buggy(config, bug),
        None => Vliw::correct(config),
    };
    (implementation, VliwSpecification::new(config))
}

#[test]
fn single_issue_dlx_under_every_option_set() {
    let (implementation, spec) = dlx(DlxConfig::single_issue(), None);
    let cases = [
        (
            "default",
            TranslationOptions::default(),
            Golden {
                cnf_vars: 1674,
                cnf_clauses: 6877,
                eij_vars: 56,
                transitivity_triangles: 94,
                primary_bool_vars: 83,
                cnf_digest: 0x62e4cd4bfed99d47,
                primary_digest: 0xbee1a5dcc7844b84,
            },
        ),
        (
            "lazy transitivity",
            TranslationOptions::default().with_lazy_transitivity(),
            Golden {
                cnf_vars: 825,
                cnf_clauses: 4342,
                eij_vars: 55,
                transitivity_triangles: 0,
                primary_bool_vars: 79,
                cnf_digest: 0xa96abe7a680defa7,
                primary_digest: 0x23e35e8f8392d142,
            },
        ),
        (
            "small domain",
            TranslationOptions::default().with_small_domain(),
            Golden {
                cnf_vars: 1172,
                cnf_clauses: 5425,
                eij_vars: 0,
                transitivity_triangles: 0,
                primary_bool_vars: 65,
                cnf_digest: 0x9c966f74f72eb959,
                primary_digest: 0x921791e152388ece,
            },
        ),
        (
            "no positive equality",
            TranslationOptions::default().without_positive_equality(),
            Golden {
                cnf_vars: 5337,
                cnf_clauses: 19_782,
                eij_vars: 294,
                transitivity_triangles: 376,
                primary_bool_vars: 322,
                cnf_digest: 0xe56f376b06f3d40d,
                primary_digest: 0x3347785bb0df5cec,
            },
        ),
        (
            "AC",
            TranslationOptions::base().with_ackermann_ups(),
            Golden {
                cnf_vars: 1702,
                cnf_clauses: 6940,
                eij_vars: 56,
                transitivity_triangles: 94,
                primary_bool_vars: 83,
                cnf_digest: 0xe2c211209c34ed0d,
                primary_digest: 0x3a2efc37fdf3536b,
            },
        ),
        (
            "ER+AC",
            TranslationOptions::base()
                .with_early_reduction()
                .with_ackermann_ups(),
            Golden {
                cnf_vars: 1691,
                cnf_clauses: 6913,
                eij_vars: 54,
                transitivity_triangles: 93,
                primary_bool_vars: 81,
                cnf_digest: 0x6e79b4b97592ea38,
                primary_digest: 0x8b12af4227f3da26,
            },
        ),
    ];
    for (label, options, expected) in cases {
        check(
            &format!("1xDLX-C, {label}"),
            options,
            &implementation,
            &spec,
            expected,
        );
    }
}

/// The Ackermann constraints of the AC variation come out in the same order
/// on every translation, so one process translates the same CNF every time.
#[test]
fn ackermann_translations_are_reproducible() {
    let (implementation, spec) = dlx(DlxConfig::single_issue(), None);
    let verifier = Verifier::new(TranslationOptions::base().with_ackermann_ups());
    let digests: Vec<Golden> = (0..3)
        .map(|_| golden(&verifier.translate(&implementation, &spec)))
        .collect();
    assert_eq!(digests[0], digests[1], "1xDLX-C, AC: the translation moved");
    assert_eq!(digests[0], digests[2], "1xDLX-C, AC: the translation moved");
}

#[test]
fn correct_designs_under_default_options() {
    let (implementation, spec) = dlx(DlxConfig::dual_issue_full(), None);
    check(
        "2xDLX-CC-MC-EX-BP",
        TranslationOptions::default(),
        &implementation,
        &spec,
        Golden {
            cnf_vars: 8272,
            cnf_clauses: 37_119,
            eij_vars: 261,
            transitivity_triangles: 372,
            primary_bool_vars: 325,
            cnf_digest: 0xa3ac934d06e2c1ef,
            primary_digest: 0xd09a79d1d47e57e3,
        },
    );
    let (implementation, spec) = vliw(VliwConfig::with_exceptions(), None);
    check(
        "9VLIW-MC-BP-EX",
        TranslationOptions::default(),
        &implementation,
        &spec,
        Golden {
            cnf_vars: 32_634,
            cnf_clauses: 113_857,
            eij_vars: 2382,
            transitivity_triangles: 2476,
            primary_bool_vars: 2450,
            cnf_digest: 0x420877a79668b370,
            primary_digest: 0xc99d7ed248e13e41,
        },
    );
    check(
        "OOO-3",
        TranslationOptions::default(),
        &Ooo::new(3),
        &OooSpecification::new(),
        Golden {
            cnf_vars: 962,
            cnf_clauses: 2843,
            eij_vars: 42,
            transitivity_triangles: 99,
            primary_bool_vars: 42,
            cnf_digest: 0x0c2915e61e5788c5,
            primary_digest: 0xcd94345fd9b78dcd,
        },
    );
}

#[test]
fn first_catalog_bug_of_every_family() {
    let dlx_cases = [
        (
            DlxConfig::single_issue(),
            Golden {
                cnf_vars: 1674,
                cnf_clauses: 6877,
                eij_vars: 56,
                transitivity_triangles: 94,
                primary_bool_vars: 83,
                cnf_digest: 0xbe4fe492c01d1695,
                primary_digest: 0xbee1a5dcc7844b84,
            },
        ),
        (
            DlxConfig::dual_issue(),
            Golden {
                cnf_vars: 7388,
                cnf_clauses: 33_609,
                eij_vars: 231,
                transitivity_triangles: 321,
                primary_bool_vars: 285,
                cnf_digest: 0x9c176727cd0d0bee,
                primary_digest: 0x7e2c10b22c3dc8b3,
            },
        ),
        (
            DlxConfig::dual_issue_full(),
            Golden {
                cnf_vars: 8272,
                cnf_clauses: 37_119,
                eij_vars: 261,
                transitivity_triangles: 372,
                primary_bool_vars: 325,
                cnf_digest: 0x7b9a1472b69af1d1,
                primary_digest: 0xd09a79d1d47e57e3,
            },
        ),
    ];
    for (config, expected) in dlx_cases {
        let bug = dlx_bug_catalog(config)[0];
        let (implementation, spec) = dlx(config, Some(bug));
        check(
            &format!("{}-{bug:?}", config.name()),
            TranslationOptions::default(),
            &implementation,
            &spec,
            expected,
        );
    }
    let vliw_cases = [
        (
            VliwConfig::base(),
            Golden {
                cnf_vars: 32_101,
                cnf_clauses: 110_023,
                eij_vars: 2412,
                transitivity_triangles: 2507,
                primary_bool_vars: 2460,
                cnf_digest: 0x2f89f01960f88bdc,
                primary_digest: 0xe3d2f09f3d71d86a,
            },
        ),
        (
            VliwConfig::with_exceptions(),
            Golden {
                cnf_vars: 32_623,
                cnf_clauses: 113_827,
                eij_vars: 2382,
                transitivity_triangles: 2476,
                primary_bool_vars: 2448,
                cnf_digest: 0xaceb652ddeb64d1a,
                primary_digest: 0x4557ad12ace1a630,
            },
        ),
    ];
    for (config, expected) in vliw_cases {
        let bug = vliw_bug_catalog(config)[0];
        let (implementation, spec) = vliw(config, Some(bug));
        check(
            &format!("{}-{bug:?}", config.name()),
            TranslationOptions::default(),
            &implementation,
            &spec,
            expected,
        );
    }
}

/// satbench's 2×DLX-CC-MC-EX-BP suite — the correct design and the first two
/// catalog bugs — is three different CNFs of one size, so SATO's identical
/// search counters on the three are not explained by identical inputs.
#[test]
fn dual_issue_suite_instances_are_distinct() {
    let config = DlxConfig::dual_issue_full();
    let (implementation, spec) = dlx(config, None);
    let mut digests = vec![
        check(
            "2xDLX-CC-MC-EX-BP",
            TranslationOptions::default(),
            &implementation,
            &spec,
            Golden {
                cnf_vars: 8272,
                cnf_clauses: 37_119,
                eij_vars: 261,
                transitivity_triangles: 372,
                primary_bool_vars: 325,
                cnf_digest: 0xa3ac934d06e2c1ef,
                primary_digest: 0xd09a79d1d47e57e3,
            },
        )
        .cnf_digest,
    ];
    let pinned = [
        Golden {
            cnf_vars: 8272,
            cnf_clauses: 37_119,
            eij_vars: 261,
            transitivity_triangles: 372,
            primary_bool_vars: 325,
            cnf_digest: 0x7b9a1472b69af1d1,
            primary_digest: 0xd09a79d1d47e57e3,
        },
        Golden {
            cnf_vars: 8272,
            cnf_clauses: 37_119,
            eij_vars: 261,
            transitivity_triangles: 372,
            primary_bool_vars: 325,
            cnf_digest: 0x3dd095b1a1429445,
            primary_digest: 0xd09a79d1d47e57e3,
        },
    ];
    for (bug, expected) in dlx_bug_catalog(config).into_iter().take(2).zip(pinned) {
        let (implementation, spec) = dlx(config, Some(bug));
        let label = format!("{}-{bug:?}", config.name());
        let actual = check(
            &label,
            TranslationOptions::default(),
            &implementation,
            &spec,
            expected,
        );
        digests.push(actual.cnf_digest);
    }
    for (i, a) in digests.iter().enumerate() {
        for b in &digests[i + 1..] {
            assert_ne!(a, b, "two suite instances have the same CNF");
        }
    }
}
