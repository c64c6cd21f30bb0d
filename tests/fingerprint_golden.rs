//! Golden problem fingerprints: the 128-bit `problem_fingerprint` of a fixed
//! set of designs under the default translation options.
//!
//! The fingerprint keys the service's verdict cache, its in-flight
//! deduplication and every record of a persisted `velv_store` log, so a
//! changed value silently orphans every stored verdict.  How a problem is
//! built and hashed may change for speed; these values may not.

use velv::prelude::*;
use velv_core::problem_fingerprint;

/// The fingerprint of `implementation` against `specification` under the
/// default options, as 32 hex digits.
fn fingerprint(implementation: &dyn Processor, specification: &dyn Processor) -> String {
    let options = TranslationOptions::default();
    let problem = Verifier::new(options.clone()).build_problem(implementation, specification);
    problem_fingerprint(&problem, &options).to_hex()
}

fn check(name: &str, actual: String, expected: &str) {
    assert_eq!(
        actual, expected,
        "{name}: problem fingerprint changed; persisted store keys depend on it"
    );
}

#[test]
fn dlx_fingerprints_are_pinned() {
    let single = DlxConfig::single_issue();
    check(
        "1xDLX-C",
        fingerprint(&Dlx::correct(single), &DlxSpecification::new(single)),
        "bd76d12533cafa773017e6560b291efa",
    );
    let full = DlxConfig::dual_issue_full();
    check(
        "2xDLX-CC-MC-EX-BP",
        fingerprint(&Dlx::correct(full), &DlxSpecification::new(full)),
        "69187882fdde9cbdfad851ca745b3db0",
    );
    let dual = DlxConfig::dual_issue();
    let first_bug = dlx_bug_catalog(dual)[0];
    check(
        "2xDLX-CC first catalog bug",
        fingerprint(&Dlx::buggy(dual, first_bug), &DlxSpecification::new(dual)),
        "3aa674100ef1d18d3542c2479fda680b",
    );
}

#[test]
fn vliw_fingerprints_are_pinned() {
    let ex = VliwConfig::with_exceptions();
    check(
        "9VLIW-MC-BP-EX",
        fingerprint(&Vliw::correct(ex), &VliwSpecification::new(ex)),
        "1b0f0401eac72bee1109344df731a670",
    );
    let base = VliwConfig::base();
    let first_bug = vliw_bug_catalog(base)[0];
    check(
        "9VLIW-MC-BP first catalog bug",
        fingerprint(&Vliw::buggy(base, first_bug), &VliwSpecification::new(base)),
        "0a5300070606c5d8d645cd7a7f4b1b40",
    );
}

#[test]
fn ooo_fingerprint_is_pinned() {
    check(
        "OOO-3",
        fingerprint(&Ooo::new(3), &OooSpecification::new()),
        "e9fe086357c0f100d003c1be04b58721",
    );
}
