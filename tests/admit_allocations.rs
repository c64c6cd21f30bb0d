//! Allocation counts of the admission layer: building a verification problem
//! and fingerprinting it, which is all a verdict-cache hit costs the service.
//!
//! This binary installs [`velv_obs::CountingAlloc`], so every allocation of
//! the process is counted; it holds a single test so that no other test
//! thread allocates while a region is measured.  The ceilings are the counts
//! measured on 2×DLX-CC plus headroom: a change that brings back per-access
//! string building or per-node hashing containers fails here long before it
//! shows in serving latency.
//!
//! Measured on 2×DLX-CC (765 nodes): the build made 5,439 allocations and
//! the fingerprint 676 while states were keyed by element name and the
//! fingerprint memoized in hash maps; with index-addressed states and dense
//! memo tables they make 907 and 8.  Borrowed-argument applications (an
//! argument list is copied only for a new node) and a symbol table that
//! stores each name once in one buffer bring the build to 484.

use velv::prelude::*;
use velv_core::{problem_fingerprint, VerificationProblem};

#[global_allocator]
static ALLOC: velv_obs::CountingAlloc = velv_obs::CountingAlloc;

/// Ceiling on the allocations of building 2×DLX-CC (measured: 484; the
/// headroom ratio is 1,100 / 907, that of the ceiling before).
const BUILD_CEILING: u64 = 587;

/// Ceiling on the allocations of fingerprinting it (measured: 8).
const FINGERPRINT_CEILING: u64 = 16;

/// Runs `f` and returns its value with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = velv_obs::mem::allocations();
    let value = f();
    (value, velv_obs::mem::allocations() - before)
}

/// The problem of `implementation` against `specification` and the
/// allocations its build (design constructors included) and fingerprint
/// made.
fn admit<I: Processor, S: Processor>(
    implementation: impl FnOnce() -> I,
    specification: impl FnOnce() -> S,
) -> (VerificationProblem, u64, u64) {
    let options = TranslationOptions::default();
    let verifier = Verifier::new(options.clone());
    let (problem, build) = counted(|| {
        let implementation = implementation();
        let specification = specification();
        verifier.build_problem(&implementation, &specification)
    });
    let (_, fingerprint) = counted(|| problem_fingerprint(&problem, &options));
    (problem, build, fingerprint)
}

#[test]
fn admission_allocations_stay_within_their_ceilings() {
    let dual = DlxConfig::dual_issue();
    let (problem, build, fingerprint) =
        admit(|| Dlx::correct(dual), || DlxSpecification::new(dual));
    let nodes = problem.ctx.num_terms() + problem.ctx.num_formulas();
    println!("2xDLX-CC: {nodes} nodes, build {build} allocations, fingerprint {fingerprint}");
    assert!(
        velv_obs::mem::allocations() > 0,
        "the counting allocator is installed"
    );
    assert!(
        build <= BUILD_CEILING,
        "2xDLX-CC build made {build} allocations, ceiling {BUILD_CEILING}"
    );
    assert!(
        fingerprint <= FINGERPRINT_CEILING,
        "2xDLX-CC fingerprint made {fingerprint} allocations, ceiling {FINGERPRINT_CEILING}"
    );

    // The fingerprint allocates per run, not per node: the single-issue DLX
    // has the same memories and options (so the same salt text) and under
    // half the nodes.
    let single = DlxConfig::single_issue();
    let (small, _, small_fingerprint) =
        admit(|| Dlx::correct(single), || DlxSpecification::new(single));
    let small_nodes = small.ctx.num_terms() + small.ctx.num_formulas();
    println!("1xDLX-C: {small_nodes} nodes, fingerprint {small_fingerprint} allocations");
    assert!(small_nodes * 2 < nodes);
    assert_eq!(
        fingerprint, small_fingerprint,
        "fingerprint allocations grew with the DAG ({small_nodes} -> {nodes} nodes)"
    );
}
