//! Criterion benchmark: the EUFM → CNF translation pipeline per design and
//! encoding (the front-end cost of every experiment table), and the
//! admission layer in front of it.
//!
//! The `admit` group times what the service does for every submitted job
//! before its cache lookup, which is all a verdict-cache hit costs: construct
//! the designs, build the Burch–Dill problem and fingerprint it.  This
//! binary runs on the system allocator (no `CountingAlloc`), so set against
//! a counted run of the same path it shows what allocator instrumentation
//! costs on an allocation-heavy path.

use velv_bench::microbench::Criterion;
use velv_bench::{criterion_group, criterion_main};
use velv_core::{problem_fingerprint, TranslationOptions, Verifier};
use velv_hdl::Processor;
use velv_models::dlx::{Dlx, DlxConfig, DlxSpecification};
use velv_models::vliw::{Vliw, VliwConfig, VliwSpecification};

fn bench_translate(c: &mut Criterion) {
    let mut group = c.benchmark_group("translate");
    group.sample_size(10);

    group.bench_function("dlx1_eij", |b| {
        let config = DlxConfig::single_issue();
        let implementation = Dlx::correct(config);
        let spec = DlxSpecification::new(config);
        let verifier = Verifier::new(TranslationOptions::base());
        b.iter(|| verifier.translate(&implementation, &spec));
    });
    group.bench_function("dlx2_full_eij", |b| {
        let config = DlxConfig::dual_issue_full();
        let implementation = Dlx::correct(config);
        let spec = DlxSpecification::new(config);
        let verifier = Verifier::new(TranslationOptions::base());
        b.iter(|| verifier.translate(&implementation, &spec));
    });
    group.bench_function("dlx1_small_domain", |b| {
        let config = DlxConfig::single_issue();
        let implementation = Dlx::correct(config);
        let spec = DlxSpecification::new(config);
        let verifier = Verifier::new(TranslationOptions::base().with_small_domain());
        b.iter(|| verifier.translate(&implementation, &spec));
    });
    group.bench_function("vliw_reduced_eij", |b| {
        let config = VliwConfig::with_slots(3);
        let implementation = Vliw::correct(config);
        let spec = VliwSpecification::new(config);
        let verifier = Verifier::new(TranslationOptions::base());
        b.iter(|| verifier.translate(&implementation, &spec));
    });
    group.finish();
}

/// Constructs both designs, builds the problem and fingerprints it.
fn admit<I: Processor, S: Processor>(
    verifier: &Verifier,
    options: &TranslationOptions,
    implementation: impl Fn() -> I,
    specification: impl Fn() -> S,
) -> velv_eufm::Fingerprint {
    let problem = verifier.build_problem(&implementation(), &specification());
    problem_fingerprint(&problem, options)
}

fn bench_admit(c: &mut Criterion) {
    let mut group = c.benchmark_group("admit");
    group.sample_size(200);
    let options = TranslationOptions::default();
    let verifier = Verifier::new(options.clone());

    group.bench_function("dlx2_build_fingerprint", |b| {
        let config = DlxConfig::dual_issue();
        b.iter(|| {
            admit(
                &verifier,
                &options,
                || Dlx::correct(config),
                || DlxSpecification::new(config),
            )
        });
    });
    group.bench_function("vliw9_build_fingerprint", |b| {
        let config = VliwConfig::base();
        b.iter(|| {
            admit(
                &verifier,
                &options,
                || Vliw::correct(config),
                || VliwSpecification::new(config),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_translate, bench_admit);
criterion_main!(benches);
