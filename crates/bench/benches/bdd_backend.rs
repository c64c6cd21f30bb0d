//! Criterion benchmark: BDD construction for the encoded correctness formula
//! (the decision-diagram back end of Table 1 / Fig. 7).

use velv_bench::microbench::Criterion;
use velv_bench::{criterion_group, criterion_main};
use velv_core::{Backend, TranslationOptions, Verifier};
use velv_models::dlx::{bug_catalog, Dlx, DlxConfig, DlxSpecification};
use velv_sat::Budget;

fn bench_bdd(c: &mut Criterion) {
    let mut group = c.benchmark_group("bdd_backend");
    group.sample_size(10);

    let config = DlxConfig::single_issue();
    let verifier = Verifier::new(TranslationOptions::base());
    let spec = DlxSpecification::new(config);
    let correct = verifier.translate(&Dlx::correct(config), &spec);
    let bug = bug_catalog(config)[0];
    let buggy = verifier.translate(&Dlx::buggy(config, bug), &spec);

    let bdd = Backend::Bdd {
        node_limit: 2_000_000,
    };
    group.bench_function("bdd_correct_dlx1", |b| {
        b.iter(|| verifier.check_with_backend(&correct, &bdd, Budget::unlimited()))
    });
    group.bench_function("bdd_buggy_dlx1", |b| {
        b.iter(|| verifier.check_with_backend(&buggy, &bdd, Budget::unlimited()))
    });
    group.finish();
}

criterion_group!(benches, bench_bdd);
criterion_main!(benches);
