//! Serving verdicts in-process: start a verification service, sweep a batch
//! of buggy DLX variants (each entry runs as its own job on the worker pool),
//! then sweep it again to show the fingerprint-keyed verdict cache at work.
//! Exits with a panic when a warm-sweep ticket misses the cache or the
//! service's submission accounting does not add up, so CI can run it.
//!
//! Run with `cargo run --release --example serve`.

use std::time::Instant;
use velv::prelude::*;
use velv::velv_serve::{ServiceConfig, SolveMode};

/// Runs one batch and prints a row per ticket; returns the results.
fn sweep(service: &ServeHandle, specs: Vec<JobSpec>, label: &str) -> Vec<JobResult> {
    let start = Instant::now();
    let tickets = service.submit_batch(specs).expect("batch accepted");
    println!("\n== {label} ==");
    println!(
        "{:<14} {:<8} {:>7} {:>12} {:>12}",
        "job", "verdict", "served", "wall", "solve"
    );
    let mut results = Vec::with_capacity(tickets.len());
    for ticket in &tickets {
        let result = ticket.wait();
        let verdict = match &result.verdict {
            Verdict::Correct => "correct".to_owned(),
            Verdict::Buggy(cex) => format!("buggy/{}", cex.true_assignments().len()),
            Verdict::Unknown(reason) => format!("unknown[{reason}]"),
        };
        println!(
            "{:<14} {:<8} {:>7} {:>12?} {:>12?}",
            format!("{:.12}", ticket.fingerprint().to_hex()),
            verdict,
            if result.from_cache {
                "cache"
            } else if result.deduplicated {
                "dedup"
            } else {
                "solve"
            },
            result.wall,
            result.solve_time,
        );
        results.push(result);
    }
    println!(
        "{label}: {:?} wall for {} jobs",
        start.elapsed(),
        tickets.len()
    );
    results
}

fn main() {
    let service = ServeHandle::start(ServiceConfig::default().with_workers(4));

    // A catalog slice: the correct single-issue DLX plus its first few buggy
    // variants, monolithic chaff jobs, plus one decomposed job.
    let catalog = || -> Vec<JobSpec> {
        let mut specs = vec![JobSpec::new(ModelRef::dlx1_correct())];
        for bug in 0..5 {
            specs.push(JobSpec::new(ModelRef::dlx1_bug(bug)));
        }
        let mut decomposed = JobSpec::new(ModelRef::dlx1_correct());
        decomposed.mode = SolveMode::Decomposed { max_obligations: 8 };
        specs.push(decomposed);
        specs
    };

    // Cold sweep: every fingerprint is new; each entry is translated and
    // solved as its own job, spread across the workers.
    sweep(&service, catalog(), "cold sweep (fresh solves)");

    // Warm sweep: identical fingerprints — every verdict comes from the
    // cache without touching a translator or solver.
    let warm = sweep(&service, catalog(), "warm sweep (cache hits)");
    for result in &warm {
        assert!(result.from_cache, "warm-sweep miss: {}", result.name);
    }

    let stats = service.stats();
    // Every submission ended as exactly one of a cache hit, a join of an
    // identical in-flight job, a completed job or a refusal for memory.
    assert_eq!(
        stats.submitted,
        stats.cache_hits + stats.dedup_joins + stats.completed + stats.mem_pressure_rejections,
        "submission accounting: {stats:?}"
    );
    let snapshot = service.registry_snapshot();
    println!("\n== service registry ==");
    for (key, value) in snapshot.flat_fields() {
        println!("{key:<52} {value}");
    }
    let lookups = |name| snapshot.counter(name).unwrap_or(0) as f64;
    let hits = lookups("velv_serve_cache_lookup_hits_total");
    let misses = lookups("velv_serve_cache_lookup_misses_total");
    println!(
        "cache hit ratio: {:.1}%",
        100.0 * hits / (hits + misses).max(1.0)
    );
    service.shutdown();
}
