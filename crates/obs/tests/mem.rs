//! Allocator accounting under the real global allocator: this test binary
//! installs [`velv_obs::CountingAlloc`], so every allocation in the process
//! (including the test harness's own) flows through the counters.  The
//! assertions therefore lean on *scope-local* figures for exactness — other
//! test threads never enter these scopes — and on invariants (`peak >=
//! live`) for the global figures.

use std::sync::{Mutex, MutexGuard};
use velv_obs::mem;

#[global_allocator]
static ALLOC: velv_obs::CountingAlloc = velv_obs::CountingAlloc;

/// Serializes the hammer with the global-live sum check: the hammer's eight
/// threads allocate up to 16 KiB + `round` bytes each between a snapshot's
/// global load and its per-scope loads, which is more skew than the sum
/// check tolerates.
static HAMMER: Mutex<()> = Mutex::new(());

fn hammer_lock() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the other test still runs.
    HAMMER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Multi-thread hammer: live bytes attributed to a scope return exactly to
/// baseline once every allocation made under it is freed (no leak ratchet),
/// and the global peak never drops below live.
#[test]
fn hammer_returns_to_baseline() {
    let _serial = hammer_lock();
    let baseline = mem::scope_live_bytes("proof");
    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let _scope = mem::MemScope::enter("proof");
                for round in 0..200 {
                    let mut held: Vec<Vec<u8>> = Vec::new();
                    for size in [64usize, 1024, 16 * 1024] {
                        held.push(vec![t; size + round]);
                    }
                    let snap = mem::snapshot();
                    assert!(
                        snap.peak_bytes >= snap.live_bytes,
                        "peak {} fell below live {}",
                        snap.peak_bytes,
                        snap.live_bytes
                    );
                    drop(held);
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }
    assert_eq!(
        mem::scope_live_bytes("proof"),
        baseline,
        "hammer leaked bytes into the proof scope"
    );
    assert!(mem::scope_total_bytes("proof") > 0);
    assert!(mem::total_bytes() > 0);
    assert!(
        mem::live_bytes() > 0,
        "the test harness itself holds memory"
    );
}

/// Scope nesting: a child allocation is attributed to the innermost scope,
/// not the outer one; after the child scope drops, attribution returns to
/// the outer scope.
#[test]
fn nesting_attributes_to_innermost_scope() {
    const OUTER: usize = 10_000;
    const INNER: usize = 70_000;

    let arena_before = mem::scope_total_bytes("sat.arena");
    let cache_before = mem::scope_total_bytes("serve.cache");

    let scope = mem::MemScope::enter("sat.arena");
    let outer_block = vec![1u8; OUTER];
    let inner_block = {
        let _inner = mem::MemScope::enter("serve.cache");
        vec![2u8; INNER]
    };
    let outer_block_2 = vec![3u8; OUTER];
    drop(scope);

    let arena_grew = mem::scope_total_bytes("sat.arena") - arena_before;
    let cache_grew = mem::scope_total_bytes("serve.cache") - cache_before;
    // The outer scope saw both outer blocks but not the inner one; the inner
    // scope saw exactly the inner block.  (`>=`: Vec may round capacities.)
    assert!(arena_grew >= 2 * OUTER as u64, "outer got {arena_grew}");
    assert!(
        arena_grew < INNER as u64,
        "inner bytes leaked into outer scope"
    );
    assert!(cache_grew >= INNER as u64, "inner got {cache_grew}");
    drop(outer_block);
    drop(inner_block);
    drop(outer_block_2);
}

/// Watermarks: after a reset, peak tracks the high-water mark of live bytes
/// and never reads below it; the snapshot clamps racing readings.
#[test]
fn peak_tracks_high_water() {
    mem::reset_peaks();
    let live_before = mem::live_bytes();
    let block = vec![7u8; 1 << 20];
    assert!(mem::peak_bytes() >= live_before + (1 << 20));
    assert!(mem::peak_bytes() >= mem::live_bytes());
    drop(block);
    // Freeing lowers live but not the recorded peak.
    assert!(mem::peak_bytes() >= live_before + (1 << 20));
    let snap = mem::snapshot();
    assert!(snap.peak_bytes >= snap.live_bytes);
    assert!(snap.allocations > snap.frees, "live allocations exist");
}

/// The per-scope live counts sum exactly to the global live count: every
/// allocation and free lands in exactly one scope bucket.
#[test]
fn scope_live_sums_to_global_live() {
    let _serial = hammer_lock();
    // Hold some scoped memory so the sum is exercised with non-trivial
    // scope buckets, then compare sums across a few snapshots.
    let _scope = mem::MemScope::enter("eufm");
    let _held = vec![5u8; 256 * 1024];
    for _ in 0..50 {
        let snap = mem::snapshot();
        let sum: i64 = snap.scopes.iter().map(|s| s.live_bytes).sum();
        // Racing threads may move the global count between the per-scope
        // loads and the global load; tolerate a small skew but require the
        // figures to agree to well under a percent of live.
        let skew = (sum - snap.live_bytes).abs();
        assert!(
            skew <= snap.live_bytes / 128 + 4096,
            "scope sum {sum} vs live {} (skew {skew})",
            snap.live_bytes
        );
    }
}
