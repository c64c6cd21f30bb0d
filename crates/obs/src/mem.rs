//! Memory observability: a counting global allocator, per-subsystem scope
//! attribution, and heap watermarks.
//!
//! Three zero-dependency pieces:
//!
//! * **[`CountingAlloc`]** — a `#[global_allocator]` wrapper over
//!   [`std::alloc::System`] maintaining live/peak/total-allocated bytes and
//!   allocation counts with relaxed atomics.  Binaries opt in:
//!
//!   ```ignore
//!   #[global_allocator]
//!   static ALLOC: velv_obs::CountingAlloc = velv_obs::CountingAlloc;
//!   ```
//!
//!   With no installation the counters simply stay zero; every reader treats
//!   an all-zero snapshot as "not instrumented".
//!
//! * **[`MemScope`]** — a thread-local RAII scope tag attributing allocation
//!   deltas to a small fixed registry of subsystems ([`scope_names`]):
//!   `sat.arena`, `sat.learnts`, `serve.cache`, `store.log`, `proof`,
//!   `eufm`, and the catch-all `other`.  Scopes nest; an allocation is
//!   charged to the *innermost* scope active on the allocating thread, and a
//!   free is charged to the scope active at free time — so per-scope live
//!   bytes can transiently go negative for individual scopes while their sum
//!   always equals the global live count exactly.
//!
//! * **[`MemFootprint`]** — a trait for *measured* deep byte counts of hot
//!   structures (clause arenas, cache shards, store indexes), published as
//!   gauges and cross-checked against the allocator's scope attribution.
//!
//! The allocator hot path is two or three relaxed atomic RMWs plus one
//! thread-local read; the thread-local is a const-initialised `Cell` (no
//! destructor, no lazy allocation), so the allocator never recurses into
//! itself and stays safe during TLS teardown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// The fixed scope registry.  `other` is the catch-all for unattributed
/// allocations and must stay last.
pub const SCOPE_NAMES: [&str; 7] = [
    "sat.arena",
    "sat.learnts",
    "serve.cache",
    "store.log",
    "proof",
    "eufm",
    "other",
];

/// Index of the catch-all scope.
const OTHER: usize = SCOPE_NAMES.len() - 1;

/// The registered scope names, in index order.
pub fn scope_names() -> &'static [&'static str] {
    &SCOPE_NAMES
}

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

static SCOPE_LIVE: [AtomicI64; SCOPE_NAMES.len()] =
    [const { AtomicI64::new(0) }; SCOPE_NAMES.len()];
static SCOPE_PEAK: [AtomicI64; SCOPE_NAMES.len()] =
    [const { AtomicI64::new(0) }; SCOPE_NAMES.len()];
static SCOPE_TOTAL: [AtomicU64; SCOPE_NAMES.len()] =
    [const { AtomicU64::new(0) }; SCOPE_NAMES.len()];

thread_local! {
    /// The innermost scope index active on this thread.  Const-initialised
    /// `Cell<usize>` — not `Drop`, so no TLS destructor and no allocation on
    /// first touch, which keeps the allocator re-entrancy-free.
    static CURRENT_SCOPE: Cell<usize> = const { Cell::new(OTHER) };
}

#[inline]
fn current_scope() -> usize {
    // `try_with` (not `with`): during thread teardown the slot may already
    // be destroyed; fall back to the catch-all instead of aborting.
    CURRENT_SCOPE.try_with(Cell::get).unwrap_or(OTHER)
}

#[inline]
fn record_alloc(size: usize) {
    let delta = size as i64;
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(live, Ordering::Relaxed);
    TOTAL.fetch_add(size as u64, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let scope = current_scope();
    let scope_live = SCOPE_LIVE[scope].fetch_add(delta, Ordering::Relaxed) + delta;
    SCOPE_PEAK[scope].fetch_max(scope_live, Ordering::Relaxed);
    SCOPE_TOTAL[scope].fetch_add(size as u64, Ordering::Relaxed);
}

#[inline]
fn record_dealloc(size: usize) {
    let delta = size as i64;
    LIVE.fetch_sub(delta, Ordering::Relaxed);
    FREES.fetch_add(1, Ordering::Relaxed);
    SCOPE_LIVE[current_scope()].fetch_sub(delta, Ordering::Relaxed);
}

/// A counting allocator: forwards to [`System`] and maintains the
/// module-level byte/count statics.  Install per binary with
/// `#[global_allocator]`; see the [module docs](self).
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the bookkeeping only touches lock-free statics and a
// const-initialised thread-local, so it never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        record_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        new_ptr
    }
}

/// An RAII scope tag: allocations on this thread are attributed to `name`
/// until the guard drops (drop restores the previous scope, so scopes nest
/// and child allocations land in the innermost scope).
///
/// Unknown names fall back to the `other` catch-all rather than failing —
/// the scope registry is fixed (see [`scope_names`]).
#[must_use = "attribution lasts only while the scope guard is alive"]
pub struct MemScope {
    previous: usize,
    /// Pins the guard to its thread: restoring another thread's scope slot
    /// would mis-attribute both threads.
    _not_send: PhantomData<*const ()>,
}

impl MemScope {
    /// Enters scope `name` on the current thread.
    pub fn enter(name: &str) -> MemScope {
        let index = SCOPE_NAMES.iter().position(|&s| s == name).unwrap_or(OTHER);
        let previous = CURRENT_SCOPE
            .try_with(|slot| slot.replace(index))
            .unwrap_or(OTHER);
        MemScope {
            previous,
            _not_send: PhantomData,
        }
    }
}

impl Drop for MemScope {
    fn drop(&mut self) {
        let _ = CURRENT_SCOPE.try_with(|slot| slot.set(self.previous));
    }
}

/// Deep measured byte count of a structure: the bytes it owns on the heap
/// (capacities, not lengths) plus its own inline size where that is useful
/// to the caller.  Implementations are *estimates from the structure's own
/// bookkeeping* — cheap enough for heartbeats, cross-checked against the
/// allocator's scope attribution rather than replacing it.
pub trait MemFootprint {
    /// Bytes attributable to this value, deeply.
    fn measured_bytes(&self) -> usize;
}

/// One scope's readings in a [`MemSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemScopeSnapshot {
    /// The scope name (one of [`scope_names`]).
    pub name: &'static str,
    /// Live bytes attributed to the scope.  May be negative when frees were
    /// attributed here for allocations made under another scope; the sum
    /// across scopes always equals the global live count.
    pub live_bytes: i64,
    /// High-water mark of the scope's live bytes (since process start or the
    /// last [`reset_peaks`]).
    pub peak_bytes: i64,
    /// Total bytes ever allocated under the scope.
    pub total_bytes: u64,
}

/// A point-in-time copy of the allocator statics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Live heap bytes (allocated minus freed).
    pub live_bytes: i64,
    /// High-water mark of live bytes (clamped to at least the current live
    /// count, so `peak >= live` holds even against racing updates).
    pub peak_bytes: i64,
    /// Total bytes ever allocated.
    pub total_bytes: u64,
    /// Allocation calls.
    pub allocations: u64,
    /// Deallocation calls.
    pub frees: u64,
    /// Peak resident set size of the process in bytes (`VmHWM`), 0 where
    /// unavailable.
    pub peak_rss_bytes: u64,
    /// Per-scope readings, in [`scope_names`] order.
    pub scopes: Vec<MemScopeSnapshot>,
}

/// Live heap bytes right now (0 when the counting allocator is not
/// installed).
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes, clamped to at least the current live
/// count.
pub fn peak_bytes() -> i64 {
    PEAK.load(Ordering::Relaxed).max(live_bytes())
}

/// Total bytes ever allocated.
pub fn total_bytes() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocation calls so far (0 when the counting allocator is not
/// installed).  Unlike [`snapshot`] it allocates nothing itself, so the
/// difference of two readings counts exactly the allocations in between.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Live bytes attributed to scope `name` (0 for unknown names).
pub fn scope_live_bytes(name: &str) -> i64 {
    match SCOPE_NAMES.iter().position(|&s| s == name) {
        Some(index) => SCOPE_LIVE[index].load(Ordering::Relaxed),
        None => 0,
    }
}

/// Total bytes ever allocated under scope `name` (0 for unknown names).
pub fn scope_total_bytes(name: &str) -> u64 {
    match SCOPE_NAMES.iter().position(|&s| s == name) {
        Some(index) => SCOPE_TOTAL[index].load(Ordering::Relaxed),
        None => 0,
    }
}

/// Resets the global and per-scope high-water marks to the current live
/// counts, so a caller can measure the peak of one region of interest (the
/// bench harness resets before every measured solve).  Racing allocations
/// may re-raise a peak immediately; that is the desired semantics.
pub fn reset_peaks() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    for (peak, live) in SCOPE_PEAK.iter().zip(SCOPE_LIVE.iter()) {
        peak.store(live.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Peak resident set size of the process in bytes, read from
/// `/proc/self/status` (`VmHWM`); 0 on platforms without procfs or when the
/// read fails.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// A point-in-time copy of every allocator statistic, including the
/// per-scope attribution and the process peak RSS.
pub fn snapshot() -> MemSnapshot {
    let live = LIVE.load(Ordering::Relaxed);
    let scopes = SCOPE_NAMES
        .iter()
        .enumerate()
        .map(|(index, &name)| {
            let scope_live = SCOPE_LIVE[index].load(Ordering::Relaxed);
            MemScopeSnapshot {
                name,
                live_bytes: scope_live,
                peak_bytes: SCOPE_PEAK[index].load(Ordering::Relaxed).max(scope_live),
                total_bytes: SCOPE_TOTAL[index].load(Ordering::Relaxed),
            }
        })
        .collect();
    MemSnapshot {
        live_bytes: live,
        peak_bytes: PEAK.load(Ordering::Relaxed).max(live),
        total_bytes: TOTAL.load(Ordering::Relaxed),
        allocations: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        peak_rss_bytes: peak_rss_bytes(),
        scopes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator itself is exercised end to end in `tests/mem.rs`, which
    // installs `CountingAlloc` as its binary's global allocator.  Here only
    // the allocator-independent pieces are covered.

    #[test]
    fn unknown_scopes_fall_back_to_other() {
        let scope = MemScope::enter("no.such.scope");
        assert_eq!(current_scope(), OTHER);
        drop(scope);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = MemScope::enter("sat.arena");
        assert_eq!(current_scope(), 0);
        {
            let _inner = MemScope::enter("serve.cache");
            assert_eq!(current_scope(), 2);
        }
        assert_eq!(current_scope(), 0);
        drop(outer);
        assert_eq!(current_scope(), OTHER);
    }

    #[test]
    fn snapshot_keeps_peak_at_least_live() {
        let snap = snapshot();
        assert!(snap.peak_bytes >= snap.live_bytes);
        for scope in &snap.scopes {
            assert!(scope.peak_bytes >= scope.live_bytes, "{}", scope.name);
        }
        assert_eq!(snap.scopes.len(), SCOPE_NAMES.len());
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        // On Linux procfs is always there; elsewhere the call returns 0.
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes() > 0);
        }
    }
}
