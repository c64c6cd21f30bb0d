//! The flight recorder: a fixed-size, lock-light ring of the most recent
//! trace records, kept in memory even when no sink is installed, and dumped
//! to a `FLIGHT-<ts>.jsonl` file when something goes wrong.
//!
//! The ring is fed by the same per-thread span/event probes that feed the
//! sink (see [`crate::span`], [`crate::event`]): once [`arm`] is called,
//! every record is also copied into the ring, so the last
//! [`FLIGHT_CAPACITY`] records of the process are always available for a
//! post-mortem — a worker panic, a graceful shutdown — without
//! paying for a sink on the happy path.
//!
//! Writers claim a slot with one atomic `fetch_add` and take only that
//! slot's mutex, so concurrent recording threads contend per-slot, never on
//! a global lock.  [`snapshot`] reads the slots oldest-first; [`dump`]
//! writes a snapshot (prefixed with a `flight.dump` event naming the
//! trigger) into the configured dump directory.
//!
//! The recorder starts *disarmed* — process start-up pays nothing, and the
//! disabled-tracing fast path stays one relaxed load.  The one reader of the
//! ring in the workspace, the `velv_serve` wire front end (`serve`, which
//! answers the `flight` verb and which `velvd` runs), arms it on start.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// How many trace records the ring retains (oldest overwritten first).
pub const FLIGHT_CAPACITY: usize = 8192;

static ARMED: AtomicBool = AtomicBool::new(false);
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

struct Ring {
    slots: Vec<Mutex<Option<String>>>,
    /// Total records ever written; `cursor % capacity` is the next slot.
    cursor: AtomicU64,
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring {
        slots: (0..FLIGHT_CAPACITY).map(|_| Mutex::new(None)).collect(),
        cursor: AtomicU64::new(0),
    })
}

fn dump_dir_slot() -> &'static Mutex<Option<PathBuf>> {
    static SLOT: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Arms the flight recorder: from here on every span/event record is copied
/// into the ring, whether or not a sink is installed.  Idempotent.
pub fn arm() {
    ring();
    ARMED.store(true, Ordering::SeqCst);
    crate::trace::refresh_enabled();
}

/// Disarms the recorder (the ring contents stay readable).  Used by tests;
/// services leave the recorder armed for their lifetime.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    crate::trace::refresh_enabled();
}

/// Whether the recorder is armed.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Sets the directory [`dump`] writes `FLIGHT-<ts>.jsonl` files into
/// (created if missing); `None` disables dumping (snapshots still work).
pub fn set_dump_dir(dir: Option<&Path>) {
    *dump_dir_slot().lock().expect("flight dump dir lock") = dir.map(Path::to_path_buf);
}

/// Copies one record into the ring.  No-op while disarmed.
pub(crate) fn record(line: &str) {
    if !armed() {
        return;
    }
    let ring = ring();
    let slot = ring.cursor.fetch_add(1, Ordering::Relaxed) as usize % FLIGHT_CAPACITY;
    *ring.slots[slot].lock().expect("flight slot lock") = Some(line.to_owned());
}

/// The ring contents, oldest record first.  Empty while nothing has been
/// recorded (e.g. the recorder was never armed).
pub fn snapshot() -> Vec<String> {
    let ring = ring();
    let cursor = ring.cursor.load(Ordering::Acquire) as usize;
    let mut lines = Vec::with_capacity(cursor.min(FLIGHT_CAPACITY));
    let (start, len) = if cursor > FLIGHT_CAPACITY {
        (cursor % FLIGHT_CAPACITY, FLIGHT_CAPACITY)
    } else {
        (0, cursor)
    };
    for offset in 0..len {
        let slot = (start + offset) % FLIGHT_CAPACITY;
        if let Some(line) = ring.slots[slot].lock().expect("flight slot lock").clone() {
            lines.push(line);
        }
    }
    lines
}

/// Dumps the ring to `FLIGHT-<unix_micros>.jsonl` in the configured dump
/// directory, prefixed with a `flight.dump` event carrying the trigger
/// `reason`.  Returns the written path, or `None` when no dump directory is
/// configured (the snapshot is still available via [`snapshot`]).
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub fn dump(reason: &str) -> std::io::Result<Option<PathBuf>> {
    let dir = dump_dir_slot()
        .lock()
        .expect("flight dump dir lock")
        .clone();
    let Some(dir) = dir else {
        return Ok(None);
    };
    std::fs::create_dir_all(&dir)?;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("FLIGHT-{ts}-{seq}.jsonl"));
    let mut body = String::from("{\"type\":\"event\",\"name\":\"flight.dump\",\"reason\":\"");
    crate::json::escape_into(&mut body, reason);
    body.push_str("\"}\n");
    for line in snapshot() {
        body.push_str(&line);
        body.push('\n');
    }
    std::fs::write(&path, body)?;
    Ok(Some(path))
}
