//! `velvd` — the verification service daemon.
//!
//! Serves the `velv_serve` wire protocol over TCP and prints a final metric
//! registry snapshot when a client asks it to shut down.  With `--trace` the
//! daemon records spans and events to a JSONL file; the graceful shutdown
//! path flushes every per-thread trace buffer before exit, so the capture
//! never loses its tail.
//!
//! With `--store DIR` the daemon appends every decided verdict to a
//! crash-safe log before answering, and replays the log into the cache on
//! boot — a `kill -9` mid-burst loses no answered verdict, and the restarted
//! daemon serves repeats from cache without re-solving.
//!
//! The wire front end arms the flight recorder when it starts serving, so
//! `velvc flight` can read the ring; with `--flight-record DIR` its
//! post-mortem dumps (worker panic, graceful shutdown) land in `DIR` as
//! `FLIGHT-<ts>.jsonl` files (without it no dump is written).
//!
//! With `--mem-limit BYTES` the daemon watches its own heap (the counting
//! allocator is installed as the global allocator) and degrades in stages as
//! live bytes approach the limit: at 60% it shrinks the verdict cache, at 80%
//! it sheds the lower-priority half of the queue, at 95% it refuses fresh
//! submissions with `busy`.  Cache hits and dedup joins keep being served at
//! every stage.
//!
//! ```text
//! velvd [--addr HOST:PORT] [--workers N] [--cache-mb M] [--default-timeout-ms T]
//!       [--store DIR] [--fsync always|os|every-N] [--max-queue N] [--client-quota N]
//!       [--trace FILE.jsonl] [--flight-record DIR] [--mem-limit BYTES]
//! ```

use std::sync::Arc;
use std::time::Duration;
use velv_serve::{serve, ServeHandle, ServiceConfig};

/// Every allocation the daemon makes is counted: this is what `velvc mem`
/// reports and what `--mem-limit` compares live bytes against.
#[global_allocator]
static ALLOC: velv_obs::CountingAlloc = velv_obs::CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage: velvd [--addr HOST:PORT] [--workers N] [--cache-mb M] [--default-timeout-ms T] \
         [--store DIR] [--fsync always|os|every-N] [--max-queue N] [--client-quota N] \
         [--trace FILE.jsonl] [--flight-record DIR] [--mem-limit BYTES]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7911".to_owned();
    let mut config = ServiceConfig::default();
    let mut trace_path: Option<String> = None;
    let mut flight_dir: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => addr = value(),
            "--trace" => trace_path = Some(value()),
            "--flight-record" => flight_dir = Some(value()),
            "--workers" => match value().parse() {
                Ok(n) => config.workers = n,
                Err(_) => usage(),
            },
            "--cache-mb" => match value().parse::<usize>() {
                Ok(mb) => config.cache_bytes = mb << 20,
                Err(_) => usage(),
            },
            "--default-timeout-ms" => match value().parse::<u64>() {
                Ok(ms) => config.default_timeout = Some(Duration::from_millis(ms)),
                Err(_) => usage(),
            },
            "--store" => config.store_dir = Some(value().into()),
            "--fsync" => match velv_store::FsyncPolicy::parse(&value()) {
                Ok(policy) => config.store_fsync = policy,
                Err(e) => {
                    eprintln!("velvd: {e}");
                    usage()
                }
            },
            "--max-queue" => match value().parse::<usize>() {
                Ok(n) => config.max_queue_depth = Some(n),
                Err(_) => usage(),
            },
            "--client-quota" => match value().parse::<usize>() {
                Ok(n) => config.per_client_quota = n,
                Err(_) => usage(),
            },
            "--mem-limit" => match value().parse::<u64>() {
                Ok(bytes) if bytes > 0 => config.mem_limit = Some(bytes),
                _ => usage(),
            },
            _ => usage(),
        }
    }

    // The profile sink is always armed: it folds each job's spans into the
    // phase tree served by `velvc profile`.  With `--trace` it tees every
    // line on to the JSONL file sink.
    let profile_sink = if let Some(path) = &trace_path {
        let file_sink = match velv_obs::JsonlFileSink::create(path) {
            Ok(sink) => sink,
            Err(e) => {
                eprintln!("velvd: cannot create trace file {path}: {e}");
                std::process::exit(1);
            }
        };
        println!("velvd: tracing to {path}");
        Arc::new(velv_obs::ProfileSink::with_inner(Arc::new(file_sink)))
    } else {
        Arc::new(velv_obs::ProfileSink::new())
    };
    velv_obs::install_sink(profile_sink.clone());
    config.profile_sink = Some(profile_sink);

    if let Some(dir) = &flight_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("velvd: cannot create flight-record dir {dir}: {e}");
            std::process::exit(1);
        }
        velv_obs::flight::set_dump_dir(Some(std::path::Path::new(dir)));
        println!("velvd: flight dumps land in {dir}");
    }

    let workers = config.workers;
    let handle = match ServeHandle::try_start(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("velvd: cannot start the service: {e}");
            std::process::exit(1);
        }
    };
    if let Some(report) = handle.store_recovery() {
        println!(
            "velvd: verdict store recovered {} live of {} records ({} bytes truncated) in {:?}",
            report.live, report.records, report.truncated_bytes, report.scan_time
        );
    }
    let control = match serve(handle.clone(), addr.as_str()) {
        Ok(control) => control,
        Err(e) => {
            eprintln!("velvd: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "velvd: serving on {} with {} workers (shut down with `velvc shutdown`)",
        control.addr(),
        workers
    );
    control.wait();

    // Graceful shutdown: drain every per-thread trace buffer into the sink
    // before logging the final snapshot, so the capture keeps its tail.
    velv_obs::uninstall_sink();
    let snapshot = handle.registry_snapshot();
    println!("velvd: shut down; final registry snapshot:");
    for (key, value) in snapshot.flat_fields() {
        println!("  {key:<44} {value}");
    }
}
