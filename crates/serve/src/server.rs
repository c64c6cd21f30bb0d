//! The TCP front end: accepts connections, speaks the frame protocol of
//! [`crate::proto`], and drives a [`ServeHandle`].
//!
//! One thread per connection; a connection may pipeline any number of
//! request frames and receives one response frame per request, in order.
//! `shutdown` stops the accept loop, shuts the service down (cancelling
//! whatever is in flight), ends the read half of every open connection (so
//! an idle client cannot hold a thread), and joins every connection thread.

use crate::proto::{
    batch_response, flight_response, mem_response, read_frame, stats_response, submit_response,
    write_frame, Request,
};
use crate::service::{JobTicket, ServeError, ServeHandle};
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the accept loop re-checks the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// A running TCP server; dropping it (or calling [`ServerControl::stop`])
/// stops accepting, shuts the service down and joins every thread.
pub struct ServerControl {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    handle: ServeHandle,
}

impl ServerControl {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a `shutdown` request (or [`ServerControl::stop`]) has stopped
    /// the server.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Blocks until the server stops (via a `shutdown` request).
    pub fn wait(mut self) {
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        self.handle.shutdown();
    }

    /// Stops the server: no new connections, service shut down, all threads
    /// joined.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        self.handle.shutdown();
    }
}

impl Drop for ServerControl {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        self.handle.shutdown();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:7911"`, port 0 for an ephemeral port) and
/// serves `handle` on it.
///
/// Arms the flight recorder ([`velv_obs::flight::arm`]) for the rest of the
/// process: the wire front end is what reads the ring (the `flight` verb,
/// the dumps of a daemon with a dump directory), so spans and events land in
/// it from here on even with no trace sink installed.
///
/// # Errors
///
/// Fails when the address cannot be bound.
pub fn serve(handle: ServeHandle, addr: impl ToSocketAddrs) -> io::Result<ServerControl> {
    velv_obs::flight::arm();
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_handle = handle.clone();
    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::Builder::new()
        .name("velvd-accept".to_owned())
        .spawn(move || accept_loop(listener, accept_handle, accept_stop))
        .expect("spawning the accept thread succeeds");
    Ok(ServerControl {
        addr: local,
        stop,
        accept_thread: Some(accept_thread),
        handle,
    })
}

fn accept_loop(listener: TcpListener, handle: ServeHandle, stop: Arc<AtomicBool>) {
    // Each connection thread with a clone of its stream, so shutdown can
    // wake a thread blocked reading from an idle client.
    let mut connections: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let Ok(read_half) = stream.try_clone() else {
                    continue;
                };
                let handle = handle.clone();
                let stop = Arc::clone(&stop);
                let thread = std::thread::Builder::new()
                    .name("velvd-conn".to_owned())
                    .spawn(move || {
                        let _ = serve_connection(stream, &handle, &stop);
                    })
                    .expect("spawning a connection thread succeeds");
                connections.push((thread, read_half));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
        // Reap finished connection threads so long-lived servers do not
        // accumulate handles.
        connections.retain(|(thread, _)| !thread.is_finished());
    }
    // Shut the service down FIRST: connection threads may be blocked in
    // `ticket.wait()` on long solves, and it is the shutdown (cancelling
    // every in-flight token) that unblocks them — joining before cancelling
    // would wait out the solves.  Then end the read half of every stream: a
    // thread waiting for an idle client's next frame reads end-of-stream and
    // exits, while the write half stays open for a reply still being sent
    // (the `ok bye` of a `shutdown` request).
    handle.shutdown();
    for (_, stream) in &connections {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for (thread, _) in connections {
        let _ = thread.join();
    }
}

fn serve_connection(
    stream: TcpStream,
    handle: &ServeHandle,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    while let Some(body) = read_frame(&mut reader)? {
        if stop.load(Ordering::SeqCst) {
            write_frame(&mut writer, "err server is shutting down")?;
            break;
        }
        let response = match Request::parse_body(&body) {
            Err(message) => format!("err {message}"),
            Ok(request) => match dispatch(request, handle, stop) {
                Ok(response) => response,
                Err(message) => format!("err {message}"),
            },
        };
        write_frame(&mut writer, &response)?;
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

fn dispatch(
    request: Request,
    handle: &ServeHandle,
    stop: &Arc<AtomicBool>,
) -> Result<String, String> {
    match request {
        Request::Ping => Ok("ok\npong 1".to_owned()),
        Request::Stats(format) => Ok(stats_response(&handle.registry_snapshot(), format)),
        Request::Status => {
            let (queued, running) = handle.load();
            let mut body = format!(
                "ok\nworkers {}\nqueued {queued}\nrunning {running}\nshut-down {}",
                handle.workers(),
                u8::from(handle.is_shut_down()),
            );
            for row in handle.progress_rows() {
                let progress = &row.progress;
                body.push_str(&format!(
                    "\njob {} name={} class={} elapsed-ms={} budget-ms={} conflicts={} \
                     conflicts-per-sec={} restarts={} trail={} level={} learnts={} beats={}",
                    row.fingerprint,
                    row.name.replace(' ', "_"),
                    row.class,
                    row.elapsed.as_millis(),
                    row.budget
                        .map(|b| b.as_millis().to_string())
                        .unwrap_or_else(|| "-".to_owned()),
                    progress.conflicts,
                    progress.conflicts_per_sec.round() as u64,
                    progress.restarts,
                    progress.trail_depth,
                    progress.mean_decision_level.round() as u64,
                    progress.learnt_db,
                    row.beats,
                ));
            }
            Ok(body)
        }
        Request::Flight => Ok(flight_response(&velv_obs::flight::snapshot())),
        Request::Mem => Ok(mem_response(
            &velv_obs::mem::snapshot(),
            handle.mem_pressure_level(),
            handle.mem_limit(),
            &handle.measured_footprints(),
        )),
        Request::Submit { spec, trace } => {
            // Overload is a first-class `busy` status (not `err`): clients
            // back off and retry instead of treating it as a failure.
            let ticket = match handle.submit_traced(spec, trace) {
                Ok(ticket) => ticket,
                Err(ServeError::Busy(reason)) => return Ok(format!("busy {reason}")),
                Err(e) => return Err(e.to_string()),
            };
            let fingerprint = ticket.fingerprint();
            let result = ticket.wait();
            Ok(submit_response(fingerprint, &result))
        }
        Request::Batch { specs, trace } => {
            // The per-client quota caps how many jobs one connection puts in
            // flight at once; a batch is the only way a single (serial)
            // connection creates concurrent jobs.
            let quota = handle.per_client_quota();
            if quota > 0 && specs.len() > quota {
                handle.note_quota_rejection();
                return Ok(format!(
                    "busy per-client quota is {quota} jobs in flight, batch has {}",
                    specs.len()
                ));
            }
            let tickets: Vec<JobTicket> = match handle.submit_batch_traced(specs, trace) {
                Ok(tickets) => tickets,
                Err(ServeError::Busy(reason)) => return Ok(format!("busy {reason}")),
                Err(e) => return Err(e.to_string()),
            };
            let results: Vec<_> = tickets
                .iter()
                .map(|t| (t.fingerprint(), t.wait()))
                .collect();
            Ok(batch_response(&results))
        }
        Request::Proof(fingerprint) => {
            let entry = handle
                .cached(fingerprint)
                .ok_or_else(|| format!("no cached entry for {fingerprint}"))?;
            let proof = entry
                .proof_drat
                .as_ref()
                .ok_or_else(|| format!("no proof artifact stored for {fingerprint}"))?;
            let text = String::from_utf8_lossy(proof);
            Ok(format!("ok\nproof-bytes {}\n\n{}", proof.len(), text))
        }
        Request::Profile(fingerprint) => {
            let entry = handle
                .cached(fingerprint)
                .ok_or_else(|| format!("no cached entry for {fingerprint}"))?;
            let profile = entry
                .profile
                .as_ref()
                .ok_or_else(|| format!("no profile recorded for {fingerprint}"))?;
            Ok(format!(
                "ok\nprofile-bytes {}\n\n{}",
                profile.len(),
                profile
            ))
        }
        Request::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            Ok("ok\nbye 1".to_owned())
        }
    }
}
