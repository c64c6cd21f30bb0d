//! A minimal TCP client for the `velvd` protocol (used by `velvc` and the
//! integration tests), with per-request timeouts and reconnect-and-resubmit
//! retries.
//!
//! Retrying a submission is safe by construction: jobs are keyed by their
//! structural fingerprint, so a resubmission after a timeout either hits the
//! verdict cache (the first attempt finished server-side) or joins the still
//! in-flight twin — it never schedules duplicate solver work.  Backoff
//! between attempts uses decorrelated jitter so a fleet of retrying clients
//! does not stampede a recovering server in lockstep.

use crate::job::JobSpec;
use crate::proto::{read_frame, write_frame, Request, Response, StatsFormat, TraceContext};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use velv_sat::rng::SmallRng;

/// Client-side resilience knobs.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Per-request read/write timeout; `None` waits indefinitely (solves can
    /// legitimately take long — prefer a generous value over none).
    pub timeout: Option<Duration>,
    /// Additional attempts after the first on busy/timeout/transport
    /// failures (0 = fail fast).
    pub retries: u32,
    /// Base backoff between attempts.
    pub backoff: Duration,
    /// Upper bound of the jittered backoff.
    pub backoff_cap: Duration,
    /// Seed of the backoff jitter (deterministic for tests).
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            timeout: None,
            retries: 0,
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            seed: 0x5EED_C11E,
        }
    }
}

/// A connected client.  One request/response exchange at a time.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    peer: SocketAddr,
    config: ClientConfig,
    rng: SmallRng,
}

/// A client-side failure, classified so callers can react differently to
/// overload, slowness, dead servers and wire corruption.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connection refused/reset, ...).
    Io(io::Error),
    /// The request did not complete within the configured timeout.
    Timeout,
    /// The server rejected the request as overloaded; retry later.
    Busy(String),
    /// The server answered `err <message>`.
    Server(String),
    /// The response violated the wire protocol (malformed frame or status).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Timeout => write!(f, "request timed out"),
            ClientError::Busy(reason) => write!(f, "server busy: {reason}"),
            ClientError::Server(message) => write!(f, "server error: {message}"),
            ClientError::Protocol(message) => write!(f, "protocol error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        classify_io(e)
    }
}

/// Sorts a transport error into the retry taxonomy: timeouts and protocol
/// violations are their own kinds, everything else stays a transport error.
fn classify_io(e: io::Error) -> ClientError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::Timeout,
        io::ErrorKind::InvalidData => ClientError::Protocol(e.to_string()),
        _ => ClientError::Io(e),
    }
}

/// The parsed outcome of a `submit` exchange.
#[derive(Clone, Debug)]
pub struct SubmitReply {
    /// Design name.
    pub name: String,
    /// The job fingerprint (hex), usable with [`ServeClient::proof`].
    pub fingerprint: String,
    /// `correct`, `buggy` or `unknown`.
    pub verdict: String,
    /// The reason of an `unknown` verdict.
    pub reason: Option<String>,
    /// Served from the verdict cache.
    pub cached: bool,
    /// Subscribed to an identical in-flight job.
    pub deduplicated: bool,
    /// Submission-to-result latency reported by the server.
    pub wall: Duration,
    /// Translation+solve time reported by the server.
    pub solve_time: Duration,
    /// True primary variables of the counterexample (buggy verdicts).
    pub cex_true: Vec<String>,
}

impl ServeClient {
    /// Connects to a `velvd` server with default resilience settings (no
    /// timeout, no retries).
    ///
    /// # Errors
    ///
    /// Fails when the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit timeout/retry configuration.
    ///
    /// # Errors
    ///
    /// Fails when the connection cannot be established.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr()?;
        Self::configure(&stream, &config)?;
        let rng = SmallRng::seed_from_u64(config.seed);
        Ok(ServeClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            peer,
            config,
            rng,
        })
    }

    fn configure(stream: &TcpStream, config: &ClientConfig) -> io::Result<()> {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(config.timeout)?;
        stream.set_write_timeout(config.timeout)?;
        Ok(())
    }

    /// Tears the connection down and dials the same peer again.  Required
    /// after a timeout: the old stream may still carry the late response,
    /// which would desynchronize every later exchange.
    fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.peer)?;
        Self::configure(&stream, &self.config)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = stream;
        Ok(())
    }

    /// One wire exchange, no retries.
    fn exchange(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.writer, &request.to_body()).map_err(classify_io)?;
        let body = read_frame(&mut self.reader)
            .map_err(classify_io)?
            .ok_or_else(|| {
                ClientError::Protocol("connection closed before a response arrived".to_owned())
            })?;
        if let Some(reason) = body.strip_prefix("busy ") {
            return Err(ClientError::Busy(
                reason.lines().next().unwrap_or("").to_owned(),
            ));
        }
        Response::parse_body(&body).map_err(|message| {
            if body.starts_with("err ") {
                ClientError::Server(message)
            } else {
                ClientError::Protocol(message)
            }
        })
    }

    /// One request/response exchange, retried per the [`ClientConfig`]:
    /// busy, timeout and transport failures are retried with decorrelated
    /// jitter (reconnecting first unless the connection is known in-sync);
    /// server and protocol errors fail immediately.
    ///
    /// # Errors
    ///
    /// The classified failure of the last attempt.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let mut attempt = 0u32;
        let mut previous = self.config.backoff;
        loop {
            let error = match self.exchange(request) {
                Ok(response) => return Ok(response),
                Err(e) => e,
            };
            let retryable = matches!(
                error,
                ClientError::Busy(_) | ClientError::Timeout | ClientError::Io(_)
            );
            if !retryable || attempt >= self.config.retries {
                return Err(error);
            }
            attempt += 1;
            // Decorrelated jitter: sleep ~ uniform(base, 3 * previous),
            // capped.  Spreads a retrying fleet out instead of thundering.
            let base = self.config.backoff.as_millis() as u64;
            let high = (previous.as_millis() as u64)
                .saturating_mul(3)
                .max(base + 1);
            let span = (high - base).min(u32::MAX as u64) as usize;
            let ms = base + self.rng.gen_range(0..span.max(1)) as u64;
            previous = Duration::from_millis(ms).min(self.config.backoff_cap);
            std::thread::sleep(previous);
            if !matches!(error, ClientError::Busy(_)) {
                // Best effort; a failed redial surfaces as Io on the next
                // attempt and consumes the remaining budget.
                let _ = self.reconnect();
            }
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// See [`ServeClient::request`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Ping).map(|_| ())
    }

    /// Submits one job and waits for its verdict.
    ///
    /// # Errors
    ///
    /// See [`ServeClient::request`].
    pub fn submit(&mut self, spec: JobSpec) -> Result<SubmitReply, ClientError> {
        self.submit_traced(spec, None)
    }

    /// Submits one job with the client's trace context attached, so the
    /// server parents its `serve.job` span under the client's root span in a
    /// merged multi-process trace.
    ///
    /// # Errors
    ///
    /// See [`ServeClient::request`].
    pub fn submit_traced(
        &mut self,
        spec: JobSpec,
        trace: Option<TraceContext>,
    ) -> Result<SubmitReply, ClientError> {
        let response = self.request(&Request::Submit { spec, trace })?;
        let micros = |key: &str| {
            response
                .field(key)
                .and_then(|v| v.parse::<u64>().ok())
                .map(Duration::from_micros)
                .unwrap_or(Duration::ZERO)
        };
        Ok(SubmitReply {
            name: response.field("name").unwrap_or("?").to_owned(),
            fingerprint: response.field("fingerprint").unwrap_or("").to_owned(),
            verdict: response.field("verdict").unwrap_or("unknown").to_owned(),
            reason: response.field("reason").map(str::to_owned),
            cached: response.field("cached") == Some("1"),
            deduplicated: response.field("dedup") == Some("1"),
            wall: micros("wall-us"),
            solve_time: micros("solve-us"),
            cex_true: response
                .all("cex-true")
                .iter()
                .map(|s| s.to_string())
                .collect(),
        })
    }

    /// Submits a batch; returns the raw per-job lines of the response.
    ///
    /// # Errors
    ///
    /// See [`ServeClient::request`].
    pub fn batch(&mut self, specs: Vec<JobSpec>) -> Result<Response, ClientError> {
        self.batch_traced(specs, None)
    }

    /// Submits a batch with the client's trace context attached (see
    /// [`ServeClient::submit_traced`]).
    ///
    /// # Errors
    ///
    /// See [`ServeClient::request`].
    pub fn batch_traced(
        &mut self,
        specs: Vec<JobSpec>,
        trace: Option<TraceContext>,
    ) -> Result<Response, ClientError> {
        self.request(&Request::Batch { specs, trace })
    }

    /// Fetches the scheduler gauges plus the live per-job progress rows
    /// (one `job` field per in-flight job).
    ///
    /// # Errors
    ///
    /// See [`ServeClient::request`].
    pub fn status(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Status)
    }

    /// Snapshots the server's flight-recorder ring: the most recent trace
    /// records as JSONL lines, oldest first.
    ///
    /// # Errors
    ///
    /// See [`ServeClient::request`]; also fails when the server omits the
    /// payload of a non-empty snapshot.
    pub fn flight(&mut self) -> Result<Vec<String>, ClientError> {
        let response = self.request(&Request::Flight)?;
        Ok(response
            .payload
            .map(|payload| payload.lines().map(str::to_owned).collect())
            .unwrap_or_default())
    }

    /// Fetches the server's memory snapshot: the raw `key value` and
    /// repeated `scope`/`measured` lines of the `mem` wire verb (see
    /// [`crate::proto::mem_response`] for the field set).
    ///
    /// # Errors
    ///
    /// See [`ServeClient::request`].
    pub fn mem(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Mem)
    }

    /// Fetches the service metric registry as flat `(key, value)` pairs.
    ///
    /// # Errors
    ///
    /// See [`ServeClient::request`].
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        let response = self.request(&Request::Stats(StatsFormat::Flat))?;
        Ok(response
            .fields
            .iter()
            .filter_map(|(k, v)| v.parse::<u64>().ok().map(|v| (k.clone(), v)))
            .collect())
    }

    /// Fetches the service metric registry in an encoded text form
    /// (Prometheus exposition text).
    ///
    /// # Errors
    ///
    /// See [`ServeClient::request`]; also fails when the server omits the
    /// encoded payload.
    pub fn stats_text(&mut self, format: StatsFormat) -> Result<String, ClientError> {
        let response = self.request(&Request::Stats(format))?;
        response
            .payload
            .ok_or_else(|| ClientError::Protocol("stats response had no payload".to_owned()))
    }

    /// Fetches the cached DRAT proof text for a fingerprint.
    ///
    /// # Errors
    ///
    /// Fails when nothing (or no proof) is cached under the fingerprint.
    pub fn proof(&mut self, fingerprint_hex: &str) -> Result<String, ClientError> {
        let fingerprint = velv_eufm::Fingerprint::from_hex(fingerprint_hex)
            .ok_or_else(|| ClientError::Server(format!("bad fingerprint `{fingerprint_hex}`")))?;
        let response = self.request(&Request::Proof(fingerprint))?;
        response
            .payload
            .ok_or_else(|| ClientError::Protocol("proof response had no payload".to_owned()))
    }

    /// Fetches the cached solve profile (JSONL) for a fingerprint.
    ///
    /// # Errors
    ///
    /// Fails when nothing (or no profile) is cached under the fingerprint.
    pub fn profile(&mut self, fingerprint_hex: &str) -> Result<String, ClientError> {
        let fingerprint = velv_eufm::Fingerprint::from_hex(fingerprint_hex)
            .ok_or_else(|| ClientError::Server(format!("bad fingerprint `{fingerprint_hex}`")))?;
        let response = self.request(&Request::Profile(fingerprint))?;
        response
            .payload
            .ok_or_else(|| ClientError::Protocol("profile response had no payload".to_owned()))
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// See [`ServeClient::request`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Shutdown).map(|_| ())
    }
}
