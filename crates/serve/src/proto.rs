//! The hand-rolled wire protocol of `velvd`/`velvc`.
//!
//! Transport: **length-prefixed text frames** over any byte stream.  A frame
//! is the byte length of the body as ASCII decimal, a newline, then exactly
//! that many body bytes:
//!
//! ```text
//! <len>\n<body>
//! ```
//!
//! The body is UTF-8 text.  A *request* body is a command on the first line,
//! arguments on the following lines; a *response* body starts with `ok` or
//! `err <message>`, followed by `key value` fields (and, for `proof`, the raw
//! DRAT text after a blank line).
//!
//! Commands:
//!
//! | command | body lines | response fields |
//! |---|---|---|
//! | `ping` | — | `pong 1` |
//! | `submit` | optional `trace <id> <span>` line, then one [`JobSpec`] wire line | verdict fields (below) |
//! | `batch` | optional `trace <id> <span>` line, then one [`JobSpec`] wire line per entry | `count N`, then one `job i ...` line per entry |
//! | `stats` | optional format line: `prom` | one `key value` line per metric (flat), or the Prometheus text of the registry snapshot as payload |
//! | `status` | — | `workers`, `queued`, `running`, `shut-down`, then one `job <fingerprint> ...` line per in-flight job |
//! | `proof` | one fingerprint (32 hex digits) | `proof-bytes N`, blank line, DRAT text |
//! | `profile` | one fingerprint (32 hex digits) | `profile-bytes N`, blank line, [`velv_obs::SolveProfile`] JSONL |
//! | `flight` | — | `lines N`, blank line, flight-recorder JSONL snapshot |
//! | `mem` | — | `live-bytes`, `peak-bytes`, `total-bytes`, `allocations`, `frees`, `peak-rss-bytes`, `pressure-level`, `mem-limit-bytes`, one `scope <name> live=N peak=N total=N` line per allocation scope, one `measured <name> N` line per deep-measured structure |
//! | `shutdown` | — | `bye 1` |
//!
//! `submit` verdict fields: `name`, `fingerprint`, `verdict`
//! (`correct`/`buggy`/`unknown`), `reason` (unknown only), `cached`, `dedup`
//! (0/1), `wall-us`, `solve-us`, and one `cex-true <variable>` line per true
//! primary variable of a counterexample.
//!
//! The `trace` line carries the client's [`TraceContext`] — its 64-bit trace
//! id and the span id of its root span, both as decimal — so the server can
//! parent its `serve.job` span under the client's span across the process
//! boundary (the span is tagged with `trace=`/`remote_parent=` fields that
//! [`velv_obs::check_traces`] resolves when merging the two JSONL files).
//! The context is scheduling metadata, never part of the job's identity: a
//! deduplicated submission keeps the trace of the *first* submitter.
//!
//! The protocol is deliberately human-readable: `printf '26\nsubmit\nmodel=dlx1:correct' | nc host 7911`
//! is a valid client.

use crate::job::JobSpec;
use crate::service::JobResult;
use std::io::{self, BufRead, Write};
use velv_core::Verdict;
use velv_eufm::Fingerprint;

/// Frames larger than this are rejected (defence against garbage lengths).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Writes one `<len>\n<body>` frame.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame<W: Write>(writer: &mut W, body: &str) -> io::Result<()> {
    write!(writer, "{}\n{}", body.len(), body)?;
    writer.flush()
}

/// Reads one frame; `Ok(None)` on a clean end of stream before the length
/// line.
///
/// # Errors
///
/// Fails on transport errors, malformed/oversized lengths, truncated bodies,
/// or non-UTF-8 body bytes.
pub fn read_frame<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    // Bound the header read: a peer streaming digits without a newline must
    // not grow the header string (and the process) without limit.
    const MAX_HEADER_BYTES: u64 = 32;
    let mut limited = io::Read::take(&mut *reader, MAX_HEADER_BYTES);
    let mut header = String::new();
    if limited.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    if !header.ends_with('\n') && limited.limit() == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length header exceeds 32 bytes",
        ));
    }
    let len: usize = header.trim_end_matches(['\r', '\n']).parse().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {header:?}"),
        )
    })?;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    // Read the body in bounded chunks rather than allocating `len` bytes up
    // front: a peer declaring a 16 MB frame and sending three bytes costs one
    // chunk of memory, not the declared length.
    const BODY_CHUNK: usize = 64 * 1024;
    let mut body: Vec<u8> = Vec::with_capacity(len.min(BODY_CHUNK));
    while body.len() < len {
        let take = (len - body.len()).min(BODY_CHUNK);
        let start = body.len();
        body.resize(start + take, 0);
        reader.read_exact(&mut body[start..]).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame body truncated at {start} of {len} bytes"),
                )
            } else {
                e
            }
        })?;
    }
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame body is not UTF-8"))
}

/// Encoding requested for a `stats` response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StatsFormat {
    /// `key value` lines, one per metric (histograms as `_count`/`_sum`).
    #[default]
    Flat,
    /// Prometheus text exposition format, sent as the response payload.
    Prometheus,
}

/// A client's trace context, carried on `submit`/`batch` frames so the
/// server's spans become children of the client's root span in a merged
/// multi-process trace.  See the [module docs](self) for the wire form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// The 64-bit id naming the distributed trace.
    pub trace_id: u64,
    /// The span id (in the *client's* process) the server should parent
    /// under.
    pub parent_span: u64,
}

impl TraceContext {
    /// The `trace <id> <span>` wire line.
    pub fn to_wire(&self) -> String {
        format!("trace {} {}", self.trace_id, self.parent_span)
    }

    /// Parses a `trace <id> <span>` line; `None` when `line` is not a trace
    /// line, `Some(Err)` when it is one but malformed.
    pub fn parse_wire(line: &str) -> Option<Result<TraceContext, String>> {
        let rest = line.strip_prefix("trace ")?;
        let mut parts = rest.split_whitespace();
        let parse = |token: Option<&str>| {
            token
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| format!("malformed trace line `{line}`"))
        };
        let context = (|| {
            let trace_id = parse(parts.next())?;
            let parent_span = parse(parts.next())?;
            if parts.next().is_some() {
                return Err(format!("trailing fields in trace line `{line}`"));
            }
            Ok(TraceContext {
                trace_id,
                parent_span,
            })
        })();
        Some(context)
    }
}

/// A parsed request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit one job and wait for its verdict.
    Submit {
        /// The job.
        spec: JobSpec,
        /// The client's trace context, if it is tracing.
        trace: Option<TraceContext>,
    },
    /// Submit a batch and wait for every verdict.
    Batch {
        /// The jobs, in response order.
        specs: Vec<JobSpec>,
        /// The client's trace context, if it is tracing.
        trace: Option<TraceContext>,
    },
    /// Service metric registry snapshot in the requested encoding.
    Stats(StatsFormat),
    /// Scheduler gauges plus per-job progress rows.
    Status,
    /// Retrieve the cached DRAT artifact of a fingerprint.
    Proof(Fingerprint),
    /// Retrieve the cached solve profile of a fingerprint.
    Profile(Fingerprint),
    /// Snapshot the flight recorder ring.
    Flight,
    /// Memory snapshot: allocator globals, per-scope attribution, measured
    /// footprints and the pressure level.
    Mem,
    /// Stop the server.
    Shutdown,
}

impl Request {
    /// Serializes the request into a frame body.
    pub fn to_body(&self) -> String {
        match self {
            Request::Ping => "ping".to_owned(),
            Request::Submit { spec, trace } => {
                let mut body = "submit".to_owned();
                if let Some(context) = trace {
                    body.push('\n');
                    body.push_str(&context.to_wire());
                }
                body.push('\n');
                body.push_str(&spec.to_wire());
                body
            }
            Request::Batch { specs, trace } => {
                let mut body = "batch".to_owned();
                if let Some(context) = trace {
                    body.push('\n');
                    body.push_str(&context.to_wire());
                }
                for spec in specs {
                    body.push('\n');
                    body.push_str(&spec.to_wire());
                }
                body
            }
            Request::Stats(StatsFormat::Flat) => "stats".to_owned(),
            Request::Stats(StatsFormat::Prometheus) => "stats\nprom".to_owned(),
            Request::Status => "status".to_owned(),
            Request::Proof(fp) => format!("proof\n{fp}"),
            Request::Profile(fp) => format!("profile\n{fp}"),
            Request::Flight => "flight".to_owned(),
            Request::Mem => "mem".to_owned(),
            Request::Shutdown => "shutdown".to_owned(),
        }
    }

    /// Parses a frame body into a request.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown commands or malformed
    /// arguments (the server echoes it back as `err <message>`).
    pub fn parse_body(body: &str) -> Result<Request, String> {
        let mut lines = body.lines();
        let command = lines.next().unwrap_or("").trim();
        match command {
            "ping" => Ok(Request::Ping),
            "stats" => match lines.next().map(str::trim).unwrap_or("") {
                "" => Ok(Request::Stats(StatsFormat::Flat)),
                "prom" => Ok(Request::Stats(StatsFormat::Prometheus)),
                other => Err(format!("unknown stats format `{other}`")),
            },
            "status" => Ok(Request::Status),
            "flight" => Ok(Request::Flight),
            "mem" => Ok(Request::Mem),
            "shutdown" => Ok(Request::Shutdown),
            "submit" => {
                let mut line = lines.next().ok_or("submit needs a job line")?;
                let mut trace = None;
                if let Some(parsed) = TraceContext::parse_wire(line) {
                    trace = Some(parsed?);
                    line = lines.next().ok_or("submit needs a job line")?;
                }
                let spec = JobSpec::parse_wire(line).map_err(|e| e.to_string())?;
                Ok(Request::Submit { spec, trace })
            }
            "batch" => {
                let mut trace = None;
                let mut specs = Vec::new();
                let mut first = true;
                for line in lines {
                    if line.trim().is_empty() {
                        continue;
                    }
                    if std::mem::take(&mut first) {
                        if let Some(parsed) = TraceContext::parse_wire(line) {
                            trace = Some(parsed?);
                            continue;
                        }
                    }
                    specs.push(JobSpec::parse_wire(line).map_err(|e| e.to_string())?);
                }
                if specs.is_empty() {
                    return Err("batch needs at least one job line".to_owned());
                }
                Ok(Request::Batch { specs, trace })
            }
            "proof" => {
                let hex = lines.next().ok_or("proof needs a fingerprint")?.trim();
                Fingerprint::from_hex(hex)
                    .map(Request::Proof)
                    .ok_or_else(|| format!("bad fingerprint `{hex}`"))
            }
            "profile" => {
                let hex = lines.next().ok_or("profile needs a fingerprint")?.trim();
                Fingerprint::from_hex(hex)
                    .map(Request::Profile)
                    .ok_or_else(|| format!("bad fingerprint `{hex}`"))
            }
            other => Err(format!("unknown command `{other}`")),
        }
    }
}

/// Label of a verdict on the wire.
pub fn verdict_label(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Correct => "correct",
        Verdict::Buggy(_) => "buggy",
        Verdict::Unknown(_) => "unknown",
    }
}

/// Renders a successful `submit` response body.
pub fn submit_response(fingerprint: Fingerprint, result: &JobResult) -> String {
    let mut body = format!(
        "ok\nname {}\nfingerprint {}\nverdict {}\ncached {}\ndedup {}\nwall-us {}\nsolve-us {}",
        result.name,
        fingerprint,
        verdict_label(&result.verdict),
        u8::from(result.from_cache),
        u8::from(result.deduplicated),
        result.wall.as_micros(),
        result.solve_time.as_micros(),
    );
    match &result.verdict {
        Verdict::Unknown(reason) => {
            body.push_str("\nreason ");
            body.push_str(&reason.replace('\n', " "));
        }
        Verdict::Buggy(cex) => {
            for name in cex.true_assignments() {
                body.push_str("\ncex-true ");
                body.push_str(name);
            }
        }
        Verdict::Correct => {}
    }
    body
}

/// Renders a successful `batch` response body; results are in input order.
pub fn batch_response(results: &[(Fingerprint, JobResult)]) -> String {
    let mut body = format!("ok\ncount {}", results.len());
    for (index, (fingerprint, result)) in results.iter().enumerate() {
        body.push_str(&format!(
            "\njob {index} name={} fingerprint={} verdict={} cached={} dedup={} wall-us={}",
            result.name.replace(' ', "_"),
            fingerprint,
            verdict_label(&result.verdict),
            u8::from(result.from_cache),
            u8::from(result.deduplicated),
            result.wall.as_micros(),
        ));
    }
    body
}

/// Renders the `flight` response body: the ring snapshot as the payload,
/// oldest record first, with a `lines` field so clients can sanity-check.
pub fn flight_response(lines: &[String]) -> String {
    let mut body = format!("ok\nlines {}\n", lines.len());
    body.push('\n');
    body.push_str(&lines.join("\n"));
    body
}

/// Renders the `mem` response body: the allocator's global figures, the
/// pressure state, one `scope` line per allocation scope, and one `measured`
/// line per deep-measured structure (the cross-check against the scope
/// attribution).  All figures are zero when the host did not install
/// [`velv_obs::CountingAlloc`].
pub fn mem_response(
    snapshot: &velv_obs::MemSnapshot,
    pressure_level: u64,
    mem_limit: Option<u64>,
    measured: &[(&str, u64)],
) -> String {
    let mut body = format!(
        "ok\nlive-bytes {}\npeak-bytes {}\ntotal-bytes {}\nallocations {}\nfrees {}\npeak-rss-bytes {}\npressure-level {}\nmem-limit-bytes {}",
        snapshot.live_bytes,
        snapshot.peak_bytes,
        snapshot.total_bytes,
        snapshot.allocations,
        snapshot.frees,
        snapshot.peak_rss_bytes,
        pressure_level,
        mem_limit.unwrap_or(0),
    );
    for scope in &snapshot.scopes {
        body.push_str(&format!(
            "\nscope {} live={} peak={} total={}",
            scope.name, scope.live_bytes, scope.peak_bytes, scope.total_bytes
        ));
    }
    for (name, bytes) in measured {
        body.push_str(&format!("\nmeasured {name} {bytes}"));
    }
    body
}

/// Renders the `stats` response body from a metric registry snapshot.
///
/// The flat encoding emits every registered metric as a `key value` field
/// line, so any metric added to the registry automatically reaches the wire.
/// The Prometheus encoding ships the full snapshot as the response payload
/// (after the blank line), with a `format` field naming the encoding.
pub fn stats_response(snapshot: &velv_obs::Snapshot, format: StatsFormat) -> String {
    match format {
        StatsFormat::Flat => {
            let mut body = "ok".to_owned();
            for (key, value) in snapshot.flat_fields() {
                body.push_str(&format!("\n{key} {value}"));
            }
            body
        }
        StatsFormat::Prometheus => {
            format!("ok\nformat prometheus\n\n{}", snapshot.prometheus_text())
        }
    }
}

/// A parsed `ok` response: `key value` fields plus any raw payload after a
/// blank line (the DRAT text of a `proof` response).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Response {
    /// The `key value` fields, in response order (repeated keys allowed:
    /// `cex-true`, `job`).
    pub fields: Vec<(String, String)>,
    /// Raw payload after the first blank line, if any.
    pub payload: Option<String>,
}

impl Response {
    /// First value of a field.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value of a repeated field.
    pub fn all(&self, key: &str) -> Vec<&str> {
        self.fields
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Parses a response body; `Err` carries the server's `err` message.
    ///
    /// # Errors
    ///
    /// Returns the server-reported error for `err` bodies, or a local
    /// description for malformed ones.
    pub fn parse_body(body: &str) -> Result<Response, String> {
        let (head, payload) = match body.split_once("\n\n") {
            Some((head, payload)) => (head, Some(payload.to_owned())),
            None => (body, None),
        };
        let mut lines = head.lines();
        let status = lines.next().unwrap_or("");
        if let Some(message) = status.strip_prefix("err ") {
            return Err(message.to_owned());
        }
        if let Some(message) = status.strip_prefix("busy ") {
            // Overload rejections are a first-class status so clients can
            // back off and retry; `ServeClient` surfaces them typed.
            return Err(format!("busy: {message}"));
        }
        if status.trim() != "ok" {
            return Err(format!("malformed response status `{status}`"));
        }
        let mut fields = Vec::new();
        for line in lines {
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            fields.push((key.to_owned(), value.to_owned()));
        }
        Ok(Response { fields, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ModelRef;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip() {
        let mut buffer = Vec::new();
        write_frame(&mut buffer, "hello\nworld").unwrap();
        write_frame(&mut buffer, "").unwrap();
        let mut reader = BufReader::new(buffer.as_slice());
        assert_eq!(
            read_frame(&mut reader).unwrap().as_deref(),
            Some("hello\nworld")
        );
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn bad_frames_are_rejected() {
        let mut reader = BufReader::new("nonsense\n".as_bytes());
        assert!(read_frame(&mut reader).is_err());
        let mut reader = BufReader::new("99999999999\n".as_bytes());
        assert!(read_frame(&mut reader).is_err());
        let mut reader = BufReader::new("10\nshort".as_bytes());
        assert!(read_frame(&mut reader).is_err());
    }

    #[test]
    fn endless_length_headers_are_cut_off() {
        // A peer streaming digits with no newline must not grow the header
        // without bound: the read is capped, not buffered forever.
        let digits = vec![b'9'; 1 << 20];
        let mut reader = BufReader::new(digits.as_slice());
        assert!(read_frame(&mut reader).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Ping,
            Request::Stats(StatsFormat::Flat),
            Request::Stats(StatsFormat::Prometheus),
            Request::Status,
            Request::Flight,
            Request::Shutdown,
            Request::Submit {
                spec: JobSpec::new(ModelRef::dlx1_bug(1)),
                trace: None,
            },
            Request::Submit {
                spec: JobSpec::new(ModelRef::dlx1_bug(1)),
                trace: Some(TraceContext {
                    trace_id: 0xDEAD_BEEF_CAFE,
                    parent_span: 42,
                }),
            },
            Request::Batch {
                specs: vec![
                    JobSpec::new(ModelRef::dlx1_correct()),
                    JobSpec::new(ModelRef::dlx1_bug(0)),
                ],
                trace: None,
            },
            Request::Batch {
                specs: vec![JobSpec::new(ModelRef::dlx1_correct())],
                trace: Some(TraceContext {
                    trace_id: 7,
                    parent_span: 1,
                }),
            },
            Request::Proof(Fingerprint(0xabcdef)),
            Request::Profile(Fingerprint(0xabcdef)),
            Request::Mem,
        ];
        for request in requests {
            let body = request.to_body();
            assert_eq!(Request::parse_body(&body), Ok(request), "{body}");
        }
        assert!(Request::parse_body("frobnicate").is_err());
        assert!(Request::parse_body("stats\nxml").is_err());
        assert!(Request::parse_body("submit").is_err());
        assert!(Request::parse_body("submit\ntrace 1 2").is_err());
        assert!(Request::parse_body("submit\ntrace 1\nmodel=dlx1:correct").is_err());
        assert!(Request::parse_body("submit\ntrace 1 2 3\nmodel=dlx1:correct").is_err());
        assert!(Request::parse_body("batch\n\n").is_err());
        assert!(Request::parse_body("batch\ntrace 5 6").is_err());
        assert!(Request::parse_body("proof\nzz").is_err());
        assert!(Request::parse_body("profile\nzz").is_err());
        assert!(Request::parse_body("profile").is_err());
    }

    #[test]
    fn trace_lines_parse_and_reject() {
        let context = TraceContext {
            trace_id: 99,
            parent_span: 3,
        };
        assert_eq!(context.to_wire(), "trace 99 3");
        assert_eq!(TraceContext::parse_wire("trace 99 3"), Some(Ok(context)));
        assert_eq!(TraceContext::parse_wire("model=dlx1:correct"), None);
        assert!(TraceContext::parse_wire("trace nine 3").unwrap().is_err());
        assert!(TraceContext::parse_wire("trace 9").unwrap().is_err());
        assert!(TraceContext::parse_wire("trace 9 3 1").unwrap().is_err());
    }

    #[test]
    fn flight_responses_carry_the_ring_as_payload() {
        let lines = vec![
            "{\"type\":\"event\",\"name\":\"a\"}".to_owned(),
            "{\"type\":\"event\",\"name\":\"b\"}".to_owned(),
        ];
        let body = flight_response(&lines);
        let response = Response::parse_body(&body).unwrap();
        assert_eq!(response.field("lines"), Some("2"));
        let payload = response.payload.unwrap();
        assert_eq!(payload.lines().count(), 2);

        let empty = Response::parse_body(&flight_response(&[])).unwrap();
        assert_eq!(empty.field("lines"), Some("0"));
    }

    #[test]
    fn truncated_bodies_fail_without_upfront_allocation() {
        // A frame declaring the full 16 MB cap but delivering three bytes
        // must fail as truncated (and, by construction of the chunked read,
        // never allocates the declared length).
        let mut bytes = format!("{MAX_FRAME_BYTES}\n").into_bytes();
        bytes.extend_from_slice(b"abc");
        let mut reader = BufReader::new(bytes.as_slice());
        let err = read_frame(&mut reader).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn seeded_mutations_never_panic_the_parsers() {
        use velv_sat::rng::SmallRng;

        // Corpus of valid frames: every request shape plus typical responses.
        let mut corpus: Vec<Vec<u8>> = Vec::new();
        let bodies = [
            Request::Ping.to_body(),
            Request::Submit {
                spec: JobSpec::new(ModelRef::dlx1_bug(1)),
                trace: None,
            }
            .to_body(),
            Request::Submit {
                spec: JobSpec::new(ModelRef::dlx1_bug(1)),
                trace: Some(TraceContext {
                    trace_id: 0xF422,
                    parent_span: 9,
                }),
            }
            .to_body(),
            Request::Batch {
                specs: vec![
                    JobSpec::new(ModelRef::dlx1_correct()),
                    JobSpec::new(ModelRef::dlx1_bug(0)),
                ],
                trace: None,
            }
            .to_body(),
            Request::Stats(StatsFormat::Prometheus).to_body(),
            Request::Flight.to_body(),
            Request::Proof(Fingerprint(0xabcdef)).to_body(),
            Request::Profile(Fingerprint(0xabcdef)).to_body(),
            "ok\nverdict correct\ncex-true a".to_owned(),
            "ok\nproof-bytes 4\n\n1 0\n".to_owned(),
            "ok\nprofile-bytes 4\n\n{}\n".to_owned(),
            "err boom".to_owned(),
            "busy queue full".to_owned(),
        ];
        for body in &bodies {
            let mut frame = Vec::new();
            write_frame(&mut frame, body).unwrap();
            corpus.push(frame);
        }

        let mut rng = SmallRng::seed_from_u64(0xF422_0007);
        for _round in 0..4000 {
            let mut bytes = corpus[rng.gen_range(0..corpus.len())].clone();
            // One to four random mutations: flip a byte, insert garbage,
            // delete a byte, or truncate the tail.
            for _ in 0..rng.gen_range(1..5) {
                if bytes.is_empty() {
                    break;
                }
                let at = rng.gen_range(0..bytes.len());
                match rng.gen_range(0..4) {
                    0 => bytes[at] = rng.next_u64() as u8,
                    1 => bytes.insert(at, rng.next_u64() as u8),
                    2 => {
                        bytes.remove(at);
                    }
                    _ => bytes.truncate(at),
                }
            }
            // The parsers must reject or accept cleanly — no panic, no
            // unbounded allocation, regardless of what the bytes became.
            let mut reader = BufReader::new(bytes.as_slice());
            for _frame in 0..4 {
                match read_frame(&mut reader) {
                    Ok(Some(body)) => {
                        let _ = Request::parse_body(&body);
                        let _ = Response::parse_body(&body);
                    }
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn mem_responses_carry_scopes_and_measured_rows() {
        let snapshot = velv_obs::mem::snapshot();
        let body = mem_response(&snapshot, 2, Some(1 << 20), &[("serve.cache", 4096)]);
        let response = Response::parse_body(&body).unwrap();
        assert!(response.field("live-bytes").is_some());
        assert_eq!(response.field("pressure-level"), Some("2"));
        assert_eq!(response.field("mem-limit-bytes"), Some("1048576"));
        assert_eq!(
            response.all("scope").len(),
            velv_obs::mem::SCOPE_NAMES.len(),
            "one scope line per registered scope"
        );
        assert_eq!(response.all("measured"), vec!["serve.cache 4096"]);
        // Without a limit the field reads zero rather than vanishing.
        let unlimited = mem_response(&snapshot, 0, None, &[]);
        let response = Response::parse_body(&unlimited).unwrap();
        assert_eq!(response.field("mem-limit-bytes"), Some("0"));
    }

    #[test]
    fn responses_parse_fields_and_payload() {
        let response = Response::parse_body("ok\nverdict correct\ncex-true a\ncex-true b").unwrap();
        assert_eq!(response.field("verdict"), Some("correct"));
        assert_eq!(response.all("cex-true"), vec!["a", "b"]);
        assert_eq!(response.payload, None);

        let with_payload = Response::parse_body("ok\nproof-bytes 4\n\n1 0\n").unwrap();
        assert_eq!(with_payload.payload.as_deref(), Some("1 0\n"));

        assert_eq!(Response::parse_body("err boom"), Err("boom".to_owned()));
        assert_eq!(
            Response::parse_body("busy queue full"),
            Err("busy: queue full".to_owned())
        );
    }
}
