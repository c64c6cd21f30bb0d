//! `velvc` — command-line client for `velvd`.
//!
//! ```text
//! velvc [FLAGS] ping
//! velvc [FLAGS] submit KEY=VALUE...     # e.g. model=dlx1:bug:3 backend=chaff
//! velvc [FLAGS] batch LINE [LINE...]    # one quoted job line per entry
//! velvc [FLAGS] stats [--prom]
//! velvc [FLAGS] status
//! velvc [FLAGS] top [--once] [--interval-ms N]
//! velvc [FLAGS] watch FINGERPRINT
//! velvc [FLAGS] flight                  # dump the server's flight ring
//! velvc [FLAGS] mem                     # heap usage, per-scope attribution
//! velvc [FLAGS] proof FINGERPRINT
//! velvc [FLAGS] profile FINGERPRINT [--raw]
//! velvc [FLAGS] shutdown
//! velvc trace FILE.jsonl [FILE...]      # offline: check trace captures
//!
//! FLAGS: [--addr HOST:PORT] [--timeout MS] [--retries N] [--backoff-ms MS]
//!        [--trace FILE.jsonl]
//! ```
//!
//! With `--trace FILE` the client records its own spans to `FILE` and mints
//! a 64-bit trace id: `submit` and `batch` open a root span tagged
//! `trace=<id>` and propagate the context over the wire, so the server's
//! `serve.job` span is recorded as a child of the client's root span.
//! `velvc trace server.jsonl client.jsonl` then validates the two captures
//! as one distributed trace.
//!
//! Exit codes distinguish failure classes for scripting: `0` success, `1`
//! server error, `2` usage, `3` server busy, `4` timeout, `5` connection
//! failure, `6` protocol violation.

use velv_serve::proto::{Request, Response};
use velv_serve::{ClientConfig, ClientError, JobSpec, ServeClient, StatsFormat, TraceContext};

fn usage() -> ! {
    eprintln!(
        "usage: velvc [--addr HOST:PORT] [--timeout MS] [--retries N] [--backoff-ms MS] \
         [--trace FILE.jsonl] \
         <ping|submit KEY=VALUE...|batch LINE...|stats [--prom]|status\
         |top [--once] [--interval-ms N]|watch FP|flight|mem|proof FP|profile FP [--raw]\
         |shutdown> \
         | velvc trace FILE.jsonl [FILE...]"
    );
    std::process::exit(2);
}

/// Exit code of a classified client failure (see the module docs).
fn exit_code(error: &ClientError) -> i32 {
    match error {
        ClientError::Server(_) => 1,
        ClientError::Busy(_) => 3,
        ClientError::Timeout => 4,
        ClientError::Io(_) => 5,
        ClientError::Protocol(_) => 6,
    }
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("velvc: {message}");
    std::process::exit(1);
}

fn fail_client(error: ClientError) -> ! {
    let code = exit_code(&error);
    eprintln!("velvc: {error}");
    std::process::exit(code);
}

/// Mints a process-unique 64-bit trace id: wall-clock nanos folded with the
/// pid, never zero.
fn mint_trace_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    (nanos ^ u64::from(std::process::id()).rotate_left(32)).max(1)
}

/// Splits a `status` job row into `(fingerprint, key=value pairs)`.
fn parse_job_row(row: &str) -> (String, Vec<(String, String)>) {
    let mut parts = row.split_whitespace();
    let fingerprint = parts.next().unwrap_or("").to_owned();
    let pairs = parts
        .filter_map(|token| token.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    (fingerprint, pairs)
}

/// Renders one `status` response as a `top`-style table.
fn render_top(response: &Response) -> String {
    let field = |key: &str| response.field(key).unwrap_or("?");
    let mut out = format!(
        "velvd  workers {}  queued {}  running {}  shut-down {}\n",
        field("workers"),
        field("queued"),
        field("running"),
        field("shut-down"),
    );
    let rows = response.all("job");
    if rows.is_empty() {
        out.push_str("(no jobs in flight)\n");
        return out;
    }
    out.push_str(&format!(
        "{:<12} {:<20} {:<6} {:>10} {:>10} {:>10} {:>8} {:>8} {:>6} {:>8}\n",
        "FINGERPRINT",
        "NAME",
        "CLASS",
        "ELAPSED-MS",
        "BUDGET-MS",
        "CONFLICTS",
        "CONF/S",
        "RESTARTS",
        "TRAIL",
        "LEARNTS"
    ));
    for row in rows {
        let (fingerprint, pairs) = parse_job_row(row);
        let get = |key: &str| {
            pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .unwrap_or("-")
        };
        let short = &fingerprint[..fingerprint.len().min(12)];
        out.push_str(&format!(
            "{:<12} {:<20} {:<6} {:>10} {:>10} {:>10} {:>8} {:>8} {:>6} {:>8}\n",
            short,
            get("name"),
            get("class"),
            get("elapsed-ms"),
            get("budget-ms"),
            get("conflicts"),
            get("conflicts-per-sec"),
            get("restarts"),
            get("trail"),
            get("learnts"),
        ));
    }
    out
}

/// Renders one `mem` response: allocator headline numbers, then a per-scope
/// attribution table and the deep-measured structure footprints.
fn render_mem(response: &Response) -> String {
    let mut out = String::new();
    for key in [
        "live-bytes",
        "peak-bytes",
        "total-bytes",
        "allocations",
        "frees",
        "peak-rss-bytes",
        "pressure-level",
        "mem-limit-bytes",
    ] {
        out.push_str(&format!(
            "{key:<18} {}\n",
            response.field(key).unwrap_or("?")
        ));
    }
    let scopes = response.all("scope");
    if !scopes.is_empty() {
        out.push_str(&format!(
            "\n{:<14} {:>14} {:>14} {:>14}\n",
            "SCOPE", "LIVE", "PEAK", "TOTAL"
        ));
        for row in scopes {
            let mut parts = row.split_whitespace();
            let name = parts.next().unwrap_or("?");
            let get = |prefix: &str, parts: &mut std::str::SplitWhitespace| {
                parts
                    .next()
                    .and_then(|token| token.strip_prefix(prefix))
                    .unwrap_or("?")
                    .to_owned()
            };
            let live = get("live=", &mut parts);
            let peak = get("peak=", &mut parts);
            let total = get("total=", &mut parts);
            out.push_str(&format!("{name:<14} {live:>14} {peak:>14} {total:>14}\n"));
        }
    }
    let measured = response.all("measured");
    if !measured.is_empty() {
        out.push_str(&format!("\n{:<14} {:>14}\n", "MEASURED", "BYTES"));
        for row in measured {
            let mut parts = row.split_whitespace();
            let name = parts.next().unwrap_or("?");
            let bytes = parts.next().unwrap_or("?");
            out.push_str(&format!("{name:<14} {bytes:>14}\n"));
        }
    }
    out
}

/// The offline `trace` command: one file gets the per-file summary, several
/// files are validated as one distributed trace (non-zero exit on unclosed
/// or orphaned spans, so scripts can gate on it).
fn run_trace_check(paths: &[String]) -> ! {
    let mut contents = Vec::new();
    for path in paths {
        match std::fs::read_to_string(path) {
            Ok(text) => contents.push((path.as_str(), text)),
            Err(e) => fail(format!("cannot read {path}: {e}")),
        }
    }
    if let [(_, text)] = contents.as_slice() {
        match velv_obs::tracecheck::check_trace(text) {
            Ok(summary) => {
                println!("records       {}", summary.records);
                println!("spans opened  {}", summary.spans_opened);
                println!("spans closed  {}", summary.spans_closed);
                println!("events        {}", summary.events);
                println!("unclosed      {}", summary.unclosed);
                std::process::exit(0);
            }
            Err(e) => fail(format!("malformed trace: {e}")),
        }
    }
    let files: Vec<(&str, &str)> = contents
        .iter()
        .map(|(path, text)| (*path, text.as_str()))
        .collect();
    match velv_obs::check_traces(&files) {
        Ok(merged) => {
            println!("files         {}", merged.files);
            println!("records       {}", merged.totals.records);
            println!("spans opened  {}", merged.totals.spans_opened);
            println!("spans closed  {}", merged.totals.spans_closed);
            println!("events        {}", merged.totals.events);
            println!("unclosed      {}", merged.totals.unclosed);
            println!("traces        {}", merged.traces);
            println!("remote links  {}", merged.remote_links);
            println!("orphaned      {}", merged.orphaned);
            let durations = &merged.durations;
            if durations.count > 0 {
                for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                    println!("span dur {label}  {:.0}us", durations.quantile(q));
                }
            }
            if merged.totals.unclosed > 0 || merged.orphaned > 0 {
                eprintln!(
                    "velvc: merged trace has {} unclosed and {} orphaned spans",
                    merged.totals.unclosed, merged.orphaned
                );
                std::process::exit(1);
            }
            std::process::exit(0);
        }
        Err(e) => fail(format!("malformed distributed trace: {e}")),
    }
}

fn print_submit_reply(reply: &velv_serve::SubmitReply) {
    println!(
        "{}: {}{} ({}, wall {:?}, solve {:?})",
        reply.name,
        reply.verdict,
        reply
            .reason
            .as_ref()
            .map(|r| format!(" [{r}]"))
            .unwrap_or_default(),
        if reply.cached {
            "cache hit"
        } else if reply.deduplicated {
            "deduplicated"
        } else {
            "fresh solve"
        },
        reply.wall,
        reply.solve_time,
    );
    println!("fingerprint {}", reply.fingerprint);
    for name in &reply.cex_true {
        println!("cex-true {name}");
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7911".to_owned();
    let mut config = ClientConfig::default();
    let mut trace_file: Option<String> = None;
    loop {
        let take_value = |args: &mut Vec<String>| {
            if args.len() < 2 {
                usage();
            }
            let value = args[1].clone();
            args.drain(..2);
            value
        };
        match args.first().map(String::as_str) {
            Some("--addr") => addr = take_value(&mut args),
            Some("--trace") => trace_file = Some(take_value(&mut args)),
            Some("--timeout") => match take_value(&mut args).parse::<u64>() {
                Ok(ms) => config.timeout = Some(std::time::Duration::from_millis(ms)),
                Err(_) => usage(),
            },
            Some("--retries") => match take_value(&mut args).parse::<u32>() {
                Ok(n) => config.retries = n,
                Err(_) => usage(),
            },
            Some("--backoff-ms") => match take_value(&mut args).parse::<u64>() {
                Ok(ms) => config.backoff = std::time::Duration::from_millis(ms),
                Err(_) => usage(),
            },
            _ => break,
        }
    }
    let Some(command) = args.first().cloned() else {
        usage();
    };
    let rest = &args[1..];

    // `trace` is offline — it checks JSONL captures without a server.
    if command == "trace" {
        if rest.is_empty() {
            usage();
        }
        run_trace_check(rest);
    }

    // With `--trace FILE` the client records its own spans; submit/batch
    // mint a trace id and propagate the context to the server.
    let trace_context = trace_file.as_ref().map(|path| {
        match velv_obs::JsonlFileSink::create(path) {
            Ok(sink) => velv_obs::install_sink(std::sync::Arc::new(sink)),
            Err(e) => fail(format!("cannot create trace file {path}: {e}")),
        }
        mint_trace_id()
    });

    let mut client = match ServeClient::connect_with(addr.as_str(), config) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("velvc: cannot connect to {addr}: {e}");
            std::process::exit(5);
        }
    };

    match command.as_str() {
        "ping" => match client.ping() {
            Ok(()) => println!("pong"),
            Err(e) => fail_client(e),
        },
        "submit" => {
            if rest.is_empty() {
                usage();
            }
            let line = rest.join(" ");
            let spec = match JobSpec::parse_wire(&line) {
                Ok(spec) => spec,
                Err(e) => fail(e),
            };
            let outcome = {
                // The root span closes before the sink is flushed below, so
                // the capture always balances when the submission succeeds.
                let (root, context) = match trace_context {
                    Some(trace_id) => {
                        let root = velv_obs::span_fields(
                            "velvc.submit",
                            &[("trace", velv_obs::FieldValue::U64(trace_id))],
                        );
                        let context = TraceContext {
                            trace_id,
                            parent_span: root.id(),
                        };
                        (Some(root), Some(context))
                    }
                    None => (None, None),
                };
                let outcome = client.submit_traced(spec, context);
                drop(root);
                outcome
            };
            if trace_context.is_some() {
                velv_obs::uninstall_sink();
            }
            match outcome {
                Ok(reply) => print_submit_reply(&reply),
                Err(e) => fail_client(e),
            }
        }
        "batch" => {
            if rest.is_empty() {
                usage();
            }
            let mut specs = Vec::new();
            for line in rest {
                match JobSpec::parse_wire(line) {
                    Ok(spec) => specs.push(spec),
                    Err(e) => fail(e),
                }
            }
            let outcome = {
                let (root, context) = match trace_context {
                    Some(trace_id) => {
                        let root = velv_obs::span_fields(
                            "velvc.batch",
                            &[("trace", velv_obs::FieldValue::U64(trace_id))],
                        );
                        let context = TraceContext {
                            trace_id,
                            parent_span: root.id(),
                        };
                        (Some(root), Some(context))
                    }
                    None => (None, None),
                };
                let outcome = client.batch_traced(specs, context);
                drop(root);
                outcome
            };
            if trace_context.is_some() {
                velv_obs::uninstall_sink();
            }
            match outcome {
                Ok(response) => {
                    for job in response.all("job") {
                        println!("{job}");
                    }
                }
                Err(e) => fail_client(e),
            }
        }
        "stats" => match rest.first().map(String::as_str) {
            Some("--prom") => match client.stats_text(StatsFormat::Prometheus) {
                Ok(text) => print!("{text}"),
                Err(e) => fail_client(e),
            },
            Some(_) => usage(),
            None => match client.stats() {
                Ok(fields) => {
                    for (key, value) in fields {
                        println!("{key:<44} {value}");
                    }
                }
                Err(e) => fail_client(e),
            },
        },
        "status" => match client.request(&Request::Status) {
            Ok(response) => {
                for (key, value) in &response.fields {
                    println!("{key:<10} {value}");
                }
            }
            Err(e) => fail_client(e),
        },
        "top" => {
            let mut once = false;
            let mut interval = std::time::Duration::from_millis(1000);
            let mut iter = rest.iter();
            while let Some(flag) = iter.next() {
                match flag.as_str() {
                    "--once" => once = true,
                    "--interval-ms" => match iter.next().and_then(|v| v.parse::<u64>().ok()) {
                        Some(ms) => interval = std::time::Duration::from_millis(ms.max(100)),
                        None => usage(),
                    },
                    _ => usage(),
                }
            }
            loop {
                let response = match client.status() {
                    Ok(response) => response,
                    Err(e) => fail_client(e),
                };
                if once {
                    print!("{}", render_top(&response));
                } else {
                    // Clear the screen and repaint, `top`-style.
                    print!("\x1b[2J\x1b[H{}", render_top(&response));
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                }
                if once || response.field("shut-down") == Some("1") {
                    break;
                }
                std::thread::sleep(interval);
            }
        }
        "watch" => {
            let Some(prefix) = rest.first() else {
                usage();
            };
            let mut seen = false;
            loop {
                let response = match client.status() {
                    Ok(response) => response,
                    Err(e) => fail_client(e),
                };
                let row = response
                    .all("job")
                    .into_iter()
                    .map(String::from)
                    .find(|row| parse_job_row(row).0.starts_with(prefix.as_str()));
                match row {
                    Some(row) => {
                        seen = true;
                        println!("{row}");
                    }
                    None if seen => {
                        println!("{prefix}: no longer in flight (finished)");
                        break;
                    }
                    None => {
                        println!("{prefix}: not in flight (already finished or never submitted)");
                        break;
                    }
                }
                if response.field("shut-down") == Some("1") {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(500));
            }
        }
        "mem" => match client.mem() {
            Ok(response) => print!("{}", render_mem(&response)),
            Err(e) => fail_client(e),
        },
        "flight" => match client.flight() {
            Ok(lines) => {
                for line in lines {
                    println!("{line}");
                }
            }
            Err(e) => fail_client(e),
        },
        "proof" => {
            let Some(fingerprint) = rest.first() else {
                usage();
            };
            match client.proof(fingerprint) {
                Ok(text) => print!("{text}"),
                Err(e) => fail_client(e),
            }
        }
        "profile" => {
            let Some(fingerprint) = rest.first() else {
                usage();
            };
            let raw = rest.iter().any(|a| a == "--raw");
            match client.profile(fingerprint) {
                Ok(text) => {
                    if raw {
                        print!("{text}");
                    } else {
                        match velv_obs::SolveProfile::parse(&text) {
                            Ok(profile) => print!("{}", profile.render_text()),
                            // Unparseable profiles (e.g. a newer server) still
                            // dump raw so the bytes are never unreachable.
                            Err(e) => {
                                eprintln!("warning: could not parse profile ({e}); raw dump:");
                                print!("{text}");
                            }
                        }
                    }
                }
                Err(e) => fail_client(e),
            }
        }
        "shutdown" => match client.shutdown() {
            Ok(()) => println!("server shutting down"),
            Err(e) => fail_client(e),
        },
        _ => usage(),
    }
}
