//! Trace validation: parse JSONL trace records and assert span open/close
//! balance.  Used by `satbench --trace`, CI, and `velvc trace <file>`.
//!
//! A record is a flat JSON object read by [`crate::json::parse`]: string,
//! number, boolean and null values, no nesting.  Every value is surfaced as
//! a string (numbers and booleans in their source spelling), so 64-bit ids
//! read back exactly.

use std::collections::BTreeMap;

use crate::json::{self, Json};

/// One parsed trace record.
#[derive(Clone, Debug, Default)]
pub struct TraceRecord {
    /// Every key/value pair of the record; numbers and booleans keep their
    /// textual spelling.
    pub fields: BTreeMap<String, String>,
}

impl TraceRecord {
    /// A field value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }

    /// The record type (`span_open`, `span_close`, `event`).
    pub fn kind(&self) -> &str {
        self.get("type").unwrap_or("")
    }

    /// A field parsed as `u64`.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(|v| v.parse().ok())
    }
}

/// Parses one flat JSON object line into a [`TraceRecord`].
///
/// # Errors
///
/// Returns a description of the first syntax error, or names the key of a
/// nested array or object value.
pub fn parse_trace_line(line: &str) -> Result<TraceRecord, String> {
    let Json::Object(map) = json::parse(line).map_err(|e| e.to_string())? else {
        return Err("record is not a JSON object".to_string());
    };
    let fields = map
        .into_iter()
        .map(|(key, value)| match value {
            Json::String(text) | Json::Number(text) => Ok((key, text)),
            Json::Bool(flag) => Ok((key, flag.to_string())),
            Json::Null => Ok((key, "null".to_string())),
            Json::Array(_) | Json::Object(_) => Err(format!(
                "unsupported value for key `{key}` (flat JSON only)"
            )),
        })
        .collect::<Result<_, _>>()?;
    Ok(TraceRecord { fields })
}

/// Aggregate outcome of [`check_trace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total records parsed.
    pub records: usize,
    /// `span_open` records.
    pub spans_opened: usize,
    /// `span_close` records.
    pub spans_closed: usize,
    /// `event` records.
    pub events: usize,
    /// Spans opened but never closed by the end of the trace.  Zero for a
    /// fully drained single-threaded run; concurrent runs flushed mid-span
    /// legitimately leave a tail.
    pub unclosed: usize,
}

/// Checks a JSONL trace: every line parses as a flat JSON record with a
/// known `type`, every `span_close` matches exactly one earlier `span_open`
/// with the same `id`, and no id closes twice.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn check_trace(text: &str) -> Result<TraceSummary, String> {
    check_records(text, |_| {})
}

/// [`check_trace`], handing every checked record to `visit` so callers
/// that need more than the summary parse each line once.
fn check_records(text: &str, mut visit: impl FnMut(&TraceRecord)) -> Result<TraceSummary, String> {
    use std::collections::HashSet;
    let mut open: HashSet<u64> = HashSet::new();
    let mut closed: HashSet<u64> = HashSet::new();
    let mut summary = TraceSummary::default();
    for (number, line) in text.lines().enumerate() {
        let number = number + 1;
        if line.trim().is_empty() {
            continue;
        }
        let record =
            parse_trace_line(line).map_err(|e| format!("line {number}: {e} in `{line}`"))?;
        summary.records += 1;
        match record.kind() {
            "span_open" => {
                summary.spans_opened += 1;
                let id = record
                    .get_u64("id")
                    .ok_or_else(|| format!("line {number}: span_open without a numeric id"))?;
                if !open.insert(id) || closed.contains(&id) {
                    return Err(format!("line {number}: span id {id} opened twice"));
                }
            }
            "span_close" => {
                summary.spans_closed += 1;
                let id = record
                    .get_u64("id")
                    .ok_or_else(|| format!("line {number}: span_close without a numeric id"))?;
                if !open.remove(&id) {
                    return Err(format!(
                        "line {number}: span id {id} closed without a matching open"
                    ));
                }
                closed.insert(id);
            }
            "event" => {
                summary.events += 1;
                if record.get("name").is_none() {
                    return Err(format!("line {number}: event without a name"));
                }
            }
            other => {
                return Err(format!("line {number}: unknown record type `{other}`"));
            }
        }
        visit(&record);
    }
    summary.unclosed = open.len();
    Ok(summary)
}

/// Aggregate outcome of [`check_traces`] over several per-process files.
#[derive(Clone, Debug, Default)]
pub struct MergedTraceSummary {
    /// Number of input files.
    pub files: usize,
    /// Per-file summaries summed field-wise.
    pub totals: TraceSummary,
    /// Distinct 64-bit trace ids seen on `trace=`-tagged spans.
    pub traces: usize,
    /// Spans carrying both `trace` and `remote_parent` — cross-process
    /// parent/child links.
    pub remote_links: usize,
    /// Remote links whose `(trace, remote_parent)` resolves to no
    /// `trace`-tagged span in any input file: the child claims a parent
    /// nobody recorded.
    pub orphaned: usize,
    /// All span durations (`dur_us` of every `span_close`) pooled across
    /// the files — one [`LogHistogram`](crate::LogHistogram) per file,
    /// merged.
    pub durations: crate::LogHistogram,
}

/// Validates several JSONL trace files captured by *different processes* as
/// one distributed trace.
///
/// Each file must pass [`check_trace`] on its own.  Span ids are per-process
/// counters, so cross-file parentage cannot use the `parent` field; instead
/// a process that continues a remote trace tags its spans with `trace=<id>`
/// and `remote_parent=<span>`, and this check resolves every such link
/// against the `trace`-tagged spans of the other files (same-file resolution
/// also counts — ids are unique within a process).  Timestamps are
/// process-local and deliberately not compared.
///
/// Input is `(label, jsonl-text)` pairs; the label names the file in error
/// messages.
///
/// # Errors
///
/// Returns the first per-file validation error, prefixed with the label.
pub fn check_traces(files: &[(&str, &str)]) -> Result<MergedTraceSummary, String> {
    use std::collections::HashSet;
    let mut summary = MergedTraceSummary {
        files: files.len(),
        ..MergedTraceSummary::default()
    };
    // (file index, trace id, span id) of every trace-tagged span_open.
    let mut tagged: HashSet<(usize, u64, u64)> = HashSet::new();
    // (file index, trace id, remote parent span id) of every remote link.
    let mut links: Vec<(usize, u64, u64)> = Vec::new();
    let mut trace_ids: HashSet<u64> = HashSet::new();
    for (index, (label, text)) in files.iter().enumerate() {
        let mut durations = crate::LogHistogram::new();
        let file = check_records(text, |record| match record.kind() {
            "span_open" => {
                let (Some(id), Some(trace)) = (record.get_u64("id"), record.get_u64("trace"))
                else {
                    return;
                };
                trace_ids.insert(trace);
                tagged.insert((index, trace, id));
                if let Some(remote) = record.get_u64("remote_parent") {
                    summary.remote_links += 1;
                    links.push((index, trace, remote));
                }
            }
            "span_close" => {
                if let Some(dur) = record.get_u64("dur_us") {
                    durations.observe(dur);
                }
            }
            _ => {}
        })
        .map_err(|e| format!("{label}: {e}"))?;
        summary.totals.records += file.records;
        summary.totals.spans_opened += file.spans_opened;
        summary.totals.spans_closed += file.spans_closed;
        summary.totals.events += file.events;
        summary.totals.unclosed += file.unclosed;
        summary.durations.merge(&durations);
    }
    summary.traces = trace_ids.len();
    for (file, trace, remote) in links {
        let resolved = tagged.contains(&(file, trace, remote))
            || (0..files.len())
                .any(|other| other != file && tagged.contains(&(other, trace, remote)));
        if !resolved {
            summary.orphaned += 1;
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_records() {
        let record = parse_trace_line(
            r#"{"type":"span_open","id":3,"parent":0,"name":"a b","ok":true,"x":-1.5}"#,
        )
        .unwrap();
        assert_eq!(record.kind(), "span_open");
        assert_eq!(record.get_u64("id"), Some(3));
        assert_eq!(record.get("name"), Some("a b"));
        assert_eq!(record.get("ok"), Some("true"));
        assert_eq!(record.get("x"), Some("-1.5"));
    }

    #[test]
    fn large_trace_ids_read_back_exactly() {
        let record = parse_trace_line(
            r#"{"type":"span_open","id":1,"trace":18446744073709551615,"velvc":1760000000123456789}"#,
        )
        .unwrap();
        assert_eq!(record.get_u64("trace"), Some(u64::MAX));
        assert_eq!(record.get_u64("velvc"), Some(1_760_000_000_123_456_789));

        // A link on a velvc-style id resolves only if neither side rounds it.
        let client = concat!(
            "{\"type\":\"span_open\",\"id\":1,\"name\":\"velvc.submit\",\"trace\":1760000000123456789}\n",
            "{\"type\":\"span_close\",\"id\":1,\"name\":\"velvc.submit\"}\n",
        );
        let server = concat!(
            "{\"type\":\"span_open\",\"id\":4,\"name\":\"serve.job\",\"trace\":1760000000123456789,\"remote_parent\":1}\n",
            "{\"type\":\"span_close\",\"id\":4,\"name\":\"serve.job\"}\n",
            // Differs from the client's id only beyond f64 precision.
            "{\"type\":\"span_open\",\"id\":5,\"name\":\"serve.job\",\"trace\":1760000000123456790,\"remote_parent\":1}\n",
            "{\"type\":\"span_close\",\"id\":5,\"name\":\"serve.job\"}\n",
        );
        let merged = check_traces(&[("client", client), ("server", server)]).unwrap();
        assert_eq!(merged.traces, 2);
        assert_eq!(merged.remote_links, 2);
        assert_eq!(merged.orphaned, 1, "only the off-by-one id is orphaned");
    }

    #[test]
    fn parses_escapes() {
        let record = parse_trace_line(r#"{"name":"q\"u\\o\nte A"}"#).unwrap();
        assert_eq!(record.get("name"), Some("q\"u\\o\nte A"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_trace_line("not json").is_err());
        assert!(parse_trace_line(r#"{"a":}"#).is_err());
        assert!(parse_trace_line(r#"{"a":{"nested":1}}"#).is_err());
        assert!(parse_trace_line(r#"{"a":1} extra"#).is_err());
    }

    #[test]
    fn balanced_traces_pass() {
        let text = concat!(
            "{\"type\":\"span_open\",\"id\":1,\"parent\":0,\"name\":\"a\"}\n",
            "{\"type\":\"event\",\"name\":\"tick\",\"parent\":1}\n",
            "{\"type\":\"span_open\",\"id\":2,\"parent\":1,\"name\":\"b\"}\n",
            "{\"type\":\"span_close\",\"id\":2,\"name\":\"b\"}\n",
            "{\"type\":\"span_close\",\"id\":1,\"name\":\"a\"}\n",
        );
        let summary = check_trace(text).unwrap();
        assert_eq!(summary.spans_opened, 2);
        assert_eq!(summary.spans_closed, 2);
        assert_eq!(summary.events, 1);
        assert_eq!(summary.unclosed, 0);
    }

    #[test]
    fn merged_cross_process_links_resolve_by_trace_id() {
        // Client process: root span 1 tagged with trace 77.
        let client = concat!(
            "{\"type\":\"span_open\",\"id\":1,\"parent\":0,\"name\":\"velvc.submit\",\"trace\":77}\n",
            "{\"type\":\"span_close\",\"id\":1,\"name\":\"velvc.submit\",\"dur_us\":120}\n",
        );
        // Server process: its own id 1 (ids collide across processes), but
        // the remote_parent resolves via (trace, span) in the client file.
        let server = concat!(
            "{\"type\":\"span_open\",\"id\":1,\"parent\":0,\"name\":\"serve.job\",\"trace\":77,\"remote_parent\":1}\n",
            "{\"type\":\"span_close\",\"id\":1,\"name\":\"serve.job\",\"dur_us\":80}\n",
        );
        let merged = check_traces(&[("client", client), ("server", server)]).unwrap();
        assert_eq!(merged.files, 2);
        assert_eq!(merged.totals.spans_opened, 2);
        assert_eq!(merged.totals.unclosed, 0);
        assert_eq!(merged.traces, 1);
        assert_eq!(merged.remote_links, 1);
        assert_eq!(merged.orphaned, 0);
        assert_eq!(merged.durations.count(), 2);
    }

    #[test]
    fn merged_check_reports_orphaned_remote_parents() {
        let client = concat!(
            "{\"type\":\"span_open\",\"id\":1,\"name\":\"velvc.submit\",\"trace\":77}\n",
            "{\"type\":\"span_close\",\"id\":1,\"name\":\"velvc.submit\"}\n",
        );
        // Wrong trace id: the link cannot resolve anywhere.
        let server = concat!(
            "{\"type\":\"span_open\",\"id\":5,\"name\":\"serve.job\",\"trace\":78,\"remote_parent\":1}\n",
            "{\"type\":\"span_close\",\"id\":5,\"name\":\"serve.job\"}\n",
        );
        let merged = check_traces(&[("client", client), ("server", server)]).unwrap();
        assert_eq!(merged.remote_links, 1);
        assert_eq!(merged.orphaned, 1);
        assert_eq!(merged.traces, 2);

        // A malformed member file fails the whole merge, naming the file.
        let err = check_traces(&[("client", client), ("bad", "not json")]).unwrap_err();
        assert!(err.starts_with("bad:"), "{err}");
    }

    #[test]
    fn unbalanced_traces_are_reported() {
        let unclosed = check_trace("{\"type\":\"span_open\",\"id\":1,\"name\":\"a\"}").unwrap();
        assert_eq!(unclosed.unclosed, 1);
        assert!(check_trace("{\"type\":\"span_close\",\"id\":9,\"name\":\"a\"}").is_err());
        let double = concat!(
            "{\"type\":\"span_open\",\"id\":1,\"name\":\"a\"}\n",
            "{\"type\":\"span_close\",\"id\":1,\"name\":\"a\"}\n",
            "{\"type\":\"span_close\",\"id\":1,\"name\":\"a\"}\n",
        );
        assert!(check_trace(double).is_err());
    }
}
