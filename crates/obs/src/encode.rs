//! Exposition encoders for [`Snapshot`]: Prometheus text, JSON, and flat
//! `key value` pairs, plus a validator for the Prometheus format used by
//! tests and `velvc`.

use crate::metrics::{MetricSample, MetricValue, Snapshot};

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders `{k="v",...}` (possibly with an extra `le` pair), or nothing when
/// there are no labels.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
    out
}

fn sample_type(sample: &MetricSample) -> &'static str {
    match sample.value {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram(_) => "histogram",
    }
}

impl Snapshot {
    /// Encodes the snapshot as Prometheus text exposition (version 0.0.4):
    /// `# HELP`/`# TYPE` headers once per metric family, one sample line per
    /// label set, histograms expanded into cumulative `_bucket{le=...}`
    /// series plus `_sum` and `_count`.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for sample in &self.metrics {
            if last_name != Some(sample.name.as_str()) {
                out.push_str(&format!(
                    "# HELP {} {}\n# TYPE {} {}\n",
                    sample.name,
                    escape_help(&sample.help),
                    sample.name,
                    sample_type(sample)
                ));
                last_name = Some(sample.name.as_str());
            }
            match &sample.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        sample.name,
                        render_labels(&sample.labels, None)
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        sample.name,
                        render_labels(&sample.labels, None)
                    ));
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (bound, count) in h.bounds.iter().zip(&h.counts) {
                        cumulative += count;
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            sample.name,
                            render_labels(&sample.labels, Some(&bound.to_string()))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, Some("+Inf")),
                        h.count
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, None),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, None),
                        h.count
                    ));
                }
            }
        }
        out
    }

    /// Encodes the snapshot as a JSON document:
    /// `{"metrics":[{"name":...,"labels":{...},"type":...,...}]}`.
    pub fn json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (index, sample) in self.metrics.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            crate::json::escape_into(&mut out, &sample.name);
            out.push_str("\",\"labels\":{");
            for (li, (k, v)) in sample.labels.iter().enumerate() {
                if li > 0 {
                    out.push(',');
                }
                out.push('"');
                crate::json::escape_into(&mut out, k);
                out.push_str("\":\"");
                crate::json::escape_into(&mut out, v);
                out.push('"');
            }
            out.push_str("},\"type\":\"");
            out.push_str(sample_type(sample));
            out.push_str("\",");
            match &sample.value {
                MetricValue::Counter(v) => out.push_str(&format!("\"value\":{v}")),
                MetricValue::Gauge(v) => out.push_str(&format!("\"value\":{v}")),
                MetricValue::Histogram(h) => {
                    out.push_str("\"buckets\":[");
                    for (bi, (bound, count)) in h.bounds.iter().zip(&h.counts).enumerate() {
                        if bi > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("{{\"le\":{bound},\"count\":{count}}}"));
                    }
                    if !h.bounds.is_empty() {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"le\":\"+Inf\",\"count\":{}}}],\"sum\":{},\"count\":{}",
                        h.counts.last().copied().unwrap_or(0),
                        h.sum,
                        h.count
                    ));
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Flattens the snapshot into `(key, value)` string pairs suitable for
    /// the `velvd` wire `stats` response: counters and gauges one pair each
    /// (labels rendered inline in the key), histograms as `_count` and
    /// `_sum` pairs.  Keys contain no spaces, so `key value` lines parse
    /// unambiguously.
    pub fn flat_fields(&self) -> Vec<(String, String)> {
        let mut fields = Vec::with_capacity(self.metrics.len());
        for sample in &self.metrics {
            let key = sample.full_name().replace(' ', "_");
            match &sample.value {
                MetricValue::Counter(v) => fields.push((key, v.to_string())),
                MetricValue::Gauge(v) => fields.push((key, v.to_string())),
                MetricValue::Histogram(h) => {
                    let base = &sample.name;
                    let suffixed = |suffix: &str| {
                        let mut renamed = sample.clone();
                        renamed.name = format!("{base}{suffix}");
                        renamed.full_name().replace(' ', "_")
                    };
                    fields.push((suffixed("_count"), h.count.to_string()));
                    fields.push((suffixed("_sum"), h.sum.to_string()));
                }
            }
        }
        fields
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses one `{k="v",...}` label block; returns the label keys.
fn parse_label_block(block: &str) -> Result<Vec<String>, String> {
    let mut keys = Vec::new();
    let mut rest = block;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without `=` in `{{{block}}}`"))?;
        let key = &rest[..eq];
        if !valid_metric_name(key) {
            return Err(format!("bad label name `{key}`"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label value of `{key}` is not quoted"));
        }
        // Scan the quoted value.  Only `\\`, `\"` and `\n` are legal escapes
        // in the exposition format, and control characters must arrive
        // escaped — a raw newline or tab in a label value is exactly the
        // corruption an unescaped renderer produces.
        let mut end = None;
        let bytes = rest.as_bytes();
        let mut i = 1;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => {
                    match bytes.get(i + 1) {
                        Some(b'\\') | Some(b'"') | Some(b'n') => {}
                        Some(other) => {
                            return Err(format!(
                                "unknown escape `\\{}` in label value of `{key}`",
                                *other as char
                            ));
                        }
                        None => {
                            return Err(format!("dangling escape in label value of `{key}`"));
                        }
                    }
                    i += 2;
                }
                b'"' => {
                    end = Some(i);
                    break;
                }
                c if c.is_ascii_control() && c != b'\t' => {
                    return Err(format!(
                        "raw control character 0x{c:02x} in label value of `{key}` \
                         (must be escaped)"
                    ));
                }
                _ => i += 1,
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value for `{key}`"))?;
        keys.push(key.to_string());
        rest = &rest[end + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value in `{{{block}}}`"));
        }
    }
    Ok(keys)
}

/// Validates Prometheus text exposition: well-formed `# HELP`/`# TYPE`
/// headers, every sample line parseable as `name[{labels}] value`, every
/// sample belonging to a declared metric family (histogram samples may use
/// the `_bucket`/`_sum`/`_count` suffixes, and `_bucket` samples must carry
/// an `le` label).
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    let mut types: HashMap<String, String> = HashMap::new();
    for (number, line) in text.lines().enumerate() {
        let number = number + 1;
        let fail = |message: String| Err(format!("line {number}: {message}"));
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            match keyword {
                "HELP" if !valid_metric_name(name) => {
                    return fail(format!("HELP for invalid metric name `{name}`"));
                }
                "HELP" => {}
                "TYPE" => {
                    let kind = parts.next().unwrap_or("").trim();
                    if !valid_metric_name(name) {
                        return fail(format!("TYPE for invalid metric name `{name}`"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return fail(format!("unknown metric type `{kind}`"));
                    }
                    types.insert(name.to_string(), kind.to_string());
                }
                _ => {} // Other comments are allowed and ignored.
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_and_labels, value_part) = match line.find('{') {
            Some(brace) => {
                let close = match line.rfind('}') {
                    Some(c) if c > brace => c,
                    _ => return fail(format!("unbalanced label braces in `{line}`")),
                };
                (
                    (&line[..brace], Some(&line[brace + 1..close])),
                    line[close + 1..].trim(),
                )
            }
            None => {
                let space = match line.find(' ') {
                    Some(s) => s,
                    None => return fail(format!("sample line without a value: `{line}`")),
                };
                ((&line[..space], None), line[space + 1..].trim())
            }
        };
        let (name, labels) = name_and_labels;
        if !valid_metric_name(name) {
            return fail(format!("invalid metric name `{name}`"));
        }
        let label_keys = match labels {
            Some(block) => match parse_label_block(block) {
                Ok(keys) => keys,
                Err(e) => return fail(e),
            },
            None => Vec::new(),
        };
        let mut value_fields = value_part.split_whitespace();
        let value = value_fields.next().unwrap_or("");
        let value_ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
        if !value_ok {
            return fail(format!("unparseable sample value `{value}`"));
        }
        if let Some(timestamp) = value_fields.next() {
            if timestamp.parse::<i64>().is_err() {
                return fail(format!("unparseable timestamp `{timestamp}`"));
            }
        }
        // The sample must belong to a declared family.
        let family = types.get(name).cloned().or_else(|| {
            ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
                name.strip_suffix(suffix)
                    .and_then(|base| types.get(base))
                    .filter(|kind| kind.as_str() == "histogram" || kind.as_str() == "summary")
                    .cloned()
            })
        });
        let Some(_family) = family else {
            return fail(format!("sample `{name}` has no preceding # TYPE header"));
        };
        if name.ends_with("_bucket") && !label_keys.iter().any(|k| k == "le") {
            let base = name.trim_end_matches("_bucket");
            if types.get(base).map(String::as_str) == Some("histogram") {
                return fail(format!("histogram sample `{name}` lacks an `le` label"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample_registry() -> Registry {
        let registry = Registry::new();
        registry.counter("a_total", "Counts a.").add(7);
        registry
            .counter_with("b_total", &[("preset", "chaff")], "Counts b.")
            .add(2);
        registry.gauge("g", "A gauge.").set(-3);
        let h = registry.histogram("h_micros", "Latencies.", &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        registry
    }

    #[test]
    fn prometheus_text_is_valid_and_complete() {
        let text = sample_registry().snapshot().prometheus_text();
        validate_prometheus_text(&text).unwrap();
        assert!(text.contains("a_total 7"), "{text}");
        assert!(text.contains("b_total{preset=\"chaff\"} 2"), "{text}");
        assert!(text.contains("g -3"), "{text}");
        assert!(text.contains("h_micros_bucket{le=\"10\"} 1"), "{text}");
        assert!(text.contains("h_micros_bucket{le=\"100\"} 2"), "{text}");
        assert!(text.contains("h_micros_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("h_micros_sum 555"), "{text}");
        assert!(text.contains("h_micros_count 3"), "{text}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_prometheus_text("not a metric line").is_err());
        assert!(validate_prometheus_text("x_total 1").is_err(), "no TYPE");
        assert!(validate_prometheus_text("# TYPE x wibble\nx 1").is_err());
        assert!(
            validate_prometheus_text("# TYPE x counter\nx{le=\"oops} 1").is_err(),
            "unterminated label"
        );
        assert!(validate_prometheus_text("# TYPE x counter\nx notanumber").is_err());
    }

    #[test]
    fn newline_label_values_are_escaped_and_validate() {
        // A label value containing a newline (or quote/backslash) must
        // render as escaped exposition text the validator accepts...
        let registry = Registry::new();
        registry
            .counter_with(
                "evil_total",
                &[("reason", "line one\nline two \"q\" \\x")],
                "Evil.",
            )
            .inc();
        let text = registry.snapshot().prometheus_text();
        validate_prometheus_text(&text).unwrap();
        assert!(text.contains("\\n"), "newline escaped: {text}");
        assert!(!text.contains("line one\nline"), "no raw newline: {text}");

        // ...while hand-built text with the corruption an unescaped renderer
        // would emit is rejected: raw control characters and unknown escapes.
        let raw_cr = "# TYPE x counter\nx{a=\"b\rc\"} 1";
        assert!(validate_prometheus_text(raw_cr).is_err(), "raw CR");
        let bad_escape = "# TYPE x counter\nx{a=\"b\\qc\"} 1";
        assert!(
            validate_prometheus_text(bad_escape).is_err(),
            "unknown escape"
        );
        let dangling = "# TYPE x counter\nx{a=\"b\\";
        assert!(
            validate_prometheus_text(dangling).is_err(),
            "dangling escape"
        );
        let good = "# TYPE x counter\nx{a=\"b\\nc\"} 1";
        assert!(validate_prometheus_text(good).is_ok(), "escaped newline");
    }

    #[test]
    fn flat_fields_have_no_spaces_and_cover_everything() {
        let fields = sample_registry().snapshot().flat_fields();
        assert!(fields.iter().all(|(k, _)| !k.contains(' ')));
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert!(keys.contains(&"a_total"));
        assert!(keys.contains(&"b_total{preset=\"chaff\"}"));
        assert!(keys.contains(&"g"));
        assert!(keys.contains(&"h_micros_count"));
        assert!(keys.contains(&"h_micros_sum"));
    }

    #[test]
    fn json_mentions_every_metric() {
        let json = sample_registry().snapshot().json();
        for name in ["a_total", "b_total", "g", "h_micros"] {
            assert!(json.contains(&format!("\"name\":\"{name}\"")), "{json}");
        }
        assert!(json.contains("\"le\":\"+Inf\""), "{json}");

        // The `stats --format json` payload is a well-formed document.
        let doc = crate::json::parse(&json).expect("snapshot json parses");
        let metrics = doc.get("metrics").and_then(|m| m.as_array()).unwrap();
        let names: Vec<&str> = metrics
            .iter()
            .filter_map(|m| m.get("name")?.as_str())
            .collect();
        assert_eq!(names, ["a_total", "b_total", "g", "h_micros"], "{json}");
        let by_name = |name: &str| {
            metrics
                .iter()
                .find(|m| m.get("name").unwrap().as_str() == Some(name))
                .unwrap()
        };
        assert_eq!(by_name("a_total").get("value").unwrap().as_u64(), Some(7));
        assert_eq!(by_name("g").get("value").unwrap().as_f64(), Some(-3.0));
        let chaff = by_name("b_total")
            .get("labels")
            .and_then(|l| l.get("preset"));
        assert_eq!(chaff.and_then(|p| p.as_str()), Some("chaff"));
        let histogram = by_name("h_micros");
        assert_eq!(histogram.get("sum").unwrap().as_u64(), Some(555));
        assert_eq!(
            histogram.get("buckets").unwrap().as_array().unwrap().len(),
            3
        );
    }
}
