//! Minimal JSON parsing + required-key validation for report files.
//!
//! The workspace deliberately carries no serialization dependency, so the
//! bench/campaign reports are hand-built JSON. That makes their shape easy
//! to drift silently — a renamed key breaks downstream diff tooling
//! without failing any test. This module closes the loop: a small
//! recursive-descent JSON parser (just enough for our own reports) plus a
//! pointer-path validator (`a/b/*/c`, where `*` fans out over array
//! elements) that the bench crate's `emit` applies to every report
//! before writing it, and CI to every checked-in `results/BENCH_*.json`
//! and `results/CAMPAIGN_*.json`.
//!
//! This is NOT a general JSON library: no `\u` escapes beyond pass-through,
//! no number-precision guarantees beyond `f64`, no streaming. It parses
//! what [`crate::harness::LoadReport::to_json`] and
//! [`crate::campaign::CampaignResult::to_json`] emit, strictly.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Resolves a `/`-separated pointer path. A `*` segment requires an
    /// array and succeeds only if the rest of the path resolves in
    /// *every* element (so `cells/*/p95_ms` means "each cell has p95").
    /// Returns the first resolved value, or `None` on any miss.
    pub fn pointer(&self, path: &str) -> Option<&JsonValue> {
        if path.is_empty() {
            return Some(self);
        }
        let (head, rest) = match path.split_once('/') {
            Some((h, r)) => (h, r),
            None => (path, ""),
        };
        match (head, self) {
            ("*", JsonValue::Arr(items)) => {
                let mut first = None;
                for item in items {
                    match item.pointer(rest) {
                        Some(v) => {
                            if first.is_none() {
                                first = Some(v);
                            }
                        }
                        None => return None,
                    }
                }
                first
            }
            (key, JsonValue::Obj(map)) => map.get(key).and_then(|v| v.pointer(rest)),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Parses a JSON document; `Err` carries a byte offset + message.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected '{word}' at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(c) => out.push(c as char),
                        None => return Err("unterminated escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (reports are ASCII, but
                    // stay correct on multibyte anyway).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8".to_string())?;
                    let ch = s.chars().next().ok_or_else(|| "unterminated string".to_string())?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number bytes".to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number '{text}' at offset {start}"))
    }
}

/// Pointer paths missing from `doc` — empty means the schema holds.
pub fn missing_keys<'a, S: AsRef<str>>(doc: &JsonValue, required: &'a [S]) -> Vec<&'a str> {
    required.iter().map(AsRef::as_ref).filter(|p| doc.pointer(p).is_none()).collect()
}

/// Pointer paths every embedded [`crate::harness::LoadReport`] object
/// must expose, rooted at `prefix` (no trailing slash).
pub fn load_report_keys(prefix: &str) -> Vec<String> {
    [
        "duration_ms",
        "submitted",
        "completed",
        "rejected",
        "rejects/queue_full",
        "rejects/deadline_unmeetable",
        "rejects/expired",
        "rejects/not_ready",
        "throughput_rps",
        "goodput_rps",
        "avg_batch",
        "robustness/gray_suspects",
        "robustness/gray_quarantines",
        "robustness/gray_readmissions",
        "classes",
    ]
    .iter()
    .map(|k| format!("{prefix}/{k}"))
    .collect()
}

/// Required pointer paths for `results/CAMPAIGN_*.json`
/// (`murmuration.campaign.v1`,
/// [`crate::campaign::CampaignResult::to_json`] shape).
pub fn campaign_required_keys() -> Vec<String> {
    let mut keys: Vec<String> =
        ["schema", "seed", "grid_cells"].iter().map(|s| s.to_string()).collect();
    for k in ["name", "seed", "duration_ms", "offered", "pareto_front"] {
        keys.push(format!("scenarios/*/{k}"));
    }
    for k in [
        "policy",
        "quant",
        "mode",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "accuracy_pct",
        "throughput_rps",
        "goodput_rps",
        "slo_attainment",
        "conservation/submitted",
        "conservation/completed",
        "conservation/rejected",
        "conservation/lost",
        "rejects/queue_full",
        "rejects/deadline_unmeetable",
        "rejects/expired",
        "rejects/not_ready",
        "rejects/stage_dead",
        "robustness/gray_suspects",
        "robustness/gray_quarantines",
        "robustness/gray_readmissions",
        "robustness/failovers",
        "robustness/retried",
        "on_front",
    ] {
        keys.push(format!("scenarios/*/cells/*/{k}"));
    }
    keys
}

/// The declared schema for each report file in `results/`, by file name.
/// `None` means the file is unknown: the bench crate's `emit` refuses to
/// write it and the schema-check test fails on it, forcing new report
/// emitters to register their shape here.
pub fn required_keys_for(file_name: &str) -> Option<Vec<String>> {
    let strs = |ks: &[&str]| ks.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    match file_name {
        "BENCH_serve.json" => {
            let mut keys =
                strs(&["overload_ramp/goodput_ratio", "overload_ramp/latency_p99_within_slo"]);
            keys.extend(load_report_keys("overload_ramp/naive"));
            keys.extend(load_report_keys("overload_ramp/engineered"));
            Some(keys)
        }
        "BENCH_pipeline.json" => {
            let mut keys = strs(&["fleet/devices", "fleet/link_mbps", "fleet/link_delay_ms"]);
            for run in ["baseline", "baseline_2workers", "pipelined"] {
                keys.extend(load_report_keys(&format!("overload_ramp/{run}")));
            }
            Some(keys)
        }
        "BENCH_failover.json" => Some(strs(&[
            "failover/completed_before",
            "failover/completed_after",
            "failover/recovery_ratio",
            "failover/crash_dropped",
            "failover/retried",
            "failover/lost",
            "failover/failovers",
            "failover/conservation",
        ])),
        "BENCH_hedging.json" => Some(strs(&[
            "happy/hedge_rate_pct",
            "brownout/p99_ratio",
            "brownout/hedges_fired",
            "brownout/hedges_won",
            "failover/request_ms",
            "failover/failovers",
            "gates/hedge_rate_budget_pct",
            "gates/p99_ratio_budget",
        ])),
        "BENCH_kernels.json" => Some(strs(&["benchmarks"])),
        "BENCH_swarm.json" => Some(strs(&[
            "workers",
            "host_driver_threads",
            "client_driver_threads",
            "cores",
            "requests",
            "verified_ok",
            "computed",
            "deduped",
            "churn_dropped",
            "storm_dropped",
            "reconnects",
            "accepts_shed",
            "backpressure_rejections",
            "idle_cpu_ms_per_conn",
            "idle_cpu_frac",
            "idle_cpu_ms_per_conn_budget",
            "elapsed_s",
            "pass",
        ])),
        name if name.starts_with("CAMPAIGN_") && name.ends_with(".json") => {
            Some(campaign_required_keys())
        }
        _ => None,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        let v = parse(r#"{"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -3e2}}"#).unwrap();
        assert_eq!(v.pointer("a").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.pointer("b").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.pointer("c/d").unwrap().as_f64(), Some(-300.0));
        assert_eq!(
            v.pointer("b/*"),
            Some(&JsonValue::Bool(true)),
            "bare wildcard yields element 0"
        );
    }

    #[test]
    fn wildcard_requires_every_element() {
        let v = parse(r#"{"xs": [{"k": 1}, {"k": 2}]}"#).unwrap();
        assert_eq!(v.pointer("xs/*/k").unwrap().as_f64(), Some(1.0));
        let v2 = parse(r#"{"xs": [{"k": 1}, {"other": 2}]}"#).unwrap();
        assert!(v2.pointer("xs/*/k").is_none());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("123 tail").is_err());
    }

    #[test]
    fn missing_keys_reports_the_gaps() {
        let v = parse(r#"{"present": 1, "nested": {"yes": true}}"#).unwrap();
        let gaps = missing_keys(&v, &["present", "nested/yes", "nested/no", "absent"]);
        assert_eq!(gaps, vec!["nested/no", "absent"]);
    }

    #[test]
    fn empty_wildcard_array_resolves_to_nothing_but_passes() {
        // An empty scenarios list vacuously satisfies per-element paths
        // only if we treat "no elements" as a miss — pin that behavior:
        // pointer returns None (no first element), so required keys FAIL
        // on empty arrays. Campaign reports must be non-empty.
        let v = parse(r#"{"xs": []}"#).unwrap();
        assert!(v.pointer("xs/*/k").is_none());
    }
}
