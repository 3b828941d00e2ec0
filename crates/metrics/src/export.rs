//! Machine-readable exporters: a dependency-free JSON tree, a Chrome
//! trace-event writer, and histogram/link-matrix serializers.
//!
//! The workspace carries no external crates, so JSON is hand-rolled: a
//! small [`JsonValue`] tree with an escaping writer for reports, and a
//! recursive-descent [`parse`] that reads every artifact back without a
//! serde dependency.
//!
//! The Chrome exporter targets the [trace-event format] consumed by
//! `chrome://tracing` and Perfetto: one thread track per rank carrying
//! `B`/`E` "working" phases from the activity trace, async `b`/`e`
//! pairs per steal attempt keyed by trace ID, and `i` instants for
//! protocol recovery events (timeouts, retransmits, token
//! regenerations). It is the largest document by far, so it skips the
//! tree: [`ChromeTrace`] holds one small record per event and writes
//! the JSON text directly.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::critpath::{Component, CriticalPath};
use crate::histogram::{Histogram, LatencyHistograms};
use crate::span::{SpanKind, SpanTrace};
use crate::trace::ActivityTrace;
use std::fmt;

/// A JSON document tree. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a member of an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_num().filter(|n| *n >= 0.0).map(|n| n as u64)
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

/// Write `s` as a JSON string. Runs of characters that need no escape
/// go out in one `write_str`; every escaped byte is ASCII, so a run
/// never ends inside a multi-byte character.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "",
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        if esc.is_empty() {
            write!(f, "\\u{b:04x}")?;
        } else {
            f.write_str(esc)?;
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(n) if n.is_finite() => write!(f, "{n}"),
            JsonValue::Num(_) => f.write_str("null"),
            JsonValue::Str(s) => write_escaped(f, s),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Far above any
/// document this workspace writes (reports nest a handful of levels);
/// it bounds the parser's recursion so a hostile file cannot overflow
/// the stack.
pub const MAX_NESTING: usize = 128;

/// Parse a JSON document. Returns the root value or a positioned error;
/// nesting deeper than [`MAX_NESTING`] is an error.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        b: input.as_bytes(),
        i: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.i))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("expected '{lit}' at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at offset {}", c as char, self.i)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_NESTING {
            return Err(format!(
                "nesting deeper than {MAX_NESTING} at offset {}",
                self.i
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number '{text}' at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.i += 1;
                            let cp = self.hex4()?;
                            // Decode a surrogate pair if one follows;
                            // otherwise accept the BMP code point.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if self.b[self.i..].starts_with(b"\\u") {
                                    self.i += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xd800) << 10)
                                        + (lo.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("bad unicode escape near offset {}", self.i)
                            })?);
                            continue;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote or
                    // backslash in one go. Both are ASCII, so they never
                    // fall inside a multi-byte character: the run of the
                    // `&str` input is itself valid UTF-8.
                    let start = self.i;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.i += 1;
                    }
                    let run =
                        std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.i + 4 > self.b.len() {
            return Err("truncated \\u escape".to_string());
        }
        let text = std::str::from_utf8(&self.b[self.i..self.i + 4]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(text, 16)
            .map_err(|_| format!("bad \\u escape at offset {}", self.i))?;
        self.i += 4;
        Ok(v)
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }
}

/// Serialize one histogram: summary statistics plus non-empty buckets.
pub fn histogram_json(h: &Histogram) -> JsonValue {
    JsonValue::obj(vec![
        ("count", h.count().into()),
        ("sum", JsonValue::Num(h.sum() as f64)),
        ("min", h.min().into()),
        ("max", h.max().into()),
        ("mean", h.mean().into()),
        ("p50", h.p50().into()),
        ("p90", h.p90().into()),
        ("p95", h.p95().into()),
        ("p99", h.p99().into()),
        (
            "buckets",
            JsonValue::Arr(
                h.buckets()
                    .into_iter()
                    .map(|(lo, hi, c)| JsonValue::Arr(vec![lo.into(), hi.into(), c.into()]))
                    .collect(),
            ),
        ),
    ])
}

/// Serialize the full set of run histograms, keyed by metric name.
pub fn histograms_json(h: &LatencyHistograms) -> JsonValue {
    JsonValue::Obj(
        h.named()
            .iter()
            .map(|(name, hist)| (name.to_string(), histogram_json(hist)))
            .collect(),
    )
}

/// Serialize a per-link load matrix: `links` maps a printable link
/// label (e.g. `"(1,0,0,0,0,0)+x"`) to traffic units routed over it.
pub fn link_matrix_json(links: &[(String, u64)], hotspot_factor: f64) -> JsonValue {
    let total: u64 = links.iter().map(|(_, u)| u).sum();
    JsonValue::obj(vec![
        ("links_used", links.len().into()),
        ("total_link_units", total.into()),
        ("hotspot_factor", hotspot_factor.into()),
        (
            "links",
            JsonValue::Arr(
                links
                    .iter()
                    .map(|(label, units)| {
                        JsonValue::obj(vec![
                            ("link", label.as_str().into()),
                            ("units", (*units).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Predicate selecting one span kind.
type KindPred = fn(&SpanKind) -> bool;

/// Span counts per kind — the machine-readable reconciliation surface.
pub fn span_counts_json(spans: &SpanTrace) -> JsonValue {
    let kinds: [(&str, KindPred); 15] = [
        ("steal_request_sent", |k| {
            matches!(k, SpanKind::StealRequestSent { .. })
        }),
        ("steal_request_recv", |k| {
            matches!(k, SpanKind::StealRequestRecv { .. })
        }),
        ("steal_reply_sent", |k| {
            matches!(k, SpanKind::StealReplySent { .. })
        }),
        ("steal_serviced", |k| {
            matches!(k, SpanKind::StealServiced { .. })
        }),
        ("steal_ok", |k| matches!(k, SpanKind::StealOk { .. })),
        ("steal_empty", |k| matches!(k, SpanKind::StealEmpty { .. })),
        ("steal_timeout", |k| {
            matches!(k, SpanKind::StealTimeout { .. })
        }),
        ("steal_abandoned", |k| {
            matches!(k, SpanKind::StealAbandoned { .. })
        }),
        ("transfer_acked", |k| {
            matches!(k, SpanKind::TransferAcked { .. })
        }),
        ("retransmit", |k| matches!(k, SpanKind::Retransmit { .. })),
        ("token_hop", |k| matches!(k, SpanKind::TokenHop { .. })),
        ("token_regenerated", |k| {
            matches!(k, SpanKind::TokenRegenerated { .. })
        }),
        ("quarantined", |k| matches!(k, SpanKind::Quarantined { .. })),
        ("session_end", |k| matches!(k, SpanKind::SessionEnd { .. })),
        ("done", |k| matches!(k, SpanKind::Done)),
    ];
    JsonValue::Obj(
        kinds
            .iter()
            .map(|(name, pred)| (name.to_string(), spans.count(pred).into()))
            .collect(),
    )
}

/// Microseconds for a Chrome trace `ts`/`dur` field.
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// What one Chrome event says besides its timestamp, track and trace
/// ID: enough to write its name, category, phase and extra members.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// `M` metadata naming a rank's track "rank N".
    RankName,
    /// `M` metadata naming the critical-path track.
    CritpathName,
    /// `B` (true) or `E` (false) of a "working" phase.
    Working(bool),
    /// Async `b` opening a steal attempt.
    StealBegin { victim: usize },
    /// Async `e` closing a steal attempt that brought `nodes` tree
    /// nodes.
    StealOk { nodes: u64 },
    /// Async `e` closing a steal attempt with any other outcome.
    StealEnd(&'static str),
    /// Flow step `s`/`t`/`f` on the steal chain keyed by the trace ID,
    /// so Perfetto draws arrows request → service → reply → outcome.
    StealFlow(char),
    /// Async `n` at the victim's request receipt or reply.
    Service,
    /// Async `n` with the victim's service accounting.
    Serviced { queue_ns: u64, depart_delay_ns: u64 },
    /// `i` instant of protocol recovery.
    Recovery(&'static str),
    /// `i` instant of a victim put under probation.
    Quarantined { victim: usize },
    /// `X` slice of one critical-path segment.
    CritSlice {
        component: Component,
        rank: u32,
        dur_ns: u64,
    },
    /// Flow step `s`/`f` of the critical path's `hop`-th rank change.
    CritFlow { ph: char, hop: usize },
}

/// One event of a [`ChromeTrace`]: a small `Copy` record, rendered to
/// JSON text only when the trace is written.
#[derive(Debug, Clone, Copy)]
struct Record {
    ts_ns: u64,
    tid: usize,
    trace: u64,
    ev: Ev,
}

impl Record {
    /// Write the event object. Every number prints through `f64`
    /// `Display`, as [`JsonValue::Num`] does, so the text is the same
    /// as a `JsonValue` rendering for any value; every name is a fixed
    /// ASCII label that needs no escaping.
    fn write(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, cat, ph) = match self.ev {
            Ev::RankName | Ev::CritpathName => ("thread_name", "__metadata", 'M'),
            Ev::Working(begin) => ("working", "activity", if begin { 'B' } else { 'E' }),
            Ev::StealBegin { .. } => ("steal", "steal", 'b'),
            Ev::StealOk { .. } | Ev::StealEnd(_) => ("steal", "steal", 'e'),
            Ev::StealFlow(ph) => ("steal chain", "steal-flow", ph),
            Ev::Service => ("service", "steal", 'n'),
            Ev::Serviced { .. } => ("serviced", "steal", 'n'),
            Ev::Recovery(name) => (name, "recovery", 'i'),
            Ev::Quarantined { .. } => ("quarantined", "recovery", 'i'),
            Ev::CritSlice { component, .. } => (component.label(), "critpath", 'X'),
            Ev::CritFlow { ph, .. } => ("critical path", "critpath-flow", ph),
        };
        write!(
            f,
            r#"{{"name":"{name}","cat":"{cat}","ph":"{ph}","ts":{},"pid":0,"tid":{}"#,
            us(self.ts_ns),
            self.tid as f64
        )?;
        // Chrome matches async b/e events on (cat, id); a hex string id
        // sidesteps f64 precision limits on wide trace IDs.
        let id = self.trace;
        match self.ev {
            Ev::RankName => write!(f, r#","args":{{"name":"rank {}"}}"#, self.tid)?,
            Ev::CritpathName => f.write_str(r#","args":{"name":"critical path"}"#)?,
            Ev::Working(_) => {}
            Ev::StealBegin { victim } => {
                write!(f, r#","id":"{id:x}","args":{{"victim":{}}}"#, victim as f64)?
            }
            Ev::StealOk { nodes } => write!(
                f,
                r#","id":"{id:x}","args":{{"outcome":"ok","nodes":{}}}"#,
                nodes as f64
            )?,
            Ev::StealEnd(outcome) => {
                write!(f, r#","id":"{id:x}","args":{{"outcome":"{outcome}"}}"#)?
            }
            Ev::StealFlow(_) | Ev::Service => write!(f, r#","id":"{id:x}""#)?,
            Ev::Serviced {
                queue_ns,
                depart_delay_ns,
            } => write!(
                f,
                r#","id":"{id:x}","args":{{"queue_ns":{},"depart_delay_ns":{}}}"#,
                queue_ns as f64, depart_delay_ns as f64
            )?,
            Ev::Recovery(_) => f.write_str(r#","s":"t""#)?,
            Ev::Quarantined { victim } => {
                write!(f, r#","s":"t","args":{{"victim":{}}}"#, victim as f64)?
            }
            Ev::CritSlice { rank, dur_ns, .. } => write!(
                f,
                r#","dur":{},"args":{{"rank":{}}}"#,
                us(dur_ns),
                rank as f64
            )?,
            Ev::CritFlow { hop, .. } => write!(f, r#","id":"cp{hop}""#)?,
        }
        if matches!(self.ev, Ev::StealFlow('f') | Ev::CritFlow { ph: 'f', .. }) {
            // Bind the arrowhead to the enclosing slice rather than the
            // next one on the track.
            f.write_str(r#","bp":"e""#)?;
        }
        f.write_str("}")
    }
}

/// A run as Chrome trace-event JSON, loadable in `chrome://tracing` or
/// Perfetto: compact per-event records, stable-sorted by timestamp,
/// written as JSON text by its `Display` (`to_string`, or `write!`
/// straight to a file).
#[derive(Debug)]
pub struct ChromeTrace {
    records: Vec<Record>,
}

impl fmt::Display for ChromeTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(r#"{"traceEvents":["#)?;
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            r.write(f)?;
        }
        f.write_str(r#"],"displayTimeUnit":"ns"}"#)
    }
}

/// Export a run as Chrome trace-event JSON.
///
/// One thread track per rank: `B`/`E` "working" phases come from the
/// (skew-corrected) `activity` trace, with any phase still open at
/// `makespan_ns` closed there; steal attempts appear as async `b`/`e`
/// pairs matched on the attempt's trace ID (attempts left open by a
/// crash close at `makespan_ns` with outcome `"unresolved"`); protocol
/// recovery shows up as `i` instants.
pub fn chrome_trace(
    spans: &SpanTrace,
    activity: Option<&ActivityTrace>,
    makespan_ns: u64,
) -> ChromeTrace {
    chrome_trace_with_critpath(spans, activity, makespan_ns, None)
}

/// [`chrome_trace`] with the run's critical path overlaid: a dedicated
/// "critical path" track of `X` slices (one per attributed segment)
/// plus flow arrows hopping rank tracks wherever the path changes
/// rank, so the chain that bounds the makespan is visually traceable.
pub fn chrome_trace_with_critpath(
    spans: &SpanTrace,
    activity: Option<&ActivityTrace>,
    makespan_ns: u64,
    critpath: Option<&CriticalPath>,
) -> ChromeTrace {
    let n_ranks = activity
        .map(|a| a.n_ranks() as usize)
        .unwrap_or(0)
        .max(spans.n_ranks());
    let mut records = Vec::with_capacity(n_ranks + 2 * spans.records().len());
    let mut push = |ts_ns, tid, trace, ev| {
        records.push(Record {
            ts_ns,
            tid,
            trace,
            ev,
        })
    };

    // Track-naming metadata so the viewer shows "rank N", not "tid N".
    for rank in 0..n_ranks {
        push(0, rank, 0, Ev::RankName);
    }

    // Working phases from the activity trace.
    if let Some(trace) = activity {
        let mut open: Vec<bool> = vec![false; trace.n_ranks() as usize];
        for t in trace.sorted().iter() {
            let rank = t.rank as usize;
            if t.active != open[rank] {
                push(t.at_ns, rank, 0, Ev::Working(t.active));
                open[rank] = t.active;
            }
        }
        for (rank, _) in open.iter().enumerate().filter(|(_, is_open)| **is_open) {
            push(makespan_ns, rank, 0, Ev::Working(false));
        }
    }

    // Steal attempts as async pairs; recovery machinery as instants.
    let mut open_attempts: Vec<(usize, u64)> = Vec::new();
    for r in spans.records() {
        let mut push = |ev| push(r.at_ns, r.rank, r.trace, ev);
        let end = match r.kind {
            SpanKind::StealRequestSent { victim } => {
                open_attempts.push((r.rank, r.trace));
                push(Ev::StealBegin { victim });
                push(Ev::StealFlow('s'));
                continue;
            }
            SpanKind::StealOk { nodes, .. } => Ev::StealOk { nodes },
            SpanKind::StealEmpty { .. } => Ev::StealEnd("empty"),
            SpanKind::StealTimeout { .. } => Ev::StealEnd("timeout"),
            SpanKind::StealAbandoned { .. } => Ev::StealEnd("abandoned"),
            SpanKind::StealRequestRecv { .. } | SpanKind::StealReplySent { .. } => {
                push(Ev::Service);
                push(Ev::StealFlow('t'));
                continue;
            }
            SpanKind::StealServiced {
                queue_ns,
                depart_delay_ns,
                ..
            } => {
                push(Ev::Serviced {
                    queue_ns,
                    depart_delay_ns,
                });
                continue;
            }
            SpanKind::Quarantined { victim } => {
                push(Ev::Quarantined { victim });
                continue;
            }
            SpanKind::Retransmit { .. } => {
                push(Ev::Recovery("retransmit"));
                continue;
            }
            SpanKind::TokenRegenerated { .. } => {
                push(Ev::Recovery("token regenerated"));
                continue;
            }
            SpanKind::TransferAcked { .. }
            | SpanKind::TokenHop { .. }
            | SpanKind::SessionEnd { .. }
            | SpanKind::Done => continue,
        };
        // The attempt resolved: close its async pair and flow.
        open_attempts.retain(|&(rk, tr)| !(rk == r.rank && tr == r.trace));
        push(end);
        push(Ev::StealFlow('f'));
        if let SpanKind::StealTimeout { .. } = r.kind {
            push(Ev::Recovery("steal timeout"));
        }
    }
    // Attempts a crash left open: close them so every b has an e.
    for (rank, trace) in open_attempts {
        push(makespan_ns, rank, trace, Ev::StealEnd("unresolved"));
    }

    // The critical path as its own track: one `X` slice per attributed
    // segment, plus flow arrows hopping between rank tracks wherever
    // the path changes rank.
    if let Some(cp) = critpath {
        let cp_tid = n_ranks;
        push(0, cp_tid, 0, Ev::CritpathName);
        let segs = cp.segments();
        for (hop, seg) in segs.iter().enumerate() {
            push(
                seg.from_ns,
                cp_tid,
                0,
                Ev::CritSlice {
                    component: seg.component,
                    rank: seg.rank,
                    dur_ns: seg.dur_ns(),
                },
            );
            if let Some(next) = segs.get(hop + 1).filter(|next| next.rank != seg.rank) {
                let flow = |ph| Ev::CritFlow { ph, hop };
                push(seg.to_ns, seg.rank as usize, 0, flow('s'));
                push(next.from_ns, next.rank as usize, 0, flow('f'));
            }
        }
    }

    records.sort_by_key(|r| r.ts_ns);
    ChromeTrace { records }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{trace_id, SpanRecord};

    #[test]
    fn json_roundtrip() {
        let doc = JsonValue::obj(vec![
            ("name", "he said \"hi\"\n".into()),
            ("n", JsonValue::Num(42.5)),
            ("neg", JsonValue::Num(-3.0)),
            ("flag", true.into()),
            ("nothing", JsonValue::Null),
            (
                "arr",
                JsonValue::Arr(vec![1u64.into(), "two".into(), JsonValue::Arr(vec![])]),
            ),
            ("empty_obj", JsonValue::Obj(vec![])),
            ("mixed", "\"q\" \\ \u{1}é€😀\r\t\u{1f}end".into()),
            ("k\"\\\u{1}😀", "".into()),
        ]);
        let text = doc.to_string();
        assert!(text.contains(r#""mixed":"\"q\" \\ \u0001é€😀\r\t\u001fend""#));
        assert!(text.contains(r#""k\"\\\u0001😀":"""#));
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("n").unwrap().as_num(), Some(42.5));
        assert_eq!(back.get("name").unwrap().as_str(), Some("he said \"hi\"\n"));
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , 2.5e1 , \"\\u0041\\t\" ] } ").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_num(), Some(25.0));
        assert_eq!(arr[2].as_str(), Some("A\t"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("nope").is_err());
    }

    #[test]
    fn parse_decodes_surrogate_pairs() {
        let v = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn histogram_json_totals_match() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let j = histogram_json(&h);
        assert_eq!(j.get("count").unwrap().as_u64(), Some(4));
        let buckets = j.get("buckets").unwrap().as_arr().unwrap();
        let total: u64 = buckets
            .iter()
            .map(|b| b.as_arr().unwrap()[2].as_u64().unwrap())
            .sum();
        assert_eq!(total, 4);
        // And it survives a writer→parser round trip.
        parse(&j.to_string()).unwrap();
    }

    fn sample_spans() -> SpanTrace {
        let id = trace_id(0, 0);
        SpanTrace::from_per_rank(vec![
            vec![
                SpanRecord {
                    at_ns: 100,
                    rank: 0,
                    trace: id,
                    kind: SpanKind::StealRequestSent { victim: 1 },
                },
                SpanRecord {
                    at_ns: 900,
                    rank: 0,
                    trace: id,
                    kind: SpanKind::StealOk {
                        victim: 1,
                        rtt_ns: 800,
                        nodes: 4,
                    },
                },
            ],
            vec![SpanRecord {
                at_ns: 500,
                rank: 1,
                trace: id,
                kind: SpanKind::StealRequestRecv { thief: 0 },
            }],
        ])
    }

    /// Three ranks reaching every event-emitting arm of the Chrome
    /// writer: every span kind (including the ones it skips), a steal
    /// attempt still open at the makespan, a rank still working at the
    /// makespan, and a critical path that hops from rank 0 to rank 1.
    fn golden_run() -> (SpanTrace, ActivityTrace, u64) {
        let rec = |at_ns, rank, trace, kind| SpanRecord {
            at_ns,
            rank,
            trace,
            kind,
        };
        let (id0, id1) = (trace_id(1, 0), trace_id(1, 1));
        let (id2, id3, id4) = (trace_id(2, 0xabc), trace_id(2, 0xabd), trace_id(2, 0xabe));
        let r0 = vec![
            rec(400, 0, id1, SpanKind::StealRequestRecv { thief: 1 }),
            rec(
                700,
                0,
                id1,
                SpanKind::StealServiced {
                    thief: 1,
                    queue_ns: 300,
                    depart_delay_ns: 100,
                },
            ),
            rec(
                700,
                0,
                id1,
                SpanKind::StealReplySent {
                    thief: 1,
                    nodes: 40,
                },
            ),
            rec(1100, 0, 0, SpanKind::TransferAcked { thief: 1, xfer: 7 }),
            rec(
                1200,
                0,
                0,
                SpanKind::TokenHop {
                    to: 1,
                    generation: 2,
                },
            ),
            rec(1333, 0, 0, SpanKind::TokenRegenerated { generation: 3 }),
        ];
        let r1 = vec![
            rec(0, 1, id0, SpanKind::StealRequestSent { victim: 0 }),
            rec(
                200,
                1,
                id0,
                SpanKind::StealEmpty {
                    victim: 0,
                    rtt_ns: 200,
                },
            ),
            rec(300, 1, id1, SpanKind::StealRequestSent { victim: 0 }),
            rec(
                900,
                1,
                id1,
                SpanKind::StealOk {
                    victim: 0,
                    rtt_ns: 600,
                    nodes: 40,
                },
            ),
            rec(
                955,
                1,
                0,
                SpanKind::Retransmit {
                    to: 0,
                    xfer: 7,
                    attempt: 1,
                },
            ),
            rec(1000, 1, 0, SpanKind::SessionEnd { dur_ns: 700 }),
        ];
        let r2 = vec![
            rec(100, 2, id2, SpanKind::StealRequestSent { victim: 0 }),
            rec(
                600,
                2,
                id2,
                SpanKind::StealTimeout {
                    victim: 0,
                    backoff_doublings: 1,
                },
            ),
            rec(600, 2, 0, SpanKind::Quarantined { victim: 0 }),
            rec(650, 2, id3, SpanKind::StealRequestSent { victim: 1 }),
            rec(1250, 2, id3, SpanKind::StealAbandoned { victim: 1 }),
            rec(1400, 2, id4, SpanKind::StealRequestSent { victim: 1 }),
            rec(1500, 2, 0, SpanKind::Done),
        ];
        let spans = SpanTrace::from_per_rank(vec![r0, r1, r2]);
        let mut act = ActivityTrace::new(3);
        act.record(0, 0, true);
        act.record(0, 1000, false);
        act.record(1, 900, true);
        act.record(2, 1500, false);
        (spans, act, 2000)
    }

    /// The exact bytes of [`golden_run`]'s trace, critical path
    /// included, as recorded from the JSON-tree writer this one
    /// replaced.
    const GOLDEN: &str = concat!(
        r#"{"traceEvents":["#,
        r#"{"name":"thread_name","cat":"__metadata","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"rank 0"}},"#,
        r#"{"name":"thread_name","cat":"__metadata","ph":"M","ts":0,"pid":0,"tid":1,"args":{"name":"rank 1"}},"#,
        r#"{"name":"thread_name","cat":"__metadata","ph":"M","ts":0,"pid":0,"tid":2,"args":{"name":"rank 2"}},"#,
        r#"{"name":"working","cat":"activity","ph":"B","ts":0,"pid":0,"tid":0},"#,
        r#"{"name":"steal","cat":"steal","ph":"b","ts":0,"pid":0,"tid":1,"id":"10000000000","args":{"victim":0}},"#,
        r#"{"name":"steal chain","cat":"steal-flow","ph":"s","ts":0,"pid":0,"tid":1,"id":"10000000000"},"#,
        r#"{"name":"thread_name","cat":"__metadata","ph":"M","ts":0,"pid":0,"tid":3,"args":{"name":"critical path"}},"#,
        r#"{"name":"compute","cat":"critpath","ph":"X","ts":0,"pid":0,"tid":3,"dur":0.4,"args":{"rank":0}},"#,
        r#"{"name":"steal","cat":"steal","ph":"b","ts":0.1,"pid":0,"tid":2,"id":"20000000abc","args":{"victim":0}},"#,
        r#"{"name":"steal chain","cat":"steal-flow","ph":"s","ts":0.1,"pid":0,"tid":2,"id":"20000000abc"},"#,
        r#"{"name":"steal","cat":"steal","ph":"e","ts":0.2,"pid":0,"tid":1,"id":"10000000000","args":{"outcome":"empty"}},"#,
        r#"{"name":"steal chain","cat":"steal-flow","ph":"f","ts":0.2,"pid":0,"tid":1,"id":"10000000000","bp":"e"},"#,
        r#"{"name":"steal","cat":"steal","ph":"b","ts":0.3,"pid":0,"tid":1,"id":"10000000001","args":{"victim":0}},"#,
        r#"{"name":"steal chain","cat":"steal-flow","ph":"s","ts":0.3,"pid":0,"tid":1,"id":"10000000001"},"#,
        r#"{"name":"service","cat":"steal","ph":"n","ts":0.4,"pid":0,"tid":0,"id":"10000000001"},"#,
        r#"{"name":"steal chain","cat":"steal-flow","ph":"t","ts":0.4,"pid":0,"tid":0,"id":"10000000001"},"#,
        r#"{"name":"queue at victim","cat":"critpath","ph":"X","ts":0.4,"pid":0,"tid":3,"dur":0.4,"args":{"rank":0}},"#,
        r#"{"name":"steal","cat":"steal","ph":"e","ts":0.6,"pid":0,"tid":2,"id":"20000000abc","args":{"outcome":"timeout"}},"#,
        r#"{"name":"steal chain","cat":"steal-flow","ph":"f","ts":0.6,"pid":0,"tid":2,"id":"20000000abc","bp":"e"},"#,
        r#"{"name":"steal timeout","cat":"recovery","ph":"i","ts":0.6,"pid":0,"tid":2,"s":"t"},"#,
        r#"{"name":"quarantined","cat":"recovery","ph":"i","ts":0.6,"pid":0,"tid":2,"s":"t","args":{"victim":0}},"#,
        r#"{"name":"steal","cat":"steal","ph":"b","ts":0.65,"pid":0,"tid":2,"id":"20000000abd","args":{"victim":1}},"#,
        r#"{"name":"steal chain","cat":"steal-flow","ph":"s","ts":0.65,"pid":0,"tid":2,"id":"20000000abd"},"#,
        r#"{"name":"serviced","cat":"steal","ph":"n","ts":0.7,"pid":0,"tid":0,"id":"10000000001","args":{"queue_ns":300,"depart_delay_ns":100}},"#,
        r#"{"name":"service","cat":"steal","ph":"n","ts":0.7,"pid":0,"tid":0,"id":"10000000001"},"#,
        r#"{"name":"steal chain","cat":"steal-flow","ph":"t","ts":0.7,"pid":0,"tid":0,"id":"10000000001"},"#,
        r#"{"name":"critical path","cat":"critpath-flow","ph":"s","ts":0.8,"pid":0,"tid":0,"id":"cp1"},"#,
        r#"{"name":"critical path","cat":"critpath-flow","ph":"f","ts":0.8,"pid":0,"tid":1,"id":"cp1","bp":"e"},"#,
        r#"{"name":"reply travel","cat":"critpath","ph":"X","ts":0.8,"pid":0,"tid":3,"dur":0.1,"args":{"rank":1}},"#,
        r#"{"name":"working","cat":"activity","ph":"B","ts":0.9,"pid":0,"tid":1},"#,
        r#"{"name":"steal","cat":"steal","ph":"e","ts":0.9,"pid":0,"tid":1,"id":"10000000001","args":{"outcome":"ok","nodes":40}},"#,
        r#"{"name":"steal chain","cat":"steal-flow","ph":"f","ts":0.9,"pid":0,"tid":1,"id":"10000000001","bp":"e"},"#,
        r#"{"name":"compute","cat":"critpath","ph":"X","ts":0.9,"pid":0,"tid":3,"dur":1.1,"args":{"rank":1}},"#,
        r#"{"name":"retransmit","cat":"recovery","ph":"i","ts":0.955,"pid":0,"tid":1,"s":"t"},"#,
        r#"{"name":"working","cat":"activity","ph":"E","ts":1,"pid":0,"tid":0},"#,
        r#"{"name":"steal","cat":"steal","ph":"e","ts":1.25,"pid":0,"tid":2,"id":"20000000abd","args":{"outcome":"abandoned"}},"#,
        r#"{"name":"steal chain","cat":"steal-flow","ph":"f","ts":1.25,"pid":0,"tid":2,"id":"20000000abd","bp":"e"},"#,
        r#"{"name":"token regenerated","cat":"recovery","ph":"i","ts":1.333,"pid":0,"tid":0,"s":"t"},"#,
        r#"{"name":"steal","cat":"steal","ph":"b","ts":1.4,"pid":0,"tid":2,"id":"20000000abe","args":{"victim":1}},"#,
        r#"{"name":"steal chain","cat":"steal-flow","ph":"s","ts":1.4,"pid":0,"tid":2,"id":"20000000abe"},"#,
        r#"{"name":"working","cat":"activity","ph":"E","ts":2,"pid":0,"tid":1},"#,
        r#"{"name":"steal","cat":"steal","ph":"e","ts":2,"pid":0,"tid":2,"id":"20000000abe","args":{"outcome":"unresolved"}}"#,
        r#"],"displayTimeUnit":"ns"}"#,
    );

    #[test]
    fn chrome_trace_matches_golden_bytes() {
        let (spans, act, makespan) = golden_run();
        let cp = CriticalPath::extract(&spans, &act, makespan);
        cp.check().unwrap();
        let doc = chrome_trace_with_critpath(&spans, Some(&act), makespan, Some(&cp));
        assert_eq!(doc.to_string(), GOLDEN);
        parse(GOLDEN).unwrap();
    }

    #[test]
    fn chrome_trace_pairs_async_events() {
        let mut activity = ActivityTrace::new(2);
        activity.record(0, 0, true);
        activity.record(1, 200, true);
        activity.record(0, 1000, false);
        // rank 1 still active at makespan: must be closed by exporter.
        let doc = chrome_trace(&sample_spans(), Some(&activity), 1500);
        let text = doc.to_string();
        let parsed = parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let count_ph = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
                .count()
        };
        assert_eq!(count_ph("B"), 2);
        assert_eq!(count_ph("E"), 2);
        assert_eq!(count_ph("b"), 1);
        assert_eq!(count_ph("e"), 1);
        assert_eq!(count_ph("n"), 1);
        assert_eq!(count_ph("M"), 2);
    }

    #[test]
    fn chrome_trace_closes_attempts_left_open() {
        let spans = SpanTrace::from_per_rank(vec![vec![SpanRecord {
            at_ns: 100,
            rank: 0,
            trace: trace_id(0, 0),
            kind: SpanKind::StealRequestSent { victim: 1 },
        }]]);
        let parsed = parse(&chrome_trace(&spans, None, 1000).to_string()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let closes: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("e"))
            .collect();
        assert_eq!(closes.len(), 1);
        assert_eq!(
            closes[0]
                .get("args")
                .and_then(|a| a.get("outcome"))
                .and_then(|o| o.as_str()),
            Some("unresolved")
        );
    }

    #[test]
    fn link_matrix_reports_totals() {
        let links = vec![
            ("(0,0,0,0,0,0)+x".to_string(), 7u64),
            ("(1,0,0,0,0,0)+y".to_string(), 3),
        ];
        let j = link_matrix_json(&links, 2.1);
        assert_eq!(j.get("links_used").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("total_link_units").unwrap().as_u64(), Some(10));
        parse(&j.to_string()).unwrap();
    }

    #[test]
    fn span_counts_cover_every_kind_recorded() {
        let j = span_counts_json(&sample_spans());
        assert_eq!(j.get("steal_request_sent").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("steal_ok").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("steal_request_recv").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("steal_empty").unwrap().as_u64(), Some(0));
    }
}
