//! Minimal hand-rolled JSON for `--json` output, the lifecycle and
//! timeline JSONL exports, reports and the benchmark driver (no external
//! serialization crates are available offline). Only [`result_to_json`]
//! renders a `RunResult`; nothing reads one back (the result cache stores
//! snapshot frames).
//!
//! Numbers are kept as their source text so `u64` counters round-trip
//! without passing through `f64`.

use bfetch_core::EngineStats;
use bfetch_mem::MemStats;
use bfetch_sim::{CpiComponent, CpiStack, RunResult, TimelineSample};
use bfetch_stats::trace::{TraceEvent, TraceKind};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// The number's source text (written verbatim; parsed on demand).
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn u64_of(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    pub fn f64_of(v: f64) -> Json {
        Json::Num(format!("{v}"))
    }

    /// `v` with `digits` digits after the point, as `{:.digits$}` prints it.
    pub fn fixed(v: f64, digits: usize) -> Json {
        Json::Num(format!("{v:.digits$}"))
    }

    /// An object with `fields` in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }
}

/// Serializes without insignificant whitespace (via `ToString`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Json> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'n' => parse_lit(b, pos, "null", Json::Null),
        b't' => parse_lit(b, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Json::Bool(false)),
        b'"' => parse_string(b, pos).map(Json::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Json::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return None;
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Json::Obj(fields));
                    }
                    _ => return None,
                }
            }
        }
        b'-' | b'0'..=b'9' => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).ok()?;
            text.parse::<f64>().ok()?; // validate
            Some(Json::Num(text.to_string()))
        }
        _ => None,
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Option<Json> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(v)
    } else {
        None
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    if b.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).ok();
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0c),
                    b'u' => {
                        let hex = b.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        let c = char::from_u32(code)?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            c => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

// --- RunResult rendering (`--json`) -------------------------------------

fn mem_to_json(m: &MemStats) -> Json {
    Json::Obj(vec![
        ("loads".into(), Json::u64_of(m.loads)),
        ("stores".into(), Json::u64_of(m.stores)),
        ("inst_fetches".into(), Json::u64_of(m.inst_fetches)),
        ("l1i_misses".into(), Json::u64_of(m.l1i_misses)),
        ("l1d_hits".into(), Json::u64_of(m.l1d_hits)),
        ("l1d_misses".into(), Json::u64_of(m.l1d_misses)),
        ("mshr_merges".into(), Json::u64_of(m.mshr_merges)),
        ("l2_hits".into(), Json::u64_of(m.l2_hits)),
        ("l3_hits".into(), Json::u64_of(m.l3_hits)),
        ("dram_reqs".into(), Json::u64_of(m.dram_reqs)),
        ("prefetch_issued".into(), Json::u64_of(m.prefetch_issued)),
        (
            "prefetch_redundant".into(),
            Json::u64_of(m.prefetch_redundant),
        ),
        ("prefetch_useful".into(), Json::u64_of(m.prefetch_useful)),
        ("prefetch_useless".into(), Json::u64_of(m.prefetch_useless)),
        ("prefetch_late".into(), Json::u64_of(m.prefetch_late)),
        (
            "prefetch_mshr_drops".into(),
            Json::u64_of(m.prefetch_mshr_drops),
        ),
        ("writebacks".into(), Json::u64_of(m.writebacks)),
    ])
}

fn engine_to_json(e: &EngineStats) -> Json {
    Json::Obj(vec![
        ("lookaheads".into(), Json::u64_of(e.lookaheads)),
        ("branches_walked".into(), Json::u64_of(e.branches_walked)),
        ("confidence_stops".into(), Json::u64_of(e.confidence_stops)),
        ("brtc_stops".into(), Json::u64_of(e.brtc_stops)),
        ("depth_stops".into(), Json::u64_of(e.depth_stops)),
        ("candidates".into(), Json::u64_of(e.candidates)),
        ("filtered".into(), Json::u64_of(e.filtered)),
        ("queue_overflow".into(), Json::u64_of(e.queue_overflow)),
        ("dbr_dropped".into(), Json::u64_of(e.dbr_dropped)),
    ])
}

fn cpi_to_json(s: &CpiStack) -> Json {
    Json::Obj(vec![
        ("width".into(), Json::u64_of(s.width)),
        ("cycles".into(), Json::u64_of(s.cycles)),
        ("committed_slots".into(), Json::u64_of(s.committed_slots)),
        (
            "lost".into(),
            Json::Arr(s.lost.iter().map(|&v| Json::u64_of(v)).collect()),
        ),
    ])
}

/// Serializes one [`RunResult`].
pub fn result_to_json(r: &RunResult) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(r.workload.clone())),
        ("prefetcher".into(), Json::Str(r.prefetcher.to_string())),
        ("cycles".into(), Json::u64_of(r.cycles)),
        ("instructions".into(), Json::u64_of(r.instructions)),
        ("mem".into(), mem_to_json(&r.mem)),
        ("cond_branches".into(), Json::u64_of(r.cond_branches)),
        ("mispredicts".into(), Json::u64_of(r.mispredicts)),
        (
            "branch_fetch_hist".into(),
            Json::Arr(
                r.branch_fetch_hist
                    .iter()
                    .map(|&v| Json::u64_of(v))
                    .collect(),
            ),
        ),
        (
            "engine".into(),
            match &r.engine {
                Some(e) => engine_to_json(e),
                None => Json::Null,
            },
        ),
        (
            "cpi".into(),
            match &r.cpi {
                Some(s) => cpi_to_json(s),
                None => Json::Null,
            },
        ),
    ])
}

/// The JSONL delimiter that opens one run's records: its kernel and
/// prefetcher, and how many `records` (named by `count_key`) follow.
pub fn run_begin(kernel: &str, prefetcher: &str, count_key: &str, records: usize) -> Json {
    Json::obj([
        ("event", Json::Str("run_begin".into())),
        ("kernel", Json::Str(kernel.into())),
        ("prefetcher", Json::Str(prefetcher.into())),
        (count_key, Json::u64_of(records as u64)),
    ])
}

/// One lifecycle trace event, keys in the fixed order of the schema in
/// DESIGN.md ("Observability"): `event`, `cycle`, `core`, then the payload.
pub fn trace_event_to_json(e: &TraceEvent) -> Json {
    let u = Json::u64_of;
    let mut fields = vec![
        ("event", Json::Str(e.kind.name().into())),
        ("cycle", u(e.cycle)),
        ("core", u(e.core.into())),
    ];
    match e.kind {
        TraceKind::BranchPredicted {
            pc,
            taken,
            confidence,
        } => fields.extend([
            ("pc", u(pc)),
            ("taken", Json::Bool(taken)),
            ("confidence", Json::fixed(confidence, 4)),
        ]),
        TraceKind::BranchResolved {
            pc,
            taken,
            mispredicted,
        } => fields.extend([
            ("pc", u(pc)),
            ("taken", Json::Bool(taken)),
            ("mispredicted", Json::Bool(mispredicted)),
        ]),
        TraceKind::PrefetchIssued { line, pc_hash }
        | TraceKind::PrefetchFilled { line, pc_hash }
        | TraceKind::PrefetchEvictedUnused { line, pc_hash } => {
            fields.extend([("line", u(line)), ("pc_hash", u(pc_hash.into()))])
        }
        TraceKind::PrefetchDropped {
            line,
            pc_hash,
            reason,
        } => fields.extend([
            ("line", u(line)),
            ("pc_hash", u(pc_hash.into())),
            ("reason", Json::Str(reason.as_str().into())),
        ]),
        TraceKind::PrefetchMshrMerged {
            line,
            pc_hash,
            remaining_cycles,
        } => fields.extend([
            ("line", u(line)),
            ("pc_hash", u(pc_hash.into())),
            ("remaining_cycles", u(remaining_cycles)),
        ]),
        TraceKind::PrefetchFirstUse {
            line,
            pc_hash,
            lead_cycles,
        } => fields.extend([
            ("line", u(line)),
            ("pc_hash", u(pc_hash.into())),
            ("lead_cycles", u(lead_cycles)),
        ]),
        TraceKind::DemandMiss { line, level } => fields.extend([
            ("line", u(line)),
            ("level", Json::Str(level.as_str().into())),
        ]),
    }
    Json::obj(fields)
}

/// One CPI timeline sample, keys in the fixed order of the schema in
/// DESIGN.md ("Cycle accounting & timeline").
pub fn timeline_sample_to_json(s: &TimelineSample) -> Json {
    let u = Json::u64_of;
    let lost = CpiComponent::ALL
        .into_iter()
        .map(|c| (c.as_str(), u(s.lost[c as usize])));
    Json::obj([
        ("event", Json::Str("timeline_sample".into())),
        ("core", u(s.core.into())),
        ("index", u(s.index.into())),
        ("cycle", u(s.cycle)),
        ("instructions", u(s.instructions)),
        ("interval_cycles", u(s.interval_cycles)),
        ("interval_instructions", u(s.interval_instructions)),
        ("ipc", Json::fixed(s.ipc(), 4)),
        ("mpki", Json::fixed(s.mpki(), 3)),
        ("mispredicts", u(s.interval_mispredicts)),
        ("l1d_misses", u(s.interval_l1d_misses)),
        ("pf_accuracy", Json::fixed(s.pf_accuracy(), 4)),
        ("pf_coverage", Json::fixed(s.pf_coverage(), 4)),
        ("lost", Json::obj(lost)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_whitespace_and_escapes() {
        let j =
            Json::parse(" { \"a\\n\" : [ 1 , -2.5e1 , \"x\\u0041\" , null , true ] } ").unwrap();
        let arr = j.get("a\n").unwrap();
        match arr {
            Json::Arr(items) => {
                assert_eq!(items[0].as_u64(), Some(1));
                assert_eq!(items[1].as_f64(), Some(-25.0));
                assert_eq!(items[2].as_str(), Some("xA"));
                assert_eq!(items[3], Json::Null);
                assert_eq!(items[4], Json::Bool(true));
            }
            _ => panic!("expected array"),
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert_eq!(Json::parse(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn trace_events_have_stable_shape() {
        use bfetch_stats::trace::ServiceLevel;
        let line =
            |cycle, core, kind| trace_event_to_json(&TraceEvent { cycle, core, kind }).to_string();
        let first_use = TraceKind::PrefetchFirstUse {
            line: 0x1040,
            pc_hash: 513,
            lead_cycles: 18,
        };
        assert_eq!(
            line(120, 2, first_use),
            "{\"event\":\"prefetch_first_use\",\"cycle\":120,\"core\":2,\
             \"line\":4160,\"pc_hash\":513,\"lead_cycles\":18}"
        );
        assert_eq!(
            line(
                7,
                0,
                TraceKind::BranchPredicted {
                    pc: 64,
                    taken: true,
                    confidence: 0.875
                }
            ),
            "{\"event\":\"branch_predicted\",\"cycle\":7,\"core\":0,\
             \"pc\":64,\"taken\":true,\"confidence\":0.8750}"
        );
        assert_eq!(
            line(
                9,
                1,
                TraceKind::DemandMiss {
                    line: 128,
                    level: ServiceLevel::Dram
                }
            ),
            "{\"event\":\"demand_miss\",\"cycle\":9,\"core\":1,\"line\":128,\"level\":\"dram\"}"
        );
    }

    #[test]
    fn timeline_samples_have_stable_shape() {
        let mut lost = [0u64; CpiComponent::COUNT];
        lost[CpiComponent::MemDram as usize] = 300;
        let s = TimelineSample {
            core: 0,
            index: 2,
            cycle: 3_000,
            instructions: 6_000,
            interval_cycles: 1_000,
            interval_instructions: 2_000,
            interval_mispredicts: 10,
            interval_l1d_misses: 40,
            interval_pf_useful: 30,
            interval_pf_useless: 10,
            interval_pf_late: 20,
            lost,
        };
        let line = timeline_sample_to_json(&s).to_string();
        assert!(line.starts_with("{\"event\":\"timeline_sample\",\"core\":0,\"index\":2,"));
        assert!(line.contains("\"ipc\":2.0000,\"mpki\":20.000,"));
        assert!(line.contains("\"lost\":{\"base\":0,"));
        assert!(line.ends_with("\"mem_dram\":300,\"mem_dram_covered\":0}}"));
        assert_eq!(
            run_begin("mcf", "bfetch", "samples", 3).to_string(),
            "{\"event\":\"run_begin\",\"kernel\":\"mcf\",\"prefetcher\":\"bfetch\",\"samples\":3}"
        );
    }

    #[test]
    fn writer_escapes_strings() {
        let s = Json::Str("a\"b\\c\nd".into()).to_string();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("a\"b\\c\nd"));
    }
}
