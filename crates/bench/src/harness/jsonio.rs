//! Minimal hand-rolled JSON support for the result cache (no external
//! serialization crates are available offline).
//!
//! Numbers are kept as their source text so `u64` counters round-trip
//! without passing through `f64`.

use bfetch_core::EngineStats;
use bfetch_mem::MemStats;
use bfetch_sim::{CpiComponent, CpiStack, RunResult};

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
                        let code =
                            u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
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

// --- RunResult (de)serialization -----------------------------------------

/// Maps a prefetcher name from a cache file back to the `&'static str`
/// the simulator uses. The cache key contains the `PrefetcherKind`, so an
/// honest entry never carries another name: `None` fails the parse and the
/// entry is quarantined.
fn intern_prefetcher(name: &str) -> Option<&'static str> {
    const KNOWN: [&str; 7] = [
        "baseline", "next-n", "stride", "sms", "isb", "bfetch", "perfect",
    ];
    KNOWN.iter().find(|&&k| k == name).copied()
}

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

fn mem_from_json(j: &Json) -> Option<MemStats> {
    let f = |k: &str| j.get(k)?.as_u64();
    Some(MemStats {
        loads: f("loads")?,
        stores: f("stores")?,
        inst_fetches: f("inst_fetches")?,
        l1i_misses: f("l1i_misses")?,
        l1d_hits: f("l1d_hits")?,
        l1d_misses: f("l1d_misses")?,
        mshr_merges: f("mshr_merges")?,
        l2_hits: f("l2_hits")?,
        l3_hits: f("l3_hits")?,
        dram_reqs: f("dram_reqs")?,
        prefetch_issued: f("prefetch_issued")?,
        prefetch_redundant: f("prefetch_redundant")?,
        prefetch_useful: f("prefetch_useful")?,
        prefetch_useless: f("prefetch_useless")?,
        prefetch_late: f("prefetch_late")?,
        prefetch_mshr_drops: f("prefetch_mshr_drops")?,
        writebacks: f("writebacks")?,
    })
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

fn engine_from_json(j: &Json) -> Option<EngineStats> {
    let f = |k: &str| j.get(k)?.as_u64();
    Some(EngineStats {
        lookaheads: f("lookaheads")?,
        branches_walked: f("branches_walked")?,
        confidence_stops: f("confidence_stops")?,
        brtc_stops: f("brtc_stops")?,
        depth_stops: f("depth_stops")?,
        candidates: f("candidates")?,
        filtered: f("filtered")?,
        queue_overflow: f("queue_overflow")?,
        dbr_dropped: f("dbr_dropped")?,
    })
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

fn cpi_from_json(j: &Json) -> Option<CpiStack> {
    let lost_json = match j.get("lost")? {
        Json::Arr(items) if items.len() == CpiComponent::COUNT => items,
        _ => return None,
    };
    let mut lost = [0u64; CpiComponent::COUNT];
    for (slot, v) in lost.iter_mut().zip(lost_json.iter()) {
        *slot = v.as_u64()?;
    }
    Some(CpiStack {
        width: j.get("width")?.as_u64()?,
        cycles: j.get("cycles")?.as_u64()?,
        committed_slots: j.get("committed_slots")?.as_u64()?,
        lost,
    })
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
            Json::Arr(r.branch_fetch_hist.iter().map(|&v| Json::u64_of(v)).collect()),
        ),
        (
            "engine".into(),
            match &r.engine {
                Some(e) => engine_to_json(e),
                None => Json::Null,
            },
        ),
        ("pf_metadata_bytes".into(), Json::u64_of(r.pf_metadata_bytes)),
        (
            "cpi".into(),
            match &r.cpi {
                Some(s) => cpi_to_json(s),
                None => Json::Null,
            },
        ),
    ])
}

/// Reconstructs a [`RunResult`]; `None` on any structural mismatch.
pub fn result_from_json(j: &Json) -> Option<RunResult> {
    let hist_json = match j.get("branch_fetch_hist")? {
        Json::Arr(items) if items.len() == 5 => items,
        _ => return None,
    };
    let mut branch_fetch_hist = [0u64; 5];
    for (slot, v) in branch_fetch_hist.iter_mut().zip(hist_json.iter()) {
        *slot = v.as_u64()?;
    }
    let engine = match j.get("engine")? {
        Json::Null => None,
        e => Some(engine_from_json(e)?),
    };
    let cpi = match j.get("cpi")? {
        Json::Null => None,
        c => Some(cpi_from_json(c)?),
    };
    Some(RunResult {
        workload: j.get("workload")?.as_str()?.to_string(),
        prefetcher: intern_prefetcher(j.get("prefetcher")?.as_str()?)?,
        cycles: j.get("cycles")?.as_u64()?,
        instructions: j.get("instructions")?.as_u64()?,
        mem: mem_from_json(j.get("mem")?)?,
        cond_branches: j.get("cond_branches")?.as_u64()?,
        mispredicts: j.get("mispredicts")?.as_u64()?,
        branch_fetch_hist,
        engine,
        pf_metadata_bytes: j.get("pf_metadata_bytes")?.as_u64()?,
        cpi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> RunResult {
        RunResult {
            workload: "mcf".into(),
            prefetcher: "bfetch",
            cycles: 123_456,
            instructions: 300_000,
            mem: MemStats {
                loads: 1,
                stores: 2,
                inst_fetches: 3,
                l1i_misses: 4,
                l1d_hits: 5,
                l1d_misses: 6,
                mshr_merges: 7,
                l2_hits: 8,
                l3_hits: 9,
                dram_reqs: 10,
                prefetch_issued: 11,
                prefetch_redundant: 12,
                prefetch_useful: 13,
                prefetch_useless: 14,
                prefetch_late: 15,
                prefetch_mshr_drops: 16,
                writebacks: 17,
            },
            cond_branches: 42,
            mispredicts: 7,
            branch_fetch_hist: [100, 40, 8, 1, 0],
            engine: Some(EngineStats {
                lookaheads: 1,
                branches_walked: 2,
                confidence_stops: 3,
                brtc_stops: 4,
                depth_stops: 5,
                candidates: 6,
                filtered: 7,
                queue_overflow: 8,
                dbr_dropped: 9,
            }),
            pf_metadata_bytes: u64::MAX,
            cpi: Some(CpiStack {
                width: 4,
                cycles: 100,
                committed_slots: 250,
                lost: [10, 20, 15, 5, 5, 5, 30, 10, 20, 10, 15, 5],
            }),
        }
    }

    #[test]
    fn result_round_trips_exactly() {
        let r = sample_result();
        let text = result_to_json(&r).to_string();
        let back = result_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn u64_values_do_not_lose_precision() {
        // u64::MAX is not representable in f64; the Num-as-text scheme
        // must still round-trip it
        let r = sample_result();
        let back =
            result_from_json(&Json::parse(&result_to_json(&r).to_string()).unwrap()).unwrap();
        assert_eq!(back.pf_metadata_bytes, u64::MAX);
    }

    #[test]
    fn engine_none_round_trips() {
        let mut r = sample_result();
        r.engine = None;
        let back =
            result_from_json(&Json::parse(&result_to_json(&r).to_string()).unwrap()).unwrap();
        assert_eq!(back.engine, None);
    }

    #[test]
    fn cpi_none_round_trips() {
        let mut r = sample_result();
        r.cpi = None;
        let back =
            result_from_json(&Json::parse(&result_to_json(&r).to_string()).unwrap()).unwrap();
        assert_eq!(back.cpi, None);
    }

    #[test]
    fn missing_cpi_key_is_rejected() {
        let mut j = result_to_json(&sample_result());
        if let Json::Obj(fields) = &mut j {
            fields.retain(|(k, _)| k != "cpi");
        }
        assert_eq!(result_from_json(&j), None);
    }

    #[test]
    fn parser_handles_whitespace_and_escapes() {
        let j = Json::parse(" { \"a\\n\" : [ 1 , -2.5e1 , \"x\\u0041\" , null , true ] } ")
            .unwrap();
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
    fn writer_escapes_strings() {
        let s = Json::Str("a\"b\\c\nd".into()).to_string();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn unknown_prefetcher_name_is_rejected() {
        assert_eq!(intern_prefetcher("bfetch"), Some("bfetch"));
        let mut j = result_to_json(&sample_result());
        if let Json::Obj(fields) = &mut j {
            for (k, v) in fields.iter_mut() {
                if k == "prefetcher" {
                    *v = Json::Str("experimental-9".into());
                }
            }
        }
        assert_eq!(result_from_json(&j), None);
    }
}
