//! The driver's own spans: one around every call it makes into a layer,
//! kept in memory and written out when the run ends.
//!
//! A span records its name (`layer.Call`), an optional label, start and
//! end relative to the recorder's epoch, and the span that was open when
//! it started. A layer's self time is its spans' duration minus the part
//! their child spans cover.

use bfetch_bench::harness::jsonio::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory span recorder. A disabled recorder (the timed runs) records
/// nothing and costs one branch per call.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in nanoseconds (measured whether or not spans are kept).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> (R, u64) {
        let start_ns = self.now_ns();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                label: label.to_string(),
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end_ns = self.now_ns();
        if let Some(id) = id {
            self.spans[id].end_ns = end_ns;
            self.open.pop();
        }
        (out, end_ns - start_ns)
    }

    /// [`Recorder::time`] for callers that do not need the duration.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        self.time(name, label, f).0
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// The spans as Chrome trace events (`ph: "X"`, microseconds) under
    /// process id `pid`, each carrying its own and its parent's index and
    /// the workload as the shared identifier.
    pub fn chrome_events(&self, pid: u64, workload: &str) -> Vec<Json> {
        let us = |ns: u64| Json::Num(format!("{}.{:03}", ns / 1000, ns % 1000));
        let mut events = vec![Json::Obj(vec![
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::u64_of(pid)),
            ("tid".into(), Json::u64_of(0)),
            ("name".into(), Json::Str("process_name".into())),
            (
                "args".into(),
                Json::Obj(vec![(
                    "name".into(),
                    Json::Str(format!("driver:{workload}")),
                )]),
            ),
        ])];
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("workload".into(), Json::Str(workload.to_string())),
                ("span".into(), Json::u64_of(i as u64)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".into(), Json::u64_of(p as u64)));
            }
            if !s.label.is_empty() {
                args.push(("label".into(), Json::Str(s.label.clone())));
            }
            events.push(Json::Obj(vec![
                ("ph".into(), Json::Str("X".into())),
                ("pid".into(), Json::u64_of(pid)),
                ("tid".into(), Json::u64_of(0)),
                ("cat".into(), Json::Str("driver".into())),
                ("name".into(), Json::Str(s.name.to_string())),
                ("ts".into(), us(s.start_ns)),
                ("dur".into(), us(s.dur_ns())),
                ("args".into(), Json::Obj(args)),
            ]));
        }
        events
    }
}

/// The `traceEvents` of a `bfetch_prof` Chrome trace, moved to process id
/// `pid` and shifted by `offset_ns` (the driver-epoch time at which the
/// profiler was enabled) so they line up with the driver's spans.
pub fn prof_events(chrome_trace: &str, pid: u64, offset_ns: u64) -> Vec<Json> {
    let Some(Json::Obj(top)) = Json::parse(chrome_trace) else {
        return Vec::new();
    };
    let Some((_, Json::Arr(events))) = top.into_iter().find(|(k, _)| k == "traceEvents") else {
        return Vec::new();
    };
    events
        .into_iter()
        .map(|e| match e {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| match k.as_str() {
                        "pid" => (k, Json::u64_of(pid)),
                        "ts" => {
                            let shifted = v.as_f64().unwrap_or(0.0) + offset_ns as f64 / 1e3;
                            (k, Json::Num(format!("{shifted:.3}")))
                        }
                        _ => (k, v),
                    })
                    .collect(),
            ),
            other => other,
        })
        .collect()
}

/// Wraps events into a Chrome trace document.
pub fn chrome_doc(events: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        ("traceEvents".into(), Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut r = Recorder::new(true);
        r.span("outer", "", |r| {
            r.span("inner", "a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.span("inner", "b", |_| ());
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let t = r.totals();
        assert_eq!(t["inner"].count, 2);
        assert_eq!(t["inner"].self_ns, t["inner"].total_ns);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns - t["inner"].total_ns
        );
        assert!(t["inner"].total_ns >= 2_000_000);
        let events = r.chrome_events(7, "w");
        assert_eq!(events.len(), 4);
        let doc = chrome_doc(events).to_string();
        assert!(Json::parse(&doc).is_some());
        assert!(doc.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_recorder_still_times_but_keeps_nothing() {
        let mut r = Recorder::new(false);
        let ((), ns) = r.time("x", "", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(ns >= 1_000_000);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn prof_events_are_rebased() {
        let src = r#"{"displayTimeUnit":"ms","traceEvents":[
            {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"bfetch"}},
            {"ph":"X","pid":1,"tid":0,"name":"sim.run","ts":1.500,"dur":2.000}]}"#;
        let ev = prof_events(src, 9, 10_000);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].get("pid").and_then(Json::as_u64), Some(9));
        assert_eq!(ev[1].get("ts").and_then(Json::as_f64), Some(11.5));
        assert!(prof_events("garbage", 1, 0).is_empty());
    }
}
