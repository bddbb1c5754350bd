//! The result document one run produces: what is written to
//! `benchmark/out/`, printed as the metric table, condensed into the last
//! line of standard output, and read back by `compare`.

use crate::layers::Layers;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::spans::NameTotals;
use crate::stats::{Fnv1a, Summary};
use bfetch_bench::harness::jsonio::Json;
use bfetch_sim::RunResult;
use std::collections::BTreeMap;

/// Bumped when the document's layout changes.
pub const SCHEMA: u64 = 1;

/// Counted operations: simulations, harness points and output checks.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; `what` describes it if it failed.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// The exact simulated totals of one repetition: the fingerprint plus
/// every count a per-layer metric is derived from. A change meant only to
/// speed up the host must leave all of it identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimTotals {
    /// FNV-1a 64 over every `RunResult::registry()` rendering, in point
    /// then core order.
    pub stats_digest: u64,
    /// `(name, value)`, fixed order.
    pub counts: Vec<(&'static str, u64)>,
}

impl SimTotals {
    pub fn of(results: &[Vec<RunResult>]) -> Self {
        let mut h = Fnv1a::default();
        let mut c = [0u64; 13];
        for r in results.iter().flatten() {
            h.write(r.registry().to_string().as_bytes());
            let m = &r.mem;
            for (slot, v) in c.iter_mut().zip([
                r.cycles,
                r.instructions,
                r.cond_branches,
                r.mispredicts,
                m.l1d_misses,
                m.dram_reqs,
                m.mshr_merges,
            ]) {
                *slot += v;
            }
            // the engine's counters: B-Fetch points only
            if let Some(e) = &r.engine {
                for (slot, v) in c[7..].iter_mut().zip([
                    m.prefetch_issued,
                    m.prefetch_useful,
                    m.prefetch_useless,
                    m.prefetch_late,
                    e.lookaheads,
                    e.branches_walked,
                ]) {
                    *slot += v;
                }
            }
        }
        const NAMES: [&str; 13] = [
            "cycles",
            "instructions",
            "cond_branches",
            "mispredicts",
            "l1d_misses",
            "dram_reqs",
            "mshr_merges",
            "pf_issued",
            "pf_useful",
            "pf_useless",
            "pf_late",
            "lookaheads",
            "branches_walked",
        ];
        Self {
            stats_digest: h.finish(),
            counts: NAMES.into_iter().zip(c).collect(),
        }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The per-layer metrics that are plain functions of the totals.
    pub fn layers(&self) -> Layers {
        let ratio = |a: &str, b: &str, scale: f64| {
            let d = self.count(b);
            if d == 0 {
                0.0
            } else {
                self.count(a) as f64 * scale / d as f64
            }
        };
        let mut l = Layers::new();
        l.insert(
            "sim.stats_digest",
            (self.stats_digest & ((1 << 48) - 1)) as f64,
        );
        l.insert("sim.cycles", self.count("cycles") as f64);
        l.insert("sim.ipc", ratio("instructions", "cycles", 1.0));
        l.insert(
            "bpred.mispredict_pct",
            ratio("mispredicts", "cond_branches", 100.0),
        );
        l.insert("mem.l1d_mpki", ratio("l1d_misses", "instructions", 1000.0));
        l.insert("mem.dram_reqs", self.count("dram_reqs") as f64);
        l.insert("mem.mshr_merges", self.count("mshr_merges") as f64);
        l.insert("core.pf_issued", self.count("pf_issued") as f64);
        l.insert("core.pf_useful", self.count("pf_useful") as f64);
        l.insert("core.pf_useless", self.count("pf_useless") as f64);
        l.insert("core.pf_late", self.count("pf_late") as f64);
        l.insert(
            "core.pf_accuracy_pct",
            ratio("pf_useful", "pf_issued", 100.0),
        );
        l.insert(
            "core.lookahead_depth",
            ratio("branches_walked", "lookaheads", 1.0),
        );
        l
    }
}

/// One end-to-end metric of one run.
///
/// Co-tenants of the host only ever slow a repetition down, never speed it
/// up, so the figure a run reports for a host-time metric is its
/// **fastest** observation (see `README.md`, "Why best-of"); the median
/// and quartiles of the repetitions are kept and printed beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The reported figure.
    pub value: f64,
    /// The run's own repetitions, in the metric's unit.
    pub reps: Summary,
}

impl Measured {
    /// A metric observed once.
    pub fn once(value: f64) -> Self {
        Self {
            value,
            reps: Summary::of(vec![value]),
        }
    }

    /// A lower-is-better timing: the fastest of `samples`.
    pub fn fastest(samples: Vec<f64>) -> Self {
        let reps = Summary::of(samples);
        Self {
            value: reps.samples.iter().copied().fold(f64::INFINITY, f64::min),
            reps,
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct RunDoc {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    /// Point labels in execution order.
    pub order: Vec<String>,
    /// Timed repetitions behind `sim_kips`.
    pub reps: usize,
    /// Warm passes behind `warm_us_per_point`.
    pub warm_passes: usize,
    /// End-to-end metrics (timed runs only).
    pub e2e: Vec<(&'static str, Measured)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
    pub sim: SimTotals,
    /// Present when the workload can form the three reference geomeans.
    pub paper_err: Option<f64>,
    /// `(prefetcher, measured geomean speedup)`.
    pub geomeans: Vec<(&'static str, f64)>,
    /// Process CPU time / wall, per timed (untraced) repetition.
    pub cpu_wall: Vec<f64>,
    /// Driver span totals by name (traced runs only).
    pub span_totals: BTreeMap<&'static str, NameTotals>,
    /// `ResultCache::load` samples behind the load percentiles.
    pub load_samples: usize,
    pub ops: Ops,
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::f64_of(x)).collect())
}

impl RunDoc {
    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// The metric table this run reports: end to end when timed, per layer
    /// when traced.
    pub fn table(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The value reported for `name` on the last line: a metric the
    /// workload does not produce reads 0 there (the line must carry every
    /// name) and is absent everywhere else.
    pub fn value(&self, name: &str) -> Option<f64> {
        if self.traced {
            self.layers.get(name).copied()
        } else {
            self.e2e
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, m)| m.value)
        }
    }

    /// The last line of standard output.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .table()
            .iter()
            .map(|m| {
                let v = self.value(m.name).unwrap_or(0.0);
                (
                    m.name,
                    obj(vec![
                        ("value", Json::f64_of(v)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::u64_of(self.ops.attempted)),
            ("failed", Json::u64_of(self.ops.failed)),
            ("metrics", obj(metrics)),
        ])
        .to_string()
    }

    /// The full document, as written under `benchmark/out/`.
    pub fn to_json(&self) -> Json {
        let e2e = self
            .e2e
            .iter()
            .map(|(name, m)| {
                (
                    *name,
                    obj(vec![
                        ("value", Json::f64_of(m.value)),
                        ("median", Json::f64_of(m.reps.median)),
                        ("q1", Json::f64_of(m.reps.q1)),
                        ("q3", Json::f64_of(m.reps.q3)),
                        ("samples", nums(&m.reps.samples)),
                    ]),
                )
            })
            .collect();
        let layers = self
            .layers
            .iter()
            .map(|(k, v)| (*k, Json::f64_of(*v)))
            .collect();
        let counts = self
            .sim
            .counts
            .iter()
            .map(|(k, v)| (*k, Json::u64_of(*v)))
            .collect();
        let spans = self
            .span_totals
            .iter()
            .map(|(k, t)| {
                (
                    *k,
                    obj(vec![
                        ("count", Json::u64_of(t.count)),
                        ("total_ns", Json::u64_of(t.total_ns)),
                        ("self_ns", Json::u64_of(t.self_ns)),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("schema", Json::u64_of(SCHEMA)),
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::u64_of(self.seed)),
            ("seconds", Json::f64_of(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("quick", Json::Bool(self.quick)),
            (
                "order",
                Json::Arr(self.order.iter().cloned().map(Json::Str).collect()),
            ),
            ("reps", Json::u64_of(self.reps as u64)),
            ("warm_passes", Json::u64_of(self.warm_passes as u64)),
            ("end_to_end", obj(e2e)),
            ("per_layer", obj(layers)),
            (
                "simulated",
                obj(vec![
                    (
                        "stats_digest",
                        Json::Str(format!("{:016x}", self.sim.stats_digest)),
                    ),
                    ("counts", obj(counts)),
                    ("paper_err", self.paper_err.map_or(Json::Null, Json::f64_of)),
                    (
                        "geomeans",
                        obj(self
                            .geomeans
                            .iter()
                            .map(|(k, v)| (*k, Json::f64_of(*v)))
                            .collect()),
                    ),
                ]),
            ),
            ("cpu_wall_ratio", nums(&self.cpu_wall)),
            ("driver_spans", obj(spans)),
            ("cache_load_samples", Json::u64_of(self.load_samples as u64)),
            ("attempted", Json::u64_of(self.ops.attempted)),
            ("failed", Json::u64_of(self.ops.failed)),
            (
                "failures",
                Json::Arr(self.ops.failures.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// Reads back what `compare` needs from a document written by
    /// [`RunDoc::to_json`]. Metric and count names outside the current
    /// tables are dropped.
    pub fn from_json(j: &Json) -> Result<RunDoc, String> {
        let need = |k: &str| j.get(k).ok_or_else(|| format!("missing {k:?}"));
        if need("schema")?.as_u64() != Some(SCHEMA) {
            return Err(format!("not a schema-{SCHEMA} result document"));
        }
        let boolean = |k: &str| match need(k)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("{k:?} is not a boolean")),
        };
        let f64s = |v: &Json| match v {
            Json::Arr(a) => a.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>(),
            _ => None,
        };
        let mut doc = RunDoc {
            workload: need("workload")?.as_str().ok_or("workload")?.to_string(),
            seed: need("seed")?.as_u64().ok_or("seed")?,
            seconds: need("seconds")?.as_f64().ok_or("seconds")?,
            traced: boolean("traced")?,
            quick: boolean("quick")?,
            reps: need("reps")?.as_u64().ok_or("reps")? as usize,
            ..RunDoc::default()
        };
        for m in END_TO_END {
            if let Some(e) = need("end_to_end")?.get(m.name) {
                let samples = e.get("samples").and_then(f64s).filter(|s| !s.is_empty());
                let samples = samples.ok_or_else(|| format!("{}: no samples", m.name))?;
                let value = e.get("value").and_then(Json::as_f64);
                let value = value.ok_or_else(|| format!("{}: no value", m.name))?;
                let reps = Summary::of(samples);
                doc.e2e.push((m.name, Measured { value, reps }));
            }
        }
        for m in PER_LAYER {
            if let Some(v) = need("per_layer")?.get(m.name).and_then(Json::as_f64) {
                doc.layers.insert(m.name, v);
            }
        }
        let sim = need("simulated")?;
        let digest = sim
            .get("stats_digest")
            .and_then(Json::as_str)
            .ok_or("stats_digest")?;
        doc.sim.stats_digest = u64::from_str_radix(digest, 16).map_err(|e| e.to_string())?;
        let template = SimTotals::of(&[]);
        for (name, _) in template.counts {
            let v = sim
                .get("counts")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64);
            doc.sim
                .counts
                .push((name, v.ok_or_else(|| format!("count {name}"))?));
        }
        doc.paper_err = sim.get("paper_err").and_then(Json::as_f64);
        doc.ops.attempted = need("attempted")?.as_u64().ok_or("attempted")?;
        doc.ops.failed = need("failed")?.as_u64().ok_or("failed")?;
        Ok(doc)
    }

    /// The human-readable report: every metric by name and unit.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut o = String::new();
        let mode = if self.traced {
            "traced run, per layer"
        } else {
            "timed run, end to end"
        };
        let _ = writeln!(
            o,
            "== {} · seed {} · {}{} ==",
            self.workload,
            self.seed,
            mode,
            if self.quick {
                " · QUICK (smoke only, not comparable)"
            } else {
                ""
            }
        );
        let _ = writeln!(o, "why: {}", crate::workload::why(&self.workload));
        let _ = writeln!(
            o,
            "method: closed loop, one driver thread, one simulation at a time; {} points; \
             {} repetition(s) timed; host time unless marked simulated",
            self.order.len(),
            self.reps
        );
        if self.traced {
            let _ = writeln!(
                o,
                "{:<28} {:>10} {:>16}  what",
                "per-layer metric", "unit", "value"
            );
            for m in PER_LAYER {
                let v = self
                    .layers
                    .get(m.name)
                    .map_or_else(|| "-".to_string(), |v| fmt_num(*v));
                let _ = writeln!(o, "{:<28} {:>10} {:>16}  {}", m.name, m.unit, v, m.what);
            }
            let _ = writeln!(o, "cache-load samples: {}", self.load_samples);
            let _ = writeln!(
                o,
                "{:<40} {:>7} {:>12} {:>12}",
                "driver span", "count", "total ms", "self ms"
            );
            for (name, t) in &self.span_totals {
                let _ = writeln!(
                    o,
                    "{:<40} {:>7} {:>12.3} {:>12.3}",
                    name,
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                );
            }
        } else {
            let _ = writeln!(
                o,
                "{:<20} {:>8} {:>12} {:>12} {:>12} {:>12} {:>8} {:>4} {:>6}",
                "metric", "unit", "reported", "median", "q1", "q3", "iqr/med", "n", "bound"
            );
            for (name, measured) in &self.e2e {
                let m = crate::metrics::def(name).expect("listed metric");
                let s = &measured.reps;
                let _ = writeln!(
                    o,
                    "{:<20} {:>8} {:>12} {:>12} {:>12} {:>12} {:>7.2}% {:>4} {:>5.0}%",
                    name,
                    m.unit,
                    fmt_num(measured.value),
                    fmt_num(s.median),
                    fmt_num(s.q1),
                    fmt_num(s.q3),
                    s.spread() * 100.0,
                    s.samples.len(),
                    m.bound * 100.0
                );
                if s.samples.len() > 1 && s.samples.len() <= 100 {
                    let each: Vec<String> = s.samples.iter().map(|v| fmt_num(*v)).collect();
                    let _ = writeln!(o, "    each: {}", each.join(" "));
                }
            }
            let ratios: Vec<String> = self
                .cpu_wall
                .iter()
                .map(|r| format!("{r:.2}{}", if *r < 0.9 { "!" } else { "" }))
                .collect();
            let _ = writeln!(
                o,
                "host.cpu_wall_ratio per repetition (! = disturbed, still counted): {}",
                ratios.join(" ")
            );
        }
        let _ = writeln!(
            o,
            "fail_rate: {} failed / {} attempted (simulations, harness points, output checks)",
            self.ops.failed, self.ops.attempted
        );
        for f in &self.ops.failures {
            let _ = writeln!(o, "  FAILED {f}");
        }
        let counts: Vec<String> = self
            .sim
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(
            o,
            "simulated, exact: sim.stats_digest={:016x} {}",
            self.sim.stats_digest,
            counts.join(" ")
        );
        o
    }
}

/// A number with enough digits to compare by eye.
pub fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 0.1 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> RunDoc {
        let mut ops = Ops::default();
        ops.record(true, || unreachable!());
        RunDoc {
            workload: "solo_mem_nopf".into(),
            seed: 3,
            seconds: 1.5,
            reps: 2,
            e2e: vec![
                (
                    "sim_kips",
                    Measured {
                        value: 12.5,
                        reps: Summary::of(vec![10.0, 12.0]),
                    },
                ),
                ("setup_s", Measured::fastest(vec![0.25, 0.5])),
            ],
            sim: SimTotals::of(&[]),
            paper_err: Some(51.5),
            ops,
            ..RunDoc::default()
        }
    }

    #[test]
    fn document_round_trips_what_compare_reads() {
        let doc = sample_doc();
        let back = RunDoc::from_json(&Json::parse(&doc.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.workload, doc.workload);
        assert_eq!(
            (back.seed, back.reps, back.quick, back.traced),
            (3, 2, false, false)
        );
        assert_eq!(back.e2e, doc.e2e);
        assert_eq!(back.sim, doc.sim);
        assert_eq!(back.paper_err, Some(51.5));
        assert_eq!(back.ops.attempted, 1);
        assert!(RunDoc::from_json(&Json::parse("{\"schema\":99}").unwrap()).is_err());
    }

    #[test]
    fn contract_line_carries_every_metric_of_its_table() {
        let mut doc = sample_doc();
        let line = Json::parse(&doc.contract_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").unwrap();
        for m in END_TO_END {
            assert_eq!(
                metrics.get(m.name).unwrap().get("unit").unwrap().as_str(),
                Some(m.unit)
            );
        }
        assert_eq!(
            metrics
                .get("sim_kips")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(12.5)
        );
        doc.traced = true;
        doc.layers = doc.sim.layers();
        let line = Json::parse(&doc.contract_line()).unwrap();
        let Json::Obj(fields) = line.get("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(fields.len(), PER_LAYER.len());
        doc.ops.record(false, || "x".into());
        assert!(doc.contract_line().starts_with("{\"correct\":false"));
    }

    #[test]
    fn empty_totals_have_a_fixed_digest_and_zero_ratios() {
        let t = SimTotals::of(&[]);
        assert_eq!(t.stats_digest, Fnv1a::default().finish());
        assert_eq!(t.counts.len(), 13);
        assert_eq!(t.layers()["sim.ipc"], 0.0);
    }
}
