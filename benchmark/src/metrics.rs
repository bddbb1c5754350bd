//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` mirrors
//! these tables; a unit test holds the two together.

use crate::workload::{why, NAMES};
use bfetch_bench::harness::jsonio::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's static description.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression; 0 for per-layer metrics.
    pub bound: f64,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    e2e(name, unit, better, 0.0, what)
}

use Better::{Higher, Lower};

/// The end-to-end metrics, measured with tracing off on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e(
        "sim_kips",
        "kinst/s",
        Higher,
        0.25,
        "10^3 simulated instructions (warm-up + measured budget, x cores x points) per host second, each point at its fastest timed repetition",
    ),
    e2e(
        "warm_us_per_point",
        "us",
        Lower,
        0.25,
        "fastest all-cache-hits Harness pass over the workload's points, per point; passes are spread between the repetitions",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Lower,
        0.15,
        "VmHWM of the workload's process",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "build each distinct program once, validate configs, construct the spec and temp dir; fastest of the repeats before the first pass and after every repetition",
    ),
];

/// The per-layer metrics of the traced run. `*_ns`/`*_us`/`*_ms`/`*_pct`
/// overheads are host time; counts and `paper_err` are simulated and exact.
pub const PER_LAYER: &[MetricDef] = &[
    // workloads, isa, prng
    layer("workloads.build_ms", "ms", Lower, "all 18 Kernel::build(Scale::Full)"),
    layer("isa.assemble_ms", "ms", Lower, "the six .s programs assembled at Scale::Full"),
    layer("isa.exec_mips", "Minst/s", Higher, "ArchState::run over the workload's programs, functional only"),
    // bpred
    layer("bpred.predict_update_ns", "ns", Lower, "TournamentPredictor predict + update per branch"),
    layer("bpred.confidence_ns", "ns", Lower, "CompositeConfidence estimate + train per branch"),
    layer("bpred.mispredict_pct", "%", Lower, "simulated: mispredicted / fetched conditional branches"),
    // mem
    layer("mem.cache_hit_ns", "ns", Lower, "SetAssocCache::access, resident lines"),
    layer("mem.cache_miss_fill_ns", "ns", Lower, "SetAssocCache access + insert over 4x the capacity"),
    layer("mem.mshr_lookup_ns", "ns", Lower, "MshrFile::lookup against a full file"),
    layer("mem.mshr_alloc_expire_ns", "ns", Lower, "MshrFile request + fill_scheduled + expire"),
    layer("mem.hier_stream_ns", "ns", Lower, "MemorySystem::access, streaming misses"),
    layer("mem.hier_hit_ns", "ns", Lower, "MemorySystem::access, L1-resident set"),
    layer("mem.l1d_mpki", "1/kinst", Lower, "simulated: L1D demand misses per kilo-instruction"),
    layer("mem.dram_reqs", "count", Lower, "simulated: DRAM requests"),
    layer("mem.mshr_merges", "count", Higher, "simulated: demand accesses merged into an in-flight miss"),
    // prefetch
    layer("prefetch.stride_ns", "ns", Lower, "Stride::on_access"),
    layer("prefetch.sms_ns", "ns", Lower, "Sms::on_access"),
    // core (the B-Fetch engine)
    layer("core.mht_ns", "ns", Lower, "MemoryHistoryTable learn_load + lookup"),
    layer("core.filter_ns", "ns", Lower, "PerLoadFilter allow + train"),
    layer("core.pf_issued", "count", Lower, "simulated: prefetches issued on B-Fetch points"),
    layer("core.pf_useful", "count", Higher, "simulated: prefetched lines a demand touched"),
    layer("core.pf_useless", "count", Lower, "simulated: prefetched lines evicted untouched"),
    layer("core.pf_late", "count", Lower, "simulated: demands that met their prefetch in flight"),
    layer("core.pf_accuracy_pct", "%", Higher, "simulated: useful / issued, the waste ratio"),
    layer("core.lookahead_depth", "branches", Higher, "simulated: branches walked per lookahead"),
    // sim
    layer("sim.cycles", "count", Lower, "simulated: measured-window cycles over all points and cores"),
    layer("sim.ipc", "inst/cycle", Higher, "simulated: measured instructions / measured cycles"),
    layer("sim.ns_per_cycle", "ns", Lower, "untraced repetition wall per simulated core-cycle"),
    layer("sim.construct1_ms", "ms", Lower, "a 1-instruction run on 1 core"),
    layer("sim.construct8_ms", "ms", Lower, "a 1-instruction run on 8 cores"),
    layer("sim.step_ns", "ns", Lower, "bfetch_prof sim.step per simulated core-cycle"),
    layer("sim.fetch_ns", "ns", Lower, "bfetch_prof sim.fetch per simulated core-cycle"),
    layer("sim.engine_ns", "ns", Lower, "bfetch_prof sim.engine per simulated core-cycle"),
    layer("sim.pending_mem_ns", "ns", Lower, "bfetch_prof sim.pending_mem per simulated core-cycle"),
    layer("sim.commit_ns", "ns", Lower, "bfetch_prof sim.commit per simulated core-cycle"),
    layer("sim.issue_ns", "ns", Lower, "bfetch_prof sim.issue per simulated core-cycle"),
    layer("sim.bookkeep_ns", "ns", Lower, "bfetch_prof sim.bookkeep per simulated core-cycle"),
    layer("sim.drain_chip_ns", "ns", Lower, "bfetch_prof sim.drain_chip per simulated core-cycle"),
    layer("sim.step_self_pct", "%", Lower, "sim.step minus its child spans: the uninstrumented remainder"),
    layer("sim.run_cover_pct", "%", Higher, "drain_chip + step + bookkeep as a share of sim.run"),
    layer("sim.stats_digest", "fnv48", Lower, "low 48 bits of FNV-1a 64 over every RunResult::registry() rendering; compared for equality, the direction means nothing"),
    // stats, snapshot, prof: observer costs on the mcf/B-Fetch point
    layer("stats.trace_overhead_pct", "%", Lower, "lifecycle tracing on vs off"),
    layer("stats.cpi_overhead_pct", "%", Lower, "CPI-stack accounting on vs off"),
    layer("snapshot.ckpt_overhead_pct", "%", Lower, "checkpoint_every(65536) on vs off"),
    layer("snapshot.save_ms", "ms", Lower, "extra wall per checkpoint written"),
    layer("snapshot.bytes", "B", Lower, "size of the checkpoint file"),
    layer("prof.overhead_pct", "%", Lower, "traced vs untraced wall of the points the traced repetition covers"),
    layer("prof.span_ns", "ns", Lower, "one empty bfetch_prof span with the profiler on; every sim.*_ns figure carries about this much per span opened"),
    // bench (the harness)
    layer("bench.points_per_s", "1/s", Higher, "cold Harness pass"),
    layer("bench.point_overhead_us", "us", Lower, "cold harness point wall minus the same point through SimSession with prebuilt programs; median over up to 10 points"),
    layer("bench.cache_key_us", "us", Lower, "GridPoint::cache_key"),
    layer("bench.cache_store_us", "us", Lower, "ResultCache::store, median"),
    layer("bench.cache_load_us_p50", "us", Lower, "ResultCache::load, median"),
    layer("bench.cache_load_us_p99", "us", Lower, "ResultCache::load, highest percentile <= 99 with ten samples beyond it"),
    layer("bench.j2_speedup", "x", Higher, "cold pass over up to 30 points: -j 1 point walls / -j 2 wall; one sample, noisy"),
    layer("bench.sims_run", "count", Lower, "simulations the cold pass ran"),
    layer("bench.cache_hits", "count", Higher, "cache hits of one warm pass"),
    layer("bench.retries", "count", Lower, "cache-I/O retries, cold + warm"),
    // host
    layer("host.cpu_wall_ratio", "ratio", Higher, "process CPU time / wall of the untraced repetition; below 0.9 the host disturbed it"),
    layer("host.rep_spread_pct", "%", Lower, "interquartile range / median of the untraced repetition walls"),
    // fidelity
    layer("paper_err", "log%", Lower, "simulated: 100 x mean |ln(measured / paper geomean speedup)| over B-Fetch, SMS, Perfect; 0 on a workload that cannot form the geomeans"),
];

/// Looks a metric up in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The content of `BENCHMARK.json`, generated from the metric tables.
pub fn benchmark_json(run_seconds: u64) -> String {
    let s = |v: &str| Json::Str(v.to_string());
    let obj = |fields: Vec<(&str, Json)>| {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let doc = obj(vec![
        ("command", Json::Arr(command.iter().map(|c| s(c)).collect())),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::u64_of(run_seconds)),
        (
            "workloads",
            Json::Arr(
                NAMES
                    .iter()
                    .map(|n| obj(vec![("name", s(n)), ("why", s(why(n)))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Json::f64_of(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    // one top-level key per line keeps the file reviewable
    let Json::Obj(fields) = doc else {
        unreachable!()
    };
    let lines: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  {}: {v}", Json::Str(k.clone())))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(j: &'a Json, k: &str) -> &'a Json {
        j.get(k).unwrap_or_else(|| panic!("missing {k}"))
    }

    fn arr(j: &Json) -> &[Json] {
        match j {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (key, table, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = arr(field(&doc, key));
            assert_eq!(listed.len(), table.len(), "{key}");
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(field(j, "name").as_str(), Some(m.name));
                assert_eq!(field(j, "unit").as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    field(j, "better").as_str(),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                if bounded {
                    assert_eq!(field(j, "bound").as_f64(), Some(m.bound), "{}", m.name);
                }
            }
        }
        let names: Vec<&str> = arr(field(&doc, "workloads"))
            .iter()
            .map(|w| field(w, "name").as_str().expect("name"))
            .collect();
        assert_eq!(names, crate::workload::NAMES);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(def("sim_kips").is_some() && def("nope").is_none());
    }

    #[test]
    fn description_is_json_with_exactly_the_contract_keys() {
        let doc = Json::parse(&benchmark_json(15)).expect("parses");
        let Json::Obj(fields) = &doc else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(doc.get("run_seconds").and_then(Json::as_u64), Some(15));
        let Some(Json::Arr(ws)) = doc.get("workloads") else {
            panic!()
        };
        for w in ws {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let Some(Json::Arr(e2e)) = doc.get("end_to_end") else {
            panic!()
        };
        assert!(e2e
            .iter()
            .any(|m| m.get("name").and_then(Json::as_str) == Some("setup_s")));
        assert!(e2e
            .iter()
            .all(|m| m.get("bound").and_then(Json::as_f64).unwrap() <= 0.25));
    }
}
