//! `compare`: two sets of result documents, one row per workload ×
//! end-to-end metric, exact equality for everything simulated. This is the
//! tool the benchmark's own repeatability, and any later change, is
//! checked with.

use crate::doc::{fmt_num, Measured, RunDoc};
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats::Summary;
use crate::workload::NAMES;
use bfetch_bench::harness::jsonio::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Loads the run documents of one file: a single run, or a suite's
/// `results.json` with a `runs` array.
pub fn load(path: &str) -> Result<Vec<RunDoc>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).ok_or_else(|| format!("{path}: not JSON"))?;
    let docs = match json.get("runs") {
        Some(Json::Arr(runs)) => runs.iter().map(RunDoc::from_json).collect(),
        Some(_) => Err("\"runs\" is not an array".to_string()),
        None => RunDoc::from_json(&json).map(|d| vec![d]),
    };
    docs.map_err(|e| format!("{path}: {e}"))
}

/// How one workload × metric pair came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// A side's interquartile spread exceeds the bound, so the medians say
    /// nothing either way.
    Unresolved,
    /// As `Unresolved`, except that every run of the new side beats every
    /// run of the base.
    Better,
    Regression,
}

/// By how much of the base median the new median is worse (negative when
/// it is better).
fn worse_by(m: &MetricDef, base: f64, new: f64) -> f64 {
    match m.better {
        Better::Higher => (base - new) / base,
        Better::Lower => (new - base) / base,
    }
}

/// One side's view of a workload × metric pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    /// The figure each of the side's timed runs reported.
    pub runs: Summary,
    /// Interquartile range ÷ median: across the runs when there are at
    /// least two, else of the single run's own repetitions.
    pub spread: f64,
}

impl Side {
    fn of(side: &[RunDoc], workload: &str, metric: &str) -> Option<Side> {
        let runs: Vec<&Measured> = side
            .iter()
            .filter(|d| d.workload == workload && !d.traced)
            .flat_map(|d| d.e2e.iter().filter(|(n, _)| *n == metric))
            .map(|(_, m)| m)
            .collect();
        if runs.is_empty() {
            return None;
        }
        let values = Summary::of(runs.iter().map(|m| m.value).collect());
        match runs[..] {
            [one] => Some(Side {
                runs: values,
                spread: one.reps.spread(),
            }),
            _ => Some(Side {
                spread: values.spread(),
                runs: values,
            }),
        }
    }
}

/// Judges one pair of sides against the metric's bound.
pub fn judge(m: &MetricDef, base: &Side, new: &Side) -> Verdict {
    let beats = |n: f64, b: f64| match m.better {
        Better::Higher => n > b,
        Better::Lower => n < b,
    };
    let every_new_beats_every_base = new
        .runs
        .samples
        .iter()
        .all(|&n| base.runs.samples.iter().all(|&b| beats(n, b)));
    if worse_by(m, base.runs.median, new.runs.median) > m.bound {
        Verdict::Regression
    } else if base.spread <= m.bound && new.spread <= m.bound {
        Verdict::Ok
    } else if every_new_beats_every_base {
        Verdict::Better
    } else {
        Verdict::Unresolved
    }
}

/// Compares `new` against `base`. Returns the report and whether anything
/// regressed or differed.
///
/// # Errors
///
/// Refuses `--quick` documents: their budgets are not the benchmark's.
pub fn compare(base: &[RunDoc], new: &[RunDoc]) -> Result<(String, bool), String> {
    if base.iter().chain(new).any(|d| d.quick) {
        return Err("refusing --quick results: smoke runs are not comparable".to_string());
    }
    let mut o = String::new();
    let mut bad = false;
    let _ = writeln!(
        o,
        "{:<20} {:<18} {:>11} {:>22} {:>11} {:>22} {:>19} {:>6}  verdict",
        "workload",
        "metric",
        "base med",
        "base q1..q3",
        "new med",
        "new q1..q3",
        "new/base",
        "bound"
    );
    for w in NAMES {
        for m in END_TO_END {
            let (Some(b), Some(n)) = (Side::of(base, w, m.name), Side::of(new, w, m.name)) else {
                continue;
            };
            let verdict = judge(m, &b, &n);
            bad |= verdict == Verdict::Regression;
            let _ = writeln!(
                o,
                "{:<20} {:<18} {:>11} {:>10}..{:<10} {:>11} {:>10}..{:<10} {:>6.3} of {:<9} {:>5.0}%  {}",
                w,
                m.name,
                fmt_num(b.runs.median),
                fmt_num(b.runs.q1),
                fmt_num(b.runs.q3),
                fmt_num(n.runs.median),
                fmt_num(n.runs.q1),
                fmt_num(n.runs.q3),
                n.runs.median / b.runs.median,
                fmt_num(b.runs.median),
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "better (spread exceeds the bound, yet every new run beats every base run)",
                    Verdict::Unresolved => "unresolved (spread exceeds the bound)",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
        // failures: any increase is a regression
        let rate = |side: &[RunDoc]| {
            let (f, a) = side
                .iter()
                .filter(|d| d.workload == w)
                .fold((0, 0), |(f, a), d| (f + d.ops.failed, a + d.ops.attempted));
            (a > 0).then_some((f, a))
        };
        if let (Some((bf, ba)), Some((nf, na))) = (rate(base), rate(new)) {
            let worse = nf as f64 / na as f64 > bf as f64 / ba as f64;
            bad |= worse;
            let _ = writeln!(
                o,
                "{w:<20} {:<18} {bf}/{ba} -> {nf}/{na}  {}",
                "fail_rate",
                if worse { "REGRESSION" } else { "ok" }
            );
        }
    }

    // everything simulated must be bit-identical between runs of one
    // (workload, mode, seed)
    let mut exact: BTreeMap<(&str, bool, u64), (usize, BTreeSet<String>)> = BTreeMap::new();
    for b in base {
        for n in new
            .iter()
            .filter(|n| (&n.workload, n.traced, n.seed) == (&b.workload, b.traced, b.seed))
        {
            let (pairs, diffs) = exact.entry((&b.workload, b.traced, b.seed)).or_default();
            *pairs += 1;
            if b.sim.stats_digest != n.sim.stats_digest {
                diffs.insert(format!(
                    "sim.stats_digest {:016x} -> {:016x}",
                    b.sim.stats_digest, n.sim.stats_digest
                ));
            }
            for ((name, bv), (_, nv)) in b.sim.counts.iter().zip(&n.sim.counts) {
                if bv != nv {
                    diffs.insert(format!("{name} {bv} -> {nv}"));
                }
            }
            if b.paper_err.map(f64::to_bits) != n.paper_err.map(f64::to_bits) {
                diffs.insert(format!("paper_err {:?} -> {:?}", b.paper_err, n.paper_err));
            }
        }
    }
    for ((workload, traced, seed), (pairs, diffs)) in exact {
        let mode = if traced { "traced" } else { "timed" };
        let _ = write!(o, "{workload:<20} {mode} seed {seed}, {pairs} pair(s): ");
        if diffs.is_empty() {
            let _ = writeln!(o, "simulated output identical");
        } else {
            bad = true;
            let diffs: Vec<String> = diffs.into_iter().collect();
            let _ = writeln!(o, "SIMULATED OUTPUT DIFFERS: {}", diffs.join("; "));
        }
    }
    Ok((o, bad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::SimTotals;
    use crate::metrics::def;

    fn doc(workload: &str, kips: Vec<f64>) -> RunDoc {
        let mut d = RunDoc {
            workload: workload.into(),
            seed: 1,
            e2e: vec![(
                "sim_kips",
                Measured {
                    value: kips.iter().copied().fold(0.0, f64::max),
                    reps: Summary::of(kips),
                },
            )],
            sim: SimTotals::of(&[]),
            ..RunDoc::default()
        };
        d.ops.attempted = 10;
        d
    }

    #[test]
    fn judge_applies_the_bound_and_the_spread_rule() {
        let m = def("sim_kips").unwrap();
        let s = |v: &[f64]| {
            let runs = Summary::of(v.to_vec());
            Side {
                spread: runs.spread(),
                runs,
            }
        };
        let base = s(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let scaled = |f: f64| s(&base.runs.samples.iter().map(|v| v * f).collect::<Vec<_>>());
        assert_eq!(
            judge(m, &base, &s(&[97.0, 101.0, 100.0, 99.0, 98.0])),
            Verdict::Ok
        );
        assert_eq!(judge(m, &base, &scaled(1.0 - m.bound + 0.02)), Verdict::Ok);
        assert_eq!(
            judge(m, &base, &scaled(1.0 - m.bound - 0.02)),
            Verdict::Regression
        );
        assert_eq!(judge(m, &base, &s(&[110.0, 111.0, 112.0])), Verdict::Ok);
        assert_eq!(judge(m, &base, &s(&[110.0, 150.0, 190.0])), Verdict::Better);
        // a noisy side hides anything inside the bound
        assert_eq!(
            judge(m, &base, &s(&[60.0, 100.0, 140.0, 95.0, 105.0])),
            Verdict::Unresolved
        );
        // lower-is-better metrics flip the direction
        let rss = def("peak_rss_mb").unwrap();
        let grown = |f: f64| s(&[40.0 * (1.0 + f)]);
        assert_eq!(
            judge(rss, &s(&[40.0]), &grown(rss.bound + 0.02)),
            Verdict::Regression
        );
        assert_eq!(
            judge(rss, &s(&[40.0]), &grown(rss.bound - 0.02)),
            Verdict::Ok
        );
        assert_eq!(judge(rss, &s(&[40.0]), &s(&[30.0])), Verdict::Ok);
    }

    #[test]
    fn compare_pools_sets_flags_regressions_and_refuses_quick() {
        let base = vec![
            doc("chip8_bfetch", vec![100.0, 102.0]),
            doc("chip8_bfetch", vec![101.0, 99.0]),
        ];
        let same = vec![doc("chip8_bfetch", vec![100.5, 101.5, 99.5])];
        let (report, bad) = compare(&base, &same).unwrap();
        assert!(!bad, "{report}");
        assert!(report.contains("simulated output identical"));
        let (report, bad) = compare(&base, &[doc("chip8_bfetch", vec![70.0, 71.0])]).unwrap();
        assert!(bad && report.contains("REGRESSION"), "{report}");

        let mut drifted = doc("chip8_bfetch", vec![100.0]);
        drifted.sim.stats_digest ^= 1;
        let (report, bad) = compare(&base, &[drifted]).unwrap();
        assert!(
            bad && report.contains("SIMULATED OUTPUT DIFFERS"),
            "{report}"
        );

        let mut failing = doc("chip8_bfetch", vec![100.0]);
        failing.ops.failed = 1;
        assert!(compare(&base, &[failing]).unwrap().1);

        let mut quick = doc("chip8_bfetch", vec![100.0]);
        quick.quick = true;
        assert!(compare(&base, &[quick]).is_err());
    }
}
