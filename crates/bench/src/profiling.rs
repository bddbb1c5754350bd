//! `--profile` wiring, shared by every figure through the one dispatch
//! path ([`crate::registry::main`]), and the one rendering of a
//! `bfetch_prof` [`Report`]: [`report_json`] and [`report_text`].
//!
//! [`start`] turns the flag into an RAII [`ProfileGuard`]: profiling is
//! enabled for the process lifetime and, when the guard drops (normal exit
//! path of the dispatch), the captured session is written as sidecar files into
//! the requested directory:
//!
//! * `trace.json` — Chrome trace-event JSON (`chrome://tracing`, Perfetto)
//! * `report.json` — [`report_json`]: per-phase and per-thread stats
//! * `report.txt` — [`report_text`]: the merged phases as a table
//!
//! Everything goes to the sidecar directory or stderr; stdout is never
//! touched, so profiled runs stay byte-identical to unprofiled ones (the
//! stdout contract, pinned by `tests/stdout_contract.rs`).

use crate::harness::jsonio::Json;
use crate::opts::Opts;
use crate::report::table;
use bfetch_prof::{PhaseStats, Report};
use std::path::PathBuf;

/// Version of the phase-report document. `ext_profile --out` and
/// `--profile DIR/report.json` are the same document and carry the same
/// number (verify.sh checks both).
const REPORT_SCHEMA: u64 = 3;

/// The phase report as JSON: `schema`, then the caller's `run` fields,
/// then `phases` (merged across threads) and `threads` (each thread's own
/// phases). A phase is its name, count, `total_ns` and `mean_ns`.
pub fn report_json<'a>(report: &Report, run: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    let phases = |ps: &[PhaseStats]| {
        Json::Arr(
            ps.iter()
                .map(|p| {
                    Json::obj([
                        ("name", Json::Str(p.name.into())),
                        ("count", Json::u64_of(p.count)),
                        ("total_ns", Json::u64_of(p.total_ns)),
                        ("mean_ns", Json::u64_of(p.mean_ns())),
                    ])
                })
                .collect(),
        )
    };
    let threads = report
        .threads
        .iter()
        .map(|t| {
            Json::obj([
                ("tid", Json::u64_of(t.tid.into())),
                ("name", Json::Str(t.name.clone())),
                ("phases", phases(&t.phases)),
            ])
        })
        .collect();
    Json::obj(
        std::iter::once(("schema", Json::u64_of(REPORT_SCHEMA)))
            .chain(run)
            .chain([
                ("phases", phases(&report.phases)),
                ("threads", Json::Arr(threads)),
            ]),
    )
}

/// The merged phases as a text table: count, total, mean and share of
/// `sim.run` (`-` when no run was recorded, e.g. an all-cached sweep).
pub fn report_text(report: &Report) -> String {
    let run_ns = report.phase_total_ns("sim.run");
    let mut t = table(["phase", "count", "total", "mean", "% of run"]);
    for p in &report.phases {
        t.row(vec![
            p.name.to_string(),
            p.count.to_string(),
            fmt_ns(p.total_ns),
            fmt_ns(p.mean_ns()),
            if run_ns == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", p.total_ns as f64 / run_ns as f64 * 100.0)
            },
        ]);
    }
    t.to_string()
}

/// Human-readable duration: picks ns/µs/ms/s.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Active profiling session; writes the sidecar files on drop.
pub struct ProfileGuard {
    dir: Option<PathBuf>,
}

/// Starts profiling if `--profile DIR` was given. Call once before the
/// figure runs and keep the guard alive until it returns; a disabled guard (no
/// flag) is inert.
pub fn start(opts: &Opts) -> ProfileGuard {
    let Some(dir) = opts.profile.clone() else {
        return ProfileGuard { dir: None };
    };
    bfetch_prof::enable();
    ProfileGuard { dir: Some(dir) }
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        let Some(dir) = self.dir.take() else { return };
        let Some(profile) = bfetch_prof::drain() else {
            return; // nothing recorded
        };
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("[profile] cannot create {}: {e}", dir.display());
            return;
        }
        let report = profile.report();
        let mut failed = false;
        for (name, contents) in [
            ("trace.json", profile.chrome_trace()),
            ("report.json", format!("{}\n", report_json(&report, []))),
            ("report.txt", report_text(&report)),
        ] {
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, contents) {
                eprintln!("[profile] cannot write {}: {e}", path.display());
                failed = true;
            }
        }
        if !failed {
            eprintln!(
                "[profile] wrote {} (load trace.json in chrome://tracing or ui.perfetto.dev)",
                dir.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_flag_is_inert() {
        let opts = Opts::default();
        let g = start(&opts);
        assert!(!bfetch_prof::enabled());
        drop(g);
    }

    fn phase(name: &'static str, count: u64, total_ns: u64) -> PhaseStats {
        PhaseStats {
            name,
            count,
            total_ns,
        }
    }

    #[test]
    fn empty_report_renders() {
        let r = Report {
            phases: Vec::new(),
            threads: Vec::new(),
        };
        assert_eq!(
            report_json(&r, []).to_string(),
            r#"{"schema":3,"phases":[],"threads":[]}"#
        );
        assert!(report_text(&r).starts_with("phase"));
    }

    #[test]
    fn run_fields_sit_between_schema_and_phases() {
        let r = Report {
            phases: vec![phase("sim.run", 1, 4000), phase("sim.step", 3, 1000)],
            threads: Vec::new(),
        };
        let doc = report_json(&r, [("coverage_pct", Json::f64_of(25.0))]).to_string();
        assert!(
            doc.starts_with(r#"{"schema":3,"coverage_pct":25,"phases":[{"name":"sim.run""#),
            "{doc}"
        );
        assert!(doc.contains(r#"{"name":"sim.step","count":3,"total_ns":1000,"mean_ns":333}"#));
        let text = report_text(&r);
        let step = text.lines().find(|l| l.starts_with("sim.step")).unwrap();
        assert!(step.trim_end().ends_with("25.0"), "{step}");
    }
}
