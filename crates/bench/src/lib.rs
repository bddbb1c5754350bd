//! # bfetch-bench
//!
//! The experiment driver that regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md §3 for the experiment index). One
//! executable, `bfetch`, runs them all:
//!
//! ```sh
//! cargo run --release -p bfetch-bench -- list            # name + what it shows
//! cargo run --release -p bfetch-bench -- fig08_single    # prints results/fig08_single.txt
//! cargo run --release -p bfetch-bench -- fig08_single --help
//! ```
//!
//! Each entry of the [`registry`] ([`registry::figures`]) names a figure,
//! its instruction budgets, the optional flags it implements and its
//! `run` function (the [`figures`] modules). A figure declares its
//! experiment as a [`SweepSpec`] of [`GridPoint`]s and executes it through
//! the [`Harness`], which parallelizes across `--threads N` workers and
//! serves repeated points from a content-addressed cache under
//! `results/cache/` (see the [`harness`] module); its rows go to stdout
//! through one [`Report`], as an aligned table or as `--json`. Every
//! figure takes the common flags ([`Opts`]): `--instructions N`,
//! `--warmup N`, `--small`, `--threads N`, `--json`, `--no-cache`,
//! `--cache-dir PATH`, `--profile DIR`; `--kernels`, `--programs`,
//! `--trace`, `--timeline` and `--quick` only where the entry declares
//! them (anywhere else they are a usage error, exit 2).

pub mod figures;
pub mod harness;
pub mod interrupt;
pub mod opts;
pub mod profiling;
pub mod registry;
pub mod report;

pub use harness::{
    FailureKind, GridPoint, Harness, MissingPoint, PointError, PointOutcome, SweepOutcome,
    SweepSpec, SweepStats,
};
pub use opts::{parse_bytes, usage, Opts, OptsError};
pub use profiling::ProfileGuard;
pub use registry::{Budget, Ctx, Figure, Flag};
pub use report::{rows_to_json, Report, Row};

use bfetch_stats::geomean;
use bfetch_workloads::kernels;

/// The figures' terminal error path: prints `error: <e>` to stderr and
/// exits with status 1 (stdout stays clean for the figure tables).
pub fn exit_err(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}

/// The geometric mean of each of the `ncols` columns of `rows`.
fn geomean_row(label: &str, ncols: usize, rows: &[&Row]) -> Row {
    let cols = (0..ncols)
        .map(|c| geomean(&rows.iter().map(|(_, r)| r[c]).collect::<Vec<_>>()))
        .collect();
    (label.to_string(), cols)
}

/// The two summary rows the paper's per-benchmark figures carry: the
/// geometric mean over all kernels and over the prefetch-sensitive
/// subset.
pub fn summary_rows(rows: &[Row]) -> Vec<Row> {
    let ncols = rows.first().map_or(0, |(_, r)| r.len());
    let sensitive = |name: &str| kernels().iter().any(|k| k.prefetch_sensitive && k.name == name);
    let all: Vec<&Row> = rows.iter().collect();
    let subset: Vec<&Row> = rows.iter().filter(|(name, _)| sensitive(name)).collect();
    vec![
        geomean_row("Geomean", ncols, &all),
        geomean_row("Geomean pf. sens.", ncols, &subset),
    ]
}

/// Geomean summary row over mix results.
pub fn mix_summary(rows: &[Row]) -> Row {
    let ncols = rows.first().map_or(0, |(_, r)| r.len());
    geomean_row("Geomean", ncols, &rows.iter().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_rows_compute_geomeans() {
        let rows: Vec<Row> = kernels()
            .iter()
            .map(|k| (k.name.to_string(), vec![if k.prefetch_sensitive { 2.0 } else { 1.0 }]))
            .collect();
        let s = summary_rows(&rows);
        assert_eq!(s.len(), 2);
        assert!(s[0].1[0] < 2.0 && s[0].1[0] > 1.0);
        assert!((s[1].1[0] - 2.0).abs() < 1e-12, "sensitive-only geomean");
    }

    #[test]
    fn mix_summary_is_columnwise_geomean() {
        let rows = vec![
            ("a".to_string(), vec![2.0, 1.0]),
            ("b".to_string(), vec![8.0, 1.0]),
        ];
        let (label, cols) = mix_summary(&rows);
        assert_eq!(label, "Geomean");
        assert!((cols[0] - 4.0).abs() < 1e-12);
        assert!((cols[1] - 1.0).abs() < 1e-12);
    }
}
