//! # bfetch-benchmark
//!
//! The one benchmark every performance or simplicity claim in this
//! repository is measured with: five workloads that stress different
//! crates, end-to-end metrics from timed runs with tracing off, and a
//! separate traced run that attributes host time to each layer from
//! outside (driver spans around calls into the crates' public functions,
//! plus the `bfetch_prof` spans that already exist inside the simulator).
//! See `README.md` next to this package for the tables.

pub mod compare;
pub mod doc;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workload;
