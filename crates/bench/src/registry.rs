//! The figure registry and the one dispatch path behind `bfetch <name>`.
//!
//! Every table, figure, extension and utility of the reproduction is one
//! [`Figure`] entry in [`figures`]: its name (also the basename of its
//! committed `results/<name>.txt`), what it shows, its instruction
//! budgets, the optional flags it implements, and the function that runs
//! it. [`main`] is the only entry point: it looks the name up, parses the
//! command line against the entry ([`Opts::parse`]), starts profiling,
//! and calls `run` with a [`Ctx`]. A flag the entry does not declare is a
//! usage error, never a silent no-op.

use crate::figures::{analysis, cmp, cpistack, direct, profile, realprog, speedup, sweeps, tools};
use crate::opts::{usage, Opts, OptsError, OwnFlags};
use crate::Harness;
use std::sync::OnceLock;

/// A per-core instruction budget: what `--instructions`/`--warmup`
/// default to for one figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Measured instructions per core.
    pub instructions: u64,
    /// Warmup instructions per core.
    pub warmup: u64,
}

impl Budget {
    /// The single-core figures' window.
    pub const COMMON: Budget = Budget::new(300_000, 150_000);
    /// The 8-core figures' window (8-core runs are heavy).
    pub const CMP8: Budget = Budget::new(120_000, 60_000);

    pub const fn new(instructions: u64, warmup: u64) -> Self {
        Self {
            instructions,
            warmup,
        }
    }
}

/// An optional flag: one of the shared four below, or a figure's own.
/// A name without a leading dash declares an operand (a bare argument,
/// repeatable) instead of a flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The spelling on the command line (`"--trace"`).
    pub name: &'static str,
    /// The value's placeholder in the help text; `None` for a switch.
    pub value: Option<&'static str>,
    /// One help line.
    pub help: &'static str,
}

impl Flag {
    pub const fn new(name: &'static str, value: Option<&'static str>, help: &'static str) -> Self {
        Self { name, value, help }
    }
}

/// `--kernels a,b,c`, parsed into [`Opts::kernels`].
pub const KERNELS: Flag = Flag::new(
    "--kernels",
    Some("a,b,c"),
    "restrict kernel sweeps to a subset",
);
/// `--programs a,b,c`, parsed into [`Opts::programs`].
pub const PROGRAMS: Flag = Flag::new(
    "--programs",
    Some("a,b,c"),
    "restrict real-program sweeps to a subset",
);
/// `--trace PATH`, parsed into [`Opts::trace`].
pub const TRACE: Flag = Flag::new("--trace", Some("PATH"), "write a JSONL lifecycle trace");
/// `--timeline PATH`, parsed into [`Opts::timeline`].
pub const TIMELINE: Flag = Flag::new(
    "--timeline",
    Some("PATH"),
    "write an interval timeline, JSONL or .csv",
);

/// One runnable entry of the registry.
pub struct Figure {
    /// The subcommand, and the basename of `results/<name>.txt`.
    pub name: &'static str,
    /// What it shows, in one line (the DESIGN.md §3 row).
    pub about: &'static str,
    /// The budget when `-n`/`--warmup` are not given.
    pub full: Budget,
    /// The `--quick` budget; `None` means `--quick` is not implemented.
    pub quick: Option<Budget>,
    /// The optional flags this figure implements.
    pub flags: &'static [Flag],
    /// Runs the figure and prints it to stdout.
    pub run: fn(&Ctx),
}

impl Figure {
    /// A kernel sweep at the common budget: the shape most entries have.
    const fn new(name: &'static str, about: &'static str, run: fn(&Ctx)) -> Self {
        Self {
            name,
            about,
            full: Budget::COMMON,
            quick: None,
            flags: &[KERNELS],
            run,
        }
    }

    const fn budget(mut self, full: Budget, quick: Option<Budget>) -> Self {
        self.full = full;
        self.quick = quick;
        self
    }

    const fn flags(mut self, flags: &'static [Flag]) -> Self {
        self.flags = flags;
        self
    }

    /// The declaration of `name`, if this figure implements it.
    pub fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.name == name)
    }
}

/// What a figure's `run` receives: the parsed options, its own flags, and
/// the harness (built on first use, so an entry that never sweeps neither
/// creates the cache directory nor takes over SIGINT).
pub struct Ctx {
    /// The shared options, budget already resolved.
    pub opts: Opts,
    own: OwnFlags,
    harness: OnceLock<Harness>,
}

impl Ctx {
    pub fn new(opts: Opts, own: OwnFlags) -> Self {
        Self {
            opts,
            own,
            harness: OnceLock::new(),
        }
    }

    /// The harness configured from the options ([`Harness::from_opts`]).
    pub fn harness(&self) -> &Harness {
        self.harness.get_or_init(|| Harness::from_opts(&self.opts))
    }

    /// Every value given for the figure's own flag (or operand) `name`,
    /// in command-line order; a switch yields an empty string.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.own
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The last value given for the figure's own flag `name`.
    pub fn own<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.all(name).last()
    }

    /// [`Ctx::own`] parsed; a value that does not parse is a usage error
    /// (message on stderr, exit 2).
    pub fn parsed<T: std::str::FromStr>(&self, name: &'static str) -> Option<T> {
        self.own(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage_error(OptsError::BadValue(name, v.to_string())))
        })
    }
}

/// A usage error found after parsing (the value of a figure's own flag,
/// or the configuration the flags add up to): the message on stderr,
/// exit 2.
pub fn usage_error(e: impl std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2)
}

const PROFILE_FLAGS: &[Flag] = &[
    Flag::new(
        "--out",
        Some("PATH"),
        "phase-report JSON (default target/PROF_phase_report.json)",
    ),
    Flag::new(
        "--min-coverage",
        Some("PCT"),
        "fail if the run covers less than PCT of sim.run",
    ),
    Flag::new(
        "--check-trace",
        Some("FILE"),
        "validate a Chrome trace-event JSON file and exit",
    ),
];

const SIMULATE_FLAGS: &[Flag] = &[
    KERNELS,
    Flag::new(
        "--prefetcher",
        Some("KIND"),
        "none|stride|sms|bfetch|perfect (default none)",
    ),
    Flag::new("--width", Some("N"), "pipeline width (default 4)"),
    Flag::new("--writebacks", None, "model dirty-line writebacks"),
    Flag::new(
        "--row-dram",
        None,
        "bank/row-buffer DRAM instead of flat latency",
    ),
    Flag::new(
        "--confidence",
        Some("T"),
        "B-Fetch path-confidence threshold",
    ),
    Flag::new("--list", None, "list the kernel registry and exit"),
    Flag::new("--dump", Some("KERNEL"), "disassemble a kernel and exit"),
];

/// One entry named after its `run` function: the registry name, the
/// function and `results/<name>.txt` cannot drift apart.
macro_rules! entry {
    ($module:ident :: $run:ident, $about:literal) => {
        Figure::new(stringify!($run), $about, $module::$run)
    };
}

static FIGURES: [Figure; 23] = [
    entry!(
        analysis::tab1_storage,
        "Table I: storage overhead (KB) of B-Fetch vs SMS components"
    )
    .flags(&[]),
    entry!(
        speedup::fig01_perfect,
        "Figure 1: Stride / SMS / Perfect speedups over no prefetching, 18 kernels + geomeans"
    ),
    entry!(
        analysis::fig03_deltas,
        "Figure 3a/3b: CDF of register-content vs effective-address variation over 1/3/12 BBs"
    ),
    entry!(
        analysis::fig07_branches,
        "Figure 7: breakdown of branches fetched per cycle"
    ),
    entry!(
        speedup::fig08_single,
        "Figure 8: single-threaded speedup, Stride vs SMS vs B-Fetch"
    ),
    entry!(
        cmp::fig09_mix2,
        "Figure 9: normalized weighted speedup, 29 FOA-selected 2-app mixes"
    )
    .flags(&[]),
    entry!(
        cmp::fig10_mix4,
        "Figure 10: normalized weighted speedup, 29 FOA-selected 4-app mixes"
    )
    .flags(&[]),
    entry!(
        sweeps::fig11_accuracy,
        "Figure 11: useful vs useless prefetches, SMS vs B-Fetch"
    ),
    entry!(
        speedup::fig12_confidence,
        "Figure 12: path-confidence threshold sensitivity (0.45/0.75/0.90)"
    ),
    entry!(
        sweeps::fig13_bpsize,
        "Figure 13: branch predictor size sensitivity (0.5x/1x/2x/4x) + miss rate"
    ),
    entry!(
        speedup::fig14_width,
        "Figure 14: pipeline width sensitivity (2/4/8-wide)"
    ),
    entry!(
        speedup::fig15_storage,
        "Figure 15: B-Fetch storage sensitivity (BrTC/MHT entries)"
    ),
    entry!(
        cmp::fig16_cmp,
        "top-contention mix at 2/4/8 cores: weighted speedup + per-core CPI stacks"
    )
    .budget(Budget::CMP8, Some(Budget::new(20_000, 10_000)))
    .flags(&[]),
    entry!(
        realprog::fig_realprog,
        "real programs vs the synthetic kernels modeling them (none/stride/bfetch)"
    )
    .budget(
        Budget::new(1_200_000, 300_000),
        Some(Budget::new(30_000, 15_000)),
    )
    .flags(&[PROGRAMS]),
    entry!(
        speedup::ext_ablation,
        "ablation: per-load filter, loop detection, pos/negPatt, execute- vs retire-sampled ARF"
    ),
    entry!(cmp::ext_mix8, "Section V-B2: 8-core CMP, top-10 FOA mixes")
        .budget(Budget::CMP8, None)
        .flags(&[]),
    entry!(
        sweeps::ext_dram,
        "substrate study: flat-latency vs bank/row-buffer DRAM"
    ),
    entry!(
        direct::ext_lifecycle,
        "traced B-Fetch prefetch lifecycle: accuracy / coverage / timeliness / pollution / lead"
    )
    .flags(&[KERNELS, TRACE]),
    entry!(
        cpistack::ext_cpistack,
        "top-down CPI-stack breakdown per kernel, none vs stride vs B-Fetch"
    )
    .budget(Budget::COMMON, Some(Budget::new(30_000, 15_000)))
    .flags(&[KERNELS, TIMELINE]),
    entry!(
        profile::ext_profile,
        "measured per-phase host cost of the mix8 run (timing: stdout is run-dependent)"
    )
    .budget(Budget::CMP8, Some(Budget::new(15_000, 8_000)))
    .flags(PROFILE_FLAGS),
    entry!(
        tools::simulate,
        "run any kernel or mix under any prefetcher/width and print the full result"
    )
    .budget(Budget::new(200_000, 100_000), None)
    .flags(SIMULATE_FLAGS),
    entry!(
        tools::probe,
        "diagnostic: per-kernel prefetcher internals (always --small; default libquantum)"
    )
    .budget(Budget::new(60_000, 20_000), None),
    entry!(
        tools::asmcheck,
        "assemble .s files and report their shape; exit 1 if any fails"
    )
    .flags(&[Flag::new(
        "FILE.s",
        None,
        "assembly source to check (repeatable)",
    )]),
];

/// Every runnable entry, in listing order: the paper's artifacts, the
/// extensions, then the utilities.
pub fn figures() -> &'static [Figure] {
    &FIGURES
}

/// `bfetch list`: one `name  about` line per entry.
fn listing() -> String {
    figures()
        .iter()
        .map(|f| format!("{:<16}  {}\n", f.name, f.about))
        .collect()
}

/// The `bfetch` command line: `bfetch list`, or `bfetch <name> [flags]`.
/// Returns the process exit status (a failing sweep exits from inside
/// `run`; see [`crate::SweepOutcome::or_fail`]).
pub fn main(args: impl IntoIterator<Item = String>) -> i32 {
    let mut args = args.into_iter();
    let name = args.next();
    if name.as_deref() == Some("list") {
        print!("{}", listing());
        return 0;
    }
    let Some(fig) = figures().iter().find(|f| Some(f.name) == name.as_deref()) else {
        if let Some(name) = name {
            eprintln!("error: no figure named {name:?}");
        }
        eprintln!("usage: bfetch list | bfetch <name> [flags] | bfetch <name> --help");
        eprint!("{}", listing());
        return 2;
    };
    let (opts, own) = match Opts::parse(fig, args) {
        Ok(parsed) => parsed,
        Err(OptsError::HelpRequested) => {
            println!("{}", usage(fig));
            return 0;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage(fig));
            return 2;
        }
    };
    let _prof = crate::profiling::start(&opts);
    (fig.run)(&Ctx::new(opts, own));
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quick_budget_is_smaller_than_the_full_one() {
        for f in figures() {
            if let Some(q) = f.quick {
                assert!(q.instructions < f.full.instructions, "{}", f.name);
                assert!(q.warmup <= f.full.warmup, "{}", f.name);
            }
        }
    }

    #[test]
    fn own_flags_come_back_in_order_and_typed() {
        let fig = figures().iter().find(|f| f.name == "simulate").unwrap();
        let argv = ["--width", "2", "--writebacks", "--width", "8"].map(String::from);
        let (opts, own) = Opts::parse(fig, argv).unwrap();
        let ctx = Ctx::new(opts, own);
        assert_eq!(ctx.all("--width").collect::<Vec<_>>(), ["2", "8"]);
        assert_eq!(ctx.parsed::<usize>("--width"), Some(8));
        assert_eq!(ctx.own("--writebacks"), Some(""));
        assert_eq!(ctx.own("--row-dram"), None);
    }

    #[test]
    fn operands_are_collected_only_where_declared() {
        let asmcheck = figures().iter().find(|f| f.name == "asmcheck").unwrap();
        let (_, own) = Opts::parse(asmcheck, ["a.s", "b.s"].map(String::from)).unwrap();
        assert_eq!(
            own,
            [("FILE.s", "a.s".to_string()), ("FILE.s", "b.s".to_string())]
        );
        let fig08 = figures().iter().find(|f| f.name == "fig08_single").unwrap();
        assert_eq!(
            Opts::parse(fig08, ["a.s".to_string()]).unwrap_err(),
            OptsError::UnknownFlag("a.s".into())
        );
    }
}
