//! Shared command-line options for every registry entry.
//!
//! One parser serves all of `bfetch <name> [flags]`: [`Opts::parse`] takes
//! the [`Figure`] being run, so the defaults are that figure's budget and
//! an optional flag it does not declare is an error. Parsing is fallible
//! (`Result`, no panics); [`crate::registry::main`] prints the message
//! plus [`usage`] and exits 2.

use crate::registry::{Budget, Figure};
use bfetch_sim::{PrefetcherKind, SimConfig};
use bfetch_workloads::{kernel_by_name, kernels, program_by_name, programs, Kernel, Scale};
use std::path::PathBuf;

/// Common command-line options for the figures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opts {
    /// Measured instructions per core (default: the figure's budget).
    pub instructions: u64,
    /// Warmup instructions per core (default: the figure's budget).
    pub warmup: u64,
    /// `--quick`: the figure's reduced budget (CI smoke runs), on the
    /// figures that define one.
    pub quick: bool,
    /// Workload scale.
    pub scale: Scale,
    /// Worker threads for the experiment harness (grid parallelism: how
    /// many independent simulations run at once).
    pub threads: usize,
    /// Emit machine-readable JSON results on stdout instead of tables.
    pub json: bool,
    /// Bypass the on-disk result cache entirely.
    pub no_cache: bool,
    /// Result cache directory override (default `results/cache/`).
    pub cache_dir: Option<PathBuf>,
    /// Run the cache maintenance sweep (`ResultCache::gc`) before the
    /// sweep: removes stranded temp files, quarantined and stale-schema
    /// entries, then LRU-evicts down to `cache_cap` bytes.
    pub cache_gc: bool,
    /// Byte cap enforced by `--cache-gc` (default 512 MiB; `--cache-cap`
    /// accepts a plain byte count or a K/M/G suffix).
    pub cache_cap: u64,
    /// Restrict kernel sweeps to this subset (`--kernels a,b,c`).
    pub kernels: Option<Vec<String>>,
    /// Restrict real-program sweeps to this subset (`--programs a,b,c`;
    /// figures that sweep the `workloads::programs` family).
    pub programs: Option<Vec<String>>,
    /// Write a JSONL lifecycle trace here (figures that support tracing;
    /// see DESIGN.md's Observability chapter for the schema).
    pub trace: Option<PathBuf>,
    /// Write an interval timeline here (figures with CPI accounting;
    /// `.csv` selects CSV, anything else JSONL — see DESIGN.md §10).
    pub timeline: Option<PathBuf>,
    /// Enable host-side profiling and write the sidecar files (Chrome
    /// trace + phase report) into this directory. Stdout is unaffected —
    /// the byte-identity contract holds with or without profiling (see
    /// DESIGN.md §14).
    pub profile: Option<PathBuf>,
}

/// A malformed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptsError {
    /// A flag that no figure understands.
    UnknownFlag(String),
    /// An optional flag (`--kernels`, `--programs`, `--trace`,
    /// `--timeline`, `--quick`) given to a figure that does not implement
    /// it: accepting it would be a silent no-op.
    NotImplemented {
        /// The flag as given.
        flag: String,
        /// The figure that was asked to honour it.
        figure: &'static str,
    },
    /// A flag that requires a value was given none.
    MissingValue(&'static str),
    /// A flag value that did not parse.
    BadValue(&'static str, String),
    /// `--kernels` named a kernel that is not in the registry.
    UnknownKernel(String),
    /// `--programs` named a real program that is not in the registry.
    UnknownProgram(String),
    /// `--help` was requested (not an error; callers print usage and exit 0).
    HelpRequested,
}

impl std::fmt::Display for OptsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptsError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            OptsError::NotImplemented { flag, figure } => {
                write!(f, "{figure} does not implement {flag}")
            }
            OptsError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            OptsError::BadValue(flag, v) => write!(f, "invalid value {v:?} for {flag}"),
            OptsError::UnknownKernel(name) => {
                write!(f, "unknown kernel {name:?} (see --help for the registry)")
            }
            OptsError::UnknownProgram(name) => {
                write!(f, "unknown program {name:?} (see --help for the registry)")
            }
            OptsError::HelpRequested => write!(f, "help requested"),
        }
    }
}

impl std::error::Error for OptsError {}

impl Default for Opts {
    fn default() -> Self {
        Self {
            instructions: Budget::COMMON.instructions,
            warmup: Budget::COMMON.warmup,
            quick: false,
            scale: Scale::Full,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            json: false,
            no_cache: false,
            cache_dir: None,
            cache_gc: false,
            cache_cap: 512 * 1024 * 1024,
            kernels: None,
            programs: None,
            trace: None,
            timeline: None,
            profile: None,
        }
    }
}

/// Parses a byte count with an optional K/M/G suffix (binary multiples,
/// case-insensitive): `"4096"`, `"64K"`, `"512M"`, `"2G"`.
pub fn parse_bytes(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1024u64),
        b'm' | b'M' => (&s[..s.len() - 1], 1024 * 1024),
        b'g' | b'G' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// The flag reference for `fig`: its own and optional flags first, then
/// the flags every figure takes (defaults filled in from its budget).
pub fn usage(fig: &Figure) -> String {
    let mut own = String::new();
    for f in fig.flags {
        let spec = f
            .value
            .map_or(f.name.to_string(), |v| format!("{} {v}", f.name));
        own.push_str(&format!("  {spec:<24} {}\n", f.help));
    }
    if let Some(q) = fig.quick {
        own.push_str(&format!(
            "  {:<24} reduced budget: {} instructions, {} warmup (CI smoke run)\n",
            "--quick", q.instructions, q.warmup
        ));
    }
    // each registry is listed only where its selection flag is accepted
    let mut lists = String::new();
    for (list, registry) in [("kernels", kernels()), ("programs", programs())] {
        if fig.flag(&format!("--{list}")).is_some() {
            let names: Vec<&str> = registry.iter().map(|k| k.name).collect();
            lists.push_str(&format!("\n{list}: {}", names.join(", ")));
        }
    }
    format!(
        "bfetch {} -- {}\n\
         {own}\
         common flags:\n\
         \x20 --instructions N, -n N   measured instructions per core (default {})\n\
         \x20 --warmup N               warmup instructions per core (default {})\n\
         \x20 --small                  reduced workload footprints\n\
         \x20 --threads N, -j N        harness worker threads (default: all cores)\n\
         \x20 --json                   machine-readable JSON results on stdout\n\
         \x20 --no-cache               bypass the on-disk result cache\n\
         \x20 --cache-dir PATH         result cache location (default results/cache)\n\
         \x20 --cache-gc               sweep the cache first: drop stranded/stale/corrupt\n\
         \x20                          entries, then LRU-evict down to --cache-cap\n\
         \x20 --cache-cap BYTES        byte cap for --cache-gc (default 512M; K/M/G ok)\n\
         \x20 --profile DIR            profile the host process: Chrome trace + phase report\n\
         \x20                          written into DIR (sidecar files; stdout unchanged)\n\
         \x20 --help, -h               this message{lists}",
        fig.name, fig.about, fig.full.instructions, fig.full.warmup,
    )
}

/// `flag`'s value through `convert`; `None` is a [`OptsError::BadValue`].
fn convert<T>(
    flag: &'static str,
    v: String,
    convert: impl Fn(&str) -> Option<T>,
) -> Result<T, OptsError> {
    convert(&v).ok_or(OptsError::BadValue(flag, v))
}

/// `flag`'s value as a count.
fn number(flag: &'static str, v: String) -> Result<u64, OptsError> {
    convert(flag, v, |v| v.parse().ok())
}

/// Splits a comma-separated list, rejecting the first name not `known`.
fn name_list(
    v: &str,
    known: impl Fn(&str) -> bool,
    unknown: fn(String) -> OptsError,
) -> Result<Vec<String>, OptsError> {
    let names: Vec<String> = v.split(',').map(str::to_string).collect();
    match names.iter().find(|n| !known(n)) {
        Some(n) => Err(unknown(n.clone())),
        None => Ok(names),
    }
}

/// The entries of `registry` named in `subset` (all of them for `None`),
/// in registry order whatever the flag's order: `parse` validated the
/// names, so filtering the registry loses nothing.
fn select(registry: &'static [Kernel], subset: &Option<Vec<String>>) -> Vec<&'static Kernel> {
    registry
        .iter()
        .filter(|k| {
            subset
                .as_ref()
                .is_none_or(|names| names.iter().any(|n| n == k.name))
        })
        .collect()
}

/// A figure's own flags and operands as given: `(declared name, value)`
/// in command-line order (a switch carries an empty value).
pub type OwnFlags = Vec<(&'static str, String)>;

impl Opts {
    /// Parses the arguments after `bfetch <name>` for `fig`: the common
    /// flags always; `--kernels`, `--programs`, `--trace`, `--timeline`
    /// and `--quick` only if `fig` declares them; anything else `fig`
    /// declares is returned in the [`OwnFlags`]. Where `-n`/`--warmup`
    /// are absent the figure's budget applies (`quick` under `--quick`).
    pub fn parse<I>(fig: &Figure, args: I) -> Result<(Self, OwnFlags), OptsError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut o = Self::default();
        let mut own = OwnFlags::new();
        let (mut instructions, mut warmup) = (None, None);
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut value = |flag: &'static str| -> Result<String, OptsError> {
                args.next().ok_or(OptsError::MissingValue(flag))
            };
            let declared = fig.flag(&a).is_some();
            match a.as_str() {
                "--instructions" | "-n" => {
                    instructions = Some(number("--instructions", value("--instructions")?)?)
                }
                "--warmup" => warmup = Some(number("--warmup", value("--warmup")?)?),
                "--quick" if fig.quick.is_some() => o.quick = true,
                "--small" => o.scale = Scale::Small,
                "--threads" | "-j" => {
                    let positive = |v: &str| v.parse().ok().filter(|&n: &usize| n > 0);
                    o.threads = convert("--threads", value("--threads")?, positive)?;
                }
                "--kernels" if declared => {
                    let known = |n: &str| kernel_by_name(n).is_some();
                    o.kernels = Some(name_list(
                        &value("--kernels")?,
                        known,
                        OptsError::UnknownKernel,
                    )?);
                }
                "--programs" if declared => {
                    let known = |n: &str| program_by_name(n).is_some();
                    o.programs = Some(name_list(
                        &value("--programs")?,
                        known,
                        OptsError::UnknownProgram,
                    )?);
                }
                "--json" => o.json = true,
                "--no-cache" => o.no_cache = true,
                "--cache-dir" => o.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
                "--cache-gc" => o.cache_gc = true,
                "--cache-cap" => {
                    o.cache_cap = convert("--cache-cap", value("--cache-cap")?, parse_bytes)?
                }
                "--trace" if declared => o.trace = Some(PathBuf::from(value("--trace")?)),
                "--timeline" if declared => o.timeline = Some(PathBuf::from(value("--timeline")?)),
                "--profile" => o.profile = Some(PathBuf::from(value("--profile")?)),
                "--help" | "-h" => return Err(OptsError::HelpRequested),
                "--quick" | "--kernels" | "--programs" | "--trace" | "--timeline" => {
                    return Err(OptsError::NotImplemented {
                        flag: a,
                        figure: fig.name,
                    })
                }
                other => {
                    // the figure's own: a declared flag by name, or a bare
                    // argument where it declares an operand
                    let bare = !other.starts_with('-');
                    let own_flag = match bare {
                        true => fig.flags.iter().find(|f| !f.name.starts_with('-')),
                        false => fig.flag(other),
                    };
                    let Some(f) = own_flag else {
                        return Err(OptsError::UnknownFlag(a));
                    };
                    let v = match f.value {
                        _ if bare => a,
                        Some(_) => value(f.name)?,
                        None => String::new(),
                    };
                    own.push((f.name, v));
                }
            }
        }
        let budget = match fig.quick {
            Some(q) if o.quick => q,
            _ => fig.full,
        };
        o.instructions = instructions.unwrap_or(budget.instructions);
        o.warmup = warmup.unwrap_or(budget.warmup);
        Ok((o, own))
    }

    /// A [`SimConfig`] carrying this run's warmup and the given
    /// prefetcher.
    pub fn config(&self, kind: PrefetcherKind) -> SimConfig {
        SimConfig::baseline()
            .with_prefetcher(kind)
            .with_warmup(self.warmup)
    }

    /// The kernels this run sweeps: the `--kernels` subset if given
    /// (registry order), otherwise the full registry.
    pub fn selected_kernels(&self) -> Vec<&'static Kernel> {
        select(kernels(), &self.kernels)
    }

    /// The real programs this run sweeps: the `--programs` subset if given
    /// (registry order), otherwise the full program registry.
    pub fn selected_programs(&self) -> Vec<&'static Kernel> {
        select(programs(), &self.programs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{figures, Ctx, KERNELS, PROGRAMS, TIMELINE, TRACE};

    fn no_run(_: &Ctx) {}

    /// A figure that declares every optional flag.
    const ALL: Figure = Figure {
        name: "all",
        about: "test figure",
        full: Budget::COMMON,
        quick: Some(Budget::new(7_000, 3_000)),
        flags: &[KERNELS, PROGRAMS, TRACE, TIMELINE],
        run: no_run,
    };

    fn parse(args: &[&str]) -> Result<Opts, OptsError> {
        Opts::parse(&ALL, args.iter().map(|s| s.to_string())).map(|(o, _)| o)
    }

    fn parse_for(name: &str, args: &[&str]) -> Result<Opts, OptsError> {
        let fig = figures()
            .iter()
            .find(|f| f.name == name)
            .expect("registered");
        Opts::parse(fig, args.iter().map(|s| s.to_string())).map(|(o, _)| o)
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.instructions, 300_000);
        assert_eq!(o.warmup, 150_000);
        assert_eq!(o.scale, Scale::Full);
        assert!(o.threads >= 1);
        assert!(!o.json && !o.no_cache && !o.quick);
        assert!(o.kernels.is_none());
        assert!(o.programs.is_none());
        assert!(o.trace.is_none());
        assert!(o.timeline.is_none());
        assert!(o.profile.is_none());
    }

    #[test]
    fn full_flag_set() {
        let o = parse(&[
            "--instructions",
            "5000",
            "--warmup",
            "100",
            "--small",
            "--threads",
            "4",
            "--kernels",
            "mcf,astar",
            "--json",
            "--no-cache",
            "--cache-dir",
            "/tmp/c",
            "--trace",
            "/tmp/t.jsonl",
            "--timeline",
            "/tmp/tl.csv",
            "--profile",
            "/tmp/prof",
        ])
        .unwrap();
        assert_eq!(o.instructions, 5000);
        assert_eq!(o.warmup, 100);
        assert_eq!(o.scale, Scale::Small);
        assert_eq!(o.threads, 4);
        assert_eq!(
            o.kernels.as_deref(),
            Some(&["mcf".to_string(), "astar".to_string()][..])
        );
        assert!(o.json && o.no_cache);
        assert_eq!(o.cache_dir.as_deref(), Some(std::path::Path::new("/tmp/c")));
        assert_eq!(
            o.trace.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        assert_eq!(
            o.timeline.as_deref(),
            Some(std::path::Path::new("/tmp/tl.csv"))
        );
        assert_eq!(
            o.profile.as_deref(),
            Some(std::path::Path::new("/tmp/prof"))
        );
    }

    #[test]
    fn errors_are_values_not_panics() {
        assert_eq!(
            parse(&["--bogus"]),
            Err(OptsError::UnknownFlag("--bogus".into()))
        );
        assert_eq!(
            parse(&["--instructions"]),
            Err(OptsError::MissingValue("--instructions"))
        );
        assert!(matches!(
            parse(&["--threads", "zero"]),
            Err(OptsError::BadValue("--threads", _))
        ));
        assert!(matches!(
            parse(&["--threads", "0"]),
            Err(OptsError::BadValue("--threads", _))
        ));
        // the parallel CMP engine and its flag are gone
        assert_eq!(
            parse(&["--sim-threads", "4"]),
            Err(OptsError::UnknownFlag("--sim-threads".into()))
        );
        assert_eq!(
            parse(&["--kernels", "mcf,nonesuch"]),
            Err(OptsError::UnknownKernel("nonesuch".into()))
        );
        assert_eq!(
            parse(&["--programs", "quicksort,mcf"]),
            Err(OptsError::UnknownProgram("mcf".into()))
        );
        assert_eq!(parse(&["--help"]), Err(OptsError::HelpRequested));
    }

    #[test]
    fn budget_comes_from_the_figure_unless_given() {
        let o = parse_for("ext_mix8", &[]).unwrap();
        assert_eq!((o.instructions, o.warmup), (120_000, 60_000));
        let o = parse_for("ext_mix8", &["-n", "5000"]).unwrap();
        assert_eq!((o.instructions, o.warmup), (5_000, 60_000));
        // --quick picks the quick budget wherever it sits on the line,
        // and an explicit value still wins
        let o = parse(&["--warmup", "9", "--quick"]).unwrap();
        assert!(o.quick);
        assert_eq!((o.instructions, o.warmup), (7_000, 9));
    }

    #[test]
    fn a_flag_the_figure_does_not_implement_is_an_error() {
        let not_implemented = |figure: &'static str, flag: &str| {
            Err(OptsError::NotImplemented {
                flag: flag.into(),
                figure,
            })
        };
        assert_eq!(
            parse_for("fig08_single", &["--trace", "x"]),
            not_implemented("fig08_single", "--trace")
        );
        assert_eq!(
            parse_for("fig08_single", &["--quick"]),
            not_implemented("fig08_single", "--quick")
        );
        assert_eq!(
            parse_for("fig09_mix2", &["--kernels", "mcf"]),
            not_implemented("fig09_mix2", "--kernels")
        );
        assert_eq!(
            parse_for("ext_cpistack", &["--programs", "sieve"]),
            not_implemented("ext_cpistack", "--programs")
        );
        assert!(parse_for("ext_lifecycle", &["--trace", "x"])
            .unwrap()
            .trace
            .is_some());
        assert!(
            parse_for("ext_cpistack", &["--timeline", "x", "--quick"])
                .unwrap()
                .quick
        );
        // simulate shares the parser: -j works there like everywhere else
        assert_eq!(parse_for("simulate", &["-j", "2"]).unwrap().threads, 2);
        let msg = OptsError::NotImplemented {
            flag: "--trace".into(),
            figure: "fig08_single",
        };
        assert_eq!(msg.to_string(), "fig08_single does not implement --trace");
    }

    #[test]
    fn usage_lists_the_figures_own_flags_and_budget() {
        let fig = figures().iter().find(|f| f.name == "fig16_cmp").unwrap();
        let text = usage(fig);
        assert!(text.starts_with("bfetch fig16_cmp -- "), "{text}");
        assert!(
            text.contains("--quick") && text.contains("20000 instructions"),
            "{text}"
        );
        assert!(
            text.contains("(default 120000)") && text.contains("common flags:"),
            "{text}"
        );
        assert!(!text.contains("--trace"), "{text}");
    }

    #[test]
    fn cache_gc_flags_parse() {
        let o = parse(&["--cache-gc"]).unwrap();
        assert!(o.cache_gc);
        assert_eq!(o.cache_cap, 512 * 1024 * 1024);
        let o = parse(&["--cache-gc", "--cache-cap", "4096"]).unwrap();
        assert_eq!(o.cache_cap, 4096);
        assert_eq!(parse(&["--cache-cap", "64K"]).unwrap().cache_cap, 64 * 1024);
        assert_eq!(
            parse(&["--cache-cap", "2g"]).unwrap().cache_cap,
            2 * 1024 * 1024 * 1024
        );
        assert!(matches!(
            parse(&["--cache-cap", "lots"]),
            Err(OptsError::BadValue("--cache-cap", _))
        ));
        assert!(matches!(
            parse(&["--cache-cap"]),
            Err(OptsError::MissingValue("--cache-cap"))
        ));
    }

    #[test]
    fn selected_kernels_keeps_registry_order() {
        let o = parse(&["--kernels", "sjeng,mcf"]).unwrap();
        let sel = o.selected_kernels();
        let names: Vec<&str> = sel.iter().map(|k| k.name).collect();
        // mcf precedes sjeng in the registry regardless of flag order
        assert_eq!(names, ["mcf", "sjeng"]);
        assert_eq!(parse(&[]).unwrap().selected_kernels().len(), 18);
    }

    #[test]
    fn selected_programs_keeps_registry_order() {
        let o = parse(&["--programs", "sieve,blur"]).unwrap();
        let names: Vec<&str> = o.selected_programs().iter().map(|k| k.name).collect();
        assert_eq!(names, ["blur", "sieve"]);
        assert_eq!(parse(&[]).unwrap().selected_programs().len(), 6);
    }

    #[test]
    fn config_carries_warmup_and_kind() {
        let o = parse(&["--warmup", "1234"]).unwrap();
        let c = o.config(PrefetcherKind::Sms);
        assert_eq!(c.warmup_insts, 1234);
        assert_eq!(c.prefetcher.name(), "sms");
    }

    #[test]
    fn error_messages_name_the_flag() {
        let msg = OptsError::BadValue("--threads", "x".into()).to_string();
        assert!(msg.contains("--threads"));
        let msg = OptsError::UnknownKernel("zzz".into()).to_string();
        assert!(msg.contains("zzz"));
    }
}
