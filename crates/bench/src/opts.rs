//! Shared command-line options for every experiment binary.
//!
//! Parsing is fallible ([`Opts::parse`] returns `Result`) so binaries can
//! print a usage message and exit nonzero instead of panicking; the
//! convenience wrapper [`Opts::parse_or_exit`] does exactly that.

use bfetch_sim::{PrefetcherKind, SimConfig};
use bfetch_workloads::{kernel_by_name, kernels, program_by_name, programs, Kernel, Scale};
use std::path::PathBuf;

/// Common command-line options for the figure binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opts {
    /// Measured instructions per core.
    pub instructions: u64,
    /// Warmup instructions per core.
    pub warmup: u64,
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
    /// Periodic snapshot-sidecar cadence in cycles for harness-run grid
    /// points (0, the default, writes a sidecar only when interrupted).
    /// Sidecars live next to the cache entries, so this needs the cache;
    /// see DESIGN.md §15.
    pub checkpoint_every: u64,
    /// Restrict kernel sweeps to this subset (`--kernels a,b,c`).
    pub kernels: Option<Vec<String>>,
    /// Restrict real-program sweeps to this subset (`--programs a,b,c`;
    /// binaries that sweep the `workloads::programs` family).
    pub programs: Option<Vec<String>>,
    /// Write a JSONL lifecycle trace here (binaries that support tracing;
    /// see DESIGN.md's Observability chapter for the schema).
    pub trace: Option<PathBuf>,
    /// Write an interval timeline here (binaries with CPI accounting;
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
    /// A flag that no binary understands.
    UnknownFlag(String),
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
            instructions: 300_000,
            warmup: 150_000,
            scale: Scale::Full,
            threads: default_threads(),
            json: false,
            no_cache: false,
            cache_dir: None,
            cache_gc: false,
            cache_cap: 512 * 1024 * 1024,
            checkpoint_every: 0,
            kernels: None,
            programs: None,
            trace: None,
            timeline: None,
            profile: None,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
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

/// The flag reference shared by all binaries.
pub fn usage() -> String {
    let names: Vec<&str> = kernels().iter().map(|k| k.name).collect();
    let prog_names: Vec<&str> = programs().iter().map(|k| k.name).collect();
    format!(
        "common flags:\n\
         \x20 --instructions N, -n N   measured instructions per core (default 300000)\n\
         \x20 --warmup N               warmup instructions per core (default 150000)\n\
         \x20 --small                  reduced workload footprints\n\
         \x20 --threads N, -j N        harness worker threads (default: all cores)\n\
         \x20 --kernels a,b,c          restrict kernel sweeps to a subset\n\
         \x20 --programs a,b,c         restrict real-program sweeps to a subset\n\
         \x20 --json                   machine-readable JSON results on stdout\n\
         \x20 --no-cache               bypass the on-disk result cache\n\
         \x20 --cache-dir PATH         result cache location (default results/cache)\n\
         \x20 --cache-gc               sweep the cache first: drop stranded/stale/corrupt\n\
         \x20                          entries, then LRU-evict down to --cache-cap\n\
         \x20 --cache-cap BYTES        byte cap for --cache-gc (default 512M; K/M/G ok)\n\
         \x20 --checkpoint-every N     write a resumable snapshot sidecar into the cache\n\
         \x20                          dir every N cycles (0 = only on Ctrl-C; killed or\n\
         \x20                          interrupted sweeps resume on the next invocation)\n\
         \x20 --trace PATH             write a JSONL lifecycle trace (tracing binaries)\n\
         \x20 --timeline PATH          write an interval timeline, JSONL or .csv (CPI binaries)\n\
         \x20 --profile DIR            profile the host process: Chrome trace + phase report\n\
         \x20                          written into DIR (sidecar files; stdout unchanged)\n\
         \x20 --help, -h               this message\n\
         kernels: {}\n\
         programs: {}",
        names.join(", "),
        prog_names.join(", ")
    )
}

impl Opts {
    /// Parses the standard flags from an argument list (without the
    /// program name).
    pub fn parse<I>(args: I) -> Result<Self, OptsError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut o = Self::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut value = |flag: &'static str| -> Result<String, OptsError> {
                args.next().ok_or(OptsError::MissingValue(flag))
            };
            match a.as_str() {
                "--instructions" | "-n" => {
                    let v = value("--instructions")?;
                    o.instructions = v
                        .parse()
                        .map_err(|_| OptsError::BadValue("--instructions", v))?;
                }
                "--warmup" => {
                    let v = value("--warmup")?;
                    o.warmup = v.parse().map_err(|_| OptsError::BadValue("--warmup", v))?;
                }
                "--small" => o.scale = Scale::Small,
                "--threads" | "-j" => {
                    let v = value("--threads")?;
                    o.threads = v
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or(OptsError::BadValue("--threads", v))?;
                }
                "--kernels" => {
                    let v = value("--kernels")?;
                    let names: Vec<String> = v.split(',').map(str::to_string).collect();
                    for n in &names {
                        if kernel_by_name(n).is_none() {
                            return Err(OptsError::UnknownKernel(n.clone()));
                        }
                    }
                    o.kernels = Some(names);
                }
                "--programs" => {
                    let v = value("--programs")?;
                    let names: Vec<String> = v.split(',').map(str::to_string).collect();
                    for n in &names {
                        if program_by_name(n).is_none() {
                            return Err(OptsError::UnknownProgram(n.clone()));
                        }
                    }
                    o.programs = Some(names);
                }
                "--json" => o.json = true,
                "--no-cache" => o.no_cache = true,
                "--cache-dir" => o.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
                "--cache-gc" => o.cache_gc = true,
                "--cache-cap" => {
                    let v = value("--cache-cap")?;
                    o.cache_cap =
                        parse_bytes(&v).ok_or(OptsError::BadValue("--cache-cap", v))?;
                }
                "--checkpoint-every" => {
                    let v = value("--checkpoint-every")?;
                    o.checkpoint_every = v
                        .parse()
                        .map_err(|_| OptsError::BadValue("--checkpoint-every", v))?;
                }
                "--trace" => o.trace = Some(PathBuf::from(value("--trace")?)),
                "--timeline" => o.timeline = Some(PathBuf::from(value("--timeline")?)),
                "--profile" => o.profile = Some(PathBuf::from(value("--profile")?)),
                "--help" | "-h" => return Err(OptsError::HelpRequested),
                other => return Err(OptsError::UnknownFlag(other.to_string())),
            }
        }
        Ok(o)
    }

    /// Parses `std::env::args`; on error prints the message plus usage to
    /// stderr and exits nonzero (`--help` prints usage and exits 0).
    pub fn parse_or_exit() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(OptsError::HelpRequested) => {
                println!("{}", usage());
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("{}", usage());
                std::process::exit(2);
            }
        }
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
        match &self.kernels {
            // parse() validated the names, so filter the registry to keep
            // registry order regardless of the flag's order
            Some(names) => kernels()
                .iter()
                .filter(|k| names.iter().any(|n| n == k.name))
                .collect(),
            None => kernels().iter().collect(),
        }
    }

    /// The real programs this run sweeps: the `--programs` subset if given
    /// (registry order), otherwise the full program registry.
    pub fn selected_programs(&self) -> Vec<&'static Kernel> {
        match &self.programs {
            Some(names) => programs()
                .iter()
                .filter(|k| names.iter().any(|n| n == k.name))
                .collect(),
            None => programs().iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, OptsError> {
        Opts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.instructions, 300_000);
        assert_eq!(o.warmup, 150_000);
        assert_eq!(o.scale, Scale::Full);
        assert!(o.threads >= 1);
        assert!(!o.json && !o.no_cache);
        assert_eq!(o.checkpoint_every, 0);
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
            "--checkpoint-every",
            "4096",
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
        assert_eq!(o.kernels.as_deref(), Some(&["mcf".to_string(), "astar".to_string()][..]));
        assert!(o.json && o.no_cache);
        assert_eq!(o.cache_dir.as_deref(), Some(std::path::Path::new("/tmp/c")));
        assert_eq!(o.checkpoint_every, 4096);
        assert_eq!(o.trace.as_deref(), Some(std::path::Path::new("/tmp/t.jsonl")));
        assert_eq!(o.timeline.as_deref(), Some(std::path::Path::new("/tmp/tl.csv")));
        assert_eq!(o.profile.as_deref(), Some(std::path::Path::new("/tmp/prof")));
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
    fn checkpoint_every_parses_and_rejects_garbage() {
        assert_eq!(
            parse(&["--checkpoint-every", "2000"]).unwrap().checkpoint_every,
            2000
        );
        assert!(matches!(
            parse(&["--checkpoint-every", "soon"]),
            Err(OptsError::BadValue("--checkpoint-every", _))
        ));
        assert!(matches!(
            parse(&["--checkpoint-every"]),
            Err(OptsError::MissingValue("--checkpoint-every"))
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
