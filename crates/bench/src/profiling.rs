//! `--profile` wiring, shared by every figure through the one dispatch
//! path ([`crate::registry::main`]).
//!
//! [`start`] turns the flag into an RAII [`ProfileGuard`]: profiling is
//! enabled for the process lifetime and, when the guard drops (normal exit
//! path of the dispatch), the captured session is written as sidecar files into
//! the requested directory:
//!
//! * `trace.json` — Chrome trace-event JSON (`chrome://tracing`, Perfetto)
//! * `report.json` — machine-readable per-phase/per-thread/per-core stats
//! * `report.txt` — the same report rendered as a human-readable table
//!
//! Everything goes to the sidecar directory or stderr; stdout is never
//! touched, so profiled runs stay byte-identical to unprofiled ones (the
//! stdout contract, pinned by `tests/stdout_contract.rs`).

use crate::opts::Opts;
use std::path::PathBuf;

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
        let trace_path = dir.join("trace.json");
        let report = profile.report();
        let mut failed = false;
        for (path, contents) in [
            (&trace_path, profile.chrome_trace()),
            (&dir.join("report.json"), report.to_json()),
            (&dir.join("report.txt"), report.to_string()),
        ] {
            if let Err(e) = std::fs::write(path, contents) {
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
}
