//! Graceful SIGINT for the experiment harness.
//!
//! The first Ctrl-C must not tear a sweep down mid-write. Instead:
//!
//! * grid points not yet started are skipped — the harness checks the
//!   flag [`install`] returns before starting each one;
//! * points already simulating run to completion and are cached as
//!   usual, so no finished work is lost;
//! * the stderr report (per-point lines + cache-stats footer) still
//!   runs, `[harness] interrupted` is printed, and the process exits
//!   with [`EXIT_CODE`] — stdout stays untouched, preserving the
//!   byte-identity contract;
//! * a second Ctrl-C falls back to the default disposition and kills
//!   the process immediately.
//!
//! Registration goes through the C `signal(2)` entry point directly (no
//! crate dependency), and the handler body is async-signal-safe: a
//! `signal` re-registration plus one atomic store. The flag's cell is
//! populated *before* the handler is registered, so the handler never
//! observes it empty.
//!
//! Test hook: setting `BFETCH_HARNESS_INTERRUPT` in the environment sets
//! the flag in [`crate::Harness::from_opts`] without raising a signal, as
//! if Ctrl-C arrived before the sweep — every point is skipped, which is
//! how `scripts/verify.sh` exercises the interrupt path deterministically.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Exit status after a graceful interrupt: the conventional 128 + SIGINT.
pub const EXIT_CODE: i32 = 130;

#[cfg(unix)]
const SIGINT: i32 = 2;
#[cfg(unix)]
const SIG_DFL: usize = 0;

static STOP: OnceLock<Arc<AtomicBool>> = OnceLock::new();

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn on_sigint(_sig: i32) {
    // Re-arm the default disposition first: a second Ctrl-C kills.
    unsafe {
        signal(SIGINT, SIG_DFL);
    }
    if let Some(stop) = STOP.get() {
        stop.store(true, Ordering::SeqCst);
    }
}

/// Installs the SIGINT handler (idempotent) and returns the flag it sets,
/// which stops the harness from starting new points. On non-Unix targets
/// only the flag is returned; no handler is registered.
pub fn install() -> Arc<AtomicBool> {
    let stop = STOP.get_or_init(Arc::default).clone();
    #[cfg(unix)]
    {
        static INSTALLED: AtomicBool = AtomicBool::new(false);
        if !INSTALLED.swap(true, Ordering::SeqCst) {
            unsafe {
                signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
            }
        }
    }
    stop
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    extern "C" {
        fn raise(sig: i32) -> i32;
    }

    #[test]
    fn sigint_sets_the_stop_flag() {
        let stop = install();
        // raise() delivers synchronously on the calling thread; after the
        // handler runs, the disposition is back to SIG_DFL (second Ctrl-C
        // kills), so this test must raise exactly once.
        unsafe { raise(SIGINT) };
        assert!(stop.load(Ordering::SeqCst));
    }
}
