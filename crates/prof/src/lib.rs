//! Host-side profiling for the B-Fetch simulator.
//!
//! This crate measures the *simulator as a host program* — wall-clock time
//! spent per simulation phase and per harness worker thread — as opposed to
//! `bfetch-stats`, which observes the *simulated* machine. It is designed
//! around two hard constraints:
//!
//! 1. **Next to nothing while off.** Recording is always compiled in and
//!    off until [`enable`]: a span that is never enabled is a relaxed load
//!    and a branch where it is created and where it is dropped, inlined at
//!    the call site (`benches/hotpath.rs` `span_disabled` records the
//!    cost).
//! 2. **Zero effect on simulation results.** Profiling reads the host
//!    clock and thread-local accumulators only; it never feeds anything
//!    back into simulator state, so enabling it cannot perturb the
//!    byte-identity contract (it only costs wall time).
//!
//! Two kinds of measurement coexist:
//!
//! * **Aggregate-only spans** ([`span`]) add a duration into a per-thread,
//!   per-phase accumulator (count and total).
//!   These are cheap enough for per-cycle phases that fire hundreds of
//!   millions of times.
//! * **Traced spans** ([`span_traced`], [`span_labeled`]) additionally
//!   append a Chrome trace event (begin timestamp + duration) to the
//!   per-thread event buffer. These are for coarse work items — a whole
//!   `SimSession::run`, a harness grid point, a cache load/store.
//!
//! Per-thread data lives in TLS with no locking on the record path; it is
//! flushed into a global registry when the thread exits (harness workers
//! are scoped threads that exit before results are read) or when [`drain`] runs on the owning thread. [`drain`] returns a
//! [`Profile`] that renders a Chrome trace-event JSON string (loadable in
//! `chrome://tracing` / Perfetto) or aggregates into a [`Report`] of
//! per-phase and per-thread counts and totals. Rendering a `Report` is the
//! caller's business.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

/// Index into the fixed phase table ([`PHASE_NAMES`]).
pub type PhaseId = usize;

/// Whole `SimSession::run` call (traced).
pub const SIM_RUN: PhaseId = 0;
/// Shared-memory drain (`drain_chip`): L3/DRAM stepping + fill routing.
pub const SIM_DRAIN: PhaseId = 1;
/// One chip cycle's pass over every core: `Core::cycle` plus the fused
/// feedback drain.
pub const SIM_STEP: PhaseId = 2;
/// `process_pending_mem`: completed-access bookkeeping inside the core.
pub const SIM_PENDING_MEM: PhaseId = 3;
/// `commit`: ROB retirement.
pub const SIM_COMMIT: PhaseId = 4;
/// `fetch`: fetch + decode + rename into the ROB.
pub const SIM_FETCH: PhaseId = 5;
/// B-Fetch engine tick: lookahead walk, MHT/BrTC probes.
pub const SIM_ENGINE: PhaseId = 6;
/// Prefetch issue: draining engine queues into the memory system.
pub const SIM_ISSUE: PhaseId = 7;
/// Per-cycle tail: watchdog, budgets, progress accounting.
pub const SIM_BOOKKEEP: PhaseId = 8;
/// One harness grid point, label = point label (traced).
pub const HARNESS_POINT: PhaseId = 9;
/// Result-cache load attempt (traced).
pub const HARNESS_CACHE_LOAD: PhaseId = 10;
/// Result-cache store (traced).
pub const HARNESS_CACHE_STORE: PhaseId = 11;

/// Display names for each [`PhaseId`], indexed by the constants above.
pub const PHASE_NAMES: &[&str] = &[
    "sim.run",
    "sim.drain_chip",
    "sim.step",
    "sim.pending_mem",
    "sim.commit",
    "sim.fetch",
    "sim.engine",
    "sim.issue",
    "sim.bookkeep",
    "harness.point",
    "harness.cache_load",
    "harness.cache_store",
];

const N_PHASES: usize = PHASE_NAMES.len();

// ---------------------------------------------------------------------------
// Data model
// ---------------------------------------------------------------------------

/// Count and total of durations in nanoseconds.
#[derive(Clone)]
struct PhaseAcc {
    count: u64,
    total_ns: u64,
}

impl PhaseAcc {
    const fn new() -> Self {
        PhaseAcc {
            count: 0,
            total_ns: 0,
        }
    }

    #[inline]
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
    }

    fn merge(&mut self, other: &PhaseAcc) {
        self.count += other.count;
        self.total_ns += other.total_ns;
    }
}

/// One Chrome trace event: a completed span on some thread.
struct Event {
    phase: PhaseId,
    label: Option<Box<str>>,
    ts_ns: u64,
    dur_ns: u64,
}

/// Everything one thread recorded during a profiling session.
struct ThreadData {
    tid: u32,
    name: Option<String>,
    phases: Vec<PhaseAcc>,
    events: Vec<Event>,
}

impl ThreadData {
    fn new(tid: u32) -> Self {
        ThreadData {
            tid,
            name: None,
            phases: vec![PhaseAcc::new(); N_PHASES],
            events: Vec::new(),
        }
    }

    fn display_name(&self) -> String {
        match &self.name {
            Some(n) => n.clone(),
            None => format!("thread-{}", self.tid),
        }
    }
}

/// A drained profiling session: raw per-thread data, ready to render.
pub struct Profile {
    threads: Vec<ThreadData>,
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

impl Profile {
    /// Render the session as Chrome trace-event JSON (the "JSON object
    /// format": `{"traceEvents": [...]}`), loadable in `chrome://tracing`
    /// and Perfetto. Timestamps/durations are microseconds relative to
    /// [`enable`]; only traced spans appear (aggregate-only phases are in
    /// [`Profile::report`] instead).
    pub fn chrome_trace(&self) -> String {
        let mut o = String::with_capacity(4096);
        o.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        o.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"bfetch\"}}",
        );
        for t in &self.threads {
            let _ = write!(
                o,
                ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"",
                t.tid
            );
            json_escape(&t.display_name(), &mut o);
            o.push_str("\"}}");
        }
        for t in &self.threads {
            for e in &t.events {
                o.push_str(",\n{\"ph\":\"X\",\"pid\":1,\"tid\":");
                let _ = write!(o, "{}", t.tid);
                o.push_str(",\"cat\":\"bfetch\",\"name\":\"");
                match &e.label {
                    Some(l) => json_escape(l, &mut o),
                    None => o.push_str(PHASE_NAMES[e.phase]),
                }
                o.push_str("\",\"ts\":");
                o.push_str(&us(e.ts_ns));
                o.push_str(",\"dur\":");
                o.push_str(&us(e.dur_ns));
                o.push_str(",\"args\":{\"phase\":\"");
                o.push_str(PHASE_NAMES[e.phase]);
                o.push_str("\"}}");
            }
        }
        o.push_str("\n]}\n");
        o
    }

    /// Build the aggregate [`Report`]: per-phase stats merged across
    /// threads, plus per-thread breakdowns.
    pub fn report(&self) -> Report {
        let mut merged = vec![PhaseAcc::new(); N_PHASES];
        let mut threads = Vec::new();
        for t in &self.threads {
            let mut tphases = Vec::new();
            for (p, acc) in t.phases.iter().enumerate() {
                if acc.count == 0 {
                    continue;
                }
                merged[p].merge(acc);
                tphases.push(PhaseStats::from_acc(p, acc));
            }
            threads.push(ThreadStats {
                tid: t.tid,
                name: t.display_name(),
                phases: tphases,
            });
        }
        let phases = merged
            .iter()
            .enumerate()
            .filter(|(_, a)| a.count > 0)
            .map(|(p, a)| PhaseStats::from_acc(p, a))
            .collect();
        Report { phases, threads }
    }
}

// ---------------------------------------------------------------------------
// Aggregate report
// ---------------------------------------------------------------------------

/// Aggregate statistics for one phase (one thread, or merged).
#[derive(Clone)]
pub struct PhaseStats {
    /// Phase display name (from [`PHASE_NAMES`]).
    pub name: &'static str,
    /// Number of recorded spans.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
}

impl PhaseStats {
    fn from_acc(phase: PhaseId, acc: &PhaseAcc) -> Self {
        PhaseStats {
            name: PHASE_NAMES[phase],
            count: acc.count,
            total_ns: acc.total_ns,
        }
    }

    /// Mean span duration, ns.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Per-thread phase breakdown (only phases that fired on that thread).
pub struct ThreadStats {
    /// Profiler-assigned thread id (also the Chrome trace `tid`).
    pub tid: u32,
    /// Thread name (`main`, `harnessN`, or `thread-N`).
    pub name: String,
    /// Phase stats recorded on this thread.
    pub phases: Vec<PhaseStats>,
}

impl ThreadStats {
    /// Stats for one phase on this thread, by display name.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }
}

/// Aggregate view of a drained [`Profile`].
pub struct Report {
    /// Per-phase stats merged across all threads.
    pub phases: Vec<PhaseStats>,
    /// Per-thread breakdowns, sorted by tid.
    pub threads: Vec<ThreadStats>,
}

impl Report {
    /// Merged stats for one phase, by display name (e.g. `"sim.fetch"`).
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Total ns recorded for a phase, 0 if it never fired.
    pub fn phase_total_ns(&self, name: &str) -> u64 {
        self.phase(name).map_or(0, |p| p.total_ns)
    }

    /// Per-thread breakdown by thread name.
    pub fn thread(&self, name: &str) -> Option<&ThreadStats> {
        self.threads.iter().find(|t| t.name == name)
    }
}

// ---------------------------------------------------------------------------
// Recording implementation
// ---------------------------------------------------------------------------

mod imp {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard};
    use std::time::Instant;

    pub(super) static ENABLED: AtomicBool = AtomicBool::new(false);

    pub(super) struct GlobalState {
        pub epoch: Option<Instant>,
        pub next_tid: u32,
        pub threads: Vec<ThreadData>,
    }

    static STATE: Mutex<GlobalState> = Mutex::new(GlobalState {
        epoch: None,
        next_tid: 0,
        threads: Vec::new(),
    });

    pub(super) fn lock_state() -> MutexGuard<'static, GlobalState> {
        STATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// TLS slot; the `Drop` impl flushes a thread's data into the global
    /// registry when the thread exits (scoped workers exit before the
    /// session is drained, so nothing is lost).
    struct LocalSlot(Option<ThreadData>);

    impl Drop for LocalSlot {
        fn drop(&mut self) {
            if let Some(td) = self.0.take() {
                lock_state().threads.push(td);
            }
        }
    }

    thread_local! {
        static LOCAL: RefCell<LocalSlot> = const { RefCell::new(LocalSlot(None)) };
    }

    pub(super) fn with_local<R>(f: impl FnOnce(&mut ThreadData) -> R) -> Option<R> {
        LOCAL
            .try_with(|slot| {
                let mut slot = slot.borrow_mut();
                if slot.0.is_none() {
                    let tid = {
                        let mut g = lock_state();
                        let t = g.next_tid;
                        g.next_tid += 1;
                        t
                    };
                    slot.0 = Some(ThreadData::new(tid));
                }
                f(slot.0.as_mut().expect("local just initialized"))
            })
            .ok()
    }

    /// Reset the calling thread's local buffer (session start).
    pub(super) fn reset_local() {
        let _ = LOCAL.try_with(|slot| slot.borrow_mut().0 = None);
    }

    /// Flush the calling thread's local buffer into the registry.
    pub(super) fn flush_local() {
        let _ = LOCAL.try_with(|slot| {
            if let Some(td) = slot.borrow_mut().0.take() {
                lock_state().threads.push(td);
            }
        });
    }

    pub(super) fn epoch() -> Option<Instant> {
        lock_state().epoch
    }

    #[inline]
    pub(super) fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    pub(super) fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::SeqCst);
    }
}

mod api {
    use super::*;
    use std::time::Instant;

    /// True while a profiling session is recording.
    #[inline]
    pub fn enabled() -> bool {
        imp::is_enabled()
    }

    /// Start a profiling session: clears previously drained data, stamps
    /// the trace epoch, and names the calling thread `main`.
    pub fn enable() {
        {
            let mut g = imp::lock_state();
            g.threads.clear();
            g.epoch = Some(Instant::now());
        }
        imp::reset_local();
        imp::set_enabled(true);
        set_thread_name("main");
    }

    /// Stop recording (buffers are kept until [`drain`]).
    pub fn disable() {
        imp::set_enabled(false);
    }

    /// Stop recording and collect everything recorded since [`enable`].
    /// Returns `None` if nothing was recorded. Worker threads flush on
    /// exit; the calling thread is flushed here, so call `drain` from the
    /// thread that called [`enable`].
    pub fn drain() -> Option<Profile> {
        imp::set_enabled(false);
        imp::flush_local();
        let mut threads = {
            let mut g = imp::lock_state();
            g.epoch = None;
            std::mem::take(&mut g.threads)
        };
        threads.sort_by_key(|t| t.tid);
        if threads.is_empty() {
            None
        } else {
            Some(Profile { threads })
        }
    }

    /// Name the calling thread in traces and reports (e.g. `harness1`).
    pub fn set_thread_name(name: &str) {
        if !enabled() {
            return;
        }
        let _ = imp::with_local(|td| td.name = Some(name.to_string()));
    }

    /// Flush the calling thread's buffer into the global registry.
    ///
    /// Worker threads must call this as the last thing before their
    /// closure returns: `std::thread::scope` joins when the closure
    /// finishes, which can be *before* TLS destructors run, so relying on
    /// the TLS-drop flush alone would race with [`drain`]. The TLS drop
    /// remains as a safety net for threads that miss this call.
    pub fn flush_thread() {
        imp::flush_local();
    }

    /// Adds one finished span to the calling thread's buffer. Out of line
    /// and cold: only an enabled profiler ever gets here, so the guards'
    /// `Drop`s stay a test and a branch at their call sites.
    #[cold]
    #[inline(never)]
    fn record(phase: PhaseId, start: Instant, traced: bool, label: Option<Box<str>>) {
        let dur_ns = start.elapsed().as_nanos() as u64;
        let ts_ns = if traced {
            imp::epoch()
                .and_then(|e| start.checked_duration_since(e))
                .map(|t| t.as_nanos() as u64)
        } else {
            None
        };
        let _ = imp::with_local(|td| {
            td.phases[phase].add(dur_ns);
            if let Some(ts_ns) = ts_ns {
                td.events.push(Event {
                    phase,
                    label,
                    ts_ns,
                    dur_ns,
                });
            }
        });
    }

    /// Aggregate-only RAII span timer for per-cycle phases; records into
    /// the calling thread's buffer on drop. It owns nothing, so while the
    /// profiler is off creating and dropping one is a relaxed load and a
    /// branch each, inlined at the call site.
    #[must_use = "a span measures until it is dropped"]
    pub struct Span {
        phase: PhaseId,
        start: Option<Instant>,
    }

    impl Drop for Span {
        #[inline(always)]
        fn drop(&mut self) {
            if let Some(start) = self.start {
                record(self.phase, start, false, None);
            }
        }
    }

    /// RAII span timer for coarse work items: like [`Span`], and also
    /// appends a Chrome trace event, named by its label when it has one.
    #[must_use = "a span measures until it is dropped"]
    pub struct TracedSpan {
        phase: PhaseId,
        start: Option<Instant>,
        label: Option<Box<str>>,
    }

    impl Drop for TracedSpan {
        fn drop(&mut self) {
            if let Some(start) = self.start {
                record(self.phase, start, true, self.label.take());
            }
        }
    }

    /// Aggregate-only span: cheap enough for per-cycle phases.
    #[inline(always)]
    pub fn span(phase: PhaseId) -> Span {
        Span {
            phase,
            start: enabled().then(Instant::now),
        }
    }

    /// Span that also emits a Chrome trace event (coarse work items only).
    #[inline]
    pub fn span_traced(phase: PhaseId) -> TracedSpan {
        TracedSpan {
            phase,
            start: enabled().then(Instant::now),
            label: None,
        }
    }

    /// Traced span with a custom event name (e.g. a grid-point label).
    #[inline]
    pub fn span_labeled(phase: PhaseId, label: &str) -> TracedSpan {
        let start = enabled().then(Instant::now);
        TracedSpan {
            phase,
            start,
            label: start.map(|_| label.into()),
        }
    }
}

pub use api::{
    disable, drain, enable, enabled, flush_thread, set_thread_name, span, span_labeled,
    span_traced, Span, TracedSpan,
};

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod report_tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = PhaseAcc::new();
        a.add(10);
        a.add(20);
        let mut b = PhaseAcc::new();
        b.add(5);
        b.add(1000);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.total_ns, 1035);
    }

    #[test]
    fn empty_report_renders() {
        let p = Profile {
            threads: Vec::new(),
        };
        let r = p.report();
        assert!(r.phases.is_empty() && r.threads.is_empty());
        assert_eq!(r.phase_total_ns("sim.run"), 0);
        assert!(p.chrome_trace().contains("\"process_name\""));
    }

    #[test]
    fn json_escaping() {
        let mut s = String::new();
        json_escape("a\"b\\c\nd\u{1}", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }
}

#[cfg(test)]
mod capture_tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    // The profiler is process-global state; serialize tests that touch it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = locked();
        disable();
        let _ = drain();
        // the per-cycle case: never enabled, millions of spans
        for i in 0..10_000_000usize {
            let _s = std::hint::black_box(span(SIM_PENDING_MEM + i % 6));
        }
        {
            let _t = span_traced(SIM_RUN);
            let _l = span_labeled(HARNESS_POINT, "never recorded");
        }
        assert!(drain().is_none());
    }

    #[test]
    fn spans_accumulate_and_trace() {
        let _g = locked();
        enable();
        {
            let _run = span_traced(SIM_RUN);
            for _ in 0..10 {
                let _f = span(SIM_FETCH);
                std::hint::black_box(0u64);
            }
            {
                let _p = span_labeled(HARNESS_POINT, "k=alpha");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let prof = drain().expect("profile captured");
        let rep = prof.report();
        let fetch = rep.phase("sim.fetch").expect("fetch phase present");
        assert_eq!(fetch.count, 10);
        let run = rep.phase("sim.run").expect("run phase present");
        assert_eq!(run.count, 1);
        assert!(run.total_ns >= 2_000_000, "run covered the sleep");
        let point = rep.phase("harness.point").expect("point phase");
        assert!(point.total_ns <= run.total_ns);
        let trace = prof.chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("k=alpha"));
        assert!(trace.contains("sim.run"));
        assert!(trace.contains("\"ph\":\"M\""));
        // Aggregate-only spans must not appear as events.
        assert!(!trace.contains("\"name\":\"sim.fetch\""));
    }

    #[test]
    fn worker_threads_flush_on_exit() {
        let _g = locked();
        enable();
        std::thread::scope(|s| {
            for w in 0..2u32 {
                s.spawn(move || {
                    set_thread_name(&format!("worker{w}"));
                    {
                        let _p = span_labeled(HARNESS_POINT, "k");
                    }
                    // Must be last: spans record on drop, and scope() can
                    // join before TLS destructors would flush for us.
                    flush_thread();
                });
            }
        });
        let prof = drain().expect("profile captured");
        let rep = prof.report();
        assert!(rep.thread("worker0").is_some());
        assert!(rep.thread("worker1").is_some());
        let w0 = rep.thread("worker0").unwrap();
        assert!(w0.phase("harness.point").is_some());
        assert_eq!(rep.phase("harness.point").map(|p| p.count), Some(2));
        let w1 = rep
            .thread("worker1")
            .and_then(|t| t.phase("harness.point"))
            .unwrap();
        assert_eq!(w1.count, 1);
        assert!(w0.phase("harness.point").unwrap().total_ns <= rep.phase_total_ns("harness.point"));
    }

    #[test]
    fn enable_resets_previous_session() {
        let _g = locked();
        enable();
        {
            let _s = span(SIM_COMMIT);
        }
        enable(); // second session: first one's data must be gone
        {
            let _s = span(SIM_ISSUE);
        }
        let rep = drain().expect("profile").report();
        assert!(rep.phase("sim.commit").is_none());
        assert!(rep.phase("sim.issue").is_some());
    }
}
