//! A minimal work-stealing executor on scoped threads.
//!
//! Grid points vary wildly in cost (an 8-core mix simulation is ~50×
//! a cache hit), so static chunking would leave threads idle. Workers
//! instead claim the next unclaimed index from a shared atomic counter —
//! classic work stealing without any queue — and results are collected
//! *by input index*, so the output order (and therefore everything
//! printed from it) is identical whatever the thread count.
//!
//! A panic in a closure propagates; the harness contains panics itself,
//! running each point under `catch_unwind` (see [`super`]) and describing
//! the payload with [`panic_message`]. Panics never cross a slot's `Mutex`
//! while it is held, so lock poisoning is purely incidental here and the
//! value is recovered via `PoisonError::into_inner` instead of propagating
//! the poison.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Extracts a human-readable message from a panic payload (the common
/// `&str` / `String` payloads; anything else is reported opaquely).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Applies `f` to every item on up to `threads` workers and returns the
/// results in input order. Worker 0 is the calling thread, so one worker
/// spawns nothing and `threads` workers spawn `threads - 1`. A panic in `f`
/// propagates after all workers stop.
pub fn run_indexed<I, T, F>(items: &[I], threads: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.clamp(1, n);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let claim_until_done = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let out = f(i, &items[i]);
        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
    };
    std::thread::scope(|scope| {
        let claim_until_done = &claim_until_done;
        for w in 1..workers {
            scope.spawn(move || {
                bfetch_prof::set_thread_name(&format!("harness{w}"));
                claim_until_done();
                // Scoped threads are joined when this closure returns —
                // possibly before TLS destructors run — so the profiler's
                // thread-local buffer must be flushed explicitly here.
                bfetch_prof::flush_thread();
            });
        }
        // The caller keeps its profiler name and buffer: renaming or
        // flushing it here would split it into two profiler threads.
        claim_until_done();
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("worker claimed an index without storing a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn preserves_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial = run_indexed(&items, 1, |_, &x| x * x);
        for threads in [2, 3, 8, 64] {
            assert_eq!(run_indexed(&items, threads, |_, &x| x * x), serial);
        }
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let items: Vec<usize> = (0..50).collect();
        let out = run_indexed(&items, 7, |i, &x| {
            assert_eq!(i, x);
            i
        });
        let distinct: HashSet<usize> = out.iter().copied().collect();
        assert_eq!(distinct.len(), items.len());
    }

    #[test]
    fn handles_empty_and_single() {
        let none: Vec<u32> = vec![];
        assert!(run_indexed(&none, 4, |_, &x| x).is_empty());
        assert_eq!(run_indexed(&[9u32], 4, |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn uses_multiple_workers_when_available() {
        // With 4 workers and 4 items that each wait for all workers to
        // arrive, completion proves parallel execution (a single worker
        // would deadlock — bounded here by the barrier's wait timeout).
        let barrier = std::sync::Barrier::new(4);
        let items = [0u8; 4];
        let out = run_indexed(&items, 4, |i, _| {
            barrier.wait();
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    /// One worker is the caller itself; two are the caller and exactly one
    /// spawned thread (a two-party barrier on the first two items forces
    /// both to take part).
    #[test]
    fn worker_zero_is_the_calling_thread() {
        let caller = std::thread::current().id();
        let items = [0u8; 8];
        let ran_on = |threads| {
            let barrier = std::sync::Barrier::new(2);
            let ids = run_indexed(&items, threads, |i, _| {
                if threads == 2 && i < 2 {
                    barrier.wait();
                }
                std::thread::current().id()
            });
            ids.into_iter().collect::<HashSet<_>>()
        };
        assert_eq!(ran_on(1), HashSet::from([caller]));
        let two = ran_on(2);
        assert_eq!(two.len(), 2, "{two:?}");
        assert!(two.contains(&caller));
    }

    #[test]
    fn panic_message_describes_str_string_and_opaque_payloads() {
        let payloads: [(Box<dyn std::any::Any + Send>, &str); 3] = [
            (Box::new("static str"), "static str"),
            (Box::new(format!("formatted {}", 1)), "formatted 1"),
            (Box::new(42u64), "panic with non-string payload"),
        ];
        for (payload, want) in payloads {
            assert_eq!(panic_message(payload.as_ref()), want);
        }
    }
}
