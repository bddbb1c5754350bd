//! The per-instruction path allocates nothing: once a core and its memory
//! hierarchy are warm, stepping them does not call the allocator at all —
//! no ROB entry, wake-up list, register snapshot or queue drain is built on
//! the heap (DESIGN.md §9.1).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use bfetch::mem::MemorySystem;
use bfetch::sim::{Core, PrefetcherKind, SimConfig};
use bfetch::workloads::kernel_by_name;

/// Counts allocator calls (allocations and growing reallocations) made by
/// threads that asked to be counted.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-initialised and without a destructor: reading it never allocates
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_warm_core_steps_without_allocating() {
    const WARM: u64 = 150_000;
    const MEASURED: u64 = 60_000;
    // a cache-resident kernel and a stall-dominated one, with and without
    // the engine's commit hooks, lookahead walk and queue drains
    for kernel in ["gamess", "mcf"] {
        for kind in [PrefetcherKind::BFetch, PrefetcherKind::None] {
            let cfg = SimConfig::baseline().with_prefetcher(kind);
            let program = kernel_by_name(kernel)
                .expect("kernel registered")
                .build_small();
            let mut core = Core::new(0, program, &cfg);
            let mut mem = MemorySystem::new(cfg.hierarchy(1));
            let mut step = |now: u64| {
                core.cycle(now, &mut mem);
                mem.drain_feedback(|fb| core.feedback(fb.pc_hash, fb.useful));
            };
            (0..WARM).for_each(&mut step);

            let before = CALLS.load(Ordering::Relaxed);
            COUNTED.set(true);
            (WARM..WARM + MEASURED).for_each(&mut step);
            COUNTED.set(false);
            let calls = CALLS.load(Ordering::Relaxed) - before;

            let committed = core.counters().committed;
            assert!(committed > 10_000, "{kernel}: only {committed} committed");
            assert_eq!(
                calls,
                0,
                "{kernel}/{}: {calls} allocator calls in {MEASURED} cycles after a warm-up \
                 meant to carry every queue to its high-water mark",
                kind.name()
            );
        }
    }
}
