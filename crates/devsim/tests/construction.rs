//! What building a device model and probing its caches allocate. A
//! model's caches hold no line storage until their first probe, which
//! allocates one zeroed array of a word per line; per-set vectors, eager
//! storage or an eager fill would show here as thousands of allocations
//! or megabytes of zeroed or plain `alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grover_devsim::profiles::{cpu_by_name, gpu_by_name};
use grover_devsim::{Cache, CacheConfig, Device, ALL_DEVICES};

/// Counts this thread's allocations, so the test harness's own threads do
/// not reach the counts.
struct Counting;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    allocations: u64,
    /// Bytes asked of plain `alloc` and `realloc` (memory the program may
    /// write before use).
    plain_bytes: u64,
    /// Bytes asked of `alloc_zeroed`.
    zeroed_bytes: u64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { allocations: 0, plain_bytes: 0, zeroed_bytes: 0 })
    };
}

fn count(plain: usize, zeroed: usize) {
    // `try_with`: allocations while the thread's locals are torn down are
    // not counted.
    let _ = COUNTS.try_with(|c| {
        let mut n = c.get();
        n.allocations += 1;
        n.plain_bytes += plain as u64;
        n.zeroed_bytes += zeroed as u64;
        c.set(n);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `count` only updates a thread-local
// `Cell` with a const initialiser and no destructor, so it never allocates
// or reenters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(0, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, 0);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The counts `f` adds on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = COUNTS.with(Cell::get);
    let out = f();
    let after = COUNTS.with(Cell::get);
    let counts = Counts {
        allocations: after.allocations - before.allocations,
        plain_bytes: after.plain_bytes - before.plain_bytes,
        zeroed_bytes: after.zeroed_bytes - before.zeroed_bytes,
    };
    (out, counts)
}

/// Plain-`alloc` bytes a model may ask for: the per-core vectors of
/// cache and prefetcher headers, never line storage.
const PLAIN_BYTES_CEILING: u64 = 64 << 10;

#[test]
fn building_a_model_allocates_no_cache_storage() {
    for name in ALL_DEVICES {
        // (cores, cache levels, cycle counters: one per core or SM).
        let (cores, levels, counters) = match (cpu_by_name(name), gpu_by_name(name)) {
            (Some(p), _) => (p.cores as u64, 3, p.cores as u64),
            (None, Some(p)) => (1, 1, p.sms as u64),
            (None, None) => panic!("{name} has no profile"),
        };
        let (device, counts) = counted(|| Device::by_name(name).expect("known device"));
        drop(device);
        let bound = 4 * cores * levels + 16;
        assert!(
            counts.allocations <= bound,
            "{name}: {} allocations, bound {bound}",
            counts.allocations
        );
        // The cycle counters are the only zeroed allocation: no line
        // storage before a probe.
        assert_eq!(
            counts.zeroed_bytes,
            8 * counters,
            "{name}: zeroed bytes beyond the {counters} cycle counters"
        );
        assert!(
            counts.plain_bytes <= PLAIN_BYTES_CEILING,
            "{name}: {} bytes from plain alloc, ceiling {PLAIN_BYTES_CEILING}",
            counts.plain_bytes
        );
    }
}

#[test]
fn the_first_probe_allocates_a_word_per_line() {
    let mut geometries: Vec<(String, CacheConfig)> = Vec::new();
    for name in ALL_DEVICES {
        if let Some(p) = cpu_by_name(name) {
            for (level, config) in [("L1", p.l1), ("L2", p.l2), ("LLC", p.llc)] {
                geometries.push((format!("{name} {level}"), config));
            }
        }
        if let Some(p) = gpu_by_name(name) {
            geometries.push((format!("{name} L2"), p.l2));
        }
    }
    for (name, config) in geometries {
        let mut cache = Cache::new(config);
        let (_, first) = counted(|| cache.access(0x1234, true));
        let words = config.num_sets() * config.ways;
        assert_eq!(
            first,
            Counts {
                allocations: 1,
                plain_bytes: 0,
                zeroed_bytes: words * 8,
            },
            "{name}: first probe, {words} lines"
        );
        let (_, second) = counted(|| cache.access(0x9876_5400, false));
        assert_eq!(second, Counts::default(), "{name}: second probe");
    }
}
