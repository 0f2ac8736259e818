//! What building a device model and probing its caches allocate. A
//! model's caches hold no storage until their first probe, which allocates
//! a zeroed index of 4 bytes a set; each set's words are appended to one
//! growing array the first time a probe reaches the set. Per-set vectors,
//! eager storage, an eager fill or zeroed line storage would show here as
//! thousands of allocations or megabytes of zeroed or plain `alloc`.

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
fn a_probe_allocates_only_for_the_sets_it_reaches() {
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
        let (sets, ways, line) = (config.num_sets(), config.ways, config.line_bytes);
        let mut cache = Cache::new(config);
        // The first probe zeroes the set index and no line storage: its
        // set's words are written, not zeroed by the allocator.
        let (_, first) = counted(|| cache.access(0x1234, true));
        assert_eq!(
            first,
            Counts {
                allocations: 2,
                plain_bytes: ways * 8,
                zeroed_bytes: sets * 4,
            },
            "{name}: first probe, {sets} sets"
        );
        // Another line of a touched set allocates nothing.
        let (_, again) = counted(|| cache.access(0x1234 + sets * line, false));
        assert_eq!(again, Counts::default(), "{name}: a touched set");
        // Every other set, in scattered order: `ways` words a set, in
        // geometrically growing steps.
        let (_, all) = counted(|| {
            for k in 0..sets {
                cache.access((k * 7919 % sets) * line, false);
            }
        });
        assert_eq!(cache.touched_sets() as u64, sets, "{name}");
        let words = sets * ways;
        let growths = u64::from(u64::BITS - sets.leading_zeros());
        assert!(
            all.allocations <= growths && all.zeroed_bytes == 0,
            "{name}: {all:?} touching {sets} sets"
        );
        assert!(
            all.plain_bytes <= 4 * words * 8,
            "{name}: {} bytes for {words} words",
            all.plain_bytes
        );
        let (_, touched) = counted(|| cache.access(0x9876_5400, true));
        assert_eq!(touched, Counts::default(), "{name}: a full cache");
    }
}
