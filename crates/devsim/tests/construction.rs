//! What building a device model allocates. A model's caches are two flat
//! arrays each, allocated zeroed, so building one costs a few allocations
//! and writes no cache storage; per-set vectors or an eager fill would
//! show here as thousands of allocations or megabytes of plain `alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grover_devsim::profiles::{cpu_by_name, gpu_by_name};
use grover_devsim::{Device, ALL_DEVICES};

/// Counts this thread's allocations, so the test harness's own threads do
/// not reach the counts.
struct Counting;

#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    allocations: u64,
    /// Bytes asked of plain `alloc` and `realloc` (memory the program may
    /// write before use).
    plain_bytes: u64,
    /// Bytes asked of `alloc_zeroed` (pages the kernel zeroes on first
    /// touch).
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
fn building_a_model_allocates_cache_storage_zeroed_and_in_few_pieces() {
    for name in ALL_DEVICES {
        // (cores, cache levels, bytes of line storage in the private
        // levels: 16 per line, a tag and a meta word).
        let (cores, levels, private_bytes) = match (cpu_by_name(name), gpu_by_name(name)) {
            (Some(p), _) => {
                let lines = p.l1.num_sets() * p.l1.ways + p.l2.num_sets() * p.l2.ways;
                (p.cores as u64, 3, p.cores as u64 * lines * 16)
            }
            (None, Some(p)) => (1, 1, p.l2.num_sets() * p.l2.ways * 16),
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
        assert!(
            counts.zeroed_bytes >= private_bytes,
            "{name}: {} zeroed bytes, the private caches' lines alone take {private_bytes}",
            counts.zeroed_bytes
        );
        assert!(
            counts.plain_bytes <= PLAIN_BYTES_CEILING,
            "{name}: {} bytes from plain alloc, ceiling {PLAIN_BYTES_CEILING}",
            counts.plain_bytes
        );
    }
}
