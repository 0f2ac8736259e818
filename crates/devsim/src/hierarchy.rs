//! The per-core memory hierarchy shared by both CPU runtime models
//! (scalar work-item execution and implicit-SIMD execution): private
//! L1/L2, a unified or distributed last level, and per-core stride
//! prefetchers.

use crate::cache::{Cache, CacheConfig, CacheStats, Probe};
use crate::profiles::CpuProfile;

/// Base of the per-core local-memory scratch regions in the simulated
/// physical address space (far above any global buffer).
pub const LOCAL_REGION_BASE: u64 = 1 << 44;
/// Stride between consecutive cores' scratch regions.
pub const LOCAL_REGION_STRIDE: u64 = 1 << 24;

/// A per-core stride-detecting stream prefetcher sitting at the L2.
///
/// On an L2 miss it matches the address against its stream table; two
/// consecutive misses at a constant stride lock a stream, after which the
/// next `degree` lines along the stride are installed into the L2 for free
/// (their DRAM/ring latency is assumed to overlap with compute).
pub(crate) struct StridePrefetcher {
    streams: Vec<Stream>,
    max_streams: usize,
    degree: u64,
    /// The addresses the last [`StridePrefetcher::miss`] returned, reused
    /// from miss to miss.
    out: Vec<u64>,
}

#[derive(Clone, Copy)]
struct Stream {
    last: u64,
    stride: i64,
    confirmed: bool,
    age: u64,
}

impl StridePrefetcher {
    pub(crate) fn new(max_streams: usize, degree: u64) -> StridePrefetcher {
        StridePrefetcher {
            streams: Vec::new(),
            max_streams,
            degree,
            out: Vec::new(),
        }
    }

    /// Record an L2 miss; return prefetch addresses to install.
    pub(crate) fn miss(&mut self, addr: u64, clock: u64) -> &[u64] {
        self.out.clear();
        if self.max_streams == 0 {
            return &self.out;
        }
        // Find a stream whose next expected address matches.
        for st in &mut self.streams {
            let delta = addr as i64 - st.last as i64;
            if delta != 0 && delta == st.stride {
                st.last = addr;
                st.confirmed = true;
                st.age = clock;
                let stride = st.stride;
                self.out
                    .extend((1..=self.degree).map(|k| (addr as i64 + stride * k as i64) as u64));
                return &self.out;
            }
        }
        // Try to pair with the *closest* unconfirmed stream (establish the
        // stride). A tight window keeps interleaved streams from distinct
        // buffers (e.g. a load stream and a store stream) from
        // cross-pairing and corrupting each other.
        const PAIR_WINDOW: u64 = 64 * 1024;
        let mut best: Option<(usize, i64)> = None;
        for (i, st) in self.streams.iter().enumerate() {
            if !st.confirmed {
                let delta = addr as i64 - st.last as i64;
                if delta != 0
                    && delta.unsigned_abs() <= PAIR_WINDOW
                    && best.is_none_or(|(_, d)| delta.abs() < d.abs())
                {
                    best = Some((i, delta));
                }
            }
        }
        if let Some((i, delta)) = best {
            let st = &mut self.streams[i];
            st.stride = delta;
            st.last = addr;
            st.confirmed = true;
            st.age = clock;
            return &self.out;
        }
        // Allocate a new stream (evict the oldest).
        let st = Stream {
            last: addr,
            stride: 0,
            confirmed: false,
            age: clock,
        };
        if self.streams.len() < self.max_streams {
            self.streams.push(st);
        } else if let Some(old) = self.streams.iter_mut().min_by_key(|s| s.age) {
            *old = st;
        }
        &self.out
    }
}

/// Private L1/L2 per core, unified or distributed last level, prefetchers.
pub struct CoreMemory {
    profile: CpuProfile,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Vec<Cache>,
    prefetchers: Vec<StridePrefetcher>,
    /// Accesses that reached DRAM.
    pub dram_accesses: u64,
    /// Prefetch lines installed into L2.
    pub prefetch_issued: u64,
}

impl CoreMemory {
    /// Fresh caches and prefetchers for one device profile.
    pub fn new(profile: CpuProfile) -> CoreMemory {
        let l1 = (0..profile.cores).map(|_| Cache::new(profile.l1)).collect();
        let l2 = (0..profile.cores).map(|_| Cache::new(profile.l2)).collect();
        let llc = if profile.llc_distributed {
            let slice = llc_slice(&profile);
            (0..profile.cores).map(|_| Cache::new(slice)).collect()
        } else {
            vec![Cache::new(profile.llc)]
        };
        let prefetchers = (0..profile.cores)
            .map(|_| StridePrefetcher::new(profile.prefetch_streams, profile.prefetch_degree))
            .collect();
        CoreMemory {
            profile,
            l1,
            l2,
            llc,
            prefetchers,
            dram_accesses: 0,
            prefetch_issued: 0,
        }
    }

    /// The device profile the hierarchy was built from.
    pub fn profile(&self) -> &CpuProfile {
        &self.profile
    }

    /// Physical address for an access: local offsets map into the core's
    /// private scratch region.
    pub fn phys(&self, core: usize, space: grover_ir::AddressSpace, addr: u64) -> u64 {
        match space {
            grover_ir::AddressSpace::Local => {
                LOCAL_REGION_BASE + core as u64 * LOCAL_REGION_STRIDE + addr
            }
            _ => addr,
        }
    }

    /// Cost of one line-granular access through the hierarchy. `clock` is
    /// used only to age prefetch streams.
    pub fn line_cost(&mut self, core: usize, addr: u64, is_write: bool, clock: u64) -> u64 {
        let p = &self.profile;
        if self.l1[core].access(addr, is_write) == Probe::Hit {
            return p.l1.latency;
        }
        if self.l2[core].access(addr, is_write) == Probe::Hit {
            return p.l2.latency;
        }
        // L2 miss: consult the stream prefetcher and install predictions.
        for &pf_addr in self.prefetchers[core].miss(addr, clock) {
            self.l2[core].access(pf_addr, false);
            self.prefetch_issued += 1;
        }
        let (slice, remote, addr) = if p.llc_distributed {
            // Line `l` lives in slice `l % cores`, which indexes it by
            // `l / cores`: its position among the slice's own lines, so
            // every slice reaches all of its sets.
            let shift = p.llc.line_bytes.trailing_zeros();
            let line = addr >> shift;
            let cores = self.llc.len() as u64;
            let s = (line % cores) as usize;
            (s, s != core, (line / cores) << shift)
        } else {
            (0, false, addr)
        };
        if self.llc[slice].access(addr, is_write) == Probe::Hit {
            return p.llc.latency + if remote { p.remote_llc_penalty } else { 0 };
        }
        self.dram_accesses += 1;
        p.dram_latency
    }

    /// Cost of an access of `bytes` bytes at `addr`: spans lines, pays the
    /// max per-line cost (overlapped fills).
    pub fn access_cost(
        &mut self,
        core: usize,
        addr: u64,
        bytes: u64,
        is_write: bool,
        clock: u64,
    ) -> u64 {
        // Line sizes are powers of two (`Cache::new` checks).
        let shift = self.profile.l1.line_bytes.trailing_zeros();
        let first = addr >> shift;
        let last = (addr + bytes.max(1) - 1) >> shift;
        let mut cost = 0;
        for line in first..=last {
            cost = cost.max(self.line_cost(core, line << shift, is_write, clock));
        }
        cost
    }

    /// Aggregated L1 statistics across cores.
    pub fn l1_stats(&self) -> CacheStats {
        agg(&self.l1)
    }

    /// Aggregated L2 statistics across cores.
    pub fn l2_stats(&self) -> CacheStats {
        agg(&self.l2)
    }

    /// Aggregated last-level statistics across slices.
    pub fn llc_stats(&self) -> CacheStats {
        agg(&self.llc)
    }
}

/// The geometry of one per-core slice of a distributed last level (MIC).
pub(crate) fn llc_slice(profile: &CpuProfile) -> CacheConfig {
    let mut slice = profile.llc;
    slice.size_bytes = (slice.size_bytes / profile.cores as u64).max(slice.line_bytes * slice.ways);
    slice
}

fn agg(cs: &[Cache]) -> CacheStats {
    let mut s = CacheStats::default();
    for c in cs {
        s.hits += c.stats.hits;
        s.misses += c.stats.misses;
        s.evictions += c.stats.evictions;
        s.writebacks += c.stats.writebacks;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{mic, nehalem, snb};
    use grover_ir::AddressSpace;

    #[test]
    fn l1_hit_after_miss() {
        let mut m = CoreMemory::new(snb());
        let c1 = m.line_cost(0, 0x1000, false, 0);
        let c2 = m.line_cost(0, 0x1000, false, 1);
        assert!(c1 > c2);
        assert_eq!(c2, snb().l1.latency);
    }

    #[test]
    fn local_regions_disjoint_per_core() {
        let m = CoreMemory::new(snb());
        let a = m.phys(0, AddressSpace::Local, 0);
        let b = m.phys(1, AddressSpace::Local, 0);
        assert_ne!(a, b);
        assert_eq!(m.phys(0, AddressSpace::Global, 42), 42);
    }

    #[test]
    fn spanning_access_costs_max_not_sum() {
        let mut m = CoreMemory::new(snb());
        // 16 bytes straddling two cold lines: still one DRAM latency.
        let c = m.access_cost(0, 60, 16, false, 0);
        assert_eq!(c, snb().dram_latency);
    }

    /// Every cache of every CPU device, each slice of MIC's distributed
    /// last level included, reaches all of its sets through the lines the
    /// hierarchy routes to it. The sweep runs without the prefetcher, so
    /// every line misses the L2 and reaches the last level; prefetching
    /// changes which lines are installed, not where a line goes.
    #[test]
    fn every_cache_reaches_all_of_its_sets() {
        for p in [snb(), nehalem(), mic()] {
            let (name, cores) = (p.name, p.cores as u64);
            let shift = p.l1.line_bytes.trailing_zeros();
            let lines = (2 * p.llc.size_bytes) >> shift;
            let mut m = CoreMemory::new(CpuProfile {
                prefetch_streams: 0,
                ..p
            });
            for line in 0..lines {
                // Each core takes one contiguous run, longer than its L2
                // has sets.
                let core = (line * cores / lines) as usize;
                m.line_cost(core, line << shift, false, line);
            }
            for (level, caches) in [("L1", &m.l1), ("L2", &m.l2), ("LLC", &m.llc)] {
                for (i, c) in caches.iter().enumerate() {
                    let sets = c.config().num_sets();
                    assert_eq!(
                        c.touched_sets() as u64,
                        sets,
                        "{name} {level} {i}: sets reached of {sets}"
                    );
                }
            }
        }
    }

    #[test]
    fn prefetcher_counts_issued() {
        let p = mic();
        let mut m = CoreMemory::new(p);
        for i in 0..64u64 {
            m.line_cost(0, 0x10_0000 + i * 4096, false, i);
        }
        assert!(m.prefetch_issued > 0);
    }
}
