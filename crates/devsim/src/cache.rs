//! Set-associative cache model with true-LRU replacement and write-back /
//! write-allocate policy.

/// Static cache parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub ways: u64,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Construct a configuration.
    pub fn new(size_bytes: u64, line_bytes: u64, ways: u64, latency: u64) -> CacheConfig {
        CacheConfig {
            size_bytes,
            line_bytes,
            ways,
            latency,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        (self.size_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// Hit/miss statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses served by this level.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Valid lines displaced.
    pub evictions: u64,
    /// Dirty lines displaced.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses (hits + misses).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction (0 when never accessed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// A single cache level.
///
/// Each set is `ways` words kept in recency order, most recent first. A
/// word is `(tag + 1) << 1 | dirty` and 0 is an invalid line; valid lines
/// always form a prefix of their set, so the last word of a full set is
/// its least recently used line. Only the sets a launch touches hold
/// words: the first probe allocates a zeroed per-set index (4 bytes a
/// set), and a set's first probe appends its `ways` words to one growing
/// array. A cache no launch reaches holds nothing.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Per set, 0 while untouched, else `1 + n` when the set's words are
    /// `lines[n * ways..(n + 1) * ways]`; empty until the first probe.
    index: Vec<u32>,
    /// The touched sets' words, in the order the sets were first probed.
    lines: Vec<u64>,
    /// `config.ways`.
    ways: usize,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `config.num_sets()`.
    num_sets: u64,
    /// `log2(num_sets)` when the set count is a power of two (indexing by
    /// mask and shift); `None` for the others (SNB/Nehalem LLC, the GPU
    /// L2s), which take one div/mod.
    set_shift: Option<u32>,
    /// Running statistics.
    pub stats: CacheStats,
}

/// Result of probing a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The line was present.
    Hit,
    /// Miss; `writeback` says whether a dirty line was evicted.
    Miss {
        /// A dirty victim was displaced.
        writeback: bool,
    },
}

impl Cache {
    /// An empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// If `line_bytes` is not a power of two of at least 4 or `ways` is
    /// zero: the cache indexes lines by shifting, and with 4-byte lines
    /// or wider every `(tag + 1) << 1` fits in a word.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.line_bytes.is_power_of_two() && config.line_bytes >= 4,
            "cache line size {} is not a power of two of at least 4",
            config.line_bytes
        );
        assert!(config.ways >= 1, "a cache needs at least one way");
        let num_sets = config.num_sets();
        assert!(
            num_sets < u64::from(u32::MAX),
            "{num_sets} sets do not fit the set index"
        );
        Cache {
            config,
            index: Vec::new(),
            lines: Vec::new(),
            ways: config.ways as usize,
            line_shift: config.line_bytes.trailing_zeros(),
            num_sets,
            set_shift: num_sets
                .is_power_of_two()
                .then(|| num_sets.trailing_zeros()),
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// How many sets hold lines: those some probe has reached.
    pub fn touched_sets(&self) -> usize {
        self.lines.len() / self.ways
    }

    /// The set and tag of byte address `addr`.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        match self.set_shift {
            Some(shift) => (
                (line_addr & (self.num_sets - 1)) as usize,
                line_addr >> shift,
            ),
            None => (
                (line_addr % self.num_sets) as usize,
                line_addr / self.num_sets,
            ),
        }
    }

    /// Where set `set`'s words start in `lines`, giving the set its words
    /// (and the cache its index) on first touch.
    fn set_base(&mut self, set: usize) -> usize {
        if self.index.is_empty() {
            self.index = vec![0; self.num_sets as usize];
        }
        match self.index[set] {
            0 => {
                let base = self.lines.len();
                self.lines.resize(base + self.ways, 0);
                self.index[set] = (base / self.ways) as u32 + 1;
                base
            }
            n => (n - 1) as usize * self.ways,
        }
    }

    /// Access one byte address. Accesses spanning multiple lines should be
    /// split by the caller.
    pub fn access(&mut self, addr: u64, is_write: bool) -> Probe {
        let (set_idx, tag) = self.locate(addr);
        let base = self.set_base(set_idx);
        let set = &mut self.lines[base..base + self.ways];
        let word = (tag + 1) << 1;

        // A hit in the most recent word keeps the set's order; over 90 %
        // of Test-scale probes are such hits.
        if set[0] & !1 == word {
            set[0] |= is_write as u64;
            self.stats.hits += 1;
            return Probe::Hit;
        }
        // The hit, else the first invalid way, else the last (LRU) way;
        // either way the line moves to the front.
        let way = set
            .iter()
            .position(|&w| w & !1 == word || w == 0)
            .unwrap_or(self.ways - 1);
        let old = set[way];
        set.copy_within(..way, 1);
        if old & !1 == word {
            set[0] = old | is_write as u64;
            self.stats.hits += 1;
            return Probe::Hit;
        }
        set[0] = word | is_write as u64;
        self.stats.misses += 1;
        if old != 0 {
            self.stats.evictions += 1;
        }
        let writeback = old & 1 == 1;
        if writeback {
            self.stats.writebacks += 1;
        }
        Probe::Miss { writeback }
    }

    /// Set `set`'s words, most recent first; empty while untouched.
    #[cfg(test)]
    pub(crate) fn set_words(&self, set: usize) -> &[u64] {
        match self.index.get(set) {
            Some(&n) if n != 0 => {
                let base = (n - 1) as usize * self.ways;
                &self.lines[base..base + self.ways]
            }
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 B
        Cache::new(CacheConfig::new(128, 16, 2, 1))
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.config().num_sets(), 4);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(matches!(c.access(0x40, false), Probe::Miss { .. }));
        assert_eq!(c.access(0x44, false), Probe::Hit); // same line
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_replacement() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = num_sets * line = 64).
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // touch 0 -> 64 is LRU
        c.access(128, false); // evicts 64
        assert_eq!(c.access(0, false), Probe::Hit);
        assert!(matches!(c.access(64, false), Probe::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(64, false);
        c.access(128, false); // evicts line 0 (LRU), dirty -> writeback
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn a_promoted_line_keeps_its_dirty_bit() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(64, false); // line 0 is now LRU
        assert_eq!(c.access(0, false), Probe::Hit); // a read promotes it
        assert_eq!(c.access(128, false), Probe::Miss { writeback: false }); // evicts 64
        assert_eq!(c.access(192, false), Probe::Miss { writeback: true }); // evicts 0
        assert_eq!(c.stats.evictions, 2);
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn hit_plus_miss_equals_accesses() {
        let mut c = tiny();
        for i in 0..1000u64 {
            c.access(i * 8, i % 3 == 0);
        }
        assert_eq!(c.stats.hits + c.stats.misses, c.stats.accesses());
        assert_eq!(c.stats.accesses(), 1000);
    }

    #[test]
    fn sequential_stream_mostly_hits() {
        // 4-byte sequential accesses over 16-byte lines: 1 miss + 3 hits.
        let mut c = Cache::new(CacheConfig::new(1 << 16, 16, 4, 1));
        for i in 0..256u64 {
            c.access(i * 4, false);
        }
        assert_eq!(c.stats.misses, 64);
        assert_eq!(c.stats.hits, 192);
    }

    #[derive(Clone, Copy, Debug)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        /// LRU timestamp (higher = more recent).
        stamp: u64,
    }

    /// The cache as it was before indexing by shift, flat storage and
    /// recency-ordered words: a timestamp LRU over one vector per set, the
    /// reference the fast path must reproduce probe for probe.
    struct RefCache {
        config: CacheConfig,
        sets: Vec<Vec<Line>>,
        clock: u64,
        stats: CacheStats,
    }

    impl RefCache {
        fn new(config: CacheConfig) -> RefCache {
            let line = Line {
                tag: 0,
                valid: false,
                dirty: false,
                stamp: 0,
            };
            RefCache {
                config,
                sets: vec![vec![line; config.ways as usize]; config.num_sets() as usize],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64, is_write: bool) -> Probe {
            self.clock += 1;
            let line_addr = addr / self.config.line_bytes;
            let set_idx = (line_addr % self.config.num_sets()) as usize;
            let tag = line_addr / self.config.num_sets();
            let set = &mut self.sets[set_idx];
            if let Some(l) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
                l.stamp = self.clock;
                l.dirty |= is_write;
                self.stats.hits += 1;
                return Probe::Hit;
            }
            self.stats.misses += 1;
            let victim = match set.iter().position(|l| !l.valid) {
                Some(i) => i,
                None => {
                    self.stats.evictions += 1;
                    set.iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.stamp)
                        .map(|(i, _)| i)
                        .expect("nonempty set")
                }
            };
            let writeback = set[victim].valid && set[victim].dirty;
            if writeback {
                self.stats.writebacks += 1;
            }
            set[victim] = Line {
                tag,
                valid: true,
                dirty: is_write,
                stamp: self.clock,
            };
            Probe::Miss { writeback }
        }
    }

    /// Every cache geometry a device model builds: the CPU L1/L2/LLC
    /// (MIC's per-core LLC slice included) and the GPU L2s.
    fn device_geometries() -> Vec<(String, CacheConfig)> {
        use crate::profiles::{fermi, kepler, mic, nehalem, snb, tahiti};
        let mut out = Vec::new();
        for p in [snb(), nehalem(), mic()] {
            out.push((format!("{} L1", p.name), p.l1));
            out.push((format!("{} L2", p.name), p.l2));
            let llc = if p.llc_distributed {
                crate::hierarchy::llc_slice(&p)
            } else {
                p.llc
            };
            out.push((format!("{} LLC", p.name), llc));
        }
        for p in [fermi(), kepler(), tahiti()] {
            out.push((format!("{} L2", p.name), p.l2));
        }
        out
    }

    #[test]
    fn fast_indexing_matches_the_reference_cache() {
        for (name, config) in device_geometries() {
            let mut fast = Cache::new(config);
            let mut reference = RefCache::new(config);
            let sets = config.num_sets();
            let lb = config.line_bytes;
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            // The deepest way of a full set a probe hit in.
            let mut deepest = 0;
            for i in 0..85_000u64 {
                let r = next();
                // Scattered first touches, three mixed kinds of traffic,
                // then deep hits.
                let kind = match i {
                    0..5_000 => 4,
                    5_000..65_000 => i % 3,
                    _ => 3,
                };
                let addr = match kind {
                    // Conflict traffic: 8 sets, three times as many tags
                    // as ways, so sets fill, hit and evict.
                    0 => {
                        let set = r % 8 * (sets / 8).max(1);
                        let tag = (r >> 8) % (config.ways * 3);
                        (tag * sets + set) * lb + (r >> 32) % lb
                    }
                    // A sequential stream.
                    1 => i * 4,
                    // Scattered addresses over twice the capacity.
                    2 => r % (2 * config.size_bytes),
                    // Two sets, one tag more than ways: the sets stay
                    // full and most probes hit, at every depth.
                    3 => {
                        let set = r % 2 * (sets / 2);
                        let tag = (r >> 8) % (config.ways + 1);
                        (tag * sets + set) * lb + (r >> 32) % lb
                    }
                    // Random sets, so sets are first touched out of order
                    // and their words live away from `set * ways`.
                    _ => {
                        let set = r % sets;
                        let tag = (r >> 32) % (config.ways * 2);
                        (tag * sets + set) * lb
                    }
                };
                let is_write = (r >> 40) % 4 == 0;
                let line = addr / lb;
                let word = (line / sets + 1) << 1;
                let set = fast.set_words((line % sets) as usize);
                if !set.is_empty() && set.iter().all(|&w| w != 0) {
                    if let Some(way) = set.iter().position(|&w| w & !1 == word) {
                        deepest = deepest.max(way as u64);
                    }
                }
                let (a, b) = (
                    fast.access(addr, is_write),
                    reference.access(addr, is_write),
                );
                assert_eq!(a, b, "{name}: access {i} at {addr:#x}");
            }
            assert_eq!(fast.stats, reference.stats, "{name}");
            let s = fast.stats;
            assert!(
                s.hits > 0 && s.evictions > 0 && s.writebacks > 0,
                "{name}: {s:?}"
            );
            assert_eq!(deepest, config.ways - 1, "{name}: no hit in the LRU way");
            let moved = fast
                .index
                .iter()
                .enumerate()
                .any(|(set, &n)| n != 0 && (n - 1) as usize != set);
            assert!(moved, "{name}: every set's words sit at `set * ways`");
        }
    }

    #[test]
    fn geometry_is_checked() {
        let line = std::panic::catch_unwind(|| Cache::new(CacheConfig::new(1024, 48, 2, 1)));
        assert!(line.is_err(), "48-byte lines accepted");
        for bytes in [1, 2] {
            let tiny = std::panic::catch_unwind(|| Cache::new(CacheConfig::new(64, bytes, 2, 1)));
            assert!(tiny.is_err(), "{bytes}-byte lines accepted");
        }
        let ways = std::panic::catch_unwind(|| Cache::new(CacheConfig::new(1024, 64, 0, 1)));
        assert!(ways.is_err(), "zero ways accepted");
    }

    #[test]
    fn strided_stream_misses() {
        // Stride 256 over a 1 KiB direct-ish cache: every access misses
        // after warmup wraps.
        let mut c = Cache::new(CacheConfig::new(1024, 64, 2, 1));
        let mut misses = 0;
        for rep in 0..4u64 {
            for i in 0..64u64 {
                if matches!(c.access(i * 256, false), Probe::Miss { .. }) {
                    misses += 1;
                }
            }
            let _ = rep;
        }
        // 64 distinct lines, only 16 fit: high miss count.
        assert!(misses > 200, "misses = {misses}");
    }
}
