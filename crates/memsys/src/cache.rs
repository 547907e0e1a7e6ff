//! A set-associative cache with true-LRU replacement.

use serde::{Deserialize, Serialize};

/// Tag value of a slot that has never been written. Real tags are refused
/// at this value and above ([`SetAssocCache::access`]), so it names no
/// line; a checkpoint writes it as line `0`.
const NEVER: u32 = u32::MAX;

/// A single set-associative cache keyed by cache-line address.
///
/// The cache stores line *tags* only (it models presence, not contents).
/// Replacement is true LRU within each set, kept MRU-first — associativities
/// are small (≤ 32), so a linear scan is faster than any fancier structure.
///
/// Storage is one flat tag array (`ways` slots per set) plus a per-set
/// occupancy count, not a `Vec` per set: a probe costs one indexed load
/// instead of a pointer chase through a per-set heap allocation. On big L3
/// geometries the probe pattern is random, so every dependent load is a
/// host cache miss. A slot holds the 4-byte tag `line >> set_bits`, not
/// the line, which halves the tag array: a 16-way set is 64 bytes. The
/// set index is an xor-fold of the line whose low bits can be solved back
/// from `(set, tag)` (`line_of`), so equal tags within a set mean equal
/// lines.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SetAssocCache {
    /// Tags, MRU-first; set `s` owns `tags[s*ways .. s*ways+lens[s]]`.
    /// Slots past `lens[s]` keep whatever they last held ([`NEVER`] if
    /// nothing): a checkpoint records them.
    tags: Vec<u32>,
    /// Valid slots per set (≤ `ways`).
    lens: Vec<u8>,
    ways: usize,
    set_bits: u32,
    set_mask: u64,
    line_shift: u32,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates a cache with `num_sets` sets (rounded up to a power of two),
    /// `ways` lines per set, and `line_bytes` line size (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or above 255, or `line_bytes` is not a
    /// power of two.
    pub fn new(num_sets: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        assert!(ways <= u8::MAX as usize, "per-set occupancy is a u8");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let num_sets = num_sets.max(1).next_power_of_two();
        SetAssocCache {
            tags: vec![NEVER; num_sets * ways],
            lens: vec![0; num_sets],
            ways,
            set_bits: num_sets.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
            line_shift: line_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.lens.len() * self.ways * (1usize << self.line_shift)
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        // Mix the upper bits in so that strided physical layouts do not all
        // land in the same set (cheap xor-fold, not a hash).
        ((line ^ (line >> 13)) & self.set_mask) as usize
    }

    /// The set index and tag of `paddr`'s line.
    #[inline]
    fn locate(&self, paddr: u64) -> (usize, u32) {
        let line = paddr >> self.line_shift;
        (self.set_index(line), self.tag_of(line))
    }

    /// The tag of `line`: its bits above the set index.
    ///
    /// # Panics
    ///
    /// Panics if the tag does not fit below [`NEVER`]: tags are never
    /// truncated.
    #[inline]
    fn tag_of(&self, line: u64) -> u32 {
        let tag = line >> self.set_bits;
        if tag >= u64::from(NEVER) {
            tag_overflow(line);
        }
        tag as u32
    }

    /// The line that `tag` names in set `idx`: the inverse of
    /// `(set_index, line >> set_bits)`.
    ///
    /// Bit `j` of the index is `low_j ^ line_{j+13}`, so each low bit is
    /// fixed by a bit 13 places higher. One pass fixes every low bit whose
    /// partner lies in the tag; each further pass fixes 13 more, top down.
    /// With `set_bits ≤ 13` one pass is the closed form
    /// `low = idx ^ ((tag << set_bits) >> 13) & mask`.
    fn line_of(&self, idx: usize, tag: u32) -> u64 {
        let high = u64::from(tag) << self.set_bits;
        let mut line = high;
        for _ in 0..self.set_bits.div_ceil(13) {
            line = high | ((idx as u64 ^ (line >> 13)) & self.set_mask);
        }
        line
    }

    /// Accesses a physical address: returns `true` on hit. On miss the line
    /// is filled, evicting the LRU way if the set is full.
    #[inline]
    pub fn access(&mut self, paddr: u64) -> bool {
        let (idx, tag) = self.locate(paddr);
        let base = idx * self.ways;
        let len = self.lens[idx] as usize;
        let set = &mut self.tags[base..base + len];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            if pos != 0 {
                // Move to MRU by rotating the prefix: identical ordering to
                // remove+insert(0), without the double memmove.
                set[..=pos].rotate_right(1);
            }
            self.hits += 1;
            true
        } else {
            // Insert at MRU; a full set drops its LRU (last) tag.
            if len < self.ways {
                self.lens[idx] = len as u8 + 1;
            }
            let keep = (self.lens[idx] - 1) as usize;
            self.tags.copy_within(base..base + keep, base + 1);
            self.tags[base] = tag;
            self.misses += 1;
            false
        }
    }

    /// Adds `n` hits without probing — the bulk-charge path for stable
    /// (MRU) hits, which change no other state.
    #[inline]
    pub fn add_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Checks for presence without updating LRU state or statistics.
    #[inline]
    pub fn probe(&self, paddr: u64) -> bool {
        let (idx, tag) = self.locate(paddr);
        let base = idx * self.ways;
        let len = self.lens[idx] as usize;
        self.tags[base..base + len].contains(&tag)
    }

    /// Invalidates a line if present; returns `true` if it was present.
    pub fn invalidate(&mut self, paddr: u64) -> bool {
        let (idx, tag) = self.locate(paddr);
        let base = idx * self.ways;
        let len = self.lens[idx] as usize;
        let set = &self.tags[base..base + len];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            self.tags
                .copy_within(base + pos + 1..base + len, base + pos);
            self.lens[idx] = len as u8 - 1;
            true
        } else {
            false
        }
    }

    /// Drops every cached line (e.g. after a wholesale migration).
    pub fn flush(&mut self) {
        self.lens.fill(0);
    }

    /// Lifetime hit count.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Serializes the tag arrays and counters (geometry fields are
    /// constructor-fixed and rebuilt by the caller). Every slot, stale ones
    /// included, is written as its full line address, and a never-written
    /// slot as `0`: the encoding of a cache that stored `u64` lines in
    /// zero-initialised slots.
    pub fn save_into(&self, e: &mut codec::Enc) {
        e.usize(self.tags.len());
        for (idx, set) in self.tags.chunks_exact(self.ways).enumerate() {
            for &t in set {
                e.u64(if t == NEVER { 0 } else { self.line_of(idx, t) });
            }
        }
        e.seq(self.lens.iter(), |e, &l| e.u8(l));
        e.u64(self.hits);
        e.u64(self.misses);
    }

    /// Restores state captured by [`SetAssocCache::save_into`] onto a cache
    /// built with the same geometry.
    ///
    /// # Panics
    ///
    /// Panics on a different geometry, or on a slot holding a value that is
    /// neither `0` nor a line of the slot's own set.
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        let n = d.usize();
        assert_eq!(n, self.tags.len(), "checkpoint cache geometry");
        for idx in 0..self.lens.len() {
            for slot in idx * self.ways..(idx + 1) * self.ways {
                let line = d.u64();
                self.tags[slot] = if self.set_index(line) == idx {
                    self.tag_of(line)
                } else {
                    assert_eq!(
                        line, 0,
                        "checkpoint cache slot of set {idx} holds a line of another set"
                    );
                    NEVER
                };
            }
        }
        let lens = d.seq(|d| d.u8());
        assert_eq!(lens.len(), self.lens.len(), "checkpoint cache geometry");
        self.lens = lens;
        self.hits = d.u64();
        self.misses = d.u64();
    }

    /// Lifetime hit ratio in `[0, 1]`; `0` before any access.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cold]
#[inline(never)]
fn tag_overflow(line: u64) -> ! {
    panic!("cache line {line:#x} is beyond the cache's 32-bit tag range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssocCache::new(16, 2, 64);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103f)); // same 64-byte line
        assert!(!c.access(0x1040)); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // Single set, 2 ways: force all addresses into set 0 by using a
        // 1-set cache.
        let mut c = SetAssocCache::new(1, 2, 64);
        assert!(!c.access(0x0));
        assert!(!c.access(0x40));
        // Touch 0x0 so that 0x40 becomes LRU.
        assert!(c.access(0x0));
        // New line evicts 0x40.
        assert!(!c.access(0x80));
        assert!(c.access(0x0));
        assert!(!c.access(0x40)); // was evicted
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = SetAssocCache::new(1, 2, 64);
        c.access(0x0);
        c.access(0x40);
        let hits_before = c.hits();
        assert!(c.probe(0x0));
        assert!(!c.probe(0x1000));
        assert_eq!(c.hits(), hits_before);
        // Probing 0x0 must not have promoted it: 0x0 is still LRU, so a new
        // line evicts it.
        c.access(0x80);
        assert!(!c.probe(0x0));
        assert!(c.probe(0x40));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssocCache::new(4, 2, 64);
        c.access(0x100);
        assert!(c.invalidate(0x100));
        assert!(!c.invalidate(0x100));
        assert!(!c.probe(0x100));
    }

    #[test]
    fn invalidate_preserves_lru_order_of_survivors() {
        let mut c = SetAssocCache::new(1, 3, 64);
        c.access(0x0);
        c.access(0x40);
        c.access(0x80); // MRU-first order: 0x80, 0x40, 0x0
        assert!(c.invalidate(0x40));
        // Two survivors + one new line: nothing evicted yet.
        assert!(!c.access(0xc0)); // order: 0xc0, 0x80, 0x0
        assert!(c.probe(0x0));
        // Next fill evicts the LRU survivor (0x0), not 0x80.
        assert!(!c.access(0x100));
        assert!(!c.probe(0x0));
        assert!(c.probe(0x80));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = SetAssocCache::new(4, 4, 64);
        for i in 0..16u64 {
            c.access(i * 64);
        }
        c.flush();
        for i in 0..16u64 {
            assert!(!c.probe(i * 64));
        }
    }

    #[test]
    fn capacity_is_sets_times_ways_times_line() {
        let c = SetAssocCache::new(64, 8, 64);
        assert_eq!(c.capacity_bytes(), 64 * 8 * 64);
    }

    #[test]
    fn sets_rounded_to_power_of_two() {
        let c = SetAssocCache::new(48, 1, 64);
        assert_eq!(c.capacity_bytes(), 64 * 64);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = SetAssocCache::new(8, 2, 64); // 1 KiB
                                                  // Stream over 64 KiB twice: second pass should still miss nearly
                                                  // everywhere because the working set is 64x the capacity.
        let lines = 1024u64;
        for _ in 0..2 {
            for i in 0..lines {
                c.access(i * 64);
            }
        }
        assert!(c.hit_ratio() < 0.05, "hit ratio {}", c.hit_ratio());
    }

    #[test]
    fn working_set_smaller_than_cache_hits() {
        let mut c = SetAssocCache::new(64, 8, 64); // 32 KiB
        for pass in 0..4 {
            for i in 0..128u64 {
                let hit = c.access(i * 64);
                if pass > 0 {
                    assert!(hit, "pass {pass} line {i} should hit");
                }
            }
        }
    }

    /// The `u64`-line cache that [`SetAssocCache`] replaced, kept as the
    /// oracle of the 4-byte-tag layout: full lines in zero-initialised
    /// slots, the same occupancy and stale-slot behaviour, and the ckpt-v3
    /// encoding that the compact layout must reproduce byte for byte.
    struct OracleCache {
        tags: Vec<u64>,
        lens: Vec<u8>,
        ways: usize,
        set_mask: u64,
        line_shift: u32,
        hits: u64,
        misses: u64,
    }

    impl OracleCache {
        fn new(num_sets: usize, ways: usize, line_bytes: usize) -> Self {
            let num_sets = num_sets.max(1).next_power_of_two();
            OracleCache {
                tags: vec![0; num_sets * ways],
                lens: vec![0; num_sets],
                ways,
                set_mask: (num_sets - 1) as u64,
                line_shift: line_bytes.trailing_zeros(),
                hits: 0,
                misses: 0,
            }
        }

        fn set_of(&self, paddr: u64) -> (u64, usize, usize) {
            let line = paddr >> self.line_shift;
            let idx = ((line ^ (line >> 13)) & self.set_mask) as usize;
            (line, idx * self.ways, self.lens[idx] as usize)
        }

        fn access(&mut self, paddr: u64) -> bool {
            let (line, base, len) = self.set_of(paddr);
            let set = &mut self.tags[base..base + len];
            if let Some(pos) = set.iter().position(|&t| t == line) {
                set[..=pos].rotate_right(1);
                self.hits += 1;
                true
            } else {
                let idx = base / self.ways;
                if len < self.ways {
                    self.lens[idx] = len as u8 + 1;
                }
                let keep = (self.lens[idx] - 1) as usize;
                self.tags.copy_within(base..base + keep, base + 1);
                self.tags[base] = line;
                self.misses += 1;
                false
            }
        }

        fn probe(&self, paddr: u64) -> bool {
            let (line, base, len) = self.set_of(paddr);
            self.tags[base..base + len].contains(&line)
        }

        fn invalidate(&mut self, paddr: u64) -> bool {
            let (line, base, len) = self.set_of(paddr);
            match self.tags[base..base + len].iter().position(|&t| t == line) {
                Some(pos) => {
                    self.tags
                        .copy_within(base + pos + 1..base + len, base + pos);
                    self.lens[base / self.ways] = len as u8 - 1;
                    true
                }
                None => false,
            }
        }

        fn save_into(&self, e: &mut codec::Enc) {
            e.seq(self.tags.iter(), |e, &t| e.u64(t));
            e.seq(self.lens.iter(), |e, &l| e.u8(l));
            e.u64(self.hits);
            e.u64(self.misses);
        }

        fn load_from(&mut self, d: &mut codec::Dec<'_>) {
            self.tags = d.seq(|d| d.u64());
            self.lens = d.seq(|d| d.u8());
            self.hits = d.u64();
            self.misses = d.u64();
        }
    }

    fn saved(f: impl FnOnce(&mut codec::Enc)) -> Vec<u8> {
        let mut e = codec::Enc::new();
        f(&mut e);
        e.into_bytes()
    }

    /// A pool of line addresses for one case: a few sets each crowded with
    /// more distinct lines than it has ways (LRU eviction, invalidation of
    /// middle ways), line 0 (tag 0 of set 0, which never-written slots of
    /// set 0 must not alias), and the highest tags the geometry allows.
    fn line_pool(c: &SetAssocCache, rng: &mut SmallRng) -> Vec<u64> {
        let sets = c.lens.len();
        let tag_limit = u64::from(NEVER) - 1;
        let mut pool = vec![0];
        for _ in 0..4.min(sets) {
            let idx = rng.random_range(0..sets);
            for _ in 0..c.ways + 3 {
                let tag = match rng.random_range(0..4u32) {
                    0 => rng.random_range(0..4u64),
                    1 => tag_limit - rng.random_range(0..4u64),
                    _ => rng.random_range(0..=tag_limit),
                };
                pool.push(c.line_of(idx, tag as u32));
            }
        }
        pool
    }

    proptest! {
        /// The 4-byte-tag cache behaves exactly like the `u64`-line cache it
        /// replaced: same return values, same counters, same checkpoint
        /// bytes (stale slots after `flush` and `invalidate` included),
        /// also across a mid-run save/load into fresh caches.
        #[test]
        fn compact_tags_match_u64_oracle(seed in 0u64..u64::MAX, geometry in 0usize..20, ops in 200usize..2000) {
            let sets = [1, 8, 64, 2048, 16384][geometry / 4];
            let ways = [1, 2, 8, 16][geometry % 4];
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut cache = SetAssocCache::new(sets, ways, 64);
            let mut oracle = OracleCache::new(sets, ways, 64);
            let pool = line_pool(&cache, &mut rng);
            // Sparse saves on the big geometries keep a case fast.
            let save_every = if sets * ways > 4096 { 500 } else { 25 };
            for i in 0..ops {
                if i == ops / 2 {
                    let bytes = saved(|e| cache.save_into(e));
                    prop_assert_eq!(&bytes, &saved(|e| oracle.save_into(e)));
                    cache = SetAssocCache::new(sets, ways, 64);
                    cache.load_from(&mut codec::Dec::new(&bytes));
                    oracle = OracleCache::new(sets, ways, 64);
                    oracle.load_from(&mut codec::Dec::new(&bytes));
                }
                let line = if rng.random_range(0..10u32) == 0 {
                    // A line anywhere below the 32-bit tag limit: a cold miss
                    // into a random set.
                    let max_line = ((u64::from(NEVER) - 1) << cache.set_bits) | cache.set_mask;
                    rng.random_range(0..=max_line)
                } else {
                    pool[rng.random_range(0..pool.len())]
                };
                let paddr = (line << 6) | rng.random_range(0..64u64);
                let mut stale_change = false;
                match rng.random_range(0..100u32) {
                    0..=59 => prop_assert_eq!(cache.access(paddr), oracle.access(paddr)),
                    60..=74 => prop_assert_eq!(cache.probe(paddr), oracle.probe(paddr)),
                    75..=91 => {
                        prop_assert_eq!(cache.invalidate(paddr), oracle.invalidate(paddr));
                        stale_change = true;
                    }
                    92..=97 => {
                        let n = rng.random_range(0..5u64);
                        cache.add_hits(n);
                        oracle.hits += n;
                    }
                    _ => {
                        cache.flush();
                        oracle.lens.fill(0);
                        stale_change = true;
                    }
                }
                prop_assert_eq!((cache.hits(), cache.misses()), (oracle.hits, oracle.misses));
                if (stale_change && sets * ways <= 4096) || i % save_every == 0 {
                    prop_assert_eq!(saved(|e| cache.save_into(e)), saved(|e| oracle.save_into(e)));
                }
            }
            prop_assert_eq!(saved(|e| cache.save_into(e)), saved(|e| oracle.save_into(e)));
        }
    }

    #[test]
    fn tag_and_set_rebuild_the_line_for_every_set_width() {
        let mut rng = SmallRng::seed_from_u64(3);
        for set_bits in 0..=16u32 {
            let c = SetAssocCache::new(1 << set_bits, 1, 64);
            let max_line = ((u64::from(NEVER) - 1) << set_bits) | c.set_mask;
            let edges = [0, 1, c.set_mask, 1 << 13, max_line, max_line - c.set_mask];
            let random = (0..2000).map(|_| rng.random_range(0..=max_line));
            for line in edges.into_iter().chain(random) {
                let idx = c.set_index(line);
                assert_eq!(c.line_of(idx, c.tag_of(line)), line, "set_bits {set_bits}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "32-bit tag range")]
    fn tag_that_does_not_fit_is_refused() {
        // One set: the tag is the whole line.
        let mut c = SetAssocCache::new(1, 1, 64);
        assert!(!c.access((u64::from(NEVER) - 1) << 6));
        c.access(u64::from(NEVER) << 6);
    }

    #[test]
    fn machine_b_addresses_fit_every_level() {
        let top = numa_topology::MachineSpec::machine_b().total_dram_bytes() - 1;
        for scale in [1, 8] {
            let config = crate::MemSysConfig::scaled_default(scale);
            for g in [config.l1, config.l2, config.l3] {
                let mut c = SetAssocCache::new(g.sets, g.ways, g.line_bytes);
                assert!(!c.access(top));
                assert!(c.access(top));
                // The widest tag leaves its top 2 bits clear.
                assert_eq!(c.tag_of(top >> c.line_shift) >> 30, 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "holds a line of another set")]
    fn load_refuses_a_line_of_another_set() {
        let mut c = SetAssocCache::new(8, 2, 64);
        // Line 1 lives in set 1; claim it for set 0's first slot.
        let mut bytes = saved(|e| c.save_into(e));
        bytes[8..16].copy_from_slice(&1u64.to_le_bytes());
        c.load_from(&mut codec::Dec::new(&bytes));
    }
}
