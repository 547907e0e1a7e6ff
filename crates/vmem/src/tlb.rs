//! Per-core translation lookaside buffers.
//!
//! Models the Opteron's two-level TLB: small per-size-class L1 arrays backed
//! by a larger unified L2. Larger pages need fewer entries to cover the same
//! footprint — the entire mechanism by which large pages help — so the TLB
//! stores one entry per *page*, whatever its size.

use crate::addr::{PhysAddr, VirtAddr};
use crate::table::{Mapping, PageSize};
use numa_topology::NodeId;
use serde::{Deserialize, Serialize};

/// Geometry of the two TLB levels.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TlbConfig {
    /// L1 entries for 4 KiB pages.
    pub l1_4k_entries: usize,
    /// L1 entries for 2 MiB pages.
    pub l1_2m_entries: usize,
    /// L1 entries for 1 GiB pages.
    pub l1_1g_entries: usize,
    /// Unified L2 entries (all sizes).
    pub l2_entries: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Extra cycles charged on an L2 TLB hit (L1 hits are free).
    pub l2_hit_cycles: u32,
}

impl TlbConfig {
    /// Opteron-like geometry scaled down by `scale` (1 = full size:
    /// 48/32/8-entry L1 arrays, 1024-entry 8-way L2).
    pub fn scaled_default(scale: usize) -> Self {
        let scale = scale.max(1);
        let d = |n: usize| (n / scale).max(2);
        TlbConfig {
            l1_4k_entries: d(48),
            l1_2m_entries: d(32),
            l1_1g_entries: d(8),
            l2_entries: d(1024),
            l2_ways: 8,
            l2_hit_cycles: 7,
        }
    }
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig::scaled_default(1)
    }
}

/// One cached translation.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TlbEntry {
    /// The mapping this entry caches.
    pub mapping: Mapping,
}

/// Result of a TLB lookup.
#[derive(Clone, Copy, Debug)]
pub enum TlbLookup {
    /// Hit in the first level: zero added latency.
    HitL1(Mapping),
    /// Hit in the unified second level.
    HitL2(Mapping),
    /// Miss: a page-table walk is required.
    Miss,
}

/// A set-associative translation array with LRU replacement.
///
/// Storage follows `memsys::SetAssocCache`: one flat key array and one
/// flat mapping array (`ways` slots per set, MRU-first) plus a per-set
/// occupancy count, so a probe is an indexed load rather than a pointer
/// chase through a per-set heap allocation. Keys are scanned on every
/// lookup, so they sit apart from the ~24-byte mappings: a
/// fully-associative 48-entry probe touches 384 bytes.
///
/// `class_len` counts the valid entries of each size class (key bits 56+;
/// L1 keys are all class 0). A probe of a class with no entries misses
/// without touching the set. That cannot change any outcome: a missed
/// probe moves no entry and counts nothing, and an empty class can only
/// miss. Under 4 KiB-only mappings it skips four of a full miss's six
/// probes (both huge L1 arrays and both huge classes of the L2).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct SubTlb {
    /// Keys, MRU-first; set `s` owns `keys[s*ways .. s*ways+lens[s]]`.
    keys: Vec<u64>,
    /// Mappings, parallel to `keys`.
    vals: Vec<Mapping>,
    /// Valid slots per set (≤ `ways`).
    lens: Vec<u8>,
    /// Valid entries per size class, indexed by [`class_of`].
    class_len: [u32; 4],
    ways: usize,
    set_mask: u64,
}

/// Fill value of unused mapping slots; never read back.
const EMPTY_MAPPING: Mapping = Mapping {
    vbase: VirtAddr(0),
    frame: PhysAddr(0),
    node: NodeId(0),
    size: PageSize::Size4K,
};

/// Size class of a sub-TLB key (see [`l2_key`]); masked so the index is
/// in bounds without a check.
#[inline]
fn class_of(key: u64) -> usize {
    (key >> 56) as usize & 3
}

impl SubTlb {
    /// # Panics
    ///
    /// Panics if the associativity exceeds 255 (the per-set occupancy is
    /// a `u8`).
    fn new(entries: usize, ways: usize) -> Self {
        let ways = ways.max(1).min(entries.max(1));
        assert!(ways <= u8::MAX as usize, "per-set TLB occupancy is a u8");
        let sets = (entries / ways).max(1).next_power_of_two();
        SubTlb {
            keys: vec![0; sets * ways],
            vals: vec![EMPTY_MAPPING; sets * ways],
            lens: vec![0; sets],
            class_len: [0; 4],
            ways,
            set_mask: (sets - 1) as u64,
        }
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        // Multiplicative hash: the scaled-down set count would otherwise
        // alias regularly-strided VPNs far more than a full-size TLB does.
        ((key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) & self.set_mask) as usize
    }

    /// `key`'s set index, the set's first slot, and the key's position
    /// in the set if present.
    #[inline]
    fn find(&self, key: u64) -> (usize, usize, Option<usize>) {
        let idx = self.set_of(key);
        let base = idx * self.ways;
        let len = self.lens[idx] as usize;
        let pos = self.keys[base..base + len].iter().position(|&k| k == key);
        (idx, base, pos)
    }

    /// Moves slot `base+pos` to the front of its set: identical ordering
    /// to remove+insert(0), without the double memmove.
    #[inline]
    fn promote(&mut self, base: usize, pos: usize) {
        if pos != 0 {
            self.keys[base..=base + pos].rotate_right(1);
            self.vals[base..=base + pos].rotate_right(1);
        }
    }

    #[inline]
    fn lookup(&mut self, key: u64) -> Option<Mapping> {
        if self.class_len[class_of(key)] == 0 {
            return None;
        }
        let (_, base, pos) = self.find(key);
        let pos = pos?;
        self.promote(base, pos);
        Some(self.vals[base])
    }

    #[inline]
    fn insert(&mut self, key: u64, mapping: Mapping) {
        let (idx, base, pos) = self.find(key);
        if let Some(pos) = pos {
            self.promote(base, pos);
            self.vals[base] = mapping;
            return;
        }
        // Insert at MRU; a full set drops its LRU (last) entry.
        let len = self.lens[idx] as usize;
        if len < self.ways {
            self.lens[idx] = len as u8 + 1;
        } else {
            self.class_len[class_of(self.keys[base + len - 1])] -= 1;
        }
        let keep = self.lens[idx] as usize - 1;
        self.keys.copy_within(base..base + keep, base + 1);
        self.vals.copy_within(base..base + keep, base + 1);
        self.keys[base] = key;
        self.vals[base] = mapping;
        self.class_len[class_of(key)] += 1;
    }

    fn invalidate(&mut self, key: u64) {
        let (idx, base, pos) = self.find(key);
        if let Some(pos) = pos {
            let len = self.lens[idx] as usize;
            self.keys
                .copy_within(base + pos + 1..base + len, base + pos);
            self.vals
                .copy_within(base + pos + 1..base + len, base + pos);
            self.lens[idx] = len as u8 - 1;
            self.class_len[class_of(key)] -= 1;
        }
    }

    fn flush(&mut self) {
        self.lens.fill(0);
        self.class_len = [0; 4];
    }

    /// The valid slots of set `idx`, MRU-first.
    fn set_slots(&self, idx: usize) -> std::ops::Range<usize> {
        let base = idx * self.ways;
        base..base + self.lens[idx] as usize
    }

    /// Serializes the set contents (MRU-first order preserved); geometry
    /// (`ways`, `set_mask`) is rebuilt from the config by the caller.
    fn save_into(&self, e: &mut codec::Enc) {
        e.seq(0..self.lens.len(), |e, idx| {
            let slots = self.set_slots(idx);
            e.seq(self.keys[slots.clone()].iter(), |e, &k| e.u64(k));
            e.seq(self.vals[slots].iter(), crate::table::enc_mapping);
        });
    }

    /// Restores state captured by [`SubTlb::save_into`] onto a sub-TLB
    /// built with the same geometry.
    fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        let n = d.usize();
        assert_eq!(n, self.lens.len(), "checkpoint TLB set count mismatch");
        self.class_len = [0; 4];
        for idx in 0..n {
            let base = idx * self.ways;
            let len = d.usize();
            assert!(len <= self.ways, "checkpoint TLB set overfull");
            for slot in base..base + len {
                let key = d.u64();
                self.keys[slot] = key;
                self.class_len[class_of(key)] += 1;
            }
            assert_eq!(d.usize(), len, "checkpoint TLB set torn");
            for slot in base..base + len {
                self.vals[slot] = crate::table::dec_mapping(d);
            }
            self.lens[idx] = len as u8;
        }
    }
}

/// Lifetime TLB statistics.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct TlbStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (L1 misses that the L2 caught).
    pub l2_hits: u64,
    /// Full misses (walk required).
    pub misses: u64,
}

impl TlbStats {
    /// Miss ratio over all lookups; 0 when idle.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.l1_hits + self.l2_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A per-core two-level TLB.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Tlb {
    l1_4k: SubTlb,
    l1_2m: SubTlb,
    l1_1g: SubTlb,
    l2: SubTlb,
    stats: TlbStats,
}

/// Unified-L2 key: VPN disambiguated by size class. The class lives in the
/// high bits so that consecutive VPNs still map to consecutive sets.
#[inline]
fn l2_key(vaddr: VirtAddr, size: PageSize) -> u64 {
    let class = match size {
        PageSize::Size4K => 0u64,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    };
    (vaddr.0 >> size.bytes().trailing_zeros()) | class << 56
}

#[inline]
fn vpn(vaddr: VirtAddr, size: PageSize) -> u64 {
    vaddr.0 >> size.bytes().trailing_zeros()
}

impl Tlb {
    /// Creates an empty TLB with the given geometry.
    pub fn new(config: &TlbConfig) -> Self {
        Tlb {
            // L1 arrays are fully associative, as on real hardware.
            l1_4k: SubTlb::new(config.l1_4k_entries, config.l1_4k_entries),
            l1_2m: SubTlb::new(config.l1_2m_entries, config.l1_2m_entries),
            l1_1g: SubTlb::new(config.l1_1g_entries, config.l1_1g_entries),
            l2: SubTlb::new(config.l2_entries, config.l2_ways),
            stats: TlbStats::default(),
        }
    }

    /// Looks up `vaddr`, probing every size class in both levels. An L2 hit
    /// is promoted into the matching L1 array.
    pub fn lookup(&mut self, vaddr: VirtAddr) -> TlbLookup {
        for (sub, size) in [
            (&mut self.l1_4k, PageSize::Size4K),
            (&mut self.l1_2m, PageSize::Size2M),
            (&mut self.l1_1g, PageSize::Size1G),
        ] {
            if let Some(m) = sub.lookup(vpn(vaddr, size)) {
                self.stats.l1_hits += 1;
                return TlbLookup::HitL1(m);
            }
        }
        for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
            if let Some(m) = self.l2.lookup(l2_key(vaddr, size)) {
                self.stats.l2_hits += 1;
                self.l1_for(size).insert(vpn(vaddr, size), m);
                return TlbLookup::HitL2(m);
            }
        }
        self.stats.misses += 1;
        TlbLookup::Miss
    }

    fn l1_for(&mut self, size: PageSize) -> &mut SubTlb {
        match size {
            PageSize::Size4K => &mut self.l1_4k,
            PageSize::Size2M => &mut self.l1_2m,
            PageSize::Size1G => &mut self.l1_1g,
        }
    }

    /// Installs a translation after a walk (fills both levels).
    pub fn insert(&mut self, mapping: Mapping) {
        let v = mapping.vbase;
        let s = mapping.size;
        self.l1_for(s).insert(vpn(v, s), mapping);
        self.l2.insert(l2_key(v, s), mapping);
    }

    /// Removes any entry translating the page at `vbase` of `size`
    /// (one core's share of a TLB shootdown).
    pub fn invalidate(&mut self, vbase: VirtAddr, size: PageSize) {
        self.l1_for(size).invalidate(vpn(vbase, size));
        self.l2.invalidate(l2_key(vbase, size));
    }

    /// Drops every entry (full flush).
    pub fn flush(&mut self) {
        self.l1_4k.flush();
        self.l1_2m.flush();
        self.l1_1g.flush();
        self.l2.flush();
    }

    /// Lifetime statistics.
    #[inline]
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Serializes the full TLB state (entries in recency order plus
    /// lifetime stats) for the `ckpt-v3` snapshot.
    pub fn save_into(&self, e: &mut codec::Enc) {
        self.l1_4k.save_into(e);
        self.l1_2m.save_into(e);
        self.l1_1g.save_into(e);
        self.l2.save_into(e);
        e.u64(self.stats.l1_hits);
        e.u64(self.stats.l2_hits);
        e.u64(self.stats.misses);
    }

    /// Restores state captured by [`Tlb::save_into`] onto a TLB built with
    /// the same [`TlbConfig`].
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        self.l1_4k.load_from(d);
        self.l1_2m.load_from(d);
        self.l1_1g.load_from(d);
        self.l2.load_from(d);
        self.stats.l1_hits = d.u64();
        self.stats.l2_hits = d.u64();
        self.stats.misses = d.u64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PAGE_1G, PAGE_2M, PAGE_4K};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn map(vbase: u64, size: PageSize) -> Mapping {
        Mapping {
            vbase: VirtAddr(vbase),
            frame: PhysAddr(vbase), // identity is fine for TLB tests
            node: NodeId(0),
            size,
        }
    }

    fn tiny_config() -> TlbConfig {
        TlbConfig {
            l1_4k_entries: 2,
            l1_2m_entries: 2,
            l1_1g_entries: 1,
            l2_entries: 8,
            l2_ways: 8,
            l2_hit_cycles: 7,
        }
    }

    #[test]
    fn miss_then_hit_after_insert() {
        let mut t = Tlb::new(&TlbConfig::default());
        assert!(matches!(t.lookup(VirtAddr(0x1234)), TlbLookup::Miss));
        t.insert(map(0x1000, PageSize::Size4K));
        assert!(matches!(t.lookup(VirtAddr(0x1fff)), TlbLookup::HitL1(_)));
        assert!(matches!(t.lookup(VirtAddr(0x2000)), TlbLookup::Miss));
    }

    #[test]
    fn huge_entry_covers_whole_2m() {
        let mut t = Tlb::new(&TlbConfig::default());
        t.insert(map(0x20_0000, PageSize::Size2M));
        for off in [0u64, 0x1000, PAGE_2M - 1] {
            assert!(
                matches!(t.lookup(VirtAddr(0x20_0000 + off)), TlbLookup::HitL1(_)),
                "offset {off:#x}"
            );
        }
        assert!(matches!(t.lookup(VirtAddr(0x40_0000)), TlbLookup::Miss));
    }

    #[test]
    fn evicted_l1_entry_survives_in_l2_and_promotes() {
        let mut t = Tlb::new(&tiny_config());
        // Fill the 2-entry L1 beyond capacity.
        t.insert(map(0x1000, PageSize::Size4K));
        t.insert(map(0x2000, PageSize::Size4K));
        t.insert(map(0x3000, PageSize::Size4K));
        // 0x1000 fell out of L1 but is still in the unified L2.
        assert!(matches!(t.lookup(VirtAddr(0x1000)), TlbLookup::HitL2(_)));
        // The hit promoted it back to L1.
        assert!(matches!(t.lookup(VirtAddr(0x1000)), TlbLookup::HitL1(_)));
    }

    #[test]
    fn capacity_miss_when_footprint_exceeds_both_levels() {
        let mut t = Tlb::new(&tiny_config());
        for i in 0..64u64 {
            t.insert(map(i * PAGE_4K, PageSize::Size4K));
        }
        // Streaming back over the 64-page footprint misses mostly; with
        // 8 L2 entries the oldest pages must be gone.
        assert!(matches!(t.lookup(VirtAddr(0)), TlbLookup::Miss));
    }

    #[test]
    fn one_2m_entry_replaces_512_4k_entries() {
        // The TLB-reach effect in one test: a 2 MiB footprint needs 512
        // small entries (overflowing a small TLB) but a single huge entry.
        let cfg = tiny_config();
        let mut small = Tlb::new(&cfg);
        for i in 0..512u64 {
            small.insert(map(i * PAGE_4K, PageSize::Size4K));
        }
        let misses_before = small.stats().misses;
        for i in 0..512u64 {
            let _ = small.lookup(VirtAddr(i * PAGE_4K));
        }
        assert!(small.stats().misses > misses_before, "small pages thrash");

        let mut huge = Tlb::new(&cfg);
        huge.insert(map(0, PageSize::Size2M));
        for i in 0..512u64 {
            assert!(matches!(
                huge.lookup(VirtAddr(i * PAGE_4K)),
                TlbLookup::HitL1(_)
            ));
        }
    }

    #[test]
    fn invalidate_removes_both_levels() {
        let mut t = Tlb::new(&TlbConfig::default());
        t.insert(map(0x5000, PageSize::Size4K));
        t.invalidate(VirtAddr(0x5000), PageSize::Size4K);
        assert!(matches!(t.lookup(VirtAddr(0x5000)), TlbLookup::Miss));
    }

    #[test]
    fn flush_clears_everything() {
        let mut t = Tlb::new(&TlbConfig::default());
        t.insert(map(0x5000, PageSize::Size4K));
        t.insert(map(0x20_0000, PageSize::Size2M));
        t.flush();
        assert!(matches!(t.lookup(VirtAddr(0x5000)), TlbLookup::Miss));
        assert!(matches!(t.lookup(VirtAddr(0x20_0000)), TlbLookup::Miss));
    }

    #[test]
    fn stats_track_outcomes() {
        let mut t = Tlb::new(&TlbConfig::default());
        let _ = t.lookup(VirtAddr(0x1000)); // miss
        t.insert(map(0x1000, PageSize::Size4K));
        let _ = t.lookup(VirtAddr(0x1000)); // l1 hit
        let s = t.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.l1_hits, 1);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn l1_reach_is_exactly_its_entry_count() {
        // The full-size 4 KiB L1 is 48 entries, fully associative with
        // LRU: a cyclic stream over exactly 48 pages fits (all L1 hits
        // once warm), while 49 pages thrash the L1 on every access and
        // fall through to the unified L2.
        let cfg = TlbConfig::default();
        let mut t = Tlb::new(&cfg);
        for i in 0..48u64 {
            t.insert(map(i * PAGE_4K, PageSize::Size4K));
        }
        for round in 0..3 {
            for i in 0..48u64 {
                assert!(
                    matches!(t.lookup(VirtAddr(i * PAGE_4K)), TlbLookup::HitL1(_)),
                    "round {round} page {i}"
                );
            }
        }

        let mut t = Tlb::new(&cfg);
        for i in 0..49u64 {
            t.insert(map(i * PAGE_4K, PageSize::Size4K));
        }
        let before = t.stats().l1_hits;
        for i in 0..49u64 {
            // One more page than the L1 holds: cyclic LRU evicts each
            // page just before its reuse, so nothing ever hits L1.
            assert!(matches!(
                t.lookup(VirtAddr(i * PAGE_4K)),
                TlbLookup::HitL2(_)
            ));
        }
        assert_eq!(t.stats().l1_hits, before);
    }

    #[test]
    fn lru_evicts_least_recently_used_entry() {
        // 2-entry fully-associative L1: touching A makes B the LRU
        // victim when C arrives, so A stays in L1 and B survives only
        // in the L2.
        let mut t = Tlb::new(&tiny_config());
        t.insert(map(0x1000, PageSize::Size4K)); // A
        t.insert(map(0x2000, PageSize::Size4K)); // B
        assert!(matches!(t.lookup(VirtAddr(0x1000)), TlbLookup::HitL1(_)));
        t.insert(map(0x3000, PageSize::Size4K)); // C evicts B
        assert!(matches!(t.lookup(VirtAddr(0x1000)), TlbLookup::HitL1(_)));
        assert!(matches!(t.lookup(VirtAddr(0x3000)), TlbLookup::HitL1(_)));
        assert!(matches!(t.lookup(VirtAddr(0x2000)), TlbLookup::HitL2(_)));
    }

    #[test]
    fn reinserting_same_page_does_not_consume_capacity() {
        let mut t = Tlb::new(&tiny_config());
        t.insert(map(0x1000, PageSize::Size4K));
        t.insert(map(0x1000, PageSize::Size4K));
        t.insert(map(0x2000, PageSize::Size4K));
        // Both still fit in the 2-entry L1: the duplicate insert
        // replaced rather than duplicated.
        assert!(matches!(t.lookup(VirtAddr(0x1000)), TlbLookup::HitL1(_)));
        assert!(matches!(t.lookup(VirtAddr(0x2000)), TlbLookup::HitL1(_)));
    }

    #[test]
    fn l2_keys_disambiguate_size_classes() {
        // A 4 KiB entry at vaddr 0 must not be confused with a 2 MiB
        // entry at vaddr 0: invalidating one size class leaves the
        // other's translation intact.
        let mut t = Tlb::new(&TlbConfig::default());
        t.insert(map(0, PageSize::Size4K));
        t.invalidate(VirtAddr(0), PageSize::Size2M);
        assert!(matches!(t.lookup(VirtAddr(0)), TlbLookup::HitL1(_)));
        t.invalidate(VirtAddr(0), PageSize::Size4K);
        assert!(matches!(t.lookup(VirtAddr(0)), TlbLookup::Miss));
    }

    #[test]
    fn scaled_config_shrinks_but_stays_positive() {
        let c = TlbConfig::scaled_default(64);
        assert!(c.l1_4k_entries >= 2);
        assert!(c.l2_entries >= 2);
        let full = TlbConfig::scaled_default(1);
        assert_eq!(full.l1_4k_entries, 48);
        assert_eq!(full.l2_entries, 1024);
    }

    /// The Vec-per-set sub-TLB the flat layout replaced: the model the
    /// equivalence proptest checks [`SubTlb`] against.
    #[derive(Clone, Debug, Default)]
    struct OracleSet {
        keys: Vec<u64>,
        vals: Vec<Mapping>,
    }

    struct OracleSub {
        sets: Vec<OracleSet>,
        ways: usize,
        set_mask: u64,
    }

    impl OracleSub {
        fn new(entries: usize, ways: usize) -> Self {
            let ways = ways.max(1).min(entries.max(1));
            let sets = (entries / ways).max(1).next_power_of_two();
            OracleSub {
                sets: vec![OracleSet::default(); sets],
                ways,
                set_mask: (sets - 1) as u64,
            }
        }

        fn set(&mut self, key: u64) -> &mut OracleSet {
            let idx = ((key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) & self.set_mask) as usize;
            &mut self.sets[idx]
        }

        fn lookup(&mut self, key: u64) -> Option<Mapping> {
            let set = self.set(key);
            let pos = set.keys.iter().position(|&k| k == key)?;
            let m = set.vals.remove(pos);
            set.keys.remove(pos);
            set.keys.insert(0, key);
            set.vals.insert(0, m);
            Some(m)
        }

        fn insert(&mut self, key: u64, mapping: Mapping) {
            let ways = self.ways;
            let set = self.set(key);
            if let Some(pos) = set.keys.iter().position(|&k| k == key) {
                set.keys.remove(pos);
                set.vals.remove(pos);
            } else if set.keys.len() >= ways {
                set.keys.pop();
                set.vals.pop();
            }
            set.keys.insert(0, key);
            set.vals.insert(0, mapping);
        }

        fn invalidate(&mut self, key: u64) {
            let set = self.set(key);
            if let Some(pos) = set.keys.iter().position(|&k| k == key) {
                set.keys.remove(pos);
                set.vals.remove(pos);
            }
        }

        fn flush(&mut self) {
            for s in &mut self.sets {
                s.keys.clear();
                s.vals.clear();
            }
        }

        fn save_into(&self, e: &mut codec::Enc) {
            e.seq(self.sets.iter(), |e, s| {
                e.seq(s.keys.iter(), |e, &k| e.u64(k));
                e.seq(s.vals.iter(), crate::table::enc_mapping);
            });
        }

        fn load_from(&mut self, d: &mut codec::Dec<'_>) {
            assert_eq!(d.usize(), self.sets.len());
            for s in &mut self.sets {
                s.keys = d.seq(|d| d.u64());
                s.vals = d.seq(crate::table::dec_mapping);
            }
        }
    }

    /// [`Tlb`] over [`OracleSub`] arrays, probing every class.
    struct OracleTlb {
        l1: [OracleSub; 3],
        l2: OracleSub,
        stats: TlbStats,
    }

    const SIZES: [PageSize; 3] = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];

    impl OracleTlb {
        fn new(c: &TlbConfig) -> Self {
            OracleTlb {
                l1: [
                    OracleSub::new(c.l1_4k_entries, c.l1_4k_entries),
                    OracleSub::new(c.l1_2m_entries, c.l1_2m_entries),
                    OracleSub::new(c.l1_1g_entries, c.l1_1g_entries),
                ],
                l2: OracleSub::new(c.l2_entries, c.l2_ways),
                stats: TlbStats::default(),
            }
        }

        fn lookup(&mut self, vaddr: VirtAddr) -> TlbLookup {
            for (sub, size) in self.l1.iter_mut().zip(SIZES) {
                if let Some(m) = sub.lookup(vpn(vaddr, size)) {
                    self.stats.l1_hits += 1;
                    return TlbLookup::HitL1(m);
                }
            }
            for (class, size) in SIZES.into_iter().enumerate() {
                if let Some(m) = self.l2.lookup(l2_key(vaddr, size)) {
                    self.stats.l2_hits += 1;
                    self.l1[class].insert(vpn(vaddr, size), m);
                    return TlbLookup::HitL2(m);
                }
            }
            self.stats.misses += 1;
            TlbLookup::Miss
        }

        fn class(size: PageSize) -> usize {
            SIZES.iter().position(|&s| s == size).unwrap()
        }

        fn insert(&mut self, m: Mapping) {
            self.l1[Self::class(m.size)].insert(vpn(m.vbase, m.size), m);
            self.l2.insert(l2_key(m.vbase, m.size), m);
        }

        fn invalidate(&mut self, vbase: VirtAddr, size: PageSize) {
            self.l1[Self::class(size)].invalidate(vpn(vbase, size));
            self.l2.invalidate(l2_key(vbase, size));
        }

        fn flush(&mut self) {
            self.l1.iter_mut().for_each(OracleSub::flush);
            self.l2.flush();
        }

        fn save_into(&self, e: &mut codec::Enc) {
            self.l1.iter().for_each(|s| s.save_into(e));
            self.l2.save_into(e);
            e.u64(self.stats.l1_hits);
            e.u64(self.stats.l2_hits);
            e.u64(self.stats.misses);
        }

        fn load_from(&mut self, d: &mut codec::Dec<'_>) {
            self.l1.iter_mut().for_each(|s| s.load_from(d));
            self.l2.load_from(d);
            self.stats = TlbStats {
                l1_hits: d.u64(),
                l2_hits: d.u64(),
                misses: d.u64(),
            };
        }
    }

    fn outcome(l: TlbLookup) -> (u8, Option<Mapping>) {
        match l {
            TlbLookup::HitL1(m) => (1, Some(m)),
            TlbLookup::HitL2(m) => (2, Some(m)),
            TlbLookup::Miss => (0, None),
        }
    }

    fn counts(s: &TlbStats) -> (u64, u64, u64) {
        (s.l1_hits, s.l2_hits, s.misses)
    }

    fn saved(f: impl FnOnce(&mut codec::Enc)) -> Vec<u8> {
        let mut e = codec::Enc::new();
        f(&mut e);
        e.into_bytes()
    }

    /// A random page over a small universe where the sizes overlap: 4 KiB
    /// pages spread over `regions` 2 MiB regions in the first 1 GiB. A
    /// 4 KiB page is drawn with probability `small` per cent, otherwise
    /// mostly 2 MiB pages.
    fn random_page(rng: &mut SmallRng, small: u32, regions: u64) -> (VirtAddr, PageSize) {
        let region = rng.random_range(0..regions) * PAGE_2M;
        match rng.random_range(0..100u32) {
            p if p < small => (
                VirtAddr(region + rng.random_range(0..8u64) * PAGE_4K),
                PageSize::Size4K,
            ),
            p if p < 95 => (VirtAddr(region), PageSize::Size2M),
            _ => (
                VirtAddr(rng.random_range(0..2u64) * PAGE_1G),
                PageSize::Size1G,
            ),
        }
    }

    /// Recounts a sub-TLB's valid entries per size class.
    fn recount(sub: &SubTlb) -> [u32; 4] {
        let mut n = [0; 4];
        for idx in 0..sub.lens.len() {
            for &k in &sub.keys[sub.set_slots(idx)] {
                n[class_of(k)] += 1;
            }
        }
        n
    }

    proptest! {
        /// The flat sub-TLBs with per-class skipping behave exactly like
        /// the Vec-per-set arrays that probe every class: same lookups,
        /// same stats, same checkpoint bytes, also across a mid-run
        /// save/load into a fresh TLB (which rebuilds the class counts).
        #[test]
        fn flat_tlb_matches_vec_oracle(seed in 0u64..u64::MAX, geometry in 0usize..2, ops in 200usize..3000) {
            let cfg = if geometry == 0 { tiny_config() } else { TlbConfig::scaled_default(8) };
            let mut rng = SmallRng::seed_from_u64(seed);
            // Vary the size mix and the universe per case, so that some
            // cases drain a size class while others keep every class busy.
            let small = [10, 50, 90][rng.random_range(0..3usize)];
            let regions = [4, 16, 64][rng.random_range(0..3usize)];
            let mut flat = Tlb::new(&cfg);
            let mut oracle = OracleTlb::new(&cfg);
            for i in 0..ops {
                if i == ops / 2 {
                    let bytes = saved(|e| flat.save_into(e));
                    prop_assert_eq!(&bytes, &saved(|e| oracle.save_into(e)));
                    flat = Tlb::new(&cfg);
                    flat.load_from(&mut codec::Dec::new(&bytes));
                    oracle = OracleTlb::new(&cfg);
                    oracle.load_from(&mut codec::Dec::new(&bytes));
                }
                let (vbase, size) = random_page(&mut rng, small, regions);
                match rng.random_range(0..100u32) {
                    0..=54 => {
                        let vaddr = VirtAddr(vbase.0 + rng.random_range(0..size.bytes()));
                        prop_assert_eq!(outcome(flat.lookup(vaddr)), outcome(oracle.lookup(vaddr)));
                    }
                    55..=89 => {
                        let m = Mapping {
                            vbase,
                            frame: PhysAddr(rng.random_range(0..1024u64) * size.bytes()),
                            node: NodeId(rng.random_range(0..4u16)),
                            size,
                        };
                        flat.insert(m);
                        oracle.insert(m);
                    }
                    90..=97 => {
                        flat.invalidate(vbase, size);
                        oracle.invalidate(vbase, size);
                    }
                    _ => {
                        flat.flush();
                        oracle.flush();
                    }
                }
                prop_assert_eq!(counts(flat.stats()), counts(&oracle.stats));
                for sub in [&flat.l1_4k, &flat.l1_2m, &flat.l1_1g, &flat.l2] {
                    prop_assert_eq!(sub.class_len, recount(sub));
                }
            }
            prop_assert_eq!(saved(|e| flat.save_into(e)), saved(|e| oracle.save_into(e)));
        }
    }

    #[test]
    #[should_panic(expected = "per-set TLB occupancy is a u8")]
    fn associativity_above_255_is_refused() {
        let _ = Tlb::new(&TlbConfig {
            l2_entries: 4096,
            l2_ways: 256,
            ..TlbConfig::default()
        });
    }
}
