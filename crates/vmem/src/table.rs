//! x86-64-style 4-level page table with physically-addressed walk steps.
//!
//! The table is a radix tree: PML4 → PDPT → PD → PT. Leaves can sit at three
//! levels, giving the three page sizes (1 GiB at the PDPT, 2 MiB at the PD,
//! 4 KiB at the PT). Every table node occupies a real simulated physical
//! frame, so a hardware walk is a sequence of physical reads — [`WalkResult`]
//! reports their addresses and the simulator runs them through the cache
//! hierarchy. This is how "% of L2 misses caused by page table walks", the
//! paper's TLB-pressure metric, is produced rather than assumed.

use crate::addr::{PhysAddr, VirtAddr, PAGE_1G, PAGE_2M, PAGE_4K};
use crate::frame::{FrameAllocator, FrameError};
use numa_topology::NodeId;
use serde::{Deserialize, Serialize};

/// Hardware page sizes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum PageSize {
    /// A base 4 KiB page.
    Size4K,
    /// A large 2 MiB page (the THP size).
    Size2M,
    /// A very large 1 GiB page (Section 4.4 of the paper).
    Size1G,
}

impl PageSize {
    /// Page size in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            PageSize::Size4K => PAGE_4K,
            PageSize::Size2M => PAGE_2M,
            PageSize::Size1G => PAGE_1G,
        }
    }

    /// Buddy-allocator order of a frame of this size.
    #[inline]
    pub fn order(self) -> u32 {
        match self {
            PageSize::Size4K => 0,
            PageSize::Size2M => 9,
            PageSize::Size1G => 18,
        }
    }

    /// Number of page-table references a hardware walk performs for this
    /// size: 4 for 4 KiB, 3 for 2 MiB, 2 for 1 GiB.
    #[inline]
    pub fn walk_levels(self) -> usize {
        match self {
            PageSize::Size4K => 4,
            PageSize::Size2M => 3,
            PageSize::Size1G => 2,
        }
    }

    /// The next smaller size, if any.
    #[inline]
    pub fn smaller(self) -> Option<PageSize> {
        match self {
            PageSize::Size4K => None,
            PageSize::Size2M => Some(PageSize::Size4K),
            PageSize::Size1G => Some(PageSize::Size2M),
        }
    }

    /// Number of next-smaller pages that tile one page of this size (512),
    /// or 1 for the smallest size.
    #[inline]
    pub fn fanout(self) -> u64 {
        if self.smaller().is_some() {
            512
        } else {
            1
        }
    }
}

impl std::fmt::Display for PageSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageSize::Size4K => write!(f, "4K"),
            PageSize::Size2M => write!(f, "2M"),
            PageSize::Size1G => write!(f, "1G"),
        }
    }
}

/// A leaf translation: one mapped page.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Mapping {
    /// Virtual base of the page (aligned to `size`).
    pub vbase: VirtAddr,
    /// Physical frame backing the page (aligned to `size`).
    pub frame: PhysAddr,
    /// NUMA node hosting the frame.
    pub node: NodeId,
    /// Page size.
    pub size: PageSize,
}

impl Mapping {
    /// Translates an address inside this page to its physical address.
    ///
    /// # Panics
    ///
    /// Debug-panics if `vaddr` is outside the page.
    #[inline]
    pub fn translate(&self, vaddr: VirtAddr) -> PhysAddr {
        debug_assert!(self.contains(vaddr));
        PhysAddr(self.frame.0 + vaddr.offset_in(self.size.bytes()))
    }

    /// Whether `vaddr` falls inside this page.
    #[inline]
    pub fn contains(&self, vaddr: VirtAddr) -> bool {
        vaddr.align_down(self.size.bytes()) == self.vbase
    }
}

/// One reference performed by a hardware page-table walk.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WalkStep {
    /// Physical address of the page-table entry read at this level.
    pub pte_addr: PhysAddr,
    /// NUMA node hosting the table frame.
    pub node: NodeId,
}

/// The result of walking the table for one virtual address.
#[derive(Clone, Copy, Debug)]
pub struct WalkResult {
    steps: [WalkStep; 4],
    len: usize,
    /// The translation found, or `None` (page fault).
    pub mapping: Option<Mapping>,
}

impl WalkResult {
    /// The physical references the walk performed, outermost level first.
    #[inline]
    pub fn steps(&self) -> &[WalkStep] {
        &self.steps[..self.len]
    }

    /// Number of page-table levels referenced: 4 for a 4 KiB leaf, 3 for
    /// 2 MiB, 2 for 1 GiB — the paper's "huge pages shorten the walk"
    /// effect, exposed for attribution.
    #[inline]
    pub fn depth(&self) -> usize {
        self.len
    }
}

/// Errors from page-table structural operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TableError {
    /// The address is already mapped (at any level covering it).
    AlreadyMapped,
    /// Expected a leaf of a particular size and found something else.
    NotMappedAsExpected,
    /// A frame allocation for an intermediate table failed.
    Frame(FrameError),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::AlreadyMapped => write!(f, "address already mapped"),
            TableError::NotMappedAsExpected => write!(f, "mapping not in the expected state"),
            TableError::Frame(e) => write!(f, "table frame allocation failed: {e}"),
        }
    }
}

impl std::error::Error for TableError {}

impl From<FrameError> for TableError {
    fn from(e: FrameError) -> Self {
        TableError::Frame(e)
    }
}

/// What a successful [`PageTable::collapse`] releases back to the caller.
#[derive(Clone, Debug)]
pub struct CollapseOutcome {
    /// The 512 small mappings that were replaced; their frames are dead.
    pub old_children: Vec<Mapping>,
    /// The 4 KiB frame of the retired page-table node.
    pub table_frame: PhysAddr,
}

#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
enum Entry {
    Table(u32),
    Leaf(Mapping),
}

/// The present entries of one table node, in slot order.
///
/// A 512-bit occupancy bitmap says which slots are present; the entries
/// themselves sit densely in slot order, so slot `i`'s entry is at the
/// rank of bit `i` (the number of present slots below it). `before[w]`
/// caches the present count of the words below word `w`, so a rank costs
/// one popcount. This keeps the memory of a sparse map — no 512-slot
/// array per node — while a lookup is two indexed loads instead of a
/// B-tree descent. Iteration is in ascending slot order, the order the
/// checkpoint payload has always used.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct NodeEntries {
    present: [u64; 8],
    before: [u16; 8],
    entries: Vec<Entry>,
}

impl NodeEntries {
    /// An empty node with room for `capacity` entries.
    fn with_capacity(capacity: usize) -> Self {
        NodeEntries {
            entries: Vec::with_capacity(capacity),
            ..NodeEntries::default()
        }
    }

    /// Word, bit mask and rank of slot `idx` (< 512).
    #[inline]
    fn locate(&self, idx: u16) -> (usize, u64, usize) {
        let word = usize::from(idx >> 6) & 7;
        let bit = 1u64 << (idx & 63);
        let below = (self.present[word] & (bit - 1)).count_ones() as usize;
        (word, bit, usize::from(self.before[word]) + below)
    }

    #[inline]
    fn get(&self, idx: u16) -> Option<&Entry> {
        let (word, bit, rank) = self.locate(idx);
        if self.present[word] & bit == 0 {
            return None;
        }
        Some(&self.entries[rank])
    }

    #[inline]
    fn get_mut(&mut self, idx: u16) -> Option<&mut Entry> {
        let (word, bit, rank) = self.locate(idx);
        if self.present[word] & bit == 0 {
            return None;
        }
        Some(&mut self.entries[rank])
    }

    /// Stores `entry` at slot `idx`, replacing any entry already there.
    fn insert(&mut self, idx: u16, entry: Entry) {
        debug_assert!(idx < 512, "table slot {idx} out of range");
        let (word, bit, rank) = self.locate(idx);
        if self.present[word] & bit != 0 {
            self.entries[rank] = entry;
            return;
        }
        self.present[word] |= bit;
        for b in &mut self.before[word + 1..] {
            *b += 1;
        }
        self.entries.insert(rank, entry);
    }

    #[inline]
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Present entries in ascending slot order.
    fn values(&self) -> std::slice::Iter<'_, Entry> {
        self.entries.iter()
    }

    /// `(slot, entry)` pairs in ascending slot order, without allocating.
    fn iter(&self) -> NodeIter<'_> {
        NodeIter {
            present: &self.present,
            word: 0,
            bits: self.present[0],
            entries: self.entries.iter(),
        }
    }

    /// Writes the `(slot, entry)` pairs in ascending slot order (the
    /// `ckpt-v1` page-table node encoding).
    fn save_into(&self, e: &mut codec::Enc) {
        e.seq(self.iter(), |e, (idx, entry)| {
            e.u16(idx);
            match entry {
                Entry::Table(next) => {
                    e.u8(0);
                    e.u32(*next);
                }
                Entry::Leaf(m) => {
                    e.u8(1);
                    enc_mapping(e, m);
                }
            }
        });
    }

    /// Reads a node written by [`NodeEntries::save_into`]. Slots arrive
    /// in ascending order, so every insert appends.
    fn load_from(d: &mut codec::Dec<'_>) -> Self {
        let n = d.usize();
        assert!(n <= 512, "ckpt: page-table node with {n} entries");
        let mut entries = NodeEntries::with_capacity(n);
        for _ in 0..n {
            let idx = d.u16();
            let entry = match d.u8() {
                0 => Entry::Table(d.u32()),
                1 => Entry::Leaf(dec_mapping(d)),
                t => panic!("ckpt: invalid page-table entry tag {t}"),
            };
            assert!(idx < 512, "ckpt: page-table slot {idx} out of range");
            entries.insert(idx, entry);
        }
        entries
    }
}

/// Iterator of [`NodeEntries::iter`]: walks the set bits word by word
/// alongside the dense entries.
struct NodeIter<'a> {
    present: &'a [u64; 8],
    word: usize,
    bits: u64,
    entries: std::slice::Iter<'a, Entry>,
}

impl<'a> Iterator for NodeIter<'a> {
    type Item = (u16, &'a Entry);

    fn next(&mut self) -> Option<Self::Item> {
        let entry = self.entries.next()?;
        while self.bits == 0 {
            self.word += 1;
            self.bits = self.present[self.word];
        }
        let slot = ((self.word as u16) << 6) | self.bits.trailing_zeros() as u16;
        self.bits &= self.bits - 1;
        Some((slot, entry))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl ExactSizeIterator for NodeIter<'_> {}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct TableNode {
    base: PhysAddr,
    node: NodeId,
    entries: NodeEntries,
}

/// A 4-level page table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PageTable {
    arena: Vec<TableNode>,
    /// 4 KiB frames consumed by table nodes (a paper motivation: page-table
    /// memory itself).
    table_bytes: u64,
    /// Bumped by every structural change that can invalidate a
    /// [`WalkCache`] entry: split (leaf → table), collapse (table → leaf),
    /// remap (a leaf's frame/node rewritten in place), and rehome (a table
    /// page migrated to another node — cached upper-level steps record the
    /// old frame and home, so they would silently charge walk traffic to
    /// the wrong node). `map` never bumps it — installing a new leaf only
    /// fills a previously-empty slot, which no cached entry can refer to
    /// (4 KiB leaves are looked up live through the cached PT node).
    generation: u64,
}

/// A software paging-structure/translation cache in front of
/// [`PageTable::walk`].
///
/// The simulator's per-access hot path re-walks the radix table on every
/// TLB miss; for any 2 MiB-aligned virtual region the three upper walk
/// steps (PML4/PDPT/PD references) are fixed as long as the table's
/// structure does not change, so they are memoized here per region. A
/// region mapped by a huge or giant leaf caches the full result; a region
/// mapped through a last-level PT node caches the PT's arena index and
/// resolves the 4 KiB leaf with a single lookup (so demand faults that add
/// sibling pages need no invalidation at all).
///
/// Coherence is by generation: [`PageTable`] bumps its generation on
/// split, collapse, and remap (the policy-driven epoch operations —
/// migrate, split, promote — are exactly these), and the cache clears
/// itself wholesale when the generations diverge. The cached walk is
/// therefore *provably* equal to the uncached one: between two generation
/// bumps the table's structure is immutable apart from leaf insertions,
/// which the cache reads through live.
#[derive(Clone, Debug, Default)]
pub struct WalkCache {
    generation: u64,
    entries: crate::hash::FastMap<u64, CacheEntry>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

#[derive(Clone, Copy, Debug)]
enum CacheEntry {
    /// The region is covered by one huge (2 MiB, 3 steps) or giant
    /// (1 GiB, 2 steps) leaf.
    Huge {
        steps: [WalkStep; 4],
        len: usize,
        mapping: Mapping,
    },
    /// The region is mapped through a last-level (PT) node: the upper
    /// three steps are fixed, the fourth is computed from the PT base, and
    /// the leaf is looked up live in the PT node.
    Pt { steps: [WalkStep; 3], table: u32 },
}

impl WalkCache {
    /// An empty cache.
    pub fn new() -> Self {
        WalkCache::default()
    }

    /// Cached-walk hits since creation.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cached-walk misses since creation.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whole-cache invalidations (generation bumps observed).
    #[inline]
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Number of regions currently cached.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the cache for the `ckpt-v1` snapshot. Entries are written
    /// in sorted key order: the backing map's iteration order is not
    /// canonical, and checkpoint bytes must be deterministic.
    pub fn save_into(&self, e: &mut codec::Enc) {
        e.u64(self.generation);
        let mut keys: Vec<u64> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        e.seq(keys.into_iter(), |e, k| {
            e.u64(k);
            match self.entries[&k] {
                CacheEntry::Huge {
                    steps,
                    len,
                    mapping,
                } => {
                    e.u8(0);
                    e.usize(len);
                    for s in &steps {
                        enc_step(e, s);
                    }
                    enc_mapping(e, &mapping);
                }
                CacheEntry::Pt { steps, table } => {
                    e.u8(1);
                    for s in &steps {
                        enc_step(e, s);
                    }
                    e.u32(table);
                }
            }
        });
        e.u64(self.hits);
        e.u64(self.misses);
        e.u64(self.invalidations);
    }

    /// Restores state captured by [`WalkCache::save_into`].
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        self.generation = d.u64();
        self.entries.clear();
        let n = d.usize();
        for _ in 0..n {
            let k = d.u64();
            let entry = match d.u8() {
                0 => {
                    let len = d.usize();
                    CacheEntry::Huge {
                        steps: [dec_step(d), dec_step(d), dec_step(d), dec_step(d)],
                        len,
                        mapping: dec_mapping(d),
                    }
                }
                1 => CacheEntry::Pt {
                    steps: [dec_step(d), dec_step(d), dec_step(d)],
                    table: d.u32(),
                },
                t => panic!("ckpt: invalid walk-cache entry tag {t}"),
            };
            self.entries.insert(k, entry);
        }
        self.hits = d.u64();
        self.misses = d.u64();
        self.invalidations = d.u64();
    }
}

/// Writes a [`PageSize`] as a one-byte tag (checkpoint codec).
pub(crate) fn enc_page_size(e: &mut codec::Enc, s: PageSize) {
    e.u8(match s {
        PageSize::Size4K => 0,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    });
}

/// Reads a [`PageSize`] tag written by [`enc_page_size`].
pub(crate) fn dec_page_size(d: &mut codec::Dec<'_>) -> PageSize {
    match d.u8() {
        0 => PageSize::Size4K,
        1 => PageSize::Size2M,
        2 => PageSize::Size1G,
        t => panic!("ckpt: invalid PageSize tag {t}"),
    }
}

/// Writes a [`Mapping`] (checkpoint codec, shared with the TLB module).
pub(crate) fn enc_mapping(e: &mut codec::Enc, m: &Mapping) {
    e.u64(m.vbase.0);
    e.u64(m.frame.0);
    e.u16(m.node.0);
    enc_page_size(e, m.size);
}

/// Reads a [`Mapping`] written by [`enc_mapping`].
pub(crate) fn dec_mapping(d: &mut codec::Dec<'_>) -> Mapping {
    Mapping {
        vbase: VirtAddr(d.u64()),
        frame: PhysAddr(d.u64()),
        node: NodeId(d.u16()),
        size: dec_page_size(d),
    }
}

fn enc_step(e: &mut codec::Enc, s: &WalkStep) {
    e.u64(s.pte_addr.0);
    e.u16(s.node.0);
}

fn dec_step(d: &mut codec::Dec<'_>) -> WalkStep {
    WalkStep {
        pte_addr: PhysAddr(d.u64()),
        node: NodeId(d.u16()),
    }
}

/// Index of the root (PML4) node in the arena.
const ROOT: u32 = 0;

/// Virtual-address bit ranges per level, outermost first.
const LEVEL_SHIFTS: [u32; 4] = [39, 30, 21, 12];

fn level_index(vaddr: VirtAddr, level: usize) -> u16 {
    ((vaddr.0 >> LEVEL_SHIFTS[level]) & 0x1ff) as u16
}

/// The level at which a leaf of `size` lives (index into `LEVEL_SHIFTS`).
fn leaf_level(size: PageSize) -> usize {
    match size {
        PageSize::Size1G => 1,
        PageSize::Size2M => 2,
        PageSize::Size4K => 3,
    }
}

impl PageTable {
    /// Creates an empty table whose root node lives on `root_node`.
    ///
    /// The root frame is taken from `frames`.
    pub fn new(frames: &mut FrameAllocator, root_node: NodeId) -> Result<Self, TableError> {
        let base = frames.alloc(root_node, PageSize::Size4K)?;
        Ok(PageTable {
            arena: vec![TableNode {
                base,
                node: root_node,
                entries: NodeEntries::default(),
            }],
            table_bytes: PAGE_4K,
            generation: 0,
        })
    }

    /// Current structural generation (see [`WalkCache`]).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bytes of physical memory consumed by page-table nodes.
    #[inline]
    pub fn table_bytes(&self) -> u64 {
        self.table_bytes
    }

    /// Fast-path translation without recording walk steps.
    pub fn translate(&self, vaddr: VirtAddr) -> Option<Mapping> {
        let mut node = ROOT;
        for level in 0..4 {
            let idx = level_index(vaddr, level);
            match self.arena[node as usize].entries.get(idx) {
                Some(Entry::Table(next)) => node = *next,
                Some(Entry::Leaf(m)) => return Some(*m),
                None => return None,
            }
        }
        None
    }

    /// Simulates a hardware walk: records the physical PTE reference at each
    /// level traversed and returns the translation if one exists.
    pub fn walk(&self, vaddr: VirtAddr) -> WalkResult {
        let mut steps = [WalkStep {
            pte_addr: PhysAddr(0),
            node: NodeId(0),
        }; 4];
        let mut len = 0;
        let mut node = ROOT;
        for level in 0..4 {
            let idx = level_index(vaddr, level);
            let table = &self.arena[node as usize];
            steps[len] = WalkStep {
                pte_addr: PhysAddr(table.base.0 + u64::from(idx) * 8),
                node: table.node,
            };
            len += 1;
            match table.entries.get(idx) {
                Some(Entry::Table(next)) => node = *next,
                Some(Entry::Leaf(m)) => {
                    return WalkResult {
                        steps,
                        len,
                        mapping: Some(*m),
                    }
                }
                None => break,
            }
        }
        WalkResult {
            steps,
            len,
            mapping: None,
        }
    }

    /// Like [`PageTable::walk`], but consults (and fills) `cache` first.
    /// Returns a [`WalkResult`] bit-identical to the uncached walk — same
    /// steps, same mapping — skipping the radix traversal on a hit.
    pub fn walk_cached(&self, vaddr: VirtAddr, cache: &mut WalkCache) -> WalkResult {
        if cache.generation != self.generation {
            cache.entries.clear();
            cache.generation = self.generation;
            cache.invalidations += 1;
        }
        let key = vaddr.0 >> 21;
        if let Some(e) = cache.entries.get(&key) {
            cache.hits += 1;
            match *e {
                CacheEntry::Huge {
                    steps,
                    len,
                    mapping,
                } => {
                    return WalkResult {
                        steps,
                        len,
                        mapping: Some(mapping),
                    }
                }
                CacheEntry::Pt {
                    steps: upper,
                    table,
                } => {
                    let t = &self.arena[table as usize];
                    let idx = level_index(vaddr, 3);
                    let mut steps = [WalkStep {
                        pte_addr: PhysAddr(0),
                        node: NodeId(0),
                    }; 4];
                    steps[..3].copy_from_slice(&upper);
                    steps[3] = WalkStep {
                        pte_addr: PhysAddr(t.base.0 + u64::from(idx) * 8),
                        node: t.node,
                    };
                    let mapping = match t.entries.get(idx) {
                        Some(Entry::Leaf(m)) => Some(*m),
                        _ => None,
                    };
                    return WalkResult {
                        steps,
                        len: 4,
                        mapping,
                    };
                }
            }
        }
        cache.misses += 1;
        // Slow path: the real walk, additionally noting the arena index of
        // the last-level table so the region becomes cacheable.
        let mut steps = [WalkStep {
            pte_addr: PhysAddr(0),
            node: NodeId(0),
        }; 4];
        let mut len = 0;
        let mut node = ROOT;
        for level in 0..4 {
            let idx = level_index(vaddr, level);
            let table = &self.arena[node as usize];
            steps[len] = WalkStep {
                pte_addr: PhysAddr(table.base.0 + u64::from(idx) * 8),
                node: table.node,
            };
            len += 1;
            match table.entries.get(idx) {
                Some(Entry::Table(next)) => {
                    if level == 2 {
                        // Reached the PT covering this 2 MiB region. Cache
                        // it even when the 4 KiB leaf itself is still
                        // absent: the upper path is stable across demand
                        // faults, and the leaf is looked up live.
                        let mut upper = [steps[0]; 3];
                        upper.copy_from_slice(&steps[..3]);
                        cache.entries.insert(
                            key,
                            CacheEntry::Pt {
                                steps: upper,
                                table: *next,
                            },
                        );
                    }
                    node = *next;
                }
                Some(Entry::Leaf(m)) => {
                    if m.size != PageSize::Size4K {
                        cache.entries.insert(
                            key,
                            CacheEntry::Huge {
                                steps,
                                len,
                                mapping: *m,
                            },
                        );
                    }
                    return WalkResult {
                        steps,
                        len,
                        mapping: Some(*m),
                    };
                }
                None => {
                    return WalkResult {
                        steps,
                        len,
                        mapping: None,
                    }
                }
            }
        }
        WalkResult {
            steps,
            len,
            mapping: None,
        }
    }

    /// Ensures intermediate tables exist down to the level holding leaves of
    /// `size`, returning the arena index of that table node.
    fn ensure_path(
        &mut self,
        vaddr: VirtAddr,
        size: PageSize,
        frames: &mut FrameAllocator,
        pref_node: NodeId,
    ) -> Result<u32, TableError> {
        let target_level = leaf_level(size);
        let mut node = ROOT;
        for level in 0..target_level {
            let idx = level_index(vaddr, level);
            let next = match self.arena[node as usize].entries.get(idx) {
                Some(Entry::Table(next)) => *next,
                Some(Entry::Leaf(_)) => return Err(TableError::AlreadyMapped),
                None => {
                    let (base, got_node) = frames
                        .alloc_fallback(pref_node, PageSize::Size4K)
                        .map_err(TableError::Frame)?;
                    let new_idx = self.arena.len() as u32;
                    self.arena.push(TableNode {
                        base,
                        node: got_node,
                        entries: NodeEntries::default(),
                    });
                    self.table_bytes += PAGE_4K;
                    self.arena[node as usize]
                        .entries
                        .insert(idx, Entry::Table(new_idx));
                    new_idx
                }
            };
            node = next;
        }
        Ok(node)
    }

    /// Installs a leaf mapping.
    ///
    /// Intermediate table frames are allocated near `pref_node` (the faulting
    /// node — Linux allocates page tables on the faulting node too).
    pub fn map(
        &mut self,
        mapping: Mapping,
        frames: &mut FrameAllocator,
        pref_node: NodeId,
    ) -> Result<(), TableError> {
        debug_assert!(mapping.vbase.is_aligned(mapping.size.bytes()));
        debug_assert!(mapping.frame.is_aligned(mapping.size.bytes()));
        let table = self.ensure_path(mapping.vbase, mapping.size, frames, pref_node)?;
        let idx = level_index(mapping.vbase, leaf_level(mapping.size));
        match self.arena[table as usize].entries.get(idx) {
            Some(_) => Err(TableError::AlreadyMapped),
            None => {
                self.arena[table as usize]
                    .entries
                    .insert(idx, Entry::Leaf(mapping));
                Ok(())
            }
        }
    }

    /// Finds the leaf covering `vaddr` and rewrites its frame and node
    /// (used by page migration — the virtual page stays put, the physical
    /// frame moves).
    pub fn remap(
        &mut self,
        vaddr: VirtAddr,
        new_frame: PhysAddr,
        new_node: NodeId,
    ) -> Result<Mapping, TableError> {
        let mut node = ROOT;
        for level in 0..4 {
            let idx = level_index(vaddr, level);
            match self.arena[node as usize].entries.get_mut(idx) {
                Some(Entry::Table(next)) => node = *next,
                Some(Entry::Leaf(m)) => {
                    let old = *m;
                    m.frame = new_frame;
                    m.node = new_node;
                    self.generation += 1;
                    return Ok(old);
                }
                None => break,
            }
        }
        Err(TableError::NotMappedAsExpected)
    }

    /// Splits the large or giant leaf covering `vaddr` into 512 leaves of the
    /// next smaller size, backed by the *same* physical range (no copy, as in
    /// Linux's THP split). Returns the mapping that was split.
    pub fn split(
        &mut self,
        vaddr: VirtAddr,
        frames: &mut FrameAllocator,
    ) -> Result<Mapping, TableError> {
        // Locate the parent table and index of the leaf.
        let mut node = ROOT;
        for level in 0..4 {
            let idx = level_index(vaddr, level);
            let entry = self.arena[node as usize].entries.get(idx);
            match entry {
                Some(Entry::Table(next)) => node = *next,
                Some(Entry::Leaf(m)) => {
                    let m = *m;
                    let small = m.size.smaller().ok_or(TableError::NotMappedAsExpected)?;
                    // New table node for the 512 smaller entries; placed on
                    // the node that hosts the data, like Linux's split path.
                    let (base, got_node) = frames
                        .alloc_fallback(m.node, PageSize::Size4K)
                        .map_err(TableError::Frame)?;
                    let new_idx = self.arena.len() as u32;
                    let mut entries = NodeEntries::with_capacity(512);
                    for i in 0..512u64 {
                        let child = Mapping {
                            vbase: VirtAddr(m.vbase.0 + i * small.bytes()),
                            frame: PhysAddr(m.frame.0 + i * small.bytes()),
                            node: m.node,
                            size: small,
                        };
                        entries.insert(i as u16, Entry::Leaf(child));
                    }
                    self.arena.push(TableNode {
                        base,
                        node: got_node,
                        entries,
                    });
                    self.table_bytes += PAGE_4K;
                    self.arena[node as usize]
                        .entries
                        .insert(idx, Entry::Table(new_idx));
                    self.generation += 1;
                    return Ok(m);
                }
                None => break,
            }
        }
        Err(TableError::NotMappedAsExpected)
    }

    /// Collapses 512 fully-populated smaller leaves under the naturally
    /// aligned page at `vbase` into one leaf of `size`, backed by
    /// `new_frame` on `new_node` (khugepaged copies into a fresh huge frame).
    ///
    /// Returns the old child mappings and the retired table frame so the
    /// caller can free them.
    pub fn collapse(
        &mut self,
        vbase: VirtAddr,
        size: PageSize,
        new_frame: PhysAddr,
        new_node: NodeId,
    ) -> Result<CollapseOutcome, TableError> {
        debug_assert!(vbase.is_aligned(size.bytes()));
        let small = size.smaller().ok_or(TableError::NotMappedAsExpected)?;
        let target_level = leaf_level(size);
        // Find the table entry at the target level.
        let mut node = ROOT;
        for level in 0..target_level {
            let idx = level_index(vbase, level);
            match self.arena[node as usize].entries.get(idx) {
                Some(Entry::Table(next)) => node = *next,
                _ => return Err(TableError::NotMappedAsExpected),
            }
        }
        let idx = level_index(vbase, target_level);
        let child_table = match self.arena[node as usize].entries.get(idx) {
            Some(Entry::Table(t)) => *t,
            _ => return Err(TableError::NotMappedAsExpected),
        };
        // All 512 children must be leaves of the smaller size.
        let child = &self.arena[child_table as usize];
        if child.entries.len() != 512 {
            return Err(TableError::NotMappedAsExpected);
        }
        let mut old = Vec::with_capacity(512);
        for e in child.entries.values() {
            match e {
                Entry::Leaf(m) if m.size == small => old.push(*m),
                _ => return Err(TableError::NotMappedAsExpected),
            }
        }
        // Replace the table entry with the new huge leaf. The child table
        // node's frame is abandoned (arena slot stays; its frame is freed).
        let child_base = self.arena[child_table as usize].base;
        self.arena[node as usize].entries.insert(
            idx,
            Entry::Leaf(Mapping {
                vbase,
                frame: new_frame,
                node: new_node,
                size,
            }),
        );
        self.table_bytes -= PAGE_4K;
        self.generation += 1;
        Ok(CollapseOutcome {
            old_children: old,
            table_frame: child_base,
        })
    }

    /// Visits every leaf mapping in virtual-address order.
    pub fn for_each_leaf(&self, mut f: impl FnMut(&Mapping)) {
        // Depth-first, each node's entries in ascending slot order.
        fn rec(arena: &[TableNode], node: u32, f: &mut impl FnMut(&Mapping)) {
            for e in arena[node as usize].entries.values() {
                match e {
                    Entry::Table(next) => rec(arena, *next, f),
                    Entry::Leaf(m) => f(m),
                }
            }
        }
        rec(&self.arena, ROOT, &mut f);
    }

    /// Collects every leaf mapping in virtual-address order.
    pub fn leaves(&self) -> Vec<Mapping> {
        let mut v = Vec::new();
        self.for_each_leaf(|m| v.push(*m));
        v
    }

    /// Serializes the whole arena verbatim — including slots abandoned by
    /// collapse — so arena indices held by [`WalkCache`] entries (and the
    /// deterministic index assignment of future splits) survive a resume.
    pub fn save_into(&self, e: &mut codec::Enc) {
        e.seq(self.arena.iter(), |e, t| {
            e.u64(t.base.0);
            e.u16(t.node.0);
            t.entries.save_into(e);
        });
        e.u64(self.table_bytes);
        e.u64(self.generation);
    }

    /// Restores state captured by [`PageTable::save_into`], replacing this
    /// table's structure entirely (the root frame address comes from the
    /// snapshot, not from this instance's constructor).
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        self.arena = d.seq(|d| {
            let base = PhysAddr(d.u64());
            let node = NodeId(d.u16());
            TableNode {
                base,
                node,
                entries: NodeEntries::load_from(d),
            }
        });
        self.table_bytes = d.u64();
        self.generation = d.u64();
    }

    /// Number of arena slots ever created (including slots abandoned by
    /// collapse). New table nodes always append, so a caller can snapshot
    /// this before an operation and inspect exactly the nodes it created.
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// The frame base and home node of the arena slot at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn table_frame(&self, idx: usize) -> (PhysAddr, NodeId) {
        let t = &self.arena[idx];
        (t.base, t.node)
    }

    /// The frame base of the deepest table node traversed when walking
    /// `vaddr` — the table a leaf install/rewrite at `vaddr` structurally
    /// writes (used to charge the replica write-fanout cost).
    pub fn deepest_table_frame(&self, vaddr: VirtAddr) -> PhysAddr {
        let mut node = ROOT;
        for level in 0..4 {
            let idx = level_index(vaddr, level);
            match self.arena[node as usize].entries.get(idx) {
                Some(Entry::Table(next)) => node = *next,
                _ => break,
            }
        }
        self.arena[node as usize].base
    }

    /// Migrates the deepest *non-root* table node on the walk path of
    /// `vaddr` into the caller-provided frame `new_base` on `new_node`
    /// (the numaPTE mechanism: the PTE page moves toward the walker; the
    /// translations it holds do not change). Returns the old frame and
    /// home so the caller can free the frame.
    ///
    /// Bumps the structural generation: [`WalkCache`] entries memoize the
    /// upper-level steps *including* each table's frame address and home
    /// node, so a rehome with a stale cache would keep charging walk
    /// traffic to the old node forever — the exact silent-staleness hazard
    /// the walk-cycle test battery pins down.
    pub fn rehome_deepest_table(
        &mut self,
        vaddr: VirtAddr,
        new_base: PhysAddr,
        new_node: NodeId,
    ) -> Result<(PhysAddr, NodeId), TableError> {
        let mut node = ROOT;
        for level in 0..4 {
            let idx = level_index(vaddr, level);
            match self.arena[node as usize].entries.get(idx) {
                Some(Entry::Table(next)) => node = *next,
                _ => break,
            }
        }
        if node == ROOT {
            // Nothing below the root on this path; the PGD never moves
            // (every walk starts there — it has no single "walking node").
            return Err(TableError::NotMappedAsExpected);
        }
        let t = &mut self.arena[node as usize];
        let old = (t.base, t.node);
        t.base = new_base;
        t.node = new_node;
        self.generation += 1;
        Ok(old)
    }

    /// Physical frames of every table node *reachable from the root*, with
    /// the node hosting each. Collapse abandons its child's arena slot
    /// (the slot stays, its frame is freed), so the arena itself
    /// over-approximates the live tables — only reachability is truth.
    pub fn reachable_table_frames(&self) -> Vec<(PhysAddr, NodeId)> {
        let mut out = Vec::new();
        let mut stack = vec![ROOT];
        while let Some(node) = stack.pop() {
            let table = &self.arena[node as usize];
            out.push((table.base, table.node));
            for e in table.entries.values() {
                if let Entry::Table(next) = e {
                    stack.push(*next);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::MachineSpec;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn setup() -> (FrameAllocator, PageTable) {
        // 4 GiB per node so 1 GiB blocks survive the small allocations that
        // page-table nodes consume.
        let machine = MachineSpec::homogeneous(
            "table-test",
            2.0,
            2,
            2,
            4 << 30,
            numa_topology::Interconnect::full_mesh(2),
        );
        let mut frames = FrameAllocator::new(&machine);
        let table = PageTable::new(&mut frames, NodeId(0)).unwrap();
        (frames, table)
    }

    fn map4k(t: &mut PageTable, f: &mut FrameAllocator, vaddr: u64, node: NodeId) -> Mapping {
        let frame = f.alloc(node, PageSize::Size4K).unwrap();
        let m = Mapping {
            vbase: VirtAddr(vaddr),
            frame,
            node,
            size: PageSize::Size4K,
        };
        t.map(m, f, node).unwrap();
        m
    }

    #[test]
    fn translate_after_map() {
        let (mut f, mut t) = setup();
        let m = map4k(&mut t, &mut f, 0x7000_1000, NodeId(0));
        let got = t.translate(VirtAddr(0x7000_1234)).unwrap();
        assert_eq!(got, m);
        assert_eq!(
            got.translate(VirtAddr(0x7000_1234)),
            PhysAddr(m.frame.0 + 0x234)
        );
        assert!(t.translate(VirtAddr(0x7000_2000)).is_none());
    }

    #[test]
    fn walk_counts_levels_per_size() {
        let (mut f, mut t) = setup();
        map4k(&mut t, &mut f, 0x10_0000_0000, NodeId(0));
        let w = t.walk(VirtAddr(0x10_0000_0042));
        assert_eq!(w.steps().len(), 4);
        assert!(w.mapping.is_some());

        let frame = f.alloc(NodeId(1), PageSize::Size2M).unwrap();
        t.map(
            Mapping {
                vbase: VirtAddr(0x20_0000_0000),
                frame,
                node: NodeId(1),
                size: PageSize::Size2M,
            },
            &mut f,
            NodeId(1),
        )
        .unwrap();
        let w = t.walk(VirtAddr(0x20_0000_1234));
        assert_eq!(w.steps().len(), 3);

        let frame = f.alloc(NodeId(0), PageSize::Size1G).unwrap();
        t.map(
            Mapping {
                vbase: VirtAddr(0x40_0000_0000),
                frame,
                node: NodeId(0),
                size: PageSize::Size1G,
            },
            &mut f,
            NodeId(0),
        )
        .unwrap();
        let w = t.walk(VirtAddr(0x40_3fff_ffff));
        assert_eq!(w.steps().len(), 2);
    }

    #[test]
    fn walk_of_unmapped_address_reports_fault() {
        let (_, t) = setup();
        let w = t.walk(VirtAddr(0x123_4567));
        assert!(w.mapping.is_none());
        assert_eq!(w.steps().len(), 1); // stopped at the empty root entry
    }

    #[test]
    fn double_map_fails() {
        let (mut f, mut t) = setup();
        let m = map4k(&mut t, &mut f, 0x5000, NodeId(0));
        let err = t.map(m, &mut f, NodeId(0)).unwrap_err();
        assert_eq!(err, TableError::AlreadyMapped);
    }

    #[test]
    fn split_preserves_translations() {
        let (mut f, mut t) = setup();
        let frame = f.alloc(NodeId(1), PageSize::Size2M).unwrap();
        t.map(
            Mapping {
                vbase: VirtAddr(0x8000_0000),
                frame,
                node: NodeId(1),
                size: PageSize::Size2M,
            },
            &mut f,
            NodeId(1),
        )
        .unwrap();
        let before = t.translate(VirtAddr(0x8000_1234)).unwrap();
        let split = t.split(VirtAddr(0x8000_0000), &mut f).unwrap();
        assert_eq!(split.size, PageSize::Size2M);
        let after = t.translate(VirtAddr(0x8000_1234)).unwrap();
        assert_eq!(after.size, PageSize::Size4K);
        // Same physical bytes before and after the split.
        assert_eq!(
            before.translate(VirtAddr(0x8000_1234)),
            after.translate(VirtAddr(0x8000_1234))
        );
        // Walks now traverse 4 levels.
        assert_eq!(t.walk(VirtAddr(0x8000_1234)).steps().len(), 4);
    }

    #[test]
    fn split_4k_fails() {
        let (mut f, mut t) = setup();
        map4k(&mut t, &mut f, 0x9000, NodeId(0));
        assert_eq!(
            t.split(VirtAddr(0x9000), &mut f).unwrap_err(),
            TableError::NotMappedAsExpected
        );
    }

    #[test]
    fn remap_moves_frame() {
        let (mut f, mut t) = setup();
        map4k(&mut t, &mut f, 0xa000, NodeId(0));
        let new_frame = f.alloc(NodeId(1), PageSize::Size4K).unwrap();
        let old = t.remap(VirtAddr(0xa123), new_frame, NodeId(1)).unwrap();
        assert_eq!(old.node, NodeId(0));
        let m = t.translate(VirtAddr(0xa000)).unwrap();
        assert_eq!(m.node, NodeId(1));
        assert_eq!(m.frame, new_frame);
    }

    #[test]
    fn collapse_requires_full_population() {
        let (mut f, mut t) = setup();
        // Map only 10 of the 512 children.
        for i in 0..10u64 {
            map4k(&mut t, &mut f, 0x4000_0000 + i * PAGE_4K, NodeId(0));
        }
        let frame = f.alloc(NodeId(0), PageSize::Size2M).unwrap();
        let err = t
            .collapse(VirtAddr(0x4000_0000), PageSize::Size2M, frame, NodeId(0))
            .unwrap_err();
        assert_eq!(err, TableError::NotMappedAsExpected);
    }

    #[test]
    fn collapse_roundtrip() {
        let (mut f, mut t) = setup();
        for i in 0..512u64 {
            map4k(&mut t, &mut f, 0x4000_0000 + i * PAGE_4K, NodeId(0));
        }
        let huge = f.alloc(NodeId(1), PageSize::Size2M).unwrap();
        let out = t
            .collapse(VirtAddr(0x4000_0000), PageSize::Size2M, huge, NodeId(1))
            .unwrap();
        assert_eq!(out.old_children.len(), 512);
        let m = t.translate(VirtAddr(0x4000_1000)).unwrap();
        assert_eq!(m.size, PageSize::Size2M);
        assert_eq!(m.node, NodeId(1));
        // Walks are now 3 levels.
        assert_eq!(t.walk(VirtAddr(0x4000_1000)).steps().len(), 3);
    }

    #[test]
    fn leaves_are_sorted_and_complete() {
        let (mut f, mut t) = setup();
        for vaddr in [0x3000u64, 0x1000, 0x2000, 0x10_0000_0000] {
            map4k(&mut t, &mut f, vaddr, NodeId(0));
        }
        let leaves = t.leaves();
        let addrs: Vec<u64> = leaves.iter().map(|m| m.vbase.0).collect();
        assert_eq!(addrs, vec![0x1000, 0x2000, 0x3000, 0x10_0000_0000]);
    }

    #[test]
    fn reachable_frames_shrink_after_collapse() {
        let (mut f, mut t) = setup();
        for i in 0..512u64 {
            map4k(&mut t, &mut f, 0x4000_0000 + i * PAGE_4K, NodeId(0));
        }
        let before = t.reachable_table_frames().len();
        let huge = f.alloc(NodeId(0), PageSize::Size2M).unwrap();
        t.collapse(VirtAddr(0x4000_0000), PageSize::Size2M, huge, NodeId(0))
            .unwrap();
        let after = t.reachable_table_frames();
        // The PT node retired; its arena slot remains but is unreachable.
        assert_eq!(after.len(), before - 1);
        assert_eq!(after.len() as u64 * PAGE_4K, t.table_bytes());
    }

    #[test]
    fn table_bytes_grow_with_structure() {
        let (mut f, mut t) = setup();
        let before = t.table_bytes();
        map4k(&mut t, &mut f, 0x1000, NodeId(0));
        // Root existed; three intermediate levels were created.
        assert_eq!(t.table_bytes(), before + 3 * PAGE_4K);
        // A nearby page reuses the whole path.
        map4k(&mut t, &mut f, 0x2000, NodeId(0));
        assert_eq!(t.table_bytes(), before + 3 * PAGE_4K);
    }

    /// Asserts a cached walk is bit-identical to the uncached one.
    fn assert_walk_equal(t: &PageTable, cache: &mut WalkCache, vaddr: u64) {
        let plain = t.walk(VirtAddr(vaddr));
        let cached = t.walk_cached(VirtAddr(vaddr), cache);
        assert_eq!(plain.mapping, cached.mapping, "mapping at {vaddr:#x}");
        assert_eq!(plain.steps().len(), cached.steps().len());
        for (a, b) in plain.steps().iter().zip(cached.steps()) {
            assert_eq!(a.pte_addr, b.pte_addr, "step addr at {vaddr:#x}");
            assert_eq!(a.node, b.node, "step node at {vaddr:#x}");
        }
    }

    #[test]
    fn walk_cache_hits_after_first_walk_and_matches_plain_walk() {
        let (mut f, mut t) = setup();
        for i in 0..8u64 {
            map4k(&mut t, &mut f, 0x4000_0000 + i * PAGE_4K, NodeId(0));
        }
        let mut cache = WalkCache::new();
        assert_walk_equal(&t, &mut cache, 0x4000_0000);
        assert_eq!(cache.misses(), 1);
        for i in 0..8u64 {
            assert_walk_equal(&t, &mut cache, 0x4000_0000 + i * PAGE_4K + 0x42);
        }
        // All subsequent walks in the region hit the cached PT entry.
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 8);
        // An unmapped sibling in the same region is answered (as a fault)
        // from the cache too.
        assert_walk_equal(&t, &mut cache, 0x4000_0000 + 100 * PAGE_4K);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn walk_cache_reads_new_leaves_through_without_invalidation() {
        let (mut f, mut t) = setup();
        map4k(&mut t, &mut f, 0x4000_0000, NodeId(0));
        let mut cache = WalkCache::new();
        assert_walk_equal(&t, &mut cache, 0x4000_0000);
        // A demand fault installs a sibling; no generation bump happens and
        // the cached PT entry resolves the new leaf live.
        map4k(&mut t, &mut f, 0x4000_0000 + PAGE_4K, NodeId(1));
        assert_eq!(t.generation(), 0);
        assert_walk_equal(&t, &mut cache, 0x4000_0000 + PAGE_4K);
        assert_eq!(cache.invalidations(), 0);
    }

    #[test]
    fn walk_cache_invalidated_on_split() {
        let (mut f, mut t) = setup();
        let frame = f.alloc(NodeId(0), PageSize::Size2M).unwrap();
        t.map(
            Mapping {
                vbase: VirtAddr(0x8000_0000),
                frame,
                node: NodeId(0),
                size: PageSize::Size2M,
            },
            &mut f,
            NodeId(0),
        )
        .unwrap();
        let mut cache = WalkCache::new();
        assert_walk_equal(&t, &mut cache, 0x8000_1234);
        assert_eq!(cache.len(), 1);
        t.split(VirtAddr(0x8000_0000), &mut f).unwrap();
        // The cached huge entry must not survive: the next walk sees the
        // 4 KiB children.
        assert_walk_equal(&t, &mut cache, 0x8000_1234);
        assert!(cache.invalidations() >= 1);
        let m = t
            .walk_cached(VirtAddr(0x8000_1234), &mut cache)
            .mapping
            .unwrap();
        assert_eq!(m.size, PageSize::Size4K);
    }

    #[test]
    fn walk_cache_invalidated_on_remap() {
        let (mut f, mut t) = setup();
        let frame = f.alloc(NodeId(0), PageSize::Size2M).unwrap();
        t.map(
            Mapping {
                vbase: VirtAddr(0x8000_0000),
                frame,
                node: NodeId(0),
                size: PageSize::Size2M,
            },
            &mut f,
            NodeId(0),
        )
        .unwrap();
        let mut cache = WalkCache::new();
        assert_walk_equal(&t, &mut cache, 0x8000_0000);
        // Migration rewrites the leaf in place; a stale cached mapping
        // would report the old node.
        let new_frame = f.alloc(NodeId(1), PageSize::Size2M).unwrap();
        t.remap(VirtAddr(0x8000_0000), new_frame, NodeId(1))
            .unwrap();
        let m = t
            .walk_cached(VirtAddr(0x8000_0042), &mut cache)
            .mapping
            .unwrap();
        assert_eq!(m.node, NodeId(1));
        assert_eq!(m.frame, new_frame);
        assert_walk_equal(&t, &mut cache, 0x8000_0042);
    }

    #[test]
    fn walk_cache_invalidated_on_collapse() {
        let (mut f, mut t) = setup();
        for i in 0..512u64 {
            map4k(&mut t, &mut f, 0x4000_0000 + i * PAGE_4K, NodeId(0));
        }
        let mut cache = WalkCache::new();
        assert_walk_equal(&t, &mut cache, 0x4000_0000);
        let huge = f.alloc(NodeId(1), PageSize::Size2M).unwrap();
        t.collapse(VirtAddr(0x4000_0000), PageSize::Size2M, huge, NodeId(1))
            .unwrap();
        // A stale PT entry would read the abandoned child table's leaves.
        let m = t
            .walk_cached(VirtAddr(0x4000_1000), &mut cache)
            .mapping
            .unwrap();
        assert_eq!(m.size, PageSize::Size2M);
        assert_eq!(m.node, NodeId(1));
        assert_walk_equal(&t, &mut cache, 0x4000_1000);
    }

    #[test]
    fn walk_cache_invalidated_on_table_rehome() {
        // The satellite-4 hazard: migrating a table page changes nothing
        // the walk *resolves* (same translations), only where the walk
        // *pays* — cached upper-level steps memoize the old frame address
        // and home node, so without a generation bump every subsequent
        // cached walk would keep charging the old node.
        let (mut f, mut t) = setup();
        map4k(&mut t, &mut f, 0x4000_0000, NodeId(0));
        let mut cache = WalkCache::new();
        assert_walk_equal(&t, &mut cache, 0x4000_0000);
        let gen_before = t.generation();
        let new_frame = f.alloc(NodeId(1), PageSize::Size4K).unwrap();
        let (old_base, old_node) = t
            .rehome_deepest_table(VirtAddr(0x4000_0000), new_frame, NodeId(1))
            .unwrap();
        assert_eq!(old_node, NodeId(0));
        f.free(old_base, PageSize::Size4K);
        assert!(
            t.generation() > gen_before,
            "a table rehome must bump the generation — cached steps hold \
             the old frame and home node"
        );
        // The cached walk reflects the new home at the rehomed level.
        let w = t.walk_cached(VirtAddr(0x4000_0000), &mut cache);
        let last = *w.steps().last().unwrap();
        assert_eq!(last.node, NodeId(1));
        assert_eq!(last.pte_addr.0 & !(PAGE_4K - 1), new_frame.0);
        assert_walk_equal(&t, &mut cache, 0x4000_0000);
    }

    #[test]
    fn rehome_refuses_a_root_only_path() {
        let (mut f, mut t) = setup();
        let frame = f.alloc(NodeId(1), PageSize::Size4K).unwrap();
        // Nothing mapped: the only table on the path is the PML4.
        assert_eq!(
            t.rehome_deepest_table(VirtAddr(0x7000_0000), frame, NodeId(1))
                .unwrap_err(),
            TableError::NotMappedAsExpected
        );
    }

    #[test]
    fn deepest_table_frame_tracks_the_leaf_holder() {
        let (mut f, mut t) = setup();
        map4k(&mut t, &mut f, 0x4000_0000, NodeId(0));
        let deepest = t.deepest_table_frame(VirtAddr(0x4000_0000));
        // It is the PT node: the 4th step of a walk lands inside it.
        let w = t.walk(VirtAddr(0x4000_0000));
        let last = w.steps().last().unwrap();
        assert_eq!(last.pte_addr.0 & !(PAGE_4K - 1), deepest.0);
    }

    #[test]
    fn walk_cache_covers_giant_leaves() {
        let (mut f, mut t) = setup();
        let frame = f.alloc(NodeId(1), PageSize::Size1G).unwrap();
        t.map(
            Mapping {
                vbase: VirtAddr(0x40_0000_0000),
                frame,
                node: NodeId(1),
                size: PageSize::Size1G,
            },
            &mut f,
            NodeId(1),
        )
        .unwrap();
        let mut cache = WalkCache::new();
        // Two different 2 MiB regions of the same giant page: one cache
        // entry each, both two-step walks.
        assert_walk_equal(&t, &mut cache, 0x40_0000_0042);
        assert_walk_equal(&t, &mut cache, 0x40_0020_0042);
        assert_eq!(cache.len(), 2);
        let w = t.walk_cached(VirtAddr(0x40_0000_0042), &mut cache);
        assert_eq!(w.steps().len(), 2);
        assert_eq!(w.mapping.unwrap().size, PageSize::Size1G);
    }

    #[test]
    fn page_size_properties() {
        assert_eq!(PageSize::Size4K.walk_levels(), 4);
        assert_eq!(PageSize::Size2M.walk_levels(), 3);
        assert_eq!(PageSize::Size1G.walk_levels(), 2);
        assert_eq!(PageSize::Size2M.smaller(), Some(PageSize::Size4K));
        assert_eq!(PageSize::Size1G.fanout(), 512);
        assert_eq!(PageSize::Size4K.fanout(), 1);
        assert_eq!(PageSize::Size2M.to_string(), "2M");
    }

    fn saved(f: impl FnOnce(&mut codec::Enc)) -> Vec<u8> {
        let mut e = codec::Enc::new();
        f(&mut e);
        e.into_bytes()
    }

    fn random_entry(rng: &mut SmallRng) -> Entry {
        if rng.random_bool(0.2) {
            Entry::Table(rng.random_range(0..10_000u32))
        } else {
            let size =
                [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G][rng.random_range(0..3usize)];
            Entry::Leaf(Mapping {
                vbase: VirtAddr(rng.random_range(0..1u64 << 30) * PAGE_4K),
                frame: PhysAddr(rng.random_range(0..1u64 << 30) * PAGE_4K),
                node: NodeId(rng.random_range(0..8u16)),
                size,
            })
        }
    }

    proptest! {
        /// The bitmap-ranked node agrees with the `BTreeMap<u16, Entry>`
        /// it replaced on lookups, in-place edits, length and slot-order
        /// iteration, encodes to the same bytes, and decodes back to the
        /// same contents.
        #[test]
        fn node_entries_match_btreemap_oracle(seed in 0u64..u64::MAX, ops in 1usize..1500, span in 1u16..=512) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut node = NodeEntries::default();
            let mut oracle: BTreeMap<u16, Entry> = BTreeMap::new();
            for _ in 0..ops {
                let idx = rng.random_range(0..span);
                let entry = random_entry(&mut rng);
                node.insert(idx, entry);
                oracle.insert(idx, entry);
                let q = rng.random_range(0..512u16);
                prop_assert_eq!(node.get(q), oracle.get(&q));
                let edit = random_entry(&mut rng);
                match (node.get_mut(q), oracle.get_mut(&q)) {
                    (Some(a), Some(b)) => {
                        *a = edit;
                        *b = edit;
                    }
                    (None, None) => {}
                    (a, b) => panic!("get_mut({q}) disagrees: {a:?} vs {b:?}"),
                }
                prop_assert_eq!(node.len(), oracle.len());
            }
            let pairs: Vec<(u16, Entry)> = node.iter().map(|(i, e)| (i, *e)).collect();
            let want: Vec<(u16, Entry)> = oracle.iter().map(|(&i, &e)| (i, e)).collect();
            prop_assert_eq!(node.iter().len(), want.len());
            prop_assert_eq!(&pairs, &want);
            prop_assert!(node.values().eq(oracle.values()));

            let bytes = saved(|e| node.save_into(e));
            let oracle_bytes = saved(|e| {
                e.seq(oracle.iter(), |e, (&idx, entry)| {
                    e.u16(idx);
                    match entry {
                        Entry::Table(next) => {
                            e.u8(0);
                            e.u32(*next);
                        }
                        Entry::Leaf(m) => {
                            e.u8(1);
                            enc_mapping(e, m);
                        }
                    }
                })
            });
            prop_assert_eq!(&bytes, &oracle_bytes);
            let mut d = codec::Dec::new(&bytes);
            let back = NodeEntries::load_from(&mut d);
            prop_assert!(d.is_done());
            prop_assert_eq!(back.present, node.present);
            prop_assert_eq!(back.before, node.before);
            prop_assert_eq!(&back.entries, &node.entries);
        }
    }

    #[test]
    fn save_bytes_after_faults_split_and_collapse_are_pinned() {
        let (mut f, mut t) = setup();
        // Demand faults out of slot order, on both nodes.
        for i in [5u64, 1, 300, 2, 511, 0, 64, 63] {
            map4k(
                &mut t,
                &mut f,
                0x4000_0000 + i * PAGE_4K,
                NodeId((i % 2) as u16),
            );
        }
        // A fully populated PT, filled top-down, then collapsed.
        for i in (0..512u64).rev() {
            map4k(&mut t, &mut f, 0x8000_0000 + i * PAGE_4K, NodeId(0));
        }
        let huge = f.alloc(NodeId(1), PageSize::Size2M).unwrap();
        t.collapse(VirtAddr(0x8000_0000), PageSize::Size2M, huge, NodeId(1))
            .unwrap();
        // A huge page split into 512 small ones.
        let frame = f.alloc(NodeId(1), PageSize::Size2M).unwrap();
        t.map(
            Mapping {
                vbase: VirtAddr(0xc000_0000),
                frame,
                node: NodeId(1),
                size: PageSize::Size2M,
            },
            &mut f,
            NodeId(1),
        )
        .unwrap();
        t.split(VirtAddr(0xc000_0000), &mut f).unwrap();

        let bytes = saved(|e| t.save_into(e));
        assert_eq!(
            (codec::fnv1a(&bytes), bytes.len()),
            (0xbfdb_8de9_5879_cd4d, 22_936),
            "got {:016x} ({} bytes)",
            codec::fnv1a(&bytes),
            bytes.len()
        );
        let (_, mut back) = setup();
        back.load_from(&mut codec::Dec::new(&bytes));
        assert_eq!(saved(|e| back.save_into(e)), bytes);
        assert_eq!(back.leaves(), t.leaves());
    }
}
