//! Exact per-page access statistics (for the Table 2 metrics).
//!
//! Policies never see these — they only get IBS samples and counters. The
//! exact statistics exist so that experiments can *report* PAMUP, NHP and
//! PSP the way the paper's offline profiling did.

use serde::{Deserialize, Serialize};
use vmem::hash::FastMap;
use vmem::{VirtAddr, PAGE_4K};

/// Access statistics of one 4 KiB page.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct PageCell {
    /// Number of accesses observed.
    pub count: u64,
    /// Bitmask of the (up to 64) thread ids that touched the page.
    pub threads: u64,
}

/// 4 KiB pages per chunk of cells: one 2 MiB-aligned virtual range.
const CHUNK_PAGES: usize = 512;
/// `vaddr >> CHUNK_SHIFT` names a chunk.
const CHUNK_SHIFT: u32 = 21;

/// Exact access counts and thread masks at 4 KiB granularity.
///
/// 4 KiB is the finest granularity any policy can act on, so coarser page
/// sizes are derived by aggregation ([`PageAccessStats::aggregate`]).
///
/// Cells are dense: one array of 512 cells per touched 2 MiB range,
/// allocated on its first access and found through a small directory.
/// `record` runs once per simulated access; a per-page hash map cost a host
/// cache miss on its control bytes and another on its bucket, while the
/// directory stays host-cache resident and the cell sits at a fixed offset.
/// A cell with `count == 0` is untouched.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PageAccessStats {
    /// `CHUNK_PAGES` cells per chunk, chunks in first-touch order.
    cells: Vec<PageCell>,
    /// Chunk key (`vaddr >> CHUNK_SHIFT`) → the chunk's index in `cells`.
    /// Uses the simulator's fast deterministic hasher; bucket order never
    /// leaks (`aggregate` and `save_into` sort).
    chunks: FastMap<u64, u32>,
    /// Cells with a non-zero count.
    pages: usize,
    total: u64,
}

impl PageAccessStats {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cell of the 4 KiB page at `vaddr`, allocating its chunk on
    /// first touch.
    #[inline]
    fn cell_mut(&mut self, vaddr: u64) -> &mut PageCell {
        let key = vaddr >> CHUNK_SHIFT;
        let chunk = match self.chunks.get(&key) {
            Some(&c) => c as usize,
            None => self.add_chunk(key),
        };
        let page = (vaddr / PAGE_4K) as usize % CHUNK_PAGES;
        &mut self.cells[chunk * CHUNK_PAGES + page]
    }

    #[cold]
    fn add_chunk(&mut self, key: u64) -> usize {
        let chunk = self.chunks.len();
        let index = u32::try_from(chunk).expect("page-stat chunk count exceeds u32");
        self.chunks.insert(key, index);
        self.cells
            .resize((chunk + 1) * CHUNK_PAGES, PageCell::default());
        chunk
    }

    /// Records one access by `thread` (ids ≥ 64 share the last mask bit).
    #[inline]
    pub fn record(&mut self, vaddr: VirtAddr, thread: u16) {
        let cell = self.cell_mut(vaddr.0);
        let first = cell.count == 0;
        cell.count += 1;
        cell.threads |= 1u64 << (thread.min(63));
        self.pages += usize::from(first);
        self.total += 1;
    }

    /// Total accesses recorded.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct 4 KiB pages touched.
    #[inline]
    pub fn pages_touched(&self) -> usize {
        self.pages
    }

    /// Touched cells as `(page base, cell)`, in ascending page order.
    fn touched(&self) -> impl Iterator<Item = (u64, &PageCell)> {
        let mut chunks: Vec<(u64, usize)> =
            self.chunks.iter().map(|(&k, &c)| (k, c as usize)).collect();
        chunks.sort_unstable();
        chunks.into_iter().flat_map(move |(key, chunk)| {
            let cells = &self.cells[chunk * CHUNK_PAGES..(chunk + 1) * CHUNK_PAGES];
            (0u64..).zip(cells).filter_map(move |(page, cell)| {
                (cell.count != 0).then_some(((key << CHUNK_SHIFT) + page * PAGE_4K, cell))
            })
        })
    }

    /// Aggregates the 4 KiB cells to a coarser granularity.
    ///
    /// `container_of` maps a 4 KiB page base to the base of the page that
    /// *currently contains* it (e.g. its 2 MiB huge page base, or itself if
    /// the page is small). Returns `(container_base, count, thread_mask)`
    /// rows sorted by container base.
    pub fn aggregate(&self, container_of: impl Fn(u64) -> u64) -> Vec<(u64, u64, u64)> {
        let mut merged: FastMap<u64, PageCell> =
            FastMap::with_capacity_and_hasher(self.pages, Default::default());
        for (base, cell) in self.touched() {
            let c = merged.entry(container_of(base)).or_default();
            c.count += cell.count;
            c.threads |= cell.threads;
        }
        let mut rows: Vec<(u64, u64, u64)> = merged
            .into_iter()
            .map(|(base, cell)| (base, cell.count, cell.threads))
            .collect();
        rows.sort_unstable_by_key(|&(base, _, _)| base);
        rows
    }

    /// Clears all cells (start of a new measurement window).
    pub fn reset(&mut self) {
        self.cells.clear();
        self.chunks.clear();
        self.pages = 0;
        self.total = 0;
    }

    /// Serializes the touched cells in ascending page order, then the
    /// total, for the `ckpt-v3` snapshot.
    pub fn save_into(&self, e: &mut codec::Enc) {
        e.usize(self.pages);
        for (base, cell) in self.touched() {
            e.u64(base);
            e.u64(cell.count);
            e.u64(cell.threads);
        }
        e.u64(self.total);
    }

    /// Restores state captured by [`PageAccessStats::save_into`].
    ///
    /// # Panics
    ///
    /// Panics on a cell with a zero count or a page base that is not
    /// 4 KiB-aligned: neither can come from `save_into`, and the dense
    /// cells cannot represent them.
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        self.reset();
        let n = d.usize();
        for _ in 0..n {
            let base = d.u64();
            let count = d.u64();
            let threads = d.u64();
            assert_eq!(
                base % PAGE_4K,
                0,
                "checkpoint page-stat base {base:#x} is not 4 KiB-aligned"
            );
            assert_ne!(
                count, 0,
                "checkpoint page-stat cell {base:#x} has a zero count"
            );
            let cell = self.cell_mut(base);
            let first = cell.count == 0;
            *cell = PageCell { count, threads };
            self.pages += usize::from(first);
        }
        self.total = d.u64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn record_accumulates_counts_and_threads() {
        let mut s = PageAccessStats::new();
        s.record(VirtAddr(0x1000), 0);
        s.record(VirtAddr(0x1fff), 1);
        s.record(VirtAddr(0x2000), 0);
        assert_eq!(s.total(), 3);
        assert_eq!(s.pages_touched(), 2);
        let rows = s.aggregate(|b| b);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (0x1000, 2, 0b11));
        assert_eq!(rows[1], (0x2000, 1, 0b01));
    }

    #[test]
    fn aggregate_merges_into_containers() {
        let mut s = PageAccessStats::new();
        // Two 4 KiB pages inside the same 2 MiB range, one outside.
        s.record(VirtAddr(0x20_0000), 0);
        s.record(VirtAddr(0x20_1000), 1);
        s.record(VirtAddr(0x40_0000), 2);
        let rows = s.aggregate(|b| b & !(0x20_0000 - 1));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (0x20_0000, 2, 0b11));
        assert_eq!(rows[1], (0x40_0000, 1, 0b100));
    }

    #[test]
    fn high_thread_ids_saturate_mask() {
        let mut s = PageAccessStats::new();
        s.record(VirtAddr(0), 63);
        s.record(VirtAddr(0), 200);
        let rows = s.aggregate(|b| b);
        assert_eq!(rows[0].2, 1u64 << 63);
    }

    #[test]
    fn aggregate_preserves_totals_for_any_container_map() {
        let mut s = PageAccessStats::new();
        for i in 0..100u64 {
            // Skewed: page i gets i accesses from thread (i % 4).
            for _ in 0..i {
                s.record(VirtAddr(i * 0x1000), (i % 4) as u16);
            }
        }
        let expected: u64 = (0..100).sum();
        assert_eq!(s.total(), expected);
        for container in [
            |b: u64| b,                    // identity (4 KiB)
            |b: u64| b & !(0x20_0000 - 1), // 2 MiB
            |_: u64| 0,                    // everything in one bucket
        ] {
            let rows = s.aggregate(container);
            let sum: u64 = rows.iter().map(|&(_, c, _)| c).sum();
            assert_eq!(sum, expected, "aggregation must conserve accesses");
        }
    }

    #[test]
    fn hottest_container_ranking_survives_aggregation() {
        let mut s = PageAccessStats::new();
        // Hot 2 MiB region: 64 accesses spread over its 4 KiB pages.
        for i in 0..64u64 {
            s.record(VirtAddr(0x20_0000 + (i % 8) * 0x1000), 0);
        }
        // Cold region: 3 accesses on one page.
        for _ in 0..3 {
            s.record(VirtAddr(0x60_0000), 1);
        }
        let rows = s.aggregate(|b| b & !(0x20_0000 - 1));
        let hottest = rows.iter().max_by_key(|&&(_, c, _)| c).unwrap();
        assert_eq!(hottest.0, 0x20_0000);
        assert_eq!(hottest.1, 64);
        // Per-4KiB view keeps the heat split 8 ways.
        let fine = s.aggregate(|b| b);
        assert!(fine
            .iter()
            .filter(|&&(b, _, _)| (0x20_0000..0x40_0000).contains(&b))
            .all(|&(_, c, _)| c == 8));
    }

    #[test]
    fn thread_masks_union_under_aggregation() {
        let mut s = PageAccessStats::new();
        s.record(VirtAddr(0x20_0000), 0);
        s.record(VirtAddr(0x20_1000), 1);
        s.record(VirtAddr(0x20_2000), 2);
        let rows = s.aggregate(|b| b & !(0x20_0000 - 1));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].2, 0b111, "container mask is the union");
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = PageAccessStats::new();
        s.record(VirtAddr(0x1000), 0);
        s.reset();
        assert_eq!(s.total(), 0);
        assert_eq!(s.pages_touched(), 0);
    }

    /// The per-page hash map that the dense chunks replaced, kept as their
    /// oracle: same aggregation, and the ckpt-v3 encoding the dense layout
    /// must reproduce byte for byte.
    #[derive(Default)]
    struct OracleStats {
        cells: FastMap<u64, PageCell>,
        total: u64,
    }

    impl OracleStats {
        fn record(&mut self, vaddr: VirtAddr, thread: u16) {
            let cell = self.cells.entry(vaddr.align_down(PAGE_4K).0).or_default();
            cell.count += 1;
            cell.threads |= 1u64 << (thread.min(63));
            self.total += 1;
        }

        fn aggregate(&self, container_of: impl Fn(u64) -> u64) -> Vec<(u64, u64, u64)> {
            let mut merged: FastMap<u64, PageCell> = FastMap::default();
            for (&base, cell) in &self.cells {
                let c = merged.entry(container_of(base)).or_default();
                c.count += cell.count;
                c.threads |= cell.threads;
            }
            let mut rows: Vec<_> = merged
                .into_iter()
                .map(|(base, cell)| (base, cell.count, cell.threads))
                .collect();
            rows.sort_unstable_by_key(|&(base, _, _)| base);
            rows
        }

        fn save_into(&self, e: &mut codec::Enc) {
            let mut keys: Vec<u64> = self.cells.keys().copied().collect();
            keys.sort_unstable();
            e.seq(keys.into_iter(), |e, k| {
                let cell = &self.cells[&k];
                e.u64(k);
                e.u64(cell.count);
                e.u64(cell.threads);
            });
            e.u64(self.total);
        }

        fn load_from(&mut self, d: &mut codec::Dec<'_>) {
            self.cells.clear();
            for _ in 0..d.usize() {
                let k = d.u64();
                self.cells.insert(
                    k,
                    PageCell {
                        count: d.u64(),
                        threads: d.u64(),
                    },
                );
            }
            self.total = d.u64();
        }
    }

    fn saved(f: impl FnOnce(&mut codec::Enc)) -> Vec<u8> {
        let mut e = codec::Enc::new();
        f(&mut e);
        e.into_bytes()
    }

    fn assert_same(dense: &PageAccessStats, oracle: &OracleStats) {
        assert_eq!(dense.total(), oracle.total);
        assert_eq!(dense.pages_touched(), oracle.cells.len());
        let maps: [fn(u64) -> u64; 4] = [
            |b| b,
            |b| b & !((2 << 20) - 1),
            |b| b & !((1 << 30) - 1),
            |_| 0x4000_0000,
        ];
        for container in maps {
            assert_eq!(dense.aggregate(container), oracle.aggregate(container));
        }
        assert_eq!(
            saved(|e| dense.save_into(e)),
            saved(|e| oracle.save_into(e))
        );
    }

    proptest! {
        /// Dense chunks behave exactly like the per-page hash map: totals,
        /// touched pages, aggregation under 4 KiB, 2 MiB, 1 GiB and constant
        /// container maps, and checkpoint bytes, also across a mid-stream
        /// save/load into a fresh tracker.
        #[test]
        fn dense_cells_match_fastmap_oracle(seed in 0u64..u64::MAX, regions in 1usize..6, records in 1usize..4000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            // Regions of 1 to 8 chunks, spread over a 47-bit space so that
            // some share a 1 GiB range and most do not.
            let spans: Vec<(u64, u64)> = (0..regions)
                .map(|_| {
                    let base = rng.random_range(0..1u64 << 47) & !((2 << 20) - 1);
                    (base, rng.random_range(1..=8u64) << 21)
                })
                .collect();
            let mut dense = PageAccessStats::new();
            let mut oracle = OracleStats::default();
            for i in 0..records {
                if i == records / 2 {
                    assert_same(&dense, &oracle);
                    let bytes = saved(|e| dense.save_into(e));
                    dense = PageAccessStats::new();
                    dense.load_from(&mut codec::Dec::new(&bytes));
                    oracle = OracleStats::default();
                    oracle.load_from(&mut codec::Dec::new(&bytes));
                }
                let (base, len) = spans[rng.random_range(0..spans.len())];
                let vaddr = VirtAddr(base + rng.random_range(0..len));
                let thread = rng.random_range(0..80u16);
                dense.record(vaddr, thread);
                oracle.record(vaddr, thread);
            }
            assert_same(&dense, &oracle);
        }
    }

    #[test]
    #[should_panic(expected = "zero count")]
    fn zero_count_cell_is_refused_on_load() {
        let mut e = codec::Enc::new();
        e.usize(1);
        e.u64(0x1000);
        e.u64(0);
        e.u64(1);
        e.u64(0);
        PageAccessStats::new().load_from(&mut codec::Dec::new(&e.into_bytes()));
    }
}
