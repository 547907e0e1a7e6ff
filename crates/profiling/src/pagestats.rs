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

/// Exact access counts and thread masks at 4 KiB granularity.
///
/// 4 KiB is the finest granularity any policy can act on, so coarser page
/// sizes are derived by aggregation ([`PageAccessStats::aggregate`]).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PageAccessStats {
    /// Keyed by 4 KiB page base. Uses the simulator's fast deterministic
    /// hasher: `record` runs once per simulated access, and the default
    /// SipHash dominated its cost. Bucket order never leaks — `aggregate`
    /// sorts its rows.
    cells: FastMap<u64, PageCell>,
    total: u64,
}

impl PageAccessStats {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access by `thread` (ids ≥ 64 share the last mask bit).
    #[inline]
    pub fn record(&mut self, vaddr: VirtAddr, thread: u16) {
        let base = vaddr.align_down(PAGE_4K).0;
        let cell = self.cells.entry(base).or_default();
        cell.count += 1;
        cell.threads |= 1u64 << (thread.min(63));
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
        self.cells.len()
    }

    /// Aggregates the 4 KiB cells to a coarser granularity.
    ///
    /// `container_of` maps a 4 KiB page base to the base of the page that
    /// *currently contains* it (e.g. its 2 MiB huge page base, or itself if
    /// the page is small). Returns `(container_base, count, thread_mask)`
    /// rows sorted by container base.
    pub fn aggregate(&self, container_of: impl Fn(u64) -> u64) -> Vec<(u64, u64, u64)> {
        let mut merged: FastMap<u64, PageCell> =
            FastMap::with_capacity_and_hasher(self.cells.len(), Default::default());
        for (&base, cell) in &self.cells {
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
        self.total = 0;
    }

    /// Serializes the cells (in sorted key order — the hash map's bucket
    /// order is not canonical) and the total, for the `ckpt-v1` snapshot.
    pub fn save_into(&self, e: &mut codec::Enc) {
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

    /// Restores state captured by [`PageAccessStats::save_into`].
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        self.cells.clear();
        let n = d.usize();
        for _ in 0..n {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
