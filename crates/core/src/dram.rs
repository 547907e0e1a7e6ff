//! One epoch's DRAM-serviced IBS samples, sorted once by address.
//!
//! Every per-page view Carrefour and Carrefour-LP build — the what-if LAR
//! estimate, the large-page view of Algorithm 1's reactive component and
//! the placement pass's per-page evidence — is a grouping of the same
//! samples by page. Sorting them once by (page base, 4 KiB page) turns
//! each grouping into a linear scan over runs of equal keys.

use profiling::IbsSample;
use std::borrow::Cow;
use vmem::PageSize;

/// One DRAM sample, reduced to what the groupings read.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Dram {
    /// Base of the page at its mapped size when sampled.
    pub base: u64,
    /// Base of the 4 KiB page.
    pub sub: u64,
    /// The accessing node.
    pub node: u16,
    /// The frame's home node.
    pub home: u16,
    /// The mapped page size when sampled.
    pub size: PageSize,
    /// Position in the epoch's sample stream: within a group, the sample
    /// with the largest `idx` is the most recent.
    pub idx: u32,
}

/// The epoch's DRAM samples in (page base, 4 KiB page, stream position)
/// order — a stable sort by address.
pub(crate) struct DramSamples {
    recs: Vec<Dram>,
}

impl DramSamples {
    /// Keeps the DRAM-serviced samples (the only ones placement trusts) and
    /// sorts them.
    pub fn new(samples: &[IbsSample]) -> Self {
        let mut recs: Vec<Dram> = samples
            .iter()
            .enumerate()
            .filter(|(_, s)| s.from_dram)
            .map(|(i, s)| Dram {
                base: s.page_base(),
                sub: s.page_4k(),
                node: s.accessing_node.0,
                home: s.home_node.0,
                size: s.page_size,
                idx: i as u32,
            })
            .collect();
        // `idx` is unique, so the unstable sort is the stable one.
        recs.sort_unstable_by_key(|r| (r.base, r.sub, r.idx));
        DramSamples { recs }
    }

    /// Number of DRAM samples.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// The samples in sort order.
    pub fn all(&self) -> &[Dram] {
        &self.recs
    }

    /// The samples grouped by page at its mapped size, in ascending base
    /// order: the sort's leading key, so each group is one run.
    pub fn pages(&self) -> impl Iterator<Item = &[Dram]> {
        self.recs.chunk_by(|a, b| a.base == b.base)
    }

    /// Calls `f` once per group of samples with equal `key`, in ascending
    /// key order. Keys that ascend with the sort order (the page base, and
    /// any key derived from it page by page) group in place. Otherwise —
    /// a 4 KiB page sampled at two mapped sizes in one epoch — the
    /// samples are re-sorted by `(key, idx)` first, so the groups are
    /// exact for any input.
    pub fn for_each_group(&self, key: impl Fn(&Dram) -> u64, mut f: impl FnMut(u64, &[Dram])) {
        let keys: Vec<u64> = self.recs.iter().map(&key).collect();
        let (recs, keys) = if keys.windows(2).all(|w| w[0] <= w[1]) {
            (Cow::Borrowed(&self.recs[..]), keys)
        } else {
            let mut recs = self.recs.clone();
            recs.sort_unstable_by_key(|r| (key(r), r.idx));
            let keys = recs.iter().map(&key).collect();
            (Cow::Owned(recs), keys)
        };
        let mut start = 0;
        while start < recs.len() {
            let k = keys[start];
            let end = start + keys[start..].iter().take_while(|&&x| x == k).count();
            f(k, &recs[start..end]);
            start = end;
        }
    }
}

/// Whether every sample of a group came from one node.
pub(crate) fn single_node(group: &[Dram]) -> bool {
    group.iter().all(|r| r.node == group[0].node)
}

/// The number of distinct accessing nodes in a group.
pub(crate) fn distinct_nodes(group: &[Dram]) -> usize {
    let mut nodes: Vec<u16> = group.iter().map(|r| r.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes.len()
}

/// The earliest sample of a group.
pub(crate) fn earliest(group: &[Dram]) -> &Dram {
    group
        .iter()
        .min_by_key(|r| r.idx)
        .expect("groups are non-empty")
}

/// The most recent sample of a group.
pub(crate) fn latest(group: &[Dram]) -> &Dram {
    group
        .iter()
        .max_by_key(|r| r.idx)
        .expect("groups are non-empty")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use numa_topology::NodeId;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vmem::VirtAddr;

    /// `n` random samples over a few pages: four 1 GiB-aligned regions,
    /// eight 2 MiB pages each, eight 4 KiB pages each, so pages and
    /// sub-pages collect several samples. Each 2 MiB page has one mapped
    /// size; with `mixed`, one sample in eight reports another size, as a
    /// page split or collapsed mid-epoch would. A fifth of the samples
    /// were served from cache.
    pub(crate) fn random_samples(seed: u64, n: usize, nodes: u16, mixed: bool) -> Vec<IbsSample> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sizes = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G];
        let region_size: Vec<PageSize> = (0..32)
            .map(|_| sizes[rng.random_range(0..3usize)])
            .collect();
        (0..n)
            .map(|_| {
                let (region, page) = (rng.random_range(0..4u64), rng.random_range(0..8u64));
                let vaddr = (region << 30)
                    + (page << 21)
                    + (rng.random_range(0..8u64) << 12)
                    + rng.random_range(0..64u64) * 64;
                let mut size = region_size[(region * 8 + page) as usize];
                if mixed && rng.random_range(0..8u32) == 0 {
                    size = sizes[rng.random_range(0..3usize)];
                }
                IbsSample {
                    vaddr: VirtAddr(vaddr),
                    accessing_node: NodeId(rng.random_range(0..nodes)),
                    thread: 0,
                    home_node: NodeId(rng.random_range(0..nodes)),
                    from_dram: rng.random_range(0..5u32) != 0,
                    is_store: false,
                    page_size: size,
                    walk_remote_steps: 0,
                }
            })
            .collect()
    }

    /// Shuffles `samples` in place (Fisher–Yates).
    pub(crate) fn shuffle(samples: &mut [IbsSample], seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..samples.len()).rev() {
            samples.swap(i, rng.random_range(0..=i));
        }
    }

    #[test]
    fn groups_are_exact_even_when_sizes_mix() {
        for seed in 0..64 {
            let samples = random_samples(seed, 300, 4, true);
            let dram = DramSamples::new(&samples);
            let mut seen = 0;
            let mut last = None;
            dram.for_each_group(
                |r| r.sub,
                |key, group| {
                    assert!(last < Some(key), "keys ascend and never repeat");
                    last = Some(key);
                    assert!(group.iter().all(|r| r.sub == key));
                    seen += group.len();
                },
            );
            assert_eq!(seen, dram.len());
            let bases: Vec<u64> = dram.pages().map(|g| g[0].base).collect();
            assert!(bases.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
