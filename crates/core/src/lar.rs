//! What-if LAR estimation from IBS samples (Section 3.2.1).
//!
//! "Estimating the LAR for various what-if scenarios (e.g., if a page were
//! migrated or if large pages were split into regular-sized) is trivial with
//! IBS samples": for every sampled page, if all of its samples came from one
//! node, Carrefour would migrate it there and every access would be local;
//! if they came from several nodes, Carrefour interleaves it and a fraction
//! `1/num_nodes` of accesses land locally in expectation. Splitting changes
//! only the grouping key: 4 KiB sub-pages instead of current pages.
//!
//! The estimator only trusts DRAM-serviced samples (cached pages do not
//! matter for placement) — also per the paper.

use crate::dram::{single_node, Dram, DramSamples};
use profiling::IbsSample;

/// The three LAR predictions, each in `[0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LarEstimate {
    /// LAR as currently placed.
    pub current: f64,
    /// Predicted LAR if Carrefour migrated/interleaved the current pages.
    pub with_carrefour: f64,
    /// Predicted LAR if all large pages were split and Carrefour then
    /// migrated/interleaved the resulting 4 KiB pages.
    pub with_split: f64,
    /// Number of DRAM samples the estimate is based on (its confidence).
    pub dram_samples: usize,
}

impl LarEstimate {
    /// Predicted gain of Carrefour alone, in percentage points.
    pub fn carrefour_gain_pp(&self) -> f64 {
        (self.with_carrefour - self.current) * 100.0
    }

    /// Predicted gain of Carrefour plus splitting, in percentage points.
    pub fn split_gain_pp(&self) -> f64 {
        (self.with_split - self.current) * 100.0
    }
}

/// Computes the three-way LAR estimate from one epoch's samples.
pub fn estimate(samples: &[IbsSample], num_nodes: usize) -> LarEstimate {
    estimate_sorted(&DramSamples::new(samples), num_nodes)
}

/// [`estimate`] over samples already sorted by address.
///
/// A page whose samples all came from one node is migrated to its
/// accessor: all of them count as local. A page shared by several nodes is
/// interleaved, so `1/num_nodes` of them land locally in expectation. The
/// two sums are kept as integers, so the estimate does not depend on the
/// order the pages are visited in.
pub(crate) fn estimate_sorted(dram: &DramSamples, num_nodes: usize) -> LarEstimate {
    let samples = dram.len();
    if samples == 0 {
        return LarEstimate {
            current: 1.0,
            with_carrefour: 1.0,
            with_split: 1.0,
            dram_samples: 0,
        };
    }
    let local = dram.all().iter().filter(|r| r.node == r.home).count();
    // (samples on single-node pages, samples on shared pages)
    let mut by_page = (0usize, 0usize);
    let mut by_subpage = (0usize, 0usize);
    let add = |sums: &mut (usize, usize), group: &[Dram]| {
        if single_node(group) {
            sums.0 += group.len();
        } else {
            sums.1 += group.len();
        }
    };
    for group in dram.pages() {
        add(&mut by_page, group);
    }
    dram.for_each_group(|r| r.sub, |_, group| add(&mut by_subpage, group));
    let weighted = |(private, shared): (usize, usize)| {
        (private as f64 + shared as f64 * (1.0 / num_nodes as f64)) / samples as f64
    };

    LarEstimate {
        current: local as f64 / samples as f64,
        with_carrefour: weighted(by_page),
        // Splitting changes only the grouping: 4 KiB pages.
        with_split: weighted(by_subpage),
        dram_samples: samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::NodeId;
    use vmem::{PageSize, VirtAddr};

    fn sample(vaddr: u64, accessing: u16, home: u16, size: PageSize, dram: bool) -> IbsSample {
        IbsSample {
            vaddr: VirtAddr(vaddr),
            accessing_node: NodeId(accessing),
            thread: accessing,
            home_node: NodeId(home),
            from_dram: dram,
            is_store: false,
            page_size: size,
            walk_remote_steps: 0,
        }
    }

    #[test]
    fn empty_input_predicts_unity() {
        let e = estimate(&[], 4);
        assert_eq!(e.dram_samples, 0);
        assert_eq!(e.carrefour_gain_pp(), 0.0);
    }

    #[test]
    fn cached_samples_are_ignored() {
        let s = [sample(0x1000, 0, 1, PageSize::Size4K, false)];
        assert_eq!(estimate(&s, 4).dram_samples, 0);
    }

    #[test]
    fn single_node_remote_page_is_predicted_fixable() {
        // One page, always accessed by node 0, but homed on node 1:
        // current LAR 0, Carrefour prediction 1.
        let s: Vec<_> = (0..10)
            .map(|i| sample(0x20_0000 + i * 64, 0, 1, PageSize::Size4K, true))
            .collect();
        let e = estimate(&s, 4);
        assert_eq!(e.current, 0.0);
        assert_eq!(e.with_carrefour, 1.0);
        assert!((e.carrefour_gain_pp() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn shared_page_is_predicted_interleaved() {
        // One page accessed from two nodes: Carrefour interleaves; on a
        // 4-node machine the predicted LAR is 0.25.
        let mut s = Vec::new();
        for i in 0..5 {
            s.push(sample(0x20_0000 + i * 64, 0, 0, PageSize::Size2M, true));
            s.push(sample(0x20_0000 + i * 64, 1, 0, PageSize::Size2M, true));
        }
        let e = estimate(&s, 4);
        assert!((e.with_carrefour - 0.25).abs() < 1e-9);
    }

    #[test]
    fn splitting_helps_falsely_shared_huge_page() {
        // A 2 MiB page whose 4 KiB sub-pages are each private to one node:
        // as a huge page it is "shared" (interleave: 0.25); split, every
        // sub-page is single-node (predict 1.0). This is UA's profile.
        let mut s = Vec::new();
        for i in 0..8u64 {
            let node = (i % 4) as u16;
            for k in 0..3 {
                s.push(sample(
                    0x20_0000 + i * 4096 + k * 64,
                    node,
                    0,
                    PageSize::Size2M,
                    true,
                ));
            }
        }
        let e = estimate(&s, 4);
        assert!((e.with_carrefour - 0.25).abs() < 1e-9);
        assert!((e.with_split - 1.0).abs() < 1e-9);
        assert!(e.split_gain_pp() > e.carrefour_gain_pp());
    }

    #[test]
    fn sparse_sampling_overestimates_split_gain() {
        // The SSCA pathology: a page truly shared by all nodes, but each
        // 4 KiB sub-page catches exactly ONE sample. The split prediction
        // believes every sub-page is private and predicts LAR 1.0 — wildly
        // optimistic. (This emerges from grouping, not from special-casing.)
        let mut s = Vec::new();
        for i in 0..16u64 {
            s.push(sample(
                0x20_0000 + i * 4096,
                (i % 4) as u16,
                0,
                PageSize::Size2M,
                true,
            ));
        }
        let e = estimate(&s, 4);
        assert!((e.with_split - 1.0).abs() < 1e-9, "optimistic by design");
        assert!((e.with_carrefour - 0.25).abs() < 1e-9);
    }

    /// The map-based estimator this module used before the one sort: the
    /// oracle the sorted one must equal.
    fn estimate_by_maps(samples: &[IbsSample], num_nodes: usize) -> LarEstimate {
        use std::collections::HashMap;
        let mut local = 0usize;
        let mut dram = 0usize;
        let mut pages: HashMap<u64, HashMap<u16, u32>> = HashMap::new();
        let mut subpages: HashMap<u64, HashMap<u16, u32>> = HashMap::new();
        for s in samples.iter().filter(|s| s.from_dram) {
            dram += 1;
            local += usize::from(s.local());
            *pages
                .entry(s.page_base())
                .or_default()
                .entry(s.accessing_node.0)
                .or_insert(0) += 1;
            *subpages
                .entry(s.page_4k())
                .or_default()
                .entry(s.accessing_node.0)
                .or_insert(0) += 1;
        }
        if dram == 0 {
            return estimate(&[], num_nodes);
        }
        let weighted = |groups: &HashMap<u64, HashMap<u16, u32>>| {
            let mut acc = 0.0;
            for counts in groups.values() {
                let total: u32 = counts.values().sum();
                let frac = if counts.len() <= 1 {
                    1.0
                } else {
                    1.0 / num_nodes as f64
                };
                acc += frac * f64::from(total);
            }
            acc / dram as f64
        };
        LarEstimate {
            current: local as f64 / dram as f64,
            with_carrefour: weighted(&pages),
            with_split: weighted(&subpages),
            dram_samples: dram,
        }
    }

    proptest::proptest! {
        /// The sorted estimate equals the map-based one bit for bit, on
        /// consistent and mixed page sizes. The oracle sums its pages in
        /// the std `HashMap`'s per-process random order; that is exact,
        /// and so comparable, because every term is a multiple of
        /// `1/num_nodes` for a power-of-two node count.
        #[test]
        fn sorted_estimate_equals_the_map_oracle(
            seed in 0u64..=u64::MAX,
            n in 0usize..400,
            nodes in [1u16, 2, 4, 8].as_slice(),
            mixed in [false, true].as_slice(),
        ) {
            let samples = crate::dram::tests::random_samples(seed, n, nodes, mixed);
            let got = estimate(&samples, usize::from(nodes));
            proptest::prop_assert_eq!(got, estimate_by_maps(&samples, usize::from(nodes)));
        }

        /// Samples of one 2 MiB page, shuffled: the estimate does not
        /// depend on the order the samples arrive in.
        #[test]
        fn one_page_in_shuffled_order_estimates_alike(seed in 0u64..=u64::MAX) {
            let mut samples: Vec<IbsSample> = crate::dram::tests::random_samples(seed, 200, 8, false)
                .into_iter()
                .map(|mut s| {
                    s.vaddr = VirtAddr(0x20_0000 + (s.vaddr.0 & 0x1f_ffff));
                    s.page_size = PageSize::Size2M;
                    s
                })
                .collect();
            let want = estimate_by_maps(&samples, 8);
            for round in 0..4 {
                crate::dram::tests::shuffle(&mut samples, seed ^ round);
                proptest::prop_assert_eq!(estimate(&samples, 8), want);
            }
        }
    }

    #[test]
    fn current_lar_counts_locals() {
        let s = [
            sample(0x1000, 0, 0, PageSize::Size4K, true),
            sample(0x2000, 0, 1, PageSize::Size4K, true),
        ];
        let e = estimate(&s, 2);
        assert!((e.current - 0.5).abs() < 1e-9);
        assert_eq!(e.dram_samples, 2);
    }
}
