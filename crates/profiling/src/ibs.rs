//! Instruction-based-sampling (IBS) simulation.

use numa_topology::NodeId;
use serde::{Deserialize, Serialize};
use vmem::{PageSize, VirtAddr, PAGE_4K};

/// Configuration of the sampler.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IbsConfig {
    /// Take one sample every `period` data accesses (per machine, matching
    /// the aggregate rate the kernel module configures across cores).
    pub period: u64,
    /// Cycles of interrupt-handler overhead charged per sample taken.
    /// IBS raises an NMI per sample; the paper's Section 4.2 overhead is
    /// dominated by this plus the decision pass.
    pub sample_overhead_cycles: u64,
}

impl Default for IbsConfig {
    fn default() -> Self {
        IbsConfig {
            period: 4096,
            sample_overhead_cycles: 2200,
        }
    }
}

/// One IBS sample: a tagged memory access.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IbsSample {
    /// Sampled data virtual address.
    pub vaddr: VirtAddr,
    /// Node of the core that issued the access.
    pub accessing_node: NodeId,
    /// Simulated thread id of the issuer.
    pub thread: u16,
    /// Home node of the physical frame.
    pub home_node: NodeId,
    /// Whether the access was serviced from DRAM (cache misses only);
    /// the paper only trusts pages with at least one DRAM-serviced sample.
    pub from_dram: bool,
    /// Whether the sampled operation was a store (IBS tags each op).
    pub is_store: bool,
    /// Size of the page backing the access at sample time.
    pub page_size: PageSize,
    /// Page-walk steps this access paid to *remote* table frames (0 when
    /// the TLB hit and no walk ran). Real IBS exposes tablewalk-latency
    /// tags; numaPTE keys its table-migration decisions off exactly this.
    pub walk_remote_steps: u8,
}

impl IbsSample {
    /// Base of the 4 KiB page containing the sampled address.
    #[inline]
    pub fn page_4k(&self) -> u64 {
        self.vaddr.align_down(PAGE_4K).0
    }

    /// Base of the page (at its current mapped size) containing the address.
    #[inline]
    pub fn page_base(&self) -> u64 {
        self.vaddr.align_down(self.page_size.bytes()).0
    }

    /// Whether the access was serviced by the issuer's own node.
    #[inline]
    pub fn local(&self) -> bool {
        self.accessing_node == self.home_node
    }
}

/// The sampling engine with per-node sample stores.
///
/// Real IBS tags one in N ops per core; the simulator keeps one countdown
/// for the whole machine, which produces the same aggregate density. The
/// per-node stores mirror the paper's Section 4.3 fix: samples are filed
/// under the *accessing* node, as the kernel module does to avoid a
/// centralized, cross-node-locked buffer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IbsSampler {
    config: IbsConfig,
    countdown: u64,
    stores: Vec<Vec<IbsSample>>,
    taken: u64,
    overhead_cycles: u64,
    store: bool,
}

impl IbsSampler {
    /// Creates a sampler for a machine with `num_nodes` nodes.
    pub fn new(num_nodes: usize, config: IbsConfig) -> Self {
        IbsSampler {
            config,
            countdown: config.period,
            stores: vec![Vec::new(); num_nodes],
            taken: 0,
            overhead_cycles: 0,
            store: true,
        }
    }

    /// Enables or disables sample *storage*. The NMI still fires — `taken`
    /// and the per-sample overhead are unchanged, since the hardware does
    /// not know nobody will read the buffer — but samples are not built or
    /// filed. For runs whose policy never reads samples, this elides the
    /// profiling bookkeeping without perturbing any timing.
    pub fn set_store(&mut self, store: bool) {
        self.store = store;
    }

    /// Observes one memory access; returns `true` if it was sampled.
    ///
    /// The caller provides a fully-formed sample (cheap to build) and the
    /// sampler decides whether to keep it.
    #[inline]
    pub fn observe(&mut self, make_sample: impl FnOnce() -> IbsSample) -> bool {
        self.countdown -= 1;
        if self.countdown > 0 {
            return false;
        }
        self.countdown = self.config.period;
        self.taken += 1;
        self.overhead_cycles += self.config.sample_overhead_cycles;
        if self.store {
            let s = make_sample();
            self.stores[s.accessing_node.index()].push(s);
        }
        true
    }

    /// Ops until the next sampled op, counting that op: `1` means the very
    /// next observed op is sampled. The skip-ahead primitive — a caller
    /// processing a batch can run `until_next() - 1` ops with zero sampler
    /// work, then materialise the sample for the op that lands on the
    /// countdown.
    #[inline]
    pub fn until_next(&self) -> u64 {
        self.countdown
    }

    /// How many of the next `n_ops` observed ops would be sampled.
    ///
    /// Pure arithmetic over the countdown and period; `observe`-ing `n_ops`
    /// ops one by one takes exactly this many samples.
    #[inline]
    pub fn samples_in(&self, n_ops: u64) -> u64 {
        if n_ops >= self.countdown {
            1 + (n_ops - self.countdown) / self.config.period
        } else {
            0
        }
    }

    /// Advances past `n` *unsampled* ops in one step. Exactly equivalent to
    /// `n` [`IbsSampler::observe`] calls that all return `false`.
    ///
    /// # Panics
    ///
    /// Debug-panics if `n >= until_next()` — the caller skipped over an op
    /// that should have been sampled.
    #[inline]
    pub fn advance_unsampled(&mut self, n: u64) {
        debug_assert!(
            n < self.countdown,
            "skip-ahead of {n} ops would jump a sample due in {}",
            self.countdown
        );
        self.countdown -= n;
    }

    /// Observes the op the countdown lands on (`until_next()` must be 1) and
    /// takes its sample: together with [`IbsSampler::advance_unsampled`]
    /// this is the batched equivalent of per-op [`IbsSampler::observe`]
    /// calls, with samples materialised at exactly the same op indices.
    #[inline]
    pub fn take_sample(&mut self, make_sample: impl FnOnce() -> IbsSample) {
        debug_assert_eq!(self.countdown, 1, "take_sample off the sample op");
        self.countdown = self.config.period;
        self.taken += 1;
        self.overhead_cycles += self.config.sample_overhead_cycles;
        if self.store {
            let s = make_sample();
            self.stores[s.accessing_node.index()].push(s);
        }
    }

    /// Drains every per-node store into one vector (the policy's periodic
    /// collection pass) and resets the per-epoch overhead accumulator.
    ///
    /// Returns the samples and the cycles of sampling overhead accumulated
    /// since the last drain.
    pub fn drain(&mut self) -> (Vec<IbsSample>, u64) {
        let mut all = Vec::with_capacity(self.stores.iter().map(Vec::len).sum());
        for store in &mut self.stores {
            all.append(store);
        }
        let overhead = self.overhead_cycles;
        self.overhead_cycles = 0;
        (all, overhead)
    }

    /// Serializes the sampler's mutable state — countdown, per-node stores,
    /// lifetime/overhead counters, and the storage flag — for the `ckpt-v1`
    /// snapshot (the config is constructor-fixed).
    pub fn save_into(&self, e: &mut codec::Enc) {
        e.u64(self.countdown);
        e.seq(self.stores.iter(), |e, store| {
            e.seq(store.iter(), |e, s| {
                e.u64(s.vaddr.0);
                e.u16(s.accessing_node.0);
                e.u16(s.thread);
                e.u16(s.home_node.0);
                e.bool(s.from_dram);
                e.bool(s.is_store);
                e.u8(match s.page_size {
                    PageSize::Size4K => 0,
                    PageSize::Size2M => 1,
                    PageSize::Size1G => 2,
                });
                e.u8(s.walk_remote_steps);
            });
        });
        e.u64(self.taken);
        e.u64(self.overhead_cycles);
        e.bool(self.store);
    }

    /// Restores state captured by [`IbsSampler::save_into`] onto a sampler
    /// built for the same machine and config.
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        self.countdown = d.u64();
        let n = d.usize();
        assert_eq!(n, self.stores.len(), "checkpoint sampler node count");
        for store in &mut self.stores {
            *store = d.seq(|d| IbsSample {
                vaddr: VirtAddr(d.u64()),
                accessing_node: NodeId(d.u16()),
                thread: d.u16(),
                home_node: NodeId(d.u16()),
                from_dram: d.bool(),
                is_store: d.bool(),
                page_size: match d.u8() {
                    0 => PageSize::Size4K,
                    1 => PageSize::Size2M,
                    2 => PageSize::Size1G,
                    t => panic!("ckpt: invalid PageSize tag {t}"),
                },
                walk_remote_steps: d.u8(),
            });
        }
        self.taken = d.u64();
        self.overhead_cycles = d.u64();
        self.store = d.bool();
    }

    /// Samples taken over the sampler's lifetime.
    #[inline]
    pub fn total_taken(&self) -> u64 {
        self.taken
    }

    /// The configured sampling period.
    #[inline]
    pub fn period(&self) -> u64 {
        self.config.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_at(vaddr: u64, node: usize) -> IbsSample {
        IbsSample {
            vaddr: VirtAddr(vaddr),
            accessing_node: NodeId::from(node),
            thread: 0,
            home_node: NodeId(0),
            from_dram: true,
            is_store: false,
            page_size: PageSize::Size2M,
            walk_remote_steps: 0,
        }
    }

    #[test]
    fn samples_every_period() {
        let mut s = IbsSampler::new(
            2,
            IbsConfig {
                period: 10,
                sample_overhead_cycles: 100,
            },
        );
        let mut hits = 0;
        for i in 0..100 {
            if s.observe(|| sample_at(i * 64, 0)) {
                hits += 1;
            }
        }
        assert_eq!(hits, 10);
        assert_eq!(s.total_taken(), 10);
    }

    #[test]
    fn drain_returns_and_clears() {
        let mut s = IbsSampler::new(
            2,
            IbsConfig {
                period: 1,
                sample_overhead_cycles: 100,
            },
        );
        for i in 0..5 {
            s.observe(|| sample_at(i, i as usize % 2));
        }
        let (samples, overhead) = s.drain();
        assert_eq!(samples.len(), 5);
        assert_eq!(overhead, 500);
        let (samples2, overhead2) = s.drain();
        assert!(samples2.is_empty());
        assert_eq!(overhead2, 0);
    }

    #[test]
    fn samples_filed_per_accessing_node() {
        let mut s = IbsSampler::new(
            2,
            IbsConfig {
                period: 1,
                sample_overhead_cycles: 0,
            },
        );
        s.observe(|| sample_at(0x1000, 1));
        assert_eq!(s.stores[0].len(), 0);
        assert_eq!(s.stores[1].len(), 1);
    }

    #[test]
    fn sample_page_helpers() {
        let s = IbsSample {
            vaddr: VirtAddr(0x20_1234),
            accessing_node: NodeId(0),
            thread: 3,
            home_node: NodeId(1),
            from_dram: true,
            is_store: false,
            page_size: PageSize::Size2M,
            walk_remote_steps: 0,
        };
        assert_eq!(s.page_4k(), 0x20_1000);
        assert_eq!(s.page_base(), 0x20_0000);
        assert!(!s.local());
    }

    #[test]
    fn storage_off_keeps_counts_and_overhead_but_files_nothing() {
        let config = IbsConfig {
            period: 2,
            sample_overhead_cycles: 100,
        };
        let mut on = IbsSampler::new(2, config);
        let mut off = IbsSampler::new(2, config);
        off.set_store(false);
        for i in 0..10 {
            on.observe(|| sample_at(i * 64, 0));
            off.observe(|| panic!("must not build samples with storage off"));
        }
        assert_eq!(on.total_taken(), off.total_taken());
        let (s_on, o_on) = on.drain();
        let (s_off, o_off) = off.drain();
        assert_eq!(o_on, o_off, "overhead identical either way");
        assert_eq!(s_on.len(), 5);
        assert!(s_off.is_empty());
    }

    #[test]
    fn closure_not_called_when_not_sampling() {
        let mut s = IbsSampler::new(
            1,
            IbsConfig {
                period: 1000,
                sample_overhead_cycles: 0,
            },
        );
        let mut called = 0;
        for _ in 0..10 {
            s.observe(|| {
                called += 1;
                sample_at(0, 0)
            });
        }
        assert_eq!(called, 0, "sample construction must be lazy");
    }
}
