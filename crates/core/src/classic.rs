//! The baseline Carrefour placement algorithm (Section 3.1).

use crate::config::CarrefourConfig;
use crate::dram::{latest, single_node, Dram, DramSamples};
use crate::knob::{self, Knob};
use crate::pageset::PageSet;
use engine::{EpochCtx, NumaPolicy};
use numa_topology::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// One page's evidence from one epoch's DRAM samples.
#[derive(Clone, Copy, Debug)]
struct PageGroup {
    /// The page: its base at mapped size, or a 4 KiB sub-page.
    page: u64,
    /// The accessing node when every sample came from one node.
    node: Option<u16>,
    /// Home node seen in the most recent sample.
    home: u16,
    /// Total samples.
    total: u32,
    /// Whether the grouped page is larger than 4 KiB.
    huge: bool,
    /// Whether this is a sub-page of a policy-split huge page.
    from_split: bool,
}

/// Groups DRAM samples by page. Pages in `split_pending` (this epoch's
/// queued splits) are grouped at 4 KiB granularity — placement decisions
/// must be made on their sub-pages. 4 KiB samples that fall inside a range
/// in `split_history` are marked `from_split` so placement acts on minimal
/// evidence; if khugepaged later re-collapses such a range, its samples
/// report 2 MiB again and are treated as a normal huge page.
fn group_pages(
    dram: &DramSamples,
    split_pending: &BTreeSet<u64>,
    split_history: &BTreeSet<u64>,
) -> Vec<PageGroup> {
    let mut pages = Vec::new();
    let key = |r: &Dram| {
        if split_pending.contains(&r.base) {
            r.sub
        } else {
            r.base
        }
    };
    dram.for_each_group(key, |page, group| {
        let last = latest(group);
        let pending = split_pending.contains(&last.base);
        pages.push(PageGroup {
            page,
            node: single_node(group).then_some(group[0].node),
            home: last.home,
            total: group.len() as u32,
            huge: !pending && last.size != vmem::PageSize::Size4K,
            from_split: pending
                || (last.size == vmem::PageSize::Size4K
                    && split_history.contains(&(last.sub & !((2u64 << 20) - 1)))),
        });
    });
    pages
}

/// The Carrefour page-placement policy.
///
/// Identical machinery serves as *Carrefour-4K* (run it in a simulation
/// whose THP switches are off) and *Carrefour-2M* (run it under THP): the
/// algorithm acts on whatever page granularity the samples report, exactly
/// like the kernel module did.
pub struct Carrefour {
    cfg: CarrefourConfig,
    rng: SmallRng,
    /// Pages already interleaved (don't re-randomize them every epoch).
    interleaved: PageSet,
    /// Sub-pages already placed on single-sample (post-split) evidence; one
    /// sample is enough to place a page once, but not to keep chasing it.
    placed_once: BTreeSet<u64>,
    /// Cross-epoch memory: the node a page was last migrated to on
    /// single-node evidence. A later single-node verdict naming a
    /// *different* node reveals the page as shared — interleave it instead
    /// of chasing every new sample (the kernel module keeps per-page state
    /// across intervals for the same reason).
    node_seen: BTreeMap<u64, u16>,
}

/// The RNG seed every default-constructed Carrefour uses. Exposed so
/// parameterized constructions ([`crate::CarrefourLp::with_params`]) can
/// reproduce the stock policy bit-for-bit when handed default tunables.
pub const DEFAULT_SEED: u64 = 0xCA44EF04;

impl Carrefour {
    /// Creates the policy with default thresholds.
    pub fn new() -> Self {
        Carrefour::with_config(CarrefourConfig::default(), DEFAULT_SEED)
    }

    /// Creates the policy with explicit thresholds and RNG seed.
    pub fn with_config(cfg: CarrefourConfig, seed: u64) -> Self {
        Carrefour {
            cfg,
            rng: SmallRng::seed_from_u64(seed),
            interleaved: PageSet::default(),
            placed_once: BTreeSet::new(),
            node_seen: BTreeMap::new(),
        }
    }

    /// Whether the enable heuristics fire on the epoch's counters: a
    /// memory-intensive epoch with a visible NUMA problem (low LAR or
    /// controller imbalance). Each test is recorded on `ctx`.
    pub fn engaged(&self, ctx: &mut EpochCtx<'_>) -> bool {
        let (cfg, counters) = (&self.cfg, ctx.counters);
        knob::test(
            ctx,
            Knob::IntensityMinDramPerOp,
            cfg.intensity_min_dram_per_op,
            counters.dram_per_op(),
        ) && (knob::test(
            ctx,
            Knob::LarEnableBelow,
            cfg.lar_enable_below,
            counters.lar(),
        ) || knob::test(
            ctx,
            Knob::ImbalanceEnableAbove,
            cfg.imbalance_enable_above,
            counters.imbalance(),
        ))
    }

    /// Pins the tunables that act other than through one recorded test:
    /// the per-page sample floor and the migration budget (for
    /// Carrefour-LP's recording; see [`crate::knob`]).
    pub(crate) fn pin_config(&self, ctx: &mut EpochCtx<'_>) {
        knob::pin(
            ctx,
            Knob::MinSamplesPerPage,
            knob::pinned(self.cfg.min_samples_per_page),
        );
        knob::pin(
            ctx,
            Knob::MaxMigrationsPerEpoch,
            knob::pinned(self.cfg.max_migrations_per_epoch),
        );
    }

    /// This configuration's value of a Carrefour knob, for Carrefour-LP's
    /// `decides_alike`; `None` for the policy kind and for Carrefour-LP's
    /// thresholds.
    pub(crate) fn knob(&self, k: Knob) -> Option<f64> {
        let cfg = &self.cfg;
        Some(match k {
            Knob::MinSamplesPerPage => knob::pinned(cfg.min_samples_per_page),
            Knob::MaxMigrationsPerEpoch => knob::pinned(cfg.max_migrations_per_epoch),
            Knob::LarEnableBelow => cfg.lar_enable_below,
            Knob::ImbalanceEnableAbove => cfg.imbalance_enable_above,
            Knob::IntensityMinDramPerOp => cfg.intensity_min_dram_per_op,
            _ => return None,
        })
    }

    /// One placement pass: migrate single-node pages to their accessor,
    /// interleave multi-node pages (once).
    ///
    /// `split_pending` holds large pages queued for splitting this epoch —
    /// their samples are treated at 4 KiB granularity. `exclude` holds
    /// pages another component already placed (hot-page interleaving).
    pub(crate) fn placement_pass(
        &mut self,
        ctx: &mut EpochCtx<'_>,
        dram: &DramSamples,
        split_pending: &BTreeSet<u64>,
        split_history: &BTreeSet<u64>,
        exclude: &BTreeSet<u64>,
    ) {
        let pages = group_pages(dram, split_pending, split_history);
        // Hottest pages first: the migration budget should go where the
        // traffic is.
        // Larger pages are costlier to move and more likely to be shared, so
        // they need proportionally more evidence before we act on them.
        let mut order: Vec<&PageGroup> = pages
            .iter()
            .filter(|info| {
                // Sub-pages of a deliberately split huge page are placed on
                // any evidence: splitting only pays if they move, and one
                // sample identifies a private sub-page's owner.
                let min = if info.from_split {
                    1
                } else if info.huge {
                    self.cfg.min_samples_per_page * 2
                } else {
                    self.cfg.min_samples_per_page
                };
                info.total as usize >= min && !exclude.contains(&info.page)
            })
            .collect();
        order.sort_by(|a, b| b.total.cmp(&a.total).then(a.page.cmp(&b.page)));

        let num_nodes = ctx.machine.num_nodes();
        let mut budget = self.cfg.max_migrations_per_epoch;
        for info in order {
            let page = info.page;
            if budget == 0 {
                break;
            }
            // Single-sample (post-split) evidence places a page only once;
            // a shared sub-page would otherwise chase every new sample.
            let weak = info.from_split && (info.total as usize) < self.cfg.min_samples_per_page;
            if weak && self.placed_once.contains(&page) {
                continue;
            }
            if let Some(node) = info.node {
                match self.node_seen.get(&page) {
                    // Conflicting single-node verdicts across epochs: the
                    // page is really shared; interleave it once.
                    Some(&prev) if prev != node => {
                        if !self.interleaved.contains(page) {
                            let target = self.random_node(num_nodes);
                            ctx.migrate(page, target);
                            self.interleaved.insert(page);
                            budget -= 1;
                        }
                    }
                    Some(_) => {} // stable verdict: already placed
                    None => {
                        if node != info.home {
                            ctx.migrate(page, NodeId(node));
                            self.interleaved.remove(page);
                            if weak {
                                self.placed_once.insert(page);
                            }
                            budget -= 1;
                        }
                        self.node_seen.insert(page, node);
                    }
                }
            } else if !self.interleaved.contains(page) {
                let target = self.random_node(num_nodes);
                ctx.migrate(page, target);
                self.interleaved.insert(page);
                budget -= 1;
            }
        }
    }

    /// Marks a page as interleaved (used by Carrefour-LP's hot-page path so
    /// the next pass does not fight its placement).
    pub(crate) fn mark_interleaved(&mut self, page: u64) {
        self.interleaved.insert(page);
    }

    /// Forgets all placement state about a page (called when Carrefour-LP
    /// splits it: the post-split — and post-recollapse — page is new).
    pub(crate) fn forget(&mut self, page: u64) {
        self.interleaved.remove(page);
        self.node_seen.remove(&page);
        self.placed_once.remove(&page);
    }

    /// Picks a random node (shared RNG so composition stays deterministic).
    pub(crate) fn random_node(&mut self, num_nodes: usize) -> NodeId {
        NodeId::from(self.rng.random_range(0..num_nodes))
    }

    /// The thresholds in use.
    pub fn config(&self) -> &CarrefourConfig {
        &self.cfg
    }

    /// Serializes the cross-epoch placement state for a `ckpt-v3`
    /// snapshot. `cfg` is constructor-provided and not serialized.
    pub(crate) fn save_into(&self, e: &mut codec::Enc) {
        for w in self.rng.state() {
            e.u64(w);
        }
        e.seq(self.interleaved.iter(), |e, p| e.u64(p));
        e.seq(self.placed_once.iter(), |e, &p| e.u64(p));
        e.seq(self.node_seen.iter(), |e, (&p, &n)| {
            e.u64(p);
            e.u16(n);
        });
    }

    /// Restores state captured by [`Carrefour::save_into`] onto a
    /// freshly-constructed instance with the same config.
    pub(crate) fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        let s = [d.u64(), d.u64(), d.u64(), d.u64()];
        self.rng = SmallRng::from_state(s);
        self.interleaved = d.seq(|d| d.u64()).into_iter().collect();
        self.placed_once = d.seq(|d| d.u64()).into_iter().collect();
        self.node_seen = d.seq(|d| (d.u64(), d.u16())).into_iter().collect();
    }
}

impl Default for Carrefour {
    fn default() -> Self {
        Carrefour::new()
    }
}

impl NumaPolicy for Carrefour {
    fn name(&self) -> &str {
        "carrefour"
    }

    fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
        if self.engaged(ctx) {
            let empty = BTreeSet::new();
            let dram = DramSamples::new(ctx.samples);
            self.placement_pass(ctx, &dram, &empty, &empty, &empty);
        }
    }

    fn save_state(&self) -> Vec<u8> {
        let mut e = codec::Enc::new();
        self.save_into(&mut e);
        e.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        let mut d = codec::Dec::new(bytes);
        self.load_from(&mut d);
        d.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::PolicyAction;
    use numa_topology::MachineSpec;
    use profiling::{EpochCounters, IbsSample};
    use vmem::{PageSize, ThpControls, VirtAddr};

    fn sample(vaddr: u64, accessing: u16, home: u16) -> IbsSample {
        IbsSample {
            vaddr: VirtAddr(vaddr),
            accessing_node: NodeId(accessing),
            thread: accessing,
            home_node: NodeId(home),
            from_dram: true,
            is_store: false,
            page_size: PageSize::Size4K,
            walk_remote_steps: 0,
        }
    }

    fn needy_counters() -> EpochCounters {
        EpochCounters {
            epoch_cycles: 1_000_000,
            dram_local: 100,
            dram_remote: 900, // LAR 0.1: clearly a NUMA problem
            mem_ops: 10_000,
            l2_misses: 1000,
            ..EpochCounters::default()
        }
    }

    fn run_pass(samples: &[IbsSample]) -> Vec<PolicyAction> {
        let machine = MachineSpec::machine_a();
        let counters = needy_counters();
        let mut ctx = EpochCtx::new(&machine, &counters, samples, ThpControls::thp(), 0);
        let mut c = Carrefour::new();
        c.on_epoch(&mut ctx);
        ctx.take_actions()
    }

    fn engaged(c: &Carrefour, counters: &EpochCounters) -> bool {
        let machine = MachineSpec::machine_a();
        let mut ctx = EpochCtx::new(&machine, counters, &[], ThpControls::thp(), 0);
        c.engaged(&mut ctx)
    }

    #[test]
    fn engages_on_low_lar_and_high_imbalance_only() {
        let c = Carrefour::new();
        assert!(engaged(&c, &needy_counters()));

        let healthy = EpochCounters {
            epoch_cycles: 1_000_000,
            dram_local: 950,
            dram_remote: 50,
            controller_requests: vec![250, 250, 250, 250],
            mem_ops: 10_000,
            ..EpochCounters::default()
        };
        assert!(!engaged(&c, &healthy));

        let idle = EpochCounters {
            epoch_cycles: 1_000_000,
            dram_local: 1,
            dram_remote: 5,
            mem_ops: 1_000_000, // not memory-intensive
            ..EpochCounters::default()
        };
        assert!(!engaged(&c, &idle));
    }

    #[test]
    fn single_node_remote_page_is_migrated_home() {
        let samples = vec![sample(0x1000, 2, 0), sample(0x1040, 2, 0)];
        let actions = run_pass(&samples);
        assert_eq!(actions, vec![PolicyAction::Migrate(0x1000, NodeId(2))]);
    }

    #[test]
    fn local_single_node_page_is_left_alone() {
        let samples = vec![sample(0x1000, 2, 2), sample(0x1040, 2, 2)];
        assert!(run_pass(&samples).is_empty());
    }

    #[test]
    fn shared_page_is_interleaved_once() {
        let samples = vec![sample(0x1000, 0, 0), sample(0x1040, 1, 0)];
        let machine = MachineSpec::machine_a();
        let counters = needy_counters();
        let mut c = Carrefour::new();

        let mut ctx = EpochCtx::new(&machine, &counters, &samples, ThpControls::thp(), 0);
        c.on_epoch(&mut ctx);
        let first = ctx.take_actions();
        assert_eq!(first.len(), 1);
        assert!(matches!(first[0], PolicyAction::Migrate(0x1000, _)));

        // Same samples next epoch: already interleaved, no churn.
        let mut ctx = EpochCtx::new(&machine, &counters, &samples, ThpControls::thp(), 1);
        c.on_epoch(&mut ctx);
        assert!(ctx.take_actions().is_empty());
    }

    #[test]
    fn under_sampled_pages_are_ignored() {
        let samples = vec![sample(0x1000, 2, 0)]; // 1 sample < min 2
        assert!(run_pass(&samples).is_empty());
    }

    #[test]
    fn cached_samples_are_ignored() {
        let mut s = sample(0x1000, 2, 0);
        s.from_dram = false;
        let samples = vec![s, s];
        assert!(run_pass(&samples).is_empty());
    }

    #[test]
    fn budget_limits_migrations() {
        let cfg = CarrefourConfig {
            max_migrations_per_epoch: 3,
            ..CarrefourConfig::default()
        };
        let mut c = Carrefour::with_config(cfg, 1);
        let machine = MachineSpec::machine_a();
        let counters = needy_counters();
        let samples: Vec<_> = (0..20u64)
            .flat_map(|p| vec![sample(p * 4096, 2, 0), sample(p * 4096 + 64, 2, 0)])
            .collect();
        let mut ctx = EpochCtx::new(&machine, &counters, &samples, ThpControls::thp(), 0);
        c.on_epoch(&mut ctx);
        assert_eq!(ctx.take_actions().len(), 3);
    }

    #[test]
    fn huge_pages_group_at_their_own_granularity() {
        // Two samples in the same 2 MiB page from different nodes, at
        // different 4 KiB offsets: one interleave of the huge page.
        let mk = |off: u64, node: u16| IbsSample {
            vaddr: VirtAddr(0x20_0000 + off),
            accessing_node: NodeId(node),
            thread: node,
            home_node: NodeId(0),
            from_dram: true,
            is_store: false,
            page_size: PageSize::Size2M,
            walk_remote_steps: 0,
        };
        // Huge pages need twice the small-page evidence (4 samples).
        let samples = vec![mk(0x1000, 0), mk(0x5000, 1), mk(0x9000, 0), mk(0xd000, 1)];
        let actions = run_pass(&samples);
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], PolicyAction::Migrate(0x20_0000, _)));
        // Two samples are not enough for a huge page.
        let thin = vec![mk(0x1000, 0), mk(0x5000, 1)];
        assert!(run_pass(&thin).is_empty());
    }

    /// One page's evidence as the map-based predecessor of
    /// [`group_pages`] built it: the oracle.
    #[derive(Default)]
    struct MapInfo {
        nodes: BTreeMap<u16, u32>,
        home: u16,
        total: u32,
        huge: bool,
        from_split: bool,
    }

    fn group_pages_by_maps(
        samples: &[IbsSample],
        split_pending: &BTreeSet<u64>,
        split_history: &BTreeSet<u64>,
    ) -> BTreeMap<u64, MapInfo> {
        let mut pages: BTreeMap<u64, MapInfo> = BTreeMap::new();
        for s in samples.iter().filter(|s| s.from_dram) {
            let pending = split_pending.contains(&s.page_base());
            let key = if pending { s.page_4k() } else { s.page_base() };
            let from_split = pending
                || (s.page_size == PageSize::Size4K
                    && split_history.contains(&(s.page_4k() & !((2u64 << 20) - 1))));
            let info = pages.entry(key).or_default();
            *info.nodes.entry(s.accessing_node.0).or_insert(0) += 1;
            info.home = s.home_node.0;
            info.total += 1;
            info.huge = !pending && s.page_size != PageSize::Size4K;
            info.from_split = from_split;
        }
        pages
    }

    proptest::proptest! {
        /// The sorted grouping equals the map-based one for random queued
        /// splits and split histories: same pages in the same order, same
        /// counts, single-node verdicts, latest home, size and split flags.
        #[test]
        fn sorted_groups_equal_the_map_oracle(
            seed in 0u64..=u64::MAX,
            n in 0usize..400,
            mixed in [false, true].as_slice(),
            pending_mask in 0u64..=u64::MAX,
            history_mask in 0u64..=u64::MAX,
        ) {
            let samples = crate::dram::tests::random_samples(seed, n, 4, mixed);
            // The 2 MiB and 1 GiB bases the samples can fall in, half of
            // them (by mask bit) queued or split before.
            let bases: Vec<u64> = (0..4u64)
                .flat_map(|r| (0..8u64).map(move |p| (r << 30) + (p << 21)))
                .collect();
            let pick = |mask: u64| -> BTreeSet<u64> {
                bases
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask >> (i % 64) & 1 == 1)
                    .map(|(_, &b)| b)
                    .collect()
            };
            let (pending, history) = (pick(pending_mask), pick(history_mask));
            let got = group_pages(&DramSamples::new(&samples), &pending, &history);
            let want = group_pages_by_maps(&samples, &pending, &history);
            proptest::prop_assert_eq!(got.len(), want.len());
            for (g, (&page, m)) in got.iter().zip(&want) {
                proptest::prop_assert_eq!(g.page, page);
                proptest::prop_assert_eq!(g.total, m.total);
                let single = (m.nodes.len() == 1).then(|| *m.nodes.keys().next().unwrap());
                proptest::prop_assert_eq!(g.node, single);
                proptest::prop_assert_eq!(g.home, m.home);
                proptest::prop_assert_eq!(g.huge, m.huge);
                proptest::prop_assert_eq!(g.from_split, m.from_split);
            }
        }
    }

    #[test]
    fn split_pending_forces_4k_granularity() {
        let mk = |off: u64, node: u16| IbsSample {
            vaddr: VirtAddr(0x20_0000 + off),
            accessing_node: NodeId(node),
            thread: node,
            home_node: NodeId(0),
            from_dram: true,
            is_store: false,
            page_size: PageSize::Size2M,
            walk_remote_steps: 0,
        };
        // Sub-page 0x20_1000 is private to node 1; sub-page 0x20_5000 to
        // node 2: after the split they should be migrated individually.
        let samples = vec![mk(0x1000, 1), mk(0x1040, 1), mk(0x5000, 2), mk(0x5040, 2)];
        let machine = MachineSpec::machine_a();
        let counters = needy_counters();
        let mut ctx = EpochCtx::new(&machine, &counters, &samples, ThpControls::thp(), 0);
        let mut c = Carrefour::new();
        let pending: BTreeSet<u64> = [0x20_0000u64].into();
        let dram = DramSamples::new(&samples);
        c.placement_pass(
            &mut ctx,
            &dram,
            &pending,
            &BTreeSet::new(),
            &BTreeSet::new(),
        );
        let actions = ctx.take_actions();
        assert_eq!(
            actions,
            vec![
                PolicyAction::Migrate(0x20_1000, NodeId(1)),
                PolicyAction::Migrate(0x20_5000, NodeId(2)),
            ]
        );
    }
}
