//! Carrefour-LP: Algorithm 1 of the paper.

use crate::classic::Carrefour;
use crate::config::{CarrefourConfig, LpParams, LpThresholds};
use crate::dram::{distinct_nodes, earliest, single_node, Dram, DramSamples};
use crate::knob::{self, Knob};
use crate::lar;
use engine::{Comparison, EpochCtx, NumaPolicy, PolicyAction, PolicyDecision};
use std::collections::BTreeSet;
use vmem::PageSize;

/// Which Algorithm 1 components are active (Figure 4's ablation axes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Components {
    conservative: bool,
    reactive: bool,
}

/// The large-page extension of Carrefour (Algorithm 1).
///
/// Per epoch:
///
/// 1. **Conservative** (lines 4–9): re-enable 2 MiB allocation (and
///    promotion) when walk misses or page-fault time show large pages
///    would pay off.
/// 2. **Reactive** (lines 10–18): estimate the LAR Carrefour could reach
///    with and without splitting; when only splitting helps, split every
///    shared 2 MiB page and disable 2 MiB allocation.
/// 3. **Hot pages** (line 19): split pages hotter than 6 % of sampled
///    traffic and interleave their sub-pages.
/// 4. **Carrefour** (line 20): the baseline migrate/interleave pass.
pub struct CarrefourLp {
    carrefour: Carrefour,
    thresholds: LpThresholds,
    components: Components,
    /// Algorithm 1's sticky `SPLIT_PAGES` flag.
    split_pages: bool,
    /// Every 2 MiB base this policy has ever split. A page is split at most
    /// once: if the conservative component later re-enables promotion and
    /// khugepaged re-collapses it (onto its majority node — i.e. placed),
    /// re-splitting it would only start an oscillation.
    split_history: std::collections::BTreeSet<u64>,
    name: &'static str,
}

impl CarrefourLp {
    /// Splits a huge page and scatters its sub-pages across the nodes (one
    /// batched kernel operation); private sub-pages are re-localized later
    /// when samples identify their owners.
    fn split_and_scatter(&mut self, ctx: &mut EpochCtx<'_>, base: u64) {
        ctx.split_scatter(base);
        for i in 0..512u64 {
            self.carrefour.mark_interleaved(base + i * 4096);
        }
    }

    /// Full Carrefour-LP (both components).
    pub fn new() -> Self {
        CarrefourLp {
            carrefour: Carrefour::new(),
            thresholds: LpThresholds::default(),
            components: Components {
                conservative: true,
                reactive: true,
            },
            split_pages: false,
            split_history: std::collections::BTreeSet::new(),
            name: "carrefour-lp",
        }
    }

    /// The reactive-only ablation of Figure 4 (run it with THP initially
    /// enabled, like the paper).
    pub fn reactive_only() -> Self {
        CarrefourLp {
            components: Components {
                conservative: false,
                reactive: true,
            },
            name: "reactive",
            ..CarrefourLp::new()
        }
    }

    /// The conservative-only ablation of Figure 4 (run it with THP
    /// initially *disabled*: it is the original 4 KiB Carrefour plus the
    /// component that turns large pages on when they would help).
    pub fn conservative_only() -> Self {
        CarrefourLp {
            components: Components {
                conservative: true,
                reactive: false,
            },
            name: "conservative",
            ..CarrefourLp::new()
        }
    }

    /// Overrides the Algorithm 1 thresholds (ablation benches).
    pub fn with_thresholds(mut self, thresholds: LpThresholds) -> Self {
        self.thresholds = thresholds;
        self
    }

    /// Full Carrefour-LP under one [`LpParams`] coordinate — the sweep's
    /// constructor. `LpParams::default()` reproduces [`CarrefourLp::new`]
    /// exactly (same thresholds, same embedded-Carrefour seed), so a
    /// default-parameterized cell is bit-identical to the stock policy.
    pub fn with_params(params: LpParams) -> Self {
        CarrefourLp::new()
            .with_thresholds(params.thresholds)
            .with_carrefour(params.carrefour, crate::classic::DEFAULT_SEED)
    }

    /// Renames the policy (the tuned preset reports itself distinctly in
    /// traces and experiment output).
    pub fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Overrides the embedded Carrefour configuration and seed.
    pub fn with_carrefour(mut self, cfg: CarrefourConfig, seed: u64) -> Self {
        self.carrefour = Carrefour::with_config(cfg, seed);
        self
    }

    /// Current value of the sticky `SPLIT_PAGES` flag (for tests).
    pub fn split_flag(&self) -> bool {
        self.split_pages
    }

    /// The [`Knob::Policy`] pin: which components run.
    fn kind(&self) -> usize {
        1 + usize::from(self.components.conservative) + 2 * usize::from(self.components.reactive)
    }

    /// The effective 2 MiB-allocation switch after this epoch's queued
    /// toggles are applied on top of the current state.
    fn effective_alloc_2m(ctx: &EpochCtx<'_>) -> bool {
        let mut on = ctx.thp.alloc_2m;
        for a in ctx.queued() {
            if let PolicyAction::SetThpAlloc(b) = a {
                on = *b;
            }
        }
        on
    }
}

impl Default for CarrefourLp {
    fn default() -> Self {
        CarrefourLp::new()
    }
}

/// One page at its current mapped granularity, from one epoch's DRAM
/// samples.
struct LargePageView<'d> {
    base: u64,
    size: PageSize,
    count: u32,
    /// The page's samples, in 4 KiB-page order.
    samples: &'d [Dram],
}

/// Groups one epoch's DRAM samples by page at current mapped granularity,
/// in ascending base order.
fn group_large_pages(dram: &DramSamples) -> Vec<LargePageView<'_>> {
    dram.pages()
        .map(|samples| LargePageView {
            base: samples[0].base,
            size: earliest(samples).size,
            count: samples.len() as u32,
            samples,
        })
        .collect()
}

impl NumaPolicy for CarrefourLp {
    fn name(&self) -> &str {
        self.name
    }

    fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
        let t = self.thresholds;
        knob::pin(ctx, Knob::Policy, knob::pinned(self.kind()));
        self.carrefour.pin_config(ctx);
        let samples = ctx.samples;
        let mut dram: Option<DramSamples> = None;

        // --- Conservative component (Algorithm 1, lines 4–9). ---
        if self.components.conservative {
            let walk_miss_fraction = ctx.counters.walk_miss_fraction();
            let max_fault_fraction = ctx.counters.max_fault_fraction();
            if knob::test(
                ctx,
                Knob::WalkMissEnable,
                t.walk_miss_enable,
                walk_miss_fraction,
            ) {
                ctx.set_thp_alloc(true);
                ctx.set_thp_promote(true);
                ctx.note(|| PolicyDecision::EnableThp {
                    walk_miss_fraction,
                    max_fault_fraction,
                    promote: true,
                });
            } else if knob::test(
                ctx,
                Knob::FaultTimeEnable,
                t.fault_time_enable,
                max_fault_fraction,
            ) {
                // Allocation only: pages that already faulted cheaply have
                // nothing to gain from promotion.
                ctx.set_thp_alloc(true);
                ctx.note(|| PolicyDecision::EnableThp {
                    walk_miss_fraction,
                    max_fault_fraction,
                    promote: false,
                });
            }
        }

        let mut split_pending: BTreeSet<u64> = BTreeSet::new();
        let mut hot_excluded: BTreeSet<u64> = BTreeSet::new();

        // --- Reactive component (lines 10–18). ---
        if self.components.reactive {
            let dram = dram.insert(DramSamples::new(samples));
            let est = lar::estimate_sorted(dram, ctx.machine.num_nodes());
            if est.dram_samples > 0 {
                let was = self.split_pages;
                if knob::test(
                    ctx,
                    Knob::CarrefourGainPp,
                    t.carrefour_gain_pp,
                    est.carrefour_gain_pp(),
                ) {
                    self.split_pages = false;
                } else if knob::test(ctx, Knob::SplitGainPp, t.split_gain_pp, est.split_gain_pp()) {
                    self.split_pages = true;
                }
                if self.split_pages != was {
                    let on = self.split_pages;
                    ctx.note(|| PolicyDecision::SplitFlag {
                        on,
                        carrefour_gain_pp: est.carrefour_gain_pp(),
                        split_gain_pp: est.split_gain_pp(),
                    });
                }
            }

            let pages = group_large_pages(dram);
            let total: u32 = pages.iter().map(|p| p.count).sum();

            if self.split_pages || !Self::effective_alloc_2m(ctx) {
                // Line 16: split all *shared* large pages (each at most
                // once — see `split_history`).
                for view in &pages {
                    let base = view.base;
                    if view.size != PageSize::Size4K
                        && !single_node(view.samples)
                        && !self.split_history.contains(&base)
                    {
                        split_pending.insert(base);
                        self.split_history.insert(base);
                        self.carrefour.forget(base);
                        self.split_and_scatter(ctx, base);
                        let sharers = distinct_nodes(view.samples);
                        ctx.note(|| PolicyDecision::SplitShared { base, sharers });
                    }
                }
                // Line 17: stop creating new large pages.
                ctx.set_thp_alloc(false);
                ctx.set_thp_promote(false);
            }

            // Line 19: split and interleave hot large pages. Hot pages only
            // hurt through the imbalance they cause (they cannot be
            // rebalanced by migration), so the pass engages when the
            // controllers actually are imbalanced — otherwise a workload
            // with few sampled pages would see every page as "hot" and
            // needlessly lose its large pages.
            let cfg = *self.carrefour.config();
            let imbalanced = knob::test(
                ctx,
                Knob::ImbalanceEnableAbove,
                cfg.imbalance_enable_above,
                ctx.counters.imbalance(),
            );
            let min_hot_samples = (cfg.min_samples_per_page * 4) as u32;
            // The hot test is monotone in a page's count, so the coldest
            // hot page and the hottest cold one record all of its outcomes.
            let (mut coldest_hot, mut hottest_cold) = (None::<u32>, None::<u32>);
            for view in &pages {
                if imbalanced && view.size != PageSize::Size4K && view.count >= min_hot_samples {
                    let hot = Knob::HotPageFraction.holds(
                        t.hot_page_fraction,
                        f64::from(view.count),
                        f64::from(total),
                    );
                    if !hot {
                        hottest_cold = hottest_cold.max(Some(view.count));
                        continue;
                    }
                    coldest_hot = Some(coldest_hot.map_or(view.count, |c| c.min(view.count)));
                    let base = view.base;
                    if !split_pending.contains(&base) && !self.split_history.contains(&base) {
                        split_pending.insert(base);
                        self.split_history.insert(base);
                        self.carrefour.forget(base);
                        self.split_and_scatter(ctx, base);
                        let (samples, imbalance) = (view.count, ctx.counters.imbalance());
                        ctx.note(|| PolicyDecision::SplitHot {
                            base,
                            samples,
                            total,
                            imbalance,
                        });
                    }
                    for r in view.samples {
                        hot_excluded.insert(r.sub);
                    }
                    // The huge page itself must not be re-placed wholesale.
                    hot_excluded.insert(base);
                }
            }
            for (count, outcome) in [(coldest_hot, true), (hottest_cold, false)] {
                if let Some(count) = count {
                    let (count, total) = (f64::from(count), f64::from(total));
                    knob::record(ctx, Knob::HotPageFraction, count, total, outcome);
                }
            }
        }

        // --- Line 20: interleave and migrate with Carrefour. ---
        if self.carrefour.engaged(ctx) {
            let dram = dram.get_or_insert_with(|| DramSamples::new(samples));
            self.carrefour.placement_pass(
                ctx,
                dram,
                &split_pending,
                &self.split_history,
                &hot_excluded,
            );
        }
    }

    fn decides_alike(&self, compared: &[Comparison]) -> bool {
        let t = &self.thresholds;
        knob::reproduces(compared, |k| match k {
            Knob::Policy => Some(knob::pinned(self.kind())),
            Knob::WalkMissEnable => Some(t.walk_miss_enable),
            Knob::FaultTimeEnable => Some(t.fault_time_enable),
            Knob::CarrefourGainPp => Some(t.carrefour_gain_pp),
            Knob::SplitGainPp => Some(t.split_gain_pp),
            Knob::HotPageFraction => Some(t.hot_page_fraction),
            _ => self.carrefour.knob(k),
        })
    }

    fn save_state(&self) -> Vec<u8> {
        let mut e = codec::Enc::new();
        self.carrefour.save_into(&mut e);
        e.bool(self.split_pages);
        e.seq(self.split_history.iter(), |e, &p| e.u64(p));
        e.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        let mut d = codec::Dec::new(bytes);
        self.carrefour.load_from(&mut d);
        self.split_pages = d.bool();
        self.split_history = d.seq(|d| d.u64()).into_iter().collect();
        d.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::{MachineSpec, NodeId};
    use profiling::{CoreFaultTime, EpochCounters, IbsSample};
    use vmem::{ThpControls, VirtAddr};

    fn sample(vaddr: u64, accessing: u16, home: u16, size: PageSize) -> IbsSample {
        IbsSample {
            vaddr: VirtAddr(vaddr),
            accessing_node: NodeId(accessing),
            thread: accessing,
            home_node: NodeId(home),
            from_dram: true,
            is_store: false,
            page_size: size,
            walk_remote_steps: 0,
        }
    }

    fn quiet_counters() -> EpochCounters {
        EpochCounters {
            epoch_cycles: 1_000_000,
            l2_misses: 1000,
            l2_walk_misses: 0,
            dram_local: 900,
            dram_remote: 100,
            mem_ops: 10_000,
            ..EpochCounters::default()
        }
    }

    fn ctx_with<'a>(
        machine: &'a MachineSpec,
        counters: &'a EpochCounters,
        samples: &'a [IbsSample],
        thp: ThpControls,
    ) -> EpochCtx<'a> {
        EpochCtx::new(machine, counters, samples, thp, 0)
    }

    #[test]
    fn conservative_enables_thp_on_walk_misses() {
        let machine = MachineSpec::machine_a();
        let mut counters = quiet_counters();
        counters.l2_walk_misses = 200; // 20 % of misses
        let mut ctx = ctx_with(&machine, &counters, &[], ThpControls::small_only());
        CarrefourLp::conservative_only().on_epoch(&mut ctx);
        let actions = ctx.take_actions();
        assert!(actions.contains(&PolicyAction::SetThpAlloc(true)));
        assert!(actions.contains(&PolicyAction::SetThpPromote(true)));
    }

    #[test]
    fn conservative_enables_alloc_only_on_fault_time() {
        let machine = MachineSpec::machine_a();
        let mut counters = quiet_counters();
        counters.fault_time = vec![CoreFaultTime {
            fault_cycles: 100_000, // 10 % of the epoch
        }];
        let mut ctx = ctx_with(&machine, &counters, &[], ThpControls::small_only());
        CarrefourLp::conservative_only().on_epoch(&mut ctx);
        let actions = ctx.take_actions();
        assert!(actions.contains(&PolicyAction::SetThpAlloc(true)));
        assert!(!actions.contains(&PolicyAction::SetThpPromote(true)));
    }

    #[test]
    fn conservative_stays_quiet_below_thresholds() {
        let machine = MachineSpec::machine_a();
        let counters = quiet_counters();
        let mut ctx = ctx_with(&machine, &counters, &[], ThpControls::small_only());
        CarrefourLp::conservative_only().on_epoch(&mut ctx);
        assert!(ctx.take_actions().is_empty());
    }

    /// UA-shaped samples: a huge page whose sub-pages are private per node.
    fn falsely_shared_samples() -> Vec<IbsSample> {
        let mut s = Vec::new();
        for i in 0..8u64 {
            let node = (i % 4) as u16;
            for k in 0..4 {
                s.push(sample(
                    0x20_0000 + i * 4096 + k * 64,
                    node,
                    0,
                    PageSize::Size2M,
                ));
            }
        }
        s
    }

    #[test]
    fn reactive_splits_falsely_shared_pages_and_disables_thp() {
        let machine = MachineSpec::machine_a();
        // Low LAR so Carrefour engages; shared page means carrefour-only
        // gain is small but split gain is ~75 pp.
        let mut counters = quiet_counters();
        counters.dram_local = 100;
        counters.dram_remote = 900;
        let samples = falsely_shared_samples();
        let mut lp = CarrefourLp::reactive_only();
        let mut ctx = ctx_with(&machine, &counters, &samples, ThpControls::thp());
        lp.on_epoch(&mut ctx);
        assert!(lp.split_flag());
        let actions = ctx.take_actions();
        // Shared pages are split-and-scattered in one batched operation.
        assert!(actions.contains(&PolicyAction::SplitScatter(0x20_0000)));
        assert!(actions.contains(&PolicyAction::SetThpAlloc(false)));
    }

    #[test]
    fn reactive_prefers_migration_when_it_suffices() {
        // Single-node remote pages: Carrefour alone predicts +90 pp, so
        // SPLIT_PAGES stays false and no Split is issued.
        let machine = MachineSpec::machine_a();
        let mut counters = quiet_counters();
        counters.dram_local = 100;
        counters.dram_remote = 900;
        let mut samples = Vec::new();
        for p in 0..4u64 {
            for k in 0..4 {
                samples.push(sample(
                    (0x20_0000 * (p + 1)) + k * 64,
                    1,
                    0,
                    PageSize::Size2M,
                ));
            }
        }
        let mut lp = CarrefourLp::reactive_only();
        let mut ctx = ctx_with(&machine, &counters, &samples, ThpControls::thp());
        lp.on_epoch(&mut ctx);
        assert!(!lp.split_flag());
        let actions = ctx.take_actions();
        assert!(!actions.iter().any(|a| matches!(a, PolicyAction::Split(_))));
        assert!(actions
            .iter()
            .any(|a| matches!(a, PolicyAction::Migrate(_, NodeId(1)))));
    }

    #[test]
    fn hot_pages_are_split_and_interleaved() {
        // One page with 90 % of the samples: hot. CG's profile.
        let machine = MachineSpec::machine_b();
        let mut counters = quiet_counters();
        counters.dram_local = 500;
        counters.dram_remote = 500;
        counters.controller_requests = vec![800, 10, 10, 10, 10, 10, 10, 10];
        let mut samples = Vec::new();
        for k in 0..36u64 {
            samples.push(sample(
                0x20_0000 + (k % 6) * 4096,
                (k % 4) as u16,
                0,
                PageSize::Size2M,
            ));
        }
        for k in 0..4u64 {
            samples.push(sample(0x80_0000 + k * 64, 0, 0, PageSize::Size2M));
        }
        let mut lp = CarrefourLp::new();
        let mut ctx = ctx_with(&machine, &counters, &samples, ThpControls::thp());
        lp.on_epoch(&mut ctx);
        let actions = ctx.take_actions();
        // The hot page is split and scattered in one batched operation.
        assert!(actions.contains(&PolicyAction::SplitScatter(0x20_0000)));
    }

    #[test]
    fn full_lp_can_reenable_thp_after_splitting() {
        // Epoch 1: splitting was engaged. Epoch 2: heavy walk misses.
        // The conservative component must re-enable THP.
        let machine = MachineSpec::machine_a();
        let mut lp = CarrefourLp::new();
        lp.split_pages = true;

        let mut counters = quiet_counters();
        counters.l2_walk_misses = 300;
        // Carrefour-only gain is large (single-node remote pages), so the
        // reactive component clears SPLIT_PAGES.
        let mut samples = Vec::new();
        for p in 0..4u64 {
            for k in 0..4 {
                samples.push(sample(
                    (0x20_0000 * (p + 1)) + k * 64,
                    1,
                    0,
                    PageSize::Size4K,
                ));
            }
        }
        counters.dram_local = 100;
        counters.dram_remote = 900;
        let mut ctx = ctx_with(&machine, &counters, &samples, ThpControls::small_only());
        lp.on_epoch(&mut ctx);
        let actions = ctx.take_actions();
        assert!(actions.contains(&PolicyAction::SetThpAlloc(true)));
        assert!(actions.contains(&PolicyAction::SetThpPromote(true)));
        assert!(!lp.split_flag());
        // No splitting got queued: alloc was re-enabled this very epoch.
        assert!(!actions.iter().any(|a| matches!(a, PolicyAction::Split(_))));
    }

    /// The per-page view as the map-based predecessor of
    /// [`group_large_pages`] built it: the oracle.
    struct MapView {
        size: PageSize,
        nodes: BTreeSet<u16>,
        count: u32,
        subpages: BTreeSet<u64>,
    }

    fn group_large_pages_by_maps(
        samples: &[IbsSample],
    ) -> std::collections::BTreeMap<u64, MapView> {
        let mut pages = std::collections::BTreeMap::new();
        for s in samples.iter().filter(|s| s.from_dram) {
            let entry = pages.entry(s.page_base()).or_insert_with(|| MapView {
                size: s.page_size,
                nodes: BTreeSet::new(),
                count: 0,
                subpages: BTreeSet::new(),
            });
            entry.nodes.insert(s.accessing_node.0);
            entry.count += 1;
            entry.subpages.insert(s.page_4k());
        }
        pages
    }

    proptest::proptest! {
        /// The sorted large-page view equals the map-based one: same pages
        /// in the same order, sizes, counts, sharers and sub-pages.
        #[test]
        fn sorted_large_pages_equal_the_map_oracle(
            seed in 0u64..=u64::MAX,
            n in 0usize..400,
            mixed in [false, true].as_slice(),
        ) {
            let samples = crate::dram::tests::random_samples(seed, n, 4, mixed);
            let dram = DramSamples::new(&samples);
            let got = group_large_pages(&dram);
            let want = group_large_pages_by_maps(&samples);
            proptest::prop_assert_eq!(got.len(), want.len());
            for (view, (&base, m)) in got.iter().zip(&want) {
                proptest::prop_assert_eq!(view.base, base);
                proptest::prop_assert_eq!(view.size, m.size);
                proptest::prop_assert_eq!(view.count, m.count);
                proptest::prop_assert_eq!(distinct_nodes(view.samples), m.nodes.len());
                proptest::prop_assert_eq!(!single_node(view.samples), m.nodes.len() >= 2);
                let subs: BTreeSet<u64> = view.samples.iter().map(|r| r.sub).collect();
                proptest::prop_assert_eq!(&subs, &m.subpages);
            }
        }
    }

    #[test]
    fn names_distinguish_the_ablations() {
        assert_eq!(CarrefourLp::new().name(), "carrefour-lp");
        assert_eq!(CarrefourLp::reactive_only().name(), "reactive");
        assert_eq!(CarrefourLp::conservative_only().name(), "conservative");
    }

    #[test]
    fn save_restore_preserves_split_and_rng_state() {
        use engine::NumaPolicy as _;
        let machine = MachineSpec::machine_a();
        let mut counters = quiet_counters();
        counters.dram_local = 100;
        counters.dram_remote = 900;
        let samples = falsely_shared_samples();

        // Epochs 0 and 1: split-and-scatter fires (split history,
        // interleave sets, RNG draws).
        let mut lp = CarrefourLp::new();
        for epoch in 0..2u32 {
            let mut ctx = ctx_with(&machine, &counters, &samples, ThpControls::thp());
            ctx.epoch_index = epoch;
            lp.on_epoch(&mut ctx);
        }

        // Snapshot mid-scenario, restore onto a fresh instance, and drive
        // both through identical further epochs: every queued action
        // (RNG-chosen interleave targets included) must match.
        let bytes = lp.save_state();
        let mut restored = CarrefourLp::new();
        restored.restore_state(&bytes);
        assert_eq!(restored.split_flag(), lp.split_flag());
        for epoch in 2..6u32 {
            let mut ctx_a = ctx_with(&machine, &counters, &samples, ThpControls::thp());
            ctx_a.epoch_index = epoch;
            lp.on_epoch(&mut ctx_a);
            let mut ctx_b = ctx_with(&machine, &counters, &samples, ThpControls::thp());
            ctx_b.epoch_index = epoch;
            restored.on_epoch(&mut ctx_b);
            assert_eq!(
                ctx_a.queued(),
                ctx_b.queued(),
                "restored policy diverged at epoch {epoch}"
            );
        }
    }

    #[test]
    fn save_restore_keeps_custom_params_and_name() {
        // The fork tree restores checkpoints into `with_params` instances
        // (DESIGN.md §15): thresholds are *configuration*, not state, so a
        // roundtrip must neither serialize nor clobber them — a restored
        // tuned policy keeps making tuned decisions, under its own name.
        use engine::NumaPolicy as _;
        let machine = MachineSpec::machine_a();
        let mut counters = quiet_counters();
        counters.dram_local = 100;
        counters.dram_remote = 900;
        let samples = falsely_shared_samples();
        let params = crate::LpParams::tuned();
        let mut lp = CarrefourLp::with_params(params).named("carrefour-lp-tuned");
        let mut ctx = ctx_with(&machine, &counters, &samples, ThpControls::thp());
        lp.on_epoch(&mut ctx);
        let bytes = lp.save_state();

        let mut restored = CarrefourLp::with_params(params).named("carrefour-lp-tuned");
        restored.restore_state(&bytes);
        assert_eq!(restored.name(), "carrefour-lp-tuned");
        for epoch in 1..4u32 {
            let mut ctx_a = ctx_with(&machine, &counters, &samples, ThpControls::thp());
            ctx_a.epoch_index = epoch;
            lp.on_epoch(&mut ctx_a);
            let mut ctx_b = ctx_with(&machine, &counters, &samples, ThpControls::thp());
            ctx_b.epoch_index = epoch;
            restored.on_epoch(&mut ctx_b);
            assert_eq!(
                ctx_a.queued(),
                ctx_b.queued(),
                "restored tuned policy diverged at epoch {epoch}"
            );
        }
    }
}
