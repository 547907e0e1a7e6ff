//! Conservation tests of the cycle-attribution ledger.
//!
//! The ledger (`SimResult.attribution`, DESIGN.md §11) claims that every
//! simulated wall cycle is charged to exactly one architectural bucket:
//! `total.total() == runtime_cycles`, exactly, as integers — no float
//! accumulation, no "other" bucket, no slack. These tests enforce that
//! claim across workload patterns, THP settings, an action-heavy policy,
//! and — via proptest — with a full node, where failed migrations book no
//! policy cost mid-run.

use engine::{EpochCtx, NullPolicy, NumaPolicy, RunOptions, SimConfig, SimResult, Simulation};
use numa_topology::{MachineSpec, NodeId};
use proptest::prelude::*;
use vmem::{AddressSpace, PageSize, ThpControls};
use workloads::{AccessPattern, RegionSpec, WorkloadSpec};

const BASE: u64 = 64 << 30;

fn small_spec(machine: &MachineSpec, mib: u64, pattern: AccessPattern) -> WorkloadSpec {
    WorkloadSpec {
        name: "attrib".into(),
        threads: machine.total_cores(),
        regions: vec![RegionSpec {
            base: BASE,
            bytes: mib << 20,
            share: 1.0,
            pattern,
            alloc_skew: 0.0,
            loader_headers: 0.0,
            rw_shared: false,
            read_only: false,
        }],
        ops_per_round: 300,
        compute_rounds: 8,
        think_cycles_per_op: 10,
        write_fraction: 0.3,
        phases: Vec::new(),
        mlp: 1,
    }
}

/// An action-heavy policy so the policy-overhead buckets are exercised.
struct Churn;

impl NumaPolicy for Churn {
    fn name(&self) -> &str {
        "churn"
    }
    fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
        let mut split_one = false;
        for s in ctx.samples {
            let base = s.page_base();
            if s.page_size != PageSize::Size4K && !split_one {
                ctx.split_scatter(base);
                split_one = true;
            } else {
                let target = NodeId((s.accessing_node.0 + 1) % ctx.machine.num_nodes() as u16);
                ctx.migrate(base, target);
            }
        }
    }
}

/// An attributed run.
fn run_attributed(
    thp: ThpControls,
    pattern: AccessPattern,
    policy: &mut dyn NumaPolicy,
) -> SimResult {
    let machine = MachineSpec::test_machine();
    let spec = small_spec(&machine, 4, pattern);
    let mut config = SimConfig::for_machine(&machine, thp);
    config.attribution = true;
    Simulation::run(&machine, &spec, &config, policy)
}

/// Asserts every conservation property the ledger promises, at every
/// granularity it reports.
fn assert_conserved(r: &SimResult, threads: usize) {
    let ledger = r.attribution.as_ref().expect("attribution was on");
    // Whole run: buckets sum to the runtime, exactly.
    assert!(
        ledger.conserves(r.runtime_cycles),
        "ledger does not conserve: buckets sum to {}, runtime is {} (diff {})",
        ledger.total.total(),
        r.runtime_cycles,
        ledger.total.total() as i128 - r.runtime_cycles as i128
    );
    // Per epoch: the wall breakdown must reproduce the epoch's wall
    // cycles. `counters.epoch_cycles` is captured before the overhead
    // share lands, so the identity includes the flooring the engine
    // itself applies.
    assert_eq!(ledger.epochs.len(), r.epochs.len());
    for (a, rec) in ledger.epochs.iter().zip(&r.epochs) {
        assert_eq!(
            a.wall.total(),
            rec.counters.epoch_cycles + rec.overhead_cycles / threads as u64,
            "epoch wall breakdown diverges from the epoch's cycle counter"
        );
        assert_eq!(a.cores.len(), threads);
    }
    // Per core: lifetime totals are the epoch cores summed.
    assert_eq!(ledger.core_totals.len(), threads);
    for t in 0..threads {
        let mut sum = 0u64;
        for e in &ledger.epochs {
            sum += e.cores[t].total();
        }
        assert_eq!(sum, ledger.core_totals[t].total());
    }
}

#[test]
fn attribution_is_off_by_default() {
    let machine = MachineSpec::test_machine();
    let spec = small_spec(&machine, 4, AccessPattern::PrivateSlices);
    let config = SimConfig::for_machine(&machine, ThpControls::thp());
    assert!(!config.attribution);
    let r = Simulation::run(&machine, &spec, &config, &mut NullPolicy);
    assert!(r.attribution.is_none());
}

#[test]
fn attribution_is_purely_observational() {
    let machine = MachineSpec::test_machine();
    let spec = small_spec(&machine, 4, AccessPattern::SharedUniform);
    let mut config = SimConfig::for_machine(&machine, ThpControls::thp());
    let plain = Simulation::run(&machine, &spec, &config, &mut Churn);
    config.attribution = true;
    let mut attributed = Simulation::run(&machine, &spec, &config, &mut Churn);
    assert!(plain.attribution.is_none());
    assert!(attributed.attribution.is_some());
    // Strip the ledger: every other field must be bit-identical.
    attributed.attribution = None;
    assert_eq!(plain, attributed);
}

#[test]
fn conservation_holds_across_patterns_and_thp() {
    let machine = MachineSpec::test_machine();
    let threads = machine.total_cores();
    for thp in [ThpControls::small_only(), ThpControls::thp()] {
        for pattern in [
            AccessPattern::PrivateSlices,
            AccessPattern::SharedUniform,
            AccessPattern::Stream { stride: 64 },
        ] {
            let r = run_attributed(thp, pattern, &mut NullPolicy);
            assert_conserved(&r, threads);
        }
    }
}

#[test]
fn conservation_holds_under_policy_actions() {
    let r = run_attributed(ThpControls::thp(), AccessPattern::SharedUniform, &mut Churn);
    assert_conserved(&r, MachineSpec::test_machine().total_cores());
}

#[test]
fn buckets_reflect_architectural_activity() {
    let threads = MachineSpec::test_machine().total_cores();
    let r = run_attributed(
        ThpControls::small_only(),
        AccessPattern::SharedUniform,
        &mut Churn,
    );
    assert_conserved(&r, threads);
    let t = &r.attribution.as_ref().unwrap().total;
    // A 4 KiB-paged run faults every page in and misses the TLB.
    assert!(t.compute > 0, "think cycles must land in compute");
    assert!(t.fault > 0, "demand faults must be booked: {t:?}");
    assert!(
        t.tlb_lookup > 0 && t.walk_cycles() > 0,
        "TLB misses must book lookup and walk cycles: {t:?}"
    );
    // The wall ledger holds only each round's critical-path thread, which
    // under a DRAM-bound pattern may see no L1 hits at all — so ask for
    // cache-hit time at *some* level, plus DRAM components.
    assert!(
        t.cache_l1 + t.cache_l2 + t.cache_l3 > 0 && t.dram_service > 0,
        "data accesses must book hit and DRAM time: {t:?}"
    );
    assert!(
        t.ctrl_queue > 0 && t.interconnect > 0,
        "remote DRAM traffic must book queueing and hop time: {t:?}"
    );
    // Per-core busy ledgers see every thread, not just the critical path:
    // L1 hits must appear there.
    let cores = &r.attribution.as_ref().unwrap().core_totals;
    assert!(
        cores.iter().any(|c| c.cache_l1 > 0),
        "no core booked any L1 hit time"
    );
    // IBS NMIs cost 800 cycles each; with samples taken the share per
    // thread cannot round to zero.
    assert!(r.lifetime.ibs_samples > 0);
    assert!(t.ibs_sampling > 0, "IBS overhead must be booked: {t:?}");
    // Churn migrates on every sample: policy work must be visible.
    let vm = &r.lifetime.vmem;
    assert!(vm.migrations_4k + vm.migrations_2m > 0);
    assert!(
        t.policy_migration + t.policy_split + t.policy_replication > 0,
        "policy action costs must be booked: {t:?}"
    );
}

proptest! {
    /// Random seeds, patterns, and THP settings, with node 0 full: its
    /// threads fault in remotely and Churn's migrations onto node 0 fail,
    /// booking no policy cost — conservation must hold exactly.
    #[test]
    fn conservation_survives_a_full_node(
        seed in 0u64..=u64::MAX,
        pattern in [AccessPattern::PrivateSlices, AccessPattern::SharedUniform].as_slice(),
        thp in [ThpControls::small_only(), ThpControls::thp()].as_slice(),
    ) {
        let machine = MachineSpec::test_machine();
        let spec = small_spec(&machine, 3, pattern);
        let mut config = SimConfig::for_machine(&machine, thp);
        config.seed = seed;
        config.attribution = true;
        let fill = |space: &mut AddressSpace| {
            for size in [PageSize::Size2M, PageSize::Size4K] {
                while space.alloc_frame(NodeId(0), size).is_ok() {}
            }
        };
        let opts = RunOptions {
            setup: Some(&fill),
            ..RunOptions::default()
        };
        let r = Simulation::run_with(&machine, &spec, &config, &mut Churn, opts).result();
        prop_assert!(r.robustness.failed_migrations > 0, "no migration failed");
        let ledger = r.attribution.as_ref().expect("attribution was on");
        prop_assert!(
            ledger.conserves(r.runtime_cycles),
            "buckets sum to {}, runtime is {}",
            ledger.total.total(),
            r.runtime_cycles
        );
        for (a, rec) in ledger.epochs.iter().zip(&r.epochs) {
            prop_assert_eq!(
                a.wall.total(),
                rec.counters.epoch_cycles + rec.overhead_cycles / spec.threads as u64
            );
        }
    }
}
