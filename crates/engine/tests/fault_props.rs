//! Property tests of the fault-injection layer: random fault plans
//! against random small workloads must complete without panicking, keep
//! the virtual-memory invariants intact after every epoch
//! (`SimConfig::validate_each_epoch`), and account injected faults
//! consistently in [`engine::RobustnessStats`].

use engine::{
    DigestSink, EpochCtx, FaultConfig, MemoryPressure, NullPolicy, NumaPolicy, RunOptions,
    SimConfig, SimResult, Simulation, TraceDigest,
};
use numa_topology::{MachineSpec, NodeId};
use proptest::prelude::*;
use vmem::{PageSize, ThpControls};
use workloads::{AccessPattern, RegionSpec, WorkloadSpec};

const BASE: u64 = 64 << 30;

fn small_spec(machine: &MachineSpec, bytes: u64, pattern: AccessPattern) -> WorkloadSpec {
    WorkloadSpec {
        name: "fault-props".into(),
        threads: machine.total_cores(),
        regions: vec![RegionSpec {
            base: BASE,
            bytes,
            share: 1.0,
            pattern,
            alloc_skew: 0.0,
            loader_headers: 0.0,
            rw_shared: false,
            read_only: false,
        }],
        ops_per_round: 200,
        compute_rounds: 6,
        think_cycles_per_op: 10,
        write_fraction: 0.3,
        phases: Vec::new(),
        mlp: 1,
    }
}

/// A deliberately aggressive policy: migrates and splits whatever the
/// samples show, so every fallible action path runs under injection.
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

fn run_validated(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    faults: FaultConfig,
    policy: &mut dyn NumaPolicy,
) -> SimResult {
    let mut config = SimConfig::for_machine(machine, ThpControls::thp());
    config.faults = faults;
    config.validate_each_epoch = true;
    Simulation::run(machine, spec, &config, policy)
}

fn run_digested(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    faults: FaultConfig,
    policy: &mut dyn NumaPolicy,
) -> (SimResult, TraceDigest) {
    let mut config = SimConfig::for_machine(machine, ThpControls::thp());
    config.faults = faults;
    config.validate_each_epoch = true;
    let mut sink = DigestSink::new();
    let opts = RunOptions {
        sink: Some(&mut sink),
        ..RunOptions::default()
    };
    let result = Simulation::run_with(machine, spec, &config, policy, opts).result();
    (result, sink.into_digest())
}

proptest! {
    /// Random rates, seeds, and workload shapes: the run completes, the
    /// vmem invariant walker stays green each epoch, and the injected
    /// faults show up in the robustness block.
    #[test]
    fn random_fault_plans_never_corrupt_the_simulation(
        seed in 0u64..=u64::MAX,
        rate in 0.0f64..0.8,
        pin in 1u32..4,
        mib in 2u64..10,
        pattern in [AccessPattern::PrivateSlices, AccessPattern::SharedUniform].as_slice(),
    ) {
        let machine = MachineSpec::test_machine();
        let spec = small_spec(&machine, mib << 20, pattern);
        let mut faults = FaultConfig::uniform(seed, rate);
        faults.rates.sample_misattribution = rate / 4.0;
        faults.rates.pin_epochs = pin;
        let r = run_validated(&machine, &spec, faults, &mut Churn);
        prop_assert!(r.runtime_cycles > 0);
        prop_assert!(r.lifetime.total_ops > 0);
        if rate == 0.0 {
            prop_assert_eq!(r.robustness.fallback_allocs, 0);
            prop_assert_eq!(r.robustness.busy_rejections, 0);
        }
    }

    /// Memory pressure of random size and timing — including pressure
    /// larger than the victim node's free memory, which must reclaim or
    /// cap rather than wedge the allocator.
    #[test]
    fn random_memory_pressure_is_survivable(
        seed in 0u64..1000,
        epoch in 0u32..6,
        mib in 1u64..900,
        release in [None, Some(4u32), Some(8u32)].as_slice(),
    ) {
        let machine = MachineSpec::test_machine();
        let spec = small_spec(&machine, 4 << 20, AccessPattern::PrivateSlices);
        let mut faults = FaultConfig::uniform(seed, 0.05);
        faults.pressure = Some(MemoryPressure {
            epoch,
            node: NodeId(0),
            bytes: mib << 20,
            release_epoch: release.map(|r| epoch + r),
        });
        let r = run_validated(&machine, &spec, faults, &mut NullPolicy);
        prop_assert!(r.runtime_cycles > 0);
    }

    /// Determinism under injection: the same seed twice gives the same
    /// runtime and the same robustness accounting.
    #[test]
    fn equal_seeds_give_equal_faulty_runs(
        seed in 0u64..=u64::MAX,
        rate in 0.0f64..0.6,
    ) {
        let machine = MachineSpec::test_machine();
        let spec = small_spec(&machine, 4 << 20, AccessPattern::SharedUniform);
        let faults = FaultConfig::uniform(seed, rate);
        let a = run_validated(&machine, &spec, faults, &mut Churn);
        let b = run_validated(&machine, &spec, faults, &mut Churn);
        prop_assert_eq!(a.runtime_cycles, b.runtime_cycles);
        prop_assert_eq!(a.robustness, b.robustness);
    }

    /// Full bit-level determinism, with the observability layer on: the
    /// same seed and config — including a nonzero fault plan — give a
    /// bit-identical [`SimResult`] *and* a bit-identical trace digest
    /// across two runs, and tracing itself never perturbs the result
    /// (the traced result equals the untraced one).
    #[test]
    fn equal_seeds_give_identical_results_and_trace_digests(
        seed in 0u64..=u64::MAX,
        rate in 0.01f64..0.5,
        pattern in [AccessPattern::PrivateSlices, AccessPattern::SharedUniform].as_slice(),
    ) {
        let machine = MachineSpec::test_machine();
        let spec = small_spec(&machine, 4 << 20, pattern);
        let faults = FaultConfig::uniform(seed, rate);
        let (ra, da) = run_digested(&machine, &spec, faults, &mut Churn);
        let (rb, db) = run_digested(&machine, &spec, faults, &mut Churn);
        prop_assert_eq!(&ra, &rb);
        prop_assert!(da.diff(&db).is_none(), "trace digests diverged: {:?}", da.diff(&db));
        prop_assert_eq!(da, db);
        // The sink is a pure observer: an untraced run lands on the
        // same result bit for bit.
        let untraced = run_validated(&machine, &spec, faults, &mut Churn);
        prop_assert_eq!(ra, untraced);
    }
}
