//! Resume-equivalence of `ckpt-v3` checkpoints at adversarial epochs.
//!
//! The checkpoint contract (DESIGN.md §12): a run resumed from a snapshot
//! is bit-identical — full `SimResult` equality, every per-epoch record,
//! every robustness counter, the attribution ledger — to the run that was
//! never interrupted. The engine's own tests prove this for small configs;
//! the tests here aim the snapshot at the state that is easiest to lose:
//!
//! * the paper's **golden configurations** with attribution ON (the
//!   acceptance bar for the format);
//! * epochs where Carrefour-LP's migrations onto a **full node fail**
//!   with `NoMemory` — checked exhaustively at *every* epoch boundary of
//!   the run, so the failing epochs cannot be missed (a snapshot holds a
//!   boundary's decision point, so boundary `e`'s failures happen after
//!   the resume);
//! * random shapes/seeds/epochs and policies, with and without a full
//!   node.

use carrefour_bench::{golden, PolicyKind};
use engine::{
    Checkpoint, EpochDecision, NumaPolicy, RunHook, RunOptions, SimConfig, SimResult, Simulation,
};
use numa_topology::{MachineSpec, NodeId};
use proptest::prelude::*;
use vmem::{AddressSpace, PageSize};
use workloads::{AccessPattern, RegionSpec, WorkloadGen, WorkloadSpec};

const BASE: u64 = 64 << 30;

/// Address-space setup that takes every free frame of node 0 before the
/// workload starts: node-0 threads fault their pages in remotely, and the
/// policy's migrations back onto node 0 fail with `NoMemory`.
fn fill_node0(space: &mut AddressSpace) {
    for size in [PageSize::Size2M, PageSize::Size4K] {
        while space.alloc_frame(NodeId(0), size).is_ok() {}
    }
}

type Setup<'a> = Option<&'a dyn Fn(&mut AddressSpace)>;

/// A full run with `setup` applied to the fresh address space.
fn run_from(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    policy: &mut dyn NumaPolicy,
    setup: Setup<'_>,
) -> SimResult {
    let opts = RunOptions {
        setup,
        ..RunOptions::default()
    };
    Simulation::run_with(machine, spec, config, policy, opts).result()
}

/// The snapshot at the decision point of boundary `epoch` of a run with
/// `setup` applied. A resume needs no setup: the snapshot carries the
/// frames.
fn checkpoint_from(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    policy: &mut dyn NumaPolicy,
    setup: Setup<'_>,
    epoch: u32,
) -> Checkpoint {
    let opts = RunOptions {
        setup,
        stop_at: Some(epoch),
        ..RunOptions::default()
    };
    Simulation::run_with(machine, spec, config, policy, opts)
        .checkpoint()
        .unwrap_or_else(|| panic!("the run ends before epoch {epoch}"))
}

/// A small multi-threaded workload, the same shape as the runner
/// equivalence suite uses.
fn small_spec(name: &str, mib: u64, pattern: AccessPattern) -> WorkloadSpec {
    let machine = MachineSpec::test_machine();
    WorkloadSpec {
        name: name.to_string(),
        threads: machine.total_cores(),
        regions: vec![RegionSpec {
            base: BASE,
            bytes: mib << 20,
            share: 1.0,
            pattern,
            alloc_skew: 0.0,
            loader_headers: 0.0,
            rw_shared: true,
            read_only: false,
        }],
        ops_per_round: 300,
        compute_rounds: 8,
        think_cycles_per_op: 10,
        write_fraction: 0.4,
        phases: Vec::new(),
        mlp: 1,
    }
}

/// Checkpoints at `epoch` with a fresh policy and `setup`, round-trips
/// the envelope bytes, resumes with another fresh policy, and asserts the
/// resumed result equals `full`.
fn assert_resume_identical(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    mut make_policy: impl FnMut() -> Box<dyn NumaPolicy>,
    setup: Setup<'_>,
    epoch: u32,
    full: &SimResult,
) {
    let ckpt = checkpoint_from(machine, spec, config, make_policy().as_mut(), setup, epoch);
    assert_snapshot_resumes(machine, spec, config, make_policy().as_mut(), &ckpt, full);
}

/// Round-trips `ckpt`'s envelope bytes, resumes with a fresh `policy`,
/// and asserts the resumed result equals `full`.
fn assert_snapshot_resumes(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    policy: &mut dyn NumaPolicy,
    ckpt: &Checkpoint,
    full: &SimResult,
) {
    let epoch = ckpt.epoch();
    let ckpt = engine::Checkpoint::from_bytes(&ckpt.to_bytes()).expect("envelope round-trip");
    let resumed = Simulation::resume(machine, spec, config, policy, &ckpt);
    assert_eq!(
        &resumed, full,
        "resume from epoch {epoch} diverged ({}/{})",
        full.workload, full.policy
    );
}

/// Captures a run's checkpoints at the listed boundaries.
struct CaptureAt {
    epochs: Vec<u32>,
    taken: Vec<Checkpoint>,
}

impl RunHook for CaptureAt {
    fn may_capture(&mut self, epoch: u32) -> bool {
        self.epochs.contains(&epoch)
    }

    fn on_decision(&mut self, _d: &EpochDecision<'_>) -> bool {
        true
    }

    fn on_checkpoint(&mut self, ckpt: Checkpoint) {
        self.taken.push(ckpt);
    }
}

/// Every golden configuration, attribution ON: checkpoints at an early,
/// middle, and late epoch all resume bit-identical. This is the
/// acceptance bar for `ckpt-v3`: the exact cells whose digests gate CI
/// must survive a mid-stream save/restore. The snapshots come from a hook
/// on the full run, whose bytes equal `checkpoint_at`'s
/// (`hook_checkpoints_match_checkpoint_at_bytes`).
#[test]
fn golden_configs_resume_bit_identical_with_attribution() {
    std::env::set_var("CARREFOUR_QUIET", "1");
    let machine = MachineSpec::machine_a();
    let jobs = carrefour_bench::runner::resolve_jobs(None);
    carrefour_bench::runner::par_map(jobs, golden::GOLDEN_CELLS.len(), |i| {
        let cell = golden::GOLDEN_CELLS[i];
        let mut config = SimConfig::for_machine(&machine, cell.kind.initial_thp());
        config.attribution = true;
        let spec = cell.bench.spec(&machine);
        let rounds = WorkloadGen::new(&spec, config.seed).total_rounds();
        let n = rounds.div_ceil(config.rounds_per_epoch);
        let mut epochs = vec![1, n / 2, n - 1];
        epochs.dedup();
        let mut hook = CaptureAt {
            epochs,
            taken: Vec::new(),
        };
        let opts = RunOptions {
            hook: Some(&mut hook),
            ..RunOptions::default()
        };
        let full = Simulation::run_with(&machine, &spec, &config, cell.kind.make().as_mut(), opts)
            .result();
        assert_eq!(full.epochs.len() as u32, n, "{}: epoch count", cell.stem());
        assert!(
            full.attribution.is_some(),
            "golden cell must carry the ledger"
        );
        let taken: Vec<u32> = hook.taken.iter().map(Checkpoint::epoch).collect();
        assert_eq!(taken, hook.epochs, "{}: snapshot epochs", cell.stem());
        for ckpt in &hook.taken {
            let mut policy = cell.kind.make();
            assert_snapshot_resumes(&machine, &spec, &config, policy.as_mut(), ckpt, &full);
        }
    });
}

/// Carrefour-LP with node 0 full: its migrations onto node 0 fail with
/// `NoMemory`, and a checkpoint at *every* epoch boundary (the failing
/// epochs included, by exhaustion) resumes bit-identical. The scenario
/// assertion keeps the test honest: if a change stops the failures from
/// happening, the test fails instead of hollowing out.
#[test]
fn every_epoch_resumes_with_failed_migrations_onto_a_full_node() {
    let machine = MachineSpec::test_machine();
    let spec = small_spec("full-node-lp", 4, AccessPattern::SharedUniform);
    let mut config = SimConfig::for_machine(&machine, PolicyKind::CarrefourLp.initial_thp());
    config.attribution = true;
    let make = || PolicyKind::CarrefourLp.make();
    let full = run_from(&machine, &spec, &config, make().as_mut(), Some(&fill_node0));
    let rb = &full.robustness;
    assert!(rb.failed_migrations > 0, "no migration failed: {rb:?}");
    let n = full.epochs.len() as u32;
    for epoch in 0..n {
        assert_resume_identical(
            &machine,
            &spec,
            &config,
            make,
            Some(&fill_node0),
            epoch,
            &full,
        );
    }
}

/// The two table-placement policies at their busiest: Mitosis while the
/// replica sweep is still finding new tables, numaPTE while table pages
/// are actively migrating. Snapshots at *every* epoch boundary — i.e.
/// including mid-replication and mid-migration states — must resume
/// bit-identical.
/// The engagement assertions keep the test honest: if the workload stops
/// provoking table actions, the test fails rather than hollowing out.
#[test]
fn every_epoch_resumes_mid_table_replication_and_migration() {
    let machine = MachineSpec::test_machine();
    // Skewed onto node 0 so every other node's walks cross the
    // interconnect: numaPTE sees remote walk steps, Mitosis's replicas
    // actually matter.
    let mut spec = small_spec("table-ckpt", 8, AccessPattern::SharedUniform);
    spec.regions[0].alloc_skew = 1.0;
    for kind in [PolicyKind::Mitosis, PolicyKind::NumaPte] {
        let mut config = SimConfig::for_machine(&machine, kind.initial_thp());
        config.attribution = true;
        config.ibs.period = 32;
        let full = Simulation::run(&machine, &spec, &config, kind.make().as_mut());
        let vm = &full.lifetime.vmem;
        match kind {
            PolicyKind::Mitosis => assert!(
                vm.table_replications > 0,
                "mitosis never replicated: {vm:?}"
            ),
            _ => assert!(vm.table_migrations > 0, "numapte never migrated: {vm:?}"),
        }
        let n = full.epochs.len() as u32;
        for epoch in 0..n {
            assert_resume_identical(&machine, &spec, &config, || kind.make(), None, epoch, &full);
        }
    }
}

/// Captures at every boundary the engine offers.
#[derive(Default)]
struct CaptureAll(Vec<Checkpoint>);

impl RunHook for CaptureAll {
    fn may_capture(&mut self, _epoch: u32) -> bool {
        true
    }

    fn on_decision(&mut self, _d: &EpochDecision<'_>) -> bool {
        true
    }

    fn on_checkpoint(&mut self, ckpt: Checkpoint) {
        self.0.push(ckpt);
    }
}

/// One capture point: a checkpoint a hook takes mid-run, after the policy
/// decided, is byte-identical to the one `checkpoint_at` stops at before
/// it decides, for the first, second, middle and last boundary, on a
/// table-placement policy and on Carrefour-LP. The hook is offered every
/// boundary (0..n), and attaching it leaves the result unchanged.
#[test]
fn hook_checkpoints_match_checkpoint_at_bytes() {
    let machine = MachineSpec::test_machine();
    let spec = small_spec("capture", 4, AccessPattern::SharedUniform);
    for kind in [PolicyKind::Mitosis, PolicyKind::CarrefourLp] {
        let mut config = SimConfig::for_machine(&machine, kind.initial_thp());
        config.attribution = true;
        let mut hook = CaptureAll::default();
        let opts = RunOptions {
            hook: Some(&mut hook),
            ..RunOptions::default()
        };
        let hooked =
            Simulation::run_with(&machine, &spec, &config, kind.make().as_mut(), opts).result();
        let full = Simulation::run(&machine, &spec, &config, kind.make().as_mut());
        assert_eq!(
            hooked, full,
            "a checkpointing hook changed the run ({kind:?})"
        );
        let n = full.epochs.len() as u32;
        let offered: Vec<u32> = hook.0.iter().map(Checkpoint::epoch).collect();
        assert_eq!(offered, (0..n).collect::<Vec<_>>(), "{kind:?}");
        for epoch in [0, 1, n / 2, n - 1] {
            let stopped =
                Simulation::checkpoint_at(&machine, &spec, &config, kind.make().as_mut(), epoch)
                    .expect("the run reaches every boundary it closes");
            assert!(
                hook.0[epoch as usize].to_bytes() == stopped.to_bytes(),
                "hook and checkpoint_at bytes differ at epoch {epoch} ({kind:?})"
            );
        }
    }
}

proptest! {
    /// Random workload shapes, seeds, policies, an optionally full node 0,
    /// and a random snapshot epoch: the resumed run equals the
    /// uninterrupted one.
    #[test]
    fn resume_is_bit_identical(
        mib in 2u64..5,
        seed in 0u64..=u64::MAX,
        full_node in [false, true].as_slice(),
        epoch_frac in 0.0f64..1.0,
        pattern in [AccessPattern::PrivateSlices, AccessPattern::SharedUniform].as_slice(),
        kind in [
            PolicyKind::LinuxThp,
            PolicyKind::CarrefourLp,
            PolicyKind::Mitosis,
            PolicyKind::NumaPte,
        ].as_slice(),
    ) {
        let machine = MachineSpec::test_machine();
        let spec = small_spec("ckpt-prop", mib, pattern);
        let mut config = SimConfig::for_machine(&machine, kind.initial_thp());
        config.seed = seed;
        let setup: Setup<'_> = if full_node { Some(&fill_node0) } else { None };

        let full = run_from(&machine, &spec, &config, kind.make().as_mut(), setup);
        let n = full.epochs.len() as u32;
        // frac < 1.0 scaled over the n boundaries covers 0..n.
        let epoch = ((f64::from(n) * epoch_frac) as u32).min(n - 1);
        let ckpt = checkpoint_from(&machine, &spec, &config, kind.make().as_mut(), setup, epoch);
        let resumed = Simulation::resume(&machine, &spec, &config, kind.make().as_mut(), &ckpt);
        prop_assert_eq!(&resumed, &full, "resume diverged at epoch {}", epoch);
    }
}
