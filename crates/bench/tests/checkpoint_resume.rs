//! Resume-equivalence of `ckpt-v1` checkpoints at adversarial epochs.
//!
//! The checkpoint contract (DESIGN.md §12): a run resumed from a snapshot
//! is bit-identical — full `SimResult` equality, every per-epoch record,
//! every robustness counter, the attribution ledger — to the run that was
//! never interrupted. The engine's own tests prove this for small fault-free
//! and faulted configs; the tests here aim the snapshot at the state that
//! is easiest to lose:
//!
//! * the paper's **golden configurations** with attribution ON and a
//!   nonzero `FaultPlan` (the acceptance bar for the format);
//! * epochs where a fault-plan **allocation veto / `-EBUSY` pin fires**,
//!   where Carrefour-LP is **mid-retry-backoff** (pending queue nonempty,
//!   entries in flight), and where a **circuit breaker has tripped** —
//!   checked exhaustively at *every* epoch boundary of the run, so the
//!   adversarial epochs cannot be missed;
//! * random shapes/seeds/rates/epochs with the access loop's **memo
//!   tricks on and off** (`RunOptions::memo`), including resuming a
//!   memo-on snapshot with them off — the snapshot boundary state must be
//!   identical whichever loop produced or consumes it.

use carrefour::CarrefourLp;
use carrefour_bench::{golden, PolicyKind};
use engine::{
    Checkpoint, FaultConfig, NumaPolicy, RunHook, RunOptions, SimConfig, SimResult, Simulation,
    Start,
};
use numa_topology::MachineSpec;
use proptest::prelude::*;
use workloads::{AccessPattern, RegionSpec, WorkloadSpec};

const BASE: u64 = 64 << 30;

/// Runs with the access loop's memo tricks off (`RunOptions::memo`),
/// fresh or resumed from `ckpt`.
fn run_without_memo(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    policy: &mut dyn NumaPolicy,
    ckpt: Option<&Checkpoint>,
) -> SimResult {
    let opts = RunOptions {
        start: ckpt.map_or(Start::Fresh, Start::Resume),
        memo: false,
        ..RunOptions::default()
    };
    Simulation::run_with(machine, spec, config, policy, opts).result()
}

/// A small multi-threaded workload, the same shape as the fast-path and
/// runner equivalence suites use.
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

/// Checkpoints at `epoch` with a fresh policy, round-trips the envelope
/// bytes, resumes with another fresh policy, and asserts the resumed
/// result equals `full`.
fn assert_resume_identical(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    mut make_policy: impl FnMut() -> Box<dyn NumaPolicy>,
    epoch: u32,
    full: &SimResult,
) {
    let ckpt = Simulation::checkpoint_at(machine, spec, config, make_policy().as_mut(), epoch)
        .unwrap_or_else(|| panic!("run has {} epochs, none at {epoch}", full.epochs.len()));
    let ckpt = engine::Checkpoint::from_bytes(&ckpt.to_bytes()).expect("envelope round-trip");
    let resumed = Simulation::resume(machine, spec, config, make_policy().as_mut(), &ckpt);
    assert_eq!(
        &resumed, full,
        "resume from epoch {epoch} diverged ({}/{})",
        full.workload, full.policy
    );
}

/// Every golden configuration, attribution ON, under a nonzero fault
/// plan: checkpoints at an early, middle, and late epoch all resume
/// bit-identical. This is the acceptance bar for `ckpt-v1`: the exact
/// cells whose digests gate CI must survive a mid-stream save/restore.
#[test]
fn golden_configs_resume_bit_identical_with_attribution_and_faults() {
    std::env::set_var("CARREFOUR_QUIET", "1");
    let machine = MachineSpec::machine_a();
    let jobs = carrefour_bench::runner::resolve_jobs(None);
    carrefour_bench::runner::par_map(jobs, golden::GOLDEN_CELLS.len(), |i| {
        let cell = golden::GOLDEN_CELLS[i];
        let mut config = SimConfig::for_machine(&machine, cell.kind.initial_thp());
        config.attribution = true;
        config.faults = FaultConfig::uniform(0xC0FFEE, 0.15);
        let spec = cell.bench.spec(&machine);
        let full = Simulation::run(&machine, &spec, &config, cell.kind.make().as_mut());
        assert!(
            full.attribution.is_some(),
            "golden cell must carry the ledger"
        );
        let n = full.epochs.len() as u32;
        for epoch in [1, n / 2, n.saturating_sub(1)] {
            assert_resume_identical(&machine, &spec, &config, || cell.kind.make(), epoch, &full);
        }
    });
}

/// Heavy operational faults on Carrefour-LP: allocation vetoes, `-EBUSY`
/// pins, and live retry backoff all present — and a checkpoint at *every*
/// epoch boundary (pin-fire epochs and mid-backoff epochs included, by
/// exhaustion) resumes bit-identical. The scenario assertions keep the
/// test honest: if a config change stops the faults from firing, the test
/// fails instead of hollowing out.
#[test]
fn every_epoch_resumes_under_pins_vetoes_and_retry_backoff() {
    let machine = MachineSpec::test_machine();
    let spec = small_spec("adversarial-lp", 4, AccessPattern::SharedUniform);
    let mut config = SimConfig::for_machine(&machine, PolicyKind::CarrefourLp.initial_thp());
    config.attribution = true;
    config.faults = FaultConfig::uniform(97, 0.5);
    let full = Simulation::run(
        &machine,
        &spec,
        &config,
        PolicyKind::CarrefourLp.make().as_mut(),
    );
    let rb = &full.robustness;
    assert!(rb.fallback_allocs > 0, "no allocation veto fired: {rb:?}");
    assert!(rb.busy_rejections > 0, "no -EBUSY pin fired: {rb:?}");
    assert!(rb.retries > 0, "retry machinery never engaged: {rb:?}");
    let n = full.epochs.len() as u32;
    for epoch in 0..=n {
        assert_resume_identical(
            &machine,
            &spec,
            &config,
            || PolicyKind::CarrefourLp.make(),
            epoch,
            &full,
        );
    }
}

/// A fault rate high enough to trip Carrefour-LP's circuit breakers: the
/// breaker state (open-until epoch, trip count) is part of the snapshot,
/// so every epoch — before, during, and after the open window — must
/// resume bit-identical.
#[test]
fn every_epoch_resumes_with_a_tripped_circuit_breaker() {
    let machine = MachineSpec::test_machine();
    // Action-dense shape (the fast-path suite's shootdown scenario): the
    // region is skewed onto node 0, so interleaving migrations flow every
    // epoch — enough failing actions per batch to cross the breaker's
    // minimum batch size at a 90 % failure rate.
    let mut spec = small_spec("tripped-breaker", 16, AccessPattern::SharedUniform);
    spec.regions[0].alloc_skew = 1.0;
    spec.ops_per_round = 1000;
    spec.compute_rounds = 60;
    let mut config = SimConfig::for_machine(&machine, PolicyKind::CarrefourLp.initial_thp());
    config.ibs.period = 32;
    config.faults = FaultConfig::uniform(11, 0.9);
    let mut lp = CarrefourLp::new();
    let full = Simulation::run(&machine, &spec, &config, &mut lp);
    let (split_trips, move_trips) = lp.breaker_trips();
    assert!(
        split_trips + move_trips > 0,
        "no breaker tripped at rate 0.9 (splits {split_trips}, moves {move_trips})"
    );
    let n = full.epochs.len() as u32;
    for epoch in 0..=n {
        assert_resume_identical(
            &machine,
            &spec,
            &config,
            || Box::new(CarrefourLp::new()),
            epoch,
            &full,
        );
    }
}

/// The two table-placement policies at their busiest: Mitosis while the
/// replica sweep is still finding new tables, numaPTE while table pages
/// are actively migrating. Snapshots at *every* epoch boundary — i.e.
/// including mid-replication and mid-migration states — must resume
/// bit-identical, and the per-op path must accept the same snapshots.
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
        config.faults = FaultConfig::uniform(0xBEEF, 0.2);
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
        for epoch in 0..=n {
            assert_resume_identical(&machine, &spec, &config, || kind.make(), epoch, &full);
        }
        // A mid-stream snapshot must also resume identically with the memo
        // tricks off (which must itself agree with the memo-on loop).
        let ckpt = Simulation::checkpoint_at(&machine, &spec, &config, kind.make().as_mut(), n / 2)
            .expect("mid-run snapshot");
        let resumed_slow =
            run_without_memo(&machine, &spec, &config, kind.make().as_mut(), Some(&ckpt));
        assert_eq!(&resumed_slow, &full, "per-op resume diverged ({:?})", kind);
    }
}

/// Keeps every checkpoint the engine offers a hook.
#[derive(Default)]
struct CaptureAll(Vec<Checkpoint>);

impl RunHook for CaptureAll {
    fn want_checkpoint(&mut self, _epoch: u32) -> bool {
        true
    }

    fn on_checkpoint(&mut self, ckpt: Checkpoint) {
        self.0.push(ckpt);
    }
}

/// One capture point: a checkpoint a hook takes mid-run is byte-identical
/// to the one `checkpoint_at` stops at, for the first, middle and last
/// boundary offered, on a table-placement policy and on Carrefour-LP. The
/// hook is offered exactly the boundaries the run closes that another
/// epoch follows (1..n), and attaching it leaves the result unchanged.
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
        assert_eq!(offered, (1..n).collect::<Vec<_>>(), "{kind:?}");
        for epoch in [1, n / 2, n - 1] {
            let stopped =
                Simulation::checkpoint_at(&machine, &spec, &config, kind.make().as_mut(), epoch)
                    .expect("the run reaches every boundary it closes");
            assert!(
                hook.0[epoch as usize - 1].to_bytes() == stopped.to_bytes(),
                "hook and checkpoint_at bytes differ at epoch {epoch} ({kind:?})"
            );
        }
    }
}

proptest! {
    /// Random workload shapes, seeds, policies, nonzero fault plans, and a
    /// random snapshot epoch: the resumed run equals the uninterrupted one
    /// with the memo tricks on, AND the *same memo-on snapshot* resumed
    /// with them off equals the memo-off uninterrupted run — the boundary
    /// state is loop-independent in both directions.
    #[test]
    fn resume_is_bit_identical_under_faults_and_both_paths(
        mib in 2u64..5,
        seed in 0u64..=u64::MAX,
        fault_seed in 1u64..u64::MAX,
        rate in 0.05f64..0.6,
        epoch_frac in 0.0f64..1.0,
        pattern in [AccessPattern::PrivateSlices, AccessPattern::SharedUniform].as_slice(),
        kind in [
            PolicyKind::LinuxThp,
            PolicyKind::CarrefourLp,
            PolicyKind::CarrefourLpNoRetry,
            PolicyKind::Mitosis,
            PolicyKind::NumaPte,
        ].as_slice(),
    ) {
        let machine = MachineSpec::test_machine();
        let spec = small_spec("ckpt-prop", mib, pattern);
        let mut config = SimConfig::for_machine(&machine, kind.initial_thp());
        config.seed = seed;
        config.faults = FaultConfig::uniform(fault_seed, rate);

        let full = Simulation::run(&machine, &spec, &config, kind.make().as_mut());
        let n = full.epochs.len() as u32;
        // frac < 1.0 scaled over n+1 boundaries covers 0..=n inclusive.
        let epoch = (((f64::from(n) + 1.0) * epoch_frac) as u32).min(n);
        let ckpt = Simulation::checkpoint_at(&machine, &spec, &config, kind.make().as_mut(), epoch)
            .unwrap_or_else(|| panic!("run has {n} epochs, none at {epoch}"));
        let resumed = Simulation::resume(&machine, &spec, &config, kind.make().as_mut(), &ckpt);
        prop_assert_eq!(&resumed, &full, "fast-path resume diverged at epoch {}", epoch);

        // The memo-off loop must agree with the memo-on loop (the existing
        // equivalence claim) and accept the memo-on snapshot verbatim.
        let full_slow = run_without_memo(&machine, &spec, &config, kind.make().as_mut(), None);
        let resumed_slow =
            run_without_memo(&machine, &spec, &config, kind.make().as_mut(), Some(&ckpt));
        prop_assert_eq!(&full_slow, &full, "fast/per-op paths diverged");
        prop_assert_eq!(
            &resumed_slow,
            &full,
            "per-op resume of a fast-path snapshot diverged at epoch {}",
            epoch
        );
    }
}
