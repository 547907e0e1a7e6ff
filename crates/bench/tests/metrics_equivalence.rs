//! Recorder-on vs recorder-off bit-equivalence of the flight recorder.
//!
//! The metrics recorder's contract (DESIGN.md §16) mirrors the trace
//! layer's: attaching a metrics recorder as the run's [`engine::RunHook`]
//! is pure observation — it must never change a single bit of the
//! simulation's outputs. These tests pin that at its strongest reading:
//!
//! * every **golden cell** runs recorder-on and recorder-off with equal
//!   [`engine::SimResult`]s (attribution ledger and robustness counters
//!   ride along in `PartialEq`) and a byte-identical trace digest, which
//!   also equals the checked-in golden;
//! * random shapes, seeds, policies, and an optionally full node 0
//!   (migrations onto it fail), with the attribution ledger ON, are
//!   bit-identical;
//! * the recorded series itself is structurally sound: one sample per
//!   simulated epoch, in order, with the run header announced.

use carrefour_bench::{golden, PolicyKind};
use engine::{
    DigestSink, EpochBoundary, NumaPolicy, RunHook, RunInfo, RunOptions, SimConfig, SimResult,
    Simulation, TraceDigest, TraceEvent, VecRecorder,
};
use numa_topology::{MachineSpec, NodeId};
use proptest::prelude::*;
use vmem::{AddressSpace, PageSize};
use workloads::{AccessPattern, RegionSpec, WorkloadSpec};

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

/// A small multi-threaded workload, the same shape the
/// checkpoint-equivalence suite uses.
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

/// Runs one cell traced, recorder off: `(result, digest)`.
fn run_plain(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    policy: &mut dyn NumaPolicy,
    setup: Setup<'_>,
) -> (SimResult, TraceDigest) {
    let mut sink = DigestSink::new();
    let opts = RunOptions {
        setup,
        hook: Some(&mut sink),
        ..RunOptions::default()
    };
    let result = Simulation::run_with(machine, spec, config, policy, opts).result();
    (result, sink.into_digest())
}

/// The recorder-on side: a [`VecRecorder`] that also digests the run's
/// events, since a run takes one hook.
#[derive(Default)]
struct Recorded {
    digest: DigestSink,
    rec: VecRecorder,
}

impl RunHook for Recorded {
    fn on_run_start(&mut self, info: &RunInfo) {
        self.rec.on_run_start(info);
    }

    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &TraceEvent) {
        self.digest.on_event(event);
    }

    fn wants_metrics(&self) -> bool {
        true
    }

    fn on_boundary(&mut self, b: &EpochBoundary) {
        self.rec.on_boundary(b);
    }
}

/// Runs one cell traced with a [`VecRecorder`] attached:
/// `(result, digest, recorder)`.
fn run_recorded(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    policy: &mut dyn NumaPolicy,
    setup: Setup<'_>,
) -> (SimResult, TraceDigest, VecRecorder) {
    let mut hook = Recorded::default();
    let opts = RunOptions {
        setup,
        hook: Some(&mut hook),
        ..RunOptions::default()
    };
    let result = Simulation::run_with(machine, spec, config, policy, opts).result();
    (result, hook.digest.into_digest(), hook.rec)
}

/// Asserts recorder-on == recorder-off for one cell, returning the
/// recorder-on result, digest and series for further checks.
fn assert_recorder_invisible(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    mut make_policy: impl FnMut() -> Box<dyn NumaPolicy>,
    setup: Setup<'_>,
) -> (SimResult, TraceDigest, VecRecorder) {
    let (want, want_digest) = run_plain(machine, spec, config, make_policy().as_mut(), setup);
    let (got, got_digest, rec) = run_recorded(machine, spec, config, make_policy().as_mut(), setup);
    assert_eq!(
        got, want,
        "SimResult diverged with the recorder on ({}/{})",
        want.workload, want.policy
    );
    assert!(
        want_digest.diff(&got_digest).is_none(),
        "trace digest diverged with the recorder on: {}",
        want_digest.diff(&got_digest).unwrap_or_default()
    );
    (got, got_digest, rec)
}

/// Checks the recorded series' structure against the run it observed.
fn assert_series_sound(result: &SimResult, rec: &VecRecorder) {
    assert_eq!(
        rec.samples.len(),
        result.epochs.len(),
        "one sample per simulated epoch"
    );
    for (i, sample) in rec.samples.iter().enumerate() {
        assert_eq!(sample.epoch as usize, i, "samples arrive in epoch order");
    }
    let header = rec.header.as_ref().expect("run header announced");
    assert_eq!(header.workload, result.workload);
}

/// Every golden cell — the exact digests that gate CI — is bit-identical
/// with the recorder attached, trace digest included. This is the
/// recorder's acceptance bar.
#[test]
fn golden_cells_are_bit_identical_with_recorder_on() {
    std::env::set_var("CARREFOUR_QUIET", "1");
    let machine = MachineSpec::machine_a();
    let dir = golden::golden_dir();
    let jobs = carrefour_bench::runner::resolve_jobs(None);
    carrefour_bench::runner::par_map(jobs, golden::GOLDEN_CELLS.len(), |i| {
        let cell = golden::GOLDEN_CELLS[i];
        let config = SimConfig::for_machine(&machine, cell.kind.initial_thp());
        let spec = cell.bench.spec(&machine);
        let (result, mut got, rec) =
            assert_recorder_invisible(&machine, &spec, &config, || cell.kind.make(), None);
        assert_series_sound(&result, &rec);
        // The recorder-on digest must also match the checked-in golden
        // (which tier-1's golden_trace equates with a plain run).
        let want = golden::load(&cell.path(&dir)).unwrap_or_else(|e| panic!("{e}"));
        got.policy = cell.kind.label().to_string();
        got.runtime_cycles = result.runtime_cycles;
        assert!(
            want.diff(&got).is_none(),
            "golden {} diverged with recorder on: {}",
            cell.stem(),
            want.diff(&got).unwrap_or_default()
        );
    });
}

proptest! {
    /// Random workload shapes, seeds, policies, and an optionally full
    /// node 0, with the attribution ledger ON: recorder-on is
    /// bit-identical to recorder-off — `SimResult` (ledger, robustness
    /// counters, per-epoch records) and trace digest. The full node
    /// populates the recorder's failed-action field, which must stay
    /// read-only.
    #[test]
    fn recorded_is_bit_identical(
        mib in 2u64..5,
        seed in 0u64..=u64::MAX,
        full_node in [false, true].as_slice(),
        pattern in [AccessPattern::PrivateSlices, AccessPattern::SharedUniform].as_slice(),
        kind in [
            PolicyKind::Linux4k,
            PolicyKind::LinuxThp,
            PolicyKind::CarrefourLp,
            PolicyKind::Mitosis,
            PolicyKind::NumaPte,
        ].as_slice(),
    ) {
        let machine = MachineSpec::test_machine();
        let spec = small_spec("metrics-prop", mib, pattern);
        let mut config = SimConfig::for_machine(&machine, kind.initial_thp());
        config.seed = seed;
        config.attribution = true;
        let setup: Setup<'_> = if full_node { Some(&fill_node0) } else { None };
        let (result, _, rec) =
            assert_recorder_invisible(&machine, &spec, &config, || kind.make(), setup);
        assert_series_sound(&result, &rec);
        prop_assert!(result.attribution.is_some(), "ledger must be on");
        prop_assert!(
            rec.samples.iter().all(|s| s.attrib.is_some()),
            "every sample carries its epoch's attribution delta when the ledger is on"
        );
    }
}
