//! Recorder-on vs recorder-off bit-equivalence of the flight recorder.
//!
//! The metrics recorder's contract (DESIGN.md §16) mirrors the trace
//! layer's: attaching a metrics recorder as the run's [`engine::RunHook`]
//! is pure observation — it must never change a single bit of the
//! simulation's outputs. These tests pin that at its strongest reading:
//!
//! * every **golden cell** runs recorder-on and recorder-off with equal
//!   [`engine::SimResult`]s (attribution ledger and robustness counters
//!   ride along in `PartialEq`) and a byte-identical trace digest;
//! * random shapes, seeds, policies, and an optionally full node 0
//!   (migrations onto it fail), with the attribution ledger ON, are
//!   bit-identical;
//! * the recorded series itself is structurally sound: one row per
//!   simulated epoch, in order, with the run header announced.

use carrefour_bench::{golden, PolicyKind};
use engine::{
    DigestSink, NumaPolicy, RunOptions, SimConfig, SimResult, Simulation, TraceDigest, VecRecorder,
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
        sink: Some(&mut sink),
        ..RunOptions::default()
    };
    let result = Simulation::run_with(machine, spec, config, policy, opts).result();
    (result, sink.into_digest())
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
    let mut sink = DigestSink::new();
    let mut rec = VecRecorder::new();
    let opts = RunOptions {
        setup,
        sink: Some(&mut sink),
        hook: Some(&mut rec),
        ..RunOptions::default()
    };
    let result = Simulation::run_with(machine, spec, config, policy, opts).result();
    (result, sink.into_digest(), rec)
}

/// Asserts recorder-on == recorder-off for one cell, returning the
/// recorded series for structural checks.
fn assert_recorder_invisible(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    mut make_policy: impl FnMut() -> Box<dyn NumaPolicy>,
    setup: Setup<'_>,
) -> (SimResult, VecRecorder) {
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
    (want, rec)
}

/// Checks the recorded series' structure against the run it observed.
fn assert_series_sound(result: &SimResult, rec: &VecRecorder) {
    assert_eq!(
        rec.rows.len(),
        result.epochs.len(),
        "one row per simulated epoch"
    );
    for (i, row) in rec.rows.iter().enumerate() {
        assert_eq!(row.epoch as usize, i, "rows arrive in epoch order");
    }
    let (workload, _, _) = rec.header.as_ref().expect("run header announced");
    assert_eq!(workload, &result.workload);
}

/// Every golden cell — the exact digests that gate CI — is bit-identical
/// with the recorder attached, trace digest included. This is the
/// tentpole's acceptance bar.
#[test]
fn golden_cells_are_bit_identical_with_recorder_on() {
    std::env::set_var("CARREFOUR_QUIET", "1");
    let machine = MachineSpec::machine_a();
    let jobs = carrefour_bench::runner::resolve_jobs(None);
    carrefour_bench::runner::par_map(jobs, golden::GOLDEN_CELLS.len(), |i| {
        let cell = golden::GOLDEN_CELLS[i];
        let config = SimConfig::for_machine(&machine, cell.kind.initial_thp());
        let spec = cell.bench.spec(&machine);
        let (result, rec) =
            assert_recorder_invisible(&machine, &spec, &config, || cell.kind.make(), None);
        assert_series_sound(&result, &rec);
        // The checked-in golden digest itself must also match the
        // recorder-on run: recompute it and diff.
        let want = golden::digest_cell(&machine, cell);
        let (_, mut got, _) =
            run_recorded(&machine, &spec, &config, cell.kind.make().as_mut(), None);
        got.policy = cell.kind.label().to_string();
        got.runtime_cycles = want.runtime_cycles;
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
        let (result, rec) =
            assert_recorder_invisible(&machine, &spec, &config, || kind.make(), setup);
        assert_series_sound(&result, &rec);
        prop_assert!(result.attribution.is_some(), "ledger must be on");
        prop_assert!(
            rec.rows.iter().all(|r| r.attrib.is_some()),
            "every row carries its epoch's attribution delta when the ledger is on"
        );
    }
}
