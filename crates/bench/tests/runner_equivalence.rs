//! Parallel-vs-sequential equivalence of the experiment runner.
//!
//! The runner's determinism claim (DESIGN.md §10): worker threads decide
//! only *where* a cell runs, never what it computes, and results land in
//! submission-order slots — so any worker count yields a bit-identical
//! `Vec<Cell>`. The property test drives that claim with randomly shaped
//! small workloads and random seeds (every cell owns its RNG streams, the
//! nastiest place a cross-thread leak could hide). A separate smoke test
//! covers two real paper cells.

use carrefour_bench::runner::{self, CellSpec, Progress, Workload};
use carrefour_bench::{Cell, PolicyKind};
use numa_topology::MachineSpec;
use proptest::prelude::*;
use workloads::{AccessPattern, Benchmark, RegionSpec, WorkloadSpec};

const BASE: u64 = 64 << 30;

/// A small, cheap workload spec.
fn small_spec(
    machine: &MachineSpec,
    name: String,
    mib: u64,
    pattern: AccessPattern,
) -> WorkloadSpec {
    WorkloadSpec {
        name,
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
        ops_per_round: 200,
        compute_rounds: 6,
        think_cycles_per_op: 10,
        write_fraction: 0.3,
        phases: Vec::new(),
        mlp: 1,
    }
}

/// Runs the same specs at two worker counts under a quiet progress
/// reporter and asserts the full result rows are bit-identical.
fn assert_jobs_equivalent(specs: &[CellSpec], jobs_a: usize, jobs_b: usize) {
    std::env::set_var("CARREFOUR_QUIET", "1");
    let run = |label: &str, jobs: usize| -> Vec<Cell> {
        let progress = Progress::new(label, specs.len());
        runner::run_cells_outcomes(specs, jobs, &progress, |_, _| {})
            .into_iter()
            .map(|o| o.into_result().expect("no cell panics").cell)
            .collect()
    };
    let a = run("eq-a", jobs_a);
    let b = run("eq-b", jobs_b);
    assert_eq!(a.len(), b.len());
    for (ca, cb) in a.iter().zip(&b) {
        assert_eq!(ca.machine, cb.machine);
        assert_eq!(ca.benchmark, cb.benchmark);
        assert_eq!(ca.policy, cb.policy);
        assert_eq!(
            ca.result, cb.result,
            "results diverged for {}/{} at jobs {jobs_a} vs {jobs_b}",
            ca.benchmark, ca.policy
        );
    }
}

proptest! {
    /// N random cells — random workload shapes, seeds, and policies —
    /// produce `SimResult`s bit-identical
    /// (`PartialEq`) between a sequential run and a parallel run.
    #[test]
    fn parallel_run_is_bit_identical_to_sequential(
        n in 1usize..4,
        mib in 2u64..6,
        seed in 0u64..=u64::MAX,
        pattern in [AccessPattern::PrivateSlices, AccessPattern::SharedUniform].as_slice(),
        jobs in 2usize..5,
    ) {
        let machine = MachineSpec::test_machine();
        let kinds = [
            PolicyKind::Linux4k,
            PolicyKind::LinuxThp,
            PolicyKind::CarrefourLp,
        ];
        let specs: Vec<CellSpec> = (0..n)
            .map(|i| CellSpec {
                machine: machine.clone(),
                workload: Workload::Custom(small_spec(
                    &machine,
                    format!("eq-{i}"),
                    mib + i as u64,
                    pattern,
                )),
                kind: kinds[i % kinds.len()],
                seed: Some(seed.wrapping_add(i as u64)),
                label: None,
                lp_params: None,
                family: None,
            })
            .collect();
        assert_jobs_equivalent(&specs, 1, jobs);
    }
}

/// Two real paper cells (UA.B under Linux-4K and Carrefour-LP): the
/// sequential and the 2-worker run return identical rows. This is the
/// same code path `all_experiments --jobs N` takes.
#[test]
fn real_cells_equivalent_across_jobs() {
    let machine = MachineSpec::machine_a();
    let specs = vec![
        CellSpec::new(machine.clone(), Benchmark::UaB, PolicyKind::Linux4k),
        CellSpec::new(machine, Benchmark::UaB, PolicyKind::CarrefourLp),
    ];
    assert_jobs_equivalent(&specs, 1, 2);
}

/// `figPT` (the page-table placement experiment) is deterministic at any
/// worker count: a Mitosis and a numaPTE cell from its spec list return
/// bit-identical rows sequentially and with 3 workers. Full-matrix runs
/// are covered by the experiment itself in CI; two cells keep tier-1 fast
/// while still exercising both new policies through the pool.
#[test]
fn fig_pt_cells_equivalent_across_jobs() {
    let exp = carrefour_bench::experiments::all()
        .into_iter()
        .find(|e| e.name == "figPT")
        .expect("figPT registered");
    let specs: Vec<CellSpec> = exp
        .specs
        .into_iter()
        .filter(|s| {
            matches!(s.kind, PolicyKind::Mitosis | PolicyKind::NumaPte)
                && s.machine.name() == "machine-a"
        })
        .take(2)
        .collect();
    assert_eq!(specs.len(), 2, "figPT must sweep the table policies");
    assert_jobs_equivalent(&specs, 1, 3);
}

/// A panicking cell no longer aborts the suite: a spec whose region setup
/// fails (overlapping regions) comes back as `CellOutcome::Panicked` with
/// the panic message, while every sibling cell still completes with its
/// normal deterministic result.
#[test]
fn panicking_cell_does_not_abort_the_suite() {
    std::env::set_var("CARREFOUR_QUIET", "1");
    let machine = MachineSpec::test_machine();
    let good = |name: &str| CellSpec {
        machine: machine.clone(),
        workload: Workload::Custom(small_spec(
            &machine,
            name.to_string(),
            3,
            AccessPattern::PrivateSlices,
        )),
        kind: PolicyKind::CarrefourLp,
        seed: Some(5),
        label: None,
        lp_params: None,
        family: None,
    };
    let mut bad_spec = small_spec(&machine, "bad".to_string(), 3, AccessPattern::PrivateSlices);
    // A second region at the same base: the overlap panics inside the
    // cell (shares are rebalanced so that check fires, not the share sum).
    bad_spec.regions[0].share = 0.5;
    bad_spec.regions.push(bad_spec.regions[0]);
    let mut bad = good("bad-cell");
    bad.workload = Workload::Custom(bad_spec);
    let specs = vec![good("good-0"), bad, good("good-2")];

    for jobs in [1, 2] {
        let progress = Progress::new("panic-isolated", specs.len());
        let outcomes = runner::run_cells_outcomes(&specs, jobs, &progress, |_, _| {});
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].result().is_some(), "good cell 0 must complete");
        assert!(outcomes[2].result().is_some(), "good cell 2 must complete");
        match &outcomes[1] {
            runner::CellOutcome::Panicked { msg } => {
                assert!(msg.contains("overlapping regions"), "unexpected msg: {msg}");
            }
            _ => panic!("expected the bad cell to panic"),
        }
    }
}
