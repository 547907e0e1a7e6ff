//! Memo-on vs memo-off equivalence of the engine's access loop.
//!
//! The engine's access loop (DESIGN.md §10, "Fast path soundness")
//! memoizes epoch-stable uncached outcomes, bulk-charges stable L1-MRU
//! hits, and skips the IBS sampler ahead — all claimed bit-identical to
//! the plain per-op loop. `RunOptions::memo = false` turns the three
//! tricks off; these tests run both and assert full `SimResult` equality
//! (`PartialEq` covers every per-epoch record and lifetime counter).
//!
//! The targeted scenarios pin the invalidation edge cases where a stale
//! memo would be visible: shootdowns during a multi-threaded epoch
//! (migration remaps) and demote-then-repromote (split followed by khugepaged collapse). Each
//! test also asserts the scenario actually fired, so a policy change that
//! silences the trigger fails loudly instead of hollowing out the test.

use carrefour_bench::runner::{CellSpec, Workload};
use carrefour_bench::PolicyKind;
use engine::{FaultConfig, RunOptions, SimResult, Simulation};
use numa_topology::MachineSpec;
use proptest::prelude::*;
use workloads::{AccessPattern, RegionSpec, WorkloadSpec};

const BASE: u64 = 64 << 30;

/// Runs `cell` through the engine twice — memo tricks on, then off — and
/// asserts the results are bit-identical. Returns the memo-on result so
/// callers can assert their scenario actually triggered.
fn assert_fastpath_equivalent(cell: &CellSpec) -> SimResult {
    let wspec = cell.workload.spec(&cell.machine);
    let config = cell.sim_config();
    let [fast, slow] = [true, false].map(|memo| {
        let opts = RunOptions {
            memo,
            ..RunOptions::default()
        };
        let mut policy = cell.make_policy();
        Simulation::run_with(&cell.machine, &wspec, &config, policy.as_mut(), opts).result()
    });
    assert_eq!(
        fast, slow,
        "memo tricks diverged from the plain loop for {}/{}",
        fast.workload, fast.policy
    );
    fast
}

/// A small multi-threaded workload over one region.
fn spec(name: &str, mib: u64, pattern: AccessPattern, write_fraction: f64) -> WorkloadSpec {
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
        ops_per_round: 400,
        compute_rounds: 10,
        think_cycles_per_op: 10,
        write_fraction,
        phases: Vec::new(),
        mlp: 1,
    }
}

fn cell(workload: WorkloadSpec, kind: PolicyKind, faults: Option<FaultConfig>) -> CellSpec {
    CellSpec {
        machine: MachineSpec::test_machine(),
        workload: Workload::Custom(workload),
        kind,
        seed: Some(7),
        faults,
        label: None,
        lp_params: None,
        family: None,
    }
}

/// Shootdowns during a multi-threaded epoch: migrations remap pages while
/// every core is mid-stream, so each shootdown must clear the memo table
/// for all threads, not just the migrating one. The region is skewed onto
/// node 0 and larger than the combined L3, so DRAM-serviced samples engage
/// Carrefour and its interleaving migrates pages mid-run.
#[test]
fn shootdown_during_multithread_epoch_is_bit_identical() {
    let mut w = spec("shootdown", 32, AccessPattern::SharedUniform, 0.4);
    w.regions[0].alloc_skew = 1.0;
    w.ops_per_round = 1000;
    w.compute_rounds = 150;
    assert!(w.threads > 1, "scenario needs multiple threads");
    let r = assert_fastpath_equivalent(&cell(w, PolicyKind::Carrefour4k, None));
    let vm = &r.lifetime.vmem;
    assert!(
        vm.migrations_4k + vm.migrations_2m > 0,
        "scenario did not migrate (no shootdowns exercised): {vm:?}"
    );
}

/// Demote-then-repromote: Carrefour-LP splits a hot huge page, khugepaged
/// later re-collapses the run — two generation bumps bracketing epochs in
/// which the 4 KiB children are accessed through the fast path.
#[test]
fn demote_then_repromote_is_bit_identical() {
    let w = spec("demote-repromote", 8, AccessPattern::SharedUniform, 0.5);
    let r = assert_fastpath_equivalent(&cell(w, PolicyKind::CarrefourLp, None));
    let vm = &r.lifetime.vmem;
    assert!(vm.splits > 0, "scenario did not split a huge page: {vm:?}");
    assert!(
        vm.collapses > 0,
        "scenario did not re-promote after the split: {vm:?}"
    );
}

proptest! {
    /// Random workload shapes, seeds, policies, and **nonzero fault
    /// plans** produce bit-identical `SimResult`s with the memo tricks on
    /// and off. Fault injection is the nastiest case: injected failures
    /// (busy pins, allocation vetoes, dropped samples) perturb policy
    /// actions mid-epoch, exactly where a stale memo would surface.
    #[test]
    fn fastpath_is_bit_identical_under_faults(
        mib in 2u64..6,
        seed in 0u64..=u64::MAX,
        fault_seed in 1u64..u64::MAX,
        rate in 0.01f64..0.5,
        write_fraction in 0.0f64..0.6,
        pattern in [AccessPattern::PrivateSlices, AccessPattern::SharedUniform, AccessPattern::Stream { stride: 64 }].as_slice(),
        kind in [
            PolicyKind::Linux4k,
            PolicyKind::LinuxThp,
            PolicyKind::Carrefour4k,
            PolicyKind::CarrefourLp,
            PolicyKind::CarrefourLpNoRetry,
        ].as_slice(),
    ) {
        let w = spec("fp-prop", mib, pattern, write_fraction);
        let mut c = cell(w, kind, Some(FaultConfig::uniform(fault_seed, rate)));
        c.seed = Some(seed);
        assert_fastpath_equivalent(&c);
    }
}
