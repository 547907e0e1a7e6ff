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
//! (migration remaps), demote-then-repromote (split followed by khugepaged
//! collapse) and migrations that fail onto a full node. Each
//! test also asserts the scenario actually fired, so a policy change that
//! silences the trigger fails loudly instead of hollowing out the test.

use carrefour_bench::runner::{CellSpec, Workload};
use carrefour_bench::PolicyKind;
use engine::{RunOptions, SimResult, Simulation};
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

/// Runs `cell` through the engine twice — memo tricks on, then off — and
/// asserts the results are bit-identical. Node 0 starts full when
/// `full_node` is set. Returns the memo-on result so callers can assert
/// their scenario actually triggered.
fn assert_fastpath_equivalent(cell: &CellSpec, full_node: bool) -> SimResult {
    let wspec = cell.workload.spec(&cell.machine);
    let config = cell.sim_config();
    let [fast, slow] = [true, false].map(|memo| {
        let opts = RunOptions {
            setup: full_node.then_some(&fill_node0 as &dyn Fn(&mut AddressSpace)),
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

fn cell(workload: WorkloadSpec, kind: PolicyKind) -> CellSpec {
    CellSpec {
        machine: MachineSpec::test_machine(),
        workload: Workload::Custom(workload),
        kind,
        seed: Some(7),
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
    let r = assert_fastpath_equivalent(&cell(w, PolicyKind::Carrefour4k), false);
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
    let r = assert_fastpath_equivalent(&cell(w, PolicyKind::CarrefourLp), false);
    let vm = &r.lifetime.vmem;
    assert!(vm.splits > 0, "scenario did not split a huge page: {vm:?}");
    assert!(
        vm.collapses > 0,
        "scenario did not re-promote after the split: {vm:?}"
    );
}

/// Failed migrations: with node 0 full, Carrefour-LP's moves onto it fail
/// with `NoMemory` — no remap, no shootdown, while the other threads'
/// memos stay live.
#[test]
fn failed_migrations_onto_a_full_node_are_bit_identical() {
    let w = spec("full-node", 4, AccessPattern::SharedUniform, 0.4);
    let r = assert_fastpath_equivalent(&cell(w, PolicyKind::CarrefourLp), true);
    let rb = &r.robustness;
    assert!(rb.failed_migrations > 0, "no migration failed: {rb:?}");
    let per_epoch: u64 = r.epochs.iter().map(|e| e.failed_actions).sum();
    assert_eq!(
        per_epoch,
        rb.failed_migrations + rb.failed_splits,
        "per-epoch failed_actions must add up to the lifetime counters"
    );
}

proptest! {
    /// Random workload shapes, seeds, policies, and an optionally full
    /// node 0 produce bit-identical `SimResult`s with the memo tricks on
    /// and off.
    #[test]
    fn fastpath_is_bit_identical(
        mib in 2u64..6,
        seed in 0u64..=u64::MAX,
        full_node in [false, true].as_slice(),
        write_fraction in 0.0f64..0.6,
        pattern in [AccessPattern::PrivateSlices, AccessPattern::SharedUniform, AccessPattern::Stream { stride: 64 }].as_slice(),
        kind in [
            PolicyKind::Linux4k,
            PolicyKind::LinuxThp,
            PolicyKind::Carrefour4k,
            PolicyKind::CarrefourLp,
        ].as_slice(),
    ) {
        let w = spec("fp-prop", mib, pattern, write_fraction);
        let mut c = cell(w, kind);
        c.seed = Some(seed);
        assert_fastpath_equivalent(&c, full_node);
    }
}
