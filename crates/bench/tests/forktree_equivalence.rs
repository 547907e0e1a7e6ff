//! Prefix-sharing equivalence: the fork tree is an execution strategy,
//! never a result change.
//!
//! DESIGN.md §15's correctness bar: a family simulated through
//! `forktree::run_family` — probe, lockstep replay, classes split off
//! and forked (nested ones included), scratch heads, full-match clones —
//! must return, for every cell, the bit-identical `SimResult`
//! (per-epoch records, robustness counters, 19-bucket attribution
//! ledger) *and* trace digest that a from-scratch run of that cell
//! produces. The property test drives random workload shapes, seeds,
//! and random threshold perturbations as the family axis; a fixed family
//! on a machine with small nodes adds migrations that fail onto a full
//! node.

use carrefour::{LpParams, LpThresholds};
use carrefour_bench::forktree;
use carrefour_bench::runner::{CellSpec, Workload};
use carrefour_bench::PolicyKind;
use engine::{DigestSink, RunOptions, SimResult, Simulation, TraceDigest};
use numa_topology::{Interconnect, MachineSpec};
use proptest::prelude::*;
use workloads::{AccessPattern, RegionSpec, WorkloadSpec};

const BASE: u64 = 64 << 30;

/// A small, cheap workload spec (same shape as the runner's props).
fn small_spec(machine: &MachineSpec, mib: u64, pattern: AccessPattern) -> WorkloadSpec {
    WorkloadSpec {
        name: "forktree-prop".to_string(),
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

/// One from-scratch traced run of a cell — the ground truth the fork
/// tree must reproduce bit-for-bit.
fn scratch(spec: &CellSpec) -> (SimResult, TraceDigest) {
    let config = spec.sim_config();
    let wspec = spec.workload.spec(&spec.machine);
    let mut policy = spec.make_policy();
    let mut sink = DigestSink::new();
    let opts = RunOptions {
        hook: Some(&mut sink),
        ..RunOptions::default()
    };
    let mut r =
        Simulation::run_with(&spec.machine, &wspec, &config, policy.as_mut(), opts).result();
    let mut d = sink.into_digest();
    d.runtime_cycles = r.runtime_cycles;
    r.policy = spec.policy_label();
    (r, d)
}

proptest! {
    /// Probe + three siblings (one bit-identical to the probe, two with
    /// perturbed thresholds) under the attribution ledger: every shared
    /// result and digest equals its scratch run's.
    #[test]
    fn forked_family_is_bit_identical_to_scratch_runs(
        mib in 2u64..5,
        seed in 0u64..=u64::MAX,
        pattern in [AccessPattern::PrivateSlices, AccessPattern::SharedUniform].as_slice(),
        split_gain_pp in 0.5f64..10.0,
        hot_page_fraction in 0.01f64..0.12,
        imbalance_enable_above in 10.0f64..45.0,
    ) {
        std::env::set_var("CARREFOUR_QUIET", "1");
        // The ledger rides inside `SimResult`'s `PartialEq`, so turning it
        // on widens the bit-identity claim to all 19 buckets.
        std::env::set_var("CARREFOUR_ATTRIB", "1");
        let machine = MachineSpec::test_machine();
        let wspec = small_spec(&machine, mib, pattern);
        let mk = |params: Option<LpParams>| {
            let mut s = CellSpec::new(machine.clone(), workloads::Benchmark::EpC, PolicyKind::CarrefourLp);
            s.workload = Workload::Custom(wspec.clone());
            s.seed = Some(seed);
            s.family = Some("prop".to_string());
            s.lp_params = params;
            s
        };
        let perturbed = |f: &dyn Fn(&mut LpThresholds)| {
            let mut p = LpParams::default();
            f(&mut p.thresholds);
            p
        };
        let specs = vec![
            mk(None),
            // Same tunables through the `with_params` path: the sibling's
            // whole decision stream matches and the probe result is cloned.
            mk(Some(LpParams::default())),
            mk(Some(perturbed(&|t| {
                t.split_gain_pp = split_gain_pp;
                t.hot_page_fraction = hot_page_fraction;
            }))),
            mk(Some({
                let mut p = LpParams::default();
                p.carrefour.imbalance_enable_above = imbalance_enable_above;
                p
            })),
        ];
        let (shared, stats) = forktree::run_family(&specs, true);
        prop_assert_eq!(stats.cells, specs.len());
        prop_assert_eq!(
            stats.epochs_simulated + stats.epochs_reused,
            shared.iter().map(|c| c.result.epochs.len() as u64).sum::<u64>(),
            "every epoch is either simulated or reused"
        );
        for (cell, spec) in shared.iter().zip(&specs) {
            let (want_r, want_d) = scratch(spec);
            prop_assert!(want_r.attribution.is_some(), "ledger must be on");
            prop_assert_eq!(&cell.result, &want_r, "SimResult diverged");
            let got_d = cell.digest.as_ref().expect("traced family returns digests");
            if let Some(diff) = want_d.diff(got_d) {
                prop_assert!(false, "trace digest diverged: {}", diff);
            }
        }
    }
}

/// The identical-tunables sibling short-circuits: zero epochs simulated
/// for it, all reused — and the counters say so.
#[test]
fn full_match_reuses_every_epoch() {
    test_env();
    let machine = MachineSpec::test_machine();
    let mk = || {
        let mut s = CellSpec::new(
            machine.clone(),
            workloads::Benchmark::EpC,
            PolicyKind::CarrefourLp,
        );
        s.family = Some("full".to_string());
        s
    };
    let specs = vec![mk(), mk(), mk()];
    let (cells, stats) = forktree::run_family(&specs, false);
    let epochs = cells[0].result.epochs.len() as u64;
    assert_eq!(stats.full_matches, 2);
    assert_eq!(stats.epochs_simulated, epochs, "only the probe simulated");
    assert_eq!(stats.epochs_reused, 2 * epochs);
    assert_eq!(cells[1].result, {
        let mut r = cells[0].result.clone();
        r.policy = cells[1].result.policy.clone();
        r
    });
}

/// A family whose siblings fork at two distinct epochs ≥ 1 (plus one
/// full match): both resume from the snapshot the probe took at the
/// decision point of their divergent boundary, the probe captures only
/// those two, and every result and digest still equals its from-scratch
/// run.
#[test]
fn forks_at_two_epochs_keep_two_snapshots_and_match_scratch() {
    test_env();
    let machine = MachineSpec::test_machine();
    let mk = |imbalance_enable_above: Option<f64>| {
        let mut s = CellSpec::new(
            machine.clone(),
            workloads::Benchmark::UaB,
            PolicyKind::CarrefourLp,
        );
        s.family = Some("forks".to_string());
        s.lp_params = imbalance_enable_above.map(|v| {
            let mut p = LpParams::default();
            p.carrefour.imbalance_enable_above = v;
            p
        });
        s
    };
    // On the test machine's UA.B, a 10 % trigger first changes a decision
    // at epoch 10 and a 20 % trigger at epoch 18.
    let specs = vec![
        mk(None),
        mk(Some(10.0)),
        mk(Some(LpParams::default().carrefour.imbalance_enable_above)),
        mk(Some(20.0)),
    ];
    let (cells, stats) = forktree::run_family(&specs, true);
    assert_eq!(stats.forks, 2);
    assert_eq!(stats.full_matches, 1);
    assert_eq!(stats.scratch, 0);
    assert_eq!(stats.snapshots_kept, 2);
    assert!(stats.peak_kept_bytes > 0);
    let epochs = cells[0].result.epochs.len() as u64;
    // A fork at boundary `e` reuses epochs `0..=e`.
    assert_eq!(stats.epochs_reused, 11 + epochs + 19);
    // Captured where a class splits off, and only there: the full match
    // costs no snapshot.
    assert_eq!(stats.snapshots_captured, 2);
    assert_matches_scratch(&cells, &specs);
}

/// Every cell's result and traced digest equal its from-scratch run's.
fn assert_matches_scratch(cells: &[forktree::FamilyCell], specs: &[CellSpec]) {
    assert_eq!(cells.len(), specs.len());
    for (cell, spec) in cells.iter().zip(specs) {
        let (want_r, want_d) = scratch(spec);
        assert_eq!(cell.result, want_r, "SimResult diverged");
        let got_d = cell.digest.as_ref().expect("traced family returns digests");
        if let Some(diff) = want_d.diff(got_d) {
            panic!("trace digest diverged: {diff}");
        }
    }
}

/// A test-machine Carrefour-LP family cell on `bench` with `tune`
/// applied to the default tunables (`None`: the defaults themselves).
fn tuned_cell(bench: workloads::Benchmark, tune: Option<&dyn Fn(&mut LpParams)>) -> CellSpec {
    let mut s = CellSpec::new(MachineSpec::test_machine(), bench, PolicyKind::CarrefourLp);
    s.family = Some("recursion".to_string());
    s.lp_params = tune.map(|f| {
        let mut p = LpParams::default();
        f(&mut p);
        p
    });
    s
}

/// Sets the environment every test in this binary runs under. The
/// proptest turns the attribution ledger on for the whole process, so
/// the other tests turn it on too: a family and its scratch twins must
/// read the same config whatever order the tests run in.
fn test_env() {
    std::env::set_var("CARREFOUR_QUIET", "1");
    std::env::set_var("CARREFOUR_ATTRIB", "1");
}

/// On the test machine's UA.C, imbalance triggers of 5, 10 and 20 % and
/// walk-miss triggers of 0.01 and 0.02 all part from the default at
/// epoch 2, the two axes in two different ways. Within each way the
/// cells agree at epoch 2; 20 % then parts from 5 % at epoch 4, and 0.02
/// from 0.01 at epoch 4, while 10 % follows 5 % to the end.
fn ua_c_two_way_family() -> Vec<CellSpec> {
    let imb = |v: f64| move |p: &mut LpParams| p.carrefour.imbalance_enable_above = v;
    let walk = |v: f64| move |p: &mut LpParams| p.thresholds.walk_miss_enable = v;
    let ua = |tune: Option<&dyn Fn(&mut LpParams)>| tuned_cell(workloads::Benchmark::UaC, tune);
    vec![
        ua(None),
        ua(Some(&imb(5.0))),
        ua(Some(&imb(10.0))),
        ua(Some(&imb(20.0))),
        ua(Some(&walk(0.01))),
        ua(Some(&walk(0.02))),
    ]
}

/// Two classes split off the probe at the same epoch 2, and each splits
/// again at epoch 4: four forks (two nested), one full match, and each
/// distinct trajectory simulated once.
#[test]
fn classes_split_at_one_epoch_and_nest() {
    test_env();
    let specs = ua_c_two_way_family();
    let (cells, stats) = forktree::run_family(&specs, true);
    let epochs = cells[0].result.epochs.len() as u64;
    assert_eq!((stats.forks, stats.nested_forks), (4, 2));
    assert_eq!((stats.full_matches, stats.scratch), (1, 0));
    // The probe; the 5 % and 0.01 heads from boundary 2; the 20 % and
    // 0.02 heads from boundary 4.
    assert_eq!(
        stats.epochs_simulated,
        epochs + 2 * (epochs - 3) + 2 * (epochs - 5)
    );
    assert_eq!(stats.epochs_reused, 2 * 3 + 2 * 5 + epochs);
    // Both epoch-2 classes share one snapshot; each nested class claims
    // its head's epoch-4 snapshot.
    assert_eq!(stats.snapshots_kept, 3);
    assert!(stats.peak_kept_bytes > 0);
    // Captured only where a class splits off: the probe at 2, the 5 % and
    // the 0.01 heads at 4 (10 % matches the 5 % head to the end).
    assert_eq!(stats.snapshots_captured, 3);
    assert_matches_scratch(&cells, &specs);
}

/// A forked head's trace digest continues its parent's: the parent's sink,
/// cloned at the snapshot, already holds epochs `0..e` and the rounds of
/// epoch `e`, and the fork's own boundary `e` completes it. The result is
/// the scratch run's digest, with no splicing.
#[test]
fn forked_digest_continues_the_parents_sink() {
    test_env();
    let walk = |p: &mut LpParams| p.thresholds.walk_miss_enable = 0.075;
    let specs = vec![
        tuned_cell(workloads::Benchmark::EpC, None),
        tuned_cell(workloads::Benchmark::EpC, Some(&walk)),
    ];
    let (cells, stats) = forktree::run_family(&specs, true);
    assert_eq!((stats.forks, stats.scratch), (1, 0));
    assert_eq!(stats.snapshots_captured, 1);
    let digest = |i: usize| {
        cells[i]
            .digest
            .as_ref()
            .expect("traced family returns digests")
    };
    let (probe, fork) = (digest(0), digest(1));
    // On the test machine's EpC this threshold parts from the default at
    // boundary 2: the prefix is shared, the split epoch is the fork's own.
    let e = 2;
    assert_eq!(probe.epochs[..e], fork.epochs[..e]);
    assert_ne!(probe.epochs[e], fork.epochs[e]);
    assert_matches_scratch(&cells, &specs);
}

/// The UA.C shape: several cells part from the probe at epoch 0 with
/// equal outputs. They share one fresh head run and clone it, instead of
/// each running from scratch.
#[test]
fn epoch_zero_class_costs_one_fresh_head() {
    test_env();
    let imb = |v: f64| move |p: &mut LpParams| p.carrefour.imbalance_enable_above = v;
    let cg = |tune: Option<&dyn Fn(&mut LpParams)>| tuned_cell(workloads::Benchmark::CgD, tune);
    // On the test machine's CG.D, 5 % and 10 % triggers part from the
    // default at epoch 0 and agree to the end; 25 % matches the default.
    let specs = vec![
        cg(None),
        cg(Some(&imb(5.0))),
        cg(Some(&imb(10.0))),
        cg(Some(&imb(25.0))),
    ];
    let (cells, stats) = forktree::run_family(&specs, true);
    let epochs = cells[0].result.epochs.len() as u64;
    assert_eq!((stats.forks, stats.scratch, stats.full_matches), (0, 1, 2));
    assert_eq!(stats.epochs_simulated, 2 * epochs);
    assert_eq!(stats.epochs_reused, 2 * epochs);
    assert_eq!((stats.snapshots_kept, stats.peak_kept_bytes), (0, 0));
    assert_matches_scratch(&cells, &specs);
}

/// Four one-core nodes of 4 MiB: a 10 MiB region that thread 0
/// first-touches fills node 0 and spills onto the next nodes, so
/// Carrefour-LP's migrations back onto a full node fail with `NoMemory`.
/// The failure counts must survive the fork like any other state.
#[test]
fn family_with_failed_migrations_matches_scratch() {
    test_env();
    let machine = MachineSpec::homogeneous(
        "small-nodes",
        2.0,
        4,
        1,
        4 << 20,
        Interconnect::full_mesh(4),
    );
    let mut wspec = small_spec(&machine, 10, AccessPattern::PrivateSlices);
    wspec.regions[0].alloc_skew = 1.0;
    wspec.ops_per_round = 2000;
    wspec.compute_rounds = 8;
    let mk = |tune: Option<&dyn Fn(&mut LpParams)>| {
        let mut s = CellSpec::new(
            machine.clone(),
            workloads::Benchmark::EpC,
            PolicyKind::CarrefourLp,
        );
        s.workload = Workload::Custom(wspec.clone());
        s.family = Some("full-node".to_string());
        s.lp_params = tune.map(|f| {
            let mut p = LpParams::default();
            f(&mut p);
            p
        });
        s
    };
    let specs = vec![
        mk(None),
        mk(Some(&|p| p.carrefour.max_migrations_per_epoch = 20)),
        mk(Some(&|p| p.carrefour.max_migrations_per_epoch = 12)),
    ];
    let (cells, stats) = forktree::run_family(&specs, true);
    // The two rate limits part from the probe at epoch 3, after the
    // epoch-1 scatter's moves onto full nodes failed: the forked
    // snapshot carries the failure counters.
    assert_eq!((stats.forks, stats.scratch), (2, 0));
    for c in &cells {
        let rb = &c.result.robustness;
        assert!(rb.failed_migrations > 0, "no migration failed: {rb:?}");
        // Every failure, a scatter's sub-page moves included, lands in
        // its epoch's record.
        let per_epoch: u64 = c.result.epochs.iter().map(|e| e.failed_actions).sum();
        assert_eq!(per_epoch, rb.failed_migrations + rb.failed_splits, "{rb:?}");
    }
    assert_matches_scratch(&cells, &specs);
}

/// A one-byte budget refuses every claim: each class head runs from
/// scratch, nested ones included, while its members still share its run.
#[test]
fn refused_claims_run_heads_fresh_and_members_still_share() {
    test_env();
    let specs = ua_c_two_way_family();
    let (cells, stats) = forktree::run_family_within(&specs, true, 1);
    let epochs = cells[0].result.epochs.len() as u64;
    assert_eq!((stats.forks, stats.nested_forks), (0, 0));
    assert_eq!((stats.full_matches, stats.scratch), (1, 4));
    assert_eq!(stats.epochs_simulated, 5 * epochs);
    assert_eq!(stats.epochs_reused, epochs);
    assert_eq!((stats.snapshots_kept, stats.peak_kept_bytes), (0, 0));
    assert_matches_scratch(&cells, &specs);
}
