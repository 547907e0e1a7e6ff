//! Prefix-sharing equivalence: the fork tree is an execution strategy,
//! never a result change.
//!
//! DESIGN.md §15's correctness bar: a family simulated through
//! `forktree::run_family` — probe, replay, checkpoint forks, full-match
//! clones — must return, for every cell, the bit-identical `SimResult`
//! (per-epoch records, robustness counters, 19-bucket attribution
//! ledger) *and* trace digest that a from-scratch run of that cell
//! produces. The property test drives random workload shapes, seeds,
//! **nonzero fault plans** (the induction's hard case: fed-back failures
//! and fault RNG state must survive the fork), random threshold
//! perturbations as the family axis.

use carrefour::{LpParams, LpThresholds};
use carrefour_bench::forktree;
use carrefour_bench::runner::{CellSpec, Workload};
use carrefour_bench::PolicyKind;
use engine::{DigestSink, FaultConfig, SimResult, Simulation, TraceDigest};
use numa_topology::MachineSpec;
use proptest::prelude::*;
use workloads::{AccessPattern, RegionSpec, WorkloadSpec};

const BASE: u64 = 64 << 30;

/// A small, cheap workload spec (same shape as the runner's fault props).
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
    let mut r = Simulation::run_traced(&spec.machine, &wspec, &config, policy.as_mut(), &mut sink);
    let mut d = sink.into_digest();
    d.runtime_cycles = r.runtime_cycles;
    r.policy = spec.policy_label();
    (r, d)
}

proptest! {
    /// Probe + three siblings (one bit-identical to the probe, two with
    /// perturbed thresholds) under fault injection and the attribution
    /// ledger: every shared result and digest equals its scratch run's.
    #[test]
    fn forked_family_is_bit_identical_to_scratch_runs(
        mib in 2u64..5,
        seed in 0u64..=u64::MAX,
        fault_seed in 1u64..u64::MAX,
        rate in 0.01f64..0.4,
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
            s.faults = Some(FaultConfig::uniform(fault_seed, rate));
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
    std::env::set_var("CARREFOUR_QUIET", "1");
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
