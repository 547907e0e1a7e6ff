//! The fork tree's recorded-comparison skip rule on real boundaries
//! (DESIGN.md §15).
//!
//! A member counts as matching a boundary without replaying it when its
//! parameters reproduce every comparison the class head recorded there
//! (`NumaPolicy::decides_alike`) and its state is the head's. These tests
//! record every boundary of the three machine-B families the
//! `lp-sweep-fork` benchmark runs — CG.D, SSCA.20 and UA.C under its first
//! grid point (split gain 2.5 pp, hot-page fraction 0.03), seed 42 — with
//! the head's pre-decision policy bytes. Whenever the rule says "same"
//! for a parameterisation, a replay of that parameterisation from the
//! head's bytes must give the head's output fingerprint.

use carrefour::{CarrefourLp, LpParams};
use carrefour_bench::runner::CellSpec;
use carrefour_bench::PolicyKind;
use engine::{
    epoch_output_fingerprint, Comparison, EpochCtx, EpochDecision, NumaPolicy, RunHook, RunOptions,
    Simulation,
};
use numa_topology::MachineSpec;
use profiling::{EpochCounters, IbsSample};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use vmem::ThpControls;
use workloads::Benchmark;

/// One boundary of a head's run: the policy's inputs and outputs, the
/// comparisons it recorded and its state as the boundary opened.
struct Boundary {
    epoch: u32,
    counters: EpochCounters,
    samples: Vec<IbsSample>,
    thp: ThpControls,
    fingerprint: u64,
    comparisons: Vec<Comparison>,
    before: Vec<u8>,
}

/// Records every boundary; saying it may capture everywhere makes the
/// engine hand over the pre-decision bytes, and never asking for a
/// capture keeps the run plain.
#[derive(Default)]
struct Recorder {
    boundaries: Vec<Boundary>,
}

impl RunHook for Recorder {
    fn may_capture(&mut self, _epoch: u32) -> bool {
        true
    }

    fn on_decision(&mut self, d: &EpochDecision<'_>) -> bool {
        self.boundaries.push(Boundary {
            epoch: d.epoch,
            counters: d.counters.clone(),
            samples: d.samples.to_vec(),
            thp: d.thp,
            fingerprint: d.fingerprint,
            comparisons: d.comparisons.to_vec(),
            before: d.policy_before.expect("may_capture said yes").to_vec(),
        });
        false
    }
}

/// The head of each `lp-sweep-fork` family.
fn head_params() -> LpParams {
    let mut p = LpParams::default();
    p.thresholds.split_gain_pp = 2.5;
    p.thresholds.hot_page_fraction = 0.03;
    p
}

fn record(bench: Benchmark) -> Vec<Boundary> {
    let mut spec = CellSpec::new(MachineSpec::machine_b(), bench, PolicyKind::CarrefourLp);
    spec.seed = Some(42);
    spec.lp_params = Some(head_params());
    let (config, wspec) = (spec.sim_config(), spec.workload.spec(&spec.machine));
    let mut policy = spec.make_policy();
    let mut recorder = Recorder::default();
    let opts = RunOptions {
        hook: Some(&mut recorder),
        ..RunOptions::default()
    };
    Simulation::run_with(&spec.machine, &wspec, &config, policy.as_mut(), opts);
    recorder.boundaries
}

/// The three families' boundaries, recorded once per test binary.
fn families() -> &'static [(Benchmark, Vec<Boundary>)] {
    static FAMILIES: OnceLock<Vec<(Benchmark, Vec<Boundary>)>> = OnceLock::new();
    FAMILIES.get_or_init(|| {
        std::env::set_var("CARREFOUR_QUIET", "1");
        std::thread::scope(|s| {
            let runs: Vec<_> = [Benchmark::CgD, Benchmark::Ssca, Benchmark::UaC]
                .into_iter()
                .map(|b| (b, s.spawn(move || record(b))))
                .collect();
            runs.into_iter()
                .map(|(b, h)| (b, h.join().expect("recording run")))
                .collect()
        })
    })
}

/// Replays `b` on `policy`, restored from the head's bytes, and returns
/// its output fingerprint.
fn replay_from_head(b: &Boundary, mut policy: CarrefourLp) -> u64 {
    let machine = MachineSpec::machine_b();
    policy.restore_state(&b.before);
    let mut ctx = EpochCtx::new(&machine, &b.counters, &b.samples, b.thp, b.epoch);
    ctx.enable_decision_log();
    policy.on_epoch(&mut ctx);
    epoch_output_fingerprint(b.epoch, &ctx.take_actions(), &ctx.take_decisions())
}

/// Random parameters around the head's: each field keeps the head's
/// value with probability 1/2, so that many draws agree with the head on
/// the fields a boundary pins or compares, and some straddle a recorded
/// value.
fn random_params(seed: u64) -> LpParams {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut p = head_params();
    let mut draw = |lo: f64, hi: f64| -> Option<f64> {
        let keep = rng.random_range(0..2u32) == 0;
        let unit = rng.random_range(0..1u64 << 53) as f64 / (1u64 << 53) as f64;
        (!keep).then_some(lo + unit * (hi - lo))
    };
    let t = &mut p.thresholds;
    let c = &mut p.carrefour;
    if let Some(v) = draw(0.0, 0.2) {
        t.walk_miss_enable = v;
    }
    if let Some(v) = draw(0.0, 0.2) {
        t.fault_time_enable = v;
    }
    if let Some(v) = draw(0.0, 40.0) {
        t.carrefour_gain_pp = v;
    }
    if let Some(v) = draw(0.0, 15.0) {
        t.split_gain_pp = v;
    }
    if let Some(v) = draw(0.0, 0.2) {
        t.hot_page_fraction = v;
    }
    if let Some(v) = draw(0.3, 1.0) {
        c.lar_enable_below = v;
    }
    if let Some(v) = draw(0.0, 80.0) {
        c.imbalance_enable_above = v;
    }
    if let Some(v) = draw(0.0, 0.01) {
        c.intensity_min_dram_per_op = v;
    }
    if let Some(v) = draw(1.0, 5.0) {
        c.min_samples_per_page = v as usize;
    }
    if let Some(v) = draw(0.0, 3.0) {
        c.max_migrations_per_epoch = [1024, 2048, 8192][v as usize];
    }
    p
}

/// The head's own parameters reproduce its own comparisons at every
/// boundary, and a replay from its bytes reproduces its fingerprint: the
/// rule can say "same", and the recording is complete enough to replay.
#[test]
fn the_heads_own_parameters_decide_alike_at_every_boundary() {
    for (bench, boundaries) in families() {
        assert!(boundaries.len() > 20, "{bench:?}: {}", boundaries.len());
        for b in boundaries {
            let head = CarrefourLp::with_params(head_params());
            assert!(
                head.decides_alike(&b.comparisons),
                "{bench:?} epoch {}",
                b.epoch
            );
            assert_eq!(
                replay_from_head(b, head),
                b.fingerprint,
                "{bench:?} epoch {}",
                b.epoch
            );
        }
    }
}

proptest! {
    /// Whenever the rule says a random parameterisation decides alike at
    /// a real boundary, its replay from the head's bytes gives the head's
    /// fingerprint.
    #[test]
    fn skipped_members_replay_to_the_heads_fingerprint(seed in 0u64..=u64::MAX) {
        let params = random_params(seed);
        for (bench, boundaries) in families() {
            for b in boundaries {
                let member = CarrefourLp::with_params(params);
                if member.decides_alike(&b.comparisons) {
                    prop_assert_eq!(
                        replay_from_head(b, member),
                        b.fingerprint,
                        "{:?} epoch {}: {:?}",
                        bench,
                        b.epoch,
                        params
                    );
                }
            }
        }
    }
}
