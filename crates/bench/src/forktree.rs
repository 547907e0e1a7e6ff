//! Checkpoint-forked prefix sharing: simulate a *family* of cells that
//! differ only in policy parameters as one fork tree instead of N
//! independent runs (DESIGN.md §15).
//!
//! The first cell of a family is the **probe**: it runs in full under a
//! [`engine::RunHook`] that records, at every epoch boundary, the
//! policy's inputs (counters, filtered samples, THP switches, fed-back
//! failures) and a fingerprint of its *outputs* (action queue, decision
//! log, retry count — [`engine::epoch_output_fingerprint`]).
//!
//! Every sibling *replays* its own fresh policy over each boundary as the
//! probe records it — no simulation, just `on_epoch` calls — comparing
//! output fingerprints in lockstep with the probe. The induction that
//! makes this sound: as long as every earlier boundary's outputs matched
//! the probe's, the sibling's simulation would have evolved
//! bit-identically, so the recorded inputs *are* the inputs the sibling
//! would have seen. At the first mismatch (epoch `e`), only epochs `e..`
//! can differ, and the sibling claims the ckpt-v1 snapshot the probe took
//! at the start of epoch `e`. The hook asks for a snapshot only while some
//! sibling still matches, and drops each one that no sibling claimed when
//! its boundary ends, so a family holds only the snapshots a fork will
//! resume from.
//!
//! After the probe, a diverged sibling resumes from its claim via a
//! [`Start::Fork`] run, which restores the simulation state but leaves
//! the policy alone (the checkpoint holds the *probe's* policy bytes).
//! The sibling's policy state at `e` is rebuilt by replaying a fresh
//! instance over boundaries `0..e` — already verified equal, so the
//! replay is cheap and exact. Claimed bytes are bounded by
//! [`CLAIM_BUDGET_BYTES`]; a claim over the bound, or a divergence at
//! epoch 0 (no snapshot precedes it), runs the sibling from scratch,
//! which only ever costs reuse, never correctness.

use crate::runner::CellSpec;
use engine::{
    Checkpoint, DigestSink, EpochBoundary, EpochCtx, FailedAction, NumaPolicy, RunHook, RunOptions,
    SimResult, Simulation, Start, TraceDigest, TraceSink,
};
use numa_topology::MachineSpec;
use profiling::{EpochCounters, IbsSample};
use std::rc::Rc;
use std::time::Instant;
use vmem::ThpControls;

/// The most snapshot bytes one family keeps claimed at once. A claim that
/// would exceed it is refused and its sibling runs from scratch.
pub const CLAIM_BUDGET_BYTES: usize = 256 << 20;

/// Everything the policy saw and produced at one epoch boundary of the
/// probe run — the replay substrate for sibling cells.
struct BoundaryRecord {
    epoch: u32,
    counters: EpochCounters,
    samples: Vec<IbsSample>,
    thp: ThpControls,
    /// `Some` exactly when the engine fed failures (fault-injected runs).
    failures: Option<Vec<FailedAction>>,
    fingerprint: u64,
}

impl BoundaryRecord {
    fn new(b: &EpochBoundary<'_>) -> Self {
        BoundaryRecord {
            epoch: b.epoch,
            counters: b.counters.clone(),
            samples: b.samples.to_vec(),
            thp: b.thp,
            failures: b.failures.map(<[FailedAction]>::to_vec),
            fingerprint: b.fingerprint,
        }
    }
}

/// Where a sibling stands against the probe's decision stream.
enum Sibling {
    /// Every boundary so far matched; holds the sibling's fresh policy,
    /// replayed up to the probe's last boundary.
    Matching(Box<dyn NumaPolicy>),
    /// Outputs differed at some boundary. Holds the claimed snapshot of
    /// that epoch's start, or `None` when there is none to resume from
    /// (epoch 0, or the claim budget was spent).
    Diverged(Option<Rc<Checkpoint>>),
    /// Shares nothing with the probe: its policy name or sample appetite
    /// differs (see [`run_family`]).
    Excluded,
}

/// The probe-side hook: records each boundary, replays every matching
/// sibling over it, and keeps the snapshot a diverging sibling claims.
struct Lockstep<'m> {
    machine: &'m MachineSpec,
    records: Vec<BoundaryRecord>,
    siblings: Vec<Sibling>,
    /// The snapshot taken at the start of the epoch in flight.
    pending: Option<Rc<Checkpoint>>,
    budget: usize,
    kept_bytes: usize,
    captured: u64,
    kept: u64,
    replay_secs: f64,
}

impl Lockstep<'_> {
    fn any_matching(&self) -> bool {
        self.siblings
            .iter()
            .any(|s| matches!(s, Sibling::Matching(_)))
    }

    /// The pending snapshot for a sibling diverging at `epoch`: shared if
    /// another sibling already claimed it, kept if it fits the budget.
    fn claim(&mut self, epoch: u32) -> Option<Rc<Checkpoint>> {
        let snap = self.pending.as_ref().filter(|c| c.epoch() == epoch)?;
        if Rc::strong_count(snap) == 1 {
            let size = snap.size_bytes();
            if self.kept_bytes + size > self.budget {
                return None;
            }
            self.kept_bytes += size;
            self.kept += 1;
        }
        Some(Rc::clone(snap))
    }
}

impl RunHook for Lockstep<'_> {
    fn on_boundary(&mut self, b: &EpochBoundary<'_>) {
        if !self.any_matching() {
            return;
        }
        let rec = BoundaryRecord::new(b);
        let t = Instant::now();
        for i in 0..self.siblings.len() {
            let Sibling::Matching(policy) = &mut self.siblings[i] else {
                continue;
            };
            if replay_boundary(self.machine, &rec, policy.as_mut()) != rec.fingerprint {
                self.siblings[i] = Sibling::Diverged(self.claim(rec.epoch));
            }
        }
        self.records.push(rec);
        // Unclaimed, the snapshot of the epoch that just closed is dead.
        self.pending = None;
        self.replay_secs += t.elapsed().as_secs_f64();
    }

    fn want_checkpoint(&mut self, _epoch: u32) -> bool {
        self.any_matching()
    }

    fn on_checkpoint(&mut self, ckpt: Checkpoint) {
        self.captured += 1;
        self.pending = Some(Rc::new(ckpt));
    }

    fn finish(&mut self) {
        // The snapshot after the final boundary: no boundary follows it,
        // so nobody can diverge into it.
        self.pending = None;
    }
}

/// Feeds one recorded boundary to `policy` and returns its output
/// fingerprint. The decision log is enabled to mirror the probe run
/// (which always has a hook attached).
fn replay_boundary(
    machine: &MachineSpec,
    rec: &BoundaryRecord,
    policy: &mut dyn NumaPolicy,
) -> u64 {
    let mut ctx = EpochCtx::new(machine, &rec.counters, &rec.samples, rec.thp, rec.epoch);
    if let Some(f) = &rec.failures {
        ctx.set_failures(f);
    }
    ctx.enable_decision_log();
    policy.on_epoch(&mut ctx);
    let actions = ctx.take_actions();
    let decisions = ctx.take_decisions();
    let retries = ctx.retries_recorded();
    engine::epoch_output_fingerprint(rec.epoch, &actions, &decisions, retries)
}

/// Per-family execution counters, persisted into `BENCH_runner.json`
/// (bench-runner-v4) and `SWEEP_lp.json` (sweep-v1). Replay boundary
/// evaluations are *not* simulated epochs — no rounds run during replay.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FamilyStats {
    /// Cells in the family (including the probe).
    pub cells: usize,
    /// Epochs actually executed through the engine.
    pub epochs_simulated: u64,
    /// Epochs restored from the shared prefix instead of executed.
    pub epochs_reused: u64,
    /// Siblings whose whole decision stream matched the probe's.
    pub full_matches: u64,
    /// Siblings resumed from a checkpoint mid-run.
    pub forks: u64,
    /// Siblings run from epoch 0 (divergence at epoch 0, a claim over
    /// [`CLAIM_BUDGET_BYTES`], or a policy-name mismatch).
    pub scratch: u64,
    /// Snapshots the probe captured (one per boundary while a sibling
    /// still matched).
    pub snapshots_captured: u64,
    /// Snapshots a diverging sibling claimed: one per distinct divergence
    /// epoch ≥ 1 within the budget. The rest were dropped at once.
    pub snapshots_kept: u64,
    /// Bytes of the kept snapshots, all alive when the probe ends; merged
    /// families report the largest.
    pub peak_kept_bytes: u64,
    /// Host seconds of the probe's own run, lockstep replays excluded.
    pub probe_secs: f64,
    /// Host seconds spent replaying recorded boundaries (the lockstep
    /// divergence search plus forked-policy prefix rebuilds) — the price
    /// of asking "can this sibling share?".
    pub replay_secs: f64,
    /// Host seconds simulating forked siblings' tails.
    pub resume_secs: f64,
    /// Host seconds cloning full-match results off the probe.
    pub clone_secs: f64,
    /// Host seconds of scratch fallback runs.
    pub scratch_secs: f64,
}

impl FamilyStats {
    /// Merges another family's counters into this one (suite totals).
    pub fn absorb(&mut self, other: &FamilyStats) {
        self.cells += other.cells;
        self.epochs_simulated += other.epochs_simulated;
        self.epochs_reused += other.epochs_reused;
        self.full_matches += other.full_matches;
        self.forks += other.forks;
        self.scratch += other.scratch;
        self.snapshots_captured += other.snapshots_captured;
        self.snapshots_kept += other.snapshots_kept;
        self.peak_kept_bytes = self.peak_kept_bytes.max(other.peak_kept_bytes);
        self.probe_secs += other.probe_secs;
        self.replay_secs += other.replay_secs;
        self.resume_secs += other.resume_secs;
        self.clone_secs += other.clone_secs;
        self.scratch_secs += other.scratch_secs;
    }
}

/// One cell's output from a family run: the result, plus its trace
/// digest when the family ran traced.
pub struct FamilyCell {
    /// The simulation result, bit-identical to a from-scratch run.
    pub result: SimResult,
    /// Present iff [`run_family`] was called with `traced = true`.
    pub digest: Option<TraceDigest>,
}

/// Splices a forked sibling's digest: the probe's verified prefix
/// (epochs `0..fork_epoch`) plus the resumed tail. Sound because epoch 0
/// is the only epoch whose hash covers `RunStart` (workload, policy
/// *name*, machine, seed) — all equal across a family with equal policy
/// names — and resumed runs emit no `RunStart` of their own.
fn splice_digest(
    probe: &TraceDigest,
    tail: TraceDigest,
    fork_epoch: u32,
    runtime_cycles: u64,
) -> TraceDigest {
    let mut epochs: Vec<_> = probe.epochs[..fork_epoch as usize].to_vec();
    epochs.extend(tail.epochs);
    TraceDigest {
        workload: probe.workload.clone(),
        policy: probe.policy.clone(),
        machine: probe.machine.clone(),
        seed: probe.seed,
        runtime_cycles,
        epochs,
    }
}

/// Runs a family of cells through the fork tree. `specs` must be
/// non-empty and agree on [`CellSpec::family_key`] (the caller groups);
/// the first cell is the probe. With `traced = true` every cell also
/// returns its [`TraceDigest`] — bit-identical to a from-scratch traced
/// run's (the forktree equivalence test enforces this).
pub fn run_family(specs: &[CellSpec], traced: bool) -> (Vec<FamilyCell>, FamilyStats) {
    run_family_within(specs, traced, CLAIM_BUDGET_BYTES)
}

/// [`run_family`] with claimed snapshots bounded by `budget` bytes.
pub(crate) fn run_family_within(
    specs: &[CellSpec],
    traced: bool,
    budget: usize,
) -> (Vec<FamilyCell>, FamilyStats) {
    assert!(!specs.is_empty(), "a family needs at least one cell");
    if specs.len() == 1 {
        // A lone cell has nobody to share with: plain run, no hook (which
        // would record boundaries for nothing).
        let spec = &specs[0];
        let config = spec.sim_config();
        let wspec = spec.workload.spec(&spec.machine);
        let mut stats = FamilyStats {
            cells: 1,
            ..FamilyStats::default()
        };
        let cell = run_scratch(spec, &spec.machine, &wspec, &config, traced, &mut stats);
        stats.scratch = 0; // a lone probe is a plain run, not a fallback
        stats.probe_secs = std::mem::take(&mut stats.scratch_secs);
        return (vec![cell], stats);
    }
    let key = specs[0].family_key();
    assert!(
        key.is_some(),
        "family cells must opt in via CellSpec::family"
    );
    assert!(
        specs.iter().all(|s| s.family_key() == key),
        "every cell in a family must share its family_key"
    );

    let probe_spec = &specs[0];
    let machine = &probe_spec.machine;
    let config = probe_spec.sim_config();
    let wspec = probe_spec.workload.spec(machine);

    let mut stats = FamilyStats {
        cells: specs.len(),
        ..FamilyStats::default()
    };
    let mut out = Vec::with_capacity(specs.len());

    // --- Probe: one full observed run, siblings replayed in lockstep. ---
    let probe_t = Instant::now();
    let mut probe_policy = probe_spec.make_policy();
    let probe_name = probe_policy.name().to_string();
    let probe_consumes = probe_policy.consumes_samples();
    let siblings = specs[1..]
        .iter()
        .map(|spec| {
            let fresh = spec.make_policy();
            // Digest splicing hashes the policy name into epoch 0:
            // different names never share. Nor does a sibling that reads
            // samples the probe's run did not store.
            if fresh.name() == probe_name && fresh.consumes_samples() == probe_consumes {
                Sibling::Matching(fresh)
            } else {
                Sibling::Excluded
            }
        })
        .collect();
    let mut lockstep = Lockstep {
        machine,
        records: Vec::new(),
        siblings,
        pending: None,
        budget,
        kept_bytes: 0,
        captured: 0,
        kept: 0,
        replay_secs: 0.0,
    };
    let mut sink = traced.then(DigestSink::new);
    let opts = RunOptions {
        hook: Some(&mut lockstep),
        ..sink_opts(&mut sink)
    };
    let mut probe_result =
        Simulation::run_with(machine, &wspec, &config, probe_policy.as_mut(), opts).result();
    let probe_digest = sink.map(|s| {
        let mut d = s.into_digest();
        d.runtime_cycles = probe_result.runtime_cycles;
        d
    });
    stats.epochs_simulated += probe_result.epochs.len() as u64;
    stats.probe_secs += probe_t.elapsed().as_secs_f64() - lockstep.replay_secs;
    stats.replay_secs += lockstep.replay_secs;
    stats.snapshots_captured = lockstep.captured;
    stats.snapshots_kept = lockstep.kept;
    stats.peak_kept_bytes = lockstep.kept_bytes as u64;
    probe_result.policy = probe_spec.policy_label();
    let probe_plain = {
        // Siblings that fully match clone this (with their own label).
        let mut r = probe_result.clone();
        r.policy.clone_from(&probe_name);
        r
    };
    out.push(FamilyCell {
        result: probe_result,
        digest: probe_digest.clone(),
    });

    // --- Siblings: clone, fork from the claim, or run from scratch. ---
    let Lockstep {
        records, siblings, ..
    } = lockstep;
    for (spec, sibling) in specs[1..].iter().zip(siblings) {
        let ckpt = match sibling {
            Sibling::Matching(_) => {
                // Every boundary's outputs matched: the sibling's run
                // *is* the probe's run.
                let clone_t = Instant::now();
                stats.epochs_reused += probe_plain.epochs.len() as u64;
                stats.full_matches += 1;
                let mut result = probe_plain.clone();
                result.policy = spec.policy_label();
                out.push(FamilyCell {
                    result,
                    digest: probe_digest.clone(),
                });
                stats.clone_secs += clone_t.elapsed().as_secs_f64();
                continue;
            }
            Sibling::Diverged(Some(ckpt)) => ckpt,
            Sibling::Diverged(None) | Sibling::Excluded => {
                out.push(run_scratch(
                    spec, machine, &wspec, &config, traced, &mut stats,
                ));
                continue;
            }
        };
        let fork_epoch = ckpt.epoch();
        // Rebuild the sibling's policy state at the fork point: a fresh
        // instance replayed over the already-verified prefix. (The
        // lockstep instance processed the divergent boundary, so its
        // state was past the fork point.)
        let rebuild_t = Instant::now();
        let mut forked = spec.make_policy();
        for rec in &records[..fork_epoch as usize] {
            replay_boundary(machine, rec, forked.as_mut());
        }
        stats.replay_secs += rebuild_t.elapsed().as_secs_f64();
        let resume_t = Instant::now();
        let mut sink = traced.then(DigestSink::new);
        let opts = RunOptions {
            start: Start::Fork(&ckpt),
            ..sink_opts(&mut sink)
        };
        let mut result =
            Simulation::run_with(machine, &wspec, &config, forked.as_mut(), opts).result();
        let digest = sink.map(|s| {
            let probe_d = probe_digest.as_ref().expect("traced probe has a digest");
            splice_digest(probe_d, s.into_digest(), fork_epoch, result.runtime_cycles)
        });
        stats.epochs_reused += u64::from(fork_epoch);
        stats.epochs_simulated += result.epochs.len() as u64 - u64::from(fork_epoch);
        stats.resume_secs += resume_t.elapsed().as_secs_f64();
        stats.forks += 1;
        result.policy = spec.policy_label();
        out.push(FamilyCell { result, digest });
    }

    (out, stats)
}

/// Default run options, traced into `sink` when there is one.
fn sink_opts(sink: &mut Option<DigestSink>) -> RunOptions<'_> {
    RunOptions {
        sink: sink.as_mut().map(|s| s as &mut dyn TraceSink),
        ..RunOptions::default()
    }
}

/// The no-sharing fallback: one full run, counted as such.
fn run_scratch(
    spec: &CellSpec,
    machine: &MachineSpec,
    wspec: &workloads::WorkloadSpec,
    config: &engine::SimConfig,
    traced: bool,
    stats: &mut FamilyStats,
) -> FamilyCell {
    let t = Instant::now();
    let mut policy = spec.make_policy();
    let mut sink = traced.then(DigestSink::new);
    let mut result = Simulation::run_with(
        machine,
        wspec,
        config,
        policy.as_mut(),
        sink_opts(&mut sink),
    )
    .result();
    let digest = sink.map(|s| {
        let mut d = s.into_digest();
        d.runtime_cycles = result.runtime_cycles;
        d
    });
    stats.epochs_simulated += result.epochs.len() as u64;
    stats.scratch += 1;
    stats.scratch_secs += t.elapsed().as_secs_f64();
    result.policy = spec.policy_label();
    FamilyCell { result, digest }
}

/// Groups specs into families (by [`CellSpec::family_key`], preserving
/// first-seen order) and runs each through [`run_family`]; specs without
/// a family tag each form a singleton "family" of one scratch run.
/// Returns per-spec cells in the input order plus merged counters keyed
/// by family tag.
pub fn run_grouped(
    specs: &[CellSpec],
    traced: bool,
) -> (Vec<FamilyCell>, Vec<(String, FamilyStats)>) {
    let mut order: Vec<String> = Vec::new();
    let mut groups: std::collections::HashMap<String, Vec<usize>> =
        std::collections::HashMap::new();
    for (i, s) in specs.iter().enumerate() {
        let key = s
            .family_key()
            .unwrap_or_else(|| format!("<solo #{i}> {}", s.key()));
        groups.entry(key.clone()).or_insert_with(|| {
            order.push(key.clone());
            Vec::new()
        });
        groups.get_mut(&key).expect("just inserted").push(i);
    }
    let mut cells: Vec<Option<FamilyCell>> = (0..specs.len()).map(|_| None).collect();
    let mut all_stats = Vec::with_capacity(order.len());
    for key in order {
        let idxs = &groups[&key];
        let family: Vec<CellSpec> = idxs.iter().map(|&i| specs[i].clone()).collect();
        let (ran, stats) = run_family(&family, traced);
        for (&i, cell) in idxs.iter().zip(ran) {
            cells[i] = Some(cell);
        }
        all_stats.push((key, stats));
    }
    (
        cells
            .into_iter()
            .map(|c| c.expect("every index ran"))
            .collect(),
        all_stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;
    use numa_topology::MachineSpec;
    use workloads::Benchmark;

    fn family_spec(params: Option<carrefour::LpParams>) -> CellSpec {
        let mut s = CellSpec::new(
            MachineSpec::test_machine(),
            Benchmark::EpC,
            PolicyKind::CarrefourLp,
        );
        s.family = Some("t".into());
        s.lp_params = params;
        s
    }

    /// Sibling whose walk-miss re-enable threshold makes its decisions
    /// differ from the probe's at `EpC`'s epoch 2 on the test machine.
    fn walk_miss_sibling(walk_miss_enable: f64) -> CellSpec {
        let mut p = carrefour::LpParams::default();
        p.thresholds.walk_miss_enable = walk_miss_enable;
        family_spec(Some(p))
    }

    #[test]
    fn full_match_family_keeps_no_snapshot() {
        let specs = vec![family_spec(None), family_spec(None), family_spec(None)];
        let (cells, stats) = run_family(&specs, false);
        assert_eq!(stats.full_matches, 2);
        // One capture per boundary the probe closed, each dropped unclaimed.
        assert_eq!(
            stats.snapshots_captured,
            cells[0].result.epochs.len() as u64
        );
        assert_eq!(stats.snapshots_kept, 0);
        assert_eq!(stats.peak_kept_bytes, 0);
    }

    #[test]
    fn siblings_diverging_together_share_one_snapshot() {
        let specs = vec![
            family_spec(None),
            walk_miss_sibling(0.075),
            walk_miss_sibling(0.1),
        ];
        let (_, stats) = run_family(&specs, false);
        assert_eq!(stats.forks, 2);
        assert_eq!(stats.epochs_reused, 2 * 2, "both resume at epoch 2");
        assert_eq!(stats.snapshots_kept, 1);
        assert!(stats.peak_kept_bytes > 0);
        assert_eq!(
            stats.snapshots_captured, 2,
            "no capture once no sibling still matches"
        );
    }

    #[test]
    fn budget_below_one_snapshot_runs_forks_from_scratch() {
        let specs = vec![family_spec(None), walk_miss_sibling(0.075)];
        let (forked, forked_stats) = run_family(&specs, false);
        assert_eq!(forked_stats.forks, 1);
        let (starved, stats) = run_family_within(&specs, false, 1);
        assert_eq!((stats.forks, stats.scratch), (0, 1));
        assert_eq!((stats.snapshots_kept, stats.peak_kept_bytes), (0, 0));
        assert_eq!(stats.epochs_reused, 0);
        for (a, b) in forked.iter().zip(&starved) {
            assert_eq!(a.result, b.result);
        }
    }

    #[test]
    fn identical_sibling_is_a_full_match() {
        let specs = vec![family_spec(None), family_spec(None)];
        let (cells, stats) = run_family(&specs, false);
        assert_eq!(stats.full_matches, 1);
        assert_eq!(stats.scratch, 0);
        assert_eq!(
            cells[0].result.runtime_cycles,
            cells[1].result.runtime_cycles
        );
        assert_eq!(stats.epochs_reused, cells[0].result.epochs.len() as u64);
    }

    #[test]
    fn grouped_run_returns_input_order() {
        let mut solo = CellSpec::new(
            MachineSpec::test_machine(),
            Benchmark::EpC,
            PolicyKind::Linux4k,
        );
        solo.label = Some("solo".into());
        let specs = vec![family_spec(None), solo, family_spec(None)];
        let (cells, stats) = run_grouped(&specs, false);
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[1].result.policy, "solo");
        assert_eq!(stats.len(), 2, "one family plus one singleton");
    }
}
