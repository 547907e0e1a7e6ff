//! Checkpoint-forked prefix sharing: simulate a *family* of cells that
//! differ only in policy parameters as one fork tree instead of N
//! independent runs (DESIGN.md §15).
//!
//! The first cell of a family is the **probe**: it runs in full under a
//! [`engine::RunHook`] that records, at every epoch boundary, the
//! policy's inputs (counters, filtered samples, THP switches, fed-back
//! failures) and a fingerprint of its *outputs* (action queue, decision
//! log, retry count — [`engine::epoch_output_fingerprint`]), and snapshots
//! a ckpt-v1 checkpoint into an LRU cache bounded by
//! `CARREFOUR_FORK_CACHE_MB`.
//!
//! Every sibling then *replays* its own fresh policy over the recorded
//! inputs — no simulation, just `on_epoch` calls — comparing output
//! fingerprints epoch by epoch. The induction that makes this sound: as
//! long as every earlier boundary's outputs matched the probe's, the
//! sibling's simulation would have evolved bit-identically, so the
//! recorded inputs *are* the inputs the sibling would have seen. At the
//! first mismatch (epoch `e`), only epochs `e..` can differ; the sibling
//! resumes from the deepest cached checkpoint `j ≤ e` via
//! a [`Start::Fork`] run, which restores the simulation state but
//! leaves the policy alone (the checkpoint holds the *probe's* policy
//! bytes). The sibling's policy state at `j` is rebuilt by replaying a
//! fresh instance over boundaries `0..j` — already verified equal, so the
//! replay is cheap and exact. Cache eviction only ever costs reuse, never
//! correctness: with no usable checkpoint the sibling runs from scratch.

use crate::runner::CellSpec;
use engine::{
    Checkpoint, DigestSink, EpochBoundary, EpochCtx, FailedAction, NumaPolicy, RunHook, RunOptions,
    SimResult, Simulation, Start, TraceDigest, TraceSink,
};
use numa_topology::MachineSpec;
use profiling::{EpochCounters, IbsSample};
use std::time::Instant;
use vmem::ThpControls;

/// Default checkpoint-cache budget when `CARREFOUR_FORK_CACHE_MB` is
/// unset (or unparseable — [`crate::env_override_u32`] warns and falls
/// back here). The budget is per family; families running concurrently
/// each get their own cache.
pub const DEFAULT_CACHE_MB: u32 = 256;

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

/// LRU cache of ckpt-v1 blobs, bounded by a byte budget. Front is
/// least-recently-used; lookups touch. Strictly bounded: a blob larger
/// than the whole budget is evicted on insert (the family then degrades
/// to scratch runs — slower, never wrong).
struct CkptCache {
    budget: usize,
    used: usize,
    entries: Vec<(u32, Checkpoint)>,
}

impl CkptCache {
    fn new(budget: usize) -> Self {
        CkptCache {
            budget,
            used: 0,
            entries: Vec::new(),
        }
    }

    fn insert(&mut self, ckpt: Checkpoint) {
        self.used += ckpt.size_bytes();
        self.entries.push((ckpt.epoch(), ckpt));
        while self.used > self.budget {
            let (_, evicted) = self.entries.remove(0);
            self.used -= evicted.size_bytes();
        }
    }

    /// The deepest cached checkpoint at epoch ≤ `epoch`, touched MRU.
    fn deepest_at_most(&mut self, epoch: u32) -> Option<&Checkpoint> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, (e, _))| *e <= epoch)
            .max_by_key(|(_, (e, _))| *e)?
            .0;
        let entry = self.entries.remove(best);
        self.entries.push(entry);
        Some(&self.entries.last().expect("just pushed").1)
    }
}

/// The probe-side hook: records every boundary and snapshots every
/// epoch ≥ 1 into the LRU cache (one pass instead of O(epochs) re-runs).
struct Recorder {
    records: Vec<BoundaryRecord>,
    cache: CkptCache,
}

impl RunHook for Recorder {
    fn on_boundary(&mut self, b: &EpochBoundary<'_>) {
        self.records.push(BoundaryRecord {
            epoch: b.epoch,
            counters: b.counters.clone(),
            samples: b.samples.to_vec(),
            thp: b.thp,
            failures: b.failures.map(<[FailedAction]>::to_vec),
            fingerprint: b.fingerprint,
        });
    }

    fn want_checkpoint(&mut self, _epoch: u32) -> bool {
        self.cache.budget > 0
    }

    fn on_checkpoint(&mut self, ckpt: Checkpoint) {
        self.cache.insert(ckpt);
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
    /// Siblings run from epoch 0 (divergence before the first cached
    /// checkpoint, cache eviction, or a policy-name mismatch).
    pub scratch: u64,
    /// Host seconds of the probe's full observed run.
    pub probe_secs: f64,
    /// Host seconds spent replaying recorded boundaries (divergence
    /// search plus forked-policy prefix rebuilds) — the price of asking
    /// "can this sibling share?".
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
    assert!(!specs.is_empty(), "a family needs at least one cell");
    if specs.len() == 1 {
        // A lone cell has nobody to share with: plain run, no hook (which
        // would record boundaries and snapshot each one for nothing).
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
    let budget_mb = crate::env_override_u32("CARREFOUR_FORK_CACHE_MB").unwrap_or(DEFAULT_CACHE_MB);
    let mut recorder = Recorder {
        records: Vec::new(),
        cache: CkptCache::new(budget_mb as usize * 1024 * 1024),
    };

    let mut stats = FamilyStats {
        cells: specs.len(),
        ..FamilyStats::default()
    };
    let mut out = Vec::with_capacity(specs.len());

    // --- Probe: one full observed run. ---
    let probe_t = Instant::now();
    let mut probe_policy = probe_spec.make_policy();
    let probe_name = probe_policy.name().to_string();
    let probe_consumes = probe_policy.consumes_samples();
    let mut sink = traced.then(DigestSink::new);
    let opts = RunOptions {
        hook: Some(&mut recorder),
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
    stats.probe_secs += probe_t.elapsed().as_secs_f64();
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

    // --- Siblings: replay, then fork / clone / scratch. ---
    for spec in &specs[1..] {
        let mut fresh = spec.make_policy();
        if fresh.name() != probe_name || fresh.consumes_samples() != probe_consumes {
            // Digest splicing hashes the policy name into epoch 0:
            // different names never share. Nor does a sibling that reads
            // samples the probe's run did not store.
            out.push(run_scratch(
                spec, machine, &wspec, &config, traced, &mut stats,
            ));
            continue;
        }
        let replay_t = Instant::now();
        let mut divergence = None;
        for rec in &recorder.records {
            if replay_boundary(machine, rec, fresh.as_mut()) != rec.fingerprint {
                divergence = Some(rec.epoch);
                break;
            }
        }
        stats.replay_secs += replay_t.elapsed().as_secs_f64();
        let Some(div_epoch) = divergence else {
            // Every boundary's outputs matched: the sibling's run *is*
            // the probe's run.
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
        };
        let Some(ckpt) = recorder.cache.deepest_at_most(div_epoch) else {
            // Diverged at epoch 0, or the cache evicted everything usable.
            out.push(run_scratch(
                spec, machine, &wspec, &config, traced, &mut stats,
            ));
            continue;
        };
        let fork_epoch = ckpt.epoch();
        // Rebuild the sibling's policy state at the fork point: a fresh
        // instance replayed over the already-verified prefix. (`fresh`
        // itself processed the divergent boundary, so its state is past
        // the fork point and cannot be used.)
        let rebuild_t = Instant::now();
        let mut forked = spec.make_policy();
        for rec in &recorder.records[..fork_epoch as usize] {
            replay_boundary(machine, rec, forked.as_mut());
        }
        stats.replay_secs += rebuild_t.elapsed().as_secs_f64();
        let resume_t = Instant::now();
        let mut sink = traced.then(DigestSink::new);
        let opts = RunOptions {
            start: Start::Fork(ckpt),
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

    #[test]
    fn cache_evicts_lru_and_touches_on_lookup() {
        // Budget of ~2.5 blobs: inserting 1,2,3 evicts 1.
        let mk = |epoch| Checkpoint::synthetic_for_tests(epoch, 100);
        let mut c = CkptCache::new(250);
        c.insert(mk(1));
        c.insert(mk(2));
        assert_eq!(c.entries.len(), 2);
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.deepest_at_most(1).unwrap().epoch(), 1);
        c.insert(mk(3));
        let epochs: Vec<u32> = c.entries.iter().map(|(e, _)| *e).collect();
        assert_eq!(epochs, vec![1, 3], "2 was least-recently-used");
        // Deepest-at-most honors the bound, not just presence.
        assert_eq!(c.deepest_at_most(2).unwrap().epoch(), 1);
        assert!(c.deepest_at_most(0).is_none());
    }

    #[test]
    fn oversized_blob_is_evicted_on_insert() {
        let mut c = CkptCache::new(50);
        c.insert(Checkpoint::synthetic_for_tests(1, 100));
        assert!(c.entries.is_empty(), "strictly bounded, even if empty");
        assert_eq!(c.used, 0);
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
