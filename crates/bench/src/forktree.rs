//! Checkpoint-forked prefix sharing: simulate a *family* of cells that
//! differ only in policy parameters as one fork tree instead of N
//! independent runs (DESIGN.md §15).
//!
//! Cells run in **classes**. A class's first cell is its **head**, the
//! only one simulated; the others are **members**. The head runs under a
//! [`engine::RunHook`] (`Lockstep`) that sees, at every epoch
//! boundary, the policy's inputs (counters, samples, THP switches) and a
//! fingerprint of its *outputs* (action queue and decision log —
//! [`engine::epoch_output_fingerprint`]), and replays each member's own
//! policy over that boundary — no simulation, just `on_epoch` calls —
//! comparing fingerprints in lockstep. The induction that makes this
//! sound: while every earlier boundary's outputs matched the head's, the
//! member's simulation would have evolved bit-identically, so the
//! head's inputs *are* the inputs the member would have seen. A member
//! that matches to the end is a **full match** and clones the head's
//! result. A member skips the replay where it provably decides as the
//! head did: its state is the head's, and its parameters reproduce every
//! threshold comparison the head's policy recorded there
//! ([`engine::NumaPolicy::decides_alike`]).
//!
//! Members that first differ at the same boundary `e` with the same
//! output fingerprint split off as one new class. Their simulations are
//! equal through epoch `e`'s rounds (the head's) and their outputs at `e`
//! are equal to each other's, so the induction restarts with the new
//! class's first cell as a **sub-probe**: it forks from the snapshot the
//! head's run takes at boundary `e`'s decision point (a [`Start::Fork`]
//! run, with its policy restored from its own state bytes as boundary `e`
//! opened) and runs boundary `e` with its own decision, and the other
//! members, already replayed through `e`, continue in lockstep against it
//! from boundary `e + 1`. Classes recurse depth-first through
//! one routine, `run_class`, so each distinct trajectory is simulated
//! once. The family's first cell heads the first root class (the
//! **probe**); cells whose policy name or sample appetite differs from it
//! start root classes of their own.
//!
//! The hook sees each boundary's decision before the engine applies it,
//! so a head's run captures a snapshot only where a new class splits off:
//! every capture is claimed. A claimed snapshot is freed once the last
//! head forking from it has restored. Claimed bytes alive at once are
//! bounded by [`CLAIM_BUDGET_BYTES`]. A class split at epoch 0 or refused
//! by the budget runs its head from scratch, which only costs reuse: its
//! members still share that run.

use crate::runner::CellSpec;
use engine::{
    Checkpoint, DigestSink, EpochCtx, EpochDecision, NumaPolicy, RunHook, RunOptions, SimConfig,
    SimResult, Simulation, Start, TraceDigest, TraceEvent,
};
use numa_topology::MachineSpec;
use std::borrow::Cow;
use std::rc::Rc;
use std::time::Instant;
use workloads::WorkloadSpec;

/// The most claimed snapshot bytes one family keeps alive at once. A
/// claim that would exceed it is refused and its class head runs from
/// scratch.
pub const CLAIM_BUDGET_BYTES: usize = 256 << 20;

/// A class cell other than the head, with its policy replayed through
/// every boundary its class has matched so far — or, while `stale`, left
/// behind at a boundary it skipped.
struct Member {
    idx: usize,
    policy: Box<dyn NumaPolicy>,
    /// Whether the member's state is the head's as the current boundary
    /// opens. Skipping a boundary keeps it; replaying one clears it until
    /// the member's saved state equals the head's again.
    in_sync: bool,
    /// Whether `policy` missed a boundary this member skipped. Only an
    /// in-sync member skips, so a stale one is restored from the head's
    /// pre-decision bytes before it replays.
    stale: bool,
}

impl Member {
    fn new(idx: usize, policy: Box<dyn NumaPolicy>) -> Self {
        Member {
            idx,
            policy,
            in_sync: false,
            stale: false,
        }
    }

    /// Whether the member makes the head's decision at `d` without
    /// replaying it: its parameters reproduce every comparison the head
    /// recorded ([`NumaPolicy::decides_alike`]), and its state is the
    /// head's. A member that replayed an earlier boundary holds its own
    /// state and rejoins the head's when the two save to the same bytes.
    fn skips(&mut self, d: &EpochDecision<'_>) -> bool {
        if !self.policy.decides_alike(d.comparisons) {
            return false;
        }
        if !self.in_sync {
            self.in_sync = d
                .policy_before
                .is_some_and(|b| self.policy.save_state() == b);
        }
        self.stale |= self.in_sync;
        self.in_sync
    }
}

/// Cells that share one simulated run.
struct Class {
    /// Index of the head cell, the one that runs.
    head: usize,
    members: Vec<Member>,
    /// The first boundary the members have not replayed: 0 for a root
    /// class, `e + 1` for a class split off at boundary `e`.
    first_live: u32,
    /// The members' output fingerprint at the split boundary (unused for
    /// a root class).
    fingerprint: u64,
    /// The snapshot the head forks from; `None` runs it from scratch.
    ckpt: Option<Rc<Checkpoint>>,
    /// The head's policy state as its split boundary opened, which a
    /// forked head restores (unused for a root class).
    state: Option<Vec<u8>>,
    /// A traced family's digest of the parent head's run up to the
    /// snapshot, which the forked head's events continue.
    digest: Option<DigestSink>,
}

impl Class {
    fn root(head: usize) -> Self {
        Class {
            head,
            members: Vec::new(),
            first_live: 0,
            fingerprint: 0,
            ckpt: None,
            state: None,
            digest: None,
        }
    }
}

/// Claimed snapshot bytes, family-wide, against the budget.
struct Claims {
    budget: usize,
    live_bytes: usize,
    peak_bytes: usize,
    captured: u64,
    kept: u64,
}

/// A head run's hook: takes each boundary's decision and checks every
/// matching member against it — skipping the members that provably
/// decide alike, replaying the others — and splits diverging members into
/// new classes, capturing the snapshot their heads will fork from. A
/// traced family's head also forwards its events to `digest`.
struct Lockstep<'a> {
    machine: &'a MachineSpec,
    specs: &'a [CellSpec],
    claims: &'a mut Claims,
    first_live: u32,
    matching: Vec<Member>,
    split: Vec<Class>,
    replay_secs: f64,
    replays: u64,
    digest: Option<DigestSink>,
}

impl RunHook for Lockstep<'_> {
    fn wants_events(&self) -> bool {
        self.digest.is_some()
    }

    fn on_event(&mut self, event: &TraceEvent) {
        if let Some(d) = &mut self.digest {
            d.on_event(event);
        }
    }

    /// A split at epoch 0 runs from scratch, and a class's split boundary
    /// is one its members already replayed. A `true` also hands
    /// `on_decision` the head's pre-decision policy bytes, which stale
    /// members restore from and an in-sync member that splits off hands
    /// its class.
    fn may_capture(&mut self, epoch: u32) -> bool {
        epoch > 0 && epoch >= self.first_live && !self.matching.is_empty()
    }

    /// Asks for a snapshot exactly when a new class splits off. The engine
    /// takes it only where `may_capture` said yes, so never at epoch 0.
    fn on_decision(&mut self, d: &EpochDecision<'_>) -> bool {
        // A split class's members already replayed its split boundary,
        // which the head's run decides again.
        if self.matching.is_empty() || d.epoch < self.first_live {
            return false;
        }
        let t = Instant::now();
        let mut new_class = false;
        for mut m in std::mem::take(&mut self.matching) {
            if m.skips(d) {
                self.matching.push(m);
                continue;
            }
            if m.stale {
                let bytes = d.policy_before.expect(
                    "a stale member skipped an earlier boundary, so the head saved its state here",
                );
                m.policy = self.specs[m.idx].make_policy();
                m.policy.restore_state(bytes);
                m.stale = false;
            }
            // The member's state as the boundary opens, which a head split
            // off here forks with: the head's bytes while in sync, else its
            // own. No fork follows a boundary without the head's bytes.
            let own = (!m.in_sync && d.policy_before.is_some()).then(|| m.policy.save_state());
            let fp = replay_boundary(self.machine, d, m.policy.as_mut());
            self.replays += 1;
            m.in_sync = false;
            if fp == d.fingerprint {
                self.matching.push(m);
                continue;
            }
            let first_live = d.epoch + 1;
            match self
                .split
                .iter_mut()
                .find(|c| c.first_live == first_live && c.fingerprint == fp)
            {
                Some(class) => class.members.push(m),
                None => {
                    new_class = true;
                    self.split.push(Class {
                        head: m.idx,
                        members: Vec::new(),
                        first_live,
                        fingerprint: fp,
                        ckpt: None,
                        state: own.or_else(|| d.policy_before.map(<[u8]>::to_vec)),
                        digest: None,
                    });
                }
            }
        }
        self.replay_secs += t.elapsed().as_secs_f64();
        new_class
    }

    /// Hands the snapshot to every class that split off at its boundary,
    /// unless it would take the claimed bytes over budget.
    fn on_checkpoint(&mut self, ckpt: Checkpoint) {
        let claims = &mut *self.claims;
        claims.captured += 1;
        let size = ckpt.size_bytes();
        if claims.live_bytes + size > claims.budget {
            return;
        }
        claims.live_bytes += size;
        claims.peak_bytes = claims.peak_bytes.max(claims.live_bytes);
        claims.kept += 1;
        let first_live = ckpt.epoch() + 1;
        let snap = Rc::new(ckpt);
        for class in self.split.iter_mut().filter(|c| c.first_live == first_live) {
            class.ckpt = Some(Rc::clone(&snap));
            class.digest.clone_from(&self.digest);
        }
    }
}

/// Feeds the head's inputs at one boundary to `policy` and returns its
/// output fingerprint. The decision log is enabled to mirror a head run
/// with members (which always has a hook attached).
fn replay_boundary(
    machine: &MachineSpec,
    d: &EpochDecision<'_>,
    policy: &mut dyn NumaPolicy,
) -> u64 {
    let mut ctx = EpochCtx::new(machine, d.counters, d.samples, d.thp, d.epoch);
    ctx.enable_decision_log();
    policy.on_epoch(&mut ctx);
    let actions = ctx.take_actions();
    let decisions = ctx.take_decisions();
    engine::epoch_output_fingerprint(d.epoch, &actions, &decisions)
}

/// Per-family execution counters, persisted into `SWEEP_lp.json`
/// (sweep-v1) and read by simbench. Replay boundary evaluations are *not*
/// simulated epochs — no rounds run during replay. Every cell is counted
/// once: as the probe, a fork, a scratch run or a full match.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FamilyStats {
    /// Cells in the family (including the probe).
    pub cells: usize,
    /// Epochs actually executed through the engine.
    pub epochs_simulated: u64,
    /// Epochs restored from a shared prefix instead of executed: a fork
    /// at boundary `e` reuses epochs `0..=e`, a full match all of them.
    pub epochs_reused: u64,
    /// Members whose whole decision stream matched their class head's.
    pub full_matches: u64,
    /// Class heads resumed from a claimed snapshot mid-run.
    pub forks: u64,
    /// Forks whose class split off another fork or scratch head rather
    /// than off a root head: the recursion at depth two or more.
    pub nested_forks: u64,
    /// Class heads other than the probe run from epoch 0: a split at
    /// epoch 0, a claim over [`CLAIM_BUDGET_BYTES`], or a root class whose
    /// policy name or sample appetite differs from the probe's.
    pub scratch: u64,
    /// Snapshots the head runs captured: one per boundary ≥ 1 where a new
    /// class split off.
    pub snapshots_captured: u64,
    /// Captured snapshots the splitting classes kept: all of them, unless
    /// [`CLAIM_BUDGET_BYTES`] refused one.
    pub snapshots_kept: u64,
    /// The most claimed snapshot bytes alive at once; merged families
    /// report the largest.
    pub peak_kept_bytes: u64,
    /// Host seconds of the probe's own run, lockstep replays excluded.
    pub probe_secs: f64,
    /// Host seconds spent checking members against their heads'
    /// boundaries (the lockstep divergence search, skips and replays, plus
    /// forked heads' policy restores) — the price of asking "can this cell
    /// share?".
    pub replay_secs: f64,
    /// Member `on_epoch` calls actually made on their heads' boundaries. A
    /// member that provably decides alike skips its replay and is not
    /// counted.
    pub replays: u64,
    /// Host seconds simulating forked heads' tails, replays excluded.
    pub resume_secs: f64,
    /// Host seconds cloning full-match results off their heads.
    pub clone_secs: f64,
    /// Host seconds of scratch head runs, replays excluded.
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
        self.nested_forks += other.nested_forks;
        self.scratch += other.scratch;
        self.snapshots_captured += other.snapshots_captured;
        self.snapshots_kept += other.snapshots_kept;
        self.peak_kept_bytes = self.peak_kept_bytes.max(other.peak_kept_bytes);
        self.probe_secs += other.probe_secs;
        self.replay_secs += other.replay_secs;
        self.replays += other.replays;
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

/// Runs a family of cells through the fork tree. `specs` must be
/// non-empty and agree on [`CellSpec::family_key`] (the caller groups);
/// the first cell is the probe. With `traced = true` every cell also
/// returns its [`TraceDigest`] — bit-identical to a from-scratch traced
/// run's (the forktree equivalence test enforces this).
pub fn run_family(specs: &[CellSpec], traced: bool) -> (Vec<FamilyCell>, FamilyStats) {
    run_family_within(specs, traced, CLAIM_BUDGET_BYTES)
}

/// What one family run shares across its classes.
struct Family<'s> {
    specs: &'s [CellSpec],
    machine: &'s MachineSpec,
    wspec: WorkloadSpec,
    config: SimConfig,
    traced: bool,
    claims: Claims,
    stats: FamilyStats,
    out: Vec<Option<FamilyCell>>,
}

/// [`run_family`] with claimed snapshots bounded by `budget` bytes.
pub fn run_family_within(
    specs: &[CellSpec],
    traced: bool,
    budget: usize,
) -> (Vec<FamilyCell>, FamilyStats) {
    assert!(!specs.is_empty(), "a family needs at least one cell");
    if specs.len() > 1 {
        let key = specs[0].family_key();
        assert!(
            key.is_some(),
            "family cells must opt in via CellSpec::family"
        );
        assert!(
            specs.iter().all(|s| s.family_key() == key),
            "every cell in a family must share its family_key"
        );
    }
    let machine = &specs[0].machine;
    let mut fam = Family {
        specs,
        machine,
        wspec: specs[0].workload.spec(machine),
        config: specs[0].sim_config(),
        traced,
        claims: Claims {
            budget,
            live_bytes: 0,
            peak_bytes: 0,
            captured: 0,
            kept: 0,
        },
        stats: FamilyStats {
            cells: specs.len(),
            ..FamilyStats::default()
        },
        out: specs.iter().map(|_| None).collect(),
    };

    // Root classes. Digest splicing hashes the policy name into epoch 0,
    // so different names never share; nor does a cell that reads samples
    // its head's run did not store.
    let mut roots: Vec<((String, bool), Class)> = Vec::new();
    for (idx, spec) in specs.iter().enumerate() {
        let policy = spec.make_policy();
        let key = (policy.name().to_string(), policy.consumes_samples());
        match roots.iter_mut().find(|(k, _)| *k == key) {
            Some((_, class)) => class.members.push(Member::new(idx, policy)),
            None => roots.push((key, Class::root(idx))),
        }
    }
    for (_, class) in roots {
        run_class(&mut fam, class, 0);
    }

    let Family {
        claims,
        mut stats,
        out,
        ..
    } = fam;
    stats.snapshots_captured = claims.captured;
    stats.snapshots_kept = claims.kept;
    stats.peak_kept_bytes = claims.peak_bytes as u64;
    let cells = out
        .into_iter()
        .map(|c| c.expect("every cell belongs to a class"))
        .collect();
    (cells, stats)
}

/// Runs one class: simulates its head (fresh, or forked from the claimed
/// snapshot), clones the result for every member that matched to the end,
/// then recurses into the classes that split off. `depth` is 0 for a root
/// class.
fn run_class(fam: &mut Family<'_>, class: Class, depth: u32) {
    let Class {
        head,
        mut members,
        first_live,
        ckpt,
        state,
        digest,
        ..
    } = class;
    let spec = &fam.specs[head];
    // A fork starts at boundary `e`'s decision point: epochs `0..=e` ran
    // their rounds in the parent head's run.
    let reused = ckpt.as_ref().map_or(0, |c| c.epoch() + 1);

    // A forked head takes its policy state as boundary `e` opened. (Its
    // lockstep instance processed the split boundary, so its state is past
    // the fork point.)
    let restore_t = Instant::now();
    let mut policy = spec.make_policy();
    if ckpt.is_some() {
        let bytes = state.expect("a class that forks kept its head's state at the split");
        policy.restore_state(&bytes);
    }
    // A root class's members start where its head does.
    if first_live == 0 && !members.is_empty() {
        let fresh = policy.save_state();
        for m in &mut members {
            m.in_sync = m.policy.save_state() == fresh;
        }
    }
    fam.stats.replay_secs += restore_t.elapsed().as_secs_f64();

    // The last head forking from a snapshot takes it over, and the engine
    // frees it once restored; earlier heads borrow it.
    let shared;
    let start = match ckpt.map(Rc::try_unwrap) {
        None => Start::Fresh,
        Some(Ok(last)) => {
            fam.claims.live_bytes -= last.size_bytes();
            Start::Fork(Cow::Owned(last))
        }
        Some(Err(rc)) => {
            shared = rc;
            Start::Fork(Cow::Borrowed(&*shared))
        }
    };

    // A class without members has nobody to share with: its hook is the
    // digest alone when traced, and a plain run has none (a lockstep hook
    // would turn on the decision log for nothing). A forked head's digest goes on
    // from its parent's at the snapshot.
    let mut sink = fam.traced.then(|| digest.unwrap_or_default());
    let mut lockstep = (!members.is_empty()).then(|| Lockstep {
        machine: fam.machine,
        specs: fam.specs,
        claims: &mut fam.claims,
        first_live,
        matching: members,
        split: Vec::new(),
        replay_secs: 0.0,
        replays: 0,
        digest: sink.take(),
    });
    let run_t = Instant::now();
    let hook = match (&mut lockstep, &mut sink) {
        (Some(l), _) => Some(l as &mut dyn RunHook),
        (None, Some(d)) => Some(d as &mut dyn RunHook),
        (None, None) => None,
    };
    let opts = RunOptions {
        start,
        hook,
        ..RunOptions::default()
    };
    let mut result =
        Simulation::run_with(fam.machine, &fam.wspec, &fam.config, policy.as_mut(), opts).result();
    let (full, split, in_run_replay) = match lockstep {
        Some(l) => {
            sink = l.digest;
            fam.stats.replays += l.replays;
            (l.matching, l.split, l.replay_secs)
        }
        None => (Vec::new(), Vec::new(), 0.0),
    };
    let run_secs = run_t.elapsed().as_secs_f64() - in_run_replay;
    let digest = sink.map(|s| {
        let mut d = s.into_digest();
        d.runtime_cycles = result.runtime_cycles;
        d
    });

    let stats = &mut fam.stats;
    stats.replay_secs += in_run_replay;
    stats.epochs_reused += u64::from(reused);
    stats.epochs_simulated += result.epochs.len() as u64 - u64::from(reused);
    if reused > 0 {
        stats.forks += 1;
        stats.nested_forks += u64::from(depth >= 2);
        stats.resume_secs += run_secs;
    } else if depth == 0 && head == 0 {
        stats.probe_secs += run_secs;
    } else {
        stats.scratch += 1;
        stats.scratch_secs += run_secs;
    }
    result.policy = spec.policy_label();

    // Members that matched every boundary: their run *is* the head's.
    let clone_t = Instant::now();
    for m in full {
        let mut r = result.clone();
        r.policy = fam.specs[m.idx].policy_label();
        stats.epochs_reused += r.epochs.len() as u64;
        stats.full_matches += 1;
        fam.out[m.idx] = Some(FamilyCell {
            result: r,
            digest: digest.clone(),
        });
    }
    stats.clone_secs += clone_t.elapsed().as_secs_f64();
    fam.out[head] = Some(FamilyCell {
        result,
        digest: digest.clone(),
    });

    // Depth-first into the split classes.
    for class in split {
        run_class(fam, class, depth + 1);
    }
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
        assert!(cells[0].result.epochs.len() > 1);
        // Nobody splits, so nothing is captured.
        assert_eq!(stats.snapshots_captured, 0);
        assert_eq!(stats.snapshots_kept, 0);
        assert_eq!(stats.peak_kept_bytes, 0);
    }

    #[test]
    fn siblings_diverging_together_share_one_fork() {
        let specs = vec![
            family_spec(None),
            walk_miss_sibling(0.075),
            walk_miss_sibling(0.1),
        ];
        let (cells, stats) = run_family(&specs, false);
        let epochs = cells[0].result.epochs.len() as u64;
        // Both split at epoch 2 with equal outputs: one class, whose head
        // forks at boundary 2 (reusing epochs 0..=2) and whose other
        // member matches it to the end.
        assert_eq!((stats.forks, stats.full_matches, stats.scratch), (1, 1, 0));
        assert_eq!(stats.epochs_reused, 3 + epochs);
        assert_eq!(stats.epochs_simulated, epochs + epochs - 3);
        assert_eq!(stats.snapshots_kept, 1);
        assert!(stats.peak_kept_bytes > 0);
        // The one split is the one capture.
        assert_eq!(stats.snapshots_captured, 1);
        assert_eq!(
            cells[1].result.runtime_cycles,
            cells[2].result.runtime_cycles
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

    /// Each boundary's recorded comparisons from a run of `spec` alone.
    fn recorded_comparisons(spec: &CellSpec) -> Vec<Vec<engine::Comparison>> {
        #[derive(Default)]
        struct Recorder(Vec<Vec<engine::Comparison>>);
        impl RunHook for Recorder {
            fn on_decision(&mut self, d: &EpochDecision<'_>) -> bool {
                self.0.push(d.comparisons.to_vec());
                false
            }
        }
        let mut recorder = Recorder::default();
        let wspec = spec.workload.spec(&spec.machine);
        let opts = RunOptions {
            hook: Some(&mut recorder),
            ..RunOptions::default()
        };
        let mut policy = spec.make_policy();
        Simulation::run_with(
            &spec.machine,
            &wspec,
            &spec.sim_config(),
            policy.as_mut(),
            opts,
        );
        recorder.0
    }

    /// The boundaries at which a cell with `params` does not provably
    /// decide as the recorded run did.
    fn straddled(recorded: &[Vec<engine::Comparison>], params: carrefour::LpParams) -> Vec<usize> {
        let member = carrefour::CarrefourLp::with_params(params);
        (0..recorded.len())
            .filter(|&e| !member.decides_alike(&recorded[e]))
            .collect()
    }

    /// `spec` run alone, from scratch: the result the fork tree must give.
    fn scratch(spec: &CellSpec) -> SimResult {
        run_family(std::slice::from_ref(spec), false)
            .0
            .remove(0)
            .result
    }

    fn tuned(f: impl Fn(&mut carrefour::LpParams)) -> carrefour::LpParams {
        let mut p = carrefour::LpParams::default();
        f(&mut p);
        p
    }

    #[test]
    fn members_inside_every_recorded_comparison_replay_nothing() {
        let probe = family_spec(None);
        let recorded = recorded_comparisons(&probe);
        // On the test machine's EpC, none of these crosses a value the
        // probe compared its own against.
        let inside = [
            tuned(|p| p.thresholds.split_gain_pp = 1.0),
            tuned(|p| p.thresholds.split_gain_pp = 12.0),
            tuned(|p| p.thresholds.carrefour_gain_pp = 2.0),
            tuned(|p| p.thresholds.hot_page_fraction = 0.02),
            tuned(|p| p.carrefour.imbalance_enable_above = 40.0),
        ];
        for &p in &inside {
            assert_eq!(straddled(&recorded, p), Vec::<usize>::new(), "{p:?}");
        }
        let specs: Vec<CellSpec> = std::iter::once(probe)
            .chain(inside.iter().map(|&p| family_spec(Some(p))))
            .collect();
        let (cells, stats) = run_family(&specs, false);
        assert_eq!(stats.replays, 0);
        assert_eq!(stats.full_matches, inside.len() as u64);
        for (cell, spec) in cells.iter().zip(&specs) {
            assert_eq!(cell.result, scratch(spec));
        }
    }

    #[test]
    fn a_member_straddling_one_recorded_value_replays_only_there() {
        let probe = family_spec(None);
        let recorded = recorded_comparisons(&probe);
        // A 10 % walk-miss trigger stays off at boundary 2, where the
        // probe's 5 % one saw 5.04 % and re-enabled THP, and agrees with the
        // probe everywhere else.
        let straddling = tuned(|p| p.thresholds.walk_miss_enable = 0.1);
        assert_eq!(straddled(&recorded, straddling), vec![2]);
        let specs = vec![probe, family_spec(Some(straddling))];
        let (cells, stats) = run_family(&specs, false);
        // Replayed at boundary 2, where it parts from the probe; its fork
        // restores the probe's state there.
        assert_eq!(stats.replays, 1);
        assert_eq!((stats.forks, stats.full_matches), (1, 0));
        for (cell, spec) in cells.iter().zip(&specs) {
            assert_eq!(cell.result, scratch(spec));
        }
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
