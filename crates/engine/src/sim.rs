//! The simulation loop.

use crate::checkpoint::{self, Blob, Checkpoint};
use crate::config::SimConfig;
use crate::policy::{ActionError, Comparison, EpochCtx, FailedAction, NumaPolicy, PolicyAction};
use crate::recorder::{MetricsSample, PageSnapshot, RunInfo};
use crate::result::{
    AttributionLedger, EpochAttribution, EpochRecord, LifetimeStats, PageMetrics, RobustnessStats,
    SimResult,
};
use crate::trace::{EpochSnap, PolicyDecision, TraceEvent};
use memsys::{AccessKind, AccessOutcome, MemorySystem, ServiceLevel};
use numa_topology::{CoreId, MachineSpec, NodeId};
use profiling::{
    metrics, CoreFaultTime, CycleBreakdown, EpochCounters, IbsSample, IbsSampler, PageAccessStats,
};
use std::borrow::Cow;
use vmem::{
    AddressSpace, Mapping, PageSize, PhysAddr, SpaceError, ThpControls, Tlb, TlbLookup, VirtAddr,
    WalkCache, WalkStep,
};
use workloads::{WorkloadGen, WorkloadSpec};

/// Runs complete workloads under a policy and produces [`SimResult`]s.
pub struct Simulation;

/// Where a run starts.
#[derive(Clone, Debug)]
pub enum Start<'c> {
    /// From scratch: build the address space, run the prelude, epoch 0.
    Fresh,
    /// From a snapshot, policy state included: the run continues exactly
    /// as the one the snapshot was taken from.
    Resume(&'c Checkpoint),
    /// From a snapshot, but the policy's state is left as the caller
    /// prepared it — the fork half of the runner's prefix-sharing tree.
    /// `policy` must already be in the state a policy has after exactly
    /// `ckpt.epoch()` `on_epoch` calls; the snapshot's policy bytes belong
    /// to the run it was taken from. An owned snapshot is freed as soon as
    /// it is restored.
    Fork(Cow<'c, Checkpoint>),
}

/// How [`Simulation::run_with`] runs: every value is independent, and
/// [`RunOptions::default`] is a plain run.
pub struct RunOptions<'a> {
    /// Called on the freshly built address space before the workload
    /// starts — for pre-conditions such as fragmented physical memory.
    pub setup: Option<&'a dyn Fn(&mut AddressSpace)>,
    /// Observes the run: its trace events and epoch boundaries (see
    /// [`RunHook`]). Observation is purely passive. Thread the same hook
    /// through a stopped run and its resumed run, and the combined event
    /// stream (and digest) equals an uninterrupted traced run's.
    pub hook: Option<&'a mut dyn RunHook>,
    /// Fresh, or from a checkpoint.
    pub start: Start<'a>,
    /// Stop at this epoch's boundary, at its decision point (the epoch's
    /// rounds are done, the policy has not yet decided), and return the
    /// snapshot there ([`RunOutcome::Stopped`]). A run that ends first
    /// returns its result as usual.
    pub stop_at: Option<u32>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            setup: None,
            hook: None,
            start: Start::Fresh,
            stop_at: None,
        }
    }
}

/// How a run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The workload ran to completion.
    Finished(Box<SimResult>),
    /// The run reached [`RunOptions::stop_at`] and snapshotted there.
    Stopped(Checkpoint),
}

impl RunOutcome {
    /// The result of a run that finished.
    ///
    /// # Panics
    ///
    /// Panics if the run stopped at a checkpoint instead.
    pub fn result(self) -> SimResult {
        match self {
            RunOutcome::Finished(r) => *r,
            RunOutcome::Stopped(c) => panic!("run stopped at epoch {}", c.epoch()),
        }
    }

    /// The snapshot of a stopped run; `None` when the run finished first.
    pub fn checkpoint(self) -> Option<Checkpoint> {
        match self {
            RunOutcome::Finished(_) => None,
            RunOutcome::Stopped(c) => Some(c),
        }
    }
}

/// Everything the policy saw and decided at one boundary's decision
/// point, handed to [`RunHook::on_decision`] before anything is applied.
/// The inputs are exactly the values [`EpochCtx::new`] was built from;
/// the outputs are everything the engine consumes from the policy, plus
/// their canonical FNV-1a fingerprint
/// ([`crate::trace::epoch_output_fingerprint`]).
pub struct EpochDecision<'a> {
    /// Index of the epoch the boundary closes.
    pub epoch: u32,
    /// Counters the policy read.
    pub counters: &'a EpochCounters,
    /// IBS samples the policy read. Empty when the policy consumes no
    /// samples: the engine then elides sample storage.
    pub samples: &'a [IbsSample],
    /// THP switches as the boundary opened.
    pub thp: ThpControls,
    /// Actions the policy queued, in issue order.
    pub actions: &'a [PolicyAction],
    /// Decisions the policy noted, in note order.
    pub decisions: &'a [PolicyDecision],
    /// `epoch_output_fingerprint(epoch, actions, decisions)`.
    pub fingerprint: u64,
    /// The parameter tests the policy recorded while deciding
    /// ([`crate::EpochCtx::compared`]), in evaluation order. Not part of
    /// the fingerprint.
    pub comparisons: &'a [Comparison],
    /// The policy's state bytes as the boundary opened, before it decided
    /// (`save_state`): present exactly where [`RunHook::may_capture`] said
    /// yes.
    pub policy_before: Option<&'a [u8]>,
}

/// One closed epoch boundary, handed to [`RunHook::on_boundary`] once the
/// actions are applied.
pub struct EpochBoundary {
    /// Index of the epoch that just closed.
    pub epoch: u32,
    /// The flight recorder's sample for this epoch (DESIGN.md §16) —
    /// `Some` exactly when the hook's [`RunHook::wants_metrics`] is true.
    pub metrics: Option<MetricsSample>,
}

/// The engine's one run observer: trace events as they happen and every
/// epoch boundary. The trace collectors (`VecSink`, `DigestSink`), the
/// flight recorder's metrics (DESIGN.md §16) and the prefix-sharing fork
/// tree (DESIGN.md §15) are all implementations. Every method defaults to
/// a no-op.
///
/// Attaching a hook never changes simulation results or checkpoint bytes:
/// every read behind it is `&self`.
pub trait RunHook {
    /// Called once before the prelude of a [`Start::Fresh`] run (resumed
    /// and forked runs do not re-announce themselves).
    fn on_run_start(&mut self, _info: &RunInfo) {}

    /// Whether [`RunHook::on_event`] should receive the run's trace
    /// events. Asked once, when the run starts: a run whose hook does not
    /// want them constructs no event at all.
    fn wants_events(&self) -> bool {
        false
    }

    /// Receives one trace event, in simulation order.
    fn on_event(&mut self, _event: &TraceEvent) {}

    /// Whether [`EpochBoundary::metrics`] should be built. Asked once,
    /// when the run starts: the sample costs a page-stat aggregation and
    /// TLB folds per boundary, so hooks that don't read it skip them.
    fn wants_metrics(&self) -> bool {
        false
    }

    /// Whether the hook may capture a checkpoint at boundary `epoch`'s
    /// decision point. Asked at every boundary the run reaches, before the
    /// policy runs there — except the one a run stops at
    /// ([`RunOptions::stop_at`]), whose snapshot goes to the caller. A
    /// `true` costs one policy-state save: the snapshot holds the policy
    /// as it was before deciding.
    fn may_capture(&mut self, _epoch: u32) -> bool {
        false
    }

    /// Called at every boundary's decision point: the epoch's rounds are
    /// done and the policy has decided, but nothing at the boundary has
    /// been applied. Returns whether to capture a checkpoint here; the
    /// answer counts only where [`RunHook::may_capture`] said yes.
    fn on_decision(&mut self, _d: &EpochDecision<'_>) -> bool {
        false
    }

    /// Receives the checkpoint [`RunHook::on_decision`] asked for: a
    /// snapshot that resumes at the same decision point, as one
    /// [`RunOptions::stop_at`] returns.
    fn on_checkpoint(&mut self, _ckpt: Checkpoint) {}

    /// Called at every epoch boundary, after the policy's actions were
    /// applied (so the sample's `epoch_cycles` includes the boundary
    /// overhead), before the next epoch begins.
    fn on_boundary(&mut self, _b: &EpochBoundary) {}
}

/// splitmix64 finalizer: a stride-proof mixing function for deterministic
/// scatter decisions.
#[inline]
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Splits `floor(sum(parts) / divisor)` across `parts` by prefix-sum
/// differencing: `share_i = floor(prefix_i / d) - floor(prefix_{i-1} / d)`.
///
/// The shares telescope, so they sum to `floor(total / d)` *exactly* —
/// the same integer the wall clock is charged — and each share is at
/// least `floor(part_i / d)` (floor is superadditive), so none goes
/// negative. This is how the attribution ledger keeps integer
/// conservation through the two places a divided quantity must be split
/// by cause: MLP-overlapped DRAM latency and per-thread overhead shares.
#[inline]
fn split_div<const N: usize>(parts: [u64; N], divisor: u64) -> [u64; N] {
    let d = divisor.max(1);
    let mut out = [0u64; N];
    let mut prefix = 0u64;
    let mut prev = 0u64;
    for (o, p) in out.iter_mut().zip(parts) {
        prefix += p;
        let cur = prefix / d;
        *o = cur - prev;
        prev = cur;
    }
    out
}

/// Books one data-access outcome into the ledger. DRAM outcomes are first
/// divided by the MLP `overlap` (exactly as the wall clock charges them),
/// with the quotient split across queueing / interconnect / service by
/// [`split_div`]; cache hits go to their level's bucket whole.
#[inline]
fn charge_access(b: &mut CycleBreakdown, out: &AccessOutcome, overlap: u64) {
    match out.level {
        ServiceLevel::L1 => b.cache_l1 += u64::from(out.cycles),
        ServiceLevel::L2 => b.cache_l2 += u64::from(out.cycles),
        ServiceLevel::L3 => b.cache_l3 += u64::from(out.cycles),
        ServiceLevel::Dram => {
            let q = u64::from(out.queue);
            let i = u64::from(out.inter);
            let s = u64::from(out.cycles) - q - i;
            let [pq, pi, ps] = split_div([q, i, s], overlap);
            b.ctrl_queue += pq;
            b.interconnect += pi;
            b.dram_service += ps;
        }
    }
}

/// Policy-action cycle costs by kind (so overhead attribution can name the
/// action class). `replicate` is the Mitosis table-replication sweep.
#[derive(Clone, Copy, Debug, Default)]
struct ActionCosts {
    migrate: u64,
    split: u64,
    replicate: u64,
}

impl ActionCosts {
    fn total(&self) -> u64 {
        self.migrate + self.split + self.replicate
    }
}

struct SimState<'m, 't> {
    machine: &'m MachineSpec,
    spec: &'m WorkloadSpec,
    config: &'m SimConfig,
    gen: WorkloadGen,
    /// DRAM latency divisor from the workload's memory-level parallelism.
    mlp: u64,
    mem: MemorySystem,
    space: AddressSpace,
    /// Host-side memos of the radix walk, keyed per 2 MiB region — one per
    /// thread. Purely a simulation-speed optimisation: the cached result
    /// replays the exact walk steps, so the per-step simulated-cache
    /// charges are unchanged.
    walk_caches: Vec<WalkCache>,
    tlbs: Vec<Tlb>,
    sampler: IbsSampler,
    page_stats: Option<PageAccessStats>,
    /// Per-core fault cycles, current epoch.
    fault_epoch: Vec<u64>,
    /// Per-core fault cycles, lifetime.
    fault_life: Vec<u64>,
    /// Lifetime L2-TLB hit-cycle cost knob.
    l2_tlb_hit_cycles: u32,
    /// Extra fault cycles per concurrently-faulting sibling this round.
    fault_contention: u64,
    threads: usize,
    /// Policy actions the engine could not apply.
    robust: RobustnessStats,
    /// The run's observer, if the caller attached one ([`RunOptions::hook`]).
    hook: Option<&'t mut dyn RunHook>,
    /// Emit trace events to the hook ([`RunHook::wants_events`]). Off on
    /// plain runs: no event is constructed, let alone emitted.
    events_on: bool,
    /// Index of the epoch currently accumulating (for event attribution).
    epoch: u32,

    // Loop-carried run totals; a resume overwrites all of them from the
    // snapshot.
    wall: u64,
    epoch_wall: u64,
    epoch_ops: u64,
    total_ops: u64,
    overhead_total: u64,
    epochs: Vec<EpochRecord>,

    // Attribution ledger state. All of it stays empty (and costs one
    // branch per charge site) when attribution is off, which keeps the
    // hot path allocation-free and the default run untouched.
    attrib_on: bool,
    prelude_bd: CycleBreakdown,
    epoch_wall_bd: CycleBreakdown,
    core_bds: Vec<CycleBreakdown>,
    core_totals: Vec<CycleBreakdown>,
    attrib_epochs: Vec<EpochAttribution>,

    /// Build a [`MetricsSample`] at every boundary ([`RunHook::wants_metrics`]).
    metrics_on: bool,
    /// TLB and walk-cache counters are lifetime-cumulative, so per-epoch
    /// sample rates need the previous boundary's totals. Kept at every
    /// boundary, hook or not, so that a snapshot carries them.
    rec_prev_tlb: (u64, u64, u64),
    rec_prev_walk: (u64, u64),
}

/// Maps a vmem error to the action-level error a policy sees.
fn action_error(e: &SpaceError) -> ActionError {
    match e {
        SpaceError::Frame(_) => ActionError::NoMemory,
        _ => ActionError::Gone,
    }
}

impl<'m, 't> SimState<'m, 't> {
    /// Emits one trace event. The closure only runs when the hook wants
    /// events, so untraced runs pay a single branch per call site.
    #[inline]
    fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        if self.events_on {
            if let Some(h) = self.hook.as_deref_mut() {
                h.on_event(&make());
            }
        }
    }

    /// Hardware page-table walk, servicing a demand fault if needed.
    /// Returns the walked mapping and the number of walk steps that were
    /// served by a *remote* table frame (after Mitosis replica
    /// substitution) — the signal numaPTE-style policies consume via IBS.
    ///
    /// With `bd` supplied, step-replay cycles are booked by walk-cache
    /// outcome (`walk_pwc_hit_*` when the region's upper levels were
    /// memoized, `walk_pwc_miss_*` for a full walk — the paging-structure-
    /// cache distinction), split by whether the table frame serving each
    /// step is local or remote to the walking core; fault handling goes to
    /// `fault`.
    fn walk_and_maybe_fault(
        &mut self,
        thread: usize,
        vaddr: VirtAddr,
        node: NodeId,
        faulting_threads: usize,
        cycles: &mut u64,
        mut bd: Option<&mut CycleBreakdown>,
    ) -> (Mapping, u8) {
        let core = CoreId::from(thread);
        let hits_before = self.walk_caches[thread].hits();
        let walk = self.space.walk_cached(vaddr, &mut self.walk_caches[thread]);
        let pwc_hit = self.walk_caches[thread].hits() > hits_before;
        // Replicated page tables serve the walk from the walking node's
        // copy: substitute each step before it is charged. The walk cache
        // stays node-agnostic (it memoizes the primary steps), so the
        // substitution happens at charge time on both the cached and
        // uncached paths identically.
        let treps = self.space.has_table_replicas();
        let mut resolved = [WalkStep {
            pte_addr: PhysAddr(0),
            node,
        }; 4];
        let steps = &mut resolved[..walk.steps().len()];
        for (s, &step) in steps.iter_mut().zip(walk.steps()) {
            *s = if treps {
                self.space.resolve_table_step(step, node)
            } else {
                step
            };
        }
        let mut remote_steps: u8 = 0;
        for s in steps.iter() {
            let local = s.node == node;
            if !local {
                remote_steps += 1;
            }
            let out = self
                .mem
                .access(core, s.pte_addr.0, s.node, AccessKind::PageWalk);
            *cycles += u64::from(out.cycles);
            if let Some(b) = bd.as_deref_mut() {
                match (pwc_hit, local) {
                    (true, true) => b.walk_pwc_hit_local += u64::from(out.cycles),
                    (true, false) => b.walk_pwc_hit_remote += u64::from(out.cycles),
                    (false, true) => b.walk_pwc_miss_local += u64::from(out.cycles),
                    (false, false) => b.walk_pwc_miss_remote += u64::from(out.cycles),
                }
            }
        }
        if let Some(m) = walk.mapping {
            return (m, remote_steps);
        }
        // Demand fault: allocation plus lock contention from siblings
        // faulting in the same interval. Contention saturates: past ~48
        // waiters the page-table/zone locks queue rather than keep growing.
        // OOM is a configuration error at our scaled footprints.
        let fault = self
            .space
            .fault(vaddr, node)
            .unwrap_or_else(|e| panic!("fault at {vaddr} failed: {e}"));
        let contenders = faulting_threads.saturating_sub(1).min(48) as u64;
        let contention = self.fault_contention * contenders;
        let cost = fault.cycles + contention;
        *cycles += cost;
        if let Some(b) = bd {
            b.fault += cost;
        }
        self.fault_epoch[thread] += cost;
        self.fault_life[thread] += cost;
        let epoch = self.epoch;
        self.emit(|| TraceEvent::PageFault {
            epoch,
            vbase: fault.mapping.vbase.0,
            size: fault.mapping.size,
            node: fault.mapping.node.0,
            thread: thread as u16,
        });
        (fault.mapping, remote_steps)
    }

    /// Invalidates one page's entry in every core's TLB (shootdown).
    fn shootdown(&mut self, vbase: VirtAddr, size: PageSize) {
        for t in &mut self.tlbs {
            t.invalidate(vbase, size);
        }
    }

    /// The one per-access loop: executes a batch of operations for
    /// `thread` one op at a time and returns their total cycle cost. When
    /// `bd` is supplied, every cycle of the return value is also booked
    /// into exactly one of its buckets (the conservation invariant);
    /// `None` — the default — skips all attribution work.
    fn run_ops(
        &mut self,
        thread: usize,
        ops: &[workloads::Op],
        faulting_threads: usize,
        mut bd: Option<&mut CycleBreakdown>,
    ) -> u64 {
        let core = CoreId::from(thread);
        let node = self.machine.node_of_core(core);
        let mut cycles_total: u64 = 0;

        for &op in ops {
            let vaddr = VirtAddr(op.vaddr);
            let mut cycles: u64 = 0;
            let mut walk_remote: u8 = 0;

            // 1. Address translation.
            let mapping = match self.tlbs[thread].lookup(vaddr) {
                TlbLookup::HitL1(m) => m,
                TlbLookup::HitL2(m) => {
                    cycles += u64::from(self.l2_tlb_hit_cycles);
                    if let Some(b) = bd.as_deref_mut() {
                        b.tlb_lookup += u64::from(self.l2_tlb_hit_cycles);
                    }
                    m
                }
                TlbLookup::Miss => {
                    cycles += u64::from(self.l2_tlb_hit_cycles);
                    if let Some(b) = bd.as_deref_mut() {
                        b.tlb_lookup += u64::from(self.l2_tlb_hit_cycles);
                    }
                    let (m, remote) = self.walk_and_maybe_fault(
                        thread,
                        vaddr,
                        node,
                        faulting_threads,
                        &mut cycles,
                        bd.as_deref_mut(),
                    );
                    walk_remote = remote;
                    self.tlbs[thread].insert(m);
                    m
                }
            };

            // 2. Data access through the memory hierarchy. Stores to
            // line-shared data bypass the caches: coherence pushes them to
            // the home node.
            let out = if op.coherent_store {
                self.mem.access_uncached(core, mapping.node)
            } else {
                let paddr = mapping.translate(vaddr);
                self.mem
                    .access(core, paddr.0, mapping.node, AccessKind::Data)
            };
            if out.dram() {
                // Prefetchers hide sequential latency; independent misses
                // overlap by the workload's MLP. Requests still occupy the
                // controller either way (counted above).
                let overlap = if op.prefetched { 4 } else { self.mlp };
                cycles += u64::from(out.cycles) / overlap;
                if let Some(b) = bd.as_deref_mut() {
                    charge_access(b, &out, overlap);
                }
            } else {
                cycles += u64::from(out.cycles);
                if let Some(b) = bd.as_deref_mut() {
                    charge_access(b, &out, 1);
                }
            }

            // 3. Observation channels.
            self.sampler.observe(|| IbsSample {
                vaddr,
                accessing_node: node,
                thread: thread as u16,
                home_node: mapping.node,
                from_dram: out.dram(),
                is_store: op.is_write,
                page_size: mapping.size,
                walk_remote_steps: walk_remote,
            });
            if let Some(stats) = self.page_stats.as_mut() {
                stats.record(vaddr, thread as u16);
            }
            cycles_total += cycles;
        }
        cycles_total
    }

    /// Applies policy actions; returns (migrations, splits, costs,
    /// scatter failures), the costs split by action kind for the
    /// attribution ledger (`ActionCosts::total()` is the old opaque cost
    /// sum, unchanged).
    ///
    /// Failures — vmem refusals such as a full target node or a stale
    /// action (page already split, wrong size class) — are appended to
    /// `failures` and tallied in the run's [`RobustnessStats`]; they change
    /// accounting, not simulation state. A split-scatter's failed sub-page
    /// moves are not actions the policy issued, so they are only counted
    /// (the last return value) rather than listed one by one.
    fn apply_actions(
        &mut self,
        actions: &[PolicyAction],
        failures: &mut Vec<FailedAction>,
    ) -> (u64, u64, ActionCosts, u64) {
        let mut migrations = 0;
        let mut splits = 0;
        let mut scatter_failures = 0;
        let mut costs = ActionCosts::default();
        let epoch = self.epoch;
        for &a in actions {
            match a {
                PolicyAction::SetThpAlloc(b) => {
                    self.space.thp_mut().alloc_2m = b;
                    self.emit(|| TraceEvent::ThpToggle {
                        epoch,
                        knob: "alloc",
                        on: b,
                    });
                }
                PolicyAction::SetThpPromote(b) => {
                    self.space.thp_mut().promote_2m = b;
                    if b {
                        // Re-enabling promotion lifts the no-collapse marks
                        // left by earlier policy splits.
                        self.space.clear_promote_inhibitions();
                    }
                    self.emit(|| TraceEvent::ThpToggle {
                        epoch,
                        knob: "promote",
                        on: b,
                    });
                }
                PolicyAction::Split(v) => match self.space.split(VirtAddr(v)) {
                    Ok((old, c)) => {
                        self.shootdown(old.vbase, old.size);
                        splits += 1;
                        costs.split += c;
                        self.emit(|| TraceEvent::Split {
                            epoch,
                            vbase: old.vbase.0,
                            size: old.size,
                            scatter: false,
                            scattered: 0,
                        });
                    }
                    Err(e) => {
                        self.robust.failed_splits += 1;
                        failures.push(FailedAction {
                            action: a,
                            error: action_error(&e),
                        });
                    }
                },
                PolicyAction::SplitScatter(v) => {
                    match self.space.split(VirtAddr(v)) {
                        Ok((old, c)) => {
                            self.shootdown(old.vbase, old.size);
                            splits += 1;
                            // One batched demote-and-spread: the split cost
                            // plus one huge-page-worth of copying, not 512
                            // separate migration calls.
                            costs.split +=
                                c + self.space.costs().copy_per_kib * (old.size.bytes() >> 10);
                            let nodes = self.machine.num_nodes() as u64;
                            let children = old.size.fanout();
                            // invariant: split() only succeeds on huge
                            // mappings, and every huge size has a smaller.
                            let small = old.size.smaller().expect("huge page splits");
                            let mut moved: u64 = 0;
                            for i in 0..children {
                                let sub = VirtAddr(old.vbase.0 + i * small.bytes());
                                // Deterministic hash spread: independent of
                                // any stride the data layout might have.
                                let node = NodeId::from((mix64(sub.0) % nodes) as usize);
                                match self.space.migrate(sub, node) {
                                    Ok((sold, _)) => {
                                        self.shootdown(sold.vbase, sold.size);
                                        migrations += 1;
                                        moved += 1;
                                    }
                                    // Sub-page moves of a batched scatter are
                                    // best-effort (the page is already split):
                                    // counted in the run's and the epoch's
                                    // failures, but not traced one by one.
                                    Err(_) => {
                                        self.robust.failed_migrations += 1;
                                        scatter_failures += 1;
                                    }
                                }
                            }
                            // One event for the whole batched operation —
                            // 512 child-move events would drown the trace.
                            self.emit(|| TraceEvent::Split {
                                epoch,
                                vbase: old.vbase.0,
                                size: old.size,
                                scatter: true,
                                scattered: moved,
                            });
                        }
                        Err(e) => {
                            self.robust.failed_splits += 1;
                            failures.push(FailedAction {
                                action: a,
                                error: action_error(&e),
                            });
                        }
                    }
                }
                PolicyAction::ReplicateTables => {
                    // Idempotent sweep: after the first epoch only tables
                    // created since (by later faults/splits) are copied, so
                    // re-issuing it every epoch is cheap. Alloc failures
                    // skip nodes silently — the walk keeps reading the
                    // primary there, which is correct, just slower.
                    let (created, c) = self.space.replicate_tables(self.machine.num_nodes());
                    if created > 0 {
                        migrations += created; // replica copies count as moves
                        costs.replicate += c;
                        self.emit(|| TraceEvent::TableReplication {
                            epoch,
                            tables: created,
                        });
                    }
                }
                PolicyAction::MigrateTables(v, node) => {
                    match self.space.migrate_table(VirtAddr(v), node) {
                        Ok((Some(from), c)) => {
                            // The rehome bumped the walk-cache generation;
                            // leaf translations are untouched, so data TLBs
                            // need no shootdown.
                            migrations += 1;
                            costs.migrate += c;
                            self.emit(|| TraceEvent::TableMigration {
                                epoch,
                                vbase: v,
                                from: from.0,
                                to: node.0,
                            });
                        }
                        Ok((None, _)) => {}
                        Err(e) => {
                            self.robust.failed_migrations += 1;
                            failures.push(FailedAction {
                                action: a,
                                error: action_error(&e),
                            });
                        }
                    }
                }
                PolicyAction::Migrate(v, node) => match self.space.migrate(VirtAddr(v), node) {
                    Ok((old, c)) => {
                        if c > 0 {
                            self.shootdown(old.vbase, old.size);
                            migrations += 1;
                            costs.migrate += c;
                            self.emit(|| TraceEvent::Migration {
                                epoch,
                                vbase: old.vbase.0,
                                size: old.size,
                                from: old.node.0,
                                to: node.0,
                            });
                        }
                    }
                    Err(e) => {
                        self.robust.failed_migrations += 1;
                        failures.push(FailedAction {
                            action: a,
                            error: action_error(&e),
                        });
                    }
                },
            }
        }
        (migrations, splits, costs, scatter_failures)
    }

    /// Builds the run state of a fresh run: address space mapped (and
    /// `setup` applied), every subsystem at its initial state.
    fn new(
        machine: &'m MachineSpec,
        spec: &'m WorkloadSpec,
        config: &'m SimConfig,
        setup: Option<&dyn Fn(&mut AddressSpace)>,
        hook: Option<&'t mut dyn RunHook>,
    ) -> Self {
        assert!(
            spec.threads <= machine.total_cores(),
            "workload wants {} threads, machine has {} cores",
            spec.threads,
            machine.total_cores()
        );
        let gen = WorkloadGen::new(spec, config.seed);
        let mut space = AddressSpace::new(machine, config.vmem);
        for r in &spec.regions {
            // Overlapping or unaligned regions are a workload-spec bug, not
            // a runtime condition: fail loudly before the run starts.
            space
                .map_region(r.base, r.bytes)
                .unwrap_or_else(|e| panic!("region setup failed: {e}"));
        }
        if let Some(setup) = setup {
            setup(&mut space);
        }
        let nodes = machine.num_nodes();
        let attrib_threads = if config.attribution { spec.threads } else { 0 };
        SimState {
            machine,
            spec,
            config,
            gen,
            mlp: u64::from(spec.mlp.max(1)),
            mem: MemorySystem::new(machine, config.memsys.clone()),
            space,
            walk_caches: (0..spec.threads).map(|_| WalkCache::new()).collect(),
            tlbs: (0..spec.threads)
                .map(|_| Tlb::new(&config.vmem.tlb))
                .collect(),
            sampler: IbsSampler::new(nodes, config.ibs),
            page_stats: config.track_page_stats.then(PageAccessStats::new),
            fault_epoch: vec![0; spec.threads],
            fault_life: vec![0; spec.threads],
            l2_tlb_hit_cycles: config.vmem.tlb.l2_hit_cycles,
            fault_contention: config.vmem.costs.fault_contention_per_thread,
            threads: spec.threads,
            robust: RobustnessStats::default(),
            events_on: hook.as_ref().is_some_and(|h| h.wants_events()),
            metrics_on: hook.as_ref().is_some_and(|h| h.wants_metrics()),
            hook,
            epoch: 0,
            wall: 0,
            epoch_wall: 0,
            epoch_ops: 0,
            total_ops: 0,
            overhead_total: 0,
            epochs: Vec::new(),
            attrib_on: config.attribution,
            prelude_bd: CycleBreakdown::default(),
            epoch_wall_bd: CycleBreakdown::default(),
            core_bds: vec![CycleBreakdown::default(); attrib_threads],
            core_totals: vec![CycleBreakdown::default(); attrib_threads],
            attrib_epochs: Vec::new(),
            rec_prev_tlb: (0, 0, 0),
            rec_prev_walk: (0, 0),
        }
    }

    /// Opens a fresh run: the `RunStart` event and the serial prelude — the loader thread's header touches run alone
    /// before the parallel phase (a program's sequential setup), as one
    /// block.
    fn prelude(&mut self, policy: &dyn NumaPolicy) {
        let (machine, spec, seed) = (self.machine, self.spec, self.config.seed);
        self.emit(|| TraceEvent::RunStart {
            workload: spec.name.clone(),
            policy: policy.name().to_string(),
            machine: machine.name().to_string(),
            seed,
        });
        let ops: Vec<workloads::Op> = self
            .gen
            .prelude()
            .iter()
            .map(|&vaddr| workloads::Op {
                vaddr,
                is_write: true,
                coherent_store: false,
                prefetched: false,
            })
            .collect();
        let think = u64::from(spec.think_cycles_per_op) * ops.len() as u64;
        let mut bd = CycleBreakdown::default();
        let cycles = self.run_ops(0, &ops, 1, self.attrib_on.then_some(&mut bd));
        if self.attrib_on {
            bd.compute += think;
            self.prelude_bd = bd;
        }
        self.wall += cycles + think;
    }

    /// Runs `rounds`: one epoch's worth, or the final (possibly short)
    /// chunk.
    fn run_rounds(&mut self, rounds: std::ops::Range<u32>) {
        let spec = self.spec;
        let think = u64::from(spec.think_cycles_per_op);
        // Threads interleave in small batches so first-touch races are
        // fair: within each batch cycle every thread advances equally.
        let batch = self.config.ops_per_batch.max(1).min(spec.ops_per_round);
        let mut round_bds = vec![CycleBreakdown::default(); self.core_bds.len()];
        // Reusable op buffer: one block of the access stream at a time.
        let mut block: Vec<workloads::Op> = Vec::new();
        for r in rounds {
            let faulting = (0..spec.threads)
                .filter(|&t| self.gen.in_alloc_phase(t))
                .count();
            let mut t_cycles = vec![0u64; spec.threads];
            let mut issued: u64 = 0;
            let mut cycle_idx: usize = r as usize;
            while issued < spec.ops_per_round {
                let n = batch.min(spec.ops_per_round - issued);
                // Rotate the intra-batch thread order every cycle so no
                // thread systematically wins first-touch races.
                for k in 0..spec.threads {
                    let t = (k + cycle_idx) % spec.threads;
                    self.gen.next_block(t, n as usize, &mut block);
                    let bd = round_bds.get_mut(t);
                    t_cycles[t] += self.run_ops(t, &block, faulting, bd) + think * n;
                    if self.attrib_on {
                        round_bds[t].compute += think * n;
                    }
                }
                issued += n;
                cycle_idx += 1;
            }
            let slowest = t_cycles.iter().copied().max().unwrap_or(0);
            if self.attrib_on {
                // The round's wall time is the slowest thread's time: its
                // breakdown *is* the round's wall breakdown. Ties are safe —
                // any thread achieving the max has a breakdown summing to
                // exactly `slowest` — but take the first for determinism.
                if let Some(wi) = t_cycles.iter().position(|&c| c == slowest) {
                    self.epoch_wall_bd.add(&round_bds[wi]);
                }
                for (cb, rb) in self.core_bds.iter_mut().zip(round_bds.iter_mut()) {
                    cb.add(rb);
                    *rb = CycleBreakdown::default();
                }
            }
            let ops = spec.ops_per_round * spec.threads as u64;
            self.epoch_ops += ops;
            self.total_ops += ops;
            self.wall += slowest;
            self.epoch_wall += slowest;
        }
    }

    /// Runs boundary `self.epoch`, closing the epoch whose rounds just ran.
    ///
    /// It opens with the **decision point**: the policy reads the epoch's
    /// counters and samples and decides, and the hook may capture a
    /// checkpoint. Nothing the policy reads has changed yet, so a run
    /// resumed from that snapshot decides again from the same inputs. A
    /// `stop` snapshots there before the policy runs and returns the
    /// snapshot. Then the boundary runs: kernel daemons, the decision's
    /// actions, the epoch record and [`RunHook::on_boundary`]; the next
    /// epoch opens.
    fn epoch_boundary(&mut self, policy: &mut dyn NumaPolicy, stop: bool) -> Option<Checkpoint> {
        if stop {
            return Some(self.capture_checkpoint(&policy.save_state()));
        }
        let machine = self.machine;
        let epoch = self.epoch;

        // --- The decision point. ---
        let samples = self.sampler.epoch_samples();
        let mem_stats = *self.mem.epoch_stats();
        let counters = EpochCounters {
            epoch_cycles: self.epoch_wall,
            l2_accesses: mem_stats.l2_accesses,
            l2_misses: mem_stats.l2_misses,
            l2_walk_misses: mem_stats.l2_walk_misses,
            dram_local: mem_stats.dram_local,
            dram_remote: mem_stats.dram_remote,
            controller_requests: self.mem.controller_epoch_requests(),
            fault_time: self
                .fault_epoch
                .iter()
                .map(|&c| CoreFaultTime { fault_cycles: c })
                .collect(),
            mem_ops: self.epoch_ops,
        };
        let boundary_thp = self.space.thp();
        let policy_before = self
            .hook
            .as_deref_mut()
            .is_some_and(|h| h.may_capture(epoch))
            .then(|| policy.save_state());
        let mut ctx = EpochCtx::new(machine, &counters, &samples, boundary_thp, epoch);
        if self.hook.is_some() {
            ctx.enable_decision_log();
        }
        policy.on_epoch(&mut ctx);
        let actions = ctx.take_actions();
        let decisions = ctx.take_decisions();
        if let Some(hook) = self.hook.as_deref_mut() {
            let comparisons = ctx.take_comparisons();
            let capture = hook.on_decision(&EpochDecision {
                epoch,
                counters: &counters,
                samples: &samples,
                thp: boundary_thp,
                actions: &actions,
                decisions: &decisions,
                fingerprint: crate::trace::epoch_output_fingerprint(epoch, &actions, &decisions),
                comparisons: &comparisons,
                policy_before: policy_before.as_deref(),
            });
            if let (true, Some(bytes)) = (capture, &policy_before) {
                let ckpt = self.capture_checkpoint(bytes);
                if let Some(hook) = self.hook.as_deref_mut() {
                    hook.on_checkpoint(ckpt);
                }
            }
        }

        // --- The boundary. ---
        let ibs_overhead = self.sampler.clear_epoch();
        let (collapsed, khuge_cost) = self.space.promotion_scan(self.config.khugepaged_scan_limit);
        if !collapsed.is_empty() {
            // Collapsed ranges got new frames: stale entries must go.
            for t in &mut self.tlbs {
                t.flush();
            }
            if self.events_on {
                for &vbase in &collapsed {
                    self.emit(|| TraceEvent::Promotion {
                        epoch,
                        vbase: vbase.0,
                    });
                }
            }
        }

        for decision in &decisions {
            self.emit(|| TraceEvent::Decision {
                epoch,
                decision: decision.clone(),
            });
        }
        let mut failures: Vec<FailedAction> = Vec::new();
        let (migrations, splits, action_costs, scatter_failures) =
            self.apply_actions(&actions, &mut failures);
        let failed_actions = failures.len() as u64 + scatter_failures;
        let action_cost = action_costs.total();
        if self.events_on {
            for f in &failures {
                self.emit(|| TraceEvent::ActionFailed {
                    epoch,
                    action: f.action,
                    error: f.error,
                });
            }
        }

        // Kernel-side work (daemon scans, sampling NMIs, migrations)
        // executes on the same cores as the application; spread across
        // the machine it lengthens the epoch by its per-core share.
        let overhead = khuge_cost + ibs_overhead + action_cost;
        let overhead_share = overhead / self.threads as u64;
        self.wall += overhead_share;
        self.epoch_wall += overhead_share;
        self.overhead_total += overhead;
        if self.attrib_on {
            // The flooring of `overhead / threads` is distributed over
            // the kind buckets by prefix-sum differencing, so the five
            // shares sum to `overhead_share` exactly — no cycle is lost
            // to five independent floors.
            let [kh, ib, mi, sp, re] = split_div(
                [
                    khuge_cost,
                    ibs_overhead,
                    action_costs.migrate,
                    action_costs.split,
                    action_costs.replicate,
                ],
                self.threads as u64,
            );
            self.epoch_wall_bd.khugepaged += kh;
            self.epoch_wall_bd.ibs_sampling += ib;
            self.epoch_wall_bd.policy_migration += mi;
            self.epoch_wall_bd.policy_split += sp;
            self.epoch_wall_bd.policy_replication += re;
        }

        if self.events_on {
            // Snapshot before end_epoch resets the per-epoch
            // controller counters: the delays shown are the ones that
            // were actually charged during this epoch.
            let snaps = self.mem.controller_snapshots();
            let snap = EpochSnap {
                epoch_cycles: self.epoch_wall,
                imbalance: metrics::imbalance(&counters.controller_requests),
                lar: mem_stats.lar(),
                walk_miss_fraction: counters.walk_miss_fraction(),
                l2_misses: counters.l2_misses,
                l2_walk_misses: counters.l2_walk_misses,
                max_fault_cycles: self.fault_epoch.iter().copied().max().unwrap_or(0),
                controller_requests: snaps.iter().map(|s| s.requests).collect(),
                controller_delays: snaps.iter().map(|s| s.queue_delay).collect(),
                migrations,
                splits,
                collapses: collapsed.len() as u64,
                failed_actions,
                thp_alloc: self.space.thp().alloc_2m,
                thp_promote: self.space.thp().promote_2m,
            };
            self.emit(|| TraceEvent::EpochEnd { epoch, snap });
        }
        self.mem.end_epoch(self.epoch_wall);
        self.epochs.push(EpochRecord {
            counters,
            migrations,
            splits,
            collapses: collapsed.len() as u64,
            overhead_cycles: overhead,
            thp_alloc_enabled: self.space.thp().alloc_2m,
            thp_promote_enabled: self.space.thp().promote_2m,
            failed_actions,
        });
        if self.attrib_on {
            self.attrib_epochs.push(EpochAttribution {
                wall: self.epoch_wall_bd,
                cores: self.core_bds.clone(),
            });
            for (tot, cb) in self.core_totals.iter_mut().zip(self.core_bds.iter_mut()) {
                tot.add(cb);
                *cb = CycleBreakdown::default();
            }
            self.epoch_wall_bd = CycleBreakdown::default();
        }
        let (tlb, walk) = (self.tlb_totals(), self.walk_cache_totals());
        if self.hook.is_some() {
            let counters = &self.epochs.last().expect("boundary just pushed").counters;
            let metrics = self.metrics_on.then(|| MetricsSample {
                epoch,
                epoch_cycles: self.epoch_wall,
                mem_ops: counters.mem_ops,
                imbalance: metrics::imbalance(&counters.controller_requests),
                lar: mem_stats.lar(),
                walk_miss_fraction: counters.walk_miss_fraction(),
                controller_requests: counters.controller_requests.clone(),
                tlb_l1_hits: tlb.0 - self.rec_prev_tlb.0,
                tlb_l2_hits: tlb.1 - self.rec_prev_tlb.1,
                tlb_misses: tlb.2 - self.rec_prev_tlb.2,
                walk_cache_hits: walk.0 - self.rec_prev_walk.0,
                walk_cache_misses: walk.1 - self.rec_prev_walk.1,
                migrations,
                splits,
                collapses: collapsed.len() as u64,
                failed_actions,
                pages: self.page_stats.as_ref().map(|ps| {
                    let rows = self.mapped_page_rows(ps);
                    PageSnapshot {
                        pamup: metrics::pamup(&rows),
                        nhp: metrics::nhp(&rows),
                        psp: metrics::psp(&rows),
                    }
                }),
                attrib: self.attrib_epochs.last().map(|e| e.wall),
            });
            if let Some(hook) = self.hook.as_deref_mut() {
                hook.on_boundary(&EpochBoundary { epoch, metrics });
            }
        }
        self.rec_prev_tlb = tlb;
        self.rec_prev_walk = walk;
        self.fault_epoch.iter_mut().for_each(|c| *c = 0);
        self.epoch_wall = 0;
        self.epoch_ops = 0;
        self.epoch = epoch + 1;
        if self.config.validate_each_epoch {
            self.space
                .validate()
                .unwrap_or_else(|e| panic!("vmem invariant violated after epoch {epoch}: {e}"));
        }
        None
    }

    /// Lifetime TLB `(L1 hits, L2 hits, misses)`, summed over threads.
    fn tlb_totals(&self) -> (u64, u64, u64) {
        self.tlbs.iter().fold((0, 0, 0), |acc, t| {
            let s = t.stats();
            (acc.0 + s.l1_hits, acc.1 + s.l2_hits, acc.2 + s.misses)
        })
    }

    /// Lifetime walk-cache `(hits, misses)`, summed over threads.
    fn walk_cache_totals(&self) -> (u64, u64) {
        self.walk_caches
            .iter()
            .fold((0, 0), |acc, w| (acc.0 + w.hits(), acc.1 + w.misses()))
    }

    /// Page-stat rows at mapped granularity: every 4 KiB page folds into
    /// the page that maps it now.
    fn mapped_page_rows(&self, ps: &PageAccessStats) -> Vec<(u64, u64, u64)> {
        ps.aggregate(|base4k| {
            self.space
                .translate(VirtAddr(base4k))
                .map(|m| m.vbase.0)
                .unwrap_or(base4k)
        })
    }

    /// Whole-run aggregates: the finished run's [`SimResult`].
    fn finish(self, policy: &dyn NumaPolicy) -> SimResult {
        let (machine, spec, wall) = (self.machine, self.spec, self.wall);
        let life = self.mem.lifetime_stats();
        let controller_totals = self.mem.controller_total_requests();
        let max_fault = self.fault_life.iter().copied().max().unwrap_or(0);
        let (l1h, l2h, miss) = self.tlb_totals();
        let tlb_total = l1h + l2h + miss;

        let lifetime = LifetimeStats {
            lar: life.lar(),
            imbalance: metrics::imbalance(&controller_totals),
            walk_miss_fraction: if life.l2_misses == 0 {
                0.0
            } else {
                life.l2_walk_misses as f64 / life.l2_misses as f64
            },
            tlb_miss_ratio: if tlb_total == 0 {
                0.0
            } else {
                miss as f64 / tlb_total as f64
            },
            max_fault_cycles: max_fault,
            max_fault_fraction: if wall == 0 {
                0.0
            } else {
                max_fault as f64 / wall as f64
            },
            total_fault_cycles: self.fault_life.iter().sum(),
            vmem: self.space.stats().clone(),
            overhead_cycles: self.overhead_total,
            ibs_samples: self.sampler.total_taken(),
            total_ops: self.total_ops,
        };

        let pages = match &self.page_stats {
            Some(ps) => {
                let rows_mapped = self.mapped_page_rows(ps);
                let rows_4k = ps.aggregate(|b| b);
                PageMetrics {
                    pamup: metrics::pamup(&rows_mapped),
                    nhp: metrics::nhp(&rows_mapped),
                    psp: metrics::psp(&rows_mapped),
                    pamup_4k: metrics::pamup(&rows_4k),
                    nhp_4k: metrics::nhp(&rows_4k),
                    psp_4k: metrics::psp(&rows_4k),
                }
            }
            None => PageMetrics::default(),
        };

        let attribution = if self.attrib_on {
            let mut total = self.prelude_bd;
            for e in &self.attrib_epochs {
                total.add(&e.wall);
            }
            let ledger = AttributionLedger {
                prelude: self.prelude_bd,
                epochs: self.attrib_epochs,
                total,
                core_totals: self.core_totals,
            };
            debug_assert!(
                ledger.conserves(wall),
                "attribution conservation violated: buckets sum to {}, wall is {wall}",
                ledger.total.total()
            );
            Some(ledger)
        } else {
            None
        };

        SimResult {
            workload: spec.name.clone(),
            policy: policy.name().to_string(),
            machine: machine.name().to_string(),
            runtime_cycles: wall,
            runtime_ms: machine.cycles_to_ms(wall),
            epochs: self.epochs,
            lifetime,
            pages,
            robustness: self.robust,
            attribution,
        }
    }

    /// Serializes everything a mid-stream resume needs, in `ckpt-v3`
    /// payload order: the snapshot of boundary `self.epoch`'s decision
    /// point, with `policy_bytes` the policy's state before it decided
    /// there. [`SimState::restore_checkpoint`] mirrors this exactly; any
    /// change to either must extend the schema descriptor in
    /// [`crate::checkpoint`].
    fn capture_checkpoint(&self, policy_bytes: &[u8]) -> Checkpoint {
        let mut e = codec::Enc::new();
        self.gen.save_into(&mut e);
        self.space.save_into(&mut e);
        e.seq(self.walk_caches.iter(), |e, w| w.save_into(e));
        e.seq(self.tlbs.iter(), |e, t| t.save_into(e));
        self.mem.save_into(&mut e);
        self.sampler.save_into(&mut e);
        e.bool(self.page_stats.is_some());
        if let Some(ps) = &self.page_stats {
            ps.save_into(&mut e);
        }
        e.seq(self.fault_epoch.iter(), |e, &c| e.u64(c));
        e.seq(self.fault_life.iter(), |e, &c| e.u64(c));
        e.u64(self.robust.failed_migrations);
        e.u64(self.robust.failed_splits);
        e.u64(self.wall);
        e.u64(self.epoch_wall);
        e.u64(self.epoch_ops);
        let (t, w) = (self.rec_prev_tlb, self.rec_prev_walk);
        for v in [t.0, t.1, t.2, w.0, w.1] {
            e.u64(v);
        }
        e.u64(self.total_ops);
        e.u64(self.overhead_total);
        e.seq(self.epochs.iter(), checkpoint::enc_epoch_record);
        e.bool(self.attrib_on);
        if self.attrib_on {
            let blob = Blob::Ckpt;
            checkpoint::enc_breakdown(&mut e, &self.prelude_bd, blob);
            e.seq(self.core_totals.iter(), |e, b| {
                checkpoint::enc_breakdown(e, b, blob)
            });
            e.seq(self.attrib_epochs.iter(), |e, a| {
                checkpoint::enc_epoch_attribution(e, a, blob)
            });
            checkpoint::enc_breakdown(&mut e, &self.epoch_wall_bd, blob);
            e.seq(self.core_bds.iter(), |e, b| {
                checkpoint::enc_breakdown(e, b, blob)
            });
        }
        e.bytes(policy_bytes);
        Checkpoint::new(
            self.epoch,
            checkpoint::config_fingerprint(self.machine, self.spec, self.config),
            e.into_bytes(),
        )
    }

    /// Overwrites freshly-constructed run state from a `ckpt-v3` payload,
    /// in the exact order [`SimState::capture_checkpoint`] wrote it.
    /// Constructor-fixed dimensions (thread counts, TLB count, attribution
    /// switch) are asserted, not restored — a fingerprint-matched
    /// checkpoint always agrees on them. A fork (`restore_policy ==
    /// false`) keeps the caller-prepared policy state: the snapshot's
    /// policy bytes belong to the run it was taken from.
    fn restore_checkpoint(
        &mut self,
        ckpt: &Checkpoint,
        policy: &mut dyn NumaPolicy,
        restore_policy: bool,
    ) {
        assert!(
            ckpt.matches(self.machine, self.spec, self.config),
            "checkpoint was taken under a different machine/spec/config"
        );
        let mut d = codec::Dec::new(ckpt.payload());
        self.gen.load_from(&mut d);
        self.space.load_from(&mut d);
        let n_wc = d.usize();
        assert_eq!(n_wc, self.walk_caches.len(), "checkpoint walk-cache count");
        for w in &mut self.walk_caches {
            w.load_from(&mut d);
        }
        let n_tlbs = d.usize();
        assert_eq!(n_tlbs, self.tlbs.len(), "checkpoint TLB count");
        for t in &mut self.tlbs {
            t.load_from(&mut d);
        }
        self.mem.load_from(&mut d);
        self.sampler.load_from(&mut d);
        let had_stats = d.bool();
        assert_eq!(
            had_stats,
            self.page_stats.is_some(),
            "checkpoint page-stat tracking does not match the config"
        );
        if let Some(ps) = &mut self.page_stats {
            ps.load_from(&mut d);
        }
        let fe = d.seq(|d| d.u64());
        assert_eq!(
            fe.len(),
            self.fault_epoch.len(),
            "checkpoint fault-epoch length"
        );
        self.fault_epoch = fe;
        let fl = d.seq(|d| d.u64());
        assert_eq!(
            fl.len(),
            self.fault_life.len(),
            "checkpoint fault-life length"
        );
        self.fault_life = fl;
        self.robust = RobustnessStats {
            failed_migrations: d.u64(),
            failed_splits: d.u64(),
        };
        self.wall = d.u64();
        self.epoch_wall = d.u64();
        self.epoch_ops = d.u64();
        self.rec_prev_tlb = (d.u64(), d.u64(), d.u64());
        self.rec_prev_walk = (d.u64(), d.u64());
        self.total_ops = d.u64();
        self.overhead_total = d.u64();
        self.epochs = d.seq(checkpoint::dec_epoch_record);
        let saved_attrib = d.bool();
        assert_eq!(
            saved_attrib, self.attrib_on,
            "checkpoint attribution switch does not match the config"
        );
        if self.attrib_on {
            let blob = Blob::Ckpt;
            self.prelude_bd = checkpoint::dec_breakdown(&mut d, blob);
            let ct = d.seq(|d| checkpoint::dec_breakdown(d, blob));
            assert_eq!(
                ct.len(),
                self.core_totals.len(),
                "checkpoint core-total count"
            );
            self.core_totals = ct;
            self.attrib_epochs = d.seq(|d| checkpoint::dec_epoch_attribution(d, blob));
            self.epoch_wall_bd = checkpoint::dec_breakdown(&mut d, blob);
            let cb = d.seq(|d| checkpoint::dec_breakdown(d, blob));
            assert_eq!(cb.len(), self.core_bds.len(), "checkpoint core count");
            self.core_bds = cb;
        }
        let policy_bytes = d.bytes().to_vec();
        d.finish();
        if restore_policy {
            policy.restore_state(&policy_bytes);
        }
        self.epoch = ckpt.epoch();
    }
}

impl Simulation {
    /// Runs `spec` on `machine` under `policy` and returns the results —
    /// [`Simulation::run_with`] with default options.
    ///
    /// The run is fully deterministic in `(spec, config.seed)`.
    ///
    /// # Panics
    ///
    /// Panics if the spec has more threads than the machine has cores, or if
    /// the machine runs out of physical memory (a configuration error at our
    /// scaled footprints).
    pub fn run(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
    ) -> SimResult {
        Simulation::run_with(machine, spec, config, policy, RunOptions::default()).result()
    }

    /// Runs like [`Simulation::run`] until the decision point of epoch
    /// `epoch`'s boundary (its rounds done, its policy decision not yet
    /// made), then snapshots into a [`Checkpoint`] and stops —
    /// [`Simulation::resume`] continues from it bit-identically, starting
    /// with that decision. Returns `None` when the run has no boundary
    /// `epoch` (the run then executed in full; no snapshot exists).
    pub fn checkpoint_at(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
        epoch: u32,
    ) -> Option<Checkpoint> {
        let opts = RunOptions {
            stop_at: Some(epoch),
            ..RunOptions::default()
        };
        Simulation::run_with(machine, spec, config, policy, opts).checkpoint()
    }

    /// Continues a run from `ckpt` to completion. The checkpoint must come
    /// from the same machine/spec/config (asserted via its fingerprint), and
    /// `policy` must be a freshly constructed instance of the same policy —
    /// its mutable state is restored via [`NumaPolicy::restore_state`]. The
    /// result is bit-identical to an uninterrupted run's.
    pub fn resume(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
        ckpt: &Checkpoint,
    ) -> SimResult {
        let opts = RunOptions {
            start: Start::Resume(ckpt),
            ..RunOptions::default()
        };
        Simulation::run_with(machine, spec, config, policy, opts).result()
    }

    /// The one run entry point: `opts` selects the address-space setup,
    /// the run's observer hook, where the run starts (fresh or
    /// from a snapshot), and whether it stops early at a snapshot
    /// boundary. Every combination produces the same simulated results as
    /// a plain [`Simulation::run`].
    ///
    /// # Panics
    ///
    /// As [`Simulation::run`]; and when a resumed or forked checkpoint was
    /// taken under a different machine, spec or config.
    pub fn run_with(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
        opts: RunOptions<'_>,
    ) -> RunOutcome {
        let RunOptions {
            setup,
            hook,
            start,
            stop_at,
        } = opts;

        // --- Setup. ---
        let mut st = SimState::new(machine, spec, config, setup, hook);
        // A policy that never reads samples makes sample storage dead
        // work: elide it. The NMI count and its overhead are unchanged, so
        // results are bit-identical.
        if !policy.consumes_samples() {
            st.sampler.set_store(false);
        }
        let resumed = !matches!(start, Start::Fresh);
        match start {
            Start::Fresh => {
                if let Some(h) = st.hook.as_deref_mut() {
                    h.on_run_start(&RunInfo {
                        workload: spec.name.clone(),
                        policy: policy.name().to_string(),
                        machine: machine.name().to_string(),
                        threads: spec.threads,
                        nodes: machine.num_nodes(),
                    });
                }
                st.prelude(&*policy);
            }
            Start::Resume(ckpt) => st.restore_checkpoint(ckpt, policy, true),
            Start::Fork(ckpt) => st.restore_checkpoint(&ckpt, policy, false),
        }

        // --- Rounds and boundaries, one epoch chunk at a time. ---
        // A resumed run starts at the decision point of boundary
        // `st.epoch`: that epoch's rounds already ran.
        let total_rounds = st.gen.total_rounds();
        let rounds_per_epoch = config.rounds_per_epoch;
        let mut round = if resumed {
            (u64::from(st.epoch + 1) * u64::from(rounds_per_epoch)).min(u64::from(total_rounds))
                as u32
        } else {
            0
        };
        let mut rounds_done = resumed;
        loop {
            if !rounds_done {
                if round >= total_rounds {
                    break;
                }
                let chunk_end =
                    ((round / rounds_per_epoch + 1) * rounds_per_epoch).min(total_rounds);
                st.run_rounds(round..chunk_end);
                round = chunk_end;
            }
            rounds_done = false;
            if let Some(ckpt) = st.epoch_boundary(policy, stop_at == Some(st.epoch)) {
                return RunOutcome::Stopped(ckpt);
            }
        }

        // --- Finale. ---
        RunOutcome::Finished(Box::new(st.finish(&*policy)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NullPolicy;
    use crate::trace::DigestSink;
    use vmem::ThpControls;
    use workloads::{AccessPattern, RegionSpec};

    fn tiny_spec(pattern: AccessPattern, threads: usize) -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny".into(),
            threads,
            regions: vec![RegionSpec {
                base: 64 << 30,
                bytes: 4 << 20,
                share: 1.0,
                pattern,
                alloc_skew: 0.0,
                loader_headers: 0.0,
                rw_shared: false,
                read_only: false,
            }],
            ops_per_round: 400,
            compute_rounds: 8,
            think_cycles_per_op: 10,
            write_fraction: 0.3,
            phases: Vec::new(),
            mlp: 1,
        }
    }

    fn run_tiny(thp: ThpControls) -> SimResult {
        let machine = MachineSpec::test_machine();
        let mut config = SimConfig::fast_test();
        config.vmem.thp = thp;
        let spec = tiny_spec(AccessPattern::PrivateSlices, 4);
        Simulation::run(&machine, &spec, &config, &mut NullPolicy)
    }

    #[test]
    fn run_completes_and_accounts_ops() {
        let r = run_tiny(ThpControls::small_only());
        // 4 MiB = 1024 alloc ops spread over 4 threads = 256 each
        // → 1 alloc round; plus 8 compute rounds, 400 ops, 4 threads.
        assert_eq!(r.lifetime.total_ops, 9 * 400 * 4);
        assert!(r.runtime_cycles > 0);
        assert!(!r.epochs.is_empty());
        assert_eq!(r.lifetime.vmem.faults_4k, 1024);
    }

    #[test]
    fn thp_reduces_faults_512x() {
        let small = run_tiny(ThpControls::small_only());
        let huge = run_tiny(ThpControls::thp());
        assert_eq!(small.lifetime.vmem.faults_4k, 1024);
        assert_eq!(huge.lifetime.vmem.faults_2m, 2);
        assert_eq!(huge.lifetime.vmem.faults_4k, 0);
    }

    #[test]
    fn thp_reduces_tlb_misses() {
        let small = run_tiny(ThpControls::small_only());
        let huge = run_tiny(ThpControls::thp());
        assert!(
            huge.lifetime.tlb_miss_ratio < small.lifetime.tlb_miss_ratio,
            "huge {} vs small {}",
            huge.lifetime.tlb_miss_ratio,
            small.lifetime.tlb_miss_ratio
        );
    }

    #[test]
    fn private_slices_have_high_lar_with_small_pages() {
        let r = run_tiny(ThpControls::small_only());
        assert!(r.lifetime.lar > 0.9, "lar {}", r.lifetime.lar);
    }

    #[test]
    fn interleaved_chunks_lose_locality_under_thp() {
        let machine = MachineSpec::test_machine();
        let spec = tiny_spec(
            AccessPattern::InterleavedChunks {
                chunk_bytes: 8192,
                dwell_ops: 1,
            },
            4,
        );
        let mut config = SimConfig::fast_test();
        config.vmem.thp = ThpControls::small_only();
        let small = Simulation::run(&machine, &spec, &config, &mut NullPolicy);
        config.vmem.thp = ThpControls::thp();
        let huge = Simulation::run(&machine, &spec, &config, &mut NullPolicy);
        assert!(
            huge.lifetime.lar < small.lifetime.lar - 0.1,
            "huge {} small {}",
            huge.lifetime.lar,
            small.lifetime.lar
        );
        // And the page-level sharing metric jumps (the paper's PSP).
        assert!(
            huge.pages.psp > small.pages.psp + 20.0,
            "huge {} small {}",
            huge.pages.psp,
            small.pages.psp
        );
    }

    #[test]
    fn determinism() {
        let a = run_tiny(ThpControls::thp());
        let b = run_tiny(ThpControls::thp());
        assert_eq!(a.runtime_cycles, b.runtime_cycles);
        assert_eq!(a.lifetime.ibs_samples, b.lifetime.ibs_samples);
    }

    #[test]
    fn fault_time_is_tracked() {
        let r = run_tiny(ThpControls::small_only());
        assert!(r.lifetime.total_fault_cycles > 0);
        assert!(r.lifetime.max_fault_cycles > 0);
        assert!(r.lifetime.max_fault_fraction > 0.0);
        assert!(r.lifetime.max_fault_fraction < 1.0);
    }

    #[test]
    fn a_full_node_makes_faults_fall_back_to_other_nodes() {
        let machine = MachineSpec::test_machine();
        let spec = tiny_spec(AccessPattern::PrivateSlices, 4);
        let mut config = SimConfig::fast_test();
        config.vmem.thp = ThpControls::thp();
        config.validate_each_epoch = true;
        // Take every free frame of node 0 before the workload starts: its
        // threads' faults must land on other nodes instead of panicking.
        let fill = |space: &mut AddressSpace| {
            while space.alloc_frame(NodeId(0), PageSize::Size4K).is_ok() {}
        };
        let opts = RunOptions {
            setup: Some(&fill),
            ..RunOptions::default()
        };
        let r = Simulation::run_with(&machine, &spec, &config, &mut NullPolicy, opts).result();
        assert_eq!(r.lifetime.total_ops, 9 * 400 * 4);
        assert!(r.lifetime.lar < run_tiny(ThpControls::thp()).lifetime.lar);
    }

    #[test]
    fn epoch_records_cover_run() {
        let r = run_tiny(ThpControls::thp());
        let rounds = 9; // 1 alloc + 8 compute
        let expected = rounds / 2 + 1; // rounds_per_epoch = 2, plus final
        assert_eq!(r.epochs.len(), expected);
        let ops: u64 = r.epochs.iter().map(|e| e.counters.mem_ops).sum();
        assert_eq!(ops, r.lifetime.total_ops);
    }

    /// A config that exercises every serialized subsystem: THP (2 MiB page
    /// tables, promotion), attribution (ledger state), and page-stat
    /// tracking.
    fn ckpt_config() -> SimConfig {
        let mut config = SimConfig::fast_test();
        config.vmem.thp = ThpControls::thp();
        config.validate_each_epoch = true;
        config.attribution = true;
        config.track_page_stats = true;
        config
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_at_every_epoch() {
        let machine = MachineSpec::test_machine();
        let spec = tiny_spec(AccessPattern::PrivateSlices, 4);
        let config = ckpt_config();
        let full = Simulation::run(&machine, &spec, &config, &mut NullPolicy);
        let n_epochs = full.epochs.len() as u32;
        // Boundaries 0..n exist; past the final one there is none to stop at.
        assert!(
            Simulation::checkpoint_at(&machine, &spec, &config, &mut NullPolicy, n_epochs)
                .is_none()
        );
        for epoch in 0..n_epochs {
            let ckpt = Simulation::checkpoint_at(&machine, &spec, &config, &mut NullPolicy, epoch)
                .unwrap_or_else(|| panic!("run has {n_epochs} epochs, none at {epoch}"));
            assert_eq!(ckpt.epoch(), epoch);
            // Round-trip the envelope too: resume from decoded bytes.
            let ckpt = Checkpoint::from_bytes(&ckpt.to_bytes()).expect("envelope round-trip");
            let resumed = Simulation::resume(&machine, &spec, &config, &mut NullPolicy, &ckpt);
            assert_eq!(resumed, full, "resume from epoch {epoch} diverged");
        }
    }

    #[test]
    fn checkpoint_resume_digest_matches_uninterrupted_trace() {
        let machine = MachineSpec::test_machine();
        let spec = tiny_spec(AccessPattern::PrivateSlices, 4);
        let config = ckpt_config();
        let mut whole = DigestSink::new();
        let traced = RunOptions {
            hook: Some(&mut whole),
            ..RunOptions::default()
        };
        let full = Simulation::run_with(&machine, &spec, &config, &mut NullPolicy, traced).result();
        let whole = whole.into_digest();

        // One hook threaded through both phases sees the same event stream.
        let mut spliced = DigestSink::new();
        let first = RunOptions {
            hook: Some(&mut spliced),
            stop_at: Some(2),
            ..RunOptions::default()
        };
        let ckpt = Simulation::run_with(&machine, &spec, &config, &mut NullPolicy, first)
            .checkpoint()
            .expect("epoch 2 exists");
        let second = RunOptions {
            hook: Some(&mut spliced),
            start: Start::Resume(&ckpt),
            ..RunOptions::default()
        };
        let resumed =
            Simulation::run_with(&machine, &spec, &config, &mut NullPolicy, second).result();
        let spliced = spliced.into_digest();
        assert_eq!(resumed, full);
        assert_eq!(spliced.diff(&whole), None, "spliced trace digest diverged");
    }

    /// Records the capture offers and decision points a run shows its
    /// hook, declining each, and the events it receives without asking
    /// for them.
    #[derive(Default)]
    struct CountOffers {
        offers: Vec<u32>,
        decisions: Vec<u32>,
        events: usize,
    }

    impl RunHook for CountOffers {
        fn on_event(&mut self, _event: &TraceEvent) {
            self.events += 1;
        }

        fn may_capture(&mut self, epoch: u32) -> bool {
            self.offers.push(epoch);
            false
        }

        fn on_decision(&mut self, d: &EpochDecision<'_>) -> bool {
            self.decisions.push(d.epoch);
            true
        }

        fn on_checkpoint(&mut self, ckpt: Checkpoint) {
            panic!("captured at {} without saying it may", ckpt.epoch());
        }
    }

    #[test]
    fn hook_is_offered_every_boundary() {
        let machine = MachineSpec::test_machine();
        let spec = tiny_spec(AccessPattern::PrivateSlices, 4);
        let config = ckpt_config();
        let mut hook = CountOffers::default();
        let opts = RunOptions {
            hook: Some(&mut hook),
            ..RunOptions::default()
        };
        let full = Simulation::run_with(&machine, &spec, &config, &mut NullPolicy, opts).result();
        let n = full.epochs.len() as u32;
        assert!(n >= 2, "the run needs a boundary to offer");
        // Every boundary, the final one included: a fork there runs the
        // final boundary with its own policy.
        assert_eq!(hook.offers, (0..n).collect::<Vec<_>>());
        assert_eq!(hook.decisions, hook.offers);
        assert_eq!(hook.events, 0, "events reach only a hook that wants them");
        // A stop at the final boundary snapshots, and resumes to the same
        // result.
        let last = Simulation::checkpoint_at(&machine, &spec, &config, &mut NullPolicy, n - 1)
            .expect("a stop at the final boundary snapshots");
        assert_eq!(last.epoch(), n - 1);
        let resumed = Simulation::resume(&machine, &spec, &config, &mut NullPolicy, &last);
        assert_eq!(resumed, full);
    }

    /// A resumed run's metrics samples continue the uninterrupted run's,
    /// per-epoch TLB and walk-cache deltas included, even when the
    /// snapshot came from a run that recorded no metrics.
    #[test]
    fn resumed_metrics_match_uninterrupted_samples() {
        let machine = MachineSpec::test_machine();
        let spec = tiny_spec(AccessPattern::PrivateSlices, 4);
        let config = ckpt_config();
        let mut whole = crate::VecRecorder::new();
        let opts = RunOptions {
            hook: Some(&mut whole),
            ..RunOptions::default()
        };
        let full = Simulation::run_with(&machine, &spec, &config, &mut NullPolicy, opts).result();
        for epoch in 0..full.epochs.len() as u32 {
            let ckpt = Simulation::checkpoint_at(&machine, &spec, &config, &mut NullPolicy, epoch)
                .expect("every boundary snapshots");
            let mut tail = crate::VecRecorder::new();
            let opts = RunOptions {
                hook: Some(&mut tail),
                start: Start::Resume(&ckpt),
                ..RunOptions::default()
            };
            Simulation::run_with(&machine, &spec, &config, &mut NullPolicy, opts).result();
            let json =
                |s: &[MetricsSample]| s.iter().map(MetricsSample::to_json).collect::<Vec<_>>();
            assert_eq!(
                json(&tail.samples),
                json(&whole.samples[epoch as usize..]),
                "metrics resumed at {epoch}"
            );
        }
    }

    #[test]
    fn checkpoint_past_end_of_run_returns_none() {
        let machine = MachineSpec::test_machine();
        let spec = tiny_spec(AccessPattern::PrivateSlices, 4);
        let config = ckpt_config();
        assert!(
            Simulation::checkpoint_at(&machine, &spec, &config, &mut NullPolicy, 999).is_none()
        );
    }

    #[test]
    #[should_panic(expected = "different machine/spec/config")]
    fn resume_rejects_checkpoint_from_different_config() {
        let machine = MachineSpec::test_machine();
        let spec = tiny_spec(AccessPattern::PrivateSlices, 4);
        let config = ckpt_config();
        let ckpt = Simulation::checkpoint_at(&machine, &spec, &config, &mut NullPolicy, 1)
            .expect("epoch 1 exists");
        let mut other = config.clone();
        other.seed ^= 1;
        Simulation::resume(&machine, &spec, &other, &mut NullPolicy, &ckpt);
    }
}
