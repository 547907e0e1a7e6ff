//! The simulation loop.

use crate::checkpoint::{self, Checkpoint};
use crate::config::SimConfig;
use crate::faults::FaultPlan;
use crate::policy::{ActionError, EpochCtx, FailedAction, NumaPolicy, PolicyAction};
use crate::recorder::{MetricsRecorder, MetricsSample, PageSnapshot, RunInfo};
use crate::result::{
    AttributionLedger, EpochAttribution, EpochRecord, LifetimeStats, PageMetrics, RobustnessStats,
    SimResult,
};
use crate::trace::{EpochSnap, PolicyDecision, TraceEvent, TraceSink};
use memsys::{AccessKind, AccessOutcome, MemorySystem, ServiceLevel};
use numa_topology::{CoreId, MachineSpec, NodeId};
use profiling::{
    metrics, CoreFaultTime, CycleBreakdown, EpochCounters, IbsSample, IbsSampler, PageAccessStats,
};
use vmem::{
    AddressSpace, Mapping, PageSize, SpaceError, ThpControls, Tlb, TlbLookup, VirtAddr, WalkCache,
};
use workloads::{WorkloadGen, WorkloadSpec};

/// Runs complete workloads under a policy and produces [`SimResult`]s.
pub struct Simulation;

/// Where in its lifecycle a run starts and stops (internal driver mode;
/// the public entry points each select one).
enum RunMode<'c> {
    /// Start to finish — the normal run.
    Full,
    /// Run until the boundary that closes epoch `epoch`, snapshot into
    /// `out`, and stop. No [`SimResult`] is produced and the trace sink is
    /// **not** finished — the caller threads the same sink through the
    /// subsequent [`RunMode::Resume`] phase, whose events continue exactly
    /// where this phase stopped.
    CheckpointAt {
        epoch: u32,
        out: &'c mut Option<Checkpoint>,
    },
    /// Restore state from `ckpt` and run from its epoch to completion.
    /// `restore_policy` selects whether the policy's mutable state is
    /// overwritten from the snapshot (a plain resume) or left as the caller
    /// prepared it (a fork: the caller replayed a *different* policy up to
    /// the checkpoint's boundary and wants the tail simulated under it).
    Resume {
        ckpt: &'c Checkpoint,
        restore_policy: bool,
    },
}

/// Everything the policy saw and did at one epoch boundary, handed to a
/// [`RunObserver`] before the actions are applied. The inputs are exactly
/// the values [`EpochCtx::new`] was built from (samples *after* fault
/// filtering); the outputs are everything the engine consumes from the
/// policy, plus their canonical FNV-1a fingerprint
/// ([`crate::trace::epoch_output_fingerprint`]).
pub struct EpochBoundary<'a> {
    /// Index of the epoch that just closed.
    pub epoch: u32,
    /// Counters the policy read.
    pub counters: &'a EpochCounters,
    /// IBS samples the policy read (post fault-filter).
    pub samples: &'a [IbsSample],
    /// THP switches as the boundary opened.
    pub thp: ThpControls,
    /// Previous epoch's failed actions — `Some` exactly when fault
    /// injection is active (mirrors the engine's `set_failures` call).
    pub failures: Option<&'a [FailedAction]>,
    /// Actions the policy queued, in issue order.
    pub actions: &'a [PolicyAction],
    /// Decisions the policy noted, in note order.
    pub decisions: &'a [PolicyDecision],
    /// Retries the policy recorded.
    pub retries: u64,
    /// `epoch_output_fingerprint(epoch, actions, decisions, retries)`.
    pub fingerprint: u64,
}

/// Observes a run at epoch boundaries — the hook behind the bench runner's
/// prefix-sharing fork tree. The observer receives every boundary's
/// input/output record and may request a ckpt-v1 snapshot at any boundary
/// with epoch ≥ 1 (the capture point that closes epoch `e-1` and begins
/// epoch `e`). Attaching an observer never changes simulation results: the
/// only side effect is that IBS sample storage stays on even for policies
/// that don't consume samples, which the engine already guarantees is
/// observationally neutral (the NMI count and its overhead are unchanged).
pub trait RunObserver {
    /// Called at every epoch boundary, after the policy ran and before its
    /// actions are applied.
    fn on_boundary(&mut self, b: &EpochBoundary<'_>);
    /// Whether to capture a checkpoint at the boundary beginning `epoch`.
    fn want_checkpoint(&mut self, epoch: u32) -> bool;
    /// Receives the checkpoint requested by
    /// [`RunObserver::want_checkpoint`].
    fn on_checkpoint(&mut self, ckpt: Checkpoint);
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
/// action class). `migrate + split + replicate` is the old scalar total.
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
    /// Fault injector (inert unless the config enables it).
    faults: FaultPlan,
    /// Failure-and-recovery accounting for the run.
    robust: RobustnessStats,
    /// Trace sink, if the caller attached one ([`Simulation::run_traced`]).
    /// `None` on plain runs: no event is constructed, let alone emitted.
    trace: Option<&'t mut dyn TraceSink>,
    /// Index of the epoch currently accumulating (for event attribution).
    epoch: u32,
    /// Batched fast path enabled (default; `CARREFOUR_NO_FASTPATH=1`
    /// falls back to the per-op path, which is bit-identical).
    fast_on: bool,
    /// Epoch-scoped memo of uncached-access outcomes per
    /// `(from_node, home_node)` pair. Within an epoch the outcome is a pure
    /// function of the pair (controller and link delays only change at
    /// epoch end), so it is computed once and repeats are bulk-charged.
    /// Cleared at every epoch boundary and on any TLB shootdown.
    fast_uncached: Vec<Option<AccessOutcome>>,
    /// Per-home-node pending uncached accesses of the block in flight,
    /// flushed via [`MemorySystem::charge_uncached_n`] at block end.
    fast_pending: Vec<u64>,
    /// Node count (stride of the `fast_uncached` matrix).
    fast_nodes: usize,
    /// log2 of the L1 line size, for same-line detection.
    l1_line_shift: u32,
    /// L1 hit latency in cycles (the outcome of a stable hit).
    l1_latency: u32,
}

/// Maps a vmem error to the action-level error a policy sees.
fn action_error(e: &SpaceError) -> ActionError {
    match e {
        SpaceError::Frame(_) => ActionError::NoMemory,
        _ => ActionError::Gone,
    }
}

impl<'m, 't> SimState<'m, 't> {
    /// Emits one trace event. The closure only runs when a sink is
    /// attached, so untraced runs pay a single branch per call site.
    #[inline]
    fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.emit(&make());
        }
    }

    /// Executes one memory operation for `thread`; returns its cycle cost.
    ///
    /// When `bd` is supplied, every cycle of the return value is also
    /// booked into exactly one of its buckets (the conservation
    /// invariant); `None` — the default — skips all attribution work.
    #[inline]
    fn run_op(
        &mut self,
        thread: usize,
        op: workloads::Op,
        faulting_threads: usize,
        mut bd: Option<&mut CycleBreakdown>,
    ) -> u64 {
        let vaddr = VirtAddr(op.vaddr);
        let core = CoreId::from(thread);
        let node = self.machine.node_of_core(core);
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

        // 1b. Replication: readers use their local replica; a store to a
        // replicated page collapses the replica set first.
        let mapping = if self.space.has_replicas() && mapping.size == PageSize::Size4K {
            if op.is_write && self.space.is_replicated(mapping.vbase) {
                let collapse = self.space.collapse_replicas(mapping.vbase);
                cycles += collapse;
                if let Some(b) = bd.as_deref_mut() {
                    b.replica_collapse += collapse;
                }
                self.shootdown(mapping.vbase, mapping.size);
                let epoch = self.epoch;
                self.emit(|| TraceEvent::ReplicaCollapse {
                    epoch,
                    vbase: mapping.vbase.0,
                });
                mapping
            } else {
                self.space.resolve_replica(mapping, node)
            }
        } else {
            mapping
        };

        // 2. Data access through the memory hierarchy. Stores to line-shared
        // data bypass the caches: coherence pushes them to the home node.
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
            if let Some(b) = bd {
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
        cycles
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
        // Every step address is known before any is charged: prefetch all
        // their cache sets (host-side only, no simulated effect) so the
        // random, usually host-cold set loads overlap instead of
        // serializing through the replay loop below. The caller's data
        // access follows right after the walk, and its physical address is
        // already determined by the walked mapping — warm its sets too,
        // with the whole step replay as the overlap window.
        for &step in walk.steps() {
            let s = if treps {
                self.space.resolve_table_step(step, node)
            } else {
                step
            };
            self.mem.prefetch_access(core, s.pte_addr.0);
        }
        if let Some(m) = walk.mapping {
            self.mem.prefetch_access(core, m.translate(vaddr).0);
        }
        let mut remote_steps: u8 = 0;
        for &step in walk.steps() {
            let s = if treps {
                self.space.resolve_table_step(step, node)
            } else {
                step
            };
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
        // The fault plan can veto huge allocations (THP compaction failure)
        // and, under injected memory pressure, answer a true allocation
        // failure by reclaiming reserved frames; OOM on a fault-free run is
        // still a configuration error at our scaled footprints.
        let fault = {
            let Self { space, faults, .. } = &mut *self;
            loop {
                match space.fault_gated(vaddr, node, faults) {
                    Ok(f) => break f,
                    Err(e) => {
                        if !faults.reclaim_one(space) {
                            panic!("fault at {vaddr} failed: {e}");
                        }
                    }
                }
            }
        };
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
        // A shootdown accompanies every remap (split, migration, replica
        // collapse), any of which can change a page's home node. The memo
        // itself only depends on epoch-constant delays, but dropping it
        // here keeps the invalidation rule simple: any remap, any epoch
        // boundary.
        self.fast_uncached.fill(None);
    }

    /// Executes a batch of operations for `thread`; returns their total
    /// cycle cost. The batched equivalent of per-op [`SimState::run_op`]
    /// calls — bit-identical by construction (see DESIGN.md §10):
    ///
    /// * **Uncached stores** — within an epoch, controller queueing and
    ///   link congestion delays are constant, so the outcome of an
    ///   uncached access is a pure function of `(from_node, home_node)`.
    ///   The first one is computed via [`MemorySystem::peek_uncached`] and
    ///   memoized; repeats are counted and bulk-charged at block end with
    ///   [`MemorySystem::charge_uncached_n`] (counters are sums, so order
    ///   does not matter within the epoch).
    /// * **Stable L1 hits** — after any data access, the accessed line is
    ///   the MRU way of this core's L1 (hits rotate to front, misses fill
    ///   at front). A consecutive access to the same line by the same
    ///   core with no intervening hierarchy activity is therefore an L1
    ///   hit that changes nothing but the hit counter; such repeats are
    ///   charged `l1_latency` directly and the counter is bulk-added at
    ///   block end. A page walk runs hierarchy accesses on this core, so
    ///   it ends the run.
    /// * **IBS skip-ahead** — the sampler countdown is mirrored in a
    ///   local; unsampled ops are batched into one
    ///   [`IbsSampler::advance_unsampled`] and the sample fires via
    ///   [`IbsSampler::take_sample`] at exactly the op index where
    ///   [`IbsSampler::observe`] would have fired it.
    fn run_block(
        &mut self,
        thread: usize,
        ops: &[workloads::Op],
        faulting_threads: usize,
        mut bd: Option<&mut CycleBreakdown>,
    ) -> u64 {
        if !self.fast_on {
            let mut c: u64 = 0;
            for &op in ops {
                c += self.run_op(thread, op, faulting_threads, bd.as_deref_mut());
            }
            return c;
        }
        let core = CoreId::from(thread);
        let node = self.machine.node_of_core(core);
        let nodes = self.fast_nodes;
        let line_shift = self.l1_line_shift;
        let mut cycles_total: u64 = 0;
        // IBS skip-ahead locals, synced at sample points and at block end.
        let mut until = self.sampler.until_next();
        let period = self.sampler.period();
        let mut unsampled: u64 = 0;
        // The line currently at the MRU way of this core's L1, if known.
        let mut stable_line: Option<u64> = None;
        let mut pending_l1: u64 = 0;

        for &op in ops {
            let vaddr = VirtAddr(op.vaddr);
            let mut cycles: u64 = 0;
            let mut walk_remote: u8 = 0;

            // 1. Address translation (identical to run_op).
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
                    // The walk probed the hierarchy on this core: the L1's
                    // MRU way may have changed.
                    stable_line = None;
                    m
                }
            };

            // 1b. Replication (identical to run_op).
            let mapping = if self.space.has_replicas() && mapping.size == PageSize::Size4K {
                if op.is_write && self.space.is_replicated(mapping.vbase) {
                    let collapse = self.space.collapse_replicas(mapping.vbase);
                    cycles += collapse;
                    if let Some(b) = bd.as_deref_mut() {
                        b.replica_collapse += collapse;
                    }
                    self.shootdown(mapping.vbase, mapping.size);
                    stable_line = None;
                    let epoch = self.epoch;
                    self.emit(|| TraceEvent::ReplicaCollapse {
                        epoch,
                        vbase: mapping.vbase.0,
                    });
                    mapping
                } else {
                    self.space.resolve_replica(mapping, node)
                }
            } else {
                mapping
            };

            // 2. Data access, memoized where the replay is idempotent.
            let out = if op.coherent_store {
                let key = node.index() * nodes + mapping.node.index();
                let out = match self.fast_uncached[key] {
                    Some(o) => o,
                    None => {
                        let o = self.mem.peek_uncached(core, mapping.node);
                        self.fast_uncached[key] = Some(o);
                        o
                    }
                };
                self.fast_pending[mapping.node.index()] += 1;
                out
            } else {
                let paddr = mapping.translate(vaddr);
                let line = paddr.0 >> line_shift;
                if stable_line == Some(line) {
                    pending_l1 += 1;
                    AccessOutcome {
                        cycles: self.l1_latency,
                        level: ServiceLevel::L1,
                        from_node: node,
                        home_node: mapping.node,
                        queue: 0,
                        inter: 0,
                    }
                } else {
                    let out = self
                        .mem
                        .access(core, paddr.0, mapping.node, AccessKind::Data);
                    stable_line = Some(line);
                    out
                }
            };
            if out.dram() {
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
            if until == 1 {
                self.sampler.advance_unsampled(unsampled);
                unsampled = 0;
                self.sampler.take_sample(|| IbsSample {
                    vaddr,
                    accessing_node: node,
                    thread: thread as u16,
                    home_node: mapping.node,
                    from_dram: out.dram(),
                    is_store: op.is_write,
                    page_size: mapping.size,
                    walk_remote_steps: walk_remote,
                });
                until = period;
            } else {
                until -= 1;
                unsampled += 1;
            }
            if let Some(stats) = self.page_stats.as_mut() {
                stats.record(vaddr, thread as u16);
            }
            cycles_total += cycles;
        }

        // Flush the block's bulk charges.
        self.sampler.advance_unsampled(unsampled);
        if pending_l1 > 0 {
            self.mem.charge_l1_hits_n(core, pending_l1);
        }
        for home in 0..nodes {
            let n = self.fast_pending[home];
            if n > 0 {
                self.fast_pending[home] = 0;
                self.mem.charge_uncached_n(core, NodeId::from(home), n);
            }
        }
        cycles_total
    }

    /// Applies policy actions; returns (migrations, splits, costs), the
    /// cycle costs split by action kind for the attribution ledger
    /// (`ActionCosts::total()` is the old opaque cost sum, unchanged).
    ///
    /// Failures — injected busy pins as well as genuine vmem refusals —
    /// are appended to `failures` and tallied in the run's
    /// [`RobustnessStats`]. Pre-existing behaviour note: a vmem refusal of
    /// a stale action (page already split, wrong size class) was always
    /// silently skipped; it is now *recorded* as failed, which changes
    /// accounting but not simulation state.
    fn apply_actions(
        &mut self,
        actions: Vec<PolicyAction>,
        failures: &mut Vec<FailedAction>,
    ) -> (u64, u64, ActionCosts) {
        let mut migrations = 0;
        let mut splits = 0;
        let mut costs = ActionCosts::default();
        let epoch = self.epoch;
        for a in actions {
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
                PolicyAction::Split(v) => {
                    if self.faults.check_busy(v) {
                        self.robust.failed_splits += 1;
                        failures.push(FailedAction {
                            action: a,
                            error: ActionError::Busy,
                        });
                        continue;
                    }
                    match self.space.split(VirtAddr(v)) {
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
                    }
                }
                PolicyAction::SplitScatter(v) => {
                    if self.faults.check_busy(v) {
                        self.robust.failed_splits += 1;
                        failures.push(FailedAction {
                            action: a,
                            error: ActionError::Busy,
                        });
                        continue;
                    }
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
                                    // counted, but not fed back for retry.
                                    Err(_) => self.robust.failed_migrations += 1,
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
                PolicyAction::Replicate(v) => {
                    match self.space.replicate(VirtAddr(v), self.machine.num_nodes()) {
                        Ok(c) => {
                            if c > 0 {
                                if let Some(m) = self.space.translate(VirtAddr(v)) {
                                    self.shootdown(m.vbase, m.size);
                                }
                                migrations += 1; // replica copies count as moves
                                costs.replicate += c;
                                self.emit(|| TraceEvent::Replication { epoch, vbase: v });
                            }
                        }
                        Err(e) => {
                            self.robust.failed_replications += 1;
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
                    if self.faults.check_busy(v) {
                        self.robust.failed_migrations += 1;
                        failures.push(FailedAction {
                            action: a,
                            error: ActionError::Busy,
                        });
                        continue;
                    }
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
                PolicyAction::Migrate(v, node) => {
                    if self.faults.check_busy(v) {
                        self.robust.failed_migrations += 1;
                        failures.push(FailedAction {
                            action: a,
                            error: ActionError::Busy,
                        });
                        continue;
                    }
                    match self.space.migrate(VirtAddr(v), node) {
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
                    }
                }
            }
        }
        (migrations, splits, costs)
    }
}

impl Simulation {
    /// Runs `spec` on `machine` under `policy` and returns the results.
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
        Simulation::run_with_setup_traced(machine, spec, config, policy, |_| {}, None)
    }

    /// Like [`Simulation::run`], but streams every simulation event into
    /// `sink`. Tracing is purely observational: the returned [`SimResult`]
    /// is bit-identical to an untraced run of the same inputs.
    pub fn run_traced(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
        sink: &mut dyn TraceSink,
    ) -> SimResult {
        Simulation::run_with_setup_traced(machine, spec, config, policy, |_| {}, Some(sink))
    }

    /// Like [`Simulation::run`], but calls `setup` on the freshly built
    /// address space before the workload starts — for experiments that need
    /// pre-conditions such as deliberately fragmented physical memory.
    pub fn run_with_setup(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
        setup: impl FnOnce(&mut AddressSpace),
    ) -> SimResult {
        Simulation::run_with_setup_traced(machine, spec, config, policy, setup, None)
    }

    /// The full-featured entry point: optional address-space `setup` and an
    /// optional trace `sink` ([`Simulation::run`], [`Simulation::run_traced`]
    /// and [`Simulation::run_with_setup`] all delegate here).
    pub fn run_with_setup_traced(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
        setup: impl FnOnce(&mut AddressSpace),
        sink: Option<&mut dyn TraceSink>,
    ) -> SimResult {
        Simulation::run_internal(
            machine,
            spec,
            config,
            policy,
            setup,
            sink,
            None,
            None,
            RunMode::Full,
        )
        .expect("a full run always produces a result")
    }

    /// Like [`Simulation::run_traced`] (the `sink` is optional), with a
    /// [`RunObserver`] attached: the observer sees every epoch boundary's
    /// policy inputs/outputs and may capture checkpoints at boundaries.
    /// Results are bit-identical to an unobserved run.
    pub fn run_observed(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
        sink: Option<&mut dyn TraceSink>,
        observer: &mut dyn RunObserver,
    ) -> SimResult {
        Simulation::run_internal(
            machine,
            spec,
            config,
            policy,
            |_| {},
            sink,
            Some(observer),
            None,
            RunMode::Full,
        )
        .expect("a full run always produces a result")
    }

    /// Like [`Simulation::run_traced`] (the `sink` is optional), with a
    /// [`crate::MetricsRecorder`] attached: the recorder receives one
    /// [`crate::MetricsSample`] per epoch boundary — the flight recorder's
    /// per-epoch time-series (DESIGN.md §16). Recording is purely
    /// observational: the returned [`SimResult`] (ledger and trace digest
    /// included) is bit-identical to an unrecorded run of the same inputs,
    /// which `carrefour-bench/tests/metrics_equivalence.rs` proptests.
    pub fn run_recorded(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
        sink: Option<&mut dyn TraceSink>,
        recorder: &mut dyn MetricsRecorder,
    ) -> SimResult {
        Simulation::run_internal(
            machine,
            spec,
            config,
            policy,
            |_| {},
            sink,
            None,
            Some(recorder),
            RunMode::Full,
        )
        .expect("a full run always produces a result")
    }

    /// Runs like [`Simulation::run`] until the epoch boundary that begins
    /// epoch `epoch`, then snapshots into a [`Checkpoint`] and stops —
    /// [`Simulation::resume`] continues from it bit-identically. Returns
    /// `None` when the run completes before reaching `epoch` (the run then
    /// executed in full; no snapshot exists).
    pub fn checkpoint_at(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
        epoch: u32,
    ) -> Option<Checkpoint> {
        Simulation::checkpoint_at_traced(machine, spec, config, policy, |_| {}, None, epoch)
    }

    /// [`Simulation::checkpoint_at`] with address-space `setup` and a trace
    /// `sink`. When a checkpoint is taken the sink is **not** finished:
    /// thread the same sink through [`Simulation::resume_traced`] and the
    /// combined event stream (and digest) equals an uninterrupted traced
    /// run's.
    pub fn checkpoint_at_traced(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
        setup: impl FnOnce(&mut AddressSpace),
        sink: Option<&mut dyn TraceSink>,
        epoch: u32,
    ) -> Option<Checkpoint> {
        let mut out = None;
        Simulation::run_internal(
            machine,
            spec,
            config,
            policy,
            setup,
            sink,
            None,
            None,
            RunMode::CheckpointAt {
                epoch,
                out: &mut out,
            },
        );
        out
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
        Simulation::resume_traced(machine, spec, config, policy, |_| {}, None, ckpt)
    }

    /// [`Simulation::resume`] with `setup` and a trace `sink`; the events
    /// emitted continue exactly where the checkpointing phase stopped.
    pub fn resume_traced(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
        setup: impl FnOnce(&mut AddressSpace),
        sink: Option<&mut dyn TraceSink>,
        ckpt: &Checkpoint,
    ) -> SimResult {
        Simulation::run_internal(
            machine,
            spec,
            config,
            policy,
            setup,
            sink,
            None,
            None,
            RunMode::Resume {
                ckpt,
                restore_policy: true,
            },
        )
        .expect("a resumed run always produces a result")
    }

    /// Continues a run from `ckpt` under a policy whose state the *caller*
    /// prepared — the fork half of the runner's prefix-sharing tree. Unlike
    /// [`Simulation::resume`], the policy's mutable state is **not**
    /// restored from the snapshot: `policy` must already be in the state a
    /// policy has after exactly `ckpt.epoch()` `on_epoch` calls (epochs
    /// `0..ckpt.epoch()`), which the fork tree establishes by replaying the
    /// recorded boundary inputs against a freshly constructed instance.
    /// Everything else (address space, caches, sampler, fault state, RNGs)
    /// is restored from the snapshot as usual.
    pub fn resume_forked(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
        ckpt: &Checkpoint,
    ) -> SimResult {
        Simulation::resume_forked_traced(machine, spec, config, policy, None, ckpt)
    }

    /// [`Simulation::resume_forked`] with a trace `sink`; events continue
    /// from the checkpoint's boundary exactly as [`Simulation::resume_traced`]'s do.
    pub fn resume_forked_traced(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
        sink: Option<&mut dyn TraceSink>,
        ckpt: &Checkpoint,
    ) -> SimResult {
        Simulation::run_internal(
            machine,
            spec,
            config,
            policy,
            |_| {},
            sink,
            None,
            None,
            RunMode::Resume {
                ckpt,
                restore_policy: false,
            },
        )
        .expect("a resumed run always produces a result")
    }

    /// The single driver behind every public entry point; `mode` selects
    /// where the run starts (fresh or from a snapshot) and whether it stops
    /// early at a checkpoint boundary. Returns `None` exactly when a
    /// requested checkpoint was taken.
    #[allow(clippy::too_many_arguments)]
    fn run_internal(
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &SimConfig,
        policy: &mut dyn NumaPolicy,
        setup: impl FnOnce(&mut AddressSpace),
        sink: Option<&mut dyn TraceSink>,
        mut observer: Option<&mut dyn RunObserver>,
        mut recorder: Option<&mut dyn MetricsRecorder>,
        mut mode: RunMode<'_>,
    ) -> Option<SimResult> {
        assert!(
            spec.threads <= machine.total_cores(),
            "workload wants {} threads, machine has {} cores",
            spec.threads,
            machine.total_cores()
        );

        let mut gen = WorkloadGen::new(spec, config.seed);
        let mut space = AddressSpace::new(machine, config.vmem);
        for r in &spec.regions {
            // Overlapping or unaligned regions are a workload-spec bug, not
            // a runtime condition: fail loudly before the run starts.
            space
                .map_region(r.base, r.bytes)
                .unwrap_or_else(|e| panic!("region setup failed: {e}"));
        }
        setup(&mut space);

        // Kill-switch for the batched fast path: results are bit-identical
        // either way (proptest-enforced), so the per-op path exists only
        // for debugging and differential testing.
        let fast_on = std::env::var("CARREFOUR_NO_FASTPATH").map_or(true, |v| v != "1");
        let nodes = machine.num_nodes();
        let mut st = SimState {
            machine,
            mlp: u64::from(spec.mlp.max(1)),
            mem: MemorySystem::new(machine, config.memsys.clone()),
            space,
            walk_caches: (0..spec.threads).map(|_| WalkCache::new()).collect(),
            tlbs: (0..spec.threads)
                .map(|_| Tlb::new(&config.vmem.tlb))
                .collect(),
            sampler: IbsSampler::new(machine.num_nodes(), config.ibs),
            page_stats: config.track_page_stats.then(PageAccessStats::new),
            fault_epoch: vec![0; spec.threads],
            fault_life: vec![0; spec.threads],
            l2_tlb_hit_cycles: config.vmem.tlb.l2_hit_cycles,
            fault_contention: config.vmem.costs.fault_contention_per_thread,
            threads: spec.threads,
            faults: FaultPlan::new(&config.faults),
            robust: RobustnessStats::default(),
            trace: sink,
            epoch: 0,
            fast_on,
            fast_uncached: vec![None; nodes * nodes],
            fast_pending: vec![0; nodes],
            fast_nodes: nodes,
            l1_line_shift: config.memsys.l1.line_bytes.trailing_zeros(),
            l1_latency: config.memsys.l1_latency,
        };
        // A policy that never reads samples (and no fault filter to feed)
        // makes sample storage dead work: elide it. The NMI count and its
        // overhead are unchanged, so results are bit-identical. An attached
        // observer needs the stored samples (its boundary records feed
        // sibling policies that may consume them), so it keeps storage on —
        // which, per the same argument, never changes results.
        if !policy.consumes_samples() && !st.faults.is_active() && observer.is_none() {
            st.sampler.set_store(false);
        }
        let total_rounds = gen.total_rounds();
        let think = u64::from(spec.think_cycles_per_op);

        // Loop-carried run state, declared before the mode branch so a
        // resume can overwrite all of it from the snapshot.
        let mut wall: u64 = 0;
        let mut epoch_wall: u64 = 0;
        let mut epoch_ops: u64 = 0;
        let mut total_ops: u64 = 0;
        let mut overhead_total: u64 = 0;
        let mut epochs: Vec<EpochRecord> = Vec::new();
        let mut epoch_index: u32 = 0;
        // Failed actions of the previous epoch, fed back to the policy on
        // fault-injected runs (never on fault-free runs, so a policy's
        // retry machinery stays dormant and zero-fault behaviour is
        // bit-identical to the pre-fault-layer engine).
        let mut last_failures: Vec<FailedAction> = Vec::new();

        // Attribution ledger state. All of it stays empty (and costs one
        // branch per charge site) when attribution is off, which keeps the
        // hot path allocation-free and the default run untouched.
        let attrib_on = config.attribution;
        let attrib_threads = if attrib_on { spec.threads } else { 0 };
        let mut prelude_bd = CycleBreakdown::default();
        let mut epoch_wall_bd = CycleBreakdown::default();
        let mut round_bds = vec![CycleBreakdown::default(); attrib_threads];
        let mut core_bds = vec![CycleBreakdown::default(); attrib_threads];
        let mut core_totals = vec![CycleBreakdown::default(); attrib_threads];
        let mut attrib_epochs: Vec<EpochAttribution> = Vec::new();

        // Flight-recorder state (DESIGN.md §16). TLB and walk-cache
        // counters are lifetime-cumulative, so per-epoch rates need the
        // previous boundary's totals — tracked only inside the recorder
        // guard; an unrecorded run pays one `Option` test per boundary
        // and nothing else. Every recorder read is `&self` (counters
        // already computed, page-stat aggregation, policy introspection),
        // so recorded runs stay bit-identical to unrecorded ones.
        let mut rec_prev_tlb = (0u64, 0u64, 0u64);
        let mut rec_prev_walk = (0u64, 0u64);
        if let Some(rec) = recorder.as_deref_mut() {
            rec.on_run_start(&RunInfo {
                workload: &spec.name,
                policy: policy.name(),
                machine: machine.name(),
                threads: spec.threads,
                nodes: machine.num_nodes(),
            });
        }

        if let RunMode::Resume {
            ckpt,
            restore_policy,
        } = &mode
        {
            assert!(
                ckpt.matches(machine, spec, config),
                "checkpoint was taken under a different machine/spec/config"
            );
            restore_checkpoint(
                ckpt,
                policy,
                *restore_policy,
                &mut gen,
                &mut st,
                &mut wall,
                &mut total_ops,
                &mut overhead_total,
                &mut epochs,
                &mut last_failures,
                attrib_on,
                &mut prelude_bd,
                &mut core_totals,
                &mut attrib_epochs,
            );
            epoch_index = ckpt.epoch();
            st.epoch = epoch_index;
        } else {
            st.emit(|| TraceEvent::RunStart {
                workload: spec.name.clone(),
                policy: policy.name().to_string(),
                machine: machine.name().to_string(),
                seed: config.seed,
            });
            // Pins expire and pressure events apply at epoch boundaries;
            // epoch 0 covers a pressure event scheduled before the run.
            st.faults.begin_epoch(0, &mut st.space);

            // Serial prelude: the loader thread's header touches run alone
            // before the parallel phase (a program's sequential setup).
            let mut prelude_cycles: u64 = 0;
            for &vaddr in gen.prelude().to_vec().iter() {
                let op = workloads::Op {
                    vaddr,
                    is_write: true,
                    coherent_store: false,
                    prefetched: false,
                };
                let bd = attrib_on.then_some(&mut prelude_bd);
                prelude_cycles += st.run_op(0, op, 1, bd) + think;
                if attrib_on {
                    prelude_bd.compute += think;
                }
            }
            wall += prelude_cycles;
        }

        // An epoch-0 checkpoint captures the state right here: prelude run,
        // epoch 0 begun, no rounds executed.
        if let RunMode::CheckpointAt { epoch, out } = &mut mode {
            if epoch_index == *epoch {
                **out = Some(capture_checkpoint(
                    machine,
                    spec,
                    config,
                    &*policy,
                    &gen,
                    &st,
                    epoch_index,
                    wall,
                    total_ops,
                    overhead_total,
                    &epochs,
                    &last_failures,
                    attrib_on,
                    &prelude_bd,
                    &core_totals,
                    &attrib_epochs,
                ));
                return None;
            }
        }

        // Reusable op buffer: one block of the access stream at a time.
        let mut block: Vec<workloads::Op> = Vec::new();

        // On a resume, epochs 0..epoch_index already ran before the
        // snapshot: restart the loop at the restored epoch's first round.
        // The `min` covers a checkpoint taken at the boundary after the
        // final (possibly short) epoch — the loop body is then empty and
        // only the finale runs, from restored state.
        let start_round = (u64::from(epoch_index) * u64::from(config.rounds_per_epoch))
            .min(u64::from(total_rounds)) as u32;

        // Threads interleave in small batches so first-touch races are
        // fair: within each batch cycle every thread advances equally.
        let batch = config.ops_per_batch.max(1).min(spec.ops_per_round);
        // The run advances one epoch chunk at a time: [round, chunk_end)
        // is one epoch's worth of rounds (the final chunk may be short).
        // `start_round` is always an epoch boundary, so chunks stay
        // aligned across checkpoint/resume splits.
        let mut round = start_round;
        while round < total_rounds {
            let chunk_end =
                ((round / config.rounds_per_epoch + 1) * config.rounds_per_epoch).min(total_rounds);
            for r in round..chunk_end {
                let faulting = (0..spec.threads).filter(|&t| gen.in_alloc_phase(t)).count();
                let mut t_cycles = vec![0u64; spec.threads];
                let mut issued: u64 = 0;
                let mut cycle_idx: usize = r as usize;
                while issued < spec.ops_per_round {
                    let n = batch.min(spec.ops_per_round - issued);
                    // Rotate the intra-batch thread order every cycle so no
                    // thread systematically wins first-touch races.
                    for k in 0..spec.threads {
                        let t = (k + cycle_idx) % spec.threads;
                        gen.next_block(t, n as usize, &mut block);
                        let bd = if attrib_on {
                            Some(&mut round_bds[t])
                        } else {
                            None
                        };
                        t_cycles[t] += st.run_block(t, &block, faulting, bd) + think * n;
                        if attrib_on {
                            round_bds[t].compute += think * n;
                        }
                    }
                    issued += n;
                    cycle_idx += 1;
                }
                let slowest = t_cycles.iter().copied().max().unwrap_or(0);
                if attrib_on {
                    // The round's wall time is the slowest thread's time: its
                    // breakdown *is* the round's wall breakdown. Ties are safe —
                    // any thread achieving the max has a breakdown summing to
                    // exactly `slowest` — but take the first for determinism.
                    if let Some(wi) = t_cycles.iter().position(|&c| c == slowest) {
                        epoch_wall_bd.add(&round_bds[wi]);
                    }
                    for (cb, rb) in core_bds.iter_mut().zip(round_bds.iter_mut()) {
                        cb.add(rb);
                        *rb = CycleBreakdown::default();
                    }
                }
                epoch_ops += spec.ops_per_round * spec.threads as u64;
                total_ops += spec.ops_per_round * spec.threads as u64;
                wall += slowest;
                epoch_wall += slowest;
            }
            round = chunk_end;

            // --- Epoch boundary: kernel daemons, counters, policy. ---
            let (collapsed, khuge_cost) = st.space.promotion_scan(config.khugepaged_scan_limit);
            if !collapsed.is_empty() {
                // Collapsed ranges got new frames: stale entries must go.
                for t in &mut st.tlbs {
                    t.flush();
                }
                if st.trace.is_some() {
                    for &vbase in &collapsed {
                        st.emit(|| TraceEvent::Promotion {
                            epoch: epoch_index,
                            vbase: vbase.0,
                        });
                    }
                }
            }

            let controller_requests = st.mem.controller_epoch_requests();
            let (mut samples, ibs_overhead) = st.sampler.drain();
            // Injected sample loss/misattribution happens between the
            // hardware and the daemon: counters are unaffected, the
            // policy's view is. No-op when the plan is inactive.
            st.faults.filter_samples(&mut samples, machine.num_nodes());
            let mem_stats = *st.mem.epoch_stats();
            let counters = EpochCounters {
                epoch_cycles: epoch_wall,
                l2_accesses: mem_stats.l2_accesses,
                l2_misses: mem_stats.l2_misses,
                l2_walk_misses: mem_stats.l2_walk_misses,
                dram_local: mem_stats.dram_local,
                dram_remote: mem_stats.dram_remote,
                controller_requests,
                fault_time: st
                    .fault_epoch
                    .iter()
                    .map(|&c| CoreFaultTime { fault_cycles: c })
                    .collect(),
                mem_ops: epoch_ops,
            };

            let boundary_thp = st.space.thp();
            let mut ctx = EpochCtx::new(machine, &counters, &samples, boundary_thp, epoch_index);
            let failures_fed = st.faults.is_active();
            if failures_fed {
                ctx.set_failures(&last_failures);
            }
            if st.trace.is_some() || observer.is_some() {
                ctx.enable_decision_log();
            }
            policy.on_epoch(&mut ctx);
            let actions = ctx.take_actions();
            let decisions = ctx.take_decisions();
            let retries = ctx.retries_recorded();
            if let Some(obs) = observer.as_deref_mut() {
                obs.on_boundary(&EpochBoundary {
                    epoch: epoch_index,
                    counters: &counters,
                    samples: &samples,
                    thp: boundary_thp,
                    failures: failures_fed.then_some(last_failures.as_slice()),
                    actions: &actions,
                    decisions: &decisions,
                    retries,
                    fingerprint: crate::trace::epoch_output_fingerprint(
                        epoch_index,
                        &actions,
                        &decisions,
                        retries,
                    ),
                });
            }
            for decision in decisions {
                st.emit(|| TraceEvent::Decision {
                    epoch: epoch_index,
                    decision,
                });
            }
            st.robust.retries += retries;
            let mut failures: Vec<FailedAction> = Vec::new();
            let (migrations, splits, action_costs) = st.apply_actions(actions, &mut failures);
            let action_cost = action_costs.total();
            if st.trace.is_some() {
                for f in &failures {
                    st.emit(|| TraceEvent::ActionFailed {
                        epoch: epoch_index,
                        action: f.action,
                        error: f.error,
                    });
                }
            }

            // Kernel-side work (daemon scans, sampling NMIs, migrations)
            // executes on the same cores as the application; spread across
            // the machine it lengthens the epoch by its per-core share.
            let overhead = khuge_cost + ibs_overhead + action_cost;
            let overhead_share = overhead / st.threads as u64;
            wall += overhead_share;
            epoch_wall += overhead_share;
            overhead_total += overhead;
            if attrib_on {
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
                    st.threads as u64,
                );
                epoch_wall_bd.khugepaged += kh;
                epoch_wall_bd.ibs_sampling += ib;
                epoch_wall_bd.policy_migration += mi;
                epoch_wall_bd.policy_split += sp;
                epoch_wall_bd.policy_replication += re;
            }

            if st.trace.is_some() {
                // Snapshot before end_epoch resets the per-epoch
                // controller counters: the delays shown are the ones that
                // were actually charged during this epoch.
                let snaps = st.mem.controller_snapshots();
                let snap = EpochSnap {
                    epoch_cycles: epoch_wall,
                    imbalance: metrics::imbalance(&counters.controller_requests),
                    lar: mem_stats.lar(),
                    walk_miss_fraction: counters.walk_miss_fraction(),
                    l2_misses: counters.l2_misses,
                    l2_walk_misses: counters.l2_walk_misses,
                    max_fault_cycles: st.fault_epoch.iter().copied().max().unwrap_or(0),
                    controller_requests: snaps.iter().map(|s| s.requests).collect(),
                    controller_delays: snaps.iter().map(|s| s.queue_delay).collect(),
                    migrations,
                    splits,
                    collapses: collapsed.len() as u64,
                    failed_actions: failures.len() as u64,
                    thp_alloc: st.space.thp().alloc_2m,
                    thp_promote: st.space.thp().promote_2m,
                };
                st.emit(|| TraceEvent::EpochEnd {
                    epoch: epoch_index,
                    snap,
                });
            }
            st.mem.end_epoch(epoch_wall);
            // Controller and link delays just changed: the uncached memo
            // (a function of those delays) is stale.
            st.fast_uncached.fill(None);
            epochs.push(EpochRecord {
                counters,
                migrations,
                splits,
                collapses: collapsed.len() as u64,
                overhead_cycles: overhead,
                thp_alloc_enabled: st.space.thp().alloc_2m,
                thp_promote_enabled: st.space.thp().promote_2m,
                failed_actions: failures.len() as u64,
            });
            last_failures = failures;
            if attrib_on {
                attrib_epochs.push(EpochAttribution {
                    wall: epoch_wall_bd,
                    cores: core_bds.clone(),
                });
                for (tot, cb) in core_totals.iter_mut().zip(core_bds.iter_mut()) {
                    tot.add(cb);
                    *cb = CycleBreakdown::default();
                }
                epoch_wall_bd = CycleBreakdown::default();
            }
            if let Some(rec) = recorder.as_deref_mut() {
                // The flight-recorder sample for the epoch this boundary
                // closed. `epoch_wall` still holds the epoch's full wall
                // cycles (boundary overhead included) and the per-epoch
                // accumulators are not yet reset; the counters moved into
                // `epochs` are read back off its tail. Everything here is
                // a pure observation — see the bit-identity contract above.
                let (l1h, l2h, tmiss) = st.tlbs.iter().fold((0u64, 0u64, 0u64), |acc, t| {
                    let s = t.stats();
                    (acc.0 + s.l1_hits, acc.1 + s.l2_hits, acc.2 + s.misses)
                });
                let (wh, wm) = st.walk_caches.iter().fold((0u64, 0u64), |acc, w| {
                    (acc.0 + w.hits(), acc.1 + w.misses())
                });
                let pages = st.page_stats.as_ref().map(|ps| {
                    let space = &st.space;
                    let rows = ps.aggregate(|base4k| {
                        space
                            .translate(VirtAddr(base4k))
                            .map(|m| m.vbase.0)
                            .unwrap_or(base4k)
                    });
                    PageSnapshot {
                        pamup: metrics::pamup(&rows),
                        nhp: metrics::nhp(&rows),
                        psp: metrics::psp(&rows),
                    }
                });
                let rec_counters = &epochs.last().expect("boundary just pushed").counters;
                rec.on_epoch(&MetricsSample {
                    epoch: epoch_index,
                    epoch_cycles: epoch_wall,
                    mem_ops: rec_counters.mem_ops,
                    imbalance: metrics::imbalance(&rec_counters.controller_requests),
                    lar: mem_stats.lar(),
                    walk_miss_fraction: rec_counters.walk_miss_fraction(),
                    controller_requests: &rec_counters.controller_requests,
                    tlb_l1_hits: l1h - rec_prev_tlb.0,
                    tlb_l2_hits: l2h - rec_prev_tlb.1,
                    tlb_misses: tmiss - rec_prev_tlb.2,
                    walk_cache_hits: wh - rec_prev_walk.0,
                    walk_cache_misses: wm - rec_prev_walk.1,
                    migrations,
                    splits,
                    collapses: collapsed.len() as u64,
                    failed_actions: last_failures.len() as u64,
                    pages,
                    policy: policy.introspect(epoch_index),
                    attrib: attrib_epochs.last().map(|e| &e.wall),
                });
                rec_prev_tlb = (l1h, l2h, tmiss);
                rec_prev_walk = (wh, wm);
            }
            st.fault_epoch.iter_mut().for_each(|c| *c = 0);
            epoch_wall = 0;
            epoch_ops = 0;
            epoch_index += 1;
            st.epoch = epoch_index;
            st.faults.begin_epoch(epoch_index, &mut st.space);
            if config.validate_each_epoch {
                st.space.validate().unwrap_or_else(|e| {
                    panic!(
                        "vmem invariant violated after epoch {}: {e}",
                        epoch_index - 1
                    )
                });
            }

            // The snapshot point: the boundary that closed `epoch_index - 1`
            // and began `epoch_index`. Per-epoch accumulators are freshly
            // reset here, which keeps the payload minimal. An observer may
            // capture here too (every boundary, not just one target epoch),
            // which is what lets the fork tree snapshot a whole probe run
            // in a single pass instead of O(epochs) re-runs.
            if let Some(obs) = observer.as_deref_mut() {
                if obs.want_checkpoint(epoch_index) {
                    obs.on_checkpoint(capture_checkpoint(
                        machine,
                        spec,
                        config,
                        &*policy,
                        &gen,
                        &st,
                        epoch_index,
                        wall,
                        total_ops,
                        overhead_total,
                        &epochs,
                        &last_failures,
                        attrib_on,
                        &prelude_bd,
                        &core_totals,
                        &attrib_epochs,
                    ));
                }
            }
            if let RunMode::CheckpointAt { epoch, out } = &mut mode {
                if epoch_index == *epoch {
                    **out = Some(capture_checkpoint(
                        machine,
                        spec,
                        config,
                        &*policy,
                        &gen,
                        &st,
                        epoch_index,
                        wall,
                        total_ops,
                        overhead_total,
                        &epochs,
                        &last_failures,
                        attrib_on,
                        &prelude_bd,
                        &core_totals,
                        &attrib_epochs,
                    ));
                    return None;
                }
            }
        }

        // --- Whole-run aggregates. ---
        let life = st.mem.lifetime_stats();
        let controller_totals = st.mem.controller_total_requests();
        let max_fault = st.fault_life.iter().copied().max().unwrap_or(0);
        let (l1h, l2h, miss) = st.tlbs.iter().fold((0u64, 0u64, 0u64), |acc, t| {
            let s = t.stats();
            (acc.0 + s.l1_hits, acc.1 + s.l2_hits, acc.2 + s.misses)
        });
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
            total_fault_cycles: st.fault_life.iter().sum(),
            vmem: st.space.stats().clone(),
            overhead_cycles: overhead_total,
            ibs_samples: st.sampler.total_taken(),
            total_ops,
        };

        let pages = match &st.page_stats {
            Some(ps) => {
                let space = &st.space;
                let rows_mapped = ps.aggregate(|base4k| {
                    space
                        .translate(VirtAddr(base4k))
                        .map(|m| m.vbase.0)
                        .unwrap_or(base4k)
                });
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

        // Merge the plan's own counters into the run's robustness block.
        let fc = st.faults.counters;
        st.robust.fallback_allocs = fc.fallback_allocs;
        st.robust.busy_rejections = fc.busy_rejections;
        st.robust.dropped_samples = fc.dropped_samples;
        st.robust.misattributed_samples = fc.misattributed_samples;
        st.robust.oom_reclaims = fc.oom_reclaims;

        if let Some(t) = st.trace.as_mut() {
            t.finish();
        }
        if let Some(rec) = recorder {
            rec.finish();
        }

        let attribution = if attrib_on {
            let mut total = prelude_bd;
            for e in &attrib_epochs {
                total.add(&e.wall);
            }
            let ledger = AttributionLedger {
                prelude: prelude_bd,
                epochs: attrib_epochs,
                total,
                core_totals,
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

        Some(SimResult {
            workload: spec.name.clone(),
            policy: policy.name().to_string(),
            machine: machine.name().to_string(),
            runtime_cycles: wall,
            runtime_ms: machine.cycles_to_ms(wall),
            epochs,
            lifetime,
            pages,
            robustness: st.robust,
            attribution,
        })
    }
}

/// Reads `$name` as a `u32` override. Unset → `None` (auto). Set but
/// unparseable → a loud stderr warning and `None`: a typo'd override
/// silently pinning behaviour to the default is far worse than noise.
/// Used by the bench runner's `CARREFOUR_JOBS` and
/// `CARREFOUR_FORK_CACHE_MB`.
pub fn env_override_u32(name: &str) -> Option<u32> {
    parse_env_override(name, std::env::var(name).ok().as_deref())
}

/// The pure half of [`env_override_u32`], split out so tests don't race on
/// process-global environment state.
fn parse_env_override(name: &str, raw: Option<&str>) -> Option<u32> {
    let raw = raw?;
    match raw.trim().parse::<u32>() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!(
                "warning: ignoring {name}={raw:?}: not a non-negative integer, falling back to auto"
            );
            None
        }
    }
}

#[cfg(test)]
mod env_override_tests {
    use super::parse_env_override;

    #[test]
    fn unset_is_auto() {
        assert_eq!(parse_env_override("CARREFOUR_JOBS", None), None);
    }

    #[test]
    fn valid_values_parse_with_whitespace_tolerance() {
        assert_eq!(parse_env_override("CARREFOUR_JOBS", Some("4")), Some(4));
        assert_eq!(parse_env_override("CARREFOUR_JOBS", Some(" 12 ")), Some(12));
        assert_eq!(parse_env_override("CARREFOUR_JOBS", Some("0")), Some(0));
    }

    #[test]
    fn garbage_warns_and_falls_back_to_auto() {
        for bad in ["four", "-1", "3.5", "", "0x10", "9999999999999999999"] {
            assert_eq!(parse_env_override("CARREFOUR_JOBS", Some(bad)), None);
        }
    }
}

/// Serializes everything a mid-stream resume needs, in `ckpt-v1` payload
/// order. [`restore_checkpoint`] mirrors this exactly; any change to either
/// must extend the schema descriptor in [`crate::checkpoint`].
#[allow(clippy::too_many_arguments)]
fn capture_checkpoint(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &SimConfig,
    policy: &dyn NumaPolicy,
    gen: &WorkloadGen,
    st: &SimState<'_, '_>,
    epoch_index: u32,
    wall: u64,
    total_ops: u64,
    overhead_total: u64,
    epochs: &[EpochRecord],
    last_failures: &[FailedAction],
    attrib_on: bool,
    prelude_bd: &CycleBreakdown,
    core_totals: &[CycleBreakdown],
    attrib_epochs: &[EpochAttribution],
) -> Checkpoint {
    let mut e = codec::Enc::new();
    gen.save_into(&mut e);
    st.space.save_into(&mut e);
    e.seq(st.walk_caches.iter(), |e, w| w.save_into(e));
    e.seq(st.tlbs.iter(), |e, t| t.save_into(e));
    st.mem.save_into(&mut e);
    st.sampler.save_into(&mut e);
    e.bool(st.page_stats.is_some());
    if let Some(ps) = &st.page_stats {
        ps.save_into(&mut e);
    }
    st.faults.save_into(&mut e);
    e.seq(st.fault_epoch.iter(), |e, &c| e.u64(c));
    e.seq(st.fault_life.iter(), |e, &c| e.u64(c));
    checkpoint::enc_robust(&mut e, &st.robust);
    e.u64(wall);
    e.u64(total_ops);
    e.u64(overhead_total);
    e.seq(epochs.iter(), checkpoint::enc_epoch_record);
    e.seq(last_failures.iter(), checkpoint::enc_failed_action);
    e.bool(attrib_on);
    if attrib_on {
        checkpoint::enc_breakdown(&mut e, prelude_bd);
        e.seq(core_totals.iter(), checkpoint::enc_breakdown);
        e.seq(attrib_epochs.iter(), checkpoint::enc_epoch_attribution);
    }
    e.bytes(&policy.save_state());
    Checkpoint::new(
        epoch_index,
        checkpoint::config_fingerprint(machine, spec, config),
        e.into_bytes(),
    )
}

/// Overwrites freshly-constructed run state from a `ckpt-v1` payload, in
/// the exact order [`capture_checkpoint`] wrote it. Constructor-fixed
/// dimensions (thread counts, TLB count, attribution switch) are asserted,
/// not restored — a fingerprint-matched checkpoint always agrees on them.
#[allow(clippy::too_many_arguments)]
fn restore_checkpoint(
    ckpt: &Checkpoint,
    policy: &mut dyn NumaPolicy,
    restore_policy: bool,
    gen: &mut WorkloadGen,
    st: &mut SimState<'_, '_>,
    wall: &mut u64,
    total_ops: &mut u64,
    overhead_total: &mut u64,
    epochs: &mut Vec<EpochRecord>,
    last_failures: &mut Vec<FailedAction>,
    attrib_on: bool,
    prelude_bd: &mut CycleBreakdown,
    core_totals: &mut Vec<CycleBreakdown>,
    attrib_epochs: &mut Vec<EpochAttribution>,
) {
    let mut d = codec::Dec::new(ckpt.payload());
    gen.load_from(&mut d);
    st.space.load_from(&mut d);
    let n_wc = d.usize();
    assert_eq!(n_wc, st.walk_caches.len(), "checkpoint walk-cache count");
    for w in &mut st.walk_caches {
        w.load_from(&mut d);
    }
    let n_tlbs = d.usize();
    assert_eq!(n_tlbs, st.tlbs.len(), "checkpoint TLB count");
    for t in &mut st.tlbs {
        t.load_from(&mut d);
    }
    st.mem.load_from(&mut d);
    st.sampler.load_from(&mut d);
    let had_stats = d.bool();
    assert_eq!(
        had_stats,
        st.page_stats.is_some(),
        "checkpoint page-stat tracking does not match the config"
    );
    if let Some(ps) = &mut st.page_stats {
        ps.load_from(&mut d);
    }
    st.faults.load_from(&mut d);
    let fe = d.seq(|d| d.u64());
    assert_eq!(
        fe.len(),
        st.fault_epoch.len(),
        "checkpoint fault-epoch length"
    );
    st.fault_epoch = fe;
    let fl = d.seq(|d| d.u64());
    assert_eq!(
        fl.len(),
        st.fault_life.len(),
        "checkpoint fault-life length"
    );
    st.fault_life = fl;
    st.robust = checkpoint::dec_robust(&mut d);
    *wall = d.u64();
    *total_ops = d.u64();
    *overhead_total = d.u64();
    *epochs = d.seq(checkpoint::dec_epoch_record);
    *last_failures = d.seq(checkpoint::dec_failed_action);
    let saved_attrib = d.bool();
    assert_eq!(
        saved_attrib, attrib_on,
        "checkpoint attribution switch does not match the config"
    );
    if attrib_on {
        *prelude_bd = checkpoint::dec_breakdown(&mut d);
        let ct = d.seq(checkpoint::dec_breakdown);
        assert_eq!(ct.len(), core_totals.len(), "checkpoint core-total count");
        *core_totals = ct;
        *attrib_epochs = d.seq(checkpoint::dec_epoch_attribution);
    }
    let policy_bytes = d.bytes().to_vec();
    d.finish();
    // A fork (`restore_policy == false`) keeps the caller-prepared policy
    // state: the snapshot's policy bytes belong to the *probe* policy, not
    // the sibling about to run the tail.
    if restore_policy {
        policy.restore_state(&policy_bytes);
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
    fn fast_path_matches_per_op_path() {
        // The batched fast path (default) and the per-op path selected by
        // CARREFOUR_NO_FASTPATH must agree bit-for-bit. Exercise coherent
        // stores (uncached memo), a prefetched stream, and huge pages.
        // Setting the env var mid-process is safe precisely because the
        // two paths are identical: any concurrent test sees equal results.
        let machine = MachineSpec::test_machine();
        for pattern in [
            AccessPattern::SharedUniform,
            AccessPattern::Stream { stride: 64 },
            AccessPattern::PrivateSlices,
        ] {
            let mut spec = tiny_spec(pattern, 4);
            spec.regions[0].rw_shared = true;
            spec.write_fraction = 0.5;
            let mut config = SimConfig::fast_test();
            config.vmem.thp = ThpControls::thp();
            let fast = Simulation::run(&machine, &spec, &config, &mut NullPolicy);
            std::env::set_var("CARREFOUR_NO_FASTPATH", "1");
            let slow = Simulation::run(&machine, &spec, &config, &mut NullPolicy);
            std::env::remove_var("CARREFOUR_NO_FASTPATH");
            assert_eq!(fast.runtime_cycles, slow.runtime_cycles);
            assert_eq!(fast.lifetime.ibs_samples, slow.lifetime.ibs_samples);
            assert_eq!(fast.lifetime.total_ops, slow.lifetime.total_ops);
            assert_eq!(fast.lifetime.lar, slow.lifetime.lar);
            assert_eq!(fast.lifetime.imbalance, slow.lifetime.imbalance);
            assert_eq!(fast.pages.psp, slow.pages.psp);
            assert_eq!(fast.pages.pamup, slow.pages.pamup);
            assert_eq!(fast.epochs.len(), slow.epochs.len());
            for (a, b) in fast.epochs.iter().zip(slow.epochs.iter()) {
                assert_eq!(a.counters.epoch_cycles, b.counters.epoch_cycles);
                assert_eq!(a.counters.l2_accesses, b.counters.l2_accesses);
                assert_eq!(a.counters.l2_misses, b.counters.l2_misses);
                assert_eq!(a.counters.dram_local, b.counters.dram_local);
                assert_eq!(a.counters.dram_remote, b.counters.dram_remote);
                assert_eq!(
                    a.counters.controller_requests,
                    b.counters.controller_requests
                );
            }
        }
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
    fn zero_fault_config_is_bit_identical() {
        // The pay-for-what-you-use guarantee: an explicit zero-rate plan,
        // a FaultConfig::none(), and the default config all coincide.
        let machine = MachineSpec::test_machine();
        let spec = tiny_spec(AccessPattern::PrivateSlices, 4);
        let mut config = SimConfig::fast_test();
        config.vmem.thp = ThpControls::thp();
        let plain = Simulation::run(&machine, &spec, &config, &mut NullPolicy);
        config.faults = crate::FaultConfig::uniform(99, 0.0);
        config.validate_each_epoch = true;
        let zeroed = Simulation::run(&machine, &spec, &config, &mut NullPolicy);
        assert_eq!(plain.runtime_cycles, zeroed.runtime_cycles);
        assert_eq!(plain.lifetime.ibs_samples, zeroed.lifetime.ibs_samples);
        assert_eq!(
            plain.lifetime.vmem.faults_2m,
            zeroed.lifetime.vmem.faults_2m
        );
        assert_eq!(plain.robustness, zeroed.robustness);
        assert_eq!(plain.robustness, crate::RobustnessStats::default());
    }

    #[test]
    fn huge_alloc_faults_force_4k_fallbacks() {
        let machine = MachineSpec::test_machine();
        let spec = tiny_spec(AccessPattern::PrivateSlices, 4);
        let mut config = SimConfig::fast_test();
        config.vmem.thp = ThpControls::thp();
        config.faults = crate::FaultConfig::uniform(7, 1.0);
        config.faults.rates.migrate_busy = 0.0;
        config.faults.rates.sample_loss = 0.0;
        config.faults.rates.sample_misattribution = 0.0;
        config.validate_each_epoch = true;
        let r = Simulation::run(&machine, &spec, &config, &mut NullPolicy);
        // Every huge allocation vetoed → the 4 MiB region faults in as
        // 1024 small pages instead of 2 huge ones.
        assert_eq!(r.lifetime.vmem.faults_2m, 0);
        assert_eq!(r.lifetime.vmem.faults_4k, 1024);
        assert!(r.robustness.fallback_allocs > 0);
    }

    #[test]
    fn faulty_runs_are_deterministic_and_sound() {
        let machine = MachineSpec::test_machine();
        let spec = tiny_spec(AccessPattern::PrivateSlices, 4);
        let mut config = SimConfig::fast_test();
        config.vmem.thp = ThpControls::thp();
        config.faults = crate::FaultConfig::uniform(21, 0.5);
        config.validate_each_epoch = true;
        let a = Simulation::run(&machine, &spec, &config, &mut NullPolicy);
        let b = Simulation::run(&machine, &spec, &config, &mut NullPolicy);
        assert_eq!(a.runtime_cycles, b.runtime_cycles);
        assert_eq!(a.robustness, b.robustness);
        assert!(a.robustness.dropped_samples > 0);
    }

    #[test]
    fn memory_pressure_is_survivable() {
        let machine = MachineSpec::test_machine();
        let spec = tiny_spec(AccessPattern::PrivateSlices, 4);
        let mut config = SimConfig::fast_test();
        config.vmem.thp = ThpControls::thp();
        // Reserve nearly all of node 0 before the run; faults must fall
        // back to other nodes or reclaim instead of panicking.
        config.faults.pressure = Some(crate::MemoryPressure {
            epoch: 0,
            node: NodeId(0),
            bytes: machine.nodes()[0].dram_bytes - (8 << 20),
            release_epoch: Some(2),
        });
        config.validate_each_epoch = true;
        let r = Simulation::run(&machine, &spec, &config, &mut NullPolicy);
        assert!(r.runtime_cycles > 0);
        assert_eq!(r.lifetime.total_ops, 9 * 400 * 4);
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
    /// tables, promotion), fault injection (RNG streams, pins, counters),
    /// attribution (ledger state), and page-stat tracking.
    fn ckpt_config() -> SimConfig {
        let mut config = SimConfig::fast_test();
        config.vmem.thp = ThpControls::thp();
        config.faults = crate::FaultConfig::uniform(21, 0.5);
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
        for epoch in 0..=n_epochs {
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
        let full = Simulation::run_traced(&machine, &spec, &config, &mut NullPolicy, &mut whole);
        let whole = whole.into_digest();

        // One sink threaded through both phases sees the same event stream.
        let mut spliced = DigestSink::new();
        let ckpt = Simulation::checkpoint_at_traced(
            &machine,
            &spec,
            &config,
            &mut NullPolicy,
            |_| {},
            Some(&mut spliced),
            2,
        )
        .expect("epoch 2 exists");
        let resumed = Simulation::resume_traced(
            &machine,
            &spec,
            &config,
            &mut NullPolicy,
            |_| {},
            Some(&mut spliced),
            &ckpt,
        );
        let spliced = spliced.into_digest();
        assert_eq!(resumed, full);
        assert_eq!(spliced.diff(&whole), None, "spliced trace digest diverged");
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
