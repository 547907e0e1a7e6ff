//! The traced run: spans around the benchmark's calls into each layer, a
//! timing `NumaPolicy` wrapper, and a stage-by-stage replay of a cell's
//! access stream through the per-access layers.
//!
//! The replay follows the engine's round and batch order, but runs one
//! layer at a time over each round: generate the round's operations,
//! translate them (TLB, walk cache and radix walk, demand faults), replay
//! the walk steps and data accesses through the memory system, then feed
//! IBS and the page statistics. Each stage of each round is one span, so a
//! layer's host time is measured without a timer per access. The TLB is
//! timed alone by a second pass over a second set of TLBs that replays the
//! same lookups and inserts. Walks and faults, rare next to lookups, are
//! timed one by one (the timer's own cost, tens of nanoseconds, lands in
//! the walk time). The replay models the mapping state with no policy
//! actions (no splits, migrations or replicas).

use crate::cells::Job;
use carrefour_bench::forktree::FamilyStats;
use carrefour_bench::runner::CellSpec;
use engine::{Checkpoint, EpochCtx, NumaPolicy, PolicyIntrospection, SimResult, Simulation};
use memsys::{AccessKind, MemorySystem, ServiceLevel};
use numa_topology::{CoreId, NodeId};
use profiling::{IbsSample, IbsSampler, PageAccessStats};
use std::sync::Mutex;
use std::time::Instant;
use vmem::{AddressSpace, Mapping, Tlb, TlbLookup, VirtAddr, WalkCache, WalkStep};
use workloads::{Op, WorkloadGen};

/// One timed interval. `cell` is the index of the job it belongs to in the
/// workload's job list; `parent` is the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Job index.
    pub cell: usize,
    /// Layer-qualified name, e.g. `vmem.translate`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Per-layer sums over every cell of a traced pass. Times in host
/// nanoseconds, counts in simulated events.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    /// Replayed operations.
    pub ops: u64,
    /// Workload generation.
    pub gen_ns: u64,
    /// TLB lookups, walks and faults together.
    pub translate_ns: u64,
    /// TLB lookups and inserts alone.
    pub tlb_ns: u64,
    /// TLB misses (each one walks).
    pub tlb_misses: u64,
    /// Walk-cache lookups and radix walks.
    pub walk_ns: u64,
    /// Walk-cache hits.
    pub walk_hits: u64,
    /// Walk-cache misses.
    pub walk_misses: u64,
    /// Demand-fault handling.
    pub fault_ns: u64,
    /// Demand faults.
    pub faults: u64,
    /// Memory-system accesses.
    pub mem_ns: u64,
    /// Accesses through the memory system, walk steps included.
    pub mem_accesses: u64,
    /// Data accesses.
    pub data_accesses: u64,
    /// Data accesses served by L1.
    pub l1_hits: u64,
    /// Accesses served by DRAM.
    pub dram: u64,
    /// DRAM accesses to a remote node.
    pub dram_remote: u64,
    /// Simulated controller queueing cycles of DRAM accesses.
    pub queue_cycles: u64,
    /// IBS sampling.
    pub ibs_ns: u64,
    /// IBS samples taken.
    pub ibs_samples: u64,
    /// Page-statistics recording.
    pub pagestats_ns: u64,
    /// `Simulation::run` with the timing wrapper.
    pub run_ns: u64,
    /// Simulated operations of those runs.
    pub run_ops: u64,
    /// TLB misses those runs reported (`lifetime.tlb_miss_ratio` times
    /// operations), to set beside the replay's own count.
    pub run_tlb_misses: f64,
    /// Each `on_epoch` call, in nanoseconds.
    pub on_epoch_ns: Vec<u64>,
    /// Actions the policy queued.
    pub actions: u64,
    /// Actions the engine reported failed.
    pub failed_actions: u64,
    /// `Simulation::checkpoint_at`.
    pub checkpoint_ns: u64,
    /// `Simulation::resume`.
    pub resume_ns: u64,
    /// Checkpoints encoded.
    pub ckpts: u64,
    /// Their encoded size.
    pub ckpt_bytes: u64,
    /// `Checkpoint::to_bytes`.
    pub encode_ns: u64,
    /// `Checkpoint::from_bytes`.
    pub decode_ns: u64,
}

impl Totals {
    fn absorb(&mut self, o: Totals) {
        self.ops += o.ops;
        self.gen_ns += o.gen_ns;
        self.translate_ns += o.translate_ns;
        self.tlb_ns += o.tlb_ns;
        self.tlb_misses += o.tlb_misses;
        self.walk_ns += o.walk_ns;
        self.walk_hits += o.walk_hits;
        self.walk_misses += o.walk_misses;
        self.fault_ns += o.fault_ns;
        self.faults += o.faults;
        self.mem_ns += o.mem_ns;
        self.mem_accesses += o.mem_accesses;
        self.data_accesses += o.data_accesses;
        self.l1_hits += o.l1_hits;
        self.dram += o.dram;
        self.dram_remote += o.dram_remote;
        self.queue_cycles += o.queue_cycles;
        self.ibs_ns += o.ibs_ns;
        self.ibs_samples += o.ibs_samples;
        self.pagestats_ns += o.pagestats_ns;
        self.run_ns += o.run_ns;
        self.run_ops += o.run_ops;
        self.run_tlb_misses += o.run_tlb_misses;
        self.on_epoch_ns.extend(o.on_epoch_ns);
        self.actions += o.actions;
        self.failed_actions += o.failed_actions;
        self.checkpoint_ns += o.checkpoint_ns;
        self.resume_ns += o.resume_ns;
        self.ckpts += o.ckpts;
        self.ckpt_bytes += o.ckpt_bytes;
        self.encode_ns += o.encode_ns;
        self.decode_ns += o.decode_ns;
    }

    /// Host time of the replayed per-access layers.
    pub fn replay_ns(&self) -> u64 {
        self.gen_ns + self.translate_ns + self.mem_ns + self.ibs_ns + self.pagestats_ns
    }

    /// Engine time outside the policy: the run spans minus their
    /// `on_epoch` children.
    pub fn engine_self_ns(&self) -> u64 {
        self.run_ns
            .saturating_sub(self.on_epoch_ns.iter().sum::<u64>())
    }
}

/// Collects spans and layer totals; shared by the runner's workers.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: std::sync::atomic::AtomicU64,
    totals: Mutex<Totals>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: std::sync::atomic::AtomicU64::new(0),
            totals: Mutex::new(Totals::default()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves a span id (for a span whose children close before it).
    pub fn id(&self) -> u64 {
        self.next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Records a closed span; returns its duration in nanoseconds.
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        cell: usize,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let span = Span {
            id,
            parent,
            cell,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        let d = span.end_ns - span.start_ns;
        self.spans.lock().expect("span list poisoned").push(span);
        d
    }

    /// Times `f` as a span; returns its value and duration in nanoseconds.
    pub fn span<T>(
        &self,
        parent: Option<u64>,
        cell: usize,
        name: &'static str,
        f: impl FnOnce(u64) -> T,
    ) -> (T, u64) {
        let id = self.id();
        let start = Instant::now();
        let v = f(id);
        let d = self.record(id, parent, cell, name, start, Instant::now());
        (v, d)
    }

    /// Every span recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// The layer totals accumulated so far.
    pub fn totals(&self) -> Totals {
        self.totals.lock().expect("totals poisoned").clone()
    }

    fn add(&self, t: Totals) {
        self.totals.lock().expect("totals poisoned").absorb(t);
    }

    /// Runs one job traced. Returns every result it produced, labelled;
    /// a label may repeat (the traced run, the checkpoint resume and, for a
    /// family, the fork tree's own probe result), and every repeat must be
    /// bit-identical. Also returns the family's fork-tree counters.
    pub fn run_job(
        &self,
        cell: usize,
        job: &Job,
    ) -> (Vec<(String, SimResult)>, Option<FamilyStats>) {
        let (out, _) = self.span(None, cell, "bench.job", |root| match job {
            Job::Cell(spec) => (self.simulate(spec, cell, root), None),
            Job::Family(specs) => {
                let ((mut out, stats), _) =
                    self.span(Some(root), cell, "forktree.run_family", |_| {
                        crate::pass::run_job(job)
                    });
                out.extend(self.simulate(&specs[0], cell, root));
                (out, stats)
            }
        });
        out
    }

    /// The traced work on one fully simulated cell: a run under the timing
    /// wrapper, the layer replay, and a checkpoint round trip at the middle
    /// epoch. Returns the run's and the resume's results.
    fn simulate(&self, spec: &CellSpec, cell: usize, parent: u64) -> Vec<(String, SimResult)> {
        let label = crate::cells::label(spec);
        let machine = &spec.machine;
        let config = spec.sim_config();
        let wspec = spec.workload.spec(machine);
        let mut t = Totals::default();

        let (mut run, run_ns) = self.span(Some(parent), cell, "engine.run", |id| {
            let mut policy = TimedPolicy {
                inner: spec.make_policy(),
                tracer: self,
                cell,
                parent: id,
                on_epoch_ns: Vec::new(),
                actions: 0,
            };
            let r = Simulation::run(machine, &wspec, &config, &mut policy);
            t.on_epoch_ns = policy.on_epoch_ns;
            t.actions = policy.actions;
            r
        });
        run.policy = spec.policy_label();
        t.run_ns = run_ns;
        t.run_ops = run.lifetime.total_ops;
        t.run_tlb_misses = run.lifetime.tlb_miss_ratio * run.lifetime.total_ops as f64;
        t.failed_actions = run.epochs.iter().map(|e| e.failed_actions).sum();

        let store_samples = spec.make_policy().consumes_samples();
        self.span(Some(parent), cell, "layers.replay", |id| {
            replay(spec, self, cell, id, store_samples, &mut t)
        });

        let mid = (run.epochs.len() / 2) as u32;
        let (ckpt, ckpt_ns) = self.span(Some(parent), cell, "engine.checkpoint", |_| {
            let mut policy = spec.make_policy();
            Simulation::checkpoint_at(machine, &wspec, &config, policy.as_mut(), mid)
                .expect("the middle epoch lies inside the run")
        });
        let (bytes, encode_ns) = self.span(Some(parent), cell, "codec.encode", |_| ckpt.to_bytes());
        let (back, decode_ns) = self.span(Some(parent), cell, "codec.decode", |_| {
            Checkpoint::from_bytes(&bytes).expect("a freshly encoded checkpoint decodes")
        });
        let (mut resumed, resume_ns) = self.span(Some(parent), cell, "engine.resume", |_| {
            let mut policy = spec.make_policy();
            Simulation::resume(machine, &wspec, &config, policy.as_mut(), &back)
        });
        resumed.policy = spec.policy_label();
        t.checkpoint_ns = ckpt_ns;
        t.resume_ns = resume_ns;
        t.ckpts = 1;
        t.ckpt_bytes = bytes.len() as u64;
        t.encode_ns = encode_ns;
        t.decode_ns = decode_ns;
        self.add(t);
        vec![(label.clone(), run), (label, resumed)]
    }
}

/// Delegates every `NumaPolicy` call to the wrapped policy, timing
/// `on_epoch` and counting the actions it queues. It changes no input or
/// output of the policy, so results stay bit-identical (the output check
/// holds traced runs to the same pins).
struct TimedPolicy<'t> {
    inner: Box<dyn NumaPolicy>,
    tracer: &'t Tracer,
    cell: usize,
    parent: u64,
    on_epoch_ns: Vec<u64>,
    actions: u64,
}

impl NumaPolicy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>) {
        let queued = ctx.queued().len();
        let start = Instant::now();
        self.inner.on_epoch(ctx);
        let end = Instant::now();
        let id = self.tracer.id();
        let d = self.tracer.record(
            id,
            Some(self.parent),
            self.cell,
            "core.on_epoch",
            start,
            end,
        );
        self.on_epoch_ns.push(d);
        self.actions += (ctx.queued().len() - queued) as u64;
    }

    fn consumes_samples(&self) -> bool {
        self.inner.consumes_samples()
    }

    fn save_state(&self) -> Vec<u8> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        self.inner.restore_state(bytes);
    }

    fn introspect(&self, epoch: u32) -> Option<PolicyIntrospection> {
        self.inner.introspect(epoch)
    }
}

/// Per-round buffers of the replay, reused across rounds.
#[derive(Default)]
struct Round {
    /// `(thread, start, end)` into `ops`, in engine issue order.
    blocks: Vec<(usize, usize, usize)>,
    ops: Vec<Op>,
    maps: Vec<Mapping>,
    /// `(start, len)` into `steps` of each op's walk (len 0: TLB hit).
    walks: Vec<(usize, usize)>,
    steps: Vec<WalkStep>,
    from_dram: Vec<bool>,
}

impl Round {
    fn clear(&mut self) {
        self.blocks.clear();
        self.ops.clear();
        self.maps.clear();
        self.walks.clear();
        self.steps.clear();
        self.from_dram.clear();
    }
}

/// Replays `spec`'s access stream stage by stage (see the module doc),
/// adding layer times and counts to `t`.
fn replay(
    spec: &CellSpec,
    tracer: &Tracer,
    cell: usize,
    parent: u64,
    store_samples: bool,
    t: &mut Totals,
) {
    let machine = &spec.machine;
    let config = spec.sim_config();
    let wspec = spec.workload.spec(machine);
    let threads = wspec.threads;
    let mut gen = WorkloadGen::new(&wspec, config.seed);
    let mut space = AddressSpace::new(machine, config.vmem);
    for r in &wspec.regions {
        space
            .map_region(r.base, r.bytes)
            .expect("workload regions map as in the engine");
    }
    let mut mem = MemorySystem::new(machine, config.memsys.clone());
    let mut tlbs: Vec<Tlb> = (0..threads).map(|_| Tlb::new(&config.vmem.tlb)).collect();
    let mut tlbs_alone: Vec<Tlb> = (0..threads).map(|_| Tlb::new(&config.vmem.tlb)).collect();
    let mut walk_caches: Vec<WalkCache> = (0..threads).map(|_| WalkCache::new()).collect();
    let mut sampler = IbsSampler::new(machine.num_nodes(), config.ibs);
    sampler.set_store(store_samples);
    let mut page_stats = config.track_page_stats.then(PageAccessStats::new);
    let nodes: Vec<NodeId> = (0..threads)
        .map(|th| machine.node_of_core(CoreId::from(th)))
        .collect();
    let line_shift = config.memsys.l1.line_bytes.trailing_zeros();
    let l1_latency = u64::from(config.memsys.l1_latency);
    let batch = config.ops_per_batch.max(1).min(wspec.ops_per_round);
    let mlp = u64::from(wspec.mlp.max(1));
    let think = u64::from(wspec.think_cycles_per_op);
    let total_rounds = gen.total_rounds();
    let rounds_per_epoch = config.rounds_per_epoch.max(1);

    let mut rd = Round::default();
    let mut block: Vec<Op> = Vec::new();
    let mut thread_cycles = vec![0u64; threads];
    let mut epoch_cycles = 0u64;
    for round in 0..total_rounds {
        rd.clear();

        // 1. Workload generation, in the engine's batch interleaving. The
        // loader's serial prelude runs first, on thread 0.
        let start = Instant::now();
        if round == 0 {
            let prelude: Vec<Op> = gen
                .prelude()
                .iter()
                .map(|&vaddr| Op {
                    vaddr,
                    is_write: true,
                    coherent_store: false,
                    prefetched: false,
                })
                .collect();
            rd.blocks.push((0, 0, prelude.len()));
            rd.ops.extend(prelude);
        }
        let mut issued = 0;
        let mut cycle_idx = round as usize;
        while issued < wspec.ops_per_round {
            let n = batch.min(wspec.ops_per_round - issued);
            for k in 0..threads {
                let th = (k + cycle_idx) % threads;
                gen.next_block(th, n as usize, &mut block);
                let a = rd.ops.len();
                rd.ops.extend_from_slice(&block);
                rd.blocks.push((th, a, rd.ops.len()));
            }
            issued += n;
            cycle_idx += 1;
        }
        t.gen_ns += tracer.record(
            tracer.id(),
            Some(parent),
            cell,
            "workloads.gen",
            start,
            Instant::now(),
        );
        t.ops += rd.ops.len() as u64;

        // 2. Translation: TLB, walk cache and radix walk, demand faults.
        let start = Instant::now();
        for &(th, a, b) in &rd.blocks {
            for op in &rd.ops[a..b] {
                let vaddr = VirtAddr(op.vaddr);
                let (m, walk) = match tlbs[th].lookup(vaddr) {
                    TlbLookup::HitL1(m) | TlbLookup::HitL2(m) => (m, (0, 0)),
                    TlbLookup::Miss => {
                        let w0 = Instant::now();
                        let w = space.walk_cached(vaddr, &mut walk_caches[th]);
                        t.walk_ns += w0.elapsed().as_nanos() as u64;
                        let first = rd.steps.len();
                        rd.steps.extend_from_slice(w.steps());
                        let m = match w.mapping {
                            Some(m) => m,
                            None => {
                                let f0 = Instant::now();
                                let f = space
                                    .fault(vaddr, nodes[th])
                                    .expect("a fault-free replay never runs out of memory");
                                t.fault_ns += f0.elapsed().as_nanos() as u64;
                                t.faults += 1;
                                f.mapping
                            }
                        };
                        tlbs[th].insert(m);
                        (m, (first, w.steps().len()))
                    }
                };
                rd.maps.push(m);
                rd.walks.push(walk);
            }
        }
        t.translate_ns += tracer.record(
            tracer.id(),
            Some(parent),
            cell,
            "vmem.translate",
            start,
            Instant::now(),
        );

        // 2b. The TLB alone: the same lookups and inserts on a second set.
        let start = Instant::now();
        let mut i = 0;
        for &(th, a, b) in &rd.blocks {
            for op in &rd.ops[a..b] {
                if let TlbLookup::Miss = tlbs_alone[th].lookup(VirtAddr(op.vaddr)) {
                    tlbs_alone[th].insert(rd.maps[i]);
                }
                i += 1;
            }
        }
        t.tlb_ns += tracer.record(
            tracer.id(),
            Some(parent),
            cell,
            "vmem.tlb",
            start,
            Instant::now(),
        );

        // 3. Memory system: walk steps, then the data access. Repeated
        // accesses to the line at the L1's MRU way are charged in bulk,
        // as the engine's fast path does.
        let start = Instant::now();
        let mut i = 0;
        for &(th, a, b) in &rd.blocks {
            let core = CoreId::from(th);
            let mut stable_line = None;
            let mut pending_l1 = 0;
            for op in &rd.ops[a..b] {
                let (first, len) = rd.walks[i];
                let mut cycles = think;
                for s in &rd.steps[first..first + len] {
                    let o = mem.access(core, s.pte_addr.0, s.node, AccessKind::PageWalk);
                    cycles += u64::from(o.cycles);
                    t.mem_accesses += 1;
                    if o.dram() {
                        t.dram += 1;
                        t.dram_remote += u64::from(!o.local());
                        t.queue_cycles += u64::from(o.queue);
                    }
                }
                if len > 0 {
                    stable_line = None;
                }
                let m = rd.maps[i];
                t.data_accesses += 1;
                t.mem_accesses += 1;
                let dram = if op.coherent_store {
                    let o = mem.access_uncached(core, m.node);
                    cycles += u64::from(o.cycles) / mlp;
                    Some(o)
                } else {
                    let paddr = m.translate(VirtAddr(op.vaddr)).0;
                    let line = paddr >> line_shift;
                    if stable_line == Some(line) {
                        pending_l1 += 1;
                        t.l1_hits += 1;
                        cycles += l1_latency;
                        None
                    } else {
                        stable_line = Some(line);
                        let o = mem.access(core, paddr, m.node, AccessKind::Data);
                        if o.level == ServiceLevel::L1 {
                            t.l1_hits += 1;
                        }
                        let overlap = if op.prefetched { 4 } else { mlp };
                        cycles += if o.dram() {
                            u64::from(o.cycles) / overlap
                        } else {
                            u64::from(o.cycles)
                        };
                        o.dram().then_some(o)
                    }
                };
                if let Some(o) = dram {
                    t.dram += 1;
                    t.dram_remote += u64::from(!o.local());
                    t.queue_cycles += u64::from(o.queue);
                }
                rd.from_dram.push(dram.is_some());
                thread_cycles[th] += cycles;
                i += 1;
            }
            if pending_l1 > 0 {
                mem.charge_l1_hits_n(core, pending_l1);
            }
        }
        t.mem_ns += tracer.record(
            tracer.id(),
            Some(parent),
            cell,
            "memsys.access",
            start,
            Instant::now(),
        );
        epoch_cycles += thread_cycles.iter().copied().max().unwrap_or(0);
        thread_cycles.iter_mut().for_each(|c| *c = 0);

        // 4. IBS.
        let start = Instant::now();
        let mut i = 0;
        for &(th, a, b) in &rd.blocks {
            let node = nodes[th];
            for op in &rd.ops[a..b] {
                let m = rd.maps[i];
                let (first, len) = rd.walks[i];
                let from_dram = rd.from_dram[i];
                let steps = &rd.steps[first..first + len];
                sampler.observe(|| IbsSample {
                    vaddr: VirtAddr(op.vaddr),
                    accessing_node: node,
                    thread: th as u16,
                    home_node: m.node,
                    from_dram,
                    is_store: op.is_write,
                    page_size: m.size,
                    walk_remote_steps: steps.iter().filter(|s| s.node != node).count() as u8,
                });
                i += 1;
            }
        }
        t.ibs_ns += tracer.record(
            tracer.id(),
            Some(parent),
            cell,
            "profiling.ibs",
            start,
            Instant::now(),
        );

        // 5. Page statistics.
        if let Some(stats) = page_stats.as_mut() {
            let start = Instant::now();
            for &(th, a, b) in &rd.blocks {
                for op in &rd.ops[a..b] {
                    stats.record(VirtAddr(op.vaddr), th as u16);
                }
            }
            t.pagestats_ns += tracer.record(
                tracer.id(),
                Some(parent),
                cell,
                "profiling.pagestats",
                start,
                Instant::now(),
            );
        }

        // Epoch boundary: khugepaged, the sampler drain, controller update.
        if (round + 1) % rounds_per_epoch == 0 || round + 1 == total_rounds {
            let (collapsed, _) = space.promotion_scan(config.khugepaged_scan_limit);
            if !collapsed.is_empty() {
                tlbs.iter_mut()
                    .chain(tlbs_alone.iter_mut())
                    .for_each(Tlb::flush);
            }
            sampler.drain();
            mem.end_epoch(epoch_cycles);
            epoch_cycles = 0;
        }
    }
    t.tlb_misses += tlbs.iter().map(|x| x.stats().misses).sum::<u64>();
    t.walk_hits += walk_caches.iter().map(WalkCache::hits).sum::<u64>();
    t.walk_misses += walk_caches.iter().map(WalkCache::misses).sum::<u64>();
    t.ibs_samples += sampler.total_taken();
}
