//! The assembled memory system: caches + controllers + interconnect.

use crate::config::MemSysConfig;
use crate::controller::MemoryController;
use crate::hierarchy::{CacheHierarchy, ServiceLevel};
use crate::links::LinkTraffic;
use numa_topology::{CoreId, Interconnect, MachineSpec, NodeId};
use serde::{Deserialize, Serialize};

/// What kind of reference an access is; used to attribute L2 misses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum AccessKind {
    /// An ordinary program load or store.
    Data,
    /// A page-table-walk reference issued by the MMU on a TLB miss.
    PageWalk,
}

/// The outcome of a single memory access.
///
/// For DRAM-serviced accesses the total is reported *attributed*: `queue`
/// and `inter` name the controller-queueing and interconnect components
/// included in `cycles` (the remainder is DRAM service proper — L3-miss
/// detection plus array access). Cache hits have both components zero.
/// The invariant `queue + inter <= cycles` always holds.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AccessOutcome {
    /// Total latency charged for the access, in cycles.
    pub cycles: u32,
    /// The level of the hierarchy that serviced it.
    pub level: ServiceLevel,
    /// Node of the requesting core.
    pub from_node: NodeId,
    /// Home node of the physical address (meaningful when `level` is DRAM).
    pub home_node: NodeId,
    /// Controller queueing delay included in `cycles` (DRAM only, else 0).
    pub queue: u32,
    /// Interconnect delay included in `cycles`: hop latency plus link
    /// queueing (DRAM only, else 0).
    pub inter: u32,
}

impl AccessOutcome {
    /// Whether the access was serviced from DRAM.
    #[inline]
    pub fn dram(&self) -> bool {
        self.level == ServiceLevel::Dram
    }

    /// Whether a DRAM access was serviced by the requesting core's own node.
    #[inline]
    pub fn local(&self) -> bool {
        self.from_node == self.home_node
    }
}

/// Running epoch-scoped and lifetime counters kept by the memory system.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct MemEpochStats {
    /// L2 accesses (i.e. L1 misses) this epoch.
    pub l2_accesses: u64,
    /// L2 misses this epoch.
    pub l2_misses: u64,
    /// L2 misses caused by page-table walks this epoch.
    pub l2_walk_misses: u64,
    /// DRAM accesses serviced by the requesting core's node.
    pub dram_local: u64,
    /// DRAM accesses serviced by a remote node.
    pub dram_remote: u64,
}

impl MemEpochStats {
    /// Local access ratio over DRAM accesses, in `[0, 1]`; 1 when idle.
    pub fn lar(&self) -> f64 {
        let total = self.dram_local + self.dram_remote;
        if total == 0 {
            1.0
        } else {
            self.dram_local as f64 / total as f64
        }
    }

    fn merge(&mut self, other: &MemEpochStats) {
        self.l2_accesses += other.l2_accesses;
        self.l2_misses += other.l2_misses;
        self.l2_walk_misses += other.l2_walk_misses;
        self.dram_local += other.dram_local;
        self.dram_remote += other.dram_remote;
    }

    /// Adds `n` copies of a per-access counter `delta` in one step — the
    /// bulk-charge primitive of the epoch-scoped access fast path. Exactly
    /// equivalent to merging `delta` `n` times (counters are sums).
    #[inline]
    pub fn add_n(&mut self, delta: &MemEpochStats, n: u64) {
        self.l2_accesses += delta.l2_accesses * n;
        self.l2_misses += delta.l2_misses * n;
        self.l2_walk_misses += delta.l2_walk_misses * n;
        self.dram_local += delta.dram_local * n;
        self.dram_remote += delta.dram_remote * n;
    }
}

/// One controller's view at an epoch boundary, for observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerSnap {
    /// Requests serviced during the epoch.
    pub requests: u64,
    /// Queueing delay currently charged per request, in cycles.
    pub queue_delay: u32,
}

/// The complete memory system of one simulated machine.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MemorySystem {
    config: MemSysConfig,
    hierarchy: CacheHierarchy,
    controllers: Vec<MemoryController>,
    links: LinkTraffic,
    topology: Interconnect,
    core_node: Vec<NodeId>,
    epoch: MemEpochStats,
    lifetime: MemEpochStats,
}

impl MemorySystem {
    /// Builds the memory system for `machine` with the given configuration.
    pub fn new(machine: &MachineSpec, config: MemSysConfig) -> Self {
        let topology = machine.topology().clone();
        let controllers = (0..machine.num_nodes())
            .map(|_| {
                MemoryController::new(
                    config.controller_service_cycles,
                    config.controller_queue_coeff,
                    config.controller_queue_cap,
                )
            })
            .collect();
        let links = LinkTraffic::new(
            &topology,
            config.link_service_cycles,
            config.link_queue_coeff,
            config.link_queue_cap,
        );
        let hierarchy = CacheHierarchy::new(machine, &config);
        let core_node = (0..machine.total_cores())
            .map(|c| machine.node_of_core(CoreId::from(c)))
            .collect();
        MemorySystem {
            config,
            hierarchy,
            controllers,
            links,
            topology,
            core_node,
            epoch: MemEpochStats::default(),
            lifetime: MemEpochStats::default(),
        }
    }

    /// Performs one memory access and returns its latency and outcome.
    ///
    /// `home` is the NUMA node hosting the physical frame of `paddr` (the
    /// virtual-memory layer knows this; the memory system only charges for
    /// it). Lines are filled on the way back, so subsequent accesses hit.
    pub fn access(
        &mut self,
        core: CoreId,
        paddr: u64,
        home: NodeId,
        kind: AccessKind,
    ) -> AccessOutcome {
        let from = self.core_node[core.index()];
        let level = self.hierarchy.access(core, from, paddr);
        if level != ServiceLevel::L1 {
            self.epoch.l2_accesses += 1;
        }
        let (mut queue, mut inter) = (0, 0);
        let cycles = match level {
            ServiceLevel::L1 => self.config.l1_latency,
            ServiceLevel::L2 => self.config.l2_latency,
            ServiceLevel::L3 | ServiceLevel::Dram => {
                self.epoch.l2_misses += 1;
                if kind == AccessKind::PageWalk {
                    self.epoch.l2_walk_misses += 1;
                }
                if level == ServiceLevel::L3 {
                    self.config.l3_latency
                } else {
                    if from == home {
                        self.epoch.dram_local += 1;
                    } else {
                        self.epoch.dram_remote += 1;
                    }
                    queue = self.controllers[home.index()].request();
                    let route = self.topology.route(from, home);
                    let hops = route.hops();
                    let link_delay = self.links.traverse(route);
                    inter = hops * self.config.hop_latency + link_delay;
                    self.config.l3_latency + self.config.dram_base_latency + queue + inter
                }
            }
        };
        AccessOutcome {
            cycles,
            level,
            from_node: from,
            home_node: home,
            queue,
            inter,
        }
    }

    /// Performs a cache-bypassing access (a store to line-level-shared data
    /// whose coherence traffic must reach the home controller). Charged the
    /// full DRAM path; counted as an L2 access and miss, since coherence
    /// misses are not TLB walks but do escape the core's caches.
    pub fn access_uncached(&mut self, core: CoreId, home: NodeId) -> AccessOutcome {
        let from = self.core_node[core.index()];
        self.epoch.l2_accesses += 1;
        self.epoch.l2_misses += 1;
        if from == home {
            self.epoch.dram_local += 1;
        } else {
            self.epoch.dram_remote += 1;
        }
        let queue = self.controllers[home.index()].request();
        let route = self.topology.route(from, home);
        let hops = route.hops();
        let link_delay = self.links.traverse(route);
        let inter = hops * self.config.hop_latency + link_delay;
        let cycles = self.config.l3_latency + self.config.dram_base_latency + queue + inter;
        AccessOutcome {
            cycles,
            level: ServiceLevel::Dram,
            from_node: from,
            home_node: home,
            queue,
            inter,
        }
    }

    /// Computes the outcome an uncached access would have, without charging
    /// it: the read-only companion of [`MemorySystem::access_uncached`].
    ///
    /// Within an epoch the result is a pure function of `(core, home)` —
    /// controller queueing and link congestion delays only change at
    /// [`MemorySystem::end_epoch`] — so the engine's fast path computes it
    /// once per `(node, home)` pair per epoch and charges repeats with
    /// [`MemorySystem::charge_uncached_n`].
    pub fn peek_uncached(&self, core: CoreId, home: NodeId) -> AccessOutcome {
        let from = self.core_node[core.index()];
        let queue = self.controllers[home.index()].current_delay();
        let route = self.topology.route(from, home);
        let hops = route.hops();
        let link_delay = self.links.peek(route);
        let inter = hops * self.config.hop_latency + link_delay;
        let cycles = self.config.l3_latency + self.config.dram_base_latency + queue + inter;
        AccessOutcome {
            cycles,
            level: ServiceLevel::Dram,
            from_node: from,
            home_node: home,
            queue,
            inter,
        }
    }

    /// Charges `n` uncached accesses from `core` to `home` in bulk: counter
    /// effects are exactly those of `n` [`MemorySystem::access_uncached`]
    /// calls (whose per-access outcome [`MemorySystem::peek_uncached`]
    /// reported). Only valid within one epoch — the caller must flush its
    /// batch before [`MemorySystem::end_epoch`].
    pub fn charge_uncached_n(&mut self, core: CoreId, home: NodeId, n: u64) {
        let from = self.core_node[core.index()];
        let delta = MemEpochStats {
            l2_accesses: 1,
            l2_misses: 1,
            l2_walk_misses: 0,
            dram_local: u64::from(from == home),
            dram_remote: u64::from(from != home),
        };
        self.epoch.add_n(&delta, n);
        self.controllers[home.index()].request_n(n);
        let route = self.topology.route(from, home);
        self.links.traverse_n(route, n);
    }

    /// Performs one data access like [`MemorySystem::access`], additionally
    /// reporting whether the access left the cache hierarchy's set state
    /// unchanged (a *stable* hit: L1, already most-recently-used). A stable
    /// access is idempotent — replaying the same line from the same core
    /// would produce the same outcome and the same state — which is what
    /// lets the engine's fast path charge same-line repeats in bulk via
    /// [`MemorySystem::charge_l1_hits_n`].
    #[inline]
    pub fn access_stable(
        &mut self,
        core: CoreId,
        paddr: u64,
        home: NodeId,
        kind: AccessKind,
    ) -> (AccessOutcome, bool) {
        let from = self.core_node[core.index()];
        let (level, stable) = self.hierarchy.access_stable(core, from, paddr);
        if level != ServiceLevel::L1 {
            self.epoch.l2_accesses += 1;
        }
        let (mut queue, mut inter) = (0, 0);
        let cycles = match level {
            ServiceLevel::L1 => self.config.l1_latency,
            ServiceLevel::L2 => self.config.l2_latency,
            ServiceLevel::L3 | ServiceLevel::Dram => {
                self.epoch.l2_misses += 1;
                if kind == AccessKind::PageWalk {
                    self.epoch.l2_walk_misses += 1;
                }
                if level == ServiceLevel::L3 {
                    self.config.l3_latency
                } else {
                    if from == home {
                        self.epoch.dram_local += 1;
                    } else {
                        self.epoch.dram_remote += 1;
                    }
                    queue = self.controllers[home.index()].request();
                    let route = self.topology.route(from, home);
                    let hops = route.hops();
                    let link_delay = self.links.traverse(route);
                    inter = hops * self.config.hop_latency + link_delay;
                    self.config.l3_latency + self.config.dram_base_latency + queue + inter
                }
            }
        };
        (
            AccessOutcome {
                cycles,
                level,
                from_node: from,
                home_node: home,
                queue,
                inter,
            },
            stable,
        )
    }

    /// Charges `n` stable L1 hits for `core` in bulk: the only state a
    /// stable hit changes is the L1 hit counter (the line is already MRU,
    /// and L1 hits touch no epoch counters), so `n` replays collapse to one
    /// counter addition.
    #[inline]
    pub fn charge_l1_hits_n(&mut self, core: CoreId, n: u64) {
        self.hierarchy.add_l1_hits(core, n);
    }

    /// The cache line size (bytes) of the first-level cache, for fast-path
    /// same-line detection.
    #[inline]
    pub fn l1_line_bytes(&self) -> u64 {
        self.config.l1.line_bytes as u64
    }

    /// Host-side prefetch of the cache sets an access by `core` to `paddr`
    /// would probe. Touches no simulated state — the engine calls it for
    /// addresses it is *about* to access (e.g. every step of a page walk
    /// before replaying them), so the independent set loads overlap
    /// instead of serializing through the probe chain.
    #[inline]
    pub fn prefetch_access(&self, core: CoreId, paddr: u64) {
        let from = self.core_node[core.index()];
        self.hierarchy.prefetch_access(core, from, paddr);
    }

    /// Closes the current epoch: rolls epoch counters into lifetime totals
    /// and lets controllers and links derive next-epoch delays from their
    /// utilization over `epoch_cycles`.
    pub fn end_epoch(&mut self, epoch_cycles: u64) -> MemEpochStats {
        for c in &mut self.controllers {
            c.end_epoch(epoch_cycles);
        }
        self.links.end_epoch(epoch_cycles);
        let stats = self.epoch;
        self.lifetime.merge(&stats);
        self.epoch = MemEpochStats::default();
        stats
    }

    /// Counters accumulated during the still-open epoch.
    #[inline]
    pub fn epoch_stats(&self) -> &MemEpochStats {
        &self.epoch
    }

    /// Counters accumulated over the system's lifetime (closed epochs only).
    #[inline]
    pub fn lifetime_stats(&self) -> &MemEpochStats {
        &self.lifetime
    }

    /// Per-controller requests serviced during the still-open epoch.
    pub fn controller_epoch_requests(&self) -> Vec<u64> {
        self.controllers
            .iter()
            .map(MemoryController::epoch_requests)
            .collect()
    }

    /// Per-controller lifetime request counts.
    pub fn controller_total_requests(&self) -> Vec<u64> {
        self.controllers
            .iter()
            .map(MemoryController::total_requests)
            .collect()
    }

    /// Current per-controller queueing delays (cycles).
    pub fn controller_delays(&self) -> Vec<u32> {
        self.controllers
            .iter()
            .map(MemoryController::current_delay)
            .collect()
    }

    /// Joint per-controller observability snapshot of the still-open
    /// epoch: requests serviced so far plus the queueing delay currently
    /// charged (derived from the *previous* epoch's utilization). The
    /// trace layer emits this with every epoch-end event.
    pub fn controller_snapshots(&self) -> Vec<ControllerSnap> {
        self.controllers
            .iter()
            .map(|c| ControllerSnap {
                requests: c.epoch_requests(),
                queue_delay: c.current_delay(),
            })
            .collect()
    }

    /// Serializes the full memory-system state for the `ckpt-v1` snapshot:
    /// cache tags, controller counters/delays, link traffic, and the
    /// epoch/lifetime counter pairs. The config, topology, and core→node
    /// map are constructor-derived and rebuilt by the caller.
    pub fn save_into(&self, e: &mut codec::Enc) {
        self.hierarchy.save_into(e);
        e.seq(self.controllers.iter(), |e, c| c.save_into(e));
        self.links.save_into(e);
        for s in [&self.epoch, &self.lifetime] {
            e.u64(s.l2_accesses);
            e.u64(s.l2_misses);
            e.u64(s.l2_walk_misses);
            e.u64(s.dram_local);
            e.u64(s.dram_remote);
        }
    }

    /// Restores state captured by [`MemorySystem::save_into`] onto a system
    /// built for the same machine and config.
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        self.hierarchy.load_from(d);
        let n = d.usize();
        assert_eq!(n, self.controllers.len(), "checkpoint controller count");
        for c in &mut self.controllers {
            c.load_from(d);
        }
        self.links.load_from(d);
        for s in [&mut self.epoch, &mut self.lifetime] {
            s.l2_accesses = d.u64();
            s.l2_misses = d.u64();
            s.l2_walk_misses = d.u64();
            s.dram_local = d.u64();
            s.dram_remote = d.u64();
        }
    }

    /// The cache hierarchy (for inspection in tests and benches).
    #[inline]
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// The configuration this system was built with.
    #[inline]
    pub fn config(&self) -> &MemSysConfig {
        &self.config
    }

    /// The node of a given core (cached from the machine spec).
    #[inline]
    pub fn node_of_core(&self, core: CoreId) -> NodeId {
        self.core_node[core.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> MemorySystem {
        MemorySystem::new(
            &MachineSpec::test_machine(),
            MemSysConfig::scaled_default(1),
        )
    }

    #[test]
    fn local_dram_access_is_cheaper_than_remote() {
        let mut m = system();
        let local = m.access(CoreId(0), 0x10_0000, NodeId(0), AccessKind::Data);
        let remote = m.access(CoreId(0), 0x20_0000, NodeId(1), AccessKind::Data);
        assert!(local.dram() && remote.dram());
        assert!(local.local());
        assert!(!remote.local());
        assert!(remote.cycles > local.cycles);
    }

    #[test]
    fn walk_misses_are_attributed() {
        let mut m = system();
        m.access(CoreId(0), 0x30_0000, NodeId(0), AccessKind::PageWalk);
        assert_eq!(m.epoch_stats().l2_walk_misses, 1);
        assert_eq!(m.epoch_stats().l2_misses, 1);
        m.access(CoreId(0), 0x40_0000, NodeId(0), AccessKind::Data);
        assert_eq!(m.epoch_stats().l2_walk_misses, 1);
        assert_eq!(m.epoch_stats().l2_misses, 2);
    }

    #[test]
    fn lar_tracks_locality() {
        let mut m = system();
        m.access(CoreId(0), 0x1_0000, NodeId(0), AccessKind::Data);
        m.access(CoreId(0), 0x2_0000, NodeId(0), AccessKind::Data);
        m.access(CoreId(0), 0x3_0000, NodeId(1), AccessKind::Data);
        let s = m.epoch_stats();
        assert_eq!(s.dram_local, 2);
        assert_eq!(s.dram_remote, 1);
        assert!((s.lar() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn overload_feedback_raises_remote_latency() {
        let mut m = system();
        // Hammer node 1's controller from node 0 for one epoch.
        let baseline = m
            .access(CoreId(0), 0x100_0000, NodeId(1), AccessKind::Data)
            .cycles;
        for i in 0..300_000u64 {
            m.access(
                CoreId(0),
                0x200_0000 + i * 4096,
                NodeId(1),
                AccessKind::Data,
            );
        }
        m.end_epoch(2_000_000);
        let loaded = m
            .access(CoreId(0), 0x900_0000, NodeId(1), AccessKind::Data)
            .cycles;
        assert!(
            loaded > baseline + 500,
            "loaded {loaded} vs baseline {baseline}"
        );
    }

    #[test]
    fn end_epoch_rolls_into_lifetime() {
        let mut m = system();
        m.access(CoreId(0), 0x5_0000, NodeId(0), AccessKind::Data);
        let s = m.end_epoch(1000);
        assert_eq!(s.dram_local, 1);
        assert_eq!(m.epoch_stats().dram_local, 0);
        assert_eq!(m.lifetime_stats().dram_local, 1);
    }

    #[test]
    fn outcome_components_are_attributed() {
        let mut m = system();
        // Cold: DRAM. Components must be consistent with the total and the
        // uncached/peek paths must agree with the access path's shape.
        let dram = m.access(CoreId(0), 0x50_0000, NodeId(1), AccessKind::Data);
        assert!(dram.dram());
        assert!(dram.inter > 0, "remote access crosses the interconnect");
        assert!(u64::from(dram.queue) + u64::from(dram.inter) <= u64::from(dram.cycles));
        // Warm: L1 hit. No DRAM-path components.
        let hit = m.access(CoreId(0), 0x50_0000, NodeId(1), AccessKind::Data);
        assert_eq!(hit.level, ServiceLevel::L1);
        assert_eq!((hit.queue, hit.inter), (0, 0));
        let peek = m.peek_uncached(CoreId(0), NodeId(1));
        let charged = m.access_uncached(CoreId(0), NodeId(1));
        assert_eq!(peek.inter, charged.inter);
        assert!(u64::from(charged.queue) + u64::from(charged.inter) <= u64::from(charged.cycles));
    }

    #[test]
    fn controller_request_counts_track_homes() {
        let mut m = system();
        m.access(CoreId(0), 0x6_0000, NodeId(1), AccessKind::Data);
        m.access(CoreId(0), 0x7_0000, NodeId(1), AccessKind::Data);
        m.access(CoreId(0), 0x8_0000, NodeId(0), AccessKind::Data);
        assert_eq!(m.controller_epoch_requests(), vec![1, 2]);
    }
}
