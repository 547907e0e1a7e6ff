//! The cache hierarchy: per-core L1/L2, per-node shared L3.

use crate::cache::SetAssocCache;
use crate::config::MemSysConfig;
use numa_topology::{CoreId, MachineSpec, NodeId};
use serde::{Deserialize, Serialize};

/// Where a memory access was serviced.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ServiceLevel {
    /// Hit in the core's L1 data cache.
    L1,
    /// Hit in the core's L2 cache.
    L2,
    /// Hit in the node's shared L3 cache.
    L3,
    /// Missed all caches; serviced from DRAM.
    Dram,
}

/// The full cache hierarchy of a machine.
///
/// Mirrors the AMD Opteron layout the paper ran on: private L1d and L2 per
/// core, one shared L3 per NUMA node. Caches are mostly-inclusive: a fill
/// from DRAM installs the line at every level on the access path.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CacheHierarchy {
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    l3: Vec<SetAssocCache>,
}

impl CacheHierarchy {
    /// Builds the hierarchy for `machine` using the geometries in `config`.
    pub fn new(machine: &MachineSpec, config: &MemSysConfig) -> Self {
        let cores = machine.total_cores();
        let nodes = machine.num_nodes();
        let mk =
            |g: &crate::config::CacheGeometry| SetAssocCache::new(g.sets, g.ways, g.line_bytes);
        CacheHierarchy {
            l1: (0..cores).map(|_| mk(&config.l1)).collect(),
            l2: (0..cores).map(|_| mk(&config.l2)).collect(),
            l3: (0..nodes).map(|_| mk(&config.l3)).collect(),
        }
    }

    /// Looks up `paddr` on behalf of `core` (whose node is `node`), filling
    /// lines on the way back. Returns the level that serviced the access.
    #[inline]
    pub fn access(&mut self, core: CoreId, node: NodeId, paddr: u64) -> ServiceLevel {
        if self.l1[core.index()].access(paddr) {
            return ServiceLevel::L1;
        }
        if self.l2[core.index()].access(paddr) {
            return ServiceLevel::L2;
        }
        if self.l3[node.index()].access(paddr) {
            return ServiceLevel::L3;
        }
        ServiceLevel::Dram
    }

    /// Adds `n` L1 hits for `core` without probing: the bulk-charge
    /// primitive for stable (MRU) hits, whose replay is a pure counter
    /// increment.
    #[inline]
    pub fn add_l1_hits(&mut self, core: CoreId, n: u64) {
        self.l1[core.index()].add_hits(n);
    }

    /// Invalidates a line everywhere (models the coherence shootdown after a
    /// page migration rewrites its physical frame).
    pub fn invalidate_everywhere(&mut self, paddr: u64) {
        for c in &mut self.l1 {
            c.invalidate(paddr);
        }
        for c in &mut self.l2 {
            c.invalidate(paddr);
        }
        for c in &mut self.l3 {
            c.invalidate(paddr);
        }
    }

    /// Lifetime L2 miss count summed over all cores.
    pub fn l2_misses(&self) -> u64 {
        self.l2.iter().map(SetAssocCache::misses).sum()
    }

    /// Lifetime L2 access count summed over all cores.
    pub fn l2_accesses(&self) -> u64 {
        self.l2.iter().map(|c| c.hits() + c.misses()).sum()
    }

    /// Serializes every cache's tag state and counters.
    pub fn save_into(&self, e: &mut codec::Enc) {
        for level in [&self.l1, &self.l2, &self.l3] {
            e.seq(level.iter(), |e, c| c.save_into(e));
        }
    }

    /// Restores state captured by [`CacheHierarchy::save_into`] onto a
    /// hierarchy built for the same machine and config.
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        for level in [&mut self.l1, &mut self.l2, &mut self.l3] {
            let n = d.usize();
            assert_eq!(n, level.len(), "checkpoint cache hierarchy shape");
            for c in level.iter_mut() {
                c.load_from(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MachineSpec, CacheHierarchy) {
        let m = MachineSpec::test_machine();
        let h = CacheHierarchy::new(&m, &MemSysConfig::scaled_default(1));
        (m, h)
    }

    #[test]
    fn cold_access_reaches_dram_then_warms_all_levels() {
        let (_, mut h) = setup();
        let core = CoreId(0);
        let node = NodeId(0);
        assert_eq!(h.access(core, node, 0x4000), ServiceLevel::Dram);
        assert_eq!(h.access(core, node, 0x4000), ServiceLevel::L1);
    }

    #[test]
    fn sibling_core_hits_shared_l3() {
        let (m, mut h) = setup();
        let c0 = CoreId(0);
        let c1 = CoreId(1); // same node as core 0 on the test machine
        assert_eq!(m.node_of_core(c0), m.node_of_core(c1));
        let node = m.node_of_core(c0);
        h.access(c0, node, 0x8000);
        // Core 1 misses its private L1/L2 but hits the node's L3.
        assert_eq!(h.access(c1, node, 0x8000), ServiceLevel::L3);
    }

    #[test]
    fn remote_core_has_its_own_l3() {
        let (m, mut h) = setup();
        let c0 = CoreId(0);
        let c2 = CoreId(2); // other node on the test machine
        let n0 = m.node_of_core(c0);
        let n1 = m.node_of_core(c2);
        assert_ne!(n0, n1);
        h.access(c0, n0, 0xc000);
        assert_eq!(h.access(c2, n1, 0xc000), ServiceLevel::Dram);
    }

    #[test]
    fn invalidate_everywhere_forces_dram() {
        let (_, mut h) = setup();
        let core = CoreId(0);
        let node = NodeId(0);
        h.access(core, node, 0x1234);
        h.invalidate_everywhere(0x1234);
        assert_eq!(h.access(core, node, 0x1234), ServiceLevel::Dram);
    }

    #[test]
    fn l2_miss_counting() {
        let (_, mut h) = setup();
        let core = CoreId(0);
        let node = NodeId(0);
        assert_eq!(h.l2_misses(), 0);
        h.access(core, node, 0x0);
        assert_eq!(h.l2_misses(), 1);
        assert_eq!(h.l2_accesses(), 1);
        h.access(core, node, 0x0); // L1 hit: no L2 access
        assert_eq!(h.l2_accesses(), 1);
    }
}
