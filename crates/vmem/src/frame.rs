//! Per-node buddy frame allocator.

use crate::addr::{PhysAddr, PAGE_4K};
use crate::error::VmemError;
use crate::table::PageSize;
use numa_topology::{MachineSpec, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Highest buddy order: order 18 blocks are 4 KiB << 18 = 1 GiB.
const MAX_ORDER: u32 = 18;

/// Errors reported by the frame allocator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// No frame of the requested size is free on the requested node.
    OutOfMemory {
        /// The node that could not satisfy the allocation.
        node: NodeId,
    },
    /// No node in the whole machine could satisfy the allocation.
    OutOfMemoryEverywhere,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::OutOfMemory { node } => {
                write!(f, "out of physical memory on {node}")
            }
            FrameError::OutOfMemoryEverywhere => write!(f, "out of physical memory on all nodes"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One node's buddy allocator state.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct BuddyNode {
    /// `free[o]` holds the start addresses of free order-`o` blocks,
    /// ordered so allocation is deterministic (lowest address first).
    free: Vec<BTreeSet<u64>>,
    free_bytes: u64,
    total_bytes: u64,
}

impl BuddyNode {
    fn new(base: u64, bytes: u64) -> Self {
        let mut node = BuddyNode {
            free: vec![BTreeSet::new(); (MAX_ORDER + 1) as usize],
            free_bytes: 0,
            total_bytes: bytes,
        };
        // Carve the node's range into maximal naturally-aligned blocks.
        let mut addr = base;
        let end = base + bytes;
        while addr < end {
            let mut order = MAX_ORDER;
            loop {
                let size = PAGE_4K << order;
                if addr.is_multiple_of(size) && addr + size <= end {
                    break;
                }
                order -= 1;
            }
            node.free[order as usize].insert(addr);
            node.free_bytes += PAGE_4K << order;
            addr += PAGE_4K << order;
        }
        node
    }

    fn alloc(&mut self, order: u32) -> Option<u64> {
        // Find the smallest free block of at least the requested order.
        let mut o = order;
        while o <= MAX_ORDER && self.free[o as usize].is_empty() {
            o += 1;
        }
        if o > MAX_ORDER {
            return None;
        }
        let addr = *self.free[o as usize].iter().next()?;
        self.free[o as usize].remove(&addr);
        // Split down, returning the upper halves to the free lists.
        while o > order {
            o -= 1;
            let half = PAGE_4K << o;
            self.free[o as usize].insert(addr + half);
        }
        self.free_bytes -= PAGE_4K << order;
        Some(addr)
    }

    fn free(&mut self, mut addr: u64, order: u32) {
        let mut o = order;
        self.free_bytes += PAGE_4K << order;
        // Coalesce with the buddy while possible.
        while o < MAX_ORDER {
            let size = PAGE_4K << o;
            let buddy = addr ^ size;
            if self.free[o as usize].remove(&buddy) {
                addr = addr.min(buddy);
                o += 1;
            } else {
                break;
            }
        }
        let inserted = self.free[o as usize].insert(addr);
        debug_assert!(inserted, "double free of block {addr:#x} at order {o}");
    }
}

/// The machine-wide frame allocator: one buddy system per NUMA node.
///
/// Physical addresses are laid out node-major: node `n` owns the range
/// `[n * stride, n * stride + dram_bytes)`, so the home node of any physical
/// address is a single division. This mirrors how BIOS SRAT tables present
/// contiguous per-node ranges.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrameAllocator {
    nodes: Vec<BuddyNode>,
    stride: u64,
}

impl FrameAllocator {
    /// Builds an allocator covering all of `machine`'s DRAM.
    ///
    /// # Panics
    ///
    /// Panics if the machine spec has zero nodes; use
    /// [`FrameAllocator::try_new`] to handle that case as an error.
    pub fn new(machine: &MachineSpec) -> Self {
        Self::try_new(machine).unwrap_or_else(|e| panic!("cannot build frame allocator: {e}"))
    }

    /// Builds an allocator covering all of `machine`'s DRAM, reporting a
    /// machine with no nodes as [`VmemError::NoNodes`] instead of panicking.
    pub fn try_new(machine: &MachineSpec) -> Result<Self, VmemError> {
        let stride = machine
            .nodes()
            .iter()
            .map(|n| n.dram_bytes)
            .max()
            .ok_or(VmemError::NoNodes)?;
        let nodes = machine
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, spec)| BuddyNode::new(i as u64 * stride, spec.dram_bytes))
            .collect();
        Ok(FrameAllocator { nodes, stride })
    }

    /// Allocates a frame of `size` on exactly `node`.
    pub fn alloc(&mut self, node: NodeId, size: PageSize) -> Result<PhysAddr, FrameError> {
        self.nodes[node.index()]
            .alloc(size.order())
            .map(PhysAddr)
            .ok_or(FrameError::OutOfMemory { node })
    }

    /// Allocates on `preferred` if possible, otherwise falls back to the
    /// other nodes in increasing distance-agnostic order (round robin from
    /// the preferred node), matching Linux's default zonelist fallback.
    ///
    /// Returns the frame and the node that actually provided it.
    pub fn alloc_fallback(
        &mut self,
        preferred: NodeId,
        size: PageSize,
    ) -> Result<(PhysAddr, NodeId), FrameError> {
        let n = self.nodes.len();
        for i in 0..n {
            let node = NodeId::from((preferred.index() + i) % n);
            if let Some(addr) = self.nodes[node.index()].alloc(size.order()) {
                return Ok((PhysAddr(addr), node));
            }
        }
        Err(FrameError::OutOfMemoryEverywhere)
    }

    /// Frees a frame previously allocated at `size` granularity.
    ///
    /// A huge frame that was split (the 2 MiB region now backing 512 separate
    /// 4 KiB pages) is freed piecewise as 4 KiB frames; the buddy system
    /// coalesces the pieces back automatically.
    pub fn free(&mut self, addr: PhysAddr, size: PageSize) {
        let node = self.node_of(addr);
        self.nodes[node.index()].free(addr.0, size.order());
    }

    /// The home node of a physical address.
    #[inline]
    pub fn node_of(&self, addr: PhysAddr) -> NodeId {
        NodeId::from((addr.0 / self.stride) as usize)
    }

    /// Free bytes remaining on one node.
    pub fn free_bytes(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].free_bytes
    }

    /// Total bytes managed on one node.
    pub fn total_bytes(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].total_bytes
    }

    /// Number of nodes managed.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Every free block on `node` as `(start address, order)`, in address
    /// order within each order list (exposed for the invariant walker).
    pub fn free_blocks(&self, node: NodeId) -> Vec<(u64, u32)> {
        let mut blocks = Vec::new();
        for (order, list) in self.nodes[node.index()].free.iter().enumerate() {
            for &addr in list {
                blocks.push((addr, order as u32));
            }
        }
        blocks
    }

    /// Serializes the mutable allocator state (free lists and byte
    /// counters) for the `ckpt-v3` snapshot. The node layout (`stride`,
    /// per-node totals) is rebuilt from the machine spec by the caller.
    pub fn save_into(&self, e: &mut codec::Enc) {
        e.seq(self.nodes.iter(), |e, n| {
            e.seq(n.free.iter(), |e, list| {
                e.seq(list.iter(), |e, &addr| e.u64(addr));
            });
            e.u64(n.free_bytes);
            e.u64(n.total_bytes);
        });
    }

    /// Restores state captured by [`FrameAllocator::save_into`] onto an
    /// allocator freshly built for the same machine.
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        let n = d.usize();
        assert_eq!(n, self.nodes.len(), "checkpoint node count mismatch");
        for node in &mut self.nodes {
            let orders = d.usize();
            assert_eq!(orders, node.free.len(), "checkpoint buddy order mismatch");
            for list in &mut node.free {
                list.clear();
                let k = d.usize();
                for _ in 0..k {
                    list.insert(d.u64());
                }
            }
            node.free_bytes = d.u64();
            node.total_bytes = d.u64();
        }
    }

    /// Checks the buddy system's own invariants: every free block is
    /// naturally aligned, inside its node's range, disjoint from every
    /// other free block, and the per-node free-byte counters match the
    /// free lists exactly.
    pub fn validate(&self) -> Result<(), VmemError> {
        for (i, node) in self.nodes.iter().enumerate() {
            let base = i as u64 * self.stride;
            let end = base + node.total_bytes;
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            let mut sum: u64 = 0;
            for (order, list) in node.free.iter().enumerate() {
                let size = PAGE_4K << order;
                for &addr in list {
                    if !addr.is_multiple_of(size) {
                        return Err(VmemError::Invariant(format!(
                            "node {i}: free block {addr:#x} misaligned for order {order}"
                        )));
                    }
                    if addr < base || addr + size > end {
                        return Err(VmemError::Invariant(format!(
                            "node {i}: free block {addr:#x}+{size:#x} outside \
                             [{base:#x}, {end:#x})"
                        )));
                    }
                    intervals.push((addr, size));
                    sum += size;
                }
            }
            if sum != node.free_bytes {
                return Err(VmemError::Invariant(format!(
                    "node {i}: free lists hold {sum} bytes but free_bytes says {}",
                    node.free_bytes
                )));
            }
            if node.free_bytes > node.total_bytes {
                return Err(VmemError::Invariant(format!(
                    "node {i}: free_bytes {} exceeds total_bytes {}",
                    node.free_bytes, node.total_bytes
                )));
            }
            intervals.sort_unstable();
            for w in intervals.windows(2) {
                if w[0].0 + w[0].1 > w[1].0 {
                    return Err(VmemError::Invariant(format!(
                        "node {i}: free blocks {:#x}+{:#x} and {:#x} overlap",
                        w[0].0, w[0].1, w[1].0
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PAGE_1G, PAGE_2M};

    fn alloc_2node() -> FrameAllocator {
        FrameAllocator::new(&MachineSpec::test_machine()) // 1 GiB per node
    }

    #[test]
    fn fresh_allocator_is_fully_free() {
        let a = alloc_2node();
        assert_eq!(a.free_bytes(NodeId(0)), 1 << 30);
        assert_eq!(a.free_bytes(NodeId(1)), 1 << 30);
        assert_eq!(a.total_bytes(NodeId(0)), 1 << 30);
    }

    #[test]
    fn alloc_respects_node_ranges() {
        let mut a = alloc_2node();
        let f0 = a.alloc(NodeId(0), PageSize::Size4K).unwrap();
        let f1 = a.alloc(NodeId(1), PageSize::Size4K).unwrap();
        assert_eq!(a.node_of(f0), NodeId(0));
        assert_eq!(a.node_of(f1), NodeId(1));
        assert_ne!(f0, f1);
    }

    #[test]
    fn frames_are_naturally_aligned() {
        let mut a = alloc_2node();
        // Perturb the free lists first so alignment isn't trivially zero.
        let _ = a.alloc(NodeId(0), PageSize::Size4K).unwrap();
        let huge = a.alloc(NodeId(0), PageSize::Size2M).unwrap();
        assert!(huge.is_aligned(PAGE_2M), "got {huge}");
        // Node 1 is untouched, so its single 1 GiB block is still whole.
        let giant = a.alloc(NodeId(1), PageSize::Size1G).unwrap();
        assert!(giant.is_aligned(PAGE_1G), "got {giant}");
    }

    #[test]
    fn alloc_free_roundtrip_restores_free_bytes() {
        let mut a = alloc_2node();
        let before = a.free_bytes(NodeId(0));
        let f = a.alloc(NodeId(0), PageSize::Size2M).unwrap();
        assert_eq!(a.free_bytes(NodeId(0)), before - PAGE_2M);
        a.free(f, PageSize::Size2M);
        assert_eq!(a.free_bytes(NodeId(0)), before);
    }

    #[test]
    fn split_huge_frame_frees_piecewise_and_coalesces() {
        let mut a = alloc_2node();
        let huge = a.alloc(NodeId(0), PageSize::Size2M).unwrap();
        // Treat the 2 MiB frame as 512 separate 4 KiB frames and free them.
        for i in 0..512u64 {
            a.free(PhysAddr(huge.0 + i * PAGE_4K), PageSize::Size4K);
        }
        assert_eq!(a.free_bytes(NodeId(0)), 1 << 30);
        // The whole gibibyte must have coalesced back: a 1 GiB alloc works.
        assert!(a.alloc(NodeId(0), PageSize::Size1G).is_ok());
    }

    #[test]
    fn exhaustion_returns_out_of_memory() {
        let mut a = alloc_2node();
        let got = a.alloc(NodeId(0), PageSize::Size1G);
        assert!(got.is_ok());
        let err = a.alloc(NodeId(0), PageSize::Size1G).unwrap_err();
        assert_eq!(err, FrameError::OutOfMemory { node: NodeId(0) });
    }

    #[test]
    fn fallback_moves_to_next_node() {
        let mut a = alloc_2node();
        let _ = a.alloc(NodeId(0), PageSize::Size1G).unwrap();
        let (frame, node) = a.alloc_fallback(NodeId(0), PageSize::Size1G).unwrap();
        assert_eq!(node, NodeId(1));
        assert_eq!(a.node_of(frame), NodeId(1));
        // Now everything is gone.
        let err = a.alloc_fallback(NodeId(0), PageSize::Size1G).unwrap_err();
        assert_eq!(err, FrameError::OutOfMemoryEverywhere);
    }

    #[test]
    fn fragmentation_blocks_huge_allocations() {
        let mut a = alloc_2node();
        // Allocate every 4 KiB frame on node 0...
        let mut frames = Vec::new();
        while let Ok(f) = a.alloc(NodeId(0), PageSize::Size4K) {
            frames.push(f);
        }
        assert_eq!(a.free_bytes(NodeId(0)), 0);
        // ...then free every other one: half the memory is free but no 2 MiB
        // block can be built.
        for f in frames.iter().step_by(2) {
            a.free(*f, PageSize::Size4K);
        }
        assert_eq!(a.free_bytes(NodeId(0)), (1 << 30) / 2);
        assert!(a.alloc(NodeId(0), PageSize::Size2M).is_err());
        // Freeing the rest coalesces fully again.
        for f in frames.iter().skip(1).step_by(2) {
            a.free(*f, PageSize::Size4K);
        }
        assert!(a.alloc(NodeId(0), PageSize::Size1G).is_ok());
    }

    #[test]
    fn try_new_matches_new_on_real_machines() {
        // `MachineSpec` statically guarantees at least one node, so the
        // `NoNodes` branch is a defensive path; `try_new` must agree with
        // `new` everywhere a machine can actually exist.
        let a = FrameAllocator::try_new(&MachineSpec::test_machine()).unwrap();
        let b = FrameAllocator::new(&MachineSpec::test_machine());
        assert_eq!(a.free_bytes(NodeId(0)), b.free_bytes(NodeId(0)));
        assert_eq!(a.num_nodes(), b.num_nodes());
    }

    #[test]
    fn validate_accepts_live_states() {
        let mut a = alloc_2node();
        a.validate().unwrap();
        let f = a.alloc(NodeId(0), PageSize::Size2M).unwrap();
        let g = a.alloc(NodeId(1), PageSize::Size4K).unwrap();
        a.validate().unwrap();
        a.free(f, PageSize::Size2M);
        a.free(g, PageSize::Size4K);
        a.validate().unwrap();
    }

    #[test]
    fn validate_catches_corrupted_accounting() {
        let mut a = alloc_2node();
        a.nodes[0].free_bytes += 1;
        assert!(matches!(a.validate().unwrap_err(), VmemError::Invariant(_)));
    }

    #[test]
    fn free_blocks_cover_free_bytes() {
        let mut a = alloc_2node();
        let _ = a.alloc(NodeId(0), PageSize::Size2M).unwrap();
        let covered: u64 = a
            .free_blocks(NodeId(0))
            .iter()
            .map(|&(_, order)| PAGE_4K << order)
            .sum();
        assert_eq!(covered, a.free_bytes(NodeId(0)));
    }

    #[test]
    fn deterministic_allocation_order() {
        let mut a = alloc_2node();
        let mut b = alloc_2node();
        for _ in 0..100 {
            assert_eq!(
                a.alloc(NodeId(0), PageSize::Size4K).unwrap(),
                b.alloc(NodeId(0), PageSize::Size4K).unwrap()
            );
        }
    }
}
