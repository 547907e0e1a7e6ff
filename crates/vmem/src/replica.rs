//! Per-node replicas of page-table frames (the Mitosis mechanism).
//!
//! A [`ReplicaSet`] holds the copies of one primary table frame, at most
//! one per node; [`TableReplicas`] maps each replicated primary to its
//! set. Walkers resolve each walk step through their node's copy, and
//! structural writes to the primary fan out to every copy. Data pages are
//! never replicated: the paper's Carrefour migrates and interleaves only.

use crate::addr::PhysAddr;
use numa_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The replica frames of one primary table frame (primary excluded).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReplicaSet {
    /// `frames[n]` = the frame on node `n`, if one exists.
    frames: BTreeMap<u16, PhysAddr>,
}

impl ReplicaSet {
    /// The replica frame on `node`, if any.
    #[inline]
    pub fn on(&self, node: NodeId) -> Option<PhysAddr> {
        self.frames.get(&node.0).copied()
    }

    /// Records a replica frame for `node`.
    pub fn insert(&mut self, node: NodeId, frame: PhysAddr) {
        self.frames.insert(node.0, frame);
    }

    /// All `(node, frame)` pairs, for freeing on collapse.
    pub fn drain(&mut self) -> Vec<(NodeId, PhysAddr)> {
        std::mem::take(&mut self.frames)
            .into_iter()
            .map(|(n, f)| (NodeId(n), f))
            .collect()
    }

    /// Number of replica frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Per-node replicas of *page-table* frames (the Mitosis mechanism).
///
/// Mitosis (Achermann et al., ASPLOS '20) replicates the page table itself
/// onto every node so that walks never cross the interconnect. The
/// simulator keeps one [`ReplicaSet`] per primary table frame, keyed by
/// the frame's 4 KiB-aligned base; a walker on node `n` resolves each walk
/// step through its local copy when one exists. The primary table stays
/// authoritative — structural writes update every copy (the write-fanout
/// cost the address space charges via
/// [`crate::OpCostModel::table_replica_write`]).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TableReplicas {
    /// Primary table frame base → per-node replica frames.
    tables: BTreeMap<u64, ReplicaSet>,
    /// Lifetime count of table-replica creations.
    pub created: u64,
    /// Lifetime count of table-replica teardowns (frames freed).
    pub dropped: u64,
}

impl TableReplicas {
    /// Creates an empty table-replica map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any table frame is replicated (hot-path fast check).
    #[inline]
    pub fn any(&self) -> bool {
        !self.tables.is_empty()
    }

    /// Number of primary table frames that currently have replicas.
    pub fn replicated_tables(&self) -> usize {
        self.tables.len()
    }

    /// Resolves one walk-step PTE reference for a walker on `node`: the
    /// same entry offset inside the node's local replica frame when one
    /// exists, `None` otherwise (the walker reads the primary).
    #[inline]
    pub fn resolve_step(&self, pte_addr: PhysAddr, node: NodeId) -> Option<PhysAddr> {
        let base = pte_addr.0 & !(crate::addr::PAGE_4K - 1);
        self.tables
            .get(&base)
            .and_then(|set| set.on(node))
            .map(|replica| PhysAddr(replica.0 | (pte_addr.0 & (crate::addr::PAGE_4K - 1))))
    }

    /// Replica frames of the table at `base` (0 when unreplicated) — the
    /// write-fanout width of a structural update to that table.
    pub fn copies_of(&self, base: PhysAddr) -> usize {
        self.tables.get(&base.0).map_or(0, ReplicaSet::len)
    }

    /// Registers a replica of the table frame at `base` for `node`.
    pub fn add(&mut self, base: PhysAddr, node: NodeId, frame: PhysAddr) {
        self.tables.entry(base.0).or_default().insert(node, frame);
        self.created += 1;
    }

    /// Removes the replica set of the table at `base` (the primary was
    /// retired by a collapse, or rehomed), returning the frames to free.
    pub fn remove(&mut self, base: PhysAddr) -> Vec<(NodeId, PhysAddr)> {
        match self.tables.remove(&base.0) {
            Some(mut set) => {
                let freed = set.drain();
                self.dropped += freed.len() as u64;
                freed
            }
            None => Vec::new(),
        }
    }

    /// Serializes for the `ckpt-v3` snapshot (canonical BTreeMap order).
    pub fn save_into(&self, e: &mut codec::Enc) {
        e.seq(self.tables.iter(), |e, (&base, set)| {
            e.u64(base);
            e.seq(set.frames.iter(), |e, (&n, &f)| {
                e.u16(n);
                e.u64(f.0);
            });
        });
        e.u64(self.created);
        e.u64(self.dropped);
    }

    /// Restores state captured by [`TableReplicas::save_into`].
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        self.tables = d
            .seq(|d| {
                let base = d.u64();
                let frames = d
                    .seq(|d| (d.u16(), PhysAddr(d.u64())))
                    .into_iter()
                    .collect();
                (base, ReplicaSet { frames })
            })
            .into_iter()
            .collect();
        self.created = d.u64();
        self.dropped = d.u64();
    }

    /// Visits every replica frame as `(primary base, node, frame)` (for
    /// the invariant walker — replica frames are live allocations the page
    /// table does not know about).
    pub fn for_each_frame(&self, mut f: impl FnMut(PhysAddr, NodeId, PhysAddr)) {
        for (&base, set) in &self.tables {
            for (&node, &frame) in &set.frames {
                f(PhysAddr(base), NodeId(node), frame);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_replicas_resolve_steps_inside_the_replica_frame() {
        let mut t = TableReplicas::new();
        assert!(!t.any());
        let primary = PhysAddr(0x40_0000);
        t.add(primary, NodeId(1), PhysAddr(0x80_1000));
        assert!(t.any());
        assert_eq!(t.copies_of(primary), 1);
        // A PTE read at offset 0x2a8 inside the primary frame resolves to
        // the same offset inside node 1's replica.
        let resolved = t.resolve_step(PhysAddr(0x40_02a8), NodeId(1)).unwrap();
        assert_eq!(resolved, PhysAddr(0x80_12a8));
        // A node without a replica reads the primary.
        assert!(t.resolve_step(PhysAddr(0x40_02a8), NodeId(2)).is_none());
        // An unreplicated table resolves to nothing.
        assert!(t.resolve_step(PhysAddr(0x99_9000), NodeId(1)).is_none());
    }

    #[test]
    fn table_replica_removal_returns_frames_and_counts() {
        let mut t = TableReplicas::new();
        let primary = PhysAddr(0x40_0000);
        t.add(primary, NodeId(1), PhysAddr(0x80_1000));
        t.add(primary, NodeId(2), PhysAddr(0x80_2000));
        assert_eq!(t.created, 2);
        let freed = t.remove(primary);
        assert_eq!(freed.len(), 2);
        assert_eq!(t.dropped, 2);
        assert!(!t.any());
        assert!(t.remove(primary).is_empty(), "idempotent");
    }
}
