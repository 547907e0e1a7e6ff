//! The address space: VMAs, demand faulting, THP, and page operations.

use crate::addr::{PhysAddr, VirtAddr, PAGE_1G, PAGE_2M, PAGE_4K};
use crate::error::VmemError;
use crate::frame::{FrameAllocator, FrameError};
use crate::ops::{OpCost, OpCostModel};
use crate::replica::TableReplicas;
use crate::table::{Mapping, PageSize, PageTable, TableError, WalkCache, WalkResult, WalkStep};
use crate::tlb::TlbConfig;
use numa_topology::{MachineSpec, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from address-space operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpaceError {
    /// The address is not inside any mapped region.
    NoRegion,
    /// The address is already mapped.
    AlreadyMapped,
    /// Expected a mapping (of a particular shape) and found none.
    NotMapped,
    /// Physical memory exhausted.
    Frame(FrameError),
    /// Regions must not overlap and must be aligned.
    BadRegion,
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::NoRegion => write!(f, "address outside every region"),
            SpaceError::AlreadyMapped => write!(f, "address already mapped"),
            SpaceError::NotMapped => write!(f, "no mapping in the expected state"),
            SpaceError::Frame(e) => write!(f, "frame allocation failed: {e}"),
            SpaceError::BadRegion => write!(f, "invalid region"),
        }
    }
}

impl std::error::Error for SpaceError {}

impl From<FrameError> for SpaceError {
    fn from(e: FrameError) -> Self {
        SpaceError::Frame(e)
    }
}

impl From<TableError> for SpaceError {
    fn from(e: TableError) -> Self {
        match e {
            TableError::AlreadyMapped => SpaceError::AlreadyMapped,
            TableError::NotMappedAsExpected => SpaceError::NotMapped,
            TableError::Frame(f) => SpaceError::Frame(f),
        }
    }
}

/// Runtime-tunable THP switches — exactly the knobs Algorithm 1 toggles.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ThpControls {
    /// Back new anonymous faults with 2 MiB pages when possible
    /// (`/sys/.../transparent_hugepage/enabled`).
    pub alloc_2m: bool,
    /// Let the promotion scanner collapse aligned small-page runs
    /// (khugepaged).
    pub promote_2m: bool,
    /// Back new faults with 1 GiB pages when possible (the libhugetlbfs-style
    /// configuration of Section 4.4).
    pub alloc_1g: bool,
}

impl ThpControls {
    /// Linux with THP enabled (the paper's "THP" configuration).
    pub fn thp() -> Self {
        ThpControls {
            alloc_2m: true,
            promote_2m: true,
            alloc_1g: false,
        }
    }

    /// Linux with 4 KiB pages only (the paper's baseline).
    pub fn small_only() -> Self {
        ThpControls {
            alloc_2m: false,
            promote_2m: false,
            alloc_1g: false,
        }
    }

    /// 1 GiB pages wherever possible (Section 4.4).
    pub fn giant() -> Self {
        ThpControls {
            alloc_2m: true,
            promote_2m: false,
            alloc_1g: true,
        }
    }
}

/// Configuration of the virtual-memory subsystem.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct VmemConfig {
    /// TLB geometry used for the per-core TLBs.
    pub tlb: TlbConfig,
    /// Cost model for faults and page operations.
    pub costs: OpCostModel,
    /// Initial THP switches.
    pub thp: ThpControls,
}

impl Default for VmemConfig {
    fn default() -> Self {
        VmemConfig {
            tlb: TlbConfig::default(),
            costs: OpCostModel::default(),
            thp: ThpControls::thp(),
        }
    }
}

/// Lifetime statistics of one address space.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmemStats {
    /// Demand faults that installed a 4 KiB page.
    pub faults_4k: u64,
    /// Demand faults that installed a 2 MiB page.
    pub faults_2m: u64,
    /// Demand faults that installed a 1 GiB page.
    pub faults_1g: u64,
    /// Pages migrated, by size.
    pub migrations_4k: u64,
    /// 2 MiB pages migrated whole.
    pub migrations_2m: u64,
    /// Huge/giant pages split.
    pub splits: u64,
    /// Small-page runs collapsed into huge pages.
    pub collapses: u64,
    /// Bytes copied by migrations and collapses.
    pub bytes_copied: u64,
    /// Page-table frames replicated onto other nodes (Mitosis).
    pub table_replications: u64,
    /// Page-table frames migrated toward their walkers (numaPTE).
    pub table_migrations: u64,
}

/// The outcome of a successful demand fault.
#[derive(Clone, Copy, Debug)]
pub struct FaultOutcome {
    /// The freshly installed mapping.
    pub mapping: Mapping,
    /// Cycles consumed in the fault handler (excluding lock contention,
    /// which the engine adds since it knows how many threads are faulting).
    pub cycles: OpCost,
}

/// A registered anonymous memory region.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct Region {
    base: u64,
    len: u64,
}

/// One process's address space on one machine.
///
/// Owns the machine's frame allocator and the page table; the engine owns
/// the per-core TLBs (they are per-CPU state, not per-address-space).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AddressSpace {
    frames: FrameAllocator,
    table: PageTable,
    regions: Vec<Region>,
    thp: ThpControls,
    costs: OpCostModel,
    stats: VmemStats,
    total_cores: usize,
    /// khugepaged scan cursor (virtual address of the next 2 MiB candidate).
    scan_cursor: u64,
    /// 2 MiB ranges deliberately split by policy: khugepaged must not
    /// re-collapse them (Linux's `MADV_NOHUGEPAGE` marking) until promotion
    /// is explicitly re-enabled.
    no_promote: std::collections::BTreeSet<u64>,
    /// Per-node replicas of page-table frames (the Mitosis mechanism).
    table_replicas: TableReplicas,
    /// When nonzero, every newly created table frame is eagerly replicated
    /// onto all `eager_table_nodes` nodes (set by
    /// [`AddressSpace::replicate_tables`], persisted so faults after the
    /// initial sweep stay covered).
    eager_table_nodes: usize,
}

impl AddressSpace {
    /// Creates an empty address space for `machine`.
    ///
    /// # Panics
    ///
    /// Panics if the machine has no nodes or not even the page-table root
    /// can be allocated (a machine with no memory); use
    /// [`AddressSpace::try_new`] to handle those cases as errors.
    pub fn new(machine: &MachineSpec, config: VmemConfig) -> Self {
        Self::try_new(machine, config).unwrap_or_else(|e| panic!("cannot build address space: {e}"))
    }

    /// Creates an empty address space for `machine`, reporting an unusable
    /// machine spec (no nodes, no memory for the root table) as a typed
    /// error instead of panicking.
    pub fn try_new(machine: &MachineSpec, config: VmemConfig) -> Result<Self, VmemError> {
        let mut frames = FrameAllocator::try_new(machine)?;
        let table = PageTable::new(&mut frames, NodeId(0)).map_err(VmemError::Table)?;
        Ok(AddressSpace {
            frames,
            table,
            regions: Vec::new(),
            thp: config.thp,
            costs: config.costs,
            stats: VmemStats::default(),
            total_cores: machine.total_cores(),
            scan_cursor: 0,
            no_promote: std::collections::BTreeSet::new(),
            table_replicas: TableReplicas::new(),
            eager_table_nodes: 0,
        })
    }

    /// Registers an anonymous region at `[base, base + len)`.
    ///
    /// `base` must be 1 GiB-aligned (so the region can hold pages of every
    /// size) and `len` a positive multiple of 4 KiB; regions must not
    /// overlap.
    pub fn map_region(&mut self, base: u64, len: u64) -> Result<(), SpaceError> {
        if !base.is_multiple_of(PAGE_1G) || len == 0 || !len.is_multiple_of(PAGE_4K) {
            return Err(SpaceError::BadRegion);
        }
        let overlaps = self
            .regions
            .iter()
            .any(|r| base < r.base + r.len && r.base < base + len);
        if overlaps {
            return Err(SpaceError::BadRegion);
        }
        self.regions.push(Region { base, len });
        Ok(())
    }

    fn region_of(&self, vaddr: VirtAddr) -> Option<Region> {
        self.regions
            .iter()
            .copied()
            .find(|r| vaddr.0 >= r.base && vaddr.0 < r.base + r.len)
    }

    /// Fast-path translation (no walk simulation).
    #[inline]
    pub fn translate(&self, vaddr: VirtAddr) -> Option<Mapping> {
        self.table.translate(vaddr)
    }

    /// Whether any page-table frame is replicated (hot-path fast check
    /// before per-step walk resolution).
    #[inline]
    pub fn has_table_replicas(&self) -> bool {
        self.table_replicas.any()
    }

    /// Number of table frames that currently carry replicas.
    pub fn replicated_table_frames(&self) -> usize {
        self.table_replicas.replicated_tables()
    }

    /// Resolves one walk step for a walker on `node`: when the referenced
    /// table frame has a replica on `node`, the step reads the local copy
    /// (same entry offset, local frame, local home); otherwise the primary.
    #[inline]
    pub fn resolve_table_step(&self, step: WalkStep, node: NodeId) -> WalkStep {
        match self.table_replicas.resolve_step(step.pte_addr, node) {
            Some(pte_addr) => WalkStep { pte_addr, node },
            None => step,
        }
    }

    /// Write-fanout cost of one structural table write at `vaddr`: the
    /// per-copy charge times the replica count of the table the write
    /// lands in. Zero whenever no table is replicated — existing policies
    /// pay nothing.
    fn table_fanout_cost(&self, vaddr: VirtAddr) -> OpCost {
        if !self.table_replicas.any() {
            return 0;
        }
        let table = self.table.deepest_table_frame(vaddr);
        self.costs
            .table_write_fanout(self.table_replicas.copies_of(table))
    }

    /// Replicates every table frame created since `arena_before` onto all
    /// eager nodes (no-op unless eager replication is on). Alloc failures
    /// skip the node — the walk simply keeps reading the primary there.
    fn replicate_new_tables(&mut self, arena_before: usize) -> OpCost {
        if self.eager_table_nodes == 0 {
            return 0;
        }
        let mut cost: OpCost = 0;
        for idx in arena_before..self.table.arena_len() {
            let (base, home) = self.table.table_frame(idx);
            for n in 0..self.eager_table_nodes {
                let node = NodeId::from(n);
                if node == home {
                    continue;
                }
                let Ok(frame) = self.frames.alloc(node, PageSize::Size4K) else {
                    continue;
                };
                self.table_replicas.add(base, node, frame);
                self.stats.table_replications += 1;
                self.stats.bytes_copied += PAGE_4K;
                cost += self.costs.migrate(PageSize::Size4K, 0);
            }
        }
        cost
    }

    /// Eagerly replicates every root-reachable page-table frame onto each
    /// of the machine's `num_nodes` nodes and turns on eager replication
    /// for tables created later (Mitosis). Frames are allocated strictly
    /// on the replica's node; a node with no free frame is skipped and
    /// retried on the next call. Returns `(copies created, cycles)`.
    pub fn replicate_tables(&mut self, num_nodes: usize) -> (u64, OpCost) {
        self.eager_table_nodes = num_nodes;
        let mut created: u64 = 0;
        let mut cost: OpCost = 0;
        for (base, home) in self.table.reachable_table_frames() {
            for n in 0..num_nodes {
                let node = NodeId::from(n);
                if node == home || self.table_replicas.resolve_step(base, node).is_some() {
                    continue;
                }
                let Ok(frame) = self.frames.alloc(node, PageSize::Size4K) else {
                    continue;
                };
                self.table_replicas.add(base, node, frame);
                self.stats.table_replications += 1;
                self.stats.bytes_copied += PAGE_4K;
                created += 1;
                cost += self.costs.migrate(PageSize::Size4K, 0);
            }
        }
        (created, cost)
    }

    /// Migrates the deepest non-root table page on the walk path of
    /// `vaddr` to `target` (numaPTE): the PTE page moves toward its
    /// walkers, the translations it holds stay put. A table already homed
    /// on `target` is a free no-op. Replicas of the old frame (if any) are
    /// torn down — the primary moved under them.
    ///
    /// Returns `(Some(old_home), cycles)` when the table moved, `(None, 0)`
    /// when it was already on `target`; the caller must flush walk caches
    /// via the generation bump this performs (and need not shoot down data
    /// TLBs — leaf translations are unchanged).
    pub fn migrate_table(
        &mut self,
        vaddr: VirtAddr,
        target: NodeId,
    ) -> Result<(Option<NodeId>, OpCost), SpaceError> {
        // Locate the deepest table without mutating: rehome wants a fresh
        // frame on `target` first, and allocation may fail.
        let probe = self.table.walk(vaddr);
        if probe.steps().len() < 2 {
            return Err(SpaceError::NotMapped);
        }
        let deepest = *probe.steps().last().unwrap();
        if deepest.node == target {
            return Ok((None, 0));
        }
        let new_frame = self.frames.alloc(target, PageSize::Size4K)?;
        let (old_base, old_node) = self
            .table
            .rehome_deepest_table(vaddr, new_frame, target)
            .inspect_err(|_| self.frames.free(new_frame, PageSize::Size4K))?;
        self.frames.free(old_base, PageSize::Size4K);
        for (_, frame) in self.table_replicas.remove(old_base) {
            self.frames.free(frame, PageSize::Size4K);
        }
        self.stats.table_migrations += 1;
        self.stats.bytes_copied += PAGE_4K;
        Ok((
            Some(old_node),
            self.costs.migrate(PageSize::Size4K, self.total_cores),
        ))
    }

    /// Simulated hardware walk (physical PTE references included).
    #[inline]
    pub fn walk(&self, vaddr: VirtAddr) -> WalkResult {
        self.table.walk(vaddr)
    }

    /// Like [`AddressSpace::walk`], but memoized through `cache` (see
    /// [`WalkCache`]): bit-identical steps and mapping, no radix traversal
    /// on a hit. The cache self-invalidates when the table's structural
    /// generation moves (split / collapse / migrate).
    #[inline]
    pub fn walk_cached(&self, vaddr: VirtAddr, cache: &mut WalkCache) -> WalkResult {
        self.table.walk_cached(vaddr, cache)
    }

    /// Whether a page of `size` covering `vaddr` would lie entirely inside
    /// the region containing `vaddr`.
    ///
    /// Giant (1 GiB) pages are exempt from the tail check: libhugetlbfs
    /// reserves mappings as whole gigabyte pages, so a region shorter than
    /// 1 GiB is still backed by one giant page whose tail is simply never
    /// touched (regions are 1 GiB-aligned by construction).
    fn size_fits(&self, region: Region, vaddr: VirtAddr, size: PageSize) -> bool {
        let pbase = vaddr.align_down(size.bytes()).0;
        if size == PageSize::Size1G {
            return pbase >= region.base;
        }
        pbase >= region.base && pbase + size.bytes() <= region.base + region.len
    }

    /// Handles a demand fault at `vaddr` from a thread on `node`.
    ///
    /// Placement is first-touch with fallback; page size is the largest
    /// enabled size that fits the region and for which a frame is free
    /// on the preferred node (falling back to smaller sizes before falling
    /// back to remote nodes, matching THP's behaviour).
    pub fn fault(&mut self, vaddr: VirtAddr, node: NodeId) -> Result<FaultOutcome, SpaceError> {
        let region = self.region_of(vaddr).ok_or(SpaceError::NoRegion)?;
        if self.table.translate(vaddr).is_some() {
            return Err(SpaceError::AlreadyMapped);
        }
        let arena_before = self.table.arena_len();

        let mut candidates: Vec<PageSize> = Vec::with_capacity(3);
        if self.thp.alloc_1g {
            candidates.push(PageSize::Size1G);
        }
        if self.thp.alloc_2m {
            candidates.push(PageSize::Size2M);
        }
        candidates.push(PageSize::Size4K);

        for size in candidates {
            if !self.size_fits(region, vaddr, size) {
                continue;
            }
            let vbase = vaddr.align_down(size.bytes());
            // A larger page may be blocked by an existing smaller mapping
            // within its range (partial population): only take it if the
            // whole range is empty. Checking the base is sufficient for our
            // workloads' forward-touch patterns, but stay exact: scan leaf
            // presence via translate of each child base would be O(512), so
            // approximate with the two ends plus the faulting page.
            let probes = [
                vbase,
                VirtAddr(vbase.0 + size.bytes() - PAGE_4K),
                vaddr.align_down(PAGE_4K),
            ];
            if probes.iter().any(|&p| self.table.translate(p).is_some()) {
                continue;
            }
            let got = if size == PageSize::Size4K {
                // Small pages may fall back to remote nodes.
                self.frames.alloc_fallback(node, size).ok()
            } else {
                // Huge pages are only taken when available locally; otherwise
                // THP falls back to smaller sizes (no remote huge pages at
                // fault time, as in Linux's default `defrag` behaviour).
                self.frames.alloc(node, size).ok().map(|f| (f, node))
            };
            let Some((frame, got_node)) = got else {
                if size == PageSize::Size4K {
                    return Err(SpaceError::Frame(FrameError::OutOfMemoryEverywhere));
                }
                continue;
            };
            let mapping = Mapping {
                vbase,
                frame,
                node: got_node,
                size,
            };
            if let Err(e) = self.table.map(mapping, &mut self.frames, got_node) {
                if matches!(e, TableError::AlreadyMapped) && size != PageSize::Size4K {
                    // The three-point probe above is a heuristic: a small
                    // page elsewhere in the range defeats a huge mapping.
                    // Give the frame back and fall through to smaller sizes.
                    self.frames.free(frame, size);
                    continue;
                }
                return Err(e.into());
            }
            match size {
                PageSize::Size4K => self.stats.faults_4k += 1,
                PageSize::Size2M => self.stats.faults_2m += 1,
                PageSize::Size1G => self.stats.faults_1g += 1,
            }
            // Under eager table replication (Mitosis), tables created for
            // this fault gain per-node copies, and the PTE install itself
            // fans out to every copy of the table it lands in. Both terms
            // are zero for every non-Mitosis configuration.
            let replicate = self.replicate_new_tables(arena_before);
            let fanout = self.table_fanout_cost(vaddr);
            return Ok(FaultOutcome {
                mapping,
                cycles: self.costs.fault(size, 0) + replicate + fanout,
            });
        }
        Err(SpaceError::NoRegion)
    }

    /// Migrates the page covering `vaddr` to `target`, copying it into a
    /// fresh frame there. Fails (leaving the page in place) if `target` has
    /// no free frame of the right size.
    ///
    /// Returns the old mapping and the cycles consumed; the caller must
    /// shoot down TLB entries for `old.vbase`.
    pub fn migrate(
        &mut self,
        vaddr: VirtAddr,
        target: NodeId,
    ) -> Result<(Mapping, OpCost), SpaceError> {
        let m = self.table.translate(vaddr).ok_or(SpaceError::NotMapped)?;
        if m.node == target {
            return Ok((m, 0));
        }
        let new_frame = self.frames.alloc(target, m.size)?;
        let old = self.table.remap(m.vbase, new_frame, target)?;
        self.frames.free(old.frame, old.size);
        match m.size {
            PageSize::Size4K => self.stats.migrations_4k += 1,
            _ => self.stats.migrations_2m += 1,
        }
        self.stats.bytes_copied += m.size.bytes();
        // The PTE rewrite fans out to every replica of the holding table.
        let fanout = self.table_fanout_cost(m.vbase);
        Ok((old, self.costs.migrate(m.size, self.total_cores) + fanout))
    }

    /// Splits the huge or giant page covering `vaddr` into 512 pages of the
    /// next smaller size (no copy). Returns the pre-split mapping and the
    /// cycles consumed; the caller must shoot down TLB entries for it.
    pub fn split(&mut self, vaddr: VirtAddr) -> Result<(Mapping, OpCost), SpaceError> {
        // The split rewrites an entry in the deepest pre-split table: that
        // write fans out to the table's replicas, and the fresh child
        // table gains eager replicas of its own (both zero unless table
        // replication is on).
        let parent_fanout = self.table_fanout_cost(vaddr);
        let arena_before = self.table.arena_len();
        let old = self.table.split(vaddr, &mut self.frames)?;
        self.stats.splits += 1;
        // A deliberately-split page must not be immediately re-collapsed by
        // khugepaged (the kernel marks it, as with MADV_NOHUGEPAGE).
        if old.size == PageSize::Size2M {
            self.no_promote.insert(old.vbase.0);
        }
        let replicate = self.replicate_new_tables(arena_before);
        Ok((
            old,
            self.costs.split(self.total_cores) + parent_fanout + replicate,
        ))
    }

    /// Collapses the 2 MiB-aligned run of 512 small pages at `vbase` into
    /// one huge page on `target` (khugepaged). Returns the cycles consumed;
    /// the caller must shoot down TLB entries for the 512 old pages.
    pub fn collapse(&mut self, vbase: VirtAddr, target: NodeId) -> Result<OpCost, SpaceError> {
        let new_frame = self.frames.alloc(target, PageSize::Size2M)?;
        match self
            .table
            .collapse(vbase, PageSize::Size2M, new_frame, target)
        {
            Ok(out) => {
                for m in &out.old_children {
                    self.frames.free(m.frame, m.size);
                }
                self.frames.free(out.table_frame, PageSize::Size4K);
                // The retired PT's replicas die with it, and the huge-leaf
                // install fans out to the parent table's replicas.
                for (_, frame) in self.table_replicas.remove(out.table_frame) {
                    self.frames.free(frame, PageSize::Size4K);
                }
                let fanout = self.table_fanout_cost(vbase);
                self.stats.collapses += 1;
                self.stats.bytes_copied += PAGE_2M;
                Ok(self.costs.collapse(PageSize::Size2M, self.total_cores) + fanout)
            }
            Err(e) => {
                self.frames.free(new_frame, PageSize::Size2M);
                Err(e.into())
            }
        }
    }

    /// One khugepaged scan step: examines up to `max_candidates` aligned
    /// 2 MiB ranges (resuming where the last scan stopped) and collapses the
    /// fully-populated, promotion-eligible ones onto their majority node.
    ///
    /// Returns the collapsed bases and the cycles consumed.
    pub fn promotion_scan(&mut self, max_candidates: usize) -> (Vec<VirtAddr>, OpCost) {
        if !self.thp.promote_2m {
            return (Vec::new(), 0);
        }
        let mut collapsed = Vec::new();
        let mut cycles: OpCost = 0;
        // Gather candidate 2 MiB bases lazily: visit leaves in place and
        // group — no intermediate Vec of every mapping (this scan runs at
        // every epoch boundary, and 4 KiB-heavy workloads have hundreds of
        // thousands of leaves).
        let mut groups: std::collections::BTreeMap<u64, (usize, Vec<NodeId>)> =
            std::collections::BTreeMap::new();
        self.table.for_each_leaf(|m| {
            if m.size == PageSize::Size4K {
                let base = m.vbase.align_down(PAGE_2M).0;
                let e = groups.entry(base).or_insert_with(|| (0, Vec::new()));
                e.0 += 1;
                e.1.push(m.node);
            }
        });
        let mut window: Vec<(u64, usize, NodeId)> = Vec::with_capacity(max_candidates + 1);
        for (base, (count, nodes)) in groups.range(self.scan_cursor..) {
            if window.len() > max_candidates {
                break;
            }
            window.push((*base, *count, majority_node(nodes)));
        }
        drop(groups);
        if window.len() > max_candidates {
            // Remember where to resume; the extra element marks the cursor.
            if let Some((resume, _, _)) = window.pop() {
                self.scan_cursor = resume;
            }
        } else {
            // Wrapped around the end: restart from the beginning next time.
            self.scan_cursor = 0;
        }
        for (base, count, target) in window {
            if count != 512 || self.no_promote.contains(&base) {
                continue;
            }
            match self.collapse(VirtAddr(base), target) {
                Ok(c) => {
                    cycles += c;
                    collapsed.push(VirtAddr(base));
                }
                Err(_) => continue, // no huge frame free: skip, retry later
            }
        }
        (collapsed, cycles)
    }

    /// Current THP switches.
    #[inline]
    pub fn thp(&self) -> ThpControls {
        self.thp
    }

    /// Mutable THP switches (the knobs Algorithm 1 toggles).
    #[inline]
    pub fn thp_mut(&mut self) -> &mut ThpControls {
        &mut self.thp
    }

    /// Clears the per-range promotion inhibitions (called when promotion is
    /// explicitly re-enabled: Algorithm 1 line 6 means "promote again").
    pub fn clear_promote_inhibitions(&mut self) {
        self.no_promote.clear();
    }

    /// Lifetime statistics.
    #[inline]
    pub fn stats(&self) -> &VmemStats {
        &self.stats
    }

    /// The cost model in use.
    #[inline]
    pub fn costs(&self) -> &OpCostModel {
        &self.costs
    }

    /// All leaf mappings in virtual-address order.
    pub fn leaves(&self) -> Vec<Mapping> {
        self.table.leaves()
    }

    /// Visits every leaf mapping without allocating.
    pub fn for_each_leaf(&self, f: impl FnMut(&Mapping)) {
        self.table.for_each_leaf(f)
    }

    /// Bytes of physical memory consumed by page tables.
    pub fn table_bytes(&self) -> u64 {
        self.table.table_bytes()
    }

    /// Free bytes on a node (exposed for tests and policies).
    pub fn free_bytes(&self, node: NodeId) -> u64 {
        self.frames.free_bytes(node)
    }

    /// Allocates a raw physical frame without mapping it (experiment setup:
    /// pinned buffers, deliberate fragmentation).
    pub fn alloc_frame(
        &mut self,
        node: NodeId,
        size: PageSize,
    ) -> Result<crate::addr::PhysAddr, SpaceError> {
        Ok(self.frames.alloc(node, size)?)
    }

    /// Frees a raw frame taken with [`AddressSpace::alloc_frame`].
    pub fn free_frame(&mut self, frame: crate::addr::PhysAddr, size: PageSize) {
        self.frames.free(frame, size);
    }

    /// Serializes the full address-space state for the `ckpt-v3` snapshot:
    /// frame allocator free lists, the page-table arena, registered
    /// regions, the (runtime-mutable) THP switches, lifetime stats, the
    /// khugepaged cursor and inhibitions, and the page-table replicas.
    pub fn save_into(&self, e: &mut codec::Enc) {
        self.frames.save_into(e);
        self.table.save_into(e);
        e.seq(self.regions.iter(), |e, r| {
            e.u64(r.base);
            e.u64(r.len);
        });
        e.bool(self.thp.alloc_2m);
        e.bool(self.thp.promote_2m);
        e.bool(self.thp.alloc_1g);
        e.u64(self.stats.faults_4k);
        e.u64(self.stats.faults_2m);
        e.u64(self.stats.faults_1g);
        e.u64(self.stats.migrations_4k);
        e.u64(self.stats.migrations_2m);
        e.u64(self.stats.splits);
        e.u64(self.stats.collapses);
        e.u64(self.stats.bytes_copied);
        e.u64(self.scan_cursor);
        e.seq(self.no_promote.iter(), |e, &b| e.u64(b));
        e.u64(self.stats.table_replications);
        e.u64(self.stats.table_migrations);
        e.usize(self.eager_table_nodes);
        self.table_replicas.save_into(e);
    }

    /// Restores state captured by [`AddressSpace::save_into`] onto a space
    /// freshly built for the same machine and config (`costs` and
    /// `total_cores` are constructor-derived and not in the snapshot).
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        self.frames.load_from(d);
        self.table.load_from(d);
        self.regions = d.seq(|d| Region {
            base: d.u64(),
            len: d.u64(),
        });
        self.thp.alloc_2m = d.bool();
        self.thp.promote_2m = d.bool();
        self.thp.alloc_1g = d.bool();
        self.stats.faults_4k = d.u64();
        self.stats.faults_2m = d.u64();
        self.stats.faults_1g = d.u64();
        self.stats.migrations_4k = d.u64();
        self.stats.migrations_2m = d.u64();
        self.stats.splits = d.u64();
        self.stats.collapses = d.u64();
        self.stats.bytes_copied = d.u64();
        self.scan_cursor = d.u64();
        self.no_promote = d.seq(|d| d.u64()).into_iter().collect();
        self.stats.table_replications = d.u64();
        self.stats.table_migrations = d.u64();
        self.eager_table_nodes = d.usize();
        self.table_replicas.load_from(d);
    }

    /// Walks every structural invariant tying the page table, its replicas,
    /// and the frame allocator together:
    ///
    /// 1. the buddy allocator's own invariants ([`FrameAllocator::validate`]);
    /// 2. every leaf mapping is aligned, lies inside a registered region,
    ///    and claims the node that physically owns its frame;
    /// 3. `table_bytes` equals the frames of the root-reachable table nodes;
    /// 4. every table replica hangs off a root-reachable primary and lives
    ///    on the node it claims;
    /// 5. leaf frames, table frames, replica frames, and free blocks are
    ///    pairwise disjoint (no double mapping, no mapped-but-free frame).
    ///
    /// Raw frames taken via [`AddressSpace::alloc_frame`] are allocated but
    /// deliberately untracked (pinned buffers), so they appear in none of
    /// the interval lists — which is consistent with every check above.
    ///
    /// O(n log n) in the number of mappings: debug aid, not a fast
    /// path. Returns the first violation found.
    pub fn validate(&self) -> Result<(), VmemError> {
        self.frames.validate()?;

        // Tagged allocated intervals: (start, bytes, what).
        let mut intervals: Vec<(u64, u64, &'static str)> = Vec::new();

        let mut leaf_err: Option<VmemError> = None;
        self.table.for_each_leaf(|m| {
            if leaf_err.is_some() {
                return;
            }
            if !m.vbase.is_aligned(m.size.bytes()) || !m.frame.is_aligned(m.size.bytes()) {
                leaf_err = Some(VmemError::Invariant(format!(
                    "leaf {} -> {} misaligned for {}",
                    m.vbase, m.frame, m.size
                )));
                return;
            }
            if self.region_of(m.vbase).is_none() {
                leaf_err = Some(VmemError::Invariant(format!(
                    "leaf {} lies outside every region",
                    m.vbase
                )));
                return;
            }
            if self.frames.node_of(m.frame) != m.node {
                leaf_err = Some(VmemError::Invariant(format!(
                    "leaf {} claims {} but frame {} belongs to {}",
                    m.vbase,
                    m.node,
                    m.frame,
                    self.frames.node_of(m.frame)
                )));
                return;
            }
            intervals.push((m.frame.0, m.size.bytes(), "leaf"));
        });
        if let Some(e) = leaf_err {
            return Err(e);
        }

        let tables = self.table.reachable_table_frames();
        if tables.len() as u64 * PAGE_4K != self.table.table_bytes() {
            return Err(VmemError::Invariant(format!(
                "{} reachable table nodes but table_bytes = {}",
                tables.len(),
                self.table.table_bytes()
            )));
        }
        for (frame, node) in tables {
            if self.frames.node_of(frame) != node {
                return Err(VmemError::Invariant(format!(
                    "table frame {frame} claims {node} but belongs to {}",
                    self.frames.node_of(frame)
                )));
            }
            intervals.push((frame.0, PAGE_4K, "table"));
        }

        // Table-page node invariants: every table-replica set must hang
        // off a *root-reachable* primary frame (a replica of a retired
        // table is a dangling allocation), and each replica frame must
        // live on the node it claims to serve.
        let reachable: std::collections::BTreeSet<u64> = self
            .table
            .reachable_table_frames()
            .iter()
            .map(|(f, _)| f.0)
            .collect();
        let mut table_replica_err: Option<VmemError> = None;
        self.table_replicas.for_each_frame(|primary, node, frame| {
            if table_replica_err.is_some() {
                return;
            }
            if !reachable.contains(&primary.0) {
                table_replica_err = Some(VmemError::Invariant(format!(
                    "table replica of {primary} dangles: the primary table \
                     frame is not root-reachable"
                )));
                return;
            }
            if self.frames.node_of(frame) != node {
                table_replica_err = Some(VmemError::Invariant(format!(
                    "table replica frame {frame} claims {node} but belongs \
                     to {}",
                    self.frames.node_of(frame)
                )));
                return;
            }
            intervals.push((frame.0, PAGE_4K, "table-replica"));
        });
        if let Some(e) = table_replica_err {
            return Err(e);
        }

        // Free blocks join the interval list: an allocated frame on a free
        // list is a use-after-free in the making.
        for n in 0..self.frames.num_nodes() {
            for (addr, order) in self.frames.free_blocks(NodeId::from(n)) {
                intervals.push((addr, PAGE_4K << order, "free"));
            }
        }

        intervals.sort_unstable();
        for w in intervals.windows(2) {
            let (a_start, a_len, a_what) = w[0];
            let (b_start, _, b_what) = w[1];
            if a_start + a_len > b_start {
                return Err(VmemError::Invariant(format!(
                    "{a_what} frame {} overlaps {b_what} frame {}",
                    PhysAddr(a_start),
                    PhysAddr(b_start)
                )));
            }
        }
        Ok(())
    }
}

/// The most frequent node in `nodes` (lowest id wins ties).
fn majority_node(nodes: &[NodeId]) -> NodeId {
    let mut counts: std::collections::BTreeMap<NodeId, usize> = std::collections::BTreeMap::new();
    for &n in nodes {
        *counts.entry(n).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(node, count)| (count, std::cmp::Reverse(node)))
        .map(|(node, _)| node)
        .unwrap_or(NodeId(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        let machine = MachineSpec::test_machine();
        AddressSpace::new(&machine, VmemConfig::default())
    }

    fn space_small_pages() -> AddressSpace {
        let machine = MachineSpec::test_machine();
        let config = VmemConfig {
            thp: ThpControls::small_only(),
            ..VmemConfig::default()
        };
        AddressSpace::new(&machine, config)
    }

    const BASE: u64 = 0x40_0000_0000;

    #[test]
    fn fault_with_thp_installs_huge_page() {
        let mut s = space();
        s.map_region(BASE, 64 << 20).unwrap();
        let f = s.fault(VirtAddr(BASE + 0x1234), NodeId(1)).unwrap();
        assert_eq!(f.mapping.size, PageSize::Size2M);
        assert_eq!(f.mapping.node, NodeId(1));
        assert_eq!(f.mapping.vbase, VirtAddr(BASE));
        assert_eq!(s.stats().faults_2m, 1);
    }

    #[test]
    fn fault_without_thp_installs_small_page() {
        let mut s = space_small_pages();
        s.map_region(BASE, 64 << 20).unwrap();
        let f = s.fault(VirtAddr(BASE + 0x1234), NodeId(0)).unwrap();
        assert_eq!(f.mapping.size, PageSize::Size4K);
        assert_eq!(s.stats().faults_4k, 1);
    }

    #[test]
    fn fault_outside_region_fails() {
        let mut s = space();
        s.map_region(BASE, 4 << 20).unwrap();
        assert_eq!(
            s.fault(VirtAddr(0x1000), NodeId(0)).unwrap_err(),
            SpaceError::NoRegion
        );
    }

    #[test]
    fn double_fault_fails() {
        let mut s = space();
        s.map_region(BASE, 4 << 20).unwrap();
        s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
        assert_eq!(
            s.fault(VirtAddr(BASE + 0x100), NodeId(0)).unwrap_err(),
            SpaceError::AlreadyMapped
        );
    }

    #[test]
    fn huge_page_not_used_when_region_too_small() {
        let mut s = space();
        s.map_region(BASE, PAGE_2M / 2).unwrap();
        let f = s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
        assert_eq!(f.mapping.size, PageSize::Size4K);
    }

    #[test]
    fn giant_pages_when_enabled() {
        let machine = MachineSpec::test_machine(); // 1 GiB per node
        let config = VmemConfig {
            thp: ThpControls::giant(),
            ..VmemConfig::default()
        };
        let mut s = AddressSpace::new(&machine, config);
        s.map_region(BASE, PAGE_1G).unwrap();
        // Node 0 lost a few 4 KiB frames to the page table, so a full
        // 1 GiB frame only exists on node 1.
        let f = s.fault(VirtAddr(BASE + 123), NodeId(1)).unwrap();
        assert_eq!(f.mapping.size, PageSize::Size1G);
        assert_eq!(s.stats().faults_1g, 1);
    }

    #[test]
    fn giant_falls_back_to_huge_when_no_giant_frame() {
        let machine = MachineSpec::test_machine();
        let config = VmemConfig {
            thp: ThpControls::giant(),
            ..VmemConfig::default()
        };
        let mut s = AddressSpace::new(&machine, config);
        s.map_region(BASE, PAGE_1G).unwrap();
        // Node 0's range is fragmented by the root table frame.
        let f = s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
        assert_eq!(f.mapping.size, PageSize::Size2M);
    }

    #[test]
    fn first_touch_places_locally() {
        let mut s = space_small_pages();
        s.map_region(BASE, 64 << 20).unwrap();
        let f0 = s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
        let f1 = s.fault(VirtAddr(BASE + PAGE_4K), NodeId(1)).unwrap();
        assert_eq!(f0.mapping.node, NodeId(0));
        assert_eq!(f1.mapping.node, NodeId(1));
    }

    #[test]
    fn migrate_moves_page_and_counts() {
        let mut s = space_small_pages();
        s.map_region(BASE, 4 << 20).unwrap();
        s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
        let (old, cost) = s.migrate(VirtAddr(BASE + 5), NodeId(1)).unwrap();
        assert_eq!(old.node, NodeId(0));
        assert!(cost > 0);
        let m = s.translate(VirtAddr(BASE)).unwrap();
        assert_eq!(m.node, NodeId(1));
        assert_eq!(s.stats().migrations_4k, 1);
        assert_eq!(s.stats().bytes_copied, PAGE_4K);
    }

    #[test]
    fn migrate_to_same_node_is_free() {
        let mut s = space_small_pages();
        s.map_region(BASE, 4 << 20).unwrap();
        s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
        let (_, cost) = s.migrate(VirtAddr(BASE), NodeId(0)).unwrap();
        assert_eq!(cost, 0);
        assert_eq!(s.stats().migrations_4k, 0);
    }

    #[test]
    fn split_then_migrate_subpage() {
        let mut s = space();
        s.map_region(BASE, 64 << 20).unwrap();
        s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
        let (old, _) = s.split(VirtAddr(BASE + 0x3000)).unwrap();
        assert_eq!(old.size, PageSize::Size2M);
        assert_eq!(s.stats().splits, 1);
        // Now one 4 KiB corner can move on its own.
        s.migrate(VirtAddr(BASE + 0x3000), NodeId(1)).unwrap();
        assert_eq!(
            s.translate(VirtAddr(BASE + 0x3000)).unwrap().node,
            NodeId(1)
        );
        assert_eq!(s.translate(VirtAddr(BASE)).unwrap().node, NodeId(0));
    }

    #[test]
    fn promotion_scan_collapses_full_runs() {
        let mut s = space_small_pages();
        s.map_region(BASE, 4 << 20).unwrap();
        for i in 0..512u64 {
            s.fault(VirtAddr(BASE + i * PAGE_4K), NodeId(1)).unwrap();
        }
        s.thp_mut().promote_2m = true;
        let (collapsed, cycles) = s.promotion_scan(16);
        assert_eq!(collapsed, vec![VirtAddr(BASE)]);
        assert!(cycles > 0);
        let m = s.translate(VirtAddr(BASE + 0x5000)).unwrap();
        assert_eq!(m.size, PageSize::Size2M);
        assert_eq!(m.node, NodeId(1), "majority node wins");
    }

    #[test]
    fn promotion_scan_skips_partial_runs() {
        let mut s = space_small_pages();
        s.map_region(BASE, 4 << 20).unwrap();
        for i in 0..100u64 {
            s.fault(VirtAddr(BASE + i * PAGE_4K), NodeId(0)).unwrap();
        }
        s.thp_mut().promote_2m = true;
        let (collapsed, _) = s.promotion_scan(16);
        assert!(collapsed.is_empty());
    }

    #[test]
    fn promotion_disabled_is_a_noop() {
        let mut s = space_small_pages();
        s.map_region(BASE, 4 << 20).unwrap();
        for i in 0..512u64 {
            s.fault(VirtAddr(BASE + i * PAGE_4K), NodeId(0)).unwrap();
        }
        let (collapsed, cycles) = s.promotion_scan(16);
        assert!(collapsed.is_empty());
        assert_eq!(cycles, 0);
    }

    #[test]
    fn regions_must_not_overlap() {
        let mut s = space();
        s.map_region(BASE, 1 << 30).unwrap();
        assert_eq!(s.map_region(BASE, 4096).unwrap_err(), SpaceError::BadRegion);
        assert_eq!(
            s.map_region(BASE + (1 << 30), 0).unwrap_err(),
            SpaceError::BadRegion
        );
        s.map_region(BASE + (1 << 30), 4096).unwrap();
    }

    #[test]
    fn try_new_builds_working_spaces() {
        let machine = MachineSpec::test_machine();
        let mut s = AddressSpace::try_new(&machine, VmemConfig::default()).unwrap();
        s.map_region(BASE, 4 << 20).unwrap();
        s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
        s.validate().unwrap();
    }

    #[test]
    fn validate_accepts_a_well_exercised_space() {
        let mut s = space();
        s.map_region(BASE, 64 << 20).unwrap();
        s.validate().unwrap();
        // Fault a mix of sizes, split, migrate, collapse.
        s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
        s.fault(VirtAddr(BASE + PAGE_2M), NodeId(1)).unwrap();
        s.validate().unwrap();
        s.split(VirtAddr(BASE)).unwrap();
        s.validate().unwrap();
        s.migrate(VirtAddr(BASE + 0x3000), NodeId(1)).unwrap();
        s.validate().unwrap();
        s.thp_mut().promote_2m = true;
        s.clear_promote_inhibitions();
        s.promotion_scan(16);
        s.validate().unwrap();
    }

    #[test]
    fn validate_catches_a_freed_mapped_frame() {
        let mut s = space_small_pages();
        s.map_region(BASE, 4 << 20).unwrap();
        let f = s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
        // Simulated corruption: free the frame while it stays mapped.
        s.free_frame(f.mapping.frame, PageSize::Size4K);
        assert!(matches!(s.validate().unwrap_err(), VmemError::Invariant(_)));
    }

    #[test]
    fn walk_cache_tracks_every_space_operation() {
        // End-to-end invalidation check at the AddressSpace level: fault,
        // split, migrate, promote — after each operation the
        // cached walk must equal the uncached one exactly.
        let mut s = space();
        s.map_region(BASE, 64 << 20).unwrap();
        let mut cache = WalkCache::new();
        let check = |s: &AddressSpace, cache: &mut WalkCache, vaddr: u64| {
            let plain = s.walk(VirtAddr(vaddr));
            let cached = s.walk_cached(VirtAddr(vaddr), cache);
            assert_eq!(plain.mapping, cached.mapping, "at {vaddr:#x}");
            assert_eq!(plain.steps().len(), cached.steps().len());
            for (a, b) in plain.steps().iter().zip(cached.steps()) {
                assert_eq!(a.pte_addr, b.pte_addr);
                assert_eq!(a.node, b.node);
            }
        };
        check(&s, &mut cache, BASE); // unmapped
        s.fault(VirtAddr(BASE), NodeId(0)).unwrap(); // 2M fault
        check(&s, &mut cache, BASE + 0x1000);
        s.split(VirtAddr(BASE)).unwrap();
        check(&s, &mut cache, BASE + 0x1000); // now a 4K child
        assert_eq!(
            s.walk_cached(VirtAddr(BASE + 0x1000), &mut cache)
                .mapping
                .unwrap()
                .size,
            PageSize::Size4K
        );
        s.migrate(VirtAddr(BASE + 0x1000), NodeId(1)).unwrap();
        check(&s, &mut cache, BASE + 0x1000);
        assert_eq!(
            s.walk_cached(VirtAddr(BASE + 0x1000), &mut cache)
                .mapping
                .unwrap()
                .node,
            NodeId(1)
        );
        // Promotion (collapse back to 2M after re-enabling) invalidates.
        s.clear_promote_inhibitions();
        for i in 0..512u64 {
            let v = VirtAddr(BASE + i * PAGE_4K);
            if s.translate(v).is_none() {
                s.fault(v, NodeId(1)).unwrap();
            } else if s.translate(v).unwrap().node != NodeId(1) {
                s.migrate(v, NodeId(1)).unwrap();
            }
        }
        let (collapsed, _) = s.promotion_scan(64);
        assert_eq!(collapsed, vec![VirtAddr(BASE)]);
        check(&s, &mut cache, BASE + 0x1000);
        assert_eq!(
            s.walk_cached(VirtAddr(BASE + 0x1000), &mut cache)
                .mapping
                .unwrap()
                .size,
            PageSize::Size2M
        );
        s.validate().unwrap();
    }

    #[test]
    fn replicate_tables_localizes_every_walk_step() {
        let mut s = space_small_pages();
        s.map_region(BASE, 4 << 20).unwrap();
        for i in 0..16u64 {
            s.fault(VirtAddr(BASE + i * PAGE_4K), NodeId(0)).unwrap();
        }
        let (created, cost) = s.replicate_tables(2);
        assert!(created > 0);
        assert!(cost > 0);
        assert!(s.has_table_replicas());
        s.validate().unwrap();
        // Every step of a node-1 walk now resolves to a node-1 frame.
        let w = s.walk(VirtAddr(BASE));
        for step in w.steps() {
            let local = s.resolve_table_step(*step, NodeId(1));
            assert_eq!(local.node, NodeId(1), "step {:?} stayed remote", step);
            // ...while the primary keeps answering for its own node.
            let home = s.resolve_table_step(*step, step.node);
            assert_eq!(home.pte_addr, step.pte_addr);
        }
        // Idempotent: a second sweep creates nothing new.
        let (again, _) = s.replicate_tables(2);
        assert_eq!(again, 0);
    }

    #[test]
    fn eager_replication_covers_tables_created_by_later_faults() {
        let mut s = space_small_pages();
        s.map_region(BASE, 64 << 20).unwrap();
        s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
        let plain_fault = s.fault(VirtAddr(BASE + PAGE_4K), NodeId(0)).unwrap();
        s.replicate_tables(2);
        // A fault in a fresh 2 MiB region creates a new PT — it must be
        // replicated too, and the fault pays for it (replica copy + PTE
        // write fanout), so it costs more than a plain fault.
        let far = BASE + 8 * PAGE_2M;
        let f = s.fault(VirtAddr(far), NodeId(0)).unwrap();
        assert!(f.cycles > plain_fault.cycles);
        s.validate().unwrap();
        let w = s.walk(VirtAddr(far));
        let last = *w.steps().last().unwrap();
        assert_eq!(
            s.resolve_table_step(last, NodeId(1)).node,
            NodeId(1),
            "the PT created after the sweep is replicated"
        );
    }

    #[test]
    fn collapse_tears_down_the_retired_tables_replicas() {
        let mut s = space_small_pages();
        s.map_region(BASE, 4 << 20).unwrap();
        for i in 0..512u64 {
            s.fault(VirtAddr(BASE + i * PAGE_4K), NodeId(1)).unwrap();
        }
        s.replicate_tables(2);
        let before = s.replicated_table_frames();
        s.thp_mut().promote_2m = true;
        let (collapsed, _) = s.promotion_scan(16);
        assert_eq!(collapsed, vec![VirtAddr(BASE)]);
        assert_eq!(
            s.replicated_table_frames(),
            before - 1,
            "the retired PT's replica set must die with it"
        );
        s.validate().unwrap();
    }

    #[test]
    fn migrate_table_moves_the_pt_without_touching_leaves() {
        let mut s = space_small_pages();
        s.map_region(BASE, 4 << 20).unwrap();
        for i in 0..8u64 {
            s.fault(VirtAddr(BASE + i * PAGE_4K), NodeId(0)).unwrap();
        }
        let leaves_before = s.leaves();
        let home_before = *s.walk(VirtAddr(BASE)).steps().last().unwrap();
        assert_eq!(home_before.node, NodeId(0));
        let (moved, cost) = s.migrate_table(VirtAddr(BASE), NodeId(1)).unwrap();
        assert_eq!(moved, Some(NodeId(0)));
        assert!(cost > 0);
        let home_after = *s.walk(VirtAddr(BASE)).steps().last().unwrap();
        assert_eq!(home_after.node, NodeId(1));
        assert_eq!(s.leaves(), leaves_before, "translations unchanged");
        assert_eq!(s.stats().table_migrations, 1);
        s.validate().unwrap();
        // Already home: free no-op.
        let (moved, cost) = s.migrate_table(VirtAddr(BASE), NodeId(1)).unwrap();
        assert_eq!(moved, None);
        assert_eq!(cost, 0);
    }

    #[test]
    fn majority_node_prefers_most_frequent() {
        let nodes = [NodeId(1), NodeId(0), NodeId(1)];
        assert_eq!(majority_node(&nodes), NodeId(1));
        // Ties go to the lowest id.
        let tie = [NodeId(1), NodeId(0)];
        assert_eq!(majority_node(&tie), NodeId(0));
    }
}
