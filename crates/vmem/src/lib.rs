//! Virtual memory subsystem for the NUMA simulator.
//!
//! Models the pieces of the Linux 3.9 virtual memory system that the paper's
//! mechanisms live in:
//!
//! * x86-64-style **4-level page tables** whose walk references are real
//!   physical addresses (so walks hit or miss in the simulated caches),
//! * split **TLBs** (per-size-class L1, unified L2) with LRU replacement,
//! * a per-node buddy **frame allocator** with 4 KiB / 2 MiB / 1 GiB orders,
//! * **first-touch** page placement with node fallback,
//! * a **THP engine**: huge-page backing at fault time plus khugepaged-style
//!   promotion of aligned, fully-populated small-page runs, and
//! * the page **operations** Carrefour-LP is built from: migrate, split
//!   (demote), and collapse (promote), each with a cycle cost model.
//!
//! # Examples
//!
//! ```
//! use numa_topology::{MachineSpec, NodeId};
//! use vmem::{AddressSpace, PageSize, VirtAddr, VmemConfig};
//!
//! let machine = MachineSpec::test_machine();
//! let mut space = AddressSpace::new(&machine, VmemConfig::default());
//! space.map_region(0x1_0000_0000, 4 << 20).unwrap();
//!
//! // First touch faults the page in on the local node, as a huge page when
//! // THP is enabled (the default).
//! let fault = space.fault(VirtAddr(0x1_0000_0000), NodeId(0)).unwrap();
//! assert_eq!(fault.mapping.size, PageSize::Size2M);
//! assert_eq!(fault.mapping.node, NodeId(0));
//! ```

#![forbid(unsafe_code)]

mod addr;
mod error;
mod frame;
pub mod hash;
mod ops;
mod replica;
mod space;
mod table;
mod tlb;

pub use addr::{PhysAddr, VirtAddr};
pub use addr::{GIB, KIB, MIB, PAGE_1G, PAGE_2M, PAGE_4K};
pub use error::VmemError;
pub use frame::{FrameAllocator, FrameError};
pub use ops::{OpCost, OpCostModel};
pub use replica::ReplicaSet;
pub use space::{AddressSpace, FaultOutcome, SpaceError, ThpControls, VmemConfig, VmemStats};
pub use table::{
    CollapseOutcome, Mapping, PageSize, PageTable, TableError, WalkCache, WalkResult, WalkStep,
};
pub use tlb::{Tlb, TlbConfig, TlbEntry, TlbLookup, TlbStats};
