//! Memory system simulator for a NUMA machine.
//!
//! This crate models the parts of the memory hierarchy that the paper's
//! analysis depends on:
//!
//! * a set-associative **cache hierarchy** (per-core L1 and L2, per-node
//!   shared L3, matching the AMD Opteron layout), so that page-table-walk
//!   references can hit or miss in the L2 — the paper's "% of L2 misses
//!   caused by page table walks" metric falls out of this,
//! * per-node **memory controllers** with a queueing-delay contention model:
//!   an idle controller services a request in ≈200 cycles while an overloaded
//!   one takes ≈1000 cycles (the range the paper quotes from the Carrefour
//!   work), and
//! * **interconnect links** with per-link traffic accounting and a congestion
//!   penalty, so that remote accesses both cost hops and can saturate links.
//!
//! The simulator is *cycle-accounting*, not cycle-accurate: each access is
//! charged a latency derived from where it was serviced and from the measured
//! utilization of the resources it touched during the previous epoch. That
//! feedback (load this epoch → latency next epoch) is what lets imbalance
//! translate into a slowdown exactly as it does on real hardware.
//!
//! # Examples
//!
//! ```
//! use numa_topology::MachineSpec;
//! use memsys::{MemSysConfig, MemorySystem, AccessKind};
//!
//! let machine = MachineSpec::test_machine();
//! let mut mem = MemorySystem::new(&machine, MemSysConfig::scaled_default(1));
//! // A cold access misses everywhere and goes to DRAM on its home node.
//! let out = mem.access(0usize.into(), 0x1000, 0usize.into(), AccessKind::Data);
//! assert!(out.dram());
//! // An immediate re-access of the same line hits in the L1.
//! let out2 = mem.access(0usize.into(), 0x1000, 0usize.into(), AccessKind::Data);
//! assert!(out2.cycles < out.cycles);
//! ```

#![forbid(unsafe_code)]

mod cache;
mod config;
mod controller;
mod hierarchy;
mod links;
mod system;

pub use cache::SetAssocCache;
pub use config::{CacheGeometry, MemSysConfig};
pub use controller::MemoryController;
pub use hierarchy::{CacheHierarchy, ServiceLevel};
pub use links::LinkTraffic;
pub use system::{AccessKind, AccessOutcome, ControllerSnap, MemorySystem};
