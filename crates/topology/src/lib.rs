//! NUMA machine topology model.
//!
//! This crate describes the *shape* of a cache-coherent NUMA machine: how many
//! nodes it has, how many cores live on each node, how much DRAM each node
//! hosts, and how the nodes are wired together by point-to-point interconnect
//! links (HyperTransport on the AMD Opteron machines used by the paper).
//!
//! The two machine presets from the paper are provided:
//!
//! * [`MachineSpec::machine_a`] — "Machine A": two 1.7 GHz AMD Opteron
//!   6164 HE packages, 24 cores, 4 NUMA nodes, 64 GB of RAM.
//! * [`MachineSpec::machine_b`] — "Machine B": four AMD Opteron 6272
//!   packages, 64 cores, 8 NUMA nodes, 512 GB of RAM.
//!
//! Routing between nodes is computed with breadth-first search over the link
//! graph, yielding a deterministic shortest path per (source, destination)
//! pair. The memory system simulator charges per-hop latency and accounts
//! per-link traffic using these routes.
//!
//! # Examples
//!
//! ```
//! use numa_topology::MachineSpec;
//!
//! let m = MachineSpec::machine_b();
//! assert_eq!(m.num_nodes(), 8);
//! assert_eq!(m.total_cores(), 64);
//! // Remote accesses traverse at least one hop.
//! let hops = m.topology().hops(0usize.into(), 5usize.into());
//! assert!(hops >= 1);
//! ```

#![forbid(unsafe_code)]

mod ids;
mod interconnect;
mod machine;

pub use ids::{CoreId, NodeId};
pub use interconnect::{Interconnect, LinkId, Route};
pub use machine::{MachineSpec, NodeSpec};
