//! Synthetic workloads reproducing the paper's benchmark behaviours.
//!
//! The paper evaluates on NAS Parallel Benchmarks, Metis MapReduce, SSCA v2.2,
//! SPECjbb and (for Section 4.4) PARSEC streamcluster. Running those binaries
//! is impossible inside a simulator, but the paper itself explains every
//! result through a small set of memory-behaviour features:
//!
//! * **hot 4 KiB chunks that coalesce** into a few hot 2 MiB pages (CG),
//! * **page-level false sharing**: per-thread data interleaved at sub-2 MiB
//!   granularity (UA),
//! * **allocation-phase fault storms** that THP shortens 512× (WC, wrmem),
//! * **TLB pressure** from large, poorly-localized working sets (SSCA),
//! * **allocation skew** placing most memory on one node (SPECjbb, pca), and
//! * plain private/streaming phases that nothing disturbs (EP, BT, MG...).
//!
//! Each benchmark is a [`WorkloadSpec`]: a set of regions with an
//! [`AccessPattern`] each, an allocation phase, and a compute phase.
//! [`WorkloadGen`] turns a spec into per-thread deterministic access streams.
//! The specs' parameters are calibrated so the *measured* profile (Table 1 /
//! Table 2 metrics) matches the paper — the metrics are outputs of the
//! simulation, never inputs.
//!
//! # Examples
//!
//! ```
//! use numa_topology::MachineSpec;
//! use workloads::{Benchmark, WorkloadGen};
//!
//! let machine = MachineSpec::machine_a();
//! let spec = Benchmark::CgD.spec(&machine);
//! let mut gen = WorkloadGen::new(&spec, 42);
//! let op = gen.next_op(0);
//! assert!(spec.regions.iter().any(|r| op.vaddr >= r.base
//!     && op.vaddr < r.base + r.bytes));
//! ```

#![forbid(unsafe_code)]

mod gen;
mod spec;
mod suite;

pub use gen::{Op, WorkloadGen};
pub use spec::{AccessPattern, PhaseSpec, RegionSpec, WorkloadSpec};
pub use suite::Benchmark;
