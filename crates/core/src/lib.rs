//! Carrefour and Carrefour-LP: NUMA-aware page placement with large-page
//! extensions — the paper's contribution, reimplemented in full.
//!
//! Three layers:
//!
//! * [`Carrefour`] — the baseline placement algorithm from Dashti et al.
//!   (ASPLOS '13), as summarized in Section 3.1 of this paper: gather IBS
//!   samples per page; migrate single-node pages to their accessor,
//!   interleave multi-node pages; engage only when hardware counters show a
//!   NUMA problem (low LAR or high imbalance on a memory-intensive phase).
//!   Run it under small pages and you have *Carrefour-4K*; run it under THP
//!   and you have *Carrefour-2M*.
//! * [`lar`] — the what-if local-access-ratio estimator (Section 3.2.1):
//!   from the same IBS samples, predict the LAR that Carrefour placement
//!   would achieve with the current pages, and with every large page split
//!   into 4 KiB pages. Sampling sparsity makes the split prediction
//!   optimistic — the mis-estimation the paper observed on SSCA.
//! * [`CarrefourLp`] — Algorithm 1: the **reactive** component (split hot
//!   pages; split shared large pages and disable THP when only splitting
//!   can recover locality) plus the **conservative** component (re-enable
//!   THP when walk misses or fault time say large pages would pay off).
//!   The reactive-only and conservative-only variants of Figure 4 are
//!   provided as constructors.
//!
//! # Examples
//!
//! ```
//! use carrefour::{Carrefour, CarrefourLp};
//! use engine::{SimConfig, Simulation};
//! use numa_topology::MachineSpec;
//! use vmem::ThpControls;
//! use workloads::Benchmark;
//!
//! let machine = MachineSpec::machine_a();
//! let config = SimConfig::with_thp(ThpControls::thp());
//! let spec = Benchmark::SpecJbb.spec(&machine);
//! let mut lp = CarrefourLp::new();
//! let result = Simulation::run(&machine, &spec, &config, &mut lp);
//! assert_eq!(result.policy, "carrefour-lp");
//! # let _ = Carrefour::new();
//! ```

#![forbid(unsafe_code)]

mod classic;
mod config;
mod dram;
mod knob;
pub mod lar;
mod lp;
mod pageset;
mod tables;

pub use classic::Carrefour;
pub use config::{CarrefourConfig, LpParams, LpThresholds};
pub use lp::CarrefourLp;
pub use tables::{Mitosis, NumaPte, NumaPteConfig};
