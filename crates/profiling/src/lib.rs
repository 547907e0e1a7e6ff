//! Hardware-profiling simulation: IBS sampling, counters, NUMA metrics.
//!
//! Carrefour and Carrefour-LP are *profile-driven*: every decision they make
//! reads either AMD's instruction-based sampling (IBS) or a handful of
//! performance counters. This crate reproduces those observation channels:
//!
//! * [`IbsSampler`] — samples every N-th memory access, recording the data
//!   address, the accessing node and thread, the home node, and whether the
//!   access was serviced from DRAM. Samples live in **per-node stores**
//!   (the scalability fix described in Section 4.3 of the paper). Sampling
//!   is sparse by construction, which is exactly why the paper's LAR
//!   estimates are sometimes wrong — that pathology is reproduced, not
//!   assumed.
//! * [`EpochCounters`] — the per-epoch "perf counter" snapshot policies
//!   read: L2 misses (total and walk-caused), DRAM locality, per-controller
//!   request counts, per-core page-fault time.
//! * [`CycleBreakdown`] — the cycle-attribution ledger: one interval's
//!   wall cycles split into exhaustive, mutually exclusive buckets
//!   (compute, cache levels, DRAM service, controller queueing,
//!   interconnect, page walks, faults, policy overhead), conserving the
//!   total exactly.
//! * [`metrics`] — the paper's derived metrics: local access ratio (LAR),
//!   memory-controller imbalance, PAMUP, NHP, and PSP (Table 2).
//! * [`PageAccessStats`] — exact per-4KiB-page access counts and thread
//!   masks, aggregatable to any page granularity, used to *report* the
//!   Table 2 metrics (the paper gathered these offline the same way).
//!
//! # Examples
//!
//! ```
//! use profiling::metrics;
//!
//! // Perfectly balanced controllers have zero imbalance...
//! assert_eq!(metrics::imbalance(&[100, 100, 100, 100]), 0.0);
//! // ...while a lone hot controller drives it up (percent of mean).
//! assert!(metrics::imbalance(&[400, 0, 0, 0]) > 150.0);
//! ```

#![forbid(unsafe_code)]

mod breakdown;
mod counters;
mod ibs;
pub mod metrics;
mod pagestats;

pub use breakdown::{CycleBreakdown, BUCKET_COUNT};
pub use counters::{CoreFaultTime, EpochCounters};
pub use ibs::{IbsConfig, IbsSample, IbsSampler};
pub use pagestats::{PageAccessStats, PageCell};
