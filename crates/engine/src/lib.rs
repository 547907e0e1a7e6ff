//! The NUMA simulation engine.
//!
//! Ties the substrates together into an epoch-based, cycle-accounting
//! simulation of one multi-threaded workload on one NUMA machine:
//!
//! * threads run in barrier-synchronized **rounds** (NAS and Metis codes are
//!   bulk-synchronous); a round's wall time is the slowest thread's time, so
//!   an overloaded memory controller directly gates progress;
//! * every memory operation goes TLB → (page walk → fault?) → caches → DRAM,
//!   each step charged from the models in `memsys` and `vmem`;
//! * every `rounds_per_epoch` rounds the engine closes an **epoch**: it runs
//!   the khugepaged promotion scan, snapshots the performance counters,
//!   drains the IBS sampler, and invokes the installed [`NumaPolicy`] — the
//!   hook Carrefour and Carrefour-LP plug into (the paper's 1-second
//!   monitoring interval);
//! * policy actions (migrate / split / THP toggles) are applied with their
//!   cycle costs and TLB shootdowns, and the kernel-side work is charged to
//!   wall time, which is how the paper's Section 4.2 overhead numbers arise.
//!
//! # Examples
//!
//! ```
//! use engine::{NullPolicy, SimConfig, Simulation};
//! use numa_topology::MachineSpec;
//! use workloads::Benchmark;
//!
//! let machine = MachineSpec::machine_a();
//! let mut config = SimConfig::fast_test();
//! let spec = Benchmark::Kmeans.spec(&machine);
//! let result = Simulation::run(&machine, &spec, &config, &mut NullPolicy);
//! assert!(result.runtime_cycles > 0);
//! assert!(result.lifetime.lar >= 0.0 && result.lifetime.lar <= 1.0);
//! # let _ = &mut config;
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
mod config;
mod policy;
pub mod recorder;
mod result;
mod sim;
pub mod trace;

pub use checkpoint::{Checkpoint, CheckpointError};
pub use config::SimConfig;
pub use policy::{
    ActionError, Comparison, EpochCtx, FailedAction, NullPolicy, NumaPolicy, PolicyAction,
    PolicyIntrospection,
};
pub use recorder::{MetricsSample, PageSnapshot, RunInfo, VecRecorder};
pub use result::{
    AttributionLedger, EpochAttribution, EpochRecord, LifetimeStats, PageMetrics, RobustnessStats,
    SimResult,
};
pub use sim::{EpochBoundary, EpochDecision, RunHook, RunOptions, RunOutcome, Simulation, Start};
pub use trace::{
    epoch_output_fingerprint, DigestSink, EpochDigest, EpochSnap, EventKind, PolicyDecision,
    TraceDigest, TraceEvent, VecSink,
};
