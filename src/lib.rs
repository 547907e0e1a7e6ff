//! Umbrella crate for the Carrefour-LP reproduction.
//!
//! Simulation-based reproduction of *Large Pages May Be Harmful on NUMA
//! Systems* (USENIX ATC 2014). The workspace is split into substrate
//! crates (`numa-topology`, `memsys`, `vmem`, `profiling`, `workloads`),
//! the epoch simulation `engine`, and the `carrefour` policy crate; this
//! crate re-exports them whole and offers a [`prelude`] with the names the
//! examples and downstream users need.
//!
//! # Examples
//!
//! ```
//! use carrefour_lp::prelude::*;
//!
//! let machine = MachineSpec::machine_a();
//! let spec = Benchmark::UaB.spec(&machine);
//! let config = SimConfig::fast_test();
//! let result = Simulation::run(&machine, &spec, &config, &mut NullPolicy);
//! assert!(result.runtime_cycles > 0);
//! ```

#![forbid(unsafe_code)]

pub use carrefour;
pub use engine;
pub use memsys;
pub use numa_topology;
pub use profiling;
pub use vmem;
pub use workloads;

pub mod prelude {
    //! Everything a simulation driver typically needs, one import away.

    pub use carrefour::{
        Carrefour, CarrefourConfig, CarrefourLp, LpParams, LpThresholds, Mitosis, NumaPte,
        NumaPteConfig,
    };
    pub use engine::{
        ActionError, Checkpoint, CheckpointError, DigestSink, EpochCtx, EpochDigest, EpochRecord,
        EpochSnap, EventKind, FailedAction, LifetimeStats, NullPolicy, NumaPolicy, PageMetrics,
        PolicyAction, PolicyDecision, RobustnessStats, RunHook, RunOptions, RunOutcome, SimConfig,
        SimResult, Simulation, Start, TraceDigest, TraceEvent, VecSink,
    };
    pub use numa_topology::{CoreId, MachineSpec, NodeId, NodeSpec};
    pub use profiling::{IbsConfig, IbsSample, IbsSampler};
    pub use vmem::{PageSize, ThpControls, VirtAddr, GIB, KIB, MIB};
    pub use workloads::{AccessPattern, Benchmark, PhaseSpec, RegionSpec, WorkloadSpec};
}
