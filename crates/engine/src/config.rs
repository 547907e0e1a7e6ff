//! Simulation configuration.

use memsys::MemSysConfig;
use profiling::IbsConfig;
use serde::{Deserialize, Serialize};
use vmem::{ThpControls, TlbConfig, VmemConfig};

/// Full configuration of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Down-scaling factor applied to caches and TLBs (working sets in the
    /// workload specs are pre-scaled by the same ~64× factor; the hardware
    /// scale is smaller because miss *ratios*, not sizes, must match).
    pub scale: usize,
    /// Seed for workload generation and policy randomness.
    pub seed: u64,
    /// Rounds per policy epoch (the paper's 1-second monitoring interval).
    pub rounds_per_epoch: u32,
    /// Operations each thread runs per scheduling batch within a round.
    /// Threads interleave batch-by-batch, which models the allocation races
    /// of concurrent first-touch: no single thread can claim every huge
    /// page of a shared region just because it is simulated first.
    pub ops_per_batch: u64,
    /// IBS sampler configuration.
    pub ibs: IbsConfig,
    /// Memory-system configuration (caches, controllers, interconnect).
    pub memsys: MemSysConfig,
    /// Virtual-memory configuration (TLBs, cost model, initial THP state).
    pub vmem: VmemConfig,
    /// khugepaged: 2 MiB candidates examined per epoch.
    pub khugepaged_scan_limit: usize,
    /// Record exact per-page statistics (Table 2 metrics). Small overhead;
    /// disable for pure-performance benches.
    pub track_page_stats: bool,
    /// Run the `vmem` invariant walker after every epoch, panicking on the
    /// first violation. Expensive; for tests only.
    pub validate_each_epoch: bool,
    /// Record the cycle-attribution ledger ([`crate::AttributionLedger`] in
    /// `SimResult.attribution`): every wall cycle charged to its
    /// architectural cause, per epoch and per core. Off by default;
    /// attribution is purely observational — every other output is
    /// bit-identical either way (tier-1 tested).
    pub attribution: bool,
}

impl SimConfig {
    /// The default experiment configuration at the standard scale.
    pub fn standard() -> Self {
        let scale = 8;
        SimConfig {
            scale,
            seed: 42,
            rounds_per_epoch: 2,
            ops_per_batch: 4,
            ibs: IbsConfig {
                period: 128,
                sample_overhead_cycles: 800,
            },
            memsys: MemSysConfig::scaled_default(scale),
            vmem: VmemConfig {
                tlb: TlbConfig::scaled_default(scale),
                ..VmemConfig::default()
            },
            khugepaged_scan_limit: 24,
            track_page_stats: true,
            validate_each_epoch: false,
            attribution: false,
        }
    }

    /// A configuration with the given initial THP switches.
    pub fn with_thp(thp: ThpControls) -> Self {
        let mut c = SimConfig::standard();
        c.vmem.thp = thp;
        c
    }

    /// A configuration calibrated for one machine: the per-hop interconnect
    /// latency is normalized by the network diameter so that the worst-case
    /// remote access costs ≈150 extra cycles on either machine (the ~1.5×
    /// remote/local ratio of the paper's Opterons; machine B has twice the
    /// hops but faster links relative to its clock).
    pub fn for_machine(machine: &numa_topology::MachineSpec, thp: ThpControls) -> Self {
        let mut c = SimConfig::with_thp(thp);
        let diameter = machine.topology().diameter().max(1);
        c.memsys.hop_latency = 150 / diameter;
        // Interlagos (machine B) nodes have roughly twice the per-node
        // memory bandwidth of Magny-Cours relative to demand: lower
        // controller occupancy per request.
        if machine.num_nodes() > 4 {
            c.memsys.controller_service_cycles = 13;
        }
        c
    }

    /// Small and fast, for unit tests and doctests.
    pub fn fast_test() -> Self {
        let mut c = SimConfig::standard();
        c.ibs.period = 128;
        c
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_config_is_scaled() {
        let c = SimConfig::standard();
        assert_eq!(c.scale, 8);
        assert!(c.vmem.tlb.l2_entries < 1024);
        assert!(c.memsys.l3.sets < 12288);
    }

    #[test]
    fn with_thp_sets_initial_controls() {
        let c = SimConfig::with_thp(ThpControls::small_only());
        assert!(!c.vmem.thp.alloc_2m);
        let c = SimConfig::with_thp(ThpControls::giant());
        assert!(c.vmem.thp.alloc_1g);
    }
}
