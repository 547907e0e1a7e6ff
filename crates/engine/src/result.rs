//! Simulation results and derived reporting.

use profiling::{CycleBreakdown, EpochCounters};
use serde::{Deserialize, Serialize};
use vmem::VmemStats;

/// One closed epoch's record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Counters over the epoch.
    pub counters: EpochCounters,
    /// Pages migrated by the policy this epoch.
    pub migrations: u64,
    /// Pages split by the policy this epoch.
    pub splits: u64,
    /// Pages collapsed by khugepaged this epoch.
    pub collapses: u64,
    /// Cycles of policy + daemon overhead charged to wall time this epoch.
    pub overhead_cycles: u64,
    /// Whether 2 MiB allocation was enabled when the epoch closed.
    pub thp_alloc_enabled: bool,
    /// Whether khugepaged promotion was enabled when the epoch closed.
    pub thp_promote_enabled: bool,
    /// Policy actions that failed this epoch: allocation failures on a
    /// full node and refusals of stale targets (page already split or
    /// collapsed).
    pub failed_actions: u64,
}

/// The policy actions of one run that the engine could not apply: a
/// migration onto a full node (`NoMemory`), or a stale action whose page
/// was already split or moved (`Gone`). Both occur naturally on any run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RobustnessStats {
    /// Migrations requested by the policy that failed.
    pub failed_migrations: u64,
    /// Splits (plain and scatter) requested by the policy that failed.
    pub failed_splits: u64,
}

impl RobustnessStats {
    /// Total failed policy actions (migrations + splits).
    pub fn failed_actions(&self) -> u64 {
        self.failed_migrations + self.failed_splits
    }
}

/// Whole-run aggregates.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LifetimeStats {
    /// Local access ratio over the whole run, in `[0, 1]`.
    pub lar: f64,
    /// Memory-controller imbalance over the whole run (percent of mean).
    pub imbalance: f64,
    /// Fraction of L2 misses caused by page-table walks, in `[0, 1]`.
    pub walk_miss_fraction: f64,
    /// TLB miss ratio across all cores, in `[0, 1]`.
    pub tlb_miss_ratio: f64,
    /// Cycles the worst core spent in the page-fault handler.
    pub max_fault_cycles: u64,
    /// The worst core's fault time as a fraction of the runtime.
    pub max_fault_fraction: f64,
    /// Total cycles spent in the fault handler, summed over cores.
    pub total_fault_cycles: u64,
    /// Virtual-memory operation counts (faults, migrations, splits, ...).
    pub vmem: VmemStats,
    /// Cycles of policy/daemon overhead charged to wall time.
    pub overhead_cycles: u64,
    /// IBS samples taken.
    pub ibs_samples: u64,
    /// Total memory operations executed.
    pub total_ops: u64,
}

/// The paper's Table 2 page metrics at two granularities.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PageMetrics {
    /// Percent of accesses to the most-used page, at the final mapping
    /// granularity (2 MiB pages count as one page).
    pub pamup: f64,
    /// Hot pages (> 6 % of accesses) at the final mapping granularity.
    pub nhp: usize,
    /// Percent of accesses to pages shared by ≥ 2 threads, at the final
    /// mapping granularity.
    pub psp: f64,
    /// Same metrics computed at fixed 4 KiB granularity, for comparison.
    pub pamup_4k: f64,
    /// Hot 4 KiB pages.
    pub nhp_4k: usize,
    /// PSP at 4 KiB granularity.
    pub psp_4k: f64,
}

/// One closed epoch's cycle attribution.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochAttribution {
    /// The epoch's *wall* cycles attributed: per round, the slowest
    /// thread's breakdown (its critical path is the round's wall time),
    /// plus the per-thread share of epoch overhead. Sums exactly to the
    /// epoch's contribution to `SimResult.runtime_cycles`.
    pub wall: CycleBreakdown,
    /// Per-core *busy* cycles attributed (every thread's own work, not
    /// just the critical path's). Cores do not sum to `wall`: in a
    /// barrier-synchronized round only the slowest thread's time is wall
    /// time; the others overlap under it.
    pub cores: Vec<CycleBreakdown>,
}

/// The run's full cycle-attribution ledger
/// (`SimResult.attribution`, recorded when `SimConfig.attribution` is on).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributionLedger {
    /// The serial prelude (loader thread touching headers alone).
    pub prelude: CycleBreakdown,
    /// Per-epoch attribution, in epoch order (parallel to
    /// `SimResult.epochs`).
    pub epochs: Vec<EpochAttribution>,
    /// Whole-run wall attribution: `prelude` plus every epoch's `wall`.
    /// **Conservation invariant**: `total.total() == runtime_cycles`,
    /// exactly, as integers.
    pub total: CycleBreakdown,
    /// Per-core lifetime busy breakdowns (epoch cores summed; the prelude
    /// is reported separately, not folded into core 0).
    pub core_totals: Vec<CycleBreakdown>,
}

impl AttributionLedger {
    /// Checks the conservation invariant against a run's total cycles:
    /// the bucket sum must equal `runtime_cycles` exactly, and `total`
    /// must equal prelude + Σ epoch walls fieldwise.
    pub fn conserves(&self, runtime_cycles: u64) -> bool {
        let mut rebuilt = self.prelude;
        for e in &self.epochs {
            rebuilt.add(&e.wall);
        }
        rebuilt == self.total && self.total.total() == runtime_cycles
    }
}

/// Everything a simulation run produces.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Workload name.
    pub workload: String,
    /// Policy name.
    pub policy: String,
    /// Machine name.
    pub machine: String,
    /// Total simulated wall time in cycles.
    pub runtime_cycles: u64,
    /// Total simulated wall time in milliseconds (machine clock applied).
    pub runtime_ms: f64,
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
    /// Whole-run aggregates.
    pub lifetime: LifetimeStats,
    /// Table 2 metrics.
    pub pages: PageMetrics,
    /// Policy actions the engine could not apply.
    pub robustness: RobustnessStats,
    /// Cycle-attribution ledger; `None` unless `SimConfig.attribution` was
    /// on for the run.
    pub attribution: Option<AttributionLedger>,
}

impl SimResult {
    /// Performance improvement of this run over a baseline runtime, as the
    /// paper reports it: `(baseline / this - 1) * 100` percent (positive =
    /// faster than the baseline).
    pub fn improvement_over(&self, baseline: &SimResult) -> f64 {
        (baseline.runtime_cycles as f64 / self.runtime_cycles as f64 - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with_runtime(cycles: u64) -> SimResult {
        SimResult {
            workload: "w".into(),
            policy: "p".into(),
            machine: "m".into(),
            runtime_cycles: cycles,
            runtime_ms: 0.0,
            epochs: Vec::new(),
            lifetime: LifetimeStats::default(),
            pages: PageMetrics::default(),
            robustness: RobustnessStats::default(),
            attribution: None,
        }
    }

    #[test]
    fn ledger_conservation_check_is_exact() {
        let prelude = CycleBreakdown {
            compute: 100,
            ..CycleBreakdown::default()
        };
        let wall = CycleBreakdown {
            dram_service: 40,
            ctrl_queue: 2,
            ..CycleBreakdown::default()
        };
        let mut total = prelude;
        total.add(&wall);
        let ledger = AttributionLedger {
            prelude,
            epochs: vec![EpochAttribution {
                wall,
                cores: Vec::new(),
            }],
            total,
            core_totals: Vec::new(),
        };
        assert!(ledger.conserves(142));
        // Off by a single cycle: rejected.
        assert!(!ledger.conserves(141));
        assert!(!ledger.conserves(143));
        // A total that disagrees with its parts: rejected even when the
        // scalar sum happens to match.
        let mut bad = ledger.clone();
        bad.total.dram_service -= 1;
        bad.total.cache_l1 += 1;
        assert!(!bad.conserves(142));
    }

    #[test]
    fn improvement_is_paper_style() {
        let baseline = result_with_runtime(200);
        let twice_as_fast = result_with_runtime(100);
        let slower = result_with_runtime(250);
        assert!((twice_as_fast.improvement_over(&baseline) - 100.0).abs() < 1e-9);
        assert!((slower.improvement_over(&baseline) + 20.0).abs() < 1e-9);
    }
}
