//! Thresholds and tunables for Carrefour and Carrefour-LP.

use serde::{Deserialize, Serialize};

/// Tunables of the baseline Carrefour algorithm.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CarrefourConfig {
    /// Minimum DRAM-serviced samples before a page is acted on.
    pub min_samples_per_page: usize,
    /// Engage when the epoch LAR falls below this value, in `[0, 1]`.
    pub lar_enable_below: f64,
    /// Engage when controller imbalance exceeds this percentage.
    pub imbalance_enable_above: f64,
    /// Only engage on memory-intensive phases: DRAM accesses per retired
    /// memory operation must exceed this.
    pub intensity_min_dram_per_op: f64,
    /// Rate limit: at most this many page migrations per epoch.
    pub max_migrations_per_epoch: usize,
}

impl Default for CarrefourConfig {
    fn default() -> Self {
        CarrefourConfig {
            min_samples_per_page: 2,
            lar_enable_below: 0.80,
            imbalance_enable_above: 35.0,
            intensity_min_dram_per_op: 0.001,
            max_migrations_per_epoch: 4096,
        }
    }
}

/// Algorithm 1's thresholds, exactly as the paper sets them.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LpThresholds {
    /// Line 4: re-enable 2 MiB allocation + promotion when more than this
    /// fraction of L2 misses come from page-table walks (paper: 5 %).
    pub walk_miss_enable: f64,
    /// Line 7: re-enable 2 MiB allocation when any core spends more than
    /// this fraction of its time in the fault handler (paper: 5 %).
    pub fault_time_enable: f64,
    /// Line 10: skip splitting when Carrefour alone is predicted to improve
    /// the LAR by more than this many percentage points (paper: 15 %).
    pub carrefour_gain_pp: f64,
    /// Line 12: split when Carrefour *with splitting* is predicted to gain
    /// at least this many percentage points (paper: 5 %).
    pub split_gain_pp: f64,
    /// Line 19: split-and-interleave pages receiving more than this
    /// fraction of sampled accesses (paper: 6 %, Section 3.1 footnote).
    pub hot_page_fraction: f64,
}

impl Default for LpThresholds {
    fn default() -> Self {
        LpThresholds {
            walk_miss_enable: 0.05,
            fault_time_enable: 0.05,
            carrefour_gain_pp: 15.0,
            split_gain_pp: 5.0,
            hot_page_fraction: profiling::metrics::HOT_PAGE_FRACTION,
        }
    }
}

/// The complete tunable surface of Carrefour-LP in one serializable value:
/// Algorithm 1's thresholds and the underlying Carrefour's engagement
/// knobs. This is the coordinate the `sweep`
/// binary searches over (ROADMAP item 4) and the payload a
/// `carrefour_bench::runner::CellSpec` carries to parameterize a cell.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct LpParams {
    /// Algorithm 1's enable/split thresholds.
    pub thresholds: LpThresholds,
    /// Baseline Carrefour engagement and rate-limit knobs.
    pub carrefour: CarrefourConfig,
}

impl LpParams {
    /// The winning configuration of the threshold sweep
    /// (`results/SWEEP_lp.json`, EXPERIMENTS.md "Threshold sweep"): the
    /// paper's thresholds with a *more patient* reactive split gate
    /// (split only on predicted gains ≥ 7.5 pp instead of 5), an earlier
    /// imbalance trigger (25 % instead of 35), and a doubled migration
    /// rate limit. On the sweep's 16 (machine × benchmark) scenarios this
    /// sits on the Pareto frontier with zero worst-case regression.
    /// Checked in as the `carrefour-lp-tuned` preset with its own golden
    /// cell.
    pub fn tuned() -> Self {
        LpParams {
            thresholds: LpThresholds {
                walk_miss_enable: 0.05,
                fault_time_enable: 0.05,
                carrefour_gain_pp: 15.0,
                split_gain_pp: 7.5,
                hot_page_fraction: 0.06,
            },
            carrefour: CarrefourConfig {
                min_samples_per_page: 2,
                lar_enable_below: 0.80,
                imbalance_enable_above: 25.0,
                intensity_min_dram_per_op: 0.001,
                max_migrations_per_epoch: 8192,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let t = LpThresholds::default();
        assert!((t.walk_miss_enable - 0.05).abs() < 1e-12);
        assert!((t.fault_time_enable - 0.05).abs() < 1e-12);
        assert!((t.carrefour_gain_pp - 15.0).abs() < 1e-12);
        assert!((t.split_gain_pp - 5.0).abs() < 1e-12);
        assert!((t.hot_page_fraction - 0.06).abs() < 1e-12);
    }

    #[test]
    fn carrefour_defaults_are_sane() {
        let c = CarrefourConfig::default();
        assert!(c.min_samples_per_page >= 1);
        assert!(c.lar_enable_below < 1.0);
        assert!(c.imbalance_enable_above > 0.0);
    }
}
