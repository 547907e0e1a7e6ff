//! The flight recorder's engine layer: per-epoch metric time-series.
//!
//! A metrics recorder is a [`RunHook`] whose [`RunHook::wants_metrics`] is
//! true: the simulation driver hands it one [`MetricsSample`] per epoch
//! boundary (in [`crate::EpochBoundary::metrics`]) — the paper's derived
//! metrics (imbalance, PAMUP, NHP, PSP), per-controller load, TLB and
//! walk-cache hit rates for the epoch, and the attribution ledger's
//! per-epoch delta. Where `engine::trace` answers "what happened", the
//! recorder answers "how did the paper's metrics *evolve*" — the temporal
//! curves Sections 2.2 and 3 of the paper argue from.
//!
//! # Zero-cost-when-off, bit-identity-preserving
//!
//! The contract mirrors the trace layer's (DESIGN.md §9, §16): when no
//! hook asks for samples the driver builds none; when one does, every
//! read behind the sample is `&self` — counters already computed,
//! page-stat aggregation — so a recorded run's
//! `SimResult`, ledger, and trace digest are bit-identical to an
//! unrecorded run's (proptested in
//! `carrefour-bench/tests/metrics_equivalence.rs`). In particular the
//! recorder never turns `SimConfig::track_page_stats` on by itself: when
//! page stats are off, [`MetricsSample::pages`] is `None` and the JSONL
//! field is `null` — forcing them on would change `SimResult::pages`.
//!
//! # `metrics-v3` JSONL
//!
//! [`VecRecorder::to_jsonl`] serializes a recorded run next to the trace
//! output's format: one `{"metrics": "run_start", ...}` header line, one
//! `{"metrics": "epoch", ...}` line per boundary. Schema in DESIGN.md §16.

use crate::sim::{EpochBoundary, RunHook};
use codec::json::{esc, num, u64s};
use profiling::CycleBreakdown;

/// Identity of the run a hook is attached to — the `run_start` header of
/// a `metrics-v3` stream.
#[derive(Clone, Debug, PartialEq)]
pub struct RunInfo {
    /// Workload name (`WorkloadSpec::name`).
    pub workload: String,
    /// Policy display name ([`crate::NumaPolicy::name`]).
    pub policy: String,
    /// Machine name.
    pub machine: String,
    /// Worker thread count of the workload.
    pub threads: usize,
    /// NUMA node count of the machine.
    pub nodes: usize,
}

impl RunInfo {
    /// Serializes the `metrics-v3` `run_start` header line (no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"metrics\":\"run_start\",\"schema\":\"metrics-v3\",\
             \"workload\":\"{}\",\"policy\":\"{}\",\"machine\":\"{}\",\
             \"threads\":{},\"nodes\":{}}}",
            esc(&self.workload),
            esc(&self.policy),
            esc(&self.machine),
            self.threads,
            self.nodes,
        )
    }
}

/// The paper's page-granularity metrics at one boundary, over every
/// access recorded since the run started (page stats are cumulative).
/// Present only when `SimConfig::track_page_stats` is on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PageSnapshot {
    /// Percentage of accesses to the most-used page (mapped granularity).
    pub pamup: f64,
    /// Number of hot pages (> 6 % of accesses).
    pub nhp: usize,
    /// Percentage of accesses to pages shared by ≥ 2 threads.
    pub psp: f64,
}

/// One epoch boundary's metric sample. TLB and walk-cache counts are
/// per-epoch deltas (the engine differences the lifetime counters);
/// everything else is this epoch's value as the policy saw it.
#[derive(Clone, Debug)]
pub struct MetricsSample {
    /// The epoch this boundary closed.
    pub epoch: u32,
    /// Wall cycles of the epoch, boundary overhead included.
    pub epoch_cycles: u64,
    /// Memory operations executed during the epoch.
    pub mem_ops: u64,
    /// Controller-load imbalance (stddev % of mean) this epoch.
    pub imbalance: f64,
    /// Local access ratio of the epoch's DRAM traffic.
    pub lar: f64,
    /// Fraction of L2 misses that were page-walk references.
    pub walk_miss_fraction: f64,
    /// Per-controller request counts this epoch.
    pub controller_requests: Vec<u64>,
    /// TLB L1 hits this epoch (summed over threads).
    pub tlb_l1_hits: u64,
    /// TLB L2 hits this epoch.
    pub tlb_l2_hits: u64,
    /// TLB misses (full walks) this epoch.
    pub tlb_misses: u64,
    /// Walk-cache hits this epoch.
    pub walk_cache_hits: u64,
    /// Walk-cache misses this epoch.
    pub walk_cache_misses: u64,
    /// Pages migrated by the policy at this boundary.
    pub migrations: u64,
    /// Pages split at this boundary.
    pub splits: u64,
    /// khugepaged collapses at this boundary.
    pub collapses: u64,
    /// Policy actions that failed at this boundary.
    pub failed_actions: u64,
    /// PAMUP/NHP/PSP (cumulative) — `None` when page stats are off.
    pub pages: Option<PageSnapshot>,
    /// The attribution ledger's delta for this epoch (wall buckets) —
    /// `None` when `SimConfig::attribution` is off.
    pub attrib: Option<CycleBreakdown>,
}

impl MetricsSample {
    /// TLB hit rate this epoch (L1 + L2 hits over all lookups); 1.0 for
    /// an epoch with no lookups.
    pub fn tlb_hit_rate(&self) -> f64 {
        let total = self.tlb_l1_hits + self.tlb_l2_hits + self.tlb_misses;
        if total == 0 {
            1.0
        } else {
            (self.tlb_l1_hits + self.tlb_l2_hits) as f64 / total as f64
        }
    }

    /// Walk-cache hit rate this epoch; 1.0 for an epoch with no walks.
    pub fn walk_cache_hit_rate(&self) -> f64 {
        let total = self.walk_cache_hits + self.walk_cache_misses;
        if total == 0 {
            1.0
        } else {
            self.walk_cache_hits as f64 / total as f64
        }
    }

    /// Serializes the sample as one `metrics-v3` JSONL line (no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"metrics\":\"epoch\",\"epoch\":{},\"epoch_cycles\":{},\"mem_ops\":{},\
             \"imbalance\":{},\"lar\":{},\"walk_miss_fraction\":{},\
             \"controller_requests\":{},\"tlb_l1_hits\":{},\"tlb_l2_hits\":{},\
             \"tlb_misses\":{},\"tlb_hit_rate\":{},\"walk_cache_hits\":{},\
             \"walk_cache_misses\":{},\"walk_cache_hit_rate\":{},\
             \"migrations\":{},\"splits\":{},\"collapses\":{},\"failed_actions\":{}",
            self.epoch,
            self.epoch_cycles,
            self.mem_ops,
            num(self.imbalance),
            num(self.lar),
            num(self.walk_miss_fraction),
            u64s(&self.controller_requests),
            self.tlb_l1_hits,
            self.tlb_l2_hits,
            self.tlb_misses,
            num(self.tlb_hit_rate()),
            self.walk_cache_hits,
            self.walk_cache_misses,
            num(self.walk_cache_hit_rate()),
            self.migrations,
            self.splits,
            self.collapses,
            self.failed_actions,
        );
        match &self.pages {
            Some(p) => s.push_str(&format!(
                ",\"pages\":{{\"pamup\":{},\"nhp\":{},\"psp\":{}}}",
                num(p.pamup),
                p.nhp,
                num(p.psp)
            )),
            None => s.push_str(",\"pages\":null"),
        }
        match &self.attrib {
            Some(bd) => s.push_str(&format!(",\"attrib\":{}", bd.to_json())),
            None => s.push_str(",\"attrib\":null"),
        }
        s.push('}');
        s
    }
}

/// Buffers a run's header and every sample in memory — the report
/// binary's recorder.
#[derive(Default)]
pub struct VecRecorder {
    /// The run header, when one was announced (fresh runs only).
    pub header: Option<RunInfo>,
    /// One sample per epoch boundary, in order.
    pub samples: Vec<MetricsSample>,
}

impl VecRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        VecRecorder::default()
    }

    /// Serializes the recording as `metrics-v3` JSON Lines: the header
    /// line (when announced), then one [`MetricsSample::to_json`] line per
    /// sample, each ending in a newline.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = self.header.iter().map(RunInfo::to_json);
        for line in header.chain(self.samples.iter().map(MetricsSample::to_json)) {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

impl RunHook for VecRecorder {
    fn on_run_start(&mut self, info: &RunInfo) {
        self.header = Some(info.clone());
    }

    fn wants_metrics(&self) -> bool {
        true
    }

    fn on_boundary(&mut self, b: &EpochBoundary) {
        if let Some(sample) = &b.metrics {
            self.samples.push(sample.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(reqs: &[u64], attrib: Option<CycleBreakdown>) -> MetricsSample {
        MetricsSample {
            epoch: 3,
            epoch_cycles: 1000,
            mem_ops: 50,
            imbalance: 12.5,
            lar: 0.75,
            walk_miss_fraction: 0.1,
            controller_requests: reqs.to_vec(),
            tlb_l1_hits: 90,
            tlb_l2_hits: 5,
            tlb_misses: 5,
            walk_cache_hits: 4,
            walk_cache_misses: 1,
            migrations: 2,
            splits: 1,
            collapses: 0,
            failed_actions: 0,
            pages: Some(PageSnapshot {
                pamup: 50.0,
                nhp: 2,
                psp: 100.0,
            }),
            attrib,
        }
    }

    #[test]
    fn rates_handle_empty_epochs() {
        let s = MetricsSample {
            tlb_l1_hits: 0,
            tlb_l2_hits: 0,
            tlb_misses: 0,
            walk_cache_hits: 0,
            walk_cache_misses: 0,
            ..sample(&[], None)
        };
        assert_eq!(s.tlb_hit_rate(), 1.0);
        assert_eq!(s.walk_cache_hit_rate(), 1.0);
    }

    #[test]
    fn jsonl_lines_are_wellformed() {
        let reqs = [10u64, 20, 30, 40];
        let bd = CycleBreakdown {
            compute: 7,
            ..CycleBreakdown::default()
        };
        let rec = VecRecorder {
            header: Some(RunInfo {
                workload: "UA.B".into(),
                policy: "Carrefour-LP".into(),
                machine: "machine-a".into(),
                threads: 16,
                nodes: 4,
            }),
            samples: vec![sample(&reqs, Some(bd))],
        };
        let text = rec.to_jsonl();
        assert!(text.ends_with('\n'));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"schema\":\"metrics-v3\""));
        assert!(lines[0].contains("\"workload\":\"UA.B\""));
        assert!(lines[1].contains("\"controller_requests\":[10,20,30,40]"));
        assert!(lines[1].contains("\"tlb_hit_rate\":0.95"));
        assert!(lines[1].contains("\"compute\":7"));
        assert!(!lines[1].contains("\"policy\""));
        // Every line is balanced JSON (cheap structural check).
        for l in lines {
            assert_eq!(
                l.matches('{').count(),
                l.matches('}').count(),
                "unbalanced braces in {l}"
            );
        }
    }

    #[test]
    fn absent_sections_serialize_as_null() {
        let reqs = [1u64];
        let s = MetricsSample {
            pages: None,
            ..sample(&reqs, None)
        };
        let j = s.to_json();
        assert!(j.contains("\"pages\":null"));
        assert!(j.contains("\"attrib\":null"));
    }

    #[test]
    fn vec_recorder_keeps_rows_in_order() {
        let reqs = [1u64, 2];
        let mut rec = VecRecorder::new();
        for e in 0..4u32 {
            rec.on_boundary(&EpochBoundary {
                epoch: e,
                metrics: Some(MetricsSample {
                    epoch: e,
                    ..sample(&reqs, None)
                }),
            });
        }
        assert_eq!(rec.samples.len(), 4);
        assert!(rec.samples.windows(2).all(|w| w[0].epoch + 1 == w[1].epoch));
        assert!(rec.header.is_none(), "no run start was announced");
        assert_eq!(
            rec.to_jsonl().lines().count(),
            4,
            "no header line without one"
        );
    }
}
