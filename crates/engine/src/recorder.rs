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
//! [`JsonlRecorder`] serializes the stream next to the trace output's
//! format: one `{"metrics": "run_start", ...}` header line, one
//! `{"metrics": "epoch", ...}` line per boundary. Schema in DESIGN.md §16.

use crate::sim::{EpochBoundary, RunHook};
use codec::json::{self, esc, num, u64s};
use profiling::CycleBreakdown;
use std::io::Write;

/// Identity of the run a recorder is attached to — the `run_start`
/// header of a `metrics-v3` stream.
#[derive(Clone, Copy, Debug)]
pub struct RunInfo<'a> {
    /// Workload name (`WorkloadSpec::name`).
    pub workload: &'a str,
    /// Policy display name ([`crate::NumaPolicy::name`]).
    pub policy: &'a str,
    /// Machine name.
    pub machine: &'a str,
    /// Worker thread count of the workload.
    pub threads: usize,
    /// NUMA node count of the machine.
    pub nodes: usize,
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
#[derive(Clone, Copy, Debug)]
pub struct MetricsSample<'a> {
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
    pub controller_requests: &'a [u64],
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
    pub attrib: Option<&'a CycleBreakdown>,
}

impl MetricsSample<'_> {
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
            u64s(self.controller_requests),
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
        match self.attrib {
            Some(bd) => s.push_str(&format!(",\"attrib\":{}", bd.to_json())),
            None => s.push_str(",\"attrib\":null"),
        }
        s.push('}');
        s
    }
}

/// An owned copy of one sample — what [`VecRecorder`] stores and
/// report tooling charts from.
#[derive(Clone, Debug)]
pub struct MetricsRow {
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
    /// TLB hit rate this epoch.
    pub tlb_hit_rate: f64,
    /// Walk-cache hit rate this epoch.
    pub walk_cache_hit_rate: f64,
    /// Pages migrated at this boundary.
    pub migrations: u64,
    /// Pages split at this boundary.
    pub splits: u64,
    /// khugepaged collapses at this boundary.
    pub collapses: u64,
    /// Failed policy actions at this boundary.
    pub failed_actions: u64,
    /// PAMUP/NHP/PSP, when page stats were on.
    pub pages: Option<PageSnapshot>,
    /// This epoch's attribution delta, when the ledger was on.
    pub attrib: Option<CycleBreakdown>,
}

impl MetricsRow {
    fn from_sample(s: &MetricsSample<'_>) -> Self {
        MetricsRow {
            epoch: s.epoch,
            epoch_cycles: s.epoch_cycles,
            mem_ops: s.mem_ops,
            imbalance: s.imbalance,
            lar: s.lar,
            walk_miss_fraction: s.walk_miss_fraction,
            controller_requests: s.controller_requests.to_vec(),
            tlb_hit_rate: s.tlb_hit_rate(),
            walk_cache_hit_rate: s.walk_cache_hit_rate(),
            migrations: s.migrations,
            splits: s.splits,
            collapses: s.collapses,
            failed_actions: s.failed_actions,
            pages: s.pages,
            attrib: s.attrib.copied(),
        }
    }
}

/// Buffers every sample in memory — the report binary's recorder.
#[derive(Default)]
pub struct VecRecorder {
    /// The run header, when one was announced.
    pub header: Option<(String, String, String)>,
    /// One row per epoch boundary, in order.
    pub rows: Vec<MetricsRow>,
}

impl VecRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        VecRecorder::default()
    }

    /// Stores one sample as a row.
    pub fn record(&mut self, sample: &MetricsSample<'_>) {
        self.rows.push(MetricsRow::from_sample(sample));
    }
}

impl RunHook for VecRecorder {
    fn on_run_start(&mut self, info: &RunInfo<'_>) {
        self.header = Some((
            info.workload.to_string(),
            info.policy.to_string(),
            info.machine.to_string(),
        ));
    }

    fn wants_metrics(&self) -> bool {
        true
    }

    fn on_boundary(&mut self, b: &EpochBoundary<'_>) {
        if let Some(sample) = &b.metrics {
            self.record(sample);
        }
    }
}

/// Streams `metrics-v3` JSONL to any writer: a header line, then one
/// [`MetricsSample::to_json`] line per boundary, with [`json::Lines`]'s
/// keep-the-first-error policy (inspect via [`JsonlRecorder::error`]; a
/// recorder must never panic mid-simulation over a full disk). A metrics
/// writer only, so it cannot be passed where a trace sink is expected.
pub struct JsonlRecorder<W: Write>(json::Lines<W>);

impl<W: Write> JsonlRecorder<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonlRecorder(json::Lines::new(out))
    }

    /// The first write error, if any occurred.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.0.error()
    }

    /// Unwraps the writer (callers that need the file back).
    pub fn into_inner(self) -> W {
        self.0.into_inner()
    }

    /// Writes one sample as a `metrics-v3` epoch line.
    pub fn record(&mut self, sample: &MetricsSample<'_>) {
        self.0.line(&sample.to_json());
    }
}

impl<W: Write> RunHook for JsonlRecorder<W> {
    fn on_run_start(&mut self, info: &RunInfo<'_>) {
        self.0.line(&format!(
            "{{\"metrics\":\"run_start\",\"schema\":\"metrics-v3\",\
             \"workload\":\"{}\",\"policy\":\"{}\",\"machine\":\"{}\",\
             \"threads\":{},\"nodes\":{}}}",
            esc(info.workload),
            esc(info.policy),
            esc(info.machine),
            info.threads,
            info.nodes,
        ));
    }

    fn wants_metrics(&self) -> bool {
        true
    }

    fn on_boundary(&mut self, b: &EpochBoundary<'_>) {
        if let Some(sample) = &b.metrics {
            self.record(sample);
        }
    }

    fn finish(&mut self) {
        self.0.flush();
    }
}

/// Forwards run start, boundaries and finish to two hooks (tee).
/// Checkpoint requests are not forwarded.
pub struct TeeHook<'a> {
    a: &'a mut dyn RunHook,
    b: &'a mut dyn RunHook,
}

impl<'a> TeeHook<'a> {
    /// Combines two hooks.
    pub fn new(a: &'a mut dyn RunHook, b: &'a mut dyn RunHook) -> Self {
        TeeHook { a, b }
    }
}

impl RunHook for TeeHook<'_> {
    fn on_run_start(&mut self, info: &RunInfo<'_>) {
        self.a.on_run_start(info);
        self.b.on_run_start(info);
    }

    fn wants_metrics(&self) -> bool {
        self.a.wants_metrics() || self.b.wants_metrics()
    }

    fn on_boundary(&mut self, b: &EpochBoundary<'_>) {
        self.a.on_boundary(b);
        self.b.on_boundary(b);
    }

    fn finish(&mut self) {
        self.a.finish();
        self.b.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<'a>(reqs: &'a [u64], attrib: Option<&'a CycleBreakdown>) -> MetricsSample<'a> {
        MetricsSample {
            epoch: 3,
            epoch_cycles: 1000,
            mem_ops: 50,
            imbalance: 12.5,
            lar: 0.75,
            walk_miss_fraction: 0.1,
            controller_requests: reqs,
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
        let s = sample(&reqs, Some(&bd));
        let mut rec = JsonlRecorder::new(Vec::new());
        rec.on_run_start(&RunInfo {
            workload: "UA.B",
            policy: "Carrefour-LP",
            machine: "machine-a",
            threads: 16,
            nodes: 4,
        });
        rec.record(&s);
        rec.finish();
        assert!(rec.error().is_none());
        let text = String::from_utf8(rec.into_inner()).unwrap();
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
            let s = MetricsSample {
                epoch: e,
                ..sample(&reqs, None)
            };
            rec.record(&s);
        }
        assert_eq!(rec.rows.len(), 4);
        assert!(rec.rows.windows(2).all(|w| w[0].epoch + 1 == w[1].epoch));
    }

    #[test]
    fn write_errors_are_stored_not_raised() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _b: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let reqs = [1u64];
        let mut rec = JsonlRecorder::new(Failing);
        rec.record(&sample(&reqs, None));
        rec.finish();
        assert!(rec.error().is_some());
    }
}
