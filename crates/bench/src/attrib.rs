//! Cycle-attribution reporting: the `attrib-v1` file schema and the
//! automatic policy-delta narrative (`explain` binary, `all_experiments
//! --attrib`).
//!
//! A report compares two cells of the same benchmark on the same machine —
//! a *baseline* policy and a *candidate* — using their attribution ledgers
//! ([`engine::AttributionLedger`], DESIGN.md §11). Because the ledger's
//! buckets sum exactly to the runtime, the runtime delta between two
//! policies decomposes exactly into per-cause deltas; the narrative simply
//! reads the decomposition back ("THP saves N walk cycles but adds M
//! queueing cycles on node 2") instead of guessing from aggregate
//! counters. Reports are written as `results/ATTRIB_*.json`, schema
//! `attrib-v1` (documented in DESIGN.md §11).

use crate::Cell;
use codec::json::esc;
use profiling::CycleBreakdown;
use std::path::{Path, PathBuf};

/// The schema tag every attribution report carries.
pub const SCHEMA: &str = "attrib-v1";

/// One cause *group* of the narrative: a named, disjoint union of ledger
/// buckets. Groups exist because a human diagnosis speaks in architectural
/// causes ("page walks got cheaper") rather than individual buckets
/// (`walk_pwc_hit_local` vs `walk_pwc_miss_remote`).
#[derive(Clone, Copy, Debug)]
pub struct CauseGroup {
    /// Display name.
    pub name: &'static str,
    /// Sum of this group's buckets.
    pub base: u64,
    /// Same for the candidate.
    pub cand: u64,
}

impl CauseGroup {
    /// Signed cycle delta, candidate minus baseline (positive = the
    /// candidate spends more here).
    pub fn delta(&self) -> i128 {
        self.cand as i128 - self.base as i128
    }
}

/// Splits two breakdowns into the narrative's disjoint cause groups.
/// Exhaustive: group sums equal `CycleBreakdown::total()` on both sides,
/// so the groups' deltas sum exactly to the runtime delta.
pub fn cause_groups(base: &CycleBreakdown, cand: &CycleBreakdown) -> Vec<CauseGroup> {
    let g = |name, f: fn(&CycleBreakdown) -> u64| CauseGroup {
        name,
        base: f(base),
        cand: f(cand),
    };
    vec![
        g("compute", |b| b.compute),
        g("cache hits", |b| b.cache_l1 + b.cache_l2 + b.cache_l3),
        g("DRAM service", |b| b.dram_service),
        g("controller queueing", |b| b.ctrl_queue),
        g("interconnect hops", |b| b.interconnect),
        // Local and remote walk cycles are separate causes: table-placement
        // policies (mitosis, numapte) act on the remote share only, and
        // the figPT acceptance check reads this group's delta directly.
        g("TLB lookup + local page walk", |b| {
            b.tlb_lookup + b.walk_local_cycles()
        }),
        g("remote page walks", |b| b.walk_remote_cycles()),
        g("page faults", |b| b.fault),
        g("policy + daemon overhead", |b| {
            b.khugepaged
                + b.ibs_sampling
                + b.policy_migration
                + b.policy_split
                + b.policy_replication
        }),
    ]
}

/// The memory controller (node index) with the most requests over the
/// whole run, with its request count — the narrative's "on node N".
pub fn hottest_controller(cell: &Cell) -> Option<(usize, u64)> {
    let mut totals: Vec<u64> = Vec::new();
    for e in &cell.result.epochs {
        for (i, &r) in e.counters.controller_requests.iter().enumerate() {
            if i >= totals.len() {
                totals.resize(i + 1, 0);
            }
            totals[i] += r;
        }
    }
    let (node, &requests) = totals.iter().enumerate().max_by_key(|&(_, &r)| r)?;
    (requests > 0).then_some((node, requests))
}

fn ledger(cell: &Cell) -> &engine::AttributionLedger {
    cell.result.attribution.as_ref().unwrap_or_else(|| {
        panic!(
            "{}/{} has no attribution ledger; run with CARREFOUR_ATTRIB=1 \
             (the explain binary sets SimConfig.attribution itself)",
            cell.benchmark, cell.policy
        )
    })
}

fn group_count(cycles: u64) -> String {
    // Thousands separators make six-to-nine digit cycle counts readable.
    let s = cycles.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

fn signed_count(d: i128) -> String {
    if d < 0 {
        format!("-{}", group_count(d.unsigned_abs() as u64))
    } else {
        format!("+{}", group_count(d as u64))
    }
}

/// The dominant cause of a runtime delta: the group contributing the most
/// cycles *in the delta's direction* (largest growth when the candidate is
/// slower, largest saving when it is faster). `None` when the runtimes are
/// equal.
pub fn dominant_cause(groups: &[CauseGroup], runtime_delta: i128) -> Option<&CauseGroup> {
    if runtime_delta > 0 {
        groups
            .iter()
            .filter(|g| g.delta() > 0)
            .max_by_key(|g| g.delta())
    } else if runtime_delta < 0 {
        groups
            .iter()
            .filter(|g| g.delta() < 0)
            .min_by_key(|g| g.delta())
    } else {
        None
    }
}

/// Renders the human-readable diagnosis of `cand` vs `base`.
///
/// The decomposition is exact (conservation invariant), so the listed
/// per-cause deltas sum to the runtime delta — every line is a statement
/// about where real cycles went, not a heuristic.
pub fn narrative(base: &Cell, cand: &Cell) -> String {
    let lb = ledger(base);
    let lc = ledger(cand);
    let rb = base.result.runtime_cycles;
    let rc = cand.result.runtime_cycles;
    let delta = rc as i128 - rb as i128;
    let groups = cause_groups(&lb.total, &lc.total);

    let mut out = String::new();
    let verdict = if delta > 0 {
        format!("{:.1}% slower than", (rc as f64 / rb as f64 - 1.0) * 100.0)
    } else if delta < 0 {
        format!("{:.1}% faster than", (rb as f64 / rc as f64 - 1.0) * 100.0)
    } else {
        "exactly as fast as".to_string()
    };
    out.push_str(&format!(
        "{} on {}: {} is {} {} ({} vs {} cycles, {} wall).\n",
        base.benchmark,
        base.machine,
        cand.policy,
        verdict,
        base.policy,
        group_count(rc),
        group_count(rb),
        signed_count(delta),
    ));

    // Per-cause lines, largest magnitude first; groups below 0.5 % of the
    // baseline runtime are summarized in one closing line.
    let mut sorted = groups.clone();
    sorted.sort_by_key(|g| std::cmp::Reverse(g.delta().unsigned_abs()));
    let threshold = (rb / 200).max(1) as i128;
    let mut minor: i128 = 0;
    for g in &sorted {
        let d = g.delta();
        if d == 0 {
            continue;
        }
        if d.abs() < threshold {
            minor += d;
            continue;
        }
        let verb = if d < 0 { "saves" } else { "adds" };
        let mut line = format!(
            "  {} {} {} {} cycles",
            cand.policy,
            verb,
            group_count(d.unsigned_abs() as u64),
            g.name
        );
        if g.name == "controller queueing" {
            let (hot_b, hot_c) = (hottest_controller(base), hottest_controller(cand));
            if let Some((node, _)) = if d > 0 { hot_c } else { hot_b } {
                line.push_str(&format!(" (hottest controller: node {node})"));
            }
        }
        line.push('\n');
        out.push_str(&line);
    }
    if minor != 0 {
        out.push_str(&format!(
            "  remaining causes below 0.5% each: {} cycles combined\n",
            signed_count(minor)
        ));
    }
    if let Some(dom) = dominant_cause(&groups, delta) {
        let direction = if delta > 0 { "growth" } else { "reduction" };
        out.push_str(&format!(
            "  dominant cause: {} {} ({} cycles)\n",
            dom.name,
            direction,
            signed_count(dom.delta())
        ));
    }
    out
}

fn side_json(cell: &Cell) -> String {
    let l = ledger(cell);
    let epoch_walls: Vec<String> = l.epochs.iter().map(|e| e.wall.to_json()).collect();
    format!(
        "{{\"policy\":\"{}\",\"runtime_cycles\":{},\"prelude\":{},\"total\":{},\
         \"epoch_walls\":[{}]}}",
        esc(&cell.policy),
        cell.result.runtime_cycles,
        l.prelude.to_json(),
        l.total.to_json(),
        epoch_walls.join(","),
    )
}

/// Serializes one baseline-vs-candidate report as `attrib-v1` JSON.
pub fn report_json(base: &Cell, cand: &Cell) -> String {
    assert_eq!(
        base.benchmark, cand.benchmark,
        "cells compare one benchmark"
    );
    assert_eq!(base.machine, cand.machine, "cells compare one machine");
    let (lb, lc) = (ledger(base), ledger(cand));
    let delta = cand.result.runtime_cycles as i128 - base.result.runtime_cycles as i128;
    let bucket_delta: Vec<String> = lb
        .total
        .pairs()
        .iter()
        .zip(lc.total.pairs())
        .map(|((k, vb), (_, vc))| format!("\"{k}\":{}", vc as i128 - *vb as i128))
        .collect();
    let groups = cause_groups(&lb.total, &lc.total);
    let dominant = dominant_cause(&groups, delta)
        .map(|g| format!("\"{}\"", esc(g.name)))
        .unwrap_or_else(|| "null".to_string());
    let hot = |c: &Cell| {
        hottest_controller(c)
            .map(|(n, r)| format!("{{\"node\":{n},\"requests\":{r}}}"))
            .unwrap_or_else(|| "null".to_string())
    };
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"benchmark\":\"{}\",\"machine\":\"{}\",\
         \"baseline\":{},\"candidate\":{},\
         \"delta\":{{\"runtime_cycles\":{},\"buckets\":{{{}}}}},\
         \"hottest_controller\":{{\"baseline\":{},\"candidate\":{}}},\
         \"dominant_cause\":{},\"narrative\":\"{}\"}}",
        esc(&base.benchmark),
        esc(&base.machine),
        side_json(base),
        side_json(cand),
        delta,
        bucket_delta.join(","),
        hot(base),
        hot(cand),
        dominant,
        esc(&narrative(base, cand)),
    )
}

/// File-name stem of a report (`ATTRIB_ua_b_linux_vs_thp`).
pub fn report_stem(base: &Cell, cand: &Cell) -> String {
    let clean = |s: &str| {
        s.to_ascii_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect::<String>()
    };
    format!(
        "ATTRIB_{}_{}_vs_{}",
        clean(&base.benchmark),
        clean(&base.policy),
        clean(&cand.policy)
    )
}

/// Writes one report under `dir` and returns its path.
pub fn write_report(dir: &Path, base: &Cell, cand: &Cell) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", report_stem(base, cand)));
    std::fs::write(&path, report_json(base, cand))?;
    Ok(path)
}

/// Serializes attributed cells as the `attrib-v1` *baseline* file
/// (`results/BENCH_attrib_baseline.json`): one row per cell with its
/// runtime and bucket totals. CI's conservation-checked reference of what
/// the golden configurations' cycle composition looks like.
pub fn baseline_json(cells: &[Cell]) -> String {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "  {{\"machine\":\"{}\",\"benchmark\":\"{}\",\"policy\":\"{}\",\
                 \"runtime_cycles\":{},\"total\":{}}}",
                esc(&c.machine),
                esc(&c.benchmark),
                esc(&c.policy),
                c.result.runtime_cycles,
                ledger(c).total.to_json(),
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"cells\":[\n{}\n]}}",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{AttributionLedger, EpochAttribution};

    fn cell(policy: &str, runtime: u64, total: CycleBreakdown) -> Cell {
        let r = engine::SimResult {
            workload: "UA.B".into(),
            policy: policy.to_string(),
            machine: "machine-a".into(),
            runtime_cycles: runtime,
            runtime_ms: 0.0,
            epochs: Vec::new(),
            lifetime: Default::default(),
            pages: Default::default(),
            robustness: Default::default(),
            attribution: Some(AttributionLedger {
                prelude: CycleBreakdown::default(),
                epochs: vec![EpochAttribution {
                    wall: total,
                    cores: Vec::new(),
                }],
                total,
                core_totals: Vec::new(),
            }),
        };
        Cell {
            machine: "machine-a".into(),
            benchmark: "UA.B".into(),
            policy: policy.to_string(),
            result: r,
        }
    }

    fn breakdown(walk: u64, queue: u64, dram: u64) -> CycleBreakdown {
        CycleBreakdown {
            walk_pwc_miss_local: walk,
            ctrl_queue: queue,
            dram_service: dram,
            compute: 1000,
            ..CycleBreakdown::default()
        }
    }

    #[test]
    fn cause_groups_are_exhaustive() {
        let mut a = CycleBreakdown::default();
        // Prime-fill every bucket so a dropped one breaks the sums.
        for (i, (_, v)) in a.pairs().iter().enumerate() {
            let _ = v;
            let field = 3 + 2 * i as u64;
            match i {
                0 => a.compute = field,
                1 => a.tlb_lookup = field,
                2 => a.cache_l1 = field,
                3 => a.cache_l2 = field,
                4 => a.cache_l3 = field,
                5 => a.dram_service = field,
                6 => a.ctrl_queue = field,
                7 => a.interconnect = field,
                8 => a.walk_pwc_hit_local = field,
                9 => a.walk_pwc_hit_remote = field,
                10 => a.walk_pwc_miss_local = field,
                11 => a.walk_pwc_miss_remote = field,
                12 => a.fault = field,
                13 => a.khugepaged = field,
                14 => a.ibs_sampling = field,
                15 => a.policy_migration = field,
                16 => a.policy_split = field,
                17 => a.policy_replication = field,
                _ => unreachable!("new bucket not covered by cause groups"),
            }
        }
        let groups = cause_groups(&a, &CycleBreakdown::default());
        let base_sum: u64 = groups.iter().map(|g| g.base).sum();
        assert_eq!(
            base_sum,
            a.total(),
            "cause groups must partition the ledger"
        );
        let delta_sum: i128 = groups.iter().map(|g| g.delta()).sum();
        assert_eq!(delta_sum, -(a.total() as i128));
    }

    #[test]
    fn narrative_names_the_dominant_cause() {
        // A THP "regression dominated by queueing growth": walk time down,
        // queueing way up.
        let base = cell("Linux", 11_000, breakdown(4_000, 1_000, 5_000));
        let cand = cell("THP", 12_500, breakdown(500, 6_000, 5_000));
        let n = narrative(&base, &cand);
        assert!(n.contains("THP is 13.6% slower than Linux"), "{n}");
        assert!(
            n.contains("THP saves 3,500 TLB lookup + local page walk cycles"),
            "{n}"
        );
        assert!(
            n.contains("THP adds 5,000 controller queueing cycles"),
            "{n}"
        );
        assert!(
            n.contains("dominant cause: controller queueing growth"),
            "{n}"
        );

        // The win case: walk reduction dominates.
        let cand2 = cell("THP", 7_100, breakdown(200, 1_100, 4_800));
        let n2 = narrative(&base, &cand2);
        assert!(n2.contains("faster"), "{n2}");
        assert!(
            n2.contains("dominant cause: TLB lookup + local page walk reduction"),
            "{n2}"
        );
    }

    #[test]
    fn narrative_of_equal_runtimes_says_as_fast_as() {
        let base = cell("Linux", 11_000, breakdown(4_000, 1_000, 5_000));
        let cand = cell("THP", 11_000, breakdown(3_000, 2_000, 5_000));
        let n = narrative(&base, &cand);
        assert!(n.contains("THP is exactly as fast as Linux ("), "{n}");
    }

    #[test]
    fn report_json_is_schema_tagged_and_balanced() {
        let base = cell("Linux", 11_000, breakdown(4_000, 1_000, 5_000));
        let cand = cell("THP", 12_500, breakdown(500, 6_000, 5_000));
        let j = report_json(&base, &cand);
        assert!(j.starts_with("{\"schema\":\"attrib-v1\""));
        assert!(
            j.contains("\"dominant_cause\":\"controller queueing\""),
            "{j}"
        );
        assert!(j.contains("\"ctrl_queue\":5000"), "{j}");
        let open = j.matches('{').count();
        let close = j.matches('}').count();
        assert_eq!(open, close, "unbalanced JSON object braces");
        assert_eq!(report_stem(&base, &cand), "ATTRIB_ua_b_linux_vs_thp");
    }
}
