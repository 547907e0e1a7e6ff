//! Experiment harness shared by the `fig*`/`table*` binaries.
//!
//! Provides the policy matrix of the paper's evaluation, a parallel runner
//! (independent simulations fan out across host cores), and the formatting
//! used to print each figure and table in the paper's layout. Results are
//! also written as JSON under `results/` so EXPERIMENTS.md can be
//! regenerated mechanically.

#![forbid(unsafe_code)]

use carrefour::{Carrefour, CarrefourLp, LpParams, Mitosis, NumaPte};
use engine::{NullPolicy, NumaPolicy, SimResult};
use numa_topology::MachineSpec;
use serde::{Deserialize, Serialize};
use vmem::ThpControls;
use workloads::Benchmark;

pub mod attrib;
pub mod experiments;
pub mod forktree;
pub mod golden;
pub mod journal;
pub mod logx;
pub mod report;
pub mod runner;

/// Whether experiment binaries should record the cycle-attribution ledger
/// (`CARREFOUR_ATTRIB=1`). Off by default: attributed results carry the
/// ledger in memory, but the serialized result rows never include it, so
/// existing JSON files and stdout stay byte-identical either way.
pub fn attrib_enabled() -> bool {
    std::env::var_os("CARREFOUR_ATTRIB").is_some_and(|v| v == "1")
}

/// The value of `--flag <value>` or `--flag=<value>` in `args` (its first
/// occurrence): the one command-line value parser of the bench binaries.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return it.next().cloned();
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
            return Some(v.to_string());
        }
    }
    None
}

/// Reads `$name` as a `u32` override. Unset → `None` (auto). Set but
/// unparseable → a loud stderr warning and `None`: a typo'd override
/// silently pinning behaviour to the default is far worse than noise.
/// Used by the bench runner's `CARREFOUR_JOBS`.
pub fn env_override_u32(name: &str) -> Option<u32> {
    parse_env_override(name, std::env::var(name).ok().as_deref())
}

/// The pure half of [`env_override_u32`], split out so tests don't race on
/// process-global environment state.
fn parse_env_override(name: &str, raw: Option<&str>) -> Option<u32> {
    let raw = raw?;
    match raw.trim().parse::<u32>() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!(
                "warning: ignoring {name}={raw:?}: not a non-negative integer, falling back to auto"
            );
            None
        }
    }
}

/// Every system configuration the paper evaluates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Default Linux, 4 KiB pages (every figure's baseline).
    Linux4k,
    /// Linux with transparent huge pages ("THP").
    LinuxThp,
    /// Carrefour on 4 KiB pages (the original system).
    Carrefour4k,
    /// Carrefour running under THP ("Carrefour-2M").
    Carrefour2m,
    /// Carrefour-4K plus the conservative component (Figure 4).
    ConservativeOnly,
    /// Carrefour-2M plus the reactive component (Figure 4).
    ReactiveOnly,
    /// Full Carrefour-LP (Algorithm 1).
    CarrefourLp,
    /// Linux with 1 GiB pages (Section 4.4's libhugetlbfs setup).
    Linux1g,
    /// Carrefour-LP starting from 1 GiB pages (Section 4.4).
    CarrefourLp1g,
    /// Mitosis-style full page-table replication on 4 KiB pages
    /// (Section 13: NUMA-homed page tables).
    Mitosis,
    /// numaPTE-style lazy page-table migration on 4 KiB pages.
    NumaPte,
    /// Carrefour-LP with the threshold-sweep winner (`LpParams::tuned()`,
    /// ROADMAP item 4 / `results/SWEEP_lp.json`).
    CarrefourLpTuned,
}

impl PolicyKind {
    /// The THP switches the simulation starts with under this policy.
    pub fn initial_thp(self) -> ThpControls {
        match self {
            PolicyKind::Linux4k
            | PolicyKind::Carrefour4k
            | PolicyKind::ConservativeOnly
            | PolicyKind::Mitosis
            | PolicyKind::NumaPte => ThpControls::small_only(),
            PolicyKind::LinuxThp
            | PolicyKind::Carrefour2m
            | PolicyKind::ReactiveOnly
            | PolicyKind::CarrefourLp
            | PolicyKind::CarrefourLpTuned => ThpControls::thp(),
            PolicyKind::Linux1g | PolicyKind::CarrefourLp1g => ThpControls::giant(),
        }
    }

    /// Instantiates the policy object.
    pub fn make(self) -> Box<dyn NumaPolicy> {
        match self {
            PolicyKind::Linux4k | PolicyKind::LinuxThp | PolicyKind::Linux1g => {
                Box::new(NullPolicy)
            }
            PolicyKind::Carrefour4k | PolicyKind::Carrefour2m => Box::new(Carrefour::new()),
            PolicyKind::ConservativeOnly => Box::new(CarrefourLp::conservative_only()),
            PolicyKind::ReactiveOnly => Box::new(CarrefourLp::reactive_only()),
            PolicyKind::CarrefourLp | PolicyKind::CarrefourLp1g => Box::new(CarrefourLp::new()),
            PolicyKind::Mitosis => Box::new(Mitosis::new()),
            PolicyKind::NumaPte => Box::new(NumaPte::new()),
            PolicyKind::CarrefourLpTuned => {
                Box::new(CarrefourLp::with_params(LpParams::tuned()).named("carrefour-lp-tuned"))
            }
        }
    }

    /// Every kind, in declaration order (the order legends list them).
    pub fn all() -> [PolicyKind; 12] {
        [
            PolicyKind::Linux4k,
            PolicyKind::LinuxThp,
            PolicyKind::Carrefour4k,
            PolicyKind::Carrefour2m,
            PolicyKind::ConservativeOnly,
            PolicyKind::ReactiveOnly,
            PolicyKind::CarrefourLp,
            PolicyKind::Linux1g,
            PolicyKind::CarrefourLp1g,
            PolicyKind::Mitosis,
            PolicyKind::NumaPte,
            PolicyKind::CarrefourLpTuned,
        ]
    }

    /// Parses a display label back into its kind (case-insensitive), for
    /// CLI arguments like `explain UA.B Linux THP`.
    pub fn parse(label: &str) -> Option<PolicyKind> {
        PolicyKind::all()
            .into_iter()
            .find(|k| k.label().eq_ignore_ascii_case(label))
    }

    /// Display label, matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Linux4k => "Linux",
            PolicyKind::LinuxThp => "THP",
            PolicyKind::Carrefour4k => "Carrefour-4K",
            PolicyKind::Carrefour2m => "Carrefour-2M",
            PolicyKind::ConservativeOnly => "Conservative",
            PolicyKind::ReactiveOnly => "Reactive",
            PolicyKind::CarrefourLp => "Carrefour-LP",
            PolicyKind::Linux1g => "Linux-1G",
            PolicyKind::CarrefourLp1g => "Carrefour-LP-1G",
            PolicyKind::Mitosis => "Mitosis",
            PolicyKind::NumaPte => "numaPTE",
            PolicyKind::CarrefourLpTuned => "Carrefour-LP-Tuned",
        }
    }
}

/// The two evaluation machines.
pub fn machines() -> Vec<MachineSpec> {
    vec![MachineSpec::machine_a(), MachineSpec::machine_b()]
}

/// Runs one (machine, benchmark, policy) cell.
pub fn run_cell(machine: &MachineSpec, bench: Benchmark, kind: PolicyKind) -> SimResult {
    runner::run_spec(&runner::CellSpec::new(machine.clone(), bench, kind))
}

/// One row of an experiment output file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cell {
    /// Machine name ("machine-a" / "machine-b").
    pub machine: String,
    /// Benchmark label as the paper prints it.
    pub benchmark: String,
    /// Policy label as the paper prints it.
    pub policy: String,
    /// The full simulation result.
    pub result: SimResult,
}

/// Builds the cell specs of a full (benchmark × policy) matrix on one
/// machine, in the deterministic (bench-major) submission order.
pub fn matrix_specs(
    machine: &MachineSpec,
    benches: &[Benchmark],
    policies: &[PolicyKind],
) -> Vec<runner::CellSpec> {
    let mut specs = Vec::with_capacity(benches.len() * policies.len());
    for &b in benches {
        for &p in policies {
            specs.push(runner::CellSpec::new(machine.clone(), b, p));
        }
    }
    specs
}

/// Finds the cell for `(benchmark, policy)` in a matrix result.
pub fn find(cells: &[Cell], bench: Benchmark, policy: PolicyKind) -> &Cell {
    cells
        .iter()
        .find(|c| c.benchmark == bench.name() && c.policy == policy.label())
        .unwrap_or_else(|| panic!("missing cell {} / {}", bench.name(), policy.label()))
}

/// Percent improvement of `policy` over `baseline` for one benchmark
/// (the paper's y-axis: positive = faster than default Linux).
pub fn improvement(
    cells: &[Cell],
    bench: Benchmark,
    policy: PolicyKind,
    baseline: PolicyKind,
) -> f64 {
    let p = find(cells, bench, policy);
    let b = find(cells, bench, baseline);
    p.result.improvement_over(&b.result)
}

/// Writes cells as pretty JSON under `results/<name>.json` (best effort —
/// experiments still print their tables when the directory is read-only —
/// but never silent: a failed write warns on stderr with the io::Error).
pub fn save_json(name: &str, cells: &[Cell]) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        logx::warn(&format!("could not create {}: {e}", dir.display()));
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, json::cells_to_json(cells)) {
        logx::warn(&format!("could not write {}: {e}", path.display()));
    }
}

/// Formats a signed percentage the way the paper's figures label bars.
pub fn fmt_pct(v: f64) -> String {
    format!("{v:+.1}%")
}

pub mod json {
    //! JSON serialization of experiment rows (`results/<name>.json`).
    //!
    //! Field names match the Rust struct fields, as serde would have
    //! emitted; escaping and number formatting come from
    //! [`codec::json`], the workspace's one JSON module.

    use super::Cell;
    use codec::json::{esc, num, u64s};
    use engine::{EpochRecord, LifetimeStats, PageMetrics, RobustnessStats, SimResult};
    use profiling::EpochCounters;
    use vmem::VmemStats;

    fn counters(c: &EpochCounters) -> String {
        let fault_cycles: Vec<u64> = c.fault_time.iter().map(|f| f.fault_cycles).collect();
        format!(
            "{{\"epoch_cycles\":{},\"l2_accesses\":{},\"l2_misses\":{},\
             \"l2_walk_misses\":{},\"dram_local\":{},\"dram_remote\":{},\
             \"controller_requests\":{},\"fault_time\":{},\"mem_ops\":{}}}",
            c.epoch_cycles,
            c.l2_accesses,
            c.l2_misses,
            c.l2_walk_misses,
            c.dram_local,
            c.dram_remote,
            u64s(&c.controller_requests),
            u64s(&fault_cycles),
            c.mem_ops,
        )
    }

    fn vmem_stats(v: &VmemStats) -> String {
        format!(
            "{{\"faults_4k\":{},\"faults_2m\":{},\"faults_1g\":{},\
             \"migrations_4k\":{},\"migrations_2m\":{},\"splits\":{},\
             \"collapses\":{},\"bytes_copied\":{},\"table_replications\":{},\
             \"table_migrations\":{}}}",
            v.faults_4k,
            v.faults_2m,
            v.faults_1g,
            v.migrations_4k,
            v.migrations_2m,
            v.splits,
            v.collapses,
            v.bytes_copied,
            v.table_replications,
            v.table_migrations,
        )
    }

    fn epoch(e: &EpochRecord) -> String {
        format!(
            "{{\"counters\":{},\"migrations\":{},\"splits\":{},\"collapses\":{},\
             \"overhead_cycles\":{},\"thp_alloc_enabled\":{},\
             \"thp_promote_enabled\":{},\"failed_actions\":{}}}",
            counters(&e.counters),
            e.migrations,
            e.splits,
            e.collapses,
            e.overhead_cycles,
            e.thp_alloc_enabled,
            e.thp_promote_enabled,
            e.failed_actions,
        )
    }

    fn robustness(r: &RobustnessStats) -> String {
        format!(
            "{{\"failed_migrations\":{},\"failed_splits\":{}}}",
            r.failed_migrations, r.failed_splits,
        )
    }

    fn lifetime(l: &LifetimeStats) -> String {
        format!(
            "{{\"lar\":{},\"imbalance\":{},\"walk_miss_fraction\":{},\
             \"tlb_miss_ratio\":{},\"max_fault_cycles\":{},\
             \"max_fault_fraction\":{},\"total_fault_cycles\":{},\"vmem\":{},\
             \"overhead_cycles\":{},\"ibs_samples\":{},\"total_ops\":{}}}",
            num(l.lar),
            num(l.imbalance),
            num(l.walk_miss_fraction),
            num(l.tlb_miss_ratio),
            l.max_fault_cycles,
            num(l.max_fault_fraction),
            l.total_fault_cycles,
            vmem_stats(&l.vmem),
            l.overhead_cycles,
            l.ibs_samples,
            l.total_ops,
        )
    }

    fn pages(p: &PageMetrics) -> String {
        format!(
            "{{\"pamup\":{},\"nhp\":{},\"psp\":{},\"pamup_4k\":{},\
             \"nhp_4k\":{},\"psp_4k\":{}}}",
            num(p.pamup),
            p.nhp,
            num(p.psp),
            num(p.pamup_4k),
            p.nhp_4k,
            num(p.psp_4k),
        )
    }

    /// Serializes one full simulation result.
    pub fn sim_result(r: &SimResult) -> String {
        let epochs: Vec<String> = r.epochs.iter().map(epoch).collect();
        format!(
            "{{\"workload\":\"{}\",\"policy\":\"{}\",\"machine\":\"{}\",\
             \"runtime_cycles\":{},\"runtime_ms\":{},\"epochs\":[{}],\
             \"lifetime\":{},\"pages\":{},\"robustness\":{}}}",
            esc(&r.workload),
            esc(&r.policy),
            esc(&r.machine),
            r.runtime_cycles,
            num(r.runtime_ms),
            epochs.join(","),
            lifetime(&r.lifetime),
            pages(&r.pages),
            robustness(&r.robustness),
        )
    }

    /// Serializes experiment rows as a pretty-printed JSON array (one row
    /// per line).
    pub fn cells_to_json(cells: &[Cell]) -> String {
        let mut out = String::from("[\n");
        for (i, c) in cells.iter().enumerate() {
            out.push_str("  {\"machine\":\"");
            out.push_str(&esc(&c.machine));
            out.push_str("\",\"benchmark\":\"");
            out.push_str(&esc(&c.benchmark));
            out.push_str("\",\"policy\":\"");
            out.push_str(&esc(&c.policy));
            out.push_str("\",\"result\":");
            out.push_str(&sim_result(&c.result));
            out.push('}');
            if i + 1 < cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_kinds_have_consistent_thp() {
        assert!(!PolicyKind::Linux4k.initial_thp().alloc_2m);
        assert!(PolicyKind::LinuxThp.initial_thp().alloc_2m);
        assert!(PolicyKind::Linux1g.initial_thp().alloc_1g);
        assert!(!PolicyKind::ConservativeOnly.initial_thp().alloc_2m);
        assert!(PolicyKind::ReactiveOnly.initial_thp().alloc_2m);
        assert!(PolicyKind::CarrefourLpTuned.initial_thp().alloc_2m);
    }

    #[test]
    fn labels_are_unique() {
        let kinds = [
            PolicyKind::Linux4k,
            PolicyKind::LinuxThp,
            PolicyKind::Carrefour4k,
            PolicyKind::Carrefour2m,
            PolicyKind::ConservativeOnly,
            PolicyKind::ReactiveOnly,
            PolicyKind::CarrefourLp,
            PolicyKind::Linux1g,
            PolicyKind::CarrefourLp1g,
            PolicyKind::Mitosis,
            PolicyKind::NumaPte,
            PolicyKind::CarrefourLpTuned,
        ];
        let labels: std::collections::BTreeSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn fmt_pct_signs() {
        assert_eq!(fmt_pct(12.34), "+12.3%");
        assert_eq!(fmt_pct(-5.0), "-5.0%");
    }

    #[test]
    fn unset_is_auto() {
        assert_eq!(parse_env_override("CARREFOUR_JOBS", None), None);
    }

    #[test]
    fn valid_values_parse_with_whitespace_tolerance() {
        assert_eq!(parse_env_override("CARREFOUR_JOBS", Some("4")), Some(4));
        assert_eq!(parse_env_override("CARREFOUR_JOBS", Some(" 12 ")), Some(12));
        assert_eq!(parse_env_override("CARREFOUR_JOBS", Some("0")), Some(0));
    }

    #[test]
    fn garbage_warns_and_falls_back_to_auto() {
        for bad in ["four", "-1", "3.5", "", "0x10", "9999999999999999999"] {
            assert_eq!(parse_env_override("CARREFOUR_JOBS", Some(bad)), None);
        }
    }
}
