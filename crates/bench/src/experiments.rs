//! Cell definitions and rendering for every figure/table experiment.
//!
//! Each experiment used to live entirely inside its own binary, repeating
//! the same machine/workload setup and inline threading. Here every
//! experiment is reduced to its two irreducible parts:
//!
//! * **specs** — the list of [`CellSpec`]s it needs, built by a pure
//!   function of the paper's (machine × benchmark × policy) choices;
//! * **render** — a function from the resulting [`Cell`] rows to the
//!   paper-layout stdout table plus the `results/*.json` file.
//!
//! `all_experiments` fetches every experiment via [`all`] (`--only <name>`
//! selects a subset), dedups identical cells across experiments (sound
//! because the simulator is deterministic: equal [`CellSpec::key`]s imply
//! equal results), and runs the union through one shared pool.

use crate::runner::CellSpec;
use crate::{find, improvement, machines, save_json, Cell, PolicyKind};
use numa_topology::MachineSpec;
use workloads::Benchmark;

/// One experiment: its name (`--only` name and `results/` stem), the cells
/// it needs, and how it renders them.
pub struct Experiment {
    /// Experiment name (`fig1`, `table2`, ...).
    pub name: &'static str,
    /// Cells in submission order. Renderers may rely on this order.
    pub specs: Vec<CellSpec>,
    /// Renders the rows (same order as `specs`) to stdout + `results/`.
    pub render: fn(&[Cell]),
}

/// Every experiment `all_experiments` drives, in its traditional order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "fig1",
            specs: fig1_specs(),
            render: fig1_render,
        },
        Experiment {
            name: "table1",
            specs: table1_specs(),
            render: table1_render,
        },
        Experiment {
            name: "fig2",
            specs: fig2_specs(),
            render: fig2_render,
        },
        Experiment {
            name: "table2",
            specs: table2_specs(),
            render: table2_render,
        },
        Experiment {
            name: "fig3",
            specs: fig3_specs(),
            render: fig3_render,
        },
        Experiment {
            name: "fig4",
            specs: fig4_specs(),
            render: fig4_render,
        },
        Experiment {
            name: "table3",
            specs: table3_specs(),
            render: table3_render,
        },
        Experiment {
            name: "fig5",
            specs: fig5_specs(),
            render: fig5_render,
        },
        Experiment {
            name: "overhead",
            specs: overhead_specs(),
            render: overhead_render,
        },
        Experiment {
            name: "verylarge",
            specs: verylarge_specs(),
            render: verylarge_render,
        },
        Experiment {
            name: "figPT",
            specs: fig_pt_specs(),
            render: fig_pt_render,
        },
        Experiment {
            name: "tuned",
            specs: tuned_specs(),
            render: tuned_render,
        },
    ]
}

/// The full benchmark set minus streamcluster (which only appears in the
/// very-large-pages section).
fn suite() -> Vec<Benchmark> {
    Benchmark::all()
        .iter()
        .copied()
        .filter(|b| *b != Benchmark::Streamcluster)
        .collect()
}

/// The rows of one machine, in spec order.
fn on_machine(cells: &[Cell], machine: &MachineSpec) -> Vec<Cell> {
    cells
        .iter()
        .filter(|c| c.machine == machine.name())
        .cloned()
        .collect()
}

/// "(A)" / "(B)" suffix used by the per-row tables.
fn machine_tag(machine: &MachineSpec) -> &'static str {
    if machine.name().ends_with('a') {
        "A"
    } else {
        "B"
    }
}

/// Specs of a (machine × bench × policy) sweep over both machines.
fn both_machines(benches: &[Benchmark], policies: &[PolicyKind]) -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for machine in machines() {
        specs.extend(crate::matrix_specs(&machine, benches, policies));
    }
    specs
}

// ---------------------------------------------------------------- fig1

fn fig1_specs() -> Vec<CellSpec> {
    both_machines(&suite(), &[PolicyKind::Linux4k, PolicyKind::LinuxThp])
}

fn fig1_render(cells: &[Cell]) {
    for machine in machines() {
        println!(
            "== Figure 1 ({}) : THP improvement over Linux ==",
            machine.name()
        );
        let cells = on_machine(cells, &machine);
        for &b in &suite() {
            let imp = improvement(&cells, b, PolicyKind::LinuxThp, PolicyKind::Linux4k);
            println!("{:<16} {:>8.1}", b.name(), imp);
        }
        save_json(&format!("fig1_{}", machine.name()), &cells);
        println!();
    }
}

// -------------------------------------------------------------- table1

/// The paper's Table 1 rows: (benchmark, machine).
fn table1_rows() -> [(Benchmark, MachineSpec); 5] {
    [
        (Benchmark::CgD, MachineSpec::machine_b()),
        (Benchmark::UaC, MachineSpec::machine_b()),
        (Benchmark::Wc, MachineSpec::machine_b()),
        (Benchmark::Ssca, MachineSpec::machine_a()),
        (Benchmark::SpecJbb, MachineSpec::machine_a()),
    ]
}

fn table1_specs() -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for (bench, machine) in table1_rows() {
        specs.push(CellSpec::new(machine.clone(), bench, PolicyKind::Linux4k));
        specs.push(CellSpec::new(machine, bench, PolicyKind::LinuxThp));
    }
    specs
}

fn table1_render(cells: &[Cell]) {
    println!("== Table 1: detailed analysis (machine in parentheses) ==");
    println!(
        "{:<14} {:>9} | {:>15} {:>15} | {:>8} {:>8} | {:>7} {:>7} | {:>8} {:>8}",
        "bench",
        "THP/4K %",
        "fault(Linux)",
        "fault(THP)",
        "walk%4K",
        "walk%THP",
        "LAR 4K",
        "LAR THP",
        "imb 4K",
        "imb THP"
    );
    for (i, (bench, machine)) in table1_rows().into_iter().enumerate() {
        let linux = &cells[2 * i].result;
        let thp = &cells[2 * i + 1].result;
        let label = format!("{} ({})", bench.name(), machine_tag(&machine));
        println!(
            "{:<14} {:>9.1} | {:>8.2}ms {:>4.1}% {:>8.2}ms {:>4.1}% | {:>8.1} {:>8.1} | {:>7.0} {:>7.0} | {:>8.1} {:>8.1}",
            label,
            thp.improvement_over(linux),
            machine.cycles_to_ms(linux.lifetime.max_fault_cycles),
            linux.lifetime.max_fault_fraction * 100.0,
            machine.cycles_to_ms(thp.lifetime.max_fault_cycles),
            thp.lifetime.max_fault_fraction * 100.0,
            linux.lifetime.walk_miss_fraction * 100.0,
            thp.lifetime.walk_miss_fraction * 100.0,
            linux.lifetime.lar * 100.0,
            thp.lifetime.lar * 100.0,
            linux.lifetime.imbalance,
            thp.lifetime.imbalance,
        );
    }
    save_json("table1", cells);
}

// ---------------------------------------------------------------- fig2

fn fig2_specs() -> Vec<CellSpec> {
    both_machines(
        Benchmark::numa_affected(),
        &[
            PolicyKind::Linux4k,
            PolicyKind::LinuxThp,
            PolicyKind::Carrefour2m,
        ],
    )
}

fn fig2_render(cells: &[Cell]) {
    for machine in machines() {
        println!(
            "== Figure 2 ({}) : improvement over Linux ==",
            machine.name()
        );
        println!("{:<16} {:>8} {:>14}", "bench", "THP", "Carrefour-2M");
        let cells = on_machine(cells, &machine);
        for &b in Benchmark::numa_affected() {
            let thp = improvement(&cells, b, PolicyKind::LinuxThp, PolicyKind::Linux4k);
            let c2m = improvement(&cells, b, PolicyKind::Carrefour2m, PolicyKind::Linux4k);
            println!("{:<16} {:>8.1} {:>14.1}", b.name(), thp, c2m);
        }
        save_json(&format!("fig2_{}", machine.name()), &cells);
        println!();
    }
}

// -------------------------------------------------------------- table2

fn table2_specs() -> Vec<CellSpec> {
    crate::matrix_specs(
        &MachineSpec::machine_a(),
        &[Benchmark::SpecJbb, Benchmark::CgD, Benchmark::UaB],
        &[
            PolicyKind::Linux4k,
            PolicyKind::LinuxThp,
            PolicyKind::Carrefour2m,
        ],
    )
}

fn table2_render(cells: &[Cell]) {
    println!("== Table 2 (machine A): page metrics ==");
    println!(
        "{:<10} {:<14} {:>7} {:>5} {:>7} {:>10} {:>7}",
        "bench", "policy", "PAMUP%", "NHP", "PSP%", "imbalance%", "LAR%"
    );
    for (i, c) in cells.iter().enumerate() {
        let r = &c.result;
        println!(
            "{:<10} {:<14} {:>7.1} {:>5} {:>7.1} {:>10.1} {:>7.0}",
            c.benchmark,
            c.policy,
            r.pages.pamup,
            r.pages.nhp,
            r.pages.psp,
            r.lifetime.imbalance,
            r.lifetime.lar * 100.0,
        );
        if i % 3 == 2 {
            println!();
        }
    }
    save_json("table2", cells);
}

// ---------------------------------------------------------------- fig3

fn fig3_specs() -> Vec<CellSpec> {
    both_machines(
        Benchmark::numa_affected(),
        &[
            PolicyKind::Linux4k,
            PolicyKind::LinuxThp,
            PolicyKind::CarrefourLp,
        ],
    )
}

fn fig3_render(cells: &[Cell]) {
    for machine in machines() {
        println!(
            "== Figure 3 ({}) : improvement over Linux ==",
            machine.name()
        );
        println!("{:<16} {:>8} {:>14}", "bench", "THP", "Carrefour-LP");
        let cells = on_machine(cells, &machine);
        for &b in Benchmark::numa_affected() {
            let thp = improvement(&cells, b, PolicyKind::LinuxThp, PolicyKind::Linux4k);
            let lp = improvement(&cells, b, PolicyKind::CarrefourLp, PolicyKind::Linux4k);
            println!("{:<16} {:>8.1} {:>14.1}", b.name(), thp, lp);
        }
        save_json(&format!("fig3_{}", machine.name()), &cells);
        println!();
    }
}

// ---------------------------------------------------------------- fig4

fn fig4_specs() -> Vec<CellSpec> {
    both_machines(
        Benchmark::numa_affected(),
        &[
            PolicyKind::Linux4k,
            PolicyKind::Carrefour2m,
            PolicyKind::ConservativeOnly,
            PolicyKind::ReactiveOnly,
            PolicyKind::CarrefourLp,
        ],
    )
}

fn fig4_render(cells: &[Cell]) {
    for machine in machines() {
        println!(
            "== Figure 4 ({}) : improvement over Linux ==",
            machine.name()
        );
        println!(
            "{:<16} {:>13} {:>13} {:>9} {:>13}",
            "bench", "Carrefour-2M", "Conservative", "Reactive", "Carrefour-LP"
        );
        let cells = on_machine(cells, &machine);
        for &b in Benchmark::numa_affected() {
            let c2m = improvement(&cells, b, PolicyKind::Carrefour2m, PolicyKind::Linux4k);
            let cons = improvement(&cells, b, PolicyKind::ConservativeOnly, PolicyKind::Linux4k);
            let reac = improvement(&cells, b, PolicyKind::ReactiveOnly, PolicyKind::Linux4k);
            let lp = improvement(&cells, b, PolicyKind::CarrefourLp, PolicyKind::Linux4k);
            println!(
                "{:<16} {:>13.1} {:>13.1} {:>9.1} {:>13.1}",
                b.name(),
                c2m,
                cons,
                reac,
                lp
            );
        }
        save_json(&format!("fig4_{}", machine.name()), &cells);
        println!();
    }
}

// -------------------------------------------------------------- table3

fn table3_rows() -> [(Benchmark, MachineSpec); 3] {
    [
        (Benchmark::CgD, MachineSpec::machine_b()),
        (Benchmark::UaB, MachineSpec::machine_a()),
        (Benchmark::UaC, MachineSpec::machine_b()),
    ]
}

const TABLE3_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Linux4k,
    PolicyKind::LinuxThp,
    PolicyKind::Carrefour2m,
    PolicyKind::CarrefourLp,
];

fn table3_specs() -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for (bench, machine) in table3_rows() {
        for kind in TABLE3_POLICIES {
            specs.push(CellSpec::new(machine.clone(), bench, kind));
        }
    }
    specs
}

fn table3_render(cells: &[Cell]) {
    println!("== Table 3: LAR % (left) and imbalance % (right) ==");
    println!(
        "{:<12} {:>7} {:>7} {:>9} {:>9} | {:>7} {:>7} {:>9} {:>9}",
        "bench", "Linux", "THP", "Carr.2M", "Carr.LP", "Linux", "THP", "Carr.2M", "Carr.LP"
    );
    for (i, (bench, machine)) in table3_rows().into_iter().enumerate() {
        let row = &cells[4 * i..4 * i + 4];
        let label = format!("{} ({})", bench.name(), machine_tag(&machine));
        println!(
            "{:<12} {:>7.0} {:>7.0} {:>9.0} {:>9.0} | {:>7.0} {:>7.0} {:>9.0} {:>9.0}",
            label,
            row[0].result.lifetime.lar * 100.0,
            row[1].result.lifetime.lar * 100.0,
            row[2].result.lifetime.lar * 100.0,
            row[3].result.lifetime.lar * 100.0,
            row[0].result.lifetime.imbalance,
            row[1].result.lifetime.imbalance,
            row[2].result.lifetime.imbalance,
            row[3].result.lifetime.imbalance,
        );
    }
    save_json("table3", cells);
}

// ---------------------------------------------------------------- fig5

fn fig5_specs() -> Vec<CellSpec> {
    both_machines(
        Benchmark::numa_unaffected(),
        &[
            PolicyKind::Linux4k,
            PolicyKind::LinuxThp,
            PolicyKind::CarrefourLp,
        ],
    )
}

fn fig5_render(cells: &[Cell]) {
    for machine in machines() {
        println!(
            "== Figure 5 ({}) : improvement over Linux ==",
            machine.name()
        );
        println!("{:<16} {:>8} {:>14}", "bench", "THP", "Carrefour-LP");
        let cells = on_machine(cells, &machine);
        for &b in Benchmark::numa_unaffected() {
            let thp = improvement(&cells, b, PolicyKind::LinuxThp, PolicyKind::Linux4k);
            let lp = improvement(&cells, b, PolicyKind::CarrefourLp, PolicyKind::Linux4k);
            println!("{:<16} {:>8.1} {:>14.1}", b.name(), thp, lp);
        }
        save_json(&format!("fig5_{}", machine.name()), &cells);
        println!();
    }
}

// ------------------------------------------------------------ overhead

fn overhead_specs() -> Vec<CellSpec> {
    both_machines(
        &suite(),
        &[
            PolicyKind::Linux4k,
            PolicyKind::Carrefour2m,
            PolicyKind::ReactiveOnly,
            PolicyKind::CarrefourLp,
        ],
    )
}

/// Percent by which `a` is slower than `b` (positive = overhead).
fn slowdown(cells: &[Cell], bench: Benchmark, a: PolicyKind, b: PolicyKind) -> f64 {
    let fa = find(cells, bench, a);
    let fb = find(cells, bench, b);
    (fa.result.runtime_cycles as f64 / fb.result.runtime_cycles as f64 - 1.0) * 100.0
}

fn overhead_render(cells: &[Cell]) {
    let benches = suite();
    for machine in machines() {
        println!(
            "== Overhead of Carrefour-LP ({}) : positive = slower ==",
            machine.name()
        );
        println!(
            "{:<16} {:>13} {:>16} {:>12}",
            "bench", "vs Reactive", "vs Carrefour-2M", "vs Linux"
        );
        let cells = on_machine(cells, &machine);
        let mut worst: [f64; 3] = [f64::MIN; 3];
        let mut sums: [f64; 3] = [0.0; 3];
        for &b in &benches {
            let v = [
                slowdown(&cells, b, PolicyKind::CarrefourLp, PolicyKind::ReactiveOnly),
                slowdown(&cells, b, PolicyKind::CarrefourLp, PolicyKind::Carrefour2m),
                slowdown(&cells, b, PolicyKind::CarrefourLp, PolicyKind::Linux4k),
            ];
            for i in 0..3 {
                worst[i] = worst[i].max(v[i]);
                sums[i] += v[i];
            }
            println!(
                "{:<16} {:>13.1} {:>16.1} {:>12.1}",
                b.name(),
                v[0],
                v[1],
                v[2]
            );
        }
        let n = benches.len() as f64;
        println!(
            "{:<16} {:>13.1} {:>16.1} {:>12.1}   (worst)",
            "--", worst[0], worst[1], worst[2]
        );
        println!(
            "{:<16} {:>13.1} {:>16.1} {:>12.1}   (mean)",
            "--",
            sums[0] / n,
            sums[1] / n,
            sums[2] / n
        );
        save_json(&format!("overhead_{}", machine.name()), &cells);
        println!();
    }
}

// ----------------------------------------------------------- verylarge

const VERYLARGE_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Linux4k,
    PolicyKind::LinuxThp,
    PolicyKind::Linux1g,
    PolicyKind::CarrefourLp1g,
];

fn verylarge_specs() -> Vec<CellSpec> {
    crate::matrix_specs(
        &MachineSpec::machine_a(),
        &[Benchmark::Ssca, Benchmark::Streamcluster],
        &VERYLARGE_POLICIES,
    )
}

fn verylarge_render(cells: &[Cell]) {
    println!("== Section 4.4 (machine A): 1 GiB pages, improvement over Linux-4K ==");
    println!(
        "{:<14} {:>8} {:>10} {:>17} {:>8} {:>8}",
        "bench", "THP", "Linux-1G", "Carrefour-LP-1G", "imb 1G", "LAR 1G"
    );
    let per = VERYLARGE_POLICIES.len();
    for (i, bench) in [Benchmark::Ssca, Benchmark::Streamcluster]
        .into_iter()
        .enumerate()
    {
        let row = &cells[per * i..per * (i + 1)];
        let base = &row[0].result;
        let giant = &row[2].result;
        println!(
            "{:<14} {:>8.1} {:>10.1} {:>17.1} {:>8.1} {:>8.0}",
            bench.name(),
            row[1].result.improvement_over(base),
            giant.improvement_over(base),
            row[3].result.improvement_over(base),
            giant.lifetime.imbalance,
            giant.lifetime.lar * 100.0,
        );
    }
    save_json("verylarge", cells);
}

// --------------------------------------------------------------- figPT

const FIG_PT_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Linux4k,
    PolicyKind::LinuxThp,
    PolicyKind::Mitosis,
    PolicyKind::NumaPte,
];

fn fig_pt_specs() -> Vec<CellSpec> {
    both_machines(Benchmark::numa_affected(), &FIG_PT_POLICIES)
}

/// Page-table placement (DESIGN.md §13): runtime improvement over Linux
/// plus where walk cycles go. The walk columns need the attribution
/// ledger (`CARREFOUR_ATTRIB=1`); without it they print as `-`, the
/// runtime columns are unaffected.
fn fig_pt_render(cells: &[Cell]) {
    for machine in machines() {
        println!(
            "== Figure PT ({}) : page-table placement, improvement over Linux ==",
            machine.name()
        );
        println!(
            "{:<16} {:>8} {:>9} {:>9} | {:>11} {:>11} {:>11}",
            "bench", "THP", "Mitosis", "numaPTE", "rw% Linux", "rw% Mitosis", "rw% numaPTE"
        );
        let cells = on_machine(cells, &machine);
        for &b in Benchmark::numa_affected() {
            let thp = improvement(&cells, b, PolicyKind::LinuxThp, PolicyKind::Linux4k);
            let mit = improvement(&cells, b, PolicyKind::Mitosis, PolicyKind::Linux4k);
            let pte = improvement(&cells, b, PolicyKind::NumaPte, PolicyKind::Linux4k);
            let rw = |k: PolicyKind| -> String {
                let r = &find(&cells, b, k).result;
                match &r.attribution {
                    Some(a) => {
                        let walk = a.total.walk_cycles();
                        if walk == 0 {
                            "0.0".to_string()
                        } else {
                            format!(
                                "{:.1}",
                                a.total.walk_remote_cycles() as f64 * 100.0 / walk as f64
                            )
                        }
                    }
                    None => "-".to_string(),
                }
            };
            println!(
                "{:<16} {:>8.1} {:>9.1} {:>9.1} | {:>11} {:>11} {:>11}",
                b.name(),
                thp,
                mit,
                pte,
                rw(PolicyKind::Linux4k),
                rw(PolicyKind::Mitosis),
                rw(PolicyKind::NumaPte),
            );
        }
        save_json(&format!("figPT_{}", machine.name()), &cells);
        println!();
    }
}

// --------------------------------------------------------------- tuned

fn tuned_specs() -> Vec<CellSpec> {
    both_machines(
        Benchmark::numa_affected(),
        &[
            PolicyKind::Linux4k,
            PolicyKind::CarrefourLp,
            PolicyKind::CarrefourLpTuned,
        ],
    )
}

/// The sweep winner (`LpParams::tuned()`, results/SWEEP_lp.json) against
/// the paper-threshold Carrefour-LP, both as improvement over Linux-4K.
/// The last column is the per-benchmark delta the Pareto frontier traded
/// on: positive means the tuned thresholds beat the paper's on that
/// scenario.
fn tuned_render(cells: &[Cell]) {
    for machine in machines() {
        println!(
            "== Tuned thresholds ({}) : improvement over Linux ==",
            machine.name()
        );
        println!(
            "{:<16} {:>14} {:>14} {:>9}",
            "bench", "Carrefour-LP", "LP-Tuned", "delta"
        );
        let cells = on_machine(cells, &machine);
        for &b in Benchmark::numa_affected() {
            let lp = improvement(&cells, b, PolicyKind::CarrefourLp, PolicyKind::Linux4k);
            let tuned = improvement(&cells, b, PolicyKind::CarrefourLpTuned, PolicyKind::Linux4k);
            println!(
                "{:<16} {:>14.1} {:>14.1} {:>9.1}",
                b.name(),
                lp,
                tuned,
                tuned - lp
            );
        }
        save_json(&format!("tuned_{}", machine.name()), &cells);
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_are_unique() {
        let names: std::collections::BTreeSet<_> = all().iter().map(|e| e.name).collect();
        assert_eq!(names.len(), all().len());
    }

    #[test]
    fn every_experiment_has_cells() {
        for e in all() {
            assert!(!e.specs.is_empty(), "{} has no cells", e.name);
        }
    }

    #[test]
    fn dedup_keys_collapse_repeated_cells() {
        // The same (machine-a, UA.B, Linux4k) cell appears in several
        // experiments; its key must be identical everywhere so
        // all_experiments runs it once.
        let mut count = 0;
        let probe = CellSpec::new(
            MachineSpec::machine_a(),
            Benchmark::UaB,
            PolicyKind::Linux4k,
        )
        .key();
        for e in all() {
            count += e.specs.iter().filter(|s| s.key() == probe).count();
        }
        assert!(count >= 3, "expected UA.B/Linux4k in several experiments");
    }
}
