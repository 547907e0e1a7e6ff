//! Paper-claim checks: findings of the source paper that the simulator
//! reproduces, asserted on the simulated numbers themselves. The golden
//! digests pin behaviour bit for bit, but re-blessing them would accept
//! any drift; these tests fail when a drift flips a published finding.

use carrefour_bench::{run_cell, PolicyKind};
use numa_topology::MachineSpec;
use workloads::Benchmark;

/// Table 2, CG.D on machine A: no hot page exists with 4 KiB pages; THP
/// folds the hot data into at least three hot huge pages, and
/// Carrefour-2M cannot migrate its way out of them ("0 → 3, unfixable";
/// the reproduction measures 0 / 3 / 3, EXPERIMENTS.md).
#[test]
fn table2_cg_d_hot_pages_appear_under_thp_and_survive_carrefour_2m() {
    let machine = MachineSpec::machine_a();
    let nhp = |kind: PolicyKind| run_cell(&machine, Benchmark::CgD, kind).pages.nhp;
    let (linux, thp, carrefour) = (
        nhp(PolicyKind::Linux4k),
        nhp(PolicyKind::LinuxThp),
        nhp(PolicyKind::Carrefour2m),
    );
    assert_eq!(linux, 0, "CG.D under Linux-4K must have no hot pages");
    assert!(thp >= 3, "CG.D under THP: {thp} hot pages, paper has 3");
    assert!(
        carrefour >= 3,
        "CG.D under Carrefour-2M: {carrefour} hot pages, paper says unfixable (3)"
    );
}
