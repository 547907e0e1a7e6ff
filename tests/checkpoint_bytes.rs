//! Pins the `ckpt-v1` checkpoint byte format. The payload encodes the
//! TLBs and page tables in a canonical order (TLB sets MRU-first, table
//! entries by ascending slot index), so a change to how those structures
//! are *stored* must leave these bytes alone. Re-pinning is an intended
//! format or behaviour change only: see DESIGN.md §9, "When to bless".

use carrefour_bench::runner::CellSpec;
use carrefour_bench::PolicyKind;
use engine::Simulation;
use numa_topology::MachineSpec;
use workloads::Benchmark;

/// FNV-1a 64 and length of the checkpoint bytes at the boundary that
/// begins `epoch`, for a cell under its default `CellSpec` config.
fn checkpoint_digest(
    machine: MachineSpec,
    bench: Benchmark,
    kind: PolicyKind,
    epoch: u32,
) -> (u64, usize) {
    let spec = CellSpec::new(machine, bench, kind);
    let mut config = spec.sim_config();
    // `sim_config` reads CARREFOUR_ATTRIB; the pin is for the default.
    config.attribution = false;
    let wspec = spec.workload.spec(&spec.machine);
    let mut policy = spec.make_policy();
    let ckpt = Simulation::checkpoint_at(&spec.machine, &wspec, &config, policy.as_mut(), epoch)
        .expect("the cell runs past the pinned epoch");
    let bytes = ckpt.to_bytes();
    (codec::fnv1a(&bytes), bytes.len())
}

#[test]
fn machine_a_ua_b_linux_4k_checkpoint_bytes_are_pinned() {
    let (digest, len) = checkpoint_digest(
        MachineSpec::machine_a(),
        Benchmark::UaB,
        PolicyKind::Linux4k,
        3,
    );
    assert_eq!(
        (digest, len),
        (0x9258_3c48_af16_1f03, 2_332_070),
        "got {digest:016x} ({len} bytes)"
    );
}

#[test]
fn machine_b_cg_d_carrefour_lp_checkpoint_bytes_are_pinned() {
    let (digest, len) = checkpoint_digest(
        MachineSpec::machine_b(),
        Benchmark::CgD,
        PolicyKind::CarrefourLp,
        3,
    );
    assert_eq!(
        (digest, len),
        (0xdb2f_b195_a96e_c591, 3_826_576),
        "got {digest:016x} ({len} bytes)"
    );
}
