//! Integration tests of the virtual-memory subsystem: multi-step scenarios
//! spanning the allocator, page table, THP engine and cost model.

use numa_topology::{Interconnect, MachineSpec, NodeId};
use vmem::{
    AddressSpace, PageSize, SpaceError, ThpControls, VirtAddr, VmemConfig, PAGE_2M, PAGE_4K,
};

const BASE: u64 = 64 << 30;

fn machine() -> MachineSpec {
    MachineSpec::homogeneous("vm-int", 2.0, 2, 2, 4 << 30, Interconnect::full_mesh(2))
}

fn space_with(thp: ThpControls) -> AddressSpace {
    let config = VmemConfig {
        thp,
        ..VmemConfig::default()
    };
    AddressSpace::new(&machine(), config)
}

#[test]
fn full_lifecycle_huge_page() {
    // fault(2M) -> split -> migrate sub-pages -> collapse back.
    let mut s = space_with(ThpControls::thp());
    s.map_region(BASE, 4 << 20).unwrap();
    let f = s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
    assert_eq!(f.mapping.size, PageSize::Size2M);

    s.split(VirtAddr(BASE + 0x1000)).unwrap();
    for i in 0..512u64 {
        if i % 2 == 0 {
            s.migrate(VirtAddr(BASE + i * PAGE_4K), NodeId(1)).unwrap();
        }
    }
    // Half the pages moved; the range is still fully mapped and consistent.
    for i in 0..512u64 {
        let m = s.translate(VirtAddr(BASE + i * PAGE_4K)).unwrap();
        assert_eq!(m.size, PageSize::Size4K);
        let expected = if i % 2 == 0 { NodeId(1) } else { NodeId(0) };
        assert_eq!(m.node, expected);
    }

    // Collapse back onto node 1.
    let cost = s.collapse(VirtAddr(BASE), NodeId(1)).unwrap();
    assert!(cost > 0);
    let m = s.translate(VirtAddr(BASE + 0x5000)).unwrap();
    assert_eq!(m.size, PageSize::Size2M);
    assert_eq!(m.node, NodeId(1));
}

#[test]
fn policy_split_inhibits_promotion_until_reenabled() {
    let mut s = space_with(ThpControls::thp());
    s.map_region(BASE, 4 << 20).unwrap();
    s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
    s.split(VirtAddr(BASE)).unwrap();

    // khugepaged must skip the deliberately split range...
    s.thp_mut().promote_2m = true;
    let (collapsed, _) = s.promotion_scan(64);
    assert!(collapsed.is_empty(), "inhibited range was re-collapsed");

    // ...until promotion is explicitly re-enabled.
    s.clear_promote_inhibitions();
    let (collapsed, _) = s.promotion_scan(64);
    assert_eq!(collapsed, vec![VirtAddr(BASE)]);
}

#[test]
fn giant_page_tail_exemption_only_applies_to_giants() {
    // A 16 MiB region gets a 1 GiB page under the libhugetlbfs model...
    let mut s = space_with(ThpControls::giant());
    s.map_region(BASE, 16 << 20).unwrap();
    let f = s.fault(VirtAddr(BASE + 0x4000), NodeId(1)).unwrap();
    assert_eq!(f.mapping.size, PageSize::Size1G);
    assert_eq!(f.mapping.vbase, VirtAddr(BASE));

    // ...but a 1 MiB region must not get a 2 MiB page under THP.
    let mut s = space_with(ThpControls::thp());
    s.map_region(BASE, 1 << 20).unwrap();
    let f = s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
    assert_eq!(f.mapping.size, PageSize::Size4K);
}

#[test]
fn giant_page_split_yields_huge_pages() {
    let mut s = space_with(ThpControls::giant());
    s.map_region(BASE, 64 << 20).unwrap();
    s.fault(VirtAddr(BASE), NodeId(1)).unwrap();
    let (old, _) = s.split(VirtAddr(BASE + (5 << 21))).unwrap();
    assert_eq!(old.size, PageSize::Size1G);
    let m = s.translate(VirtAddr(BASE + (5 << 21))).unwrap();
    assert_eq!(m.size, PageSize::Size2M);
    // Huge children can split further, down to base pages.
    s.split(VirtAddr(BASE + (5 << 21))).unwrap();
    let m = s.translate(VirtAddr(BASE + (5 << 21) + 0x3000)).unwrap();
    assert_eq!(m.size, PageSize::Size4K);
}

#[test]
fn giant_faults_skip_the_zeroing_charge() {
    let machine = machine();
    let giant_cfg = VmemConfig {
        thp: ThpControls::giant(),
        ..VmemConfig::default()
    };
    let mut s = AddressSpace::new(&machine, giant_cfg);
    s.map_region(BASE, 32 << 20).unwrap();
    let giant = s.fault(VirtAddr(BASE), NodeId(1)).unwrap();

    let huge_cfg = VmemConfig::default();
    let mut s2 = AddressSpace::new(&machine, huge_cfg);
    s2.map_region(BASE, 32 << 20).unwrap();
    let huge = s2.fault(VirtAddr(BASE), NodeId(1)).unwrap();

    // A pool-backed 1 GiB fault is *cheaper* than a zeroed 2 MiB fault.
    assert!(
        giant.cycles < huge.cycles,
        "giant {} vs huge {}",
        giant.cycles,
        huge.cycles
    );
}

#[test]
fn migrate_fails_cleanly_when_target_is_full() {
    let mut s = space_with(ThpControls::small_only());
    s.map_region(BASE, 4 << 20).unwrap();
    s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
    // Exhaust node 1 entirely.
    let mut eaten = Vec::new();
    loop {
        match s.fault(
            VirtAddr(BASE + PAGE_4K * (1 + eaten.len() as u64)),
            NodeId(1),
        ) {
            Ok(f) if f.mapping.node == NodeId(1) => eaten.push(f),
            _ => break,
        }
        if eaten.len() > 1024 {
            break; // enough: node 1 still has room, claim below will differ
        }
    }
    // Direct probe: a migration to a full node returns an error and the
    // page stays put (tested via the tiny 1 GiB test machine elsewhere;
    // here we just assert the call is total).
    let before = s.translate(VirtAddr(BASE)).unwrap();
    match s.migrate(VirtAddr(BASE), NodeId(1)) {
        Ok((_, _)) => {
            let after = s.translate(VirtAddr(BASE)).unwrap();
            assert_eq!(after.node, NodeId(1));
        }
        Err(SpaceError::Frame(_)) => {
            let after = s.translate(VirtAddr(BASE)).unwrap();
            assert_eq!(after.node, before.node, "failed migration must not move");
        }
        Err(e) => panic!("unexpected error {e}"),
    }
}

#[test]
fn promotion_scan_makes_progress_across_calls() {
    let mut s = space_with(ThpControls::small_only());
    s.map_region(BASE, 8 << 20).unwrap();
    // Fully populate four 2 MiB ranges with small pages.
    for i in 0..4 * 512u64 {
        s.fault(VirtAddr(BASE + i * PAGE_4K), NodeId(0)).unwrap();
    }
    s.thp_mut().promote_2m = true;
    // With a scan budget of 2 candidates per call, four calls are enough.
    let mut total = 0;
    for _ in 0..4 {
        let (collapsed, _) = s.promotion_scan(2);
        total += collapsed.len();
    }
    assert_eq!(total, 4, "cursor-based scanning must cover all candidates");
    for k in 0..4u64 {
        let m = s.translate(VirtAddr(BASE + k * PAGE_2M)).unwrap();
        assert_eq!(m.size, PageSize::Size2M);
    }
}

#[test]
fn table_memory_shrinks_on_collapse_and_grows_on_split() {
    let mut s = space_with(ThpControls::thp());
    s.map_region(BASE, 4 << 20).unwrap();
    s.fault(VirtAddr(BASE), NodeId(0)).unwrap();
    let before = s.table_bytes();
    s.split(VirtAddr(BASE)).unwrap();
    assert_eq!(s.table_bytes(), before + PAGE_4K, "split adds one PT node");
    s.collapse(VirtAddr(BASE), NodeId(0)).unwrap();
    assert_eq!(s.table_bytes(), before, "collapse retires the PT node");
}

#[test]
fn fault_statistics_partition_by_size() {
    let mut s = space_with(ThpControls::thp());
    s.map_region(BASE, 4 << 20).unwrap();
    s.fault(VirtAddr(BASE), NodeId(0)).unwrap(); // 2M
    let mut s2 = space_with(ThpControls::small_only());
    s2.map_region(BASE, 4 << 20).unwrap();
    s2.fault(VirtAddr(BASE), NodeId(0)).unwrap(); // 4K
    assert_eq!(s.stats().faults_2m, 1);
    assert_eq!(s.stats().faults_4k, 0);
    assert_eq!(s2.stats().faults_2m, 0);
    assert_eq!(s2.stats().faults_4k, 1);
}

#[test]
fn huge_fault_falls_back_over_partially_populated_range() {
    // A small page in the middle of a 2 MiB range (not at the probe
    // points) must not panic the huge-page fault path — it falls back to
    // 4 KiB (found by review: the three-point probe is only a heuristic).
    let mut s = space_with(ThpControls::small_only());
    s.map_region(BASE, 4 << 20).unwrap();
    // Map one page mid-range while THP is off.
    s.fault(VirtAddr(BASE + 0x40_000), NodeId(0)).unwrap();
    // Re-enable THP and fault elsewhere in the same range.
    s.thp_mut().alloc_2m = true;
    let f = s.fault(VirtAddr(BASE + 0x80_000), NodeId(0)).unwrap();
    assert_eq!(f.mapping.size, PageSize::Size4K, "fell back cleanly");
}
