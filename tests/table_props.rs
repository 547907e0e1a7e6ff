//! Property tests for NUMA-homed page tables (DESIGN.md §13): replica
//! coherence under random operation sequences, and the full Mitosis /
//! numaPTE policies surviving a full node.
//!
//! The central invariant: table replication and migration move *table*
//! frames only. Whatever sequence of faults, splits, collapses, data
//! migrations, table sweeps and table moves runs, a walk resolved
//! through any node's replica must reference the same entry offset as
//! the primary walk and end at the same leaf translation, and
//! `AddressSpace::validate` must hold (no dangling replica frames).

use carrefour_lp::prelude::*;
use numa_topology::Interconnect;
use proptest::prelude::*;
use vmem::{AddressSpace, VmemConfig, PAGE_4K};

const BASE: u64 = 64 << 30;
const REGION_BYTES: u64 = 8 << 20;
const NODES: u16 = 4;

fn machine() -> MachineSpec {
    MachineSpec::homogeneous(
        "table-props",
        2.0,
        4,
        2,
        4 << 30,
        Interconnect::full_mesh(4),
    )
}

/// Applies the `i`-th random mutation drawn from `rng`. Individual ops
/// may legitimately fail (unmapped, already split, wrong size, busy
/// allocator); the property is about what the *space* guarantees
/// afterwards, not about any op succeeding.
fn apply_random_op(space: &mut AddressSpace, rng: &mut CaseRng) {
    let off = rng.next_u64() % REGION_BYTES;
    let node = NodeId((rng.next_u64() % u64::from(NODES)) as u16);
    match rng.next_u64() % 13 {
        0..=3 => {
            let _ = space.fault(VirtAddr(BASE + off), node);
        }
        4 | 5 => {
            let _ = space.split(VirtAddr(BASE + off));
        }
        6 => {
            let vbase = (BASE + off) & !((2u64 << 20) - 1);
            let _ = space.collapse(VirtAddr(vbase), node);
        }
        7 | 8 => {
            let _ = space.migrate(VirtAddr(BASE + off), node);
        }
        9 | 10 => {
            space.replicate_tables(usize::from(NODES));
        }
        _ => {
            let _ = space.migrate_table(VirtAddr(BASE + off), node);
        }
    }
}

/// Checks walk/replica coherence for every mapped leaf from every node.
fn assert_coherent(space: &AddressSpace) {
    space.validate().expect("space invariants");
    for leaf in space.leaves() {
        let walk = space.walk(leaf.vbase);
        let mapping = walk.mapping.expect("leaf must stay walkable");
        assert_eq!(mapping.frame, leaf.frame, "walk and leaf list disagree");
        for n in 0..NODES {
            let node = NodeId(n);
            for &step in walk.steps() {
                let resolved = space.resolve_table_step(step, node);
                // Same entry offset inside the (possibly replicated)
                // table frame: the replica is a byte-for-byte copy.
                assert_eq!(
                    resolved.pte_addr.0 & (PAGE_4K - 1),
                    step.pte_addr.0 & (PAGE_4K - 1),
                    "replica resolution moved the entry offset"
                );
                // A substituted step reads a frame local to the walker.
                if resolved.pte_addr != step.pte_addr {
                    assert_eq!(resolved.node, node, "replica step must be local");
                }
            }
            // The translation is node-independent: replicas redirect
            // table reads, never the leaf the walk resolves to.
            let through = space.translate(leaf.vbase).expect("translate");
            assert_eq!(through.frame, mapping.frame);
            assert_eq!(through.node, mapping.node);
        }
    }
}

proptest! {
    /// Any op sequence leaves every node's replica walk coherent with
    /// the primary, and never dangles a replica frame.
    #[test]
    fn replica_walks_stay_coherent(seed in 0u64..=u64::MAX, len in 8u64..48) {
        let mut space = AddressSpace::new(&machine(), VmemConfig::default());
        space.map_region(BASE, REGION_BYTES).unwrap();
        let mut rng = CaseRng::new("replica_walks_ops", seed);
        for i in 0..len {
            apply_random_op(&mut space, &mut rng);
            // Full coherence sweeps are quadratic-ish; probing a few
            // interior points plus the final state keeps cases fast
            // while still catching mid-sequence dangles.
            if i % 16 == 15 {
                assert_coherent(&space);
            }
        }
        assert_coherent(&space);

        // Teardown check: migrating every region's table after heavy
        // replication must retire the moved primaries' replica sets.
        space.replicate_tables(usize::from(NODES));
        for region in 0..(REGION_BYTES >> 21) {
            let _ = space.migrate_table(VirtAddr(BASE + (region << 21)), NodeId(3));
        }
        assert_coherent(&space);
    }
}

fn small_spec(machine: &MachineSpec) -> WorkloadSpec {
    WorkloadSpec {
        name: "table-props".into(),
        threads: machine.total_cores(),
        regions: vec![RegionSpec {
            base: BASE,
            bytes: 6 << 20,
            share: 1.0,
            pattern: AccessPattern::SharedUniform,
            alloc_skew: 0.0,
            loader_headers: 0.0,
            rw_shared: false,
            read_only: false,
        }],
        ops_per_round: 200,
        compute_rounds: 6,
        think_cycles_per_op: 10,
        write_fraction: 0.3,
        phases: Vec::new(),
        mlp: 1,
    }
}

/// Runs `policy` with per-epoch validation on. With `full_node`, every
/// free frame of node 0 is taken before the workload starts: its threads
/// fault in remotely, and table copies or moves onto node 0 fail.
fn run_policy(
    machine: &MachineSpec,
    seed: u64,
    full_node: bool,
    policy: &mut dyn NumaPolicy,
) -> SimResult {
    let spec = small_spec(machine);
    let mut config = SimConfig::for_machine(machine, vmem::ThpControls::small_only());
    config.seed = seed;
    config.validate_each_epoch = true;
    let fill = |space: &mut AddressSpace| {
        for size in [PageSize::Size2M, PageSize::Size4K] {
            while space.alloc_frame(NodeId(0), size).is_ok() {}
        }
    };
    let opts = RunOptions {
        setup: full_node.then_some(&fill as &dyn Fn(&mut AddressSpace)),
        ..RunOptions::default()
    };
    Simulation::run_with(machine, &spec, &config, policy, opts).result()
}

proptest! {
    /// Mitosis completes with per-epoch validation on, with or without a
    /// full node: replication alloc failures degrade to primary walks,
    /// never to a corrupt space.
    #[test]
    fn mitosis_survives_a_full_node(
        seed in 0u64..=u64::MAX,
        full_node in [false, true].as_slice(),
    ) {
        let machine = MachineSpec::test_machine();
        let mut policy = Mitosis::new();
        let r = run_policy(&machine, seed, full_node, &mut policy);
        prop_assert!(r.runtime_cycles > 0);
        prop_assert!(
            r.lifetime.vmem.table_replications > 0,
            "a multi-node run must replicate at least the root"
        );
    }

    /// numaPTE completes with per-epoch validation on, with or without a
    /// full node; table moves onto the full node surface as failed
    /// actions, not as corruption.
    #[test]
    fn numapte_survives_a_full_node(
        seed in 0u64..=u64::MAX,
        full_node in [false, true].as_slice(),
    ) {
        let machine = MachineSpec::test_machine();
        let mut policy = NumaPte::new();
        let r = run_policy(&machine, seed, full_node, &mut policy);
        prop_assert!(r.runtime_cycles > 0);
    }
}
