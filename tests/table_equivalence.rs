//! No-op equivalence pins for the page-table placement policies
//! (DESIGN.md §13).
//!
//! On a 1-node machine neither Mitosis nor numaPTE can do anything:
//! every walk step is local, replication is explicitly inert, and no
//! sample ever reports a remote walk step. These tests pin that corner
//! bit-identically — same `SimResult` (including the attribution
//! ledger) and same trace digest as default Linux — so the table-homing
//! machinery provably costs nothing when it has nothing to do. They are
//! the single-machine analogue of the golden-digest seed pins, which
//! freeze the multi-node behaviour of the pre-existing policies.

use carrefour_lp::prelude::*;
use numa_topology::Interconnect;

const BASE: u64 = 64 << 30;

fn one_node_machine() -> MachineSpec {
    MachineSpec::homogeneous("uma-1", 2.0, 1, 4, 8 << 30, Interconnect::full_mesh(1))
}

fn spec(machine: &MachineSpec) -> WorkloadSpec {
    WorkloadSpec {
        name: "table-equivalence".into(),
        threads: machine.total_cores(),
        regions: vec![RegionSpec {
            base: BASE,
            bytes: 8 << 20,
            share: 1.0,
            pattern: AccessPattern::SharedUniform,
            alloc_skew: 0.0,
            loader_headers: 0.1,
            rw_shared: false,
            read_only: false,
        }],
        ops_per_round: 300,
        compute_rounds: 8,
        think_cycles_per_op: 12,
        write_fraction: 0.3,
        phases: Vec::new(),
        mlp: 1,
    }
}

/// Runs one policy on the 1-node machine with the attribution ledger on,
/// normalizing the policy name so results compare fieldwise.
fn run_one_node(policy: &mut dyn NumaPolicy) -> SimResult {
    let machine = one_node_machine();
    let spec = spec(&machine);
    let mut config = SimConfig::for_machine(&machine, ThpControls::small_only());
    config.attribution = true;
    let mut r = Simulation::run(&machine, &spec, &config, policy);
    r.policy = String::new();
    r
}

/// Same run, traced: the full event stream, minus the `RunStart` header
/// (which names the policy and so differs by construction). Everything
/// after it — every fault, action, epoch close — must match exactly.
fn events_one_node(policy: &mut dyn NumaPolicy) -> Vec<TraceEvent> {
    let machine = one_node_machine();
    let spec = spec(&machine);
    let config = SimConfig::for_machine(&machine, ThpControls::small_only());
    let mut sink = VecSink::new();
    let opts = RunOptions {
        hook: Some(&mut sink),
        ..RunOptions::default()
    };
    Simulation::run_with(&machine, &spec, &config, policy, opts).result();
    let mut events = sink.events;
    assert!(matches!(events.first(), Some(TraceEvent::RunStart { .. })));
    events.remove(0);
    events
}

#[test]
fn mitosis_on_one_node_is_bit_identical_to_linux() {
    let linux = run_one_node(&mut NullPolicy);
    let mitosis = run_one_node(&mut Mitosis::new());
    assert_eq!(linux, mitosis);
    let a = mitosis.attribution.as_ref().expect("ledger on");
    assert!(a.conserves(mitosis.runtime_cycles));
    assert_eq!(a.total.walk_remote_cycles(), 0, "1 node: no remote walks");
    assert_eq!(mitosis.lifetime.vmem.table_replications, 0);
}

#[test]
fn numapte_on_one_node_is_bit_identical_to_linux() {
    let linux = run_one_node(&mut NullPolicy);
    let numapte = run_one_node(&mut NumaPte::new());
    assert_eq!(linux, numapte);
    assert_eq!(numapte.lifetime.vmem.table_migrations, 0);
}

#[test]
fn one_node_trace_events_match_linux_exactly() {
    let linux = events_one_node(&mut NullPolicy);
    let mitosis = events_one_node(&mut Mitosis::new());
    let numapte = events_one_node(&mut NumaPte::new());
    assert_eq!(linux, mitosis);
    assert_eq!(linux, numapte);
}

/// Multi-node sanity for the *pre-existing* policies: table homing is
/// always on now, so this pins that a policy which never issues table
/// actions pays none of the new costs — no replications, no table
/// migrations, and an attribution ledger that still conserves exactly.
#[test]
fn existing_policies_pay_no_table_costs() {
    let machine = MachineSpec::test_machine();
    let spec = spec(&machine);
    let mut config = SimConfig::for_machine(&machine, ThpControls::thp());
    config.attribution = true;
    for policy in [
        &mut NullPolicy as &mut dyn NumaPolicy,
        &mut Carrefour::new(),
        &mut CarrefourLp::new(),
    ] {
        let r = Simulation::run(&machine, &spec, &config, policy);
        assert_eq!(r.lifetime.vmem.table_replications, 0, "{}", r.policy);
        assert_eq!(r.lifetime.vmem.table_migrations, 0, "{}", r.policy);
        let a = r.attribution.as_ref().expect("ledger on");
        assert!(a.conserves(r.runtime_cycles), "{}", r.policy);
    }
}

/// Mitosis on a real multi-node machine must actually engage — this is
/// the counterpart proving the 1-node pins above are not vacuous.
#[test]
fn mitosis_engages_on_multi_node_machines() {
    let machine = MachineSpec::test_machine();
    let spec = spec(&machine);
    let mut config = SimConfig::for_machine(&machine, ThpControls::small_only());
    config.attribution = true;
    let r = Simulation::run(&machine, &spec, &config, &mut Mitosis::new());
    assert!(r.lifetime.vmem.table_replications > 0);
    let a = r.attribution.as_ref().expect("ledger on");
    assert!(a.conserves(r.runtime_cycles));
}
