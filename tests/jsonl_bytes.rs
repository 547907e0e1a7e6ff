//! Pins the bytes of both JSON Lines formats: the trace stream
//! (`results/trace_*.jsonl`, one `TraceEvent::to_json` line per event)
//! and the `metrics-v3` recorder stream (`results/metrics_*.jsonl`), for
//! one small Carrefour-LP run with attribution and page stats on. A change
//! to how either file is assembled must leave these bytes alone.
//! Re-pinning is an intended format or behaviour change only: see
//! DESIGN.md §9, "When to bless".

use carrefour_bench::PolicyKind;
use engine::trace::events_to_jsonl;
use engine::{RunOptions, SimConfig, Simulation, TraceEvent, VecRecorder, VecSink};
use numa_topology::MachineSpec;
use workloads::{AccessPattern, RegionSpec, WorkloadSpec};

/// A 4 MiB shared region over every core of the test machine.
fn small_spec(machine: &MachineSpec) -> WorkloadSpec {
    WorkloadSpec {
        name: "jsonl-pin".to_string(),
        threads: machine.total_cores(),
        regions: vec![RegionSpec {
            base: 64 << 30,
            bytes: 4 << 20,
            share: 1.0,
            pattern: AccessPattern::SharedUniform,
            alloc_skew: 0.0,
            loader_headers: 0.0,
            rw_shared: true,
            read_only: false,
        }],
        ops_per_round: 300,
        compute_rounds: 8,
        think_cycles_per_op: 10,
        write_fraction: 0.4,
        phases: Vec::new(),
        mlp: 1,
    }
}

/// Runs the pinned cell under `hook`.
fn run(hook: &mut dyn engine::RunHook) {
    let machine = MachineSpec::test_machine();
    let spec = small_spec(&machine);
    let kind = PolicyKind::CarrefourLp;
    let mut config = SimConfig::for_machine(&machine, kind.initial_thp());
    config.attribution = true;
    config.track_page_stats = true;
    let opts = RunOptions {
        hook: Some(hook),
        ..RunOptions::default()
    };
    Simulation::run_with(&machine, &spec, &config, kind.make().as_mut(), opts).result();
}

#[test]
fn trace_jsonl_bytes_are_pinned() {
    let mut events = VecSink::new();
    run(&mut events);
    let has = |f: fn(&TraceEvent) -> bool| events.events.iter().any(f);
    assert!(has(|e| matches!(e, TraceEvent::RunStart { .. })));
    assert!(has(|e| matches!(e, TraceEvent::Decision { .. })));
    assert!(has(|e| matches!(
        e,
        TraceEvent::Split { .. } | TraceEvent::Migration { .. }
    )));
    assert!(has(|e| matches!(e, TraceEvent::EpochEnd { .. })));
    let text = events_to_jsonl(&events.events);
    let (digest, len) = (codec::fnv1a(text.as_bytes()), text.len());
    assert_eq!(
        (digest, len),
        (0x3324_9df1_5aec_06d3, 5_479),
        "got {digest:016x} ({len} bytes)"
    );
}

#[test]
fn metrics_jsonl_bytes_are_pinned() {
    let mut rec = VecRecorder::new();
    run(&mut rec);
    let text = rec.to_jsonl();
    let mut lines = text.lines();
    assert!(lines.next().is_some_and(|l| l.contains("\"run_start\"")));
    let epochs: Vec<&str> = lines.collect();
    assert!(!epochs.is_empty());
    for l in &epochs {
        assert!(
            !l.contains("\"pages\":null") && !l.contains("\"attrib\":null"),
            "{l}"
        );
    }
    let (digest, len) = (codec::fnv1a(text.as_bytes()), text.len());
    assert_eq!(
        (digest, len),
        (0x54b5_f0a0_8e29_fc19, 4_246),
        "got {digest:016x} ({len} bytes)"
    );
}
