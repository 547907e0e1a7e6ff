//! Phase-change adaptation (Section 4.3).
//!
//! The paper argues Carrefour-LP "naturally supports transient states and
//! phase changes by continuously re-examining its decisions". This
//! experiment builds a two-phase workload — a NUMA-clean private phase
//! where THP is free, followed by a falsely-shared phase where THP is
//! poison — and traces how each system behaves across the transition.

use carrefour::CarrefourLp;
use engine::{NullPolicy, NumaPolicy, SimConfig, SimResult, Simulation};
use numa_topology::MachineSpec;
use vmem::ThpControls;
use workloads::{AccessPattern, PhaseSpec, RegionSpec, WorkloadSpec};

fn two_phase_workload(machine: &MachineSpec) -> WorkloadSpec {
    let threads = machine.total_cores();
    WorkloadSpec {
        name: "two-phase".into(),
        threads,
        regions: vec![
            // Phase 1's data: clean per-thread blocks.
            RegionSpec {
                base: 64 << 30,
                bytes: (threads as u64) << 21,
                share: 0.5,
                pattern: AccessPattern::PrivateBlocked {
                    block_bytes: 256 * 1024,
                    dwell_ops: 1500,
                },
                alloc_skew: 0.0,
                loader_headers: 0.0,
                rw_shared: false,
                read_only: false,
            },
            // Phase 2's data: falsely-shared interleaved chunks.
            RegionSpec {
                base: 66 << 30,
                bytes: 32 << 20,
                share: 0.5,
                pattern: AccessPattern::InterleavedChunks {
                    chunk_bytes: 8192,
                    dwell_ops: 60,
                },
                alloc_skew: 0.0,
                loader_headers: 0.0,
                rw_shared: false,
                read_only: false,
            },
        ],
        ops_per_round: 1000,
        compute_rounds: 0, // superseded by phases
        think_cycles_per_op: 10,
        write_fraction: 0.3,
        phases: vec![
            PhaseSpec {
                rounds: 30,
                shares: vec![0.95, 0.05],
            },
            PhaseSpec {
                rounds: 50,
                shares: vec![0.05, 0.95],
            },
        ],
        mlp: 1,
    }
}

fn run(machine: &MachineSpec, thp: ThpControls, policy: &mut dyn NumaPolicy) -> SimResult {
    let spec = two_phase_workload(machine);
    let config = SimConfig::for_machine(machine, thp);
    Simulation::run(machine, &spec, &config, policy)
}

fn main() {
    carrefour_bench::logx::exit_quietly_on_broken_pipe();
    let machine = MachineSpec::machine_b();
    let base = run(&machine, ThpControls::small_only(), &mut NullPolicy);
    let thp = run(&machine, ThpControls::thp(), &mut NullPolicy);
    let lp = run(&machine, ThpControls::thp(), &mut CarrefourLp::new());

    println!("two-phase workload on {}:\n", machine.name());
    println!("{:<14} {:>12} {:>9}", "system", "runtime(ms)", "vs Linux");
    for (label, r) in [("Linux-4K", &base), ("THP", &thp), ("Carrefour-LP", &lp)] {
        println!(
            "{:<14} {:>12.2} {:>+8.1}%",
            label,
            r.runtime_ms,
            r.improvement_over(&base)
        );
    }

    println!("\nCarrefour-LP trace (phase change at ~epoch 15):");
    println!(
        "{:>5} {:>6} {:>8} {:>7} {:>7}",
        "epoch", "LAR%", "imbal%", "splits", "migr"
    );
    for (i, e) in lp.epochs.iter().enumerate() {
        if i % 4 == 0 || e.splits > 0 {
            println!(
                "{:>5} {:>6.0} {:>8.1} {:>7} {:>7}",
                i,
                e.counters.lar() * 100.0,
                e.counters.imbalance(),
                e.splits,
                e.migrations
            );
        }
    }
    // Locality collapses at the phase change and is rebuilt by sub-page
    // migrations over the following epochs.
    let n = lp.epochs.len();
    let trough = lp.epochs[n / 3..]
        .iter()
        .map(|e| e.counters.lar())
        .fold(1.0f64, f64::min);
    let end = lp.epochs.last().map(|e| e.counters.lar()).unwrap_or(0.0);
    println!(
        "\nAt the phase change the LAR collapses to {:.0}% as the falsely \
         shared region takes over; the policy then re-places the split \
         sub-pages and recovers to {:.0}% — the continuous re-examination \
         Section 4.3 describes.",
        trough * 100.0,
        end * 100.0
    );
}
