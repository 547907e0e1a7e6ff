//! Physical-memory fragmentation vs. THP (the availability problem the
//! paper's introduction cites from Talluri et al. and Navarro et al.).
//!
//! Pre-fragments each node's memory by pinning every other 4 KiB frame of
//! a large span, then runs a THP workload: huge-page allocations fail, the
//! fault path falls back to 4 KiB pages, and the THP benefit evaporates —
//! quantifying why real systems pair THP with compaction.

use engine::{NullPolicy, RunOptions, SimConfig, Simulation};
use numa_topology::{Interconnect, MachineSpec, NodeId};
use vmem::{AddressSpace, PageSize, ThpControls};
use workloads::Benchmark;

/// Pins alternating 4 KiB frames over `fraction` of each node's memory.
///
/// Two phases: grab the whole span first, then free every other frame —
/// freeing as we go would just hand the same frame back on the next
/// allocation (the buddy allocator is lowest-address-first).
fn fragment(space: &mut AddressSpace, machine: &MachineSpec, fraction: f64) {
    for n in 0..machine.num_nodes() {
        let node = NodeId::from(n);
        let budget = (machine.nodes()[n].dram_bytes as f64 * fraction) as u64;
        let mut taken = Vec::with_capacity((budget / 4096) as usize);
        while (taken.len() as u64) * 4096 < budget {
            match space.alloc_frame(node, PageSize::Size4K) {
                Ok(f) => taken.push(f),
                Err(_) => break,
            }
        }
        // Free every other frame: the released 4 KiB holes can never
        // coalesce because their buddies stay pinned.
        for f in taken.iter().skip(1).step_by(2) {
            space.free_frame(*f, PageSize::Size4K);
        }
        // The even frames stay allocated for the whole run.
    }
}

fn main() {
    carrefour_bench::logx::exit_quietly_on_broken_pipe();
    // A memory-constrained variant of machine B: fragmenting 512 GiB of
    // simulated DRAM frame-by-frame is pointless (and slow) when the
    // workload touches half a gigabyte; 1 GiB per node gives fragmentation
    // real teeth while keeping the same core/node layout.
    let machine = MachineSpec::homogeneous(
        "machine-b-1g",
        2.1,
        8,
        8,
        1 << 30,
        Interconnect::full_mesh(8),
    );
    let bench = Benchmark::Wc; // the biggest THP winner
    let spec = bench.spec(&machine);

    println!(
        "THP under physical fragmentation — {} on {}:\n",
        bench.name(),
        machine.name()
    );
    println!(
        "{:<22} {:>12} {:>9} {:>12} {:>12}",
        "configuration", "runtime(ms)", "vs Linux", "2MiB faults", "4KiB faults"
    );

    let linux_cfg = SimConfig::for_machine(&machine, ThpControls::small_only());
    let base = Simulation::run(&machine, &spec, &linux_cfg, &mut NullPolicy);
    println!(
        "{:<22} {:>12.2} {:>+8.1}% {:>12} {:>12}",
        "Linux-4K",
        base.runtime_ms,
        0.0,
        base.lifetime.vmem.faults_2m,
        base.lifetime.vmem.faults_4k
    );

    for (label, fraction) in [("THP, pristine", 0.0), ("THP, 98% fragmented", 0.98)] {
        let config = SimConfig::for_machine(&machine, ThpControls::thp());
        let opts = RunOptions {
            setup: Some(&|space| fragment(space, &machine, fraction)),
            ..RunOptions::default()
        };
        let r = Simulation::run_with(&machine, &spec, &config, &mut NullPolicy, opts).result();
        println!(
            "{:<22} {:>12.2} {:>+8.1}% {:>12} {:>12}",
            label,
            r.runtime_ms,
            r.improvement_over(&base),
            r.lifetime.vmem.faults_2m,
            r.lifetime.vmem.faults_4k
        );
    }

    println!(
        "\nWith most of physical memory fragmented into isolated 4 KiB \
         holes, huge-frame allocation fails and faults fall back to base \
         pages: the THP gain collapses toward the Linux baseline. This is \
         the availability problem (Navarro et al., OSDI '02) that THP's \
         background compaction exists to fight — orthogonal to, and \
         compounding with, the NUMA problems this paper studies."
    );
}
