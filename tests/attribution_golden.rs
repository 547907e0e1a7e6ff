//! Attribution over the golden cells: conservation and non-perturbation.
//!
//! Tier-1 guarantee for the cycle-attribution ledger (DESIGN.md §11),
//! checked on all eleven pinned golden configurations (UA.B and CG.D under
//! Linux, THP, Carrefour-LP, Mitosis, and numaPTE on machine A, plus UA.B
//! under the tuned Carrefour-LP):
//!
//! 1. **Conservation** — with attribution on, the ledger's buckets sum
//!    to `runtime_cycles` exactly, as integers, and every epoch's wall
//!    breakdown reproduces that epoch's cycle counter.
//! 2. **Non-perturbation** — an attributed run's trace digest still
//!    matches the checked-in golden, byte for byte: turning the ledger on
//!    changes no event, no counter, no cycle of any existing output.
//! 3. **The replication bucket is Mitosis's** — `policy_replication`
//!    books the table-replication sweeps, so it is nonzero exactly on the
//!    Mitosis cells, which also report replicated table frames.
//! 4. **The result codec round-trips** — `encode_result` (with its
//!    retired zero slots, DESIGN.md §12) decodes back to the same result.

use carrefour_bench::golden::{self, golden_dir, GOLDEN_CELLS};
use carrefour_bench::{attrib, runner, PolicyKind};
use engine::checkpoint::{decode_result, encode_result};
use engine::{DigestSink, RunOptions, SimConfig, Simulation};
use numa_topology::MachineSpec;
use workloads::Benchmark;

#[test]
fn attributed_golden_runs_conserve_and_match_digests() {
    let machine = MachineSpec::machine_a();
    let dir = golden_dir();
    let jobs = runner::resolve_jobs(None);
    let rows = runner::par_map(jobs, GOLDEN_CELLS.len(), |i| {
        let cell = GOLDEN_CELLS[i];
        let mut config = SimConfig::for_machine(&machine, cell.kind.initial_thp());
        config.attribution = true;
        let spec = cell.bench.spec(&machine);
        let mut policy = cell.kind.make();
        let mut sink = DigestSink::new();
        let opts = RunOptions {
            hook: Some(&mut sink),
            ..RunOptions::default()
        };
        let result = Simulation::run_with(&machine, &spec, &config, policy.as_mut(), opts).result();
        let mut digest = sink.into_digest();
        digest.policy = cell.kind.label().to_string();
        digest.runtime_cycles = result.runtime_cycles;
        (cell, result, digest)
    });
    for (cell, result, digest) in rows {
        let name = format!("{}/{}", cell.bench.name(), cell.kind.label());
        let ledger = result
            .attribution
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: attribution was on but no ledger came back"));
        assert!(
            ledger.conserves(result.runtime_cycles),
            "{name}: buckets sum to {}, runtime is {} (diff {})",
            ledger.total.total(),
            result.runtime_cycles,
            ledger.total.total() as i128 - result.runtime_cycles as i128
        );
        for (e, rec) in ledger.epochs.iter().zip(&result.epochs) {
            let threads = e.cores.len().max(1) as u64;
            assert_eq!(
                e.wall.total(),
                rec.counters.epoch_cycles + rec.overhead_cycles / threads,
                "{name}: an epoch's wall breakdown diverged from its counter"
            );
        }
        let replication = ledger.total.policy_replication;
        if cell.kind == PolicyKind::Mitosis {
            assert!(
                replication > 0 && result.lifetime.vmem.table_replications > 0,
                "{name}: Mitosis booked {replication} replication cycles for {} \
                 replicated table frames",
                result.lifetime.vmem.table_replications
            );
        } else {
            assert_eq!(replication, 0, "{name}: only Mitosis replicates");
        }
        assert_eq!(
            decode_result(&encode_result(&result)).as_ref(),
            Some(&result),
            "{name}: the result codec does not round-trip"
        );
        let golden = golden::load(&cell.path(&dir)).unwrap_or_else(|e| panic!("{name}: {e}"));
        if let Some(diff) = golden.diff(&digest) {
            panic!(
                "{name}: attribution perturbed the simulation — the attributed \
                 run's digest no longer matches the checked-in golden:\n{diff}"
            );
        }
    }
}

/// The Mitosis acceptance bar (DESIGN.md §13): on the golden benchmarks,
/// the explain pipeline must attribute at least 90 % of the cycles
/// Mitosis *saves* relative to Linux to the remote-page-walk cause group
/// — replicating tables buys local walks and essentially nothing else.
#[test]
fn mitosis_delta_is_attributed_to_remote_walks() {
    let machine = MachineSpec::machine_a();
    for bench in [Benchmark::UaB, Benchmark::CgD] {
        let run = |kind: PolicyKind| {
            let mut config = SimConfig::for_machine(&machine, kind.initial_thp());
            config.attribution = true;
            let spec = bench.spec(&machine);
            let r = Simulation::run(&machine, &spec, &config, kind.make().as_mut());
            r.attribution.expect("ledger on").total
        };
        let linux = run(PolicyKind::Linux4k);
        let mitosis = run(PolicyKind::Mitosis);
        let groups = attrib::cause_groups(&linux, &mitosis);
        let savings: i128 = groups.iter().map(|g| g.delta().min(0)).sum();
        let remote = groups
            .iter()
            .find(|g| g.name.contains("remote page walks"))
            .unwrap_or_else(|| panic!("no remote-walk cause group in {groups:?}"));
        assert!(
            remote.delta() < 0,
            "{}: Mitosis must cut remote walk cycles (delta {})",
            bench.name(),
            remote.delta()
        );
        assert!(
            remote.delta() * 10 <= savings * 9,
            "{}: remote walks account for {} of {} saved cycles (< 90%)",
            bench.name(),
            -remote.delta(),
            -savings
        );
    }
}
