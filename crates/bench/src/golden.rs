//! The golden-run regression harness.
//!
//! A *golden digest* is a compact, checked-in summary of one traced
//! simulation run: per-epoch event counts plus a rolling hash of every
//! event ([`engine::TraceDigest`]). Because the simulator is fully
//! deterministic in `(spec, config.seed)`, recomputing a digest and
//! diffing it against the checked-in copy detects *any* behavioural drift
//! — an extra migration, a split moved by one epoch, a changed counter —
//! and names the first divergent epoch.
//!
//! The cell set is small on purpose: the two benchmarks the paper's
//! Figure 2 narrative revolves around (UA.B, CG.D) under the baseline
//! policies and full Carrefour-LP, on machine A, pinned to the default
//! seed, plus the two page-table placement policies (Mitosis, numaPTE)
//! and the sweep-tuned Carrefour-LP preset. Eleven cells cover the fault
//! path, khugepaged, the TLB, both Algorithm 1 components, the Carrefour
//! placement pass, table replication with write fan-out, sampled table
//! migration, and the non-default threshold path.
//!
//! Workflow:
//! * `cargo test -q` (tier-1) recomputes and diffs every cell.
//! * `cargo run --release --bin trace -- --bless` rewrites the goldens
//!   after an *intentional* behaviour change (see DESIGN.md §9 for the
//!   when-to-bless policy).

use crate::PolicyKind;
use engine::{DigestSink, RunOptions, SimConfig, Simulation, TraceDigest};
use numa_topology::MachineSpec;
use std::path::{Path, PathBuf};
use workloads::Benchmark;

/// One golden cell: a pinned (machine, benchmark, policy) run.
#[derive(Clone, Copy, Debug)]
pub struct GoldenCell {
    /// The benchmark.
    pub bench: Benchmark,
    /// The policy.
    pub kind: PolicyKind,
}

/// The pinned cell set. Order is the order digests are computed and
/// reported in.
pub const GOLDEN_CELLS: [GoldenCell; 11] = [
    GoldenCell {
        bench: Benchmark::UaB,
        kind: PolicyKind::Linux4k,
    },
    GoldenCell {
        bench: Benchmark::UaB,
        kind: PolicyKind::LinuxThp,
    },
    GoldenCell {
        bench: Benchmark::UaB,
        kind: PolicyKind::CarrefourLp,
    },
    GoldenCell {
        bench: Benchmark::CgD,
        kind: PolicyKind::Linux4k,
    },
    GoldenCell {
        bench: Benchmark::CgD,
        kind: PolicyKind::LinuxThp,
    },
    GoldenCell {
        bench: Benchmark::CgD,
        kind: PolicyKind::CarrefourLp,
    },
    GoldenCell {
        bench: Benchmark::UaB,
        kind: PolicyKind::Mitosis,
    },
    GoldenCell {
        bench: Benchmark::UaB,
        kind: PolicyKind::NumaPte,
    },
    GoldenCell {
        bench: Benchmark::CgD,
        kind: PolicyKind::Mitosis,
    },
    GoldenCell {
        bench: Benchmark::CgD,
        kind: PolicyKind::NumaPte,
    },
    // The threshold-sweep winner (results/SWEEP_lp.json): pins the tuned
    // preset so a drive-by edit to `LpParams::tuned()` — or a behaviour
    // change under non-default thresholds — fails loudly.
    GoldenCell {
        bench: Benchmark::UaB,
        kind: PolicyKind::CarrefourLpTuned,
    },
];

impl GoldenCell {
    /// File stem of this cell's golden digest (`ua_b__carrefour_lp`).
    pub fn stem(&self) -> String {
        let clean = |s: &str| {
            s.to_ascii_lowercase()
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect::<String>()
        };
        format!("{}__{}", clean(self.bench.name()), clean(self.kind.label()))
    }

    /// Path of this cell's golden file under `dir`.
    pub fn path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.json", self.stem()))
    }
}

/// The checked-in golden directory (`tests/golden/` at the repository
/// root), resolved relative to this crate so it works from any cwd —
/// test runner, bench binary, or CI.
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .components()
        .collect()
}

/// Runs one golden cell traced and returns its digest. Identical inputs
/// to [`crate::run_cell`] — same machine config, same pinned seed — plus
/// a [`DigestSink`] hook; the digest's policy field is normalized to the
/// display label so goldens are self-describing.
pub fn digest_cell(machine: &MachineSpec, cell: GoldenCell) -> TraceDigest {
    let config = SimConfig::for_machine(machine, cell.kind.initial_thp());
    let spec = cell.bench.spec(machine);
    let mut policy = cell.kind.make();
    let mut sink = DigestSink::new();
    let opts = RunOptions {
        hook: Some(&mut sink),
        ..RunOptions::default()
    };
    let result = Simulation::run_with(machine, &spec, &config, policy.as_mut(), opts).result();
    let mut digest = sink.into_digest();
    digest.policy = cell.kind.label().to_string();
    digest.runtime_cycles = result.runtime_cycles;
    assert_eq!(
        digest.epochs.len(),
        result.epochs.len(),
        "every epoch record must have a digest line"
    );
    digest
}

/// Computes every golden cell's digest on machine A through the shared
/// runner pool (each cell is independently deterministic, so the result
/// is identical at any worker count; `CARREFOUR_JOBS=1` gives the strictly
/// sequential path CI keeps covered).
pub fn compute_all() -> Vec<(GoldenCell, TraceDigest)> {
    let machine = MachineSpec::machine_a();
    let jobs = crate::runner::resolve_jobs(None);
    crate::runner::par_map(jobs, GOLDEN_CELLS.len(), |i| {
        let cell = GOLDEN_CELLS[i];
        (cell, digest_cell(&machine, cell))
    })
}

/// Recomputes every digest and writes it into `dir` (the bless path).
/// Returns the files written.
pub fn bless(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for (cell, digest) in compute_all() {
        let path = cell.path(dir);
        std::fs::write(&path, digest.to_json())?;
        written.push(path);
    }
    Ok(written)
}

/// Recomputes every digest and diffs it against the checked-in copy in
/// `dir`. Returns one report per divergent or unreadable cell; an empty
/// vector means every cell matches.
pub fn verify(dir: &Path) -> Vec<String> {
    compute_all()
        .into_iter()
        .filter_map(|(cell, found)| match load(&cell.path(dir)) {
            Ok(golden) => golden.diff(&found),
            Err(report) => Some(report),
        })
        .collect()
}

/// Reads one checked-in digest. A missing file or its typed parse error
/// comes back as a report that names the file and the way to mend it.
pub fn load(path: &Path) -> Result<TraceDigest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "missing golden digest {} ({e}); run `cargo run --release \
             --bin trace -- --bless` to create it",
            path.display()
        )
    })?;
    TraceDigest::from_json(&text).map_err(|e| {
        format!(
            "unparseable golden digest {}: {e}; re-bless it",
            path.display()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stems_are_unique_and_filename_safe() {
        let stems: std::collections::BTreeSet<String> =
            GOLDEN_CELLS.iter().map(GoldenCell::stem).collect();
        assert_eq!(stems.len(), GOLDEN_CELLS.len());
        for s in &stems {
            assert!(
                s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{s}"
            );
        }
    }

    #[test]
    fn golden_dir_points_into_the_repo() {
        let dir = golden_dir();
        assert!(dir.ends_with("tests/golden"), "{}", dir.display());
    }
}
