//! Workload descriptors.

use serde::{Deserialize, Serialize};

/// How threads address a region during the compute phase.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum AccessPattern {
    /// All threads access the whole region uniformly at random (poor
    /// locality by construction — SSCA's irregular graph traversals,
    /// SPECjbb's shared heap).
    SharedUniform,
    /// The region is cut into one contiguous slice per thread; each thread
    /// accesses only its own slice (the NUMA-friendly OpenMP decomposition
    /// most NAS kernels use).
    PrivateSlices,
    /// Like [`AccessPattern::PrivateSlices`], but with temporal locality:
    /// each thread works inside a `block_bytes` window of its slice for
    /// `dwell_ops` operations, then advances to the next window (blocked
    /// loops — the cache- and TLB-friendly shape of tuned NAS kernels).
    PrivateBlocked {
        /// Working-window size in bytes.
        block_bytes: u64,
        /// Operations spent in a window before moving on.
        dwell_ops: u64,
    },
    /// The region is cut into `chunk_bytes` chunks dealt round-robin to
    /// threads; each thread accesses only its own chunks. With chunks
    /// smaller than a page size, pages of that size necessarily hold data
    /// of many threads — the paper's *page-level false sharing* (UA).
    InterleavedChunks {
        /// Chunk size in bytes (power of two, ≥ 64).
        chunk_bytes: u64,
        /// Operations spent inside one chunk before hopping to another
        /// (element-wise mesh processing has high temporal locality).
        dwell_ops: u64,
    },
    /// A `hot_share` fraction of accesses hits `count` hot spots of
    /// `hot_bytes` each, laid out `spacing_bytes` apart from the region
    /// start; the rest of the accesses are uniform over the region.
    /// With small pages each spot is its own page (spreadable); with large
    /// pages the spots coalesce into a handful of unsplittable hot pages —
    /// the paper's *hot-page effect* (CG).
    Hotspots {
        /// Number of hot spots.
        count: usize,
        /// Width of each hot spot in bytes.
        hot_bytes: u64,
        /// Distance between consecutive hot-spot starts.
        spacing_bytes: u64,
        /// Fraction of accesses that go to a hot spot, in `[0, 1]`.
        hot_share: f64,
    },
    /// Each thread streams sequentially through its private slice with the
    /// given stride, wrapping around (MapReduce scans, FT/IS sorting
    /// passes). High TLB pressure, high spatial locality.
    Stream {
        /// Bytes between consecutive accesses.
        stride: u64,
    },
}

/// One anonymous memory region of a workload.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RegionSpec {
    /// Virtual base address (1 GiB-aligned; assigned by the spec builder).
    pub base: u64,
    /// Region length in bytes (multiple of 4 KiB).
    pub bytes: u64,
    /// Probability that a compute-phase access goes to this region.
    pub share: f64,
    /// Compute-phase access pattern.
    pub pattern: AccessPattern,
    /// Fraction of the region first-touched by thread 0 instead of its
    /// owning thread, from the region's start (a single "loader" thread
    /// initializing memory — pca's matrix setup). Skews placement at every
    /// page size.
    pub alloc_skew: f64,
    /// Fraction of the region (from its start) whose 2 MiB-aligned range
    /// *head pages* are pre-touched by thread 0 — a loader thread writing
    /// headers/metadata ahead of the workers (Java object headers, graph
    /// index arrays). Under 4 KiB pages this claims 1/512th of memory
    /// (harmless); under THP the head touch claims the whole 2 MiB page
    /// for thread 0's node. This is the mechanism behind the paper's
    /// "imbalance appears only under THP" profile (SSCA, SPECjbb).
    pub loader_headers: f64,
    /// Whether the region's data is read-write shared between threads at
    /// cache-line granularity (reductions, shared counters). Writes to such
    /// data cause coherence misses that always reach the home memory
    /// controller; the simulator models them as cache-bypassing stores.
    pub rw_shared: bool,
    /// Whether the region is never written after initialization (lookup
    /// tables, graph structure): the workload's write fraction does not
    /// apply to it.
    pub read_only: bool,
}

/// One compute phase: after `rounds` rounds with these region shares, the
/// workload moves to the next phase (applications change behaviour over
/// time — Section 4.3 of the paper stresses that the algorithm must cater
/// to phase changes).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Rounds this phase lasts.
    pub rounds: u32,
    /// Per-region access shares during this phase (must sum to 1 and have
    /// one entry per region).
    pub shares: Vec<f64>,
}

/// A complete workload description.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Human-readable name ("CG.D", "wrmem", ...).
    pub name: String,
    /// Number of worker threads (one per core in the paper's runs).
    pub threads: usize,
    /// The memory regions.
    pub regions: Vec<RegionSpec>,
    /// Memory operations per thread per barrier-synchronized round.
    pub ops_per_round: u64,
    /// Compute-phase rounds (after the allocation phase completes).
    pub compute_rounds: u32,
    /// Non-memory cycles of work per operation (CPU intensity).
    pub think_cycles_per_op: u32,
    /// Fraction of operations that are writes.
    pub write_fraction: f64,
    /// Optional compute phases overriding the region shares over time; when
    /// empty the workload runs `compute_rounds` rounds with the regions'
    /// static shares. When non-empty, the phase list *replaces*
    /// `compute_rounds` (the total is the sum of phase rounds).
    pub phases: Vec<PhaseSpec>,
    /// Memory-level parallelism of data accesses: how many independent
    /// outstanding misses the code sustains (sparse kernels with
    /// independent gathers ≫ pointer chasing). The engine overlaps DRAM
    /// latency by this factor; request *rates* rise accordingly, which is
    /// what lets an imbalanced workload actually saturate a controller.
    pub mlp: u32,
}

impl WorkloadSpec {
    /// Total bytes across all regions.
    pub fn footprint_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.bytes).sum()
    }

    /// Total 4 KiB pages across all regions (the allocation-phase length).
    pub fn footprint_pages(&self) -> u64 {
        self.footprint_bytes() / crate::gen::PAGE
    }

    /// Total compute rounds: the sum of phase lengths, or `compute_rounds`
    /// when no phases are declared.
    pub fn total_compute_rounds(&self) -> u32 {
        if self.phases.is_empty() {
            self.compute_rounds
        } else {
            self.phases.iter().map(|p| p.rounds).sum()
        }
    }

    /// Checks structural invariants; call after hand-building a spec.
    ///
    /// # Panics
    ///
    /// Panics if shares do not sum to ≈1, regions overlap or are misaligned,
    /// or thread/round counts are zero.
    pub fn validate(&self) {
        assert!(self.threads > 0, "{}: no threads", self.name);
        assert!(self.ops_per_round > 0, "{}: no ops", self.name);
        assert!(!self.regions.is_empty(), "{}: no regions", self.name);
        let share: f64 = self.regions.iter().map(|r| r.share).sum();
        assert!(
            (share - 1.0).abs() < 1e-6,
            "{}: region shares sum to {share}",
            self.name
        );
        for r in &self.regions {
            assert_eq!(r.base % (1 << 30), 0, "{}: unaligned region", self.name);
            assert_eq!(r.bytes % 4096, 0, "{}: ragged region", self.name);
            assert!(r.bytes > 0, "{}: empty region", self.name);
            assert!(
                (0.0..=1.0).contains(&r.alloc_skew),
                "{}: bad skew",
                self.name
            );
            assert!(
                (0.0..=1.0).contains(&r.loader_headers),
                "{}: bad loader_headers",
                self.name
            );
        }
        for (i, a) in self.regions.iter().enumerate() {
            for b in &self.regions[i + 1..] {
                let disjoint = a.base + a.bytes <= b.base || b.base + b.bytes <= a.base;
                assert!(disjoint, "{}: overlapping regions", self.name);
            }
        }
        for (i, p) in self.phases.iter().enumerate() {
            assert!(p.rounds > 0, "{}: phase {i} has no rounds", self.name);
            assert_eq!(
                p.shares.len(),
                self.regions.len(),
                "{}: phase {i} shares/regions mismatch",
                self.name
            );
            let sum: f64 = p.shares.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "{}: phase {i} shares sum to {sum}",
                self.name
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_region() -> WorkloadSpec {
        WorkloadSpec {
            name: "t".into(),
            threads: 2,
            regions: vec![RegionSpec {
                base: 1 << 30,
                bytes: 1 << 20,
                share: 1.0,
                pattern: AccessPattern::SharedUniform,
                alloc_skew: 0.0,
                loader_headers: 0.0,
                rw_shared: false,
                read_only: false,
            }],
            ops_per_round: 100,
            compute_rounds: 2,
            think_cycles_per_op: 0,
            write_fraction: 0.3,
            phases: Vec::new(),
            mlp: 1,
        }
    }

    #[test]
    fn footprint_sums_regions() {
        let s = one_region();
        assert_eq!(s.footprint_bytes(), 1 << 20);
        assert_eq!(s.footprint_pages(), 256);
        s.validate();
    }

    #[test]
    #[should_panic(expected = "shares sum")]
    fn bad_shares_panic() {
        let mut s = one_region();
        s.regions[0].share = 0.5;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlap_panics() {
        let mut s = one_region();
        let mut dup = s.regions[0];
        dup.share = 0.0;
        s.regions[0].share = 1.0;
        s.regions.push(dup);
        s.validate();
    }
}
