//! Cycle attribution: exhaustive, mutually exclusive wall-time buckets.
//!
//! The paper's whole argument is an attribution exercise — IBS and PMU
//! counters showing *where* cycles go when large pages hurt (controller
//! queueing, remote access) versus help (TLB reach, fault cost). The
//! simulator computes every one of those delays internally;
//! [`CycleBreakdown`] is the ledger that keeps them separated instead of
//! collapsing them into one opaque total.
//!
//! The defining property is **conservation**: the engine charges every
//! simulated cycle to exactly one bucket, so [`CycleBreakdown::total`]
//! equals the wall-clock cycles of whatever interval the breakdown covers
//! — exactly, as integers, including under MLP division and per-thread
//! overhead amortization (the engine uses prefix-sum differencing so the
//! integer shares sum to the integer quotient). Tier-1 tests enforce this
//! across every golden configuration and with failed policy actions.

use serde::{Deserialize, Serialize};

/// Number of buckets in a [`CycleBreakdown`].
pub const BUCKET_COUNT: usize = 18;

/// One interval's wall cycles, split by architectural cause.
///
/// Buckets are mutually exclusive and exhaustive; see DESIGN.md §11 for
/// the precise charging rules and when a bucket may legitimately be zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleBreakdown {
    /// Think/compute cycles between memory operations.
    pub compute: u64,
    /// L2-TLB probe cycles (charged on L2 hits and on misses that walk).
    pub tlb_lookup: u64,
    /// Data accesses serviced by the L1.
    pub cache_l1: u64,
    /// Data accesses serviced by the L2.
    pub cache_l2: u64,
    /// Data accesses serviced by the shared L3.
    pub cache_l3: u64,
    /// DRAM service time proper (L3-miss detection + array access), after
    /// MLP overlap.
    pub dram_service: u64,
    /// Memory-controller queueing delay, after MLP overlap.
    pub ctrl_queue: u64,
    /// Interconnect time (hop latency + link queueing), after MLP overlap.
    pub interconnect: u64,
    /// Page-walk step references to table frames *local* to the walking
    /// node, on walks whose upper levels hit the paging-structure (walk)
    /// cache.
    pub walk_pwc_hit_local: u64,
    /// Page-walk step references to *remote* table frames on walks whose
    /// upper levels hit the walk cache — the Mitosis/numaPTE target.
    pub walk_pwc_hit_remote: u64,
    /// Page-walk step references to local table frames on full walks
    /// (walk-cache miss).
    pub walk_pwc_miss_local: u64,
    /// Page-walk step references to remote table frames on full walks
    /// (walk-cache miss).
    pub walk_pwc_miss_remote: u64,
    /// Page-fault handling (allocation + lock contention).
    pub fault: u64,
    /// khugepaged promotion-scan overhead (per-thread share).
    pub khugepaged: u64,
    /// IBS sampling NMI overhead (per-thread share).
    pub ibs_sampling: u64,
    /// Policy page-migration cost (per-thread share).
    pub policy_migration: u64,
    /// Policy split / split-scatter cost, including scatter copies
    /// (per-thread share).
    pub policy_split: u64,
    /// Mitosis page-table replication cost (per-thread share).
    pub policy_replication: u64,
}

impl CycleBreakdown {
    /// Sum of all buckets — the wall cycles of the covered interval.
    pub fn total(&self) -> u64 {
        self.pairs().iter().map(|&(_, v)| v).sum()
    }

    /// Adds every bucket of `other` into `self`.
    pub fn add(&mut self, other: &CycleBreakdown) {
        self.compute += other.compute;
        self.tlb_lookup += other.tlb_lookup;
        self.cache_l1 += other.cache_l1;
        self.cache_l2 += other.cache_l2;
        self.cache_l3 += other.cache_l3;
        self.dram_service += other.dram_service;
        self.ctrl_queue += other.ctrl_queue;
        self.interconnect += other.interconnect;
        self.walk_pwc_hit_local += other.walk_pwc_hit_local;
        self.walk_pwc_hit_remote += other.walk_pwc_hit_remote;
        self.walk_pwc_miss_local += other.walk_pwc_miss_local;
        self.walk_pwc_miss_remote += other.walk_pwc_miss_remote;
        self.fault += other.fault;
        self.khugepaged += other.khugepaged;
        self.ibs_sampling += other.ibs_sampling;
        self.policy_migration += other.policy_migration;
        self.policy_split += other.policy_split;
        self.policy_replication += other.policy_replication;
    }

    /// The buckets as one compact JSON object, keys from
    /// [`CycleBreakdown::pairs`]: the one serialization the attribution
    /// reports and the metrics JSONL share.
    pub fn to_json(&self) -> String {
        let inner: Vec<String> = self
            .pairs()
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", inner.join(","))
    }

    /// Every bucket as a `(name, value)` pair, in declaration order. The
    /// single source of truth for serializers and diff reports — a bucket
    /// added to the struct but not here fails the exhaustiveness test.
    pub fn pairs(&self) -> [(&'static str, u64); BUCKET_COUNT] {
        [
            ("compute", self.compute),
            ("tlb_lookup", self.tlb_lookup),
            ("cache_l1", self.cache_l1),
            ("cache_l2", self.cache_l2),
            ("cache_l3", self.cache_l3),
            ("dram_service", self.dram_service),
            ("ctrl_queue", self.ctrl_queue),
            ("interconnect", self.interconnect),
            ("walk_pwc_hit_local", self.walk_pwc_hit_local),
            ("walk_pwc_hit_remote", self.walk_pwc_hit_remote),
            ("walk_pwc_miss_local", self.walk_pwc_miss_local),
            ("walk_pwc_miss_remote", self.walk_pwc_miss_remote),
            ("fault", self.fault),
            ("khugepaged", self.khugepaged),
            ("ibs_sampling", self.ibs_sampling),
            ("policy_migration", self.policy_migration),
            ("policy_split", self.policy_split),
            ("policy_replication", self.policy_replication),
        ]
    }

    /// Combined page-walk time (both walk-cache outcomes, both localities).
    pub fn walk_cycles(&self) -> u64 {
        self.walk_local_cycles() + self.walk_remote_cycles()
    }

    /// Page-walk time spent on table frames local to the walking node.
    pub fn walk_local_cycles(&self) -> u64 {
        self.walk_pwc_hit_local + self.walk_pwc_miss_local
    }

    /// Page-walk time spent on remote table frames — the cycles page-table
    /// replication (Mitosis) and migration (numaPTE) exist to remove.
    pub fn walk_remote_cycles(&self) -> u64 {
        self.walk_pwc_hit_remote + self.walk_pwc_miss_remote
    }

    /// Combined DRAM-path time (service + queueing + interconnect).
    pub fn dram_cycles(&self) -> u64 {
        self.dram_service + self.ctrl_queue + self.interconnect
    }

    /// Combined policy-action overhead share.
    pub fn policy_cycles(&self) -> u64 {
        self.policy_migration + self.policy_split + self.policy_replication
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> CycleBreakdown {
        // Distinct primes so any dropped/duplicated bucket changes the sum.
        let mut b = CycleBreakdown::default();
        let primes = [
            2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
        ];
        b.compute = primes[0];
        b.tlb_lookup = primes[1];
        b.cache_l1 = primes[2];
        b.cache_l2 = primes[3];
        b.cache_l3 = primes[4];
        b.dram_service = primes[5];
        b.ctrl_queue = primes[6];
        b.interconnect = primes[7];
        b.walk_pwc_hit_local = primes[8];
        b.walk_pwc_hit_remote = primes[9];
        b.walk_pwc_miss_local = primes[10];
        b.walk_pwc_miss_remote = primes[11];
        b.fault = primes[12];
        b.khugepaged = primes[13];
        b.ibs_sampling = primes[14];
        b.policy_migration = primes[15];
        b.policy_split = primes[16];
        b.policy_replication = primes[17];
        b
    }

    #[test]
    fn total_sums_every_bucket() {
        let b = filled();
        let expected: u64 = [
            2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
        ]
        .iter()
        .sum();
        assert_eq!(b.total(), expected);
    }

    #[test]
    fn pairs_are_exhaustive_and_uniquely_named() {
        let b = filled();
        let pairs = b.pairs();
        assert_eq!(pairs.len(), BUCKET_COUNT);
        let names: std::collections::BTreeSet<_> = pairs.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), BUCKET_COUNT, "duplicate bucket name");
        // pairs() carries every field: its sum is the struct total.
        let sum: u64 = pairs.iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, b.total());
        // And every value is distinct in the prime fill, so no field is
        // reported twice under two names.
        let values: std::collections::BTreeSet<_> = pairs.iter().map(|&(_, v)| v).collect();
        assert_eq!(values.len(), BUCKET_COUNT);
    }

    #[test]
    fn add_is_fieldwise() {
        let mut a = filled();
        let b = filled();
        a.add(&b);
        assert_eq!(a.total(), 2 * b.total());
        assert_eq!(a.compute, 2 * b.compute);
        assert_eq!(a.policy_replication, 2 * b.policy_replication);
    }

    #[test]
    fn group_helpers_cover_their_buckets() {
        let b = filled();
        assert_eq!(
            b.walk_cycles(),
            b.walk_pwc_hit_local
                + b.walk_pwc_hit_remote
                + b.walk_pwc_miss_local
                + b.walk_pwc_miss_remote
        );
        assert_eq!(
            b.walk_local_cycles(),
            b.walk_pwc_hit_local + b.walk_pwc_miss_local
        );
        assert_eq!(
            b.walk_remote_cycles(),
            b.walk_pwc_hit_remote + b.walk_pwc_miss_remote
        );
        assert_eq!(
            b.dram_cycles(),
            b.dram_service + b.ctrl_queue + b.interconnect
        );
        assert_eq!(
            b.policy_cycles(),
            b.policy_migration + b.policy_split + b.policy_replication
        );
    }
}
