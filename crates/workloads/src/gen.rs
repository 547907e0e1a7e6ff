//! Deterministic per-thread access-stream generation.

use crate::spec::{AccessPattern, RegionSpec, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Base page size; the allocation phase touches one of these per op.
pub const PAGE: u64 = 4096;

/// One memory operation emitted by a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Virtual address touched.
    pub vaddr: u64,
    /// Whether the operation is a store.
    pub is_write: bool,
    /// Store to line-level shared data: coherence forces it to the home
    /// memory controller (the engine bypasses the cache hierarchy).
    pub coherent_store: bool,
    /// Sequential access a hardware prefetcher would cover: DRAM latency is
    /// largely hidden (bandwidth is still consumed).
    pub prefetched: bool,
}

struct ThreadState {
    rng: SmallRng,
    /// 4 KiB page bases this thread first-touches, in touch order.
    alloc_list: Vec<u64>,
    alloc_pos: usize,
    /// Per-region streaming cursor (used by [`AccessPattern::Stream`]).
    stream_cursors: Vec<u64>,
    /// Compute ops issued so far (drives blocked-window rotation).
    ops_issued: u64,
}

/// Generates the access streams of every thread of one workload.
///
/// Generation is deterministic: the same `(spec, seed)` pair produces the
/// same streams, which keeps every experiment reproducible.
pub struct WorkloadGen {
    spec: WorkloadSpec,
    /// Cumulative region-share table for O(regions) region selection
    /// (per phase; a single entry when the workload has no phases).
    cumshares: Vec<Vec<f64>>,
    /// Cumulative round count at which each phase ends.
    phase_ends: Vec<u64>,
    threads: Vec<ThreadState>,
    alloc_rounds: u32,
    /// Loader-header touches executed serially by thread 0 before round 0.
    prelude: Vec<u64>,
}

/// The thread owning the compute-phase data at `offset` within a region.
fn owner_of(region: &RegionSpec, offset: u64, threads: usize) -> usize {
    match region.pattern {
        // Shared structures are initialized by whichever thread happens to
        // build that part (fine-grained parallel init): effectively random
        // 64 KiB chunks, modelled with a deterministic hash.
        AccessPattern::SharedUniform => {
            let chunk = offset / (64 * 1024);
            (chunk.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) as usize % threads
        }
        AccessPattern::InterleavedChunks { chunk_bytes, .. } => {
            // Twisted dealing: each super-row of `threads` chunks rotates
            // ownership by one, so page-size-aligned boundaries are owned
            // by different threads as the address grows (as they would be
            // under work-stealing); a plain modulo would hand every 2 MiB
            // boundary chunk to the same thread.
            let chunk = offset / chunk_bytes;
            let row = chunk / threads as u64;
            ((chunk + row) % threads as u64) as usize
        }
        _ => {
            let slice = region.bytes.div_ceil(threads as u64);
            ((offset / slice) as usize).min(threads - 1)
        }
    }
}

impl WorkloadGen {
    /// Builds the generator; `seed` fixes all randomness.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`] or a hotspot
    /// layout exceeds its region.
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        spec.validate();
        for r in &spec.regions {
            if let AccessPattern::Hotspots {
                count,
                hot_bytes,
                spacing_bytes,
                ..
            } = r.pattern
            {
                assert!(
                    count as u64 * spacing_bytes.max(hot_bytes) <= r.bytes,
                    "{}: hotspots exceed region",
                    spec.name
                );
            }
        }

        let t = spec.threads;
        // Build per-thread allocation lists: for every region, each 4 KiB
        // page is first-touched either by thread 0 (the skewed prefix) or by
        // its compute-phase owner, each thread touching its pages in
        // address order — the typical parallel-initialization loop.
        let mut alloc_lists: Vec<Vec<u64>> = vec![Vec::new(); t];
        // The loader's header touches happen before anything else: a loader
        // thread writes all headers/metadata first, then initializes its own
        // share. Keeping them first in thread 0's list means the header
        // touch wins the first-touch race for its 2 MiB range.
        let mut prelude: Vec<u64> = Vec::new();
        const HUGE: u64 = 2 << 20;
        for r in &spec.regions {
            let skew_end = ((r.bytes as f64 * r.alloc_skew) as u64 / PAGE) * PAGE;
            let header_end = ((r.bytes as f64 * r.loader_headers) as u64 / HUGE) * HUGE;
            let mut off = 0;
            while off < r.bytes {
                let is_header = off < header_end && off.is_multiple_of(HUGE);
                if is_header || off < skew_end {
                    // Loader work happens in the serial setup phase, before
                    // any worker runs — both full skewed initialization
                    // (pca's matrix build) and header seeding.
                    prelude.push(r.base + off);
                } else {
                    alloc_lists[owner_of(r, off, t)].push(r.base + off);
                }
                off += PAGE;
            }
        }

        let max_alloc = alloc_lists.iter().map(Vec::len).max().unwrap_or(0) as u64;
        let alloc_rounds = max_alloc.div_ceil(spec.ops_per_round) as u32;

        let cum_table = |shares: &[f64]| -> Vec<f64> {
            let mut cum = 0.0;
            shares
                .iter()
                .map(|s| {
                    cum += s;
                    cum
                })
                .collect()
        };
        let (cumshares, phase_ends) = if spec.phases.is_empty() {
            let shares: Vec<f64> = spec.regions.iter().map(|r| r.share).collect();
            (vec![cum_table(&shares)], vec![u64::MAX])
        } else {
            let mut ends = Vec::new();
            let mut acc = 0u64;
            let tables = spec
                .phases
                .iter()
                .map(|p| {
                    acc += u64::from(p.rounds);
                    ends.push(acc);
                    cum_table(&p.shares)
                })
                .collect();
            (tables, ends)
        };

        let threads = alloc_lists
            .into_iter()
            .enumerate()
            .map(|(i, alloc_list)| {
                let slice_starts = spec
                    .regions
                    .iter()
                    .map(|r| {
                        let slice = r.bytes.div_ceil(t as u64);
                        r.base + slice * i as u64
                    })
                    .collect();
                ThreadState {
                    rng: SmallRng::seed_from_u64(
                        seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
                    ),
                    alloc_list,
                    alloc_pos: 0,
                    stream_cursors: slice_starts,
                    ops_issued: 0,
                }
            })
            .collect();

        WorkloadGen {
            spec: spec.clone(),
            cumshares,
            phase_ends,
            threads,
            alloc_rounds,
            prelude,
        }
    }

    /// The loader thread's serial header touches (first-touch stores run by
    /// thread 0 before the parallel phase begins).
    pub fn prelude(&self) -> &[u64] {
        &self.prelude
    }

    /// Rounds needed for the slowest thread to finish first-touching.
    #[inline]
    pub fn alloc_rounds(&self) -> u32 {
        self.alloc_rounds
    }

    /// Total rounds of the workload (allocation + compute).
    #[inline]
    pub fn total_rounds(&self) -> u32 {
        self.alloc_rounds + self.spec.total_compute_rounds()
    }

    /// The phase index a thread is in after issuing `ops` compute ops.
    #[inline]
    fn phase_of(&self, ops: u64) -> usize {
        let round = ops / self.spec.ops_per_round;
        self.phase_ends
            .iter()
            .position(|&end| round < end)
            .unwrap_or(self.phase_ends.len() - 1)
    }

    /// The spec this generator was built from.
    #[inline]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Whether `thread` is still in its allocation phase.
    #[inline]
    pub fn in_alloc_phase(&self, thread: usize) -> bool {
        let st = &self.threads[thread];
        st.alloc_pos < st.alloc_list.len()
    }

    /// Emits the next operation of `thread`.
    pub fn next_op(&mut self, thread: usize) -> Op {
        let phase = self.phase_of(self.threads[thread].ops_issued);
        let st = &mut self.threads[thread];
        if st.alloc_pos < st.alloc_list.len() {
            let vaddr = st.alloc_list[st.alloc_pos];
            st.alloc_pos += 1;
            return Op {
                vaddr,
                is_write: true, // first touch is a store (demand-zero)
                coherent_store: false,
                prefetched: false,
            };
        }
        self.compute_op(thread, phase)
    }

    /// Fills `out` (cleared first) with the next `n` operations of
    /// `thread` — exactly the ops `n` successive [`WorkloadGen::next_op`]
    /// calls would emit, with an identical RNG draw sequence. The batched
    /// form lifts phase derivation out of the per-op path: allocation-phase
    /// ops stream straight off the precomputed list, and compute-phase ops
    /// are generated in phase-constant chunks (the phase index can only
    /// change every `ops_per_round` ops).
    pub fn next_block(&mut self, thread: usize, n: usize, out: &mut Vec<Op>) {
        out.clear();
        out.reserve(n);
        let mut remaining = n;
        {
            let st = &mut self.threads[thread];
            let left = st.alloc_list.len() - st.alloc_pos;
            let take = remaining.min(left);
            for &vaddr in &st.alloc_list[st.alloc_pos..st.alloc_pos + take] {
                out.push(Op {
                    vaddr,
                    is_write: true, // first touch is a store (demand-zero)
                    coherent_store: false,
                    prefetched: false,
                });
            }
            st.alloc_pos += take;
            remaining -= take;
        }
        while remaining > 0 {
            let ops_issued = self.threads[thread].ops_issued;
            let phase = self.phase_of(ops_issued);
            // Ops left before this phase can end; the final (or only) phase
            // never ends, so the whole rest of the block is one chunk.
            let chunk = if phase + 1 >= self.phase_ends.len() {
                remaining
            } else {
                let phase_end_ops = self.phase_ends[phase] * self.spec.ops_per_round;
                remaining.min((phase_end_ops - ops_issued) as usize)
            };
            for _ in 0..chunk {
                let op = self.compute_op(thread, phase);
                out.push(op);
            }
            remaining -= chunk;
        }
    }

    /// Serializes the per-thread mutable state — RNG streams, allocation
    /// cursors, stream cursors, and issued-op counters — for the `ckpt-v1`
    /// snapshot. Everything else (allocation lists, prelude, share tables)
    /// is deterministic in `(spec, seed)` and rebuilt by
    /// [`WorkloadGen::new`].
    pub fn save_into(&self, e: &mut codec::Enc) {
        e.seq(self.threads.iter(), |e, st| {
            for w in st.rng.state() {
                e.u64(w);
            }
            e.usize(st.alloc_pos);
            e.seq(st.stream_cursors.iter(), |e, &c| e.u64(c));
            e.u64(st.ops_issued);
        });
    }

    /// Restores state captured by [`WorkloadGen::save_into`] onto a
    /// generator built from the same `(spec, seed)`.
    pub fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        let n = d.usize();
        assert_eq!(n, self.threads.len(), "checkpoint workload thread count");
        for st in &mut self.threads {
            let s = [d.u64(), d.u64(), d.u64(), d.u64()];
            st.rng = SmallRng::from_state(s);
            st.alloc_pos = d.usize();
            let cursors = d.seq(|d| d.u64());
            assert_eq!(
                cursors.len(),
                st.stream_cursors.len(),
                "checkpoint stream cursor count"
            );
            st.stream_cursors = cursors;
            st.ops_issued = d.u64();
        }
    }

    /// One compute-phase op of `thread` under the region shares of `phase`
    /// (the shared tail of [`WorkloadGen::next_op`] and
    /// [`WorkloadGen::next_block`]).
    fn compute_op(&mut self, thread: usize, phase: usize) -> Op {
        let st = &mut self.threads[thread];
        // Pick a region by the current phase's shares, then an address by
        // the region's pattern.
        let cumshare = &self.cumshares[phase];
        let p: f64 = st.rng.random();
        let mut ridx = cumshare.len() - 1;
        for (i, &c) in cumshare.iter().enumerate() {
            if p < c {
                ridx = i;
                break;
            }
        }
        let region = &self.spec.regions[ridx];
        let t = self.spec.threads;
        let vaddr = match region.pattern {
            AccessPattern::SharedUniform => region.base + st.rng.random_range(0..region.bytes),
            AccessPattern::PrivateSlices => {
                let slice = region.bytes.div_ceil(t as u64);
                let lo = slice * thread as u64;
                let hi = (lo + slice).min(region.bytes);
                region.base + lo + st.rng.random_range(0..hi - lo)
            }
            AccessPattern::PrivateBlocked {
                block_bytes,
                dwell_ops,
            } => {
                let slice = region.bytes.div_ceil(t as u64);
                let lo = slice * thread as u64;
                let hi = (lo + slice).min(region.bytes);
                let span = hi - lo;
                let nblocks = (span / block_bytes).max(1);
                let block = (st.ops_issued / dwell_ops) % nblocks;
                let bstart = lo + block * block_bytes;
                let blen = block_bytes.min(span - (bstart - lo));
                region.base + bstart + st.rng.random_range(0..blen)
            }
            AccessPattern::InterleavedChunks {
                chunk_bytes,
                dwell_ops,
            } => {
                // Inverse of the twisted dealing in `owner_of`: in super-row
                // r, this thread owns chunk `r*t + ((thread - r) mod t)`.
                // The thread dwells in one of its chunks for `dwell_ops`
                // operations before moving to the next (mesh elements are
                // processed one at a time).
                let nchunks = (region.bytes / chunk_bytes).max(1);
                let rows = nchunks.div_ceil(t as u64);
                let r = (st.ops_issued / dwell_ops.max(1)) % rows;
                let j = (thread as u64 + t as u64 - r % t as u64) % t as u64;
                let chunk = (r * t as u64 + j).min(nchunks - 1);
                region.base + chunk * chunk_bytes + st.rng.random_range(0..chunk_bytes)
            }
            AccessPattern::Hotspots {
                count,
                hot_bytes,
                spacing_bytes,
                hot_share,
            } => {
                if st.rng.random::<f64>() < hot_share {
                    let h = st.rng.random_range(0..count as u64);
                    region.base + h * spacing_bytes + st.rng.random_range(0..hot_bytes)
                } else {
                    region.base + st.rng.random_range(0..region.bytes)
                }
            }
            AccessPattern::Stream { stride } => {
                let slice = region.bytes.div_ceil(t as u64);
                let lo = region.base + slice * thread as u64;
                let hi = (lo + slice).min(region.base + region.bytes);
                let cur = &mut st.stream_cursors[ridx];
                if *cur < lo || *cur + stride > hi {
                    *cur = lo;
                }
                let v = *cur;
                *cur += stride;
                v
            }
        };
        st.ops_issued += 1;
        let is_write = !region.read_only && st.rng.random::<f64>() < self.spec.write_fraction;
        Op {
            vaddr,
            is_write,
            // Migratory read-write sharing: lines bounce between caches, so
            // reads and writes alike are serviced by the home node.
            coherent_store: region.rw_shared,
            prefetched: matches!(region.pattern, AccessPattern::Stream { .. }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AccessPattern, RegionSpec, WorkloadSpec};

    fn spec_with(pattern: AccessPattern, threads: usize, bytes: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: "t".into(),
            threads,
            regions: vec![RegionSpec {
                base: 1 << 30,
                bytes,
                share: 1.0,
                pattern,
                alloc_skew: 0.0,
                loader_headers: 0.0,
                rw_shared: false,
                read_only: false,
            }],
            ops_per_round: 64,
            compute_rounds: 4,
            think_cycles_per_op: 0,
            write_fraction: 0.25,
            phases: Vec::new(),
            mlp: 1,
        }
    }

    fn drain_alloc(g: &mut WorkloadGen, thread: usize) {
        while g.in_alloc_phase(thread) {
            g.next_op(thread);
        }
    }

    #[test]
    fn alloc_phase_touches_every_page_once() {
        let spec = spec_with(AccessPattern::PrivateSlices, 2, 1 << 20);
        let mut g = WorkloadGen::new(&spec, 1);
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..2 {
            while g.in_alloc_phase(t) {
                let op = g.next_op(t);
                assert!(op.is_write);
                assert!(seen.insert(op.vaddr), "page touched twice");
            }
        }
        assert_eq!(seen.len(), 256);
        // Every page base, exactly.
        assert_eq!(*seen.iter().next().unwrap(), 1 << 30);
        assert_eq!(*seen.iter().last().unwrap(), (1 << 30) + (1 << 20) - 4096);
    }

    #[test]
    fn private_slices_stay_private() {
        let spec = spec_with(AccessPattern::PrivateSlices, 4, 1 << 20);
        let mut g = WorkloadGen::new(&spec, 7);
        for t in 0..4 {
            drain_alloc(&mut g, t);
        }
        let slice = (1u64 << 20) / 4;
        for t in 0..4usize {
            for _ in 0..200 {
                let op = g.next_op(t);
                let off = op.vaddr - (1 << 30);
                assert_eq!((off / slice) as usize, t);
            }
        }
    }

    #[test]
    fn interleaved_chunks_stay_owned_and_interleave() {
        let chunk = 8192u64;
        let spec = spec_with(
            AccessPattern::InterleavedChunks {
                chunk_bytes: chunk,
                dwell_ops: 1,
            },
            4,
            1 << 20,
        );
        let mut g = WorkloadGen::new(&spec, 3);
        for t in 0..4 {
            drain_alloc(&mut g, t);
        }
        for t in 0..4usize {
            for _ in 0..200 {
                let op = g.next_op(t);
                let off = op.vaddr - (1 << 30);
                // Twisted dealing: owner of chunk c is (c + c/T) mod T.
                let c = off / chunk;
                assert_eq!(((c + c / 4) % 4) as usize, t);
            }
        }
    }

    #[test]
    fn hotspots_receive_their_share() {
        let spec = spec_with(
            AccessPattern::Hotspots {
                count: 2,
                hot_bytes: 4096,
                spacing_bytes: 1 << 19,
                hot_share: 0.8,
            },
            1,
            1 << 20,
        );
        let mut g = WorkloadGen::new(&spec, 5);
        drain_alloc(&mut g, 0);
        let mut hot = 0;
        let n = 20_000;
        for _ in 0..n {
            let op = g.next_op(0);
            let off = op.vaddr - (1 << 30);
            let in_spot = (off < 4096) || ((1 << 19)..(1 << 19) + 4096).contains(&off);
            if in_spot {
                hot += 1;
            }
        }
        let frac = hot as f64 / n as f64;
        // 0.8 plus the sliver of uniform traffic that lands in the spots.
        assert!((0.78..0.84).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn stream_is_sequential_and_wraps() {
        let spec = spec_with(AccessPattern::Stream { stride: 64 }, 2, 1 << 20);
        let mut g = WorkloadGen::new(&spec, 2);
        for t in 0..2 {
            drain_alloc(&mut g, t);
        }
        let a = g.next_op(0).vaddr;
        let b = g.next_op(0).vaddr;
        assert_eq!(b, a + 64);
        // Thread 1 streams its own half.
        let c = g.next_op(1).vaddr;
        assert!(c >= (1 << 30) + (1 << 19));
    }

    #[test]
    fn alloc_skew_goes_to_the_serial_prelude() {
        let mut spec = spec_with(AccessPattern::PrivateSlices, 4, 1 << 20);
        spec.regions[0].alloc_skew = 0.5;
        let g = WorkloadGen::new(&spec, 1);
        // 256 pages total; the skewed first half is loader (prelude) work,
        // the remaining 128 pages belong to their slice owners (threads 2,3
        // own offsets ≥ 1<<19).
        assert_eq!(g.prelude().len(), 128);
        assert_eq!(g.threads[0].alloc_list.len(), 0);
        assert_eq!(g.threads[1].alloc_list.len(), 0);
        assert_eq!(g.threads[2].alloc_list.len(), 64);
        assert_eq!(g.threads[3].alloc_list.len(), 64);
    }

    #[test]
    fn next_block_matches_next_op_exactly() {
        // Across alloc→compute transition, all patterns, odd block sizes.
        for pattern in [
            AccessPattern::SharedUniform,
            AccessPattern::PrivateSlices,
            AccessPattern::Stream { stride: 64 },
            AccessPattern::Hotspots {
                count: 2,
                hot_bytes: 4096,
                spacing_bytes: 1 << 19,
                hot_share: 0.8,
            },
        ] {
            let spec = spec_with(pattern, 2, 1 << 20);
            let mut a = WorkloadGen::new(&spec, 11);
            let mut b = WorkloadGen::new(&spec, 11);
            let mut block = Vec::new();
            for round in 0..40 {
                for t in 0..2 {
                    let n = 1 + (round * 7 + t * 3) % 23;
                    b.next_block(t, n, &mut block);
                    assert_eq!(block.len(), n);
                    for (i, got) in block.iter().enumerate() {
                        assert_eq!(*got, a.next_op(t), "op {i} of block {round}/{t}");
                    }
                }
            }
        }
    }

    #[test]
    fn next_block_matches_across_phase_changes() {
        let mut spec = spec_with(AccessPattern::SharedUniform, 2, 1 << 20);
        spec.regions.push(RegionSpec {
            base: 2 << 30,
            bytes: 1 << 20,
            share: 0.0,
            pattern: AccessPattern::PrivateSlices,
            alloc_skew: 0.0,
            loader_headers: 0.0,
            rw_shared: false,
            read_only: false,
        });
        spec.phases = vec![
            crate::spec::PhaseSpec {
                rounds: 2,
                shares: vec![1.0, 0.0],
            },
            crate::spec::PhaseSpec {
                rounds: 2,
                shares: vec![0.0, 1.0],
            },
        ];
        let mut a = WorkloadGen::new(&spec, 5);
        let mut b = WorkloadGen::new(&spec, 5);
        let mut block = Vec::new();
        // Blocks of 50 do not divide the 64-op rounds, so chunks straddle
        // phase boundaries.
        for _ in 0..20 {
            for t in 0..2 {
                b.next_block(t, 50, &mut block);
                for got in &block {
                    assert_eq!(*got, a.next_op(t));
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = spec_with(AccessPattern::SharedUniform, 2, 1 << 20);
        let mut a = WorkloadGen::new(&spec, 9);
        let mut b = WorkloadGen::new(&spec, 9);
        for t in 0..2 {
            for _ in 0..500 {
                assert_eq!(a.next_op(t), b.next_op(t));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = spec_with(AccessPattern::SharedUniform, 1, 1 << 20);
        let mut a = WorkloadGen::new(&spec, 1);
        let mut b = WorkloadGen::new(&spec, 2);
        drain_alloc(&mut a, 0);
        drain_alloc(&mut b, 0);
        let same = (0..100).filter(|_| a.next_op(0) == b.next_op(0)).count();
        assert!(same < 5);
    }

    #[test]
    fn round_math() {
        let spec = spec_with(AccessPattern::PrivateSlices, 2, 1 << 20);
        let g = WorkloadGen::new(&spec, 1);
        // 128 pages per thread at 64 ops/round = 2 alloc rounds.
        assert_eq!(g.alloc_rounds(), 2);
        assert_eq!(g.total_rounds(), 6);
    }
}
