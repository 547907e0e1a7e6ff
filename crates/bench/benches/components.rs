//! Criterion micro-benchmarks of the simulator's hot components.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use memsys::{AccessKind, MemSysConfig, MemorySystem};
use numa_topology::{CoreId, MachineSpec, NodeId};
use profiling::{metrics, IbsConfig, IbsSample, IbsSampler};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vmem::{
    AddressSpace, FrameAllocator, PageSize, ThpControls, Tlb, TlbConfig, TlbLookup, VirtAddr,
    VmemConfig, WalkCache,
};

fn bench_tlb(c: &mut Criterion) {
    let mut tlb = Tlb::new(&TlbConfig::scaled_default(8));
    let mut rng = SmallRng::seed_from_u64(7);
    // Warm with a 256-page working set (guaranteed misses + hits mix).
    for i in 0..256u64 {
        tlb.insert(vmem::Mapping {
            vbase: VirtAddr(i * 4096),
            frame: vmem::PhysAddr(i * 4096),
            node: NodeId(0),
            size: PageSize::Size4K,
        });
    }
    c.bench_function("tlb_lookup", |b| {
        b.iter(|| {
            let v = VirtAddr(rng.random_range(0..512u64) * 4096);
            std::hint::black_box(tlb.lookup(v));
        })
    });
}

/// The Linux-4K miss path: 24 per-core scale-8 TLBs taking turns over a
/// 4 KiB page stream far beyond their reach (128 L2 entries each), so
/// nearly every lookup misses every array and fills both levels.
fn bench_tlb_miss_fill_4k(c: &mut Criterion) {
    let mut tlbs: Vec<Tlb> = (0..24)
        .map(|_| Tlb::new(&TlbConfig::scaled_default(8)))
        .collect();
    let mut rng = SmallRng::seed_from_u64(13);
    let mut core = 0;
    c.bench_function("tlb_miss_fill_4k", |b| {
        b.iter(|| {
            core = (core + 1) % tlbs.len();
            let tlb = &mut tlbs[core];
            let page = rng.random_range(0..(1u64 << 20));
            let v = VirtAddr(page * 4096);
            if let TlbLookup::Miss = tlb.lookup(v) {
                tlb.insert(vmem::Mapping {
                    vbase: v,
                    frame: vmem::PhysAddr(page * 4096),
                    node: NodeId(0),
                    size: PageSize::Size4K,
                });
            }
        })
    });
}

/// Cached walks of 4 KiB leaves: 64 pages in each of 256 PT nodes, so
/// every walk-cache hit resolves its leaf inside a populated PT node.
fn bench_walk_cached_4k(c: &mut Criterion) {
    let machine = MachineSpec::machine_a();
    let config = VmemConfig {
        thp: ThpControls::small_only(),
        ..VmemConfig::default()
    };
    let mut space = AddressSpace::new(&machine, config);
    let base = 64u64 << 30;
    space.map_region(base, 512 << 20).unwrap();
    let mut pages = Vec::new();
    for region in 0..256u64 {
        for i in 0..64u64 {
            let v = VirtAddr(base + region * (2 << 20) + i * 8 * 4096);
            space.fault(v, NodeId((region % 4) as u16)).unwrap();
            pages.push(v);
        }
    }
    let mut cache = WalkCache::new();
    let mut rng = SmallRng::seed_from_u64(5);
    c.bench_function("walk_cached_4k", |b| {
        b.iter(|| {
            let v = pages[rng.random_range(0..pages.len())];
            std::hint::black_box(space.walk_cached(v, &mut cache))
        })
    });
}

fn bench_cache_path(c: &mut Criterion) {
    let machine = MachineSpec::machine_a();
    let mut mem = MemorySystem::new(&machine, MemSysConfig::scaled_default(8));
    let mut rng = SmallRng::seed_from_u64(9);
    c.bench_function("memsys_access", |b| {
        b.iter(|| {
            let paddr = rng.random_range(0..(32u64 << 20)) & !63;
            let home = NodeId((paddr >> 24) as u16 % 4);
            std::hint::black_box(mem.access(CoreId(0), paddr, home, AccessKind::Data));
        })
    });
}

fn bench_page_walk(c: &mut Criterion) {
    let machine = MachineSpec::machine_a();
    let mut space = AddressSpace::new(&machine, VmemConfig::default());
    space.map_region(64 << 30, 64 << 20).unwrap();
    for i in 0..32u64 {
        let _ = space.fault(VirtAddr((64 << 30) + i * (2 << 20)), NodeId(0));
    }
    let mut rng = SmallRng::seed_from_u64(3);
    c.bench_function("page_walk", |b| {
        b.iter(|| {
            let v = VirtAddr((64 << 30) + rng.random_range(0..(64u64 << 20)));
            std::hint::black_box(space.walk(v));
        })
    });
}

fn bench_buddy(c: &mut Criterion) {
    let machine = MachineSpec::machine_a();
    c.bench_function("buddy_alloc_free_4k", |b| {
        b.iter_batched(
            || FrameAllocator::new(&machine),
            |mut alloc| {
                let f = alloc.alloc(NodeId(0), PageSize::Size4K).unwrap();
                alloc.free(f, PageSize::Size4K);
            },
            BatchSize::SmallInput,
        )
    });
}

fn sample_set(n: usize) -> Vec<IbsSample> {
    let mut rng = SmallRng::seed_from_u64(11);
    (0..n)
        .map(|_| IbsSample {
            vaddr: VirtAddr((64 << 30) + rng.random_range(0..(64u64 << 20))),
            accessing_node: NodeId(rng.random_range(0..4u16)),
            thread: rng.random_range(0..24u16),
            home_node: NodeId(rng.random_range(0..4u16)),
            from_dram: rng.random_bool(0.8),
            is_store: false,
            page_size: if rng.random_bool(0.5) {
                PageSize::Size2M
            } else {
                PageSize::Size4K
            },
            walk_remote_steps: 0,
        })
        .collect()
}

fn bench_ibs(c: &mut Criterion) {
    c.bench_function("ibs_observe", |b| {
        let mut sampler = IbsSampler::new(
            4,
            IbsConfig {
                period: 128,
                sample_overhead_cycles: 800,
            },
        );
        let samples = sample_set(1);
        b.iter(|| {
            std::hint::black_box(sampler.observe(|| samples[0]));
        })
    });
}

fn bench_lar_estimate(c: &mut Criterion) {
    let samples = sample_set(512);
    c.bench_function("lar_estimate_512_samples", |b| {
        b.iter(|| std::hint::black_box(carrefour::lar::estimate(&samples, 4)))
    });
}

fn bench_metrics(c: &mut Criterion) {
    let rows: Vec<(u64, u64, u64)> = (0..10_000u64)
        .map(|i| (i * 4096, i % 97 + 1, i % 15 + 1))
        .collect();
    c.bench_function("metrics_pamup_nhp_psp_10k_pages", |b| {
        b.iter(|| {
            std::hint::black_box((
                metrics::pamup(&rows),
                metrics::nhp(&rows),
                metrics::psp(&rows),
            ))
        })
    });
}

fn bench_carrefour_decision(c: &mut Criterion) {
    use engine::{EpochCtx, NumaPolicy};
    use profiling::EpochCounters;
    let machine = MachineSpec::machine_a();
    let samples = sample_set(512);
    let counters = EpochCounters {
        epoch_cycles: 1_000_000,
        dram_local: 100,
        dram_remote: 900,
        mem_ops: 100_000,
        l2_misses: 10_000,
        ..EpochCounters::default()
    };
    c.bench_function("carrefour_decision_pass_512_samples", |b| {
        b.iter_batched(
            carrefour::Carrefour::new,
            |mut policy| {
                let mut ctx =
                    EpochCtx::new(&machine, &counters, &samples, vmem::ThpControls::thp(), 0);
                policy.on_epoch(&mut ctx);
                std::hint::black_box(ctx.take_actions())
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_tlb,
    bench_tlb_miss_fill_4k,
    bench_walk_cached_4k,
    bench_cache_path,
    bench_page_walk,
    bench_buddy,
    bench_ibs,
    bench_lar_estimate,
    bench_metrics,
    bench_carrefour_decision
);
criterion_main!(benches);
