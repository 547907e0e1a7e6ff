//! Crash-resilient snapshots: the `ckpt-v1` binary checkpoint format.
//!
//! A [`Checkpoint`] captures everything a mid-stream resume needs — vmem
//! address space, caches, controllers, TLBs, sampler, fault plan, RNG
//! streams, policy state, and the engine's loop-carried accumulators — at
//! an epoch boundary, such that [`crate::Simulation::resume`] continues
//! the run **bit-identically** to one that was never interrupted.
//!
//! # Envelope format
//!
//! ```text
//! magic    8 bytes   "carrCKPT"
//! version  u32 LE    1
//! schema   u64 LE    FNV-1a of the payload-layout descriptor string
//! config   u64 LE    FNV-1a fingerprint of (machine, spec, config)
//! epoch    u32 LE    epoch index the snapshot was taken at
//! len      u64 LE    payload length in bytes
//! payload  len bytes
//! checksum u64 LE    FNV-1a over the payload
//! ```
//!
//! The header is validated *before* any payload byte is decoded (the
//! payload decoder panics on malformed input; the envelope checks make
//! that unreachable for torn or mismatched files): wrong magic/version,
//! a schema hash from a different build, a checksum mismatch, or trailing
//! bytes all surface as a typed [`CheckpointError`]. A checkpoint whose
//! *config fingerprint* differs (different machine, workload spec, or
//! simulation config — including seed and fault plan) parses fine but is
//! rejected at [`crate::Simulation::resume`] time: resuming under changed
//! inputs cannot reproduce the uninterrupted run and is a caller bug.

use crate::policy::{ActionError, FailedAction, PolicyAction};
use crate::result::{
    AttributionLedger, EpochAttribution, EpochRecord, LifetimeStats, PageMetrics, RobustnessStats,
    SimResult,
};
use codec::{fnv1a, Dec, Enc};
use numa_topology::{MachineSpec, NodeId};
use profiling::{CoreFaultTime, CycleBreakdown, EpochCounters};
use workloads::WorkloadSpec;

/// Leading bytes of every checkpoint file.
pub const MAGIC: &[u8; 8] = b"carrCKPT";
/// Format version (bumped on any envelope change).
pub const VERSION: u32 = 1;

/// Descriptor of the payload layout. Any change to what the snapshot
/// serializes (or its order) MUST extend this string so old checkpoints
/// are rejected by schema hash instead of mis-decoded.
const SCHEMA: &str = "ckpt-v1: gen space(+table_homing) walk_caches[per-thread] tlbs mem \
                      sampler(+walk_remote_steps) page_stats? faults fault_epoch fault_life \
                      robust wall total_ops overhead_total epochs last_failures \
                      attrib(prelude core_totals epochs; 19 buckets)? policy_bytes; \
                      actions+={replicate_tables,migrate_tables}";

/// FNV-1a hash of the payload schema descriptor.
pub fn schema_hash() -> u64 {
    fnv1a(SCHEMA.as_bytes())
}

/// Fingerprint of everything a run's behaviour is a function of: the
/// machine, the workload spec, and the full simulation config (seed,
/// fault plan, attribution switch, ...). Computed over the `Debug`
/// renderings, which cover every field.
pub fn config_fingerprint(
    machine: &MachineSpec,
    spec: &WorkloadSpec,
    config: &crate::SimConfig,
) -> u64 {
    let repr = format!("{} {:?} {:?}", machine.name(), spec, config);
    fnv1a(repr.as_bytes())
}

/// Why a checkpoint byte stream was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Fewer bytes than the fixed envelope, or a payload shorter than its
    /// declared length.
    Truncated,
    /// The magic bytes are not `carrCKPT`.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// The payload schema hash differs from this build's — the snapshot
    /// layout changed and the bytes cannot be decoded safely.
    SchemaMismatch,
    /// The FNV-1a payload checksum does not match (corruption).
    ChecksumMismatch,
    /// Extra bytes follow the checksum.
    TrailingBytes,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::SchemaMismatch => {
                write!(f, "checkpoint schema differs from this build")
            }
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint payload checksum mismatch"),
            CheckpointError::TrailingBytes => write!(f, "trailing bytes after checkpoint"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A validated `ckpt-v1` snapshot, ready to resume from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    epoch: u32,
    config_fp: u64,
    payload: Vec<u8>,
}

impl Checkpoint {
    pub(crate) fn new(epoch: u32, config_fp: u64, payload: Vec<u8>) -> Self {
        Checkpoint {
            epoch,
            config_fp,
            payload,
        }
    }

    /// The epoch index the snapshot was taken at.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    pub(crate) fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The config fingerprint the snapshot was taken under (the value
    /// [`config_fingerprint`] computed at capture time).
    pub fn fingerprint(&self) -> u64 {
        self.config_fp
    }

    /// In-memory payload size in bytes — what a cache holding live
    /// checkpoints (the fork tree's LRU, `CARREFOUR_FORK_CACHE_MB`) should
    /// charge against its budget.
    pub fn size_bytes(&self) -> usize {
        self.payload.len()
    }

    /// A placeholder blob (`epoch`, `bytes` of zeros, zero fingerprint)
    /// for exercising cache accounting without running a simulation.
    /// Never restorable — `matches` rejects it against any real config.
    #[doc(hidden)]
    pub fn synthetic_for_tests(epoch: u32, bytes: usize) -> Checkpoint {
        Checkpoint::new(epoch, 0, vec![0; bytes])
    }

    /// Whether this checkpoint was taken under exactly these inputs.
    /// [`crate::Simulation::resume`] refuses checkpoints that don't match:
    /// a resume under a different machine, spec, or config cannot
    /// reproduce the uninterrupted run.
    pub fn matches(
        &self,
        machine: &MachineSpec,
        spec: &WorkloadSpec,
        config: &crate::SimConfig,
    ) -> bool {
        self.config_fp == config_fingerprint(machine, spec, config)
    }

    /// Serializes the checkpoint into the `ckpt-v1` envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 48);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&schema_hash().to_le_bytes());
        out.extend_from_slice(&self.config_fp.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&fnv1a(&self.payload).to_le_bytes());
        out
    }

    /// Parses and validates a `ckpt-v1` envelope. Every header field and
    /// the payload checksum are verified before this returns `Ok`, so the
    /// panicking payload decoder never sees torn or foreign bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        const HEADER: usize = 8 + 4 + 8 + 8 + 4 + 8;
        if bytes.len() < HEADER {
            return Err(CheckpointError::Truncated);
        }
        if &bytes[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        if u64_at(12) != schema_hash() {
            return Err(CheckpointError::SchemaMismatch);
        }
        let config_fp = u64_at(20);
        let epoch = u32_at(28);
        let len = u64_at(32) as usize;
        if bytes.len() < HEADER + len + 8 {
            return Err(CheckpointError::Truncated);
        }
        if bytes.len() > HEADER + len + 8 {
            return Err(CheckpointError::TrailingBytes);
        }
        let payload = &bytes[HEADER..HEADER + len];
        let checksum = u64_at(HEADER + len);
        if fnv1a(payload) != checksum {
            return Err(CheckpointError::ChecksumMismatch);
        }
        Ok(Checkpoint {
            epoch,
            config_fp,
            payload: payload.to_vec(),
        })
    }
}

// --- Shared binary codecs for the engine's result tree. ---
//
// Used by the snapshot payload (loop-carried EpochRecords, failures,
// attribution) and by the bench runner's cell journal, which persists
// whole SimResults between suite runs.

/// Encodes one [`PolicyAction`] (public: policy crates serialize queued
/// actions in their own `save_state` payloads).
pub fn enc_action(e: &mut Enc, a: &PolicyAction) {
    match *a {
        PolicyAction::Migrate(v, node) => {
            e.u8(0);
            e.u64(v);
            e.u16(node.0);
        }
        PolicyAction::Split(v) => {
            e.u8(1);
            e.u64(v);
        }
        PolicyAction::SplitScatter(v) => {
            e.u8(2);
            e.u64(v);
        }
        PolicyAction::Replicate(v) => {
            e.u8(3);
            e.u64(v);
        }
        PolicyAction::SetThpAlloc(b) => {
            e.u8(4);
            e.bool(b);
        }
        PolicyAction::SetThpPromote(b) => {
            e.u8(5);
            e.bool(b);
        }
        PolicyAction::ReplicateTables => {
            e.u8(6);
        }
        PolicyAction::MigrateTables(v, node) => {
            e.u8(7);
            e.u64(v);
            e.u16(node.0);
        }
    }
}

/// Decodes one [`PolicyAction`] written by [`enc_action`].
pub fn dec_action(d: &mut Dec<'_>) -> PolicyAction {
    match d.u8() {
        0 => PolicyAction::Migrate(d.u64(), NodeId(d.u16())),
        1 => PolicyAction::Split(d.u64()),
        2 => PolicyAction::SplitScatter(d.u64()),
        3 => PolicyAction::Replicate(d.u64()),
        4 => PolicyAction::SetThpAlloc(d.bool()),
        5 => PolicyAction::SetThpPromote(d.bool()),
        6 => PolicyAction::ReplicateTables,
        7 => PolicyAction::MigrateTables(d.u64(), NodeId(d.u16())),
        t => panic!("ckpt: invalid PolicyAction tag {t}"),
    }
}

fn enc_action_error(e: &mut Enc, err: ActionError) {
    e.u8(match err {
        ActionError::Busy => 0,
        ActionError::NoMemory => 1,
        ActionError::Gone => 2,
    });
}

fn dec_action_error(d: &mut Dec<'_>) -> ActionError {
    match d.u8() {
        0 => ActionError::Busy,
        1 => ActionError::NoMemory,
        2 => ActionError::Gone,
        t => panic!("ckpt: invalid ActionError tag {t}"),
    }
}

pub(crate) fn enc_failed_action(e: &mut Enc, f: &FailedAction) {
    enc_action(e, &f.action);
    enc_action_error(e, f.error);
}

pub(crate) fn dec_failed_action(d: &mut Dec<'_>) -> FailedAction {
    FailedAction {
        action: dec_action(d),
        error: dec_action_error(d),
    }
}

pub(crate) fn enc_breakdown(e: &mut Enc, b: &CycleBreakdown) {
    e.u64(b.compute);
    e.u64(b.tlb_lookup);
    e.u64(b.cache_l1);
    e.u64(b.cache_l2);
    e.u64(b.cache_l3);
    e.u64(b.dram_service);
    e.u64(b.ctrl_queue);
    e.u64(b.interconnect);
    e.u64(b.walk_pwc_hit_local);
    e.u64(b.walk_pwc_hit_remote);
    e.u64(b.walk_pwc_miss_local);
    e.u64(b.walk_pwc_miss_remote);
    e.u64(b.fault);
    e.u64(b.replica_collapse);
    e.u64(b.khugepaged);
    e.u64(b.ibs_sampling);
    e.u64(b.policy_migration);
    e.u64(b.policy_split);
    e.u64(b.policy_replication);
}

pub(crate) fn dec_breakdown(d: &mut Dec<'_>) -> CycleBreakdown {
    CycleBreakdown {
        compute: d.u64(),
        tlb_lookup: d.u64(),
        cache_l1: d.u64(),
        cache_l2: d.u64(),
        cache_l3: d.u64(),
        dram_service: d.u64(),
        ctrl_queue: d.u64(),
        interconnect: d.u64(),
        walk_pwc_hit_local: d.u64(),
        walk_pwc_hit_remote: d.u64(),
        walk_pwc_miss_local: d.u64(),
        walk_pwc_miss_remote: d.u64(),
        fault: d.u64(),
        replica_collapse: d.u64(),
        khugepaged: d.u64(),
        ibs_sampling: d.u64(),
        policy_migration: d.u64(),
        policy_split: d.u64(),
        policy_replication: d.u64(),
    }
}

fn enc_counters(e: &mut Enc, c: &EpochCounters) {
    e.u64(c.epoch_cycles);
    e.u64(c.l2_accesses);
    e.u64(c.l2_misses);
    e.u64(c.l2_walk_misses);
    e.u64(c.dram_local);
    e.u64(c.dram_remote);
    e.seq(c.controller_requests.iter(), |e, &v| e.u64(v));
    e.seq(c.fault_time.iter(), |e, f| e.u64(f.fault_cycles));
    e.u64(c.mem_ops);
}

fn dec_counters(d: &mut Dec<'_>) -> EpochCounters {
    EpochCounters {
        epoch_cycles: d.u64(),
        l2_accesses: d.u64(),
        l2_misses: d.u64(),
        l2_walk_misses: d.u64(),
        dram_local: d.u64(),
        dram_remote: d.u64(),
        controller_requests: d.seq(|d| d.u64()),
        fault_time: d.seq(|d| CoreFaultTime {
            fault_cycles: d.u64(),
        }),
        mem_ops: d.u64(),
    }
}

pub(crate) fn enc_epoch_record(e: &mut Enc, r: &EpochRecord) {
    enc_counters(e, &r.counters);
    e.u64(r.migrations);
    e.u64(r.splits);
    e.u64(r.collapses);
    e.u64(r.overhead_cycles);
    e.bool(r.thp_alloc_enabled);
    e.bool(r.thp_promote_enabled);
    e.u64(r.failed_actions);
}

pub(crate) fn dec_epoch_record(d: &mut Dec<'_>) -> EpochRecord {
    EpochRecord {
        counters: dec_counters(d),
        migrations: d.u64(),
        splits: d.u64(),
        collapses: d.u64(),
        overhead_cycles: d.u64(),
        thp_alloc_enabled: d.bool(),
        thp_promote_enabled: d.bool(),
        failed_actions: d.u64(),
    }
}

pub(crate) fn enc_robust(e: &mut Enc, r: &RobustnessStats) {
    e.u64(r.failed_migrations);
    e.u64(r.failed_splits);
    e.u64(r.failed_replications);
    e.u64(r.fallback_allocs);
    e.u64(r.busy_rejections);
    e.u64(r.dropped_samples);
    e.u64(r.misattributed_samples);
    e.u64(r.retries);
    e.u64(r.oom_reclaims);
}

pub(crate) fn dec_robust(d: &mut Dec<'_>) -> RobustnessStats {
    RobustnessStats {
        failed_migrations: d.u64(),
        failed_splits: d.u64(),
        failed_replications: d.u64(),
        fallback_allocs: d.u64(),
        busy_rejections: d.u64(),
        dropped_samples: d.u64(),
        misattributed_samples: d.u64(),
        retries: d.u64(),
        oom_reclaims: d.u64(),
    }
}

fn enc_lifetime(e: &mut Enc, l: &LifetimeStats) {
    e.f64(l.lar);
    e.f64(l.imbalance);
    e.f64(l.walk_miss_fraction);
    e.f64(l.tlb_miss_ratio);
    e.u64(l.max_fault_cycles);
    e.f64(l.max_fault_fraction);
    e.u64(l.total_fault_cycles);
    e.u64(l.vmem.faults_4k);
    e.u64(l.vmem.faults_2m);
    e.u64(l.vmem.faults_1g);
    e.u64(l.vmem.migrations_4k);
    e.u64(l.vmem.migrations_2m);
    e.u64(l.vmem.splits);
    e.u64(l.vmem.collapses);
    e.u64(l.vmem.replications);
    e.u64(l.vmem.replica_collapses);
    e.u64(l.vmem.bytes_copied);
    e.u64(l.vmem.table_replications);
    e.u64(l.vmem.table_migrations);
    e.u64(l.overhead_cycles);
    e.u64(l.ibs_samples);
    e.u64(l.total_ops);
}

fn dec_lifetime(d: &mut Dec<'_>) -> LifetimeStats {
    LifetimeStats {
        lar: d.f64(),
        imbalance: d.f64(),
        walk_miss_fraction: d.f64(),
        tlb_miss_ratio: d.f64(),
        max_fault_cycles: d.u64(),
        max_fault_fraction: d.f64(),
        total_fault_cycles: d.u64(),
        vmem: vmem::VmemStats {
            faults_4k: d.u64(),
            faults_2m: d.u64(),
            faults_1g: d.u64(),
            migrations_4k: d.u64(),
            migrations_2m: d.u64(),
            splits: d.u64(),
            collapses: d.u64(),
            replications: d.u64(),
            replica_collapses: d.u64(),
            bytes_copied: d.u64(),
            table_replications: d.u64(),
            table_migrations: d.u64(),
        },
        overhead_cycles: d.u64(),
        ibs_samples: d.u64(),
        total_ops: d.u64(),
    }
}

pub(crate) fn enc_epoch_attribution(e: &mut Enc, a: &EpochAttribution) {
    enc_breakdown(e, &a.wall);
    e.seq(a.cores.iter(), enc_breakdown);
}

pub(crate) fn dec_epoch_attribution(d: &mut Dec<'_>) -> EpochAttribution {
    EpochAttribution {
        wall: dec_breakdown(d),
        cores: d.seq(dec_breakdown),
    }
}

fn enc_ledger(e: &mut Enc, l: &AttributionLedger) {
    enc_breakdown(e, &l.prelude);
    e.seq(l.epochs.iter(), enc_epoch_attribution);
    enc_breakdown(e, &l.total);
    e.seq(l.core_totals.iter(), enc_breakdown);
}

fn dec_ledger(d: &mut Dec<'_>) -> AttributionLedger {
    AttributionLedger {
        prelude: dec_breakdown(d),
        epochs: d.seq(dec_epoch_attribution),
        total: dec_breakdown(d),
        core_totals: d.seq(dec_breakdown),
    }
}

/// Encodes a full [`SimResult`] (with attribution, if present) into a
/// self-checking binary blob — the bench runner journals these per cell
/// so `--resume` can reconstruct completed cells without re-running them.
pub fn encode_result(r: &SimResult) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(&r.workload);
    e.str(&r.policy);
    e.str(&r.machine);
    e.u64(r.runtime_cycles);
    e.f64(r.runtime_ms);
    e.seq(r.epochs.iter(), enc_epoch_record);
    enc_lifetime(&mut e, &r.lifetime);
    e.f64(r.pages.pamup);
    e.usize(r.pages.nhp);
    e.f64(r.pages.psp);
    e.f64(r.pages.pamup_4k);
    e.usize(r.pages.nhp_4k);
    e.f64(r.pages.psp_4k);
    enc_robust(&mut e, &r.robustness);
    e.opt(&r.attribution, enc_ledger);
    let mut bytes = e.into_bytes();
    let checksum = fnv1a(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Decodes a blob written by [`encode_result`]. Returns `None` when the
/// trailing checksum does not match (torn or corrupted journal entry) —
/// callers treat such entries as absent and re-run the cell.
pub fn decode_result(bytes: &[u8]) -> Option<SimResult> {
    if bytes.len() < 8 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let checksum = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv1a(body) != checksum {
        return None;
    }
    let mut d = Dec::new(body);
    let r = SimResult {
        workload: d.str(),
        policy: d.str(),
        machine: d.str(),
        runtime_cycles: d.u64(),
        runtime_ms: d.f64(),
        epochs: d.seq(dec_epoch_record),
        lifetime: dec_lifetime(&mut d),
        pages: PageMetrics {
            pamup: d.f64(),
            nhp: d.usize(),
            psp: d.f64(),
            pamup_4k: d.f64(),
            nhp_4k: d.usize(),
            psp_4k: d.f64(),
        },
        robustness: dec_robust(&mut d),
        attribution: d.opt(dec_ledger),
    };
    d.finish();
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> SimResult {
        SimResult {
            workload: "w".into(),
            policy: "p".into(),
            machine: "m".into(),
            runtime_cycles: 123_456,
            runtime_ms: 1.5,
            epochs: vec![EpochRecord {
                counters: EpochCounters {
                    epoch_cycles: 100,
                    l2_accesses: 10,
                    l2_misses: 5,
                    l2_walk_misses: 2,
                    dram_local: 3,
                    dram_remote: 1,
                    controller_requests: vec![4, 0],
                    fault_time: vec![CoreFaultTime { fault_cycles: 7 }],
                    mem_ops: 400,
                },
                migrations: 1,
                splits: 2,
                collapses: 0,
                overhead_cycles: 9,
                thp_alloc_enabled: true,
                thp_promote_enabled: false,
                failed_actions: 1,
            }],
            lifetime: LifetimeStats {
                lar: 0.75,
                ..LifetimeStats::default()
            },
            pages: PageMetrics {
                pamup: 1.25,
                nhp: 3,
                psp: 50.0,
                pamup_4k: 0.5,
                nhp_4k: 8,
                psp_4k: 10.0,
            },
            robustness: RobustnessStats {
                retries: 4,
                ..RobustnessStats::default()
            },
            attribution: Some(AttributionLedger {
                prelude: CycleBreakdown {
                    compute: 11,
                    ..CycleBreakdown::default()
                },
                epochs: vec![EpochAttribution {
                    wall: CycleBreakdown::default(),
                    cores: vec![CycleBreakdown::default(); 2],
                }],
                total: CycleBreakdown::default(),
                core_totals: vec![CycleBreakdown::default(); 2],
            }),
        }
    }

    #[test]
    fn result_codec_round_trips() {
        let r = sample_result();
        let bytes = encode_result(&r);
        assert_eq!(decode_result(&bytes), Some(r));
    }

    #[test]
    fn result_codec_rejects_corruption() {
        let r = sample_result();
        let bytes = encode_result(&r);
        for i in [0, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert_eq!(decode_result(&bad), None, "flipped byte {i} accepted");
        }
        assert_eq!(decode_result(&bytes[..bytes.len() - 1]), None, "truncated");
    }

    #[test]
    fn envelope_round_trips() {
        let ckpt = Checkpoint::new(7, 0xDEAD_BEEF, vec![1, 2, 3, 4, 5]);
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.epoch(), 7);
    }

    #[test]
    fn envelope_rejects_every_tamper_class() {
        let ckpt = Checkpoint::new(1, 42, vec![9; 64]);
        let good = ckpt.to_bytes();

        assert_eq!(
            Checkpoint::from_bytes(&good[..10]),
            Err(CheckpointError::Truncated)
        );

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(Checkpoint::from_bytes(&bad), Err(CheckpointError::BadMagic));

        let mut bad = good.clone();
        bad[8] = 99;
        assert_eq!(
            Checkpoint::from_bytes(&bad),
            Err(CheckpointError::BadVersion(99))
        );

        let mut bad = good.clone();
        bad[12] ^= 1; // schema hash
        assert_eq!(
            Checkpoint::from_bytes(&bad),
            Err(CheckpointError::SchemaMismatch)
        );

        let mut bad = good.clone();
        let payload_start = 8 + 4 + 8 + 8 + 4 + 8;
        bad[payload_start] ^= 1;
        assert_eq!(
            Checkpoint::from_bytes(&bad),
            Err(CheckpointError::ChecksumMismatch)
        );

        let mut bad = good.clone();
        bad.push(0);
        assert_eq!(
            Checkpoint::from_bytes(&bad),
            Err(CheckpointError::TrailingBytes)
        );

        assert!(Checkpoint::from_bytes(&good).is_ok());
    }

    #[test]
    fn action_codec_round_trips_every_variant() {
        let actions = [
            PolicyAction::Migrate(0x20_0000, NodeId(3)),
            PolicyAction::Split(0x40_0000),
            PolicyAction::SplitScatter(0x60_0000),
            PolicyAction::Replicate(0x1000),
            PolicyAction::SetThpAlloc(true),
            PolicyAction::SetThpPromote(false),
            PolicyAction::ReplicateTables,
            PolicyAction::MigrateTables(0x20_0000, NodeId(2)),
        ];
        let errors = [ActionError::Busy, ActionError::NoMemory, ActionError::Gone];
        let mut e = Enc::new();
        for a in &actions {
            enc_action(&mut e, a);
        }
        for (i, &err) in errors.iter().enumerate() {
            enc_failed_action(
                &mut e,
                &FailedAction {
                    action: actions[i],
                    error: err,
                },
            );
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        for a in &actions {
            assert_eq!(dec_action(&mut d), *a);
        }
        for (i, &err) in errors.iter().enumerate() {
            let f = dec_failed_action(&mut d);
            assert_eq!(f.action, actions[i]);
            assert_eq!(f.error, err);
        }
        d.finish();
    }
}
