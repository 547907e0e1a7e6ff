//! Deterministic structured event tracing.
//!
//! The simulation's end-of-run aggregates say *that* a run behaved some way;
//! the trace says *when* and *why*. Every observable state change — demand
//! faults, khugepaged promotions, policy splits/migrations, table moves,
//! THP toggles, the policy's own decisions with their evidence, and a
//! per-epoch counter snapshot — is emitted as a [`TraceEvent`] to the run's
//! [`RunHook`] when its [`RunHook::wants_events`] is true.
//!
//! Two invariants the engine guarantees:
//!
//! * **Zero cost when off.** [`crate::Simulation::run`] attaches no hook
//!   and every emission site is guarded by a flag set once at run start; no
//!   event is even constructed. A traced run produces a bit-identical
//!   [`crate::SimResult`] to an untraced one — hooks only observe, they
//!   never feed back.
//! * **Determinism.** Events are emitted in simulation order, which is fully
//!   determined by `(spec, config)`. Two runs with the same inputs produce
//!   the same event stream, which is what makes golden [`TraceDigest`]s a
//!   meaningful regression oracle.

use crate::policy::{ActionError, PolicyAction};
use crate::sim::RunHook;
use codec::json::{self, esc, num, u64s, JsonError};
use codec::Fnv64;
use vmem::PageSize;

/// A policy's explanation of something it decided this epoch, with the
/// evidence it acted on. Policies record these via
/// [`crate::EpochCtx::note`]; the engine forwards them as
/// [`TraceEvent::Decision`] events. Purely observational: recording a
/// decision never changes simulation behaviour.
#[derive(Clone, Debug, PartialEq)]
pub enum PolicyDecision {
    /// The conservative component re-enabled large pages
    /// (Algorithm 1 lines 4–9).
    EnableThp {
        /// Fraction of L2 misses caused by page walks this epoch.
        walk_miss_fraction: f64,
        /// Worst core's fault-handler share of the epoch.
        max_fault_fraction: f64,
        /// Whether khugepaged promotion was re-enabled too.
        promote: bool,
    },
    /// The reactive component flipped the sticky `SPLIT_PAGES` flag
    /// (Algorithm 1 lines 10–15).
    SplitFlag {
        /// The new value of the flag.
        on: bool,
        /// Estimated LAR gain of migration alone, in percentage points.
        carrefour_gain_pp: f64,
        /// Estimated LAR gain of splitting first, in percentage points.
        split_gain_pp: f64,
    },
    /// A large page was split because several nodes access it
    /// (Algorithm 1 line 16).
    SplitShared {
        /// Base virtual address of the split page.
        base: u64,
        /// Number of distinct accessing nodes seen in the samples.
        sharers: usize,
    },
    /// A large page was split because it concentrates sampled traffic
    /// (Algorithm 1 line 19).
    SplitHot {
        /// Base virtual address of the split page.
        base: u64,
        /// DRAM samples that hit this page this epoch.
        samples: u32,
        /// All DRAM samples this epoch (the denominator).
        total: u32,
        /// Controller imbalance that engaged the hot-page pass.
        imbalance: f64,
    },
}

/// One traced simulation event. `epoch` is the index of the epoch being
/// accumulated when the event occurred (events at an epoch boundary carry
/// the index of the epoch that just closed).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Emitted once, before the serial prelude.
    RunStart {
        /// Workload name.
        workload: String,
        /// Policy name.
        policy: String,
        /// Machine name.
        machine: String,
        /// Workload/policy seed.
        seed: u64,
    },
    /// A demand fault installed a fresh mapping.
    PageFault {
        /// Epoch under accumulation.
        epoch: u32,
        /// Base of the installed page.
        vbase: u64,
        /// Size of the installed page.
        size: PageSize,
        /// Node the frame was taken from.
        node: u16,
        /// Faulting thread.
        thread: u16,
    },
    /// khugepaged collapsed 512 small pages into a huge page.
    Promotion {
        /// Epoch that just closed.
        epoch: u32,
        /// Base of the collapsed 2 MiB range.
        vbase: u64,
    },
    /// A policy split succeeded (`scatter` for the batched
    /// demote-and-spread variant).
    Split {
        /// Epoch that just closed.
        epoch: u32,
        /// Base of the pre-split page.
        vbase: u64,
        /// Pre-split page size.
        size: PageSize,
        /// Whether sub-pages were scattered across nodes afterwards.
        scatter: bool,
        /// Sub-pages moved by the scatter (0 for a plain split).
        scattered: u64,
    },
    /// A policy migration succeeded.
    Migration {
        /// Epoch that just closed.
        epoch: u32,
        /// Base of the moved page.
        vbase: u64,
        /// Page size.
        size: PageSize,
        /// Node the page lived on.
        from: u16,
        /// Node the page moved to.
        to: u16,
    },
    /// A policy toggled a THP switch.
    ThpToggle {
        /// Epoch that just closed.
        epoch: u32,
        /// Which knob: `"alloc"` or `"promote"`.
        knob: &'static str,
        /// The new value.
        on: bool,
    },
    /// A policy decision, with its evidence.
    Decision {
        /// Epoch that just closed.
        epoch: u32,
        /// The decision.
        decision: PolicyDecision,
    },
    /// A policy action failed (a full node or a stale target).
    ActionFailed {
        /// Epoch that just closed.
        epoch: u32,
        /// The failed action.
        action: PolicyAction,
        /// Why it failed.
        error: ActionError,
    },
    /// Epoch boundary: the closing counters snapshot.
    EpochEnd {
        /// Epoch that just closed.
        epoch: u32,
        /// The snapshot.
        snap: EpochSnap,
    },
    /// A Mitosis-style sweep replicated page-table pages onto every node.
    TableReplication {
        /// Epoch that just closed.
        epoch: u32,
        /// Replica table frames created by this sweep.
        tables: u64,
    },
    /// A numaPTE-style page-table migration succeeded.
    TableMigration {
        /// Epoch that just closed.
        epoch: u32,
        /// Virtual address whose deepest table page moved.
        vbase: u64,
        /// Node the table page lived on.
        from: u16,
        /// Node the table page moved to.
        to: u16,
    },
}

/// Per-epoch observability snapshot emitted with [`TraceEvent::EpochEnd`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochSnap {
    /// Length of the epoch in cycles.
    pub epoch_cycles: u64,
    /// Memory-controller imbalance (std dev as percent of mean).
    pub imbalance: f64,
    /// Local access ratio over the epoch's DRAM accesses.
    pub lar: f64,
    /// Fraction of L2 misses caused by page-table walks.
    pub walk_miss_fraction: f64,
    /// L2 misses this epoch.
    pub l2_misses: u64,
    /// L2 misses caused by page walks this epoch.
    pub l2_walk_misses: u64,
    /// Worst core's fault-handler cycles this epoch.
    pub max_fault_cycles: u64,
    /// Requests serviced per controller this epoch.
    pub controller_requests: Vec<u64>,
    /// Queueing delay each controller will charge next epoch (cycles).
    pub controller_delays: Vec<u32>,
    /// Pages migrated by the policy this epoch.
    pub migrations: u64,
    /// Pages split by the policy this epoch.
    pub splits: u64,
    /// Pages collapsed by khugepaged this epoch.
    pub collapses: u64,
    /// Policy actions that failed this epoch.
    pub failed_actions: u64,
    /// 2 MiB allocation switch as the epoch closed.
    pub thp_alloc: bool,
    /// khugepaged promotion switch as the epoch closed.
    pub thp_promote: bool,
}

/// Canonical hash words for one [`PolicyAction`]: a discriminant word
/// followed by the action's fields. Shared by [`TraceEvent::hash_into`] and
/// [`epoch_output_fingerprint`] so the two encodings can never drift.
fn action_words(a: &PolicyAction, h: &mut Fnv64) {
    match a {
        PolicyAction::Migrate(v, n) => {
            h.word(0);
            h.word(*v);
            h.word(u64::from(n.0));
        }
        PolicyAction::Split(v) => {
            h.word(1);
            h.word(*v);
        }
        PolicyAction::SplitScatter(v) => {
            h.word(2);
            h.word(*v);
        }
        PolicyAction::SetThpAlloc(b) => {
            h.word(4);
            h.word(u64::from(*b));
        }
        PolicyAction::SetThpPromote(b) => {
            h.word(5);
            h.word(u64::from(*b));
        }
        PolicyAction::ReplicateTables => {
            h.word(6);
        }
        PolicyAction::MigrateTables(v, n) => {
            h.word(7);
            h.word(*v);
            h.word(u64::from(n.0));
        }
    }
}

/// Canonical hash words for one [`PolicyDecision`] (discriminant word, then
/// fields; floats by bit pattern). Shared by [`TraceEvent::hash_into`] and
/// [`epoch_output_fingerprint`].
fn decision_words(d: &PolicyDecision, h: &mut Fnv64) {
    match d {
        PolicyDecision::EnableThp {
            walk_miss_fraction,
            max_fault_fraction,
            promote,
        } => {
            h.word(0);
            h.word(walk_miss_fraction.to_bits());
            h.word(max_fault_fraction.to_bits());
            h.word(u64::from(*promote));
        }
        PolicyDecision::SplitFlag {
            on,
            carrefour_gain_pp,
            split_gain_pp,
        } => {
            h.word(1);
            h.word(u64::from(*on));
            h.word(carrefour_gain_pp.to_bits());
            h.word(split_gain_pp.to_bits());
        }
        PolicyDecision::SplitShared { base, sharers } => {
            h.word(2);
            h.word(*base);
            h.word(*sharers as u64);
        }
        PolicyDecision::SplitHot {
            base,
            samples,
            total,
            imbalance,
        } => {
            h.word(3);
            h.word(*base);
            h.word(u64::from(*samples));
            h.word(u64::from(*total));
            h.word(imbalance.to_bits());
        }
    }
}

/// FNV-1a fingerprint of one epoch boundary's complete policy output: the
/// queued actions in issue order, the noted Algorithm-1 decisions in note
/// order. Given equal inputs, two
/// policies whose boundary outputs fingerprint equal drive the engine
/// identically through that boundary — the engine consumes *nothing else*
/// from the policy — which is the soundness basis of the runner's
/// prefix-sharing fork tree (DESIGN.md §15). The decision log alone would
/// not suffice: Carrefour's placement pass issues migrations it never
/// `note`s, so the fingerprint covers the action queue too.
pub fn epoch_output_fingerprint(
    epoch: u32,
    actions: &[PolicyAction],
    decisions: &[PolicyDecision],
) -> u64 {
    let mut h = Fnv64::new();
    h.word(u64::from(epoch));
    h.word(actions.len() as u64);
    for a in actions {
        action_words(a, &mut h);
    }
    h.word(decisions.len() as u64);
    for d in decisions {
        decision_words(d, &mut h);
    }
    h.value()
}

impl TraceEvent {
    /// Short kind tag (used by the digest's per-kind counts and the
    /// timeline renderer).
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::RunStart { .. } => EventKind::RunStart,
            TraceEvent::PageFault { .. } => EventKind::PageFault,
            TraceEvent::Promotion { .. } => EventKind::Promotion,
            TraceEvent::Split { .. } => EventKind::Split,
            TraceEvent::Migration { .. } => EventKind::Migration,
            TraceEvent::ThpToggle { .. } => EventKind::ThpToggle,
            TraceEvent::Decision { .. } => EventKind::Decision,
            TraceEvent::ActionFailed { .. } => EventKind::ActionFailed,
            TraceEvent::EpochEnd { .. } => EventKind::EpochEnd,
            TraceEvent::TableReplication { .. } => EventKind::TableReplication,
            TraceEvent::TableMigration { .. } => EventKind::TableMigration,
        }
    }

    /// The epoch the event belongs to (`RunStart` belongs to epoch 0).
    pub fn epoch(&self) -> u32 {
        match self {
            TraceEvent::RunStart { .. } => 0,
            TraceEvent::PageFault { epoch, .. }
            | TraceEvent::Promotion { epoch, .. }
            | TraceEvent::Split { epoch, .. }
            | TraceEvent::Migration { epoch, .. }
            | TraceEvent::ThpToggle { epoch, .. }
            | TraceEvent::Decision { epoch, .. }
            | TraceEvent::ActionFailed { epoch, .. }
            | TraceEvent::EpochEnd { epoch, .. }
            | TraceEvent::TableReplication { epoch, .. }
            | TraceEvent::TableMigration { epoch, .. } => *epoch,
        }
    }

    /// Folds the event into an FNV-1a hash, canonically: a discriminant
    /// byte followed by every field as little-endian words (floats by bit
    /// pattern). Strings contribute their UTF-8 bytes.
    pub fn hash_into(&self, h: &mut Fnv64) {
        fn size_code(s: PageSize) -> u64 {
            match s {
                PageSize::Size4K => 0,
                PageSize::Size2M => 1,
                PageSize::Size1G => 2,
            }
        }
        h.word(self.kind() as u64);
        match self {
            TraceEvent::RunStart {
                workload,
                policy,
                machine,
                seed,
            } => {
                h.bytes(workload.as_bytes());
                h.bytes(policy.as_bytes());
                h.bytes(machine.as_bytes());
                h.word(*seed);
            }
            TraceEvent::PageFault {
                epoch,
                vbase,
                size,
                node,
                thread,
            } => {
                h.word(u64::from(*epoch));
                h.word(*vbase);
                h.word(size_code(*size));
                h.word(u64::from(*node));
                h.word(u64::from(*thread));
            }
            TraceEvent::Promotion { epoch, vbase } => {
                h.word(u64::from(*epoch));
                h.word(*vbase);
            }
            TraceEvent::Split {
                epoch,
                vbase,
                size,
                scatter,
                scattered,
            } => {
                h.word(u64::from(*epoch));
                h.word(*vbase);
                h.word(size_code(*size));
                h.word(u64::from(*scatter));
                h.word(*scattered);
            }
            TraceEvent::Migration {
                epoch,
                vbase,
                size,
                from,
                to,
            } => {
                h.word(u64::from(*epoch));
                h.word(*vbase);
                h.word(size_code(*size));
                h.word(u64::from(*from));
                h.word(u64::from(*to));
            }
            TraceEvent::ThpToggle { epoch, knob, on } => {
                h.word(u64::from(*epoch));
                h.bytes(knob.as_bytes());
                h.word(u64::from(*on));
            }
            TraceEvent::Decision { epoch, decision } => {
                h.word(u64::from(*epoch));
                decision_words(decision, h);
            }
            TraceEvent::ActionFailed {
                epoch,
                action,
                error,
            } => {
                h.word(u64::from(*epoch));
                action_words(action, h);
                // Explicit tags: 0 was the retired injected `-EBUSY`.
                h.word(match error {
                    ActionError::NoMemory => 1,
                    ActionError::Gone => 2,
                });
            }
            TraceEvent::EpochEnd { epoch, snap } => {
                h.word(u64::from(*epoch));
                h.word(snap.epoch_cycles);
                h.word(snap.imbalance.to_bits());
                h.word(snap.lar.to_bits());
                h.word(snap.walk_miss_fraction.to_bits());
                h.word(snap.l2_misses);
                h.word(snap.l2_walk_misses);
                h.word(snap.max_fault_cycles);
                for &r in &snap.controller_requests {
                    h.word(r);
                }
                for &d in &snap.controller_delays {
                    h.word(u64::from(d));
                }
                h.word(snap.migrations);
                h.word(snap.splits);
                h.word(snap.collapses);
                h.word(snap.failed_actions);
                h.word(u64::from(snap.thp_alloc));
                h.word(u64::from(snap.thp_promote));
            }
            TraceEvent::TableReplication { epoch, tables } => {
                h.word(u64::from(*epoch));
                h.word(*tables);
            }
            TraceEvent::TableMigration {
                epoch,
                vbase,
                from,
                to,
            } => {
                h.word(u64::from(*epoch));
                h.word(*vbase);
                h.word(u64::from(*from));
                h.word(u64::from(*to));
            }
        }
    }

    /// Serializes the event as one JSON object (helpers from
    /// [`codec::json`]).
    pub fn to_json(&self) -> String {
        fn size_str(s: PageSize) -> &'static str {
            match s {
                PageSize::Size4K => "4K",
                PageSize::Size2M => "2M",
                PageSize::Size1G => "1G",
            }
        }
        match self {
            TraceEvent::RunStart {
                workload,
                policy,
                machine,
                seed,
            } => format!(
                "{{\"ev\":\"run_start\",\"workload\":\"{}\",\
                 \"policy\":\"{}\",\"machine\":\"{}\",\"seed\":{seed}}}",
                esc(workload),
                esc(policy),
                esc(machine)
            ),
            TraceEvent::PageFault {
                epoch,
                vbase,
                size,
                node,
                thread,
            } => format!(
                "{{\"ev\":\"page_fault\",\"epoch\":{epoch},\"vbase\":{vbase},\
                 \"size\":\"{}\",\"node\":{node},\"thread\":{thread}}}",
                size_str(*size)
            ),
            TraceEvent::Promotion { epoch, vbase } => {
                format!("{{\"ev\":\"promotion\",\"epoch\":{epoch},\"vbase\":{vbase}}}")
            }
            TraceEvent::Split {
                epoch,
                vbase,
                size,
                scatter,
                scattered,
            } => format!(
                "{{\"ev\":\"split\",\"epoch\":{epoch},\"vbase\":{vbase},\
                 \"size\":\"{}\",\"scatter\":{scatter},\"scattered\":{scattered}}}",
                size_str(*size)
            ),
            TraceEvent::Migration {
                epoch,
                vbase,
                size,
                from,
                to,
            } => format!(
                "{{\"ev\":\"migration\",\"epoch\":{epoch},\"vbase\":{vbase},\
                 \"size\":\"{}\",\"from\":{from},\"to\":{to}}}",
                size_str(*size)
            ),
            TraceEvent::ThpToggle { epoch, knob, on } => format!(
                "{{\"ev\":\"thp_toggle\",\"epoch\":{epoch},\"knob\":\"{knob}\",\"on\":{on}}}"
            ),
            TraceEvent::Decision { epoch, decision } => {
                let body = match decision {
                    PolicyDecision::EnableThp {
                        walk_miss_fraction,
                        max_fault_fraction,
                        promote,
                    } => format!(
                        "\"what\":\"enable_thp\",\"walk_miss_fraction\":{},\
                         \"max_fault_fraction\":{},\"promote\":{promote}",
                        num(*walk_miss_fraction),
                        num(*max_fault_fraction)
                    ),
                    PolicyDecision::SplitFlag {
                        on,
                        carrefour_gain_pp,
                        split_gain_pp,
                    } => format!(
                        "\"what\":\"split_flag\",\"on\":{on},\
                         \"carrefour_gain_pp\":{},\"split_gain_pp\":{}",
                        num(*carrefour_gain_pp),
                        num(*split_gain_pp)
                    ),
                    PolicyDecision::SplitShared { base, sharers } => {
                        format!("\"what\":\"split_shared\",\"base\":{base},\"sharers\":{sharers}")
                    }
                    PolicyDecision::SplitHot {
                        base,
                        samples,
                        total,
                        imbalance,
                    } => format!(
                        "\"what\":\"split_hot\",\"base\":{base},\"samples\":{samples},\
                         \"total\":{total},\"imbalance\":{}",
                        num(*imbalance)
                    ),
                };
                format!("{{\"ev\":\"decision\",\"epoch\":{epoch},{body}}}")
            }
            TraceEvent::ActionFailed {
                epoch,
                action,
                error,
            } => {
                let (kind, target) = match action {
                    PolicyAction::Migrate(v, n) => ("migrate", format!("{v},\"to\":{}", n.0)),
                    PolicyAction::Split(v) => ("split", v.to_string()),
                    PolicyAction::SplitScatter(v) => ("split_scatter", v.to_string()),
                    PolicyAction::SetThpAlloc(b) => ("set_thp_alloc", u64::from(*b).to_string()),
                    PolicyAction::SetThpPromote(b) => {
                        ("set_thp_promote", u64::from(*b).to_string())
                    }
                    PolicyAction::ReplicateTables => ("replicate_tables", "0".to_string()),
                    PolicyAction::MigrateTables(v, n) => {
                        ("migrate_tables", format!("{v},\"to\":{}", n.0))
                    }
                };
                let err = match error {
                    ActionError::NoMemory => "no_memory",
                    ActionError::Gone => "gone",
                };
                format!(
                    "{{\"ev\":\"action_failed\",\"epoch\":{epoch},\
                     \"action\":\"{kind}\",\"vbase\":{target},\"error\":\"{err}\"}}"
                )
            }
            TraceEvent::EpochEnd { epoch, snap } => format!(
                "{{\"ev\":\"epoch_end\",\"epoch\":{epoch},\"epoch_cycles\":{},\
                 \"imbalance\":{},\"lar\":{},\"walk_miss_fraction\":{},\
                 \"l2_misses\":{},\"l2_walk_misses\":{},\"max_fault_cycles\":{},\
                 \"controller_requests\":{},\"controller_delays\":{},\
                 \"migrations\":{},\"splits\":{},\"collapses\":{},\
                 \"failed_actions\":{},\"thp_alloc\":{},\"thp_promote\":{}}}",
                snap.epoch_cycles,
                num(snap.imbalance),
                num(snap.lar),
                num(snap.walk_miss_fraction),
                snap.l2_misses,
                snap.l2_walk_misses,
                snap.max_fault_cycles,
                u64s(&snap.controller_requests),
                u64s(
                    &snap
                        .controller_delays
                        .iter()
                        .map(|&d| u64::from(d))
                        .collect::<Vec<_>>()
                ),
                snap.migrations,
                snap.splits,
                snap.collapses,
                snap.failed_actions,
                snap.thp_alloc,
                snap.thp_promote,
            ),
            TraceEvent::TableReplication { epoch, tables } => {
                format!("{{\"ev\":\"table_replication\",\"epoch\":{epoch},\"tables\":{tables}}}")
            }
            TraceEvent::TableMigration {
                epoch,
                vbase,
                from,
                to,
            } => format!(
                "{{\"ev\":\"table_migration\",\"epoch\":{epoch},\"vbase\":{vbase},\
                 \"from\":{from},\"to\":{to}}}"
            ),
        }
    }
}

/// Event kinds, for the digest's per-kind counts and filters.
///
/// The discriminants are hashed into every trace digest, so they never
/// change; 5 and 6 belonged to the retired data-page replication events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// [`TraceEvent::RunStart`].
    RunStart = 0,
    /// [`TraceEvent::PageFault`].
    PageFault = 1,
    /// [`TraceEvent::Promotion`].
    Promotion = 2,
    /// [`TraceEvent::Split`].
    Split = 3,
    /// [`TraceEvent::Migration`].
    Migration = 4,
    /// [`TraceEvent::ThpToggle`].
    ThpToggle = 7,
    /// [`TraceEvent::Decision`].
    Decision = 8,
    /// [`TraceEvent::ActionFailed`].
    ActionFailed = 9,
    /// [`TraceEvent::EpochEnd`].
    EpochEnd = 10,
    /// [`TraceEvent::TableReplication`].
    TableReplication = 11,
    /// [`TraceEvent::TableMigration`].
    TableMigration = 12,
}

/// Retains every event (for renderers; memory-unbounded, test/tooling use).
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// The events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl VecSink {
    /// A fresh collector.
    pub fn new() -> Self {
        VecSink::default()
    }
}

impl RunHook for VecSink {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Serializes events as JSON Lines: one [`TraceEvent::to_json`] line per
/// event, each ending in a newline (the `results/trace_*.jsonl` format).
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

/// One epoch's digest line: event counts plus a rolling hash of every event
/// that fell into the epoch. Small enough to check in, strong enough that
/// any behavioural drift — an extra migration, a shifted split, a changed
/// counter — lands in `hash` even when the counts happen to match.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochDigest {
    /// Epoch index.
    pub epoch: u32,
    /// All events in the epoch (including the closing `EpochEnd`).
    pub events: u64,
    /// FNV-1a over the canonical encodings of the epoch's events.
    pub hash: u64,
    /// Demand faults.
    pub faults: u64,
    /// Policy splits applied.
    pub splits: u64,
    /// Policy migrations applied.
    pub migrations: u64,
    /// khugepaged collapses.
    pub collapses: u64,
    /// Policy decisions recorded.
    pub decisions: u64,
    /// Failed actions.
    pub failed: u64,
}

/// A whole run's digest: identification plus one [`EpochDigest`] per epoch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceDigest {
    /// Workload name.
    pub workload: String,
    /// Policy label.
    pub policy: String,
    /// Machine name.
    pub machine: String,
    /// Seed the run was pinned to.
    pub seed: u64,
    /// Total simulated cycles (cross-checks the digest against the run).
    pub runtime_cycles: u64,
    /// Per-epoch digests, in order.
    pub epochs: Vec<EpochDigest>,
}

impl TraceDigest {
    /// Compares two digests; `None` when identical, otherwise a
    /// first-divergent-epoch report suitable for a test failure message.
    pub fn diff(&self, other: &TraceDigest) -> Option<String> {
        let id = |d: &TraceDigest| {
            format!(
                "{} / {} / {} (seed {})",
                d.workload, d.policy, d.machine, d.seed
            )
        };
        if id(self) != id(other) {
            return Some(format!(
                "digest identity mismatch: golden is {}, found {}",
                id(self),
                id(other)
            ));
        }
        let fmt = |e: &EpochDigest| {
            format!(
                "events={} hash={:016x} faults={} splits={} migrations={} \
                 collapses={} decisions={} failed={}",
                e.events,
                e.hash,
                e.faults,
                e.splits,
                e.migrations,
                e.collapses,
                e.decisions,
                e.failed
            )
        };
        for (g, f) in self.epochs.iter().zip(other.epochs.iter()) {
            if g != f {
                return Some(format!(
                    "behavioural drift in {}\nfirst divergent epoch: {}\n  \
                     golden: {}\n  found:  {}",
                    id(self),
                    g.epoch,
                    fmt(g),
                    fmt(f)
                ));
            }
        }
        if self.epochs.len() != other.epochs.len() {
            return Some(format!(
                "behavioural drift in {}\nepoch count changed: golden has {}, \
                 found {} (first {} epochs identical)",
                id(self),
                self.epochs.len(),
                other.epochs.len(),
                self.epochs.len().min(other.epochs.len())
            ));
        }
        if self.runtime_cycles != other.runtime_cycles {
            return Some(format!(
                "behavioural drift in {}\nper-epoch digests identical but \
                 runtime_cycles changed: golden {}, found {}",
                id(self),
                self.runtime_cycles,
                other.runtime_cycles
            ));
        }
        None
    }

    /// Serializes the digest as pretty JSON (the checked-in golden format).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"workload\": \"{}\",\n", esc(&self.workload)));
        out.push_str(&format!("  \"policy\": \"{}\",\n", esc(&self.policy)));
        out.push_str(&format!("  \"machine\": \"{}\",\n", esc(&self.machine)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"runtime_cycles\": {},\n", self.runtime_cycles));
        out.push_str("  \"epochs\": [\n");
        for (i, e) in self.epochs.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"epoch\": {}, \"events\": {}, \"hash\": \"{:016x}\", \
                 \"faults\": {}, \"splits\": {}, \"migrations\": {}, \
                 \"collapses\": {}, \"decisions\": {}, \"failed\": {}}}{}\n",
                e.epoch,
                e.events,
                e.hash,
                e.faults,
                e.splits,
                e.migrations,
                e.collapses,
                e.decisions,
                e.failed,
                if i + 1 < self.epochs.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the format written by [`TraceDigest::to_json`] through
    /// [`codec::json::parse`]: malformed text or a missing or mistyped
    /// field is a typed [`JsonError`], never a panic.
    pub fn from_json(text: &str) -> Result<TraceDigest, JsonError> {
        let v = json::parse(text)?;
        let epochs = v
            .array_field("epochs")?
            .iter()
            .map(|e| {
                let epoch = u32::try_from(e.u64_field("epoch")?)
                    .map_err(|_| JsonError::wrong_type("epoch", "u32"))?;
                let hash = u64::from_str_radix(e.str_field("hash")?, 16)
                    .map_err(|_| JsonError::wrong_type("hash", "hex u64"))?;
                Ok(EpochDigest {
                    epoch,
                    events: e.u64_field("events")?,
                    hash,
                    faults: e.u64_field("faults")?,
                    splits: e.u64_field("splits")?,
                    migrations: e.u64_field("migrations")?,
                    collapses: e.u64_field("collapses")?,
                    decisions: e.u64_field("decisions")?,
                    failed: e.u64_field("failed")?,
                })
            })
            .collect::<Result<_, JsonError>>()?;
        Ok(TraceDigest {
            workload: v.str_field("workload")?.to_string(),
            policy: v.str_field("policy")?.to_string(),
            machine: v.str_field("machine")?.to_string(),
            seed: v.u64_field("seed")?,
            runtime_cycles: v.u64_field("runtime_cycles")?,
            epochs,
        })
    }
}

/// Accumulates a [`TraceDigest`] from the event stream: events fold into
/// the current epoch's counts and hash; [`TraceEvent::EpochEnd`] seals the
/// epoch. The golden-run regression harness is built on this hook.
#[derive(Clone, Debug, Default)]
pub struct DigestSink {
    digest: TraceDigest,
    current: EpochDigest,
    hasher: Fnv64,
    open: bool,
}

impl DigestSink {
    /// A fresh digest accumulator.
    pub fn new() -> Self {
        DigestSink {
            digest: TraceDigest::default(),
            current: EpochDigest::default(),
            hasher: Fnv64::new(),
            open: false,
        }
    }

    /// Consumes the hook, returning the digest (callers typically fill in
    /// `runtime_cycles` from the [`crate::SimResult`] afterwards).
    pub fn into_digest(mut self) -> TraceDigest {
        // Seal a trailing partial epoch, if the run ended mid-epoch.
        if self.open {
            self.seal();
        }
        self.digest
    }

    fn seal(&mut self) {
        self.current.hash = self.hasher.value();
        self.digest.epochs.push(self.current);
        self.current = EpochDigest {
            epoch: self.current.epoch + 1,
            ..EpochDigest::default()
        };
        self.hasher = Fnv64::new();
        self.open = false;
    }
}

impl RunHook for DigestSink {
    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &TraceEvent) {
        if let TraceEvent::RunStart {
            workload,
            policy,
            machine,
            seed,
        } = event
        {
            self.digest.workload = workload.clone();
            self.digest.policy = policy.clone();
            self.digest.machine = machine.clone();
            self.digest.seed = *seed;
        }
        self.open = true;
        self.current.events += 1;
        event.hash_into(&mut self.hasher);
        match event.kind() {
            EventKind::PageFault => self.current.faults += 1,
            EventKind::Split => self.current.splits += 1,
            EventKind::Migration => self.current.migrations += 1,
            EventKind::Promotion => self.current.collapses += 1,
            EventKind::Decision => self.current.decisions += 1,
            EventKind::ActionFailed => self.current.failed += 1,
            EventKind::EpochEnd => {
                self.current.epoch = event.epoch();
                self.seal();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(epoch: u32, vbase: u64) -> TraceEvent {
        TraceEvent::PageFault {
            epoch,
            vbase,
            size: PageSize::Size2M,
            node: 1,
            thread: 3,
        }
    }

    fn epoch_end(epoch: u32) -> TraceEvent {
        TraceEvent::EpochEnd {
            epoch,
            snap: EpochSnap {
                epoch_cycles: 1000,
                imbalance: 12.5,
                lar: 0.75,
                controller_requests: vec![10, 20],
                controller_delays: vec![0, 3],
                ..EpochSnap::default()
            },
        }
    }

    #[test]
    fn events_to_jsonl_writes_one_line_per_event() {
        let text = events_to_jsonl(&[fault(2, 0x20_0000), epoch_end(2)]);
        assert!(text.ends_with('\n'));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ev\":\"page_fault\""));
        assert!(lines[0].contains("\"vbase\":2097152"));
        assert!(lines[1].contains("\"ev\":\"epoch_end\""));
        assert!(lines[1].contains("\"imbalance\":12.5"));
    }

    #[test]
    fn digest_sink_seals_epochs_and_hashes_deterministically() {
        let run = |n_faults: u64| {
            let mut s = DigestSink::new();
            s.on_event(&TraceEvent::RunStart {
                workload: "w".into(),
                policy: "p".into(),
                machine: "m".into(),
                seed: 7,
            });
            for i in 0..n_faults {
                s.on_event(&fault(0, i * 0x1000));
            }
            s.on_event(&epoch_end(0));
            s.on_event(&fault(1, 0x9000));
            s.on_event(&epoch_end(1));
            s.into_digest()
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a, b, "same stream, same digest");
        assert_eq!(a.epochs.len(), 2);
        assert_eq!(a.epochs[0].faults, 3);
        assert_eq!(a.epochs[0].events, 5); // run_start + 3 faults + epoch_end
        assert_eq!(a.epochs[1].faults, 1);
        let c = run(4);
        assert_ne!(a.epochs[0].hash, c.epochs[0].hash);
        assert_eq!(a.epochs[1].hash, c.epochs[1].hash, "later epochs equal");
    }

    #[test]
    fn digest_hash_catches_field_changes_counts_miss() {
        // Two epochs with the same event counts but a migration that went
        // to a different node: counts agree, hashes must not.
        let mk = |to: u16| {
            let mut s = DigestSink::new();
            s.on_event(&TraceEvent::Migration {
                epoch: 0,
                vbase: 0x20_0000,
                size: PageSize::Size4K,
                from: 0,
                to,
            });
            s.on_event(&epoch_end(0));
            s.into_digest()
        };
        let a = mk(1);
        let b = mk(2);
        assert_eq!(a.epochs[0].migrations, b.epochs[0].migrations);
        assert_ne!(a.epochs[0].hash, b.epochs[0].hash);
        assert!(a.diff(&b).is_some());
    }

    #[test]
    fn digest_json_round_trips() {
        let mut s = DigestSink::new();
        s.on_event(&TraceEvent::RunStart {
            workload: "UA.B".into(),
            policy: "Carrefour-LP".into(),
            machine: "machine-a".into(),
            seed: 42,
        });
        s.on_event(&fault(0, 0x1000));
        s.on_event(&epoch_end(0));
        s.on_event(&epoch_end(1));
        let mut d = s.into_digest();
        d.runtime_cycles = 123_456_789;
        let parsed = TraceDigest::from_json(&d.to_json()).unwrap();
        assert_eq!(d, parsed);
        assert!(d.diff(&parsed).is_none());
    }

    #[test]
    fn diff_reports_first_divergent_epoch() {
        let base = TraceDigest {
            workload: "UA.B".into(),
            policy: "THP".into(),
            machine: "machine-a".into(),
            seed: 42,
            runtime_cycles: 100,
            epochs: vec![
                EpochDigest {
                    epoch: 0,
                    events: 10,
                    hash: 1,
                    ..EpochDigest::default()
                },
                EpochDigest {
                    epoch: 1,
                    events: 20,
                    hash: 2,
                    ..EpochDigest::default()
                },
            ],
        };
        let mut drifted = base.clone();
        drifted.epochs[1].hash = 3;
        drifted.epochs[1].migrations = 7;
        let report = base.diff(&drifted).unwrap();
        assert!(report.contains("first divergent epoch: 1"), "{report}");
        assert!(report.contains("migrations=7"), "{report}");
        assert!(base.diff(&base.clone()).is_none());

        let mut truncated = base.clone();
        truncated.epochs.pop();
        let report = base.diff(&truncated).unwrap();
        assert!(report.contains("epoch count changed"), "{report}");

        let mut slower = base.clone();
        slower.runtime_cycles = 101;
        let report = base.diff(&slower).unwrap();
        assert!(report.contains("runtime_cycles changed"), "{report}");
    }
}
