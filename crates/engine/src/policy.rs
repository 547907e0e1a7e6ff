//! The policy hook: what Carrefour and Carrefour-LP plug into.

use crate::trace::PolicyDecision;
use numa_topology::{MachineSpec, NodeId};
use profiling::{EpochCounters, IbsSample};
use vmem::ThpControls;

/// An action a policy requests at an epoch boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyAction {
    /// Migrate the page covering this virtual address to the node.
    Migrate(u64, NodeId),
    /// Split the huge/giant page covering this virtual address.
    Split(u64),
    /// Split the huge page covering this virtual address and scatter its
    /// 4 KiB sub-pages across all nodes (one batched demote-and-spread
    /// operation, as the kernel performs it under a single lock pass).
    SplitScatter(u64),
    /// Enable or disable 2 MiB allocation at fault time.
    SetThpAlloc(bool),
    /// Enable or disable khugepaged promotion.
    SetThpPromote(bool),
    /// Replicate every reachable page-table page onto every node (the
    /// Mitosis model: walks then read the local copy). Idempotent —
    /// re-issuing it only replicates tables created since the last sweep.
    ReplicateTables,
    /// Migrate the deepest page-table page on the walk path of this
    /// virtual address so it is homed on the node (the numaPTE model).
    MigrateTables(u64, NodeId),
}

/// Why a policy action failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActionError {
    /// A frame allocation failed (`-ENOMEM`): the target node is full.
    NoMemory,
    /// The action no longer applies (page unmapped, already split,
    /// wrong size class).
    Gone,
}

/// One action the engine could not apply, traced as
/// [`crate::TraceEvent::ActionFailed`] and counted in the run's
/// [`crate::RobustnessStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailedAction {
    /// The action as the policy issued it.
    pub action: PolicyAction,
    /// Why it failed.
    pub error: ActionError,
}

/// Everything a policy can observe and do at one epoch boundary.
///
/// Mirrors what the paper's kernel module sees: performance counters,
/// IBS samples, and the THP sysfs knobs. Policies cannot inspect page
/// tables directly — all page knowledge must come from samples, exactly
/// the constraint the paper's Section 4.3 discusses.
pub struct EpochCtx<'a> {
    /// The machine the workload runs on.
    pub machine: &'a MachineSpec,
    /// Counters accumulated during the epoch that just closed.
    pub counters: &'a EpochCounters,
    /// IBS samples collected during the epoch.
    pub samples: &'a [IbsSample],
    /// Current THP switches.
    pub thp: ThpControls,
    /// Index of the epoch that just closed (0-based).
    pub epoch_index: u32,
    pub(crate) actions: Vec<PolicyAction>,
    /// Whether [`EpochCtx::note`] records decisions (the engine turns this
    /// on only when a run hook is attached, so noting stays free on plain
    /// runs).
    record_decisions: bool,
    decisions: Vec<PolicyDecision>,
    comparisons: Vec<Comparison>,
}

impl<'a> EpochCtx<'a> {
    /// Builds a context (the engine does this each epoch; exposed publicly
    /// so policy crates can unit-test their `on_epoch` logic).
    pub fn new(
        machine: &'a MachineSpec,
        counters: &'a EpochCounters,
        samples: &'a [IbsSample],
        thp: ThpControls,
        epoch_index: u32,
    ) -> Self {
        EpochCtx {
            machine,
            counters,
            samples,
            thp,
            epoch_index,
            actions: Vec::new(),
            record_decisions: false,
            decisions: Vec::new(),
            comparisons: Vec::new(),
        }
    }

    /// Turns on decision recording for this epoch (the engine does this
    /// when a hook is attached; exposed for policy tests that assert on
    /// decisions).
    pub fn enable_decision_log(&mut self) {
        self.record_decisions = true;
    }

    /// Records a [`PolicyDecision`] with its evidence, for the trace. The
    /// closure only runs when a run hook is attached, so call sites pay
    /// nothing on plain runs. Purely observational — noting a decision
    /// never changes what the engine does.
    pub fn note(&mut self, make: impl FnOnce() -> PolicyDecision) {
        if self.record_decisions {
            self.decisions.push(make());
        }
    }

    /// Drains the decisions noted this epoch (the engine forwards them to
    /// the hook; exposed for policy unit tests).
    pub fn take_decisions(&mut self) -> Vec<PolicyDecision> {
        std::mem::take(&mut self.decisions)
    }

    /// Records one parameter test the policy evaluated, when the decision
    /// log is on; plain runs record nothing. Never fingerprinted: it
    /// describes why the policy decided, not what it decided.
    pub fn compared(&mut self, c: Comparison) {
        if self.record_decisions {
            self.comparisons.push(c);
        }
    }

    /// Drains the comparisons recorded this epoch (the engine hands them to
    /// the hook; exposed for policy unit tests).
    pub fn take_comparisons(&mut self) -> Vec<Comparison> {
        std::mem::take(&mut self.comparisons)
    }

    /// Requests migration of the page covering `vaddr` to `node`.
    pub fn migrate(&mut self, vaddr: u64, node: NodeId) {
        self.actions.push(PolicyAction::Migrate(vaddr, node));
    }

    /// Requests a split of the huge page covering `vaddr`.
    pub fn split(&mut self, vaddr: u64) {
        self.actions.push(PolicyAction::Split(vaddr));
    }

    /// Requests a batched split-and-scatter of the huge page covering
    /// `vaddr`: demote, then interleave all sub-pages across nodes.
    pub fn split_scatter(&mut self, vaddr: u64) {
        self.actions.push(PolicyAction::SplitScatter(vaddr));
    }

    /// Toggles 2 MiB allocation at fault time (Algorithm 1 lines 5, 17).
    pub fn set_thp_alloc(&mut self, enabled: bool) {
        self.actions.push(PolicyAction::SetThpAlloc(enabled));
    }

    /// Toggles khugepaged promotion (Algorithm 1 line 6).
    pub fn set_thp_promote(&mut self, enabled: bool) {
        self.actions.push(PolicyAction::SetThpPromote(enabled));
    }

    /// Requests a Mitosis-style sweep replicating every reachable
    /// page-table page onto every node.
    pub fn replicate_tables(&mut self) {
        self.actions.push(PolicyAction::ReplicateTables);
    }

    /// Requests a numaPTE-style migration of the page-table page serving
    /// `vaddr` so it is homed on `node`.
    pub fn migrate_tables(&mut self, vaddr: u64, node: NodeId) {
        self.actions.push(PolicyAction::MigrateTables(vaddr, node));
    }

    /// Actions queued so far (visible for policy-composition and tests).
    pub fn queued(&self) -> &[PolicyAction] {
        &self.actions
    }

    /// Drains the queued actions (the engine calls this after `on_epoch`;
    /// exposed publicly for policy unit tests).
    pub fn take_actions(&mut self) -> Vec<PolicyAction> {
        std::mem::take(&mut self.actions)
    }
}

/// One parameter test a policy evaluated at a boundary
/// ([`EpochCtx::compared`]): which parameter, the operands it was tested
/// against, and the outcome. What the test is belongs to the policy; a
/// holder of another parameterisation of the same policy asks it, through
/// [`NumaPolicy::decides_alike`], whether its own values give the same
/// outcomes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Comparison {
    /// The parameter, in the policy's own numbering.
    pub param: u16,
    /// The observed value the parameter was tested against.
    pub observed: f64,
    /// A second operand for tests that scale the parameter (1.0 when the
    /// test has none).
    pub scale: f64,
    /// The test's result.
    pub outcome: bool,
}

/// A policy's self-report at one epoch boundary, returned by
/// [`NumaPolicy::introspect`]. No policy in this workspace reports one and
/// nothing reads it: the hook stays so that wrappers which forward every
/// `NumaPolicy` method keep compiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolicyIntrospection {}

/// A NUMA memory-placement policy invoked at every epoch boundary.
pub trait NumaPolicy {
    /// Display name (used in experiment output).
    fn name(&self) -> &str;

    /// Reads the epoch's observations and queues actions on `ctx`.
    fn on_epoch(&mut self, ctx: &mut EpochCtx<'_>);

    /// Whether this policy reads IBS samples / page stats. When `false`,
    /// the engine skips storing samples —
    /// the sampling *overhead* is still charged, only the profiling
    /// bookkeeping nobody will read is elided, so results stay
    /// bit-identical.
    fn consumes_samples(&self) -> bool {
        true
    }

    /// Serializes the policy's mutable state for a checkpoint snapshot.
    /// Stateless policies (the default) return an empty buffer; stateful
    /// ones must capture everything [`NumaPolicy::restore_state`] needs to
    /// make a freshly-constructed instance continue bit-identically.
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by [`NumaPolicy::save_state`] onto a
    /// freshly-constructed instance of the same policy. The default
    /// ignores the bytes (stateless policies).
    fn restore_state(&mut self, _bytes: &[u8]) {}

    /// Whether this policy, put in the state of the policy that recorded
    /// `compared` at one boundary, would make that policy's decision there,
    /// without running it. `true` promises that every parameter that can
    /// change the decision either entered it only through a recorded
    /// comparison whose outcome this policy's value reproduces, or equals
    /// the recorder's. Callers skip the replay on `true` (DESIGN.md §15),
    /// so a policy must answer `false` whenever it cannot tell. The
    /// default always answers `false`.
    fn decides_alike(&self, _compared: &[Comparison]) -> bool {
        false
    }

    /// The policy's self-report at the boundary closing `epoch` (see
    /// [`PolicyIntrospection`]). Must be a pure observation. Every policy
    /// here keeps the default, `None`.
    fn introspect(&self, _epoch: u32) -> Option<PolicyIntrospection> {
        None
    }
}

/// The do-nothing policy: plain Linux (whatever the initial THP switches
/// say — "Linux" with small pages, "THP" with huge pages).
pub struct NullPolicy;

impl NumaPolicy for NullPolicy {
    fn name(&self) -> &str {
        "linux"
    }

    fn on_epoch(&mut self, _ctx: &mut EpochCtx<'_>) {}

    fn consumes_samples(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_queues_actions_in_order() {
        let machine = MachineSpec::test_machine();
        let counters = EpochCounters::default();
        let mut ctx = EpochCtx::new(&machine, &counters, &[], ThpControls::thp(), 0);
        ctx.split(0x1000);
        ctx.migrate(0x2000, NodeId(1));
        ctx.set_thp_alloc(false);
        assert_eq!(
            ctx.queued(),
            &[
                PolicyAction::Split(0x1000),
                PolicyAction::Migrate(0x2000, NodeId(1)),
                PolicyAction::SetThpAlloc(false),
            ]
        );
        let taken = ctx.take_actions();
        assert_eq!(taken.len(), 3);
        assert!(ctx.queued().is_empty());
    }

    #[test]
    fn null_policy_does_nothing() {
        let machine = MachineSpec::test_machine();
        let counters = EpochCounters::default();
        let mut ctx = EpochCtx::new(&machine, &counters, &[], ThpControls::thp(), 0);
        NullPolicy.on_epoch(&mut ctx);
        assert!(ctx.queued().is_empty());
        assert_eq!(NullPolicy.name(), "linux");
    }
}
