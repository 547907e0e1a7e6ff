//! Failure handling for Carrefour-LP: bounded retry with exponential
//! backoff, and circuit breakers that disable a misbehaving component.
//!
//! The kernel module the paper describes runs in an environment where
//! migrations fail (`-EBUSY` pins, allocation failures) routinely; a
//! placement daemon that retries immediately re-fails against the same
//! pin, and one that never retries silently loses its placement work.
//! The machinery here is deliberately epoch-granular — Carrefour-LP only
//! wakes once per monitoring interval, so backoff is measured in epochs,
//! and a breaker that trips mirrors Algorithm 1's own enable/disable
//! hysteresis: when most of a component's actions fail, the component is
//! cheaper to pause than to keep feeding a failing syscall path.
//!
//! Everything here is pure bookkeeping over the [`FailedAction`] feedback
//! the engine delivers on fault-injected runs; on fault-free runs the
//! feedback is empty and both structures are provably inert.

use crate::config::RobustnessConfig;
use engine::{FailedAction, PolicyAction};
use std::collections::BTreeMap;

/// A stable identity for a retryable action: the address it targets plus
/// a class tag, so a `Split` and a `Migrate` of the same page are tracked
/// independently.
fn retry_key(action: &PolicyAction) -> Option<(u8, u64)> {
    match *action {
        PolicyAction::Migrate(v, _) => Some((0, v)),
        PolicyAction::Split(v) => Some((1, v)),
        PolicyAction::SplitScatter(v) => Some((2, v)),
        PolicyAction::MigrateTables(v, _) => Some((4, v)),
        // THP toggles cannot fail, and a table-replication sweep absorbs
        // its own allocation failures; none is ever enqueued.
        PolicyAction::SetThpAlloc(_)
        | PolicyAction::SetThpPromote(_)
        | PolicyAction::ReplicateTables => None,
    }
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    action: PolicyAction,
    /// Failed attempts so far (≥ 1; entries exist only after a failure).
    attempts: u32,
    /// First epoch at which the action may be re-issued.
    due: u32,
    /// Whether the action was re-issued and is awaiting its verdict.
    in_flight: bool,
}

/// Bounded retry queue with epoch-granularity exponential backoff.
///
/// Lifecycle of one action: issued by the policy → fails → enqueued with
/// `attempts = 1`, due after `backoff_base_epochs` → re-issued when due
/// (marked in-flight) → either absent from the next failure report
/// (success: dequeued) or present again (backoff doubles) → abandoned
/// after `max_retries` failed attempts.
#[derive(Clone, Debug, Default)]
pub struct RetryQueue {
    cfg: RobustnessConfig,
    pending: BTreeMap<(u8, u64), Pending>,
    /// Actions given up on after `max_retries` attempts.
    pub abandoned: u64,
}

impl RetryQueue {
    /// Creates an empty queue.
    pub fn new(cfg: RobustnessConfig) -> Self {
        RetryQueue {
            cfg,
            pending: BTreeMap::new(),
            abandoned: 0,
        }
    }

    /// Number of actions awaiting a retry.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is awaiting a retry.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Digests one epoch's failure report (the engine's feedback about the
    /// *previous* epoch). In-flight entries that did not fail again have
    /// succeeded and are dequeued; fresh or re-failed retryable actions are
    /// (re)scheduled with doubled backoff; exhausted ones are abandoned.
    pub fn absorb_failures(&mut self, epoch: u32, failed: &[FailedAction]) {
        // Success detection first: an in-flight entry absent from this
        // report went through.
        let failed_keys: Vec<(u8, u64)> =
            failed.iter().filter_map(|f| retry_key(&f.action)).collect();
        self.pending.retain(|key, p| {
            if p.in_flight && !failed_keys.contains(key) {
                return false; // succeeded
            }
            true
        });

        for f in failed {
            if !f.error.is_retryable() {
                // `Gone` means the world moved on (page unmapped or
                // already split); drop any pending entry too.
                if let Some(key) = retry_key(&f.action) {
                    self.pending.remove(&key);
                }
                continue;
            }
            let Some(key) = retry_key(&f.action) else {
                continue;
            };
            let base = self.cfg.backoff_base_epochs.max(1);
            let max_retries = self.cfg.max_retries;
            let entry = self.pending.entry(key).or_insert(Pending {
                action: f.action,
                attempts: 0,
                due: 0,
                in_flight: false,
            });
            entry.attempts += 1;
            entry.in_flight = false;
            if entry.attempts >= max_retries {
                self.pending.remove(&key);
                self.abandoned += 1;
                continue;
            }
            // Exponential: base, 2*base, 4*base, ...
            entry.due = epoch + (base << (entry.attempts - 1));
        }
    }

    /// Actions whose backoff has elapsed, marked in-flight. The caller
    /// re-issues them verbatim this epoch.
    pub fn due(&mut self, epoch: u32) -> Vec<PolicyAction> {
        let mut out = Vec::new();
        for p in self.pending.values_mut() {
            if !p.in_flight && p.due <= epoch {
                p.in_flight = true;
                out.push(p.action);
            }
        }
        out
    }

    /// Serializes the queue's mutable state for a `ckpt-v1` snapshot. Keys
    /// are re-derived from the actions on load, so only the entries travel.
    pub(crate) fn save_into(&self, e: &mut codec::Enc) {
        e.seq(self.pending.values(), |e, p| {
            engine::checkpoint::enc_action(e, &p.action);
            e.u32(p.attempts);
            e.u32(p.due);
            e.bool(p.in_flight);
        });
        e.u64(self.abandoned);
    }

    /// Restores state captured by [`RetryQueue::save_into`].
    pub(crate) fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        let entries = d.seq(|d| Pending {
            action: engine::checkpoint::dec_action(d),
            attempts: d.u32(),
            due: d.u32(),
            in_flight: d.bool(),
        });
        self.pending = entries
            .into_iter()
            .map(|p| {
                let key = retry_key(&p.action).expect("queued actions are retryable");
                (key, p)
            })
            .collect();
        self.abandoned = d.u64();
    }
}

/// A per-component circuit breaker.
///
/// Observes each epoch's (attempted, failed) action counts for one
/// component; when the failure rate of a meaningfully-sized batch exceeds
/// the threshold, the component is disabled for a cool-off period. This
/// is Algorithm 1's enable/disable hysteresis applied to the policy's own
/// health: a component whose actions mostly bounce is burning overhead
/// cycles (Section 4.2's concern) without placing anything.
#[derive(Clone, Debug, Default)]
pub struct CircuitBreaker {
    cfg: RobustnessConfig,
    /// The component stays disabled while `epoch < open_until`.
    open_until: Option<u32>,
    /// Lifetime trip count (for reporting).
    pub trips: u64,
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    pub fn new(cfg: RobustnessConfig) -> Self {
        CircuitBreaker {
            cfg,
            open_until: None,
            trips: 0,
        }
    }

    /// Feeds one epoch's outcome; may trip the breaker.
    pub fn observe(&mut self, epoch: u32, attempted: u64, failed: u64) {
        if attempted < self.cfg.breaker_min_actions {
            return;
        }
        if failed as f64 > self.cfg.breaker_failure_rate * attempted as f64 {
            // +1: "open for N epochs" starting from the next one.
            self.open_until = Some(epoch + self.cfg.breaker_cooloff_epochs + 1);
            self.trips += 1;
        }
    }

    /// Whether the component is currently disabled.
    pub fn is_open(&self, epoch: u32) -> bool {
        self.open_until.is_some_and(|until| epoch < until)
    }

    /// Serializes the breaker's mutable state for a `ckpt-v1` snapshot.
    pub(crate) fn save_into(&self, e: &mut codec::Enc) {
        e.opt(&self.open_until, |e, &until| e.u32(until));
        e.u64(self.trips);
    }

    /// Restores state captured by [`CircuitBreaker::save_into`].
    pub(crate) fn load_from(&mut self, d: &mut codec::Dec<'_>) {
        self.open_until = d.opt(|d| d.u32());
        self.trips = d.u64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::ActionError;
    use numa_topology::NodeId;

    fn busy(action: PolicyAction) -> FailedAction {
        FailedAction {
            action,
            error: ActionError::Busy,
        }
    }

    #[test]
    fn failed_actions_are_retried_with_backoff() {
        let mut q = RetryQueue::new(RobustnessConfig::default());
        let a = PolicyAction::Migrate(0x20_0000, NodeId(1));
        q.absorb_failures(1, &[busy(a)]);
        assert_eq!(q.len(), 1);
        assert!(q.due(1).is_empty(), "first retry waits one epoch");
        assert_eq!(q.due(2), vec![a]);
        assert!(q.due(2).is_empty(), "in-flight actions are not re-issued");
        // It fails again: backoff doubles (due at 3 + 2 = 5).
        q.absorb_failures(3, &[busy(a)]);
        assert!(q.due(4).is_empty());
        assert_eq!(q.due(5), vec![a]);
    }

    #[test]
    fn success_dequeues_in_flight_actions() {
        let mut q = RetryQueue::new(RobustnessConfig::default());
        let a = PolicyAction::Split(0x40_0000);
        q.absorb_failures(0, &[busy(a)]);
        assert_eq!(q.due(1), vec![a]);
        // Next epoch's report has no failure for it → success.
        q.absorb_failures(2, &[]);
        assert!(q.is_empty());
        assert_eq!(q.abandoned, 0);
    }

    #[test]
    fn retries_are_bounded() {
        let cfg = RobustnessConfig::default(); // max_retries = 3
        let mut q = RetryQueue::new(cfg);
        let a = PolicyAction::Migrate(0x20_0000, NodeId(2));
        q.absorb_failures(0, &[busy(a)]);
        q.absorb_failures(2, &[busy(a)]);
        assert_eq!(q.len(), 1);
        // Third failure exhausts the budget.
        q.absorb_failures(5, &[busy(a)]);
        assert!(q.is_empty());
        assert_eq!(q.abandoned, 1);
    }

    #[test]
    fn gone_actions_are_never_retried() {
        let mut q = RetryQueue::new(RobustnessConfig::default());
        let a = PolicyAction::SplitScatter(0x60_0000);
        q.absorb_failures(
            0,
            &[FailedAction {
                action: a,
                error: ActionError::Gone,
            }],
        );
        assert!(q.is_empty());
        assert_eq!(q.abandoned, 0, "gone is not an exhausted retry");
    }

    #[test]
    fn toggles_are_not_retryable() {
        let mut q = RetryQueue::new(RobustnessConfig::default());
        q.absorb_failures(0, &[busy(PolicyAction::SetThpAlloc(true))]);
        assert!(q.is_empty());
    }

    #[test]
    fn breaker_trips_on_high_failure_rates_only() {
        let cfg = RobustnessConfig::default(); // rate 0.5, min 8, cooloff 4
        let mut b = CircuitBreaker::new(cfg);
        b.observe(0, 20, 8); // 40 % — fine
        assert!(!b.is_open(1));
        b.observe(1, 20, 11); // 55 % — trip
        assert!(b.is_open(2));
        assert!(b.is_open(5), "open through the cool-off window");
        assert!(!b.is_open(6), "closes after the cool-off");
        assert_eq!(b.trips, 1);
    }

    #[test]
    fn breaker_ignores_tiny_batches() {
        let mut b = CircuitBreaker::new(RobustnessConfig::default());
        b.observe(0, 3, 3); // 100 % of 3 — below min_actions
        assert!(!b.is_open(1));
    }
}
