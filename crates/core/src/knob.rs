//! Carrefour-LP's parameters as recorded comparisons (DESIGN.md §15).
//!
//! Every threshold test Carrefour-LP and its embedded Carrefour evaluate
//! goes through [`test`], which records the parameter, the observed
//! operands and the outcome on the epoch context while the decision log is
//! on. The parameters that act other than through one threshold test —
//! the components that run, the per-page sample floor and the migration
//! budget — are recorded every epoch as [`pin`]s, tests of equality with
//! the recorder's own value. [`reproduces`] answers
//! [`engine::NumaPolicy::decides_alike`]: another parameterisation makes
//! the recorder's decision when every recorded outcome comes out the same
//! under its values.

use engine::{Comparison, EpochCtx};

/// A parameter, numbered for [`Comparison::param`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Knob {
    /// Which Carrefour-LP components run: `1 + conservative + 2 ×
    /// reactive`. A pin.
    Policy,
    /// `CarrefourConfig::min_samples_per_page`. A pin.
    MinSamplesPerPage,
    /// `CarrefourConfig::max_migrations_per_epoch`. A pin.
    MaxMigrationsPerEpoch,
    /// `CarrefourConfig::lar_enable_below`: engaged when `lar < value`.
    LarEnableBelow,
    /// `CarrefourConfig::imbalance_enable_above`: `imbalance > value`.
    ImbalanceEnableAbove,
    /// `CarrefourConfig::intensity_min_dram_per_op`: `dram/op >= value`.
    IntensityMinDramPerOp,
    /// `LpThresholds::walk_miss_enable`: `fraction > value`.
    WalkMissEnable,
    /// `LpThresholds::fault_time_enable`: `fraction > value`.
    FaultTimeEnable,
    /// `LpThresholds::carrefour_gain_pp`: `gain > value`.
    CarrefourGainPp,
    /// `LpThresholds::split_gain_pp`: `gain > value`.
    SplitGainPp,
    /// `LpThresholds::hot_page_fraction`: `samples > value × total`.
    HotPageFraction,
}

/// Every knob, indexed by its [`Comparison::param`] number.
const KNOBS: [Knob; 11] = [
    Knob::Policy,
    Knob::MinSamplesPerPage,
    Knob::MaxMigrationsPerEpoch,
    Knob::LarEnableBelow,
    Knob::ImbalanceEnableAbove,
    Knob::IntensityMinDramPerOp,
    Knob::WalkMissEnable,
    Knob::FaultTimeEnable,
    Knob::CarrefourGainPp,
    Knob::SplitGainPp,
    Knob::HotPageFraction,
];

impl Knob {
    /// The knob's test, exactly as the policy evaluates it.
    pub(crate) fn holds(self, value: f64, observed: f64, scale: f64) -> bool {
        match self {
            Knob::Policy | Knob::MinSamplesPerPage | Knob::MaxMigrationsPerEpoch => {
                observed.to_bits() == value.to_bits()
            }
            Knob::LarEnableBelow => observed < value,
            Knob::IntensityMinDramPerOp => observed >= value,
            Knob::HotPageFraction => observed > value * scale,
            Knob::ImbalanceEnableAbove
            | Knob::WalkMissEnable
            | Knob::FaultTimeEnable
            | Knob::CarrefourGainPp
            | Knob::SplitGainPp => observed > value,
        }
    }
}

/// A pinned parameter's value in the `f64` a [`Comparison`] carries: its
/// bits, so that the pin's equality test is exact.
pub(crate) fn pinned(value: usize) -> f64 {
    f64::from_bits(value as u64)
}

/// Evaluates `knob`'s unscaled test with the policy's `value` and records
/// it.
pub(crate) fn test(ctx: &mut EpochCtx<'_>, knob: Knob, value: f64, observed: f64) -> bool {
    let outcome = knob.holds(value, observed, 1.0);
    record(ctx, knob, observed, 1.0, outcome);
    outcome
}

/// Records a test of `knob` the policy evaluated itself.
pub(crate) fn record(ctx: &mut EpochCtx<'_>, knob: Knob, observed: f64, scale: f64, outcome: bool) {
    ctx.compared(Comparison {
        param: knob as u16,
        observed,
        scale,
        outcome,
    });
}

/// Records a parameter that must equal the recorder's: a test of its
/// value (from [`pinned`] for integers) against itself.
pub(crate) fn pin(ctx: &mut EpochCtx<'_>, knob: Knob, value: f64) {
    record(ctx, knob, value, 1.0, true);
}

/// Whether a policy whose knob values `value_of` gives reproduces every
/// comparison in `compared`. `value_of` answers `None` for a knob the
/// policy does not have, and the recording must hold a [`Knob::Policy`]
/// pin: a list from any other recorder says nothing about this policy.
pub(crate) fn reproduces(compared: &[Comparison], value_of: impl Fn(Knob) -> Option<f64>) -> bool {
    let mut kind_pinned = false;
    for c in compared {
        let Some(&knob) = KNOBS.get(usize::from(c.param)) else {
            return false;
        };
        let Some(value) = value_of(knob) else {
            return false;
        };
        if knob.holds(value, c.observed, c.scale) != c.outcome {
            return false;
        }
        kind_pinned |= knob == Knob::Policy;
    }
    kind_pinned
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_numbers_index_the_table() {
        for (i, &k) in KNOBS.iter().enumerate() {
            assert_eq!(k as usize, i, "{k:?}");
        }
    }

    #[test]
    fn a_recording_without_a_policy_pin_reproduces_nothing() {
        let walk = Comparison {
            param: Knob::WalkMissEnable as u16,
            observed: 0.1,
            scale: 1.0,
            outcome: true,
        };
        let pin = Comparison {
            param: Knob::Policy as u16,
            observed: pinned(4),
            scale: 1.0,
            outcome: true,
        };
        let value_of = |k: Knob| match k {
            Knob::Policy => Some(pinned(4)),
            Knob::WalkMissEnable => Some(0.05),
            _ => None,
        };
        assert!(!reproduces(&[walk], value_of));
        assert!(reproduces(&[pin, walk], value_of));
        // Another kind, an unknown parameter or a flipped outcome: no.
        assert!(!reproduces(&[pin, walk], |k| match k {
            Knob::Policy => Some(pinned(3)),
            _ => value_of(k),
        }));
        let unknown = Comparison {
            param: KNOBS.len() as u16,
            ..walk
        };
        assert!(!reproduces(&[pin, unknown], value_of));
        assert!(!reproduces(&[pin, walk], |k| match k {
            Knob::WalkMissEnable => Some(0.2),
            _ => value_of(k),
        }));
    }
}
