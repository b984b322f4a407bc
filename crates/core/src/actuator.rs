//! Actuator functions (`A`, Section V-B) that map threat-index changes to
//! resource-share changes.
//!
//! An actuator takes the share of resources from the previous epoch and the
//! change in threat index `ΔT` and returns the updated share
//! (`R_i^t = A(R_{i-1}^t, ΔT_{i,1}^t)`). The paper demonstrates an
//! OS-scheduler-based actuator (Eq. 8, used for micro-architectural attacks
//! and rowhammer) and cgroup-based actuators (used for ransomware and
//! cryptominers); all are provided here as [`ThrottleLaw`]s applied to a
//! single [`ResourceKind`] by a [`ShareActuator`]. An engine applies the
//! parts given to its [`EngineConfigBuilder`](crate::EngineConfigBuilder)
//! in order, and restores full shares on the paper's `A_reset`.

use crate::resource::{ResourceKind, ResourceVector};
use std::fmt;

/// How a share responds to threat-index changes.
///
/// The paper's worked example (Section V-C) "drops the CPU share by 10 % for
/// every increase in the threat index"; [`ThrottleLaw::PercentPointPerUnit`]
/// is that reading (10 percentage points per unit of `ΔT`).
/// [`ThrottleLaw::SchedulerWeight`] is Eq. 8 (relative weight scaled by
/// `γ·ΔT`), and [`ThrottleLaw::HalvePerEvent`] is the filesystem actuator of
/// Section VI-C ("halves the rate of file accesses every time there is an
/// increase in the threat index").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThrottleLaw {
    /// `share -= step · ΔT` (percentage points per unit of threat change).
    PercentPointPerUnit {
        /// Share change per unit of `ΔT` (e.g. `0.10`).
        step: f64,
    },
    /// `share *= factor^ΔT` (multiplicative per unit of threat change).
    MultiplicativePerUnit {
        /// Per-unit multiplier in `(0, 1)` (e.g. `0.9`).
        factor: f64,
    },
    /// `share *= factor` on any increase, `share /= factor` on any decrease,
    /// regardless of the magnitude of `ΔT`.
    MultiplicativePerEvent {
        /// Per-event multiplier in `(0, 1)`.
        factor: f64,
    },
    /// Halve on any increase, double on any decrease.
    HalvePerEvent,
    /// Eq. 8: `s ← s − γ·s·ΔT` when `ΔT > 0`, `s ← s + γ·s·|ΔT|` otherwise.
    SchedulerWeight {
        /// Relative weight step per unit of `ΔT` (the paper uses `γ = 0.1`).
        gamma: f64,
    },
}

/// The shape of a [`ThrottleLaw`], stripped of its parameter.
///
/// Used as ground truth for the adaptive tier's law probe
/// (`valkyrie_experiments::attacker::LawProbe` estimates the family and
/// parameter of the deployed law from observed share responses, and the
/// `adaptive` experiment scores the estimate against this introspection)
/// and as a stable label for per-law rankings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LawFamily {
    /// [`ThrottleLaw::PercentPointPerUnit`].
    PercentPoint,
    /// [`ThrottleLaw::MultiplicativePerUnit`].
    MultiplicativePerUnit,
    /// [`ThrottleLaw::MultiplicativePerEvent`].
    MultiplicativePerEvent,
    /// [`ThrottleLaw::HalvePerEvent`].
    Halve,
    /// [`ThrottleLaw::SchedulerWeight`].
    SchedulerWeight,
}

impl LawFamily {
    /// All five families, in a stable order.
    pub const ALL: [LawFamily; 5] = [
        LawFamily::PercentPoint,
        LawFamily::SchedulerWeight,
        LawFamily::MultiplicativePerUnit,
        LawFamily::Halve,
        LawFamily::MultiplicativePerEvent,
    ];

    /// Short stable label (used in experiment tables).
    pub fn name(&self) -> &'static str {
        match self {
            LawFamily::PercentPoint => "percent-point/unit",
            LawFamily::MultiplicativePerUnit => "multiplicative/unit",
            LawFamily::MultiplicativePerEvent => "multiplicative/event",
            LawFamily::Halve => "halve/event",
            LawFamily::SchedulerWeight => "scheduler-weight",
        }
    }
}

impl fmt::Display for LawFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl ThrottleLaw {
    /// The family this law belongs to.
    pub fn family(&self) -> LawFamily {
        match self {
            ThrottleLaw::PercentPointPerUnit { .. } => LawFamily::PercentPoint,
            ThrottleLaw::MultiplicativePerUnit { .. } => LawFamily::MultiplicativePerUnit,
            ThrottleLaw::MultiplicativePerEvent { .. } => LawFamily::MultiplicativePerEvent,
            ThrottleLaw::HalvePerEvent => LawFamily::Halve,
            ThrottleLaw::SchedulerWeight { .. } => LawFamily::SchedulerWeight,
        }
    }

    /// The law's scalar parameter (`step`, `factor` or `gamma`;
    /// [`ThrottleLaw::HalvePerEvent`] reports its fixed factor `0.5`).
    pub fn parameter(&self) -> f64 {
        match *self {
            ThrottleLaw::PercentPointPerUnit { step } => step,
            ThrottleLaw::MultiplicativePerUnit { factor } => factor,
            ThrottleLaw::MultiplicativePerEvent { factor } => factor,
            ThrottleLaw::HalvePerEvent => 0.5,
            ThrottleLaw::SchedulerWeight { gamma } => gamma,
        }
    }

    /// Rebuilds a law from a family and a parameter (the inverse of
    /// [`ThrottleLaw::family`] + [`ThrottleLaw::parameter`]; the parameter is
    /// ignored for [`LawFamily::Halve`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use valkyrie_core::ThrottleLaw;
    /// let law = ThrottleLaw::SchedulerWeight { gamma: 0.1 };
    /// assert_eq!(ThrottleLaw::with_parameter(law.family(), law.parameter()), law);
    /// ```
    pub fn with_parameter(family: LawFamily, parameter: f64) -> Self {
        match family {
            LawFamily::PercentPoint => ThrottleLaw::PercentPointPerUnit { step: parameter },
            LawFamily::MultiplicativePerUnit => {
                ThrottleLaw::MultiplicativePerUnit { factor: parameter }
            }
            LawFamily::MultiplicativePerEvent => {
                ThrottleLaw::MultiplicativePerEvent { factor: parameter }
            }
            LawFamily::Halve => ThrottleLaw::HalvePerEvent,
            LawFamily::SchedulerWeight => ThrottleLaw::SchedulerWeight { gamma: parameter },
        }
    }

    /// Applies the law to a single share for a threat change `delta`.
    ///
    /// The result is clamped to `[0, 1]`; the caller applies resource floors.
    ///
    /// A non-finite `delta` (NaN or ±∞) is treated as "no change": a NaN
    /// would otherwise slip past the `delta == 0.0` fast path (NaN compares
    /// unequal to everything), propagate through the arithmetic *and*
    /// through `clamp`, and permanently poison the process's shares —
    /// every subsequent epoch computes `NaN op x = NaN`. Threat-index
    /// deltas are bounded by construction, so a non-finite value is always
    /// an upstream bug; ignoring it keeps the response law total without
    /// inventing a throttle the monitor never asked for.
    pub fn step_share(&self, share: f64, delta: f64) -> f64 {
        if delta == 0.0 || !delta.is_finite() {
            return share.clamp(0.0, 1.0);
        }
        let next = match *self {
            ThrottleLaw::PercentPointPerUnit { step } => share - step * delta,
            ThrottleLaw::MultiplicativePerUnit { factor } => {
                share * factor.max(f64::MIN_POSITIVE).powf(delta)
            }
            ThrottleLaw::MultiplicativePerEvent { factor } => {
                let factor = factor.max(f64::MIN_POSITIVE);
                if delta > 0.0 {
                    share * factor
                } else {
                    share / factor
                }
            }
            ThrottleLaw::HalvePerEvent => {
                if delta > 0.0 {
                    share * 0.5
                } else {
                    share * 2.0
                }
            }
            ThrottleLaw::SchedulerWeight { gamma } => {
                if delta > 0.0 {
                    share - gamma * share * delta
                } else {
                    share + gamma * share * delta.abs()
                }
            }
        };
        next.clamp(0.0, 1.0)
    }
}

/// An actuator that regulates a single resource share with a [`ThrottleLaw`],
/// honouring a minimum-share floor.
///
/// # Examples
///
/// The paper's Section V-C CPU actuator (10 pp per unit of threat, 1 % floor):
///
/// ```
/// use valkyrie_core::{ResourceVector, ShareActuator};
/// let a = ShareActuator::cpu_percent_point(0.10, 0.01);
/// let r = a.apply(&ResourceVector::full(), 3.0);
/// assert!((r.cpu - 0.70).abs() < 1e-12);
/// let r = a.apply(&r, 100.0);
/// assert_eq!(r.cpu, 0.01); // floored
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShareActuator {
    kind: ResourceKind,
    law: ThrottleLaw,
    floor: f64,
}

impl ShareActuator {
    /// Creates an actuator for `kind` using `law`, with a minimum share of
    /// `floor` (clamped into `[0, 1]`).
    pub fn new(kind: ResourceKind, law: ThrottleLaw, floor: f64) -> Self {
        Self {
            kind,
            law,
            floor: floor.clamp(0.0, 1.0),
        }
    }

    /// The Section V-C CPU actuator: `step` percentage points per unit `ΔT`.
    pub fn cpu_percent_point(step: f64, floor: f64) -> Self {
        Self::new(
            ResourceKind::Cpu,
            ThrottleLaw::PercentPointPerUnit { step },
            floor,
        )
    }

    /// The Eq. 8 OS-scheduler actuator acting on the CPU share
    /// (`γ = 0.1`, minimum relative weight `s_min` in the paper).
    pub fn scheduler_weight(gamma: f64, s_min: f64) -> Self {
        Self::new(
            ResourceKind::Cpu,
            ThrottleLaw::SchedulerWeight { gamma },
            s_min,
        )
    }

    /// The Section VI-C filesystem actuator: halve the file-access rate on
    /// every threat increase.
    pub fn fs_halving(floor: f64) -> Self {
        Self::new(ResourceKind::Filesystem, ThrottleLaw::HalvePerEvent, floor)
    }

    /// The resource this actuator regulates.
    pub fn kind(&self) -> ResourceKind {
        self.kind
    }

    /// The throttle law in use.
    pub fn law(&self) -> ThrottleLaw {
        self.law
    }

    /// Returns the updated resource shares after a threat-index change of
    /// `delta_threat` (positive = more suspicious): the law moves this
    /// actuator's share, never below its floor, and leaves the others.
    ///
    /// A pure function of `(prev, ΔT)`: an engine shard applies one
    /// configuration to every process it tracks, so whatever a process's
    /// response depends on is carried in its resource vector.
    pub fn apply(&self, prev: &ResourceVector, delta_threat: f64) -> ResourceVector {
        let mut next = *prev;
        next.set(
            self.kind,
            self.next_share(prev.get(self.kind), delta_threat),
        );
        next
    }

    /// The share [`Self::apply`] moves this actuator's kind to from
    /// `share`, clamped into `[0, 1]` as [`ResourceVector::set`] does.
    fn next_share(&self, share: f64, delta_threat: f64) -> f64 {
        self.law
            .step_share(share, delta_threat)
            .max(self.floor)
            .clamp(0.0, 1.0)
    }

    /// Checks that the actuator's parameters give a defined response,
    /// naming the first broken rule:
    /// - a NaN floor is ignored by `share.max(floor)`;
    /// - a NaN or infinite law parameter sends a share straight to the floor
    ///   or to 1 (a NaN `step` pins every recovering share at the floor);
    /// - a negative `step` or `gamma` raises the share when the threat
    ///   rises.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.floor.is_nan() {
            return Err(format!("{} actuator floor is NaN", self.kind));
        }
        let parameter = self.law.parameter();
        if !parameter.is_finite() {
            return Err(format!(
                "{} law parameter must be finite, got {parameter}",
                self.law.family()
            ));
        }
        let signed = matches!(
            self.law,
            ThrottleLaw::PercentPointPerUnit { .. } | ThrottleLaw::SchedulerWeight { .. }
        );
        if signed && parameter < 0.0 {
            return Err(format!(
                "{} law parameter must not be negative, got {parameter}",
                self.law.family()
            ));
        }
        Ok(())
    }
}

/// Applies several [`ShareActuator`]s in sequence, so multiple resources can
/// be throttled at once (e.g. the ransomware case study throttles both CPU
/// time and file-access rate).
///
/// Every part moves only its own kind, and every restore writes full
/// shares, so a kind that no part names always stays at 1.0. When every
/// part names the first part's kind, one share therefore stands for the
/// whole vector: [`Self::apply_share`] moves it and [`Self::resources`]
/// rebuilds the vector from it.
#[derive(Debug, Clone)]
pub(crate) struct CompositeActuator {
    parts: Vec<ShareActuator>,
    /// The kind the first part moves.
    kind: ResourceKind,
    /// Whether every part moves `kind`.
    single_kind: bool,
}

impl CompositeActuator {
    /// Creates a composite from individual per-resource actuators.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub(crate) fn new(parts: Vec<ShareActuator>) -> Self {
        let kind = parts[0].kind;
        let single_kind = parts.iter().all(|part| part.kind == kind);
        Self {
            parts,
            kind,
            single_kind,
        }
    }

    /// Whether every part moves the first part's kind.
    pub(crate) fn single_kind(&self) -> bool {
        self.single_kind
    }

    /// Applies every part in order.
    pub(crate) fn apply(&self, prev: &ResourceVector, delta_threat: f64) -> ResourceVector {
        let mut r = *prev;
        for part in &self.parts {
            r = part.apply(&r, delta_threat);
        }
        r
    }

    /// [`Self::apply`] on the first part's kind alone, bit for bit: every
    /// part in order moves `share`. Only meaningful when
    /// [`Self::single_kind`].
    #[inline]
    pub(crate) fn apply_share(&self, share: f64, delta_threat: f64) -> f64 {
        self.parts
            .iter()
            .fold(share, |share, part| part.next_share(share, delta_threat))
    }

    /// The full vector with the first part's kind at `share`, which
    /// [`Self::apply_share`] or a restore to 1.0 left in `[0, 1]`, so it
    /// goes in unclamped.
    #[inline]
    pub(crate) fn resources(&self, share: f64) -> ResourceVector {
        let full = ResourceVector::FULL;
        match self.kind {
            ResourceKind::Cpu => ResourceVector { cpu: share, ..full },
            ResourceKind::Memory => ResourceVector { mem: share, ..full },
            ResourceKind::Network => ResourceVector { net: share, ..full },
            ResourceKind::Filesystem => ResourceVector { fs: share, ..full },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_point_is_linear_in_delta() {
        let law = ThrottleLaw::PercentPointPerUnit { step: 0.1 };
        assert!((law.step_share(1.0, 2.0) - 0.8).abs() < 1e-12);
        assert!((law.step_share(0.5, -3.0) - 0.8).abs() < 1e-12);
        assert_eq!(law.step_share(0.05, 5.0), 0.0); // clamped at zero
    }

    #[test]
    fn multiplicative_per_unit_uses_powers() {
        let law = ThrottleLaw::MultiplicativePerUnit { factor: 0.9 };
        assert!((law.step_share(1.0, 2.0) - 0.81).abs() < 1e-12);
        // Recovery is the exact inverse.
        assert!((law.step_share(0.81, -2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scheduler_weight_matches_eq8() {
        // Eq. 8 with gamma=0.1: one unit of threat drops the relative
        // weight by 10%.
        let law = ThrottleLaw::SchedulerWeight { gamma: 0.1 };
        assert!((law.step_share(1.0, 1.0) - 0.9).abs() < 1e-12);
        assert!((law.step_share(0.9, -1.0) - 0.99).abs() < 1e-12);
    }

    #[test]
    fn halving_law() {
        let law = ThrottleLaw::HalvePerEvent;
        assert_eq!(law.step_share(1.0, 5.0), 0.5);
        assert_eq!(law.step_share(0.5, -1.0), 1.0);
        assert_eq!(law.step_share(0.9, -2.0), 1.0); // clamped at one
    }

    #[test]
    fn law_family_round_trips_through_introspection() {
        for law in [
            ThrottleLaw::PercentPointPerUnit { step: 0.1 },
            ThrottleLaw::MultiplicativePerUnit { factor: 0.9 },
            ThrottleLaw::MultiplicativePerEvent { factor: 0.7 },
            ThrottleLaw::HalvePerEvent,
            ThrottleLaw::SchedulerWeight { gamma: 0.1 },
        ] {
            let rebuilt = ThrottleLaw::with_parameter(law.family(), law.parameter());
            assert_eq!(rebuilt, law);
        }
        assert_eq!(LawFamily::ALL.len(), 5);
        assert_eq!(ThrottleLaw::HalvePerEvent.parameter(), 0.5);
    }

    #[test]
    fn every_family_has_a_distinct_name() {
        let names: std::collections::HashSet<_> = LawFamily::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), LawFamily::ALL.len());
    }

    #[test]
    fn zero_delta_is_identity() {
        for law in [
            ThrottleLaw::PercentPointPerUnit { step: 0.1 },
            ThrottleLaw::MultiplicativePerUnit { factor: 0.9 },
            ThrottleLaw::MultiplicativePerEvent { factor: 0.5 },
            ThrottleLaw::HalvePerEvent,
            ThrottleLaw::SchedulerWeight { gamma: 0.1 },
        ] {
            assert_eq!(law.step_share(0.42, 0.0), 0.42);
        }
    }

    /// Regression: a NaN `delta` used to fail the `delta == 0.0` fast path
    /// (NaN is unequal to everything), flow through the law arithmetic and
    /// `clamp` — both of which propagate NaN — and permanently poison the
    /// share. Every law variant must treat non-finite deltas as identity.
    #[test]
    fn non_finite_delta_is_identity_for_every_law() {
        for law in [
            ThrottleLaw::PercentPointPerUnit { step: 0.1 },
            ThrottleLaw::MultiplicativePerUnit { factor: 0.9 },
            ThrottleLaw::MultiplicativePerEvent { factor: 0.5 },
            ThrottleLaw::HalvePerEvent,
            ThrottleLaw::SchedulerWeight { gamma: 0.1 },
        ] {
            for delta in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let next = law.step_share(0.42, delta);
                assert_eq!(next, 0.42, "{law:?} poisoned by delta {delta}");
            }
        }
    }

    /// Regression at the actuator level: one NaN observation must not
    /// poison the shares for the rest of the process's life.
    #[test]
    fn nan_delta_does_not_poison_future_epochs() {
        let a = ShareActuator::cpu_percent_point(0.10, 0.01);
        let r = a.apply(&ResourceVector::full(), 1.0);
        assert!((r.cpu - 0.9).abs() < 1e-12);
        // The buggy epoch: pre-fix, r.cpu became NaN here and stayed NaN.
        let r = a.apply(&r, f64::NAN);
        assert!((r.cpu - 0.9).abs() < 1e-12);
        assert!(r.is_valid());
        // Recovery continues exactly where it left off.
        let r = a.apply(&r, -1.0);
        assert!((r.cpu - 1.0).abs() < 1e-12);
    }

    #[test]
    fn share_actuator_honours_floor() {
        let a = ShareActuator::cpu_percent_point(0.5, 0.25);
        let r = a.apply(&ResourceVector::full(), 10.0);
        assert_eq!(r.cpu, 0.25);
        // Further threat stays on the floor, and the other shares are
        // untouched.
        let r = a.apply(&r, 10.0);
        assert_eq!(r.cpu, 0.25);
        assert_eq!(r.fs, 1.0);
    }

    #[test]
    fn share_actuator_only_touches_its_kind() {
        let a = ShareActuator::fs_halving(0.0);
        let r = a.apply(&ResourceVector::full(), 1.0);
        assert_eq!(r.cpu, 1.0);
        assert_eq!(r.mem, 1.0);
        assert_eq!(r.net, 1.0);
        assert_eq!(r.fs, 0.5);
    }

    #[test]
    fn composite_applies_all_parts() {
        let a = CompositeActuator::new(vec![
            ShareActuator::cpu_percent_point(0.10, 0.01),
            ShareActuator::fs_halving(0.01),
            ShareActuator::new(
                ResourceKind::Memory,
                ThrottleLaw::PercentPointPerUnit { step: 0.05 },
                0.5,
            ),
        ]);
        let r = a.apply(&ResourceVector::full(), 2.0);
        assert!((r.cpu - 0.8).abs() < 1e-12);
        assert_eq!(r.fs, 0.5);
        assert!((r.mem - 0.9).abs() < 1e-12);
        // Every part holds its own floor.
        let r = a.apply(&r, 100.0);
        assert_eq!(r.mem, 0.5);
        assert_eq!(r.cpu, 0.01);
    }

    #[test]
    fn recovery_reaches_full_share_for_percent_point() {
        let a = ShareActuator::cpu_percent_point(0.1, 0.01);
        let mut r = ResourceVector::full();
        for _ in 0..10 {
            r = a.apply(&r, 1.0);
        }
        assert_eq!(r.cpu, 0.01);
        for _ in 0..12 {
            r = a.apply(&r, -1.0);
        }
        assert_eq!(r.cpu, 1.0);
    }
}
