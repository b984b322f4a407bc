//! Threat assessment: classifications, the bounded threat index and the
//! penalty / compensation assessment functions of Algorithm 1.
//!
//! The threat index `T_i^t` quantifies the detector's accumulated confidence
//! that process `t` is malicious. It is bounded to `[0, 100]`; every metric
//! update passes through the paper's `clamp()` (Algorithm 1, lines 1, 10, 14
//! and 16).

use std::fmt;

/// A detector's per-epoch inference for one process (`D(t, i)` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Classification {
    /// The detector classified the process behaviour as malicious.
    Malicious,
    /// The detector classified the process behaviour as benign.
    Benign,
}

impl Classification {
    /// True for [`Classification::Malicious`].
    pub fn is_malicious(self) -> bool {
        matches!(self, Classification::Malicious)
    }
}

impl fmt::Display for Classification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Classification::Malicious => f.write_str("malicious"),
            Classification::Benign => f.write_str("benign"),
        }
    }
}

/// The paper's `clamp(x) = max(0, min(x, 100))`.
fn clamp_metric(x: f64) -> f64 {
    x.clamp(ThreatIndex::MIN, ThreatIndex::MAX)
}

/// One detector's weighted evidence about a process for one epoch.
///
/// Where [`Classification`] is the paper's binary `D(t, i)`, a `Verdict`
/// carries what a heterogeneous ensemble member actually knows: *which*
/// detector spoke (`detector` indexes the fusion weights), *how sure* it is
/// (`confidence` in `[0, 1]`, `1.0` = certainly malicious) and *how often*
/// it speaks (`cadence` in epochs-per-inference, so the fusion layer can
/// tell a slow member from a wedged one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Stable detector id within its ensemble (indexes fusion weights).
    /// Ids below 64 are fused; the engine drops a verdict from a higher id
    /// as no measurement.
    pub detector: u32,
    /// Malicious confidence in `[0, 1]`; `1.0` means certainly malicious.
    pub confidence: f64,
    /// Epochs between this detector's publications (at least 1).
    pub cadence: u32,
}

impl Verdict {
    /// A verdict from `detector` with the given confidence and cadence 1.
    ///
    /// The confidence is clamped into `[0, 1]`; NaN passes through and is
    /// dropped as "no measurement" when the engine absorbs the verdict
    /// ([`ValkyrieEngine::observe_verdict_batch`](crate::ValkyrieEngine::observe_verdict_batch)).
    pub fn new(detector: u32, confidence: f64) -> Self {
        Self {
            detector,
            confidence: confidence.clamp(0.0, 1.0),
            cadence: 1,
        }
    }

    /// Sets the cadence (epochs between publications).
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero.
    #[must_use]
    pub fn with_cadence(mut self, cadence: u32) -> Self {
        assert!(cadence >= 1, "cadence is at least one epoch");
        self.cadence = cadence;
        self
    }

    /// Lifts a binary classification into a full-confidence verdict
    /// (`Malicious` → 1.0, `Benign` → 0.0) at cadence 1.
    pub fn from_classification(detector: u32, c: Classification) -> Self {
        Self::new(detector, if c.is_malicious() { 1.0 } else { 0.0 })
    }
}

/// Weighted-evidence accumulator: folds per-detector confidences into one
/// evidence *mass* in `[0, 1]`.
///
/// The mass is the weighted mean of the contributed confidences. With unit
/// weights and binary confidences it reduces to the vote fraction
/// `malicious / total`, which is why the legacy combination rules are a
/// degenerate configuration of the fusion layer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Evidence {
    weighted: f64,
    total: f64,
}

impl Evidence {
    /// An empty accumulator (mass 0).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds one detector's confidence with the given weight. Non-positive
    /// weights contribute nothing (a fully-decayed stale verdict).
    pub(crate) fn add(&mut self, confidence: f64, weight: f64) {
        if weight > 0.0 {
            self.weighted += confidence * weight;
            self.total += weight;
        }
    }

    /// The fused evidence mass: weighted mean confidence in `[0, 1]`
    /// (`0.0` when nothing was accumulated).
    pub(crate) fn mass(&self) -> f64 {
        if self.total > 0.0 {
            self.weighted / self.total
        } else {
            0.0
        }
    }
}

/// Staleness decay for a verdict `age` epochs old from a detector that
/// publishes every `cadence` epochs: `decay^(age - cadence)` once the
/// verdict is overdue, `1.0` while it is still within its cadence.
///
/// `decay = 1.0` disables staleness (a slow member keeps full weight
/// forever); `decay = 0.0` drops an overdue member entirely.
pub(crate) fn stale_weight(decay: f64, age: u64, cadence: u32) -> f64 {
    let overdue = age.saturating_sub(u64::from(cadence));
    if overdue == 0 {
        1.0
    } else {
        decay.powi(overdue.min(i32::MAX as u64) as i32)
    }
}

/// Bounded threat index of a process (`T_i^t ∈ [0, 100]`).
///
/// `0` means no restrictions on system resources; `100` means maximum
/// restrictions (Section V-A).
///
/// # Examples
///
/// ```
/// use valkyrie_core::ThreatIndex;
/// let t = ThreatIndex::new(250.0);
/// assert_eq!(t.value(), 100.0); // clamped
/// assert!(!t.is_zero());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct ThreatIndex(f64);

impl ThreatIndex {
    /// Lower bound of the threat index.
    pub const MIN: f64 = 0.0;
    /// Upper bound of the threat index.
    pub const MAX: f64 = 100.0;

    /// Creates a threat index, clamping into `[0, 100]`.
    pub fn new(value: f64) -> Self {
        Self(clamp_metric(value))
    }

    /// A zero threat index (the *normal* state).
    pub fn zero() -> Self {
        Self(0.0)
    }

    /// An index holding `value` as is, which [`Self::new`] would clamp, for
    /// tests of checks that must reject one.
    #[cfg(test)]
    pub(crate) fn unclamped(value: f64) -> Self {
        Self(value)
    }

    /// The clamped value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// True when the index is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Returns the index increased by `penalty`, clamped (Algorithm 1 l.11).
    #[must_use]
    pub(crate) fn penalized(self, penalty: f64) -> Self {
        Self::new(self.0 + penalty)
    }

    /// Returns the index decreased by `compensation`, clamped (l.15–16).
    #[must_use]
    pub(crate) fn compensated(self, compensation: f64) -> Self {
        Self::new(self.0 - compensation)
    }
}

impl fmt::Display for ThreatIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}", self.0)
    }
}

/// A penalty (`F_p`) or compensation (`F_c`) assessment function.
///
/// These configurable functions control how fast the penalty and compensation
/// metrics grow (Section V-A). The paper names three realizations —
/// incremental, linear and exponential — all of which are provided, plus an
/// escape hatch for custom functions.
///
/// The epoch index is passed so epoch-dependent functions (the paper's
/// exponential example `F_p(P_{i-1}) = 2 i P_{i-1} + 1`) can be expressed.
///
/// # Examples
///
/// ```
/// use valkyrie_core::AssessmentFn;
/// let inc = AssessmentFn::incremental();
/// assert_eq!(inc.next(0.0, 1), 1.0);
/// assert_eq!(inc.next(1.0, 2), 2.0);
///
/// let lin = AssessmentFn::linear(2.0, 1.0);
/// assert_eq!(lin.next(3.0, 1), 7.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub enum AssessmentFn {
    /// `F(x) = x + 1` — the paper's incremental function (Eqs. 5 and 6).
    Incremental,
    /// `F(x) = a·x + b`.
    Linear {
        /// Multiplicative coefficient.
        a: f64,
        /// Additive coefficient.
        b: f64,
    },
    /// `F(x) = base·i·x + 1` — epoch-dependent exponential growth
    /// (the paper's example uses `base = 2`).
    Exponential {
        /// Growth base.
        base: f64,
    },
    /// A custom function of `(previous_value, epoch_index)`.
    Custom(fn(f64, u64) -> f64),
}

impl AssessmentFn {
    /// The incremental assessment function `F(x) = x + 1`.
    pub fn incremental() -> Self {
        AssessmentFn::Incremental
    }

    /// A linear assessment function `F(x) = a·x + b`.
    pub fn linear(a: f64, b: f64) -> Self {
        AssessmentFn::Linear { a, b }
    }

    /// The exponential assessment function `F(x) = base·i·x + 1`.
    pub fn exponential(base: f64) -> Self {
        AssessmentFn::Exponential { base }
    }

    /// Evaluates the function: next metric value from the previous one.
    ///
    /// The result is clamped to `[0, 100]`, matching Algorithm 1's use of
    /// `clamp()` around every `F_p` / `F_c` evaluation. A NaN has no place
    /// in that range, so a [`AssessmentFn::Custom`] function that returns
    /// NaN leaves the metric where it was: `next` returns `prev`. The
    /// built-in shapes never return NaN for a `prev` in `[0, 100]` once
    /// [`EngineConfigBuilder::build`](crate::EngineConfigBuilder::build)
    /// has checked that their parameters are finite.
    ///
    /// ```
    /// use valkyrie_core::AssessmentFn;
    /// assert_eq!(AssessmentFn::Custom(|_, _| f64::NAN).next(3.0, 1), 3.0);
    /// ```
    pub fn next(&self, prev: f64, epoch: u64) -> f64 {
        let raw = match *self {
            AssessmentFn::Incremental => prev + 1.0,
            AssessmentFn::Linear { a, b } => a * prev + b,
            // `base·i` overflows to ±∞ for a huge finite base, and ∞ × 0 is
            // NaN; the product with a zero metric is zero all the same.
            AssessmentFn::Exponential { .. } if prev == 0.0 => 1.0,
            AssessmentFn::Exponential { base } => base * epoch as f64 * prev + 1.0,
            AssessmentFn::Custom(f) => match f(prev, epoch) {
                raw if raw.is_nan() => prev,
                raw => raw,
            },
        };
        clamp_metric(raw)
    }

    /// Checks the parameters of the built-in shapes: a `Linear` `a` or
    /// `b`, or an `Exponential` `base`, must be finite (an infinite one
    /// times a zero metric is NaN on the first step). A `Custom` function
    /// cannot be checked ahead of time; [`Self::next`] holds the metric
    /// when it returns NaN.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let finite = match *self {
            AssessmentFn::Linear { a, b } => a.is_finite() && b.is_finite(),
            AssessmentFn::Exponential { base } => base.is_finite(),
            AssessmentFn::Incremental | AssessmentFn::Custom(_) => true,
        };
        if finite {
            Ok(())
        } else {
            Err(format!(
                "assessment function {self:?} has a non-finite parameter"
            ))
        }
    }
}

impl Default for AssessmentFn {
    /// The paper's default: incremental growth.
    fn default() -> Self {
        AssessmentFn::Incremental
    }
}

impl PartialEq for AssessmentFn {
    /// Structural equality; [`AssessmentFn::Custom`] values are never equal
    /// (function-pointer identity is not meaningful across codegen units).
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (AssessmentFn::Incremental, AssessmentFn::Incremental) => true,
            (AssessmentFn::Linear { a, b }, AssessmentFn::Linear { a: a2, b: b2 }) => {
                a == a2 && b == b2
            }
            (AssessmentFn::Exponential { base }, AssessmentFn::Exponential { base: b2 }) => {
                base == b2
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threat_index_clamps_both_ends() {
        assert_eq!(ThreatIndex::new(-5.0).value(), 0.0);
        assert_eq!(ThreatIndex::new(105.0).value(), 100.0);
        assert_eq!(ThreatIndex::new(50.0).value(), 50.0);
    }

    #[test]
    fn penalize_and_compensate_round_trip() {
        let t = ThreatIndex::zero().penalized(30.0);
        assert_eq!(t.value(), 30.0);
        let t = t.compensated(30.0);
        assert!(t.is_zero());
    }

    #[test]
    fn incremental_grows_by_one() {
        let f = AssessmentFn::incremental();
        let mut p = 0.0;
        for epoch in 1..=5 {
            p = f.next(p, epoch);
        }
        assert_eq!(p, 5.0);
    }

    #[test]
    fn linear_matches_formula() {
        let f = AssessmentFn::linear(1.5, 2.0);
        assert_eq!(f.next(4.0, 7), 8.0);
    }

    #[test]
    fn exponential_depends_on_epoch() {
        let f = AssessmentFn::exponential(2.0);
        assert_eq!(f.next(1.0, 1), 3.0); // 2*1*1 + 1
        assert_eq!(f.next(3.0, 2), 13.0); // 2*2*3 + 1
    }

    #[test]
    fn assessment_output_is_clamped() {
        let f = AssessmentFn::linear(1000.0, 1000.0);
        assert_eq!(f.next(50.0, 1), 100.0);
        let f = AssessmentFn::linear(-10.0, 0.0);
        assert_eq!(f.next(5.0, 1), 0.0);
    }

    #[test]
    fn custom_function_is_used() {
        let f = AssessmentFn::Custom(|prev, _| prev * 2.0 + 0.5);
        assert_eq!(f.next(1.0, 9), 2.5);
    }

    #[test]
    fn verdict_clamps_confidence_and_round_trips_classification() {
        assert_eq!(Verdict::new(3, 1.7).confidence, 1.0);
        assert_eq!(Verdict::new(0, -0.2).confidence, 0.0);
        let v = Verdict::from_classification(2, Classification::Malicious).with_cadence(4);
        assert_eq!((v.detector, v.confidence, v.cadence), (2, 1.0, 4));
    }

    #[test]
    #[should_panic(expected = "cadence")]
    fn zero_cadence_panics() {
        let _ = Verdict::new(0, 1.0).with_cadence(0);
    }

    #[test]
    fn evidence_mass_is_weighted_mean() {
        let mut e = Evidence::new();
        assert_eq!(e.mass(), 0.0);
        e.add(1.0, 1.0);
        e.add(0.0, 3.0);
        assert_eq!(e.mass(), 0.25);
        // Non-positive weights contribute nothing.
        e.add(1.0, 0.0);
        e.add(1.0, -2.0);
        assert_eq!(e.mass(), 0.25);
    }

    #[test]
    fn unit_weight_evidence_reduces_to_vote_fraction() {
        // The migration guarantee: m malicious votes out of n members give
        // mass m/n exactly, so `mass > 0.5` is `2m > n` bit-for-bit.
        for n in [1_usize, 3, 5] {
            for m in 0..=n {
                let mut e = Evidence::new();
                for i in 0..n {
                    e.add(if i < m { 1.0 } else { 0.0 }, 1.0);
                }
                assert_eq!(e.mass(), m as f64 / n as f64);
                assert_eq!(e.mass() > 0.5, 2 * m > n, "m={m} n={n}");
            }
        }
    }

    #[test]
    fn stale_weight_kicks_in_past_the_cadence() {
        // Fresh or within cadence: no decay.
        assert_eq!(stale_weight(0.5, 0, 1), 1.0);
        assert_eq!(stale_weight(0.5, 3, 3), 1.0);
        // One epoch overdue halves the weight, two quarter it.
        assert_eq!(stale_weight(0.5, 4, 3), 0.5);
        assert_eq!(stale_weight(0.5, 5, 3), 0.25);
        // decay = 1.0 disables staleness entirely.
        assert_eq!(stale_weight(1.0, 100, 1), 1.0);
        // decay = 0.0 drops an overdue member.
        assert_eq!(stale_weight(0.0, 2, 1), 0.0);
    }

    #[test]
    fn classification_display() {
        assert_eq!(Classification::Malicious.to_string(), "malicious");
        assert_eq!(Classification::Benign.to_string(), "benign");
        assert!(Classification::Malicious.is_malicious());
        assert!(!Classification::Benign.is_malicious());
    }
}
