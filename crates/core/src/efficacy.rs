//! Detection-efficacy curves and the `N*` planner (Section IV-A).
//!
//! A runtime detector's efficacy improves with the number of captured
//! measurements (paper Fig. 1). Valkyrie lets the user specify the efficacy
//! their deployment needs (critical systems tolerate more false positives to
//! terminate earlier; general-purpose systems wait longer) and computes the
//! number of measurements `N*` required to reach it.

use crate::error::ValkyrieError;
use std::fmt;

/// One measured point of a detector's efficacy curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficacyPoint {
    /// Number of runtime measurements the detector has accumulated.
    pub measurements: u32,
    /// F1-score at that many measurements, in `[0, 1]`.
    pub f1: f64,
    /// False-positive rate at that many measurements, in `[0, 1]`.
    pub fpr: f64,
}

/// A detector's efficacy as a function of the number of measurements.
///
/// Raw measured curves are noisy; queries use the *monotone envelope*
/// (running maximum of F1, running minimum of FPR), which matches how a
/// deployment would pick `N*` from an empirical curve.
///
/// # Examples
///
/// ```
/// use valkyrie_core::{EfficacyCurve, EfficacyPoint, EfficacySpec};
/// let curve = EfficacyCurve::new(vec![
///     EfficacyPoint { measurements: 5, f1: 0.70, fpr: 0.30 },
///     EfficacyPoint { measurements: 23, f1: 0.92, fpr: 0.12 },
///     EfficacyPoint { measurements: 50, f1: 0.95, fpr: 0.08 },
/// ]).unwrap();
/// assert_eq!(curve.measurements_required(&EfficacySpec::f1_at_least(0.9)).unwrap(), 23);
/// assert!(curve.measurements_required(&EfficacySpec::f1_at_least(0.99)).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EfficacyCurve {
    points: Vec<EfficacyPoint>,
}

impl EfficacyCurve {
    /// Builds a curve from measured points.
    ///
    /// # Errors
    ///
    /// Returns [`ValkyrieError::InvalidCurve`] when `points` is empty, not
    /// strictly increasing in `measurements`, or contains metrics outside
    /// `[0, 1]`.
    pub fn new(points: Vec<EfficacyPoint>) -> Result<Self, ValkyrieError> {
        if points.is_empty() {
            return Err(ValkyrieError::InvalidCurve("no points supplied".into()));
        }
        for w in points.windows(2) {
            if w[1].measurements <= w[0].measurements {
                return Err(ValkyrieError::InvalidCurve(format!(
                    "measurements not strictly increasing at {}",
                    w[1].measurements
                )));
            }
        }
        for p in &points {
            if !(0.0..=1.0).contains(&p.f1) || !(0.0..=1.0).contains(&p.fpr) {
                return Err(ValkyrieError::InvalidCurve(format!(
                    "metrics out of range at {} measurements (f1={}, fpr={})",
                    p.measurements, p.f1, p.fpr
                )));
            }
        }
        Ok(Self { points })
    }

    /// The measured points, ordered by measurement count.
    pub fn points(&self) -> &[EfficacyPoint] {
        &self.points
    }

    /// Best (running-maximum) F1 achievable with at most `n` measurements.
    ///
    /// Returns `None` if `n` is below the first measured point.
    pub fn f1_at(&self, n: u32) -> Option<f64> {
        let mut best: Option<f64> = None;
        for p in &self.points {
            if p.measurements > n {
                break;
            }
            best = Some(best.map_or(p.f1, |b: f64| b.max(p.f1)));
        }
        best
    }

    /// The smallest measurement count whose monotone-envelope efficacy
    /// satisfies `spec` — the paper's `N*`.
    ///
    /// # Errors
    ///
    /// Returns [`ValkyrieError::UnreachableEfficacy`] when no point on the
    /// curve satisfies the specification.
    pub fn measurements_required(&self, spec: &EfficacySpec) -> Result<u32, ValkyrieError> {
        let mut best_f1 = 0.0_f64;
        let mut best_fpr = 1.0_f64;
        for p in &self.points {
            best_f1 = best_f1.max(p.f1);
            best_fpr = best_fpr.min(p.fpr);
            let f1_ok = spec.min_f1.is_none_or(|t| best_f1 >= t);
            let fpr_ok = spec.max_fpr.is_none_or(|t| best_fpr <= t);
            if f1_ok && fpr_ok {
                return Ok(p.measurements);
            }
        }
        Err(ValkyrieError::UnreachableEfficacy {
            constraint: spec.to_string(),
        })
    }
}

/// A user's detection-efficacy requirement.
///
/// Both constraints may be combined; `N*` is the first measurement count
/// satisfying all of them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EfficacySpec {
    /// Minimum acceptable F1-score, if constrained.
    pub min_f1: Option<f64>,
    /// Maximum acceptable false-positive rate, if constrained.
    pub max_fpr: Option<f64>,
}

impl EfficacySpec {
    /// Requires an F1-score of at least `f1`.
    pub fn f1_at_least(f1: f64) -> Self {
        Self {
            min_f1: Some(f1),
            max_fpr: None,
        }
    }

    /// Requires a false-positive rate of at most `fpr`.
    pub fn fpr_at_most(fpr: f64) -> Self {
        Self {
            min_f1: None,
            max_fpr: Some(fpr),
        }
    }

    /// Adds an FPR constraint to this specification.
    #[must_use]
    pub fn and_fpr_at_most(mut self, fpr: f64) -> Self {
        self.max_fpr = Some(fpr);
        self
    }
}

impl fmt::Display for EfficacySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.min_f1, self.max_fpr) {
            (Some(f1), Some(fpr)) => write!(f, "F1 >= {f1} and FPR <= {fpr}"),
            (Some(f1), None) => write!(f, "F1 >= {f1}"),
            (None, Some(fpr)) => write!(f, "FPR <= {fpr}"),
            (None, None) => write!(f, "no constraint"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> EfficacyCurve {
        EfficacyCurve::new(vec![
            EfficacyPoint {
                measurements: 5,
                f1: 0.70,
                fpr: 0.35,
            },
            EfficacyPoint {
                measurements: 10,
                f1: 0.68, // noise dip — envelope should ignore it
                fpr: 0.25,
            },
            EfficacyPoint {
                measurements: 23,
                f1: 0.91,
                fpr: 0.15,
            },
            EfficacyPoint {
                measurements: 50,
                f1: 0.94,
                fpr: 0.09,
            },
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty_and_unsorted_and_out_of_range() {
        assert!(EfficacyCurve::new(vec![]).is_err());
        assert!(EfficacyCurve::new(vec![
            EfficacyPoint {
                measurements: 5,
                f1: 0.5,
                fpr: 0.5
            },
            EfficacyPoint {
                measurements: 5,
                f1: 0.6,
                fpr: 0.4
            },
        ])
        .is_err());
        assert!(EfficacyCurve::new(vec![EfficacyPoint {
            measurements: 1,
            f1: 1.5,
            fpr: 0.0
        }])
        .is_err());
    }

    #[test]
    fn envelope_is_monotone() {
        let c = curve();
        assert_eq!(c.f1_at(10), Some(0.70)); // dip ignored
        assert_eq!(c.f1_at(4), None);
        assert_eq!(c.f1_at(100), Some(0.94));
    }

    #[test]
    fn n_star_for_f1_matches_fig1_narrative() {
        // Paper: "to get an F1-Score of more than 0.9, the XGBoost detector
        // would need 23 measurements".
        let c = curve();
        assert_eq!(
            c.measurements_required(&EfficacySpec::f1_at_least(0.9))
                .unwrap(),
            23
        );
    }

    #[test]
    fn n_star_for_fpr() {
        let c = curve();
        assert_eq!(
            c.measurements_required(&EfficacySpec::fpr_at_most(0.10))
                .unwrap(),
            50
        );
    }

    #[test]
    fn combined_spec_takes_the_later_point() {
        let c = curve();
        let spec = EfficacySpec::f1_at_least(0.9).and_fpr_at_most(0.1);
        assert_eq!(c.measurements_required(&spec).unwrap(), 50);
    }

    #[test]
    fn unreachable_spec_is_an_error() {
        let c = curve();
        let err = c
            .measurements_required(&EfficacySpec::f1_at_least(0.99))
            .unwrap_err();
        assert!(matches!(err, ValkyrieError::UnreachableEfficacy { .. }));
    }

    #[test]
    fn empty_spec_is_satisfied_immediately() {
        let c = curve();
        assert_eq!(
            c.measurements_required(&EfficacySpec::default()).unwrap(),
            5
        );
    }

    #[test]
    fn spec_display() {
        assert_eq!(
            EfficacySpec::f1_at_least(0.9)
                .and_fpr_at_most(0.1)
                .to_string(),
            "F1 >= 0.9 and FPR <= 0.1"
        );
    }
}
