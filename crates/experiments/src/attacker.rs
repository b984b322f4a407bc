//! Adaptive attackers that try to *game* the response framework.
//!
//! The paper's discussion (Section VII) scopes adversarial attacks on the
//! **detector** out; this module studies the complementary question the
//! response layer itself raises: can an attacker exploit Valkyrie's
//! *compensation* mechanism — behave maliciously, pause until the threat
//! index decays, and resume — to make progress indefinitely without being
//! terminated?
//!
//! The answer, quantified by [`run_adaptive`] and the `evasion` experiment
//! binary, is that duty-cycling is a losing trade under Valkyrie:
//!
//! * every dormant epoch costs the attacker wall-clock time but still counts
//!   toward `N*`, so the terminable verdict arrives on schedule;
//! * in the terminable state each active epoch is a Bernoulli trial against
//!   the detector's true-positive rate, bounding the expected remaining
//!   progress by [`expected_terminable_progress`];
//! * pre-`N*` progress is throttled as soon as the penalty outpaces the
//!   compensation, and steeper penalty functions (`F_p`) shrink the viable
//!   duty-cycle window — the hardening knob the ablation sweep exercises.
//!
//! The *adaptive tier* sharpens the question from fixed schedules to
//! best responses: [`AdaptiveStrategy`] attackers choose a graded effort in
//! `[0, 1]` each epoch (progress and detection probability both scale with
//! it — the detection probability interpolates between `fpr` at effort 0
//! and `tpr` at effort 1), and close the loop on their own [`AttackerView`].
//! [`LawProbe`] identifies the deployed [`ThrottleLaw`] family and parameter
//! from the share responses to a calibrated burst; [`IntensityModulator`]
//! rides a share-hysteresis band and goes quiet at its `N*` estimate;
//! [`MassRider`] holds the expected fused confidence just below an
//! [`valkyrie_core::EscalationLadder`] rung. The `adaptive` experiment
//! searches these parameter spaces per response law and reports the
//! *worst-case* efficacy floor each law retains.
//!
//! # Examples
//!
//! ```
//! use valkyrie_core::{EngineConfig, ShareActuator};
//! use valkyrie_experiments::attacker::{
//!     run_adaptive, AdaptiveScenario, AttackerStrategy, DetectorModel,
//! };
//!
//! let config = EngineConfig::builder()
//!     .measurements_required(15)
//!     .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
//!     .build()?;
//! let scenario = AdaptiveScenario::new(DetectorModel::perfect(), 60);
//! let mut strategy = AttackerStrategy::DutyCycle { active: 2, dormant: 3 };
//! let outcome = run_adaptive(&config, &scenario, &mut strategy);
//! // The duty-cycling attacker is still terminated and makes far less
//! // progress than it would unimpeded.
//! assert!(outcome.terminated_at.is_some());
//! assert!(outcome.progress < outcome.unimpeded);
//! # Ok::<(), valkyrie_core::ValkyrieError>(())
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use valkyrie_core::{
    Action, Classification, EngineConfig, EngineResponse, LawFamily, ProcessId, ThrottleLaw,
    ValkyrieEngine, ValkyrieError,
};

/// What the attacker can observe about its own situation when deciding
/// whether to attack in the next epoch.
///
/// The fields model a *strong* adversary: a real attack cannot read its
/// threat index, but it can estimate `cpu_share` from its own progress rate
/// (self-timing), which is why [`AttackerStrategy::ThreatAdaptive`] keys off
/// the share rather than the index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackerView {
    /// Epoch index about to start (1-based; the schedules treat epoch 0
    /// like epoch 1).
    pub epoch: u64,
    /// CPU share granted in the previous epoch (1.0 = unthrottled).
    pub cpu_share: f64,
    /// Measurements the detector has accumulated so far.
    pub measurements: u64,
}

/// An evasion strategy: when does the attacker do malicious work?
///
/// Dormant epochs make no attack progress and (up to the detector's
/// false-positive rate) are classified benign, letting the compensation
/// mechanism decay the threat index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackerStrategy {
    /// Attack every epoch (the paper's case-study attacks).
    AlwaysActive,
    /// Attack for `active` epochs, sleep for `dormant`, repeat.
    DutyCycle {
        /// Consecutive attacking epochs per period.
        active: u32,
        /// Consecutive dormant epochs per period.
        dormant: u32,
    },
    /// Attack flat-out for the first `active_epochs` epochs, then go dormant
    /// forever (hit-and-run inside one measurement cycle).
    Sprint {
        /// Number of leading attack epochs.
        active_epochs: u64,
    },
    /// Self-timing sawtooth: pause while the observed CPU share is below
    /// `resume_above`, attack once recovery has raised it back.
    ThreatAdaptive {
        /// Attack only when the previous epoch's CPU share is at least this.
        resume_above: f64,
    },
}

impl AttackerStrategy {
    /// Decides whether the attacker works this epoch.
    pub fn is_active(&self, view: &AttackerView) -> bool {
        match *self {
            AttackerStrategy::AlwaysActive => true,
            AttackerStrategy::DutyCycle { active, dormant } => {
                let period = u64::from(active) + u64::from(dormant);
                if period == 0 {
                    return false;
                }
                view.epoch.saturating_sub(1) % period < u64::from(active)
            }
            AttackerStrategy::Sprint { active_epochs } => view.epoch <= active_epochs,
            AttackerStrategy::ThreatAdaptive { resume_above } => view.cpu_share >= resume_above,
        }
    }
}

/// Sanitises an effort, threshold or mass into `[0, 1]`; non-finite → 0.
fn unit(v: f64) -> f64 {
    if v.is_finite() {
        v.clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// A stochastic model of the augmented detector, reduced to the two rates
/// that matter to the response layer.
///
/// # Examples
///
/// ```
/// use valkyrie_experiments::attacker::DetectorModel;
/// let d = DetectorModel::new(0.95, 0.04).unwrap();
/// assert_eq!(d.tpr(), 0.95);
/// assert!(DetectorModel::new(1.5, 0.0).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorModel {
    tpr: f64,
    fpr: f64,
}

impl DetectorModel {
    /// A detector with true-positive rate `tpr` (malicious verdict while the
    /// attacker works) and false-positive rate `fpr` (malicious verdict
    /// while it sleeps).
    ///
    /// # Errors
    ///
    /// Returns [`ValkyrieError::InvalidConfig`] when either rate is
    /// outside `[0, 1]` or not finite.
    pub fn new(tpr: f64, fpr: f64) -> Result<Self, ValkyrieError> {
        for (name, v) in [("tpr", tpr), ("fpr", fpr)] {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(ValkyrieError::InvalidConfig(format!(
                    "{name} must lie in [0, 1], got {v}"
                )));
            }
        }
        Ok(Self { tpr, fpr })
    }

    /// The ideal detector: always right (`tpr = 1`, `fpr = 0`).
    pub fn perfect() -> Self {
        Self { tpr: 1.0, fpr: 0.0 }
    }

    /// True-positive rate.
    pub fn tpr(&self) -> f64 {
        self.tpr
    }

    /// False-positive rate.
    pub fn fpr(&self) -> f64 {
        self.fpr
    }

    /// Probability of a malicious verdict at a graded attack `intensity`.
    ///
    /// Interpolates linearly between the false-positive rate at intensity 0
    /// (a dormant attacker is only flagged by mistake) and the true-positive
    /// rate at intensity 1 (a flat-out attacker faces the detector's full
    /// sensitivity). The extremes return `fpr`/`tpr` *exactly* rather than
    /// through the interpolation arithmetic, so a replay at intensity 0/1
    /// is exactly a binary detector with these two rates (which is how the
    /// fixed [`AttackerStrategy`] schedules replay). A non-finite
    /// intensity is treated as 0: effort is bounded by construction, so NaN
    /// is an upstream bug that must not reach the RNG comparison.
    pub fn detection_probability(&self, intensity: f64) -> f64 {
        let i = unit(intensity);
        if i == 0.0 {
            self.fpr
        } else if i == 1.0 {
            self.tpr
        } else {
            self.fpr + (self.tpr - self.fpr) * i
        }
    }

    /// Samples one epoch's inference for a graded attack intensity
    /// (see [`DetectorModel::detection_probability`]).
    pub fn classify_graded<R: Rng>(&self, intensity: f64, rng: &mut R) -> Classification {
        if rng.gen::<f64>() < self.detection_probability(intensity) {
            Classification::Malicious
        } else {
            Classification::Benign
        }
    }

    /// Samples one epoch's *confidence* for the weighted-evidence path: the
    /// detection probability at this intensity plus uniform jitter of width
    /// `noise`, clamped into `[0, 1]`.
    ///
    /// Exactly one RNG draw is consumed regardless of `noise`, so replays
    /// with different noise settings stay draw-aligned. A non-finite noise
    /// is treated as 0.
    pub fn confidence<R: Rng>(&self, intensity: f64, noise: f64, rng: &mut R) -> f64 {
        let draw = rng.gen::<f64>() - 0.5;
        let jitter = if noise.is_finite() { draw * noise } else { 0.0 };
        (self.detection_probability(intensity) + jitter).clamp(0.0, 1.0)
    }
}

/// The result of replaying an evasion scenario with and without Valkyrie.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvasionOutcome {
    /// Attack progress achieved under Valkyrie (1.0 = one unthrottled
    /// active epoch).
    pub progress: f64,
    /// Progress the same strategy achieves with no response framework.
    pub unimpeded: f64,
    /// Epoch at which the attacker was terminated, if it was.
    pub terminated_at: Option<u64>,
    /// Number of epochs in which the attacker actually worked (pre-
    /// termination, under Valkyrie).
    pub active_epochs: u64,
}

impl EvasionOutcome {
    /// Slowdown relative to the unimpeded run, in percent (Eq. 4 semantics).
    ///
    /// 100 % means the attack made no progress at all; 0 % means Valkyrie
    /// did not slow it down.
    pub fn slowdown_percent(&self) -> f64 {
        if self.unimpeded <= 0.0 {
            0.0
        } else {
            (1.0 - self.progress / self.unimpeded) * 100.0
        }
    }
}

/// A closed-loop attacker: chooses a graded effort in `[0, 1]` from what it
/// can observe each epoch.
///
/// This is the adaptive sibling of [`AttackerStrategy`]: instead of a fixed
/// on/off schedule, implementations read the [`AttackerView`] (their own
/// share trajectory, the epoch, the measurement count) and pick an effort.
/// Progress and detection probability both scale with the effort (see
/// [`run_adaptive`] and [`DetectorModel::detection_probability`]), so the
/// strategy trades progress against exposure every epoch.
pub trait AdaptiveStrategy: std::fmt::Debug {
    /// Effort in `[0, 1]` for the epoch about to run. Out-of-range and
    /// non-finite values are sanitised by the runner.
    fn intensity(&mut self, view: &AttackerView) -> f64;

    /// Clears internal state before a fresh replay ([`run_adaptive`] and
    /// [`run_adaptive_mass`] call this once at the start).
    fn reset(&mut self) {}

    /// Feeds back a law estimate (from a [`LawProbe`]) so the strategy can
    /// retune itself mid-run; ignored by default.
    fn calibrate(&mut self, _estimate: &LawEstimate) {}
}

/// Every fixed [`AttackerStrategy`] is the degenerate adaptive strategy that
/// plays intensity 1 when active and 0 when dormant.
impl AdaptiveStrategy for AttackerStrategy {
    fn intensity(&mut self, view: &AttackerView) -> f64 {
        if self.is_active(view) {
            1.0
        } else {
            0.0
        }
    }
}

/// The same effort every epoch. `ConstantIntensity(1.0)` is bit-for-bit
/// [`AttackerStrategy::AlwaysActive`]; `ConstantIntensity(0.0)` never works.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantIntensity(pub f64);

impl AdaptiveStrategy for ConstantIntensity {
    fn intensity(&mut self, _view: &AttackerView) -> f64 {
        self.0
    }
}

/// A periodic effort schedule: `high` for `active` epochs, `low` for
/// `dormant` epochs, repeating. With `high = 1.0, low = 0.0` this is
/// bit-for-bit [`AttackerStrategy::DutyCycle`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicIntensity {
    /// Consecutive high-effort epochs per period.
    pub active: u32,
    /// Consecutive low-effort epochs per period.
    pub dormant: u32,
    /// Effort during the active phase.
    pub high: f64,
    /// Effort during the dormant phase.
    pub low: f64,
}

impl AdaptiveStrategy for PeriodicIntensity {
    fn intensity(&mut self, view: &AttackerView) -> f64 {
        let period = u64::from(self.active) + u64::from(self.dormant);
        if period == 0 {
            return self.low;
        }
        if view.epoch.saturating_sub(1) % period < u64::from(self.active) {
            self.high
        } else {
            self.low
        }
    }
}

/// A step-down schedule: `high` effort for the first `active_epochs` epochs,
/// `low` forever after. With `high = 1.0, low = 0.0` this is bit-for-bit
/// [`AttackerStrategy::Sprint`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepDown {
    /// Number of leading high-effort epochs.
    pub active_epochs: u64,
    /// Effort during the leading phase.
    pub high: f64,
    /// Effort after the step down.
    pub low: f64,
}

impl AdaptiveStrategy for StepDown {
    fn intensity(&mut self, view: &AttackerView) -> f64 {
        if view.epoch <= self.active_epochs {
            self.high
        } else {
            self.low
        }
    }
}

/// One observed share response to a penalty event, as reconstructed by a
/// [`LawProbe`]: the share `before` and `after` the event and the assumed
/// threat-index `delta` that caused it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShareResponse {
    /// CPU share before the response.
    pub before: f64,
    /// CPU share after the response.
    pub after: f64,
    /// Assumed threat-index change (the k-th observed penalty under the
    /// incremental assessment contributes `delta = k`).
    pub delta: f64,
}

/// A [`LawProbe`]'s estimate of the deployed throttle law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LawEstimate {
    /// Best-fitting law (family + parameter).
    pub law: ThrottleLaw,
    /// Sum of squared share-prediction errors of the winning fit.
    pub residual: f64,
    /// Number of falling share responses the fit used.
    pub responses: usize,
}

/// Fits the best [`ThrottleLaw`] to a set of observed [`ShareResponse`]s.
///
/// For each [`LawFamily`] the parameter is estimated in closed form from the
/// falling responses (e.g. `step = mean((before − after) / delta)` for the
/// percent-point family), then every candidate is scored by its squared
/// share-prediction error and the lowest residual wins. [`LawFamily::Halve`]
/// is ordered before the general per-event family so the specific law wins
/// exact ties. Returns `None` with fewer than two usable falling responses.
///
/// # Examples
///
/// ```
/// use valkyrie_experiments::attacker::{fit_throttle_law, ShareResponse};
/// use valkyrie_core::ThrottleLaw;
/// let law = ThrottleLaw::PercentPointPerUnit { step: 0.10 };
/// let mut share = 1.0;
/// let mut obs = Vec::new();
/// for k in 1..=3u32 {
///     let next = law.step_share(share, f64::from(k));
///     obs.push(ShareResponse { before: share, after: next, delta: f64::from(k) });
///     share = next;
/// }
/// let est = fit_throttle_law(&obs).unwrap();
/// assert_eq!(est.law.family(), law.family());
/// assert!((est.law.parameter() - 0.10).abs() < 1e-9);
/// ```
pub fn fit_throttle_law(responses: &[ShareResponse]) -> Option<LawEstimate> {
    let falling: Vec<ShareResponse> = responses
        .iter()
        .copied()
        .filter(|r| {
            r.delta > 0.0
                && r.before.is_finite()
                && r.after.is_finite()
                && r.after < r.before
                && r.before > 0.0
                && r.after >= 0.0
        })
        .collect();
    if falling.len() < 2 {
        return None;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let mean_of = |f: fn(&ShareResponse) -> f64| mean(&falling.iter().map(f).collect::<Vec<_>>());
    // Geometric mean of the share ratios that kept a positive share, per
    // unit of delta or per event.
    let ratio_mean = |per_unit: bool| {
        let logs: Vec<f64> = falling
            .iter()
            .filter(|r| r.after > 0.0)
            .map(|r| {
                let ln = (r.after / r.before).ln();
                if per_unit {
                    ln / r.delta
                } else {
                    ln
                }
            })
            .collect();
        (!logs.is_empty()).then(|| mean(&logs).exp())
    };
    let mut best: Option<LawEstimate> = None;
    for family in LawFamily::ALL {
        let param = match family {
            LawFamily::PercentPoint => Some(mean_of(|r| (r.before - r.after) / r.delta)),
            LawFamily::SchedulerWeight => {
                Some(mean_of(|r| (r.before - r.after) / (r.before * r.delta)))
            }
            LawFamily::MultiplicativePerUnit => ratio_mean(true),
            LawFamily::Halve => Some(0.5),
            LawFamily::MultiplicativePerEvent => ratio_mean(false),
        };
        let Some(param) = param.filter(|p| p.is_finite()) else {
            continue;
        };
        let law = ThrottleLaw::with_parameter(family, param);
        let residual: f64 = falling
            .iter()
            .map(|r| {
                let predicted = law.step_share(r.before, r.delta);
                (predicted - r.after).powi(2)
            })
            .sum();
        if !residual.is_finite() {
            continue;
        }
        if best.is_none_or(|b| residual < b.residual) {
            best = Some(LawEstimate {
                law,
                residual,
                responses: falling.len(),
            });
        }
    }
    best
}

/// Probes the deployed [`ThrottleLaw`] with a calibrated full-effort burst,
/// then hands control to an inner exploit strategy.
///
/// During the first `burst` epochs the probe attacks flat-out and watches
/// its own share trajectory. Every observed share *drop* is attributed to a
/// penalty event whose threat delta follows the incremental assessment
/// ladder (the k-th drop carries `delta = k` — the probe mirrors the
/// monitor's penalty counter, which never resets pre-`N*`). Once enough
/// falling responses accumulate, [`fit_throttle_law`] identifies the family
/// and parameter, the estimate is fed to the exploit strategy via
/// [`AdaptiveStrategy::calibrate`], and the exploit takes over.
#[derive(Debug, Clone)]
pub struct LawProbe<S> {
    burst: u64,
    exploit: S,
    prev_share: f64,
    penalties_seen: f64,
    responses: Vec<ShareResponse>,
    estimate: Option<LawEstimate>,
}

impl<S: AdaptiveStrategy> LawProbe<S> {
    /// A probe bursting at full effort for `burst` epochs (at least one)
    /// before delegating to `exploit`.
    pub fn new(burst: u64, exploit: S) -> Self {
        Self {
            burst: burst.max(1),
            exploit,
            prev_share: 1.0,
            penalties_seen: 0.0,
            responses: Vec::new(),
            estimate: None,
        }
    }

    /// The law estimate, once the burst produced enough responses.
    pub fn estimate(&self) -> Option<&LawEstimate> {
        self.estimate.as_ref()
    }
}

impl<S: AdaptiveStrategy> AdaptiveStrategy for LawProbe<S> {
    fn intensity(&mut self, view: &AttackerView) -> f64 {
        // Attribute the share movement since last epoch. Drops are penalty
        // events on the incremental delta ladder; rises (recovery/restore)
        // carry no information the fit uses.
        if self.estimate.is_none() && view.epoch > 1 && view.cpu_share < self.prev_share {
            self.penalties_seen += 1.0;
            self.responses.push(ShareResponse {
                before: self.prev_share,
                after: view.cpu_share,
                delta: self.penalties_seen,
            });
        }
        self.prev_share = view.cpu_share;

        if view.epoch <= self.burst {
            return 1.0;
        }
        if self.estimate.is_none() {
            if let Some(est) = fit_throttle_law(&self.responses) {
                self.exploit.calibrate(&est);
                self.estimate = Some(est);
            }
        }
        self.exploit.intensity(view)
    }

    fn reset(&mut self) {
        self.prev_share = 1.0;
        self.penalties_seen = 0.0;
        self.responses.clear();
        self.estimate = None;
        self.exploit.reset();
    }
}

/// Best-responds to a throttle law by holding effort just below the
/// escalation/termination boundary.
///
/// Pre-`N*` it runs a share-hysteresis sawtooth at a tunable effort: attack
/// at `attack_intensity` until the share falls below `pause_below`, pause
/// until it recovers above `resume_above`. Once the measurement counter
/// reaches `quiet_after` — the attacker's estimate of the terminable
/// boundary — it drops to `terminal_intensity`, where every active epoch is
/// a near-`fpr` Bernoulli kill trial instead of a near-`tpr` one.
///
/// [`AdaptiveStrategy::calibrate`] retunes the hysteresis band to the
/// estimated law by simulating the attack/pause cycle under a worst-case
/// mirror of the penalty/compensation dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntensityModulator {
    /// Effort while attacking.
    pub attack_intensity: f64,
    /// Pause when the observed share falls below this.
    pub pause_below: f64,
    /// Resume when the observed share recovers to at least this.
    pub resume_above: f64,
    /// Measurement count at which to go quiet (the attacker's `N*` guess).
    pub quiet_after: u64,
    /// Effort after going quiet.
    pub terminal_intensity: f64,
    attacking: bool,
}

impl IntensityModulator {
    /// A modulator with a sanitised parameter set (`pause_below` never
    /// exceeds `resume_above`; efforts and thresholds clamp into `[0, 1]`).
    pub fn new(
        attack_intensity: f64,
        pause_below: f64,
        resume_above: f64,
        quiet_after: u64,
        terminal_intensity: f64,
    ) -> Self {
        let pause_below = unit(pause_below);
        Self {
            attack_intensity: unit(attack_intensity),
            pause_below,
            resume_above: unit(resume_above).max(pause_below),
            quiet_after,
            terminal_intensity: unit(terminal_intensity),
            attacking: true,
        }
    }
}

/// Steady progress rate of an attack/pause hysteresis cycle under `law`,
/// assuming every attacking epoch draws a penalty and every paused epoch a
/// compensation (the attacker's worst case), with incremental assessments
/// mirroring the monitor's never-resetting counters.
fn hysteresis_rate(law: ThrottleLaw, intensity: f64, pause_below: f64, resume_above: f64) -> f64 {
    let epochs = 96u32;
    let mut share = 1.0f64;
    let mut penalty = 0.0f64;
    let mut compensation = 0.0f64;
    let mut attacking = true;
    let mut progress = 0.0f64;
    for _ in 0..epochs {
        if attacking {
            if share < pause_below {
                attacking = false;
            }
        } else if share >= resume_above {
            attacking = true;
        }
        if attacking {
            progress += intensity * share;
            penalty += 1.0;
            share = law.step_share(share, penalty);
        } else {
            compensation += 1.0;
            share = law.step_share(share, -compensation);
        }
    }
    progress / f64::from(epochs)
}

impl AdaptiveStrategy for IntensityModulator {
    fn intensity(&mut self, view: &AttackerView) -> f64 {
        if view.measurements >= self.quiet_after {
            return self.terminal_intensity;
        }
        if self.attacking {
            if view.cpu_share < self.pause_below {
                self.attacking = false;
            }
        } else if view.cpu_share >= self.resume_above {
            self.attacking = true;
        }
        if self.attacking {
            self.attack_intensity
        } else {
            0.0
        }
    }

    fn reset(&mut self) {
        self.attacking = true;
    }

    fn calibrate(&mut self, estimate: &LawEstimate) {
        let mut best = (self.pause_below, self.resume_above);
        let mut best_rate = hysteresis_rate(
            estimate.law,
            self.attack_intensity,
            self.pause_below,
            self.resume_above,
        );
        for pause in [0.1, 0.2, 0.35, 0.5, 0.65] {
            for resume in [0.5, 0.65, 0.8, 0.9, 0.99] {
                if resume < pause {
                    continue;
                }
                let rate = hysteresis_rate(estimate.law, self.attack_intensity, pause, resume);
                if rate > best_rate {
                    best_rate = rate;
                    best = (pause, resume);
                }
            }
        }
        self.pause_below = best.0;
        self.resume_above = best.1;
    }
}

/// Best-responds to a [`valkyrie_core::EscalationLadder`] by holding the
/// *expected fused mass* just below a rung boundary (obtained from
/// [`valkyrie_core::EscalationLadder::ride_below`]).
///
/// The effort is the inverse of [`DetectorModel::detection_probability`]:
/// the intensity whose expected confidence equals the target mass. Below
/// the throttle rung the attacker is never throttled; below the kill rung
/// it is never terminated — the graduated ladder's observe band is free
/// progress for an attacker that knows where the rungs sit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MassRider {
    /// The attacker's model of the detector (used to invert the response).
    pub detector: DetectorModel,
    /// Expected-mass target before going quiet.
    pub target_mass: f64,
    /// Measurement count at which to switch to the terminal target.
    pub quiet_after: u64,
    /// Expected-mass target after going quiet.
    pub terminal_mass: f64,
}

impl MassRider {
    /// A rider with clamped mass targets.
    pub fn new(
        detector: DetectorModel,
        target_mass: f64,
        quiet_after: u64,
        terminal_mass: f64,
    ) -> Self {
        Self {
            detector,
            target_mass: unit(target_mass),
            quiet_after,
            terminal_mass: unit(terminal_mass),
        }
    }

    /// The effort whose expected confidence equals `target`.
    fn effort_for(&self, target: f64) -> f64 {
        let span = self.detector.tpr() - self.detector.fpr();
        if span <= 0.0 {
            // A flat (or inverted) detector gives the attacker no dial to
            // turn; full effort is then the dominant choice.
            return 1.0;
        }
        ((target - self.detector.fpr()) / span).clamp(0.0, 1.0)
    }
}

impl AdaptiveStrategy for MassRider {
    fn intensity(&mut self, view: &AttackerView) -> f64 {
        let target = if view.measurements >= self.quiet_after {
            self.terminal_mass
        } else {
            self.target_mass
        };
        self.effort_for(target)
    }
}

/// One graded replay: a detector model, a horizon and a seed (plus a
/// confidence-jitter width for the weighted-evidence path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveScenario {
    detector: DetectorModel,
    horizon: u64,
    seed: u64,
    noise: f64,
}

impl AdaptiveScenario {
    /// A scenario observed for `horizon` epochs with the default seed and no
    /// confidence jitter.
    pub fn new(detector: DetectorModel, horizon: u64) -> Self {
        Self {
            detector,
            horizon,
            seed: 0x56414C4B, // "VALK"
            noise: 0.0,
        }
    }

    /// Replaces the RNG seed (the replay is deterministic per seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the confidence-jitter width used by [`run_adaptive_mass`].
    #[must_use]
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.noise = noise;
        self
    }
}

/// Replays an adaptive attacker against the binary-verdict path and returns
/// its progress with and without Valkyrie.
///
/// Each epoch the strategy picks an effort, the detector samples a verdict
/// at the interpolated detection probability, and the engine updates the
/// threat index and resource shares. An active epoch contributes
/// `intensity × share` to progress (attack work rate is CPU-bound, as in
/// every case study of Section VI) and `intensity` to the unimpeded
/// counterfactual, which runs the same effort sequence at full share with
/// no termination. Termination stops the attack for good.
///
/// A fixed [`AttackerStrategy`] plays effort 1 when active and 0 when
/// dormant. At effort exactly 0/1 every arithmetic step degenerates to a
/// binary detector, so a degenerate graded strategy replays bit-for-bit like
/// its fixed counterpart (property-pinned in `tests/properties.rs`).
pub fn run_adaptive<S: AdaptiveStrategy + ?Sized>(
    config: &EngineConfig,
    scenario: &AdaptiveScenario,
    strategy: &mut S,
) -> EvasionOutcome {
    replay(config, scenario, strategy, |engine, pid, intensity, rng| {
        let inference = scenario.detector.classify_graded(intensity, rng);
        engine.observe(pid, inference)
    })
}

/// Replays an adaptive attacker against the weighted-evidence path.
///
/// Like [`run_adaptive`], but the detector emits a graded *confidence*
/// (detection probability at the chosen effort plus uniform jitter of the
/// scenario's noise width) and the engine advances through
/// [`ValkyrieEngine::observe_mass`] under its configured
/// [`valkyrie_core::EscalationLadder`]. This is the path a [`MassRider`]
/// games: holding the expected confidence below the throttle rung keeps the
/// ladder in its observe band, where no penalty is ever assessed.
pub fn run_adaptive_mass<S: AdaptiveStrategy + ?Sized>(
    config: &EngineConfig,
    scenario: &AdaptiveScenario,
    strategy: &mut S,
) -> EvasionOutcome {
    replay(config, scenario, strategy, |engine, pid, intensity, rng| {
        let mass = scenario.detector.confidence(intensity, scenario.noise, rng);
        engine.observe_mass(pid, mass)
    })
}

/// The adaptive replay loop shared by [`run_adaptive`] and
/// [`run_adaptive_mass`]: `step` samples the detector at the epoch's
/// effort and advances the engine by one measurement.
fn replay<S: AdaptiveStrategy + ?Sized>(
    config: &EngineConfig,
    scenario: &AdaptiveScenario,
    strategy: &mut S,
    mut step: impl FnMut(&mut ValkyrieEngine, ProcessId, f64, &mut StdRng) -> EngineResponse,
) -> EvasionOutcome {
    let mut engine = ValkyrieEngine::new(config.clone());
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let pid = ProcessId(1);
    strategy.reset();

    let mut progress = 0.0;
    let mut unimpeded = 0.0;
    let mut active_epochs = 0;
    let mut terminated_at = None;
    let mut cpu_share = 1.0;
    let mut measurements = 0;

    for epoch in 1..=scenario.horizon {
        let view = AttackerView {
            epoch,
            cpu_share,
            measurements,
        };
        let intensity = unit(strategy.intensity(&view));
        if intensity > 0.0 {
            unimpeded += intensity;
        }
        if terminated_at.is_some() {
            continue;
        }

        let response = step(&mut engine, pid, intensity, &mut rng);
        measurements += 1;
        if response.action == Action::Terminate {
            terminated_at = Some(epoch);
            continue;
        }
        cpu_share = response.resources.cpu;
        if intensity > 0.0 {
            progress += intensity * cpu_share;
            active_epochs += 1;
        }
    }

    EvasionOutcome {
        progress,
        unimpeded,
        terminated_at,
        active_epochs,
    }
}

/// Expected progress (in unthrottled-epoch units) an always-active attacker
/// gains *after* reaching the terminable state, for a detector with
/// true-positive rate `tpr`.
///
/// In the terminable state every active epoch is an independent chance of
/// termination; the termination epoch itself yields no progress, so the
/// expectation is the mean of a geometric distribution minus the killing
/// trial: `(1 − tpr) / tpr`. A detector that is always right leaves zero
/// post-efficacy progress; a coin-flip detector leaves one epoch on average.
///
/// # Examples
///
/// ```
/// use valkyrie_experiments::attacker::expected_terminable_progress;
/// assert_eq!(expected_terminable_progress(1.0), 0.0);
/// assert_eq!(expected_terminable_progress(0.5), 1.0);
/// assert!(expected_terminable_progress(0.0).is_infinite());
/// ```
pub fn expected_terminable_progress(tpr: f64) -> f64 {
    let tpr = tpr.clamp(0.0, 1.0);
    if tpr == 0.0 {
        f64::INFINITY
    } else {
        (1.0 - tpr) / tpr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valkyrie_core::{
        AssessmentFn, EscalationLadder, EscalationLevel, FusionConfig, ResourceKind, ShareActuator,
    };

    fn config(n_star: u64) -> EngineConfig {
        EngineConfig::builder()
            .measurements_required(n_star)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap()
    }

    #[test]
    fn always_active_attacker_is_terminated_right_after_n_star() {
        let scenario = AdaptiveScenario::new(DetectorModel::perfect(), 40);
        let out = run_adaptive(&config(15), &scenario, &mut AttackerStrategy::AlwaysActive);
        assert_eq!(out.terminated_at, Some(16));
        assert!(out.progress < out.unimpeded);
        assert!(out.slowdown_percent() > 70.0, "{}", out.slowdown_percent());
    }

    #[test]
    fn dormant_attacker_makes_no_progress_and_survives() {
        let scenario = AdaptiveScenario::new(DetectorModel::perfect(), 50);
        let mut sprint = AttackerStrategy::Sprint { active_epochs: 0 };
        let out = run_adaptive(&config(10), &scenario, &mut sprint);
        assert_eq!(out.progress, 0.0);
        assert_eq!(out.unimpeded, 0.0);
        assert_eq!(out.terminated_at, None);
        assert_eq!(out.slowdown_percent(), 0.0);
    }

    #[test]
    fn duty_cycle_is_terminated_at_first_active_terminable_epoch() {
        // 1 active, 4 dormant; N* = 10. Epochs 1, 6, 11, ... are active.
        // The terminable state is reached at measurement 10; the next
        // *active* epoch (11) draws a malicious verdict and dies.
        let scenario = AdaptiveScenario::new(DetectorModel::perfect(), 60);
        let mut duty = AttackerStrategy::DutyCycle {
            active: 1,
            dormant: 4,
        };
        let out = run_adaptive(&config(10), &scenario, &mut duty);
        assert_eq!(out.terminated_at, Some(11));
        // Two active epochs survived (1 and 6), both heavily compensated in
        // between, so progress stays below 2 full epochs.
        assert_eq!(out.active_epochs, 2);
        assert!(out.progress <= 2.0);
    }

    #[test]
    fn sprint_inside_one_cycle_is_throttled_not_free() {
        // Attack hard for 5 epochs, then hide. The sprint is throttled from
        // epoch 2 on, and the attacker still faces the terminable verdict.
        let scenario = AdaptiveScenario::new(DetectorModel::perfect(), 30);
        let mut sprint = AttackerStrategy::Sprint { active_epochs: 5 };
        let out = run_adaptive(&config(15), &scenario, &mut sprint);
        assert_eq!(out.unimpeded, 5.0);
        assert!(
            out.progress < 5.0 * 0.8,
            "sprint was barely throttled: {}",
            out.progress
        );
        // All-dormant afterwards: classified benign, never terminated.
        assert_eq!(out.terminated_at, None);
    }

    #[test]
    fn threat_adaptive_sawtooth_is_bounded_by_duty_cycle() {
        let cfg = config(20);
        let scenario = AdaptiveScenario::new(DetectorModel::perfect(), 100);
        let mut sawtooth = AttackerStrategy::ThreatAdaptive { resume_above: 0.95 };
        let sawtooth = run_adaptive(&cfg, &scenario, &mut sawtooth);
        let always = run_adaptive(&cfg, &scenario, &mut AttackerStrategy::AlwaysActive);
        // Dormant epochs still count toward N*, so the sawtooth cannot
        // postpone the terminable verdict …
        assert_eq!(sawtooth.terminated_at, always.terminated_at);
        // … and it pays for the evasion with a halved duty cycle.
        assert!(sawtooth.active_epochs < 15);
        assert!(sawtooth.progress < 0.35 * 100.0);
    }

    #[test]
    fn imperfect_detector_leaves_geometric_tail() {
        // With tpr < 1 the attacker survives some terminable epochs; the
        // empirical mean should approach (1-p)/p across seeds.
        let cfg = config(5);
        let tpr = 0.5;
        let mut total = 0.0;
        let trials = 400;
        for seed in 0..trials {
            let scenario =
                AdaptiveScenario::new(DetectorModel::new(tpr, 0.0).unwrap(), 400).with_seed(seed);
            let out = run_adaptive(&cfg, &scenario, &mut AttackerStrategy::AlwaysActive);
            // Progress after the restore at N* is at full share; subtract
            // the (throttled) pre-N* part by measuring terminable survival.
            let t = out.terminated_at.expect("tpr>0 should terminate");
            total += (t - 1 - 5) as f64; // epochs survived past N*
        }
        let mean = total / trials as f64;
        let expect = expected_terminable_progress(tpr);
        assert!(
            (mean - expect).abs() < 0.25,
            "mean {mean} vs analytic {expect}"
        );
    }

    #[test]
    fn steeper_penalty_reduces_duty_cycle_progress() {
        // Hardening: exponential penalty throttles the sawtooth harder than
        // the incremental one for the same compensation.
        let inc = EngineConfig::builder()
            .measurements_required(30)
            .penalty(AssessmentFn::incremental())
            .compensation(AssessmentFn::incremental())
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap();
        let exp = EngineConfig::builder()
            .measurements_required(30)
            .penalty(AssessmentFn::exponential(2.0))
            .compensation(AssessmentFn::incremental())
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap();
        let scenario = AdaptiveScenario::new(DetectorModel::perfect(), 30);
        let mut duty = AttackerStrategy::DutyCycle {
            active: 3,
            dormant: 3,
        };
        let p_inc = run_adaptive(&inc, &scenario, &mut duty).progress;
        let p_exp = run_adaptive(&exp, &scenario, &mut duty).progress;
        assert!(p_exp < p_inc, "exp {p_exp} !< inc {p_inc}");
    }

    #[test]
    fn zero_period_duty_cycle_is_never_active() {
        let s = AttackerStrategy::DutyCycle {
            active: 0,
            dormant: 0,
        };
        let view = AttackerView {
            epoch: 1,
            cpu_share: 1.0,
            measurements: 0,
        };
        assert!(!s.is_active(&view));
    }

    // ---- adaptive tier ----

    #[test]
    fn detection_probability_interpolates_with_exact_extremes() {
        let d = DetectorModel::new(0.9, 0.04).unwrap();
        assert_eq!(d.detection_probability(1.0), 0.9);
        assert_eq!(d.detection_probability(0.0), 0.04);
        let mid = d.detection_probability(0.5);
        assert!(mid > 0.04 && mid < 0.9);
        // Sanitisation: out-of-range clamps, non-finite is dormant.
        assert_eq!(d.detection_probability(7.0), 0.9);
        assert_eq!(d.detection_probability(-1.0), 0.04);
        assert_eq!(d.detection_probability(f64::NAN), 0.04);
    }

    #[test]
    fn law_probe_identifies_every_family_from_a_calibrated_burst() {
        for law in [
            ThrottleLaw::PercentPointPerUnit { step: 0.10 },
            ThrottleLaw::MultiplicativePerUnit { factor: 0.9 },
            ThrottleLaw::MultiplicativePerEvent { factor: 0.7 },
            ThrottleLaw::HalvePerEvent,
            ThrottleLaw::SchedulerWeight { gamma: 0.1 },
        ] {
            let cfg = EngineConfig::builder()
                .measurements_required(30)
                .actuator(ShareActuator::new(ResourceKind::Cpu, law, 0.01))
                .build()
                .unwrap();
            let mut probe = LawProbe::new(3, ConstantIntensity(0.0));
            let scenario = AdaptiveScenario::new(DetectorModel::perfect(), 8);
            let _ = run_adaptive(&cfg, &scenario, &mut probe);
            let est = probe.estimate().unwrap_or_else(|| {
                panic!("probe found no estimate for {law:?}");
            });
            assert_eq!(est.law.family(), law.family(), "misidentified {law:?}");
            assert!(
                (est.law.parameter() - law.parameter()).abs() < 0.02,
                "{law:?} parameter off: {}",
                est.law.parameter()
            );
        }
    }

    #[test]
    fn modulator_quiet_phase_dodges_the_terminable_verdict() {
        // Sprint-like modulation that goes fully quiet at its (correct) N*
        // guess: with fpr = 0 the quiet attacker is never flagged, so it
        // survives the whole horizon while still progressing pre-N*.
        let cfg = config(15);
        let mut strat = IntensityModulator::new(1.0, 0.2, 0.8, 15, 0.0);
        let out = run_adaptive(
            &cfg,
            &AdaptiveScenario::new(DetectorModel::new(0.9, 0.0).unwrap(), 80),
            &mut strat,
        );
        assert_eq!(out.terminated_at, None);
        assert!(out.progress > 0.0);
    }

    #[test]
    fn modulator_calibration_keeps_a_valid_hysteresis_band() {
        for law in [
            ThrottleLaw::PercentPointPerUnit { step: 0.25 },
            ThrottleLaw::HalvePerEvent,
            ThrottleLaw::SchedulerWeight { gamma: 0.3 },
        ] {
            let mut m = IntensityModulator::new(1.0, 0.3, 0.8, 30, 0.0);
            m.calibrate(&LawEstimate {
                law,
                residual: 0.0,
                responses: 3,
            });
            assert!(m.pause_below <= m.resume_above);
            assert!((0.0..=1.0).contains(&m.pause_below));
            assert!((0.0..=1.0).contains(&m.resume_above));
        }
    }

    #[test]
    fn mass_rider_below_the_throttle_rung_is_never_throttled_or_killed() {
        let ladder = EscalationLadder::graduated();
        let cfg = EngineConfig::builder()
            .measurements_required(15)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .fusion(FusionConfig {
                ladder,
                ..FusionConfig::default()
            })
            .build()
            .unwrap();
        let detector = DetectorModel::new(0.9, 0.04).unwrap();
        let mut rider = MassRider::new(
            detector,
            ladder.ride_below(EscalationLevel::Throttle, 0.02),
            u64::MAX,
            0.0,
        );
        let out = run_adaptive_mass(&cfg, &AdaptiveScenario::new(detector, 100), &mut rider);
        // Expected confidence 0.58 with zero jitter: the ladder sits in its
        // observe band forever — full share, no kill, progress every epoch.
        assert_eq!(out.terminated_at, None);
        assert_eq!(out.active_epochs, 100);
        assert!(
            (out.progress - out.unimpeded).abs() < 1e-9,
            "rider was throttled: {} vs {}",
            out.progress,
            out.unimpeded
        );
        assert!(out.progress > 0.5 * 100.0 * rider.effort_for(rider.target_mass) - 1.0);
    }

    #[test]
    fn mass_rider_effort_inverts_the_detector_response() {
        let d = DetectorModel::new(0.9, 0.04).unwrap();
        let rider = MassRider::new(d, 0.5, u64::MAX, 0.0);
        assert_eq!(rider.effort_for(0.9), 1.0);
        assert_eq!(rider.effort_for(0.04), 0.0);
        let e = rider.effort_for(0.47);
        assert!((d.detection_probability(e) - 0.47).abs() < 1e-12);
        // A flat detector leaves no dial: full effort dominates.
        let flat = MassRider::new(DetectorModel::new(0.3, 0.3).unwrap(), 0.5, u64::MAX, 0.0);
        assert_eq!(flat.effort_for(0.5), 1.0);
    }

    #[test]
    fn fit_rejects_degenerate_observation_sets() {
        assert!(fit_throttle_law(&[]).is_none());
        let one = ShareResponse {
            before: 1.0,
            after: 0.9,
            delta: 1.0,
        };
        assert!(fit_throttle_law(&[one]).is_none());
        // Rising, NaN-tainted and zero-share observations are filtered out.
        let junk = [
            ShareResponse {
                before: 0.5,
                after: 0.9,
                delta: 1.0,
            },
            ShareResponse {
                before: f64::NAN,
                after: 0.5,
                delta: 2.0,
            },
            ShareResponse {
                before: 0.0,
                after: -0.1,
                delta: 3.0,
            },
        ];
        assert!(fit_throttle_law(&junk).is_none());
    }

    // ---- edge cases: detector extremes, zero floors, boundary thresholds,
    //      short horizons ----

    #[test]
    fn blind_detector_tpr_zero_never_terminates_and_stays_finite() {
        let cfg = config(10);
        let out = run_adaptive(
            &cfg,
            &AdaptiveScenario::new(DetectorModel::new(0.0, 0.0).unwrap(), 50),
            &mut AttackerStrategy::AlwaysActive,
        );
        assert_eq!(out.terminated_at, None);
        assert_eq!(out.progress, 50.0);
        assert!(out.slowdown_percent().is_finite());
        assert_eq!(out.slowdown_percent(), 0.0);
    }

    #[test]
    fn paranoid_detector_fpr_one_kills_even_a_fully_dormant_attacker() {
        // fpr = 1: every dormant epoch is (wrongly) flagged malicious, so
        // the dormant process is terminated right after N* with zero
        // attacker progress — the wrongful-termination worst case.
        let cfg = config(10);
        let out = run_adaptive(
            &cfg,
            &AdaptiveScenario::new(DetectorModel::new(1.0, 1.0).unwrap(), 50),
            &mut AttackerStrategy::Sprint { active_epochs: 0 },
        );
        assert_eq!(out.terminated_at, Some(11));
        assert_eq!(out.progress, 0.0);
        assert_eq!(out.unimpeded, 0.0);
        assert!(out.slowdown_percent().is_finite());
    }

    #[test]
    fn inverted_detector_rewards_full_effort() {
        // tpr = 0, fpr = 1: attacking is the *safe* action. The graded path
        // must stay finite and unterminated at constant full effort.
        let cfg = config(10);
        let out = run_adaptive(
            &cfg,
            &AdaptiveScenario::new(DetectorModel::new(0.0, 1.0).unwrap(), 40),
            &mut ConstantIntensity(1.0),
        );
        assert_eq!(out.terminated_at, None);
        assert_eq!(out.progress, 40.0);
    }

    #[test]
    fn zero_floor_percent_point_recovers_from_an_exact_zero_share() {
        let cfg = EngineConfig::builder()
            .measurements_required(60)
            .actuator(ShareActuator::cpu_percent_point(0.25, 0.0))
            .build()
            .unwrap();
        let out = run_adaptive(
            &cfg,
            &AdaptiveScenario::new(DetectorModel::perfect(), 50),
            &mut AttackerStrategy::ThreatAdaptive { resume_above: 0.95 },
        );
        assert!(out.progress.is_finite());
        assert!(out.progress >= 0.0);
        assert!(out.progress <= out.unimpeded + 1e-9);
    }

    #[test]
    fn zero_floor_scheduler_weight_can_hit_exact_zero_without_poisoning() {
        // With a zero floor the multiplicative Eq. 8 law reaches share 0.0
        // exactly once γ·ΔT ≥ 1 (the clamp), after which multiplicative
        // recovery cannot lift it — the attacker is starved, not NaN'd.
        let cfg = EngineConfig::builder()
            .measurements_required(40)
            .actuator(ShareActuator::scheduler_weight(0.1, 0.0))
            .build()
            .unwrap();
        let out = run_adaptive(
            &cfg,
            &AdaptiveScenario::new(DetectorModel::perfect(), 35),
            &mut AttackerStrategy::AlwaysActive,
        );
        assert!(out.progress.is_finite());
        assert!(out.progress > 0.0);
        assert_eq!(out.terminated_at, None); // horizon < N*
        assert!(out.slowdown_percent().is_finite());
    }

    #[test]
    fn threat_adaptive_resume_at_zero_is_exactly_always_active() {
        let cfg = config(20);
        let detector = DetectorModel::new(0.9, 0.04).unwrap();
        for seed in [0u64, 7, 99] {
            let scenario = AdaptiveScenario::new(detector, 80).with_seed(seed);
            let mut zero = AttackerStrategy::ThreatAdaptive { resume_above: 0.0 };
            let zero = run_adaptive(&cfg, &scenario, &mut zero);
            let always = run_adaptive(&cfg, &scenario, &mut AttackerStrategy::AlwaysActive);
            assert_eq!(zero, always);
        }
    }

    #[test]
    fn threat_adaptive_resume_at_one_only_works_at_full_share() {
        let cfg = config(20);
        let out = run_adaptive(
            &cfg,
            &AdaptiveScenario::new(DetectorModel::perfect(), 80),
            &mut AttackerStrategy::ThreatAdaptive { resume_above: 1.0 },
        );
        // Every active epoch happened at share 1.0 (before the response
        // lands), so progress counts full-share epochs…
        assert!(out.progress.is_finite());
        assert!(out.progress <= out.unimpeded + 1e-9);
        // … and the sawtooth still cannot postpone the terminable state.
        assert!(out.active_epochs < 80);
    }

    #[test]
    fn horizon_shorter_than_n_star_never_terminates() {
        let cfg = config(30);
        let scenario = AdaptiveScenario::new(DetectorModel::perfect(), 10);
        let fixed = run_adaptive(&cfg, &scenario, &mut AttackerStrategy::AlwaysActive);
        assert_eq!(fixed.terminated_at, None);
        assert!(fixed.progress > 0.0);
        let mut strat = IntensityModulator::new(1.0, 0.2, 0.8, 30, 0.0);
        let graded = run_adaptive(&cfg, &scenario, &mut strat);
        assert_eq!(graded.terminated_at, None);
        assert!(graded.progress.is_finite());
    }

    #[test]
    fn nan_intensity_from_a_strategy_is_sanitised_to_dormant() {
        #[derive(Debug)]
        struct Broken;
        impl AdaptiveStrategy for Broken {
            fn intensity(&mut self, _view: &AttackerView) -> f64 {
                f64::NAN
            }
        }
        let cfg = config(10);
        let out = run_adaptive(
            &cfg,
            &AdaptiveScenario::new(DetectorModel::perfect(), 30),
            &mut Broken,
        );
        assert_eq!(out.progress, 0.0);
        assert_eq!(out.unimpeded, 0.0);
        assert_eq!(out.active_epochs, 0);
        assert_eq!(out.terminated_at, None);
    }
}
