//! Per-process threat monitor — a faithful implementation of Algorithm 1.
//!
//! A [`Monitor`] consumes the detector's per-epoch inference stream for one
//! process and maintains the penalty (`P_i^t`), compensation (`C_i^t`) and
//! threat index (`T_i^t`) metrics, the measurement count (`N_i^t`) and the
//! Fig. 3 process state. Each step yields a [`Directive`] telling the caller
//! what response to enact (adjust resources, restore, or terminate).

use crate::state::ProcessState;
use crate::threat::{AssessmentFn, Classification, ThreatIndex};

/// Response directive emitted by one monitor step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Directive {
    /// No action required (normal state, nothing changed).
    Continue,
    /// Regulate resources by the embedded threat-index change
    /// (`R_i = A(R_{i-1}, ΔT)`, Algorithm 1 line 20). Negative `ΔT` means
    /// resources should be (partially) restored.
    Adjust {
        /// Change in threat index this epoch (`ΔT_{i,1}^t`).
        delta_threat: f64,
    },
    /// The process returned to the normal state: remove all restrictions.
    ResetToNormal,
    /// Terminable state + benign classification: `A_reset`, restore defaults.
    Restore,
    /// Terminable state + malicious classification: terminate the process.
    Terminate,
}

/// Rung of the graduated escalation ladder: how hard the response layer
/// leans on a process this epoch.
///
/// The binary path maps onto the ladder's extremes (a malicious epoch is a
/// `Throttle`/`Kill`, a benign one a `Compensate`); the weighted-evidence
/// path ([`Monitor::observe_mass`]) can also park a process at `Observe`
/// when the fused evidence is inconclusive. Ordering follows response
/// intensity, so `a > b` means `a` is the harder response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EscalationLevel {
    /// Evidence inconclusive: hold every metric, take no action.
    Observe,
    /// Evidence low: run the compensation arm (recover resources).
    Compensate,
    /// Evidence high: run the penalty arm (throttle resources).
    Throttle,
    /// Evidence overwhelming: terminate once `N*` is met.
    Kill,
}

impl EscalationLevel {
    /// The level the legacy binary path implies for a directive (used to
    /// stamp [`StepReport::level`] on [`Monitor::observe`] steps).
    fn from_directive(directive: Directive) -> Self {
        match directive {
            Directive::Terminate => EscalationLevel::Kill,
            Directive::Adjust { delta_threat } if delta_threat > 0.0 => EscalationLevel::Throttle,
            Directive::Adjust { delta_threat } if delta_threat < 0.0 => EscalationLevel::Compensate,
            Directive::Adjust { .. } | Directive::Continue => EscalationLevel::Observe,
            Directive::ResetToNormal | Directive::Restore => EscalationLevel::Compensate,
        }
    }
}

/// Maps fused evidence mass to an [`EscalationLevel`] — the graduated
/// observe → compensate → throttle → kill ladder of the fusion tier.
///
/// Thresholds partition `[0, 1]`: mass strictly above `kill_above` kills,
/// strictly above `throttle_above` throttles, strictly below
/// `compensate_below` compensates, and anything in between is observed.
/// Invariant: `compensate_below <= throttle_above <= kill_above`.
///
/// [`EscalationLadder::BINARY`] sets every threshold to 0.5, collapsing the
/// ladder to the paper's binary behaviour: mass 1.0 is a malicious epoch,
/// mass 0.0 a benign one, and the observe band is empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EscalationLadder {
    /// Mass strictly above this terminates (once `N*` is met).
    pub kill_above: f64,
    /// Mass strictly above this runs the penalty arm.
    pub throttle_above: f64,
    /// Mass strictly below this runs the compensation arm.
    pub compensate_below: f64,
}

impl EscalationLadder {
    /// The degenerate binary ladder: every threshold 0.5, no observe band.
    /// Driving it with masses in `{0.0, 1.0}` reproduces the legacy binary
    /// path bit-for-bit.
    pub const BINARY: Self = Self {
        kill_above: 0.5,
        throttle_above: 0.5,
        compensate_below: 0.5,
    };

    /// A graduated ladder with a real observe band: kill above 0.85,
    /// throttle above 0.6, compensate below 0.35.
    pub fn graduated() -> Self {
        Self {
            kill_above: 0.85,
            throttle_above: 0.6,
            compensate_below: 0.35,
        }
    }

    /// The mass strictly above which `level` engages, if the level is
    /// entered from above ([`EscalationLevel::Kill`] and
    /// [`EscalationLevel::Throttle`]; the other rungs have no upper
    /// boundary an attacker could ride under).
    ///
    /// This is the boundary query the adaptive tier's attackers use: a
    /// mass-riding strategy holds its expected evidence just below the rung
    /// it wants to avoid (see `valkyrie_core::evasion::MassRider`).
    pub fn engages_above(&self, level: EscalationLevel) -> Option<f64> {
        match level {
            EscalationLevel::Kill => Some(self.kill_above),
            EscalationLevel::Throttle => Some(self.throttle_above),
            EscalationLevel::Compensate | EscalationLevel::Observe => None,
        }
    }

    /// The largest mass that stays `margin` below the boundary at which
    /// `level` engages, clamped into `[0, 1]`. Levels without an upper
    /// boundary ride at the compensation boundary instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use valkyrie_core::{EscalationLadder, EscalationLevel};
    /// let ladder = EscalationLadder::graduated();
    /// let mass = ladder.ride_below(EscalationLevel::Throttle, 0.02);
    /// assert!((mass - 0.58).abs() < 1e-12);
    /// // Riding there never escalates past the observe band.
    /// assert_eq!(ladder.level(mass), EscalationLevel::Observe);
    /// ```
    pub fn ride_below(&self, level: EscalationLevel, margin: f64) -> f64 {
        let margin = if margin.is_finite() {
            margin.max(0.0)
        } else {
            0.0
        };
        let boundary = self.engages_above(level).unwrap_or(self.compensate_below);
        (boundary - margin).clamp(0.0, 1.0)
    }

    /// The ladder rung for a fused evidence mass.
    pub fn level(&self, mass: f64) -> EscalationLevel {
        if mass > self.kill_above {
            EscalationLevel::Kill
        } else if mass > self.throttle_above {
            EscalationLevel::Throttle
        } else if mass < self.compensate_below {
            EscalationLevel::Compensate
        } else {
            EscalationLevel::Observe
        }
    }
}

impl Default for EscalationLadder {
    /// The graduated ladder (see [`EscalationLadder::graduated`]).
    fn default() -> Self {
        Self::graduated()
    }
}

/// The outcome of feeding one epoch's inference into a [`Monitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// Epoch index of this step (1-based, the `i` of Algorithm 1).
    pub epoch: u64,
    /// State after the step.
    pub state: ProcessState,
    /// Threat index after the step.
    pub threat: ThreatIndex,
    /// Threat-index change produced by the step.
    pub delta_threat: f64,
    /// What the response layer should do.
    pub directive: Directive,
    /// The escalation rung this step landed on (ladder-derived on the
    /// weighted-evidence path, directive-derived on the binary path).
    pub level: EscalationLevel,
}

/// The half of Algorithm 1 every process under one engine shares: `N*`,
/// the assessment functions and whether monitoring is cyclic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MonitorParams {
    pub(crate) n_star: u64,
    pub(crate) fp: AssessmentFn,
    pub(crate) fc: AssessmentFn,
    pub(crate) cyclic: bool,
}

/// The per-process half of Algorithm 1: where one process stands in its
/// current measurement cycle.
///
/// Engines keep one `CycleState` per tracked process and pass the shared
/// [`MonitorParams`] to every step, so a tracked process carries no copy of
/// the configuration. [`Monitor`] pairs the two for single-process callers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CycleState {
    state: ProcessState,
    threat: ThreatIndex,
    penalty: f64,
    compensation: f64,
    measurements: u64,
    epoch: u64,
    restored: bool,
}

impl CycleState {
    /// A process entering its first cycle: normal, threat 0, no
    /// measurements.
    pub(crate) fn new() -> Self {
        Self {
            state: ProcessState::Normal,
            threat: ThreatIndex::zero(),
            penalty: 0.0,
            compensation: 0.0,
            measurements: 0,
            epoch: 0,
            restored: false,
        }
    }

    pub(crate) fn state(&self) -> ProcessState {
        self.state
    }

    pub(crate) fn threat(&self) -> ThreatIndex {
        self.threat
    }

    /// Fig. 3: completion also moves the process to *terminated*.
    pub(crate) fn complete(&mut self) {
        self.state = ProcessState::Terminated;
    }

    /// Algorithm 1's outer loop: a fresh measurement cycle with the epoch
    /// count carried over.
    fn recycle(&mut self) {
        *self = Self {
            epoch: self.epoch,
            ..Self::new()
        };
    }

    /// See [`Monitor::observe`].
    pub(crate) fn observe(&mut self, p: &MonitorParams, inference: Classification) -> StepReport {
        if self.state == ProcessState::Terminated {
            return self.report(0.0, Directive::Terminate);
        }
        self.epoch += 1;

        if self.measurements < p.n_star {
            let mut report = self.observe_pre_efficacy(p, inference);
            if self.measurements >= p.n_star && self.state != ProcessState::Terminated {
                // Algorithm 1 line 21: once N* measurements are captured the
                // process switches to the terminable state.
                self.state = ProcessState::Terminable;
                report.state = self.state;
            }
            report
        } else {
            self.observe_terminable(p, inference)
        }
    }

    /// See [`Monitor::observe_mass_with`].
    pub(crate) fn observe_mass_with(
        &mut self,
        p: &MonitorParams,
        ladder: EscalationLadder,
        mass: f64,
    ) -> StepReport {
        let mass = mass.clamp(0.0, 1.0);
        if self.state == ProcessState::Terminated {
            return self.report_leveled(0.0, Directive::Terminate, EscalationLevel::Kill);
        }
        self.epoch += 1;
        let level = ladder.level(mass);

        if self.measurements < p.n_star {
            let mut report = self.observe_mass_pre_efficacy(p, mass, level);
            if self.measurements >= p.n_star && self.state != ProcessState::Terminated {
                self.state = ProcessState::Terminable;
                report.state = self.state;
            }
            report
        } else {
            self.observe_mass_terminable(p, level)
        }
    }

    fn observe_mass_pre_efficacy(
        &mut self,
        p: &MonitorParams,
        mass: f64,
        level: EscalationLevel,
    ) -> StepReport {
        self.measurements += 1;
        let prev_threat = self.threat;
        match level {
            EscalationLevel::Throttle | EscalationLevel::Kill => {
                self.state = ProcessState::Suspicious;
                if mass == 1.0 {
                    // Degenerate full-confidence evidence: the exact legacy
                    // Malicious arithmetic (scaling by 1.0 is not an IEEE754
                    // no-op, so the branch is load-bearing).
                    self.penalty = p.fp.next(self.penalty, self.epoch);
                    self.threat = self.threat.penalized(self.penalty);
                } else {
                    let next = p.fp.next(self.penalty, self.epoch);
                    self.penalty += (next - self.penalty) * mass;
                    self.threat = self.threat.penalized(self.penalty * mass);
                }
            }
            EscalationLevel::Compensate => {
                if self.state == ProcessState::Suspicious {
                    if mass == 0.0 {
                        // Degenerate zero-evidence: the exact legacy Benign
                        // arithmetic.
                        self.compensation = p.fc.next(self.compensation, self.epoch);
                        self.threat = self.threat.compensated(self.compensation);
                    } else {
                        let next = p.fc.next(self.compensation, self.epoch);
                        self.compensation += (next - self.compensation) * (1.0 - mass);
                        self.threat = self.threat.compensated(self.compensation * (1.0 - mass));
                    }
                }
            }
            EscalationLevel::Observe => {}
        }
        let delta = self.threat.value() - prev_threat.value();
        if self.threat.is_zero() && self.state == ProcessState::Suspicious {
            self.state = ProcessState::Normal;
            return self.report_leveled(delta, Directive::ResetToNormal, level);
        }
        let directive = if self.state == ProcessState::Suspicious {
            Directive::Adjust {
                delta_threat: delta,
            }
        } else {
            Directive::Continue
        };
        self.report_leveled(delta, directive, level)
    }

    fn observe_mass_terminable(&mut self, p: &MonitorParams, level: EscalationLevel) -> StepReport {
        match level {
            EscalationLevel::Kill => {
                self.state = ProcessState::Terminated;
                self.report_leveled(0.0, Directive::Terminate, level)
            }
            EscalationLevel::Compensate => {
                if p.cyclic {
                    self.recycle();
                    return self.report_leveled(0.0, Directive::Restore, level);
                }
                if self.restored {
                    self.report_leveled(0.0, Directive::Continue, level)
                } else {
                    self.restored = true;
                    self.report_leveled(0.0, Directive::Restore, level)
                }
            }
            // The terminable decision stays open while the evidence sits in
            // the middle of the ladder.
            EscalationLevel::Observe | EscalationLevel::Throttle => {
                self.report_leveled(0.0, Directive::Continue, level)
            }
        }
    }

    fn observe_pre_efficacy(&mut self, p: &MonitorParams, inference: Classification) -> StepReport {
        self.measurements += 1;
        let prev_threat = self.threat;
        match inference {
            Classification::Malicious => {
                // Lines 8-11.
                self.state = ProcessState::Suspicious;
                self.penalty = p.fp.next(self.penalty, self.epoch);
                self.threat = self.threat.penalized(self.penalty);
            }
            Classification::Benign => {
                // Lines 12-15: compensation only applies in the suspicious
                // state.
                if self.state == ProcessState::Suspicious {
                    self.compensation = p.fc.next(self.compensation, self.epoch);
                    self.threat = self.threat.compensated(self.compensation);
                }
            }
        }
        let delta = self.threat.value() - prev_threat.value();
        // Lines 17-18: full recovery returns the process to normal.
        if self.threat.is_zero() && self.state == ProcessState::Suspicious {
            self.state = ProcessState::Normal;
            return self.report(delta, Directive::ResetToNormal);
        }
        let directive = if self.state == ProcessState::Suspicious {
            Directive::Adjust {
                delta_threat: delta,
            }
        } else {
            Directive::Continue
        };
        self.report(delta, directive)
    }

    fn observe_terminable(&mut self, p: &MonitorParams, inference: Classification) -> StepReport {
        match inference {
            Classification::Benign => {
                if p.cyclic {
                    // A_reset plus the outer while-loop of Algorithm 1:
                    // restore resources and begin a new measurement cycle.
                    self.recycle();
                    return self.report(0.0, Directive::Restore);
                }
                // Line 24: A_reset — restore default resources, once.
                if self.restored {
                    self.report(0.0, Directive::Continue)
                } else {
                    self.restored = true;
                    self.report(0.0, Directive::Restore)
                }
            }
            Classification::Malicious => {
                // Line 26: terminate.
                self.state = ProcessState::Terminated;
                self.report(0.0, Directive::Terminate)
            }
        }
    }

    fn report(&self, delta: f64, directive: Directive) -> StepReport {
        self.report_leveled(delta, directive, EscalationLevel::from_directive(directive))
    }

    fn report_leveled(
        &self,
        delta: f64,
        directive: Directive,
        level: EscalationLevel,
    ) -> StepReport {
        StepReport {
            epoch: self.epoch,
            state: self.state,
            threat: self.threat,
            delta_threat: delta,
            directive,
            level,
        }
    }
}

/// Per-process implementation of Algorithm 1.
///
/// # Examples
///
/// ```
/// use valkyrie_core::{AssessmentFn, Classification, Directive, Monitor, ProcessState};
///
/// let mut m = Monitor::new(3, AssessmentFn::incremental(), AssessmentFn::incremental());
/// let r = m.observe(Classification::Malicious);
/// assert_eq!(r.state, ProcessState::Suspicious);
/// assert_eq!(r.delta_threat, 1.0);
/// // After N* = 3 measurements the process becomes terminable …
/// m.observe(Classification::Malicious);
/// m.observe(Classification::Malicious);
/// assert_eq!(m.state(), ProcessState::Terminable);
/// // … and the next malicious classification terminates it.
/// let r = m.observe(Classification::Malicious);
/// assert_eq!(r.directive, Directive::Terminate);
/// ```
#[derive(Debug, Clone)]
pub struct Monitor {
    params: MonitorParams,
    cycle: CycleState,
}

impl Monitor {
    /// Creates a monitor that needs `n_star` measurements before the process
    /// becomes terminable, with penalty assessment `fp` and compensation
    /// assessment `fc`.
    ///
    /// # Panics
    ///
    /// Panics if `n_star` is zero; a detector that needs zero measurements
    /// would terminate processes without ever observing them.
    pub fn new(n_star: u64, fp: AssessmentFn, fc: AssessmentFn) -> Self {
        assert!(n_star > 0, "N* must be at least one measurement");
        Self {
            params: MonitorParams {
                n_star,
                fp,
                fc,
                cyclic: false,
            },
            cycle: CycleState::new(),
        }
    }

    /// Like [`Monitor::new`], but monitoring is *cyclic*: Algorithm 1's
    /// outer `while t is executing` loop. After a benign verdict in the
    /// terminable state the resources are restored (`A_reset`) **and a new
    /// measurement cycle begins** — the process returns to the normal state
    /// with fresh penalty/compensation metrics and measurement counter.
    /// Long-running processes thus stay under watch for their whole life,
    /// while attacks are still terminated at the end of their first cycle.
    ///
    /// # Panics
    ///
    /// Panics if `n_star` is zero.
    pub fn new_cyclic(n_star: u64, fp: AssessmentFn, fc: AssessmentFn) -> Self {
        let mut m = Self::new(n_star, fp, fc);
        m.params.cyclic = true;
        m
    }

    /// Current Fig. 3 state.
    pub fn state(&self) -> ProcessState {
        self.cycle.state
    }

    /// Current threat index `T_i^t`.
    pub fn threat(&self) -> ThreatIndex {
        self.cycle.threat
    }

    /// Current penalty metric `P_i^t`.
    pub fn penalty(&self) -> f64 {
        self.cycle.penalty
    }

    /// Current compensation metric `C_i^t`.
    pub fn compensation(&self) -> f64 {
        self.cycle.compensation
    }

    /// Measurements captured so far (`N_i^t`).
    pub fn measurements(&self) -> u64 {
        self.cycle.measurements
    }

    /// The configured measurement requirement `N*`.
    pub fn measurements_required(&self) -> u64 {
        self.params.n_star
    }

    /// Feeds one epoch's inference `D(t, i)` and advances Algorithm 1.
    ///
    /// Calling this after the process has terminated keeps returning
    /// [`Directive::Terminate`] without further state changes.
    pub fn observe(&mut self, inference: Classification) -> StepReport {
        self.cycle.observe(&self.params, inference)
    }

    /// Feeds one epoch's *fused evidence mass* (in `[0, 1]`) and advances
    /// Algorithm 1 under the default graduated [`EscalationLadder`].
    ///
    /// See [`Monitor::observe_mass_with`].
    pub fn observe_mass(&mut self, mass: f64) -> StepReport {
        self.observe_mass_with(EscalationLadder::default(), mass)
    }

    /// Feeds one epoch's fused evidence mass under an explicit ladder.
    ///
    /// The ladder picks the escalation rung; the rung picks the Algorithm 1
    /// arm. `Throttle`/`Kill` run the penalty arm with the assessment-step
    /// scaled by the mass, `Compensate` runs the compensation arm scaled by
    /// `1 - mass`, and `Observe` holds every metric. In the terminable
    /// state, `Kill` terminates, `Compensate` restores (recycling under
    /// cyclic monitoring) and the middle rungs hold the decision open.
    ///
    /// The extremes are degenerate by construction: mass exactly `1.0`
    /// executes the same arithmetic as a `Malicious` observation and mass
    /// exactly `0.0` the same as a `Benign` one, so a binary detector
    /// driven through this path (with [`EscalationLadder::BINARY`]) is
    /// bit-for-bit the legacy [`Monitor::observe`].
    pub fn observe_mass_with(&mut self, ladder: EscalationLadder, mass: f64) -> StepReport {
        self.cycle.observe_mass_with(&self.params, ladder, mass)
    }

    /// Marks the process as finished (Fig. 3: completion also moves the
    /// process to *terminated*).
    pub fn complete(&mut self) {
        self.cycle.complete();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Classification::{Benign, Malicious};

    fn monitor(n_star: u64) -> Monitor {
        Monitor::new(
            n_star,
            AssessmentFn::incremental(),
            AssessmentFn::incremental(),
        )
    }

    #[test]
    fn benign_stream_stays_normal() {
        let mut m = monitor(10);
        for _ in 0..9 {
            let r = m.observe(Benign);
            assert_eq!(r.state, ProcessState::Normal);
            assert_eq!(r.directive, Directive::Continue);
            assert!(r.threat.is_zero());
        }
        // The 10th measurement satisfies N*: the process becomes terminable.
        let r = m.observe(Benign);
        assert_eq!(r.state, ProcessState::Terminable);
    }

    #[test]
    fn incremental_penalty_growth_matches_paper_example() {
        // Section V-C: penalty increases by 1 on each malicious epoch and the
        // threat index increases by the penalty: T = 1, 3, 6, 10, 15, …
        let mut m = monitor(100);
        let expected = [1.0, 3.0, 6.0, 10.0, 15.0, 21.0, 28.0];
        for want in expected {
            let r = m.observe(Malicious);
            assert_eq!(r.threat.value(), want);
        }
    }

    #[test]
    fn compensation_recovers_and_returns_to_normal() {
        let mut m = monitor(100);
        for _ in 0..5 {
            m.observe(Malicious);
        }
        assert_eq!(m.threat().value(), 15.0);
        // Compensation: 1, 2, 3, 4, 5 → threat 14, 12, 9, 5, 0.
        let expected = [14.0, 12.0, 9.0, 5.0, 0.0];
        for (i, want) in expected.iter().enumerate() {
            let r = m.observe(Benign);
            assert_eq!(r.threat.value(), *want, "step {i}");
        }
        assert_eq!(m.state(), ProcessState::Normal);
    }

    #[test]
    fn reset_to_normal_directive_emitted_once() {
        let mut m = monitor(100);
        m.observe(Malicious);
        let r = m.observe(Benign);
        assert_eq!(r.directive, Directive::ResetToNormal);
        assert_eq!(r.state, ProcessState::Normal);
        // Further benign epochs in the normal state are plain continues.
        let r = m.observe(Benign);
        assert_eq!(r.directive, Directive::Continue);
    }

    #[test]
    fn benign_epochs_in_normal_state_do_not_compensate() {
        let mut m = monitor(100);
        m.observe(Benign);
        assert_eq!(m.compensation(), 0.0);
        m.observe(Malicious);
        m.observe(Benign);
        assert_eq!(m.compensation(), 1.0);
    }

    #[test]
    fn threat_is_clamped_at_100() {
        let mut m = monitor(1000);
        for _ in 0..30 {
            m.observe(Malicious);
        }
        assert_eq!(m.threat().value(), 100.0);
    }

    #[test]
    fn terminable_then_terminate_on_malicious() {
        let mut m = monitor(3);
        m.observe(Benign);
        m.observe(Benign);
        m.observe(Benign);
        assert_eq!(m.state(), ProcessState::Terminable);
        let r = m.observe(Malicious);
        assert_eq!(r.directive, Directive::Terminate);
        assert_eq!(m.state(), ProcessState::Terminated);
    }

    #[test]
    fn terminable_then_restore_on_benign() {
        let mut m = monitor(2);
        m.observe(Malicious);
        m.observe(Malicious);
        assert_eq!(m.state(), ProcessState::Terminable);
        let r = m.observe(Benign);
        assert_eq!(r.directive, Directive::Restore);
        // Restoration is reported once; afterwards the process just runs.
        let r = m.observe(Benign);
        assert_eq!(r.directive, Directive::Continue);
        // It can still be terminated later.
        let r = m.observe(Malicious);
        assert_eq!(r.directive, Directive::Terminate);
    }

    #[test]
    fn observe_after_termination_is_stable() {
        let mut m = monitor(1);
        m.observe(Malicious);
        let r = m.observe(Malicious);
        assert_eq!(r.directive, Directive::Terminate);
        let r = m.observe(Benign);
        assert_eq!(r.directive, Directive::Terminate);
        assert_eq!(m.state(), ProcessState::Terminated);
    }

    #[test]
    fn complete_marks_terminated() {
        let mut m = monitor(10);
        m.observe(Benign);
        m.complete();
        assert_eq!(m.state(), ProcessState::Terminated);
    }

    #[test]
    fn penalty_is_retained_while_benign() {
        // Algorithm 1 line 15: P_i = P_{i-1} on benign epochs, so a repeat
        // offender resumes from the old penalty level.
        let mut m = monitor(100);
        for _ in 0..3 {
            m.observe(Malicious);
        }
        assert_eq!(m.penalty(), 3.0);
        m.observe(Benign);
        assert_eq!(m.penalty(), 3.0);
        m.observe(Malicious);
        assert_eq!(m.penalty(), 4.0);
    }

    #[test]
    #[should_panic(expected = "N*")]
    fn zero_n_star_panics() {
        let _ = monitor(0);
    }

    #[test]
    fn binary_ladder_mass_path_is_bit_identical_to_observe() {
        // The migration guarantee behind the whole fusion refactor: masses
        // in {0.0, 1.0} through the BINARY ladder reproduce the legacy
        // binary path exactly — states, threat values, directives, epochs.
        let streams: [&[Classification]; 4] = [
            &[Malicious; 12],
            &[Benign; 12],
            &[
                Malicious, Malicious, Benign, Benign, Malicious, Benign, Benign, Benign, Malicious,
                Malicious, Malicious, Benign,
            ],
            &[
                Benign, Malicious, Benign, Malicious, Malicious, Benign, Benign, Malicious,
            ],
        ];
        for n_star in [1, 3, 7] {
            for (cyclic, stream) in [(false, streams), (true, streams)]
                .into_iter()
                .flat_map(|(c, ss)| ss.into_iter().map(move |s| (c, s)))
            {
                let make = || {
                    if cyclic {
                        Monitor::new_cyclic(
                            n_star,
                            AssessmentFn::incremental(),
                            AssessmentFn::incremental(),
                        )
                    } else {
                        monitor(n_star)
                    }
                };
                let mut binary = make();
                let mut mass = make();
                for &c in stream {
                    let want = binary.observe(c);
                    let got = mass.observe_mass_with(
                        EscalationLadder::BINARY,
                        if c.is_malicious() { 1.0 } else { 0.0 },
                    );
                    assert_eq!(
                        (
                            got.epoch,
                            got.state,
                            got.threat,
                            got.delta_threat,
                            got.directive
                        ),
                        (
                            want.epoch,
                            want.state,
                            want.threat,
                            want.delta_threat,
                            want.directive
                        ),
                        "n_star={n_star} cyclic={cyclic}"
                    );
                }
            }
        }
    }

    #[test]
    fn ladder_maps_mass_bands_to_levels() {
        let ladder = EscalationLadder::graduated();
        assert_eq!(ladder.level(0.9), EscalationLevel::Kill);
        assert_eq!(ladder.level(0.7), EscalationLevel::Throttle);
        assert_eq!(ladder.level(0.5), EscalationLevel::Observe);
        assert_eq!(ladder.level(0.35), EscalationLevel::Observe);
        assert_eq!(ladder.level(0.1), EscalationLevel::Compensate);
        // The binary ladder has no observe band.
        assert_eq!(EscalationLadder::BINARY.level(1.0), EscalationLevel::Kill);
        assert_eq!(
            EscalationLadder::BINARY.level(0.0),
            EscalationLevel::Compensate
        );
        // A tie at exactly 0.5 on the binary ladder observes — and never
        // occurs on the degenerate {0, 1} mass stream.
        assert_eq!(
            EscalationLadder::BINARY.level(0.5),
            EscalationLevel::Observe
        );
    }

    #[test]
    fn ladder_boundary_queries_expose_the_rung_edges() {
        let ladder = EscalationLadder::graduated();
        assert_eq!(ladder.engages_above(EscalationLevel::Kill), Some(0.85));
        assert_eq!(ladder.engages_above(EscalationLevel::Throttle), Some(0.6));
        assert_eq!(ladder.engages_above(EscalationLevel::Observe), None);
        assert_eq!(ladder.engages_above(EscalationLevel::Compensate), None);

        // Riding below a rung never reaches it.
        for (level, margin) in [
            (EscalationLevel::Kill, 0.01),
            (EscalationLevel::Throttle, 0.05),
        ] {
            let mass = ladder.ride_below(level, margin);
            assert_ne!(ladder.level(mass), EscalationLevel::Kill);
            if level == EscalationLevel::Throttle {
                assert_ne!(ladder.level(mass), EscalationLevel::Throttle);
            }
        }
        // Levels without an upper boundary ride at the compensation edge.
        assert!((ladder.ride_below(EscalationLevel::Compensate, 0.0) - 0.35).abs() < 1e-12);
        // Margins are sanitised: non-finite or negative margins ride at the
        // boundary itself, and the result stays in [0, 1].
        assert_eq!(ladder.ride_below(EscalationLevel::Kill, f64::NAN), 0.85);
        assert_eq!(ladder.ride_below(EscalationLevel::Kill, -3.0), 0.85);
        assert_eq!(ladder.ride_below(EscalationLevel::Throttle, 2.0), 0.0);
    }

    #[test]
    fn partial_mass_scales_the_penalty_arm() {
        // Mass 0.7 through the graduated ladder throttles but accumulates
        // threat slower than full-confidence evidence.
        let mut strong = monitor(100);
        let mut partial = monitor(100);
        for _ in 0..5 {
            strong.observe_mass(1.0);
            partial.observe_mass(0.7);
        }
        assert_eq!(strong.state(), ProcessState::Suspicious);
        assert_eq!(partial.state(), ProcessState::Suspicious);
        assert!(strong.threat().value() > partial.threat().value());
        assert!(partial.threat().value() > 0.0);
    }

    #[test]
    fn observe_band_holds_every_metric() {
        let mut m = monitor(100);
        m.observe_mass(1.0);
        let (threat, penalty) = (m.threat(), m.penalty());
        // Inconclusive evidence: nothing moves, but the measurement counts.
        let r = m.observe_mass(0.5);
        assert_eq!(r.level, EscalationLevel::Observe);
        assert_eq!(m.threat(), threat);
        assert_eq!(m.penalty(), penalty);
        assert_eq!(m.measurements(), 2);
    }

    #[test]
    fn terminable_middle_rungs_hold_the_decision_open() {
        let mut m = monitor(2);
        m.observe_mass(1.0);
        m.observe_mass(1.0);
        assert_eq!(m.state(), ProcessState::Terminable);
        // Observe and Throttle hold; only Kill terminates.
        let r = m.observe_mass(0.5);
        assert_eq!(r.directive, Directive::Continue);
        let r = m.observe_mass(0.7);
        assert_eq!(r.directive, Directive::Continue);
        assert_eq!(m.state(), ProcessState::Terminable);
        let r = m.observe_mass(0.95);
        assert_eq!(r.directive, Directive::Terminate);
    }

    #[test]
    fn terminable_low_mass_restores_and_recycles_cyclically() {
        let mut m =
            Monitor::new_cyclic(2, AssessmentFn::incremental(), AssessmentFn::incremental());
        m.observe_mass(1.0);
        m.observe_mass(1.0);
        let r = m.observe_mass(0.1);
        assert_eq!(r.directive, Directive::Restore);
        assert_eq!(m.state(), ProcessState::Normal);
        assert_eq!(m.measurements(), 0);
    }

    #[test]
    fn legacy_observe_reports_directive_derived_levels() {
        let mut m = monitor(3);
        let r = m.observe(Malicious);
        assert_eq!(r.level, EscalationLevel::Throttle);
        let r = m.observe(Benign);
        assert_eq!(r.level, EscalationLevel::Compensate);
        m.observe(Benign); // terminable at N* = 3
        let r = m.observe(Malicious);
        assert_eq!(r.level, EscalationLevel::Kill);
    }

    #[test]
    fn all_transitions_are_legal_per_fig3() {
        // Drive a monitor through a noisy inference stream and check that
        // every transition it takes is allowed by Fig. 3.
        let mut m = monitor(8);
        let stream = [
            Benign, Malicious, Benign, Benign, Malicious, Malicious, Benign, Benign, Benign,
            Malicious,
        ];
        let mut prev = m.state();
        for c in stream {
            let r = m.observe(c);
            assert!(
                prev.can_transition_to(r.state),
                "illegal transition {prev} -> {}",
                r.state
            );
            prev = r.state;
        }
    }
}
