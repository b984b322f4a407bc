//! Per-process threat monitor — a faithful implementation of Algorithm 1.
//!
//! For every tracked process, [`ValkyrieEngine`](crate::ValkyrieEngine)
//! consumes the detector's per-epoch inference stream and maintains the
//! penalty (`P_i^t`), compensation (`C_i^t`) and threat index (`T_i^t`)
//! metrics, the measurement count (`N_i^t`) and the Fig. 3 process state.
//! This module holds that per-process machine and the escalation ladder the
//! weighted-evidence path maps fused masses onto.
//!
//! Algorithm 1 is written out once, as the mass step: an escalation rung
//! picks the arm and the evidence mass scales it. A binary inference is the
//! [`EscalationLadder::BINARY`] step of mass 1.0 (`Malicious`) or 0.0
//! (`Benign`), so the binary and weighted-evidence paths share every line
//! of the algorithm.

use crate::state::ProcessState;
use crate::threat::{AssessmentFn, Classification, ThreatIndex};

/// Response directive emitted by one monitor step; the engine turns it
/// into an [`Action`](crate::Action) and new resource shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Directive {
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
/// path ([`ValkyrieEngine::observe_mass`](crate::ValkyrieEngine::observe_mass))
/// can also park a process at `Observe` when the fused evidence is
/// inconclusive. Ordering follows response intensity, so `a > b` means `a`
/// is the harder response.
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
    /// stamp [`StepReport::level`] on [`CycleState::observe`] steps).
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

    /// The largest mass that stays `margin` below the boundary at which
    /// `level` engages, clamped into `[0, 1]`. [`EscalationLevel::Kill`]
    /// and [`EscalationLevel::Throttle`] engage strictly above their
    /// thresholds; the other rungs have no upper boundary an attacker could
    /// ride under, so they ride at the compensation boundary instead.
    ///
    /// This is the boundary query the adaptive tier's attackers use: a
    /// mass-riding strategy holds its expected evidence just below the rung
    /// it wants to avoid (see `valkyrie_experiments::attacker::MassRider`).
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
        let boundary = match level {
            EscalationLevel::Kill => self.kill_above,
            EscalationLevel::Throttle => self.throttle_above,
            EscalationLevel::Compensate | EscalationLevel::Observe => self.compensate_below,
        };
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

/// The outcome of one [`CycleState`] step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StepReport {
    /// State after the step.
    pub(crate) state: ProcessState,
    /// Threat index after the step.
    pub(crate) threat: ThreatIndex,
    /// What the response layer should do.
    pub(crate) directive: Directive,
    /// The escalation rung this step landed on (ladder-derived on the
    /// weighted-evidence path, directive-derived on the binary path).
    pub(crate) level: EscalationLevel,
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
/// the configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CycleState {
    state: ProcessState,
    threat: ThreatIndex,
    penalty: f64,
    compensation: f64,
    measurements: u64,
    epoch: u64,
    restored: bool,
    /// Escalation rung of the previous step, for ladder-transition
    /// telemetry. The engine owns it (see [`Self::record_level`]); it sits
    /// here because the struct's tail padding holds it for free.
    level: EscalationLevel,
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
            level: EscalationLevel::Observe,
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

    /// Records the rung of the step just taken, returning whether it
    /// climbed from a lower rung to `Throttle` or above.
    pub(crate) fn record_level(&mut self, level: EscalationLevel) -> bool {
        let escalated = level > self.level && level >= EscalationLevel::Throttle;
        self.level = level;
        escalated
    }

    /// Algorithm 1's outer loop: a fresh measurement cycle with the epoch
    /// count carried over. The previous rung is carried over too: the
    /// engine compares the recycling step's rung against it.
    fn recycle(&mut self) {
        *self = Self {
            epoch: self.epoch,
            level: self.level,
            ..Self::new()
        };
    }

    /// Feeds one epoch's inference `D(t, i)` and advances Algorithm 1.
    ///
    /// This is the [`EscalationLadder::BINARY`] step: `Malicious` is mass
    /// 1.0 on the `Kill` rung and `Benign` mass 0.0 on the `Compensate`
    /// rung, which are the rungs `BINARY` gives those masses, so the binary
    /// path pays no clamp and no ladder compare. The reported level is the
    /// one the directive implies (a malicious epoch that raises the threat
    /// is a `Throttle`), which is what `FusionStats::escalations` counts on
    /// this path.
    ///
    /// Calling this after the process has terminated keeps returning
    /// [`Directive::Terminate`] without further state changes.
    #[inline]
    pub(crate) fn observe(&mut self, p: &MonitorParams, inference: Classification) -> StepReport {
        // One call per rung, so each inlined copy of the step is specialised
        // to its constant rung and mass.
        let mut report = match inference {
            Classification::Malicious => self.step(p, EscalationLevel::Kill, 1.0),
            Classification::Benign => self.step(p, EscalationLevel::Compensate, 0.0),
        };
        report.level = EscalationLevel::from_directive(report.directive);
        report
    }

    /// Feeds one epoch's fused evidence mass under `ladder`: the mass is
    /// clamped into `[0, 1]`, the ladder picks the rung, and the same step
    /// as [`Self::observe`] runs. The contract is stated on
    /// [`ValkyrieEngine::observe_mass`](crate::ValkyrieEngine::observe_mass).
    #[inline]
    pub(crate) fn observe_mass_with(
        &mut self,
        p: &MonitorParams,
        ladder: EscalationLadder,
        mass: f64,
    ) -> StepReport {
        let mass = mass.clamp(0.0, 1.0);
        self.step(p, ladder.level(mass), mass)
    }

    /// One epoch of Algorithm 1 on rung `level` with evidence `mass`. The
    /// rung picks the arm: `Throttle`/`Kill` run the penalty arm with the
    /// assessment step scaled by `mass`, `Compensate` runs the compensation
    /// arm scaled by `1 - mass`, and `Observe` holds every metric.
    ///
    /// Always inlined: an out-of-line step cost the binary path of a
    /// 1M-process fleet about 5% of its throughput.
    #[inline(always)]
    fn step(&mut self, p: &MonitorParams, level: EscalationLevel, mass: f64) -> StepReport {
        if self.state == ProcessState::Terminated {
            return StepReport {
                state: self.state,
                threat: self.threat,
                directive: Directive::Terminate,
                level: EscalationLevel::Kill,
            };
        }
        self.epoch += 1;

        let directive = if self.measurements >= p.n_star {
            match level {
                // Line 26: terminate.
                EscalationLevel::Kill => {
                    self.state = ProcessState::Terminated;
                    Directive::Terminate
                }
                // A_reset plus the outer while-loop of Algorithm 1: restore
                // resources and begin a new measurement cycle.
                EscalationLevel::Compensate if p.cyclic => {
                    self.recycle();
                    Directive::Restore
                }
                // Line 24: A_reset — restore default resources, once.
                EscalationLevel::Compensate if !self.restored => {
                    self.restored = true;
                    Directive::Restore
                }
                // A restored process just runs, and the terminable decision
                // stays open while the evidence sits in the middle of the
                // ladder.
                EscalationLevel::Compensate
                | EscalationLevel::Observe
                | EscalationLevel::Throttle => Directive::Continue,
            }
        } else {
            self.measurements += 1;
            let prev_threat = self.threat;
            // Scaling by 1.0 is exact, but `p + (next - p)` can round away
            // from `next`, so masses 1.0 and 0.0 take `next` itself: that
            // keeps them bit for bit the paper's Malicious and Benign
            // arithmetic.
            match level {
                // Lines 8-11.
                EscalationLevel::Throttle | EscalationLevel::Kill => {
                    self.state = ProcessState::Suspicious;
                    let next = p.fp.next(self.penalty, self.epoch);
                    if mass == 1.0 {
                        self.penalty = next;
                        self.threat = self.threat.penalized(next);
                    } else {
                        self.penalty += (next - self.penalty) * mass;
                        self.threat = self.threat.penalized(self.penalty * mass);
                    }
                }
                // Lines 12-15: compensation only applies in the suspicious
                // state.
                EscalationLevel::Compensate if self.state == ProcessState::Suspicious => {
                    let next = p.fc.next(self.compensation, self.epoch);
                    if mass == 0.0 {
                        self.compensation = next;
                        self.threat = self.threat.compensated(next);
                    } else {
                        self.compensation += (next - self.compensation) * (1.0 - mass);
                        self.threat = self.threat.compensated(self.compensation * (1.0 - mass));
                    }
                }
                EscalationLevel::Compensate | EscalationLevel::Observe => {}
            }
            let directive = if self.state != ProcessState::Suspicious {
                Directive::Continue
            } else if self.threat.is_zero() {
                // Lines 17-18: full recovery returns the process to normal.
                self.state = ProcessState::Normal;
                Directive::ResetToNormal
            } else {
                Directive::Adjust {
                    delta_threat: self.threat.value() - prev_threat.value(),
                }
            };
            if self.measurements >= p.n_star {
                // Line 21: once N* measurements are captured the process
                // switches to the terminable state.
                self.state = ProcessState::Terminable;
            }
            directive
        };
        StepReport {
            state: self.state,
            threat: self.threat,
            directive,
            level,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Classification::{Benign, Malicious};

    fn params(n_star: u64) -> MonitorParams {
        MonitorParams {
            n_star,
            fp: AssessmentFn::incremental(),
            fc: AssessmentFn::incremental(),
            cyclic: false,
        }
    }

    fn cyclic(n_star: u64) -> MonitorParams {
        MonitorParams {
            cyclic: true,
            ..params(n_star)
        }
    }

    #[test]
    fn benign_stream_stays_normal() {
        let p = params(10);
        let mut c = CycleState::new();
        for _ in 0..9 {
            let r = c.observe(&p, Benign);
            assert_eq!(r.state, ProcessState::Normal);
            assert_eq!(r.directive, Directive::Continue);
            assert!(r.threat.is_zero());
        }
        // The 10th measurement satisfies N*: the process becomes terminable.
        let r = c.observe(&p, Benign);
        assert_eq!(r.state, ProcessState::Terminable);
    }

    #[test]
    fn incremental_penalty_growth_matches_paper_example() {
        // Section V-C: penalty increases by 1 on each malicious epoch and the
        // threat index increases by the penalty: T = 1, 3, 6, 10, 15, …
        let p = params(100);
        let mut c = CycleState::new();
        let expected = [1.0, 3.0, 6.0, 10.0, 15.0, 21.0, 28.0];
        for want in expected {
            let r = c.observe(&p, Malicious);
            assert_eq!(r.threat.value(), want);
        }
    }

    #[test]
    fn compensation_recovers_and_returns_to_normal() {
        let p = params(100);
        let mut c = CycleState::new();
        for _ in 0..5 {
            c.observe(&p, Malicious);
        }
        assert_eq!(c.threat.value(), 15.0);
        // Compensation: 1, 2, 3, 4, 5 → threat 14, 12, 9, 5, 0.
        let expected = [14.0, 12.0, 9.0, 5.0, 0.0];
        for (i, want) in expected.iter().enumerate() {
            let r = c.observe(&p, Benign);
            assert_eq!(r.threat.value(), *want, "step {i}");
        }
        assert_eq!(c.state, ProcessState::Normal);
    }

    #[test]
    fn reset_to_normal_directive_emitted_once() {
        let p = params(100);
        let mut c = CycleState::new();
        c.observe(&p, Malicious);
        let r = c.observe(&p, Benign);
        assert_eq!(r.directive, Directive::ResetToNormal);
        assert_eq!(r.state, ProcessState::Normal);
        // Further benign epochs in the normal state are plain continues.
        let r = c.observe(&p, Benign);
        assert_eq!(r.directive, Directive::Continue);
    }

    #[test]
    fn benign_epochs_in_normal_state_do_not_compensate() {
        let p = params(100);
        let mut c = CycleState::new();
        c.observe(&p, Benign);
        assert_eq!(c.compensation, 0.0);
        c.observe(&p, Malicious);
        c.observe(&p, Benign);
        assert_eq!(c.compensation, 1.0);
    }

    #[test]
    fn threat_is_clamped_at_100() {
        let p = params(1000);
        let mut c = CycleState::new();
        for _ in 0..30 {
            c.observe(&p, Malicious);
        }
        assert_eq!(c.threat.value(), 100.0);
    }

    #[test]
    fn terminable_then_terminate_on_malicious() {
        let p = params(3);
        let mut c = CycleState::new();
        c.observe(&p, Benign);
        c.observe(&p, Benign);
        c.observe(&p, Benign);
        assert_eq!(c.state, ProcessState::Terminable);
        let r = c.observe(&p, Malicious);
        assert_eq!(r.directive, Directive::Terminate);
        assert_eq!(c.state, ProcessState::Terminated);
    }

    #[test]
    fn terminable_then_restore_on_benign() {
        let p = params(2);
        let mut c = CycleState::new();
        c.observe(&p, Malicious);
        c.observe(&p, Malicious);
        assert_eq!(c.state, ProcessState::Terminable);
        let r = c.observe(&p, Benign);
        assert_eq!(r.directive, Directive::Restore);
        // Restoration is reported once; afterwards the process just runs.
        let r = c.observe(&p, Benign);
        assert_eq!(r.directive, Directive::Continue);
        // It can still be terminated later.
        let r = c.observe(&p, Malicious);
        assert_eq!(r.directive, Directive::Terminate);
    }

    #[test]
    fn observe_after_termination_is_stable() {
        let p = params(1);
        let mut c = CycleState::new();
        c.observe(&p, Malicious);
        let r = c.observe(&p, Malicious);
        assert_eq!(r.directive, Directive::Terminate);
        let epoch = c.epoch;
        let r = c.observe(&p, Benign);
        assert_eq!(r.directive, Directive::Terminate);
        assert_eq!(c.state, ProcessState::Terminated);
        // A terminated process takes no further step.
        assert_eq!(c.epoch, epoch);
    }

    #[test]
    fn complete_marks_terminated() {
        let p = params(10);
        let mut c = CycleState::new();
        c.observe(&p, Benign);
        c.complete();
        assert_eq!(c.state, ProcessState::Terminated);
    }

    #[test]
    fn penalty_is_retained_while_benign() {
        // Algorithm 1 line 15: P_i = P_{i-1} on benign epochs, so a repeat
        // offender resumes from the old penalty level.
        let p = params(100);
        let mut c = CycleState::new();
        for _ in 0..3 {
            c.observe(&p, Malicious);
        }
        assert_eq!(c.penalty, 3.0);
        c.observe(&p, Benign);
        assert_eq!(c.penalty, 3.0);
        c.observe(&p, Malicious);
        assert_eq!(c.penalty, 4.0);
    }

    /// Every field of a cycle, for exact comparisons.
    fn fields(c: &CycleState) -> (ProcessState, ThreatIndex, f64, f64, u64, u64, bool) {
        (
            c.state,
            c.threat,
            c.penalty,
            c.compensation,
            c.measurements,
            c.epoch,
            c.restored,
        )
    }

    #[test]
    fn binary_ladder_mass_path_is_bit_identical_to_observe() {
        // The migration guarantee behind the whole fusion refactor: masses
        // in {0.0, 1.0} through the BINARY ladder reproduce the legacy
        // binary path exactly — states, threat values, directives (each
        // `Adjust` carries its threat delta) and every metric of the cycle.
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
            for p in [params(n_star), cyclic(n_star)] {
                for stream in streams {
                    let mut binary = CycleState::new();
                    let mut mass = CycleState::new();
                    for &c in stream {
                        let want = binary.observe(&p, c);
                        let got = mass.observe_mass_with(
                            &p,
                            EscalationLadder::BINARY,
                            if c.is_malicious() { 1.0 } else { 0.0 },
                        );
                        assert_eq!(
                            (got.state, got.threat, got.directive),
                            (want.state, want.threat, want.directive),
                            "n_star={n_star} cyclic={}",
                            p.cyclic
                        );
                        assert_eq!(fields(&mass), fields(&binary));
                    }
                }
            }
        }
    }

    #[test]
    fn full_and_zero_mass_take_the_assessment_value_itself() {
        // Under F(x) = 3x + 0.1 the fifth step of a run has `next` =
        // 12.100000000000003, where `p + (next - p)` gives
        // 12.100000000000001. So the metrics match a plain fold of
        // `AssessmentFn::next` bit for bit only if masses 1.0 and 0.0 take
        // `next` itself, on the binary path and on the mass path alike.
        let f = AssessmentFn::linear(3.0, 0.1);
        for cyclic in [false, true] {
            let p = MonitorParams {
                n_star: 100,
                fp: f,
                fc: f,
                cyclic,
            };
            let mut cycles = [CycleState::new(); 3];
            let step = |cycles: &mut [CycleState; 3], malicious: bool| {
                let mass = if malicious { 1.0 } else { 0.0 };
                cycles[0].observe(&p, if malicious { Malicious } else { Benign });
                cycles[1].observe_mass_with(&p, EscalationLadder::BINARY, mass);
                cycles[2].observe_mass_with(&p, EscalationLadder::graduated(), mass);
            };
            let check = |cycles: &[CycleState; 3], want: (f64, f64, ThreatIndex), epoch| {
                for (path, c) in cycles.iter().enumerate() {
                    let got = (c.penalty, c.compensation, c.threat.value());
                    let want = (want.0, want.1, want.2.value());
                    assert_eq!(
                        [got.0.to_bits(), got.1.to_bits(), got.2.to_bits()],
                        [want.0.to_bits(), want.1.to_bits(), want.2.to_bits()],
                        "cyclic={cyclic} path {path} epoch {epoch}: {got:?} vs {want:?}"
                    );
                }
            };
            let (mut penalty, mut compensation, mut threat) = (0.0, 0.0, ThreatIndex::zero());
            let mut epoch = 0;
            for _ in 0..6 {
                epoch += 1;
                penalty = f.next(penalty, epoch);
                threat = threat.penalized(penalty);
                step(&mut cycles, true);
                check(&cycles, (penalty, compensation, threat), epoch);
            }
            while cycles[0].state == ProcessState::Suspicious {
                epoch += 1;
                compensation = f.next(compensation, epoch);
                threat = threat.compensated(compensation);
                step(&mut cycles, false);
                check(&cycles, (penalty, compensation, threat), epoch);
            }
            // The benign run went past its fifth step before recovering.
            assert!(epoch >= 11 && threat.is_zero(), "epoch {epoch}");
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
        assert_eq!(ladder.ride_below(EscalationLevel::Kill, 0.0), 0.85);
        assert_eq!(ladder.ride_below(EscalationLevel::Throttle, 0.0), 0.6);

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
        assert!((ladder.ride_below(EscalationLevel::Observe, 0.0) - 0.35).abs() < 1e-12);
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
        let (p, ladder) = (params(100), EscalationLadder::graduated());
        let mut strong = CycleState::new();
        let mut partial = CycleState::new();
        for _ in 0..5 {
            strong.observe_mass_with(&p, ladder, 1.0);
            partial.observe_mass_with(&p, ladder, 0.7);
        }
        assert_eq!(strong.state, ProcessState::Suspicious);
        assert_eq!(partial.state, ProcessState::Suspicious);
        assert!(strong.threat.value() > partial.threat.value());
        assert!(partial.threat.value() > 0.0);
    }

    #[test]
    fn observe_band_holds_every_metric() {
        let (p, ladder) = (params(100), EscalationLadder::graduated());
        let mut c = CycleState::new();
        c.observe_mass_with(&p, ladder, 1.0);
        let (threat, penalty) = (c.threat, c.penalty);
        // Inconclusive evidence: nothing moves, but the measurement counts.
        let r = c.observe_mass_with(&p, ladder, 0.5);
        assert_eq!(r.level, EscalationLevel::Observe);
        assert_eq!(c.threat, threat);
        assert_eq!(c.penalty, penalty);
        assert_eq!(c.measurements, 2);
    }

    #[test]
    fn terminable_middle_rungs_hold_the_decision_open() {
        let (p, ladder) = (params(2), EscalationLadder::graduated());
        let mut c = CycleState::new();
        c.observe_mass_with(&p, ladder, 1.0);
        c.observe_mass_with(&p, ladder, 1.0);
        assert_eq!(c.state, ProcessState::Terminable);
        // Observe and Throttle hold; only Kill terminates.
        let r = c.observe_mass_with(&p, ladder, 0.5);
        assert_eq!(r.directive, Directive::Continue);
        let r = c.observe_mass_with(&p, ladder, 0.7);
        assert_eq!(r.directive, Directive::Continue);
        assert_eq!(c.state, ProcessState::Terminable);
        let r = c.observe_mass_with(&p, ladder, 0.95);
        assert_eq!(r.directive, Directive::Terminate);
    }

    #[test]
    fn terminable_low_mass_restores_and_recycles_cyclically() {
        let (p, ladder) = (cyclic(2), EscalationLadder::graduated());
        let mut c = CycleState::new();
        c.observe_mass_with(&p, ladder, 1.0);
        c.observe_mass_with(&p, ladder, 1.0);
        let r = c.observe_mass_with(&p, ladder, 0.1);
        assert_eq!(r.directive, Directive::Restore);
        assert_eq!(c.state, ProcessState::Normal);
        assert_eq!(c.measurements, 0);
    }

    #[test]
    fn legacy_observe_reports_directive_derived_levels() {
        let p = params(3);
        let mut c = CycleState::new();
        let r = c.observe(&p, Malicious);
        assert_eq!(r.level, EscalationLevel::Throttle);
        let r = c.observe(&p, Benign);
        assert_eq!(r.level, EscalationLevel::Compensate);
        c.observe(&p, Benign); // terminable at N* = 3
        let r = c.observe(&p, Malicious);
        assert_eq!(r.level, EscalationLevel::Kill);
    }

    #[test]
    fn all_transitions_are_legal_per_fig3() {
        // Drive a cycle through a noisy inference stream and check that
        // every transition it takes is allowed by Fig. 3.
        let p = params(8);
        let mut c = CycleState::new();
        let stream = [
            Benign, Malicious, Benign, Benign, Malicious, Malicious, Benign, Benign, Benign,
            Malicious,
        ];
        let mut prev = c.state;
        for inference in stream {
            let r = c.observe(&p, inference);
            assert!(
                prev.can_transition_to(r.state),
                "illegal transition {prev} -> {}",
                r.state
            );
            prev = r.state;
        }
    }
}
