//! The slowdown model of Section V-C (Eqs. 2–4).
//!
//! For a time-progressive process, per-epoch progress `B_i(R_i)` depends on
//! the resources granted. Given the progress series with and without Valkyrie
//! over the `K` epochs the detector needs to reach its required efficacy,
//! Eq. 4 defines the effective slowdown `S(t)` in percent.
//!
//! [`simulate_response`] replays an inference sequence through a one-process
//! [`ValkyrieEngine`] and records the resource shares enforced in every
//! epoch, which is how the paper's worked example (`N* = 15`, incremental
//! `F_p`/`F_c`, CPU −10 pp per unit of threat, 1 % floor → ≈79.6 % attack
//! slowdown) is reproduced.

use crate::actuator::ShareActuator;
use crate::engine::{Action, EngineConfig, ValkyrieEngine};
use crate::resource::{ProcessId, ResourceVector};
use crate::state::ProcessState;
use crate::threat::{AssessmentFn, Classification};

/// Effective slowdown `S(t)` in percent (Eq. 4).
///
/// `progress_without[i]` is `B_i(R_i)` with default resources and
/// `progress_with[i]` is `B_i(A(R_{i-1}, ΔT_i))` under Valkyrie, over the
/// same `K` epochs. `0` means Valkyrie never modified the resources; `100`
/// means the progress halted completely.
///
/// # Panics
///
/// Panics if the two series have different lengths or the baseline progress
/// sums to zero (the slowdown of a process that makes no progress is
/// undefined).
///
/// # Examples
///
/// ```
/// use valkyrie_core::slowdown_percent;
/// let without = [1.0, 1.0, 1.0, 1.0];
/// let with = [1.0, 0.5, 0.5, 1.0];
/// assert_eq!(slowdown_percent(&without, &with), 25.0);
/// ```
pub fn slowdown_percent(progress_without: &[f64], progress_with: &[f64]) -> f64 {
    assert_eq!(
        progress_without.len(),
        progress_with.len(),
        "progress series must cover the same K epochs"
    );
    let base: f64 = progress_without.iter().sum();
    assert!(base > 0.0, "baseline progress must be positive");
    let with: f64 = progress_with.iter().sum();
    (1.0 - with / base) * 100.0
}

/// Wall-clock style slowdown: relative increase in time to complete the same
/// work, in percent (used for the benign-benchmark evaluation of Fig. 5a).
///
/// # Examples
///
/// ```
/// use valkyrie_core::slowdown::completion_slowdown_percent;
/// assert!((completion_slowdown_percent(100.0, 102.8) - 2.8).abs() < 1e-9);
/// ```
pub fn completion_slowdown_percent(epochs_without: f64, epochs_with: f64) -> f64 {
    assert!(epochs_without > 0.0, "baseline epochs must be positive");
    (epochs_with / epochs_without - 1.0) * 100.0
}

/// The epoch-by-epoch trace produced by [`simulate_response`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseTrace {
    /// CPU share enforced during each epoch (epoch 0 is always `1.0`,
    /// matching `B_0(R_0)` in Eq. 3).
    pub cpu_shares: Vec<f64>,
    /// Full resource vector enforced during each epoch.
    pub resources: Vec<ResourceVector>,
    /// Threat index after each epoch's inference.
    pub threat: Vec<f64>,
    /// Fig. 3 state after each epoch's inference.
    pub states: Vec<ProcessState>,
    /// Epoch at which the process was terminated, if it was.
    pub terminated_at: Option<usize>,
}

impl ResponseTrace {
    /// Eq. 4 slowdown assuming progress proportional to the CPU share
    /// (the worked example's progress function).
    pub fn cpu_slowdown_percent(&self) -> f64 {
        let without = vec![1.0; self.cpu_shares.len()];
        slowdown_percent(&without, &self.cpu_shares)
    }
}

/// Replays `inferences` through Algorithm 1 with the given assessment
/// functions and actuator, recording the resources enforced in each epoch.
///
/// The replay is one process on a [`ValkyrieEngine`] configured through
/// [`EngineConfig::builder`] (one-shot monitoring, default fusion config).
/// Epoch `i`'s inference determines the resources for epoch `i + 1`
/// (Eq. 3: `B_0(R_0)` is always unthrottled). If the process reaches the
/// terminable state and is classified malicious, it is terminated and the
/// remaining epochs contribute zero progress.
///
/// # Panics
///
/// Panics with the builder's error if it rejects the configuration: `n_star`
/// is zero, or `actuator` has a NaN floor, a NaN or infinite law parameter,
/// or a negative `step` or `gamma` (see [`EngineConfigBuilder::build`]).
///
/// [`EngineConfigBuilder::build`]: crate::EngineConfigBuilder::build
pub fn simulate_response(
    n_star: u64,
    inferences: &[Classification],
    fp: AssessmentFn,
    fc: AssessmentFn,
    actuator: ShareActuator,
) -> ResponseTrace {
    let config = EngineConfig::builder()
        .measurements_required(n_star)
        .penalty(fp)
        .compensation(fc)
        .actuator(actuator)
        .build()
        .unwrap_or_else(|e| panic!("{e}"));
    let mut engine = ValkyrieEngine::new(config);
    let pid = ProcessId(0);
    let mut current = ResourceVector::FULL;
    let mut trace = ResponseTrace {
        cpu_shares: Vec::with_capacity(inferences.len()),
        resources: Vec::with_capacity(inferences.len()),
        threat: Vec::with_capacity(inferences.len()),
        states: Vec::with_capacity(inferences.len()),
        terminated_at: None,
    };

    for (i, &inference) in inferences.iter().enumerate() {
        // The process executes epoch i under the resources decided by the
        // previous epoch's inference.
        if trace.terminated_at.is_some() {
            trace.cpu_shares.push(0.0);
            trace
                .resources
                .push(ResourceVector::new(0.0, 0.0, 0.0, 0.0));
        } else {
            trace.cpu_shares.push(current.cpu);
            trace.resources.push(current);
        }

        let response = engine.observe(pid, inference);
        current = response.resources;
        if response.action == Action::Terminate && trace.terminated_at.is_none() {
            trace.terminated_at = Some(i);
        }
        trace.threat.push(response.threat.value());
        trace.states.push(response.state);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use Classification::{Benign, Malicious};

    fn percent_point_actuator() -> ShareActuator {
        // The Section V-C example: CPU share drops 10 pp per unit of threat
        // increase, minimum share 1 %.
        ShareActuator::cpu_percent_point(0.10, 0.01)
    }

    #[test]
    fn slowdown_percent_basics() {
        assert_eq!(slowdown_percent(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
        assert_eq!(slowdown_percent(&[2.0, 2.0], &[0.0, 0.0]), 100.0);
    }

    #[test]
    #[should_panic(expected = "same K epochs")]
    fn mismatched_series_panic() {
        let _ = slowdown_percent(&[1.0], &[1.0, 1.0]);
    }

    #[test]
    fn worked_example_attack_slowdown_is_about_80_percent() {
        // Section V-C: N* = 15, incremental penalty, all-malicious stream,
        // CPU −10 pp per unit of threat, floor 1 % → paper reports 79.6 %.
        let inferences = vec![Malicious; 15];
        let trace = simulate_response(
            15,
            &inferences,
            AssessmentFn::incremental(),
            AssessmentFn::incremental(),
            percent_point_actuator(),
        );
        let s = trace.cpu_slowdown_percent();
        assert!(
            (s - 79.6).abs() < 1.5,
            "attack slowdown {s}% should be ~79.6%"
        );
        // The process reached the terminable state but was not yet
        // terminated inside the 15 epochs (the 16th inference would kill it).
        assert_eq!(trace.states.last(), Some(&ProcessState::Terminable));
        assert_eq!(trace.terminated_at, None);
    }

    #[test]
    fn worked_example_false_positive_recovers() {
        // Section V-C: FPs in the first 5 epochs, correct in the next 10.
        // The paper reports 26 %; our percentage-point reading of the
        // actuator yields ~33 % (see DESIGN.md) — the key property is that
        // the benign process recovers fully and is never terminated.
        let mut inferences = vec![Malicious; 5];
        inferences.extend(vec![Benign; 10]);
        let trace = simulate_response(
            15,
            &inferences,
            AssessmentFn::incremental(),
            AssessmentFn::incremental(),
            percent_point_actuator(),
        );
        let s = trace.cpu_slowdown_percent();
        assert!(s > 20.0 && s < 45.0, "FP slowdown {s}% out of band");
        assert_eq!(trace.terminated_at, None);
        // Fully recovered by the end.
        assert_eq!(*trace.cpu_shares.last().unwrap(), 1.0);
        // And much cheaper than the attack response.
        let attack = simulate_response(
            15,
            &[Malicious; 15],
            AssessmentFn::incremental(),
            AssessmentFn::incremental(),
            percent_point_actuator(),
        );
        assert!(s < attack.cpu_slowdown_percent());
    }

    #[test]
    fn termination_zeroes_remaining_progress() {
        let inferences = vec![Malicious; 10];
        let trace = simulate_response(
            3,
            &inferences,
            AssessmentFn::incremental(),
            AssessmentFn::incremental(),
            percent_point_actuator(),
        );
        // N*=3 epochs accumulate, 4th observation terminates; epochs after
        // the termination make no progress.
        assert_eq!(trace.terminated_at, Some(3));
        assert!(trace.cpu_shares[4..].iter().all(|&s| s == 0.0));
    }

    #[test]
    fn epoch_zero_is_always_unthrottled() {
        let trace = simulate_response(
            10,
            &[Malicious, Malicious],
            AssessmentFn::incremental(),
            AssessmentFn::incremental(),
            percent_point_actuator(),
        );
        assert_eq!(trace.cpu_shares[0], 1.0);
        assert!(trace.cpu_shares[1] < 1.0);
    }

    #[test]
    fn benign_process_with_no_fps_has_zero_slowdown() {
        let trace = simulate_response(
            20,
            &[Benign; 20],
            AssessmentFn::incremental(),
            AssessmentFn::incremental(),
            percent_point_actuator(),
        );
        assert_eq!(trace.cpu_slowdown_percent(), 0.0);
    }

    #[test]
    fn completion_slowdown() {
        assert!((completion_slowdown_percent(100.0, 101.0) - 1.0).abs() < 1e-9);
        assert_eq!(completion_slowdown_percent(50.0, 50.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "N*")]
    fn zero_n_star_panics() {
        let _ = simulate_response(
            0,
            &[Malicious],
            AssessmentFn::incremental(),
            AssessmentFn::incremental(),
            percent_point_actuator(),
        );
    }

    /// Replays a flagged-then-cleared stream under an actuator the builder
    /// rejects; each must panic with the builder's message instead of
    /// returning a trace with an undefined response.
    fn replay_rejected(actuator: ShareActuator) {
        let _ = simulate_response(
            5,
            &[Malicious, Malicious, Benign, Benign],
            AssessmentFn::incremental(),
            AssessmentFn::incremental(),
            actuator,
        );
    }

    #[test]
    #[should_panic(expected = "invalid configuration: cpu actuator floor is NaN")]
    fn nan_floor_is_rejected() {
        // Unchecked, the first flag dropped the share to 0, below any floor.
        replay_rejected(ShareActuator::cpu_percent_point(2.0, f64::NAN));
    }

    #[test]
    #[should_panic(
        expected = "invalid configuration: percent-point/unit law parameter must be finite, got NaN"
    )]
    fn nan_step_is_rejected() {
        // Unchecked, the share went straight to the floor on the first flag.
        replay_rejected(ShareActuator::cpu_percent_point(f64::NAN, 0.01));
    }

    #[test]
    #[should_panic(
        expected = "invalid configuration: scheduler-weight law parameter must be finite, got inf"
    )]
    fn infinite_gamma_is_rejected() {
        // Unchecked, the share went straight to the floor on the first flag.
        replay_rejected(ShareActuator::scheduler_weight(f64::INFINITY, 0.01));
    }

    #[test]
    #[should_panic(
        expected = "invalid configuration: percent-point/unit law parameter must not be negative, got -0.1"
    )]
    fn negative_step_is_rejected() {
        // Unchecked, the engine answered `Throttle` but left the share at 1.
        replay_rejected(ShareActuator::cpu_percent_point(-0.10, 0.01));
    }

    #[test]
    fn scheduler_weight_actuator_also_throttles() {
        let trace = simulate_response(
            15,
            &[Malicious; 15],
            AssessmentFn::incremental(),
            AssessmentFn::incremental(),
            ShareActuator::scheduler_weight(0.1, 0.01),
        );
        let s = trace.cpu_slowdown_percent();
        assert!(s > 60.0, "Eq. 8 actuator slowdown {s}% too weak");
    }
}
