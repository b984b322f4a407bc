//! Non-throttling post-detection baselines from the paper's Table I /
//! Section III, for head-to-head comparison with Valkyrie.
//!
//! * [`ConsecutiveTermination`] — Mushtaq et al. \[48\] terminate a process
//!   once it is classified malicious `k` times *consecutively* (the paper
//!   discusses `k = 3`, which reduced wrongly-terminated benign processes
//!   "from 5 % to under 3 %"). Satisfies R1, fails R2: benign processes are
//!   still killed, just less often, and the choice of `k` "is arbitrary and
//!   can not be generalized across detectors".
//! * [`WarningOnly`] — Kulah et al. \[38\] merely alert the user. Fails R1
//!   (the attack keeps running at full speed) and leaves R2 to the human.
//! * [`PriorityReduction`] — Payer \[53\] offers a reduction of the execution
//!   priority instead of termination. Satisfies R2 but "may not satisfy R1
//!   as it can allow attacks to execute endlessly".
//! * [`DramRefresh`] — Aweke et al. \[14\] / Yağlıkçı et al. \[65\] respond to a
//!   detected rowhammer by refreshing the victim rows. Satisfies R1 *and*
//!   R2 — but only for rowhammer ("the response specifically targets
//!   rowhammer and is not applicable to other attacks").

use valkyrie_core::Classification;

/// Terminate after `k` consecutive malicious classifications.
///
/// # Examples
///
/// ```
/// use valkyrie_experiments::baselines::ConsecutiveTermination;
/// use valkyrie_core::Classification::{self, *};
/// let outcome = ConsecutiveTermination::new(3)
///     .run(&[Malicious, Malicious, Benign, Malicious, Malicious, Malicious, Benign]);
/// assert_eq!(outcome.terminated_at, Some(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsecutiveTermination {
    k: u32,
}

/// The result of replaying an inference trace through a baseline policy.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineOutcome {
    /// Per-epoch progress (1.0 per epoch until termination, 0.0 after).
    pub progress: Vec<f64>,
    /// Epoch index at which the process was terminated, if it was.
    pub terminated_at: Option<usize>,
}

impl BaselineOutcome {
    /// Total progress achieved.
    pub fn total_progress(&self) -> f64 {
        self.progress.iter().sum()
    }

    /// Whether the process survived the whole trace.
    pub fn survived(&self) -> bool {
        self.terminated_at.is_none()
    }
}

impl ConsecutiveTermination {
    /// A policy requiring `k ≥ 1` consecutive malicious classifications.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1, "need at least one classification to terminate");
        Self { k }
    }

    /// Replays an inference trace; the process runs at full speed until the
    /// k-th consecutive malicious inference terminates it.
    pub fn run(&self, inferences: &[Classification]) -> BaselineOutcome {
        let mut streak = 0u32;
        let mut progress = Vec::with_capacity(inferences.len());
        let mut terminated_at = None;
        for (i, c) in inferences.iter().enumerate() {
            if terminated_at.is_some() {
                progress.push(0.0);
                continue;
            }
            streak = if c.is_malicious() { streak + 1 } else { 0 };
            if streak >= self.k {
                terminated_at = Some(i);
                progress.push(0.0);
            } else {
                progress.push(1.0);
            }
        }
        BaselineOutcome {
            progress,
            terminated_at,
        }
    }

    /// Probability that a benign process with per-epoch false-positive rate
    /// `p` survives `n` epochs (no k-streak occurs), computed by dynamic
    /// programming over streak lengths.
    pub fn benign_survival_probability(&self, p: f64, n: usize) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let k = self.k as usize;
        // state[s] = probability of being alive with current streak s.
        let mut state = vec![0.0_f64; k];
        state[0] = 1.0;
        for _ in 0..n {
            let mut next = vec![0.0_f64; k];
            for (s, &prob) in state.iter().enumerate() {
                if prob == 0.0 {
                    continue;
                }
                // Benign epoch resets the streak.
                next[0] += prob * (1.0 - p);
                // Malicious epoch extends it; reaching k kills the process.
                if s + 1 < k {
                    next[s + 1] += prob * p;
                }
            }
            state = next;
        }
        state.iter().sum()
    }
}

/// The warning-only response: nothing is ever throttled or terminated.
///
/// # Examples
///
/// ```
/// use valkyrie_experiments::baselines::WarningOnly;
/// use valkyrie_core::Classification::{self, *};
/// let outcome = WarningOnly.run(&[Malicious, Benign, Malicious]);
/// assert!(outcome.survived());
/// assert_eq!(outcome.total_progress(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarningOnly;

impl WarningOnly {
    /// Replays a trace: full progress, never terminated.
    pub fn run(&self, inferences: &[Classification]) -> BaselineOutcome {
        BaselineOutcome {
            progress: vec![1.0; inferences.len()],
            terminated_at: None,
        }
    }
}

/// The priority-reduction response of Payer \[53\]: on the first malicious
/// classification, the process's execution priority is lowered — once — and
/// it then runs at a reduced rate forever. It is never terminated.
///
/// This is the permanent-nice-level counterpart to Valkyrie's *graduated*
/// throttling: benign false positives are punished for the rest of their
/// run (partial R2), and an attack still executes endlessly at the reduced
/// rate (R1 fails for any attack whose objective has no deadline).
///
/// # Examples
///
/// ```
/// use valkyrie_experiments::baselines::PriorityReduction;
/// use valkyrie_core::Classification::{self, *};
/// let outcome = PriorityReduction::new(0.25).run(&[Benign, Malicious, Benign, Benign]);
/// assert!(outcome.survived());
/// assert_eq!(outcome.total_progress(), 1.0 + 0.25 * 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityReduction {
    reduced_share: f64,
}

impl PriorityReduction {
    /// A policy that pins the process at `reduced_share` of its normal
    /// progress rate after the first detection (clamped into `[0, 1]`).
    pub fn new(reduced_share: f64) -> Self {
        Self {
            reduced_share: reduced_share.clamp(0.0, 1.0),
        }
    }

    /// The post-detection progress rate.
    pub fn reduced_share(&self) -> f64 {
        self.reduced_share
    }

    /// Replays an inference trace: full speed until the first malicious
    /// classification, `reduced_share` per epoch from then on, no recovery
    /// and no termination.
    pub fn run(&self, inferences: &[Classification]) -> BaselineOutcome {
        let mut reduced = false;
        let progress = inferences
            .iter()
            .map(|c| {
                let p = if reduced { self.reduced_share } else { 1.0 };
                if c.is_malicious() {
                    reduced = true;
                    // The detection epoch itself already runs de-prioritised.
                    return self.reduced_share;
                }
                p
            })
            .collect();
        BaselineOutcome {
            progress,
            terminated_at: None,
        }
    }
}

/// The DRAM-refresh response (ANVIL \[14\] / BlockHammer \[65\] style): every
/// malicious classification triggers a targeted refresh of the victim rows,
/// wiping the attacker's *accumulated* disturbance. The attack only lands a
/// bit flip if it can hammer for `flip_threshold` consecutive undetected
/// epochs.
///
/// This response satisfies both R1 and R2 — benign processes pay only the
/// (negligible) refresh cost — but it is meaningless for any attack other
/// than rowhammer, which is exactly the paper's Table I argument for a
/// general-purpose response framework.
///
/// # Examples
///
/// ```
/// use valkyrie_experiments::baselines::DramRefresh;
/// use valkyrie_core::Classification::{self, *};
/// let policy = DramRefresh::new(3);
/// // 2 undetected epochs, refresh, 3 undetected epochs → exactly one flip.
/// let out = policy.run(&[Benign, Benign, Malicious, Benign, Benign, Benign]);
/// assert_eq!(out.flips, 1);
/// assert_eq!(out.refreshes, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRefresh {
    flip_threshold: u32,
}

/// Outcome of replaying a hammer-epoch trace through [`DramRefresh`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshOutcome {
    /// Bit flips the attack landed despite the response.
    pub flips: u64,
    /// Targeted refreshes issued (one per malicious classification).
    pub refreshes: u64,
}

impl DramRefresh {
    /// A policy for a DRAM whose rows flip after `flip_threshold ≥ 1`
    /// consecutive un-refreshed hammer epochs.
    ///
    /// # Panics
    ///
    /// Panics if `flip_threshold` is zero (a row that flips with no
    /// hammering is a broken DIMM, not a policy question).
    pub fn new(flip_threshold: u32) -> Self {
        assert!(flip_threshold >= 1, "flip threshold must be at least one");
        Self { flip_threshold }
    }

    /// Replays a trace in which the attacker hammers every epoch; each
    /// malicious classification refreshes the victim rows and resets the
    /// disturbance accumulator.
    pub fn run(&self, inferences: &[Classification]) -> RefreshOutcome {
        let mut out = RefreshOutcome::default();
        let mut accumulated = 0u32;
        for c in inferences {
            if c.is_malicious() {
                out.refreshes += 1;
                accumulated = 0;
            } else {
                accumulated += 1;
                if accumulated == self.flip_threshold {
                    out.flips += 1;
                    accumulated = 0;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Classification::{Benign, Malicious};

    #[test]
    fn streak_must_be_consecutive() {
        let p = ConsecutiveTermination::new(3);
        let out = p.run(&[Malicious, Malicious, Benign, Malicious, Malicious, Benign]);
        assert!(out.survived());
        assert_eq!(out.total_progress(), 6.0);
    }

    #[test]
    fn attack_is_terminated_at_kth_epoch() {
        let p = ConsecutiveTermination::new(3);
        let out = p.run(&[Malicious; 10]);
        assert_eq!(out.terminated_at, Some(2));
        assert_eq!(out.total_progress(), 2.0);
    }

    #[test]
    fn k_equals_one_is_immediate_termination() {
        let p = ConsecutiveTermination::new(1);
        let out = p.run(&[Benign, Malicious, Benign]);
        assert_eq!(out.terminated_at, Some(1));
    }

    #[test]
    fn survival_probability_matches_simulation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let policy = ConsecutiveTermination::new(3);
        let (p, n) = (0.3, 50);
        let analytic = policy.benign_survival_probability(p, n);
        let mut rng = StdRng::seed_from_u64(123);
        let trials = 20_000;
        let mut survived = 0;
        for _ in 0..trials {
            let trace: Vec<Classification> = (0..n)
                .map(|_| {
                    if rng.gen::<f64>() < p {
                        Classification::Malicious
                    } else {
                        Classification::Benign
                    }
                })
                .collect();
            if policy.run(&trace).survived() {
                survived += 1;
            }
        }
        let empirical = survived as f64 / trials as f64;
        assert!(
            (analytic - empirical).abs() < 0.02,
            "analytic {analytic} vs empirical {empirical}"
        );
    }

    #[test]
    fn paper_narrative_blender_r_survival() {
        // Section VI-A: with a termination response, blender_r (30% FP
        // epochs) "would have been terminated with a probability of 0.3"
        // per verdict; over a long run with the 3-consecutive rule the
        // survival probability collapses too.
        let policy = ConsecutiveTermination::new(3);
        let survival = policy.benign_survival_probability(0.30, 300);
        assert!(
            survival < 0.01,
            "blender_r survives 300 epochs with p = {survival}"
        );
        // Valkyrie's answer: 0 wrongful terminations (tests/end_to_end.rs).
    }

    #[test]
    fn survival_probability_edge_cases() {
        let p = ConsecutiveTermination::new(3);
        assert_eq!(p.benign_survival_probability(0.0, 100), 1.0);
        assert!(p.benign_survival_probability(1.0, 3) < 1e-12);
        assert_eq!(p.benign_survival_probability(0.5, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_k_panics() {
        let _ = ConsecutiveTermination::new(0);
    }

    #[test]
    fn priority_reduction_is_permanent() {
        let p = PriorityReduction::new(0.5);
        let out = p.run(&[Benign, Malicious, Benign, Benign, Benign]);
        assert!(out.survived());
        assert_eq!(out.progress, vec![1.0, 0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn priority_reduction_never_terminates_an_attack() {
        // R1 failure: the attack executes endlessly at the reduced rate.
        let p = PriorityReduction::new(0.1);
        let out = p.run(&[Malicious; 100]);
        assert!(out.survived());
        assert!((out.total_progress() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn priority_reduction_clamps_share() {
        assert_eq!(PriorityReduction::new(2.0).reduced_share(), 1.0);
        assert_eq!(PriorityReduction::new(-1.0).reduced_share(), 0.0);
    }

    #[test]
    fn dram_refresh_prevents_flips_when_detection_is_frequent() {
        // Detected every other epoch; threshold 3 → the accumulator never
        // reaches 3.
        let policy = DramRefresh::new(3);
        let trace: Vec<Classification> = (0..40)
            .map(|i| if i % 2 == 0 { Malicious } else { Benign })
            .collect();
        let out = policy.run(&trace);
        assert_eq!(out.flips, 0);
        assert_eq!(out.refreshes, 20);
    }

    #[test]
    fn dram_refresh_misses_flips_when_detection_gaps_exceed_threshold() {
        let policy = DramRefresh::new(2);
        let out = policy.run(&[Benign, Benign, Benign, Benign, Malicious]);
        assert_eq!(out.flips, 2);
        assert_eq!(out.refreshes, 1);
    }

    #[test]
    fn dram_refresh_undetected_attack_flips_freely() {
        let policy = DramRefresh::new(29);
        let out = policy.run(&[Benign; 290]);
        assert_eq!(out.flips, 10);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_flip_threshold_panics() {
        let _ = DramRefresh::new(0);
    }
}
