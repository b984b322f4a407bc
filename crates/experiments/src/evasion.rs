//! Evasion study: can an adaptive attacker game the response framework?
//!
//! The paper's discussion scopes adversarial attacks on the *detector* out
//! of scope; this study asks the complementary question about the
//! *response*: an attacker that knows Valkyrie is deployed can duty-cycle —
//! attack, pause while the compensation mechanism decays its threat index,
//! resume — hoping to keep its resources and dodge termination. Three
//! tables quantify why that does not pay:
//!
//! 1. **Duty-cycle sweep** — progress and termination epoch for a range of
//!    active/dormant patterns against the default configuration. Dormant
//!    epochs still count toward `N*`, so the terminable verdict is not
//!    postponed, and every dormant epoch is progress the attacker forfeits.
//! 2. **Hardening sweep** — the best evasive strategy replayed against
//!    steeper penalty functions: `F_p` is the knob that shrinks the
//!    attacker's viable duty cycle.
//! 3. **Detector-quality tail** — expected post-`N*` progress as a function
//!    of the detector's TPR (the `(1 − p)/p` geometric tail), measured
//!    against the analytic bound.

use crate::attacker::{
    expected_terminable_progress, run_adaptive, AdaptiveScenario, AttackerStrategy, DetectorModel,
    EvasionOutcome,
};
use crate::harness::{fmt, pct, TextTable};
use valkyrie_core::{AssessmentFn, EngineConfig, ShareActuator};

/// Configuration of the evasion study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvasionConfig {
    /// Valkyrie's measurement requirement.
    pub n_star: u64,
    /// Observation horizon, in epochs.
    pub horizon: u64,
    /// Detector true-positive rate while the attacker works.
    pub tpr: f64,
    /// Detector false-positive rate while the attacker sleeps.
    pub fpr: f64,
    /// Trials per stochastic measurement.
    pub trials: u64,
}

impl Default for EvasionConfig {
    fn default() -> Self {
        Self {
            n_star: 30,
            horizon: 120,
            tpr: 0.90,
            fpr: 0.04,
            trials: 30,
        }
    }
}

/// One strategy's measured outcome (mean over trials).
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyRow {
    /// Strategy label.
    pub strategy: String,
    /// Mean attack progress under Valkyrie (unthrottled-epoch units).
    pub progress: f64,
    /// Mean unimpeded progress of the same strategy.
    pub unimpeded: f64,
    /// Mean slowdown, percent.
    pub slowdown_pct: f64,
    /// Fraction of trials in which the attacker was terminated.
    pub terminated_pct: f64,
    /// Mean termination epoch among terminated trials.
    pub mean_termination_epoch: f64,
}

/// Structured result of the evasion study.
#[derive(Debug, Clone)]
pub struct EvasionResult {
    /// Duty-cycle sweep rows.
    pub duty_cycle: Vec<StrategyRow>,
    /// Hardening sweep rows (penalty function label, sawtooth progress).
    pub hardening: Vec<(String, f64)>,
    /// Rendered report.
    pub report: String,
}

fn engine_config(n_star: u64, fp: AssessmentFn) -> EngineConfig {
    EngineConfig::builder()
        .measurements_required(n_star)
        .penalty(fp)
        .compensation(AssessmentFn::incremental())
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .build()
        .expect("static config is valid")
}

pub(crate) fn label(strategy: AttackerStrategy) -> String {
    match strategy {
        AttackerStrategy::AlwaysActive => "always active".into(),
        AttackerStrategy::DutyCycle { active, dormant } => {
            format!("duty cycle {active} on / {dormant} off")
        }
        AttackerStrategy::Sprint { active_epochs } => format!("sprint {active_epochs} epochs"),
        AttackerStrategy::ThreatAdaptive { resume_above } => {
            format!("sawtooth (resume at {:.0}% share)", resume_above * 100.0)
        }
    }
}

fn measure(
    config: &EngineConfig,
    mut strategy: AttackerStrategy,
    cfg: &EvasionConfig,
) -> StrategyRow {
    let detector = DetectorModel::new(cfg.tpr, cfg.fpr).expect("rates validated by config");
    let stats = trials(cfg.trials, 0xE7A, |seed| {
        let scenario = AdaptiveScenario::new(detector, cfg.horizon).with_seed(seed);
        run_adaptive(config, &scenario, &mut strategy)
    });
    StrategyRow {
        strategy: label(strategy),
        progress: stats.progress,
        unimpeded: stats.unimpeded,
        slowdown_pct: if stats.unimpeded > 0.0 {
            (1.0 - stats.progress / stats.unimpeded) * 100.0
        } else {
            0.0
        },
        terminated_pct: stats.killed_pct,
        mean_termination_epoch: stats.mean_kill_epoch,
    }
}

/// Means over a study's seeded replays; `mean_kill_epoch` is NaN when no
/// trial ended in termination.
pub(crate) struct TrialStats {
    pub(crate) progress: f64,
    pub(crate) unimpeded: f64,
    pub(crate) killed_pct: f64,
    pub(crate) mean_kill_epoch: f64,
}

/// Averages `run(seed)` over the seeds `seed_base .. seed_base + trials`.
pub(crate) fn trials(
    trials: u64,
    seed_base: u64,
    mut run: impl FnMut(u64) -> EvasionOutcome,
) -> TrialStats {
    let (mut progress, mut unimpeded) = (0.0, 0.0);
    let mut killed = 0u64;
    let mut kill_epoch_sum = 0.0;
    for seed in seed_base..seed_base + trials {
        let out = run(seed);
        progress += out.progress;
        unimpeded += out.unimpeded;
        if let Some(epoch) = out.terminated_at {
            killed += 1;
            kill_epoch_sum += epoch as f64;
        }
    }
    let n = trials as f64;
    TrialStats {
        progress: progress / n,
        unimpeded: unimpeded / n,
        killed_pct: 100.0 * killed as f64 / n,
        mean_kill_epoch: if killed > 0 {
            kill_epoch_sum / killed as f64
        } else {
            f64::NAN
        },
    }
}

/// The strategies swept by [`run`].
pub fn strategies(n_star: u64) -> Vec<AttackerStrategy> {
    vec![
        AttackerStrategy::AlwaysActive,
        AttackerStrategy::DutyCycle {
            active: 1,
            dormant: 1,
        },
        AttackerStrategy::DutyCycle {
            active: 1,
            dormant: 3,
        },
        AttackerStrategy::DutyCycle {
            active: 3,
            dormant: 1,
        },
        AttackerStrategy::Sprint {
            active_epochs: n_star / 2,
        },
        AttackerStrategy::ThreatAdaptive { resume_above: 0.95 },
        AttackerStrategy::ThreatAdaptive { resume_above: 0.70 },
    ]
}

/// Runs the full evasion study.
pub fn run(cfg: &EvasionConfig) -> EvasionResult {
    let base = engine_config(cfg.n_star, AssessmentFn::incremental());

    let duty_cycle: Vec<StrategyRow> = strategies(cfg.n_star)
        .into_iter()
        .map(|s| measure(&base, s, cfg))
        .collect();

    // Hardening: the most evasive strategy from the sweep, replayed under
    // steeper penalty functions.
    let sawtooth = AttackerStrategy::ThreatAdaptive { resume_above: 0.70 };
    let hardening: Vec<(String, f64)> = [
        ("incremental (x + 1)", AssessmentFn::incremental()),
        ("linear (1.5x + 1)", AssessmentFn::linear(1.5, 1.0)),
        ("linear (x + 3)", AssessmentFn::linear(1.0, 3.0)),
        ("exponential (2ix + 1)", AssessmentFn::exponential(2.0)),
    ]
    .into_iter()
    .map(|(name, f)| {
        let row = measure(&engine_config(cfg.n_star, f), sawtooth, cfg);
        (name.to_string(), row.progress)
    })
    .collect();

    let mut t1 = TextTable::new(vec![
        "strategy",
        "progress",
        "unimpeded",
        "slowdown",
        "terminated",
        "mean kill epoch",
    ]);
    for r in &duty_cycle {
        t1.row(vec![
            r.strategy.clone(),
            fmt(r.progress, 1),
            fmt(r.unimpeded, 1),
            pct(r.slowdown_pct),
            pct(r.terminated_pct),
            if r.mean_termination_epoch.is_nan() {
                "-".into()
            } else {
                fmt(r.mean_termination_epoch, 1)
            },
        ]);
    }
    let mut t2 = TextTable::new(vec!["penalty function", "sawtooth progress"]);
    for (name, p) in &hardening {
        t2.row(vec![name.clone(), fmt(*p, 2)]);
    }
    let mut t3 = TextTable::new(vec!["detector TPR", "expected post-N* progress"]);
    for tpr in [0.5, 0.7, 0.9, 0.95, 0.99, 1.0] {
        t3.row(vec![
            pct(tpr * 100.0),
            fmt(expected_terminable_progress(tpr), 2),
        ]);
    }
    let report = format!(
        "Evasion study — N* = {}, horizon {} epochs, detector TPR {:.0}% / FPR {:.0}%, \
         {} trials\n\n\
         1. Duty-cycle sweep (progress in unthrottled-epoch units):\n\n{}\n\
         2. Penalty-function hardening (sawtooth attacker):\n\n{}\n\
         3. Geometric tail after N* — analytic (1-p)/p bound:\n\n{}",
        cfg.n_star,
        cfg.horizon,
        cfg.tpr * 100.0,
        cfg.fpr * 100.0,
        cfg.trials,
        t1.render(),
        t2.render(),
        t3.render()
    );

    EvasionResult {
        duty_cycle,
        hardening,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> EvasionConfig {
        EvasionConfig {
            trials: 8,
            horizon: 80,
            ..EvasionConfig::default()
        }
    }

    fn row<'a>(r: &'a EvasionResult, prefix: &str) -> &'a StrategyRow {
        r.duty_cycle
            .iter()
            .find(|x| x.strategy.starts_with(prefix))
            .unwrap()
    }

    #[test]
    fn no_strategy_beats_the_always_active_unimpeded_baseline() {
        let r = run(&quick());
        for row in &r.duty_cycle {
            assert!(
                row.progress <= row.unimpeded + 1e-9,
                "{} progressed past its own baseline",
                row.strategy
            );
        }
    }

    #[test]
    fn duty_cycling_trades_progress_for_survival() {
        let r = run(&quick());
        let always = row(&r, "always active");
        let sparse = row(&r, "duty cycle 1 on / 3 off");
        // The sparse attacker is flagged less often …
        assert!(sparse.terminated_pct <= always.terminated_pct + 1e-9);
        // … but achieves less absolute progress than the always-active one.
        assert!(sparse.progress < always.progress + always.unimpeded * 0.5);
        // Its own duty cycle already forfeits 3/4 of the horizon.
        assert!(sparse.unimpeded < 0.30 * 80.0);
    }

    #[test]
    fn every_aggressive_strategy_is_terminated() {
        let r = run(&quick());
        for prefix in ["always active", "duty cycle 3 on / 1 off"] {
            let row = row(&r, prefix);
            assert!(
                row.terminated_pct > 90.0,
                "{} survived too often: {}%",
                row.strategy,
                row.terminated_pct
            );
        }
    }

    #[test]
    fn hardening_monotonically_reduces_sawtooth_progress() {
        let r = run(&quick());
        let inc = r.hardening[0].1;
        let exp = r.hardening[3].1;
        assert!(exp <= inc + 1e-9, "exp {exp} vs inc {inc}");
    }

    #[test]
    fn report_contains_all_sections() {
        let r = run(&quick());
        for key in [
            "Duty-cycle sweep",
            "hardening",
            "Geometric tail",
            "sawtooth",
        ] {
            assert!(r.report.contains(key), "missing {key}");
        }
    }
}
