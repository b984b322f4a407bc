//! Adaptive best-response study: rank response laws by *worst-case* efficacy.
//!
//! The evasion study ([`crate::evasion`]) sweeps a fixed roster of attacker
//! strategies — an *average-case* view of the response's robustness. This
//! study closes the loop: per response law it runs a deterministic
//! best-response search (exhaustive grid + coordinate refinement, from
//! `valkyrie_workloads::adaptive`) over the parameters of a *learning*
//! attacker, and reports the law's efficacy **floor** — the least slowdown
//! any attacker in the searched family can be held to.
//!
//! Two attacker families are searched:
//!
//! * Against the binary observe path (five [`ThrottleLaw`] variants, each
//!   under incremental and exponential penalty hardening) an
//!   [`IntensityModulator`]: graded effort with share-triggered hysteresis
//!   and a scheduled quiet phase around the attacker's `N*` guess.
//! * Against the mass path's [`EscalationLadder`] configurations a
//!   [`MassRider`]: effort chosen by inverting the detector response so the
//!   expected fused mass rides just below an escalation rung.
//!
//! A second table exercises the [`LawProbe`]: a calibrated three-epoch burst
//! against each law, checking that the probe re-identifies the deployed
//! family and parameter from share responses alone, plus the floor achieved
//! by the full probe→calibrate→modulate closed loop.

use crate::attacker::{
    run_adaptive, run_adaptive_mass, AdaptiveScenario, AdaptiveStrategy, ConstantIntensity,
    DetectorModel, EvasionOutcome, IntensityModulator, LawProbe, MassRider,
};
use crate::evasion::{trials, TrialStats};
use crate::harness::{fmt, pct, TextTable};
use valkyrie_core::monitor::{EscalationLadder, EscalationLevel};
use valkyrie_core::{
    AssessmentFn, EngineConfig, FusionConfig, ResourceKind, ShareActuator, ThrottleLaw,
};
use valkyrie_workloads::{best_response, ParamSpec};

/// Configuration of the adaptive best-response study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Valkyrie's measurement requirement.
    pub n_star: u64,
    /// Observation horizon, in epochs.
    pub horizon: u64,
    /// Detector true-positive rate at full attack intensity.
    pub tpr: f64,
    /// Detector false-positive rate at zero intensity.
    pub fpr: f64,
    /// Confidence jitter half-width for the mass path.
    pub noise: f64,
    /// Trials per objective evaluation.
    pub trials: u64,
    /// Shrinks the search grids and refinement schedule for CI.
    pub quick: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            n_star: 30,
            horizon: 120,
            tpr: 0.90,
            fpr: 0.04,
            noise: 0.05,
            trials: 12,
            quick: false,
        }
    }
}

impl AdaptiveConfig {
    /// The CI configuration: coarser grids, shorter horizon, fewer trials.
    pub fn quick() -> Self {
        Self {
            horizon: 80,
            trials: 6,
            quick: true,
            ..Self::default()
        }
    }
}

/// One response law's worst-case ranking entry.
#[derive(Debug, Clone, PartialEq)]
pub struct LawRow {
    /// Defense label (law + penalty, or ladder configuration).
    pub label: String,
    /// Efficacy floor against the best-response attacker, percent of the
    /// horizon denied (higher = stronger law).
    pub worst_floor_pct: f64,
    /// Mean progress of the best-response attacker found.
    pub adaptive_progress: f64,
    /// Fraction of trials in which that attacker was terminated.
    pub killed_pct: f64,
    /// Mean termination epoch among terminated trials (NaN when none).
    pub mean_kill_epoch: f64,
    /// The winning parameter vector, in spec order.
    pub best_params: Vec<f64>,
    /// Human-readable description of the winning strategy.
    pub strategy_desc: String,
    /// The strongest *fixed* strategy from the evasion roster.
    pub fixed_best_label: String,
    /// Efficacy floor against that fixed strategy.
    pub fixed_best_floor_pct: f64,
    /// How many efficacy points the adaptive attacker shaves off the
    /// average-case (fixed-roster) floor.
    pub gap_pts: f64,
}

/// One law-probe identification entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRow {
    /// Deployed law label.
    pub label: String,
    /// Family name the probe estimated ("none" if it found nothing).
    pub family: String,
    /// Estimated law parameter.
    pub estimated: f64,
    /// True law parameter.
    pub truth: f64,
    /// Whether family matched and the parameter was within 0.02.
    pub hit: bool,
    /// Efficacy floor against the probe→calibrate→modulate closed loop.
    pub closed_loop_floor_pct: f64,
}

/// Structured result of the adaptive study.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// Ranking rows, sorted by descending worst-case floor.
    pub rows: Vec<LawRow>,
    /// Probe identification rows, one per law family.
    pub probe: Vec<ProbeRow>,
    /// Rendered report.
    pub report: String,
}

/// Which observe path a defense runs on.
#[derive(Debug, Clone)]
enum DefensePath {
    /// Binary classifications through `ValkyrieEngine::observe`.
    Binary,
    /// Fused-mass confidences through `observe_mass`, under this ladder.
    Ladder(EscalationLadder),
}

#[derive(Debug, Clone)]
struct Defense {
    label: String,
    config: EngineConfig,
    path: DefensePath,
}

/// The five canonical throttle-law configurations under study.
fn laws() -> [(&'static str, ThrottleLaw); 5] {
    [
        (
            "pp 0.10/unit",
            ThrottleLaw::PercentPointPerUnit { step: 0.10 },
        ),
        (
            "mult 0.90/unit",
            ThrottleLaw::MultiplicativePerUnit { factor: 0.90 },
        ),
        (
            "mult 0.70/event",
            ThrottleLaw::MultiplicativePerEvent { factor: 0.70 },
        ),
        ("halve/event", ThrottleLaw::HalvePerEvent),
        ("sched g=0.10", ThrottleLaw::SchedulerWeight { gamma: 0.10 }),
    ]
}

fn binary_config(n_star: u64, law: ThrottleLaw, fp: AssessmentFn) -> EngineConfig {
    EngineConfig::builder()
        .measurements_required(n_star)
        .penalty(fp)
        .compensation(AssessmentFn::incremental())
        .actuator(ShareActuator::new(ResourceKind::Cpu, law, 0.01))
        .build()
        .expect("static config is valid")
}

fn ladder_config(n_star: u64, ladder: EscalationLadder) -> EngineConfig {
    EngineConfig::builder()
        .measurements_required(n_star)
        .penalty(AssessmentFn::incremental())
        .compensation(AssessmentFn::incremental())
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .fusion(FusionConfig {
            ladder,
            ..FusionConfig::default()
        })
        .build()
        .expect("static config is valid")
}

fn defenses(cfg: &AdaptiveConfig) -> Vec<Defense> {
    let penalties = [
        ("inc", AssessmentFn::incremental()),
        ("exp2", AssessmentFn::exponential(2.0)),
    ];
    let mut out = Vec::new();
    for (name, law) in laws() {
        for (pname, fp) in &penalties {
            out.push(Defense {
                label: format!("{name} + {pname}"),
                config: binary_config(cfg.n_star, law, *fp),
                path: DefensePath::Binary,
            });
        }
    }
    for (name, ladder) in [
        ("ladder graduated", EscalationLadder::graduated()),
        ("ladder binary", EscalationLadder::BINARY),
    ] {
        out.push(Defense {
            label: name.to_string(),
            config: ladder_config(cfg.n_star, ladder),
            path: DefensePath::Ladder(ladder),
        });
    }
    out
}

/// Averages `run(seed)` over the study's trial seeds.
fn collect(cfg: &AdaptiveConfig, run: impl FnMut(u64) -> EvasionOutcome) -> TrialStats {
    trials(cfg.trials, 0xADA, run)
}

/// Efficacy floor: the percentage of the horizon denied to the attacker.
fn floor_pct(progress: f64, horizon: u64) -> f64 {
    (1.0 - progress / horizon as f64) * 100.0
}

/// Runs one adaptive strategy against a defense over all trial seeds.
fn run_strategy(
    defense: &Defense,
    cfg: &AdaptiveConfig,
    detector: DetectorModel,
    strategy: &mut dyn AdaptiveStrategy,
) -> TrialStats {
    collect(cfg, |seed| {
        let scenario = AdaptiveScenario::new(detector, cfg.horizon)
            .with_seed(seed)
            .with_noise(cfg.noise);
        match defense.path {
            DefensePath::Binary => run_adaptive(&defense.config, &scenario, strategy),
            DefensePath::Ladder(_) => run_adaptive_mass(&defense.config, &scenario, strategy),
        }
    })
}

/// Search space for the hysteresis modulator (binary path):
/// `[attack_intensity, pause_below, resume_above, quiet_frac, terminal]`.
fn modulator_specs(quick: bool) -> Vec<ParamSpec> {
    if quick {
        vec![
            ParamSpec::new("intensity", vec![0.6, 1.0]),
            ParamSpec::new("pause<", vec![0.2, 0.5]),
            ParamSpec::new("resume>=", vec![0.6, 0.9]),
            ParamSpec::new("quiet/N*", vec![0.5, 1.0, 4.0]),
            ParamSpec::new("terminal", vec![0.0, 0.1]),
        ]
    } else {
        vec![
            ParamSpec::new("intensity", vec![0.5, 0.75, 1.0]),
            ParamSpec::new("pause<", vec![0.1, 0.3, 0.5]),
            ParamSpec::new("resume>=", vec![0.5, 0.75, 0.95]),
            ParamSpec::new("quiet/N*", vec![0.4, 0.7, 1.0, 4.0]),
            ParamSpec::new("terminal", vec![0.0, 0.05, 0.15]),
        ]
    }
}

fn modulator_from(params: &[f64], n_star: u64) -> IntensityModulator {
    IntensityModulator::new(
        params[0],
        params[1],
        params[2],
        (params[3] * n_star as f64).round() as u64,
        params[4],
    )
}

fn modulator_desc(params: &[f64], n_star: u64) -> String {
    format!(
        "mod i{:.2} p{:.2} r{:.2} q@{} t{:.2}",
        params[0],
        params[1],
        params[2],
        (params[3] * n_star as f64).round() as u64,
        params[4]
    )
}

/// Search space for the mass rider (ladder path):
/// `[target_mass, quiet_frac, terminal_mass]`. The target grid is derived
/// from the deployed ladder's own rung boundaries.
fn rider_specs(ladder: &EscalationLadder, quick: bool) -> Vec<ParamSpec> {
    let mut targets = vec![
        ladder.ride_below(EscalationLevel::Throttle, 0.02),
        ladder.ride_below(EscalationLevel::Throttle, 0.10),
        ladder.ride_below(EscalationLevel::Kill, 0.02),
        (ladder.compensate_below - 0.02).max(0.0),
    ];
    targets.sort_by(|a, b| a.partial_cmp(b).expect("boundaries are finite"));
    targets.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    vec![
        ParamSpec::new("target", targets),
        ParamSpec::new(
            "quiet/N*",
            if quick {
                vec![1.0, 4.0]
            } else {
                vec![0.5, 1.0, 4.0]
            },
        ),
        ParamSpec::new("terminal", vec![0.0, 0.3]),
    ]
}

fn rider_from(params: &[f64], detector: DetectorModel, n_star: u64) -> MassRider {
    MassRider::new(
        detector,
        params[0],
        (params[1] * n_star as f64).round() as u64,
        params[2],
    )
}

fn rider_desc(params: &[f64], n_star: u64) -> String {
    format!(
        "ride m{:.2} q@{} t{:.2}",
        params[0],
        (params[1] * n_star as f64).round() as u64,
        params[2]
    )
}

/// Ranks one defense: fixed-roster baseline, then the best-response search.
fn rank_defense(defense: &Defense, cfg: &AdaptiveConfig, detector: DetectorModel) -> LawRow {
    // 1. The strongest fixed strategy from the evasion roster, replayed on
    //    the same seeds (average-case baseline).
    let mut fixed_best: Option<(String, f64)> = None;
    for strategy in crate::evasion::strategies(cfg.n_star) {
        let mut adapter = strategy;
        let progress = run_strategy(defense, cfg, detector, &mut adapter).progress;
        let better = fixed_best.as_ref().is_none_or(|(_, best)| progress > *best);
        if better {
            fixed_best = Some((crate::evasion::label(strategy), progress));
        }
    }
    let (fixed_best_label, fixed_progress) = fixed_best.expect("roster is non-empty");

    // 2. Best-response search over the adaptive family for this path.
    let rounds = if cfg.quick { 1 } else { 2 };
    let (found, strategy_desc, stats) = match &defense.path {
        DefensePath::Binary => {
            let specs = modulator_specs(cfg.quick);
            let mut eval = |p: &[f64]| {
                let mut m = modulator_from(p, cfg.n_star);
                run_strategy(defense, cfg, detector, &mut m).progress
            };
            let found = best_response(&specs, rounds, &mut eval);
            let mut winner = modulator_from(&found.params, cfg.n_star);
            let stats = run_strategy(defense, cfg, detector, &mut winner);
            let desc = modulator_desc(&found.params, cfg.n_star);
            (found, desc, stats)
        }
        DefensePath::Ladder(ladder) => {
            let specs = rider_specs(ladder, cfg.quick);
            let mut eval = |p: &[f64]| {
                let mut r = rider_from(p, detector, cfg.n_star);
                run_strategy(defense, cfg, detector, &mut r).progress
            };
            let found = best_response(&specs, rounds, &mut eval);
            let mut winner = rider_from(&found.params, detector, cfg.n_star);
            let stats = run_strategy(defense, cfg, detector, &mut winner);
            let desc = rider_desc(&found.params, cfg.n_star);
            (found, desc, stats)
        }
    };

    let worst_floor_pct = floor_pct(stats.progress, cfg.horizon);
    let fixed_best_floor_pct = floor_pct(fixed_progress, cfg.horizon);
    LawRow {
        label: defense.label.clone(),
        worst_floor_pct,
        adaptive_progress: stats.progress,
        killed_pct: stats.killed_pct,
        mean_kill_epoch: stats.mean_kill_epoch,
        best_params: found.params,
        strategy_desc,
        fixed_best_label,
        fixed_best_floor_pct,
        gap_pts: fixed_best_floor_pct - worst_floor_pct,
    }
}

/// Probe identification: a calibrated burst against each law under a perfect
/// detector, plus the floor the full closed loop achieves under the study
/// detector.
fn probe_table(cfg: &AdaptiveConfig, detector: DetectorModel) -> Vec<ProbeRow> {
    laws()
        .into_iter()
        .map(|(name, law)| {
            let config = binary_config(cfg.n_star, law, AssessmentFn::incremental());
            let mut probe = LawProbe::new(3, ConstantIntensity(0.0));
            let scenario = AdaptiveScenario::new(DetectorModel::perfect(), 8);
            let _ = run_adaptive(&config, &scenario, &mut probe);
            let (family, estimated, hit) = match probe.estimate() {
                Some(est) => (
                    est.law.family().name().to_string(),
                    est.law.parameter(),
                    est.law.family() == law.family()
                        && (est.law.parameter() - law.parameter()).abs() < 0.02,
                ),
                None => ("none".to_string(), f64::NAN, false),
            };
            let mut closed =
                LawProbe::new(3, IntensityModulator::new(1.0, 0.3, 0.8, cfg.n_star, 0.0));
            let stats = collect(cfg, |seed| {
                let scenario = AdaptiveScenario::new(detector, cfg.horizon).with_seed(seed);
                run_adaptive(&config, &scenario, &mut closed)
            });
            ProbeRow {
                label: name.to_string(),
                family,
                estimated,
                truth: law.parameter(),
                hit,
                closed_loop_floor_pct: floor_pct(stats.progress, cfg.horizon),
            }
        })
        .collect()
}

/// Runs the full adaptive best-response study.
pub fn run(cfg: &AdaptiveConfig) -> AdaptiveResult {
    let detector = DetectorModel::new(cfg.tpr, cfg.fpr).expect("rates validated by config");

    let mut rows: Vec<LawRow> = defenses(cfg)
        .iter()
        .map(|d| rank_defense(d, cfg, detector))
        .collect();
    rows.sort_by(|a, b| {
        b.worst_floor_pct
            .partial_cmp(&a.worst_floor_pct)
            .expect("floors are finite")
            .then_with(|| a.label.cmp(&b.label))
    });

    let probe = probe_table(cfg, detector);

    let mut t1 = TextTable::new(vec![
        "defense",
        "worst floor",
        "best response",
        "killed",
        "kill epoch",
        "best fixed",
        "fixed floor",
        "gap",
    ]);
    for r in &rows {
        t1.row(vec![
            r.label.clone(),
            pct(r.worst_floor_pct),
            r.strategy_desc.clone(),
            pct(r.killed_pct),
            if r.mean_kill_epoch.is_nan() {
                "-".into()
            } else {
                fmt(r.mean_kill_epoch, 1)
            },
            r.fixed_best_label.clone(),
            pct(r.fixed_best_floor_pct),
            format!("{:+.1}", r.gap_pts),
        ]);
    }

    let mut t2 = TextTable::new(vec![
        "deployed law",
        "probe estimate",
        "est param",
        "true param",
        "hit",
        "closed-loop floor",
    ]);
    for r in &probe {
        t2.row(vec![
            r.label.clone(),
            r.family.clone(),
            if r.estimated.is_nan() {
                "-".into()
            } else {
                fmt(r.estimated, 3)
            },
            fmt(r.truth, 3),
            if r.hit { "yes".into() } else { "NO".into() },
            pct(r.closed_loop_floor_pct),
        ]);
    }

    let report = format!(
        "Adaptive best-response study — N* = {}, horizon {} epochs, detector TPR {:.0}% / \
         FPR {:.0}%, mass noise +-{:.2}, {} trials per evaluation\n\n\
         1. Worst-case ranking — per defense, the efficacy floor against the best \
         adaptive attacker found (grid + coordinate descent), vs the strongest fixed \
         strategy from the evasion roster ('gap' = efficacy points the learner shaves \
         off the average-case floor):\n\n{}\n\
         2. Law probe — family/parameter re-identified from a 3-epoch calibrated burst, \
         and the floor against the probe->calibrate->modulate closed loop:\n\n{}",
        cfg.n_star,
        cfg.horizon,
        cfg.tpr * 100.0,
        cfg.fpr * 100.0,
        cfg.noise,
        cfg.trials,
        t1.render(),
        t2.render()
    );

    AdaptiveResult {
        rows,
        probe,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> AdaptiveResult {
        run(&AdaptiveConfig::quick())
    }

    #[test]
    fn ranking_covers_all_laws_and_ladders() {
        let r = result();
        assert_eq!(r.rows.len(), 12);
        for key in [
            "pp 0.10/unit + inc",
            "pp 0.10/unit + exp2",
            "mult 0.90/unit + inc",
            "mult 0.70/event + exp2",
            "halve/event + inc",
            "sched g=0.10 + exp2",
            "ladder graduated",
            "ladder binary",
        ] {
            assert!(
                r.rows.iter().any(|row| row.label == key),
                "missing row {key}"
            );
        }
    }

    #[test]
    fn rows_are_sorted_by_descending_worst_case_floor() {
        let r = result();
        for pair in r.rows.windows(2) {
            assert!(
                pair[0].worst_floor_pct >= pair[1].worst_floor_pct,
                "{} before {}",
                pair[0].label,
                pair[1].label
            );
        }
    }

    #[test]
    fn best_response_measurably_beats_every_fixed_strategy_somewhere() {
        let r = result();
        let best = r
            .rows
            .iter()
            .max_by(|a, b| a.gap_pts.partial_cmp(&b.gap_pts).unwrap())
            .unwrap();
        assert!(
            best.gap_pts > 5.0,
            "no defense shows a meaningful adaptive gap (best {} at {:.1})",
            best.label,
            best.gap_pts
        );
    }

    #[test]
    fn ladders_are_exploitable_by_rung_riding() {
        let r = result();
        for label in ["ladder graduated", "ladder binary"] {
            let row = r.rows.iter().find(|row| row.label == label).unwrap();
            // The rider holds mass below the kill rung: never terminated,
            // and it clears a large share of the horizon.
            assert_eq!(row.killed_pct, 0.0, "{label} killed the rider");
            assert!(
                row.worst_floor_pct < row.fixed_best_floor_pct,
                "{label}: rider did not beat the fixed roster"
            );
        }
    }

    #[test]
    fn probe_identifies_every_law_family() {
        let r = result();
        assert_eq!(r.probe.len(), 5);
        for row in &r.probe {
            assert!(row.hit, "probe missed {}: got {}", row.label, row.family);
        }
    }

    #[test]
    fn report_contains_both_sections_and_is_deterministic() {
        let a = result();
        for key in [
            "Worst-case ranking",
            "Law probe",
            "ladder graduated",
            "closed-loop floor",
        ] {
            assert!(a.report.contains(key), "missing {key}");
        }
        let b = result();
        assert_eq!(a.report, b.report);
    }
}
