//! Adaptive attacker: can duty-cycling beat the response framework?
//!
//! An attacker that knows Valkyrie is deployed can pause whenever it feels
//! throttled, wait for the compensation mechanism to restore its resources,
//! and resume. This example replays four strategies against the same
//! configuration and shows why evasion does not pay: dormant epochs still
//! count toward `N*`, so the terminable verdict arrives on schedule, and
//! every epoch spent hiding is progress forfeited.
//!
//! Run with: `cargo run --example adaptive_attacker`

use valkyrie::core::prelude::*;
use valkyrie::experiments::attacker::{
    expected_terminable_progress, run_adaptive, AdaptiveScenario, AttackerStrategy, DetectorModel,
};

fn main() -> Result<(), ValkyrieError> {
    let config = EngineConfig::builder()
        .measurements_required(30)
        .penalty(AssessmentFn::incremental())
        .compensation(AssessmentFn::incremental())
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .build()?;

    // A realistic detector: right 90% of the time while the attack works,
    // and wrong 4% of the time while it hides.
    let detector = DetectorModel::new(0.90, 0.04)?;
    let horizon = 120;

    println!("N* = 30, horizon = {horizon} epochs, detector TPR 90% / FPR 4%\n");
    println!(
        "{:<34} {:>9} {:>10} {:>9} {:>11}",
        "strategy", "progress", "unimpeded", "slowdown", "killed at"
    );
    let scenario = AdaptiveScenario::new(detector, horizon).with_seed(7);
    for (name, mut strategy) in [
        ("always active", AttackerStrategy::AlwaysActive),
        (
            "duty cycle: 1 on / 3 off",
            AttackerStrategy::DutyCycle {
                active: 1,
                dormant: 3,
            },
        ),
        (
            "sprint 15 epochs, then hide",
            AttackerStrategy::Sprint { active_epochs: 15 },
        ),
        (
            "sawtooth: resume at 70% share",
            AttackerStrategy::ThreatAdaptive { resume_above: 0.70 },
        ),
    ] {
        let out = run_adaptive(&config, &scenario, &mut strategy);
        println!(
            "{:<34} {:>9.1} {:>10.1} {:>8.1}% {:>11}",
            name,
            out.progress,
            out.unimpeded,
            out.slowdown_percent(),
            out.terminated_at
                .map_or("survived".to_string(), |e| format!("epoch {e}")),
        );
    }

    println!(
        "\nAfter N*, every active epoch risks termination: with TPR p the\n\
         expected remaining progress is (1-p)/p unthrottled epochs:"
    );
    for tpr in [0.5, 0.9, 0.99] {
        println!(
            "  TPR {:>3.0}% -> {:>5.2} epochs",
            tpr * 100.0,
            expected_terminable_progress(tpr)
        );
    }
    Ok(())
}
