//! Response audit: tally every engine response per process and print the
//! forensic summary an operator would read after an incident — who was
//! throttled, for how long, who recovered, who was terminated, and what
//! the false positives cost (R2 accounting).
//!
//! Run with: `cargo run --example telemetry_audit`

use std::collections::BTreeMap;
use valkyrie::core::prelude::*;

/// What the response layer did to one process over the run.
#[derive(Debug, Default)]
struct Tally {
    epochs: u64,
    throttled_epochs: u64,
    restores: u64,
    share_sum: f64,
    terminated: bool,
}

impl Tally {
    fn record(&mut self, r: &EngineResponse) {
        self.epochs += 1;
        self.share_sum += r.resources.cpu;
        if r.resources.cpu < 1.0 {
            self.throttled_epochs += 1;
        }
        match r.action {
            Action::Restore | Action::RestoreAndRecycle => self.restores += 1,
            Action::Terminate => self.terminated = true,
            Action::None | Action::Throttle | Action::Recover => {}
        }
    }

    fn mean_share(&self) -> f64 {
        self.share_sum / self.epochs.max(1) as f64
    }
}

fn main() -> Result<(), ValkyrieError> {
    let config = EngineConfig::builder()
        .measurements_required(12)
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .build()?;
    let mut engine = ValkyrieEngine::new(config);
    let mut tallies: BTreeMap<u64, Tally> = BTreeMap::new();

    // pid 1: an attack, flagged every epoch.
    // pid 2: a benign process with a burst of three false positives.
    // pid 3: a clean benign process, never flagged.
    let attack = ProcessId(1);
    let bursty = ProcessId(2);
    let clean = ProcessId(3);
    for epoch in 1..=20u64 {
        let flagged = if (4..=6).contains(&epoch) {
            Classification::Malicious
        } else {
            Classification::Benign
        };
        let batch = [
            (attack, Classification::Malicious),
            (bursty, flagged),
            (clean, Classification::Benign),
        ];
        for r in engine.observe_batch(&batch) {
            tallies.entry(r.pid.0).or_default().record(&r);
        }
    }

    println!("pid  epochs  throttled  restores  mean-share  terminated");
    for (pid, t) in &tallies {
        println!(
            "{:<4} {:<7} {:<10} {:<9} {:<11.2} {}",
            pid,
            t.epochs,
            t.throttled_epochs,
            t.restores,
            t.mean_share(),
            t.terminated
        );
    }
    let terminated = tallies.values().filter(|t| t.terminated).count();
    println!("{terminated} of {} processes terminated", tallies.len());

    let b = &tallies[&bursty.0];
    println!(
        "\npid 2 (false-positive burst): throttled {} epochs, {} restores, \
         estimated slowdown {:.1}%",
        b.throttled_epochs,
        b.restores,
        (1.0 - b.mean_share()) * 100.0
    );
    assert!(!b.terminated, "benign process must survive");
    Ok(())
}
