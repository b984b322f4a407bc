//! End-to-end and per-layer benchmark of the Valkyrie response tier.
//!
//! Three closed-loop workloads drive the repository's response engines
//! through their public APIs, the same way the `fleet_scale` and
//! `multi_tenant` experiment drivers do: one driver thread generates epoch
//! `e+1` only after epoch `e`'s responses have been credited back, because
//! the detector rates depend on the Fig. 3 state mirrored from those
//! responses. See `perfbench/README.md` for the metrics and how to run it.

pub mod cores;
pub mod fleet_churn;
pub mod oracle;
pub mod stats;
pub mod tenant;
pub mod trace;

use valkyrie_core::hash::mix64;
use valkyrie_core::ProcessState;

/// What one episode (one full experiment run) produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Attacks placed.
    pub attacks: u64,
    /// Kill epoch per attack instance (`None`: survived the horizon).
    pub kill_epochs: Vec<Option<u64>>,
    /// Summed epochs from arrival to kill (arrival epoch counts as 1).
    pub kill_lag_sum: u64,
    pub benign_spawned: u64,
    pub benign_killed: u64,
    /// Summed granted CPU share over benign share-epochs, and their count.
    pub share_sum: f64,
    pub share_epochs: u64,
    /// Responses the engine returned.
    pub observations: u64,
    /// Responses the oracle checked, and how many broke an invariant.
    pub checked: u64,
    pub violations: u64,
    /// Seconds from the start of the episode to its first epoch.
    pub setup_s: f64,
    /// Seconds in the epoch loop, driver included.
    pub wall_s: f64,
    /// Engine time per epoch, milliseconds.
    pub tick_ms: Vec<f64>,
    /// Largest number of processes tracked at once.
    pub peak_tracked: usize,
    /// End-of-run Fig. 3 census: normal, suspicious, terminable.
    pub census: [u64; 3],
    /// Layer counters, by metric name.
    pub counters: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn attacks_killed(&self) -> u64 {
        self.kill_epochs.iter().flatten().count() as u64
    }

    /// Seconds of engine time over the whole epoch loop.
    pub fn engine_s(&self) -> f64 {
        self.tick_ms.iter().sum::<f64>() * 1e-3
    }

    /// A hash of the security outcome: kills, kill epochs, wrongful kills
    /// and observations.
    pub fn digest(&self) -> u64 {
        let mut h = mix64(self.attacks ^ 0xD1_6E57);
        for k in &self.kill_epochs {
            h = mix64(h ^ k.map_or(u64::MAX, |e| e));
        }
        h = mix64(h ^ self.benign_killed);
        mix64(h ^ self.observations)
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Folds one state into the end-of-run census.
    pub fn count_state(&mut self, state: ProcessState) {
        match state {
            ProcessState::Normal => self.census[0] += 1,
            ProcessState::Suspicious => self.census[1] += 1,
            ProcessState::Terminable => self.census[2] += 1,
            ProcessState::Terminated => {}
        }
    }
}
