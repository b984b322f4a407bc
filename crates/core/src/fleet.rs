//! The fleet tier: one response engine for a whole cluster.
//!
//! A [`FleetEngine`] is a [`ShardedEngine`] with `groups ×
//! shards_per_group` shards over fleet-packed pids
//! ([`ProcessId::from_parts`](crate::ProcessId::from_parts): machine id
//! in the high bits, machine-local pid in the low bits), routed by
//! [`crate::hash::shard_of`] on the whole packed pid. Every other method —
//! batches, ticks, ingest rings, fusion, threat hints — is the
//! [`ShardedEngine`] API, reached through `Deref`.
//!
//! Per-process monitor state is keyed by the fleet-wide pid, so the
//! sharding tier's guarantees carry over unchanged: machine 0's packed
//! pids are the bare local pids, making the single-machine engine a strict
//! special case, and the group and shard counts change only *where* work
//! runs, never what it computes (both pinned by `tests/fleet.rs`).
//!
//! # Example
//!
//! ```
//! use valkyrie_core::prelude::*;
//!
//! let config = EngineConfig::builder()
//!     .measurements_required(10)
//!     .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
//!     .build()
//!     .unwrap();
//! let mut fleet = FleetEngine::new(config, 4, 2);
//! assert_eq!(fleet.shards(), 8);
//!
//! // Machine 7's pid 1 and machine 40's pid 1 are distinct processes.
//! let a = ProcessId::from_parts(7, 1);
//! let b = ProcessId::from_parts(40, 1);
//! let responses = fleet.tick(&[(a, Classification::Malicious), (b, Classification::Benign)]);
//! assert_eq!(responses.len(), 2);
//! assert_eq!(fleet.tracked(), 2);
//! ```

use std::ops::{Deref, DerefMut};

use crate::engine::EngineConfig;
use crate::sharded::ShardedEngine;

/// A cluster-scale response engine: one [`ShardedEngine`] with
/// `groups × shards_per_group` shards, dereferencing to it for the whole
/// batch/tick/ingest API.
///
/// See the [module docs](self) for the equivalence guarantees.
#[derive(Debug)]
pub struct FleetEngine(ShardedEngine);

impl FleetEngine {
    /// Creates a fleet engine with `groups × shards_per_group` shards.
    ///
    /// # Panics
    ///
    /// Panics if `groups` or `shards_per_group` is zero, or if their
    /// product overflows `usize`.
    pub fn new(config: EngineConfig, groups: usize, shards_per_group: usize) -> Self {
        Self::with_capacity(config, groups, shards_per_group, 0)
    }

    /// Creates a fleet engine pre-sized for `expected_procs` fleet-wide
    /// processes (split evenly across the shards).
    ///
    /// # Panics
    ///
    /// Panics if `groups` or `shards_per_group` is zero, or if their
    /// product overflows `usize`.
    pub fn with_capacity(
        config: EngineConfig,
        groups: usize,
        shards_per_group: usize,
        expected_procs: usize,
    ) -> Self {
        assert!(groups > 0, "a fleet engine needs at least one group");
        assert!(
            shards_per_group > 0,
            "a fleet engine needs at least one shard per group"
        );
        let shards = groups
            .checked_mul(shards_per_group)
            .expect("fleet shard count (groups × shards_per_group) overflows usize");
        Self(ShardedEngine::with_capacity(config, shards, expected_procs))
    }
}

impl Deref for FleetEngine {
    type Target = ShardedEngine;

    fn deref(&self) -> &ShardedEngine {
        &self.0
    }
}

impl DerefMut for FleetEngine {
    fn deref_mut(&mut self) -> &mut ShardedEngine {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuator::ShareActuator;
    use crate::ingest::{IngestDefense, OverflowPolicy};
    use crate::resource::ProcessId;
    use crate::state::ProcessState;
    use crate::threat::{Classification, ThreatIndex, Verdict};
    use Classification::{Benign, Malicious};

    fn config(n_star: u64) -> EngineConfig {
        EngineConfig::builder()
            .measurements_required(n_star)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap()
    }

    fn fleet_batch(machines: u32, procs_per_machine: u64) -> Vec<(ProcessId, Classification)> {
        let mut batch = Vec::new();
        for m in 0..machines {
            for p in 1..=procs_per_machine {
                let cls = if (u64::from(m) + p).is_multiple_of(5) {
                    Malicious
                } else {
                    Benign
                };
                batch.push((ProcessId::from_parts(m, p), cls));
            }
        }
        batch
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_is_rejected() {
        let _ = FleetEngine::new(config(5), 0, 2);
    }

    #[test]
    #[should_panic(expected = "at least one shard per group")]
    fn zero_shards_per_group_is_rejected() {
        let _ = FleetEngine::new(config(5), 2, 0);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn overflowing_shard_count_is_rejected() {
        let _ = FleetEngine::new(config(5), usize::MAX / 2 + 1, 2);
    }

    /// The fleet tick is `ShardedEngine::tick`: a flagged process is
    /// marked hot for the defended rings' priority lane on the same tick.
    #[test]
    fn tick_refreshes_threat_hints() {
        let mut fleet = FleetEngine::new(config(5), 4, 2);
        let _publisher =
            fleet.enable_ingest_defended(64, OverflowPolicy::Block, IngestDefense::full());
        let pid = ProcessId::from_parts(7, 3);
        let responses = fleet.tick(&[(pid, Malicious)]);
        assert_eq!(responses[0].state, ProcessState::Suspicious);
        assert!(fleet.threat_hints().is_hot(pid));
    }

    #[test]
    fn batch_responses_are_in_input_order() {
        let mut fleet = FleetEngine::new(config(100), 3, 2);
        let batch = fleet_batch(8, 5);
        let responses = fleet.observe_batch(&batch);
        assert_eq!(responses.len(), batch.len());
        for ((pid, _), response) in batch.iter().zip(&responses) {
            assert_eq!(response.pid, *pid);
        }
    }

    #[test]
    fn same_local_pid_on_two_machines_is_two_processes() {
        let mut fleet = FleetEngine::new(config(2), 4, 2);
        let a = ProcessId::from_parts(1, 7);
        let b = ProcessId::from_parts(2, 7);
        for _ in 0..3 {
            fleet.observe_batch(&[(a, Malicious), (b, Benign)]);
        }
        // Same local pid, different machines: `a` is killed while `b` —
        // decision-ready after its N* measurements, but never flagged —
        // stays alive with a zero threat index.
        assert_eq!(fleet.state(a), Some(ProcessState::Terminated));
        assert_eq!(fleet.state(b), Some(ProcessState::Terminable));
        assert_eq!(fleet.threat(b), Some(ThreatIndex::zero()));
        assert_eq!(fleet.tracked(), 2);
        assert_eq!(fleet.tracked_live(), 1);
    }

    #[test]
    fn tick_purges_and_counts_epochs() {
        let mut fleet = FleetEngine::new(config(2), 2, 2);
        let pid = ProcessId::from_parts(9, 1);
        fleet.tick(&[(pid, Malicious)]);
        fleet.tick(&[(pid, Malicious)]);
        let r = fleet.tick(&[(pid, Malicious)]);
        assert_eq!(r[0].state, ProcessState::Terminated);
        assert_eq!(fleet.epoch(), 3);
        assert_eq!(fleet.purged_total(), 1);
        assert_eq!(fleet.tracked(), 0);
    }

    #[test]
    fn forget_decommissions_one_machines_pids() {
        let mut fleet = FleetEngine::new(config(100), 3, 2);
        let batch = fleet_batch(4, 10);
        fleet.observe_batch(&batch);
        assert_eq!(fleet.tracked(), 40);
        for p in 1..=10u64 {
            fleet.forget(ProcessId::from_parts(2, p));
        }
        assert_eq!(fleet.tracked(), 30);
        assert_eq!(fleet.state(ProcessId::from_parts(2, 3)), None);
        assert!(fleet.state(ProcessId::from_parts(1, 3)).is_some());
    }

    #[test]
    fn ingest_publish_then_drain_matches_batch_semantics() {
        let mut fleet = FleetEngine::new(config(4), 3, 2);
        let publisher = fleet.enable_ingest(64, OverflowPolicy::Block);
        let batch = fleet_batch(6, 4);
        assert_eq!(publisher.publish_batch(&batch), batch.len());
        let responses = fleet.drain_tick();
        assert_eq!(responses.len(), batch.len());
        assert_eq!(fleet.epoch(), 1);
        let stats = fleet.ingest_stats().expect("ingest enabled");
        assert_eq!(stats.published, batch.len() as u64);
        assert_eq!(stats.drained, batch.len() as u64);
        assert_eq!(stats.dropped, 0);

        // A mirror fleet fed synchronously reaches the same per-pid state.
        let mut mirror = FleetEngine::new(config(4), 3, 2);
        mirror.tick(&batch);
        for &(pid, _) in &batch {
            assert_eq!(fleet.state(pid), mirror.state(pid), "{pid}");
            assert_eq!(fleet.threat(pid), mirror.threat(pid), "{pid}");
        }
    }

    /// Verdicts published over the fleet's verdict rings reach the same
    /// per-pid state as the synchronous fleet verdict batch, and the
    /// fusion counters aggregate across groups.
    #[test]
    fn verdict_ingest_matches_verdict_batch_across_groups() {
        let mut fleet = FleetEngine::new(config(2), 3, 2);
        let publisher = fleet.enable_verdict_ingest(64, OverflowPolicy::Block);
        let batch: Vec<(ProcessId, Verdict)> = (0..6u32)
            .flat_map(|m| {
                (1..=4u64).map(move |p| {
                    let conf = if (u64::from(m) + p).is_multiple_of(3) {
                        1.0
                    } else {
                        0.0
                    };
                    (ProcessId::from_parts(m, p), Verdict::new(0, conf))
                })
            })
            .collect();
        for _ in 0..2 {
            assert_eq!(publisher.publish_batch(&batch), batch.len());
            fleet.drain_tick();
        }
        assert_eq!(fleet.epoch(), 2);
        assert_eq!(fleet.fusion_stats().verdicts, 2 * batch.len() as u64);
        let stats = fleet.verdict_ingest_stats().expect("verdict ingest on");
        assert_eq!(stats.published, stats.drained);

        let mut mirror = FleetEngine::new(config(2), 3, 2);
        for _ in 0..2 {
            mirror.observe_verdict_batch(&batch);
            mirror.purge_terminated();
        }
        for &(pid, _) in &batch {
            assert_eq!(fleet.state(pid), mirror.state(pid), "{pid}");
            assert_eq!(fleet.threat(pid), mirror.threat(pid), "{pid}");
        }
    }

    #[test]
    fn complete_terminates_and_unknown_pid_errors() {
        let mut fleet = FleetEngine::new(config(10), 2, 2);
        let pid = ProcessId::from_parts(3, 1);
        fleet.observe(pid, Benign);
        fleet.complete(pid).expect("tracked");
        assert_eq!(fleet.state(pid), Some(ProcessState::Terminated));
        assert!(fleet.complete(ProcessId::from_parts(3, 99)).is_err());
    }

    #[test]
    fn iter_covers_all_groups() {
        let mut fleet = FleetEngine::new(config(100), 4, 2);
        let batch = fleet_batch(16, 3);
        fleet.observe_batch(&batch);
        let mut pids: Vec<ProcessId> = fleet.iter().map(|(pid, _, _)| pid).collect();
        pids.sort_unstable();
        let mut expected: Vec<ProcessId> = batch.iter().map(|&(pid, _)| pid).collect();
        expected.sort_unstable();
        assert_eq!(pids, expected);
    }
}
