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
//! runs, never what it computes. The conformance harness
//! (`tests/conformance.rs`) pins both: it runs a fleet shape next to the
//! sharded ones, over machine-0 and fleet-packed pids, against one
//! single-engine reference.
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
    use crate::threat::Classification::Malicious;

    fn config(n_star: u64) -> EngineConfig {
        EngineConfig::builder()
            .measurements_required(n_star)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap()
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
        assert!(fleet.is_hot(pid));
    }
}
