//! The fleet tier: one response engine for a whole cluster.
//!
//! A [`ShardedEngine`] scales one machine's process population across
//! shards; a [`FleetEngine`] scales a *cluster* across machine groups. The
//! hierarchy is deliberate — rather than one flat shard space over every
//! pid in the fleet, observations are first routed by **machine id** to a
//! group (each group a full `ShardedEngine` with its own shards, scratch
//! and ingest rings), then by pid within the group.
//! Two properties fall out of that shape:
//!
//! - **The single-machine path is a strict special case.** A fleet of one
//!   group forwards batches verbatim to its inner engine, so a 1-group
//!   fleet observing machine-0 pids is bit-for-bit the existing
//!   [`ShardedEngine`] (pinned by `tests/fleet.rs`).
//! - **Results are invariant to the grouping.** Per-process monitor state
//!   is keyed by the fleet-wide pid and every path applies a pid's
//!   observations in input order, so how machines are partitioned into
//!   groups changes only *where* work runs, never what it computes.
//!
//! Observations are keyed by fleet-packed [`ProcessId`]s
//! ([`ProcessId::from_parts`]): machine id in the high bits, machine-local
//! pid in the low bits. Routing uses the workspace-wide rule
//! [`shard_of`] on the *machine* component, so all
//! of one machine's processes land in one group and a machine
//! decommission touches exactly one group's bookkeeping.
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
//!
//! // Machine 7's pid 1 and machine 40's pid 1 are distinct processes.
//! let a = ProcessId::from_parts(7, 1);
//! let b = ProcessId::from_parts(40, 1);
//! let responses = fleet.tick(&[(a, Classification::Malicious), (b, Classification::Benign)]);
//! assert_eq!(responses.len(), 2);
//! assert_eq!(fleet.tracked(), 2);
//! ```

use std::sync::Arc;

use crate::actuator::{Actuator, CompositeActuator};
use crate::engine::{EngineConfig, EngineResponse};
use crate::error::ValkyrieError;
use crate::hash::shard_of;
use crate::ingest::{CoalesceKey, IngestDefense, IngestPublisher, OverflowPolicy};
use crate::resource::{ProcessId, ResourceVector};
use crate::sharded::{partition_by_into, scatter_to_input_order, shrink_slot, ShardedEngine};
use crate::state::ProcessState;
use crate::telemetry::{FusionStats, IngestStats};
use crate::threat::{Classification, ThreatIndex, Verdict};

/// A hierarchical response engine for cluster-scale fleets: machine groups
/// of [`ShardedEngine`]s behind the same batch/tick API.
///
/// See the [module docs](self) for the routing rule and the equivalence
/// guarantees.
#[derive(Debug)]
pub struct FleetEngine<A: Actuator + Clone = CompositeActuator> {
    groups: Vec<ShardedEngine<A>>,
    /// Per-group partition scratch (same reuse-and-shrink policy as the
    /// inner engines' shard scratch).
    parts: Vec<Vec<(ProcessId, Classification)>>,
    origins: Vec<Vec<usize>>,
    /// Per-group partition scratch for the fusion tier's verdict batches.
    vparts: Vec<Vec<(ProcessId, Verdict)>>,
    epoch: u64,
}

/// The machine group that owns `machine` among `ngroups`: the
/// workspace-wide routing rule applied to the machine id.
#[inline]
fn group_index(machine: u32, ngroups: usize) -> usize {
    shard_of(u64::from(machine), ngroups)
}

impl<A: Actuator + Clone + Send> FleetEngine<A> {
    /// Creates a fleet engine with `groups` machine groups of
    /// `shards_per_group` shards each.
    ///
    /// # Panics
    ///
    /// Panics if `groups` or `shards_per_group` is zero.
    pub fn new(config: EngineConfig<A>, groups: usize, shards_per_group: usize) -> Self {
        Self::with_capacity(config, groups, shards_per_group, 0)
    }

    /// Creates a fleet engine pre-sized for `expected_procs` fleet-wide
    /// processes (split evenly across groups, then shards).
    ///
    /// # Panics
    ///
    /// Panics if `groups` or `shards_per_group` is zero.
    pub fn with_capacity(
        config: EngineConfig<A>,
        groups: usize,
        shards_per_group: usize,
        expected_procs: usize,
    ) -> Self {
        assert!(groups > 0, "a fleet engine needs at least one group");
        let per_group = expected_procs.div_ceil(groups);
        Self {
            groups: (0..groups)
                .map(|_| ShardedEngine::with_capacity(config.clone(), shards_per_group, per_group))
                .collect(),
            parts: vec![Vec::new(); groups],
            origins: vec![Vec::new(); groups],
            vparts: vec![Vec::new(); groups],
            epoch: 0,
        }
    }

    /// Number of machine groups.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Shards per machine group (every group has the same count).
    pub fn shards_per_group(&self) -> usize {
        self.groups[0].shards()
    }

    /// The group that owns `machine`: a pure function of the machine id,
    /// stable across runs and platforms for a fixed group count.
    pub fn group_of(&self, machine: u32) -> usize {
        group_index(machine, self.groups.len())
    }

    /// Epochs driven so far via [`Self::tick`] / [`Self::drain_tick`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Terminated processes evicted so far, summed over groups.
    pub fn purged_total(&self) -> u64 {
        self.groups.iter().map(ShardedEngine::purged_total).sum()
    }

    /// Processes currently tracked fleet-wide, terminated ones included.
    pub fn tracked(&self) -> usize {
        self.groups.iter().map(ShardedEngine::tracked).sum()
    }

    /// Tracked processes that have not terminated, fleet-wide.
    pub fn tracked_live(&self) -> usize {
        self.groups.iter().map(ShardedEngine::tracked_live).sum()
    }

    /// Forwards [`ShardedEngine::set_parallel_threshold`] to every group.
    pub fn set_parallel_threshold(&mut self, threshold: usize) {
        for group in &mut self.groups {
            group.set_parallel_threshold(threshold);
        }
    }

    /// Current state of a process, if tracked.
    pub fn state(&self, pid: ProcessId) -> Option<ProcessState> {
        self.groups[self.group_of(pid.machine())].state(pid)
    }

    /// Current threat index of a process, if tracked.
    pub fn threat(&self, pid: ProcessId) -> Option<ThreatIndex> {
        self.groups[self.group_of(pid.machine())].threat(pid)
    }

    /// Current resource shares of a process, if tracked.
    pub fn resources(&self, pid: ProcessId) -> Option<ResourceVector> {
        self.groups[self.group_of(pid.machine())].resources(pid)
    }

    /// Feeds one inference for one process (the compatibility path; batch
    /// embedders should use [`Self::observe_batch`]).
    pub fn observe(&mut self, pid: ProcessId, inference: Classification) -> EngineResponse {
        let group = group_index(pid.machine(), self.groups.len());
        self.groups[group].observe(pid, inference)
    }

    /// Feeds one epoch's detector inferences for the whole fleet and
    /// returns one response per observation, **in input order**.
    ///
    /// The batch is partitioned by machine group (preserving input order
    /// within each group), each group runs its own
    /// [`ShardedEngine::observe_batch`], and the per-group responses are
    /// scattered back to input order. A one-group fleet forwards the batch
    /// verbatim — zero partition/scatter overhead and bit-for-bit the
    /// single-machine path.
    pub fn observe_batch(&mut self, batch: &[(ProcessId, Classification)]) -> Vec<EngineResponse> {
        let ngroups = self.groups.len();
        if ngroups == 1 {
            return self.groups[0].observe_batch(batch);
        }
        partition_by_into(
            batch,
            |pid| group_index(pid.machine(), ngroups),
            &mut self.parts,
            &mut self.origins,
        );
        let results: Vec<Vec<EngineResponse>> = self
            .groups
            .iter_mut()
            .zip(&self.parts)
            .map(|(group, part)| group.observe_batch(part))
            .collect();
        let out = scatter_to_input_order(&self.origins, results, batch.len());
        self.shrink_scratch();
        out
    }

    /// Feeds one per-detector [`Verdict`] for one process through its
    /// machine group's fusion tier.
    pub fn observe_verdict(&mut self, pid: ProcessId, verdict: Verdict) -> EngineResponse {
        let group = group_index(pid.machine(), self.groups.len());
        self.groups[group].observe_verdict(pid, verdict)
    }

    /// Feeds one tick's per-detector verdicts for the whole fleet through
    /// each group's fusion tier (see
    /// [`ShardedEngine::observe_verdict_batch`]). Responses are one per
    /// *process* with fresh evidence, concatenated in group order.
    pub fn observe_verdict_batch(&mut self, batch: &[(ProcessId, Verdict)]) -> Vec<EngineResponse> {
        let ngroups = self.groups.len();
        if ngroups == 1 {
            return self.groups[0].observe_verdict_batch(batch);
        }
        partition_by_into(
            batch,
            |pid| group_index(pid.machine(), ngroups),
            &mut self.vparts,
            &mut self.origins,
        );
        let mut out = Vec::new();
        for (group, part) in self.groups.iter_mut().zip(&self.vparts) {
            out.extend(group.observe_verdict_batch(part));
        }
        for part in &mut self.vparts {
            let used = part.len();
            shrink_slot(part, used);
        }
        out
    }

    /// The fusion counters merged over every group (see [`FusionStats`]).
    pub fn fusion_stats(&self) -> FusionStats {
        let mut stats = FusionStats::default();
        for group in &self.groups {
            stats.merge(&group.fusion_stats());
        }
        stats
    }

    /// The fleet epoch driver: feeds one tick's batch, advances the fleet
    /// epoch counter, and evicts terminated processes in every group
    /// ([`ShardedEngine::tick`]'s contract, lifted to the fleet).
    pub fn tick(&mut self, batch: &[(ProcessId, Classification)]) -> Vec<EngineResponse> {
        let responses = self.observe_batch(batch);
        self.epoch += 1;
        self.purge_terminated();
        responses
    }

    /// Evicts every terminated process across all groups, returning how
    /// many were dropped (the evictions feed [`Self::purged_total`]).
    pub fn purge_terminated(&mut self) -> usize {
        self.groups
            .iter_mut()
            .map(ShardedEngine::purge_terminated)
            .sum()
    }

    /// Marks a process as completed (Fig. 3: completion terminates it).
    ///
    /// # Errors
    ///
    /// Returns [`ValkyrieError::UnknownProcess`] when `pid` is not tracked.
    pub fn complete(&mut self, pid: ProcessId) -> Result<(), ValkyrieError> {
        let group = group_index(pid.machine(), self.groups.len());
        self.groups[group].complete(pid)
    }

    /// Stops tracking a process and frees its bookkeeping.
    pub fn forget(&mut self, pid: ProcessId) {
        let group = group_index(pid.machine(), self.groups.len());
        self.groups[group].forget(pid)
    }

    /// Builds the async ingest tier in every group and returns a
    /// fleet-wide publisher that routes each observation to its machine
    /// group's rings. `capacity` and `policy` apply per ring, exactly as in
    /// [`ShardedEngine::enable_ingest`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_ingest(&mut self, capacity: usize, policy: OverflowPolicy) -> FleetPublisher {
        self.enable_ingest_defended(capacity, policy, IngestDefense::default())
    }

    /// [`Self::enable_ingest`] with the overload defense configured per
    /// group (see [`ShardedEngine::enable_ingest_defended`]). Each group's
    /// rings get their own [`crate::ingest::ThreatHints`] fed back by that
    /// group's engine — hints never cross machine-group boundaries, which
    /// is fine because neither do a pid's observations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_ingest_defended(
        &mut self,
        capacity: usize,
        policy: OverflowPolicy,
        defense: IngestDefense,
    ) -> FleetPublisher {
        let publishers = self
            .groups
            .iter_mut()
            .map(|group| group.enable_ingest_defended(capacity, policy, defense))
            .collect();
        FleetPublisher {
            publishers: Arc::new(publishers),
        }
    }

    /// Whether [`Self::enable_ingest`] has built the ingest tier.
    pub fn ingest_enabled(&self) -> bool {
        self.groups.iter().all(ShardedEngine::ingest_enabled)
    }

    /// A fresh fleet-wide publisher for the current ingest rings (`None`
    /// before [`Self::enable_ingest`]).
    pub fn publisher(&self) -> Option<FleetPublisher> {
        let publishers: Option<Vec<IngestPublisher>> =
            self.groups.iter().map(ShardedEngine::publisher).collect();
        publishers.map(|publishers| FleetPublisher {
            publishers: Arc::new(publishers),
        })
    }

    /// The ingest tier's counters summed over groups (`None` before
    /// [`Self::enable_ingest`]).
    pub fn ingest_stats(&self) -> Option<IngestStats> {
        self.groups
            .iter()
            .map(ShardedEngine::ingest_stats)
            .try_fold(IngestStats::default(), |mut acc, stats| {
                acc.merge(&stats?);
                Some(acc)
            })
    }

    /// Builds the fusion tier's verdict rings in every group and returns a
    /// fleet-wide verdict publisher — the per-detector twin of
    /// [`Self::enable_ingest`]. One [`Self::drain_tick`] serves both queue
    /// sets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_verdict_ingest(
        &mut self,
        capacity: usize,
        policy: OverflowPolicy,
    ) -> FleetPublisher<Verdict> {
        self.enable_verdict_ingest_defended(capacity, policy, IngestDefense::default())
    }

    /// [`Self::enable_verdict_ingest`] with the overload defense configured
    /// per group (see [`ShardedEngine::enable_verdict_ingest_defended`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_verdict_ingest_defended(
        &mut self,
        capacity: usize,
        policy: OverflowPolicy,
        defense: IngestDefense,
    ) -> FleetPublisher<Verdict> {
        let publishers = self
            .groups
            .iter_mut()
            .map(|group| group.enable_verdict_ingest_defended(capacity, policy, defense))
            .collect();
        FleetPublisher {
            publishers: Arc::new(publishers),
        }
    }

    /// Whether [`Self::enable_verdict_ingest`] has built the verdict rings.
    pub fn verdict_ingest_enabled(&self) -> bool {
        self.groups
            .iter()
            .all(ShardedEngine::verdict_ingest_enabled)
    }

    /// A fresh fleet-wide publisher for the current verdict rings (`None`
    /// before [`Self::enable_verdict_ingest`]).
    pub fn verdict_publisher(&self) -> Option<FleetPublisher<Verdict>> {
        let publishers: Option<Vec<IngestPublisher<Verdict>>> = self
            .groups
            .iter()
            .map(ShardedEngine::verdict_publisher)
            .collect();
        publishers.map(|publishers| FleetPublisher {
            publishers: Arc::new(publishers),
        })
    }

    /// The verdict rings' counters summed over groups (`None` before
    /// [`Self::enable_verdict_ingest`]).
    pub fn verdict_ingest_stats(&self) -> Option<IngestStats> {
        self.groups
            .iter()
            .map(ShardedEngine::verdict_ingest_stats)
            .try_fold(IngestStats::default(), |mut acc, stats| {
                acc.merge(&stats?);
                Some(acc)
            })
    }

    /// Drains every group's ingest rings and returns the drained
    /// responses, concatenated **in group order**.
    ///
    /// Within a group the order is publish order (per publisher, merged by
    /// sequence stamp exactly as [`ShardedEngine::drain_batch`]); *across*
    /// groups no global order exists — each group's rings stamp sequence
    /// numbers independently, so the fleet drain is a concatenation, not a
    /// merge. Per-process semantics are unaffected: all of a pid's
    /// observations live in one group.
    ///
    /// # Panics
    ///
    /// Panics if ingest was never enabled.
    pub fn drain_batch(&mut self) -> Vec<EngineResponse> {
        let mut out = Vec::new();
        for group in &mut self.groups {
            out.append(&mut group.drain_batch());
        }
        out
    }

    /// The async fleet epoch driver: drains every group's rings, advances
    /// the fleet epoch counter, and evicts terminated processes
    /// ([`Self::tick`]'s contract fed by the detector threads' queues).
    ///
    /// # Panics
    ///
    /// Panics if ingest was never enabled.
    pub fn drain_tick(&mut self) -> Vec<EngineResponse> {
        let responses = self.drain_batch();
        self.epoch += 1;
        self.purge_terminated();
        responses
    }

    /// Returns partition-scratch outliers to steady state (the policy of
    /// the inner engines' scratch, applied to the group-routing slots).
    fn shrink_scratch(&mut self) {
        for part in &mut self.parts {
            let used = part.len();
            shrink_slot(part, used);
        }
        for origin in &mut self.origins {
            let used = origin.len();
            shrink_slot(origin, used);
        }
    }

    /// Iterates over `(pid, state, threat)` of all tracked processes,
    /// group by group (no global ordering).
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, ProcessState, ThreatIndex)> + '_ {
        self.groups.iter().flat_map(ShardedEngine::iter)
    }
}

/// A cluster-wide publisher handle: routes each observation to its machine
/// group's ingest rings (same machine-id rule as the engine, so publish
/// and drain can never disagree on placement). Clone freely — clones share
/// the underlying group publishers. Carries [`Classification`]s by default
/// and per-detector [`Verdict`]s on the fusion path (see
/// [`FleetEngine::enable_verdict_ingest`]).
#[derive(Debug)]
pub struct FleetPublisher<P = Classification> {
    publishers: Arc<Vec<IngestPublisher<P>>>,
}

impl<P> Clone for FleetPublisher<P> {
    fn clone(&self) -> Self {
        Self {
            publishers: Arc::clone(&self.publishers),
        }
    }
}

impl<P: CoalesceKey> FleetPublisher<P> {
    /// Publishes one observation for `pid` into its group's rings.
    /// Returns `false` — discarding the observation — only when that
    /// group's engine has closed or replaced its rings.
    pub fn publish(&self, pid: ProcessId, payload: P) -> bool {
        let group = group_index(pid.machine(), self.publishers.len());
        self.publishers[group].publish(pid, payload)
    }

    /// Publishes a batch in order. Returns how many observations were
    /// accepted.
    pub fn publish_batch(&self, batch: &[(ProcessId, P)]) -> usize {
        let mut accepted = 0;
        for &(pid, payload) in batch {
            if self.publish(pid, payload) {
                accepted += 1;
            }
        }
        accepted
    }

    /// Whether every group's rings have been closed (publishes are no-ops).
    pub fn is_closed(&self) -> bool {
        self.publishers.iter().all(IngestPublisher::is_closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuator::ShareActuator;
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
    fn machine_routing_is_stable_and_fleet_wide() {
        let fleet = FleetEngine::new(config(5), 5, 2);
        for m in 0..1000u32 {
            let g = fleet.group_of(m);
            assert!(g < 5);
            // Every pid of a machine routes to the machine's group.
            assert_eq!(fleet.group_of(ProcessId::from_parts(m, 12345).machine()), g);
        }
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
