//! Equivalence guarantees of the fleet tier.
//!
//! The cluster tier's contract mirrors the sharding tier's
//! (`tests/sharding.rs`): the cluster shape is **semantically
//! invisible**. A one-group [`FleetEngine`] driving machine-0 pids is
//! bit-for-bit the single-machine `ShardedEngine`; changing the group
//! count (and with it the shard count) never changes any response; and a
//! one-machine [`Cluster`] is bit-for-bit a bare [`Machine`] built with
//! the same derived seed.

use proptest::prelude::*;
use valkyrie::core::prelude::*;
use valkyrie::sim::prelude::*;
use valkyrie::workloads::{fleet_instance, BenchmarkWorkload};

fn engine_config(n_star: u64, cyclic: bool) -> EngineConfig {
    EngineConfig::builder()
        .measurements_required(n_star)
        .penalty(AssessmentFn::incremental())
        .compensation(AssessmentFn::incremental())
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .cyclic(cyclic)
        .build()
        .unwrap()
}

/// An arbitrary cluster-wide interleaving: observations of pids spread
/// across up to 24 machines × 6 local pids, packed through the global pid
/// namespace.
fn fleet_interleaving(max_len: usize) -> impl Strategy<Value = Vec<(ProcessId, Classification)>> {
    prop::collection::vec(
        (0u32..24, 0u64..6, prop::bool::ANY).prop_map(|(machine, local, malicious)| {
            (
                ProcessId::from_parts(machine, local),
                if malicious {
                    Classification::Malicious
                } else {
                    Classification::Benign
                },
            )
        }),
        1..max_len,
    )
}

/// Machine-0 observations only: the single-machine namespace, where the
/// packed global pid *is* the bare local pid.
fn machine0_interleaving(
    max_len: usize,
) -> impl Strategy<Value = Vec<(ProcessId, Classification)>> {
    prop::collection::vec(
        (0u64..24, prop::bool::ANY).prop_map(|(pid, malicious)| {
            (
                ProcessId(pid),
                if malicious {
                    Classification::Malicious
                } else {
                    Classification::Benign
                },
            )
        }),
        1..max_len,
    )
}

fn fleet_responses(
    observations: &[(ProcessId, Classification)],
    groups: usize,
    shards: usize,
    chunk: usize,
    n_star: u64,
    cyclic: bool,
) -> Vec<EngineResponse> {
    let mut fleet = FleetEngine::new(engine_config(n_star, cyclic), groups, shards);
    observations
        .chunks(chunk.max(1))
        .flat_map(|batch| fleet.observe_batch(batch))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A one-group fleet over machine-0 pids is bit-for-bit today's
    /// single-machine `ShardedEngine`: same response sequence for any
    /// interleaving and batch segmentation, and the same per-pid
    /// state/threat afterwards.
    #[test]
    fn one_group_fleet_is_the_single_machine_engine(
        obs in machine0_interleaving(200),
        chunk in 1usize..64,
        shards in 1usize..5,
        n_star in 1u64..16,
        cyclic in prop::bool::ANY,
    ) {
        let mut single = ShardedEngine::new(engine_config(n_star, cyclic), shards);
        let want: Vec<EngineResponse> = obs
            .chunks(chunk.max(1))
            .flat_map(|batch| single.observe_batch(batch))
            .collect();
        let got = fleet_responses(&obs, 1, shards, chunk, n_star, cyclic);
        prop_assert_eq!(&got, &want, "chunk={}, shards={}", chunk, shards);

        let mut fleet = FleetEngine::new(engine_config(n_star, cyclic), 1, shards);
        for batch in obs.chunks(chunk.max(1)) {
            fleet.observe_batch(batch);
        }
        for &(pid, _) in &obs {
            prop_assert_eq!(fleet.state(pid), single.state(pid));
            prop_assert_eq!(fleet.threat(pid), single.threat(pid));
            prop_assert_eq!(fleet.resources(pid), single.resources(pid));
        }
        prop_assert_eq!(fleet.tracked(), single.tracked());
    }

    /// Fleet results are invariant to how machines are partitioned into
    /// engine groups: every group count produces the same response
    /// sequence, because per-pid state is independent and the gather
    /// phase restores input order.
    #[test]
    fn responses_are_invariant_to_machine_grouping(
        obs in fleet_interleaving(200),
        chunk in 1usize..64,
        n_star in 1u64..16,
        cyclic in prop::bool::ANY,
    ) {
        let want = fleet_responses(&obs, 1, 2, chunk, n_star, cyclic);
        for groups in [2usize, 3, 8] {
            let got = fleet_responses(&obs, groups, 2, chunk, n_star, cyclic);
            prop_assert_eq!(&got, &want, "groups={}, chunk={}", groups, chunk);
        }
    }

    /// Grouping invariance also holds for the aggregate bookkeeping the
    /// fleet driver relies on: tracked counts, purges and per-pid state
    /// after ticks with terminations in flight.
    #[test]
    fn tick_bookkeeping_is_invariant_to_machine_grouping(
        obs in fleet_interleaving(150),
        chunk in 1usize..48,
        n_star in 1u64..8,
    ) {
        let mut reference = FleetEngine::new(engine_config(n_star, true), 1, 2);
        for batch in obs.chunks(chunk.max(1)) {
            reference.tick(batch);
        }
        for groups in [2usize, 3, 8] {
            let mut fleet = FleetEngine::new(engine_config(n_star, true), groups, 2);
            for batch in obs.chunks(chunk.max(1)) {
                fleet.tick(batch);
            }
            prop_assert_eq!(fleet.tracked(), reference.tracked(), "groups={}", groups);
            prop_assert_eq!(fleet.tracked_live(), reference.tracked_live());
            prop_assert_eq!(fleet.purged_total(), reference.purged_total());
            prop_assert_eq!(fleet.epoch(), reference.epoch());
            for &(pid, _) in &obs {
                prop_assert_eq!(fleet.state(pid), reference.state(pid));
                prop_assert_eq!(fleet.threat(pid), reference.threat(pid));
            }
        }
    }
}

/// A one-machine cluster is bit-for-bit the bare machine it wraps: same
/// pids, same epoch reports, with the cluster's only additions being the
/// machine-id half of the global pid and the shared-corpus boot.
#[test]
fn one_machine_cluster_matches_bare_machine() {
    let template = SimFs::uniform("/srv", 64, 4096);
    let mut cluster = Cluster::new(ClusterConfig {
        machine: MachineConfig::default(),
        fs_template: Some(template.clone()),
        seed: 0xBEEF,
    });
    let id = cluster.boot();

    let mut reference = Machine::with_id(
        MachineConfig {
            seed: cluster.seed_for(id),
            ..MachineConfig::default()
        },
        id,
    );
    reference.restore_fs(&template);

    for i in 0..4 {
        let gpid = cluster
            .spawn(id, Box::new(BenchmarkWorkload::new(fleet_instance(i))))
            .unwrap();
        let pid = reference.spawn(Box::new(BenchmarkWorkload::new(fleet_instance(i))));
        assert_eq!(gpid.machine, id);
        assert_eq!(gpid.pid, pid);
    }

    let mut cluster_out = Vec::new();
    let mut machine_out = Vec::new();
    for _ in 0..12 {
        cluster_out.clear();
        machine_out.clear();
        cluster.run_epoch_into(&mut cluster_out);
        reference.run_epoch_into(&mut machine_out);
        assert_eq!(cluster_out.len(), machine_out.len());
        for (&(gpid, got), &(pid, want)) in cluster_out.iter().zip(&machine_out) {
            assert_eq!(gpid.machine, id);
            assert_eq!(gpid.pid, pid);
            assert_eq!(got, want);
        }
    }
}
