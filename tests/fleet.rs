//! The cluster simulator's shape guarantee.
//!
//! A one-machine [`Cluster`] is bit-for-bit a bare [`Machine`] built with
//! the same derived seed. The engine side of the fleet tier, that group
//! and shard counts never change a response, is part of the conformance
//! harness (`tests/conformance.rs`): a `FleetEngine(g, s)` is a
//! `ShardedEngine` with `g × s` shards, and every shape there is compared
//! with one single-engine reference.

use valkyrie::sim::prelude::*;
use valkyrie::workloads::{fleet_instance, BenchmarkWorkload};

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
