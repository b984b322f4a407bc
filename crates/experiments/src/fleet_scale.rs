//! Fleet scale: a whole cluster of machines under one engine, with
//! arrival/departure churn (ours; beyond the paper).
//!
//! The paper evaluates Valkyrie on one machine at a time; the
//! multi-tenant experiment ([`crate::multi_tenant`]) scaled that to one
//! machine with thousands of tenants. This experiment completes the climb:
//! **100k+ machines**, each hosting a fleet of benign services, driven
//! through a [`FleetEngine`] — one sharded engine over the packed
//! cluster-wide pids — so response bookkeeping (kill-at-`N*+1`, wrongful
//! terminations, purges) can be measured with *millions* of live
//! processes.
//!
//! Three things distinguish the cluster tier from a big flat machine:
//!
//! * **Global pids.** Every observation is keyed by
//!   [`ProcessId::from_parts`]`(machine, local)` — the packed
//!   cluster-wide pid namespace shared with `valkyrie_sim::GlobalPid`.
//! * **Churn.** Machines boot and decommission, services arrive and
//!   drain, every epoch, governed by the deterministic hash-driven
//!   [`FleetChurn`] model; attacks land via [`place_attacks`] rather than
//!   the old staggered schedule. Decommissioning a machine `forget`s its
//!   pids; draining a service `forget`s one.
//! * **Determinism at scale.** Every detector flag is a pure hash of
//!   `(seed, pid, epoch)` — no RNG state threads through the loop — so
//!   the security outcome is bit-reproducible, golden-pinned
//!   (`tests/golden_outputs.rs`), and invariant to the engine's shard
//!   count.
//!
//! The run also validates the *simulation substrate* at cluster scale: a
//! bounded [`Cluster`] boots machines against a shared prebuilt
//! filesystem corpus through the `fs_snapshot`/`restore_fs` path and
//! reports the per-machine boot cost, demonstrating that spawning a
//! machine is near-free.

use crate::harness::{pct, TextTable};
use std::collections::HashMap;
use std::time::Instant;
use valkyrie_core::hash::{mix64, FxBuildHasher};
use valkyrie_core::invariants::ResponseInvariants;
use valkyrie_core::{
    Action, AssessmentFn, Classification, EngineConfig, FleetEngine, IngestDefense, IngestStats,
    OverflowPolicy, ProcessId, ProcessState, ShareActuator,
};
use valkyrie_sim::prelude::*;
use valkyrie_workloads::{fleet_instance, place_attacks, BenchmarkWorkload, FleetChurn};

/// Cluster shape, churn rates and detector quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetScaleConfig {
    /// Machines in the initial fleet.
    pub machines: usize,
    /// Benign services provisioned per machine (initial and on boot).
    pub services_per_machine: usize,
    /// Attacks placed across the fleet over the first half of the horizon.
    pub attacks: usize,
    /// Observation horizon, in epochs.
    pub epochs: u64,
    /// Valkyrie's measurement requirement.
    pub n_star: u64,
    /// Shard-count factor: the [`FleetEngine`] runs
    /// `groups × shards_per_group` shards.
    pub groups: usize,
    /// The other shard-count factor (see [`Self::groups`]).
    pub shards_per_group: usize,
    /// Per-epoch probability that an attack is flagged.
    pub tpr: f64,
    /// Verdict-time true-positive rate (efficacy after `N*` measurements).
    pub verdict_tpr: f64,
    /// Verdict-time false-positive rate (efficacy after `N*` measurements).
    pub verdict_fpr: f64,
    /// Scale factor on service lifetimes, so the short-lived end of the
    /// fleet completes within the horizon and exercises the engine's
    /// `complete` path at scale.
    pub lifetime_scale: f64,
    /// Seed for the detector-flag hash stream (the churn model carries
    /// its own seed).
    pub seed: u64,
    /// Arrival/departure churn rates.
    pub churn: FleetChurn,
    /// Machines booted in the substrate-validation pass (bounded — the
    /// main loop models machine state statistically; this pass proves the
    /// `Cluster` slab's shared-corpus boot path at its measured cost).
    pub substrate_machines: usize,
    /// Route the detector batch through the fleet's bounded ingest rings
    /// (Block policy sized for the whole fleet, overload defense armed)
    /// and answer with `drain_tick` instead of the synchronous `tick` —
    /// same security outcome, but the per-lane/per-publisher
    /// [`IngestStats`] counters appear in the summary.
    pub async_ingest: bool,
}

impl Default for FleetScaleConfig {
    fn default() -> Self {
        Self {
            machines: 100_000,
            services_per_machine: 10,
            attacks: 128,
            epochs: 100,
            n_star: 20,
            groups: 8,
            shards_per_group: 2,
            tpr: 0.90,
            verdict_tpr: 0.995,
            verdict_fpr: 0.005,
            lifetime_scale: 0.2,
            seed: 0xF1EE_75CA,
            churn: FleetChurn {
                seed: 0xF1EE_75CA,
                service_arrivals_per_epoch: 0.02,
                service_departure_prob: 0.002,
                machine_arrivals_per_epoch: 40.0,
                machine_departure_prob: 0.0004,
            },
            substrate_machines: 2_000,
            async_ingest: false,
        }
    }
}

impl FleetScaleConfig {
    /// A scaled-down configuration for tests and golden pinning.
    pub fn quick() -> Self {
        Self {
            machines: 200,
            services_per_machine: 5,
            attacks: 4,
            epochs: 40,
            n_star: 8,
            groups: 4,
            shards_per_group: 2,
            lifetime_scale: 0.1,
            churn: FleetChurn {
                seed: 0xF1EE_75CA,
                service_arrivals_per_epoch: 0.05,
                service_departure_prob: 0.01,
                machine_arrivals_per_epoch: 1.0,
                machine_departure_prob: 0.005,
            },
            substrate_machines: 64,
            ..Self::default()
        }
    }
}

/// Outcome of one fleet-scale run.
#[derive(Debug, Clone)]
pub struct FleetScaleResult {
    /// Machines booted over the run (initial fleet + churn arrivals).
    pub machines_booted: u64,
    /// Machines decommissioned by churn.
    pub machines_decommissioned: u64,
    /// Machines live after the final epoch.
    pub final_live_machines: usize,
    /// Benign services spawned over the run (initial + boots + churn).
    pub services_spawned: u64,
    /// Benign services that ran to completion.
    pub services_completed: u64,
    /// Benign services drained by service-level churn.
    pub services_drained: u64,
    /// Benign services evicted with their decommissioned machine.
    pub services_evicted: u64,
    /// Attacks placed on the fleet.
    pub attacks_launched: usize,
    /// Attacks terminated by the engine.
    pub attacks_terminated: usize,
    /// Mean epochs from an attack's arrival to its termination.
    pub mean_epochs_to_kill: f64,
    /// Benign services wrongfully terminated.
    pub benign_killed: u64,
    /// Wrongful terminations as a fraction of benign services spawned, %.
    pub benign_killed_pct: f64,
    /// Largest number of processes tracked at once.
    pub peak_tracked: usize,
    /// Processes evicted by the per-tick purge.
    pub purged: u64,
    /// Processes still tracked (live) after the final tick.
    pub final_tracked_live: usize,
    /// Total observations fed through the engine.
    pub observations: u64,
    /// Engine-only throughput, observations per second.
    pub observations_per_sec: f64,
    /// Machines booted in the substrate-validation pass.
    pub substrate_machines: usize,
    /// Mean cost of booting one machine against the shared corpus, µs.
    pub substrate_boot_us: f64,
    /// Fusion-tier counters merged across every machine's engine (the
    /// binary detector tier absorbs no verdicts, so only the
    /// escalation-ladder transitions are non-zero here).
    pub fusion_stats: valkyrie_core::FusionStats,
    /// Ingest-tier counters of the fleet's rings (`None`
    /// unless [`FleetScaleConfig::async_ingest`] routed the run through
    /// them).
    pub ingest: Option<IngestStats>,
    /// Rendered report.
    pub report: String,
}

/// A live service on a fleet machine. All simulation state is mirrored
/// from engine responses ([`crate::multi_tenant`]'s pattern) — the driver
/// never pays per-pid engine queries.
struct Service {
    /// Machine-local pid (packs into the low 40 bits of [`ProcessId`]).
    local: u64,
    burst_prob: f64,
    /// Epoch-units of work to complete (attacks never complete).
    lifetime: f64,
    /// Work accumulated at the enforced CPU share.
    progress: f64,
    state: Option<ProcessState>,
    /// `Some(instance)` marks an attack.
    attack: Option<usize>,
    dead: bool,
}

struct MachineRec {
    id: u32,
    next_local: u64,
    /// Attack hosts are exempt from machine-departure churn so kill
    /// latency is measured on a stable target.
    hosts_attack: bool,
    services: Vec<Service>,
}

impl MachineRec {
    fn new(id: u32, hosts_attack: bool) -> Self {
        Self {
            id,
            next_local: 1,
            hosts_attack,
            services: Vec::new(),
        }
    }

    fn spawn_benign(&mut self, instance: usize, lifetime_scale: f64) {
        let spec = fleet_instance(instance);
        let local = self.next_local;
        self.next_local += 1;
        self.services.push(Service {
            local,
            burst_prob: spec.burst_prob,
            lifetime: (spec.epochs_to_complete as f64 * lifetime_scale).max(1.0),
            progress: 0.0,
            state: None,
            attack: None,
            dead: false,
        });
    }

    fn spawn_attack(&mut self, instance: usize) {
        let local = self.next_local;
        self.next_local += 1;
        self.services.push(Service {
            local,
            burst_prob: 0.0,
            lifetime: f64::INFINITY,
            progress: 0.0,
            state: None,
            attack: Some(instance),
            dead: false,
        });
    }
}

/// The detector-flag draw: a pure hash of `(seed, pid, epoch)` in
/// `[0, 1)`, so the flag stream for a pid is independent of every other
/// pid and of engine partitioning.
fn flag_draw(seed: u64, pid: ProcessId, epoch: u64) -> f64 {
    let h = mix64(seed ^ mix64(pid.0) ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Runs the cluster through the fleet engine.
pub fn run(cfg: &FleetScaleConfig) -> FleetScaleResult {
    let config = EngineConfig::builder()
        .measurements_required(cfg.n_star)
        .penalty(AssessmentFn::incremental())
        .compensation(AssessmentFn::incremental())
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .cyclic(true)
        .build()
        .expect("valid fleet-scale config");
    let expected = cfg.machines * cfg.services_per_machine + cfg.attacks;
    let mut fleet = FleetEngine::with_capacity(
        config,
        cfg.groups.max(1),
        cfg.shards_per_group.max(1),
        expected,
    );
    // Debug builds check every response against the paper's invariants.
    let mut invariants = cfg!(debug_assertions).then(|| ResponseInvariants::new(fleet.config()));

    // Attack placement over the *initial* fleet; hosts never depart.
    let placements = place_attacks(cfg.seed, cfg.attacks, cfg.machines.max(1), cfg.epochs);
    let mut arrivals_at: Vec<Vec<usize>> = vec![Vec::new(); cfg.epochs.max(1) as usize];
    for p in &placements {
        arrivals_at[p.arrival_epoch as usize].push(p.instance);
    }
    let mut attack_arrival: Vec<u64> = vec![0; cfg.attacks];
    let mut attack_killed: Vec<Option<u64>> = vec![None; cfg.attacks];
    for p in &placements {
        attack_arrival[p.instance] = p.arrival_epoch;
    }

    // The initial fleet. Machine ids are cluster-unique and never reused;
    // churn boots continue the sequence.
    let mut machines: Vec<MachineRec> = Vec::with_capacity(cfg.machines);
    let mut id_index: HashMap<u32, usize, FxBuildHasher> =
        HashMap::with_capacity_and_hasher(cfg.machines, FxBuildHasher::default());
    let mut services_spawned = 0u64;
    let mut spawn_counter = 0usize;
    for i in 0..cfg.machines {
        let hosts = placements.iter().any(|p| p.machine_index == i);
        let mut m = MachineRec::new(i as u32, hosts);
        for _ in 0..cfg.services_per_machine {
            m.spawn_benign(spawn_counter, cfg.lifetime_scale);
            spawn_counter += 1;
            services_spawned += 1;
        }
        id_index.insert(m.id, i);
        machines.push(m);
    }
    let mut next_machine_id = cfg.machines as u32;
    let mut machines_booted = cfg.machines as u64;
    let mut machines_decommissioned = 0u64;
    let mut services_drained = 0u64;
    let mut services_evicted = 0u64;
    let mut services_completed = 0u64;
    let mut benign_killed = 0u64;

    let mut batch: Vec<(ProcessId, Classification)> = Vec::with_capacity(expected);
    let mut refs: Vec<(u32, u32)> = Vec::with_capacity(expected);
    let mut departing: Vec<usize> = Vec::new();

    // The async path: the whole detector batch goes through the fleet's
    // bounded rings (Block, sized for the fleet — lossless) and comes back
    // out of `drain_tick` in publish order, i.e. batch order.
    let publisher = cfg.async_ingest.then(|| {
        fleet.enable_ingest_defended(
            expected.max(1),
            OverflowPolicy::Block,
            IngestDefense::full(),
        )
    });

    let mut observations = 0u64;
    let mut peak_tracked = 0usize;
    let mut engine_time = std::time::Duration::ZERO;

    for epoch in 0..cfg.epochs {
        // Machine churn: boots first (a fresh machine arrives with its
        // full service complement), then departures. Attack hosts are
        // exempt so kill latency has a stable target.
        for _ in 0..cfg.churn.machine_arrivals(epoch) {
            let id = next_machine_id;
            next_machine_id += 1;
            machines_booted += 1;
            let mut m = MachineRec::new(id, false);
            for _ in 0..cfg.services_per_machine {
                m.spawn_benign(spawn_counter, cfg.lifetime_scale);
                spawn_counter += 1;
                services_spawned += 1;
            }
            id_index.insert(id, machines.len());
            machines.push(m);
        }
        departing.clear();
        for (idx, m) in machines.iter().enumerate() {
            if !m.hosts_attack && cfg.churn.machine_departs(m.id, epoch) {
                departing.push(idx);
            }
        }
        // Highest index first, so earlier swap_removes don't shift later
        // targets.
        for &idx in departing.iter().rev() {
            let m = machines.swap_remove(idx);
            id_index.remove(&m.id);
            if idx < machines.len() {
                id_index.insert(machines[idx].id, idx);
            }
            for s in &m.services {
                let pid = ProcessId::from_parts(m.id, s.local);
                fleet.forget(pid);
                if let Some(inv) = &mut invariants {
                    inv.forget(pid);
                }
                services_evicted += 1;
            }
            machines_decommissioned += 1;
        }

        // Attack arrivals.
        for &instance in &arrivals_at[epoch as usize] {
            let host_id = placements[instance].machine_index as u32;
            let idx = id_index[&host_id];
            machines[idx].spawn_attack(instance);
        }

        // Service churn: arrivals and drains, per machine.
        for m in machines.iter_mut() {
            let id = m.id;
            for _ in 0..cfg.churn.service_arrivals(id, epoch) {
                m.spawn_benign(spawn_counter, cfg.lifetime_scale);
                spawn_counter += 1;
                services_spawned += 1;
            }
            m.services.retain(|s| {
                if s.attack.is_none() && cfg.churn.service_departs(id, s.local, epoch) {
                    let pid = ProcessId::from_parts(id, s.local);
                    fleet.forget(pid);
                    if let Some(inv) = &mut invariants {
                        inv.forget(pid);
                    }
                    services_drained += 1;
                    false
                } else {
                    true
                }
            });
        }

        // The detector pass: per-epoch rates normally, verdict-grade
        // rates once the monitor holds its N* measurements (the
        // Terminable state mirrored from the latest response).
        batch.clear();
        refs.clear();
        for (mi, m) in machines.iter().enumerate() {
            for (si, s) in m.services.iter().enumerate() {
                let pid = ProcessId::from_parts(m.id, s.local);
                let decision_ready = s.state == Some(ProcessState::Terminable);
                let flag_prob = match s.attack {
                    Some(_) if decision_ready => cfg.verdict_tpr,
                    Some(_) => cfg.tpr,
                    None if decision_ready => cfg.verdict_fpr,
                    None => s.burst_prob,
                };
                let inference = if flag_draw(cfg.seed, pid, epoch) < flag_prob {
                    Classification::Malicious
                } else {
                    Classification::Benign
                };
                batch.push((pid, inference));
                refs.push((mi as u32, si as u32));
            }
        }

        let purged_before = fleet.purged_total();
        let t0 = Instant::now();
        let responses = if let Some(publisher) = &publisher {
            let accepted = publisher.publish_batch(&batch);
            assert_eq!(accepted, batch.len(), "rings sized for the fleet");
            fleet.drain_tick().into()
        } else {
            fleet.tick(&batch)
        };
        engine_time += t0.elapsed();
        observations += responses.len() as u64;
        let purged_this_tick = (fleet.purged_total() - purged_before) as usize;
        peak_tracked = peak_tracked.max(fleet.tracked() + purged_this_tick);
        if let Some(inv) = &mut invariants {
            if let Err(v) = inv.check_tick(&responses) {
                panic!("fleet_scale epoch {epoch}: {v}");
            }
        }

        // Credit responses back onto the fleet. Both paths answer in batch
        // order, so `refs` maps each response to its machine/service slot.
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.pid, batch[i].0, "responses arrive in batch order");
            let (mi, si) = refs[i];
            let m = &mut machines[mi as usize];
            let s = &mut m.services[si as usize];
            s.state = Some(resp.state);
            if resp.action == Action::Terminate {
                s.dead = true;
                match s.attack {
                    Some(instance) => {
                        if attack_killed[instance].is_none() {
                            attack_killed[instance] = Some(epoch);
                        }
                    }
                    None => benign_killed += 1,
                }
                continue;
            }
            if s.attack.is_none() {
                s.progress += resp.resources.cpu;
                if s.progress >= s.lifetime {
                    s.dead = true;
                    services_completed += 1;
                    let pid = ProcessId::from_parts(m.id, s.local);
                    let _ = fleet.complete(pid);
                    if let Some(inv) = &mut invariants {
                        inv.complete(pid);
                    }
                }
            }
        }
        for m in machines.iter_mut() {
            m.services.retain(|s| !s.dead);
        }
    }

    let attacks_terminated = attack_killed.iter().filter(|k| k.is_some()).count();
    let mean_epochs_to_kill = if attacks_terminated == 0 {
        f64::NAN
    } else {
        attack_killed
            .iter()
            .enumerate()
            .filter_map(|(i, k)| k.map(|at| (at - attack_arrival[i] + 1) as f64))
            .sum::<f64>()
            / attacks_terminated as f64
    };
    let benign_killed_pct = 100.0 * benign_killed as f64 / services_spawned.max(1) as f64;
    let observations_per_sec = observations as f64 / engine_time.as_secs_f64().max(1e-9);

    // Substrate validation: a bounded `Cluster` boots machines against a
    // shared prebuilt corpus via the snapshot/restore path, proving the
    // slab's near-free boot and global pid naming end to end.
    let (substrate_boot_us, substrate_reports) = run_substrate(cfg);

    let mut t = TextTable::new(vec!["metric", "value"]);
    t.row(vec![
        "machines booted/decommissioned".into(),
        format!("{machines_booted}/{machines_decommissioned}"),
    ]);
    t.row(vec![
        "machines live at end".into(),
        machines.len().to_string(),
    ]);
    t.row(vec![
        "services spawned".into(),
        services_spawned.to_string(),
    ]);
    t.row(vec![
        "services completed/drained/evicted".into(),
        format!("{services_completed}/{services_drained}/{services_evicted}"),
    ]);
    t.row(vec![
        "attacks terminated".into(),
        format!("{attacks_terminated}/{}", cfg.attacks),
    ]);
    t.row(vec![
        "mean epochs to kill".into(),
        format!("{mean_epochs_to_kill:.1}"),
    ]);
    t.row(vec![
        "benign killed".into(),
        format!("{benign_killed} ({})", pct(benign_killed_pct)),
    ]);
    t.row(vec!["peak tracked".into(), peak_tracked.to_string()]);
    t.row(vec!["purged".into(), fleet.purged_total().to_string()]);
    t.row(vec![
        "live after final tick".into(),
        fleet.tracked_live().to_string(),
    ]);
    t.row(vec![
        "engine throughput".into(),
        format!("{:.2} Mobs/s", observations_per_sec / 1e6),
    ]);
    let fusion_stats = fleet.fusion_stats();
    t.row(vec![
        "fusion verdicts/stale-decayed/escalations".into(),
        format!(
            "{}/{}/{}",
            fusion_stats.verdicts, fusion_stats.stale_decayed, fusion_stats.escalations
        ),
    ]);
    let ingest = fleet.ingest_stats();
    if let Some(stats) = &ingest {
        t.row(vec![
            "ingest published/dropped/priority/deflected".into(),
            format!(
                "{}/{}/{}/{}",
                stats.published, stats.dropped, stats.priority_queued, stats.evictions_deflected
            ),
        ]);
        let by_pub: Vec<String> = stats
            .dropped_by_publisher
            .iter()
            .enumerate()
            .map(|(id, n)| format!("p{id}:{n}"))
            .collect();
        t.row(vec![
            "ingest dropped by publisher".into(),
            if by_pub.is_empty() {
                "none".into()
            } else {
                by_pub.join(" ")
            },
        ]);
    }
    t.row(vec![
        "substrate boot".into(),
        format!(
            "{} machines, {substrate_boot_us:.1} µs/machine, {substrate_reports} epoch reports",
            cfg.substrate_machines
        ),
    ]);
    let report = format!(
        "Fleet scale — {} machines × {} services + {} attacks over {} epochs, \
         {} groups × {} shards, N* = {}\n\
         ({} observations through FleetEngine::tick; churn: {:.2} boots + \
         {:.4} departs/machine, {:.2} arrivals + {:.4} drains/service, per epoch)\n\n{}",
        cfg.machines,
        cfg.services_per_machine,
        cfg.attacks,
        cfg.epochs,
        cfg.groups,
        cfg.shards_per_group,
        cfg.n_star,
        observations,
        cfg.churn.machine_arrivals_per_epoch,
        cfg.churn.machine_departure_prob,
        cfg.churn.service_arrivals_per_epoch,
        cfg.churn.service_departure_prob,
        t.render()
    );

    FleetScaleResult {
        machines_booted,
        machines_decommissioned,
        final_live_machines: machines.len(),
        services_spawned,
        services_completed,
        services_drained,
        services_evicted,
        attacks_launched: cfg.attacks,
        attacks_terminated,
        mean_epochs_to_kill,
        benign_killed,
        benign_killed_pct,
        peak_tracked,
        purged: fleet.purged_total(),
        final_tracked_live: fleet.tracked_live(),
        observations,
        observations_per_sec,
        substrate_machines: cfg.substrate_machines,
        substrate_boot_us,
        fusion_stats,
        ingest,
        report,
    }
}

/// Boots `cfg.substrate_machines` simulated machines in a [`Cluster`]
/// sharing one prebuilt corpus, spawns a service on each, and runs one
/// cluster epoch. Returns (mean boot µs, epoch reports collected).
fn run_substrate(cfg: &FleetScaleConfig) -> (f64, usize) {
    let n = cfg.substrate_machines.max(1);
    let template = SimFs::uniform("/srv", 512, 4096);
    let mut cluster = Cluster::new(ClusterConfig {
        machine: MachineConfig::default(),
        fs_template: Some(template),
        seed: cfg.seed,
    });
    let t0 = Instant::now();
    let ids: Vec<MachineId> = (0..n).map(|_| cluster.boot()).collect();
    let boot_us = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
    for (i, &id) in ids.iter().enumerate() {
        cluster
            .spawn(id, Box::new(BenchmarkWorkload::new(fleet_instance(i))))
            .expect("freshly booted machine accepts a spawn");
    }
    let mut out = Vec::new();
    cluster.run_epoch_into(&mut out);
    (boot_us, out.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_holds_response_guarantees_under_churn() {
        let r = run(&FleetScaleConfig::quick());
        // Every attack dies, and no earlier than N* + 1 epochs after
        // arrival (n_star = 8 in the quick config).
        assert_eq!(r.attacks_terminated, r.attacks_launched);
        assert!(r.mean_epochs_to_kill >= 9.0, "{}", r.mean_epochs_to_kill);
        // Wrongful terminations stay a tiny fraction of the fleet.
        assert!(r.benign_killed_pct < 1.0, "{}", r.benign_killed_pct);
        // Churn actually happened.
        assert!(r.machines_booted > 200, "{}", r.machines_booted);
        assert!(r.machines_decommissioned > 0);
        assert!(r.services_drained > 0);
        assert!(r.services_evicted > 0);
        assert!(r.services_completed > 0, "short services should finish");
        // Bookkeeping is conservative: everything fed in was tracked.
        assert!(r.observations > 0);
        assert!(r.peak_tracked > 1_000);
        // The substrate pass booted and drove every machine.
        assert_eq!(r.substrate_machines, 64);
        assert!(r.substrate_boot_us < 10_000.0, "{}", r.substrate_boot_us);
    }

    #[test]
    fn outcome_is_invariant_to_engine_grouping() {
        let base = FleetScaleConfig::quick();
        let one = run(&FleetScaleConfig { groups: 1, ..base });
        let four = run(&FleetScaleConfig { groups: 4, ..base });
        assert_eq!(one.attacks_terminated, four.attacks_terminated);
        assert_eq!(
            one.mean_epochs_to_kill.to_bits(),
            four.mean_epochs_to_kill.to_bits()
        );
        assert_eq!(one.benign_killed, four.benign_killed);
        assert_eq!(one.services_completed, four.services_completed);
        assert_eq!(one.observations, four.observations);
        assert_eq!(one.purged, four.purged);
        assert_eq!(one.final_tracked_live, four.final_tracked_live);
    }

    #[test]
    fn async_ingest_path_matches_the_synchronous_outcome() {
        let base = FleetScaleConfig::quick();
        let sync = run(&base);
        let drained = run(&FleetScaleConfig {
            async_ingest: true,
            ..base
        });
        // Lossless rings drain in publish order: the security outcome is
        // bit-identical to the synchronous tick path.
        assert_eq!(sync.attacks_terminated, drained.attacks_terminated);
        assert_eq!(
            sync.mean_epochs_to_kill.to_bits(),
            drained.mean_epochs_to_kill.to_bits()
        );
        assert_eq!(sync.benign_killed, drained.benign_killed);
        assert_eq!(sync.services_completed, drained.services_completed);
        assert_eq!(sync.observations, drained.observations);
        assert_eq!(sync.purged, drained.purged);
        assert_eq!(sync.final_tracked_live, drained.final_tracked_live);
        // And the ingest tier's counters surface in the drained summary.
        assert!(sync.ingest.is_none());
        let stats = drained.ingest.expect("async run surfaces ingest stats");
        assert_eq!(stats.published, drained.observations);
        assert_eq!(stats.drained, drained.observations);
        assert_eq!(stats.dropped, 0);
        assert!(drained
            .report
            .contains("ingest published/dropped/priority/deflected"));
    }

    #[test]
    fn run_is_deterministic() {
        let a = run(&FleetScaleConfig::quick());
        let b = run(&FleetScaleConfig::quick());
        assert_eq!(a.observations, b.observations);
        assert_eq!(a.benign_killed, b.benign_killed);
        assert_eq!(
            a.mean_epochs_to_kill.to_bits(),
            b.mean_epochs_to_kill.to_bits()
        );
        assert_eq!(a.services_drained, b.services_drained);
        assert_eq!(a.machines_decommissioned, b.machines_decommissioned);
    }
}
