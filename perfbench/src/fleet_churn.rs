//! `fleet_churn`: the `fleet_scale` cluster under one [`FleetEngine`].
//!
//! The loop is `valkyrie_experiments::fleet_scale::run` (synchronous tick
//! path) with timing at every call into the engine: machine and service
//! churn from [`FleetChurn`], attacks from [`place_attacks`], one
//! hash-driven detector flag per live service per epoch, and the responses
//! mirrored back onto the services. The traced run splits each
//! `FleetEngine::tick` into its public halves, `observe_batch` then
//! `purge_terminated`.

use crate::oracle::{Oracle, PidCheck};
use crate::trace::Tracer;
use crate::Outcome;
use std::collections::HashMap;
use std::time::Instant;
use valkyrie_core::hash::{mix64, FxBuildHasher};
use valkyrie_core::{
    Action, AssessmentFn, Classification, EngineConfig, FleetEngine, ProcessId, ProcessState,
    ShareActuator,
};
use valkyrie_workloads::{fleet_instance, place_attacks, AttackPlacement, FleetChurn};

/// Cluster shape, churn and detector quality (the fields of
/// `FleetScaleConfig` the synchronous path reads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetChurnConfig {
    pub machines: usize,
    pub services_per_machine: usize,
    pub attacks: usize,
    pub epochs: u64,
    pub n_star: u64,
    pub groups: usize,
    pub shards_per_group: usize,
    pub tpr: f64,
    pub verdict_tpr: f64,
    pub verdict_fpr: f64,
    pub lifetime_scale: f64,
    pub seed: u64,
    pub churn: FleetChurn,
    /// Keep every group's observe work on the driver thread
    /// (`set_parallel_threshold(usize::MAX)`).
    pub single_thread: bool,
}

impl FleetChurnConfig {
    /// The benchmark's cluster for workload seed `seed`: `fleet_scale`'s
    /// 100k machines × 10 services, so about a million processes are
    /// tracked and every per-shard map is far larger than L2, with its
    /// churn rates, engine shape and `N*`. The horizon is shortened from
    /// 100 to 40 epochs to fit a run; attacks still land in its first
    /// half, so every one has a full `N*+1` detection window.
    pub fn bench(seed: u64) -> Self {
        let seed = mix64(seed ^ 0xF1EE_75CA);
        Self {
            machines: 100_000,
            services_per_machine: 10,
            attacks: 128,
            epochs: 40,
            n_star: 20,
            groups: 8,
            shards_per_group: 2,
            tpr: 0.90,
            verdict_tpr: 0.995,
            verdict_fpr: 0.005,
            lifetime_scale: 0.2,
            seed,
            churn: FleetChurn {
                seed,
                service_arrivals_per_epoch: 0.02,
                service_departure_prob: 0.002,
                machine_arrivals_per_epoch: 40.0,
                machine_departure_prob: 0.0004,
            },
            single_thread: false,
        }
    }
}

struct Service {
    local: u64,
    burst_prob: f64,
    lifetime: f64,
    progress: f64,
    check: PidCheck,
    attack: Option<usize>,
    dead: bool,
}

struct MachineRec {
    id: u32,
    next_local: u64,
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

    fn spawn(&mut self, burst_prob: f64, lifetime: f64, attack: Option<usize>) {
        let local = self.next_local;
        self.next_local += 1;
        self.services.push(Service {
            local,
            burst_prob,
            lifetime,
            progress: 0.0,
            check: PidCheck::default(),
            attack,
            dead: false,
        });
    }

    fn spawn_benign(&mut self, instance: usize, lifetime_scale: f64) {
        let spec = fleet_instance(instance);
        let lifetime = (spec.epochs_to_complete as f64 * lifetime_scale).max(1.0);
        self.spawn(spec.burst_prob, lifetime, None);
    }
}

/// `fleet_scale`'s detector-flag draw: a pure hash of `(seed, pid, epoch)`.
fn flag_draw(seed: u64, pid: ProcessId, epoch: u64) -> f64 {
    let h = mix64(seed ^ mix64(pid.0) ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Runs one episode: builds the cluster (timed as set-up), then its epoch
/// loop.
pub fn run(cfg: &FleetChurnConfig, tr: &mut Tracer) -> Outcome {
    let start = Instant::now();
    let cluster = Cluster::build(cfg);
    let setup_s = start.elapsed().as_secs_f64();
    Outcome {
        setup_s,
        ..cluster.run(tr)
    }
}

/// Everything an episode builds before its first epoch: the engine with
/// capacity for the whole cluster, the initial fleet and the attack plan.
pub struct Cluster {
    cfg: FleetChurnConfig,
    fleet: FleetEngine,
    placements: Vec<AttackPlacement>,
    arrivals_at: Vec<Vec<usize>>,
    attack_arrival: Vec<u64>,
    machines: Vec<MachineRec>,
    id_index: HashMap<u32, usize, FxBuildHasher>,
    spawn_counter: usize,
    batch: Vec<(ProcessId, Classification)>,
    refs: Vec<(u32, u32)>,
}

impl Cluster {
    pub fn build(cfg: &FleetChurnConfig) -> Self {
        let config = EngineConfig::builder()
            .measurements_required(cfg.n_star)
            .penalty(AssessmentFn::incremental())
            .compensation(AssessmentFn::incremental())
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .cyclic(true)
            .build()
            .expect("valid fleet config");
        let expected = cfg.machines * cfg.services_per_machine + cfg.attacks;
        let mut fleet = FleetEngine::with_capacity(
            config,
            cfg.groups.max(1),
            cfg.shards_per_group.max(1),
            expected,
        );
        if cfg.single_thread {
            fleet.set_parallel_threshold(usize::MAX);
        }
        let placements = place_attacks(cfg.seed, cfg.attacks, cfg.machines.max(1), cfg.epochs);
        let mut arrivals_at: Vec<Vec<usize>> = vec![Vec::new(); cfg.epochs.max(1) as usize];
        let mut attack_arrival = vec![0u64; cfg.attacks];
        let mut hosts = vec![false; cfg.machines];
        for p in &placements {
            arrivals_at[p.arrival_epoch as usize].push(p.instance);
            attack_arrival[p.instance] = p.arrival_epoch;
            hosts[p.machine_index] = true;
        }
        let mut machines: Vec<MachineRec> = Vec::with_capacity(cfg.machines);
        let mut id_index: HashMap<u32, usize, FxBuildHasher> =
            HashMap::with_capacity_and_hasher(cfg.machines, FxBuildHasher::default());
        let mut spawn_counter = 0usize;
        for (i, &hosts_attack) in hosts.iter().enumerate() {
            let mut m = MachineRec::new(i as u32, hosts_attack);
            for _ in 0..cfg.services_per_machine {
                m.spawn_benign(spawn_counter, cfg.lifetime_scale);
                spawn_counter += 1;
            }
            id_index.insert(m.id, i);
            machines.push(m);
        }
        Self {
            cfg: *cfg,
            fleet,
            placements,
            arrivals_at,
            attack_arrival,
            machines,
            id_index,
            spawn_counter,
            batch: Vec::with_capacity(expected),
            refs: Vec::with_capacity(expected),
        }
    }

    /// Runs the epoch loop.
    pub fn run(self, tr: &mut Tracer) -> Outcome {
        let Cluster {
            cfg,
            mut fleet,
            placements,
            arrivals_at,
            attack_arrival,
            mut machines,
            mut id_index,
            mut spawn_counter,
            mut batch,
            mut refs,
        } = self;
        let cfg = &cfg;
        let mut out = Outcome {
            attacks: cfg.attacks as u64,
            kill_epochs: vec![None; cfg.attacks],
            ..Outcome::default()
        };
        let mut next_machine_id = cfg.machines as u32;
        let mut departing: Vec<usize> = Vec::new();
        let mut oracle = Oracle::new(cfg.n_star);
        let (mut forgets, mut completes) = (0u64, 0u64);

        let loop_start = Instant::now();
        for epoch in 0..cfg.epochs {
            let mut engine_ns = 0u64;
            let gen = tr.begin("workloads.gen", epoch);
            for _ in 0..cfg.churn.machine_arrivals(epoch) {
                let id = next_machine_id;
                next_machine_id += 1;
                let mut m = MachineRec::new(id, false);
                for _ in 0..cfg.services_per_machine {
                    m.spawn_benign(spawn_counter, cfg.lifetime_scale);
                    spawn_counter += 1;
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
            for &idx in departing.iter().rev() {
                let m = machines.swap_remove(idx);
                id_index.remove(&m.id);
                if idx < machines.len() {
                    id_index.insert(machines[idx].id, idx);
                }
                for s in &m.services {
                    let call = tr.begin("fleet.forget", epoch);
                    fleet.forget(ProcessId::from_parts(m.id, s.local));
                    engine_ns += tr.end(call);
                    forgets += 1;
                }
            }
            for &instance in &arrivals_at[epoch as usize] {
                let idx = id_index[&(placements[instance].machine_index as u32)];
                machines[idx].spawn(0.0, f64::INFINITY, Some(instance));
            }
            for m in machines.iter_mut() {
                let id = m.id;
                for _ in 0..cfg.churn.service_arrivals(id, epoch) {
                    m.spawn_benign(spawn_counter, cfg.lifetime_scale);
                    spawn_counter += 1;
                }
                m.services.retain(|s| {
                    if s.attack.is_none() && cfg.churn.service_departs(id, s.local, epoch) {
                        let call = tr.begin("fleet.forget", epoch);
                        fleet.forget(ProcessId::from_parts(id, s.local));
                        engine_ns += tr.end(call);
                        forgets += 1;
                        false
                    } else {
                        true
                    }
                });
            }
            batch.clear();
            refs.clear();
            for (mi, m) in machines.iter().enumerate() {
                for (si, s) in m.services.iter().enumerate() {
                    let pid = ProcessId::from_parts(m.id, s.local);
                    let decision_ready = s.check.state() == Some(ProcessState::Terminable);
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
            tr.end(gen);

            let responses = if tr.is_on() {
                let call = tr.begin("fleet.observe_batch", epoch);
                let responses = fleet.observe_batch(&batch);
                engine_ns += tr.end(call);
                out.peak_tracked = out.peak_tracked.max(fleet.tracked());
                let call = tr.begin("fleet.purge", epoch);
                fleet.purge_terminated();
                engine_ns += tr.end(call);
                responses
            } else {
                let purged_before = fleet.purged_total();
                let call = tr.begin("fleet.tick", epoch);
                let responses = fleet.tick(&batch);
                engine_ns += tr.end(call);
                let purged = (fleet.purged_total() - purged_before) as usize;
                out.peak_tracked = out.peak_tracked.max(fleet.tracked() + purged);
                responses
            };
            out.observations += responses.len() as u64;

            let credit = tr.begin("driver.credit", epoch);
            for (resp, &(mi, si)) in responses.iter().zip(&refs) {
                let m = &mut machines[mi as usize];
                let s = &mut m.services[si as usize];
                oracle.check(&mut s.check, resp);
                if resp.action == Action::Terminate {
                    s.dead = true;
                    match s.attack {
                        Some(instance) => {
                            if out.kill_epochs[instance].is_none() {
                                out.kill_epochs[instance] = Some(epoch);
                                out.kill_lag_sum += epoch - attack_arrival[instance] + 1;
                            }
                        }
                        None => out.benign_killed += 1,
                    }
                    continue;
                }
                if s.attack.is_none() {
                    out.share_sum += resp.resources.cpu;
                    out.share_epochs += 1;
                    s.progress += resp.resources.cpu;
                    if s.progress >= s.lifetime {
                        s.dead = true;
                        let call = tr.begin("fleet.complete", epoch);
                        let _ = fleet.complete(ProcessId::from_parts(m.id, s.local));
                        engine_ns += tr.end(call);
                        completes += 1;
                    }
                }
            }
            for m in machines.iter_mut() {
                m.services.retain(|s| !s.dead);
            }
            tr.end(credit);
            out.tick_ms.push(engine_ns as f64 * 1e-6);
        }
        out.wall_s = loop_start.elapsed().as_secs_f64();

        out.benign_spawned = spawn_counter as u64;
        out.checked = oracle.checked;
        out.violations = oracle.violations;
        for (_, state, _) in fleet.iter() {
            out.count_state(state);
        }
        let fusion = fleet.fusion_stats();
        out.counters = vec![
            ("fleet.purged", fleet.purged_total() as f64),
            ("fleet.forget.calls", forgets as f64),
            ("fleet.complete.calls", completes as f64),
            ("fleet.tracked_peak", out.peak_tracked as f64),
            ("fusion.escalations", fusion.escalations as f64),
        ];
        out
    }
}
