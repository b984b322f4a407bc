//! `tenant_fused` and `tenant_flood`: the `multi_tenant` machine.
//!
//! The loop is `valkyrie_experiments::multi_tenant::run` for its `--fused`
//! and `--async-ingest --flood --defend` tiers, with timing at every call
//! into the engine. Each epoch's verdicts are generated first and then
//! handed to the rings with one `publish_batch` per publisher (the same
//! ring operations, in the same order, as the driver's per-verdict
//! `publish` loop). The traced run splits each `drain_tick` into its
//! public halves, `drain_batch` then `purge_terminated`.

use crate::oracle::{Oracle, PidCheck};
use crate::trace::Tracer;
use crate::Outcome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;
use valkyrie_core::hash::{jitter64, mix64};
use valkyrie_core::{
    Action, AssessmentFn, Classification, EngineConfig, EngineResponse, EscalationLadder,
    FusionConfig, IngestDefense, OverflowPolicy, ProcessId, ProcessState, ShardedEngine,
    ShareActuator, Verdict,
};
use valkyrie_workloads::{fleet_roster, NoiseFlood};

/// The fused heterogeneous detector pair (`multi_tenant::FusionTier`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fused {
    pub fast_weight: f64,
    pub slow_weight: f64,
    pub slow_cadence: u32,
    pub slow_tpr: f64,
    pub slow_fpr: f64,
    pub slow_dropout: f64,
    pub stale_decay: f64,
    pub capacity: usize,
}

/// Late, jittery binary verdicts under a decoy flood
/// (`multi_tenant::AsyncIngest` + `FloodTier`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flooded {
    pub delay: u64,
    pub jitter: u64,
    pub capacity: usize,
    pub policy: OverflowPolicy,
    pub rate: u32,
    pub burst: u32,
    pub burst_period: u64,
    pub churn: u64,
    pub defense: IngestDefense,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tier {
    Fused(Fused),
    Flooded(Flooded),
}

/// Machine shape and detector quality (`multi_tenant::MultiTenantConfig`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantConfig {
    pub benign_procs: usize,
    pub attacks: usize,
    pub epochs: u64,
    pub n_star: u64,
    pub shards: usize,
    pub tpr: f64,
    pub verdict_tpr: f64,
    pub verdict_fpr: f64,
    pub seed: u64,
    pub tier: Tier,
}

impl TenantConfig {
    /// `multi_tenant --fused` for workload seed `seed`.
    pub fn fused(seed: u64) -> Self {
        Self {
            tpr: 0.70,
            ..Self::machine(
                seed,
                Tier::Fused(Fused {
                    fast_weight: 1.0,
                    slow_weight: 2.0,
                    slow_cadence: 4,
                    slow_tpr: 0.95,
                    slow_fpr: 0.02,
                    slow_dropout: 0.15,
                    stale_decay: 0.5,
                    capacity: 4096,
                }),
            )
        }
    }

    /// `multi_tenant --async-ingest --flood --defend` for workload seed
    /// `seed`, over a 100-epoch horizon instead of 300 so a run holds a
    /// dozen episodes (every attack still lands in the first half).
    pub fn flooded(seed: u64) -> Self {
        Self {
            epochs: 100,
            ..Self::machine(
                seed,
                Tier::Flooded(Flooded {
                    delay: 3,
                    jitter: 2,
                    capacity: 1024,
                    policy: OverflowPolicy::Coalesce,
                    rate: 1_152,
                    burst: 2,
                    burst_period: 16,
                    churn: 16,
                    defense: IngestDefense::full(),
                }),
            )
        }
    }

    /// `multi_tenant`'s default machine under detector tier `tier`.
    fn machine(seed: u64, tier: Tier) -> Self {
        Self {
            benign_procs: 4_000,
            attacks: 6,
            epochs: 300,
            n_star: 30,
            shards: 8,
            tpr: 0.90,
            verdict_tpr: 0.995,
            verdict_fpr: 0.005,
            seed: mix64(seed ^ 0x007E_4A47),
            tier,
        }
    }
}

struct Benign {
    pid: ProcessId,
    lifetime: u64,
    burst_prob: f64,
    cpu_share_sum: f64,
    killed: bool,
    completed: bool,
    check: PidCheck,
}

struct Attack {
    pid: ProcessId,
    arrival: u64,
    killed_at: Option<u64>,
    check: PidCheck,
}

/// Per-verdict publication jitter (`multi_tenant`'s model).
fn publish_jitter(pid: ProcessId, epoch: u64, jitter: u64) -> u64 {
    jitter64(pid.0, epoch, jitter)
}

/// Runs one episode.
pub fn run(cfg: &TenantConfig, tr: &mut Tracer) -> Outcome {
    let setup_start = Instant::now();
    let mut builder = EngineConfig::builder()
        .measurements_required(cfg.n_star)
        .penalty(AssessmentFn::incremental())
        .compensation(AssessmentFn::incremental())
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .cyclic(true);
    if let Tier::Fused(ft) = cfg.tier {
        builder = builder.fusion(FusionConfig {
            weights: vec![ft.fast_weight, ft.slow_weight],
            default_weight: 1.0,
            stale_decay: ft.stale_decay,
            ladder: EscalationLadder::graduated(),
        });
    }
    let config = builder.build().expect("valid tenant config");
    let mut engine =
        ShardedEngine::with_capacity(config, cfg.shards.max(1), cfg.benign_procs + cfg.attacks);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut benign: Vec<Benign> = fleet_roster(cfg.benign_procs)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| Benign {
            pid: ProcessId(i as u64),
            lifetime: spec.epochs_to_complete,
            burst_prob: spec.burst_prob,
            cpu_share_sum: 0.0,
            killed: false,
            completed: false,
            check: PidCheck::default(),
        })
        .collect();
    let mut attacks: Vec<Attack> = (0..cfg.attacks)
        .map(|j| Attack {
            pid: ProcessId((cfg.benign_procs + j) as u64),
            arrival: (j as u64 * cfg.epochs / 2) / cfg.attacks.max(1) as u64,
            killed_at: None,
            check: PidCheck::default(),
        })
        .collect();
    let n = benign.len();

    // Publisher handles in `multi_tenant`'s creation order, so publisher
    // ids (and fair-queueing charges) match it.
    let (mut fast_pub, mut slow_pub, mut legit_pub, mut flood_pub, mut flood) =
        (None, None, None, None, None);
    let mut pending: Vec<Vec<ProcessId>> = Vec::new();
    match cfg.tier {
        Tier::Fused(ft) => {
            fast_pub = Some(engine.enable_verdict_ingest(ft.capacity, OverflowPolicy::Block));
            slow_pub = engine.verdict_publisher();
        }
        Tier::Flooded(fl) => {
            let publisher = engine.enable_ingest_defended(fl.capacity, fl.policy, fl.defense);
            let attack_pids: Vec<ProcessId> = attacks.iter().map(|a| a.pid).collect();
            flood = Some(
                NoiseFlood::masking(cfg.seed ^ 0xF100D, cfg.shards.max(1), &attack_pids)
                    .with_rate(fl.rate)
                    .with_burst(fl.burst, fl.burst_period)
                    .with_churn(fl.churn),
            );
            flood_pub = Some(publisher.clone());
            legit_pub = Some(publisher);
            pending = vec![Vec::new(); (fl.delay + fl.jitter + 1) as usize];
        }
    }
    let mut next_pub: Vec<u64> = vec![0; n + attacks.len()];
    let mut measured: Vec<ProcessId> = Vec::with_capacity(n + attacks.len());
    let mut fast_batch: Vec<(ProcessId, Verdict)> = Vec::with_capacity(n + attacks.len());
    let mut slow_batch: Vec<(ProcessId, Verdict)> = Vec::with_capacity(n + attacks.len());
    let mut legit_batch: Vec<(ProcessId, Classification)> = Vec::with_capacity(n + attacks.len());
    let mut decoys: Vec<(ProcessId, Classification)> = Vec::new();
    let mut decoy_checks: HashMap<u64, PidCheck> = HashMap::new();
    let mut oracle = Oracle::new(cfg.n_star);
    let mut out = Outcome {
        attacks: cfg.attacks as u64,
        benign_spawned: n as u64,
        ..Outcome::default()
    };
    let (mut completes, mut decoys_published) = (0u64, 0u64);
    let (mut legit_published, mut legit_dropped) = (0u64, 0u64);
    out.setup_s = setup_start.elapsed().as_secs_f64();

    let loop_start = Instant::now();
    for epoch in 0..cfg.epochs {
        let mut engine_ns = 0u64;
        let gen = tr.begin("workloads.gen", epoch);
        measured.clear();
        measured.extend(
            benign
                .iter()
                .filter(|p| !p.killed && !p.completed)
                .map(|p| p.pid),
        );
        measured.extend(
            attacks
                .iter()
                .filter(|a| a.killed_at.is_none() && epoch >= a.arrival)
                .map(|a| a.pid),
        );
        match cfg.tier {
            Tier::Fused(ft) => {
                fast_batch.clear();
                slow_batch.clear();
                let slow_window = epoch.is_multiple_of(u64::from(ft.slow_cadence.max(1)));
                for &pid in &measured {
                    let idx = pid.0 as usize;
                    let fast_prob = if idx < n {
                        benign[idx].burst_prob
                    } else {
                        cfg.tpr
                    };
                    let fast_conf = if rng.gen::<f64>() < fast_prob {
                        1.0
                    } else {
                        0.0
                    };
                    fast_batch.push((pid, Verdict::new(0, fast_conf)));
                    if slow_window && rng.gen::<f64>() >= ft.slow_dropout {
                        let slow_prob = if idx < n { ft.slow_fpr } else { ft.slow_tpr };
                        let slow_conf = if rng.gen::<f64>() < slow_prob {
                            1.0
                        } else {
                            0.0
                        };
                        slow_batch.push((
                            pid,
                            Verdict::new(1, slow_conf).with_cadence(ft.slow_cadence),
                        ));
                    }
                }
                tr.end(gen);
                let call = tr.begin("ingest.publish", epoch);
                let fast = fast_pub.as_ref().expect("fused tier has a fast member");
                let slow = slow_pub.as_ref().expect("fused tier has a slow member");
                let accepted = fast.publish_batch(&fast_batch) + slow.publish_batch(&slow_batch);
                engine_ns += tr.end(call);
                legit_published += (fast_batch.len() + slow_batch.len()) as u64;
                legit_dropped += (fast_batch.len() + slow_batch.len() - accepted) as u64;
            }
            Tier::Flooded(fl) => {
                for &pid in &measured {
                    let idx = pid.0 as usize;
                    let at = (epoch + fl.delay + publish_jitter(pid, epoch, fl.jitter))
                        .max(next_pub[idx]);
                    next_pub[idx] = at + 1;
                    let slot = (at % pending.len() as u64) as usize;
                    pending[slot].push(pid);
                }
                let due = (epoch % pending.len() as u64) as usize;
                let mut due_pids = std::mem::take(&mut pending[due]);
                legit_batch.clear();
                for &pid in &due_pids {
                    let idx = pid.0 as usize;
                    let (live, terminable, rates) = if idx < n {
                        let p = &benign[idx];
                        (
                            !p.killed && !p.completed,
                            p.check.state() == Some(ProcessState::Terminable),
                            (cfg.verdict_fpr, p.burst_prob),
                        )
                    } else {
                        let a = &attacks[idx - n];
                        (
                            a.killed_at.is_none(),
                            a.check.state() == Some(ProcessState::Terminable),
                            (cfg.verdict_tpr, cfg.tpr),
                        )
                    };
                    if live {
                        let flag_prob = if terminable { rates.0 } else { rates.1 };
                        let inference = if rng.gen::<f64>() < flag_prob {
                            Classification::Malicious
                        } else {
                            Classification::Benign
                        };
                        legit_batch.push((pid, inference));
                    }
                }
                due_pids.clear();
                pending[due] = due_pids;
                decoys.clear();
                flood
                    .as_ref()
                    .expect("flood tier has a flood")
                    .decoys_into(epoch, &mut decoys);
                tr.end(gen);
                let call = tr.begin("ingest.publish", epoch);
                let accepted = legit_pub
                    .as_ref()
                    .expect("flood tier has a legit publisher")
                    .publish_batch(&legit_batch);
                engine_ns += tr.end(call);
                legit_published += legit_batch.len() as u64;
                legit_dropped += (legit_batch.len() - accepted) as u64;
                let call = tr.begin("ingest.publish_flood", epoch);
                flood_pub
                    .as_ref()
                    .expect("flood tier has a flood publisher")
                    .publish_batch(&decoys);
                engine_ns += tr.end(call);
                decoys_published += decoys.len() as u64;
            }
        }

        let responses: Vec<EngineResponse> = if tr.is_on() {
            let call = tr.begin("sharded.drain_batch", epoch);
            let responses = engine.drain_batch();
            engine_ns += tr.end(call);
            out.peak_tracked = out.peak_tracked.max(engine.tracked());
            let call = tr.begin("sharded.purge", epoch);
            engine.purge_terminated();
            engine_ns += tr.end(call);
            responses
        } else {
            let purged_before = engine.purged_total();
            let call = tr.begin("sharded.drain_tick", epoch);
            let responses = engine.drain_tick();
            engine_ns += tr.end(call);
            let purged = (engine.purged_total() - purged_before) as usize;
            out.peak_tracked = out.peak_tracked.max(engine.tracked() + purged);
            responses
        };
        out.observations += responses.len() as u64;

        let credit = tr.begin("driver.credit", epoch);
        for resp in &responses {
            let idx = resp.pid.0 as usize;
            if idx >= n + attacks.len() {
                oracle.check(decoy_checks.entry(resp.pid.0).or_default(), resp);
                continue;
            }
            if idx < n {
                let p = &mut benign[idx];
                if p.killed || p.completed {
                    oracle.check(&mut p.check, resp);
                    continue;
                }
                oracle.check(&mut p.check, resp);
                if resp.action == Action::Terminate {
                    p.killed = true;
                    out.benign_killed += 1;
                    continue;
                }
                p.cpu_share_sum += resp.resources.cpu;
                out.share_sum += resp.resources.cpu;
                out.share_epochs += 1;
                if p.cpu_share_sum >= p.lifetime as f64 {
                    p.completed = true;
                    let call = tr.begin("sharded.complete", epoch);
                    let _ = engine.complete(p.pid);
                    engine_ns += tr.end(call);
                    completes += 1;
                }
            } else {
                let a = &mut attacks[idx - n];
                oracle.check(&mut a.check, resp);
                if resp.action == Action::Terminate && a.killed_at.is_none() {
                    a.killed_at = Some(epoch);
                    out.kill_lag_sum += epoch - a.arrival + 1;
                }
            }
        }
        tr.end(credit);
        out.tick_ms.push(engine_ns as f64 * 1e-6);
    }
    out.wall_s = loop_start.elapsed().as_secs_f64();

    out.kill_epochs = attacks.iter().map(|a| a.killed_at).collect();
    out.checked = oracle.checked;
    out.violations = oracle.violations;
    for (_, state, _) in engine.iter() {
        out.count_state(state);
    }
    let fusion = engine.fusion_stats();
    let ingest = engine
        .ingest_stats()
        .or_else(|| engine.verdict_ingest_stats())
        .unwrap_or_default();
    let legit_id = legit_pub.as_ref().map_or(u32::MAX, |p| p.id()) as usize;
    let dropped_legit = ingest
        .dropped_by_publisher
        .get(legit_id)
        .copied()
        .unwrap_or(0);
    legit_dropped += dropped_legit;
    let legit_drained = legit_published - legit_dropped;
    out.counters = vec![
        ("sharded.purged", engine.purged_total() as f64),
        ("sharded.complete.calls", completes as f64),
        ("sharded.tracked_peak", out.peak_tracked as f64),
        ("ingest.published", ingest.published as f64),
        ("ingest.drained", ingest.drained as f64),
        ("ingest.dropped", ingest.dropped as f64),
        ("ingest.dropped_legit", legit_dropped as f64),
        ("ingest.priority_queued", ingest.priority_queued as f64),
        (
            "ingest.evictions_deflected",
            ingest.evictions_deflected as f64,
        ),
        ("ingest.decoys_published", decoys_published as f64),
        (
            "ingest.useful_ratio",
            legit_drained as f64 / ingest.published.max(1) as f64,
        ),
        ("fusion.verdicts", fusion.verdicts as f64),
        ("fusion.stale_decayed", fusion.stale_decayed as f64),
        ("fusion.escalations", fusion.escalations as f64),
        (
            "fusion.verdicts_per_response",
            if fusion.verdicts == 0 {
                0.0
            } else {
                fusion.verdicts as f64 / out.observations.max(1) as f64
            },
        ),
    ];
    out
}
