//! The multi-tenant machine: several concurrent attacks hiding in a fleet
//! of thousands of benign service processes (ours; beyond the paper).
//!
//! The paper evaluates one attack per machine. A production host is
//! multi-tenant: thousands of benign services ([`valkyrie_workloads::fleet`])
//! share the machine with a handful of staggered time-progressive attacks.
//! This experiment drives the whole fleet through the scaling tier — one
//! [`ShardedEngine::tick`] per epoch, thousands of observations per batch —
//! and measures both the security outcome (attacks terminated, benign
//! processes spared) and the response tier's **throughput** in
//! observations per second.
//!
//! As in the quantified Table I ([`crate::responses`]), terminable-state
//! verdicts are drawn at the detector's `N*`-measurement efficacy
//! (`verdict_tpr`/`verdict_fpr`), while per-epoch inferences use the raw
//! per-epoch rates — that is the entire point of waiting for `N*`.
//!
//! # Async ingest (`--async-ingest`)
//!
//! With [`MultiTenantConfig::ingest`] set, the detector tier is **slow and
//! jittery**: each epoch's verdicts are published into the engine's
//! bounded per-shard rings ([`valkyrie_core::ingest`]) only
//! `delay + jitter(pid, epoch)` epochs after the measurement, while the
//! epoch driver calls [`ShardedEngine::drain_tick`] every epoch
//! regardless. The driver completes all `epochs` ticks on schedule — the
//! detectors' latency costs detection *lag* (attacks die a few epochs
//! later), never response-tier *stall*. Publication is deterministic
//! (jitter is a pure hash), so the security outcome is pinned by
//! `tests/golden_outputs.rs` alongside the synchronous one.

use crate::harness::{pct, TextTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use valkyrie_core::hash::jitter64;
use valkyrie_core::invariants::ResponseInvariants;
use valkyrie_core::{
    Action, AssessmentFn, Classification, EngineConfig, EscalationLadder, FusionConfig,
    FusionStats, IngestDefense, IngestStats, OverflowPolicy, ProcessId, ProcessState,
    ShardedEngine, ShareActuator, Verdict,
};
use valkyrie_workloads::{fleet_roster, NoiseFlood};

/// Multi-tenant machine shape and detector quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiTenantConfig {
    /// Benign service processes on the machine (the fleet).
    pub benign_procs: usize,
    /// Concurrent time-progressive attacks, staggered over the first half
    /// of the horizon.
    pub attacks: usize,
    /// Observation horizon, in epochs.
    pub epochs: u64,
    /// Valkyrie's measurement requirement.
    pub n_star: u64,
    /// Engine shard count.
    pub shards: usize,
    /// Per-epoch probability that an attack is flagged.
    pub tpr: f64,
    /// Verdict-time true-positive rate (efficacy after `N*` measurements).
    pub verdict_tpr: f64,
    /// Verdict-time false-positive rate (efficacy after `N*` measurements).
    pub verdict_fpr: f64,
    /// RNG seed for the detection streams.
    pub seed: u64,
    /// `Some` runs the detector tier asynchronously (slow, jittery
    /// verdict publication through the ingest rings); `None` keeps the
    /// synchronous batch-per-tick driver. See the [module docs](self).
    pub ingest: Option<AsyncIngest>,
    /// `Some` replaces the single binary detector with a **fused
    /// heterogeneous pair**: the fast-weak per-epoch stream (detector 0,
    /// raw `tpr`/`burst_prob` rates, no verdict-grade sharpening) plus a
    /// slow-strong member (detector 1) publishing every
    /// [`FusionTier::slow_cadence`] epochs. Each member publishes
    /// [`Verdict`]s over its own [`IngestPublisher`] and the engine fuses
    /// them under the graduated escalation ladder. Mutually exclusive with
    /// `ingest`.
    ///
    /// [`IngestPublisher`]: valkyrie_core::IngestPublisher
    pub fusion: Option<FusionTier>,
    /// `Some` runs a [`NoiseFlood`] against the async ingest rings while
    /// the staggered attacks run underneath: a second publisher handle
    /// spams benign-looking decoy observations at exactly the shards that
    /// own the attack pids, forcing overflow evictions that mask the real
    /// verdicts. Requires `ingest`; mutually exclusive with `fusion`. The
    /// [`FloodTier::defense`] field decides whether the rings fight back.
    pub flood: Option<FloodTier>,
}

/// The async detector tier's shape: how late verdicts are published, and
/// how the bounded rings behave ([`valkyrie_core::ingest`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncIngest {
    /// Epochs between a measurement and its verdict's publication (the
    /// detector ensemble's base inference latency).
    pub delay: u64,
    /// Up to this many extra epochs of deterministic per-verdict jitter.
    pub jitter: u64,
    /// Ingest ring capacity, in observations per shard.
    pub capacity: usize,
    /// What a full ring does with the next verdict.
    pub policy: OverflowPolicy,
}

impl Default for AsyncIngest {
    fn default() -> Self {
        Self {
            delay: 3,
            jitter: 2,
            capacity: 1024,
            // Cyclic monitoring consumes one verdict per process per
            // epoch, so merging to the newest is the faithful overload
            // behaviour.
            policy: OverflowPolicy::Coalesce,
        }
    }
}

/// The fused heterogeneous detector pair: a fast-weak member answering
/// every epoch and a slow-strong member answering every `slow_cadence`
/// epochs (occasionally skipping a window entirely), combined by the
/// engine's weighted-evidence fusion under the graduated escalation
/// ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionTier {
    /// Fusion weight of the fast-weak per-epoch member (detector 0).
    pub fast_weight: f64,
    /// Fusion weight of the slow-strong member (detector 1).
    pub slow_weight: f64,
    /// Epochs between the slow member's publications.
    pub slow_cadence: u32,
    /// Per-window probability that the slow member flags an attack.
    pub slow_tpr: f64,
    /// Per-window probability that the slow member flags a benign process.
    pub slow_fpr: f64,
    /// Probability the slow member skips a publication window outright
    /// (model overload / preemption). Its held verdict then outlives its
    /// cadence and is staleness-decayed by the fusion table.
    pub slow_dropout: f64,
    /// Per-epoch decay applied to a member's weight once its verdict is
    /// older than its cadence: `stale_decay^(age − cadence)` once overdue.
    pub stale_decay: f64,
    /// Verdict-ingest ring capacity, in verdicts per shard.
    pub capacity: usize,
}

impl Default for FusionTier {
    fn default() -> Self {
        Self {
            fast_weight: 1.0,
            slow_weight: 2.0,
            slow_cadence: 4,
            slow_tpr: 0.95,
            slow_fpr: 0.02,
            slow_dropout: 0.15,
            stale_decay: 0.5,
            capacity: 4096,
        }
    }
}

/// The noise-floor DoS tier: a [`NoiseFlood`] aimed at the attack pids'
/// shards, published through its own [`IngestPublisher`] clone so the
/// fair-queueing defense has a tenant to charge.
///
/// [`IngestPublisher`]: valkyrie_core::IngestPublisher
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodTier {
    /// Decoys per target shard per epoch, steady state. Suppression is
    /// sharp around the ring capacity: once the post-verdict decoy volume
    /// reaches it, every real verdict in the shard is evicted.
    pub rate: u32,
    /// Rate multiplier on burst epochs.
    pub burst: u32,
    /// Every `burst_period`-th epoch bursts (`0` disables bursts).
    pub burst_period: u64,
    /// Decoy pid population rotation period ([`NoiseFlood::with_churn`]).
    pub churn: u64,
    /// The rings' overload defense ([`valkyrie_core::ingest`]); default
    /// off, [`IngestDefense::full`] for the hardened run.
    pub defense: IngestDefense,
}

impl Default for FloodTier {
    fn default() -> Self {
        Self {
            rate: 1_152,
            burst: 2,
            burst_period: 16,
            churn: 16,
            defense: IngestDefense::default(),
        }
    }
}

impl Default for MultiTenantConfig {
    fn default() -> Self {
        Self {
            benign_procs: 4_000,
            attacks: 6,
            epochs: 300,
            n_star: 30,
            shards: 8,
            tpr: 0.90,
            verdict_tpr: 0.995,
            verdict_fpr: 0.005,
            seed: 0x007E_4A47,
            ingest: None,
            fusion: None,
            flood: None,
        }
    }
}

impl MultiTenantConfig {
    /// A scaled-down configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Self {
            benign_procs: 300,
            attacks: 3,
            epochs: 80,
            n_star: 10,
            shards: 4,
            ..Self::default()
        }
    }

    /// [`Self::quick`] with the async detector tier (3-epoch latency,
    /// up to 2 epochs of jitter).
    pub fn quick_async() -> Self {
        Self {
            ingest: Some(AsyncIngest::default()),
            ..Self::quick()
        }
    }

    /// [`Self::quick`] with a fast-**weak** per-epoch member (70% TPR)
    /// fused with the default slow-strong member.
    pub fn quick_fused() -> Self {
        Self {
            tpr: 0.70,
            fusion: Some(FusionTier::default()),
            ..Self::quick()
        }
    }

    /// [`Self::quick_async`] under a noise flood: small `DropOldest`
    /// rings (128/shard against ~75 legit verdicts per shard per epoch)
    /// and a 160/shard/epoch decoy stream at the attack pids' shards —
    /// enough to evict every real verdict there once the decoys land. The
    /// `defense` decides whether the rings fight back.
    pub fn quick_flood(defense: IngestDefense) -> Self {
        Self {
            ingest: Some(AsyncIngest {
                capacity: 128,
                policy: OverflowPolicy::DropOldest,
                ..AsyncIngest::default()
            }),
            flood: Some(FloodTier {
                rate: 160,
                defense,
                ..FloodTier::default()
            }),
            ..Self::quick()
        }
    }
}

/// Outcome of one multi-tenant run.
#[derive(Debug, Clone)]
pub struct MultiTenantResult {
    /// Attacks terminated (out of `config.attacks`).
    pub attacks_terminated: usize,
    /// Mean epochs from an attack's arrival to its termination.
    pub mean_epochs_to_kill: f64,
    /// Benign processes wrongfully terminated, % of the fleet.
    pub benign_killed_pct: f64,
    /// Mean slowdown of surviving benign work, % (lost CPU share).
    pub benign_slowdown_pct: f64,
    /// Benign processes that ran to completion within the horizon.
    pub benign_completed: usize,
    /// Largest number of processes tracked at once.
    pub peak_tracked: usize,
    /// Processes evicted by the epoch driver's purge.
    pub purged: u64,
    /// Processes still tracked (live) after the final tick.
    pub final_tracked_live: usize,
    /// Total observations fed through the engine.
    pub observations: u64,
    /// Engine-only throughput, observations per second.
    pub observations_per_sec: f64,
    /// Ingest-tier counters (async runs only).
    pub ingest: Option<IngestStats>,
    /// Decoy observations the flood tier published (flood runs only).
    pub flood_decoys: u64,
    /// Fusion-tier counters: per-detector verdicts absorbed, staleness
    /// decays and escalation-ladder transitions. All zero except
    /// `escalations` when the run is binary (no [`FusionTier`]).
    pub fusion_stats: FusionStats,
    /// Rendered report.
    pub report: String,
}

/// The deterministic per-verdict publication jitter: a pure hash of the
/// pid and the epoch the measurement was taken in (the same
/// [`jitter64`] model `valkyrie_detect::LatencyModel` uses).
fn publish_jitter(pid: ProcessId, epoch: u64, jitter: u64) -> u64 {
    jitter64(pid.0, epoch, jitter)
}

struct BenignProc {
    pid: ProcessId,
    /// Epochs of useful work left (at full speed).
    lifetime: u64,
    burst_prob: f64,
    cpu_share_sum: f64,
    epochs_run: u64,
    killed: bool,
    completed: bool,
    /// Fig. 3 state after the last tick, mirrored from the response so the
    /// driver never pays a per-pid `engine.state()` hash lookup — a
    /// 4k-process fleet would pay thousands of them per epoch.
    state: Option<ProcessState>,
}

struct AttackProc {
    pid: ProcessId,
    arrival: u64,
    killed_at: Option<u64>,
    /// Mirrored response state (see [`BenignProc::state`]).
    state: Option<ProcessState>,
}

/// Runs the multi-tenant machine.
pub fn run(cfg: &MultiTenantConfig) -> MultiTenantResult {
    assert!(
        cfg.ingest.is_none() || cfg.fusion.is_none(),
        "the async and fused detector tiers are mutually exclusive"
    );
    assert!(
        cfg.flood.is_none() || (cfg.ingest.is_some() && cfg.fusion.is_none()),
        "the flood tier rides on the async ingest rings"
    );
    let mut builder = EngineConfig::builder()
        .measurements_required(cfg.n_star)
        .penalty(AssessmentFn::incremental())
        .compensation(AssessmentFn::incremental())
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .cyclic(true);
    if let Some(ft) = cfg.fusion {
        builder = builder.fusion(FusionConfig {
            weights: vec![ft.fast_weight, ft.slow_weight],
            default_weight: 1.0,
            stale_decay: ft.stale_decay,
            ladder: EscalationLadder::graduated(),
        });
    }
    let config = builder.build().expect("valid multi-tenant config");
    let mut engine =
        ShardedEngine::with_capacity(config, cfg.shards.max(1), cfg.benign_procs + cfg.attacks);
    // Debug builds check every response against the paper's invariants.
    let mut invariants = cfg!(debug_assertions).then(|| ResponseInvariants::new(engine.config()));
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut benign: Vec<BenignProc> = fleet_roster(cfg.benign_procs)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| BenignProc {
            pid: ProcessId(i as u64),
            lifetime: spec.epochs_to_complete,
            burst_prob: spec.burst_prob,
            cpu_share_sum: 0.0,
            epochs_run: 0,
            killed: false,
            completed: false,
            state: None,
        })
        .collect();
    // Attacks arrive staggered across the first half of the horizon.
    let mut attacks: Vec<AttackProc> = (0..cfg.attacks)
        .map(|j| AttackProc {
            pid: ProcessId((cfg.benign_procs + j) as u64),
            arrival: (j as u64 * cfg.epochs / 2) / cfg.attacks.max(1) as u64,
            killed_at: None,
            state: None,
        })
        .collect();

    let mut batch: Vec<(ProcessId, Classification)> =
        Vec::with_capacity(benign.len() + attacks.len());

    // The async detector tier: verdicts computed at epoch `e` are
    // published at `e + delay + jitter(pid, e)` (clamped to stay in
    // per-process order). The ring of pending publications is indexed by
    // target epoch modulo its length — one slot per possible lag.
    let publisher = cfg.ingest.map(|ai| {
        let defense = cfg.flood.map(|f| f.defense).unwrap_or_default();
        engine.enable_ingest_defended(ai.capacity, ai.policy, defense)
    });
    // The flood tier: a deterministic decoy stream aimed at exactly the
    // shards that own the attack pids, published through its own handle
    // (the defense's per-publisher accounting needs a tenant to charge).
    let flood = cfg.flood.map(|f| {
        let attack_pids: Vec<ProcessId> = attacks.iter().map(|a| a.pid).collect();
        NoiseFlood::masking(cfg.seed ^ 0xF100D, cfg.shards.max(1), &attack_pids)
            .with_rate(f.rate)
            .with_burst(f.burst, f.burst_period)
            .with_churn(f.churn)
    });
    let flood_pub = match (&publisher, &flood) {
        (Some(publisher), Some(_)) => Some(publisher.clone()),
        _ => None,
    };
    let mut decoys: Vec<(ProcessId, Classification)> = Vec::new();
    let mut flood_decoys = 0u64;
    // The fused tier: each member publishes over its **own** publisher
    // handle into the shared verdict rings, at its own cadence, one batch
    // per epoch.
    let fusion_pubs = cfg.fusion.map(|ft| {
        let fast = engine.enable_verdict_ingest(ft.capacity, OverflowPolicy::Block);
        let slow = engine
            .verdict_publisher()
            .expect("verdict ingest just enabled");
        (fast, slow)
    });
    let mut fast_batch: Vec<(ProcessId, Verdict)> = Vec::new();
    let mut slow_batch: Vec<(ProcessId, Verdict)> = Vec::new();
    let mut pending: Vec<Vec<ProcessId>> = cfg
        .ingest
        .map(|ai| vec![Vec::new(); (ai.delay + ai.jitter + 1) as usize])
        .unwrap_or_default();
    // Per-process floor on the next publication epoch (in-order delivery).
    let mut next_pub: Vec<u64> = vec![0; benign.len() + attacks.len()];

    let mut observations = 0u64;
    let mut peak_tracked = 0usize;
    let mut engine_time = std::time::Duration::ZERO;

    let mut measured: Vec<ProcessId> = Vec::with_capacity(benign.len() + attacks.len());

    for epoch in 0..cfg.epochs {
        // The measurement phase: which processes the detector sampled this
        // epoch (liveness is re-checked at verdict time for the async
        // tier, where the two moments differ).
        measured.clear();
        for proc in benign.iter() {
            if !proc.killed && !proc.completed {
                measured.push(proc.pid);
            }
        }
        for attack in attacks.iter() {
            if attack.killed_at.is_none() && epoch >= attack.arrival {
                measured.push(attack.pid);
            }
        }

        // The detector finalises a verdict with its calibrated knowledge:
        // per-epoch rates normally, verdict-grade rates once the monitor
        // has its N* measurements (the Terminable state mirrored from the
        // latest response).
        let verdict =
            |pid: ProcessId, benign: &[BenignProc], attacks: &[AttackProc], rng: &mut StdRng| {
                let idx = pid.0 as usize;
                let flag_prob = if idx < benign.len() {
                    if benign[idx].state == Some(ProcessState::Terminable) {
                        cfg.verdict_fpr
                    } else {
                        benign[idx].burst_prob
                    }
                } else if attacks[idx - benign.len()].state == Some(ProcessState::Terminable) {
                    cfg.verdict_tpr
                } else {
                    cfg.tpr
                };
                if rng.gen::<f64>() < flag_prob {
                    Classification::Malicious
                } else {
                    Classification::Benign
                }
            };

        let purged_before = engine.purged_total();
        let t0 = Instant::now();
        let responses = if let (Some((fast_pub, slow_pub)), Some(ft)) = (&fusion_pubs, cfg.fusion) {
            // The fast-weak member answers every epoch with its raw rates
            // (no verdict-grade sharpening — accumulating efficacy is the
            // slow member's job); the slow-strong member answers on its own
            // cadence and occasionally drops a window, leaving its held
            // verdict to staleness-decay inside the fusion table.
            let slow_window = epoch.is_multiple_of(u64::from(ft.slow_cadence.max(1)));
            fast_batch.clear();
            slow_batch.clear();
            for &pid in &measured {
                let idx = pid.0 as usize;
                let fast_prob = if idx < benign.len() {
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
                    let slow_prob = if idx < benign.len() {
                        ft.slow_fpr
                    } else {
                        ft.slow_tpr
                    };
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
            fast_pub.publish_batch(&fast_batch);
            slow_pub.publish_batch(&slow_batch);
            engine.drain_tick().into()
        } else {
            match (&publisher, cfg.ingest) {
                (Some(publisher), Some(ai)) => {
                    // Schedule this epoch's measurements for late, jittery
                    // verdict publication...
                    for &pid in &measured {
                        let idx = pid.0 as usize;
                        let at = (epoch + ai.delay + publish_jitter(pid, epoch, ai.jitter))
                            .max(next_pub[idx]);
                        next_pub[idx] = at + 1;
                        let slot = (at % pending.len() as u64) as usize;
                        pending[slot].push(pid);
                    }
                    // ...finalise and publish the verdicts whose inference
                    // latency has elapsed (skipping processes that died or
                    // completed while the measurement was in flight)...
                    let due = (epoch % pending.len() as u64) as usize;
                    let due_pids = std::mem::take(&mut pending[due]);
                    batch.clear();
                    for &pid in &due_pids {
                        let idx = pid.0 as usize;
                        let live = if idx < benign.len() {
                            !benign[idx].killed && !benign[idx].completed
                        } else {
                            attacks[idx - benign.len()].killed_at.is_none()
                        };
                        if live {
                            let inference = verdict(pid, &benign, &attacks, &mut rng);
                            batch.push((pid, inference));
                        }
                    }
                    publisher.publish_batch(&batch);
                    pending[due] = {
                        let mut reclaimed = due_pids;
                        reclaimed.clear();
                        reclaimed
                    };
                    // ...let the flood land its decoys *after* the real
                    // verdicts (the attacker's winning move: with the ring
                    // full, `DropOldest`/`Coalesce` evict from the front,
                    // which is exactly where the legit verdicts sit)...
                    if let (Some(flood_pub), Some(flood)) = (&flood_pub, &flood) {
                        decoys.clear();
                        flood.decoys_into(epoch, &mut decoys);
                        flood_pub.publish_batch(&decoys);
                        flood_decoys += decoys.len() as u64;
                    }
                    // ...and tick on schedule, whatever has arrived.
                    engine.drain_tick().into()
                }
                _ => {
                    batch.clear();
                    for &pid in &measured {
                        let inference = verdict(pid, &benign, &attacks, &mut rng);
                        batch.push((pid, inference));
                    }
                    engine.tick(&batch)
                }
            }
        };
        engine_time += t0.elapsed();
        observations += responses.len() as u64;
        // Concurrent peak = the map as it stood before this tick's purge.
        let purged_this_tick = (engine.purged_total() - purged_before) as usize;
        peak_tracked = peak_tracked.max(engine.tracked() + purged_this_tick);
        if let Some(inv) = &mut invariants {
            if let Err(v) = inv.check_tick(&responses) {
                panic!("multi_tenant epoch {epoch}: {v}");
            }
        }

        for resp in &responses {
            let idx = resp.pid.0 as usize;
            if idx >= benign.len() + attacks.len() {
                continue; // a flood decoy: tracked by the engine, no tenant to credit
            }
            if idx < benign.len() {
                let proc = &mut benign[idx];
                if proc.killed || proc.completed {
                    continue; // a stale in-flight verdict; nothing to credit
                }
                proc.state = Some(resp.state);
                if resp.action == Action::Terminate {
                    proc.killed = true;
                    continue;
                }
                proc.cpu_share_sum += resp.resources.cpu;
                proc.epochs_run += 1;
                // Work accumulates at the enforced share; completion
                // after `lifetime` epoch-units of progress.
                if proc.cpu_share_sum >= proc.lifetime as f64 {
                    proc.completed = true;
                    let _ = engine.complete(proc.pid);
                    if let Some(inv) = &mut invariants {
                        inv.complete(proc.pid);
                    }
                }
            } else {
                let attack = &mut attacks[idx - benign.len()];
                attack.state = Some(resp.state);
                if resp.action == Action::Terminate && attack.killed_at.is_none() {
                    attack.killed_at = Some(epoch);
                }
            }
        }
    }

    let attacks_terminated = attacks.iter().filter(|a| a.killed_at.is_some()).count();
    let mean_epochs_to_kill = if attacks_terminated == 0 {
        f64::NAN
    } else {
        attacks
            .iter()
            .filter_map(|a| a.killed_at.map(|k| (k - a.arrival + 1) as f64))
            .sum::<f64>()
            / attacks_terminated as f64
    };
    let killed = benign.iter().filter(|p| p.killed).count();
    let completed = benign.iter().filter(|p| p.completed).count();
    let survivors: Vec<&BenignProc> = benign.iter().filter(|p| !p.killed).collect();
    let benign_slowdown_pct = if survivors.is_empty() {
        0.0
    } else {
        100.0
            * survivors
                .iter()
                .filter(|p| p.epochs_run > 0)
                .map(|p| 1.0 - p.cpu_share_sum / p.epochs_run as f64)
                .sum::<f64>()
            / survivors.len() as f64
    };
    let observations_per_sec = observations as f64 / engine_time.as_secs_f64().max(1e-9);

    let mut t = TextTable::new(vec!["metric", "value"]);
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
        pct(100.0 * killed as f64 / cfg.benign_procs.max(1) as f64),
    ]);
    t.row(vec!["benign slowdown".into(), pct(benign_slowdown_pct)]);
    t.row(vec!["benign completed".into(), completed.to_string()]);
    t.row(vec!["peak tracked".into(), peak_tracked.to_string()]);
    t.row(vec!["purged".into(), engine.purged_total().to_string()]);
    t.row(vec![
        "live after final tick".into(),
        engine.tracked_live().to_string(),
    ]);
    t.row(vec![
        "engine throughput".into(),
        format!("{:.2} Mobs/s", observations_per_sec / 1e6),
    ]);
    let ingest_stats = engine.ingest_stats();
    if let Some(stats) = &ingest_stats {
        t.row(vec![
            "ingest published/drained".into(),
            format!("{}/{}", stats.published, stats.drained),
        ]);
        t.row(vec![
            "ingest dropped/coalesced".into(),
            format!("{}/{}", stats.dropped, stats.coalesced),
        ]);
        if cfg.flood.is_some() {
            t.row(vec![
                "flood decoys published".into(),
                flood_decoys.to_string(),
            ]);
            t.row(vec![
                "ingest priority/deflected".into(),
                format!("{}/{}", stats.priority_queued, stats.evictions_deflected),
            ]);
            t.row(vec![
                "ingest dropped by publisher".into(),
                if stats.dropped_by_publisher.is_empty() {
                    "-".into()
                } else {
                    stats
                        .dropped_by_publisher
                        .iter()
                        .enumerate()
                        .map(|(id, n)| format!("p{id}:{n}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                },
            ]);
        }
    }
    let fusion_stats = engine.fusion_stats();
    t.row(vec![
        "fusion verdicts/stale-decayed/escalations".into(),
        format!(
            "{}/{}/{}",
            fusion_stats.verdicts, fusion_stats.stale_decayed, fusion_stats.escalations
        ),
    ]);
    if cfg.fusion.is_some() {
        t.row(vec![
            "fusion verdicts per detector".into(),
            fusion_stats
                .per_detector
                .iter()
                .enumerate()
                .map(|(id, n)| format!("d{id}:{n}"))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    let detector_tier = if let Some(ft) = cfg.fusion {
        format!(
            "fused detectors: fast w={} every epoch + slow w={} every {} epochs \
             ({:.0}% dropout, stale decay {})",
            ft.fast_weight,
            ft.slow_weight,
            ft.slow_cadence,
            100.0 * ft.slow_dropout,
            ft.stale_decay
        )
    } else {
        match cfg.ingest {
            Some(ai) => {
                let mut tier = format!(
                    "async detectors: {} + 0..={} epochs latency, {:?} rings of {}/shard",
                    ai.delay, ai.jitter, ai.policy, ai.capacity
                );
                if let (Some(ft), Some(flood)) = (cfg.flood, &flood) {
                    tier.push_str(&format!(
                        "; noise flood: {}/shard/epoch (x{} burst every {}) at shards {:?}, \
                         defense priority_lane={} fair_queueing={}",
                        ft.rate,
                        ft.burst,
                        ft.burst_period,
                        flood.target_shards(),
                        ft.defense.priority_lane,
                        ft.defense.fair_queueing
                    ));
                }
                tier
            }
            None => "synchronous detectors".to_string(),
        }
    };
    let report = format!(
        "Multi-tenant machine — {} benign + {} attacks over {} epochs, \
         {} shards, N* = {}\n\
         ({} observations through ShardedEngine::{}; {})\n\n{}",
        cfg.benign_procs,
        cfg.attacks,
        cfg.epochs,
        cfg.shards,
        cfg.n_star,
        observations,
        if cfg.ingest.is_some() || cfg.fusion.is_some() {
            "drain_tick"
        } else {
            "tick"
        },
        detector_tier,
        t.render()
    );

    MultiTenantResult {
        attacks_terminated,
        mean_epochs_to_kill,
        benign_killed_pct: 100.0 * killed as f64 / cfg.benign_procs.max(1) as f64,
        benign_slowdown_pct,
        benign_completed: completed,
        peak_tracked,
        purged: engine.purged_total(),
        final_tracked_live: engine.tracked_live(),
        observations,
        observations_per_sec,
        ingest: ingest_stats,
        flood_decoys,
        fusion_stats,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_attack_is_terminated() {
        let r = run(&MultiTenantConfig::quick());
        assert_eq!(r.attacks_terminated, 3);
        // Termination needs at least N* + 1 epochs from arrival.
        assert!(r.mean_epochs_to_kill >= 11.0, "{}", r.mean_epochs_to_kill);
    }

    #[test]
    fn the_fleet_survives_mostly_unharmed() {
        let r = run(&MultiTenantConfig::quick());
        // ~7 verdict cycles at verdict_fpr = 0.5% each: a few percent of
        // wrongful terminations is the expected operating point.
        assert!(r.benign_killed_pct < 8.0, "{}", r.benign_killed_pct);
        assert!(r.benign_slowdown_pct < 20.0, "{}", r.benign_slowdown_pct);
    }

    #[test]
    fn terminated_processes_are_purged_not_leaked() {
        let r = run(&MultiTenantConfig::quick());
        // Attacks were evicted, so the live set excludes all of them.
        assert!(r.purged >= 3, "{}", r.purged);
        assert!(r.final_tracked_live <= 300);
        // The concurrent peak can never exceed the whole population.
        assert!(r.peak_tracked <= 303, "{}", r.peak_tracked);
    }

    #[test]
    fn run_is_deterministic() {
        let cfg = MultiTenantConfig::quick();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.attacks_terminated, b.attacks_terminated);
        assert_eq!(a.benign_killed_pct, b.benign_killed_pct);
        assert_eq!(a.benign_slowdown_pct, b.benign_slowdown_pct);
        assert_eq!(a.observations, b.observations);
        assert_eq!(a.purged, b.purged);
    }

    #[test]
    fn shard_count_does_not_change_the_outcome() {
        let base = MultiTenantConfig::quick();
        let a = run(&base);
        let b = run(&MultiTenantConfig { shards: 1, ..base });
        assert_eq!(a.attacks_terminated, b.attacks_terminated);
        assert_eq!(a.benign_killed_pct, b.benign_killed_pct);
        assert_eq!(a.observations, b.observations);
    }

    #[test]
    fn report_renders() {
        let r = run(&MultiTenantConfig::quick());
        assert!(r.report.contains("Multi-tenant machine"));
        assert!(r.report.contains("attacks terminated"));
        assert!(r.report.contains("synchronous detectors"));
        assert!(r.observations_per_sec > 0.0);
        assert!(r.ingest.is_none());
    }

    /// Slow, jittery detectors (3 + 0..=2 epochs of verdict latency) must
    /// not stall the epoch driver: every attack still dies, only later —
    /// detection *lag*, not response-tier stall.
    #[test]
    fn async_ingest_kills_every_attack_despite_detector_latency() {
        let sync = run(&MultiTenantConfig::quick());
        let async_ = run(&MultiTenantConfig::quick_async());
        assert_eq!(async_.attacks_terminated, 3);
        // The verdicts arrive >= `delay` epochs late, so the kills land
        // measurably later than the synchronous driver's...
        assert!(
            async_.mean_epochs_to_kill >= sync.mean_epochs_to_kill + 3.0,
            "async {} vs sync {}",
            async_.mean_epochs_to_kill,
            sync.mean_epochs_to_kill
        );
        // ...but latency is bounded by delay + jitter (plus verdict-cycle
        // slack), nowhere near a stalled driver's horizon.
        assert!(
            async_.mean_epochs_to_kill <= sync.mean_epochs_to_kill + 12.0,
            "async {} vs sync {}",
            async_.mean_epochs_to_kill,
            sync.mean_epochs_to_kill
        );
        // The fleet is still mostly unharmed.
        assert!(
            async_.benign_killed_pct < 8.0,
            "{}",
            async_.benign_killed_pct
        );
    }

    #[test]
    fn async_ingest_is_deterministic() {
        let cfg = MultiTenantConfig::quick_async();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.attacks_terminated, b.attacks_terminated);
        assert_eq!(a.mean_epochs_to_kill, b.mean_epochs_to_kill);
        assert_eq!(a.benign_killed_pct, b.benign_killed_pct);
        assert_eq!(a.benign_slowdown_pct, b.benign_slowdown_pct);
        assert_eq!(a.observations, b.observations);
        assert_eq!(a.purged, b.purged);
        assert_eq!(a.ingest, b.ingest);
    }

    /// The fused pair: a fast-weak member (70% TPR, bursty-benign FPR)
    /// alone would be unusable, but fused with the slow-strong member it
    /// still kills every attack — and the graduated ladder only kills when
    /// the weighted evidence mass is overwhelming.
    #[test]
    fn fused_tier_kills_every_attack() {
        let r = run(&MultiTenantConfig::quick_fused());
        assert_eq!(r.attacks_terminated, 3);
        assert!(r.fusion_stats.verdicts > 0);
        assert!(r.fusion_stats.per_detector.len() >= 2);
        // The slow member publishes every 4th window, minus dropouts.
        assert!(r.fusion_stats.per_detector[1] < r.fusion_stats.per_detector[0]);
        assert!(
            r.fusion_stats.stale_decayed > 0,
            "dropout windows must age some held verdicts past their cadence"
        );
        assert!(r.fusion_stats.escalations > 0);
        assert!(r.report.contains("fused detectors"));
        assert!(r.report.contains("fusion verdicts per detector"));
    }

    /// Requiring corroborated evidence mass (> 0.85 under the graduated
    /// ladder) means a fast-member burst alone can never kill: the fused
    /// wrongful-termination rate stays far below the fast member's FPR.
    #[test]
    fn fused_tier_protects_the_fleet() {
        let r = run(&MultiTenantConfig::quick_fused());
        assert!(r.benign_killed_pct < 5.0, "{}", r.benign_killed_pct);
    }

    #[test]
    fn fused_tier_is_deterministic() {
        let cfg = MultiTenantConfig::quick_fused();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.attacks_terminated, b.attacks_terminated);
        assert_eq!(a.mean_epochs_to_kill, b.mean_epochs_to_kill);
        assert_eq!(a.benign_killed_pct, b.benign_killed_pct);
        assert_eq!(a.observations, b.observations);
        assert_eq!(a.fusion_stats, b.fusion_stats);
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn fused_and_async_tiers_cannot_be_combined() {
        let cfg = MultiTenantConfig {
            fusion: Some(FusionTier::default()),
            ..MultiTenantConfig::quick_async()
        };
        let _ = run(&cfg);
    }

    /// The noise-floor DoS: with the rings undefended, a decoy flood at
    /// the attack pids' shards evicts every real verdict there — no
    /// attack is ever killed, and the loss shows up only in the counters.
    #[test]
    fn noise_flood_masks_the_attack_when_undefended() {
        let r = run(&MultiTenantConfig::quick_flood(IngestDefense::default()));
        assert_eq!(r.attacks_terminated, 0, "every attack verdict evicted");
        assert!(r.mean_epochs_to_kill.is_nan());
        assert!(r.flood_decoys > 0);
        let stats = r.ingest.expect("flood runs expose ingest stats");
        assert!(stats.dropped > 0);
        // Publisher 1 (the legit detector tier) loses verdicts wholesale;
        // no defense means no priority lane and no deflections.
        assert!(stats.dropped_by_publisher.get(1).copied().unwrap_or(0) > 0);
        assert_eq!(stats.priority_queued, 0);
        assert_eq!(stats.evictions_deflected, 0);
        assert!(r.report.contains("noise flood"));
        assert!(r.report.contains("ingest dropped by publisher"));
    }

    /// The overload defense (priority lanes + per-publisher fair
    /// queueing) restores every kill at the undisturbed async baseline's
    /// latency — with the flood still running at full rate.
    #[test]
    fn overload_defense_restores_kills_under_flood() {
        let baseline = run(&MultiTenantConfig::quick_async());
        let r = run(&MultiTenantConfig::quick_flood(IngestDefense::full()));
        assert_eq!(r.attacks_terminated, 3);
        assert!(
            r.mean_epochs_to_kill <= baseline.mean_epochs_to_kill + 2.0,
            "defended flood {} vs baseline {}",
            r.mean_epochs_to_kill,
            baseline.mean_epochs_to_kill
        );
        let stats = r.ingest.expect("flood runs expose ingest stats");
        assert!(stats.priority_queued > 0, "escalated pids rode the lane");
        assert!(stats.evictions_deflected > 0);
        // Fair queueing charges the flood for its own decoys: the flood
        // publisher (id 2) pays an order of magnitude more than legit.
        let legit = stats.dropped_by_publisher.get(1).copied().unwrap_or(0);
        let flood = stats.dropped_by_publisher.get(2).copied().unwrap_or(0);
        assert!(flood > 10 * legit.max(1), "flood {flood} vs legit {legit}");
    }

    #[test]
    fn flood_run_is_deterministic() {
        let cfg = MultiTenantConfig::quick_flood(IngestDefense::full());
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.attacks_terminated, b.attacks_terminated);
        assert_eq!(a.mean_epochs_to_kill, b.mean_epochs_to_kill);
        assert_eq!(a.benign_killed_pct, b.benign_killed_pct);
        assert_eq!(a.observations, b.observations);
        assert_eq!(a.flood_decoys, b.flood_decoys);
        assert_eq!(a.ingest, b.ingest);
    }

    #[test]
    #[should_panic(expected = "rides on the async ingest rings")]
    fn flood_without_async_ingest_is_rejected() {
        let cfg = MultiTenantConfig {
            ingest: None,
            ..MultiTenantConfig::quick_flood(IngestDefense::default())
        };
        let _ = run(&cfg);
    }

    #[test]
    fn async_ingest_loses_nothing_at_this_scale_and_reports_stats() {
        let r = run(&MultiTenantConfig::quick_async());
        let stats = r.ingest.expect("async runs expose ingest stats");
        assert_eq!(stats.dropped, 0, "rings are sized for the quick fleet");
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.published, stats.drained + stats.queued as u64);
        // In-flight verdicts for processes that outlived the horizon may
        // still be queued; everything published on time was consumed.
        assert!(r.report.contains("async detectors"));
        assert!(r.report.contains("ingest published/drained"));
    }
}
