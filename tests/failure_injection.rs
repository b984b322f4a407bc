//! Failure-injection and adversarial-edge tests: oscillating detectors,
//! detector outages, mid-run process churn, long-horizon stability.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use valkyrie::attacks::cryptominer::Cryptominer;
use valkyrie::core::prelude::*;
use valkyrie::detect::{Detector, ScriptedDetector};
use valkyrie::experiments::scenario::{AugmentedRun, CpuLever, ScenarioConfig};
use valkyrie::hpc::SampleWindow;
use valkyrie::sim::machine::{Machine, MachineConfig};
use valkyrie::workloads::{roster, BenchmarkWorkload};

fn engine(n_star: u64) -> EngineConfig {
    EngineConfig::builder()
        .measurements_required(n_star)
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .build()
        .unwrap()
}

#[test]
fn oscillating_detector_keeps_resources_bounded_and_recovers() {
    use Classification::{Benign, Malicious};
    let mut e = ValkyrieEngine::new(engine(10_000));
    let pid = ProcessId(1);
    let mut min_cpu: f64 = 1.0;
    for i in 0..5_000 {
        let c = if i % 2 == 0 { Malicious } else { Benign };
        let r = e.observe(pid, c);
        assert!(r.resources.is_valid());
        min_cpu = min_cpu.min(r.resources.cpu);
        assert_ne!(
            r.state,
            ProcessState::Terminated,
            "oscillation must not kill"
        );
    }
    assert!(min_cpu >= 0.01 - 1e-12);
    // A calm tail fully restores the process.
    let mut last = None;
    for _ in 0..50 {
        last = Some(e.observe(pid, Benign));
    }
    assert!(last.unwrap().resources.is_full());
}

/// A detector that goes silent (always benign) after an outage epoch —
/// models a crashed/fooled detector. Valkyrie degrades gracefully: the
/// attack runs, but benign processes are never harmed.
struct OutageDetector {
    healthy_until: u64,
    epoch: u64,
}

impl Detector for OutageDetector {
    fn name(&self) -> &str {
        "outage"
    }
    fn infer(&mut self, _pid: ProcessId, _w: &SampleWindow) -> Classification {
        self.epoch += 1;
        if self.epoch <= self.healthy_until {
            Classification::Malicious
        } else {
            Classification::Benign
        }
    }
}

#[test]
fn detector_outage_restores_resources_instead_of_wedging() {
    let detector = OutageDetector {
        healthy_until: 5,
        epoch: 0,
    };
    let mut run = AugmentedRun::new(
        Machine::new(MachineConfig::default()),
        engine(100),
        detector,
        ScenarioConfig {
            cpu_lever: CpuLever::CgroupQuota,
            window: 16,
            shards: 1,
            ..ScenarioConfig::default()
        },
    );
    let pid = run.machine_mut().spawn(Box::new(Cryptominer::default()));
    run.watch(pid);
    run.run(40);
    // After the outage the compensation path unwinds the throttle fully.
    let last = run.history(pid).last().unwrap();
    assert_eq!(last.cpu_share, 1.0);
    assert!(run.machine().is_alive(pid));
}

#[test]
fn attack_that_masks_in_terminable_state_survives_one_shot_monitoring() {
    use Classification::{Benign, Malicious};
    // An adaptive attacker that behaves exactly until N*, then attacks.
    // One-shot Fig. 3 monitoring restores it for good after the benign
    // verdict — this is the known limitation cyclic monitoring addresses.
    let mut script = vec![Benign; 11];
    script.extend(vec![Malicious; 30]);
    let mut one_shot = ValkyrieEngine::new(engine(10));
    let mut cyclic = ValkyrieEngine::new(
        EngineConfig::builder()
            .measurements_required(10)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .cyclic(true)
            .build()
            .unwrap(),
    );
    let pid = ProcessId(9);
    let mut one_shot_killed = false;
    let mut cyclic_killed = false;
    for &c in &script {
        if one_shot.observe(pid, c).action == Action::Terminate {
            one_shot_killed = true;
        }
        if cyclic.observe(pid, c).action == Action::Terminate {
            cyclic_killed = true;
        }
    }
    // One-shot: the single benign verdict at N* ends monitoring (the
    // monitor only terminates on a later malicious epoch in terminable
    // state — which the mask dodged exactly once but not forever).
    assert!(one_shot_killed, "post-verdict malicious epochs still kill");
    assert!(cyclic_killed, "cyclic monitoring re-arms and kills");
}

#[test]
fn process_churn_does_not_corrupt_engine_state() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let mut e = ValkyrieEngine::new(engine(20));
    let mut live: Vec<ProcessId> = Vec::new();
    for step in 0..2_000u64 {
        if rng.gen_bool(0.05) {
            live.push(ProcessId(step));
        }
        if !live.is_empty() && rng.gen_bool(0.02) {
            let idx = rng.gen_range(0..live.len());
            let pid = live.swap_remove(idx);
            e.forget(pid);
        }
        for &pid in &live {
            let c = if rng.gen_bool(0.1) {
                Classification::Malicious
            } else {
                Classification::Benign
            };
            let r = e.observe(pid, c);
            assert!(r.resources.is_valid());
            assert!(r.threat.value() >= 0.0 && r.threat.value() <= 100.0);
        }
        // Drop terminated pids like a real supervisor would.
        live.retain(|&pid| e.state(pid) != Some(ProcessState::Terminated));
    }
}

#[test]
fn terminated_workload_stays_inspectable_but_inert() {
    let detector = ScriptedDetector::constant(Classification::Malicious);
    let mut run = AugmentedRun::new(
        Machine::new(MachineConfig::default()),
        engine(3),
        detector,
        ScenarioConfig::default(),
    );
    let pid = run.machine_mut().spawn(Box::new(Cryptominer::default()));
    run.watch(pid);
    run.run(10);
    assert!(!run.machine().is_alive(pid));
    let hashes_at_death = run
        .machine()
        .workload_as::<Cryptominer>(pid)
        .unwrap()
        .hashes();
    run.run(10);
    let hashes_later = run
        .machine()
        .workload_as::<Cryptominer>(pid)
        .unwrap()
        .hashes();
    assert_eq!(
        hashes_at_death, hashes_later,
        "dead processes make no progress"
    );
}

#[test]
fn perverse_detector_rates_keep_evasion_invariants() {
    // A detector that is blind to activity (tpr = 0) and paranoid about
    // silence (fpr = 1): throttling and termination land on the *dormant*
    // phases. The replay must still uphold its invariants — bounded
    // slowdown, progress never exceeding the unimpeded baseline.
    use valkyrie::experiments::attacker::{
        run_adaptive, AdaptiveScenario, AttackerStrategy, DetectorModel,
    };
    let config = engine(10);
    for (tpr, fpr) in [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0)] {
        let scenario = AdaptiveScenario::new(DetectorModel::new(tpr, fpr).unwrap(), 60);
        let mut strategy = AttackerStrategy::DutyCycle {
            active: 2,
            dormant: 2,
        };
        let out = run_adaptive(&config, &scenario, &mut strategy);
        assert!(out.progress <= out.unimpeded + 1e-9, "tpr={tpr} fpr={fpr}");
        assert!((0.0..=100.0).contains(&out.slowdown_percent()));
        if tpr == 0.0 && fpr == 0.0 {
            // A fully blind detector means Valkyrie never intervenes.
            assert_eq!(out.terminated_at, None);
            assert!((out.progress - out.unimpeded).abs() < 1e-9);
        }
    }
}

/// `AttackerView`'s fields are public, so epoch 0 is a value the attacker
/// API accepts. The periodic schedules treat it like epoch 1 rather than
/// underflowing `epoch - 1` (a debug-build panic, a wrapped phase in
/// release). A 1-on/6-off period tells the two apart: the wrapped phase
/// `u64::MAX % 7 = 1` would fall in the dormant window.
#[test]
fn epoch_zero_attacker_view_schedules_like_epoch_one() {
    use valkyrie::experiments::attacker::{
        AdaptiveStrategy, AttackerStrategy, AttackerView, PeriodicIntensity,
    };
    let view = |epoch| AttackerView {
        epoch,
        cpu_share: 1.0,
        measurements: 0,
    };
    let duty = AttackerStrategy::DutyCycle {
        active: 1,
        dormant: 6,
    };
    assert!(duty.is_active(&view(0)));
    assert_eq!(duty.is_active(&view(0)), duty.is_active(&view(1)));
    let mut periodic = PeriodicIntensity {
        active: 1,
        dormant: 6,
        high: 0.8,
        low: 0.1,
    };
    assert_eq!(periodic.intensity(&view(0)), 0.8);
    assert_eq!(periodic.intensity(&view(0)), periodic.intensity(&view(1)));
}

/// A detector that wedges forever — it holds a publisher for the engine's
/// ingest rings but never publishes a single verdict — must not stall the
/// async epoch driver: `drain_tick` keeps returning on schedule, healthy
/// detectors keep being served, and the stalled detector's process is
/// handled per cyclic-monitoring rules (no observation means no
/// measurement this epoch: its state and resources stay frozen exactly
/// where the last consumed verdict left them).
#[test]
fn stalled_detector_never_stalls_the_drain_tick_driver() {
    use std::sync::mpsc;

    let mut e = ShardedEngine::new(
        EngineConfig::builder()
            .measurements_required(3)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .cyclic(true)
            .build()
            .unwrap(),
        4,
    );
    let publisher = e.enable_ingest(64, OverflowPolicy::Block);
    let watched = ProcessId(1); // served by the healthy detector
    let stalled_pid = ProcessId(2); // its detector wedges immediately

    // The stalled detector: parks on a channel that is never sent to,
    // publisher in hand, until the test releases it at the very end.
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let stalled = {
        let publisher = publisher.clone();
        std::thread::spawn(move || {
            let _wedged = release_rx.recv(); // blocks for the whole test
            drop(publisher);
        })
    };

    // One observation for the stalled pid *did* arrive before the
    // wedge: its monitor state must stay frozen afterwards.
    publisher.publish(stalled_pid, Classification::Malicious);
    e.drain_tick();
    let frozen_state = e.state(stalled_pid);
    let frozen_resources = e.resources(stalled_pid);
    assert_eq!(frozen_state, Some(ProcessState::Suspicious));

    // The healthy detector keeps publishing; the driver ticks through
    // its whole horizon with no regard for the wedged thread.
    let mut terminated_at = None;
    for epoch in 0..20u64 {
        publisher.publish(watched, Classification::Malicious);
        let responses = e.drain_tick();
        assert_eq!(responses.len(), 1, "only the healthy verdict arrives");
        if responses[0].action == Action::Terminate && terminated_at.is_none() {
            terminated_at = Some(epoch);
        }
    }
    assert_eq!(e.epoch(), 21, "every epoch ticked on schedule");
    // The healthy pid progressed to termination at its N* + 1 = 4th
    // observation (loop epoch 3).
    assert_eq!(terminated_at, Some(3));
    // The stalled pid is exactly where its last verdict left it.
    assert_eq!(e.state(stalled_pid), frozen_state);
    assert_eq!(e.resources(stalled_pid), frozen_resources);
    // Nothing was lost or left queued: every published verdict was
    // consumed by some tick.
    let stats = e.ingest_stats().unwrap();
    assert_eq!(stats.published, 21);
    assert_eq!(stats.drained, 21);
    assert_eq!(stats.queued, 0);

    drop(release_tx); // un-wedge the stalled detector so it can exit
    stalled.join().unwrap();
}

#[test]
fn long_horizon_benign_run_is_stable() {
    // 10,000 epochs of a clean benign program: no drift, no throttle.
    let detector = ScriptedDetector::constant(Classification::Benign);
    let mut run = AugmentedRun::new(
        Machine::new(MachineConfig::default()),
        engine(1_000_000),
        detector,
        ScenarioConfig::default(),
    );
    let mut spec = roster().remove(0);
    spec.epochs_to_complete = u64::MAX / 4;
    let pid = run
        .machine_mut()
        .spawn(Box::new(BenchmarkWorkload::new(spec)));
    run.watch(pid);
    run.run(10_000);
    assert!(run.history(pid).iter().all(|r| r.cpu_share == 1.0));
    assert!(run.history(pid).iter().all(|r| r.threat == 0.0));
}

/// Epoch at which `pid` is terminated when each epoch feeds it `verdicts`
/// as one fused batch (`None` if it survives the horizon).
fn fused_kill_epoch(verdicts: &[Verdict]) -> Option<u64> {
    let pid = ProcessId(7);
    let mut e = ShardedEngine::new(engine(5), 2);
    let batch: Vec<(ProcessId, Verdict)> = verdicts.iter().map(|&v| (pid, v)).collect();
    (0..40u64).find(|_| {
        let responses = e.observe_verdict_batch(&batch);
        responses.iter().any(|r| r.action == Action::Terminate)
    })
}

/// Regression: `f64::clamp(NaN)` is NaN, so one NaN-confidence member used
/// to poison the fused mass and park its process at Terminable with threat
/// 0 forever — a single buggy or compromised member vetoed every kill. A
/// NaN verdict is now no measurement from that member.
#[test]
fn nan_confidence_member_cannot_veto_a_kill() {
    let control = fused_kill_epoch(&[Verdict::new(1, 1.0)]);
    assert!(control.is_some(), "the clean member alone kills");
    let poisoned = fused_kill_epoch(&[Verdict::new(0, f64::NAN), Verdict::new(1, 1.0)]);
    assert_eq!(poisoned, control);

    // A lone NaN verdict is no measurement: the process is neither stepped
    // nor registered.
    let mut e = ValkyrieEngine::new(engine(5));
    let r = e.observe_verdict_batch(&[(ProcessId(1), Verdict::new(0, f64::NAN))]);
    assert!(r.is_empty());
    assert_eq!(e.tracked(), 0);
    assert_eq!(e.fusion_stats().verdicts, 0);
}

/// `detector` is a public `u32` any publisher picks. Each distinct id costs
/// a member slot per process and a per-detector counter, so an id of
/// `u32::MAX` used to ask for a 32 GiB counter vector and abort the
/// process. Ids past the engine's bound are now no measurement, like NaN.
#[test]
fn out_of_range_detector_id_is_no_measurement() {
    let huge = Verdict {
        detector: u32::MAX,
        confidence: 1.0,
        cadence: 1,
    };
    let run = |with_huge: bool| {
        let mut e = ShardedEngine::new(engine(3), 2);
        let responses: Vec<Vec<EngineResponse>> = (0..6u64)
            .map(|epoch| {
                let mut batch = vec![
                    (ProcessId(1), Verdict::new(0, 1.0)),
                    (ProcessId(2), Verdict::new(1, 0.0)),
                ];
                if with_huge {
                    batch.insert(1, (ProcessId(1 + epoch % 3), huge));
                }
                e.observe_verdict_batch(&batch)
            })
            .collect();
        (responses, e.fusion_stats())
    };
    let (clean, clean_stats) = run(false);
    let (mixed, mixed_stats) = run(true);
    assert_eq!(mixed, clean);
    assert_eq!(mixed_stats, clean_stats);
    assert!(mixed_stats.per_detector.len() <= 64);
}

/// `confidence` is a public field: struct-literal verdicts are sanitised at
/// absorption exactly as `Verdict::new` sanitises its input.
#[test]
fn struct_literal_confidences_are_clamped_at_absorption() {
    for (raw, clean) in [(f64::INFINITY, 1.0), (f64::NEG_INFINITY, 0.0), (7.0, 1.0)] {
        let run = |confidence: f64| {
            let mut e = ShardedEngine::new(engine(5), 2);
            let literal = Verdict {
                detector: 0,
                confidence,
                cadence: 1,
            };
            let batch = [
                (ProcessId(3), literal),
                (ProcessId(3), Verdict::new(1, 0.5)),
            ];
            (0..12)
                .flat_map(|_| e.observe_verdict_batch(&batch))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(raw), run(clean), "confidence {raw}");
    }
}

/// A fusion config whose fused mass can come out NaN (an infinite or NaN
/// weight, two weights whose sum overflows) or whose kill rung is NaN used
/// to build, and then left a unanimous attacker at Terminable with threat 0
/// and full shares forever: NaN engages no rung. The builder now rejects
/// every such config, and the shipped ladders still build.
#[test]
fn fusion_configs_that_veto_every_kill_are_rejected() {
    let build = |fusion: FusionConfig| {
        EngineConfig::builder()
            .measurements_required(3)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .fusion(fusion)
            .build()
    };
    let with_weights = |weights: Vec<f64>| FusionConfig {
        weights,
        ..FusionConfig::default()
    };
    let with_ladder = |kill_above, throttle_above, compensate_below| FusionConfig {
        ladder: EscalationLadder {
            kill_above,
            throttle_above,
            compensate_below,
        },
        ..FusionConfig::default()
    };
    let vetoes = [
        FusionConfig {
            default_weight: f64::INFINITY,
            ..FusionConfig::default()
        },
        with_weights(vec![f64::INFINITY, 1.0]),
        with_weights(vec![f64::NAN, f64::NAN]),
        with_weights(vec![f64::MAX, f64::MAX]),
        with_weights(vec![0.0, 1.0]),
        with_weights(vec![-1.0, 1.0]),
        FusionConfig {
            stale_decay: f64::NAN,
            ..FusionConfig::default()
        },
        FusionConfig {
            stale_decay: 2.0,
            ..FusionConfig::default()
        },
        with_ladder(f64::NAN, 0.6, 0.35),
        with_ladder(0.35, 0.6, 0.85),
        with_ladder(1.5, 0.6, 0.35),
        with_ladder(0.85, 0.6, -0.1),
    ];
    for fusion in vetoes {
        let err = build(fusion.clone()).unwrap_err();
        assert!(
            matches!(err, ValkyrieError::InvalidConfig(_)),
            "{fusion:?} built"
        );
    }
    for ladder in [
        EscalationLadder::default(),
        EscalationLadder::graduated(),
        EscalationLadder::BINARY,
    ] {
        let fusion = FusionConfig {
            ladder,
            ..FusionConfig::default()
        };
        assert!(build(fusion).is_ok(), "{ladder:?} rejected");
    }
}

/// A config with `fp` as its penalty and `fc` as its compensation function.
fn assessed(fp: AssessmentFn, fc: AssessmentFn) -> Result<EngineConfig, ValkyrieError> {
    EngineConfig::builder()
        .measurements_required(5)
        .penalty(fp)
        .compensation(fc)
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .build()
}

/// Builds `f` as the penalty, then as the compensation function, and
/// expects `InvalidConfig` both times. Each such config used to build, and
/// a flagged process then answered threat NaN with full resources.
fn assert_rejected(f: AssessmentFn) {
    for config in [
        assessed(f, AssessmentFn::incremental()),
        assessed(AssessmentFn::incremental(), f),
    ] {
        assert!(
            matches!(config, Err(ValkyrieError::InvalidConfig(_))),
            "{f:?} built"
        );
    }
}

#[test]
fn linear_assessment_with_a_nan_coefficient_is_rejected() {
    assert_rejected(AssessmentFn::linear(f64::NAN, 1.0));
}

#[test]
fn linear_assessment_with_an_infinite_coefficient_is_rejected() {
    assert_rejected(AssessmentFn::linear(f64::INFINITY, 1.0));
}

#[test]
fn exponential_assessment_with_an_infinite_base_is_rejected() {
    assert_rejected(AssessmentFn::exponential(f64::INFINITY));
}

/// A `Custom` assessment function that returns NaN holds its metric: the
/// flagged process's threat stays where it was instead of turning NaN.
#[test]
fn custom_assessment_returning_nan_holds_the_threat() {
    use Classification::{Benign, Malicious};
    let nan = AssessmentFn::Custom(|_, _| f64::NAN);
    let mut e = ValkyrieEngine::new(assessed(nan, AssessmentFn::incremental()).unwrap());
    let r = e.observe(ProcessId(1), Malicious);
    assert_eq!(r.threat.value(), 0.0, "the penalty stays at 0");
    assert!(r.resources.is_valid());

    let mut e = ValkyrieEngine::new(assessed(AssessmentFn::incremental(), nan).unwrap());
    assert_eq!(e.observe(ProcessId(1), Malicious).threat.value(), 1.0);
    let r = e.observe(ProcessId(1), Benign);
    assert_eq!(r.threat.value(), 1.0, "the compensation stays at 0");
    assert!(r.resources.is_valid());
}

/// A finite base so large that `base·i` overflows used to make the first
/// penalty of a process flagged after its first epoch ∞ × 0 = NaN.
#[test]
fn exponential_assessment_with_a_huge_finite_base_stays_defined() {
    use Classification::{Benign, Malicious};
    let huge = AssessmentFn::exponential(f64::MAX);
    let mut e = ValkyrieEngine::new(assessed(huge, AssessmentFn::incremental()).unwrap());
    e.observe(ProcessId(1), Benign);
    let r = e.observe(ProcessId(1), Malicious);
    assert_eq!(r.threat.value(), 1.0);
    assert!(r.resources.cpu < 1.0, "the flagged process is throttled");
}

/// A config whose penalty function panics the moment a process is flagged:
/// in the tests below only one pid is ever flagged, so it fires for that
/// pid alone.
fn panicking_penalty() -> EngineConfig {
    EngineConfig::builder()
        .measurements_required(5)
        .penalty(AssessmentFn::Custom(|_, _| panic!("{PENALTY_PANIC}")))
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .build()
        .unwrap()
}

const PENALTY_PANIC: &str = "penalty refused to assess the flagged pid";

/// A shard that panics on a scoped worker thread re-raises its own payload
/// on the caller's thread instead of a generic join error.
#[test]
#[should_panic(expected = "penalty refused to assess the flagged pid")]
fn shard_panic_keeps_its_message_across_the_thread_boundary() {
    let mut e = ShardedEngine::new(panicking_penalty(), 4);
    e.set_parallel_threshold(0);
    let mut batch: Vec<(ProcessId, Classification)> = (0..64)
        .map(|pid| (ProcessId(pid), Classification::Benign))
        .collect();
    batch[17].1 = Classification::Malicious;
    e.observe_batch(&batch);
}

/// The drain path runs the same step phase: a shard panicking while it
/// answers drained observations re-raises its own payload too.
#[test]
#[should_panic(expected = "penalty refused to assess the flagged pid")]
fn shard_panic_on_the_drain_path_keeps_its_message() {
    let mut e = ShardedEngine::new(panicking_penalty(), 4);
    e.set_parallel_threshold(0);
    let publisher = e.enable_ingest(64, OverflowPolicy::Block);
    let mut batch: Vec<(ProcessId, Classification)> = (0..64)
        .map(|pid| (ProcessId(pid), Classification::Benign))
        .collect();
    batch[17].1 = Classification::Malicious;
    assert_eq!(publisher.publish_batch(&batch), batch.len());
    e.drain_tick();
}

/// While set, [`armed_penalty`]'s penalty function panics.
static PENALTY_ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// The incremental penalty, except that it panics while
/// [`PENALTY_ARMED`] is set. `N*` lies beyond the test's horizon, so a
/// process's answers depend only on its own flags, not on how many benign
/// observations a panicked tick applied before it unwound.
fn armed_penalty() -> EngineConfig {
    EngineConfig::builder()
        .measurements_required(1 << 40)
        .penalty(AssessmentFn::Custom(|prev, _| {
            if PENALTY_ARMED.load(std::sync::atomic::Ordering::Relaxed) {
                panic!("{PENALTY_PANIC}");
            }
            prev + 1.0
        }))
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .build()
        .unwrap()
}

/// A shard panic that the caller catches mid-tick leaves the engine able
/// to tick again: the next ticks answer like one engine that never saw the
/// panicked tick, and once their responses are dropped the output buffer
/// is reused again.
#[test]
fn the_tick_after_a_caught_shard_panic_answers_correctly() {
    let mut e = ShardedEngine::new(armed_penalty(), 4);
    e.set_parallel_threshold(0);
    let mut reference = ValkyrieEngine::new(armed_penalty());
    let batch = |epoch: u64| -> Vec<(ProcessId, Classification)> {
        (0..64)
            .map(|pid| {
                let flagged = epoch > 0 && pid != 17 && (pid + epoch).is_multiple_of(5);
                let cls = if flagged {
                    Classification::Malicious
                } else {
                    Classification::Benign
                };
                (ProcessId(pid), cls)
            })
            .collect()
    };
    let tick = |e: &mut ShardedEngine, reference: &mut ValkyrieEngine, epoch: u64| {
        let batch = batch(epoch);
        let want: Vec<EngineResponse> = batch
            .iter()
            .map(|&(pid, cls)| reference.observe(pid, cls))
            .collect();
        let got = e.tick(&batch);
        assert_eq!(got, want, "epoch {epoch}");
        got
    };
    drop(tick(&mut e, &mut reference, 0));

    let mut flagged = batch(0);
    flagged[17].1 = Classification::Malicious;
    PENALTY_ARMED.store(true, std::sync::atomic::Ordering::Relaxed);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.tick(&flagged).len()));
    PENALTY_ARMED.store(false, std::sync::atomic::Ordering::Relaxed);
    assert!(
        caught.is_err(),
        "the flagged pid's shard must have panicked"
    );
    // Pid 17 unwound mid-step; it leaves the fleet on both sides.
    e.forget(ProcessId(17));
    reference.forget(ProcessId(17));

    let mut last = None;
    for epoch in 1..5 {
        let got = tick(&mut e, &mut reference, epoch);
        let ptr = got.as_ptr();
        drop(got);
        if epoch > 1 {
            assert_eq!(Some(ptr), last, "epoch {epoch} reuses the output buffer");
        }
        last = Some(ptr);
    }
}
