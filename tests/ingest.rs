//! Guarantees of the async ingest tier that the conformance harness
//! (`tests/conformance.rs`) does not state.
//!
//! The harness pins Block-mode publish-then-drain, defended or not, to the
//! synchronous path bit for bit. Here: publishing a chunk with
//! `publish_batch` is equivalent to publishing its entries one by one, on
//! lossy rings that overflow too; runs are deterministic; concurrent
//! publishers lose nothing; and the async epoch driver ticks on schedule
//! no matter how slow or jittery the detector tier is (`LatencyModel`),
//! which is the entire point of the subsystem.

use proptest::prelude::*;
use valkyrie::attacks::cryptominer::Cryptominer;
use valkyrie::core::prelude::*;
use valkyrie::core::CoalesceKey;
use valkyrie::detect::LatencyModel;
use valkyrie::experiments::scenario::{AugmentedRun, IngestOptions, ScenarioConfig};
use valkyrie::sim::machine::{Machine, MachineConfig};

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

/// An arbitrary interleaving: observations of up to 24 distinct pids.
fn interleaving(max_len: usize) -> impl Strategy<Value = Vec<(ProcessId, Classification)>> {
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

/// One engine lifetime's observable bookkeeping, for whole-run equality.
type TickTrace = (Vec<Vec<EngineResponse>>, u64, u64, usize);

/// The synchronous reference: the same batches through `tick`.
fn tick_reference(
    observations: &[(ProcessId, Classification)],
    shards: usize,
    chunk: usize,
    n_star: u64,
) -> TickTrace {
    let mut engine = ShardedEngine::new(engine_config(n_star, true), shards);
    let ticks = observations
        .chunks(chunk)
        .map(|batch| engine.tick(batch).into_vec())
        .collect();
    (
        ticks,
        engine.epoch(),
        engine.purged_total(),
        engine.tracked(),
    )
}

/// The async run: each batch published through defended ingest rings
/// (Block policy, capacity covering the whole run, so lossless by
/// construction), then answered by one `drain_tick` on the threaded drain
/// path, forced even on single-core hosts.
fn ingest_run(
    observations: &[(ProcessId, Classification)],
    shards: usize,
    chunk: usize,
    n_star: u64,
) -> TickTrace {
    let mut engine = ShardedEngine::new(engine_config(n_star, true), shards);
    engine.set_parallel_threshold(0);
    let publisher = engine.enable_ingest_defended(
        observations.len(),
        OverflowPolicy::Block,
        IngestDefense::full(),
    );
    let ticks = observations
        .chunks(chunk)
        .map(|batch| {
            assert_eq!(publisher.publish_batch(batch), batch.len());
            engine.drain_tick()
        })
        .collect();
    (
        ticks,
        engine.epoch(),
        engine.purged_total(),
        engine.tracked(),
    )
}

/// An arbitrary verdict stream: up to 24 pids, three ensemble members (so
/// `Coalesce` merges by (pid, detector)), three confidence levels.
fn verdict_stream(max_len: usize) -> impl Strategy<Value = Vec<(ProcessId, Verdict)>> {
    prop::collection::vec(
        (0u64..24, 0u32..3, 0u32..3).prop_map(|(pid, detector, level)| {
            (
                ProcessId(pid),
                Verdict::new(detector, f64::from(level) / 2.0),
            )
        }),
        1..max_len,
    )
}

/// One drained tick and the ingest counters right after it.
type StatsTrace = Vec<(Vec<EngineResponse>, IngestStats)>;

/// Feeds `observations` to `engine` chunk by chunk and answers each chunk
/// with one `drain_tick`. Chunk `i` goes through `handles[i % 2]`, as one
/// `publish_batch` when `batched` and as one `publish` per entry
/// otherwise; before chunk `mark_at`, the `marked` pids are marked hot in
/// the engine's threat hints. Every tick's responses are recorded with the
/// counters `stats` reads.
#[allow(clippy::too_many_arguments)]
fn chunked_run<P: CoalesceKey>(
    mut engine: ShardedEngine,
    handles: &[IngestPublisher<P>; 2],
    stats: fn(&ShardedEngine) -> Option<IngestStats>,
    observations: &[(ProcessId, P)],
    chunk: usize,
    mark_at: usize,
    marked: &[u64],
    batched: bool,
) -> StatsTrace {
    observations
        .chunks(chunk)
        .enumerate()
        .map(|(i, batch)| {
            if i == mark_at {
                let hints = engine.threat_hints();
                for &pid in marked {
                    hints.mark(ProcessId(pid));
                }
            }
            let handle = &handles[i % 2];
            let accepted = if batched {
                handle.publish_batch(batch)
            } else {
                batch
                    .iter()
                    .filter(|&&(pid, payload)| handle.publish(pid, payload))
                    .count()
            };
            assert_eq!(accepted, batch.len(), "open rings accept every entry");
            (engine.drain_tick(), stats(&engine).expect("ingest enabled"))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `publish_batch` is a run of `publish` calls in one: twin engines,
    /// one fed whole chunks and one fed entry by entry, answer every tick
    /// identically and report identical `IngestStats` — evictions,
    /// per-publisher drop charges, coalescing, priority routing and
    /// deflected evictions included. Ring capacity 1..8 makes the lossy
    /// policies overflow; every defense configuration runs, with hints
    /// marked mid-run; shards {1, 2, 7}; binary and verdict payloads.
    #[test]
    fn batch_publish_matches_per_entry_publish_through_overflow(
        classes in interleaving(80),
        verdicts in verdict_stream(80),
        chunk in 1usize..24,
        capacity in 1usize..9,
        n_star in 1u64..8,
        mark_at in 0usize..6,
        marked in prop::collection::vec(0u64..24, 0..6),
    ) {
        let defenses = [
            IngestDefense::default(),
            IngestDefense { priority_lane: true, fair_queueing: false },
            IngestDefense { priority_lane: false, fair_queueing: true },
            IngestDefense::full(),
        ];
        // `Block` rings hold a whole chunk: a publisher that drains its
        // own engine must never wait.
        let policies = [
            (OverflowPolicy::Block, capacity.max(chunk)),
            (OverflowPolicy::DropOldest, capacity),
            (OverflowPolicy::Coalesce, capacity),
        ];
        for shards in [1usize, 2, 7] {
            for (policy, cap) in policies {
                for defense in defenses {
                    let run = |batched| {
                        let mut engine =
                            ShardedEngine::new(engine_config(n_star, true), shards);
                        let first = engine.enable_ingest_defended(cap, policy, defense);
                        let handles = [first.clone(), first];
                        chunked_run(
                            engine, &handles, ShardedEngine::ingest_stats,
                            &classes, chunk, mark_at, &marked, batched,
                        )
                    };
                    prop_assert_eq!(
                        run(true), run(false),
                        "binary: shards={}, {:?} cap={}, {:?}, chunk={}",
                        shards, policy, cap, defense, chunk
                    );
                }
                let run = |batched| {
                    let config = EngineConfig::builder()
                        .measurements_required(n_star)
                        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
                        .fusion(FusionConfig::default())
                        .build()
                        .unwrap();
                    let mut engine = ShardedEngine::new(config, shards);
                    let first = engine.enable_verdict_ingest(cap, policy);
                    let handles = [first.clone(), first];
                    chunked_run(
                        engine, &handles, ShardedEngine::verdict_ingest_stats,
                        &verdicts, chunk, mark_at, &marked, batched,
                    )
                };
                prop_assert_eq!(
                    run(true), run(false),
                    "verdicts: shards={}, {:?} cap={}, chunk={}", shards, policy, cap, chunk
                );
            }
        }
    }
}

/// Two identical async runs are bit-identical — ring placement, sequence
/// stamping and the drain merge introduce no run-to-run variation.
#[test]
fn identical_ingest_runs_are_deterministic() {
    let observations: Vec<(ProcessId, Classification)> = (0..3_000u64)
        .map(|i| {
            let pid = ProcessId(i % 401);
            let cls = if i % 5 == 0 {
                Classification::Malicious
            } else {
                Classification::Benign
            };
            (pid, cls)
        })
        .collect();
    let first = ingest_run(&observations, 7, 500, 7);
    let second = ingest_run(&observations, 7, 500, 7);
    assert_eq!(first, second);
    // And identical to the synchronous reference.
    let reference = tick_reference(&observations, 7, 500, 7);
    assert_eq!(first, reference);
}

/// Regression: a defended ring used to drain its priority lane before its
/// normal lane, so a pid that turned hot between two of its publishes in
/// one drain window had its later entry applied first. Here pid 5's Benign
/// entry is queued in the normal lane, a synchronous tick marks pid 5 hot,
/// and its Malicious entry goes to the priority lane: the drain must apply
/// Benign then Malicious, as the undefended engine does.
#[test]
fn a_pid_that_turns_hot_mid_window_is_applied_in_publish_order() {
    let pid = ProcessId(5);
    let [undefended, defended] = [IngestDefense::default(), IngestDefense::full()].map(|defense| {
        let mut engine = ShardedEngine::new(engine_config(100, false), 2);
        let publisher = engine.enable_ingest_defended(64, OverflowPolicy::Block, defense);
        assert!(publisher.publish(pid, Classification::Benign));
        engine.tick(&[(pid, Classification::Malicious)]);
        assert!(publisher.publish(pid, Classification::Malicious));
        engine.drain_batch()
    });
    assert_eq!(defended, undefended);
    let answers: Vec<_> = undefended
        .iter()
        .map(|r| (r.threat.value(), r.action))
        .collect();
    assert_eq!(answers, [(0.0, Action::Restore), (2.0, Action::Throttle)]);
}

/// Detector threads racing the epoch driver: every published observation
/// is eventually consumed exactly once, and the engine's bookkeeping adds
/// up — without any cross-thread synchronisation beyond the rings.
#[test]
fn concurrent_publishers_feed_the_tick_driver_losslessly() {
    let mut engine = ShardedEngine::new(engine_config(1_000_000, true), 7);
    let publisher = engine.enable_ingest(8 * 1024, OverflowPolicy::Block);
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 2_000;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let publisher = publisher.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let pid = ProcessId(t * 10_000 + (i % 97));
                    assert!(publisher.publish(pid, Classification::Malicious));
                }
            })
        })
        .collect();
    // Tick continuously while the detector threads publish.
    let mut consumed = 0usize;
    while consumed < (THREADS * PER_THREAD) as usize {
        consumed += engine.drain_tick().len();
    }
    for w in workers {
        w.join().unwrap();
    }
    assert_eq!(consumed, (THREADS * PER_THREAD) as usize);
    assert_eq!(engine.tracked(), (THREADS * 97) as usize);
    let stats = engine.ingest_stats().unwrap();
    assert_eq!(stats.published, THREADS * PER_THREAD);
    assert_eq!(stats.drained, THREADS * PER_THREAD);
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.queued, 0);
}

/// The acceptance scenario: a detector whose verdicts are 3+ ticks late
/// (`LatencyModel`) feeding the scenario driver's ingest path. The epoch
/// driver completes every epoch on schedule — the attack just dies
/// `delay` epochs later than it would with an instant detector.
#[test]
fn delayed_detector_does_not_stall_the_epoch_driver() {
    use valkyrie::detect::Detector;
    use valkyrie::hpc::SampleWindow;

    /// Flags exactly one pid, cleanly classifying everything else.
    struct TargetedDetector {
        target: ProcessId,
    }
    impl Detector for TargetedDetector {
        fn name(&self) -> &str {
            "targeted"
        }
        fn infer(&mut self, pid: ProcessId, _w: &SampleWindow) -> Classification {
            if pid == self.target {
                Classification::Malicious
            } else {
                Classification::Benign
            }
        }
    }

    const N_STAR: u64 = 6;
    const DELAY: u64 = 3;
    const EPOCHS: u64 = 30;
    let run_with = |delay: u64| {
        let mut machine = Machine::new(MachineConfig::default());
        let attack = machine.spawn(Box::new(Cryptominer::default()));
        let detector = LatencyModel::new(
            TargetedDetector {
                target: attack.into(),
            },
            delay,
        );
        let mut run = AugmentedRun::new(
            machine,
            EngineConfig::builder()
                .measurements_required(N_STAR)
                .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
                .build()
                .unwrap(),
            detector,
            ScenarioConfig {
                shards: 4,
                ingest: Some(IngestOptions::default()),
                ..ScenarioConfig::default()
            },
        );
        run.watch(attack);
        // A benign bystander that outlives the horizon: its history counts
        // the epochs the driver actually completed.
        let mut spec = valkyrie::workloads::roster().remove(0);
        spec.epochs_to_complete = u64::MAX / 4;
        let bystander = run
            .machine_mut()
            .spawn(Box::new(valkyrie::workloads::BenchmarkWorkload::new(spec)));
        run.watch(bystander);
        run.run(EPOCHS);
        let killed_at = run
            .history(attack)
            .iter()
            .position(|r| r.state == ProcessState::Terminated)
            .expect("the attack must still be terminated");
        (
            run.history(bystander).len() as u64,
            killed_at as u64,
            run.history(attack).to_vec(),
        )
    };
    let (epochs_instant, killed_instant, hist_instant) = run_with(0);
    let (epochs_delayed, killed_delayed, hist_delayed) = run_with(DELAY);
    assert_eq!(epochs_instant, EPOCHS, "instant detector driver stalled");
    assert_eq!(epochs_delayed, EPOCHS, "delayed detector driver stalled");
    // The latency is visible as a response lag: the instant detector has
    // the attack suspicious (and throttled) from its very first verdict,
    // while the delayed detector leaves it untouched for `DELAY` epochs —
    // but the driver ticks through either way, and the attack still dies.
    assert_eq!(hist_instant[0].state, ProcessState::Suspicious);
    for record in &hist_delayed[..DELAY as usize] {
        assert_eq!(record.state, ProcessState::Normal, "verdicts not due yet");
        assert_eq!(record.cpu_share, 1.0);
    }
    assert_eq!(
        hist_delayed[DELAY as usize].state,
        ProcessState::Suspicious,
        "the first late verdict lands after exactly DELAY epochs"
    );
    assert!(killed_delayed >= killed_instant);
    assert!(killed_delayed < EPOCHS, "detection lag, not a stall");
}

/// Per-detector cadence under async verdict ingest: a three-member fused
/// ensemble where two fast members publish every epoch and one slow,
/// heavily weighted member reports only every `CADENCE` epochs **through
/// its own publisher handle**, with its verdicts additionally `delay`
/// reports late (`LatencyModel`). The fused kill can only happen once the
/// slow member's first malicious confidence lands, so the first Terminate
/// response shifts by exactly the fusion-predicted lag:
/// `max(N* + 1, delay × CADENCE + 1)`.
#[test]
fn slow_member_cadence_shifts_the_first_response_by_the_predicted_lag() {
    use valkyrie::core::{EscalationLadder, FusionConfig, Verdict};
    use valkyrie::detect::{Detector, ScriptedDetector};
    use valkyrie::hpc::SampleWindow;

    const N_STAR: u64 = 2;
    const CADENCE: u64 = 3;
    const HORIZON: u64 = 40;

    let kill_epoch = |delay: u64| -> u64 {
        let config = EngineConfig::builder()
            .measurements_required(N_STAR)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .fusion(FusionConfig {
                // Two fast unit-weight members + one slow member heavy
                // enough (6) that the graduated Kill rung (mass > 0.85)
                // is out of reach until the slow member corroborates:
                // fast-only mass = 2/8 = 0.25.
                weights: vec![1.0, 1.0, 6.0],
                default_weight: 1.0,
                stale_decay: 1.0,
                ladder: EscalationLadder::graduated(),
            })
            .build()
            .unwrap();
        let mut engine = ShardedEngine::with_capacity(config, 4, 1);
        let fast_a = engine.enable_verdict_ingest(64, OverflowPolicy::Block);
        let fast_b = engine.verdict_publisher().expect("verdict ingest enabled");
        let slow_pub = engine.verdict_publisher().expect("verdict ingest enabled");
        // The slow member: always-malicious, but each confidence matures
        // only `delay` member-local reports after it was computed.
        let mut slow =
            LatencyModel::new(ScriptedDetector::constant(Classification::Malicious), delay);
        let window = SampleWindow::new(4);
        let pid = ProcessId(9);

        for epoch in 1..=HORIZON {
            assert!(fast_a.publish(pid, Verdict::new(0, 1.0)));
            assert!(fast_b.publish(pid, Verdict::new(1, 1.0)));
            if (epoch - 1).is_multiple_of(CADENCE) {
                let confidence = slow.infer_confidence(pid, &window);
                assert!(slow_pub.publish(
                    pid,
                    Verdict::new(2, confidence).with_cadence(CADENCE as u32)
                ));
            }
            let responses = engine.drain_tick();
            if responses
                .iter()
                .any(|r| r.pid == pid && r.action == Action::Terminate)
            {
                return epoch;
            }
        }
        panic!("attack never terminated with delay {delay}");
    };

    let baseline = kill_epoch(0);
    assert_eq!(baseline, N_STAR + 1, "instant slow member kills at N*+1");
    for delay in [1u64, 2, 3] {
        // The slow member's `delay` late reports land only at its cadence:
        // the first malicious confidence publishes at epoch
        // `delay × CADENCE + 1`, and the kill follows the same epoch.
        let predicted = (N_STAR + 1).max(delay * CADENCE + 1);
        assert_eq!(
            kill_epoch(delay),
            predicted,
            "delay {delay}: first response must shift by the fusion-predicted lag"
        );
    }
}
