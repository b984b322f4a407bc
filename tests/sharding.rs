//! Equivalence and determinism guarantees of the sharded engine tier.
//!
//! The scaling tier's contract is that sharding is **semantically
//! invisible**: for any interleaving of pids and classifications, any
//! batch segmentation and any shard count, `ShardedEngine` produces exactly the `EngineResponse` sequence a single `ValkyrieEngine`
//! replaying the same observations one at a time would produce — including
//! when the batches are large enough to take the thread-parallel path.

use proptest::prelude::*;
use valkyrie::core::prelude::*;

/// Shard counts pinned by the acceptance criteria: the identity case, a
/// power of two, a prime, and the largest production default.
const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

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

/// The reference semantics: one `ValkyrieEngine`, one observation at a time.
fn reference_responses(
    observations: &[(ProcessId, Classification)],
    n_star: u64,
    cyclic: bool,
) -> Vec<EngineResponse> {
    let mut shard = ValkyrieEngine::new(engine_config(n_star, cyclic));
    observations
        .iter()
        .map(|&(pid, cls)| shard.observe(pid, cls))
        .collect()
}

/// The sharded run: the same observations split into `chunk`-sized batches.
/// A parallel threshold of 0 forces the spawn path even on one core, so the
/// property also covers the threaded partition/step/gather code (for shard
/// counts above one — a one-shard engine always runs inline).
fn sharded_responses(
    observations: &[(ProcessId, Classification)],
    shards: usize,
    chunk: usize,
    n_star: u64,
    cyclic: bool,
    force_spawns: bool,
) -> Vec<EngineResponse> {
    let mut engine = ShardedEngine::new(engine_config(n_star, cyclic), shards);
    if force_spawns {
        engine.set_parallel_threshold(0);
    }
    observations
        .chunks(chunk.max(1))
        .flat_map(|batch| engine.observe_batch(batch))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any shard count, any batch segmentation, sequential path.
    #[test]
    fn sharded_engine_is_equivalent_to_a_single_shard(
        obs in interleaving(200),
        chunk in 1usize..64,
        n_star in 1u64..20,
        cyclic in prop::bool::ANY,
    ) {
        let want = reference_responses(&obs, n_star, cyclic);
        for shards in SHARD_COUNTS {
            let got = sharded_responses(&obs, shards, chunk, n_star, cyclic, false);
            prop_assert_eq!(
                &got, &want,
                "shards={}, chunk={}, n_star={}, cyclic={}", shards, chunk, n_star, cyclic
            );
        }
    }

    /// The thread-parallel path produces the same sequences as the
    /// sequential reference.
    #[test]
    fn parallel_path_is_equivalent_too(
        obs in interleaving(150),
        chunk in 8usize..80,
        n_star in 1u64..16,
    ) {
        let want = reference_responses(&obs, n_star, true);
        for shards in SHARD_COUNTS {
            let got = sharded_responses(&obs, shards, chunk, n_star, true, true);
            prop_assert_eq!(&got, &want, "shards={}, chunk={}", shards, chunk);
        }
    }
}

/// One tick of the verdict path: a batch of `(pid, detector, cadence,
/// confidence index)` verdicts plus an optional pid to forget afterwards.
type VerdictTick = (Vec<(u64, u32, u32, usize)>, bool, u64);

/// Confidences the verdict property draws from, NaN (no measurement)
/// included.
const CONFIDENCES: [f64; 6] = [0.0, 0.3, 0.5, 0.7, 1.0, f64::NAN];

fn fused_config(n_star: u64, cyclic: bool) -> EngineConfig {
    EngineConfig::builder()
        .measurements_required(n_star)
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .cyclic(cyclic)
        .fusion(FusionConfig {
            weights: vec![1.0, 2.0, 0.5],
            stale_decay: 0.5,
            ..FusionConfig::default()
        })
        .build()
        .unwrap()
}

fn verdict_ticks() -> impl Strategy<Value = Vec<VerdictTick>> {
    let verdict = (0u64..24, 0u32..3, 1u32..=3, 0usize..CONFIDENCES.len());
    prop::collection::vec(
        (
            prop::collection::vec(verdict, 0..41),
            prop::bool::ANY,
            0u64..24,
        ),
        1..17,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused verdict batches with purges and forgets between ticks: every
    /// shard count answers each tick exactly like one engine, and each
    /// process with a usable verdict takes exactly one step per tick.
    #[test]
    fn sharded_verdict_path_is_equivalent_to_a_single_shard(
        ticks in verdict_ticks(),
        n_star in 1u64..6,
        cyclic in prop::bool::ANY,
    ) {
        for shards in SHARD_COUNTS {
            let mut sharded = ShardedEngine::new(fused_config(n_star, cyclic), shards);
            let mut single = ValkyrieEngine::new(fused_config(n_star, cyclic));
            for (tick, (raw, forget, forget_pid)) in ticks.iter().enumerate() {
                let batch: Vec<(ProcessId, Verdict)> = raw
                    .iter()
                    .map(|&(pid, detector, cadence, c)| {
                        let verdict = Verdict::new(detector, CONFIDENCES[c]).with_cadence(cadence);
                        (ProcessId(pid), verdict)
                    })
                    .collect();
                let mut got = sharded.observe_verdict_batch(&batch);
                let mut want = single.observe_verdict_batch(&batch);
                got.sort_by_key(|r| r.pid.0);
                want.sort_by_key(|r| r.pid.0);
                prop_assert_eq!(&got, &want, "shards={}, tick={}", shards, tick);

                let mut measured: Vec<u64> = raw
                    .iter()
                    .filter(|&&(_, _, _, c)| !CONFIDENCES[c].is_nan())
                    .map(|&(pid, ..)| pid)
                    .collect();
                measured.sort_unstable();
                measured.dedup();
                let responded: Vec<u64> = want.iter().map(|r| r.pid.0).collect();
                prop_assert_eq!(&responded, &measured, "shards={}, tick={}", shards, tick);

                sharded.purge_terminated();
                single.purge_terminated();
                if *forget {
                    sharded.forget(ProcessId(*forget_pid));
                    single.forget(ProcessId(*forget_pid));
                }
                prop_assert_eq!(sharded.tracked(), single.tracked());
                prop_assert_eq!(&sharded.fusion_stats(), single.fusion_stats());
            }
        }
    }
}

/// Two identical runs of the same sharded deployment are bit-identical —
/// shard placement and batch fan-out introduce no run-to-run variation.
#[test]
fn identical_runs_are_deterministic() {
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
    let run = || {
        let mut engine = ShardedEngine::new(engine_config(7, true), 7);
        engine.set_parallel_threshold(0); // force the threaded path
        observations
            .chunks(500)
            .map(|batch| engine.tick(batch))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// The epoch driver's purge keeps the live map bounded while preserving
/// response correctness for surviving processes, with the same engine
/// reused across hundreds of ticks.
#[test]
fn tick_driver_bounds_the_map_under_churn() {
    let mut engine = ShardedEngine::new(engine_config(3, false), 4);
    for epoch in 0..200u64 {
        // Generations of 50 pids, each attacked every epoch: with N* = 3 a
        // generation is terminated on its 4th observation and must be
        // evicted before the next generation arrives.
        let generation = epoch / 4;
        let batch: Vec<(ProcessId, Classification)> = (0..50)
            .map(|i| (ProcessId(generation * 50 + i), Classification::Malicious))
            .collect();
        engine.tick(&batch);
        assert!(
            engine.tracked() <= 50,
            "map grew to {} at epoch {epoch}",
            engine.tracked()
        );
    }
    assert_eq!(engine.epoch(), 200);
    assert_eq!(engine.purged_total(), 2_500); // 50 generations of 50 pids
    assert_eq!(engine.tracked(), engine.tracked_live());
}

/// Batches shorter than the worker count leave some of the fan-out's
/// slices empty (or, for the empty batch, every one); the forced parallel
/// path must still answer exactly like the single-engine reference.
#[test]
fn tiny_batches_on_many_shards_match_the_reference() {
    let mut engine = ShardedEngine::new(engine_config(2, false), 8);
    engine.set_parallel_threshold(0);
    let mut reference = ValkyrieEngine::new(engine_config(2, false));
    for len in [0usize, 1, 2, 0, 2, 1] {
        let batch: Vec<(ProcessId, Classification)> = (0..len as u64)
            .map(|pid| (ProcessId(pid), Classification::Malicious))
            .collect();
        let want: Vec<EngineResponse> = batch
            .iter()
            .map(|&(pid, cls)| reference.observe(pid, cls))
            .collect();
        assert_eq!(engine.observe_batch(&batch), want, "len {len}");
    }
}

/// A reused output buffer that still holds a longer, older tick's
/// responses is fully replaced: same length and contents as the reference.
#[test]
fn observe_batch_into_replaces_a_dirty_longer_buffer() {
    let mut engine = ShardedEngine::new(engine_config(4, true), 8);
    engine.set_parallel_threshold(0);
    let mut reference = ValkyrieEngine::new(engine_config(4, true));
    let mut out = Vec::new();
    for (epoch, len) in [(0u64, 300u64), (1, 37), (2, 5), (3, 300), (4, 1)] {
        let batch: Vec<(ProcessId, Classification)> = (0..len)
            .map(|i| {
                let cls = if (i + epoch) % 3 == 0 {
                    Classification::Malicious
                } else {
                    Classification::Benign
                };
                (ProcessId(i % 97), cls)
            })
            .collect();
        let want: Vec<EngineResponse> = batch
            .iter()
            .map(|&(pid, cls)| reference.observe(pid, cls))
            .collect();
        engine.observe_batch_into(&batch, &mut out);
        assert_eq!(out, want, "epoch {epoch}, len {len}");
    }
}
