//! Determinism, churn and output-buffer guarantees of the sharded engine
//! tier.
//!
//! The tier's equivalence contract (sharding is semantically invisible on
//! every entry point, shard count and route) is `tests/conformance.rs`.
//! This file keeps what that harness does not look at: run-to-run
//! determinism, the tick driver's bounded table under churn, and the
//! `Responses` handle's buffer reuse.

use valkyrie::core::prelude::*;

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

/// The three batch routes: the fan-out (threshold 0), the inline route of
/// a many-shard engine and a one-shard engine.
fn routes(config: &EngineConfig) -> [(&'static str, ShardedEngine); 3] {
    let mut fan_out = ShardedEngine::new(config.clone(), 8);
    fan_out.set_parallel_threshold(0);
    let mut inline = ShardedEngine::new(config.clone(), 8);
    inline.set_parallel_threshold(usize::MAX);
    [
        ("fan-out", fan_out),
        ("inline", inline),
        ("one shard", ShardedEngine::new(config.clone(), 1)),
    ]
}

/// `len` observations of pids `0..97`, a third of them flagged on a
/// schedule that moves with `epoch`.
fn dirty_batch(epoch: u64, len: u64) -> Vec<(ProcessId, Classification)> {
    (0..len)
        .map(|i| {
            let cls = if (i + epoch).is_multiple_of(3) {
                Classification::Malicious
            } else {
                Classification::Benign
            };
            (ProcessId(i % 97), cls)
        })
        .collect()
}

/// Every field of a response, floats as bits so `-0.0` is not `0.0`.
fn bits(r: &EngineResponse) -> (u64, ProcessState, u64, [u64; 4], Action) {
    let s = r.resources;
    (
        r.pid.0,
        r.state,
        r.threat.value().to_bits(),
        [s.cpu, s.mem, s.net, s.fs].map(f64::to_bits),
        r.action,
    )
}

/// `tick`'s answers from one engine, observation by observation, with its
/// end-of-tick purge.
fn reference_tick(
    reference: &mut ValkyrieEngine,
    batch: &[(ProcessId, Classification)],
) -> Vec<EngineResponse> {
    let want = batch
        .iter()
        .map(|&(pid, cls)| reference.observe(pid, cls))
        .collect();
    reference.purge_terminated();
    want
}

/// A tick after the last tick's responses were dropped writes into the
/// same allocation on every route: the steady state allocates no output.
#[test]
fn a_second_same_size_tick_reuses_the_first_ticks_buffer() {
    for (route, mut engine) in routes(&engine_config(4, true)) {
        let first = engine.tick(&dirty_batch(0, 300));
        let ptr = first.as_ptr();
        drop(first);
        for epoch in 1..4 {
            let again = engine.tick(&dirty_batch(epoch, 300));
            assert_eq!(again.as_ptr(), ptr, "{route}, epoch {epoch}");
        }
    }
}

/// A reused buffer that still holds a longer, older tick's responses, or a
/// shorter one, is fully replaced on every route: ticks that shrink and
/// grow answer bit for bit like one engine.
#[test]
fn ticks_that_shrink_and_grow_match_a_one_shard_reference() {
    let config = engine_config(4, true);
    for (route, mut engine) in routes(&config) {
        let mut reference = ValkyrieEngine::new(config.clone());
        for (epoch, len) in [
            (0u64, 300u64),
            (1, 37),
            (2, 5),
            (3, 300),
            (4, 1),
            (5, 0),
            (6, 512),
        ] {
            let batch = dirty_batch(epoch, len);
            let want: Vec<_> = reference_tick(&mut reference, &batch)
                .iter()
                .map(bits)
                .collect();
            let got: Vec<_> = engine.tick(&batch).iter().map(bits).collect();
            assert!(got == want, "{route}, epoch {epoch}, len {len}");
        }
    }
}

/// Handles held side by side, dropped on another thread or kept past their
/// engine all read their own tick's responses, and the engine keeps
/// answering correctly (and reusing what comes back) through all of it.
#[test]
fn held_moved_and_orphaned_handles_stay_correct() {
    let config = engine_config(4, true);
    for (route, mut engine) in routes(&config) {
        let mut reference = ValkyrieEngine::new(config.clone());
        let mut tick = |engine: &mut ShardedEngine, epoch: u64, len: u64| {
            let batch = dirty_batch(epoch, len);
            let want: Vec<_> = reference_tick(&mut reference, &batch)
                .iter()
                .map(bits)
                .collect();
            (engine.tick(&batch), want)
        };
        let check = |responses: &Responses, want: &Vec<_>, what: &str| {
            let got: Vec<_> = responses.iter().map(bits).collect();
            assert!(got == *want, "{route}: {what}");
        };

        // Two handles alive at once: the second tick cannot reuse the
        // first's buffer, and neither answer disturbs the other.
        let (small, small_want) = tick(&mut engine, 0, 300);
        let (large, large_want) = tick(&mut engine, 1, 500);
        assert_ne!(small.as_ptr(), large.as_ptr(), "{route}");
        check(&small, &small_want, "first of two held handles");
        check(&large, &large_want, "second of two held handles");
        // Both come back; the engine keeps the larger buffer.
        let large_ptr = large.as_ptr();
        drop(large);
        drop(small);
        let (next, next_want) = tick(&mut engine, 2, 300);
        assert_eq!(
            next.as_ptr(),
            large_ptr,
            "{route}: the larger buffer is kept"
        );
        check(&next, &next_want, "after two handles came back");

        // A handle dropped on another thread still comes home.
        let ptr = next.as_ptr();
        std::thread::spawn(move || drop(next)).join().unwrap();
        let (next, next_want) = tick(&mut engine, 3, 300);
        assert_eq!(next.as_ptr(), ptr, "{route}: dropped on another thread");
        check(&next, &next_want, "after a drop on another thread");

        // A handle that outlives its engine keeps its answers and frees
        // its buffer when dropped.
        drop(engine);
        check(&next, &next_want, "a handle past its engine");
        assert_eq!(next.into_vec().len(), 300);
    }
}
