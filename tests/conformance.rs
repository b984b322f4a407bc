//! One conformance harness for every entry point of the sharded engine.
//!
//! Sharding is semantically invisible: whatever the shard count, the route
//! a batch takes and the way observations reach the engine, every process
//! sees the Algorithm 1 steps a single engine would give it. This harness
//! is that contract, stated once.
//!
//! A seeded generator draws operation traces that interleave every entry
//! point of [`ShardedEngine`] ([`ENTRY_POINTS`]): the scalar `observe`,
//! `observe_batch`, `tick`, `observe_verdict_batch`, Block-mode binary and
//! verdict ingest through `publish`/`publish_batch` and
//! `drain_batch`/`drain_tick`, `complete`, `forget`, `purge_terminated` and
//! re-enabling ingest. Each trace runs on shard counts {1, 2, 7, 16} and
//! one [`FleetEngine`] shape, with the parallel threshold at 0 (every batch
//! and drain fans out) and at `usize::MAX` (every one stays inline), with
//! cyclic monitoring on and off. Odd seeds defend the binary rings
//! ([`IngestDefense::full`]: priority lane and fair queueing), so pids the
//! engine marks hot are published through the priority lane, and each
//! re-enable draws a fresh defence for the new rings: full, the priority
//! lane alone, or none. Even seeds leave the rings undefended. Seeds with
//! bit 1 set configure a two-kind actuator (CPU and filesystem), whose
//! engines keep each process's shares in a column beside the process
//! table; the rest move the CPU share alone.
//!
//! Every run is compared bit for bit (floats as bits) against one
//! reference: a single [`ValkyrieEngine`] fed the same operations one
//! observation at a time, with the Block-mode rings modelled as lossless
//! queues in publish order. The comparison covers every response of every
//! operation, the tracked and purged counts after each operation, and the
//! final tracked state sorted by pid. The order rule is the engine's:
//! binary responses come in input (publish) order; verdict responses come
//! after a drain's binary ones, grouped shard by shard and in first-arrival
//! order within a shard, which is exactly the reference's first-arrival
//! order under a stable sort by `shard_of`. Every response of every run,
//! the reference's included, also passes the paper's invariants
//! ([`ResponseInvariants`]). After every operation, every pid the engine
//! routes to the priority lane ([`ShardedEngine::is_hot`]) must still be
//! tracked, so a hint that outlives its process, across a defence change
//! too, fails the run.
//!
//! Reproduce a failure by its seed: the message names the seed, the shape,
//! the threshold, the cyclic, defended and two-kind flags, the operation
//! and the binary rings' defence at it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use valkyrie::core::invariants::ResponseInvariants;
use valkyrie::core::prelude::*;

/// The entry points a trace draws its operations from, uniformly. Deleting
/// an observation path deletes its line here.
const ENTRY_POINTS: &[fn(&mut Gen) -> Op] = &[
    |g| Op::Observe(g.pid(), g.class()),
    |g| Op::ObserveBatch(g.binary_batch()),
    |g| Op::Tick(g.binary_batch()),
    |g| Op::VerdictBatch(g.verdict_batch()),
    |g| Op::Publish(g.binary_batch(), g.rng.gen()),
    |g| Op::PublishVerdicts(g.verdict_batch(), g.rng.gen()),
    |_| Op::Drain { tick: false },
    |_| Op::Drain { tick: true },
    |g| Op::Complete(g.pid()),
    |g| Op::Forget(g.pid()),
    |_| Op::Purge,
    |_| Op::Reenable,
];

/// Engine shapes: shard counts (the identity, a power of two, a prime and
/// the largest production default), then a fleet of `groups ×
/// shards_per_group` shards.
const SHAPES: [Shape; 5] = [
    Shape::Sharded(1),
    Shape::Sharded(2),
    Shape::Sharded(7),
    Shape::Sharded(16),
    Shape::Fleet(3, 2),
];

/// Ring capacity per shard: more than the longest trace publishes in all,
/// so Block-mode rings never fill and a publish never blocks.
const RING_CAPACITY: usize = 1 << 16;

/// Verdict confidences, NaN (no measurement) included.
const CONFIDENCES: [f64; 6] = [0.0, 0.3, 0.5, 0.7, 1.0, f64::NAN];

#[derive(Clone, Copy, Debug)]
enum Shape {
    Sharded(usize),
    Fleet(usize, usize),
}

/// One operation of a trace.
#[derive(Clone, Debug)]
enum Op {
    Observe(ProcessId, Classification),
    ObserveBatch(Vec<(ProcessId, Classification)>),
    Tick(Vec<(ProcessId, Classification)>),
    VerdictBatch(Vec<(ProcessId, Verdict)>),
    /// Published as one `publish_batch` if the flag is set, else entry by
    /// entry.
    Publish(Vec<(ProcessId, Classification)>, bool),
    PublishVerdicts(Vec<(ProcessId, Verdict)>, bool),
    /// `drain_tick` if `tick`, else `drain_batch`.
    Drain {
        tick: bool,
    },
    Complete(ProcessId),
    Forget(ProcessId),
    Purge,
    /// Replaces both ingest lanes; what the old rings held is discarded.
    /// The new binary rings' defence is drawn apart from the trace (see
    /// [`defences`]).
    Reenable,
}

/// A trace generator: small pids and fleet-packed ones, with repeats.
struct Gen {
    rng: StdRng,
    pids: Vec<ProcessId>,
    max_batch: usize,
}

impl Gen {
    fn new(seed: u64, max_batch: usize) -> Self {
        let mut pids: Vec<ProcessId> = (0..12).map(ProcessId).collect();
        pids.extend((0..9).map(|i| ProcessId::from_parts(1 + i % 3, 1 + u64::from(i / 3))));
        pids.push(ProcessId(u64::MAX));
        Self {
            rng: StdRng::seed_from_u64(seed),
            pids,
            max_batch,
        }
    }

    fn pid(&mut self) -> ProcessId {
        self.pids[self.rng.gen_range(0..self.pids.len())]
    }

    fn class(&mut self) -> Classification {
        if self.rng.gen() {
            Classification::Malicious
        } else {
            Classification::Benign
        }
    }

    fn len(&mut self) -> usize {
        self.rng.gen_range(0..=self.max_batch)
    }

    fn binary_batch(&mut self) -> Vec<(ProcessId, Classification)> {
        (0..self.len())
            .map(|_| (self.pid(), self.class()))
            .collect()
    }

    /// Three detectors, and now and then one past the engine's 64 (dropped
    /// as no measurement), at cadences 1 to 3.
    fn verdict_batch(&mut self) -> Vec<(ProcessId, Verdict)> {
        (0..self.len())
            .map(|_| {
                let detector = if self.rng.gen_range(0..16) == 0 {
                    64
                } else {
                    self.rng.gen_range(0..3)
                };
                let confidence = CONFIDENCES[self.rng.gen_range(0..CONFIDENCES.len())];
                let cadence = self.rng.gen_range(1..=3);
                (
                    self.pid(),
                    Verdict::new(detector, confidence).with_cadence(cadence),
                )
            })
            .collect()
    }

    /// `ops` operations, then a `drain_tick` that empties the rings.
    fn trace(&mut self, ops: usize) -> Vec<Op> {
        let mut trace: Vec<Op> = (0..ops)
            .map(|_| ENTRY_POINTS[self.rng.gen_range(0..ENTRY_POINTS.len())](self))
            .collect();
        trace.push(Op::Drain { tick: true });
        trace
    }

    /// A config with `N*` in 1..=5. The exponential penalty reaches the
    /// threat ceiling of 100 within four flagged steps, so the clamp is
    /// exercised too. A `two_kind` config adds a filesystem part to the CPU
    /// one.
    fn config(&mut self, cyclic: bool, two_kind: bool) -> EngineConfig {
        let ladder = if self.rng.gen() {
            EscalationLadder::BINARY
        } else {
            EscalationLadder::graduated()
        };
        let penalty = if self.rng.gen() {
            AssessmentFn::incremental()
        } else {
            AssessmentFn::exponential(2.0)
        };
        let mut builder = EngineConfig::builder()
            .measurements_required(self.rng.gen_range(1..6))
            .penalty(penalty)
            .compensation(AssessmentFn::incremental())
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01));
        if two_kind {
            builder = builder.actuator_part(ShareActuator::fs_halving(1.0 / 128.0));
        }
        builder
            .cyclic(cyclic)
            .fusion(FusionConfig {
                weights: vec![1.0, 2.0, 0.5],
                stale_decay: 0.5,
                ladder,
                ..FusionConfig::default()
            })
            .build()
            .unwrap()
    }
}

/// Every field of a response, floats as bits so `-0.0` is not `0.0`.
type Bits = (u64, ProcessState, u64, [u64; 4], Action);

fn bits(r: &EngineResponse) -> Bits {
    let s = r.resources;
    (
        r.pid.0,
        r.state,
        r.threat.value().to_bits(),
        [s.cpu, s.mem, s.net, s.fs].map(f64::to_bits),
        r.action,
    )
}

/// What one operation must do, as the reference did it.
#[derive(Debug, Default)]
struct Step {
    /// Binary responses, in input or publish order.
    binary: Vec<EngineResponse>,
    /// Verdict responses after them, in first-arrival order.
    verdicts: Vec<EngineResponse>,
    /// What a `complete` returned, or a purge evicted.
    outcome: usize,
    tracked: usize,
    purged_total: u64,
}

/// Every tracked process by pid: state, threat and resources as bits.
type Final = Vec<(u64, ProcessState, u64, [u64; 4])>;

/// What a whole run must leave behind.
#[derive(Debug, PartialEq)]
struct Ending {
    tracked: usize,
    tracked_live: usize,
    purged_total: u64,
    epoch: u64,
    fusion: FusionStats,
    state: Final,
}

fn final_state(
    tracked: impl Iterator<Item = (ProcessId, ProcessState, ThreatIndex)>,
    resources: impl Fn(ProcessId) -> Option<ResourceVector>,
) -> Final {
    let mut state: Final = tracked
        .map(|(pid, state, threat)| {
            let s = resources(pid).expect("an iterated pid is tracked");
            (
                pid.0,
                state,
                threat.value().to_bits(),
                [s.cpu, s.mem, s.net, s.fs].map(f64::to_bits),
            )
        })
        .collect();
    state.sort_unstable_by_key(|s| s.0);
    state
}

/// Feeds `responses` to the checker, panicking with the run's name on the
/// first violation.
fn check_all(inv: &mut ResponseInvariants, responses: &[EngineResponse], what: &str) {
    for r in responses {
        if let Err(v) = inv.check(r) {
            panic!("{what}: {v}");
        }
    }
}

/// Feeds a binary batch to the reference one observation at a time.
fn observe(
    engine: &mut ValkyrieEngine,
    batch: &[(ProcessId, Classification)],
) -> Vec<EngineResponse> {
    batch
        .iter()
        .map(|&(pid, class)| engine.observe(pid, class))
        .collect()
}

/// Feeds a verdict batch to the reference, which must step each process
/// with a usable verdict (a confidence that is not NaN, from a detector
/// below 64) exactly once, in first-arrival order.
fn fuse(
    engine: &mut ValkyrieEngine,
    batch: &[(ProcessId, Verdict)],
    what: &str,
) -> Vec<EngineResponse> {
    let mut stepped: Vec<ProcessId> = Vec::new();
    for &(pid, verdict) in batch {
        if !verdict.confidence.is_nan() && verdict.detector < 64 && !stepped.contains(&pid) {
            stepped.push(pid);
        }
    }
    let responses = engine.observe_verdict_batch(batch);
    let got: Vec<ProcessId> = responses.iter().map(|r| r.pid).collect();
    assert_eq!(
        got, stepped,
        "{what}: one step per process with a usable verdict"
    );
    responses
}

/// The reference: one `ValkyrieEngine` stepping one observation at a time,
/// with the rings modelled as publish-order queues.
fn reference(config: &EngineConfig, trace: &[Op], what: &str) -> (Vec<Step>, Ending) {
    let mut engine = ValkyrieEngine::new(config.clone());
    let mut inv = ResponseInvariants::new(config);
    let (mut binary_ring, mut verdict_ring) = (Vec::new(), Vec::new());
    let (mut epoch, mut purged_total) = (0, 0);
    let mut steps = Vec::with_capacity(trace.len());
    for (i, op) in trace.iter().enumerate() {
        let what = format!("{what}, reference, op {i} {op:?}");
        let mut step = Step::default();
        let mut purge = false;
        match op {
            Op::Observe(pid, class) => step.binary = observe(&mut engine, &[(*pid, *class)]),
            Op::ObserveBatch(batch) => step.binary = observe(&mut engine, batch),
            Op::Tick(batch) => {
                step.binary = observe(&mut engine, batch);
                epoch += 1;
                purge = true;
            }
            Op::VerdictBatch(batch) => step.verdicts = fuse(&mut engine, batch, &what),
            Op::Publish(batch, _) => binary_ring.extend_from_slice(batch),
            Op::PublishVerdicts(batch, _) => verdict_ring.extend_from_slice(batch),
            Op::Drain { tick } => {
                step.binary = observe(&mut engine, &std::mem::take(&mut binary_ring));
                step.verdicts = fuse(&mut engine, &std::mem::take(&mut verdict_ring), &what);
                if *tick {
                    epoch += 1;
                    purge = true;
                }
            }
            Op::Complete(pid) => {
                step.outcome = usize::from(engine.complete(*pid).is_ok());
                inv.complete(*pid);
            }
            Op::Forget(pid) => {
                engine.forget(*pid);
                inv.forget(*pid);
            }
            Op::Purge => purge = true,
            Op::Reenable => {
                binary_ring.clear();
                verdict_ring.clear();
            }
        }
        check_all(&mut inv, &step.binary, &what);
        check_all(&mut inv, &step.verdicts, &what);
        if purge {
            let purged = engine.purge_terminated();
            purged_total += purged as u64;
            inv.purge();
            if matches!(op, Op::Purge) {
                step.outcome = purged;
            }
        }
        assert_eq!(
            inv.tracked(),
            engine.tracked(),
            "{what}: checker out of step"
        );
        step.tracked = engine.tracked();
        step.purged_total = purged_total;
        steps.push(step);
    }
    let ending = Ending {
        tracked: engine.tracked(),
        tracked_live: engine.tracked_live(),
        purged_total,
        epoch,
        fusion: engine.fusion_stats().clone(),
        state: final_state(engine.iter(), |pid| engine.resources(pid)),
    };
    (steps, ending)
}

/// The binary rings' defence at the start of `trace` and after each of its
/// `Reenable`s. Odd seeds start fully defended, and each re-enable draws
/// full, the priority lane alone, or none from a stream of its own, so
/// every trace stays as its seed drew it. Even seeds stay undefended.
fn defences(seed: u64, trace: &[Op]) -> Vec<IngestDefense> {
    let reenables = trace.iter().filter(|op| matches!(op, Op::Reenable)).count();
    if seed.is_multiple_of(2) {
        return vec![IngestDefense::default(); reenables + 1];
    }
    let choices = [
        IngestDefense::full(),
        IngestDefense {
            priority_lane: true,
            fair_queueing: false,
        },
        IngestDefense::default(),
    ];
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEFE_4CE5);
    std::iter::once(IngestDefense::full())
        .chain((0..reenables).map(|_| choices[rng.gen_range(0..choices.len())]))
        .collect()
}

/// Runs `trace` on `engine`, its binary rings built with `defences[0]`
/// and rebuilt at each re-enable with the next one, and compares every
/// operation with the reference's `steps`, and the end with `want`. `pids`
/// holds every pid the trace can name.
fn conform(
    engine: &mut ShardedEngine,
    defences: &[IngestDefense],
    pids: &[ProcessId],
    trace: &[Op],
    steps: &[Step],
    want: &Ending,
    what: &str,
) {
    let mut inv = ResponseInvariants::new(engine.config());
    let mut defences = defences.iter().copied();
    let mut defense = defences.next().expect("one defence per ring set");
    let mut binary = engine.enable_ingest_defended(RING_CAPACITY, OverflowPolicy::Block, defense);
    let mut verdicts = engine.enable_verdict_ingest(RING_CAPACITY, OverflowPolicy::Block);
    for (i, (op, step)) in trace.iter().zip(steps).enumerate() {
        if matches!(op, Op::Reenable) {
            defense = defences.next().expect("one defence per re-enable");
        }
        let what = format!("{what}, op {i} {op:?}, {defense:?}");
        let mut outcome = 0;
        let got: Vec<EngineResponse> = match op {
            Op::Observe(pid, class) => vec![engine.observe(*pid, *class)],
            Op::ObserveBatch(batch) => engine.observe_batch(batch).into_vec(),
            Op::Tick(batch) => engine.tick(batch).into_vec(),
            Op::VerdictBatch(batch) => engine.observe_verdict_batch(batch),
            Op::Publish(batch, true) => {
                assert_eq!(binary.publish_batch(batch), batch.len(), "{what}");
                Vec::new()
            }
            Op::Publish(batch, false) => {
                for &(pid, class) in batch {
                    assert!(binary.publish(pid, class), "{what}");
                }
                Vec::new()
            }
            Op::PublishVerdicts(batch, true) => {
                assert_eq!(verdicts.publish_batch(batch), batch.len(), "{what}");
                Vec::new()
            }
            Op::PublishVerdicts(batch, false) => {
                for &(pid, verdict) in batch {
                    assert!(verdicts.publish(pid, verdict), "{what}");
                }
                Vec::new()
            }
            Op::Drain { tick: true } => engine.drain_tick(),
            Op::Drain { tick: false } => engine.drain_batch(),
            Op::Complete(pid) => {
                outcome = usize::from(engine.complete(*pid).is_ok());
                inv.complete(*pid);
                Vec::new()
            }
            Op::Forget(pid) => {
                engine.forget(*pid);
                inv.forget(*pid);
                Vec::new()
            }
            Op::Purge => {
                outcome = engine.purge_terminated();
                Vec::new()
            }
            Op::Reenable => {
                binary =
                    engine.enable_ingest_defended(RING_CAPACITY, OverflowPolicy::Block, defense);
                verdicts = engine.enable_verdict_ingest(RING_CAPACITY, OverflowPolicy::Block);
                Vec::new()
            }
        };
        check_all(&mut inv, &got, &what);
        if matches!(op, Op::Tick(_) | Op::Drain { tick: true } | Op::Purge) {
            inv.purge();
        }

        let mut verdict_order = step.verdicts.clone();
        verdict_order.sort_by_key(|r| engine.shard_of(r.pid));
        let want_responses: Vec<Bits> =
            step.binary.iter().chain(&verdict_order).map(bits).collect();
        let got: Vec<Bits> = got.iter().map(bits).collect();
        if got != want_responses {
            let at = got
                .iter()
                .zip(&want_responses)
                .position(|(g, w)| g != w)
                .unwrap_or(got.len().min(want_responses.len()));
            panic!(
                "{what}: {} responses, want {}; first difference at {at}: got {:?}, want {:?}",
                got.len(),
                want_responses.len(),
                got.get(at),
                want_responses.get(at),
            );
        }
        assert_eq!(outcome, step.outcome, "{what}: complete or purge outcome");
        assert_eq!(engine.tracked(), step.tracked, "{what}: tracked");
        assert_eq!(engine.purged_total(), step.purged_total, "{what}: purged");
        assert_eq!(
            inv.tracked(),
            engine.tracked(),
            "{what}: checker out of step"
        );
        for &pid in pids {
            assert!(
                !engine.is_hot(pid) || engine.state(pid).is_some(),
                "{what}: {pid} is hot but not tracked"
            );
        }
    }
    let got = Ending {
        tracked: engine.tracked(),
        tracked_live: engine.tracked_live(),
        purged_total: engine.purged_total(),
        epoch: engine.epoch(),
        fusion: engine.fusion_stats(),
        state: final_state(engine.iter(), |pid| engine.resources(pid)),
    };
    assert!(
        got == *want,
        "{what}: final state\n got {got:?}\nwant {want:?}"
    );
}

/// Runs `seeds` traces of `ops` operations each on every shape, threshold
/// and cyclic flag, with the binary rings defended on odd seeds (see
/// [`defences`]) and a two-kind actuator on seeds with bit 1 set.
fn run_harness(seeds: impl Iterator<Item = u64>, ops: usize, max_batch: usize) {
    for seed in seeds {
        let defended = seed % 2 == 1;
        let two_kind = seed & 2 != 0;
        for cyclic in [false, true] {
            let mut gen = Gen::new(seed, max_batch);
            let config = gen.config(cyclic, two_kind);
            let trace = gen.trace(ops);
            let defences = defences(seed, &trace);
            let what =
                format!("seed {seed}, cyclic {cyclic}, defended {defended}, two-kind {two_kind}");
            let (steps, want) = reference(&config, &trace, &what);
            for shape in SHAPES {
                for threshold in [0, usize::MAX] {
                    let what = format!("{what}, {shape:?}, threshold {threshold}");
                    let run = |engine: &mut ShardedEngine| {
                        engine.set_parallel_threshold(threshold);
                        conform(engine, &defences, &gen.pids, &trace, &steps, &want, &what);
                    };
                    match shape {
                        Shape::Sharded(shards) => {
                            run(&mut ShardedEngine::new(config.clone(), shards))
                        }
                        Shape::Fleet(groups, per_group) => {
                            run(&mut FleetEngine::new(config.clone(), groups, per_group))
                        }
                    }
                }
            }
        }
    }
}

// Seeds 0..64 split by parity into two tests, which the test runner runs
// side by side: most of a run's wall time is waiting on the thread spawns of
// the threshold-0 fan-outs.

#[test]
fn every_entry_point_matches_the_single_engine_reference() {
    run_harness((0..64).step_by(2), 80, 24);
}

#[test]
fn every_entry_point_matches_the_single_engine_reference_defended() {
    run_harness((1..64).step_by(2), 80, 24);
}

/// The long run CI executes in release.
#[test]
#[ignore = "stress: run with --release -- --ignored"]
fn long_traces_match_the_single_engine_reference() {
    run_harness(1_000..1_100, 400, 96);
}
