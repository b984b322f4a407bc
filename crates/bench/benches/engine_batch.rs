//! Throughput benches for the sharded batch-observation engine.
//!
//! One group per fleet size (`core/engine_batch_1k` / `_10k` / `_100k`),
//! each comparing:
//!
//! * `observe_loop` — the paper-era driver: one `ValkyrieEngine::observe`
//!   call per process per tick (the pre-scaling baseline API);
//! * `sharded_xN` — the same workload through
//!   `ShardedEngine::observe_batch` with `N` shards (one tick = one batch),
//!   fanned out over scoped threads per tick on multi-core hosts;
//! * `ingest_xN` — the same workload through the async ingest tier: every tick publishes the batch into the bounded
//!   per-shard rings (`OverflowPolicy::Block`, capacity sized so nothing
//!   blocks) and drains it back with `drain_batch`. Against `sharded_xN`
//!   at the same `N` this prices the queue hop + publish-order merge the
//!   decoupling costs;
//! * `fusion_xN` — the same workload carried as `Verdict`s through the
//!   weighted-evidence fusion tier (`observe_verdict_batch`) under the
//!   degenerate unit-weight/BINARY-ladder config. Against `sharded_xN` at
//!   the same `N` this prices the per-process evidence-table hop (fuse +
//!   escalate) the fused path adds over flat binary observation;
//! * `fleet_xN` — the same fleet spread across 256 machines through a
//!   `FleetEngine`: a `ShardedEngine` with `2N` shards over global pids
//!   packed with `ProcessId::from_parts`. Against `sharded_x2N` this
//!   prices the packed pid shape alone.
//!
//! `core/engine_batch_fleet_pids` re-runs `fleet_x{1,4}` at 100k
//! observations per tick over `fleet_scale`'s pid shape instead: 10k
//! machines × 10 services, so every packed pid differs from its neighbours
//! in the machine bits and shares one of ten small local pids. Any hash
//! that lets the local pid alone pick the bucket collapses here (and only
//! here: `fleet_tick_batch` packs ~390 local pids per machine).
//!
//! `core/engine_batch_1m` is `fleet_churn`'s tick: 1M observations per
//! tick over 100k machines × 10 services, every per-shard table far larger
//! than L2. It compares `observe_loop` with `sharded_x{1,2,16}`; 16 shards
//! is the `fleet_churn` engine's shape. Those variants drop each tick's
//! `Responses` at once, so the engine reuses its output buffer;
//! `sharded_x16_held` keeps each tick's responses (detached with
//! `into_vec`) until after the next tick, so every tick allocates and
//! faults in a fresh 56 MB output. `sharded_x16_shuffled` replays the
//! same ticks with each batch permuted by a fixed seed, so the fleet is
//! never presented in the order it registered in: the lookup cursor
//! misses and a re-lay cannot help. Every `sharded_x*` variant registers
//! the fleet in its unshuffled order with one untimed tick, so no timed
//! tick registers it, and none of the shuffled ones presents the table's
//! own order. `sharded_x16_churned` runs the same
//! fleet under `fleet_churn`'s service churn (~0.2% departures and ~0.2%
//! arrivals per tick, each arrival presented inside its machine's run of
//! pids), so the cursor's erosion under churn and the re-lay that repairs
//! it show here: each shard's ~62.5k-record table outgrows L2, so it
//! takes two relay turns per tick, half the shards apart, and the fan-out
//! re-lays at most one shard per worker and tick, each shard about every
//! eighth tick. Its timed tick includes the churn draw, one
//! pass over the batch, and the engine's `forget` calls. The fan-out's
//! serial passes and the second core's payoff only show at this size.
//!
//! A separate `core/engine_batch_flood` group (`flood_x{1,4}`) drives the
//! same 10k fleet through undersized defended rings while a `NoiseFlood`
//! decoy stream forces the overflow path — pricing the priority lane +
//! fair-queueing bookkeeping at full eviction pressure.
//!
//! Every variant replays the identical workload: the full fleet observed
//! each tick, one in seven processes flagged on a rotating schedule so
//! monitors keep moving through throttle/recover transitions without
//! terminating (`N*` is set beyond the horizon). Timings are per tick;
//! divide the fleet size by the printed time for observations/second.
//! Shard speedups require hardware parallelism — on a single-core runner
//! `sharded_xN` only measures the partition/gather overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;
use valkyrie_core::hash::mix64;
use valkyrie_core::prelude::*;
use valkyrie_workloads::NoiseFlood;

fn engine_config(n_star: u64) -> EngineConfig {
    EngineConfig::builder()
        .measurements_required(n_star)
        .actuator(ShareActuator::scheduler_weight(0.1, 0.01))
        .build()
        .unwrap()
}

fn tick_batch(procs: u64, epoch: u64) -> Vec<(ProcessId, Classification)> {
    (0..procs)
        .map(|pid| {
            let cls = if (pid + epoch).is_multiple_of(7) {
                Classification::Malicious
            } else {
                Classification::Benign
            };
            (ProcessId(pid), cls)
        })
        .collect()
}

/// The cluster-tier batch: the same flag schedule, pids spread round-robin
/// across 256 machines of the packed global namespace.
fn fleet_tick_batch(procs: u64, epoch: u64) -> Vec<(ProcessId, Classification)> {
    (0..procs)
        .map(|i| {
            let cls = if (i + epoch).is_multiple_of(7) {
                Classification::Malicious
            } else {
                Classification::Benign
            };
            (ProcessId::from_parts((i % 256) as u32, i / 256), cls)
        })
        .collect()
}

/// `fleet_scale`'s pid shape: `machines` machines × `services` services,
/// local pids `1..=services`, the same flag schedule.
fn fleet_service_batch(
    machines: u32,
    services: u64,
    epoch: u64,
) -> Vec<(ProcessId, Classification)> {
    (0..machines)
        .flat_map(|m| (1..=services).map(move |local| ProcessId::from_parts(m, local)))
        .enumerate()
        .map(|(i, pid)| {
            let cls = if (i as u64 + epoch).is_multiple_of(7) {
                Classification::Malicious
            } else {
                Classification::Benign
            };
            (pid, cls)
        })
        .collect()
}

fn bench_fleet_pids(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/engine_batch_fleet_pids");
    let n_star = 1_u64 << 40;
    const MACHINES: u32 = 10_000;
    const SERVICES: u64 = 10;
    let procs = MACHINES as usize * SERVICES as usize;
    let ring: Vec<Vec<(ProcessId, Classification)>> = (0..7)
        .map(|epoch| fleet_service_batch(MACHINES, SERVICES, epoch))
        .collect();
    for groups in [1usize, 4] {
        group.bench_function(format!("fleet_x{groups}").as_str(), |b| {
            let mut engine = FleetEngine::with_capacity(engine_config(n_star), groups, 2, procs);
            let mut epoch = 0usize;
            b.iter(|| {
                epoch += 1;
                black_box(engine.observe_batch(black_box(&ring[epoch % 7])))
            });
        });
    }
    group.finish();
}

fn bench_engine_batch_1m(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/engine_batch_1m");
    // A tick takes ~0.1 s here, so the default budget would time one or
    // two batches per variant.
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let n_star = 1_u64 << 40;
    const MACHINES: u32 = 100_000;
    const SERVICES: u64 = 10;
    let procs = MACHINES as usize * SERVICES as usize;
    let ring: Vec<Vec<(ProcessId, Classification)>> = (0..7)
        .map(|epoch| fleet_service_batch(MACHINES, SERVICES, epoch))
        .collect();
    group.bench_function("observe_loop", |b| {
        let mut engine = ValkyrieEngine::with_capacity(engine_config(n_star), procs);
        let mut epoch = 0usize;
        b.iter(|| {
            epoch += 1;
            for &(pid, cls) in &ring[epoch % 7] {
                black_box(engine.observe(pid, cls));
            }
        });
    });
    // The same ticks with each batch in its own fixed random order, so no
    // tick presents the fleet in the order it registered: the process
    // table's worst case for locality.
    let shuffled: Vec<Vec<(ProcessId, Classification)>> = ring
        .iter()
        .zip(1u64..)
        .map(|(batch, seed)| shuffle(batch, seed))
        .collect();
    for (shards, ticks, suffix) in [
        (1usize, &ring, ""),
        (2, &ring, ""),
        (16, &ring, ""),
        (16, &shuffled, "_shuffled"),
    ] {
        group.bench_function(format!("sharded_x{shards}{suffix}").as_str(), |b| {
            let mut engine = ShardedEngine::with_capacity(engine_config(n_star), shards, procs);
            // Register the fleet in its unshuffled order, untimed, so no
            // timed tick presents the table's own order.
            engine.observe_batch(&ring[0]);
            let mut epoch = 0usize;
            b.iter(|| {
                epoch += 1;
                black_box(engine.observe_batch(black_box(&ticks[epoch % 7])))
            });
        });
    }
    // `sharded_x16` drops each tick's responses before the next tick, so
    // the engine overwrites one buffer in place. Here the caller keeps each
    // tick's responses until after the next tick, detached from the engine
    // with `into_vec`, so every tick allocates its output afresh and faults
    // it in: the fallback for callers that keep what a tick returned.
    group.bench_function("sharded_x16_held", |b| {
        let mut engine = ShardedEngine::with_capacity(engine_config(n_star), 16, procs);
        engine.observe_batch(&ring[0]);
        let mut held = Vec::new();
        let mut epoch = 0usize;
        b.iter(|| {
            epoch += 1;
            let responses = engine.observe_batch(black_box(&ring[epoch % 7]));
            black_box(std::mem::replace(&mut held, responses.into_vec()))
        });
    });
    group.bench_function("sharded_x16_churned", |b| {
        let mut engine = ShardedEngine::with_capacity(engine_config(n_star), 16, procs);
        let mut fleet = ChurnedFleet::new(ring[0].clone(), MACHINES);
        b.iter(|| {
            fleet.advance();
            for &pid in &fleet.departed {
                engine.forget(pid);
            }
            black_box(engine.observe_batch(black_box(&fleet.batch)))
        });
    });
    group.finish();
}

/// `fleet_churn`'s service churn on a `fleet_service_batch` fleet: every
/// tick each service departs with probability 1/500 and each machine
/// spawns a service with probability 1/50 (about 2k of each at 100k × 10),
/// so about 0.4% of the batch changes per tick. A new service takes its
/// machine's next local pid and is presented after the machine's other
/// services, mid-batch, while the engine files it after every older
/// record. The batch stays sorted by packed pid.
struct ChurnedFleet {
    batch: Vec<(ProcessId, Classification)>,
    /// The pids that left at the last tick, for the engine to forget.
    departed: Vec<ProcessId>,
    next_local: Vec<u64>,
    epoch: u64,
    scratch: Vec<(ProcessId, Classification)>,
}

impl ChurnedFleet {
    fn new(batch: Vec<(ProcessId, Classification)>, machines: u32) -> Self {
        let mut next_local = vec![1; machines as usize];
        for &(pid, _) in &batch {
            next_local[pid.machine() as usize] = pid.local() + 1;
        }
        Self {
            batch,
            departed: Vec::new(),
            next_local,
            epoch: 0,
            scratch: Vec::new(),
        }
    }

    /// Draws the next tick's departures and arrivals in one pass over the
    /// batch, re-flagging every process on the shared schedule.
    fn advance(&mut self) {
        self.epoch += 1;
        let epoch = self.epoch;
        let salt = epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let flag = |i: usize| {
            if (i as u64 + epoch).is_multiple_of(7) {
                Classification::Malicious
            } else {
                Classification::Benign
            }
        };
        self.departed.clear();
        let next = &mut self.scratch;
        next.clear();
        let mut old = self.batch.iter().peekable();
        for (machine, next_local) in (0u32..).zip(&mut self.next_local) {
            while let Some(&&(pid, _)) = old.peek().filter(|(pid, _)| pid.machine() == machine) {
                old.next();
                if mix64(pid.0 ^ salt).is_multiple_of(500) {
                    self.departed.push(pid);
                } else {
                    next.push((pid, flag(next.len())));
                }
            }
            if mix64(u64::from(machine) ^ !salt).is_multiple_of(50) {
                next.push((
                    ProcessId::from_parts(machine, *next_local),
                    flag(next.len()),
                ));
                *next_local += 1;
            }
        }
        std::mem::swap(&mut self.batch, &mut self.scratch);
    }
}

/// A Fisher-Yates permutation of `batch` drawn from `mix64(seed, i)`.
fn shuffle<T: Clone>(batch: &[T], seed: u64) -> Vec<T> {
    let mut out = batch.to_vec();
    for i in (1..out.len()).rev() {
        let j =
            (mix64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

fn bench_fleet(c: &mut Criterion, label: &str, procs: u64) {
    let mut group = c.benchmark_group(label);
    // N* beyond any horizon the bench reaches: no process terminates, the
    // map stays at `procs` entries and every tick is pure observe work.
    let n_star = 1_u64 << 40;
    // The `(pid + epoch) % 7` flag pattern has period 7 in the epoch, so a
    // ring of 7 pre-built batches covers every tick: batch assembly is the
    // embedder's job and stays outside the timed closures in *all*
    // variants — only engine work is measured.
    let ring: Vec<Vec<(ProcessId, Classification)>> =
        (0..7).map(|epoch| tick_batch(procs, epoch)).collect();

    group.bench_function("observe_loop", |b| {
        let mut engine = ValkyrieEngine::with_capacity(engine_config(n_star), procs as usize);
        let mut epoch = 0usize;
        b.iter(|| {
            epoch += 1;
            for &(pid, cls) in &ring[epoch % 7] {
                black_box(engine.observe(pid, cls));
            }
        });
    });

    for shards in [1usize, 2, 4, 8] {
        group.bench_function(format!("sharded_x{shards}").as_str(), |b| {
            let mut engine =
                ShardedEngine::with_capacity(engine_config(n_star), shards, procs as usize);
            let mut epoch = 0usize;
            b.iter(|| {
                epoch += 1;
                black_box(engine.observe_batch(black_box(&ring[epoch % 7])))
            });
        });
    }

    for shards in [1usize, 2, 4, 8] {
        group.bench_function(format!("ingest_x{shards}").as_str(), |b| {
            let mut engine =
                ShardedEngine::with_capacity(engine_config(n_star), shards, procs as usize);
            // Capacity covers a whole tick per shard: Block never blocks,
            // the rings stay lossless, and the timing is publish + drain.
            let publisher = engine.enable_ingest(procs as usize, OverflowPolicy::Block);
            let mut epoch = 0usize;
            b.iter(|| {
                epoch += 1;
                publisher.publish_batch(black_box(&ring[epoch % 7]));
                black_box(engine.drain_batch())
            });
        });
    }

    // The fused-verdict path: the identical flag schedule carried as
    // `Verdict`s (detector 0, confidence 0/1) through the weighted-evidence
    // fusion tier with the degenerate unit-weight/BINARY-ladder config, so
    // against `sharded_xN` at the same `N` this prices exactly the
    // per-process evidence-table hop (fuse + escalate) over the flat
    // binary observation path.
    let verdict_ring: Vec<Vec<(ProcessId, Verdict)>> = ring
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|&(pid, cls)| (pid, Verdict::from_classification(0, cls)))
                .collect()
        })
        .collect();
    for shards in [1usize, 4] {
        group.bench_function(format!("fusion_x{shards}").as_str(), |b| {
            let config = EngineConfig::builder()
                .measurements_required(n_star)
                .actuator(ShareActuator::scheduler_weight(0.1, 0.01))
                .fusion(FusionConfig {
                    weights: Vec::new(),
                    default_weight: 1.0,
                    stale_decay: 1.0,
                    ladder: EscalationLadder::BINARY,
                })
                .build()
                .unwrap();
            let mut engine = ShardedEngine::with_capacity(config, shards, procs as usize);
            let mut epoch = 0usize;
            b.iter(|| {
                epoch += 1;
                black_box(engine.observe_verdict_batch(black_box(&verdict_ring[epoch % 7])))
            });
        });
    }

    let fleet_ring: Vec<Vec<(ProcessId, Classification)>> =
        (0..7).map(|epoch| fleet_tick_batch(procs, epoch)).collect();
    for groups in [1usize, 4] {
        group.bench_function(format!("fleet_x{groups}").as_str(), |b| {
            let mut engine =
                FleetEngine::with_capacity(engine_config(n_star), groups, 2, procs as usize);
            let mut epoch = 0usize;
            b.iter(|| {
                epoch += 1;
                black_box(engine.observe_batch(black_box(&fleet_ring[epoch % 7])))
            });
        });
    }
    group.finish();
}

fn bench_engine_batch_1k(c: &mut Criterion) {
    bench_fleet(c, "core/engine_batch_1k", 1_000);
}

fn bench_engine_batch_10k(c: &mut Criterion) {
    bench_fleet(c, "core/engine_batch_10k", 10_000);
}

fn bench_engine_batch_100k(c: &mut Criterion) {
    bench_fleet(c, "core/engine_batch_100k", 100_000);
}

/// The ingest rings under the noise-flood defense: undersized `DropOldest`
/// rings with the priority lane + per-publisher fair queueing armed, a
/// legit publisher racing a decoy flood from a second handle every epoch.
/// Each tick publishes the 10k-process fleet, then a `NoiseFlood` decoy
/// burst at every shard, then drains — so the eviction path, the
/// heaviest-publisher scan and the two-lane seq merge all run every
/// iteration. Against `ingest_xN` in `core/engine_batch_10k` (lossless
/// rings, no flood, no defense) this prices the defended overflow path at
/// its worst: every decoy is an eviction decision.
fn bench_flood(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/engine_batch_flood");
    let n_star = 1_u64 << 40;
    const PROCS: u64 = 10_000;
    let ring: Vec<Vec<(ProcessId, Classification)>> =
        (0..7).map(|epoch| tick_batch(PROCS, epoch)).collect();
    for shards in [1usize, 4] {
        group.bench_function(format!("flood_x{shards}").as_str(), |b| {
            let mut engine =
                ShardedEngine::with_capacity(engine_config(n_star), shards, PROCS as usize);
            // Per-shard capacity below a tick's worth of traffic: the
            // flood forces overflow — and therefore the fair-queueing
            // eviction scan — on every single tick.
            let publisher = engine.enable_ingest_defended(
                4_096,
                OverflowPolicy::DropOldest,
                IngestDefense::full(),
            );
            let flood_pub = publisher.clone();
            let flood = NoiseFlood::new(0xF100D, shards, (0..shards).collect()).with_rate(2_048);
            // Decoy batches are a pure function of the epoch; like the
            // legit ring they are assembled outside the timed closure.
            let decoy_ring: Vec<Vec<(ProcessId, Classification)>> = (0..8)
                .map(|epoch| {
                    let mut out = Vec::new();
                    flood.decoys_into(epoch, &mut out);
                    out
                })
                .collect();
            let mut epoch = 0usize;
            b.iter(|| {
                epoch += 1;
                publisher.publish_batch(black_box(&ring[epoch % 7]));
                flood_pub.publish_batch(black_box(&decoy_ring[epoch % 8]));
                black_box(engine.drain_batch())
            });
        });
    }
    group.finish();
}

/// The epoch driver with churn: attacks terminate and are purged while
/// fresh pids keep arriving, so the map is exercised under registration +
/// eviction pressure, not just steady-state lookups.
fn bench_tick_with_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/engine_batch_tick_churn");
    for shards in [1usize, 4] {
        group.bench_function(format!("sharded_x{shards}_10k").as_str(), |b| {
            let config = EngineConfig::builder()
                .measurements_required(3)
                .actuator(ShareActuator::scheduler_weight(0.1, 0.01))
                .build()
                .unwrap();
            let mut engine = ShardedEngine::with_capacity(config, shards, 10_000);
            let mut epoch = 0u64;
            b.iter(|| {
                epoch += 1;
                // A rotating 1/64 slice of the pid space is attacked every
                // epoch; terminated pids are purged by `tick` and replaced
                // by their successors the next epoch. The pid base shifts
                // over time, so the batch is assembled inside the timed
                // loop — identically for every shard count, which keeps
                // the x1-vs-x4 comparison fair.
                let batch: Vec<(ProcessId, Classification)> = (0..10_000u64)
                    .map(|i| {
                        let pid = ProcessId(i + (epoch / 8) * 157);
                        let cls = if (i + epoch).is_multiple_of(64) {
                            Classification::Malicious
                        } else {
                            Classification::Benign
                        };
                        (pid, cls)
                    })
                    .collect();
                black_box(engine.tick(black_box(&batch)))
            });
        });
    }
    group.finish();
}

/// The adaptive evasion loop end-to-end: one `run_adaptive` replay of a
/// probing attacker (a `LawProbe` burst feeding an `IntensityModulator`)
/// against the default percent-point law over a 120-epoch horizon. This is
/// the unit of work the best-response search re-evaluates hundreds of times
/// per ranked law, so its cost bounds the `adaptive` experiment's runtime.
fn bench_adaptive(c: &mut Criterion) {
    use valkyrie_experiments::attacker::{
        run_adaptive, AdaptiveScenario, DetectorModel, IntensityModulator, LawProbe,
    };
    let mut group = c.benchmark_group("core/engine_batch_adaptive");
    group.bench_function("adaptive_x1", |b| {
        let config = EngineConfig::builder()
            .measurements_required(30)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap();
        let detector = DetectorModel::new(0.9, 0.04).unwrap();
        let scenario = AdaptiveScenario::new(detector, 120);
        let mut strategy = LawProbe::new(3, IntensityModulator::new(1.0, 0.3, 0.8, 30, 0.0));
        b.iter(|| black_box(run_adaptive(&config, black_box(&scenario), &mut strategy)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_batch_1k,
    bench_engine_batch_10k,
    bench_engine_batch_100k,
    bench_engine_batch_1m,
    bench_fleet_pids,
    bench_flood,
    bench_tick_with_churn,
    bench_adaptive,
);
criterion_main!(benches);
