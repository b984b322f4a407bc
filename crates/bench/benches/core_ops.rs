//! Benchmarks of the Valkyrie core primitives: engine observations,
//! actuator laws, `N*` planning and the single-process replays.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use valkyrie_core::prelude::*;

fn bench_engine_observe(c: &mut Criterion) {
    c.bench_function("core/engine_observe_100_procs", |b| {
        let config = EngineConfig::builder()
            .measurements_required(1_000_000)
            .actuator(ShareActuator::scheduler_weight(0.1, 0.01))
            .build()
            .unwrap();
        let mut engine = ValkyrieEngine::new(config);
        let mut epoch = 0u64;
        b.iter(|| {
            epoch += 1;
            for pid in 0..100 {
                let cls = if (pid + epoch).is_multiple_of(7) {
                    Classification::Malicious
                } else {
                    Classification::Benign
                };
                black_box(engine.observe(ProcessId(pid), cls));
            }
        });
    });
}

fn bench_actuator_laws(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/actuator_laws");
    for (name, law) in [
        (
            "percent_point",
            ThrottleLaw::PercentPointPerUnit { step: 0.1 },
        ),
        (
            "multiplicative",
            ThrottleLaw::MultiplicativePerUnit { factor: 0.9 },
        ),
        (
            "scheduler_weight",
            ThrottleLaw::SchedulerWeight { gamma: 0.1 },
        ),
        ("halving", ThrottleLaw::HalvePerEvent),
    ] {
        group.bench_function(name, |b| {
            let mut share = 1.0;
            let mut delta = 1.0;
            b.iter(|| {
                share = law.step_share(black_box(share), black_box(delta));
                if share <= 0.011 || share >= 0.999 {
                    delta = -delta;
                }
                black_box(share)
            });
        });
    }
    group.finish();
}

fn bench_efficacy_planning(c: &mut Criterion) {
    let points: Vec<EfficacyPoint> = (1..=75)
        .map(|n| EfficacyPoint {
            measurements: n,
            f1: 0.6 + 0.35 * (n as f64 / 75.0),
            fpr: 0.4 * (1.0 - n as f64 / 75.0),
        })
        .collect();
    let curve = EfficacyCurve::new(points).unwrap();
    let spec = EfficacySpec::f1_at_least(0.9).and_fpr_at_most(0.1);
    c.bench_function("core/n_star_planning", |b| {
        b.iter(|| black_box(curve.measurements_required(black_box(&spec))))
    });
}

fn bench_slowdown_simulation(c: &mut Criterion) {
    use valkyrie_core::simulate_response;
    let inferences: Vec<Classification> = (0..100)
        .map(|i| {
            if i % 3 == 0 {
                Classification::Malicious
            } else {
                Classification::Benign
            }
        })
        .collect();
    c.bench_function("core/simulate_response_100_epochs", |b| {
        b.iter(|| {
            black_box(simulate_response(
                50,
                black_box(&inferences),
                AssessmentFn::incremental(),
                AssessmentFn::incremental(),
                ShareActuator::cpu_percent_point(0.10, 0.01),
            ))
        })
    });
}

fn bench_evasion_replay(c: &mut Criterion) {
    use valkyrie_core::EngineConfig;
    use valkyrie_experiments::attacker::{
        run_adaptive, AdaptiveScenario, AttackerStrategy, DetectorModel,
    };
    let config = EngineConfig::builder()
        .measurements_required(30)
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .build()
        .unwrap();
    let scenario = AdaptiveScenario::new(DetectorModel::new(0.9, 0.04).unwrap(), 120);
    let mut strategy = AttackerStrategy::ThreatAdaptive { resume_above: 0.7 };
    c.bench_function("core/evasion_replay_120_epochs", |b| {
        b.iter(|| black_box(run_adaptive(&config, black_box(&scenario), &mut strategy)))
    });
}

fn bench_baseline_policies(c: &mut Criterion) {
    use valkyrie_experiments::baselines::{ConsecutiveTermination, PriorityReduction};
    use valkyrie_experiments::migration::{migration_progress, MigrationPolicy};
    let inferences: Vec<Classification> = (0..300)
        .map(|i| {
            if i % 25 == 0 {
                Classification::Malicious
            } else {
                Classification::Benign
            }
        })
        .collect();
    c.bench_function("core/baseline_k_consecutive_300_epochs", |b| {
        let policy = ConsecutiveTermination::new(3);
        b.iter(|| black_box(policy.run(black_box(&inferences))))
    });
    c.bench_function("core/baseline_survival_probability_dp", |b| {
        let policy = ConsecutiveTermination::new(3);
        b.iter(|| black_box(policy.benign_survival_probability(black_box(0.04), 300)))
    });
    c.bench_function("core/baseline_priority_reduction_300_epochs", |b| {
        let policy = PriorityReduction::new(0.5);
        b.iter(|| black_box(policy.run(black_box(&inferences))))
    });
    c.bench_function("core/baseline_migration_300_epochs", |b| {
        b.iter(|| {
            black_box(migration_progress(
                black_box(&inferences),
                MigrationPolicy::system_migration(),
            ))
        })
    });
}

criterion_group!(
    benches,
    bench_engine_observe,
    bench_actuator_laws,
    bench_efficacy_planning,
    bench_slowdown_simulation,
    bench_evasion_replay,
    bench_baseline_policies,
);
criterion_main!(benches);
