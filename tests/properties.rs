//! Property-based tests over the core invariants (proptest).

use proptest::prelude::*;
use valkyrie::core::prelude::*;
use valkyrie::core::simulate_response;
use valkyrie::core::slowdown::completion_slowdown_percent;

fn classification_seq(max_len: usize) -> impl Strategy<Value = Vec<Classification>> {
    prop::collection::vec(
        prop::bool::ANY.prop_map(|b| {
            if b {
                Classification::Malicious
            } else {
                Classification::Benign
            }
        }),
        1..max_len,
    )
}

/// The one process the recycling property drives.
const PID: ProcessId = ProcessId(1);

/// An engine for one process: incremental `F_p`/`F_c`, the Section V-C
/// percentage-point actuator, cyclic monitoring.
fn cyclic_engine(n_star: u64) -> ValkyrieEngine {
    let config = EngineConfig::builder()
        .measurements_required(n_star)
        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
        .cyclic(true)
        .build()
        .unwrap();
    ValkyrieEngine::new(config)
}

proptest! {
    /// Resource shares stay within [floor, 1] for any inference stream and
    /// any percentage-point step.
    #[test]
    fn resources_respect_floor_and_ceiling(
        seq in classification_seq(150),
        step in 0.01f64..0.5,
        floor in 0.0f64..0.2,
    ) {
        let config = EngineConfig::builder()
            .measurements_required(1_000)
            .actuator(ShareActuator::cpu_percent_point(step, floor))
            .build()
            .unwrap();
        let mut engine = ValkyrieEngine::new(config);
        let pid = ProcessId(1);
        for c in seq {
            let resp = engine.observe(pid, c);
            prop_assert!(resp.resources.cpu >= floor - 1e-12);
            prop_assert!(resp.resources.cpu <= 1.0 + 1e-12);
            prop_assert!(resp.resources.is_valid());
        }
    }

    /// A process whose stream ends with enough benign epochs always ends
    /// with full resources (recovery is guaranteed for false positives).
    #[test]
    fn sustained_benign_stream_recovers_fully(prefix in classification_seq(50)) {
        let config = EngineConfig::builder()
            .measurements_required(10_000)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap();
        let mut engine = ValkyrieEngine::new(config);
        let pid = ProcessId(7);
        for c in prefix {
            engine.observe(pid, c);
        }
        let mut last = None;
        for _ in 0..500 {
            last = Some(engine.observe(pid, Classification::Benign));
        }
        let last = last.unwrap();
        prop_assert!(last.resources.is_full(), "resources: {:?}", last.resources);
        prop_assert!(last.threat.is_zero());
        prop_assert_eq!(last.state, ProcessState::Normal);
    }

    /// Slowdown is within [0, 100] for any simulated response, and zero for
    /// all-benign streams.
    #[test]
    fn slowdown_is_bounded(seq in classification_seq(60), n_star in 1u64..40) {
        let trace = simulate_response(
            n_star,
            &seq,
            AssessmentFn::incremental(),
            AssessmentFn::incremental(),
            ShareActuator::cpu_percent_point(0.10, 0.01),
        );
        let s = trace.cpu_slowdown_percent();
        prop_assert!((0.0..=100.0).contains(&s), "slowdown {s}");
    }

    /// All-benign streams never get throttled at all.
    #[test]
    fn benign_stream_is_never_throttled(n in 1usize..100, n_star in 1u64..200) {
        let seq = vec![Classification::Benign; n];
        let trace = simulate_response(
            n_star,
            &seq,
            AssessmentFn::incremental(),
            AssessmentFn::incremental(),
            ShareActuator::cpu_percent_point(0.10, 0.01),
        );
        prop_assert_eq!(trace.cpu_slowdown_percent(), 0.0);
    }

    /// Completion slowdown is monotone in added epochs.
    #[test]
    fn completion_slowdown_monotone(base in 1.0f64..1000.0, extra1 in 0.0f64..100.0, extra2 in 0.0f64..100.0) {
        let (lo, hi) = if extra1 < extra2 { (extra1, extra2) } else { (extra2, extra1) };
        prop_assert!(
            completion_slowdown_percent(base, base + lo)
                <= completion_slowdown_percent(base, base + hi) + 1e-12
        );
    }

    /// Assessment functions always produce clamped, finite metrics.
    #[test]
    fn assessment_outputs_are_clamped(prev in -1e6f64..1e6, epoch in 0u64..1000, a in -50.0f64..50.0, b in -50.0f64..50.0) {
        for f in [
            AssessmentFn::incremental(),
            AssessmentFn::linear(a, b),
            AssessmentFn::exponential(2.0),
        ] {
            let v = f.next(prev, epoch);
            prop_assert!((0.0..=100.0).contains(&v), "{v}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The CFS scheduler conserves CPU time and respects weight ordering
    /// for arbitrary weight scales.
    #[test]
    fn scheduler_conserves_and_orders(scales in prop::collection::vec(0.01f64..1.0, 2..6)) {
        use valkyrie::sim::sched::{CfsScheduler, SchedConfig};
        use valkyrie::sim::Pid;
        let mut s = CfsScheduler::new(SchedConfig::default());
        for (i, &scale) in scales.iter().enumerate() {
            s.add(Pid(i as u64), 0);
            s.set_weight_scale(Pid(i as u64), scale);
        }
        let total_ticks = 20_000;
        let granted = s.run(total_ticks);
        let sum: u64 = granted.values().sum();
        prop_assert_eq!(sum, total_ticks);
        // Long-run grants are ordered like the weights (with slack for
        // slicing granularity).
        let shares: Vec<f64> = (0..scales.len())
            .map(|i| granted.get(&Pid(i as u64)).copied().unwrap_or(0) as f64 / total_ticks as f64)
            .collect();
        let weight_sum: f64 = scales.iter().sum();
        for (share, scale) in shares.iter().zip(&scales) {
            let expected = scale / weight_sum;
            prop_assert!((share - expected).abs() < 0.1, "share {share} vs expected {expected}");
        }
    }

    /// Cache occupancy never exceeds capacity for arbitrary access streams.
    #[test]
    fn cache_never_exceeds_capacity(addrs in prop::collection::vec(0u64..1_000_000, 1..500)) {
        use valkyrie::uarch::{Cache, CacheConfig};
        let cfg = CacheConfig::l1d();
        let mut c = Cache::new(cfg);
        for a in addrs {
            c.access(a);
            prop_assert!(c.resident_lines() <= cfg.sets * cfg.ways);
        }
    }

    /// Stats identity: hits + misses equals the number of accesses.
    #[test]
    fn cache_stats_identity(addrs in prop::collection::vec(0u64..100_000, 1..300)) {
        use valkyrie::uarch::{Cache, CacheConfig};
        let mut c = Cache::new(CacheConfig::l1d());
        for a in &addrs {
            c.access(*a);
        }
        let st = c.stats();
        prop_assert_eq!(st.hits + st.misses, addrs.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// TLB occupancy is bounded and its stats add up.
    #[test]
    fn tlb_capacity_and_stats(addrs in prop::collection::vec(0u64..10_000_000, 1..300)) {
        use valkyrie::uarch::{Tlb, TlbConfig};
        let cfg = TlbConfig::dtlb();
        let mut tlb = Tlb::new(cfg);
        for a in &addrs {
            tlb.translate(*a);
        }
        let (hits, misses) = tlb.stats();
        prop_assert_eq!(hits + misses, addrs.len() as u64);
    }

    /// The load-store buffer never exceeds its capacity, and an exact-match
    /// load always beats an aliasing load in latency.
    #[test]
    fn lsb_bounded_and_ordered(stores in prop::collection::vec(0u64..1_000_000, 1..200)) {
        use valkyrie::uarch::{LoadStoreBuffer, LsbConfig};
        let cfg = LsbConfig::skylake();
        let mut lsb = LoadStoreBuffer::new(cfg);
        for s in &stores {
            lsb.store(*s);
            prop_assert!(lsb.in_flight() <= cfg.store_entries);
        }
        let last = *stores.last().unwrap();
        let (_, fwd) = lsb.load(last);
        let alias = last ^ (1 << 13); // same page offset, different page
        let (_, alias_lat) = lsb.load(alias);
        prop_assert!(fwd <= alias_lat);
    }

    /// Network shaping never delivers more than demanded or more than the
    /// cap allows (plus one epoch of rolled-over burst).
    #[test]
    fn net_delivery_is_bounded(cap in 1.0e3f64..1.0e12, demand in 0.0f64..1.0e9) {
        use valkyrie::sim::net::NetController;
        let mut n = NetController::with_cap(cap);
        let delivered = n.send(100, demand);
        prop_assert!(delivered <= demand + 1e-6);
        prop_assert!(delivered <= cap * 0.1 * 2.0 + 1e-6, "cap {cap} delivered {delivered}");
    }

    /// DRAM never flips bits while every per-window activation count stays
    /// below the disturbance threshold.
    #[test]
    fn dram_below_threshold_never_flips(
        bursts in prop::collection::vec(0u64..60_000, 1..50),
    ) {
        use valkyrie::sim::dram::{Dram, DramConfig};
        use rand::SeedableRng;
        let cfg = DramConfig::ddr3_1333();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut dram = Dram::new(cfg);
        for b in bursts {
            // One burst per refresh window, always below threshold.
            dram.hammer_pair(10, 12, b.min(cfg.disturbance_threshold - 1), &mut rng);
            dram.advance_ms(64, &mut rng);
        }
        prop_assert_eq!(dram.flipped_bits(), 0);
    }

    /// The memory-thrash efficiency curve is monotone in the limit fraction
    /// and equals 1 at or above the working set.
    #[test]
    fn memory_efficiency_monotone(a in 0.0f64..1.2, b in 0.0f64..1.2) {
        use valkyrie::sim::cgroup::MemoryController;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(
            MemoryController::new(lo).efficiency() <= MemoryController::new(hi).efficiency() + 1e-15
        );
        prop_assert_eq!(MemoryController::new(1.0 + lo).efficiency(), 1.0);
    }

    /// Throttle laws keep shares in [0, 1] for arbitrary deltas, and a
    /// positive delta never increases the share.
    #[test]
    fn throttle_laws_are_sane(share in 0.0f64..1.0, delta in -50.0f64..50.0) {
        use valkyrie::core::ThrottleLaw;
        for law in [
            ThrottleLaw::PercentPointPerUnit { step: 0.1 },
            ThrottleLaw::MultiplicativePerUnit { factor: 0.9 },
            ThrottleLaw::MultiplicativePerEvent { factor: 0.5 },
            ThrottleLaw::HalvePerEvent,
            ThrottleLaw::SchedulerWeight { gamma: 0.1 },
        ] {
            let next = law.step_share(share, delta);
            prop_assert!((0.0..=1.0).contains(&next), "{law:?}: {next}");
            if delta > 0.0 {
                prop_assert!(next <= share + 1e-12, "{law:?} increased share on throttle");
            }
            if delta < 0.0 {
                prop_assert!(next >= share - 1e-12, "{law:?} decreased share on recovery");
            }
        }
    }
}

fn evasion_strategy() -> impl Strategy<Value = valkyrie::experiments::attacker::AttackerStrategy> {
    use valkyrie::experiments::attacker::AttackerStrategy;
    prop_oneof![
        Just(AttackerStrategy::AlwaysActive),
        (1u32..6, 0u32..6)
            .prop_map(|(active, dormant)| AttackerStrategy::DutyCycle { active, dormant }),
        (0u64..40).prop_map(|active_epochs| AttackerStrategy::Sprint { active_epochs }),
        (0.1f64..1.0).prop_map(|resume_above| AttackerStrategy::ThreatAdaptive { resume_above }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No evasion strategy outruns its own unimpeded baseline, and the
    /// slowdown metric stays within [0, 100] for any detector quality.
    #[test]
    fn evasion_never_beats_unimpeded(
        strategy in evasion_strategy(),
        tpr in 0.1f64..1.0,
        fpr in 0.0f64..0.3,
        n_star in 2u64..40,
        seed in 0u64..1_000,
    ) {
        use valkyrie::experiments::attacker::{run_adaptive, AdaptiveScenario, DetectorModel};
        let config = EngineConfig::builder()
            .measurements_required(n_star)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap();
        let scenario = AdaptiveScenario::new(DetectorModel::new(tpr, fpr).unwrap(), 80)
            .with_seed(seed);
        let mut strategy = strategy;
        let out = run_adaptive(&config, &scenario, &mut strategy);
        prop_assert!(out.progress <= out.unimpeded + 1e-9);
        prop_assert!((0.0..=100.0).contains(&out.slowdown_percent()));
        prop_assert!(out.active_epochs as f64 >= out.progress - 1e-9);
    }

    /// The k-consecutive baseline's benign survival probability is monotone:
    /// it falls with the FP rate and rises with the streak length k.
    #[test]
    fn consecutive_survival_is_monotone(
        p1 in 0.0f64..1.0,
        p2 in 0.0f64..1.0,
        k in 1u32..6,
        n in 1usize..200,
    ) {
        use valkyrie::experiments::baselines::ConsecutiveTermination;
        let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
        let policy = ConsecutiveTermination::new(k);
        prop_assert!(
            policy.benign_survival_probability(hi, n)
                <= policy.benign_survival_probability(lo, n) + 1e-12
        );
        let stricter = ConsecutiveTermination::new(k + 1);
        prop_assert!(
            policy.benign_survival_probability(lo, n)
                <= stricter.benign_survival_probability(lo, n) + 1e-12
        );
    }

    /// Priority reduction bounds progress between the reduced-share floor
    /// and full speed, and never terminates.
    #[test]
    fn priority_reduction_progress_is_bounded(
        seq in classification_seq(150),
        share in 0.0f64..1.0,
    ) {
        use valkyrie::experiments::baselines::PriorityReduction;
        let out = PriorityReduction::new(share).run(&seq);
        prop_assert!(out.survived());
        let n = seq.len() as f64;
        prop_assert!(out.total_progress() <= n + 1e-9);
        prop_assert!(out.total_progress() >= share * n - 1e-9);
    }

    /// DRAM refresh permits at most one flip per `threshold` undetected
    /// epochs, and zero flips if detections come faster than the threshold.
    #[test]
    fn dram_refresh_flip_bound(seq in classification_seq(300), threshold in 1u32..40) {
        use valkyrie::experiments::baselines::DramRefresh;
        let out = DramRefresh::new(threshold).run(&seq);
        prop_assert!(out.flips <= (seq.len() as u32 / threshold) as u64);
        let max_gap = seq
            .split(|c| c.is_malicious())
            .map(|gap| gap.len())
            .max()
            .unwrap_or(0);
        if (max_gap as u32) < threshold {
            prop_assert_eq!(out.flips, 0);
        }
    }

    /// Ensemble rules are ordered by strictness: All ⟹ Majority ⟹ Any.
    #[test]
    fn combination_rules_are_ordered(malicious in 0usize..10, extra in 0usize..10) {
        use valkyrie::detect::CombinationRule;
        let total = malicious + extra;
        prop_assume!(total > 0);
        let flags = |r: CombinationRule| r.decide(malicious, total).is_malicious();
        if flags(CombinationRule::All) {
            prop_assert!(flags(CombinationRule::Majority));
        }
        if flags(CombinationRule::Majority) {
            prop_assert!(flags(CombinationRule::Any));
        }
    }

    /// Under cyclic monitoring a benign terminable verdict restarts the
    /// process with fresh metrics: `RestoreAndRecycle` leaves it normal,
    /// with threat zero and full resources, and from then on it answers
    /// exactly like a never-observed process fed the same stream. That
    /// equality shows the measurement count, penalty and compensation were
    /// all reset (the incremental `F_p`/`F_c` ignore the epoch index, the
    /// one count a recycle carries over).
    #[test]
    fn cyclic_monitor_recycles_cleanly(
        prefix in classification_seq(40),
        suffix in classification_seq(60),
        n_star in 2u64..20,
    ) {
        let mut engine = cyclic_engine(n_star);
        let state = |e: &ValkyrieEngine| e.state(PID).unwrap_or_default();
        for c in prefix {
            if state(&engine) == ProcessState::Terminated {
                return Ok(());
            }
            engine.observe(PID, c);
        }
        // Drive to the terminable verdict with benign epochs, then check
        // that the verdict resets the cycle.
        for _ in 0..(2 * n_star) {
            if state(&engine) == ProcessState::Terminated {
                return Ok(());
            }
            if state(&engine) == ProcessState::Terminable {
                let r = engine.observe(PID, Classification::Benign);
                prop_assert_eq!(r.action, Action::RestoreAndRecycle);
                prop_assert_eq!(r.state, ProcessState::Normal);
                prop_assert!(r.threat.is_zero());
                prop_assert!(r.resources.is_full());
                let mut fresh = cyclic_engine(n_star);
                for c in suffix {
                    prop_assert_eq!(engine.observe(PID, c), fresh.observe(PID, c));
                }
                return Ok(());
            }
            engine.observe(PID, Classification::Benign);
        }
        prop_assert!(false, "terminable state never reached");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fusing uniformly weighted binary verdicts under the binary ladder
    /// reproduces the legacy classification path **bit-for-bit**: the
    /// `CombinationRule::Majority` decision stream of an `EnsembleDetector`
    /// of size {1, 3, 5}, lifted into unit-weight verdicts, leaves every
    /// engine response — threat values included — identical to feeding the
    /// decisions themselves, across shard counts {1, 2, 7}.
    #[test]
    fn unit_weight_majority_fusion_matches_legacy_ensemble(
        scripts in prop::collection::vec(classification_seq(12), 5),
        size_idx in 0usize..3,
        shard_idx in 0usize..3,
        n_star in 1u64..8,
    ) {
        use valkyrie::core::{EscalationLadder, FusionConfig, ShardedEngine, Verdict};
        use valkyrie::detect::{CombinationRule, Detector, EnsembleDetector, ScriptedDetector};
        use valkyrie::hpc::SampleWindow;

        let size = [1usize, 3, 5][size_idx];
        let shards = [1usize, 2, 7][shard_idx];
        let epochs = 12usize;

        let members: Vec<Box<dyn Detector>> = scripts[..size]
            .iter()
            .map(|s| Box::new(ScriptedDetector::cycle(s.clone())) as Box<dyn Detector>)
            .collect();
        let mut ensemble = EnsembleDetector::new("legacy", members, CombinationRule::Majority);
        let window = SampleWindow::new(4);
        let decisions: Vec<Classification> = (0..epochs)
            .map(|_| ensemble.infer(ProcessId(1), &window))
            .collect();

        // The decision stream, lifted into unit-weight verdicts under the
        // binary ladder, yields bit-identical responses to the legacy
        // binary path — across processes spread over shards.
        let build = |fusion: Option<FusionConfig>| {
            let mut b = EngineConfig::builder()
                .measurements_required(n_star)
                .actuator(ShareActuator::cpu_percent_point(0.10, 0.01));
            if let Some(f) = fusion {
                b = b.fusion(f);
            }
            ShardedEngine::new(b.build().unwrap(), shards)
        };
        let mut binary_engine = build(None);
        let mut verdict_engine = build(Some(FusionConfig {
            weights: Vec::new(),
            default_weight: 1.0,
            stale_decay: 1.0,
            ladder: EscalationLadder::BINARY,
        }));
        for e in 0..epochs {
            let mut bin_batch = Vec::new();
            let mut ver_batch = Vec::new();
            for p in 0..5u64 {
                let d = decisions[(e + p as usize) % epochs];
                bin_batch.push((ProcessId(p), d));
                ver_batch.push((ProcessId(p), Verdict::from_classification(0, d)));
            }
            let mut a = binary_engine.observe_batch(&bin_batch);
            let mut b = verdict_engine.observe_verdict_batch(&ver_batch);
            a.sort_by_key(|r| r.pid.0);
            b.sort_by_key(|r| r.pid.0);
            prop_assert_eq!(a, b, "epoch {} diverged", e);
        }
    }

    /// The SoA filesystem's incremental `total_bytes`/`encrypted_bytes`/
    /// `encrypted_files` counters equal full scans over `size_of`/
    /// `is_encrypted` under arbitrary `push`/`generate`/`uniform`/
    /// `encrypt_file` sequences, and `encrypt_file` succeeds exactly once
    /// per in-bounds file.
    #[test]
    fn simfs_incremental_counters_match_full_scans(
        init in 0usize..3,
        n in 0usize..200,
        seed in 0u64..1_000,
        ops in prop::collection::vec((0usize..2, 0usize..260, 1u64..10_000), 1..80),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use valkyrie::sim::fs::SimFs;

        let mut fs = match init {
            0 => SimFs::new(),
            1 => SimFs::generate(&mut StdRng::seed_from_u64(seed), n, 4096),
            _ => SimFs::uniform("/data/f", n, 2257),
        };
        for (op, idx, size) in ops {
            match op {
                0 => fs.push(format!("/pushed/{idx}"), size),
                _ => {
                    let was_encrypted = fs.is_encrypted(idx);
                    let res = fs.encrypt_file(idx);
                    prop_assert_eq!(res.is_some(), idx < fs.len() && !was_encrypted);
                    if let Some(s) = res {
                        prop_assert_eq!(Some(s), fs.size_of(idx));
                        prop_assert!(fs.is_encrypted(idx));
                    }
                }
            }
            let scan_total: u64 = (0..fs.len()).map(|i| fs.size_of(i).unwrap()).sum();
            let scan_encrypted_bytes: u64 = (0..fs.len())
                .filter(|&i| fs.is_encrypted(i))
                .map(|i| fs.size_of(i).unwrap())
                .sum();
            let scan_encrypted_files = (0..fs.len()).filter(|&i| fs.is_encrypted(i)).count();
            prop_assert_eq!(fs.total_bytes(), scan_total);
            prop_assert_eq!(fs.encrypted_bytes(), scan_encrypted_bytes);
            prop_assert_eq!(fs.encrypted_files(), scan_encrypted_files);
        }
    }

    /// Filesystem snapshots are value-independent: encrypting files in the
    /// original never leaks into a snapshot taken earlier, even though the
    /// SoA layout shares the size table between them.
    #[test]
    fn simfs_snapshots_are_independent(
        n in 1usize..300,
        to_encrypt in prop::collection::vec(0usize..300, 1..40),
    ) {
        use valkyrie::sim::fs::SimFs;

        let mut fs = SimFs::uniform("/data/f", n, 4096);
        let snapshot = fs.clone();
        for idx in to_encrypt {
            fs.encrypt_file(idx % n);
        }
        prop_assert_eq!(snapshot.encrypted_files(), 0);
        prop_assert_eq!(snapshot.encrypted_bytes(), 0);
        prop_assert_eq!(snapshot.total_bytes(), fs.total_bytes());
        prop_assert!(fs.encrypted_files() >= 1);
    }

    /// `fs_snapshot`/`restore_fs` round-trips exactly, even while two
    /// machines share one prebuilt corpus and mutate their views
    /// concurrently (the cluster boot path): a snapshot of machine A taken
    /// mid-interleaving is a faithful restore point for A, machine B's
    /// concurrent encryption never bleeds into it, and the template
    /// corpus itself stays pristine throughout.
    #[test]
    fn fs_snapshot_round_trips_under_concurrent_mutation(
        n in 1usize..200,
        ops in prop::collection::vec((prop::bool::ANY, 0usize..200), 2..60),
        cut in 0usize..60,
    ) {
        use valkyrie::sim::fs::SimFs;
        use valkyrie::sim::prelude::{Machine, MachineConfig};

        let template = SimFs::uniform("/shared/f", n, 2257);
        let mut a = Machine::new(MachineConfig { seed: 1, ..MachineConfig::default() });
        let mut b = Machine::new(MachineConfig { seed: 2, ..MachineConfig::default() });
        a.restore_fs(&template);
        b.restore_fs(&template);

        let cut = cut.min(ops.len());
        for &(on_a, idx) in &ops[..cut] {
            let m = if on_a { &mut a } else { &mut b };
            m.filesystem_mut().encrypt_file(idx % n);
        }
        let checkpoint = a.fs_snapshot();
        let want_files = a.filesystem().encrypted_files();
        let want_bytes = a.filesystem().encrypted_bytes();

        // Both machines keep mutating after the checkpoint.
        for &(on_a, idx) in &ops[cut..] {
            let m = if on_a { &mut a } else { &mut b };
            m.filesystem_mut().encrypt_file(idx % n);
        }

        // The checkpoint is immune to post-snapshot mutation on either
        // machine, and restoring it rolls A back exactly.
        prop_assert_eq!(checkpoint.encrypted_files(), want_files);
        prop_assert_eq!(checkpoint.encrypted_bytes(), want_bytes);
        a.restore_fs(&checkpoint);
        prop_assert_eq!(a.filesystem().encrypted_files(), want_files);
        prop_assert_eq!(a.filesystem().encrypted_bytes(), want_bytes);
        for i in 0..n {
            prop_assert_eq!(a.filesystem().is_encrypted(i), checkpoint.is_encrypted(i));
            prop_assert_eq!(a.filesystem().size_of(i), template.size_of(i));
        }
        // The shared template never saw anyone's writes.
        prop_assert_eq!(template.encrypted_files(), 0);
        prop_assert_eq!(template.encrypted_bytes(), 0);
        prop_assert_eq!(a.filesystem().total_bytes(), template.total_bytes());
        prop_assert_eq!(b.filesystem().total_bytes(), template.total_bytes());
    }
}

proptest! {
    // Most drawn configs are rejected; this many cases let about two dozen
    // build.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Any fusion config the builder accepts lets a unanimous attacker be
    /// killed. Two members at confidence 1.0 every batch fuse to mass
    /// exactly 1.0 (the weighted sum and the total weight are the same
    /// sum), so with `kill_above < 1` the pid is terminated at batch N*+1
    /// and not before. A config that would make the mass NaN (a NaN,
    /// infinite or overflowing weight) or the kill rung unreachable must be
    /// rejected by the builder instead.
    #[test]
    fn any_accepted_fusion_config_kills_a_unanimous_attacker_at_n_star_plus_one(
        w0 in 0usize..8,
        w1 in 0usize..8,
        w_default in 0usize..8,
        decay_idx in 0usize..6,
        ladder_idx in 0usize..5,
        n_star in 1u64..8,
        cyclic in prop::bool::ANY,
    ) {
        const WEIGHTS: [f64; 8] =
            [f64::NAN, -1.0, 0.0, 1e-300, 0.5, 4.0, f64::MAX, f64::INFINITY];
        const DECAYS: [f64; 6] = [f64::NAN, -0.5, 0.0, 0.5, 1.0, 2.0];
        let g = EscalationLadder::graduated();
        let ladder = [
            EscalationLadder::BINARY,
            g,
            EscalationLadder { kill_above: f64::NAN, ..g },
            EscalationLadder {
                kill_above: g.compensate_below,
                compensate_below: g.kill_above,
                ..g
            },
            EscalationLadder { kill_above: 1.0, ..g },
        ][ladder_idx];
        let built = EngineConfig::builder()
            .measurements_required(n_star)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .cyclic(cyclic)
            .fusion(FusionConfig {
                weights: vec![WEIGHTS[w0], WEIGHTS[w1]],
                default_weight: WEIGHTS[w_default],
                stale_decay: DECAYS[decay_idx],
                ladder,
            })
            .build();
        let Ok(config) = built else {
            return Ok(());
        };
        if ladder.kill_above >= 1.0 {
            return Ok(());
        }
        let mut engine = ValkyrieEngine::new(config);
        let pid = ProcessId(1);
        let batch = [(pid, Verdict::new(0, 1.0)), (pid, Verdict::new(1, 1.0))];
        for b in 1..=n_star + 1 {
            let r = engine.observe_verdict_batch(&batch);
            prop_assert_eq!(r.len(), 1);
            prop_assert_eq!(r[0].action == Action::Terminate, b == n_star + 1, "batch {}", b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Degenerate adaptive strategies replay the fixed roster **bit-for-bit**:
    /// constant intensity 1.0 is `AlwaysActive`, a 1.0/0.0 periodic schedule
    /// is `DutyCycle`, and a 1.0→0.0 step-down is `Sprint` — across seeds,
    /// detector qualities and measurement requirements. The fixed strategies
    /// replay through the `AttackerStrategy` adapter (effort 1 when active,
    /// 0 when dormant), so this pins the graded path as a strict
    /// generalisation of the fixed one: same RNG draws, same share
    /// arithmetic.
    #[test]
    fn degenerate_adaptive_strategies_replay_fixed_ones_bitwise(
        which in 0usize..3,
        active in 1u32..6,
        dormant in 0u32..6,
        sprint in 0u64..40,
        tpr in 0.1f64..1.0,
        fpr in 0.0f64..0.5,
        n_star in 2u64..40,
        seed in 0u64..1_000,
    ) {
        use valkyrie::experiments::attacker::{
            run_adaptive, AdaptiveScenario, AdaptiveStrategy, AttackerStrategy, ConstantIntensity,
            DetectorModel, PeriodicIntensity, StepDown,
        };
        let config = EngineConfig::builder()
            .measurements_required(n_star)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap();
        let detector = DetectorModel::new(tpr, fpr).unwrap();
        let (mut fixed, mut graded): (AttackerStrategy, Box<dyn AdaptiveStrategy>) = match which {
            0 => (
                AttackerStrategy::AlwaysActive,
                Box::new(ConstantIntensity(1.0)),
            ),
            1 => (
                AttackerStrategy::DutyCycle { active, dormant },
                Box::new(PeriodicIntensity {
                    active,
                    dormant,
                    high: 1.0,
                    low: 0.0,
                }),
            ),
            _ => (
                AttackerStrategy::Sprint { active_epochs: sprint },
                Box::new(StepDown {
                    active_epochs: sprint,
                    high: 1.0,
                    low: 0.0,
                }),
            ),
        };
        let scenario = AdaptiveScenario::new(detector, 80).with_seed(seed);
        let want = run_adaptive(&config, &scenario, &mut fixed);
        let got = run_adaptive(&config, &scenario, graded.as_mut());
        prop_assert_eq!(want.progress.to_bits(), got.progress.to_bits());
        prop_assert_eq!(want.unimpeded.to_bits(), got.unimpeded.to_bits());
        prop_assert_eq!(want.terminated_at, got.terminated_at);
        prop_assert_eq!(want.active_epochs, got.active_epochs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For the three fixed-vector model families (SVM, GBDT, MLP), the
    /// batched scoring path is bit-identical to mapping the scalar path
    /// over the batch — the invariant that lets detectors and experiment
    /// drivers switch freely between `score` and `score_batch`.
    #[test]
    fn batched_scores_match_scalar_scores_bitwise(
        seed in 0u64..1_000,
        n in 1usize..24,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use valkyrie::ml::{
            BinaryClassifier, Gbdt, GbdtConfig, LinearSvm, Mlp, MlpConfig, SvmConfig,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 6;
        let train_xs: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let c = if i % 2 == 0 { 1.0 } else { -1.0 };
                (0..dim).map(|_| c + rng.gen::<f64>()).collect()
            })
            .collect();
        let train_ys: Vec<f64> = (0..40).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
        let batch: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect())
            .collect();

        let svm = LinearSvm::train(
            &SvmConfig { epochs: 8, ..SvmConfig::default() },
            &train_xs,
            &train_ys,
        );
        let gbdt = Gbdt::train(
            &GbdtConfig { rounds: 6, max_depth: 3, ..GbdtConfig::default() },
            &train_xs,
            &train_ys,
        );
        let mlp = Mlp::train(
            &MlpConfig::new(vec![dim, 4, 1]).with_epochs(15),
            &train_xs,
            &train_ys,
        );
        let models: [(&str, &dyn BinaryClassifier); 3] =
            [("svm", &svm), ("gbdt", &gbdt), ("mlp", &mlp)];
        for (name, model) in models {
            let batched = model.score_batch(&batch);
            prop_assert_eq!(batched.len(), batch.len());
            for (x, &b) in batch.iter().zip(&batched) {
                prop_assert_eq!(
                    model.score(x).to_bits(),
                    b.to_bits(),
                    "{} batched score diverged",
                    name
                );
            }
        }
    }

    /// The LSTM's batched sequence scoring (length-grouped matrix forward)
    /// is bit-identical to the per-sequence scalar path, across mixed
    /// sequence lengths.
    #[test]
    fn lstm_batched_scores_match_scalar_bitwise(
        seed in 0u64..1_000,
        lens in prop::collection::vec(1usize..12, 1..8),
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use valkyrie::ml::{Lstm, LstmConfig};
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = 4;
        let mut mk_seq = |len: usize, c: f64| -> Vec<Vec<f64>> {
            (0..len)
                .map(|_| (0..inputs).map(|_| c + rng.gen::<f64>()).collect())
                .collect()
        };
        let train_seqs: Vec<Vec<Vec<f64>>> = (0..12)
            .map(|i| mk_seq(6, if i % 2 == 0 { 0.8 } else { -0.8 }))
            .collect();
        let train_ys: Vec<f64> = (0..12).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
        let lstm = Lstm::train(
            &LstmConfig { epochs: 4, ..LstmConfig::new(inputs, 3) },
            &train_seqs,
            &train_ys,
        );
        let batch: Vec<Vec<Vec<f64>>> = lens
            .iter()
            .map(|&len| mk_seq(len, 0.0))
            .collect();
        let batched = lstm.predict_batch(&batch);
        prop_assert_eq!(batched.len(), batch.len());
        for (seq, &b) in batch.iter().zip(&batched) {
            prop_assert_eq!(
                lstm.predict_proba(seq).to_bits(),
                b.to_bits(),
                "lstm batched score diverged"
            );
        }
    }
}
