//! The augmented-run driver: a simulated machine whose processes are
//! watched by a detector and governed by a Valkyrie engine (paper Fig. 2).
//!
//! Each epoch runs in three phases: the machine advances, the detector
//! infers every watched process, and the engine answers the whole epoch's
//! inferences in **one batch** through
//! [`ShardedEngine::observe_batch`] — the scenario layer is a direct
//! embedder of the scaling tier, and [`ScenarioConfig::shards`] picks the
//! partition count (responses are identical for every shard count).

use std::collections::{BTreeMap, HashMap};
use valkyrie_core::hash::FxBuildHasher;
use valkyrie_core::ProcessId;
use valkyrie_core::{
    Action, Classification, EngineConfig, EngineResponse, IngestPublisher, OverflowPolicy,
    ProcessState, ShardedEngine, Verdict,
};
use valkyrie_detect::Detector;
use valkyrie_hpc::SampleWindow;
use valkyrie_sim::machine::{EpochReport, Machine};
use valkyrie_sim::Pid;

/// Which machine lever the engine's CPU share drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuLever {
    /// Scale the CFS weight (the paper's Eq. 8 scheduler actuator, used by
    /// the micro-architectural and rowhammer case studies).
    SchedulerWeight,
    /// Set a cgroup `cpu.max`-style quota (used by the ransomware and
    /// cryptominer case studies).
    CgroupQuota,
}

/// Async-ingest wiring for a scenario: the epoch's inferences travel
/// through the engine's bounded per-shard rings
/// ([`valkyrie_core::ingest`]) instead of a synchronous `observe_batch`
/// call.
///
/// The scenario driver publishes and drains from the same thread, so
/// `capacity` must cover one epoch's observations per shard —
/// [`OverflowPolicy::Block`] on an undersized ring would wait for a drain
/// that cannot come until the publish loop finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOptions {
    /// Ring capacity, in observations per shard.
    pub capacity: usize,
    /// What a full ring does with the next observation.
    pub policy: OverflowPolicy,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            capacity: 4096,
            policy: OverflowPolicy::Block,
        }
    }
}

/// Scenario wiring options.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// How CPU shares map onto the machine.
    pub cpu_lever: CpuLever,
    /// Measurement-window capacity per process.
    pub window: usize,
    /// Engine shard count. Responses are identical for every value; more
    /// shards parallelise large per-epoch batches (multi-tenant machines).
    pub shards: usize,
    /// When set, inferences reach the engine through the async ingest
    /// rings (publish, then drain) instead of `observe_batch`. With
    /// [`OverflowPolicy::Block`] and adequate capacity the histories are
    /// bit-for-bit identical to the synchronous path.
    pub ingest: Option<IngestOptions>,
    /// When `true`, each epoch's inference is the detector's *confidence*
    /// ([`valkyrie_detect::Detector::infer_confidence`]) carried as a
    /// [`Verdict`] (detector id 0) into the engine's weighted-evidence
    /// fusion path — weights, staleness decay and the escalation ladder
    /// come from the [`EngineConfig`]'s fusion settings. With the binary
    /// ladder and a detector reporting extreme confidences, histories are
    /// bit-for-bit identical to the classification path.
    pub confidence: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            cpu_lever: CpuLever::SchedulerWeight,
            window: 100,
            shards: 1,
            ingest: None,
            confidence: false,
        }
    }
}

/// Per-epoch record for one monitored process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Workload progress this epoch (`B_i(R_i)`).
    pub progress: f64,
    /// Fig. 3 state after this epoch's inference.
    pub state: ProcessState,
    /// CPU share Valkyrie enforced after this epoch.
    pub cpu_share: f64,
    /// Threat index after this epoch.
    pub threat: f64,
}

/// A machine + detector + Valkyrie engine loop.
///
/// Call [`AugmentedRun::watch`] on the processes Valkyrie should govern,
/// then [`AugmentedRun::step`] once per epoch.
pub struct AugmentedRun<D: Detector> {
    machine: Machine,
    engine: ShardedEngine,
    /// The publisher into the engine's ingest rings, when
    /// [`ScenarioConfig::ingest`] is set: binary classifications, or
    /// verdicts in confidence mode.
    publisher: Option<IngestPublisher>,
    verdict_publisher: Option<IngestPublisher<Verdict>>,
    detector: D,
    config: ScenarioConfig,
    windows: HashMap<Pid, SampleWindow, FxBuildHasher>,
    history: HashMap<Pid, Vec<EpochRecord>, FxBuildHasher>,
    /// Per-epoch scratch, reused across steps.
    batch: Vec<(ProcessId, Classification)>,
    verdict_batch: Vec<(ProcessId, Verdict)>,
    progress: Vec<(Pid, f64, bool)>,
    reports: Vec<(Pid, EpochReport)>,
    responses: Vec<EngineResponse>,
    /// Last `(cpu, mem, fs)` lever triple enacted per process. The machine's
    /// controllers are stateless functions of their setting, so re-applying
    /// an unchanged triple is a no-op; skipping it saves the lever lookups
    /// in the (common) steady state where the response doesn't move.
    applied: HashMap<Pid, (f64, f64, f64), FxBuildHasher>,
}

impl<D: Detector> AugmentedRun<D> {
    /// Wires a machine, an engine configuration and a detector together.
    pub fn new(
        machine: Machine,
        engine_config: EngineConfig,
        detector: D,
        config: ScenarioConfig,
    ) -> Self {
        let mut engine = ShardedEngine::new(engine_config, config.shards.max(1));
        let (mut publisher, mut verdict_publisher) = (None, None);
        if let Some(opts) = config.ingest {
            if config.confidence {
                verdict_publisher = Some(engine.enable_verdict_ingest(opts.capacity, opts.policy));
            } else {
                publisher = Some(engine.enable_ingest(opts.capacity, opts.policy));
            }
        }
        Self {
            machine,
            engine,
            publisher,
            verdict_publisher,
            detector,
            config,
            windows: HashMap::default(),
            history: HashMap::default(),
            batch: Vec::new(),
            verdict_batch: Vec::new(),
            progress: Vec::new(),
            reports: Vec::new(),
            responses: Vec::new(),
            applied: HashMap::default(),
        }
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the underlying machine (spawning, filesystems...).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Registers `pid` for detection + response.
    pub fn watch(&mut self, pid: Pid) {
        self.windows
            .entry(pid)
            .or_insert_with(|| SampleWindow::new(self.config.window));
        self.history.entry(pid).or_default();
    }

    /// Per-epoch records of a watched process.
    pub fn history(&self, pid: Pid) -> &[EpochRecord] {
        self.history.get(&pid).map_or(&[], Vec::as_slice)
    }

    /// Current Fig. 3 state of a watched process (None before its first
    /// epoch).
    pub fn state(&self, pid: Pid) -> Option<ProcessState> {
        self.engine.state(pid.into())
    }

    /// Runs one epoch: machine, then detection, then one batched response.
    /// Thin allocating wrapper over [`AugmentedRun::step_ref`], kept for
    /// API compatibility.
    pub fn step(&mut self) -> BTreeMap<Pid, EpochReport> {
        self.step_ref().iter().copied().collect()
    }

    /// Runs one epoch: machine, then detection, then one batched response.
    /// Returns the epoch's reports in ascending-pid order (look up one
    /// process with [`valkyrie_sim::machine::report_for`]).
    /// Allocation-free in steady state: the
    /// machine fills a reusable buffer and the detection/response batches
    /// reuse their scratch.
    pub fn step_ref(&mut self) -> &[(Pid, EpochReport)] {
        let mut reports = std::mem::take(&mut self.reports);
        self.machine.run_epoch_into(&mut reports);

        // Detection phase: one inference per watched live process, in
        // deterministic (ascending pid) order — a binary classification,
        // or (confidence mode) a weighted-evidence verdict.
        self.batch.clear();
        self.verdict_batch.clear();
        self.progress.clear();
        for &(pid, ref report) in &reports {
            let Some(window) = self.windows.get_mut(&pid) else {
                continue; // unwatched process
            };
            // No liveness re-check: the machine only reports processes that
            // were alive at epoch start, and terminations happen in the
            // enactment phase below — every reported pid is still alive or
            // has just completed.
            window.push(report.hpc);
            if self.config.confidence {
                let confidence = self.detector.infer_confidence(pid.into(), window);
                self.verdict_batch
                    .push((pid.into(), Verdict::new(0, confidence)));
            } else {
                let inference = self.detector.infer(pid.into(), window);
                self.batch.push((pid.into(), inference));
            }
            self.progress.push((pid, report.progress, report.completed));
        }

        // Response phase: the whole epoch in one engine batch — handed
        // over synchronously, or published through the async ingest rings
        // and drained back (same responses in publish order; see
        // `ScenarioConfig::ingest`).
        let mut responses = std::mem::take(&mut self.responses);
        if self.config.confidence {
            if let Some(publisher) = &self.verdict_publisher {
                publisher.publish_batch(&self.verdict_batch);
                responses = self.engine.drain_batch();
            } else {
                responses = self.engine.observe_verdict_batch(&self.verdict_batch);
            }
            // Fused responses come back grouped shard-by-shard; the
            // enactment cursor expects batch (ascending-pid) order.
            responses.sort_unstable_by_key(|r| r.pid.0);
        } else if let Some(publisher) = &self.publisher {
            publisher.publish_batch(&self.batch);
            responses = self.engine.drain_batch();
        } else {
            self.engine.observe_batch_into(&self.batch, &mut responses);
        }

        // Enactment phase: drive the machine levers per response. The
        // responses are an ordered subsequence of the batch (they only
        // fall short when an overflow policy sheds observations), so one
        // forward cursor pairs each response with its progress record.
        let mut cursor = 0usize;
        for resp in &responses {
            let Some(offset) = self.progress[cursor..]
                .iter()
                .position(|&(p, ..)| ProcessId::from(p) == resp.pid)
            else {
                continue;
            };
            let (pid, progress, completed) = self.progress[cursor + offset];
            cursor += offset + 1;
            // A cycle-end restore starts a fresh detection episode: the
            // detector's measurement history resets along with the
            // monitor's counters.
            if resp.action == Action::RestoreAndRecycle {
                if let Some(window) = self.windows.get_mut(&pid) {
                    *window = SampleWindow::new(self.config.window);
                }
            }
            match resp.action {
                Action::Terminate => {
                    self.machine.terminate(pid);
                    self.applied.remove(&pid);
                }
                Action::Throttle
                | Action::Recover
                | Action::Restore
                | Action::RestoreAndRecycle => {
                    let levers = (resp.resources.cpu, resp.resources.mem, resp.resources.fs);
                    if self.applied.get(&pid) != Some(&levers) {
                        match self.config.cpu_lever {
                            CpuLever::SchedulerWeight => {
                                self.machine.set_weight_scale(pid, resp.resources.cpu);
                            }
                            CpuLever::CgroupQuota => {
                                self.machine.set_cpu_quota(pid, resp.resources.cpu);
                            }
                        }
                        self.machine.set_memory_limit(pid, resp.resources.mem);
                        self.machine.set_fs_share(pid, resp.resources.fs);
                        self.applied.insert(pid, levers);
                    }
                }
                Action::None => {}
            }
            // `report.completed` is exactly `machine.is_completed(pid)` here:
            // earlier completions stop reporting, so only the completing
            // epoch reaches this branch.
            if completed {
                let _ = self.engine.complete(pid.into());
            }
            self.history.entry(pid).or_default().push(EpochRecord {
                progress,
                state: resp.state,
                cpu_share: resp.resources.cpu,
                threat: resp.threat.value(),
            });
        }
        self.responses = responses;
        self.reports = reports;
        &self.reports
    }

    /// Runs `n` epochs (through the allocation-free path).
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step_ref();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use valkyrie_attacks::cryptominer::Cryptominer;
    use valkyrie_core::{AssessmentFn, Classification, ShareActuator};
    use valkyrie_detect::ScriptedDetector;
    use valkyrie_sim::machine::MachineConfig;
    use valkyrie_workloads::{roster, BenchmarkWorkload};

    fn engine_config(n_star: u64) -> EngineConfig {
        EngineConfig::builder()
            .measurements_required(n_star)
            .penalty(AssessmentFn::incremental())
            .compensation(AssessmentFn::incremental())
            .actuator(ShareActuator::scheduler_weight(0.1, 0.01))
            .build()
            .unwrap()
    }

    #[test]
    fn attack_flagged_every_epoch_is_throttled_then_terminated() {
        let machine = Machine::new(MachineConfig::default());
        let detector = ScriptedDetector::constant(Classification::Malicious);
        let mut run = AugmentedRun::new(
            machine,
            engine_config(10),
            detector,
            ScenarioConfig::default(),
        );
        let pid = run.machine_mut().spawn(Box::new(Cryptominer::default()));
        run.watch(pid);
        run.run(15);
        assert_eq!(run.state(pid), Some(ProcessState::Terminated));
        assert!(!run.machine().is_alive(pid));
        let hist = run.history(pid);
        // Progress decays while throttled, then stops at termination.
        assert!(hist[0].progress > 0.0);
        let last = hist.last().unwrap();
        assert_eq!(last.state, ProcessState::Terminated);
    }

    #[test]
    fn benign_process_with_clean_detector_is_untouched() {
        let machine = Machine::new(MachineConfig::default());
        let detector = ScriptedDetector::constant(Classification::Benign);
        let mut run = AugmentedRun::new(
            machine,
            engine_config(5),
            detector,
            ScenarioConfig::default(),
        );
        let mut spec = roster().remove(0);
        spec.epochs_to_complete = 8;
        let pid = run
            .machine_mut()
            .spawn(Box::new(BenchmarkWorkload::new(spec)));
        run.watch(pid);
        run.run(8);
        assert!(run.machine().is_completed(pid));
        let hist = run.history(pid);
        assert!(hist.iter().all(|r| r.cpu_share == 1.0));
    }

    #[test]
    fn false_positive_burst_recovers_fully() {
        use Classification::{Benign, Malicious};
        let machine = Machine::new(MachineConfig::default());
        let detector =
            ScriptedDetector::then_hold(vec![Malicious, Malicious, Benign, Benign, Benign]);
        let mut run = AugmentedRun::new(
            machine,
            engine_config(50),
            detector,
            ScenarioConfig::default(),
        );
        let mut spec = roster().remove(0);
        spec.epochs_to_complete = 1000;
        let pid = run
            .machine_mut()
            .spawn(Box::new(BenchmarkWorkload::new(spec)));
        run.watch(pid);
        run.run(10);
        let hist = run.history(pid);
        assert!(hist[1].cpu_share < 1.0, "throttled after FPs");
        assert_eq!(*hist.last().map(|r| &r.cpu_share).unwrap(), 1.0);
        assert_eq!(run.state(pid), Some(ProcessState::Normal));
    }

    #[test]
    fn cgroup_lever_also_throttles() {
        let machine = Machine::new(MachineConfig::default());
        let detector = ScriptedDetector::constant(Classification::Malicious);
        let mut run = AugmentedRun::new(
            machine,
            engine_config(100),
            detector,
            ScenarioConfig {
                cpu_lever: CpuLever::CgroupQuota,
                window: 16,
                ..ScenarioConfig::default()
            },
        );
        let pid = run.machine_mut().spawn(Box::new(Cryptominer::default()));
        run.watch(pid);
        run.run(10);
        let hist = run.history(pid);
        assert!(hist.last().unwrap().progress < hist[0].progress / 2.0);
    }

    #[test]
    fn shard_count_does_not_change_scenario_histories() {
        let run_with = |shards: usize| {
            let machine = Machine::new(MachineConfig::default());
            let detector = ScriptedDetector::constant(Classification::Malicious);
            let mut run = AugmentedRun::new(
                machine,
                engine_config(6),
                detector,
                ScenarioConfig {
                    shards,
                    ..ScenarioConfig::default()
                },
            );
            let attack = run.machine_mut().spawn(Box::new(Cryptominer::default()));
            run.watch(attack);
            let mut benign_pids = Vec::new();
            for mut spec in roster().into_iter().take(12) {
                spec.epochs_to_complete = 40;
                let pid = run
                    .machine_mut()
                    .spawn(Box::new(BenchmarkWorkload::new(spec)));
                run.watch(pid);
                benign_pids.push(pid);
            }
            run.run(12);
            let mut histories = vec![run.history(attack).to_vec()];
            for pid in benign_pids {
                histories.push(run.history(pid).to_vec());
            }
            histories
        };
        assert_eq!(run_with(1), run_with(4));
    }

    /// The async ingest path (publish every inference, then drain) leaves
    /// identical histories to the synchronous `observe_batch` path.
    #[test]
    fn ingest_path_matches_the_synchronous_scenario() {
        let run_with = |ingest: Option<IngestOptions>| {
            let machine = Machine::new(MachineConfig::default());
            let detector = ScriptedDetector::cycle(vec![
                Classification::Malicious,
                Classification::Malicious,
                Classification::Benign,
            ]);
            let mut run = AugmentedRun::new(
                machine,
                engine_config(8),
                detector,
                ScenarioConfig {
                    shards: 4,
                    ingest,
                    ..ScenarioConfig::default()
                },
            );
            let attack = run.machine_mut().spawn(Box::new(Cryptominer::default()));
            run.watch(attack);
            let mut pids = vec![attack];
            for mut spec in roster().into_iter().take(8) {
                spec.epochs_to_complete = 30;
                let pid = run
                    .machine_mut()
                    .spawn(Box::new(BenchmarkWorkload::new(spec)));
                run.watch(pid);
                pids.push(pid);
            }
            run.run(15);
            pids.iter()
                .map(|&pid| run.history(pid).to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(run_with(None), run_with(Some(IngestOptions::default())));
    }

    /// The weighted-evidence plumbing degenerates exactly: confidence mode
    /// with the binary escalation ladder and unit weights leaves histories
    /// bit-for-bit identical to the classification path — synchronously
    /// and through the verdict ingest rings.
    #[test]
    fn confidence_path_matches_the_binary_scenario() {
        use valkyrie_core::{EscalationLadder, FusionConfig};
        let run_with = |confidence: bool, ingest: Option<IngestOptions>| {
            let machine = Machine::new(MachineConfig::default());
            let detector = ScriptedDetector::cycle(vec![
                Classification::Malicious,
                Classification::Malicious,
                Classification::Benign,
            ]);
            let mut config = EngineConfig::builder()
                .measurements_required(8)
                .penalty(AssessmentFn::incremental())
                .compensation(AssessmentFn::incremental())
                .actuator(ShareActuator::scheduler_weight(0.1, 0.01));
            if confidence {
                // Unit weights + binary ladder = the degenerate fusion
                // config that pins legacy behaviour.
                config = config.fusion(FusionConfig {
                    weights: Vec::new(),
                    default_weight: 1.0,
                    stale_decay: 1.0,
                    ladder: EscalationLadder::BINARY,
                });
            }
            let mut run = AugmentedRun::new(
                machine,
                config.build().unwrap(),
                detector,
                ScenarioConfig {
                    shards: 4,
                    ingest,
                    confidence,
                    ..ScenarioConfig::default()
                },
            );
            let attack = run.machine_mut().spawn(Box::new(Cryptominer::default()));
            run.watch(attack);
            let mut pids = vec![attack];
            for mut spec in roster().into_iter().take(8) {
                spec.epochs_to_complete = 30;
                let pid = run
                    .machine_mut()
                    .spawn(Box::new(BenchmarkWorkload::new(spec)));
                run.watch(pid);
                pids.push(pid);
            }
            run.run(15);
            pids.iter()
                .map(|&pid| run.history(pid).to_vec())
                .collect::<Vec<_>>()
        };
        let binary = run_with(false, None);
        let fused = run_with(true, None);
        let fused_ingest = run_with(true, Some(IngestOptions::default()));
        assert_eq!(binary, fused);
        assert_eq!(binary, fused_ingest);
    }
}
