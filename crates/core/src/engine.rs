//! The multi-process Valkyrie engine: monitors + actuators behind a detector.
//!
//! [`ValkyrieEngine`] is the piece that "augments" a detector (paper Fig. 2):
//! every epoch the caller feeds it each process's inference, and the engine
//! answers with the resource shares to enforce and whether to restore or
//! terminate. It keeps Algorithm 1's per-process cycle state for every
//! process and shares one configuration (`N*`, assessment functions,
//! actuator parts) across all of them. [`EngineConfigBuilder::build`] is
//! the only way to make that configuration, and it rejects any value that
//! would not give a defined response.
//!
//! The scaling tier in [`crate::sharded`] runs many engines side by side,
//! one per shard, behind a batch API.
//!
//! The fusion tier keeps each process's evidence (the latest verdict of
//! each ensemble member) in a column of the process table, which moves in
//! lockstep with the records and is allocated only when the first verdict
//! arrives, so a binary engine never pays for it. A verdict batch makes one
//! pass that absorbs each verdict with one cursor-first table lookup,
//! registering its process on first sight, and queues the table position
//! of each process it touches. A second pass fuses and steps each queued
//! process by its position, with no probe: nothing removes or re-lays a
//! record between the two passes.

use crate::actuator::{CompositeActuator, ShareActuator};
use crate::efficacy::{EfficacyCurve, EfficacySpec};
use crate::error::ValkyrieError;
use crate::monitor::{CycleState, Directive, EscalationLadder, MonitorParams, StepReport};
use crate::resource::{ProcessId, ResourceVector};
use crate::state::ProcessState;
use crate::table::ProcessTable;
use crate::telemetry::FusionStats;
use crate::threat::{stale_weight, AssessmentFn, Classification, Evidence, ThreatIndex, Verdict};

/// The response action the embedder must enact after an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Nothing to do.
    None,
    /// Apply the accompanying (reduced) resource shares.
    Throttle,
    /// Apply the accompanying (partially recovered) resource shares.
    Recover,
    /// Remove all restrictions (`A_reset` or return-to-normal).
    Restore,
    /// Remove all restrictions *and* begin a new measurement cycle
    /// (cyclic monitoring's benign verdict at `N*`; see
    /// [`EngineConfigBuilder::cyclic`]). Embedders that keep per-process
    /// measurement history should reset it here.
    RestoreAndRecycle,
    /// Terminate the process.
    Terminate,
}

/// Engine output for one `(process, epoch)` observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineResponse {
    /// The process this response concerns.
    pub pid: ProcessId,
    /// Fig. 3 state after the observation.
    pub state: ProcessState,
    /// Threat index after the observation.
    pub threat: ThreatIndex,
    /// Resource shares to enforce for the next epoch.
    pub resources: ResourceVector,
    /// The action to enact.
    pub action: Action,
}

/// Configuration of the verdict-fusion tier (see
/// [`ValkyrieEngine::observe_verdict_batch`]).
///
/// `weights[detector_id]` is each ensemble member's fusion weight
/// (`default_weight` for ids past the end of the table); `stale_decay`
/// down-weights a member whose last verdict is `age` epochs old by
/// `stale_decay^(age − cadence)` once it is overdue; `ladder` maps the
/// fused evidence mass to the graduated escalation level each epoch.
/// Detector ids run from 0 to 63: the engine drops a verdict from a higher
/// id as no measurement, and the builder rejects a longer `weights` table.
///
/// [`EngineConfigBuilder::build`] rejects a config whose fused mass could
/// come out NaN, since NaN engages no rung and would veto every kill: the
/// rules are stated on each field.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionConfig {
    /// Per-detector fusion weights, indexed by detector id (at most 64).
    /// Each is positive, and 64 times it is still finite (a fused mass sums
    /// at most 64 weights).
    pub weights: Vec<f64>,
    /// Weight for detector ids not covered by `weights`; the same rule as
    /// for `weights` applies.
    pub default_weight: f64,
    /// Per-overdue-epoch weight multiplier for stale verdicts, in `[0, 1]`
    /// (1.0 disables staleness decay).
    pub stale_decay: f64,
    /// The escalation ladder driven by the fused mass. Every threshold is
    /// in `[0, 1]`, with `compensate_below <= throttle_above <= kill_above`.
    pub ladder: EscalationLadder,
}

impl Default for FusionConfig {
    /// Unit weights, no staleness decay, the graduated ladder.
    fn default() -> Self {
        Self {
            weights: Vec::new(),
            default_weight: 1.0,
            stale_decay: 1.0,
            ladder: EscalationLadder::default(),
        }
    }
}

impl FusionConfig {
    /// The fusion weight of a detector id.
    fn weight_of(&self, detector: u32) -> f64 {
        self.weights
            .get(detector as usize)
            .copied()
            .unwrap_or(self.default_weight)
    }

    /// Checks the rules stated on the fields, naming the first one broken.
    fn validate(&self) -> Result<(), String> {
        if self.weights.len() > MAX_DETECTORS {
            return Err(format!(
                "fusion weights cover at most {MAX_DETECTORS} detector ids"
            ));
        }
        let bounded = |w: f64| w > 0.0 && (w * MAX_DETECTORS as f64).is_finite();
        if !self.weights.iter().all(|&w| bounded(w)) || !bounded(self.default_weight) {
            return Err(format!(
                "fusion weights must be positive and finite when summed {MAX_DETECTORS} times"
            ));
        }
        if !(0.0..=1.0).contains(&self.stale_decay) {
            return Err("fusion stale_decay must be in [0, 1]".into());
        }
        // Written so that a NaN threshold fails a comparison.
        let l = &self.ladder;
        let ordered = 0.0 <= l.compensate_below
            && l.compensate_below <= l.throttle_above
            && l.throttle_above <= l.kill_above
            && l.kill_above <= 1.0;
        if !ordered {
            return Err("ladder thresholds must satisfy \
                 0 <= compensate_below <= throttle_above <= kill_above <= 1"
                .into());
        }
        Ok(())
    }
}

/// Configuration of a [`ValkyrieEngine`].
///
/// [`EngineConfig::builder`] is the only way to make one, so every engine
/// runs under a validated configuration. `N*` can be given directly or
/// derived from a measured [`EfficacyCurve`] plus a user [`EfficacySpec`]
/// (Section IV-A: "users can specify the expected detection efficacy \[and\]
/// Valkyrie computes the number of measurements needed to achieve it").
#[derive(Debug, Clone)]
pub struct EngineConfig {
    monitor: MonitorParams,
    /// The builder's actuator parts, applied in order. Shared by every
    /// monitored process: each part is a pure function of the previous
    /// shares and `ΔT`.
    actuator: CompositeActuator,
    fusion: FusionConfig,
}

impl EngineConfig {
    /// Starts building a configuration.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }

    /// The measurement requirement `N*`.
    pub fn measurements_required(&self) -> u64 {
        self.monitor.n_star
    }

    /// The verdict-fusion configuration.
    pub fn fusion(&self) -> &FusionConfig {
        &self.fusion
    }

    /// Whether monitoring is cyclic (see [`EngineConfigBuilder::cyclic`]).
    pub(crate) fn cyclic(&self) -> bool {
        self.monitor.cyclic
    }
}

/// Builder for [`EngineConfig`] (see `C-BUILDER`).
///
/// # Examples
///
/// ```
/// use valkyrie_core::prelude::*;
///
/// let curve = EfficacyCurve::new(vec![
///     EfficacyPoint { measurements: 5, f1: 0.70, fpr: 0.30 },
///     EfficacyPoint { measurements: 23, f1: 0.92, fpr: 0.12 },
///     EfficacyPoint { measurements: 50, f1: 0.95, fpr: 0.08 },
/// ]).unwrap();
///
/// let config = EngineConfig::builder()
///     .efficacy(&curve, &EfficacySpec::f1_at_least(0.9))
///     .unwrap()
///     .actuator_part(ShareActuator::scheduler_weight(0.1, 0.01))
///     .build()
///     .unwrap();
/// assert_eq!(config.measurements_required(), 23);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineConfigBuilder {
    n_star: Option<u64>,
    fp: AssessmentFn,
    fc: AssessmentFn,
    parts: Vec<ShareActuator>,
    cyclic: bool,
    fusion: FusionConfig,
}

impl EngineConfigBuilder {
    /// Sets `N*` directly.
    pub fn measurements_required(mut self, n_star: u64) -> Self {
        self.n_star = Some(n_star);
        self
    }

    /// Derives `N*` from a measured efficacy curve and a user specification.
    ///
    /// # Errors
    ///
    /// Returns [`ValkyrieError::UnreachableEfficacy`] when no number of
    /// measurements on the curve satisfies the specification.
    pub fn efficacy(
        mut self,
        curve: &EfficacyCurve,
        spec: &EfficacySpec,
    ) -> Result<Self, ValkyrieError> {
        self.n_star = Some(u64::from(curve.measurements_required(spec)?));
        Ok(self)
    }

    /// Sets the penalty assessment function `F_p` (default: incremental).
    pub fn penalty(mut self, fp: AssessmentFn) -> Self {
        self.fp = fp;
        self
    }

    /// Sets the compensation assessment function `F_c` (default: incremental).
    pub fn compensation(mut self, fc: AssessmentFn) -> Self {
        self.fc = fc;
        self
    }

    /// Adds a per-resource actuator; may be called multiple times.
    pub fn actuator_part(mut self, part: ShareActuator) -> Self {
        self.parts.push(part);
        self
    }

    /// Replaces all actuator parts with a single actuator.
    pub fn actuator(mut self, part: ShareActuator) -> Self {
        self.parts = vec![part];
        self
    }

    /// Enables cyclic monitoring: after a benign verdict at `N*`
    /// measurements, resources are restored and a fresh measurement cycle
    /// begins (Algorithm 1's outer `while t is executing` loop). Default:
    /// one-shot, as drawn in Fig. 3.
    pub fn cyclic(mut self, cyclic: bool) -> Self {
        self.cyclic = cyclic;
        self
    }

    /// Configures the verdict-fusion tier (weights, staleness decay and the
    /// escalation ladder). Default: unit weights, no decay, the graduated
    /// ladder.
    pub fn fusion(mut self, fusion: FusionConfig) -> Self {
        self.fusion = fusion;
        self
    }

    /// Finalises the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ValkyrieError::InvalidConfig`] if `N*` was never set, is
    /// zero, the penalty or compensation function has a NaN or infinite
    /// parameter, no actuator part was supplied, an actuator part has a NaN
    /// floor, a NaN or infinite law parameter or a negative `step` or
    /// `gamma`, or the fusion config breaks a rule stated on
    /// [`FusionConfig`]'s fields.
    pub fn build(self) -> Result<EngineConfig, ValkyrieError> {
        let n_star = self
            .n_star
            .ok_or_else(|| ValkyrieError::InvalidConfig("N* was not set".into()))?;
        if n_star == 0 {
            return Err(ValkyrieError::InvalidConfig(
                "N* must be at least one measurement".into(),
            ));
        }
        for f in [&self.fp, &self.fc] {
            f.validate().map_err(ValkyrieError::InvalidConfig)?;
        }
        if self.parts.is_empty() {
            return Err(ValkyrieError::InvalidConfig(
                "at least one actuator part is required".into(),
            ));
        }
        for part in &self.parts {
            part.validate().map_err(ValkyrieError::InvalidConfig)?;
        }
        self.fusion
            .validate()
            .map_err(ValkyrieError::InvalidConfig)?;
        Ok(EngineConfig {
            monitor: MonitorParams {
                n_star,
                fp: self.fp,
                fc: self.fc,
                cyclic: self.cyclic,
            },
            actuator: CompositeActuator::new(self.parts),
            fusion: self.fusion,
        })
    }
}

/// One tracked process: its Algorithm 1 cycle (which also keeps its last
/// escalation rung) and its share of the resource kind the first actuator
/// part moves. Everything shared (`N*`, the assessment functions, the
/// actuator) stays in the engine's [`EngineConfig`], so the record is plain
/// data with no heap allocation of its own.
///
/// A kind that no actuator part names is always at 1.0, so when every part
/// names the first part's kind, `share` is all of the process's shares, and
/// responses and [`ValkyrieEngine::resources`] rebuild the
/// [`ResourceVector`] from it. An engine whose parts name two or more kinds
/// keeps each process's whole vector in the table's second column instead,
/// and leaves `share` unused.
#[derive(Debug, Clone)]
struct TrackedProcess {
    cycle: CycleState,
    share: f64,
}

/// Where a process's shares live: its record's one share, or its entry in
/// the shares column under a multi-kind actuator (see [`TrackedProcess`]).
enum Shares<'a> {
    One(&'a mut f64),
    All(&'a mut ResourceVector),
}

impl Shares<'_> {
    fn of<'a>(share: &'a mut f64, column: Option<&'a mut ResourceVector>) -> Shares<'a> {
        match column {
            Some(all) => Shares::All(all),
            None => Shares::One(share),
        }
    }

    /// Runs every actuator part for a threat change of `delta_threat`.
    #[inline(always)]
    fn adjust(&mut self, actuator: &CompositeActuator, delta_threat: f64) {
        match self {
            Shares::One(share) => **share = actuator.apply_share(**share, delta_threat),
            Shares::All(all) => **all = actuator.apply(all, delta_threat),
        }
    }

    /// Restores every share to full.
    #[inline(always)]
    fn restore(&mut self) {
        match self {
            Shares::One(share) => **share = 1.0,
            Shares::All(all) => **all = ResourceVector::FULL,
        }
    }

    #[inline(always)]
    fn get(&self, actuator: &CompositeActuator) -> ResourceVector {
        match self {
            Shares::One(share) => actuator.resources(**share),
            Shares::All(all) => **all,
        }
    }
}

/// Detector ids at or above this are dropped at absorption: each distinct
/// id costs a member slot per process and a `per_detector` counter, so an
/// unbounded `u32` id would let one verdict allocate without limit.
const MAX_DETECTORS: usize = 64;

/// [`ValkyrieEngine::forget`] compacts the terminal list once it exceeds
/// twice the table plus this many entries, so tiny tables do not compact on
/// every forget.
const TERMINAL_SLACK: usize = 64;

// A shard's table holds up to a million of these records, one cache line's
// worth each: the pid (8 B), `CycleState` (48 B, five of them spare) and
// the share (8 B). Not `repr(align(64))`: measured on `tenant_fused`, the
// aligned table raised setup time and peak RSS past their bounds.
const _: () = assert!(std::mem::size_of::<(ProcessId, TrackedProcess)>() == 64);

impl TrackedProcess {
    /// A newly registered process: normal, full shares.
    fn new() -> Self {
        TrackedProcess {
            cycle: CycleState::new(),
            share: 1.0,
        }
    }
}

/// Advances one tracked process by one monitor step (`advance` runs its
/// Algorithm 1 cycle) and turns the report into the response to enact,
/// updating the tracked shares and the escalation-transition telemetry.
/// Free-standing so the engine can split-borrow its config, its table
/// record (with its shares-column entry, if any) and its ledgers.
///
/// A step that takes a live process to *terminated* queues its pid on
/// `terminal` for the next purge. Re-observing an already terminated
/// process does not, so each termination is queued once.
#[inline(always)]
fn step(
    config: &EngineConfig,
    pid: ProcessId,
    tracked: &mut TrackedProcess,
    column: Option<&mut ResourceVector>,
    stats: &mut FusionStats,
    terminal: &mut Vec<ProcessId>,
    advance: impl FnOnce(&EngineConfig, &mut CycleState) -> StepReport,
) -> EngineResponse {
    let cycle = &mut tracked.cycle;
    let mut shares = Shares::of(&mut tracked.share, column);
    let was_live = cycle.state().is_live();
    let report = advance(config, cycle);
    if was_live && !report.state.is_live() {
        terminal.push(pid);
    }
    if cycle.record_level(report.level) {
        stats.escalations += 1;
    }
    let action = match report.directive {
        Directive::Continue => Action::None,
        Directive::Adjust { delta_threat } => {
            shares.adjust(&config.actuator, delta_threat);
            if delta_threat > 0.0 {
                Action::Throttle
            } else if delta_threat < 0.0 {
                Action::Recover
            } else {
                Action::None
            }
        }
        Directive::ResetToNormal => {
            // Invariant from Section V-A: "a threat index of 0 implies
            // that the process … has no restrictions on the system
            // resources".
            shares.restore();
            Action::Restore
        }
        Directive::Restore => {
            // A_reset at the terminable verdict; under cyclic
            // monitoring this also starts a fresh measurement cycle.
            shares.restore();
            if config.monitor.cyclic {
                Action::RestoreAndRecycle
            } else {
                Action::Restore
            }
        }
        Directive::Terminate => Action::Terminate,
    };

    EngineResponse {
        pid,
        state: report.state,
        threat: report.threat,
        resources: shares.get(&config.actuator),
        action,
    }
}

/// The Valkyrie response engine (paper Fig. 2): one process table plus the
/// observe path.
///
/// A `ValkyrieEngine` is also the unit the scaling tier distributes work
/// over: [`ShardedEngine`](crate::sharded::ShardedEngine) owns `N` of them,
/// each responsible for the processes whose id hashes onto it. Algorithm 1
/// semantics are per process, so one engine never needs to see another's
/// processes. For fleets beyond a few thousand processes per tick, use the
/// batched `ShardedEngine`.
///
/// Processes are tracked lazily: the first observation of an unknown
/// [`ProcessId`] registers it in the *normal* state with full resources.
/// The table distinguishes **live** processes from **terminated** ones that
/// are kept for post-mortem queries until [`Self::purge_terminated`] (or
/// [`Self::forget`]) evicts them.
///
/// The table stores its records densely behind a compact hash index, and a
/// lookup cursor compares the record after the one it last returned before
/// it probes. An embedder that presents its processes in a stable order
/// every epoch walks the records sequentially and mostly skips the probe;
/// a probe reads only 8-byte index entries until the one record it returns.
/// Each record is 64 bytes. Each process's fusion evidence is a column of
/// the same table, allocated on the first verdict, so a binary engine never
/// pays for it. An engine whose actuator parts move two or more resource
/// kinds keeps each process's shares in a second column.
///
/// # Examples
///
/// ```
/// use valkyrie_core::prelude::*;
///
/// let config = EngineConfig::builder()
///     .measurements_required(5)
///     .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
///     .build()
///     .unwrap();
/// let mut engine = ValkyrieEngine::new(config);
/// let resp = engine.observe(ProcessId(7), Classification::Malicious);
/// assert_eq!(resp.action, Action::Throttle);
/// assert!(resp.resources.cpu < 1.0);
/// ```
#[derive(Debug)]
pub struct ValkyrieEngine {
    config: EngineConfig,
    /// The process table. Its first column holds each process's fusion
    /// evidence: the latest verdict from each ensemble member, kept across
    /// epochs so slow members stay represented. Its second column, in use
    /// only under a multi-kind actuator, holds each process's shares.
    procs: ProcessTable<TrackedProcess, Members, ResourceVector>,
    /// Scratch for one verdict batch: the table positions of the processes
    /// it touched, in first-arrival order (the response order of
    /// [`Self::observe_verdict_batch`]). Nothing removes or re-lays a
    /// record between the absorb pass that fills it and the fuse pass that
    /// reads it, so the positions hold. Empty between calls; kept only for
    /// its allocation.
    dirty: Vec<u32>,
    /// Fusion clock: one tick per verdict batch, for staleness accounting.
    fusion_tick: u64,
    fusion_stats: FusionStats,
    /// Pids whose record went from live to terminated since the last
    /// purge, which [`Self::purge_terminated`] drains instead of scanning
    /// the table. An entry goes stale when its pid is forgotten (and perhaps
    /// re-registered) before the purge; the purge skips those.
    terminal: Vec<ProcessId>,
}

/// The latest evidence one ensemble member supplied about a process.
#[derive(Debug, Clone, Copy, Default)]
struct MemberEvidence {
    detector: u32,
    confidence: f64,
    cadence: u32,
    /// Fusion tick the verdict was absorbed into.
    seen_tick: u64,
}

/// Members a process keeps without a heap allocation: a fast and a slow
/// detector, the common ensemble.
const INLINE_MEMBERS: usize = 2;

/// A process's fusion evidence, one entry per ensemble member in
/// first-arrival order: the first [`INLINE_MEMBERS`] inline, any further
/// ones in `spill`.
#[derive(Debug, Clone, Default)]
struct Members {
    /// How many `inline` entries are in use.
    inline_len: u8,
    inline: [MemberEvidence; INLINE_MEMBERS],
    spill: Vec<MemberEvidence>,
}

impl Members {
    fn iter(&self) -> impl Iterator<Item = &MemberEvidence> {
        self.inline[..usize::from(self.inline_len)]
            .iter()
            .chain(&self.spill)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut MemberEvidence> {
        self.inline[..usize::from(self.inline_len)]
            .iter_mut()
            .chain(&mut self.spill)
    }

    fn push(&mut self, member: MemberEvidence) {
        match self.inline.get_mut(usize::from(self.inline_len)) {
            Some(slot) => {
                *slot = member;
                self.inline_len += 1;
            }
            None => self.spill.push(member),
        }
    }
}

impl ValkyrieEngine {
    /// Creates an empty engine from a configuration.
    pub fn new(config: EngineConfig) -> Self {
        Self::with_capacity(config, 0)
    }

    /// Creates an engine pre-sized for `capacity` processes, so batch
    /// embedders don't pay re-index and move costs while the fleet
    /// registers. The table is reserved, not filled: pages it never touches
    /// cost no memory.
    pub fn with_capacity(config: EngineConfig, capacity: usize) -> Self {
        let procs = ProcessTable::with_capacity(capacity);
        let procs = if config.actuator.single_kind() {
            procs
        } else {
            procs.with_second_column()
        };
        Self {
            config,
            procs,
            dirty: Vec::new(),
            fusion_tick: 0,
            fusion_stats: FusionStats::default(),
            terminal: Vec::new(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of processes currently tracked, **terminated ones included**
    /// (they stay queryable until purged). Live count: [`Self::tracked_live`].
    pub fn tracked(&self) -> usize {
        self.procs.len()
    }

    /// Number of tracked processes that have not terminated.
    pub fn tracked_live(&self) -> usize {
        self.procs
            .iter()
            .filter(|(_, p)| p.cycle.state().is_live())
            .count()
    }

    /// Current state of a process, if tracked.
    pub fn state(&self, pid: ProcessId) -> Option<ProcessState> {
        self.procs.get(pid).map(|p| p.cycle.state())
    }

    /// Current threat index of a process, if tracked.
    pub fn threat(&self, pid: ProcessId) -> Option<ThreatIndex> {
        self.procs.get(pid).map(|p| p.cycle.threat())
    }

    /// Current resource shares of a process, if tracked.
    pub fn resources(&self, pid: ProcessId) -> Option<ResourceVector> {
        let actuator = &self.config.actuator;
        self.procs.get_with_second(pid).map(|(p, column)| {
            column
                .copied()
                .unwrap_or_else(|| actuator.resources(p.share))
        })
    }

    /// Runs one monitor step on `pid`, registering it on first sight. A
    /// repeat observation and a registration cost the same single probe.
    ///
    /// This and [`step`] are always inlined, so an embedder in another
    /// crate that calls [`Self::observe`] (`#[inline]`) in a loop compiles
    /// the whole step into that loop. With plain `#[inline]` hints LLVM
    /// kept them out of line there, and `core/engine_observe_100_procs`
    /// took ~1.8× as long on a 2-vCPU x86-64 host.
    #[inline(always)]
    fn step_pid(
        &mut self,
        pid: ProcessId,
        advance: impl FnOnce(&EngineConfig, &mut CycleState) -> StepReport,
    ) -> EngineResponse {
        let p = self.procs.position_or_insert_with(pid, TrackedProcess::new);
        let (_, tracked, column) = self.procs.record_mut(p);
        step(
            &self.config,
            pid,
            tracked,
            column,
            &mut self.fusion_stats,
            &mut self.terminal,
            advance,
        )
    }

    /// Feeds one epoch's detector inference `D(t, i)` for `pid`, advances
    /// its Algorithm 1 cycle and returns the response to enact.
    ///
    /// Once a process has terminated, observing it again keeps answering
    /// [`Action::Terminate`] with its final state, threat and shares, and
    /// changes nothing, until the process is purged or forgotten.
    #[inline]
    pub fn observe(&mut self, pid: ProcessId, inference: Classification) -> EngineResponse {
        self.step_pid(pid, |config, cycle| {
            cycle.observe(&config.monitor, inference)
        })
    }

    /// Advances a process by one fused evidence mass (clamped into
    /// `[0, 1]`) under the configured escalation ladder: the
    /// weighted-evidence sibling of [`Self::observe`].
    ///
    /// The ladder picks the escalation rung; the rung picks the Algorithm 1
    /// arm. `Throttle`/`Kill` run the penalty arm with the assessment step
    /// scaled by the mass, `Compensate` runs the compensation arm scaled by
    /// `1 - mass`, and `Observe` holds every metric. In the terminable
    /// state, `Kill` terminates, `Compensate` restores (recycling under
    /// cyclic monitoring) and the middle rungs hold the decision open. A
    /// terminated process keeps answering [`Action::Terminate`], as on
    /// [`Self::observe`].
    ///
    /// The extremes are degenerate by construction: [`Self::observe`] *is*
    /// the [`EscalationLadder::BINARY`] step of mass `1.0` (`Malicious`) or
    /// `0.0` (`Benign`), so a binary detector driven through this path gets
    /// bit-for-bit the responses of [`Self::observe`]. A mass above 1 (`+inf`
    /// included) answers exactly like `1.0`, and one below 0 (`-inf` and
    /// `-0.0` included) exactly like `0.0`.
    ///
    /// A NaN mass is an `Observe`-band measurement on every ladder: threat,
    /// penalty, compensation and resource shares are held and the action is
    /// [`Action::None`], but the measurement counts toward `N*`. It never
    /// terminates or restores a process, terminable or not.
    #[inline]
    pub fn observe_mass(&mut self, pid: ProcessId, mass: f64) -> EngineResponse {
        self.step_pid(pid, |config, cycle| {
            cycle.observe_mass_with(&config.monitor, config.fusion.ladder, mass)
        })
    }

    /// Absorbs one ensemble member's verdict into its process's evidence
    /// without advancing the monitor, registering the process on first
    /// sight and queueing its position on `dirty` on its first verdict of
    /// the batch. One table lookup, which tries the cursor first.
    ///
    /// `confidence` is a public field, so this is the boundary that
    /// sanitises it: a NaN confidence is dropped as "no measurement from
    /// this member" (one NaN would otherwise poison the fused mass and
    /// veto every kill), and any other value is clamped into `[0, 1]`. A
    /// detector id of `MAX_DETECTORS` or more is dropped the same way.
    fn absorb_verdict(&mut self, pid: ProcessId, mut verdict: Verdict) {
        if verdict.confidence.is_nan() || verdict.detector as usize >= MAX_DETECTORS {
            return;
        }
        verdict.confidence = verdict.confidence.clamp(0.0, 1.0);
        self.fusion_stats.saw(verdict.detector);
        let p = self.procs.position_or_insert_with(pid, TrackedProcess::new);
        let members = self.procs.column_mut(p);
        // Members absorbed in this batch carry `seen_tick`; earlier batches
        // stamped at most `fusion_tick`. So a pid is already queued iff one
        // of its members carries the current stamp.
        let seen_tick = self.fusion_tick + 1;
        let mut queued = false;
        let mut slot = None;
        for m in members.iter_mut() {
            queued |= m.seen_tick == seen_tick;
            if m.detector == verdict.detector {
                slot = Some(m);
            }
        }
        let fresh = MemberEvidence {
            detector: verdict.detector,
            confidence: verdict.confidence,
            cadence: verdict.cadence,
            seen_tick,
        };
        match slot {
            Some(m) => *m = fresh,
            None => members.push(fresh),
        }
        if !queued {
            self.dirty.push(p as u32);
        }
    }

    /// Fuses the evidence of the process at table position `p`, absorbed in
    /// the current batch, and advances it by one monitor step: no probe.
    /// `fusion_tick` must already be advanced by the caller.
    ///
    /// Members that last published longer ago than their cadence are
    /// down-weighted by the configured staleness decay, so a wedged slow
    /// member fades out instead of pinning the fused mass. Members add up in
    /// first-arrival order.
    fn fuse_one(&mut self, p: usize) -> EngineResponse {
        let fusion = &self.config.fusion;
        let (pid, tracked, members, column) = self.procs.at_mut(p);
        let mut ev = Evidence::new();
        let mut stale = 0;
        for m in members.iter() {
            let age = self.fusion_tick.saturating_sub(m.seen_tick);
            let decay = stale_weight(fusion.stale_decay, age, m.cadence);
            if decay < 1.0 {
                stale += 1;
            }
            ev.add(m.confidence, fusion.weight_of(m.detector) * decay);
        }
        self.fusion_stats.stale_decayed += stale;
        let mass = ev.mass();
        step(
            &self.config,
            pid,
            tracked,
            column,
            &mut self.fusion_stats,
            &mut self.terminal,
            |config, cycle| cycle.observe_mass_with(&config.monitor, config.fusion.ladder, mass),
        )
    }

    /// [`Self::observe_verdict_batch`], appending the responses to `out`.
    pub(crate) fn observe_verdict_batch_into(
        &mut self,
        batch: &[(ProcessId, Verdict)],
        out: &mut Vec<EngineResponse>,
    ) {
        for &(pid, verdict) in batch {
            self.absorb_verdict(pid, verdict);
        }
        self.fusion_tick += 1;
        let mut dirty = std::mem::take(&mut self.dirty);
        out.reserve(dirty.len());
        for p in dirty.drain(..) {
            out.push(self.fuse_one(p as usize));
        }
        self.dirty = dirty;
    }

    /// Feeds one tick's per-detector verdicts: absorbs the whole batch,
    /// then fuses each touched process once and advances it by one monitor
    /// step, returning one response per *process* with fresh evidence
    /// (first-arrival order), not one per verdict.
    ///
    /// This is the only way verdicts enter the engine, so each process
    /// takes at most one Algorithm 1 step per batch however many ensemble
    /// members spoke. A process whose every verdict this batch was dropped
    /// (NaN confidence, or a detector id of 64 or more) is neither stepped
    /// nor, if unknown, registered.
    pub fn observe_verdict_batch(&mut self, batch: &[(ProcessId, Verdict)]) -> Vec<EngineResponse> {
        let mut out = Vec::new();
        self.observe_verdict_batch_into(batch, &mut out);
        out
    }

    /// Fusion-tier telemetry counters (escalation transitions included for
    /// the binary observe path).
    pub fn fusion_stats(&self) -> &FusionStats {
        &self.fusion_stats
    }

    /// Feeds a batch of per-process inferences, appending one response per
    /// observation to `out` in input order.
    pub(crate) fn observe_batch_into(
        &mut self,
        batch: &[(ProcessId, Classification)],
        out: &mut Vec<EngineResponse>,
    ) {
        out.reserve(batch.len());
        for &(pid, inference) in batch {
            out.push(self.observe(pid, inference));
        }
    }

    /// Marks a process as completed (Fig. 3: completion terminates it).
    ///
    /// # Errors
    ///
    /// Returns [`ValkyrieError::UnknownProcess`] when `pid` is not tracked.
    pub fn complete(&mut self, pid: ProcessId) -> Result<(), ValkyrieError> {
        let tracked = self
            .procs
            .get_mut(pid)
            .ok_or(ValkyrieError::UnknownProcess(pid.0))?;
        if tracked.cycle.state().is_live() {
            tracked.cycle.complete();
            self.terminal.push(pid);
        }
        Ok(())
    }

    /// Stops tracking a process and frees its bookkeeping (fusion evidence
    /// included).
    pub fn forget(&mut self, pid: ProcessId) {
        self.procs.remove(pid);
        // Forgetting a terminated process leaves its terminal-list entry
        // stale. An embedder that forgets without purging would grow the
        // list forever, so once it is mostly stale, drop the entries a purge
        // would skip.
        if self.terminal.len() > 2 * self.procs.len() + TERMINAL_SLACK {
            let procs = &self.procs;
            self.terminal
                .retain(|&pid| procs.get(pid).is_some_and(|p| !p.cycle.state().is_live()));
        }
    }

    /// Evicts every terminated process, returning how many were dropped.
    ///
    /// Terminated processes (Fig. 3's terminal state) never leave the table
    /// on their own, so a long-running engine that tracks short-lived
    /// processes grows without bound unless the embedder calls this (the
    /// epoch driver in [`crate::sharded`] does so every tick). After
    /// eviction a purged pid is unknown again: re-observing it registers a
    /// *fresh* process in the normal state. A purged pid's fusion evidence
    /// goes with it.
    ///
    /// The cost is O(processes terminated since the last purge), not
    /// O(tracked): the engine queues each pid as it terminates, and this
    /// drains that queue.
    pub fn purge_terminated(&mut self) -> usize {
        let procs = &mut self.procs;
        // A pid forgotten since it terminated is gone, and one forgotten and
        // re-registered since is live: the purge skips both.
        self.terminal
            .drain(..)
            .filter(|&pid| {
                procs
                    .remove_if(pid, |p| !p.cycle.state().is_live())
                    .is_some()
            })
            .count()
    }

    /// Starts a walk of the process table (see [`ProcessTable::begin_walk`]):
    /// the observations until [`Self::end_walk`] are one pass over the
    /// fleet in its presentation order.
    pub(crate) fn begin_walk(&mut self, record: bool) {
        self.procs.begin_walk(record);
    }

    /// Ends the walk, re-laying the table in its order if it and the
    /// recorded walk before it show a stable order that churn has put out
    /// of step with the table (see [`ProcessTable::end_walk`]). The table
    /// keeps the walk's position buffer if `next_recorded`.
    pub(crate) fn end_walk(&mut self, next_recorded: bool) {
        self.procs.end_walk(next_recorded);
    }

    /// Whether the process table is large enough to outgrow L2 (see
    /// [`ProcessTable::is_large`]).
    pub(crate) fn has_large_table(&self) -> bool {
        self.procs.is_large()
    }

    /// The `(lookups, misses)` of the table's current or last walk.
    #[cfg(test)]
    pub(crate) fn walk_counts(&self) -> (usize, usize) {
        self.procs.walk_counts()
    }

    /// Re-lays of the table so far.
    #[cfg(test)]
    pub(crate) fn relays(&self) -> u64 {
        self.procs.relays()
    }

    /// Iterates over `(pid, state, threat)` of all tracked processes.
    ///
    /// The order is unspecified. Today it is the order of the table's last
    /// re-lay, then registration, perturbed by removals (a removed
    /// process's slot goes to the table's last record). Only a
    /// [`ShardedEngine`](crate::sharded::ShardedEngine)'s step phase
    /// re-lays a table.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, ProcessState, ThreatIndex)> + '_ {
        self.procs
            .iter()
            .map(|(pid, p)| (pid, p.cycle.state(), p.cycle.threat()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use Classification::{Benign, Malicious};

    fn engine(n_star: u64) -> ValkyrieEngine {
        let config = EngineConfig::builder()
            .measurements_required(n_star)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap();
        ValkyrieEngine::new(config)
    }

    #[test]
    fn builder_requires_n_star_and_actuator() {
        let err = EngineConfig::builder().build().unwrap_err();
        assert!(matches!(err, ValkyrieError::InvalidConfig(_)));
        let err = EngineConfig::builder()
            .measurements_required(5)
            .build()
            .unwrap_err();
        assert!(matches!(err, ValkyrieError::InvalidConfig(_)));
        let err = EngineConfig::builder()
            .measurements_required(0)
            .actuator(ShareActuator::cpu_percent_point(0.1, 0.01))
            .build()
            .unwrap_err();
        assert!(matches!(err, ValkyrieError::InvalidConfig(_)));
        let err = EngineConfig::builder()
            .measurements_required(5)
            .actuator(ShareActuator::cpu_percent_point(0.1, 0.01))
            .fusion(FusionConfig {
                weights: vec![1.0; MAX_DETECTORS + 1],
                ..FusionConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, ValkyrieError::InvalidConfig(_)));
    }

    #[test]
    fn builder_rejects_non_finite_or_negative_actuator_parameters() {
        use crate::actuator::ThrottleLaw;
        use crate::resource::ResourceKind::{self, Cpu};
        let build = |part: ShareActuator| {
            EngineConfig::builder()
                .measurements_required(5)
                .actuator_part(ShareActuator::fs_halving(0.01))
                .actuator_part(part)
                .build()
        };
        let rejected = [
            ShareActuator::cpu_percent_point(0.10, f64::NAN),
            ShareActuator::cpu_percent_point(f64::NAN, 0.01),
            ShareActuator::cpu_percent_point(f64::INFINITY, 0.01),
            ShareActuator::cpu_percent_point(-0.10, 0.01),
            ShareActuator::scheduler_weight(-0.1, 0.01),
            ShareActuator::scheduler_weight(f64::NEG_INFINITY, 0.01),
            ShareActuator::new(
                ResourceKind::Network,
                ThrottleLaw::MultiplicativePerEvent { factor: f64::NAN },
                0.01,
            ),
            ShareActuator::new(
                Cpu,
                ThrottleLaw::MultiplicativePerUnit {
                    factor: f64::INFINITY,
                },
                0.01,
            ),
        ];
        for part in rejected {
            let err = build(part).unwrap_err();
            assert!(matches!(err, ValkyrieError::InvalidConfig(_)), "{part:?}");
        }
        // The edges that stay defined still build: a zero step, an
        // out-of-range floor (clamped into [0, 1]) and a zero gamma.
        for part in [
            ShareActuator::cpu_percent_point(0.0, 0.01),
            ShareActuator::cpu_percent_point(0.10, f64::INFINITY),
            ShareActuator::scheduler_weight(0.0, -1.0),
        ] {
            assert!(build(part).is_ok(), "{part:?}");
        }
    }

    #[test]
    fn first_observation_registers_process() {
        let mut e = engine(10);
        assert_eq!(e.tracked(), 0);
        e.observe(ProcessId(1), Benign);
        assert_eq!(e.tracked(), 1);
        assert_eq!(e.state(ProcessId(1)), Some(ProcessState::Normal));
    }

    #[test]
    fn throttle_then_full_recovery_restores_resources() {
        let mut e = engine(100);
        let pid = ProcessId(1);
        let r = e.observe(pid, Malicious);
        assert_eq!(r.action, Action::Throttle);
        assert!((r.resources.cpu - 0.9).abs() < 1e-12);
        let r = e.observe(pid, Malicious);
        assert!((r.resources.cpu - 0.7).abs() < 1e-12);
        // Recover: threat 3 -> 2 -> 0.
        let r = e.observe(pid, Benign);
        assert_eq!(r.action, Action::Recover);
        assert!((r.resources.cpu - 0.8).abs() < 1e-12);
        let r = e.observe(pid, Benign);
        assert_eq!(r.action, Action::Restore);
        assert!(r.resources.is_full());
        assert_eq!(r.state, ProcessState::Normal);
    }

    #[test]
    fn attack_is_terminated_only_in_terminable_state() {
        let mut e = engine(4);
        let pid = ProcessId(9);
        let mut terminated_at = None;
        for epoch in 1..=6 {
            let r = e.observe(pid, Malicious);
            if r.action == Action::Terminate {
                terminated_at = Some(epoch);
                break;
            }
        }
        // 4 epochs accumulate N*, the 5th (terminable) classification kills.
        assert_eq!(terminated_at, Some(5));
        assert_eq!(e.state(pid), Some(ProcessState::Terminated));
    }

    #[test]
    fn false_positive_is_restored_in_terminable_state() {
        let mut e = engine(3);
        let pid = ProcessId(2);
        e.observe(pid, Malicious);
        e.observe(pid, Malicious);
        e.observe(pid, Malicious);
        let r = e.observe(pid, Benign);
        assert_eq!(r.action, Action::Restore);
        assert!(r.resources.is_full());
        assert_eq!(r.state, ProcessState::Terminable);
    }

    #[test]
    fn resources_respect_floor_under_sustained_attack() {
        let mut e = engine(1000);
        let pid = ProcessId(3);
        let mut last = ResourceVector::FULL;
        for _ in 0..50 {
            last = e.observe(pid, Malicious).resources;
        }
        assert_eq!(last.cpu, 0.01);
        assert!(last.is_valid());
    }

    #[test]
    fn independent_processes_do_not_interfere() {
        let mut e = engine(100);
        e.observe(ProcessId(1), Malicious);
        e.observe(ProcessId(2), Benign);
        assert!(e.resources(ProcessId(1)).unwrap().cpu < 1.0);
        assert!(e.resources(ProcessId(2)).unwrap().is_full());
    }

    #[test]
    fn complete_and_forget() {
        let mut e = engine(10);
        let pid = ProcessId(5);
        assert!(e.complete(pid).is_err());
        e.observe(pid, Benign);
        e.complete(pid).unwrap();
        assert_eq!(e.state(pid), Some(ProcessState::Terminated));
        e.forget(pid);
        assert_eq!(e.state(pid), None);
    }

    #[test]
    fn cyclic_engine_rearms_after_restore() {
        let config = EngineConfig::builder()
            .measurements_required(3)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .cyclic(true)
            .build()
            .unwrap();
        let mut e = ValkyrieEngine::new(config);
        let pid = ProcessId(1);
        // Cycle 1: two FPs, one benign; terminable at measurement 3.
        e.observe(pid, Malicious);
        e.observe(pid, Malicious);
        e.observe(pid, Benign);
        // Terminable verdict: benign -> restore + new cycle.
        let r = e.observe(pid, Benign);
        assert_eq!(r.action, Action::RestoreAndRecycle);
        assert_eq!(r.state, ProcessState::Normal);
        // Cycle 2 can throttle again...
        let r = e.observe(pid, Malicious);
        assert_eq!(r.action, Action::Throttle);
        assert_eq!(r.state, ProcessState::Suspicious);
        // ...and still terminate an attack at the end of its cycle.
        e.observe(pid, Malicious);
        e.observe(pid, Malicious);
        let r = e.observe(pid, Malicious);
        assert_eq!(r.action, Action::Terminate);
    }

    #[test]
    fn iter_reports_all_processes() {
        let mut e = engine(10);
        e.observe(ProcessId(1), Benign);
        e.observe(ProcessId(2), Malicious);
        let mut pids: Vec<u64> = e.iter().map(|(pid, _, _)| pid.0).collect();
        pids.sort_unstable();
        assert_eq!(pids, vec![1, 2]);
    }

    #[test]
    fn purge_evicts_only_terminated_processes() {
        let mut e = engine(2);
        let attack = ProcessId(1);
        let benign = ProcessId(2);
        for _ in 0..3 {
            e.observe(attack, Malicious);
            e.observe(benign, Benign);
        }
        assert_eq!(e.state(attack), Some(ProcessState::Terminated));
        assert_eq!(e.tracked(), 2);
        assert_eq!(e.tracked_live(), 1);
        assert_eq!(e.purge_terminated(), 1);
        assert_eq!(e.tracked(), 1);
        assert_eq!(e.state(attack), None);
        // The clean process captured its N* measurements and is terminable,
        // but alive — purge must not touch it.
        assert_eq!(e.state(benign), Some(ProcessState::Terminable));
        // A purged pid re-registers as a fresh process.
        let r = e.observe(attack, Benign);
        assert_eq!(r.state, ProcessState::Normal);
        assert_eq!(e.purge_terminated(), 0);
    }

    #[test]
    fn completed_processes_are_purgeable() {
        let mut e = engine(10);
        e.observe(ProcessId(4), Benign);
        e.complete(ProcessId(4)).unwrap();
        assert_eq!(e.tracked_live(), 0);
        assert_eq!(e.purge_terminated(), 1);
        assert_eq!(e.tracked(), 0);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let config = EngineConfig::builder()
            .measurements_required(10)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap();
        let mut e = ValkyrieEngine::with_capacity(config, 1024);
        assert_eq!(e.tracked(), 0);
        let r = e.observe(ProcessId(1), Malicious);
        assert_eq!(r.action, Action::Throttle);
        assert_eq!(e.tracked(), 1);
    }

    #[test]
    fn shard_fast_path_equals_registration_path_semantics() {
        // Same stream through a fresh shard twice: the first pass exercises
        // registration, the second pass (after forgetting) must re-register
        // identically.
        let config = EngineConfig::builder()
            .measurements_required(4)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap();
        let mut shard = ValkyrieEngine::new(config);
        let stream = [Malicious, Benign, Malicious, Malicious];
        let first: Vec<EngineResponse> = stream
            .iter()
            .map(|&c| shard.observe(ProcessId(1), c))
            .collect();
        shard.forget(ProcessId(1));
        let second: Vec<EngineResponse> = stream
            .iter()
            .map(|&c| shard.observe(ProcessId(1), c))
            .collect();
        assert_eq!(first, second);
    }

    fn fusion_engine(n_star: u64, fusion: FusionConfig) -> ValkyrieEngine {
        let config = EngineConfig::builder()
            .measurements_required(n_star)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .fusion(fusion)
            .build()
            .unwrap();
        ValkyrieEngine::new(config)
    }

    #[test]
    fn binary_verdicts_through_fusion_match_binary_observe() {
        // A single unit-weight member with full-confidence verdicts and the
        // BINARY ladder must reproduce the legacy binary engine exactly.
        let fusion = FusionConfig {
            ladder: crate::monitor::EscalationLadder::BINARY,
            ..FusionConfig::default()
        };
        let mut fused = fusion_engine(4, fusion);
        let mut binary = engine(4);
        let pid = ProcessId(1);
        let stream = [
            Malicious, Benign, Malicious, Malicious, Malicious, Malicious,
        ];
        for c in stream {
            let want = binary.observe(pid, c);
            let got = fused.observe_verdict_batch(&[(pid, Verdict::from_classification(0, c))]);
            assert_eq!(got, vec![want]);
        }
        assert_eq!(fused.state(pid), Some(ProcessState::Terminated));
        assert_eq!(fused.fusion_stats().verdicts, stream.len() as u64);
    }

    #[test]
    fn verdict_batch_advances_each_process_once_per_tick() {
        // Three members publishing in the same tick must cost the process
        // ONE monitor step, not three.
        let mut e = fusion_engine(10, FusionConfig::default());
        let pid = ProcessId(5);
        let responses = e.observe_verdict_batch(&[
            (pid, Verdict::new(0, 1.0)),
            (pid, Verdict::new(1, 1.0)),
            (pid, Verdict::new(2, 1.0)),
        ]);
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].action, Action::Throttle);
        assert_eq!(e.fusion_stats().verdicts, 3);
        assert_eq!(e.fusion_stats().per_detector, vec![1, 1, 1]);
        // One step was taken: a monitor at measurement 1, not 3.
        assert_eq!(e.threat(pid).unwrap().value(), 1.0);
        // An empty batch steps no process.
        assert!(e.observe_verdict_batch(&[]).is_empty());
    }

    #[test]
    fn fusion_weights_tilt_the_mass() {
        // Detector 1 carries 4x the weight of detector 0. A malicious
        // verdict from the heavy member against a benign one from the light
        // member yields mass 0.8 → Throttle on the graduated ladder.
        let fusion = FusionConfig {
            weights: vec![1.0, 4.0],
            ..FusionConfig::default()
        };
        let mut e = fusion_engine(10, fusion);
        let pid = ProcessId(1);
        let r =
            e.observe_verdict_batch(&[(pid, Verdict::new(0, 0.0)), (pid, Verdict::new(1, 1.0))]);
        assert_eq!(r[0].action, Action::Throttle);

        // Flipped: the heavy member says benign → mass 0.2 → no throttle.
        let fusion = FusionConfig {
            weights: vec![1.0, 4.0],
            ..FusionConfig::default()
        };
        let mut e = fusion_engine(10, fusion);
        let r =
            e.observe_verdict_batch(&[(pid, Verdict::new(0, 1.0)), (pid, Verdict::new(1, 0.0))]);
        assert_eq!(r[0].action, Action::None);
        assert_eq!(r[0].state, ProcessState::Normal);
    }

    #[test]
    fn stale_slow_member_decays_out_of_the_mass() {
        // A slow member (cadence 2) flags malicious once, then goes silent.
        // With stale_decay 0.0 its verdict stops counting as soon as it is
        // overdue, letting the fresh benign member dominate.
        let fusion = FusionConfig {
            stale_decay: 0.0,
            ..FusionConfig::default()
        };
        let mut e = fusion_engine(100, fusion);
        let pid = ProcessId(9);
        let r = e.observe_verdict_batch(&[
            (pid, Verdict::new(1, 1.0).with_cadence(2)),
            (pid, Verdict::new(0, 0.0)),
        ]);
        // Tick 1: both fresh, mass 0.5 → Observe band on the graduated
        // ladder → no action.
        assert_eq!(r[0].action, Action::None);
        // Ticks 2-4: only the fast benign member keeps publishing. At tick
        // 4 the slow verdict is 3 ticks old (> cadence 2) and fully decays.
        for _ in 0..3 {
            e.observe_verdict_batch(&[(pid, Verdict::new(0, 0.0))]);
        }
        assert!(e.fusion_stats().stale_decayed > 0);
        assert_eq!(e.state(pid), Some(ProcessState::Normal));
        assert!(e.threat(pid).unwrap().is_zero());
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

    #[test]
    fn observe_mass_pins_its_f64_edges() {
        for ladder in [EscalationLadder::BINARY, EscalationLadder::graduated()] {
            for cyclic in [false, true] {
                let fresh = |n_star| {
                    let config = EngineConfig::builder()
                        .measurements_required(n_star)
                        .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
                        .cyclic(cyclic)
                        .fusion(FusionConfig {
                            ladder,
                            ..FusionConfig::default()
                        })
                        .build()
                        .unwrap();
                    ValkyrieEngine::new(config)
                };
                let at = format!("{ladder:?} cyclic={cyclic}");
                let pid = ProcessId(9);

                // Masses beyond an extreme answer exactly like the extreme,
                // in the penalty or compensation arm, at the N* switch, in
                // the terminable state and after termination.
                for (edge, extreme) in [
                    (f64::INFINITY, 1.0),
                    (1.5, 1.0),
                    (f64::NEG_INFINITY, 0.0),
                    (-0.5, 0.0),
                    (-0.0, 0.0),
                ] {
                    let (mut got, mut want) = (fresh(4), fresh(4));
                    for m in [1.0, 1.0, edge, edge, edge, 1.0, edge, 1.0, edge] {
                        let reference = if m.to_bits() == edge.to_bits() {
                            extreme
                        } else {
                            m
                        };
                        assert_eq!(
                            bits(&got.observe_mass(pid, m)),
                            bits(&want.observe_mass(pid, reference)),
                            "{at}: mass {edge} vs {extreme}"
                        );
                    }
                }

                // NaN is an observe-band measurement: threat, penalty and
                // shares hold, and it counts toward N*.
                let (mut got, mut want) = (fresh(100), fresh(100));
                for _ in 0..2 {
                    got.observe_mass(pid, 1.0);
                    want.observe_mass(pid, 1.0);
                }
                let before = bits(&got.observe_mass(pid, 1.0));
                for _ in 0..3 {
                    let r = got.observe_mass(pid, f64::NAN);
                    assert_eq!(r.action, Action::None, "{at}");
                    let after = bits(&r);
                    assert_eq!(
                        (after.1, after.2, after.3),
                        (before.1, before.2, before.3),
                        "{at}"
                    );
                }
                // The penalty held too: the next full-mass step climbs
                // exactly as if the NaN epochs never happened.
                want.observe_mass(pid, 1.0);
                assert_eq!(
                    bits(&got.observe_mass(pid, 1.0)),
                    bits(&want.observe_mass(pid, 1.0)),
                    "{at}"
                );

                // It never terminates or restores, even once terminable.
                let mut e = fresh(3);
                e.observe_mass(pid, 1.0);
                for _ in 0..2 {
                    e.observe_mass(pid, f64::NAN);
                }
                assert_eq!(e.state(pid), Some(ProcessState::Terminable), "{at}");
                let held = e.resources(pid);
                for _ in 0..5 {
                    let r = e.observe_mass(pid, f64::NAN);
                    assert_eq!(
                        (r.state, r.action),
                        (ProcessState::Terminable, Action::None)
                    );
                    assert_eq!(Some(r.resources), held, "{at}");
                }
                assert_eq!(e.observe_mass(pid, 1.0).action, Action::Terminate, "{at}");
            }
        }
    }

    #[test]
    fn escalation_transitions_are_counted_on_the_binary_path() {
        let mut e = engine(3);
        let pid = ProcessId(1);
        assert_eq!(e.fusion_stats().escalations, 0);
        e.observe(pid, Malicious); // Observe -> Throttle: +1
        e.observe(pid, Malicious); // Throttle -> Throttle: no transition
        assert_eq!(e.fusion_stats().escalations, 1);
        e.observe(pid, Benign); // Throttle -> Compensate: downward, no count
                                // Terminable by now (3 measurements): a malicious verdict jumps
                                // Compensate -> Kill, the second upward transition.
        let r = e.observe(pid, Malicious);
        assert_eq!(r.action, Action::Terminate);
        assert_eq!(e.fusion_stats().escalations, 2);
    }

    #[test]
    fn forget_and_purge_drop_fusion_evidence() {
        let mut e = fusion_engine(1, FusionConfig::default());
        let pid = ProcessId(1);
        let malicious = [(pid, Verdict::new(0, 1.0))];
        e.observe_verdict_batch(&malicious);
        let r = e.observe_verdict_batch(&malicious);
        assert_eq!(r[0].action, Action::Terminate);
        assert_eq!(e.purge_terminated(), 1);
        // The purged pid's evidence went with it: a fresh verdict registers
        // a fresh process (a stale one would short-circuit with Terminate).
        let r = e.observe_verdict_batch(&[(pid, Verdict::new(0, 0.0))]);
        assert_eq!(r[0].action, Action::None);
        assert_eq!(r[0].state, ProcessState::Terminable);
    }

    /// A process with more members than fit inline fuses bit for bit like a
    /// weighted mean taken in first-arrival member order, whatever order a
    /// later batch presents its members in and whichever of them are stale.
    #[test]
    fn members_past_the_inline_two_fuse_in_first_arrival_order() {
        use crate::hash::mix64;
        let fusion = FusionConfig {
            weights: (0..64).map(|d| 0.25 + f64::from(d) * 0.37).collect(),
            stale_decay: 0.5,
            ..FusionConfig::default()
        };
        let mut fused = fusion_engine(1 << 20, fusion.clone());
        let mut reference = fusion_engine(1 << 20, fusion.clone());
        let pid = ProcessId(42);
        // (detector, confidence, cadence, tick last seen), first arrival
        // first.
        let mut members: Vec<(u32, f64, u32, u64)> = Vec::new();
        for tick in 1..=60u64 {
            let mut batch = Vec::new();
            for (i, d) in (0u64..).zip([7u32, 2, 40, 5, 63]) {
                let r = mix64(tick << 8 | i);
                // After the first tick, each member is silent one tick in
                // three, so its evidence ages.
                if tick > 1 && r.is_multiple_of(3) {
                    continue;
                }
                let confidence = (r >> 11) as f64 / (1u64 << 53) as f64;
                let cadence = 1 + (i % 3) as u32;
                batch.push((pid, Verdict::new(d, confidence).with_cadence(cadence)));
                match members.iter_mut().find(|m| m.0 == d) {
                    Some(m) => *m = (d, confidence, cadence, tick),
                    None => members.push((d, confidence, cadence, tick)),
                }
            }
            if tick % 2 == 0 {
                batch.reverse();
            }
            let got = fused.observe_verdict_batch(&batch);
            if batch.is_empty() {
                assert!(got.is_empty());
                continue;
            }
            let (mut weighted, mut total) = (0.0, 0.0);
            for &(d, confidence, cadence, seen) in &members {
                let w = fusion.weights[d as usize] * stale_weight(0.5, tick - seen, cadence);
                weighted += confidence * w;
                total += w;
            }
            let want = reference.observe_mass(pid, weighted / total);
            assert_eq!(
                got.iter().map(bits).collect::<Vec<_>>(),
                [bits(&want)],
                "tick {tick}"
            );
        }
        assert_eq!(members.len(), 5);
    }

    /// Verdicts that are all dropped (NaN confidence, or a detector id of 64
    /// or more) neither register a new pid nor step a tracked one.
    #[test]
    fn a_pid_whose_every_verdict_is_dropped_is_neither_registered_nor_stepped() {
        let mut e = fusion_engine(10, FusionConfig::default());
        let (kept, dropped) = (ProcessId(1), ProcessId(2));
        e.observe_verdict_batch(&[(kept, Verdict::new(0, 1.0))]);
        let threat = e.threat(kept);
        let r = e.observe_verdict_batch(&[
            (dropped, Verdict::new(0, f64::NAN)),
            (kept, Verdict::new(1, f64::NAN)),
            (dropped, Verdict::new(64, 1.0)),
            (kept, Verdict::new(u32::MAX, 1.0)),
        ]);
        assert!(r.is_empty());
        assert_eq!(e.tracked(), 1);
        assert_eq!(e.state(dropped), None);
        assert_eq!(e.threat(kept), threat);
        // A kept verdict in the same batch still steps its pid alone.
        let r = e.observe_verdict_batch(&[
            (dropped, Verdict::new(0, f64::NAN)),
            (kept, Verdict::new(0, 1.0)),
        ]);
        assert_eq!(r.iter().map(|r| r.pid).collect::<Vec<_>>(), [kept]);
        assert_eq!(e.tracked(), 1);
    }

    /// Drives `pid` to termination on an `N* = 2` engine.
    fn terminate(e: &mut ValkyrieEngine, pid: ProcessId) {
        for _ in 0..3 {
            e.observe(pid, Malicious);
        }
        assert_eq!(e.state(pid), Some(ProcessState::Terminated));
    }

    #[test]
    fn purge_skips_a_pid_forgotten_and_re_registered_since_it_terminated() {
        let mut e = engine(2);
        let pid = ProcessId(8);
        terminate(&mut e, pid);
        e.forget(pid);
        let r = e.observe(pid, Benign);
        assert_eq!(r.state, ProcessState::Normal);
        assert_eq!(e.purge_terminated(), 0);
        assert_eq!(e.state(pid), Some(ProcessState::Normal));
    }

    #[test]
    fn re_observing_or_re_completing_a_terminated_pid_queues_it_once() {
        let mut e = engine(2);
        let pid = ProcessId(8);
        terminate(&mut e, pid);
        for _ in 0..1000 {
            assert_eq!(e.observe(pid, Malicious).action, Action::Terminate);
            assert!(e.terminal.len() <= 1);
        }
        e.complete(pid).unwrap();
        assert_eq!(e.terminal.len(), 1);
        assert_eq!(e.purge_terminated(), 1);
        assert_eq!(e.tracked(), 0);
        assert!(e.terminal.is_empty());
    }

    #[test]
    fn completing_and_forgetting_without_a_purge_keeps_the_terminal_list_bounded() {
        let mut e = engine(2);
        e.observe(ProcessId(0), Benign);
        for pid in 1..10_000 {
            let pid = ProcessId(pid);
            e.observe(pid, Benign);
            e.complete(pid).unwrap();
            e.forget(pid);
            assert!(e.terminal.len() <= 2 * e.tracked() + TERMINAL_SLACK);
        }
        // A pid forgotten and re-terminated before a purge is counted once.
        let pid = ProcessId(0);
        terminate(&mut e, pid);
        e.forget(pid);
        terminate(&mut e, pid);
        assert_eq!(e.purge_terminated(), 1);
        assert_eq!(e.tracked(), 0);
    }

    /// An engine whose parts move two kinds keeps each process's shares in
    /// the table's second column. Every response, and `resources(pid)`
    /// after it, must match a plain reference that folds each part's
    /// `ShareActuator::apply` over a full vector: on the binary path, on
    /// the verdict path, across a `forget` that swaps a record into
    /// another's position, and for a pid registered again after its purge.
    #[test]
    fn a_two_kind_engine_matches_a_per_part_fold_of_full_vectors() {
        let parts = [
            ShareActuator::cpu_percent_point(0.10, 0.01),
            ShareActuator::fs_halving(1.0 / 128.0),
        ];
        let config = EngineConfig::builder()
            .measurements_required(6)
            .actuator_part(parts[0])
            .actuator_part(parts[1])
            .cyclic(true)
            .build()
            .unwrap();
        assert!(!config.actuator.single_kind());
        let mut e = ValkyrieEngine::new(config);
        // Reference shares and last threat per pid.
        let mut want: HashMap<ProcessId, (ResourceVector, f64)> = HashMap::new();
        let mut seen = HashSet::new();
        let mut check = |e: &ValkyrieEngine, r: EngineResponse| {
            let (shares, threat) = want.entry(r.pid).or_insert((ResourceVector::FULL, 0.0));
            match r.action {
                Action::Throttle | Action::Recover => {
                    let delta = r.threat.value() - *threat;
                    *shares = parts.iter().fold(*shares, |v, part| part.apply(&v, delta));
                }
                Action::Restore | Action::RestoreAndRecycle => *shares = ResourceVector::FULL,
                Action::None | Action::Terminate => {}
            }
            *threat = r.threat.value();
            let expected = EngineResponse {
                resources: *shares,
                ..r
            };
            assert_eq!(bits(&r), bits(&expected), "{r:?}");
            let now = e.resources(r.pid).expect("a stepped pid is tracked");
            assert_eq!(
                bits(&EngineResponse {
                    resources: now,
                    ..r
                }),
                bits(&expected)
            );
            seen.insert(format!("{:?}", r.action));
        };
        let (binary, fused, gone) = (ProcessId(1), ProcessId(2), ProcessId(3));
        let r = e.observe(gone, Malicious);
        check(&e, r);
        // Throttle, throttle, recover, restore, throttle, restore (now
        // terminable), recycle, six throttles, terminate, terminated.
        let script = "MMBBMBBMMMMMMMM";
        for (i, c) in script.chars().enumerate() {
            let c = if c == 'M' { Malicious } else { Benign };
            let r = e.observe(binary, c);
            check(&e, r);
            let r = e.observe_verdict_batch(&[(fused, Verdict::from_classification(0, c))]);
            check(&e, r[0]);
            if i == 2 {
                e.forget(gone);
            }
        }
        for action in [
            "Throttle",
            "Recover",
            "Restore",
            "RestoreAndRecycle",
            "Terminate",
        ] {
            assert!(seen.contains(action), "{action} never happened: {seen:?}");
        }
        assert_eq!(e.state(binary), Some(ProcessState::Terminated));
        assert_eq!(e.purge_terminated(), 2);
        let r = e.observe(binary, Benign);
        assert!(r.resources.is_full());
        assert!(e.resources(binary).unwrap().is_full());
    }

    #[test]
    fn observe_verdict_batch_orders_responses_by_first_arrival() {
        let mut e = fusion_engine(10, FusionConfig::default());
        let batch = vec![
            (ProcessId(3), Verdict::new(0, 1.0)),
            (ProcessId(1), Verdict::new(0, 0.0)),
            (ProcessId(3), Verdict::new(1, 1.0)),
        ];
        let r = e.observe_verdict_batch(&batch);
        assert_eq!(r.len(), 2, "two processes, three verdicts");
        assert_eq!(r[0].pid, ProcessId(3));
        assert_eq!(r[1].pid, ProcessId(1));
        assert_eq!(e.tracked(), 2);
    }
}
