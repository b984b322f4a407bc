//! Response telemetry: an audit log over engine responses.
//!
//! A deployment of Valkyrie needs to answer two operator questions after the
//! fact: *what did the response layer do to each process* (for incident
//! forensics), and *how much benign work did false positives cost* (the R2
//! accounting of Section V-C). [`ResponseLog`] records every
//! [`EngineResponse`] and maintains per-process summaries so both questions
//! have cheap answers without replaying the detector.
//!
//! # Examples
//!
//! ```
//! use valkyrie_core::prelude::*;
//! use valkyrie_core::telemetry::ResponseLog;
//!
//! let config = EngineConfig::builder()
//!     .measurements_required(3)
//!     .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
//!     .build()?;
//! let mut engine = ValkyrieEngine::new(config);
//! let mut log = ResponseLog::new();
//!
//! let pid = ProcessId(9);
//! for epoch in 1..=4 {
//!     let resp = engine.observe(pid, Classification::Malicious);
//!     log.record(epoch, &resp);
//! }
//! let s = log.summary(pid).expect("recorded");
//! assert!(s.terminated);
//! assert!(s.throttled_epochs >= 2);
//! assert_eq!(log.terminations(), 1);
//! # Ok::<(), valkyrie_core::ValkyrieError>(())
//! ```

use crate::engine::{Action, EngineResponse};
use crate::resource::ProcessId;
use crate::state::ProcessState;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Counters of the async ingest tier (see [`crate::ingest`]): how many
/// observations the detector threads published, how many the drains
/// consumed, and — the operator question that matters under overload —
/// how many were lost or merged by the overflow policy.
///
/// Snapshot via
/// [`ShardedEngine::ingest_stats`](crate::ShardedEngine::ingest_stats) or
/// [`IngestPublisher::stats`](crate::ingest::IngestPublisher::stats).
/// Dropped observations are never silent: a non-zero `dropped` (or a
/// growing `coalesced`) is the signal to resize the rings or slow the
/// detector tier down.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Observations accepted by the rings (coalesced ones included).
    pub published: u64,
    /// Observations handed to the engine by drains.
    pub drained: u64,
    /// Observations evicted by `DropOldest` (or `Coalesce`'s fallback).
    pub dropped: u64,
    /// Observations merged into an existing same-(pid, key) entry by
    /// `Coalesce`.
    pub coalesced: u64,
    /// Observations currently waiting in the rings (both lanes).
    pub queued: usize,
    /// Observations routed through the priority lane because the engine's
    /// threat hints marked their pid suspicious (defended rings only).
    pub priority_queued: u64,
    /// Overflow evictions that fair queueing redirected away from the
    /// publisher the naive policy would have victimised — each one is an
    /// observation a flooding publisher failed to destroy.
    pub evictions_deflected: u64,
    /// Evictions charged to each publisher handle (index = publisher id;
    /// ids start at 1, so slot 0 stays zero). Empty until something is
    /// dropped.
    pub dropped_by_publisher: Vec<u64>,
}

impl IngestStats {
    /// Observations that never reached the engine (evictions; coalesced
    /// observations *did* reach it, merged into their successor).
    pub fn lost(&self) -> u64 {
        self.dropped
    }
}

/// Counters of the verdict-fusion tier: how much per-detector evidence the
/// engine absorbed, how often slow members went stale, and how often the
/// escalation ladder was climbed.
///
/// Escalation transitions are counted on *both* observation paths — a
/// binary `observe` that moves a process from no action to throttling (or
/// to termination) climbs the ladder just like a fused mass does — so the
/// counter is meaningful for legacy deployments too.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FusionStats {
    /// Per-detector verdicts absorbed by the fusion table.
    pub verdicts: u64,
    /// Member contributions down-weighted because their verdict outlived
    /// its cadence (one count per stale member per fused epoch).
    pub stale_decayed: u64,
    /// Upward escalation-ladder transitions into `Throttle` or `Kill`.
    pub escalations: u64,
    /// Verdicts absorbed per detector id (index = detector id).
    pub per_detector: Vec<u64>,
}

impl FusionStats {
    /// Records one absorbed verdict from `detector`.
    pub fn saw(&mut self, detector: u32) {
        self.verdicts += 1;
        let idx = detector as usize;
        if self.per_detector.len() <= idx {
            self.per_detector.resize(idx + 1, 0);
        }
        self.per_detector[idx] += 1;
    }

    /// Folds another shard's counters into this one.
    pub fn merge(&mut self, other: &FusionStats) {
        self.verdicts += other.verdicts;
        self.stale_decayed += other.stale_decayed;
        self.escalations += other.escalations;
        if self.per_detector.len() < other.per_detector.len() {
            self.per_detector.resize(other.per_detector.len(), 0);
        }
        for (mine, theirs) in self.per_detector.iter_mut().zip(&other.per_detector) {
            *mine += theirs;
        }
    }
}

/// One recorded `(epoch, process)` response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogEntry {
    /// Epoch at which the response was recorded (caller-supplied).
    pub epoch: u64,
    /// The process concerned.
    pub pid: ProcessId,
    /// Fig. 3 state after the epoch.
    pub state: ProcessState,
    /// Threat index after the epoch.
    pub threat: f64,
    /// CPU share enforced for the next epoch.
    pub cpu_share: f64,
    /// The action the engine requested.
    pub action: Action,
}

/// Running per-process aggregate maintained by [`ResponseLog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessSummary {
    /// Epochs recorded for this process.
    pub epochs_observed: u64,
    /// Epochs spent with a CPU share below 1 (the throttled time).
    pub throttled_epochs: u64,
    /// Full restorations (`A_reset` or return-to-normal).
    pub restores: u64,
    /// Whether the process was terminated.
    pub terminated: bool,
    /// Lowest CPU share ever enforced.
    pub min_cpu_share: f64,
    /// Sum of enforced CPU shares (for the mean).
    cpu_share_sum: f64,
    /// Highest threat index reached.
    pub peak_threat: f64,
}

impl ProcessSummary {
    fn new() -> Self {
        Self {
            epochs_observed: 0,
            throttled_epochs: 0,
            restores: 0,
            terminated: false,
            min_cpu_share: 1.0,
            cpu_share_sum: 0.0,
            peak_threat: 0.0,
        }
    }

    /// Mean CPU share over the observed epochs (1.0 if none recorded).
    pub fn mean_cpu_share(&self) -> f64 {
        if self.epochs_observed == 0 {
            1.0
        } else {
            self.cpu_share_sum / self.epochs_observed as f64
        }
    }

    /// The Eq. 4 slowdown estimate implied by the recorded shares, assuming
    /// CPU-share-proportional progress.
    pub fn slowdown_percent(&self) -> f64 {
        (1.0 - self.mean_cpu_share()) * 100.0
    }
}

/// An append-only audit log of engine responses with per-process summaries.
#[derive(Debug, Clone, Default)]
pub struct ResponseLog {
    entries: Vec<LogEntry>,
    summaries: HashMap<ProcessId, ProcessSummary>,
}

impl ResponseLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one engine response observed at `epoch`.
    pub fn record(&mut self, epoch: u64, response: &EngineResponse) {
        let entry = LogEntry {
            epoch,
            pid: response.pid,
            state: response.state,
            threat: response.threat.value(),
            cpu_share: response.resources.cpu,
            action: response.action,
        };
        let s = self
            .summaries
            .entry(response.pid)
            .or_insert_with(ProcessSummary::new);
        s.epochs_observed += 1;
        s.cpu_share_sum += entry.cpu_share;
        if entry.cpu_share < 1.0 {
            s.throttled_epochs += 1;
        }
        if entry.cpu_share < s.min_cpu_share {
            s.min_cpu_share = entry.cpu_share;
        }
        if entry.threat > s.peak_threat {
            s.peak_threat = entry.threat;
        }
        match entry.action {
            Action::Restore | Action::RestoreAndRecycle => s.restores += 1,
            Action::Terminate => s.terminated = true,
            Action::None | Action::Throttle | Action::Recover => {}
        }
        self.entries.push(entry);
    }

    /// All recorded entries, in insertion order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Entries concerning one process, in insertion order.
    pub fn entries_for(&self, pid: ProcessId) -> impl Iterator<Item = &LogEntry> + '_ {
        self.entries.iter().filter(move |e| e.pid == pid)
    }

    /// The running summary of a process, if any epoch was recorded.
    pub fn summary(&self, pid: ProcessId) -> Option<&ProcessSummary> {
        self.summaries.get(&pid)
    }

    /// Number of processes that were terminated.
    pub fn terminations(&self) -> usize {
        self.summaries.values().filter(|s| s.terminated).count()
    }

    /// Number of processes ever observed.
    pub fn processes(&self) -> usize {
        self.summaries.len()
    }

    /// Total entries recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders a per-process summary table (one line per process, sorted by
    /// process id) for operator consumption.
    pub fn render_summary(&self) -> String {
        let mut pids: Vec<ProcessId> = self.summaries.keys().copied().collect();
        pids.sort_by_key(|p| p.0);
        let mut out = String::from(
            "pid  epochs  throttled  restores  min-share  mean-share  peak-threat  terminated\n",
        );
        for pid in pids {
            let s = &self.summaries[&pid];
            let _ = writeln!(
                out,
                "{:<4} {:<7} {:<10} {:<9} {:<10.2} {:<11.2} {:<12.1} {}",
                pid.0,
                s.epochs_observed,
                s.throttled_epochs,
                s.restores,
                s.min_cpu_share,
                s.mean_cpu_share(),
                s.peak_threat,
                s.terminated,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuator::ShareActuator;
    use crate::engine::{EngineConfig, ValkyrieEngine};
    use crate::threat::Classification;
    use Classification::{Benign, Malicious};

    fn engine(n_star: u64) -> ValkyrieEngine {
        ValkyrieEngine::new(
            EngineConfig::builder()
                .measurements_required(n_star)
                .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
                .build()
                .unwrap(),
        )
    }

    fn drive(log: &mut ResponseLog, e: &mut ValkyrieEngine, pid: ProcessId, cs: &[Classification]) {
        for (i, &c) in cs.iter().enumerate() {
            let resp = e.observe(pid, c);
            log.record(i as u64 + 1, &resp);
        }
    }

    #[test]
    fn empty_log_has_no_processes() {
        let log = ResponseLog::new();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.processes(), 0);
        assert_eq!(log.terminations(), 0);
        assert!(log.summary(ProcessId(1)).is_none());
    }

    #[test]
    fn attack_summary_shows_throttle_and_termination() {
        let mut e = engine(3);
        let mut log = ResponseLog::new();
        drive(&mut log, &mut e, ProcessId(1), &[Malicious; 5]);
        let s = log.summary(ProcessId(1)).unwrap();
        assert!(s.terminated);
        assert!(s.throttled_epochs >= 2);
        assert!(s.min_cpu_share < 0.5);
        assert!(s.peak_threat >= 6.0);
        assert_eq!(log.terminations(), 1);
    }

    #[test]
    fn benign_summary_shows_recovery_without_termination() {
        let mut e = engine(100);
        let mut log = ResponseLog::new();
        drive(
            &mut log,
            &mut e,
            ProcessId(2),
            &[Malicious, Malicious, Benign, Benign, Benign, Benign],
        );
        let s = log.summary(ProcessId(2)).unwrap();
        assert!(!s.terminated);
        assert!(s.restores >= 1, "return-to-normal must count as a restore");
        assert!(s.mean_cpu_share() > 0.5);
        assert_eq!(log.terminations(), 0);
    }

    #[test]
    fn mean_share_and_slowdown_are_consistent() {
        let mut e = engine(100);
        let mut log = ResponseLog::new();
        drive(&mut log, &mut e, ProcessId(3), &[Benign; 10]);
        let s = log.summary(ProcessId(3)).unwrap();
        assert_eq!(s.mean_cpu_share(), 1.0);
        assert_eq!(s.slowdown_percent(), 0.0);
        assert_eq!(s.throttled_epochs, 0);
    }

    #[test]
    fn entries_for_filters_by_process() {
        let mut e = engine(50);
        let mut log = ResponseLog::new();
        drive(&mut log, &mut e, ProcessId(1), &[Malicious, Benign]);
        drive(&mut log, &mut e, ProcessId(2), &[Benign; 3]);
        assert_eq!(log.entries_for(ProcessId(1)).count(), 2);
        assert_eq!(log.entries_for(ProcessId(2)).count(), 3);
        assert_eq!(log.len(), 5);
        assert_eq!(log.processes(), 2);
    }

    #[test]
    fn summary_table_renders_every_process() {
        let mut e = engine(50);
        let mut log = ResponseLog::new();
        drive(&mut log, &mut e, ProcessId(7), &[Malicious; 3]);
        drive(&mut log, &mut e, ProcessId(8), &[Benign; 3]);
        let table = log.render_summary();
        assert!(table.contains('7') && table.contains('8'));
        assert!(table.contains("terminated"));
    }

    #[test]
    fn fresh_summary_mean_share_defaults_to_full() {
        let s = ProcessSummary::new();
        assert_eq!(s.mean_cpu_share(), 1.0);
    }

    #[test]
    fn fusion_stats_count_per_detector_and_merge() {
        let mut a = FusionStats::default();
        a.saw(0);
        a.saw(2);
        a.saw(2);
        assert_eq!(a.verdicts, 3);
        assert_eq!(a.per_detector, vec![1, 0, 2]);
        let mut b = FusionStats::default();
        b.saw(1);
        b.escalations = 4;
        b.stale_decayed = 2;
        a.merge(&b);
        assert_eq!(a.verdicts, 4);
        assert_eq!(a.per_detector, vec![1, 1, 2]);
        assert_eq!(a.escalations, 4);
        assert_eq!(a.stale_decayed, 2);
    }
}
