//! Engine counters: [`IngestStats`] for the async ingest tier and
//! [`FusionStats`] for the verdict-fusion tier, both pulled on demand.

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
    pub(crate) fn saw(&mut self, detector: u32) {
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

#[cfg(test)]
mod tests {
    use super::*;

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
