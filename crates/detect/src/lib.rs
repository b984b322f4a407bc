//! Runtime detectors producing the per-epoch inferences Valkyrie consumes.
//!
//! The paper augments *existing* detectors; this crate provides faithful
//! stand-ins for the families it cites:
//!
//! * [`statistical`] — a z-score threshold detector over HPC samples
//!   (HexPADS / ANVIL style, used by the micro-architectural, rowhammer and
//!   cryptominer case studies). Deliberately simple and false-positive
//!   prone: "a simple statistical detector effectively demonstrates the
//!   capabilities of Valkyrie" (Section VI-A).
//! * [`ml_backed`] — wrappers turning the `valkyrie-ml` models into epoch
//!   detectors: per-measurement majority voting (SVM / XGBoost style),
//!   mean-pooled feature classification (ANN style) and sequence prefixes
//!   (LSTM style).
//! * [`scripted`] — deterministic inference streams for tests and the
//!   analytic examples.
//! * [`latency`] — a wrapper delaying any detector's verdicts by a
//!   configurable number of ticks (plus deterministic jitter), modelling
//!   slow/jittery inference for the async ingest tier.
//! * [`efficacy`] — measures F1/FPR as a function of the number of
//!   measurements (Fig. 1) and hands the result to the core `N*` planner.
//!
//! # Examples
//!
//! ```
//! use valkyrie_detect::scripted::ScriptedDetector;
//! use valkyrie_detect::Detector;
//! use valkyrie_core::{Classification, ProcessId};
//! use valkyrie_hpc::SampleWindow;
//!
//! let mut d = ScriptedDetector::cycle(vec![Classification::Malicious, Classification::Benign]);
//! let w = SampleWindow::new(4);
//! assert_eq!(d.infer(ProcessId(1), &w), Classification::Malicious);
//! assert_eq!(d.infer(ProcessId(1), &w), Classification::Benign);
//! ```

pub mod efficacy;
pub mod ensemble;
pub mod latency;
pub mod ml_backed;
pub mod scripted;
pub mod statistical;
pub mod voting;

pub use efficacy::{measure_efficacy, measure_efficacy_votes, EfficacyGrid};
pub use ensemble::{CombinationRule, EnsembleDetector, MultiLevelDetector};
pub use latency::LatencyModel;
pub use ml_backed::{LstmDetector, MajorityVoteDetector, PooledDetector};
pub use scripted::ScriptedDetector;
pub use statistical::StatisticalDetector;
pub use voting::{SampleClassifier, VotingDetector};

use valkyrie_core::{Classification, ProcessId};
use valkyrie_hpc::SampleWindow;

/// A runtime detector: one inference per process per epoch
/// (`D(t, i)` in the paper).
///
/// `window` is the process's measurement history collected so far; the
/// detector may use any amount of it.
pub trait Detector {
    /// Human-readable detector name (used in experiment output).
    fn name(&self) -> &str;

    /// Classifies the process behaviour for this epoch.
    fn infer(&mut self, pid: ProcessId, window: &SampleWindow) -> Classification;

    /// Classifies the process behaviour for this epoch **with a
    /// confidence** in `[0, 1]` — the evidence the fusion tier weighs
    /// (`0.0` = certainly benign, `1.0` = certainly malicious).
    ///
    /// The default maps [`Detector::infer`] to the extremes, so every
    /// binary detector is a degenerate confidence emitter; families with a
    /// native score (vote fractions, z-score margins, model
    /// probabilities) override it. Like `infer`, this *advances* the
    /// detector's per-epoch state — call one or the other per epoch, not
    /// both.
    fn infer_confidence(&mut self, pid: ProcessId, window: &SampleWindow) -> f64 {
        match self.infer(pid, window) {
            Classification::Malicious => 1.0,
            Classification::Benign => 0.0,
        }
    }
}
