//! # Valkyrie — a post-detection response framework
//!
//! This crate implements the primary contribution of *"Valkyrie: A Response
//! Framework to Augment Runtime Detection of Time-Progressive Attacks"*
//! (DSN 2025): a response layer that sits **behind** any runtime detector and
//! decides, epoch by epoch, how to react to its inferences.
//!
//! Instead of terminating a process the moment a detector flags it (which
//! destroys falsely-accused benign programs), Valkyrie:
//!
//! 1. tracks a bounded **threat index** per process driven by configurable
//!    penalty/compensation assessment functions ([`threat`], Algorithm 1);
//! 2. walks each process through the `normal → suspicious → terminable →
//!    terminated` state machine of the paper's Fig. 3 ([`state`]);
//! 3. throttles the system resources the process depends on via **actuator
//!    functions** ([`actuator`], Eq. 8) while the detector accumulates the
//!    `N*` measurements required to meet a user-specified **detection
//!    efficacy** ([`efficacy`], Section IV-A);
//! 4. terminates the process only in the *terminable* state, and fully
//!    restores resources if the final classification is benign.
//!
//! The expected impact on attacks and on falsely-classified benign programs
//! is quantified by the **slowdown model** ([`slowdown`], Eqs. 2–4).
//!
//! Beyond the paper, the crate grows a **scaling tier**: a [`ShardedEngine`]
//! ([`sharded`]) partitions thousands of processes across
//! [`ValkyrieEngine`] shards behind a batched, thread-parallel
//! `observe_batch` / `tick` API with identical Algorithm 1 semantics:
//! large batches fan out over per-batch scoped threads, small ones stay on
//! the caller's thread. The [`ingest`] tier decouples the
//! two halves of Fig. 2 in time: detector threads publish classifications
//! into bounded per-shard queues ([`IngestPublisher`], with explicit
//! [`OverflowPolicy`] semantics) and the epoch driver drains whatever has
//! arrived with [`ShardedEngine::drain_tick`], so a slow or wedged
//! detector can no longer stall the response tick.
//!
//! # Quick start
//!
//! ```
//! use valkyrie_core::prelude::*;
//!
//! // Detector needs 15 measurements to reach the required efficacy.
//! let config = EngineConfig::builder()
//!     .measurements_required(15)
//!     .penalty(AssessmentFn::incremental())
//!     .compensation(AssessmentFn::incremental())
//!     .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
//!     .build()
//!     .expect("valid config");
//! let mut engine = ValkyrieEngine::new(config);
//!
//! let pid = ProcessId(1);
//! // An attack that is flagged every epoch is throttled, then terminated.
//! for _ in 0..15 {
//!     engine.observe(pid, Classification::Malicious);
//! }
//! let resp = engine.observe(pid, Classification::Malicious);
//! assert_eq!(resp.state, ProcessState::Terminated);
//! ```

pub mod actuator;
pub mod efficacy;
pub mod engine;
pub mod error;
pub mod fleet;
pub mod hash;
pub mod ingest;
pub mod invariants;
pub mod monitor;
pub mod resource;
pub mod sharded;
pub mod slowdown;
pub mod state;
mod table;
pub mod telemetry;
pub mod threat;

pub use ingest::CoalesceKey;
pub use prelude::*;
pub use sharded::host_parallelism;
pub use slowdown::ResponseTrace;

/// Convenient glob import of the crate's primary types. The crate root
/// re-exports all of them, plus [`CoalesceKey`], [`host_parallelism`] and
/// [`ResponseTrace`].
pub mod prelude {
    pub use crate::actuator::{LawFamily, ShareActuator, ThrottleLaw};
    pub use crate::efficacy::{EfficacyCurve, EfficacyPoint, EfficacySpec};
    pub use crate::engine::{
        Action, EngineConfig, EngineConfigBuilder, EngineResponse, FusionConfig, ValkyrieEngine,
    };
    pub use crate::error::ValkyrieError;
    pub use crate::fleet::FleetEngine;
    pub use crate::ingest::{IngestDefense, IngestPublisher, OverflowPolicy};
    pub use crate::monitor::{EscalationLadder, EscalationLevel};
    pub use crate::resource::{ProcessId, ResourceKind, ResourceVector};
    pub use crate::sharded::{Responses, ShardedEngine};
    pub use crate::slowdown::{simulate_response, slowdown_percent};
    pub use crate::state::ProcessState;
    pub use crate::telemetry::{FusionStats, IngestStats};
    pub use crate::threat::{AssessmentFn, Classification, ThreatIndex, Verdict};
}
