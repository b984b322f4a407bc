//! The scaling tier: a sharded, batch-oriented Valkyrie engine.
//!
//! The paper's engine answers one detector inference at a time; a
//! production deployment watches **thousands of processes per tick**. A
//! [`ShardedEngine`] partitions processes by [`ProcessId`] hash across `N`
//! independent [`ValkyrieEngine`] shards and exposes a batch API:
//! [`ShardedEngine::observe_batch`] feeds one epoch's inferences for the
//! whole fleet and returns the responses in input order.
//!
//! A large batch runs as one three-phase fan-out over `W = min(shards,
//! cores)` workers, each phase on [`std::thread::scope`] threads, so no
//! threads exist between ticks:
//!
//! 1. **Partition.** The batch is cut into `W` contiguous slices, and
//!    worker `w` buckets its slice by owning shard.
//! 2. **Step.** Shards are chunked onto the workers. Shard `s` steps its
//!    buckets from slice 0, then slice 1, and so on — which is batch order
//!    — and keeps one reply list per bucket. Each shard's pass is one walk
//!    of its process table. Round robin, one shard per step phase records
//!    its walk on that phase and the next, and on the second may re-lay
//!    its table in walk order, which keeps the table's lookup cursor in
//!    step with a churning fleet. With six or more shards, a shard
//!    halfway round whose table outgrows L2 takes a second such turn in
//!    the same phase, so a two-worker fan-out over an even number of
//!    shards re-lays at most one shard per worker per phase.
//! 3. **Gather.** Worker `w` walks its slice again and copies each
//!    observation's reply from its shard's list into its own contiguous
//!    part of the output.
//!
//! Buckets and reply lists are reused across ticks. The ingest drain runs
//! the same step phase on the per-shard lists its rings empty into. Small
//! batches — and single-core hosts, where a spawn is pure loss — stay on
//! the caller's thread and send each observation straight to its shard
//! ([`ShardedEngine::set_parallel_threshold`] moves the crossover).
//!
//! # The output buffer
//!
//! [`ShardedEngine::observe_batch`] and [`ShardedEngine::tick`] return a
//! [`Responses`] handle, which derefs to `[EngineResponse]` and gives its
//! buffer back to the engine when it is dropped. The engine keeps that one
//! spare buffer, and the next batch call overwrites it in place. A driver
//! that drops each tick's responses before the next tick therefore
//! allocates no output: at a million responses the output is 56 MB, more
//! than the allocator maps and unmaps for free, and a fresh buffer would
//! fault every page of it in on the caller's thread. Holding a handle
//! across the next call makes that call allocate a fresh buffer; whichever
//! handle is dropped later offers its buffer back, and the engine keeps the
//! larger. [`Responses::into_vec`] detaches the buffer for good. A handle
//! may be dropped on any thread, and one that outlives its engine frees
//! its buffer.
//!
//! The drain and verdict entry points ([`ShardedEngine::drain_batch`],
//! [`ShardedEngine::drain_tick`] and
//! [`ShardedEngine::observe_verdict_batch`]) still return a `Vec`. Their
//! drivers, perfbench's tenant driver among them, name that type, and the
//! binary and verdict observation paths are to become one before their
//! output changes shape.
//!
//! The verdict path ([`ShardedEngine::observe_verdict_batch`] and the
//! verdict half of [`ShardedEngine::drain_batch`]) runs shard by shard on
//! the caller's thread: each shard absorbs its verdicts, registering new
//! processes as it goes, then fuses each touched process once by its table
//! position. The serial routes (the inline batch route, a one-shard
//! engine and the verdict path) bracket each shard's pass with a walk of
//! its table, under the same round-robin turn as the fan-out, so the
//! lookup cursor stays in step with churn on every route.
//!
//! Algorithm 1 semantics are **bit-for-bit identical** to a single
//! [`ValkyrieEngine`] on every path: the monitor
//! state is strictly per process, shard placement is a pure deterministic
//! function of the pid ([`crate::hash::mix64`]), and observations of the
//! same pid within a batch are applied in batch order by whichever shard
//! owns it.
//!
//! # The response order
//!
//! Binary responses ([`ShardedEngine::observe_batch`],
//! [`ShardedEngine::tick`] and the binary half of a drain) come one per
//! observation, in input order, or for a drain in publish order. Verdict
//! responses ([`ShardedEngine::observe_verdict_batch`] and the verdict half
//! of a drain, after the binary half) come one per process with fresh
//! evidence, grouped by ascending [`ShardedEngine::shard_of`] and in
//! first-arrival order within a shard: a single engine's first-arrival
//! order, stably sorted by shard.
//!
//! The conformance harness (`tests/conformance.rs`) is this contract:
//! seeded operation traces over every entry point, on 1, 2, 7 and 16 shards
//! and a fleet shape, inline and forced-parallel, each compared bit for bit
//! with a single engine fed the same operations, and every response checked
//! against the paper's invariants ([`crate::invariants`]).
//!
//! # Examples
//!
//! ```
//! use valkyrie_core::prelude::*;
//!
//! let config = EngineConfig::builder()
//!     .measurements_required(5)
//!     .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
//!     .build()
//!     .unwrap();
//! let mut engine = ShardedEngine::with_capacity(config, 4, 10_000);
//! let batch: Vec<(ProcessId, Classification)> = (0..10_000)
//!     .map(|pid| (ProcessId(pid), Classification::Benign))
//!     .collect();
//! let responses = engine.tick(&batch);
//! assert_eq!(responses.len(), 10_000);
//! assert_eq!(engine.tracked_live(), 10_000);
//! assert_eq!(engine.epoch(), 1);
//! ```

use crate::engine::{Action, EngineConfig, EngineResponse, ValkyrieEngine};
use crate::error::ValkyrieError;
use crate::hash::shard_of;
use crate::ingest::{
    merge_by_seq, CoalesceKey, IngestDefense, IngestPublisher, IngestQueues, OverflowPolicy,
    ThreatHints,
};
use crate::resource::{ProcessId, ResourceVector};
use crate::state::ProcessState;
use crate::telemetry::{FusionStats, IngestStats};
use crate::threat::{Classification, ThreatIndex, Verdict};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

/// Cached [`std::thread::available_parallelism`] (1 on error).
///
/// The underlying call re-reads cgroup limits from the kernel every time —
/// ~10 µs on Linux — which adds up for drivers that construct many
/// short-lived engines (e.g. a sweep building one per grid point). The host
/// core count cannot change under us in any deployment we care about, so
/// one probe per process is enough.
pub fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Batches smaller than this per call run on the caller's thread even with
/// multiple shards. A fan-out pays three rounds of thread spawns plus the
/// partition and gather passes; on a 2-core x86-64 host (~50 µs per spawn)
/// it lost to the inline path at 1k, 10k and 30k observations and won at
/// 100k. Tunable via [`ShardedEngine::set_parallel_threshold`].
const DEFAULT_PARALLEL_THRESHOLD: usize = 65_536;

/// A partition-scratch slot whose capacity exceeds this multiple of what
/// the last batch actually needed is shrunk back, so one giant batch does
/// not pin its peak allocation for the rest of the engine's life.
const SCRATCH_SHRINK_FACTOR: usize = 8;

/// Scratch capacity below this is never shrunk — churning tiny
/// reallocations to save a few hundred bytes per shard is a net loss.
const SCRATCH_MIN_CAPACITY: usize = 64;

/// A fleet-scale engine: `N` independent [`ValkyrieEngine`]s behind a batch
/// API plus an epoch-tick driver, fanned out over per-batch scoped
/// threads.
///
/// See the [module docs](self) for the equivalence guarantees.
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<ValkyrieEngine>,
    epoch: u64,
    purged_total: u64,
    parallel_threshold: usize,
    /// `min(shards, host cores)`, resolved once at construction so the
    /// per-tick hot path never pays the affinity syscall.
    host_workers: usize,
    /// The partition phase's buckets: slot `w * shards + s` holds slice
    /// `w`'s observations owned by shard `s`. The binary drain empties its
    /// rings into the first `shards` slots, as if the drain were one slice.
    /// Reused across batches (and shrunk back after outlier batches, see
    /// [`SCRATCH_SHRINK_FACTOR`]), and sized on first use.
    buckets: Vec<Vec<(ProcessId, Classification)>>,
    /// The step phase's answers: slot `s * slices + w` holds shard `s`'s
    /// responses to bucket `w * shards + s`, in bucket order.
    replies: Vec<Vec<EngineResponse>>,
    /// The binary drain's publish stamps, aligned slot-for-slot with the
    /// first `shards` buckets.
    seqs: Vec<Vec<u64>>,
    /// Per-shard verdict scratch: a verdict batch's partition, or what the
    /// verdict drain emptied out of the rings.
    vparts: Vec<Vec<(ProcessId, Verdict)>>,
    /// The binary classification rings, once
    /// [`ShardedEngine::enable_ingest`] has built them.
    ingest: Lane<Classification>,
    /// The fusion tier's verdict rings, once
    /// [`ShardedEngine::enable_verdict_ingest`] has built them. Both lanes
    /// can be enabled at once, and one [`ShardedEngine::drain_tick`]
    /// serves both.
    verdicts: Lane<Verdict>,
    /// The suspicious-pid feedback channel for defended rings
    /// ([`crate::ingest::ThreatHints`]), refreshed from every response
    /// this engine returns.
    hints: Arc<ThreatHints>,
    /// Whether the binary rings route on the hints (skips the feedback
    /// pass, and the hint clearing in [`ShardedEngine::forget`] and
    /// [`ShardedEngine::complete`], for undefended engines).
    hints_active: bool,
    /// The shard whose turn to record its walk, and to re-lay its table on
    /// the pass after, begins next. Advanced round robin by every pass that
    /// walks the tables: a step phase, an inline batch or a verdict pass.
    relay_turn: usize,
    /// The spare output buffer that dropped [`Responses`] give back, made
    /// by the first batch call that returns one.
    spare: Option<Arc<Mutex<Vec<EngineResponse>>>>,
}

/// One batch's responses, in input order, as [`ShardedEngine::observe_batch`]
/// and [`ShardedEngine::tick`] return them. Derefs to `[EngineResponse]`.
///
/// Dropping the handle gives its buffer back to the engine that filled it,
/// for the next batch call to overwrite in place (see the
/// [module docs](self#the-output-buffer)); [`Self::into_vec`] keeps it
/// instead.
pub struct Responses {
    buf: Vec<EngineResponse>,
    /// The engine's spare slot; dangling for a detached handle, or once the
    /// engine is gone.
    home: Weak<Mutex<Vec<EngineResponse>>>,
}

impl Responses {
    /// Detaches the buffer from its engine and returns it.
    pub fn into_vec(mut self) -> Vec<EngineResponse> {
        std::mem::take(&mut self.buf)
    }
}

impl Drop for Responses {
    /// Offers the buffer to the engine's spare slot, which keeps the larger
    /// of the two; the other one is freed here.
    fn drop(&mut self) {
        if self.buf.capacity() == 0 {
            return;
        }
        let Some(home) = self.home.upgrade() else {
            return;
        };
        // The slot holds a whole `Vec` at every step, so a poisoned lock
        // still guards valid data.
        let mut spare = home.lock().unwrap_or_else(PoisonError::into_inner);
        if spare.capacity() < self.buf.capacity() {
            std::mem::swap(&mut *spare, &mut self.buf);
        }
    }
}

impl Deref for Responses {
    type Target = [EngineResponse];

    fn deref(&self) -> &[EngineResponse] {
        &self.buf
    }
}

impl DerefMut for Responses {
    fn deref_mut(&mut self) -> &mut [EngineResponse] {
        &mut self.buf
    }
}

impl fmt::Debug for Responses {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.buf.fmt(f)
    }
}

impl PartialEq for Responses {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}

impl PartialEq<Vec<EngineResponse>> for Responses {
    fn eq(&self, other: &Vec<EngineResponse>) -> bool {
        self.buf == *other
    }
}

impl PartialEq<Responses> for Vec<EngineResponse> {
    fn eq(&self, other: &Responses) -> bool {
        *self == other.buf
    }
}

/// A detached handle: dropping it frees the buffer.
impl From<Vec<EngineResponse>> for Responses {
    fn from(buf: Vec<EngineResponse>) -> Self {
        Self {
            buf,
            home: Weak::new(),
        }
    }
}

impl IntoIterator for Responses {
    type Item = EngineResponse;
    type IntoIter = std::vec::IntoIter<EngineResponse>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Responses {
    type Item = &'a EngineResponse;
    type IntoIter = std::slice::Iter<'a, EngineResponse>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf.iter()
    }
}

/// One payload's async ingest rings — binary classifications or fusion
/// verdicts — once enabled, `Arc`-shared with every publisher handle.
/// Both payloads go through this one code path. The drain scratch stays
/// with the engine, so a lane owns no buffers of its own.
#[derive(Debug)]
struct Lane<P>(Option<Arc<IngestQueues<P>>>);

impl<P: CoalesceKey> Lane<P> {
    /// Closes the current rings, if any (their blocked publishers wake,
    /// their handles start returning `false`, and anything still queued
    /// in them is discarded), then builds fresh ones.
    fn replace(
        &mut self,
        nshards: usize,
        capacity: usize,
        policy: OverflowPolicy,
        defense: IngestDefense,
        hints: &Arc<ThreatHints>,
    ) -> IngestPublisher<P> {
        self.close();
        let queues =
            IngestQueues::with_defense(nshards, capacity, policy, defense, Arc::clone(hints));
        self.0 = Some(Arc::clone(&queues));
        IngestPublisher::new(queues)
    }

    fn close(&self) {
        if let Some(queues) = &self.0 {
            queues.close();
        }
    }

    fn stats(&self) -> Option<IngestStats> {
        self.0.as_ref().map(|queues| queues.stats())
    }

    /// Empties every ring into its shard's `parts` slot (cleared first),
    /// and each entry's publish stamp into `seqs` when the caller merges
    /// by stamp. Returns `false`, touching nothing, if the lane was never
    /// enabled.
    fn drain_into(
        &self,
        parts: &mut [Vec<(ProcessId, P)>],
        mut seqs: Option<&mut [Vec<u64>]>,
    ) -> bool {
        let Some(queues) = &self.0 else {
            return false;
        };
        for (shard, part) in parts.iter_mut().enumerate() {
            part.clear();
            let stamps = seqs.as_deref_mut().map(|seqs| {
                let slot = &mut seqs[shard];
                slot.clear();
                slot
            });
            queues.drain_shard_into(shard, part, stamps);
        }
        true
    }
}

/// Buckets `batch` into `parts` (cleared first) under the pid routing
/// rule, one slot per shard, keeping batch order within each slot.
fn partition_into<T: Copy>(batch: &[(ProcessId, T)], parts: &mut [Vec<(ProcessId, T)>]) {
    parts.iter_mut().for_each(Vec::clear);
    for &(pid, payload) in batch {
        parts[shard_of(pid.0, parts.len())].push((pid, payload));
    }
}

/// Resizes a scratch vector to exactly `len` slots (new slots are empty,
/// surplus ones are dropped) and returns them.
fn slots<T>(scratch: &mut Vec<Vec<T>>, len: usize) -> &mut [Vec<T>] {
    scratch.resize_with(len, Vec::new);
    scratch
}

/// The single scratch-shrink policy: each slot keeps at most
/// [`SCRATCH_SHRINK_FACTOR`]× what it currently holds, never dropping
/// below [`SCRATCH_MIN_CAPACITY`]. Without this, one giant batch pins its
/// peak capacity for the rest of the engine's life.
fn shrink_slots<T>(slots: &mut [Vec<T>]) {
    for slot in slots {
        let need = slot.len().max(SCRATCH_MIN_CAPACITY);
        if slot.capacity() > need * SCRATCH_SHRINK_FACTOR {
            slot.shrink_to(need);
        }
    }
}

/// Runs `work` on every job: the caller's thread takes the first job and
/// one scoped thread each takes the rest. Every thread is joined before
/// this returns, and a panicking job re-raises its own payload on the
/// caller's thread.
fn fan_out<T: Send>(jobs: impl IntoIterator<Item = T>, work: impl Fn(T) + Sync) {
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else {
        return;
    };
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.map(|job| scope.spawn(move || work(job))).collect();
        work(first);
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// Whether `shard`, shard `s` of `nshards`, records its walk in the pass
/// whose relay turn is `turn`. A shard's turn spans two passes: shard
/// `turn` records, and so does the shard whose turn began one pass
/// earlier, which may then re-lay its table in its walk's order (see the
/// `table` module).
///
/// With six or more shards a second turn runs in the same pass,
/// `nshards / 2` shards round, for shards whose table is large (see
/// [`ValkyrieEngine::has_large_table`]), where a cursor miss costs a cache
/// miss. So at most two shards re-lay per pass, and when a fan-out chunks
/// an even number of shards onto two workers, one turn falls in each
/// worker's chunk. Six keeps the two turns apart by at least one pass that
/// each shard does not record, so no shard records every pass.
fn records_walk(shard: &ValkyrieEngine, s: usize, nshards: usize, turn: usize) -> bool {
    let in_turn = |t: usize| s == t || (s + 1) % nshards == t;
    in_turn(turn)
        || (nshards >= 6 && shard.has_large_table() && in_turn((turn + nshards / 2) % nshards))
}

/// Ends shard `s`'s walk in the pass whose relay turn is `turn`, telling
/// its table whether it records the next pass too (so keeps its position
/// buffer for it: every pass, in a one- or two-shard engine).
fn end_walk(shard: &mut ValkyrieEngine, s: usize, nshards: usize, turn: usize) {
    let next_recorded = records_walk(shard, s, nshards, (turn + 1) % nshards);
    shard.end_walk(next_recorded);
}

/// Runs `pass` over `shards` as one walk of every shard's table, with the
/// relay turn `turn` (see [`records_walk`]). The serial routes use this:
/// a one-shard engine, the inline batch path and the verdict path.
fn walked(shards: &mut [ValkyrieEngine], turn: usize, pass: impl FnOnce(&mut [ValkyrieEngine])) {
    let nshards = shards.len();
    for (s, shard) in shards.iter_mut().enumerate() {
        shard.begin_walk(records_walk(shard, s, nshards, turn));
    }
    pass(shards);
    for (s, shard) in shards.iter_mut().enumerate() {
        end_walk(shard, s, nshards, turn);
    }
}

/// The step phase, shared by the batch and drain paths. `buckets` holds
/// `slices` groups of one slot per shard (slot `w * shards + s`), and
/// shard `s` steps its buckets in slice order `w = 0, 1, …`, writing its
/// answers to bucket `w` into `replies[s * slices + w]`. Slices are
/// consecutive runs of the batch, so each shard applies its observations
/// in batch order, exactly as a serial replay would. The shards are
/// chunked onto `threads` workers (an 8-shard engine on a 4-core host costs
/// 3 spawns, not 8); with one worker everything runs inline.
///
/// Each shard's pass is one walk of its process table, recorded by the
/// rule of [`records_walk`]; a re-lay runs on the shard's own worker.
fn step_shards(
    shards: &mut [ValkyrieEngine],
    buckets: &[Vec<(ProcessId, Classification)>],
    replies: &mut [Vec<EngineResponse>],
    threads: usize,
    turn: usize,
) {
    let nshards = shards.len();
    let slices = buckets.len() / nshards;
    debug_assert_eq!(replies.len(), buckets.len());
    if slices == 0 {
        return;
    }
    let chunk = nshards.div_ceil(threads.max(1));
    let jobs = shards
        .chunks_mut(chunk)
        .zip(replies.chunks_mut(chunk * slices))
        .enumerate();
    fan_out(jobs, |(job, (shards, replies))| {
        for (i, (shard, replies)) in shards
            .iter_mut()
            .zip(replies.chunks_mut(slices))
            .enumerate()
        {
            let s = job * chunk + i;
            shard.begin_walk(records_walk(shard, s, nshards, turn));
            for (w, reply) in replies.iter_mut().enumerate() {
                let bucket = &buckets[w * nshards + s];
                reply.clear();
                if reply.capacity() < bucket.len() {
                    // Grow by an eighth, not a doubling: reply lists span
                    // megabytes at fleet scale, and a fleet that drifts up
                    // by a few processes per tick would otherwise realloc
                    // (and fragment the heap) nearly every tick.
                    reply.reserve_exact(bucket.len() + bucket.len() / 8);
                }
                shard.observe_batch_into(bucket, reply);
            }
            end_walk(shard, s, nshards, turn);
        }
    });
}

impl ShardedEngine {
    /// Creates an engine with `shards` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(config: EngineConfig, shards: usize) -> Self {
        Self::with_capacity(config, shards, 0)
    }

    /// Creates an engine with `shards` partitions, each pre-sized for its
    /// share of `expected_procs` processes (see
    /// [`ValkyrieEngine::with_capacity`]).
    ///
    /// Hashing gives each shard a binomially distributed share, so each is
    /// sized four standard deviations above the mean: at a million
    /// processes over 16 shards that is ~1.6% more, and no shard's table
    /// has to reallocate its records as the fleet registers.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_capacity(config: EngineConfig, shards: usize, expected_procs: usize) -> Self {
        assert!(shards > 0, "a sharded engine needs at least one shard");
        let mean = expected_procs.div_ceil(shards);
        let per_shard = if shards == 1 {
            mean
        } else {
            mean + 4 * mean.isqrt()
        };
        Self {
            shards: (0..shards)
                .map(|_| ValkyrieEngine::with_capacity(config.clone(), per_shard))
                .collect(),
            epoch: 0,
            purged_total: 0,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            host_workers: host_parallelism().min(shards),
            buckets: Vec::new(),
            replies: Vec::new(),
            seqs: vec![Vec::new(); shards],
            vparts: vec![Vec::new(); shards],
            ingest: Lane(None),
            verdicts: Lane(None),
            hints: ThreatHints::new(),
            hints_active: false,
            relay_turn: 0,
            spare: None,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shared configuration (every shard holds a clone of it).
    pub fn config(&self) -> &EngineConfig {
        self.shards[0].config()
    }

    /// Epochs driven so far via [`Self::tick`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Terminated processes evicted so far, whether by [`Self::tick`]'s
    /// end-of-epoch purge or by direct [`Self::purge_terminated`] calls —
    /// both paths feed the same counter.
    pub fn purged_total(&self) -> u64 {
        self.purged_total
    }

    /// Overrides the batch size below which [`Self::observe_batch`] stays
    /// on the caller's thread. Shard placement and results are unaffected
    /// — this only moves the sequential/parallel crossover. A threshold of
    /// `0` forces the spawn path even on a single-core host (useful for
    /// equivalence tests; pure overhead otherwise). A one-shard engine
    /// always runs inline regardless: there is nothing to fan out.
    pub fn set_parallel_threshold(&mut self, threshold: usize) {
        self.parallel_threshold = threshold;
    }

    /// The shard that owns `pid`: a pure function of the pid, stable across
    /// runs and platforms for a fixed shard count (the workspace-wide
    /// routing rule, [`crate::hash::shard_of`]).
    pub fn shard_of(&self, pid: ProcessId) -> usize {
        shard_of(pid.0, self.shards.len())
    }

    /// Total capacity (in elements) currently retained by the fan-out
    /// scratch, summed over the partition buckets and the reply lists, so
    /// tests can pin the shrink policy: after an outlier batch the capacity
    /// must return to steady state instead of staying at its peak.
    #[cfg(test)]
    fn scratch_capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum::<usize>()
            + self.replies.iter().map(Vec::capacity).sum::<usize>()
    }

    /// Number of processes currently tracked across all shards,
    /// **terminated ones included** (they stay queryable until purged).
    pub fn tracked(&self) -> usize {
        self.shards.iter().map(ValkyrieEngine::tracked).sum()
    }

    /// Number of tracked processes that have not terminated.
    pub fn tracked_live(&self) -> usize {
        self.shards.iter().map(ValkyrieEngine::tracked_live).sum()
    }

    /// Current state of a process, if tracked.
    pub fn state(&self, pid: ProcessId) -> Option<ProcessState> {
        self.shards[self.shard_of(pid)].state(pid)
    }

    /// Current threat index of a process, if tracked.
    pub fn threat(&self, pid: ProcessId) -> Option<ThreatIndex> {
        self.shards[self.shard_of(pid)].threat(pid)
    }

    /// Current resource shares of a process, if tracked.
    pub fn resources(&self, pid: ProcessId) -> Option<ResourceVector> {
        self.shards[self.shard_of(pid)].resources(pid)
    }

    /// Feeds one inference for one process (the compatibility path; batch
    /// embedders should use [`Self::observe_batch`]).
    pub fn observe(&mut self, pid: ProcessId, inference: Classification) -> EngineResponse {
        let shard = self.shard_of(pid);
        let response = self.shards[shard].observe(pid, inference);
        self.update_hints(std::slice::from_ref(&response));
        response
    }

    /// Feeds one tick's per-detector verdicts for the whole fleet. Each
    /// shard absorbs its verdicts in batch order, then fuses every touched
    /// process **once** — so a process with three members reporting this
    /// tick takes one monitor step, not three. Returns one response per
    /// *process* with fresh evidence, in the verdict order of the
    /// [module docs](self#the-response-order).
    pub fn observe_verdict_batch(&mut self, batch: &[(ProcessId, Verdict)]) -> Vec<EngineResponse> {
        partition_into(batch, &mut self.vparts);
        // At most one response per verdict: one allocation, where growing
        // shard by shard would copy the output several times.
        let mut out = Vec::with_capacity(batch.len());
        self.fuse_vparts_into(&mut out);
        self.update_hints(&out);
        out
    }

    /// Absorbs each shard's `vparts` slot and fuses every touched process
    /// once, appending the responses shard by shard (within a shard:
    /// first-arrival order). Each shard's absorb pass is one walk of its
    /// table, under the same relay turn as the binary passes, so the lookup
    /// cursor stays in step with churn; a re-lay can only happen once the
    /// walk ends, after the fuse.
    fn fuse_vparts_into(&mut self, out: &mut Vec<EngineResponse>) {
        let turn = self.next_relay_turn();
        walked(&mut self.shards, turn, |shards| {
            for (shard, part) in shards.iter_mut().zip(&self.vparts) {
                shard.observe_verdict_batch_into(part, out);
            }
        });
        shrink_slots(&mut self.vparts);
    }

    /// The fusion counters merged across every shard (see
    /// [`FusionStats`]): verdicts absorbed per detector, stale verdicts
    /// decayed, escalation transitions enacted.
    pub fn fusion_stats(&self) -> FusionStats {
        let mut stats = FusionStats::default();
        for shard in &self.shards {
            stats.merge(shard.fusion_stats());
        }
        stats
    }

    /// Feeds one epoch's detector inferences for the whole fleet and
    /// returns one response per observation, **in input order**.
    ///
    /// Each shard applies its observations in batch order. Batches worth
    /// parallelising run the three-phase fan-out described in the
    /// [module docs](self) on `min(shards, cores)` scoped threads; small
    /// batches — and single-core hosts, where a spawn is pure loss — stay
    /// on the caller's thread and route each observation straight to its
    /// shard. Results are identical on every path because shards share no
    /// per-process state. The responses are written into the engine's
    /// spare buffer when no earlier [`Responses`] still holds it, so a
    /// caller that drops each batch's responses before the next call
    /// allocates nothing per observation (see
    /// [the output buffer](self#the-output-buffer)).
    pub fn observe_batch(&mut self, batch: &[(ProcessId, Classification)]) -> Responses {
        let home = self.spare.get_or_insert_with(Default::default);
        let buf = std::mem::take(&mut *home.lock().unwrap_or_else(PoisonError::into_inner));
        let mut out = Responses {
            buf,
            home: Arc::downgrade(home),
        };
        self.fill_batch(batch, &mut out.buf);
        // Like the scratch, the spare must not pin an outlier's peak.
        shrink_slots(std::slice::from_mut(&mut out.buf));
        self.update_hints(&out);
        out
    }

    /// Answers `batch` into `out`, replacing its previous contents. No
    /// route allocates per observation: the fan-out's buckets and reply
    /// lists are engine-owned scratch, and the gather phase overwrites
    /// `out` in place.
    fn fill_batch(&mut self, batch: &[(ProcessId, Classification)], out: &mut Vec<EngineResponse>) {
        let nshards = self.shards.len();
        if nshards == 1 {
            out.clear();
            let turn = self.next_relay_turn();
            walked(&mut self.shards, turn, |shards| {
                shards[0].observe_batch_into(batch, out);
            });
            return;
        }
        let workers = self.workers_for(batch.len());
        if workers <= 1 {
            // No parallelism to win (single-core host, or a batch too small
            // to amortise the spawns): route each observation straight to
            // its shard, skipping the partition and gather passes.
            out.clear();
            out.reserve(batch.len());
            let turn = self.next_relay_turn();
            walked(&mut self.shards, turn, |shards| {
                for &(pid, inference) in batch {
                    out.push(shards[shard_of(pid.0, nshards)].observe(pid, inference));
                }
            });
            // The scratch was bypassed, so anything an earlier partitioned
            // outlier batch left in it is dead weight; empty it so the
            // shrink below releases it, or the inline steady state would
            // pin the peak forever.
            self.buckets.iter_mut().for_each(Vec::clear);
            self.replies.iter_mut().for_each(Vec::clear);
        } else {
            self.fan_out_batch(batch, workers, out);
        }
        shrink_slots(&mut self.buckets);
        shrink_slots(&mut self.replies);
    }

    /// How many threads a batch of `len` observations fans out over: one
    /// (inline) below the parallel threshold or on a single-core host,
    /// one per shard when the threshold 0 forces the spawn path.
    fn workers_for(&self, len: usize) -> usize {
        if self.parallel_threshold == 0 {
            self.shards.len()
        } else if len < self.parallel_threshold {
            1
        } else {
            self.host_workers
        }
    }

    /// The shard whose turn begins at this pass, moving the turn on to the
    /// next shard.
    fn next_relay_turn(&mut self) -> usize {
        let turn = self.relay_turn;
        self.relay_turn = (turn + 1) % self.shards.len();
        turn
    }

    /// The three-phase fan-out of [`Self::observe_batch`] (see the
    /// [module docs](self)) on `workers` threads.
    fn fan_out_batch(
        &mut self,
        batch: &[(ProcessId, Classification)],
        workers: usize,
        out: &mut Vec<EngineResponse>,
    ) {
        let nshards = self.shards.len();
        let slice = batch.len().div_ceil(workers).max(1);
        // Fewer slices than workers when the batch is tiny; none when empty.
        let slices = batch.len().div_ceil(slice);

        // Partition: worker `w` buckets slice `w` by owning shard.
        let buckets = slots(&mut self.buckets, slices * nshards);
        fan_out(
            buckets.chunks_mut(nshards).zip(batch.chunks(slice)),
            |(buckets, input)| partition_into(input, buckets),
        );

        // Step: each shard answers its buckets in slice order.
        let turn = self.next_relay_turn();
        let replies = slots(&mut self.replies, slices * nshards);
        step_shards(&mut self.shards, &self.buckets, replies, workers, turn);

        // Gather: worker `w` fills its part of `out` in input order, taking
        // each observation's reply from its shard's list for slice `w`.
        // Every slot is overwritten, so a reused `out` needs no clearing,
        // and one at least this long needs no writes before the gather.
        let placeholder = EngineResponse {
            pid: ProcessId(u64::MAX),
            state: ProcessState::Normal,
            threat: ThreatIndex::zero(),
            resources: ResourceVector::FULL,
            action: Action::None,
        };
        out.resize(batch.len(), placeholder);
        let replies = &self.replies;
        fan_out(
            out.chunks_mut(slice).zip(batch.chunks(slice)).enumerate(),
            |(w, (out, input))| {
                let mut next: Vec<_> = (0..nshards)
                    .map(|s| replies[s * slices + w].iter())
                    .collect();
                for (slot, &(pid, _)) in out.iter_mut().zip(input) {
                    *slot = *next[shard_of(pid.0, nshards)]
                        .next()
                        .expect("the step phase answers every bucketed observation");
                }
            },
        );
    }

    /// The epoch driver: feeds one tick's batch, advances the epoch
    /// counter, and evicts terminated processes so the shard tables cannot
    /// grow without bound.
    ///
    /// Responses still report the terminal observation (the embedder must
    /// enact [`Action::Terminate`]); the bookkeeping is dropped immediately
    /// afterwards, so re-observing a terminated pid on a later tick
    /// registers a *fresh* process.
    /// Embedders that need post-mortem queries should use
    /// [`Self::observe_batch`] and purge on their own schedule. The
    /// responses come in the engine's spare buffer, as
    /// [`Self::observe_batch`]'s do.
    pub fn tick(&mut self, batch: &[(ProcessId, Classification)]) -> Responses {
        let responses = self.observe_batch(batch);
        self.epoch += 1;
        self.purge_terminated();
        responses
    }

    /// Builds the async ingest tier — one bounded ring per shard, holding
    /// up to `capacity` observations each — and returns a publisher handle
    /// for the detector threads (clone it freely; see
    /// [`crate::ingest`] for the architecture and
    /// [`OverflowPolicy`] for what a full ring does). The engine's side of
    /// the pair is [`Self::drain_batch`] / [`Self::drain_tick`].
    ///
    /// Calling this again replaces the rings: the old ones are closed
    /// (their blocked publishers wake and their handles start returning
    /// `false`), and any still-queued observations in them are discarded.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_ingest(&mut self, capacity: usize, policy: OverflowPolicy) -> IngestPublisher {
        self.enable_ingest_defended(capacity, policy, IngestDefense::default())
    }

    /// [`Self::enable_ingest`] with the overload defense: priority lanes
    /// routed on this engine's [`ThreatHints`] (refreshed from every
    /// response it returns) and/or per-publisher fair queueing.
    /// With both mechanisms off this is exactly [`Self::enable_ingest`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_ingest_defended(
        &mut self,
        capacity: usize,
        policy: OverflowPolicy,
        defense: IngestDefense,
    ) -> IngestPublisher {
        let publisher =
            self.ingest
                .replace(self.shards.len(), capacity, policy, defense, &self.hints);
        self.hints_active = defense.priority_lane;
        publisher
    }

    /// The suspicious-pid feedback set shared with defended queue sets.
    /// Mostly for tests and telemetry — the engine maintains it by itself.
    pub fn threat_hints(&self) -> Arc<ThreatHints> {
        Arc::clone(&self.hints)
    }

    /// Refreshes the threat hints from responses about to be returned: pids
    /// the escalation ladder holds at Suspicious/Terminable are marked for
    /// the priority lane, pids back at Normal (or terminated) are cleared.
    /// Every observing entry point calls it, so a pid that leaves the
    /// ladder by any route is never purged with its mark still set.
    fn update_hints(&self, responses: &[EngineResponse]) {
        if !self.hints_active || responses.is_empty() {
            return;
        }
        self.hints.update(responses.iter().map(|r| {
            (
                r.pid,
                matches!(r.state, ProcessState::Suspicious | ProcessState::Terminable),
            )
        }));
    }

    /// The ingest tier's counters (`None` before [`Self::enable_ingest`]);
    /// see [`IngestStats`] for what each field means.
    pub fn ingest_stats(&self) -> Option<IngestStats> {
        self.ingest.stats()
    }

    /// Builds the fusion tier's async verdict rings — the per-detector
    /// twin of [`Self::enable_ingest`] — and returns a publisher handle.
    /// Each ensemble member clones the publisher and publishes
    /// [`Verdict`]s at its own cadence; the next [`Self::drain_tick`]
    /// absorbs whatever has arrived and fuses each touched process once.
    ///
    /// A separate queue set from the binary rings: both can be enabled at
    /// once (e.g. legacy detectors publishing classifications next to
    /// fusion members publishing verdicts) and one drain serves both.
    /// Calling this again replaces — and closes — the previous verdict
    /// rings, exactly like [`Self::enable_ingest`]. Under `Coalesce`,
    /// verdict entries merge by (pid, detector), so the rings cannot
    /// conflate members.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_verdict_ingest(
        &mut self,
        capacity: usize,
        policy: OverflowPolicy,
    ) -> IngestPublisher<Verdict> {
        self.verdicts.replace(
            self.shards.len(),
            capacity,
            policy,
            IngestDefense::default(),
            &self.hints,
        )
    }

    /// A fresh publisher handle for the current verdict rings (`None`
    /// before [`Self::enable_verdict_ingest`]).
    pub fn verdict_publisher(&self) -> Option<IngestPublisher<Verdict>> {
        self.verdicts
            .0
            .as_ref()
            .map(|queues| IngestPublisher::new(Arc::clone(queues)))
    }

    /// The verdict rings' counters (`None` before
    /// [`Self::enable_verdict_ingest`]).
    pub fn verdict_ingest_stats(&self) -> Option<IngestStats> {
        self.verdicts.stats()
    }

    /// Drains every ingest ring and answers the drained observations, in
    /// **publish order** (per publisher; concurrent publishers are merged
    /// in sequence-stamp order, one valid global serialization). It is to
    /// [`Self::drain_tick`] what [`Self::observe_batch`] is to
    /// [`Self::tick`]: no epoch advance, no purge.
    ///
    /// Never waits on publishers: a stalled detector simply contributes
    /// nothing to this drain, and its processes keep their current state
    /// (cyclic monitoring treats a missing observation as "no measurement
    /// this epoch"). Rings are emptied — and their blocked publishers
    /// released — before any observe work runs.
    ///
    /// With [`OverflowPolicy::Block`] and rings that never overflowed,
    /// publish-then-drain is bit-for-bit equivalent to handing the same
    /// observations to [`Self::observe_batch`] (pinned by
    /// `tests/conformance.rs`).
    ///
    /// When verdict ingest is enabled too (or instead — see
    /// [`Self::enable_verdict_ingest`]), the verdict rings are drained
    /// after the binary rings and each touched process's evidence is fused
    /// once; those per-process responses are appended after the
    /// per-observation binary responses, in the verdict order of the
    /// [module docs](self#the-response-order).
    ///
    /// # Panics
    ///
    /// Panics if neither ingest tier was ever enabled.
    pub fn drain_batch(&mut self) -> Vec<EngineResponse> {
        assert!(
            self.ingest.0.is_some() || self.verdicts.0.is_some(),
            "call enable_ingest or enable_verdict_ingest before ShardedEngine::drain_batch"
        );
        let mut out = Vec::new();
        self.drain_binary(&mut out);
        if self.verdicts.drain_into(&mut self.vparts, None) {
            // The drained verdicts bound the responses: reserve once.
            out.reserve(self.vparts.iter().map(Vec::len).sum());
            self.fuse_vparts_into(&mut out);
        }
        self.update_hints(&out);
        out
    }

    /// The binary half of [`Self::drain_batch`], appending to `out` (a
    /// no-op when only verdict ingest is enabled). The rings empty into the
    /// first `shards` buckets, which the shared step phase answers as one
    /// slice.
    fn drain_binary(&mut self, out: &mut Vec<EngineResponse>) {
        let nshards = self.shards.len();
        let buckets = slots(&mut self.buckets, nshards);
        if !self.ingest.drain_into(buckets, Some(&mut self.seqs)) {
            return;
        }
        let total: usize = buckets.iter().map(Vec::len).sum();
        let workers = self.workers_for(total);
        let turn = self.next_relay_turn();
        let replies = slots(&mut self.replies, nshards);
        step_shards(&mut self.shards, &self.buckets, replies, workers, turn);
        // One ring applies in ring order, but the *returned* order must
        // still be stamp order — under `Coalesce` a restamped entry keeps
        // its ring slot, and skipping the merge would make response order
        // depend on the shard count.
        merge_by_seq(&self.seqs, &self.replies, out);
        shrink_slots(&mut self.buckets);
        shrink_slots(&mut self.replies);
        shrink_slots(&mut self.seqs);
    }

    /// The async epoch driver: drains the ingest rings
    /// ([`Self::drain_batch`]), advances the epoch counter and evicts
    /// terminated processes — [`Self::tick`]'s contract, fed by the
    /// detector threads' queues instead of a caller-assembled batch. Ticks
    /// on schedule no matter how slow (or wedged) the detectors are.
    ///
    /// # Panics
    ///
    /// Panics if ingest was never enabled.
    pub fn drain_tick(&mut self) -> Vec<EngineResponse> {
        let responses = self.drain_batch();
        self.epoch += 1;
        self.purge_terminated();
        responses
    }

    /// Evicts every terminated process across all shards, returning how
    /// many were dropped (see [`ValkyrieEngine::purge_terminated`]). The
    /// evictions are added to [`Self::purged_total`] whether this is
    /// called directly or by [`Self::tick`].
    pub fn purge_terminated(&mut self) -> usize {
        let purged = self
            .shards
            .iter_mut()
            .map(ValkyrieEngine::purge_terminated)
            .sum();
        self.purged_total += purged as u64;
        purged
    }

    /// Marks a process as completed (Fig. 3: completion terminates it).
    ///
    /// # Errors
    ///
    /// Returns [`ValkyrieError::UnknownProcess`] when `pid` is not tracked.
    pub fn complete(&mut self, pid: ProcessId) -> Result<(), ValkyrieError> {
        let shard = self.shard_of(pid);
        self.shards[shard].complete(pid)?;
        self.clear_hint(pid);
        Ok(())
    }

    /// Stops tracking a process and frees its bookkeeping, its threat hint
    /// included.
    pub fn forget(&mut self, pid: ProcessId) {
        let shard = self.shard_of(pid);
        self.shards[shard].forget(pid);
        self.clear_hint(pid);
    }

    /// Drops `pid`'s priority-lane mark, so a finished or forgotten process
    /// does not stay in the hint set and a recycled pid does not inherit
    /// its lane. No lock is taken when no ring routes on the hints.
    fn clear_hint(&self, pid: ProcessId) {
        if self.hints_active {
            self.hints.clear(pid);
        }
    }

    /// Iterates over `(pid, state, threat)` of all tracked processes, shard
    /// by shard. Lazy and allocation-free.
    ///
    /// The order is unspecified. Today each shard yields its processes in
    /// the order of its table's last re-lay, then registration (see
    /// [`ValkyrieEngine::iter`]).
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, ProcessState, ThreatIndex)> + '_ {
        self.shards.iter().flat_map(ValkyrieEngine::iter)
    }
}

impl Drop for ShardedEngine {
    /// Closes the ingest rings so detector threads blocked on a full ring
    /// (`OverflowPolicy::Block`) wake up instead of waiting forever for a
    /// drain that can no longer come; their publish calls return `false`
    /// from then on.
    fn drop(&mut self) {
        self.ingest.close();
        self.verdicts.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuator::ShareActuator;
    use crate::engine::{Action, ValkyrieEngine};
    use crate::hash::mix64;
    use Classification::{Benign, Malicious};

    fn config(n_star: u64) -> EngineConfig {
        EngineConfig::builder()
            .measurements_required(n_star)
            .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
            .build()
            .unwrap()
    }

    fn mixed_batch(procs: u64, epoch: u64) -> Vec<(ProcessId, Classification)> {
        (0..procs)
            .map(|pid| {
                let cls = if (pid + epoch).is_multiple_of(7) {
                    Malicious
                } else {
                    Benign
                };
                (ProcessId(pid), cls)
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedEngine::new(config(5), 0);
    }

    #[test]
    fn sharded_matches_single_engine_sequential_and_parallel() {
        // (threshold, host workers): inline; forced, one shard per worker;
        // and the default fan-out with fewer workers than shards, so each
        // step-phase job owns a chunk of shards.
        for (threshold, workers) in [(usize::MAX, 1), (0, 1), (1, 3)] {
            let mut sharded = ShardedEngine::new(config(3), 7);
            sharded.set_parallel_threshold(threshold);
            sharded.host_workers = workers;
            let mut single = ValkyrieEngine::new(config(3));
            for epoch in 0..6 {
                let batch = mixed_batch(50, epoch);
                let got = sharded.observe_batch(&batch);
                let want: Vec<EngineResponse> = batch
                    .iter()
                    .map(|&(pid, cls)| single.observe(pid, cls))
                    .collect();
                assert_eq!(
                    got, want,
                    "epoch {epoch}, threshold {threshold}, workers {workers}"
                );
            }
        }
    }

    /// A fleet of machines that run services with local pids from 1,
    /// presented machine by machine, as a fleet driver does.
    struct ChurnedFleet {
        /// Each machine's id and its services' local pids.
        machines: Vec<(u32, Vec<u64>)>,
        next_machine: u32,
    }

    impl ChurnedFleet {
        fn new(machines: u32, services: u64) -> Self {
            Self {
                machines: (0..machines)
                    .map(|m| (m, (1..=services).collect()))
                    .collect(),
                next_machine: machines,
            }
        }

        /// One tick's churn: `events` random departures and as many
        /// arrivals, each arrival filed after its machine's other services.
        /// Each departure is handed to `depart`.
        fn churn(&mut self, epoch: u64, events: u64, mut depart: impl FnMut(u64, ProcessId)) {
            for i in 0..2 * events {
                let r = mix64(epoch << 32 | i);
                let m = (r % self.machines.len() as u64) as usize;
                let (m, services) = &mut self.machines[m];
                if i % 2 == 0 && !services.is_empty() {
                    let local = services.remove((r >> 32) as usize % services.len());
                    depart(r, ProcessId::from_parts(*m, local));
                } else {
                    services.push(services.last().map_or(1, |&l| l + 1));
                }
            }
        }

        /// One tick at the fleet benchmark's rates: each service departs
        /// with probability 1/500 and each machine gains one with
        /// probability 1/50, filed after its others; each machine is
        /// decommissioned with probability 1/2500, and the last machine
        /// takes its place in the presentation order; and `boots` machines
        /// of `services` services join at the end. Each departure is handed
        /// to `depart`.
        fn churn_at_bench_rates(
            &mut self,
            epoch: u64,
            boots: u32,
            services: u64,
            mut depart: impl FnMut(ProcessId),
        ) {
            let draw = |a: u64, b: u64| mix64((epoch << 40) ^ (a << 20) ^ b);
            let mut i = 0;
            while i < self.machines.len() {
                let m = self.machines[i].0;
                if draw(u64::from(m), 0).is_multiple_of(2_500) {
                    let (m, gone) = self.machines.swap_remove(i);
                    gone.iter()
                        .for_each(|&local| depart(ProcessId::from_parts(m, local)));
                    continue;
                }
                let locals = &mut self.machines[i].1;
                locals.retain(|&local| {
                    let stays = !draw(u64::from(m), local).is_multiple_of(500);
                    if !stays {
                        depart(ProcessId::from_parts(m, local));
                    }
                    stays
                });
                if draw(u64::from(m), 1 << 19).is_multiple_of(50) {
                    let next = locals.last().map_or(1, |&l| l + 1);
                    locals.push(next);
                }
                i += 1;
            }
            for _ in 0..boots {
                self.machines
                    .push((self.next_machine, (1..=services).collect()));
                self.next_machine += 1;
            }
        }

        fn pids(&self) -> impl Iterator<Item = ProcessId> + '_ {
            self.machines.iter().flat_map(|(m, services)| {
                services.iter().map(move |&l| ProcessId::from_parts(*m, l))
            })
        }
    }

    /// The hit share of every shard's last walk together.
    fn last_walk_hit_share(e: &ShardedEngine) -> f64 {
        let (lookups, misses) = e
            .shards
            .iter()
            .map(ValkyrieEngine::walk_counts)
            .fold((0, 0), |(l, m), (dl, dm)| (l + dl, m + dm));
        1.0 - misses as f64 / lookups as f64
    }

    /// Each shard's re-lays so far.
    fn relays_per_shard(e: &ShardedEngine) -> Vec<u64> {
        e.shards.iter().map(ValkyrieEngine::relays).collect()
    }

    /// A churning fleet keeps the lookup cursor hitting on every binary
    /// route: over 240 ticks, each forgetting ~0.5% of 10k fleet-packed
    /// pids and registering as many inside their machine's run of pids, the
    /// round-robin re-lay lays each shard's table back in presentation
    /// order, on the fan-out, on the inline route of a many-shard engine
    /// and in a one-shard engine alike, so the last tick hits at least 95%
    /// of the time. The three answer bit for bit alike.
    #[test]
    fn round_robin_re_lay_keeps_the_cursor_hitting_under_churn() {
        let mut fleet = ChurnedFleet::new(1_000, 10);
        let mut fan_out = ShardedEngine::new(config(1 << 40), 16);
        fan_out.set_parallel_threshold(1);
        fan_out.host_workers = 2;
        let mut inline = ShardedEngine::new(config(1 << 40), 16);
        inline.set_parallel_threshold(usize::MAX);
        let mut one_shard = ShardedEngine::new(config(1 << 40), 1);
        for epoch in 0..240u64 {
            fleet.churn(epoch, 50, |_, pid| {
                for e in [&mut fan_out, &mut inline, &mut one_shard] {
                    e.forget(pid);
                }
            });
            let batch: Vec<(ProcessId, Classification)> = fleet
                .pids()
                .map(|pid| {
                    let flag = mix64(pid.0 ^ epoch).is_multiple_of(7);
                    (pid, if flag { Malicious } else { Benign })
                })
                .collect();
            let want: Vec<_> = fan_out.tick(&batch).iter().map(bits).collect();
            for (route, e) in [("inline", &mut inline), ("one shard", &mut one_shard)] {
                let got: Vec<_> = e.tick(&batch).iter().map(bits).collect();
                assert!(got == want, "{route}, epoch {epoch}");
            }
        }
        for (route, e) in [
            ("fan-out", &fan_out),
            ("inline", &inline),
            ("one shard", &one_shard),
        ] {
            let hit_share = last_walk_hit_share(e);
            assert!(hit_share >= 0.95, "{route}: last tick hit {hit_share:.3}");
        }
    }

    /// Re-lays per pass of an `nshards`-shard fan-out on two workers over
    /// 120 churned ticks of a `machines`-machine fleet of 10 services each:
    /// asserts that no worker's chunk re-lays more than one shard in a
    /// pass, and returns each chunk's total and the most re-lays of any
    /// pass.
    fn re_lays_per_chunk(nshards: usize, machines: u32) -> ([u64; 2], u64) {
        let mut fleet = ChurnedFleet::new(machines, 10);
        let mut e = ShardedEngine::new(config(1 << 40), nshards);
        e.set_parallel_threshold(1);
        e.host_workers = 2;
        let chunk = nshards.div_ceil(2);
        let mut before = relays_per_shard(&e);
        let (mut per_chunk, mut most) = ([0; 2], 0);
        for epoch in 0..120u64 {
            fleet.churn(epoch, u64::from(machines) / 20, |_, pid| e.forget(pid));
            let batch: Vec<_> = fleet.pids().map(|pid| (pid, Benign)).collect();
            drop(e.tick(&batch));
            let after = relays_per_shard(&e);
            let mut pass = 0;
            for (c, total) in per_chunk.iter_mut().enumerate() {
                let shards = c * chunk..((c + 1) * chunk).min(nshards);
                let relays: u64 = shards.map(|s| after[s] - before[s]).sum();
                assert!(
                    relays <= 1,
                    "{nshards} shards, epoch {epoch}: chunk {c} re-laid {relays}"
                );
                *total += relays;
                pass += relays;
            }
            most = most.max(pass);
            before = after;
        }
        (per_chunk, most)
    }

    /// A 16-shard fan-out on two workers chunks shards 0–7 onto one worker
    /// and 8–15 onto the other. With large tables the pass's two relay
    /// turns fall one in each chunk, so neither worker re-lays more than
    /// one shard per pass while the other waits, and under churn both of
    /// them re-lay. Four shards take one turn per pass: with two, every
    /// shard would record every pass and all four could re-lay at once.
    #[test]
    fn a_two_worker_fan_out_re_lays_at_most_one_shard_per_worker_per_pass() {
        let (per_chunk, most) = re_lays_per_chunk(16, 1_000);
        assert!(per_chunk.iter().all(|&n| n > 0), "{per_chunk:?}");
        assert_eq!(most, 2, "two turns per pass");
        let (per_chunk, most) = re_lays_per_chunk(4, 1_000);
        assert!(per_chunk.iter().all(|&n| n > 0), "{per_chunk:?}");
        assert_eq!(most, 1, "one turn per pass");
    }

    /// Shards whose tables fit in L2 take one relay turn per pass however
    /// many there are: a 16-shard engine of ~150-record tables re-lays at
    /// most one shard per pass.
    #[test]
    fn small_tables_take_one_relay_turn_per_pass() {
        const { assert!(2_400 / 16 < crate::table::LARGE_TABLE) };
        let (per_chunk, most) = re_lays_per_chunk(16, 240);
        assert!(per_chunk.iter().sum::<u64>() > 0, "never re-laid");
        assert_eq!(most, 1);
    }

    /// The release churn stress CI runs: 200k fleet-packed pids on 16
    /// shards over 150 ticks at the fleet benchmark's churn rates, with
    /// `N*` 20 and one flag in 200, so terminated processes are purged
    /// too. The fan-out on two workers answers bit for bit like the inline
    /// route, and from tick 30 on the cursor hits at least 94% of the
    /// time on average.
    #[test]
    #[ignore = "stress: run with --release -- --ignored"]
    fn churn_stress_at_fleet_scale_keeps_the_cursor_hitting() {
        const SERVICES: u64 = 10;
        let mut fleet = ChurnedFleet::new(20_000, SERVICES);
        let mut fan_out = ShardedEngine::with_capacity(config(20), 16, 200_000);
        fan_out.set_parallel_threshold(1);
        fan_out.host_workers = 2;
        let mut inline = ShardedEngine::with_capacity(config(20), 16, 200_000);
        inline.set_parallel_threshold(usize::MAX);
        let mut steady = Vec::new();
        for epoch in 0..150u64 {
            // 40 machine boots a tick in a 100k-machine fleet, scaled down.
            let boots = 8;
            fleet.churn_at_bench_rates(epoch, boots, SERVICES, |pid| {
                fan_out.forget(pid);
                inline.forget(pid);
            });
            let batch: Vec<(ProcessId, Classification)> = fleet
                .pids()
                .map(|pid| {
                    let flag = mix64(pid.0 ^ epoch).is_multiple_of(200);
                    (pid, if flag { Malicious } else { Benign })
                })
                .collect();
            let want: Vec<_> = inline.tick(&batch).iter().map(bits).collect();
            let got: Vec<_> = fan_out.tick(&batch).iter().map(bits).collect();
            assert!(got == want, "epoch {epoch}");
            if epoch >= 30 {
                steady.push(last_walk_hit_share(&fan_out));
            }
        }
        let mean = steady.iter().sum::<f64>() / steady.len() as f64;
        assert!(mean >= 0.94, "steady-state mean hit share {mean:.3}");
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

    /// 300 drains of a 4k-pid fleet on 8 shards and on one, with a fast
    /// member speaking for every pid and a slow one for the pids `slow`
    /// picks (by tick and by place in the fleet); each tick completes (and
    /// so purges) and forgets ~0.25% of the pids and registers as many.
    /// Every drain must answer bit for bit like the one-shard engine's
    /// (grouped by shard, so compared by pid). Returns the 8-shard engine's
    /// hit share on each drain and how many re-lays it made.
    fn churned_verdict_drains(slow: impl Fn(u64, usize, ProcessId) -> bool) -> (Vec<f64>, u64) {
        let mut fleet = ChurnedFleet::new(1_000, 4);
        let mut sharded = ShardedEngine::new(config(1 << 40), 8);
        let mut single = ShardedEngine::new(config(1 << 40), 1);
        let publishers = [&mut sharded, &mut single]
            .map(|e| e.enable_verdict_ingest(1 << 14, OverflowPolicy::Block));
        let mut hit_shares = Vec::new();
        for epoch in 0..300u64 {
            fleet.churn(epoch, 10, |r, pid| {
                for e in [&mut sharded, &mut single] {
                    if r & (1 << 40) == 0 {
                        // Completed now, purged by this tick's drain.
                        let _ = e.complete(pid);
                    } else {
                        e.forget(pid);
                    }
                }
            });
            let fast = fleet.pids().map(|pid| {
                let confidence = (mix64(pid.0 ^ epoch) % 5) as f64 / 8.0;
                (pid, Verdict::new(0, confidence))
            });
            let slow = fleet
                .pids()
                .enumerate()
                .filter(|&(i, pid)| slow(epoch, i, pid))
                .map(|(_, pid)| (pid, Verdict::new(1, 0.5).with_cadence(4)));
            let batch: Vec<_> = fast.chain(slow).collect();
            for publisher in &publishers {
                assert_eq!(publisher.publish_batch(&batch), batch.len());
            }
            let [got, want] = [&mut sharded, &mut single].map(|e| {
                let mut r: Vec<_> = e.drain_tick().iter().map(bits).collect();
                r.sort_unstable_by_key(|r| r.0);
                r
            });
            assert!(got == want, "epoch {epoch}");
            hit_shares.push(last_walk_hit_share(&sharded));
        }
        let relays = sharded.shards.iter().map(ValkyrieEngine::relays).sum();
        (hit_shares, relays)
    }

    /// The verdict drain walks each shard's table too: with the slow
    /// member speaking every fourth tick for ~85% of pids, the last drain's
    /// cursor still hits at least 90% of the time.
    #[test]
    fn verdict_drain_keeps_the_cursor_hitting_under_churn() {
        let (hit_shares, _) = churned_verdict_drains(|epoch, _, pid| {
            epoch.is_multiple_of(4) && mix64(pid.0 ^ !epoch) % 100 >= 15
        });
        let last = hit_shares[hit_shares.len() - 1];
        assert!(last >= 0.9, "last drain hit {last:.3}");
    }

    /// A slow member that speaks for every other pid on every tick presents
    /// half the records twice per walk, each time skipping the record in
    /// between, which the cursor's second candidate hits. The re-lay test
    /// must count those as hits, or it re-lays only once churn has taken
    /// the hit share down to ~63%: every drain after the one that registers
    /// the fleet hits at least 77% of the time.
    #[test]
    fn a_walk_that_skips_every_other_record_re_lays_in_time() {
        let (hit_shares, relays) = churned_verdict_drains(|_, i, _| i % 2 == 0);
        assert!(relays > 0, "never re-laid");
        for (epoch, &hit) in hit_shares.iter().enumerate().skip(1) {
            assert!(hit >= 0.77, "drain {epoch} hit {hit:.3}");
        }
    }

    #[test]
    fn shard_placement_is_deterministic_and_total() {
        let e = ShardedEngine::new(config(5), 16);
        for pid in 0..1000 {
            let s = e.shard_of(ProcessId(pid));
            assert!(s < 16);
            assert_eq!(s, e.shard_of(ProcessId(pid)));
        }
    }

    /// Regression: `purged_total` used to be incremented only by `tick`,
    /// so direct `purge_terminated()` calls silently went uncounted and
    /// the doc on the counter lied.
    #[test]
    fn direct_purge_calls_are_counted_too() {
        let mut e = ShardedEngine::new(config(2), 4);
        let batch = vec![(ProcessId(1), Malicious), (ProcessId(2), Benign)];
        // Drive pid 1 to termination via observe_batch (no tick, so nothing
        // is purged yet).
        for _ in 0..3 {
            e.observe_batch(&batch);
        }
        assert_eq!(e.state(ProcessId(1)), Some(ProcessState::Terminated));
        assert_eq!(e.purged_total(), 0);
        assert_eq!(e.purge_terminated(), 1);
        assert_eq!(e.purged_total(), 1);
        // An empty purge adds nothing; a tick-driven purge still counts.
        assert_eq!(e.purge_terminated(), 0);
        assert_eq!(e.purged_total(), 1);
        for _ in 0..3 {
            e.tick(&batch);
        }
        assert_eq!(e.purged_total(), 2);
    }

    /// Regression: the partition scratch used to retain the peak capacity
    /// of the largest batch ever seen for the engine's whole life.
    #[test]
    fn scratch_capacity_returns_to_steady_state_after_an_outlier_batch() {
        let mut e = ShardedEngine::new(config(1_000_000), 4);
        e.set_parallel_threshold(0); // force the partitioned path
        let steady = mixed_batch(64, 0);
        e.observe_batch(&steady);
        let steady_cap = e.scratch_capacity();

        let outlier = mixed_batch(100_000, 0);
        e.observe_batch(&outlier);
        assert!(
            e.scratch_capacity() >= 100_000,
            "outlier batch should grow the scratch ({})",
            e.scratch_capacity()
        );

        // The next steady-state batch shrinks the scratch back: well below
        // the outlier's footprint, within the shrink policy's slack of the
        // steady-state need.
        e.observe_batch(&steady);
        let after = e.scratch_capacity();
        assert!(
            after < 100_000 / 4,
            "scratch stayed near peak after the outlier: {after}"
        );
        assert!(
            after <= steady_cap.max(8 * SCRATCH_MIN_CAPACITY * SCRATCH_SHRINK_FACTOR),
            "scratch did not return to steady state: {after} vs {steady_cap}"
        );
    }

    /// The recycled output buffer follows the scratch's shrink policy: a
    /// steady batch after an outlier gets its buffer back at the steady
    /// size, on every route.
    #[test]
    fn output_buffer_returns_to_steady_state_after_an_outlier_batch() {
        for (shards, threshold) in [(4, 0), (4, usize::MAX), (1, 0)] {
            let mut e = ShardedEngine::new(config(1_000_000), shards);
            e.set_parallel_threshold(threshold);
            drop(e.observe_batch(&mixed_batch(100_000, 0)));
            let steady = e.observe_batch(&mixed_batch(64, 1));
            assert!(
                steady.buf.capacity() <= SCRATCH_MIN_CAPACITY,
                "{shards} shards, threshold {threshold}: {}",
                steady.buf.capacity()
            );
        }
    }

    /// Regression: the inline fast path used to return before any shrink
    /// ran, so in the default configuration (small steady batches below
    /// the threshold) one forced outlier batch pinned the scratch at its
    /// peak for the engine's life.
    #[test]
    fn inline_fast_path_also_releases_outlier_scratch() {
        let mut e = ShardedEngine::new(config(1_000_000), 4);
        e.set_parallel_threshold(0); // force one partitioned outlier batch
        e.observe_batch(&mixed_batch(100_000, 0));
        assert!(e.scratch_capacity() >= 100_000);

        // Back to the default crossover: the next small batch takes the
        // inline path (it is below the threshold — and on a single-core
        // host would bypass partitioning regardless), which must still
        // release the outlier's scratch.
        e.set_parallel_threshold(DEFAULT_PARALLEL_THRESHOLD);
        e.observe_batch(&mixed_batch(64, 1));
        assert!(
            e.scratch_capacity() < 100_000 / 4,
            "inline path left the outlier scratch pinned: {}",
            e.scratch_capacity()
        );
    }

    #[test]
    fn with_capacity_pre_sizes_every_shard() {
        let mut e = ShardedEngine::with_capacity(config(1000), 4, 8_192);
        let batch = mixed_batch(8_192, 0);
        let responses = e.observe_batch(&batch);
        assert_eq!(responses.len(), 8_192);
        assert_eq!(e.tracked(), 8_192);
    }

    #[test]
    fn drain_on_empty_rings_is_a_no_op_tick() {
        let mut e = ShardedEngine::new(config(3), 4);
        let _publisher = e.enable_ingest(16, OverflowPolicy::Block);
        let responses = e.drain_tick();
        assert!(responses.is_empty());
        assert_eq!(e.epoch(), 1, "the driver still ticks on schedule");
    }

    #[test]
    #[should_panic(expected = "enable_ingest")]
    fn drain_without_ingest_is_a_programming_error() {
        let mut e = ShardedEngine::new(config(3), 4);
        let _ = e.drain_tick();
    }

    /// Re-enabling ingest closes the old rings (their publishers go dead)
    /// without touching engine state; dropping the engine closes too, so
    /// blocked detector threads cannot outlive it.
    #[test]
    fn re_enabling_and_drop_close_the_old_rings() {
        let mut e = ShardedEngine::new(config(3), 4);
        let first = e.enable_ingest(16, OverflowPolicy::Block);
        assert!(first.publish(ProcessId(1), Malicious));
        let second = e.enable_ingest(16, OverflowPolicy::DropOldest);
        assert!(first.is_closed());
        assert!(!first.publish(ProcessId(2), Malicious));
        assert!(second.publish(ProcessId(3), Malicious));
        assert_eq!(e.drain_tick().len(), 1, "only the live rings drain");
        drop(e);
        assert!(second.is_closed());
        assert!(!second.publish(ProcessId(4), Malicious));

        // The verdict rings are replaced and closed the same way.
        let mut e = ShardedEngine::new(config(3), 4);
        let first = e.enable_verdict_ingest(16, OverflowPolicy::Block);
        assert!(first.publish(ProcessId(1), Verdict::new(0, 1.0)));
        let second = e.enable_verdict_ingest(16, OverflowPolicy::DropOldest);
        assert!(first.is_closed());
        assert!(!first.publish(ProcessId(2), Verdict::new(0, 1.0)));
        assert!(second.publish(ProcessId(3), Verdict::new(0, 1.0)));
        assert_eq!(e.drain_tick().len(), 1, "only the live verdict rings drain");
        drop(e);
        assert!(second.is_closed());
        assert!(!second.publish(ProcessId(4), Verdict::new(0, 1.0)));
    }

    /// A 2-shard engine whose binary rings route on the threat hints.
    fn hinted_engine(n_star: u64) -> (ShardedEngine, IngestPublisher) {
        let mut e = ShardedEngine::new(config(n_star), 2);
        let defense = IngestDefense {
            priority_lane: true,
            fair_queueing: false,
        };
        let publisher = e.enable_ingest_defended(64, OverflowPolicy::Block, defense);
        (e, publisher)
    }

    /// Regression: `forget` used to leave the pid's priority-lane mark in
    /// the shared hint set, so forgotten pids accumulated there forever
    /// and a recycled pid inherited the lane.
    #[test]
    fn forget_clears_threat_hints() {
        let (mut e, _publisher) = hinted_engine(100);
        let batch: Vec<(ProcessId, Classification)> =
            (0..1000).map(|pid| (ProcessId(pid), Malicious)).collect();
        e.tick(&batch);
        assert_eq!(e.threat_hints().len(), 1000);
        for &(pid, _) in &batch {
            e.forget(pid);
        }
        assert!(e.threat_hints().is_empty());
    }

    /// Regression: a completed pid kept its mark after the tick's purge
    /// evicted it.
    #[test]
    fn complete_clears_threat_hints() {
        let (mut e, _publisher) = hinted_engine(100);
        let pid = ProcessId(7);
        e.tick(&[(pid, Malicious)]);
        assert!(e.threat_hints().is_hot(pid));
        e.complete(pid).unwrap();
        e.tick(&[]);
        assert!(e.threat_hints().is_empty());
    }

    /// Regression: only `tick` and `drain_batch` refreshed the hints, so a
    /// hot pid that `observe`, `observe_batch` or `observe_verdict_batch`
    /// drove to termination was purged with its mark still set; the set
    /// grew by one per such pid, and a recycled pid inherited the lane.
    #[test]
    fn a_pid_terminated_off_the_tick_path_loses_its_threat_hint() {
        let routes: [fn(&mut ShardedEngine, ProcessId); 3] = [
            |e, pid| {
                e.observe(pid, Malicious);
            },
            |e, pid| {
                e.observe_batch(&[(pid, Malicious)]);
            },
            |e, pid| {
                e.observe_verdict_batch(&[(pid, Verdict::new(0, 1.0))]);
            },
        ];
        for (route, observe) in routes.into_iter().enumerate() {
            let (mut e, _publisher) = hinted_engine(2);
            let pid = ProcessId(5);
            e.tick(&[(pid, Malicious)]);
            assert!(e.threat_hints().is_hot(pid), "route {route}");
            observe(&mut e, pid);
            observe(&mut e, pid);
            assert_eq!(
                e.state(pid),
                Some(ProcessState::Terminated),
                "route {route}"
            );
            assert_eq!(e.purge_terminated(), 1, "route {route}");
            assert!(e.threat_hints().is_empty(), "route {route}");
        }
    }

    /// Binary and verdict rings drain side by side: one drain serves both,
    /// binary responses first.
    #[test]
    fn dual_ingest_drains_binary_then_verdicts() {
        let mut e = ShardedEngine::new(config(10), 4);
        let binary = e.enable_ingest(64, OverflowPolicy::Block);
        let fused = e.enable_verdict_ingest(64, OverflowPolicy::Block);
        binary.publish(ProcessId(1), Malicious);
        fused.publish(ProcessId(2), Verdict::new(0, 1.0));
        let responses = e.drain_tick();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].pid, ProcessId(1));
        assert_eq!(responses[1].pid, ProcessId(2));
        assert_eq!(e.fusion_stats().verdicts, 1);
        // Verdict-only ingest also drains (no binary rings required), and
        // dropping the engine closes the verdict rings too.
        let mut e = ShardedEngine::new(config(10), 4);
        let fused = e.enable_verdict_ingest(64, OverflowPolicy::Block);
        fused.publish(ProcessId(3), Verdict::new(0, 1.0));
        assert_eq!(e.drain_tick().len(), 1);
        assert!(!fused.is_closed());
        drop(e);
        assert!(fused.is_closed());
    }
}
