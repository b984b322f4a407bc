//! Async detector ingest: bounded per-shard observation queues that
//! decouple detector inference latency from the response tick.
//!
//! The paper's `N*` accounting assumes one observation per process per
//! epoch, but a real detector ensemble (LSTM members, remote scoring
//! services) can take longer than an epoch to produce a verdict — and an
//! epoch driver that calls the detector *synchronously* stalls with it.
//! This module makes the monitor-to-responder handoff a first-class,
//! bounded subsystem: detector threads publish classifications through an
//! [`IngestPublisher`] whenever they finish, and the epoch driver calls
//! [`ShardedEngine::drain_tick`](crate::ShardedEngine::drain_tick) on its
//! own schedule, consuming whatever has arrived. A slow — or wedged —
//! detector can no longer hold the response tier's tick hostage.
//!
//! # Architecture
//!
//! One bounded MPSC ring per engine shard (`IngestQueues` owns them all).
//! Publishing routes each observation to the ring of the shard that owns
//! its pid (the same [`mix64`](crate::hash::mix64)-based placement the
//! batch path uses), so draining a shard's ring never crosses shard
//! boundaries.
//!
//! Each accepted observation is stamped with a global sequence number,
//! and every stamp is taken while the publisher holds the destination
//! ring's lock: a single [`publish`](IngestPublisher::publish) takes one
//! stamp under that one lock, and a
//! [`publish_batch`](IngestPublisher::publish_batch) locks every ring (in
//! index order, then the threat-hint set) and reserves one contiguous run
//! of stamps for the whole batch. Within a ring, sequence numbers are
//! therefore strictly increasing in application order, so a drain can
//! merge the per-shard response lists back into one publish-ordered
//! response batch — which is what makes Block-mode ingest **bit-for-bit
//! equivalent** to the synchronous
//! [`observe_batch`](crate::ShardedEngine::observe_batch) path (pinned by
//! the conformance harness, `tests/conformance.rs`). A batch pays for its
//! ring locks, its stamps and its `published` count once, not once per
//! entry, and publishing a batch is equivalent to publishing its entries
//! one by one (pinned by `tests/ingest.rs`, overflow included).
//!
//! # Overflow policies
//!
//! The rings are bounded (`capacity` observations **per shard**) and
//! [`OverflowPolicy`] decides what happens when a publish finds its ring
//! full:
//!
//! * [`OverflowPolicy::Block`] — the publisher waits for the driver's next
//!   drain. Lossless; gives end-to-end backpressure to the detector tier.
//! * [`OverflowPolicy::DropOldest`] — the oldest queued observation is
//!   evicted. The freshest verdicts win; staleness is bounded by the ring
//!   capacity.
//! * [`OverflowPolicy::Coalesce`] — if the full ring already holds an
//!   observation for the same pid, it is overwritten in place with the
//!   newer classification (cyclic monitoring consumes one verdict per
//!   process per epoch, so only the newest matters); otherwise the oldest
//!   entry is evicted as in `DropOldest`.
//!
//! Every lost observation is counted and exposed through
//! [`IngestStats`] — overload is visible, never silent.
//!
//! # Overload defense
//!
//! Bounded rings create their own attack surface: an adversary who can
//! publish benign-looking observations — a compromised ensemble member, a
//! tenant spamming decoy processes — can flood the rings until the
//! overflow policy evicts the *real* verdicts, masking an attack inside
//! the dropped window (a noise-floor DoS on the monitor itself).
//! [`IngestDefense`] hardens the rings with two orthogonal mechanisms:
//!
//! * **Priority lanes** ([`IngestDefense::priority_lane`]): each ring
//!   gains a second lane for pids the engine's own evidence already marks
//!   suspicious, fed back through a shared [`ThreatHints`] handle.
//!   Priority entries are never evicted by normal-lane overflow — once a
//!   process is on the escalation ladder, no flood can silence the
//!   verdicts that decide its fate. A drain merges the two lanes by
//!   publish stamp, so a pid that turns hot between two of its publishes
//!   still has its entries applied in publish order. The priority
//!   lane runs the same overflow routine as the normal lane, under its
//!   own `capacity` budget and with fair queueing off.
//! * **Per-publisher fair queueing** ([`IngestDefense::fair_queueing`]):
//!   every [`IngestPublisher`] handle carries an id, and normal-lane
//!   overflow evictions are charged to whoever is hogging the ring: a
//!   publisher pushing past its fair share (`capacity / live publisher
//!   handles`, so a dropped handle gives its share back) evicts its *own*
//!   oldest entry, and otherwise the heaviest backlog holder pays — so
//!   one flooding publisher destroys its own decoys, not the other
//!   members' verdicts. Redirected evictions are counted as
//!   [`IngestStats::evictions_deflected`].
//!
//! With the defense enabled but the rings never full, drained results are
//! bit-for-bit identical to the undefended `Block`-mode path (pinned by the
//! conformance harness's defended runs, `tests/conformance.rs`): both
//! mechanisms only act at the overflow boundary.
//!
//! # Examples
//!
//! ```
//! use valkyrie_core::prelude::*;
//! use std::thread;
//!
//! let config = EngineConfig::builder()
//!     .measurements_required(3)
//!     .actuator(ShareActuator::cpu_percent_point(0.10, 0.01))
//!     .build()
//!     .unwrap();
//! let mut engine = ShardedEngine::new(config, 4);
//! let publisher = engine.enable_ingest(1024, OverflowPolicy::Block);
//!
//! // A detector thread publishes verdicts at its own pace...
//! let detector = thread::spawn(move || {
//!     for _ in 0..4 {
//!         publisher.publish(ProcessId(7), Classification::Malicious);
//!     }
//! });
//! detector.join().unwrap();
//!
//! // ...and the epoch driver drains whatever has arrived, on schedule.
//! let responses = engine.drain_tick();
//! assert_eq!(responses.len(), 4);
//! assert_eq!(engine.epoch(), 1);
//! ```

use crate::resource::ProcessId;
use crate::telemetry::IngestStats;
use crate::threat::{Classification, Verdict};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// The sub-key [`OverflowPolicy::Coalesce`] merges on, within a pid: two
/// queued entries coalesce only when both the pid *and* this key match.
///
/// Binary [`Classification`]s share a single key — cyclic monitoring
/// consumes one classification per process per epoch, so pid-only
/// coalescing is the faithful semantics. [`Verdict`]s key by their
/// detector id: ensemble members publish independently, and a fast
/// member's verdict must never overwrite a *different* detector's queued
/// verdict for the same pid (the fusion table needs one entry per member,
/// not one per process).
pub trait CoalesceKey: Copy {
    /// The merge sub-key (default: one shared key, pid-only coalescing).
    fn coalesce_key(&self) -> u32 {
        0
    }
}

impl CoalesceKey for Classification {}

impl CoalesceKey for Verdict {
    fn coalesce_key(&self) -> u32 {
        self.detector
    }
}

/// Which pids the engine's evidence table currently marks suspicious —
/// the feedback channel from the response tier to the ingest rings'
/// priority lane.
///
/// Shared (via `Arc`) between a [`ShardedEngine`] and every defended
/// queue set it builds: the engine refreshes the set from every response
/// it returns (Suspicious/Terminable pids are marked, pids that return to
/// Normal or terminate are cleared), and publishes for marked
/// pids route into the priority lane that overload can never evict.
///
/// [`ShardedEngine`]: crate::ShardedEngine
#[derive(Debug, Default)]
pub struct ThreatHints {
    hot: RwLock<HashSet<u64>>,
}

impl ThreatHints {
    /// A fresh, empty hint set behind a shared handle.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    // A writer that panicked leaves a valid set, and the hints are
    // advisory and rewritten every tick: recover the lock, never re-raise.
    fn read(&self) -> RwLockReadGuard<'_, HashSet<u64>> {
        self.hot.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashSet<u64>> {
        self.hot.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether `pid` is currently marked suspicious.
    pub fn is_hot(&self, pid: ProcessId) -> bool {
        self.read().contains(&pid.0)
    }

    /// Marks `pid` suspicious; returns whether it was newly marked.
    pub fn mark(&self, pid: ProcessId) -> bool {
        self.write().insert(pid.0)
    }

    /// Clears `pid`'s mark; returns whether it was marked.
    pub fn clear(&self, pid: ProcessId) -> bool {
        self.write().remove(&pid.0)
    }

    /// Applies a batch of `(pid, mark)` updates under one lock
    /// acquisition (`true` marks, `false` clears).
    pub fn update(&self, updates: impl IntoIterator<Item = (ProcessId, bool)>) {
        let mut hot = self.write();
        for (pid, mark) in updates {
            if mark {
                hot.insert(pid.0);
            } else {
                hot.remove(&pid.0);
            }
        }
    }

    /// How many pids are currently marked.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether no pid is currently marked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which overload-defense mechanisms a queue set runs with (see the
/// [module docs](self)). The default is everything off — the undefended
/// PR 5 rings, byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestDefense {
    /// Route observations for [`ThreatHints`]-marked pids into a separate
    /// priority lane, never evicted by normal-lane overflow. A drain merges
    /// it with the normal lane in publish order.
    pub priority_lane: bool,
    /// Charge overflow evictions to the publisher hogging the ring
    /// instead of whoever queued first.
    pub fair_queueing: bool,
}

impl IngestDefense {
    /// Both mechanisms on — the recommended hardened configuration.
    pub fn full() -> Self {
        Self {
            priority_lane: true,
            fair_queueing: true,
        }
    }
}

/// What a full per-shard ring does with the next published observation.
/// See the [module docs](self) for when each policy fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Publishers wait for the next drain: lossless, with backpressure on
    /// the detector tier. The default. (A driver that publishes into its
    /// own engine from the drain thread must size the rings for a full
    /// tick, or it will wait for a drain that can never come.)
    #[default]
    Block,
    /// Evict the oldest queued observation; the freshest verdicts survive.
    DropOldest,
    /// Overwrite the queued observation of the *same pid* with the newer
    /// classification (cyclic monitoring's semantics: one verdict per
    /// process per epoch, newest wins); evict the stalest-stamped entry
    /// when the pid has none queued. A publish into a *full* ring scans it
    /// (O(capacity), under the ring lock) to find the merge target or the
    /// eviction victim — size the rings so overflow is the exception, not
    /// the steady state, and let [`IngestStats::coalesced`] tell you when
    /// it isn't.
    Coalesce,
}

/// One queued observation: the publish-order stamp, the publisher handle
/// it arrived through, and the payload.
#[derive(Debug, Clone, Copy)]
struct QueuedObs<P> {
    seq: u64,
    pid: ProcessId,
    publisher: u32,
    payload: P,
}

/// What [`IngestQueues::push_locked`] did with one observation.
enum Pushed {
    /// Queued, coalesced into a queued entry, or queued after an eviction.
    Accepted,
    /// The queue set is closed; the observation was discarded.
    Closed,
    /// The lane is full under [`OverflowPolicy::Block`]; nothing changed.
    Full,
}

/// [`RingState::lanes`] index of the priority lane: entries for
/// [`ThreatHints`]-marked pids. Drained merged with the normal lane by
/// stamp.
const PRIORITY: usize = 0;
/// [`RingState::lanes`] index of the normal lane.
const NORMAL: usize = 1;

/// The lock-protected interior of one shard's ring.
#[derive(Debug)]
struct RingState<P> {
    /// The priority and normal lanes. Each has its own `capacity` budget;
    /// overflow in one lane never evicts from the other.
    lanes: [VecDeque<QueuedObs<P>>; 2],
    /// Normal-lane entries per publisher id (fair-queueing bookkeeping;
    /// maintained only when the defense runs with fair queueing).
    occupancy: Vec<u32>,
    /// Observations evicted by `DropOldest` (or `Coalesce`'s fallback).
    dropped: u64,
    /// Observations merged into an existing same-(pid, key) entry by
    /// `Coalesce`.
    coalesced: u64,
    /// Observations accepted into the priority lane.
    priority_queued: u64,
    /// Evictions fair queueing redirected away from the naive victim.
    evictions_deflected: u64,
    /// Evictions charged per publisher id.
    dropped_by_pub: Vec<u64>,
}

impl<P> Default for RingState<P> {
    fn default() -> Self {
        Self {
            lanes: [VecDeque::new(), VecDeque::new()],
            occupancy: Vec::new(),
            dropped: 0,
            coalesced: 0,
            priority_queued: 0,
            evictions_deflected: 0,
            dropped_by_pub: Vec::new(),
        }
    }
}

impl<P> RingState<P> {
    /// Books one eviction against `publisher`.
    fn charge_drop(&mut self, publisher: u32) {
        self.dropped += 1;
        let idx = publisher as usize;
        if self.dropped_by_pub.len() <= idx {
            self.dropped_by_pub.resize(idx + 1, 0);
        }
        self.dropped_by_pub[idx] += 1;
    }

    /// Normal-lane entries currently held by `publisher`.
    fn occ(&self, publisher: u32) -> usize {
        self.occupancy.get(publisher as usize).copied().unwrap_or(0) as usize
    }

    fn occ_inc(&mut self, publisher: u32) {
        let idx = publisher as usize;
        if self.occupancy.len() <= idx {
            self.occupancy.resize(idx + 1, 0);
        }
        self.occupancy[idx] += 1;
    }

    fn occ_dec(&mut self, publisher: u32) {
        if let Some(o) = self.occupancy.get_mut(publisher as usize) {
            *o = o.saturating_sub(1);
        }
    }
}

/// One shard's bounded ring: a mutex-backed `VecDeque` plus the condvar
/// `Block`-mode publishers wait on.
#[derive(Debug)]
struct ShardRing<P> {
    state: Mutex<RingState<P>>,
    space: Condvar,
}

impl<P> Default for ShardRing<P> {
    fn default() -> Self {
        Self {
            state: Mutex::new(RingState::default()),
            space: Condvar::new(),
        }
    }
}

impl<P> ShardRing<P> {
    // Every critical section leaves the lanes and counters structurally
    // valid, so a guard poisoned by a panicking thread is safe to reuse:
    // one panic must not wedge every later publish and drain.
    fn lock(&self) -> MutexGuard<'_, RingState<P>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// All of one engine's ingest rings: one bounded MPSC ring per shard,
/// shared (via `Arc`) between the engine and every [`IngestPublisher`]
/// clone.
///
/// Generic over the queued payload: the PR 5 binary path queues
/// [`Classification`]s (the default), the fusion path queues
/// [`Verdict`]s — same rings, same overflow
/// policies, same sequence-stamp merge discipline.
///
/// Constructed by
/// [`ShardedEngine::enable_ingest`](crate::ShardedEngine::enable_ingest);
/// embedders interact with it through the publisher and the engine's
/// drain methods.
#[derive(Debug)]
pub(crate) struct IngestQueues<P = Classification> {
    rings: Vec<ShardRing<P>>,
    capacity: usize,
    policy: OverflowPolicy,
    /// The overload-defense configuration (fixed at construction).
    defense: IngestDefense,
    /// The engine-fed suspicious-pid set the priority lane routes on.
    hints: Arc<ThreatHints>,
    /// Global publish-order stamp. Taken only under a ring lock: one
    /// stamp under the destination ring's lock per single publish, one
    /// contiguous run under every ring's lock per batch. So per-ring
    /// sequences are strictly increasing in application order (the
    /// property the drain merge relies on), and no other publish lands
    /// inside a batch's run.
    seq: AtomicU64,
    /// The next publisher id to hand out. Ids start at 1.
    next_publisher: AtomicU32,
    /// Publisher handles currently alive (fair shares divide by this).
    live_publishers: AtomicUsize,
    published: AtomicU64,
    drained: AtomicU64,
    /// Set when the owning engine replaces or drops the queue set; wakes
    /// blocked publishers so no detector thread outlives its engine
    /// wedged on a condvar.
    closed: AtomicBool,
}

impl<P> IngestQueues<P> {
    /// Registers a new publisher handle and returns its id. Ids are never
    /// reused; the handle's `Drop` gives its fair share back.
    fn register_publisher(&self) -> u32 {
        self.live_publishers.fetch_add(1, Ordering::Relaxed);
        self.next_publisher.fetch_add(1, Ordering::Relaxed)
    }

    /// One publisher's fair share of a ring: `capacity / live handles`,
    /// never below one entry.
    fn fair_share(&self) -> usize {
        (self.capacity / self.live_publishers.load(Ordering::Relaxed).max(1)).max(1)
    }

    /// Whether fair queueing governs `lane`: the normal lane only, as the
    /// priority lane holds nothing but suspects' verdicts.
    fn fair(&self, lane: usize) -> bool {
        self.defense.fair_queueing && lane == NORMAL
    }
}

impl<P: CoalesceKey> IngestQueues<P> {
    /// One ring per shard, each bounded to `capacity` observations, with
    /// the overload defense off.
    ///
    /// # Panics
    ///
    /// Panics if `nshards` or `capacity` is zero.
    #[cfg(test)]
    pub(crate) fn new(nshards: usize, capacity: usize, policy: OverflowPolicy) -> Arc<Self> {
        Self::with_defense(
            nshards,
            capacity,
            policy,
            IngestDefense::default(),
            ThreatHints::new(),
        )
    }

    /// One ring per shard, each bounded to `capacity` observations, with
    /// an explicit defense configuration and the engine-shared
    /// [`ThreatHints`] handle the priority lane routes on.
    ///
    /// # Panics
    ///
    /// Panics if `nshards` or `capacity` is zero.
    pub(crate) fn with_defense(
        nshards: usize,
        capacity: usize,
        policy: OverflowPolicy,
        defense: IngestDefense,
        hints: Arc<ThreatHints>,
    ) -> Arc<Self> {
        assert!(nshards > 0, "ingest needs at least one shard");
        assert!(capacity > 0, "ingest rings need a non-zero capacity");
        Arc::new(Self {
            rings: (0..nshards).map(|_| ShardRing::default()).collect(),
            capacity,
            policy,
            defense,
            hints,
            seq: AtomicU64::new(0),
            next_publisher: AtomicU32::new(1),
            live_publishers: AtomicUsize::new(0),
            published: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        })
    }

    /// The ring that owns `pid` (the batch path's shard placement).
    fn ring_of(&self, pid: ProcessId) -> usize {
        crate::hash::shard_of(pid.0, self.rings.len())
    }

    /// Publishes one observation from publisher `publisher` to the ring
    /// that owns `pid`, waiting under [`OverflowPolicy::Block`] while the
    /// destination lane is full. Returns `false` (observation discarded)
    /// only when the queue set has been closed.
    pub(crate) fn push(&self, publisher: u32, pid: ProcessId, payload: P) -> bool {
        let ring = &self.rings[self.ring_of(pid)];
        let mut state = ring.lock();
        let hot = self.defense.priority_lane && self.hints.is_hot(pid);
        let stamp = || self.seq.fetch_add(1, Ordering::Relaxed);
        loop {
            match self.push_locked(&mut state, publisher, pid, payload, hot, stamp) {
                Pushed::Accepted => {
                    self.published.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Pushed::Closed => return false,
                Pushed::Full => {
                    state = ring
                        .space
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Publishes `batch` in order from publisher `publisher` and returns
    /// how many observations were accepted. Holds every ring (locked in
    /// index order, then the hint set) for the whole batch, reserves its
    /// stamps with one atomic and counts it as published with another.
    /// When a `Block` lane fills mid-batch, every guard is released and
    /// the rest of the batch goes through [`Self::push`] one entry at a
    /// time: nothing waits on a condvar while holding more than one ring.
    /// No other path holds two ring locks, and every path that takes the
    /// hint set under a ring lock takes the ring first.
    pub(crate) fn push_batch(&self, publisher: u32, batch: &[(ProcessId, P)]) -> usize {
        let mut rings: Vec<_> = self.rings.iter().map(ShardRing::lock).collect();
        let hints = self.defense.priority_lane.then(|| self.hints.read());
        // Every stamp is taken under a ring lock and this batch holds them
        // all, so its stamps form one contiguous run.
        let base = self.seq.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut accepted = 0;
        let mut rest: &[(ProcessId, P)] = &[];
        for (i, &(pid, payload)) in batch.iter().enumerate() {
            let hot = hints.as_ref().is_some_and(|hot| hot.contains(&pid.0));
            let state = &mut rings[self.ring_of(pid)];
            match self.push_locked(state, publisher, pid, payload, hot, || base + i as u64) {
                Pushed::Accepted => accepted += 1,
                Pushed::Closed => break,
                Pushed::Full => {
                    rest = &batch[i..];
                    break;
                }
            }
        }
        self.published.fetch_add(accepted as u64, Ordering::Relaxed);
        drop(hints);
        drop(rings);
        accepted
            + rest
                .iter()
                .filter(|&&(pid, payload)| self.push(publisher, pid, payload))
                .count()
    }

    /// The body of every publish, run under the destination ring's lock:
    /// routes the observation to its lane (`hot` picks the priority
    /// lane), applies the overflow policy if that lane is full, and
    /// queues it under the stamp `stamp` hands out. Returns
    /// [`Pushed::Full`], having changed nothing, only under
    /// [`OverflowPolicy::Block`]; the caller decides how to wait.
    fn push_locked(
        &self,
        state: &mut RingState<P>,
        publisher: u32,
        pid: ProcessId,
        payload: P,
        hot: bool,
        stamp: impl FnOnce() -> u64,
    ) -> Pushed {
        // A closed queue rejects the publish before any overflow
        // handling: an eviction on behalf of an observation that is about
        // to be discarded anyway would destroy queued data for nothing.
        if self.closed.load(Ordering::Acquire) {
            return Pushed::Closed;
        }
        let lane = if hot { PRIORITY } else { NORMAL };
        let fair = self.fair(lane);
        if state.lanes[lane].len() >= self.capacity {
            match self.policy {
                OverflowPolicy::Block => return Pushed::Full,
                OverflowPolicy::DropOldest => self.evict(state, lane, publisher, false),
                OverflowPolicy::Coalesce => {
                    let key = payload.coalesce_key();
                    if let Some(i) = state.lanes[lane]
                        .iter()
                        .rposition(|o| o.pid == pid && o.payload.coalesce_key() == key)
                    {
                        // Same (pid, key) already queued: keep its queue
                        // position, take the newer verdict, publish-order
                        // stamp and publisher attribution.
                        let entry = &mut state.lanes[lane][i];
                        let prev = std::mem::replace(&mut entry.publisher, publisher);
                        entry.seq = stamp();
                        entry.payload = payload;
                        if fair && prev != publisher {
                            state.occ_dec(prev);
                            state.occ_inc(publisher);
                        }
                        state.coalesced += 1;
                        if lane == PRIORITY {
                            state.priority_queued += 1;
                        }
                        return Pushed::Accepted;
                    }
                    // No entry to merge into: evict the stalest *verdict*
                    // (minimum stamp — coalescing restamps entries in
                    // place, so the front of the lane is not necessarily
                    // the oldest observation).
                    self.evict(state, lane, publisher, true);
                }
            }
        }
        if fair {
            state.occ_inc(publisher);
        }
        state.lanes[lane].push_back(QueuedObs {
            seq: stamp(),
            pid,
            publisher,
            payload,
        });
        if lane == PRIORITY {
            state.priority_queued += 1;
        }
        Pushed::Accepted
    }

    /// Evicts one entry of `lane` to make room. The naive victim is the
    /// front (`DropOldest`) or the minimum-stamp entry (`Coalesce`'s
    /// fallback, `stalest`); with fair queueing the eviction is instead
    /// charged to `pusher` itself once it holds its fair share, and
    /// otherwise to the heaviest backlog holder — redirections away from
    /// the naive victim's publisher are counted as deflected.
    fn evict(&self, state: &mut RingState<P>, lane: usize, pusher: u32, stalest: bool) {
        let fair = self.fair(lane);
        let queue = &state.lanes[lane];
        let naive = if stalest {
            (0..queue.len()).min_by_key(|&i| queue[i].seq)
        } else {
            (!queue.is_empty()).then_some(0)
        };
        let Some(naive) = naive else { return };
        let mut idx = naive;
        if fair {
            let victim_pub = if state.occ(pusher) >= self.fair_share() {
                pusher
            } else {
                // The heaviest normal-lane backlog holder pays; ties go
                // to the lowest id, deterministically.
                let mut heaviest = queue[naive].publisher;
                let mut max_occ = 0;
                for p in 0..state.occupancy.len() as u32 {
                    if state.occ(p) > max_occ {
                        heaviest = p;
                        max_occ = state.occ(p);
                    }
                }
                heaviest
            };
            let owned = if stalest {
                (0..queue.len())
                    .filter(|&i| queue[i].publisher == victim_pub)
                    .min_by_key(|&i| queue[i].seq)
            } else {
                (0..queue.len()).find(|&i| queue[i].publisher == victim_pub)
            };
            if let Some(i) = owned {
                if queue[naive].publisher != victim_pub {
                    state.evictions_deflected += 1;
                }
                idx = i;
            }
        }
        if let Some(victim) = state.lanes[lane].remove(idx) {
            if fair {
                state.occ_dec(victim.publisher);
            }
            state.charge_drop(victim.publisher);
        }
    }

    /// Empties shard `shard`'s ring into `work` (appending; the two lanes
    /// merged by stamp) and wakes any publishers blocked on it. When `seqs`
    /// is given, each entry's publish stamp is appended to it, aligned
    /// index-for-index with `work`.
    pub(crate) fn drain_shard_into(
        &self,
        shard: usize,
        work: &mut Vec<(ProcessId, P)>,
        mut seqs: Option<&mut Vec<u64>>,
    ) {
        let ring = &self.rings[shard];
        let mut state = ring.lock();
        let n = state.lanes.iter().map(VecDeque::len).sum();
        work.reserve(n);
        if let Some(seqs) = seqs.as_deref_mut() {
            seqs.reserve(n);
        }
        // Merge the lanes by stamp, each in its own order: publish order,
        // unless a full `Coalesce` lane restamped an entry in place.
        let [priority, normal] = &mut state.lanes;
        let mut emit = |obs: QueuedObs<P>| {
            work.push((obs.pid, obs.payload));
            if let Some(seqs) = seqs.as_deref_mut() {
                seqs.push(obs.seq);
            }
        };
        if priority.is_empty() {
            // No entry turned hot (or no defense): nothing to merge.
            normal.drain(..).for_each(emit);
        } else {
            let mut priority = priority.drain(..).peekable();
            for obs in normal.drain(..) {
                while let Some(first) = priority.next_if(|p| p.seq < obs.seq) {
                    emit(first);
                }
                emit(obs);
            }
            priority.for_each(emit);
        }
        state.occupancy.clear();
        drop(state);
        if n > 0 {
            self.drained.fetch_add(n as u64, Ordering::Relaxed);
        }
        ring.space.notify_all();
    }

    /// Marks the queue set closed and wakes every blocked publisher.
    /// Publishes after this return `false` and discard the observation.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for ring in &self.rings {
            // Acquiring the lock orders the store before any waiter's
            // re-check; without it a publisher could re-sleep forever.
            drop(ring.lock());
            ring.space.notify_all();
        }
    }

    /// Whether the owning engine has closed (or replaced) this queue set.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// A consistent-enough snapshot of the ingest counters. Per-ring
    /// counters are read one lock at a time, so concurrent publishes can
    /// skew sums by in-flight observations — fine for telemetry, which is
    /// what this is for.
    pub fn stats(&self) -> IngestStats {
        let mut stats = IngestStats {
            published: self.published.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            ..IngestStats::default()
        };
        for ring in &self.rings {
            let state = ring.lock();
            stats.dropped += state.dropped;
            stats.coalesced += state.coalesced;
            stats.queued += state.lanes.iter().map(VecDeque::len).sum::<usize>();
            stats.priority_queued += state.priority_queued;
            stats.evictions_deflected += state.evictions_deflected;
            if stats.dropped_by_publisher.len() < state.dropped_by_pub.len() {
                stats
                    .dropped_by_publisher
                    .resize(state.dropped_by_pub.len(), 0);
            }
            for (acc, n) in stats
                .dropped_by_publisher
                .iter_mut()
                .zip(&state.dropped_by_pub)
            {
                *acc += n;
            }
        }
        stats
    }
}

/// A cloneable, `Send + Sync` handle detector threads use to publish
/// observations into an engine's ingest rings — binary
/// [`Classification`]s by default, [`Verdict`]s
/// on the fusion path (each ensemble member clones its own publisher and
/// publishes at its own cadence).
///
/// Routing is by pid hash (identical to the batch path's shard placement),
/// so concurrent publishers only contend when their pids share a shard.
/// Obtain one from
/// [`ShardedEngine::enable_ingest`](crate::ShardedEngine::enable_ingest)
/// and clone it for each further publisher.
#[derive(Debug)]
pub struct IngestPublisher<P = Classification> {
    queues: Arc<IngestQueues<P>>,
    /// This handle's fair-queueing identity. Every clone registers a
    /// fresh id, so each detector thread (or tenant) holding its own
    /// handle is its own accounting unit.
    id: u32,
}

impl<P> Clone for IngestPublisher<P> {
    fn clone(&self) -> Self {
        Self {
            id: self.queues.register_publisher(),
            queues: Arc::clone(&self.queues),
        }
    }
}

impl<P> Drop for IngestPublisher<P> {
    fn drop(&mut self) {
        self.queues.live_publishers.fetch_sub(1, Ordering::Relaxed);
    }
}

impl<P: CoalesceKey> IngestPublisher<P> {
    pub(crate) fn new(queues: Arc<IngestQueues<P>>) -> Self {
        Self {
            id: queues.register_publisher(),
            queues,
        }
    }

    /// This handle's publisher id (indexes
    /// [`IngestStats::dropped_by_publisher`]).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Publishes one observation for `pid`. With
    /// [`OverflowPolicy::Block`] this waits while the owning shard's ring
    /// is full. Returns `false` — and discards the observation — only when
    /// the engine has closed or replaced its ingest queues.
    pub fn publish(&self, pid: ProcessId, payload: P) -> bool {
        self.queues.push(self.id, pid, payload)
    }

    /// Publishes a batch in order. Returns how many observations were
    /// accepted (all of them unless the queues were closed mid-batch).
    ///
    /// The batch pays for its synchronisation once: it locks every ring
    /// (in index order, then the threat-hint set), takes one contiguous
    /// run of sequence stamps and counts itself published with one atomic
    /// add. It is therefore atomic against other publishers — no other
    /// entry lands between two of its entries — and a concurrent drain
    /// waits for the whole batch. The one exception is a
    /// [`OverflowPolicy::Block`] lane that fills mid-batch: the batch then
    /// releases every ring and publishes its remaining entries one at a
    /// time, each waiting for space as [`Self::publish`] does, so other
    /// publishers may interleave with that tail.
    pub fn publish_batch(&self, batch: &[(ProcessId, P)]) -> usize {
        self.queues.push_batch(self.id, batch)
    }

    /// The current ingest counters (shared with the engine's
    /// [`ingest_stats`](crate::ShardedEngine::ingest_stats)).
    pub fn stats(&self) -> IngestStats {
        self.queues.stats()
    }

    /// Whether the engine has closed these queues (publishes are no-ops).
    pub fn is_closed(&self) -> bool {
        self.queues.is_closed()
    }
}

/// Appends per-shard drained responses to `out` in publish order:
/// `seqs[s]` stamps `replies[s]` index-for-index, and sequence numbers are
/// globally unique, so sorting by stamp reconstructs one valid global
/// serialization (for a single publisher: exactly its publish order).
pub(crate) fn merge_by_seq(
    seqs: &[Vec<u64>],
    replies: &[Vec<crate::engine::EngineResponse>],
    out: &mut Vec<crate::engine::EngineResponse>,
) {
    let total = seqs.iter().map(Vec::len).sum();
    let mut stamped: Vec<(u64, &crate::engine::EngineResponse)> = Vec::with_capacity(total);
    for (shard_seqs, shard_replies) in seqs.iter().zip(replies) {
        debug_assert_eq!(shard_seqs.len(), shard_replies.len());
        stamped.extend(shard_seqs.iter().copied().zip(shard_replies));
    }
    stamped.sort_unstable_by_key(|&(seq, _)| seq);
    out.extend(stamped.into_iter().map(|(_, response)| *response));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use Classification::{Benign, Malicious};

    fn drain_all(queues: &IngestQueues) -> Vec<(u64, ProcessId, Classification)> {
        let mut out = Vec::new();
        for shard in 0..queues.rings.len() {
            let mut work = Vec::new();
            let mut seqs = Vec::new();
            queues.drain_shard_into(shard, &mut work, Some(&mut seqs));
            out.extend(
                seqs.into_iter()
                    .zip(work)
                    .map(|(seq, (pid, cls))| (seq, pid, cls)),
            );
        }
        out.sort_unstable_by_key(|&(seq, _, _)| seq);
        out
    }

    #[test]
    #[should_panic(expected = "non-zero capacity")]
    fn zero_capacity_is_rejected() {
        let _ = IngestQueues::<Classification>::new(4, 0, OverflowPolicy::Block);
    }

    #[test]
    fn publish_then_drain_round_trips_in_order() {
        let queues = IngestQueues::new(4, 16, OverflowPolicy::Block);
        let publisher = IngestPublisher::new(queues.clone());
        let batch: Vec<(ProcessId, Classification)> = (0..10)
            .map(|i| (ProcessId(i), if i % 2 == 0 { Malicious } else { Benign }))
            .collect();
        assert_eq!(publisher.publish_batch(&batch), 10);
        let drained = drain_all(&queues);
        let got: Vec<(ProcessId, Classification)> = drained
            .into_iter()
            .map(|(_, pid, cls)| (pid, cls))
            .collect();
        assert_eq!(got, batch, "seq order must reconstruct publish order");
        let stats = queues.stats();
        assert_eq!(stats.published, 10);
        assert_eq!(stats.drained, 10);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.queued, 0);
    }

    /// `DropOldest` under a full ring: the oldest observation goes, the
    /// newest survives, and the loss is counted.
    #[test]
    fn drop_oldest_evicts_the_front_and_counts_it() {
        // One shard so every pid shares the ring.
        let queues = IngestQueues::new(1, 3, OverflowPolicy::DropOldest);
        let publisher = IngestPublisher::new(queues.clone());
        for pid in 0..5u64 {
            assert!(publisher.publish(ProcessId(pid), Malicious));
        }
        let stats = queues.stats();
        assert_eq!(stats.published, 5);
        assert_eq!(stats.dropped, 2);
        assert_eq!(stats.queued, 3);
        let drained = drain_all(&queues);
        let pids: Vec<u64> = drained.iter().map(|&(_, pid, _)| pid.0).collect();
        assert_eq!(pids, vec![2, 3, 4], "oldest two were evicted");
    }

    /// `Coalesce` under a full ring keeps exactly the newest verdict per
    /// pid: a same-pid publish overwrites in place, a fresh pid falls back
    /// to evicting the oldest entry.
    #[test]
    fn coalesce_keeps_the_newest_verdict_per_pid() {
        let queues = IngestQueues::new(1, 2, OverflowPolicy::Coalesce);
        let publisher = IngestPublisher::new(queues.clone());
        assert!(publisher.publish(ProcessId(1), Malicious));
        assert!(publisher.publish(ProcessId(2), Malicious));
        // Ring full: same-pid publish coalesces (newer verdict wins) and
        // drops nothing.
        assert!(publisher.publish(ProcessId(1), Benign));
        let stats = queues.stats();
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.queued, 2);
        // Ring still full: a fresh pid evicts the oldest entry instead.
        assert!(publisher.publish(ProcessId(3), Malicious));
        let stats = queues.stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.queued, 2);

        let drained = drain_all(&queues);
        let got: Vec<(u64, Classification)> =
            drained.iter().map(|&(_, pid, cls)| (pid.0, cls)).collect();
        // Pid 1 kept exactly one entry, holding the newest verdict; pid 2
        // (the oldest) was evicted for pid 3.
        assert_eq!(got.len(), 2);
        assert!(got.contains(&(1, Benign)));
        assert!(got.contains(&(3, Malicious)));
    }

    /// Coalescing stamps the overwritten slot with the newer sequence
    /// number, so a merged drain reports the entry at its newest publish
    /// position.
    #[test]
    fn coalesce_takes_the_newer_sequence_stamp() {
        let queues = IngestQueues::new(1, 2, OverflowPolicy::Coalesce);
        let publisher = IngestPublisher::new(queues.clone());
        publisher.publish(ProcessId(1), Malicious); // seq 0
        publisher.publish(ProcessId(2), Malicious); // seq 1
        publisher.publish(ProcessId(1), Benign); // coalesced, seq 2
        let drained = drain_all(&queues);
        assert_eq!(drained.len(), 2);
        // Sorted by seq: pid 2 (seq 1) now precedes pid 1 (restamped 2).
        assert_eq!(drained[0].1, ProcessId(2));
        assert_eq!(drained[1].1, ProcessId(1));
        assert_eq!(drained[1].2, Benign);
    }

    #[test]
    fn blocked_publisher_resumes_after_a_drain() {
        let queues = IngestQueues::new(1, 2, OverflowPolicy::Block);
        let publisher = IngestPublisher::new(queues.clone());
        publisher.publish(ProcessId(1), Malicious);
        publisher.publish(ProcessId(2), Malicious);
        // A third publish must block until the drain below frees space.
        let blocked = {
            let publisher = publisher.clone();
            std::thread::spawn(move || publisher.publish(ProcessId(3), Malicious))
        };
        // Parking on the condvar is not observable from outside; give the
        // publisher a real window to reach the wait so the drain below
        // exercises the wakeup path (the test is correct either way — the
        // drain loop keeps going until the third observation lands).
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut work = Vec::new();
        let mut seqs = Vec::new();
        // Drain until the blocked observation lands (the drain that frees
        // the space races the wakeup, so one drain may see only the first
        // two entries).
        let mut drained = 0;
        while drained < 3 {
            queues.drain_shard_into(0, &mut work, Some(&mut seqs));
            drained = work.len();
            std::thread::yield_now();
        }
        assert!(blocked.join().unwrap());
        assert_eq!(queues.stats().dropped, 0, "Block never loses data");
    }

    #[test]
    fn close_wakes_blocked_publishers_and_rejects_new_ones() {
        let queues = IngestQueues::new(1, 1, OverflowPolicy::Block);
        let publisher = IngestPublisher::new(queues.clone());
        assert!(publisher.publish(ProcessId(1), Malicious));
        let blocked = {
            let publisher = publisher.clone();
            std::thread::spawn(move || publisher.publish(ProcessId(2), Malicious))
        };
        // Give the publisher a real window to park on the condvar, so the
        // close below exercises the wakeup (not just the early-return)
        // path; either way the publish must come back `false`.
        std::thread::sleep(std::time::Duration::from_millis(20));
        queues.close();
        assert!(!blocked.join().unwrap(), "closed queues reject publishes");
        assert!(!publisher.publish(ProcessId(3), Malicious));
        assert!(publisher.is_closed());
        assert_eq!(queues.stats().queued, 1, "already-queued data survives");
    }

    /// Regression (PR 9): a publish against a closed queue must be
    /// rejected *before* overflow handling runs — previously `DropOldest`
    /// / `Coalesce` would evict a queued observation on behalf of a
    /// publish that was about to be discarded anyway.
    #[test]
    fn closed_queue_publish_never_evicts_queued_data() {
        for policy in [OverflowPolicy::DropOldest, OverflowPolicy::Coalesce] {
            let queues = IngestQueues::new(1, 1, policy);
            let publisher = IngestPublisher::new(queues.clone());
            assert!(publisher.publish(ProcessId(1), Malicious));
            queues.close();
            assert!(!publisher.publish(ProcessId(2), Benign));
            let stats = queues.stats();
            assert_eq!(stats.dropped, 0, "{policy:?}: closed publish evicted");
            assert_eq!(stats.queued, 1, "{policy:?}: queued data destroyed");
            let drained = drain_all(&queues);
            assert_eq!(drained.len(), 1);
            assert_eq!(drained[0].1, ProcessId(1));
            assert_eq!(drained[0].2, Malicious);
        }
    }

    /// Regression (PR 9): verdict coalescing keys by (pid, detector) — a
    /// fast member's verdict must merge with its *own* queued verdict, not
    /// overwrite a different detector's entry for the same pid.
    #[test]
    fn verdict_coalesce_keys_by_pid_and_detector() {
        let queues = IngestQueues::<Verdict>::new(1, 2, OverflowPolicy::Coalesce);
        let member_a = IngestPublisher::new(queues.clone());
        let member_b = member_a.clone();
        let pid = ProcessId(7);
        assert!(member_a.publish(pid, Verdict::new(0, 0.2)));
        assert!(member_b.publish(pid, Verdict::new(1, 0.9)));
        // Ring full; detector 0 publishes again for the same pid. It must
        // coalesce with the detector-0 entry and leave detector 1 queued.
        assert!(member_a.publish(pid, Verdict::new(0, 0.8)));
        let stats = queues.stats();
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.dropped, 0, "detector 1's verdict was destroyed");

        let mut work = Vec::new();
        let mut seqs = Vec::new();
        queues.drain_shard_into(0, &mut work, Some(&mut seqs));
        let mut got: Vec<(u32, f64)> = work
            .iter()
            .map(|&(_, v)| (v.detector, v.confidence))
            .collect();
        got.sort_by_key(|a| a.0);
        assert_eq!(got, vec![(0, 0.8), (1, 0.9)]);
    }

    /// Fair queueing charges overflow to the hog: a publisher past its
    /// fair share evicts its own backlog, and the redirect away from the
    /// naive (front-of-ring) victim is counted.
    #[test]
    fn fair_queueing_makes_the_flooding_publisher_pay() {
        let defense = IngestDefense {
            priority_lane: false,
            fair_queueing: true,
        };
        let queues = IngestQueues::with_defense(
            1,
            4,
            OverflowPolicy::DropOldest,
            defense,
            ThreatHints::new(),
        );
        let legit = IngestPublisher::new(queues.clone());
        let flooder = legit.clone();
        // Two handles share the ring: fair share = 4 / 2 = 2 entries.
        assert!(legit.publish(ProcessId(1), Malicious));
        assert!(legit.publish(ProcessId(2), Malicious));
        assert!(flooder.publish(ProcessId(3), Benign));
        assert!(flooder.publish(ProcessId(4), Benign));
        // Ring full. Without the defense this would evict pid 1 (the
        // front, legit's oldest). With fair queueing the flooder is at its
        // share, so it evicts its own oldest instead.
        assert!(flooder.publish(ProcessId(5), Benign));
        let stats = queues.stats();
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.evictions_deflected, 1);
        assert_eq!(
            stats.dropped_by_publisher.get(flooder.id() as usize),
            Some(&1),
            "the eviction is charged to the flooder"
        );
        let drained = drain_all(&queues);
        let pids: Vec<u64> = drained.iter().map(|&(_, pid, _)| pid.0).collect();
        assert_eq!(pids, vec![1, 2, 4, 5], "legit's backlog survived intact");
    }

    /// The priority lane shields hint-marked pids: a normal-lane flood
    /// can evict everything in its own lane but never touches the
    /// suspicious pid's queued verdicts, and they drain in publish order
    /// with the rest.
    #[test]
    fn priority_lane_is_immune_to_normal_lane_overflow() {
        let hints = ThreatHints::new();
        let defense = IngestDefense {
            priority_lane: true,
            fair_queueing: false,
        };
        let queues = IngestQueues::with_defense(
            1,
            2,
            OverflowPolicy::DropOldest,
            defense,
            Arc::clone(&hints),
        );
        let publisher = IngestPublisher::new(queues.clone());
        let suspect = ProcessId(7);
        assert!(hints.mark(suspect));
        assert!(publisher.publish(suspect, Malicious));
        // Flood the normal lane far past capacity.
        for pid in 100..110u64 {
            assert!(publisher.publish(ProcessId(pid), Benign));
        }
        let stats = queues.stats();
        assert_eq!(stats.priority_queued, 1);
        assert_eq!(stats.dropped, 8, "flood evicted only normal-lane entries");
        assert_eq!(stats.queued, 3);

        let mut work = Vec::new();
        let mut seqs = Vec::new();
        queues.drain_shard_into(0, &mut work, Some(&mut seqs));
        assert_eq!(work[0].0, suspect, "the suspect was published first");
        assert!(work.iter().filter(|&&(pid, _)| pid == suspect).count() == 1);

        // Cleared pids fall back to the normal lane.
        assert!(hints.clear(suspect));
        assert!(!hints.is_hot(suspect));
        assert!(publisher.publish(suspect, Malicious));
        assert_eq!(queues.stats().priority_queued, 1, "no longer prioritized");
    }

    /// Fair shares divide by *live* handles: dropped clones give their
    /// share back, so the publisher over `capacity / live` pays.
    #[test]
    fn fair_share_counts_only_live_handles() {
        let defense = IngestDefense {
            priority_lane: false,
            fair_queueing: true,
        };
        let queues = IngestQueues::with_defense(
            1,
            4,
            OverflowPolicy::DropOldest,
            defense,
            ThreatHints::new(),
        );
        let a = IngestPublisher::new(queues.clone());
        let b = a.clone();
        for _ in 0..100 {
            drop(a.clone());
        }
        for pid in 1..=3 {
            assert!(a.publish(ProcessId(pid), Benign));
        }
        assert!(b.publish(ProcessId(4), Benign));
        // Ring full. `a` holds 3 entries, over its share of 4 / 2 live
        // handles, so its oldest entry goes.
        assert!(b.publish(ProcessId(5), Benign));
        let drained = drain_all(&queues);
        let pids: Vec<u64> = drained.iter().map(|&(_, pid, _)| pid.0).collect();
        assert_eq!(pids, vec![2, 3, 4, 5]);
        assert_eq!(
            queues.stats().dropped_by_publisher.get(a.id() as usize),
            Some(&1)
        );
    }

    /// The priority lane runs the normal lane's overflow routine with fair
    /// queueing off: a defended ring with every pid hot drains, drops and
    /// coalesces exactly like an undefended one.
    #[test]
    fn hot_priority_lane_overflows_like_an_undefended_ring() {
        // (handle, pid, verdict): repeated pids coalesce, fresh ones evict.
        let script = [
            (0, 1, Malicious),
            (1, 2, Benign),
            (0, 3, Malicious),
            (1, 1, Benign),
            (0, 4, Malicious),
            (1, 2, Malicious),
            (1, 5, Benign),
            (0, 4, Benign),
            (0, 6, Malicious),
            (1, 5, Malicious),
            (0, 1, Benign),
            (1, 7, Malicious),
        ];
        let run = |queues: Arc<IngestQueues>| {
            let first = IngestPublisher::new(queues.clone());
            let handles = [first.clone(), first];
            for &(h, pid, cls) in &script {
                assert!(handles[h].publish(ProcessId(pid), cls));
            }
            (drain_all(&queues), queues.stats())
        };
        for policy in [OverflowPolicy::DropOldest, OverflowPolicy::Coalesce] {
            let hints = ThreatHints::new();
            hints.update(script.iter().map(|&(_, pid, _)| (ProcessId(pid), true)));
            let (plain, plain_stats) = run(IngestQueues::new(1, 3, policy));
            let hot = IngestQueues::with_defense(1, 3, policy, IngestDefense::full(), hints);
            let (prio, prio_stats) = run(hot);
            assert_eq!(prio, plain, "{policy:?}: drained entries differ");
            assert!(
                plain_stats.dropped > 0,
                "{policy:?}: the ring never overflowed"
            );
            if policy == OverflowPolicy::Coalesce {
                assert!(plain_stats.coalesced > 0, "Coalesce never merged");
            }
            assert_eq!(prio_stats.dropped, plain_stats.dropped, "{policy:?}");
            assert_eq!(prio_stats.coalesced, plain_stats.coalesced, "{policy:?}");
            assert_eq!(
                prio_stats.dropped_by_publisher, plain_stats.dropped_by_publisher,
                "{policy:?}"
            );
            assert_eq!(prio_stats.evictions_deflected, 0, "{policy:?}");
            assert_eq!(
                prio_stats.priority_queued, prio_stats.published,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn threat_hints_update_marks_and_clears_in_one_pass() {
        let hints = ThreatHints::new();
        hints.update([
            (ProcessId(1), true),
            (ProcessId(2), true),
            (ProcessId(1), false),
        ]);
        assert!(!hints.is_hot(ProcessId(1)));
        assert!(hints.is_hot(ProcessId(2)));
        assert_eq!(hints.len(), 1);
        assert!(!hints.is_empty());
    }

    #[test]
    fn concurrent_publishers_deliver_everything() {
        let queues = IngestQueues::new(4, 4096, OverflowPolicy::Block);
        let publisher = IngestPublisher::new(queues.clone());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let publisher = publisher.clone();
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        assert!(publisher.publish(ProcessId(t * 1000 + i), Benign));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let drained = drain_all(&queues);
        assert_eq!(drained.len(), 4 * 256);
        // Sequence stamps are unique.
        let mut seqs: Vec<u64> = drained.iter().map(|&(seq, _, _)| seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 4 * 256);
    }

    /// Four threads publish `batches` batches of 256 observations each
    /// into rings that never fill, while this thread drains them with
    /// stamps. Each ring's stamps rise strictly in drain order, each batch
    /// holds one contiguous stamp run in entry order, and every published
    /// observation is drained.
    fn concurrent_batches_take_contiguous_stamp_runs(batches: u64) {
        const THREADS: u64 = 4;
        const BATCH: u64 = 256;
        let total = THREADS * batches * BATCH;
        let queues = IngestQueues::new(4, total as usize, OverflowPolicy::Block);
        let publisher = IngestPublisher::new(queues.clone());
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let publisher = publisher.clone();
                std::thread::spawn(move || {
                    let mut batch = Vec::with_capacity(BATCH as usize);
                    for b in 0..batches {
                        // The pid encodes the batch and the entry's index.
                        let first = (t * batches + b) * BATCH;
                        batch.clear();
                        batch.extend((first..first + BATCH).map(|pid| (ProcessId(pid), Benign)));
                        assert_eq!(publisher.publish_batch(&batch), batch.len());
                    }
                })
            })
            .collect();
        // Per batch: the stamp of its entry 0, and how many entries landed.
        let mut runs: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut last = vec![None; queues.rings.len()];
        let (mut work, mut seqs) = (Vec::new(), Vec::new());
        let mut drained = 0;
        while drained < total {
            for (shard, last) in last.iter_mut().enumerate() {
                work.clear();
                seqs.clear();
                queues.drain_shard_into(shard, &mut work, Some(&mut seqs));
                for (&seq, &(pid, _)) in seqs.iter().zip(&work) {
                    assert!(
                        Some(seq) > *last,
                        "ring {shard}: stamp {seq} after {last:?}"
                    );
                    *last = Some(seq);
                    let base = seq - pid.0 % BATCH;
                    let run = runs.entry(pid.0 / BATCH).or_insert((base, 0));
                    assert_eq!(run.0, base, "batch {} is not one stamp run", pid.0 / BATCH);
                    run.1 += 1;
                }
                drained += work.len() as u64;
            }
            std::thread::yield_now();
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(runs.len() as u64, THREADS * batches);
        assert!(runs.values().all(|&(_, n)| n == BATCH));
        let stats = queues.stats();
        assert_eq!(stats.published, total);
        assert_eq!(stats.drained, stats.published);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn concurrent_batches_are_contiguous_and_ring_ordered() {
        concurrent_batches_take_contiguous_stamp_runs(16);
    }

    #[test]
    #[ignore = "stress: 10k batches; run with --ignored"]
    fn concurrent_batches_are_contiguous_and_ring_ordered_stress() {
        concurrent_batches_take_contiguous_stamp_runs(2_500);
    }

    /// A `Block` batch three times the size of the rings cannot fit while
    /// it holds them, so it falls back to publishing entry by entry: a
    /// drainer racing it receives every observation exactly once, in
    /// publish order, and neither side deadlocks.
    #[test]
    fn oversized_block_batch_waits_entry_by_entry() {
        const CAPACITY: usize = 4;
        let queues = IngestQueues::new(3, CAPACITY, OverflowPolicy::Block);
        let batch: Vec<(ProcessId, Classification)> = (0..(3 * CAPACITY * 3) as u64)
            .map(|pid| (ProcessId(pid), Malicious))
            .collect();
        let publisher = IngestPublisher::new(queues.clone());
        let (done, finished) = std::sync::mpsc::channel();
        let publishing = {
            let batch = batch.clone();
            std::thread::spawn(move || done.send(publisher.publish_batch(&batch)).unwrap())
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let mut drained = Vec::new();
        let mut last = vec![None; queues.rings.len()];
        let (mut work, mut seqs) = (Vec::new(), Vec::new());
        while drained.len() < batch.len() {
            assert!(
                std::time::Instant::now() < deadline,
                "publish or drain deadlocked"
            );
            for (shard, last) in last.iter_mut().enumerate() {
                work.clear();
                seqs.clear();
                queues.drain_shard_into(shard, &mut work, Some(&mut seqs));
                for (&seq, &(pid, cls)) in seqs.iter().zip(&work) {
                    assert!(
                        Some(seq) > *last,
                        "ring {shard}: stamp {seq} after {last:?}"
                    );
                    *last = Some(seq);
                    drained.push((seq, pid, cls));
                }
            }
            std::thread::yield_now();
        }
        let accepted = finished
            .recv_timeout(deadline.saturating_duration_since(std::time::Instant::now()))
            .expect("the batch publish never returned");
        publishing.join().unwrap();
        assert_eq!(accepted, batch.len());
        drained.sort_unstable_by_key(|&(seq, _, _)| seq);
        let got: Vec<(ProcessId, Classification)> = drained
            .into_iter()
            .map(|(_, pid, cls)| (pid, cls))
            .collect();
        assert_eq!(got, batch, "every entry once, in publish order");
        let stats = queues.stats();
        assert_eq!((stats.published, stats.drained), (36, 36));
    }
}
