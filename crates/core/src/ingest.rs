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
//! index order) and reserves one contiguous run of stamps for the whole
//! batch. Within a ring, sequence numbers are therefore strictly
//! increasing in application order.
//!
//! **Every lane is a FIFO in stamp order.** An observation joins a lane
//! only at its back, under a fresh stamp, and whatever leaves (a drain,
//! an eviction, an entry a newer one coalesces) leaves the rest in
//! order. So a drain applies each ring in publish order, and merging the
//! per-shard response lists by stamp rebuilds one publish-ordered
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
//!   observation for the same pid, that entry is removed and the newer
//!   classification queues at the back (cyclic monitoring consumes one
//!   verdict per process per epoch, so only the newest matters);
//!   otherwise the oldest entry is evicted as in `DropOldest`.
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
//!   suspicious. The marks are the threat hints: each ring keeps the set
//!   of its own pids that the engine's last response left Suspicious or
//!   Terminable, under the ring lock a publish already holds, so routing
//!   a publish takes no second lock. The engine refreshes them from every
//!   response it returns, locking the rings in index order as a batch
//!   publish does
//!   ([`ShardedEngine::is_hot`](crate::ShardedEngine::is_hot) reads them).
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

use crate::hash::FxBuildHasher;
use crate::resource::ProcessId;
use crate::telemetry::IngestStats;
use crate::threat::{Classification, Verdict};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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

/// Which overload-defense mechanisms a queue set runs with (see the
/// [module docs](self)). The default is everything off — the undefended
/// PR 5 rings, byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestDefense {
    /// Route observations for pids the engine marks suspicious (the
    /// threat hints, see the [module docs](self)) into a separate priority
    /// lane, never evicted by normal-lane overflow. A drain merges
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
    /// Replace the queued observation of the *same pid* with the newer
    /// classification, which queues at the back (cyclic monitoring's
    /// semantics: one verdict per process per epoch, newest wins); evict
    /// the oldest entry, as `DropOldest` does, when the pid has none
    /// queued. A publish into a *full* ring scans it (O(capacity), under
    /// the ring lock) for the entry to replace — size the rings so
    /// overflow is the exception, not the steady state, and let
    /// [`IngestStats::coalesced`] tell you when it isn't.
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

/// [`RingState::lanes`] index of the priority lane: entries for pids in
/// [`RingState::hot`]. Drained merged with the normal lane by stamp.
const PRIORITY: usize = 0;
/// [`RingState::lanes`] index of the normal lane.
const NORMAL: usize = 1;

/// The lock-protected interior of one shard's ring.
#[derive(Debug)]
struct RingState<P> {
    /// The priority and normal lanes. Each has its own `capacity` budget;
    /// overflow in one lane never evicts from the other.
    lanes: [VecDeque<QueuedObs<P>>; 2],
    /// The threat hints: this ring's pids that the engine marks
    /// suspicious, whose publishes go to the priority lane. Only rings
    /// with the priority lane hold any. Hashed as the process tables hash
    /// their pids: a pid is marked only from a response, so every marked
    /// pid is one a table already tracks.
    hot: HashSet<u64, FxBuildHasher>,
    /// `(publisher id, normal-lane entries)` for each publisher with
    /// entries in the normal lane, sorted by id (fair-queueing
    /// bookkeeping; maintained only when the defense runs with fair
    /// queueing). At most `capacity` pairs, however many handles were ever
    /// cloned.
    occupancy: Vec<(u32, u32)>,
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
            hot: HashSet::default(),
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

    /// Where `publisher`'s pair is, or would go, in [`Self::occupancy`].
    fn occ_slot(&self, publisher: u32) -> Result<usize, usize> {
        self.occupancy.binary_search_by_key(&publisher, |&(p, _)| p)
    }

    /// Normal-lane entries currently held by `publisher`.
    fn occ(&self, publisher: u32) -> usize {
        self.occ_slot(publisher)
            .map_or(0, |i| self.occupancy[i].1 as usize)
    }

    fn occ_inc(&mut self, publisher: u32) {
        match self.occ_slot(publisher) {
            Ok(i) => self.occupancy[i].1 += 1,
            Err(i) => self.occupancy.insert(i, (publisher, 1)),
        }
    }

    fn occ_dec(&mut self, publisher: u32) {
        if let Ok(i) = self.occ_slot(publisher) {
            self.occupancy[i].1 -= 1;
            if self.occupancy[i].1 == 0 {
                self.occupancy.remove(i);
            }
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

    /// The ring that owns `pid` (the batch path's shard placement).
    fn ring_of(&self, pid: ProcessId) -> usize {
        crate::hash::shard_of(pid.0, self.rings.len())
    }

    /// Whether publishes route on the threat hints: the rings run the
    /// priority lane.
    pub(crate) fn routes_on_hints(&self) -> bool {
        self.defense.priority_lane
    }

    /// Applies `(pid, hot)` updates to the threat hints of the rings that
    /// own the pids: `true` marks the pid, `false` clears it. Holds every
    /// ring for the whole pass, locked in index order as a batch publish
    /// locks them, so no publish sees half of it.
    pub(crate) fn set_hot(&self, updates: impl IntoIterator<Item = (ProcessId, bool)>) {
        debug_assert!(self.routes_on_hints(), "undefended rings keep no hints");
        let mut rings: Vec<_> = self.rings.iter().map(ShardRing::lock).collect();
        for (pid, hot) in updates {
            let marks = &mut rings[self.ring_of(pid)].hot;
            if hot {
                marks.insert(pid.0);
            } else {
                marks.remove(&pid.0);
            }
        }
    }

    /// Whether `pid`'s publishes go to the priority lane.
    pub(crate) fn is_hot(&self, pid: ProcessId) -> bool {
        self.rings[self.ring_of(pid)].lock().hot.contains(&pid.0)
    }

    /// Moves `old`'s threat hints into these rings if both sets run the
    /// priority lane. Otherwise these rings start with none: nothing
    /// refreshes the hints while the priority lane is off, so marks kept
    /// across a switch would be stale, and a pid purged meanwhile would
    /// pass its lane to a recycled successor. Locks one ring at a time.
    pub(crate) fn carry_hints(&self, old: &Self) {
        if !(self.routes_on_hints() && old.routes_on_hints()) {
            return;
        }
        for (ring, old) in self.rings.iter().zip(&old.rings) {
            let marks = std::mem::take(&mut old.lock().hot);
            ring.lock().hot = marks;
        }
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
        Self::with_defense(nshards, capacity, policy, IngestDefense::default())
    }

    /// One ring per shard, each bounded to `capacity` observations, with
    /// an explicit defense configuration and no threat hints yet.
    ///
    /// # Panics
    ///
    /// Panics if `nshards` or `capacity` is zero.
    pub(crate) fn with_defense(
        nshards: usize,
        capacity: usize,
        policy: OverflowPolicy,
        defense: IngestDefense,
    ) -> Arc<Self> {
        assert!(nshards > 0, "ingest needs at least one shard");
        assert!(capacity > 0, "ingest rings need a non-zero capacity");
        Arc::new(Self {
            rings: (0..nshards).map(|_| ShardRing::default()).collect(),
            capacity,
            policy,
            defense,
            seq: AtomicU64::new(0),
            next_publisher: AtomicU32::new(1),
            live_publishers: AtomicUsize::new(0),
            published: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        })
    }

    /// Publishes one observation from publisher `publisher` to the ring
    /// that owns `pid`, waiting under [`OverflowPolicy::Block`] while the
    /// destination lane is full. Returns `false` (observation discarded)
    /// only when the queue set has been closed.
    pub(crate) fn push(&self, publisher: u32, pid: ProcessId, payload: P) -> bool {
        let ring = &self.rings[self.ring_of(pid)];
        let mut state = ring.lock();
        let hot = self.defense.priority_lane && state.hot.contains(&pid.0);
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
    /// index order) for the whole batch, reserves its stamps with one
    /// atomic and counts it as published with another. When a `Block`
    /// lane fills mid-batch, every guard is released and the rest of the
    /// batch goes through [`Self::push`] one entry at a time: nothing
    /// waits on a condvar while holding more than one ring. The only other
    /// path that holds two ring locks, [`Self::set_hot`], takes them in
    /// the same order.
    pub(crate) fn push_batch(&self, publisher: u32, batch: &[(ProcessId, P)]) -> usize {
        let mut rings: Vec<_> = self.rings.iter().map(ShardRing::lock).collect();
        // Every stamp is taken under a ring lock and this batch holds them
        // all, so its stamps form one contiguous run.
        let base = self.seq.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut accepted = 0;
        let mut rest: &[(ProcessId, P)] = &[];
        for (i, &(pid, payload)) in batch.iter().enumerate() {
            let state = &mut rings[self.ring_of(pid)];
            let hot = self.defense.priority_lane && state.hot.contains(&pid.0);
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
                OverflowPolicy::DropOldest => self.evict(state, lane, publisher),
                OverflowPolicy::Coalesce => {
                    let key = payload.coalesce_key();
                    let queue = &mut state.lanes[lane];
                    let replaced = queue
                        .iter()
                        .rposition(|o| o.pid == pid && o.payload.coalesce_key() == key)
                        .and_then(|i| queue.remove(i));
                    match replaced {
                        // Same (pid, key) already queued: it leaves its
                        // slot, and the newer verdict queues at the back.
                        Some(prev) => {
                            if fair {
                                state.occ_dec(prev.publisher);
                            }
                            state.coalesced += 1;
                        }
                        None => self.evict(state, lane, publisher),
                    }
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

    /// Evicts one entry of `lane` to make room: the front, its oldest
    /// observation. With fair queueing the eviction is instead charged to
    /// `pusher` itself once it holds its fair share, and otherwise to the
    /// heaviest backlog holder, and takes that publisher's first entry;
    /// redirections away from the front's publisher are counted as
    /// deflected.
    fn evict(&self, state: &mut RingState<P>, lane: usize, pusher: u32) {
        let fair = self.fair(lane);
        let queue = &state.lanes[lane];
        let Some(front) = queue.front() else { return };
        let mut idx = 0;
        if fair {
            let victim_pub = if state.occ(pusher) >= self.fair_share() {
                pusher
            } else {
                // The heaviest normal-lane backlog holder pays; ties go
                // to the lowest id, deterministically.
                let mut heaviest = front.publisher;
                let mut max_occ = 0;
                for &(p, occ) in &state.occupancy {
                    if occ > max_occ {
                        heaviest = p;
                        max_occ = occ;
                    }
                }
                heaviest
            };
            if let Some(i) = (0..queue.len()).find(|&i| queue[i].publisher == victim_pub) {
                if front.publisher != victim_pub {
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
        // Each lane is in stamp order, so merging them by stamp drains
        // the ring in publish order.
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
    /// (in index order), takes one contiguous
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

    /// Drains every ring once and hands each entry to `each` with its
    /// stamp, checking that each ring's stamps rise from the `last` one
    /// it drained (`last` holds one slot per ring).
    fn drain_rising(
        queues: &IngestQueues,
        last: &mut [Option<u64>],
        mut each: impl FnMut(u64, ProcessId, Classification),
    ) {
        let (mut work, mut seqs) = (Vec::new(), Vec::new());
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
                each(seq, pid, cls);
            }
        }
    }

    /// Drains every ring, each in stamp order, and returns the entries
    /// sorted by stamp.
    fn drain_all(queues: &IngestQueues) -> Vec<(u64, ProcessId, Classification)> {
        let mut out = Vec::new();
        drain_rising(
            queues,
            &mut vec![None; queues.rings.len()],
            |seq, pid, cls| out.push((seq, pid, cls)),
        );
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
    /// pid: a same-pid publish replaces the queued entry, a fresh pid falls
    /// back to evicting the oldest entry.
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

    /// A coalesced verdict queues at the back under its own, newer stamp,
    /// so the drain applies it at its newest publish position.
    #[test]
    fn coalesce_takes_the_newer_sequence_stamp() {
        let queues = IngestQueues::new(1, 2, OverflowPolicy::Coalesce);
        let publisher = IngestPublisher::new(queues.clone());
        publisher.publish(ProcessId(1), Malicious); // seq 0
        publisher.publish(ProcessId(2), Malicious); // seq 1
        publisher.publish(ProcessId(1), Benign); // coalesced, seq 2
        let mut work = Vec::new();
        let mut seqs = Vec::new();
        queues.drain_shard_into(0, &mut work, Some(&mut seqs));
        assert_eq!(seqs, [1, 2]);
        assert_eq!(work, [(ProcessId(2), Malicious), (ProcessId(1), Benign)]);
    }

    /// Every lane stays a FIFO in stamp order through `Coalesce` merges
    /// and evictions: after every prefix of a script that overflows the
    /// normal lane, the priority lane or both, the ring drains with its
    /// stamps rising. A merge used to restamp the queued entry in its old
    /// slot, ahead of older entries.
    #[test]
    fn coalesce_keeps_every_lane_in_stamp_order() {
        let script = [1, 2, 3, 1, 4, 2, 1, 5, 3, 3, 6, 1, 2, 4];
        for hot in [&[][..], &[1, 2, 3, 4, 5, 6], &[1, 3, 5]] {
            for len in 1..=script.len() {
                let queues = IngestQueues::with_defense(
                    1,
                    3,
                    OverflowPolicy::Coalesce,
                    IngestDefense::full(),
                );
                queues.set_hot(hot.iter().map(|&pid| (ProcessId(pid), true)));
                let publisher = IngestPublisher::new(queues.clone());
                for (i, &pid) in script[..len].iter().enumerate() {
                    let cls = if i % 2 == 0 { Malicious } else { Benign };
                    assert!(publisher.publish(ProcessId(pid), cls));
                }
                let mut work = Vec::new();
                let mut seqs = Vec::new();
                queues.drain_shard_into(0, &mut work, Some(&mut seqs));
                assert!(
                    seqs.windows(2).all(|w| w[0] < w[1]),
                    "hot {hot:?}, {len} publishes: drained stamps {seqs:?}"
                );
                if len == script.len() {
                    let stats = queues.stats();
                    assert!(
                        stats.coalesced > 0 && stats.dropped > 0,
                        "{hot:?}: {stats:?}"
                    );
                }
            }
        }
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
        let queues = IngestQueues::with_defense(1, 4, OverflowPolicy::DropOldest, defense);
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
        let defense = IngestDefense {
            priority_lane: true,
            fair_queueing: false,
        };
        let queues = IngestQueues::with_defense(1, 2, OverflowPolicy::DropOldest, defense);
        let publisher = IngestPublisher::new(queues.clone());
        let suspect = ProcessId(7);
        queues.set_hot([(suspect, true)]);
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
        queues.set_hot([(suspect, false)]);
        assert!(!queues.is_hot(suspect));
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
        let queues = IngestQueues::with_defense(1, 4, OverflowPolicy::DropOldest, defense);
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
            let (plain, plain_stats) = run(IngestQueues::new(1, 3, policy));
            let hot = IngestQueues::with_defense(1, 3, policy, IngestDefense::full());
            hot.set_hot(script.iter().map(|&(_, pid, _)| (ProcessId(pid), true)));
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

    /// Every hint lives in the ring that owns its pid, and one pass
    /// applies its updates in order.
    #[test]
    fn set_hot_marks_and_clears_in_one_pass() {
        let queues = IngestQueues::<Classification>::with_defense(
            4,
            8,
            OverflowPolicy::Block,
            IngestDefense::full(),
        );
        queues.set_hot((0..32).map(|pid| (ProcessId(pid), true)));
        queues.set_hot([
            (ProcessId(1), false),
            (ProcessId(40), true),
            (ProcessId(2), false),
            (ProcessId(1), true),
            (ProcessId(40), false),
        ]);
        for pid in (0..32).map(ProcessId) {
            assert_eq!(queues.is_hot(pid), pid.0 != 2, "{pid:?}");
            let owner = queues.ring_of(pid);
            for (r, ring) in queues.rings.iter().enumerate() {
                assert_eq!(ring.lock().hot.contains(&pid.0), r == owner && pid.0 != 2);
            }
        }
        assert!(!queues.is_hot(ProcessId(40)));
        let marks: usize = queues.rings.iter().map(|r| r.lock().hot.len()).sum();
        assert_eq!(marks, 31);
    }

    /// A hint update that panics while it holds every ring poisons their
    /// locks. Every ring critical section leaves valid state, so later
    /// publishes and drains recover the locks instead of re-raising, and
    /// the marks applied before the panic stand.
    #[test]
    fn a_panicking_hint_update_does_not_wedge_publish_or_drain() {
        let queues =
            IngestQueues::with_defense(2, 64, OverflowPolicy::Block, IngestDefense::full());
        let publisher = IngestPublisher::new(queues.clone());
        let crashed = {
            let queues = Arc::clone(&queues);
            std::thread::spawn(move || {
                let feed = std::iter::once((ProcessId(9), true)).chain(std::iter::from_fn(
                    || -> Option<(ProcessId, bool)> { panic!("hint feed crashed mid-update") },
                ));
                queues.set_hot(feed);
            })
        };
        assert!(crashed.join().is_err(), "the updater must have panicked");
        assert!(
            queues.rings.iter().all(|ring| ring.state.is_poisoned()),
            "the update held every ring when it panicked"
        );

        assert!(queues.is_hot(ProcessId(9)));
        assert!(publisher.publish(ProcessId(1), Malicious));
        assert!(publisher.publish(ProcessId(9), Malicious));
        let drained = drain_all(&queues);
        let pids: Vec<u64> = drained.iter().map(|&(_, pid, _)| pid.0).collect();
        assert_eq!(pids, [1, 9]);
        assert_eq!(queues.stats().priority_queued, 1);
    }

    /// Fair-queueing bookkeeping covers only the publishers with entries
    /// queued: publisher ids are never reused, and before it did, every
    /// drain cycle regrew it to the largest live id and every fair
    /// eviction scanned all of it.
    #[test]
    fn fair_queueing_bookkeeping_does_not_grow_with_clone_churn() {
        const CAPACITY: usize = 4;
        let defense = IngestDefense {
            priority_lane: false,
            fair_queueing: true,
        };
        let queues = IngestQueues::with_defense(1, CAPACITY, OverflowPolicy::DropOldest, defense);
        let a = IngestPublisher::new(queues.clone());
        for _ in 0..10_000 {
            drop(a.clone());
        }
        let b = a.clone();
        assert!(b.id() > 10_000);
        for round in 0..3u64 {
            // `b` floods past its share of 4 / 2 live handles, then `a`
            // publishes into the full ring: the heaviest holder, `b`, pays.
            for pid in 0..5 {
                assert!(b.publish(ProcessId(100 * round + pid), Benign));
            }
            assert!(a.publish(ProcessId(100 * round + 50), Malicious));
            assert!(queues.rings[0].lock().occupancy.len() <= CAPACITY);
            let drained = drain_all(&queues);
            let pids: Vec<u64> = drained
                .iter()
                .map(|&(_, pid, _)| pid.0 - 100 * round)
                .collect();
            assert_eq!(pids, [2, 3, 4, 50], "round {round}");
        }
        let stats = queues.stats();
        assert_eq!(stats.dropped, 6);
        assert_eq!(stats.dropped_by_publisher.get(b.id() as usize), Some(&6));
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
    /// observation is drained. With the priority lane on, the drainer
    /// marks and clears a moving window of pids between drains, so
    /// batches straddle both lanes and the hint updates contend with the
    /// publishers for the ring locks. Every wait is bounded, so a
    /// lock-order deadlock fails the test instead of hanging it.
    fn concurrent_batches_take_contiguous_stamp_runs(batches: u64, defense: IngestDefense) {
        const THREADS: u64 = 4;
        const BATCH: u64 = 256;
        let total = THREADS * batches * BATCH;
        let queues = IngestQueues::with_defense(4, total as usize, OverflowPolicy::Block, defense);
        let publisher = IngestPublisher::new(queues.clone());
        if defense.priority_lane {
            // Each thread's first pid stays hot, so batches straddle the
            // lanes however the threads race the drainer.
            queues.set_hot((0..THREADS).map(|t| (ProcessId(t * batches * BATCH), true)));
        }
        let (done, finished) = std::sync::mpsc::channel();
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let publisher = publisher.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let mut batch = Vec::with_capacity(BATCH as usize);
                    for b in 0..batches {
                        // The pid encodes the batch and the entry's index.
                        let first = (t * batches + b) * BATCH;
                        batch.clear();
                        batch.extend((first..first + BATCH).map(|pid| (ProcessId(pid), Benign)));
                        assert_eq!(publisher.publish_batch(&batch), batch.len());
                    }
                    done.send(()).unwrap();
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
        // Per batch: the stamp of its entry 0, and how many entries landed.
        let mut runs: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut last = vec![None; queues.rings.len()];
        let mut drained = 0;
        let mut round = 0u64;
        while drained < total {
            assert!(
                std::time::Instant::now() < deadline,
                "publish or drain deadlocked"
            );
            if defense.priority_lane {
                // Mark a window of 64 odd pids spread over the whole run
                // and clear the previous round's window.
                let window = |r: u64| {
                    (0..64).map(move |k| ProcessId((r * 7919 + k * 4099) % (total / 2) * 2 + 1))
                };
                if round > 0 {
                    queues.set_hot(window(round - 1).map(|pid| (pid, false)));
                }
                queues.set_hot(window(round).map(|pid| (pid, true)));
                round += 1;
            }
            drain_rising(&queues, &mut last, |seq, pid, _| {
                let base = seq - pid.0 % BATCH;
                let run = runs.entry(pid.0 / BATCH).or_insert((base, 0));
                assert_eq!(run.0, base, "batch {} is not one stamp run", pid.0 / BATCH);
                run.1 += 1;
                drained += 1;
            });
            std::thread::yield_now();
        }
        for _ in &workers {
            finished
                .recv_timeout(deadline.saturating_duration_since(std::time::Instant::now()))
                .expect("a batch publisher never returned");
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
        assert_eq!(stats.dropped, 0);
        if defense.priority_lane {
            assert!(
                stats.priority_queued >= THREADS,
                "batches missed the priority lane"
            );
        }
    }

    #[test]
    fn concurrent_batches_are_contiguous_and_ring_ordered() {
        for defense in [IngestDefense::default(), IngestDefense::full()] {
            concurrent_batches_take_contiguous_stamp_runs(16, defense);
        }
    }

    #[test]
    #[ignore = "stress: 10k batches; run with --ignored"]
    fn concurrent_batches_are_contiguous_and_ring_ordered_stress() {
        concurrent_batches_take_contiguous_stamp_runs(2_500, IngestDefense::default());
    }

    #[test]
    #[ignore = "stress: 10k batches on defended rings; run with --ignored"]
    fn defended_concurrent_batches_are_contiguous_and_ring_ordered_stress() {
        concurrent_batches_take_contiguous_stamp_runs(2_500, IngestDefense::full());
    }

    /// Four threads publish batches and single entries of twelve repeated
    /// pids into four `Coalesce` rings of two entries a lane, so every
    /// batch merges and evicts while this thread drains with stamps. Each
    /// ring's stamps rise in drain order, and every published observation
    /// is drained, dropped, coalesced or still queued. With the defense on,
    /// the drainer moves a hot window between drains, so both lanes merge
    /// and fair queueing picks victims. Every wait is bounded.
    fn lossy_coalesce_keeps_rings_in_stamp_order(rounds: u64, defense: IngestDefense) {
        const THREADS: u64 = 4;
        const PIDS: u64 = 12;
        const BATCH: u64 = 24;
        let queues = IngestQueues::with_defense(4, 2, OverflowPolicy::Coalesce, defense);
        let publisher = IngestPublisher::new(queues.clone());
        let (done, finished) = std::sync::mpsc::channel();
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let publisher = publisher.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    let mut batch = Vec::with_capacity(BATCH as usize);
                    for r in 0..rounds {
                        batch.clear();
                        batch.extend((0..BATCH).map(|k| {
                            let cls = if (r + k) % 3 == 0 { Malicious } else { Benign };
                            (ProcessId((t * 7 + r * 5 + k) % PIDS), cls)
                        }));
                        assert_eq!(publisher.publish_batch(&batch), batch.len());
                        assert!(publisher.publish(ProcessId((t + r) % PIDS), Benign));
                    }
                    done.send(()).unwrap();
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
        let mut last = vec![None; queues.rings.len()];
        let mut running = THREADS;
        for round in 0u64.. {
            assert!(
                std::time::Instant::now() < deadline,
                "publish or drain deadlocked"
            );
            while finished.try_recv().is_ok() {
                running -= 1;
            }
            if defense.priority_lane {
                let window = |r: u64| (0..3).map(move |k| ProcessId((r + 4 * k) % PIDS));
                if round > 0 {
                    queues.set_hot(window(round - 1).map(|pid| (pid, false)));
                }
                queues.set_hot(window(round).map(|pid| (pid, true)));
            }
            drain_rising(&queues, &mut last, |_, _, _| {});
            if running == 0 {
                // Every publish returned before this pass drained the rings.
                break;
            }
            std::thread::yield_now();
        }
        for w in workers {
            w.join().unwrap();
        }
        let stats = queues.stats();
        assert_eq!(stats.published, THREADS * rounds * (BATCH + 1));
        assert_eq!(
            stats.published,
            stats.drained + stats.dropped + stats.coalesced + stats.queued as u64,
            "{stats:?}"
        );
        assert_eq!(stats.queued, 0);
        assert!(stats.coalesced > 0 && stats.dropped > 0, "{stats:?}");
        if defense.priority_lane {
            assert!(stats.priority_queued > 0, "{stats:?}");
        }
    }

    #[test]
    fn lossy_coalesce_rings_drain_in_stamp_order() {
        for defense in [IngestDefense::default(), IngestDefense::full()] {
            lossy_coalesce_keeps_rings_in_stamp_order(64, defense);
        }
    }

    #[test]
    #[ignore = "stress: 100k lossy batches per defense; run with --ignored"]
    fn lossy_coalesce_rings_drain_in_stamp_order_stress() {
        for defense in [IngestDefense::default(), IngestDefense::full()] {
            lossy_coalesce_keeps_rings_in_stamp_order(25_000, defense);
        }
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
        while drained.len() < batch.len() {
            assert!(
                std::time::Instant::now() < deadline,
                "publish or drain deadlocked"
            );
            drain_rising(&queues, &mut last, |seq, pid, cls| {
                drained.push((seq, pid, cls))
            });
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
