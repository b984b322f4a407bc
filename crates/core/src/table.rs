//! The per-shard process table: one record per tracked pid.
//!
//! Records sit densely in a `Vec`, in registration order until a re-lay
//! (below) reorders them. Lookups go through a separate open-addressing
//! index of `u64` entries (linear probing, power-of-two length, load at
//! most 7/8). An entry packs the low 32 bits of the pid's hash with the
//! record's position plus one, and `0` marks an empty slot, so no pid value
//! is reserved: `0` and `u64::MAX` are ordinary keys. A probe reads only
//! index entries until the one record whose tag matches.
//!
//! Removal swaps the last record into the hole, repoints that record's index
//! entry and closes the index gap by backward-shift deletion, so the table
//! never holds tombstones.
//!
//! # The column
//!
//! A table can carry one more value per record in a second `Vec`, the
//! column, which moves in lockstep with the records: the same push, the same
//! `swap_remove` and the same swaps in a re-lay, so an entry always sits at
//! its record's position. The engine keeps each process's fusion evidence
//! there, so one lookup serves both, and a caller that holds a record's
//! position (see [`ProcessTable::position_or_insert_with`]) reads both with
//! no probe at all. The column stays unallocated until its first use
//! ([`ProcessTable::column_mut`]), which fills it with defaults up to
//! `len()`: a table whose caller never touches it pays one `None` for it,
//! and its records stay as small as they were.
//!
//! # The lookup cursor
//!
//! Algorithm 1 consumes every monitored process's inference once per epoch,
//! so a tick presents almost the same pids in almost the same order every
//! epoch. At fleet scale the index is far larger than L2, and each probe
//! costs a cache miss in a random slot even when the record it finds is the
//! neighbour of the last one. So `get_or_insert_with` first compares the
//! record after the one it last returned, and probes only when the pid is
//! elsewhere. Two more candidates cover the two ways churn breaks a run:
//! after a hit, the record after that one (a removal swapped the table's
//! last record into the next position), and where the walk left off when
//! it last went off course (a new pid, registered at the end of the
//! records, was presented mid-walk). A candidate is used only if it holds
//! the pid asked for, so the cursor is a hint that can cost speed but never
//! return another pid's record. `get`, `get_mut`, `remove` and `remove_if`
//! stay pure probes.
//!
//! # Walks and re-lays
//!
//! Churn still erodes the cursor: each removal and each arrival leaves a
//! record out of presentation order for good. The caller therefore brackets
//! one pass over its batch with `begin_walk`/`end_walk`, which count the
//! lookups and the misses (probes). A recorded walk also keeps the position
//! of every record it returned. If more than 1/16 of a recorded walk missed
//! and so did the recorded walk just before it, `end_walk` works out how
//! often this walk would have missed had the records been laid out in the
//! earlier walk's order. If that halves the misses, the driver's order is
//! stable and churn broke the cursor, so it re-lays the records in this
//! walk's order: every record moves to its position in the walk, and the
//! index keeps its slots while its positions are rewritten. A driver that
//! presents its pids in a fresh order every epoch fails that test and never
//! pays for a re-lay. The sharded engine brackets every bulk pass with a
//! walk (its fan-out, its inline route, a one-shard engine, and each
//! shard's absorb pass on the verdict path) and gives one shard per pass,
//! round robin, a turn of two recorded walks, so at most one shard re-lays
//! per pass. A re-lay moves the column with the records. A walk entry that
//! is stale, duplicated or out of range is skipped, so a bad walk can cost
//! speed but never lose or duplicate a record.

use crate::hash::FxBuildHasher;
use crate::resource::ProcessId;
use std::hash::BuildHasher;

/// The empty index slot. Occupied entries hold `position + 1 >= 1` in their
/// high half, so they are never zero.
const EMPTY: u64 = 0;

/// The smallest index a table allocates.
const MIN_SLOTS: usize = 8;

/// The index hash of a pid: the low 32 bits of [`FxBuildHasher`]'s hash.
///
/// Not `mix64(pid)`: shards route by `mix64(pid) % shards` (see
/// [`crate::hash::shard_of`]), so with a power-of-two shard count the low
/// bits of `mix64` are the same for every pid of a shard, and home slots
/// would collapse onto a fraction of the index.
#[inline]
fn hash(pid: ProcessId) -> u32 {
    FxBuildHasher::default().hash_one(pid) as u32
}

#[inline]
fn entry(tag: u32, position: usize) -> u64 {
    ((position as u64 + 1) << 32) | u64::from(tag)
}

#[inline]
fn tag(entry: u64) -> u32 {
    entry as u32
}

#[inline]
fn position(entry: u64) -> usize {
    (entry >> 32) as usize - 1
}

/// Index slots needed to hold `n` records at load 7/8 or less.
fn slots_for(n: usize) -> usize {
    n.saturating_mul(8)
        .div_ceil(7)
        .next_power_of_two()
        .max(MIN_SLOTS)
}

/// A walk misses too often, and may lead to a re-lay, once more than one
/// lookup in this many missed the cursor.
const RELAY_MISS_SHARE: usize = 16;

/// Marks a record the re-lay has not placed yet. Positions stay below
/// 2^32 - 1 because the index holds at most 2^32 slots at load 7/8.
const UNPLACED: u32 = u32::MAX;

/// Pid-keyed records behind an open-addressing index, with a lookup cursor
/// and an optional column of `C`s (see the module docs). Iteration order is
/// the order of the last re-lay, then registration, perturbed by removals.
#[derive(Debug, Clone)]
pub(crate) struct ProcessTable<V, C = ()> {
    records: Vec<(ProcessId, V)>,
    /// `column[p]` belongs to `records[p]`, once the column is in use.
    column: Option<Vec<C>>,
    /// A power of two long, at least `MIN_SLOTS`.
    index: Vec<u64>,
    /// The position after the record [`Self::get_or_insert_with`] last
    /// returned. Only ever a hint: a candidate record is used only if it
    /// holds the pid asked for.
    cursor: usize,
    /// The cursor's value when the current detour began, i.e. when a probe
    /// followed a cursor hit: where the walk picks up again.
    resume: usize,
    /// Whether the last [`Self::get_or_insert_with`] probed the index.
    probed: bool,
    walk: Walk,
}

/// What the table learns about the walk between [`ProcessTable::begin_walk`]
/// and [`ProcessTable::end_walk`].
#[derive(Debug, Clone, Default)]
struct Walk {
    /// `get_or_insert_with` calls since the walk began.
    lookups: usize,
    /// Those that missed every cursor candidate and probed the index.
    misses: usize,
    /// The position each lookup returned, in order, if this walk is
    /// recorded.
    order: Option<Vec<u32>>,
    /// Walks begun so far.
    count: u64,
    /// A recorded walk that missed too often, with its count, kept for the
    /// walk right after it to test whether a re-lay in its order would
    /// have paid.
    missed: Option<(u64, Vec<u32>)>,
    /// A finished walk's position buffer, kept for the next walk to record
    /// into when the caller said that one is recorded too.
    spare: Option<Vec<u32>>,
}

impl<V, C: Default> ProcessTable<V, C> {
    /// A table that holds `capacity` records before it re-indexes or
    /// reallocates. Nothing is written: the index is zero-allocated and the
    /// records only reserved, so untouched pages cost no memory.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            records: Vec::with_capacity(capacity),
            column: None,
            index: vec![EMPTY; slots_for(capacity)],
            cursor: 0,
            resume: 0,
            probed: false,
            walk: Walk::default(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Records the index holds before it must grow: 7/8 of its slots.
    fn max_load(&self) -> usize {
        self.index.len() - self.index.len() / 8
    }

    /// Probes for `pid` (whose hash is `h`): `Ok((slot, position))` if
    /// tracked, otherwise `Err(slot)` with the empty slot that ended the
    /// probe. The load limit keeps an empty slot in every probe's way.
    #[inline]
    fn find(&self, pid: ProcessId, h: u32) -> Result<(usize, usize), usize> {
        let mask = self.index.len() - 1;
        let mut slot = h as usize & mask;
        loop {
            let e = self.index[slot];
            if e == EMPTY {
                return Err(slot);
            }
            if tag(e) == h && self.records[position(e)].0 == pid {
                return Ok((slot, position(e)));
            }
            slot = (slot + 1) & mask;
        }
    }

    #[inline]
    fn position_of(&self, pid: ProcessId) -> Option<usize> {
        self.find(pid, hash(pid)).ok().map(|(_, p)| p)
    }

    pub(crate) fn get(&self, pid: ProcessId) -> Option<&V> {
        self.position_of(pid).map(|p| &self.records[p].1)
    }

    pub(crate) fn get_mut(&mut self, pid: ProcessId) -> Option<&mut V> {
        self.position_of(pid).map(|p| &mut self.records[p].1)
    }

    /// The record of `pid`, registering `make()` at the end of the records
    /// on first sight (see [`Self::position_or_insert_with`]).
    #[inline]
    pub(crate) fn get_or_insert_with(
        &mut self,
        pid: ProcessId,
        make: impl FnOnce() -> V,
    ) -> &mut V {
        let p = self.position_or_insert_with(pid, make);
        &mut self.records[p].1
    }

    /// The position of `pid`'s record, registering `make()` at the end of
    /// the records on first sight. The position stays `pid`'s until a
    /// removal or a re-lay.
    ///
    /// Tries the cursor's candidates first and probes the index only when
    /// none of them holds `pid`. Each call counts towards the current walk.
    #[inline]
    pub(crate) fn position_or_insert_with(
        &mut self,
        pid: ProcessId,
        make: impl FnOnce() -> V,
    ) -> usize {
        let p = match self.near_cursor(pid) {
            Some(p) => {
                self.probed = false;
                p
            }
            None => {
                if !self.probed {
                    self.resume = self.cursor;
                }
                self.probed = true;
                self.walk.misses += 1;
                self.find_or_insert(pid, make)
            }
        };
        self.cursor = p + 1;
        self.walk.lookups += 1;
        if let Some(order) = &mut self.walk.order {
            order.push(p as u32);
        }
        p
    }

    /// The column entry at position `p`, putting the column in use on first
    /// call: it then holds a default entry for every record.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub(crate) fn column_mut(&mut self, p: usize) -> &mut C {
        let records = &self.records;
        let column = self.column.get_or_insert_with(|| {
            let mut column = Vec::with_capacity(records.capacity());
            column.resize_with(records.len(), C::default);
            column
        });
        &mut column[p]
    }

    /// The pid, the record and the column entry at position `p`, for a
    /// caller that kept the position from
    /// [`Self::position_or_insert_with`]: no probe.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or the column was never used.
    #[inline]
    pub(crate) fn at_mut(&mut self, p: usize) -> (ProcessId, &mut V, &mut C) {
        let (pid, record) = &mut self.records[p];
        let entry = &mut self
            .column
            .as_mut()
            .expect("column_mut puts the column in use before at_mut reads it")[p];
        (*pid, record, entry)
    }

    /// The position of `pid` if a cursor candidate holds it: the record
    /// after the one last returned; after a hit, the record after that (a
    /// removal may have swapped another record into the next position);
    /// and the record where the walk resumes after a detour. After a probe
    /// the second is skipped, so a driver whose order never matches pays
    /// only for the record next to the one it just touched and for one it
    /// keeps touching.
    #[inline]
    fn near_cursor(&self, pid: ProcessId) -> Option<usize> {
        let holds = |p: usize| self.records.get(p).is_some_and(|r| r.0 == pid);
        let c = self.cursor;
        if holds(c) {
            Some(c)
        } else if !self.probed && holds(c + 1) {
            Some(c + 1)
        } else {
            holds(self.resume).then_some(self.resume)
        }
    }

    /// The position of `pid`'s record by an index probe, registering
    /// `make()` at the end of the records if it is absent.
    #[inline]
    fn find_or_insert(&mut self, pid: ProcessId, make: impl FnOnce() -> V) -> usize {
        let h = hash(pid);
        let slot = match self.find(pid, h) {
            Ok((_, p)) => return p,
            Err(slot) if self.records.len() < self.max_load() => slot,
            Err(_) => {
                self.grow();
                self.find(pid, h)
                    .expect_err("a pid absent before re-indexing is absent after")
            }
        };
        let p = self.records.len();
        self.records.push((pid, make()));
        if let Some(column) = &mut self.column {
            column.push(C::default());
        }
        self.index[slot] = entry(h, p);
        p
    }

    /// Starts a walk: the cursor goes back to the first record and the
    /// walk's counts to zero. A `record`ed walk also keeps the position of
    /// every record it returns, for [`Self::end_walk`] to re-lay by, in the
    /// buffer the last walk left if there is one.
    pub(crate) fn begin_walk(&mut self, record: bool) {
        self.cursor = 0;
        self.walk.lookups = 0;
        self.walk.misses = 0;
        self.walk.count += 1;
        let spare = self.walk.spare.take();
        self.walk.order = record.then(|| {
            let mut order = spare.unwrap_or_default();
            order.clear();
            order.reserve(self.records.len());
            order
        });
    }

    /// Ends the walk [`Self::begin_walk`] started. If `next_recorded`, the
    /// caller will record the next walk too, and the table keeps this
    /// walk's position buffer for it when the walk itself is not kept, so
    /// a table that records every walk does not allocate one per walk.
    /// Otherwise the buffer is freed, and no table holds a spare between
    /// turns.
    ///
    /// A re-lay takes two recorded walks in a row. If more than 1/16 of a
    /// recorded walk missed, the table keeps it. If the very next walk is
    /// recorded and missed that often too, the table counts how many of its
    /// lookups would have missed had the records been laid out in the kept
    /// walk's order. Only if that is less than half of what did miss, i.e.
    /// the driver's order held from one walk to the next and churn is what
    /// broke the cursor, does it re-lay the records in the new walk's
    /// order. A driver that presents its pids in a fresh order every epoch
    /// never pays for a re-lay.
    pub(crate) fn end_walk(&mut self, next_recorded: bool) {
        let Some(order) = self.walk.order.take() else {
            return;
        };
        let (lookups, misses) = (self.walk.lookups, self.walk.misses);
        let count = self.walk.count;
        let kept = self.walk.missed.take().filter(|(c, _)| c + 1 == count);
        if misses * RELAY_MISS_SHARE > lookups {
            match kept {
                Some((_, kept)) if 2 * self.would_miss(&kept, &order) < misses => {
                    self.relay(&order)
                }
                Some(_) => {}
                None => {
                    self.walk.missed = Some((count, order));
                    return;
                }
            }
        }
        self.walk.spare = next_recorded.then_some(order);
    }

    /// How many lookups of `walk` would have missed the cursor's first
    /// candidate had the records been re-laid in `kept`'s order: each one
    /// whose record does not directly follow the previous lookup's.
    fn would_miss(&self, kept: &[u32], walk: &[u32]) -> usize {
        let mut rank = vec![UNPLACED; self.records.len()];
        for (r, &p) in (0..).zip(kept) {
            if let Some(slot) = rank.get_mut(p as usize).filter(|slot| **slot == UNPLACED) {
                *slot = r;
            }
        }
        // A walk starts at the first record, as if after rank -1.
        let mut last = UNPLACED;
        let mut missed = 0;
        for &p in walk {
            let r = rank.get(p as usize).copied().unwrap_or(UNPLACED);
            if r == UNPLACED || r != last.wrapping_add(1) {
                missed += 1;
            }
            last = r;
        }
        missed
    }

    /// The `(lookups, misses)` of the current or last walk.
    #[cfg(test)]
    pub(crate) fn walk_counts(&self) -> (usize, usize) {
        (self.walk.lookups, self.walk.misses)
    }

    /// Moves the records, and the column with them, into `walk`'s order:
    /// the record at each position `walk` names, at its first mention, then
    /// every other record in its current order. A duplicated or
    /// out-of-range position is skipped, so a stale walk costs speed, never
    /// a record. The index keeps its slots and only has its positions
    /// rewritten.
    fn relay(&mut self, walk: &[u32]) {
        // `dest[p]` is where the record now at `p` goes.
        let mut dest = vec![UNPLACED; self.records.len()];
        let mut next = 0;
        for &p in walk {
            if let Some(d) = dest.get_mut(p as usize).filter(|d| **d == UNPLACED) {
                *d = next;
                next += 1;
            }
        }
        for d in dest.iter_mut().filter(|d| **d == UNPLACED) {
            *d = next;
            next += 1;
        }
        for e in self.index.iter_mut().filter(|e| **e != EMPTY) {
            *e = entry(tag(*e), dest[position(*e)] as usize);
        }
        // Follow each cycle of the permutation: every swap sends the record
        // at `i` to its final position.
        for i in 0..dest.len() {
            while dest[i] as usize != i {
                let d = dest[i] as usize;
                self.records.swap(i, d);
                if let Some(column) = &mut self.column {
                    column.swap(i, d);
                }
                dest.swap(i, d);
            }
        }
    }

    /// Doubles the index and re-inserts every entry from its stored tag,
    /// without touching the records.
    #[cold]
    fn grow(&mut self) {
        let slots = self.index.len() * 2;
        // Tags carry 32 hash bits, so they can place entries in at most
        // 2^32 slots; this also keeps `position + 1` within 32 bits.
        assert!(
            slots as u64 <= 1 << 32,
            "process table index limited to 2^32 slots"
        );
        let mask = slots - 1;
        let mut index = vec![EMPTY; slots];
        for &e in self.index.iter().filter(|&&e| e != EMPTY) {
            let mut slot = tag(e) as usize & mask;
            while index[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            index[slot] = e;
        }
        self.index = index;
    }

    /// Removes `pid`'s record (and its column entry), returning the record.
    /// The last record moves into the freed position.
    pub(crate) fn remove(&mut self, pid: ProcessId) -> Option<V> {
        self.remove_if(pid, |_| true)
    }

    /// Removes `pid`'s record if `pred` holds for it, returning it; the
    /// predicate reads the record the lookup probe found, so a conditional
    /// removal costs no second probe.
    pub(crate) fn remove_if(&mut self, pid: ProcessId, pred: impl FnOnce(&V) -> bool) -> Option<V> {
        let (slot, p) = self.find(pid, hash(pid)).ok()?;
        if !pred(&self.records[p].1) {
            return None;
        }
        self.clear_slot(slot);
        let last = self.records.len() - 1;
        if p != last {
            let moved = self.records[last].0;
            let (moved_slot, _) = self
                .find(moved, hash(moved))
                .expect("every record is indexed");
            self.index[moved_slot] = entry(tag(self.index[moved_slot]), p);
        }
        if let Some(column) = &mut self.column {
            column.swap_remove(p);
        }
        Some(self.records.swap_remove(p).1)
    }

    /// Empties `hole` by backward-shift deletion: each later entry of the
    /// probe run moves back into the hole unless its home slot lies
    /// (cyclically) after the hole, so every remaining entry stays reachable
    /// from its home without a tombstone.
    fn clear_slot(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut slot = (hole + 1) & mask;
        loop {
            let e = self.index[slot];
            if e == EMPTY {
                break;
            }
            let home = tag(e) as usize & mask;
            // Distances are taken modulo the index length, so a run that
            // wraps past the last slot shifts like any other.
            if slot.wrapping_sub(home) & mask >= slot.wrapping_sub(hole) & mask {
                self.index[hole] = e;
                hole = slot;
            }
            slot = (slot + 1) & mask;
        }
        self.index[hole] = EMPTY;
    }

    /// Every record with its pid, in the order of the last re-lay, then
    /// registration, perturbed by removals.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ProcessId, &V)> + '_ {
        self.records.iter().map(|(pid, v)| (*pid, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{mix64, shard_of};
    use std::collections::HashMap;

    /// The pid a column entry was written for, if it says.
    pub(crate) trait Owner {
        fn owner(&self) -> Option<ProcessId>;
    }

    impl Owner for () {
        fn owner(&self) -> Option<ProcessId> {
            None
        }
    }

    impl Owner for Option<ProcessId> {
        fn owner(&self) -> Option<ProcessId> {
            *self
        }
    }

    impl<V, C: Default + Owner> ProcessTable<V, C> {
        /// Panics unless every index entry points at a distinct record whose
        /// pid probes to exactly that entry, every record is indexed, and a
        /// column in use has one entry per record, each written (if at all)
        /// for its record's pid.
        fn check_invariants(&self) {
            if let Some(column) = &self.column {
                assert_eq!(column.len(), self.records.len(), "column length");
                for (p, (c, (pid, _))) in column.iter().zip(&self.records).enumerate() {
                    assert!(
                        c.owner().is_none_or(|owner| owner == *pid),
                        "column entry {p} belongs to another pid than {}",
                        pid.0
                    );
                }
            }
            assert!(self.index.len().is_power_of_two() && self.index.len() >= MIN_SLOTS);
            assert!(self.records.len() <= self.max_load(), "load above 7/8");
            let mut indexed = vec![false; self.records.len()];
            for (slot, &e) in self.index.iter().enumerate() {
                if e == EMPTY {
                    continue;
                }
                let p = position(e);
                assert!(
                    p < self.records.len(),
                    "slot {slot} points past the records"
                );
                assert!(!indexed[p], "two slots point at position {p}");
                indexed[p] = true;
                let pid = self.records[p].0;
                assert_eq!(tag(e), hash(pid), "slot {slot} carries a stale tag");
                assert_eq!(
                    self.find(pid, hash(pid)),
                    Ok((slot, p)),
                    "pid {} does not probe to slot {slot}",
                    pid.0
                );
            }
            assert!(indexed.iter().all(|&i| i), "a record is unreachable");
        }

        /// Each occupied slot's distance from its home slot.
        fn displacements(&self) -> impl Iterator<Item = usize> + '_ {
            let mask = self.index.len() - 1;
            self.index
                .iter()
                .enumerate()
                .filter(|&(_, &e)| e != EMPTY)
                .map(move |(slot, &e)| slot.wrapping_sub(tag(e) as usize) & mask)
        }
    }

    /// A pool that mixes the edge pids `0` and `u64::MAX`, small sequential
    /// pids and fleet-packed `(machine, local)` pids.
    fn pid_pool(size: u64) -> Vec<ProcessId> {
        let mut pool = vec![ProcessId(0), ProcessId(u64::MAX), ProcessId(u64::MAX - 1)];
        for i in 0..size {
            pool.push(if i % 2 == 0 {
                ProcessId(i + 1)
            } else {
                ProcessId::from_parts((i % 97) as u32, i / 97 + 1)
            });
        }
        pool
    }

    /// The table and its `HashMap` model under one random op sequence. The
    /// table's column carries each record's pid, written at every lookup
    /// from op `column_from` on, so the column is unused before that and
    /// every entry must stay with its record after.
    struct Model<'a> {
        pool: &'a [ProcessId],
        table: ProcessTable<u64, Option<ProcessId>>,
        model: HashMap<ProcessId, u64>,
        column_from: u64,
    }

    impl Model<'_> {
        fn pid(&self, r: u64) -> ProcessId {
            self.pool[(r >> 8) as usize % self.pool.len()]
        }

        /// `get_or_insert_with`, registering `value` on first sight, and
        /// from op `column_from` on the record's column entry.
        fn lookup(&mut self, pid: ProcessId, value: u64) {
            let p = self.table.position_or_insert_with(pid, || value);
            let got = self.table.records[p].1;
            let want = *self.model.entry(pid).or_insert(value);
            assert_eq!(got, want, "get_or_insert {}", pid.0);
            if value >= self.column_from {
                *self.table.column_mut(p) = Some(pid);
                let (at, record, entry) = self.table.at_mut(p);
                assert_eq!((at, *record, *entry), (pid, want, Some(pid)));
            }
        }

        fn remove(&mut self, pid: ProcessId) {
            assert_eq!(
                self.table.remove(pid),
                self.model.remove(&pid),
                "remove {}",
                pid.0
            );
        }

        /// One random get, get-or-insert, remove or conditional remove (of
        /// an even value).
        fn op(&mut self, r: u64, step: u64) {
            let pid = self.pid(r);
            match (r >> 40) % 8 {
                0 | 1 => assert_eq!(self.table.get(pid), self.model.get(&pid), "get {}", pid.0),
                2 => {
                    if let Some(v) = self.table.get_mut(pid) {
                        *v += 1;
                    }
                    if let Some(v) = self.model.get_mut(&pid) {
                        *v += 1;
                    }
                }
                3..=5 => self.lookup(pid, step),
                6 => self.remove(pid),
                _ => {
                    let even = |v: &u64| v.is_multiple_of(2);
                    let want = if self.model.get(&pid).is_some_and(even) {
                        self.model.remove(&pid)
                    } else {
                        None
                    };
                    assert_eq!(self.table.remove_if(pid, even), want, "remove_if {}", pid.0);
                }
            }
        }

        /// An in-order walk, presented twice in a row and recorded half
        /// the time each (so the second may re-lay the table). Every record
        /// is looked up in table order, except that one in 16 is skipped,
        /// one in 16 is preceded by a random pool pid (found, or registered
        /// mid-walk like an arrival), and one in 16 by the removal of a
        /// random pool pid (a departure, which swaps a record into a walked
        /// position).
        fn walk(&mut self, r: u64, step: u64) {
            let mut seq = Vec::new();
            for (i, (pid, _)) in self.table.iter().enumerate() {
                let d = mix64(r ^ i as u64);
                match d % 16 {
                    0 => continue,
                    1 => seq.push((self.pid(d), false)),
                    2 => seq.push((self.pid(d), true)),
                    _ => {}
                }
                seq.push((pid, false));
            }
            for pass in 0..2 {
                self.table.begin_walk(r & (1 << (20 + pass)) != 0);
                for &(pid, remove) in &seq {
                    if remove {
                        self.remove(pid);
                    } else {
                        self.lookup(pid, step);
                    }
                }
                // The hint is right for the first pass and random for the
                // second: a wrong one costs an allocation, never a record.
                self.table.end_walk(r & (1 << (21 + pass)) != 0);
            }
        }

        /// Re-lays by a walk of up to `len()` stale positions from the last
        /// re-lay op, then random positions up to 8 past the end, a quarter
        /// of them repeats, and checks the order: each position's record
        /// at its first mention, then the rest in their previous order.
        /// Returns the walk, to be stale next time.
        fn relay(&mut self, r: u64, mut walk: Vec<u32>) -> Vec<u32> {
            let before: Vec<ProcessId> = self.table.iter().map(|(pid, _)| pid).collect();
            let n = before.len() as u64;
            walk.truncate(n as usize);
            for i in 0..(r >> 8) % (2 * n + 2) {
                let d = mix64(r ^ i);
                walk.push(if d.is_multiple_of(4) && !walk.is_empty() {
                    walk[(d >> 8) as usize % walk.len()]
                } else {
                    ((d >> 8) % (n + 8)) as u32
                });
            }
            let mut placed = vec![false; before.len()];
            let mut want = Vec::with_capacity(before.len());
            for &p in &walk {
                if let Some(seen @ false) = placed.get_mut(p as usize) {
                    *seen = true;
                    want.push(before[p as usize]);
                }
            }
            want.extend(
                before
                    .iter()
                    .zip(&placed)
                    .filter(|(_, &seen)| !seen)
                    .map(|(&pid, _)| pid),
            );
            self.table.relay(&walk);
            let got: Vec<ProcessId> = self.table.iter().map(|(pid, _)| pid).collect();
            assert_eq!(got, want, "re-lay order");
            walk
        }

        /// Compares iteration with the model and checks the invariants.
        fn check(&self, step: u64) {
            let mut got: Vec<(u64, u64)> = self.table.iter().map(|(p, &v)| (p.0, v)).collect();
            let mut want: Vec<(u64, u64)> = self.model.iter().map(|(p, &v)| (p.0, v)).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "iter after op {step}");
            self.table.check_invariants();
        }
    }

    /// Drives `ops` random ops (see [`Model::op`]) against a `HashMap`
    /// model, growing from capacity 0, checking iteration and the
    /// invariants every `check_every` ops. About once per quarter of the
    /// pool's size in ops, it also runs an in-order walk ([`Model::walk`])
    /// and a re-lay ([`Model::relay`]), each checked straight after.
    fn run_model(seed: u64, pool_size: u64, ops: u64, check_every: u64) {
        let pool = pid_pool(pool_size);
        let mut m = Model {
            pool: &pool,
            table: ProcessTable::with_capacity(0),
            model: HashMap::new(),
            column_from: ops / 4,
        };
        let period = (pool_size / 4).max(64);
        let mut stale = Vec::new();
        for step in 0..ops {
            let r = mix64(seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            match r % period {
                0 => m.walk(r, step),
                1 => stale = m.relay(r, std::mem::take(&mut stale)),
                _ => m.op(r, step),
            }
            assert_eq!(m.table.len(), m.model.len());
            if r % period < 2 || step % check_every == 0 || step + 1 == ops {
                m.check(step);
            }
        }
    }

    #[test]
    fn table_matches_a_hash_map_model() {
        // Small pools keep the index small, so probe runs wrap past its end
        // and removals reach every backward-shift case.
        for (seed, pool, check_every) in [
            (1, 6, 1),
            (2, 13, 1),
            (3, 40, 1),
            (4, 300, 7),
            (5, 2_000, 97),
        ] {
            run_model(seed, pool, 20_000, check_every);
        }
    }

    /// The long run CI executes in release: over a million operations per
    /// pool, with the invariants checked every 10k.
    #[test]
    #[ignore = "stress: run with --release -- --ignored"]
    fn table_stress_matches_a_hash_map_model() {
        for (seed, pool) in [(11, 50), (12, 5_000), (13, 200_000)] {
            run_model(seed, pool, 1_000_000, 10_000);
        }
    }

    fn order<V>(t: &ProcessTable<V>) -> Vec<u64> {
        t.iter().map(|(pid, _)| pid.0).collect()
    }

    /// Looks `pids` up in order as one walk, returning its `(lookups,
    /// misses)`.
    fn walk(t: &mut ProcessTable<u64>, pids: &[u64], record: bool) -> (usize, usize) {
        t.begin_walk(record);
        for &pid in pids {
            assert_eq!(*t.get_or_insert_with(ProcessId(pid), || pid), pid);
        }
        t.end_walk(true);
        t.walk_counts()
    }

    /// A table whose next walk is recorded too keeps a finished walk's
    /// position buffer for it, so a table that records every walk (each
    /// shard of a one- or two-shard engine) allocates none per walk. Told
    /// that its turn is over, it keeps none.
    #[test]
    fn a_recorded_walk_reuses_the_last_walks_buffer() {
        let mut t = ProcessTable::with_capacity(0);
        let pids: Vec<u64> = (0..1000).collect();
        walk(&mut t, &pids, true);
        assert!(t.walk.spare.is_none(), "a walk that missed is kept");
        walk(&mut t, &pids, true);
        let spare = t.walk.spare.as_ref().map(Vec::as_ptr);
        assert!(spare.is_some(), "a walk that hit leaves its buffer");
        for _ in 0..3 {
            walk(&mut t, &pids, true);
            assert_eq!(t.walk.spare.as_ref().map(Vec::as_ptr), spare);
        }
        t.begin_walk(true);
        t.end_walk(false);
        assert!(t.walk.spare.is_none());
    }

    /// A walk in table order hits the cursor throughout. Departures (each
    /// swaps the last record into its hole) and arrivals presented
    /// mid-walk cost misses. A recorded walk that misses that often is
    /// kept, and the next recorded walk in the same order re-lays the
    /// table in its order; the walk after that hits again.
    #[test]
    fn a_stable_order_re_lays_the_table_on_the_second_recorded_walk() {
        let mut t = ProcessTable::with_capacity(0);
        let mut pids: Vec<u64> = (0..1000).collect();
        assert_eq!(walk(&mut t, &pids, true), (1000, 1000), "registration");
        assert_eq!(walk(&mut t, &pids, true), (1000, 0));
        assert_eq!(order(&t), pids, "a walk that hits never re-lays");
        for i in 0..50 {
            let gone = pids.remove(i * 19);
            t.remove(ProcessId(gone));
            pids.insert(i * 19 + 7, 10_000 + i as u64);
        }
        walk(&mut t, &pids, false);
        let before = order(&t);
        let (lookups, misses) = walk(&mut t, &pids, true);
        assert!(misses * 16 > lookups, "{misses} of {lookups} missed");
        assert_eq!(order(&t), before, "one walk is not enough");
        walk(&mut t, &pids, true);
        assert_eq!(order(&t), pids);
        assert_eq!(walk(&mut t, &pids, false), (1000, 0));
        t.check_invariants();
    }

    /// A driver that presents its pids in a fresh order every walk would
    /// gain nothing from a re-lay, so however many walks it records, the
    /// table keeps its registration order.
    #[test]
    fn a_fresh_order_every_walk_never_re_lays() {
        let mut t = ProcessTable::with_capacity(0);
        let mut registered = Vec::new();
        for round in 0..50u64 {
            let mut pids: Vec<u64> = (0..1000).collect();
            for i in (1..pids.len()).rev() {
                pids.swap(i, mix64(round << 32 | i as u64) as usize % (i + 1));
            }
            walk(&mut t, &pids, true);
            if round == 0 {
                registered = pids;
            }
            assert_eq!(order(&t), registered, "round {round}");
        }
        t.check_invariants();
    }

    #[test]
    fn iteration_follows_registration_order_until_a_removal() {
        let mut t = ProcessTable::<u64>::with_capacity(4);
        for pid in [5, 3, 9, 1] {
            t.get_or_insert_with(ProcessId(pid), || pid);
        }
        let order: Vec<u64> = t.iter().map(|(p, _)| p.0).collect();
        assert_eq!(order, [5, 3, 9, 1]);
        // The last record fills the hole.
        t.remove(ProcessId(3));
        let order: Vec<u64> = t.iter().map(|(p, _)| p.0).collect();
        assert_eq!(order, [5, 1, 9]);
        t.check_invariants();
    }

    #[test]
    fn with_capacity_sizes_the_index_without_growing() {
        let mut t = ProcessTable::<()>::with_capacity(1000);
        let slots = t.index.len();
        assert_eq!(slots, 2048);
        for pid in 0..1000 {
            t.get_or_insert_with(ProcessId(pid), || ());
        }
        assert_eq!(t.index.len(), slots);
        assert_eq!(ProcessTable::<()>::with_capacity(0).index.len(), MIN_SLOTS);
    }

    /// 62.5k packed fleet pids that `shard_of(_, 16)` routes to one shard,
    /// as in a 1M-process fleet over 16 shards. Their `mix64` low bits are
    /// constant modulo 16, so an index that reused the routing hash would
    /// give them one home slot in 16 and pile them into long runs.
    #[test]
    fn one_shards_pids_spread_over_the_index() {
        let mut t = ProcessTable::<()>::with_capacity(62_500);
        let mut n = 0;
        'fleet: for machine in 0..u32::MAX {
            for local in 1..=10 {
                let pid = ProcessId::from_parts(machine, local);
                if shard_of(pid.0, 16) == 5 {
                    t.get_or_insert_with(pid, || ());
                    n += 1;
                    if n == 62_500 {
                        break 'fleet;
                    }
                }
            }
        }
        t.check_invariants();
        let (sum, max) = t
            .displacements()
            .fold((0, 0), |(sum, max), d| (sum + d, max.max(d)));
        let mean = sum as f64 / n as f64;
        // A uniform hash at load 0.48 displaces entries by ~0.5 slots on
        // average, with a longest run in the low tens.
        assert!(mean < 1.0, "mean displacement {mean:.2}");
        assert!(max < 64, "longest displacement {max}");
    }
}
