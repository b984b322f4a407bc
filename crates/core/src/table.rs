//! The per-shard process table: one record per tracked pid.
//!
//! Records sit densely in a `Vec`, in registration order, so a driver that
//! presents its fleet in a stable order walks them almost sequentially.
//! Lookups go through a separate open-addressing index of `u64` entries
//! (linear probing, power-of-two length, load at most 7/8). An entry packs
//! the low 32 bits of the pid's hash with the record's position plus one,
//! and `0` marks an empty slot, so no pid value is reserved: `0` and
//! `u64::MAX` are ordinary keys. A probe reads only index entries until the
//! one record whose tag matches.
//!
//! Removal swaps the last record into the hole, repoints that record's index
//! entry and closes the index gap by backward-shift deletion, so the table
//! never holds tombstones.

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

/// Pid-keyed records in registration order behind an open-addressing index
/// (see the module docs). Iteration order is registration order perturbed
/// by removals.
#[derive(Debug, Clone)]
pub(crate) struct ProcessTable<V> {
    records: Vec<(ProcessId, V)>,
    /// A power of two long, at least `MIN_SLOTS`.
    index: Vec<u64>,
}

impl<V> ProcessTable<V> {
    /// A table that holds `capacity` records before it re-indexes or
    /// reallocates. Nothing is written: the index is zero-allocated and the
    /// records only reserved, so untouched pages cost no memory.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            records: Vec::with_capacity(capacity),
            index: vec![EMPTY; slots_for(capacity)],
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
    /// on first sight.
    #[inline]
    pub(crate) fn get_or_insert_with(
        &mut self,
        pid: ProcessId,
        make: impl FnOnce() -> V,
    ) -> &mut V {
        let h = hash(pid);
        let slot = match self.find(pid, h) {
            Ok((_, p)) => return &mut self.records[p].1,
            Err(slot) if self.records.len() < self.max_load() => slot,
            Err(_) => {
                self.grow();
                self.find(pid, h)
                    .expect_err("a pid absent before re-indexing is absent after")
            }
        };
        let p = self.records.len();
        self.records.push((pid, make()));
        self.index[slot] = entry(h, p);
        &mut self.records[p].1
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

    /// Removes `pid`'s record, returning it. The last record moves into the
    /// freed position.
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

    /// Every record with its pid, in registration order perturbed by
    /// removals.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ProcessId, &V)> + '_ {
        self.records.iter().map(|(pid, v)| (*pid, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{mix64, shard_of};
    use std::collections::HashMap;

    impl<V> ProcessTable<V> {
        /// Panics unless every index entry points at a distinct record whose
        /// pid probes to exactly that entry, and every record is indexed.
        fn check_invariants(&self) {
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

    /// Drives `ops` random gets, get-or-inserts, removes and conditional
    /// removes (of even values) against a `HashMap` model, growing from
    /// capacity 0. Every `check_every` ops it also compares iteration with
    /// the model and checks the invariants.
    fn run_model(seed: u64, pool_size: u64, ops: u64, check_every: u64) {
        let pool = pid_pool(pool_size);
        let mut table: ProcessTable<u64> = ProcessTable::with_capacity(0);
        let mut model: HashMap<ProcessId, u64> = HashMap::new();
        for step in 0..ops {
            let r = mix64(seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let pid = pool[(r >> 8) as usize % pool.len()];
            match r % 8 {
                0 | 1 => assert_eq!(table.get(pid), model.get(&pid), "get {}", pid.0),
                2 => {
                    if let Some(v) = table.get_mut(pid) {
                        *v += 1;
                    }
                    if let Some(v) = model.get_mut(&pid) {
                        *v += 1;
                    }
                }
                3..=5 => {
                    let got = *table.get_or_insert_with(pid, || step);
                    let want = *model.entry(pid).or_insert(step);
                    assert_eq!(got, want, "get_or_insert {}", pid.0);
                }
                6 => assert_eq!(table.remove(pid), model.remove(&pid), "remove {}", pid.0),
                _ => {
                    let even = |v: &u64| v.is_multiple_of(2);
                    let want = if model.get(&pid).is_some_and(even) {
                        model.remove(&pid)
                    } else {
                        None
                    };
                    assert_eq!(table.remove_if(pid, even), want, "remove_if {}", pid.0);
                }
            }
            assert_eq!(table.len(), model.len());
            if step % check_every == 0 || step + 1 == ops {
                let mut got: Vec<(u64, u64)> = table.iter().map(|(p, &v)| (p.0, v)).collect();
                let mut want: Vec<(u64, u64)> = model.iter().map(|(p, &v)| (p.0, v)).collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "iter after op {step}");
                table.check_invariants();
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

    #[test]
    fn iteration_follows_registration_order_until_a_removal() {
        let mut t = ProcessTable::with_capacity(4);
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
        let mut t = ProcessTable::with_capacity(1000);
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
        let mut t = ProcessTable::with_capacity(62_500);
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
