//! A fast, deterministic hasher for [`ProcessId`](crate::ProcessId)-keyed
//! maps.
//!
//! The engine's hot path is a hash-index lookup per observation, and the
//! standard library's default SipHash is built for HashDoS resistance the
//! engine does not need: process ids are assigned by the embedder (the OS
//! or the simulator), not by the adversary the detector watches. [`FxHasher`]
//! is the multiply-xor scheme used by the Rust compiler's `FxHashMap` —
//! a few instructions per `u64` key — finished with the [`mix64`] bit mixer,
//! and is **deterministic across runs and platforms**.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for [`FxHasher`]; plugs into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher (rustc's `FxHasher`) with a mixing finish: fast on
/// small fixed-size keys, whichever of their bits carry the entropy.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Folds every input bit into every output bit.
    ///
    /// The raw state is a product, and bit `k` of a product depends only on
    /// bits `0..=k` of its factors. `HashMap` picks a key's bucket from the
    /// hash's low bits and its 7-bit probe tag from the top bits. Packed ids
    /// carry their entropy high up: [`ProcessId::from_parts`](crate::ProcessId::from_parts)
    /// puts the machine above bit 40 and a small local pid below it. Without
    /// the mix, every fleet pid's bucket would depend on the local pid
    /// alone: a shard map's tens of thousands of entries would share a
    /// dozen home buckets, and each lookup would walk a long probe chain. A
    /// rotate would move the machine bits down but leave the tag blind to
    /// them; [`mix64`] feeds every input bit to both.
    ///
    /// The mix runs on the multiplied state, not on the raw key, and that
    /// matters to each shard's process table, whose index takes its home
    /// slot from this hash's low bits. [`shard_of`] routes by
    /// `mix64(key) % nparts`, so inside one of 16 shards the low four bits
    /// of `mix64(key)` are the same for every key. An index that reused
    /// `mix64(key)` would give a shard's keys one home slot in 16 and pile
    /// them into long probe runs, the collapse described above in another
    /// form. A one-word key hashes to `mix64(key × SEED)` here, which the
    /// routing hash does not predict.
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.hash)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// SplitMix64 finalizer: a full-avalanche bit mixer.
///
/// Finishes [`FxHasher`] and routes keys to shards ([`shard_of`]): every
/// output bit depends on every input bit, so any key pattern — sequential
/// pids, packed `(machine, local)` pairs — spreads uniformly. Deterministic
/// across runs.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The owning partition for a `u64` key among `nparts`: `mix64(key) %
/// nparts`, a pure function of the key — stable across runs and platforms.
///
/// This is **the** routing rule of the scaling tier, defined once so the
/// placement used by the batch path
/// ([`ShardedEngine`](crate::ShardedEngine)) and the async ingest rings
/// ([`IngestPublisher`](crate::IngestPublisher)) cannot silently drift
/// apart: an observation published through a ring must land on the same
/// shard the batch path would have picked, or the per-process monitor
/// state would split across shards.
///
/// # Panics
///
/// Panics in debug builds if `nparts` is zero.
#[inline]
pub fn shard_of(key: u64, nparts: usize) -> usize {
    debug_assert!(nparts > 0, "cannot route among zero partitions");
    (mix64(key) % nparts as u64) as usize
}

/// Deterministic bounded jitter from a `(key, time)` coordinate pair:
/// uniformly-ish distributed in `0..=bound`, identical across runs and
/// platforms. The one definition shared by every latency model in the
/// workspace (`valkyrie_detect::LatencyModel`, the multi-tenant
/// experiment's async detector tier), so their notions of "jitter" cannot
/// silently drift apart.
#[inline]
pub fn jitter64(key: u64, time: u64, bound: u64) -> u64 {
    if bound == 0 {
        return 0;
    }
    // splitmix64's golden-ratio increment decorrelates the coordinates
    // before the full-avalanche mix.
    mix64(key ^ time.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % (bound + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn same_input_same_hash() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&crate::ProcessId(7)), hash_of(&crate::ProcessId(7)));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&0u64), hash_of(&u64::MAX));
    }

    #[test]
    fn byte_stream_matches_padding_rules() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        b.write_u64(9);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn mix64_spreads_sequential_keys() {
        // Consecutive pids must not collapse onto a few shards.
        for shards in [2usize, 7, 16] {
            let mut counts = vec![0u32; shards];
            for pid in 0..10_000u64 {
                counts[(mix64(pid) % shards as u64) as usize] += 1;
            }
            let expected = 10_000 / shards as u32;
            for (i, &c) in counts.iter().enumerate() {
                assert!(
                    c > expected / 2 && c < expected * 2,
                    "shard {i}/{shards} got {c} of ~{expected}"
                );
            }
        }
    }

    /// The bucket index (low bits) and the probe tag (top bits) must both
    /// see the machine half of a fleet pid. A raw multiply hash puts 32k
    /// packed pids over four local ids into four buckets; a rotated one
    /// still gives them four tags.
    #[test]
    fn packed_fleet_pids_spread_over_buckets_and_tags() {
        let mut buckets = vec![false; 1 << 15];
        let mut tags = [false; 128];
        for machine in 0..8192u32 {
            for local in 1..=4u64 {
                let h = hash_of(&crate::ProcessId::from_parts(machine, local));
                buckets[(h & 0x7fff) as usize] = true;
                tags[(h >> 57) as usize] = true;
            }
        }
        // 32768 keys into 32768 buckets: a uniform hash fills ~63% of them.
        let used = buckets.iter().filter(|&&b| b).count();
        assert!(used > 18_000, "{used} of 32768 low-15-bit buckets used");
        let tags = tags.iter().filter(|&&t| t).count();
        assert!(tags >= 64, "{tags} of 128 top-7-bit tags used");
    }

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(0xDEAD_BEEF), mix64(0xDEAD_BEEF));
        assert_ne!(mix64(1), mix64(2));
    }

    /// Pins the routing rule itself. These literals are the placement every
    /// persisted shard-keyed artifact assumes; if this test fails, the
    /// change re-routes live per-process state and is **not** a refactor.
    #[test]
    fn shard_of_routing_is_pinned() {
        const KEYS: [u64; 14] = [
            0,
            1,
            2,
            3,
            4,
            5,
            6,
            7,
            41,
            1000,
            1_000_000,
            (3 << 40) | 7,        // fleet-packed: machine 3, local pid 7
            (123_456 << 40) | 42, // fleet-packed: machine 123456, local pid 42
            u64::MAX,
        ];
        let expect4: [usize; 14] = [3, 1, 2, 1, 2, 2, 0, 3, 1, 0, 3, 2, 2, 0];
        let expect7: [usize; 14] = [2, 2, 4, 2, 6, 3, 3, 2, 6, 0, 4, 3, 3, 0];
        let expect16: [usize; 14] = [15, 1, 14, 13, 10, 10, 0, 7, 9, 8, 7, 6, 2, 0];
        for (i, &k) in KEYS.iter().enumerate() {
            assert_eq!(shard_of(k, 1), 0);
            assert_eq!(shard_of(k, 4), expect4[i], "key {k} among 4");
            assert_eq!(shard_of(k, 7), expect7[i], "key {k} among 7");
            assert_eq!(shard_of(k, 16), expect16[i], "key {k} among 16");
        }
    }
}
