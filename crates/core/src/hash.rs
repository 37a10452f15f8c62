//! 32-bit Bob Jenkins hash ("Bob Hash" / lookup2 / evahash).
//!
//! The paper's implementation (§ V-A) hashes keys with the 32-bit Bob Hash
//! from Bob Jenkins' public-domain `lookup2`/evahash code, seeded with random
//! initial values. This module re-implements that function from its public
//! description and wraps it in [`HashPair`]: the two independently seeded hash
//! functions every cuckoo hash table in CuckooGraph carries (`H1`/`H2` for the
//! L-CHT, `h1`/`h2` for S-CHTs).

use graph_api::NodeId;

/// The golden-ratio constant used by `lookup2` to initialise the internal
/// state.
const GOLDEN_RATIO: u32 = 0x9e37_79b9;

/// Bob Jenkins' `mix` step: reversible mixing of three 32-bit words.
#[inline(always)]
fn mix(mut a: u32, mut b: u32, mut c: u32) -> (u32, u32, u32) {
    a = a.wrapping_sub(b).wrapping_sub(c) ^ (c >> 13);
    b = b.wrapping_sub(c).wrapping_sub(a) ^ (a << 8);
    c = c.wrapping_sub(a).wrapping_sub(b) ^ (b >> 13);
    a = a.wrapping_sub(b).wrapping_sub(c) ^ (c >> 12);
    b = b.wrapping_sub(c).wrapping_sub(a) ^ (a << 16);
    c = c.wrapping_sub(a).wrapping_sub(b) ^ (b >> 5);
    a = a.wrapping_sub(b).wrapping_sub(c) ^ (c >> 3);
    b = b.wrapping_sub(c).wrapping_sub(a) ^ (a << 10);
    c = c.wrapping_sub(a).wrapping_sub(b) ^ (b >> 15);
    (a, b, c)
}

/// 32-bit Bob Hash over an arbitrary byte slice with a seed (`initval`).
///
/// Follows the structure of `lookup2`: consume 12 bytes per round through
/// `mix`, then fold the trailing bytes and the length into the final round.
pub fn bob_hash(bytes: &[u8], seed: u32) -> u32 {
    bob_hash2(bytes, seed).1
}

/// The two-lane variant of [`bob_hash`]: one `lookup2` pass whose final
/// `mix` yields *two* well-mixed 32-bit words (`b` and `c`) instead of one.
/// This is the "single Bob-hash pass producing both lanes" that backs
/// [`KeyHash`] — every cuckoo table then derives its bucket indices from the
/// memoized lanes with a cheap per-table finalizer instead of re-running the
/// full pass per table and per array.
pub fn bob_hash2(bytes: &[u8], seed: u32) -> (u32, u32) {
    let mut a = GOLDEN_RATIO;
    let mut b = GOLDEN_RATIO;
    let mut c = seed;
    let mut len = bytes.len();
    let mut offset = 0usize;

    #[inline(always)]
    fn word(bytes: &[u8], at: usize) -> u32 {
        u32::from(bytes[at])
            | (u32::from(bytes[at + 1]) << 8)
            | (u32::from(bytes[at + 2]) << 16)
            | (u32::from(bytes[at + 3]) << 24)
    }

    while len >= 12 {
        a = a.wrapping_add(word(bytes, offset));
        b = b.wrapping_add(word(bytes, offset + 4));
        c = c.wrapping_add(word(bytes, offset + 8));
        let (na, nb, nc) = mix(a, b, c);
        a = na;
        b = nb;
        c = nc;
        offset += 12;
        len -= 12;
    }

    c = c.wrapping_add(bytes.len() as u32);
    // Fold the trailing 0..=11 bytes. The first byte of the last group is
    // reserved for the length (as in the original), hence the shifted lanes.
    let tail = &bytes[offset..];
    if !tail.is_empty() {
        let mut lanes = [0u32; 3];
        for (i, &byte) in tail.iter().enumerate() {
            let lane = i / 4;
            let shift = (i % 4) * 8;
            // The original shifts the `c` lane by one byte to make room for
            // the length; reproduce that behaviour.
            let shift = if lane == 2 { shift + 8 } else { shift };
            if shift < 32 {
                lanes[lane] = lanes[lane].wrapping_add(u32::from(byte) << shift);
            }
        }
        a = a.wrapping_add(lanes[0]);
        b = b.wrapping_add(lanes[1]);
        c = c.wrapping_add(lanes[2]);
    }

    let (_, b, c) = mix(a, b, c);
    (b, c)
}

/// [`bob_hash2`] specialised to an 8-byte little-endian key — bit-identical
/// output, but the tail fold collapses to two word extractions instead of the
/// generic per-byte loop (an 8-byte input feeds lanes `a` and `b` directly
/// and leaves the length-shifted `c` lane untouched). This is the hash every
/// [`KeyHash::new`] runs, i.e. once per keyed operation across the whole
/// engine, so the scan and probe paths feel it directly; equivalence with the
/// byte-slice pass is pinned by a test.
#[inline(always)]
pub fn bob_hash2_u64(key: u64, seed: u32) -> (u32, u32) {
    let a = GOLDEN_RATIO.wrapping_add(key as u32);
    let b = GOLDEN_RATIO.wrapping_add((key >> 32) as u32);
    let c = seed.wrapping_add(8); // the folded-in input length
    let (_, b, c) = mix(a, b, c);
    (b, c)
}

/// Base seed of the shared Bob-hash pass behind [`KeyHash::new`]. Per-table
/// randomness comes from each table's [`HashPair`] seeds, folded into the
/// memoized lanes by [`HashPair::bucket_of`]; the base pass itself is fixed so
/// a `KeyHash` computed anywhere in the engine is valid for every table.
const KEYHASH_SEED: u32 = 0x51ed_270b;

/// Memoized hash material for one key: both Bob-hash lanes, computed once per
/// operation and threaded through the whole probe path (engine → L-CHT chain →
/// cell → S-CHT chain → table).
///
/// The contract: a `KeyHash` is a pure function of the key (the lanes come
/// from one [`bob_hash2`] pass with a fixed base seed), so it can be computed
/// at any layer and reused by every table below. Each table turns the lanes
/// into its two bucket indices via [`HashPair::bucket_of`] (multiply-shift by
/// a per-table odd multiplier) — a chain of `R` tables therefore costs one Bob pass
/// per operation instead of `2·R`. The 7-bit [`KeyHash::fingerprint`] is what
/// the tagged buckets compare before ever touching a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyHash {
    key: NodeId,
    lane0: u32,
    lane1: u32,
}

impl KeyHash {
    /// Hashes `key` once (single Bob pass, both lanes, via the 8-byte
    /// specialisation [`bob_hash2_u64`]).
    #[inline]
    pub fn new(key: NodeId) -> Self {
        let (lane0, lane1) = bob_hash2_u64(key, KEYHASH_SEED);
        Self { key, lane0, lane1 }
    }

    /// The key this hash material belongs to.
    #[inline]
    pub fn key(&self) -> NodeId {
        self.key
    }

    /// Both lanes packed into one 64-bit word — the input of the per-table
    /// multiply-shift in [`HashPair::bucket_of`].
    #[inline]
    pub fn lanes64(&self) -> u64 {
        (u64::from(self.lane0) << 32) | u64::from(self.lane1)
    }

    /// 7-bit fingerprint stored in the per-slot tag bytes. Derived from both
    /// lanes so it stays decorrelated from any single table's bucket index.
    #[inline]
    pub fn fingerprint(&self) -> u8 {
        (((self.lane0 >> 7) ^ (self.lane1 >> 19)) & 0x7f) as u8
    }
}

/// Bob Hash specialised to 8-byte node identifiers, the key type used by every
/// table in CuckooGraph.
#[inline]
pub fn bob_hash_u64(key: NodeId, seed: u32) -> u32 {
    bob_hash(&key.to_le_bytes(), seed)
}

/// The pair of independently seeded hash functions associated with one cuckoo
/// hash table (two bucket arrays, one function per array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPair {
    seed0: u32,
    seed1: u32,
    /// Odd multiply-shift multiplier for bucket array 0, derived from `seed0`
    /// at construction so [`HashPair::bucket_of`] is a handful of ALU ops.
    mul0: u64,
    /// Odd multiply-shift multiplier for bucket array 1.
    mul1: u64,
}

impl HashPair {
    /// Creates a hash pair from two seeds. The seeds should differ so the two
    /// candidate buckets of an item are independent.
    pub fn new(seed0: u32, seed1: u32) -> Self {
        Self {
            seed0,
            seed1,
            mul0: splitmix64(u64::from(seed0) ^ 0xa076_1d64_78bd_642f) | 1,
            mul1: splitmix64(u64::from(seed1) ^ 0xe703_7ed1_a0b4_28db) | 1,
        }
    }

    /// Derives a pair of seeds from a single 64-bit seed using a splitmix64
    /// step, mirroring "random initial seeds" in the paper.
    pub fn from_seed(seed: u64) -> Self {
        let a = splitmix64(seed);
        let b = splitmix64(a);
        Self::new((a >> 32) as u32 ^ a as u32, (b >> 32) as u32 ^ b as u32)
    }

    /// Hash of `key` for bucket array 0.
    #[inline]
    pub fn hash0(&self, key: NodeId) -> u32 {
        bob_hash_u64(key, self.seed0)
    }

    /// Hash of `key` for bucket array 1.
    #[inline]
    pub fn hash1(&self, key: NodeId) -> u32 {
        bob_hash_u64(key, self.seed1)
    }

    /// Bucket index of `key` in array `array` (0 or 1) of `buckets` buckets.
    ///
    /// The pre-memoization bucket *function* (one full Bob pass per call),
    /// retained for this module's distribution tests and as documentation of
    /// the original design. Nothing places items with it anymore, so the
    /// unmemoized reference probes of the tables and chains cannot
    /// use it either — they reproduce the pre-change *cost shape* (a full
    /// Bob pass per bucket array) but must derive buckets with
    /// [`HashPair::bucket_of`] to find items where the live layout put them.
    #[inline]
    pub fn bucket(&self, key: NodeId, array: usize, buckets: usize) -> usize {
        debug_assert!(buckets > 0);
        let h = if array == 0 {
            self.hash0(key)
        } else {
            self.hash1(key)
        };
        (h as usize) % buckets
    }

    /// Bucket index derived from memoized hash material — no re-hash of the
    /// key. Each table/array applies its own **multiply-shift** to the packed
    /// lanes (`(lanes64 · a) >> 32`, `a` a per-table random odd multiplier):
    /// a near-universal family, so bucket collisions of a key pair are
    /// independent across tables and arrays — the property the kick-out walk
    /// needs. (A plain `mix(lane ^ seed)` finalizer is *not* enough: the
    /// lane difference of a key pair is constant across all tables, which
    /// correlates their collisions and measurably raises kick-out failures.)
    #[inline]
    pub fn bucket_of(&self, kh: KeyHash, array: usize, buckets: usize) -> usize {
        debug_assert!(buckets > 0);
        let mul = if array == 0 { self.mul0 } else { self.mul1 };
        let p = kh.lanes64().wrapping_mul(mul);
        // Xor-fold the product before the range reduction: fast-range consumes
        // the TOP bits of its input, and the top bits of a multiply-shift
        // product preserve the order of nearby values — without the fold,
        // clustered products collapse into the same bucket (overfull cuckoo
        // components that no kick-out walk can untangle). Folding the low half
        // in breaks that monotonicity for one XOR.
        let h = (p >> 32) as u32 ^ p as u32;
        // Lemire fast-range instead of `h % buckets`: one widening multiply
        // maps the well-mixed 32-bit hash onto `[0, buckets)` without the
        // 20+-cycle integer division the modulo costs. Probes pay this per
        // bucket array per chained table, so on the successor-scan path the
        // division was the single most expensive ALU op of the whole lookup.
        ((u64::from(h) * buckets as u64) >> 32) as usize
    }
}

/// splitmix64: cheap 64-bit mixer used for seed derivation only (not for
/// bucket addressing).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(bob_hash_u64(42, 7), bob_hash_u64(42, 7));
        assert_eq!(bob_hash(b"hello world", 3), bob_hash(b"hello world", 3));
    }

    #[test]
    fn different_seeds_give_different_hashes() {
        let collisions = (0u64..1000)
            .filter(|&k| bob_hash_u64(k, 1) == bob_hash_u64(k, 2))
            .count();
        assert!(
            collisions < 5,
            "seeds are not independent: {collisions} collisions"
        );
    }

    #[test]
    fn hash_distributes_over_buckets() {
        // All 10_000 sequential keys into 64 buckets: every bucket should be hit.
        let pair = HashPair::from_seed(0xdead_beef);
        let mut hit = vec![0usize; 64];
        for k in 0..10_000u64 {
            hit[pair.bucket(k, 0, 64)] += 1;
        }
        assert!(
            hit.iter().all(|&c| c > 0),
            "some buckets never hit: {hit:?}"
        );
        let max = *hit.iter().max().unwrap();
        let min = *hit.iter().min().unwrap();
        assert!(
            max < min * 3,
            "distribution too skewed: min={min} max={max}"
        );
    }

    #[test]
    fn hash_pair_candidate_buckets_differ_for_most_keys() {
        let pair = HashPair::from_seed(123);
        let same = (0u64..1000)
            .filter(|&k| pair.bucket(k, 0, 128) == pair.bucket(k, 1, 64))
            .count();
        // With independent functions over different ranges collisions are rare.
        assert!(same < 100);
    }

    #[test]
    fn long_and_short_inputs_differ() {
        let mut seen = HashSet::new();
        for len in 0..40 {
            let data = vec![0xabu8; len];
            seen.insert(bob_hash(&data, 0));
        }
        // Nearly all lengths must hash differently (length is folded in).
        assert!(seen.len() >= 38);
    }

    #[test]
    fn bob_hash2_second_lane_matches_bob_hash() {
        for k in [0u64, 1, 42, u64::MAX] {
            let bytes = k.to_le_bytes();
            assert_eq!(bob_hash2(&bytes, 9).1, bob_hash(&bytes, 9));
        }
    }

    #[test]
    fn u64_specialisation_matches_the_byte_pass() {
        // The fast path must be bit-identical to the generic pass — the
        // contract that keeps every stored layout and oracle valid.
        for k in [0u64, 1, 7, 0xff, 0x1234_5678, u64::MAX, u64::MAX - 3] {
            for seed in [0u32, 9, 0x51ed_270b, u32::MAX] {
                assert_eq!(
                    bob_hash2_u64(k, seed),
                    bob_hash2(&k.to_le_bytes(), seed),
                    "divergence at key {k:#x} seed {seed:#x}"
                );
            }
        }
        for k in (0..5_000u64).map(splitmix64) {
            assert_eq!(
                bob_hash2_u64(k, 0x51ed_270b),
                bob_hash2(&k.to_le_bytes(), 0x51ed_270b)
            );
        }
    }

    #[test]
    fn key_hash_arrays_are_independent_within_a_table() {
        // The two candidate buckets of a key (same table, different arrays)
        // must rarely coincide when ranges align.
        let pair = HashPair::from_seed(77);
        let same = (0u64..2000)
            .map(KeyHash::new)
            .filter(|&kh| pair.bucket_of(kh, 0, 64) == pair.bucket_of(kh, 1, 64))
            .count();
        assert!(same < 100, "arrays too correlated: {same} collisions");
    }

    #[test]
    fn bucket_of_distributes_over_buckets() {
        let pair = HashPair::from_seed(0xdead_beef);
        let mut hit = vec![0usize; 64];
        for k in 0..10_000u64 {
            hit[pair.bucket_of(KeyHash::new(k), 0, 64)] += 1;
        }
        assert!(
            hit.iter().all(|&c| c > 0),
            "some buckets never hit: {hit:?}"
        );
        let max = *hit.iter().max().unwrap();
        let min = *hit.iter().min().unwrap();
        assert!(
            max < min * 3,
            "distribution too skewed: min={min} max={max}"
        );
    }

    #[test]
    fn bucket_of_decorrelates_across_table_seeds() {
        // Two tables with different seeds must send the same memoized KeyHash
        // to independent buckets — the property the whole chain relies on now
        // that the Bob pass is shared.
        let a = HashPair::from_seed(1);
        let b = HashPair::from_seed(2);
        let same = (0u64..2000)
            .map(KeyHash::new)
            .filter(|&kh| a.bucket_of(kh, 0, 64) == b.bucket_of(kh, 0, 64))
            .count();
        // Expectation under independence: 2000/64 ≈ 31.
        assert!(same < 150, "per-table seeds not independent: {same}");
    }

    #[test]
    fn fingerprints_cover_the_tag_space() {
        use std::collections::HashSet;
        let seen: HashSet<u8> = (0u64..4000)
            .map(|k| KeyHash::new(k).fingerprint())
            .collect();
        assert!(
            seen.len() > 100,
            "only {} of 128 fingerprints hit",
            seen.len()
        );
        assert!(seen.iter().all(|&f| f < 128));
    }

    #[test]
    fn splitmix_is_bijective_enough() {
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(splitmix64(i));
        }
        assert_eq!(seen.len(), 10_000);
    }
}
