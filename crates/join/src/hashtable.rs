//! The cache-resident bucket-chaining hash table.
//!
//! The build+probe phase follows "the bucket chaining method from \[21\]"
//! (Manegold et al., quoted in Section 2.2): a power-of-two array of
//! bucket heads plus a `next` chain, both indexed by dense `u32` positions
//! into the build partition — compact enough that a partition's table fits
//! in cache, which is the whole point of partitioning first.
//!
//! * **Index.** A key's bucket is one multiply-shift: the key times the
//!   Fibonacci constant of [`multiply_shift_64`], of which the table takes
//!   the `log2(buckets)` bits just below the top `partition_bits`. Every
//!   key of one [`PartitionFn::Multiplicative`](fpart_hash::PartitionFn)
//!   partition shares those top bits of the same product, so the table
//!   reads below them; under radix and murmur partitioning the product's
//!   high bits depend on every key bit anyway.
//! * **Load.** Every table has the fewest power-of-two buckets that hold
//!   its tuples at a load of at most ½.
//! * **In place.** The table borrows the build partition's slots and
//!   chains their positions; dummies are skipped when it is built, and no
//!   tuple is copied.

use fpart_hash::multiply_shift_64;
use fpart_types::{Key, Tuple};

const EMPTY: u32 = u32::MAX;

/// A bucket-chaining hash table over the slots of one build partition.
///
/// # Examples
///
/// ```
/// use fpart_join::hashtable::BucketChainTable;
/// use fpart_types::{Tuple, Tuple8};
///
/// let build: Vec<Tuple8> = (0..100u32).map(|k| Tuple8::new(k, k as u64 * 2)).collect();
/// let table = BucketChainTable::build(&build, 0);
/// let mut payload = None;
/// assert_eq!(table.probe(21, |t| payload = Some(t.payload)), 1);
/// assert_eq!(payload, Some(42));
/// assert_eq!(table.probe(1000, |_| {}), 0);
/// ```
pub struct BucketChainTable<'a, T: Tuple> {
    heads: Vec<u32>,
    /// Per slot, the next slot of its bucket's chain.
    next: Vec<u32>,
    /// The build partition's slots, dummies included.
    slots: &'a [T],
    /// Non-dummy tuples in `slots`.
    len: usize,
    /// Bits of a partition id: inside one partition they carry no
    /// information, so the index reads the product bits below them.
    partition_bits: u32,
    /// Right shift of the key's product that leaves the index bits at
    /// the bottom.
    shift: u32,
    mask: u64,
}

impl<'a, T: Tuple> BucketChainTable<'a, T> {
    /// Build a table over the non-dummy tuples of a partition's slots.
    ///
    /// `partition_bits` is the fan-out of the partitioning step that
    /// produced this partition (0 for an unpartitioned relation).
    ///
    /// # Panics
    /// Panics if `slots` holds `u32::MAX` or more slots.
    pub fn build(slots: &'a [T], partition_bits: u32) -> Self {
        let mut table = Self::with_shift(partition_bits);
        table.rebuild(slots);
        table
    }

    /// An empty table for partitions of a `partition_bits` fan-out, to be
    /// filled by [`BucketChainTable::rebuild`].
    pub fn with_shift(partition_bits: u32) -> Self {
        Self {
            heads: vec![EMPTY],
            next: Vec::new(),
            slots: &[],
            len: 0,
            partition_bits,
            shift: 63,
            mask: 0,
        }
    }

    /// Replace the table's contents with the non-dummy tuples of another
    /// partition of the same fan-out, keeping the allocated capacity: a
    /// worker that joins many partitions allocates for the largest, once.
    ///
    /// # Panics
    /// Panics if `slots` holds `u32::MAX` or more slots.
    pub fn rebuild(&mut self, slots: &'a [T]) {
        assert_indexable(slots.len());
        self.slots = slots;
        self.len = slots.iter().filter(|t| !t.is_dummy()).count();
        let buckets = (2 * self.len).next_power_of_two().max(2);
        let index_bits = buckets.trailing_zeros();
        self.shift = 64u32.saturating_sub(self.partition_bits + index_bits);
        self.mask = buckets as u64 - 1;
        self.heads.clear();
        self.heads.resize(buckets, EMPTY);
        self.next.clear();
        self.next.resize(slots.len(), EMPTY);
        for (i, t) in slots.iter().enumerate() {
            if t.is_dummy() {
                continue;
            }
            let b = self.bucket_of(t.key());
            self.next[i] = self.heads[b];
            self.heads[b] = i as u32;
        }
    }

    /// Number of build tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket_of(&self, key: T::K) -> usize {
        ((multiply_shift_64(key.to_u64()) >> self.shift) & self.mask) as usize
    }

    /// Probe with a key; invokes `on_match` for every build tuple with the
    /// same key. Returns the number of matches.
    #[inline]
    pub fn probe(&self, key: T::K, mut on_match: impl FnMut(&T)) -> usize {
        let mut matches = 0;
        let mut i = self.heads[self.bucket_of(key)];
        while i != EMPTY {
            let t = &self.slots[i as usize];
            if t.key() == key {
                on_match(t);
                matches += 1;
            }
            i = self.next[i as usize];
        }
        matches
    }

    /// Longest chain in the table (diagnostic for hash quality).
    pub fn max_chain(&self) -> usize {
        let mut longest = 0;
        for &h in &self.heads {
            let mut len = 0;
            let mut i = h;
            while i != EMPTY {
                len += 1;
                i = self.next[i as usize];
            }
            longest = longest.max(len);
        }
        longest
    }
}

/// Check that `slots` build-side slots fit the table's `u32` positions,
/// which keep `u32::MAX` as the empty-chain marker.
///
/// # Panics
/// Panics if `slots >= u32::MAX`.
fn assert_indexable(slots: usize) {
    assert!(
        slots < EMPTY as usize,
        "a build side of {slots} slots exceeds the table's u32 positions"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_hash::PartitionFn;
    use fpart_types::{Tuple16, Tuple8};

    #[test]
    fn build_and_probe_unique_keys() {
        let tuples: Vec<Tuple8> = (0..100u32).map(|k| Tuple8::new(k * 3, k as u64)).collect();
        let table = BucketChainTable::build(&tuples, 0);
        assert_eq!(table.len(), 100);
        for k in 0..100u32 {
            let mut payload = None;
            assert_eq!(table.probe(k * 3, |t| payload = Some(t.payload)), 1);
            assert_eq!(payload, Some(k));
        }
        assert_eq!(table.probe(1, |_| {}), 0, "absent key");
    }

    #[test]
    fn duplicate_build_keys_all_match() {
        let tuples: Vec<Tuple8> = (0..10u32).map(|i| Tuple8::new(7, i as u64)).collect();
        let table = BucketChainTable::build(&tuples, 0);
        let mut seen = Vec::new();
        assert_eq!(table.probe(7, |t| seen.push(t.payload)), 10);
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn dummies_are_excluded_from_build() {
        let tuples = [Tuple8::new(1, 1), Tuple8::dummy(), Tuple8::new(2, 2)];
        let table = BucketChainTable::build(&tuples, 0);
        assert_eq!(table.len(), 2);
        assert_eq!(table.probe(u32::MAX, |_| {}), 0);
    }

    #[test]
    fn empty_partition() {
        let table = BucketChainTable::<Tuple8>::build(&[], 13);
        assert!(table.is_empty());
        assert_eq!(table.probe(5, |_| {}), 0);
    }

    /// The largest build side whose positions stay below the empty marker
    /// passes; one more slot panics (a slice that long cannot be made in
    /// a test, so the check is called directly).
    #[test]
    #[should_panic(expected = "exceeds the table's u32 positions")]
    fn u32_positions_bound_the_build_side() {
        assert_indexable(u32::MAX as usize - 1);
        assert_indexable(u32::MAX as usize);
    }

    /// Multiplicative inverse of an odd `c` modulo 2^64: each Newton step
    /// doubles the correct low bits, from 3 (`c·c ≡ 1 mod 8`).
    fn inverse(c: u64) -> u64 {
        (0..5).fold(c, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)))
        })
    }

    /// The key whose murmur3 finalizer (for keys of `key_bits`) is `h`.
    fn unmurmur(h: u64, key_bits: u32) -> u64 {
        if key_bits == 32 {
            let mut x = h as u32;
            x ^= x >> 16;
            x = x.wrapping_mul(inverse(0xc2b2_ae35) as u32);
            x ^= (x >> 13) ^ (x >> 26);
            x = x.wrapping_mul(inverse(0x85eb_ca6b) as u32);
            (x ^ (x >> 16)) as u64
        } else {
            let mut x = h ^ (h >> 33);
            x = x.wrapping_mul(inverse(0xc4ce_b9fe_1a85_ec53));
            x ^= x >> 33;
            x = x.wrapping_mul(inverse(0xff51_afd7_ed55_8ccd));
            x ^ (x >> 33)
        }
    }

    /// `x` with a `bits`-wide field holding `id` inserted at bit `shift`:
    /// the bits of `x` from `shift` up move above the field.
    fn insert(x: u64, id: u64, shift: u32, bits: u32) -> u64 {
        let below = x & ((1 << shift) - 1);
        below | (id << shift) | ((x >> shift) << (shift + bits))
    }

    /// `x` with its `bits`-wide field at bit `shift` replaced by `id`.
    fn place(x: u64, id: u64, shift: u32, bits: u32) -> u64 {
        let field = ((1u64 << bits) - 1) << shift;
        (x & !field) | (id << shift)
    }

    /// `n` distinct keys of partition `id` of `f`, made by inverting the
    /// key's way to its id: the `j`-th key of the partition under radix
    /// partitioning, the key whose murmur hash is the `j`-th hash of the
    /// partition, and under multiply-shift a key whose product is random
    /// below the partition's top bits. `None` for a multiplicative
    /// partition of 32-bit keys, whose 64-bit products have no inverse
    /// among them.
    fn partition_keys<T: Tuple>(f: PartitionFn, id: u64, n: u64) -> Option<Vec<T>> {
        let key_bits = T::K::BITS;
        let key = |j: u64| match f {
            PartitionFn::Radix { bits } => Some(insert(j, id, 0, bits)),
            PartitionFn::RadixAt { shift, bits } => Some(insert(j, id, shift, bits)),
            PartitionFn::Murmur { bits } => Some(unmurmur(insert(j, id, 0, bits), key_bits)),
            PartitionFn::MurmurAt { shift, bits } => {
                Some(unmurmur(insert(j, id, shift, bits), key_bits))
            }
            PartitionFn::Multiplicative { bits } => (key_bits == 64).then(|| {
                let random = fpart_hash::murmur3_finalizer_64(j + 1);
                let product = place(random, id, 64 - bits, bits);
                product.wrapping_mul(inverse(multiply_shift_64(1)))
            }),
        };
        (0..n)
            .map(|j| key(j).map(|k| T::new(T::K::from_u64(k), j)))
            .collect()
    }

    /// All keys of one partition spread over the table under every
    /// partition function and fan-out: the index must not read the bits
    /// the partition's keys share (a Multiplicative partition's top
    /// product bits, above all).
    fn check_spread<T: Tuple>() {
        let n = 2048;
        for bits in [1, 8, 13, 20] {
            let id = 0x5_a5a5 & ((1 << bits) - 1);
            for f in [
                PartitionFn::Radix { bits },
                PartitionFn::RadixAt { shift: 5, bits },
                PartitionFn::Murmur { bits },
                PartitionFn::MurmurAt { shift: 5, bits },
                PartitionFn::Multiplicative { bits },
            ] {
                let Some(tuples) = partition_keys::<T>(f, id, n) else {
                    continue;
                };
                let what = format!("{}-bit keys, {f:?}", T::K::BITS);
                assert!(
                    tuples
                        .iter()
                        .all(|t| f.partition_of(t.key()) == id as usize),
                    "{what}: keys outside partition {id}"
                );
                let table = BucketChainTable::build(&tuples, f.bits());
                assert_eq!(table.len(), n as usize, "{what}");
                // 2048 keys in 4096 buckets: a random index gives chains
                // of about 5 at most.
                assert!(
                    table.max_chain() <= 8,
                    "{what}: max chain {} suggests clustered hashing",
                    table.max_chain()
                );
            }
        }
    }

    #[test]
    fn one_partitions_keys_spread_under_every_partition_function() {
        check_spread::<Tuple8>();
        check_spread::<Tuple16>();
    }

    /// Every key's matches, in chain order, for keys `0..=max_key`.
    fn all_probes(table: &BucketChainTable<'_, Tuple8>, max_key: u32) -> Vec<Vec<u32>> {
        (0..=max_key)
            .map(|k| {
                let mut hits = Vec::new();
                let n = table.probe(k, |t| hits.push(t.payload));
                assert_eq!(n, hits.len());
                hits
            })
            .collect()
    }

    /// A reused table probes exactly like a fresh one, whichever size the
    /// previous partition had: stale `heads`/`next` entries would surface
    /// as phantom matches or out-of-range chain links.
    #[test]
    fn rebuild_matches_a_fresh_build() {
        let bits = 4;
        let partition = |n: u32, seed: u32| -> Vec<Tuple8> {
            let mut ts: Vec<Tuple8> = (0..n)
                .map(|i| Tuple8::new(i.wrapping_mul(seed) % 3000, i as u64))
                .collect();
            ts.insert(ts.len() / 2, Tuple8::dummy());
            ts
        };
        let partitions = [
            partition(5000, 7),
            partition(9, 13),
            Vec::new(),
            partition(4000, 11),
            partition(1, 17),
        ];
        let mut table = BucketChainTable::with_shift(bits);
        assert!(table.is_empty());
        assert_eq!(table.probe(5, |_| {}), 0, "a never-built table is empty");
        for tuples in &partitions {
            table.rebuild(tuples);
            let fresh = BucketChainTable::build(tuples, bits);
            assert_eq!(table.len(), fresh.len());
            assert_eq!(all_probes(&table, 3100), all_probes(&fresh, 3100));
        }
    }
}
