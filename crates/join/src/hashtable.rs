//! The cache-resident bucket-chaining hash table.
//!
//! The build+probe phase follows "the bucket chaining method from \[21\]"
//! (Manegold et al., quoted in Section 2.2): a power-of-two array of
//! bucket heads plus a `next` chain, both indexed by dense `u32` positions
//! into the build partition — compact enough that a partition's table fits
//! in cache, which is the whole point of partitioning first.

use fpart_hash::{murmur3_finalizer_64, PartitionFn};
use fpart_types::{Key, Tuple};

const EMPTY: u32 = u32::MAX;

/// A bucket-chaining hash table over one build partition.
///
/// # Examples
///
/// ```
/// use fpart_join::hashtable::BucketChainTable;
/// use fpart_types::{Tuple, Tuple8};
///
/// let build = (0..100u32).map(|k| Tuple8::new(k, k as u64 * 2));
/// let table = BucketChainTable::build(build, 0);
/// let mut payload = None;
/// assert_eq!(table.probe(21, |t| payload = Some(t.payload)), 1);
/// assert_eq!(payload, Some(42));
/// assert_eq!(table.probe(1000, |_| {}), 0);
/// ```
pub struct BucketChainTable<T: Tuple> {
    heads: Vec<u32>,
    next: Vec<u32>,
    tuples: Vec<T>,
    mask: u64,
    /// Bits to discard before indexing: inside partition `p` every key
    /// shares its low partition bits, so the table indexes on the hash
    /// bits *above* them.
    shift: u32,
}

impl<T: Tuple> BucketChainTable<T> {
    /// Build a table from the non-dummy tuples of a partition.
    ///
    /// `partition_bits` is the fan-out of the partitioning step that
    /// produced this partition (its hash bits carry no information within
    /// the partition and are shifted away).
    pub fn build(tuples: impl Iterator<Item = T>, partition_bits: u32) -> Self {
        let mut table = Self::with_shift(partition_bits);
        table.rebuild(tuples);
        table
    }

    /// An empty table for partitions of a `partition_bits` fan-out, to be
    /// filled by [`BucketChainTable::rebuild`].
    pub fn with_shift(partition_bits: u32) -> Self {
        Self {
            heads: vec![EMPTY],
            next: Vec::new(),
            tuples: Vec::new(),
            mask: 0,
            shift: partition_bits,
        }
    }

    /// Replace the table's contents with the non-dummy tuples of another
    /// partition of the same fan-out, keeping the allocated capacity: a
    /// worker that joins many partitions allocates for the largest, once.
    pub fn rebuild(&mut self, tuples: impl Iterator<Item = T>) {
        self.tuples.clear();
        self.tuples.extend(tuples.filter(|t| !t.is_dummy()));
        let n = self.tuples.len();
        let cap = n.next_power_of_two().max(1);
        self.heads.clear();
        self.heads.resize(cap, EMPTY);
        self.next.clear();
        self.next.resize(n, EMPTY);
        self.mask = cap as u64 - 1;
        for i in 0..n {
            let b = self.bucket_of(self.tuples[i].key());
            self.next[i] = self.heads[b];
            self.heads[b] = i as u32;
        }
    }

    /// Number of build tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the table holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    #[inline]
    fn bucket_of(&self, key: T::K) -> usize {
        ((murmur3_finalizer_64(key.to_u64()) >> self.shift) & self.mask) as usize
    }

    /// Probe with a key; invokes `on_match` for every build tuple with the
    /// same key. Returns the number of matches.
    #[inline]
    pub fn probe(&self, key: T::K, mut on_match: impl FnMut(&T)) -> usize {
        let mut matches = 0;
        let mut i = self.heads[self.bucket_of(key)];
        while i != EMPTY {
            let t = &self.tuples[i as usize];
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

/// The hash-table index function used by the probe side must match the
/// build side; expose the partition function's bit count for callers that
/// need the shift.
pub fn shift_for(f: PartitionFn) -> u32 {
    f.bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_types::Tuple8;

    #[test]
    fn build_and_probe_unique_keys() {
        let tuples = (0..100u32).map(|k| Tuple8::new(k * 3, k as u64));
        let table = BucketChainTable::build(tuples, 0);
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
        let tuples = (0..10u32).map(|i| Tuple8::new(7, i as u64));
        let table = BucketChainTable::build(tuples, 0);
        let mut seen = Vec::new();
        assert_eq!(table.probe(7, |t| seen.push(t.payload)), 10);
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn dummies_are_excluded_from_build() {
        let tuples = vec![Tuple8::new(1, 1), Tuple8::dummy(), Tuple8::new(2, 2)];
        let table = BucketChainTable::build(tuples.into_iter(), 0);
        assert_eq!(table.len(), 2);
        assert_eq!(table.probe(u32::MAX, |_| {}), 0);
    }

    #[test]
    fn empty_partition() {
        let table = BucketChainTable::<Tuple8>::build(std::iter::empty(), 13);
        assert!(table.is_empty());
        assert_eq!(table.probe(5, |_| {}), 0);
    }

    #[test]
    fn shift_avoids_partition_bit_collisions() {
        // All keys in one murmur partition share low hash bits. With the
        // shift the table still spreads them.
        let f = PartitionFn::Murmur { bits: 8 };
        let target = 3usize;
        let keys: Vec<u32> = (0..200_000u32)
            .filter(|&k| f.partition_of(k) == target)
            .take(512)
            .collect();
        assert!(keys.len() >= 256, "need enough same-partition keys");
        let table = BucketChainTable::build(keys.iter().map(|&k| Tuple8::new(k, 0)), shift_for(f));
        // With 512 tuples in a 512-bucket table and a good hash, chains
        // stay short; without the shift every tuple would share the low
        // bits but the masked index uses higher bits, so expect < 8.
        assert!(
            table.max_chain() <= 8,
            "max chain {} suggests clustered hashing",
            table.max_chain()
        );
    }

    /// Every key's matches, in chain order, for keys `0..=max_key`.
    fn all_probes(table: &BucketChainTable<Tuple8>, max_key: u32) -> Vec<Vec<u32>> {
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
            ts.push(Tuple8::dummy());
            ts
        };
        let mut table = BucketChainTable::with_shift(bits);
        assert!(table.is_empty());
        assert_eq!(table.probe(5, |_| {}), 0, "a never-built table is empty");
        for tuples in [
            partition(5000, 7),
            partition(9, 13),
            Vec::new(),
            partition(4000, 11),
            partition(1, 17),
        ] {
            table.rebuild(tuples.iter().copied());
            let fresh = BucketChainTable::build(tuples.iter().copied(), bits);
            assert_eq!(table.len(), fresh.len());
            assert_eq!(all_probes(&table, 3100), all_probes(&fresh, 3100));
        }
    }
}
