//! Range partitioning.
//!
//! The third partitioning type of Polychroniou & Ross's study (the paper's
//! \[27\]) and the operation Wu et al.'s ASIC accelerates (the paper's
//! \[41\], 312 M tuples/s for 511 partitions). Tuples are routed by
//! comparing the key against `P-1` sorted splitters; unlike radix/hash,
//! the output partitions are *ordered* — partition `i` holds exactly the
//! keys in `[splitter[i-1], splitter[i])` — which makes range
//! partitioning the front half of a sample sort ([`crate::sort`]).
//!
//! Splitters come from [`RangeSplitters::equi_width`] (cheap, skew-prone)
//! or [`RangeSplitters::from_sample`] (quantiles of a random sample — the
//! standard balanced choice).

use fpart_types::line::MAX_LANES;
use fpart_types::{Key, PartitionedRelation, Relation, Tuple};

use crate::parallel::{scatter, CpuRunReport, LinePartitioner};

/// Sorted splitters defining `splitters.len() + 1` key ranges.
///
/// # Examples
///
/// ```
/// use fpart_cpu::RangeSplitters;
///
/// let splitters = RangeSplitters::new(vec![100u32, 200]);
/// assert_eq!(splitters.fan_out(), 3);
/// assert_eq!(splitters.partition_of(50), 0);
/// assert_eq!(splitters.partition_of(100), 1); // boundary goes right
/// assert_eq!(splitters.partition_of(999), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RangeSplitters<K: Key> {
    splitters: Vec<K>,
}

impl<K: Key> RangeSplitters<K> {
    /// Build from explicit splitters.
    ///
    /// # Panics
    /// Panics if the splitters are not strictly increasing.
    pub fn new(splitters: Vec<K>) -> Self {
        assert!(
            splitters.windows(2).all(|w| w[0] < w[1]),
            "splitters must be strictly increasing"
        );
        Self { splitters }
    }

    /// Equi-width splitters over `[min, max]` for `parts` partitions.
    ///
    /// # Panics
    /// Panics if `parts == 0` or the range is too narrow to split.
    pub fn equi_width(min: K, max: K, parts: usize) -> Self {
        assert!(parts > 0, "at least one partition");
        let (lo, hi) = (min.to_u64(), max.to_u64());
        assert!(hi > lo, "empty key range");
        let span = hi - lo;
        assert!(
            span as u128 + 1 >= parts as u128,
            "range narrower than the partition count"
        );
        let splitters = (1..parts as u64)
            .map(|i| K::from_u64(lo + span / parts as u64 * i))
            .collect();
        Self::new(splitters)
    }

    /// Quantile splitters from a deterministic sample of the keys —
    /// balanced for any distribution (the sample-sort construction).
    ///
    /// # Panics
    /// Panics if `keys` is empty or `parts == 0`.
    pub fn from_sample(keys: &[K], parts: usize, sample_size: usize, seed: u64) -> Self {
        assert!(!keys.is_empty(), "cannot sample an empty relation");
        assert!(parts > 0, "at least one partition");
        // At least 4 samples per target partition, but never more than
        // the relation itself.
        let sample_size = sample_size.max(parts * 4).min(keys.len()).max(1);
        // Deterministic stride-with-mix sampling: cheap, seedable and
        // good enough for quantiles.
        let mut sample: Vec<K> = (0..sample_size)
            .map(|i| {
                let mixed = crate::range::mix(i as u64 ^ seed) % keys.len() as u64;
                keys[mixed as usize]
            })
            .collect();
        sample.sort_unstable();
        sample.dedup();
        let mut splitters = Vec::with_capacity(parts - 1);
        for i in 1..parts {
            let idx = i * sample.len() / parts;
            let s = sample[idx.min(sample.len() - 1)];
            if splitters.last().is_none_or(|&last| s > last) {
                splitters.push(s);
            }
        }
        Self { splitters }
    }

    /// Number of partitions (`splitters + 1`).
    pub fn fan_out(&self) -> usize {
        self.splitters.len() + 1
    }

    /// The partition a key belongs to: the number of splitters ≤ key
    /// (binary search — the comparator-tree a hardware range partitioner
    /// evaluates in parallel).
    #[inline]
    pub fn partition_of(&self, key: K) -> usize {
        self.splitters.partition_point(|&s| s <= key)
    }

    /// The splitters.
    pub fn splitters(&self) -> &[K] {
        &self.splitters
    }
}

/// splitmix64-style mixer for deterministic sampling.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Range-partition a relation single-threaded, through the same SWWCB
/// scatter as the radix/hash paths. See [`range_partition_parallel`] for
/// the multi-threaded variant.
pub fn range_partition<T: Tuple>(
    rel: &Relation<T>,
    splitters: &RangeSplitters<T::K>,
) -> (PartitionedRelation<T>, CpuRunReport) {
    range_partition_parallel(rel, splitters, 1)
}

/// Multi-threaded range partitioning: the same per-thread-histogram +
/// disjoint-extent scheme as the radix/hash paths (Section 4.7), with
/// splitter lookups in place of hash bits.
pub fn range_partition_parallel<T: Tuple>(
    rel: &Relation<T>,
    splitters: &RangeSplitters<T::K>,
    threads: usize,
) -> (PartitionedRelation<T>, CpuRunReport) {
    scatter(rel.into(), threads, splitters)
}

impl<T: Tuple> LinePartitioner<T> for RangeSplitters<T::K> {
    fn fan_out(&self) -> usize {
        RangeSplitters::fan_out(self)
    }

    #[inline(always)]
    fn line_ids(&self, line: &[T], ids: &mut [usize; MAX_LANES]) {
        for (id, t) in ids.iter_mut().zip(line) {
            *id = self.partition_of(t.key());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_datagen::KeyDistribution;
    use fpart_types::relation::content_checksum;
    use fpart_types::Tuple8;

    #[test]
    fn partition_of_respects_boundaries() {
        let s = RangeSplitters::new(vec![10u32, 20, 30]);
        assert_eq!(s.fan_out(), 4);
        assert_eq!(s.partition_of(0), 0);
        assert_eq!(s.partition_of(9), 0);
        assert_eq!(s.partition_of(10), 1, "splitter belongs to the right");
        assert_eq!(s.partition_of(19), 1);
        assert_eq!(s.partition_of(29), 2);
        assert_eq!(s.partition_of(30), 3);
        assert_eq!(s.partition_of(u32::MAX - 1), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_splitters_rejected() {
        let _ = RangeSplitters::new(vec![5u32, 5]);
    }

    #[test]
    fn equi_width_splits_evenly() {
        let s = RangeSplitters::equi_width(0u32, 100, 4);
        assert_eq!(s.splitters(), &[25, 50, 75]);
    }

    #[test]
    fn range_partitioning_is_a_permutation_with_ordered_output() {
        let keys: Vec<u32> = KeyDistribution::Random.generate_keys(20_000, 3);
        let rel = Relation::<Tuple8>::from_keys(&keys);
        let splitters = RangeSplitters::from_sample(&keys, 64, 4096, 7);
        let (parts, report) = range_partition(&rel, &splitters);
        assert_eq!(parts.total_valid(), 20_000);
        assert_eq!(report.passes, 2);
        assert_eq!(
            content_checksum(rel.tuples().iter().copied()),
            content_checksum(parts.all_tuples())
        );
        // Ordered property: every key in partition i < every key in i+1.
        let mut last_max: Option<u32> = None;
        for p in 0..parts.num_partitions() {
            let keys: Vec<u32> = parts.partition_tuples(p).map(|t| t.key).collect();
            if keys.is_empty() {
                continue;
            }
            let lo = *keys.iter().min().unwrap();
            let hi = *keys.iter().max().unwrap();
            if let Some(prev) = last_max {
                assert!(lo > prev, "partition {p} overlaps its predecessor");
            }
            last_max = Some(hi);
        }
    }

    #[test]
    fn sampled_splitters_balance_skewed_input() {
        // Keys concentrated in a narrow band: equi-width collapses,
        // sampled quantiles stay balanced.
        let keys: Vec<u32> = (0..10_000u32).map(|i| 1_000_000 + i % 997).collect();
        let rel = Relation::<Tuple8>::from_keys(&keys);

        let equi = RangeSplitters::equi_width(0u32, u32::MAX - 1, 16);
        let (p1, _) = range_partition(&rel, &equi);
        let max_equi = *p1.histogram().iter().max().unwrap();
        assert_eq!(
            max_equi, 10_000,
            "everything lands in one equi-width bucket"
        );

        let sampled = RangeSplitters::from_sample(&keys, 16, 2048, 1);
        let (p2, _) = range_partition(&rel, &sampled);
        let max_sampled = *p2.histogram().iter().max().unwrap();
        assert!(
            max_sampled < 3000,
            "sampled quantiles must spread the band, max {max_sampled}"
        );
    }

    #[test]
    fn single_partition_degenerate_case() {
        let s = RangeSplitters::<u32>::new(vec![]);
        assert_eq!(s.fan_out(), 1);
        let rel = Relation::<Tuple8>::from_keys(&[5, 1, 9]);
        let (parts, _) = range_partition(&rel, &s);
        assert_eq!(parts.partition_valid(0), 3);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use fpart_datagen::KeyDistribution;
    use fpart_types::Tuple8;

    #[test]
    fn parallel_matches_single_threaded() {
        let keys: Vec<u32> = KeyDistribution::Random.generate_keys(30_000, 8);
        let rel = Relation::<Tuple8>::from_keys(&keys);
        let splitters = RangeSplitters::from_sample(&keys, 64, 8192, 2);
        let (single, _) = range_partition(&rel, &splitters);
        let (multi, report) = range_partition_parallel(&rel, &splitters, 4);
        assert_eq!(report.threads, 4);
        assert_eq!(single.histogram(), multi.histogram());
        assert_eq!(
            single.raw_data(),
            multi.raw_data(),
            "thread-ordered layout is identical"
        );
    }

    #[test]
    fn parallel_handles_tiny_inputs() {
        let rel = Relation::<Tuple8>::from_keys(&[3, 1]);
        let splitters = RangeSplitters::new(vec![2u32]);
        let (parts, _) = range_partition_parallel(&rel, &splitters, 8);
        assert_eq!(parts.partition_valid(0), 1);
        assert_eq!(parts.partition_valid(1), 1);
    }
}
