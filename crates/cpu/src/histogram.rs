//! Histogram construction and prefix sums.
//!
//! The CPU partitioner (the paper's baseline) starts with a histogram
//! pass: it sizes the output exactly and, in the parallel case, gives
//! each thread a private, pre-computed output extent per partition so
//! that the scatter needs no synchronisation.

use fpart_hash::PartitionFn;
use fpart_types::Tuple;

/// Count tuples per partition.
pub fn build<T: Tuple>(tuples: &[T], f: PartitionFn) -> Vec<usize> {
    let mut hist = vec![0usize; f.fan_out()];
    for t in tuples {
        hist[f.partition_of(t.key())] += 1;
    }
    hist
}

/// Exclusive prefix sum: `out[p]` is the first output slot of partition
/// `p`; an extra trailing element holds the total.
pub fn prefix_sum(hist: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(hist.len() + 1);
    let mut acc = 0usize;
    out.push(0);
    for &h in hist {
        acc += h;
        out.push(acc);
    }
    out
}

/// Per-thread scatter bases: `bases[t][p]` is the absolute output slot
/// where thread `t` starts writing partition `p`'s tuples.
///
/// Layout within a partition is thread-ordered, so the global output is
/// `partition-major, thread-minor` — the layout the Balkesen code uses.
pub fn thread_bases(thread_hists: &[Vec<usize>]) -> (Vec<usize>, Vec<Vec<usize>>) {
    let parts = thread_hists.first().map_or(0, Vec::len);
    let mut global = vec![0usize; parts];
    for h in thread_hists {
        for (g, &c) in global.iter_mut().zip(h) {
            *g += c;
        }
    }
    let partition_base = prefix_sum(&global);

    let mut bases = vec![vec![0usize; parts]; thread_hists.len()];
    for p in 0..parts {
        let mut cursor = partition_base[p];
        for (t, h) in thread_hists.iter().enumerate() {
            bases[t][p] = cursor;
            cursor += h[p];
        }
    }
    (global, bases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_types::Tuple8;

    #[test]
    fn histogram_counts() {
        let f = PartitionFn::Radix { bits: 2 };
        let tuples: Vec<Tuple8> = [0u32, 1, 2, 3, 0, 1, 0]
            .iter()
            .map(|&k| Tuple8::new(k, 0))
            .collect();
        assert_eq!(build(&tuples, f), vec![3, 2, 1, 1]);
    }

    #[test]
    fn prefix_sum_is_exclusive_with_total() {
        assert_eq!(prefix_sum(&[3, 0, 5]), vec![0, 3, 3, 8]);
        assert_eq!(prefix_sum(&[]), vec![0]);
    }

    #[test]
    fn thread_bases_are_disjoint_and_ordered() {
        // 2 threads, 3 partitions.
        let hists = vec![vec![2, 0, 1], vec![1, 3, 1]];
        let (global, bases) = thread_bases(&hists);
        assert_eq!(global, vec![3, 3, 2]);
        // Partition 0 occupies 0..3: thread 0 at 0..2, thread 1 at 2..3.
        assert_eq!(bases[0][0], 0);
        assert_eq!(bases[1][0], 2);
        // Partition 1 occupies 3..6: thread 0 empty at 3, thread 1 3..6.
        assert_eq!(bases[0][1], 3);
        assert_eq!(bases[1][1], 3);
        // Partition 2 occupies 6..8.
        assert_eq!(bases[0][2], 6);
        assert_eq!(bases[1][2], 7);
    }
}
