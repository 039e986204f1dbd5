//! Histogram construction and prefix sums.
//!
//! The CPU partitioner (the paper's baseline) starts with a histogram
//! pass: it sizes the output exactly and, in the parallel case, gives
//! each thread a private output region per partition
//! ([`crate::swwcb::OutputBuilder`] lays them out) so that the scatter
//! needs no synchronisation.

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
}
