//! The workloads and the helpers they share.

pub mod partition_file;
pub mod skew_join;

use std::hint::black_box;
use std::time::Instant;

use fpart::prelude::{PartitionFn, Tuple, Tuple8};

use crate::stats::median;

/// Every workload partitions 8192 ways with murmur hashing.
pub const PARTITION_FN: PartitionFn = PartitionFn::Murmur { bits: 13 };

/// Repetitions behind each traced-run layer probe.
pub const PROBE_REPS: usize = 5;

/// Median wall time of `reps` calls of `f`, in ms.
pub fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Host ns per key of [`PartitionFn::partition_of`] alone over `tuples`.
pub fn hash_ns_per_key(tuples: &[Tuple8]) -> f64 {
    let ms = median_ms(PROBE_REPS, || {
        tuples.iter().fold(0usize, |acc, t| {
            acc.wrapping_add(PARTITION_FN.partition_of(black_box(t.key())))
        })
    });
    ms * 1e6 / tuples.len().max(1) as f64
}

/// Per-partition tuple counts of `tuples`, from `partition_of`.
pub fn reference_histogram(tuples: &[Tuple8]) -> Vec<usize> {
    let mut hist = vec![0usize; PARTITION_FN.fan_out()];
    for t in tuples {
        hist[PARTITION_FN.partition_of(t.key())] += 1;
    }
    hist
}
