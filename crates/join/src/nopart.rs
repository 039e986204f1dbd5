//! The no-partitioning hash join baseline (Blanas et al., discussed in
//! the paper's related work): build one global hash table over R, probe
//! with S. Simple and synchronisation-free for a read-only probe, but the
//! table does not fit in cache for large R — the contrast that motivates
//! partitioned joins (Section 3.3).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use fpart_types::{Relation, Tuple};

use crate::buildprobe::BuildProbeReport;
use crate::hashtable::BucketChainTable;
use crate::radix::JoinResult;

/// Execute a non-partitioned hash join: single-threaded build (the
/// classic variant), multi-threaded probe over chunks of S.
pub fn no_partition_join<T: Tuple>(
    r: &Relation<T>,
    s: &Relation<T>,
    threads: usize,
) -> (JoinResult, BuildProbeReport) {
    let t0 = Instant::now();
    let table = BucketChainTable::build(r.tuples(), 0);
    let threads = threads.max(1);

    let chunk_size = s.len().div_ceil(threads).max(1);
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut matches = 0u64;
        let mut checksum = 0u64;
        loop {
            let start = cursor.fetch_add(chunk_size, Ordering::Relaxed);
            if start >= s.len() {
                break;
            }
            let end = (start + chunk_size).min(s.len());
            for s_t in &s.tuples()[start..end] {
                matches += table.probe(s_t.key(), |r_t| {
                    checksum = checksum
                        .wrapping_add(r_t.payload_word())
                        .wrapping_add(s_t.payload_word());
                }) as u64;
            }
        }
        (matches, checksum)
    };

    let (matches, checksum) = if threads == 1 {
        worker()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles.into_iter().fold((0u64, 0u64), |acc, h| {
                let (m, c) = h.join().expect("probe worker");
                (acc.0 + m, acc.1.wrapping_add(c))
            })
        })
    };

    let report = BuildProbeReport {
        matches,
        checksum,
        wall: t0.elapsed(),
        threads,
    };
    (JoinResult { matches, checksum }, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buildprobe::reference_join;
    use crate::fallback::EscalationChain;
    use crate::radix::radix_join;
    use fpart_cpu::CpuPartitioner;
    use fpart_datagen::WorkloadId;
    use fpart_hash::PartitionFn;
    use fpart_types::Tuple8;

    #[test]
    fn agrees_with_reference_and_radix_join() {
        let (r, s) = WorkloadId::C.spec().row_relations::<Tuple8>(0.00005, 2);
        let (result, _) = no_partition_join(&r, &s, 2);
        let (m, c) = reference_join(r.tuples(), s.tuples());
        assert_eq!((result.matches, result.checksum), (m, c));

        let cpu = CpuPartitioner::new(PartitionFn::Murmur { bits: 5 }, 2);
        let (radix_result, _) = radix_join(&cpu, &EscalationChain::new(2), &r, &s).unwrap();
        assert_eq!(result, radix_result);
    }

    #[test]
    fn single_and_multi_threaded_agree() {
        let (r, s) = WorkloadId::A.spec().row_relations::<Tuple8>(0.00002, 8);
        let (a, _) = no_partition_join(&r, &s, 1);
        let (b, _) = no_partition_join(&r, &s, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_sides() {
        let empty = Relation::<Tuple8>::from_tuples(&[]);
        let some = Relation::<Tuple8>::from_keys(&[1, 2, 3]);
        assert_eq!(no_partition_join(&empty, &some, 2).0.matches, 0);
        assert_eq!(no_partition_join(&some, &empty, 2).0.matches, 0);
    }
}
