//! The parallel build+probe phase over partition pairs.
//!
//! "For each partition, a build and probe phase follows: during the build
//! phase, a cache resident hash table is built from a partition of R.
//! During the probe phase, the tuples of the corresponding partition of S
//! are scanned and for each one, the hash table is probed to find a
//! match." (Section 3.3)
//!
//! Threads claim partitions from a shared atomic cursor; every partition
//! pair is independent, so no further synchronisation is needed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fpart_types::{PartitionedRelation, Tuple};

use crate::hashtable::BucketChainTable;

/// Result of the build+probe phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildProbeReport {
    /// Total matched (r, s) pairs.
    pub matches: u64,
    /// Order-insensitive checksum over matched pairs:
    /// Σ (r.payload + s.payload) wrapping — used to verify payload
    /// propagation end to end.
    pub checksum: u64,
    /// Wall time of the phase.
    pub wall: Duration,
    /// Threads used.
    pub threads: usize,
}

/// Run build+probe over all partition pairs of two partitioned relations.
///
/// `partition_bits` must be the fan-out bits of the partitioning step (the
/// hash-table index discards them — see [`BucketChainTable::build`]).
///
/// # Panics
/// Panics if the partition counts differ.
pub fn build_probe_all<T: Tuple>(
    r: &PartitionedRelation<T>,
    s: &PartitionedRelation<T>,
    partition_bits: u32,
    threads: usize,
) -> BuildProbeReport {
    assert_eq!(
        r.num_partitions(),
        s.num_partitions(),
        "both relations must be partitioned with the same fan-out"
    );
    let parts = r.num_partitions();
    let threads = threads.clamp(1, parts.max(1));
    let t0 = Instant::now();

    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut matches = 0u64;
        let mut checksum = 0u64;
        let mut table = BucketChainTable::with_shift(partition_bits);
        loop {
            let p = cursor.fetch_add(1, Ordering::Relaxed);
            if p >= parts {
                break;
            }
            table.rebuild(r.partition_slots(p));
            if table.is_empty() {
                continue;
            }
            for s_t in s.partition_tuples(p) {
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
                let (m, c) = h.join().expect("build+probe worker");
                (acc.0 + m, acc.1.wrapping_add(c))
            })
        })
    };

    BuildProbeReport {
        matches,
        checksum,
        wall: t0.elapsed(),
        threads,
    }
}

/// Reference join for verification: one unpartitioned hash join over the
/// raw relations. Returns `(matches, checksum)` with the same checksum
/// definition as [`build_probe_all`]. Uses [`BucketChainTable`] directly
/// over `r` (no copy, no per-key allocations), so verifying a
/// multi-million-tuple join costs about as much as running it.
pub fn reference_join<T: Tuple>(r: &[T], s: &[T]) -> (u64, u64) {
    let table = BucketChainTable::build(r, 0);
    let mut matches = 0u64;
    let mut checksum = 0u64;
    for t in s.iter().filter(|t| !t.is_dummy()) {
        matches += table.probe(t.key(), |r_t| {
            checksum = checksum
                .wrapping_add(r_t.payload_word())
                .wrapping_add(t.payload_word());
        }) as u64;
    }
    (matches, checksum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_cpu::CpuPartitioner;
    use fpart_datagen::{dist::foreign_keys, KeyDistribution};
    use fpart_hash::PartitionFn;
    use fpart_types::{Relation, Tuple8};

    fn partitioned_pair(
        n_r: usize,
        n_s: usize,
        f: PartitionFn,
    ) -> (
        Relation<Tuple8>,
        Relation<Tuple8>,
        PartitionedRelation<Tuple8>,
        PartitionedRelation<Tuple8>,
    ) {
        let r_keys: Vec<u32> = KeyDistribution::Random.generate_keys(n_r, 4);
        let s_keys = foreign_keys(&r_keys, n_s, 5);
        let r = Relation::from_keys(&r_keys);
        let s = Relation::from_keys(&s_keys);
        let p = CpuPartitioner::new(f, 2);
        let (rp, _) = p.partition(&r);
        let (sp, _) = p.partition(&s);
        (r, s, rp, sp)
    }

    #[test]
    fn matches_reference_join() {
        let f = PartitionFn::Murmur { bits: 5 };
        let (r, s, rp, sp) = partitioned_pair(2000, 6000, f);
        let report = build_probe_all(&rp, &sp, f.bits(), 2);
        let (m, c) = reference_join(r.tuples(), s.tuples());
        assert_eq!(report.matches, m);
        assert_eq!(report.checksum, c);
        // FK workload: every probe tuple matches exactly once.
        assert_eq!(report.matches, 6000);
    }

    /// Build+probe and the materialised join read every output layout
    /// like the reference join: the CPU partitioner's tuple-exact
    /// extents; the batched FPGA path's HIST and PAD extents, a valid
    /// prefix and then a dummy tail; and the cycle-accurate engine's,
    /// whose flush lines put dummies among the valid tuples. R holds
    /// every key two or three times and S draws its keys Zipf-skewed.
    #[test]
    fn every_output_layout_joins_like_the_reference() {
        use crate::materialize::{materialize_join, rows_checksum};
        use fpart_datagen::dist::zipf_foreign_keys;
        use fpart_fpga::{
            FpgaPartitioner, InputMode, OutputMode, PaddingSpec, PartitionerConfig, SimFidelity,
        };

        let f = PartitionFn::Murmur { bits: 5 };
        let r_keys: Vec<u32> = (0..4000u32).map(|i| (i % 1500) * 7 + 1).collect();
        let s_keys = zipf_foreign_keys(&r_keys, 5000, 1.25, 3);
        let (r, s) = (Relation::from_keys(&r_keys), Relation::from_keys(&s_keys));
        let expect = reference_join(r.tuples(), s.tuples());
        assert!(
            expect.0 > s.len() as u64,
            "duplicate build keys multiply matches"
        );

        let cpu = CpuPartitioner::new(f, 2);
        let mut layouts = vec![("cpu", cpu.partition(&r).0, cpu.partition(&s).0)];
        for (fidelity, name) in [
            (SimFidelity::Batched, "batched"),
            (SimFidelity::CycleAccurate, "cycle-accurate"),
        ] {
            for output in [
                OutputMode::Hist,
                OutputMode::Pad {
                    padding: PaddingSpec::Tuples(s.len()),
                },
            ] {
                let config = PartitionerConfig {
                    partition_fn: f,
                    ..PartitionerConfig::paper_default(output, InputMode::Rid)
                };
                let fpga = FpgaPartitioner::new(config.with_fidelity(fidelity));
                let rp = fpga.partition(&r).expect("no overflow");
                let sp = fpga.partition(&s).expect("no overflow");
                layouts.push((name, rp.0, sp.0));
            }
        }

        let slots = |rel: &PartitionedRelation<Tuple8>| -> Vec<Vec<bool>> {
            (0..rel.num_partitions())
                .map(|p| {
                    rel.partition_slots(p)
                        .iter()
                        .map(|t| t.is_dummy())
                        .collect()
                })
                .collect()
        };
        for (name, rp, sp) in &layouts {
            let dummies = slots(rp);
            let has_dummy = dummies.iter().flatten().any(|&d| d);
            // A dummy with a valid tuple after it in the same partition.
            let dummy_inside = dummies.iter().any(|p| p.windows(2).any(|w| w[0] && !w[1]));
            match *name {
                "cpu" => assert!(!has_dummy, "cpu: tuple-exact"),
                "batched" => assert!(has_dummy && !dummy_inside, "{name}: dummy tails"),
                _ => assert!(dummy_inside, "{name}: dummies inside flush lines"),
            }
            for threads in [1, 3] {
                let report = build_probe_all(rp, sp, f.bits(), threads);
                let what = format!("{name}, {threads} threads");
                assert_eq!((report.matches, report.checksum), expect, "{what}");
                let rows = materialize_join(rp, sp, f.bits(), threads);
                assert_eq!((rows.len() as u64, rows_checksum(&rows)), expect, "{what}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let f = PartitionFn::Radix { bits: 6 };
        let (_, _, rp, sp) = partitioned_pair(3000, 3000, f);
        let a = build_probe_all(&rp, &sp, f.bits(), 1);
        let b = build_probe_all(&rp, &sp, f.bits(), 4);
        assert_eq!(a.matches, b.matches);
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn disjoint_relations_produce_no_matches() {
        let f = PartitionFn::Murmur { bits: 4 };
        let r = Relation::<Tuple8>::from_keys(&[1, 2, 3]);
        let s = Relation::<Tuple8>::from_keys(&[10, 20, 30]);
        let p = CpuPartitioner::new(f, 1);
        let report = build_probe_all(&p.partition(&r).0, &p.partition(&s).0, f.bits(), 1);
        assert_eq!(report.matches, 0);
        assert_eq!(report.checksum, 0);
    }

    #[test]
    #[should_panic(expected = "same fan-out")]
    fn mismatched_fanout_rejected() {
        let r = Relation::<Tuple8>::from_keys(&[1]);
        let p4 = CpuPartitioner::new(PartitionFn::Radix { bits: 2 }, 1);
        let p8 = CpuPartitioner::new(PartitionFn::Radix { bits: 3 }, 1);
        let _ = build_probe_all(&p4.partition(&r).0, &p8.partition(&r).0, 2, 1);
    }
}
