//! Property-based cross-crate invariants: partitioning — on any back-end,
//! with any function, on any input — is a permutation into
//! correctly-labelled buckets, and joins are back-end invariant.
//!
//! Exercised with a seeded deterministic generator.

use fpart::prelude::{
    radix_join, CpuPartitioner, EscalationChain, FpgaPartitioner, InputMode, OutputMode,
    PartitionFn, PartitionerConfig, Relation, Tuple8,
};
use fpart::types::relation::content_checksum;
use fpart::types::SplitMix64;

/// Arbitrary keys avoiding only the reserved dummy sentinel.
fn keys(rng: &mut SplitMix64, max_len: usize) -> Vec<u32> {
    let n = rng.below_u64(max_len as u64) as usize;
    (0..n)
        .map(|_| rng.below_u64(u32::MAX as u64 - 1) as u32)
        .collect()
}

/// CPU partitioning is a permutation into correct buckets for any input
/// and fan-out.
#[test]
fn cpu_partitioning_is_permutation() {
    let mut rng = SplitMix64::seed_from_u64(0x4343_0001);
    for _ in 0..24 {
        let ks = keys(&mut rng, 2000);
        let bits = 1 + rng.below_u64(7) as u32;
        let f = if rng.next_bool() {
            PartitionFn::Murmur { bits }
        } else {
            PartitionFn::Radix { bits }
        };
        let rel = Relation::<Tuple8>::from_keys(&ks);
        let (parts, _) = CpuPartitioner::new(f, 2).partition(&rel);
        assert_eq!(parts.total_valid(), ks.len());
        assert_eq!(
            content_checksum(rel.tuples().iter().copied()),
            content_checksum(parts.all_tuples())
        );
        for p in 0..parts.num_partitions() {
            for t in parts.partition_tuples(p) {
                assert_eq!(f.partition_of(t.key), p);
            }
        }
    }
}

/// The simulated circuit agrees with the CPU partitioner on histograms
/// for any input (HIST mode, the direct comparison of Section 4.7).
#[test]
fn fpga_and_cpu_histograms_agree() {
    let mut rng = SplitMix64::seed_from_u64(0x4343_0002);
    for _ in 0..24 {
        let ks = keys(&mut rng, 1200);
        let bits = 1 + rng.below_u64(6) as u32;
        let f = PartitionFn::Murmur { bits };
        let rel = Relation::<Tuple8>::from_keys(&ks);
        let (cpu, _) = CpuPartitioner::new(f, 1).partition(&rel);
        let (fpga, _) = FpgaPartitioner::with_modes(f, OutputMode::Hist, InputMode::Rid)
            .partition(&rel)
            .unwrap();
        assert_eq!(cpu.histogram(), fpga.histogram());
        assert_eq!(
            content_checksum(cpu.all_tuples()),
            content_checksum(fpga.all_tuples())
        );
    }
}

/// Join results are invariant to the partitioning back-end and the thread
/// count, for arbitrary (including duplicate-key) inputs.
#[test]
fn join_backend_invariance() {
    let mut rng = SplitMix64::seed_from_u64(0x4343_0003);
    for _ in 0..24 {
        let r_keys = keys(&mut rng, 400);
        let s_keys = keys(&mut rng, 800);
        let bits = 1 + rng.below_u64(5) as u32;
        let f = PartitionFn::Murmur { bits };
        let r = Relation::<Tuple8>::from_keys(&r_keys);
        let s = Relation::<Tuple8>::from_keys(&s_keys);
        let (expect_m, expect_c) = fpart::join::buildprobe::reference_join(r.tuples(), s.tuples());

        let cpu_engine = CpuPartitioner::new(f, 2);
        let (cpu, _) = radix_join(&cpu_engine, &EscalationChain::new(2), &r, &s).unwrap();
        assert_eq!((cpu.matches, cpu.checksum), (expect_m, expect_c));

        let config = PartitionerConfig {
            partition_fn: f,
            ..PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Rid)
        };
        let chain = EscalationChain {
            hist_retry: false,
            ..EscalationChain::new(1)
        };
        let (hybrid, _) = radix_join(&FpgaPartitioner::new(config), &chain, &r, &s).unwrap();
        assert_eq!((hybrid.matches, hybrid.checksum), (expect_m, expect_c));
    }
}

/// Group-by aggregation: partitioned equals direct for arbitrary
/// duplicate-heavy inputs.
#[test]
fn aggregation_agrees() {
    let mut rng = SplitMix64::seed_from_u64(0x4343_0004);
    for _ in 0..24 {
        let n = rng.below_u64(2000) as usize;
        let ks: Vec<u32> = (0..n).map(|_| rng.below_u64(64) as u32).collect();
        let bits = 1 + rng.below_u64(5) as u32;
        let rel = Relation::<Tuple8>::from_keys(&ks);
        let f = PartitionFn::Murmur { bits };
        let a = fpart::join::aggregate::group_by_sum(&rel, f, 2);
        let b = fpart::join::aggregate::group_by_sum_direct(&rel);
        assert_eq!(a, b);
    }
}
