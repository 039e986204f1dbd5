//! Equivalence of the partitioner's modes and back-ends: whatever the
//! path (CPU SWWCB, FPGA HIST/PAD × RID/VRID, the CPU⊕FPGA split), the same
//! input must yield the same partition *contents* (as multisets — the
//! FPGA interleaves lanes, so intra-partition order differs).

use fpart::fpga::FpgaPartitioner;
use fpart::prelude::*;
use fpart::types::relation::content_checksum;

fn partition_multisets<T: Tuple>(
    parts: &fpart::types::PartitionedRelation<T>,
) -> Vec<(u64, u64, u64)> {
    (0..parts.num_partitions())
        .map(|p| content_checksum(parts.partition_tuples(p)))
        .collect()
}

fn keys(n: usize) -> Vec<u32> {
    KeyDistribution::Grid.generate_keys(n, 17)
}

#[test]
fn all_backends_same_partition_contents() {
    let n = 6000;
    let f = PartitionFn::Murmur { bits: 5 };
    let rel = Relation::<Tuple8>::from_keys(&keys(n));

    // Every back-end behind the one object-safe trait — including the
    // CPU⊕FPGA split engine at a pinned fraction.
    let engines: Vec<(&str, Box<dyn PartitionEngine<Tuple8>>)> = vec![
        ("cpu-swwcb", Box::new(CpuPartitioner::new(f, 2))),
        (
            "fpga-hist",
            Box::new(FpgaPartitioner::with_modes(
                f,
                OutputMode::Hist,
                InputMode::Rid,
            )),
        ),
        (
            "fpga-pad",
            Box::new(FpgaPartitioner::with_modes(
                f,
                OutputMode::pad_default(),
                InputMode::Rid,
            )),
        ),
        (
            "hybrid-split",
            Box::new(
                HybridSplitEngine::new(
                    FpgaPartitioner::with_modes(f, OutputMode::pad_default(), InputMode::Rid),
                    2,
                )
                .with_fraction(0.5),
            ),
        ),
    ];
    let mut results = Vec::new();
    for (label, p) in engines {
        let (parts, _) = p.partition((&rel).into()).unwrap();
        assert_eq!(parts.total_valid(), n, "{label}");
        results.push((label, partition_multisets(&parts)));
    }
    let (first_label, first) = &results[0];
    for (label, ms) in &results[1..] {
        assert_eq!(ms, first, "{label} differs from {first_label}");
    }
}

#[test]
fn vrid_matches_rid_contents() {
    let n = 5000;
    let f = PartitionFn::Murmur { bits: 5 };
    let ks = keys(n);
    let col = ColumnRelation::<Tuple8>::from_keys(&ks);
    let row = Relation::<Tuple8>::from_keys(&ks);

    let rid_cfg = PartitionerConfig {
        partition_fn: f,
        ..PartitionerConfig::paper_default(OutputMode::pad_default(), InputMode::Rid)
    };
    let vrid_cfg = PartitionerConfig {
        partition_fn: f,
        ..PartitionerConfig::paper_default(OutputMode::pad_default(), InputMode::Vrid)
    };
    let (rid, _) = FpgaPartitioner::new(rid_cfg).partition(&row).unwrap();
    let (vrid, _) = FpgaPartitioner::new(vrid_cfg).partition(&col).unwrap();

    // `from_keys` sets payload = row id = the position VRID appends, so
    // the contents agree exactly.
    assert_eq!(partition_multisets(&rid), partition_multisets(&vrid));
}

#[test]
fn fpga_dummy_overhead_is_bounded() {
    // Worst case per combiner per partition is LANES-1 dummies; with 8
    // combiners: 8 × 7 per partition.
    let f = PartitionFn::Murmur { bits: 6 };
    let rel = Relation::<Tuple8>::from_keys(&keys(3000));
    let p = FpgaPartitioner::with_modes(f, OutputMode::Hist, InputMode::Rid);
    let (parts, _) = p.partition(&rel).unwrap();
    let bound = 64 * 8 * 7;
    assert!(
        parts.padding_overhead() <= bound,
        "{} dummy slots exceeds the structural bound {bound}",
        parts.padding_overhead()
    );
}

#[test]
fn histograms_equal_for_radix_across_key_widths() {
    // Radix partition ids depend only on low bits: Tuple8 (u32 keys) and
    // Tuple16 (u64 keys) of equal key values produce equal histograms.
    let ks32 = keys(4000);
    let ks64: Vec<u64> = ks32.iter().map(|&k| k as u64).collect();
    let f = PartitionFn::Radix { bits: 6 };
    let (p32, _) = CpuPartitioner::new(f, 1).partition(&Relation::<Tuple8>::from_keys(&ks32));
    let (p64, _) = CpuPartitioner::new(f, 1).partition(&Relation::<Tuple16>::from_keys(&ks64));
    assert_eq!(p32.histogram(), p64.histogram());
}
