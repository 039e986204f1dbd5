//! Property tests for the CPU⊕FPGA split engine: for every output mode,
//! input mode, key distribution and split fraction, the split's result
//! is per-partition multiset-identical to a single-back-end run; a PAD
//! overflow on the FPGA share propagates untransformed while the
//! all-CPU split of the same input succeeds; and the merged
//! observability snapshot still satisfies every conservation law.

use fpart::fpga::{
    FpgaPartitioner, InputMode, ObsLevel, OutputMode, PaddingSpec, PartitionerConfig,
};
use fpart::prelude::*;
use fpart::types::relation::content_checksum;

fn partition_multisets<T: Tuple>(
    parts: &fpart::types::PartitionedRelation<T>,
) -> Vec<(u64, u64, u64)> {
    (0..parts.num_partitions())
        .map(|p| content_checksum(parts.partition_tuples(p)))
        .collect()
}

fn engine(output: OutputMode, input: InputMode, fraction: f64) -> HybridSplitEngine {
    let f = PartitionFn::Murmur { bits: 5 };
    HybridSplitEngine::new(FpgaPartitioner::with_modes(f, output, input), 2).with_fraction(fraction)
}

/// The full matrix: {HIST, PAD} × {rows (RID), columns (VRID),
/// run-length-encoded columns (VRID)} × all key distributions × split
/// fractions {0, 0.37, 0.5, 1}. Every cell must reproduce the
/// single-back-end partition contents and report the share sizes it was
/// pinned to.
#[test]
fn split_matches_single_backend_across_matrix() {
    let n = 4096;
    let f = PartitionFn::Murmur { bits: 5 };
    for output in [OutputMode::Hist, OutputMode::pad_default()] {
        for dist in KeyDistribution::ALL {
            let keys = dist.generate_keys::<u32>(n, 23);
            // Runs of three equal keys, so the 0.37 and 0.5 splits (rows
            // 1516 and 2048) fall inside a run.
            let run_keys: Vec<u32> = (0..n).map(|i| keys[i / 3 * 3]).collect();
            let rows = Relation::<Tuple8>::from_keys(&keys);
            let cols = ColumnRelation::<Tuple8>::from_keys(&keys);
            let rle = RleColumn::encode(&run_keys);
            let decoded = ColumnRelation::<Tuple8>::from_keys(&run_keys);
            // Each input with its single-back-end reference: a full CPU
            // run (RID) or a full-relation FPGA run of the plain column
            // (VRID).
            let cells = [
                ("rows", Input::from(&rows), Input::from(&rows)),
                ("columns", Input::from(&cols), Input::from(&cols)),
                ("rle", Input::from(&rle), Input::from(&decoded)),
            ];
            for (layout, whole, plain) in cells {
                let input = InputMode::of(&whole);
                let reference = match input {
                    InputMode::Rid => CpuPartitioner::new(f, 2).partition(plain).0,
                    InputMode::Vrid => {
                        FpgaPartitioner::with_modes(f, output, input)
                            .partition(plain)
                            .unwrap()
                            .0
                    }
                };
                let expect = partition_multisets(&reference);

                for fraction in [0.0, 0.37, 0.5, 1.0] {
                    let label = format!("{output:?}/{layout} {dist:?} f={fraction}");
                    let (parts, stats) = engine(output, input, fraction)
                        .partition(whole)
                        .unwrap_or_else(|err| panic!("{label}: {err}"));
                    assert_eq!(parts.total_valid(), n, "{label}");
                    assert_eq!(partition_multisets(&parts), expect, "{label}");

                    let k = (n as f64 * fraction).round() as u64;
                    let fpga_share = stats.fpga.as_ref().map_or(0, |r| r.tuples);
                    let cpu_share = stats.cpu.as_ref().map_or(0, |r| r.tuples);
                    assert_eq!((fpga_share, cpu_share), (k, n as u64 - k), "{label}");
                    assert_eq!(stats.fpga.is_some(), k > 0, "{label}");
                    assert_eq!(stats.cpu.is_some(), k < n as u64, "{label}");
                }
            }
        }
    }
}

/// The modeled (unpinned) split also reproduces single-back-end
/// contents — whatever fraction the cost model picks.
#[test]
fn modeled_split_matches_cpu_contents() {
    let n = 50_000;
    let f = PartitionFn::Murmur { bits: 5 };
    let keys = KeyDistribution::Random.generate_keys::<u32>(n, 29);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let (cpu_parts, _) = CpuPartitioner::new(f, 2).partition(&rel);
    let e = HybridSplitEngine::new(
        FpgaPartitioner::with_modes(f, OutputMode::pad_default(), InputMode::Rid),
        2,
    );
    let (parts, _) = e.partition((&rel).into()).unwrap();
    assert_eq!(partition_multisets(&parts), partition_multisets(&cpu_parts));
}

/// A PAD overflow on the FPGA share only: the front half of the input
/// is one repeated key, so any nonzero FPGA share overflows a zero-pad
/// PAD config and the abort propagates untransformed — while the same
/// input through an all-CPU split (fraction 0) completes fine.
#[test]
fn one_sided_pad_overflow_propagates() {
    let n = 4096;
    let mut keys = vec![7u32; n / 2]; // the FPGA share: total skew
    keys.extend(KeyDistribution::Random.generate_keys::<u32>(n / 2, 31));
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let cfg = PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits: 5 },
        output: OutputMode::Pad {
            padding: PaddingSpec::Tuples(0),
        },
        ..PartitionerConfig::paper_default(OutputMode::pad_default(), InputMode::Rid)
    };

    let overflowing = HybridSplitEngine::new(FpgaPartitioner::new(cfg.clone()), 2)
        .with_fraction(0.5)
        .partition((&rel).into())
        .unwrap_err();
    assert!(
        matches!(overflowing, FpartError::PartitionOverflow { .. }),
        "expected the FPGA share's overflow, got {overflowing:?}"
    );

    // The identical input with the skew routed to the CPU share (which
    // has no PAD capacity limit) completes.
    let (parts, _) = HybridSplitEngine::new(FpgaPartitioner::new(cfg), 2)
        .with_fraction(0.0)
        .partition((&rel).into())
        .unwrap();
    assert_eq!(parts.total_valid(), n);
}

/// A NaN fraction pins the all-CPU split, and the engine reports the
/// fraction it runs.
#[test]
fn nan_fraction_runs_all_cpu() {
    let n = 1000;
    let rel = Relation::<Tuple8>::from_keys(&KeyDistribution::Random.generate_keys::<u32>(n, 41));
    let e = engine(OutputMode::Hist, InputMode::Rid, f64::NAN);
    assert_eq!(e.planned_fraction(n as u64, Tuple8::WIDTH), 0.0);
    let (parts, stats) = e.partition((&rel).into()).unwrap();
    assert_eq!(parts.total_valid(), n);
    assert!(stats.fpga.is_none());
    assert_eq!(stats.cpu.map(|r| r.tuples), Some(n as u64));
}

/// Counter conservation holds for the merged hybrid snapshot: the FPGA
/// share's datapath laws are untouched by adding the CPU share's
/// write-combining counters.
#[test]
fn merged_snapshot_conserves() {
    let n = 8192;
    let keys = KeyDistribution::Random.generate_keys::<u32>(n, 37);
    let rel = Relation::<Tuple8>::from_keys(&keys);
    let cfg = PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits: 5 },
        ..PartitionerConfig::paper_default(OutputMode::pad_default(), InputMode::Rid)
    }
    .with_obs(ObsLevel::Counters);
    let e = HybridSplitEngine::new(FpgaPartitioner::new(cfg), 2).with_fraction(0.5);
    let (_, stats) = e.partition((&rel).into()).unwrap();
    assert!(stats.fpga.is_some() && stats.cpu.is_some());
    let obs = stats.obs();
    fpart::obs::asserts::assert_conserved(&obs);

    // The merged snapshot actually carries the CPU share's contribution.
    use fpart::obs::Ctr;
    assert!(obs.counters.get(Ctr::SwwcbNtLines) > 0);
}
