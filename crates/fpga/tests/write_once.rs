//! Write-once outputs: the CPU partitioner, the batched FPGA path and the
//! hybrid split build their outputs through
//! `fpart_cpu::swwcb::OutputBuilder`, which allocates them unwritten
//! (`PartitionedRelation::uninit`), moves each partition's tuples into
//! the first slots of its extent and writes dummies only into the rest.
//! These tests read every slot back, so a slot left unwritten shows up as
//! a wrong tuple or a missing dummy.

use fpart_cpu::swwcb::scatter_scalar;
use fpart_cpu::CpuPartitioner;
use fpart_fpga::{
    FpgaPartitioner, InputMode, OutputMode, PaddingSpec, PartitionerConfig, SimFidelity,
};
use fpart_hash::PartitionFn;
use fpart_join::{HybridSplitEngine, PartitionEngine};
use fpart_types::{
    ColumnRelation, FpartError, Input, PartitionedRelation, Relation, RleColumn, SharedWriter,
    SplitMix64, Tuple, Tuple16, Tuple8,
};

const F: PartitionFn = PartitionFn::Murmur { bits: 5 };

/// Every tuple of `input`, in input order.
fn tuples<T: Tuple>(input: &Input<'_, T>) -> Vec<T> {
    let mut out = Vec::with_capacity(input.len());
    input.for_each_line(0..input.input_lines(), |line| out.extend_from_slice(line));
    out
}

/// Partition `p`'s first `valid` slots hold exactly its tuples of
/// `input`, in input order, and every other slot of its extent is a
/// dummy.
fn check_layout<T: Tuple>(label: &str, out: &PartitionedRelation<T>, input: &[T]) {
    let data = out.raw_data();
    assert_eq!(data.len(), out.allocated_slots(), "{label}");
    assert_eq!(out.total_valid(), input.len(), "{label}");
    for p in 0..out.num_partitions() {
        let base = out.partition_base(p);
        let extent = &data[base..base + out.partition_capacity(p)];
        let (valid, tail) = extent.split_at(out.partition_valid(p));
        let want: Vec<T> = (input.iter().copied())
            .filter(|t| F.partition_of(t.key()) == p)
            .collect();
        assert_eq!(valid, &want[..], "{label}: tuples of partition {p}");
        assert!(
            tail.iter().all(|t| t.is_dummy()),
            "{label}: a slot of partition {p} past its valid tuples is not a dummy"
        );
    }
}

/// The naive scatter of every tuple of `input` into a tuple-exact,
/// dummy-filled relation.
fn scalar<T: Tuple>(input: &[T]) -> PartitionedRelation<T> {
    let mut hist = vec![0; F.fan_out()];
    for t in input {
        hist[F.partition_of(t.key())] += 1;
    }
    let bases: Vec<usize> = (hist.iter())
        .scan(0, |acc, &h| {
            *acc += h;
            Some(*acc - h)
        })
        .collect();
    let mut out = PartitionedRelation::with_histogram(&hist, false);
    let w = SharedWriter::new(&mut out);
    // SAFETY: one writer; the extents come from the same histogram.
    unsafe { scatter_scalar(input, F, &bases, &w) };
    out
}

fn batched(output: OutputMode, mode: InputMode) -> FpgaPartitioner {
    let cfg = PartitionerConfig {
        partition_fn: F,
        ..PartitionerConfig::paper_default(output, mode)
    };
    FpgaPartitioner::new(cfg.with_fidelity(SimFidelity::Batched))
}

const ROOMY_PAD: OutputMode = OutputMode::Pad {
    padding: PaddingSpec::Fraction(30.0),
};

/// Every writer on one input: the CPU partitioner at 1 and 2 threads
/// (bit for bit against the naive scatter), batched HIST and PAD, and the
/// hybrid split over either at fraction 0.37.
fn check_input<T: Tuple>(label: &str, input: Input<'_, T>) {
    let all = tuples(&input);
    let reference = scalar(&all);
    for threads in [1, 2] {
        let (out, _) = CpuPartitioner::new(F, threads).partition(input);
        let label = format!("{label}, CPU at {threads} threads");
        check_layout(&label, &out, &all);
        assert_eq!(out.raw_data(), reference.raw_data(), "{label}");
    }
    for output in [OutputMode::Hist, ROOMY_PAD] {
        let (out, _) = batched(output, InputMode::of(&input))
            .partition(input)
            .expect("no overflow");
        check_layout(&format!("{label}, batched {output:?}"), &out, &all);
        let (out, _) = HybridSplitEngine::new(batched(output, InputMode::of(&input)), 2)
            .with_fraction(0.37)
            .partition(input)
            .expect("no overflow");
        check_layout(&format!("{label}, hybrid {output:?}"), &out, &all);
    }
}

fn keys(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..n).map(|_| rng.below_u64(1 << 20) as u32).collect()
}

#[test]
fn every_slot_is_written_once_on_rows_columns_and_rle() {
    let ks = keys(5003, 1);
    let rows = Relation::<Tuple8>::from_keys(&ks);
    check_input("Tuple8 rows", Input::from(&rows));
    let wide =
        Relation::<Tuple16>::from_keys(&ks.iter().map(|&k| u64::from(k)).collect::<Vec<_>>());
    check_input("Tuple16 rows", Input::from(&wide));
    let col = ColumnRelation::<Tuple8>::from_keys(&ks);
    check_input("columns", Input::from(&col));
    check_input("column view", Input::from(&col).slice(7..4990));
    let mut sorted: Vec<u32> = ks.iter().map(|k| k % 300).collect();
    sorted.sort_unstable();
    let rle = RleColumn::encode(&sorted);
    check_input("rle", Input::<Tuple8>::from(&rle));
    check_input("rle view", Input::<Tuple8>::from(&rle).slice(5..4999));
}

#[test]
fn overflowing_pad_run_still_fails() {
    // Half the keys are one key: its partition outgrows any capacity
    // sized for the mean.
    let ks: Vec<u32> = (keys(4000, 2).into_iter().enumerate())
        .map(|(i, k)| if i % 2 == 0 { 7 } else { k })
        .collect();
    let tight = OutputMode::Pad {
        padding: PaddingSpec::Tuples(0),
    };
    let rows = Relation::<Tuple8>::from_keys(&ks);
    let col = ColumnRelation::<Tuple8>::from_keys(&ks);
    let overflowing = F.partition_of(7u32);
    for (label, input) in [("rows", Input::from(&rows)), ("columns", Input::from(&col))] {
        match batched(tight, InputMode::of(&input)).partition(input) {
            Err(FpartError::PartitionOverflow { partition, .. }) => {
                assert_eq!(partition, overflowing, "{label}")
            }
            other => panic!("{label}: expected an overflow, got {:?}", other.map(|_| ())),
        }
    }
}
