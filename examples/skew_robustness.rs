//! Robust hashing and skew handling (Sections 3.2, 4.5 and 5.4):
//!
//! 1. radix vs murmur partition balance on the four key distributions
//!    (the Figure 3 CDFs, condensed to min/max/stddev);
//! 2. PAD-mode overflow under Zipf skew, and the two recovery paths
//!    (HIST retry and CPU fallback).
//!
//! ```text
//! cargo run --release --example skew_robustness [n_tuples]
//! ```

use fpart::prelude::*;

fn balance_stats(hist: &[usize]) -> (usize, usize, f64) {
    let min = *hist.iter().min().unwrap();
    let max = *hist.iter().max().unwrap();
    let mean = hist.iter().sum::<usize>() as f64 / hist.len() as f64;
    let var = hist.iter().map(|&h| (h as f64 - mean).powi(2)).sum::<f64>() / hist.len() as f64;
    (min, max, var.sqrt())
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    let bits = 10;

    println!(
        "== Partition balance: radix vs murmur, {n} keys, {} partitions ==",
        1 << bits
    );
    println!(
        "{:<12} {:>10} {:>10} {:>10}   {:>10} {:>10} {:>10}",
        "", "radix min", "max", "σ", "hash min", "max", "σ"
    );
    for dist in KeyDistribution::ALL {
        let keys = dist.generate_keys::<u32>(n, 3);
        let rel = Relation::<Tuple8>::from_keys(&keys);
        let radix = CpuPartitioner::new(PartitionFn::Radix { bits }, 2)
            .partition(&rel)
            .0;
        let hash = CpuPartitioner::new(PartitionFn::Murmur { bits }, 2)
            .partition(&rel)
            .0;
        let (rmin, rmax, rsd) = balance_stats(radix.histogram());
        let (hmin, hmax, hsd) = balance_stats(hash.histogram());
        println!(
            "{:<12} {rmin:>10} {rmax:>10} {rsd:>10.1}   {hmin:>10} {hmax:>10} {hsd:>10.1}",
            dist.label()
        );
    }
    println!(
        "(Radix collapses grid-style keys onto few partitions; murmur stays balanced — Figure 3.)"
    );

    println!("\n== PAD mode under Zipf skew (Section 5.4) ==");
    let workload = WorkloadId::A.spec();
    for zipf in [0.0, 0.25, 0.5, 1.0, 1.5] {
        let (_, s) = workload.skewed_row_relations::<Tuple8>(n as f64 / 128e6, zipf, 5);
        let pad = FpgaPartitioner::with_modes(
            PartitionFn::Murmur { bits },
            OutputMode::pad_default(),
            InputMode::Rid,
        );
        match pad.partition(&s) {
            Ok((parts, _)) => println!(
                "  zipf {zipf:<5} PAD ok    (largest partition {} tuples)",
                parts.histogram().iter().max().unwrap()
            ),
            Err(FpartError::PartitionOverflow {
                partition,
                consumed,
                ..
            }) => {
                println!(
                    "  zipf {zipf:<5} PAD ABORTED at partition {partition} after {consumed} \
                     tuples → HIST retry…"
                );
                let hist = FpgaPartitioner::with_modes(
                    PartitionFn::Murmur { bits },
                    OutputMode::Hist,
                    InputMode::Rid,
                );
                let (parts, _) = hist.partition(&s).expect("HIST handles any skew");
                println!(
                    "            HIST ok   (largest partition {} tuples)",
                    parts.histogram().iter().max().unwrap()
                );
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    println!("\n== The join's automatic fallback ==");
    let (r, s) = workload.skewed_row_relations::<Tuple8>(n as f64 / 128e6, 1.25, 5);
    let config = PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits },
        output: OutputMode::Pad {
            padding: PaddingSpec::Tuples(0),
        },
        ..PartitionerConfig::paper_default(OutputMode::pad_default(), InputMode::Rid)
    };
    // Restart an aborted PAD run in HIST mode (Section 5.4).
    let chain = EscalationChain {
        cpu_fallback: false,
        ..EscalationChain::new(2)
    };
    let (result, report) =
        radix_join(&FpgaPartitioner::new(config), &chain, &r, &s).expect("join with fallback");
    println!(
        "  zipf 1.25, zero padding: fallback engaged = {}, matches = {}",
        report.degraded(),
        result.matches
    );
}
