//! Quickstart: partition a relation on both back-ends and compare.
//!
//! ```text
//! cargo run --release --example quickstart [n_tuples]
//! ```

use fpart::prelude::*;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_000_000);
    let bits = 13; // the paper's 8192 partitions
    let f = PartitionFn::Murmur { bits };

    println!("Generating {n} random 8B tuples…");
    let keys = KeyDistribution::Random.generate_keys::<u32>(n, 42);
    let rel = Relation::<Tuple8>::from_keys(&keys);

    // --- CPU baseline: SWWCB + non-temporal stores, all host threads.
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cpu = CpuPartitioner::new(f, threads);
    let (cpu_parts, cpu_report) = cpu.partition(&rel);
    println!(
        "CPU  ({threads} threads, measured):   {:8.1} Mtuples/s  ({:.3} s)",
        cpu_report.mtuples_per_sec(),
        cpu_report.total_time().as_secs_f64()
    );

    // --- Simulated FPGA: PAD/RID on the HARP QPI link.
    let fpga = FpgaPartitioner::with_modes(f, OutputMode::pad_default(), InputMode::Rid);
    let (fpga_parts, fpga_report) = fpga.partition(&rel).expect("FPGA partitioning");
    println!(
        "FPGA (PAD/RID, simulated @200MHz): {:8.1} Mtuples/s  ({:.3} s simulated)",
        fpga_report.mtuples_per_sec(),
        fpga_report.seconds()
    );

    // Both back-ends produce the same partitioning.
    assert_eq!(cpu_parts.histogram(), fpga_parts.histogram());
    assert_eq!(cpu_parts.total_valid(), n);
    let dummies = fpga_parts.padding_overhead();
    println!(
        "Identical histograms across {} partitions; FPGA flush wrote {dummies} dummy slots \
         ({:.2}% overhead).",
        cpu_parts.num_partitions(),
        100.0 * dummies as f64 / n as f64
    );

    // The paper's analytical prediction for this mode (Section 4.6).
    let model = fpart::costmodel::FpgaCostModel::paper();
    let predicted = model.p_total(n as u64, 8, OutputMode::pad_default(), InputMode::Rid) / 1e6;
    println!("Section 4.6 model predicts {predicted:.0} Mtuples/s for PAD/RID — compare above.");

    // --- Or skip the manual choice: the planner samples the output
    // mode and prices every back-end with the calibrated models.
    let plan = EnginePlanner::new(threads).plan(&rel, f);
    println!("\nThe engine planner would pick:");
    print!("{}", plan.explanation.to_text());
    let (planned_parts, report) = plan.run(&rel).expect("planned partitioning");
    assert_eq!(planned_parts.histogram(), cpu_parts.histogram());
    assert!(!report.degraded());
}
