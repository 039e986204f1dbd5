//! The paper's headline operator: a radix hash join whose partitioning
//! phase runs on the (simulated) FPGA while build+probe runs on CPU
//! threads — compared against the pure-CPU join on workload A.
//!
//! ```text
//! cargo run --release --example hybrid_join [scale]
//! ```
//!
//! `scale` shrinks the 128M⋈128M workload (default 0.001 ⇒ 128k⋈128k).

use fpart::costmodel::{FpgaCostModel, JoinCostModel};
use fpart::join::buildprobe::reference_join;
use fpart::prelude::*;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.001);
    let bits = 10;
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());

    let workload = WorkloadId::A.spec();
    let (r, s) = workload.row_relations::<Tuple8>(scale, 7);
    println!(
        "{}: R = {} tuples, S = {} tuples (scale {scale})",
        workload.name,
        r.len(),
        s.len()
    );

    // One join driver; only the partitioning engine differs. A PAD
    // overflow falls back to the CPU partitioner (Section 4.5).
    let chain = EscalationChain {
        hist_retry: false,
        ..EscalationChain::new(threads)
    };

    // --- Pure CPU radix join.
    let cpu = CpuPartitioner::new(PartitionFn::Murmur { bits }, threads);
    let (cpu_result, cpu_report) = radix_join(&cpu, &chain, &r, &s).expect("cpu join");
    println!("\nCPU join ({threads} threads, measured):");
    println!(
        "  partition R+S: {:.4} s   build+probe: {:.4} s   total: {:.4} s",
        cpu_report.host_partition_time().as_secs_f64(),
        cpu_report.build_probe.wall.as_secs_f64(),
        cpu_report.host_time().as_secs_f64()
    );

    // --- Hybrid join: simulated FPGA partitioning + measured build+probe.
    let config = PartitionerConfig::paper_default(OutputMode::pad_default(), InputMode::Rid);
    let config = PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits },
        ..config
    };
    let fpga = FpgaPartitioner::new(config);
    let (hybrid_result, hybrid_report) = radix_join(&fpga, &chain, &r, &s).expect("hybrid join");
    println!("\nHybrid join (FPGA PAD/RID partitioning simulated @200MHz):");
    println!(
        "  partition R+S: {:.4} s (simulated)   build+probe: {:.4} s (measured)",
        hybrid_report.simulated_partition_seconds(),
        hybrid_report.build_probe.wall.as_secs_f64()
    );

    // Same answer from both.
    assert_eq!(cpu_result, hybrid_result);
    let (m, c) = reference_join(r.tuples(), s.tuples());
    assert_eq!((cpu_result.matches, cpu_result.checksum), (m, c));
    println!(
        "\nBoth joins found {} matches (checksum {:#x}) — verified against a reference join.",
        cpu_result.matches, cpu_result.checksum
    );

    // What the paper's machine would do at full scale (Figure 11a).
    let fpga_model = FpgaCostModel::paper();
    let join_model = JoinCostModel::paper();
    let n = 128_000_000u64;
    let fpga_part =
        2.0 * fpga_model.partition_seconds(n, 8, OutputMode::pad_default(), InputMode::Rid);
    let cpu_part = 2.0 * n as f64 / 506e6;
    let bp_cpu = join_model.build_probe_seconds(n, n, 8192, 8, 10, false);
    let bp_hybrid = join_model.build_probe_seconds(n, n, 8192, 8, 10, true);
    println!("\nFull-scale prediction on the paper's Xeon+FPGA (10 threads, 8192 partitions):");
    println!(
        "  CPU join:    {:.3} s partition + {:.3} s build+probe = {:.3} s",
        cpu_part,
        bp_cpu,
        cpu_part + bp_cpu
    );
    println!("  Hybrid join: {:.3} s partition + {:.3} s build+probe = {:.3} s (coherence penalty on probe)", fpga_part, bp_hybrid, fpga_part + bp_hybrid);
}
