//! Figure 10: join performance on workload A with increasing numbers of
//! partitions — single-threaded (a) and 10-threaded (b), CPU join vs
//! hybrid join, stacked into partitioning and build+probe components.
//!
//! Key shapes to reproduce:
//! * CPU partitioning slows with more partitions at 1 thread, is flat
//!   (memory bound) at 10 threads;
//! * FPGA partitioning "delivers the same performance regardless of the
//!   number of partitions";
//! * build+probe improves with more partitions (cache fit) and is always
//!   slower after FPGA partitioning (coherence, Section 2.2).

use fpart::prelude::*;
use fpart_costmodel::cpu::DistributionKind;
use fpart_costmodel::{CpuCostModel, FpgaCostModel, JoinCostModel};

use crate::figures::common::{scale_note, workload_rows, PARTITION_AXIS};
use crate::table::{fnum, TextTable};
use crate::Scale;

const N: u64 = 128_000_000;

fn model_table(threads: usize) -> TextTable {
    let cpu = CpuCostModel::paper();
    let fpga = FpgaCostModel::paper();
    let join = JoinCostModel::paper();
    let f = PartitionFn::Murmur { bits: 13 };

    let mut t = TextTable::new(
        format!(
            "Figure 10 — workload A join time (s), {threads}-threaded, model of the paper machine"
        ),
        &[
            "partitions",
            "CPU part",
            "CPU b+p",
            "CPU total",
            "FPGA part",
            "hyb b+p",
            "hyb total",
        ],
    );
    for parts in PARTITION_AXIS {
        let cpu_part =
            2.0 * N as f64 / cpu.throughput_at(f, DistributionKind::Linear, threads, 8, parts);
        let cpu_bp = join.build_probe_seconds(N, N, parts, 8, threads, false);
        // FPGA partition time is independent of the fan-out (PAD/RID).
        let fpga_part =
            2.0 * fpga.partition_seconds(N, 8, OutputMode::pad_default(), InputMode::Rid);
        let hyb_bp = join.build_probe_seconds(N, N, parts, 8, threads, true);
        t.row(vec![
            parts.to_string(),
            fnum(cpu_part),
            fnum(cpu_bp),
            fnum(cpu_part + cpu_bp),
            fnum(fpga_part),
            fnum(hyb_bp),
            fnum(fpga_part + hyb_bp),
        ]);
    }
    t.note(
        "FPGA (PAD/RID) partitioning is flat across fan-outs; CPU partitioning grows at 1 thread",
    );
    t
}

/// Generate the Figure 10 report.
pub fn run(scale: &Scale) -> Vec<TextTable> {
    let mut tables = vec![model_table(1), model_table(10)];

    // Measured locally at scale: sweep partition bits around the scaled
    // default to show the same shape on real code.
    let pair = workload_rows(WorkloadId::A, scale.fraction, scale.seed);
    let (r, s) = &*pair;
    let base_bits = scale.partition_bits_for(13);
    let mut m = TextTable::new(
        format!(
            "Figure 10 (measured on this host) — workload A at scale, {} threads",
            scale.host_threads
        ),
        &[
            "partitions",
            "CPU part (s)",
            "CPU b+p (s)",
            "FPGA part (sim s)",
            "hyb b+p (s)",
        ],
    );
    for bits in [
        base_bits.saturating_sub(4).max(2),
        base_bits.saturating_sub(2),
        base_bits,
    ] {
        let f = PartitionFn::Murmur { bits };
        let chain = EscalationChain {
            hist_retry: false,
            ..EscalationChain::new(scale.host_threads)
        };
        let cpu = CpuPartitioner::new(f, scale.host_threads);
        let (_, report) = radix_join(&cpu, &chain, r, s).expect("cpu join");

        // The hybrid join's FPGA phase contributes simulated seconds.
        let config = PartitionerConfig {
            partition_fn: f,
            ..PartitionerConfig::paper_default(OutputMode::pad_default(), InputMode::Rid)
        };
        let fpga = FpgaPartitioner::new(config);
        let (_, hreport) = radix_join(&fpga, &chain, r, s).expect("hybrid join");
        crate::record::emit(
            "fig10",
            &format!("parts={} hyb b+p", 1usize << bits),
            0.0,
            0,
            hreport.build_probe.wall.as_secs_f64(),
        );
        m.row(vec![
            (1usize << bits).to_string(),
            fnum(report.host_partition_time().as_secs_f64()),
            fnum(report.build_probe.wall.as_secs_f64()),
            fnum(hreport.simulated_partition_seconds()),
            fnum(hreport.build_probe.wall.as_secs_f64()),
        ]);
    }
    m.note("partition counts scaled to preserve per-partition fill; coherence penalty cannot");
    m.note("manifest on a single-socket host — the model tables above apply Table 1's multipliers");
    m.note(scale_note(scale));
    tables.push(m);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_partitioning_grows_with_fanout() {
        let cpu = CpuCostModel::paper();
        let f = PartitionFn::Murmur { bits: 13 };
        let t256 = N as f64 / cpu.throughput_at(f, DistributionKind::Linear, 1, 8, 256);
        let t8192 = N as f64 / cpu.throughput_at(f, DistributionKind::Linear, 1, 8, 8192);
        assert!(t8192 > t256 * 1.3, "{t256} vs {t8192}");
        // 10-threaded: memory bound, flat.
        let t256 = N as f64 / cpu.throughput_at(f, DistributionKind::Linear, 10, 8, 256);
        let t8192 = N as f64 / cpu.throughput_at(f, DistributionKind::Linear, 10, 8, 8192);
        assert!((t8192 / t256 - 1.0).abs() < 0.01);
    }

    #[test]
    fn hybrid_build_probe_always_slower_in_model() {
        let join = JoinCostModel::paper();
        for parts in PARTITION_AXIS {
            let cpu = join.build_probe_seconds(N, N, parts, 8, 10, false);
            let hyb = join.build_probe_seconds(N, N, parts, 8, 10, true);
            assert!(hyb > cpu, "parts={parts}");
        }
    }
}
