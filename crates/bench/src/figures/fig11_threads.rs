//! Figure 11: join time vs number of CPU threads for workloads A and B,
//! at 8192 partitions — pure CPU join vs hybrid with FPGA PAD/RID and
//! PAD/VRID partitioning.
//!
//! Shapes to reproduce: FPGA partitioning is a constant independent of
//! the thread axis (only build+probe scales); PAD/VRID is the fastest
//! partitioning (half the reads); the 10-thread endpoints land near the
//! paper's 436 (CPU) vs 406 (hybrid) M tuples/s for workload A.

use fpart::prelude::*;
use fpart_costmodel::cpu::DistributionKind;
use fpart_costmodel::{CpuCostModel, FpgaCostModel, JoinCostModel};

use crate::figures::common::{scale_note, workload_columns, workload_rows, THREAD_AXIS};
use crate::table::{fnum, TextTable};
use crate::Scale;

fn model_table(name: &str, r_n: u64, s_n: u64) -> TextTable {
    let cpu = CpuCostModel::paper();
    let fpga = FpgaCostModel::paper();
    let join = JoinCostModel::paper();
    let f = PartitionFn::Murmur { bits: 13 };
    let pad = OutputMode::pad_default();

    let mut t = TextTable::new(
        format!("Figure 11 — {name} join time (s) vs threads, model of the paper machine"),
        &[
            "threads",
            "CPU part",
            "CPU b+p",
            "CPU total",
            "FPGA RID part",
            "FPGA VRID part",
            "hyb b+p",
            "hyb RID total",
            "hyb VRID total",
        ],
    );
    for threads in THREAD_AXIS {
        let cpu_part =
            (r_n + s_n) as f64 / cpu.throughput_at(f, DistributionKind::Linear, threads, 8, 8192);
        let cpu_bp = join.build_probe_seconds(r_n, s_n, 8192, 8, threads, false);
        let rid = fpga.partition_seconds(r_n, 8, pad, InputMode::Rid)
            + fpga.partition_seconds(s_n, 8, pad, InputMode::Rid);
        let vrid = fpga.partition_seconds(r_n, 8, pad, InputMode::Vrid)
            + fpga.partition_seconds(s_n, 8, pad, InputMode::Vrid);
        let hyb_bp = join.build_probe_seconds(r_n, s_n, 8192, 8, threads, true);
        t.row(vec![
            threads.to_string(),
            fnum(cpu_part),
            fnum(cpu_bp),
            fnum(cpu_part + cpu_bp),
            fnum(rid),
            fnum(vrid),
            fnum(hyb_bp),
            fnum(rid + hyb_bp),
            fnum(vrid + hyb_bp),
        ]);
    }
    if r_n == s_n {
        let total_10 = (r_n + s_n) as f64;
        let cpu_tp = total_10
            / ((r_n + s_n) as f64 / cpu.throughput_at(f, DistributionKind::Linear, 10, 8, 8192)
                + join.build_probe_seconds(r_n, s_n, 8192, 8, 10, false))
            / 1e6;
        let hyb_tp = total_10
            / (fpga.partition_seconds(r_n, 8, pad, InputMode::Vrid) * 2.0
                + join.build_probe_seconds(r_n, s_n, 8192, 8, 10, true))
            / 1e6;
        t.note(format!(
            "10-thread throughput: CPU {cpu_tp:.0} Mt/s (paper: 436), hybrid PAD/VRID {hyb_tp:.0} \
             Mt/s (paper: 406)"
        ));
    }
    t
}

/// Generate the Figure 11 report.
pub fn run(scale: &Scale) -> Vec<TextTable> {
    let a = WorkloadId::A.spec();
    let b = WorkloadId::B.spec();
    let mut tables = vec![
        model_table("workload A", a.r_tuples as u64, a.s_tuples as u64),
        model_table("workload B", b.r_tuples as u64, b.s_tuples as u64),
    ];

    // Measured at scale on this host (thread axis capped by the host).
    let mut m = TextTable::new(
        format!(
            "Figure 11 (measured on this host, {} threads)",
            scale.host_threads
        ),
        &[
            "workload",
            "CPU total (s)",
            "hyb RID: FPGA part (sim s) + b+p (s)",
            "hyb VRID part (sim s)",
        ],
    );
    for id in [WorkloadId::A, WorkloadId::B] {
        let pair = workload_rows(id, scale.fraction, scale.seed);
        let (r, s) = &*pair;
        let bits = scale.partition_bits_for(13);
        let f = PartitionFn::Murmur { bits };
        let chain = EscalationChain {
            hist_retry: false,
            ..EscalationChain::new(scale.host_threads)
        };
        let cpu = CpuPartitioner::new(f, scale.host_threads);
        let (_, cpu_rep) = radix_join(&cpu, &chain, r, s).expect("cpu join");

        let rid_cfg = PartitionerConfig {
            partition_fn: f,
            ..PartitionerConfig::paper_default(OutputMode::pad_default(), InputMode::Rid)
        };
        let (_, hyb) =
            radix_join(&FpgaPartitioner::new(rid_cfg), &chain, r, s).expect("hybrid join");

        // VRID partitioning of the same data as columns.
        let cols = workload_columns(id, scale.fraction, scale.seed);
        let (rc, sc) = &*cols;
        let vrid_cfg = PartitionerConfig {
            partition_fn: f,
            ..PartitionerConfig::paper_default(OutputMode::pad_default(), InputMode::Vrid)
        };
        let vp = FpgaPartitioner::new(vrid_cfg);
        let vrid_secs = vp.partition(rc).expect("vrid r").1.seconds()
            + vp.partition(sc).expect("vrid s").1.seconds();

        crate::record::emit(
            "fig11",
            &format!("{} hyb b+p", id.spec().name),
            0.0,
            0,
            hyb.build_probe.wall.as_secs_f64(),
        );
        m.row(vec![
            id.spec().name.into(),
            fnum(cpu_rep.host_time().as_secs_f64()),
            format!(
                "{} + {}",
                fnum(hyb.simulated_partition_seconds()),
                fnum(hyb.build_probe.wall.as_secs_f64())
            ),
            fnum(vrid_secs),
        ]);
    }
    m.note(scale_note(scale));
    tables.push(m);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's 10-thread endpoints for workload A.
    #[test]
    fn ten_thread_endpoints_near_paper() {
        let cpu = CpuCostModel::paper();
        let join = JoinCostModel::paper();
        let fpga = FpgaCostModel::paper();
        let n = 128_000_000u64;
        let f = PartitionFn::Murmur { bits: 13 };
        let cpu_total = 2.0 * n as f64
            / cpu.throughput_at(f, DistributionKind::Linear, 10, 8, 8192)
            + join.build_probe_seconds(n, n, 8192, 8, 10, false);
        let cpu_tp = 2.0 * n as f64 / cpu_total / 1e6;
        assert!((cpu_tp - 436.0).abs() < 20.0, "CPU {cpu_tp:.0}");

        let hyb_total = 2.0
            * fpga.partition_seconds(n, 8, OutputMode::pad_default(), InputMode::Vrid)
            + join.build_probe_seconds(n, n, 8192, 8, 10, true);
        let hyb_tp = 2.0 * n as f64 / hyb_total / 1e6;
        assert!((hyb_tp - 406.0).abs() < 30.0, "hybrid {hyb_tp:.0}");
    }

    /// VRID partitioning is faster than RID in the model (Figure 11's
    /// main contrast).
    #[test]
    fn vrid_faster_than_rid() {
        let fpga = FpgaCostModel::paper();
        let n = 128_000_000u64;
        assert!(
            fpga.partition_seconds(n, 8, OutputMode::pad_default(), InputMode::Vrid)
                < fpga.partition_seconds(n, 8, OutputMode::pad_default(), InputMode::Rid)
        );
    }
}
