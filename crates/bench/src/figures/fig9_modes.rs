//! Figure 9: end-to-end partitioning throughput of the four FPGA mode
//! pairs, the 10-core CPU baseline, the raw-wrapper circuit ceiling, and
//! the related-work reference bars — 8192 partitions, 8 B tuples.

use fpart::prelude::*;
use fpart_costmodel::cpu::DistributionKind;
use fpart_costmodel::{CpuCostModel, FpgaCostModel};
use fpart_fpga::mode_label;

use crate::figures::common::{relation, scale_note, sim_points};
use crate::table::{fnum, TextTable};
use crate::Scale;

/// The paper's Figure 9 bar heights (M 8B-tuples/s).
pub const PAPER_BARS: [(&str, f64); 9] = [
    ("[27] Polychroniou (32 cores)", 1100.0),
    ("[37] Wang (FPGA)", 256.0),
    ("HIST/RID", 299.0),
    ("HIST/VRID", 391.0),
    ("PAD/RID", 436.0),
    ("PAD/VRID", 514.0),
    ("CPU (10 cores)", 506.0),
    ("Raw FPGA (HIST)", 799.0),
    ("Raw FPGA (PAD)", 1597.0),
];

/// Generate the Figure 9 report.
pub fn run(scale: &Scale) -> Vec<TextTable> {
    let n = scale.n_128m();
    let bits = scale.partition_bits_for(13);
    let fpga_model = {
        let mut m = FpgaCostModel::paper();
        m.partitions = 1 << bits;
        m
    };
    let raw_model = {
        let mut m = FpgaCostModel::raw_wrapper();
        m.partitions = 1 << bits;
        m
    };
    let cpu_model = CpuCostModel::paper();

    let mut t = TextTable::new(
        format!(
            "Figure 9 — partitioning throughput (Mtuples/s), {n} 8B tuples, {} partitions",
            1 << bits
        ),
        &["series", "paper", "model", "ours"],
    );
    t.row(vec![
        PAPER_BARS[0].0.into(),
        fnum(PAPER_BARS[0].1),
        "-".into(),
        "- (reference bar)".into(),
    ]);
    t.row(vec![
        PAPER_BARS[1].0.into(),
        fnum(PAPER_BARS[1].1),
        "-".into(),
        "- (reference bar)".into(),
    ]);
    // All six simulated points (four QPI modes + two raw-wrapper bars)
    // are independent; fan them out across cores.
    let (hist, pad) = (OutputMode::Hist, OutputMode::pad_default());
    let points = [
        ((hist, InputMode::Rid), false),
        ((hist, InputMode::Vrid), false),
        ((pad, InputMode::Rid), false),
        ((pad, InputMode::Vrid), false),
        ((hist, InputMode::Rid), true),
        ((pad, InputMode::Rid), true),
    ];
    let sims = sim_points("fig9", &points, n, bits, scale.seed);
    for (i, paper) in [299.0, 391.0, 436.0, 514.0].into_iter().enumerate() {
        let ((output, input), _) = points[i];
        t.row(vec![
            mode_label(output, input),
            fnum(paper),
            fnum(fpga_model.p_total(n as u64, 8, output, input) / 1e6),
            format!("{} (sim)", fnum(sims[i].mtuples_per_sec())),
        ]);
    }
    // CPU 10 cores: model + local measurement. Stays serial — its wall
    // clock is the result, so it must not share the cores.
    let rel = relation(n, KeyDistribution::Linear, scale.seed);
    let t_cpu = std::time::Instant::now();
    let (_, cpu_report) =
        CpuPartitioner::new(PartitionFn::Murmur { bits }, scale.host_threads).partition(&rel);
    crate::record::emit(
        "fig9",
        "CPU measured",
        cpu_report.mtuples_per_sec(),
        0,
        t_cpu.elapsed().as_secs_f64(),
    );
    t.row(vec![
        "CPU (10 cores)".into(),
        fnum(506.0),
        fnum(
            cpu_model.throughput(
                PartitionFn::Murmur { bits: 13 },
                DistributionKind::Linear,
                10,
                8,
            ) / 1e6,
        ),
        format!(
            "{} (measured, {}t host)",
            fnum(cpu_report.mtuples_per_sec()),
            scale.host_threads
        ),
    ]);
    for (i, (label, paper)) in [("Raw FPGA (HIST)", 799.0), ("Raw FPGA (PAD)", 1597.0)]
        .into_iter()
        .enumerate()
    {
        let ((output, input), _) = points[4 + i];
        t.row(vec![
            label.into(),
            fnum(paper),
            fnum(raw_model.p_total(n as u64, 8, output, input) / 1e6),
            format!(
                "{} (sim, 25.6 GB/s wrapper)",
                fnum(sims[4 + i].mtuples_per_sec())
            ),
        ]);
    }
    t.note(
        "ordering to check: HIST/RID < HIST/VRID <= PAD/RID < PAD/VRID ~ CPU; raw PAD ~ 3x PAD/RID",
    );
    t.note(scale_note(scale));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_figure9() {
        let scale = Scale {
            fraction: 1.0 / 1024.0,
            host_threads: 2,
            seed: 3,
        };
        let n = scale.n_128m();
        let bits = scale.partition_bits_for(13);
        let sim = |mode, raw| {
            crate::figures::common::simulate_mode(mode, n, bits, raw, 3).mtuples_per_sec()
        };
        let pad = OutputMode::pad_default();
        let hist_rid = sim((OutputMode::Hist, InputMode::Rid), false);
        let pad_rid = sim((pad, InputMode::Rid), false);
        let pad_vrid = sim((pad, InputMode::Vrid), false);
        let raw_pad = sim((pad, InputMode::Rid), true);
        assert!(hist_rid < pad_rid, "{hist_rid} !< {pad_rid}");
        assert!(pad_rid < pad_vrid, "{pad_rid} !< {pad_vrid}");
        assert!(raw_pad > 2.0 * pad_rid, "raw {raw_pad} vs {pad_rid}");
    }
}
