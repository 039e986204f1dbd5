//! Figure 8: FPGA partitioner throughput in tuples/s and total data
//! processed in GB/s, across the four tuple widths (HIST/RID mode).
//!
//! Tuples/s halves as width doubles while GB/s stays flat — the
//! experimental proof that the circuit is bandwidth bound.

use fpart::prelude::*;
use fpart_costmodel::FpgaCostModel;
use fpart_datagen::KeyDistribution;
use fpart_fpga::{FpgaPartitioner, RunReport};

use crate::figures::common::scale_note;
use crate::par::{default_workers, par_map};
use crate::table::{fnum, TextTable};
use crate::Scale;

fn simulate_width<T: Tuple<K = u64>>(n: usize, bits: u32, seed: u64) -> RunReport {
    let config = PartitionerConfig {
        partition_fn: PartitionFn::Murmur { bits },
        ..PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Rid)
    };
    let keys = KeyDistribution::Random.generate_keys::<u64>(n, seed);
    let rel = Relation::<T>::from_keys(&keys);
    let (_, report) = FpgaPartitioner::new(config).partition(&rel).expect("sim");
    report
}

/// Generate the Figure 8 report.
pub fn run(scale: &Scale) -> Vec<TextTable> {
    let n = scale.n_128m();
    let bits = scale.partition_bits_for(13);
    let model = {
        let mut m = FpgaCostModel::paper();
        m.partitions = 1 << bits;
        m
    };

    let mut t = TextTable::new(
        format!("Figure 8 — FPGA throughput vs tuple width (HIST/RID, {n} tuples)"),
        &[
            "tuple width",
            "model Mt/s",
            "sim Mt/s",
            "model GB/s",
            "sim GB/s",
        ],
    );

    // The four widths are independent simulations (different tuple
    // types, so they fan out as boxed jobs rather than a data axis).
    let seed = scale.seed;
    let jobs: Vec<(usize, Box<dyn FnOnce() -> RunReport + Send>)> = vec![
        (
            8,
            Box::new(move || {
                // 8 B uses u32 keys; simulate separately.
                let config = PartitionerConfig {
                    partition_fn: PartitionFn::Murmur { bits },
                    ..PartitionerConfig::paper_default(OutputMode::Hist, InputMode::Rid)
                };
                let keys = KeyDistribution::Random.generate_keys::<u32>(n, seed);
                let rel = Relation::<Tuple8>::from_keys(&keys);
                FpgaPartitioner::new(config).partition(&rel).expect("sim").1
            }),
        ),
        (
            16,
            Box::new(move || simulate_width::<Tuple16>(n / 2, bits, seed)),
        ),
        (
            32,
            Box::new(move || simulate_width::<Tuple32>(n / 4, bits, seed)),
        ),
        (
            64,
            Box::new(move || simulate_width::<Tuple64>(n / 8, bits, seed)),
        ),
    ];
    let widths: Vec<usize> = jobs.iter().map(|(w, _)| *w).collect();
    let reports = par_map(jobs, default_workers(), |(_, job)| {
        let t0 = std::time::Instant::now();
        (job(), t0.elapsed().as_secs_f64())
    });
    for (w, (report, wall)) in widths.iter().zip(&reports) {
        crate::record::emit_report("fig8", &format!("{w}B"), report, *wall);
        t.row(vec![
            format!("{w}B"),
            fnum(model.p_total((n / (w / 8)) as u64, *w, OutputMode::Hist, InputMode::Rid) / 1e6),
            fnum(report.mtuples_per_sec()),
            fnum(model.data_gbps((n / (w / 8)) as u64, *w, OutputMode::Hist, InputMode::Rid)),
            fnum(report.link_gbps()),
        ]);
    }
    t.note("paper: ~299 Mt/s at 8B falling ~2x per doubling; total GB/s nearly constant");
    t.note(scale_note(scale));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_halves_and_gbps_flat() {
        let scale = Scale {
            fraction: 1.0 / 1024.0,
            host_threads: 1,
            seed: 2,
        };
        let out = crate::table::render_tables(&run(&scale));
        let rows: Vec<Vec<f64>> = out
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()) && l.contains('B'))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|c| c.parse::<f64>().ok())
                    .collect()
            })
            .collect();
        assert_eq!(rows.len(), 4, "four width rows in:\n{out}");
        // sim Mt/s (col 1) roughly halves per width doubling.
        for w in rows.windows(2) {
            let ratio = w[0][1] / w[1][1];
            assert!((1.5..3.0).contains(&ratio), "ratio {ratio}:\n{out}");
        }
    }
}
