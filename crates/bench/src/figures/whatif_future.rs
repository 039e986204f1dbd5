//! The conclusion's what-if: "in future architectures without such
//! structural barriers, FPGA based partitioning will be the most
//! efficient way to partition data."
//!
//! Sweeps the link bandwidth available to the circuit (PAD/RID, 8 B
//! tuples) at 200 MHz and at a 1 GHz hardened-macro clock, against the
//! paper's CPU reference points, and verifies the headline crossovers
//! with the cycle simulator at three operating points.

use fpart_costmodel::future::{FutureSweep, CPU_REFERENCES};
use fpart_hwsim::QpiConfig;
use fpart_memmodel::BandwidthCurve;

use crate::figures::common::scale_note;
use crate::table::{fnum, TextTable};
use crate::Scale;

/// Generate the what-if report.
pub fn run(scale: &Scale) -> Vec<TextTable> {
    let sweep = FutureSweep::paper();

    let mut t = TextTable::new(
        "What-if — FPGA partitioning throughput (Mtuples/s) vs link bandwidth (PAD/RID, 8B)",
        &["link GB/s", "200 MHz fabric", "1 GHz hardened macro"],
    );
    for gbps in [6.97, 12.8, 25.6, 51.2, 102.4] {
        t.row(vec![
            fnum(gbps),
            fnum(sweep.throughput(gbps, 200e6) / 1e6),
            fnum(sweep.throughput(gbps, 1e9) / 1e6),
        ]);
    }
    for cpu in CPU_REFERENCES {
        match sweep.crossover_bandwidth(cpu, 200e6) {
            Some(b) => {
                t.note(format!(
                    "beats {} ({:.0} Mt/s) from {:.1} GB/s of link bandwidth",
                    cpu.label,
                    cpu.tuples_per_sec / 1e6,
                    b
                ));
            }
            None => {
                t.note(format!("cannot beat {} at 200 MHz", cpu.label));
            }
        }
    }
    t.note(format!(
        "200 MHz circuit saturates its link demand at {:.1} GB/s (the paper's 25.6 figure)",
        sweep.saturation_bandwidth(200e6)
    ));

    // Spot-verify three sweep points with the cycle simulator.
    let n = scale.n_128m();
    let bits = scale.partition_bits_for(13);
    let mut v = TextTable::new(
        "What-if — simulator spot checks (PAD/RID)",
        &["link GB/s", "model Mt/s", "sim Mt/s"],
    );
    // Independent operating points: fan out, then record in axis order.
    let gbps_axis = vec![6.97, 12.8, 25.6];
    let spot = crate::par::par_map(gbps_axis.clone(), crate::par::default_workers(), |gbps| {
        let config = fpart_fpga::PartitionerConfig {
            partition_fn: fpart_hash::PartitionFn::Murmur { bits },
            ..fpart_fpga::PartitionerConfig::paper_default(
                fpart_fpga::OutputMode::pad_default(),
                fpart_fpga::InputMode::Rid,
            )
        };
        let qpi = QpiConfig::harp(BandwidthCurve::new(
            "what-if",
            vec![(0.0, gbps), (1.0, gbps)],
        ));
        let keys = fpart_datagen::KeyDistribution::Random.generate_keys::<u32>(n, scale.seed);
        let rel = fpart_types::Relation::<fpart_types::Tuple8>::from_keys(&keys);
        let t0 = std::time::Instant::now();
        let (_, report) = fpart_fpga::FpgaPartitioner::with_qpi(config, qpi)
            .partition(&rel)
            .expect("sim");
        (report, t0.elapsed().as_secs_f64())
    });
    for (gbps, (report, wall)) in gbps_axis.iter().zip(spot) {
        crate::record::emit_report("whatif", &format!("{gbps} GB/s"), &report, wall);
        v.row(vec![
            fnum(*gbps),
            fnum(sweep.throughput(*gbps, 200e6) / 1e6),
            fnum(report.mtuples_per_sec()),
        ]);
    }
    v.note(scale_note(scale));
    vec![t, v]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_tracks_model_across_the_sweep() {
        let scale = Scale {
            fraction: 1.0 / 512.0,
            host_threads: 1,
            seed: 5,
        };
        let out = crate::table::render_tables(&run(&scale));
        assert!(out.contains("beats 10-core Xeon"));
        assert!(out.contains("beats 32-core 4-socket"));
        // The 1 GHz column at 102.4 GB/s is still memory bound at
        // 102.4/16 = 6.4 Gt/s (full 8 Gt/s needs 128 GB/s).
        assert!(out.contains("6400"), "GHz column missing:\n{out}");
    }

    #[test]
    fn throughput_monotone_in_bandwidth() {
        let sweep = FutureSweep::paper();
        let mut prev = 0.0;
        for gbps in [4.0, 8.0, 16.0, 32.0, 64.0] {
            let t = sweep.throughput(gbps, 200e6);
            assert!(t >= prev);
            prev = t;
        }
        // And saturates: doubling past saturation changes nothing.
        assert_eq!(
            sweep.throughput(64.0, 200e6),
            sweep.throughput(128.0, 200e6)
        );
    }

    #[test]
    fn default_mode_is_pad_rid() {
        // The sweep's default mode is the paper's PAD/RID headline.
        let pad_rid = (
            fpart_fpga::OutputMode::pad_default(),
            fpart_fpga::InputMode::Rid,
        );
        assert_eq!(FutureSweep::paper().mode, pad_rid);
    }
}
