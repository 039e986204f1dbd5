//! Figure 12: join time vs threads for workloads C, D and E, after radix
//! vs hash partitioning.
//!
//! The point of the figure: on random keys (C) radix is good enough, but
//! on grid-style keys (D, E) radix partitioning unbalances the partitions
//! and build+probe pays for it — the paper measures 11 % (D) and 35 % (E)
//! build+probe improvement from hash partitioning, while hash
//! partitioning costs the CPU up to 50 % more time at low thread counts
//! and the FPGA nothing.
//!
//! Build+probe here is modelled from *real histograms*: each workload is
//! partitioned at scale with both methods and the per-partition fills
//! feed [`JoinCostModel::build_probe_seconds_skewed`], scaled back to
//! paper size.

use fpart::prelude::*;
use fpart_costmodel::cpu::DistributionKind;
use fpart_costmodel::{CpuCostModel, FpgaCostModel, JoinCostModel};

use crate::figures::common::{scale_note, THREAD_AXIS};
use crate::table::{fnum, TextTable};
use crate::Scale;

fn kind(dist: KeyDistribution) -> DistributionKind {
    match dist {
        KeyDistribution::Linear => DistributionKind::Linear,
        KeyDistribution::Random => DistributionKind::Random,
        KeyDistribution::Grid => DistributionKind::Grid,
        KeyDistribution::ReverseGrid => DistributionKind::ReverseGrid,
    }
}

/// Real per-partition histograms for both partitioning methods,
/// **up-scaled to paper-size fills**: the data is generated at `scale`
/// but partitioned at the paper's absolute 8192-way fan-out (the radix
/// collapse on grid keys depends on absolute key-byte bits), and each
/// bin is multiplied by `1/scale` so the cache-fit model sees
/// paper-sized partitions.
fn histograms(id: WorkloadId, scale: &Scale, f: PartitionFn) -> (Vec<u64>, Vec<u64>) {
    let pair = crate::figures::common::workload_rows(id, scale.fraction, scale.seed);
    let (r, s) = &*pair;
    // Only the per-partition fills feed the cost model — skip the scatter.
    let p = CpuPartitioner::new(f, scale.host_threads);
    let up = (1.0 / scale.fraction).round() as u64;
    let to_u64 = |h: Vec<usize>| h.iter().map(|&x| x as u64 * up).collect();
    (to_u64(p.histogram_only(r)), to_u64(p.histogram_only(s)))
}

/// Generate the Figure 12 report.
pub fn run(scale: &Scale) -> Vec<TextTable> {
    let cpu = CpuCostModel::paper();
    let fpga = FpgaCostModel::paper();
    let join = JoinCostModel::paper();
    // Absolute fan-out (see `histograms`): the figure's effect lives in
    // the key bytes, not the per-partition fill.
    let bits = 13;
    let n = 128_000_000u64;

    let mut tables: Vec<TextTable> = Vec::new();
    // The six partition-balance histograms (3 workloads × 2 partition
    // functions) are pure setup — their wall clock is not an output — so
    // they fan out across cores.
    let ids = [WorkloadId::C, WorkloadId::D, WorkloadId::E];
    let jobs: Vec<(WorkloadId, PartitionFn)> = ids
        .iter()
        .flat_map(|&id| {
            [
                (id, PartitionFn::Radix { bits }),
                (id, PartitionFn::Murmur { bits }),
            ]
        })
        .collect();
    let hists = crate::par::par_map(jobs, crate::par::default_workers(), |(id, f)| {
        histograms(id, scale, f)
    });
    for (w, id) in ids.into_iter().enumerate() {
        let spec = id.spec();
        let d = kind(spec.distribution);
        let (radix_r_hist, radix_s_hist) = hists[w * 2].clone();
        let (hash_r_hist, hash_s_hist) = hists[w * 2 + 1].clone();

        let mut t = TextTable::new(
            format!(
                "Figure 12 — {} join time (s), model + real partition balance",
                spec.name
            ),
            &[
                "threads",
                "CPU radix part",
                "b+p after radix",
                "CPU hash part",
                "b+p after hash",
                "FPGA hash part",
                "hyb b+p",
            ],
        );
        for threads in THREAD_AXIS {
            let radix_part = 2.0 * n as f64
                / cpu.throughput_at(PartitionFn::Radix { bits: 13 }, d, threads, 8, 8192);
            let hash_part = 2.0 * n as f64
                / cpu.throughput_at(PartitionFn::Murmur { bits: 13 }, d, threads, 8, 8192);
            let bp_radix =
                join.build_probe_seconds_skewed(&radix_r_hist, &radix_s_hist, 8, threads, false);
            let bp_hash =
                join.build_probe_seconds_skewed(&hash_r_hist, &hash_s_hist, 8, threads, false);
            let fpga_part =
                2.0 * fpga.partition_seconds(n, 8, OutputMode::pad_default(), InputMode::Rid);
            let bp_hyb =
                join.build_probe_seconds_skewed(&hash_r_hist, &hash_s_hist, 8, threads, true);
            t.row(vec![
                threads.to_string(),
                fnum(radix_part),
                fnum(bp_radix),
                fnum(hash_part),
                fnum(bp_hash),
                fnum(fpga_part),
                fnum(bp_hyb),
            ]);
        }
        // The headline deltas.
        let bp_radix_10 =
            join.build_probe_seconds_skewed(&radix_r_hist, &radix_s_hist, 8, 10, false);
        let bp_hash_10 = join.build_probe_seconds_skewed(&hash_r_hist, &hash_s_hist, 8, 10, false);
        let gain = (bp_radix_10 - bp_hash_10) / bp_radix_10 * 100.0;
        t.note(format!(
            "hash partitioning improves build+probe by {gain:.0}% here (paper: C ~0%, D 11%, E 35%)"
        ));
        t.note("FPGA computes the robust hash for free; the CPU pays for it at low thread counts");
        tables.push(t);
    }
    if let Some(last) = tables.last_mut() {
        last.note(scale_note(scale));
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hash partitioning must help build+probe on grid-style keys and be
    /// roughly neutral on random keys.
    #[test]
    fn hash_gain_ordering_c_vs_e() {
        let scale = Scale {
            fraction: 1.0 / 256.0,
            host_threads: 2,
            seed: 6,
        };
        let join = JoinCostModel::paper();
        let bits = 13;
        let gain = |id| {
            let (rr, rs) = histograms(id, &scale, PartitionFn::Radix { bits });
            let (hr, hs) = histograms(id, &scale, PartitionFn::Murmur { bits });
            let bp_r = join.build_probe_seconds_skewed(&rr, &rs, 8, 10, false);
            let bp_h = join.build_probe_seconds_skewed(&hr, &hs, 8, 10, false);
            (bp_r - bp_h) / bp_r
        };
        let c = gain(WorkloadId::C);
        let e = gain(WorkloadId::E);
        assert!(e > c, "E's gain ({e:.2}) must exceed C's ({c:.2})");
        assert!(c.abs() < 0.15, "random keys: radix is good enough ({c:.2})");
        assert!(e > 0.1, "rev. grid must show a real gain ({e:.2})");
    }
}
