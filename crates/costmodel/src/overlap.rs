//! Phase overlap: what Figure 2's *interfered* curves are for.
//!
//! The paper measures how much bandwidth each agent keeps when "both the
//! CPU and the FPGA access the memory at the same time, causing a
//! significant decrease in bandwidth for both" (Section 2.1) — but its
//! hybrid join never overlaps phases: the FPGA partitions R, then S, then
//! the CPU builds and probes. A natural scheduling improvement (and the
//! obvious next step for the DBMS integration the Discussion sketches) is
//! to **overlap the FPGA's partitioning of S with the CPU's build over
//! R's partitions** — paying the interference penalty on both sides
//! during the overlap window.
//!
//! [`OverlapModel`] prices that trade with the calibrated curves:
//!
//! * sequential: `fpga(R) + fpga(S) + build(R) + probe(S)`
//! * overlapped: `fpga(R) + window(S-partitioning ∥ R-build) + probe(S)`,
//!   where the window runs both sides at interfered rates until the
//!   shorter finishes and lets the survivor complete uncontended.

use fpart_fpga::{InputMode, OutputMode};
use fpart_memmodel::BandwidthCurve;

use crate::fpga::FpgaCostModel;
use crate::join::JoinCostModel;

/// Models the sequential vs overlapped hybrid join schedule.
#[derive(Debug, Clone)]
pub struct OverlapModel {
    /// Circuit model on the uncontended link (phases running alone).
    pub fpga_alone: FpgaCostModel,
    /// Circuit model on the interfered link (overlap window).
    pub fpga_interfered: FpgaCostModel,
    /// Build+probe cost model.
    pub join: JoinCostModel,
    /// CPU slowdown during the overlap window on its memory-bound share
    /// (Figure 2: the CPU keeps ≈0.72 of its bandwidth under FPGA
    /// traffic).
    pub cpu_interference: f64,
    /// Partition count.
    pub partitions: usize,
    /// CPU threads.
    pub threads: usize,
}

impl OverlapModel {
    /// The paper platform with PAD/RID partitioning at 8192 partitions.
    pub fn paper(threads: usize) -> Self {
        Self {
            fpga_alone: FpgaCostModel::paper(),
            fpga_interfered: FpgaCostModel {
                curve: BandwidthCurve::fpga_interfered(),
                ..FpgaCostModel::paper()
            },
            join: JoinCostModel::paper(),
            cpu_interference: 0.72,
            partitions: 8192,
            threads,
        }
    }

    /// Seconds for the FPGA to partition `n` tuples in PAD/RID mode on
    /// `link`.
    fn fpga_seconds(link: &FpgaCostModel, n: u64) -> f64 {
        link.partition_seconds(n, 8, OutputMode::pad_default(), InputMode::Rid)
    }

    /// Seconds for the CPU build phase over R (coherence applied: the
    /// partitions were FPGA-written).
    fn build_seconds(&self, n_r: u64, interfered: bool) -> f64 {
        let part_bytes = (n_r as f64 / self.partitions as f64) * 8.0;
        let penalty = self.join.cache_penalty(part_bytes);
        let (build_coh, _) = self.join.coherence_multipliers();
        let base = n_r as f64 * self.join.build_cycles * penalty * build_coh
            / (self.join.platform.cpu_hz * self.threads as f64);
        if interfered {
            // The memory-bound share slows by 1/cpu_interference.
            let mem = self.join.build_mem_fraction;
            base * ((1.0 - mem) + mem / self.cpu_interference)
        } else {
            base
        }
    }

    /// Seconds for the CPU probe phase over S (coherence applied).
    fn probe_seconds(&self, n_s: u64, n_r: u64) -> f64 {
        let part_bytes = (n_r as f64 / self.partitions as f64) * 8.0;
        let penalty = self.join.cache_penalty(part_bytes);
        let (_, probe_coh) = self.join.coherence_multipliers();
        n_s as f64 * self.join.probe_cycles * penalty * probe_coh
            / (self.join.platform.cpu_hz * self.threads as f64)
    }

    /// The paper's schedule: every phase alone.
    pub fn sequential_seconds(&self, n_r: u64, n_s: u64) -> f64 {
        Self::fpga_seconds(&self.fpga_alone, n_r)
            + Self::fpga_seconds(&self.fpga_alone, n_s)
            + self.build_seconds(n_r, false)
            + self.probe_seconds(n_s, n_r)
    }

    /// Duration of two phases run concurrently: both progress at their
    /// interfered rates until the shorter finishes, then the survivor
    /// completes its remaining work at its alone rate.
    fn concurrent_window(a_alone: f64, a_interf: f64, b_alone: f64, b_interf: f64) -> f64 {
        if a_interf <= b_interf {
            // A finishes first; B has done a_interf/b_interf of its work.
            a_interf + (1.0 - a_interf / b_interf) * b_alone
        } else {
            b_interf + (1.0 - b_interf / a_interf) * a_alone
        }
    }

    /// The overlapped schedule: the FPGA partitions S (interfered link)
    /// while the CPU builds over R's partitions (interfered memory); the
    /// probe waits for both.
    pub fn overlapped_seconds(&self, n_r: u64, n_s: u64) -> f64 {
        let fpga_r = Self::fpga_seconds(&self.fpga_alone, n_r);
        let fpga_s_alone = Self::fpga_seconds(&self.fpga_alone, n_s);
        let fpga_s_interf = Self::fpga_seconds(&self.fpga_interfered, n_s);
        let build_alone = self.build_seconds(n_r, false);
        let build_interf = self.build_seconds(n_r, true);
        let window =
            Self::concurrent_window(build_alone, build_interf, fpga_s_alone, fpga_s_interf);
        fpga_r + window + self.probe_seconds(n_s, n_r)
    }

    /// Fractional saving of overlapping vs the paper's sequential
    /// schedule.
    pub fn saving(&self, n_r: u64, n_s: u64) -> f64 {
        let seq = self.sequential_seconds(n_r, n_s);
        1.0 - self.overlapped_seconds(n_r, n_s) / seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 128_000_000;

    /// Overlap always wins on workload A (the hidden phase is long).
    #[test]
    fn overlap_beats_sequential() {
        for threads in [1usize, 4, 10] {
            let m = OverlapModel::paper(threads);
            let seq = m.sequential_seconds(N, N);
            let ovl = m.overlapped_seconds(N, N);
            assert!(
                ovl < seq,
                "{threads} threads: overlapped {ovl:.3}s !< sequential {seq:.3}s"
            );
        }
    }

    /// The saving is bounded by the shorter of the overlapped phases and
    /// grows as the build phase lengthens: a 1-thread build hides much
    /// more than a 10-thread one.
    #[test]
    fn saving_is_bounded_and_material() {
        let m10 = OverlapModel::paper(10);
        let s10 = m10.saving(N, N);
        assert!((0.01..0.20).contains(&s10), "10-thread saving {s10:.3}");
        let m1 = OverlapModel::paper(1);
        let s1 = m1.saving(N, N);
        assert!((0.05..0.45).contains(&s1), "1-thread saving {s1:.3}");
        assert!(s1 > s10, "longer build ⇒ more to hide");
    }

    /// Interference is not free: the overlapped window is longer than
    /// either phase would take alone.
    #[test]
    fn interference_slows_both_sides() {
        let m = OverlapModel::paper(10);
        let fpga_alone = OverlapModel::fpga_seconds(&m.fpga_alone, N);
        let fpga_interf = OverlapModel::fpga_seconds(&m.fpga_interfered, N);
        assert!(fpga_interf > fpga_alone * 1.2);
        let build_alone = m.build_seconds(N, false);
        let build_interf = m.build_seconds(N, true);
        assert!(build_interf > build_alone);
        assert!(
            build_interf < build_alone * 1.5,
            "only the memory share slows"
        );
    }

    /// With one thread the build phase dominates the window; with ten the
    /// FPGA does — the schedule adapts either way and stays correct.
    #[test]
    fn window_owner_flips_with_threads() {
        let m1 = OverlapModel::paper(1);
        assert!(m1.build_seconds(N, true) > OverlapModel::fpga_seconds(&m1.fpga_interfered, N));
        let m10 = OverlapModel::paper(10);
        assert!(m10.build_seconds(N, true) < OverlapModel::fpga_seconds(&m10.fpga_interfered, N));
    }
}
