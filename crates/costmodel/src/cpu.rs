//! A calibrated model of CPU partitioning on the paper's Xeon E5-2680 v2.
//!
//! Structure: a partitioning thread is either compute bound (hashing +
//! buffer management per tuple) or the socket is memory bound; throughput
//! is `min(threads · P_core, P_mem)` with
//! `P_mem = B_cpu(2) / (W · 3)` (histogram pass + scatter pass read the
//! data twice and write it once, like the FPGA's HIST/RID).
//!
//! Calibration anchors (all from the paper):
//! * Figure 9 / Figure 4: 10-thread partitioning saturates at ≈506 M
//!   tuples/s for every method — the memory bound;
//! * Figure 4 at 1 thread: radix ≈ 150 M tuples/s, murmur hash ≈ 100 M
//!   tuples/s ("up to 50 % increase in the CPU partitioning time when
//!   hash partitioning is used", Section 5.3);
//! * Figure 4's radix spread across key distributions (skewed partition
//!   sizes make the write-combining buffers less effective) — a small
//!   per-distribution derating, absent for hash partitioning which
//!   "delivers for every key distribution the same throughput".

use fpart_hash::PartitionFn;
use fpart_memmodel::{BandwidthCurve, RwMix};

/// Key distributions as the model cares about them (Figure 4 lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributionKind {
    /// Linear keys — the friendliest radix case.
    Linear,
    /// Uniform random keys.
    Random,
    /// Grid keys.
    Grid,
    /// Reverse-grid keys.
    ReverseGrid,
}

impl DistributionKind {
    /// Radix-partitioning throughput derating for this distribution
    /// (hash partitioning ignores it).
    fn radix_factor(self) -> f64 {
        match self {
            Self::Linear => 1.0,
            Self::Random => 0.96,
            Self::Grid => 0.90,
            Self::ReverseGrid => 0.85,
        }
    }
}

/// The calibrated CPU partitioning model.
#[derive(Debug, Clone)]
pub struct CpuCostModel {
    /// The CPU socket's bandwidth curve.
    pub curve: BandwidthCurve,
    /// Single-thread radix partitioning rate on linear keys (tuples/s).
    pub radix_core_rate: f64,
    /// Single-thread murmur-hash partitioning rate (tuples/s).
    pub hash_core_rate: f64,
}

impl CpuCostModel {
    /// The paper's Xeon, calibrated as documented in the module header.
    pub fn paper() -> Self {
        Self {
            curve: BandwidthCurve::cpu_alone(),
            radix_core_rate: 150e6,
            hash_core_rate: 100e6,
        }
    }

    /// Memory-bound partitioning rate in tuples/s for `tuple_width`
    /// (read ×2, write ×1 ⇒ r = 2).
    pub fn p_mem(&self, tuple_width: usize) -> f64 {
        self.curve.bytes_per_sec(RwMix::HIST_RID) / (tuple_width as f64 * 3.0)
    }

    /// Fan-out penalty on the *compute* side: beyond ~512 partitions the
    /// write-combining buffers (64 B each) spill out of L1 and TLB reach
    /// and the per-tuple cost grows — why Figure 10a's single-threaded
    /// CPU join "spends more time on partitioning" as partitions
    /// increase, while the 10-threaded run (memory bound) does not.
    pub fn fanout_penalty(&self, partitions: usize) -> f64 {
        let buffers_bytes = partitions as f64 * 64.0;
        let l1 = 32.0 * 1024.0;
        if buffers_bytes <= l1 {
            1.0
        } else {
            1.0 + 0.25 * (buffers_bytes / l1).log2()
        }
    }

    /// Partitioning throughput in tuples/s (Figure 4's y-axis), at the
    /// paper's default 8192-partition fan-out.
    pub fn throughput(
        &self,
        f: PartitionFn,
        dist: DistributionKind,
        threads: usize,
        tuple_width: usize,
    ) -> f64 {
        self.throughput_at(f, dist, threads, tuple_width, 8192)
    }

    /// Partitioning throughput with an explicit fan-out (Figure 10's
    /// x-axis).
    pub fn throughput_at(
        &self,
        f: PartitionFn,
        dist: DistributionKind,
        threads: usize,
        tuple_width: usize,
        partitions: usize,
    ) -> f64 {
        let core = if f.is_hash() {
            self.hash_core_rate
        } else {
            self.radix_core_rate * dist.radix_factor()
        };
        // The calibrated core rates are Figure 4 values, measured at 8192
        // partitions; rescale the fan-out penalty relative to that point.
        let core = core * self.fanout_penalty(8192) / self.fanout_penalty(partitions);
        (threads as f64 * core).min(self.p_mem(tuple_width))
    }

    /// Seconds to partition `n` tuples.
    pub fn partition_seconds(
        &self,
        n: u64,
        f: PartitionFn,
        dist: DistributionKind,
        threads: usize,
        tuple_width: usize,
    ) -> f64 {
        n as f64 / self.throughput(f, dist, threads, tuple_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn murmur() -> PartitionFn {
        PartitionFn::Murmur { bits: 13 }
    }
    fn radix() -> PartitionFn {
        PartitionFn::Radix { bits: 13 }
    }

    /// Figure 9 anchor: 10-thread partitioning ≈ 506 M tuples/s.
    #[test]
    fn ten_thread_saturation() {
        let m = CpuCostModel::paper();
        let t = m.throughput(murmur(), DistributionKind::Linear, 10, 8) / 1e6;
        assert!((t - 506.0).abs() < 3.0, "{t:.0} Mtuples/s");
        // Radix saturates at the same bound.
        let t = m.throughput(radix(), DistributionKind::Linear, 10, 8) / 1e6;
        assert!((t - 506.0).abs() < 3.0);
    }

    /// Section 5.3: hash costs up to ~50 % more time at low thread counts;
    /// the gap disappears once memory bound.
    #[test]
    fn hash_penalty_disappears_with_threads() {
        let m = CpuCostModel::paper();
        let r1 = m.throughput(radix(), DistributionKind::Linear, 1, 8);
        let h1 = m.throughput(murmur(), DistributionKind::Linear, 1, 8);
        assert!((r1 / h1 - 1.5).abs() < 0.01, "1-thread ratio {}", r1 / h1);
        let r10 = m.throughput(radix(), DistributionKind::Linear, 10, 8);
        let h10 = m.throughput(murmur(), DistributionKind::Linear, 10, 8);
        assert_eq!(r10, h10, "memory bound hides the hash cost");
    }

    /// Figure 4: radix varies by distribution, hash does not.
    #[test]
    fn distribution_sensitivity() {
        let m = CpuCostModel::paper();
        let lin = m.throughput(radix(), DistributionKind::Linear, 2, 8);
        let rev = m.throughput(radix(), DistributionKind::ReverseGrid, 2, 8);
        assert!(rev < lin);
        let h_lin = m.throughput(murmur(), DistributionKind::Linear, 2, 8);
        let h_rev = m.throughput(murmur(), DistributionKind::ReverseGrid, 2, 8);
        assert_eq!(h_lin, h_rev);
    }

    #[test]
    fn scaling_is_linear_until_the_memory_wall() {
        let m = CpuCostModel::paper();
        let t1 = m.throughput(murmur(), DistributionKind::Random, 1, 8);
        let t4 = m.throughput(murmur(), DistributionKind::Random, 4, 8);
        assert!((t4 / t1 - 4.0).abs() < 0.01);
        let t8 = m.throughput(murmur(), DistributionKind::Random, 8, 8);
        let t10 = m.throughput(murmur(), DistributionKind::Random, 10, 8);
        assert!(t10 / t8 < 10.0 / 8.0, "saturation flattens the curve");
    }

    #[test]
    fn wider_tuples_lower_the_memory_bound() {
        let m = CpuCostModel::paper();
        assert!(m.p_mem(16) < m.p_mem(8));
        assert!((m.p_mem(8) / m.p_mem(16) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn partition_seconds_inverse_of_throughput() {
        let m = CpuCostModel::paper();
        let s = m.partition_seconds(128_000_000, murmur(), DistributionKind::Linear, 10, 8);
        assert!((s - 128e6 / 506e6).abs() < 0.01, "{s:.3}s");
    }
}
