//! Section 4.6: the analytical model of the FPGA partitioner circuit.
//!
//! Table 3 notation:
//!
//! | Parameter      | Description                         | Value      |
//! |----------------|-------------------------------------|------------|
//! | `f_FPGA`       | clock frequency                     | 200 MHz    |
//! | `T_FPGA`       | clock period                        | 5 ns       |
//! | `CL`           | cache-line width                    | 64 B       |
//! | `W`            | tuple width                         | 8–64 B     |
//! | `r`            | seq-read / rand-write ratio         | 2, 1, 0.5  |
//! | `f_mode`       | mode factor                         | 2 (HIST), 1 (PAD) |
//! | `B(r)`         | QPI bandwidth at mix `r`            | Figure 2   |
//! | `c_hashing`    | hash pipeline depth                 | 5          |
//! | `c_writecomb`  | write-combiner flush                | 65 540     |
//! | `c_fifos`      | FIFO traversal                      | 4          |
//!
//! The model: `P_total = min(P_FPGA, P_mem)` with
//! `P_FPGA = 1 / (f_mode (1/B_FPGA + L_FPGA/N))` (eq. 5) and
//! `P_mem = B(r) / (W (r + 1))` (eq. 6).

use fpart_fpga::{InputMode, OutputMode};
use fpart_memmodel::{BandwidthCurve, PlatformSpec, RwMix};

/// The read-per-write ratio `r` of a mode pair (Section 4.8): HIST reads
/// the input `f_mode` = 2 times, and VRID reads only the key column, half
/// a tuple per tuple written. HIST/RID 2, HIST/VRID and PAD/RID 1,
/// PAD/VRID 0.5.
pub fn read_write_ratio(output: OutputMode, input: InputMode) -> f64 {
    output.f_mode()
        * match input {
            InputMode::Rid => 1.0,
            InputMode::Vrid => 0.5,
        }
}

/// The Section 4.6 cost model.
#[derive(Debug, Clone)]
pub struct FpgaCostModel {
    /// Platform constants (clock, cache line).
    pub platform: PlatformSpec,
    /// The link bandwidth curve `B(r)`.
    pub curve: BandwidthCurve,
    /// Partition count (sets the flush term of `c_writecomb`).
    pub partitions: usize,
}

impl FpgaCostModel {
    /// The paper's configuration: HARP platform, FPGA-alone QPI curve,
    /// 8192 partitions.
    pub fn paper() -> Self {
        Self {
            platform: PlatformSpec::harp_v1(),
            curve: BandwidthCurve::fpga_alone(),
            partitions: 8192,
        }
    }

    /// The raw-wrapper configuration of Section 4.7 (25.6 GB/s).
    pub fn raw_wrapper() -> Self {
        Self {
            curve: fpart_memmodel::bandwidth::raw_wrapper_curve(),
            ..Self::paper()
        }
    }

    /// `B_FPGA = (CL / W) · f_FPGA` (eq. 3): the circuit's internal rate
    /// in tuples/s.
    pub fn b_fpga(&self, tuple_width: usize) -> f64 {
        (self.platform.cache_line as f64 / tuple_width as f64) * self.platform.fpga_hz
    }

    /// `c_writecomb` for this configuration: the flush scans every BRAM
    /// address (`partitions × lanes`, 65 536 at the paper's 8192×8) plus
    /// a small constant.
    pub fn c_writecomb(&self, tuple_width: usize) -> u64 {
        let lanes = (self.platform.cache_line / tuple_width) as u64;
        self.partitions as u64 * lanes + 4
    }

    /// `L_FPGA = (c_hashing + c_writecomb + c_fifos) · T_FPGA` (eq. 4).
    pub fn latency_seconds(&self, tuple_width: usize) -> f64 {
        let cycles =
            fpart_hash::MURMUR32_PIPELINE_STAGES as u64 + self.c_writecomb(tuple_width) + 4;
        cycles as f64 * self.platform.fpga_period()
    }

    /// `P_FPGA` (eq. 5): the circuit-side rate for `n` tuples.
    /// Only the output mode enters it, through `f_mode`.
    pub fn p_fpga(&self, n: u64, tuple_width: usize, output: OutputMode) -> f64 {
        let b = self.b_fpga(tuple_width);
        let l = self.latency_seconds(tuple_width);
        1.0 / (output.f_mode() * (1.0 / b + l / n as f64))
    }

    /// `P_mem = B(r) / (W (r + 1))` (eq. 6): the link-side rate.
    pub fn p_mem(&self, tuple_width: usize, output: OutputMode, input: InputMode) -> f64 {
        let r = read_write_ratio(output, input);
        self.curve.bytes_per_sec(RwMix::from_r(r)) / (tuple_width as f64 * (r + 1.0))
    }

    /// `P_total = min(P_FPGA, P_mem)` (eq. 7), in tuples/s.
    pub fn p_total(&self, n: u64, tuple_width: usize, output: OutputMode, input: InputMode) -> f64 {
        self.p_fpga(n, tuple_width, output)
            .min(self.p_mem(tuple_width, output, input))
    }

    /// Predicted partitioning time in seconds for `n` tuples (0 for an
    /// empty input, where the throughput terms would divide 0 by 0).
    pub fn partition_seconds(
        &self,
        n: u64,
        tuple_width: usize,
        output: OutputMode,
        input: InputMode,
    ) -> f64 {
        if n == 0 {
            return 0.0;
        }
        n as f64 / self.p_total(n, tuple_width, output, input)
    }

    /// Total data processed per second in GB/s (the second Figure 8 axis):
    /// `(r + 1) · W · P_total`.
    pub fn data_gbps(
        &self,
        n: u64,
        tuple_width: usize,
        output: OutputMode,
        input: InputMode,
    ) -> f64 {
        (read_write_ratio(output, input) + 1.0)
            * tuple_width as f64
            * self.p_total(n, tuple_width, output, input)
            / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use InputMode::{Rid, Vrid};

    const N: u64 = 128_000_000;

    fn pad() -> OutputMode {
        OutputMode::pad_default()
    }

    /// The four mode pairs, in Figure 9 order.
    fn pairs() -> [(OutputMode, InputMode); 4] {
        [
            (OutputMode::Hist, Rid),
            (OutputMode::Hist, Vrid),
            (pad(), Rid),
            (pad(), Vrid),
        ]
    }

    #[test]
    fn empty_input_costs_nothing() {
        let m = FpgaCostModel::paper();
        for (output, input) in pairs() {
            assert_eq!(
                m.partition_seconds(0, 8, output, input),
                0.0,
                "{output:?} {input:?}"
            );
        }
    }

    /// Section 4.8's three derivations, to the megatuple.
    #[test]
    fn section_4_8_validation() {
        let m = FpgaCostModel::paper();
        let hist_rid = m.p_total(N, 8, OutputMode::Hist, Rid) / 1e6;
        assert!((hist_rid - 294.0).abs() < 2.0, "HIST/RID {hist_rid:.0}");
        let pad_rid = m.p_total(N, 8, pad(), Rid) / 1e6;
        assert!((pad_rid - 435.0).abs() < 2.0, "PAD/RID {pad_rid:.0}");
        let hist_vrid = m.p_total(N, 8, OutputMode::Hist, Vrid) / 1e6;
        assert!((hist_vrid - 435.0).abs() < 2.0, "HIST/VRID {hist_vrid:.0}");
        let pad_vrid = m.p_total(N, 8, pad(), Vrid) / 1e6;
        assert!((pad_vrid - 495.0).abs() < 2.0, "PAD/VRID {pad_vrid:.0}");
    }

    /// "the first term would define the throughput, which will become
    /// 1.6 Billion tuples/s" (Section 4.8) — the raw wrapper numbers of
    /// Figure 9 (1597 PAD, 799 HIST).
    #[test]
    fn raw_wrapper_ceiling() {
        let m = FpgaCostModel::raw_wrapper();
        let raw_pad = m.p_total(N, 8, pad(), Rid) / 1e6;
        assert!((raw_pad - 1597.0).abs() < 10.0, "raw PAD {raw_pad:.0}");
        let raw_hist = m.p_total(N, 8, OutputMode::Hist, Rid) / 1e6;
        assert!((raw_hist - 799.0).abs() < 5.0, "raw HIST {raw_hist:.0}");
    }

    #[test]
    fn b_fpga_is_1_6_gtuples_for_8b() {
        let m = FpgaCostModel::paper();
        assert_eq!(m.b_fpga(8), 1.6e9);
        assert_eq!(m.b_fpga(64), 0.2e9);
    }

    #[test]
    fn table3_cycle_constants() {
        let m = FpgaCostModel::paper();
        assert_eq!(m.c_writecomb(8), 65_540);
        // L_FPGA ≈ 65549 × 5 ns ≈ 0.33 ms.
        let l = m.latency_seconds(8);
        assert!((l - 65_549.0 * 5e-9).abs() < 1e-12);
    }

    /// "For a sufficiently high N … the latency is hidden."
    #[test]
    fn latency_hidden_at_large_n() {
        let m = FpgaCostModel::raw_wrapper();
        let big = m.p_total(N, 8, pad(), Rid);
        let small = m.p_total(100_000, 8, pad(), Rid);
        assert!(small < big * 0.6, "latency dominates small N: {small:.3e}");
        assert!(big > 0.99 * 1.6e9);
    }

    /// Figure 8's model line: tuples/s halves as width doubles while GB/s
    /// stays flat (the partitioner is bandwidth bound).
    #[test]
    fn width_scaling_matches_figure8() {
        let m = FpgaCostModel::paper();
        let widths = [8usize, 16, 32, 64];
        let rates: Vec<f64> = widths
            .iter()
            .map(|&w| m.p_total(N, w, OutputMode::Hist, Rid))
            .collect();
        for (i, w) in widths.windows(2).enumerate() {
            let ratio = rates[i] / rates[i + 1];
            assert!(
                (ratio - (w[1] / w[0]) as f64).abs() < 0.1,
                "tuples/s should scale inversely with width"
            );
        }
        let gbps: Vec<f64> = widths
            .iter()
            .map(|&w| m.data_gbps(N, w, OutputMode::Hist, Rid))
            .collect();
        for g in &gbps {
            assert!(
                (g - gbps[0]).abs() < 0.2,
                "GB/s flat across widths: {gbps:?}"
            );
        }
    }

    #[test]
    fn mode_constants() {
        let r: Vec<f64> = pairs()
            .into_iter()
            .map(|(output, input)| read_write_ratio(output, input))
            .collect();
        assert_eq!(r, [2.0, 1.0, 1.0, 0.5]);
        assert_eq!(OutputMode::Hist.f_mode(), 2.0);
        assert_eq!(pad().f_mode(), 1.0);
    }
}
