//! Figure 2: memory bandwidth versus sequential-read / random-write mix.
//!
//! The paper measures, for mixes from pure sequential read (1/0) to pure
//! random write (0/1):
//!
//! * the memory bandwidth available to the **CPU** socket,
//! * the QPI bandwidth available to the **FPGA** socket,
//! * both again while the other agent hammers memory ("interfered").
//!
//! We reconstruct the four curves as piecewise-linear tables. The FPGA
//! curve is anchored exactly on the Section 4.8 validation values —
//! `B(r=2) = 7.05`, `B(r=1) = 6.97`, `B(r=0.5) = 5.94` GB/s — because the
//! paper derives its headline throughputs (294/435/495 M tuples/s) from
//! them. The CPU curve is anchored on the 10-thread partitioning
//! throughput of Figure 9 (506 M tuples/s at r = 2 ⇒ 12.1 GB/s) and the
//! ≈30 GB/s pure-sequential-read ceiling visible in Figure 2.

/// A read/write traffic mix, expressed as the paper's `r` — the ratio of
/// sequentially-read to randomly-written bytes (Section 4.6, Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RwMix {
    /// Bytes read per byte written (`r` in the paper; `∞` = read-only).
    pub read_per_write: f64,
}

impl RwMix {
    /// The paper's three canonical operating points (Table 3).
    pub const HIST_RID: Self = Self {
        read_per_write: 2.0,
    };
    /// Read ratio equal to write ratio (HIST/VRID and PAD/RID).
    pub const BALANCED: Self = Self {
        read_per_write: 1.0,
    };
    /// Read ratio half the write ratio (PAD/VRID).
    pub const PAD_VRID: Self = Self {
        read_per_write: 0.5,
    };

    /// Construct from an `r` value.
    ///
    /// # Panics
    /// Panics unless `r` is non-negative (may be infinite for read-only).
    pub fn from_r(r: f64) -> Self {
        assert!(r >= 0.0 && !r.is_nan(), "r must be >= 0");
        Self { read_per_write: r }
    }

    /// Fraction of total traffic that is (sequential) reads — the Figure 2
    /// x-axis. `r = 2` → 2/3, `r = 1` → 1/2, `r = 0.5` → 1/3.
    pub fn read_fraction(self) -> f64 {
        if self.read_per_write.is_infinite() {
            1.0
        } else {
            self.read_per_write / (self.read_per_write + 1.0)
        }
    }
}

/// A piecewise-linear bandwidth curve over the read-fraction axis.
///
/// # Examples
///
/// ```
/// use fpart_memmodel::{BandwidthCurve, RwMix};
///
/// // The paper's §4.8 anchor: B(r = 2) = 7.05 GB/s on the QPI link.
/// let qpi = BandwidthCurve::fpga_alone();
/// assert!((qpi.gbps(RwMix::HIST_RID) - 7.05).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthCurve {
    /// `(read_fraction, GB/s)` knots, sorted by read fraction.
    knots: Vec<(f64, f64)>,
    label: &'static str,
}

impl BandwidthCurve {
    /// Build a curve from `(read_fraction, GB/s)` knots.
    ///
    /// # Panics
    /// Panics if fewer than two knots are given or they are not strictly
    /// increasing in read fraction.
    pub fn new(label: &'static str, knots: Vec<(f64, f64)>) -> Self {
        assert!(knots.len() >= 2, "need at least two knots");
        assert!(
            knots.windows(2).all(|w| w[0].0 < w[1].0),
            "knots must be strictly increasing in read fraction"
        );
        Self { knots, label }
    }

    /// Curve label for figure output.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Bandwidth in GB/s at the given mix (linear interpolation, clamped
    /// at the curve ends).
    pub fn gbps(&self, mix: RwMix) -> f64 {
        let x = mix.read_fraction();
        let first = self.knots[0];
        let last = *self.knots.last().expect("non-empty by construction");
        if x <= first.0 {
            return first.1;
        }
        if x >= last.0 {
            return last.1;
        }
        for w in self.knots.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if x <= x1 {
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
            }
        }
        unreachable!("x within knot range handled above")
    }

    /// Bandwidth in bytes/second.
    pub fn bytes_per_sec(&self, mix: RwMix) -> f64 {
        self.gbps(mix) * 1e9
    }

    /// The QPI bandwidth available to the FPGA, measured alone.
    ///
    /// Anchors: Section 4.8 — 7.05 GB/s at r = 2 (read fraction 2/3),
    /// 6.97 GB/s at r = 1, 5.94 GB/s at r = 0.5; Section 2.1 quotes
    /// "around 6.5 GB/s ... with an equal amount of reads and writes"
    /// which the r = 1 anchor brackets. End points extrapolated from the
    /// flat shape of the FPGA curve in Figure 2.
    pub fn fpga_alone() -> Self {
        Self::new(
            "FPGA (alone)",
            vec![
                (0.0, 4.8),
                (1.0 / 3.0, 5.94),
                (0.5, 6.97),
                (2.0 / 3.0, 7.05),
                (1.0, 7.1),
            ],
        )
    }

    /// Memory bandwidth available to the CPU socket, measured alone.
    ///
    /// Anchors: ≈30 GB/s pure sequential read (Figure 2 ceiling);
    /// 12.14 GB/s at r = 2 (the memory bound implied by the 506 M tuples/s
    /// 10-thread partitioning throughput of Figure 9: 506e6 × 8 B × 3);
    /// the low end tapers toward ~7 GB/s for write-dominated random
    /// traffic, consistent with the Figure 2 trend.
    pub fn cpu_alone() -> Self {
        Self::new(
            "CPU (alone)",
            vec![
                (0.0, 7.0),
                (0.2, 8.2),
                (1.0 / 3.0, 9.5),
                (0.5, 10.8),
                (2.0 / 3.0, 12.14),
                (0.8, 17.0),
                (0.9, 23.0),
                (1.0, 30.0),
            ],
        )
    }

    /// FPGA QPI bandwidth while the CPU is also saturating memory.
    ///
    /// Figure 2 shows "a significant decrease in bandwidth for both";
    /// modelled as a uniform 0.62× derating of the alone curve.
    pub fn fpga_interfered() -> Self {
        Self::scaled(Self::fpga_alone(), "FPGA (interfered)", 0.62)
    }

    /// CPU memory bandwidth while the FPGA is also saturating QPI.
    /// Modelled as a uniform 0.72× derating of the alone curve.
    pub fn cpu_interfered() -> Self {
        Self::scaled(Self::cpu_alone(), "CPU (interfered)", 0.72)
    }

    fn scaled(base: Self, label: &'static str, factor: f64) -> Self {
        Self::new(
            label,
            base.knots.iter().map(|&(x, y)| (x, y * factor)).collect(),
        )
    }
}

/// The raw-FPGA wrapper of Section 4.7: "a combined read and write
/// bandwidth of 25.6 GB/s", flat across all mixes.
pub fn raw_wrapper_curve() -> BandwidthCurve {
    BandwidthCurve::new("Raw wrapper (25.6 GB/s)", vec![(0.0, 25.6), (1.0, 25.6)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_fraction_matches_paper_ratios() {
        assert!((RwMix::HIST_RID.read_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((RwMix::BALANCED.read_fraction() - 0.5).abs() < 1e-12);
        assert!((RwMix::PAD_VRID.read_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(RwMix::from_r(f64::INFINITY).read_fraction(), 1.0);
    }

    #[test]
    fn fpga_curve_hits_section_4_8_anchors() {
        let curve = BandwidthCurve::fpga_alone();
        assert!((curve.gbps(RwMix::HIST_RID) - 7.05).abs() < 1e-9);
        assert!((curve.gbps(RwMix::BALANCED) - 6.97).abs() < 1e-9);
        assert!((curve.gbps(RwMix::PAD_VRID) - 5.94).abs() < 1e-9);
    }

    #[test]
    fn cpu_curve_hits_figure9_anchor() {
        let curve = BandwidthCurve::cpu_alone();
        // 506 M tuples/s × 8 B × (r + 1 = 3) = 12.14 GB/s at r = 2.
        let gbps = curve.gbps(RwMix::HIST_RID);
        let tuples_per_s = gbps * 1e9 / (8.0 * 3.0);
        assert!(
            (tuples_per_s / 1e6 - 506.0).abs() < 2.0,
            "implied {tuples_per_s:.0} tuples/s"
        );
    }

    #[test]
    fn interpolation_is_monotone_between_knots() {
        let curve = BandwidthCurve::cpu_alone();
        let mut prev = curve.gbps(RwMix::from_r(0.0));
        for i in 1..=100 {
            // Sweep read fraction 0..1 via r = f/(1-f).
            let f = i as f64 / 100.0;
            let r = if f >= 1.0 {
                f64::INFINITY
            } else {
                f / (1.0 - f)
            };
            let b = curve.gbps(RwMix::from_r(r));
            assert!(
                b >= prev - 1e-9,
                "curve must be non-decreasing in read fraction"
            );
            prev = b;
        }
    }

    #[test]
    fn clamping_outside_knots() {
        let curve = BandwidthCurve::new("test", vec![(0.2, 1.0), (0.8, 2.0)]);
        assert_eq!(curve.gbps(RwMix::from_r(0.0)), 1.0);
        assert_eq!(curve.gbps(RwMix::from_r(f64::INFINITY)), 2.0);
    }

    #[test]
    fn interference_reduces_bandwidth_everywhere() {
        for (alone, interfered) in [
            (
                BandwidthCurve::cpu_alone(),
                BandwidthCurve::cpu_interfered(),
            ),
            (
                BandwidthCurve::fpga_alone(),
                BandwidthCurve::fpga_interfered(),
            ),
        ] {
            for i in 0..=10 {
                let f = i as f64 / 10.0;
                let r = if f >= 1.0 {
                    f64::INFINITY
                } else {
                    f / (1.0 - f)
                };
                let mix = RwMix::from_r(r);
                assert!(interfered.gbps(mix) < alone.gbps(mix));
            }
        }
    }

    #[test]
    fn raw_wrapper_is_flat_25_6() {
        let curve = raw_wrapper_curve();
        assert_eq!(curve.gbps(RwMix::HIST_RID), 25.6);
        assert_eq!(curve.gbps(RwMix::PAD_VRID), 25.6);
    }

    #[test]
    fn qpi_midpoint_near_quoted_6_5() {
        // Section 2.1: "around 6.5 GB/s ... equal amount of reads and
        // writes". Our r = 1 anchor is 6.97 (the §4.8 value); accept the
        // bracket 6–7.1.
        let b = BandwidthCurve::fpga_alone().gbps(RwMix::BALANCED);
        assert!((6.0..=7.1).contains(&b));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_knots_rejected() {
        let _ = BandwidthCurve::new("bad", vec![(0.5, 1.0), (0.2, 2.0)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fpart_types::SplitMix64;

    /// Interpolation stays within the curve's knot range for any mix.
    #[test]
    fn interpolation_bounded() {
        let mut rng = SplitMix64::seed_from_u64(0x4d45_0001);
        for _ in 0..128 {
            let r = rng.next_f64() * 100.0;
            for curve in [
                BandwidthCurve::cpu_alone(),
                BandwidthCurve::fpga_alone(),
                BandwidthCurve::cpu_interfered(),
                BandwidthCurve::fpga_interfered(),
            ] {
                let b = curve.gbps(RwMix::from_r(r));
                assert!((2.9..=30.0).contains(&b), "{} at r={r}: {b}", curve.label());
            }
        }
    }

    /// Read fraction is monotone in r and bounded in [0, 1].
    #[test]
    fn read_fraction_monotone() {
        let mut rng = SplitMix64::seed_from_u64(0x4d45_0002);
        for _ in 0..128 {
            let a = rng.next_f64() * 50.0;
            let b = rng.next_f64() * 50.0;
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let f_lo = RwMix::from_r(lo).read_fraction();
            let f_hi = RwMix::from_r(hi).read_fraction();
            assert!((0.0..=1.0).contains(&f_lo));
            assert!(f_lo <= f_hi + 1e-12);
        }
    }
}
