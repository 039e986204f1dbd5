//! Platform constants of the machine the paper evaluates on.

/// The clocks and line width of a hybrid CPU+FPGA platform: the values
/// the Section 4.6 models read.
#[derive(Debug, Clone)]
pub struct PlatformSpec {
    /// CPU clock in Hz (Xeon E5-2680 v2: 2.8 GHz).
    pub cpu_hz: f64,
    /// FPGA fabric clock in Hz (paper: 200 MHz, Section 4.1).
    pub fpga_hz: f64,
    /// Cache-line width in bytes (64).
    pub cache_line: usize,
}

impl PlatformSpec {
    /// The Intel Xeon+FPGA v1 (HARP) machine of Section 2.1.
    pub fn harp_v1() -> Self {
        Self {
            cpu_hz: 2.8e9,
            fpga_hz: 200e6,
            cache_line: 64,
        }
    }

    /// FPGA clock period in seconds (`T_FPGA` in Table 3).
    pub fn fpga_period(&self) -> f64 {
        1.0 / self.fpga_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harp_constants() {
        let p = PlatformSpec::harp_v1();
        assert_eq!(p.cpu_hz, 2.8e9);
        assert_eq!(p.fpga_hz, 200e6);
        assert_eq!(p.fpga_period(), 5e-9);
        assert_eq!(p.cache_line, 64);
    }

    /// One line per FPGA clock: the circuit's 12.8 GB/s (Section 4.1).
    #[test]
    fn fpga_peak_is_12_8_gbps() {
        let p = PlatformSpec::harp_v1();
        assert_eq!(p.fpga_hz * p.cache_line as f64, 12.8e9);
    }
}
