//! # fpart-costmodel
//!
//! The analytical layer of the reproduction.
//!
//! * [`fpga::FpgaCostModel`] — a verbatim implementation of the paper's
//!   Section 4.6 model (Table 3 notation, equations 1–7), validated
//!   against the Section 4.8 numbers (294 / 435 / 495 M tuples/s and the
//!   1.6 G tuples/s raw ceiling). It prices the circuit's own mode pair,
//!   [`fpart_fpga::OutputMode`] × [`fpart_fpga::InputMode`]: `f_mode` is
//!   [`fpart_fpga::OutputMode::f_mode`] and `r` is
//!   [`fpga::read_write_ratio`];
//! * [`cpu::CpuCostModel`] — a calibrated model of CPU partitioning on
//!   the paper's 10-core Xeon E5-2680 v2 (Figure 4's thread scaling and
//!   the radix-vs-hash cost gap);
//! * [`join::JoinCostModel`] — build+probe cycle costs including the
//!   cache-fit effect of the partition count (Figure 10), the Section 2.2
//!   coherence penalty for hybrid joins, and skew-driven load imbalance
//!   (Figure 13);
//! * [`overlap::OverlapModel`] — the PAD/RID hybrid join with its S
//!   partitioning overlapped with R's build, on the interfered curves;
//! * [`future::FutureSweep`] — the conclusion's bandwidth and clock
//!   what-ifs.
//!
//! The local machine cannot reproduce the paper's wall-clock numbers (one
//! core, no FPGA); these models — anchored point-by-point on published
//! measurements — regenerate every figure's *shape* while the executable
//! crates verify functional behaviour. EXPERIMENTS.md records both.

#![warn(missing_docs)]

pub mod cpu;
pub mod fpga;
pub mod future;
pub mod join;
pub mod overlap;

pub use cpu::CpuCostModel;
pub use fpga::{read_write_ratio, FpgaCostModel};
pub use future::FutureSweep;
pub use join::JoinCostModel;
pub use overlap::OverlapModel;
