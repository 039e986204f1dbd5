//! # fpart-memmodel
//!
//! A calibrated model of the Intel Xeon+FPGA (HARP v1) memory system the
//! paper measures in Section 2 — the piece of the evaluation that cannot be
//! reproduced without the donated hardware.
//!
//! Everything downstream (the analytical model of Section 4.6, the join
//! time predictions of Section 5) keys off three measured artifacts:
//!
//! 1. **Figure 2** — memory bandwidth available to the CPU and QPI
//!    bandwidth available to the FPGA as a function of the sequential-read
//!    to random-write ratio, alone and under interference
//!    ([`bandwidth::BandwidthCurve`]).
//! 2. **Table 1** — the cache-coherence side effect: CPU reads of memory
//!    last written by the FPGA are snooped on the FPGA socket and slowed
//!    down ([`coherence`]).
//! 3. The platform constants the Section 4.6 models read (the CPU and
//!    FPGA clocks and the cache-line width) in [`platform::PlatformSpec`].
//!
//! All calibration anchors are the paper's own published numbers; each
//! constant cites the section it comes from.

#![warn(missing_docs)]

pub mod bandwidth;
pub mod coherence;
pub mod platform;

pub use bandwidth::{BandwidthCurve, RwMix};
pub use coherence::{CoherencePenalty, CoherenceTracker, Socket};
pub use platform::PlatformSpec;
