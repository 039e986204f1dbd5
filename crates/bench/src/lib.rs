//! # fpart-bench
//!
//! The evaluation harness. The `figures` binary regenerates every table
//! and figure of the paper (see DESIGN.md §4 for the index).
//!
//! Each figure prints three kinds of columns where applicable:
//!
//! * **paper** — the number published in the paper (hard-coded citation);
//! * **model** — the calibrated analytical prediction for the paper's
//!   machine (`fpart-costmodel`);
//! * **ours** — what this reproduction produces: cycle-accurate
//!   simulation for the FPGA, wall-clock measurement for CPU code
//!   (marked, since the host is not a 10-core Xeon).

#![warn(missing_docs)]

pub mod figures;
pub mod par;
pub mod record;
pub mod scale;
pub mod table;

pub use scale::Scale;
