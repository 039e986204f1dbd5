//! # fpart-perfbench
//!
//! The repository's end-to-end and per-layer host-time benchmark. Two
//! single-thread workloads (`partition-file`, `skew-join`) call the
//! library's public functions; every op is checked against a
//! reference computed during set-up, outside the timed region. See
//! `README.md` for the workloads, the metrics and how to run them.

pub mod alloc;
pub mod cli;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
pub mod workloads;
