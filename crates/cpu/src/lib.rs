//! # fpart-cpu
//!
//! The software side of the paper's comparison (Section 3): CPU-based data
//! partitioning as tuned by a decade of main-memory join work.
//!
//! The paper uses "the open-sourced implementation from Balkesen et al. as
//! the software baseline … a single-pass partitioning with software-managed
//! buffers and non-temporal writes enabled". This crate provides that one
//! algorithm — [`swwcb::Swwcb`], Code 2's cache-resident write-combining
//! buffers of one cache line per partition, flushed with non-temporal
//! stores (Wassenberg & Sanders) — plus Code 1's direct scatter
//! ([`swwcb::scatter_scalar`]) as the reference the buffered output is
//! tested against.
//!
//! [`parallel`] drives the scatter on many threads: per-thread histograms
//! and a global prefix sum give every thread private output regions,
//! which [`swwcb::OutputBuilder`] lays out and bounds, removing
//! synchronisation from the scatter ("the partitioning algorithm for the
//! CPU builds the histogram out of necessity, in order to remove
//! synchronization between multiple threads", Section 4.7).
//!
//! On top of the partitioner sit two applications from the surrounding
//! literature: [`range`] (the partitioning type Wu et al.'s ASIC
//! accelerates) and [`sort`] (LSD radix sort and sample sort — the
//! paper's baseline descends from radix-sort work).

#![warn(missing_docs)]

pub mod histogram;
pub mod nt_store;
pub mod parallel;
pub mod range;
pub mod sort;
pub mod swwcb;

pub use parallel::{CpuPartitioner, CpuRunReport};
pub use range::{range_partition, range_partition_parallel, RangeSplitters};
