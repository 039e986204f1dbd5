//! # fpart-fpga
//!
//! A cycle-level software model of the paper's FPGA partitioner circuit
//! (Section 4) — the primary contribution of *"FPGA-based Data
//! Partitioning"* (SIGMOD 2017).
//!
//! The circuit is reproduced module-for-module:
//!
//! * [`hashmod::HashPipeline`] — the per-lane hash function module
//!   (Code 3): a 5-stage pipelined murmur3 finalizer or radix extraction,
//!   one result per clock regardless of hash complexity;
//! * [`writecomb::WriteCombiner`] — the write combiner module (Code 4,
//!   Figure 6): `LANES` data BRAMs plus a fill-rate BRAM with 2-cycle
//!   latency, hazard handling via two forwarding registers, stall-free for
//!   any input pattern, flush with dummy-key padding;
//! * [`writeback::WriteBack`] — round-robin drain of the combiner FIFOs,
//!   base-address and line-count BRAMs (prefix sum in HIST mode, fixed
//!   extents in PAD mode), PAD overflow detection;
//! * [`partitioner::FpgaPartitioner`] — the top level (Figure 5): QPI
//!   reads throttled by first-stage FIFO occupancy, the page table, the
//!   two-pass HIST flow and the VRID key-expansion path, reading row
//!   stores, column stores and run-length-encoded columns alike through
//!   [`fpart_types::Input::for_each_line`];
//! * [`resources`] — the Table 2 resource-usage model;
//! * [`selector`] — a streaming selection accelerator on the same
//!   datapath (the Discussion's scan-offload direction);
//! * [`aggcache`] — FPGA group-by aggregation with synchronizing caches
//!   (the Discussion's Absalyamov-style extension).
//!
//! The simulation produces *both* the real partitioned bytes (verified
//! against reference partitioning in tests) and an exact cycle count,
//! which [`partitioner::RunReport`] converts to time and throughput at the
//! configured clock.

#![warn(missing_docs)]

pub mod aggcache;
pub mod config;
pub(crate) mod fastpath;
pub mod hashmod;
pub mod partitioner;
pub mod resources;
pub mod selector;
pub mod writeback;
pub mod writecomb;

pub use aggcache::{fpga_group_by, fpga_group_by_harp, AggEntry, AggregatingCache};
pub use config::{
    mode_label, InputMode, ObsLevel, OutputMode, PaddingSpec, PartitionerConfig, SimFidelity,
    MAX_BRAM_BITS,
};
pub use partitioner::{FpgaPartitioner, RunReport};
pub use resources::ResourceUsage;
pub use selector::{FpgaSelector, Predicate, SelectReport};
