//! # fpart-types
//!
//! Foundation types shared by every crate in the `fpart` workspace, which
//! reproduces *"FPGA-based Data Partitioning"* (Kara, Giceva, Alonso,
//! SIGMOD 2017).
//!
//! The paper partitions relations of fixed-width `<key, payload>` tuples in
//! 64-byte cache-line granularity. This crate provides:
//!
//! * [`Tuple`] — the trait implemented by the four tuple widths the paper's
//!   circuit supports (8, 16, 32 and 64 bytes), plus the concrete types
//!   [`Tuple8`], [`Tuple16`], [`Tuple32`] and [`Tuple64`];
//! * [`Key`] — the key-word abstraction (`u32` for 8 B tuples, `u64`
//!   otherwise) including the *dummy key* sentinel the FPGA flush phase pads
//!   partially-filled cache lines with;
//! * [`Line`] — a 64-byte cache line of tuples, the unit in which the
//!   simulated circuit consumes and produces data;
//! * [`Relation`] / [`ColumnRelation`] / [`RleColumn`] — row-store,
//!   column-store and run-length-encoded inputs (the paper's RID and
//!   VRID operating modes), and [`Input`], any of them as a partitioner
//!   takes it, with the one walker that yields its tuple lines;
//! * [`PartitionedRelation`] — the output layout of a partitioning run,
//!   covering both the exact (HIST) and padded (PAD) memory layouts;
//! * [`AlignedBuf`] — a 64-byte-aligned heap buffer used for all bulk tuple
//!   storage so that cache-line slicing never straddles an allocation.

#![warn(missing_docs)]

pub mod aligned;
pub mod codec;
pub mod error;
pub mod input;
pub mod line;
pub mod partitioned;
pub mod relation;
pub mod rng;
pub mod tuple;

pub use aligned::AlignedBuf;
pub use codec::RleColumn;
pub use error::{FpartError, Result};
pub use input::Input;
pub use line::{Line, CACHE_LINE_BYTES};
pub use partitioned::{PartitionLayout, PartitionedRelation, SharedWriter};
pub use relation::{ColumnRelation, Relation};
pub use rng::SplitMix64;
pub use tuple::{Key, Tuple, Tuple16, Tuple32, Tuple64, Tuple8};
