//! # fpart-net
//!
//! The paper's second future use case, built out: "to have the FPGA
//! partitioner directly connected to the network to distribute the data
//! across machines using RDMA for highly scaled distributed joins,
//! presented by Barthels et al." (Section 6).
//!
//! A distributed radix join runs in three phases:
//!
//! 1. **node-level partitioning** — every node splits its local share of
//!    R and S by the *top* hash bits into one fragment per destination
//!    node (here: the simulated FPGA partitioner or the CPU baseline);
//! 2. **all-to-all exchange** — fragments travel to their owners over
//!    the network ([`network::NetworkModel`], calibrated on FDR
//!    InfiniBand like Barthels' rack);
//! 3. **local join** — each node runs the single-machine partitioned
//!    hash join of `fpart-join` on the *lower* hash bits of what it
//!    received.
//!
//! Everything executes functionally in one process (fragments really
//! move between per-node buffers and the joins really run); phase times
//! combine simulated FPGA seconds, the network model, and measured CPU
//! build+probe — the same three time domains as the single-node harness.

#![warn(missing_docs)]

pub mod dist_join;
pub mod exchange;
pub mod network;

pub use dist_join::{DistJoinReport, DistributedJoin};
pub use exchange::{exchange, ExchangePlan};
pub use network::NetworkModel;
