//! # fpart-join
//!
//! The relational operator the paper accelerates: the partitioned
//! (radix) hash join, "a clear performance advantage over non-partitioned
//! and sort-based joins on modern multi-core architectures" (Section 3.3).
//!
//! * [`hashtable::BucketChainTable`] — the cache-resident bucket-chaining
//!   hash table of Manegold et al., built in place over each partition's
//!   slots and indexed by one multiply-shift of the key;
//! * [`buildprobe`] — the parallel build+probe phase over partition pairs;
//! * [`radix::radix_join`] — the one join driver: partition both inputs
//!   with any [`engine::PartitionEngine`], then build+probe. With a CPU
//!   partitioner it is the software baseline; with the FPGA partitioner
//!   (simulated, with exact cycle accounting) feeding the CPU
//!   build+probe it is the paper's hybrid join. [`radix::planned_join`]
//!   plans each input. Both take row stores or column stores, which go
//!   through VRID mode and late materialisation (Section 5.2);
//! * [`fallback::EscalationChain`] — the shared PAD → HIST → CPU
//!   graceful-degradation chain every input goes through, with a
//!   [`fallback::DegradationReport`] recording every abort, its cause and
//!   the simulated work it discarded;
//! * [`nopart::no_partition_join`] — the no-partitioning baseline;
//! * [`aggregate`] — the group-by extension sketched in the paper's
//!   Discussion ("the partitioning we have described can also be used for
//!   a hardware conscious group by aggregation");
//! * [`materialize`] — join output materialisation, including the VRID
//!   late-materialisation cost of Section 5.2;
//! * [`planner`] — adaptive HIST/PAD selection from a key sample, so the
//!   §5.4 abort-and-restart cost is paid by design only when sampling is
//!   wrong — and the [`planner::EnginePlanner`], which folds back-end
//!   choice (§4.6 cost model), output mode and degradation policy into
//!   one explained [`planner::Plan`];
//! * [`engine`] — the object-safe [`engine::PartitionEngine`] trait every
//!   back-end (CPU, FPGA, [`engine::HybridSplitEngine`]) implements.

#![warn(missing_docs)]

pub mod aggregate;
pub mod buildprobe;
pub mod engine;
pub mod fallback;
pub mod hashtable;
pub mod materialize;
pub mod nopart;
pub mod planner;
pub mod radix;

pub use buildprobe::{build_probe_all, BuildProbeReport};
pub use engine::{EngineChoice, HybridSplitEngine, PartitionEngine, PartitionStats};
pub use fallback::{AttemptRecord, DegradationReport, EscalationChain};
pub use planner::{EnginePlanner, ModePlan, Plan, PlanExplanation};
pub use radix::{planned_join, radix_join, JoinReport, JoinResult};
