//! # fpart — FPGA-based Data Partitioning, reproduced in Rust
//!
//! A full reproduction of Kara, Giceva & Alonso, *"FPGA-based Data
//! Partitioning"*, SIGMOD 2017: the fully pipelined FPGA partitioner
//! circuit (as a cycle-level simulation), the state-of-the-art CPU
//! partitioning baseline, the hybrid CPU+FPGA radix hash join, the
//! paper's analytical cost models, and a benchmark harness that
//! regenerates every table and figure of the evaluation.
//!
//! ## Quick start
//!
//! ```
//! use fpart::prelude::*;
//!
//! // A relation of 100k <4B key, 4B payload> tuples, uniform random keys.
//! let keys = KeyDistribution::Random.generate_keys::<u32>(100_000, 42);
//! let rel = Relation::<Tuple8>::from_keys(&keys);
//!
//! // Partition it 256 ways with murmur hashing on the simulated FPGA…
//! let fpga = FpgaPartitioner::with_modes(
//!     PartitionFn::Murmur { bits: 8 },
//!     OutputMode::pad_default(),
//!     InputMode::Rid,
//! );
//! let (parts, report) = fpga.partition(&rel).unwrap();
//! assert_eq!(parts.total_valid(), 100_000);
//! println!("simulated FPGA: {:.0} Mtuples/s", report.mtuples_per_sec());
//!
//! // …and on the CPU with the SWWCB baseline.
//! let cpu = CpuPartitioner::new(PartitionFn::Murmur { bits: 8 }, 2);
//! let (parts2, _) = cpu.partition(&rel);
//! assert_eq!(parts.histogram(), parts2.histogram());
//!
//! // Or let the planner pick: output mode from a key sample, back-end
//! // from the §4.6 cost model, degradation chain as policy.
//! let plan = EnginePlanner::new(2).plan(&rel, PartitionFn::Murmur { bits: 8 });
//! let (parts3, report) = plan.run(&rel).unwrap();
//! assert_eq!(parts3.total_valid(), 100_000);
//! assert!(!report.degraded());
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | tuples, cache lines, row and column relations and the [`Input`](fpart_types::Input) over both, partitioned outputs |
//! | [`hash`] | murmur3 finalizers, radix extraction, [`PartitionFn`](fpart_hash::PartitionFn) |
//! | [`datagen`] | the paper's key distributions and Table 4 workloads |
//! | [`memmodel`] | Figure 2 bandwidth curves, Table 1 coherence model |
//! | [`hwsim`] | FIFOs, BRAMs, QPI endpoint, page table |
//! | [`obs`] | pipeline observability: counters, histograms, traces, conservation laws |
//! | [`fpga`] | the partitioner circuit (Section 4) |
//! | [`cpu`] | the CPU baseline: single-pass SWWCB partitioning with non-temporal stores (Section 3) |
//! | [`join`] | one radix hash join driver over any back-end (CPU, or FPGA for the hybrid join), aggregation (Section 5) — and the [`PartitionEngine`] back-end trait, [`EnginePlanner`] and [`HybridSplitEngine`] |
//! | [`costmodel`] | Section 4.6 model + calibrated CPU/join models |
//! | [`net`] | rack-scale distributed join (the paper's future use case 2) |
//!
//! ## Back-ends as engines
//!
//! Every partitioning back-end — [`cpu::CpuPartitioner`],
//! [`fpga::FpgaPartitioner`] and the CPU⊕FPGA [`HybridSplitEngine`] —
//! implements the object-safe [`PartitionEngine`] trait. The
//! [`EnginePlanner`] prices them with the calibrated §4.6 cost models,
//! samples the output mode, and returns a [`join::planner::Plan`] whose
//! [`EscalationChain`] degrades PAD → HIST → CPU on aborts. The former
//! closed `Partitioner` enum front-end is gone; construct engines
//! directly or go through the planner. Joins take an engine too:
//! [`join::radix_join`] over a CPU partitioner is the CPU radix join,
//! and over the FPGA partitioner it is the paper's hybrid join. Every
//! entry point takes a row store or a column store
//! ([`Input`](fpart_types::Input)); column stores run in VRID mode.

#![warn(missing_docs)]

pub use fpart_costmodel as costmodel;
pub use fpart_cpu as cpu;
pub use fpart_datagen as datagen;
pub use fpart_fpga as fpga;
pub use fpart_hash as hash;
pub use fpart_hwsim as hwsim;
pub use fpart_io as io;
pub use fpart_join as join;
pub use fpart_memmodel as memmodel;
pub use fpart_net as net;
pub use fpart_obs as obs;
pub use fpart_types as types;

pub use fpart_join::{
    EngineChoice, EnginePlanner, EscalationChain, HybridSplitEngine, ModePlan, PartitionEngine,
    PartitionStats, PlanExplanation,
};

/// One-stop imports for applications.
pub mod prelude {
    pub use fpart_cpu::CpuPartitioner;
    pub use fpart_datagen::{KeyDistribution, Workload, WorkloadId};
    pub use fpart_fpga::{
        FpgaPartitioner, InputMode, ObsLevel, OutputMode, PaddingSpec, PartitionerConfig,
        SimFidelity,
    };
    pub use fpart_hash::PartitionFn;
    pub use fpart_hwsim::{Fault, FaultPlan, FaultSpec};
    pub use fpart_join::{
        planned_join, radix_join, DegradationReport, EngineChoice, EnginePlanner, EscalationChain,
        HybridSplitEngine, JoinReport, JoinResult, PartitionEngine, PartitionStats, Plan,
        PlanExplanation,
    };
    pub use fpart_obs::{ObsSnapshot, Recorder};
    pub use fpart_types::{
        ColumnRelation, FpartError, Input, PartitionedRelation, Relation, RleColumn, Tuple,
        Tuple16, Tuple32, Tuple64, Tuple8,
    };
}
