//! The unified back-end interface: every partitioner — CPU threads, the
//! simulated FPGA circuit, and the hybrid CPU⊕FPGA split — behind one
//! object-safe [`PartitionEngine`] trait with four methods.
//!
//! The paper's hybrid join treats partitioning as a pluggable
//! sub-operator; Section 4.6's cost model tells a planner *which*
//! back-end wins at a given bandwidth. [`crate::planner::EnginePlanner`]
//! prices the back-ends with those models and builds the winner through
//! [`EngineChoice::engine`], the one place an engine is made from a
//! choice. Engines expose their degradation affordances through
//! [`PartitionEngine::choice`] and [`PartitionEngine::hist_fallback`] (so
//! [`crate::fallback::EscalationChain`] can drive any engine, not just
//! the FPGA), and report every run as one [`PartitionStats`]: the FPGA's
//! report, the CPU's, or both for a split.
//!
//! [`HybridSplitEngine`] implements the paper's CPU/FPGA concurrency
//! discussion literally: the relation is carved into two contiguous
//! shares sized by the *interfered* models of
//! [`fpart_costmodel::OverlapModel::paper`] (both agents share the memory
//! bus, so the FPGA sees the interfered curve and the CPU keeps ~72% of
//! its solo throughput), each share is partitioned by its back-end, and
//! the two partial outputs are written once more, by one
//! [`fpart_cpu::swwcb::OutputBuilder`], into one dense
//! [`PartitionedRelation`]. A one-sided split returns its one share's
//! output as it is.

use std::time::Duration;

use fpart_costmodel::cpu::DistributionKind;
use fpart_costmodel::{CpuCostModel, OverlapModel};
use fpart_cpu::swwcb::OutputBuilder;
use fpart_cpu::{CpuPartitioner, CpuRunReport};
use fpart_fpga::{FpgaPartitioner, OutputMode, RunReport};
use fpart_hash::PartitionFn;
use fpart_obs::{Ctr, ObsSnapshot};
use fpart_types::{Input, PartitionLayout, PartitionedRelation, Result, Tuple};

/// The reports of one partitioning run, each in its back-end's own time
/// domain. A CPU run fills `cpu`, an FPGA run `fpga`, and a hybrid split
/// the side of each share that ran.
#[derive(Debug, Clone)]
pub struct PartitionStats {
    /// The FPGA run (or share): simulated time at the circuit clock under
    /// the calibrated QPI model.
    pub fpga: Option<RunReport>,
    /// The CPU run (or share): measured wall-clock on this host.
    pub cpu: Option<CpuRunReport>,
}

impl PartitionStats {
    /// Tuples partitioned, across both sides.
    pub fn tuples(&self) -> u64 {
        self.fpga.as_ref().map_or(0, |r| r.tuples) + self.cpu.as_ref().map_or(0, |r| r.tuples)
    }

    /// Measured wall time, if this run (or part of it) ran on the host
    /// CPU.
    pub fn wall_time(&self) -> Option<Duration> {
        self.cpu.as_ref().map(CpuRunReport::total_time)
    }

    /// Simulated seconds at the circuit clock, if an FPGA run or share
    /// ran.
    pub fn simulated_seconds(&self) -> Option<f64> {
        self.fpga.as_ref().map(RunReport::seconds)
    }

    /// The run's observability snapshot: the FPGA side's snapshot plus
    /// the CPU side's software-write-combining counters. Only counters no
    /// FPGA conservation law references are absorbed from the CPU side —
    /// the datapath laws (tuples in/out, line accounting, cycle
    /// accounting) keep holding for the merged snapshot exactly as they
    /// did for the FPGA side alone.
    pub fn obs(&self) -> ObsSnapshot {
        let mut obs = self
            .fpga
            .as_ref()
            .map(|r| r.obs.clone())
            .unwrap_or_default();
        if let Some(c) = &self.cpu {
            let cc = c.obs_counters();
            for ctr in [
                Ctr::SwwcbFullFlushes,
                Ctr::SwwcbPartialFlushes,
                Ctr::SwwcbNtLines,
            ] {
                obs.counters.set(ctr, obs.counters.get(ctr) + cc.get(ctr));
            }
        }
        obs
    }
}

/// Which engine a plan selected or an attempt ran; the machine-readable
/// half of a [`crate::planner::PlanExplanation`] and, with the output
/// mode of the FPGA side, of a [`crate::fallback::AttemptRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Software partitioning on host threads.
    Cpu,
    /// The simulated FPGA circuit.
    Fpga,
    /// The bandwidth-proportional CPU⊕FPGA split.
    Hybrid,
}

impl EngineChoice {
    /// Human-readable label (also the JSON encoding).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Cpu => "cpu",
            Self::Fpga => "fpga",
            Self::Hybrid => "hybrid",
        }
    }

    /// The engine this choice names: `fpga` itself, a CPU partitioner
    /// over its partition function on `cpu_threads` threads, or the split
    /// over both.
    pub fn engine<T: Tuple>(
        self,
        fpga: FpgaPartitioner,
        cpu_threads: usize,
    ) -> Box<dyn PartitionEngine<T>> {
        match self {
            Self::Cpu => Box::new(CpuPartitioner::new(fpga.config().partition_fn, cpu_threads)),
            Self::Fpga => Box::new(fpga),
            Self::Hybrid => Box::new(HybridSplitEngine::new(fpga, cpu_threads)),
        }
    }
}

/// One partitioning back-end, object safe so planners and chains can
/// hold `Box<dyn PartitionEngine<T>>` without knowing the concrete
/// type.
///
/// Implementations: [`CpuPartitioner`] (infallible, measured time),
/// [`FpgaPartitioner`] (simulated time, PAD mode can overflow) and
/// [`HybridSplitEngine`].
pub trait PartitionEngine<T: Tuple>: std::fmt::Debug {
    /// The partition function this engine applies.
    fn partition_fn(&self) -> PartitionFn;

    /// Which engine this is, and the output mode of its FPGA side
    /// (`None` for the CPU): what an attempt records in a
    /// [`crate::fallback::DegradationReport`]. The degradation chain
    /// reads it instead of matching on concrete types.
    fn choice(&self) -> (EngineChoice, Option<OutputMode>);

    /// Partition a row store or a column store (see [`Input`]).
    ///
    /// # Errors
    /// PAD-mode engines abort with
    /// [`fpart_types::FpartError::PartitionOverflow`] under skew; the
    /// simulated platform can also abort on link or BRAM faults. Callers
    /// wanting graceful degradation go through
    /// [`crate::fallback::EscalationChain::run`]. An FPGA engine whose
    /// input mode does not match the input's layout returns
    /// [`fpart_types::FpartError::InvalidConfig`].
    fn partition(&self, input: Input<'_, T>) -> Result<(PartitionedRelation<T>, PartitionStats)>;

    /// The overflow-free variant of this engine, if it has one: PAD-mode
    /// FPGA engines return their HIST twin, everything else `None`. The
    /// escalation chain's HIST-retry step calls this instead of
    /// hard-coding FPGA knowledge.
    fn hist_fallback(&self) -> Option<Box<dyn PartitionEngine<T>>> {
        None
    }
}

impl<T: Tuple> PartitionEngine<T> for CpuPartitioner {
    fn partition_fn(&self) -> PartitionFn {
        self.partition_fn
    }

    fn choice(&self) -> (EngineChoice, Option<OutputMode>) {
        (EngineChoice::Cpu, None)
    }

    fn partition(&self, input: Input<'_, T>) -> Result<(PartitionedRelation<T>, PartitionStats)> {
        let (parts, report) = CpuPartitioner::partition(self, input);
        let stats = PartitionStats {
            fpga: None,
            cpu: Some(report),
        };
        Ok((parts, stats))
    }
}

impl<T: Tuple> PartitionEngine<T> for FpgaPartitioner {
    fn partition_fn(&self) -> PartitionFn {
        self.config().partition_fn
    }

    fn choice(&self) -> (EngineChoice, Option<OutputMode>) {
        (EngineChoice::Fpga, Some(self.config().output))
    }

    fn partition(&self, input: Input<'_, T>) -> Result<(PartitionedRelation<T>, PartitionStats)> {
        let (parts, report) = FpgaPartitioner::partition(self, input)?;
        let stats = PartitionStats {
            fpga: Some(report),
            cpu: None,
        };
        Ok((parts, stats))
    }

    fn hist_fallback(&self) -> Option<Box<dyn PartitionEngine<T>>> {
        match self.config().output {
            OutputMode::Pad { .. } => Some(Box::new(self.with_output_mode(OutputMode::Hist))),
            OutputMode::Hist => None,
        }
    }
}

/// Carves a relation into two bandwidth-proportional contiguous shares,
/// partitions the front share on the FPGA and the tail share on the
/// CPU, and writes the two partial outputs into one dense
/// [`PartitionedRelation`]: each partition holds the FPGA share's tuples,
/// then the CPU share's.
///
/// The default share split comes from the interference-aware §4.6
/// models of [`OverlapModel::paper`], the ones it uses for the full
/// hybrid join schedule: the FPGA share is sized by the interfered
/// bandwidth curve and the CPU share by its solo throughput derated to
/// the overlap model's 72%. [`HybridSplitEngine::with_fraction`] pins
/// the split for experiments.
#[derive(Debug, Clone)]
pub struct HybridSplitEngine {
    /// Back-end for the front share.
    pub fpga: FpgaPartitioner,
    /// Back-end for the tail share.
    pub cpu: CpuPartitioner,
    fraction: Option<f64>,
}

impl HybridSplitEngine {
    /// Split engine over `fpga` and a CPU partitioner with the same
    /// partition function and `cpu_threads` threads.
    pub fn new(fpga: FpgaPartitioner, cpu_threads: usize) -> Self {
        let cpu = CpuPartitioner::new(fpga.config().partition_fn, cpu_threads);
        Self {
            fpga,
            cpu,
            fraction: None,
        }
    }

    /// Pin the FPGA share to `fraction` (clamped to 0..=1) of the input
    /// instead of the modeled bandwidth-proportional split. A NaN
    /// fraction pins 0.0, the all-CPU split, so that
    /// [`Self::planned_fraction`] reports the split that runs.
    pub fn with_fraction(mut self, fraction: f64) -> Self {
        let fraction = if fraction.is_nan() { 0.0 } else { fraction };
        self.fraction = Some(fraction.clamp(0.0, 1.0));
        self
    }

    /// The fraction of `n` tuples the FPGA share receives: pinned if
    /// [`Self::with_fraction`] was called, otherwise the modeled balance
    /// point where both shares finish together (see
    /// [`Self::share_times`]).
    pub fn planned_fraction(&self, n: u64, tuple_width: usize) -> f64 {
        if let Some(f) = self.fraction {
            return f;
        }
        if n == 0 {
            return 0.0;
        }
        self.share_times(n, tuple_width).0 as f64 / n as f64
    }

    /// The modeled split of an `n`-tuple input: the FPGA share size `k`
    /// and both shares' modeled seconds, `(k, t_fpga(k), t_cpu(n-k))`.
    ///
    /// The FPGA share runs against the *interfered* bandwidth curve and
    /// the CPU share at the overlap model's 72% of its solo throughput —
    /// both agents contend for the memory bus. `t_fpga` is increasing in
    /// `k` and `t_cpu` decreasing, so the completion time `max(t_fpga,
    /// t_cpu)` is minimized at their crossover; a binary search finds
    /// it. Because `t_fpga` includes the platform's fixed setup latency,
    /// small inputs legitimately balance at `k = 0`: handing the FPGA
    /// anything would finish *after* the CPU is already done.
    pub fn share_times(&self, n: u64, tuple_width: usize) -> (u64, f64, f64) {
        let (output, input) = (self.fpga.config().output, self.fpga.config().input);
        let OverlapModel {
            fpga_interfered,
            cpu_interference,
            ..
        } = OverlapModel::paper(self.cpu.threads);
        let cpu_model = CpuCostModel::paper();
        let t_f = |k: u64| {
            if k == 0 {
                0.0
            } else {
                fpga_interfered.partition_seconds(k, tuple_width, output, input)
            }
        };
        let t_c = |m: u64| {
            if m == 0 {
                0.0
            } else {
                cpu_model.partition_seconds(
                    m,
                    self.cpu.partition_fn,
                    DistributionKind::Random,
                    self.cpu.threads,
                    tuple_width,
                ) / cpu_interference
            }
        };
        let k = match self.fraction {
            Some(f) => ((n as f64 * f).round() as u64).min(n),
            None => {
                // Largest k whose FPGA share still finishes no later
                // than the CPU share (predicate monotone in k).
                let (mut lo, mut hi) = (0u64, n);
                while lo < hi {
                    let mid = lo + (hi - lo).div_ceil(2);
                    if t_f(mid) <= t_c(n - mid) {
                        lo = mid;
                    } else {
                        hi = mid - 1;
                    }
                }
                // The optimum brackets the crossover: either the last
                // CPU-bound split or the first FPGA-bound one.
                if lo < n && t_f(lo + 1).max(t_c(n - lo - 1)) < t_f(lo).max(t_c(n - lo)) {
                    lo + 1
                } else {
                    lo
                }
            }
        };
        (k, t_f(k), t_c(n - k))
    }

    /// Tuples of an `n`-tuple input assigned to the FPGA share.
    fn share_split(&self, n: usize, tuple_width: usize) -> usize {
        (self.share_times(n as u64, tuple_width).0 as usize).min(n)
    }
}

impl<T: Tuple> PartitionEngine<T> for HybridSplitEngine {
    fn partition_fn(&self) -> PartitionFn {
        self.fpga.config().partition_fn
    }

    fn choice(&self) -> (EngineChoice, Option<OutputMode>) {
        (EngineChoice::Hybrid, Some(self.fpga.config().output))
    }

    /// The FPGA partitions the front share and the CPU the tail. Both
    /// shares are views of the input; a column view keeps the whole
    /// column's positions, so the split's output is position-exact.
    ///
    /// # Errors
    /// Propagates FPGA-share aborts (PAD overflow, injected faults)
    /// untransformed.
    fn partition(&self, input: Input<'_, T>) -> Result<(PartitionedRelation<T>, PartitionStats)> {
        let n = input.len();
        let k = self.share_split(n, T::WIDTH);

        let fpga_side = (k > 0)
            .then(|| self.fpga.partition(input.slice(0..k)))
            .transpose()?;
        let cpu_side = (k < n || n == 0).then(|| self.cpu.partition(input.slice(k..n)));
        Ok(finish_split(fpga_side, cpu_side))
    }

    fn hist_fallback(&self) -> Option<Box<dyn PartitionEngine<T>>> {
        match self.fpga.config().output {
            OutputMode::Pad { .. } => Some(Box::new(Self {
                fpga: self.fpga.with_output_mode(OutputMode::Hist),
                cpu: self.cpu.clone(),
                fraction: self.fraction,
            })),
            OutputMode::Hist => None,
        }
    }
}

/// Assemble the split's output and stats from the two share results. A
/// one-sided split returns its one share's output as it is. Otherwise
/// the output is written once, by a builder with two writers: each
/// partition holds the FPGA share's valid tuples, then the CPU share's.
/// The copy's SWWCB flushes are not a partitioner's and stay out of the
/// stats.
fn finish_split<T: Tuple>(
    fpga_side: Option<(PartitionedRelation<T>, RunReport)>,
    cpu_side: Option<(PartitionedRelation<T>, CpuRunReport)>,
) -> (PartitionedRelation<T>, PartitionStats) {
    let (fpga_parts, fpga) = fpga_side.unzip();
    let (cpu_parts, cpu) = cpu_side.unzip();
    let output = match (fpga_parts, cpu_parts) {
        (Some(a), Some(b)) => write_shares([&a, &b]),
        (a, b) => a.or(b).expect("a split runs at least one share"),
    };
    (output, PartitionStats { fpga, cpu })
}

/// Both shares' valid tuples, written once into one dense output.
fn write_shares<T: Tuple>(shares: [&PartitionedRelation<T>; 2]) -> PartitionedRelation<T> {
    let planned = shares.map(|share| share.histogram().to_vec());
    let extents: Vec<usize> = (planned[0].iter().zip(&planned[1]))
        .map(|(a, b)| a + b)
        .collect();
    let mut output = OutputBuilder::new(&extents, PartitionLayout::Exact, &planned);
    for (mut wc, share) in output.writers().zip(shares) {
        for p in 0..extents.len() {
            share.partition_tuples(p).for_each(|t| wc.push(p, t));
        }
    }
    output.finish().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_datagen::KeyDistribution;
    use fpart_fpga::InputMode;
    use fpart_types::relation::content_checksum;
    use fpart_types::{Relation, Tuple8};

    /// Each choice builds the engine it names, over the FPGA's partition
    /// function, reports that choice and the FPGA side's output mode, and
    /// every engine partitions alike.
    #[test]
    fn every_choice_builds_its_engine() {
        let f = PartitionFn::Murmur { bits: 5 };
        let keys = KeyDistribution::Random.generate_keys::<u32>(4096, 19);
        let rel = Relation::<Tuple8>::from_keys(&keys);
        let multisets = |parts: &PartitionedRelation<Tuple8>| -> Vec<_> {
            (0..parts.num_partitions())
                .map(|p| content_checksum(parts.partition_tuples(p)))
                .collect()
        };
        let expect = multisets(&CpuPartitioner::new(f, 2).partition(&rel).0);
        for choice in [EngineChoice::Cpu, EngineChoice::Fpga, EngineChoice::Hybrid] {
            for output in [OutputMode::Hist, OutputMode::pad_default()] {
                let fpga = FpgaPartitioner::with_modes(f, output, InputMode::Rid);
                let engine = choice.engine::<Tuple8>(fpga, 2);
                let label = format!("{choice:?} over {output:?}");
                let side = (choice != EngineChoice::Cpu).then_some(output);
                assert_eq!(engine.choice(), (choice, side), "{label}");
                assert_eq!(engine.partition_fn(), f, "{label}");
                let (parts, _) = engine.partition(Input::from(&rel)).unwrap();
                assert_eq!(multisets(&parts), expect, "{label}");
            }
        }
    }

    /// A one-sided split hands back its one share's output as that
    /// engine wrote it, slot for slot (PAD padding included), and
    /// reports that share alone.
    #[test]
    fn one_sided_split_returns_its_share_as_written() {
        let n = 4096;
        let f = PartitionFn::Murmur { bits: 5 };
        let keys = KeyDistribution::Random.generate_keys::<u32>(n, 23);
        let rel = Relation::<Tuple8>::from_keys(&keys);
        for output in [OutputMode::Hist, OutputMode::pad_default()] {
            let fpga = FpgaPartitioner::with_modes(f, output, InputMode::Rid);
            let engine = |fraction| HybridSplitEngine::new(fpga.clone(), 2).with_fraction(fraction);
            for (fraction, direct) in [
                (0.0, CpuPartitioner::new(f, 2).partition(&rel).0),
                (1.0, fpga.partition(&rel).unwrap().0),
            ] {
                let (parts, stats) = engine(fraction).partition(Input::from(&rel)).unwrap();
                let label = format!("{output:?} f={fraction}");
                assert!(parts.raw_data() == direct.raw_data(), "{label}");
                let k = (fraction * n as f64) as u64;
                let shares = (
                    stats.fpga.as_ref().map(|r| r.tuples),
                    stats.cpu.as_ref().map(|r| r.tuples),
                );
                let expect = ((k > 0).then_some(k), (k < n as u64).then_some(n as u64 - k));
                assert_eq!(shares, expect, "{label}");
            }
        }
    }
}
