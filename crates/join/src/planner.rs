//! Adaptive planning: output mode from a key sample, back-end from the
//! §4.6 cost model, degradation as policy.
//!
//! Section 5.4 shows the cost of guessing wrong: PAD mode's overflow "is
//! detected … in the worst case … at the very end of a partitioning run.
//! Then, the procedure has to start from the beginning in HIST mode."
//! A DBMS integrating the partitioner (the paper's Discussion) would not
//! guess — it would sample. [`ModePlan::sample`] estimates the heaviest
//! partition's fill from a key sample and picks:
//!
//! * **PAD** when the estimate fits the padded capacity with margin —
//!   one pass, fastest;
//! * **HIST** when it does not — two passes, never aborts.
//!
//! [`EnginePlanner`] folds the repo's three historical decision sites
//! into one call: output mode (this sampling), back-end choice (the
//! calibrated §4.6 CPU/FPGA cost models over `memmodel::platform`), and
//! degradation (the [`EscalationChain`] becomes part of the returned
//! [`Plan`] instead of a caller-side loop). Every decision is recorded
//! in a machine-readable [`PlanExplanation`]. The planner's fields are
//! the ones callers set (threads, key distribution, whether to consider
//! the split); the sample size, the PAD margin and the
//! split's gain bar are constants of this module, and the chain is
//! [`EscalationChain::new`].

use fpart_costmodel::cpu::DistributionKind;
use fpart_costmodel::{CpuCostModel, FpgaCostModel};
use fpart_fpga::{FpgaPartitioner, InputMode, OutputMode, PaddingSpec, PartitionerConfig};
use fpart_hash::PartitionFn;
use fpart_obs::json;
use fpart_types::{Input, PartitionedRelation, Result, Tuple};

use crate::engine::{EngineChoice, HybridSplitEngine, PartitionEngine};
use crate::fallback::{DegradationReport, EscalationChain};

/// Keys the output-mode sampler reads.
const SAMPLE_SIZE: usize = 4096;

/// Safety margin: the sampler chooses PAD only if the estimated heaviest
/// fill (plus flush overhead) stays below `MARGIN ×` PAD's capacity.
const MARGIN: f64 = 0.95;

/// Minimum modeled speedup over the best single back-end before the
/// hybrid split is selected: below it the copy into one output is not
/// worth the coordination.
const HYBRID_GAIN: f64 = 1.15;

/// What the output-mode sampler decided and why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModePlan {
    /// The chosen output mode.
    pub output: OutputMode,
    /// Estimated tuples in the heaviest partition at full size.
    pub estimated_max_fill: usize,
    /// The per-partition capacity PAD mode would preassign.
    pub pad_capacity: usize,
}

impl ModePlan {
    /// Plan the output mode for partitioning a row store or a column
    /// store with `f`, from a deterministic sample of its keys. PAD runs
    /// with the default padding.
    pub fn sample<'a, T: Tuple>(input: impl Into<Input<'a, T>>, f: PartitionFn) -> Self {
        let input = input.into();
        let n = input.len();
        let parts = f.fan_out();
        let pad_capacity = PaddingSpec::default().capacity(n, parts, T::LANES);
        if n == 0 {
            return ModePlan {
                output: OutputMode::pad_default(),
                estimated_max_fill: 0,
                pad_capacity,
            };
        }

        // Deterministic sample spread over the *whole* index range —
        // index k of the sample maps to tuple ⌊k·n/sample⌋, so the tail
        // of the relation is sampled with the same density as the head
        // (a fixed stride of ⌊n/sample⌋ would leave the last
        // `n mod sample·⌊n/sample⌋` tuples unseen and tail-concentrated
        // skew invisible).
        let sample = SAMPLE_SIZE.min(n).max(1);
        let mut hist = vec![0usize; parts];
        for k in 0..sample {
            let i = k * n / sample;
            hist[f.partition_of(input.key(i))] += 1;
        }
        let taken = sample;
        let max_count = hist.iter().max().copied().unwrap_or(0);
        // Separate true skew from sampling noise: the sample's heaviest
        // bin exceeds the mean both because the data is skewed and
        // because small samples fluctuate (±~3√mean per bin). Only the
        // part beyond the noise floor is treated as skew and scaled up;
        // a 3σ allowance at full size covers the data's own binomial
        // spread.
        let scale = n as f64 / taken as f64;
        let mean_count = taken as f64 / parts as f64;
        let mean_fill = n as f64 / parts as f64;
        let noise_floor = 3.0 * mean_count.max(1.0).sqrt();
        let skew_excess = (max_count as f64 - mean_count - noise_floor).max(0.0);
        let estimated_max_fill =
            (mean_fill + skew_excess * scale + 3.0 * mean_fill.max(1.0).sqrt()) as usize;

        // PAD also writes flush dummies: up to LANES-1 per combiner per
        // partition.
        let flush_overhead = T::LANES * (T::LANES - 1);
        let output = if (estimated_max_fill + flush_overhead) as f64 <= MARGIN * pad_capacity as f64
        {
            OutputMode::pad_default()
        } else {
            OutputMode::Hist
        };
        ModePlan {
            output,
            estimated_max_fill,
            pad_capacity,
        }
    }
}

/// The one-stop planner: samples the output mode, prices every back-end
/// with the calibrated §4.6 models, and wraps the winner with the
/// degradation policy.
#[derive(Debug, Clone)]
pub struct EnginePlanner {
    /// Threads for CPU runs (the CPU engine, the hybrid CPU share and
    /// the chain's CPU fallback).
    pub cpu_threads: usize,
    /// Key-distribution assumption for the CPU cost model (hash
    /// partitioning ignores it; default [`DistributionKind::Random`]).
    pub dist: DistributionKind,
    /// Consider the CPU⊕FPGA split engine (default off: the split is a
    /// co-scheduling decision the caller must opt into).
    pub allow_hybrid: bool,
}

impl EnginePlanner {
    /// Planner with the default policy: random-keys cost assumption,
    /// full degradation chain, no hybrid split.
    pub fn new(cpu_threads: usize) -> Self {
        Self {
            cpu_threads,
            dist: DistributionKind::Random,
            allow_hybrid: false,
        }
    }

    /// Override the CPU cost model's key-distribution assumption.
    pub fn with_distribution(mut self, dist: DistributionKind) -> Self {
        self.dist = dist;
        self
    }

    /// Allow (or forbid) the CPU⊕FPGA split engine.
    pub fn with_hybrid(mut self, allow: bool) -> Self {
        self.allow_hybrid = allow;
        self
    }

    /// Plan everything for partitioning a row store or a column store
    /// with `f`: output mode, back-end and degradation chain,
    /// with the full reasoning in [`Plan::explanation`]. A column store
    /// is priced and run in VRID mode.
    pub fn plan<'a, T: Tuple>(&self, input: impl Into<Input<'a, T>>, f: PartitionFn) -> Plan<T> {
        let input = input.into();
        let n = input.len() as u64;
        let mode_plan = ModePlan::sample(input, f);
        let (output, input_mode) = (mode_plan.output, InputMode::of(&input));

        let t_fpga = FpgaCostModel::paper().partition_seconds(n, T::WIDTH, output, input_mode);
        let t_cpu =
            CpuCostModel::paper().partition_seconds(n, f, self.dist, self.cpu_threads, T::WIDTH);

        let config = PartitionerConfig {
            partition_fn: f,
            ..PartitionerConfig::paper_default(output, input_mode)
        };
        let fpga = FpgaPartitioner::new(config);

        let mut t_hybrid = None;
        let mut fpga_fraction = None;
        let mut choice = if t_fpga < t_cpu {
            EngineChoice::Fpga
        } else {
            EngineChoice::Cpu
        };
        if self.allow_hybrid {
            let hybrid = HybridSplitEngine::new(fpga.clone(), self.cpu_threads);
            let (_, t_fpga_share, t_cpu_share) = hybrid.share_times(n, T::WIDTH);
            let th = t_fpga_share.max(t_cpu_share);
            t_hybrid = Some(th);
            fpga_fraction = Some(hybrid.planned_fraction(n, T::WIDTH));
            if th > 0.0 && t_fpga.min(t_cpu) / th >= HYBRID_GAIN {
                choice = EngineChoice::Hybrid;
            }
        }

        let engine = choice.engine(fpga, self.cpu_threads);
        let chain = EscalationChain::new(self.cpu_threads);

        let explanation = PlanExplanation {
            tuples: n,
            tuple_width: T::WIDTH,
            partitions: f.fan_out(),
            engine: choice,
            output,
            cpu_seconds: t_cpu,
            fpga_seconds: t_fpga,
            hybrid_seconds: t_hybrid,
            fpga_fraction,
            estimated_max_fill: mode_plan.estimated_max_fill,
            pad_capacity: mode_plan.pad_capacity,
            hist_retry: chain.hist_retry,
            cpu_fallback: chain.cpu_fallback,
        };
        Plan {
            engine,
            chain,
            explanation,
        }
    }
}

/// Everything the planner decided for one input: the engine to run
/// (with the sampled output mode baked in), the
/// degradation chain that wraps it, and the reasoning.
#[derive(Debug)]
pub struct Plan<T: Tuple> {
    /// The selected back-end, ready to run.
    pub engine: Box<dyn PartitionEngine<T>>,
    /// The degradation policy [`Plan::run`] applies.
    pub chain: EscalationChain,
    /// The machine-readable reasoning.
    pub explanation: PlanExplanation,
}

impl<T: Tuple> Plan<T> {
    /// Execute the plan: drive the engine through the degradation
    /// chain.
    ///
    /// # Errors
    /// Propagates the last back-end error when every enabled chain step
    /// failed (with the default policy the CPU step cannot fail).
    /// [`fpart_types::FpartError::InvalidConfig`] if an FPGA plan made
    /// for one layout runs on the other.
    pub fn run<'a>(
        &self,
        input: impl Into<Input<'a, T>>,
    ) -> Result<(PartitionedRelation<T>, DegradationReport)> {
        self.chain.run(self.engine.as_ref(), input)
    }
}

/// The machine-readable record of every decision a plan made — `fpart
/// plan --json` prints exactly this.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExplanation {
    /// Input size in tuples.
    pub tuples: u64,
    /// Tuple width in bytes.
    pub tuple_width: usize,
    /// Fan-out of the partition function.
    pub partitions: usize,
    /// The selected back-end.
    pub engine: EngineChoice,
    /// The sampled output mode.
    pub output: OutputMode,
    /// Modeled CPU seconds (§4.6, calibrated platform).
    pub cpu_seconds: f64,
    /// Modeled FPGA seconds for the sampled mode.
    pub fpga_seconds: f64,
    /// Modeled hybrid-split seconds, when the hybrid was considered.
    pub hybrid_seconds: Option<f64>,
    /// The hybrid split's FPGA share fraction, when considered.
    pub fpga_fraction: Option<f64>,
    /// The mode sampler's heaviest-partition estimate.
    pub estimated_max_fill: usize,
    /// The per-partition capacity PAD mode would preassign.
    pub pad_capacity: usize,
    /// Whether the chain retries aborts in HIST mode.
    pub hist_retry: bool,
    /// Whether the chain falls back to the CPU.
    pub cpu_fallback: bool,
}

impl PlanExplanation {
    /// Serialize as a single JSON object with a byte-stable key order
    /// (golden-tested by the CLI).
    pub fn to_json(&self) -> String {
        json::object()
            .field("tuples", &self.tuples)
            .field("tuple_width", &self.tuple_width)
            .field("partitions", &self.partitions)
            .field("engine", self.engine.label())
            .field("output", self.output.label())
            .field("cpu_seconds", &self.cpu_seconds)
            .field("fpga_seconds", &self.fpga_seconds)
            .field("hybrid_seconds", &self.hybrid_seconds)
            .field("fpga_fraction", &self.fpga_fraction)
            .field("estimated_max_fill", &self.estimated_max_fill)
            .field("pad_capacity", &self.pad_capacity)
            .field("hist_retry", &self.hist_retry)
            .field("cpu_fallback", &self.cpu_fallback)
            .finish()
    }

    /// Multi-line human-readable rendering (the CLI's default output).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "plan: {} tuples x {} B -> {} partitions\n",
            self.tuples, self.tuple_width, self.partitions
        ));
        s.push_str(&format!(
            "  engine   {}  (cpu {:.3} ms, fpga {:.3} ms{})\n",
            self.engine.label(),
            self.cpu_seconds * 1e3,
            self.fpga_seconds * 1e3,
            match self.hybrid_seconds {
                Some(h) => format!(", hybrid {:.3} ms", h * 1e3),
                None => String::new(),
            }
        ));
        s.push_str(&format!(
            "  output   {}  (est. max fill {} vs PAD capacity {})\n",
            self.output.label(),
            self.estimated_max_fill,
            self.pad_capacity
        ));
        s.push_str(&format!(
            "  chain    hist_retry={} cpu_fallback={}\n",
            self.hist_retry, self.cpu_fallback
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_datagen::{KeyDistribution, WorkloadId};
    use fpart_types::{Relation, Tuple8};

    fn f() -> PartitionFn {
        PartitionFn::Murmur { bits: 7 }
    }

    #[test]
    fn uniform_input_plans_pad() {
        let (_, s) = WorkloadId::A.spec().row_relations::<Tuple8>(0.0005, 1);
        let plan = ModePlan::sample(&s, f());
        assert!(
            matches!(plan.output, OutputMode::Pad { .. }),
            "uniform data should take the single-pass mode: {plan:?}"
        );
        assert!(plan.estimated_max_fill < plan.pad_capacity);
    }

    #[test]
    fn heavy_skew_plans_hist() {
        let (_, s) = WorkloadId::A
            .spec()
            .skewed_row_relations::<Tuple8>(0.0005, 1.5, 1);
        let plan = ModePlan::sample(&s, f());
        assert_eq!(plan.output, OutputMode::Hist, "{plan:?}");
        assert!(plan.estimated_max_fill > plan.pad_capacity / 2);
    }

    /// The planner's promise: whatever it picks does not abort.
    #[test]
    fn planned_mode_never_aborts() {
        for zipf in [0.0, 0.5, 1.0, 1.5] {
            let (_, s) = WorkloadId::A
                .spec()
                .skewed_row_relations::<Tuple8>(0.0005, zipf, 2);
            let plan = ModePlan::sample(&s, f());
            let config = PartitionerConfig {
                partition_fn: f(),
                output: plan.output,
                ..PartitionerConfig::paper_default(plan.output, InputMode::Rid)
            };
            let result = FpgaPartitioner::new(config).partition(&s);
            assert!(
                result.is_ok(),
                "zipf {zipf}: planned {:?} but partitioning failed: {:?}",
                plan.output,
                result.err()
            );
        }
    }

    #[test]
    fn empty_relation_defaults_to_pad() {
        let rel = Relation::<Tuple8>::from_tuples(&[]);
        let plan = ModePlan::sample(&rel, f());
        assert!(matches!(plan.output, OutputMode::Pad { .. }));
        assert_eq!(plan.estimated_max_fill, 0);
    }

    #[test]
    fn estimate_tracks_true_maximum() {
        let (_, s) = WorkloadId::A
            .spec()
            .skewed_row_relations::<Tuple8>(0.0005, 1.0, 3);
        let plan = ModePlan::sample(&s, f());
        // True histogram maximum.
        let mut hist = vec![0usize; f().fan_out()];
        for t in s.tuples() {
            hist[f().partition_of(t.key)] += 1;
        }
        let true_max = *hist.iter().max().unwrap();
        // The 3σ-padded estimate must not undershoot badly (that would
        // risk aborts) — allow 30% undershoot at this sample size.
        assert!(
            plan.estimated_max_fill as f64 > true_max as f64 * 0.7,
            "estimate {} vs true {true_max}",
            plan.estimated_max_fill
        );
    }

    /// Regression for the strided-sampling bias: skew concentrated
    /// entirely in the relation's tail (beyond `sample_size × stride`)
    /// must still be visible to the sampler. The old fixed-stride loop
    /// never read past index `sample·⌊n/sample⌋` and planned PAD here.
    #[test]
    fn tail_only_skew_plans_hist() {
        let n = 20_000usize;
        let mut keys: Vec<u32> = KeyDistribution::Random.generate_keys(n, 11);
        // Uniform head, one single hot key in the last 15%.
        for k in keys.iter_mut().skip(n - 3000) {
            *k = 0xDEAD;
        }
        let rel = Relation::<Tuple8>::from_keys(&keys);
        let plan = ModePlan::sample(&rel, f());
        assert_eq!(
            plan.output,
            OutputMode::Hist,
            "tail skew must be sampled: {plan:?}"
        );
    }

    #[test]
    fn engine_planner_picks_cost_model_winner() {
        // Murmur hash on few threads: the model says the FPGA wins by a
        // wide margin; on many threads the CPU saturates the bus and
        // wins PAD-mode throughput. The planner must agree with the raw
        // model comparison in both regimes.
        let keys: Vec<u32> = KeyDistribution::Random.generate_keys(50_000, 5);
        let rel = Relation::<Tuple8>::from_keys(&keys);
        for threads in [1, 2, 10] {
            let plan = EnginePlanner::new(threads).plan(&rel, f());
            let e = &plan.explanation;
            let expect = if e.fpga_seconds < e.cpu_seconds {
                EngineChoice::Fpga
            } else {
                EngineChoice::Cpu
            };
            assert_eq!(e.engine, expect, "threads={threads}: {e:?}");
        }
    }

    #[test]
    fn planned_run_degrades_like_the_chain() {
        // Full skew: the sampler picks HIST, so the planned run cannot
        // abort at all.
        let rel = Relation::<Tuple8>::from_keys(&vec![3u32; 4096]);
        let plan = EnginePlanner::new(2).plan(&rel, PartitionFn::Murmur { bits: 5 });
        assert_eq!(plan.explanation.output, OutputMode::Hist);
        let (parts, report) = plan.run(&rel).unwrap();
        assert_eq!(parts.total_valid(), 4096);
        assert!(!report.degraded());
    }

    #[test]
    fn explanation_json_is_stable_and_complete() {
        let keys: Vec<u32> = KeyDistribution::Random.generate_keys(10_000, 9);
        let rel = Relation::<Tuple8>::from_keys(&keys);
        let planner = EnginePlanner::new(4).with_hybrid(true);
        let a = planner.plan(&rel, f()).explanation;
        let b = planner.plan(&rel, f()).explanation;
        assert_eq!(a, b, "planning is deterministic");
        let json = a.to_json();
        for key in [
            "tuples",
            "engine",
            "output",
            "cpu_seconds",
            "fpga_seconds",
            "hybrid_seconds",
            "fpga_fraction",
            "estimated_max_fill",
            "pad_capacity",
            "hist_retry",
            "cpu_fallback",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key}: {json}"
            );
        }
        let frac = a.fpga_fraction.unwrap();
        assert!((0.0..=1.0).contains(&frac), "{a:?}");
    }

    #[test]
    fn non_finite_estimate_is_written_as_null() {
        let keys: Vec<u32> = KeyDistribution::Random.generate_keys(1000, 3);
        let rel = Relation::<Tuple8>::from_keys(&keys);
        let mut e = EnginePlanner::new(1).plan(&rel, f()).explanation;
        e.cpu_seconds = f64::NAN;
        let json = e.to_json();
        assert!(json.contains("\"cpu_seconds\": null,"), "{json}");
    }

    #[test]
    fn hybrid_selected_only_with_modeled_gain() {
        // At 100k tuples the FPGA's fixed setup latency dominates: the
        // balance point is k = 0 and the hybrid (its CPU share derated
        // to 72% by the overlap model) models slower than the solo CPU,
        // so no gain bar could select it.
        let keys: Vec<u32> = KeyDistribution::Random.generate_keys(100_000, 2);
        let small = Relation::<Tuple8>::from_keys(&keys);
        let plan = EnginePlanner::new(10).with_hybrid(true).plan(&small, f());
        let e = &plan.explanation;
        assert!(e.hybrid_seconds.unwrap() > e.cpu_seconds, "{e:?}");
        assert_ne!(e.engine, EngineChoice::Hybrid, "{e:?}");

        // At 4M tuples the latency amortizes: in single-pass PAD mode
        // the interfered FPGA (~270 Mt/s) plus the derated CPU (~364
        // Mt/s) beat the solo CPU (~506 Mt/s), clearing the 1.15 gain
        // bar. 64 partitions keeps the mode sampler comfortably inside
        // the PAD margin at this size.
        let big_f = PartitionFn::Murmur { bits: 6 };
        let keys: Vec<u32> = KeyDistribution::Random.generate_keys(4_000_000, 2);
        let big = Relation::<Tuple8>::from_keys(&keys);
        // Hybrid disallowed: never selected.
        let plan = EnginePlanner::new(10).plan(&big, big_f);
        assert_ne!(plan.explanation.engine, EngineChoice::Hybrid);
        // Allowed: both agents working beat either alone, so the split
        // wins.
        let plan = EnginePlanner::new(10).with_hybrid(true).plan(&big, big_f);
        let e = &plan.explanation;
        assert_eq!(e.engine, EngineChoice::Hybrid, "{e:?}");
        let th = e.hybrid_seconds.unwrap();
        assert!(
            e.cpu_seconds.min(e.fpga_seconds) / th >= HYBRID_GAIN,
            "{e:?}"
        );
        let frac = e.fpga_fraction.unwrap();
        assert!(frac > 0.2 && frac < 0.8, "balanced split expected: {e:?}");
    }
}
